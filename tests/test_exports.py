"""The package's public names."""

import sdakit


def test_all_names_exactly_what_star_import_binds():
    assert len(set(sdakit.__all__)) == len(sdakit.__all__)
    missing = [name for name in sdakit.__all__ if not hasattr(sdakit, name)]
    assert not missing, f"stale exports: {missing}"
    namespace = {}
    exec("from sdakit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sdakit.__all__)
