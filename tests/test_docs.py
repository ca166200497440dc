"""The README against the code it describes."""

import re
from pathlib import Path

from sdakit import cli, sda

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_algorithm_table_names_exactly_the_algorithms():
    section = README.split("## Algorithms", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert tuple(names) == sda.ALGORITHMS


def test_readme_exit_code_line_lists_exactly_the_exit_codes():
    line = re.search(r"^Exit codes:.*?(?=\n\n)", README, flags=re.MULTILINE | re.DOTALL).group(0)
    codes = [int(c) for c in re.findall(r"`(\d+)`", line)]
    assert codes == sorted({cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER, cli.EXIT_IO})
