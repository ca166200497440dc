"""sdakit: sparse semi-supervised discriminant analysis.

Rates large sparse binary datasets with a handful of labeled samples by
solving the SDA spectral pencil with matrix-free Krylov methods: Tanimoto
similarity graphs supply the Laplacian smoother, labeled-mean centering is
folded into every matvec, and a shifted conjugate gradient amortizes an
entire regularization grid into a single Krylov basis.
"""

from .sparse import (
    LabelVector,
    SparseFormatError,
    SparseMatrix,
    build_sparse,
    centered_matvec_transpose,
    labeled_mean,
)
from .graph import (
    GraphError,
    Laplacian,
    SimilarityGraph,
    knn_graph,
    laplacian,
    tanimoto,
    threshold_graph,
)
from .krylov import (
    LinearOperator,
    ShiftGrid,
    ShiftedSolveResult,
    block_cg,
    cg,
    shifted_cg,
)
from .sda import (
    RatingVector,
    SdaProblem,
    SolveReport,
    apply_w,
    solve,
    solve_many,
    solve_sweep,
)
from .evaluation import (
    CvPlan,
    ExperimentResult,
    auc_roc,
    bench_shifted,
    nested_cv,
)

__version__ = "0.1.0"

__all__ = [
    "LabelVector", "SparseFormatError", "SparseMatrix",
    "build_sparse", "centered_matvec_transpose", "labeled_mean",
    "GraphError", "Laplacian", "SimilarityGraph", "knn_graph", "laplacian",
    "tanimoto", "threshold_graph",
    "LinearOperator", "ShiftGrid", "ShiftedSolveResult", "block_cg", "cg", "shifted_cg",
    "RatingVector", "SdaProblem", "SolveReport", "apply_w", "solve", "solve_many",
    "solve_sweep",
    "CvPlan", "ExperimentResult", "auc_roc", "bench_shifted", "nested_cv",
]
