"""Correlation decay on regular trees: bounds, certificates, and verification.

The package builds finite truncations of the d-regular tree, realizes the
non-backtracking operator on their directed edges, evaluates the family
of closed-form decay bounds, and checks those bounds against correlations
of concrete local processes along two routes: exact enumeration of every
labeling of a finite label domain, and Monte Carlo sampling of linear
rules over Rademacher labels.
"""

from .bounds import (
    BoundRow,
    bnorm_bound,
    bound_table,
    edge_corr_bound,
    hull_corr_bound,
    vertex_corr_bound,
)
from .correlation import (
    CorrEstimate,
    ExactCorrResult,
    Verdict,
    edge_homogeneity_check,
    exact_corr_discrete,
    exact_edge_corr,
    lemma_consequence_check,
    monte_carlo_corr,
    polarization_check,
    verify_bound,
)
from .errors import (
    CapExceededError,
    InteriorityError,
    LabelCollisionError,
    NbtreeError,
    NonExchangeableError,
    ReconstructionError,
)
from .factor_engine import (
    BlockRule,
    EdgeRule,
    LinearRule,
    linear_rule_covariance_exact,
    symmetrize_rule,
)
from .nb_operator import (
    CertificateReport,
    NormReport,
    certify_claims,
    cone_weight_sums,
    operator_norm_pow,
    walk_count,
    walk_counts,
)
from .tree_core import (
    TreeBall,
    build_ball,
    convex_hull,
    hull_distance,
    successors,
)
from .universal_factor import (
    VertexCode,
    encode_vertex,
    reconstruct_path,
    roundtrip_check,
)

__version__ = "0.1.0"
