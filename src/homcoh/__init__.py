"""Exact cohomology, Ext groups and exceptional-collection mutations on the
generalized Grassmannians of classical type, built for the spinor tenfold.
"""

from .roots import (
    B4,
    B4_Q4,
    D5,
    D5_P4,
    DomainError,
    InternalConsistencyError,
    InvalidDatum,
    LieDatum,
    Parabolic,
    canonical_weight,
    cartan_matrix,
    check_dominant,
    check_levi_dominant,
    check_weight,
    dual_weight,
    dualize_levi,
    rho,
)
from .bbw import Cohomology, bbw_cohomology, weyl_dim
from .levi import (
    branch_d5_to_b4,
    sym_power,
    tensor_decompose,
    wedge_power,
)
from .bundles import Named, Sum, bundle_expr, dual, standard_sequences, tensor, twist
from .ext import Ambiguous, ExtEngine, ExtResult, get_engine, ls_chase, reset_engine
from .mutations import (
    Collection,
    KForm,
    KOnly,
    MutationStep,
    gram_matrix,
    kp_blocks,
    kp_collection,
    kuznetsov_collection,
    mutate,
    replay_main_proof,
    right_dual,
    verify_exceptional,
)
from .parser import BundleSyntaxError, parse_bundle, parse_collection

__version__ = "0.1.0"
