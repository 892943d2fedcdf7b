"""Exact classes and Euler characteristics of pointed Brill-Noether loci
on Prym varieties, with two mutually cross-validating computation routes.
"""

from .exact_arith import (
    abel_coefficient,
    binom_gen,
    factorial,
    format_rational,
    parse_rational,
)
from .operator_engine import (
    apply_pair_operator,
    interaction_expansion,
    prefactor_expansion,
)
from .pfaffian import (
    SkewMatrix,
    augment_odd,
    det_fraction_free,
    perm_sign,
    pfaffian_matchings,
    pfaffian_permutations,
)
from .prym_bn import (
    SYMBOLIC,
    ClassResult,
    GTable,
    PrymProblem,
    ValidationError,
    build_problem,
    ch_k_class,
    chow_class_closed,
    chow_class_pfaffian,
    ck_class,
    class_result,
    classical_coefficient,
    enumerate_f,
    euler_oracle,
    euler_theorem,
    g_coeff,
    problem_from_partition,
    strict_partitions,
)
from .series_ring import BetaPoly, ThetaPoly, d_value

__version__ = "0.1.0"

__all__ = [
    "BetaPoly",
    "ClassResult",
    "GTable",
    "PrymProblem",
    "SYMBOLIC",
    "SkewMatrix",
    "ThetaPoly",
    "ValidationError",
    "__version__",
    "abel_coefficient",
    "apply_pair_operator",
    "augment_odd",
    "binom_gen",
    "build_problem",
    "ch_k_class",
    "chow_class_closed",
    "chow_class_pfaffian",
    "ck_class",
    "class_result",
    "classical_coefficient",
    "d_value",
    "det_fraction_free",
    "enumerate_f",
    "euler_oracle",
    "euler_theorem",
    "factorial",
    "format_rational",
    "g_coeff",
    "interaction_expansion",
    "parse_rational",
    "perm_sign",
    "pfaffian_matchings",
    "pfaffian_permutations",
    "prefactor_expansion",
    "problem_from_partition",
    "strict_partitions",
]
