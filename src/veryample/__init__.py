"""Exact classification of divisor classes aT + bf on projective bundles
P(E) over an elliptic curve: ample, globally generated, normally generated,
very ample; each verdict three-valued and carrying its justification."""

from .atiyah import (
    FBundle,
    SplitDegrees,
    gcd_factor,
    pushforward_mu_minus,
    sym_degree,
    sym_power_split,
    sym_rank,
    tensor_f_orders,
)
from .bundles import (
    Bundle,
    BundleParseError,
    HNStage,
    IndecBundle,
    parse_bundle,
)
from .chow import (
    NumClass,
    divisor_class,
    divisor_degree,
    embedding_profile,
    h0_divisor,
    section_curve_class,
)
from .engine import (
    Divisor,
    canonical_frames,
    classify_ample,
    classify_globally_generated,
    classify_normally_generated,
    classify_very_ample,
)
from .errors import (
    ContextMismatchError,
    ContradictionError,
    DomainError,
    H0UndefinedError,
)
from .rules import ALL_RULES, Rule, VERY_AMPLE_RULES, rank3_exception
from .verdicts import (
    Comparison,
    Outcome,
    RuleFiring,
    Status,
    Strength,
    Verdict,
    Window,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bundles
    "IndecBundle",
    "Bundle",
    "HNStage",
    "BundleParseError",
    "parse_bundle",
    # atiyah
    "FBundle",
    "SplitDegrees",
    "tensor_f_orders",
    "gcd_factor",
    "sym_power_split",
    "sym_rank",
    "sym_degree",
    "pushforward_mu_minus",
    # chow
    "NumClass",
    "divisor_class",
    "divisor_degree",
    "h0_divisor",
    "embedding_profile",
    "section_curve_class",
    # engine
    "Divisor",
    "canonical_frames",
    "classify_ample",
    "classify_globally_generated",
    "classify_normally_generated",
    "classify_very_ample",
    # rules
    "Rule",
    "ALL_RULES",
    "VERY_AMPLE_RULES",
    "rank3_exception",
    # verdicts
    "Status",
    "Strength",
    "Outcome",
    "Comparison",
    "RuleFiring",
    "Window",
    "Verdict",
    # errors
    "DomainError",
    "H0UndefinedError",
    "ContextMismatchError",
    "ContradictionError",
]
