"""Exact simplicity oracle for scalar parabolic highest-weight modules.

The package decides, in exact rational arithmetic, whether the scalar
generalized Verma module attached to a parabolic of abelian type is simple
or reducible, for the seven Hermitian coordinate families.  The decision
comes from a signed chamber-sum criterion; it is cross-checked against a
closed-form description of the reducible parameter sets and against the
first-reduction constants of each case.
"""

from .ehw import (
    ABCConstants,
    Progression,
    ProgressionSummary,
    ReducibilitySet,
    SpecialLine,
    abc_constants,
    abc_verdict,
    closed_form_reducible,
    line_offset,
    progression_summary,
    reducibility_set,
    special_line,
)
from .errors import InsufficientWindowError, InvariantError
from .jantzen import (
    REDUCIBLE,
    SIMPLE,
    JantzenTerm,
    RepClass,
    SimplicityVerdict,
    classify_scalar,
    jantzen_support,
    quick_simple,
    simplicity_oracle,
)
from .ratvec import (
    Rational,
    Weight,
    add,
    format_rational,
    inner,
    is_integer,
    pairing,
    parse_rational,
    reflect,
    scale,
    sub,
    weight,
    zero,
)
from .rootdata import (
    CASE_TAGS,
    HermitianCase,
    ParabolicRootDatum,
    build_datum,
    case_notes,
    parse_pattern,
    pattern_string,
    scalar_parameter_weight,
    sign_pattern_root,
)
from .weyl import (
    REGULAR,
    SINGULAR,
    ChamberForm,
    normalize,
    theta_pairing,
)

__version__ = "0.1.0"

__all__ = [
    "abc_constants",
    "abc_verdict",
    "ABCConstants",
    "add",
    "build_datum",
    "case_notes",
    "CASE_TAGS",
    "ChamberForm",
    "classify_scalar",
    "closed_form_reducible",
    "format_rational",
    "HermitianCase",
    "inner",
    "InsufficientWindowError",
    "InvariantError",
    "is_integer",
    "jantzen_support",
    "JantzenTerm",
    "line_offset",
    "normalize",
    "pairing",
    "ParabolicRootDatum",
    "parse_pattern",
    "parse_rational",
    "pattern_string",
    "Progression",
    "progression_summary",
    "ProgressionSummary",
    "quick_simple",
    "Rational",
    "reducibility_set",
    "ReducibilitySet",
    "REDUCIBLE",
    "reflect",
    "REGULAR",
    "RepClass",
    "scalar_parameter_weight",
    "scale",
    "sign_pattern_root",
    "SIMPLE",
    "simplicity_oracle",
    "SimplicityVerdict",
    "SINGULAR",
    "special_line",
    "SpecialLine",
    "sub",
    "theta_pairing",
    "Weight",
    "weight",
    "zero",
]
