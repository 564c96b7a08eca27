"""Exact simplicity oracle for scalar parabolic highest-weight modules.

The package decides, in exact rational arithmetic, whether the scalar
generalized Verma module attached to a parabolic of abelian type is simple
or reducible, for the seven Hermitian coordinate families.  The decision
comes from a signed chamber-sum criterion; it is cross-checked against a
closed-form description of the reducible parameter sets and against the
first-reduction constants of each case.

Only the names the README documents are exported here; everything else is
imported from its submodule.
"""

from .ehw import (
    abc_constants,
    abc_verdict,
    closed_form_reducible,
    line_offset,
    progression_summary,
)
from .errors import InsufficientWindowError, InvariantError
from .jantzen import classify_scalar
from .rootdata import HermitianCase, build_datum

__version__ = "0.1.0"

__all__ = [
    "HermitianCase",
    "classify_scalar",
    "build_datum",
    "line_offset",
    "abc_constants",
    "abc_verdict",
    "closed_form_reducible",
    "progression_summary",
    "InvariantError",
    "InsufficientWindowError",
]
