"""Linear-time behaviour values for finite systems with branching.

The package computes, by greatest-fixpoint refinement, a matrix telling
for every pair of a system state and a specification state how far the
system state can exhibit the specification's linear-time behaviour: a
boolean for nondeterministic systems, a probability for sub-probabilistic
ones, and a minimal cost for weighted ones.
"""

import importlib
import types

from .branching import BranchVal, dirac, validate_branchval
from .engine import (
    FixpointOptions,
    FixpointReport,
    behaviour,
    bisimilarity,
    common_iterates,
    common_trace,
    iterates,
    step_operator,
)
from .errors import (
    CarrierMismatch,
    DegenerateStack,
    KindMismatch,
    LtbeError,
    MonotonicityViolation,
    ParseError,
    StackMismatch,
    TransitionTypeError,
    UndefinedSum,
    ValidationError,
)
from .lifting import (
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    lift_poly,
    validate_term,
)
from .polyfunctor import (
    Atom,
    Const,
    Coprod,
    Id,
    Inj,
    Pair,
    PolyExpr,
    PolyTerm,
    Power,
    Prod,
    StateRef,
    TupleTerm,
    UNIT,
    expr_to_text,
    parse_expr,
    value_key,
)
from .relation import ValRel, reindex
from .semiring import (
    INF,
    PROB_EPS,
    SemiringKind,
    SemiringValue,
    add,
    gap,
    leq,
    mul,
    one,
    zero,
)
from .system import (
    BranchLayer,
    PolyLayer,
    SpecSystem,
    System,
    TypeStack,
    linear_part,
    parse_spec,
    parse_system,
)

__version__ = "0.1.0"

# The self-checks and the brute-force oracle serve no parse or query, so
# they are imported on first access (PEP 562) to keep a fresh import cheap.
_LAZY = {
    "LawCheck": "laws",
    "LawReport": "laws",
    "MonadReport": "laws",
    "check_monad_consistency": "laws",
    "check_semiring_laws": "laws",
    "oracle_matrix": "oracle",
    "oracle_common": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted({name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)} | set(_LAZY))
