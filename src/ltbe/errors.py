"""Exception types shared across the package, and the check of a count argument."""


def plain_int(name: str, value: object) -> int:
    """``value``, if it is a plain ``int``; else a :class:`ValueError` naming
    the argument ``name``.  A ``bool`` is no count."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


class LtbeError(Exception):
    """Base class for every error raised by this package."""


class KindMismatch(LtbeError):
    """Two values (or a value and a container) disagree on their semiring kind."""


class CarrierMismatch(LtbeError):
    """A relation was indexed or combined with keys outside its carriers."""


class UndefinedSum(LtbeError):
    """A partial semiring addition came out undefined during a fold."""


class ParseError(LtbeError):
    """Malformed input text (functor expression or model file)."""


class TransitionTypeError(LtbeError):
    """A transition value does not match the declared type stack."""


class ValidationError(LtbeError):
    """Structurally well-formed input violating a semantic constraint."""


class StackMismatch(LtbeError):
    """Two models passed to an operator have incompatible type stacks."""


class DegenerateStack(LtbeError):
    """A type stack with no polynomial layer has no observable behaviour."""


class MonotonicityViolation(LtbeError):
    """A fixpoint iterate failed to decrease, indicating a bug or a bad tolerance."""
