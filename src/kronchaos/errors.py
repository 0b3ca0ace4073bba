"""Exception types shared across the package."""


class KronChaosError(Exception):
    """Base class for all library errors."""


class CoordinateError(KronChaosError, IndexError):
    """A coordinate lies outside its axis bound."""


class ShapeError(KronChaosError, ValueError):
    """Array or matrix dimensions are inconsistent with the requested operation."""


class DisjointnessError(KronChaosError, ValueError):
    """Two partial indices overlap on axes that must be disjoint."""


class AxisSetError(KronChaosError, ValueError):
    """An axis subset is not valid for the object it is applied to."""


class SizeError(KronChaosError, ValueError):
    """A problem size exceeds the supported range."""


class ArgumentError(KronChaosError, ValueError):
    """An argument violates a documented precondition (e.g. a non-finite input entry)."""


class DegenerateInputError(KronChaosError, ValueError):
    """Input is degenerate for the requested quantity (e.g. a zero matrix)."""
