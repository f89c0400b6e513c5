"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user input (bad word, bad map description, bad argument)."""


class LiftConstructionError(InputError):
    """The piecewise-linear lift cannot be built for this action."""


class DegenerateMapError(LiftConstructionError):
    """The lift would have a slope of modulus 1 at a fixed point."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed (internal bug trap)."""
