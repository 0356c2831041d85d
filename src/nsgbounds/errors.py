"""Exception types shared across the package."""


class NsgError(Exception):
    """Base class for all package-specific errors."""


class EmptyInput(NsgError):
    """A generating set was empty."""


class NonCoprimeGenerators(NsgError):
    """The generators share a common factor, so the complement is infinite."""


class EmptyIndexSet(NsgError):
    """An explicit index set for the set-difference bound was empty."""


class SingleGenerator(NsgError):
    """An operation required a second minimal generator."""


class ResourceLimit(NsgError):
    """A traversal exceeded its node budget."""
