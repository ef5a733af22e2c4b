"""Reference checks on restricted Lie algebras that only the tests use."""


def jacobi_ok(g):
    """Jacobi holds: `validate`'s scan, stopped at its first failure."""
    return next(g._jacobi_failures(), None) is None
