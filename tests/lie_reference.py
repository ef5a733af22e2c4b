"""Reference checks on restricted Lie algebras that only the tests use."""

import itertools

from pradical.linalg import vec_add, vec_is_zero


def jacobi_triples(g):
    """The triples i < j < k, in lexicographic order and produced lazily,
    on which [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is
    not zero: `bracket` of each table entry [e_a, e_b] with a basis
    vector, as the definition reads."""
    F = g.field
    c = g.brackets
    e = [g.basis_vector(a) for a in range(g.dim)]
    for i, j, k in itertools.combinations(range(g.dim), 3):
        s = vec_add(F, vec_add(F, g.bracket(c[i][j], e[k]),
                               g.bracket(c[j][k], e[i])),
                    g.bracket(c[k][i], e[j]))
        if not vec_is_zero(F, s):
            yield i, j, k


def jacobi_ok(g):
    """Jacobi holds: the reference scan, stopped at its first failure."""
    return next(jacobi_triples(g), None) is None
