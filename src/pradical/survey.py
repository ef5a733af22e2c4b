"""Exhaustive small-dimension surveys over finite fields.

Generates every valid restricted Lie algebra structure on a small-dimension
space and provides a brute-force all-subspaces radical oracle to compare
against rad_p.

`enumerate_algebras` spends on each bracket table only what that table
needs.  The vectors of F^n, their negations and the sparse terms of both
are listed once per call, and Jacobi is tested on the sparse antisymmetric
table of each bracket choice before any algebra object exists, by the scan
`lie.jacobi_failures` that `RLieAlgebra.validate` runs too.  For a
table that passes, the restrictedness systems Σ_k x_k·ad(e_k) = ad(e_i)^p
(i = 0..n-1) share one n²×n coefficient matrix, so one `rref` of it with
all n right-hand sides appended gives every particular solution and the
shared kernel.  The p-power variants of a table share its bracket data
(`RLieAlgebra._with_ppowers`); only their p-powers and those terms differ.
"""

from __future__ import annotations

import itertools

from .lie import RLieAlgebra, jacobi_failures
from .linalg import all_subspaces, lin_comb, mat_pow, rref, vec_add, vec_terms
from .radical import rad_p


def all_vectors(F, n, nonzero=False):
    for v in itertools.product(F.elements(), repeat=n):
        if nonzero and all(F.is_zero(c) for c in v):
            continue
        yield v


def _restricted_choices(F, ad):
    """The p-power options of each basis element e_i: the list of solutions
    x of Σ_k x_k·ad(e_k) = ad(e_i)^p, empty if there is none.

    The n systems share their coefficient matrix, so one `rref` of it with
    the n right-hand sides appended decides them all.  Its first `rank`
    rows pivot in the coefficient columns; the rows after them are zero
    there, and system i is solvable when they are zero in its column too.
    Its particular solution is read from the first rows, and the free
    coordinates of the shared kernel run in `itertools.product` order."""
    n = len(ad)
    targets = [mat_pow(F, a, F.p) for a in ad]
    rows = [tuple(a[r][c] for a in ad) + tuple(t[r][c] for t in targets)
            for r in range(n) for c in range(n)]
    basis, pivots = rref(F, rows)
    rank = sum(1 for pc in pivots if pc < n)
    echelon = list(zip(pivots[:rank], basis[:rank]))
    kernel = []
    for f in range(n):
        if f not in pivots:
            v = [F.zero] * n
            v[f] = F.one
            for pc, row in echelon:
                v[pc] = F.neg(row[f])
            kernel.append(vec_terms(F, v))
    shifts = [lin_comb(F, kernel, vec_terms(F, a), n)
              for a in itertools.product(F.elements(), repeat=len(kernel))]
    options = []
    for i in range(n):
        if any(row[n + i] != F.zero for row in basis[rank:]):
            options.append([])
            continue
        x = [F.zero] * n
        for pc, row in echelon:
            x[pc] = row[n + i]
        options.append([vec_add(F, x, v) for v in shifts])
    return options


def enumerate_algebras(F, dim, cap=10000):
    """Yield every valid restricted Lie algebra of the given dimension over
    a finite field, at most `cap` of them (none for cap <= 0).

    Brackets run over the full structure-constant grid, one vector of F^dim
    for each [e_i, e_j] with i < j in `itertools.product` order; a table is
    alternating by construction and kept if Jacobi holds on its sparse
    terms.  For each kept table one elimination solves the restrictedness
    condition, which is linear in each basis p-power, and every choice of
    p-powers is yielded.  The algebras are valid by construction and are
    marked valid without a new check; the variants of one table share its
    bracket data.
    """
    yield from itertools.islice(_grid(F, dim), max(cap, 0))


def _grid(F, n):
    """Every valid algebra of dimension n over F, in enumeration order."""
    zero = (F.zero,) * n
    entries = []
    for v in all_vectors(F, n):
        neg = tuple(F.neg(c) for c in v)
        entries.append((v, neg, vec_terms(F, v), vec_terms(F, neg)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for choice in itertools.product(entries, repeat=len(pairs)):
        terms = [[()] * n for _ in range(n)]
        for (i, j), (_, _, v_terms, neg_terms) in zip(pairs, choice):
            terms[i][j], terms[j][i] = v_terms, neg_terms
        if next(jacobi_failures(F, n, terms), None) is not None:
            continue
        table = [[zero] * n for _ in range(n)]
        for (i, j), (v, neg, _, _) in zip(pairs, choice):
            table[i][j], table[j][i] = v, neg
        g0 = RLieAlgebra(F, n, tuple(map(tuple, table)), (zero,) * n)
        options = _restricted_choices(F, g0.ad_basis())
        if not all(options):
            continue
        option_terms = [[vec_terms(F, x) for x in opts] for opts in options]
        # valid by construction: alternating by the table, Jacobi by
        # jacobi_failures, restricted by _restricted_choices
        for ppowers, pterms in zip(itertools.product(*options),
                                   itertools.product(*option_terms)):
            yield RLieAlgebra._with_ppowers(g0, ppowers, pterms)


def brute_force_radical(g):
    """Largest unipotent p-ideal by scanning every subspace (finite fields,
    tiny dimensions only)."""
    best = g.zero_subspace()
    for S in all_subspaces(g.field, g.dim):
        if S.dim > best.dim and g.is_p_ideal(S) and g.is_unipotent(S):
            best = S
    return best


def unipotent_restricted_subalgebras(g):
    """All unipotent restricted subalgebras, by subspace scan."""
    out = []
    for S in all_subspaces(g.field, g.dim):
        if g.is_restricted_subalgebra(S) and g.is_unipotent(S):
            out.append(S)
    return out


def has_nonzero_p_nilpotent(g):
    return any(g.is_p_nilpotent(v)
               for v in all_vectors(g.field, g.dim, nonzero=True))


def oracle_compare(instances):
    """Run rad_p's default ladder against the brute-force oracle; returns
    (total, mismatches)."""
    total = 0
    mismatches = []
    for g in instances:
        cert = rad_p(g)
        oracle = brute_force_radical(g)
        total += 1
        if cert.radical != oracle or not cert.is_exact:
            mismatches.append((g, cert, oracle))
    return total, mismatches
