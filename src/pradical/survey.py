"""Exhaustive small-dimension surveys over finite fields.

Generates every valid restricted Lie algebra structure on a small-dimension
space (bracket grid filtered by the Jacobi identity, then the linear
restrictedness condition solved for the p-power data) and provides a
brute-force all-subspaces radical oracle to compare against rad_p.
"""

from __future__ import annotations

import itertools

from .lie import RLieAlgebra, ValidationReport
from .linalg import all_subspaces, mat_pow, rref


def all_vectors(F, n, nonzero=False):
    for v in itertools.product(F.elements(), repeat=n):
        if nonzero and all(F.is_zero(c) for c in v):
            continue
        yield v


def _affine_solutions(F, rows, rhs, ncols):
    """All solutions x of (rows)·x = rhs; yields tuples, empty if none."""
    aug = [tuple(row) + (b,) for row, b in zip(rows, rhs)]
    basis, pivots = rref(F, aug)
    if ncols in pivots:
        return
    particular = [F.zero] * ncols
    for r, j in enumerate(pivots):
        particular[j] = basis[r][ncols]
    hom_basis, hom_pivots = rref(F, [row[:ncols] for row in aug])
    free = [j for j in range(ncols) if j not in hom_pivots]
    for assignment in itertools.product(F.elements(), repeat=len(free)):
        x = list(particular)
        # back-substitute the free choices through the RREF rows
        vals = dict(zip(free, assignment))
        for r in range(len(hom_basis) - 1, -1, -1):
            j = hom_pivots[r]
            s = F.zero
            for k in range(j + 1, ncols):
                c = hom_basis[r][k]
                if not F.is_zero(c):
                    s = F.add(s, F.mul(c, vals.get(k, F.zero)))
            vals[j] = F.sub(F.zero, s)
        yield tuple(F.add(particular[j], vals.get(j, F.zero))
                    for j in range(ncols))


def _restricted_choices(F, ad, i, n):
    """All p-power vectors for basis element i: solutions of
    ad(pvec) = ad(e_i)^p, a linear system in the pvec coordinates."""
    target = mat_pow(F, ad[i], F.p)
    rows = []
    rhs = []
    for r in range(n):
        for c in range(n):
            rows.append(tuple(ad[k][r][c] for k in range(n)))
            rhs.append(target[r][c])
    return list(_affine_solutions(F, rows, rhs, n))


def enumerate_algebras(F, dim, cap=10000):
    """Yield every valid restricted Lie algebra of the given dimension over
    a finite field, up to the instance cap.

    Brackets run over the full structure-constant grid (alternating by
    construction, Jacobi-filtered); for each bracket table the restrictedness
    condition is linear in each basis p-power and solved exactly.
    """
    n = dim
    count = 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bracket_choice in itertools.product(
            list(all_vectors(F, n)), repeat=len(pairs)):
        upper = dict(zip(pairs, bracket_choice))
        g0 = RLieAlgebra.from_upper(F, n, upper,
                                    [(F.zero,) * n] * n)
        if not _jacobi_ok(g0):
            continue
        ad = g0.ad_basis()
        per_i = [_restricted_choices(F, ad, i, n) for i in range(n)]
        if any(not opts for opts in per_i):
            continue
        for ppowers in itertools.product(*per_i):
            g = RLieAlgebra(F, n, g0.brackets, ppowers)
            # valid by construction: alternating by from_upper, Jacobi by
            # _jacobi_ok, restricted by _restricted_choices
            g._validated = ValidationReport(True)
            yield g
            count += 1
            if count >= cap:
                return


def _jacobi_ok(g):
    """Jacobi holds: `validate`'s scan, stopped at its first failure."""
    return next(g._jacobi_failures(), None) is None


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


def oracle_compare(instances, strategy="s3"):
    """Run rad_p against the brute-force oracle; returns (total, mismatches)."""
    from .radical import rad_p

    total = 0
    mismatches = []
    for g in instances:
        cert = rad_p(g, strategy=strategy)
        oracle = brute_force_radical(g)
        total += 1
        if cert.radical != oracle or not cert.is_exact:
            mismatches.append((g, cert, oracle))
    return total, mismatches
