import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pradical.fields import (TABLE_MAX_ORDER, ExtensionField, PolynomialRing,
                             PrimeField, RationalFunctionField)
from pradical.linalg import (SemilinearMap, Subspace, all_subspaces,
                             mat_identity, mat_mul, mat_pow, mat_rank,
                             nullspace, projective_points, rref,
                             semilinear_kernel, vec_is_zero)


def _random_matrix(F, rng, rows, cols):
    return tuple(tuple(F.random_element(rng) for _ in range(cols))
                 for _ in range(rows))


def _dense_mul(F, A, B):
    """Every entry as the full sum over l of A[i][l]·B[l][j]."""
    return tuple(tuple(F.sum(F.mul(A[i][l], B[l][j]) for l in range(len(B)))
                       for j in range(len(B[0]) if B else 0))
                 for i in range(len(A)))


def _dense_pow(F, A, e):
    out = mat_identity(F, len(A))
    for _ in range(e):
        out = _dense_mul(F, out, A)
    return out


def _sparse_matrix(F, rng, rows, cols):
    """About half the entries zero, so rows of every density occur."""
    return tuple(tuple(F.random_element(rng) if rng.random() < 0.5 else F.zero
                       for _ in range(cols)) for _ in range(rows))


SCALAR_DOMAINS = {
    "GF(5)": PrimeField(5),
    "GF(2^3) tabled": ExtensionField(2, 3),
    "GF(2^15) untabled": ExtensionField(2, 15),
    "GF(3)(t)": RationalFunctionField(3),
    "GF(3)[x,y]": PolynomialRing(PrimeField(3), ("x", "y")),
}


def test_untabled_domain_is_above_the_table_cap():
    assert 2 ** 15 > TABLE_MAX_ORDER >= 2 ** 3


@pytest.mark.parametrize("name", sorted(SCALAR_DOMAINS))
def test_sparse_mat_mul_and_pow_match_dense(name):
    F = SCALAR_DOMAINS[name]
    rng = random.Random(name)
    for _ in range(12):
        n, m, k = (rng.randint(1, 4) for _ in range(3))
        A = _sparse_matrix(F, rng, n, k)
        B = _sparse_matrix(F, rng, k, m)
        assert mat_mul(F, A, B) == _dense_mul(F, A, B)
        S = _sparse_matrix(F, rng, n, n)
        e = rng.randint(0, 7)
        assert mat_pow(F, S, e) == _dense_pow(F, S, e)
    # empty shapes: no rows, and rows of length zero
    assert mat_mul(F, (), ()) == _dense_mul(F, (), ()) == ()
    assert mat_mul(F, ((),), ()) == _dense_mul(F, ((),), ()) == ((),)


@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank(seed, n, m):
    F = PrimeField(5)
    rng = random.Random(seed)
    A = _random_matrix(F, rng, n, m)
    basis, pivots = rref(F, list(A))
    again, pivots2 = rref(F, list(basis))
    assert basis == again and pivots == pivots2
    assert len(basis) == mat_rank(F, A) == len(pivots)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_nullspace_annihilates(seed):
    F = ExtensionField(2, 2)
    rng = random.Random(seed)
    A = _random_matrix(F, rng, 3, 4)
    N = nullspace(F, A, 4)
    assert N.dim == 4 - mat_rank(F, A)
    for v in N.basis:
        for row in A:
            s = F.sum(F.mul(row[j], v[j]) for j in range(4))
            assert F.is_zero(s)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_subspace_lattice_identities(seed):
    F = PrimeField(3)
    rng = random.Random(seed)
    U = Subspace.from_vectors(F, 4, [_random_matrix(F, rng, 1, 4)[0]
                                     for _ in range(2)])
    W = Subspace.from_vectors(F, 4, [_random_matrix(F, rng, 1, 4)[0]
                                     for _ in range(2)])
    assert U.annihilator().annihilator() == U
    inter = U.intersect(W)
    total = U.sum(W)
    assert inter.dim + total.dim == U.dim + W.dim
    assert U.contains(inter) and W.contains(inter)
    assert total.contains(U) and total.contains(W)
    # the constraint matrix cuts out exactly the subspace
    rows = U.constraint_matrix()
    cut = nullspace(F, rows, 4) if rows else Subspace.full(F, 4)
    assert cut == U


def test_all_subspaces_counts():
    F = PrimeField(2)
    # Gaussian binomial sums: 1+7+7+1 = 16 subspaces of F_2^3
    assert sum(1 for _ in all_subspaces(F, 3)) == 16
    seen = list(all_subspaces(F, 2))
    assert len(seen) == len(set(seen)) == 5


def test_projective_points_counts():
    assert len(list(projective_points(PrimeField(2), 3))) == 7
    assert len(list(projective_points(ExtensionField(2, 2), 3))) == 21
    pts = list(projective_points(PrimeField(3), 2))
    assert len(pts) == 4


def _brute_semilinear_kernel(F, B, n):
    vecs = []
    for v in itertools.product(F.elements(), repeat=n):
        img = [F.sum(F.mul(B[i][j], F.pow_int(v[j], F.p)) for j in range(n))
               for i in range(n)]
        if all(F.is_zero(c) for c in img):
            vecs.append(v)
    return Subspace.from_vectors(F, n, vecs)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_semilinear_kernel_matches_brute_force(seed):
    F = ExtensionField(2, 2)
    rng = random.Random(seed)
    B = _random_matrix(F, rng, 3, 3)
    assert semilinear_kernel(F, B) == _brute_semilinear_kernel(F, B, 3)


def test_semilinear_kernel_over_function_field():
    K = RationalFunctionField(2)
    t = K.t
    # v -> B v^(2) with B = [[1, t], [0, 0]]: kernel needs x^2 = t y^2,
    # impossible for y != 0 since t is not a square
    B = ((K.one, t), (K.zero, K.zero))
    assert semilinear_kernel(K, B).dim == 0
    sm = SemilinearMap(K, B)
    assert sm.rational_unipotent_part().dim == 0
    # but the map is not injective in the stable sense: rank drops to 1
    assert sm.stable_rank() == 1


def test_stable_rank_on_nilpotent_and_invertible():
    F = PrimeField(3)
    nil = ((F.zero, F.one), (F.zero, F.zero))
    assert SemilinearMap(F, nil).stable_rank() == 0
    assert SemilinearMap(F, nil).rational_unipotent_part().dim == 2
    ident = ((F.one, F.zero), (F.zero, F.one))
    assert SemilinearMap(F, ident).stable_rank() == 2
    assert SemilinearMap(F, ident).rational_unipotent_part().dim == 0


@given(st.integers(0, 2 ** 32), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_closure_is_the_smallest_invariant_subspace(seed, n):
    """Under two linear maps A and B the closure of v is the span of all
    words in A and B of length < n applied to v."""
    F = PrimeField(3)
    rng = random.Random(seed)
    A, B = (_random_matrix(F, rng, n, n) for _ in range(2))
    v = tuple(F.random_element(rng) for _ in range(n))

    def apply(M, x):
        return tuple(row[0] for row in mat_mul(F, M, tuple((c,) for c in x)))

    words, level = [v], [v]
    for _ in range(n - 1):
        level = [apply(M, x) for x in level for M in (A, B)]
        words.extend(level)
    expected = Subspace.from_vectors(F, n, words)

    def images(x, span):
        return [apply(A, x), apply(B, x)]

    assert Subspace.zero(F, n).closure([v], images) == expected
    # a closed start is kept and not re-imaged
    assert expected.closure([], images) == expected
    assert expected.closure([v], images) == expected
