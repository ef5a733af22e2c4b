import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pradical.fields import (TABLE_MAX_ORDER, ExtensionField, PolynomialRing,
                             PrimeField, RationalFunctionField)
from pradical.linalg import (SemilinearMap, Subspace, all_subspaces, kron,
                             lin_comb, mat_identity, mat_mul, mat_pow,
                             mat_rank, nullspace, projective_points, rref,
                             semilinear_kernel, vec_is_zero, vec_terms)


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


def _sparse_matrix(F, rng, rows, cols, density=0.5):
    """Each entry nonzero with chance `density`, so rows of every density
    occur."""
    return tuple(tuple(F.random_element(rng) if rng.random() < density
                       else F.zero
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


def test_mat_pow_refuses_a_negative_exponent():
    # the shared square-and-multiply (`fields.power`) raises before its
    # loop, which a negative exponent would never leave
    F = PrimeField(3)
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        mat_pow(F, ((F.one, F.one), (F.zero, F.one)), -1)


# -- rref and nullspace against the dense elimination ---------------------

def _dense_rref(F, rows):
    """rref scaling the whole pivot row and eliminating across every column
    of it, zeros included."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows))
                      if not F.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _dense_nullspace(F, A, ncols):
    """nullspace on `_dense_rref` alone: the basis and pivots of the RREF
    of the free-column solutions."""
    basis, pivots = _dense_rref(F, A)
    vecs = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(basis[r][fc])
        vecs.append(tuple(v))
    return _dense_rref(F, vecs)


RREF_DOMAINS = dict({name: F for name, F in SCALAR_DOMAINS.items()
                     if F.is_field}, **{"GF(13)(t)": RationalFunctionField(13)})
# wide, tall and square, with one row or one column at the extremes
RREF_SHAPES = ((1, 6), (6, 1), (2, 7), (7, 2), (3, 5), (5, 3), (5, 5), (7, 7))


def _degenerate_matrix(F, rng, nrows, ncols):
    """A sparse matrix with zero rows, repeated rows and combinations of
    earlier rows mixed in, so that it is often rank-deficient."""
    A = [list(r) for r in _sparse_matrix(F, rng, nrows, ncols,
                                         rng.choice((0.2, 0.5, 0.9)))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "repeat", "combination"))
        if kind == "zero":
            A.append([F.zero] * ncols)
        elif kind == "repeat":
            A.append(list(rng.choice(A)))
        else:
            u, v = rng.choice(A), rng.choice(A)
            a, b = F.random_element(rng), F.random_element(rng)
            A.append([F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(u, v)])
    rng.shuffle(A)
    return tuple(tuple(r) for r in A)


@pytest.mark.parametrize("name", sorted(RREF_DOMAINS))
def test_rref_and_nullspace_match_dense_reference(name):
    F = RREF_DOMAINS[name]
    rng = random.Random(name)
    for nrows, ncols in RREF_SHAPES * 3:
        A = _degenerate_matrix(F, rng, nrows, ncols)
        assert rref(F, A) == _dense_rref(F, A)
        N = nullspace(F, A, ncols)
        assert (N.basis, N.pivots) == _dense_nullspace(F, A, ncols)
    zeros = ((F.zero,) * 4,) * 3
    assert rref(F, zeros) == _dense_rref(F, zeros) == ((), ())
    assert rref(F, ()) == ((), ())


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


# -- semi-echelon reduction and the spinning closure, against dense references

def _dense_reduce(F, S, v):
    """Subtract v[pc]·row over the whole vector for each basis row."""
    for row, pc in zip(S.basis, S.pivots):
        c = v[pc]
        if not F.is_zero(c):
            v = tuple(F.sub(x, F.mul(c, y)) for x, y in zip(v, row))
    return v


def _dense_closure(F, n, vectors, maps):
    """The span of vectors under the linear and bilinear maps, by the
    fixed-point loop: image every basis vector (pair) until nothing new."""
    span = Subspace.from_vectors(F, n, list(vectors))
    while True:
        vecs = list(span.basis)
        for kind, f in maps:
            if kind == "linear":
                vecs += [f(v) for v in span.basis]
            else:
                vecs += [f(u, v) for u in span.basis for v in span.basis]
        bigger = Subspace.from_vectors(F, n, vecs)
        if bigger == span:
            return span
        span = bigger


def _rref_subspace(F, rng, n):
    """A random subspace in RREF built without division, so any ring will
    do: one at each pivot, zero at the other pivots and left of its own."""
    pivots = sorted(rng.sample(range(n), rng.randint(0, n)))
    basis = []
    for pc in pivots:
        row = [F.zero] * n
        row[pc] = F.one
        for k in range(pc + 1, n):
            if k not in pivots and rng.random() < 0.6:
                row[k] = F.random_element(rng)
        basis.append(tuple(row))
    return Subspace(F, n, tuple(basis), tuple(pivots))


def _linear_map(F, rng, n):
    M = _sparse_matrix(F, rng, n, n, density=0.25)
    return lambda v: tuple(F.sum(F.mul(M[i][j], v[j]) for j in range(n))
                           for i in range(n))


def _bilinear_map(F, rng, n):
    """A sparse product with no symmetry, so both orders are images."""
    table = [[_sparse_matrix(F, rng, 1, n, density=0.3)[0]
              if rng.random() < 0.2
              else (F.zero,) * n for _ in range(n)] for _ in range(n)]

    def product(u, v):
        out = [F.zero] * n
        for i, j in itertools.product(range(n), repeat=2):
            c = F.mul(u[i], v[j])
            if not F.is_zero(c):
                out = [F.add(x, F.mul(c, y)) for x, y in zip(out, table[i][j])]
        return tuple(out)
    return product


def _images(maps):
    """images(v, rows) for `Subspace.closure`: a bilinear map is taken
    against every row found so far, in both orders."""
    def images(v, rows):
        out = []
        for kind, f in maps:
            if kind == "linear":
                out.append(f(v))
            else:
                out += [f(v, u) for u in rows] + [f(u, v) for u in rows]
        return out
    return images


@pytest.mark.parametrize("name", sorted(SCALAR_DOMAINS))
def test_reduce_matches_dense_reference(name):
    F = SCALAR_DOMAINS[name]
    rng = random.Random(name)
    for _ in range(30):
        n = rng.randint(1, 6)
        S = _rref_subspace(F, rng, n)
        v = _sparse_matrix(F, rng, 1, n)[0]
        assert S.reduce(v) == _dense_reduce(F, S, v)
        # a vector of the span reduces to zero
        w = S.lift(tuple(F.random_element(rng) for _ in S.basis))
        assert vec_is_zero(F, S.reduce(w)) and S.contains_vector(w)
    if F.is_field:
        for _ in range(10):
            S = Subspace.from_vectors(F, 4, _sparse_matrix(F, rng, 2, 4))
            v = _sparse_matrix(F, rng, 1, 4)[0]
            assert S.reduce(v) == _dense_reduce(F, S, v)


@pytest.mark.parametrize("name", sorted(SCALAR_DOMAINS))
def test_closure_matches_dense_reference(name):
    F = SCALAR_DOMAINS[name]
    rng = random.Random("closure " + name)
    if not F.is_field:
        # no division: only a closed start that absorbs every vector, with
        # no images to take
        def images(v, rows):
            raise AssertionError("images taken of a vector in the span")

        for _ in range(10):
            S = _rref_subspace(F, rng, rng.randint(1, 5))
            vecs = [S.lift(tuple(F.random_element(rng) for _ in S.basis))
                    for _ in range(3)]
            assert S.closure(vecs, images) is S
        return
    for trial in range(24):
        n = rng.randint(2, 6)
        maps = [("linear", _linear_map(F, rng, n))]
        if trial % 2:
            maps.append(("bilinear", _bilinear_map(F, rng, n)))
        images = _images(maps)
        vecs = _sparse_matrix(F, rng, rng.randint(1, 2), n)
        expected = _dense_closure(F, n, vecs, maps)
        assert Subspace.zero(F, n).closure(vecs, images) == expected
        # a closed non-zero start takes images only of the vectors new to it
        start = _dense_closure(F, n, vecs[:1], maps)
        assert start.closure(vecs[1:], images) == expected
        assert expected.closure(vecs, images) == expected


def test_closure_of_a_spanning_start_takes_no_images():
    F = PrimeField(5)

    def images(v, rows):
        raise AssertionError("images taken of a spanning start")

    vecs = [(1, 2, 0), (0, 1, 3), (4, 0, 2)]
    assert Subspace.zero(F, 3).closure(vecs, images) == Subspace.full(F, 3)
    line = Subspace.from_vectors(F, 3, vecs[:1])
    assert line.closure(vecs[1:], images) == Subspace.full(F, 3)


def test_closure_stops_at_the_full_span_with_images_pending():
    """Under v -> shift(v), shift²(v) the rows of e_0 are e_0, e_1, e_2,
    ...: F^n is spanned by the images of e_0, ..., e_(n-3), and e_(n-2)
    and e_(n-1) are never imaged."""
    F = PrimeField(3)
    n = 6
    imaged = []

    def shift(v):
        return (F.zero,) + v[:-1]

    def images(v, rows):
        imaged.append(v)
        return [shift(v), shift(shift(v))]

    e0 = (F.one,) + (F.zero,) * (n - 1)
    assert Subspace.zero(F, n).closure([e0], images) == Subspace.full(F, n)
    assert len(imaged) == n - 2


@pytest.mark.parametrize("name", sorted(SCALAR_DOMAINS))
def test_coordinates_read_the_pivots_or_return_none(name):
    F = SCALAR_DOMAINS[name]
    rng = random.Random("coordinates " + name)
    for _ in range(20):
        n = rng.randint(1, 6)
        S = _rref_subspace(F, rng, n)
        coords = tuple(F.random_element(rng) for _ in S.basis)
        v = S.lift(coords)
        assert S.coordinates(v) == coords
        assert S.coordinates(list(v)) == coords
        outside = _sparse_matrix(F, rng, 1, n)[0]
        if S.contains_vector(outside):
            assert S.lift(S.coordinates(outside)) == outside
        else:
            assert S.coordinates(outside) is None
    zero = Subspace.zero(F, 3)
    assert zero.coordinates((F.zero,) * 3) == ()
    assert zero.coordinates((F.one, F.zero, F.zero)) is None
    full = Subspace.full(F, 3)
    v = (F.one, F.zero, F.from_int(2))
    assert full.coordinates(v) == v


def test_coordinates_outside_a_line():
    F = PrimeField(3)
    S = Subspace.from_vectors(F, 3, [(F.one, F.one, F.zero)])
    assert S.coordinates((F.from_int(2), F.from_int(2), F.zero)) == (
        F.from_int(2),)
    # the pivot entry alone would read 1; the other entries rule it out
    assert S.coordinates((F.one, F.zero, F.zero)) is None
    assert S.coordinates((F.one, F.one, F.one)) is None


@pytest.mark.parametrize("name", sorted(SCALAR_DOMAINS))
def test_lin_comb_and_kron_match_dense_sums(name):
    F = SCALAR_DOMAINS[name]
    rng = random.Random("kernel " + name)
    for _ in range(10):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = _sparse_matrix(F, rng, k, n)
        coeffs = _sparse_matrix(F, rng, 1, k)[0]
        assert lin_comb(F, [vec_terms(F, r) for r in rows],
                        vec_terms(F, coeffs), n) == tuple(
            F.sum(F.mul(coeffs[i], rows[i][j]) for i in range(k))
            for j in range(n))
        u, v = _sparse_matrix(F, rng, 2, n)
        w = _sparse_matrix(F, rng, 1, k)[0]
        # e_a⊗e_b at index a·len(w) + b
        assert kron(F, u, w) == tuple(F.mul(u[a], w[b]) for a in range(n)
                                      for b in range(k))
        assert kron(F, u, ()) == () and kron(F, (), w) == ()
