import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pradical import linalg
from pradical.envelope import u_env
from pradical.fields import (ExtensionField, FieldHom, PolynomialRing,
                             PrimeField, RationalFunctionField,
                             base_change_map)
from pradical.gallery import paper_g, resolve, sl2_kernel_char2
from pradical.lie import (NotPIdealError, RLieAlgebra, direct_sum,
                          jacobi_failures)
from pradical.linalg import mat_identity, projective_points
from pradical.survey import _restricted_choices, enumerate_algebras

from hopf_reference import monomial_index
from lie_reference import jacobi_ok, jacobi_triples


def _instances():
    F = PrimeField(2)
    out = list(enumerate_algebras(F, 2))
    out += list(enumerate_algebras(F, 3, cap=120))
    # p = 3: the Jacobson cross term has more than one bracket
    out += list(enumerate_algebras(PrimeField(3), 2))
    return out

INSTANCES = _instances()


def _random_vec(g, rng):
    return tuple(g.field.random_element(rng) for _ in range(g.dim))


# (p, dim) -> (count, sha256 of the (brackets, ppowers) sequence), as
# enumerated while enumerate_algebras still validated every variant; (3, 3)
# and (2, 4) as enumerated while it still built an algebra per bracket table
ENUMERATED = {
    (2, 2): (19, "b7bb4af74320694c3cd5205c5466e7a6"
                 "4bab58d7db3dc25f95a4f970aa4bcde6"),
    (2, 3): (911, "4f6a35940e4a522ce1bf2eebf6c4d054"
                  "97ae4de1f188da8dcc149b671cf5dd4b"),
    (3, 2): (89, "a76252051564cbf3c8b88104dfc6e858"
                 "ccecd48b32dbad2e749e62db4c9b9164"),
    (5, 2): (649, "1f249c5be8cfb392726ff093dfdfad47"
                  "b7218b6785821be837841d23c7a025d1"),
    # the whole survey grid over GF(3)
    (3, 3): (29537, "abb000c767e298c02208bbfa994a997b"
                    "bd5b116106ceab788af056eb42df827e"),
    # a prefix, cap 2000: four Jacobi triples per table
    (2, 4): (2000, "4b9a63e1a557f22e5c8a287040c585a5"
                   "cefe20b5e89d5e2ec3a23e9da61243d9"),
}
ENUMERATION_CAP = {(2, 4): 2000}
# every algebra is hashed; on the GF(3) grid only every 10th is validated
VALIDATION_STRIDE = {(3, 3): 10}


@pytest.mark.parametrize("p,dim", sorted(ENUMERATED))
def test_enumerated_algebras_validate_from_scratch(p, dim):
    # enumerate_algebras marks its algebras valid without checking them
    F = PrimeField(p)
    stride = VALIDATION_STRIDE.get((p, dim), 1)
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_algebras(F, dim,
                                cap=ENUMERATION_CAP.get((p, dim), 10 ** 9)):
        if count % stride == 0:
            assert RLieAlgebra(F, dim, g.brackets, g.ppowers).validate()
        digest.update(repr((g.brackets, g.ppowers)).encode())
        count += 1
    assert (count, digest.hexdigest()) == ENUMERATED[(p, dim)]


def test_validate_rejects_jacobi_violation():
    F = PrimeField(2)
    one, zero = F.one, F.zero
    # [e1,e2]=e2, [e2,e3]=e1: the Jacobi sum is [e3,[e1,e2]] = -e1 != 0
    g = RLieAlgebra.from_upper(
        F, 3, {(0, 1): (zero, one, zero), (1, 2): (one, zero, zero)},
        [(zero,) * 3] * 3)
    report = g.validate()
    assert not report
    assert any(name == "jacobi" for name, *_ in report.failures)
    with pytest.raises(ValueError):
        g.require_valid()


def test_validate_rejects_non_restricted_p_power():
    F = PrimeField(2)
    one, zero = F.one, F.zero
    # [e1,e2] = e2 but e1^[2] = 0: ad(e1)^2 = ad(e1) != 0 = ad(e1^[2])
    g = RLieAlgebra.from_upper(F, 2, {(0, 1): (zero, one)},
                               [(zero, zero), (zero, zero)])
    report = g.validate()
    assert not report
    assert any(name == "restricted" for name, *_ in report.failures)


@given(st.sampled_from(INSTANCES), st.integers(0, 2 ** 32))
@settings(max_examples=120, deadline=None)
def test_p_power_is_restricted_semilinear(g, seed):
    """ad(x^[p]) = ad(x)^p and (cx)^[p] = c^p x^[p] for arbitrary x."""
    from pradical.linalg import mat_pow

    F = g.field
    rng = random.Random(seed)
    x = _random_vec(g, rng)
    c = F.random_element(rng)
    px = g.p_power(x)
    assert g.ad_matrix(px) == mat_pow(F, g.ad_matrix(x), F.p)
    cx = tuple(F.mul(c, xi) for xi in x)
    expect = tuple(F.mul(F.pow_int(c, F.p), v) for v in px)
    assert g.p_power(cx) == expect


@given(st.sampled_from(INSTANCES), st.integers(0, 2 ** 32))
@settings(max_examples=100, deadline=None)
def test_jacobson_additivity_against_generic_polynomial(g, seed):
    """p_power agrees with the symbolic generic p-power at random points."""
    rng = random.Random(seed)
    x = _random_vec(g, rng)
    generic, R = g.generic_p_power()
    evaluated = tuple(R.evaluate(component, x) for component in generic)
    assert evaluated == g.p_power(x)


def _witt(p):
    """W(1) over GF(p): [e_a, e_b] = (b - a) e_(a+b), e_0^[p] = e_0."""
    F = PrimeField(p)
    upper = {}
    for a in range(p):
        for b in range(a + 1, p):
            k = a + b - 1          # position a holds e_(a-1)
            if k < p and (b - a) % p:
                upper[(a, b)] = tuple(F.from_int(b - a) if m == k else F.zero
                                      for m in range(p))
    ppowers = [(F.zero,) * p] * p
    ppowers[1] = tuple(F.one if m == 1 else F.zero for m in range(p))
    return RLieAlgebra.from_upper(F, p, upper, ppowers)


def _non_abelian_grid(F, count, rng):
    """A seeded sample of non-abelian dim-2 grid algebras over F."""
    zero = (F.zero, F.zero)
    out = []
    while len(out) < count:
        v = (F.random_element(rng), F.random_element(rng))
        if v == zero:
            continue
        g0 = RLieAlgebra.from_upper(F, 2, {(0, 1): v}, [zero, zero])
        choices = _restricted_choices(F, g0.ad_basis())
        if all(choices):
            out.append(RLieAlgebra(F, 2, g0.brackets,
                                   [rng.choice(c) for c in choices]))
    return out


def _oracle_cases():
    rng = random.Random(20261018)
    non_abelian = [g for p in (3, 5)
                   for g in enumerate_algebras(PrimeField(p), 2)
                   if not g.is_abelian()]
    cases = ([("W(1) p=3", _witt(3)), ("paper_g(3)", paper_g(3)[0])]
             + [("GF(p) dim 2", g) for g in rng.sample(non_abelian, 8)]
             + [("GF(9) dim 2", g)
                for g in _non_abelian_grid(ExtensionField(3, 2), 2, rng)])
    return [(name, g, seed) for seed, (name, g) in enumerate(cases)]


@pytest.mark.parametrize("name,g,seed", _oracle_cases())
def test_p_power_matches_envelope_power(name, g, seed):
    """In u(g), the p-th power of x equals the image of x^[p]; u(g) is
    built from the basis p-powers only, so this checks the Jacobson
    expansion independently."""
    F = g.field
    H = u_env(g)
    index = monomial_index(g)
    units = [index[tuple(int(m == i) for m in range(g.dim))]
             for i in range(g.dim)]

    def image(x):
        v = [F.zero] * H.dim
        for i, c in zip(units, x):
            v[i] = c
        return tuple(v)

    rng = random.Random(seed)
    for _ in range(4):
        x = _random_vec(g, rng)
        assert H.power(image(x), F.p) == image(g.p_power(x))


@given(st.sampled_from(INSTANCES))
@settings(max_examples=100, deadline=None)
def test_center_and_derived_are_p_ideals(g):
    for S in (g.center(), g.spin_p_ideal(g.derived_subalgebra())):
        assert g.is_p_ideal(S)


@given(st.sampled_from(INSTANCES), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_spin_p_ideal_is_smallest_containing(g, seed):
    rng = random.Random(seed)
    v = _random_vec(g, rng)
    S = g.subspace([v])
    I = g.spin_p_ideal(S)
    assert g.is_p_ideal(I)
    assert I.contains(S)


def test_quotient_rejects_non_ideal():
    g = sl2_kernel_char2()
    e_line = g.subspace([g.basis_vector(0)])
    with pytest.raises(NotPIdealError):
        g.quotient(e_line)


@given(st.sampled_from(INSTANCES))
@settings(max_examples=80, deadline=None)
def test_quotient_bracket_compatibility(g):
    I = g.center()
    if I.dim in (0, g.dim):
        return
    q, project, section = g.quotient(I)
    assert q.validate()
    F = g.field
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = project(g.brackets[i][j])
            rhs = q.bracket(project(g.basis_vector(i)),
                            project(g.basis_vector(j)))
            assert lhs == rhs
        assert project(g.ppowers[i]) == q.p_power(project(g.basis_vector(i)))


def test_unipotence_is_base_change_invariant():
    F = PrimeField(2)
    K = ExtensionField(2, 2)
    hom = base_change_map(F, K)
    for g in [g for g in INSTANCES if g.field == F][:60]:
        gK = g.base_change(hom)
        assert g.is_unipotent() == gK.is_unipotent()


def _transported(g, hom):
    """g over hom.target, built and validated from scratch."""
    n = g.dim
    table = tuple(tuple(tuple(hom(c) for c in g.brackets[i][j])
                        for j in range(n)) for i in range(n))
    ppow = tuple(tuple(hom(c) for c in v) for v in g.ppowers)
    return RLieAlgebra(hom.target, n, table, ppow, g.labels)


def _corrupted(g, i):
    """g with e_i^[p] shifted by e_i: not restricted unless ad(e_i) is 0."""
    F = g.field
    pp = list(g.ppowers)
    pp[i] = tuple(F.add(c, F.one if k == i else F.zero)
                  for k, c in enumerate(pp[i]))
    return RLieAlgebra(F, g.dim, g.brackets, pp, g.labels)


def test_base_change_keeps_the_source_validation():
    F = PrimeField(2)
    K = RationalFunctionField(2)
    homs = [base_change_map(F, K), base_change_map(F, ExtensionField(2, 3))]
    grid = [g for g in enumerate_algebras(F, 3) if not g.is_abelian()][::16]
    algebras = grid + [_corrupted(g, i) for g in grid for i in range(g.dim)]
    sources = [(g, hom) for g in algebras for hom in homs]
    pg = paper_g(2)[0]
    inseparable = base_change_map(K, RationalFunctionField(2, "@s"), 1)
    sources += [(pg, inseparable), (_corrupted(pg, 2), inseparable)]
    invalid = 0
    for g, hom in sources:
        fresh = _transported(g, hom)
        report = fresh.validate()
        if report:
            assert g.base_change(hom).validate() == report
            continue
        invalid += 1
        with pytest.raises(ValueError) as expected:
            fresh.require_valid()
        with pytest.raises(ValueError) as raised:
            g.base_change(hom)
        assert str(raised.value) == str(expected.value)
    assert invalid > 0


# -- sparse products against dense references ---------------------------------

def _dense_ad(g, x):
    """ad(x) entry by entry: row k, column j is Σ_i x_i·c[i][j][k]."""
    F, n = g.field, g.dim
    return tuple(tuple(F.sum(F.mul(x[i], g.brackets[i][j][k])
                             for i in range(n))
                       for j in range(n)) for k in range(n))


def _dense_pow(F, A, e):
    out = mat_identity(F, len(A))
    for _ in range(e):
        out = tuple(tuple(F.sum(F.mul(out[i][l], A[l][j])
                                for l in range(len(A)))
                          for j in range(len(A))) for i in range(len(A)))
    return out


def _dense_bracket(g, x, y):
    F, n = g.field, g.dim
    return tuple(F.sum(F.mul(F.mul(x[i], y[j]), g.brackets[i][j][k])
                       for i in range(n) for j in range(n))
                 for k in range(n))


def _dense_validate(g):
    """`validate`'s failure list from dense products and full sums only."""
    F, n, c, lab = g.field, g.dim, g.brackets, g.labels
    e = [g.basis_vector(i) for i in range(n)]
    out = [("alternating", (i, i), "[%s,%s] != 0" % (lab[i], lab[i]))
           for i in range(n) if any(not F.is_zero(v) for v in c[i][i])]
    out += [("antisymmetry", (i, j), "c_ij != -c_ji")
            for i, j in itertools.combinations(range(n), 2)
            if c[i][j] != tuple(F.neg(v) for v in c[j][i])]
    if not out:
        out = [("jacobi", (i, j, k), "Jacobi fails on (%s,%s,%s)"
                % (lab[i], lab[j], lab[k]))
               for i, j, k in itertools.combinations(range(n), 3)
               if any(not F.is_zero(F.sum(terms)) for terms in zip(
                   _dense_bracket(g, c[i][j], e[k]),
                   _dense_bracket(g, c[j][k], e[i]),
                   _dense_bracket(g, c[k][i], e[j])))]
    if not out:
        out = [("restricted", (i,), "ad(%s^[p]) != ad(%s)^p"
                % (lab[i], lab[i]))
               for i in range(n)
               if _dense_ad(g, g.ppowers[i])
               != _dense_pow(F, _dense_ad(g, e[i]), F.p)]
    return out


def _perturbed(g, rng):
    """g with one structure constant or p-power coordinate shifted: kind 0
    keeps the table antisymmetric, kind 1 shifts one entry, kind 2 one
    p-power coordinate."""
    F, n = g.field, g.dim
    table = [[list(v) for v in row] for row in g.brackets]
    pp = [list(v) for v in g.ppowers]
    c = F.zero
    while F.is_zero(c):
        c = F.random_element(rng)
    i, j, k = (rng.randrange(n) for _ in range(3))
    kind = rng.randrange(3)
    if kind == 0 and i != j:
        table[i][j][k] = F.add(table[i][j][k], c)
        table[j][i][k] = F.neg(table[i][j][k])
    elif kind == 1:
        table[i][j][k] = F.add(table[i][j][k], c)
    else:
        pp[i][k] = F.add(pp[i][k], c)
    return RLieAlgebra(F, n, table, pp, g.labels)


def _product_cases():
    F2, F3 = PrimeField(2), PrimeField(3)
    grid2 = list(enumerate_algebras(F2, 3))[::24]
    grid3 = list(enumerate_algebras(F3, 3, cap=400))[::20]
    R = PolynomialRing(F2, ("x", "y"))
    homs = [base_change_map(F2, ExtensionField(2, 3)),
            base_change_map(F2, ExtensionField(2, 15)),
            FieldHom(F2, R, R.embed, "GF(2) -> GF(2)[x,y]")]
    cases = grid2 + grid3 + [sl2_kernel_char2()]
    cases += [paper_g(p)[0] for p in (2, 3, 5)]
    cases += [_transported(g, base_change_map(F3, RationalFunctionField(3)))
              for g in grid3[::3]]
    cases += [_transported(g, hom) for g in grid2[::3] for hom in homs]
    return cases


def test_ad_matrix_matches_dense_sum():
    rng = random.Random(20260826)
    for g in _product_cases():
        for x in [g.basis_vector(i) for i in range(g.dim)] + [
                _random_vec(g, rng) for _ in range(3)]:
            assert g.ad_matrix(x) == _dense_ad(g, x)
    empty = RLieAlgebra(PrimeField(2), 0, (), ())
    assert empty.ad_matrix(()) == ()


def test_validate_reports_match_dense_check_on_perturbed_tables():
    rng = random.Random(7)
    kinds = set()
    for g in _product_cases():
        assert g.validate().failures == _dense_validate(g) == []
        for _ in range(4):
            h = _perturbed(g, rng)
            report = h.validate()
            assert report.failures == _dense_validate(h)
            kinds.update(name for name, *_ in report.failures)
    assert kinds == {"alternating", "antisymmetry", "jacobi", "restricted"}


def test_direct_sum_structure():
    a = sl2_kernel_char2()
    b = sl2_kernel_char2()
    s = direct_sum(a, b)
    assert s.validate()
    assert s.dim == 6
    assert s.center().dim == 2


def test_series_classification_on_solvable_family():
    g, _ = paper_g(2)
    X = g.basis_vector(0)
    Y = g.basis_vector(1)
    chain = [g.zero_subspace(), g.subspace([X]), g.subspace([X, Y]),
             g.full_subspace()]
    kinds = [s["kind"] for s in g.verify_subnormal_series(chain)]
    assert kinds == ["mu-form", "alpha-type", "mu-form"]


def test_characteristic_series_shapes():
    g = sl2_kernel_char2()
    series = g.characteristic_series()
    assert series["nilpotent"] and series["solvable"]
    assert [S.dim for S in series["lower_central_series"]] == [3, 1, 0]
    assert series["center"] == g.subspace([g.basis_vector(1)])


# -- the spins against their definition ---------------------------------------


def _spin_p_ideal_fixed_point(g, S):
    """Reference: close under all ad(e_i) and the p-powers of the whole
    basis, rebuilding the span until nothing changes."""
    cur = S
    for _ in range(g.dim + 1):
        vecs = list(cur.basis)
        for i in range(g.dim):
            ei = g.basis_vector(i)
            vecs.extend(g.bracket(ei, v) for v in cur.basis)
        vecs.extend(g.p_power(v) for v in cur.basis)
        nxt = g.subspace(vecs)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def _spin_subalgebra_fixed_point(g, S):
    """Reference: close under all brackets and p-powers of the whole basis,
    rebuilding the span until nothing changes."""
    cur = S
    for _ in range(g.dim + 1):
        vecs = list(cur.basis)
        vecs.extend(g.bracket(u, v) for u in cur.basis for v in cur.basis)
        vecs.extend(g.p_power(v) for v in cur.basis)
        nxt = g.subspace(vecs)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def _grid_sample(F, n, count, rng):
    """A seeded sample of non-abelian dim-n grid algebras over F."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    zero = (F.zero,) * n
    out = []
    while len(out) < count:
        upper = {ij: tuple(F.random_element(rng) for _ in range(n))
                 for ij in pairs}
        if all(v == zero for v in upper.values()):
            continue
        g0 = RLieAlgebra.from_upper(F, n, upper, [zero] * n)
        if not jacobi_ok(g0):
            continue
        choices = _restricted_choices(F, g0.ad_basis())
        if all(choices):
            out.append(RLieAlgebra(F, n, g0.brackets,
                                   [rng.choice(c) for c in choices]))
    return out


def _spin_cases():
    """(name, algebra, start vectors): every point of the GF(2) dim-3 grid,
    a GF(3) dim-3 sample, gallery algebras over GF(9) and GF(p)(t)."""
    rng = random.Random(20261019)
    F2, F3 = PrimeField(2), PrimeField(3)
    F9 = ExtensionField(3, 2)
    to_f9 = base_change_map(F3, F9)
    cases = [("GF(2) grid", g, list(projective_points(F2, 3)))
             for g in enumerate_algebras(F2, 3)]
    cases += [("GF(3) sample", g, list(projective_points(F3, 3)))
              for g in _grid_sample(F3, 3, 40, rng)]
    over_f9 = [_witt(3), resolve("torus@3^2"),
               resolve("product(alpha@3,alpha@3)")]
    over_f9 = ([g.base_change(to_f9) for g in over_f9]
               + _non_abelian_grid(F9, 4, rng))
    cases += [("GF(9)", g, list(projective_points(F9, g.dim)))
              for g in over_f9]
    over_t = [paper_g(p)[0] for p in (2, 3, 5)]
    over_t.append(direct_sum(paper_g(2)[0], paper_g(2)[0]))
    for g in over_t:
        K = g.field
        basis = [g.basis_vector(i) for i in range(g.dim)]
        vecs = basis + [tuple(K.add(a, b) for a, b in zip(u, v))
                        for u, v in itertools.combinations(basis, 2)]
        vecs += [_random_vec(g, rng) for _ in range(4)]
        cases.append(("GF(p)(t)", g, vecs))
    return cases


def test_spin_p_ideal_matches_fixed_point():
    spins = 0
    for name, g, vecs in _spin_cases():
        for v in vecs:
            S = g.subspace([v])
            assert g.spin_p_ideal(S) == _spin_p_ideal_fixed_point(g, S), name
            spins += 1
    assert spins > 6000


def test_spin_subalgebra_matches_fixed_point():
    cases = [case for k, case in enumerate(_spin_cases())
             if case[0] != "GF(2) grid" or k % 3 == 0]
    for name, g, vecs in cases:
        for u, v in itertools.combinations(vecs[:8], 2):
            for S in (g.subspace([u]), g.subspace([u, v])):
                assert (g.spin_subalgebra(S)
                        == _spin_subalgebra_fixed_point(g, S)), name


def test_spin_p_ideal_of_a_line_runs_at_most_one_rref(monkeypatch):
    """The spin inserts each new vector into a semi-echelon basis; only a
    proper result is put in RREF, once, and a full one needs no rref."""
    g = direct_sum(_witt(3), resolve("alpha@3"))
    g.require_valid()
    lines = [g.subspace([v]) for v in projective_points(g.field, g.dim)]
    calls = []
    real_rref = linalg.rref

    def counting_rref(F, rows):
        calls.append(len(rows))
        return real_rref(F, rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    dims = set()
    for S in lines:
        del calls[:]
        J = g.spin_p_ideal(S)
        assert len(calls) == (0 if J.dim == g.dim else 1), S.basis
        dims.add(J.dim)
    assert {1, g.dim} < dims      # both a proper spin and a full one


class _CountingField:
    """A field descriptor that counts its `mul` calls."""

    def __init__(self, F):
        self._field = F
        self.muls = 0

    def __getattr__(self, name):
        return getattr(self._field, name)

    def mul(self, a, b):
        self.muls += 1
        return self._field.mul(a, b)


def _double_bracket_products(g, triple):
    """The number of nonzero products c_ab^m * c_mc^l in the three double
    brackets [[e_a, e_b], e_c] of the Jacobi sum at `triple`, read from
    the dense table."""
    i, j, k = triple
    z = g.field.zero
    return sum(1 for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
               for m in range(g.dim) if g.brackets[a][b][m] != z
               for l in range(g.dim) if g.brackets[m][c][l] != z)


def test_jacobi_scan_is_shared_and_stops_at_the_first_failure():
    F = PrimeField(2)
    one, zero = F.one, F.zero
    # [e1,e2]=e2, [e2,e3]=e1 fails Jacobi on (e1,e2,e3); [e4,e_i]=e_i for
    # i < 4 gives every later triple nonzero products
    g = RLieAlgebra.from_upper(
        F, 4, {(0, 1): (zero, one, zero, zero),
               (1, 2): (one, zero, zero, zero),
               (0, 3): (one, zero, zero, zero),
               (1, 3): (zero, one, zero, zero),
               (2, 3): (zero, zero, one, zero)}, [(zero,) * 4] * 4)
    report = g.validate()
    failures = list(jacobi_failures(F, 4, g._terms))
    assert [f[1] for f in report.failures if f[0] == "jacobi"] == failures
    assert failures[0] == (0, 1, 2) and failures == list(jacobi_triples(g))
    counted = _CountingField(F)
    assert next(jacobi_failures(counted, 4, g._terms)) == (0, 1, 2)
    first = counted.muls
    list(jacobi_failures(counted, 4, g._terms))
    # the products of (e1,e2,e3) alone, then those of all four triples
    costs = [_double_bracket_products(g, t)
             for t in itertools.combinations(range(4), 3)]
    assert costs == [1, 3, 0, 3]
    assert first == costs[0] and counted.muls == first + sum(costs)
    assert not jacobi_ok(g)


def _corruptions(g):
    """Every algebra that differs from g in one structure constant
    c_ij^k (i < j, with c_ji^k = -c_ij^k kept)."""
    F, n = g.field, g.dim
    upper = {(i, j): g.brackets[i][j]
             for i, j in itertools.combinations(range(n), 2)}
    for (i, j), v in upper.items():
        for k in range(n):
            for delta in range(1, F.p):
                w = list(v)
                w[k] = F.add(w[k], F.from_int(delta))
                yield RLieAlgebra.from_upper(
                    F, n, {**upper, (i, j): tuple(w)}, g.ppowers)


def test_validate_reports_the_reference_jacobi_triples_in_order():
    rng = random.Random(20261020)
    bases = [_witt(5)]
    for p in (2, 3):
        F = PrimeField(p)
        bases += _grid_sample(F, 3, 6, rng)
        for _ in range(6):
            upper = {ij: (F.zero,) * 4 if rng.random() < 0.5 else
                     tuple(F.random_element(rng) for _ in range(4))
                     for ij in itertools.combinations(range(4), 2)}
            bases.append(RLieAlgebra.from_upper(F, 4, upper,
                                                [(F.zero,) * 4] * 4))
    failing = passing = several = 0
    for base in bases:
        for g in itertools.chain([base], _corruptions(base)):
            got = [f[1] for f in g.validate().failures if f[0] == "jacobi"]
            assert got == list(jacobi_triples(g))
            failing += bool(got)
            passing += not got
            several += len(got) > 1
    assert failing > 500 and passing > 100 and several > 300


def test_is_unipotent_refuses_a_subspace_that_is_no_subalgebra():
    """<e, f> of sl2-kernel@p=2 misses [e, f] = h."""
    g = sl2_kernel_char2()
    S = g.subspace([g.basis_vector(0), g.basis_vector(2)])
    with pytest.raises(ValueError, match="needs a restricted subalgebra"):
        g.is_unipotent(S)


@pytest.mark.parametrize("key", [(1, 0), (1, 1)])
def test_from_upper_refuses_a_key_off_the_upper_triangle(key):
    F = PrimeField(2)
    zero = (F.zero, F.zero)
    with pytest.raises(ValueError, match="upper bracket keys need i < j"):
        RLieAlgebra.from_upper(F, 2, {key: zero}, (zero, zero))
