import functools
import itertools
import random
import tracemalloc

import pytest

from pradical import envelope
from pradical.envelope import (EnvelopeTooLargeError, dual_hopf,
                               envelope_subalgebra_span,
                               subgroup_ideal_from_p_subalgebra, u_env)
from pradical.fields import (ExtensionField, PrimeField,
                             RationalFunctionField, base_change_map)
from pradical.gallery import (alpha_lie, paper_g, resolve, sl2_kernel_char2,
                              torus_lie)
from pradical.hopf import HopfAlgebra, is_normal, is_subgroup_ideal
from pradical.lie import RLieAlgebra
from pradical.linalg import Subspace, all_subspaces
from pradical.survey import enumerate_algebras

from hopf_reference import (_Straightener, assert_same_hopf, dense_u_env,
                            monomial_index, zip_dual_hopf)
from test_lie import _witt


def test_u_env_dimension_and_hopf_axioms():
    g = sl2_kernel_char2()
    H = u_env(g)
    assert H.dim == 8
    assert H.validate_hopf()
    assert not H.is_commutative()


def test_u_env_generators_are_primitive():
    g = sl2_kernel_char2()
    H = u_env(g)
    F = H.field
    index = monomial_index(g)
    for i in range(g.dim):
        gen = tuple(1 if k == i else 0 for k in range(g.dim))
        gi = index[gen]
        unit_idx = index[(0,) * g.dim]
        expected = [F.zero] * (H.dim * H.dim)
        expected[gi * H.dim + unit_idx] = F.one
        expected[unit_idx * H.dim + gi] = F.one
        assert H.comult[gi] == tuple(expected)


def test_u_env_relations():
    """Generator products reproduce brackets and p-powers."""
    g = sl2_kernel_char2()
    H = u_env(g)
    F = H.field
    index = monomial_index(g)

    def gen(i):
        idx = index[tuple(1 if k == i else 0 for k in range(g.dim))]
        return tuple(F.one if j == idx else F.zero for j in range(H.dim))

    def lift(v):
        out = [F.zero] * H.dim
        for i, c in enumerate(v):
            idx = index[tuple(1 if k == i else 0 for k in range(g.dim))]
            out[idx] = c
        return tuple(out)

    for i in range(g.dim):
        for j in range(g.dim):
            comm = tuple(F.sub(a, b) for a, b in
                         zip(H.mul(gen(i), gen(j)), H.mul(gen(j), gen(i))))
            assert comm == lift(g.brackets[i][j])
        assert H.power(gen(i), F.p) == lift(g.ppowers[i])


def test_u_env_cap():
    g = sl2_kernel_char2()
    with pytest.raises(EnvelopeTooLargeError):
        u_env(g, cap=4)


def test_dual_is_commutative_valid_and_involutive():
    for g in (sl2_kernel_char2(), paper_g(2)[0]):
        H = u_env(g)
        A = dual_hopf(H)
        assert A.validate_hopf()
        assert A.is_commutative()
        DD = dual_hopf(A)
        assert (DD.mult, DD.unit, DD.comult, DD.counit, DD.antipode) == \
            (H.mult, H.unit, H.comult, H.counit, H.antipode)


def test_subalgebra_span_has_pbw_dimension():
    g = sl2_kernel_char2()
    H = u_env(g)
    F = g.field
    S = Subspace.from_vectors(F, 3, [(F.one, F.zero, F.zero),
                                     (F.zero, F.one, F.zero)])
    assert g.is_restricted_subalgebra(S)
    span = envelope_subalgebra_span(g, S, H)
    assert span.dim == 2 ** S.dim


def test_subgroup_ideal_from_p_subalgebra_is_subgroup_ideal():
    g = sl2_kernel_char2()
    for S in all_subspaces(g.field, g.dim):
        if not g.is_restricted_subalgebra(S):
            continue
        A, sgi = subgroup_ideal_from_p_subalgebra(g, S)
        ok, witness = is_subgroup_ideal(A, sgi.ideal)
        assert ok, witness
        assert sgi.subgroup_dim == 2 ** S.dim


def test_subgroup_ideal_rejects_non_subalgebra():
    g = sl2_kernel_char2()
    F = g.field
    # span{e + h} is not closed under the p-operation
    S = Subspace.from_vectors(F, 3, [(F.one, F.one, F.zero)])
    assert not g.is_restricted_subalgebra(S)
    with pytest.raises(ValueError):
        subgroup_ideal_from_p_subalgebra(g, S)


def test_normality_bridge_sl2_kernel():
    """p-ideals correspond exactly to normal subgroups."""
    g = sl2_kernel_char2()
    for S in all_subspaces(g.field, g.dim):
        if not g.is_restricted_subalgebra(S):
            continue
        A, sgi = subgroup_ideal_from_p_subalgebra(g, S)
        assert is_normal(A, sgi.ideal) == g.is_p_ideal(S)


def test_normality_bridge_solvable_family():
    """Same equivalence over GF(2)(t), on subalgebras spanned by
    GF(2)-rational vectors (the ambient subspace lattice is infinite)."""
    g, _ = paper_g(2)
    K = g.field
    F2 = PrimeField(2)

    def lift(v):
        return tuple(K.one if c else K.zero for c in v)

    for S2 in all_subspaces(F2, 3):
        S = Subspace.from_vectors(K, 3, [lift(v) for v in S2.basis])
        if not g.is_restricted_subalgebra(S):
            continue
        A, sgi = subgroup_ideal_from_p_subalgebra(g, S)
        assert is_normal(A, sgi.ideal) == g.is_p_ideal(S)


def _word_span(g, S, H):
    """Reference: the span of every word of length up to dim S·(p−1) in the
    basis of S, multiplied out in u(g)."""
    F = g.field
    index = monomial_index(g)
    gens = [index[tuple(int(m == i) for m in range(g.dim))]
            for i in range(g.dim)]

    def image(x):
        v = [F.zero] * H.dim
        for i, c in zip(gens, x):
            v[i] = c
        return tuple(v)

    cur = [H.unit]
    vecs = [H.unit]
    for _ in range(S.dim * (F.p - 1)):
        cur = [H.mul(w, image(s)) for w in cur for s in S.basis]
        vecs.extend(cur)
    return Subspace.from_vectors(F, H.dim, vecs)


def _span_cases():
    """(g, restricted S) pairs: every restricted S of the sl2 kernel, torus
    3^3, torus 2^4 and alpha_5, and spins in paper_g(2) and paper_g(3)."""
    cases = []
    for g in (sl2_kernel_char2(), torus_lie(3, 3), torus_lie(2, 4),
              alpha_lie(5)):
        cases += [(g, S) for S in all_subspaces(g.field, g.dim)
                  if g.is_restricted_subalgebra(S)]
    for p in (2, 3):
        g = paper_g(p)[0]
        K = g.field
        for v in itertools.product((K.zero, K.one), repeat=3):
            if any(v):
                cases.append((g, g.spin_subalgebra(g.subspace([v]))))
    return cases


def test_subalgebra_span_matches_word_span():
    envelopes = {}
    cases = _span_cases()
    for g, S in cases:
        H = envelopes.setdefault(id(g), u_env(g))
        span = envelope_subalgebra_span(g, S, H)
        assert span == _word_span(g, S, H)
        assert span.dim == g.p ** S.dim
    assert len(cases) >= 110


def test_subalgebra_span_of_the_whole_dim125_torus():
    g = torus_lie(5, 3)
    H = u_env(g)
    assert H.dim == 125
    span = envelope_subalgebra_span(g, g.full_subspace(), H)
    assert span == Subspace.full(g.field, 125)
    line = g.subspace([(1, 2, 3)])
    assert envelope_subalgebra_span(g, line, H) == _word_span(g, line, H)


# -- the PBW recursion against the word-by-word tables it replaced ------------


def _word_u_env(g):
    """u_env before the PBW recursion: e^a·e^b straightens e^a by every
    generator of e^b, Δ(e^a) multiplies out every (e_i⊗1 + 1⊗e_i) and
    S(e^a) straightens e_n^{a_n} ⋯ e_1^{a_1} from the unit."""
    F = g.field
    p, n = F.p, g.dim
    d = p ** n
    monos = list(itertools.product(range(p), repeat=n))
    index = {m: i for i, m in enumerate(monos)}
    st = _Straightener(g)

    def to_vec(elem):
        v = [F.zero] * d
        for m, c in elem.items():
            v[index[m]] = c
        return tuple(v)

    def mono_mul(a, b):
        elem = {a: F.one}
        for j in range(n):
            for _ in range(b[j]):
                elem = st.elem_times_gen(elem, j)
        return elem

    mult = [[to_vec(mono_mul(a, b)) for b in monos] for a in monos]
    comult = []
    for a in monos:
        tensor = {(monos[0], monos[0]): F.one}
        for i in range(n):
            for _ in range(a[i]):
                nxt = {}
                for (ma, mb), c in tensor.items():
                    for m2, c2 in st.mono_times_gen(ma, i).items():
                        st._add_into(nxt, (m2, mb), F.mul(c, c2))
                    for m2, c2 in st.mono_times_gen(mb, i).items():
                        st._add_into(nxt, (ma, m2), F.mul(c, c2))
                tensor = nxt
        dv = [F.zero] * (d * d)
        for (ma, mb), c in tensor.items():
            dv[index[ma] * d + index[mb]] = c
        comult.append(tuple(dv))
    minus_one = F.from_int(-1)
    antipode = []
    for a in monos:
        elem = {monos[0]: F.one}
        for j in range(n - 1, -1, -1):
            for _ in range(a[j]):
                elem = st.elem_times_gen(elem, j)
        sign = F.one
        for _ in range(sum(a) % 2):
            sign = F.mul(sign, minus_one)
        antipode.append(to_vec({m: F.mul(sign, c) for m, c in elem.items()}))
    labels = tuple(
        "1" if sum(a) == 0 else
        "*".join("%s%s" % (g.labels[i], "" if a[i] == 1 else "^%d" % a[i])
                 for i in range(n) if a[i] > 0)
        for a in monos)
    counit = tuple(F.one if i == 0 else F.zero for i in range(d))
    return HopfAlgebra(F, d, mult, to_vec({monos[0]: F.one}), comult, counit,
                       antipode, labels)


def _index_dual_hopf(H):
    """dual_hopf before the transposes by zip: every entry read by index."""
    d = H.dim
    mult = [[tuple(H.comult[k][a * d + b] for k in range(d))
             for b in range(d)] for a in range(d)]
    comult = [tuple(H.mult[a][b][k] for a in range(d) for b in range(d))
              for k in range(d)]
    antipode = [tuple(H.antipode[k][i] for k in range(d)) for i in range(d)]
    return HopfAlgebra(H.field, d, mult, H.counit, comult, H.unit, antipode,
                       tuple("%s'" % lb for lb in H.labels))


_TABLES = ("mult", "unit", "comult", "counit", "antipode", "labels")


def _grid_sample(p, dim, count, seed):
    grid = list(enumerate_algebras(PrimeField(p), dim, cap=10 ** 9))
    return random.Random(seed).sample(grid, count)


@functools.lru_cache(maxsize=None)
def _reference_lie():
    """Every scalar kind (GF(p), GF(p)(t), and GF(9) by base change) and the
    hopf workload's largest u(g), torus 2^5 at d = 32."""
    lie = [torus_lie(2, 3), torus_lie(3, 2), torus_lie(2, 4), torus_lie(5, 2),
           torus_lie(2, 5), sl2_kernel_char2(), _witt(3),
           _witt(3).base_change(base_change_map(PrimeField(3),
                                                ExtensionField(3, 2))),
           resolve("product(sl2-kernel@p=2,alpha@2)"),
           paper_g(2)[0], paper_g(3)[0]]
    return tuple(lie + _grid_sample(2, 3, 20, 1) + _grid_sample(3, 2, 20, 2))


def test_u_env_and_dual_match_the_word_by_word_tables():
    for g in _reference_lie():
        got, want = u_env(g), _word_u_env(g)
        dual = dual_hopf(got)
        for table in _TABLES:
            assert getattr(got, table) == getattr(want, table), (g, table)
            assert (getattr(dual, table)
                    == getattr(_index_dual_hopf(want), table)), (g, table)
        assert got._straightener.digits == list(monomial_index(g))


def test_u_env_takes_one_straightening_step_per_table_entry(monkeypatch):
    """On torus 2^4 (d = 16) u_env's own loops take d(d−1) steps for the
    product table and d−1 each for Δ and S; steps taken inside a step, while
    straightening, are not counted."""
    steps = {"elem": 0, "tensor": 0}
    depth = [0]

    def counted(kind, method):
        def step(self, *args):
            if depth[0] == 0:
                steps[kind] += 1
            depth[0] += 1
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
        return step

    st = envelope._Straightener
    monkeypatch.setattr(st, "elem_times_gen",
                        counted("elem", st.elem_times_gen))
    monkeypatch.setattr(st, "tensor_times_gen",
                        counted("tensor", st.tensor_times_gen))
    H = u_env(torus_lie(2, 4))
    d = H.dim
    assert d == 16
    # the product table and S share elem_times_gen
    assert steps == {"elem": d * (d - 1) + (d - 1), "tensor": d - 1}


def test_sparse_tables_match_the_dense_route():
    """u_env writes its terms straight from the straightener and dual_hopf
    transposes terms; both must equal the dense route of dense rows, the
    terms derived from them, and zip transposes: every sparse table, every
    dense view and the printed document."""
    for g in _reference_lie():
        got, want = u_env(g), dense_u_env(g)
        assert_same_hopf(got, want)
        assert_same_hopf(dual_hopf(got), zip_dual_hopf(want))
        assert_same_hopf(dual_hopf(dual_hopf(got)),
                         zip_dual_hopf(zip_dual_hopf(want)))


_DENSE_VIEWS = ("mult", "comult", "antipode")


def test_hopf_op_builds_no_dense_table():
    """The benchmark's hopf op on torus 2^4 reads only sparse tables: no
    dense view is ever built on u(g), on its dual, or on the dual that
    subgroup_ideal_from_p_subalgebra builds."""
    g = torus_lie(2, 4)
    H = u_env(g)
    A = dual_hopf(H)
    assert A.validate_hopf()
    S = g.subspace([g.basis_vector(0), g.basis_vector(2)])
    B, sub = subgroup_ideal_from_p_subalgebra(g, S)
    ok, _ = is_subgroup_ideal(B, sub.ideal)
    assert ok and is_normal(B, sub.ideal)
    assert sub.ideal.dim == 16 - 4
    for algebra in (H, A, B):
        assert not set(_DENSE_VIEWS) & set(vars(algebra)), algebra
    # the views are there on demand, and then kept
    assert len(B.comult) == 16 and "comult" in vars(B)


def test_u_env_and_dual_at_the_cap_stay_sparse_in_memory():
    """torus 2^7 (d = 128): dense mult and comult tables hold d³ scalars
    each, about 70 MB traced; the sparse tables stay well below 20 MB."""
    g = torus_lie(2, 7)
    tracemalloc.start()
    try:
        A = dual_hopf(u_env(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.dim == 128
    assert peak < 20 * 2 ** 20, peak
