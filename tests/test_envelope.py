import itertools

import pytest

from pradical.envelope import (EnvelopeTooLargeError, dual_hopf,
                               envelope_subalgebra_span,
                               subgroup_ideal_from_p_subalgebra, u_env)
from pradical.fields import PrimeField, RationalFunctionField
from pradical.gallery import alpha_lie, paper_g, sl2_kernel_char2, torus_lie
from pradical.hopf import is_normal, is_subgroup_ideal
from pradical.lie import RLieAlgebra
from pradical.linalg import Subspace, all_subspaces


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
    monos = H._monomials
    for i in range(g.dim):
        gen = tuple(1 if k == i else 0 for k in range(g.dim))
        gi = H._monomial_index[gen]
        unit_idx = H._monomial_index[(0,) * g.dim]
        expected = [F.zero] * (H.dim * H.dim)
        expected[gi * H.dim + unit_idx] = F.one
        expected[unit_idx * H.dim + gi] = F.one
        assert H.comult[gi] == tuple(expected)


def test_u_env_relations():
    """Generator products reproduce brackets and p-powers."""
    g = sl2_kernel_char2()
    H = u_env(g)
    F = H.field

    def gen(i):
        idx = H._monomial_index[tuple(1 if k == i else 0
                                      for k in range(g.dim))]
        return tuple(F.one if j == idx else F.zero for j in range(H.dim))

    def lift(v):
        out = [F.zero] * H.dim
        for i, c in enumerate(v):
            idx = H._monomial_index[tuple(1 if k == i else 0
                                          for k in range(g.dim))]
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
    gens = [H._monomial_index[tuple(int(m == i) for m in range(g.dim))]
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
