import collections
import functools
import hashlib
import itertools
import os
import random
import typing

import pytest
from hypothesis import given, settings, strategies as st

from pradical.fields import ExtensionField, PrimeField, RationalFunctionField, \
    base_change_map
from pradical.gallery import alpha_lie, mu_lie, paper_g, resolve, \
    sl2_kernel_char2, torus_lie
from pradical.lie import RLieAlgebra, ValidationReport, direct_sum
from pradical.linalg import nullspace, rref
from pradical import hopf, radical
from pradical.radical import (_first_report, is_mult_type, is_p_reductive,
                              rad_p, weight_decomposition)
from pradical.survey import (brute_force_radical, enumerate_algebras,
                             has_nonzero_p_nilpotent,
                             unipotent_restricted_subalgebras)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

INSTANCES = (list(enumerate_algebras(PrimeField(2), 2))
             + list(enumerate_algebras(PrimeField(2), 3, cap=200)))


def test_degenerate_zero_dimensional_algebra():
    F = PrimeField(2)
    g = RLieAlgebra(F, 0, (), ())
    assert g.validate()
    assert g.is_unipotent()
    assert is_mult_type(g)
    cert = rad_p(g)
    assert cert.radical.dim == 0 and cert.is_exact
    assert is_p_reductive(g) is True


def test_one_dimensional_types():
    al = alpha_lie(2)
    mu = mu_lie(3)
    assert al.is_unipotent() and not is_mult_type(al)
    assert is_mult_type(mu) and not mu.is_unipotent()
    assert rad_p(al).radical.dim == 1
    assert rad_p(mu).radical.dim == 0


def test_product_radical_is_additive_factor():
    s = direct_sum(alpha_lie(2), mu_lie(2))
    cert = rad_p(s)
    assert cert.is_exact and cert.strategy == "s1"
    assert cert.radical == s.subspace([s.basis_vector(0)])


@given(st.sampled_from(INSTANCES))
@settings(max_examples=150, deadline=None)
def test_rad_matches_brute_force(g):
    cert = rad_p(g)
    assert cert.is_exact
    assert cert.radical == brute_force_radical(g)


@given(st.sampled_from(INSTANCES))
@settings(max_examples=80, deadline=None)
def test_radical_is_unipotent_p_ideal_and_quotient_reduced(g):
    cert = rad_p(g)
    R = cert.radical
    assert g.is_p_ideal(R) and g.is_unipotent(R)
    if R.dim < g.dim:
        q, project, section = g.quotient(R)
        assert rad_p(q).radical.dim == 0


def test_solvable_family_radical_and_reductivity():
    g, _ = paper_g(2)
    cert = rad_p(g)
    assert cert.radical.dim == 0 and cert.is_exact and cert.strategy == "s4"
    assert is_p_reductive(g) is True
    # quotient by the center has radical spanned by the image of Y
    I = g.subspace([g.basis_vector(0)])
    q, project, section = g.quotient(I)
    qcert = rad_p(q)
    assert qcert.is_exact
    assert qcert.radical == q.subspace([project(g.basis_vector(1))])
    assert is_p_reductive(q) is False


def test_inner_abelian_part_not_p_reductive():
    # the abelian p-ideal spanned by X, Y: trivial radical over the base
    # field, but the p-power matrix has stable rank 1 < 2
    K = RationalFunctionField(2)
    t = K.t
    N = RLieAlgebra(K, 2, (((K.zero,) * 2,) * 2,) * 2,
                    ((K.one, K.zero), (t, K.zero)))
    assert rad_p(N).radical.dim == 0
    assert is_p_reductive(N) is False


def test_sl2_kernel_radical():
    g = sl2_kernel_char2()
    cert = rad_p(g)
    assert cert.radical.dim == 0 and cert.is_exact and cert.strategy == "s3"


def test_weight_decomposition_on_solvable_family():
    g, _ = paper_g(2)
    dec = weight_decomposition(g)
    assert dec is not None
    idx, spaces = dec
    assert g.labels[idx] == "Z"
    assert spaces[1] == g.subspace([g.basis_vector(1)])
    assert spaces[0].dim == 2


def _weight_decomposition_by_nullspaces(g):
    """The p eigenspaces of every ad(e_i) until they span g with a nonzero
    weight: `weight_decomposition` before its ad(e_i)^p = ad(e_i) test."""
    F = g.field
    n = g.dim
    for i in range(n):
        A = g.ad_basis()[i]
        spaces = {}
        total = 0
        for c in range(F.p):
            ce = F.from_int(c)
            shifted = tuple(
                tuple(F.sub(A[r][s], ce if r == s else F.zero)
                      for s in range(n)) for r in range(n))
            E = nullspace(F, shifted, n)
            if E.dim:
                spaces[c] = E
                total += E.dim
        if total == n and any(c != 0 for c in spaces):
            return i, spaces
    return None


def _certify_algebras(tmp_path, monkeypatch):
    """The algebras of the certify benchmark documents at seed 7."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    wl = workloads.Certify()
    wl.setup(7, str(tmp_path))
    return list(wl.algebras.values())


def test_weight_decomposition_matches_the_nullspace_loop(tmp_path,
                                                         monkeypatch):
    algebras = (list(enumerate_algebras(PrimeField(2), 3))
                + list(enumerate_algebras(PrimeField(3), 3))
                + [resolve(name) for name in GALLERY_P_REDUCTIVE]
                + _certify_algebras(tmp_path, monkeypatch))
    split = 0
    for g in algebras:
        dec = weight_decomposition(g)
        assert dec == _weight_decomposition_by_nullspaces(g)
        split += dec is not None
    assert 0 < split < len(algebras)


def test_base_change_equivariance_sample():
    F = PrimeField(2)
    for m in (2, 3):
        K = ExtensionField(2, m)
        hom = base_change_map(F, K)
        for g in INSTANCES[:40]:
            gK = g.base_change(hom)
            assert rad_p(gK).radical == g.base_change_subspace(
                hom, rad_p(g).radical)


def test_undecided_fragment_is_honest():
    # Heisenberg-like over GF(2)(t) with a non-semisimple, non-nilpotent
    # p-power on the center: no strategy applies, verdict degrades
    K = RationalFunctionField(2)
    t = K.t
    z3 = (K.zero,) * 3
    g = RLieAlgebra.from_upper(K, 3, {(0, 1): (K.zero, K.zero, K.one)},
                               [z3, z3, (K.zero, K.zero, t)])
    assert g.validate()
    cert = rad_p(g)
    assert cert.verdict == "undecided-fragment"
    # the reported lower bound is still a genuine unipotent p-ideal
    assert g.is_p_ideal(cert.radical) and g.is_unipotent(cert.radical)


def _two_dim_weight(K):
    """[h, x_i] = x_i: the weight-1 space span{x1, x2} is a plane."""
    e = lambda i: tuple(K.one if j == i else K.zero for j in range(3))
    z3 = (K.zero,) * 3
    return RLieAlgebra.from_upper(K, 3, {(0, 1): e(1), (0, 2): e(2)},
                                  [e(0), z3, z3], labels=("h", "x1", "x2"))


def test_s4_scans_a_weight_plane_over_the_prime_field(K3t):
    # [h, x_i] = x_i with x1^[3] = z central and z^[3] = t·z over GF(3)(t):
    # the derived p-closure span{x1, x2, z} is not unipotent, so s4 scans
    # the weight-1 plane; of its lines only span{x2} is p-nilpotent
    K = K3t
    e = lambda i: tuple(K.one if j == i else K.zero for j in range(4))
    z4 = (K.zero,) * 4
    g = RLieAlgebra.from_upper(K, 4, {(0, 1): e(1), (0, 2): e(2)},
                               [e(0), e(3), z4, (K.zero,) * 3 + (K.t,)],
                               labels=("h", "x1", "x2", "z"))
    assert g.validate()
    pivot, spaces = weight_decomposition(g)
    plane = spaces[1]
    assert pivot == 0 and plane.dim == 2
    vectors = radical._weight_vectors(K, plane)
    assert vectors == [plane.lift((K.from_int(a), K.from_int(b)))
                       for a in range(3) for b in range(3) if a or b]
    cert = rad_p(g)
    assert cert.strategy == "s4" and cert.is_exact
    assert cert.radical == g.subspace([e(2)])
    assert cert.trace[0]["step"] == "s4-weight-line"
    assert cert.trace[0]["weight"] == 1


def test_mult_type_detection():
    assert is_mult_type(torus_lie(3, 2))
    assert not is_mult_type(alpha_lie(3))
    K = RationalFunctionField(2)
    t = K.t
    # abelian with invertible but non-diagonal p-power matrix: still of
    # multiplicative type (stable rank full)
    g = RLieAlgebra(K, 2, (((K.zero,) * 2,) * 2,) * 2,
                    ((K.zero, K.one), (t, K.zero)))
    assert is_mult_type(g)


def test_instances_without_p_nilpotents_are_abelian():
    for g in INSTANCES:
        if not has_nonzero_p_nilpotent(g):
            assert g.is_abelian()


def test_unipotent_subalgebras_land_in_radical_when_derived_unipotent():
    for g in INSTANCES[:120]:
        D = g.spin_p_ideal(g.derived_subalgebra())
        if not g.is_unipotent(D):
            continue
        R = rad_p(g).radical
        for S in unipotent_restricted_subalgebras(g):
            assert R.contains(S)


# gallery Lie targets and their p-reductive verdicts; None is "undecided"
GALLERY_P_REDUCTIVE = {
    "paper-G@p=2": True,
    "paper-G@p=3": True,
    "paper-G@p=5": True,
    "paper-G@p=7": True,
    "sl2-kernel@2": True,
    "alpha@2": False,
    "alpha@3": False,
    "mu@2": True,
    "mu@5": True,
    "torus@2": True,
    "torus@2^2": True,
    "torus@3^2": True,
    "product(alpha@2,mu@2)": False,
    "product(alpha@3,alpha@3)": False,
    "product(sl2-kernel@2,alpha@2)": False,
    "product(sl2-kernel@2,mu@2)": True,
    "product(paper-G@p=2,paper-G@p=2)": None,
}


def _heisenberg_t(K):
    """[x0, x1] = x2 over GF(2)(t) with x2^[p] = t.x2: no rung settles it."""
    z3 = (K.zero,) * 3
    return RLieAlgebra.from_upper(K, 3, {(0, 1): (K.zero, K.zero, K.one)},
                                  [z3, z3, (K.zero, K.zero, K.t)])


def _s4_then_probe(K):
    """paper-G/X + Heisenberg: s4 splits off the weight line Y, and the
    quotient needs the probe."""
    g, _ = paper_g(2)
    q, project, section = g.quotient(g.subspace([g.basis_vector(0)]))
    return direct_sum(q, _heisenberg_t(K))


def _forbid_descent(monkeypatch):
    """From here on, building a quotient or running the probe fails."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a verdict quotiented or probed")

    monkeypatch.setattr(RLieAlgebra, "quotient", forbidden)
    monkeypatch.setattr(radical, "_probe_lower_bound", forbidden)


def _assert_first_report_agrees(g):
    """The ladder's first report on g names rad_p's strategy.  A final
    report is rad_p's exact radical; any other is a nonzero unipotent
    p-ideal inside rad_p's radical.  No report means rad_p probed."""
    cert = rad_p(g)
    report = _first_report(g, [])
    if report is None:
        assert (cert.strategy, cert.is_exact) == ("probe", False)
        return cert
    name, sub, final = report
    assert name == cert.strategy
    if final:
        assert cert.is_exact and sub == cert.radical
    else:
        assert sub.dim > 0 and g.is_p_ideal(sub) and g.is_unipotent(sub)
        assert cert.radical.contains(sub)
    return cert


def test_first_report_agrees_with_rad_p(K2t, monkeypatch):
    algebras = [resolve(name) for name in GALLERY_P_REDUCTIVE]
    algebras += list(enumerate_algebras(PrimeField(2), 3))
    algebras += [paper_g(p)[0] for p in (2, 3, 5)]
    algebras += [direct_sum(paper_g(2)[0], paper_g(2)[0]),
                 _heisenberg_t(K2t), _s4_then_probe(K2t)]
    certs = [_assert_first_report_agrees(g) for g in algebras]
    assert sum(not cert.is_exact for cert in certs) == 4
    # a radical found without the probe answers False, and a verdict
    # never probes
    _forbid_descent(monkeypatch)
    for g, cert in zip(algebras, certs):
        verdict = is_p_reductive(g)
        if cert.strategy != "probe" and cert.radical.dim:
            assert verdict is False


def test_first_report_decides_before_the_quotient(K2t, monkeypatch):
    # s4 reports the weight line Y, a 1-dimensional unipotent p-ideal, and
    # rad_p then needs the probe in the quotient; the line alone shows the
    # radical is nonzero, so g is not p-reductive
    g = _s4_then_probe(K2t)
    cert = rad_p(g)
    assert cert.strategy == "s4" and not cert.is_exact
    assert cert.radical.dim == 1
    assert _first_report(g, []) == ("s4", cert.radical, False)
    _forbid_descent(monkeypatch)
    assert is_p_reductive(g) is False


def _centre_twisted(g, rng):
    """g with each e_i^[p] moved by a seeded element of Z(g), whose
    coefficients are 0, 1, t or 1 + t: a p-semilinear map into the centre
    changes no ad(x^[p]), so the result is again restricted."""
    K = g.field
    scalars = (K.zero, K.one, K.t, K.add(K.one, K.t))
    centre = g.center().basis
    ppowers = []
    for v in g.ppowers:
        for z in centre:
            c = rng.choice(scalars)
            v = tuple(K.add(a, K.mul(c, b)) for a, b in zip(v, z))
        ppowers.append(v)
    out = RLieAlgebra(K, g.dim, g.brackets, tuple(ppowers), g.labels)
    assert out.validate()
    return out


def _reaches_the_ladder(g):
    """Whether `is_p_reductive` gets past the centre step on g."""
    Z = g.center()
    return Z.dim < g.dim and not radical._geometric_p_nilpotent(g, Z)


def test_first_report_ignores_inseparable_base_change(K2t):
    """Past the centre step, the first report on g and on its base change
    along t -> s^(p^m) agree: the same rung, the base change of the same
    subspace, the same `final`.  So an inseparable base change cannot
    decide a verdict that g's own first report leaves open."""
    pg2, pg3 = paper_g(2)[0], paper_g(3)[0]
    algebras = [pg2, pg3, direct_sum(pg2, pg2), _heisenberg_t(K2t),
                _s4_then_probe(K2t)]
    algebras += [g.quotient(g.subspace([g.basis_vector(0)]))[0]
                 for g in (pg2, pg3)]
    assert all(_reaches_the_ladder(g) for g in algebras)
    hom = base_change_map(PrimeField(2), K2t)
    rng = random.Random(25)
    twisted = [_centre_twisted(g.base_change(hom), rng)
               for g in list(enumerate_algebras(PrimeField(2), 3))[::7]
               for _ in range(2)]
    algebras += [g for g in twisted if _reaches_the_ladder(g)]
    assert (len(twisted), len(algebras)) == (262, 96)
    rungs = collections.Counter()
    for g in algebras:
        report = _first_report(g, [])
        rungs[report and report[0]] += 1
        for m in (1, 2):
            insep = base_change_map(
                g.field, RationalFunctionField(g.field.p, "@s"), m)
            changed = _first_report(g.base_change(insep), [])
            if report is None:
                assert changed is None
                continue
            name, sub, final = report
            assert changed == (name, g.base_change_subspace(insep, sub),
                               final)
    assert rungs == {"s4": 53, "s2": 25, None: 18}


@functools.lru_cache(maxsize=None)
def _oracle_grids():
    """{(p, dim): [(g, brute-force radical dim)]} for GF(2) dim 2 and 3
    and GF(3) dim 2."""
    return {(p, dim): [(g, brute_force_radical(g).dim)
                       for g in enumerate_algebras(PrimeField(p), dim)]
            for p, dim in ((2, 2), (2, 3), (3, 2))}


def test_p_reductive_matches_the_oracle(monkeypatch):
    """Every algebra of GF(2) dim 2 and 3 and of GF(3) dim 2, and its base
    change to GF(p)(t): p-reductive exactly when the brute-force radical is
    0, or undecided over GF(p)(t), without a quotient or the probe."""
    pairs = [pair for grid in _oracle_grids().values() for pair in grid]
    assert len(pairs) == 1019
    _forbid_descent(monkeypatch)
    assert ([is_p_reductive(g) for g, _ in pairs]
            == [dim == 0 for _, dim in pairs])
    # g over GF(p)(t) has the same geometric radical: every decided verdict
    # is the oracle's, and the undecided ones are counted
    gaps = collections.Counter()
    for (p, dim), grid in _oracle_grids().items():
        hom = base_change_map(PrimeField(p), RationalFunctionField(p))
        for g, radical_dim in grid:
            verdict = is_p_reductive(g.base_change(hom))
            if verdict is None:
                gaps[p, dim] += 1
            else:
                assert verdict is (radical_dim == 0)
    assert gaps == {(2, 3): 28}


def test_centre_decides_without_the_ladder(K3t, monkeypatch):
    seeded = _seeded_basis(direct_sum(_witt(3), alpha_lie(3)),
                           random.Random(3))
    K, t = K3t, K3t.t
    # abelian, e1^[3] = e1 and e2^[3] = t.e1: B = [[1, t], [0, 0]] has no
    # rational p-nilpotent line (s1 finds radical 0) but stable rank 1
    abelian_t = RLieAlgebra(K, 2, (((K.zero,) * 2,) * 2,) * 2,
                            ((K.one, K.zero), (t, K.zero)))
    assert rad_p(abelian_t).radical.dim == 0

    def forbidden(*args):
        raise AssertionError("the verdict read the ladder")

    monkeypatch.setattr(radical, "_first_report", forbidden)
    assert is_p_reductive(seeded) is False
    assert is_p_reductive(alpha_lie(3)) is False
    assert is_p_reductive(torus_lie(3, 2)) is True
    assert is_p_reductive(abelian_t) is False


def test_centre_test_alone_agrees_with_the_oracle():
    """Where the centre decides a verdict, the brute-force radical agrees:
    a geometric p-nilpotent centre has radical > 0, and an abelian g
    without one has radical 0."""
    counts = {}
    for key, grid in _oracle_grids().items():
        fired = abelian = 0
        for g, dim in grid:
            Z = g.center()
            if radical._geometric_p_nilpotent(g, Z):
                assert dim > 0
                fired += 1
            elif Z.dim == g.dim:
                assert dim == 0
                abelian += 1
        counts[key] = fired, abelian
    assert counts == {(2, 2): (10, 6), (2, 3): (540, 168), (3, 2): (33, 48)}


def test_p_reductive_verdicts_on_gallery_targets():
    for name, verdict in GALLERY_P_REDUCTIVE.items():
        assert is_p_reductive(resolve(name)) is verdict, name


def test_p_reductive_paper_g_squared_p3_is_undecided():
    g = direct_sum(paper_g(3)[0], paper_g(3)[0])
    assert is_p_reductive(g) is None


def test_each_rung_returns_none_where_it_does_not_settle(K2t):
    cases = [
        (radical._s1_abelian, sl2_kernel_char2()),     # not abelian
        (radical._s2_derived, sl2_kernel_char2()),     # D not unipotent
        (radical._s3_enumerate, paper_g(2)[0]),        # infinite field
        (radical._s4_split_weights, _heisenberg_t(K2t)),   # no split pivot
    ]
    for rung, g in cases:
        trace = []
        assert rung(g, trace) is None and trace == []


def test_s3_reports_the_radical_or_a_unipotent_p_ideal_inside_it():
    """Over the GF(2) dim-3 grid, a final s3 report is the brute-force
    radical, and any other is a nonzero unipotent p-ideal inside it."""
    finals = hits = 0
    for g in enumerate_algebras(PrimeField(2), 3):
        if g.is_unipotent():
            # the ladder answers these before any rung; s3 alone would
            # miss a radical that is all of g, as on alpha
            continue
        sub, final = radical._s3_enumerate(g, [])
        oracle = brute_force_radical(g)
        if final:
            finals += 1
            assert sub == oracle
        else:
            hits += 1
            assert sub.dim > 0 and g.is_p_ideal(sub) and g.is_unipotent(sub)
            assert oracle.contains(sub)
    assert finals and hits


# GF(2) dim-3 grid positions (enumerate_algebras order) whose GF(2)(t) base
# change the default ladder settles with s4
S4_GRID_OVER_T = (
    517, 519, 526, 527, 533, 534, 548, 550, 556, 557, 565, 566, 571, 575,
    579, 581, 594, 595, 602, 606, 611, 612, 622, 623, 629, 630, 636, 639,
    644, 645, 651, 652, 668, 671, 675, 677, 690, 692, 698, 702, 708, 710,
    716, 720, 724, 727, 732, 736, 740, 745, 748, 752, 758, 759, 771, 774,
    784, 786, 792, 794, 801, 802, 809, 812, 814, 816, 831, 834, 837, 842,
    848, 850, 856, 857, 865, 868, 873, 875, 882, 884, 888, 891, 896, 897)

# sha256 of the rad_p certificates of the algebras below: any change to a
# radical, strategy, verdict or trace step changes it
LADDER_DIGEST = (
    "bdf984a35632af441cdacb7deff21b9ae4f091f9a02ca2f98217d1b1b56db43f")


def test_ladder_certificates_are_pinned(K2t, K3t):
    algebras = [resolve(name) for name in GALLERY_P_REDUCTIVE]
    algebras += [paper_g(p)[0] for p in (2, 3, 5)]
    algebras += [_heisenberg_t(K2t), _s4_then_probe(K2t),
                 _two_dim_weight(K3t)]
    F = PrimeField(2)
    hom = base_change_map(F, K2t)
    grid = list(enumerate_algebras(F, 3))
    algebras += [grid[i].base_change(hom) for i in S4_GRID_OVER_T]
    digest = hashlib.sha256()
    for g in algebras:
        cert = rad_p(g)
        digest.update(repr((cert.radical.basis, cert.strategy, cert.verdict,
                            cert.trace)).encode())
    assert digest.hexdigest() == LADDER_DIGEST


# GF(2) dim-3 grid positions whose GF(4) and GF(8) base changes the default
# ladder walks into s3 (the same 112 positions over both fields)
S3_GRID_OVER_GF4 = (
    517, 519, 526, 527, 533, 534, 540, 541, 542, 543, 548, 550, 556, 557,
    565, 566, 571, 575, 579, 581, 586, 587, 590, 591, 594, 595, 602, 606,
    611, 612, 622, 623, 629, 630, 636, 639, 644, 645, 651, 652, 659, 660,
    661, 662, 668, 671, 675, 677, 682, 684, 686, 688, 690, 692, 698, 702,
    708, 710, 716, 720, 724, 727, 732, 736, 740, 745, 748, 752, 758, 759,
    764, 765, 768, 769, 771, 774, 784, 786, 792, 794, 801, 802, 809, 812,
    814, 816, 822, 824, 825, 827, 831, 834, 837, 842, 848, 850, 856, 857,
    865, 868, 873, 875, 882, 884, 888, 891, 896, 897, 903, 906, 908, 909)
# every second of the GF(3) dim-3 grid positions 0, 97, 194, ... whose GF(9)
# base change the default ladder walks into s3 or s4
S3_GRID_OVER_GF9 = (
    19788, 20079, 20370, 20661, 21049, 21534, 21922, 22407, 23183, 24153,
    24444, 24929, 25220, 25414, 25899, 26384, 27548, 28033, 28615, 28906,
    29197)

# sha256 of rad_p (basis, strategy, verdict, trace) and is_p_reductive over
# the GF(p^m) base changes below
EXTENSION_DIGEST = (
    "256da39f7d62a1551e66f9caea8533ed1be9f3ce4d78cfc4724c61392da0bbbc")


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


def _seeded_basis(g, rng):
    """g in the basis f_a = sum_k P[a][k] e_k of a seeded invertible P."""
    F, n = g.field, g.dim
    elements = list(F.elements())
    unit = [tuple(F.one if j == i else F.zero for j in range(n))
            for i in range(n)]
    while True:
        P = [tuple(rng.choice(elements) for _ in range(n)) for _ in range(n)]
        rows, pivots = rref(F, [P[i] + unit[i] for i in range(n)])
        if pivots == tuple(range(n)):
            inverse = [row[n:] for row in rows]
            break

    def coords(v):
        return tuple(F.sum(F.mul(v[k], inverse[k][a]) for k in range(n))
                     for a in range(n))

    table = [[coords(g.bracket(P[a], P[b])) for b in range(n)]
             for a in range(n)]
    ppowers = [coords(g.p_power(P[a])) for a in range(n)]
    return RLieAlgebra(F, n, table, ppowers)


def test_radicals_over_extension_fields_are_pinned():
    F2, F3 = PrimeField(2), PrimeField(3)
    F9 = ExtensionField(3, 2)
    grid2 = list(enumerate_algebras(F2, 3))
    grid3 = list(itertools.islice(enumerate_algebras(F3, 3, cap=50000),
                                  S3_GRID_OVER_GF9[-1] + 1))
    algebras = []
    for K, positions in ((ExtensionField(2, 2), S3_GRID_OVER_GF4),
                         (ExtensionField(2, 3), S3_GRID_OVER_GF4[::4])):
        hom = base_change_map(F2, K)
        algebras += [grid2[i].base_change(hom) for i in positions]
    hom = base_change_map(F3, F9)
    algebras += [grid3[i].base_change(hom) for i in S3_GRID_OVER_GF9]
    witt_alpha = direct_sum(_witt(3), alpha_lie(3)).base_change(hom)
    algebras += [_seeded_basis(witt_alpha, random.Random(seed))
                 for seed in (1, 2, 3)]
    digest = hashlib.sha256()
    for g in algebras:
        cert = rad_p(g)
        assert any(step["step"].startswith(("s3", "s4"))
                   for step in cert.trace)
        digest.update(repr((cert.radical.basis, cert.strategy, cert.verdict,
                            cert.trace, is_p_reductive(g))).encode())
    assert digest.hexdigest() == EXTENSION_DIGEST


def test_rad_p_quotients_validate_from_their_tables(monkeypatch):
    """`quotient` records g/I as valid without checking it; every quotient
    that rad_p takes over the GF(2) dim-3 grid and the gallery targets
    passes the full check when rebuilt from its own tables."""
    taken = []
    quotient = RLieAlgebra.quotient

    def recording(self, I):
        out = quotient(self, I)
        taken.append(out[0])
        return out

    monkeypatch.setattr(RLieAlgebra, "quotient", recording)
    algebras = list(enumerate_algebras(PrimeField(2), 3))
    algebras += [resolve(name) for name in GALLERY_P_REDUCTIVE]
    for g in algebras:
        rad_p(g)
    assert len(taken) > 200
    # the grid's quotients are all abelian (s2 divides by the derived
    # p-closure); the gallery's s3 descents are not
    assert any(not q.is_abelian() for q in taken)
    for q in taken:
        assert q.validate()
        rebuilt = RLieAlgebra(q.field, q.dim, q.brackets, q.ppowers, q.labels)
        assert rebuilt.validate()


def test_s3_tests_each_distinct_proper_spin_once(monkeypatch):
    """Points of one s3 scan that spin to the same proper p-ideal cost one
    unipotency test: W(1)+alpha over GF(3) in a seeded basis scans 36
    points to its hit, and 10 of them spin to only 2 proper p-ideals."""
    g = _seeded_basis(direct_sum(_witt(3), alpha_lie(3)), random.Random(3))
    spins, tested = [], []
    spin, unipotent = RLieAlgebra.spin_p_ideal, RLieAlgebra.is_unipotent

    def recording_spin(self, S):
        I = spin(self, S)
        if self is g and I.dim < g.dim:
            spins.append(I)
        return I

    def recording_test(self, S=None):
        if self is g and S is not None:
            tested.append(S)
        return unipotent(self, S)

    monkeypatch.setattr(RLieAlgebra, "spin_p_ideal", recording_spin)
    monkeypatch.setattr(RLieAlgebra, "is_unipotent", recording_test)
    trace = []
    radical._s3_enumerate(g, trace)
    assert trace == [{"step": "s3-point", "index": 35, "ideal_dim": 1}]
    assert (len(spins), len(set(spins))) == (10, 2)
    assert len(tested) == len(set(tested)) and set(tested) == set(spins)


def test_s2_makes_no_unipotency_test_on_a_perfect_algebra(monkeypatch):
    """[g, g] = g for W(1) at p = 3, and `_first_report` has already found
    g not unipotent, so s2 does not test it again."""
    g = _witt(3)
    assert g.spin_p_ideal(g.derived_subalgebra()).dim == g.dim

    def forbidden(self, S=None):
        raise AssertionError("s2 tested unipotency")

    monkeypatch.setattr(RLieAlgebra, "is_unipotent", forbidden)
    assert radical._s2_derived(g, []) is None


def test_s4_zero_weight_radical_matches_the_oracle(monkeypatch):
    # g + alpha over GF(2)(t), for every GF(2) dimension-3 algebra g: where
    # s4's zero-weight step reports a nonzero radical (of the algebra or of
    # a quotient on the walk), rad_p is exact and is the base change of the
    # brute-force radical over GF(2), which is perfect.  The probe's lower
    # bounds are not checked here, so it is cut short.
    monkeypatch.setattr(radical, "_probe_lower_bound",
                        lambda g: g.zero_subspace())
    F = PrimeField(2)
    hom = base_change_map(F, RationalFunctionField(2))
    hits = 0
    for g in enumerate_algebras(F, 3):
        h = direct_sum(g, alpha_lie(2))
        cert = rad_p(h.base_change(hom))
        if any(step["step"] == "s4-zero-weight" and step["dim"]
               for step in cert.trace):
            hits += 1
            assert cert.is_exact
            assert cert.radical == h.base_change_subspace(
                hom, brute_force_radical(h))
    assert hits >= 80


def test_result_classes_resolve_their_type_hints():
    for cls in (radical.RadicalCertificate, hopf.SubgroupIdeal,
                ValidationReport):
        assert typing.get_type_hints(cls)


def _weight_plane(p):
    """Basis (h, v1, v2, v3, c) over GF(p)(t): [h, v_i] = v_i, h^[p] = h,
    v1^[p] = c, c^[p] = c, and every other p-power 0.  The weight-1 space
    of h is three-dimensional, and rad_p is span(v2, v3)."""
    F = RationalFunctionField(p)
    zero = (F.zero,) * 5

    def e(i):
        return tuple(F.one if j == i else F.zero for j in range(5))

    return RLieAlgebra.from_upper(F, 5, {(0, i): e(i) for i in (1, 2, 3)},
                                  [e(0), e(4), zero, zero, e(4)],
                                  labels=("h", "v1", "v2", "v3", "c"))


@pytest.mark.parametrize("p", [2, 3])
def test_s4_refuses_a_wide_weight_space_and_the_probe_descends(p,
                                                               monkeypatch):
    g = _weight_plane(p)
    assert g.validate()
    assert radical._s4_split_weights(g, []) is None
    dims = []
    probe = radical._probe_lower_bound

    def recorded(q, samples=64):
        dims.append(q.dim)
        return probe(q, samples)

    monkeypatch.setattr(radical, "_probe_lower_bound", recorded)
    cert = rad_p(g)
    assert cert.strategy == "probe" and not cert.is_exact
    assert cert.radical == g.subspace([g.basis_vector(2), g.basis_vector(3)])
    # the probe recursed into a quotient by the unipotent p-ideal it found
    assert dims[0] == 5 and len(dims) > 1
