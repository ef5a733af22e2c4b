"""Acceptance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`: each criterion reports
exactly one PASSED/FAILED line.  Expected values are exact (no tolerances);
time budgets are asserted where the criterion pins one.
"""

import random
import time

import pytest

from pradical.envelope import dual_hopf, subgroup_ideal_from_p_subalgebra, \
    u_env
from pradical.fields import ExtensionField, PrimeField, \
    RationalFunctionField, base_change_map
from pradical.gallery import (alpha_hopf, mu_hopf, paper_g, rep_of_element,
                              run_fixture, sl2_kernel_char2,
                              verify_restricted_rep)
from pradical.hopf import (is_normal, is_subgroup_ideal, frobenius_kernel,
                           schematic_union, tensor_intersection_identity,
                           tensor_product_hopf)
from pradical.linalg import Subspace, all_subspaces, mat_pow
from pradical.radical import is_p_reductive, rad_p
from pradical.survey import (brute_force_radical, enumerate_algebras,
                             has_nonzero_p_nilpotent, oracle_compare,
                             unipotent_restricted_subalgebras)
from pradical.textio import parse_element


@pytest.fixture(scope="module")
def grid():
    """Exhaustive 2- and 3-dimensional instances over GF(2), capped."""
    F = PrimeField(2)
    out = list(enumerate_algebras(F, 2, cap=10000))
    out += list(enumerate_algebras(F, 3, cap=10000 - len(out)))
    return out


def test_criterion_01_solvable_family_end_to_end():
    started = time.monotonic()
    g, rep = paper_g(2)
    assert g.validate()
    X, Y = g.basis_vector(0), g.basis_vector(1)
    assert g.center() == g.subspace([X])
    series = g.characteristic_series()
    assert series["solvable"] and not series["nilpotent"]
    chain = [g.zero_subspace(), g.subspace([X]), g.subspace([X, Y]),
             g.full_subspace()]
    kinds = [s["kind"] for s in g.verify_subnormal_series(chain)]
    assert kinds == ["mu-form", "alpha-type", "mu-form"]
    cert = rad_p(g)
    assert cert.radical.dim == 0 and cert.is_exact
    assert is_p_reductive(g) is True
    # the abelian p-ideal N = <X, Y> as a standalone algebra
    K = g.field
    from pradical.lie import RLieAlgebra
    N = RLieAlgebra(K, 2, (((K.zero,) * 2,) * 2,) * 2,
                    ((K.one, K.zero), (K.t, K.zero)))
    ncert = rad_p(N)
    assert ncert.radical.dim == 0 and ncert.is_exact
    assert is_p_reductive(N) is False
    q, project, section = g.quotient(g.subspace([X]))
    qcert = rad_p(q)
    assert qcert.is_exact
    assert qcert.radical == q.subspace([project(Y)])
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_02_representation_oracle(p):
    g, rep = paper_g(p)
    K = g.field
    result = verify_restricted_rep(g, rep)
    assert result["ok"], result["failures"]
    rng = random.Random(20260826)
    for _ in range(200):
        x = tuple(K.random_element(rng) for _ in range(3))
        assert rep_of_element(g, rep, g.p_power(x)) == \
            mat_pow(K, rep_of_element(g, rep, x), p)


def test_criterion_03_sl2_kernel_fixture():
    started = time.monotonic()
    g = sl2_kernel_char2()
    series = g.characteristic_series()
    assert series["nilpotent"]
    assert [S.dim for S in series["lower_central_series"]] == [3, 1, 0]
    assert not g.is_unipotent()
    assert series["center"] == g.subspace([g.basis_vector(1)])
    e_line = g.subspace([g.basis_vector(0)])
    f_line = g.subspace([g.basis_vector(2)])
    assert g.is_unipotent(e_line) and g.is_unipotent(f_line)
    assert g.spin_subalgebra(e_line.sum(f_line)) == g.full_subspace()
    cert = rad_p(g)
    assert cert.radical.dim == 0 and cert.is_exact
    assert time.monotonic() - started < 1.0


def test_criterion_04_oracle_equivalence(grid):
    started = time.monotonic()
    assert len(grid) <= 10000
    total, mismatches = oracle_compare(grid)
    assert total == len(grid)
    assert not mismatches
    assert time.monotonic() - started < 600.0


def test_criterion_05_base_change_equivariance(grid):
    F = PrimeField(2)
    sample = grid[:500]
    for m in (2, 3):
        K = ExtensionField(2, m)
        hom = base_change_map(F, K)
        for g in sample:
            gK = g.base_change(hom)
            assert rad_p(gK).radical == \
                g.base_change_subspace(hom, rad_p(g).radical)


def test_criterion_06_unipotent_parts_inside_radical(grid):
    checked = 0
    for g in grid:
        D = g.spin_p_ideal(g.derived_subalgebra())
        if not g.is_unipotent(D):
            continue
        R = rad_p(g).radical
        for S in unipotent_restricted_subalgebras(g):
            assert R.contains(S), (g.brackets, g.ppowers)
        checked += 1
    assert checked > 0


def test_criterion_07_no_p_nilpotents_implies_abelian(grid):
    F = PrimeField(2)
    hom = base_change_map(F, ExtensionField(2, 2))
    for g in grid:
        if not has_nonzero_p_nilpotent(g):
            assert g.is_abelian()
        gK = g.base_change(hom)
        if not has_nonzero_p_nilpotent(gK):
            assert gK.is_abelian()


def test_criterion_08_hopf_layer():
    started = time.monotonic()
    F = PrimeField(2)
    alpha2, mu2, alpha4 = alpha_hopf(2, 1), mu_hopf(2), alpha_hopf(2, 2)
    product = tensor_product_hopf(alpha2, mu2)
    duals = [dual_hopf(u_env(g))
             for g in (sl2_kernel_char2(), paper_g(2)[0])]
    for H in [alpha2, mu2, alpha4, product] + duals:
        assert H.validate_hopf()
    # Frobenius-kernel chain of the order-4 additive kernel: (x^2), then 0
    k1 = frobenius_kernel(alpha4, 1)
    assert [alpha4.labels[i] for i in k1.ideal.pivots] == ["x^2", "x^3"]
    assert frobenius_kernel(alpha4, 2).ideal.dim == 0
    # height-one coordinate rings: first Frobenius kernel is everything
    for A in duals:
        assert frobenius_kernel(A, 1).ideal.dim == 0
    # non-directed union of the two factors fails with a witness
    g1 = product.ideal_closure([(F.zero, F.zero, F.one, F.zero)])  # x (x) 1
    g2 = product.ideal_closure([(F.one, F.one, F.zero, F.zero)])   # 1 (x) y-1
    union, ok, witness = schematic_union(product, [g1, g2], force=True)
    assert not ok and witness is not None
    assert witness["condition"] == "comultiplication"
    # nested-chain tensor identity: 100 random chains hold, the classical
    # two-variable counterexample fails
    big = tensor_product_hopf(alpha4, alpha2)
    aug = big.augmentation_ideal()
    rng = random.Random(20260826)
    for _ in range(100):
        gens = [aug.basis[rng.randrange(aug.dim)] for _ in range(2)]
        I1 = big.ideal_closure([gens[0]])
        I2 = I1.intersect(big.ideal_closure(gens))
        eq, lhs, rhs = tensor_intersection_identity(big, [I1, I2])
        assert eq
    from pradical.hopf import SCAlgebra
    e = lambda i: tuple(F.one if j == i else F.zero for j in range(3))
    # k[x,y]/(x,y)^2: 1·e_j = e_j and e_i·1 = e_i, every other product 0
    terms = tuple(tuple((((j, F.one),) if i == 0 else
                         ((i, F.one),) if j == 0 else ())
                        for j in range(3)) for i in range(3))
    small = SCAlgebra(F, 3, terms, e(0))
    eq, lhs, rhs = tensor_intersection_identity(
        small, [Subspace.from_vectors(F, 3, [e(1)]),
                Subspace.from_vectors(F, 3, [e(2)])])
    assert not eq
    assert time.monotonic() - started < 30.0


def test_criterion_09_normality_bridge():
    checked = 0
    for g, lift_field in ((sl2_kernel_char2(), None),
                          (paper_g(2)[0], PrimeField(2))):
        K = g.field
        if lift_field is None:
            candidates = list(all_subspaces(K, g.dim))
        else:
            def lift(v):
                return tuple(K.one if c else K.zero for c in v)
            candidates = [
                Subspace.from_vectors(K, g.dim, [lift(v) for v in S.basis])
                for S in all_subspaces(lift_field, g.dim)]
        for S in candidates:
            if not g.is_restricted_subalgebra(S):
                continue
            A, sgi = subgroup_ideal_from_p_subalgebra(g, S)
            assert A.dim == 8
            ok, witness = is_subgroup_ideal(A, sgi.ideal)
            assert ok, witness
            assert is_normal(A, sgi.ideal) == g.is_p_ideal(S)
            checked += 1
    assert checked >= 10


def test_criterion_10_randomized_tameness_and_geometric_witness():
    g, _ = paper_g(2)
    K = g.field
    rng = random.Random(20260826)
    for _ in range(1000):
        x = tuple(K.random_element(rng) for _ in range(3))
        if all(K.is_zero(c) for c in x):
            continue
        assert not g.is_p_nilpotent(x)
    # after the inseparable base change t -> s^2, sX + Y is p-nilpotent
    L = RationalFunctionField(2, "s")
    hom = base_change_map(K, L, m=1)
    gL = g.base_change(hom)
    s = L.t
    witness = (s, L.one, L.zero)
    assert gL.is_p_nilpotent(witness)
    assert not g.is_p_nilpotent((K.t, K.one, K.zero))
