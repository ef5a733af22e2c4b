import pytest

from pradical.fields import RationalFunctionField
from pradical.gallery import (FIXTURE_TABLES, UnknownGalleryName, alpha_hopf,
                              alpha_lie, mu_hopf, mu_lie, paper_g,
                              rep_of_element, resolve, run_fixture,
                              sl2_kernel_char2, verify_restricted_rep)
from pradical.hopf import HopfAlgebra
from pradical.lie import RLieAlgebra
from pradical.linalg import mat_pow


@pytest.mark.parametrize("name", sorted(FIXTURE_TABLES))
def test_fixture_tables_pass(name):
    rows = run_fixture(name)
    failed = [r for r in rows if not r["passed"]]
    assert not failed, failed
    assert all(r["tag"] in ("reference", "derived", "trivial") for r in rows)


def test_paper_g_rejects_p_th_power_parameter():
    K = RationalFunctionField(2)
    t = K.t
    with pytest.raises(ValueError):
        paper_g(2, a=K.mul(t, t))


def test_paper_g_displayed_matrices_at_p2():
    g, rep = paper_g(2)
    K = g.field
    t = K.t
    one, zero = K.one, K.zero
    assert rep[0] == ((one, zero), (zero, one))
    assert rep[1] == ((zero, t), (one, zero))
    assert rep[2] == ((one, zero), (zero, zero))


def test_rep_oracle_rejects_identity_assignment():
    g, rep = paper_g(2)
    identity = rep[0]
    result = verify_restricted_rep(g, (identity, identity, identity))
    assert not result["ok"]
    assert any(kind == "bracket" for kind, _ in result["failures"])


@pytest.mark.parametrize("p", [2, 3])
def test_rep_p_power_compatibility(p, rng):
    g, rep = paper_g(p)
    K = g.field
    result = verify_restricted_rep(g, rep)
    assert result["ok"], result["failures"]
    for _ in range(50):
        x = tuple(K.random_element(rng) for _ in range(3))
        assert rep_of_element(g, rep, g.p_power(x)) == \
            mat_pow(K, rep_of_element(g, rep, x), p)


def test_resolve_gallery_names():
    assert isinstance(resolve("paper-G@p=2"), RLieAlgebra)
    assert isinstance(resolve("sl2-kernel@p=2"), RLieAlgebra)
    assert resolve("alpha@3").dim == 1
    assert resolve("mu@5").dim == 1
    assert resolve("torus@2^3").dim == 3
    assert resolve("product(alpha@2,mu@2)").dim == 2
    assert isinstance(resolve("alpha8"), HopfAlgebra)
    assert isinstance(resolve("env(alpha@2)"), HopfAlgebra)
    assert isinstance(resolve("dual(mu2)"), HopfAlgebra)
    for bad in ("paper-G@p=4", "alpha6", "mu4", "nonsense", "alpha0",
                "alpha1", "mu0", "mu1", "torus@2^0", "torus@3^-1"):
        with pytest.raises(UnknownGalleryName):
            resolve(bad)


def test_standard_types():
    from pradical.radical import is_mult_type

    assert alpha_lie(2).is_unipotent()
    assert is_mult_type(mu_lie(5))
    assert alpha_hopf(3, 1).validate_hopf()
    assert mu_hopf(5).validate_hopf()


def test_sl2_kernel_summary():
    g = sl2_kernel_char2()
    assert g.validate()
    assert not g.is_unipotent()
    e_line = g.subspace([g.basis_vector(0)])
    f_line = g.subspace([g.basis_vector(2)])
    assert g.is_unipotent(e_line) and g.is_unipotent(f_line)
    assert g.spin_subalgebra(e_line.sum(f_line)).dim == 3
