"""Survey grid enumeration: the cap, the cost per bracket table and the
p-power variants that share one table."""

import itertools
import random

import pytest

from pradical import survey
from pradical.fields import PrimeField
from pradical.lie import RLieAlgebra, ValidationReport
from pradical.survey import all_vectors, enumerate_algebras

from lie_reference import jacobi_ok


@pytest.mark.parametrize("cap", [0, -1, -10 ** 9])
def test_a_cap_below_one_yields_nothing(cap):
    assert list(enumerate_algebras(PrimeField(2), 2, cap=cap)) == []


def test_the_cap_counts_yielded_algebras():
    F = PrimeField(3)
    grid = list(enumerate_algebras(F, 2, cap=10 ** 9))
    for cap in (1, 2, 30, len(grid), len(grid) + 1):
        prefix = list(enumerate_algebras(F, 2, cap=cap))
        assert [(g.brackets, g.ppowers) for g in prefix] == [
            (g.brackets, g.ppowers) for g in grid[:cap]]


def _jacobi_valid_tables(F, n):
    """Bracket tables of the grid that pass `validate`'s Jacobi scan."""
    pairs = list(itertools.combinations(range(n), 2))
    zero = (F.zero,) * n
    return sum(1 for choice in itertools.product(list(all_vectors(F, n)),
                                                 repeat=len(pairs))
               if jacobi_ok(RLieAlgebra.from_upper(
                   F, n, dict(zip(pairs, choice)), [zero] * n)))


@pytest.mark.parametrize("p,dim,tables,algebras", [(2, 3, 120, 911),
                                                   (3, 2, 9, 89)])
def test_enumeration_builds_and_eliminates_once_per_table(
        monkeypatch, p, dim, tables, algebras):
    """One algebra construction and one rref per Jacobi-valid bracket
    table; the p-power variants are derived from it.  Building an algebra
    per table and per variant, with two rref calls per basis element, took
    1,423 constructions and 588 rref calls on GF(2) dim 3 and 98 and 36 on
    GF(3) dim 2."""
    F = PrimeField(p)
    assert _jacobi_valid_tables(F, dim) == tables
    calls = {"init": 0, "rref": 0}
    init, rref = RLieAlgebra.__init__, survey.rref

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting_rref(*args):
        calls["rref"] += 1
        return rref(*args)

    monkeypatch.setattr(RLieAlgebra, "__init__", counting_init)
    monkeypatch.setattr(survey, "rref", counting_rref)
    assert sum(1 for _ in enumerate_algebras(F, dim, cap=10 ** 9)) == algebras
    assert calls["init"] <= tables and calls["rref"] <= tables


def _variant_groups(F, dim):
    """The enumerated algebras grouped by bracket table, groups of two or
    more variants only."""
    groups = [list(group) for _, group in itertools.groupby(
        enumerate_algebras(F, dim, cap=10 ** 9), key=lambda g: g.brackets)]
    return [group for group in groups if len(group) > 1]


@pytest.mark.parametrize("p,dim", [(2, 3), (3, 2), (5, 2)])
def test_shared_variants_are_independent_algebras(p, dim):
    F = PrimeField(p)
    rng = random.Random(20261020 + p)
    groups = _variant_groups(F, dim)
    assert groups
    for group in groups:
        first = group[0]
        assert None not in (first._ad_basis, first._ad_terms)
        for g in group[1:]:
            assert g.brackets is first.brackets and g._terms is first._terms
            assert g._ad_basis is first._ad_basis
            assert g._ad_terms is first._ad_terms
            assert g.ppowers != first.ppowers
        for g in group:
            assert g.validate()
            fresh = RLieAlgebra(F, dim, g.brackets, g.ppowers)
            for _ in range(3):
                x, y = ([F.random_element(rng) for _ in range(dim)]
                        for _ in range(2))
                assert g.bracket(x, y) == fresh.bracket(x, y)
                assert g.p_power(x) == fresh.p_power(x)
                assert g.ad_matrix(x) == fresh.ad_matrix(x)
    # a cache set on one variant leaves its siblings alone
    a, b = groups[0][:2]
    ad_b = b.ad_basis()
    a._validated = ValidationReport(False, [("restricted", (0,), "forced")])
    a._ad_basis = a._ad_terms = None
    assert not a.validate() and b.validate()
    assert b._ad_basis is ad_b and b._ad_terms is not None
    assert a.ad_basis() == ad_b and a.ad_basis() is not ad_b
