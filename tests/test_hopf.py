import itertools
import random
import time

import pytest

from pradical.envelope import dual_hopf, envelope_subalgebra_span, u_env
from pradical.fields import PrimeField
from pradical.gallery import (alpha_hopf, alpha_lie, mu_hopf, paper_g,
                              resolve, sl2_kernel_char2, torus_lie)
from pradical.hopf import (HopfAlgebra, NonDirectedFamilyError, SCAlgebra,
                           frobenius_kernel, is_normal, is_subgroup_ideal,
                           is_unipotent_subgroup, schematic_union,
                           tensor_intersection_identity, tensor_product_hopf)
from pradical.linalg import (Subspace, all_subspaces, kron, sc_accumulate,
                             vec_add, vec_is_zero, vec_scale, vec_terms)
from pradical.radical import rad_p
from pradical.survey import enumerate_algebras
from pradical.textio import print_hopf

from hopf_reference import (assert_same_hopf, dense_print_hopf, dense_tables,
                            validate_failures, zip_dual_hopf)


def basis_vec(F, d, i):
    return tuple(F.one if j == i else F.zero for j in range(d))


def test_validate_hopf_on_standard_objects():
    for H in (alpha_hopf(2, 1), alpha_hopf(2, 2), mu_hopf(2), mu_hopf(3),
              tensor_product_hopf(alpha_hopf(2, 1), mu_hopf(2))):
        assert H.validate_hopf()


def test_validate_hopf_catches_broken_antipode():
    H = mu_hopf(3)
    bad = list(H.antipode)
    bad[1] = basis_vec(H.field, H.dim, 1)  # S(x) = x instead of x^2
    broken = HopfAlgebra(H.field, H.dim, H.mult, H.unit, H.comult, H.counit,
                         bad, H.labels)
    report = broken.validate_hopf()
    assert not report
    assert report.first()[0] == "antipode-convolution"


def test_validate_hopf_catches_broken_comult():
    H = alpha_hopf(2, 2)
    F = H.field
    bad = list(H.comult)
    # drop the mixed terms of delta(x^3): no longer multiplicative
    v = list(bad[3])
    for idx, c in enumerate(v):
        a, b = divmod(idx, H.dim)
        if a != 0 and b != 0:
            v[idx] = F.zero
    bad[3] = tuple(v)
    broken = HopfAlgebra(F, H.dim, H.mult, H.unit, bad, H.counit,
                         H.antipode, H.labels)
    report = broken.validate_hopf()
    assert not report
    # x generates: the generator check fails at (x^2, x), and the full
    # rescan names the first failing basis pair
    assert broken.algebra_generators() == (1,)
    assert report.first() == ("comult-multiplicative", (1, 2))


def test_subgroup_ideal_witnesses():
    H = alpha_hopf(2, 2)
    F = H.field
    # (x^2) is a subgroup ideal
    I = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 2), basis_vec(F, 4, 3)])
    ok, witness = is_subgroup_ideal(H, I)
    assert ok and witness is None
    # the line through x alone is not even an ideal
    J = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 1)])
    ok, witness = is_subgroup_ideal(H, J)
    assert not ok and witness["condition"] == "ideal"
    # span{1} fails the counit condition
    Ku = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 0)])
    ok, witness = is_subgroup_ideal(H, Ku)
    assert not ok and witness["condition"] in ("ideal", "counit")


def _kxy_mod_squares():
    """k[x,y]/(x,y)^2 over GF(2): basis 1, x, y."""
    F = PrimeField(2)
    zero3 = (F.zero,) * 3
    e = lambda i: basis_vec(F, 3, i)
    mult = [[e(j) if i == 0 else (e(i) if j == 0 else zero3)
             for j in range(3)] for i in range(3)]
    return SCAlgebra(F, 3, mult, e(0), labels=("1", "x", "y")), F, e


def test_tensor_intersection_counterexample():
    A, F, e = _kxy_mod_squares()
    assert A.check_associative() is None
    Ix = Subspace.from_vectors(F, 3, [e(1)])
    Iy = Subspace.from_vectors(F, 3, [e(2)])
    eq, lhs, rhs = tensor_intersection_identity(A, [Ix, Iy])
    assert not eq
    assert lhs.dim == 0 and rhs.dim > 0


def test_tensor_intersection_on_random_nested_chains(rng):
    A = tensor_product_hopf(alpha_hopf(2, 2), alpha_hopf(2, 1))
    F = A.field
    aug = A.augmentation_ideal()
    for _ in range(100):
        gens = [aug.basis[rng.randrange(aug.dim)] for _ in range(2)]
        I1 = A.ideal_closure([gens[0]])
        I2 = I1.intersect(A.ideal_closure(gens))
        chain = [I1, I2]  # nested by construction
        eq, lhs, rhs = tensor_intersection_identity(A, chain)
        assert eq


def test_schematic_union_directed_and_forced():
    H = alpha_hopf(2, 2)
    F = H.field
    x2 = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 2),
                                      basis_vec(F, 4, 3)])
    x = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 1), basis_vec(F, 4, 2),
                                     basis_vec(F, 4, 3)])
    union, ok, witness = schematic_union(H, [x, x2])
    assert ok and union.ideal == x2
    # alpha_2 and mu_2 inside alpha_2 x mu_2: incomparable ideals
    P = tensor_product_hopf(alpha_hopf(2, 1), mu_hopf(2))
    Fp = P.field
    # ideal of the alpha_2 factor: generated by 1 tensor (x - 1) of mu side
    g1 = P.ideal_closure([_embed_pair(P, Fp, right_aug=True)])
    g2 = P.ideal_closure([_embed_pair(P, Fp, right_aug=False)])
    assert not g1.contains(g2) and not g2.contains(g1)
    with pytest.raises(NonDirectedFamilyError):
        schematic_union(P, [g1, g2])
    union, ok, witness = schematic_union(P, [g1, g2], force=True)
    assert not ok
    assert witness["condition"] == "comultiplication"
    mixed = P.mixed_tensor_subspace(union.ideal)
    assert witness["escape"] == mixed.reduce(P.delta(witness["element"]))
    assert any(not Fp.is_zero(c) for c in witness["escape"])


def _embed_pair(P, F, right_aug):
    """x⊗1 of the alpha factor, or 1⊗(y-1) of the mu factor, in the
    4-dimensional product basis (1⊗1, 1⊗y, x⊗1, x⊗y)."""
    v = [F.zero] * 4
    if right_aug:
        v[2] = F.one              # x ⊗ 1
    else:
        v[0] = F.one              # 1 ⊗ (y - 1) = 1⊗y - 1⊗1
        v[1] = F.one
    return tuple(v)


def test_frobenius_kernel_chain_of_alpha4():
    H = alpha_hopf(2, 2)
    k1 = frobenius_kernel(H, 1)
    assert [H.labels[i] for i in k1.ideal.pivots] == ["x^2", "x^3"]
    assert k1.subgroup_dim == 2
    k2 = frobenius_kernel(H, 2)
    assert k2.ideal.dim == 0 and k2.subgroup_dim == 4


def test_frobenius_kernel_of_height_one_dual_is_whole():
    A = dual_hopf(u_env(sl2_kernel_char2()))
    k1 = frobenius_kernel(A, 1)
    assert k1.ideal.dim == 0


def test_is_normal_requires_commutative():
    H = u_env(sl2_kernel_char2())
    assert not H.is_commutative()
    with pytest.raises(ValueError):
        is_normal(H, Subspace.zero(H.field, H.dim))


def test_is_normal_true_for_commutative_cocommutative():
    # alpha_4 is commutative and cocommutative: every subgroup ideal is
    # stable under conjugation
    H = alpha_hopf(2, 2)
    F = H.field
    I = Subspace.from_vectors(F, 4, [basis_vec(F, 4, 2), basis_vec(F, 4, 3)])
    assert is_normal(H, I)


def _hopf_samples():
    return [alpha_hopf(2, 2), alpha_hopf(3, 1), mu_hopf(3),
            tensor_product_hopf(alpha_hopf(2, 1), mu_hopf(2)),
            dual_hopf(u_env(torus_lie(2, 3))),
            dual_hopf(u_env(sl2_kernel_char2())),
            u_env(sl2_kernel_char2())]


def _random_vector(F, n, rng):
    return tuple(rng.choice(list(F.elements())) for _ in range(n))


def test_tensor_membership_matches_tensor_subspaces(rng):
    for A in _hopf_samples():
        F, d = A.field, A.dim
        subspaces = [Subspace.zero(F, d), Subspace.full(F, d),
                     A.augmentation_ideal()]
        for k in (1, 2):
            gens = [_random_vector(F, d, rng) for _ in range(k)]
            subspaces.append(A.ideal_closure(gens))  # often not Hopf
            subspaces.append(Subspace.from_vectors(F, d, gens))  # not ideals
        for I in subspaces:
            right = A.right_tensor_subspace(I)
            mixed = A.mixed_tensor_subspace(I)
            samples = [_random_vector(F, d * d, rng) for _ in range(4)]
            for T in (right, mixed):
                for _ in range(4):
                    x = [F.zero] * (d * d)
                    for row in T.basis:
                        c = rng.choice(list(F.elements()))
                        x = [F.add(a, F.mul(c, b)) for a, b in zip(x, row)]
                    samples.append(tuple(x))
            for a in range(d):
                for b in range(d):   # e_a⊗e_b: in A⊗I iff e_b ∈ I
                    samples.append(basis_vec(F, d * d, a * d + b))
            for x in samples:
                assert A.in_right_tensor(I, x) == right.contains_vector(x)
                assert A.in_mixed_tensor(I, x) == mixed.contains_vector(x)


def _generated_subalgebra(A, gens):
    """The unital subalgebra generated by the basis elements `gens`, closed
    under all products of its elements."""
    F, d = A.field, A.dim
    S = Subspace.from_vectors(
        F, d, [A.unit] + [basis_vec(F, d, g) for g in gens])
    while True:
        prods = [A.mul(x, y) for x in S.basis for y in S.basis]
        nxt = Subspace.from_vectors(F, d, list(S.basis) + prods)
        if nxt == S:
            return S
        S = nxt


def test_algebra_generators_generate():
    for A in _hopf_samples() + [u_env(torus_lie(3, 1))]:
        gens = A.algebra_generators()
        assert _generated_subalgebra(A, gens).dim == A.dim
        # greedy: no generator lies in the subalgebra of the earlier ones
        for n, g in enumerate(gens):
            sub = _generated_subalgebra(A, gens[:n])
            assert not sub.contains_vector(basis_vec(A.field, A.dim, g))
    assert alpha_hopf(2, 2).algebra_generators() == (1,)
    assert len(dual_hopf(u_env(torus_lie(2, 3))).algebra_generators()) == 3


def _full_scan_first_failure(H):
    """First failing multiplicativity pair by the definition, over all
    basis pairs."""
    F, d = H.field, H.dim
    for i in range(d):
        for j in range(d):
            prod = H.mul(basis_vec(F, d, i), basis_vec(F, d, j))
            if H.delta(prod) != H.tensor_mul(H.comult[i], H.comult[j]):
                return ("comult-multiplicative", (i, j))
            if not F.eq(H.counit_of(prod),
                        F.mul(H.counit[i], H.counit[j])):
                return ("counit-multiplicative", (i, j))
    return None


def test_validate_hopf_mixed_structures_report_full_scan_failure():
    # the algebra of one Hopf algebra with the coalgebra of another passes
    # the checks before multiplicativity; the report names the same pair as
    # a scan over every basis pair
    A2, M2 = alpha_hopf(2, 1), mu_hopf(2)
    family = [alpha_hopf(2, 2), tensor_product_hopf(A2, A2),
              tensor_product_hopf(A2, M2), tensor_product_hopf(M2, M2),
              dual_hopf(u_env(torus_lie(2, 2)))]
    seen = set()
    for X in family:
        for Y in family:
            H = HopfAlgebra(X.field, X.dim, X.mult, X.unit, Y.comult,
                            Y.counit, Y.antipode)
            report = H.validate_hopf()
            expected = _full_scan_first_failure(H)
            if expected is not None:
                assert report.failures == [expected]
                seen.add(expected[0])
            elif X is Y:
                assert report
    assert seen == {"comult-multiplicative", "counit-multiplicative"}


def test_validate_hopf_dual_torus_dim32():
    H = dual_hopf(u_env(torus_lie(2, 5)))
    assert H.dim == 32
    assert len(H.algebra_generators()) == 5
    assert H.validate_hopf()


def _single_entry_corruptions(H, stride=1):
    """H with one table entry raised by 1, for every `stride`-th entry of
    the product, coproduct, counit and antipode tables in turn."""
    F, d = H.field, H.dim

    def bumped(vectors, n):
        # the table with entry n of the flattened vectors raised by 1
        row, k = divmod(n, len(vectors[0]))
        v = list(vectors[row])
        v[k] = F.add(v[k], F.one)
        return vectors[:row] + (tuple(v),) + vectors[row + 1:]

    mult = tuple(itertools.chain.from_iterable(H.mult))
    tables = {"mult": mult, "comult": H.comult, "counit": (H.counit,),
              "antipode": H.antipode}
    for name, vectors in tables.items():
        for n in range(0, len(vectors) * len(vectors[0]), stride):
            t = dict(tables, **{name: bumped(vectors, n)})
            yield HopfAlgebra(F, d, [t["mult"][i * d:(i + 1) * d]
                                     for i in range(d)],
                              H.unit, t["comult"], t["counit"][0],
                              t["antipode"], H.labels)


def _two_points():
    """Functions on two points over GF(3) with both points grouplike: an
    associative unital algebra and a coalgebra, whose unit e_0 + e_1 has
    Δ(1) ≠ 1⊗1 and ε(1) = 2."""
    F = PrimeField(3)
    e = [basis_vec(F, 2, i) for i in range(2)]
    zero = (F.zero, F.zero)
    return HopfAlgebra(F, 2, [[e[0], zero], [zero, e[1]]],
                       (F.one, F.one), [basis_vec(F, 4, 0),
                                        basis_vec(F, 4, 3)],
                       (F.one, F.one), e)


def _sweedler():
    """Sweedler's Hopf algebra over GF(3), basis 1, g, x, gx with g² = 1,
    x² = 0, xg = −gx, g grouplike and Δ(x) = x⊗1 + g⊗x: neither
    commutative nor cocommutative, and S² ≠ id, so S(a_(2))·a_(1) ≠ ε(a)."""
    F = PrimeField(3)
    e = [basis_vec(F, 4, i) for i in range(4)]
    zero, minus = (F.zero,) * 4, F.neg(F.one)
    mult = [e,
            [e[1], e[0], e[3], e[2]],
            [e[2], vec_scale(F, e[3], minus), zero, zero],
            [e[3], vec_scale(F, e[2], minus), zero, zero]]
    comult = [kron(F, e[0], e[0]), kron(F, e[1], e[1]),
              vec_add(F, kron(F, e[2], e[0]), kron(F, e[1], e[2])),
              vec_add(F, kron(F, e[3], e[1]), kron(F, e[0], e[3]))]
    antipode = [e[0], e[1], vec_scale(F, e[3], minus), e[2]]
    return HopfAlgebra(F, 4, mult, e[0], comult,
                       (F.one, F.one, F.zero, F.zero), antipode,
                       ("1", "g", "x", "gx"))


def test_validate_hopf_reports_what_the_dense_loops_report():
    # valid inputs: every target and the duals of a stride of the hopf
    # workload's grids
    valid = [resolve(name) for name in HOPF_TARGETS] + [_sweedler()]
    for p, dim in ((2, 3), (3, 2)):
        grid = list(enumerate_algebras(PrimeField(p), dim, cap=10 ** 9))
        valid += [dual_hopf(u_env(g)) for g in grid[::7]]
    for H in valid:
        assert H.validate_hopf().failures == validate_failures(H) == []
    # broken inputs: every single-entry corruption of the small targets,
    # and a stride of them on u(g) and its dual for nonabelian grid
    # algebras g, where u(g) is not commutative and its dual not
    # cocommutative
    grid = list(enumerate_algebras(PrimeField(2), 3, cap=10 ** 9))
    broken = [B for name in ("alpha2", "alpha4", "mu2",
                             "product(alpha2,mu2)")
              for B in _single_entry_corruptions(resolve(name))]
    for g in grid[::150]:
        if not g.is_abelian():
            H = u_env(g)
            for A in (H, dual_hopf(H)):
                broken += _single_entry_corruptions(A, 13)
    broken += _single_entry_corruptions(_sweedler())
    broken.append(_two_points())
    kinds = set()
    for B in broken:
        failures = B.validate_hopf().failures
        assert failures == validate_failures(B)
        kinds.update(kind for kind, _ in failures)
    # a single-entry corruption of a Hopf algebra keeps ε(1) = 1 whenever
    # the counit laws hold, so counit-unit comes from the two points
    assert kinds == {"associativity", "unit", "coassociativity", "counit",
                     "comult-unit", "counit-unit", "comult-multiplicative",
                     "counit-multiplicative", "antipode-convolution"}
    assert _two_points().validate_hopf().failures == [
        ("comult-unit", None), ("counit-unit", None)]


def test_validate_hopf_at_the_cap():
    H = dual_hopf(u_env(torus_lie(2, 7)))
    assert H.dim == 128
    assert H.validate_hopf()


# -- the closures against their definition ------------------------------------

HOPF_TARGETS = ("alpha2", "alpha4", "alpha8", "alpha9", "mu2", "mu3", "mu5",
                "product(alpha2,mu2)", "env(sl2-kernel@2)",
                "dual(env(sl2-kernel@2))", "env(torus@2^3)",
                "dual(env(torus@2^3))", "dual(env(alpha@3))",
                "env(paper-G@p=2)", "dual(env(paper-G@p=2))")


def test_print_hopf_writes_the_dense_documents():
    for name in HOPF_TARGETS:
        H = resolve(name)
        for A in (H, dual_hopf(H)):
            assert print_hopf(A) == dense_print_hopf(A)
    assert print_hopf(_sweedler()) == dense_print_hopf(_sweedler())


def _ideal_closure_fixed_point(A, vectors):
    """Reference: add e_i·v and v·e_i for the whole basis, rebuilding the
    span until nothing changes."""
    F, d = A.field, A.dim
    cur = Subspace.from_vectors(F, d, list(vectors))
    for _ in range(d + 1):
        vecs = list(cur.basis)
        for i in range(d):
            ei = basis_vec(F, d, i)
            vecs.extend(A.mul(ei, v) for v in cur.basis)
            vecs.extend(A.mul(v, ei) for v in cur.basis)
        nxt = Subspace.from_vectors(F, d, vecs)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def _algebra_generators_loop(A):
    """Reference: greedy generators, each span closed by right-multiplying
    the whole basis by every generator until nothing changes."""
    F, d = A.field, A.dim
    gens = []
    span = Subspace.from_vectors(F, d, [A.unit])
    for i in range(d):
        if span.dim == d:
            break
        ei = basis_vec(F, d, i)
        if span.contains_vector(ei):
            continue
        gens.append(i)
        for _ in range(d + 1):
            vecs = list(span.basis) + [A.mul(v, basis_vec(F, d, g))
                                       for v in span.basis for g in gens]
            nxt = Subspace.from_vectors(F, d, vecs)
            if nxt == span:
                break
            span = nxt
    return tuple(gens)


def test_ideal_closure_matches_fixed_point():
    rng = random.Random(20261019)
    for name in HOPF_TARGETS:
        A = resolve(name)
        F, d = A.field, A.dim
        seeds = [[basis_vec(F, d, i)] for i in range(d)]
        seeds += [[tuple(F.random_element(rng) for _ in range(d))
                   for _ in range(k)] for k in (1, 1, 2)]
        seeds.append(list(A.augmentation_ideal().basis))
        for vectors in seeds:
            assert (A.ideal_closure(vectors)
                    == _ideal_closure_fixed_point(A, vectors)), name


def test_algebra_generators_match_the_fixed_point_loop():
    for name in HOPF_TARGETS:
        A = resolve(name)
        assert A.algebra_generators() == _algebra_generators_loop(A), name


# -- the sparse structure-constant kernel against the per-side loops it
# replaced ---------------------------------------------------------------


def _dense_tensor_product_hopf(A, B):
    """tensor_product_hopf as it was before the Kronecker kernel: every
    structure map built by loops over the dense coordinates."""
    F = A.field
    da, db = A.dim, B.dim
    d = da * db

    def idx(a, b):
        return a * db + b

    mult = [[None] * d for _ in range(d)]
    for a1 in range(da):
        for b1 in range(db):
            for a2 in range(da):
                for b2 in range(db):
                    pa = A.mult[a1][a2]
                    pb = B.mult[b1][b2]
                    v = [F.zero] * d
                    for a in range(da):
                        if F.is_zero(pa[a]):
                            continue
                        for b in range(db):
                            if not F.is_zero(pb[b]):
                                v[idx(a, b)] = F.mul(pa[a], pb[b])
                    mult[idx(a1, b1)][idx(a2, b2)] = tuple(v)
    unit = [F.zero] * d
    for a in range(da):
        for b in range(db):
            unit[idx(a, b)] = F.mul(A.unit[a], B.unit[b])
    comult = []
    counit = []
    antipode = []
    for a in range(da):
        for b in range(db):
            dv = [F.zero] * (d * d)
            for i1 in range(da * da):
                ca = A.comult[a][i1]
                if F.is_zero(ca):
                    continue
                x1, x2 = divmod(i1, da)
                for i2 in range(db * db):
                    cb = B.comult[b][i2]
                    if F.is_zero(cb):
                        continue
                    y1, y2 = divmod(i2, db)
                    dv[idx(x1, y1) * d + idx(x2, y2)] = F.mul(ca, cb)
            comult.append(tuple(dv))
            counit.append(F.mul(A.counit[a], B.counit[b]))
            sv = [F.zero] * d
            sa = A.antipode[a]
            sb = B.antipode[b]
            for x in range(da):
                if F.is_zero(sa[x]):
                    continue
                for y in range(db):
                    if not F.is_zero(sb[y]):
                        sv[idx(x, y)] = F.mul(sa[x], sb[y])
            antipode.append(tuple(sv))
    labels = tuple("%s*%s" % (la, lb) for la in A.labels for lb in B.labels)
    return dense_tables(F, d, mult, unit, comult, counit, antipode, labels)


_FACTORS = {"alpha2": alpha_hopf(2, 1), "alpha4": alpha_hopf(2, 2),
            "alpha8": alpha_hopf(2, 3), "mu2": mu_hopf(2),
            "alpha9": alpha_hopf(3, 2), "mu3": mu_hopf(3)}
_PAIRS = [(a, b) for a in _FACTORS for b in _FACTORS
          if _FACTORS[a].field == _FACTORS[b].field]


@pytest.mark.parametrize("left, right", _PAIRS)
def test_tensor_product_hopf_matches_the_dense_loops(left, right):
    A, B = _FACTORS[left], _FACTORS[right]
    got = tensor_product_hopf(A, B)
    want = _dense_tensor_product_hopf(A, B)
    assert_same_hopf(got, want)
    # the dual transposes the sparse terms; the dense route zips the tables
    assert_same_hopf(dual_hopf(got), zip_dual_hopf(want))


def test_tensor_product_hopf_of_three_factors_matches():
    A, B, C = alpha_hopf(2, 1), alpha_hopf(2, 2), mu_hopf(2)
    got = tensor_product_hopf(tensor_product_hopf(A, B), C)
    want = _dense_tensor_product_hopf(_dense_tensor_product_hopf(A, B), C)
    assert print_hopf(got) == print_hopf(want)
    assert got.validate_hopf()


def _loop_bracket(g, x, y):
    """RLieAlgebra.bracket before the shared kernel, on its own sparse
    table of the dense `brackets`."""
    F = g.field
    table = [[vec_terms(F, v) for v in row] for row in g.brackets]
    out = [F.zero] * g.dim
    ys = vec_terms(F, y)
    for i, a in vec_terms(F, x):
        for j, b in ys:
            for k, c in table[i][j]:
                out[k] = F.add(out[k], F.mul(F.mul(a, b), c))
    return tuple(out)


def _loop_mul(A, x, y):
    """SCAlgebra.mul before the shared kernel, on its own sparse table of
    the dense `mult`."""
    F = A.field
    table = [[vec_terms(F, v) for v in row] for row in A.mult]
    out = [F.zero] * A.dim
    ys = vec_terms(F, y)
    for i, a in vec_terms(F, x):
        for j, b in ys:
            for k, c in table[i][j]:
                out[k] = F.add(out[k], F.mul(F.mul(a, b), c))
    return tuple(out)


def _loop_tensor_mul(A, u, v):
    """The product in A ⊗ A from the dense tables:
    (e_a⊗e_b)(e_c⊗e_e) = e_a·e_c ⊗ e_b·e_e."""
    F, d = A.field, A.dim
    out = [F.zero] * (d * d)
    for i, x in vec_terms(F, u):
        a, b = divmod(i, d)
        for j, y in vec_terms(F, v):
            c, e = divmod(j, d)
            for k, s in vec_terms(F, A.mult[a][c]):
                for m, t in vec_terms(F, A.mult[b][e]):
                    pos = k * d + m
                    out[pos] = F.add(out[pos],
                                     F.mul(F.mul(x, y), F.mul(s, t)))
    return tuple(out)


def test_bracket_and_mul_match_the_per_side_loops(rng):
    lie = [sl2_kernel_char2(), torus_lie(3, 2), resolve("paper-G@p=2"),
           resolve("paper-G@p=3"), resolve("product(sl2-kernel@p=2,alpha@2)")]
    for g in lie:
        F = g.field
        for _ in range(20):
            x, y = (tuple(F.random_element(rng) for _ in range(g.dim))
                    for _ in range(2))
            assert g.bracket(x, y) == _loop_bracket(g, x, y)
    for A in _hopf_samples():
        F = A.field
        for _ in range(20):
            x, y = (_random_vector(F, A.dim, rng) for _ in range(2))
            assert A.mul(x, y) == _loop_mul(A, x, y)
        if A.dim <= 8:
            u, v = (_random_vector(F, A.dim ** 2, rng) for _ in range(2))
            assert A.tensor_mul(u, v) == _loop_tensor_mul(A, u, v)


def test_power_squares_and_multiplies(rng):
    for A in _hopf_samples():
        F = A.field
        x = _random_vector(F, A.dim, rng)
        out = A.unit
        for e in range(9):
            assert A.power(x, e) == out
            out = A.mul(out, x)
        with pytest.raises(ValueError, match="negative"):
            A.power(x, -1)


def test_frobenius_kernel_at_a_large_exponent_is_quick():
    H = alpha_hopf(2, 2)
    started = time.perf_counter()
    k40 = frobenius_kernel(H, 40)
    assert time.perf_counter() - started < 1.0
    assert k40.ideal == frobenius_kernel(H, 2).ideal
    # the chain of kernels is stable from r = 2 on
    started = time.perf_counter()
    k_million = frobenius_kernel(H, 10 ** 6)
    assert time.perf_counter() - started < 1.0
    assert k_million.ideal == k40.ideal


def _powers_frobenius_ideal(A, r):
    """frobenius_kernel's ideal before the stable chain: the ideal generated
    by the p^r-th powers of a basis of ker ε."""
    q = A.field.p ** r
    gens = [A.power(v, q) for v in A.augmentation_ideal().basis]
    gens = [v for v in gens if not vec_is_zero(A.field, v)]
    return A.ideal_closure(gens) if gens else Subspace.zero(A.field, A.dim)


def test_frobenius_kernel_chain_matches_the_powers():
    for name in ("alpha4", "alpha8", "alpha9", "mu3",
                 "dual(env(sl2-kernel@2))", "product(alpha4,mu2)"):
        A = resolve(name)
        for r in range(5):
            assert (frobenius_kernel(A, r).ideal
                    == _powers_frobenius_ideal(A, r)), (name, r)


def test_frobenius_kernel_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="negative"):
        frobenius_kernel(alpha_hopf(2, 2), -1)


# -- subgroup and normality tests on generators against the full scans -------


def _scan_is_subgroup_ideal(A, I):
    """is_subgroup_ideal before the generator tests: each condition on
    every basis vector of I."""
    F = A.field
    bad = A._ideal_escape(I)
    if bad is not None:
        v, i = bad
        return False, {"condition": "ideal", "element": v, "factor": i}
    for v in I.basis:
        if not F.is_zero(A.counit_of(v)):
            return False, {"condition": "counit", "element": v}
    for v in I.basis:
        dv = A.delta(v)
        if not A.in_mixed_tensor(I, dv):
            return False, {"condition": "comultiplication", "element": v,
                           "escape": A.mixed_tensor_subspace(I).reduce(dv)}
    for v in I.basis:
        if not I.contains_vector(A.antipode_of(v)):
            return False, {"condition": "antipode", "element": v}
    return True, None


def _scan_is_normal(A, I):
    """is_normal before the generator tests: γ on every basis vector."""
    F = A.field
    for v in I.basis:
        cols = [[F.zero] * A.dim for _ in range(A.dim)]
        for (a, b, k), c in A.delta2(v).items():
            sc_accumulate(F, cols[b], A._terms, ((a, c),),
                          A._antipode_terms[k])
        flat = tuple(x for row in zip(*cols) for x in row)
        if not A.in_right_tensor(I, flat):
            return False
    return True


def _subgroup_ideal_cases():
    """(A, I): the ideal of every p-subalgebra of a few small Lie algebras
    in the dual of its envelope, GF(2)-rational ones for paper-G."""
    cases = []
    for g in (sl2_kernel_char2(), torus_lie(2, 3), torus_lie(3, 2),
              alpha_lie(5), resolve("product(sl2-kernel@p=2,alpha@2)"),
              paper_g(2)[0]):
        H = u_env(g)
        A = dual_hopf(H)
        F2 = PrimeField(g.p)
        for S2 in all_subspaces(F2, g.dim):
            S = g.subspace([tuple(g.field.from_int(c) for c in v)
                            for v in S2.basis])
            if g.is_restricted_subalgebra(S):
                cases.append((A, envelope_subalgebra_span(g, S, H)
                              .annihilator()))
    return cases


def _other_subspace_cases(rng):
    """(A, I): subspaces that are not ideals and ideals that are not Hopf
    ideals, with the zero, whole and augmentation ideals."""
    cases = []
    for name in ("alpha8", "alpha9", "mu3", "product(alpha2,mu2)",
                 "dual(env(sl2-kernel@2))", "dual(env(torus@2^3))",
                 "env(sl2-kernel@2)"):
        A = resolve(name)
        F, d = A.field, A.dim
        cases += [(A, Subspace.zero(F, d)), (A, Subspace.full(F, d)),
                  (A, A.augmentation_ideal())]
        for k in (1, 1, 2, 3):
            vecs = [_random_vector(F, d, rng) for _ in range(k)]
            cases.append((A, Subspace.from_vectors(F, d, vecs)))
            cases.append((A, A.ideal_closure(vecs)))
            cases.append((A, A.ideal_closure(
                [v for v in A.augmentation_ideal().basis[:k]])))
    return cases


def test_ideal_generators_generate_greedily(rng):
    seen_none = seen_ideal = 0
    for A, I in _subgroup_ideal_cases() + _other_subspace_cases(rng):
        gens = A.ideal_generators(I)
        if A.ideal_closure(I.basis) != I:
            assert gens is None
            seen_none += 1
            continue
        seen_ideal += 1
        assert A.ideal_closure(gens) == I
        for n, v in enumerate(gens):
            assert not A.ideal_closure(gens[:n]).contains_vector(v)
    assert seen_none >= 20 and seen_ideal >= 100


def test_subgroup_and_normality_tests_match_the_full_scans(rng):
    conditions = set()
    normal = set()
    for A, I in _subgroup_ideal_cases() + _other_subspace_cases(rng):
        got = is_subgroup_ideal(A, I)
        assert got == _scan_is_subgroup_ideal(A, I)
        conditions.add(got[1]["condition"] if got[1] else None)
        if A.is_commutative():
            verdict = is_normal(A, I)
            assert verdict == _scan_is_normal(A, I)
            normal.add(verdict)
    assert conditions == {None, "ideal", "counit", "comultiplication"}
    assert normal == {True, False}


def test_rad_p_is_the_largest_unipotent_normal_subgroup():
    # the paper's definition of Rad_u read through the Lie/Hopf dictionary:
    # with R = rad_p(g).radical, the height-one subgroup of R is normal and
    # unipotent, and it contains that of every p-subalgebra S which is both,
    # that is I_R ⊆ I_S for the defining ideals I = ann(u(S)) in u(g)*
    algebras = subalgebras = 0
    verdicts = set()
    for p in (2, 3):
        F = PrimeField(p)
        for g in enumerate_algebras(F, 2, cap=10 ** 9):
            algebras += 1
            H = u_env(g)
            A = dual_hopf(H)

            def subgroup(S):
                span = envelope_subalgebra_span(g, S, H)
                ideal = span.annihilator()
                return (ideal, is_normal(A, ideal),
                        is_unipotent_subgroup(H, span))

            radical, normal, unipotent = subgroup(rad_p(g).radical)
            assert normal and unipotent
            for S in all_subspaces(F, g.dim):
                S = g.subspace(S.basis)
                if not g.is_restricted_subalgebra(S):
                    continue
                subalgebras += 1
                ideal, normal, unipotent = subgroup(S)
                assert normal == g.is_p_ideal(S)
                assert unipotent == g.is_unipotent(S)
                if normal and unipotent:
                    assert ideal.contains(radical)
                verdicts.add((normal, unipotent, S.dim > 0))
    assert (algebras, subalgebras) == (108, 389)
    # nonzero subgroups that are normal and unipotent, and normal ones that
    # are not unipotent, both occur: R = 0 or R = g would fail the check
    assert verdicts == {(True, True, False), (True, True, True),
                        (True, False, True), (False, False, True)}
