"""Finite-dimensional (Hopf) algebras by structure constants.

A Hopf algebra is the coordinate ring of a finite group scheme when it is
commutative; closed subgroup schemes are represented by their defining
ideals.

Elements of A are coordinate tuples and elements of A⊗A are d²-tuples, with
e_a⊗e_b at index a·d + b.  `mult` and `comult` stay the dense public tables,
but every product reads one sparse table built from `mult` once: e_i·e_j as
its nonzero (k, c) pairs.  Δ(e_i) is kept likewise as its nonzero (a, b, c)
triples, c·e_a⊗e_b.  Membership in A⊗I and in A⊗I + I⊗A goes through the
quotient map π: A → A/I, so no subspace of the d²-space is built.
`validate_hopf` checks associativity, coassociativity, the counit laws and
the multiplicativity of Δ and ε on a few algebra generators, and reruns the
full basis scan only when one of those checks fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import (Subspace, nullspace, vec_accumulate, vec_is_zero,
                     vec_scale, vec_terms)


@dataclass
class HopfValidationReport:
    passed: bool
    failures: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.passed

    def first(self):
        return self.failures[0] if self.failures else None


class SCAlgebra:
    """Associative unital algebra by structure constants."""

    def __init__(self, field, dim, mult, unit, labels=None):
        self.field = field
        self.dim = dim
        self.mult = tuple(tuple(tuple(v) for v in row) for row in mult)
        self.unit = tuple(unit)
        self.labels = tuple(labels) if labels else tuple(
            "b%d" % i for i in range(dim))
        # e_i·e_j as its nonzero (k, c) pairs: every product reads this
        self._terms = tuple(tuple(vec_terms(field, v) for v in row)
                            for row in self.mult)

    def __repr__(self):
        return "%s(dim=%d over %r)" % (type(self).__name__, self.dim, self.field)

    def mul(self, x, y):
        F = self.field
        out = [F.zero] * self.dim
        ys = vec_terms(F, y)
        for i, a in vec_terms(F, x):
            row = self._terms[i]
            for j, b in ys:
                vec_accumulate(F, out, row[j], F.mul(a, b))
        return tuple(out)

    def _basis_times(self, i, ys):
        """e_i·y, for y given by its nonzero (j, c) pairs."""
        F = self.field
        out = [F.zero] * self.dim
        row = self._terms[i]
        for j, c in ys:
            vec_accumulate(F, out, row[j], c)
        return tuple(out)

    def _times_basis(self, xs, j):
        """x·e_j, for x given by its nonzero (i, c) pairs."""
        F = self.field
        out = [F.zero] * self.dim
        for i, c in xs:
            vec_accumulate(F, out, self._terms[i][j], c)
        return tuple(out)

    def power(self, x, e):
        out = self.unit
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def basis_vector(self, i):
        F = self.field
        return tuple(F.one if j == i else F.zero for j in range(self.dim))

    def is_commutative(self):
        return all(self.mult[i][j] == self.mult[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def check_associative(self, right=None):
        """The first (i, j, k) with (e_i·e_j)·e_k ≠ e_i·(e_j·e_k), k taken
        from `right` (default: every basis index); None if there is none."""
        T = self._terms
        right = range(self.dim) if right is None else right
        for i in range(self.dim):
            for j in range(self.dim):
                ij = T[i][j]
                for k in right:
                    if (self._times_basis(ij, k)
                            != self._basis_times(i, T[j][k])):
                        return (i, j, k)
        return None

    def check_unit(self):
        us = vec_terms(self.field, self.unit)
        for i in range(self.dim):
            ei = self.basis_vector(i)
            if self._times_basis(us, i) != ei or self._basis_times(i, us) != ei:
                return i
        return None

    def algebra_generators(self):
        """Greedy basis generators, as indices: e_i joins when it is not in
        the unital subalgebra spanned by the earlier ones.  That span is
        closed by right-multiplying by the generators."""
        F = self.field
        gens = []
        span = Subspace.from_vectors(F, self.dim, [self.unit])

        def images(v, _):
            vs = vec_terms(F, v)
            return [self._times_basis(vs, g) for g in gens]

        for i in range(self.dim):
            if span.dim == self.dim:
                break
            ei = self.basis_vector(i)
            if span.contains_vector(ei):
                continue
            gens.append(i)
            # the old span is closed under the old generators
            span = span.closure([ei] + [self._times_basis(vec_terms(F, v), i)
                                        for v in span.basis], images)
        return tuple(gens)

    # -- ideals ------------------------------------------------------------

    def ideal_closure(self, vectors):
        """Smallest two-sided ideal containing the given elements."""
        F = self.field

        def images(v, _):
            vs = vec_terms(F, v)
            return ([self._basis_times(i, vs) for i in range(self.dim)]
                    + [self._times_basis(vs, i) for i in range(self.dim)])

        return Subspace.zero(F, self.dim).closure(vectors, images)

    def _ideal_escape(self, S):
        """The first (v, i), v in S.basis, with e_i·v or v·e_i outside S;
        None when S is a two-sided ideal."""
        for v in S.basis:
            vs = vec_terms(self.field, v)
            for i in range(self.dim):
                if not (S.contains_vector(self._basis_times(i, vs))
                        and S.contains_vector(self._times_basis(vs, i))):
                    return v, i
        return None

    def is_ideal(self, S):
        return self._ideal_escape(S) is None

    # -- tensor square helpers ----------------------------------------------

    def tensor_of(self, x, y):
        """x ⊗ y as a d²-vector."""
        F = self.field
        d = self.dim
        out = [F.zero] * (d * d)
        ys = vec_terms(F, y)
        for a, xa in vec_terms(F, x):
            for b, yb in ys:
                out[a * d + b] = F.mul(xa, yb)
        return tuple(out)

    def _tensor_terms(self, u):
        """A d²-vector as its nonzero (a, b, c) triples, c·e_a⊗e_b."""
        d = self.dim
        return tuple(divmod(idx, d) + (c,)
                     for idx, c in vec_terms(self.field, u))

    def tensor_mul(self, u, v):
        """Product in A ⊗ A of two d²-vectors."""
        return self._tensor_product(self._tensor_terms(u),
                                    self._tensor_terms(v))

    def _tensor_product(self, us, vs):
        """Product in A ⊗ A of two elements given as (a, b, c) triples, as a
        d²-vector."""
        F = self.field
        d = self.dim
        T = self._terms
        out = [F.zero] * (d * d)
        for a1, b1, c1 in us:
            left, right = T[a1], T[b1]
            for a2, b2, c2 in vs:
                rb = right[b2]
                if not rb:
                    continue
                c = F.mul(c1, c2)
                for a, la in left[a2]:
                    ca = F.mul(c, la)
                    base = a * d
                    for b, r in rb:
                        out[base + b] = F.add(out[base + b], F.mul(ca, r))
        return tuple(out)

    def in_right_tensor(self, I, x):
        """x ∈ A⊗I for a d²-vector x: every slice x[a·d:(a+1)·d] lies in
        I."""
        d = self.dim
        return all(I.contains_vector(x[a * d:(a + 1) * d]) for a in range(d))

    def in_mixed_tensor(self, I, x):
        """x ∈ A⊗I + I⊗A for a d²-vector x, that is (π⊗π)(x) = 0 with
        π: A → A/I: reduce each slice mod I, then every non-pivot column
        must lie in I."""
        d = self.dim
        rows = [I.reduce(x[a * d:(a + 1) * d]) for a in range(d)]
        return all(I.contains_vector(tuple(row[c] for row in rows))
                   for c in range(d) if c not in I.pivots)

    def mixed_tensor_subspace(self, I):
        """A ⊗ I + I ⊗ A inside the tensor square."""
        F = self.field
        d = self.dim
        vecs = []
        for v in I.basis:
            for i in range(d):
                left = [F.zero] * (d * d)
                right = [F.zero] * (d * d)
                for k in range(d):
                    if not F.is_zero(v[k]):
                        left[i * d + k] = v[k]     # e_i ⊗ v
                        right[k * d + i] = v[k]    # v ⊗ e_i
                vecs.append(tuple(left))
                vecs.append(tuple(right))
        return Subspace.from_vectors(F, d * d, vecs)

    def right_tensor_subspace(self, I):
        """A ⊗ I inside the tensor square."""
        F = self.field
        d = self.dim
        vecs = []
        for v in I.basis:
            for i in range(d):
                w = [F.zero] * (d * d)
                for k in range(d):
                    if not F.is_zero(v[k]):
                        w[i * d + k] = v[k]
                vecs.append(tuple(w))
        return Subspace.from_vectors(F, d * d, vecs)


class HopfAlgebra(SCAlgebra):

    def __init__(self, field, dim, mult, unit, comult, counit, antipode,
                 labels=None):
        super().__init__(field, dim, mult, unit, labels)
        self.comult = tuple(tuple(v) for v in comult)      # Δ(e_i) as d²-vector
        self.counit = tuple(counit)                        # ε(e_i) scalars
        self.antipode = tuple(tuple(v) for v in antipode)  # S(e_i) as d-vector
        # Δ(e_i) as its nonzero (a, b, c) triples, S(e_i) as (k, c) pairs
        self._coterms = tuple(self._tensor_terms(v) for v in self.comult)
        self._antipode_terms = tuple(vec_terms(field, v)
                                     for v in self.antipode)

    def delta(self, x):
        F = self.field
        d = self.dim
        out = [F.zero] * (d * d)
        for i, xi in vec_terms(F, x):
            for a, b, c in self._coterms[i]:
                out[a * d + b] = F.add(out[a * d + b], F.mul(xi, c))
        return tuple(out)

    def counit_of(self, x):
        F = self.field
        return F.sum(F.mul(x[i], self.counit[i]) for i in range(self.dim))

    def antipode_of(self, x):
        F = self.field
        out = [F.zero] * self.dim
        for i, xi in vec_terms(F, x):
            vec_accumulate(F, out, self._antipode_terms[i], xi)
        return tuple(out)

    def _comult_leg(self, terms, first):
        """(Δ⊗id) when `first`, else (id⊗Δ), of Σ c·e_a⊗e_b given as
        (a, b, c) triples; returns {(a, b, c): coefficient}, nonzero
        entries only."""
        F = self.field
        acc = {}
        for a, b, c in terms:
            for x, y, c2 in self._coterms[a if first else b]:
                key = (x, y, b) if first else (a, x, y)
                cc = F.mul(c, c2)
                acc[key] = F.add(acc[key], cc) if key in acc else cc
        return {key: c for key, c in acc.items() if not F.is_zero(c)}

    def delta2(self, x):
        """(Δ ⊗ id)Δ(x) as {(a, b, c): coefficient} for e_a⊗e_b⊗e_c,
        nonzero entries only."""
        return self._comult_leg(self._tensor_terms(self.delta(x)), True)

    def augmentation_ideal(self):
        """ker ε as a subspace of A."""
        return nullspace(self.field, (self.counit,), self.dim)

    # -- axioms -------------------------------------------------------------

    def _bialgebra_failures(self, gens):
        """The failed algebra, coalgebra and bialgebra axioms, in the order
        validate_hopf reports them: associativity, unit, coassociativity,
        counit, Δ(1) and ε(1), then multiplicativity of Δ and ε.

        Each check that is linear in one basis argument takes that argument
        from `gens` only; with every basis index this is the full scan.  With
        the greedy algebra generators it passes exactly when the full scan
        does, by induction on word length.  Given the unit laws, Δ(1) = 1⊗1
        and ε(1) = 1, the z with (xy)z = x(yz), Δ(xz) = Δ(x)Δ(z) and
        ε(xz) = ε(x)ε(z) for all x, y form a unital subalgebra, so holding
        on the generators they hold everywhere.  Then (Δ⊗id)Δ and (id⊗Δ)Δ,
        and (ε⊗id)Δ, (id⊗ε)Δ and id, are algebra maps, equal everywhere once
        they agree on the generators.
        """
        F = self.field
        d = self.dim
        bad = self.check_associative(gens)
        if bad is not None:
            return [("associativity", bad)]
        bad = self.check_unit()
        if bad is not None:
            return [("unit", bad)]
        for i in gens:
            if (self._comult_leg(self._coterms[i], True)
                    != self._comult_leg(self._coterms[i], False)):
                return [("coassociativity", i)]
        for i in gens:
            left = [F.zero] * d
            right = [F.zero] * d
            for a, b, c in self._coterms[i]:
                left[b] = F.add(left[b], F.mul(c, self.counit[a]))
                right[a] = F.add(right[a], F.mul(c, self.counit[b]))
            ei = self.basis_vector(i)
            if tuple(left) != ei or tuple(right) != ei:
                return [("counit", i)]
        failures = []
        if self.delta(self.unit) != self.tensor_of(self.unit, self.unit):
            failures.append(("comult-unit", None))
        if not F.eq(self.counit_of(self.unit), F.one):
            failures.append(("counit-unit", None))
        if failures:
            return failures
        for i in range(d):
            for j in gens:
                prod = self.mult[i][j]
                if self.delta(prod) != self._tensor_product(self._coterms[i],
                                                            self._coterms[j]):
                    return [("comult-multiplicative", (i, j))]
                if not F.eq(self.counit_of(prod),
                            F.mul(self.counit[i], self.counit[j])):
                    return [("counit-multiplicative", (i, j))]
        return []

    def validate_hopf(self):
        F = self.field
        d = self.dim
        T = self._terms
        failures = []
        if self._bialgebra_failures(self.algebra_generators()):
            # the full scan names the first failure
            failures = self._bialgebra_failures(range(d))
        if not failures:
            # antipode convolution identities: S(a_(1))·a_(2) and
            # a_(1)·S(a_(2)) both equal ε(a)·1
            S = self._antipode_terms
            for i in range(d):
                conv_l = [F.zero] * d
                conv_r = [F.zero] * d
                for a, b, c in self._coterms[i]:
                    for k, s in S[a]:
                        vec_accumulate(F, conv_l, T[k][b], F.mul(c, s))
                    for k, s in S[b]:
                        vec_accumulate(F, conv_r, T[a][k], F.mul(c, s))
                target = vec_scale(F, self.unit, self.counit[i])
                if tuple(conv_l) != target or tuple(conv_r) != target:
                    failures.append(("antipode-convolution", i))
                    break
        return HopfValidationReport(not failures, failures)

    def require_valid(self):
        rep = self.validate_hopf()
        if not rep:
            raise ValueError("invalid Hopf algebra: %r" % (rep.first(),))


@dataclass
class SubgroupIdeal:
    algebra: HopfAlgebra
    ideal: Subspace

    @property
    def subgroup_dim(self):
        return self.algebra.dim - self.ideal.dim


def is_subgroup_ideal(A, I):
    """Check the four Hopf-ideal conditions; returns (ok, witness)."""
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


def tensor_intersection_identity(A, ideals):
    """Compare A⊗I + I⊗A (I the intersection) with the intersection of the
    per-ideal mixed tensor subspaces; equality is guaranteed for finite
    downward-directed families."""
    if not ideals:
        raise ValueError("need at least one ideal")
    inter = ideals[0]
    for J in ideals[1:]:
        inter = inter.intersect(J)
    lhs = A.mixed_tensor_subspace(inter)
    rhs = A.mixed_tensor_subspace(ideals[0])
    for J in ideals[1:]:
        rhs = rhs.intersect(A.mixed_tensor_subspace(J))
    return lhs == rhs, lhs, rhs


class NonDirectedFamilyError(ValueError):
    def __init__(self, pair):
        super().__init__("subgroup family is not directed; incomparable "
                         "ideal pair %r" % (pair,))
        self.pair = pair


class NotSubgroupIdealError(ValueError):
    def __init__(self, witness):
        super().__init__("the intersection of the directed family is not a "
                         "subgroup ideal; witness %r" % (witness,))
        self.witness = witness


def schematic_union(A, ideals, force=False):
    """Intersection ideal of an upward-directed family of subgroups.

    The family must be pairwise comparable unless `force` is set (testing
    hook for the non-directed counterexample), and without `force` its
    intersection must be a subgroup ideal (NotSubgroupIdealError otherwise).
    Returns a SubgroupIdeal.
    """
    if not ideals:
        raise ValueError("need at least one subgroup ideal")
    if not force:
        for i in range(len(ideals)):
            for j in range(i + 1, len(ideals)):
                if not (ideals[i].contains(ideals[j])
                        or ideals[j].contains(ideals[i])):
                    raise NonDirectedFamilyError((i, j))
    inter = ideals[0]
    for J in ideals[1:]:
        inter = inter.intersect(J)
    ok, witness = is_subgroup_ideal(A, inter)
    if not force:
        if not ok:
            raise NotSubgroupIdealError(witness)
        # for a finite directed family the union is the smallest ideal
        smallest = min(ideals, key=lambda J: J.dim)
        if inter != smallest:
            raise AssertionError("directed union is not the minimal ideal")
    return SubgroupIdeal(A, inter), ok, witness


def is_normal(A, I, both_legs=False):
    """Stability of I under the conjugation co-action
    γ(a) = a_(1)·S(a_(3)) ⊗ a_(2) (first leg conjugates).

    Checks γ(I) ⊆ A⊗I, the co-module condition on the subgroup leg; with
    both_legs the weaker mixed containment γ(I) ⊆ A⊗I + I⊗A is used.
    """
    if not A.is_commutative():
        raise ValueError("is_normal needs a commutative coordinate ring")
    F = A.field
    d = A.dim
    inside = A.in_mixed_tensor if both_legs else A.in_right_tensor
    T = A._terms
    S = A._antipode_terms
    for v in I.basis:
        gamma = [F.zero] * (d * d)
        for (a, b, k), c in A.delta2(v).items():
            # c·e_a·S(e_k) ⊗ e_b
            for m, s in S[k]:
                cs = F.mul(c, s)
                for n, t in T[a][m]:
                    pos = n * d + b
                    gamma[pos] = F.add(gamma[pos], F.mul(cs, t))
        if not inside(I, tuple(gamma)):
            return False
    return True


def frobenius_kernel(A, r):
    """Defining ideal of the r-th Frobenius kernel: the ideal generated by
    p^r-th powers of the augmentation ideal."""
    if not A.is_commutative():
        raise ValueError("Frobenius kernels need a commutative coordinate ring")
    q = A.field.p ** r
    aug = A.augmentation_ideal()
    gens = [A.power(v, q) for v in aug.basis]
    gens = [v for v in gens if not vec_is_zero(A.field, v)]
    if not gens:
        ideal = Subspace.zero(A.field, A.dim)
    else:
        ideal = A.ideal_closure(gens)
    ok, witness = is_subgroup_ideal(A, ideal)
    if not ok:
        raise AssertionError("Frobenius kernel ideal failed verification: %r"
                             % (witness,))
    return SubgroupIdeal(A, ideal)


def tensor_product_hopf(A, B):
    """A ⊗ B with componentwise structure (product of group schemes)."""
    if A.field != B.field:
        raise ValueError("tensor product needs a common field")
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
    return HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)
