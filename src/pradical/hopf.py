"""Finite-dimensional (Hopf) algebras by structure constants.

A Hopf algebra is the coordinate ring of a finite group scheme when it is
commutative; closed subgroup schemes are represented by their defining
ideals.

Elements of A are coordinate tuples and elements of A⊗A are d²-tuples, with
e_a⊗e_b at index a·d + b, as `linalg.kron` lays them out.  The tables are
stored only as their nonzero (k, c) terms, in increasing k: the product
e_i·e_j (`_terms`, with its columns `_cols`), Δ(e_i) as flat a·d + b terms
(`_coflat`) and as (a, b, c) triples c·e_a⊗e_b (`_coterms`), and S(e_i)
(`_antipode_terms`).  The constructors take these tables and keep them as
they are; no dense table is stored or built, and every producer (`u_env`,
`dual_hopf`, `tensor_product_hopf`, the gallery and `textio.parse_hopf`)
writes terms.  `_cols` and `_coterms` are built on first read, so a u(g)
that only feeds `envelope.dual_hopf` never builds them.  The algebra is a
`linalg.StructureConstants` on `_terms`, so `mul` is the one sparse
structure-constant product that the Lie side uses too.  Δ and S act as
`linalg` linear combinations of their sparse rows, e_i·y and x·e_j as
combinations of a row or a column of the table, and a product in A⊗A is
`linalg.kron_product` over the Kronecker square of the table.  Membership
in A⊗I and in A⊗I + I⊗A goes through the quotient map π: A → A/I, so no
subspace of the d²-space is built.
`validate_hopf` checks associativity, coassociativity, the counit laws and
the multiplicativity of Δ and ε on a few algebra generators, and reruns the
full basis scan only when one of those checks fails.  Its checks do work
only where a product of basis vectors is nonzero: a term whose product is
zero adds nothing to either side of its identity, so skipping it changes
no pass, no failure and no first failure named (`_bialgebra_failures`
says which terms are skipped).  In the same way
`ideal_generators` closes greedy generators of I under multiplication by
the algebra generators, which also decides whether I is an ideal, and
`is_subgroup_ideal` and `is_normal` test their maps on those generators
only; a failure reruns the scan over the basis of I, so the witnesses are
those of the full scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

from .fields import power
from .lie import ValidationReport
from .linalg import (StructureConstants, Subspace, descending_chain, kron,
                     kron_product, lin_comb, nullspace, sc_accumulate,
                     vec_is_zero, vec_scale, vec_terms)


class SCAlgebra(StructureConstants):
    """Associative unital algebra by structure constants.

    `terms[i][j]` is e_i·e_j as its nonzero (k, c) terms in increasing k
    (`linalg.vec_terms` of its coordinates), tuples throughout, and `unit`
    the coordinates of 1."""

    mul = StructureConstants.product

    def __init__(self, field, dim, terms, unit, labels=None):
        self.field = field
        self.dim = dim
        self._terms = terms
        self.unit = tuple(unit)
        self.labels = tuple(labels) if labels else tuple(
            "b%d" % i for i in range(dim))
        self._generators = None
        self._last_ideal_generators = (None, None)

    @cached_property
    def _cols(self):
        """The table by columns: e_i·y = Σ y_j·(e_i·e_j) combines row i of
        the table and x·e_j = Σ x_i·(e_i·e_j) column j.  Built on first
        read, so an algebra that only feeds `dual_hopf` never builds it."""
        return tuple(zip(*self._terms))

    def __repr__(self):
        return "%s(dim=%d over %r)" % (type(self).__name__, self.dim, self.field)

    def power(self, x, e):
        """x^e by square-and-multiply (`fields.power`)."""
        return power(self.mul, x, e, self.unit)

    def is_commutative(self):
        T = self._terms
        return all(T[i][j] == T[j][i]
                   for i in range(self.dim) for j in range(i))

    def check_associative(self, right=None):
        """The first (i, j, k) with (e_i·e_j)·e_k ≠ e_i·(e_j·e_k), k taken
        from `right` (default: every basis index); None if there is none."""
        F, d, T = self.field, self.dim, self._terms
        add, mul, neg, is_zero = F.add, F.mul, F.neg, F.is_zero
        right = range(d) if right is None else right
        # with e_i·e_j = 0 only the k with e_j·e_k ≠ 0 can fail: when both
        # products are zero, so are both sides
        partners = [[k for k in right if row[k]] for row in T]
        for i, Ti in enumerate(T):
            for j, ij in enumerate(Ti):
                Tj = T[j]
                for k in right if ij else partners[j]:
                    # (e_i·e_j)·e_k − e_i·(e_j·e_k) at the entries it reaches
                    acc = {}
                    for m, c in ij:
                        for n, t in T[m][k]:
                            v = mul(c, t)
                            acc[n] = add(acc[n], v) if n in acc else v
                    for m, c in Tj[k]:
                        c = neg(c)
                        for n, t in Ti[m]:
                            v = mul(c, t)
                            acc[n] = add(acc[n], v) if n in acc else v
                    if not all(map(is_zero, acc.values())):
                        return (i, j, k)
        return None

    def check_unit(self):
        F, d = self.field, self.dim
        us = vec_terms(F, self.unit)
        for i in range(d):
            ei = self.basis_vector(i)
            if (lin_comb(F, self._cols[i], us, d) != ei
                    or lin_comb(F, self._terms[i], us, d) != ei):
                return i
        return None

    def algebra_generators(self):
        """Greedy basis generators, as indices: e_i joins when it is not in
        the unital subalgebra spanned by the earlier ones.  That span is
        closed by right-multiplying by the generators.  Found once per
        algebra: the tables do not change."""
        if self._generators is not None:
            return self._generators
        F, d, C = self.field, self.dim, self._cols
        gens = []
        span = Subspace.from_vectors(F, d, [self.unit])

        def images(v, _):
            vs = vec_terms(F, v)
            return [lin_comb(F, C[g], vs, d) for g in gens]

        for i in range(d):
            if span.dim == d:
                break
            ei = self.basis_vector(i)
            if span.contains_vector(ei):
                continue
            gens.append(i)
            # the old span is closed under the old generators
            span = span.closure([ei] + [lin_comb(F, C[i], vec_terms(F, v), d)
                                        for v in span.basis], images)
        self._generators = tuple(gens)
        return self._generators

    # -- ideals ------------------------------------------------------------

    def ideal_closure(self, vectors):
        """Smallest two-sided ideal containing the given elements."""
        F, d = self.field, self.dim

        def images(v, _):
            vs = vec_terms(F, v)
            return ([lin_comb(F, row, vs, d) for row in self._terms]
                    + [lin_comb(F, col, vs, d) for col in self._cols])

        return Subspace.zero(F, d).closure(vectors, images)

    def ideal_generators(self, I):
        """Greedy ideal generators of I, as vectors: v ∈ I.basis joins when
        it is not in the two-sided ideal spanned by the earlier ones.  That
        ideal is closed under e_g·x and x·e_g for the algebra generators
        e_g, which by associativity makes it closed under all of A.  None
        when I is not an ideal, that is when the generators span more.  The
        last answer is kept: a subgroup test and a normality test of one
        ideal ask twice."""
        last, answer = self._last_ideal_generators
        if I == last:
            return answer
        F, d, T, C = self.field, self.dim, self._terms, self._cols
        alg = self.algebra_generators()

        def images(v, _):
            vs = vec_terms(F, v)
            return ([lin_comb(F, T[g], vs, d) for g in alg]
                    + [lin_comb(F, C[g], vs, d) for g in alg])

        gens = []
        span = Subspace.zero(F, d)
        for v in I.basis:
            if span.dim > I.dim:
                break
            if span.contains_vector(v):
                continue
            gens.append(v)
            span = span.closure([v], images)
        answer = tuple(gens) if span.dim == I.dim else None
        self._last_ideal_generators = (I, answer)
        return answer

    def _ideal_escape(self, S):
        """The first (v, i), v in S.basis, with e_i·v or v·e_i outside S;
        None when S is a two-sided ideal."""
        F, d, T, C = self.field, self.dim, self._terms, self._cols
        for v in S.basis:
            vs = vec_terms(F, v)
            for i in range(d):
                if not (S.contains_vector(lin_comb(F, T[i], vs, d))
                        and S.contains_vector(lin_comb(F, C[i], vs, d))):
                    return v, i
        return None

    # -- tensor square helpers ----------------------------------------------

    def _tensor_terms(self, u):
        """A d²-vector as its nonzero (a, b, c) triples, c·e_a⊗e_b."""
        d = self.dim
        return tuple(divmod(idx, d) + (c,)
                     for idx, c in vec_terms(self.field, u))

    def tensor_mul(self, u, v):
        """Product in A ⊗ A of two d²-vectors."""
        return kron_product(self.field, self._terms, self.dim,
                            self._tensor_terms(u), self._tensor_terms(v))

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
        basis = [self.basis_vector(i) for i in range(self.dim)]
        vecs = [w for v in I.basis for e in basis
                for w in (kron(F, e, v), kron(F, v, e))]
        return Subspace.from_vectors(F, self.dim ** 2, vecs)

    def right_tensor_subspace(self, I):
        """A ⊗ I inside the tensor square."""
        F = self.field
        vecs = [kron(F, self.basis_vector(i), v)
                for v in I.basis for i in range(self.dim)]
        return Subspace.from_vectors(F, self.dim ** 2, vecs)


class HopfAlgebra(SCAlgebra):
    """A Hopf algebra by the sparse terms of its structure maps.

    `terms` and `unit` are those of `SCAlgebra`.  `coflat[i]` is Δ(e_i) as
    its nonzero (a·d + b, c) terms, c·e_a⊗e_b, in increasing a·d + b;
    `counit` is the d scalars ε(e_i); `antipode_terms[i]` is S(e_i) as its
    nonzero (k, c) terms in increasing k."""

    def __init__(self, field, dim, terms, unit, coflat, counit,
                 antipode_terms, labels=None):
        super().__init__(field, dim, terms, unit, labels)
        self._coflat = coflat
        self.counit = tuple(counit)
        self._antipode_terms = antipode_terms

    @cached_property
    def _coterms(self):
        """Δ(e_i) as (a, b, c) triples c·e_a⊗e_b, built on first read."""
        d = self.dim
        return tuple(tuple(divmod(k, d) + (c,) for k, c in t)
                     for t in self._coflat)

    def delta(self, x):
        F = self.field
        return lin_comb(F, self._coflat, vec_terms(F, x), self.dim ** 2)

    def counit_of(self, x):
        F = self.field
        return F.sum(F.mul(x[i], self.counit[i]) for i in range(self.dim))

    def antipode_of(self, x):
        F = self.field
        return lin_comb(F, self._antipode_terms, vec_terms(F, x), self.dim)

    def delta2(self, x):
        """(Δ ⊗ id)Δ(x) as {(a, b, c): coefficient} for e_a⊗e_b⊗e_c,
        nonzero entries only."""
        F = self.field
        acc = {}
        for a, b, c in self._tensor_terms(self.delta(x)):
            for x1, x2, c2 in self._coterms[a]:
                key = (x1, x2, b)
                cc = F.mul(c, c2)
                acc[key] = F.add(acc[key], cc) if key in acc else cc
        return {key: c for key, c in acc.items() if not F.is_zero(c)}

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

        The checks keep the scan order of the dense loops but skip what is
        zero on both sides.  Associativity skips (i, j, k) when
        e_i·e_j = 0 and e_j·e_k = 0: then (e_i·e_j)·e_k and e_i·(e_j·e_k)
        are both 0; otherwise it sums their difference over the terms of
        the two products.  Multiplicativity of Δ expands
        Δ(e_i)·Δ(e_j) = Σ c1·c2·(e_a1·e_a2)⊗(e_b1·e_b2) over the terms
        c1·e_a1⊗e_b1 of Δ(e_i) and c2·e_a2⊗e_b2 of Δ(e_j); a term with
        e_a1·e_a2 = 0 or e_b1·e_b2 = 0 is 0, so for each first leg a1 only
        the terms of Δ(e_j) with e_a1·e_a2 ≠ 0 are read.  The difference
        with Δ(e_i·e_j) is summed in one dict over its a·d + b indices, so
        only the entries that some term reaches are built and tested; so is
        the difference of the two coassociativity legs, keyed by
        (x·d + y)·d + z for e_x⊗e_y⊗e_z.
        """
        F = self.field
        d = self.dim
        bad = self.check_associative(gens)
        if bad is not None:
            return [("associativity", bad)]
        bad = self.check_unit()
        if bad is not None:
            return [("unit", bad)]
        add, mul, neg, is_zero = F.add, F.mul, F.neg, F.is_zero
        co, coterms = self._coflat, self._coterms
        for i in gens:
            # (Δ⊗id)Δ(e_i) − (id⊗Δ)Δ(e_i), e_x⊗e_y⊗e_z at (x·d + y)·d + z:
            # over the terms c·e_a⊗e_b of Δ(e_i), with xy the flat index of
            # a term of Δ, Δ(e_a)⊗e_b is at xy·d + b and e_a⊗Δ(e_b) at
            # a·d² + xy
            acc = {}
            for a, b, c in coterms[i]:
                for xy, c2 in co[a]:
                    k = xy * d + b
                    v = mul(c, c2)
                    acc[k] = add(acc[k], v) if k in acc else v
                c = neg(c)
                base = a * d * d
                for xy, c2 in co[b]:
                    k = base + xy
                    v = mul(c, c2)
                    acc[k] = add(acc[k], v) if k in acc else v
            if not all(map(is_zero, acc.values())):
                return [("coassociativity", i)]
        for i in gens:
            left = [F.zero] * d
            right = [F.zero] * d
            for a, b, c in coterms[i]:
                left[b] = F.add(left[b], F.mul(c, self.counit[a]))
                right[a] = F.add(right[a], F.mul(c, self.counit[b]))
            ei = self.basis_vector(i)
            if tuple(left) != ei or tuple(right) != ei:
                return [("counit", i)]
        failures = []
        if self.delta(self.unit) != kron(F, self.unit, self.unit):
            failures.append(("comult-unit", None))
        if not F.eq(self.counit_of(self.unit), F.one):
            failures.append(("counit-unit", None))
        if failures:
            return failures
        T, eps = self._terms, self.counit
        # per generator j and first leg a1, the terms c2·e_a2⊗e_b2 of
        # Δ(e_j) with e_a1·e_a2 ≠ 0, as b2 and the terms of c2·e_a1·e_a2
        partners = {j: [[(b2, tuple((a, mul(c2, x)) for a, x in T[a1][a2]))
                         for a2, b2, c2 in coterms[j] if T[a1][a2]]
                        for a1 in range(d)] for j in gens}
        for i, Ti in enumerate(T):
            for j in gens:
                part = partners[j]
                # Δ(e_i)·Δ(e_j) − Δ(e_i·e_j) at its a·d + b indices
                acc = {}
                for a1, b1, c1 in coterms[i]:
                    row = T[b1]
                    for b2, left in part[a1]:
                        right = row[b2]
                        if right:
                            for a, x in left:
                                cx = mul(c1, x)
                                base = a * d
                                for b, y in right:
                                    k = base + b
                                    v = mul(cx, y)
                                    acc[k] = add(acc[k], v) if k in acc else v
                eps_ij = F.zero                 # ε(e_i·e_j)
                for k, c in Ti[j]:
                    eps_ij = add(eps_ij, mul(c, eps[k]))
                    c = neg(c)
                    for ab, t in co[k]:
                        v = mul(c, t)
                        acc[ab] = add(acc[ab], v) if ab in acc else v
                if not all(map(is_zero, acc.values())):
                    return [("comult-multiplicative", (i, j))]
                if not F.eq(eps_ij, mul(eps[i], eps[j])):
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
            # a_(1)·S(a_(2)) both equal ε(a)·1; only the nonzero products
            # of a term of S with a leg of Δ(e_i) are read
            S = self._antipode_terms
            add, mul = F.add, F.mul
            for i in range(d):
                conv_l = [F.zero] * d
                conv_r = [F.zero] * d
                for a, b, c in self._coterms[i]:
                    for m, s in S[a]:
                        prod = T[m][b]
                        if prod:
                            sc = mul(s, c)
                            for k, t in prod:
                                conv_l[k] = add(conv_l[k], mul(sc, t))
                    row = T[a]
                    for m, s in S[b]:
                        prod = row[m]
                        if prod:
                            cs = mul(c, s)
                            for k, t in prod:
                                conv_r[k] = add(conv_r[k], mul(cs, t))
                target = vec_scale(F, self.unit, self.counit[i])
                if tuple(conv_l) != target or tuple(conv_r) != target:
                    failures.append(("antipode-convolution", i))
                    break
        return ValidationReport(not failures, failures)


@dataclass
class SubgroupIdeal:
    algebra: HopfAlgebra
    ideal: Subspace

    @property
    def subgroup_dim(self):
        return self.algebra.dim - self.ideal.dim


def _coideal_failure(A, I, elements):
    """The first failed condition of ε(v) = 0, Δ(v) ∈ A⊗I + I⊗A and
    S(v) ∈ I, each tried over every v in `elements`, as (condition, v);
    None when all hold."""
    F = A.field
    for v in elements:
        if not F.is_zero(A.counit_of(v)):
            return "counit", v
    for v in elements:
        if not A.in_mixed_tensor(I, A.delta(v)):
            return "comultiplication", v
    for v in elements:
        if not I.contains_vector(A.antipode_of(v)):
            return "antipode", v
    return None


def is_subgroup_ideal(A, I):
    """Check the four Hopf-ideal conditions; returns (ok, witness).

    For a Hopf algebra A (one that passes validate_hopf) the conditions
    need only generators: I is an ideal when `ideal_generators` spans just
    I, and then ε and Δ, algebra maps, and S, an anti-map, take I where
    they take its ideal generators, as A⊗I + I⊗A is an ideal of A⊗A.  Any
    failure reruns the scan over the whole basis of I, which names the
    witness.
    """
    gens = A.ideal_generators(I)
    if gens is not None and _coideal_failure(A, I, gens) is None:
        return True, None
    bad = A._ideal_escape(I)
    if bad is not None:
        v, i = bad
        return False, {"condition": "ideal", "element": v, "factor": i}
    # a generator that fails is a basis vector of I, so this scan fails too
    condition, v = _coideal_failure(A, I, I.basis)
    witness = {"condition": condition, "element": v}
    if condition == "comultiplication":
        witness["escape"] = A.mixed_tensor_subspace(I).reduce(A.delta(v))
    return False, witness


def tensor_intersection_identity(A, ideals):
    """Compare A⊗I + I⊗A (I the intersection) with the intersection of the
    per-ideal mixed tensor subspaces; equality is guaranteed for finite
    downward-directed families."""
    if not ideals:
        raise ValueError("need at least one ideal")
    lhs = A.mixed_tensor_subspace(reduce(Subspace.intersect, ideals))
    rhs = reduce(Subspace.intersect, map(A.mixed_tensor_subspace, ideals))
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
    A pairwise comparable finite family is a chain, so its intersection is
    its smallest member.  Returns a SubgroupIdeal.
    """
    if not ideals:
        raise ValueError("need at least one subgroup ideal")
    if not force:
        for i in range(len(ideals)):
            for j in range(i + 1, len(ideals)):
                if not (ideals[i].contains(ideals[j])
                        or ideals[j].contains(ideals[i])):
                    raise NonDirectedFamilyError((i, j))
    inter = reduce(Subspace.intersect, ideals)
    ok, witness = is_subgroup_ideal(A, inter)
    if not (force or ok):
        raise NotSubgroupIdealError(witness)
    return SubgroupIdeal(A, inter), ok, witness


def is_normal(A, I):
    """Stability of I under the conjugation co-action
    γ(a) = a_(1)·S(a_(3)) ⊗ a_(2) (first leg conjugates).

    Checks γ(I) ⊆ A⊗I, the co-module condition on the subgroup leg.
    A commutative Hopf algebra makes γ an algebra map, and for an ideal I
    A⊗I is an ideal of A⊗A, so γ is tested on `ideal_generators` only;
    when I is not an ideal every basis vector of I is tested.
    """
    if not A.is_commutative():
        raise ValueError("is_normal needs a commutative coordinate ring")
    F = A.field
    T = A._terms
    S = A._antipode_terms
    gens = A.ideal_generators(I)
    for v in I.basis if gens is None else gens:
        # column b of γ(v): Σ c·e_a·S(e_k) over the terms c·e_a⊗e_b⊗e_k of
        # (Δ⊗id)Δ(v)
        cols = [[F.zero] * A.dim for _ in range(A.dim)]
        for (a, b, k), c in A.delta2(v).items():
            sc_accumulate(F, cols[b], T, ((a, c),), S[k])
        if not A.in_right_tensor(I, tuple(itertools.chain(*zip(*cols)))):
            return False
    return True


def is_unipotent_subgroup(H, span):
    """Whether the height-one subgroup whose distribution algebra is `span`
    is unipotent.  H is u(g) and `span` a unital subalgebra of it, u(S)
    for a p-subalgebra S (`envelope.envelope_subalgebra_span`).  A finite
    group scheme is unipotent exactly when its distribution algebra is
    local, that is when the augmentation ideal J = span ∩ ker ε is
    nilpotent under H's product.  J² ⊆ J, so J ⊇ J² ⊇ J³ ⊇ ... falls until
    it reaches 0 or repeats; no Lie-side p-power is used."""
    J = span.intersect(H.augmentation_ideal())

    def times_J(P):
        return Subspace.from_vectors(H.field, H.dim, [H.mul(x, y)
                                                      for x in P.basis
                                                      for y in J.basis])

    return descending_chain(J, times_J)[-1].dim == 0


def frobenius_kernel(A, r):
    """Defining ideal of the r-th Frobenius kernel: the ideal I_r generated
    by p^r-th powers of the augmentation ideal.

    I_0 = ker ε and I_{k+1} = A·F(I_k), the ideal generated by the p-th
    powers of a basis of I_k, as the Frobenius F is additive and
    semilinear.  So the chain is constant from the first k with
    I_{k+1} = I_k, which comes within dim A steps, whatever r is."""
    if r < 0:
        raise ValueError("Frobenius kernel exponent r=%d is negative" % r)
    if not A.is_commutative():
        raise ValueError("Frobenius kernels need a commutative coordinate ring")
    F = A.field
    ideal = A.augmentation_ideal()
    for _ in range(r):
        powers = [A.power(v, F.p) for v in ideal.basis]
        nxt = A.ideal_closure([v for v in powers if not vec_is_zero(F, v)])
        if nxt == ideal:
            break
        ideal = nxt
    ok, witness = is_subgroup_ideal(A, ideal)
    if not ok:
        raise AssertionError("Frobenius kernel ideal failed verification: %r"
                             % (witness,))
    return SubgroupIdeal(A, ideal)


def tensor_product_hopf(A, B):
    """A ⊗ B with componentwise structure (product of group schemes): every
    structure map is the Kronecker product of the factors' maps, with
    e_a⊗e_b at index a·dim B + b.  The maps are built on the factors'
    terms: x·dim B + y runs in increasing order over sorted term lists, and
    no product of nonzero scalars is zero, so the product and antipode
    terms come out as they are stored."""
    if A.field != B.field:
        raise ValueError("tensor product needs a common field")
    F = A.field
    mul = F.mul
    da, db = A.dim, B.dim
    d = da * db

    def kron_terms(xs, ys):
        return tuple((x * db + y, mul(c, t)) for x, c in xs for y, t in ys)

    def comult(a, b):
        # Δ(e_a⊗e_b) = Σ c·t·(e_x1⊗e_y1)⊗(e_x2⊗e_y2) over the terms
        # c·e_x1⊗e_x2 of Δ(e_a) and t·e_y1⊗e_y2 of Δ(e_b); the indices are
        # distinct, so the sort never compares scalars
        return tuple(sorted(((x1 * db + y1) * d + x2 * db + y2, mul(c, t))
                            for x1, x2, c in A._coterms[a]
                            for y1, y2, t in B._coterms[b]))

    pairs = [(a, b) for a in range(da) for b in range(db)]
    terms = tuple(tuple(kron_terms(A._terms[a1][a2], B._terms[b1][b2])
                        for a2, b2 in pairs) for a1, b1 in pairs)
    labels = tuple("%s*%s" % (la, lb) for la in A.labels for lb in B.labels)
    return HopfAlgebra(F, d, terms, kron(F, A.unit, B.unit),
                       tuple(comult(a, b) for a, b in pairs),
                       kron(F, A.counit, B.counit),
                       tuple(kron_terms(A._antipode_terms[a],
                                        B._antipode_terms[b])
                             for a, b in pairs), labels)
