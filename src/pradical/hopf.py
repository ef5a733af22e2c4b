"""Finite-dimensional (Hopf) algebras by structure constants.

A Hopf algebra is the coordinate ring of a finite group scheme when it is
commutative; closed subgroup schemes are represented by their defining
ideals.  All computations are dense linear algebra in A, A⊗A and A⊗A⊗A.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Subspace, vec_add, vec_scale, vec_is_zero, vec_zero


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

    def __repr__(self):
        return "%s(dim=%d over %r)" % (type(self).__name__, self.dim, self.field)

    def mul(self, x, y):
        F = self.field
        n = self.dim
        out = [F.zero] * n
        for i in range(n):
            if F.is_zero(x[i]):
                continue
            for j in range(n):
                if F.is_zero(y[j]):
                    continue
                c = F.mul(x[i], y[j])
                row = self.mult[i][j]
                for k in range(n):
                    if not F.is_zero(row[k]):
                        out[k] = F.add(out[k], F.mul(c, row[k]))
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

    def check_associative(self):
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for j in range(self.dim):
                ej = self.basis_vector(j)
                ij = self.mul(ei, ej)
                for k in range(self.dim):
                    ek = self.basis_vector(k)
                    if self.mul(ij, ek) != self.mul(ei, self.mul(ej, ek)):
                        return (i, j, k)
        return None

    def check_unit(self):
        for i in range(self.dim):
            ei = self.basis_vector(i)
            if self.mul(self.unit, ei) != ei or self.mul(ei, self.unit) != ei:
                return i
        return None

    # -- ideals ------------------------------------------------------------

    def ideal_closure(self, vectors):
        """Smallest two-sided ideal containing the given elements."""
        cur = Subspace.from_vectors(self.field, self.dim, list(vectors))
        for _ in range(self.dim + 1):
            vecs = list(cur.basis)
            for i in range(self.dim):
                ei = self.basis_vector(i)
                for v in cur.basis:
                    vecs.append(self.mul(ei, v))
                    vecs.append(self.mul(v, ei))
            nxt = Subspace.from_vectors(self.field, self.dim, vecs)
            if nxt == cur:
                return cur
            cur = nxt
        return cur

    def is_ideal(self, S):
        for i in range(self.dim):
            ei = self.basis_vector(i)
            for v in S.basis:
                if not (S.contains_vector(self.mul(ei, v))
                        and S.contains_vector(self.mul(v, ei))):
                    return False
        return True

    # -- tensor square helpers ----------------------------------------------

    def tensor_index(self, a, b):
        return a * self.dim + b

    def tensor_of(self, x, y):
        """x ⊗ y as a d²-vector."""
        F = self.field
        d = self.dim
        out = [F.zero] * (d * d)
        for a in range(d):
            if F.is_zero(x[a]):
                continue
            for b in range(d):
                if not F.is_zero(y[b]):
                    out[a * d + b] = F.mul(x[a], y[b])
        return tuple(out)

    def tensor_mul(self, u, v):
        """Product in A ⊗ A of two d²-vectors."""
        F = self.field
        d = self.dim
        out = [F.zero] * (d * d)
        for idx1 in range(d * d):
            c1 = u[idx1]
            if F.is_zero(c1):
                continue
            a1, b1 = divmod(idx1, d)
            for idx2 in range(d * d):
                c2 = v[idx2]
                if F.is_zero(c2):
                    continue
                a2, b2 = divmod(idx2, d)
                c = F.mul(c1, c2)
                left = self.mult[a1][a2]
                right = self.mult[b1][b2]
                for a in range(d):
                    if F.is_zero(left[a]):
                        continue
                    ca = F.mul(c, left[a])
                    for b in range(d):
                        if not F.is_zero(right[b]):
                            out[a * d + b] = F.add(out[a * d + b],
                                                   F.mul(ca, right[b]))
        return tuple(out)

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

    def delta(self, x):
        F = self.field
        out = vec_zero(F, self.dim * self.dim)
        for i in range(self.dim):
            if not F.is_zero(x[i]):
                out = vec_add(F, out, vec_scale(F, self.comult[i], x[i]))
        return out

    def counit_of(self, x):
        F = self.field
        return F.sum(F.mul(x[i], self.counit[i]) for i in range(self.dim))

    def antipode_of(self, x):
        F = self.field
        out = vec_zero(F, self.dim)
        for i in range(self.dim):
            if not F.is_zero(x[i]):
                out = vec_add(F, out, vec_scale(F, self.antipode[i], x[i]))
        return out

    def delta2(self, x):
        """(Δ ⊗ id)Δ(x) as a d³-vector."""
        F = self.field
        d = self.dim
        out = [F.zero] * (d ** 3)
        dx = self.delta(x)
        for idx in range(d * d):
            c = dx[idx]
            if F.is_zero(c):
                continue
            a, b = divmod(idx, d)
            da = self.comult[a]
            for idx2 in range(d * d):
                if not F.is_zero(da[idx2]):
                    out[idx2 * d + b] = F.add(out[idx2 * d + b],
                                              F.mul(c, da[idx2]))
        return tuple(out)

    def augmentation_ideal(self):
        """ker ε as a subspace of A."""
        from .linalg import nullspace
        return nullspace(self.field, (self.counit,), self.dim)

    # -- axioms -------------------------------------------------------------

    def validate_hopf(self):
        F = self.field
        d = self.dim
        failures = []

        bad = self.check_associative()
        if bad is not None:
            failures.append(("associativity", bad))
        if not failures:
            bad = self.check_unit()
            if bad is not None:
                failures.append(("unit", bad))
        if not failures:
            # coassociativity: (Δ⊗id)Δ = (id⊗Δ)Δ on basis elements
            for i in range(d):
                lhs = self.delta2(self.basis_vector(i))
                rhs = [F.zero] * (d ** 3)
                for idx in range(d * d):
                    c = self.comult[i][idx]
                    if F.is_zero(c):
                        continue
                    a, b = divmod(idx, d)
                    db = self.comult[b]
                    for idx2 in range(d * d):
                        if not F.is_zero(db[idx2]):
                            pos = a * d * d + idx2
                            rhs[pos] = F.add(rhs[pos], F.mul(c, db[idx2]))
                if lhs != tuple(rhs):
                    failures.append(("coassociativity", i))
                    break
        if not failures:
            # counit laws
            for i in range(d):
                left = [F.zero] * d
                right = [F.zero] * d
                for idx in range(d * d):
                    c = self.comult[i][idx]
                    if F.is_zero(c):
                        continue
                    a, b = divmod(idx, d)
                    left[b] = F.add(left[b], F.mul(c, self.counit[a]))
                    right[a] = F.add(right[a], F.mul(c, self.counit[b]))
                ei = self.basis_vector(i)
                if tuple(left) != ei or tuple(right) != ei:
                    failures.append(("counit", i))
                    break
        if not failures:
            # Δ and ε are algebra maps
            if self.delta(self.unit) != self.tensor_of(self.unit, self.unit):
                failures.append(("comult-unit", None))
            if not F.eq(self.counit_of(self.unit), F.one):
                failures.append(("counit-unit", None))
        if not failures:
            for i in range(d):
                for j in range(d):
                    prod = self.mul(self.basis_vector(i), self.basis_vector(j))
                    if self.delta(prod) != self.tensor_mul(self.comult[i],
                                                           self.comult[j]):
                        failures.append(("comult-multiplicative", (i, j)))
                        break
                    lhs = self.counit_of(prod)
                    rhs = F.mul(self.counit[i], self.counit[j])
                    if not F.eq(lhs, rhs):
                        failures.append(("counit-multiplicative", (i, j)))
                        break
                if failures:
                    break
        if not failures:
            # antipode convolution identities
            for i in range(d):
                conv_l = [F.zero] * d
                conv_r = [F.zero] * d
                for idx in range(d * d):
                    c = self.comult[i][idx]
                    if F.is_zero(c):
                        continue
                    a, b = divmod(idx, d)
                    sa = self.antipode[a]
                    sb = self.antipode[b]
                    term_l = self.mul(sa, self.basis_vector(b))
                    term_r = self.mul(self.basis_vector(a), sb)
                    for k in range(d):
                        conv_l[k] = F.add(conv_l[k], F.mul(c, term_l[k]))
                        conv_r[k] = F.add(conv_r[k], F.mul(c, term_r[k]))
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
    for v in I.basis:
        for i in range(A.dim):
            ei = A.basis_vector(i)
            if not I.contains_vector(A.mul(ei, v)):
                return False, {"condition": "ideal", "element": v,
                               "factor": i}
            if not I.contains_vector(A.mul(v, ei)):
                return False, {"condition": "ideal", "element": v,
                               "factor": i}
    for v in I.basis:
        if not F.is_zero(A.counit_of(v)):
            return False, {"condition": "counit", "element": v}
    mixed = A.mixed_tensor_subspace(I)
    for v in I.basis:
        dv = A.delta(v)
        if not mixed.contains_vector(dv):
            return False, {"condition": "comultiplication", "element": v,
                           "escape": mixed.reduce(dv)}
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


def schematic_union(A, ideals, force=False):
    """Intersection ideal of an upward-directed family of subgroups.

    The family must be pairwise comparable unless `force` is set (testing
    hook for the non-directed counterexample).  Returns a SubgroupIdeal.
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
            raise AssertionError("directed union failed the subgroup-ideal "
                                 "check: %r" % (witness,))
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
    target = (A.mixed_tensor_subspace(I) if both_legs
              else A.right_tensor_subspace(I))
    for v in I.basis:
        d2 = A.delta2(v)
        gamma = [F.zero] * (d * d)
        for idx in range(d ** 3):
            c = d2[idx]
            if F.is_zero(c):
                continue
            ab, k = divmod(idx, d)
            a, b = divmod(ab, d)
            prod = A.mul(A.basis_vector(a), A.antipode[k])
            for m in range(d):
                if not F.is_zero(prod[m]):
                    pos = m * d + b
                    gamma[pos] = F.add(gamma[pos], F.mul(c, prod[m]))
        if not target.contains_vector(tuple(gamma)):
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
