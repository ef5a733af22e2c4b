"""Finite-dimensional restricted Lie algebras by structure constants.

An algebra is given by a field descriptor, bracket structure constants
c[i][j] (the coordinate vector of [e_i, e_j]) and the images e_i^[p] of the
basis under the p-operation.  The p-operation on arbitrary elements is the
unique extension by Jacobson's formula.

`brackets` and `ppowers` stay the dense public tables.  The algebra is a
`linalg.StructureConstants` on `brackets`, so `bracket` is the one sparse
structure-constant product that the associative side uses too, and `ad`,
the p-powers of basis vectors and every matrix product are `linalg`
linear combinations of sparse rows.  The spins are worklist closures
(`Subspace.closure`): each vector new to the span is inserted once into a
semi-echelon basis and bracketed and p-powered once, and the spin stops as
soon as it spans g.  `jacobi_failures` is the one Jacobi scan, over the
same sparse terms: `validate` reads it in full, and the survey's grid
enumeration up to the first failure, before any algebra object exists.
Symbolic computation goes by base change: `generic_p_power` runs `p_power`
on g over the polynomial coordinate ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .fields import FieldHom, PolynomialRing, UnsupportedKindError
from .linalg import (StructureConstants, Subspace, descending_chain,
                     lin_comb, mat_pow, nullspace, vec_add, vec_is_zero,
                     vec_terms, vec_zero)


class NotPIdealError(ValueError):
    """Raised when a quotient or series step needs a p-ideal and got none."""


@dataclass
class ValidationReport:
    passed: bool
    failures: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.passed

    def first(self):
        return self.failures[0] if self.failures else None


def jacobi_failures(F, n, terms):
    """The triples i < j < k, in lexicographic order and produced lazily,
    on which [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is
    not zero.  terms[a][b] holds the nonzero (index, value) pairs of
    [e_a, e_b], as `StructureConstants._terms` does, so each double
    bracket is a sum over nonzero structure constants only."""
    add, mul = F.add, F.mul
    for i, j, k in itertools.combinations(range(n), 3):
        s = [F.zero] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in terms[a][b]:
                for l, y in terms[m][c]:
                    s[l] = add(s[l], mul(x, y))
        if not vec_is_zero(F, s):
            yield i, j, k


def _nested_tuples(x, depth):
    """x is a tuple of tuples ... (depth levels) of scalars."""
    if type(x) is not tuple:
        return False
    return depth == 1 or all(_nested_tuples(v, depth - 1) for v in x)


class RLieAlgebra(StructureConstants):

    bracket = StructureConstants.product

    def __init__(self, field, dim, brackets, ppowers, labels=None):
        """brackets: full antisymmetric table c[i][j] -> coordinate tuple;
        ppowers: tuple of coordinate tuples e_i^[p]."""
        # A table that is already nested tuples is kept, not copied, so
        # algebras built from one table (p-power variants) share it.
        self.brackets = brackets if _nested_tuples(brackets, 3) else tuple(
            tuple(tuple(v) for v in row) for row in brackets)
        super().__init__(field, dim, self.brackets)
        self.ppowers = ppowers if _nested_tuples(ppowers, 2) else tuple(
            tuple(v) for v in ppowers)
        self.labels = tuple(labels) if labels else tuple(
            "e%d" % (i + 1) for i in range(dim))
        self._pterms = tuple(vec_terms(field, v) for v in self.ppowers)
        self._ad_basis = None
        self._ad_terms = None
        self._validated = None

    @classmethod
    def _with_ppowers(cls, table, ppowers, pterms):
        """The algebra on the bracket table of `table` with the p-powers
        `ppowers` (nested tuples) and their sparse terms `pterms`, recorded
        as valid: the caller has checked that the table is alternating and
        satisfies Jacobi, and that each p-power solves ad(e_i^[p]) =
        ad(e_i)^p.  It holds the very `brackets`, `_terms`, `_ad_basis` and
        `_ad_terms` objects of `table`, so the p-power variants of one table
        derive them once."""
        g = cls.__new__(cls)
        g.field, g.dim, g.labels = table.field, table.dim, table.labels
        g.brackets, g._terms = table.brackets, table._terms
        g._ad_basis, g._ad_terms = table.ad_basis(), table._ad_rows()
        g.ppowers, g._pterms = ppowers, pterms
        g._validated = ValidationReport(True)
        return g

    @classmethod
    def from_upper(cls, field, dim, upper, ppowers, labels=None):
        """Build the full bracket table from {(i, j): vector} with i < j."""
        zero = vec_zero(field, dim)
        table = [[zero for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in upper.items():
            if not i < j:
                raise ValueError("upper bracket keys need i < j, got (%d,%d)" % (i, j))
            v = tuple(v)
            table[i][j] = v
            table[j][i] = tuple(field.neg(c) for c in v)
        return cls(field, dim, table, ppowers, labels)

    @property
    def p(self):
        return self.field.p

    def __repr__(self):
        return "RLieAlgebra(dim=%d over %r)" % (self.dim, self.field)

    # -- basic structure ----------------------------------------------------

    def ad_basis(self):
        """ad(e_i) matrices: column j of ad(e_i) is [e_i, e_j]."""
        if self._ad_basis is None:
            n = self.dim
            self._ad_basis = tuple(
                tuple(tuple(self.brackets[i][j][k] for j in range(n))
                      for k in range(n))
                for i in range(n))
        return self._ad_basis

    def ad_matrix(self, x):
        """ad(x) = Σ x_i·ad(e_i), each ad(e_i) a sparse row of its n² entries
        (the coefficient c of e_k in [e_i, e_j] at index k·n + j): column j
        is [x, e_j]."""
        F = self.field
        n = self.dim
        flat = lin_comb(F, self._ad_rows(), vec_terms(F, x), n * n)
        return tuple(flat[k * n:(k + 1) * n] for k in range(n))

    def _ad_rows(self):
        """ad(e_i) as the sparse row of its n² entries, for each i."""
        if self._ad_terms is None:
            n = self.dim
            self._ad_terms = tuple(
                tuple((k * n + j, c) for j, terms in enumerate(row)
                      for k, c in terms) for row in self._terms)
        return self._ad_terms

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check alternation, Jacobi and the restrictedness identity."""
        if self._validated is not None:
            return self._validated
        F = self.field
        n = self.dim
        failures = []
        zero = vec_zero(F, n)
        for i in range(n):
            if self.brackets[i][i] != zero:
                failures.append(("alternating", (i, i),
                                 "[%s,%s] != 0" % (self.labels[i], self.labels[i])))
        for i in range(n):
            for j in range(i + 1, n):
                neg = tuple(F.neg(c) for c in self.brackets[j][i])
                if self.brackets[i][j] != neg:
                    failures.append(("antisymmetry", (i, j), "c_ij != -c_ji"))
        if not failures:
            failures = [("jacobi", (i, j, k), "Jacobi fails on (%s,%s,%s)"
                         % (self.labels[i], self.labels[j], self.labels[k]))
                        for i, j, k in jacobi_failures(F, n, self._terms)]
        if not failures:
            ads = self.ad_basis()
            for i in range(n):
                lhs = self.ad_matrix(self.ppowers[i])
                rhs = mat_pow(F, ads[i], self.p)
                if lhs != rhs:
                    failures.append(("restricted", (i,),
                                     "ad(%s^[p]) != ad(%s)^p" %
                                     (self.labels[i], self.labels[i])))
        self._validated = ValidationReport(not failures, failures)
        return self._validated

    def require_valid(self):
        rep = self.validate()
        if not rep:
            raise ValueError("invalid restricted Lie algebra: %r" % (rep.first(),))

    # -- p-operation ---------------------------------------------------------

    def p_power(self, x):
        """(sum x_i e_i)^[p] via Jacobson's expansion, term by term."""
        self.require_valid()
        F = self.field
        n = self.dim
        xs = vec_terms(F, x)
        total = lin_comb(F, self._pterms,
                         [(i, F.pow_int(c, self.p)) for i, c in xs], n)
        acc = [F.zero] * n
        for step, (i, c) in enumerate(xs):
            # (acc + c·e_i)^[p] = acc^[p] + (c·e_i)^[p] + cross terms
            if step:
                term = tuple(c if j == i else F.zero for j in range(n))
                total = vec_add(F, total, self._jacobson_cross(term,
                                                               tuple(acc)))
            acc[i] = c
        return total

    def _jacobson_cross(self, a, b):
        """sum_{i=1}^{p-1} s_i(a, b) with i*s_i = [lambda^(i-1)] ad(la+b)^(p-1)(a).

        w = ad(la+b)^k(a) is kept as its lambda-coefficient vectors
        w_0 .. w_(k-1) over the coefficient ring (the top one, ad(a)^k(a),
        vanishes), and one step is new_d = [b, w_d] + [a, w_(d-1)].  After
        p-1 steps w holds exactly the p-1 coefficients the sum needs; no
        polynomial ring in lambda is built.
        """
        F = self.field
        p = self.p
        w = [self.bracket(b, a)]
        for _ in range(p - 2):
            lower = [self.bracket(b, v) for v in w]
            upper = [self.bracket(a, v) for v in w]
            w = ([lower[0]]
                 + [vec_add(F, lo, up) for lo, up in zip(lower[1:], upper)]
                 + [upper[-1]])
        out = w[0]
        for i in range(2, p):
            inv_i = F.from_int(pow(i, p - 2, p))
            out = tuple(o if F.is_zero(c) else F.add(o, F.mul(inv_i, c))
                        for o, c in zip(out, w[i - 1]))
        return out

    def generic_p_power(self):
        """p-power of the generic element sum x_i e_i, over the coordinate
        ring R = F[x_1, ..., x_n]: g base-changed into R, then `p_power`."""
        names = tuple("x%d" % (i + 1) for i in range(self.dim))
        R = PolynomialRing(self.field, names)
        gR = self.base_change(FieldHom(self.field, R, R.embed,
                                       "%r -> %r" % (self.field, R)))
        return gR.p_power(tuple(R.var(i) for i in range(self.dim))), R

    def is_p_nilpotent(self, x):
        """Some iterated p-power of x is zero; dim iterations suffice."""
        if not self.field.is_field:
            raise UnsupportedKindError("p-nilpotency needs field coefficients")
        v = tuple(x)
        for _ in range(max(self.dim, 1)):
            if vec_is_zero(self.field, v):
                return True
            v = self.p_power(v)
        return vec_is_zero(self.field, v)

    # -- subspaces -----------------------------------------------------------

    def subspace(self, vectors):
        return Subspace.from_vectors(self.field, self.dim, list(vectors))

    def zero_subspace(self):
        return Subspace.zero(self.field, self.dim)

    def full_subspace(self):
        return Subspace.full(self.field, self.dim)

    def bracket_span(self, S, T):
        """Span of [s, t] for s, t running over the bases."""
        vecs = [self.bracket(s, t) for s in S.basis for t in T.basis]
        return self.subspace(vecs)

    def _words(self, S):
        """The [u, v] for u, v in S.basis, then the v^[p], produced
        lazily.  S is a restricted subalgebra exactly when they all lie in
        S (p-powers of a basis suffice once S is a subalgebra, as in
        `spin_subalgebra`), and they span the next term of S's unipotency
        chain."""
        for u in S.basis:
            for v in S.basis:
                yield self.bracket(u, v)
        for v in S.basis:
            yield self.p_power(v)

    def is_restricted_subalgebra(self, S):
        return all(map(S.contains_vector, self._words(S)))

    def is_p_ideal(self, S):
        return self._p_ideal_escape(S) is None

    def _p_ideal_escape(self, S, within=None):
        """How S first fails to be a p-ideal of the subalgebra `within`
        (default g): ("ideal", i) when [u_i, v] leaves S for the basis
        vector u_i of `within` of least index i and some v in S.basis, else
        ("p-closed", None) when some v^[p] does; None when S is a p-ideal
        of `within`."""
        within = within if within is not None else self.full_subspace()
        for i, u in enumerate(within.basis):
            if not all(S.contains_vector(self.bracket(u, v)) for v in S.basis):
                return "ideal", i
        if all(S.contains_vector(self.p_power(v)) for v in S.basis):
            return None
        return "p-closed", None

    def spin_p_ideal(self, S):
        """Smallest p-ideal containing S: the `Subspace.closure` of S under
        v -> [e_i, v] and v -> v^[p], taken of the vectors new to the span.

        Once the span J is an ideal, p-powers of a spanning set suffice: by
        Jacobson's formula (x + y)^[p] - x^[p] - y^[p] is a sum of Lie words
        in x and y, which lie in [g, J] ⊆ J.
        """
        self.require_valid()
        basis = [self.basis_vector(i) for i in range(self.dim)]

        def images(v, _):
            return [self.bracket(e, v) for e in basis] + [self.p_power(v)]

        return self.zero_subspace().closure(S.basis, images)

    def spin_subalgebra(self, S):
        """Smallest restricted subalgebra containing S: the closure of S
        under v -> [v, u] for u among the rows found so far and v -> v^[p],
        taken of the vectors new to the span; p-powers of a spanning set
        suffice as in `spin_p_ideal`, now with the Lie words in [J, J] ⊆ J."""
        self.require_valid()

        def images(v, rows):
            return [self.bracket(v, u) for u in rows] + [self.p_power(v)]

        return self.zero_subspace().closure(S.basis, images)

    # -- characteristic series ------------------------------------------------

    def center(self):
        """{x : [e_i, x] = 0 for all i}; closed under the p-operation."""
        F = self.field
        n = self.dim
        rows = []
        for A in self.ad_basis():
            rows.extend(A)
        if not rows:
            return self.full_subspace()
        return nullspace(F, rows, n)

    def derived_subalgebra(self):
        full = self.full_subspace()
        return self.bracket_span(full, full)

    def characteristic_series(self):
        full = self.full_subspace()
        derived = descending_chain(full, lambda S: self.bracket_span(S, S))
        lower = descending_chain(full, lambda S: self.bracket_span(full, S))
        return {
            "center": self.center(),
            "derived_series": derived,
            "lower_central_series": lower,
            "solvable": derived[-1].dim == 0,
            "nilpotent": lower[-1].dim == 0,
        }

    # -- unipotency ------------------------------------------------------------

    def is_unipotent(self, S=None):
        """Descending chain S, [S,S] + S^[p], ... reaches 0."""
        self.require_valid()
        S = S if S is not None else self.full_subspace()
        if not self.is_restricted_subalgebra(S):
            raise ValueError("is_unipotent needs a restricted subalgebra")
        return descending_chain(
            S, lambda T: self.subspace(self._words(T)))[-1].dim == 0

    def is_abelian(self, S=None):
        S = S if S is not None else self.full_subspace()
        F = self.field
        return all(vec_is_zero(F, self.bracket(u, v))
                   for u in S.basis for v in S.basis)

    def p_power_matrix(self, S=None):
        """Semilinear matrix of the p-operation on an abelian (sub)algebra,
        in the coordinates of S's basis."""
        S = S if S is not None else self.full_subspace()
        if not self.is_abelian(S):
            raise ValueError("p-power matrix needs an abelian (sub)algebra")
        cols = []
        for v in S.basis:
            coords = S.coordinates(self.p_power(v))
            if coords is None:
                raise ValueError("p-operation does not preserve the subspace")
            cols.append(coords)
        return tuple(zip(*cols))

    # -- quotients --------------------------------------------------------------

    def quotient(self, I):
        """Quotient by a p-ideal; returns (algebra, project, section)."""
        self.require_valid()
        escape = self._p_ideal_escape(I)
        if escape is not None:
            kind, i = escape
            raise NotPIdealError("not a p-ideal: " + (
                "[%s, v] escapes the subspace" % self.labels[i]
                if kind == "ideal" else "v^[p] escapes the subspace"))
        comp, project, section = I.quotient_data()
        reps = [self.basis_vector(c) for c in comp]
        table = [[project(self.bracket(x, y)) for y in reps] for x in reps]
        ppow = [project(self.p_power(x)) for x in reps]
        labels = tuple(self.labels[c] + "~" for c in comp)
        q = RLieAlgebra(self.field, len(comp), table, ppow, labels)
        # a quotient of a valid algebra by a p-ideal is valid
        q._validated = ValidationReport(True)
        return q, project, section

    # -- series classification -----------------------------------------------

    def verify_subnormal_series(self, chain):
        """Classify successive quotients of an ascending chain 0 = S_0 ⊆ ... ⊆ g.

        Each step must be a p-ideal of its successor; 1-dimensional quotients
        are 'alpha-type' (p-power zero) or 'mu-form(c)' (p-power scalar c).
        """
        self.require_valid()
        F = self.field
        if not chain or chain[0].dim != 0 or chain[-1].dim != self.dim:
            raise ValueError("chain must ascend from 0 to the whole algebra")
        out = []
        for lo, hi in zip(chain, chain[1:]):
            if not hi.contains(lo):
                raise ValueError("chain does not ascend")
            escape = self._p_ideal_escape(lo, hi)
            if escape is not None:
                raise NotPIdealError("chain step is not %s in its successor"
                                     % ("an ideal" if escape[0] == "ideal"
                                        else "p-closed"))
            d = hi.dim - lo.dim
            if d != 1:
                out.append({"kind": "unclassified", "dim": d})
                continue
            # representative of the quotient line: a basis vector of hi not in lo
            rep = None
            for v in hi.basis:
                if not lo.contains_vector(v):
                    rep = lo.reduce(v)
                    break
            pv = lo.reduce(self.p_power(rep))
            if vec_is_zero(F, pv):
                out.append({"kind": "alpha-type", "dim": 1})
                continue
            # pv must be proportional to rep (quotient is 1-dimensional)
            c = None
            for a, b in zip(pv, rep):
                if not F.is_zero(b):
                    c = F.div(a, b)
                    break
            if c is None or tuple(F.mul(c, b) for b in rep) != pv:
                raise NotPIdealError("p-power escapes the 1-dimensional quotient")
            out.append({"kind": "mu-form", "scalar": c, "dim": 1})
        return out

    # -- base change ------------------------------------------------------------

    def base_change(self, hom):
        """Transport structure constants and p-powers along a FieldHom."""
        if hom.source != self.field:
            raise ValueError("homomorphism source %r does not match %r"
                             % (hom.source, self.field))
        n = self.dim
        table = tuple(tuple(tuple(hom(c) for c in self.brackets[i][j])
                            for j in range(n)) for i in range(n))
        ppow = tuple(tuple(hom(c) for c in v) for v in self.ppowers)
        out = RLieAlgebra(hom.target, n, table, ppow, self.labels)
        # an injective homomorphism keeps every identity and every failure
        out._validated = self.validate()
        out.require_valid()
        return out

    def base_change_subspace(self, hom, S):
        return Subspace.from_vectors(
            hom.target, self.dim, [tuple(hom(c) for c in v) for v in S.basis])


def direct_sum(a, b):
    """Direct sum of restricted Lie algebras over the same field."""
    if a.field != b.field:
        raise ValueError("direct sum needs a common field")
    F = a.field
    n = a.dim + b.dim
    zero, za, zb = vec_zero(F, n), vec_zero(F, a.dim), vec_zero(F, b.dim)

    def embed_a(v):
        return v + zb

    def embed_b(v):
        return za + v

    # a row of a's table, then its zero brackets with b; b's rows likewise
    table = ([tuple(map(embed_a, row)) + (zero,) * b.dim
              for row in a.brackets]
             + [(zero,) * a.dim + tuple(map(embed_b, row))
                for row in b.brackets])
    ppow = [embed_a(v) for v in a.ppowers] + [embed_b(v) for v in b.ppowers]
    return RLieAlgebra(F, n, table, ppow, a.labels + b.labels)
