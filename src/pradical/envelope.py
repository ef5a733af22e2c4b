"""Restricted enveloping algebras and their duals.

u(g) is built on the monomial basis {e^α : 0 ≤ α_i < p} by straightening
words; a p-subalgebra S of g yields a subgroup ideal of the dual of u(g)
as the annihilator of u(S).
"""

from __future__ import annotations

import itertools

from .hopf import HopfAlgebra, SubgroupIdeal
from .linalg import Subspace, vec_terms


class EnvelopeTooLargeError(ValueError):
    def __init__(self, dim, cap):
        super().__init__("enveloping algebra has dimension %d > cap %d"
                         % (dim, cap))
        self.dim = dim
        self.cap = cap


class _Straightener:
    """Rewrites words in the generators of u(g) to the sorted-monomial basis.

    Elements are dicts {exponent-tuple: coefficient}.
    """

    def __init__(self, g):
        self.g = g
        self.F = g.field
        self.p = g.field.p
        self.n = g.dim
        self._memo = {}

    def _add_into(self, acc, mono, coeff):
        F = self.F
        c = F.add(acc.get(mono, F.zero), coeff)
        if F.is_zero(c):
            acc.pop(mono, None)
        else:
            acc[mono] = c

    def elem_times_gen(self, elem, j):
        out = {}
        for mono, c in elem.items():
            for m2, c2 in self.mono_times_gen(mono, j).items():
                self._add_into(out, m2, self.F.mul(c, c2))
        return out

    def mono_times_gen(self, mono, j):
        """e^mono · e_j as a sorted-monomial element."""
        key = (mono, j)
        if key in self._memo:
            return self._memo[key]
        F = self.F
        k = max((i for i in range(self.n) if mono[i] > 0 and i > j),
                default=None)
        if k is None:
            if mono[j] + 1 < self.p:
                out = {tuple(a + 1 if i == j else a
                             for i, a in enumerate(mono)): F.one}
            else:
                # e_j^p acts as the p-power image, which is linear in g
                prefix = tuple(0 if i == j else a for i, a in enumerate(mono))
                out = {}
                for m, c in self.g._pterms[j]:
                    for m2, c2 in self.mono_times_gen(prefix, m).items():
                        self._add_into(out, m2, F.mul(c, c2))
        else:
            # peel the largest out-of-order generator:
            # e^α e_j = e^{α-ε_k} e_j e_k + e^{α-ε_k} [e_k, e_j]
            reduced = tuple(a - 1 if i == k else a for i, a in enumerate(mono))
            out = {}
            moved = self.mono_times_gen(reduced, j)
            for m2, c2 in self.elem_times_gen(moved, k).items():
                self._add_into(out, m2, c2)
            for m, c in self.g._terms[k][j]:
                for m2, c2 in self.mono_times_gen(reduced, m).items():
                    self._add_into(out, m2, F.mul(c, c2))
        self._memo[key] = out
        return out

    def mono_mul(self, a, b):
        """e^a · e^b."""
        elem = {a: self.F.one}
        for j in range(self.n):
            for _ in range(b[j]):
                elem = self.elem_times_gen(elem, j)
        return elem


def _to_vec(F, index, elem):
    """A sorted-monomial element as a coordinate vector over `index`."""
    v = [F.zero] * len(index)
    for m, c in elem.items():
        v[index[m]] = c
    return tuple(v)


def u_env(g, cap=128):
    """The restricted enveloping algebra of g as a Hopf algebra.

    Monomial basis e^α in exponent-lex order; generators are primitive.
    Raises EnvelopeTooLargeError past the dimension cap.
    """
    g.require_valid()
    F = g.field
    p = F.p
    n = g.dim
    d = p ** n
    if d > cap:
        raise EnvelopeTooLargeError(d, cap)
    monos = list(itertools.product(range(p), repeat=n))
    index = {m: i for i, m in enumerate(monos)}
    st = _Straightener(g)
    mult = [[_to_vec(F, index, st.mono_mul(a, b)) for b in monos]
            for a in monos]
    unit = _to_vec(F, index, {monos[0]: F.one})

    # comultiplication: Δ(e^α) = Π_i (e_i⊗1 + 1⊗e_i)^{α_i}
    comult = []
    for a in monos:
        tensor = {(monos[0], monos[0]): F.one}
        for i in range(n):
            for _ in range(a[i]):
                nxt = {}
                for (ma, mb), c in tensor.items():
                    for m2, c2 in st.mono_times_gen(ma, i).items():
                        st._add_into(nxt, (m2, mb), F.mul(c, c2))
                    for m2, c2 in st.mono_times_gen(mb, i).items():
                        st._add_into(nxt, (ma, m2), F.mul(c, c2))
                tensor = nxt
        dv = [F.zero] * (d * d)
        for (ma, mb), c in tensor.items():
            dv[index[ma] * d + index[mb]] = c
        comult.append(tuple(dv))

    counit = tuple(F.one if i == 0 else F.zero for i in range(d))

    # antipode: S(e^α) = (-1)^{|α|} e_n^{α_n} ··· e_1^{α_1}
    minus_one = F.from_int(-1)
    antipode = []
    for a in monos:
        elem = {monos[0]: F.one}
        for j in range(n - 1, -1, -1):
            for _ in range(a[j]):
                elem = st.elem_times_gen(elem, j)
        sign = F.one
        for _ in range(sum(a) % 2):
            sign = F.mul(sign, minus_one)
        antipode.append(_to_vec(F, index,
                                {m: F.mul(sign, c) for m, c in elem.items()}))

    labels = tuple(
        "1" if sum(a) == 0 else
        "*".join("%s%s" % (g.labels[i], "" if a[i] == 1 else "^%d" % a[i])
                 for i in range(n) if a[i] > 0)
        for a in monos)
    H = HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)
    H._monomials = monos
    H._monomial_index = index
    return H


def dual_hopf(H):
    """The dual Hopf algebra, by transposing all structure maps."""
    F = H.field
    d = H.dim
    mult = [[tuple(H.comult[k][a * d + b] for k in range(d))
             for b in range(d)] for a in range(d)]
    unit = tuple(H.counit)
    comult = [tuple(H.mult[a][b][k] for a in range(d) for b in range(d))
              for k in range(d)]
    counit = tuple(H.unit)
    antipode = [tuple(H.antipode[k][i] for k in range(d)) for i in range(d)]
    labels = tuple("%s'" % lb for lb in H.labels)
    return HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)


def envelope_subalgebra_span(g, S, H):
    """The span of u(S) inside H = u(g), as a subspace of H.

    S must be a p-subalgebra; `subgroup_ideal_from_p_subalgebra` checks it.
    Then u(S) embeds in u(g) with the restricted PBW basis of ordered
    monomials s_1^a_1 ⋯ s_k^a_k, 0 ≤ a_i < p, over the basis s_1, ..., s_k
    of S.  They are built by right-multiplying the monomials found so far
    by each s_i in turn: p^dim S products, not every word in the s_i.
    """
    F = g.field
    st = _Straightener(g)
    monos = [{tuple([0] * g.dim): F.one}]
    for s in S.basis:
        for elem in list(monos):
            for _ in range(F.p - 1):
                prod = {}
                for j, c in vec_terms(F, s):
                    for m2, c2 in st.elem_times_gen(elem, j).items():
                        st._add_into(prod, m2, F.mul(c, c2))
                elem = prod
                monos.append(elem)
    return Subspace.from_vectors(
        F, H.dim, [_to_vec(F, H._monomial_index, m) for m in monos])


def subgroup_ideal_from_p_subalgebra(g, S, cap=128):
    """The defining ideal, in the coordinate ring dual to u(g), of the
    height-one subgroup corresponding to a p-subalgebra S ≤ g.

    Returns (dual Hopf algebra, SubgroupIdeal): the ideal is the annihilator
    of u(S) ⊆ u(g).
    """
    if not g.is_restricted_subalgebra(S):
        raise ValueError("S is not a p-subalgebra")
    H = u_env(g, cap=cap)
    A = dual_hopf(H)
    span = envelope_subalgebra_span(g, S, H)
    ann = span.annihilator()
    return A, SubgroupIdeal(A, ann)
