"""Restricted enveloping algebras and their duals.

u(g) is built on the monomial basis {e^α : 0 ≤ α_i < p} by straightening
words.  Its tables follow the PBW recursion: each entry of the product, Δ
and S takes one straightening step, a right multiplication by a generator,
from the entry it extends (`u_env`).  A monomial is its basis index
idx(α) = Σ α_i·p^(n−1−i), the exponent-lex order of u(g)'s basis, and a
straightening step is integer arithmetic on it (`_Straightener`): that
halves the time of `u_env` against exponent-tuple keys (0.186 → 0.075 s
over the benchmark's hopf algebras; figures in `u_env`).  The
straightener's elements go into the Hopf algebra as their index-sorted
(k, c) terms, and the dual transposes those terms (`dual_hopf`), so no
dense table is built on the way.  A p-subalgebra S of g yields a subgroup
ideal of the dual of u(g) as the annihilator of u(S), the closure of 1
under right multiplication by S's basis in u(g)
(`envelope_subalgebra_span`).
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

    A monomial e^α is its index m = Σ α_i·p^(n−1−i) in exponent-lex order,
    which is u(g)'s basis order; elements are dicts {index: coefficient}.
    With `stride[i]` = p^(n−1−i), the exponents `digits[m]` of each index
    and the last nonzero position `last[m]` of each (−1 at the unit):
    e^α·e_j is the index m + stride[j] when last[m] ≤ j and α_j < p − 1;
    when α_j = p − 1 it is e^β·e_j^p on the prefix β = m − (p−1)·stride[j];
    and when last[m] > j the generator peeled is k = last[m].  The memo is
    one list per generator, `_memo[j][m]`.
    """

    def __init__(self, g):
        self.g = g
        self.F = g.field
        p, n = g.field.p, g.dim
        self.d = p ** n
        self.stride = [p ** (n - 1 - i) for i in range(n)]
        self.digits = list(itertools.product(range(p), repeat=n))
        self.last = [max((i for i, a in enumerate(alpha) if a), default=-1)
                     for alpha in self.digits]
        self._memo = [[None] * self.d for _ in range(n)]

    def _add_into(self, acc, elem, c):
        """acc += c·elem, dropping the terms that cancel."""
        F = self.F
        if c != F.one:
            elem = {m: F.mul(c, x) for m, x in elem.items()}
        if not acc:
            acc.update(elem)
            return
        for m, x in elem.items():
            old = acc.get(m)
            if old is None:
                acc[m] = x
            else:
                x = F.add(old, x)
                if x == F.zero:
                    del acc[m]
                else:
                    acc[m] = x

    def elem_times_gen(self, elem, j):
        memo = self._memo[j]
        out = {}
        for m, c in elem.items():
            prod = memo[m]
            if prod is None:
                prod = self.mono_times_gen(m, j)
            self._add_into(out, prod, c)
        return out

    def mono_times_gen(self, m, j):
        """e^m · e_j as a sorted-monomial element."""
        out = self._memo[j][m]
        if out is not None:
            return out
        F = self.F
        k = self.last[m]
        if k > j:
            # peel the largest out-of-order generator:
            # e^α e_j = e^{α-ε_k} e_j e_k + e^{α-ε_k} [e_k, e_j]
            reduced = m - self.stride[k]
            out = self.elem_times_gen(self.mono_times_gen(reduced, j), k)
            for t, c in self.g._terms[k][j]:
                self._add_into(out, self.mono_times_gen(reduced, t), c)
        elif self.digits[m][j] + 1 < F.p:
            out = {m + self.stride[j]: F.one}
        else:
            # e_j^p acts as the p-power image, which is linear in g
            prefix = m - (F.p - 1) * self.stride[j]
            out = {}
            for t, c in self.g._pterms[j]:
                self._add_into(out, self.mono_times_gen(prefix, t), c)
        self._memo[j][m] = out
        return out

    def tensor_times_gen(self, tensor, j):
        """tensor · (e_j⊗1 + 1⊗e_j) for a tensor {a·d + b: coefficient}."""
        d = self.d
        out = {}
        for ab, c in tensor.items():
            a, b = divmod(ab, d)
            self._add_into(out, {m * d + b: x for m, x in
                                 self.mono_times_gen(a, j).items()}, c)
            self._add_into(out, {a * d + m: x for m, x in
                                 self.mono_times_gen(b, j).items()}, c)
        return out


def u_env(g, cap=128):
    """The restricted enveloping algebra of g as a Hopf algebra.

    Monomial basis e^α in exponent-lex order; generators are primitive.
    Raises EnvelopeTooLargeError past the dimension cap.

    Each table entry takes one straightening step from the entry it extends:
    with j the last index of b and i the first,

        e^a·e^b = (e^a·e^{b−ε_j})·e_j,
        Δ(e^b)  = Δ(e^{b−ε_j})·(e_j⊗1 + 1⊗e_j),
        S(e^b)  = −S(e^{b−ε_i})·e_i,

    so the tables cost d(d−1) + 2(d−1) steps for d = p^dim g.  Monomials are
    their indices Σ α_i·p^(n−1−i) (`_Straightener`), which is the basis
    order, so e^{b−ε_j} is b − p^(n−1−j) and each straightened element goes
    into the tables as its sorted (k, c) terms, with Δ as flat a·d + b
    terms, without a re-indexing pass or a dense table.

    Seconds of u_env, exponent tuples → integer indices as monomial keys,
    median of seven alternating process runs (each the median of five
    calls) on a shared 2-vCPU Xeon VM under CPython 3.11: torus 3^4
    (d = 81) 0.032 → 0.014, torus 5^3 (d = 125) 0.075 → 0.038, torus 2^7
    (d = 128) 0.081 → 0.037, paper-G at p = 5 over GF(5)(t) (d = 125)
    0.216 → 0.144, and all 269 algebras of the benchmark's hopf workload at
    seed 7 (d = 8 to 32) 0.186 → 0.075.
    """
    g.require_valid()
    F = g.field
    d = F.p ** g.dim
    if d > cap:
        raise EnvelopeTooLargeError(d, cap)
    st = _Straightener(g)

    def terms(elems):
        # each element's sorted (k, c) terms; indices are distinct, so the
        # sort never compares scalars
        return tuple(map(tuple, map(sorted, map(dict.items, elems))))

    steps = [(b - st.stride[j], j) for b, j in enumerate(st.last) if b]
    mult = []
    for a in range(d):
        row = [{a: F.one}]
        for k, j in steps:
            row.append(st.elem_times_gen(row[k], j))
        mult.append(terms(row))

    tensors = [{0: F.one}]
    for k, j in steps:
        tensors.append(st.tensor_times_gen(tensors[k], j))

    counit = tuple(F.one if i == 0 else F.zero for i in range(d))

    antipodes = [{0: F.one}]
    for b, alpha in enumerate(st.digits[1:], 1):
        i = next(i for i, a in enumerate(alpha) if a)
        antipodes.append({m: F.neg(c) for m, c in st.elem_times_gen(
            antipodes[b - st.stride[i]], i).items()})

    labels = tuple(
        "1" if sum(a) == 0 else
        "*".join("%s%s" % (g.labels[i], "" if a[i] == 1 else "^%d" % a[i])
                 for i in range(g.dim) if a[i] > 0)
        for a in st.digits)
    return HopfAlgebra(F, d, tuple(mult), counit, terms(tensors), counit,
                       terms(antipodes), labels)


def dual_hopf(H):
    """The dual Hopf algebra, by transposing all structure maps on their
    terms: H's terms are read in index order, so every transposed list
    comes out in index order too."""
    d = H.dim
    # e_a'·e_b' is column a·d + b of Δ
    products = [[] for _ in range(d * d)]
    for k, terms in enumerate(H._coflat):
        for ab, c in terms:
            products[ab].append((k, c))
    mult = tuple(tuple(tuple(t) for t in products[a * d:(a + 1) * d])
                 for a in range(d))
    # Δ(e_k') collects the k entries of the product table, at a·d + b
    comult = [[] for _ in range(d)]
    for ab, terms in enumerate(itertools.chain.from_iterable(H._terms)):
        for k, c in terms:
            comult[k].append((ab, c))
    antipode = [[] for _ in range(d)]
    for k, terms in enumerate(H._antipode_terms):
        for i, c in terms:
            antipode[i].append((k, c))
    labels = tuple("%s'" % lb for lb in H.labels)
    return HopfAlgebra(H.field, d, mult, H.counit, tuple(map(tuple, comult)),
                       H.unit, tuple(map(tuple, antipode)), labels)


def envelope_subalgebra_span(g, S, H):
    """The span of u(S) inside H = u(g), as a subspace of H.

    S must be a p-subalgebra; `subgroup_ideal_from_p_subalgebra` checks it.
    Then u(S) is the unital subalgebra of u(g) generated by S, whose basis
    is carried into H with e_i going to the monomial of index p^(n−1−i).
    It is spanned by the words in those generators, so it is the closure
    of 1 under right multiplication by them: the closure that
    `SCAlgebra.algebra_generators` and `ideal_closure` use.
    """
    F = g.field
    n = g.dim
    gens = []
    for s in S.basis:
        v = [F.zero] * H.dim
        for i, c in vec_terms(F, s):
            v[F.p ** (n - 1 - i)] = c
        gens.append(tuple(v))
    return Subspace.zero(F, H.dim).closure(
        [H.unit], lambda v, _: [H.mul(v, s) for s in gens])


def subgroup_ideal_from_p_subalgebra(g, S):
    """The defining ideal, in the coordinate ring dual to u(g), of the
    height-one subgroup corresponding to a p-subalgebra S ≤ g.

    Returns (dual Hopf algebra, SubgroupIdeal): the ideal is the annihilator
    of u(S) ⊆ u(g).
    """
    if not g.is_restricted_subalgebra(S):
        raise ValueError("S is not a p-subalgebra")
    H = u_env(g)
    A = dual_hopf(H)
    span = envelope_subalgebra_span(g, S, H)
    ann = span.annihilator()
    return A, SubgroupIdeal(A, ann)
