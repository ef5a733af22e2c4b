"""Reference routes to the Hopf tables of u(g) and its dual.

`_Straightener` is the tuple-keyed straightener that `envelope` used before
it keyed monomials by their integer index: elements are dicts
{exponent-tuple: coefficient}, its memo is a dict keyed by (monomial,
generator), and each straightening step rebuilds an exponent tuple.
`_peel` and `_to_vec` are the helpers that read its elements into tables.
`dense_u_env` and the word-by-word tables in `test_envelope` drive it, so
the package's straightener is checked against an independent one.

`HopfAlgebra` used to store its dense tables as given and derive the sparse
terms from them by `vec_terms`; `u_env` built dense rows and `dual_hopf`
transposed the dense tables with `zip`.  `dense_tables` keeps both forms
side by side, so the sparse construction can be compared with it table by
table and through `print_hopf`.  The package keeps only the terms: `dense`
writes out the dense tables of a Hopf algebra, as `dense_tables`, and
`from_dense` builds one from dense tables, so the dense loops here and in
the tests read and write the tables they always did.

`dense_print_hopf` is `print_hopf` as it was when it scanned the dense
`mult`, `comult` and `antipode` views.

`validate_failures` is `validate_hopf` as it was before its checks skipped
zero products: associativity over every (i, j, k), coassociativity by
tuple-keyed legs, multiplicativity of Δ as two dense d²-vectors per pair
(`lin_comb` against `kron_product`) and the antipode convolution by one
`sc_accumulate` per term.  Its failure list is the one `validate_hopf` must
report.
"""

import itertools
from types import SimpleNamespace

from pradical.hopf import HopfAlgebra
from pradical.linalg import (kron, kron_product, lin_comb, sc_accumulate,
                             vec_scale, vec_terms)
from pradical.textio import element_str, print_hopf, safe_labels, tensor_str

DENSE = ("mult", "comult", "antipode")
COMPARED = ("_terms", "_cols", "_coflat", "_coterms", "_antipode_terms",
            "unit", "counit", "labels") + DENSE


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

    def tensor_times_gen(self, tensor, j):
        """tensor · (e_j⊗1 + 1⊗e_j) for a tensor {(mono, mono): coefficient}."""
        F = self.F
        out = {}
        for (ma, mb), c in tensor.items():
            for m2, c2 in self.mono_times_gen(ma, j).items():
                self._add_into(out, (m2, mb), F.mul(c, c2))
            for m2, c2 in self.mono_times_gen(mb, j).items():
                self._add_into(out, (ma, m2), F.mul(c, c2))
        return out


def _to_vec(F, index, elem):
    """A sorted-monomial element as a coordinate vector over `index`."""
    v = [F.zero] * len(index)
    for m, c in elem.items():
        v[index[m]] = c
    return tuple(v)


def _peel(monos, index, first):
    """For each monomial e^b after the unit, (k, j) with e^b = e_j·e^{b'}
    when `first` and e^b = e^{b'}·e_j otherwise, where j is the first (or
    last) index at which b is nonzero, b' = b − ε_j and k is the index of
    e^{b'}.  b' precedes b in the exponent-lex order, so a table built in
    that order has its entry."""
    out = []
    for b in monos[1:]:
        nonzero = [i for i, x in enumerate(b) if x]
        j = nonzero[0] if first else nonzero[-1]
        out.append((index[b[:j] + (b[j] - 1,) + b[j + 1:]], j))
    return out



def dense_tables(F, d, mult, unit, comult, counit, antipode, labels):
    """Dense tables as given, with the sparse terms derived from them."""
    mult = tuple(tuple(tuple(v) for v in row) for row in mult)
    comult = tuple(tuple(v) for v in comult)
    antipode = tuple(tuple(v) for v in antipode)
    terms = tuple(tuple(vec_terms(F, v) for v in row) for row in mult)
    coflat = tuple(vec_terms(F, v) for v in comult)
    return SimpleNamespace(
        field=F, dim=d, mult=mult, unit=tuple(unit), comult=comult,
        counit=tuple(counit), antipode=antipode, labels=tuple(labels),
        _terms=terms, _cols=tuple(zip(*terms)), _coflat=coflat,
        _coterms=tuple(tuple(divmod(k, d) + (c,) for k, c in t)
                       for t in coflat),
        _antipode_terms=tuple(vec_terms(F, v) for v in antipode))


def dense(H):
    """The dense tables of H beside its terms, as `dense_tables`: entry
    [i][j] of `mult` the coordinates of e_i·e_j, Δ(e_i) as a d²-vector and
    S(e_i) as a d-vector."""
    F, d = H.field, H.dim

    def vec(terms, n):
        out = [F.zero] * n
        for k, c in terms:
            out[k] = c
        return tuple(out)

    return dense_tables(F, d, [[vec(t, d) for t in row] for row in H._terms],
                        H.unit, [vec(t, d * d) for t in H._coflat], H.counit,
                        [vec(t, d) for t in H._antipode_terms], H.labels)


def from_dense(F, d, mult, unit, comult, counit, antipode, labels=None):
    """The HopfAlgebra on dense tables, each vector given as its
    `vec_terms`."""
    def terms(vectors):
        return tuple(vec_terms(F, v) for v in vectors)

    return HopfAlgebra(F, d, tuple(terms(row) for row in mult), unit,
                       terms(comult), counit, terms(antipode), labels)


def monomial_index(g):
    """{exponent tuple: basis index} of u(g)'s monomials e^α, in the
    exponent-lex order of `itertools.product`."""
    monos = itertools.product(range(g.p), repeat=g.dim)
    return {m: i for i, m in enumerate(monos)}


def dense_u_env(g):
    """u_env's PBW recursion writing dense rows, as `dense_tables`."""
    F = g.field
    n = g.dim
    d = g.p ** n
    monos = list(itertools.product(range(g.p), repeat=n))
    index = {m: i for i, m in enumerate(monos)}
    st = _Straightener(g)
    last = _peel(monos, index, first=False)
    mult = []
    for a in monos:
        row = [{a: F.one}]
        for k, j in last:
            row.append(st.elem_times_gen(row[k], j))
        mult.append([_to_vec(F, index, elem) for elem in row])
    tensors = [{(monos[0], monos[0]): F.one}]
    for k, j in last:
        tensors.append(st.tensor_times_gen(tensors[k], j))
    comult = []
    for tensor in tensors:
        dv = [F.zero] * (d * d)
        for (ma, mb), c in tensor.items():
            dv[index[ma] * d + index[mb]] = c
        comult.append(tuple(dv))
    one = {monos[0]: F.one}
    antipodes = [one]
    for k, i in _peel(monos, index, first=True):
        antipodes.append({m: F.neg(c) for m, c in
                          st.elem_times_gen(antipodes[k], i).items()})
    labels = tuple(
        "1" if sum(a) == 0 else
        "*".join("%s%s" % (g.labels[i], "" if a[i] == 1 else "^%d" % a[i])
                 for i in range(n) if a[i] > 0)
        for a in monos)
    return dense_tables(F, d, mult, _to_vec(F, index, one), comult,
                        tuple(F.one if i == 0 else F.zero for i in range(d)),
                        [_to_vec(F, index, e) for e in antipodes],
                        labels)


def zip_dual_hopf(H):
    """dual_hopf by `zip` transposes of the dense tables."""
    H = dense(H)
    d = H.dim
    products = list(zip(*H.comult))
    mult = [products[a * d:(a + 1) * d] for a in range(d)]
    comult = list(zip(*itertools.chain.from_iterable(H.mult)))
    antipode = list(zip(*H.antipode))
    return dense_tables(H.field, d, mult, H.counit, comult, H.unit, antipode,
                        tuple("%s'" % lb for lb in H.labels))


def assert_same_hopf(got, want):
    """got's terms and dense tables equal want's, as does its document."""
    views = dense(got)
    for name in COMPARED:
        assert (getattr(views if name in DENSE else got, name)
                == getattr(want, name)), name
    assert print_hopf(got) == print_hopf(want)


def _check_associative(H, right):
    F, d, T, C = H.field, H.dim, H._terms, H._cols
    for i in range(d):
        for j in range(d):
            for k in right:
                if (lin_comb(F, C[k], T[i][j], d)
                        != lin_comb(F, T[i], T[j][k], d)):
                    return (i, j, k)
    return None


def _comult_leg(H, terms, first):
    F = H.field
    acc = {}
    for a, b, c in terms:
        for x, y, c2 in H._coterms[a if first else b]:
            key = (x, y, b) if first else (a, x, y)
            cc = F.mul(c, c2)
            acc[key] = F.add(acc[key], cc) if key in acc else cc
    return {key: c for key, c in acc.items() if not F.is_zero(c)}


def _bialgebra_failures(H, gens):
    F, d = H.field, H.dim
    bad = _check_associative(H, gens)
    if bad is not None:
        return [("associativity", bad)]
    bad = H.check_unit()
    if bad is not None:
        return [("unit", bad)]
    for i in gens:
        if (_comult_leg(H, H._coterms[i], True)
                != _comult_leg(H, H._coterms[i], False)):
            return [("coassociativity", i)]
    for i in gens:
        left = [F.zero] * d
        right = [F.zero] * d
        for a, b, c in H._coterms[i]:
            left[b] = F.add(left[b], F.mul(c, H.counit[a]))
            right[a] = F.add(right[a], F.mul(c, H.counit[b]))
        ei = H.basis_vector(i)
        if tuple(left) != ei or tuple(right) != ei:
            return [("counit", i)]
    failures = []
    if H.delta(H.unit) != kron(F, H.unit, H.unit):
        failures.append(("comult-unit", None))
    if not F.eq(H.counit_of(H.unit), F.one):
        failures.append(("counit-unit", None))
    if failures:
        return failures
    T, co, eps = H._terms, H._coflat, H.counit
    for i in range(d):
        for j in gens:
            prod = T[i][j]
            if lin_comb(F, co, prod, d * d) != kron_product(
                    F, T, d, H._coterms[i], H._coterms[j]):
                return [("comult-multiplicative", (i, j))]
            if not F.eq(F.sum(F.mul(c, eps[k]) for k, c in prod),
                        F.mul(eps[i], eps[j])):
                return [("counit-multiplicative", (i, j))]
    return []


def validate_failures(H):
    """The failure list of `validate_hopf` by the dense loops."""
    F, d, T = H.field, H.dim, H._terms
    failures = []
    if _bialgebra_failures(H, H.algebra_generators()):
        failures = _bialgebra_failures(H, range(d))
    if not failures:
        S = H._antipode_terms
        for i in range(d):
            conv_l = [F.zero] * d
            conv_r = [F.zero] * d
            for a, b, c in H._coterms[i]:
                sc_accumulate(F, conv_l, T, S[a], ((b, c),))
                sc_accumulate(F, conv_r, T, ((a, c),), S[b])
            target = vec_scale(F, H.unit, H.counit[i])
            if tuple(conv_l) != target or tuple(conv_r) != target:
                failures.append(("antipode-convolution", i))
                break
    return failures


def dense_print_hopf(H):
    """The canonical document of H from its dense tables."""
    H = dense(H)
    F = H.field
    labels = safe_labels(H.labels)
    out = ["FIELD %r" % F,
           "BASIS %s" % " ".join(labels),
           "UNIT %s" % element_str(F, labels, H.unit),
           "MULT"]
    for i in range(H.dim):
        for j in range(H.dim):
            vec = H.mult[i][j]
            if any(not F.is_zero(c) for c in vec):
                out.append("%s*%s = %s" % (labels[i], labels[j],
                                           element_str(F, labels, vec)))
    out.append("COMULT")
    for i in range(H.dim):
        if any(not F.is_zero(c) for c in H.comult[i]):
            out.append("delta(%s) = %s" % (labels[i],
                                           tensor_str(F, labels,
                                                      H.comult[i])))
    out.append("COUNIT")
    for i in range(H.dim):
        if not F.is_zero(H.counit[i]):
            out.append("eps(%s) = %s" % (labels[i], F.to_str(H.counit[i])))
    out.append("ANTIPODE")
    for i in range(H.dim):
        if any(not F.is_zero(c) for c in H.antipode[i]):
            out.append("S(%s) = %s" % (labels[i],
                                       element_str(F, labels,
                                                   H.antipode[i])))
    return "\n".join(out) + "\n"
