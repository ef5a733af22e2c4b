"""The dense route to Hopf tables, kept as a reference for the sparse one.

`HopfAlgebra` used to store its dense tables as given and derive the sparse
terms from them by `vec_terms`; `u_env` built dense rows and `dual_hopf`
transposed the dense tables with `zip`.  `dense_tables` keeps both forms
side by side, so the sparse construction can be compared with it table by
table and through `print_hopf`.
"""

import itertools
from types import SimpleNamespace

from pradical import envelope
from pradical.linalg import vec_terms
from pradical.textio import print_hopf

COMPARED = ("_terms", "_cols", "_coflat", "_coterms", "_antipode_terms",
            "mult", "unit", "comult", "counit", "antipode", "labels")


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


def dense_u_env(g):
    """u_env's PBW recursion writing dense rows, as `dense_tables`."""
    F = g.field
    n = g.dim
    d = g.p ** n
    monos = list(itertools.product(range(g.p), repeat=n))
    index = {m: i for i, m in enumerate(monos)}
    st = envelope._Straightener(g)
    last = envelope._peel(monos, index, first=False)
    mult = []
    for a in monos:
        row = [{a: F.one}]
        for k, j in last:
            row.append(st.elem_times_gen(row[k], j))
        mult.append([envelope._to_vec(F, index, elem) for elem in row])
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
    for k, i in envelope._peel(monos, index, first=True):
        antipodes.append({m: F.neg(c) for m, c in
                          st.elem_times_gen(antipodes[k], i).items()})
    labels = tuple(
        "1" if sum(a) == 0 else
        "*".join("%s%s" % (g.labels[i], "" if a[i] == 1 else "^%d" % a[i])
                 for i in range(n) if a[i] > 0)
        for a in monos)
    return dense_tables(F, d, mult, envelope._to_vec(F, index, one), comult,
                        tuple(F.one if i == 0 else F.zero for i in range(d)),
                        [envelope._to_vec(F, index, e) for e in antipodes],
                        labels)


def zip_dual_hopf(H):
    """dual_hopf by `zip` transposes of the dense tables."""
    d = H.dim
    products = list(zip(*H.comult))
    mult = [products[a * d:(a + 1) * d] for a in range(d)]
    comult = list(zip(*itertools.chain.from_iterable(H.mult)))
    antipode = list(zip(*H.antipode))
    return dense_tables(H.field, d, mult, H.counit, comult, H.unit, antipode,
                        tuple("%s'" % lb for lb in H.labels))


def assert_same_hopf(got, want):
    for name in COMPARED:
        assert getattr(got, name) == getattr(want, name), name
    assert print_hopf(got) == print_hopf(want)
