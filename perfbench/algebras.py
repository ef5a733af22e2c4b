"""Input generators for the benchmark workloads.

Everything here is built from the package's public constructors, so the
package needs no benchmark-only helpers:

* ``witt(p)``: the Witt algebra W(1) over GF(p), basis e_-1 .. e_{p-2},
  [e_i, e_j] = (j - i) e_{i+j}, e_0^[p] = e_0 and every other basis p-power 0;
* ``change_basis(g, rng)``: the same algebra in a seeded random basis over a
  finite field, so that a scan in basis order does not meet the answer at a
  fixed position;
* ``base_change(g, target)``: transport along ``fields.base_change_map``;
* ``seeded_subalgebra(g, rng)``: a seeded proper p-subalgebra of g;
* ``document(g)``: the canonical ``.alg`` text, checked to round-trip.

Every algebra returned here passes ``validate()``.
"""

from __future__ import annotations

from pradical import gallery
from pradical.fields import PrimeField, base_change_map
from pradical.lie import RLieAlgebra, direct_sum
from pradical.linalg import rref
from pradical.textio import parse_algebra, print_algebra


def _checked(g):
    report = g.validate()
    if not report:
        raise ValueError("generated algebra fails validation: %r"
                         % (report.first(),))
    return g


def witt(p):
    """W(1) over GF(p); dimension p."""
    F = PrimeField(p)
    n = p
    upper = {}
    for a in range(n):
        for b in range(a + 1, n):
            # basis position a holds e_{a-1}
            k = a + b - 2
            if k <= p - 2 and (b - a) % p:
                v = [F.zero] * n
                v[k + 1] = F.from_int(b - a)
                upper[(a, b)] = tuple(v)
    ppowers = [(F.zero,) * n] * n
    ppowers[1] = tuple(F.one if k == 1 else F.zero for k in range(n))
    labels = ["em1"] + ["e%d" % i for i in range(p - 1)]
    return _checked(RLieAlgebra.from_upper(F, n, upper, ppowers, labels))


def with_alpha(g):
    """g ⊕ alpha: adjoin a central line with zero p-power."""
    return _checked(direct_sum(g, gallery.alpha_lie(g.field.p)))


def base_change(g, target):
    """g over `target`, along the package's base-change map."""
    return _checked(g.base_change(base_change_map(g.field, target)))


def _invertible(F, n, rng):
    """A seeded random invertible n×n matrix over a finite field."""
    elems = list(F.elements())
    while True:
        rows = tuple(tuple(rng.choice(elems) for _ in range(n))
                     for _ in range(n))
        if len(rref(F, rows)[0]) == n:
            return rows


def _inverse(F, M):
    n = len(M)
    aug = [tuple(M[i]) + tuple(F.one if j == i else F.zero for j in range(n))
           for i in range(n)]
    basis, _ = rref(F, aug)
    return tuple(tuple(row[n:]) for row in basis)


def change_basis(g, rng):
    """g in the basis f_a = sum_k P[a][k] e_k for a seeded invertible P."""
    F = g.field
    n = g.dim
    P = _invertible(F, n, rng)
    Pinv = _inverse(F, P)

    def coords(v):
        # c with sum_a c_a f_a = v, i.e. c = v P^-1
        return tuple(F.sum(F.mul(v[k], Pinv[k][a]) for k in range(n))
                     for a in range(n))

    table = [[coords(g.bracket(P[a], P[b])) for b in range(n)]
             for a in range(n)]
    ppowers = [coords(g.p_power(P[a])) for a in range(n)]
    labels = ["f%d" % (a + 1) for a in range(n)]
    return _checked(RLieAlgebra(F, n, table, ppowers, labels))


def non_pth_power(F, rng):
    """A seeded element of GF(p)(t) that is not a p-th power."""
    while True:
        a = F.random_element(rng, max_deg=2)
        if any(not F.is_zero(c) for c in F.pth_components(a)[1:]):
            return a


def paper_g(p, a=None):
    """The gallery's paper-G over GF(p)(t), with parameter a (default t)."""
    return _checked(gallery.paper_g(p, a)[0])


def paper_g_mod_x(p):
    """paper-G divided by its central p-ideal spanned by X."""
    g = paper_g(p)
    q, _, _ = g.quotient(g.subspace([g.basis_vector(0)]))
    return _checked(q)


def paper_g_squared(p):
    g = paper_g(p)
    return _checked(direct_sum(g, g))


def sl2_kernel_alpha():
    return with_alpha(gallery.sl2_kernel_char2())


def seeded_subalgebra(g, rng):
    """A seeded proper nonzero p-subalgebra: the restricted subalgebra, or
    the p-ideal, generated by a random vector."""
    F = g.field
    while True:
        v = tuple(F.random_element(rng) for _ in range(g.dim))
        if all(F.is_zero(c) for c in v):
            continue
        S = g.subspace([v])
        S = g.spin_p_ideal(S) if rng.random() < 0.5 \
            else g.spin_subalgebra(S)
        if 0 < S.dim < g.dim:
            return S


def document(g):
    """The canonical .alg text of g; checked to round-trip byte-identically."""
    text = print_algebra(g)
    h, _ = parse_algebra(text)
    if (print_algebra(h) != text or h.brackets != g.brackets
            or h.ppowers != g.ppowers):
        raise ValueError("document does not round-trip:\n" + text)
    return text
