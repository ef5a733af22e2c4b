"""Named fixtures: small restricted Lie algebras and group-scheme
coordinate rings with machine-checkable expected-property tables.

Gallery names (CLI-addressable):
  paper-G@p=2, paper-G@p=3   3-dim solvable family over GF(p)(t)
  sl2-kernel@p=2             height-one kernel of sl2 in characteristic 2
  alpha@p, mu@p              1-dim additive / multiplicative types over GF(p)
  torus@p^n                  n-dim split torus type
  product(a,b,...)           direct sum of Lie gallery entries
  alphaN (N = p^r)           coordinate ring k[x]/(x^N), x primitive
  muN (N = p)                coordinate ring k[x]/(x^p - 1), x group-like
  env(<lie name>)            restricted enveloping algebra of a Lie entry
  dual(<hopf name>)          dual Hopf algebra of a Hopf entry
"""

from __future__ import annotations

from .envelope import dual_hopf, u_env
from .fields import (PrimeField, RationalFunctionField, is_prime,
                     prime_power)
from .hopf import HopfAlgebra, tensor_product_hopf
from .lie import RLieAlgebra, direct_sum
from .linalg import (lin_comb, mat_identity, mat_mul, mat_pow, mat_sub,
                     mat_rank, vec_terms)
from .radical import rad_p, is_p_reductive


# -- constructors ------------------------------------------------------------


def paper_g(p, a=None):
    """The 3-dimensional solvable family over GF(p)(t): basis (X, Y, Z)
    with [Z,Y] = Y, X^[p] = X, Y^[p] = aX, Z^[p] = Z, where a is not a p-th
    power.

    Returns (algebra, representation matrices).  Default a = t.
    """
    F = RationalFunctionField(p)
    if a is None:
        a = F.t
    if F.pth_root(a) is not None:
        raise ValueError("parameter a = %s is a p-th power" % F.to_str(a))
    zero3 = (F.zero,) * 3
    sign = F.from_int(-1)
    g = RLieAlgebra.from_upper(
        F, 3,
        # [Y,Z] = -[Z,Y] = -Y
        {(1, 2): (F.zero, sign, F.zero)},
        [(F.one, F.zero, F.zero), (a, F.zero, F.zero),
         (F.zero, F.zero, F.one)],
        labels=("X", "Y", "Z"))
    rep = (mat_identity(F, p), _y_matrix(F, p, a), _z_matrix(F, p))
    return g, rep


def _y_matrix(F, p, a):
    """Entry (1,p) is a, sub-diagonal entries are 1."""
    rows = []
    for i in range(p):
        row = [F.zero] * p
        if i == 0:
            row[p - 1] = a
        else:
            row[i - 1] = F.one
        rows.append(tuple(row))
    return tuple(rows)


def _z_matrix(F, p):
    """diag(1, 2, ..., p-1, 0)."""
    return tuple(tuple(F.from_int(i + 1) if i == j and i < p - 1 else F.zero
                       for j in range(p)) for i in range(p))


def verify_restricted_rep(g, matrices):
    """Check that basis-element matrices give a faithful restricted
    representation: preserve brackets, preserve p-powers, joint kernel 0."""
    F = g.field
    n = g.dim
    if len(matrices) != n:
        return {"ok": False, "failures": [("count", len(matrices))]}
    failures = []
    for i in range(n):
        for j in range(n):
            comm = mat_sub(F, mat_mul(F, matrices[i], matrices[j]),
                           mat_mul(F, matrices[j], matrices[i]))
            expect = rep_of_element(g, matrices, g.brackets[i][j])
            if comm != expect:
                failures.append(("bracket", (i, j)))
    for i in range(n):
        if (mat_pow(F, matrices[i], F.p)
                != rep_of_element(g, matrices, g.ppowers[i])):
            failures.append(("p-power", i))
    flat = [tuple(c for row in M for c in row) for M in matrices]
    if mat_rank(F, flat) != n:
        failures.append(("faithful", None))
    return {"ok": not failures, "failures": failures}


def rep_of_element(g, matrices, x):
    """The matrix representing an algebra element x: Σ x_i·M_i, each
    matrix M_i a sparse row of its m² entries."""
    F = g.field
    m = len(matrices[0])
    rows = [vec_terms(F, [c for row in M for c in row]) for M in matrices]
    flat = lin_comb(F, rows, vec_terms(F, x), m * m)
    return tuple(flat[r * m:(r + 1) * m] for r in range(m))


def sl2_kernel_char2():
    """Basis (e, h, f): [e,f] = h, h central, e^[2] = f^[2] = 0, h^[2] = h."""
    F = PrimeField(2)
    z = (F.zero,) * 3
    return RLieAlgebra.from_upper(
        F, 3, {(0, 2): (F.zero, F.one, F.zero)},
        [z, (F.zero, F.one, F.zero), z], labels=("e", "h", "f"))


def alpha_lie(p):
    """1-dimensional with zero p-power (additive type)."""
    F = PrimeField(p)
    return RLieAlgebra(F, 1, (((F.zero,),),), ((F.zero,),), labels=("v",))


def mu_lie(p):
    """1-dimensional with v^[p] = v (multiplicative type)."""
    F = PrimeField(p)
    return RLieAlgebra(F, 1, (((F.zero,),),), ((F.one,),), labels=("v",))


def torus_lie(p, n):
    out = mu_lie(p)
    for _ in range(n - 1):
        out = direct_sum(out, mu_lie(p))
    return out


def alpha_hopf(p, r):
    """Coordinate ring k[x]/(x^{p^r}) of the order-p^r additive kernel,
    x primitive."""
    F = PrimeField(p)
    d = p ** r
    mult = tuple(tuple(
        _monomial(F, d, i + j) for j in range(d)) for i in range(d))
    unit = _monomial(F, d, 0)
    comult = []
    for k in range(d):
        # Δ(x^k) = Σ C(k,i) x^i ⊗ x^{k-i}
        dv = [F.zero] * (d * d)
        c = 1
        for i in range(k + 1):
            dv[i * d + (k - i)] = F.from_int(c)
            c = c * (k - i) // (i + 1)
        comult.append(tuple(dv))
    counit = tuple(F.one if k == 0 else F.zero for k in range(d))
    minus = F.from_int(-1)
    antipode = []
    for k in range(d):
        c = F.one
        for _ in range(k % 2):
            c = F.mul(c, minus)
        v = [F.zero] * d
        v[k] = c
        antipode.append(tuple(v))
    labels = tuple("1" if k == 0 else ("x" if k == 1 else "x^%d" % k)
                   for k in range(d))
    return HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)


def _monomial(F, d, k):
    """x^k in k[x]/(x^d)."""
    return tuple(F.one if i == k and k < d else F.zero for i in range(d))


def mu_hopf(p):
    """Coordinate ring k[x]/(x^p - 1) of the p-th roots of unity,
    x group-like."""
    F = PrimeField(p)
    d = p
    mult = tuple(tuple(
        tuple(F.one if k == (i + j) % p else F.zero for k in range(d))
        for j in range(d)) for i in range(d))
    unit = tuple(F.one if k == 0 else F.zero for k in range(d))
    comult = []
    for k in range(d):
        dv = [F.zero] * (d * d)
        dv[k * d + k] = F.one
        comult.append(tuple(dv))
    counit = (F.one,) * d
    antipode = tuple(
        tuple(F.one if k == (-i) % p else F.zero for k in range(d))
        for i in range(d))
    labels = tuple("1" if k == 0 else ("x" if k == 1 else "x^%d" % k)
                   for k in range(d))
    return HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)


# -- name resolution ---------------------------------------------------------


class UnknownGalleryName(ValueError):
    pass


def resolve(name, hopf_cap=128):
    """Resolve a gallery name to an RLieAlgebra or HopfAlgebra."""
    name = name.strip()
    if name.startswith("product(") and name.endswith(")"):
        parts = _split_args(name[len("product("):-1])
        algs = [resolve(p, hopf_cap) for p in parts]
        if all(isinstance(a, RLieAlgebra) for a in algs):
            out = algs[0]
            for a in algs[1:]:
                out = direct_sum(out, a)
            return out
        if all(isinstance(a, HopfAlgebra) for a in algs):
            out = algs[0]
            for a in algs[1:]:
                out = tensor_product_hopf(out, a)
            return out
        raise UnknownGalleryName("product mixes Lie and Hopf entries")
    if name.startswith("env(") and name.endswith(")"):
        g = resolve(name[4:-1], hopf_cap)
        if not isinstance(g, RLieAlgebra):
            raise UnknownGalleryName("env(...) needs a Lie entry")
        return u_env(g, cap=hopf_cap)
    if name.startswith("dual(") and name.endswith(")"):
        h = resolve(name[5:-1], hopf_cap)
        if not isinstance(h, HopfAlgebra):
            raise UnknownGalleryName("dual(...) needs a Hopf entry")
        return dual_hopf(h)
    if "@" in name:
        head, _, tail = name.partition("@")
        tail = tail[2:] if tail.startswith("p=") else tail
        if head == "paper-G":
            return paper_g(_prime(tail))[0]
        if head == "sl2-kernel":
            if tail != "2":
                raise UnknownGalleryName("sl2-kernel is only shipped at p=2")
            return sl2_kernel_char2()
        if head == "alpha":
            return alpha_lie(_prime(tail))
        if head == "mu":
            return mu_lie(_prime(tail))
        if head == "torus":
            ptxt, caret, ntxt = tail.partition("^")
            p = _prime(ptxt)
            rank = int(ntxt) if caret else 1
            if rank < 1:
                raise UnknownGalleryName("torus rank %d is below 1" % rank)
            return torus_lie(p, rank)
        raise UnknownGalleryName(name)
    for prefix, builder in (("alpha", _resolve_alpha_hopf), ("mu", _resolve_mu_hopf)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return builder(int(name[len(prefix):]))
    raise UnknownGalleryName(name)


def _resolve_alpha_hopf(order):
    split = prime_power(order)
    if split is None:
        raise UnknownGalleryName("alpha order %d is not a prime power" % order)
    return alpha_hopf(*split)


def _resolve_mu_hopf(order):
    if prime_power(order) != (order, 1):
        raise UnknownGalleryName("mu order %d is not prime" % order)
    return mu_hopf(order)


def _prime(text):
    p = int(text)
    if not is_prime(p):
        raise UnknownGalleryName("%d is not prime" % p)
    return p


def _split_args(text):
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    if cur.strip():
        parts.append(cur)
    return [p.strip() for p in parts]


# -- expected-property tables -------------------------------------------------
#
# Each row: (label, compute(context) -> actual, expected, tag).  Tags mark
# where the expected value comes from: "reference" (published description of
# the fixture), "derived" (independent oracle computation frozen here),
# "trivial" (immediate from the definitions).


def _paper_g_rows(p):
    def ctx():
        g, rep = paper_g(p)
        return {"g": g, "rep": rep}

    def series_kinds(c):
        g = c["g"]
        F = g.field
        X = g.basis_vector(0)
        Y = g.basis_vector(1)
        chain = [g.zero_subspace(), g.subspace([X]), g.subspace([X, Y]),
                 g.full_subspace()]
        return [step["kind"] for step in g.verify_subnormal_series(chain)]

    rows = [
        ("validate", lambda c: bool(c["g"].validate()), True, "trivial"),
        ("center", lambda c: c["g"].center() ==
         c["g"].subspace([c["g"].basis_vector(0)]), True, "reference"),
        ("solvable", lambda c: c["g"].characteristic_series()["solvable"],
         True, "reference"),
        ("nilpotent", lambda c: c["g"].characteristic_series()["nilpotent"],
         False, "reference"),
        ("series-kinds", series_kinds,
         ["mu-form", "alpha-type", "mu-form"], "reference"),
        ("radical-zero", lambda c: (rad_p(c["g"]).radical.dim,
                                    rad_p(c["g"]).verdict), (0, "exact"),
         "reference"),
        ("p-reductive", lambda c: is_p_reductive(c["g"]), True, "reference"),
        ("N-radical-zero", lambda c: _n_radical(c["g"]), (0, "exact"),
         "derived"),
        ("N-not-p-reductive", lambda c: _n_p_reductive(c["g"]), False,
         "reference"),
        ("quotient-radical", lambda c: _quotient_radical(c["g"]), (1, "exact"),
         "reference"),
        ("rep-verifies", lambda c: verify_restricted_rep(c["g"],
                                                         c["rep"])["ok"],
         True, "reference"),
    ]
    return ctx, rows


def _subalgebra_N(g):
    """The abelian p-ideal spanned by the first two basis elements."""
    F = g.field
    sub = g.subspace([g.basis_vector(0), g.basis_vector(1)])
    brackets = (((F.zero,) * 2,) * 2,) * 2
    ppowers = [sub.coordinates(g.p_power(v)) for v in sub.basis]
    return RLieAlgebra(F, 2, brackets, ppowers, labels=("X", "Y"))


def _n_radical(g):
    N = _subalgebra_N(g)
    cert = rad_p(N)
    return (cert.radical.dim, cert.verdict)


def _n_p_reductive(g):
    return is_p_reductive(_subalgebra_N(g))


def _quotient_radical(g):
    I = g.subspace([g.basis_vector(0)])
    q, project, section = g.quotient(I)
    cert = rad_p(q)
    return (cert.radical.dim, cert.verdict)


def _sl2_rows():
    def ctx():
        return {"g": sl2_kernel_char2()}

    def lcs_len(c):
        return len(c["g"].characteristic_series()["lower_central_series"])

    rows = [
        ("validate", lambda c: bool(c["g"].validate()), True, "trivial"),
        ("nilpotent-class-2",
         lambda c: (c["g"].characteristic_series()["nilpotent"], lcs_len(c)),
         (True, 3), "reference"),
        ("not-unipotent", lambda c: c["g"].is_unipotent(), False, "reference"),
        ("center", lambda c: c["g"].center() ==
         c["g"].subspace([c["g"].basis_vector(1)]), True, "reference"),
        ("e-f-unipotent", lambda c: (
            c["g"].is_unipotent(c["g"].subspace([c["g"].basis_vector(0)])),
            c["g"].is_unipotent(c["g"].subspace([c["g"].basis_vector(2)]))),
         (True, True), "trivial"),
        ("e-f-generate", lambda c: c["g"].spin_subalgebra(
            c["g"].subspace([c["g"].basis_vector(0),
                             c["g"].basis_vector(2)])).dim, 3, "reference"),
        ("radical-zero", lambda c: (rad_p(c["g"]).radical.dim,
                                    rad_p(c["g"]).verdict), (0, "exact"),
         "derived"),
    ]
    return ctx, rows


FIXTURE_TABLES = {
    "paper-G@p=2": lambda: _paper_g_rows(2),
    "paper-G@p=3": lambda: _paper_g_rows(3),
    "sl2-kernel@p=2": _sl2_rows,
}


def run_fixture(name):
    """Run a fixture's expected-property table; returns result rows."""
    if name not in FIXTURE_TABLES:
        raise UnknownGalleryName(name)
    ctx_fn, rows = FIXTURE_TABLES[name]()
    c = ctx_fn()
    out = []
    for label, compute, expected, tag in rows:
        actual = compute(c)
        out.append({"assertion": label, "expected": repr(expected),
                    "actual": repr(actual), "tag": tag,
                    "passed": actual == expected})
    return out
