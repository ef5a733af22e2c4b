"""The textbook route to GF(p)[t] and GF(p)(t) arithmetic, kept as a
reference for the one-pass helpers and the fraction shortcuts of `fields`.

The helpers rebuild and re-trim a tuple at every step, and every sum and
product of fractions forms the cross products and reduces them by a gcd.
They expect trimmed operands with coefficients in [0, p): `pdivmod` and
`pgcd` never return on a divisor with a trailing zero.
"""


def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def padd(a, b, p):
    n = max(len(a), len(b))
    return ptrim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                 for i in range(n))


def pneg(a, p):
    return tuple((-c) % p for c in a)


def psub(a, b, p):
    return padd(a, pneg(b, p), p)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return ptrim(out)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(ptrim(a)) >= len(b):
        a = list(ptrim(a))
        d = len(a) - len(b)
        c = (a[-1] * binv) % p
        q[d] = c
        for i, cb in enumerate(b):
            a[d + i] = (a[d + i] - c * cb) % p
    return ptrim(q), ptrim(a)


def pmonic(a, p):
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple((c * inv) % p for c in a)


def pgcd(a, b, p):
    while b:
        _, a = pdivmod(a, b, p)
        a, b = b, a
    return pmonic(a, p)


# -- GF(p)(t): reduced (num, den) pairs with monic den ------------------------

def frac(p, num, den):
    num, den = ptrim(num), ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), (1,))
    g = pgcd(num, den, p)
    if len(g) > 1:
        num, _ = pdivmod(num, g, p)
        den, _ = pdivmod(den, g, p)
    lead = den[-1]
    if lead != 1:
        inv = pow(lead, p - 2, p)
        num = tuple((c * inv) % p for c in num)
        den = tuple((c * inv) % p for c in den)
    return (num, den)


def add(p, a, b):
    (an, ad), (bn, bd) = a, b
    return frac(p, padd(pmul(an, bd, p), pmul(bn, ad, p), p), pmul(ad, bd, p))


def mul(p, a, b):
    (an, ad), (bn, bd) = a, b
    return frac(p, pmul(an, bn, p), pmul(ad, bd, p))


def inv(p, a):
    if not a[0]:
        raise ZeroDivisionError("inverse of 0")
    return frac(p, a[1], a[0])
