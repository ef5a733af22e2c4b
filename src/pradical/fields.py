"""Exact scalar arithmetic in characteristic p.

Provides descriptor objects for GF(p), GF(p)(t), GF(p^m) and multivariate
polynomial coordinate rings over these.  Elements are plain immutable Python
values (ints / tuples); all operations go through the descriptor so that
linear algebra and Lie-algebra code can stay generic.  Every representation
is canonical: two elements are equal iff their representations are equal.

GF(p)(t) arithmetic costs only the coefficients it touches: the univariate
helpers are single passes that reduce each coefficient once, and
`RationalFunctionField` takes a gcd only where reduced operands do not
already give a reduced result (see `add` and `mul`): a zero, one or
polynomial operand and an inverse cost no gcd of the cross products, and a
shared denominator no cross products.  `linalg.rref` adds to this by
touching only the nonzero entries of each pivot row.
"""

from __future__ import annotations

import itertools
import math


# Below _TRIAL_LIMIT, primality and prime powers are decided by trial
# division, at most 2^16 steps.  Above it, by Miller–Rabin with the first 13
# primes as bases, which no composite below _MR_LIMIT passes (J. Sorenson
# and J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp.
# 86, 2017); from _MR_LIMIT on, a number with no prime factor among those
# bases is left undecided rather than guessed.
_TRIAL_LIMIT = 1 << 32
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class PrimalityUndecided(ValueError):
    def __init__(self, n):
        super().__init__("primality undecided: no prime factor up to %d, and "
                         "Miller-Rabin on %d bases is exact only below %d"
                         % (_MR_BASES[-1], len(_MR_BASES), _MR_LIMIT))
        self.n = n


def is_prime(n: int) -> bool:
    """Whether n is prime; raises PrimalityUndecided for an n at or above
    _MR_LIMIT with no prime factor up to 41."""
    if n < _TRIAL_LIMIT:
        return n >= 2 and smallest_prime_factor(n) == n
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise PrimalityUndecided(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False        # a witnesses that n is composite
    return True


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n, for n >= 2; a smaller n is returned as is."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _integer_root(n, m):
    """The largest r with r^m <= n, for n >= 1, by Newton's method from a
    floating-point estimate raised by 2^-20, which keeps it above n^(1/m)
    (log2 is off by far less), so the iterates decrease to the answer."""
    e = math.log2(n) / m
    shift = max(0, int(e) - 50)
    r = (int(2 ** (e - shift) * (1 + 2 ** -20)) + 1) << shift
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def prime_power(n: int):
    """(p, m) with n = p^m and m >= 1, or None when n is not a prime power;
    raises PrimalityUndecided as `is_prime` does."""
    if n < 2:
        return None
    if n < _TRIAL_LIMIT:
        p = smallest_prime_factor(n)
    else:
        p = next((q for q in _MR_BASES if n % q == 0), None)
    if p is not None:
        m = 0
        while n % p == 0:
            n //= p
            m += 1
        return (p, m) if n == 1 else None
    # every prime factor exceeds 41, so m <= log_43(n) < bits/5.  p^m is a
    # q-th power, q prime, exactly when q | m; so the least such q with n
    # a q-th power splits off a factor of m, and when there is none m = 1
    for q in range(2, n.bit_length() // 5 + 1):
        if is_prime(q):
            r = _integer_root(n, q)
            if r ** q == n:
                split = prime_power(r)
                return split and (split[0], split[1] * q)
    return (n, 1) if is_prime(n) else None


def power(mul, x, e, one):
    """x^e under the product `mul` by square-and-multiply: about 2·log2(e)
    products, none of them with `one`, which is x^0.  A negative e is a
    ValueError."""
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    out = None
    while e:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if out is None else out


# ---------------------------------------------------------------------------
# univariate polynomials over Z/p, as tuples of ints (low degree first)
# ---------------------------------------------------------------------------
#
# Coefficients are ints in [0, p).  ptrim, padd, psub, pmul, pdivmod and
# pgcd accept untrimmed operands and return trimmed tuples; pneg keeps the
# length.  Each is one pass over coefficient lists: products and remainders
# accumulate unreduced integers and reduce each coefficient once.

def ptrim(c):
    """c as a tuple without trailing zeros."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def padd(a, b, p):
    """a + b: the shorter operand added into a copy of the longer one."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] = (out[i] + c) % p
    return ptrim(out)


def pneg(a, p):
    return tuple([(-c) % p for c in a])


def psub(a, b, p):
    out = list(a)
    if len(out) < len(b):
        out += [0] * (len(b) - len(out))
    for i, c in enumerate(b):
        if c:
            out[i] = (out[i] - c) % p
    return ptrim(out)


def pmul(a, b, p):
    """a·b; a constant factor scales the other operand."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        if c == 1:
            return ptrim(a)
        return ptrim([x * c % p for x in a]) if c else ()
    if not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return ptrim([x % p for x in out])


def pdivmod(a, b, p):
    """Quotient and remainder of a by b, in one pass down from the top
    coefficient of a; b may be untrimmed, and only b = 0 raises."""
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    nb = len(b) - 1
    if len(a) <= nb:
        return (), ptrim(a)
    lead = b[-1]
    lead_inv = 1 if lead == 1 else pow(lead, p - 2, p)
    r = list(a)
    q = [0] * (len(r) - nb)
    for d in range(len(q) - 1, -1, -1):
        c = r[d + nb] % p
        if c:
            c = c * lead_inv % p
            q[d] = c
            for i in range(nb):
                r[d + i] -= c * b[i]
    return ptrim(q), ptrim([x % p for x in r[:nb]])


def pgcd(a, b, p):
    """The monic gcd of a and b, () when both are 0.  A nonzero constant
    remainder ends Euclid's loop at once: the gcd is then 1."""
    a, b = ptrim(a), ptrim(b)
    while b:
        if len(b) == 1:
            return (1,)
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def pmonic(a, p):
    if not a:
        return ()
    lead = a[-1]
    if lead == 1:
        return tuple(a)
    inv = pow(lead, p - 2, p)
    return tuple([(c * inv) % p for c in a])


def _cancel(a, b, p):
    """a/g and b/g for g = gcd(a, b) and nonzero a, b.  A constant shares
    no factor, so only two nonconstant operands cost a gcd."""
    if len(a) > 1 and len(b) > 1:
        g = pgcd(a, b, p)
        if len(g) > 1:
            return pdivmod(a, g, p)[0], pdivmod(b, g, p)[0]
    return a, b


def psubst(a, image, p):
    """Substitute the variable of a by the polynomial `image`."""
    out = ()
    power = (1,)
    for c in a:
        if c:
            out = padd(out, pmul((c,), power, p), p)
        power = pmul(power, image, p)
    return out


def ppow_var(e):
    """The monomial t^e as a coefficient tuple."""
    return tuple([0] * e + [1])


def poly_str(a, var):
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append(var if c == 1 else "%d*%s" % (c, var))
        else:
            parts.append("%s^%d" % (var, e) if c == 1 else "%d*%s^%d" % (c, var, e))
    return " + ".join(parts)


def _digits(k, p, m):
    """The m base-p digits of k, least significant first."""
    out = []
    for _ in range(m):
        k, c = divmod(k, p)
        out.append(c)
    return tuple(out)


def prime_factors(n):
    """The distinct primes dividing n >= 1, in increasing order."""
    out = []
    while n > 1:
        r = smallest_prime_factor(n)
        out.append(r)
        while n % r == 0:
            n //= r
    return out


def pmulmod(a, b, f, p):
    """a·b mod f."""
    return pdivmod(pmul(a, b, p), f, p)[1]


def ppowmod(a, e, f, p):
    """a^e mod f by square-and-multiply, e >= 0, f of degree >= 1."""
    return power(lambda x, y: pmulmod(x, y, f, p), pdivmod(a, f, p)[1], e,
                 (1,))


def _irreducible(poly, p):
    """Ben-Or's test (M. Ben-Or, FOCS 1981): a monic f of degree m >= 1
    over GF(p) is irreducible iff gcd(x^(p^k) - x, f) = 1 for every
    k <= m/2.  A reducible f is rejected at the degree of its smallest
    factor, so most candidates cost a few Frobenius steps, not m."""
    m = len(poly) - 1
    if m < 1:
        return False
    x = pdivmod((0, 1), poly, p)[1]
    h = x                 # x^(p^k) mod f
    for _ in range(m // 2):
        h = ppowmod(h, p, poly, p)
        if pgcd(psub(h, x, p), poly, p) != (1,):
            return False
    return True


def find_irreducible(p, m):
    """Lexicographically-first monic irreducible of degree m over GF(p),
    ordered by its coefficient tuple, constant term first.  For m >= 2 a
    zero constant term means x divides f, so those tails are skipped."""
    for code in range(p ** (m - 1) if m >= 2 else 0, p ** m):
        f = _digits(code, p, m)[::-1] + (1,)
        if _irreducible(f, p):
            return f
    raise ValueError("no irreducible found (degree %d over GF(%d))" % (m, p))


# ---------------------------------------------------------------------------
# field / ring descriptors
# ---------------------------------------------------------------------------

class UnsupportedKindError(TypeError):
    """Raised when an operation needs a field but got a coordinate ring."""


class Ring:
    """Descriptor base: characteristic-p ring with opaque canonical elements.

    Two descriptors are equal when they have one type and one `_ident`,
    which each sets in `__init__`.  The defaults of `pth_components` and
    `pth_basis` are those of a perfect field, where every element is a
    p-th power."""

    is_field = False

    def __eq__(self, other):
        return type(other) is type(self) and other._ident == self._ident

    def __hash__(self):
        return hash(self._ident)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == self.zero

    def eq(self, a, b):
        return a == b

    def pow_int(self, a, e):
        return power(self.mul, a, e, self.one)

    def sum(self, xs):
        out = self.zero
        for x in xs:
            out = self.add(out, x)
        return out

    def pth_components(self, a):
        """[c_0, ...] with a = sum b_i * c_i^p over the `pth_basis` b."""
        return [self.pth_root(a)]

    @property
    def pth_basis(self):
        return [self.one]


class PrimeField(Ring):
    """GF(p); elements are ints in [0, p)."""

    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self._ident = (p,)
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return "GF(%d)" % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def pth_root(self, a):
        # Frobenius is the identity on the prime field.
        return a

    def elements(self):
        return range(self.p)

    def order(self):
        return self.p

    def random_element(self, rng):
        return rng.randrange(self.p)

    def to_str(self, a):
        return str(a)


class RationalFunctionField(Ring):
    """GF(p)(t); elements are reduced fractions (num, den) of coefficient
    tuples with monic denominator."""

    is_field = True

    def __init__(self, p, var="t"):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.var = var
        self._ident = (p, var)
        self.zero = ((), (1,))
        self.one = ((1,), (1,))

    def __repr__(self):
        return "GF(%d)(%s)" % (self.p, self.var)

    def frac(self, num, den):
        p = self.p
        num, den = ptrim(num), ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in %r" % self)
        if not num:
            return self.zero
        num, den = _cancel(num, den, p)
        lead = den[-1]
        if lead != 1:
            inv = (pow(lead, p - 2, p),)
            num, den = pmul(num, inv, p), pmul(den, inv, p)
        return (num, den)

    @property
    def t(self):
        return ((0, 1), (1,))

    def add(self, a, b):
        """a + b for reduced operands.  A zero operand returns the other.
        A polynomial c plus n/d is c·d + n over d, reduced because n/d is.
        Over one shared denominator the numerators add, with one gcd.  Only
        fractions with different nonconstant denominators form both cross
        products."""
        (an, ad), (bn, bd) = a, b
        if not an:
            return b
        if not bn:
            return a
        p = self.p
        if ad == bd:
            if len(ad) == 1:
                # polynomials: the trimmed sum is already reduced (0 is ((), (1,)))
                return padd(an, bn, p), ad
            return self.frac(padd(an, bn, p), ad)
        if len(ad) == 1:
            return padd(pmul(an, bd, p), bn, p), bd
        if len(bd) == 1:
            return padd(an, pmul(bn, ad, p), p), ad
        return self.frac(padd(pmul(an, bd, p), pmul(bn, ad, p), p), pmul(ad, bd, p))

    def neg(self, a):
        return (pneg(a[0], self.p), a[1])

    def mul(self, a, b):
        """a·b for reduced operands.  Zero and one return at once; a
        polynomial c times n/d is (c/g)·n over d/g with g = gcd(c, d), one
        gcd of smaller operands than that of the products."""
        (an, ad), (bn, bd) = a, b
        if not an or not bn:
            return self.zero
        if len(bd) == 1 and len(ad) > 1:
            (an, ad), (bn, bd) = (bn, bd), (an, ad)
        if len(ad) > 1:
            return self.frac(pmul(an, bn, self.p), pmul(ad, bd, self.p))
        if an == (1,):
            return bn, bd
        an, bd = _cancel(an, bd, self.p)
        return pmul(an, bn, self.p), bd

    def inv(self, a):
        """den/num of a reduced num/den is reduced: only made monic."""
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        lead = num[-1]
        if lead == 1:
            return den, num
        c = (pow(lead, self.p - 2, self.p),)
        return pmul(den, c, self.p), pmul(num, c, self.p)

    def from_int(self, n):
        n %= self.p
        return ((n,), (1,)) if n else self.zero

    def pth_root(self, a):
        comps = self.pth_components(a)
        if any(c != self.zero for c in comps[1:]):
            return None
        return comps[0]

    def pth_components(self, a):
        """Return [c_0, ..., c_{p-1}] with a = sum t^i * c_i^p."""
        p = self.p
        num, den = a
        # a = num * den^(p-1) / den^p ; split the numerator by exponent mod p
        top = pmul(num, power(lambda x, y: pmul(x, y, p), den, p - 1, (1,)),
                   p)
        buckets = [[] for _ in range(p)]
        for e, c in enumerate(top):
            if c:
                bucket = buckets[e % p]
                while len(bucket) <= e // p:
                    bucket.append(0)
                bucket[e // p] = c
        return [self.frac(ptrim(buckets[i]), den) for i in range(p)]

    def elements(self):
        raise UnsupportedKindError("%r is infinite" % self)

    def random_element(self, rng, max_deg=3):
        num = ptrim([rng.randrange(self.p) for _ in range(max_deg + 1)])
        den = ()
        while not den:
            den = ptrim([rng.randrange(self.p) for _ in range(max_deg + 1)])
        return self.frac(num, den)

    @property
    def pth_basis(self):
        return [self.frac(ppow_var(i), (1,)) for i in range(self.p)]

    def to_str(self, a):
        num, den = a
        ns = poly_str(num, self.var)
        if den == (1,):
            return ns
        ns = "(%s)" % ns if ("+" in ns or len(ptrim(num)) > 1) else ns
        ds = poly_str(den, self.var)
        ds = "(%s)" % ds if "+" in ds else ds
        return "%s/%s" % (ns, ds)


# GF(q) with q at most this reads log/antilog and Zech tables; above it the
# polynomial product mod the modulus is the only path.
TABLE_MAX_ORDER = 1 << 14

_EXTENSION_DATA = {}


def _extension_data(p, m):
    """(modulus, tables) of GF(p^m), built once per (p, m) and shared by
    its descriptors (they are a function of (p, m) alone, and a document's
    FIELD line builds a new descriptor); tables is None above
    TABLE_MAX_ORDER."""
    key = (p, m)
    if key not in _EXTENSION_DATA:
        modulus = find_irreducible(p, m)
        tables = (_log_tables(p, m, modulus) if p ** m <= TABLE_MAX_ORDER
                  else None)
        _EXTENSION_DATA[key] = modulus, tables
    return _EXTENSION_DATA[key]


def _primitive_element(p, m, modulus):
    """The first g, as a coefficient tuple in base-p order, of
    multiplicative order q - 1: g^((q-1)/r) != 1 for each prime r | q-1.
    For m >= 2 a constant has order dividing p - 1 and is skipped."""
    n = p ** m - 1
    exponents = [n // r for r in prime_factors(n)]
    for k in range(p if m > 1 else 1, n + 1):
        g = ptrim(_digits(k, p, m))
        if all(ppowmod(g, e, modulus, p) != (1,) for e in exponents):
            return g
    raise ValueError("no primitive element of GF(%d^%d)" % (p, m))


def _log_tables(p, m, modulus):
    """Log/antilog and Zech-logarithm tables of GF(p)[u]/(modulus) over a
    primitive element g (K. Huber, IEEE Trans. IT 36, 1990), from one pass
    of q - 1 polynomial products.  With n = q - 1:

    * log maps each element tuple to its exponent in [0, n), and 0 to 2n;
    * exp[i] = g^i for 0 <= i < 2n and 0 for 2n <= i <= 4n, so a sum of
      two logs indexes the product, 0 included;
    * zech[d] = log(1 + g^d) for 0 <= d < n, which is 2n where 1 + g^d = 0.
    """
    n = p ** m - 1
    zero = (0,) * m
    g = _primitive_element(p, m, modulus)
    powers = []
    power = (1,)
    for _ in range(n):
        powers.append(power + (0,) * (m - len(power)))
        power = pmulmod(power, g, modulus, p)
    log = {x: i for i, x in enumerate(powers)}
    log[zero] = 2 * n
    zech = [log[((power[0] + 1) % p,) + power[1:]] for power in powers]
    return log, powers + powers + [zero] * (2 * n + 1), zech


class ExtensionField(Ring):
    """GF(p^m) = GF(p)[u]/(f); elements are length-m coefficient tuples.

    Up to TABLE_MAX_ORDER every operation is a lookup in the log/antilog and
    Zech tables of `_log_tables`, shared by all descriptors of one (p, m):
    mul, inv and neg add logs, add adds a Zech logarithm, and pow_int and
    pth_root multiply a log mod q - 1; sub and div go through `Ring`.
    Above it, mul is the polynomial product mod f and inv the extended
    Euclid.
    """

    is_field = True
    var = "u"

    def __init__(self, p, m):
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        if m < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.m = m
        self._ident = (p, m)
        self.modulus, tables = _extension_data(p, m)
        self._log, self._exp, self._zech = tables or (None, None, None)
        self._n = p ** m - 1
        self._zero_log = 2 * self._n
        self._neg_log = 0 if p == 2 else self._n // 2      # log(-1)
        self.zero = (0,) * m
        self.one = tuple([1 % p] + [0] * (m - 1))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.m)

    def _pad(self, c):
        c = list(ptrim(c))
        return tuple(c + [0] * (self.m - len(c)))

    def _poly_mul(self, a, b):
        return self._pad(pmulmod(ptrim(a), ptrim(b), self.modulus, self.p))

    def _poly_inv(self, a):
        # extended Euclid on (a, modulus)
        p = self.p
        r0, r1 = ptrim(a), self.modulus
        s0, s1 = (1,), ()
        while r1:
            q, r = pdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        lead_inv = pow(r0[-1], p - 2, p)
        s0 = tuple((c * lead_inv) % p for c in s0)
        _, s0 = pdivmod(s0, self.modulus, p)
        return self._pad(s0)

    def add(self, a, b):
        log = self._log
        if log is None:
            return tuple((x + y) % self.p for x, y in zip(a, b))
        la = log[a]
        if la == self._zero_log:
            return b
        lb = log[b]
        if lb == self._zero_log:
            return a
        # a + b = g^la (1 + g^(lb-la)); a negative index wraps mod q - 1
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a):
        log = self._log
        if log is None:
            return tuple((-x) % self.p for x in a)
        return self._exp[log[a] + self._neg_log]

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._poly_mul(a, b)
        return self._exp[log[a] + log[b]]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        if self._log is None:
            return self._poly_inv(a)
        return self._exp[self._n - self._log[a]]

    def pow_int(self, a, e):
        log = self._log
        if log is None or e < 0:
            return super().pow_int(a, e)
        la = log[a]
        if la == self._zero_log:
            return self.one if e == 0 else self.zero
        return self._exp[la * e % self._n]

    def from_int(self, n):
        return self._pad(((n % self.p),))

    def pth_root(self, a):
        return self.pow_int(a, self.p ** (self.m - 1))

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.m):
            yield tup

    def order(self):
        return self.p ** self.m

    def random_element(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def to_str(self, a):
        return poly_str(ptrim(a), self.var)


class PolynomialRing(Ring):
    """Multivariate polynomials in graded-lex order over any of the above.

    Elements are tuples of (exponent-tuple, coefficient) pairs with nonzero
    coefficients, sorted descending by (total degree, exponents).  Supports
    ring operations and equality, no division.
    """

    def __init__(self, base, varnames):
        self.base = base
        self.varnames = tuple(varnames)
        self._ident = (base, self.varnames)
        self.nvars = len(self.varnames)
        self.p = base.p
        self.zero = ()
        self.one = (((0,) * self.nvars, base.one),)

    def __repr__(self):
        return "%r[%s]" % (self.base, ", ".join(self.varnames))

    @staticmethod
    def _key(exps):
        return (sum(exps), exps)

    def _canon(self, terms):
        return tuple(sorted(
            ((e, c) for e, c in terms.items() if not self.base.is_zero(c)),
            key=lambda t: self._key(t[0]), reverse=True))

    def embed(self, c):
        if self.base.is_zero(c):
            return ()
        return (((0,) * self.nvars, c),)

    def var(self, i):
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return ((exps, self.base.one),)

    def add(self, a, b):
        terms = dict(a)
        for e, c in b:
            terms[e] = self.base.add(terms.get(e, self.base.zero), c)
        return self._canon(terms)

    def neg(self, a):
        return tuple((e, self.base.neg(c)) for e, c in a)

    def mul(self, a, b):
        terms = {}
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(x + y for x, y in zip(ea, eb))
                prod = self.base.mul(ca, cb)
                if e in terms:
                    terms[e] = self.base.add(terms[e], prod)
                else:
                    terms[e] = prod
        return self._canon(terms)

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def evaluate(self, a, values):
        """Evaluate at base-ring values (full specialization)."""
        out = self.base.zero
        for e, c in a:
            term = c
            for v, exp in zip(values, e):
                term = self.base.mul(term, self.base.pow_int(v, exp))
            out = self.base.add(out, term)
        return out

    def random_element(self, rng, max_deg=2):
        terms = {}
        for _ in range(3):
            e = tuple(rng.randrange(max_deg + 1) for _ in range(self.nvars))
            terms[e] = self.base.random_element(rng)
        return self._canon(terms)


# ---------------------------------------------------------------------------
# base-change homomorphisms
# ---------------------------------------------------------------------------

class FieldHom:
    """An injective ring homomorphism between scalar domains."""

    def __init__(self, source, target, fn, description):
        self.source = source
        self.target = target
        self._fn = fn
        self.description = description

    def __call__(self, x):
        return self._fn(x)

    def __repr__(self):
        return "FieldHom(%s)" % self.description


def base_change_map(source, target, m=0):
    """Transport map between scalar domains.

    GF(p)(t) -> GF(p)(s) sends t to s^(p^m); GF(p) embeds into GF(p),
    GF(p^m) or GF(p)(t) with the identity rule (m must be 0).
    """
    if source.p != target.p:
        raise ValueError("incompatible characteristics: %r vs %r" % (source, target))
    p = source.p
    if isinstance(source, PrimeField):
        if m != 0:
            raise ValueError("prime-field base change takes the identity rule")
        if isinstance(target, PrimeField):
            return FieldHom(source, target, lambda x: x, "id on GF(%d)" % p)
        if isinstance(target, ExtensionField):
            return FieldHom(source, target, target.from_int,
                            "GF(%d) -> GF(%d^%d)" % (p, p, target.m))
        if isinstance(target, RationalFunctionField):
            return FieldHom(source, target, target.from_int,
                            "GF(%d) -> %r" % (p, target))
        raise ValueError("unsupported target %r" % target)
    if isinstance(source, RationalFunctionField):
        if not isinstance(target, RationalFunctionField):
            raise ValueError("unsupported target %r" % target)
        q = p ** m
        image = ppow_var(q)

        def fn(x):
            num, den = x
            return target.frac(psubst(num, image, p), psubst(den, image, p))

        return FieldHom(source, target, fn,
                        "%s -> %s, %s -> %s^%d" % (source.var, target.var,
                                                   source.var, target.var, q))
    raise ValueError("unsupported source %r" % source)
