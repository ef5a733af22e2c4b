import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import fields_reference as ref
from pradical import fields, gallery, radical
from pradical.fields import (TABLE_MAX_ORDER, ExtensionField, PrimeField,
                             RationalFunctionField, base_change_map,
                             find_irreducible, is_prime, pdivmod, pmul,
                             prime_power, ptrim)
from pradical.textio import ParseError, parse_field

FIELDS = [PrimeField(2), PrimeField(5), ExtensionField(2, 2),
          ExtensionField(3, 2), ExtensionField(2, 3), ExtensionField(2, 8),
          ExtensionField(257, 2), RationalFunctionField(2),
          RationalFunctionField(3), RationalFunctionField(7),
          RationalFunctionField(13)]


def _element(F, rng):
    return F.random_element(rng)


@st.composite
def field_and_elements(draw, count):
    F = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return F, [_element(F, rng) for _ in range(count)]


@given(field_and_elements(3))
@settings(max_examples=150, deadline=None)
def test_field_axioms(data):
    F, (a, b, c) = data
    assert F.eq(F.add(a, b), F.add(b, a))
    assert F.eq(F.mul(a, b), F.mul(b, a))
    assert F.eq(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
    assert F.eq(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
    assert F.eq(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
    assert F.eq(F.add(a, F.zero), a)
    assert F.eq(F.mul(a, F.one), a)
    assert F.is_zero(F.sub(a, a))
    if not F.is_zero(a):
        assert F.eq(F.mul(a, F.inv(a)), F.one)


@given(field_and_elements(2))
@settings(max_examples=100, deadline=None)
def test_frobenius_is_additive(data):
    F, (a, b) = data
    p = F.p
    lhs = F.pow_int(F.add(a, b), p)
    rhs = F.add(F.pow_int(a, p), F.pow_int(b, p))
    assert F.eq(lhs, rhs)


@given(field_and_elements(1))
@settings(max_examples=100, deadline=None)
def test_pth_components_reconstruct(data):
    F, (a,) = data
    comps = F.pth_components(a)
    assert len(comps) == len(F.pth_basis)
    total = F.zero
    for basis_elt, c in zip(F.pth_basis, comps):
        total = F.add(total, F.mul(basis_elt, F.pow_int(c, F.p)))
    assert F.eq(total, a)


def test_pth_root_on_perfect_fields(rng):
    for F in (PrimeField(5), ExtensionField(2, 3)):
        for _ in range(20):
            a = F.random_element(rng)
            r = F.pth_root(F.pow_int(a, F.p))
            assert F.eq(r, a)


def test_pth_root_detects_non_powers(K2t):
    t = K2t.t
    assert K2t.pth_root(K2t.mul(t, t)) == t
    assert K2t.pth_root(t) is None


def _brute_force_irreducible(p, m):
    """The first monic irreducible of degree m in coefficient-tuple order,
    constant term first, by trial division by every monic polynomial of
    degree at most m/2."""
    for tail in itertools.product(range(p), repeat=m):
        f = tail + (1,)
        if all(pdivmod(f, g + (1,), p)[1]
               for d in range(1, m // 2 + 1)
               for g in itertools.product(range(p), repeat=d)):
            return f


def test_find_irreducible_matches_trial_division():
    orders = [(p, m) for p in range(2, 65) if is_prime(p)
              for m in range(1, 13) if p ** m <= 4096]
    assert len(orders) == 58
    for p, m in orders:
        assert find_irreducible(p, m) == _brute_force_irreducible(p, m), (p, m)


def test_find_irreducible_is_deterministic_and_irreducible():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 3) == (1, 0, 1, 1)
    f = find_irreducible(3, 2)
    # no roots in GF(3)
    for a in range(3):
        val = sum(c * a ** i for i, c in enumerate(f)) % 3
        assert val != 0


# -- GF(p^m) tables against the polynomial product ----------------------------

def _product(F, a, b):
    """a·b in GF(p^m) from pmul and pdivmod by the modulus."""
    r = pdivmod(pmul(ptrim(a), ptrim(b), F.p), F.modulus, F.p)[1]
    return r + (0,) * (F.m - len(r))


def _power(F, a, e):
    out = F.one
    while e:
        if e & 1:
            out = _product(F, out, a)
        a = _product(F, a, a)
        e >>= 1
    return out


def _check_against_the_product(F, elements, pairs):
    p, q = F.p, F.order()
    for a, b in pairs:
        prod = F.mul(a, b)
        assert prod == _product(F, a, b), (a, b)
        assert F.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
        assert F.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
        if any(b):
            # mul is checked, and x -> x·b is injective
            assert F.mul(F.div(a, b), b) == a
            assert F.div(prod, b) == a
    for a in elements:
        assert F.neg(a) == tuple((-x) % p for x in a)
        if any(a):
            assert F.inv(a) == _power(F, a, q - 2)
        for e in (0, 1, 2, p, q - 2, q - 1, q, 2 * q + 3):
            assert F.pow_int(a, e) == _power(F, a, e), (a, e)
        frob = _power(F, a, p)
        root = a
        for _ in range(F.m - 1):
            root = _power(F, root, p)
        assert F.pth_root(a) == root and F.pth_components(a) == [root]
        assert F.pth_root(frob) == a
    message = r"^inverse of 0 in GF\(%d\^%d\)$" % (p, F.m)
    with pytest.raises(ZeroDivisionError, match=message):
        F.inv(F.zero)
    with pytest.raises(ZeroDivisionError, match=message):
        F.div(F.one, F.zero)
    with pytest.raises(ValueError, match="negative exponent"):
        F.pow_int(F.one, -1)


# every GF(p^m) with p^m <= 256 and m >= 2, and the prime fields p <= 13
SMALL_EXTENSIONS = [(p, m) for p in range(2, 257) if is_prime(p)
                    for m in range(1, 9)
                    if p ** m <= 256 and (m > 1 or p <= 13)]


@pytest.mark.parametrize("p, m", SMALL_EXTENSIONS)
def test_tables_match_the_polynomial_product_on_all_pairs(p, m):
    F = ExtensionField(p, m)
    assert F._log is not None
    elements = list(F.elements())
    _check_against_the_product(F, elements,
                               itertools.product(elements, repeat=2))


def _largest_tabled_order():
    """(p, m) of the largest p^m <= TABLE_MAX_ORDER with m >= 2."""
    for q in range(TABLE_MAX_ORDER, 3, -1):
        split = prime_power(q)
        if split and split[1] > 1:
            return split


def test_largest_table_builds_in_under_a_second():
    p, m = _largest_tabled_order()
    fields._EXTENSION_DATA.pop((p, m), None)
    started = time.perf_counter()
    F = ExtensionField(p, m)
    assert time.perf_counter() - started < 1.0
    assert F._log is not None and len(F._log) == p ** m


def test_tables_match_the_polynomial_product_at_the_largest_order():
    p, m = _largest_tabled_order()
    F = ExtensionField(p, m)
    rng = random.Random(20261019)
    elements = [F.random_element(rng) for _ in range(100)] + [F.zero, F.one]
    pairs = [(rng.choice(elements), rng.choice(elements))
             for _ in range(2000)]
    _check_against_the_product(F, elements, pairs)


def test_above_the_table_order_the_product_is_the_only_path():
    F = ExtensionField(257, 2)
    assert F.order() > TABLE_MAX_ORDER and F._log is None
    rng = random.Random(7)
    elements = [F.random_element(rng) for _ in range(40)] + [F.zero, F.one]
    _check_against_the_product(F, elements,
                               itertools.product(elements, repeat=2))


def test_extension_field_structure(F8):
    elems = list(F8.elements())
    assert len(elems) == 8
    # multiplicative group has order 7
    a = (0, 1, 0)
    acc = F8.one
    for _ in range(7):
        acc = F8.mul(acc, a)
    assert F8.eq(acc, F8.one)


# the primes of the GF(p)(t) property tests: certify runs GF(p)(t) at each
PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def poly_operands(draw):
    """A prime p and two polynomials a, b over GF(p), each zero, a nonzero
    constant or a random polynomial; b is sometimes -a, a multiple of a, or
    shares a factor with a.  Returns (p, a, b, ua, ub), where ua and ub are
    a and b with up to two trailing zeros."""
    p = draw(st.sampled_from(PRIMES))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def poly(kind):
        if kind == "zero":
            return ()
        if kind == "constant":
            return (rng.randrange(1, p),)
        return ref.ptrim([rng.randrange(p) for _ in range(rng.randrange(1, 8))])

    kinds = ("zero", "constant", "poly")
    a = poly(draw(st.sampled_from(kinds)))
    relation = draw(st.sampled_from(("free", "negated", "multiple", "common")))
    if relation == "negated":
        b = ref.pneg(a, p)
    elif relation == "multiple":
        b = ref.pmul(a, poly("poly"), p)
    elif relation == "common":
        factor = poly("poly")
        a = ref.pmul(a, factor, p)
        b = ref.pmul(poly(draw(st.sampled_from(kinds))), factor, p)
    else:
        b = poly(draw(st.sampled_from(kinds)))
    ua = a + (0,) * draw(st.integers(0, 2))
    ub = b + (0,) * draw(st.integers(0, 2))
    return p, a, b, ua, ub


@given(poly_operands())
@settings(max_examples=400, deadline=None)
def test_polynomial_helpers_match_the_reference(data):
    """Untrimmed operands give the reference's answers on the trimmed ones
    (the reference divides only by trimmed divisors)."""
    p, a, b, ua, ub = data
    assert fields.ptrim(ua) == a
    assert fields.pneg(ua, p) == ref.pneg(ua, p)
    assert fields.padd(ua, ub, p) == ref.padd(a, b, p)
    assert fields.psub(ua, ub, p) == ref.psub(a, b, p)
    assert fields.pmul(ua, ub, p) == ref.pmul(a, b, p)
    assert fields.pmonic(a, p) == ref.pmonic(a, p)
    assert fields.pgcd(ua, ub, p) == ref.pgcd(a, b, p)
    if not b:
        with pytest.raises(ZeroDivisionError):
            pdivmod(ua, ub, p)
        return
    q, r = pdivmod(ua, ub, p)
    assert (q, r) == ref.pdivmod(a, b, p)
    assert ref.padd(ref.pmul(q, b, p), r, p) == a and len(r) < len(b)
    assert RationalFunctionField(p).frac(ua, ub) == ref.frac(p, a, b)


def test_divisor_with_a_trailing_zero_is_trimmed_first():
    """Such a divisor used to make pdivmod, and so pgcd, divide by its zero
    top coefficient without end."""
    assert pdivmod((1, 2), (1, 0), 3) == ((1, 2), ())
    assert fields.pgcd((1, 1), (1, 0), 3) == (1,)
    assert pdivmod((0, 1, 1), (1, 1, 0, 0), 5) == ((0, 1), ())
    assert fields.pgcd((0, 1, 1), (0, 0, 1, 0), 5) == (0, 1)
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        pdivmod((1,), (0, 0), 3)


@st.composite
def ratfunc_operands(draw):
    """Two GF(p)(t) elements, each zero, one, a nonzero constant, a
    polynomial or a general fraction; b is sometimes -a, so that the sum
    cancels, and sometimes a plus a polynomial, so that the denominators
    are equal."""
    p = draw(st.sampled_from(PRIMES))
    K = RationalFunctionField(p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def polynomial():
        return ref.ptrim([rng.randrange(p) for _ in range(rng.randrange(1, 6))])

    def operand(kind):
        if kind == "zero":
            return K.zero
        if kind == "one":
            return K.one
        if kind == "constant":
            return ((rng.randrange(1, p),), (1,))
        if kind == "poly":
            return ref.frac(p, polynomial(), (1,))
        return K.random_element(rng)

    kinds = ("zero", "one", "constant", "poly", "general")
    a = operand(draw(st.sampled_from(kinds)))
    relation = draw(st.sampled_from(("free", "negated", "same-den")))
    if relation == "negated":
        b = (ref.pneg(a[0], p), a[1])
    elif relation == "same-den":
        b = ref.add(p, a, ref.frac(p, polynomial(), (1,)))
    else:
        b = operand(draw(st.sampled_from(kinds)))
    return K, a, b


@given(ratfunc_operands())
@settings(max_examples=400, deadline=None)
def test_ratfunc_add_mul_match_textbook_fractions(data):
    K, a, b = data
    p = K.p
    assert K.add(a, b) == ref.add(p, a, b)
    assert K.sub(a, b) == ref.add(p, a, (ref.pneg(b[0], p), b[1]))
    assert K.mul(a, b) == ref.mul(p, a, b)
    if b[0]:
        assert K.inv(b) == ref.inv(p, b)
        assert K.div(a, b) == ref.mul(p, a, ref.inv(p, b))


def _pgcd_calls(monkeypatch, target):
    """pgcd calls made by rad_p on a freshly built gallery algebra."""
    g = gallery.resolve(target)
    calls = []
    pgcd = fields.pgcd

    def counted(*args):
        calls.append(None)
        return pgcd(*args)

    with monkeypatch.context() as patch:
        patch.setattr(fields, "pgcd", counted)
        radical.rad_p(g)
    return len(calls)


@pytest.mark.parametrize("target, most", [
    ("paper-G@p=5", 2),                                   # 46 with gcds per sum
    ("product(paper-G@p=2,paper-G@p=2)", 2821),           # 7,506
])
def test_rad_p_over_ratfunc_takes_few_gcds(monkeypatch, target, most):
    """A cost guard without timing: a sum with a zero, polynomial or
    equal-denominator operand, a product with a zero, one or polynomial
    factor, an inverse, and elimination at the zero entries of a pivot row
    take no gcd."""
    assert _pgcd_calls(monkeypatch, target) <= most


def test_rational_function_reduction(K2t):
    t = K2t.t
    # (t^2 + t) / t reduces to t + 1
    num = K2t.mul(t, K2t.add(t, K2t.one))
    frac = K2t.mul(num, K2t.inv(t))
    assert frac == K2t.add(t, K2t.one)


def test_base_change_maps_compose(F2, F8, K2t):
    embed = base_change_map(F2, F8)
    assert F8.eq(embed(F2.one), F8.one)
    insep = base_change_map(K2t, RationalFunctionField(2, "s"), m=1)
    img = insep(K2t.t)
    s = insep.target.t
    assert img == insep.target.mul(s, s)
    for a in (K2t.one, K2t.add(K2t.t, K2t.one)):
        ap = K2t.mul(a, a)
        assert insep(ap) == insep.target.mul(insep(a), insep(a))


def test_prime_power_split():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(1024) == (2, 10)
    for n in (-4, 0, 1, 6, 12, 100):
        assert prime_power(n) is None
    assert [n for n in range(-3, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- primality above the trial-division limit -----------------------------

# Carmichael numbers, and strong pseudoprimes to every prime base up to 2,
# 3, 5, 7, 11, 13, 17, 23 and 37 in turn (the least of each)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461)


def test_miller_rabin_matches_trial_division(monkeypatch):
    """With the trial-division limit at 2 every n takes the Miller–Rabin
    and integer-root path, which must give the trial-division answers."""
    small = range(-3, 10 ** 5)
    want_prime = [n for n in small if is_prime(n)]
    want_power = [prime_power(n) for n in small]
    monkeypatch.setattr(fields, "_TRIAL_LIMIT", 2)
    assert [n for n in small if is_prime(n)] == want_prime
    assert [prime_power(n) for n in small] == want_power
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES[:4]:
        assert not is_prime(n) and prime_power(n) is None
        assert prime_power(n * n) is None


def test_large_primes_and_prime_powers():
    p = 100000000000000000039
    assert fields._TRIAL_LIMIT < p < fields._MR_LIMIT
    assert is_prime(p) and prime_power(p) == (p, 1)
    assert prime_power(p ** 3) == (p, 3)
    assert prime_power(p * (p + 2)) is None
    assert prime_power(2 ** 100) == (2, 100)
    assert prime_power(3 ** 50) == (3, 50)
    assert prime_power(4294967311 ** 2) == (4294967311, 2)
    assert prime_power(p ** 150) == (p, 150)
    assert prime_power((p * 10007) ** 6) is None      # p·10007 < the bound
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES:
        assert not is_prime(n) and prime_power(n) is None
    # the least strong pseudoprime to the 13 bases is where exactness ends:
    # it is composite, and is refused rather than called prime
    psi13 = 3317044064679887385961981
    assert psi13 == fields._MR_LIMIT == 1287836182261 * 2575672364521
    with pytest.raises(fields.PrimalityUndecided):
        is_prime(psi13)
    with pytest.raises(fields.PrimalityUndecided):
        prime_power(psi13)
    assert not is_prime(psi13 + 2)      # divisible by 3


def test_large_field_literals_parse_at_once():
    started = time.perf_counter()
    F = parse_field("GF(100000000000000000039)")
    assert F == PrimeField(100000000000000000039)
    assert parse_field("GF(4294967311^2)").p == 4294967311
    with pytest.raises(ParseError, match="bad field order"):
        parse_field("GF(3317044064679887385961981)")
    with pytest.raises(ParseError, match="bad field order"):
        parse_field("GF(3317044064679887385961981^2)")
    with pytest.raises(ParseError, match="not a prime power"):
        parse_field("GF(%d)" % (4294967311 * 4294967357))
    # past the bound nothing is guessed, and nothing costs a modular power
    # of a 4,001-digit number
    with pytest.raises(ParseError, match="bad field order"):
        parse_field("GF(%d)" % (10 ** 4000 + 1))
    assert time.perf_counter() - started < 1.0
