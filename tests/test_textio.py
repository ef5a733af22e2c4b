import glob
import math
import os
import random
import re
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from pradical.envelope import dual_hopf, u_env
from pradical.fields import ExtensionField, PrimeField, RationalFunctionField
from pradical.gallery import (alpha_hopf, mu_hopf, paper_g, resolve,
                              sl2_kernel_char2)
from pradical.lie import RLieAlgebra
from pradical.survey import enumerate_algebras
from pradical.textio import (ParseError, parse_algebra, parse_element,
                             parse_field, parse_hopf, parse_scalar,
                             parse_tensor, print_algebra, print_hopf)

PAPER_G_TEXT = """\
FIELD GF(2)(t)
BASIS X Y Z
BRACKETS
[Z,Y] = Y   // brackets may be given in either order
PPOWERS
X^[p] = X
Y^[p] = t*X
Z^[p] = Z
REP
X = [[1,0],[0,1]]
Y = [[0,t],[1,0]]
Z = [[1,0],[0,0]]
"""


def test_parse_field_literals():
    assert repr(parse_field("GF(7)")) == "GF(7)"
    assert repr(parse_field("GF(9)")) == "GF(3^2)"
    assert repr(parse_field("GF(2^3)")) == "GF(2^3)"
    assert repr(parse_field("GF(5)(t)")) == "GF(5)(t)"
    with pytest.raises(ParseError):
        parse_field("GF(6)")
    with pytest.raises(ParseError):
        parse_field("GF(4)(t)")
    with pytest.raises(ParseError):
        parse_field("Q")
    for bad in ("GF(1)", "GF(0)", "GF(2^0)"):
        with pytest.raises(ParseError, match="not a prime power"):
            parse_field(bad)
    # int() reads these; the literal grammar takes unsigned ASCII digits only
    for bad in ("GF(٣)", "GF(3^٢)", "GF(²)", "GF(1_1)", "GF(٣)(t)",
                "GF(-4)", "GF(2^-1)", "GF(+3)", "GF(2^+3)"):
        with pytest.raises(ParseError, match="bad field order"):
            parse_field(bad)
    # the variable is one name: over GF(2)(1) the p-power t·a printed as
    # `1*a` and read back as a
    for bad in ("GF(2)(1)", "GF(2)(+)", "GF(3)(t^2)"):
        with pytest.raises(ParseError, match="bad field variable"):
            parse_field(bad)
    # the modulus search skips multiples of x and runs Ben-Or's test
    for literal, name in (("GF(2^21)", "GF(2^21)"),
                          ("GF(1000000007^2)", "GF(1000000007^2)"),
                          ("GF(2^100)", "GF(2^100)")):
        started = time.perf_counter()
        assert repr(parse_field(literal)) == name
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("literal", ["GF(2^0)", "GF(2^-1)"])
def test_field_degree_below_one_fails_at_the_field_line(literal):
    text = "// degree\nFIELD %s\nBASIS a\nUNIT a\n" % literal
    for parse in (parse_algebra, parse_hopf):
        with pytest.raises(ParseError, match="not a prime power") as err:
            parse(text)
        assert err.value.line == 2


def test_duplicate_basis_labels_fail_at_the_basis_line():
    with pytest.raises(ParseError, match="duplicate basis labels") as err:
        parse_algebra("FIELD GF(2)\nBASIS X X\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="duplicate basis labels") as err:
        parse_hopf("FIELD GF(2)\nBASIS a a\nUNIT a\nMULT\na*a = a\n")
    assert err.value.line == 2


def test_parse_shipped_document_matches_gallery():
    g, rep = parse_algebra(PAPER_G_TEXT)
    gp, repp = paper_g(2)
    assert g.brackets == gp.brackets and g.ppowers == gp.ppowers
    assert rep == repp
    assert g.validate()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra("FIELD GF(2)\nBASIS X Y\nBRACKETS\n[X,X] = Y\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_algebra("FIELD GF(2)\nBASIS X Y\nBRACKETS\n[X,W] = Y\n")
    assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_algebra("FIELD GF(2)\nBASIS X Y\nPPOWERS\nX^[p] = 1 + X\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_algebra("BASIS X\nPPOWERS\n")
    # integers are ASCII digits, and no longer than Python converts
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_algebra("FIELD GF(2)\nBASIS X\nPPOWERS\nX^[p] = X^\u00b2\n")
    assert (err.value.line, err.value.column) == (4, 3)
    with pytest.raises(ParseError, match="5000 digits is too long") as err:
        parse_algebra("FIELD GF(2)\nBASIS X\nPPOWERS\nX^[p] = X + %s*X\n"
                      % ("1" * 5000))
    assert (err.value.line, err.value.column) == (4, 5)


def test_a_zero_self_bracket_is_accepted():
    g, _ = parse_algebra("FIELD GF(2)\nBASIS X Y\nBRACKETS\n[X,X] = 0\n"
                         "[X,Y] = Y\n")
    h, _ = parse_algebra("FIELD GF(2)\nBASIS X Y\nBRACKETS\n[Y,X] = Y\n")
    assert g.brackets == h.brackets and g.ppowers == h.ppowers


@pytest.mark.parametrize("text,expected", [
    ("--X", (1, 0)),
    ("2*-X", (-2, 0)),
    ("X - -Y", (1, 1)),
    ("X - Y", (1, -1)),
    ("-X + -2*Y", (-1, -2)),
    # the minus applies to the power: -(2^2), not (-2)^2
    ("-2^2*X", (-4, 0)),
])
def test_a_minus_sign_negates_the_next_factor(text, expected):
    F = PrimeField(5)
    assert parse_element(F, ("X", "Y"), text) == tuple(map(F.from_int,
                                                           expected))


def test_a_minus_sign_before_a_tensor_term():
    F = PrimeField(5)
    assert parse_tensor(F, ("a", "b"), "- a # b") == (0, F.from_int(-1), 0, 0)
    assert parse_tensor(F, ("a", "b"), "b # a - 2*a # b") == (
        0, F.from_int(-2), 1, 0)


ALG = "FIELD GF(3)\nBASIS X Y\n"
HOPF = "FIELD GF(3)\nBASIS a b\nUNIT a\n"


@pytest.mark.parametrize("parse,text,message,line,column", [
    (parse_algebra, ALG + "REP\nX = [[1,0],[0]]\nY = [[1,0],[0,1]]\n",
     "matrix must be square", 4, None),
    (parse_algebra, ALG + "REP\nX = [[1,0],[0,1]]\n",
     "REP must assign a matrix to every basis label", None, None),
    (parse_algebra, ALG + "REP\nX = [[1,0],[0,1]]\nY = [[1]]\n",
     "REP matrices must share a size", None, None),
    (parse_algebra, ALG + "PPOWERS\nX^[p] X\n", "expected '='", 4, None),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = X # Y\n",
     "tensor term outside comultiplication", 4, 3),
    (parse_hopf, HOPF + "COMULT\ndelta(a) = a # b # a\n", "nested tensor",
     5, 10),
    (parse_hopf, HOPF + "COMULT\ndelta(a) = 2 # b\n",
     "tensor legs must be basis labels", 5, None),
    (parse_hopf, HOPF + "COMULT\ndelta(a) = a # b + b\n",
     "non-tensor term in comultiplication", 5, None),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = 2^X\n",
     "exponent must be an integer", 4, 3),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = X^2\n",
     "cannot exponentiate a basis label", 4, 3),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = X/(3 + 0)\n", "division by zero",
     4, 10),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = (1 + X)*Y\n",
     "parenthesized labels are not supported", 4, 7),
    (parse_algebra, ALG + "PPOWERS\nX^[p] = *X\n", "unexpected token '*'",
     4, 1),
    # a left-hand side is matched against its section's shape
    (parse_algebra, ALG + "BRACKETS\n[X;Y] = X\n", "expected '[A,B] = ...'",
     4, None),
    (parse_algebra, ALG + "PPOWERS\nX^p = X\n", "expected 'A^[p] = ...'", 4,
     None),
    (parse_hopf, HOPF + "MULT\na*c = a\n", "unknown basis label 'c'", 5,
     None),
    (parse_hopf, HOPF + "MULT\na+b = a\n", "expected 'A*B = ...'", 5, None),
    (parse_hopf, HOPF + "COMULT\ndelta(a) a # a\n", "expected '='", 5, None),
    (parse_hopf, HOPF + "COUNIT\neps(a, b) = 1\n",
     "unknown basis label 'a, b'", 5, None),
    (parse_hopf, HOPF + "ANTIPODE\nS[a] = a\n", "expected 'S(A) = ...'", 5,
     None),
])
def test_parse_errors_name_line_and_column(parse, text, message, line,
                                           column):
    with pytest.raises(ParseError) as err:
        parse(text)
    where = "" if line is None else " at line %d" % line
    where += "" if column is None else ", column %d" % column
    assert str(err.value) == message + where
    assert (err.value.line, err.value.column) == (line, column)


def test_rep_matrices_may_carry_whitespace():
    g, rep = parse_algebra(ALG + "BRACKETS\n[X,Y] = Y\nREP\n"
                           "X = [[1, 0], [0, 1]]\nY = [ [0 ,1] ,[0, 0 ] ]\n")
    h, compact = parse_algebra(ALG + "BRACKETS\n[X,Y] = Y\nREP\n"
                               "X = [[1,0],[0,1]]\nY = [[0,1],[0,0]]\n")
    assert rep == compact
    assert print_algebra(g, rep).endswith(
        "REP\nX = [[1,0],[0,1]]\nY = [[0,1],[0,0]]\n")
    # a space is not a separator inside a row
    with pytest.raises(ParseError, match="trailing input") as err:
        parse_algebra(ALG + "REP\nX = [[1 0],[0,1]]\nY = [[1,0],[0,1]]\n")
    assert (err.value.line, err.value.column) == (4, 3)


def test_alg_roundtrip_is_byte_identical():
    g, rep = parse_algebra(PAPER_G_TEXT)
    canon = print_algebra(g, rep)
    g2, rep2 = parse_algebra(canon)
    assert print_algebra(g2, rep2) == canon


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_alg_roundtrip_on_enumerated_instances(seed):
    rng = random.Random(seed)
    instances = list(enumerate_algebras(PrimeField(2), 2))
    g = instances[rng.randrange(len(instances))]
    canon = print_algebra(g)
    g2, rep2 = parse_algebra(canon)
    assert rep2 is None
    assert g2.brackets == g.brackets and g2.ppowers == g.ppowers
    assert print_algebra(g2) == canon


def test_element_expressions():
    K = RationalFunctionField(2)
    t = K.t
    vec = parse_element(K, ("X", "Y"), "(t^2 + t)/t * X + Y - Y")
    assert vec == (K.add(t, K.one), K.zero)
    E = ExtensionField(2, 2)
    vec = parse_element(E, ("A", "B"), "u*A + (u + 1)*B")
    assert vec[0] == (0, 1)
    with pytest.raises(ParseError):
        parse_element(K, ("X",), "X*X")
    with pytest.raises(ParseError):
        parse_element(K, ("X",), "1/X")


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (2, 3), (3, 2)])
def test_the_extension_generator_is_u_mod_f(p, m):
    """`u` parses to u mod f: the class of u in GF(p)[u]/(f), which is the
    constant −f(0) when f has degree 1, so 0 for f = u."""
    F = ExtensionField(p, m)
    u = F.u
    assert parse_scalar(F, "u") == u
    # f(u) = 0, summed by Horner's rule from the top coefficient
    acc = F.zero
    for c in reversed(F.modulus):
        acc = F.add(F.mul(acc, u), F.from_int(c))
    assert acc == F.zero
    if m == 1:
        assert u == F.from_int(-F.modulus[0])
    else:
        assert u == (0, 1) + (0,) * (m - 2)


def test_hopf_roundtrip():
    for H in (alpha_hopf(2, 2), mu_hopf(3), u_env(sl2_kernel_char2()),
              dual_hopf(u_env(sl2_kernel_char2()))):
        text = print_hopf(H)
        H2 = parse_hopf(text)
        assert (H2._terms, H2.unit, H2._coflat, H2.counit,
                H2._antipode_terms) == \
            (H._terms, H.unit, H._coflat, H.counit, H._antipode_terms)
        assert print_hopf(H2) == text
        assert H2.validate_hopf()


# -- fuzzing: mutated documents raise ParseError and nothing else -------------

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fuzz_corpus():
    docs = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*"))):
        with open(path, encoding="utf-8") as fh:
            docs.append(fh.read())
    docs.append(print_algebra(*paper_g(3)))
    for name in ("sl2-kernel@p=2", "torus@3^2", "product(alpha@2,mu@2)"):
        docs.append(print_algebra(resolve(name)))
    F4 = ExtensionField(2, 2)
    u = (0, 1)
    docs.append(print_algebra(RLieAlgebra.from_upper(
        F4, 2, {(0, 1): (F4.zero, u)}, [(F4.zero, F4.zero), (F4.zero, u)],
        labels=("A", "B"))))
    for name in ("alpha4", "mu3", "dual(env(sl2-kernel@p=2))",
                 "product(alpha2,mu2)"):
        docs.append(print_hopf(resolve(name)))
    return docs


CORPUS = _fuzz_corpus()
TOKENS = ("FIELD ", "BASIS ", "UNIT ", "BRACKETS\n", "PPOWERS\n", "REP\n",
          "MULT\n", "COMULT\n", "COUNIT\n", "ANTIPODE\n", "delta(", "eps(",
          "S(", "^[p]", "[[", "],[", " = ", " # ", "GF(", "(t)", "//", "^2",
          "^0", "^-1", "/0", "u", "t")
CHARS = "0123456789 ()[]^*+-/#=,.XYZabtuvx_'\n"
FIELDS = ("GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(2^3)", "GF(2^0)", "GF(3^-1)",
          "GF(1)", "GF(6)", "GF(4^2)", "GF(5)(t)", "GF(4)(t)", "GF(3)()", "Q",
          "GF(2)(", "GF(2^)")
# errors about the document as a whole carry no line number
DOCUMENT_ERRORS = {"missing FIELD line", "missing BASIS line",
                   "need FIELD, BASIS and UNIT lines",
                   "REP must assign a matrix to every basis label",
                   "REP matrices must share a size"}


@st.composite
def mutated_documents(draw):
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        lines = text.split("\n")
        op = draw(st.integers(0, 6))
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(0, len(lines) - 1))
        k = draw(st.integers(0, len(lines) - 1))
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + draw(st.sampled_from(CHARS)) + text[i:]
        elif op == 2:
            text = text[:i] + draw(st.sampled_from(TOKENS)) + text[i:]
        elif op == 3:
            del lines[j]
        elif op == 4:
            lines.insert(k, lines[j])
        elif op == 5:
            lines[j], lines[k] = lines[k], lines[j]
        else:
            field = "FIELD " + draw(st.sampled_from(FIELDS))
            lines = [field if ln.startswith("FIELD") else ln for ln in lines]
        if op >= 3:
            text = "\n".join(lines)
    return text


def _small(text):
    """Field orders and exponents stay small: GF(n) for a large prime n
    (trial division), GF(p^m) for a large m (the search for an irreducible
    polynomial) and t^n for a large n do not finish."""
    if any(len(n) > 3 for n in re.findall(r"\d+", text)):
        return False
    return all(math.prod(int(n) for n in re.findall(r"\d+", line)) <= 32
               for line in text.splitlines() if "FIELD" in line)


@given(mutated_documents())
@settings(max_examples=500, deadline=None)
def test_parsers_raise_only_parse_errors_with_lines(text):
    assume(_small(text))
    for parse in (parse_algebra, parse_hopf):
        try:
            parse(text)
        except ParseError as err:
            assert err.line is not None or str(err) in DOCUMENT_ERRORS, err


@pytest.mark.parametrize("F", [ExtensionField(2, 2),
                               RationalFunctionField(3, "x")],
                         ids=repr)
def test_a_label_named_like_the_generator_round_trips(F):
    """Labels (u, v) over GF(4), or (x, v) over GF(3)(x), with the first
    p-power the generator times the second label: printed as is, the
    generator would read back as the label, and the line fails as a
    product of two labels.  The printer renames the label instead."""
    gen = F.var
    zero = (F.zero, F.zero)
    scalar = F.u if isinstance(F, ExtensionField) else F.t
    g = RLieAlgebra(F, 2, ((zero, zero), (zero, zero)),
                    ((F.zero, scalar), zero), labels=(gen, "v"))
    text = print_algebra(g)
    assert "BASIS %s_2 v\n" % gen in text
    assert "%s_2^[p] = %s*v\n" % (gen, gen) in text
    h, rep = parse_algebra(text)
    assert rep is None and h.labels == (gen + "_2", "v")
    assert (h.field, h.brackets, h.ppowers) == (F, g.brackets, g.ppowers)
    assert print_algebra(h) == text
