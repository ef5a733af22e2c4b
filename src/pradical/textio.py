"""Line-oriented text formats for algebras (.alg) and coordinate rings
(.hopf), with canonical printing that round-trips byte-identically.

Both formats share one grammar: a header of FIELD and BASIS lines (plus UNIT
for .hopf), then sections of `lhs = expr` lines, where expr is a sum of
terms built from integers, the field generator, basis labels, `*`, `/`,
`^` and parentheses around scalars.  Every malformed document raises
ParseError, with the line (and, inside an expression, the column) at fault.

.alg sections:  FIELD, BASIS, BRACKETS ([A,B] = expr), PPOWERS (A^[p] = expr),
optional REP (A = [[...],[...]]).  Unspecified brackets and p-powers are 0.

.hopf sections: FIELD, BASIS, UNIT, MULT (a*b = expr), COMULT
(delta(a) = x # y + ...), COUNIT (eps(a) = scalar), ANTIPODE (S(a) = expr).

Each section's left-hand side is written once, in `_ALG_SECTIONS` and
`_HOPF_SECTIONS`, which the parser and the printer both read.
"""

from __future__ import annotations

import functools
import re

from .fields import (ExtensionField, PrimalityUndecided, PrimeField,
                     RationalFunctionField, is_prime, prime_power)
from .hopf import HopfAlgebra
from .lie import RLieAlgebra
from .linalg import vec_terms


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = " at line %d" % line
            if column is not None:
                loc += ", column %d" % column
        super().__init__(message + loc)
        self.line = line
        self.column = column


# -- numbers and field literals -------------------------------------------------

_UNSIGNED = re.compile(r"[0-9]+")


def parse_unsigned(text):
    """The number that text writes in unsigned ASCII digits, as `_tokenize`
    reads integers; None for any other text, or for more digits than
    sys.get_int_max_str_digits().  int() alone also reads "٣", "1_1",
    "+3", "-4" and " 3"."""
    if not _UNSIGNED.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def parse_field(text, line=None):
    text = text.strip().replace(" ", "")
    rational = False
    var = "t"
    if text.endswith(")") and "(" in text[3:]:
        head, _, tail = text.rpartition("(")
        if head.startswith("GF(") and head.endswith(")"):
            rational = True
            var = tail[:-1] or "t"
            text = head
    if not (text.startswith("GF(") and text.endswith(")")):
        raise ParseError("unrecognized field literal %r" % text, line)
    if not _is_name(var):
        # an element would print the variable as a token it does not read
        raise ParseError("bad field variable %r: not a name" % var, line)
    body = text[3:-1]
    ptxt, caret, mtxt = body.partition("^")
    p, m = parse_unsigned(ptxt), (parse_unsigned(mtxt) if caret else 1)
    if p is None or m is None:
        raise ParseError("bad field order %r: not a prime power p or p^m"
                         % body, line)
    try:
        if not caret:
            split = prime_power(p)
            if split is None:
                raise ParseError("field order is not a prime power", line)
            p, m = split
        elif not is_prime(p):
            raise ParseError("characteristic %d is not prime" % p, line)
    except PrimalityUndecided as exc:
        raise ParseError("bad field order %r: %s" % (body, exc), line)
    if rational:
        if m != 1:
            raise ParseError("rational function fields need a prime base "
                             "field", line)
        return RationalFunctionField(p, var)
    if m == 1:
        return PrimeField(p)
    if m < 1:
        raise ParseError("field order is not a prime power", line)
    return ExtensionField(p, m)


# -- expression parsing --------------------------------------------------------


_DIGITS = frozenset("0123456789")


def _tokenize(text, line):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:      # longer than sys.get_int_max_str_digits()
                raise ParseError("integer of %d digits is too long" % (j - i),
                                 line, i + 1)
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()#":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, i + 1)
    tokens.append(("end", None, len(text)))
    return tokens


def _is_name(text):
    """Whether `_tokenize` reads text as one name."""
    try:
        return [kind for kind, _, _ in _tokenize(text, None)] == ["name",
                                                                  "end"]
    except ParseError:
        return False


def _generator(F):
    """(name, value) of the generator an expression over F may name: t
    of GF(p)(t) and u of GF(p^m); None over GF(p)."""
    if isinstance(F, RationalFunctionField):
        return F.var, F.t
    if isinstance(F, ExtensionField):
        return F.var, F.u
    return None


class _ExprParser:
    """Linear combinations of basis labels with scalar coefficients.

    Terms multiply scalars and at most one label; labels cannot be divided
    by or exponentiated.  Returns a coefficient vector over the basis plus
    a pure-scalar part.
    """

    def __init__(self, F, labels, text, line, tensor=False):
        self.F = F
        self.labels = {lb: i for i, lb in enumerate(labels)}
        self.n = len(labels)
        self.line = line
        self.tensor = tensor
        self.tokens = _tokenize(text, line)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg):
        tok = self.tokens[self.pos]
        raise ParseError(msg, self.line, tok[2] + 1)

    def parse_sum(self, close="end"):
        """Returns (scalar, coeff-vector, tensor-terms) of a sum that runs to
        `close`: the end of the text, or ")" for a parenthesized scalar,
        whose terms may not carry labels.  A "-" is the unary minus of the
        next factor, so only a "+" separates terms here."""
        F = self.F
        scalar = F.zero
        vec = [F.zero] * self.n
        tens = []
        while True:
            if self.peek() == "+":
                self.next()
            c, idx, pair = self.parse_term()
            if close == ")" and (idx is not None or pair is not None):
                self.fail("parenthesized labels are not supported")
            if pair is not None:
                tens.append((c,) + pair)
            elif idx is None:
                scalar = F.add(scalar, c)
            else:
                vec[idx] = F.add(vec[idx], c)
            if self.peek() not in ("+", "-"):
                break
        if self.peek() != close:
            self.fail("trailing input" if close == "end" else "expected ')'")
        self.next()
        return scalar, tuple(vec), tens

    def parse_term(self):
        """Returns (scalar, label-index or None, tensor-pair or None)."""
        F = self.F
        pair = None
        scalar, idx = self.parse_factor()
        while True:
            op = self.peek()
            if op == "*":
                self.next()
                c, i = self.parse_factor()
                if i is not None:
                    if idx is not None:
                        self.fail("product of two basis labels")
                    idx = i
                scalar = F.mul(scalar, c)
            elif op == "/":
                self.next()
                c, i = self.parse_factor()
                if i is not None:
                    self.fail("cannot divide by a basis label")
                if F.is_zero(c):
                    self.fail("division by zero")
                scalar = F.mul(scalar, F.inv(c))
            elif op == "#":
                if not self.tensor:
                    self.fail("tensor term outside comultiplication")
                self.next()
                c2, idx2, pair2 = self.parse_term()
                if pair2 is not None:
                    self.fail("nested tensor")
                scalar = F.mul(scalar, c2)
                pair = (idx if idx is not None else -1,
                        idx2 if idx2 is not None else -1)
                idx = None
                break
            else:
                break
        return scalar, idx, pair

    def parse_factor(self):
        F = self.F
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        kind, value, col = self.next()
        if kind == "int":
            out, idx = F.from_int(value), None
        elif kind == "name":
            if value in self.labels:
                out, idx = F.one, self.labels[value]
            else:
                out, idx = self._named_scalar(value, col), None
        elif kind == "(":
            out, idx = self.parse_sum(")")[0], None
        else:
            raise ParseError("unexpected token %r" % (value,),
                             self.line, col + 1)
        if self.peek() == "^":
            self.next()
            k2, v2, c2 = self.next()
            if k2 != "int":
                raise ParseError("exponent must be an integer",
                                 self.line, c2 + 1)
            if idx is not None:
                raise ParseError("cannot exponentiate a basis label",
                                 self.line, c2 + 1)
            out = F.pow_int(out, v2)
        if neg:
            out = F.neg(out)
        return out, idx

    def _named_scalar(self, name, col):
        gen = _generator(self.F)
        if gen is not None and name == gen[0]:
            return gen[1]
        raise ParseError("unknown name %r" % name, self.line, col + 1)


def parse_element(F, labels, text, line=None):
    scalar, vec, tens = _ExprParser(F, labels, text, line).parse_sum()
    if not F.is_zero(scalar):
        raise ParseError("constant term %s outside the basis span"
                         % F.to_str(scalar), line)
    return vec


def parse_scalar(F, text, line=None):
    scalar, vec, tens = _ExprParser(F, (), text, line).parse_sum()
    return scalar


def parse_tensor(F, labels, text, line=None):
    """Returns a d²-vector for a sum of `a # b` terms."""
    scalar, vec, tens = _ExprParser(F, labels, text, line,
                                    tensor=True).parse_sum()
    if not F.is_zero(scalar) or any(not F.is_zero(c) for c in vec):
        raise ParseError("non-tensor term in comultiplication", line)
    d = len(labels)
    out = [F.zero] * (d * d)
    for c, a, b in tens:
        if a < 0 or b < 0:
            raise ParseError("tensor legs must be basis labels", line)
        out[a * d + b] = F.add(out[a * d + b], c)
    return tuple(out)


# -- element printing ----------------------------------------------------------


def _coeff_term(F, c, label):
    """c*label, with c parenthesized when it is a compound expression."""
    if F.eq(c, F.one):
        return label
    cs = F.to_str(c)
    if "+" in cs or "/" in cs or "*" in cs:
        cs = "(%s)" % cs
    return "%s*%s" % (cs, label)


def _terms_str(F, terms, label):
    """The sum of the nonzero (k, c) terms, c·label(k) in the given order;
    "0" when there are none."""
    parts = [_coeff_term(F, c, label(k)) for k, c in terms]
    return " + ".join(parts) if parts else "0"


def _tensor_label(labels):
    """The label of e_a⊗e_b at index a·d + b."""
    d = len(labels)
    return lambda k: "%s # %s" % (labels[k // d], labels[k % d])


def element_str(F, labels, vec):
    return _terms_str(F, vec_terms(F, vec), labels.__getitem__)


def tensor_str(F, labels, vec):
    return _terms_str(F, vec_terms(F, vec), _tensor_label(labels))


def safe_labels(labels, F=None):
    """Token-safe unique basis labels for canonical printing.  A label
    that repeats an earlier one gets a numbered suffix, and so, with F
    given, does a label equal to the name of F's generator: the parser
    would read that name as the label, not as the scalar."""
    out = []
    gen = _generator(F)
    seen = {gen[0]} if gen else set()
    for lb in labels:
        cand = "".join(ch if (ch.isalnum() or ch in "_'") else "_"
                       for ch in lb)
        if not cand or cand[0].isdigit():
            cand = "b" + cand
        base = cand
        k = 1
        while cand in seen:
            k += 1
            cand = "%s_%d" % (base, k)
        seen.add(cand)
        out.append(cand)
    return tuple(out)


# -- document structure --------------------------------------------------------


# Each section's left-hand side, one %s per basis label.  The reader matches
# a line against it and the printer fills it in, so the two cannot differ.
_ALG_SECTIONS = {"BRACKETS": "[%s,%s]", "PPOWERS": "%s^[p]", "REP": "%s"}
_HOPF_SECTIONS = {"MULT": "%s*%s", "COMULT": "delta(%s)", "COUNIT": "eps(%s)",
                  "ANTIPODE": "S(%s)"}


@functools.cache
def _lhs_pattern(shape):
    """The regular expression of a left-hand side of the given shape, each
    label a group without surrounding whitespace."""
    return re.compile(r"\s*%s\s*" % r"\s*(.*?)\s*".join(
        map(re.escape, shape.split("%s"))))


def _read_document(text, shapes, unit=False):
    """Reads the header of a document, whose sections are the keys of
    `shapes`, and with unit=True its UNIT line.

    Returns (field, labels, unit vector or None, lines): lines(section)
    yields (lineno, label indices, right-hand side) for each line
    `lhs = rhs` of the section, lhs of the section's shape.
    """
    header, sections, current = [], {}, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("//", 1)[0].strip()
        if stripped in shapes:
            current = sections.setdefault(stripped, [])
        elif stripped:
            (header if current is None else current).append((lineno,
                                                              stripped))
    F, labels, vec = _read_header(header, unit)
    index = {lb: i for i, lb in enumerate(labels)}

    def lines(section):
        shape = shapes[section]
        lhs_shape = _lhs_pattern(shape)
        for lineno, line in sections.get(section, ()):
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise ParseError("expected '='", lineno)
            match = lhs_shape.fullmatch(lhs)
            if match is None:
                raise ParseError("expected '%s = ...'" % (
                    shape % ("A", "B")[:lhs_shape.groups]), lineno)
            try:
                indices = [index[name] for name in match.groups()]
            except KeyError as exc:
                raise ParseError("unknown basis label %r" % exc.args[0],
                                 lineno) from None
            yield lineno, indices, rhs.strip()

    return F, labels, vec, lines


def _read_header(header, unit=False):
    """Reads the FIELD and BASIS lines, and with unit=True the UNIT line.

    Returns (field, labels, unit vector or None).  A repeated line
    overrides the earlier one; duplicate labels fail at the BASIS line.
    """
    F = labels = vec = None
    for lineno, line in header:
        key, _, rest = line.partition(" ")
        if key == "FIELD":
            F = parse_field(rest, lineno)
        elif key == "BASIS":
            labels, basis_line = tuple(rest.split()), lineno
        elif key == "UNIT" and unit:
            if F is None or labels is None:
                raise ParseError("UNIT must follow FIELD and BASIS", lineno)
            vec = parse_element(F, labels, rest, lineno)
        else:
            raise ParseError("unexpected header line %r" % line, lineno)
    if unit and (F is None or not labels or vec is None):
        raise ParseError("need FIELD, BASIS and UNIT lines")
    if F is None:
        raise ParseError("missing FIELD line")
    if not labels:
        raise ParseError("missing BASIS line")
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate basis labels", basis_line)
    return F, labels, vec


def _print_document(F, labels, header, shapes, rows):
    """The FIELD and BASIS lines, the `header` lines, then each section of
    `shapes` that `rows` ({section: [(label indices, rhs), ...]}) holds."""
    out = ["FIELD %r" % F, "BASIS %s" % " ".join(labels)] + header
    for section, shape in shapes.items():
        if section in rows:
            out.append(section)
            out += ["%s = %s" % (shape % tuple(labels[i] for i in idx), rhs)
                    for idx, rhs in rows[section]]
    return "\n".join(out) + "\n"


# -- .alg documents -------------------------------------------------------------


def parse_algebra(text):
    """Parse an .alg document; returns (RLieAlgebra, rep matrices or None)."""
    F, labels, _, lines = _read_document(text, _ALG_SECTIONS)
    n = len(labels)
    upper = {}
    for lineno, (i, j), rhs in lines("BRACKETS"):
        vec = parse_element(F, labels, rhs, lineno)
        if i == j:
            if vec_terms(F, vec):
                raise ParseError("[%s,%s] must be 0" % (labels[i], labels[i]),
                                 lineno)
            continue
        key = (i, j) if i < j else (j, i)
        if key in upper:
            raise ParseError("duplicate bracket [%s,%s]"
                             % (labels[i], labels[j]), lineno)
        upper[key] = vec if i < j else tuple(F.neg(c) for c in vec)
    ppowers = [(F.zero,) * n] * n
    for lineno, (i,), rhs in lines("PPOWERS"):
        ppowers[i] = parse_element(F, labels, rhs, lineno)
    g = RLieAlgebra.from_upper(F, n, upper, ppowers, labels=labels)
    rep = {i: _parse_matrix(F, rhs, lineno)
           for lineno, (i,), rhs in lines("REP")}
    if not rep:
        return g, None
    if sorted(rep) != list(range(n)):
        raise ParseError("REP must assign a matrix to every basis label")
    if len({len(M) for M in rep.values()}) != 1:
        raise ParseError("REP matrices must share a size")
    return g, tuple(rep[i] for i in range(n))


_MATRIX = re.compile(r"\[\s*\[(.*)\]\s*\]")
_ROW_BREAK = re.compile(r"\]\s*,\s*\[")


def _parse_matrix(F, text, lineno):
    """A matrix `[[a,b],[c,d]]`, with whitespace allowed around every
    bracket and comma."""
    match = _MATRIX.fullmatch(text)
    if match is None:
        raise ParseError("expected '[[...],[...]]'", lineno)
    rows = [tuple(parse_scalar(F, cell, lineno) for cell in chunk.split(","))
            for chunk in _ROW_BREAK.split(match.group(1))]
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", lineno)
    return tuple(rows)


def print_algebra(g, rep=None):
    """The canonical document of g, written from its sparse tables."""
    F = g.field
    labels = safe_labels(g.labels, F)
    label = labels.__getitem__
    rows = {"BRACKETS": [((i, j), _terms_str(F, terms, label))
                         for i, row in enumerate(g._terms)
                         for j, terms in enumerate(row) if i < j and terms],
            "PPOWERS": [((i,), _terms_str(F, terms, label))
                        for i, terms in enumerate(g._pterms) if terms]}
    if rep:
        rows["REP"] = [((i,), "[%s]" % ",".join(
            "[%s]" % ",".join(F.to_str(c) for c in row) for row in M))
            for i, M in enumerate(rep)]
    return _print_document(F, labels, [], _ALG_SECTIONS, rows)


# -- .hopf documents -------------------------------------------------------------


def parse_hopf(text):
    F, labels, unit, lines = _read_document(text, _HOPF_SECTIONS, unit=True)
    d = len(labels)
    mult = [[()] * d for _ in range(d)]
    for lineno, (i, j), rhs in lines("MULT"):
        mult[i][j] = vec_terms(F, parse_element(F, labels, rhs, lineno))
    comult = [()] * d
    counit = [F.zero] * d
    antipode = [()] * d
    for lineno, (i,), rhs in lines("COMULT"):
        comult[i] = vec_terms(F, parse_tensor(F, labels, rhs, lineno))
    for lineno, (i,), rhs in lines("COUNIT"):
        counit[i] = parse_scalar(F, rhs, lineno)
    for lineno, (i,), rhs in lines("ANTIPODE"):
        antipode[i] = vec_terms(F, parse_element(F, labels, rhs, lineno))
    return HopfAlgebra(F, d, tuple(map(tuple, mult)), unit, tuple(comult),
                       counit, tuple(antipode), labels)


def print_hopf(H):
    """The canonical document of H, written from its sparse tables: the
    terms are in increasing index order, as a scan of the dense tables
    would list them, and no dense table is built."""
    F = H.field
    labels = safe_labels(H.labels, F)
    label = labels.__getitem__
    pair = _tensor_label(labels)
    rows = {"MULT": [((i, j), _terms_str(F, terms, label))
                     for i, row in enumerate(H._terms)
                     for j, terms in enumerate(row) if terms],
            "COMULT": [((i,), _terms_str(F, terms, pair))
                       for i, terms in enumerate(H._coflat) if terms],
            "COUNIT": [((i,), F.to_str(c)) for i, c in vec_terms(F, H.counit)],
            "ANTIPODE": [((i,), _terms_str(F, terms, label))
                         for i, terms in enumerate(H._antipode_terms)
                         if terms]}
    return _print_document(F, labels,
                           ["UNIT %s" % element_str(F, labels, H.unit)],
                           _HOPF_SECTIONS, rows)
