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
"""

from __future__ import annotations

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


# -- field literals -----------------------------------------------------------

_FIELD_ORDER = re.compile(r"[0-9]+(\^[0-9]+)?")


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
    body = text[3:-1]
    # unsigned ASCII digits only, as in `_tokenize`: int() alone also reads
    # "٣", "1_1", "+3" and "-4"
    if not _FIELD_ORDER.fullmatch(body):
        raise ParseError("bad field order %r: not a prime power p or p^m"
                         % body, line)
    ptxt, caret, mtxt = body.partition("^")
    try:
        p, m = int(ptxt), (int(mtxt) if caret else 1)
    except ValueError:      # longer than sys.get_int_max_str_digits()
        raise ParseError("bad field order %r" % body, line)
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
        whose terms may not carry labels."""
        F = self.F
        scalar = F.zero
        vec = [F.zero] * self.n
        tens = []
        while True:
            sign = F.one
            if self.peek() in ("+", "-") and self.next()[0] == "-":
                sign = F.mul(sign, F.from_int(-1))
            c, idx, pair = self.parse_term()
            if close == ")" and (idx is not None or pair is not None):
                self.fail("parenthesized labels are not supported")
            c = F.mul(sign, c)
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
            out = F.mul(F.from_int(-1), out)
        return out, idx

    def _named_scalar(self, name, col):
        F = self.F
        if isinstance(F, RationalFunctionField) and name == F.var:
            return F.t
        if isinstance(F, ExtensionField) and name == F.var:
            gen = [0] * F.m
            gen[1 if F.m > 1 else 0] = 1
            return tuple(gen)
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


def safe_labels(labels):
    """Token-safe unique basis labels for canonical printing."""
    out = []
    seen = set()
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


_ALG_SECTIONS = ("BRACKETS", "PPOWERS", "REP")
_HOPF_SECTIONS = ("MULT", "COMULT", "COUNIT", "ANTIPODE")


def _split_sections(text, section_names):
    """Returns (header lines, {section: [(lineno, line), ...]})."""
    header = []
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("//", 1)[0].strip()
        if not stripped:
            continue
        if stripped in section_names:
            current = stripped
            sections.setdefault(current, [])
            continue
        if current is None:
            header.append((lineno, stripped))
        else:
            sections[current].append((lineno, stripped))
    return header, sections


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


def _label_lines(sections, section, index, head="", tail=""):
    """Yields (lineno, label index, right-hand side) for each line
    `head A tail = ...` of a section: `A^[p]`, `A` (REP) or `fn(a)`.

    A line that starts with its label fails on a missing '=' first.
    """
    shape = "expected '%s%s%s = ...'" % (head, "a" if head else "A", tail)
    for lineno, line in sections.get(section, ()):
        lhs, eq, rhs = line.partition("=")
        lhs = lhs.strip()
        if not eq and not head:
            raise ParseError("expected '='", lineno)
        if not eq or not (lhs.startswith(head) and lhs.endswith(tail)):
            raise ParseError(shape, lineno)
        name = lhs[len(head):len(lhs) - len(tail)].strip()
        if name not in index:
            raise ParseError("unknown basis label %r" % name, lineno)
        yield lineno, index[name], rhs.strip()


# -- .alg documents -------------------------------------------------------------


def parse_algebra(text):
    """Parse an .alg document; returns (RLieAlgebra, rep matrices or None)."""
    header, sections = _split_sections(text, _ALG_SECTIONS)
    F, labels, _ = _read_header(header)
    n = len(labels)
    index = {lb: i for i, lb in enumerate(labels)}
    upper = {}
    for lineno, line in sections.get("BRACKETS", []):
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError("expected '='", lineno)
        lhs = lhs.strip()
        if not (lhs.startswith("[") and lhs.endswith("]") and "," in lhs):
            raise ParseError("expected '[A,B] = ...'", lineno)
        a, _, b = lhs[1:-1].partition(",")
        a, b = a.strip(), b.strip()
        for name in (a, b):
            if name not in index:
                raise ParseError("unknown basis label %r" % name, lineno)
        i, j = index[a], index[b]
        vec = parse_element(F, labels, rhs.strip(), lineno)
        if i == j:
            if any(not F.is_zero(c) for c in vec):
                raise ParseError("[%s,%s] must be 0" % (a, a), lineno)
            continue
        if i > j:
            i, j = j, i
            vec = tuple(F.sub(F.zero, c) for c in vec)
        if (i, j) in upper:
            raise ParseError("duplicate bracket [%s,%s]" % (a, b), lineno)
        upper[(i, j)] = vec
    ppowers = [(F.zero,) * n] * n
    for lineno, i, rhs in _label_lines(sections, "PPOWERS", index,
                                       tail="^[p]"):
        ppowers[i] = parse_element(F, labels, rhs, lineno)
    g = RLieAlgebra.from_upper(F, n, upper, ppowers, labels=labels)
    rep = None
    if sections.get("REP"):
        rep_map = {}
        for lineno, i, rhs in _label_lines(sections, "REP", index):
            rep_map[i] = _parse_matrix(F, rhs, lineno)
        if sorted(rep_map) != list(range(n)):
            raise ParseError("REP must assign a matrix to every basis label")
        sizes = {len(M) for M in rep_map.values()}
        if len(sizes) != 1:
            raise ParseError("REP matrices must share a size")
        rep = tuple(rep_map[i] for i in range(n))
    return g, rep


def _parse_matrix(F, text, lineno):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError("expected '[[...],[...]]'", lineno)
    rows = []
    for chunk in text[2:-2].split("],["):
        row = [parse_scalar(F, cell, lineno) for cell in chunk.split(",")]
        rows.append(tuple(row))
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", lineno)
    return tuple(rows)


def print_algebra(g, rep=None):
    F = g.field
    labels = safe_labels(g.labels)
    out = ["FIELD %r" % F, "BASIS %s" % " ".join(labels), "BRACKETS"]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            vec = g.brackets[i][j]
            if any(not F.is_zero(c) for c in vec):
                out.append("[%s,%s] = %s" % (labels[i], labels[j],
                                             element_str(F, labels, vec)))
    out.append("PPOWERS")
    for i in range(g.dim):
        vec = g.ppowers[i]
        if any(not F.is_zero(c) for c in vec):
            out.append("%s^[p] = %s" % (labels[i],
                                        element_str(F, labels, vec)))
    if rep:
        out.append("REP")
        for i in range(g.dim):
            rows = ",".join("[%s]" % ",".join(F.to_str(c) for c in row)
                            for row in rep[i])
            out.append("%s = [%s]" % (labels[i], rows))
    return "\n".join(out) + "\n"


# -- .hopf documents -------------------------------------------------------------


def parse_hopf(text):
    header, sections = _split_sections(text, _HOPF_SECTIONS)
    F, labels, unit = _read_header(header, unit=True)
    d = len(labels)
    index = {lb: i for i, lb in enumerate(labels)}
    zero = (F.zero,) * d
    mult = [[zero] * d for _ in range(d)]
    for lineno, line in sections.get("MULT", []):
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError("expected '='", lineno)
        a, star, b = lhs.strip().partition("*")
        a, b = a.strip(), b.strip()
        if not star or a not in index or b not in index:
            raise ParseError("expected 'a*b = ...' with basis labels", lineno)
        mult[index[a]][index[b]] = parse_element(F, labels, rhs.strip(),
                                                 lineno)
    comult = [(F.zero,) * (d * d)] * d
    counit = [F.zero] * d
    antipode = [zero] * d
    for lineno, i, rhs in _label_lines(sections, "COMULT", index,
                                       "delta(", ")"):
        comult[i] = parse_tensor(F, labels, rhs, lineno)
    for lineno, i, rhs in _label_lines(sections, "COUNIT", index, "eps(", ")"):
        counit[i] = parse_scalar(F, rhs, lineno)
    for lineno, i, rhs in _label_lines(sections, "ANTIPODE", index, "S(", ")"):
        antipode[i] = parse_element(F, labels, rhs, lineno)
    return HopfAlgebra(F, d, mult, unit, comult, counit, antipode, labels)


def print_hopf(H):
    """The canonical document of H, written from its sparse tables: the
    terms are in increasing index order, as a scan of the dense tables
    would list them, and no dense table is built."""
    F = H.field
    labels = safe_labels(H.labels)
    label = labels.__getitem__
    out = ["FIELD %r" % F,
           "BASIS %s" % " ".join(labels),
           "UNIT %s" % element_str(F, labels, H.unit),
           "MULT"]
    for i, row in enumerate(H._terms):
        for j, terms in enumerate(row):
            if terms:
                out.append("%s*%s = %s" % (labels[i], labels[j],
                                           _terms_str(F, terms, label)))
    out.append("COMULT")
    pair = _tensor_label(labels)
    for i, terms in enumerate(H._coflat):
        if terms:
            out.append("delta(%s) = %s" % (labels[i],
                                           _terms_str(F, terms, pair)))
    out.append("COUNIT")
    for i in range(H.dim):
        if not F.is_zero(H.counit[i]):
            out.append("eps(%s) = %s" % (labels[i], F.to_str(H.counit[i])))
    out.append("ANTIPODE")
    for i, terms in enumerate(H._antipode_terms):
        if terms:
            out.append("S(%s) = %s" % (labels[i], _terms_str(F, terms, label)))
    return "\n".join(out) + "\n"
