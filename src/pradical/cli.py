"""Batch command-line frontend.

Targets are files (.alg for Lie algebras, .hopf for coordinate rings) or
gallery names (optionally prefixed "gallery:").  Every analysis emits a
human-readable report and, with --json, a certificate.  Exit code 0 means a
verdict was produced (including "false" and "undecided"); 1 means an
operational failure, and 2 a command line that argparse refused.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import certificates, gallery
from .envelope import EnvelopeTooLargeError, dual_hopf
from .fields import RationalFunctionField
from .hopf import (HopfAlgebra, NonDirectedFamilyError, NotSubgroupIdealError,
                   frobenius_kernel, schematic_union)
from .lie import RLieAlgebra
from .linalg import Subspace
from .radical import is_mult_type, is_p_reductive, rad_p
from .survey import enumerate_algebras, oracle_compare
from .textio import (ParseError, element_str, parse_algebra, parse_element,
                     parse_field, parse_hopf, parse_unsigned, print_hopf,
                     safe_labels, tensor_str)


class CliError(Exception):
    pass


def _integer(text):
    """An integer on the command line: unsigned ASCII digits, as
    `textio.parse_unsigned` reads them, after an optional minus sign, which
    the commands refuse with their own messages; None for other text."""
    value = parse_unsigned(text.removeprefix("-"))
    return -value if value is not None and text.startswith("-") else value


def _integer_option(text):
    """argparse's reader of the integer options."""
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError("expected an integer in ASCII "
                                         "digits, got %r" % text)
    return value


@functools.cache
def _build_parser():
    """The argument parser, built once per process; `parse_args` returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="pradical",
        description="Analyze restricted Lie algebras and finite "
                    "group-scheme coordinate rings.")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, kind, _) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        if kind not in (None, "name"):
            p.add_argument("target", help="input file or gallery name")
        p.add_argument("--json", metavar="OUT", default=None,
                       help="write a JSON certificate")
        if kind is not None:
            p.add_argument("--hopf-cap", type=_integer_option, default=128,
                           help="dimension cap for enveloping algebras")
    parsers["series-verify"].add_argument(
        "--chain", required=True,
        help="intermediate terms, e.g. 'X | X,Y' (0 and the whole algebra "
             "are implicit)")
    p = parsers["hopf-union"]
    p.add_argument("--ideal", action="append", required=True,
                   metavar="ELEMS", help="ideal basis, comma-separated")
    p.add_argument("--force-nondirected", action="store_true")
    parsers["hopf-frobenius"].add_argument("r", nargs="?", default="r=1",
                                           help="exponent, e.g. r=1")
    parsers["gallery"].add_argument("target", nargs="?", default=None)
    p = parsers["oracle-compare"]
    p.add_argument("--field", default="GF(2)",
                   help="field literal, e.g. GF(4) (default GF(2))")
    p.add_argument("--dim", type=_integer_option, default=3)
    p.add_argument("--cap", type=_integer_option, default=10000)
    return parser


def _load_target(name, hopf_cap):
    """Returns (object, input text for the digest)."""
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".hopf"):
            return parse_hopf(text), text
        return parse_algebra(text)[0], text
    try:
        return gallery.resolve(name, hopf_cap=hopf_cap), name
    except gallery.UnknownGalleryName:
        raise CliError("target %r is neither a readable file nor a gallery "
                       "name" % name)


def _elements(F, labels, spec):
    """The elements of a comma-separated list such as 'X, Y + Z'."""
    return [parse_element(F, labels, piece.strip())
            for piece in spec.split(",") if piece.strip()]


def _flag_verdict(value):
    if value is None:
        return "undecided"
    return "true" if value else "false"


def _basis_strings(A, S):
    """The basis of a subspace S of the algebra A as element strings."""
    labels = safe_labels(A.labels, A.field)
    return [element_str(A.field, labels, v) for v in S.basis]


def _run_command(args):
    """Returns (verdict, payload, input_data, extra_lines).

    A command's target kind (see `_COMMANDS`) is checked here, once: a Lie
    algebra, a Hopf algebra, or a Hopf algebra that passes `validate_hopf`,
    which the subgroup-ideal tests presume.
    """
    cmd = args.command
    _, kind, run = _COMMANDS[cmd]
    if kind is None:
        return run(args)
    name = args.target and args.target.removeprefix("gallery:")
    if kind == "name":
        obj, input_data = name, "gallery" if name is None else name
    else:
        obj, input_data = _load_target(name, args.hopf_cap)
        cls, want = ((RLieAlgebra, "a Lie algebra") if kind == "lie"
                     else (HopfAlgebra, "a Hopf algebra"))
        if kind != "any" and not isinstance(obj, cls):
            raise CliError("%s needs %s target" % (cmd, want))
        if kind == "valid hopf":
            report = obj.validate_hopf()
            if not report:
                raise CliError("%s needs a valid Hopf algebra; validate "
                               "fails: %r" % (cmd, report.first()))
    verdict, payload, lines = run(obj, args)
    return verdict, payload, input_data, lines


def _validate(obj, args):
    if isinstance(obj, HopfAlgebra):
        report = obj.validate_hopf()
    else:
        report = obj.validate()
    return ("pass" if report else "fail",
            {"failures": [repr(f) for f in report.failures]}, [])


def _report(g, args):
    series = g.characteristic_series()
    payload = {
        "dim": g.dim,
        "field": repr(g.field),
        "center": _basis_strings(g, series["center"]),
        "derived_series_dims": [S.dim for S in series["derived_series"]],
        "lower_central_dims":
            [S.dim for S in series["lower_central_series"]],
        "solvable": series["solvable"],
        "nilpotent": series["nilpotent"],
        "abelian": g.is_abelian(),
        "unipotent": g.is_unipotent(),
        "mult_type": is_mult_type(g),
    }
    return "ok", payload, ["%s: %s" % (k, v) for k, v in payload.items()]


def _radical(g, args):
    cert = rad_p(g)
    payload = {
        "radical_basis": _basis_strings(g, cert.radical),
        "radical_dim": cert.radical.dim,
        "strategy": cert.strategy,
        "trace": [repr(step) for step in cert.trace],
    }
    lines = ["radical dim %d (%s, %s)" % (cert.radical.dim,
                                          cert.strategy, cert.verdict)]
    lines += ["  %s" % s for s in payload["radical_basis"]]
    return cert.verdict, payload, lines


def _series_verify(g, args):
    labels = safe_labels(g.labels, g.field)
    chain = [g.zero_subspace()]
    for part in args.chain.split("|"):
        chain.append(g.subspace(_elements(g.field, labels, part)))
    chain.append(g.full_subspace())
    kinds = [step["kind"] for step in g.verify_subnormal_series(chain)]
    verdict = ("classified" if all(k != "unclassified" for k in kinds)
               else "unclassified")
    return verdict, {"kinds": kinds, "dims": [S.dim for S in chain]}, \
        ["quotient kinds: %s" % ", ".join(kinds)]


def _hopf_dual(H, args):
    text = print_hopf(dual_hopf(H))
    return "ok", {"document": text}, [text.rstrip()]


def _hopf_union(H, args):
    labels = safe_labels(H.labels, H.field)
    ideals = [Subspace.from_vectors(H.field, H.dim,
                                    _elements(H.field, labels, spec))
              for spec in args.ideal]
    try:
        union, ok, witness = schematic_union(
            H, ideals, force=args.force_nondirected)
    except NotSubgroupIdealError as exc:
        strings = _witness_strings(H, labels, exc.witness)
        # a dict display: names quoted, elements as rendered
        raise CliError(
            "the intersection of the directed family is not a subgroup "
            "ideal; witness {%s}" % ", ".join(
                "%r: %s" % (k, repr(s) if isinstance(exc.witness[k], str)
                            else s)
                for k, s in strings.items())) from exc
    payload = {
        "ideal_basis": _basis_strings(H, union.ideal),
        "is_subgroup_ideal": ok,
        "witness": _witness_strings(H, labels, witness),
    }
    return _flag_verdict(ok), payload, [
        "union ideal dim %d; subgroup ideal: %s" % (union.ideal.dim, ok)]


def _hopf_frobenius(H, args):
    r = _integer(args.r.split("=", 1)[-1])
    if r is None:
        raise CliError("hopf-frobenius needs an exponent r=N in ASCII "
                       "digits, got %r" % args.r)
    kernel = frobenius_kernel(H, r)
    payload = {
        "r": r,
        "ideal_basis": _basis_strings(H, kernel.ideal),
        "kernel_order": kernel.subgroup_dim,
    }
    lines = ["Frobenius kernel ideal dim %d, kernel order %d"
             % (kernel.ideal.dim, kernel.subgroup_dim)]
    lines += ["  %s" % s for s in payload["ideal_basis"]]
    return "ok", payload, lines


def _witness_strings(H, labels, witness):
    """A witness as strings: names as they are, elements of A by their
    labels, elements of A⊗A as sums of c·a # b label pairs, and anything
    else (a basis index) by repr."""
    if witness is None:
        return None
    out = {}
    for k, v in witness.items():
        if isinstance(v, str):
            out[k] = v
        elif isinstance(v, tuple) and len(v) == H.dim:
            out[k] = element_str(H.field, labels, v)
        elif isinstance(v, tuple) and len(v) == H.dim ** 2:
            out[k] = tensor_str(H.field, labels, v)
        else:
            out[k] = repr(v)
    return out


def _gallery(name, args):
    if name is None:
        names = sorted(gallery.FIXTURE_TABLES)
        return "ok", {"fixtures": names}, names
    if name in gallery.FIXTURE_TABLES:
        rows = gallery.run_fixture(name)
        verdict = "pass" if all(r["passed"] for r in rows) else "fail"
        lines = ["%-22s %-9s %s (expected %s) [%s]"
                 % (r["assertion"], "pass" if r["passed"] else "FAIL",
                    r["actual"], r["expected"], r["tag"]) for r in rows]
        return verdict, {"rows": rows}, lines
    obj = gallery.resolve(name, hopf_cap=args.hopf_cap)
    kind = "hopf" if isinstance(obj, HopfAlgebra) else "lie"
    payload = {"kind": kind, "dim": obj.dim, "field": repr(obj.field)}
    return "ok", payload, ["%s object, dim %d over %s"
                           % (kind, obj.dim, payload["field"])]


_ORACLE_MAX_VECTORS = 1 << 16


def _subspace_count(q, n):
    """Σ_k [n choose k]_q, the number of subspaces of GF(q)^n."""
    total, term = 1, 1
    for k in range(n):
        # [n choose k+1]_q = [n choose k]_q·(q^(n−k) − 1)/(q^(k+1) − 1)
        term = term * (q ** (n - k) - 1) // (q ** (k + 1) - 1)
        total += term
    return total


def _oracle_compare(args):
    if args.dim < 0:
        raise CliError("oracle-compare needs --dim >= 0, got %d" % args.dim)
    if args.cap < 1:
        raise CliError("oracle-compare needs --cap >= 1, got %d" % args.cap)
    F = parse_field(args.field)
    if isinstance(F, RationalFunctionField):
        raise CliError("oracle-compare needs a finite field, got %r" % F)
    if F.order() ** args.dim > _ORACLE_MAX_VECTORS:
        # enumerate_algebras lists every vector of F^dim before the cap
        raise CliError("oracle-compare enumerates all of %r^%d, more than %d "
                       "vectors" % (F, args.dim, _ORACLE_MAX_VECTORS))
    subspaces = _subspace_count(F.order(), args.dim)
    if subspaces > _ORACLE_MAX_VECTORS:
        # brute_force_radical scans every subspace of F^dim
        raise CliError("oracle-compare scans all %d subspaces of %r^%d, more "
                       "than %d" % (subspaces, F, args.dim,
                                    _ORACLE_MAX_VECTORS))
    instances = enumerate_algebras(F, args.dim, cap=args.cap)
    total, mismatches = oracle_compare(instances)
    payload = {"dim": args.dim, "instances": total,
               "mismatches": len(mismatches)}
    verdict = "agree" if not mismatches else "disagree"
    lines = ["%d instances, %d mismatches" % (total, len(mismatches))]
    input_data = "oracle-compare:field=%r,dim=%d,cap=%d" % (F, args.dim,
                                                            args.cap)
    return verdict, payload, input_data, lines


# name: (help, target kind, handler), in the order of the help listing.
# The target kind is "lie", "hopf", "valid hopf" or "any" for a command on
# a loaded target, "name" for an optional gallery name, and None for a
# command without one, whose handler takes the arguments alone and also
# returns the input data.  Handlers name the analyses at call time, so a
# rebinding of `rad_p` or `is_p_reductive` reaches them.
_COMMANDS = {
    "validate": ("check the defining axioms", "any", _validate),
    "report": ("center, series and structural flags", "lie", _report),
    "radical": ("largest unipotent normal part", "lie", _radical),
    "unipotent": ("is the whole algebra unipotent?", "lie",
                  lambda g, args: (_flag_verdict(g.is_unipotent()), {}, [])),
    "mult-type": ("is the algebra of multiplicative type?", "lie",
                  lambda g, args: (_flag_verdict(is_mult_type(g)), {}, [])),
    "p-reductive": ("is the radical geometrically trivial?", "lie",
                    lambda g, args: (_flag_verdict(is_p_reductive(g)), {},
                                     [])),
    "series-verify": ("classify a subnormal series", "lie", _series_verify),
    "hopf-dual": ("dual Hopf algebra", "hopf", _hopf_dual),
    "hopf-union": ("schematic union of subgroups", "valid hopf",
                   _hopf_union),
    "hopf-frobenius": ("Frobenius kernel ideal", "valid hopf",
                       _hopf_frobenius),
    "gallery": ("list or run gallery fixtures", "name", _gallery),
    "oracle-compare": ("exhaustive radical oracle comparison over a finite "
                       "field", None, _oracle_compare),
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or message: 0 for --help, 2 for a
        # malformed command line
        return exc.code
    started = time.monotonic()
    try:
        verdict, payload, input_data, lines = _run_command(args)
    except (CliError, ParseError, NonDirectedFamilyError,
            EnvelopeTooLargeError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print("verdict: %s" % verdict)
    if args.json:
        options = {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command", "json") and v is not None}
        cert = certificates.certificate(args.command, input_data, verdict,
                                        payload, options, started)
        certificates.write_atomic(args.json, certificates.to_json(cert))
    return 0


if __name__ == "__main__":
    sys.exit(main())
