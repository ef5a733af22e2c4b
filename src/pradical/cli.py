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
                     parse_field, parse_hopf, print_hopf, safe_labels,
                     tensor_str)


class CliError(Exception):
    pass


@functools.cache
def _build_parser():
    """The argument parser, built once per process; `parse_args` returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="pradical",
        description="Analyze restricted Lie algebras and finite "
                    "group-scheme coordinate rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, target=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if target:
            p.add_argument("target", help="input file or gallery name")
        p.add_argument("--json", metavar="OUT", default=None,
                       help="write a JSON certificate")
        p.add_argument("--hopf-cap", type=int, default=128,
                       help="dimension cap for enveloping algebras")
        return p

    add("validate", help="check the defining axioms")
    add("report", help="center, series and structural flags")
    add("radical", help="largest unipotent normal part")
    add("unipotent", help="is the whole algebra unipotent?")
    add("mult-type", help="is the algebra of multiplicative type?")
    add("p-reductive", help="is the radical geometrically trivial?")
    p = add("series-verify", help="classify a subnormal series")
    p.add_argument("--chain", required=True,
                   help="intermediate terms, e.g. 'X | X,Y' (0 and the "
                        "whole algebra are implicit)")
    add("hopf-dual", help="dual Hopf algebra")
    p = add("hopf-union", help="schematic union of subgroups")
    p.add_argument("--ideal", action="append", required=True,
                   metavar="ELEMS", help="ideal basis, comma-separated")
    p.add_argument("--force-nondirected", action="store_true")
    p = add("hopf-frobenius", help="Frobenius kernel ideal")
    p.add_argument("r", nargs="?", default="r=1", help="exponent, e.g. r=1")
    p = add("gallery", target=False, help="list or run gallery fixtures")
    p.add_argument("target", nargs="?", default=None)
    p = add("oracle-compare", target=False,
            help="exhaustive radical oracle comparison over a finite field")
    p.add_argument("--field", default="GF(2)",
                   help="field literal, e.g. GF(4) (default GF(2))")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--cap", type=int, default=10000)
    return parser


def _load_target(name, hopf_cap):
    """Returns (object, input text for the digest)."""
    if name.startswith("gallery:"):
        name = name[len("gallery:"):]
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


def _need(obj, cls, command):
    if not isinstance(obj, cls):
        want = "a Lie algebra" if cls is RLieAlgebra else "a Hopf algebra"
        raise CliError("%s needs %s target" % (command, want))
    return obj


def _valid_hopf(obj, command):
    """The Hopf target of a subgroup-ideal command.  The subgroup-ideal
    tests presume the Hopf axioms, so a table that fails them is refused."""
    H = _need(obj, HopfAlgebra, command)
    report = H.validate_hopf()
    if not report:
        raise CliError("%s needs a valid Hopf algebra; validate fails: %r"
                       % (command, report.first()))
    return H


def _flag_verdict(value):
    if value is None:
        return "undecided"
    return "true" if value else "false"


def _subspace_strings(g, S):
    return certificates.subspace_payload(g.field, safe_labels(g.labels), S)


def _run_command(args):
    """Returns (verdict, payload, input_data, extra_lines)."""
    cmd = args.command
    if cmd == "gallery":
        return _cmd_gallery(args)
    if cmd == "oracle-compare":
        return _cmd_oracle_compare(args)
    obj, input_data = _load_target(args.target, args.hopf_cap)
    if cmd == "validate":
        if isinstance(obj, HopfAlgebra):
            report = obj.validate_hopf()
        else:
            report = obj.validate()
        verdict = "pass" if report else "fail"
        return verdict, {"failures": [repr(f) for f in report.failures]}, \
            input_data, []
    if cmd == "report":
        g = _need(obj, RLieAlgebra, cmd)
        series = g.characteristic_series()
        payload = {
            "dim": g.dim,
            "field": repr(g.field),
            "center": _subspace_strings(g, series["center"]),
            "derived_series_dims": [S.dim for S in series["derived_series"]],
            "lower_central_dims":
                [S.dim for S in series["lower_central_series"]],
            "solvable": series["solvable"],
            "nilpotent": series["nilpotent"],
            "abelian": g.is_abelian(),
            "unipotent": g.is_unipotent(),
            "mult_type": is_mult_type(g),
        }
        lines = ["%s: %s" % (k, v) for k, v in payload.items()]
        return "ok", payload, input_data, lines
    if cmd == "radical":
        g = _need(obj, RLieAlgebra, cmd)
        cert = rad_p(g)
        payload = {
            "radical_basis": _subspace_strings(g, cert.radical),
            "radical_dim": cert.radical.dim,
            "strategy": cert.strategy,
            "trace": [repr(step) for step in cert.trace],
        }
        lines = ["radical dim %d (%s, %s)" % (cert.radical.dim,
                                              cert.strategy, cert.verdict)]
        lines += ["  %s" % s for s in payload["radical_basis"]]
        return cert.verdict, payload, input_data, lines
    if cmd == "unipotent":
        g = _need(obj, RLieAlgebra, cmd)
        return _flag_verdict(g.is_unipotent()), {}, input_data, []
    if cmd == "mult-type":
        g = _need(obj, RLieAlgebra, cmd)
        return _flag_verdict(is_mult_type(g)), {}, input_data, []
    if cmd == "p-reductive":
        g = _need(obj, RLieAlgebra, cmd)
        return _flag_verdict(is_p_reductive(g)), {}, input_data, []
    if cmd == "series-verify":
        g = _need(obj, RLieAlgebra, cmd)
        labels = safe_labels(g.labels)
        chain = [g.zero_subspace()]
        for part in args.chain.split("|"):
            chain.append(g.subspace(_elements(g.field, labels, part)))
        chain.append(g.full_subspace())
        steps = g.verify_subnormal_series(chain)
        kinds = [step["kind"] for step in steps]
        verdict = ("classified" if all(k != "unclassified" for k in kinds)
                   else "unclassified")
        return verdict, {"kinds": kinds, "dims": [S.dim for S in chain]}, \
            input_data, ["quotient kinds: %s" % ", ".join(kinds)]
    if cmd == "hopf-dual":
        H = _need(obj, HopfAlgebra, cmd)
        text = print_hopf(dual_hopf(H))
        return "ok", {"document": text}, input_data, [text.rstrip()]
    if cmd == "hopf-union":
        H = _valid_hopf(obj, cmd)
        labels = safe_labels(H.labels)
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
            "ideal_basis": certificates.subspace_payload(
                H.field, labels, union.ideal),
            "is_subgroup_ideal": ok,
            "witness": _witness_strings(H, labels, witness),
        }
        lines = ["union ideal dim %d; subgroup ideal: %s"
                 % (union.ideal.dim, ok)]
        return _flag_verdict(ok), payload, input_data, lines
    if cmd == "hopf-frobenius":
        H = _valid_hopf(obj, cmd)
        rtxt = args.r
        r = int(rtxt.split("=", 1)[1] if "=" in rtxt else rtxt)
        kernel = frobenius_kernel(H, r)
        labels = safe_labels(H.labels)
        payload = {
            "r": r,
            "ideal_basis": certificates.subspace_payload(
                H.field, labels, kernel.ideal),
            "kernel_order": kernel.subgroup_dim,
        }
        lines = ["Frobenius kernel ideal dim %d, kernel order %d"
                 % (kernel.ideal.dim, kernel.subgroup_dim)]
        lines += ["  %s" % s for s in payload["ideal_basis"]]
        return "ok", payload, input_data, lines
    raise CliError("unknown command %r" % cmd)


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


def _cmd_gallery(args):
    if args.target is None:
        names = sorted(gallery.FIXTURE_TABLES)
        return "ok", {"fixtures": names}, "gallery", names
    name = args.target
    if name.startswith("gallery:"):
        name = name[len("gallery:"):]
    if name in gallery.FIXTURE_TABLES:
        rows = gallery.run_fixture(name)
        verdict = "pass" if all(r["passed"] for r in rows) else "fail"
        lines = ["%-22s %-9s %s (expected %s) [%s]"
                 % (r["assertion"], "pass" if r["passed"] else "FAIL",
                    r["actual"], r["expected"], r["tag"]) for r in rows]
        return verdict, {"rows": rows}, name, lines
    obj = gallery.resolve(name, hopf_cap=args.hopf_cap)
    kind = "hopf" if isinstance(obj, HopfAlgebra) else "lie"
    payload = {"kind": kind, "dim": obj.dim, "field": repr(obj.field)}
    return "ok", payload, name, ["%s object, dim %d over %s"
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


def _cmd_oracle_compare(args):
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
