"""Per-layer tracing of the package from outside.

``Tracer.install()`` wraps the public functions and methods of each
``pradical`` module.  A module-level function is rebound under every name
that refers to it in any loaded ``pradical.*`` module (``rref`` is bound in
``linalg``, ``survey`` and ``envelope``); a method is replaced on its class.
``uninstall()`` puts every original object back.  The package source is not
touched.

Three kinds of wrapper:

* counters, for scalar descriptor calls: timing each would measure the
  wrapper, so only the count is kept;
* timed wrappers, which aggregate call count and self time in memory.  Self
  time is a call's duration minus the time of the wrapped calls made inside
  it.  Each also counts its calls per caller (``edges``), which gives ratios
  such as "point spins per probe" without more wrappers;
* spans: timed wrappers at coarse boundaries (one ``rad_p``, one CLI run,
  one Hopf validation) that also keep a record per call, written out with
  ``dump()``.

Counts are per op; ``*_self_s`` is self seconds per op (wall clock, not
scaled to reference speed) and ``*_self_share`` the same as a percentage of
traced op time.  Which end-to-end metric each
layer should move, and on which workload:

fields    scalar descriptor calls per domain, PolynomialRing constructions,
          pgcd and pdivmod calls: ops_per_s on certify (extension field and
          GF(p)(t)) and on survey (prime field).
linalg    rref, nullspace, semilinear-kernel and Subspace.reduce: ops_per_s on
          survey, op_ms_p90 on certify.
lie       bracket, p_power, spin_p_ideal, is_unipotent, validate, quotient:
          op_ms_p90 on certify (large p), ops_per_s on survey; not hopf.
radical   rad_p, is_p_reductive, the rung histogram, s3 points scanned and
          the share that gave a proper unipotent spin, probe candidates:
          ops_per_s and op_ms_p90 on certify, op_ms_p90 on survey; not hopf.
hopf      validate_hopf, mul, tensor_mul, ideal_closure, is_subgroup_ideal,
          is_normal: ops_per_s on hopf only.
envelope  u_env, dual_hopf, the u(S) span: hopf only.
cli       parse_algebra, certificate writing, cli.main: op_ms_p50 on
          certify, where the small documents take a few ms.
survey    grid enumeration (setup_s on survey) and the oracle check; neither
          is inside a timed op.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from pradical import certificates, cli, envelope, fields, hopf, lie, linalg
from pradical import radical, textio

_perf = time.perf_counter

_SCALAR_METHODS = ("add", "sub", "mul", "inv", "div", "neg", "is_zero")

# (owner, attribute, key, record a span per call)
_TIMED = (
    (linalg, "rref", "linalg.rref", False),
    (linalg.Subspace, "reduce", "linalg.reduce", False),
    (lie.RLieAlgebra, "bracket", "lie.bracket", False),
    (lie.RLieAlgebra, "p_power", "lie.p_power", False),
    (lie.RLieAlgebra, "spin_p_ideal", "lie.spin_p_ideal", False),
    (lie.RLieAlgebra, "is_unipotent", "lie.is_unipotent", False),
    (lie.RLieAlgebra, "validate", "lie.validate", False),
    (radical, "rad_p", "radical.rad_p", True),
    (radical, "is_p_reductive", "radical.is_p_reductive", True),
    (radical, "_probe_lower_bound", "radical.probe", False),
    (hopf.HopfAlgebra, "validate_hopf", "hopf.validate", True),
    (hopf.SCAlgebra, "mul", "hopf.mul", False),
    (hopf.SCAlgebra, "tensor_mul", "hopf.tensor_mul", False),
    (hopf.SCAlgebra, "ideal_closure", "hopf.ideal_closure", False),
    (hopf, "is_subgroup_ideal", "hopf.is_subgroup_ideal", True),
    (hopf, "is_normal", "hopf.is_normal", True),
    (envelope, "u_env", "envelope.u_env", True),
    (envelope, "dual_hopf", "envelope.dual_hopf", True),
    (envelope, "envelope_subalgebra_span", "envelope.span", False),
    (textio, "parse_algebra", "cli.parse", False),
    (certificates, "certificate", "cli.certificate", False),
    (certificates, "to_json", "cli.certificate", False),
    (certificates, "write_atomic", "cli.certificate", False),
    (cli, "main", "cli.main", True),
)

# (owner, attribute, key)
_COUNTED = (
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "semilinear_kernel", "linalg.semilinear_kernel"),
    (lie.RLieAlgebra, "quotient", "lie.quotient"),
    (fields, "pgcd", "fields.pgcd"),
    (fields, "pdivmod", "fields.pdivmod"),
    (fields.PolynomialRing, "__init__", "fields.polyring_new"),
) + tuple(
    (cls, name, "fields.ops." + domain)
    for cls, domain in ((fields.PrimeField, "prime"),
                        (fields.ExtensionField, "extension"),
                        (fields.RationalFunctionField, "ratfunc"),
                        (fields.PolynomialRing, "poly"))
    for name in _SCALAR_METHODS if hasattr(cls, name))

_ROOT = "op"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pradical"
                                  or name.startswith("pradical."))]


def package_bindings():
    """The identity of every attribute of every loaded package module and
    of the classes it defines; equal before and after a traced run."""
    seen = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = id(value)
            if (isinstance(value, type)
                    and value.__module__ == module.__name__):
                for cattr, cvalue in vars(value).items():
                    seen[(module.__name__, attr, cattr)] = id(cvalue)
    return seen


class Tracer:
    """Counts and self times per wrapped function, for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)     # (caller key, callee key) -> calls
        self.rows = defaultdict(int)      # linalg.rref input rows
        self.rungs = defaultdict(int)     # rad_p strategy histogram
        self.s3_points = 0
        self.s3_hits = 0
        self.spans = []                   # (op, key, parent, start, seconds)
        self.ops = 0
        self.op_seconds = 0.0
        self._stack = []                  # [key, child seconds]
        self._patches = []                # (owner, attribute, original, own)

    # -- wrappers -------------------------------------------------------------

    def _counted(self, fn, key):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, fn, key, span):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        spans = self.spans
        after = self._after.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds = _perf() - start
                stack.pop()
                calls[key] += 1
                self_s[key] += seconds - frame[1]
                if parent is not None:
                    parent[1] += seconds
                    edges[(parent[0], key)] += 1
                if span:
                    spans.append((self.ops, key,
                                  parent[0] if parent else None,
                                  start, seconds))
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count_points(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for point in fn(*args, **kwargs):
                tracer.s3_points += 1
                yield point
        return wrapper

    # -- result hooks ---------------------------------------------------------

    def _after_rad_p(self, args, cert):
        self.rungs[cert.strategy] += 1
        self.s3_hits += sum(1 for step in cert.trace
                            if step.get("step") == "s3-point")

    def _after_rref(self, args, out):
        self.rows["linalg.rref"] += len(args[1])

    @property
    def _after(self):
        return {"radical.rad_p": self._after_rad_p,
                "linalg.rref": self._after_rref}

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, name, make):
        """Replace owner.name, and every other binding of a module-level
        function in the package, with make(original)."""
        original = getattr(owner, name)
        wrapper = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, name, original,
                                  name in owner.__dict__))
            setattr(owner, name, wrapper)
            return
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, name, key, span in _TIMED:
            self._patch(owner, name,
                        lambda fn, k=key, s=span: self._timed(fn, k, s))
        for owner, name, key in _COUNTED:
            self._patch(owner, name, lambda fn, k=key: self._counted(fn, k))
        self._patch(radical, "projective_points", self._count_points)

    def uninstall(self):
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []

    # -- one traced op --------------------------------------------------------

    def begin_op(self):
        self._stack.append([_ROOT, 0.0])

    def end_op(self, seconds):
        frame = self._stack.pop()
        self.self_s[_ROOT] += seconds - frame[1]
        self.ops += 1
        self.op_seconds += seconds

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: counts per op, self seconds per op, and self
        time as a percentage of traced op time."""
        ops = max(self.ops, 1)
        wall = self.op_seconds or 1.0
        out = {}

        def count(name, value):
            out[name] = (value / ops, "count/op")

        def self_time(name, key):
            out[name + "_self_s"] = (self.self_s[key] / ops, "s/op")
            out[name + "_self_share"] = (100.0 * self.self_s[key] / wall, "%")

        for domain in ("prime", "extension", "ratfunc", "poly"):
            count("fields.ops." + domain, self.calls["fields.ops." + domain])
        count("fields.polyring_new", self.calls["fields.polyring_new"])
        count("fields.pgcd_calls", self.calls["fields.pgcd"])
        count("fields.pdivmod_calls", self.calls["fields.pdivmod"])

        count("linalg.rref_calls", self.calls["linalg.rref"])
        count("linalg.rref_rows", self.rows["linalg.rref"])
        self_time("linalg.rref", "linalg.rref")
        count("linalg.nullspace_calls", self.calls["linalg.nullspace"])
        count("linalg.semilinear_kernel_calls",
              self.calls["linalg.semilinear_kernel"])
        count("linalg.reduce_calls", self.calls["linalg.reduce"])
        self_time("linalg.reduce", "linalg.reduce")

        for name in ("bracket", "p_power", "spin_p_ideal"):
            count("lie.%s_calls" % name, self.calls["lie." + name])
            self_time("lie." + name, "lie." + name)
        self_time("lie.is_unipotent", "lie.is_unipotent")
        self_time("lie.validate", "lie.validate")
        count("lie.quotient_calls", self.calls["lie.quotient"])

        self_time("radical.rad_p", "radical.rad_p")
        self_time("radical.is_p_reductive", "radical.is_p_reductive")
        for rung in ("s1", "s2", "s3", "s4", "probe", "unipotent-whole"):
            count("radical.rung." + rung, self.rungs[rung])
        count("radical.s3_points", self.s3_points)
        out["radical.s3_hit_ratio"] = (
            self.s3_hits / self.s3_points if self.s3_points else 0.0,
            "ratio")
        count("radical.probe_candidates",
              self.edges[("radical.probe", "lie.spin_p_ideal")])

        self_time("hopf.validate", "hopf.validate")
        for name in ("mul", "tensor_mul"):
            count("hopf.%s_calls" % name, self.calls["hopf." + name])
            self_time("hopf." + name, "hopf." + name)
        self_time("hopf.ideal_closure", "hopf.ideal_closure")
        self_time("hopf.is_subgroup_ideal", "hopf.is_subgroup_ideal")
        self_time("hopf.is_normal", "hopf.is_normal")

        self_time("envelope.u_env", "envelope.u_env")
        self_time("envelope.dual_hopf", "envelope.dual_hopf")
        self_time("envelope.span", "envelope.span")

        self_time("cli.parse", "cli.parse")
        self_time("cli.certificate", "cli.certificate")
        self_time("cli.main", "cli.main")

        self_time("trace.unwrapped", _ROOT)
        return out

    def dump(self, path, extra):
        """Write the aggregate table and the coarse spans as JSON."""
        doc = dict(extra)
        doc["functions"] = {
            key: {"calls": self.calls[key], "self_s": self.self_s[key]}
            for key in sorted(set(self.calls) | set(self.self_s))}
        doc["edges"] = [[a, b, n] for (a, b), n in sorted(self.edges.items())]
        doc["span_fields"] = ["op", "name", "parent", "start_s", "seconds"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
