"""Self-test of the benchmark's generators and tracer on exact counts.

    python3 perfbench/selftest.py

* W(1) at p=3 takes s3 and exhausts exactly 13 projective points, giving
  radical 0 (the traced point counter sees all 13).
* The GF(2) dimension-3 grid has 911 algebras, with ladder histogram
  s1 448, s2 259, unipotent-whole 92, s3 112.
* After a traced run, ``pradical.linalg.rref`` (and every other package
  binding) is the original object again.
* The certify documents round-trip through ``parse_algebra`` and
  ``print_algebra`` (checked while they are generated).

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import collections
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pradical.linalg  # noqa: E402
from pradical import radical  # noqa: E402
from pradical.fields import PrimeField  # noqa: E402
from pradical.survey import enumerate_algebras  # noqa: E402

import algebras  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_bindings  # noqa: E402


def check_witt3(failures):
    original = pradical.linalg.rref
    before = package_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        if pradical.linalg.rref is original:
            failures.append("tracer did not wrap linalg.rref")
        cert = radical.rad_p(algebras.witt(3))
    finally:
        tracer.uninstall()
    steps = [step["step"] for step in cert.trace]
    if (cert.strategy, cert.verdict, cert.radical.dim) != ("s3", "exact", 0):
        failures.append("W(1) p=3: %s %s dim %d" % (
            cert.strategy, cert.verdict, cert.radical.dim))
    if steps != ["s3-exhausted"]:
        failures.append("W(1) p=3 trace %r" % steps)
    if tracer.s3_points != 13:
        failures.append("W(1) p=3 scanned %d points, expected 13"
                        % tracer.s3_points)
    if pradical.linalg.rref is not original:
        failures.append("linalg.rref not restored after tracing")
    if package_bindings() != before:
        failures.append("package bindings changed by tracing")


def check_gf2_grid(failures):
    grid = list(enumerate_algebras(PrimeField(2), 3, cap=10 ** 9))
    hist = collections.Counter(radical.rad_p(g).strategy for g in grid)
    expected = {"s1": 448, "s2": 259, "unipotent-whole": 92, "s3": 112}
    if len(grid) != 911 or dict(hist) != expected:
        failures.append("GF(2) dim-3 grid: %d algebras, histogram %r"
                        % (len(grid), dict(hist)))


def check_documents(failures):
    parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as workdir:
        try:
            workloads.Certify().setup(1, workdir)
        except ValueError as exc:
            failures.append("certify documents: %s" % exc)


def main():
    failures = []
    for check in (check_witt3, check_gf2_grid, check_documents):
        check(failures)
        print("%-18s %s" % (check.__name__, "FAIL" if failures else "ok"))
        if failures:
            break
    for line in failures:
        print("  " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
