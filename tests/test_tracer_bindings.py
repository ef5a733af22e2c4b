"""The per-layer tracer in perfbench/ wraps package functions by name; a
rename in the package must fail here, not in a traced benchmark run."""

import importlib.util
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    tracer = _tracer()
    entries = ([entry[:2] for entry in tracer._TIMED]
               + [entry[:2] for entry in tracer._COUNTED])
    assert len(entries) > 20
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), name)
               for owner, name in entries if not hasattr(owner, name)]
    assert not missing


def test_perfbench_selftest_passes():
    """The benchmark's own self-test: exact s3 point and ladder counts, the
    bindings restored after a traced run, round-tripped certify documents."""
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH,
                                                        "selftest.py")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
