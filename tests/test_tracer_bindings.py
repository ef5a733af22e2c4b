"""The per-layer tracer in perfbench/ wraps package functions by name; a
rename in the package must fail here, not in a traced benchmark run."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


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
