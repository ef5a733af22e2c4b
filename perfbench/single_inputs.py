"""Time single inputs outside the workloads.

Two groups: the ROADMAP baseline figures (W(1) at p=5 in the standard
basis, Hopf validation at dimension 32), and the known-slow inputs that the
timed workloads leave out, from which the package's work budgets can be
set.  The figures are recorded in ``baseline.json``.

Each input runs in its own child process with a wall-clock limit, so one
that does not finish is reported as a lower bound instead of hanging.

    python3 perfbench/single_inputs.py [--limit SECONDS] [--only NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(__file__)]


def _witt5_s3():
    import algebras
    from pradical.radical import rad_p
    cert = rad_p(algebras.witt(5))
    return {"strategy": cert.strategy, "verdict": cert.verdict,
            "radical_dim": cert.radical.dim}


def _hopf_dim32():
    from pradical import envelope, gallery
    H = envelope.dual_hopf(envelope.u_env(gallery.torus_lie(2, 5)))
    return {"dim": H.dim, "valid": bool(H.validate_hopf())}


def _hopf_dense_dim27():
    """The hopf workload's op on three seeded GF(3) dimension-3 survey
    algebras (u(g) of dimension 27), timed one by one."""
    from pradical import envelope, hopf
    from pradical.fields import PrimeField
    from pradical.survey import enumerate_algebras
    import algebras
    rng = random.Random(1)
    grid = [g for g in enumerate_algebras(PrimeField(3), 3, cap=10 ** 9)
            if not g.is_abelian()]
    seconds = []
    for g in rng.sample(grid, 3):
        S = algebras.seeded_subalgebra(g, rng)
        started = time.perf_counter()
        H = envelope.dual_hopf(envelope.u_env(g))
        H.validate_hopf()
        A, sub = envelope.subgroup_ideal_from_p_subalgebra(g, S)
        hopf.is_subgroup_ideal(A, sub.ideal)
        hopf.is_normal(A, sub.ideal)
        seconds.append(time.perf_counter() - started)
    return {"op_seconds": seconds}


def _witt7_s3():
    import algebras
    from pradical.radical import rad_p
    cert = rad_p(algebras.witt(7))
    return {"strategy": cert.strategy, "verdict": cert.verdict,
            "radical_dim": cert.radical.dim}


def _hopf_dim64():
    from pradical import envelope, gallery
    H = envelope.dual_hopf(envelope.u_env(gallery.torus_lie(2, 6)))
    return {"dim": H.dim, "valid": bool(H.validate_hopf())}


def _p_reductive_paper_g_squared_p3():
    import algebras
    from pradical.radical import is_p_reductive
    return {"p_reductive": is_p_reductive(algebras.paper_g_squared(3))}


def _witt_alpha5_seeded_basis():
    import algebras
    from pradical.radical import rad_p
    g = algebras.change_basis(algebras.with_alpha(algebras.witt(5)),
                              random.Random(1))
    cert = rad_p(g)
    return {"strategy": cert.strategy, "verdict": cert.verdict,
            "radical_dim": cert.radical.dim}


INPUTS = {
    "roadmap_witt_p5_s3": ("rad_p(W(1)) at p=5 over GF(5), standard basis",
                           _witt5_s3),
    "roadmap_hopf_validate_dim32": (
        "validate_hopf on dual(u_env(torus 2^5)), dim 32", _hopf_dim32),
    "hopf_dense_dim27": (
        "hopf op on seeded dense GF(3) dim-3 survey algebras, u(g) dim 27",
        _hopf_dense_dim27),
    "witt_p7_s3": ("W(1) at p=7 over GF(7): s3 scans all 137,257 points",
                   _witt7_s3),
    "hopf_validate_dim64": ("validate_hopf on dual(u_env(torus 2^6)), dim 64",
                            _hopf_dim64),
    "p_reductive_paper_g_squared_p3": (
        "is_p_reductive(paper-G + paper-G) at p=3 over GF(3)(t)",
        _p_reductive_paper_g_squared_p3),
    "witt_alpha_p5_seeded_basis": (
        "rad_p(W(1) + alpha) at p=5 over GF(5) in a seeded basis (seed 1)",
        _witt_alpha5_seeded_basis),
}


def _child(name):
    started = time.perf_counter()
    result = INPUTS[name][1]()
    result["seconds"] = time.perf_counter() - started
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=float, default=420.0,
                        help="wall-clock limit per input, in seconds")
    parser.add_argument("--only", choices=sorted(INPUTS), default=None)
    parser.add_argument("--child", choices=sorted(INPUTS), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child)
        return 0
    out = {}
    for name in ([args.only] if args.only else sorted(INPUTS)):
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--child", name],
                capture_output=True, text=True, timeout=args.limit)
        except subprocess.TimeoutExpired:
            out[name] = {"what": INPUTS[name][0],
                         "seconds_more_than": args.limit}
        else:
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            out[name] = dict(what=INPUTS[name][0],
                             **json.loads(proc.stdout.splitlines()[-1]))
        print(json.dumps({name: out[name]}), flush=True)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
