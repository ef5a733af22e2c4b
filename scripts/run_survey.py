#!/usr/bin/env python3
"""Exhaustive small-dimension survey: enumerate all valid restricted Lie
algebras over GF(p), compare rad_p and the p-reductive verdict against the
brute-force subspace oracle, and print summary statistics, with how many
verdicts the centre test of `is_p_reductive` decided on its own.  Each
algebra is also base-changed to GF(p)(t), which leaves the geometric
radical as it is: there a decided verdict, or an exact rad_p, that differs
from the oracle's (base-changed) answer is a mismatch, and an undecided one
a gap.

    PYTHONPATH=src python scripts/run_survey.py --p 3 --dim 3

runs the whole GF(3) dimension-3 grid (29,537 algebras)."""

import argparse
import time

from pradical.fields import PrimeField, RationalFunctionField, base_change_map
from pradical.radical import _geometric_p_nilpotent, is_p_reductive, rad_p
from pradical.survey import (brute_force_radical, enumerate_algebras,
                             has_nonzero_p_nilpotent)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=2,
                        help="characteristic of the prime field (default 2)")
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--cap", type=int, default=50000)
    args = parser.parse_args()

    F = PrimeField(args.p)
    to_t = base_change_map(F, RationalFunctionField(args.p))
    started = time.monotonic()
    grid = list(enumerate_algebras(F, args.dim, cap=args.cap))
    enumerated = time.monotonic()
    total = 0
    mismatches = 0
    verdict_mismatches = 0
    t_mismatches = t_gaps = 0
    rad_t_mismatches = rad_t_gaps = 0
    centre_false = centre_true = 0
    radical_dims = {}
    no_nilpotents_abelian = 0
    for g in grid:
        cert = rad_p(g)
        oracle = brute_force_radical(g)
        total += 1
        if cert.radical != oracle:
            mismatches += 1
        if is_p_reductive(g) is not (oracle.dim == 0):
            verdict_mismatches += 1
        g_t = g.base_change(to_t)
        verdict_t = is_p_reductive(g_t)
        if verdict_t is None:
            t_gaps += 1
        elif verdict_t is not (oracle.dim == 0):
            t_mismatches += 1
        cert_t = rad_p(g_t)
        if not cert_t.is_exact:
            rad_t_gaps += 1
        elif cert_t.radical != g.base_change_subspace(to_t, oracle):
            rad_t_mismatches += 1
        Z = g.center()
        if _geometric_p_nilpotent(g, Z):
            centre_false += 1
        elif Z.dim == g.dim:
            centre_true += 1
        radical_dims[cert.radical.dim] = \
            radical_dims.get(cert.radical.dim, 0) + 1
        if not has_nonzero_p_nilpotent(g) and g.is_abelian():
            no_nilpotents_abelian += 1
    finished = time.monotonic()
    print("dimension %d over %r: %d valid instances, enumerated in %.2fs, "
          "rad_p, verdicts and oracle in %.1fs"
          % (args.dim, F, total, enumerated - started, finished - enumerated))
    print("oracle mismatches: %d" % mismatches)
    print("p-reductive verdict mismatches: %d" % verdict_mismatches)
    print("p-reductive verdicts over %r: %d mismatches, %d gaps (undecided)"
          % (to_t.target, t_mismatches, t_gaps))
    print("rad_p over %r: %d mismatches, %d gaps (undecided)"
          % (to_t.target, rad_t_mismatches, rad_t_gaps))
    print("verdicts decided by the centre: %d False, %d True (abelian)"
          % (centre_false, centre_true))
    print("radical dimension histogram: %s"
          % dict(sorted(radical_dims.items())))
    print("abelian instances with no nonzero p-nilpotent element: %d"
          % no_nilpotents_abelian)


if __name__ == "__main__":
    main()
