"""The restricted unipotent radical and related verdicts.

rad_p(g) is the largest unipotent p-ideal of g.  No complete algorithm is
available over imperfect fields, so the computation runs a ladder of
strategies, each with an explicit completeness condition; when none applies
the verdict degrades to "undecided-fragment" instead of guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .fields import ExtensionField, PrimeField
from .linalg import (SemilinearMap, Subspace, mat_pow, nullspace,
                     projective_points, vec_is_zero)

EXACT = "exact"
UNDECIDED = "undecided-fragment"

# the seed of the probe's random candidates, so that a run is repeatable
_PROBE_SEED = 20260826


@dataclass
class RadicalCertificate:
    radical: Subspace
    strategy: str
    verdict: str
    trace: list = dc_field(default_factory=list)

    @property
    def is_exact(self):
        return self.verdict == EXACT


def rad_p(g, trace=None):
    """Largest unipotent p-ideal, with a derivation trace."""
    g.require_valid()
    trace = trace if trace is not None else []
    sub, used, exact = _rad_search(g, trace)
    return RadicalCertificate(sub, used, EXACT if exact else UNDECIDED, trace)


def _first_report(g, trace):
    """The ladder's first report on g: (strategy, subspace, final), or None
    when no rung settles g.

    The first rung of `_LADDER` that settles g answers.  final: the
    subspace is rad_p(g).  Otherwise it is a nonzero unipotent p-ideal I,
    so I lies in rad_p(g) and rad_p(g)/I = rad_p(g/I).
    """
    if g.dim == 0:
        return "trivial", g.zero_subspace(), True

    if g.is_unipotent():
        trace.append({"step": "whole-algebra-unipotent"})
        return "unipotent-whole", g.full_subspace(), True

    for name, rung in _LADDER:
        found = rung(g, trace)
        if found is not None:
            return (name,) + found
    return None


def _rad_search(g, trace):
    """One walk down the ladder: (radical, strategy, exact).

    The walk alone descends: on a unipotent p-ideal I reported by a rung it
    takes the radical of g/I and pulls it back, so the answer is exact
    exactly when the quotient's is.  When no rung reports it runs the probe.
    """
    report = _first_report(g, trace)
    if report is None:
        # no complete strategy: probe for unipotent p-ideals, report a
        # lower bound
        found = _probe_lower_bound(g)
        trace.append({"step": "undecided", "lower_bound_dim": found.dim})
        return found, "probe", False
    name, sub, final = report
    if final:
        return sub, name, True
    q, project, section = g.quotient(sub)
    inner, _, exact = _rad_search(q, trace)
    return _pullback(g, sub, section, inner), name, exact


def _pullback(g, I, section, inner):
    """Preimage of a quotient subspace under g -> g/I."""
    vecs = list(I.basis) + [section(v) for v in inner.basis]
    return g.subspace(vecs)


def _unipotent_spins(g, candidates):
    """(key, I) for each candidate (key, v), in order, whose spun p-ideal I
    is proper and unipotent.

    One `rejected` set serves the scan: a spin that is all of g, or that
    the scan has already found not unipotent, is not tested, so each
    distinct proper spin that is not unipotent is tested once.
    """
    rejected = set()
    for key, v in candidates:
        I = g.spin_p_ideal(g.subspace([v]))
        if I.dim < g.dim and I not in rejected:
            if g.is_unipotent(I):
                yield key, I
            else:
                rejected.add(I)


def _centre_unipotent_part(g, Z):
    """The rational unipotent part of the p-map on a central subspace Z,
    or on g itself when g is abelian: a unipotent p-ideal of g."""
    part = SemilinearMap(g.field, g.p_power_matrix(Z)).rational_unipotent_part()
    if Z.dim == g.dim:
        # Z's basis is the identity, so part is already in g's coordinates
        return part
    return g.subspace([Z.lift(v) for v in part.basis])


def _s1_abelian(g, trace):
    """Abelian g: the rational unipotent part of the p-power map, the
    centre step that s4's zero-weight step takes on Z(g), here on Z = g.

    Complete whenever g is abelian; None otherwise.
    """
    if not g.is_abelian():
        return None
    part = _centre_unipotent_part(g, g.full_subspace())
    trace.append({"step": "s1-abelian", "dim": part.dim})
    return part, True


def _s2_derived(g, trace):
    """Report the p-closure D of [g, g] for the walk to reduce by.

    Applies when D is nonzero and unipotent, and is then as complete as the
    walk on g/D; None otherwise.
    """
    D = g.spin_p_ideal(g.derived_subalgebra())
    # D = g was just tested by `_first_report`
    if D.dim in (0, g.dim) or not g.is_unipotent(D):
        return None
    trace.append({"step": "s2-derived-reduction", "ideal_dim": D.dim})
    return D, False


def _s3_enumerate(g, trace):
    """Finite field: scan projective points for a unipotent p-ideal and
    report the first one found, or radical 0 when the scan is exhausted.

    Complete over a finite field on a g that is not unipotent, which
    `_first_report` tests first: a nonzero radical is then proper and
    contains a minimal unipotent p-ideal, hence a point whose spin is a
    proper unipotent p-ideal.  (On α_p every point spins to all of g, and
    the scan alone would report 0.)  None over an infinite field.  The
    points scanned and the first hit are those of testing every spin
    (`_unipotent_spins`).
    """
    if not isinstance(g.field, (PrimeField, ExtensionField)):
        return None
    points = enumerate(projective_points(g.field, g.dim))
    hit = next(_unipotent_spins(g, points), None)
    if hit is None:
        trace.append({"step": "s3-exhausted"})
        return g.zero_subspace(), True
    idx, I = hit
    trace.append({"step": "s3-point", "index": idx, "ideal_dim": I.dim})
    return I, False


def weight_decomposition(g):
    """First basis element whose ad is split semisimple over the prime field.

    Returns (index, {scalar c: eigenspace}) with the eigenspaces spanning g,
    or None.  x^p - x = ∏ (x - c) over c in GF(p) is separable, so ad(e_i)
    is split semisimple with weights in GF(p) iff ad(e_i)^p = ad(e_i), and
    some weight is nonzero iff ad(e_i) != 0; only such a pivot pays for
    the p eigenspaces.
    """
    F = g.field
    n = g.dim
    for i, A in enumerate(g.ad_basis()):
        if all(vec_is_zero(F, row) for row in A) or mat_pow(F, A, F.p) != A:
            continue
        spaces = {}
        for c in range(F.p):
            ce = F.from_int(c)
            shifted = tuple(
                tuple(F.sub(A[r][s], ce if r == s else F.zero)
                      for s in range(n)) for r in range(n))
            E = nullspace(F, shifted, n)
            if E.dim:
                spaces[c] = E
        return i, spaces
    return None


def _weight_vectors(F, E):
    """Candidate vectors of a weight space: the line itself, or the nonzero
    prime-field combinations of its basis when it is wider."""
    if E.dim == 1:
        return [E.basis[0]]
    scalars = [F.from_int(c) for c in range(F.p)]
    return [E.lift(coeffs)
            for coeffs in itertools.product(scalars, repeat=E.dim)
            if any(not F.is_zero(c) for c in coeffs)]


def _s4_split_weights(g, trace):
    """Split-weight fragment on the first split pivot of
    `weight_decomposition`, along whose weight spaces every p-ideal splits.

    Spin the vectors of the nonzero weight spaces (lines, or planes scanned
    over the prime field) and report the first unipotent spin; then report
    the final radical from the centre.  Complete when the split is: every
    nonzero weight space is a line and the zero-weight space E_0 is
    abelian.  Then rad_p(g) splits along the weight spaces and holds no
    weight line, as each spins to a p-ideal that is not unipotent, so it
    lies in E_0, which brackets it to 0, and is central.  The
    p-nilpotent part of the centre Z is a central, abelian, p-closed and
    p-nilpotent subspace, hence a unipotent p-ideal, so rad_p(g) is that
    part: the rational unipotent part of the p-map on Z.  None when s4
    does not settle g (no split pivot, a weight space wider than a plane,
    or an incomplete split with no unipotent weight spin).
    """
    dec = weight_decomposition(g)
    if dec is None:
        return None
    pivot, spaces = dec
    nonzero = {c: E for c, E in spaces.items() if c != 0}
    if any(E.dim > 2 for E in nonzero.values()):
        return None

    vectors = ((c, v) for c, E in sorted(nonzero.items())
               for v in _weight_vectors(g.field, E))
    hit = next(_unipotent_spins(g, vectors), None)
    if hit is not None:
        c, I = hit
        trace.append({"step": "s4-weight-line", "weight": c,
                      "pivot_basis": pivot, "ideal_dim": I.dim})
        return I, False

    zero_space = spaces.get(0, g.zero_subspace())
    if (any(E.dim > 1 for E in nonzero.values())
            or not g.is_abelian(zero_space)):
        return None

    J = _centre_unipotent_part(g, g.center())
    trace.append({"step": "s4-zero-weight", "pivot_basis": pivot,
                  "dim": J.dim})
    return J, True


# each rung returns None, or (subspace, final) as `_first_report` reads it
_LADDER = (("s1", _s1_abelian), ("s2", _s2_derived),
           ("s3", _s3_enumerate), ("s4", _s4_split_weights))


def _probe_lower_bound(g, samples=64):
    """Randomized search for unipotent p-ideals; a lower bound only."""
    F = g.field
    rng = random.Random(_PROBE_SEED)
    candidates = [g.basis_vector(i) for i in range(g.dim)]
    candidates += [tuple(F.random_element(rng) for _ in range(g.dim))
                   for _ in range(samples)]
    spins = _unipotent_spins(g, ((None, v) for v in candidates
                                 if not vec_is_zero(F, v)))
    # the first of the largest
    best = max((I for _, I in spins), key=lambda I: I.dim,
               default=g.zero_subspace())
    if best.dim:
        q, project, section = g.quotient(best)
        inner = _probe_lower_bound(q, samples=samples // 2 or 1)
        best = _pullback(g, best, section, inner)
    return best


# ---------------------------------------------------------------------------
# verdict operations built on the radical
# ---------------------------------------------------------------------------

def _geometric_p_nilpotent(g, S):
    """Whether S ⊗ k̄ has a nonzero p-nilpotent element, for an abelian
    p-closed subspace S: the stable rank of its p-semilinear map, which
    does not depend on the field, is below dim S."""
    if S.dim == 0:
        return False
    B = g.p_power_matrix(S)
    return SemilinearMap(g.field, B).stable_rank() < S.dim


def is_mult_type(g):
    """Abelian with invertible p-power semilinear matrix."""
    g.require_valid()
    return g.is_abelian() and not _geometric_p_nilpotent(g, g.full_subspace())


def is_p_reductive(g):
    """True/False/None(undecided): is the geometric radical trivial?

    The centre Z of g decides first, with one stable rank and no spin:
    - Z is an abelian p-ideal, because [x^[p], y] = ad(x)^p(y) = 0.
    - The matrix of φ^m, φ the p-semilinear map on Z, is
      B·B^(p)···B^(p^(m−1)), and its rank does not depend on the field.  So
      the stable rank is below dim Z exactly when Z ⊗ k̄ has a nonzero
      p-nilpotent element.
    - Z being abelian, the p-nilpotent part of Z ⊗ k̄ is a subspace.  It is
      central, hence an ideal, and it is p-closed, abelian and p-nilpotent,
      hence a unipotent p-ideal of g ⊗ k̄ (Jacobson's form of Engel's
      theorem).  So a stable rank below dim Z answers False.
    - When Z = g (g abelian) that part is the whole geometric radical, so
      full stable rank answers True: g is of multiplicative type.

    Otherwise the verdict is the ladder's first report (`_first_report`)
    on g.  A nonzero unipotent p-ideal, or a nonzero final radical, lies in
    the radical and stays unipotent after base change: False.  A zero final
    radical answers True, and no report answers None.  Over a finite field
    s3 always reports, and the field is perfect, so the radical commutes
    with base change to k̄.  Over GF(p)(t) two points show that there is
    nothing more to learn:
    - A zero final radical comes only from s4's zero-weight step, on a
      complete split: nonzero weight spaces are lines and the zero-weight
      space E_0 is abelian.  Its radical is the rational p-nilpotent part
      of Z(g), which the centre step has already shown to be 0 over k̄.
      The split stays complete over k̄, whose weight lines are spanned by
      the same rational vectors, so s4's argument holds there too: the
      geometric radical is the p-nilpotent part of Z ⊗ k̄, which is 0.
    - An inseparable base change t ↦ s^(p^m) changes no report.  The
      whole-unipotent test, s2's derived p-closure, the weight split, its
      completeness and its line and plane spins are spans of the same
      rational vectors, so they do not change, and s4's zero-weight part
      stays 0 by the first point.  Where g has no report, no such base
      change has one either.
    No quotient is built and the probe never runs.
    """
    g.require_valid()
    Z = g.center()
    if _geometric_p_nilpotent(g, Z):
        return False
    if Z.dim == g.dim:
        return True
    report = _first_report(g, [])
    if report is None:
        return None
    return report[1].dim == 0
