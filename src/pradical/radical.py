"""The restricted unipotent radical and related verdicts.

rad_p(g) is the largest unipotent p-ideal of g.  No complete algorithm is
available over imperfect fields, so the computation runs a ladder of
strategies, each with an explicit completeness condition; when none applies
the verdict degrades to "undecided-fragment" instead of guessing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .linalg import (
    Subspace, SemilinearMap, projective_points, semilinear_kernel,
    vec_add, vec_is_zero, vec_scale,
)

EXACT = "exact"
UNDECIDED = "undecided-fragment"


@dataclass
class RadicalCertificate:
    radical: Subspace
    strategy: str
    verdict: str
    trace: list = dc_field(default_factory=list)

    @property
    def is_exact(self):
        return self.verdict == EXACT


def _is_finite(field):
    return field.kind in ("prime", "extension")


def rad_p(g, strategy=None, trace=None):
    """Largest unipotent p-ideal, with a derivation trace.

    strategy: optional name ("s1".."s4") to force a single rung of the
    ladder (used by the oracle-compare mode); default tries them in order.
    """
    g.require_valid()
    trace = trace if trace is not None else []
    sub, used, exact = _rad_search(g, strategy, trace)
    return RadicalCertificate(sub, used, EXACT if exact else UNDECIDED, trace)


def _rad_search(g, strategy, trace, probe=True):
    """One walk down the ladder: (radical, strategy, exact).

    With probe=False the walk is exact-only: where it would run the probe,
    here or in the quotient after an s2, s3 or s4 reduction, it returns
    None instead.  The p-reductive verdicts use this mode, so they read only
    the complete rungs and the probe never runs for them.
    """
    F = g.field
    n = g.dim
    if n == 0:
        return g.zero_subspace(), "trivial", True

    if g.is_unipotent():
        trace.append({"step": "whole-algebra-unipotent"})
        return g.full_subspace(), "unipotent-whole", True

    if strategy in (None, "s1"):
        if g.is_abelian():
            B = g.p_power_matrix()
            part = SemilinearMap(F, B).rational_unipotent_part()
            trace.append({"step": "s1-abelian", "dim": part.dim})
            return part, "s1", True
        if strategy == "s1":
            raise ValueError("s1 forced on a non-abelian algebra")

    if strategy in (None, "s2"):
        derived = g.derived_subalgebra()
        D = g.spin_p_ideal(derived)
        if D.dim > 0 and g.is_unipotent(D):
            trace.append({"step": "s2-derived-reduction", "ideal_dim": D.dim})
            return _descend(g, D, "s2", trace, probe)
        if strategy == "s2":
            raise ValueError("s2 forced but the derived p-closure is not unipotent")

    if strategy in (None, "s3") and _is_finite(F):
        return _s3_enumerate(g, trace, probe)
    if strategy == "s3":
        raise ValueError("s3 forced over an infinite field")

    if strategy in (None, "s4"):
        result = _s4_split_weights(g, trace, probe)
        if result is not None:
            return result
        if strategy == "s4":
            raise ValueError("s4 fragment does not apply")

    if not probe:
        return None
    # no complete strategy: probe for unipotent p-ideals, report a lower bound
    found = _probe_lower_bound(g, trace)
    trace.append({"step": "undecided", "lower_bound_dim": found.dim})
    return found, "probe", False


def _descend(g, I, rung, trace, probe):
    """Radical of g/I pulled back to g, for a unipotent p-ideal I found by
    `rung`; None when probe=False and the quotient needs the probe."""
    q, project, section = g.quotient(I)
    found = _rad_search(q, None, trace, probe)
    if found is None:
        return None
    inner, used, exact = found
    return _pullback(g, I, section, inner), rung, exact


def _pullback(g, I, section, inner):
    """Preimage of a quotient subspace under g -> g/I."""
    vecs = list(I.basis) + [section(v) for v in inner.basis]
    return g.subspace(vecs)


def _s3_enumerate(g, trace, probe):
    """Finite field: scan projective points for a unipotent p-ideal.

    Complete: a nonzero radical contains a minimal unipotent p-ideal, hence
    a point whose spin is a unipotent p-ideal.
    """
    F = g.field
    for idx, v in enumerate(projective_points(F, g.dim)):
        I = g.spin_p_ideal(g.subspace([v]))
        if I.dim < g.dim and g.is_unipotent(I):
            trace.append({"step": "s3-point", "index": idx, "ideal_dim": I.dim})
            return _descend(g, I, "s3", trace, probe)
    trace.append({"step": "s3-exhausted"})
    return g.zero_subspace(), "s3", True


def weight_decomposition(g):
    """First basis element whose ad is split semisimple over the prime field.

    Returns (index, {scalar c: eigenspace}) with the eigenspaces spanning g,
    or None.
    """
    from .linalg import nullspace, mat_identity

    F = g.field
    n = g.dim
    for i in range(n):
        A = g.ad_basis()[i]
        spaces = {}
        total = 0
        for c in range(F.p):
            ce = F.from_int(c)
            shifted = tuple(
                tuple(F.sub(A[r][s], ce if r == s else F.zero)
                      for s in range(n)) for r in range(n))
            E = nullspace(F, shifted, n)
            if E.dim:
                spaces[c] = E
                total += E.dim
        if total == n and any(c != 0 for c in spaces):
            return i, spaces
    return None


def _s4_split_weights(g, trace, probe):
    """Split-weight fragment.

    Pick a basis element h with ad(h) split semisimple over the prime field;
    every unipotent p-ideal splits along the eigenspaces.  Nonzero weight
    lines are tested directly; what remains must sit inside the zero-weight
    space, which is handled by the abelian machinery when it is abelian.
    Complete when all nonzero weight spaces are 1-dimensional and the
    zero-weight space is abelian.  Returns None when the fragment does not
    settle g, or when probe=False and the quotient after a weight line
    would need the probe.
    """
    F = g.field
    dec = weight_decomposition(g)
    if dec is None:
        return None
    h_idx, spaces = dec
    nonzero = {c: E for c, E in spaces.items() if c != 0}
    zero_space = spaces.get(0, g.zero_subspace())
    if any(E.dim > 2 for E in nonzero.values()):
        return None

    complete = (all(E.dim == 1 for E in nonzero.values())
                and g.is_abelian(zero_space))

    # candidate weight vectors: full weight lines when dim 1, prime-field
    # combinations when dim 2 (incomplete, hence the verdict downgrade)
    for c, E in sorted(nonzero.items()):
        candidates = []
        if E.dim == 1:
            candidates.append(E.basis[0])
        else:
            for a in range(F.p):
                for b in range(F.p):
                    if a == 0 and b == 0:
                        continue
                    v = vec_add(F, vec_scale(F, E.basis[0], F.from_int(a)),
                                vec_scale(F, E.basis[1], F.from_int(b)))
                    candidates.append(v)
        for v in candidates:
            I = g.spin_p_ideal(g.subspace([v]))
            if I.dim < g.dim and g.is_unipotent(I):
                trace.append({"step": "s4-weight-line", "weight": c,
                              "pivot_basis": h_idx, "ideal_dim": I.dim})
                return _descend(g, I, "s4", trace, probe)

    if not complete:
        return None

    # all unipotent p-ideals now live inside the abelian zero-weight space
    J = _largest_unipotent_ideal_in_abelian(g, zero_space, nonzero)
    trace.append({"step": "s4-zero-weight", "pivot_basis": h_idx,
                  "dim": J.dim})
    return J, "s4", True


def _largest_unipotent_ideal_in_abelian(g, zero_space, nonzero_spaces):
    """Largest unipotent p-ideal of g contained in the abelian zero-weight
    space: start from its p-nilpotent part, then shrink to the greatest
    subspace killed by the nonzero-weight operators and stable under the
    p-operation."""
    F = g.field
    if zero_space.dim == 0:
        return g.zero_subspace()
    B0 = g.p_power_matrix(zero_space)
    W_local = SemilinearMap(F, B0).rational_unipotent_part()
    W = g.subspace([zero_space.lift(lv) for lv in W_local.basis])
    # bracket with nonzero-weight vectors must vanish (it leaves weight 0)
    vanish_rows = []
    for c, E in sorted(nonzero_spaces.items()):
        for w in E.basis:
            Ad = g.ad_matrix(w)
            vanish_rows.extend(Ad)
    C = W
    if vanish_rows:
        from .linalg import nullspace
        killed = nullspace(F, vanish_rows, g.dim)
        C = W.intersect(killed)
    # greatest p-stable subspace of C: J <- {x in J : x^[p] in J}
    J = C
    for _ in range(g.dim + 1):
        if J.dim == 0:
            break
        A = J.constraint_matrix()
        # x ranges over the zero-weight space; express the p-power map there
        pre = _semilinear_preimage_in_subspace(g, zero_space, B0, A)
        nxt = J.intersect(pre)
        if nxt == J:
            break
        J = nxt
    return J


def _semilinear_preimage_in_subspace(g, space, B_local, constraint_rows):
    """{x in `space` : constraint_rows . x^[p] = 0}, in ambient coordinates."""
    F = g.field
    d = space.dim
    # constraint on the p-power expressed in local coordinates: rows . lift(B_local . x^(p))
    lifted_cols = [space.lift(tuple(B_local[k][j] for k in range(d)))
                   for j in range(d)]
    # matrix M with M . x_local^(p) = constraint_rows . p_power(x): rows x d
    rows = []
    for r in constraint_rows:
        rows.append(tuple(F.sum(F.mul(r[a], lifted_cols[j][a])
                                for a in range(g.dim))
                          for j in range(d)))
    local = semilinear_kernel(F, rows) if rows else Subspace.full(F, d)
    return g.subspace([space.lift(lv) for lv in local.basis])


def _probe_lower_bound(g, trace, samples=64, seed=20260826):
    """Randomized search for unipotent p-ideals; a lower bound only."""
    F = g.field
    rng = random.Random(seed)
    best = g.zero_subspace()
    candidates = []
    for i in range(g.dim):
        candidates.append(g.basis_vector(i))
    for _ in range(samples):
        candidates.append(tuple(F.random_element(rng) for _ in range(g.dim)))
    for v in candidates:
        if vec_is_zero(F, v):
            continue
        I = g.spin_p_ideal(g.subspace([v]))
        if I.dim < g.dim and g.is_unipotent(I) and I.dim > best.dim:
            best = I
    if best.dim:
        q, project, section = g.quotient(best)
        inner = _probe_lower_bound(q, trace, samples=samples // 2 or 1)
        best = _pullback(g, best, section, inner)
    return best


# ---------------------------------------------------------------------------
# verdict operations built on the radical
# ---------------------------------------------------------------------------

def is_mult_type(g):
    """Abelian with invertible p-power semilinear matrix."""
    g.require_valid()
    if g.dim == 0:
        return True
    if not g.is_abelian():
        return False
    B = g.p_power_matrix()
    return SemilinearMap(g.field, B).stable_rank() == g.dim


def is_p_reductive(g, max_inseparable_exponent=4):
    """True/False/None(undecided): is the geometric radical trivial?

    Every radical read here comes from the complete rungs of the ladder
    (`_rad_search` with probe=False): a verdict uses only exact radicals,
    so the probe, whose lower bound is never exact, does not run.
    """
    g.require_valid()
    if g.dim == 0:
        return True
    radical = _exact_radical(g)
    if radical is not None and radical.dim > 0:
        return False

    if _is_finite(g.field):
        # perfect base field: separable base-change invariance applies
        return None if radical is None else True

    if g.is_abelian():
        B = g.p_power_matrix()
        return SemilinearMap(g.field, B).stable_rank() == g.dim

    verdict = _geometric_s4(g)
    if verdict is not None:
        return verdict

    # falsifier: bounded purely inseparable base change t -> s^(p^m)
    from .fields import RationalFunctionField, base_change_map

    if g.field.kind == "rational-function":
        for m in range(1, max_inseparable_exponent + 1):
            target = RationalFunctionField(g.field.p, "@s")
            hom = base_change_map(g.field, target, m)
            radical_m = _exact_radical(g.base_change(hom))
            if radical_m is not None and radical_m.dim > 0:
                return False
    return None


def _exact_radical(g):
    """rad_p(g) when a complete rung settles it, else None."""
    found = _rad_search(g, None, [], probe=False)
    return None if found is None else found[0]


def _geometric_s4(g):
    """Split-weight geometric criterion.

    Unipotency of a spin is insensitive to base change, so the nonzero
    weight lines answer the same as over the base field; in the abelian
    zero-weight space the geometric p-nilpotent part is measured by the
    stable rank.  Complete when nonzero weight spaces are lines and the
    zero-weight space is abelian.
    """
    F = g.field
    dec = weight_decomposition(g)
    if dec is None:
        return None
    h_idx, spaces = dec
    nonzero = {c: E for c, E in spaces.items() if c != 0}
    zero_space = spaces.get(0, g.zero_subspace())
    if any(E.dim != 1 for E in nonzero.values()):
        return None
    if zero_space.dim and not g.is_abelian(zero_space):
        return None
    for c, E in sorted(nonzero.items()):
        I = g.spin_p_ideal(g.subspace([E.basis[0]]))
        if I.dim < g.dim and g.is_unipotent(I):
            return False
    if zero_space.dim == 0:
        return True
    B0 = g.p_power_matrix(zero_space)
    geometric_part = zero_space.dim - SemilinearMap(F, B0).stable_rank()
    if geometric_part == 0:
        return True
    # a geometric p-nilpotent part exists; whether it survives the
    # invariance constraints is settled after bounded base change
    return None


def one_dim_p_ideals(g):
    """All one-dimensional p-ideals of g, as a (list of lines, verdict) pair.

    Over a finite field: complete projective scan, verdict "exact".  Over an
    infinite field a split eigenbasis element is used: a stable line has a
    single weight, nonzero-weight lines are exhausted exactly, and the
    zero-weight ones must be killed by every nonzero-weight vector.  When
    the remaining candidate space is more than a line the p-power condition
    turns nonlinear and the verdict degrades to "undecided-fragment" (the
    returned lines are still genuine p-ideals).
    """
    F = g.field
    if g.dim == 0:
        return [], EXACT

    def line_of(v):
        return g.subspace([v])

    if _is_finite(F):
        lines = [line_of(v) for v in projective_points(F, g.dim)
                 if g.is_p_ideal(line_of(v))]
        return lines, EXACT

    found = []

    def try_line(v):
        L = line_of(v)
        if L.dim == 1 and g.is_p_ideal(L) and L not in found:
            found.append(L)

    dec = weight_decomposition(g)
    if dec is None:
        for i in range(g.dim):
            try_line(g.basis_vector(i))
        return found, UNDECIDED

    h_idx, spaces = dec
    complete = True
    zero_space = spaces.get(0, g.zero_subspace())
    nonzero = {c: E for c, E in spaces.items() if c != 0}

    for c, E in sorted(nonzero.items()):
        if E.dim == 1:
            try_line(E.basis[0])
        else:
            complete = False
            for coeffs in _prime_field_combinations(F, E.dim):
                try_line(E.lift(coeffs))

    if zero_space.dim:
        # a stable line in the zero-weight space is killed by every
        # nonzero-weight vector (brackets land in the other weight space)
        rows = []
        for E in nonzero.values():
            for w in E.basis:
                rows.extend(g.ad_matrix(w))
        C = zero_space
        if rows:
            from .linalg import nullspace
            C = C.intersect(nullspace(F, rows, g.dim))
        if not g.is_abelian(zero_space):
            complete = False
        if C.dim == 1:
            try_line(C.basis[0])
        elif C.dim > 1:
            complete = False
            for v in C.basis:
                try_line(v)
    return found, EXACT if complete else UNDECIDED


def _prime_field_combinations(F, k):
    import itertools

    scalars = [F.from_int(c) for c in range(F.p)]
    for coeffs in itertools.product(scalars, repeat=k):
        if any(not F.is_zero(c) for c in coeffs):
            yield coeffs
