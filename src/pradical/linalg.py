"""Exact linear and Frobenius-semilinear algebra over the scalar domains.

Vectors are tuples of field elements, matrices are tuples of row tuples.
Subspaces are stored as reduced-row-echelon bases, which makes equality
syntactic and all set operations canonical.  Reduction modulo a subspace
needs only a semi-echelon basis (`reduce_in_place`).

Sparse vectors are their nonzero (k, c) terms (`vec_terms`), and a
structure-constant table is one such vector per basis product e_i·e_j.
The Lie and Hopf sides share four sparse pieces here: the linear
combination `lin_comb` (e_i·y and x·e_j combine a row or a column of a
table), the bilinear product `sc_accumulate` (the `product` of
`StructureConstants`, which is both the Lie bracket and the associative
product), the Kronecker product `kron` (with `kron_product`, the product in
a tensor square), and `Subspace.coordinates`.  Both sides also run their
descending chains of subspaces (derived and lower central series, the
unipotency chains of a p-subalgebra and of an augmentation ideal) through
`descending_chain`.
"""

from __future__ import annotations

import itertools

from .fields import power


# ---------------------------------------------------------------------------
# vectors and matrices, generic over a descriptor
# ---------------------------------------------------------------------------

def vec_zero(F, n):
    return (F.zero,) * n


def vec_add(F, a, b):
    return tuple(F.add(x, y) for x, y in zip(a, b))


def vec_sub(F, a, b):
    return tuple(F.sub(x, y) for x, y in zip(a, b))


def vec_scale(F, a, c):
    return tuple(F.mul(c, x) for x in a)


def vec_is_zero(F, a):
    return all(F.is_zero(x) for x in a)


def vec_terms(F, v):
    """The nonzero coordinates of v as (index, value) pairs.  Elements are
    canonical, so this is `F.is_zero` without a call per coordinate."""
    zero = F.zero
    return tuple([(k, c) for k, c in enumerate(v) if c != zero])


def reduce_in_place(F, v, rows, pivots):
    """Subtract v[pc]·row from the list v for each row of a semi-echelon
    basis and its pivot pc, in basis order.  Each row is one at its pivot
    and zero at the pivots of the rows before it, so v ends zero at every
    pivot, and it is zero exactly when it was in the span.  Only the
    nonzero entries of a row cost a product and a sum."""
    zero, add, mul = F.zero, F.add, F.mul
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c != zero:
            c = F.neg(c)
            for k, t in enumerate(row):
                if t != zero:
                    v[k] = add(v[k], mul(c, t))


def mat_identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n))
                 for i in range(n))


def lin_comb(F, rows, xs, n):
    """Σ c·rows[i] over the (i, c) terms of xs, as an n-tuple; each row is
    given by its nonzero terms."""
    out = [F.zero] * n
    for i, c in xs:
        for k, t in rows[i]:
            out[k] = F.add(out[k], F.mul(c, t))
    return tuple(out)


def sc_accumulate(F, out, table, xs, ys):
    """out += Σ a·b·(e_i·e_j) in place, over the (i, a) terms of xs and the
    (j, b) terms of ys, with e_i·e_j read as its nonzero terms from the
    structure-constant table entry table[i][j]."""
    for i, a in xs:
        row = table[i]
        for j, b in ys:
            if row[j]:
                ab = F.mul(a, b)
                for k, t in row[j]:
                    out[k] = F.add(out[k], F.mul(ab, t))


def kron(F, u, v):
    """u ⊗ v, with e_a⊗e_b at index a·len(v) + b."""
    m = len(v)
    out = [F.zero] * (len(u) * m)
    vs = vec_terms(F, v)
    for a, x in vec_terms(F, u):
        for b, y in vs:
            out[a * m + b] = F.mul(x, y)
    return tuple(out)


def kron_product(F, table, d, us, vs):
    """u·v in A ⊗ A, for u and v given by their (a, b, c) terms c·e_a⊗e_b
    and A by its d-dimensional structure-constant table: the bilinear
    product over the Kronecker square of the table,
    (e_a⊗e_b)·(e_a'⊗e_b') = e_a·e_a' ⊗ e_b·e_b', laid out as `kron`."""
    add, mul = F.add, F.mul
    out = [F.zero] * (d * d)
    for a1, b1, c1 in us:
        left, right = table[a1], table[b1]
        for a2, b2, c2 in vs:
            la, rb = left[a2], right[b2]
            if la and rb:
                c = mul(c1, c2)
                for a, x in la:
                    cx = mul(c, x)
                    base = a * d
                    for b, y in rb:
                        out[base + b] = add(out[base + b], mul(cx, y))
    return tuple(out)


class StructureConstants:
    """F^dim with the bilinear product read from a structure-constant
    table: `product` is the Lie bracket of `lie.RLieAlgebra` and the
    associative product of `hopf.SCAlgebra`.  The dense table, entry [i][j]
    the coordinates of e_i·e_j, is kept as its nonzero terms."""

    def __init__(self, field, dim, table):
        self.field = field
        self.dim = dim
        self._terms = tuple(tuple(vec_terms(field, v) for v in row)
                            for row in table)

    def product(self, x, y):
        F = self.field
        out = [F.zero] * self.dim
        sc_accumulate(F, out, self._terms, vec_terms(F, x), vec_terms(F, y))
        return tuple(out)

    def basis_vector(self, i):
        F = self.field
        return tuple(F.one if j == i else F.zero for j in range(self.dim))


def mat_mul(F, A, B):
    """A·B from the nonzero entries only: row i is Σ c·(row l of B) over
    the nonzero (l, c) of row i of A."""
    m = len(B[0]) if B else 0
    rows = [vec_terms(F, row) for row in B]
    return tuple([lin_comb(F, rows, vec_terms(F, row), m) for row in A])


def mat_sub(F, A, B):
    return tuple(vec_sub(F, ra, rb) for ra, rb in zip(A, B))


def mat_pow(F, A, e):
    """A^e by square-and-multiply: about 2 log2(e) products, not e."""
    if e == 0:
        return mat_identity(F, len(A))
    return power(lambda X, Y: mat_mul(F, X, Y),
                 tuple(tuple(row) for row in A), e, None)


def mat_frobenius(F, A, e=1):
    """Entrywise p^e-th power."""
    q = F.p ** e
    return tuple(tuple(F.pow_int(x, q) for x in row) for row in A)


def rref(F, rows):
    """Reduced row echelon form; returns (rows, pivot columns).

    The pivot row is zero before its pivot column c, so it is scaled to one
    at c only at its nonzero entries after c, and those (k, t) terms are
    all that eliminating column c from another row costs, as in
    `reduce_in_place`."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    zero, one, add, mul = F.zero, F.one, F.add, F.mul
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c] != zero:
                break
        else:
            continue
        row = rows[i]
        rows[r], rows[i] = row, rows[r]
        lead = row[c]
        row[c] = one
        terms = [(k, x) for k, x in enumerate(row[c + 1:], c + 1) if x != zero]
        if lead != one:
            inv = F.inv(lead)
            terms = [(k, mul(inv, x)) for k, x in terms]
            for k, x in terms:
                row[k] = x
        for i in range(nrows):
            other = rows[i]
            f = other[c]
            if i != r and f != zero:
                other[c] = zero
                f = F.neg(f)
                for k, t in terms:
                    other[k] = add(other[k], mul(f, t))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple([tuple(row) for row in rows[:r]]), tuple(pivots)


def mat_rank(F, A):
    return len(rref(F, A)[0])


def nullspace(F, A, ncols):
    """Solutions x (as row vectors) of A x = 0, returned as a Subspace."""
    basis, pivots = rref(F, A)
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(basis[r][fc])
        vecs.append(tuple(v))
    return Subspace.from_vectors(F, ncols, vecs)


class Subspace:
    """A subspace of F^n held as a canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length %d != ambient %d" % (len(v), ambient))
        basis, pivots = rref(field, list(vectors))
        return cls(field, ambient, basis, pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, mat_identity(field, ambient),
                   tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient)

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspace mismatch: %r vs %r" % (self, other))

    def reduce(self, v):
        """Reduce v modulo the basis (kill pivot coordinates)."""
        v = list(v)
        reduce_in_place(self.field, v, self.basis, self.pivots)
        return tuple(v)

    def lift(self, coords):
        """The ambient vector with coordinates `coords` along the basis."""
        F = self.field
        return lin_comb(F, [vec_terms(F, b) for b in self.basis],
                        vec_terms(F, coords), self.ambient)

    def coordinates(self, v):
        """The coordinates of v along the basis, or None when v is not in
        the subspace.  An RREF row is one at its pivot and zero at the other
        pivots, so they are v's entries at the pivots."""
        coords = tuple(v[pc] for pc in self.pivots)
        return coords if self.lift(coords) == tuple(v) else None

    def contains_vector(self, v):
        return vec_is_zero(self.field, self.reduce(v))

    def contains(self, other):
        self._check(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other):
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def annihilator(self):
        """{y : <b, y> = 0 for all basis rows b}."""
        if not self.basis:
            return Subspace.full(self.field, self.ambient)
        return nullspace(self.field, self.basis, self.ambient)

    def intersect(self, other):
        self._check(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    def quotient_data(self):
        """Complement coordinates and projection onto them.

        Returns (complement_indices, project, section): `project` maps an
        ambient vector to its coordinates along the standard-basis complement,
        `section` embeds complement coordinates back into the ambient space.
        """
        comp = tuple(c for c in range(self.ambient) if c not in self.pivots)

        def project(v):
            red = self.reduce(v)
            return tuple(red[c] for c in comp)

        def section(coords):
            v = [self.field.zero] * self.ambient
            for c, x in zip(comp, coords):
                v[c] = x
            return tuple(v)

        return comp, project, section

    def closure(self, vectors, images):
        """The smallest subspace containing this one and `vectors` that is
        closed under `images`, by spinning (R. A. Parker, "The computer
        calculation of modular characters", 1984).

        The rows found so far form a semi-echelon basis: this subspace's
        RREF rows, then one row per vector new to the span, reduced by
        `reduce_in_place` against the rows before it and scaled to one at
        its first nonzero entry.  images(v, rows) lists the vectors that
        must lie in the span with v; it is taken once of each new row, in
        the order the rows were found, and `rows` is the list found so far,
        v included.  So the result is spanned by this subspace, which must
        already be closed, and rows whose images were taken.  That suffices
        when the closure condition on a spanning set gives it everywhere: a
        linear map, or a bilinear one taken as images(v, rows) =
        [(v, u) for u in rows], since of two rows the one found later has
        the other among its `rows`.  Once the rows span F^n the images still
        pending are skipped; otherwise one `rref` makes the basis canonical.
        """
        F = self.field
        n = self.ambient
        zero, one, mul = F.zero, F.one, F.mul
        rows, pivots = list(self.basis), list(self.pivots)
        done = start = len(rows)
        todo = vectors
        while True:
            for w in todo:
                if len(w) != n:
                    raise ValueError("vector length %d != ambient %d"
                                     % (len(w), n))
                v = list(w)
                reduce_in_place(F, v, rows, pivots)
                for pc, c in enumerate(v):
                    if c != zero:
                        break
                else:
                    continue
                if c != one:
                    inv = F.inv(c)
                    v = [x if x == zero else mul(inv, x) for x in v]
                rows.append(tuple(v))
                pivots.append(pc)
                if len(rows) == n:
                    return Subspace.full(F, n)
            if done == len(rows):
                break
            todo = images(rows[done], rows)
            done += 1
        if len(rows) == start:
            return self
        basis, pivots = rref(F, rows)
        return Subspace(F, n, basis, pivots)

    def constraint_matrix(self):
        """A matrix whose nullspace is exactly this subspace."""
        ann = self.annihilator()
        return ann.basis if ann.basis else ((self.field.zero,) * self.ambient,)


def descending_chain(S, step):
    """The chain S, step(S), step(step(S)), ... of subspaces, as a list,
    up to the first term that is 0 or that `step` maps to itself.  For a
    `step` with step(T) ⊆ T it ends within dim S steps."""
    chain = [S]
    while S.dim:
        S = step(S)
        if S == chain[-1]:
            break
        chain.append(S)
    return chain


def all_subspaces(F, n):
    """All subspaces of F^n (finite field), via RREF enumeration."""
    elems = list(F.elements())
    yield Subspace.zero(F, n)
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free_positions = []
            for i in range(r):
                for c in range(pivots[i] + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for fill in itertools.product(elems, repeat=len(free_positions)):
                rows = [[F.zero] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = F.one
                for (i, c), val in zip(free_positions, fill):
                    rows[i][c] = val
                basis = tuple(tuple(row) for row in rows)
                yield Subspace(F, n, basis, pivots)


def projective_points(F, n):
    """Nonzero vectors of F^n up to scalars, first nonzero coordinate 1."""
    elems = list(F.elements())
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            v = [F.zero] * lead + [F.one] + list(tail)
            yield tuple(v)


# ---------------------------------------------------------------------------
# Frobenius-semilinear maps
# ---------------------------------------------------------------------------

class SemilinearMap:
    """v |-> B . v^(p): additive, scaling twisted by the Frobenius."""

    def __init__(self, field, matrix):
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)
        self.n = len(self.matrix)

    def __repr__(self):
        return "SemilinearMap(n=%d over %r)" % (self.n, self.field)

    def rational_unipotent_part(self):
        """Ascending union of ker(phi^i), i = 1..n; a genuine subspace."""
        F = self.field
        K = Subspace.zero(F, self.n)
        for _ in range(self.n):
            A = K.constraint_matrix()
            nxt = semilinear_kernel(F, mat_mul(F, A, self.matrix))
            if nxt == K:
                break
            K = nxt
        return K

    def stable_rank(self):
        """Rank of B . B^(p) . B^(p^2) ... at stabilization (m <= n steps)."""
        F = self.field
        M = self.matrix
        r = mat_rank(F, M)
        for i in range(1, self.n + 1):
            M = mat_mul(F, M, mat_frobenius(F, self.matrix, i))
            r2 = mat_rank(F, M)
            if r2 == r:
                return r
            r = r2
        return r


def semilinear_kernel(F, B):
    """{v : B . v^(p) = 0} over the base field.

    Solve B u = 0 linearly, then cut the solution space down to vectors whose
    entries are all p-th powers, using the decomposition of the field over
    its subfield of p-th powers; take entrywise p-th roots at the end.
    """
    n = len(B[0]) if B else 0
    W = nullspace(F, B, n)
    if W.dim == 0:
        return W
    basis = W.basis  # u = sum_l c_l w_l, with c_l the pivot coordinates of u
    d = W.dim
    pivots = set(W.pivots)
    nb = len(F.pth_basis)
    # components[l][j] = [m_0, ..., m_{nb-1}] with w_lj = sum_i basis_i * m_i^p
    comps = [[F.pth_components(x) for x in row] for row in basis]
    constraints = []
    for j in range(n):
        if j in pivots:
            continue
        for i in range(1, nb):
            constraints.append(tuple(comps[l][j][i] for l in range(d)))
    if constraints:
        sols = nullspace(F, constraints, d)
        s_vectors = sols.basis
    else:
        s_vectors = mat_identity(F, d)
    out = []
    for s in s_vectors:
        v = [F.zero] * n
        for l, pc in enumerate(W.pivots):
            v[pc] = s[l]
        for j in range(n):
            if j not in pivots:
                v[j] = F.sum(F.mul(comps[l][j][0], s[l]) for l in range(d))
        out.append(tuple(v))
    return Subspace.from_vectors(F, n, out)
