"""The three benchmark workloads.

Each workload is one closed-loop client with one op in flight.  ``setup``
generates every input from the seed; the program sees only those inputs.
``rounds()`` yields the op sequence in rounds: a round has a fixed
composition, so a run made of whole rounds measures the same mix whatever
its length.  Each op is prepared outside the timed region; only ``call()`` is
timed.  ``answer()`` turns the op's result into a canonical text (for the
answer digest) and ``check()`` verifies it, outside the timed region.

survey   one op is ``rad_p(g)`` with the default ladder on one algebra of
         the full GF(3) and GF(2) dimension-3 grids, in a seeded order.
         Each algebra object is built fresh, so its per-algebra caches are
         cold.  Stresses per-call overhead in lie, linalg and the prime field.
certify  one op is an in-process ``pradical.cli.main([command, doc.alg,
         "--json", out])`` on a few large algebras: seeded bases over GF(p)
         and GF(p^m), and gallery bases over GF(p)(t).  Stresses deep spins,
         the s3 scan, Jacobson expansion at large p, all three scalar
         domains and the text/certificate layer.
hopf     one op builds ``dual_hopf(u_env(g))``, validates it, and checks the
         subgroup ideal of a seeded p-subalgebra S and its normality.
         Stresses the dense loops in hopf and envelope.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass

from pradical import certificates, cli, envelope, gallery, hopf, radical
from pradical.fields import ExtensionField, PrimeField, RationalFunctionField
from pradical.lie import RLieAlgebra
from pradical.survey import brute_force_radical, enumerate_algebras
from pradical.textio import parse_element, safe_labels

import algebras

EXACT = "exact"


@dataclass
class Op:
    key: object          # identifies the input, for checks
    prepare: object      # () -> zero-argument callable; runs untimed


@dataclass
class Answer:
    text: str            # canonical answer, hashed into the digest
    undecided: bool
    detail: object       # what check() needs


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

class Survey:
    name = "survey"
    round_ops = 256
    check_sample = 1200

    def setup(self, seed, workdir):
        started = time.perf_counter()
        grid = []
        for p in (3, 2):
            F = PrimeField(p)
            for g in enumerate_algebras(F, 3, cap=10 ** 9):
                grid.append((F, g.brackets, g.ppowers))
        self.enumerate_s = time.perf_counter() - started
        self.grid = grid
        self.seed = seed
        self.oracle_s = 0.0

    def rounds(self):
        rng = random.Random(self.seed)
        order = []
        while True:
            if len(order) < self.round_ops:
                fresh = list(range(len(self.grid)))
                rng.shuffle(fresh)
                order.extend(fresh)
            chunk, order = order[:self.round_ops], order[self.round_ops:]
            yield [Op(i, self._prepare(i)) for i in chunk]

    def _fresh(self, i):
        F, brackets, ppowers = self.grid[i]
        return RLieAlgebra(F, 3, brackets, ppowers)

    def _prepare(self, i):
        def prepare():
            g = self._fresh(i)
            return lambda: radical.rad_p(g)
        return prepare

    def answer(self, key, cert):
        text = "%s %s %r" % (cert.strategy, cert.verdict, cert.radical.basis)
        return Answer(text, cert.verdict != EXACT, cert)

    def check(self, records):
        """Compare a seeded sample of ops with the brute-force oracle."""
        rng = random.Random(self.seed + 1)
        idx = list(range(len(records)))
        if len(idx) > self.check_sample:
            idx = rng.sample(idx, self.check_sample)
        started = time.perf_counter()
        bad = {}
        for n in idx:
            rec = records[n]
            if rec.error is not None:
                continue
            cert = rec.answer.detail
            oracle = brute_force_radical(self._fresh(rec.key))
            if cert.radical != oracle or cert.verdict != EXACT:
                bad[n] = "grid algebra %d: rad_p %r (%s) != oracle %r" % (
                    rec.key, cert.radical.basis, cert.verdict, oracle.basis)
        self.oracle_s += time.perf_counter() - started
        return bad, len(idx)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@dataclass
class Doc:
    name: str
    path: str
    command: str
    radical_dim: int | None   # known radical dimension (radical command)
    verdict: str              # known verdict
    accept: tuple             # verdicts that are at least as exact and right


class _NullOut:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


BOTH = ("radical", "p-reductive")
RADICAL = ("radical",)


@dataclass
class Family:
    """Certify documents of one kind.  ``make(rng)`` builds one algebra;
    a seeded family has ``variants`` documents (seeded bases or a seeded
    parameter), a fixed family one."""
    name: str
    make: object
    commands: tuple
    radical_dim: int | None
    p_reductive: str | None
    variants: int = 1
    seeded: bool = False
    undecided: bool = False   # known verdict is undecided at the seed commit


_PAPER_PRIMES = (2, 3, 5, 7, 11, 13)
_WITT_T_PRIMES = (7, 11, 13)


def _seeded_basis(base):
    return lambda rng: algebras.change_basis(base(), rng)


def _families():
    witt3 = functools.cache(lambda: algebras.witt(3))
    witt_alpha3 = functools.cache(lambda: algebras.with_alpha(witt3()))
    out = [
        Family("witt-p3", _seeded_basis(witt3), BOTH, 0, "true", 48, True),
        Family("witt-alpha-p3", _seeded_basis(witt_alpha3), BOTH, 1, "false",
               96, True),
        Family("witt-p5", _seeded_basis(lambda: algebras.witt(5)), RADICAL,
               0, None, 1, True),
        Family("witt-alpha-p3-gf9", _seeded_basis(
            lambda: algebras.base_change(witt_alpha3(), ExtensionField(3, 2))),
            RADICAL, 1, None, 1, True),
        Family("sl2-kernel-alpha-gf8", _seeded_basis(
            lambda: algebras.base_change(algebras.sl2_kernel_alpha(),
                                         ExtensionField(2, 3))),
            RADICAL, 1, None, 1, True),
    ]
    for p in _PAPER_PRIMES:
        K = RationalFunctionField(p)
        out += [
            Family("paper-G.p%d" % p, lambda rng, p=p: algebras.paper_g(p),
                   BOTH, 0, "true"),
            Family("paper-G.p%d.a" % p, lambda rng, p=p, K=K: algebras.paper_g(
                p, algebras.non_pth_power(K, rng)), BOTH, 0, "true", 8, True),
            Family("paper-G-mod-X.p%d" % p,
                   lambda rng, p=p: algebras.paper_g_mod_x(p), BOTH, 1,
                   "false"),
        ]
    for p in _WITT_T_PRIMES:
        K = RationalFunctionField(p)
        out += [
            Family("witt-t.p%d" % p,
                   lambda rng, p=p, K=K: algebras.base_change(
                       algebras.witt(p), K), RADICAL, 0, None),
            Family("witt-alpha-t.p%d" % p,
                   lambda rng, p=p, K=K: algebras.base_change(
                       algebras.with_alpha(algebras.witt(p)), K),
                   RADICAL, 1, None),
        ]
    # the probe (inside rad_p) and the inseparable base-change loop: the
    # verdict is undecided at the seed commit; "true" would be more exact
    out.append(Family("paper-G-squared.p2",
                      lambda rng: algebras.paper_g_squared(2),
                      ("p-reductive",), None, "true", undecided=True))
    return out


class Certify:
    """Ten heavy documents (s3 over GF(5), GF(9) and GF(8), W(1) over
    GF(p)(t) at large p, the probe) are 2% of the ops and most of the time.
    The many small ones, most in seeded variants, put p50 and p90 inside a
    well-sampled body of the latency distribution, so that both depend
    little on the seed: p90 falls among the W(1)+alpha scans over GF(3),
    whose cost depends on where the seeded basis puts the radical.  Every
    round runs the same documents, so a run of one round and a run of two
    measure the same mix."""
    name = "certify"

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.enumerate_s = 0.0
        self.oracle_s = 0.0
        self.algebras = {}
        self.seed = seed
        self._checked = {}
        rng = random.Random(seed)
        self.docs = []
        for fam in _families():
            if not fam.seeded:
                self.docs += self._docs(fam, fam.name, fam.make(None))
                continue
            for v in range(fam.variants):
                self.docs += self._docs(fam, "%s.v%d" % (fam.name, v),
                                        fam.make(rng))

    def _docs(self, fam, name, g):
        path = os.path.join(self.workdir, name + ".alg")
        text = algebras.document(g)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.algebras[path] = g
        out = []
        for command in fam.commands:
            if command == "radical":
                known = "undecided-fragment" if fam.undecided else EXACT
                out.append(Doc(name, path, command, fam.radical_dim, known,
                               (EXACT, known)))
            else:
                known = "undecided" if fam.undecided else fam.p_reductive
                out.append(Doc(name, path, command, None, known,
                               (fam.p_reductive, known)))
        return out

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            ops = list(self.docs)
            rng.shuffle(ops)
            yield [Op(doc, self._prepare(doc)) for doc in ops]

    def _out(self, doc):
        return os.path.join(self.workdir,
                            "%s.%s.json" % (doc.name, doc.command))

    def _prepare(self, doc):
        out = self._out(doc)
        argv = [doc.command, doc.path, "--json", out]

        def call():
            with contextlib.redirect_stdout(_NullOut()):
                return cli.main(argv)

        def prepare():
            if os.path.exists(out):
                os.unlink(out)
            return call
        return prepare

    def answer(self, doc, code):
        with open(self._out(doc), encoding="utf-8") as fh:
            cert = json.load(fh)
        stable = certificates.comparable(cert)
        # the target path names the per-process work directory
        stable["options"] = dict(stable["options"], target=doc.name)
        body = json.dumps(stable, sort_keys=True)
        undecided = cert["verdict"] in ("undecided-fragment", "undecided")
        return Answer("%d %s" % (code, body), undecided, (code, cert))

    def check(self, records):
        bad = {}
        for n, rec in enumerate(records):
            if rec.error is not None:
                continue
            memo = (rec.key.path, rec.key.command, rec.answer.text)
            if memo not in self._checked:
                self._checked[memo] = self._check_one(rec.key,
                                                      *rec.answer.detail)
            if self._checked[memo]:
                bad[n] = "%s %s: %s" % (rec.key.name, rec.key.command,
                                        self._checked[memo])
        return bad, len(records)

    def _check_one(self, doc, code, cert):
        if code != 0:
            return "exit code %d" % code
        verdict = cert["verdict"]
        if verdict not in doc.accept:
            return "verdict %s, known %s" % (verdict, doc.verdict)
        if doc.command != "radical":
            return None
        payload = cert["payload"]
        if payload["radical_dim"] != doc.radical_dim:
            return "radical dim %d, known %d" % (payload["radical_dim"],
                                                 doc.radical_dim)
        # the document round-trips to this object (checked in set-up), whose
        # validation is already cached
        g = self.algebras[doc.path]
        labels = safe_labels(g.labels)
        S = g.subspace([parse_element(g.field, labels, s)
                        for s in payload["radical_basis"]])
        if S.dim != doc.radical_dim:
            return "radical basis has dim %d" % S.dim
        if not g.is_p_ideal(S):
            return "radical is not a p-ideal"
        if not g.is_unipotent(S):
            return "radical is not unipotent"
        return None


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------

_SURVEY_PICKS = 130


class Hopf:
    name = "hopf"

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        started = time.perf_counter()
        dense = []
        for p, dim in ((2, 3), (3, 2)):
            grid = [g for g in enumerate_algebras(PrimeField(p), dim,
                                                  cap=10 ** 9)
                    if not g.is_abelian()]
            dense.append(grid)
        self.enumerate_s = time.perf_counter() - started
        self.oracle_s = 0.0
        # u(g) of dimension 8..32; the dense dimension-27 survey cases
        # (GF(3), dim 3) are left out: 2 to 21 s per op
        cases = [("torus-2^3", gallery.torus_lie(2, 3)),
                 ("torus-3^2", gallery.torus_lie(3, 2)),
                 ("torus-2^4", gallery.torus_lie(2, 4)),
                 ("torus-5^2", gallery.torus_lie(5, 2)),
                 ("torus-2^5", gallery.torus_lie(2, 5))]
        for k in range(2):
            cases.append(("sl2-kernel.%d" % k, gallery.sl2_kernel_char2()))
            cases.append(("sl2-kernel-alpha.%d" % k,
                          algebras.sl2_kernel_alpha()))
        for grid, p in zip(dense, (2, 3)):
            for k in range(_SURVEY_PICKS):
                cases.append(("survey-gf%d.%d" % (p, k), rng.choice(grid)))
        self.cases = [(name, g, algebras.seeded_subalgebra(g, rng))
                      for name, g in cases]
        self.seed = seed
        self._normal = {}

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            order = list(range(len(self.cases)))
            rng.shuffle(order)
            yield [Op(i, self._prepare(i)) for i in order]

    def _prepare(self, i):
        _, g, S = self.cases[i]

        def call():
            H = envelope.dual_hopf(envelope.u_env(g))
            valid = bool(H.validate_hopf())
            A, sub = envelope.subgroup_ideal_from_p_subalgebra(g, S)
            ok, _ = hopf.is_subgroup_ideal(A, sub.ideal)
            normal = hopf.is_normal(A, sub.ideal)
            return valid, sub.ideal, ok, normal
        return lambda: call

    def answer(self, i, result):
        valid, ideal, ok, normal = result
        text = "%s %d %s %s %s" % (valid, ideal.dim, ok, normal,
                                   _sha(repr(ideal.basis)))
        return Answer(text, False, result)

    def check(self, records):
        bad = {}
        for n, rec in enumerate(records):
            if rec.error is not None:
                continue
            name, g, S = self.cases[rec.key]
            valid, ideal, ok, normal = rec.answer.detail
            if rec.key not in self._normal:
                self._normal[rec.key] = g.is_p_ideal(S)
            order = g.p ** S.dim
            if not valid:
                problem = "validate_hopf failed"
            elif not ok:
                problem = "not a subgroup ideal"
            elif ideal.dim != g.p ** g.dim - order:
                problem = "subgroup order %d, expected %d" % (
                    g.p ** g.dim - ideal.dim, order)
            elif normal != self._normal[rec.key]:
                problem = "is_normal %s but is_p_ideal %s" % (
                    normal, self._normal[rec.key])
            else:
                continue
            bad[n] = "%s: %s" % (name, problem)
        return bad, len(records)


WORKLOADS = {w.name: w for w in (Survey, Certify, Hopf)}
