"""The benchmark's three workloads: seeded inputs, the timed op, the checks.

Each workload turns (seed, count) into a fixed list of operations, so every
run with the same arguments does identical work.  ``run`` is the only code
inside the timed region.  ``check`` runs afterwards and returns, per op, the
problems found, plus the witness-free lines that make up the output digest.

Why these three (see NOTES.md for the prediction table):

* beta_sweep: many parameters against one pointed A.  Today every beta
  redoes all work that depends only on A (faces, normalization), so an
  A-side compile shows here.
* config_corpus: a stream of distinct configurations through the CLI, one
  beta each.  The cold first-compute path of every classify layer, on both
  sides of the brute/dd switch at n = 10.
* toric_export: the hypergeometric system and its three exports.  Groebner
  saturation dominates; the classify layers are idle.

The seed draws the inputs, but each workload fixes the property that sets an
op's cost (the one A of beta_sweep; the shape cycle of config_corpus; the
degree strata of toric_export), so that runs with different seeds do
comparable work.  Warm-up inputs do not depend on the seed either.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import gkzmono
from gkzmono import GaussRat, GkzError, IntMatrix, cli
from gkzmono.exporters import FORMATS

# Functions of gkzmono are called as gkzmono.<name>, never bound here, so the
# tracer's rebinding in the package's namespaces sees every call.

# The digest covers the first DIGEST_OPS ops of a run, so it does not depend
# on the run length.
DIGEST_OPS = 24


class OpFailed(Exception):
    """An op finished without raising but did not do its job."""


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _normalized_matrix(rng, d: int, n: int, hi: int) -> IntMatrix:
    """n distinct columns (1, x), x in [0, hi]^(d-1), generating Z^d.

    The all-ones first row makes the configuration pointed.
    """
    while True:
        cols: set[tuple[int, ...]] = set()
        while len(cols) < n:
            cols.add((1,) + tuple(rng.randint(0, hi) for _ in range(d - 1)))
        ordered = sorted(cols)
        rng.shuffle(ordered)
        A = IntMatrix.from_columns(ordered, d)
        try:
            gkzmono.Configuration(A)
        except GkzError:
            continue
        return A


def _rational(rng, numerator: int, denominators) -> Fraction:
    return Fraction(rng.randint(-numerator, numerator), rng.choice(denominators))


def _witness_free(result_json: dict) -> str:
    volumes = [c["face_volume"] for c in result_json["center_details"]]
    return (
        f"{result_json['verdict']} {result_json['centers']}"
        f" rank={result_json['generic_rank']} volumes={volumes}"
    )


# ---------------------------------------------------------------------------
# beta_sweep
# ---------------------------------------------------------------------------


class BetaSweep:
    """classify(A, beta) for a seeded stream of distinct betas, one fixed A.

    A is pointed and homogeneous, d = 5, n = 12, with 140 faces, so ``auto``
    takes the dd path.  A is a constant, drawn once: the vertices of the
    unit simplex plus seven random columns (1, x), x in [0, 3]^4, redrawn
    until the cone had 140 faces.  Drawing A per seed moved classify's cost
    by about 20 % between seeds with the same face count, more than the
    run-to-run noise.  The run's seed draws the betas, in four kinds, round
    robin.
    """

    name = "beta_sweep"
    rate = 19.0  # nominal ops per measured second on the calibration host
    matrix = (
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        (3, 0, 0, 2, 3, 0, 1, 1, 0, 0, 1, 0),
        (1, 0, 1, 3, 1, 2, 0, 1, 0, 2, 2, 0),
        (3, 1, 0, 2, 0, 2, 0, 3, 0, 1, 0, 0),
        (2, 0, 0, 1, 3, 0, 0, 2, 1, 2, 2, 0),
    )
    d, n = 5, 12
    faces = 140
    kinds = ("generic", "rational", "integer", "facet")
    shift_samples = 8

    def __init__(self, seed: int, count: int):
        self.A = IntMatrix(self.matrix)
        lattice = gkzmono.enumerate_faces(gkzmono.Configuration(self.A), method="dd")
        if len(lattice) != self.faces:
            raise RuntimeError(f"beta_sweep A has {len(lattice)} faces, not {self.faces}")
        self.full = tuple(range(1, self.n + 1))
        proper = [set(f.indices) for f in lattice if f.indices and f.indices != self.full]
        self.facets = [tuple(sorted(f)) for f in proper if not any(f < g for g in proper)]
        rng = random.Random(f"{self.name}:{seed}")
        seen: set[tuple[GaussRat, ...]] = set()
        self.ops = []
        while len(self.ops) < count:
            kind = self.kinds[len(self.ops) % len(self.kinds)]
            beta = self._beta(rng, kind)
            if beta not in seen:
                seen.add(beta)
                self.ops.append((kind, beta))
        self.shifts = [
            tuple(rng.randint(-3, 3) for _ in range(self.n))
            for _ in range(self.shift_samples)
        ]

    def _beta(self, rng, kind: str) -> tuple[GaussRat, ...]:
        d = self.d
        if kind == "generic":
            # Imaginary parts (1, t, ..., t^4) with t huge: no nonzero small
            # integer functional vanishes on them, so no proper face is met.
            t = rng.randint(10**6, 10**7)
            return tuple(GaussRat(_rational(rng, 9, (1, 2, 3, 4, 5)), t**k)
                         for k in range(d))
        if kind == "rational":
            while True:
                beta = tuple(GaussRat(_rational(rng, 9, (1, 2, 3, 4))) for _ in range(d))
                if not all(b.is_integer for b in beta):
                    return beta
        if kind == "integer":
            return tuple(GaussRat(rng.randint(-9, 9)) for _ in range(d))
        # A point of Z^d + C*span(facet).
        beta = [GaussRat(rng.randint(-5, 5)) for _ in range(d)]
        for j in rng.choice(self.facets):
            c = GaussRat(_rational(rng, 7, (1, 2, 3, 4)), _rational(rng, 7, (1, 2, 3, 4)))
            beta = [b + c * a for b, a in zip(beta, self.A.column(j - 1))]
        return tuple(beta)

    def warm_up(self):
        gkzmono.classify(self.A, [Fraction(1, 2), Fraction(1, 3), 0, Fraction(-1, 4), 1])

    def run(self, op):
        return gkzmono.classify(self.A, op[1])

    def check(self, outcomes):
        problems = [[] for _ in self.ops]
        lines = [f"A={list(self.A.data)}"]
        for i, ((kind, _), res) in enumerate(zip(self.ops, outcomes)):
            if res is None:
                continue
            centers = [f.indices for f in res.centers]
            if kind == "generic" and (res.verdict, centers) != (gkzmono.IRREDUCIBLE, [self.full]):
                problems[i].append(f"generic beta gave {res.verdict} {centers}")
            if kind == "integer" and (res.verdict, centers) != (gkzmono.REDUCIBLE, [()]):
                problems[i].append(f"integer beta gave {res.verdict} {centers}")
            if i < DIGEST_OPS:
                lines.append(_witness_free(res.to_json()))
        step = max(1, len(self.ops) // self.shift_samples)
        for i, z in zip(range(1, len(self.ops), step), self.shifts):
            res = outcomes[i]
            if res is None:
                continue
            shift = self.A.mat_vec(z)
            beta = tuple(b + GaussRat(x) for b, x in zip(self.ops[i][1], shift))
            try:
                moved = gkzmono.classify(self.A, beta)
            except GkzError as exc:
                problems[i].append(f"shifted beta raised {exc!r}")
                continue
            if (moved.verdict, [f.indices for f in moved.centers]) != (
                res.verdict, [f.indices for f in res.centers]
            ):
                problems[i].append("classification moved under a lattice shift")
        return problems, lines


# ---------------------------------------------------------------------------
# config_corpus
# ---------------------------------------------------------------------------


class ConfigCorpus:
    """``gkzmono classify --json`` in-process on a stream of distinct configs.

    Shapes cycle through d in {3, 4, 5} and n in [d+5, d+9], so every run of
    a given length has the same mix, and ``auto`` takes brute (n <= 10) as
    well as dd.  Every third cycle of shapes arrives un-normalized, mapped
    by a non-unimodular row map or with a redundant dependent row appended,
    so normalization does HNF work.
    """

    name = "config_corpus"
    rate = 8.3
    shapes = tuple((d, n) for d in (3, 4, 5) for n in range(d + 5, d + 10))
    forms = ("normalized", "normalized", "rowmap", "normalized", "normalized", "dependent")
    brute_checks = 4
    brute_limit = 10
    warmup_argv = ["classify", "-A", "[[1,1,1,1],[0,1,2,3]]", "--beta=1/2,-1", "--json"]

    def __init__(self, seed: int, count: int):
        rng = random.Random(f"{self.name}:{seed}")
        seen: set[IntMatrix] = set()
        self.ops = []
        while len(self.ops) < count:
            i = len(self.ops)
            d, n = self.shapes[i % len(self.shapes)]
            A = _normalized_matrix(rng, d, n, 3)
            if A in seen:
                continue
            seen.add(A)
            if i % 2:
                beta = [Fraction(rng.randint(-6, 6)) for _ in range(d)]
            else:
                beta = [_rational(rng, 6, (1, 2, 3)) for _ in range(d)]
            form = self.forms[(i // len(self.shapes)) % len(self.forms)]
            raw, raw_beta = self._disguise(rng, A, beta, form)
            # "--beta=..." and not "-b ...": argparse reads "-1/2,..." as an option.
            argv = ["classify", "-A", json.dumps(raw),
                    "--beta=" + ",".join(str(b) for b in raw_beta), "--json"]
            self.ops.append((form, raw, raw_beta, argv))

    @staticmethod
    def _disguise(rng, A: IntMatrix, beta, form: str):
        rows = [list(r) for r in A.data]
        if form == "normalized":
            return rows, beta
        d = A.rows
        if form == "rowmap":
            # Rows of U: random unit row operations, one row then scaled by
            # 2 or 3, so the new columns generate an index-2 or -3 sublattice.
            U = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(2 * d):
                i, k = rng.sample(range(d), 2)
                c = rng.choice((-1, 1))
                U[i] = [a + c * b for a, b in zip(U[i], U[k])]
            k = rng.randrange(d)
            U[k] = [rng.choice((2, 3)) * x for x in U[k]]
            mapped = [[sum(u * r[j] for u, r in zip(urow, rows)) for j in range(A.cols)]
                      for urow in U]
            return mapped, [sum(u * b for u, b in zip(urow, beta)) for urow in U]
        i, k = rng.sample(range(d), 2)
        extra = [a + b for a, b in zip(rows[i], rows[k])]
        return rows + [extra], list(beta) + [beta[i] + beta[k]]

    @staticmethod
    def _cli(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise OpFailed(f"cli exit {code}")
        return out.getvalue()

    def warm_up(self):
        self._cli(self.warmup_argv)

    def run(self, op):
        return self._cli(op[3])

    def check(self, outcomes):
        problems = [[] for _ in self.ops]
        lines = []
        brute_left = self.brute_checks
        for i, (op, text) in enumerate(zip(self.ops, outcomes)):
            if text is None:
                continue
            form, raw, raw_beta, _ = op
            if i < DIGEST_OPS:
                lines.append(f"{form} " + _witness_free(json.loads(text)))
            if brute_left and len(raw[0]) <= self.brute_limit and i % 3 == 0:
                brute_left -= 1
                config, _, _ = gkzmono.reduce_configuration(IntMatrix(raw), raw_beta)
                brute = [f.indices for f in gkzmono.enumerate_faces(config, method="brute")]
                dd = [f.indices for f in gkzmono.enumerate_faces(config, method="dd")]
                if brute != dd:
                    problems[i].append("brute and dd face lattices differ")
        return problems, lines


# ---------------------------------------------------------------------------
# toric_export
# ---------------------------------------------------------------------------


class ToricExport:
    """hypergeometric_system, then export to every format.

    Seeded homogeneous configurations (d = 3, n in {6, 7}, entries 0..3),
    and rational normal curves, the classic family for toric ideals: in
    every 20 ops, 11 seeded configurations and curves of degree 5 (five
    times), 6 (once) and 7 (three times).  Op costs spread over two orders
    of magnitude, so the run's median and p90 would fall in gaps between
    cost clusters and jump between seeds; with this mix they fall amid the
    degree-5 and degree-7 runs, whose cost does not depend on the seed.
    The seeded configurations are drawn in strata of the total degree of
    their kernel-basis binomials (the saturation input), one stratum per
    configuration in turn, so every seed gets the same size mix.  A system
    that fell back to the unsaturated lattice ideal counts as a failed op.
    """

    name = "toric_export"
    rate = 10.5
    # Per op of a 20-op cycle: "r" a seeded configuration, else a curve degree.
    schedule = "r5r7r5rr65r7r5rr75rr"
    # Total-degree bands, per n.  The n = 7 bands above degree 24 (100-300 ms
    # per op) made ops_per_s depend on the seed; the curves carry the heavy end.
    strata = {6: ((14, 16), (18, 20), (22, 24), (26, 28)),
              7: ((18, 20), (22, 24))}
    membership_checks = 3

    def __init__(self, seed: int, count: int):
        rng = random.Random(f"{self.name}:{seed}")
        seen: set[IntMatrix] = set()
        self.ops = []
        drawn = 0
        while len(self.ops) < count:
            i = len(self.ops)
            slot = self.schedule[i % len(self.schedule)]
            if slot != "r":
                A = self.rational_normal_curve(int(slot))
            else:
                n = 6 + drawn % 2
                lo, hi = self.strata[n][(drawn // 2) % len(self.strata[n])]
                A = _normalized_matrix(rng, 3, n, 3)
                degree = sum(sum(b.plus) + sum(b.minus)
                             for b in gkzmono.lattice_binomials(gkzmono.Configuration(A)))
                if A in seen or not lo <= degree <= hi:
                    continue
                seen.add(A)
                drawn += 1
            if i % 2:
                beta = tuple(GaussRat(_rational(rng, 6, (1, 2, 3, 4))) for _ in range(A.rows))
            else:
                beta = tuple(GaussRat(_rational(rng, 6, (1, 2, 3, 4)),
                                      _rational(rng, 6, (1, 2, 3, 4)))
                             for _ in range(A.rows))
            config, _, _ = gkzmono.reduce_configuration(A, beta)
            self.ops.append((config, beta))

    @staticmethod
    def rational_normal_curve(k: int) -> IntMatrix:
        return IntMatrix([[1] * (k + 1), list(range(k + 1))])

    def warm_up(self):
        config, _, _ = gkzmono.reduce_configuration(self.rational_normal_curve(4), [1, 2])
        self.run((config, (GaussRat(1), GaussRat(2))))

    def run(self, op):
        config, beta = op
        system = gkzmono.hypergeometric_system(config, beta)
        if not system.saturated:
            raise OpFailed("saturation fell back to the lattice ideal")
        return system, [gkzmono.export(system, fmt) for fmt in FORMATS]

    def check(self, outcomes):
        problems = [[] for _ in self.ops]
        lines = []
        members_left = self.membership_checks
        for i, ((config, _), res) in enumerate(zip(self.ops, outcomes)):
            if res is None:
                continue
            system, texts = res
            A = config.A
            for b in system.binomials:
                if A.mat_vec(b.plus) != A.mat_vec(b.minus):
                    problems[i].append(f"binomial {b} is not A-homogeneous")
            if gkzmono.parse_toric_system(texts[FORMATS.index("json")]) != system:
                problems[i].append("JSON export does not round-trip")
            if members_left and config.n == 6:
                members_left -= 1
                for b in gkzmono.lattice_binomials(config):
                    if not gkzmono.in_ideal(system.binomials, b, config.n):
                        problems[i].append(f"kernel binomial {b} not in the ideal")
            if i < DIGEST_OPS:
                lines.append(f"A={list(A.data)}")
                lines.extend(texts)
        return problems, lines


WORKLOADS = {w.name: w for w in (BetaSweep, ConfigCorpus, ToricExport)}
