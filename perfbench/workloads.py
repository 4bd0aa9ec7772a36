"""The four workloads: seeded rounds of operations, and the checks of their
outputs.

A round is a fixed list of operations whose structure (kinds, sizes,
known-fault operations) never changes; the seed and the round index only
draw the distribution parameters and thresholds. Every round of a
workload therefore costs about the same and fails the same share of
operations, whatever the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from stats import tail_percentile

# Monte-Carlo agreement margin, in standard errors of the estimate
Z_MC = 5.0
# relative tolerances on bound exponents, by how the reference is computed
REL_EXACT = 1e-12
REL_REF = 1e-9
REL_QUAD = 1e-8
REL_ROOTS = 1e-7
# the program refines a root until its residual is below 1e-12 (1 + e^y);
# where the residual's slope is small (alpha_0 near 1) that leaves root
# errors near 1e-9 and Bennett exponents accurate to about 1e-7
REL_BENNETT = 1e-6

# round index of the untimed warm-up operations, apart from timed rounds
WARMUP_ROUND = 10**9

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    # check(result, full) -> list of problems; full=False may skip the
    # expensive reference computations
    check: Callable[[Any, bool], list]
    known_fault: bool = False


class CliFailure(Exception):
    """A CLI process exited outside its documented codes or printed a
    traceback."""


# ---------------------------------------------------------------------------
# checks shared by several workloads

def bound_problems(label, got, x_ref, rel, k=1.0):
    """got must equal min(k*exp(-x_ref), 1)."""
    if not (0.0 <= got <= 1.0):
        return [f"{label}: bound {got} outside [0, 1]"]
    expect = min(k * math.exp(-x_ref), 1.0)
    if expect == 1.0 or got == 1.0 or got == 0.0:
        ok = abs(got - expect) <= 1e-15 or (got == 0.0 and x_ref > 700.0)
    else:
        ok = ref.close(math.log(got / k), -x_ref, rel, 1e-13)
    return [] if ok else [f"{label}: bound {got} != reference {expect}"]


def bennett_problems(label, t, groups, p, bound, alpha, roots, brute_scan):
    """Program's Bennett bound against the one rebuilt from reference
    moments and the roots of a brute-force scan, which must match the
    program's roots."""
    if not (0.0 <= bound <= 1.0):
        return [f"{label}: bound {bound} outside [0, 1]"]
    b, agg = ref.bennett_aggregate(groups, p)
    alpha_ref = ref.bennett_alpha(t, b, p, agg)
    out = []
    if len(alpha) != len(alpha_ref) or not all(
            ref.close(float(a), g, REL_REF, 1e-12) for a, g in zip(alpha_ref, alpha)):
        out.append(f"{label}: alpha {list(alpha)} != reference "
                   f"{[float(a) for a in alpha_ref]}")
    brute = brute_scan([float(a) for a in alpha_ref], p - 2).roots
    if len(brute) != len(roots) or not all(
            ref.close(r, s, REL_ROOTS, 1e-9) for r, s in zip(brute, roots)):
        out.append(f"{label}: roots {list(roots)} != brute scan {list(brute)}")
    log_ref = ref.bennett_log_bound(t, b, p, agg, brute)
    out += bound_problems(label, bound, -log_ref, REL_BENNETT)
    return out


def limit_problems(label, got, t, var, n):
    """The limit bound against its reference, and never above the classical
    bound for the range [0, upper] it implicitly uses."""
    out = bound_problems(label, got, ref.limit_exponent(t, [(var, n)]), REL_QUAD)
    upper = ref.support(var)[1]
    if got > math.exp(-2.0 * t * t / (n * upper * upper)) * (1 + 1e-12):
        out.append(f"{label}: {got} above the classical bound on [0, {upper}]")
    return out


# ---------------------------------------------------------------------------
# library workloads

def _dist(tb, var):
    kind = var[0]
    if kind == "uniform":
        return tb.Uniform(var[1], var[2])
    if kind == "beta":
        return tb.Beta(var[1], var[2])
    if kind == "bernoulli":
        return tb.Bernoulli(var[1])
    return tb.TruncatedExponential(var[1], var[2])


def _width(var):
    lo, hi = ref.support(var)
    return hi - lo


def _iid_var(rng, kind):
    if kind == "uniform":
        lo = float(rng.uniform(0.0, 1.0))
        return ("uniform", lo, lo + float(rng.uniform(0.5, 2.0)))
    if kind == "beta":
        # integer shapes keep hoeffding_limit's per-variable quadrature within
        # a factor two in cost (non-integer shapes cost 15-30 times more)
        return ("beta", float(rng.integers(1, 6)), float(rng.integers(1, 6)))
    return ("bernoulli", float(rng.uniform(0.05, 0.95)))


class Workload:
    name = ""
    ops_per_round = 0
    min_rounds = 1

    def __init__(self, tb, seed: int, workdir: Path):
        self.tb = tb
        self.seed = seed
        self.workdir = workdir
        # set for the traced pass; only the CLI workload acts on it
        self.traced = False

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r, sum(map(ord, self.name))])

    @property
    def tail_q(self) -> int:
        return tail_percentile(self.ops_per_round * self.min_rounds)

    def full_check(self, r: int) -> bool:
        return True

    def build_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run one small operation of each kind, untimed and unchecked."""


def _iid_plan():
    """(kind, n, operation, thresholds) of one iid-curves round, fixed."""
    curve = ("h1", "h2", "h3", "h4", "2s2", "b2", "b3", "lim")
    large = [(what, 1) for what in ("h1", "h2", "h3", "h4", "b2", "b3", "lim")]
    large += [(f"2s{p}", 2) for p in (1, 2, 3, 4)]
    for kind in IidCurves.KINDS:
        for n, ops in ((1000, [(what, 2) for what in curve]),
                       (3000, [(what, 1) for what in curve]), (10000, large)):
            for what, count in ops:
                # a Beta limit call runs two quadratures per variable; above
                # n = 10^3 it would dominate the round
                if not (what == "lim" and kind == "beta" and n > 1000):
                    yield kind, n, what, count


class IidCurves(Workload):
    """Bound curves on n iid copies of one variable, n = 10^3..10^4: Hoeffding
    p=1..4, two-sided, Bennett p=2,3 and the limit, each at seeded
    thresholds. The 24 two-sided calls at n = 10^4 are the slowest fifth of
    the round, so its 90th percentile falls in their middle."""

    name = "iid-curves"
    KINDS = ("uniform", "beta", "bernoulli")
    # hoeffding_bound(p=2) on Beta(0.01, 100): the factor argument 4 t b/d_n
    # is 2000 at per-variable t = 0.05, and exp(2000) overflows in
    # c_factor_from_moments after the O(n) preparation
    FAULT_VAR = ("beta", 0.01, 100.0)
    FAULT_N = 3000
    FAULT_T = 0.05 * 3000
    FAULTS = 2

    def build_round(self, r):
        rng = self.rng(r)
        variables = {kind: _iid_var(rng, kind) for kind in self.KINDS}
        ops = []
        for kind, n, what, count in _iid_plan():
            var = variables[kind]
            for _ in range(count):
                # classical exponent 2 t^2/(n w^2) drawn in [1, 20]
                t = _width(var) * math.sqrt(float(rng.uniform(1.0, 20.0)) * n / 2.0)
                ops.append(self._op(var, n, t, what))
        for _ in range(self.FAULTS):
            ops.append(self._op(self.FAULT_VAR, self.FAULT_N, self.FAULT_T, "h2",
                                known_fault=True))
        return ops

    def warmup(self):
        for op in self.build_round(WARMUP_ROUND)[:8]:
            op.run()

    def _op(self, var, n, t, what, known_fault=False):
        tb = self.tb
        dist = _dist(tb, var)
        label = f"{what} {var} n={n} t={t:.6g}"
        p = int(what[-1]) if what != "lim" else None

        if what.startswith("h"):
            def run():
                spec = tb.EnsembleSpec.iid_replicate(dist.moment_vector(4), n)
                return tb.hoeffding_bound(spec, t, p).bound
        elif what.startswith("2s"):
            def run():
                return tb.hoeffding_two_sided([dist.moment_vector(4)] * n, t, p).bound
        elif what.startswith("b"):
            def run():
                spec = tb.EnsembleSpec.iid_replicate(dist.moment_vector(4), n)
                return tb.bennett_bound(spec, t, p)
        else:
            def run():
                return tb.hoeffding_limit([dist] * n, t).bound

        return Op(label, run, lambda res, full: iid_problems(
            tb, label, var, n, t, what, res), known_fault)


def iid_problems(tb, label, var, n, t, what, res):
    """Checks of one bound on n iid copies of var at absolute threshold t."""
    groups = [(var, n)]
    x_classical = ref.hoeffding_exponent(t, groups, 1)
    if what == "h1":
        return bound_problems(label, res, x_classical, REL_EXACT)
    if what[0] == "h":
        out = bound_problems(label, res, ref.hoeffding_exponent(t, groups, int(what[1])),
                             REL_REF)
        if res > math.exp(-x_classical) * (1 + 1e-12):
            out.append(f"{label}: {res} above the p=1 bound")
        return out
    if what.startswith("2s"):
        return bound_problems(label, res, ref.hoeffding_exponent(
            t, groups, int(what[2]), two_sided=True), REL_REF, k=2.0)
    if what == "lim":
        return limit_problems(label, res, t, var, n)
    # Bennett, raw moments with b the upper end of the support
    b = ref.support(var)[1]
    classical = ref.bennett_classical(t, n * float(ref.raw_moment(var, 2)), b)
    if what == "b2":
        return bound_problems(label, res.bound, -math.log(classical), REL_REF)
    p = int(what[1])
    out = bennett_problems(label, t, groups, p, res.bound, res.alpha, res.roots.roots,
                           tb.brute_root_scan)
    if res.bound > classical * (1 + 1e-9):
        out.append(f"{label}: p={p} bound {res.bound} above p=2 bound {classical}")
    return out


IidCurves.ops_per_round = sum(c for *_, c in _iid_plan()) + IidCurves.FAULTS


class HeteroRoots(Workload):
    """Bennett bounds at p = 4..6 on ensembles of 8-32 distinct variables
    bounded above by 1, plus Hoeffding p = 2..4 on their bounded members."""

    name = "hetero-roots"
    ENSEMBLES = 12
    BENNETT = ((4, 2), (5, 2), (6, 2))      # (p, thresholds per p)
    HOEFFDING = (2, 3, 4)
    ops_per_round = ENSEMBLES * (sum(k for _, k in BENNETT) + len(HOEFFDING))
    # 972 samples at least, so the tail is p95: p99 spread 23% over ten
    # seeds, as machine hiccups hit about 1% of these millisecond operations
    min_rounds = 9
    # rebuilding one operation from references (mpmath moments and
    # envelopes, a brute-force root scan) costs ten to twenty operations, so
    # only one round in STRIDE is rebuilt; the others are range-checked
    STRIDE = 40

    def full_check(self, r):
        return r % self.STRIDE == 0

    def _ensemble(self, rng):
        k = int(rng.integers(8, 33))
        members = []
        for i in range(k):
            kind = i % 3
            if kind == 0:
                members.append(("beta", float(rng.uniform(0.5, 5.0)),
                                float(rng.uniform(0.5, 5.0))))
            elif kind == 1:
                members.append(("truncexp", 1.0, float(rng.uniform(0.5, 5.0))))
            else:
                members.append(("uniform", float(rng.uniform(-1.0, 0.9)), 1.0))
        return members

    def build_round(self, r):
        tb = self.tb
        rng = self.rng(r)
        ops = []
        for _ in range(self.ENSEMBLES):
            members = self._ensemble(rng)
            dists = [_dist(tb, v) for v in members]
            mu2 = math.fsum(float(ref.raw_moment(v, 2)) for v in members)
            for p, count in self.BENNETT:
                for _ in range(count):
                    t = float(rng.uniform(0.5, 4.0)) * math.sqrt(mu2)
                    ops.append(self._bennett(members, dists, p, t))
            bounded = [(v, d) for v, d in zip(members, dists) if v[0] != "truncexp"]
            sq = math.fsum(_width(v) ** 2 for v, _ in bounded)
            for p in self.HOEFFDING:
                t = math.sqrt(float(rng.uniform(1.0, 20.0)) * sq / 2.0)
                ops.append(self._hoeffding([v for v, _ in bounded],
                                           [d for _, d in bounded], p, t))
        return ops

    def warmup(self):
        for op in self.build_round(WARMUP_ROUND)[:9]:
            op.run()

    # an operation builds the ensemble's moment vectors from the
    # distribution handles, then evaluates one bound
    def _bennett(self, members, dists, p, t):
        tb = self.tb
        label = f"bennett p={p} k={len(members)} t={t:.6g}"
        groups = [(v, 1) for v in members]

        def run():
            spec = tb.EnsembleSpec(tuple(d.moment_vector(p) for d in dists))
            return tb.bennett_bound(spec, t, p)

        def check(res, full):
            if full:
                return bennett_problems(label, t, groups, p, res.bound, res.alpha,
                                        res.roots.roots, tb.brute_root_scan)
            return [] if 0.0 < res.bound <= 1.0 else [f"{label}: bound {res.bound}"]

        return Op(label, run, check)

    def _hoeffding(self, members, dists, p, t):
        tb = self.tb
        label = f"hoeffding p={p} k={len(members)} t={t:.6g}"
        groups = [(v, 1) for v in members]

        def run():
            spec = tb.EnsembleSpec(tuple(d.moment_vector(p) for d in dists))
            return tb.hoeffding_bound(spec, t, p).bound

        def check(res, full):
            if full:
                return bound_problems(label, res, ref.hoeffding_exponent(t, groups, p),
                                      REL_REF)
            if 0.0 <= res <= math.exp(-ref.hoeffding_exponent(t, groups, 1)) * (1 + 1e-12):
                return []
            return [f"{label}: {res} outside [0, p=1 bound]"]

        return Op(label, run, check)


class McVerify(Workload):
    """One Monte-Carlo tail estimate per operation (n <= 100), with the
    Hoeffding p=1..3, Bennett p=2,3 and limit bounds at the same point."""

    name = "mc-verify"
    NS = (10, 20, 50, 100)
    KINDS = ("uniform", "bernoulli")
    PER = 3
    # n * trials per estimate, drawn per operation so that op times spread
    # over a range instead of sitting at one value
    DRAWS = (2_000_000, 6_000_000)
    ops_per_round = len(NS) * len(KINDS) * PER
    min_rounds = 5

    def build_round(self, r):
        rng = self.rng(r)
        ops = []
        for j, kind in enumerate(self.KINDS):
            for n in self.NS:
                for i in range(self.PER):
                    z = float(rng.uniform(0.6, 2.0))
                    trials = int(rng.uniform(*self.DRAWS)) // n
                    if kind == "uniform":
                        lo = float(rng.uniform(0.0, 1.0))
                        var = ("uniform", lo, lo + float(rng.uniform(0.5, 2.0)))
                        w = _width(var)
                        t = z * w * math.sqrt(n / 12.0)
                        exact = ref.irwin_hall_sf(n, n / 2.0 + t / w)
                    else:
                        q = float(rng.uniform(0.1, 0.7))
                        var = ("bernoulli", q)
                        k0 = min(math.ceil(n * q + z * math.sqrt(n * q * (1 - q))), n - 1)
                        # halfway between attainable sums, so float rounding of
                        # the centred sum cannot move a draw across t
                        t = k0 + 0.5 - n * q
                        exact = ref.binomial_sf(n, q, k0 + 1)
                    mc_seed = int(np.random.SeedSequence(
                        [self.seed, r, j, n, i]).generate_state(1)[0])
                    ops.append(self._op(var, n, t, trials, exact, mc_seed))
        return ops

    def warmup(self):
        for op in self.build_round(WARMUP_ROUND)[:2]:
            op.run()

    def _op(self, var, n, t, trials, exact, mc_seed):
        tb = self.tb
        dist = _dist(tb, var)
        label = f"mc {var} n={n} t={t:.6g} trials={trials}"

        def run():
            est = tb.mc_tail(dist, n, t, trials=trials, seed=mc_seed)
            spec = tb.EnsembleSpec.iid_replicate(dist.moment_vector(3), n)
            bounds = {f"h{p}": tb.hoeffding_bound(spec, t, p).bound for p in (1, 2, 3)}
            bounds["b2"] = tb.bennett_bound(spec, t, 2)
            bounds["b3"] = tb.bennett_bound(spec, t, 3)
            bounds["lim"] = tb.hoeffding_limit([dist] * n, t).bound
            return est, bounds

        def check(res, full):
            est, bounds = res
            sigma = math.sqrt(exact * (1.0 - exact) / trials)
            margin = Z_MC * sigma + 1.0 / trials
            out = []
            if abs(est.probability - exact) > margin:
                out.append(f"{label}: estimate {est.probability} vs exact {exact} "
                           f"beyond {Z_MC} standard errors")
            for what, value in bounds.items():
                out += iid_problems(tb, f"{label} {what}", var, n, t, what, value)
                got = value.bound if what[0] == "b" else value
                if got < est.probability - margin:
                    out.append(f"{label} {what}: bound {got} below the estimate "
                               f"{est.probability} by more than {Z_MC} standard errors")
            return out

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# CLI workload

EXIT_CODES = (0, 2, 3, 4, 5)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def floats(cell):
    return [float(x) for x in cell.split(";") if x]


class CliBatch(Workload):
    """One tailbound process at a time, over the five subcommands."""

    name = "cli-batch"
    ops_per_round = 40
    min_rounds = 1
    DATA_SIZE = 500
    DATA_SUPPORT = (-0.5, 1.5)

    def __init__(self, tb, seed, workdir):
        super().__init__(tb, seed, workdir)
        src = str(Path(tb.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.cli_records: list[dict] = []

    # -- process plumbing
    def invoke(self, argv):
        """Run one CLI command; returns (code, stdout, stderr)."""
        if self.traced:
            out = self.workdir / f"cli-{len(self.cli_records)}.json"
            cmd = [sys.executable, "-X", "importtime", str(CLI_CHILD), str(out), *argv]
        else:
            cmd = [sys.executable, "-m", "tailbound.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=150)
        wall_ms = (time.perf_counter() - start) * 1e3
        stderr = proc.stderr
        if self.traced:
            stderr, scipy_ms = split_importtime(stderr)
            rec = json.loads(out.read_text()) if out.exists() else {}
            rec.update(wall_ms=wall_ms, import_scipy_ms=scipy_ms)
            self.cli_records.append(rec)
        if proc.returncode not in EXIT_CODES or "Traceback (most recent" in stderr:
            raise CliFailure(f"exit {proc.returncode}: {stderr.strip().splitlines()[-1:]}")
        return proc.returncode, proc.stdout, stderr

    def _op(self, label, argv, check, known_fault=False):
        def checked(res, full):
            code, out, err = res
            if code != 0:
                return [f"{label}: exit {code}: {err.strip()}"]
            try:
                return check(out)
            except (ValueError, KeyError, IndexError) as exc:
                return [f"{label}: unreadable output ({exc!r}): {out[:200]!r}"]

        return Op(label, lambda: self.invoke(argv), checked, known_fault)

    # -- the batch
    def build_round(self, r):
        rng = self.rng(r)
        lo, hi = self.DATA_SUPPORT
        values = lo + (hi - lo) * rng.beta(2.0, 3.0, self.DATA_SIZE)
        data = self.workdir / f"values-{r}.csv"
        data.write_text("id,value\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(values.tolist())), encoding="utf-8")
        emp = ("empirical", lo, hi, tuple(values.tolist()))
        ops = [self._classical()]
        for i in range(12):
            ops.append(self._bound_both(rng, ("uniform", "beta", "bernoulli")[i % 3]))
        for i in range(4):
            ops.append(self._two_sided(rng, ("uniform", "beta", "bernoulli", "uniform")[i]))
        for _ in range(4):
            ops.append(self._data_bound(rng, data, emp))
        for kind in ("uniform", "beta", "bernoulli", "uniform"):
            ops.append(self._compare_limit(rng, kind))
        for i in range(6):
            kind = ("uniform", "beta", "bernoulli")[i % 3]
            ops.append(self._sample_size(rng, kind, 2 + i % 3))
        for _ in range(2):
            ops.append(self._moments_data(data, emp))
        for kind in ("beta", "uniform"):
            ops.append(self._moments_dist(rng, kind))
        for _ in range(4):
            ops.append(self._verify(rng))
        ops.append(self._fault())
        assert len(ops) == self.ops_per_round
        return ops

    @staticmethod
    def _dist_args(var):
        if var[0] == "uniform":
            return ["--dist", "uniform", "--params", f"lo={var[1]!r},hi={var[2]!r}"]
        if var[0] == "beta":
            return ["--dist", "beta", "--params", f"a={var[1]!r},b={var[2]!r}"]
        return ["--dist", "bernoulli", "--params", f"q={var[1]!r}"]

    @staticmethod
    def _grid(rng, w, n, k=4):
        # per-variable thresholds with classical exponent 2 n tau^2/w^2 in [1, 20]
        lo = w * math.sqrt(float(rng.uniform(1.0, 3.0)) / (2.0 * n))
        hi = w * math.sqrt(float(rng.uniform(10.0, 20.0)) / (2.0 * n))
        return f"{lo!r}:{hi!r}:{k}"

    def _classical(self):
        argv = ["bound", "--family", "hoeffding", "--dist", "uniform", "--n", "40",
                "--t", "10", "--p", "1"]

        def check(out):
            rows = parse_csv(out)
            got = float(rows[0]["bound"])
            if len(rows) != 1 or not ref.close(got, math.exp(-5.0), 1e-15):
                return [f"classical example printed {got}, not exp(-5)"]
            return []

        return self._op("cli bound classical", argv, check)

    def _bound_records(self, label, rows, groups, two_sided=False):
        out = []
        tb = self.tb
        for row in rows:
            t, p, bound = float(row["t"]), int(row["p"]), float(row["bound"])
            tag = f"{label} {row['family']} p={p} t={t:.6g}"
            if row["family"] == "hoeffding":
                x = ref.hoeffding_exponent(t, groups, p, two_sided=two_sided)
                out += bound_problems(tag, bound, x, REL_EXACT if p == 1 else REL_REF,
                                      k=2.0 if two_sided else 1.0)
            elif p == 2:
                b, agg = ref.bennett_aggregate(groups, 2)
                out += bound_problems(tag, bound, -math.log(
                    ref.bennett_classical(t, float(agg[0]), b)), REL_REF)
            else:
                out += bennett_problems(tag, t, groups, p, bound, floats(row["alpha"]),
                                        floats(row["roots"]), tb.brute_root_scan)
        return out

    def _bound_both(self, rng, kind):
        var = _iid_var(rng, kind)
        n = int(rng.integers(100, 1001))
        argv = ["bound", "--family", "both", *self._dist_args(var), "--n", str(n),
                "--t", self._grid(rng, _width(var), n), "--p", "2,3,4", "--per-var"]
        label = f"cli bound both {var} n={n}"

        def check(out):
            rows = parse_csv(out)
            if len(rows) != 2 * 3 * 4:
                return [f"{label}: {len(rows)} records"]
            return self._bound_records(label, rows, [(var, n)])

        return self._op(label, argv, check)

    def _two_sided(self, rng, kind):
        var = _iid_var(rng, kind)
        n = int(rng.integers(100, 1001))
        argv = ["bound", *self._dist_args(var), "--n", str(n),
                "--t", self._grid(rng, _width(var), n), "--p", "1,2", "--per-var",
                "--two-sided"]
        label = f"cli bound two-sided {var} n={n}"

        def check(out):
            rows = parse_csv(out)
            if len(rows) != 2 * 4:
                return [f"{label}: {len(rows)} records"]
            return self._bound_records(label, rows, [(var, n)], two_sided=True)

        return self._op(label, argv, check)

    def _data_bound(self, rng, data, emp):
        n = int(rng.integers(50, 201))
        lo, hi = self.DATA_SUPPORT
        argv = ["bound", "--family", "both", "--data", str(data),
                f"--support={lo!r},{hi!r}", "--n", str(n),
                "--t", self._grid(rng, hi - lo, n, k=2), "--p", "2,3", "--per-var"]
        label = f"cli bound --data n={n}"

        def check(out):
            rows = parse_csv(out)
            if len(rows) != 2 * 2 * 2:
                return [f"{label}: {len(rows)} records"]
            return self._bound_records(label, rows, [(emp, n)])

        return self._op(label, argv, check)

    def _compare_limit(self, rng, kind):
        var = _iid_var(rng, kind)
        n = int(rng.integers(100, 1001))
        argv = ["compare", *self._dist_args(var), "--n", str(n),
                "--t", self._grid(rng, _width(var), n), "--limit", "--per-var"]
        label = f"cli compare --limit {var} n={n}"

        def check(out):
            rows = parse_csv(out)
            if len(rows) != 4:
                return [f"{label}: {len(rows)} records"]
            problems = []
            for row in rows:
                t = float(row["t"]) * n
                tag = f"{label} t={t:.6g}"
                x_classical = ref.hoeffding_exponent(t, [(var, n)], 1)
                problems += bound_problems(tag, float(row["classical_bound"]),
                                           x_classical, REL_EXACT)
                problems += limit_problems(tag, float(row["new_bound"]), t, var, n)
            return problems

        return self._op(label, argv, check)

    def _sample_size(self, rng, kind, p):
        var = _iid_var(rng, kind)
        w = _width(var)
        h = w * float(rng.uniform(0.02, 0.2))
        alpha = float(rng.uniform(0.01, 0.1))
        argv = ["sample-size", *self._dist_args(var), "--t", repr(h),
                "--alpha", repr(alpha), "--p", str(p)]
        label = f"cli sample-size {var} p={p}"

        def check(out):
            row = parse_csv(out)[0]
            n, classical_n = int(row["n"]), int(row["classical_n"])
            log_term = math.log(2.0 / alpha)
            want_classical = max(1, math.ceil(log_term * w * w / (2.0 * h * h)))
            # n = ceil(ln(2/alpha) w^2 c_bar / (2 h^2)) = ceil(ln(2/alpha) / x)
            exact = log_term / ref.hoeffding_exponent(
                h, [(var, 1)], p, two_sided=True)
            problems = []
            if classical_n != want_classical:
                problems.append(f"{label}: classical_n {classical_n} != {want_classical}")
            if n > classical_n:
                problems.append(f"{label}: n {n} above the classical {classical_n}")
            # accept either rounding when the exact value sits on an integer
            if not math.ceil(exact - 1e-9) <= n <= max(math.ceil(exact + 1e-9), 1):
                problems.append(f"{label}: n {n} != ceil({exact})")
            return problems

        return self._op(label, argv, check)

    def _moments_data(self, data, emp):
        lo, hi = self.DATA_SUPPORT
        argv = ["moments", "--data", str(data), f"--support={lo!r},{hi!r}",
                "--p", "4", "--format", "json"]
        label = "cli moments --data"

        def check(out):
            rec = json.loads(out)[0]
            want = [float(ref.raw_moment(emp, k)) for k in range(1, 5)]
            if not all(ref.close(g, e, 1e-12, 1e-15) for g, e in zip(rec["mu"], want)):
                return [f"{label}: {rec['mu']} != {want}"]
            return []

        return self._op(label, argv, check)

    def _moments_dist(self, rng, kind):
        var = _iid_var(rng, kind)
        argv = ["moments", *self._dist_args(var), "--p", "4", "--format", "json"]
        label = f"cli moments {var}"

        def check(out):
            rec = json.loads(out)[0]
            want = [float(ref.raw_moment(var, k)) for k in range(1, 5)]
            if not all(ref.close(g, e, 1e-12) for g, e in zip(rec["mu"], want)):
                return [f"{label}: {rec['mu']} != {want}"]
            return []

        return self._op(label, argv, check)

    def _verify(self, rng):
        lo = float(rng.uniform(0.0, 0.5))
        var = ("uniform", lo, lo + float(rng.uniform(0.5, 1.5)))
        n = 10
        sd = _width(var) * math.sqrt(n / 12.0)
        ts = f"{sd!r},{2.0 * sd!r}"
        argv = ["verify", "--family", "both", *self._dist_args(var), "--n", str(n),
                "--t", ts, "--p", "2,3", "--trials", "20000",
                "--seed", str(int(rng.integers(0, 2**31)))]
        label = f"cli verify {var}"

        def check(out):
            last = out.strip().splitlines()[-1]
            return [] if last.startswith("verify: PASS") else [f"{label}: {last}"]

        return self._op(label, argv, check)

    def _fault(self):
        # exits 1 with an OverflowError traceback (see CHANGES.md)
        argv = ["bound", "--dist", "beta", "--params", "a=0.01,b=100", "--n", "10",
                "--t", "5", "--p", "2"]

        def check(out):
            bound = float(parse_csv(out)[0]["bound"])
            return [] if 0.0 <= bound <= 1.0 else [f"fault reproducer printed {bound}"]

        return self._op("cli bound beta overflow", argv, check, known_fault=True)


WORKLOADS = {w.name: w for w in (IidCurves, HeteroRoots, McVerify, CliBatch)}


def split_importtime(stderr: str) -> tuple[str, float]:
    """Remove `-X importtime` lines from stderr; return the rest and the
    milliseconds spent importing scipy (cumulative time of every scipy
    module whose importer is not itself a scipy module)."""
    rest, rows = [], []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[0].strip().isdigit():
                name = parts[2].rstrip("\n")
                depth = (len(name) - len(name.lstrip(" "))) // 2
                rows.append((depth, name.strip(), int(parts[1])))
            continue
        rest.append(line)
    total_us = 0
    parent_at: dict[int, str] = {}
    # importers are printed after the modules they import, so walk backwards
    for depth, name, cumulative in reversed(rows):
        parent = parent_at.get(depth - 1, "")
        parent_at[depth] = name
        if _is_scipy(name) and not _is_scipy(parent):
            total_us += cumulative
    return "".join(rest), total_us / 1e3


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")
