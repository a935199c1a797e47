"""The three workloads: inputs made from the seed, timed requests, output checks.

A request is what one user waits for: one coverage study (``run_scenario``
at a fixed size, jobs=1) or one ``confdist.cli.main`` call.  A round is the
unit the throughput median is taken over: one pass over a workload's fixed
mix of studies, or of CLI calls on one dataset.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracles

# Shapes follow scenarios/normal_exact.ini and scenarios/gamma_dominance.ini.
NORMAL_EXACT = dict(
    model="normal_regression", n=15, replications=200, levels=(0.05, 0.5, 0.95),
    methods=("variance_chisq", "contrast_t", "coefficient_f"),
    beta=(1.0, -0.5, 0.25), phi=2.0, design="gaussian",
)
GAMMA_KNOWN_MU = dict(
    model="gamma_known_mu", n=10, replications=100,
    levels=(0.025, 0.05, 0.10, 0.90, 0.95, 0.975),
    methods=("first_order_z", "fraser_z"), varphi=2.0,
)
GAMMA_REGRESSION = dict(
    model="gamma_regression", n=30, replications=100, levels=(0.05, 0.5, 0.95),
    methods=("first_order_precision", "skovgaard_precision",
             "first_order_beta", "skovgaard_beta"),
    beta=(0.5, -0.3), varphi=2.0, design="gaussian",
)

# Half-width of the binomial band in Monte Carlo standard errors.  Nine rows
# are checked in every run and comparing two commits takes dozens of runs,
# so the band is wide enough that a correct engine trips it less than
# once in 10,000 runs; at the ~60,000 replications of a 20-second run it
# still catches a bias of one percentage point at any level.
BAND_Z = 4.5


def derived_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for item ``path`` of run ``seed``; same inputs, same seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0] >> 1)


class CoverageWorkload:
    """Repeated coverage studies; request ``k`` runs shape ``k % len(shapes)``.

    Each report is checked as soon as its study ends, outside the timing, and
    only its hash and hit counts are kept, so memory does not grow with the
    number of studies a run completes.

    A replication counts as failed when its study is lost: ``run_scenario``
    raised, so none of the study's replications gave a result.  Replications
    that ``run_scenario`` itself excludes after a fit failure (its documented
    ``report.failures``, at most 1% of a study) belong to a study that
    succeeded; they are counted apart, in ``excluded``, with the study seeds
    that reproduce them.
    """

    op_unit = "replication"

    def __init__(self, confdist, seed: int, shapes: list[tuple[str, dict]]):
        self.cd = confdist
        self.seed = seed
        self.shapes = shapes
        self.round_size = len(shapes)
        self.errors: list[str] = []
        self.hashes: dict = {}  # shape -> {scenario seed: sha256 of the CSV}
        self.first: dict = {}  # shape -> (scenario, CSV) of its first study
        self.hits: Counter = Counter()  # (shape, method, level) -> hits, pooled
        self.used: Counter = Counter()
        self.excluded_in: dict = {}  # "shape seed <scenario seed>" -> excluded replications
        self.reset()

    def reset(self) -> None:
        """Forget failures and timings (the checks keep what they have seen)."""
        self.failures: Counter = Counter()
        self.excluded: Counter = Counter()  # cause -> replications run_scenario excluded
        self.busy: Counter = Counter()  # seconds in run_scenario per shape
        self.reps: Counter = Counter()  # replications attempted per shape

    def scenario(self, k: int):
        name, shape = self.shapes[k % len(self.shapes)]
        return name, self.cd.Scenario(seed=derived_seed(self.seed, k), **shape)

    def request(self, k: int, tracer=None) -> tuple[float, int, int]:
        """Run study ``k``; returns (seconds, replications, failed replications)."""
        name, sc = self.scenario(k)
        run = self.cd.run_scenario
        if tracer is not None:
            tracer.op = (k, None)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = run(sc, jobs=1)
            else:
                report = tracer.call("coverage.run_scenario", run, sc, jobs=1)
        except Exception as exc:  # a study lost as a whole still counts
            report = None
            self.failures[f"{name}: {type(exc).__name__} escaped run_scenario"] += 1
        elapsed = time.perf_counter() - t0
        self.busy[name] += elapsed
        self.reps[name] += sc.replications
        if report is None:
            return elapsed, sc.replications, sc.replications
        if report.failures:
            self.excluded[f"{name}: fit failures (ConvergenceError or "
                          "DegenerateFitError)"] += report.failures
            self.excluded_in[f"{name} seed {sc.seed}"] = report.failures
        self._record(name, sc, report.to_csv())
        return elapsed, sc.replications, 0

    def _record(self, name: str, sc, text: str) -> None:
        """A repeated study (warm-up, traced replay) must repeat byte for byte."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        seen = self.hashes.setdefault(name, {})
        if str(sc.seed) in seen:
            if seen[str(sc.seed)] != digest:
                self.errors.append(f"{name} seed {sc.seed}: CSV changed on a repeat run")
            return
        seen[str(sc.seed)] = digest
        self.first.setdefault(name, (sc, text))
        rows = list(csv.DictReader(io.StringIO(text)))
        self.errors += _check_rows(name, sc, rows)
        for row in rows:
            key = (name, row["method"], float(row["level"]))
            self.hits[key] += int(row["hit_count"])
            self.used[key] += int(row["replications_used"])

    def check(self) -> tuple[list[str], dict]:
        errors = self.errors + self._check_jobs()
        if any(name == "normal_exact" for name, _ in self.shapes):
            errors += self._check_band("normal_exact")
        per_rep_us = {name: 1e6 * self.busy[name] / self.reps[name] for name in self.reps}
        return errors[:20], {"csv_sha256": self.hashes, "us_per_replication": per_rep_us,
                             "excluded": dict(self.excluded),
                             "excluded_in": self.excluded_in}

    def _check_jobs(self) -> list[str]:
        """Worker count must not change a single byte of the report."""
        errors = []
        for name, (sc, text) in self.first.items():
            if self.cd.run_scenario(sc, jobs=2).to_csv() != text:
                errors.append(f"{name} seed {sc.seed}: jobs=2 CSV differs from jobs=1")
        return errors

    def _check_band(self, shape: str) -> list[str]:
        errors = []
        for (name, method, level), n in sorted(self.used.items()):
            if name != shape:
                continue
            coverage = self.hits[name, method, level] / n
            band = BAND_Z * math.sqrt(level * (1.0 - level) / n)
            if abs(coverage - level) > band:
                errors.append(f"{name} {method} at {level}: coverage {coverage:.5f} over "
                              f"{n} replications is outside {level} +/- {band:.5f}")
        return errors


def _check_rows(name: str, sc, rows: list[dict]) -> list[str]:
    if len(rows) != len(sc.methods) * len(sc.levels):
        return [f"{name} seed {sc.seed}: {len(rows)} rows"]
    for row in rows:
        used, hits = int(row["replications_used"]), int(row["hit_count"])
        if not 0 <= hits <= used <= sc.replications:
            return [f"{name} seed {sc.seed}: bad counts {row}"]
        if float(row["empirical_coverage"]) != hits / used:
            return [f"{name} seed {sc.seed}: coverage is not hits/used in {row}"]
    return []


def coverage_exact(confdist, seed: int, workdir: Path) -> CoverageWorkload:
    return CoverageWorkload(confdist, seed, [("normal_exact", NORMAL_EXACT)])


def coverage_corrected(confdist, seed: int, workdir: Path) -> CoverageWorkload:
    """Four small known-mean studies per regression study, so that each shape
    takes over a third of the time and the median request is a known-mean
    study while the tail is a regression study."""
    return CoverageWorkload(confdist, seed, [("gamma_known_mu", GAMMA_KNOWN_MU)] * 4
                            + [("gamma_regression", GAMMA_REGRESSION)])


# ---------------------------------------------------------------------------
# interactive
# ---------------------------------------------------------------------------

POOL = 8  # datasets per kind
N_RANGE = (12, 200)
GRID_POINTS = 201
CONTRAST = np.array([0.0, 1.0, 0.0])

_DATA = {
    "normal": "--model normal --response y --design x1,x2",
    "gamma": "--model gamma --response y --design x1",
    "known_mu": "--model gamma --known-mu --response y",
}

# (call id, dataset kind, command, extra arguments).  One pass over this list
# is a round.  Intervals: one-sided lower at 0.95 and two-sided at 0.90.
_ONE, _TWO = "--level 0.95", "--level 0.9 --sides two"
MIX = [
    ("fit_normal", "normal", "fit", ""),
    ("fit_gamma", "gamma", "fit", ""),
    ("interval_variance_one", "normal", "interval", f"--target variance --method exact {_ONE}"),
    ("interval_variance_two", "normal", "interval", f"--target variance --method exact {_TWO}"),
    ("interval_contrast_one", "normal", "interval",
     f"--target contrast:0,1,0 --method exact {_ONE}"),
    ("interval_contrast_two", "normal", "interval",
     f"--target contrast:0,1,0 --method exact {_TWO}"),
    ("interval_gamma_first_order_one", "gamma", "interval",
     f"--target precision --method first_order {_ONE}"),
    ("interval_gamma_first_order_two", "gamma", "interval",
     f"--target precision --method first_order {_TWO}"),
    ("interval_gamma_skovgaard_one", "gamma", "interval",
     f"--target precision --method skovgaard {_ONE}"),
    ("interval_gamma_skovgaard_two", "gamma", "interval",
     f"--target precision --method skovgaard {_TWO}"),
    ("interval_known_mu_first_order_one", "known_mu", "interval",
     f"--target precision --method first_order {_ONE}"),
    ("interval_known_mu_first_order_two", "known_mu", "interval",
     f"--target precision --method first_order {_TWO}"),
    ("interval_known_mu_fraser_one", "known_mu", "interval",
     f"--target precision --method fraser {_ONE}"),
    ("interval_known_mu_fraser_two", "known_mu", "interval",
     f"--target precision --method fraser {_TWO}"),
    ("confdens_variance_exact", "normal", "confdens", "--target variance --method exact"),
    ("confdens_gamma_first_order", "gamma", "confdens",
     "--target precision --method first_order"),
    ("confdens_gamma_skovgaard", "gamma", "confdens", "--target precision --method skovgaard"),
    ("confdens_known_mu_fraser", "known_mu", "confdens", "--target precision --method fraser"),
]


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.column_stack(columns)]
    path.write_text("\n".join(lines) + "\n")


def _dataset(seed: int, kind_index: int, i: int) -> dict:
    """Dataset ``i`` of one kind; sizes are log-stratified over N_RANGE."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, kind_index, i]))
    lo, hi = map(math.log, N_RANGE)
    n = int(round(math.exp(lo + (i + rng.random()) / POOL * (hi - lo))))
    if kind_index == 0:
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        y = 1.0 + 2.0 * x1 - 0.5 * x2 + math.sqrt(2.0) * rng.normal(size=n)
        return {"header": ["y", "x1", "x2"], "columns": [y, x1, x2],
                "X": np.column_stack([np.ones(n), x1, x2]), "y": y}
    if kind_index == 1:
        x1 = rng.normal(size=n)
        y = np.exp(0.5 - 0.3 * x1) * rng.gamma(2.0, 0.5, size=n)
        return {"header": ["y", "x1"], "columns": [y, x1],
                "X": np.column_stack([np.ones(n), x1]), "y": y}
    y = rng.gamma(2.0, 0.5, size=n)
    return {"header": ["y"], "columns": [y], "y": y}


class InteractiveWorkload:
    """Closed loop, one caller: each call starts when the previous one returns.

    Each call's output is checked right after it returns, outside the timing,
    and then dropped, so memory does not grow with the number of calls.
    """

    round_size = len(MIX)
    op_unit = "call"

    def __init__(self, confdist, seed: int, workdir: Path):
        self.main = confdist.cli.main
        self.refs: dict = {}
        self.argv: list[list[str]] = []  # per pool index: one argv per MIX entry
        files = {}
        for kind_index, kind in enumerate(_DATA):
            for i in range(POOL):
                data = _dataset(seed, kind_index, i)
                path = workdir / f"{kind}-{i}.csv"
                _write_csv(path, data["header"], data["columns"])
                files[kind, i] = path
                self.refs[kind, i] = self._reference(kind, data)
        for i in range(POOL):
            calls = []
            for call_id, kind, command, extra in MIX:
                argv = [command, "--file", str(files[kind, i]), *_DATA[kind].split(),
                        *extra.split()]
                if command == "confdens":
                    lo, hi = self.refs[kind, i]["grid"]
                    argv += ["--grid", f"{float(lo)!r}:{float(hi)!r}:{GRID_POINTS}"]
                calls.append(argv)
            self.argv.append(calls)
        self.errors: list[str] = []
        self.messages: dict = {}  # first error message per failure kind
        self._raised: str | None = None
        self._watch_commands(confdist.cli)
        self.reset()

    def reset(self) -> None:
        """Forget failures (the checks keep what they have seen)."""
        self.failures: Counter = Counter()

    @staticmethod
    def _reference(kind: str, data: dict) -> dict:
        if kind == "normal":
            ref = oracles.ols(data["y"], data["X"])
            ref["grid"] = oracles.variance_grid(ref["rss"], ref["df"])
        elif kind == "gamma":
            ref = oracles.gamma_fit(data["y"], data["X"])
            ref["grid"] = oracles.precision_grid(ref["n"], ref["varphi"])
        else:
            ref = oracles.known_mean_fit(data["y"])
            ref["grid"] = oracles.precision_grid(ref["n"], ref["varphi"])
        return ref

    def _watch_commands(self, cli) -> None:
        """Note the class of the exception behind a nonzero exit code.

        main() turns exceptions into exit codes; wrapping its cmd_* handlers
        (looked up by name when the parser is built) shows which class it was.
        """
        workload = self

        def watch(fn):
            def handler(args):
                try:
                    return fn(args)
                except Exception as exc:
                    workload._raised = type(exc).__name__
                    raise
            return handler

        for name in [n for n in vars(cli) if n.startswith("cmd_")]:
            setattr(cli, name, watch(getattr(cli, name)))

    def request(self, k: int, tracer=None) -> tuple[float, int, int]:
        """Call ``k``; returns (seconds, calls, failed calls)."""
        call = k % len(MIX)
        argv = self.argv[(k // len(MIX)) % POOL][call]
        out, err = io.StringIO(), io.StringIO()
        self._raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    tracer.op = (k, None)
                    code = tracer.call("cli.main", self.main, argv)
            except Exception as exc:  # escaped main(): a crash, still timed
                code = None
                self._raised = type(exc).__name__
            elapsed = time.perf_counter() - t0
        if code != 0:
            kind = f"{MIX[call][0]}: exit {code} {self._raised}"
            self.failures[kind] += 1
            self.messages.setdefault(kind, err.getvalue().strip()[:300])
        else:
            self._check(k, out.getvalue())
        return elapsed, 1, int(code != 0)

    def _check(self, k: int, text: str) -> None:
        call = k % len(MIX)
        i = (k // len(MIX)) % POOL
        call_id, kind, command, _ = MIX[call]
        try:
            problem = _check_call(call_id, command, text, self.refs[kind, i],
                                  self.argv[i][call])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparseable output ({type(exc).__name__}: {exc})"
        if problem:
            self.errors.append(f"call {k} {call_id} on {kind}-{i}: {problem}")

    def check(self) -> tuple[list[str], dict]:
        return self.errors[:20], {"failure_messages": self.messages}


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-300)


def _check_call(call_id: str, command: str, text: str, ref: dict, argv: list[str]):
    if command == "confdens":
        return _check_density(call_id, text, ref, argv)
    payload = json.loads(text)
    if command == "fit":
        if "varphi_hat" in payload and not _close(payload["varphi_hat"], ref["varphi"], 1e-6):
            return f"varphi_hat {payload['varphi_hat']!r} != {ref['varphi']!r}"
        if not np.allclose(payload["beta_hat"], ref["beta"], rtol=1e-6, atol=1e-9):
            return f"beta_hat {payload['beta_hat']!r} != {list(ref['beta'])!r}"
        return None
    statement = payload["statement"]
    ends = {side: statement[side] for side in ("lower", "upper") if side in statement}
    level = statement.get("per_side_confidence", statement["level"])
    if len(ends) == 2 and not ends["lower"] < ends["upper"]:
        return f"lower {ends['lower']!r} is not below upper {ends['upper']!r}"
    for side, value in ends.items():
        if "variance" in call_id:
            want = oracles.variance_endpoint(ref["rss"], ref["df"], level, side)
        elif "contrast" in call_id:
            want = oracles.contrast_endpoint(ref, CONTRAST, level, side)
        elif "first_order" in call_id:
            got = oracles.signed_precision_root(ref["n"], ref["varphi"], value)
            if not abs(got - oracles.first_order_root_target(level, side)) <= 1e-6:
                return f"{side} endpoint {value!r} has signed root {got!r}"
            continue
        else:  # corrected endpoints have no closed form; they must be usable
            if not (math.isfinite(value) and value > 0):
                return f"{side} endpoint {value!r}"
            continue
        if not _close(value, want, 1e-7):
            return f"{side} endpoint {value!r} != {want!r}"
    return None


def _check_density(call_id: str, text: str, ref: dict, argv: list[str]):
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != GRID_POINTS + 1 or rows[0][1] != "confidence_density":
        return f"{len(rows)} lines, header {rows[0] if rows else None}"
    lo, hi, n = argv[argv.index("--grid") + 1].split(":")
    grid = np.array([float(r[0]) for r in rows[1:]])
    dens = np.array([float(r[1]) for r in rows[1:]])
    if not np.array_equal(grid, np.linspace(float(lo), float(hi), int(n))):
        return "grid points differ from the requested grid"
    if not (np.all(np.isfinite(dens)) and np.all(dens >= 0.0)):
        return "density values must be finite and nonnegative"
    if call_id == "confdens_variance_exact":
        want = oracles.variance_density(ref["rss"], ref["df"], grid)
        if not np.allclose(dens, want, rtol=1e-6, atol=1e-12 * want.max()):
            return "variance density differs from the chi-square transform"
    return None


WORKLOADS = {
    "coverage_exact": coverage_exact,
    "coverage_corrected": coverage_corrected,
    "interactive": InteractiveWorkload,
}
