"""Monte Carlo verification that observed-interval confidence equals coverage.

A scenario fixes a model, a true parameter, a design, sample size, nominal
levels, and methods.  Each replication draws data from the truth, fits the
model, and takes each method's pivot value v at the truth; the level-a
statement covers the truth exactly when its confidence, law.cdf(v), is <= a:
counted against the law's cached cuts (:func:`~confdist.pivots.level_cuts`).

The random-stream contract (version 2, reported as ``stream_version``)
splits the replications into stream blocks of ``_STREAM_BLOCK`` = 256.
Block b is one flat draw, ``rng_draws(RngStream(seed, b), law, rows * n)``
reshaped to (rows, n), and replication r is row r mod 256 of block
r // 256.  A generator fills its output in order, so a short last block is
the leading rows of a full one: a replication's data depend on neither the
study's size nor the worker count.  Reports reduce hit counts, so a run is
reproducible bit for bit across any number of workers.

A regression scenario keeps the design and the true mean (X beta, or
exp(X beta) for gamma regression) that it computed to validate itself, so a
study does not draw the design stream again.  A gamma regression scenario
whose largest true mean times the gamma draw's upper ``_DRAW_TAIL``
quantile overflows is rejected when it is built.

Replications run in compute blocks of whole stream blocks, and a study
counts in plain Python integers.  Every model fits a whole compute block
and forms its pivot values as arrays, from design
quantities computed once per study, window rows included: their
interpolation nodes are solved for all window rows of a block at once.  Both
gamma models run one kernel: the known-mean model is the gamma regression
with no coefficients.  A gamma precision method's values are one call of its
array kernel in :mod:`confdist.higher_order` on the block's rows at the true
precision; the kernel builds the window cubics of its own window rows.  A
curve's ``values`` calls the same kernel on one row with its cached cubic.  A gamma replication is used when no
requested pivot value is NaN.  Any other is a failed replication: a sample
with a value not positive or not finite, a coefficient fit the block fit
does not accept, a perfect fit (at the estimate, or at the truth for the
coefficient methods), or window nodes that do not settle.  The scalar
functions of :mod:`confdist.gamma` and :mod:`confdist.higher_order` are the
per-replication reference for these values (tests/test_gamma_block.py), and
tests/test_golden_reports.py pins the bundled scenarios.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainccinv

from .errors import DomainError, ScenarioError
from .gamma import (
    _DEGENERATE_MEAN_B,
    _cumulant_arrays,
    _fit_irls_block,
    _log_least_squares,
    _profile_deviance_beta_array,
    _solve_precision_array,
    unit_deviance_terms,
)
from .higher_order import (
    _fraser_roots,
    _precision_pivot,
    _precision_quads,
    _signed_roots,
    _skovgaard_beta_values,
    _skovgaard_roots,
    fraser_curve,
    skovgaard_precision_curve,
)
from .linear import (
    Contrast,
    LinearFit,
    _rss_noise_floor,
    _svd_factors,
    contrast,
    contrast_pivot,
    variance_pivot,
)
from .numerics import RngStream, rng_draws
from .pivots import PivotLaw, level_cuts

__all__ = ["METHODS", "Method", "Scenario", "CoverageRow", "CoverageReport",
           "MethodComparison", "run_scenario", "compare_methods", "design_matrix"]

SCHEMA_VERSION = 1
STREAM_VERSION = 2

# Replications per stream block: part of the stream contract, so changing it
# changes every report.
_STREAM_BLOCK = 256

# Stream id reserved for generating recipe-based designs.
_DESIGN_STREAM = 2**63

# A bound on a study's size; its stream block ids stay below 2**24, far
# below _DESIGN_STREAM.
_MAX_REPLICATIONS = 2**32

# A gamma_regression scenario is rejected when its largest true mean times
# the gamma draw quantile at this upper-tail probability overflows.
_DRAW_TAIL = 1e-15

# Response values per compute block (rows x n), rounded down to whole stream
# blocks.  Large enough that the per-block setup is noise, small enough that
# a block's arrays stay in cache; it changes no output.
_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class Method:
    """A method: its Scenario name and, if the CLI offers it, its --target
    (``name:w1,w2,...`` takes weights), --method and ``build``, which turns
    one fit into a Pivot: ``build(fit, weights)`` (normal model) or
    ``build(fit, data)`` (gamma models).  ``summary``: a fit summary is
    enough (``interval --fit-json``; then data is None)."""

    name: str
    target: str | None = None
    cli: str | None = None
    build: Callable | None = None
    summary: bool = False


# Every method of every model, for Scenario validation, the coverage kernels
# and the CLI.  The builders look up what they call in this module's namespace.
METHODS = {
    "normal_regression": (
        Method("variance_chisq", "variance", "exact",
               lambda fit, _: variance_pivot(fit), summary=True),
        Method("contrast_t", "contrast:w1,w2,...", "exact",
               lambda fit, b: contrast_pivot(fit, contrast(fit, b)), summary=True),
        Method("coefficient_f"),
    ),
    "gamma_known_mu": (
        Method("first_order_z", "precision", "first_order",
               lambda fit, _: _precision_pivot(fit), summary=True),
        Method("fraser_z", "precision", "fraser",
               lambda fit, _: _precision_pivot(fit, fraser_curve(fit))),
    ),
    "gamma_regression": (
        Method("first_order_precision", "precision", "first_order",
               lambda fit, _: _precision_pivot(fit), summary=True),
        Method("skovgaard_precision", "precision", "skovgaard",
               lambda fit, data: _precision_pivot(fit, skovgaard_precision_curve(data, fit))),
        Method("first_order_beta"),
        Method("skovgaard_beta"),
    ),
}

# Fields a model does not use; setting one is rejected, not ignored.
_FOREIGN_FIELDS = {
    "normal_regression": ("varphi",),
    "gamma_known_mu": ("phi", "beta", "p", "design", "contrast_vector"),
    "gamma_regression": ("phi", "contrast_vector"),
}


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration; validation happens at construction."""

    model: str
    n: int
    replications: int
    seed: int
    levels: tuple[float, ...]
    methods: tuple[str, ...]
    beta: tuple[float, ...] | None = None
    phi: float | None = None  # error variance (normal model)
    varphi: float | None = None  # precision (gamma models)
    design: str | None = None  # "intercept" | "gaussian" (recipe names; gaussian if unset)
    p: int | None = None  # columns for recipe designs
    contrast_vector: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.model not in METHODS:
            raise ScenarioError(f"unknown model {self.model!r}")
        for name in _FOREIGN_FIELDS[self.model]:
            if getattr(self, name) is not None:
                raise ScenarioError(f"{name} does not apply to {self.model}")
        for name in ("n", "replications"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        for name in ("phi", "varphi", "beta", "contrast_vector"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ScenarioError(f"{name} must be finite, got {value!r}")
        if self.replications < 100:
            raise ScenarioError("replications must be at least 100")
        if self.replications > _MAX_REPLICATIONS:
            raise ScenarioError(f"replications must be at most {_MAX_REPLICATIONS}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ScenarioError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not self.levels:
            raise ScenarioError("at least one nominal level is required")
        for a in self.levels:
            if not 0.0 < a < 1.0:
                raise ScenarioError(f"levels must lie in (0, 1), got {a!r}")
        if not self.methods:
            raise ScenarioError("at least one method is required")
        for name in ("levels", "methods"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ScenarioError(f"{name} repeat an entry: {values!r}")
        allowed = tuple(m.name for m in METHODS[self.model])
        for m in self.methods:
            if m not in allowed:
                raise ScenarioError(
                    f"method {m!r} is not valid for {self.model}; choose from {allowed}"
                )
        if self.model == "normal_regression":
            if self.beta is None or self.phi is None or self.phi <= 0:
                raise ScenarioError("normal_regression needs beta and positive phi")
        elif self.model == "gamma_known_mu":
            if self.varphi is None or self.varphi <= 0:
                raise ScenarioError("gamma_known_mu needs a positive varphi")
            if self.n < 2:
                raise ScenarioError(f"gamma_known_mu needs n >= 2, got n={self.n}")
        else:
            if self.beta is None or self.varphi is None or self.varphi <= 0:
                raise ScenarioError("gamma_regression needs beta and positive varphi")
        if self.model != "gamma_known_mu":
            width = len(self.beta)
            if width == 0:
                raise ScenarioError("beta must have at least one entry")
            if self.design is None:
                object.__setattr__(self, "design", "gaussian")
            if self.design not in ("intercept", "gaussian"):
                raise ScenarioError(f"unknown design recipe {self.design!r}")
            p = self.p if self.p is not None else width
            if p != width:
                raise ScenarioError(f"beta has {width} entries but design width is {p}")
            if self.design == "intercept" and p != 1:
                raise ScenarioError("intercept design has a single column")
            if self.n <= p:
                raise ScenarioError(f"need n > p, got n={self.n}, p={p}")
            if self.contrast_vector is not None:
                if len(self.contrast_vector) != width:
                    raise ScenarioError(
                        f"contrast has {len(self.contrast_vector)} entries but beta has {width}"
                    )
                if not any(self.contrast_vector):
                    raise ScenarioError("contrast vector must be nonzero")
            gamma = self.model == "gamma_regression"
            X = design_matrix(self)
            with np.errstate(all="ignore"):  # an overflowing mean is what this rejects
                eta = X @ np.array(self.beta)
                mean = np.exp(eta) if gamma else eta
            if gamma:  # a NaN mean fails both tests, as min and max propagate it
                lo, hi = float(mean.min()), float(mean.max())
                if not (lo > 0.0 and math.isfinite(hi)):
                    raise ScenarioError(
                        f"the true mean must be finite and positive, got beta={self.beta!r}")
                # a response is the mean times a gamma(varphi, 1/varphi) draw
                top = float(gammainccinv(self.varphi, _DRAW_TAIL)) / self.varphi
                if not math.isfinite(hi * top):
                    raise ScenarioError(
                        f"the true mean's draws overflow: its largest value {hi:.4g} "
                        f"times {top:.4g} (the gamma draw's upper {_DRAW_TAIL:g} quantile "
                        f"at varphi={self.varphi!r}) is not finite, got beta={self.beta!r}")
            elif not np.all(np.isfinite(mean)):
                raise ScenarioError(f"the true mean must be finite, got beta={self.beta!r}")
            # kept for the study, outside the fields (to_dict, ==, hash, repr)
            object.__setattr__(self, "_X", X)
            object.__setattr__(self, "_mean", mean)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "levels": list(self.levels),
            "methods": list(self.methods),
            "beta": list(self.beta) if self.beta is not None else None,
            "phi": self.phi,
            "varphi": self.varphi,
            "design": self.design,
            "p": self.p if self.p is not None else (len(self.beta) if self.beta else None),
            "contrast_vector": list(self.contrast_vector) if self.contrast_vector else None,
        }


@dataclass(frozen=True)
class CoverageRow:
    method: str
    level: float
    hit_count: int
    replications_used: int
    empirical_coverage: float
    mc_stderr: float
    flagged_count: int


@dataclass(frozen=True)
class CoverageReport:
    scenario: dict
    rows: tuple[CoverageRow, ...]
    failures: int
    runtime_seconds: float
    schema_version: int = SCHEMA_VERSION

    def row(self, method: str, level: float) -> CoverageRow:
        for r in self.rows:
            if r.method == method and r.level == level:
                return r
        raise KeyError(f"no row for method={method!r} level={level!r}")

    def coverage(self, method: str, level: float) -> float:
        return self.row(method, level).empirical_coverage

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "stream_version": STREAM_VERSION,
            "scenario": self.scenario,
            "failures": self.failures,
            "runtime_seconds": self.runtime_seconds,
            "results": [vars(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        # no runtime or other volatile metadata: identical runs give
        # identical bytes regardless of worker count
        lines = ["method,level,hit_count,replications_used,empirical_coverage,mc_stderr,flagged_count"]
        for r in self.rows:
            lines.append(
                f"{r.method},{r.level:.17g},{r.hit_count},{r.replications_used},"
                f"{r.empirical_coverage:.17g},{r.mc_stderr:.17g},{r.flagged_count}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Design and data generation
# ---------------------------------------------------------------------------


def design_matrix(sc: Scenario) -> np.ndarray | None:
    """Fixed design for the scenario, shared by all replications: built when the
    scenario is validated, which keeps it for its studies."""
    if sc.model == "gamma_known_mu":
        return None
    p = len(sc.beta)
    if sc.design == "intercept":
        return np.ones((sc.n, 1))
    cols = [np.ones(sc.n)]
    if p > 1:
        draws = rng_draws(RngStream(sc.seed, _DESIGN_STREAM), "normal", sc.n * (p - 1))
        cols.extend(draws.reshape(p - 1, sc.n))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Block engine (a pivot value v is covered at level a iff law.cdf(v) <= a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Study:
    """What every replication of a scenario shares, computed once per study.

    ``X`` and ``mean``, X beta (normal) or exp(X beta) (gamma), are the ones
    the scenario validated; the known-mean model has a design with no
    columns and mean 1.  ``svd``, the design's thin SVD, gives either
    regression its start.  Normal regression also keeps the truth as a
    LinearFit (true beta and variance with the design's Gram matrix and
    SVD), and the contrast at the truth.
    """

    X: np.ndarray | None = None
    mean: np.ndarray | None = None
    svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    truth: LinearFit | None = None
    con: Contrast | None = None


def _study(sc: Scenario) -> _Study:
    if sc.model == "gamma_known_mu":
        return _Study(np.empty((sc.n, 0)), np.ones(sc.n))
    X, mean = sc._X, sc._mean
    svd = _svd_factors(X)  # SingularDesignError as in the fits
    if sc.model == "gamma_regression":
        return _Study(X, mean, svd)
    n, p = X.shape
    df, (_, s, vt) = n - p, svd
    truth = LinearFit(beta_hat=np.array(sc.beta), phi_hat_m=sc.phi, xtx=X.T @ X, df=df,
                      n=n, p=p, inv_root=vt / s[:, None])
    con = None
    if "contrast_t" in sc.methods:
        b = np.array(sc.contrast_vector) if sc.contrast_vector else np.eye(p)[0]
        con = contrast(truth, b)
    return _Study(X, mean, svd, truth, con)


def _blocks(reps: range, n: int):
    """Consecutive sub-ranges of ``reps``, each of whole stream blocks holding
    at most _BLOCK_VALUES responses (or one stream block, if that holds more)."""
    step = _STREAM_BLOCK * max(1, _BLOCK_VALUES // (n * _STREAM_BLOCK))
    for start in range(reps.start, reps.stop, step):
        yield range(start, min(start + step, reps.stop))


def _responses(sc: Scenario, study: _Study, ids: range) -> np.ndarray:
    """One row of responses per replication id, drawn a stream block at a time."""
    if sc.model == "normal_regression":
        law, kw = "normal", {}
    else:
        law, kw = "gamma", {"shape": sc.varphi, "scale": 1.0 / sc.varphi}
    rows = []
    for b in range(ids.start // _STREAM_BLOCK, -(-ids.stop // _STREAM_BLOCK)):
        first = b * _STREAM_BLOCK
        count = min(ids.stop, first + _STREAM_BLOCK) - first
        draws = rng_draws(RngStream(sc.seed, b), law, count * sc.n, **kw)
        rows.append(draws.reshape(count, sc.n)[max(ids.start - first, 0):])
    raw = np.concatenate(rows)
    if sc.model == "normal_regression":
        return study.mean + math.sqrt(sc.phi) * raw
    return study.mean * raw


def _normal_block(sc: Scenario, study: _Study, Y: np.ndarray) -> tuple[dict, int]:
    """Exact-pivot values for a block of normal responses, one row each.

    Follows :func:`~confdist.linear.fit_ols` (coefficients from the design's
    SVD, the same noise floor on the residual sum of squares) and the
    scalar pivots' values and laws.  Products are stacked per row (matvec,
    vecdot), so each row rounds as the scalar fit and pivots do, whatever
    the block's size.  Returns each method's (values, law, flags: none)
    over the rows with a nondegenerate fit, and the number of those
    rows; a row whose residual sum of squares falls to the floor is a
    failed fit.
    """
    truth = study.truth
    n, p, df = truth.n, truth.p, truth.df
    u, s, vt = study.svd
    beta_hat = np.matvec(vt.T, np.matvec(u.T, Y) / s)
    resid = Y - np.matvec(study.X, beta_hat)
    rss = np.vecdot(resid, resid)
    fitted = rss > _rss_noise_floor(n, p, np.sqrt(np.vecdot(Y, Y)))  # np.linalg.norm(y)
    beta_hat, phi_hat_m = beta_hat[fitted], rss[fitted] / df
    out = {}
    if "variance_chisq" in sc.methods:
        v = (df * phi_hat_m) / sc.phi
        out["variance_chisq"] = (v, PivotLaw.chisq(df), False)
    if "contrast_t" in sc.methods:
        con = study.con
        v = (np.vecdot(beta_hat, con.b) - con.lambda_hat) / np.sqrt(con.k * phi_hat_m)
        out["contrast_t"] = (v, PivotLaw.student_t(df), False)
    if "coefficient_f" in sc.methods:
        d = beta_hat - truth.beta_hat
        v = np.vecdot(np.vecmat(d, truth.xtx), d) / (p * phi_hat_m)
        out["coefficient_f"] = (v, PivotLaw.f(p, df), False)
    return out, len(beta_hat)


def _gamma_arrays(sc: Scenario, study: _Study, Y: np.ndarray) -> dict:
    """Gamma pivot values and laws of the rows whose fit is accepted (both models).

    Rows with a response not positive or not finite, a fit the block fit
    does not accept, or a perfect fit at the estimate are left out; a
    value is NaN on a row that cannot be settled (a perfect fit at the
    truth, window nodes that did not settle).
    """
    X, methods, v = study.X, sc.methods, sc.varphi
    n, p = X.shape
    Y = Y[np.all(np.isfinite(Y) & (Y > 0.0), axis=1)]
    if p:
        start = _log_least_squares(study.svd, Y)
        beta_hat, mu_hat, sum_b, converged = _fit_irls_block(X, Y, start)
    else:  # the known-mean model: nothing to fit but the precision
        sum_b, converged = unit_deviance_terms(Y, study.mean).sum(axis=1), True
    fitted = converged & (sum_b / n >= _DEGENERATE_MEAN_B)
    y = Y[fitted]
    mean_b = sum_b[fitted] / n
    beta_methods = "first_order_beta" in methods or "skovgaard_beta" in methods
    if beta_methods:  # one solve for the estimates and the profile precisions at the truth
        with np.errstate(divide="ignore"):
            mean_b_truth = unit_deviance_terms(y, study.mean).mean(axis=1)
        at_truth = mean_b_truth >= _DEGENERATE_MEAN_B  # else NaN: a perfect fit at the truth
        mean_b = np.concatenate((mean_b, mean_b_truth[at_truth]))
    solved = _solve_precision_array(mean_b)
    vh = solved[:len(y)]
    hat = _cumulant_arrays(vh)
    no_flags, normal = np.zeros(len(y), dtype=bool), PivotLaw.normal()
    zp = _signed_roots(n, vh, v, hat)
    first_order = (zp, normal, no_flags)
    out = {"first_order_z": first_order, "first_order_precision": first_order}  # either model
    col = vh[:, None]  # the corrected kernels take fits as rows, here at one point: varphi
    if "fraser_z" in methods:
        value, flags = _fraser_roots(n, col, v, zp[:, None])
        out["fraser_z"] = (value[:, 0], normal, flags[:, 0])
    if "skovgaard_precision" in methods:
        quad = _precision_quads(X, y, mu_hat[fitted])[:, None]
        value, flags = _skovgaard_roots(n, col, quad, v)
        out["skovgaard_precision"] = (value[:, 0], normal, flags[:, 0])
    if beta_methods:
        vt = np.full(len(y), np.nan)
        vt[at_truth] = solved[len(y):]
        dp = _profile_deviance_beta_array(n, vh, hat, vt)
        out["first_order_beta"] = (dp, PivotLaw.chisq(p), no_flags)
        if "skovgaard_beta" in methods:
            value, _, *flags = _skovgaard_beta_values(X, y, beta_hat[fitted], vh,
                                                      np.array(sc.beta), study.mean, vt, dp)
            out["skovgaard_beta"] = (value, PivotLaw.chisq(p), np.logical_or.reduce(flags))
    return {m: out[m] for m in methods}


def _gamma_block(sc: Scenario, study: _Study, Y: np.ndarray) -> tuple[dict, int]:
    """Pivot values for a block of gamma responses, one row each.

    A row is used when no requested value is NaN: the rows whose confidence
    is finite, since a law's CDF maps -inf and inf to 0 and 1 and NaN to
    NaN.  Any other row is a failed replication.  Returns each method's
    (values, law, flags) over the used rows, and their number.
    """
    values = _gamma_arrays(sc, study, Y)
    used = np.logical_and.reduce([~np.isnan(v) for v, _, _ in values.values()])
    return {m: (v[used], law, flag[used]) for m, (v, law, flag) in values.items()}, int(used.sum())


def _hits(v: np.ndarray, law: PivotLaw, levels: tuple[float, ...]) -> list[int]:
    """For each level a, how many values v have ``law.cdf(v) <= a``: those at or
    below a's lower cut, and those in its band the CDF decides (``level_cuts``)."""
    cuts, k = level_cuts(law, levels), len(levels)  # every lo, then every hi
    s = np.sort(v)  # a level's band (lo, hi] is the slice of s between its two counts
    below = np.searchsorted(s, cuts, side="right").tolist()  # how many v <= each cut
    hits = below[:k]
    for j in range(k):
        if below[k + j] > hits[j]:
            hits[j] += int(np.count_nonzero(law.cdf(s[hits[j]:below[k + j]]) <= levels[j]))
    return hits


def _run_chunk(sc: Scenario, study: _Study, reps: range) -> tuple:
    """Counts over ``reps`` as Python ints: hits (a list per method, one count
    per level), then flagged rows, used rows (one count per method each) and
    failed replications."""
    block = _normal_block if sc.model == "normal_regression" else _gamma_block
    levels, parts = tuple(sc.levels), []  # a list of levels is accepted
    for ids in _blocks(reps, sc.n):
        values, used = block(sc, study, _responses(sc, study, ids))
        parts.append(([_hits(*values[m][:2], levels) for m in sc.methods],
                      [int(np.count_nonzero(values[m][2])) for m in sc.methods],
                      [used] * len(sc.methods), len(ids) - used))
    return functools.reduce(_add, parts)


def _add(a, b):
    """Elementwise sum of two counts of one shape (nested lists and tuples of ints)."""
    return a + b if isinstance(a, int) else type(a)(map(_add, a, b))


def run_scenario(sc: Scenario, jobs: int = 1) -> CoverageReport:
    """Execute every replication and reduce the hit counts into a report.

    ``jobs`` > 1 splits the stream blocks into at most ``jobs`` chunks, one
    per worker process; a single chunk runs in this process.  The report is
    identical for any job count because a replication's data do not depend
    on its chunk and the reduction is an order-insensitive sum.
    Replications whose fit or pivot values fail are excluded and counted;
    more than 1% failures aborts the scenario.
    """
    start = time.monotonic()
    if jobs < 1:
        raise DomainError(f"jobs must be positive, got {jobs!r}")
    study = _study(sc)

    blocks = -(-sc.replications // _STREAM_BLOCK)
    jobs = min(jobs, blocks)
    edges = [min(sc.replications, _STREAM_BLOCK * (blocks * k // jobs)) for k in range(jobs + 1)]
    chunks = [range(a, b) for a, b in zip(edges, edges[1:])]
    if len(chunks) == 1:
        parts = [_run_chunk(sc, study, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_run_chunk, [sc] * len(chunks), [study] * len(chunks), chunks))
    hits, flagged, used, failures = functools.reduce(_add, parts)  # one part: no sum

    if failures > 0.01 * sc.replications:
        raise ScenarioError(
            f"{failures} of {sc.replications} replications failed to fit (> 1%)"
        )

    rows = []
    for i, method in enumerate(sc.methods):
        for j, level in enumerate(sc.levels):
            rows.append(
                CoverageRow(
                    method=method,
                    level=level,
                    hit_count=hits[i][j],
                    replications_used=used[i],
                    empirical_coverage=hits[i][j] / used[i],
                    mc_stderr=math.sqrt(level * (1.0 - level) / used[i]),
                    flagged_count=flagged[i],
                )
            )
    return CoverageReport(
        scenario=sc.to_dict(),
        rows=tuple(rows),
        failures=failures,
        runtime_seconds=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Method comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodComparison:
    baseline: str
    challenger: str
    rows: tuple[dict, ...] = field(repr=False)
    verdict: str = "indistinguishable"

    def table(self) -> str:
        header = (
            f"{'level':>8} {'baseline':>10} {'challenger':>11} "
            f"{'base_err':>9} {'chall_err':>10} {'call':>14}"
        )
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r['level']:>8.4g} {r['baseline_coverage']:>10.5f} "
                f"{r['challenger_coverage']:>11.5f} {r['baseline_error']:>9.5f} "
                f"{r['challenger_error']:>10.5f} {r['call']:>14}"
            )
        return "\n".join(lines)


def mean_absolute_error(report: CoverageReport, method: str) -> float:
    """Mean |empirical coverage - nominal| over the report's levels."""
    errs = [
        abs(r.empirical_coverage - r.level) for r in report.rows if r.method == method
    ]
    if not errs:
        raise KeyError(f"method {method!r} not present in report")
    return float(np.mean(errs))


def compare_methods(report: CoverageReport, baseline: str, challenger: str) -> MethodComparison:
    """Per-level coverage-error comparison with a two-proportion error guard.

    A level is called for one side only when the error difference exceeds
    twice the combined binomial standard error; the verdict aggregates the
    calls: better somewhere and worse nowhere is ``dominates``, the reverse
    ``dominated``, both sides ``mixed``, neither ``indistinguishable``.
    """
    methods = {r.method for r in report.rows}
    for m in (baseline, challenger):
        if m not in methods:
            raise KeyError(f"method {m!r} not present in report")
    rows = []
    better = worse = 0
    for level in sorted({r.level for r in report.rows}):
        rb = report.row(baseline, level)
        rc = report.row(challenger, level)
        err_b = abs(rb.empirical_coverage - level)
        err_c = abs(rc.empirical_coverage - level)
        se = math.sqrt(
            rb.empirical_coverage * (1 - rb.empirical_coverage) / rb.replications_used
            + rc.empirical_coverage * (1 - rc.empirical_coverage) / rc.replications_used
        )
        if abs(err_c - err_b) <= 2.0 * se:
            call = "tie"
        elif err_c < err_b:
            call = "challenger"
            better += 1
        else:
            call = "baseline"
            worse += 1
        rows.append(
            {
                "level": level,
                "baseline_coverage": rb.empirical_coverage,
                "challenger_coverage": rc.empirical_coverage,
                "baseline_error": err_b,
                "challenger_error": err_c,
                "guard_2se": 2.0 * se,
                "call": call,
            }
        )
    if better and worse:
        verdict = "mixed"
    elif better:
        verdict = "dominates"
    elif worse:
        verdict = "dominated"
    else:
        verdict = "indistinguishable"
    return MethodComparison(baseline=baseline, challenger=challenger,
                            rows=tuple(rows), verdict=verdict)
