"""Command-line front end: fit, confidence densities, intervals, coverage studies.

Outputs follow a strict vocabulary: quantities attached to an observed
interval are labelled ``confidence``; ``coverage`` is reserved for the
procedure-level Monte Carlo results.  Exit codes: 0 ok, 2 usage, 3 data,
4 numeric, 5 convergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coverage import Scenario, run_scenario
from .data import Dataset
from .errors import (
    AccuracyError,
    BracketingError,
    ContractViolationError,
    ConvergenceError,
    DataError,
    DomainError,
    ScenarioError,
    UnsupportedOperationError,
)
from .gamma import GammaFit, fit_irls
from .higher_order import (
    ModifiedRoot,
    _root_pivot,
    corrected_confidence_density,
    fit_known_mean,
    fraser_curve,
    signed_root_curve,
    skovgaard_precision_curve,
)
from .linear import LinearFit, contrast, contrast_pivot, fit_ols, variance_pivot
from .numerics import RealGrid
from .pivots import interval_endpoint, parameter_density

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CONVERGENCE = 5


class UsageError(Exception):
    """Bad flag combination discovered after argparse (maps to exit 2)."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvTable:
    header: tuple[str, ...]
    rows: np.ndarray

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.header.index(name)
        except ValueError:
            raise DataError(f"column {name!r} not found; have {list(self.header)}") from None
        return self.rows[:, idx]


def load_csv_table(path: str | Path) -> CsvTable:
    """Strict CSV: comma separated, mandatory header, every cell a finite number."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a name
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = tuple(h.strip() for h in header)
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {line_no}, column {name!r}: cannot parse {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: line {line_no}, column {name!r}: non-finite value"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return CsvTable(header=header, rows=np.array(rows, dtype=float))


def build_dataset(table: CsvTable, response: str, design: list[str],
                  intercept: bool) -> Dataset:
    y = table.column(response)
    cols = []
    names = []
    if intercept:
        cols.append(np.ones(len(y)))
        names.append("(intercept)")
    for name in design:
        if name == response:
            raise UsageError(f"column {name!r} is the response; it cannot be a design column")
        cols.append(table.column(name))
        names.append(name)
    if not cols:
        raise UsageError("no design columns: pass --design and/or --intercept")
    return Dataset(y=y, X=np.column_stack(cols))


# ---------------------------------------------------------------------------
# Shared option plumbing
# ---------------------------------------------------------------------------


def _add_data_options(sub: argparse.ArgumentParser, fit_json: bool = False) -> None:
    sub.add_argument("--file", help="CSV data file (header row mandatory)")
    if fit_json:
        sub.add_argument("--fit-json", help="fit summary JSON from `confdist fit`")
    sub.add_argument("--model", choices=["normal", "gamma"], help="model family")
    sub.add_argument("--response", help="response column name")
    sub.add_argument("--design", default="",
                     help="comma-separated design column names")
    sub.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True,
                     help="include an intercept column (default: yes)")
    sub.add_argument("--known-mu", action="store_true",
                     help="gamma response with known mean 1 (no design)")


def _design_list(args) -> list[str]:
    return [c.strip() for c in args.design.split(",") if c.strip()]


def _parse_grid(spec: str) -> RealGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid must be lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--grid must be lo:hi:n with numbers, got {spec!r}") from None
    if n < 2 or not lo < hi or not math.isfinite(hi - lo):
        raise UsageError(f"--grid needs finite lo < hi and n >= 2, got {spec!r}")
    try:
        return RealGrid(np.linspace(lo, hi, n))
    except MemoryError:
        raise UsageError(f"--grid has too many points to allocate, got {spec!r}") from None


def _parse_contrast(target: str, p: int) -> np.ndarray:
    spec = target.split(":", 1)[1] if ":" in target else ""
    if not spec:
        raise UsageError("contrast target must be contrast:w1,w2,... (one weight per column)")
    try:
        b = np.array([float(v) for v in spec.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse contrast weights {spec!r}") from None
    if b.shape != (p,):
        raise UsageError(f"contrast has {b.size} weights but the design has {p} columns")
    if not np.all(np.isfinite(b)):
        raise UsageError(f"contrast weights must be finite, got {spec!r}")
    return b


_VALID_PAIRS = (
    "valid target/method pairs: normal: variance|contrast:* with method exact; "
    "gamma: precision with method first_order|skovgaard, or fraser with --known-mu"
)


def _require_known_mu_model(args) -> None:
    """--known-mu describes a gamma response; it is not a flag of the normal model."""
    if args.known_mu and args.model != "gamma":
        raise UsageError(f"--known-mu applies to --model gamma only, not {args.model!r}")


def _require_pair(model: str, target: str, method: str, known_mu: bool) -> None:
    base = target.split(":", 1)[0]
    if model == "normal":
        ok = base in ("variance", "contrast") and method == "exact"
    elif known_mu:
        ok = base == "precision" and method in ("first_order", "fraser")
    else:
        ok = base == "precision" and method in ("first_order", "skovgaard")
    if not ok:
        raise UsageError(
            f"target {target!r} with method {method!r} is not available for "
            f"model {model!r}{' (known mean)' if known_mu else ''}; {_VALID_PAIRS}"
        )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _normal_fit_payload(fit: LinearFit, meta: dict) -> dict:
    rss = fit.df * fit.phi_hat_m
    if fit.phi_hat_m > 0:
        loglik = -0.5 * fit.n * math.log(2.0 * math.pi * fit.phi_hat_m) - rss / (
            2.0 * fit.phi_hat_m
        )
    else:
        loglik = math.inf
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "normal",
        "n": fit.n,
        "p": fit.p,
        "df": fit.df,
        "beta_hat": list(fit.beta_hat),
        "phi_hat_m": fit.phi_hat_m,
        "xtx": [list(row) for row in fit.xtx],
        "loglik": loglik,
        "degenerate": fit.phi_hat_m == 0.0,
        **meta,
    }


def _gamma_fit_payload(fit: GammaFit, meta: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "gamma",
        "n": fit.n,
        "p": fit.p,
        "df": fit.n - fit.p,
        "beta_hat": list(fit.beta_hat),
        "varphi_hat": fit.varphi_hat,
        "sum_b": fit.sum_b,
        "loglik": fit.loglik,
        **meta,
    }


def cmd_fit(args) -> int:
    if args.model is None or args.response is None or args.file is None:
        raise UsageError("fit needs --file, --model, and --response")
    _require_known_mu_model(args)
    table = load_csv_table(args.file)
    meta = {"response": args.response, "design_columns": _design_list(args),
            "intercept": bool(args.intercept)}

    if args.model == "gamma" and args.known_mu:
        y = table.column(args.response)
        ds = Dataset(y=y, X=np.ones((len(y), 1)))
        ds.require_positive_response()
        km = fit_known_mean(y)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "model": "gamma_known_mu",
            "n": km.n,
            "varphi_hat": km.varphi_hat,
            "mean_b": km.mean_b,
            "response": args.response,
        }
    elif args.model == "normal":
        ds = build_dataset(table, args.response, _design_list(args), args.intercept)
        fit = fit_ols(ds)
        payload = _normal_fit_payload(fit, meta)
        if payload["degenerate"]:
            print("warning: residual variance is zero (perfect fit); "
                  "no confidence statements are possible", file=sys.stderr)
    else:
        ds = build_dataset(table, args.response, _design_list(args), args.intercept)
        ds.require_positive_response()
        fit = fit_irls(ds)
        payload = _gamma_fit_payload(fit, meta)

    _emit(args, payload)
    return EXIT_OK


def _emit(args, payload: dict) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = []
        for key in sorted(payload):
            lines.append(f"{key}: {payload[key]}")
        text = "\n".join(lines)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# pivot construction shared by confdens and interval
# ---------------------------------------------------------------------------


def _normal_pivot(fit: LinearFit, target: str):
    base = target.split(":", 1)[0]
    if base == "variance":
        return variance_pivot(fit), "variance"
    b = _parse_contrast(target, fit.p)
    return contrast_pivot(fit, contrast(fit, b)), "contrast"


def _first_order_curve(n: int, varphi_hat: float):
    """varphi -> the first-order signed root as an uncorrected ModifiedRoot;
    ``values`` maps an array of precisions to their signed roots."""
    zp_fn = signed_root_curve(n, varphi_hat)

    def first_order(v: float) -> ModifiedRoot:
        zp = zp_fn(v)
        return ModifiedRoot(signed_root=zp, correction=zp, value=zp)

    first_order.values = zp_fn.values
    return first_order


def _precision_root_fn(args, method: str, table: CsvTable | None):
    """Map varphi -> ModifiedRoot for the requested gamma method, as one
    curve of one fit (see the curve builders in :mod:`confdist.higher_order`).
    The curve's ``values`` maps an array of precisions to their root values."""
    if args.known_mu:
        y = table.column(args.response)
        Dataset(y=y, X=np.ones((len(y), 1))).require_positive_response()
        km = fit_known_mean(y)
        if method == "fraser":
            return fraser_curve(km), km.varphi_hat
        return _first_order_curve(km.n, km.varphi_hat), km.varphi_hat

    ds = build_dataset(table, args.response, _design_list(args), args.intercept)
    ds.require_positive_response()
    fit = fit_irls(ds)
    if method == "first_order":
        return _first_order_curve(fit.n, fit.varphi_hat), fit.varphi_hat
    curve = skovgaard_precision_curve(ds, fit)

    def skov(v: float) -> ModifiedRoot:
        cd = curve(v)
        root = (cd.sign if cd.sign else 0.0) * math.sqrt(max(cd.value, 0.0))
        return ModifiedRoot(signed_root=root, correction=cd.correction, value=root,
                            interpolated=cd.interpolated,
                            correction_unavailable=cd.correction_unavailable,
                            clamped=cd.clamped)

    def skov_values(v) -> np.ndarray:
        value = curve.values(v)
        return np.sign(fit.varphi_hat - np.asarray(v, dtype=float)) * np.sqrt(value)

    skov.values = skov_values
    return skov, fit.varphi_hat


# ---------------------------------------------------------------------------
# confdens
# ---------------------------------------------------------------------------


def cmd_confdens(args) -> int:
    if args.model is None or args.file is None or args.response is None:
        raise UsageError("confdens needs --file, --model, and --response")
    _require_known_mu_model(args)
    _require_pair(args.model, args.target, args.method, args.known_mu)
    grid = _parse_grid(args.grid)
    table = load_csv_table(args.file)

    if args.model == "normal":
        ds = build_dataset(table, args.response, _design_list(args), args.intercept)
        pivot, name = _normal_pivot(fit_ols(ds), args.target)
        density = parameter_density(pivot, grid)
    else:
        root_fn, _ = _precision_root_fn(args, args.method, table)
        density = corrected_confidence_density(root_fn.values, grid)
        name = "precision"

    values = density(grid.points)
    mass = float(np.trapezoid(values, grid.points))
    lines = [f"{name},confidence_density"]
    lines += [f"{t:.17g},{c:.17g}" for t, c in zip(grid.points.tolist(), values.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if abs(mass - 1.0) > 1e-3:
        print(
            f"warning: density mass over the emitted grid is {mass:.6f}; "
            "widen --grid to cover the confidence mass",
            file=sys.stderr,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# interval
# ---------------------------------------------------------------------------


def _fit_from_json(path: str, model: str):
    """The fit summary at ``path``, which must be one of ``model``: a
    LinearFit for "normal", else the payload (enough for first-order
    precision intervals)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read fit JSON {path}: {exc}") from exc
    if payload.get("model") != model:
        raise UsageError(f"--fit-json {path} holds a {payload.get('model')!r} fit, "
                         f"which does not match {model!r}")
    if model != "normal":
        return payload
    return LinearFit(
        beta_hat=np.array(payload["beta_hat"], dtype=float),
        phi_hat_m=float(payload["phi_hat_m"]),
        xtx=np.array(payload["xtx"], dtype=float),
        df=int(payload["df"]),
        n=int(payload["n"]),
        p=int(payload["p"]),
    )


def cmd_interval(args) -> int:
    fit_json = getattr(args, "fit_json", None)
    if fit_json is None and (args.file is None or args.response is None):
        raise UsageError("interval needs --file/--response or --fit-json")
    if args.model is None:
        raise UsageError("interval needs --model")
    _require_known_mu_model(args)
    _require_pair(args.model, args.target, args.method, args.known_mu)
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must lie in (0, 1), got {args.level}")

    root_fn, flags = None, set()  # a corrected root curve; flags at its endpoints
    if args.model == "normal":
        if fit_json is not None:
            fit = _fit_from_json(fit_json, "normal")
        else:
            table = load_csv_table(args.file)
            ds = build_dataset(table, args.response, _design_list(args), args.intercept)
            fit = fit_ols(ds)
        pivot, name = _normal_pivot(fit, args.target)
    else:
        name = "precision"
        if fit_json is not None:
            if args.method != "first_order":
                raise UsageError(
                    "--fit-json supports method first_order only; "
                    "skovgaard and fraser need the data file"
                )
            payload = _fit_from_json(fit_json, "gamma_known_mu" if args.known_mu else "gamma")
            n, center = int(payload["n"]), float(payload["varphi_hat"])
            root_fn = _first_order_curve(n, center)
        else:
            table = load_csv_table(args.file)
            root_fn, center = _precision_root_fn(args, args.method, table)
        pivot = _root_pivot(root_fn, (center, 0.75 * max(center, 1e-6)))

    def endpoint(level: float, side: str) -> float:
        try:
            value = interval_endpoint(pivot, level, side)
        except BracketingError as exc:
            raise BracketingError(
                f"endpoint inversion failed for level {level} side {side}: {exc}"
            ) from exc
        root = root_fn(value) if root_fn else None
        flags.update(f for f in ("interpolated", "correction_unavailable", "clamped")
                     if getattr(root, f, False))
        return value

    if args.sides == "one":
        value = endpoint(args.level, args.side)
        statement = {
            "kind": f"one_sided_{args.side}",
            "target": name,
            "level": args.level,
            "confidence": args.level,
            ("lower" if args.side == "lower" else "upper"): value,
        }
    else:
        each = 0.5 * (1.0 + args.level)
        statement = {
            "kind": "two_sided_equal_tail",
            "target": name,
            "level": args.level,
            "confidence": args.level,
            "lower": endpoint(each, "lower"),
            "upper": endpoint(each, "upper"),
            "per_side_confidence": each,
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model + ("_known_mu" if args.known_mu else ""),
        "method": args.method,
        "statement": statement,
        "flags": sorted(flags),
    }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


_SCENARIO_KEYS = {
    "model", "n", "replications", "seed", "levels", "methods", "beta", "phi",
    "varphi", "design", "contrast",
}


def _parse_scenarios(path: str, seed_override: int | None) -> list[tuple[str, Scenario]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    scenarios = []
    for section in parser.sections():
        raw = dict(parser.items(section))
        unknown = set(raw) - _SCENARIO_KEYS
        if unknown:
            raise ScenarioError(
                f"[{section}] has unknown field(s): {', '.join(sorted(unknown))}"
            )
        missing = {"model", "n", "replications", "seed", "levels", "methods"} - set(raw)
        if missing:
            raise ScenarioError(
                f"[{section}] is missing field(s): {', '.join(sorted(missing))}"
            )
        try:
            sc = Scenario(
                model=raw["model"],
                n=int(raw["n"]),
                replications=int(raw["replications"]),
                seed=seed_override if seed_override is not None else int(raw["seed"]),
                levels=tuple(float(v) for v in raw["levels"].split(",")),
                methods=tuple(m.strip() for m in raw["methods"].split(",")),
                beta=tuple(float(v) for v in raw["beta"].split(",")) if "beta" in raw else None,
                phi=float(raw["phi"]) if "phi" in raw else None,
                varphi=float(raw["varphi"]) if "varphi" in raw else None,
                design=raw.get("design", "gaussian"),
                contrast_vector=(
                    tuple(float(v) for v in raw["contrast"].split(","))
                    if "contrast" in raw
                    else None
                ),
            )
        except ValueError as exc:
            raise ScenarioError(f"[{section}]: {exc}") from exc
        scenarios.append((section, sc))
    if not scenarios:
        raise ScenarioError(f"{path}: no scenario sections found")
    return scenarios


def cmd_coverage(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be positive, got {args.jobs}")
    scenarios = _parse_scenarios(args.scenario, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, sc in scenarios:
        try:
            report = run_scenario(sc, jobs=args.jobs)
        except ScenarioError as exc:
            # schema problems are caught at parse time; an error here means
            # too many replications failed to fit
            raise ConvergenceError(f"[{name}]: {exc}") from exc
        (out_dir / f"{name}.json").write_text(report.to_json() + "\n")
        (out_dir / f"{name}.csv").write_text(report.to_csv())
        print(f"{name}: {len(report.rows)} rows, {report.failures} failed fits, "
              f"{report.runtime_seconds:.2f}s")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confdist",
        description="Confidence densities and confidence statements from pivots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and print its summary")
    _add_data_options(p_fit)
    p_fit.add_argument("--format", choices=["json", "text"], default="json")
    p_fit.add_argument("--out", help="write output to this path instead of stdout")

    p_dens = sub.add_parser("confdens", help="confidence density over a parameter grid")
    _add_data_options(p_dens)
    p_dens.add_argument("--target", required=True,
                        help="variance | precision | contrast:w1,w2,...")
    p_dens.add_argument("--grid", required=True, help="lo:hi:n")
    p_dens.add_argument("--method", required=True,
                        choices=["exact", "first_order", "fraser", "skovgaard"])
    p_dens.add_argument("--out", help="write CSV here instead of stdout")

    p_int = sub.add_parser("interval", help="confidence interval endpoints")
    _add_data_options(p_int, fit_json=True)
    p_int.add_argument("--target", required=True,
                       help="variance | precision | contrast:w1,w2,...")
    p_int.add_argument("--level", type=float, required=True)
    p_int.add_argument("--sides", choices=["one", "two"], default="one")
    p_int.add_argument("--side", choices=["lower", "upper"], default="lower",
                       help="side of a one-sided statement")
    p_int.add_argument("--method", required=True,
                       choices=["exact", "first_order", "fraser", "skovgaard"])
    p_int.add_argument("--format", choices=["json", "text"], default="json")
    p_int.add_argument("--out", help="write output here instead of stdout")

    p_cov = sub.add_parser("coverage", help="run Monte Carlo coverage scenarios")
    p_cov.add_argument("--scenario", required=True, help="INI scenario file")
    p_cov.add_argument("--out", required=True, help="output directory for reports")
    p_cov.add_argument("--jobs", type=int, default=1)
    p_cov.add_argument("--seed", type=int, default=None,
                       help="override every scenario seed")
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # by name per call: a cmd_* replaced after the parser was built runs
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, UnsupportedOperationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, BracketingError, AccuracyError, ContractViolationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
