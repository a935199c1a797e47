"""Command-line front end: fit, confidence densities, intervals, coverage studies.

Outputs follow a strict vocabulary: quantities attached to an observed
interval are labelled ``confidence``; ``coverage`` is reserved for the
procedure-level Monte Carlo results.  Exit codes: 0 ok, 2 usage, 3 data,
4 numeric, 5 convergence.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .coverage import METHODS, Method, Scenario, run_scenario
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
from .higher_order import _root_pivot, corrected_confidence_density, fit_known_mean
from .linear import LinearFit, fit_ols
from .numerics import RealGrid
from .pivots import Pivot, interval_endpoint, parameter_density

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
    """Strict CSV: comma separated, mandatory header, every cell a finite number.

    A plain numeric table (no quote, CR or NUL, no line beyond the csv field
    limit) is converted by numpy in one call, which parses each cell as
    ``float`` does; anything else, and any table that conversion rejects, goes
    to the per-cell reader, which gives the same table or names the error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a name
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines[0] and not any(c in text for c in '"\r\x00') \
            and max(map(len, lines)) <= csv.field_size_limit():
        header = tuple(h.strip() for h in lines[0].split(","))
        with contextlib.suppress(ValueError):
            rows = np.array([line.split(",") for line in lines[1:] if line], dtype=float)
            if rows.ndim == 2 and rows.shape[1] == len(header) == len(set(header)) \
                    and np.isfinite(rows).all():
                return CsvTable(header=header, rows=rows)
    return _strict_csv_table(path, text)


def _strict_csv_table(path: str | Path, text: str) -> CsvTable:
    """The table ``text`` (read from ``path``) holds, cell by cell, or the
    DataError naming the first fault."""
    try:
        lines = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0])
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    rows = []
    for line_no, row in enumerate(lines[1:], start=2):
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
    cols = [np.ones(len(y))] if intercept else []
    for name in design:
        if name == response:
            raise UsageError(f"column {name!r} is the response; it cannot be a design column")
        cols.append(table.column(name))
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


def _add_method_options(sub: argparse.ArgumentParser) -> None:
    """--target and --method, offering what METHODS offers."""
    offered = [m for methods in METHODS.values() for m in methods if m.cli]
    sub.add_argument("--target", required=True,
                     help=" | ".join(dict.fromkeys(m.target for m in offered)))
    sub.add_argument("--method", required=True, choices=sorted({m.cli for m in offered}))


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


def _model(args) -> str:
    """The model the flags name, as `fit` summaries and `interval` report it.
    --known-mu describes a gamma response with mean 1, so it takes no --design."""
    if args.known_mu and args.model != "gamma":
        raise UsageError(f"--known-mu applies to --model gamma only, not {args.model!r}")
    if args.known_mu and _design_list(args):
        raise UsageError("--known-mu takes no --design: the mean is known to be 1")
    return args.model + ("_known_mu" if args.known_mu else "")


def _method(args) -> Method:
    """The METHODS entry of the flags' model, --target and --method."""
    model = _model(args) + ("" if args.known_mu else "_regression")  # its METHODS key
    base = args.target.split(":", 1)[0]
    for m in METHODS[model]:
        if m.cli == args.method and (m.target == args.target or m.target.startswith(base + ":")):
            return m
    pairs = "; ".join(
        f"{key}: " + ", ".join(f"{m.target} with {m.cli}" for m in methods if m.cli)
        for key, methods in METHODS.items()
    )
    raise UsageError(f"target {args.target!r} with method {args.method!r} is not available "
                     f"for model {model!r}; valid target/method pairs: {pairs}")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _normal_fit_payload(fit: LinearFit) -> dict:
    rss = fit.df * fit.phi_hat_m
    if fit.phi_hat_m > 0:
        loglik = -0.5 * fit.n * math.log(2.0 * math.pi * fit.phi_hat_m) - rss / (
            2.0 * fit.phi_hat_m
        )
    else:
        loglik = math.inf
    return {
        "phi_hat_m": fit.phi_hat_m,
        "xtx": [list(row) for row in fit.xtx],
        "loglik": loglik,
        "degenerate": fit.phi_hat_m == 0.0,
    }


def _gamma_fit_payload(fit: GammaFit) -> dict:
    return {
        "varphi_hat": fit.varphi_hat,
        "sum_b": fit.sum_b,
        "loglik": fit.loglik,
    }


def _fit(args, table: CsvTable):
    """The fit of the flags' model to ``table``, and the Dataset fitted."""
    ds = build_dataset(table, args.response, _design_list(args), args.intercept or args.known_mu)
    if args.known_mu:  # the mean is known to be 1: a fit with no coefficients
        ds.require_positive_response()
        return fit_known_mean(ds.y), ds
    return (fit_ols(ds) if args.model == "normal" else fit_irls(ds)), ds


def cmd_fit(args) -> int:
    if args.model is None or args.response is None or args.file is None:
        raise UsageError("fit needs --file, --model, and --response")
    model = _model(args)
    fit, _ = _fit(args, load_csv_table(args.file))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "n": fit.n,
        "response": args.response,
    }
    if model == "gamma_known_mu":
        payload.update(varphi_hat=fit.varphi_hat, mean_b=fit.sum_b / fit.n)
    else:
        payload.update({
            "p": fit.p,
            "df": fit.n - fit.p,
            "beta_hat": list(fit.beta_hat),
            "design_columns": _design_list(args),
            "intercept": bool(args.intercept),
        })
        payload.update(_normal_fit_payload(fit) if model == "normal" else _gamma_fit_payload(fit))
    if payload.get("degenerate"):
        print("warning: residual variance is zero (perfect fit); "
              "no confidence statements are possible", file=sys.stderr)
    _emit(args, payload)
    return EXIT_OK


def _emit(args, payload: dict) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(f"{key}: {payload[key]}" for key in sorted(payload))
    if args.out:  # fit and interval both take --out
        with _writing(args.out):
            Path(args.out).write_text(text + "\n")
    else:
        print(text)


@contextlib.contextmanager
def _writing(out):
    """Writes to the --out path ``out``: a failure is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# statements shared by confdens and interval
# ---------------------------------------------------------------------------


def _statement(args, method: Method, fit, data: Dataset | None):
    """The method's statement for one fit: a Pivot (normal model) or a
    precision root curve (gamma models)."""
    if args.model == "normal":
        weights = _parse_contrast(args.target, fit.p) if ":" in method.target else None
        return method.build(fit, weights)
    return method.build(fit, data)


# ---------------------------------------------------------------------------
# confdens
# ---------------------------------------------------------------------------


def cmd_confdens(args) -> int:
    if args.model is None or args.file is None or args.response is None:
        raise UsageError("confdens needs --file, --model, and --response")
    method = _method(args)
    grid = _parse_grid(args.grid)
    statement = _statement(args, method, *_fit(args, load_csv_table(args.file)))
    if isinstance(statement, Pivot):
        density = parameter_density(statement, grid)
    else:
        density = corrected_confidence_density(statement.values, grid)

    values = density(grid.points)
    mass = float(np.trapezoid(values, grid.points))
    lines = [f"{args.target.split(':', 1)[0]},confidence_density"]
    lines += [f"{t:.17g},{c:.17g}" for t, c in zip(grid.points.tolist(), values.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out:
        with _writing(args.out):
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
    LinearFit for "normal", else its sample size and precision estimate
    (enough for first-order precision intervals).  A summary that cannot be
    read as one, or holds numbers `confdist fit` cannot write, is a data
    error naming the file and the field."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read fit JSON {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"fit JSON {path} holds a {type(payload).__name__}, not a fit summary")
    if payload.get("model") != model:
        raise UsageError(f"--fit-json {path} holds a {payload.get('model')!r} fit, "
                         f"which does not match {model!r}")

    def number(key, rule, ok=lambda v: True, kind=(int, float)):
        """The field ``key``: a JSON number of ``kind`` for which ``ok`` holds."""
        value = payload[key]
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            if isinstance(value, kind) and not isinstance(value, bool) and ok(value):
                return value
        raise DataError(f"fit JSON {path}: {key} must be {rule}, got {value!r}")

    def array(key, shape, rule="", ok=lambda a: True):
        """The field ``key``: an array of finite numbers of the given shape
        for which ``ok`` holds."""
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            value = np.array(payload[key], dtype=float)
            if value.shape == shape and np.isfinite(value).all() and ok(value):
                return value
        raise DataError(f"fit JSON {path}: {key} must be finite numbers of shape {shape} "
                        f"(p = {shape[0]}){rule}, got {payload[key]!r}")

    try:
        if model != "normal":
            n = number("n", "an integer >= 2", lambda v: v >= 2, int)
            vh = number("varphi_hat", "finite and > 0", lambda v: math.isfinite(v) and v > 0.0)
            return SimpleNamespace(n=n, varphi_hat=float(vh))
        n, p = number("n", "an integer", kind=int), number("p", "an integer", kind=int)
        return LinearFit(
            beta_hat=array("beta_hat", (p,)),
            phi_hat_m=float(number("phi_hat_m", "finite and >= 0",
                                   lambda v: math.isfinite(v) and v >= 0.0)),
            # as fit writes X'X: a computed X'X errs by at most (n eps / 2) |X|'|X|,
            # which moves no eigenvalue by more than (n eps / 2) trace <= n p (eps / 2)
            # lambda_max; the floor is 4 times that, to cover the eigensolver's own
            # O(p eps lambda_max).  No rank test: fit's SVD check accepts cond >> 1e16
            xtx=array("xtx", (p, p), ", exactly symmetric with a positive diagonal and "
                      "no eigenvalue below -2 n p eps times the largest",
                      lambda a: np.array_equal(a, a.T) and (np.diag(a) > 0.0).all()
                      and np.all((e := np.linalg.eigvalsh(a))
                                 >= -2.0 * n * p * np.finfo(float).eps * e.max(initial=0.0))),
            df=number("df", f"the integer n - p = {n - p}, at least 1",
                      lambda v: v == n - p >= 1, int),
            n=n, p=p,
        )
    except KeyError as exc:
        raise DataError(f"fit JSON {path} is not a {model} fit summary: {exc!r}") from exc


def cmd_interval(args) -> int:
    fit_json = getattr(args, "fit_json", None)
    if fit_json is None and (args.file is None or args.response is None):
        raise UsageError("interval needs --file/--response or --fit-json")
    if args.model is None:
        raise UsageError("interval needs --model")
    method = _method(args)
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must lie in (0, 1), got {args.level}")

    if fit_json is None:
        fit, data = _fit(args, load_csv_table(args.file))
    elif method.summary:
        fit, data = _fit_from_json(fit_json, _model(args)), None
    else:
        raise UsageError(f"--fit-json does not serve method {args.method!r}; "
                         "it needs the data file")
    try:
        pivot = _statement(args, method, fit, data)
    except np.linalg.LinAlgError as exc:  # the contrast solve on a summary's singular xtx
        if fit_json is None:
            raise
        raise DataError(f"fit JSON {fit_json}: xtx is singular ({exc})") from exc
    root_fn, flags = None, set()  # a precision root curve; flags at its endpoints
    if not isinstance(pivot, Pivot):
        root_fn, center = pivot, fit.varphi_hat
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

    statement = {
        "kind": f"one_sided_{args.side}" if args.sides == "one" else "two_sided_equal_tail",
        "target": args.target.split(":", 1)[0],
        "level": args.level,
        "confidence": args.level,
    }
    if args.sides == "one":
        statement[args.side] = endpoint(args.level, args.side)
    else:
        each = 0.5 * (1.0 + args.level)
        statement.update(lower=endpoint(each, "lower"), upper=endpoint(each, "upper"),
                         per_side_confidence=each)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": _model(args),
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
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {section: dict(parser.items(section)) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario file {path}: {exc}") from exc
    if not read:
        raise ScenarioError(f"cannot read scenario file {path}")
    scenarios = []
    for section, raw in sections.items():
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
                design=raw.get("design"),
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
    with _writing(out_dir):  # before any study runs
        out_dir.mkdir(parents=True, exist_ok=True)
    for name, sc in scenarios:
        try:
            report = run_scenario(sc, jobs=args.jobs)
        except ScenarioError as exc:
            # schema problems are caught at parse time; an error here means
            # too many replications failed to fit
            raise ConvergenceError(f"[{name}]: {exc}") from exc
        with _writing(out_dir):
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
    _add_method_options(p_dens)
    p_dens.add_argument("--grid", required=True, help="lo:hi:n")
    p_dens.add_argument("--out", help="write CSV here instead of stdout")

    p_int = sub.add_parser("interval", help="confidence interval endpoints")
    _add_data_options(p_int, fit_json=True)
    _add_method_options(p_int)
    p_int.add_argument("--level", type=float, required=True)
    p_int.add_argument("--sides", choices=["one", "two"], default="one")
    p_int.add_argument("--side", choices=["lower", "upper"], default="lower",
                       help="side of a one-sided statement")
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
