"""Command-line experiment runner: inequality ratio probes, sharpness
growth fits, weight-condition reports and artifact merging.

Subcommands: verify, probe-sharpness, check-conditions, report,
eval-kernel.  Experiments are described by JSON configs with named
transform presets and explicit exponents (no defaults for beta or gamma:
exponent typos are the dominant failure mode, so they must be spelled
out).  CSV output uses 17 significant digits and newline line endings so
reruns diff byte-identically.

Exit codes: 0 success, 1 numerical failure dominating a run, 2 config or
usage error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import conditions as cond
from . import transforms as tr
from .kernels import KERNELS
from .quadrature import DivergentIntegral, NonConvergence, QuadratureConfig, integrate
from .weights import (ExponentSet, TestFunction, Weight, WeightExpr,
                      make_log_counterexample, make_truncated_power, power_moment)


class ConfigError(Exception):
    """Invalid experiment configuration; reported with field context."""


@dataclass
class RatioRecord:
    param: float
    lhs: float
    rhs: float
    ratio: float
    lhs_err: float
    rhs_err: float
    note: str = ""


@dataclass
class ExperimentConfig:
    experiment_id: str
    transform: tr.TransformSpec
    exps: ExponentSet
    beta: float
    gamma: float
    family: List[Tuple[float, TestFunction]]
    normalization: str = "power"  # "power" | "sw"
    lhs_domain: Tuple[float, float] = (0.0, math.inf)
    quadrature: QuadratureConfig = field(default_factory=lambda: QuadratureConfig(
        rel_tol=1e-6, abs_tol=1e-12))
    # Tolerance of the outer norm integral over y.  Its integrand carries
    # the squared transform's oscillations; multi-period panels measure the
    # mean with sub-percent aliasing noise, so percent-level tolerance here
    # avoids resolving every oscillation while leaving the ratio
    # diagnostics (thresholds 50x and 10x) untouched.
    norm_rel_tol: float = 1e-2
    growth_model: str = "power"  # "power" | "log"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            transform = _build_transform(doc["transform"])
            e = doc["exponents"]
            exps = ExponentSet(p=float(e["p"]), q=float(e["q"]),
                               a=float(e.get("a", 1.0)))
            wts = doc["weights"]
            if "beta" not in wts or "gamma" not in wts:
                raise ConfigError("weights must set beta and gamma explicitly")
            beta, gamma = float(wts["beta"]), float(wts["gamma"])
            family = _build_family(doc["family"])
            domain = doc.get("lhs_domain")
            lhs_domain = (0.0, math.inf)
            if domain is not None:
                lo = float(domain[0]) if domain[0] is not None else 0.0
                hi = float(domain[1]) if domain[1] is not None else math.inf
                lhs_domain = (lo, hi)
            qc = doc.get("quadrature", {})
            quad = QuadratureConfig(rel_tol=float(qc.get("rel_tol", 1e-6)),
                                    abs_tol=float(qc.get("abs_tol", 1e-12)),
                                    max_panels=int(qc.get("max_panels", 4096)))
            norm_rel = float(qc.get("norm_rel_tol", 1e-2))
        except KeyError as exc:
            raise ConfigError(f"missing config field {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        norm = doc.get("normalization", "power")
        if norm not in ("power", "sw"):
            raise ConfigError(f"normalization must be 'power' or 'sw', got {norm!r}")
        model = doc.get("growth_model", "power")
        if model not in ("power", "log"):
            raise ConfigError(f"growth_model must be 'power' or 'log', got {model!r}")
        return cls(str(doc.get("experiment_id", "experiment")), transform, exps,
                   beta, gamma, family, norm, lhs_domain, quad, norm_rel, model)


def _build_transform(desc: dict) -> tr.TransformSpec:
    """The preset named by a transform block; every other key of the block
    is one of the preset's parameters."""
    if "name" not in desc:
        raise ConfigError("transform.name is required")
    try:
        params = {k: float(v) for k, v in desc.items() if k != "name"}
        return tr.preset(str(desc["name"]), **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _log_grid(desc: dict) -> np.ndarray:
    return np.geomspace(float(desc["start"]), float(desc["stop"]),
                        int(desc["points"]))


def _build_family(desc: dict) -> List[Tuple[float, TestFunction]]:
    kind = desc.get("kind")
    if kind == "truncated_power":
        sigma = float(desc.get("sigma", 0.0))
        side = desc.get("side", "left")
        grid = _log_grid(desc["grid"])
        return [(float(r), make_truncated_power(sigma, float(r), side)) for r in grid]
    if kind == "log_counterexample":
        b01 = float(desc.get("b0_plus_b1", 0.0))
        ns = [float(n) for n in desc["n_values"]]
        return [(n, make_log_counterexample(n, b01)) for n in ns]
    raise ConfigError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# ratio computation
# ---------------------------------------------------------------------------

def _lhs_norm(cfg: ExperimentConfig, f: TestFunction) -> Tuple[float, float]:
    spec, exps = cfg.transform, cfg.exps
    q = exps.q
    w_extra = 0.0
    if cfg.normalization == "sw" and not math.isinf(exps.a_prime):
        w_extra = spec.b0 / exps.a_prime
    u_exp = q * (w_extra - cfg.beta)

    def integrand(ys):
        ys = np.asarray(ys, dtype=float)
        vals = tr.apply(spec, f, ys, cfg.quadrature, check=False).values
        return ys ** u_exp * np.abs(vals) ** q

    # The norm integrand is nonnegative: no cancellation can fool the error
    # estimator, so adaptive octave panels are reliable without a
    # wavelength cap (which would force half-period resolution across
    # decades that contribute nothing).
    outer = QuadratureConfig(rel_tol=max(cfg.quadrature.rel_tol, cfg.norm_rel_tol),
                             abs_tol=cfg.quadrature.abs_tol,
                             max_panels=cfg.quadrature.max_panels,
                             growth_streak_limit=10)
    val, err = integrate(integrand, cfg.lhs_domain, outer)
    if val <= 0.0:
        return 0.0, err
    norm = val ** (1.0 / q)
    return norm, norm / (q * val) * err


def _rhs_norm(cfg: ExperimentConfig, f: TestFunction) -> Tuple[float, float]:
    exps = cfg.exps
    p = exps.p
    s_extra = 0.0
    if cfg.normalization == "sw":
        s_extra = cfg.transform.b0 / exps.a if not math.isinf(exps.a) else 0.0
    mu = p * (cfg.gamma + s_extra)
    if f.pieces is not None:
        total = 0.0
        for piece in f.pieces:
            total += abs(piece.coef) ** p * power_moment(
                mu + p * piece.exponent, piece.lo, piece.hi)
        return (total ** (1.0 / p), 0.0) if math.isfinite(total) else (math.inf, 0.0)
    val, err = integrate(lambda x: x ** mu * np.abs(f(x)) ** p, f.support, cfg.quadrature,
                         breakpoints=f.breakpoints)
    return val ** (1.0 / p), err


def compute_ratio_records(cfg: ExperimentConfig) -> List[RatioRecord]:
    records: List[RatioRecord] = []
    for param, f in cfg.family:
        note = ""
        try:
            rhs, rhs_err = _rhs_norm(cfg, f)
            if rhs == 0.0 or not math.isfinite(rhs):
                records.append(RatioRecord(param, math.nan, rhs, math.nan, 0.0, 0.0,
                                           "rhs zero or infinite; skipped"))
                continue
            lhs, lhs_err = _lhs_norm(cfg, f)
            records.append(RatioRecord(param, lhs, rhs, lhs / rhs, lhs_err, rhs_err))
        except DivergentIntegral as exc:
            records.append(RatioRecord(param, math.inf, math.nan, math.inf, 0.0, 0.0,
                                       f"lhs divergent ({exc.direction})"))
        except NonConvergence as exc:
            records.append(RatioRecord(param, exc.value, math.nan, math.nan,
                                       exc.error, 0.0, "nonconvergent"))
    return records


_BOUNDED_MAX_OVER_MEDIAN = 50.0
_TREND_DECADES = 3
_TREND_FACTOR = 10.0


def verify_summary(cfg: ExperimentConfig, records: Sequence[RatioRecord]) -> dict:
    usable = [r for r in records if r.note == "" and math.isfinite(r.ratio)]
    ratios = np.asarray([r.ratio for r in usable])
    out = {
        "experiment_id": cfg.experiment_id,
        "transform": cfg.transform.name,
        "normalization": cfg.normalization,
        "p": cfg.exps.p, "q": cfg.exps.q, "a": cfg.exps.a,
        "beta": cfg.beta, "gamma": cfg.gamma,
        "rows": len(records), "rows_used": len(usable),
        "rows_skipped": len(records) - len(usable),
    }
    if len(usable) == 0:
        out.update({"max_ratio": None, "median_ratio": None,
                    "max_over_median": None, "bounded": None, "unbounded_trend": None})
        return out
    max_ratio = float(np.max(ratios))
    median = float(np.median(ratios))
    out["max_ratio"] = max_ratio
    out["median_ratio"] = median
    out["max_over_median"] = max_ratio / median if median > 0 else math.inf
    out["bounded"] = bool(median > 0 and max_ratio / median <= _BOUNDED_MAX_OVER_MEDIAN)
    out["unbounded_trend"] = _unbounded_trend(usable)
    return out


def _unbounded_trend(usable: Sequence[RatioRecord]) -> bool:
    """Monotone ratio growth across the last _TREND_DECADES decades of the
    parameter grid by a total factor of at least _TREND_FACTOR."""
    rows = sorted(usable, key=lambda r: r.param)
    pmax = rows[-1].param
    window = [r for r in rows if r.param >= pmax / 10.0 ** _TREND_DECADES]
    if len(window) < 3:
        return False
    ratios = [r.ratio for r in window]
    monotone = all(b >= a * 0.99 for a, b in zip(ratios[:-1], ratios[1:]))
    return bool(monotone and ratios[-1] >= _TREND_FACTOR * ratios[0])


class FitDegenerate(Exception):
    """Fewer than 4 usable rows for a growth fit."""


def fit_growth(records: Sequence[RatioRecord], model: str) -> dict:
    usable = [r for r in records
              if r.note == "" and math.isfinite(r.ratio) and r.ratio > 0]
    if len(usable) < 4:
        raise FitDegenerate(f"only {len(usable)} usable rows")
    params = np.asarray([r.param for r in usable])
    ratios = np.asarray([r.ratio for r in usable])
    if model == "log":
        x = np.log(np.log(params))
    else:
        x = np.log(params)
    slope, intercept = np.polyfit(x, np.log(ratios), 1)
    return {"model": model, "fitted_exponent": float(slope),
            "intercept": float(intercept), "rows_used": len(usable)}


# ---------------------------------------------------------------------------
# condition runner
# ---------------------------------------------------------------------------

def run_conditions(doc: dict) -> dict:
    """Evaluate every applicable condition and range for a config with
    power or piecewise-power weights."""
    try:
        transform = _build_transform(doc["transform"])
        e = doc["exponents"]
        exps = ExponentSet(p=float(e["p"]), q=float(e["q"]), a=float(e.get("a", 1.0)))
        wts = doc["weights"]
        beta = gamma = None
        if "u" in wts or "v" in wts:
            # explicit weight descriptors (power, piecewise_power or tabulated)
            u = Weight.from_descriptor(wts["u"])
            v = Weight.from_descriptor(wts["v"])
        elif "beta1" in wts:
            b1, b2 = float(wts["beta1"]), float(wts["beta2"])
            g1, g2 = float(wts["gamma1"]), float(wts["gamma2"])
            if abs((b1 - g1) - (b2 - g2)) > 1e-12:
                raise ConfigError(
                    "piecewise exponents must satisfy beta1 - gamma1 = beta2 - gamma2")
            # u(x) = x^(-beta_bar' q): the component order swaps across x = 1.
            u = Weight.piecewise_power(-b2 * exps.q, -b1 * exps.q)
            v = Weight.piecewise_power(g1 * exps.p, g2 * exps.p)
        else:
            if "beta" not in wts or "gamma" not in wts:
                raise ConfigError("weights must set beta and gamma explicitly")
            beta, gamma = float(wts["beta"]), float(wts["gamma"])
            u = Weight.power(-beta * exps.q)
            v = Weight.power(gamma * exps.p)
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    delta = transform.b0
    s = Weight.power(delta)
    w = Weight.power(delta)
    inv_ap = 0.0 if math.isinf(exps.a_prime) else 1.0 / exps.a_prime
    inv_a = 0.0 if math.isinf(exps.a) else 1.0 / exps.a

    rep1, rep2 = cond.hardy_pair_condition(u, v, s, w, exps)
    out = {
        "experiment_id": doc.get("experiment_id", "conditions"),
        "transform": transform.name,
        "exponents": {"p": exps.p, "q": exps.q, "a": exps.a},
        "weights": wts,
        "hardy_condition_1": rep1.to_dict(),
        "hardy_condition_2": rep2.to_dict(),
        "pair_finite": rep1.finite and rep2.finite,
    }
    if exps.a == 1.0:
        try:
            out["glued"] = cond.glued_condition(u, v, s, w, exps).to_dict()
        except cond.InverseRelationViolated as exc:
            out["glued"] = {"error": str(exc)}
    # The Lorentz form compares Ff and f directly: its u and v carry the s
    # and w factors of the two-factor setting (the full exponents in the
    # plain power normalization).
    out["lorentz_necessity"] = cond.lorentz_necessity_condition(
        WeightExpr([(u, 1.0), (w, exps.q * inv_ap)]),
        WeightExpr([(v, 1.0), (s, exps.p * inv_a)]), s, exps).to_dict()

    if beta is not None:
        # Ranges live in the plain power normalization ||y^-b Ff||_q <=
        # ||x^g f||_p; fold the s and w factors of the two-factor setting
        # into the exponents before querying.
        beta_pow = beta - delta * inv_ap
        gamma_pow = gamma + delta * inv_a
        out["power_normalization_exponents"] = {"beta": beta_pow, "gamma": gamma_pow}
        try:
            suff, sharp = cond.power_pitt_range(transform, exps, beta_pow, gamma_pow)
            out["power_range"] = suff.to_dict()
            out["power_range_sharp"] = sharp.to_dict() if sharp else None
        except cond.EnvelopeNotStrict as exc:
            out["power_range"] = {"error": str(exc)}
        try:
            out["gm_range"] = cond.gm_power_range(transform, exps,
                                                  beta_pow, gamma_pow).to_dict()
        except (tr.MissingPrimitiveBound, ValueError) as exc:
            out["gm_range"] = {"error": str(exc)}
        try:
            out["vanishing_moment_range_n1"] = cond.vanishing_moment_range(
                transform, 1, exps, beta_pow, gamma_pow).to_dict()
        except tr.NoSeriesKernel as exc:
            out["vanishing_moment_range_n1"] = {"error": str(exc)}
    return out


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


_CSV_COLUMNS = ["experiment_id", "transform", "p", "q", "a", "beta", "gamma",
                "param", "lhs", "rhs", "ratio", "lhs_err", "rhs_err", "note"]


def write_records_csv(path: Path, cfg: ExperimentConfig,
                      records: Sequence[RatioRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in sorted(records, key=lambda r: r.param):
            writer.writerow([cfg.experiment_id, cfg.transform.name,
                             _fmt(cfg.exps.p), _fmt(cfg.exps.q), _fmt(cfg.exps.a),
                             _fmt(cfg.beta), _fmt(cfg.gamma), _fmt(r.param),
                             _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio),
                             _fmt(r.lhs_err), _fmt(r.rhs_err), r.note])


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def merge_report(artifacts: Sequence[Path], out_dir: Path) -> Tuple[Path, Path]:
    rows: List[dict] = []
    summaries: List[dict] = []
    condition_docs: List[dict] = []
    for art in artifacts:
        if art.suffix == ".csv":
            with open(art) as fh:
                rows.extend(csv.DictReader(fh))
        elif art.suffix == ".json":
            doc = json.loads(art.read_text())
            if "hardy_condition_1" in doc:
                condition_docs.append(doc)
            else:
                summaries.append(doc)
        else:
            raise ConfigError(f"unknown artifact type {art}")

    verdicts = {d.get("experiment_id", ""): d for d in condition_docs}
    bounded = {d.get("experiment_id", ""): d for d in summaries}
    merged_cols = _CSV_COLUMNS + ["pair_verdict", "consistent"]
    rows.sort(key=lambda r: (r.get("experiment_id", ""), float(r.get("param", "nan"))))
    out_csv = out_dir / "report.csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(merged_cols)
        for r in rows:
            eid = r.get("experiment_id", "")
            vd = verdicts.get(eid)
            pair = "" if vd is None else ("finite" if vd.get("pair_finite") else "divergent")
            summ = bounded.get(eid)
            consistent = ""
            if vd is not None and summ is not None and summ.get("bounded") is not None:
                consistent = "CONSISTENT" if (vd.get("pair_finite") and summ["bounded"]) else \
                    ("CONSISTENT" if (not vd.get("pair_finite") and not summ["bounded"])
                     else "INCONSISTENT")
            writer.writerow([r.get(c, "") for c in _CSV_COLUMNS] + [pair, consistent])
    out_json = out_dir / "report_summary.json"
    _write_json(out_json, {"rows": len(rows),
                           "experiments": sorted({r.get("experiment_id", "") for r in rows}),
                           "condition_documents": len(condition_docs),
                           "verify_summaries": summaries})
    return out_csv, out_json


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.tol is not None:
        cfg.quadrature = QuadratureConfig(rel_tol=args.tol,
                                          abs_tol=cfg.quadrature.abs_tol,
                                          max_panels=cfg.quadrature.max_panels)
    return cfg


def cmd_verify(args) -> int:
    cfg = _apply_overrides(ExperimentConfig.from_dict(_load_config(args.config)), args)
    records = compute_ratio_records(cfg)
    summary = verify_summary(cfg, records)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / f"{cfg.experiment_id}_records.csv", cfg, records)
    _write_json(out_dir / f"{cfg.experiment_id}_summary.json", summary)
    for r in sorted(records, key=lambda r: r.param):
        line = f"  param={r.param:<12.6g} lhs={r.lhs:<14.8g} rhs={r.rhs:<14.8g} ratio={r.ratio:<12.6g}"
        print(line + (f"  [{r.note}]" if r.note else ""))
    print(f"max ratio {summary['max_ratio']}, median {summary['median_ratio']}, "
          f"max/median {summary['max_over_median']}, bounded={summary['bounded']}, "
          f"unbounded_trend={summary['unbounded_trend']}")
    bad = sum(1 for r in records if r.note.startswith("nonconvergent"))
    return 1 if bad > len(records) / 2 else 0


def cmd_probe_sharpness(args) -> int:
    cfg = _apply_overrides(ExperimentConfig.from_dict(_load_config(args.config)), args)
    records = compute_ratio_records(cfg)
    try:
        fit = fit_growth(records, cfg.growth_model)
    except FitDegenerate as exc:
        print(f"error: growth fit degenerate: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / f"{cfg.experiment_id}_records.csv", cfg, records)
    doc = dict(fit)
    doc["experiment_id"] = cfg.experiment_id
    _write_json(out_dir / f"{cfg.experiment_id}_growth.json", doc)
    print(f"model={fit['model']} fitted_exponent={fit['fitted_exponent']:.6g} "
          f"rows={fit['rows_used']}")
    return 0


def cmd_check_conditions(args) -> int:
    doc = run_conditions(_load_config(args.config))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{doc['experiment_id']}_conditions.json"
    _write_json(path, doc)
    print(json.dumps({k: v for k, v in doc.items()
                      if k in ("experiment_id", "pair_finite")}, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    if not args.artifacts:
        print("error: no artifacts given", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv, out_json = merge_report([Path(a) for a in args.artifacts], out_dir)
    print(f"wrote {out_csv} and {out_json}")
    return 0


def cmd_eval_kernel(args) -> int:
    """Print phi(x) of the registered kernel, built from the flags named
    like its factory's parameters."""
    factory = KERNELS[args.kind]
    params = {name: getattr(args, name) for name in inspect.signature(factory).parameters}
    try:
        xs = np.asarray([float(x) for x in args.x])
        if not np.all((xs >= 0.0) & (xs < math.inf)):
            raise ValueError("kernel arguments must be finite and nonnegative")
        vals = factory(**params).phi(xs)
    except ValueError as exc:
        raise ConfigError(f"eval-kernel: {exc}") from exc
    for x, v in zip(xs, vals):
        print(f"{x:.17g} {v:.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnilab",
        description="Weighted norm inequality laboratory for Hankel, Struve "
                    "and sine-type integral transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, default=None, help="relative tolerance override")

    p = sub.add_parser("verify", help="ratio table for a test-function family")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe-sharpness", help="fit ratio growth against the family parameter")
    common(p)
    p.set_defaults(func=cmd_probe_sharpness)

    p = sub.add_parser("check-conditions", help="evaluate weight conditions and ranges")
    common(p)
    p.set_defaults(func=cmd_check_conditions)

    p = sub.add_parser("report", help="merge run artifacts into CSV + JSON summary")
    p.add_argument("artifacts", nargs="*", help="record CSVs and condition/summary JSONs")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval-kernel", help="evaluate a kernel on the command line")
    p.add_argument("--kind", required=True, choices=list(KERNELS))
    p.add_argument("--alpha", type=float, default=0.0,
                   help="order, for kinds whose factory takes alpha")
    p.add_argument("--delta", type=float, default=1.0,
                   help="decay exponent, for kinds whose factory takes delta")
    p.add_argument("--x", nargs="+", required=True)
    p.set_defaults(func=cmd_eval_kernel)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
