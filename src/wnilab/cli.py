"""Command-line experiment runner: inequality ratio probes, sharpness
growth fits, weight-condition reports and artifact merging.

Subcommands: verify, probe-sharpness, check-conditions, report,
eval-kernel.  Experiments are described by JSON configs with named
transform presets and explicit exponents (no defaults for beta or gamma:
exponent typos are the dominant failure mode, so they must be spelled
out).  CSV output uses 17 significant digits and newline line endings so
reruns diff byte-identically.  JSON output is the stdlib's indented form,
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)``.

Exit codes: 0 success, 1 numerical failure dominating a run, 2 config or
usage error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import inspect
import json
import math
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import conditions as cond
from . import transforms as tr
from .kernels import KERNELS
from .quadrature import DivergentIntegral, NonConvergence, QuadratureConfig, integrate
from .weights import (DIVERGENCE_MARGIN, EXPONENT_TOLERANCE, ExponentSet, FunctionFamily,
                      TestFunction, Weight, make_log_counterexample, make_truncated_power,
                      power_moment)


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


# A config's normalization where it names none: its weights are the
# two-factor u and v (``_weights``).
_NORMALIZATION = "sw"


@dataclass
class ExperimentConfig:
    experiment_id: str
    transform: tr.TransformSpec
    exps: ExponentSet
    beta: float
    gamma: float
    family: List[Tuple[float, TestFunction]]
    normalization: str  # "power" | "sw"
    power_pair: Tuple[float, float]  # (beta, gamma) in the plain power normalization
    lhs_domain: Tuple[float, float]
    quadrature: QuadratureConfig
    norm_rel_tol: float
    growth_model: str  # "power" | "log"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        with _config_fields():
            transform, exps = _shared_blocks(doc)
            pair = _weights(doc, transform, exps)[2]
            if pair is None:
                raise ConfigError("weights must set beta and gamma explicitly")
            beta, gamma = float(doc["weights"]["beta"]), float(doc["weights"]["gamma"])
            family = _build_family(doc["family"])
            if not family:
                raise ConfigError("the family has no members")
            domain = doc.get("lhs_domain")
            lhs_domain = (0.0, math.inf)
            if domain is not None:
                lo, hi = domain
                lhs_domain = (0.0 if lo is None else float(lo),
                              math.inf if hi is None else float(hi))
                if not 0.0 <= lhs_domain[0] < lhs_domain[1] <= math.inf:
                    raise ConfigError(f"lhs_domain needs 0 <= lo < hi <= inf, got {domain}")
            qc = doc.get("quadrature", {})
            quad = QuadratureConfig(rel_tol=float(qc.get("rel_tol", 1e-6)),
                                    abs_tol=float(qc.get("abs_tol", 1e-12)),
                                    max_panels=int(qc.get("max_panels", 4096)))
            # Tolerance of the outer norm integral over y.  Its integrand
            # carries the squared transform's oscillations; multi-period panels
            # measure the mean with sub-percent aliasing noise, so percent-level
            # tolerance here avoids resolving every oscillation.
            norm_rel = float(qc.get("norm_rel_tol", 1e-2))
        model = doc.get("growth_model", "power")
        if model not in ("power", "log"):
            raise ConfigError(f"growth_model must be 'power' or 'log', got {model!r}")
        norm = doc.get("normalization", _NORMALIZATION)
        return cls(str(doc.get("experiment_id", "experiment")), transform, exps, beta, gamma,
                   family, norm, pair, lhs_domain, quad, norm_rel, model)


class _config_fields:
    """Missing or malformed config fields raise ConfigError."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, trace):
        if isinstance(exc, KeyError):
            raise ConfigError(f"missing config field {exc}") from exc
        if isinstance(exc, (IndexError, TypeError, ValueError)):
            raise ConfigError(str(exc)) from exc


def _shared_blocks(doc: dict) -> Tuple[tr.TransformSpec, ExponentSet]:
    """The transform and the exponent set of a config."""
    transform, e = _build_transform(doc["transform"]), doc["exponents"]
    return transform, ExponentSet(p=float(e["p"]), q=float(e["q"]), a=float(e.get("a", 1.0)))


def _weights(doc: dict, spec: tr.TransformSpec, exps: ExponentSet
             ) -> Tuple[Weight, Weight, Optional[Tuple[float, float]]]:
    """(u, v, pair): the two-factor u and v of a config, s = w = x^b0, and
    for beta/gamma weights the pair (beta, gamma) of the plain power
    normalization ||y^(-beta) Ff||_q <= C ||x^gamma f||_p.

    The weights block gives u = y^(-beta q) and v = x^(gamma p), piecewise
    exponents or descriptors.  Under ``normalization`` "sw" (the default)
    these are the two-factor u and v, and the pair is (beta - b0/a',
    gamma + b0/a); under "power" they are the plain power weights, the
    two-factor ones u w^(-q/a') and v s^(-p/a), and the pair is as given."""
    norm, wts, pair = doc.get("normalization", _NORMALIZATION), doc["weights"], None
    if norm not in ("power", "sw"):
        raise ConfigError(f"normalization must be 'power' or 'sw', got {norm!r}")
    inv_ap, inv_a = exps.inv_a_prime, exps.inv_a
    if "u" in wts or "v" in wts:
        # explicit weight descriptors (power, piecewise_power or tabulated)
        u, v = Weight.from_descriptor(wts["u"]), Weight.from_descriptor(wts["v"])
    elif "beta1" in wts:
        b1, b2 = float(wts["beta1"]), float(wts["beta2"])
        g1, g2 = float(wts["gamma1"]), float(wts["gamma2"])
        if abs((b1 - g1) - (b2 - g2)) > 1e-12:
            raise ConfigError("piecewise exponents must satisfy beta1 - gamma1 = beta2 - gamma2")
        # u(x) = x^(-beta_bar' q): the component order swaps across x = 1.
        u = Weight.piecewise_power(-b2 * exps.q, -b1 * exps.q)
        v = Weight.piecewise_power(g1 * exps.p, g2 * exps.p)
    else:
        if "beta" not in wts or "gamma" not in wts:
            raise ConfigError("weights must set beta and gamma explicitly")
        beta, gamma = float(wts["beta"]), float(wts["gamma"])
        u, v = Weight.power(-beta * exps.q), Weight.power(gamma * exps.p)
        pair = ((beta, gamma) if norm == "power"
                else (beta - spec.b0 * inv_ap, gamma + spec.b0 * inv_a))
    if norm == "power":
        s = Weight.power(spec.b0)
        u = Weight.product([(u, 1.0), (s, -exps.q * inv_ap)])
        v = Weight.product([(v, 1.0), (s, -exps.p * inv_a)])
    return u, v, pair


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


def _build_family(desc: dict) -> List[Tuple[float, TestFunction]]:
    kind = desc.get("kind")
    if kind == "truncated_power":
        sigma, side, g = float(desc.get("sigma", 0.0)), desc.get("side", "left"), desc["grid"]
        grid = np.geomspace(float(g["start"]), float(g["stop"]), int(g["points"]))
        return [(float(r), make_truncated_power(sigma, float(r), side)) for r in grid]
    if kind == "log_counterexample":
        b01 = float(desc.get("b0_plus_b1", 0.0))
        ns = [float(n) for n in desc["n_values"]]
        return [(n, make_log_counterexample(n, b01)) for n in ns]
    raise ConfigError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# ratio computation
# ---------------------------------------------------------------------------

# Share of the outer tolerance each closed-form end of the norm may take.
_END_SHARE = 0.25
_EPS = float(np.finfo(float).eps)
# The step by which an upper tail's y1 moves out: a fourth of a doubling.
_MOVE = 2.0 ** 0.25


@dataclass
class _Ends:
    """One member's row of the ends pass (``_family_ends``): its rhs and,
    where that is finite and not 0, its window [y0, y1], the lower tail T
    below y0 and the upper tail beyond it, with their errors, or the failure
    its ends raise."""

    rhs: float
    y0: float
    y1: float
    tail: float = 0.0
    tail_err: float = 0.0
    upper: float = 0.0
    upper_err: float = 0.0
    failure: Optional[Exception] = None


def _family_ends(cfg: ExperimentConfig, fam: FunctionFamily, share: float) -> List[_Ends]:
    """Every member's rhs (``_rhs_norm``) and, where that is finite and not
    0, the closed-form ends of (0, inf) in the lhs domain, read once per
    dilation class (``FunctionFamily.dilations``, ``_class_ends``).  Every
    kernel is phi(xy), so a member f = c g(x / lam) has F f(y) = c
    lam^(b0 + 1 - c0) F g(lam y): its ends are its class's y0 / lam and
    y1 / lam, and its tails and their errors its class's times (c lam^(b0 +
    1 - c0))^q lam^(-u - 1), a factor kept in logs and applied as two
    halves, so it overflows only where the product does.  Every member of a
    class keeps its class's failure."""
    lo, hi = cfg.lhs_domain
    rows = [_Ends(rhs, lo, hi) for rhs in _rhs_norm(cfg, fam)]
    pending = [i for i, row in enumerate(rows) if row.rhs != 0.0 and math.isfinite(row.rhs)]
    if not pending or not (lo == 0.0 or math.isinf(hi)):
        return rows
    units, index, lam, log_c = (fam if len(pending) == len(rows) else fam.take(pending)
                                ).dilations(lo, hi)
    classes = _class_ends(cfg, units, lam[np.unique(index, return_index=True)[1]], share)
    spec, q, log_lam = cfg.transform, cfg.exps.q, np.log(lam)
    logs = (q * log_c, q * (spec.b0 + 1.0 - spec.c0) * log_lam,
            (q * cfg.power_pair[0] - 1.0) * log_lam)  # -u - 1 = q beta - 1
    half = np.exp(0.5 * sum(logs)).tolist()
    # Rounded logs move the factor by up to 4 eps (1 + their sizes) relative.
    rel = (4.0 * _EPS * (1.0 + sum(np.abs(x) for x in logs))).tolist()
    for i, k, scale, h, r in zip(pending, index.tolist(), lam.tolist(), half, rel):
        row = classes[k]
        y0 = min(row.y0 / scale, hi) if lo == 0.0 else lo
        (tail, tail_err), (upper, upper_err) = (_scaled(row.tail, row.tail_err, h, r),
                                                _scaled(row.upper, row.upper_err, h, r))
        rows[i] = _Ends(rows[i].rhs, y0, max(row.y1 / scale, y0) if math.isinf(hi) else hi,
                        tail, tail_err, upper, upper_err, row.failure)
    return rows


def _scaled(value: float, err: float, half: float, rel: float) -> Tuple[float, float]:
    """A tail and its error times a factor half^2 of relative error rel; an
    end not read (0, error 0) stays 0."""
    if not (value or err):
        return value, err
    return value * half * half, (err + rel * abs(value)) * half * half


def _class_ends(cfg: ExperimentConfig, units: FunctionFamily, lam: np.ndarray,
                share: float) -> List[_Ends]:
    """Each unit member's closed-form ends of (0, inf) in its scaled lhs
    domain (lam lo, lam hi) (``_tail``): the lower one, then the upper one
    from its y0 and its lower bound T - E, each one pass over the units its
    end still serves; the rows' rhs is not read (0).  A unit keeps the first
    failure its ends raise; a table that cannot be built fails all its
    readers."""
    lo, hi = cfg.lhs_domain
    rows = [_Ends(0.0, lo * scale, hi * scale) for scale in lam.tolist()]
    pending = list(range(len(rows)))
    u_exp = -cfg.exps.q * cfg.power_pair[0]

    def end(read, names):
        sub = units if len(pending) == len(rows) else units.take(pending)
        try:
            *values, failed = read(sub)
        except NonConvergence as exc:  # a table every member reads
            values, failed = [], dict.fromkeys(range(len(pending)), exc)
        for j, (i, *row) in enumerate(zip(pending, *(v.tolist() for v in values))):
            rows[i] = replace(rows[i], failure=failed.get(j), **dict(zip(names, row)))
        return [i for j, i in enumerate(pending) if j not in failed]

    if lo == 0.0:
        pending = end(lambda sub: _tail(cfg, u_exp, -1.0, np.zeros(len(sub.members)), share,
                                        *tr.near_expansion(cfg.transform, sub, hi * lam)),
                      ("y0", "tail", "tail_err"))
    if math.isinf(hi) and pending:
        y_min = np.array([rows[i].y0 for i in pending])
        lower = np.array([rows[i].tail - rows[i].tail_err for i in pending])
        pending = end(lambda sub: _tail(cfg, u_exp, 1.0, lower, share,
                                        *tr.far_expansion(cfg.transform, sub, y_min)),
                      ("y1", "upper", "upper_err"))
    return rows


def _integrand(cfg: ExperimentConfig, f: TestFunction):
    """y^u |F f|^q on a window, as (y^(u/q) |F f|)^q: y^u alone overflows
    near a lower tail's y0.  An inner value that is not finite raises
    DivergentIntegral."""
    q = cfg.exps.q
    u_exp = -q * cfg.power_pair[0]

    def integrand(ys):
        vals = tr.apply(cfg.transform, f, ys, cfg.quadrature, check=False).values
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegral("inner integral")
        with np.errstate(over="ignore", invalid="ignore"):
            return (ys ** (u_exp / q) * np.abs(vals)) ** q

    return integrand


def _logarithms(log: np.ndarray) -> dict:
    """A NonConvergence for each member whose end meets a logarithm."""
    return {i: NonConvergence(math.nan, math.inf, tr.LOG_TERM)
            for i in np.flatnonzero(log).tolist()}


def _tail(cfg: ExperimentConfig, u: float, d: float, lower: np.ndarray, share: float,
          y: np.ndarray, expansions: List[tr.FarExpansion], log: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(y', V, E, failed), a row per member of the family, each read along
    its own row: V = the integral of t^u |F f(t)|^q beyond y' (d = 1, from
    y1 = y of ``tr.far_expansion``) or below it (d = -1, from y0 = y of
    ``tr.near_expansion``), with error E.  In v = (t / y)^d >= 1 it is
    y^(u + 1) integral_1^inf v^w |G(v)|^q dv, w = d (u + 1) - 1, G the
    member's expansion: exact at q = 2 (``_square_tail``), else the lead's
    phase mean (``_mean_tail``, ``lower`` bounding the rest of the norm)
    with the end moved to y' = y k^d.  The lead power a is the largest
    power whose term is not 0; ``failed``: DivergentIntegral where w + q a +
    1 >= -DIVERGENCE_MARGIN, NonConvergence at a logarithm."""
    q, w = cfg.exps.q, d * (u + 1.0) - 1.0
    failed = _logarithms(log)
    value, err = np.zeros(len(y)), np.zeros(len(y))
    for i, far in enumerate(expansions):
        if i in failed:
            continue
        lead = max((p - n for _, p, tau in far.series for n, c in enumerate(tau.tolist()) if c),
                   default=-math.inf)
        if w + q * lead + 1.0 >= -DIVERGENCE_MARGIN:
            failed[i] = DivergentIntegral("y -> inf" if d > 0.0 else "y -> 0")
            continue
        scale = float(y[i]) ** (u + 1.0)
        k, v, e = ((1.0, *_square_tail(far, w, lead)) if q == 2.0 else
                   _mean_tail(far, w, q, lead, float(lower[i]) / scale, share, float(y[i]) ** d))
        y[i], value[i], err[i] = y[i] * k ** d, v * scale, e * scale
    return y, value, err, failed


def _oscillating_tail(h: np.ndarray, m: float, w: float) -> Tuple[float, float]:
    """integral_1^inf Re[sum_n h_n v^(m - n) e^(i w v)] dv, w > 0: the series
    of ``tr.by_parts`` from h's first term that is not 0 (a lead that
    cancelled) to where |m - n + 1| meets w (past it the terms grow), cut at
    its first smallest term or the first below 1e-18 of its lead; its bar
    twice the first omitted term, plus 4 eps of the terms."""
    live = np.flatnonzero(h)
    if not live.size:
        return 0.0, 0.0
    h, m = h[live[0]:], m - live[0]
    n = min(max(math.ceil(w + m + 1.0), 0), len(h) + tr._FAR_TERMS) + 2
    e = tr.by_parts(h.tolist(), m, w, n)
    size = [abs(x) for x in e]
    cut = min(range(n - 1), key=size.__getitem__)
    cut = next((k for k in range(1, cut) if size[k] <= 1e-18 * size[0]), cut)
    total = 1j / w * cmath.exp(1j * w) * sum(e[:cut + 1])
    return total.real, (2.0 * size[cut + 1] + 4.0 * _EPS * sum(size[:cut + 1])) / w


def _square_tail(far: tr.FarExpansion, u: float, top: float) -> Tuple[float, float]:
    """integral_1^inf v^u F(v)^2 dv and its error, F an expansion of lead
    power top: each product Re[a e^(i xi v)] Re[b e^(i xi' v)] = Re[a b e^(i
    (xi + xi') v)] / 2 + Re[a conj(b) e^(i (xi - xi') v)] / 2 is a series by
    convolution, summed per frequency and power and integrated term by term
    at frequency 0 (its terms that are 0 skipped), by parts at any other
    (``_oscillating_tail``).  The series S <= s v^top and the bars that are
    not 0, R <= r v^b (v >= 1), add 2 s r / -(u + top + b + 1) and r^2 /
    -(u + 2b + 1) (inf where a power is not integrable), rounding 8 eps s^2
    / -(u + 2 top + 1)."""
    if not far.series:
        return 0.0, 0.0
    products: dict = {}
    for j, (xi, p, a) in enumerate(far.series):
        for k, (xi2, p2, b) in enumerate(far.series[j:]):
            half = 0.5 if k == 0 else 1.0  # a power b is real: both halves at xi + xi2
            parts = ([(xi + xi2, 2.0 * half * np.convolve(a, b))] if 0.0 in (xi, xi2) else
                     [(xi + xi2, half * np.convolve(a, b)),
                      (xi - xi2, half * np.convolve(a, np.conj(b)))])
            for w, h in parts:
                key, h = (abs(w), u + p + p2), np.conj(h) if w < 0.0 else h
                products[key] = tr.padded_sum(products[key], h) if key in products else h
    value, err = 0.0, 0.0
    for (w, m), h in products.items():
        v, e = ((sum(c / (n - m - 1.0) for n, c in enumerate(h.real.tolist()) if c), 0.0)
                if w == 0.0 else _oscillating_tail(h, m, w))
        value, err = value + v, err + e
    size = sum(sum(map(abs, tau.tolist())) for _, _, tau in far.series)
    bar, bar_top = 0.0, -math.inf
    for e, q in far.bars:
        if e:
            bar, bar_top = bar + e, max(bar_top, q)
    bounds = ((2.0 * size * bar, u + top + bar_top), (bar * bar, u + 2.0 * bar_top),
              (8.0 * _EPS * size * size, u + 2.0 * top))
    return value, err + sum(c / -(g + 1.0) if g < -1.0 else math.inf for c, g in bounds if c)


def _mean_tail(far: tr.FarExpansion, u: float, q: float, a: float, lower: float, share: float,
               reach: float) -> Tuple[float, float, float]:
    """(k, V, E): V = integral_k^inf v^u |F(v)|^q dv from the lead A v^a
    (the terms of the largest power) of an expansion F, by its phase mean m
    |A|^q: m = m_q = Gamma((q + 1)/2) / (sqrt(pi) Gamma(q/2 + 1)), the mean
    of |cos|^q, for one oscillation, 1 for a power.  The other terms and
    bars move |F| by at most r(v) |A| v^a, r falling, which costs (1 + r)^q
    - 1 of |A|^q integral v^(u + q a); the harmonics |cos|^q - m_q, whose
    primitive spans pi m_q (1 - m_q), add by the second mean value theorem
    at most |A|^q pi m_q (1 - m_q) / xi.  A lead of several frequencies
    reads half its bound (sum |A|)^q (1 + r)^q.  With the end moved by k
    every term scales by k^power, so E(k) is closed: k grows by _MOVE until
    E <= share (lower + V - E), a lower bound on the norm, where that can
    hold at all and k reach < 1e300."""
    terms = [(xi, p - n, c) for xi, p, tau in far.series for n, c in enumerate(tau.tolist()) if c]
    if not terms:
        return 1.0, 0.0, 0.0
    lead = [(xi, c) for xi, p, c in terms if p >= a - EXPONENT_TOLERANCE]
    rest = [(abs(c), p - a) for _, p, c in terms if p < a - EXPONENT_TOLERANCE]
    rest += [(e, b - a) for e, b in far.bars]
    freqs, s = {xi for xi, _ in lead}, u + q * a + 1.0
    amp = abs(sum(c.real if xi == 0.0 else c for xi, c in lead)) if len(freqs) == 1 else 0.0
    several, m = amp == 0.0, 1.0 if freqs == {0.0} else math.gamma(0.5 * q + 0.5) / (
        math.sqrt(math.pi) * math.gamma(0.5 * q + 1.0))
    harmonic = 0.0 if several or m == 1.0 else math.pi * m * (1.0 - m) / max(freqs)
    amp = sum(abs(c) for _, c in lead) if several else amp

    def tail(k: float) -> Tuple[float, float]:
        grow, bound = (1.0 + sum(e * k ** g for e, g in rest) / amp) ** q, amp ** q * k ** s / -s
        if several:
            return 0.5 * bound * grow, 0.5 * bound * grow
        return m * bound, bound * (grow - 1.0) + amp ** q * harmonic * k ** (s - 1.0)

    base = sum(e for e, g in rest if g >= -EXPONENT_TOLERANCE) / amp  # E / V as k -> inf
    reachable = lower > 0.0 or (1.0 if several else ((1.0 + base) ** q - 1.0) / m) * (
        1.0 + share) < share
    k, (v, e) = 1.0, tail(1.0)
    while reachable and e > share * (lower + v - e) and k * reach < 1e300:
        k *= _MOVE
        v, e = tail(k)
    return k, v, e


def _rhs_norm(cfg: ExperimentConfig, fam: FunctionFamily) -> List[float]:
    """||x^gamma f||_p of every member of the family, a sum of exact power
    segments."""
    p = cfg.exps.p
    mu = p * cfg.power_pair[1]
    terms = (np.array([[abs(c) ** p for c in row] for row in fam.coef.tolist()])
             * power_moment(mu + p * fam.exponents, fam.lo, fam.hi))
    total = 0.0
    for column in terms.T:  # in piece order
        total = total + column
    return [t ** (1.0 / p) if math.isfinite(t) else math.inf for t in total.tolist()]


def _record(param: float, ends: _Ends, outcome, q: float) -> RatioRecord:
    """One member's ratio record from its row of the ends pass and its
    window's outcome (``quadrature.integrate``): the norm's three parts
    summed, or the failure its ends or its window raised (ValueError: an
    integrand that is not finite), with its rhs."""
    rhs, failure = ends.rhs, ends.failure or (outcome if isinstance(outcome, Exception) else None)
    if rhs == 0.0 or not math.isfinite(rhs):
        return RatioRecord(param, math.nan, rhs, math.nan, 0.0, 0.0,
                           "rhs zero or infinite; skipped")
    if failure is not None:
        lhs = math.inf if isinstance(failure, DivergentIntegral) else math.nan
        note = (f"lhs divergent ({failure.direction})" if lhs == math.inf else "nonconvergent"
                if isinstance(failure, NonConvergence) else "nonconvergent (integrand not finite)")
        return RatioRecord(param, lhs, rhs, lhs, 0.0, 0.0, note)
    val = ends.tail + outcome[0] + ends.upper
    err = ends.tail_err + outcome[1] + ends.upper_err
    norm = max(val, 0.0) ** (1.0 / q)
    return RatioRecord(param, norm, rhs, norm / rhs, norm / (q * val) * err if val > 0.0 else err,
                       0.0)


def compute_ratio_records(cfg: ExperimentConfig) -> List[RatioRecord]:
    """One record per family member, in three steps: one ends pass per
    family of one layout (``FunctionFamily.partition``, ``_family_ends``),
    one ``integrate`` call over the window of every member whose ends hold,
    and each member's ``_record``."""
    # The norm integrand is nonnegative: no cancellation can fool the error
    # estimator, so adaptive panels are reliable.
    outer = replace(cfg.quadrature, rel_tol=max(cfg.quadrature.rel_tol, cfg.norm_rel_tol))
    ends: List[_Ends] = [None] * len(cfg.family)
    for index, fam in FunctionFamily.partition([f for _, f in cfg.family]):
        for i, row in zip(index, _family_ends(cfg, fam, _END_SHARE * outer.rel_tol)):
            ends[i] = row
    live = [i for i, row in enumerate(ends)
            if row.failure is None and row.rhs != 0.0 and math.isfinite(row.rhs)]
    outcomes = dict(zip(live, integrate([_integrand(cfg, cfg.family[i][1]) for i in live],
                                        [(ends[i].y0, ends[i].y1) for i in live], outer)
                        if live else []))
    return [_record(param, row, outcomes.get(i), cfg.exps.q)
            for i, ((param, _), row) in enumerate(zip(cfg.family, ends))]


def dilation_exponent(cfg: ExperimentConfig) -> Optional[float]:
    """kappa with ratio(r) = ratio(1) r^kappa, or None: every truncated-power
    member is a dilation of one f and every preset kernel is phi(xy), so on
    the lhs domain (0, inf) kappa = b - g - (c0 - b0 + 1/q - 1/p') for the
    power-normalized (b, g), 0 on the paper's exponent relation."""
    if cfg.lhs_domain != (0.0, math.inf) or any(
            f.family != "truncated_power" for _, f in cfg.family):
        return None
    beta, gamma = cfg.power_pair
    return beta - gamma - cond._relation_offset(cfg.transform, cfg.exps)


def verify_summary(cfg: ExperimentConfig, records: Sequence[RatioRecord]) -> dict:
    """Ratio statistics, growth fit and ``bounded``: no row's lhs diverges,
    and the dilation exponent is 0 or, for any other family, the fitted
    exponent is 0 within its bar (null with nothing to judge by)."""
    ratios = [r.ratio for r in records if r.note == "" and math.isfinite(r.ratio)]
    max_ratio, median = (max(ratios), statistics.median(ratios)) if ratios else (None, None)
    kappa = dilation_exponent(cfg)
    try:
        fit = fit_growth(records, cfg.growth_model)
    except FitDegenerate:
        fit = dict.fromkeys(_FIT_FIELDS)
    divergent = any(r.note.startswith("lhs divergent") for r in records)
    if kappa is not None and (ratios or divergent):
        source, flat = "dilation_exponent", abs(kappa) <= cond.EXPONENT_TOLERANCE
    elif fit["fitted_exponent"] is not None:
        source, flat = "fit", abs(fit["fitted_exponent"]) <= fit["fitted_exponent_err"]
    else:
        source, flat = None, None
    return {
        "experiment_id": cfg.experiment_id,
        "transform": cfg.transform.name,
        "normalization": cfg.normalization,
        "p": cfg.exps.p, "q": cfg.exps.q, "a": cfg.exps.a,
        "beta": cfg.beta, "gamma": cfg.gamma,
        "rows": len(records), "rows_used": len(ratios),
        "rows_skipped": len(records) - len(ratios),
        "max_ratio": max_ratio, "median_ratio": median,
        "max_over_median": None if max_ratio is None else max_ratio / median if median > 0 else math.inf,
        "dilation_exponent": kappa, "verdict_source": source,
        "bounded": False if divergent else flat,
        **{k: fit[k] for k in _FIT_FIELDS},
    }


class FitDegenerate(Exception):
    """Fewer than 4 usable rows for a growth fit."""


# The fields of a growth fit that both verify and probe-sharpness write.
_FIT_FIELDS = ("model", "fitted_exponent", "fitted_exponent_err", "intercept")


def fit_growth(records: Sequence[RatioRecord], model: str) -> dict:
    """Least-squares slope of log ratio against x = log r (``power``) or
    log log N (``log``), with the bar sum |d_i| e_i / sum d_i^2 (d_i = x_i
    - mean x, e_i = lhs_err_i / lhs_i + rhs_err_i / rhs_i) by which the rows'
    relative errors can move it."""
    usable = [r for r in records
              if r.note == "" and math.isfinite(r.ratio) and r.ratio > 0]
    if len(usable) < 4:
        raise FitDegenerate(f"only {len(usable)} usable rows")
    params, ratios, rel = np.array(
        [(r.param, r.ratio, r.lhs_err / r.lhs + r.rhs_err / r.rhs) for r in usable]).T
    if model == "log" and np.any(params <= 1.0):
        raise FitDegenerate("the log model needs every parameter above 1")
    x = np.log(np.log(params)) if model == "log" else np.log(params)
    d, logs = x - np.mean(x), np.log(ratios)
    slope = float(np.sum(d * logs) / np.sum(d * d))
    return {"model": model, "fitted_exponent": slope,
            "fitted_exponent_err": float(np.sum(np.abs(d) * rel) / np.sum(d * d)),
            "intercept": float(np.mean(logs) - slope * np.mean(x)), "rows_used": len(usable)}


# ---------------------------------------------------------------------------
# condition runner
# ---------------------------------------------------------------------------

def run_conditions(doc: dict) -> dict:
    """Evaluate every applicable condition and range for a config's weights
    (``_weights``)."""
    with _config_fields():
        transform, exps = _shared_blocks(doc)
        u, v, pair = _weights(doc, transform, exps)
    s, w = Weight.power(transform.b0), Weight.power(transform.b0)
    env, pb = transform.kernel.envelope, transform.primitive_bound

    brackets = cond.BracketTable()
    rep1, rep2 = cond.hardy_pair_condition(u, v, s, w, exps, brackets)
    out = {
        "experiment_id": doc.get("experiment_id", "conditions"),
        "transform": transform.name,
        "exponents": {"p": exps.p, "q": exps.q, "a": exps.a},
        "weights": doc["weights"],
        "hardy_condition_1": rep1.to_dict(),
        "hardy_condition_2": rep2.to_dict(),
        "pair_finite": rep1.finite and rep2.finite,
        # The kernel hypotheses the ranges apply: closed forms of the expansions.
        "kernel": {"envelope": {"b1": env.b1, "b2": env.b2, "exact": env.exact,
                                "strict": env.strict},
                   "two_factor_estimate": transform.kernel_est_holds,
                   "oscillatory": transform.kernel.oscillatory,
                   "primitive_bound": None if pb is None else {"b": pb.b, "c": pb.c}},
    }
    if exps.a == 1.0:
        try:
            out["glued"] = cond.glued_condition(u, v, s, w, exps, brackets).to_dict()
        except cond.InverseRelationViolated as exc:
            out["glued"] = {"error": str(exc)}
    # The Lorentz form compares Ff and f directly: its u and v carry the s
    # and w factors of the two-factor setting (the full exponents in the
    # plain power normalization).  Its u is the first Hardy bracket's
    # integrand.
    out["lorentz_necessity"] = cond.lorentz_necessity_condition(
        brackets.product([(u, 1.0), (w, exps.q * exps.inv_a_prime)]),
        brackets.product([(v, 1.0), (s, exps.p * exps.inv_a)]), s, exps).to_dict()

    if pair is not None:
        # Ranges live in the plain power normalization.
        beta_pow, gamma_pow = pair
        out["power_normalization_exponents"] = {"beta": beta_pow, "gamma": gamma_pow}
        try:
            suff, sharp = cond.power_pitt_range(transform, exps)
            out["power_range"] = suff.query(beta_pow, gamma_pow).to_dict()
            out["power_range_sharp"] = sharp.query(beta_pow, gamma_pow).to_dict() if sharp else None
        except cond.EnvelopeNotStrict as exc:
            out["power_range"] = {"error": str(exc)}
        try:
            out["gm_range"] = cond.gm_power_range(transform, exps).query(
                beta_pow, gamma_pow).to_dict()
        except (tr.MissingPrimitiveBound, ValueError) as exc:
            out["gm_range"] = {"error": str(exc)}
        try:
            out["vanishing_moment_range_n1"] = cond.vanishing_moment_range(
                transform, 1, exps).query(beta_pow, gamma_pow).to_dict()
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
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


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
    bounded = {d.get("experiment_id", ""): d.get("bounded") for d in summaries}
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
            consistent = ""
            if vd is not None and bounded.get(eid) is not None:
                # The sharp (iff) range where the document has one; else the
                # Hardy pair, which is only sufficient: a divergent pair
                # neither proves nor refutes a bounded ratio.
                sharp = vd.get("power_range_sharp")
                holds = sharp["satisfied"] if sharp else vd.get("pair_finite")
                consistent = ("UNDECIDED" if not sharp and not holds and bounded[eid]
                              else "CONSISTENT" if bool(holds) == bounded[eid] else "INCONSISTENT")
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


def cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config))
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
          f"max/median {summary['max_over_median']}, bounded={summary['bounded']} "
          f"({summary['verdict_source']})")
    bad = sum(1 for r in records if r.note.startswith("nonconvergent"))
    return 1 if bad > len(records) / 2 else 0


def cmd_probe_sharpness(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config))
    records = compute_ratio_records(cfg)
    try:
        fit = fit_growth(records, cfg.growth_model)
    except FitDegenerate as exc:
        print(f"error: growth fit degenerate: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records_csv(out_dir / f"{cfg.experiment_id}_records.csv", cfg, records)
    doc = dict(fit, experiment_id=cfg.experiment_id, dilation_exponent=dilation_exponent(cfg))
    _write_json(out_dir / f"{cfg.experiment_id}_growth.json", doc)
    print(f"model={fit['model']} fitted_exponent={fit['fitted_exponent']:.6g} "
          f"+- {fit['fitted_exponent_err']:.2g} rows={fit['rows_used']}")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="wnilab",
        description="Weighted norm inequality laboratory for Hankel, Struve "
                    "and sine-type integral transforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")

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
    args = _build_parser().parse_args(argv)
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
