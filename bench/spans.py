"""Outside-in tracing of the ``wnilab`` layers.

The tracer replaces the public boundary functions of each layer by
wrappers, at run time and at every module attribute that holds them (the
defining module and every ``from ... import`` site), and restores them
afterwards.  Nothing in the package is edited.

Each wrapped call opens a span: name, parent span, item (family member or
condition config), start and end.  Spans are kept in memory and written
out when the run ends.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

# Series/asymptotic crossovers by which kernel arguments are counted; fixed
# here so that the count does not depend on the code under test.
BESSEL_SERIES_MAX = 12.0
STRUVE_SERIES_MAX = 20.0
STRUVE_TERMINATING_SERIES_MAX = 12.0


def _struve_series_max(alpha: float) -> float:
    m = alpha - 0.5
    if m >= 0 and abs(m - round(m)) < 1e-12:
        return STRUVE_TERMINATING_SERIES_MAX
    return STRUVE_SERIES_MAX


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.items: List[str] = []
        self._item_ids: Dict[str, int] = {}
        self.item = -1
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []  # [span index, time covered by children]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def set_item(self, label: str) -> None:
        if label not in self._item_ids:
            self._item_ids[label] = len(self.items)
            self.items.append(label)
        self.item = self._item_ids[label]

    def span(self, name: str, fn: Callable, keep_durations: bool = False,
             item_of: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            outer_item = self.item
            if item_of is not None:
                self.set_item(item_of(*args, **kwargs))
            idx = len(self.span_start)
            stack = self._stack
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_item.append(self.item)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_end[idx] = t1
                self.self_s[name] += dur - frame[1]
                self.count[name] += 1
                if keep_durations:
                    self.durations[name].append(dur)
                if stack:
                    stack[-1][1] += dur
                self.item = outer_item

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: id, parent, name, item, start_s, end_s
        (seconds from the first span)."""
        t_base = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,parent,name,item,start_s,end_s\n")
            for i in range(len(self.span_start)):
                it = self.span_item[i]
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.items[it] if it >= 0 else ''},"
                         f"{self.span_start[i] - t_base:.9f},{self.span_end[i] - t_base:.9f}\n")


def _boundaries(tr: Tracer, mods) -> list:
    """(defining module, attribute, wrapper factory) for every traced boundary."""
    cli, conditions, kernels, quadrature, transforms, weights = mods
    c = tr.count

    def kernel(name, series_max):
        def factory(fn):
            traced = tr.span(name, fn)

            def wrapper(alpha, x):
                arr = np.asarray(x, dtype=float)
                c[name + ".points"] += arr.size
                c[name + ".series_points"] += int(np.count_nonzero(arr <= series_max(alpha)))
                return traced(alpha, x)
            return wrapper
        return factory

    def integrate(fn):
        traced = tr.span("quadrature.integrate", fn)
        failures = (quadrature.DivergentIntegral, quadrature.NonConvergence)

        def wrapper(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except failures:
                c["quadrature.integrate.failed"] += 1
                raise
        return wrapper

    def eval_panels(fn):
        traced = tr.span("quadrature.eval_panels", fn)

        def wrapper(f, lo, hi):
            c["quadrature.eval_panels.panels"] += len(lo)
            return traced(f, lo, hi)
        return wrapper

    def counter(name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                c[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return factory

    def apply(fn):
        traced = tr.span("transforms.apply", fn)

        def wrapper(*args, **kwargs):
            res = traced(*args, **kwargs)
            c["transforms.apply.values"] += len(res.values)
            c["transforms.apply.nonconvergent"] += len(res.notes)
            return res
        return wrapper

    def sup_scan(fn):
        traced = tr.span("conditions.sup_scan", fn)

        def wrapper(product, *args, **kwargs):
            def counted(r):
                c["conditions.sup_scan.products"] += 1
                return product(r)
            return traced(counted, *args, **kwargs)
        return wrapper

    def member(cfg, f, *args, **kwargs):
        return f"r={f.params.get('r', float('nan')):.6g}" if f.params else "member"

    def span(name, **kw):
        return lambda fn: tr.span(name, fn, **kw)

    return [
        (kernels, "bessel_j", kernel("kernels.bessel_j", lambda a: BESSEL_SERIES_MAX)),
        (kernels, "struve_h", kernel("kernels.struve_h", _struve_series_max)),
        (quadrature, "integrate", integrate),
        (quadrature, "_eval_panels", eval_panels),
        (quadrature, "_alternating_tail", counter("quadrature.route.alternating_tail")),
        (quadrature, "_alternating_head", counter("quadrature.route.alternating_head")),
        (quadrature, "_integrate_decades", counter("quadrature.route.decades")),
        (transforms, "_point", span("transforms.point", keep_durations=True)),
        (transforms, "apply", apply),
        (cli, "_lhs_norm", span("cli.lhs_norm", item_of=member)),
        (cli, "_rhs_norm", span("cli.rhs_norm", item_of=member)),
        (cli, "run_conditions", span("cli.run_conditions")),
        (conditions, "CumulativeIntegral", span("conditions.cumulative")),
        (conditions, "_sup_scan", sup_scan),
        (conditions, "hardy_pair_condition", span("conditions.hardy_pair")),
        (conditions, "glued_condition", span("conditions.glued")),
        (conditions, "lorentz_necessity_condition", span("conditions.lorentz")),
        (weights, "make_truncated_power", span("weights.family_build")),
        (weights, "make_log_counterexample", span("weights.family_build")),
        (weights, "power_moment", counter("weights.power_moment.calls")),
    ]


@contextmanager
def traced(tr: Tracer):
    """Wrap every boundary at every module attribute bound to it."""
    from wnilab import cli, conditions, kernels, quadrature, transforms, weights

    mods = (cli, conditions, kernels, quadrature, transforms, weights)
    package = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "wnilab" or name.startswith("wnilab."))]
    saved = []
    try:
        for home, attr, factory in _boundaries(tr, mods):
            orig = getattr(home, attr, None)
            if orig is None:
                print(f"trace: {home.__name__}.{attr} not found; not traced", file=sys.stderr)
                continue
            wrapped = factory(orig)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        yield tr
    finally:
        for mod, name, orig in reversed(saved):
            setattr(mod, name, orig)


def quantile(xs: List[float], q: float) -> float:
    """Linearly interpolated quantile; 0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_point"):
        return "ns"
    if name.endswith(".panels_per_batch"):
        return "panels/batch"
    return "count"


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count, which must repeat exactly
    across traced passes; the others are times, averaged over passes."""
    return unit_of(name) not in ("s", "ns")


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Every per-layer metric but trace.overhead_s, from one traced pass.
    The keys are the per-layer metric names; ``unit_of`` gives their units."""
    c, s = tr.count, tr.self_s
    out: Dict[str, float] = {}
    for k in ("bessel_j", "struve_h"):
        name = f"kernels.{k}"
        out[f"{name}.calls"] = c[name]
        out[f"{name}.points"] = c[name + ".points"]
        out[f"{name}.series_points"] = c[name + ".series_points"]
        out[f"{name}.self_s"] = s[name]
        out[f"{name}.ns_per_point"] = 1e9 * _ratio(s[name], c[name + ".points"])
    batches = c["quadrature.eval_panels"]
    panels = c["quadrature.eval_panels.panels"]
    points = tr.durations["transforms.point"]
    out.update({
        "quadrature.integrate.calls": c["quadrature.integrate"],
        "quadrature.integrate.self_s": s["quadrature.integrate"],
        "quadrature.integrate.failed": c["quadrature.integrate.failed"],
        "quadrature.eval_panels.batches": batches,
        "quadrature.eval_panels.panels": panels,
        "quadrature.eval_panels.panels_per_batch": _ratio(panels, batches),
        "quadrature.eval_panels.self_s": s["quadrature.eval_panels"],
        "quadrature.route.alternating_tail": c["quadrature.route.alternating_tail"],
        "quadrature.route.alternating_head": c["quadrature.route.alternating_head"],
        "quadrature.route.decades": c["quadrature.route.decades"],
        "transforms.point.calls": c["transforms.point"],
        "transforms.point.self_s": s["transforms.point"],
        "transforms.point.p50_s": quantile(points, 0.50),
        "transforms.point.p99_s": quantile(points, 0.99),
        "transforms.apply.calls": c["transforms.apply"],
        "transforms.apply.values": c["transforms.apply.values"],
        "transforms.apply.nonconvergent": c["transforms.apply.nonconvergent"],
        "cli.lhs_norm.calls": c["cli.lhs_norm"],
        "cli.lhs_norm.self_s": s["cli.lhs_norm"],
        "cli.rhs_norm.self_s": s["cli.rhs_norm"],
        "cli.run_conditions.calls": c["cli.run_conditions"],
        "cli.run_conditions.self_s": s["cli.run_conditions"],
        "conditions.cumulative.builds": c["conditions.cumulative"],
        "conditions.cumulative.self_s": s["conditions.cumulative"],
        "conditions.sup_scan.calls": c["conditions.sup_scan"],
        "conditions.sup_scan.products": c["conditions.sup_scan.products"],
        "conditions.sup_scan.self_s": s["conditions.sup_scan"],
        "conditions.hardy_pair.self_s": s["conditions.hardy_pair"],
        "conditions.glued.self_s": s["conditions.glued"],
        "conditions.lorentz.self_s": s["conditions.lorentz"],
        "weights.family_build.self_s": s["weights.family_build"],
        "weights.power_moment.calls": c["weights.power_moment.calls"],
    })
    return out
