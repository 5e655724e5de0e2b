"""Benchmark of the ``wnilab`` command line.

Usage:
  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and README.md): hankel-verify, scripth-probe,
conditions-grid.  Each is a closed loop: one client in this process calls
``wnilab.cli.main`` with the workload's generated configs, the next call
issued when the previous one returns.  One pass runs every call of the
workload once; passes repeat until ``--seconds`` of timed passes have run,
and at least twice.

Timings are also given in *probes*: while an untraced pass runs, a timer
signal every PROBE_INTERVAL_S runs a fixed reference computation (``probe``)
and records its duration.  A pass's time divided by the mean probe duration
during that pass cancels the host's varying speed, which on a shared 2-core
host changes the raw times by up to 1.8x within seconds.  The declared
timing metrics are in probes; the raw seconds are printed next to them.
``setup_s`` is measured the same way in fresh interpreters: each set-up run
is paired with a reference run that only imports numpy, and the median
ratio is reported in seconds at a fixed reference speed.

Every operation (family member or condition config) is judged against an
oracle that does not use the package (oracles.py).  The last line printed
is one JSON object: correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` one
untraced pass or more is followed by two traced passes (spans.py), and the
metrics are the per-layer ones.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PAIRS = 10
# Set-up is timed against a fresh interpreter that only imports numpy, and
# reported as seconds at the speed at which that reference takes
# REFERENCE_SETUP_S (an idle 2-core 2.0 GHz Xeon host).
REFERENCE_SETUP = "import numpy"
REFERENCE_SETUP_S = 0.125
MIN_PASSES = 2
TRACED_PASSES = 2
PROBE_INTERVAL_S = 0.02

sys.path.insert(0, str(HERE))

import spans as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CallResult, Outcome, Workload  # noqa: E402

import numpy as np  # noqa: E402

# Declared end-to-end metrics, then the raw timings printed beside them.
END_TO_END = {
    "wall_probes": "probes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "config_p50_probes": "probes",
    "config_p95_probes": "probes",
}
RAW = {"wall_s": "s", "config_p50_s": "s", "config_p95_s": "s"}

_PROBE_X = np.linspace(0.1, 30.0, 256)


def probe() -> float:
    """Seconds taken by a fixed mix of small array operations and
    interpreter work, like the package's own."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.cos(_PROBE_X) * _PROBE_X + np.sqrt(_PROBE_X)
    acc = 0
    for i in range(300):
        acc += i * i
    return time.perf_counter() - t0


@contextmanager
def probing(samples: List[float]):
    """Run ``probe`` every PROBE_INTERVAL_S of wall time, appending its
    durations to ``samples``."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def environment() -> str:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {np.__version__}, {blas.get('name', 'blas')} {blas.get('version', '?')}, "
            f"load: 1 process, 1 client, serial")


def _child_seconds(argv: List[str]) -> float:
    """Wall time of one fresh interpreter running ``argv``, start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return seconds


def measure_setup(name: str, seed: int, work: Path) -> List[Tuple[float, float]]:
    """SETUP_PAIRS pairs of (set-up seconds, reference seconds), each from
    a fresh interpreter, after one untimed pair that leaves the byte-code
    caches filled.  The two children of a pair run back to back, so a
    change of the host's speed slows both."""
    pairs = []
    for i in range(SETUP_PAIRS + 1):
        setup = _child_seconds([str(HERE / "setup_probe.py"), name, str(seed), str(SRC),
                                str(work / f"setup-{i}")])
        reference = _child_seconds(["-c", REFERENCE_SETUP])
        if i > 0:
            pairs.append((setup, reference))
    return pairs


@dataclass
class Pass:
    wall: float
    probe: float  # mean probe duration during the pass; 0 for traced passes
    results: Dict[str, CallResult]
    outcomes: List[Outcome]
    files: Dict[str, bytes]  # outputs that must be byte-identical across passes


def run_pass(cli, wl: Workload, out: Path, tracer: Optional[tracing.Tracer] = None) -> Pass:
    out.mkdir(parents=True)
    results: Dict[str, CallResult] = {}
    samples: List[float] = []
    with probing(samples) if tracer is None else nullcontext():
        t_pass = time.perf_counter()
        _calls(cli, wl, out, results, tracer)
        wall = time.perf_counter() - t_pass
    if tracer is None and not samples:
        samples.append(probe())
    outcomes = wl.judge(wl, out, results)
    files = {name: (out / name).read_bytes() for name in wl.determinism_files
             if (out / name).is_file()}
    shutil.rmtree(out)
    return Pass(wall, statistics.mean(samples) if samples else 0.0, results, outcomes, files)


def _calls(cli, wl: Workload, out: Path, results: Dict[str, CallResult],
           tracer: Optional[tracing.Tracer]) -> None:
    for call in wl.calls:
        if tracer is not None:
            tracer.set_item(call.item)
        argv = call.argv + ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the operation failed; judged below
            rc, error = None, f"{type(exc).__name__}: {exc}"
        results[call.item] = CallResult(rc, error, time.perf_counter() - t0,
                                        stderr.getvalue().strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wnilab" / "cli.py").is_file():
        print(f"error: package source not found at {SRC / 'wnilab'}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_pairs = measure_setup(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    from wnilab import cli

    wl = workloads.generate(args.workload, args.seed, work / "configs")

    budget = args.seconds / 3.0 if args.trace else args.seconds
    passes: List[Pass] = []
    while len(passes) < (1 if args.trace else MIN_PASSES) or \
            sum(p.wall for p in passes) < budget:
        passes.append(run_pass(cli, wl, work / f"pass-{len(passes)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: List[Pass] = []
    layers: List[Dict[str, float]] = []
    if args.trace:
        for i in range(TRACED_PASSES):
            tr = tracing.Tracer()
            with tracing.traced(tr):
                traced.append(run_pass(cli, wl, work / f"traced-{i}", tr))
            layers.append(tracing.layer_metrics(tr))
            if i == 0:
                tr.write(work / "spans.csv.gz")
            del tr

    # -- judging -------------------------------------------------------------
    problems: List[str] = []
    all_passes = passes + traced
    for i, p in enumerate(all_passes[1:], 1):
        for name, data in all_passes[0].files.items():
            if p.files.get(name) != data:
                problems.append(f"{name} differs between pass 0 and pass {i}")
    if layers:
        for key in layers[0]:
            if tracing.is_count(key) and any(m[key] != layers[0][key] for m in layers[1:]):
                problems.append(f"count {key} differs between traced passes: "
                                f"{[m[key] for m in layers]}")

    outcomes = [o for p in all_passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known_defect]
    errs = [o.rel_err for o in outcomes if o.rel_err is not None]

    # A config's latency is its mean over the passes: quantiles across
    # configs then describe the inputs, not when the host was contended.
    def config_latencies(unit):
        return [statistics.mean(p.results[c.item].seconds / unit(p) for p in passes)
                for c in wl.calls]

    in_s = config_latencies(lambda p: 1.0)
    in_probes = config_latencies(lambda p: p.probe)
    e2e = {
        "wall_probes": statistics.median(p.wall / p.probe for p in passes),
        "setup_s": REFERENCE_SETUP_S * statistics.median(a / b for a, b in setup_pairs),
        "peak_rss_mb": peak_rss_mb,
        "config_p50_probes": tracing.quantile(in_probes, 0.50),
        "config_p95_probes": tracing.quantile(in_probes, 0.95),
        "wall_s": statistics.median(p.wall for p in passes),
        "config_p50_s": tracing.quantile(in_s, 0.50),
        "config_p95_s": tracing.quantile(in_s, 0.95),
    }

    # -- report ----------------------------------------------------------------
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} untraced"
          + (f" + {len(traced)} traced" if traced else "")
          + "  pass seconds " + " ".join(f"{p.wall:.3f}" for p in all_passes))
    print(f"  setup seconds {' '.join(f'{a:.4f}' for a, _ in setup_pairs)}")
    print(f"  reference seconds {' '.join(f'{b:.4f}' for _, b in setup_pairs)}")
    print(f"  {environment()}")
    for name, unit in {**END_TO_END, **RAW}.items():
        print(f"  {name:<20} {e2e[name]:.6g} {unit}")
    print(f"  {'probe':<20} {' '.join(f'{p.probe * 1e6:.1f}' for p in passes)} us per pass")
    print(f"  {'config latency n':<20} {len(wl.calls)} configs, mean of {len(passes)} passes each")
    print(f"  {'error_rate':<20} {len(failed) / max(1, len(outcomes)):.6g} "
          f"({len(failed)}/{len(outcomes)} operations)")
    if errs:
        print(f"  {'oracle_max_rel_err':<20} {max(errs):.6g}")
    seen = set()
    for o in failed:
        if o.item not in seen:
            seen.add(o.item)
            tag = "known defect" if o.known_defect else "FAILED"
            print(f"  {tag}: {o.item}: {o.reason}")
    for msg in problems:
        print(f"  DETERMINISM: {msg}")

    if args.trace:
        metrics = {}
        for key in layers[0]:
            if tracing.is_count(key):
                value = int(layers[0][key]) if float(layers[0][key]).is_integer() \
                    else layers[0][key]
            else:
                value = statistics.mean(m[key] for m in layers)
            metrics[key] = {"value": value, "unit": tracing.unit_of(key)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(p.wall for p in traced) - e2e["wall_s"], "unit": "s"}
        for key, m in metrics.items():
            print(f"  {key:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    result = {
        "correct": not unexpected and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
