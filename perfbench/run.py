"""gradgate benchmark: one workload run, with checked outputs and metrics.

    python3 perfbench/run.py --workload pipeline-cold --seed 1 --seconds 10 --trace 0

Workloads: pipeline-cold, pipeline-warm, score-stream (see perfbench/README.md).
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the run also repeats one unit under the span tracer, runs the
autodiff kernel probe, and the result carries the per-layer metrics.
Human-readable lines go first; the last line of stdout is the JSON result.
Run from the root of a gradgate source checkout; the package is imported
from its ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: Path, np, args, sizes: dict, src_digest: str) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(np),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Outcome:
    """Operations attempted and failed; a check returns a list of problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def settle(self, checks) -> None:
        for check in checks:
            self.attempted += 1
            problems = check()
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)


def measure(wl, seconds: float):
    """Set up, then repeat the workload's unit until ``seconds`` have passed
    (at least once). Returns the setup times, the units and the outcome;
    every operation's checks run after its unit."""
    outcome = Outcome()
    setup_times = wl.setup()
    outcome.settle(getattr(wl, "setup_checks", []))
    leftover = tracer.wrapped_bindings()
    if leftover:
        raise RuntimeError(f"tracer wrappers still installed: {leftover[:5]}")
    units = []
    end = time.perf_counter() + seconds
    while True:
        try:
            unit = wl.unit()
        except Exception:
            traceback.print_exc()
            outcome.attempted += 1
            outcome.failed += 1
            break
        outcome.settle(unit.checks)
        unit.checks = []  # what they hold (inputs, features) must not pile up
        units.append(unit)
        if time.perf_counter() >= end:
            break
    return setup_times, units, outcome


def end_to_end(setup_times, units) -> dict:
    latencies = [x for u in units for x in u.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(u.wall_s for u in units),
        "samples_per_s": sum(u.samples for u in units) / sum(u.wall_s for u in units),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        # this process only: set-up work that would raise it runs in children
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-cold", "pipeline-warm", "score-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "gradgate" / "__init__.py").is_file() or \
            not (root / "configs" / "default.ini").is_file():
        print(f"error: {root} is not a gradgate source checkout "
              "(needs src/gradgate and configs/default.ini)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import numpy as np

    import gradgate
    if Path(gradgate.__file__).resolve().parent != root / "src" / "gradgate":
        print(f"error: imported gradgate from {gradgate.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import probe
    import workloads

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](root, work, args.seed)
        setup_times, units, outcome = measure(wl, args.seconds)
        if not units:
            print("error: no unit of work completed", file=sys.stderr)
            return 1
        e2e = end_to_end(setup_times, units)
        e2e_units = dict(END_TO_END)
        # printed and recorded but not gated; perfbench/README.md says why
        auroc_min = wl.auroc_min()
        results = root / ".perfbench_work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        per_layer = {}
        layer_units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        if args.trace:
            spans = tracer.Tracer()
            with spans.installed():
                traced = wl.unit()
            outcome.settle(traced.checks)
            per_layer = tracer.layer_metrics(tracer.SpanTable(spans))
            per_layer["trace.overhead_s"] = traced.wall_s - e2e["wall_s"]
            per_layer.update(probe.run_probe(args.seed))
            missing = set(layer_units) - set(per_layer)
            if missing:
                raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
            spans.write(results / f"spans-{args.workload}-seed{args.seed}.csv")

        env = environment(root, np, args, wl.sizes(), workloads.source_digest(root))
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"units {len(units)}, requests timed {sum(len(u.latencies_ms) for u in units)}")
        for name, value in e2e.items():
            print(f"{name:<44} {value:>16.6f} {e2e_units[name]}")
        error_rate = outcome.failed / outcome.attempted
        print(f"{'error_rate':<44} {error_rate:>16.6f} ratio "
              f"({outcome.failed} failed of {outcome.attempted})")
        print(f"{'auroc_min':<44} {auroc_min:>16.6f} ratio")
        for name, value in per_layer.items():
            print(f"{name:<44} {value:>16.6f} {layer_units[name]}")

        chosen, unit_of = (per_layer, layer_units) if args.trace else (e2e, e2e_units)
        result = {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": value, "unit": unit_of[name]}
                        for name, value in chosen.items()},
        }
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "error_rate": error_rate, "auroc_min": auroc_min,
                        "end_to_end": e2e, "per_layer": per_layer, **result},
                       indent=1, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
