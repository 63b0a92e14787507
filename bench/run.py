"""termflow benchmark: drives the real CLI in-process on one workload,
checks every report, and prints the end-to-end metrics (or, with
--trace 1, the per-layer metrics) named in BENCHMARK.json.

    python3 bench/run.py --workload {brute,poly,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run it from a checkout: it imports termflow from the `src/` next to this
directory, and exits 2 without a result when that is missing.  Generated
inputs go to `.bench_work/` in the checkout and are removed on exit.

With --trace 0 it also measures set-up (a fresh interpreter importing
termflow and writing the inputs, median of SETUP_SAMPLES) and peak RSS.
With --trace 1 untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes, and `trace.overhead_s` is the
traced minus the untraced pass time.  Times and rates are rescaled to a
reference host speed (see `measure.speed_probe`).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7


def _import_termflow() -> None:
    """Put the checkout's `src/` first on the path and make sure that is
    the termflow that gets imported."""
    package = ROOT / "src" / "termflow"
    if not (package / "__init__.py").is_file():
        print(f"error: no termflow sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import termflow
    if Path(termflow.__file__).resolve().parent != package.resolve():
        print(f"error: imported termflow from {termflow.__file__}",
              file=sys.stderr)
        sys.exit(2)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over SETUP_SAMPLES fresh interpreters, each scaled to the
    reference speed by the speed probes taken just before and after it."""
    import measure
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = measure.speed_probe()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        probe = (before + measure.speed_probe()) / 2
        samples.append(seconds * measure.REFERENCE_PROBE_S / probe)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["brute", "poly", "crosscheck"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only import termflow and write the inputs")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_termflow()
    import measure
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[args.workload](work, args.seed)
        if args.setup_only:
            return 0
        runner = measure.Runner(workload)
        plain, traced = runner.measure(args.seconds, bool(args.trace))
        rss_mb = _peak_rss_mb()
        defects = measure.Runner(workloads.Workload(
            "defects", "", workloads.defect_probes(work)))
        defects.run_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = measure.per_layer(runner, plain, traced)
        wanted = spec["per_layer"]
    else:
        metrics = measure.end_to_end(runner, plain)
        metrics["peak_rss_mb"] = rss_mb
        wanted = spec["end_to_end"]

    factor = runner.speed_factor
    print(f"workload {workload.name}: {workload.why}")
    print(f"{len(workload.queries)} queries per pass; 1 warm-up and "
          f"{len(plain)} measured passes"
          + (f", {len(traced)} traced passes" if traced else ""))
    print(f"speed probe: median {statistics.median(runner.speed_samples):.6g} s "
          f"over {len(runner.speed_samples)} samples; times x {factor:.4f}, "
          "rates / it (unscaled values in brackets)")
    if len(workload.queries) <= 20:
        for name, seconds in measure.query_medians(plain).items():
            print(f"  query {name:34s} {seconds * factor:14.6g} s      "
                  f"({seconds:.6g})")
    units = {m["name"]: m["unit"] for m in wanted}
    raw = dict(metrics)
    for name, unit in units.items():
        if name in metrics:
            metrics[name] *= {"s": factor, "1/s": 1 / factor}.get(unit, 1)
            print(f"  {name:40s} {metrics[name]:14.6g} {unit:6s} "
                  f"({raw[name]:.6g})")
    if not args.trace:  # scaled sample by sample, by the probes around it
        metrics["setup_s"] = _setup_seconds(args.workload, args.seed)
        print(f"  {'setup_s':40s} {metrics['setup_s']:14.6g} s")
    print(f"  {'failed_share':40s} {runner.failed / runner.attempted:14.6g} "
          f"ratio   ({runner.failed} of {runner.attempted} queries)")
    for name, reason in runner.failures.items():
        print(f"  FAILED {name}: {reason}")
    for name, reason in defects.failures.items():
        print(f"  known defect (untimed, not counted): {name}: {reason}")
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
