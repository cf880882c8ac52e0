"""lrcone benchmark: one workload per process, closed loop, single-threaded.

Usage (from the repository root):

    python3 perfbench/run.py --workload headline --seed 1 --seconds 30 --trace 0

Runs passes of the workload until --seconds have elapsed, checks every
result against an independent oracle, and prints one JSON object as the
last line of stdout.  With --trace 0 it reports the end-to-end metrics
(medians over passes); with --trace 1 it reports the per-layer metrics of a
separate traced run.  The program is imported from ./src; the run stops with
a nonzero exit code and no result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import os

# Every workload is single-threaded: pin each BLAS pool to one thread before
# numpy can be imported, here and in child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from spans import Tracer, import_split, median, p95, write_spans
from workloads import WORKLOADS, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
WORKDIR = ROOT / ".perfbench"
SETUP_MIN_REPEATS = 5  # fresh-process imports per run; the median is reported
SETUP_MIN_SECONDS = 3.0  # cheap imports repeat until this much wall time
SPLIT_REPEATS = 3  # -X importtime runs in a traced run
SUBPROCESS_TIMEOUT_S = 60
PACKAGES = ("numpy", "scipy", "lrcone")


def _import_script(modules) -> str:
    return "\n".join(
        [
            "import sys, time",
            f"sys.path.insert(0, {str(SRC)!r})",
            "start = time.perf_counter()",
            *(f"import {m}" for m in modules),
            "print(repr(time.perf_counter() - start))",
        ]
    )


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        check=True,
    )


def setup_times(modules) -> list[float]:
    """Import time of the workload's lrcone modules, each in a fresh process.

    One unmeasured import first writes the bytecode cache, as any earlier use
    of the installed package would have.
    """
    script = _import_script(modules)
    _python(["-c", script])
    times = []
    start = perf_counter()
    while len(times) < SETUP_MIN_REPEATS or perf_counter() - start < SETUP_MIN_SECONDS:
        times.append(float(_python(["-c", script]).stdout))
    return times


def import_seconds(modules) -> dict[str, float]:
    """Median -X importtime split of the same imports into numpy/scipy/lrcone."""
    script = _import_script(modules)
    runs = [
        import_split(_python(["-X", "importtime", "-c", script]).stderr, PACKAGES)
        for _ in range(SPLIT_REPEATS)
    ]
    return {f"import.{p}_s": median(run[p] for run in runs) for p in PACKAGES}


def run_passes(workload, seconds: float, tracer: Tracer | None):
    """Passes until `seconds` have elapsed (at least one traced pass if tracing).

    A traced run starts with one untraced pass, the baseline for the
    tracing overhead, and installs the wrappers after it.
    """
    passes, traced = [], []
    deadline = perf_counter() + seconds
    try:
        passes.append(workload.run_pass(None))
        if tracer is not None:
            instrument(tracer)
        while perf_counter() < deadline or (tracer is not None and not traced):
            result = workload.run_pass(tracer)
            passes.append(result)
            if tracer is not None:
                traced.append(tracer.reset())
    finally:
        if tracer is not None:
            tracer.restore()
    return passes, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "lrcone" / "__init__.py").is_file():
        print(f"perfbench: no lrcone source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lrcone

    if Path(lrcone.__file__).resolve().parent != (SRC / "lrcone").resolve():
        print(f"perfbench: imported lrcone from {lrcone.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    cls = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    imports = import_seconds(cls.modules) if trace else None
    setup = None if trace else setup_times(cls.modules)

    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        workload = cls(args.seed, ROOT, Path(tmp))
        tracer = Tracer() if trace else None
        passes, tables = run_passes(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        traced = passes[1:]
        values = {name: median(p.layers[name] for p in traced) for name in traced[0].layers}
        values.update(imports)
        values["trace.solve_s"] = median(p.solve_s for p in traced)
        values["trace.overhead_s"] = values["trace.solve_s"] - passes[0].solve_s
        write_spans(WORKDIR / f"trace-{args.workload}.json", tracer.names, tables)
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": median(setup),
            "solve_s": median(p.solve_s for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "call_p50_ms": median(median(p.call_s) * 1e3 for p in passes),
            "call_p95_ms": median(p95(p.call_s) * 1e3 for p in passes),
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} calls_per_pass={len(passes[0].call_s)} "
        f"items_attempted={attempted} items_failed={failed} "
        f"fail_frac={failed / attempted:.6g} solve_s_per_pass="
        + ",".join(f"{p.solve_s:.4f}" for p in passes)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
