"""The benchmark's workloads: inputs, one timed pass, and the oracle checks.

Each workload runs in a closed loop: one caller issues the next item only
after the previous one has returned.  A pass is one full instance of the
workload on inputs drawn from the seeded stream; the runner repeats passes
for the requested time.  Every item is checked against `oracles`, outside the timed
region, and an item that raises or fails its check counts as failed while the
pass carries on with the rest.

Traced passes (see `instrument`) wrap the public functions each layer's
callers look up by name, plus the count source and evaluator the workload
builds; untraced passes call the library untouched.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
from spans import Tracer, median, p95

HALF = {"g": 0.5, "J": 0.5}
STEP = math.sqrt(2.0)  # lrcone's default step factor
MAX_LOGGED_FAILURES = 5


@dataclass
class PassResult:
    solve_s: float  # first library call to result, checks excluded
    call_s: list[float]  # latency of each user-level call in the pass
    attempted: int
    failed: int
    layers: dict[str, float] | None = None


class FailureLog:
    """Prints the first few failures to stderr; later ones are only counted."""

    def __init__(self) -> None:
        self.seen = 0

    def __call__(self, what: str, detail: str = "") -> None:
        self.seen += 1
        if self.seen <= MAX_LOGGED_FAILURES:
            print(f"FAILED {what}: {detail or traceback.format_exc()}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Tracing hooks.
# ---------------------------------------------------------------------------


def _cells(n_max: int) -> int:
    """Cell updates of one axis_walk_counts(n) build: n layers of a (2n+3)^2 grid.

    Computed from the table size, not measured.
    """
    return n_max * (2 * n_max + 3) ** 2


def instrument(tracer: Tracer) -> None:
    """Wrap the module-level functions the library's callers look up by name."""
    import lrcone.cli
    import lrcone.cosmo
    import lrcone.lrbound
    import lrcone.velocity

    def build(original):
        traced = tracer.wrap("pathcount.build", original)

        def building(n_max, d_max, **kwargs):
            tracer.add("pathcount.cells_built", _cells(n_max))
            return traced(n_max, d_max, **kwargs)

        return building

    tracer.patch(lrcone.lrbound, "axis_walk_counts", build)
    tracer.patch(lrcone.lrbound, "best_tail_bound", lambda f: tracer.wrap("lrbound.tail", f))
    tracer.patch(lrcone.velocity, "arrival_time", lambda f: tracer.wrap("velocity.arrival", f))
    tracer.patch(lrcone.velocity, "fit_lightcone", lambda f: tracer.wrap("velocity.fit", f))
    tracer.patch(lrcone.velocity, "optimize_kappa", lambda f: tracer.wrap("velocity.kappa", f))
    for owner in (lrcone.cli, lrcone.cosmo):
        tracer.patch(owner, "lightcone_boundary", lambda f: tracer.wrap("cosmo.lightcone", f))
    tracer.patch(lrcone.cosmo, "horizon_distance", lambda f: tracer.wrap("cosmo.horizon_distance", f))
    tracer.patch(lrcone.cosmo, "v_lr_dimension", lambda f: tracer.counted("cosmo.integrand", f))


def instrument_evaluator(tracer: Tracer, evaluator) -> None:
    """Wrap one BoundEvaluator and its count source (instance attributes only)."""
    source = evaluator.source
    source.count = tracer.wrap("pathcount.count", source.count)
    source.ensure = tracer.wrap("pathcount.ensure", source.ensure)
    traced = tracer.wrap("lrbound.evaluate", evaluator.evaluate)

    def evaluate(t, d):
        result = traced(t, d)
        tracer.add("lrbound.terms", result.n_truncate + 1)
        return result

    evaluator.evaluate = evaluate


def record_table(tracer: Tracer, source) -> None:
    tracer.add("pathcount.final_n_max", source.n_max)
    tracer.add("pathcount.final_cells", _cells(source.n_max))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 where the layer did not run."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals[name].calls if name in totals else 0

    def total(name: str) -> float:
        return totals[name].total_s if name in totals else 0.0

    def own(name: str) -> float:
        return totals[name].self_s if name in totals else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    evaluate_ms = [s * 1e3 for s in tracer.durations("lrbound.evaluate")]
    return {
        "pathcount.build_s": total("pathcount.build"),
        "pathcount.builds": calls("pathcount.build"),
        "pathcount.final_n_max": counts.get("pathcount.final_n_max", 0),
        "pathcount.cell_updates": counts.get("pathcount.cells_built", 0),
        "pathcount.useful_cell_frac": ratio(
            counts.get("pathcount.final_cells", 0), counts.get("pathcount.cells_built", 0)
        ),
        "pathcount.count_calls": calls("pathcount.count"),
        "pathcount.count_s": own("pathcount.count") + own("pathcount.ensure"),
        "lrbound.evaluate_calls": calls("lrbound.evaluate"),
        "lrbound.self_s": own("lrbound.evaluate"),
        "lrbound.evaluate_p50_ms": median(evaluate_ms),
        "lrbound.evaluate_p95_ms": p95(evaluate_ms),
        "lrbound.terms": counts.get("lrbound.terms", 0),
        "lrbound.tail_calls": calls("lrbound.tail"),
        "lrbound.tail_s": total("lrbound.tail"),
        "lrbound.tail_accept_frac": ratio(calls("lrbound.evaluate"), calls("lrbound.tail")),
        "velocity.arrival_calls": calls("velocity.arrival"),
        "velocity.evals_per_arrival": ratio(
            counts.get("velocity.evaluations", 0), calls("velocity.arrival")
        ),
        "velocity.self_s": own("velocity.extract") + own("velocity.arrival"),
        "velocity.fit_s": total("velocity.fit") + total("velocity.kappa"),
        "cosmo.lightcone_calls": calls("cosmo.lightcone"),
        "cosmo.horizon_distance_calls": calls("cosmo.horizon_distance"),
        "cosmo.integrand_evals": counts.get("cosmo.integrand", 0),
        "cosmo.self_s": own("cosmo.lightcone") + own("cosmo.horizon_distance"),
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": own("cli.main"),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
    }


# ---------------------------------------------------------------------------
# headline: the ROADMAP's defining velocity run, as `lrcone velocity` does it.
# ---------------------------------------------------------------------------


class Headline:
    """g = J = 1/2, eps = 1e-8, d = 10..40 step 2, count table to n = 260.

    The seed does not change the inputs.  One pass is one user-level call
    (a velocity report); its items are the 16 arrivals and the fitted front.
    """

    modules = ("lrcone.lrbound", "lrcone.velocity")
    d_values = tuple(range(10, 41, 2))
    epsilon = 1e-8
    table_n_max = 260  # max(64, 6 * d_max + 20), the CLI's initial table size

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.log = FailureLog()

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        from lrcone.lrbound import BoundEvaluator, Couplings, DpCountSource
        from lrcone.velocity import extract_velocity

        items = len(self.d_values) + 1
        couplings = Couplings(**HALF)
        if tracer is not None:
            extract_velocity = tracer.wrap("velocity.extract", extract_velocity)
        report = None
        start = perf_counter()
        try:
            source = DpCountSource(n_max=self.table_n_max)
            evaluator = BoundEvaluator(couplings, source=source, rel_tol=1e-10)
            if tracer is not None:
                instrument_evaluator(tracer, evaluator)
            report = extract_velocity(
                couplings,
                d_values=self.d_values,
                epsilon=self.epsilon,
                evaluator=evaluator,
                include_profile=True,
            )
        except Exception:
            self.log("headline pass")
        solve = perf_counter() - start
        failed = items if report is None else self.check(report)
        layers = None
        if tracer is not None:
            if report is not None:
                record_table(tracer, source)
                tracer.add("velocity.evaluations", sum(a.evaluations for a in report.arrivals))
            layers = layer_metrics(tracer)
        return PassResult(solve, [solve], items, failed, layers)

    def check(self, report) -> int:
        failed = 0
        arrivals = {a.d: a for a in report.arrivals}
        for d, expected in oracles.HEADLINE_ARRIVALS.items():
            a = arrivals.get(d)
            if a is None:
                failed += 1
                self.log(f"headline d={d}", "no arrival reported")
                continue
            time_err = oracles.relative_error(a.time, expected)
            threshold_err = abs(a.bound_value / self.epsilon - 1.0)
            if not (time_err <= oracles.ARRIVAL_REL_TOL and threshold_err <= oracles.THRESHOLD_REL_TOL):
                failed += 1
                self.log(
                    f"headline d={d}",
                    f"t*={a.time!r} (rel err {time_err:.3g}), B/eps-1={threshold_err:.3g}",
                )
        v_err = oracles.relative_error(report.fit.velocity, oracles.HEADLINE_VELOCITY)
        if not v_err <= oracles.VELOCITY_REL_TOL:
            failed += 1
            self.log("headline velocity", f"v={report.fit.velocity!r} (rel err {v_err:.3g})")
        return failed


# ---------------------------------------------------------------------------
# large-t: a bound grid whose count table regrows inside the timed region.
# ---------------------------------------------------------------------------


def large_t_times(rng: random.Random) -> list[float]:
    """One t per band [10k, 10k + 10), k = 1..6, on an exact 1/64 grid.

    Below t = 70 every series truncates at n <= 256, so the table regrows
    64 -> 128 -> 256 and never to 512.
    """
    return [10.0 * k + rng.randrange(640) / 64.0 for k in range(1, 7)]


def _load_reference(root: Path):
    """exact_bound_series from the test suite's Fraction oracle."""
    spec = importlib.util.spec_from_file_location("lrcone_reference", root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exact_bound_series


class LargeT:
    """6 x 4 grid of B(t, d), d in {2, 4, 6, 8}, as `lrcone bound` builds it.

    One pass is one user-level call (the whole grid, as one `lrcone bound`
    run) with 24 items, the cells.  Each pass draws fresh times from the
    seeded stream.
    """

    modules = ("lrcone.lrbound",)
    d_values = (2, 4, 6, 8)

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.table_n_max = max(64, 2 * max(self.d_values) + 16)
        self.exact_bound_series = _load_reference(root)
        self.counts = oracles.LiebCounts()
        self.expected: dict[tuple[float, int, int], Fraction] = {}
        self.log = FailureLog()

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        from lrcone.lrbound import BoundEvaluator, Couplings, DpCountSource

        times = large_t_times(self.rng)
        # `lrcone bound` loops over d outside t, and sizes its first table so.
        cells = [(t, d) for d in self.d_values for t in times]
        results = [None] * len(cells)
        source = None
        start = perf_counter()
        try:
            source = DpCountSource(n_max=self.table_n_max)
            evaluator = BoundEvaluator(Couplings(**HALF), source=source, rel_tol=1e-10)
            if tracer is not None:
                instrument_evaluator(tracer, evaluator)
            for i, (t, d) in enumerate(cells):
                try:
                    results[i] = evaluator.evaluate(t, d)
                except Exception:
                    self.log(f"large-t t={t!r} d={d}")
        except Exception:
            self.log("large-t count source")
        solve = perf_counter() - start

        failed = sum(
            r is None or not self.check(t, d, r) for (t, d), r in zip(cells, results)
        )
        layers = None
        if tracer is not None:
            if source is not None:
                record_table(tracer, source)
            layers = layer_metrics(tracer)
        return PassResult(solve, [solve], len(cells), failed, layers)

    def check(self, t: float, d: int, result) -> bool:
        if not math.isfinite(result.value):
            self.log(f"large-t t={t!r} d={d}", f"B={result.value!r}")
            return False
        key = (t, d, result.n_truncate)
        if key not in self.expected:
            half = Fraction(1, 2)
            self.expected[key] = self.exact_bound_series(
                Fraction(t), d, half, half, self.counts, result.n_truncate
            )
        oracle = self.expected[key]
        rel = abs(Fraction(result.value) - oracle) / oracle
        if rel <= oracles.SERIES_REL_TOL:
            return True
        self.log(f"large-t t={t!r} d={d}", f"B={result.value!r} (rel err {float(rel):.3g})")
        return False


# ---------------------------------------------------------------------------
# horizon-cli: many small in-process CLI calls; no count or series code runs.
# ---------------------------------------------------------------------------

HORIZON_CALLS = 200
HORIZON_STEPS = 101  # the CLI's default --steps
D_FLOOR = 1.5  # generated runs end at D(t_f) >= D_FLOOR, well clear of D = 1


def horizon_inputs(rng: random.Random, count: int = HORIZON_CALLS) -> list[tuple[float, float, float]]:
    """(D_in, alpha, t_f): D_in log-uniform in [3, 1e9], alpha in [1e-3, 1e-1].

    t_f is a fraction in [0.05, 1] of the time at which D(t) = D_FLOOR, so
    D(t_f) stays >= D_FLOOR up to rounding (a few ulps of D_in), far inside
    the model's D >= 1 domain.
    """
    out = []
    for _ in range(count):
        d_in = 10.0 ** rng.uniform(math.log10(3.0), 9.0)
        alpha = 10.0 ** rng.uniform(-3.0, -1.0)
        t_floor = (1.0 - D_FLOOR / d_in) / alpha
        out.append((d_in, alpha, t_floor * rng.uniform(0.05, 1.0)))
    return out


def read_horizon_rows(path: Path, fmt: str) -> tuple[list[str], list[list[float]]]:
    text = path.read_text()
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], [[float(x) for x in row] for row in doc["rows"]]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError("csv artifact lacks its config header")
    rows = list(csv.reader(lines[1:]))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def check_horizon_rows(columns, rows, d_in: float, alpha: float, t_f: float) -> str:
    """Empty string when every row matches the closed form, else the first problem."""
    if columns != ["t", "r_axis_pairs", "r_degrees"]:
        return f"columns {columns}"
    if len(rows) != HORIZON_STEPS:
        return f"{len(rows)} rows"
    for k, (t, r_axis, r_deg) in enumerate(rows):
        if not oracles.relative_error(t, t_f * k / (HORIZON_STEPS - 1)) <= 1e-12:
            return f"row {k}: t={t!r}"
        for convention, r in (("axis_pairs", r_axis), ("degrees", r_deg)):
            expected = oracles.horizon_radius(
                d_in, alpha, t, step=STEP, convention=convention, **HALF
            )
            if not oracles.relative_error(r, expected) <= oracles.HORIZON_REL_TOL:
                return f"row {k}: r_{convention}={r!r}, closed form {expected!r}"
    return ""


class HorizonCli:
    """200 `lrcone.cli.main(["horizon", ...])` calls alternating csv and json.

    Each pass draws fresh inputs from the seeded stream.  Each call is one
    user-level call and one item.
    """

    modules = ("lrcone.cli",)

    def __init__(self, seed: int, root: Path, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.log = FailureLog()

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        from lrcone.cli import main

        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        inputs = horizon_inputs(self.rng)
        call_s, failed = [], 0
        for i, (d_in, alpha, t_f) in enumerate(inputs):
            fmt = ("csv", "json")[i % 2]
            path = self.workdir / f"horizon-{i:03d}.{fmt}"
            argv = [
                "horizon", "--Din", repr(d_in), "--alpha", repr(alpha), "--tf", repr(t_f),
                "--format", fmt, "--output", str(path),
            ]
            begin = perf_counter()
            try:
                code = main(argv)
            except Exception:
                code = None
                self.log(f"horizon call {i}")
            call_s.append(perf_counter() - begin)
            if code is None:
                failed += 1
                continue
            try:
                problem = f"exit code {code}" if code != 0 else check_horizon_rows(
                    *read_horizon_rows(path, fmt), d_in, alpha, t_f
                )
            except Exception:  # a malformed artifact fails this item only
                problem = traceback.format_exc()
            if problem:
                failed += 1
                self.log(f"horizon call {i} {argv}", problem)
            elif tracer is not None:
                tracer.add("cli.artifact_bytes", path.stat().st_size)
        layers = layer_metrics(tracer) if tracer is not None else None
        return PassResult(sum(call_s), call_s, len(inputs), failed, layers)


WORKLOADS = {"headline": Headline, "large-t": LargeT, "horizon-cli": HorizonCli}
