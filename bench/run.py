"""pmrisk benchmark: four workloads driven through ``pmrisk.cli.main``.

Usage, from the root of a source checkout (no install needed; ``src/`` is
put on the import path here)::

    python3 bench/run.py --workload car-sis-paper --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client, queries run back to back in this process):

* ``car-sis-paper``: the paper reproduction run, ``simulate`` on the paper
  preset with SIS at the five reference alphas.  The only workload running
  the four-stage AOA path and the naive VR reference.
* ``car-sweep-small``: ``car`` with SIS at budget 5000, one query per alpha
  at the run's seed; a set of runs with distinct ``--seed`` covers the
  (alpha, seed) pairs, as a seed list within one run would double its time.
  Dominated by ``calibrate_is`` and the CaR fixed-point loop, and the
  workload on which the fixed CaR stopping rule fails (exit 3 at alpha
  0.001).
* ``curve-sis-wide``: ``curve`` with SIS over 81 thresholds from one shared
  sample: large stratified draws and the grid EP pass.
* ``fit-panel``: ``fit`` on three five-city CSVs generated here from the
  paper model (see ``panel.py``).  The only workload for ``calibration``.

Sizes are scaled down from the paper's budget of 1e5 so that a run takes
about 25 s, and a comparison of two commits (4 + 22 runs per workload) fits
in one hour.

A run measures set-up in fresh processes (import plus resolving the preset),
then repeats identical passes over the workload's queries until ``--seconds``
have elapsed (at least two passes, so reruns can be compared byte for byte).
Every artifact is checked; a query counts as failed when it exits nonzero or
its artifact fails a check.  Exit code 3 (the program's numeric/convergence
error) and a CaR or CCaR outside the paper's acceptance band (set for budget
1e5) are failed queries: at these budgets a correct program lands outside
that band by Monte Carlo error alone on some seeds.  Any other nonzero exit,
a wrong artifact, a CaR or CCaR outside the band widened by the Monte Carlo
error of the smaller budget, or a rerun that differs makes the run
incorrect.

End-to-end times are process CPU seconds scaled to a nominal machine speed
(see ``speed.py``).  The program is single-threaded (BLAS pools are pinned
to one thread below), so CPU time is its wall time less the time a shared
virtual machine's host steals; on a 2-vCPU VM that steal made wall-clock
spreads three times wider.  ``speed.reference_kernel`` runs inside each
set-up process after it is timed, and in this process between queries; each
time is multiplied by ``speed.NOMINAL_S`` over the kernel time beside it.
Raw CPU and wall times are printed, and median pass wall time is reported
as ``cli.main.wall_s``.  Span times are raw CPU seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then traced passes (see ``spans.py``), asserts that traced artifacts
equal untraced ones byte for byte, writes the spans under ``.bench_run/`` and
reports the per-layer metrics.  A per-layer metric is named
``<module>.<function>.<quantity>`` and reads 0 on a workload that does not
reach that function.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads; set-up children inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import panel
import speed
from spans import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

ALPHAS = (0.05, 0.01, 0.005, 0.002, 0.001)
ALPHA_ARG = ",".join(repr(a) for a in ALPHAS)
# (CaR, CCaR) reference rows of the paper preset
REFERENCE = {
    0.05: (239.32, 315.34),
    0.01: (352.03, 461.16),
    0.005: (414.22, 543.20),
    0.002: (515.27, 677.76),
    0.001: (600.78, 791.60),
}
PAPER_BUDGET = 100_000
SIS_BUDGET = 10_000
SWEEP_BUDGET = 5_000
CURVE_BUDGET = 200_000
CURVE_GRID = (100.0, 900.0, 10.0)
PANEL_DAYS = 250
PANELS = 3
SETUP_REPEATS = 3
MIN_PASSES = 2
EXIT_NUMERIC = 3

# metric names and units are read from BENCHMARK.json; a per-layer metric
# whose quantity (after the last dot) is a key here is a span total, the
# others are output-quality and run-level figures computed below
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPAN_KEY = {"self_s": "self_s", "s": "s", "calls": "calls", "rows": "n",
            "values": "n", "points": "n", "rounds": "rounds", "draws": "draws",
            "failures": "failures"}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Query:
    argv: list[str]
    out_name: str
    check: Callable[[Path], dict]


@dataclass
class Outcome:
    code: int
    wall: float
    cpu: float
    data: bytes | None
    stderr: str
    quality: dict = field(default_factory=dict)
    problem: str | None = None
    misses: list[str] = field(default_factory=list)
    scale: float = 1.0  # NOMINAL_S over the reference kernel time around the query

    @property
    def scaled_cpu(self) -> float:
        return self.cpu * self.scale


# ---------------------------------------------------------------- checks


def _read_artifact(path: Path, expected_meta: dict) -> list[list[str]]:
    """Check the ``#`` metadata block and return the CSV rows after it."""
    lines = path.read_text(encoding="utf-8").split("\n")
    require(lines[-1] == "", "artifact does not end with a newline")
    lines = lines[:-1]
    require(lines[0] == "# pmrisk artifact v1", f"bad first line {lines[0]!r}")
    meta = {}
    body = []
    for line in lines[1:]:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            require(sep == ": ", f"bad metadata line {line!r}")
            meta[key] = value
        else:
            body.append(line.split(","))
    digest = meta.pop("model_sha256", "")
    require(len(digest) == 64 and all(c in "0123456789abcdef" for c in digest),
            f"bad model hash {digest!r}")
    require(meta == expected_meta, f"metadata {meta} != expected {expected_meta}")
    return body


def _finite(text: str) -> float:
    value = float(text)
    require(math.isfinite(value), f"non-finite value {text!r}")
    return value


def _band(alpha: float) -> float:
    return 0.03 if alpha <= 0.002 else 0.015


def _accuracy(label: str, alpha: float, value: float, ref: float, budget: int,
              misses: list[str]) -> float:
    """|value/ref - 1|.  Beyond the paper's band (set at ``PAPER_BUDGET``)
    the query misses; beyond that band scaled by the Monte Carlo error of
    ``budget`` relative to the paper's the artifact is wrong."""
    err = abs(value / ref - 1.0)
    require(err <= _band(alpha) * math.sqrt(PAPER_BUDGET / budget),
            f"alpha={alpha}: {label} {value} far outside the band around {ref}")
    if err > _band(alpha):
        misses.append(f"alpha={alpha}: {label} {value} outside the band around {ref}")
    return err


def _run_meta(command: str, seed: int, budget: int) -> dict:
    return {"command": command, "estimator": "sis", "budget": str(budget),
            "seed": str(seed)}


def check_simulate(path: Path, seed: int) -> dict:
    meta = _run_meta("simulate", seed, SIS_BUDGET) | {"alphas": ALPHA_ARG}
    rows = _read_artifact(path, meta)
    require(rows[0] == ["alpha", "car", "ccar", "ccar_ci_pct", "vr_factor"],
            f"bad header {rows[0]}")
    rows = rows[1:]
    require([float(r[0]) for r in rows] == sorted(ALPHAS, reverse=True),
            "report rows do not match the requested alphas")
    car_err = ccar_err = ci_max = 0.0
    vr_min = math.inf
    misses: list[str] = []
    for alpha_s, car_s, ccar_s, ci_s, vr_s in rows:
        alpha = float(alpha_s)
        car, ccar, ci, vr = (_finite(v) for v in (car_s, ccar_s, ci_s, vr_s))
        car_ref, ccar_ref = REFERENCE[alpha]
        car_err = max(car_err, _accuracy("CaR", alpha, car, car_ref, SIS_BUDGET, misses))
        ccar_err = max(ccar_err, _accuracy("CCaR", alpha, ccar, ccar_ref, SIS_BUDGET, misses))
        require(ccar > car, f"alpha={alpha}: CCaR {ccar} <= CaR {car}")
        require(ci > 0.0 and vr > 0.0, f"alpha={alpha}: CI% {ci} or VR {vr} not positive")
        ci_max = max(ci_max, ci)
        vr_min = min(vr_min, vr)
    return {"risk.solve_car.max_rel_err": car_err,
            "risk.compute_ccar.max_rel_err": ccar_err,
            "risk.build_report.ci_pct_max": ci_max,
            "risk.build_report.vr_min": vr_min,
            "misses": misses}


def check_car(path: Path, seed: int, alpha: float) -> dict:
    rows = _read_artifact(path, _run_meta("car", seed, SWEEP_BUDGET) | {"alphas": repr(alpha)})
    require(len(rows) == 2 and rows[0] == ["alpha", "car"] and len(rows[1]) == 2
            and rows[1][0] == repr(alpha), f"expected one row for alpha={alpha}, got {rows}")
    misses: list[str] = []
    err = _accuracy("CaR", alpha, _finite(rows[1][1]), REFERENCE[alpha][0], SWEEP_BUDGET,
                    misses)
    return {"risk.solve_car.max_rel_err": err, "misses": misses}


def _tau_grid() -> list[float]:
    start, stop, step = CURVE_GRID
    return [start + k * step for k in range(int((stop - start) / step) + 1)]


def check_curve(path: Path, seed: int) -> dict:
    grid = _tau_grid()
    meta = _run_meta("curve", seed, CURVE_BUDGET) | {
        "tau_grid": ",".join(repr(t) for t in grid)}
    rows = _read_artifact(path, meta)
    require(rows[0] == ["tau", "ep", "ep_halfwidth", "hits"], f"bad header {rows[0]}")
    rows = rows[1:]
    require([float(r[0]) for r in rows] == grid, "curve thresholds differ from the grid")
    ep = [_finite(r[1]) for r in rows]
    halfwidth = [_finite(r[2]) for r in rows]
    hits = [int(r[3]) for r in rows]
    require(all(0.0 <= p <= 1.0 for p in ep), "EP outside [0, 1]")
    require(all(a >= b for a, b in zip(ep, ep[1:])), "EP column is not nonincreasing")
    require(all(h >= 0.0 for h in halfwidth), "negative EP halfwidth")
    require(all(a >= b >= 0 for a, b in zip(hits, hits[1:])), "hit counts not nonincreasing")
    ci = [100.0 * h / p for p, h in zip(ep, halfwidth) if p > 0.0]
    require(bool(ci), "no threshold has a positive EP")
    return {"risk.exceedance_curve.ci_pct_max": max(ci)}


def check_fit(path: Path, seed: int, csv_name: str) -> dict:
    from pmrisk.presets import load_model

    portfolio, _ = load_model(path)
    require(tuple(portfolio.names) == panel.CITIES, f"fitted cities {portfolio.names}")
    meta = json.loads(path.read_text(encoding="utf-8"))["meta"]
    require(meta["seed"] == seed and meta["source_csv"] == csv_name,
            f"model meta {meta['seed']}, {meta['source_csv']} does not match the run")
    logliks = [meta["marginal_logliks"][c] for c in panel.CITIES]
    require(all(math.isfinite(v) for v in logliks), "non-finite marginal log-likelihood")
    return {"calibration.fit_gh_marginal.loglik": sum(logliks)}


# ---------------------------------------------------------------- workloads


def build_queries(workload: str, seed: int, workdir: Path) -> list[Query]:
    if workload == "car-sis-paper":
        argv = ["simulate", "--preset", "paper", "--estimator", "sis", "--alpha", ALPHA_ARG,
                "--budget", str(SIS_BUDGET), "--seed", str(seed)]
        return [Query(argv, "report.csv", lambda p: check_simulate(p, seed))]
    if workload == "car-sweep-small":
        return [
            Query(["car", "--preset", "paper", "--estimator", "sis", "--alpha", repr(alpha),
                   "--budget", str(SWEEP_BUDGET), "--seed", str(seed)],
                  f"car-{alpha!r}.csv", lambda p, a=alpha: check_car(p, seed, a))
            for alpha in ALPHAS
        ]
    if workload == "curve-sis-wide":
        start, stop, step = CURVE_GRID
        argv = ["curve", "--preset", "paper", "--estimator", "sis", "--tau-grid",
                f"{start:g}:{stop:g}:{step:g}", "--budget", str(CURVE_BUDGET),
                "--seed", str(seed)]
        return [Query(argv, "curve.csv", lambda p: check_curve(p, seed))]
    if workload == "fit-panel":
        queries = []
        for k in range(PANELS):
            csv_name = f"panel-{k}.csv"
            panel.write_csv(workdir / csv_name, PANEL_DAYS, seed * PANELS + k)
            argv = ["fit", "--csv", str(workdir / csv_name), "--seed", str(seed)]
            queries.append(Query(argv, f"model-{k}.json",
                                 lambda p, n=csv_name: check_fit(p, seed, n)))
        return queries
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- measuring


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(CPU time, reference kernel time) of fresh processes that import pmrisk
    and resolve the preset, then run the reference kernel."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import pmrisk.cli\n"
        "if sys.argv[2] == 'paper':\n"
        "    from pmrisk.presets import resolve_portfolio\n"
        "    resolve_portfolio('paper', None)\n"
        "setup = time.process_time()\n"
        "sys.path.insert(0, sys.argv[3])\n"
        "import speed\n"
        "speed.reference_kernel()\n"
        "print(setup, speed.reference_kernel())\n"
    )
    preset = "-" if workload == "fit-panel" else "paper"
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), preset, str(BENCH)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup, kernel = proc.stdout.split()[-2:]
        samples.append((float(setup), float(kernel)))
    return samples


def run_query(query: Query, workdir: Path) -> Outcome:
    from pmrisk import cli

    out = workdir / query.out_name
    out.unlink(missing_ok=True)
    err = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(query.argv + ["--out", str(out)])
    except Exception:  # an escaped exception is a failed query, not a crash
        code = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    data = out.read_bytes() if out.exists() else None
    return Outcome(code, wall, cpu, data, err.getvalue())


def check_outcome(query: Query, outcome: Outcome, workdir: Path) -> None:
    if outcome.code == 0:
        try:
            outcome.quality = query.check(workdir / query.out_name)
            outcome.misses = outcome.quality.pop("misses", [])
        except Exception as exc:  # any defect in the artifact fails the query
            outcome.problem = f"{query.out_name}: {type(exc).__name__}: {exc}"
    elif outcome.code != EXIT_NUMERIC:
        outcome.problem = f"{query.out_name}: exit {outcome.code}: {outcome.stderr.strip()}"
    elif outcome.data is not None:
        outcome.problem = f"{query.out_name}: artifact left behind by a failed run"


def forget_fitted_tables() -> None:
    """Drop GH tables cached by an earlier fit pass, so each pass pays for its own."""
    from pmrisk import ghdist

    cache = getattr(ghdist, "_tables", None)
    if not callable(getattr(cache, "cache_clear", None)):
        # without the clear, later passes would reuse the first pass's tables
        # and read faster; the benchmark must be updated to the new cache
        raise RuntimeError("pmrisk.ghdist._tables.cache_clear is gone; update "
                           "forget_fitted_tables in bench/run.py")
    cache.cache_clear()


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    outcomes: list[Outcome]

    @property
    def scaled_cpu(self) -> float:
        return sum(o.scaled_cpu for o in self.outcomes)


def run_pass(workload: str, queries: list[Query], workdir: Path, kernels: list[float],
             tracer=None) -> Pass:
    """Run each query once.  The reference kernel runs after each query and
    its time is appended to ``kernels``, which holds the time before the
    first; a query's ``scale`` uses the two kernel times around it."""
    if workload == "fit-panel":
        forget_fitted_tables()
    outcomes = []
    for query in queries:
        if tracer is not None:
            tracer.install()
        try:
            outcome = run_query(query, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        kernels.append(speed.reference_kernel())
        outcome.scale = 2.0 * speed.NOMINAL_S / (kernels[-2] + kernels[-1])
        outcomes.append(outcome)
    for query, outcome in zip(queries, outcomes):
        check_outcome(query, outcome, workdir)
    return Pass(tracer is not None, sum(o.wall for o in outcomes),
                sum(o.cpu for o in outcomes), outcomes)


def run_passes(workload: str, queries: list[Query], workdir: Path, seconds: float,
               tracer) -> list[Pass]:
    """Identical passes until ``seconds`` have elapsed.

    Untraced, at least ``MIN_PASSES`` run.  With a tracer, untraced passes
    take the first half of the time (at least one) and traced passes (at
    least one) the rest.
    """
    start = time.perf_counter()
    passes: list[Pass] = []
    kernels = [speed.reference_kernel()]
    untraced_for, untraced_min = (seconds / 2, 1) if tracer else (seconds, MIN_PASSES)
    while len(passes) < untraced_min or time.perf_counter() - start < untraced_for:
        passes.append(run_pass(workload, queries, workdir, kernels))
    if tracer is not None:
        passes.append(run_pass(workload, queries, workdir, kernels, tracer))
        while time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, queries, workdir, kernels, tracer))
    return passes


def query_tail(passes: list[Pass]) -> float:
    """Median over passes of each pass's slowest query.

    Every pass runs the same queries, so this reads the same query at any
    number of passes; a percentile over all queries would move from the
    maximum to an ordinary query as more passes fit into the run.
    """
    return statistics.median(max(o.scaled_cpu for o in p.outcomes) for p in passes)


def layer_metrics(summary: dict, cold: dict, traced_passes: int, quality: dict) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json.

    Span quantities are per-pass totals (the preset resolve is the cold
    one); the other metrics are taken from ``quality``.  A metric reads 0 on
    a workload that does not reach it.
    """
    metrics = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        function, quantity = name.rsplit(".", 1)
        if function == "presets.resolve_portfolio":
            entry, per = cold.get(function, {}), 1
        else:
            entry, per = summary.get(function, {}), traced_passes
        if quantity == "rows_per_s":
            value = entry["n"] / entry["s"] if entry.get("s") else 0.0
        elif quantity in SPAN_KEY:
            value = entry.get(SPAN_KEY[quantity], 0) / per
        else:
            value = quality.get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def quality_figures(passes: list[Pass], failed: int, attempted: int) -> dict:
    """Accuracy and variance figures from the first pass's artifacts."""
    quality: dict[str, float] = {}
    for outcome in passes[0].outcomes:
        for key, value in outcome.quality.items():
            pick = min if key.endswith("vr_min") else max
            quality[key] = pick(quality[key], value) if key in quality else value
    untraced = [p for p in passes if not p.traced]
    cpu = statistics.median(p.scaled_cpu for p in untraced)
    for layer in ("risk.build_report", "risk.exceedance_curve"):
        if f"{layer}.ci_pct_max" in quality:
            # Glynn-Whitt work-normalised variance: relative variance x time
            quality[f"{layer}.rel_var_x_s"] = (quality[f"{layer}.ci_pct_max"] / 196.0) ** 2 * cpu
    quality["cli.main.fail_share"] = failed / attempted
    quality["cli.main.wall_s"] = statistics.median(p.wall for p in untraced)
    quality["cli.main.tail_samples"] = len(untraced)
    traced = [p.scaled_cpu for p in passes if p.traced]
    if traced:
        quality["cli.main.trace_overhead_s"] = statistics.median(traced) - cpu
    return quality


def environment() -> str:
    import numpy
    import scipy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "pmrisk").glob("*.py")))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, src lines {lines}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["car-sis-paper", "car-sweep-small", "curve-sis-wide",
                                 "fit-panel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmrisk" / "cli.py").is_file():
        print(f"error: no pmrisk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = None if args.trace else measure_setup(args.workload)
    speed.reference_kernel()  # untimed: the first run pays one-off allocation costs

    from pmrisk import presets

    tracer = Tracer() if args.trace else None
    cold: dict = {}
    if args.workload != "fit-panel":
        # load-time table build, paid in set-up; traced cold for the layer metric
        if tracer is not None:
            tracer.install()
        presets.resolve_portfolio("paper", None)
        if tracer is not None:
            tracer.uninstall()
            cold = summarize(tracer.spans)
            tracer.spans.clear()

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        queries = build_queries(args.workload, args.seed, workdir)
        passes = run_passes(args.workload, queries, workdir, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in passes:
        for query, first, outcome in zip(queries, passes[0].outcomes, p.outcomes):
            if not outcome.problem and (outcome.code, outcome.data) != (first.code, first.data):
                label = "traced" if p.traced else "rerun"
                outcome.problem = f"{query.out_name}: {label} output differs from the first pass"
    outcomes = [o for p in passes for o in p.outcomes]
    problems = [o.problem for o in outcomes if o.problem]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.code != 0 or o.problem or o.misses)
    quality = quality_figures(passes, failed, attempted)

    untraced = [p for p in passes if not p.traced]
    latencies = [o.scaled_cpu for p in untraced for o in p.outcomes]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} queries, {failed} failed; {environment()}")
    print("raw pass wall/cpu s: " + ", ".join(
        f"{'traced ' if p.traced else ''}{p.wall:.3f}/{p.cpu:.3f}" for p in passes))
    print("speed scale per query: " + ", ".join(f"{o.scale:.4f}" for o in outcomes))
    if setup:
        print("raw set-up cpu/kernel s: " + ", ".join(f"{s:.3f}/{k:.4f}" for s, k in setup))
    print(f"query latency: {len(latencies)} samples; tail: slowest query of each "
          f"of {len(untraced)} passes")
    for problem in problems:
        print(f"check failed: {problem}")
    for miss in sorted({m for o in outcomes for m in o.misses}):
        print(f"accuracy band missed: {miss}")

    if tracer is not None:
        metrics = layer_metrics(summarize(tracer.spans), cold, len(passes) - len(untraced),
                                quality)
        spans_path = OUT / f"{args.workload}-{args.seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        units = {spec["name"]: spec["unit"] for spec in SPEC["per_layer"]}
        for name, value in quality.items():
            print(f"{name} = {value:.6g} {units[name]}")
        values = {
            "setup_s": statistics.median(s * speed.NOMINAL_S / k for s, k in setup),
            "pass_cpu_s": statistics.median(p.scaled_cpu for p in untraced),
            "query_p50_cpu_s": statistics.median(latencies),
            "query_tail_cpu_s": query_tail(untraced),
            "ok_share": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                   for spec in SPEC["end_to_end"]}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
