"""chrdc benchmark: time to a verdict on three seeded workloads.

    python3 perfbench/run.py --workload {corpus,exhaust,orders} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: it imports chrdc from `src/` and
writes its inputs under `.bench_run/`, which it removes again.

Load model: a closed loop with one client. Jobs run one after another in
this process, each one `chrdc.cli.main(argv)` call with stdout captured,
as a user at a terminal or a CI step would run `chrdc`. A pass runs every
job of the workload once; the loop runs whole passes until `--seconds`
have gone by. Every report is compared with an answer derived without
chrdc (see workloads.py) and with the job's first report, and after the
loop every certificate is replayed through chrdc's library API.

`--trace 0` prints the end-to-end metrics. Their times are scaled for the
host's speed by a fixed block of pure-Python work timed between passes
(reference.py); the unscaled figures are printed too. `--trace 1`
alternates untraced and traced passes and prints the per-layer metrics
of the traced ones
(tracer.py), their overhead over the untraced ones, and writes the spans
to `.bench_run/spans-<workload>.tsv`. The metric names and units are those
of BENCHMARK.json. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import workloads
from tracer import TARGETS, Tracer, layer_name

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
# Set-up is repeated and its median reported, so one slow import or file
# write does not decide the figure.
SETUP_REPEATS = 15
MIN_SAMPLES = 100


@dataclass
class Sample:
    seconds: float
    exit_code: object
    stdout: str
    error: str


def run_job(cli, job: workloads.Job, work: Path) -> Sample:
    """One timed `chrdc` invocation, in-process, with its output captured."""
    argv = job.argv(str(work))
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            error = traceback.format_exc()
        seconds = perf_counter() - start
    return Sample(seconds, code, out.getvalue(), error or err.getvalue())


def set_up(make_workload, seed: int, work: Path):
    """Import chrdc afresh, write the seeded inputs and run the warm-up job.

    Returns (seconds taken, the chrdc.cli module, the workload)."""
    for name in [n for n in sys.modules if n == "chrdc" or n.startswith("chrdc.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("chrdc.cli")
    workload = make_workload(seed)
    work.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (work / name).write_text(text, encoding="utf-8")
    warm = run_job(cli, workload.warmup, work)
    seconds = perf_counter() - start
    trouble = workloads.problems(workload.warmup.expect, warm.exit_code, warm.stdout)
    if trouble or warm.error:
        raise RuntimeError(f"warm-up job failed: {trouble} {warm.error}")
    return seconds, cli, workload


class Runner:
    """Runs passes over a workload's jobs and checks every answer."""

    def __init__(self, cli, workload: workloads.Workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.first_report: dict[str, str] = {}
        self.times: dict[str, list[float]] = {j.id: [] for j in workload.jobs}
        self.samples: Counter = Counter()
        self.failed_samples: Counter = Counter()
        self.failed_jobs: dict[str, list[str]] = {}

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run every job once; returns the summed job time. Untraced job
        times are kept per job."""
        total = 0.0
        for job in self.workload.jobs:
            if tracer is not None:
                tracer.job = self.attempted
            sample = run_job(self.cli, job, self.work)
            total += sample.seconds
            if tracer is None:
                self.times[job.id].append(sample.seconds)
            self._record(job, sample)
        return total

    def _record(self, job: workloads.Job, sample: Sample) -> None:
        self.samples[job.id] += 1
        trouble = workloads.problems(job.expect, sample.exit_code, sample.stdout)
        if sample.exit_code == 2 or sample.exit_code is None:
            trouble.append(sample.error.strip() or "error exit")
        first = self.first_report.setdefault(job.id, sample.stdout)
        if sample.stdout != first:
            trouble.append("report differs from the job's first report")
        if trouble:
            self.failed_samples[job.id] += 1
            self.failed_jobs.setdefault(job.id, trouble)

    def certify(self) -> None:
        """Check each job's certificates through the library API; a job
        that fails counts every one of its samples as failed."""
        for job in self.workload.jobs:
            try:
                trouble = certificate_problems(job, self.work, self.first_report[job.id])
            except Exception:
                trouble = [traceback.format_exc()]
            if trouble:
                self.failed_samples[job.id] = self.samples[job.id]
                self.failed_jobs.setdefault(job.id, []).extend(trouble)

    @property
    def attempted(self) -> int:
        return sum(self.samples.values())

    @property
    def failed(self) -> int:
        return sum(self.failed_samples.values())


def certificate_problems(job: workloads.Job, work: Path, cli_report: str) -> list[str]:
    """Re-run the job through `chrdc.analysis`, require the same machine
    report, and replay both sides of every closed valley to equivalent
    states. For `peaks`, each peak's two reducts must be one step from
    its ancestor by the peak's two rules."""
    from chrdc import analysis, config, engine, orders, peaks, reports, state, syntax

    programs = [syntax.parse_program_file(str(work / f)) for f in job.files]
    cfg = config.load_config_file(str(work / job.config)) if job.config else config.AnalysisConfig()
    default = analysis.SearchBudget()
    budget = analysis.SearchBudget(
        max_depth=default.max_depth if cfg.max_depth is None else cfg.max_depth,
        max_states=default.max_states if cfg.max_states is None else cfg.max_states,
    )
    program = programs[0]
    trouble = []

    if job.command == "peaks":
        found = peaks.critical_peaks(program, program)
        listed = [pos[1:3] for kind, pos, _ in workloads.parse_records(cli_report)]
        if listed != [[pk.rule_left, pk.rule_right] for pk in found]:
            trouble.append("API peaks differ from the listed peaks")
        for i, pk in enumerate(found):
            steps = engine.applicable_steps(program, pk.ancestor)
            for rule, reduct in ((pk.rule_left, pk.left), (pk.rule_right, pk.right)):
                if not any(
                    s.rule_name == rule and state.equivalent(s.target, reduct) for s in steps
                ):
                    trouble.append(f"peak {i}: no {rule} step from the ancestor")
        return trouble

    sides = (program, program)
    if job.mode == "modular":
        report = analysis.check_modularity(programs[0], programs[1], budget)
        sides = (programs[1], programs[0])
    elif job.mode == "local":
        report = analysis.check_local_confluence(program, budget, cfg.assume_terminating)
    elif job.mode == "strong":
        report = analysis.check_strong_confluence(program, budget)
    else:
        part = orders.Partition.for_program(program, cfg.inductive, cfg.coinductive)
        order = None
        if cfg.order_decls:
            order = orders.RulePreorder.from_declarations(program.rule_names(), cfg.order_decls)
        tactics = None
        if cfg.tactics:
            tactics = config.resolve_tactics(
                cfg, peaks.critical_peaks(program, program), set(program.rule_names())
            )
        report = analysis.check_rule_decreasing(
            program, part, order, budget, tactics=tactics,
            enumerate_orders=cfg.enumerate_orders,
            assume_terminating=cfg.assume_terminating,
        )
    if reports.emit_report(report, "machine") != cli_report:
        trouble.append("API report differs from the command's report")
    for v in report.verdicts:
        if not v.closed:
            continue
        peak = report.peaks[v.index]
        valley = v.valley
        if valley is None:
            trouble.append(f"peak {v.index}: closed without a valley")
            continue
        if not (
            state.equivalent(valley.left.source, peak.left)
            and state.equivalent(valley.right.source, peak.right)
        ):
            trouble.append(f"peak {v.index}: valley does not start at the peak")
        try:
            left = engine.replay(sides[0], valley.left)
            right = engine.replay(sides[1], valley.right)
        except engine.ReplayError as exc:
            trouble.append(f"peak {v.index}: replay failed: {exc}")
            continue
        if not state.equivalent(left, right):
            trouble.append(f"peak {v.index}: valley sides do not meet")
    return trouble


# ---------------------------------------------------------------------------

def host_scale(reference_seconds: float) -> float:
    """Factor that turns a time measured now, when the reference block
    took `reference_seconds`, into one on a host where it takes
    REFERENCE_MS."""
    return reference.REFERENCE_MS / 1e3 / reference_seconds


def measure(runner: Runner, seconds: float) -> tuple[float, list[float]]:
    """Whole passes until `seconds` have elapsed, with the reference block
    timed before the first pass and after each one. Returns the time spent
    in passes and each pass's host scale, from the median of the reference
    times two before and two after it."""
    gc.collect()
    references = [reference.time_block()]
    in_passes = 0.0
    start = perf_counter()
    while True:
        in_passes += runner.run_pass()
        references.append(reference.time_block())
        if perf_counter() - start >= seconds:
            break
    # Pass i ran between references[i] and references[i + 1].
    scales = [
        host_scale(statistics.median(references[max(0, i - 1): i + 3]))
        for i in range(len(references) - 1)
    ]
    return in_passes, scales


def measure_traced(runner: Runner, seconds: float, tracer: Tracer) -> tuple[float, float, int]:
    """Alternate untraced and traced passes until `seconds` have elapsed;
    (untraced time, traced time, traced passes)."""
    gc.collect()
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    while True:
        untraced += runner.run_pass()
        tracer.install()
        try:
            traced += runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        passes += 1
        if perf_counter() - start >= seconds:
            return untraced, traced, passes


def layer_metrics(tracer: Tracer, untraced: float, traced: float, passes: int) -> dict:
    """Per-layer figures per traced pass; times in ms."""
    out = {}
    for module, attr, _ in TARGETS:
        name = layer_name(module, attr)
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.total_ms"] = tracer.total[name] * 1e3 / passes
        out[f"{name}.self_ms"] = tracer.self_time[name] * 1e3 / passes
    for counter in ("peaks.emitted", "engine.steps_generated", "orders.enumerated"):
        out[counter] = tracer.counts[counter] / passes

    def share(part: str, whole: str) -> float:
        return tracer.counts[part] / tracer.calls[whole] if tracer.calls[whole] else 0.0

    out["state.equivalent.true_frac"] = share("state.equivalent.true", "state.equivalent")
    out["analysis.closed_frac"] = share("analysis.closed", "analysis.join_search")
    out["trace.pass_ms"] = traced * 1e3 / passes
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    out["trace.accounted_frac"] = sum(tracer.self_time.values()) / traced
    return out


def print_layers(tracer: Tracer, traced: float, passes: int) -> None:
    print(f"{'layer':36} {'calls/pass':>11} {'total ms':>10} {'self ms':>10} {'self %':>7}")
    for name in sorted(tracer.self_time, key=tracer.self_time.get, reverse=True):
        print(
            f"{name:36} {tracer.calls[name] / passes:11.1f}"
            f" {tracer.total[name] * 1e3 / passes:10.2f}"
            f" {tracer.self_time[name] * 1e3 / passes:10.2f}"
            f" {100 * tracer.self_time[name] / traced:6.1f}%"
        )


def run(args, spec: dict, work: Path) -> int:
    setups = []
    setup_references = []
    for _ in range(SETUP_REPEATS):
        seconds, cli, workload = set_up(workloads.WORKLOADS[args.workload], args.seed, work)
        setups.append(seconds)
        setup_references.append(reference.time_block())
    runner = Runner(cli, workload, work)
    print(f"workload {args.workload} seed {args.seed}: {len(workload.jobs)} jobs per pass")

    if args.trace:
        tracer = Tracer()
        untraced, traced, passes = measure_traced(runner, args.seconds, tracer)
        values = layer_metrics(tracer, untraced, traced, passes)
        print_layers(tracer, traced, passes)
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"spans-{args.workload}.tsv"
        count = tracer.write_spans(spans_path)
        print(f"{count} spans from {passes} traced passes in {spans_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        in_passes, scales = measure(runner, args.seconds)
        raw = [t * 1e3 for times in runner.times.values() for t in times]
        ms = [
            t * scale * 1e3
            for times in runner.times.values()
            for t, scale in zip(times, scales)
        ]
        values = {
            "setup_s": statistics.median(setups) * host_scale(statistics.median(setup_references)),
            "verdict_ms_p50": statistics.median(ms),
            "verdict_ms_p90": statistics.quantiles(ms, n=10)[8],
            "jobs_per_s": len(ms) * 1e3 / sum(ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"unscaled: p50 {statistics.median(raw):.3f} ms,"
              f" p90 {statistics.quantiles(raw, n=10)[8]:.3f} ms,"
              f" {len(raw) / in_passes:.3f} jobs/s;"
              f" host scale median {statistics.median(scales):.4f},"
              f" range {min(scales):.4f} to {max(scales):.4f}")
        if len(ms) < MIN_SAMPLES:
            print(f"warning: {len(ms)} job samples, fewer than {MIN_SAMPLES}")
        wanted = spec["end_to_end"]

    runner.certify()
    for job in workload.jobs:
        ms = sorted(t * 1e3 for t in runner.times[job.id])
        quartiles = statistics.quantiles(ms, n=4) if len(ms) > 1 else [ms[0]] * 3
        digest = hashlib.sha256(runner.first_report[job.id].encode()).hexdigest()
        print(f"job {job.id} samples={len(ms)} p50_ms={quartiles[1]:.3f}"
              f" spread={(quartiles[2] - quartiles[0]) / quartiles[1]:.3f} sha256={digest}")
    for job_id, trouble in runner.failed_jobs.items():
        print(f"FAILED {job_id}: {'; '.join(trouble)}", file=sys.stderr)

    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:40} {value:14.6f} {metric['unit']}")
    print(f"samples {runner.attempted}, setup repeats {SETUP_REPEATS}")
    print(f"failed_frac {runner.failed / runner.attempted:.6f} ratio"
          f" ({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chrdc" / "cli.py").is_file():
        print("error: src/chrdc not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
