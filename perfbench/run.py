"""memassoc benchmark: end-to-end and per-layer metrics of the `memassoc` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command runs as the `memassoc` CLI
in a fresh Python process, one at a time: a closed loop with one client.

Workloads (inputs generated from --seed, see workloads.py):
  chain_long    3-stage `pavlov` chain on a seeded custom schedule
  fit_sine      `fit` of the shipped sine trace from seeded +/-30% starts
  vision_batch  `vision-classify` on a seeded 20x20 image dataset

Every run's output hashes, and every traced run's work counts, must match
golden.json at the default seed, or the job's first run at any other seed;
every run also passes the workload's domain checks.  The shipped
configs that use the same command run once against their golden hashes.
Then, for at least --seconds, in whole passes over the jobs:
  --trace 0  one traced run per job (for its counts and device steps), then
             untraced runs; prints the end-to-end metrics
             (run_s, setup_s, device_steps_per_s, peak_rss_mb);
  --trace 1  a traced and an untraced run of each job in turn; prints the
             per-layer metrics and the tracing overhead.  chain_long adds
             one traced run at twice the simulated length (the scaling
             point).
Metric values are medians over the runs.  The last line of standard output
is a JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from workloads import Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work" / str(os.getpid())
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
WORKLOADS = ("chain_long", "fit_sine", "vision_batch")

PINNED_COUNTS = ("circuit.rows", "fit.iterations", "fit.objective_evals",
                 "vision.train_pairs", "device.steps", "cli.output_bytes")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# --- per-layer metrics of one traced run ------------------------------------

def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer times, counts and rates from one traced run's spans.

    A span's exclusive time is its duration minus the durations of its
    direct child spans.  A layer's self time sums the exclusive time of the
    spans the CLI opens into that layer; for `cli` it is the `cmd_*` span
    alone, whose exclusive time is the manifest, output hashing and small
    writes.  Device work is counted from the integrating spans.
    """
    spans = record["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    build_s = 0.0
    gradient_evals = 0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else ""
        total[name] += end - start
        calls[name] += 1
        for key, value in (counts or {}).items():
            work[f"{name}.{key}"] += value
        if name == "cli.cmd" or (parent_name == "cli.cmd"
                                 and not name.startswith("cli.")):
            self_s[name.split(".")[0]] += end - start - child_s[i]
        if name == "cli.build" and parent_name != "cli.build":
            build_s += end - start
        if name == "fit.simulate" and parent_name == "fit.gradient":
            gradient_evals += 1

    rows = work["circuit.run_chain.rows"]
    stage_steps = work["circuit.run_chain.stage_steps"]
    evals = calls["fit.simulate"]
    iterations = work["fit.fit.iterations"]
    linesearch = evals - gradient_evals - calls["fit.fit"]
    cell_steps = work["vision.train_pair.cell_steps"]
    label_steps = work["vision.classify.label_steps"]
    device_steps = (stage_steps + work["fit.simulate.steps"]
                    + cell_steps + label_steps)
    integrating_s = (total["circuit.run_chain"] + total["fit.simulate"]
                     + total["vision.train_pair"] + total["vision.classify"])
    return {
        "circuit.run_chain_s": total["circuit.run_chain"],
        "circuit.ns_per_stage_step": _ratio(total["circuit.run_chain"], stage_steps, 1e9),
        "circuit.rows": rows,
        "circuit.stage_steps": stage_steps,
        "circuit.write_trace_s": total["circuit.write_trace"],
        "circuit.us_per_row_written": _ratio(total["circuit.write_trace"], rows, 1e6),
        "circuit.trace_bytes": work["circuit.write_trace.bytes"],
        "circuit.metrics_s": total["circuit.metrics"],
        "circuit.self_s": self_s["circuit"],
        "fit.fit_s": total["fit.fit"],
        "fit.objective_evals": evals,
        "fit.eval_ms": _ratio(total["fit.simulate"] + total["fit.rmse"], evals, 1e3),
        "fit.gradient_s": total["fit.gradient"],
        "fit.gradient_calls": calls["fit.gradient"],
        "fit.rmse_s": total["fit.rmse"],
        "fit.self_s": self_s["fit"],
        "fit.iterations": iterations,
        "fit.linesearch_evals": linesearch,
        "fit.accept_ratio": _ratio(iterations, linesearch),
        "fit.read_trace_s": total["fit.read_trace"],
        "vision.train_s": total["vision.train"],
        "vision.train_pairs": calls["vision.train_pair"],
        "vision.grid_steps": work["vision.train_pair.grid_steps"],
        "vision.ns_per_cell_step": _ratio(total["vision.train_pair"], cell_steps, 1e9),
        "vision.classify_s": total["vision.classify"],
        "vision.classify_calls": calls["vision.classify"],
        "vision.label_steps": label_steps,
        "vision.us_per_label_step": _ratio(total["vision.classify"], label_steps, 1e6),
        "vision.load_s": total["vision.load"],
        "vision.images": calls["vision.load"],
        "vision.write_state_s": total["vision.write_state"],
        "vision.self_s": self_s["vision"],
        "device.steps": device_steps,
        "device.ns_per_step": _ratio(integrating_s, device_steps, 1e9),
        "cli.parse_s": total["cli.parse"],
        "cli.build_s": build_s,
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": record["output_bytes"],
        "trace.run_s": record["run_s"],
    }


# --- running and checking jobs ----------------------------------------------

class Runner:
    """Runs jobs in fresh processes, checks their outputs, counts failures."""

    def __init__(self, hash_pins: dict, count_pins: dict):
        self.hash_pins = hash_pins      # job name -> {file: sha256}
        self.count_pins = count_pins    # job name -> {count: value}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job: Job, trace: bool) -> dict | None:
        """One CLI command; returns its record, or None when it failed."""
        out = WORK / job.out
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        argv = [sys.executable, str(HERE / "child.py"), str(SRC),
                "1" if trace else "0", *job.argv]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=WORK, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(job, f"no result within {CHILD_TIMEOUT_S} s")
        try:
            record = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self._fail(job, f"no result (exit {proc.returncode}): "
                              f"{proc.stderr.strip()[-300:]}")
        if record["exit"] != 0:
            return self._fail(job, f"exit {record['exit']}: {proc.stderr.strip()[-300:]}")
        record["setup_s"] = record["imported_at"] - started
        try:
            record["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            problems = job.check(out)
            hashes = {name: _sha256(out / name) for name in job.pinned}
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return self._fail(job, f"unreadable output: {exc!r}")
        pinned = self.hash_pins.setdefault(job.name, hashes)
        problems += [f"{name} differs from its pinned SHA-256"
                     for name in job.pinned if hashes[name] != pinned.get(name)]
        if trace:
            counts = layer_metrics(record)
            pinned_counts = self.count_pins.setdefault(
                job.name, {k: counts[k] for k in PINNED_COUNTS})
            problems += [f"count changed: {k} pinned {pinned_counts[k]:g}, "
                         f"measured {counts[k]:g}"
                         for k in PINNED_COUNTS if counts[k] != pinned_counts[k]]
            record["layers"] = counts
        if problems:
            return self._fail(job, "; ".join(problems))
        return record

    def _fail(self, job: Job, message: str) -> None:
        self.failures.append(f"{job.name}: {message}")
        return None


def prepare(workload: str, seed: int, runner: Runner) -> list[Job]:
    """Generate the workload's inputs under WORK and return its jobs."""
    if workload == "chain_long":
        return workloads.chain_jobs(seed, WORK)
    if workload == "fit_sine":
        return workloads.fit_jobs(seed, WORK, ROOT)
    classes = workloads.vision_images(seed, WORK)
    (WORK / "in" / "calibrate.conf").write_text(
        workloads.VISION_CONFIG.format(threshold=0.5))
    record = runner.run(workloads.vision_calibration_job(), trace=False)
    if record is None:
        return []
    sys.path.insert(0, str(SRC))
    from memassoc.vision import midpoint_threshold

    scores: dict[str, list[float]] = {"cat": [], "non-cat": []}
    report = (WORK / "out" / "calibration" / "report.csv").read_text()
    for row in report.splitlines()[1:]:
        name, score = row.split(",")[:2]
        scores[classes["calibration"][name]].append(float(score))
    threshold = midpoint_threshold(scores["cat"], scores["non-cat"])
    (WORK / "in" / "vision.conf").write_text(
        workloads.VISION_CONFIG.format(threshold=threshold))
    return [workloads.vision_job(classes["test"])]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            golden: dict) -> tuple[Runner, dict[str, tuple[float, str]]]:
    pins = golden["workloads"][workload] if seed == golden["seed"] else {}
    runner = Runner({job: pin["sha256"] for job, pin in pins.items()},
                    {job: pin["counts"] for job, pin in pins.items()})
    runner.hash_pins.update(golden["shipped"])
    jobs = prepare(workload, seed, runner)
    for job in workloads.shipped_jobs(workload, ROOT):
        runner.run(job, trace=False)
    # The first traced run of each job checks its counts against the pins.
    # Untraced runs need the job's device steps, so they come after it.
    first = {}
    if not trace:
        first = {job.name: runner.run(job, trace=True) for job in jobs}
        jobs = [job for job in jobs if first[job.name] is not None]
    traced = [rec for rec in first.values() if rec is not None]
    untraced: list[dict] = []
    overhead: list[float] = []      # traced minus untraced run_s, same job
    deadline = time.monotonic() + seconds
    while jobs:
        for job in jobs:
            traced_rec = runner.run(job, trace=True) if trace else None
            rec = runner.run(job, trace=False)
            if traced_rec is not None:
                traced.append(traced_rec)
                if rec is not None:
                    overhead.append(traced_rec["run_s"] - rec["run_s"])
            if rec is not None:
                if not trace:
                    rec["device_steps"] = first[job.name]["layers"]["device.steps"]
                untraced.append(rec)
        if time.monotonic() >= deadline:
            break

    if not trace:
        return runner, {
            "run_s": (_median([r["run_s"] for r in untraced]), "s"),
            "setup_s": (_median([r["setup_s"] for r in untraced]), "s"),
            "device_steps_per_s": (_median(
                [r["device_steps"] / r["run_s"] for r in untraced]), "1/s"),
            "peak_rss_mb": (_median([r["rss_kb"] / 1024 for r in untraced]), "MB"),
        }
    layers = {name: _median([rec["layers"][name] for rec in traced])
              for name in traced[0]["layers"]} if traced else {}
    layers["trace.overhead_s"] = _median(overhead)
    if workload == "chain_long" and traced:
        long_job = workloads.chain_jobs(seed, WORK, 2 * workloads.CHAIN_SECONDS,
                                        name="chain_2x")[0]
        long = runner.run(long_job, trace=True)
        if long is not None:
            layers.update(scaling_point(layers, traced, long))
    return runner, {name: (layers.get(name, 0.0), unit)
                    for name, unit in LAYER_UNITS.items()}


def scaling_point(layers: dict[str, float], traced: list[dict],
                  long: dict) -> dict[str, float]:
    """Per-step, per-row and per-row-memory costs at 1x and 2x length."""
    rss_kb = _median([rec["rss_kb"] for rec in traced])
    return {
        "scale.ns_per_stage_step_1x": layers["circuit.ns_per_stage_step"],
        "scale.ns_per_stage_step_2x": long["layers"]["circuit.ns_per_stage_step"],
        "scale.us_per_row_written_1x": layers["circuit.us_per_row_written"],
        "scale.us_per_row_written_2x": long["layers"]["circuit.us_per_row_written"],
        "scale.rss_b_per_row_1x": _ratio(rss_kb * 1024, layers["circuit.rows"]),
        "scale.rss_b_per_row_2x": _ratio(long["rss_kb"] * 1024,
                                         long["layers"]["circuit.rows"]),
    }


LAYER_UNITS = {
    "circuit.run_chain_s": "s", "circuit.ns_per_stage_step": "ns",
    "circuit.rows": "count", "circuit.stage_steps": "count",
    "circuit.write_trace_s": "s", "circuit.us_per_row_written": "us",
    "circuit.trace_bytes": "B", "circuit.metrics_s": "s", "circuit.self_s": "s",
    "fit.fit_s": "s", "fit.objective_evals": "count", "fit.eval_ms": "ms",
    "fit.gradient_s": "s", "fit.gradient_calls": "count", "fit.rmse_s": "s",
    "fit.self_s": "s", "fit.iterations": "count", "fit.linesearch_evals": "count",
    "fit.accept_ratio": "ratio", "fit.read_trace_s": "s",
    "vision.train_s": "s", "vision.train_pairs": "count",
    "vision.grid_steps": "count", "vision.ns_per_cell_step": "ns",
    "vision.classify_s": "s", "vision.classify_calls": "count",
    "vision.label_steps": "count", "vision.us_per_label_step": "us",
    "vision.load_s": "s", "vision.images": "count", "vision.write_state_s": "s",
    "vision.self_s": "s",
    "device.steps": "count", "device.ns_per_step": "ns",
    "cli.parse_s": "s", "cli.build_s": "s", "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.run_s": "s", "trace.overhead_s": "s",
    "scale.ns_per_stage_step_1x": "ns", "scale.ns_per_stage_step_2x": "ns",
    "scale.us_per_row_written_1x": "us", "scale.us_per_row_written_2x": "us",
    "scale.rss_b_per_row_1x": "B", "scale.rss_b_per_row_2x": "B",
}


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass        # another run's work directory is still there


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    needed = [SRC / "memassoc" / "cli.py", ROOT / "configs",
              ROOT / "data" / "iv" / "sine_10hz_0v5.csv", GOLDEN]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark needs a memassoc checkout; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        runner, metrics = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), golden)
    finally:
        remove_work()
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    failed = len(runner.failures)
    print(f"error_rate {failed / max(runner.attempted, 1):.6g} share of "
          f"{runner.attempted} commands")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
