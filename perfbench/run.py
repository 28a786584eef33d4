"""The finconv benchmark: one workload, one seed, measured end to end or traced.

Run it from the repository root:

    python3 perfbench/run.py --workload exp-paths --seed 1 --seconds 30 --trace 0

It generates the workload's fixture files from the seed, then runs every
measurement in fresh worker processes that import finconv from ./src, with
one BLAS thread and the library's default threads=1. With --trace 0 it
reports the end-to-end metrics (see BENCHMARK.json and perfbench/NOTES.md);
with --trace 1 it runs an untraced and a traced worker for half the seconds
each and reports the per-layer metrics. Every task's output is checked
against the benchmark's own oracle. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit status: 0 with a result; 2 if ./src/finconv is missing or a worker
fails; 3 if a fixture's own oracle is broken, which is a defect of the
benchmark, not a task failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # worker set-ups per run, the timed worker's included; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "1"),
)


class WorkerError(RuntimeError):
    pass


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": THREAD_PINS,
        "cpu": platform.processor(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            facts["caches"][f"L{level} {kind}"] = size
    except (OSError, StopIteration):
        pass  # not Linux: keep what platform reports
    return facts


def spawn(work: Path, workload: str, mode: str, seconds: float, tag: str, deadline: float) -> dict:
    """Run one worker to completion; its set-up time starts just before the spawn."""
    spec = {
        "mode": mode,
        "workload": workload,
        "fixtures": str(work),
        "seconds": seconds,
        "result": str(work / f"result-{tag}.json"),
        "spans": f"spans-{tag}.jsonl",
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **THREAD_PINS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the worker started")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    result["setup_s"] = result["ready"] - start
    return result


def pass_walls(result: dict) -> list[float]:
    return [sum(p) for p in result["passes"]]


def summarize_checks(checks: list[dict]) -> tuple[int, int, int, list[str]]:
    wrong = [c for c in checks if c["status"] == "wrong"]
    missed = [c for c in checks if c["status"] == "miss"]
    notes = sorted({f"{c['status']}: {c['detail']}" for c in wrong + missed})
    return len(checks), len(wrong), len(missed), notes


def end_to_end(work: Path, workload: str, seconds: float, deadline: float):
    setups = [spawn(work, workload, "setup", 0, f"setup{i}", deadline)["setup_s"] for i in range(SETUP_SAMPLES - 1)]
    main = spawn(work, workload, "run", seconds, "run", deadline)
    setups.append(main["setup_s"])
    passes = main["passes"]
    per_task = [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]
    attempted, wrong, missed, notes = summarize_checks(main["checks"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls(main)),
        "task_p50_s": statistics.median(per_task),
        "peak_rss_mb": main["rss_mb"],
        "pass_ratio": (attempted - wrong - missed) / attempted,
    }
    units = dict(END_TO_END)
    info = [f"tasks {len(per_task)}, set-ups {len(setups)}, passes {len(passes)} taking "
            + ", ".join(f"{w:.3f}" for w in pass_walls(main)) + " s"]
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, wrong, info + notes


def traced(work: Path, workload: str, seconds: float, deadline: float):
    import tracer

    plain = spawn(work, workload, "run", seconds / 2, "plain", deadline)
    run = spawn(work, workload, "trace", seconds / 2, "trace", deadline)
    spans = tracer.read_spans(work / "spans-trace.jsonl")
    traced_wall = statistics.median(pass_walls(run))
    values = tracer.layer_metrics(
        spans,
        passes=len(run["passes"]),
        timed_wall_s=sum(pass_walls(run)),
        overhead_ratio=traced_wall / statistics.median(pass_walls(plain)),
    )
    units = {name: unit for name, unit, _ in tracer.metric_names()}
    attempted, wrong, missed, notes = summarize_checks(plain["checks"] + run["checks"])
    info = [f"traced wall_s {traced_wall:.4f} s over {len(run['passes'])} passes; busy time per pass by kind and m:"]
    by_kind = defaultdict(float)
    for name, phase, start, end, parent, kind, m, facts in spans:
        if phase == "timed":
            by_kind[(name, kind, m)] += end - start
    for (name, kind, m), busy in sorted(by_kind.items(), key=lambda kv: -kv[1])[:12]:
        info.append(f"  {name:40s} {kind or '-':11s} m={m:<4d} busy {busy / len(run['passes']):.4f} s")
    return {k: (v, units[k]) for k, v in values.items()}, attempted, wrong, info + notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="exp-paths or certify")
    parser.add_argument("--seed", type=int, required=True, help="seed the fixtures are drawn from")
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed phase runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "finconv" / "__init__.py").is_file():
        print(f"error: no finconv sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import oracles
    import workloads

    try:
        wl = workloads.load(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        try:
            plan, expected = wl.build(args.seed, work)
        except oracles.OracleError as exc:
            print(f"error: the {args.workload} fixture's own oracle is broken: {exc}", file=sys.stderr)
            return 3
        (work / "plan.json").write_text(json.dumps(plan))
        (work / "expected.json").write_text(json.dumps(expected))
        measure = traced if args.trace else end_to_end
        try:
            metrics, attempted, failed, info = measure(work, args.workload, args.seconds, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: " + info[0])
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    for line in info[1:]:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
