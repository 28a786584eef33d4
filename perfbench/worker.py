"""One benchmark worker process: set up a workload, run its timed passes, check them.

Usage: python3 worker.py SPEC.json, where the spec names the mode
("setup", "run" or "trace"), the workload, the fixture directory, the
seconds to measure and the result file. The worker writes its result as
JSON to that file and prints nothing on success.

The set-up clock is CLOCK_MONOTONIC, which the parent also reads just
before it starts this process, so set-up time includes interpreter start.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["fixtures"])
    tracer = None
    if spec["mode"] == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    wl = workloads.load(spec["workload"])
    plan = json.loads((out / "plan.json").read_text())
    ctx = wl.setup(plan, out)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if spec["mode"] != "setup":
        if tracer is not None:
            tracer.phase = "timed"
        passes, outputs = _passes(wl, ctx, plan["tasks"], spec["seconds"])
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.phase = "check"
        expected = json.loads((out / "expected.json").read_text())
        result["passes"] = passes
        result["checks"] = [wl.check(ctx, task, output, expected[task["id"]])
                            for results in outputs for task, output in zip(plan["tasks"], results)]
    if tracer is not None:
        tracer.write(out / spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _passes(wl, ctx, tasks: list, seconds: float) -> tuple[list, list]:
    """Run every task in order, pass after pass, while a further pass fits
    into the measured seconds; returns each pass's task times and outputs."""
    passes, outputs = [], []
    begin = time.perf_counter()
    while True:
        times, results = [], []
        for task in tasks:
            start = time.perf_counter()
            results.append(wl.run(ctx, task))
            times.append(time.perf_counter() - start)
        passes.append(times)
        outputs.append(results)
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * statistics.median(sum(p) for p in passes) >= seconds:
            return passes, outputs


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
