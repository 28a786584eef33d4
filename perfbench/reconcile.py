"""Single-operation timings to set beside the benchmark's workload figures.

Run from the repository root:

    python3 perfbench/reconcile.py

Each item runs in a fresh process that imports finconv from ./src with one
BLAS thread, so its peak RSS is its own. Times are medians over repeats;
nth_root is one run, because its descent length depends on the target.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _item(name: str) -> float:
    import numpy as np

    import finconv as fc
    from finconv import catalog

    rng = np.random.default_rng(0)
    if name.startswith("verify"):
        s = catalog.cyclic_group(int(name[len("verify Z"):]))
        return _median_time(lambda: fc.verify_semigroup(s), 3)
    if name == "convolve Z256":
        s = catalog.cyclic_group(256)
        fc.verify_semigroup(s)
        mu, nu = (fc.measure(s, rng.dirichlet(np.ones(256))) for _ in range(2))
        return _median_time(lambda: fc.convolve(mu, nu), 200)
    if name == "conv_exp r=200 Z256":
        s = catalog.cyclic_group(256)
        fc.verify_semigroup(s)
        mu = fc.measure(s, rng.dirichlet(np.ones(256)))
        return _median_time(lambda: fc.conv_exp(mu, 200.0, 1e-9), 5)
    if name == "nth_root n=4 J32":
        s = catalog.chain_semilattice(32)
        fc.verify_semigroup(s)
        w = 0.35 * rng.dirichlet(np.ones(32))
        w[0] += 0.65  # heavy bottom, as in acceptance criterion 7
        target = fc.conv_power(fc.measure(s, w), 4)
        return _median_time(lambda: fc.nth_root(target, 4), 1)
    if name == "validate_levy N=256 Z8":
        s = catalog.cyclic_group(8)
        fc.verify_semigroup(s)
        path = fc.levy_from_root(fc.measure(s, rng.dirichlet(np.ones(8))), 256)
        return _median_time(lambda: fc.validate_levy(path, 1e-12), 3)
    raise ValueError(name)


def _cli_verify_c2() -> float:
    """Wall time of a whole `python3 -m finconv verify` process on C2."""
    model = {"universe": 2, "functions": {"add": {"arity": 2, "table": [[0, 1], [1, 0]]}},
             "semigroup": {"function": "add"}}
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        path = Path(tmp) / "c2.json"
        path.write_text(json.dumps(model))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-m", "finconv", "verify", str(path), "-o", str(Path(tmp) / "out.json")]
        return _median_time(lambda: subprocess.run(cmd, env=env, check=True), 5)


ITEMS = {  # item: the single-run figure ROADMAP item 1 recorded
    "verify Z256": "0.40 s, 340 MB",
    "verify Z400": "1.16 s, 1.2 GB",
    "convolve Z256": "190 us",
    "conv_exp r=200 Z256": "122 ms",
    "nth_root n=4 J32": "2.8 s",
    "validate_levy N=256 Z8": "0.38 s",
}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--item":
        seconds = _item(sys.argv[2])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"seconds": seconds, "rss_mb": rss}))
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    print(f"{'item':26s} {'measured':>12s} {'peak RSS':>10s}   ROADMAP item 1")
    for name, before in ITEMS.items():
        out = subprocess.run([sys.executable, __file__, "--item", name], env=env, check=True,
                             capture_output=True, text=True).stdout
        got = json.loads(out.strip().splitlines()[-1])
        print(f"{name:26s} {got['seconds'] * 1e3:10.3f} ms {got['rss_mb']:7.0f} MB   {before}")
    print(f"{'cli verify c2':26s} {_cli_verify_c2() * 1e3:10.3f} ms {'':>10s}   0.25 s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
