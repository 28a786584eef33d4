"""The benchmark's workloads, one module each.

Every workload module provides four functions:

- ``build(seed, out) -> (plan, expected)`` writes the seeded fixture files
  under ``out`` with ``finconv.catalog`` and ``finconv.fileio`` and returns
  the task plan (JSON) and each task's expected output (JSON). It runs in
  the parent process and raises ``oracles.OracleError`` when its own
  oracle fails a self-check.
- ``setup(plan, out) -> ctx`` loads what the tasks need; it is timed as
  set-up.
- ``run(ctx, task) -> output`` is one timed task.
- ``check(ctx, task, output, expected) -> dict`` compares an output with
  the oracle after the timed phase; see ``outcome``.
"""

from __future__ import annotations

import importlib

NAMES = ("exp-paths", "certify")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return importlib.import_module(f"{__name__}.{name.replace('-', '_')}")


def outcome(status: str, detail: str = "") -> dict:
    """A task's check result.

    status is "ok"; "miss" when the output is honest but weaker than the
    workload asks (a root search that ends at local_minimum_only where
    infeasibility is provable); or "wrong" when the output contradicts the
    oracle.
    """
    return {"status": status, "detail": detail}
