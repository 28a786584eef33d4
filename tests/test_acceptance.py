"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import subprocess
import sys
import time
from itertools import product as iproduct

import numpy as np

import finconv as fc
from finconv import catalog
from helpers import (
    certified,
    conditioned_chain_root,
    cyclic_exp_oracle,
    fd_tangent_gradient,
    interior_measure,
    random_measure,
    random_semigroup,
)
from test_cli import C2_MODEL, J2_MODEL


def report(number, description, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {description} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.2f}s"
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_semigroup_certification():
    failures = []
    t0 = time.perf_counter()
    passing = [
        ("C2 table", catalog.cyclic_group(2)),
        ("C2 relation formula", catalog.relation_model(certified(catalog.cyclic_group(2)))),
        ("Z8 table", catalog.cyclic_group(8)),
        ("J2 lub formula", catalog.chain_poset(2)),
        ("J3 lub formula", catalog.chain_poset(3)),
        ("J8 table", catalog.chain_semilattice(8)),
        ("Z64 table", catalog.cyclic_group(64)),
        ("J64 table", catalog.chain_semilattice(64)),
    ]
    for name, s in passing:
        tick = time.perf_counter()
        cert = fc.verify_semigroup(s)
        each = time.perf_counter() - tick
        if not cert.passed:
            failures.append(f"{name} failed axioms")
        if cert.zero != 0:
            failures.append(f"{name} wrong neutral element {cert.zero}")
        if each >= 1.0:
            failures.append(f"{name} took {each:.2f}s")
    tick = time.perf_counter()
    cert = fc.verify_semigroup(catalog.from_add_table([[0, 0], [1, 1]]))
    if time.perf_counter() - tick >= 1.0:
        failures.append("left projection check too slow")
    comm = cert.axiom("commutativity")
    if comm.holds or comm.counterexample[:2] != (0, 1):
        failures.append(f"left projection counterexample {comm.counterexample}")
    report(1, "semigroup certification on groups, chains, and the non-example",
           failures, time.perf_counter() - t0, 60)


def test_criterion_2_algebra_laws():
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(200):
        s = random_semigroup(rng, max_m=16)
        for _ in range(5):
            mu, nu, lam = (random_measure(s, rng) for _ in range(3))
            r = float(rng.uniform())
            for out in (fc.convolve(mu, nu), fc.mix([r, 1 - r], [mu, nu])):
                if (out.weights < 0).any() or abs(math.fsum(out.weights.tolist()) - 1) > 1e-12:
                    failures.append(f"simplex violated on zoo[{i}]")
            if np.abs(fc.convolve(mu, nu).weights - fc.convolve(nu, mu).weights).max() > 1e-12:
                failures.append(f"commutativity violated on zoo[{i}]")
            left = fc.convolve(fc.convolve(mu, nu), lam)
            right = fc.convolve(mu, fc.convolve(nu, lam))
            if fc.tv_distance(left, right) > 1e-12:
                failures.append(f"associativity violated on zoo[{i}]")
            mixed = fc.convolve(fc.mix([r, 1 - r], [mu, nu]), lam)
            split = fc.mix([r, 1 - r], [fc.convolve(mu, lam), fc.convolve(nu, lam)])
            if fc.tv_distance(mixed, split) > 1e-12:
                failures.append(f"distributivity violated on zoo[{i}]")
    report(2, "algebra laws on 200 random semigroups x 5 triples",
           failures, time.perf_counter() - t0, 30)


def test_criterion_3_exponential_laws():
    failures = []
    t0 = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(3)
    rates = (0.0, 0.5, 1.0, 2.0)
    for s in (certified(catalog.cyclic_group(2)), certified(catalog.cyclic_group(8)),
              certified(catalog.chain_semilattice(3))):
        mu = random_measure(s, rng)
        for r, q in iproduct(rates, rates):
            left = fc.convolve(fc.conv_exp(mu, r, tol), fc.conv_exp(mu, q, tol))
            if fc.tv_distance(left, fc.conv_exp(mu, r + q, tol)) > 2e-9:
                failures.append(f"semigroup law m={s.size} r={r} s={q}")
        for n, r in iproduct((2, 3, 4, 8), rates):
            powered = fc.conv_power(fc.conv_exp(mu, r / n, tol), n)
            if fc.tv_distance(powered, fc.conv_exp(mu, r, tol)) > (n + 1) * 1e-9:
                failures.append(f"root law m={s.size} n={n} r={r}")
    report(3, "exponential semigroup and root laws at tol 1e-9",
           failures, time.perf_counter() - t0, 10)


def test_criterion_4_transform_oracle():
    failures = []
    t0 = time.perf_counter()
    for m in (2, 4, 8):
        s = certified(catalog.cyclic_group(m))
        mu = random_measure(s, np.random.default_rng(m))
        for r in (0.5, 1.0, 2.0):
            gap = fc.tv_distance(fc.conv_exp(mu, r, 1e-12), cyclic_exp_oracle(mu, r))
            if gap > 1e-9:
                failures.append(f"m={m} r={r} gap={gap:.2e}")
    report(4, "exponential matches the character transform on cyclic groups",
           failures, time.perf_counter() - t0, 5)


def test_criterion_5_bernoulli_convergence():
    failures = []
    t0 = time.perf_counter()
    s = certified(catalog.cyclic_group(8))
    mu = random_measure(s, np.random.default_rng(42))
    errors = {2**j: fc.exp_approx_error(mu, 1.0, 2**j, 1e-9) for j in range(6, 13)}
    if errors[2**12] > 1e-3:
        failures.append(f"error at K=4096 is {errors[2 ** 12]:.2e}")
    for j in range(6, 12):
        if errors[2 ** (j + 1)] > 1.05 * errors[2**j]:
            failures.append(f"non-monotone at K={2 ** j}")
    report(5, "K-factor approximation of the exponential converges",
           failures, time.perf_counter() - t0, 10)


def test_criterion_6_continuity_modulus():
    failures = []
    t0 = time.perf_counter()
    s = certified(catalog.cyclic_group(8))
    mu = random_measure(s, np.random.default_rng(42))
    for r in (0.5, 1.0, 2.0):
        for K in (256, 1024, 4096):
            for L in (1, K // 64, K // 16):
                if L < 1 or r * L / K > 0.1:
                    continue
                lam = fc.lambda_for(mu, r, K)
                gap = fc.tv_distance(fc.conv_power(lam, K + L), fc.conv_power(lam, K))
                if gap > 2 * r * L / K + 1e-9:
                    failures.append(f"r={r} K={K} L={L} gap={gap:.2e}")
    report(6, "power continuity within 2rL/K", failures, time.perf_counter() - t0, 10)


def test_criterion_7_root_oracles():
    failures = []
    t0 = time.perf_counter()
    cases = [(2, 2, 0.3), (2, 16, 0.6), (3, 3, 0.3), (3, 16, 0.6), (4, 4, 0.4),
             (5, 8, 0.55), (8, 2, 0.3), (8, 8, 0.55), (8, 16, 0.65)]
    for m, n, bottom in cases:
        chain = certified(catalog.chain_semilattice(m))
        rng = np.random.default_rng(100 + m * 17 + n)
        target = fc.conv_power(conditioned_chain_root(chain, rng, bottom), n)
        cert = fc.nth_root(target, n)
        oracle = fc.semilattice_root_oracle(target, n)
        if fc.tv_distance(fc.conv_power(oracle, n), target) > 1e-12:
            failures.append(f"oracle residual m={m} n={n}")
        if fc.tv_distance(cert.best_root, oracle) > 1e-6:
            failures.append(f"solver/oracle roots differ m={m} n={n}")
        if cert.residual > 1e-6:
            failures.append(f"solver residual m={m} n={n}: {cert.residual:.2e}")
    two = certified(catalog.cyclic_group(2))
    cert = fc.nth_root(fc.dirac(two, 1), 2)
    if cert.verdict != "infeasible_lower_bound" or cert.lower_bound < 0.5 - 1e-6:
        failures.append(f"square root of the flip: {cert.verdict}, {cert.lower_bound}")
    report(7, "chain roots match the cumulative-root oracle; torsion infeasible",
           failures, time.perf_counter() - t0, 60)


def test_criterion_8_gradient_check():
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    for i in range(100):
        s = random_semigroup(rng, max_m=8)
        nu = interior_measure(s, rng)
        target = random_measure(s, rng)
        n = int(rng.integers(1, 7))

        def objective(w):
            powered = fc.conv_power(fc.Measure(np.array(w), s), n)
            d = powered.weights - target.weights
            return 0.5 * float(np.dot(d, d))

        tangent = fc.power_gradient(nu, n, target)
        tangent = tangent - tangent.mean()
        fd = fd_tangent_gradient(objective, nu.weights.copy())
        scale = max(np.linalg.norm(tangent), 1e-8)
        if np.linalg.norm(fd - tangent) > 1e-5 * scale:
            failures.append(f"instance {i} (m={s.size}, n={n})")
    report(8, "power gradient matches central finite differences",
           failures, time.perf_counter() - t0, 30)


def test_criterion_9_levy_validation():
    failures = []
    t0 = time.perf_counter()
    grid = fc.make_timeline("uniform_grid", 64)
    z8 = certified(catalog.cyclic_group(8))
    j3 = certified(catalog.chain_semilattice(3))
    rng = np.random.default_rng(9)
    for s in (z8, j3):
        nu = random_measure(s, rng)
        rep = fc.validate_levy(fc.levy_from_root(nu, 64), 1e-12)
        if not rep.passed:
            failures.append(f"root path m={s.size}: inc {rep.worst_increment:.2e} div {rep.worst_division:.2e}")
        rep = fc.validate_levy(fc.levy_from_exponential(nu, 1.5, grid, 1e-9), 3e-9)
        if not rep.passed:
            failures.append(f"exp path m={s.size}: inc {rep.worst_increment:.2e}")
    report(9, "paths satisfy start, increment, and divisibility laws",
           failures, time.perf_counter() - t0, 20)


def test_criterion_10_jump_extraction():
    failures = []
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    for i in range(100):
        s = random_semigroup(rng, max_m=12)
        mu = random_measure(s, rng)
        r = float(rng.uniform(0.25, 2.0))
        K = int(rng.integers(1, 4097))
        back = fc.extract_jump(fc.lambda_for(mu, r, K), r, K)
        if fc.tv_distance(back, mu) > 1e-12:
            failures.append(f"round trip {i}")
    c2 = certified(catalog.cyclic_group(2))
    d1 = fc.dirac(c2, 1)
    target = fc.conv_exp(d1, 1.0, 1e-12)
    big = fc.check_concentration(target, fc.lambda_for(d1, 1.0, 2**12), 1.0, 2**12, 1e-3)
    if not big.passed:
        failures.append("concentration fails at K=4096")
    small = fc.check_concentration(target, fc.lambda_for(d1, 1.0, 2), 1.0, 2, 1e-3)
    if small.conditions[0].holds:
        failures.append("scalar condition unexpectedly holds at K=2")
    if abs(small.conditions[0].value - abs(math.e / 2.25 - 1.0)) > 1e-12:
        failures.append("scalar condition value wrong at K=2")
    report(10, "jump extraction inverts the approximate root; concentration checks",
           failures, time.perf_counter() - t0, 5)


def test_criterion_11_cli_determinism(tmp_path):
    failures = []
    t0 = time.perf_counter()
    c2 = tmp_path / "c2.json"
    j2 = tmp_path / "j2.json"
    d1 = tmp_path / "d1.json"
    quarter = tmp_path / "quarter.json"
    c2.write_text(json.dumps(C2_MODEL))
    j2.write_text(json.dumps(J2_MODEL))
    d1.write_text(json.dumps({"point": "1"}))
    quarter.write_text(json.dumps({"weights": [0.25, 0.75]}))
    runs = [
        ["verify", str(c2)],
        ["exp", str(c2), str(d1), "--r", "1", "--tol", "1e-9"],
        ["root", str(j2), str(quarter), "--n", "2", "--seed", "11"],
        ["root", str(c2), str(d1), "--n", "2", "--seed", "7"],
        ["divisible", str(j2), str(quarter), "--n-max", "3", "--seed", "5"],
        ["bernoulli", str(c2), str(d1), "--r", "1", "--K-list", "16,64,256"],
        ["levy-root", str(c2), str(quarter), "--N", "16"],
        ["levy-exp", str(c2), str(d1), "--r", "1", "--N", "8"],
        ["compare-paths", str(c2), str(d1), str(quarter), "--N", "8"],
        ["fit-lk", str(j2), str(quarter), "--r-max", "2", "--seed", "2"],
    ]
    for argv in runs:
        outputs = set()
        for threads in ("1", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "finconv", *argv, "--threads", threads],
                capture_output=True, text=True,
            )
            outputs.add((proc.returncode, proc.stdout))
        if len(outputs) != 1:
            failures.append(f"{argv[0]} differs across thread counts")
    report(11, "CLI outputs byte-identical across --threads {1,4}",
           failures, time.perf_counter() - t0, 120)
