import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finconv as fc
from finconv import fileio
from finconv.errors import BudgetExceededError, MeasureError, StructureMismatchError, TimelineError
from finconv.levy import MAX_TICKS, TICK_MATCH_TOL
from finconv.structures import EVAL_BUDGET
from helpers import (
    catalog_monoid,
    iterative_power,
    random_measure,
    reference_tick_pairs,
    reference_validate_levy,
    report_bits,
    same_generator,
)

SETTINGS = settings(max_examples=40, deadline=None)


# --- timelines ---------------------------------------------------------------

def test_uniform_grid():
    t = fc.make_timeline("uniform_grid", 4)
    assert t.ticks == tuple(Fraction(k, 4) for k in range(5))


def test_rationals_inserts_endpoints():
    t = fc.make_timeline("rationals", [Fraction(1, 3), Fraction(1, 2)])
    assert t.ticks == (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def test_samples_out_of_range():
    with pytest.raises(TimelineError):
        fc.make_timeline("samples", [0.5, 1.5])
    with pytest.raises(TimelineError):
        fc.make_timeline("samples", [])
    with pytest.raises(TimelineError):
        fc.make_timeline("uniform_grid", 0)


def test_ticks_sorted_with_endpoints():
    t = fc.make_timeline("samples", [0.75, 0.25, 0.25])
    assert t.ticks == (0.0, 0.25, 0.75, 1.0)


# --- constructors ---------------------------------------------------------------

def test_root_path_is_deterministic_walk(z8):
    path = fc.levy_from_root(fc.dirac(z8, 3), 8)
    for k in range(9):
        expected = fc.dirac(z8, (3 * k) % 8)
        assert fc.tv_distance(path.marginals[k], expected) == 0.0


def test_root_path_matches_repeated_convolution(c2):
    nu = fc.measure(c2, [0.9, 0.1])
    path = fc.levy_from_root(nu, 4)
    for k in range(5):
        assert fc.tv_distance(path.marginals[k], iterative_power(nu, k)) <= 1e-12


def test_root_path_chain_cdf_law(j2):
    nu = fc.measure(j2, [0.8, 0.2])
    path = fc.levy_from_root(nu, 6)
    for k in range(1, 7):
        assert path.marginals[k].weights[0] == pytest.approx(0.8**k, abs=1e-13)


def test_root_path_endpoint_bit_identical(z8):
    rng = np.random.default_rng(60)
    nu = random_measure(z8, rng)
    path = fc.levy_from_root(nu, 64)
    assert path.marginals[64].weights.tobytes() == fc.conv_power(nu, 64).weights.tobytes()


def test_exponential_path_rate_zero(c2):
    path = fc.levy_from_exponential(fc.dirac(c2, 1), 0.0, fc.make_timeline("uniform_grid", 4), 1e-9)
    for mu in path.marginals:
        assert mu.weights.tolist() == [1.0, 0.0]


def test_exponential_path_midpoint(c2):
    path = fc.levy_from_exponential(fc.dirac(c2, 1), 1.0, fc.make_timeline("uniform_grid", 2), 1e-9)
    expected = (math.exp(-0.5) * math.cosh(0.5), math.exp(-0.5) * math.sinh(0.5))
    assert path.marginals[1].weights == pytest.approx(expected, abs=1e-9)
    endpoint = fc.conv_exp(fc.dirac(c2, 1), 1.0, 1e-9)
    assert path.marginals[2].weights.tobytes() == endpoint.weights.tobytes()
    assert path.marginals[0].weights.tolist() == [1.0, 0.0]


# --- validation -------------------------------------------------------------------

def test_validate_root_path(z8):
    rng = np.random.default_rng(61)
    path = fc.levy_from_root(random_measure(z8, rng), 64)
    report = fc.validate_levy(path, 1e-12)
    assert report.passed
    assert report.worst_increment <= 1e-12
    assert report.worst_division <= 1e-12
    assert report.increments_checked > 1000


def test_paths_are_frozen(c2):
    path = fc.levy_from_root(fc.measure(c2, [0.9, 0.1]), 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.generator = {}


def test_validate_exponential_path(z8):
    rng = np.random.default_rng(62)
    path = fc.levy_from_exponential(random_measure(z8, rng), 1.5, fc.make_timeline("uniform_grid", 64), 1e-9)
    report = fc.validate_levy(path, 3e-9)
    assert report.passed


def test_validate_locates_corruption(c2):
    nu = fc.measure(c2, [0.9, 0.1])
    path = fc.levy_from_root(nu, 16)
    broken = list(path.marginals)
    broken[10] = fc.uniform(c2)
    bad = fc.LevyPath(path.timeline, tuple(broken), dict(path.generator))
    report = fc.validate_levy(bad, 1e-9)
    assert not report.passed
    s, t = report.increment_at
    assert fc.tv_distance(bad.marginals[bad.timeline.locate(Fraction(10, 16))], fc.uniform(c2)) == 0
    assert abs(s + t - 10 / 16) <= 1e-12 or bad.timeline.locate(s + t) is not None


def test_validate_refuses_marginals_on_different_structures(c2, j2):
    marginals = (fc.dirac(c2, 0), fc.measure(j2, [0.5, 0.5]))
    with pytest.raises(StructureMismatchError, match="different structures"):
        fc.validate_levy(fc.LevyPath(fc.make_timeline("uniform_grid", 1), marginals, {}), 1e-9)


def test_tick_ratio_is_one_rule_for_exact_and_sampled_ticks():
    exact = fc.make_timeline("rationals", ["1/3", "2/3"])
    assert exact.ratio(Fraction(2, 3), Fraction(1, 3)) == 2
    assert exact.ratio(Fraction(1), Fraction(1, 3)) == 3
    assert exact.ratio(Fraction(2, 3), Fraction(2, 3)) is None  # n = 1 is no division
    assert exact.ratio(Fraction(1), Fraction(0)) is None
    assert exact.ratio(Fraction(2, 3) + Fraction(1, 10**30), Fraction(1, 3)) is None
    sampled = fc.make_timeline("samples", [0.1, 0.3])
    assert sampled.ratio(0.3, 0.1) == 3  # 0.3 - 3 * 0.1 is 5.6e-17, within TICK_MATCH_TOL
    assert sampled.ratio(0.3 + 1e-9, 0.1) is None
    assert sampled.ratio(1.0, 5e-324) is None  # 1 / 5e-324 overflows to inf


def test_validate_on_sampled_ticks(c2):
    timeline = fc.make_timeline("samples", [0.25, 0.5, 0.75])
    path = fc.levy_from_exponential(fc.dirac(c2, 1), 2.0, timeline, 1e-10)
    report = fc.validate_levy(path, 3e-10)
    assert report.passed
    assert report.increments_checked > 0
    assert report.divisions_checked > 0


def test_restriction_preserves_validity(z8):
    rng = np.random.default_rng(63)
    path = fc.levy_from_root(random_measure(z8, rng), 32)
    sub = fc.restrict_path(path, fc.make_timeline("rationals", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
    assert fc.validate_levy(sub, 1e-12).passed
    with pytest.raises(TimelineError):
        fc.restrict_path(path, fc.make_timeline("rationals", [Fraction(1, 3)]))


def test_compare_paths_reports_worst_tick(j2):
    a = fc.levy_from_root(fc.measure(j2, [0.5, 0.5]), 8)
    b = fc.levy_from_root(fc.measure(j2, [0.4, 0.6]), 8)
    worst, at = fc.compare_paths(a, b)
    assert worst > 0
    assert 0 <= at <= 1
    same, _ = fc.compare_paths(a, a)
    assert same == 0.0


# --- CSV ---------------------------------------------------------------------------

def test_export_constant_path(c2):
    path = fc.levy_from_root(fc.dirac(c2, 0), 1)
    text = fc.export_path(path)
    lines = text.strip().splitlines()
    data = [line for line in lines if not line.startswith("#") and not line.startswith("t,")]
    assert len(data) == 2
    assert data[0] == "0,1,0"
    assert data[1] == "1,1,0"


def test_export_row_count_and_round_trip(z8):
    rng = np.random.default_rng(64)
    path = fc.levy_from_exponential(random_measure(z8, rng), 1.0, fc.make_timeline("uniform_grid", 12), 1e-9)
    text = fc.export_path(path)
    rows = [line for line in text.splitlines() if line and not line.startswith(("#", "t,"))]
    assert len(rows) == len(path.timeline)
    back = fc.parse_path_csv(text, z8)
    assert len(back.marginals) == len(path.marginals)
    for ours, theirs in zip(path.marginals, back.marginals):
        assert ours.weights.tobytes() == theirs.weights.tobytes()
    assert same_generator(back.generator, path.generator)
    assert fc.validate_levy(back, 3e-9).passed


def test_manifest_round_trip_keeps_generator_bytes(z8, tmp_path):
    """Generator weights are the measure's read-only array; they are written
    as the list of their floats and read back into an array."""
    nu = random_measure(z8, np.random.default_rng(3))
    path = fc.levy_from_root(nu, 6)
    assert path.generator["weights"] is nu.weights
    as_list = dataclasses.replace(path, generator={**path.generator, "weights": nu.weights.tolist()})
    for write in (fc.export_path, lambda p: fileio.canonical_json(fileio.path_manifest(p, "p.csv"))):
        assert write(path) == write(as_list)
    (tmp_path / "p.csv").write_text(fc.export_path(path))
    (tmp_path / "p.json").write_text(fileio.canonical_json(fileio.path_manifest(path, "p.csv")))
    for name in ("p.csv", "p.json"):
        back = fileio.load_path(tmp_path / name, z8)
        assert same_generator(back.generator, path.generator)
        assert not back.generator["weights"].flags.writeable


def _export_rows(path):
    lines = fc.export_path(path).splitlines()
    head = [line for line in lines if line.startswith(("#", "t,"))]
    return head, [line for line in lines if line and not line.startswith(("#", "t,"))]


@pytest.mark.parametrize(
    "mangle",
    [
        lambda rows: rows[::-1],  # unsorted ticks
        lambda rows: rows[:3] + rows[2:],  # a repeated tick
        lambda rows: rows + ["1.5,0.5,0.5"],  # tick outside [0, 1]
        lambda rows: ["nan,0.5,0.5"] + rows[1:],  # non-finite tick
        lambda rows: rows[:2] + ["0.25,nan,0.5"] + rows[3:],  # non-finite weight
        lambda rows: rows[:2] + ["0.25,0.75,0.75"] + rows[3:],  # off the simplex
        lambda rows: rows[:2] + ["0.25,1.25,-0.25"] + rows[3:],  # negative weight
        lambda rows: rows[:2] + ["0.25,abc,0.5"] + rows[3:],  # not a number
        lambda rows: rows[1:],  # no tick 0
        lambda rows: rows[:-1],  # no tick 1
    ],
    ids=["unsorted", "repeated", "outside", "nan-tick", "nan-weight", "off-simplex", "negative", "text",
         "no-start", "no-end"],
)
def test_parse_path_csv_rejects_malformed_rows(c2, mangle):
    head, rows = _export_rows(fc.levy_from_root(fc.measure(c2, [0.9, 0.1]), 4))
    fc.parse_path_csv("\n".join(head + rows) + "\n", c2)
    with pytest.raises(TimelineError):
        fc.parse_path_csv("\n".join(head + mangle(rows)) + "\n", c2)


def test_parse_path_csv_checks_the_structure_line(c2, j2):
    text = fc.export_path(fc.levy_from_root(fc.measure(c2, [0.9, 0.1]), 4))
    with pytest.raises(StructureMismatchError, match=f"{c2.fingerprint[:12]}, not on the model's {j2.fingerprint[:12]}$"):
        fc.parse_path_csv(text, j2)
    # a CSV without the structure line still loads
    unlabelled = "\n".join(line for line in text.splitlines() if not line.startswith("# structure:"))
    assert len(fc.parse_path_csv(unlabelled, j2).marginals) == 5


def test_timeline_ticks_given_as_text(c2):
    assert fc.make_timeline("rationals", ["1/2", " 1/3"]).ticks == (0, Fraction(1, 3), Fraction(1, 2), 1)
    assert fc.make_timeline("samples", ["0.5"]).ticks == (0.0, 0.5, 1.0)
    for n in (4, 4.0, np.int64(4)):
        path = fc.levy_from_root(fc.dirac(c2, 1), n)
        assert path.timeline == fc.make_timeline("uniform_grid", 4) and path.generator["N"] == 4
    # a fractional or boolean N, boolean ticks and an infinite tick are not read as numbers
    for kind, params in [("rationals", ["1/2", "abc"]), ("rationals", ["1/0"]), ("samples", ["x"]),
                         ("uniform_grid", "abc"), ("uniform_grid", None), ("uniform_grid", 4.5),
                         ("uniform_grid", True), ("rationals", [True, "1/2"]), ("samples", [True, 0.5]),
                         ("rationals", [math.inf]), ("uniform_grid", math.inf)]:
        with pytest.raises(TimelineError):
            fc.make_timeline(kind, params)
    with pytest.raises(TimelineError):
        fc.levy_from_root(fc.dirac(c2, 1), 0)


def test_timeline_is_refused_past_the_tick_budget_before_it_is_built(c2):
    assert MAX_TICKS == 20_000 and MAX_TICKS**2 // 4 == EVAL_BUDGET
    over = f"ticks exceed the budget of {MAX_TICKS} ticks per timeline$"
    tracemalloc.start()
    try:
        for n in (10**12, MAX_TICKS):  # N + 1 ticks
            with pytest.raises(BudgetExceededError, match=over):
                fc.make_timeline("uniform_grid", n)
            with pytest.raises(BudgetExceededError, match=over):
                fc.levy_from_root(fc.dirac(c2, 1), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert len(fc.make_timeline("uniform_grid", MAX_TICKS - 1)) == MAX_TICKS
    # a tick list is counted as given, and again once the endpoints are added
    interior = [k / (MAX_TICKS + 1) for k in range(1, MAX_TICKS + 1)]
    for kind in ("rationals", "samples"):
        with pytest.raises(BudgetExceededError, match=f"^{MAX_TICKS + 1} {over}"):
            fc.make_timeline(kind, ["1/2"] * (MAX_TICKS + 1))
    with pytest.raises(BudgetExceededError, match=f"^{MAX_TICKS + 2} {over}"):
        fc.make_timeline("samples", interior)
    assert len(fc.make_timeline("samples", interior[:-2])) == MAX_TICKS
    # a path CSV's rows become a timeline under the same rule
    rows = [f"{k / MAX_TICKS!r},1,0" for k in range(MAX_TICKS + 1)]
    with pytest.raises(BudgetExceededError, match=f"^{MAX_TICKS + 1} {over}"):
        fc.parse_path_csv("\n".join(rows), c2)


def test_every_rate_is_read_by_one_rule(c2):
    mu = fc.dirac(c2, 1)
    timeline = fc.make_timeline("uniform_grid", 16)
    for r in (-1.0, math.inf, math.nan):
        message = f"^rate must be finite and non-negative, got {r}$"
        checks = [
            lambda: fc.conv_exp(mu, r, 1e-9),
            lambda: fc.lambda_for(mu, r, 4),
            lambda: fc.check_concentration(mu, mu, r, 4, 1e-3),
            # the path's rate itself, not the first tick's t * r
            lambda: fc.levy_from_exponential(mu, r, timeline, 1e-9),
        ]
        for check in checks:
            with pytest.raises(MeasureError, match=message):
                check()



# --- the pair scan against its per-pair reference -------------------------------

LARGE_PRIMES = (999979, 999983)  # their common denominator is near 10**12


@st.composite
def timelines(draw):
    """A uniform grid, a rational timeline with small and large denominators,
    or sampled ticks on a binary grid, some moved by exactly TICK_MATCH_TOL;
    sums of drawn ticks are added, so many pairs match."""
    kind = draw(st.sampled_from(["uniform_grid", "rationals", "samples"]))
    if kind == "uniform_grid":
        return fc.make_timeline(kind, draw(st.integers(1, 12)))
    if kind == "rationals":
        dens = st.sampled_from((2, 3, 4, 6, 8, 12) + LARGE_PRIMES)
        ticks = draw(st.lists(dens.flatmap(lambda d: st.builds(Fraction, st.integers(1, d), st.just(d))),
                              min_size=1, max_size=5))
    else:
        ticks = [k / 16 + draw(st.sampled_from([0.0, 0.0, TICK_MATCH_TOL, -TICK_MATCH_TOL]))
                 for k in draw(st.lists(st.integers(1, 15), min_size=1, max_size=5))]
    sums = [t + u for t in ticks for u in ticks if t + u <= 1]
    ticks += draw(st.lists(st.sampled_from(sums), max_size=4)) if sums else []
    return fc.make_timeline(kind, ticks)


@SETTINGS
@example(fc.make_timeline("rationals", [Fraction(1, 999983), Fraction(2, 999979),
                                        Fraction(1, 999983) + Fraction(2, 999979), Fraction(2, 999983)]))
@example(fc.make_timeline("samples", [0.25, 0.5 - TICK_MATCH_TOL, 0.5, 0.5 + TICK_MATCH_TOL, 0.75 + TICK_MATCH_TOL]))
@given(timelines())
def test_tick_pairs_match_the_per_pair_enumeration(timeline):
    increments = sorted((i, j, k) for j, pairs in timeline.increments() for i, k in pairs)
    divisions = [(i, j, n) for i, pairs in timeline.divisions() for j, n in pairs]
    assert (increments, divisions) == reference_tick_pairs(timeline)
    if timeline.kind != "samples":  # exact ticks, in plain Fraction arithmetic
        ticks = timeline.ticks
        index = {t: k for k, t in enumerate(ticks)}
        span = range(len(ticks))
        assert increments == [(i, j, index[ticks[i] + ticks[j]]) for i in span for j in span[i:]
                              if ticks[i] + ticks[j] in index]
        assert divisions == [(i, j, int(ticks[j] / ticks[i])) for i in span[1:] for j in span[i + 1:]
                             if (ticks[j] / ticks[i]).denominator == 1]


@st.composite
def paths(draw):
    """A path on a catalog monoid: a root or exponential path, or marginals
    drawn from a pool of two measures, so that many pairs tie."""
    kind = draw(st.sampled_from(["cyclic", "group", "chain", "product"]))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 3)) if kind in ("group", "product") else 0
    s = catalog_monoid(kind, a, b, draw(st.integers(-1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    nu = random_measure(s, rng)
    source = draw(st.sampled_from(["root", "exp", "pool"]))
    if source == "root":
        return fc.levy_from_root(nu, draw(st.integers(1, 12)))
    timeline = draw(timelines())
    if source == "exp":
        return fc.levy_from_exponential(nu, draw(st.sampled_from([0.5, 3.0, 40.0])), timeline, 1e-9)
    pool = [nu, random_measure(s, rng)]
    marginals = tuple(pool[int(k)] for k in rng.integers(0, 2, size=len(timeline)))
    return fc.LevyPath(timeline, marginals, {})


@SETTINGS
@given(paths(), st.sampled_from([0.0, 1e-12, 1e-9]))
def test_validation_matches_the_per_pair_reference_scan(path, tol):
    assert report_bits(fc.validate_levy(path, tol)) == report_bits(reference_validate_levy(path, tol))


@SETTINGS
@given(paths())
def test_first_worst_pair_is_reported(path):
    """Among the pairs at the largest violation, the first in lexicographic
    order is the one reported, for increments and for divisions alike."""
    ticks, marg = path.timeline.ticks, path.marginals
    increments, divisions = reference_tick_pairs(path.timeline)
    report = fc.validate_levy(path, 0.0)

    def first_worst(values, places):
        worst = max(values, default=0.0)
        return None if worst == 0.0 else places[values.index(worst)]

    values = [fc.tv_distance(marg[k], fc.convolve(marg[i], marg[j])) for i, j, k in increments]
    assert report.increment_at == first_worst(values, [(float(ticks[i]), float(ticks[j])) for i, j, _ in increments])
    values = [fc.tv_distance(fc.conv_power(marg[i], n), marg[j]) for i, j, n in divisions]
    assert report.division_at == first_worst(values, [(float(ticks[j]), n) for _, j, n in divisions])


def test_validation_memory_stays_with_the_ticks():
    """The scan keeps only the worst pair so far: at N = 256 on Z8 its 16,641
    increment pairs, held as Python tuples, would take about 4 MB, while the
    marginals take 16 KB."""
    s = catalog_monoid("cyclic", 8, 0, 0)
    path = fc.levy_from_root(random_measure(s, np.random.default_rng(5)), 256)
    tracemalloc.start()
    try:
        report = fc.validate_levy(path, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.increments_checked == 16641
    assert peak < 2**20
