import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import finconv as fc
from finconv.errors import StructureMismatchError, TimelineError
from helpers import iterative_power, random_measure


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
    assert back.generator == path.generator
    assert fc.validate_levy(back, 3e-9).passed


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

