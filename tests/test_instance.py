"""Instance model, text format, validation, and the seeded generator."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from conftest import INSTANCE_A, random_instance
from oracles import metric_violation

from ftfp import instance
from ftfp.instance import (
    GenParams,
    Instance,
    ParseError,
    generate,
    parse_instance,
    serialize_instance,
    validate,
)

# ---------------------------------------------------------------------------
# construction


def test_instance_arrays_are_read_only(instance_a):
    with pytest.raises(ValueError):
        instance_a.site_costs[0] = 99.0
    with pytest.raises(ValueError):
        instance_a.demands[0] = 99
    with pytest.raises(ValueError):
        instance_a.dist[0, 0] = 99.0


def test_instance_keeps_its_own_copies():
    f, r, d = np.array([1.0, 2.0]), np.array([2]), np.array([[1.0], [2.0]])
    inst = Instance(f, r, d)
    for mine, kept in ((f, inst.site_costs), (r, inst.demands), (d, inst.dist)):
        assert not np.shares_memory(mine, kept)
        assert mine.flags.writeable and not kept.flags.writeable
    f[0] = 5.0  # the caller's array stays writable, and the instance does not see the write
    assert inst.site_costs[0] == 1.0


@pytest.mark.parametrize(
    "field, values",
    [("demands", [True]), ("demands", ["2"]), ("site_costs", [True]), ("dist", [["1.0"]])],
    ids=["bool-demand", "str-demand", "bool-cost", "str-distance"],
)
def test_bool_and_string_entries_are_a_value_error(field, values):
    arrays = {"site_costs": np.array([1.0]), "demands": np.array([2]), "dist": np.array([[1.0]])}
    arrays[field] = np.array(values)
    with pytest.raises(ValueError, match=f"{field} must be"):
        Instance(**arrays)


def test_instance_properties(instance_a, instance_b):
    assert (instance_a.n, instance_a.m) == (2, 1)
    assert (instance_b.n, instance_b.m) == (2, 2)
    assert instance_a.max_demand == 2
    assert instance_a.min_demand == 2
    assert instance_b.max_demand == 1


def test_integral_float_demands_are_accepted():
    inst = Instance(np.array([1.0]), np.array([2.0]), np.array([[1.0]]))
    assert inst.demands.dtype == np.int64
    assert inst.demands[0] == 2


def test_fractional_demands_are_rejected():
    with pytest.raises(ValueError, match="integers"):
        Instance(np.array([1.0]), np.array([1.5]), np.array([[1.0]]))


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError, match="shape"):
        Instance(np.array([1.0, 2.0]), np.array([1]), np.array([[1.0]]))


def test_empty_instance_is_rejected():
    with pytest.raises(ValueError):
        Instance(np.array([]), np.array([1]), np.empty((0, 1)))


# ---------------------------------------------------------------------------
# text format


def test_round_trip_fixture(instance_a):
    text = serialize_instance(instance_a)
    back = parse_instance(text, name=instance_a.name)
    assert np.array_equal(back.site_costs, instance_a.site_costs)
    assert np.array_equal(back.demands, instance_a.demands)
    assert np.array_equal(back.dist, instance_a.dist)


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_is_exact_on_random_instances(seed):
    inst = random_instance(seed, sites=1 + seed % 5, clients=1 + (seed * 3) % 5)
    back = parse_instance(serialize_instance(inst))
    # repr-based serialization must survive the trip bit for bit
    assert back.site_costs.tobytes() == inst.site_costs.tobytes()
    assert back.dist.tobytes() == inst.dist.tobytes()
    assert np.array_equal(back.demands, inst.demands)


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# an instance\n"
        "ftfp 1\n"
        "\n"
        "2 1  # n m\n"
        "3.0 10.0\n"
        "\n"
        "2\n"
        "1.0\n"
        "2.0\n"
    )
    inst = parse_instance(text)
    assert inst.n == 2 and inst.m == 1
    assert np.array_equal(inst.dist, INSTANCE_A.dist)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("ufl 1\n1 1\n1\n1\n1\n", "not an ftfp instance"),
        ("ftfp 2\n1 1\n1\n1\n1\n", "unsupported ftfp version"),
        ("ftfp 1\na b\n1\n1\n1\n", "sizes must be integers"),
        ("ftfp 1\n0 1\n\n1\n\n", "need n >= 1"),
        ("ftfp 1\n1 1\n1 1\n1\n1\n", "expected 1 token(s) for site costs"),
        ("ftfp 1\n1 1\nx\n1\n1\n", "bad real"),
        ("ftfp 1\n1 1\n-3\n1\n1\n", "must be finite and >= 0"),
        ("ftfp 1\n1 1\n1\n1.5\n1\n", "demand must be an integer"),
        ("ftfp 1\n1 1\n1\n-1\n1\n", "demand must be >= 0"),
        ("ftfp 1\n1 1\n1\n1\n", "missing distance row 1"),
        ("ftfp 1\n1 1\n1\n1\n1\n9\n", "unexpected trailing tokens"),
        ("", "missing header"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=None) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


def test_parse_error_line_numbers_count_raw_lines():
    # the bad demand sits on physical line 6 because of the comment and blank
    text = "# hi\nftfp 1\n\n2 1\n1 1\nbad\n1\n1\n"
    with pytest.raises(ParseError, match="line 6"):
        parse_instance(text)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_generated_instances():
    for seed in range(5):
        assert validate(random_instance(seed, sites=4, clients=4)) == []


def test_constructor_rejects_negative_cost_and_demand():
    for f, r, entry in [
        ([-1.0], [2], "site_costs[0] = -1.0"),
        ([1.0, np.inf], [2], "site_costs[1] = inf"),
        ([1.0], [-2], "demands[0] = -2"),
        ([1.0], [-2.0], "demands[0] = -2"),
        ([1.0], [1e30], "demands[0] = 1e+30"),  # the int64 cast would wrap it to -2^63
    ]:
        d = np.ones((len(f), len(r)))
        with pytest.raises(ValueError, match=re.escape(entry)):
            Instance(np.array(f), np.array(r), d)


def test_constructor_rejects_negative_and_nonfinite_distance():
    for bad, entry in [(-0.5, "dist[1,0] = -0.5"), (np.inf, "dist[1,0] = inf"), (np.nan, "dist[1,0] = nan")]:
        with pytest.raises(ValueError, match=re.escape(entry)):
            Instance(np.array([1.0, 1.0]), np.array([1, 1]), np.array([[1.0, 1.0], [bad, -1.0]]))


def test_constructor_rejects_values_whose_cost_bound_overflows():
    # every entry is finite, but max_j r_j sum_i f_i + sum_j r_j max_i d_ij is not below
    # COST_LIMIT; no overflow warning may escape (pytest turns it into an error)
    for f, r, d in [
        ([1.0, 1.0], [1, 1], [[1e308, 1e308], [1e308, 1e308]]),
        ([1e308, 1.0], [1, 1], [[1.0, 1.0], [1.0, 1.0]]),
        ([1e299] * 20, [1], [[0.0]] * 20),  # the sum of f, not any one f, is too large
        ([0.0], [2**53], [[1e290]]),  # r_j d_ij
    ]:
        with pytest.raises(ValueError, match="values too large"):
            Instance(np.array(f), np.array(r), np.array(d))
    inst = Instance(np.array([1e299]), np.array([1]), np.array([[1e299]]))  # 2e299, below the limit
    assert inst.site_costs[0] == 1e299


def test_scan_order_is_the_read_only_stable_argsort():
    d = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.5], [2.0, 0.0, 0.5], [1.0, 3.0, 0.5]])  # ties in every column
    inst = Instance(np.ones(4), np.ones(3), d)
    order = inst.scan_order
    assert order.tobytes() == np.argsort(inst.dist, axis=0, kind="stable").tobytes()
    assert order.dtype == np.intp and inst.scan_order is order  # sorted once
    with pytest.raises(ValueError):
        order[0, 0] = 1


def test_validate_flags_metric_violation_with_witness():
    # d[0,0] = 10 but the route through client 1 / site 1 costs 0
    inst = Instance(
        np.array([1.0, 1.0]),
        np.array([1, 1]),
        np.array([[10.0, 0.0], [0.0, 0.0]]),
    )
    msgs = validate(inst)
    assert len(msgs) == 1
    assert "metric violated at d[0,0]" in msgs[0]
    assert "sites 0,1, clients 0,1" in msgs[0]


@pytest.mark.parametrize("seed", range(20))
def test_validate_metric_agrees_with_quadruple_loop(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    inst = random_instance(seed, sites=n, clients=m)
    # Euclidean tables satisfy the condition; both checkers must agree
    assert metric_violation(inst.dist) <= 1e-9
    assert validate(inst) == []
    # now break one entry and require both to notice
    d = inst.dist.copy()
    d[rng.integers(n), rng.integers(m)] += 100.0
    broken = Instance(inst.site_costs, inst.demands, d)
    oracle_bad = metric_violation(d) > 1e-9
    ours_bad = any("metric" in s for s in validate(broken))
    assert oracle_bad == ours_bad
    # a lone entry can only be consistent if the instance is too small to route around it
    if n >= 2 and m >= 2:
        assert ours_bad


# validate's tolerance is measured in the largest distance, so neither test depends on the scale
def test_metric_check_accepts_points_on_a_line_up_to_1e12():
    # points on a line form a metric; d = |s - c| rounds each entry by up to an ulp
    # of 1e12, far above an absolute 1e-9
    rng = np.random.default_rng(0)
    sites, clients = rng.uniform(0.0, 1e12, 20), rng.uniform(0.0, 1e12, 30)
    d = np.abs(sites[:, None] - clients[None, :])
    line = Instance(np.ones(20), np.ones(30, dtype=np.int64), d)
    assert validate(line) == []
    d = d.copy()
    d[0, 0] = d[0, 1] + d[1, 1] + d[1, 0] + 1e-6 * d.max()  # a real violation still shows at scale
    broken = Instance(line.site_costs, line.demands, d)
    assert any(msg.startswith("metric violated at d[0,0]") for msg in validate(broken))


def test_metric_check_flags_a_violation_at_scale_1e_minus_10():
    # at 1e-10, d_11 is 33 times its path, well inside an absolute 1e-9
    tiny = Instance(np.ones(2), np.ones(2, dtype=np.int64), [[1e-12, 1e-12], [1e-12, 1e-10]])
    assert validate(tiny) == [
        "metric violated at d[1,1] = 1e-10: d[1,0] + d[0,0] + d[0,1] = 3e-12 (sites 1,0, clients 1,0)"
    ]


def quadruple_loop_flags(d: np.ndarray) -> list[tuple[int, int]]:
    """The entries (i, j), in row-major order, that exceed every d_il + d_kl + d_kj,
    added left to right, by more than validate's tolerance; one entry at a time, on purpose."""
    n, m = d.shape
    tol = instance.METRIC_TOL * float(d.max())
    flagged = []
    for i in range(n):
        for j in range(m):
            tightest = min(d[i, l] + d[k, l] + d[k, j] for k in range(n) for l in range(m))
            if d[i, j] > tightest + tol:
                flagged.append((i, j))
    return flagged


METRIC_MESSAGE = re.compile(
    r"metric violated at d\[(\d+),(\d+)\] = \S+: "
    r"d\[\1,(\d+)\] \+ d\[(\d+),\3\] \+ d\[\4,\2\] = (\S+) \(sites \1,\4, clients \2,\3\)$"
)


@pytest.mark.parametrize("block", [1, 60, 1 << 20])  # one site, a few sites, all sites per block
def test_blocked_metric_check_matches_the_unchunked_one(block, monkeypatch):
    # the flagged entries are those of the unchunked quadruple loop whatever the block size,
    # and each witness (k, l) adds up, left to right, to the stated bound bit for bit;
    # which witness is named among ties is left open
    monkeypatch.setattr(instance, "_METRIC_BLOCK", block)
    flagged = 0
    for seed in range(60):
        rng = np.random.default_rng(9000 + seed)
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        # arbitrary tables break the metric often; small integers also tie often
        d = rng.random((n, m)) if seed % 2 else rng.integers(0, 4, (n, m)).astype(float)
        msgs = validate(Instance(np.ones(n), np.ones(m, dtype=np.int64), d))
        seen = []
        for msg in msgs:
            match = METRIC_MESSAGE.match(msg)
            assert match, msg
            i, j, l, k = map(int, match.groups()[:4])
            witness = d[i, l] + d[k, l] + d[k, j]
            assert repr(float(witness)) == match[5], msg
            assert d[i, j] > witness + instance.METRIC_TOL * d.max(), msg
            seen.append((i, j))
        assert seen == quadruple_loop_flags(d), seed
        flagged += bool(msgs)
    assert flagged >= 30


def test_metric_check_memory_is_bounded_by_the_input():
    # blocks of the shorter side keep no (m, m) array, which alone would be 72 MB at
    # 4x3000; at 3000x4 pairing the sites would take blocks of 87 x 3000 x 4 entries
    for n, m in [(4, 3000), (3000, 4)]:
        inst = generate(GenParams(n, m, 1, 5, 7))
        tracemalloc.start()
        try:
            assert validate(inst) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, (n, m, peak)


# ---------------------------------------------------------------------------
# generator


def test_generate_is_deterministic():
    p = GenParams(sites=5, clients=4, demand_min=1, demand_max=3, seed=7)
    a, b = generate(p), generate(p)
    assert a.site_costs.tobytes() == b.site_costs.tobytes()
    assert a.dist.tobytes() == b.dist.tobytes()
    assert np.array_equal(a.demands, b.demands)
    c = generate(GenParams(sites=5, clients=4, demand_min=1, demand_max=3, seed=8))
    assert a.dist.tobytes() != c.dist.tobytes()


def test_generate_respects_ranges():
    p = GenParams(sites=6, clients=50, demand_min=2, demand_max=4, seed=3, cost_min=5.0, cost_max=6.0)
    inst = generate(p)
    assert inst.demands.min() >= 2 and inst.demands.max() <= 4
    assert inst.site_costs.min() >= 5.0 and inst.site_costs.max() <= 6.0
    # unit-square points keep every distance under the diagonal
    assert inst.dist.max() <= np.sqrt(2.0) + 1e-12
    assert validate(inst) == []


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        GenParams(sites=0, clients=1, demand_min=1, demand_max=1, seed=0)
    with pytest.raises(ValueError):
        GenParams(sites=1, clients=1, demand_min=3, demand_max=1, seed=0)
    with pytest.raises(ValueError):
        GenParams(sites=1, clients=1, demand_min=1, demand_max=1, seed=0, cost_min=2.0, cost_max=1.0)
    # non-finite bounds would otherwise reach rng.uniform, which raises OverflowError
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="finite"):
        GenParams(sites=1, clients=1, demand_min=1, demand_max=1, seed=0, cost_max=inf)
    with pytest.raises(ValueError, match="finite"):
        GenParams(sites=1, clients=1, demand_min=1, demand_max=1, seed=0, cost_min=nan, cost_max=nan)

