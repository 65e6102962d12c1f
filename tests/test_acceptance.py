"""Seven release criteria, one test each, printing one [PASS]/[FAIL] line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass;
without -s pytest still shows them for any failing criterion.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from conftest import INSTANCE_A, random_instance, uniform_demand
from oracles import enumerate_optimum, materialize_split, merge_solution

from ftfp.cli import main
from ftfp.decompose import decompose_large, decompose_reduce
from ftfp.ftfl_solvers import solve_exact, to_capped
from ftfp.instance import Instance, serialize_instance
from ftfp.lp_core import FractionalSolution, build_lp, check_duality, solve_lp, trim_to_demand
from ftfp.pipeline import solve_large, solve_oracle, solve_reduce, verify_solution


@contextmanager
def criterion(label: str, budget_s: float | None = None):
    """Print exactly one [PASS]/[FAIL] line for the enclosed block."""
    t0 = time.perf_counter()
    info: dict[str, str] = {}
    try:
        yield info
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget is {budget_s}s"
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    detail = info.get("detail", "ok")
    print(f"[PASS] {label}: {detail} ({elapsed:.2f}s)")


def lp_point(inst: Instance) -> FractionalSolution:
    primal, _ = solve_lp(build_lp(inst))
    return trim_to_demand(primal, inst)


# ---------------------------------------------------------------------------


def test_criterion_1_fixture_instance(tmp_path, capsys):
    """LP*, both solve paths, and the ratio on the worked two-site fixture."""
    with criterion("criterion-1 fixture instance", budget_s=1.0) as info:
        path = tmp_path / "a.ftfp"
        path.write_text(serialize_instance(INSTANCE_A))
        assert main(["lp", "--in", str(path)]) == 0
        assert "lp_objective=8.0" in capsys.readouterr().out

        assert main(["solve", "--in", str(path), "--algo", "reduce", "--ftfl", "exact"]) == 0
        line = capsys.readouterr().out
        assert "cost_total=8.0" in line
        assert "ratio_total=1.0" in line

        assert main(["solve", "--in", str(path), "--algo", "oracle"]) == 0
        assert "cost_total=8.0" in capsys.readouterr().out

        _, rep = solve_reduce(INSTANCE_A)
        assert abs(rep.lp_star - 8.0) <= 1e-6
        assert abs(rep.cost_total - 8.0) <= 1e-6
        assert abs(rep.ratio_total - 1.0) <= 1e-6
        opt, _ = solve_oracle(INSTANCE_A)
        assert abs(opt.cost - 8.0) <= 1e-6
        info["detail"] = "lp=8 reduce=8 oracle=8 ratio=1.0"


def test_criterion_2_decomposition_suite():
    """Both decomposition rules on 500 seeded instances: recovery and demand caps."""
    with criterion("criterion-2 decomposition suite", budget_s=30.0) as info:
        rng = np.random.default_rng(20)
        worst_rec = 0.0
        for t in range(500):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            inst = random_instance(100000 + t, sites=n, clients=m, demand_min=0, demand_max=5)
            sol = lp_point(inst)
            for mode, fn in (("reduce", decompose_reduce), ("large", decompose_large)):
                dec = fn(sol, inst)
                rec = max(
                    float(np.abs(dec.xhat + dec.xbar - sol.x).max()),
                    float(np.abs(dec.yhat + dec.ybar - sol.y).max()),
                )
                worst_rec = max(worst_rec, rec)
                assert rec <= 1e-9, (t, mode, rec)
                assert np.array_equal(dec.rhat + dec.rbar, inst.demands)
                if mode == "reduce":
                    assert float((dec.xbar - dec.ybar[:, None]).max()) <= 1e-9
                    assert int(dec.rbar.max(initial=0)) <= 2 * n
                else:
                    assert int(dec.rbar.max(initial=0)) <= max(n - 1, 0)
        info["detail"] = f"500 instances, worst recovery error {worst_rec:.1e}"


def test_criterion_3_reduction_chain():
    """Hold-one-back pipeline vs its guarantee and the exact optimum, 200 instances."""
    with criterion("criterion-3 reduction chain", budget_s=120.0) as info:
        rng = np.random.default_rng(30)
        max_ratio = 0.0
        for t in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            inst = random_instance(200000 + t, sites=n, clients=m, demand_min=1, demand_max=4)
            sol, rep = solve_reduce(inst)
            assert verify_solution(inst, sol) == []
            assert rep.cost_total <= max(1.0, rep.rho_sub) * rep.lp_star + 1e-6 * (1 + rep.cost_total)
            opt, _ = solve_oracle(inst)
            assert rep.cost_total >= opt.cost - 1e-6
            assert rep.lp_star <= opt.cost + 1e-6
            max_ratio = max(max_ratio, rep.ratio_total)
        assert max_ratio <= 1.7245, max_ratio
        info["detail"] = f"max ratio_total {max_ratio:.9f} <= 1.7245"


def ring_instance(seed: int) -> Instance:
    """Five sites, five unit-demand clients, client j near sites {j, j+1, j+2}.

    The LP optimum opens every site one third of the way (each client splits
    its unit over its three near sites), so the fractional part never vanishes
    however often the uniform demand doubles: 5 * 2^k demand units spread over
    thirds always leave remainders.  Jitter keeps costs generic without moving
    the vertex.
    """
    rng = np.random.default_rng(seed)
    n = m = 5
    d = np.empty((n, m))
    for j in range(m):
        near = {j % n, (j + 1) % n, (j + 2) % n}
        for i in range(n):
            base = 1.0 if i in near else 2.5
            d[i, j] = base + 0.05 * rng.random()
    f = 2.0 + 0.2 * rng.random(n)
    return Instance(f, np.ones(m, dtype=np.int64), d, name=f"ring-{seed}")


def test_criterion_4_demand_growth_chain():
    """Flooring pipeline on growing uniform demands: residual bound and ratio decay."""
    with criterion("criterion-4 demand growth chain", budget_s=120.0) as info:
        n = 5
        ratios: dict[int, list[float]] = {}
        for seed in range(25):
            base = ring_instance(seed)
            for mult in (1, 2, 4, 8):
                big = uniform_demand(base, mult * n)
                sol, rep = solve_large(big)
                assert verify_solution(big, sol) == []
                r = big.min_demand
                assert rep.lp_star_residual <= (n / r) * rep.lp_star + 1e-6
                assert rep.cost_total <= (1 + rep.rho_sub * n / r) * rep.lp_star + 1e-6 * (
                    1 + rep.cost_total
                )
                ratios.setdefault(mult, []).append(rep.ratio_total)
        medians = [statistics.median(ratios[mult]) for mult in (1, 2, 4, 8)]
        for lo, hi in zip(medians[1:], medians[:-1]):
            assert lo < hi, medians
        info["detail"] = "median ratios " + " > ".join(f"{v:.6f}" for v in medians)


def test_criterion_5_lp_properties():
    """Strong duality, demand scaling, and cap monotonicity of the relaxation."""
    with criterion("criterion-5 lp properties") as info:
        worst_gap = 0.0
        for t in range(200):
            rng = np.random.default_rng(300000 + t)
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            inst = random_instance(300000 + t, sites=n, clients=m, demand_min=0, demand_max=4)
            primal, dual = solve_lp(build_lp(inst))
            assert check_duality(primal, dual, inst) == []
            rel_gap = primal.counters["duality_gap"] / (1.0 + abs(primal.objective))
            worst_gap = max(worst_gap, rel_gap)
            assert rel_gap <= 1e-6
            if t % 4 == 0:
                caps = np.full(n, float(max(inst.max_demand, 1)))
                capped, cdual = solve_lp(build_lp(inst, caps))
                assert check_duality(capped, cdual, inst, caps) == []
                assert capped.objective >= primal.objective - 1e-9 * (1 + primal.objective)
        for t in range(50):
            inst = random_instance(310000 + t, sites=4, clients=4)
            base = solve_lp(build_lp(uniform_demand(inst, 1)))[0].objective
            for s in range(1, 7):
                scaled = solve_lp(build_lp(uniform_demand(inst, s)))[0].objective
                assert abs(scaled - s * base) <= 1e-6 * (1.0 + abs(s * base))
        info["detail"] = f"200 certificates, worst relative gap {worst_gap:.1e}; scaling s=1..6 on 50"


def test_criterion_6_oracle_and_split_equivalence():
    """Capped optimum == split-instance optimum == exhaustive enumeration."""
    with criterion("criterion-6 oracle/split equivalence") as info:
        checked_enum = 0
        for t in range(100):
            rng = np.random.default_rng(400000 + t)
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            inst = random_instance(400000 + t, sites=n, clients=m, demand_min=1, demand_max=3)
            caps = rng.integers(inst.max_demand, inst.max_demand + 2, n)
            capped_opt = solve_exact(to_capped(inst, caps))
            split, smap = materialize_split(inst, caps)
            split_opt = solve_exact(to_capped(split, np.ones(split.n, dtype=np.int64)))
            assert abs(capped_opt.cost - split_opt.cost) <= 1e-9 * (1.0 + capped_opt.cost)
            merged = merge_solution(split_opt, smap)
            assert np.all(merged.y <= caps)
            if np.prod(caps + 1) <= 4096:
                ref_cost, _ = enumerate_optimum(to_capped(inst, caps))
                assert abs(capped_opt.cost - ref_cost) <= 1e-9 * (1.0 + ref_cost)
                checked_enum += 1
        info["detail"] = f"100 split equivalences, {checked_enum} enumeration checks"


def test_criterion_7_residual_feasibility_contrast():
    """Flooring strands x = 0.5 above y = 0; holding one back does not."""
    with criterion("criterion-7 residual feasibility contrast") as info:
        inst = Instance(np.array([1.0]), np.array([0]), np.array([[1.0]]))
        sol = FractionalSolution(x=np.array([[0.5]]), y=np.array([1.0]), objective=1.5)
        floored = decompose_large(sol, inst)
        assert float(floored.xbar[0, 0]) == 0.5
        assert float(floored.ybar[0]) == 0.0
        assert not floored.residual_is_feasible
        held = decompose_reduce(sol, inst)
        assert float(held.ybar[0]) == 1.0
        assert held.residual_is_feasible
        assert float((held.xbar - held.ybar[:, None]).max()) <= 1e-9
        info["detail"] = "floor residual infeasible, hold-one-back residual feasible"
