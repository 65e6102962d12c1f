"""Shared fixtures: two tiny hand-checked instances and a random-instance helper."""

from __future__ import annotations

import numpy as np
import pytest

from ftfp.instance import GenParams, Instance, generate

# Two sites, one client with demand 2.  The cheap site (f=3, d=1) serves both
# units: LP* = OPT = 2*3 + 2*1 = 8 with y = (2, 0).
INSTANCE_A = Instance(
    site_costs=np.array([3.0, 10.0]),
    demands=np.array([2], dtype=np.int64),
    dist=np.array([[1.0], [2.0]]),
    name="fixture-a",
)

# Two sites, two clients, each client co-located with one site.  Opening both
# sites and connecting locally costs 2; any cross connection costs 2 on its own.
INSTANCE_B = Instance(
    site_costs=np.array([1.0, 1.0]),
    demands=np.array([1, 1], dtype=np.int64),
    dist=np.array([[0.0, 2.0], [2.0, 0.0]]),
    name="fixture-b",
)


@pytest.fixture
def instance_a() -> Instance:
    return INSTANCE_A


@pytest.fixture
def instance_b() -> Instance:
    return INSTANCE_B


def random_instance(
    seed: int,
    sites: int,
    clients: int,
    demand_min: int = 1,
    demand_max: int = 3,
) -> Instance:
    """Deterministic random instance; thin wrapper so tests read uniformly."""
    return generate(
        GenParams(
            sites=sites,
            clients=clients,
            demand_min=demand_min,
            demand_max=demand_max,
            seed=seed,
        )
    )


def uniform_demand(inst: Instance, s: int) -> Instance:
    """Same sites, costs and distances, every demand replaced by s."""
    r = np.full(inst.m, s, dtype=np.int64)
    return Instance(inst.site_costs, r, inst.dist, name=f"{inst.name}/uniform{s}")


def scaled(inst: Instance, s: float) -> Instance:
    """Same demands, every opening cost and distance multiplied by s."""
    return Instance(inst.site_costs * s, inst.demands, inst.dist * s, name=f"{inst.name}/x{s:g}")


def random_shape(rng: np.random.Generator, lo: int = 1, hi: int = 6) -> tuple[int, int]:
    """Draw (sites, clients) uniformly from [lo, hi]^2."""
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))
