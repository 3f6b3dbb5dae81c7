"""Inputs of the four benchmark workloads, and how the benchmark finds gridclear.

The benchmark runs from the root of a source checkout and imports the
package from `src/`, never from an installed copy, so it always measures
the code next to it. Every seeded input comes from `numpy.random` generators
keyed by the workload seed and a fixed stream number, so one seed always
gives the same inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The ROADMAP's fixed scenario suite: (label, topology, demands in MWh).
FIXED_SUITE = (
    ("full4", "full", (8.0, 11.0, 11.0, 6.0)),
    ("ring4", "ring", (8.0, 11.0, 11.0, 6.0)),
    ("line4", "line", (2.0, 11.0, 9.0, 6.0)),
    ("full6", "full", (1.0, 3.0, 10.0, 6.0, 9.0, 4.0)),
    ("ring6", "ring", (9.0, 2.0, 7.0, 10.0, 1.0, 5.0)),
)
SEEDED_MARKETS = 2          # extra converge-suite markets drawn from the seed
MESH_NODES = 20
MESH_ROUNDS = 200           # rounds per mesh-scale pass
ORACLE_MARKET = ("line", (2.0, 11.0, 9.0, 6.0))   # clears in 401 rounds
LOCAL_PROBLEMS = 200        # local-oracle problems per oracle-check pass
TCP_DEMANDS = (2.0, 11.0)   # line of two nodes
TCP_ROUNDS = 2000


def bootstrap() -> None:
    """Put the checkout's `src/` first on sys.path; exit 1 if it is missing."""
    if not (SRC / "gridclear" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridclear sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def seeded_rng(seed: int, stream: int):
    import numpy as np
    return np.random.default_rng([seed, stream])


def scenario(kind: str, demands):
    """A market with the package's default cost curves and step schedule."""
    from gridclear import topology
    from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                       DEFAULT_TRANSFER_COST)
    from gridclear.market import Scenario
    m = len(demands)
    return Scenario(topology=topology.build(kind, m), demands=tuple(demands),
                    gen_costs=(DEFAULT_GENERATION_COST,) * m,
                    transfer_cost=DEFAULT_TRANSFER_COST)


def converge_markets(seed: int):
    """[(label, scenario)]: the fixed suite, then the seeded batch.

    Seeded markets have 3-6 nodes, a full/ring/line topology and demands
    drawn from U(1, 11) MWh.
    """
    markets = [(label, scenario(kind, d)) for label, kind, d in FIXED_SUITE]
    rng = seeded_rng(seed, 1)
    for k in range(SEEDED_MARKETS):
        m = int(rng.integers(3, 7))
        kind = ("full", "ring", "line")[int(rng.integers(0, 3))]
        demands = tuple(float(x) for x in rng.uniform(1.0, 11.0, size=m))
        markets.append((f"seeded{k}", scenario(kind, demands)))
    return markets


def mesh_market(seed: int | None = None):
    """A full mesh whose demands are a stratified U(1, 11) MWh sample.

    One demand is drawn from each of MESH_NODES equal slices of [1, 11] and
    the draws are shuffled over the nodes. Each node's demand is still
    U(1, 11), but every seed covers the range evenly. Even so the median
    round time of a 200-round run moves by a third between seeds, because
    the regime mix follows the demands. Without a seed, the demands are the
    slices' midpoints in ascending order: the fixed mesh that mesh-scale
    measures.
    """
    import numpy as np
    width = 10.0 / MESH_NODES
    if seed is None:
        demands = 1.0 + width * (np.arange(MESH_NODES) + 0.5)
    else:
        rng = seeded_rng(seed, 2)
        demands = 1.0 + width * (np.arange(MESH_NODES) + rng.uniform(size=MESH_NODES))
        rng.shuffle(demands)
    return scenario("full", tuple(float(x) for x in demands))


def local_problems(seed: int):
    """Random local problems, drawn the way the acceptance tests draw them:
    0-3 sellers, prices U(40, 80), demand U(0, 11) with 15% exactly zero.

    The seller count cycles through 0-3 instead of being drawn, so every
    seed has the same mix; the oracle's cost per problem grows with it.
    """
    from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                       DEFAULT_TRANSFER_COST)
    from gridclear.local_solver import LocalProblem
    rng = seeded_rng(seed, 3)
    out = []
    for k in range(LOCAL_PROBLEMS):
        n = k % 4
        sellers = {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(n)}
        demand = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 11.0))
        out.append(LocalProblem(node=0, demand=demand,
                                gen_cost=DEFAULT_GENERATION_COST,
                                transfer_cost=DEFAULT_TRANSFER_COST,
                                seller_prices=sellers,
                                own_price=float(rng.uniform(40.0, 80.0))))
    return out


def tcp_market():
    return scenario("line", TCP_DEMANDS)


def build_inputs(workload: str, seed: int):
    """Everything a workload needs before its first timed pass."""
    if workload == "converge-suite":
        return converge_markets(seed)
    if workload == "mesh-scale":
        return mesh_market(), mesh_market(seed)
    if workload == "oracle-check":
        return scenario(*ORACLE_MARKET), local_problems(seed)
    if workload == "tcp-pair":
        return tcp_market()
    raise ValueError(f"unknown workload {workload!r}")
