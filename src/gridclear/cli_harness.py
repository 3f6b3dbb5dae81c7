"""Command-line harness: config parsing, experiment drivers, CSV output.

Subcommands:

  run            one market run (loopback, or tcp with one process per node)
  sweep          rerun while varying one node's demand; per-node CSV rows
  oracle-compare market primal cost vs the independent global solver
  agent          a single node's process in a tcp mesh

Exit codes: 0 success, 1 oracle-compare disagreement (the market did not
converge or missed the global solver's cost by more than 0.5%), 2
configuration problem, 3 runtime failure. The output directory comes
from --out if given, else the GRIDCLEAR_OUT environment variable, else the
config's out_dir (default "out").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import topology
from .cost_models import (DEFAULT_GENERATION_COST, DEFAULT_TRANSFER_COST,
                          CubicTransfer, SoftCappedQuadratic)
from .local_solver import net_expenditure
from .market import Scenario, run, run_agent, solve_all
from .oracle import solve_global_numeric
from .topology import Topology
from .transport import TcpTransport

__all__ = ["ExperimentSpec", "ConfigError", "parse_config", "main"]

_TOP_LEVEL_KEYS = {
    "M", "topology", "demands", "gen_cost", "gen_costs", "transfer_cost",
    "step", "tol_gap", "tol_mismatch", "max_iters", "rounds", "agents",
    "out_dir",
}
_GEN_COST_KEYS = {"a", "b", "c", "e_max", "cap_scale", "cap_exponent"}
_TRANSFER_KEYS = {"lin", "cub"}
_STEP_KEYS = {"alpha0"}


class ConfigError(ValueError):
    """A config document failed validation; message names the path."""


@dataclass
class ExperimentSpec:
    scenario: Scenario
    out_dir: str = "out"
    rounds: int | None = None
    agents: dict | None = None   # node id -> (host, port)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_object(value, path: str, allowed: set) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    for key in value:
        if key not in allowed:
            raise ConfigError(
                f"{path}.{key}: unknown key (allowed: {sorted(allowed)})")
    return value


def _gen_cost_from(obj, path: str) -> SoftCappedQuadratic:
    obj = _as_object(obj, path, _GEN_COST_KEYS)
    base = DEFAULT_GENERATION_COST
    kwargs = {k: getattr(base, k) for k in _GEN_COST_KEYS}
    for key, value in obj.items():
        if key == "cap_exponent":
            kwargs[key] = _as_int(value, f"{path}.{key}")
        else:
            kwargs[key] = _as_float(value, f"{path}.{key}")
    try:
        return SoftCappedQuadratic(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _transfer_from(obj, path: str) -> CubicTransfer:
    obj = _as_object(obj, path, _TRANSFER_KEYS)
    kwargs = {"lin": DEFAULT_TRANSFER_COST.lin, "cub": DEFAULT_TRANSFER_COST.cub}
    for key, value in obj.items():
        kwargs[key] = _as_float(value, f"{path}.{key}")
    try:
        return CubicTransfer(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


def _topology_from(value, m: int, path: str) -> Topology:
    if isinstance(value, str):
        if value not in topology.KINDS:
            raise ConfigError(
                f"{path}: unknown kind {value!r}, expected one of {topology.KINDS} "
                f"or an adjacency matrix")
        return topology.build(value, m)
    rows = (_as_object(value, path, {"adjacency"}).get("adjacency")
            if isinstance(value, dict) else value)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{path}: expected a kind name or a list of rows")
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ConfigError(f"{path}: adjacency must be {m}x{m}")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell not in (0, 1, True, False):
                raise ConfigError(
                    f"{path}[{i}][{j}]: adjacency entries must be 0 or 1")
        if row[i]:
            raise ConfigError(
                f"{path}[{i}][{i}]: a node cannot trade with itself; "
                f"diagonal entries must be 0")
    return topology.from_adjacency(rows)


def _agents_from(value, m: int, path: str) -> dict:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of {{id, addr}} entries")
    table = {}
    for k, entry in enumerate(value):
        entry = _as_object(entry, f"{path}[{k}]", {"id", "addr"})
        if "id" not in entry or "addr" not in entry:
            raise ConfigError(f"{path}[{k}]: needs both id and addr")
        node = _as_int(entry["id"], f"{path}[{k}].id")
        if not 0 <= node < m:
            raise ConfigError(f"{path}[{k}].id: node {node} out of range for M={m}")
        if node in table:
            raise ConfigError(f"{path}[{k}].id: duplicate node {node}")
        addr = entry["addr"]
        if not isinstance(addr, str) or ":" not in addr:
            raise ConfigError(f"{path}[{k}].addr: expected \"host:port\", got {addr!r}")
        host, _, port_text = addr.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(f"{path}[{k}].addr: bad port {port_text!r}") from None
        if not (host and 0 < port < 65536):
            raise ConfigError(f"{path}[{k}].addr: expected \"host:port\", got {addr!r}")
        table[node] = (host, port)
    return table


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON config document into a fully validated ExperimentSpec.

    Only demands is required; everything else defaults (full topology,
    default cost curves, default first price step and tolerances).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(
                f"config.{key}: unknown key (allowed: {sorted(_TOP_LEVEL_KEYS)})")

    if "demands" not in doc:
        raise ConfigError("config.demands: required")
    raw_demands = doc["demands"]
    if not isinstance(raw_demands, list) or not raw_demands:
        raise ConfigError("config.demands: expected a non-empty list of MWh values")
    demands = []
    for i, d in enumerate(raw_demands):
        v = _as_float(d, f"config.demands[{i}]")
        if v < 0:
            raise ConfigError(f"config.demands[{i}]: must be nonnegative, got {v}")
        demands.append(v)
    m = len(demands)
    if "M" in doc:
        declared = _as_int(doc["M"], "config.M")
        if declared != m:
            raise ConfigError(
                f"config.demands: expected {declared} entries (config.M), got {m}")

    top = _topology_from(doc.get("topology", "full"), m, "config.topology")

    if "gen_costs" in doc and "gen_cost" in doc:
        raise ConfigError("config.gen_costs: give either gen_cost or gen_costs, not both")
    if "gen_costs" in doc:
        raw = doc["gen_costs"]
        if not isinstance(raw, list) or len(raw) != m:
            raise ConfigError(f"config.gen_costs: expected a list of {m} entries")
        gen_costs = tuple(_gen_cost_from(entry, f"config.gen_costs[{i}]")
                          for i, entry in enumerate(raw))
    elif "gen_cost" in doc:
        gen_costs = (_gen_cost_from(doc["gen_cost"], "config.gen_cost"),) * m
    else:
        gen_costs = (DEFAULT_GENERATION_COST,) * m

    transfer = (_transfer_from(doc["transfer_cost"], "config.transfer_cost")
                if "transfer_cost" in doc else DEFAULT_TRANSFER_COST)

    # Scenario holds the defaults and the range rules of these fields.
    kwargs = {}
    step = _as_object(doc.get("step", {}), "config.step", _STEP_KEYS)
    if "alpha0" in step:
        kwargs["alpha0"] = _as_float(step["alpha0"], "config.step.alpha0")
    for key in ("tol_gap", "tol_mismatch"):
        if key in doc:
            kwargs[key] = _as_float(doc[key], f"config.{key}")
    if "max_iters" in doc:
        kwargs["max_iters"] = _as_int(doc["max_iters"], "config.max_iters")
    try:
        scenario = Scenario(topology=top, demands=tuple(demands),
                            gen_costs=gen_costs, transfer_cost=transfer,
                            **kwargs)
    except ValueError as e:
        raise ConfigError(f"config: {e}") from None

    rounds = None
    if "rounds" in doc:
        rounds = _as_int(doc["rounds"], "config.rounds")
        if rounds < 1:
            raise ConfigError(f"config.rounds: must be at least 1, got {rounds}")

    agents = _agents_from(doc["agents"], m, "config.agents") if "agents" in doc else None

    out_dir = doc.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config.out_dir: expected a path, got {out_dir!r}")

    return ExperimentSpec(scenario=scenario, out_dir=out_dir, rounds=rounds,
                          agents=agents)


def _load_spec(path: str) -> ExperimentSpec:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from None
    return parse_config(text)


def _resolve_out(spec: ExperimentSpec, cli_out) -> Path:
    out = cli_out or os.environ.get("GRIDCLEAR_OUT") or spec.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _round_count(args, spec: ExperimentSpec):
    """--rounds if given, else config.rounds, else None (run to convergence)."""
    rounds = args.rounds if args.rounds is not None else spec.rounds
    if rounds is not None and rounds < 1:
        raise ConfigError(f"--rounds: must be at least 1, got {rounds}")
    return rounds


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    spec = _load_spec(args.config)
    out = _resolve_out(spec, args.out)
    rounds = _round_count(args, spec)
    if args.transport == "tcp":
        return _run_tcp(spec, args.config, rounds, out)

    trace = run(spec.scenario, rounds=rounds)
    (out / "trace.csv").write_text(trace.trace_csv())
    (out / "trades.csv").write_text(trace.trades_csv())
    rel_gap, worst = trace.convergence()
    summary = {
        "converged": trace.converged,
        "rounds": trace.rounds(),
        "final_prices": list(trace.final_prices),
        "final_cases": list(trace.final_cases),
        "primal": trace.primals[-1],
        "best_dual": trace.best_duals[-1],
        "gap": trace.gaps[-1],
        "rel_gap": rel_gap,
        "max_mismatch": worst,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"converged: {trace.converged} after {trace.rounds()} rounds")
    print(f"final prices: {[round(x, 6) for x in trace.final_prices]}")
    print(f"primal {trace.primals[-1]:.6f}  best dual {trace.best_duals[-1]:.6f}  "
          f"relative gap {rel_gap:.3e}")
    print(f"wrote {out / 'trace.csv'}, {out / 'trades.csv'}, {out / 'summary.json'}")
    return 0


def _run_tcp(spec: ExperimentSpec, config_path: str, rounds, out: Path) -> int:
    m = spec.scenario.topology.m
    if spec.agents is None or sorted(spec.agents) != list(range(m)):
        raise ConfigError(
            "config.agents: tcp transport needs an address for every node")
    if rounds is None:
        raise ConfigError(
            "config.rounds: tcp transport needs a fixed round count "
            "(config key \"rounds\" or --rounds)")
    procs = []
    try:
        for i in range(m):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "gridclear.cli_harness", "agent",
                 "--config", config_path, "--id", str(i),
                 "--rounds", str(rounds), "--out", str(out)]))
        # One deadline for the whole mesh, however many agents hang.
        deadline = time.monotonic() + max(120.0, 0.1 * rounds)
        failed = []
        for i, p in enumerate(procs):
            try:
                if p.wait(timeout=max(0.0, deadline - time.monotonic())) != 0:
                    failed.append(i)
            except subprocess.TimeoutExpired:
                failed.append(i)
        if failed:
            raise RuntimeError(f"agent processes failed or timed out: {failed}")
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    results = []
    for i in range(m):
        results.append(json.loads((out / f"agent_{i}.json").read_text()))
    summary = {
        "rounds": rounds,
        "prices": [r["price_history"][-1] for r in results],
        "post_update_prices": [r["final_price"] for r in results],
        "final_cases": [r["case_history"][-1] for r in results],
    }
    (out / "final_prices.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"tcp run over {rounds} rounds, {m} agent processes")
    print(f"final prices: {[round(x, 6) for x in summary['prices']]}")
    print(f"wrote {out / 'final_prices.json'}")
    return 0


def _cmd_agent(args) -> int:
    spec = _load_spec(args.config)
    out = _resolve_out(spec, args.out)
    m = spec.scenario.topology.m
    node = args.id
    if not 0 <= node < m:
        raise ConfigError(f"--id: node {node} out of range for M={m}")
    rounds = _round_count(args, spec)
    if rounds is None:
        raise ConfigError(
            "config.rounds: agent mode needs a fixed round count "
            "(config key \"rounds\" or --rounds)")
    if spec.agents is None:
        raise ConfigError("config.agents: required for agent mode")
    top = spec.scenario.topology
    neighbors = sorted({*top.sellers[node], *top.buyers[node]})
    for peer in [node] + neighbors:
        if peer not in spec.agents:
            raise ConfigError(f"config.agents: no address for node {peer}")
    transport = TcpTransport(node, spec.agents, neighbors)
    transport.connect()
    try:
        result = run_agent(spec.scenario, node, rounds, transport)
    finally:
        transport.close()
    (out / f"agent_{node}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"agent {node}: {rounds} rounds, final price {result['final_price']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def parse_values(text: str):
    """Parse --values: either "lo..hi" (integer endpoints, step 1) or a
    comma-separated list of numbers."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ConfigError(
                f"--values: range endpoints must be integers, got {text!r}") from None
        if lo < 0:
            raise ConfigError(f"--values: demands must be nonnegative, got {text!r}")
        if hi < lo:
            raise ConfigError(f"--values: empty range {text!r}")
        return [float(v) for v in range(lo, hi + 1)]
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"--values: expected numbers, got {text!r}") from None
    if any(v < 0 or not math.isfinite(v) for v in values):
        raise ConfigError(f"--values: demands must be nonnegative, got {text!r}")
    return values


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.config)
    out = _resolve_out(spec, args.out)
    node = args.node
    m = spec.scenario.topology.m
    if not 0 <= node < m:
        raise ConfigError(f"--node: node {node} out of range for M={m}")
    values = (parse_values(args.values) if args.values is not None
              else [float(v) for v in range(1, 12)])

    header = ("sweep_demand,node,local_cost,disconnected_cost,e_gen,e_sell,"
              "e_buy_total,lambda_star,case_id,income,converged")
    lines = [header]
    for value in values:
        demands = list(spec.scenario.demands)
        demands[node] = value
        scenario = dataclasses.replace(spec.scenario, demands=tuple(demands))
        trace = run(scenario)
        lam = trace.final_prices
        for i, (p, sol) in enumerate(solve_all(lam, scenario)):
            local_cost = net_expenditure(p, sol)
            disconnected = (scenario.gen_costs[i].value(scenario.demands[i])
                            + scenario.transfer_cost.value(0.0))
            income = lam[i] * sol.e_sell
            lines.append(",".join([
                repr(value), str(i), repr(local_cost), repr(disconnected),
                repr(sol.e_gen), repr(sol.e_sell), repr(sol.total_bought()),
                repr(lam[i]), str(sol.case_id), repr(income),
                "true" if trace.converged else "false",
            ]))
        flag = "" if trace.converged else "  [did not converge]"
        print(f"demand {value:g} at node {node}: {trace.rounds()} rounds{flag}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(values)} values x {m} nodes)")
    return 0


# ---------------------------------------------------------------------------
# oracle-compare
# ---------------------------------------------------------------------------

def _cmd_oracle_compare(args) -> int:
    spec = _load_spec(args.config)
    out = _resolve_out(spec, args.out)
    trace = run(spec.scenario)
    reference = solve_global_numeric(spec.scenario)
    primal = trace.primals[-1]
    rel = abs(primal - reference.total_cost) / abs(reference.total_cost)
    header = "primal,oracle_cost,rel_err,rounds,converged"
    row = ",".join([repr(primal), repr(reference.total_cost), repr(rel),
                    str(trace.rounds()),
                    "true" if trace.converged else "false"])
    (out / "oracle_compare.csv").write_text(header + "\n" + row + "\n")
    print(f"market primal   {primal:.6f} ({trace.rounds()} rounds, "
          f"converged={trace.converged})")
    print(f"oracle cost     {reference.total_cost:.6f}")
    print(f"relative error  {rel:.3e}")
    print(f"wrote {out / 'oracle_compare.csv'}")
    ok = trace.converged and rel <= 0.005
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridclear",
        description="Distributed energy-trading market clearing simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one market to convergence")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--transport", choices=("loopback", "tcp"), default="loopback")
    p.add_argument("--rounds", type=int, default=None,
                   help="run a fixed number of rounds instead of to convergence")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="rerun while varying one node's demand")
    p.add_argument("--config", required=True)
    p.add_argument("--node", type=int, required=True, help="node whose demand varies")
    p.add_argument("--values", default=None,
                   help="demand values: \"1..11\" or \"2,4.5,7\"")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle-compare",
                       help="compare the market's cost against the global solver")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("agent", help="one node of a tcp mesh (one process per node)")
    p.add_argument("--config", required=True)
    p.add_argument("--id", type=int, required=True, help="this node's id")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_agent)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
