import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridclear import cli_harness
from gridclear.cli_harness import (_TOP_LEVEL_KEYS, ConfigError, main,
                                   parse_config, parse_values)
from gridclear.cost_models import DEFAULT_GENERATION_COST
from gridclear.market import run
from gridclear.topology import build


def config_file(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def free_ports(n):
    socks = [socket.socket() for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


# -- config parsing -----------------------------------------------------------

def test_minimal_config_fills_defaults():
    spec = parse_config('{"demands": [8, 11, 11, 6]}')
    scn = spec.scenario
    assert scn.topology.m == 4
    assert len(scn.topology.edge_index[0]) == 12    # full by default
    assert scn.demands == (8.0, 11.0, 11.0, 6.0)
    assert scn.gen_costs[0] is DEFAULT_GENERATION_COST
    assert scn.transfer_cost.lin == 1.0 and scn.transfer_cost.cub == 1.0
    assert scn.alpha0 == 0.5
    assert scn.tol_gap == 1e-4 and scn.tol_mismatch == 1e-3
    assert scn.max_iters == 20000
    assert spec.out_dir == "out"
    assert spec.rounds is None and spec.agents is None


def test_full_config_document():
    spec = parse_config(json.dumps({
        "M": 2,
        "topology": {"adjacency": [[0, 1], [1, 0]]},
        "demands": [2, 10],
        "gen_costs": [{"a": 10.0, "b": 5.0, "c": 0.1, "e_max": 12.0},
                      {"b": 60.0}],
        "transfer_cost": {"lin": 2.0, "cub": 0.5},
        "step": {"alpha0": 0.3},
        "tol_gap": 1e-5,
        "tol_mismatch": 1e-4,
        "max_iters": 5000,
        "rounds": 100,
        "agents": [{"id": 0, "addr": "127.0.0.1:9001"},
                   {"id": 1, "addr": "localhost:9002"}],
        "out_dir": "results",
    }))
    scn = spec.scenario
    assert scn.topology.adj == ((False, True), (True, False))
    assert scn.gen_costs[0].a == 10.0 and scn.gen_costs[0].e_max == 12.0
    assert scn.gen_costs[1].b == 60.0
    assert scn.gen_costs[1].a == DEFAULT_GENERATION_COST.a   # unset -> default
    assert scn.transfer_cost.lin == 2.0
    assert scn.alpha0 == 0.3
    assert scn.tol_gap == 1e-5 and scn.max_iters == 5000
    assert spec.rounds == 100
    assert spec.agents == {0: ("127.0.0.1", 9001), 1: ("localhost", 9002)}
    assert spec.out_dir == "results"


def test_single_gen_cost_applies_to_every_node():
    spec = parse_config('{"demands": [1, 2, 3], "gen_cost": {"c": 0.5}}')
    assert all(g.c == 0.5 for g in spec.scenario.gen_costs)
    assert all(g.b == DEFAULT_GENERATION_COST.b for g in spec.scenario.gen_costs)


def test_config_errors_name_the_path():
    cases = [
        ("not json", "not valid JSON"),
        ("[1, 2]", "top level"),
        ('{"demands": [1], "bogus": 3}', "config.bogus"),
        ('{"M": 2}', "config.demands: required"),
        ('{"demands": []}', "config.demands"),
        ('{"demands": [1, -2]}', r"config.demands\[1\]"),
        ('{"M": 3, "demands": [1, 2]}', "config.M"),
        ('{"demands": [1, 2], "topology": "star"}', "config.topology"),
        ('{"demands": [1, 2], "topology": [[0], [0]]}', "2x2"),
        ('{"demands": [1, 2], "topology": [[1, 1], [1, 0]]}',
         "cannot trade with itself"),
        ('{"demands": [1, 2], "topology": [[0, 2], [1, 0]]}', "0 or 1"),
        ('{"demands": [1, 2], "topology": {"adjacency": [[0, 1], [1, 0]], '
         '"kind": "ring"}}', "config.topology.kind: unknown key"),
        ('{"demands": [1], "gen_cost": {}, "gen_costs": [{}]}', "not both"),
        ('{"demands": [1, 2], "gen_costs": [{}]}', "2 entries"),
        ('{"demands": [1], "gen_cost": {"volts": 3}}', "config.gen_cost.volts"),
        ('{"demands": [1], "gen_cost": {"b": 0}}', "config.gen_cost"),
        ('{"demands": [1], "transfer_cost": {"cub": 0}}', "config.transfer_cost"),
        ('{"demands": [1], "step": {"alpha0": -1}}',
         "config: alpha0 must be positive"),
        ('{"demands": [1], "step": {"alpha0": "x"}}', "config.step.alpha0"),
        ('{"demands": [1], "step": 0.5}', "config.step: expected an object"),
        ('{"demands": [1], "step": {"kappa": 500}}',
         "config.step.kappa: unknown key"),
        ('{"demands": [1], "tol_gap": 0}', "tol_gap"),
        ('{"demands": [1], "mode": "sweep"}', "config.mode: unknown key"),
        ('{"demands": [1], "seed": 3}', "config.seed: unknown key"),
        ('{"demands": [1], "sweep_node": 0}', "config.sweep_node: unknown key"),
        ('{"demands": [1], "sweep_values": [1]}',
         "config.sweep_values: unknown key"),
        ('{"demands": [1], "rounds": 0}', "config.rounds"),
        ('{"demands": [1], "agents": {"0": "x"}}', "config.agents"),
        ('{"demands": [1], "agents": [{"id": 0}]}', "id and addr"),
        ('{"demands": [1], "agents": [{"id": 0, "addr": "nohost"}]}',
         "host:port"),
        ('{"demands": [1], "agents": [{"id": 3, "addr": "h:1"}]}',
         "out of range"),
        ('{"demands": [1, 2], "agents": [{"id": 0, "addr": "h:1"}, '
         '{"id": 0, "addr": "h:2"}]}', "duplicate"),
        ('{"demands": [1], "out_dir": ""}', "config.out_dir"),
        ('{"demands": [1], "max_iters": 2.5}', "config.max_iters"),
        ('{"demands": ["two"]}', "expected a number"),
    ]
    for text, match in cases:
        with pytest.raises(ConfigError, match=match):
            parse_config(text)


def test_parse_values():
    assert parse_values("1..4") == [1.0, 2.0, 3.0, 4.0]
    assert parse_values("2,4.5,7") == [2.0, 4.5, 7.0]
    assert parse_values("3") == [3.0]
    with pytest.raises(ConfigError):
        parse_values("4..1")
    with pytest.raises(ConfigError):
        parse_values("a,b")
    with pytest.raises(ConfigError):
        parse_values("-1,2")
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_values("-2..1")


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^- `(\w+)`:", readme, flags=re.MULTILINE))
    assert documented == _TOP_LEVEL_KEYS


# -- subcommands --------------------------------------------------------------

def test_run_writes_trace_and_summary(tmp_path):
    cfg = config_file(tmp_path, {"demands": [7, 7]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["rounds"] >= 1
    assert len(summary["final_prices"]) == 2
    header = (out / "trace.csv").read_text().split("\n")[0]
    assert header.split(",")[:3] == ["k", "lambda_0", "lambda_1"]
    assert len((out / "trades.csv").read_text().strip().split("\n")) == 2


def test_run_fixed_rounds(tmp_path):
    cfg = config_file(tmp_path, {"demands": [2, 10], "topology": "line"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--rounds", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 3
    assert summary["converged"] is False


def test_python_m_gridclear_runs(tmp_path):
    # `python -m gridclear` goes through the package's __main__.py.
    cfg = config_file(tmp_path, {"demands": [2, 10], "topology": "line"})
    out = tmp_path / "out"
    src = Path(cli_harness.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "gridclear", "run", "--config", cfg,
         "--rounds", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 3


def test_sweep_emits_one_row_per_node_and_value(tmp_path):
    cfg = config_file(tmp_path, {"demands": [7, 7]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--node", "0",
                 "--values", "6,7", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("sweep_demand,node,local_cost")
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "6.0" and first[1] == "0"
    assert first[-1] in ("true", "false")
    assert len(first) == len(lines[0].split(","))


def test_oracle_compare_within_tolerance(tmp_path):
    cfg = config_file(tmp_path, {"demands": [2, 10], "topology": "line"})
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    header, row = (out / "oracle_compare.csv").read_text().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["rel_err"]) <= 0.005
    assert fields["converged"] == "true"


def test_out_dir_precedence(tmp_path, monkeypatch):
    cfg = config_file(tmp_path, {"demands": [7, 7],
                                 "out_dir": str(tmp_path / "from_config")})
    monkeypatch.delenv("GRIDCLEAR_OUT", raising=False)
    assert main(["run", "--config", cfg, "--rounds", "1"]) == 0
    assert (tmp_path / "from_config" / "summary.json").exists()

    monkeypatch.setenv("GRIDCLEAR_OUT", str(tmp_path / "from_env"))
    assert main(["run", "--config", cfg, "--rounds", "1"]) == 0
    assert (tmp_path / "from_env" / "summary.json").exists()

    assert main(["run", "--config", cfg, "--rounds", "1",
                 "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "summary.json").exists()


def test_config_problems_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    cfg = config_file(tmp_path, {"demands": [7, 7]})
    for rounds in ("0", "-3"):
        assert main(["run", "--config", cfg, "--rounds", rounds,
                     "--out", str(tmp_path / "o")]) == 2
        assert "--rounds: must be at least 1" in capsys.readouterr().err
        assert main(["agent", "--config", cfg, "--id", "0", "--rounds", rounds,
                     "--out", str(tmp_path / "o")]) == 2
        assert "--rounds: must be at least 1" in capsys.readouterr().err

    for argv in (["sweep", "--config", cfg],   # sweep needs --node
                 ["validate"]):                # no such subcommand
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_tcp_run_needs_agents_and_rounds(tmp_path):
    cfg = config_file(tmp_path, {"demands": [7, 7]})
    assert main(["run", "--config", cfg, "--transport", "tcp",
                 "--rounds", "5", "--out", str(tmp_path / "o")]) == 2

    cfg = config_file(tmp_path, {
        "demands": [7, 7],
        "agents": [{"id": 0, "addr": "127.0.0.1:9001"},
                   {"id": 1, "addr": "127.0.0.1:9002"}]}, name="agents.json")
    assert main(["run", "--config", cfg, "--transport", "tcp",
                 "--out", str(tmp_path / "o")]) == 2


def test_tcp_run_shares_one_deadline_and_reaps_hung_agents(tmp_path, monkeypatch,
                                                          capsys):
    # Agent processes that never exit: the waits share one deadline rather
    # than a full timeout each, and every killed agent is waited for.
    clock = [0.0]
    procs = []

    class HungAgent:
        def __init__(self, argv):
            self.killed = False
            self.timeouts = []
            self.reaped = False
            procs.append(self)

        def wait(self, timeout=None):
            if self.killed:
                self.reaped = True
                return -9
            self.timeouts.append(timeout)
            clock[0] += timeout
            raise subprocess.TimeoutExpired("agent", timeout)

        def poll(self):
            return -9 if self.killed else None

        def kill(self):
            self.killed = True

    monkeypatch.setattr(cli_harness.subprocess, "Popen", HungAgent)
    monkeypatch.setattr(cli_harness, "time",
                        SimpleNamespace(monotonic=lambda: clock[0]))
    cfg = config_file(tmp_path, {
        "demands": [7, 7, 7, 7], "rounds": 5,
        "agents": [{"id": i, "addr": f"127.0.0.1:{9001 + i}"}
                   for i in range(4)]})
    assert main(["run", "--config", cfg, "--transport", "tcp",
                 "--out", str(tmp_path / "o")]) == 3
    assert "timed out: [0, 1, 2, 3]" in capsys.readouterr().err
    assert len(procs) == 4
    assert sum(t for p in procs for t in p.timeouts) <= 120.0
    assert all(p.killed and p.reaped for p in procs)


def test_tcp_run_matches_loopback(tmp_path):
    ports = free_ports(2)
    doc = {
        "demands": [2, 10],
        "topology": "line",
        "rounds": 40,
        "agents": [{"id": i, "addr": f"127.0.0.1:{p}"}
                   for i, p in enumerate(ports)],
    }
    cfg = config_file(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--transport", "tcp",
                 "--out", str(out)]) == 0
    tcp_prices = json.loads((out / "final_prices.json").read_text())["prices"]

    spec = parse_config(json.dumps(doc))
    trace = run(spec.scenario, rounds=40)
    assert tcp_prices == list(trace.final_prices)
    agent0 = json.loads((out / "agent_0.json").read_text())
    assert agent0["price_history"] == [row[0] for row in trace.prices]
