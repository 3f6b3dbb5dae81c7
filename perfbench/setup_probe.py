"""Cold set-up of one workload, timed from outside by the benchmark.

    python3 perfbench/setup_probe.py --workload mesh-scale --seed 1

Starts the interpreter, imports all seven gridclear modules and builds the
workload's inputs, then exits. This is what every `gridclear` command pays
before its first round.
"""

from __future__ import annotations

import argparse

import scenarios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    scenarios.bootstrap()
    import gridclear.cli_harness  # noqa: F401  (imports the other six modules)
    scenarios.build_inputs(args.workload, args.seed)


if __name__ == "__main__":
    main()
