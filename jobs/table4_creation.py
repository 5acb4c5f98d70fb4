"""Reproduce Table 4: index creation time (seconds).

Flood is split into learning (layout optimization, §4.2) and loading
(building the index at the learned layout), as in the paper. Flood
learns with the benchmark's fixed cost model (``perfbench/fixed_model/``),
fitted without timing, so its layouts repeat from run to run.

Usage: ``python jobs/table4_creation.py [--scale bench|test]``
"""
import argparse
import sys
from pathlib import Path

from repro.harness.tables import format_table4, table4

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.common import fixed_cost_model  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", choices=("bench", "test"), default="bench")
    ap.add_argument("--train", type=int, default=100)
    args = ap.parse_args()
    res = table4(scale=args.scale, n_train=args.train, cost_model=fixed_cost_model())
    print("index creation time (seconds)")
    print(format_table4(res))


if __name__ == "__main__":
    main()
