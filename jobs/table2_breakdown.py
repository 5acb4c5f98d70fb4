"""Reproduce Table 2: per-index performance breakdown (SO/TPS/ST/IT/TT).

Flood learns its layouts with the benchmark's fixed cost model
(``perfbench/fixed_model/``), fitted without timing, so its layouts and
SO repeat from run to run.

Usage: ``python jobs/table2_breakdown.py [--scale bench|test] [--datasets ...]``
"""
import argparse
import sys
from pathlib import Path

from repro.harness.tables import (DATASETS, PAPER_TABLE2_TT, format_table2,
                                  table2)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.common import fixed_cost_model  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", choices=("bench", "test"), default="bench")
    ap.add_argument("--datasets", nargs="*", default=list(DATASETS))
    ap.add_argument("--train", type=int, default=100)
    ap.add_argument("--test", type=int, default=100)
    ap.add_argument("--no-tune", action="store_true")
    args = ap.parse_args()
    res = table2(scale=args.scale, names=tuple(args.datasets),
                 n_train=args.train, n_test=args.test, cost_model=fixed_cost_model(),
                 tune=not args.no_tune)
    print(format_table2(res))
    print("paper TT (ms) for reference:")
    for name in args.datasets:
        print(f"  {name}: {PAPER_TABLE2_TT[name]}")


if __name__ == "__main__":
    main()
