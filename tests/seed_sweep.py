#!/usr/bin/env python3
"""Criteria 5, 6 and 7 of the acceptance gate, seed by seed, for any seeds.

    python tests/seed_sweep.py --seeds 0-19 --jobs 2

The gate judges five seeds, and its verdicts flip on rounding and on
sampler details, so a model or training change is judged here on more
seeds. The script imports the gate's own pieces from test_acceptance.py
(the pretraining run of criteria 5 and 6, criterion 6's evaluation and
criterion 7's probe), so it cannot drift from the gate. Each seed runs in
its own process with BLAS pinned to one thread; --jobs N runs N seeds at a
time. pytest does not collect this file.

Per seed it prints criterion 5's four means (tri a2/a3, grid a2/a3), hit
or miss, and a collapse flag (all four means within 0.002 of one another:
the model outputs one constant); the best and stopping epochs; criterion
6's base and flipped Hits@10 per graph; and criterion 7's transfer delta.
The last line is a JSON object with every row. The exit code is 1 when a
seed's process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
COLLAPSE = 0.002


def one_seed(seed: int) -> dict:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import test_acceptance as gate

    run = gate._pattern_switch_run(seed)
    tri_a2, tri_a3 = run["means"]["tri"]
    grid_a2, grid_a3 = run["means"]["grid"]
    means = [tri_a2, tri_a3, grid_a2, grid_a3]
    flips = gate._flip_hits(run)
    return dict(
        seed=seed, c5_means=means, c5_hit=tri_a2 > tri_a3 and grid_a2 < grid_a3,
        collapsed=max(means) - min(means) <= COLLAPSE,
        best_epoch=run["record"].best_epoch, stopped_epoch=run["record"].stopped_epoch,
        c6=[[name, base, flip] for name, base, flip in flips],
        c6_hit=all(flip <= 0.5 * base for _, base, flip in flips),
        c7_delta=gate._transfer_delta(seed), train_s=run["train_s"],
    )


def seed_list(text: str) -> list:
    """'0-19' or '0,3,7' (or both, comma-separated) -> sorted seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def run_child(seed: int):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--one", str(seed)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None, f"seed {seed} failed with exit code {done.returncode}:\n{done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def describe(row: dict) -> str:
    tri_a2, tri_a3, grid_a2, grid_a3 = row["c5_means"]
    c6 = " ".join(f"{name} {base:.2f}->{flip:.2f}" for name, base, flip in row["c6"])
    return (f"seed {row['seed']:>3}: C5 tri {tri_a2:.3f}/{tri_a3:.3f} grid {grid_a2:.3f}/{grid_a3:.3f} "
            f"{'hit ' if row['c5_hit'] else 'miss'}{' COLLAPSED' if row['collapsed'] else ''}; "
            f"epochs best {row['best_epoch']} stop {row['stopped_epoch']}; "
            f"C6 {c6} {'ok' if row['c6_hit'] else 'X'}; C7 {row['c7_delta']:+.3f}; "
            f"train {row['train_s']:.0f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="e.g. 0-19 or 0,3,7 (default 0-19)")
    parser.add_argument("--jobs", type=int, default=1, help="seeds run at a time (default 1)")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(one_seed(args.one)))
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    rows, failed = [], 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for row, error in pool.map(run_child, seed_list(args.seeds)):
            if error:
                failed += 1
                print(error, file=sys.stderr)
            else:
                rows.append(row)
                print(describe(row), flush=True)
    n = len(rows)
    if n:
        print(f"C5 hits {sum(r['c5_hit'] for r in rows)}/{n} "
              f"(collapsed {sum(r['collapsed'] for r in rows)}); "
              f"C6 hits {sum(r['c6_hit'] for r in rows)}/{n}; "
              f"C7 mean delta {sum(r['c7_delta'] for r in rows) / n:+.4f}")
    print(json.dumps({"rows": rows, "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
