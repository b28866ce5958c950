"""Time `evaluate_users` and its `rank_items` blocks at eval-heavy's shape.

Builds a seeded table of 1200 users and 1200 items with d = 64, hides about
2% of the (user, item) pairs as seen and holds out about 1% more as
relevant, then ranks every user with k = 20 over the full catalogue. The
calls run in a fresh child process that imports `dynrec` from this
checkout's `src/`. Prints the median milliseconds per `evaluate_users` call
and the median microseconds per `rank_items` block. Too slow for the test
suite; run it by hand:

    python3 scripts/eval_probe.py --calls 15 --seed 0
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CHILD = """
import json, sys, time
import numpy as np
import dynrec.evaluation as evaluation

n_users = n_items = 1200
calls, seed = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(seed)
x = rng.normal(size=(n_users + n_items, 64))
pairs = rng.random((n_users, n_items))
seen = np.flatnonzero(pairs < 0.02)  # keys user * n_items + item, ascending
relevant = rng.permutation(np.flatnonzero((pairs >= 0.02) & (pairs < 0.03)))

block_us = []
rank_items = evaluation.rank_items

def timed_rank_items(*args, **kwargs):
    start = time.perf_counter()
    ranked = rank_items(*args, **kwargs)
    block_us.append((time.perf_counter() - start) * 1e6)
    return ranked

evaluation.rank_items = timed_rank_items
call_ms = []
for _ in range(calls):
    start = time.perf_counter()
    report = evaluation.evaluate_users(x, n_users, relevant, seen, 20)
    call_ms.append((time.perf_counter() - start) * 1e3)
print(json.dumps({
    "users": int(report.n_users),
    "blocks_per_call": len(block_us) // calls,
    "ms_per_call": float(np.median(call_ms)),
    "us_per_block": float(np.median(block_us)),
}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    path_dirs = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(args.calls), str(args.seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout)
    print(
        f"users {result['users']}  blocks/call {result['blocks_per_call']}  "
        f"ms/call {result['ms_per_call']:.1f}  us/block {result['us_per_block']:.0f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
