"""Time the per-cycle fixed costs of `run_dynamic` at cli-many-cycles' shape.

Builds the seeded `drift_series` log of the cli-many-cycles workload (480
users, 240 items, 144 h of pre-training, 48 three-hour snapshots) and, for
each of its 47 cycles, times four steps: `build_prompt_graph`, the prompt
pass's `build_weights` and `forward` (d = 64, 3 layers, tau 6 h, phi -0.1),
and `write_user_metrics_csv` of that cycle's ranking of the next snapshot.
The whole sweep repeats `--reps` times in a fresh child process that imports
`dynrec` from this checkout's `src/`. Prints, per step, the median over
repetitions of its total milliseconds across the 47 cycles. Too slow for the
test suite; run it by hand:

    python3 scripts/cycle_probe.py --reps 7 --seed 0
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CHILD = """
import json, os, sys, tempfile, time
import numpy as np
from dynrec.artifacts import write_user_metrics_csv
from dynrec.data import segment_snapshots
from dynrec.evaluation import evaluate_users, pair_keys
from dynrec.prompt import build_prompt_graph
from dynrec.propagation import build_weights, forward
from dynrec.rng import seed_stream
from dynrec.synthetic import drift_series

reps, seed = int(sys.argv[1]), int(sys.argv[2])
log = drift_series(users_per_block=60, items_per_block=30, seed=seed)
series = segment_snapshots(log, 144 * 3600, 3 * 3600)
n_users, n_items = series.n_users, series.n_items
x = np.random.default_rng(seed).normal(0.0, 0.1, size=(n_users + n_items, 64))
steps = ("build_prompt_graph", "build_weights", "forward", "write_user_metrics_csv")
totals = {step: [] for step in steps}
with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "users.csv")
    for _ in range(reps):
        spent = dict.fromkeys(steps, 0.0)
        for k in range(series.n_snapshots - 1):
            t0 = time.perf_counter()
            graph = build_prompt_graph(
                series.pretrain, series.snapshots[: k + 1], -0.1, seed_stream(0, "prompt", k)
            )
            t1 = time.perf_counter()
            weights = build_weights(graph, 6 * 3600.0)
            t2 = time.perf_counter()
            z = forward(weights, x, 3)
            t3 = time.perf_counter()
            relevant = pair_keys(series.snapshots[k + 1], n_users, n_items)
            report = evaluate_users(z, n_users, relevant, series.pretrain.keys, 20)
            t4 = time.perf_counter()
            write_user_metrics_csv(csv_path, report)
            t5 = time.perf_counter()
            for step, took in zip(steps, (t1 - t0, t2 - t1, t3 - t2, t5 - t4)):
                spent[step] += took
        for step in steps:
            totals[step].append(spent[step] * 1e3)
print(json.dumps({
    "cycles": series.n_snapshots - 1,
    "ms": {step: float(np.median(totals[step])) for step in steps},
}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    path_dirs = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(args.reps), str(args.seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout)
    steps = "  ".join(f"{step} {ms:.1f}" for step, ms in result["ms"].items())
    print(f"cycles {result['cycles']}  ms over all cycles: {steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
