"""Time and size one `load_interactions` call on a large synthetic log.

Writes a seeded, time-ordered log of --lines interactions (1M by default)
into a temporary directory, then loads it in a fresh child process that
imports `dynrec` from this checkout's `src/` and segments the loaded edges
with the default configuration's span and granularity, as every command
does. Prints the seconds each call took and the child's peak resident set
size (`ru_maxrss`) after loading, which includes the interpreter and numpy.
Too slow for the test suite; run it by hand:

    python3 scripts/ingest_probe.py --lines 1000000 --seed 0
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

CHILD = """
import json, resource, sys, time
from dynrec.config import RunConfig
from dynrec.data import load_interactions, segment_snapshots
cfg = RunConfig()
start = time.perf_counter()
edges, _ = load_interactions(sys.argv[1])
loaded = time.perf_counter()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
segment_snapshots(edges, cfg.pretrain_span_seconds, cfg.granularity_seconds)
segmented = time.perf_counter()
print(json.dumps({"lines": len(edges), "load_s": loaded - start, "segment_s": segmented - loaded,
                  "peak_rss_mb": peak_rss_mb}))
"""


def write_log(path: str, n_lines: int, seed: int) -> None:
    """A drift-free log: uniform users and items, ascending timestamps over 90 days."""
    rng = np.random.default_rng(seed)
    log = np.stack(
        [
            rng.integers(0, 50_000, n_lines),
            rng.integers(0, 20_000, n_lines),
            1_700_000_000 + np.sort(rng.integers(0, 90 * 86_400, n_lines)),
        ],
        axis=1,
    )
    np.savetxt(path, log, fmt="%d", delimiter="\t")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.tsv")
        write_log(path, args.lines, args.seed)
        path_dirs = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_dirs))
        child = subprocess.run(
            [sys.executable, "-c", CHILD, path], env=env, capture_output=True, text=True, check=True
        )
    result = json.loads(child.stdout)
    print(
        f"lines {result['lines']}  load_s {result['load_s']:.3f}  "
        f"segment_s {result['segment_s']:.3f}  peak_rss_mb {result['peak_rss_mb']:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
