"""Benchmark entry point.

    python3 perfbench/run.py --workload store-ycsb-a --seed 0 --seconds 20 --trace 0

Runs one workload (paper-figs, store-ycsb-a or cluster-failover) from
the repository's own ``src/`` for about ``--seconds`` seconds.  It
prints a detail record (host, samples, simulated metrics, problems)
and, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace
0``, the per-layer metrics with ``--trace 1``.  A traced run also
writes its spans to ``.perfbench/`` at the repository root.

Exits 2 without a result when the program's sources are missing or
when an environment variable that changes the measured code path is
set, and 1 when a check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro under %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    set_env = [n for n in harness.GUARDED_ENV if n in os.environ]
    if set_env:
        print("perfbench: refusing to run with %s set: each selects another "
              "code path than the one measured" % ", ".join(set_env),
              file=sys.stderr)
        return 2

    summary = harness.run(
        workloads.make(args.workload), args.seed, args.seconds,
        bool(args.trace), harness.load_reference(),
    )
    if args.trace:
        summary["detail"]["spans_file"] = str(
            harness.write_spans(summary, ROOT / ".perfbench")
            .relative_to(ROOT)
        )
    print(json.dumps(summary["detail"], sort_keys=True))
    print(json.dumps({
        key: summary[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
