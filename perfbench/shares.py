#!/usr/bin/env python3
"""Per-layer shares of host time from a traced benchmark run's spans.

    python3 perfbench/run.py --workload snapshot_io --seed 0 --seconds 12 \\
        --trace 1 --spans-out .bench_build/spans.jsonl
    python3 perfbench/shares.py .bench_build/spans.jsonl

For each pipeline run of an op (averaged over the traced ops) prints the
self time of every span name on the driver's thread as a share of the run's
wall time; nested spans are subtracted from their parent, so the shares sum
to 1. `core` is the driver glue between layer calls. Spans on the staging
writer thread overlap the driver's and are listed apart, as a share of the
same wall time.
"""
import collections
import json
import sys


def main(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    by_id = {s["id"]: s for s in spans}
    child = collections.Counter()
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None and p["thread"] == s["thread"]:
            child[s["parent"]] += s["end_s"] - s["start_s"]

    def run_of(s):
        while s is not None and not (s["name"].startswith("run.") or
                                     s["name"] == "op"):
            s = by_id.get(s["parent"])
        return s

    wall = collections.Counter()
    self_time = collections.defaultdict(collections.Counter)
    writer = collections.defaultdict(collections.Counter)
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        run = run_of(s)
        label = run["name"] if run else "op"
        if s is run:
            wall[label] += dur
        name = "core" if s is run or s["name"] == "op" else s["name"]
        if s["thread"] == 0:
            self_time[label][name] += dur - child[s["id"]]
        else:
            writer[label][name] += dur - child[s["id"]]
    ops = len({s["op"] for s in spans}) or 1
    for label in sorted(wall):
        if label == "op" and len(wall) > 1:
            continue  # op glue around runs is tiny; shown per run instead
        print(f"{label}: {wall[label] / ops:.3f} s per op")
        for name, t in self_time[label].most_common():
            print(f"  {name:22s} {t / wall[label]:7.1%}")
        for name, t in writer[label].most_common():
            print(f"  {name:22s} {t / wall[label]:7.1%}  (writer thread)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1])
