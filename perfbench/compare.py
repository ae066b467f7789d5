#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds results appended by `perfbench/run.py --out FILE`. For every
(workload, trace) pair present in both, prints each metric's median on both
sides and the change. An end-to-end metric that got worse by more than its
BENCHMARK.json bound is flagged REGRESSED. This reports, it does not judge
gains: see perfbench/README.md for the pairing rule a claimed gain must meet.

Results are comparable only from the same host and build: the command
refuses (exit 2) when any fingerprint field other than the commit differs,
within a file or between the two.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host_fingerprint(record):
    fp = dict(record["fingerprint"])
    fp.pop("commit", None)
    return fp


def refuse(message):
    print(f"compare: refusing to compare: {message}", file=sys.stderr)
    sys.exit(2)


def check_fingerprints(base, new):
    ref = host_fingerprint(base[0])
    for name, records in (("BASE", base), ("NEW", new)):
        for r in records:
            fp = host_fingerprint(r)
            for key in sorted(set(ref) | set(fp)):
                if ref.get(key) != fp.get(key):
                    refuse(f"host fingerprints differ on '{key}': "
                           f"{ref.get(key)!r} vs {fp.get(key)!r} (in {name}); "
                           "re-measure both commits on one host")


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def medians(records):
    values = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        refuse("a result file is empty")
    check_fingerprints(base, new)
    spec = bounds()
    groups = sorted({(r["workload"], r["trace"]) for r in base} &
                    {(r["workload"], r["trace"]) for r in new})
    regressed = False
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        mb, mn = medians(b), medians(n)
        print(f"== {workload} (trace {trace}; {len(b)} vs {len(n)} runs)")
        for name in mb:
            if name not in mn:
                continue
            change = (mn[name] / mb[name] - 1.0) if mb[name] else float("nan")
            flag = ""
            m = spec.get(name, {})
            if "bound" in m and mb[name]:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    flag = "  REGRESSED"
                    regressed = True
            print(f"  {name:28s} {mb[name]:12.6g} -> {mn[name]:12.6g} "
                  f"({change:+.1%}){flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
