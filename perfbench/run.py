#!/usr/bin/env python3
"""Run one greenvis benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out results.jsonl] [driver options...]

Run from the root of a greenvis checkout. The script builds the C++ driver
from the checkout's sources into $CARGO_TARGET_DIR (default .bench_build),
clears every GREENVIS_* environment variable so no leftover setting changes
the program being measured, and runs the driver. The driver's last output
line is the result object; the line before it is the full record (seed,
host fingerprint, sample counts). --out appends both, as one JSON line, to a
file that perfbench/compare.py reads.

Any other option is passed to the driver (see perfbench/README.md).
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit_id():
    """The checkout's git commit, or a digest of its sources outside git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(env):
    build_dir = env.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main(argv):
    out_path = None
    args = []
    it = iter(argv)
    for a in it:
        if a == "--out":
            out_path = next(it, None)
            if out_path is None:
                fail("--out needs a file name")
        else:
            args.append(a)
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")

    env = {k: v for k, v in os.environ.items() if not k.startswith("GREENVIS_")}
    driver = build(env)
    cmd = [driver, "--reference-dir", os.path.join(HERE, "reference"),
           "--commit", commit_id(), *args]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if out_path and len(lines) >= 2 and lines[-2].startswith('{"record"'):
        record = json.loads(lines[-2])
        record["result"] = json.loads(lines[-1])
        with open(out_path, "a") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
