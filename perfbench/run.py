#!/usr/bin/env python3
"""Builds and runs the server-path benchmark (see README.md here).

    python3 perfbench/run.py --workload oltp-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is compiled in Release from
the repository's sources into $CARGO_TARGET_DIR (default .bench_build)
and keeps its stores there. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp-large", "analytic-large", "oltp-small"]
RUN_TIMEOUT_S = 170
# Per-layer counters that must repeat exactly for one seed on the
# single-client workloads.
DETERMINISTIC = [
    "storage.wal.bytes_per_txn",
    "storage.checkpoint.count",
    "pattern.cand_per_match",
    "graph.nodes",
    "graph.edges",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "session.h")):
        raise SystemExit("perfbench: no GOOD sources under " + ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "good_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "good_perfbench")


def revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns its stdout lines. Raises on failure."""
    # Relative to the root (the working directory), so the unix socket
    # path inside it stays short however deep the checkout is.
    data = os.path.relpath(os.path.join(os.path.dirname(build_dir()), "data"), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data", data, "--revision", revision(), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (workload, proc.returncode))
    return [line for line in proc.stdout.splitlines() if line.strip()]


def selftest(binary):
    """Determinism self-test: one seed gives one request stream and, on
    the single-client workloads, identical deterministic counters."""
    ok = True
    for w in WORKLOADS:
        d1 = json.loads(run(binary, w, 1, 2, 0, ["--digest-only"])[-1])["stream_digest"]
        d1b = json.loads(run(binary, w, 1, 2, 0, ["--digest-only"])[-1])["stream_digest"]
        d2 = json.loads(run(binary, w, 2, 2, 0, ["--digest-only"])[-1])["stream_digest"]
        same, differs = d1 == d1b, d1 != d2
        log("%-15s stream seed 1 twice: %s; seed 2 differs: %s"
            % (w, "identical" if same else "DIFFERENT", "yes" if differs else "NO"))
        ok = ok and same and differs
    # Eight seconds' worth of operations includes checkpoints on both.
    for w in ("oltp-large", "analytic-large"):
        runs = [json.loads(run(binary, w, 1, 8, 1)[-1]) for _ in range(2)]
        for name in DETERMINISTIC:
            a, b = (r["metrics"][name]["value"] for r in runs)
            log("%-15s %-28s %s %s %s" % (w, name, a, "==" if a == b else "!=", b))
            ok = ok and a == b
        ok = ok and all(r["correct"] for r in runs)
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return selftest(binary)
    lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("perfbench: malformed result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
