#!/usr/bin/env python3
"""Build and run the model-checker benchmark.

Usage, from the root of the repository:

    python3 mcbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 mcbench/run.py --smoke

The first form builds `mcbench` in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), prints the host fingerprint, runs one benchmark
run and passes its output through: the last line of standard output is
the JSON result. `--record FILE` also appends the result, with the
fingerprint, to FILE as one JSON line; `mcbench/compare.py` compares two
such files. The exit code is the benchmark's: nonzero when an
exploration missed its pinned answer, or when the sources are missing.

`--smoke` runs every workload of BENCHMARK.json once untraced and once
traced, and checks that each run is correct and emits exactly the named
metrics with their units, and that `mcbench/moves.json` maps every
per-layer metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg, code):
    print(f"mcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        fail("the repository's crates are missing: run from a full checkout", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr: stdout ends with the result.
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if res.returncode != 0:
        fail("build failed", 3)
    return os.path.join(target_dir(), "release", "mcbench")


def source_rev():
    """The git revision, or a digest of the sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "mcbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    """The host fingerprint recorded with every result. Results compare
    only when nproc, cpu_model and profile agree; rev says what ran."""
    return {
        "rev": source_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "profile": "release",
    }


def run_binary(exe, workload, seed, seconds, trace):
    """Runs one benchmark run; returns (exit code, stdout lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    return res.returncode, res.stdout.splitlines()


def last_json(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def smoke(exe, seed):
    """Checks every workload emits every named metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "moves.json")) as fh:
        moves = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []
    mapped = [m for layer in moves["layers"] for m in layer["metrics"]]
    for layer in moves["layers"]:
        for name in layer["moves"]:
            if name not in expected[0]:
                problems.append(f"moves.json: {layer['layer']} moves unknown metric {name}")
        for name in layer["workloads"]:
            if name not in workloads:
                problems.append(f"moves.json: {layer['layer']} names unknown workload {name}")
    if sorted(mapped) != sorted(expected[1]):
        problems.append("moves.json does not map each per-layer metric exactly once")
    for workload in workloads:
        for trace in (0, 1):
            code, lines = run_binary(exe, workload, seed, 0, trace)
            result = last_json(lines)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit code {code}, no result")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: not correct")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"smoke {where}: {len(got)} metrics, correct={result.get('correct')}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke OK" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result with its fingerprint to this file")
    ap.add_argument("--smoke", action="store_true",
                    help="check every workload emits every named metric")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required", 2)
    exe = build()
    if args.smoke:
        sys.exit(smoke(exe, args.seed))
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)
    code, lines = run_binary(exe, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    result = last_json(lines)
    if args.record and result is not None:
        record = {"fingerprint": fp, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "result": result}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
