#!/usr/bin/env python3
"""Compare two sets of benchmark results recorded with `run.py --record`.

Usage:

    python3 mcbench/compare.py BEFORE.jsonl AFTER.jsonl

Prints, per workload and metric, each side's median, its quartile
spread as a share of the median, and the after/before ratio. Refuses
(exit code 2) to compare results whose host fingerprints differ in
nproc, CPU model or build profile: timings from different hosts are not
comparable. The revisions may differ; that is what is being compared.
"""

import json
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "profile")


def load(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        sys.exit(f"compare: {path} holds no results")
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS) for r in records}
    if len(hosts) != 1:
        sys.exit(f"compare: {path} mixes host fingerprints {sorted(hosts)}")
    return records, hosts.pop()


def by_metric(records):
    """{(workload, trace, metric): [values]} over correct results."""
    out = {}
    for r in records:
        if not r["result"]["correct"]:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (before, host_a), (after, host_b) = load(sys.argv[1]), load(sys.argv[2])
    if host_a != host_b:
        print(f"compare: refusing to compare across hosts: {dict(zip(HOST_KEYS, host_a))} "
              f"vs {dict(zip(HOST_KEYS, host_b))}", file=sys.stderr)
        sys.exit(2)
    a, b = by_metric(before), by_metric(after)
    print(f"{'workload':<16} {'metric':<22} {'before':>12} {'spread':>7} "
          f"{'after':>12} {'spread':>7} {'after/before':>12}")
    for key in sorted(set(a) & set(b)):
        (ma, sa), (mb, sb) = summary(a[key]), summary(b[key])
        ratio = mb / ma if ma else float("nan")
        print(f"{key[0]:<16} {key[2]:<22} {ma:>12.5g} {sa:>7.3f} {mb:>12.5g} {sb:>7.3f} "
              f"{ratio:>12.4f}")


if __name__ == "__main__":
    main()
