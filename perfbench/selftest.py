#!/usr/bin/env python3
"""Self-tests of the DAIS benchmark. Run from the root of a source checkout.

    python3 perfbench/selftest.py determinism [--seconds S]
    python3 perfbench/selftest.py sensitivity [--seconds S]

determinism: for every workload, two traced runs with one seed report
identical deterministic counts (messages, bytes, rows, items, shard legs
per op, from the traced run's count pass) and send the same request
bytes (hashed on their way to the socket); a run with another seed sends
different requests with the same message, row and leg counts and
consumer byte counts within 1 %.

sensitivity: RUNS seeds per side. Slowing the consumer transport (1 ms
sleep before every exchange, --slow-transport) on tuples_paged only must
push that workload's median p50_ms past the p50_ms bound in
BENCHMARK.json, while every other workload, run twice unchanged, keeps
its median p50_ms within the bound; and in the traced run the layer time
that grew most must be soap.transport_ns.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["tuples_paged", "point_mixed", "xpath_books", "federated_range"]
COUNTS = [
    "soap.messages_per_op",
    "soap.request_bytes_per_op",
    "soap.response_bytes_per_op",
    "sqlengine.rows_per_op",
    "xmldb.items_per_op",
    "federation.legs_per_op",
    "federation.shard_bytes_per_op",
]
SEED_INVARIANT = ["soap.messages_per_op", "sqlengine.rows_per_op", "federation.legs_per_op"]
# Consumer bytes per op barely move with the seed (digit counts of keys
# and prices). Shard bytes are left out: each leg ships up to LIMIT rows
# at or above the range start, so they follow the seeded starts.
SEED_BYTES = ["soap.request_bytes_per_op", "soap.response_bytes_per_op"]
# Timing metrics that each name one layer's own work.
LAYER_TIMES = [
    "soap.queue_wait_ns",
    "soap.envelope_parse_ns",
    "soap.envelope_write_ns",
    "soap.transport_ns",
    "dair.self_ns",
    "daix.self_ns",
    "sqlengine.self_ns",
    "xmldb.xpath_ns",
    "federation.admit_ns",
    "federation.merge_ns",
    "federation.scatter_overhead_ns",
]
SLOWED = "tuples_paged"
RUNS = 3


def bench(workload, seed, seconds, trace, slow=False):
    """One benchmark run: (metrics dict, request-bytes hash or None)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if slow:
        cmd.append("--slow-transport")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct:\n{out}")
    sent_hash = next((l.rsplit(" ", 1)[1] for l in lines if l.startswith("count pass:")), None)
    return {k: v["value"] for k, v in result["metrics"].items()}, sent_hash


def check(ok, what, failures):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def determinism(args, failures):
    for w in WORKLOADS:
        a, ha = bench(w, 1, args.seconds, True)
        b, hb = bench(w, 1, args.seconds, True)
        c, hc = bench(w, 2, args.seconds, True)
        same = {k: (a[k], b[k]) for k in COUNTS}
        check(all(x == y for x, y in same.values()) and ha == hb,
              f"{w}: same seed, same requests sent ({ha}) and counts {same}", failures)
        check(hc != ha, f"{w}: another seed, other requests sent ({ha} vs {hc})", failures)
        check(all(a[k] == c[k] for k in SEED_INVARIANT),
              f"{w}: another seed, same {[(k, a[k], c[k]) for k in SEED_INVARIANT]}", failures)
        drift = {k: abs(c[k] - a[k]) / a[k] for k in SEED_BYTES if a[k]}
        check(all(d <= 0.01 for d in drift.values()),
              f"{w}: another seed, byte counts within 1 % {drift}", failures)


def sensitivity(args, failures):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}["p50_ms"]
    for w in WORKLOADS:
        slow = w == SLOWED
        base = [bench(w, s, args.seconds, False)[0]["p50_ms"] for s in range(1, RUNS + 1)]
        again = [bench(w, s, args.seconds, False, slow)[0]["p50_ms"] for s in range(1, RUNS + 1)]
        growth = statistics.median(again) / statistics.median(base) - 1
        if w == SLOWED:
            check(growth > bound, f"{w}: slowed transport moves p50_ms by {growth:+.3f} > bound {bound}", failures)
        else:
            check(growth <= bound, f"{w}: p50_ms moves by {growth:+.3f}, within bound {bound}", failures)
    base, _ = bench(SLOWED, 1, args.seconds, True)
    slowed, _ = bench(SLOWED, 1, args.seconds, True, True)
    deltas = {k: slowed[k] - base[k] for k in LAYER_TIMES}
    grown = max(deltas, key=deltas.get)
    check(grown == "soap.transport_ns",
          f"{SLOWED}: traced run names {grown} as the layer that grew "
          f"({ {k: round(v) for k, v in sorted(deltas.items(), key=lambda kv: -kv[1])[:3]} } ns)",
          failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("test", choices=["determinism", "sensitivity"])
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    failures = []
    {"determinism": determinism, "sensitivity": sensitivity}[args.test](args, failures)
    print(f"{args.test}: {'all checks passed' if not failures else f'{len(failures)} check(s) failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
