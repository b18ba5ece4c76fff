#!/usr/bin/env python3
"""Schema check for the BENCH_*.json baselines.

One validator for the baselines bench binaries write into
bench_results/ (the `figures` arena figure, hotpath). CI runs it on
the JSON a fresh short run just emitted and on the committed file.

Usage: check_bench_json.py NAME PATH

BASELINES below is the whole per-baseline knowledge: where the points
live, which fields they carry, which labels must appear (in order), and
which meta scalars are pinned or bound which.
"""

import json
import math
import operator
import sys

OPS = {"<": operator.lt, "<=": operator.le}

SERIES = {
    "points": "series",
    "tags": ("label",),
    "ints": ("threads", "committed", "aborted"),
    "floats": ("throughput", "p50_us", "p99_us"),
    "nonzero": ("threads", "committed"),
}
BASELINES = {
    "arena": {
        **SERIES,
        # Every value of these fields must occur, and no other: each
        # backend runs each workload at each key range.
        "cover": {
            "label": {
                f"{backend}/{workload}/keys={keys}"
                for backend in ("boosted", "rwstm")
                for workload in ("counter", "map", "transfer", "pqueue")
                for keys in (16, 256, 4096)
            },
        },
    },
    "hotpath": {
        **SERIES,
        "labels": [
            "empty-txn",
            "empty-txn x2 threads",
            "first-acquire",
            "first-acquire @262144 keys",
            "reacquire",
            "shared-acquire",
            "counter-add 1-op txn",
            "log-undo inline",
            "log-undo boxed",
            "map 3-op txn",
            "map 3-op txn, versioned",
            "map 3-op txn, versioned x2 threads, disjoint keys",
            "snapshot scan4 @1024 keys",
            "snapshot scan4 @262144 keys",
            "executor transfer 3-op script",
            "executor transfer x2 threads, disjoint keys",
            "executor rscan4 script",
            "executor rscan4 script @262144 keys",
        ],
        # Allocations per transaction: the executor's transfer script
        # allocates its results vector; an 8-lock, a one-add counter, a
        # 3-op map (never read, and versioned) and a 4-lookup snapshot
        # transaction, and inline undo pushes, allocate nothing.
        "meta": {
            "allocs_per_script_transfer3": "1",
            "allocs_per_txn_lock8": "0",
            "allocs_per_txn_counter_add": "0",
            "allocs_per_txn_map3": "0",
            "allocs_per_txn_map3_versioned": "0",
            "allocs_per_txn_snapshot4": "0",
            "allocs_per_txn_log_inline": "0",
        },
        # The boxed control: the counting allocator sees boxing at all.
        "meta_positive": ("allocs_per_txn_log_boxed",),
        # meta[a] OP RATIO * meta[b]. Reacquiring a held lock is cheaper
        # than taking it; first acquisition does not depend on the key
        # universe (the lock table is a fixed slot array); a shared
        # acquire costs at most two exclusive ones, an empty transaction
        # three; the executor's accounting costs less than the snapshot
        # transaction it accounts for.
        "meta_ratios": (
            ("reacquire_ns", "<", 1.0, "first_acquire_ns"),
            ("first_acquire_262144_ns", "<=", 2.0, "first_acquire_ns"),
            ("shared_acquire_ns", "<=", 2.0, "first_acquire_ns"),
            ("empty_txn_ns", "<=", 3.0, "first_acquire_ns"),
            ("executor_rscan4_ns", "<=", 2.0, "snapshot4_1024_ns"),
        ),
    },
}


def fail(msg):
    print(f"{sys.argv[2]}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_point(spec, i, point):
    for key in spec["tags"] + spec["ints"] + spec["floats"]:
        if key not in point:
            fail(f"point {i} missing {key}")
    for key in spec["ints"]:
        if not isinstance(point[key], int) or point[key] < 0:
            fail(f"point {i}: {key} = {point[key]!r} not a non-negative int")
    for key in spec["nonzero"]:
        if point[key] == 0:
            fail(f"point {i}: {key} is zero (no progress, or an empty rung)")
    for key in spec["floats"]:
        v = point[key]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            fail(f"point {i}: {key} = {v!r} not finite and non-negative")


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in BASELINES:
        sys.exit(f"usage: check_bench_json.py {{{'|'.join(BASELINES)}}} PATH")
    name, path = sys.argv[1], sys.argv[2]
    spec = BASELINES[name]

    with open(path) as f:
        doc = json.load(f)
    if doc.get("name") != spec.get("name", name):
        fail(f'name is {doc.get("name")!r}, expected {spec.get("name", name)!r}')
    for key, want in spec.get("meta", {}).items():
        if doc.get("meta", {}).get(key) != want:
            fail(f"meta.{key} is not {want!r}")
    meta = doc.get("meta", {})
    for key in spec.get("meta_positive", ()):
        if not float(meta.get(key, "0")) > 0:
            fail(f"meta.{key} = {meta.get(key)} is not positive")
    for first, op, ratio, second in spec.get("meta_ratios", ()):
        a, b = float(meta.get(first, "inf")), float(meta.get(second, "0"))
        if not OPS[op](a, ratio * b):
            fail(f"meta.{first} = {meta.get(first)} not {op} {ratio} x meta.{second} = {meta.get(second)}")
    points = doc.get(spec["points"])
    if not points:
        fail(f'no {spec["points"]}')
    for i, point in enumerate(points):
        check_point(spec, i, point)

    for key, allowed in spec.get("cover", {}).items():
        seen = {p[key] for p in points}
        if seen != allowed:
            fail(f"{key} values {sorted(seen)} != {sorted(allowed)}")
    labels = [p.get("label") for p in points]
    if "labels" in spec and labels != spec["labels"]:
        fail(f'labels {labels} are not {spec["labels"]}')

    print(f'{path}: {len(points)} {spec["points"]} OK')


if __name__ == "__main__":
    main()
