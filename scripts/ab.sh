#!/usr/bin/env bash
# The working tree against one git revision, in alternated pairs.
#
#   scripts/ab.sh <rev> <pairs> bench <workload> [seed]
#   scripts/ab.sh <rev> <pairs> hotpath
#   scripts/ab.sh <rev> <pairs> figures <fig>[,<fig>] [figures flag...]
#
# Both sides are exported into a fresh directory under ${TMPDIR:-/tmp}:
# <rev> with `git archive`, the working tree as its tracked and
# untracked (not ignored) files. So each side is what a commit of it
# would hold, each builds in its own target directory, and nothing is
# written to the checkout or its `.git`. Both are built in release
# mode first; then each pair runs both sides once, and the side that
# goes first alternates from pair to pair.
#
# bench: one run of the benchmark harness per side and pair
# (`--workload <workload> --seed <seed> --seconds 20 --trace 0`, seed 1
# by default), appended to <dir>/{base,change}.out/runs.jsonl through
# `--out`. Then the harness's `compare` table (base as a, change as b),
# each side's median and quartiles for every end-to-end metric, and the
# number of pairs the change won on each.
#
# hotpath: one default run of the `hotpath` binary per side and pair.
# Then median [min, max] over the runs for every row, per side.
#
# figures: one run of `figures --fig <fig>[,<fig>] --no-csv` per side
# and pair, with any further flags passed on (`--threads 1,2
# --duration-ms 400`, say). Then median [min, max] over the runs for
# every row of every table, per side: the row's `committed` column, or
# `ops/s` where a table has none.
#
# Run nothing else meanwhile: the runs are timed, and on a small host
# anything beside them moves the numbers. The directory is kept for a
# second look; its path is printed first.
set -euo pipefail

usage() {
    sed -n '4,6p' "$0" | sed 's/^#  */usage: /' >&2
    exit 2
}

[ $# -ge 3 ] || usage
rev=$1 pairs=$2 mode=$3
case $mode in
    bench)
        [ $# -ge 4 ] && [ $# -le 5 ] || usage
        workload=$4 seed=${5:-1}
        ;;
    hotpath) [ $# -eq 3 ] || usage ;;
    figures)
        [ $# -ge 4 ] || usage
        figs=$4
        shift 4
        fig_args=("$@")
        ;;
    *) usage ;;
esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --verify "$rev^{commit}")
dir=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab: $mode, base $base_rev against the working tree, in $dir" >&2

mkdir "$dir/base" "$dir/change" "$dir/base.out" "$dir/change.out"
git -C "$root" archive "$base_rev" | tar -x -C "$dir/base"
(
    cd "$root"
    git ls-files -z -co --exclude-standard | while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done | tar --null -T - -cf -
) | tar -x -C "$dir/change"

bench() { # <side dir> <harness args...>
    local side=$1
    shift
    (cd "$side" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}

for side in base change; do
    echo "ab: building $side" >&2
    case $mode in
        bench)
            (cd "$dir/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
            # The harness builds the server beside itself on every run;
            # build it now so the first timed run does not.
            (cd "$dir/$side" && CARGO_TARGET_DIR=benchmark/target \
                cargo build --release --offline --quiet -p txboost-server --bin txboost-server)
            ;;
        hotpath | figures)
            (cd "$dir/$side" && cargo build --release --offline --quiet -p txboost-bench --bin "$mode")
            ;;
    esac
done

run() { # <side> <pair>
    local side=$1 pair=$2
    echo "ab: pair $pair, $side" >&2
    case $mode in
        bench)
            bench "$dir/$side" --workload "$workload" --seed "$seed" --seconds 20 --trace 0 \
                --out "$dir/$side.out" >>"$dir/$side.out/console.txt" 2>&1 ||
                echo "ab: pair $pair, $side: the run failed (see $dir/$side.out/console.txt)" >&2
            ;;
        hotpath)
            "$dir/$side/target/release/hotpath" --no-json >>"$dir/$side.out/hotpath.txt" 2>&1 ||
                echo "ab: pair $pair, $side: the run failed" >&2
            ;;
        figures)
            "$dir/$side/target/release/figures" --fig "$figs" --no-csv "${fig_args[@]}" \
                >>"$dir/$side.out/figures.txt" 2>&1 ||
                echo "ab: pair $pair, $side: the run failed" >&2
            ;;
    esac
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do run "$side" "$pair"; done
done

if [ "$mode" = bench ]; then
    bench "$dir/base" compare "$dir/base.out/runs.jsonl" "$dir/change.out/runs.jsonl" || true
    python3 - "$dir/base/BENCHMARK.json" "$dir/base.out/runs.jsonl" "$dir/change.out/runs.jsonl" <<'EOF'
import json, statistics, sys

def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

spec = json.load(open(sys.argv[1]))
base, change = load(sys.argv[2]), load(sys.argv[3])
print(f"{len(base)} base runs, {len(change)} change runs; median [q1, q3]")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
    if not a or not b:
        continue
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    won = sum(y < x if lower else y > x for x, y in zip(a, b))
    tied = sum(y == x for x, y in zip(a, b))
    gap = (b2 - a2) / a2 * 100 if a2 else 0.0
    print(f"{name:22} base {a2:.4g} [{a1:.4g}, {a3:.4g}]  change {b2:.4g} "
          f"[{b1:.4g}, {b3:.4g}]  {gap:+.1f}%  change won {won}/{min(len(a), len(b))}"
          + (f" ({tied} tied)" if tied else ""))
EOF
elif [ "$mode" = figures ]; then
    python3 - "$dir/base.out/figures.txt" "$dir/change.out/figures.txt" <<'EOF'
import statistics, sys

def rows(path):
    # Each table is a `=== title ===` line, a header, a rule, then one
    # row per line up to the first line that is not one.
    out, title, header = {}, None, None
    with open(path) as f:
        for line in f:
            cells = line.split()
            if line.startswith("=== "):
                title, header = line.strip("= \n"), None
            elif title and header is None and cells:
                header = cells
            elif header and cells and not set(line.strip()) <= {"-"}:
                if len(cells) != len(header):
                    title = header = None
                    continue
                row = dict(zip(header, cells))
                col = "committed" if "committed" in row else "ops/s"
                name = row["impl"] + (f" x{row['threads']}" if "threads" in row else "")
                out.setdefault(title, {}).setdefault(f"{name} ({col})", []).append(float(row[col]))
    return out

base, change = rows(sys.argv[1]), rows(sys.argv[2])
cell = lambda xs: f"{statistics.median(xs):.0f} [{min(xs):.0f}, {max(xs):.0f}]" if xs else "-"
for title, table in base.items():
    print(f"\n{title}")
    print(f"  {'median [min, max]':36} {'base':>28} {'change':>28}")
    for name, a in table.items():
        b = change.get(title, {}).get(name, [])
        print(f"  {name:36} {cell(a):>28} {cell(b):>28}")
EOF
else
    python3 - "$dir/base.out/hotpath.txt" "$dir/change.out/hotpath.txt" <<'EOF'
import re, statistics, sys

ROW = re.compile(r"^  (\S.*?)\s+([0-9.]+) ns/op")

def rows(path):
    out = {}
    with open(path) as f:
        for line in f:
            m = ROW.match(line)
            if m:
                out.setdefault(m.group(1), []).append(float(m.group(2)))
    return out

base, change = rows(sys.argv[1]), rows(sys.argv[2])
print(f"{'ns/op, median [min, max]':48} {'base':>24} {'change':>24}")
for name, a in base.items():
    b = change.get(name, [])
    cell = lambda xs: f"{statistics.median(xs):.1f} [{min(xs):.1f}, {max(xs):.1f}]" if xs else "-"
    print(f"{name:48} {cell(a):>24} {cell(b):>24}")
EOF
fi
