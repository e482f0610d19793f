#!/usr/bin/env bash
# Run the benchmark on two checkouts in alternated pairs and compare them.
#
# usage: tools/bench_pairs.sh PARENT CHANGE [PAIRS] [SECONDS]
#
# PARENT and CHANGE are checkouts of the repository.  For each of PAIRS
# rounds (default 6) and each workload of CHANGE's BENCHMARK.json, it runs
#   python3 bench/run.py --workload W --seed 0 --seconds SECONDS --trace 0
# (SECONDS defaults to 36) from both checkouts, the parent first in even
# rounds and the change first in odd ones, so a drift in machine speed
# falls on both sides alike.  Then it runs each workload once with --trace 1
# on each side, and ends with bench/run.py --compare of the two record files.
# After it, for each workload and end-to-end metric, it prints how many
# pairs the change won and lost (a tie counts for neither; pair i is the
# i-th --trace 0 run of the workload on each side), each side's median and
# quartiles, and whether the change's median is better than the parent's by
# more than the parent's interquartile range: the readings a claimed gain is
# judged on.
# The records go to a new directory outside both checkouts, parent.jsonl
# and change.jsonl, whose path is printed first.  Exits with --compare's
# code: 0 when the sets agree, 1 when they differ; 2 on a usage error.
set -u

usage() { echo "usage: $0 PARENT CHANGE [PAIRS] [SECONDS]" >&2; exit 2; }
[ $# -ge 2 ] && [ $# -le 4 ] || usage
pairs=${3:-6}
seconds=${4:-36}
for tree in "$1" "$2"; do
    [ -f "$tree/bench/run.py" ] || { echo "$0: no bench/run.py under $tree" >&2; exit 2; }
done
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

out=$(mktemp -d)
echo "records: $out/parent.jsonl $out/change.jsonl"
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$change/BENCHMARK.json") || exit 2

# bench SIDE WORKLOAD TRACE: one bench/run.py run from the side's checkout,
# its result appended to $out/SIDE.jsonl
bench() {
    local tree
    if [ "$1" = parent ]; then tree=$parent; else tree=$change; fi
    echo "$1 $2 trace=$3" >&2
    (cd "$tree" && python3 bench/run.py --workload "$2" --seed 0 --seconds "$seconds" \
        --trace "$3" --record "$out/$1.jsonl" >/dev/null)
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for w in $workloads; do
        for side in $order; do bench "$side" "$w" 0; done
    done
done
for w in $workloads; do
    for side in parent change; do bench "$side" "$w" 1; done
done
(cd "$change" && python3 bench/run.py --compare "$out/parent.jsonl" "$out/change.jsonl")
status=$?

echo
python3 - "$change/BENCHMARK.json" "$out/parent.jsonl" "$out/change.jsonl" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}


def runs(path):
    recs = [json.loads(line) for line in open(path) if line.strip()]
    return [r for r in recs if not r["trace"]]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


sides = [runs(path) for path in sys.argv[2:]]
print(f"{'workload':20s} {'metric':15s} {'won':>5s} {'lost':>5s} "
      f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  better by > parent IQR")
for workload in spec["workloads"]:
    name = workload["name"]
    parent, change = ([r["result"]["metrics"] for r in side if r["workload"] == name]
                      for side in sides)
    pairs = min(len(parent), len(change))
    for metric, direction in better.items():
        a, b = ([m[metric]["value"] for m in side] for side in (parent, change))
        sign = -1.0 if direction == "lower" else 1.0   # sign * (b - a) > 0: the change won
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        lost = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        (ma, qa1, qa3), (mb, qb1, qb3) = spread(a), spread(b)
        print(f"{name:20s} {metric:15s} {won:2d}/{pairs:<2d} {lost:2d}/{pairs:<2d} "
              f"{ma:12.5g} [{qa1:9.5g}, {qa3:9.5g}] {mb:12.5g} [{qb1:9.5g}, {qb3:9.5g}]  "
              f"{'yes' if sign * (mb - ma) > qa3 - qa1 else 'no'}")
EOF
exit $status
