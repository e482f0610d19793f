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
