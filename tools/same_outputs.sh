#!/usr/bin/env bash
# Run one fixed set of CLI commands from two source trees and compare every
# output byte for byte: the files each command writes, its stdout and stderr,
# and its exit code.
#
# usage: tools/same_outputs.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a checkout of the repository (or its src/ directory).
# Exits 0 when the two trees' outputs are identical, 1 on any difference
# (printed by diff -r), 2 on a usage error.  This is the check for a
# deletion or simplification that must leave the CLI outputs unchanged.
set -u

usage() { echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2; exit 2; }
[ $# -eq 2 ] || usage

# the directory holding the sigma2lab package: the tree itself or its src/
package_root() {
    if [ -d "$1/src/sigma2lab" ]; then (cd "$1/src" && pwd)
    elif [ -d "$1/sigma2lab" ]; then (cd "$1" && pwd)
    else echo "$0: no sigma2lab package under $1" >&2; exit 2
    fi
}
parent=$(package_root "$1") || exit 2
change=$(package_root "$2") || exit 2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run NAME ARGS...: one CLI command, its files in $out/NAME, its streams
# and exit code beside them; the tree's own path is masked in stderr
run() {
    local name=$1; shift
    mkdir -p "$out/$name"
    PYTHONPATH="$src" python -m sigma2lab "$@" >"$out/$name.stdout" 2>"$out/$name.stderr"
    echo $? >"$out/$name.exit"
    sed -i "s|$src|SRC|g; s|$out|OUT|g" "$out/$name.stderr"
}

configs=$work/configs
mkdir -p "$configs"
: >"$configs/default.cfg"
printf 'n = 3\npoints_per_axis = 8\n' >"$configs/n3.cfg"
printf 'profile = manufactured\n' >"$configs/manufactured.cfg"

for side in parent change; do
    if [ $side = parent ]; then src=$parent; else src=$change; fi
    out=$work/$side
    mkdir -p "$out"
    echo "running the command set from $src" >&2
    run solve-default solve --config "$configs/default.cfg" --out "$out/solve-default" --no-header
    run solve-n3 solve --config "$configs/n3.cfg" --out "$out/solve-n3" --no-header
    run solve-manufactured solve --config "$configs/manufactured.cfg" \
        --out "$out/solve-manufactured" --no-header
    run moser-check moser-check --config "$configs/manufactured.cfg" \
        --solution "$out/solve-manufactured/solution.bin" --out "$out/moser-check" --no-header
    run verify verify --fast --seed 0
    run degeneracy-n2 degeneracy --n 2 --out "$out/degeneracy-n2" --no-header
    run degeneracy-n3 degeneracy --n 3 --out "$out/degeneracy-n3" --no-header
    run sweep-a sweep-a --a-list 0.1,0.08 --out "$out/sweep-a" --no-header
done

for f in "$work"/change/*.exit; do   # a shared failure is still a match
    [ "$(cat "$f")" = 0 ] || echo "note: $(basename "$f" .exit) exited $(cat "$f")" >&2
done
if diff -r "$work/parent" "$work/change"; then
    echo "same outputs: $(find "$work/change" -type f | wc -l) files identical" >&2
    exit 0
fi
echo "outputs differ" >&2
exit 1
