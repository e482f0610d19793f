#!/usr/bin/env bash
# Run one fixed set of CLI commands from two source trees and compare every
# output byte for byte: the files each command writes, its stdout and stderr,
# and its exit code.
#
# usage: tools/same_outputs.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a checkout of the repository (or its src/ directory).
# Exits 0 when the two trees' outputs are identical, 1 on any difference
# (printed by diff -r), 2 on a usage error.  For each command and tree it
# also prints, to stderr, the command's wall seconds and its peak RSS
# (the child's getrusage maximum), which are not compared.  This is the check for a
# deletion or simplification that must leave the CLI outputs unchanged.
# When outputs differ, it also prints, for each differing file, the largest
# absolute difference of its numbers (float64 payload of a field dump, or
# the numeric tokens of a text file whose other tokens agree, a token read
# as a number once the characters ()[]:; are stripped from its ends), so a
# change that only moves rounding shows as such; the exit code is 1 all the
# same.
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

# timed LABEL STDOUT STDERR CMD...: runs CMD with its streams in the two
# files, prints LABEL, its wall seconds and its peak RSS to this script's
# stderr, and exits with CMD's code
timed='
import resource, subprocess, sys, time
label, stdout, stderr, cmd = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
start = time.perf_counter()
with open(stdout, "wb") as out, open(stderr, "wb") as err:
    code = subprocess.call(cmd, stdout=out, stderr=err)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024   # KiB on Linux
print(f"{label}: {wall:.2f} s, peak RSS {peak:.1f} MiB", file=sys.stderr)
sys.exit(code if code >= 0 else 128 - code)
'

# run NAME ARGS...: one CLI command, its files in $out/NAME, its streams
# and exit code beside them; the tree's own path is masked in stderr.  Its
# wall time and peak RSS are printed, outside the compared files.
run() {
    local name=$1; shift
    mkdir -p "$out/$name"
    PYTHONPATH="$src" python3 -c "$timed" "$side $name" "$out/$name.stdout" "$out/$name.stderr" \
        python -m sigma2lab "$@"
    echo $? >"$out/$name.exit"
    sed -i "s|$src|SRC|g; s|$out|OUT|g" "$out/$name.stderr"
}

configs=$work/configs
mkdir -p "$configs"
: >"$configs/default.cfg"
printf 'n = 3\npoints_per_axis = 8\n' >"$configs/n3.cfg"
printf 'profile = manufactured\n' >"$configs/manufactured.cfg"
# criterion 6 on 32^4: walks on 16^4, and its prolonged field passes the
# 32^4 check with no Newton step
printf 'profile = manufactured\npoints_per_axis = 32\n' >"$configs/manufactured32.cfg"
printf 'points_per_axis = 32\n' >"$configs/grid32.cfg"   # walks on 16^4, finishes on 32^4
# the same at f_scale = mu_scale = 4, whose 32^4 finish takes Newton steps
printf 'points_per_axis = 32\nf_scale = 4\nmu_scale = 4\n' >"$configs/grid32-scale4.cfg"
# the default data on 64^4: walks on 16^4, and the prolonged field passes the
# 32^4 check and then the 64^4 one, so the recursion is compared too
printf 'points_per_axis = 64\n' >"$configs/grid64.cfg"
# an 8^4 walk whose Newton attempts fail: the solve stalls at t = 0.125 and
# exits 3, so a start after a failed attempt, which evaluates its field
# again, is compared too
printf 'points_per_axis = 8\nf_scale = 0\nmu_scale = 3\nmax_newton_iters = 3\nt_step_min = 0.05\nA = 0.5\n' \
    >"$configs/stall.cfg"
# an 8^4 walk at mu_scale = 20 whose Newton steps backtrack: about 230
# rejected trials and a ConeBreakdownError before it stalls at t = 0.6309
# and exits 3, so the damped step's trials are compared too
printf 'points_per_axis = 8\nmu_scale = 20\n' >"$configs/backtrack.cfg"

for side in parent change; do
    if [ $side = parent ]; then src=$parent; else src=$change; fi
    out=$work/$side
    mkdir -p "$out"
    echo "running the command set from $src" >&2
    run solve-default solve --config "$configs/default.cfg" --out "$out/solve-default" --no-header
    run solve-n3 solve --config "$configs/n3.cfg" --out "$out/solve-n3" --no-header
    run solve-32 solve --config "$configs/grid32.cfg" --out "$out/solve-32" --no-header
    run solve-64 solve --config "$configs/grid64.cfg" --out "$out/solve-64" --no-header
    run solve-32-scale4 solve --config "$configs/grid32-scale4.cfg" \
        --out "$out/solve-32-scale4" --no-header
    run solve-manufactured-32 solve --config "$configs/manufactured32.cfg" \
        --out "$out/solve-manufactured-32" --no-header
    run solve-manufactured solve --config "$configs/manufactured.cfg" \
        --out "$out/solve-manufactured" --no-header
    run moser-check moser-check --config "$configs/manufactured.cfg" \
        --solution "$out/solve-manufactured/solution.bin" --out "$out/moser-check" --no-header
    # a solution whose Hessian has off-diagonal imaginary parts, so the wedge
    # density's off-diagonal terms are compared too
    run moser-check-scale4 moser-check --config "$configs/grid32-scale4.cfg" \
        --solution "$out/solve-32-scale4/solution.bin" --out "$out/moser-check-scale4" --no-header
    run verify verify --fast --seed 0
    run degeneracy-n2 degeneracy --n 2 --out "$out/degeneracy-n2" --no-header
    run degeneracy-n3 degeneracy --n 3 --out "$out/degeneracy-n3" --no-header
    run sweep-a sweep-a --a-list 0.1,0.08 --out "$out/sweep-a" --no-header
    run solve-stall solve --config "$configs/stall.cfg" --out "$out/solve-stall" --no-header
    run sweep-a-stall sweep-a --config "$configs/stall.cfg" --a-list 0.5,0.2 \
        --out "$out/sweep-a-stall" --no-header
    run solve-backtrack solve --config "$configs/backtrack.cfg" \
        --out "$out/solve-backtrack" --no-header
done

for f in "$work"/change/*.exit; do   # a shared failure is still a match
    [ "$(cat "$f")" = 0 ] || echo "note: $(basename "$f" .exit) exited $(cat "$f")" >&2
done
if diff -r "$work/parent" "$work/change"; then
    echo "same outputs: $(find "$work/change" -type f | wc -l) files identical" >&2
    exit 0
fi
# largest absolute difference of the numbers of each differing file
diff -rq "$work/parent" "$work/change" | sed -n 's/^Files \(.*\) and \(.*\) differ$/\1\t\2/p' |
python3 -c '
import sys
import numpy as np

MAGIC, HEADER = b"S2LFIELD", 32   # field dumps: magic, three float64, payload
PUNCT = "()[]:;"   # stripped from the ends of a token before it is read as a number


def numbers(path):
    raw = open(path, "rb").read()
    if raw.startswith(MAGIC):
        return None, np.frombuffer(raw[HEADER:], dtype="<f8")
    words, nums = [], []
    for tok in raw.decode(errors="replace").replace(",", " ").split():
        core = tok.strip(PUNCT)   # "(residual 1.648e-09))" ends in a number
        try:
            nums.append(float(core))
            words.append(tok.replace(core, "", 1))   # the punctuation is compared
        except ValueError:
            words.append(tok)
    return words, np.array(nums)


for line in sys.stdin:
    a, b = line.rstrip("\n").split("\t")
    name = b.split("/change/", 1)[-1]
    (wa, na), (wb, nb) = numbers(a), numbers(b)
    if wa != wb or na.shape != nb.shape:
        print(f"{name}: differs beyond its numbers", file=sys.stderr)
    elif na.size == 0:
        print(f"{name}: no numbers", file=sys.stderr)
    else:
        with np.errstate(invalid="ignore"):
            gap = np.abs(na - nb)
        same = (na == nb) | (np.isnan(na) & np.isnan(nb))
        top = float(np.max(np.where(same, 0.0, gap)))
        print(f"{name}: max |diff| {top:.3e} over {na.size} numbers "
              f"({int(np.count_nonzero(~same))} differ)", file=sys.stderr)
'
echo "outputs differ" >&2
exit 1
