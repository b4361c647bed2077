#!/bin/sh
# A/B the repository benchmark against a base revision.
#
#   sh scripts/bench-ab.sh <base-rev> [pairs] [workload...] [--record PR]
#
# Extracts <base-rev> with `git archive` under target/bench-ab/, builds
# its benchmark and the working tree's into separate CARGO_TARGET_DIRs, and
# runs `benchmark run --workload W --seed 1 --seconds 0` in alternated
# pairs (default 10 pairs; the run that goes first flips every pair) on
# each workload (default: all four of BENCHMARK.json). For every
# end-to-end metric it prints the per-pair ratios head/base, how many
# pairs improved (by the metric's better direction), both medians, and
# the base's own min-max, then a verdict line: a two-sided sign test
# over the pairs that are not tied, and whether the head median lies
# outside the base's min-max. Each workload's header says whether the
# two builds printed the same simulation fingerprint. `--record PR`
# appends the medians and both commits to docs/perf-history.tsv in its
# long format. Run from anywhere inside the repository; the extracted
# base is removed on exit, and the raw outputs stay in
# target/bench-ab/runs/.
set -eu

usage() {
    echo "usage: sh scripts/bench-ab.sh <base-rev> [pairs] [workload...] [--record PR]" >&2
    exit 2
}

record=""
args=""
while [ $# -gt 0 ]; do
    case "$1" in
        --record)
            [ $# -ge 2 ] || usage
            record=$2
            shift 2
            ;;
        -h | --help) usage ;;
        -*) usage ;;
        *)
            args="$args $1"
            shift
            ;;
    esac
done
# shellcheck disable=SC2086 # revisions and workload names hold no blanks
set -- $args
[ $# -ge 1 ] || usage
base_rev=$1
shift
pairs=10
if [ $# -ge 1 ]; then
    case "$1" in
        *[!0-9]*) ;;
        *)
            pairs=$1
            shift
            ;;
    esac
fi
[ "$pairs" -ge 1 ] || usage
workloads=${*:-central-hopper central-srpt decentral-hopper sharded-storm}
case "$record" in *[!0-9]*) usage ;; esac

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --short=12 "$base_rev^{commit}")
head=$(git rev-parse --short=12 HEAD)
# `+dirty`: the working tree holds uncommitted changes on top of HEAD.
git diff --quiet HEAD -- || head="$head+dirty"
work=$root/target/bench-ab
tree=$work/base-src
runs=$work/runs

cleanup() {
    rm -rf "$tree"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
rm -rf "$runs"
mkdir -p "$runs" "$tree"
git archive "$base" | tar -x -C "$tree"

echo "building base $base and head $head" >&2
CARGO_TARGET_DIR=$work/base-target cargo build --release -q --offline \
    --manifest-path "$tree/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$work/head-target cargo build --release -q --offline \
    --manifest-path "$root/benchmark/Cargo.toml"

# One run: its metrics as `name value unit` lines, from the JSON result
# line, plus `fingerprint <hex>`.
run_one() {
    "$work/$1-target/release/benchmark" run --workload "$2" --seed 1 --seconds 0 \
        >"$runs/$2.$1.$3.out" || true
    grep -q '"correct":true' "$runs/$2.$1.$3.out" ||
        echo "warning: $2 $1 run $3 failed a check (see $runs/$2.$1.$3.out)" >&2
    tail -n 1 "$runs/$2.$1.$3.out" |
        grep -o '"[a-z0-9_]*":{"value":[^,]*,"unit":"[^"]*"}' |
        sed 's/^"\([^"]*\)":{"value":\([^,]*\),"unit":"\([^"]*\)"}$/\1 \2 \3/'
    sed -n 's/^sim_fingerprint \([0-9a-f]*\).*/fingerprint \1/p' "$runs/$2.$1.$3.out"
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do
            echo "$w pair $i/$pairs: $side" >&2
            run_one "$side" "$w" "$i" | sed "s/^/$w $side $i /" >>"$runs/all.txt"
        done
        i=$((i + 1))
    done
done

# Per workload and metric: ratios in pair order, improved pairs, medians,
# the base's spread and the verdict; records go to stdout as TSV after a
# `#record` mark.
awk -v pairs="$pairs" -v record="$record" -v base="$base" -v head="$head" '
function better_higher(m) { return m == "tasks_per_s" }
# Two-sided sign test: the chance of a split at least as uneven as `k` of
# `n` under a fair coin (1 when no pair differs).
function sign_p(k, n,    lo, i, c, s) {
    lo = k < n - k ? k : n - k
    c = 1
    for (i = 0; i <= lo; i++) { s += c; c = c * (n - i) / (i + 1) }
    s = n > 0 ? 2 * s / 2 ^ n : 1
    return s > 1 ? 1 : s
}
function median(arr, n,    i, j, t, s) {
    for (i = 1; i <= n; i++) s[i] = arr[i] + 0
    for (i = 2; i <= n; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
$4 == "fingerprint" { fp[$1, $2, $5]++; wl[$1] = 1; next }
{
    w = $1; side = $2; i = $3; m = $4
    val[w, side, m, i] = $5
    unit[m] = $6
    if (!((w, m) in seen)) { seen[w, m] = 1; order[w] = order[w] " " m }
    if (!(w in wseen)) { wseen[w] = 1; worder = worder " " w }
}
END {
    nw = split(worder, ws, " ")
    for (a = 1; a <= nw; a++) {
        w = ws[a]
        same = "same"
        for (k in fp) {
            split(k, parts, SUBSEP)
            if (parts[1] != w) continue
            other = parts[2] == "base" ? "head" : "base"
            if (!((w, other, parts[3]) in fp)) same = "DIFFERENT"
        }
        printf "== %s (%d pairs; base %s, head %s; sim fingerprint %s)\n", w, pairs, base, head, same
        nm = split(order[w], ms, " ")
        for (b = 1; b <= nm; b++) {
            m = ms[b]
            ratios = ""; won = 0; tied = 0; lo = ""; hi = ""
            for (i = 1; i <= pairs; i++) {
                bv = val[w, "base", m, i] + 0; hv = val[w, "head", m, i] + 0
                B[i] = bv; H[i] = hv
                r = bv != 0 ? hv / bv : (hv == 0 ? 1 : 0)
                ratios = ratios sprintf(" %.3f", r)
                if (better_higher(m) ? hv > bv : hv < bv) won++
                if (hv == bv) tied++
                if (lo == "" || bv < lo) lo = bv
                if (hi == "" || bv > hi) hi = bv
            }
            mb = median(B, pairs); mh = median(H, pairs)
            printf "%-12s base median %.6g, head median %.6g %s; improved %d/%d, equal %d; base min-max %.6g-%.6g\n", \
                m, mb, mh, unit[m], won, pairs, tied, lo, hi
            printf "%-12s ratios%s\n", "", ratios
            untied = pairs - tied
            spread = mh > hi ? "above the base max" : (mh < lo ? "below the base min" : "inside the base min-max")
            printf "%-12s verdict: sign test p=%.3g (%d of %d untied pairs improved); head median %s\n", \
                "", sign_p(won, untied), won, untied, spread
            if (record != "") {
                rec = rec sprintf("%s\tbench_ab\t%s/base\t%s\t%s\t%.6g\n", record, w, m, unit[m], mb)
                rec = rec sprintf("%s\tbench_ab\t%s/head\t%s\t%s\t%.6g\n", record, w, m, unit[m], mh)
            }
        }
    }
    if (record != "") printf "#record\n%s", rec
}' "$runs/all.txt" >"$runs/report.txt"

sed '/^#record$/,$d' "$runs/report.txt"
if [ -n "$record" ]; then
    {
        echo "#"
        echo "# pr $record (scripts/bench-ab.sh): medians of $pairs alternated pairs of"
        echo "# \`benchmark run --workload W --seed 1 --seconds 0\`, base $base, head $head;"
        echo "# row W/base is the base build, W/head the change (+dirty: uncommitted"
        echo "# changes on top of that commit). host: $(nproc) vCPU"
        echo "$record	bench_ab	scenario	pairs	count	$pairs"
        sed '1,/^#record$/d' "$runs/report.txt"
    } >>"$root/docs/perf-history.tsv"
    echo "appended to docs/perf-history.tsv" >&2
fi
