#!/usr/bin/env bash
# Paired A/B timing of the repository benchmark (dmhpc-bench, declared
# in BENCHMARK.json): a parent revision against the working tree.
#
#   scripts/bench-ab.sh PARENT_REV WORKLOAD [PAIRS=10] [DMHPC_BENCH_ARGS...]
#
# e.g. scripts/bench-ab.sh HEAD dynloop-steady 10 --seed 7
#
# Builds dmhpc-bench twice, each side with its own CARGO_TARGET_DIR:
# PARENT_REV from a `git archive` export under $TMPDIR (no worktree is
# registered, so an interrupted run leaves nothing behind in .git), and
# the working tree as it is. Then runs PAIRS pairs of
# `--workload WORKLOAD --seconds 15 --trace 0`, alternating which side
# runs first, and prints every pair's wall_s and setup_s, each side's
# median and quartiles of wall_s, critical_point_s and setup_s and its
# median peak_rss_mb (every end-to-end timing metric, from the same
# runs), the pairs the change won on each of the three times (ties
# count for neither) and every failed run. The gain rule: the change wins at least nine tenths of
# the pairs and its median beats the parent's by more than the parent's
# interquartile range. Exits 1 if any run failed.
#
# perfbench/ and BENCHMARK.json are only read: the build's rewrite of
# perfbench/Cargo.lock is undone on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=${3:-10}
shift $(($# < 3 ? $# : 3))
EXTRA=("$@")
case $PAIRS in
    '' | *[!0-9]* | 0) echo "bench-ab: PAIRS must be a positive whole number, got '$PAIRS'" >&2; exit 2 ;;
esac

REPO=$(cd "$(dirname "$0")/.." && pwd)
REV=$(git -C "$REPO" rev-parse --verify "$PARENT_REV^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
# The build rewrites perfbench/Cargo.lock; put the working tree's back
# on any exit. The parent tree is a throwaway export.
cp -p "$REPO/perfbench/Cargo.lock" "$WORK/Cargo.lock"
cleanup() {
    cp -p "$WORK/Cargo.lock" "$REPO/perfbench/Cargo.lock"
    rm -rf "$WORK"
}
trap cleanup EXIT

mkdir "$WORK/parent"
git -C "$REPO" archive "$REV" | tar -x -C "$WORK/parent"

# build SIDE TREE: build TREE's dmhpc-bench into $WORK/target-SIDE.
build() {
    echo "bench-ab: building $1 ($2)" >&2
    CARGO_TARGET_DIR="$WORK/target-$1" cargo build --release --quiet --offline \
        --manifest-path "$2/perfbench/Cargo.toml" --bin dmhpc-bench
}
build parent "$WORK/parent"
build change "$REPO"

FAILED=0
# run SIDE: one benchmark run; prints its "wall_s critical_point_s
# setup_s peak_rss_mb", or "FAIL".
run() {
    local out line m v vals=()
    if out=$("$WORK/target-$1/release/dmhpc-bench" --workload "$WORKLOAD" --seconds 15 \
        --trace 0 "${EXTRA[@]}" 2>"$WORK/stderr.$1"); then
        line=$(printf '%s\n' "$out" | tail -n 1)
        for m in wall_s critical_point_s setup_s peak_rss_mb; do
            v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\": {\"value\": \([^,]*\),.*/\1/p")
            [ -n "$v" ] && vals+=("$v")
        done
        case $line in
            *'"failed": 0,'*) [ ${#vals[@]} -eq 4 ] && { echo "${vals[*]}"; return; } ;;
        esac
    fi
    echo "bench-ab: $1 run failed:" >&2
    tail -n 5 "$WORK/stderr.$1" >&2 || true
    echo FAIL
}

printf 'workload %s, parent %s, %s pair(s), extra args: %s\n' \
    "$WORKLOAD" "$(git -C "$REPO" rev-parse --short "$REV")" "$PAIRS" "${EXTRA[*]:-none}"
printf '%-5s %-7s %14s %14s %-7s %14s %14s\n' pair first parent_wall_s change_wall_s winner \
    parent_setup_s change_setup_s
: >"$WORK/parent.txt"
: >"$WORK/change.txt"
WON=0
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then
        first=parent
        p=$(run parent)
        c=$(run change)
    else
        first=change
        c=$(run change)
        p=$(run parent)
    fi
    winner=tie
    if [ "$p" = FAIL ] || [ "$c" = FAIL ]; then
        winner=-
    else
        echo "$p" >>"$WORK/parent.txt"
        echo "$c" >>"$WORK/change.txt"
        winner=$(awk -v p="${p%% *}" -v c="${c%% *}" 'BEGIN { print (c < p) ? "change" : (c > p) ? "parent" : "tie" }')
    fi
    [ "$p" = FAIL ] && FAILED=$((FAILED + 1))
    [ "$c" = FAIL ] && FAILED=$((FAILED + 1))
    [ "$winner" = change ] && WON=$((WON + 1))
    printf '%-5s %-7s %14s %14s %-7s %14s %14s\n' "$i" "$first" "${p%% *}" "${c%% *}" "$winner" \
        "$(echo "$p" | awk '{ print $3 }')" "$(echo "$c" | awk '{ print $3 }')"
done

# stats FILE COLUMN: "median q1 q3" of column COLUMN of FILE (1 wall_s,
# 2 critical_point_s, 3 setup_s, 4 peak_rss_mb), quartiles by the
# exclusive method dmhpc-bench --compare uses.
stats() {
    awk -v c="$2" '{ print $c }' "$1" | sort -g | awk '
        { v[NR] = $1 }
        function q(i,   m, j, d) {
            m = NR + 1; j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > NR - 1) j = NR - 1
            d = i * m - j * 4
            return (v[j] * (4 - d) + v[j + 1] * d) / 4
        }
        END {
            if (NR == 0) { print "nan nan nan"; exit }
            med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
            if (NR < 2) print med, med, med; else print med, q(1), q(3)
        }'
}
read -r PM PQ1 PQ3 < <(stats "$WORK/parent.txt" 1)
read -r CM CQ1 CQ3 < <(stats "$WORK/change.txt" 1)
printf 'parent: median %s  q1 %s  q3 %s\n' "$PM" "$PQ1" "$PQ3"
printf 'change: median %s  q1 %s  q3 %s\n' "$CM" "$CQ1" "$CQ3"
# The other end-to-end metrics of the same runs, for the no-regression
# check against their BENCHMARK.json bounds.
for side in parent change; do
    read -r cp cq1 cq3 < <(stats "$WORK/$side.txt" 2)
    read -r sm sq1 sq3 < <(stats "$WORK/$side.txt" 3)
    read -r rss _ < <(stats "$WORK/$side.txt" 4)
    printf '%s: critical_point_s median %s  q1 %s  q3 %s; setup_s median %s  q1 %s  q3 %s; peak_rss_mb median %s\n' \
        "$side" "$cp" "$cq1" "$cq3" "$sm" "$sq1" "$sq3" "$rss"
done
COMPLETE=$(wc -l <"$WORK/parent.txt")
paste -d ' ' "$WORK/parent.txt" "$WORK/change.txt" | awk '
    { for (m = 1; m <= 3; m++) if ($(m + 4) < $m) won[m]++ }
    END {
        printf "pairs the change won: wall_s %d, critical_point_s %d, setup_s %d of %d\n",
            won[1], won[2], won[3], NR
    }'
printf 'change won %d of %d complete pair(s); failed runs: %d\n' "$WON" "$COMPLETE" "$FAILED"
awk -v won="$WON" -v pairs="$PAIRS" -v pm="$PM" -v cm="$CM" -v q1="$PQ1" -v q3="$PQ3" 'BEGIN {
    gain = pm - cm; iqr = q3 - q1
    met = (won * 10 >= pairs * 9) && (gain > iqr)
    printf "median gain %.4f s (%.1f%%) vs parent IQR %.4f s: gain claim %s\n",
        gain, (pm > 0 ? 100 * gain / pm : 0), iqr, met ? "met" : "not met"
}'
[ "$FAILED" -eq 0 ]
