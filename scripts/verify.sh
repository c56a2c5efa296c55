#!/usr/bin/env bash
# Full verification flow: tier-1 (release build + root tests), the
# CLI smoke groups, lints as errors, and formatting. The root tests run
# once, inside the debug workspace suite, where every simulation also
# checks the indexed planners and the dynloop fast path against their
# full-scan oracle; the golden-digest tests run a second time on the
# release build, whose hot path has no debug checks. CI and pre-commit
# both call this; keep it in sync
# with ROADMAP.md's tier-1 definition.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every file the smoke groups write goes to one private directory, so
# two runs at once (two checkouts, or verify beside bench-ab.sh) cannot
# clobber each other's outputs.
T=$(mktemp -d "${TMPDIR:-/tmp}/verify.XXXXXX")
trap 'rm -rf "$T"' EXIT

echo "== tier-1: release build =="
cargo build --release
# The smoke groups below drive the release CLI; build every workspace
# member so target/release/dmhpc exists even on a cold target dir.
cargo build --release --workspace

echo "== tier-1 + workspace tests (debug: oracle checks on) =="
cargo test --workspace -q

echo "== golden digests on the optimised build (what users and the benchmark run) =="
# fault_injection's stats_match_trace_counts pins Stats to the trace
# counts on the build whose end-of-run conservation checks users see.
cargo test --release -q --test determinism_golden --test topology --test fast_path --test sweep_zero_copy --test fault_injection
# The lane-merged event queue (arrivals, tick slot, near-future bucket
# ring with its wrap-around and sorted head bucket, far heap) against a
# plain min-heap, the sorted-array free-memory index against a
# BTreeSet, the per-rack lender cursors' borrow sequences (home rack
# first, then the cross-rack merge under the cross cap) against the
# full-scan oracle after every ledger step and after batches of 1-8
# steps (the lazy lender pool synced by its own cut-over, by merge
# passes only, or node by node only), and the O(1) contention inputs
# (cached per-job totals, hottest lender over demand rows) against the
# slice folds: an ordering or bookkeeping slip would change results
# without tripping any debug-only check.
cargo test --release -q -p dmhpc-core --lib engine::tests::lanes_pop_like_one_heap
cargo test --release -q -p dmhpc-core --lib cluster::tests::free_index::free_index_orders_match_btreeset
cargo test --release -q -p dmhpc-core --lib cluster::tests::rack_lenders::lender_cursors_match_full_sort
cargo test --release -q -p dmhpc-core --lib cluster::tests::rack_lenders::batched_changes_match_full_sort
cargo test --release -q -p dmhpc-core --lib cluster::tests::contention_inputs::contention_inputs_match_slice_folds
# The pruned nearest-neighbour Google-shape match against the linear
# scan on seeded and tie-heavy pools: trace generation picks the same
# pool job for every query, so every generated workload is unchanged.
cargo test --release -q -p dmhpc-traces --lib google::tests::match_job_matches_linear_scan
# The JSON codec's round trip (encode, decode, re-encode) on random
# nested objects up to the depth cap: every trace, telemetry and
# manifest byte goes through it.
cargo test --release -q -p dmhpc-core --lib json::tests::encode_decode_round_trips

echo "== paper claims (validate exits 1 if any headline claim fails) =="
./target/release/dmhpc validate --scale small

echo "== benchmark crate (perfbench/ builds against the public API) =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== fault-sweep smoke (tiny, must stay deterministic) =="
./target/release/dmhpc fault-sweep --scale small --threads 0 --csv > "$T/fault_sweep_a.csv"
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > "$T/fault_sweep_b.csv"
cmp "$T/fault_sweep_a.csv" "$T/fault_sweep_b.csv"

echo "== policy-sweep smoke (all six specs, threads must not change bits) =="
POLICIES="baseline,static,dynamic,predictive:history=on,overcommit:factor=0.8,conservative:quantum=4096"
./target/release/dmhpc fault-sweep --scale small --threads 1 --csv --policies "$POLICIES" > "$T/policy_sweep_a.csv"
./target/release/dmhpc fault-sweep --scale small --threads 4 --csv --policies "$POLICIES" > "$T/policy_sweep_b.csv"
cmp "$T/policy_sweep_a.csv" "$T/policy_sweep_b.csv"
# All six policies must actually appear in the output.
for name in baseline static dynamic predictive overcommit conservative; do
    grep -q "$name" "$T/policy_sweep_a.csv"
done

echo "== topology smoke (flat is the default bit-for-bit; racks leg is thread-invariant) =="
# The registry subcommand knows both fabric shapes. (To a file, so
# both greps read the same output; a reader that closes the pipe early
# is a quiet, successful exit for the CLI.)
./target/release/dmhpc topologies > "$T/topo_registry.txt"
grep -q "flat" "$T/topo_registry.txt"
grep -q "racks" "$T/topo_registry.txt"
# An explicit --topology flat must be byte-identical to no flag at all:
# the flat topology IS the pre-topology behavior.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > "$T/topo_default.csv"
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --topology flat > "$T/topo_flat.csv"
cmp "$T/topo_default.csv" "$T/topo_flat.csv"
# One racked sweep leg: rows carry the spec, and thread count must not
# change the bits on the rack-aware lender path either.
./target/release/dmhpc fault-sweep --scale small --threads 1 --csv --topology "flat,racks:size=16" > "$T/topo_racks_a.csv"
./target/release/dmhpc fault-sweep --scale small --threads 4 --csv --topology "flat,racks:size=16" > "$T/topo_racks_b.csv"
cmp "$T/topo_racks_a.csv" "$T/topo_racks_b.csv"
grep -q "racks:size=16" "$T/topo_racks_a.csv"
# A spec parameter given twice is a config error, not "last one wins".
if ./target/release/dmhpc fault-sweep --scale small --csv --topology "racks:size=16,size=8" > /dev/null 2>&1; then
    echo "fault-sweep accepted a repeated topology parameter"; exit 1
fi
if ./target/release/dmhpc fault-sweep --scale small --csv --policies "overcommit:factor=0.5,factor=2" > /dev/null 2>&1; then
    echo "fault-sweep accepted a repeated policy parameter"; exit 1
fi

echo "== durable-sweep smoke (journal, interrupt at 75, resume, bit-identical) =="
M="$T/durable_sweep.jsonl"
# Reference: the same sweep uninterrupted.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > "$T/durable_ref.csv"
# Interrupted run: --point-limit is the deterministic stand-in for
# Ctrl-C — drain after 3 points, flush the manifest, exit 75.
code=0
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv \
    --manifest "$M" --point-limit 3 > "$T/durable_int.csv" 2> "$T/durable_int.err" || code=$?
[ "$code" -eq 75 ] || { echo "expected interrupted exit 75, got $code"; exit 1; }
[ ! -s "$T/durable_int.csv" ] || { echo "interrupted run must not emit a partial CSV"; exit 1; }
grep -q "interrupted:" "$T/durable_int.err"
# Resume: skip journaled points, finish the rest, reproduce the bytes.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --resume "$M" > "$T/durable_res.csv"
cmp "$T/durable_ref.csv" "$T/durable_res.csv"
# The journal must report itself fully drained.
./target/release/dmhpc sweep-status "$M" > "$T/durable_status.txt"
grep -q "pending 0" "$T/durable_status.txt"

echo "== telemetry smoke (off by default, bit-inert, byte-deterministic exports) =="
# Off by default: a telemetry-flagged sweep must emit the exact CSV of
# an unflagged one (gauges and the profiler may not touch outcomes).
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > "$T/telem_off.csv"
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --telemetry > "$T/telem_on.csv"
cmp "$T/telem_off.csv" "$T/telem_on.csv"
# The report subcommand exports every format; equal seeds must produce
# byte-identical series (the wall-clock profile never enters them).
./target/release/dmhpc report --scale small --format prom --out "$T/telem.prom" --quiet
for family in dmhpc_queue_depth dmhpc_pool_util dmhpc_borrowed_mb dmhpc_oom_kills; do
    grep -q "$family" "$T/telem.prom"
done
./target/release/dmhpc report --scale small --format csv --out "$T/telem_a.csv" --quiet
./target/release/dmhpc report --scale small --format csv --out "$T/telem_b.csv" --quiet
cmp "$T/telem_a.csv" "$T/telem_b.csv"
# Telemetry-flagged durable points journal their phase profile and
# sweep-status renders the breakdown.
./target/release/dmhpc fault-sweep --scale small --fault-profile light --csv \
    --telemetry --manifest "$T/telem_sweep.jsonl" > /dev/null 2>&1
./target/release/dmhpc sweep-status "$T/telem_sweep.jsonl" > "$T/telem_status.txt"
grep -q "phase-time breakdown" "$T/telem_status.txt"

echo "== trace smoke (JSONL parses, sim-time monotone, diff pinpoints) =="
./target/release/dmhpc trace-run --scale small --fault-profile heavy --out "$T/trace_smoke.jsonl"
./target/release/dmhpc trace-run --check "$T/trace_smoke.jsonl"
# A time that overflows an f64 is not a valid stream.
printf '{"t":1e400,"kind":"job_submit","job":0}\n' > "$T/trace_inf.jsonl"
if ./target/release/dmhpc trace-run --check "$T/trace_inf.jsonl" 2> /dev/null; then
    echo "trace-run --check accepted \"t\":1e400"; exit 1
fi
./target/release/dmhpc trace-run --scale small --fault-profile heavy --diff 17,18 > "$T/trace_diff.txt"
grep -q "diverge at event" "$T/trace_diff.txt"
# --summary prints the RunMetrics digest on stderr; the removed
# --sample-s option is rejected like any unknown key (exit 2).
./target/release/dmhpc trace-run --scale small --summary > /dev/null 2> "$T/trace_summary.err"
grep -q "trace summary:" "$T/trace_summary.err"
code=0
./target/release/dmhpc trace-run --scale small --sample-s 60 > /dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "expected --sample-s to exit 2, got $code"; exit 1; }

echo "== CLI smoke (one command table) =="
# An unknown command and an option the command does not read are usage
# errors: exit 2 before anything runs.
code=0
./target/release/dmhpc bogus > /dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "expected dmhpc bogus to exit 2, got $code"; exit 1; }
code=0
./target/release/dmhpc all --topology flat > /dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || { echo "expected all --topology to exit 2, got $code"; exit 1; }
# A numeric option out of range is a one-line error naming it (exit 1),
# never a panic (exit 101) or a silent clamp.
rejects() {
    local opt=$1 code=0
    shift
    ./target/release/dmhpc "$@" > /dev/null 2> "$T/reject.err" || code=$?
    { [ "$code" -eq 1 ] && grep -q -- "$opt:" "$T/reject.err"; } || { echo "dmhpc $* exited $code"; exit 1; }
}
rejects --nodes simulate --swf "$T/none.swf" --nodes 0
rejects --jobs export --out "$T/export" --jobs 0
rejects --large chart --scale small --large 7
# `dmhpc help` names every command: a row dropped from the table fails.
./target/release/dmhpc help > "$T/help.txt"
for cmd in table1 table2 table3 table4 fig2 fig4 fig5 fig6 fig7 fig8 fig9 \
           ablate fault-sweep validate all policies topologies export \
           simulate chart trace-run sweep-status report help; do
    grep -qE "^  $cmd( |\$)" "$T/help.txt" || { echo "dmhpc help does not list $cmd"; exit 1; }
done

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# RUSTDOCFLAGS fails on rustdoc's warnings but not on cargo's own, such
# as two targets documenting into one directory (one overwrites the
# other), so any warning line cargo prints fails the step too.
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace 2>&1 | tee "$T/doc.log"
if grep -q '^warning' "$T/doc.log"; then
    echo "verify: cargo doc printed a warning" >&2
    exit 1
fi

echo "== rustfmt check =="
cargo fmt --check

echo "== shell syntax (scripts not run above) =="
bash -n scripts/bench-ab.sh

echo "verify: all green"
