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

echo "== tier-1: release build =="
cargo build --release
# The smoke groups below drive the release CLI; build every workspace
# member so target/release/dmhpc exists even on a cold target dir.
cargo build --release --workspace

echo "== tier-1 + workspace tests (debug: oracle checks on) =="
cargo test --workspace -q

echo "== golden digests on the optimised build (what users and the benchmark run) =="
cargo test --release -q --test determinism_golden --test topology --test fast_path --test sweep_zero_copy

echo "== paper claims (validate exits 1 if any headline claim fails) =="
./target/release/dmhpc validate --scale small

echo "== benchmark crate (perfbench/ builds against the public API) =="
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== fault-sweep smoke (tiny, must stay deterministic) =="
./target/release/dmhpc fault-sweep --scale small --threads 0 --csv > /tmp/fault_sweep_a.csv
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > /tmp/fault_sweep_b.csv
cmp /tmp/fault_sweep_a.csv /tmp/fault_sweep_b.csv
rm -f /tmp/fault_sweep_a.csv /tmp/fault_sweep_b.csv

echo "== policy-sweep smoke (all six specs, threads must not change bits) =="
POLICIES="baseline,static,dynamic,predictive:history=on,overcommit:factor=0.8,conservative:quantum=4096"
./target/release/dmhpc fault-sweep --scale small --threads 1 --csv --policies "$POLICIES" > /tmp/policy_sweep_a.csv
./target/release/dmhpc fault-sweep --scale small --threads 4 --csv --policies "$POLICIES" > /tmp/policy_sweep_b.csv
cmp /tmp/policy_sweep_a.csv /tmp/policy_sweep_b.csv
# All six policies must actually appear in the output.
for name in baseline static dynamic predictive overcommit conservative; do
    grep -q "$name" /tmp/policy_sweep_a.csv
done
rm -f /tmp/policy_sweep_a.csv /tmp/policy_sweep_b.csv

echo "== topology smoke (flat is the default bit-for-bit; racks leg is thread-invariant) =="
# The registry subcommand knows both fabric shapes. (To a file, not a
# pipe: grep -q exits at first match and the closed pipe would kill
# the CLI mid-print.)
./target/release/dmhpc topologies > /tmp/topo_registry.txt
grep -q "flat" /tmp/topo_registry.txt
grep -q "racks" /tmp/topo_registry.txt
rm -f /tmp/topo_registry.txt
# An explicit --topology flat must be byte-identical to no flag at all:
# the flat topology IS the pre-topology behavior.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > /tmp/topo_default.csv
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --topology flat > /tmp/topo_flat.csv
cmp /tmp/topo_default.csv /tmp/topo_flat.csv
# One racked sweep leg: rows carry the spec, and thread count must not
# change the bits on the rack-aware lender path either.
./target/release/dmhpc fault-sweep --scale small --threads 1 --csv --topology "flat,racks:size=16" > /tmp/topo_racks_a.csv
./target/release/dmhpc fault-sweep --scale small --threads 4 --csv --topology "flat,racks:size=16" > /tmp/topo_racks_b.csv
cmp /tmp/topo_racks_a.csv /tmp/topo_racks_b.csv
grep -q "racks:size=16" /tmp/topo_racks_a.csv
rm -f /tmp/topo_default.csv /tmp/topo_flat.csv /tmp/topo_racks_a.csv /tmp/topo_racks_b.csv

echo "== durable-sweep smoke (journal, interrupt at 75, resume, bit-identical) =="
M=/tmp/durable_sweep.jsonl
rm -f "$M"
# Reference: the same sweep uninterrupted.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > /tmp/durable_ref.csv
# Interrupted run: --point-limit is the deterministic stand-in for
# Ctrl-C — drain after 3 points, flush the manifest, exit 75.
code=0
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv \
    --manifest "$M" --point-limit 3 > /tmp/durable_int.csv 2> /tmp/durable_int.err || code=$?
[ "$code" -eq 75 ] || { echo "expected interrupted exit 75, got $code"; exit 1; }
[ ! -s /tmp/durable_int.csv ] || { echo "interrupted run must not emit a partial CSV"; exit 1; }
grep -q "interrupted:" /tmp/durable_int.err
# Resume: skip journaled points, finish the rest, reproduce the bytes.
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --resume "$M" > /tmp/durable_res.csv
cmp /tmp/durable_ref.csv /tmp/durable_res.csv
# The journal must report itself fully drained. (To a file, not a
# pipe: grep -q exits at first match and the closed pipe would kill
# the CLI mid-print — same workaround as the topology smoke above.)
./target/release/dmhpc sweep-status "$M" > /tmp/durable_status.txt
grep -q "pending 0" /tmp/durable_status.txt
rm -f "$M" /tmp/durable_ref.csv /tmp/durable_res.csv /tmp/durable_int.csv \
      /tmp/durable_int.err /tmp/durable_status.txt

echo "== telemetry smoke (off by default, bit-inert, byte-deterministic exports) =="
# Off by default: a telemetry-flagged sweep must emit the exact CSV of
# an unflagged one (gauges and the profiler may not touch outcomes).
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv > /tmp/telem_off.csv
./target/release/dmhpc fault-sweep --scale small --threads 2 --csv --telemetry > /tmp/telem_on.csv
cmp /tmp/telem_off.csv /tmp/telem_on.csv
# The report subcommand exports every format; equal seeds must produce
# byte-identical series (the wall-clock profile never enters them).
./target/release/dmhpc report --scale small --format prom --out /tmp/telem.prom --quiet
for family in dmhpc_queue_depth dmhpc_pool_util dmhpc_borrowed_mb dmhpc_oom_kills; do
    grep -q "$family" /tmp/telem.prom
done
./target/release/dmhpc report --scale small --format csv --out /tmp/telem_a.csv --quiet
./target/release/dmhpc report --scale small --format csv --out /tmp/telem_b.csv --quiet
cmp /tmp/telem_a.csv /tmp/telem_b.csv
# Telemetry-flagged durable points journal their phase profile and
# sweep-status renders the breakdown.
rm -f /tmp/telem_sweep.jsonl
./target/release/dmhpc fault-sweep --scale small --fault-profile light --csv \
    --telemetry --manifest /tmp/telem_sweep.jsonl > /dev/null 2>&1
./target/release/dmhpc sweep-status /tmp/telem_sweep.jsonl > /tmp/telem_status.txt
grep -q "phase-time breakdown" /tmp/telem_status.txt
rm -f /tmp/telem_off.csv /tmp/telem_on.csv /tmp/telem.prom \
      /tmp/telem_a.csv /tmp/telem_b.csv /tmp/telem_sweep.jsonl /tmp/telem_status.txt

echo "== trace smoke (JSONL parses, sim-time monotone, diff pinpoints) =="
./target/release/dmhpc trace-run --scale small --fault-profile heavy --out /tmp/trace_smoke.jsonl
./target/release/dmhpc trace-run --check /tmp/trace_smoke.jsonl
./target/release/dmhpc trace-run --scale small --fault-profile heavy --diff 17,18 > /tmp/trace_diff.txt
grep -q "diverge at event" /tmp/trace_diff.txt
rm -f /tmp/trace_smoke.jsonl /tmp/trace_diff.txt

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all green"
