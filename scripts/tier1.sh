#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite, the vendored
# serde's unit tests, the benchmark package's build, unit tests and smoke
# runs (untraced and traced, with the traced run's work counters pinned),
# lint-clean under clippy (every target),
# warning-free rustdoc, the pay-once characterization example, the
# dump_reports profiles against their committed copy and the other root
# examples, CLI smoke tests for the trace, report, diff, chaos, perf, dash,
# flight-recorder, sweep and fsck subcommand surface, the durable-sweep
# resume gate (a resume simulates no cell), and a gate that regenerates
# every bench output at one and two workers.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release
cargo test -q
# Every workspace crate's unit tests and doctests (the line above runs
# only the root package).
cargo test --workspace -q
# The vendored serde stand-ins sit outside the workspace. serde's unit
# tests pin the canonical JSON number text that cell keys, cache keys and
# record payloads are built from; serde_json's pin its reader, nesting
# bound included.
cargo test -q --manifest-path vendor/serde/Cargo.toml --target-dir target/vendor
cargo test -q --manifest-path vendor/serde_json/Cargo.toml --target-dir target/vendor
# The repository benchmark (examples/benchmark) imports profiler, engine,
# cache and store names directly: build it, run its unit tests, and run
# its smoke mode, which exits non-zero unless every workload's re-checks
# and the seed-1 golden result digests pass. The traced smoke runs the
# same checks through the per-layer path (spans and layer counters) that
# traced measurements read.
cargo test --release --offline -q --manifest-path examples/benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path examples/benchmark/Cargo.toml -- --smoke
cargo run --release --offline -q --manifest-path examples/benchmark/Cargo.toml -- --smoke --trace 1 |
    tee /tmp/stash_tier1_traced_smoke.txt
# Work-counter gate: the traced smoke's integer work counters repeat
# exactly from run to run and at any CPU count, so each workload's must
# match tests/bench_smoke_counts.txt. A fast-forward or a solver shortcut
# that silently stops engaging moves them while every result stays right.
# A change meant to move them regenerates the file (this block's output)
# and says why.
python3 - >/tmp/stash_tier1_smoke_counts.txt <<'PY'
import json
doc = json.loads(open("/tmp/stash_tier1_traced_smoke.txt").read().splitlines()[-1])
counters = [
    "ddl.epochs", "ddl.ff.iterations", "ddl.fault_branches", "simkit.events",
    "flowsim.full_solves", "flowsim.shortcuts", "datapipe.fetches", "datapipe.preps",
    "core.cache.misses", "store.write.count", "store.append.count", "store.read.count",
]
for workload in ["grid", "profile", "store", "chaos"]:
    for name in counters:
        value = doc["metrics"][f"{workload}.{name}"]["value"]
        assert value == int(value), f"{workload}.{name} is not a count: {value}"
        print(f"{workload}.{name} {int(value)}")
PY
diff -u tests/bench_smoke_counts.txt /tmp/stash_tier1_smoke_counts.txt
cargo clippy --workspace --all-targets -- -D warnings
# Panic-free library gate: these crates deny clippy::unwrap_used and
# clippy::expect_used via their [lints] tables; this invocation keeps the
# gate visible and catches regressions even if the workspace line changes.
cargo clippy -p stash-faults -p stash-hwtopo -p stash-datapipe -p stash-collectives -p stash-telemetry -p stash-trace -p stash-simkit -p stash-flowsim -p stash-ddl -p stash-core -p stash-store -p stash-dnn -p stash-gpucompute -p stash-bench -p stash --lib -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Pay-once characterization example: publish nine ResNet18 profiles into
# a fresh result store, then answer the tenant's question from its
# verified records alone.
example_out=$(cargo run --release --offline -q --example characterization_db)
grep -q "published 9 characterizations" <<<"$example_out"
grep -q "fastest published configuration: p3.24xlarge" <<<"$example_out"

# Profile gate: dump_reports prints 56 raw five-step profiles (BERT/SQuAD
# and 40-iteration real-data steps included, which tests/report_golden.rs
# does not cover). Its output must match the committed copy byte for byte;
# a change meant to move results regenerates tests/dump_reports.txt.
cargo run --release --offline -q --example dump_reports >/tmp/stash_tier1_dump_reports.txt
cmp /tmp/stash_tier1_dump_reports.txt tests/dump_reports.txt

# Every other root example must run to completion.
for example in quickstart cloud_bill instance_advisor model_architect qos_lottery; do
    cargo run --release --offline -q --example "$example" >/dev/null
done

# Trace CLI smoke test. The `trace validated` line only prints after the
# written file round-trips through `stash_trace::chrome::validate` — the
# same parser the chrome_golden integration test uses.
smoke_out=$(./target/release/stash trace p3.2xlarge resnet50 --out /tmp/t.json)
grep -q "trace validated" <<<"$smoke_out"

# Report CLI smoke test. The command itself fails unless the critical-path
# decomposition reconciles with the engine accumulators exactly; on top of
# that, the written HTML must carry the rollup totals (the stall-breakdown
# table and the reconciled wall-time total row).
report_out=$(./target/release/stash report p3.2xlarge resnet18 --out /tmp/stash_tier1_report)
grep -q "critical-path reconciliation" <<<"$report_out"
grep -q "Stall breakdown" /tmp/stash_tier1_report.html
wall_ns=$(python3 - <<'PY'
import json
print(json.load(open("/tmp/stash_tier1_report.json"))["wall_ns"])
PY
)
grep -q "<th class=\"num\">${wall_ns}</th>" /tmp/stash_tier1_report.html

# Diff CLI smoke test: a report diffed against itself has no regressions.
./target/release/stash diff /tmp/stash_tier1_report.json /tmp/stash_tier1_report.json

# Chaos CLI smoke test: a seeded run self-checks trace-vs-engine
# reconciliation (the command fails on any nanosecond of drift), and the
# same seed twice must produce byte-identical resilience reports.
./target/release/stash chaos p3.8xlarge*2 resnet18 --seed 7 --out /tmp/stash_tier1_chaos_a.json
./target/release/stash chaos p3.8xlarge*2 resnet18 --seed 7 --out /tmp/stash_tier1_chaos_b.json >/dev/null
cmp /tmp/stash_tier1_chaos_a.json /tmp/stash_tier1_chaos_b.json
python3 - <<'PY'
import json
doc = json.load(open("/tmp/stash_tier1_chaos_a.json"))
assert doc["schema"] == "stash-resilience-v1", doc.get("schema")
assert doc["slowdown"] >= 1.0
assert len(doc["faults"]["events"]) == 4
PY

# Perf CLI smoke test: the `prom validated` line only prints after the
# exposition passed stash_telemetry::prom::validate; the written .prom
# must carry the solver recompute-latency histogram, and the telemetry
# document must diff cleanly against itself.
perf_out=$(./target/release/stash perf p3.2xlarge shufflenet --out /tmp/stash_tier1_perf)
grep -q "prom validated" <<<"$perf_out"
grep -q "stash_sim_solver_recompute_latency_ns_bucket" /tmp/stash_tier1_perf.prom
grep -q 'le="+Inf"' /tmp/stash_tier1_perf.prom
./target/release/stash diff /tmp/stash_tier1_perf.json /tmp/stash_tier1_perf.json

# ...and a doctored solver p99 must make the diff fail non-zero.
python3 - <<'PY'
import json
doc = json.load(open("/tmp/stash_tier1_perf.json"))
assert doc["schema"] == "stash-telemetry-v1", doc.get("schema")
assert doc["counters"]["stash_sim_queue_events_popped_total"] > 0
doc["histograms"]["stash_sim_solver_recompute_latency_ns"]["p99"] = 10**10
json.dump(doc, open("/tmp/stash_tier1_perf_bad.json", "w"))
PY
if ./target/release/stash diff /tmp/stash_tier1_perf.json /tmp/stash_tier1_perf_bad.json; then
    echo "doctored solver-p99 regression was not caught" >&2
    exit 1
fi

# Perf CSV exposition: --format csv writes the same snapshot as a
# spreadsheet-ready metric,kind,value table in schema order.
./target/release/stash perf p3.2xlarge shufflenet --format csv \
    --out /tmp/stash_tier1_perf_csv >/dev/null
head -1 /tmp/stash_tier1_perf_csv.csv | grep -q "^metric,kind,value$"
grep -q "^stash_sim_queue_events_popped_total,counter," /tmp/stash_tier1_perf_csv.csv
grep -q "^stash_sim_solver_recompute_latency_ns_p99,histogram," /tmp/stash_tier1_perf_csv.csv

# Fleet-dashboard smoke: an empty results dir triggers the default
# cluster x model sweep; the dashboard must validate against its own
# embedded stash-series-v1 documents (the command fails otherwise),
# render one heatmap cell per swept pair, and rebuild byte-identically
# from the series docs the first run wrote.
rm -rf /tmp/stash_tier1_dash && mkdir -p /tmp/stash_tier1_dash
dash_out=$(./target/release/stash dash /tmp/stash_tier1_dash \
    --out /tmp/stash_tier1_dash/dashboard.html)
grep -q "dashboard validated (9 cells)" <<<"$dash_out"
./target/release/stash dash /tmp/stash_tier1_dash \
    --out /tmp/stash_tier1_dash/dashboard_b.html >/dev/null
cmp /tmp/stash_tier1_dash/dashboard.html /tmp/stash_tier1_dash/dashboard_b.html
python3 - <<'PY'
import glob, json
html = open("/tmp/stash_tier1_dash/dashboard.html").read()
docs = [json.load(open(p)) for p in sorted(glob.glob("/tmp/stash_tier1_dash/series_*.json"))]
assert len(docs) == 9, f"expected 9 swept series docs, found {len(docs)}"
for doc in docs:
    key = f'data-cell="{doc["cluster"]}|{doc["model"]}"'
    assert key in html, f"heatmap cell missing for swept pair: {key}"
PY

# Series regression gate: doctoring a steady series document with
# transient iteration-time spikes must make `stash diff` fail non-zero on
# both the CoV and the spike-count gates. The document comes from a chaos
# run, which records a per-iteration trace and so never fast-forwards:
# each of its 16 iterations keeps a row of its own. (The dash sweep's
# series fast-forward from their second iteration and keep only three
# rows.) Its one planned fault lies past the end of the epoch, so no fault
# fires and the rows stay steady.
cat >/tmp/stash_tier1_pending_plan.json <<'JSON'
{"events":[{"at":3600000000000,"kind":{"StragglerWindow":{"rank":0,"duration":1000000,"slowdown":1.5}}}],
 "recovery":{"checkpoint_every":4,"straggler_timeout":20000000,"straggler_backoff":2.0,"reform_delay":500000000}}
JSON
./target/release/stash chaos p3.8xlarge*2 resnet18 --plan /tmp/stash_tier1_pending_plan.json \
    --out /tmp/stash_tier1_pending_chaos.json --series /tmp/stash_tier1_series_src.json >/dev/null
python3 - <<'PY'
import json
path = "/tmp/stash_tier1_series_src.json"
doc = json.load(open(path))
doctored = 0
per_iter = [row for row in doc["samples"] if row[1] == 1]
for row in per_iter[3:6]:  # three samples past the 3-iteration warm-up head
    row[4] *= 25  # wall_ns: a 25x transient spike
    doctored += 1
assert doctored >= 3, f"only {doctored} samples doctored"
json.dump(doc, open("/tmp/stash_tier1_series_bad.json", "w"))
json.dump(json.load(open(path)), open("/tmp/stash_tier1_series_good.json", "w"))
PY
./target/release/stash diff /tmp/stash_tier1_series_good.json /tmp/stash_tier1_series_good.json
if series_diff=$(./target/release/stash diff /tmp/stash_tier1_series_good.json /tmp/stash_tier1_series_bad.json 2>&1); then
    echo "doctored iteration-series regression was not caught" >&2
    exit 1
fi
grep -q "iteration-time CoV regressed" <<<"$series_diff"
grep -q "transient spikes regressed" <<<"$series_diff"

# Chaos overlay: a seeded chaos run exports its series (the command
# reconciles the series totals against the engine before writing), and a
# dashboard rebuilt over the same dir swaps the annotated run into the
# matching cell while still validating.
./target/release/stash chaos p3.8xlarge*2 resnet18 --seed 7 \
    --series /tmp/stash_tier1_dash/series_zz_chaos.json >/dev/null
overlay_out=$(./target/release/stash dash /tmp/stash_tier1_dash \
    --out /tmp/stash_tier1_dash/dashboard_chaos.html)
grep -q "dashboard validated (9 cells)" <<<"$overlay_out"
grep -q 'class="fault"' /tmp/stash_tier1_dash/dashboard_chaos.html

# Flight-recorder smoke test: a chaos run that dies on a typed error must
# leave a parseable stash-flight-v1 dump of the engine's last events.
printf '{ not a fault plan' >/tmp/stash_tier1_bad_plan.json
if ./target/release/stash chaos p3.2xlarge shufflenet \
    --plan /tmp/stash_tier1_bad_plan.json --flight /tmp/stash_tier1_flight.json; then
    echo "chaos accepted an invalid fault plan" >&2
    exit 1
fi
python3 - <<'PY'
import json
doc = json.load(open("/tmp/stash_tier1_flight.json"))
assert doc["schema"] == "stash-flight-v1", doc.get("schema")
assert doc["events"], "flight dump recorded no events"
PY

# Durable-sweep smoke: a cold sweep lands every cell in the checksummed
# store; a resumed run serves all of them back and agrees with the cold
# CSV on every value (only the status column may change).
rm -rf /tmp/stash_tier1_store
./target/release/stash sweep --models AlexNet,ResNet18 --clusters p3.2xlarge \
    --store /tmp/stash_tier1_store --out /tmp/stash_tier1_sweep_cold.csv >/dev/null
sweep_out=$(./target/release/stash sweep --store /tmp/stash_tier1_store --resume \
    --out /tmp/stash_tier1_sweep_warm.csv)
grep -q "0 computed, 2 resumed, 0 failed" <<<"$sweep_out"
cmp <(sed 's/,[a-z-]*$//' /tmp/stash_tier1_sweep_cold.csv) \
    <(sed 's/,[a-z-]*$//' /tmp/stash_tier1_sweep_warm.csv)

# Fsck smoke: doctor one stored record, prove fsck catches it (exit 2,
# corpse quarantined), then prove --repair rebuilds the record from the
# write-ahead journal byte-identically to the pristine original.
rec=$(ls /tmp/stash_tier1_store/records/*.rec | head -1)
cp "$rec" /tmp/stash_tier1_pristine.rec
printf 'XX' | dd of="$rec" bs=1 seek=40 conv=notrunc status=none
if ./target/release/stash fsck /tmp/stash_tier1_store >/dev/null; then
    echo "fsck missed a doctored record" >&2
    exit 1
fi
./target/release/stash fsck /tmp/stash_tier1_store --repair >/dev/null
cmp "$rec" /tmp/stash_tier1_pristine.rec
./target/release/stash fsck /tmp/stash_tier1_store >/dev/null

# Durability gates: crash-kill convergence (SIGKILL mid-write, resume,
# byte-identical store), the storeless/stored/faulted differential, torn
# and retried journal appends that must keep every line, and frame +
# fault-injection property tests.
cargo test -q --test store_crash
cargo test -q --test sweep_differential
cargo test -q --test journal_retry
cargo test -q --test store_props

# Zero-allocation gate: steady-state epochs must not touch the global
# allocator (counting-allocator test), fast-forward must not change any
# EpochReport bit (differential test, FF on and off compared in-process
# against fresh-state runs), and the indexed event queue must stay
# order-equivalent to a reference binary heap under random op sequences.
cargo test -q --test alloc_budget
cargo test -q --test fast_forward_differential
cargo test -q --test queue_equivalence

# Fault-injection differential: an empty fault plan must leave every
# EpochReport bit-identical across the zoo, and faulted accumulators must
# tile the wall clock at integer-nanosecond exactness.
cargo test -q --test faults_differential

# Telemetry gates: recording allocates exactly nothing (counting
# allocator), flipping the registry switch changes no EpochReport bit
# (zoo differential, FF on and off), histogram/snapshot invariants hold
# under proptest, and the perf/diff/flight CLI surface works end to end.
cargo test -q --test telemetry_alloc
cargo test -q --test telemetry_differential
cargo test -q --test telemetry_props
cargo test -q --test perf_cli

# Iteration-series gates: recording must leave every EpochReport bit
# identical (zoo differential, FF on and off, seeded fault plans) with
# totals reconciling at integer-nanosecond exactness, and the
# downsampler's invariants (exact sums, contiguity, capacity bound,
# byte-stable serialization) hold under proptest.
cargo test -q --test series_differential
cargo test -q --test series_props

# Durable-sweep economics: a cold 24-cell sweep simulates every cell into
# a fresh store; the resumed run must serve every cell from verified
# records and simulate none, since the store exists so crashed fleets
# never pay for a cell twice. The resumed CSV must agree with the cold one
# on every value (only the status column flips computed -> resumed). Both
# wall times are printed but not gated: each moves with host speed and
# with every change to simulation or store cost, so their ratio measures
# those changes rather than whether a resume re-simulates.
rm -rf /tmp/stash_tier1_grid_store
grid=(--models AlexNet,ResNet18,ResNet50,ShuffleNet,MobileNet-v2,VGG11
    --clusters "p3.2xlarge,p3.8xlarge,p3.16xlarge,p3.8xlarge*2" --iters 30)
t0=$(date +%s%N)
./target/release/stash sweep "${grid[@]}" --store /tmp/stash_tier1_grid_store \
    --out /tmp/stash_tier1_grid_cold.csv >/dev/null
t1=$(date +%s%N)
resume_out=$(./target/release/stash sweep --store /tmp/stash_tier1_grid_store --resume \
    --out /tmp/stash_tier1_grid_warm.csv)
t2=$(date +%s%N)
grep -q "sweep: 0 computed, 24 resumed, 0 failed" <<<"$resume_out"
cmp <(sed 's/,[a-z-]*$//' /tmp/stash_tier1_grid_cold.csv) \
    <(sed 's/,[a-z-]*$//' /tmp/stash_tier1_grid_warm.csv)
awk -v c="$((t1 - t0))" -v r="$((t2 - t1))" \
    'BEGIN { printf "[durable sweep: cold %.3fs -> resumed %.3fs, %.1fx]\n", c / 1e9, r / 1e9, c / r }'

# Regeneration gate: every bench target rewrites its committed results/
# files byte for byte, on two workers and again on one. The worker count
# schedules every target's work: sweeps share their jobs among the
# workers, and each `Stash::profile` call shares its measurement steps.
# `git diff` catches a changed file and `git status` a new or renamed
# one, so a deliberate change to an output passes only once it is
# committed.
results_match_commit() {
    git diff --exit-code --stat -- results/
    local stray
    stray=$(git status --porcelain -- results/)
    if [[ -n "$stray" ]]; then
        printf 'bench outputs differ from the committed results/:\n%s\n' "$stray" >&2
        exit 1
    fi
}
STASH_BENCH_THREADS=2 cargo bench -q -p stash-bench --benches >/dev/null
results_match_commit
STASH_BENCH_THREADS=1 cargo bench -q -p stash-bench --benches >/dev/null
results_match_commit
