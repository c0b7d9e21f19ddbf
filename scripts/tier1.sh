#!/usr/bin/env bash
# Tier-1 gate: release build, rustfmt check, lint wall, root-package
# tests, workspace tests, the driver-equivalence matrix, the seeded
# work-stealing identity suites, the shard-plane identity suite,
# index-bench, align-bench, bgg-dsd-bench, steal-bench and shard-bench
# smoke passes (bit-identity checks on tiny workloads), the
# alignment-engine, min-wise-kernel and streaming-executor identity
# suites, the fault-injection + chaos-soak + supervision suites, the
# ft-bench recovery smoke, the out-of-core partitioned-identity suite +
# index_oc_bench smoke, the perfbench benchmark tests, the sketch-plane
# driver-matrix suite +
# lsh_bench smoke, grep gates (no unwrap on inter-rank
# communication or supervision/retry paths; no UnionFind mutation outside
# ClusterCore; no mutex-guarded queues in policy hot loops; no whole-file
# sequence reads outside pfam-seq's SeqStore; no raw k-mer hashing
# outside pfam-shingle's sketch wrappers), and CLI
# checkpoint/resume + sharded-cluster smokes.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tier1: union-find mutation stays inside ClusterCore =="
# Refactor contract: clustering state mutates only in the ClusterCore
# state machine (crates/cluster/src/core.rs). The GOS-style all-pairs
# baseline (baseline.rs) is a different algorithm and keeps its own
# forest; everything else — drivers, policies, the pipeline — must go
# through the core.
if grep -rn "UnionFind" crates/cluster/src crates/core/src/pipeline.rs \
    | grep -v "^crates/cluster/src/core\.rs:" \
    | grep -v "^crates/cluster/src/baseline\.rs:"; then
    echo "tier1 FAIL: direct UnionFind use outside ClusterCore" >&2
    exit 1
fi

echo "== tier1: no unwrap/expect on inter-rank communication paths =="
# Fault tolerance contract: crates/mpi and the threaded master-worker must
# propagate CommError/MwError, never panic on a peer's failure.
if grep -rn "unwrap(\|expect(" crates/mpi/src crates/cluster/src/master_worker.rs; then
    echo "tier1 FAIL: unwrap/expect found on a communication path" >&2
    exit 1
fi

echo "== tier1: no unwrap/expect in the supervision & retry plane =="
# Recovery contract: the retry wrapper and the health/supervision plane
# exist to absorb failures — a panic there defeats the whole subsystem.
if grep -rn "unwrap(\|expect(" crates/cluster/src/retry.rs crates/cluster/src/supervise.rs; then
    echo "tier1 FAIL: unwrap/expect found in a supervision/retry path" >&2
    exit 1
fi

echo "== tier1: no mutex-guarded queues in policy hot loops =="
# Scheduler contract: work distribution in the policies goes through the
# lock-free deques (vendor/crossbeam::deque) or the channel transport —
# never a std::sync::Mutex-wrapped queue, which would serialise the very
# contention work stealing exists to remove.
if grep -n "std::sync::Mutex\|sync::Mutex" crates/cluster/src/policy.rs; then
    echo "tier1 FAIL: std::sync::Mutex queue in policy.rs hot loops" >&2
    exit 1
fi

echo "== tier1: raw k-mer hashing stays behind pfam-shingle's sketch plane =="
# Sketch contract: the clustering and pipeline layers reach k-mer
# signatures only through pfam_shingle::sketch (Sketcher / kmer_postings)
# so every sketch goes through the batched rank kernels; re-rolling
# KmerIter / pack_word / HashFamily in a data-plane crate would fork the
# hashing and silently break cross-mode identity.
if grep -rn "KmerIter\|pack_word\|HashFamily" crates/cluster/src crates/core/src; then
    echo "tier1 FAIL: raw k-mer hashing in a data-plane crate — use pfam_shingle::sketch" >&2
    exit 1
fi

echo "== tier1: sequence text stays behind pfam-seq's SeqStore =="
# Out-of-core contract: no data-plane crate slurps whole files or
# materializes full sequence text on its own; sequence bytes are reached
# through the SeqStore trait (load_range / codes_cow), so the memory
# budget actually binds. Checkpoint payloads (crates/core/src/
# checkpoint.rs) are pipeline state, not sequence data, and are exempt.
if grep -rn "std::fs::read\b\|std::fs::read_to_string" \
    crates/suffix/src crates/cluster/src crates/shingle/src \
    crates/align/src crates/graph/src crates/datagen/src crates/core/src \
    | grep -v "^crates/core/src/checkpoint\.rs:"; then
    echo "tier1 FAIL: whole-file read in the data plane — route through pfam_seq::SeqStore" >&2
    exit 1
fi

echo "== tier1: cargo test -q (root package) =="
cargo test -q

echo "== tier1: cargo test --workspace -q =="
cargo test --workspace -q

echo "== tier1: fault-injection + checkpoint/restart suites =="
cargo test -q --test fault_tolerance --test checkpoint_resume --test degenerate_inputs

echo "== tier1: chaos soak (supervision, respawn, speculation, quarantine) =="
cargo test -q --test chaos_soak

echo "== tier1: driver-equivalence matrix (PairSource x WorkPolicy) =="
cargo test -q -p pfam-cluster --test driver_matrix

echo "== tier1: work-stealing identity suites (seeded schedules) =="
cargo test -q -p pfam-cluster --test steal_props

echo "== tier1: shard-plane identity suite (sharded == single master) =="
cargo test -q -p pfam-cluster --test shard_identity

echo "== tier1: out-of-core identity suite (bucketed stream == monolithic) =="
cargo test -q -p pfam-cluster --test partitioned_identity

echo "== tier1: alignment-engine identity suites =="
# The tiered engine must be verdict- and output-identical to the reference
# criteria: kernel/property tests, the lockstep batch path on every lane
# kernel, plus the end-to-end RR/CCD/SPMD/FT runs.
cargo test -q -p pfam-align --test engine_props
cargo test -q -p pfam-align --test lockstep_props
cargo test -q --test align_engine

echo "== tier1: index_bench --test (smoke + identity check) =="
cargo run --release -p pfam-bench --bin index_bench -- --test

echo "== tier1: align_bench --test (smoke + verdict-identity check) =="
ALIGN_SMOKE=$(cargo run --release -p pfam-bench --bin align_bench -- --test)
echo "$ALIGN_SMOKE" | grep -q '"outputs_identical": true' || {
    echo "tier1 FAIL: align_bench smoke did not report identical outputs" >&2
    exit 1
}
echo "$ALIGN_SMOKE" | grep '"lockstep"' | grep -q '"outputs_identical": true' || {
    echo "tier1 FAIL: align_bench smoke did not report identical lockstep outputs" >&2
    exit 1
}

echo "== tier1: min-wise kernel + streaming-executor identity suites =="
# The batched rank kernels must be bit-identical to HashFamily::rank, and
# the fused streaming BGG->DSD executor bit-identical to the barrier path.
cargo test -q -p pfam-shingle --test kernel_props
cargo test -q --test streaming_executor

echo "== tier1: bgg_dsd_bench --test (smoke + executor/kernel identity) =="
BGG_SMOKE=$(cargo run --release -p pfam-bench --bin bgg_dsd_bench -- --test)
echo "$BGG_SMOKE" | grep -q '"outputs_identical": true' || {
    echo "tier1 FAIL: bgg_dsd_bench smoke did not report identical outputs" >&2
    exit 1
}

echo "== tier1: steal_bench --test (smoke + schedule-identity check) =="
STEAL_SMOKE=$(cargo run --release -p pfam-bench --bin steal_bench -- --test)
echo "$STEAL_SMOKE" | grep -q '"components_identical": true' || {
    echo "tier1 FAIL: steal_bench smoke did not report identical components" >&2
    exit 1
}

echo "== tier1: shard_bench --test (smoke + shard/single-master identity) =="
SHARD_SMOKE=$(cargo run --release -p pfam-bench --bin shard_bench -- --test)
echo "$SHARD_SMOKE" | grep -q '"components_identical": true' || {
    echo "tier1 FAIL: shard_bench smoke did not report identical components" >&2
    exit 1
}

echo "== tier1: index_oc_bench --test (smoke + bucketed-stream identity) =="
OC_SMOKE=$(cargo run --release -p pfam-bench --bin index_oc_bench -- --test)
echo "$OC_SMOKE" | grep -q '"pairs_identical": true' || {
    echo "tier1 FAIL: index_oc_bench smoke did not report identical pair streams" >&2
    exit 1
}

echo "== tier1: pipeline benchmark tests (perfbench builds against the library API) =="
# perfbench is a package of its own that times the public API from
# outside; its tests smoke-run every workload, so a library change that
# breaks the benchmark fails here rather than at benchmark time.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== tier1: sketch driver-matrix suite (LSH axis + hybrid == exact) =="
cargo test -q -p pfam-cluster --test driver_matrix sketch_axis_agrees_across_policies_and_shard_counts
cargo test -q -p pfam-cluster --test driver_matrix hybrid_exhaustive_equals_exact_pair_set_and_components

echo "== tier1: lsh_bench --test (smoke + recall/memory/hybrid-identity fields) =="
LSH_SMOKE=$(cargo run --release -p pfam-bench --bin lsh_bench -- --test)
echo "$LSH_SMOKE" | grep -q '"recall"' || {
    echo "tier1 FAIL: lsh_bench smoke did not report a recall field" >&2
    exit 1
}
echo "$LSH_SMOKE" | grep -q '"peak_bytes"' || {
    echo "tier1 FAIL: lsh_bench smoke did not report allocator peak fields" >&2
    exit 1
}
echo "$LSH_SMOKE" | grep -q '"hybrid_exact_identical": true' || {
    echo "tier1 FAIL: lsh_bench smoke did not verify hybrid == exact pair sets" >&2
    exit 1
}

echo "== tier1: ft_bench --test (smoke + recovery identity check) =="
FT_SMOKE=$(cargo run --release -p pfam-bench --bin ft_bench -- --test)
echo "$FT_SMOKE" | grep -q '"components_identical": true' || {
    echo "tier1 FAIL: ft_bench smoke did not report identical components" >&2
    exit 1
}

echo "== tier1: CLI kill/resume smoke (byte-identical families.tsv) =="
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./target/release/pfam generate --out "$SMOKE/reads.fasta" --families 3 --members 25 --seed 7
./target/release/pfam run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" \
    --stop-after ccd --min-size 3 --out "$SMOKE/ignored.tsv"
./target/release/pfam run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" \
    --resume --min-size 3 --out "$SMOKE/resumed.tsv"
./target/release/pfam cluster "$SMOKE/reads.fasta" --min-size 3 --out "$SMOKE/straight.tsv"
diff "$SMOKE/resumed.tsv" "$SMOKE/straight.tsv"

echo "== tier1: CLI sharded-cluster smoke (byte-identical families.tsv) =="
./target/release/pfam cluster "$SMOKE/reads.fasta" --min-size 3 --shards 3 \
    --out "$SMOKE/sharded.tsv"
diff "$SMOKE/sharded.tsv" "$SMOKE/straight.tsv"

echo "== tier1: OK =="
