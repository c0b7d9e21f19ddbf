//! Property suite for the out-of-core index plane: the prefix-bucketed
//! generator's stream equals the monolithic miner's — same pairs, same
//! order, same anchors — for every group plan, and checkpoint/resume is
//! byte-identical even when the resumed run is configured with a
//! different chunk size.

use proptest::prelude::*;

use pfam_cluster::{
    run_ccd, run_ccd_resumable, with_mined_source, ClusterConfig, PairSource,
    PartitionedMinedSource,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{SequenceSet, SequenceSetBuilder};
use pfam_suffix::{
    estimated_index_bytes, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig,
    MaximalMatchGenerator, SuffixTree,
};

/// Every field of each pair, in stream order. [`MatchPair`]'s own
/// equality ignores the anchors, so they are compared explicitly.
fn full(pairs: &[MatchPair]) -> Vec<(u32, u32, u32, u32, u32)> {
    pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect()
}

/// The monolithic reference stream (masked view, one big index).
fn mono_pairs(set: &SequenceSet, config: &ClusterConfig, psi: u32) -> Vec<MatchPair> {
    if set.is_empty() {
        return Vec::new();
    }
    with_mined_source(set, config, psi, 1, |s| s.next_batch(usize::MAX))
}

/// The bucketed stream under group target `target`, plus the number of
/// groups and of non-empty prefix buckets.
fn bucketed(
    set: &SequenceSet,
    config: &ClusterConfig,
    psi: u32,
    target: u64,
    threads: usize,
) -> (Vec<MatchPair>, usize, usize) {
    let mut config = config.clone();
    config.mem.index_chunk_bytes = target;
    let mut src = PartitionedMinedSource::new(set, &config, psi, threads);
    let (n_groups, n_buckets) = (src.n_groups(), src.n_buckets());
    (src.next_batch(usize::MAX), n_groups, n_buckets)
}

/// Sweep group targets spanning one group, several groups and one bucket
/// per group, at one and two threads, asserting stream identity for each.
fn assert_sweep_identical(set: &SequenceSet, config: &ClusterConfig, psi: u32) {
    let reference = full(&mono_pairs(set, config, psi));
    let whole = estimated_index_bytes(set.total_residues(), set.len()).max(1);
    for (target, plan) in
        [(whole, "one group"), (whole / 7 + 1, "several groups"), (1, "one bucket")]
    {
        for threads in [1, 2] {
            let (pairs, n_groups, n_buckets) = bucketed(set, config, psi, target, threads);
            assert_eq!(
                full(&pairs),
                reference,
                "bucketed stream diverged: {plan} (target {target}, {n_groups} groups, \
                 threads {threads})"
            );
            match plan {
                "one group" => assert!(n_groups <= 1, "{n_groups} groups"),
                "several groups" if n_buckets >= 8 => assert!(n_groups > 1, "{n_groups} groups"),
                "one bucket" => assert_eq!(n_groups, n_buckets, "one bucket per group"),
                _ => {}
            }
        }
    }
}

fn set_of(seqs: &[&str]) -> SequenceSet {
    let mut b = SequenceSetBuilder::new();
    for (i, s) in seqs.iter().enumerate() {
        b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
    }
    b.finish()
}

#[test]
fn pair_streams_identical_across_group_sweep_on_datagen() {
    for seed in [3u64, 7, 21] {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(seed));
        let config = ClusterConfig::default();
        assert_sweep_identical(&d.set, &config, config.psi_ccd);
        assert_sweep_identical(&d.set, &config, config.psi_rr);
    }
}

#[test]
fn pair_streams_identical_on_empty_and_single_sequence_sets() {
    let config = ClusterConfig::for_short_sequences();
    assert_sweep_identical(&SequenceSet::new(), &config, config.psi_ccd);
    assert_sweep_identical(&set_of(&["MKVLWAAKNDCQEGHILKMFPSTWYV"]), &config, config.psi_ccd);
}

#[test]
fn binding_per_node_cap_keeps_the_stream() {
    // Twenty copies of one word with distinct flanks: the word's node
    // has 190 maximal pairs, far over a cap of 25.
    let flanks = b"ARNDCQEGHILKMFPSTWYV";
    let seqs: Vec<String> = (0..20)
        .map(|i| {
            let l = flanks[i] as char;
            let r = flanks[(i + 7) % 20] as char;
            format!("{l}{l}MKVLWAAKNDCQEG{r}{r}HILK")
        })
        .collect();
    let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
    let set = set_of(&refs);
    let config = ClusterConfig { max_pairs_per_node: 25, ..ClusterConfig::for_short_sequences() };
    let psi = 6;

    let gsa = GeneralizedSuffixArray::build(&set);
    let tree = SuffixTree::build(&gsa);
    let mm = MaximalMatchConfig { min_len: psi, max_pairs_per_node: 25, dedup: true };
    let mut generator = MaximalMatchGenerator::new(&tree, mm);
    generator.by_ref().for_each(drop);
    assert!(generator.stats().pairs_capped > 0, "the cap must bind");

    assert_sweep_identical(&set, &config, psi);
}

#[test]
fn x_residues_and_masking_keep_the_stream() {
    // X residues inside shared words, and low-complexity runs that the
    // index-side mask turns into X.
    let set = set_of(&[
        "MKVLWAAKNDXCQEGHILKMFPSTWYV",
        "GGMKVLWAAKNDXCQEGHILKWW",
        "QQQQQQQQQQQQQQQQMKVLWAAKNDCQ",
        "PPQQQQQQQQQQQQQQQQQQRRMKVLWAAK",
        "XXXXMKVLWXXXX",
        "AAKNDCQEGHILKMFPSTWYVXXXAAKNDCQEGH",
    ]);
    let plain = ClusterConfig::for_short_sequences();
    let masked = ClusterConfig { mask: Some(MaskParams::default()), ..plain.clone() };
    for config in [plain, masked] {
        for psi in [3u32, 5, 8] {
            assert_sweep_identical(&set, &config, psi);
        }
    }
}

#[test]
fn repeat_straddling_bucket_groups_is_found() {
    // A long shared word placed in the first and last sequence, with a
    // decoy in between, mined under one-bucket groups.
    const WORD: &str = "MKVLWAAKNDCQEGH";
    let s0 = format!("{WORD}ILKMFPSTWYV");
    let s1 = "GGHHIIPPWWYYVVRRNNDD".to_string();
    let s2 = format!("TTYYWWPP{WORD}");
    let set = set_of(&[&s0, &s1, &s2]);
    let config = ClusterConfig::for_short_sequences();
    let psi = WORD.len() as u32;

    let (pairs, n_groups, n_buckets) = bucketed(&set, &config, psi, 1, 1);
    assert_eq!(n_groups, n_buckets, "one bucket per group expected");
    assert!(
        pairs.iter().any(|p| p.a.0 == 0 && p.b.0 == 2 && p.len >= psi),
        "the repeat pair (0, 2) must be mined: {pairs:?}"
    );
    assert_eq!(full(&pairs), full(&mono_pairs(&set, &config, psi)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random sets over a small alphabet (so repeats abound), with X
    /// residues, under random cutoffs and group targets: always the
    /// monolithic stream.
    #[test]
    fn bucketed_stream_is_monolithic_for_every_group_plan(
        seqs in prop::collection::vec("[ACDX]{1,40}", 1..12),
        psi in 1u32..9,
        target in 1u64..4096,
        cap in 1usize..60,
        threads in 1usize..3,
    ) {
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let set = set_of(&refs);
        let config = ClusterConfig { max_pairs_per_node: cap, ..ClusterConfig::for_short_sequences() };
        let reference = full(&mono_pairs(&set, &config, psi));
        let (pairs, _, _) = bucketed(&set, &config, psi, target, threads);
        prop_assert_eq!(full(&pairs), reference);
    }
}

#[test]
fn components_identical_through_run_ccd_across_chunk_sizes() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(31));
    let reference = run_ccd(&d.set, &ClusterConfig::default());
    for chunk_bytes in [512u64, 4096, 1 << 16] {
        let mut cfg = ClusterConfig::default();
        cfg.mem.index_chunk_bytes = chunk_bytes;
        let got = run_ccd(&d.set, &cfg);
        assert_eq!(got.components, reference.components, "chunk target {chunk_bytes}");
        assert_eq!(got.n_merges, reference.n_merges, "chunk target {chunk_bytes}");
        assert_eq!(got.trace, reference.trace, "chunk target {chunk_bytes}");
    }
}

#[test]
fn resume_with_a_different_chunk_size_is_byte_identical() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(77));
    // The checkpointed run mines through forced 2 KiB groups.
    let mut cfg_a = ClusterConfig { batch_size: 32, ..ClusterConfig::default() };
    cfg_a.mem.index_chunk_bytes = 2048;
    let full = run_ccd(&d.set, &cfg_a);

    let mut cursors = Vec::new();
    let observed = run_ccd_resumable(&d.set, &cfg_a, None, 1, &mut |c| cursors.push(c.clone()));
    assert_eq!(observed.components, full.components);
    assert_eq!(observed.trace, full.trace);
    assert!(cursors.len() >= 3, "want several boundaries, got {}", cursors.len());
    assert!(
        cursors.iter().all(|c| c.gen_chunk_bytes == 2048),
        "every cursor must pin the generation plan it was cut under"
    );

    // Resume under configs with a *different* chunk size — monolithic
    // routing and a mismatched chunk target. The exact stream does not
    // depend on the plan, so the replay is byte-identical: same
    // components, same edges, same trace.
    let step = (cursors.len() / 3).max(1);
    for cursor in cursors.into_iter().step_by(step) {
        for resumed_chunk in [0u64, 512] {
            let mut cfg_b = cfg_a.clone();
            cfg_b.mem.index_chunk_bytes = resumed_chunk;
            let resumed = run_ccd_resumable(&d.set, &cfg_b, Some(cursor.clone()), 0, &mut |_| {});
            assert_eq!(resumed.components, full.components, "resumed chunk {resumed_chunk}");
            assert_eq!(resumed.edges, full.edges, "resumed chunk {resumed_chunk}");
            assert_eq!(resumed.n_merges, full.n_merges, "resumed chunk {resumed_chunk}");
            assert_eq!(
                resumed.trace, full.trace,
                "trace must replay exactly (resumed chunk {resumed_chunk})"
            );
        }
    }
}

#[test]
fn monolithic_checkpoint_resumes_under_a_chunked_config() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(78));
    // The checkpointed run mined one big index (the default routing).
    let cfg_mono = ClusterConfig { batch_size: 32, ..ClusterConfig::default() };
    let full = run_ccd(&d.set, &cfg_mono);

    let mut cursors = Vec::new();
    let observed = run_ccd_resumable(&d.set, &cfg_mono, None, 1, &mut |c| cursors.push(c.clone()));
    assert_eq!(observed.components, full.components);
    assert!(cursors.iter().all(|c| c.gen_chunk_bytes == 0), "monolithic runs pin plan 0");
    assert!(cursors.len() >= 2, "want several boundaries, got {}", cursors.len());

    // Resuming under a forced-chunk config must still replay the
    // monolithic order the cursor position refers to.
    let cursor = cursors.swap_remove(cursors.len() / 2);
    let mut cfg_chunked = cfg_mono.clone();
    cfg_chunked.mem.index_chunk_bytes = 1024;
    let resumed = run_ccd_resumable(&d.set, &cfg_chunked, Some(cursor), 0, &mut |_| {});
    assert_eq!(resumed.components, full.components);
    assert_eq!(resumed.edges, full.edges);
    assert_eq!(resumed.trace, full.trace);
}
