//! The budgeted out-of-core pipeline equals the unbudgeted in-memory one.
//!
//! Redundancy removal keeps the first read of every redundant pair it
//! verifies, so its result depends on the order of the promising-pair
//! stream, not just on the pair set. Under a budget, a paged store is
//! mined by the prefix-bucketed miner; its stream must be the monolithic
//! miner's, pair for pair, or the non-redundant set — and every family
//! downstream of it — drifts with the budget.

use pfam::cluster::PartitionedMinedSource;
use pfam::core::{run_pipeline, run_pipeline_budgeted, PipelineConfig};
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::seq::{PagedSeqStore, SeqStore};
use pfam::suffix::{estimated_text_bytes, RANK_BYTES_PER_SUFFIX};

/// Long-tail metagenome reads: many families of about ten members with
/// mild skew, short ORFs, 14 % redundant copies and 10 % noise.
fn longtail(n_members: usize, seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: n_members / 10,
        n_members,
        size_skew: 0.3,
        ancestor_len: 80..140,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: n_members / 10,
        seed,
        ..DatasetConfig::default()
    })
}

#[test]
fn budgeted_paged_pipeline_equals_unbudgeted_in_memory() {
    let d = longtail(1_600, 3);
    let dir = std::env::temp_dir().join(format!("pfam-ooc-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reads.pfss");
    PagedSeqStore::write_set(&path, &d.set, 1 << 14).unwrap();
    let store = PagedSeqStore::open(&path).unwrap();

    // The resident text plus a quarter of the rank arrays of every
    // suffix: the suffixes must be ranked in several bucket groups.
    let text = estimated_text_bytes(store.total_residues(), store.len());
    let budget = text + RANK_BYTES_PER_SUFFIX * store.total_residues() as u64 / 4;
    let budgeted = PipelineConfig::default().with_mem_budget(budget);
    let source = PartitionedMinedSource::new(
        &store,
        &budgeted.cluster,
        budgeted.cluster.psi_rr,
        budgeted.cluster.index_threads(),
    );
    assert!(source.n_groups() >= 3, "only {} bucket groups", source.n_groups());
    drop(source);

    let want = run_pipeline(&d.set, &PipelineConfig::default());
    let got = run_pipeline_budgeted(&store, &budgeted).expect("the budget is feasible");
    assert_eq!(got.non_redundant, want.non_redundant, "non-redundant sets differ");
    assert_eq!(got.components, want.components, "components differ");
    assert_eq!(got.dense_subgraphs, want.dense_subgraphs, "families differ");
    let _ = std::fs::remove_dir_all(&dir);
}
