//! Lockstep ≡ reference: the batched inter-pair path
//! ([`AlignEngine::plan_batch`] / [`AlignEngine::verify_group`]) must
//! return the reference engine's verdict for every pair — containment and
//! overlap, lane groups filled from 1 to 16, mixed lengths inside one
//! group (padding), empty inputs, and the scheme/length combinations that
//! fall back to the per-pair engine — on every lane kernel this host has.
//!
//! Random cutoffs alone rarely sit near a pair's statistics, so every
//! case also re-verifies the batch with cutoffs placed exactly on a pivot
//! pair's reference similarity and coverage (and one ulp above them): a
//! traceback that deviates from the reference in either statistic flips
//! the pivot's verdict.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam_align::engine::available_lane_kernels;
use pfam_align::{
    local_affine, AlignEngine, AlignEngineKind, Anchor, ContainmentParams, Criterion,
    EngineVerdict, OverlapParams,
};
use pfam_datagen::{random_peptide, MutationModel};
use pfam_seq::{ScoringScheme, SubstMatrix};

type Pair = (Vec<u8>, Vec<u8>);

/// A vector-eligible scheme: BLOSUM62 or a uniform matrix, with gap
/// penalties from free extension (many E/F ties) to the BLAST default.
fn eligible_scheme(rng: &mut StdRng) -> ScoringScheme {
    let matrix = if rng.gen_bool(0.7) {
        SubstMatrix::blosum62().clone()
    } else {
        SubstMatrix::uniform(rng.gen_range(1..6), -rng.gen_range(0..5))
    };
    let gap_open = rng.gen_range(0..13);
    let gap_extend = rng.gen_range(0..=gap_open);
    ScoringScheme { matrix, gap_open, gap_extend }
}

/// One random pair of length 0–300: unrelated, a mutated homolog pair, or
/// a fragment of its partner (the containment-accepting regime).
fn random_pair(rng: &mut StdRng) -> Pair {
    let len = |rng: &mut StdRng| match rng.gen_range(0..10) {
        0 => 0,
        1..=6 => rng.gen_range(1..150),
        _ => rng.gen_range(150..=300),
    };
    let peptide = |rng: &mut StdRng| {
        let n = len(rng);
        random_peptide(rng, n)
    };
    match rng.gen_range(0..3) {
        0 => (peptide(rng), peptide(rng)),
        1 => {
            let rate = rng.gen_range(0.0..0.35);
            let model = MutationModel {
                substitution_rate: rate,
                conservative_fraction: 0.5,
                insertion_rate: rate / 8.0,
                deletion_rate: rate / 8.0,
            };
            let ancestor = peptide(rng);
            (model.mutate(&ancestor, rng), model.mutate(&ancestor, rng))
        }
        _ => {
            let y = peptide(rng);
            let start = rng.gen_range(0..=y.len());
            let end = rng.gen_range(start..=y.len());
            let model = MutationModel {
                substitution_rate: rng.gen_range(0.0..0.08),
                conservative_fraction: 0.5,
                insertion_rate: 0.01,
                deletion_rate: 0.01,
            };
            (model.mutate(&y[start..end], rng), y)
        }
    }
}

fn engine(
    kind: AlignEngineKind,
    s: &ScoringScheme,
    c: ContainmentParams,
    o: OverlapParams,
) -> AlignEngine {
    AlignEngine::new(kind, s.clone(), c, o)
}

fn as_refs(pairs: &[Pair]) -> Vec<(&[u8], &[u8], Option<Anchor>)> {
    pairs.iter().map(|(x, y)| (x.as_slice(), y.as_slice(), None)).collect()
}

/// Per-pair reference verdicts.
fn reference(e: &AlignEngine, mode: Criterion, pairs: &[Pair]) -> Vec<bool> {
    pairs
        .iter()
        .map(|(x, y)| match mode {
            Criterion::Containment => e.contained(x, y, None).accept,
            Criterion::Overlap => e.overlaps(x, y, None).accept,
        })
        .collect()
}

/// Verify `pairs` on every lane kernel, both through the planner (binned
/// units) and as one in-order group, against the reference engine.
fn assert_batch_matches(
    s: &ScoringScheme,
    c: ContainmentParams,
    o: OverlapParams,
    mode: Criterion,
    pairs: &[Pair],
    what: &str,
) -> Vec<EngineVerdict> {
    let want = reference(&engine(AlignEngineKind::Reference, s, c, o), mode, pairs);
    let refs = as_refs(pairs);
    let mut last = Vec::new();
    for kernel in available_lane_kernels() {
        let e = engine(AlignEngineKind::Tiered, s, c, o).with_lane_kernel(kernel);
        let planned: Vec<bool> = e.verify_batch(mode, &refs).iter().map(|v| v.accept).collect();
        assert_eq!(planned, want, "{what}: planned batch on {kernel} ({mode:?})");
        let grouped = e.verify_group(mode, &refs);
        let got: Vec<bool> = grouped.iter().map(|v| v.accept).collect();
        assert_eq!(got, want, "{what}: in-order group on {kernel} ({mode:?})");
        last = grouped;
    }
    last
}

/// Cutoffs on the pivot's reference statistics, and one ulp above each.
fn knife_edges(s: &ScoringScheme, mode: Criterion, (x, y): &Pair) -> Vec<(f64, f64)> {
    let aln = local_affine(x, y, s);
    if aln.is_empty() {
        return Vec::new();
    }
    let st = aln.stats(x, y, &s.matrix);
    let cov = match mode {
        Criterion::Containment => st.coverage_of(st.x_span, x.len()),
        Criterion::Overlap if x.len() >= y.len() => st.coverage_of(st.x_span, x.len()),
        Criterion::Overlap => st.coverage_of(st.y_span, y.len()),
    };
    let sim = st.similarity();
    let up = |v: f64| f64::from_bits(v.to_bits() + 1);
    vec![(sim, cov), (up(sim), cov), (sim, up(cov))]
}

fn params(mode: Criterion, (sim, cov): (f64, f64)) -> (ContainmentParams, OverlapParams) {
    match mode {
        Criterion::Containment => {
            (ContainmentParams { min_similarity: sim, min_coverage: cov }, OverlapParams::default())
        }
        Criterion::Overlap => (
            ContainmentParams::default(),
            OverlapParams { min_similarity: sim, min_longer_coverage: cov },
        ),
    }
}

/// One property case: a random batch of 1–40 pairs under a random
/// eligible scheme, with random cutoffs and with knife-edge cutoffs on
/// two pivot pairs.
fn check_case(seed: u64, mode: Criterion) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = eligible_scheme(&mut rng);
    let n = rng.gen_range(1..=40);
    let pairs: Vec<Pair> = (0..n).map(|_| random_pair(&mut rng)).collect();
    let cut = (rng.gen_range(0.2..1.0), rng.gen_range(0.2..1.0));
    let (c, o) = params(mode, cut);
    assert_batch_matches(&s, c, o, mode, &pairs, &format!("seed {seed} random cutoffs"));
    for _ in 0..2 {
        let pivot = rng.gen_range(0..pairs.len());
        for edge in knife_edges(&s, mode, &pairs[pivot]) {
            let (c, o) = params(mode, edge);
            let what = format!("seed {seed} pivot {pivot} cutoffs {edge:?}");
            assert_batch_matches(&s, c, o, mode, &pairs, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lockstep_containment_matches_reference(seed in 0u64..1_000_000) {
        check_case(seed, Criterion::Containment);
    }

    #[test]
    fn lockstep_overlap_matches_reference(seed in 0u64..1_000_000) {
        check_case(seed, Criterion::Overlap);
    }
}

/// Homolog pairs of one length class, so nothing is length-screened.
fn homologs(rng: &mut StdRng, count: usize, lo: usize, hi: usize) -> Vec<Pair> {
    (0..count)
        .map(|_| {
            let model = MutationModel {
                substitution_rate: rng.gen_range(0.0..0.2),
                conservative_fraction: 0.5,
                insertion_rate: 0.01,
                deletion_rate: 0.01,
            };
            let len = rng.gen_range(lo..hi);
            let ancestor = random_peptide(rng, len);
            (model.mutate(&ancestor, rng), model.mutate(&ancestor, rng))
        })
        .collect()
}

/// Every group fill from 1 to 16 lanes, with mixed lengths inside each
/// group. Groups of two or more lanes take the lockstep path — visible in
/// the cell counters: a traced lane computes exactly `m·n` cells and
/// skips none, which the per-pair subrectangle path never reports.
#[test]
fn every_group_fill_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x10c5);
    let s = ScoringScheme::blosum62_default();
    let (c, o) = (ContainmentParams::default(), OverlapParams::default());
    for fill in 1..=16 {
        let pairs = homologs(&mut rng, fill, 60, 160);
        for mode in [Criterion::Containment, Criterion::Overlap] {
            let verdicts = assert_batch_matches(&s, c, o, mode, &pairs, &format!("fill {fill}"));
            if fill >= 2 {
                for (v, (x, y)) in verdicts.iter().zip(&pairs) {
                    let full = (x.len() * y.len()) as u64;
                    assert_eq!(v.cells_computed, full, "fill {fill}: padding counted");
                    assert!(v.tier == 1 || v.tier == 3, "fill {fill}: tier {}", v.tier);
                    if v.tier == 3 {
                        assert_eq!(v.cells_skipped, 0);
                    } else {
                        assert_eq!(v.cells_skipped, full);
                    }
                }
            }
        }
    }
}

/// One long pair among short ones: the short lanes live almost entirely in
/// padding, and the long lane's rows beyond the short lanes' ends must not
/// leak into their argmax.
#[test]
fn extreme_padding_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0xbad);
    let s = ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open: 4, gap_extend: 1 };
    let mut pairs = homologs(&mut rng, 7, 1, 12);
    pairs.extend(homologs(&mut rng, 1, 280, 300));
    pairs.push((random_peptide(&mut rng, 3), random_peptide(&mut rng, 290)));
    pairs.push((random_peptide(&mut rng, 290), random_peptide(&mut rng, 3)));
    for mode in [Criterion::Containment, Criterion::Overlap] {
        for cut in [(0.3, 0.3), (0.9, 0.5), (0.5, 0.9)] {
            let (c, o) = params(mode, cut);
            assert_batch_matches(&s, c, o, mode, &pairs, &format!("padding {cut:?}"));
        }
    }
}

/// Schemes and shapes the lockstep kernel must refuse — gap extension
/// dearer than opening, matrix entries beyond the i16 guard, and pairs
/// whose rectangle exceeds the group cap — fall back to the per-pair
/// engine, alone and mixed into batches with eligible pairs.
#[test]
fn ineligible_pairs_fall_back_to_the_per_pair_engine() {
    let mut rng = StdRng::seed_from_u64(0xfa11);
    let (c, o) = (ContainmentParams::default(), OverlapParams::default());
    let mut pairs = homologs(&mut rng, 12, 40, 120);
    let schemes = [
        ScoringScheme { matrix: SubstMatrix::blosum62().clone(), gap_open: 1, gap_extend: 3 },
        ScoringScheme { matrix: SubstMatrix::uniform(3000, -1), gap_open: 11, gap_extend: 1 },
    ];
    for s in &schemes {
        for mode in [Criterion::Containment, Criterion::Overlap] {
            assert_batch_matches(s, c, o, mode, &pairs, "ineligible scheme");
        }
    }
    // Too large a rectangle for one lane group, next to eligible pairs.
    pairs.extend(homologs(&mut rng, 2, 560, 600));
    let s = ScoringScheme::blosum62_default();
    for mode in [Criterion::Containment, Criterion::Overlap] {
        assert_batch_matches(&s, c, o, mode, &pairs, "oversized rectangle");
    }
}

/// Empty inputs anywhere in a batch reject at tier 0, like the reference.
#[test]
fn empty_inputs_reject() {
    let mut rng = StdRng::seed_from_u64(7);
    let s = ScoringScheme::blosum62_default();
    let (c, o) = (ContainmentParams::default(), OverlapParams::default());
    let mut pairs = homologs(&mut rng, 5, 20, 40);
    pairs.insert(2, (Vec::new(), random_peptide(&mut rng, 30)));
    pairs.push((random_peptide(&mut rng, 30), Vec::new()));
    pairs.push((Vec::new(), Vec::new()));
    for mode in [Criterion::Containment, Criterion::Overlap] {
        let verdicts = assert_batch_matches(&s, c, o, mode, &pairs, "empty inputs");
        for (v, (x, y)) in verdicts.iter().zip(&pairs) {
            if x.is_empty() || y.is_empty() {
                assert_eq!((v.accept, v.tier, v.cells_computed), (false, 0, 0));
            }
        }
    }
}
