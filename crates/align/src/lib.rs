#![warn(missing_docs)]
//! # pfam-align — pairwise peptide alignment substrate
//!
//! Dynamic-programming alignment kernels used by the redundancy-removal and
//! connected-component phases of the pipeline:
//!
//! * [`global`] — Needleman–Wunsch global alignment (linear and affine
//!   gaps, Gotoh recurrences), with full traceback.
//! * [`local`] — Smith–Waterman local alignment (affine gaps), the
//!   workhorse behind the paper's Definition 1 (containment) and
//!   Definition 2 (overlap) tests.
//! * [`semiglobal`] — free-end-gap alignment for containment checks.
//! * [`banded`] — banded global alignment around a seed diagonal, the fast
//!   path when a long maximal match anchors the pair.
//! * [`criteria`] — the paper's acceptance tests: `is_contained`
//!   (Def. 1: ≥95 % similarity over the overlap, ≥95 % of the shorter
//!   sequence covered) and `overlaps` (Def. 2: ≥30 % similarity covering
//!   ≥80 % of the longer sequence).
//! * [`engine`] — the tiered, vectorized alignment engine the clustering
//!   hot path goes through: length screens, a SWAR/SSE2/AVX2 score-only
//!   kernel, anchor-seeded banded probes, and a subrectangle traceback —
//!   verdict-identical to [`criteria`] by construction. Batches go
//!   through its lockstep inter-pair kernel, which packs up to sixteen
//!   length-binned pairs into i16 SIMD lanes
//!   ([`AlignEngine::plan_batch`] / [`AlignEngine::verify_group`]).
//! * [`cost`] — the online per-pair cost predictor (`m·n` scaled by the
//!   engine's observed tier-escape rate) that cost-aware schedulers pack
//!   and steal by.
//!
//! Scores use the [`pfam_seq::ScoringScheme`] type (BLOSUM62 by default).

pub mod alignment;
pub mod banded;
pub mod cost;
pub mod criteria;
pub mod engine;
pub mod extend;
pub mod global;
pub mod hirschberg;
pub mod local;
mod lockstep;
pub mod msa;
pub mod render;
pub mod semiglobal;

pub use alignment::{AlignOp, AlignStats, Alignment};
pub use banded::banded_global_affine;
pub use cost::CostModel;
pub use criteria::{is_contained, overlaps, ContainmentParams, OverlapParams};
pub use engine::{AlignEngine, AlignEngineKind, AlignScratch, Anchor, Criterion, EngineVerdict};
pub use extend::{xdrop_extend, Extension};
pub use global::{
    global_affine, global_affine_with, global_linear, global_score, global_score_with,
};
pub use hirschberg::hirschberg;
pub use local::{local_affine, local_affine_with, local_score, local_score_with};
pub use msa::{star_alignment, StarAlignment};
pub use render::render_alignment;
pub use semiglobal::semiglobal_affine;
