//! Multithreaded construction of the suffix-index hot path: suffix array,
//! LCP array, and maximal-match pair generation.
//!
//! Every routine here is **bit-identical** to its serial counterpart —
//! parallelism changes wall-clock time, never output:
//!
//! * [`suffix_array_parallel`] sorts `(packed k-symbol prefix, position)`
//!   pairs with a parallel merge sort. All suffixes of the indexed text
//!   are distinct (each sequence carries a unique sentinel), so the sorted
//!   order is *unique* and must equal what SA-IS produces.
//! * [`lcp_array_parallel`] uses the Φ-array (PLCP) formulation: the PLCP
//!   recurrence runs over text positions, and restarting its `h` counter
//!   at a chunk boundary only discards an acceleration bound, never
//!   changes a value — so chunks fill independently and exactly.
//! * [`parallel_pairs`] partitions the depth-sorted internal-node list
//!   into contiguous chunks, mines each chunk's nodes into per-thread
//!   emit buffers with the same node-local routine the serial generator
//!   uses, then concatenates buffers in chunk order. Because the node
//!   list is depth-sorted and every pair of a node carries that node's
//!   depth, the concatenation *is* the decreasing-length merge; the
//!   stream-level dedup filter then runs over it in that same order,
//!   making every dedup decision identical to the serial walk's.
//!
//! Threading is explicit (scoped OS threads with an atomic work cursor)
//! rather than delegated to a global pool, so the `threads` knob in
//! `ClusterConfig` bounds worker count deterministically; `threads == 0`
//! means "all available cores" and `threads == 1` falls back to the
//! serial reference implementations.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use crate::lcp::{lcp_array, phi_array, plcp_fill};
use crate::maximal::{
    collect_node_pairs, GenerationStats, Leaves, MatchPair, MaximalMatchConfig,
    MaximalMatchGenerator,
};
use crate::sais;
use crate::tree::{NodeId, SuffixTree};

/// Resolve a thread-count knob: `0` means every available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

// ---------------------------------------------------------------------------
// Scoped-thread work-sharing primitives
// ---------------------------------------------------------------------------

/// Run `f(job)` for every `job in 0..jobs` on up to `threads` workers,
/// returning results in job order. Jobs are handed out through an atomic
/// cursor, so skewed job costs balance.
fn parallel_jobs<R, F>(jobs: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.min(jobs);
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    {
        let f = &f;
        let slots = &slots;
        let cursor = &cursor;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    *slots[i].lock().expect("job slot poisoned") = Some(f(i));
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("job slot poisoned").expect("every job produced a result"))
        .collect()
}

/// A one-shot work item: the offset of a slice plus the slice itself,
/// claimed exactly once through the mutex.
type ChunkSlot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;

/// Split `data` into chunks of `chunk_size` and run `f(offset, chunk)` on
/// up to `threads` workers. Chunks are disjoint `&mut` slices, so no
/// synchronisation beyond the work cursor is needed.
pub(crate) fn for_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_size = chunk_size.max(1);
    let pieces =
        data.chunks_mut(chunk_size).enumerate().map(|(i, c)| (i * chunk_size, c)).collect();
    for_pieces_mut(pieces, threads, f);
}

/// Run `f(offset, piece)` once for every `(offset, piece)` on up to
/// `threads` workers — [`for_chunks_mut`] for pieces of uneven size
/// (the bucketed miner's sort units).
pub(crate) fn for_pieces_mut<T, F>(pieces: Vec<(usize, &mut [T])>, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let jobs = pieces.len();
    let workers = threads.min(jobs);
    if workers <= 1 {
        for (off, piece) in pieces {
            f(off, piece);
        }
        return;
    }
    let slots: Vec<ChunkSlot<'_, T>> = pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let cursor = &cursor;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                if i >= jobs {
                    break;
                }
                let (off, piece) = slots[i]
                    .lock()
                    .expect("chunk slot poisoned")
                    .take()
                    .expect("each chunk is taken exactly once");
                f(off, piece);
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Parallel suffix array
// ---------------------------------------------------------------------------

/// Pack the leading symbols of each suffix into a radix key plus the
/// parameters needed to reason about ties.
struct KeyScheme {
    /// Bits per packed symbol.
    bits: u32,
    /// Symbols per key.
    k: usize,
    /// `true` when every text symbol fits in `bits` unmodified, so equal
    /// keys imply the first `k` symbols are equal and tie-breaking may
    /// skip them.
    exact: bool,
}

impl KeyScheme {
    fn for_alphabet(alphabet_size: usize) -> KeyScheme {
        let distinct = alphabet_size.max(2);
        let need = usize::BITS - (distinct - 1).leading_zeros();
        let bits = need.clamp(1, 16);
        KeyScheme { bits, k: (64 / bits) as usize, exact: need <= 16 }
    }

    /// Packed key of the suffix starting at `i`.
    ///
    /// Positions past the end of the text pad with `0`. Padding cannot
    /// cause a false tie in `exact` mode: a suffix shorter than `k`
    /// symbols contains its sequence's *unique* sentinel, which no other
    /// suffix can match symbol-for-symbol.
    ///
    /// In capped mode (alphabet wider than 2¹⁶), the first saturated
    /// symbol freezes the remainder of the key at the cap value. This
    /// keeps the key order consistent with true suffix order: two keys
    /// can only differ at a position where both symbols are below the
    /// cap — i.e. faithful — because a saturated position forces the
    /// rest of both keys to the same frozen tail, turning the pair into
    /// a tie resolved by full comparison.
    #[inline]
    fn key(&self, text: &[u32], i: usize) -> u64 {
        let n = text.len();
        let mut key = 0u64;
        if self.exact {
            for j in 0..self.k {
                let sym = if i + j < n { text[i + j] as u64 } else { 0 };
                key = (key << self.bits) | sym;
            }
        } else {
            let cap = (1u64 << self.bits) - 1;
            let mut saturated = false;
            for j in 0..self.k {
                let sym = if saturated {
                    cap
                } else if i + j < n {
                    (text[i + j] as u64).min(cap)
                } else {
                    0
                };
                saturated |= sym == cap;
                key = (key << self.bits) | sym;
            }
        }
        key
    }

    /// Text offset at which tie-breaking between equal keys must start.
    fn tie_break_skip(&self) -> usize {
        if self.exact {
            self.k
        } else {
            0
        }
    }
}

/// Merge two runs already ordered by `cmp` into `dst`.
fn merge_runs<T: Copy>(
    a: &[T],
    b: &[T],
    dst: &mut [T],
    cmp: &(impl Fn(&T, &T) -> Ordering + Sync),
) {
    debug_assert_eq!(a.len() + b.len(), dst.len());
    let (mut i, mut j) = (0, 0);
    for slot in dst.iter_mut() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => cmp(x, y) != Ordering::Greater,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Parallel merge sort: sort `threads` contiguous runs concurrently, then
/// merge adjacent runs pairwise round by round. Deterministic for any
/// thread count (the comparator is a total order here — all suffixes are
/// distinct — so stability is moot).
fn parallel_sort<T>(v: &mut Vec<T>, threads: usize, cmp: impl Fn(&T, &T) -> Ordering + Sync)
where
    T: Copy + Send + Sync,
{
    let n = v.len();
    if threads <= 1 || n < 2 {
        v.sort_unstable_by(&cmp);
        return;
    }
    let run_len = n.div_ceil(threads);
    for_chunks_mut(v, run_len, threads, |_, chunk| chunk.sort_unstable_by(&cmp));

    // Run boundaries: [0, run_len, 2·run_len, …, n].
    let mut bounds: Vec<usize> = (0..n).step_by(run_len).collect();
    bounds.push(n);

    let mut src: Vec<T> = std::mem::take(v);
    let mut dst: Vec<T> = src.clone();
    while bounds.len() > 2 {
        let n_pairs = (bounds.len() - 1) / 2;
        {
            // Carve dst into one disjoint slice per merge pair (plus the
            // odd tail run, copied verbatim).
            let mut rest: &mut [T] = &mut dst;
            let mut taken = 0usize;
            let mut pair_slices = Vec::with_capacity(n_pairs + 1);
            for p in 0..n_pairs {
                let (lo, mid, hi) = (bounds[2 * p], bounds[2 * p + 1], bounds[2 * p + 2]);
                let (head, tail) = rest.split_at_mut(hi - taken);
                pair_slices.push((lo, mid, hi, head));
                rest = tail;
                taken = hi;
            }
            if taken < n {
                rest.copy_from_slice(&src[taken..]);
            }
            let src_ref = &src;
            let cmp_ref = &cmp;
            // `(lo, mid, hi, out)` merge jobs, claimed once each.
            type MergeSlot<'a, T> = Mutex<Option<(usize, usize, usize, &'a mut [T])>>;
            let tasks: Vec<MergeSlot<'_, T>> =
                pair_slices.into_iter().map(|t| Mutex::new(Some(t))).collect();
            let cursor = AtomicUsize::new(0);
            let tasks_ref = &tasks;
            let cursor_ref = &cursor;
            std::thread::scope(|scope| {
                for _ in 0..threads.min(n_pairs) {
                    scope.spawn(move || loop {
                        let i = cursor_ref.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= n_pairs {
                            break;
                        }
                        let (lo, mid, hi, out) = tasks_ref[i]
                            .lock()
                            .expect("merge task poisoned")
                            .take()
                            .expect("each merge task runs once");
                        merge_runs(&src_ref[lo..mid], &src_ref[mid..hi], out, cmp_ref);
                    });
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
        bounds = bounds.iter().copied().step_by(2).chain(std::iter::once(n)).collect();
        bounds.dedup();
    }
    *v = src;
}

/// Build the suffix array of `text` with up to `threads` workers.
///
/// Same contract as [`sais::suffix_array`] (non-empty text ending in a
/// unique smallest sentinel, all values `< alphabet_size`) and the same
/// output — the suffix order of a text whose suffixes are all distinct
/// is unique, so this is checked, not hoped for, by the property tests.
pub fn suffix_array_parallel(text: &[u32], alphabet_size: usize, threads: usize) -> Vec<u32> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return sais::suffix_array(text, alphabet_size);
    }
    let n = text.len();
    assert!(!text.is_empty(), "suffix array input must be non-empty");
    let last = *text.last().expect("non-empty");
    assert!(
        text[..n - 1].iter().all(|&c| c > last),
        "input must end with a unique smallest sentinel"
    );

    let scheme = KeyScheme::for_alphabet(alphabet_size);
    let mut entries: Vec<(u64, u32)> = vec![(0, 0); n];
    for_chunks_mut(&mut entries, n.div_ceil(threads * 4), threads, |off, chunk| {
        for (d, e) in chunk.iter_mut().enumerate() {
            let i = off + d;
            *e = (scheme.key(text, i), i as u32);
        }
    });

    let skip = scheme.tie_break_skip();
    let cmp = |a: &(u64, u32), b: &(u64, u32)| -> Ordering {
        a.0.cmp(&b.0).then_with(|| {
            let (pa, pb) = (a.1 as usize + skip, b.1 as usize + skip);
            text[pa.min(n)..].cmp(&text[pb.min(n)..])
        })
    };
    parallel_sort(&mut entries, threads, cmp);

    let mut sa = vec![0u32; n];
    for_chunks_mut(&mut sa, n.div_ceil(threads), threads, |off, chunk| {
        for (d, s) in chunk.iter_mut().enumerate() {
            *s = entries[off + d].1;
        }
    });
    sa
}

// ---------------------------------------------------------------------------
// Parallel LCP
// ---------------------------------------------------------------------------

/// Compute the LCP array of `text`/`sa` with up to `threads` workers via
/// the Φ-array (PLCP) formulation. Identical output to
/// [`lcp_array`](crate::lcp::lcp_array).
pub fn lcp_array_parallel(text: &[u32], sa: &[u32], threads: usize) -> Vec<u32> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return lcp_array(text, sa);
    }
    let n = text.len();
    assert_eq!(sa.len(), n, "suffix array length mismatch");
    if n == 0 {
        return Vec::new();
    }
    let phi = phi_array(sa);
    let mut plcp = vec![0u32; n];
    // More chunks than workers: PLCP cost is skewed toward repetitive
    // regions, and small chunks let the cursor balance them.
    let chunk = n.div_ceil(threads * 8);
    for_chunks_mut(&mut plcp, chunk, threads, |off, out| plcp_fill(text, &phi, off, out));
    let mut lcp = vec![0u32; n];
    for_chunks_mut(&mut lcp, n.div_ceil(threads), threads, |off, out| {
        for (d, slot) in out.iter_mut().enumerate() {
            let r = off + d;
            *slot = if r == 0 { 0 } else { plcp[sa[r] as usize] };
        }
    });
    lcp
}

// ---------------------------------------------------------------------------
// Parallel pair generation
// ---------------------------------------------------------------------------

/// The candidates of a run of tree nodes, mined by one job: the pairs in
/// node order, how many of them each node produced, and how many the
/// per-node cap dropped.
pub(crate) struct MinedNodes {
    pub(crate) pairs: Vec<MatchPair>,
    pub(crate) per_node: Vec<u32>,
    pub(crate) capped: usize,
}

/// Mine the candidates of every node in `queue` with up to `threads`
/// workers. Contiguous chunks of the queue go to per-job emit buffers,
/// returned in queue order, so concatenating them *is* the serial walk's
/// candidate stream (before dedup).
pub(crate) fn mine_nodes(
    tree: &SuffixTree<'_>,
    leaves: &impl Leaves,
    queue: &[NodeId],
    max_pairs_per_node: usize,
    threads: usize,
) -> Vec<MinedNodes> {
    let n_chunks = (threads * 8).min(queue.len().max(1));
    let chunk_size = queue.len().div_ceil(n_chunks).max(1);
    let chunks: Vec<&[NodeId]> = queue.chunks(chunk_size).collect();
    parallel_jobs(chunks.len(), threads, |ci| {
        let mut mined = MinedNodes {
            pairs: Vec::new(),
            per_node: Vec::with_capacity(chunks[ci].len()),
            capped: 0,
        };
        for &node in chunks[ci] {
            let before = mined.pairs.len();
            mined.capped +=
                collect_node_pairs(tree, leaves, node, max_pairs_per_node, &mut mined.pairs);
            mined.per_node.push((mined.pairs.len() - before) as u32);
        }
        mined
    })
}

/// Generate every promising pair of `tree` under `config` with up to
/// `threads` workers, returning the pairs in exactly the order the serial
/// [`MaximalMatchGenerator`] would yield them (decreasing match length;
/// identical dedup decisions) along with the final statistics.
pub fn parallel_pairs(
    tree: &SuffixTree<'_>,
    config: MaximalMatchConfig,
    threads: usize,
) -> (Vec<MatchPair>, GenerationStats) {
    let threads = resolve_threads(threads);
    let queue: Vec<NodeId> = tree
        .nodes_by_depth_desc()
        .into_iter()
        .take_while(|&node| tree.depth(node) >= config.min_len)
        .collect();
    let mined = mine_nodes(tree, tree.gsa(), &queue, config.max_pairs_per_node, threads);

    // The node list is depth-sorted and every pair of a node carries its
    // depth, so the job buffers concatenate into the decreasing-length
    // stream; dedup then runs over it in that same order.
    let mut stats = GenerationStats { nodes_visited: queue.len(), ..Default::default() };
    let total: usize = mined.iter().map(|m| m.pairs.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut seen = crate::maximal::PairKeySet::default();
    for MinedNodes { pairs, capped, .. } in mined {
        stats.pairs_capped += capped;
        for pair in pairs {
            if config.dedup && !seen.insert(pair.key()) {
                stats.pairs_deduped += 1;
                continue;
            }
            stats.pairs_emitted += 1;
            out.push(pair);
        }
    }
    (out, stats)
}

/// A promising-pair stream that is either the lazy serial generator or an
/// eagerly mined parallel run — same `Iterator` surface and same output
/// either way, so the RR/CCD master loops consume both transparently.
pub enum PairSource<'a> {
    /// Lazy serial generation (the reference path).
    Serial(MaximalMatchGenerator<'a>),
    /// Pairs mined up front across threads.
    Eager {
        /// Remaining pairs, in decreasing-match-length order.
        pairs: std::vec::IntoIter<MatchPair>,
        /// Final statistics of the mining run.
        stats: GenerationStats,
    },
}

impl<'a> PairSource<'a> {
    /// Statistics so far (final once the stream is exhausted; the eager
    /// variant's are final immediately).
    pub fn stats(&self) -> GenerationStats {
        match self {
            PairSource::Serial(g) => g.stats(),
            PairSource::Eager { stats, .. } => *stats,
        }
    }
}

impl<'a> Iterator for PairSource<'a> {
    type Item = MatchPair;

    fn next(&mut self) -> Option<MatchPair> {
        match self {
            PairSource::Serial(g) => g.next(),
            PairSource::Eager { pairs, .. } => pairs.next(),
        }
    }
}

/// Open a promising-pair stream over `tree`: serial when `threads == 1`,
/// eagerly parallel otherwise (`0` = all cores). Output order and content
/// are identical in both modes.
pub fn promising_pairs<'a>(
    tree: &'a SuffixTree<'a>,
    config: MaximalMatchConfig,
    threads: usize,
) -> PairSource<'a> {
    if resolve_threads(threads) <= 1 {
        PairSource::Serial(MaximalMatchGenerator::new(tree, config))
    } else {
        let (pairs, stats) = parallel_pairs(tree, config, threads);
        PairSource::Eager { pairs: pairs.into_iter(), stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsa::GeneralizedSuffixArray;
    use crate::maximal::all_pairs;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn random_text(rng: &mut StdRng, n: usize, sigma: u32) -> Vec<u32> {
        (0..n).map(|_| rng.gen_range(0..sigma) + 1).chain(std::iter::once(0)).collect()
    }

    #[test]
    fn parallel_sa_matches_sais_on_random_texts() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let n = rng.gen_range(1..400);
            let sigma = rng.gen_range(1..8u32);
            let text = random_text(&mut rng, n, sigma);
            let k = sigma as usize + 2;
            let expect = sais::suffix_array(&text, k);
            for threads in [2, 3, 8] {
                assert_eq!(suffix_array_parallel(&text, k, threads), expect);
            }
        }
    }

    #[test]
    fn parallel_sa_handles_degenerate_texts() {
        // All-equal symbols: every key collides, the tie-break does all
        // the work.
        let mut text = vec![3u32; 64];
        text.push(0);
        assert_eq!(suffix_array_parallel(&text, 5, 4), sais::suffix_array(&text, 5));
        // Tiny texts.
        for text in [vec![0u32], vec![1, 0], vec![2, 1, 0]] {
            assert_eq!(suffix_array_parallel(&text, 3, 4), sais::suffix_array(&text, 3));
        }
    }

    #[test]
    fn capped_keys_stay_consistent_with_suffix_order() {
        // Alphabet wider than 2^16 forces the saturating key path.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = rng.gen_range(2..200);
            let mut text: Vec<u32> = (0..n).map(|_| rng.gen_range(0..200_000u32) + 1).collect();
            text.push(0);
            let k = 200_002usize;
            assert_eq!(suffix_array_parallel(&text, k, 4), sais::suffix_array(&text, k));
        }
    }

    #[test]
    fn parallel_lcp_matches_kasai() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..25 {
            let n = rng.gen_range(1..400);
            let sigma = rng.gen_range(1..6u32);
            let text = random_text(&mut rng, n, sigma);
            let sa = sais::suffix_array(&text, sigma as usize + 2);
            let expect = lcp_array(&text, &sa);
            for threads in [2, 3, 8] {
                assert_eq!(lcp_array_parallel(&text, &sa, threads), expect);
            }
        }
    }

    #[test]
    fn parallel_pairs_match_serial_order_exactly() {
        let set = set_of(&[
            "MKVLWAAKNDCQEGH",
            "MKVLWAAKNDCQEGH",
            "GGMKVLWAAKNDGG",
            "WYVFPSTWYVFPST",
            "AAWYVFPSTWYVAA",
            "HILKMFHILKMF",
        ]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        for dedup in [true, false] {
            let config = MaximalMatchConfig { min_len: 4, dedup, ..Default::default() };
            let serial = all_pairs(&tree, config);
            for threads in [2, 4, 8] {
                let (parallel, stats) = parallel_pairs(&tree, config, threads);
                assert_eq!(parallel, serial, "dedup={dedup} threads={threads}");
                assert_eq!(stats.pairs_emitted, serial.len());
            }
        }
    }

    #[test]
    fn pair_source_modes_agree() {
        let set = set_of(&["AAMKVLWAA", "CCMKVLWCC", "DDMKVLWDD"]);
        let gsa = GeneralizedSuffixArray::build(&set);
        let tree = SuffixTree::build(&gsa);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let serial: Vec<_> = promising_pairs(&tree, config, 1).collect();
        let mut eager = promising_pairs(&tree, config, 4);
        let eager_pairs: Vec<_> = eager.by_ref().collect();
        assert_eq!(eager_pairs, serial);
        assert_eq!(eager.stats().pairs_emitted, serial.len());
        assert!(eager.stats().nodes_visited >= 1);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
