//! Out-of-core promising-pair mining: a prefix-bucketed suffix index
//! (the PaCE construction, run group by group on one machine).
//!
//! The monolithic [`crate::GeneralizedSuffixArray`] needs ~16 bytes per
//! text character resident at once, which caps the indexable data set far
//! below the paper's 28.6 M-ORF scale. [`BucketedMiner`] keeps only the
//! text resident (one byte per character, [`estimated_text_bytes`]) and
//! ranks the suffixes a slice at a time:
//!
//! 1. The store is loaded range by range through a [`ChunkPlan`] and
//!    encoded once, in an order-preserving byte form of the monolithic
//!    encoding (sentinels and `X`s rank by position, as their unique
//!    monolithic characters do).
//! 2. One counting pass ([`BucketCensus`]) assigns every suffix to the
//!    bucket of its first `p = min(ψ, MAX_BUCKET_PREFIX)` symbols. A
//!    suffix with a sentinel or an `X` among those symbols is dropped: its
//!    longest common prefix with any other suffix is shorter than `p`, so
//!    no node of depth ≥ ψ holds it.
//! 3. Contiguous bucket ranges are packed into *groups* whose rank arrays
//!    ([`RANK_BYTES_PER_SUFFIX`] per suffix) fit the group target.
//! 4. Per group: the suffixes are sorted bucket by bucket (buckets are
//!    independent sort units, spread over the crate's job runner), the LCP
//!    array is computed, the lcp-interval tree is built and its nodes of
//!    depth ≥ ψ are mined with the same node-local routine as the
//!    monolithic generator. Suffixes with no neighbour sharing ψ symbols
//!    sit in no deep node and are dropped before the tree is built, and
//!    LCP values below ψ are zeroed, so the tree holds the deep nodes only.
//!
//! ## Why the stream equals the monolithic one
//!
//! Buckets are numbered in suffix order (a bucket is its prefix read as a
//! base-20 number, and residue codes are encoded in code order), dropped
//! suffixes sort between buckets, never inside one, and the suffixes of a
//! bucket are ordered by the monolithic comparison. So a group is a
//! contiguous slice of the monolithic suffix order minus suffixes no deep
//! node holds. The LCP between neighbours inside a bucket is the monolithic
//! one; across a bucket boundary it is below `p ≤ ψ`. Hence every
//! lcp-interval of depth ≥ ψ in a group's tree is an interval of the
//! monolithic tree with the same suffixes in the same order, the same
//! internal children and the same leaves — and
//! [`collect_node_pairs`](crate::maximal) depends on nothing else, so it
//! yields the same candidates, anchors and cap decisions.
//!
//! The monolithic stream visits nodes by depth, descending, equal depths
//! by SA range start ([`SuffixTree::nodes_by_depth_desc`]) and keeps the
//! first pair per sequence pair. The miner dedups inside each group (the
//! group's node order is a subsequence of the monolithic one, so the
//! first occurrence in the group is the only one that can be first
//! overall), stably merges the groups' node runs by depth — ties come
//! out in global range-start order, as groups are slices of the global
//! suffix order — and dedups again: the result is the monolithic stream, pair for pair,
//! anchors included, with the same statistics.

use std::cmp::{Ordering, Reverse};
use std::ops::Range;

use pfam_seq::{BudgetError, MemoryBudget, Reservation, SeqId, SequenceSet, ALPHABET_SIZE};

use crate::gsa::{estimated_index_bytes, GeneralizedSuffixArray};
use crate::maximal::{GenerationStats, Leaves, MatchPair, MaximalMatchConfig, PairKeySet};
use crate::parallel::{for_chunks_mut, for_pieces_mut, mine_nodes, resolve_threads, MinedNodes};
use crate::tree::{NodeId, SuffixTree};

/// Bytes per ranked suffix of a group: its suffix-array and LCP entries.
pub const RANK_BYTES_PER_SUFFIX: u64 = 8;

/// Longest bucket prefix, in residues (20⁴ = 160 000 buckets). Any
/// prefix no longer than ψ yields the same stream; longer prefixes only
/// make the sort units, and so the smallest feasible group, smaller.
pub const MAX_BUCKET_PREFIX: u32 = 4;

/// Residue codes a bucket prefix can hold (`X` is excluded).
const RESIDUES: u32 = (ALPHABET_SIZE - 1) as u32;

/// A partition of the sequence id space `0..n` into contiguous load
/// ranges, planned so each range's estimated index footprint stays under
/// a target: the order in which an out-of-core miner pages its input in.
///
/// Chunks hold whole sequences and at least one sequence each, so a
/// single sequence larger than the target *clamps* rather than fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Chunk boundaries: chunk `c` covers ids `starts[c]..starts[c+1]`.
    starts: Vec<u32>,
    /// Total residues per chunk.
    residues: Vec<u64>,
}

impl ChunkPlan {
    /// Greedily pack sequences (by their lengths, in id order) into
    /// chunks whose estimated index bytes stay ≤ `target_chunk_bytes`.
    /// A target of `0` means "one chunk" (no partitioning).
    pub fn plan(lens: &[u32], target_chunk_bytes: u64) -> ChunkPlan {
        if target_chunk_bytes == 0 {
            return ChunkPlan::single(lens);
        }
        let mut starts = vec![0u32];
        let mut residues = Vec::new();
        let mut acc_res = 0u64;
        let mut acc_n = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            let next_res = acc_res + len as u64;
            let next_n = acc_n + 1;
            if acc_n > 0
                && estimated_index_bytes(next_res as usize, next_n as usize) > target_chunk_bytes
            {
                starts.push(i as u32);
                residues.push(acc_res);
                acc_res = len as u64;
                acc_n = 1;
            } else {
                acc_res = next_res;
                acc_n = next_n;
            }
        }
        if acc_n > 0 {
            residues.push(acc_res);
            starts.push(lens.len() as u32);
        }
        ChunkPlan { starts, residues }
    }

    /// The trivial one-chunk plan covering all of `lens`.
    pub fn single(lens: &[u32]) -> ChunkPlan {
        if lens.is_empty() {
            return ChunkPlan { starts: vec![0], residues: Vec::new() };
        }
        ChunkPlan {
            starts: vec![0, lens.len() as u32],
            residues: vec![lens.iter().map(|&l| l as u64).sum()],
        }
    }

    /// Number of chunks (0 for an empty id space).
    pub fn n_chunks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of sequences covered.
    pub fn n_seqs(&self) -> u32 {
        *self.starts.last().expect("starts is never empty")
    }

    /// Total residues covered.
    pub fn n_residues(&self) -> u64 {
        self.residues.iter().sum()
    }

    /// The id range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> Range<u32> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Estimated index bytes of chunk `c` alone.
    pub fn chunk_index_bytes(&self, c: usize) -> u64 {
        let n = self.starts[c + 1] - self.starts[c];
        estimated_index_bytes(self.residues[c] as usize, n as usize)
    }
}

/// Call `f(offset, bucket)` for every suffix of one sequence's residues
/// `syms` whose first `prefix` (≥ 1) symbols are all residues. `code`
/// maps a symbol to its residue code, `None` for `X`. The bucket is the
/// prefix read as a base-20 number, so bucket order is suffix order.
fn scan_buckets(
    syms: &[u8],
    prefix: u32,
    code: impl Fn(u8) -> Option<u32>,
    mut f: impl FnMut(usize, u32),
) {
    let high = RESIDUES.pow(prefix - 1);
    let (mut key, mut run) = (0u32, 0u32);
    for (i, &s) in syms.iter().enumerate() {
        match code(s) {
            Some(c) => {
                key = (key % high) * RESIDUES + c;
                run += 1;
                if run >= prefix {
                    f(i + 1 - prefix as usize, key);
                }
            }
            None => (key, run) = (0, 0),
        }
    }
}

/// Suffix counts per prefix bucket — the counting pass of the bucketed
/// miner, and the census [`BucketCensus::min_index_bytes`] sizes the
/// smallest feasible bucketed index from.
#[derive(Debug, Clone)]
pub struct BucketCensus {
    prefix: u32,
    counts: Vec<u32>,
    residues: u64,
    seqs: u64,
}

impl BucketCensus {
    /// An empty census for match cutoff `psi`: buckets of the first
    /// `min(psi, MAX_BUCKET_PREFIX)` residues.
    pub fn new(psi: u32) -> BucketCensus {
        let prefix = psi.min(MAX_BUCKET_PREFIX);
        BucketCensus {
            prefix,
            counts: vec![0; RESIDUES.pow(prefix) as usize],
            residues: 0,
            seqs: 0,
        }
    }

    /// Count the suffixes of every sequence of `set` (the next sequences
    /// of the id space). With a zero-length prefix every suffix,
    /// sentinels included, is in the one bucket.
    pub fn add(&mut self, set: &SequenceSet) {
        self.residues += set.total_residues() as u64;
        self.seqs += set.len() as u64;
        if self.prefix == 0 {
            self.counts[0] += (set.total_residues() + set.len()) as u32;
            return;
        }
        let counts = &mut self.counts;
        for seq in set.iter() {
            scan_buckets(
                seq.codes,
                self.prefix,
                |c| (u32::from(c) < RESIDUES).then_some(u32::from(c)),
                |_, b| counts[b as usize] += 1,
            );
        }
    }

    /// Suffixes in the largest bucket.
    pub fn largest_bucket(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0) as u64
    }

    /// Buckets holding at least one suffix.
    pub fn nonempty_buckets(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Suffixes counted in buckets `buckets`.
    fn suffixes_in(&self, buckets: &Range<u32>) -> u64 {
        self.counts[buckets.start as usize..buckets.end as usize].iter().map(|&c| c as u64).sum()
    }

    /// The least budget a bucketed index over the counted sequences can
    /// run in: the resident encoded text plus the rank arrays of the
    /// largest bucket (a group holds at least one bucket).
    pub fn min_index_bytes(&self) -> u64 {
        estimated_text_bytes(self.residues as usize, self.seqs as usize)
            + RANK_BYTES_PER_SUFFIX * self.largest_bucket()
    }
}

/// Pack contiguous bucket ranges into groups of at most `target` rank
/// bytes; a bucket larger than the target gets a group of its own.
fn plan_groups(counts: &[u32], target: u64) -> Vec<Range<u32>> {
    let mut groups = Vec::new();
    let (mut start, mut acc) = (0usize, 0u64);
    for (b, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as u64;
        if acc > 0 && (acc + c) * RANK_BYTES_PER_SUFFIX > target {
            groups.push(start as u32..b as u32);
            (start, acc) = (b, 0);
        }
        acc += c;
    }
    if acc > 0 {
        groups.push(start as u32..counts.len() as u32);
    }
    groups
}

/// The miner's resident text: one byte per residue and per sequence end.
///
/// Symbols are ordered as the monolithic encoding orders them: a
/// sentinel ([`SENTINEL`]) below every residue (`code + 1`), an `X`
/// ([`UNKNOWN`]) above. The monolithic index gives every sentinel and
/// every `X` a character of its own; those characters rank in text order
/// — sentinels by sequence id, except the last sequence's, which is the
/// smallest character of all; `X`s by occurrence — so positions stand in
/// for the values this text does not store.
struct Text {
    codes: Vec<u8>,
    /// First position of each sequence.
    starts: Vec<u32>,
}

/// A sequence end in [`Text`].
const SENTINEL: u8 = 0;
/// An `X` in [`Text`] (residues are `1..=RESIDUES`).
const UNKNOWN: u8 = RESIDUES as u8 + 1;

impl Text {
    fn with_capacity(n_residues: usize, n_seqs: usize) -> Text {
        Text { codes: Vec::with_capacity(n_residues + n_seqs), starts: Vec::with_capacity(n_seqs) }
    }

    /// Append the sequences of `set` (the next ids of the id space).
    fn push_set(&mut self, set: &SequenceSet) {
        for seq in set.iter() {
            let start = u32::try_from(self.codes.len()).expect("text positions fit u32");
            self.starts.push(start);
            self.codes.extend(seq.codes.iter().map(|&c| {
                if u32::from(c) < RESIDUES {
                    c + 1
                } else {
                    UNKNOWN
                }
            }));
            self.codes.push(SENTINEL);
        }
        assert!(u32::try_from(self.codes.len()).is_ok(), "text positions fit u32");
    }

    /// Positions of sequence `i`'s residues (its sentinel excluded).
    fn residue_span(&self, i: usize) -> Range<usize> {
        let end = self.starts.get(i + 1).map_or(self.codes.len(), |&s| s as usize);
        self.starts[i] as usize..end - 1
    }

    /// Residue code of a text symbol, `None` for a sentinel or an `X`.
    #[inline]
    fn residue(sym: u8) -> Option<u32> {
        (sym != SENTINEL && sym != UNKNOWN).then(|| u32::from(sym) - 1)
    }

    /// Monolithic order of the distinct suffixes at `a` and `b`, whose
    /// first `skip` symbols are equal.
    fn cmp_suffixes(&self, a: usize, b: usize, skip: usize) -> Ordering {
        let c = &self.codes;
        let mut h = skip;
        loop {
            let (x, y) = (c[a + h], c[b + h]);
            if x != y {
                return x.cmp(&y);
            }
            if x == SENTINEL || x == UNKNOWN {
                // Distinct unique characters: rank by position, the last
                // sequence's sentinel lowest.
                let (pa, pb) = (a + h, b + h);
                let last = c.len() - 1;
                return if x == SENTINEL && pa == last {
                    Ordering::Less
                } else if x == SENTINEL && pb == last {
                    Ordering::Greater
                } else {
                    pa.cmp(&pb)
                };
            }
            h += 1;
        }
    }

    /// Longest common prefix of the suffixes at `a` and `b` (sentinels
    /// and `X`s never match).
    #[inline]
    fn lcp(&self, a: usize, b: usize) -> u32 {
        let c = &self.codes;
        let mut h = 0;
        while c[a + h] == c[b + h] && Text::residue(c[a + h]).is_some() {
            h += 1;
        }
        h as u32
    }

    /// Packed 5-bit-per-symbol sort key of the next 12 symbols from `p`.
    /// The first sentinel or `X` freezes the rest of the key, so key
    /// order never contradicts suffix order and equal keys fall back to
    /// [`cmp_suffixes`](Self::cmp_suffixes).
    #[inline]
    fn sort_key(&self, p: usize) -> u64 {
        let mut key = 0u64;
        let mut frozen = None;
        for j in 0..12 {
            let sym = frozen.unwrap_or_else(|| {
                let sym = self.codes[p + j];
                if Text::residue(sym).is_none() {
                    frozen = Some(sym);
                }
                sym
            });
            key = (key << 5) | u64::from(sym);
        }
        key
    }

    /// Sort one bucket's suffix positions into suffix order. Every suffix
    /// of a bucket shares its first `skip` symbols.
    fn sort_bucket(&self, skip: usize, bucket: &mut [u32], scratch: &mut Vec<(u64, u32)>) {
        if bucket.len() < 2 {
            return;
        }
        scratch.clear();
        scratch.extend(bucket.iter().map(|&p| (self.sort_key(p as usize + skip), p)));
        scratch.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| self.cmp_suffixes(a.1 as usize, b.1 as usize, skip))
        });
        for (slot, &(_, p)) in bucket.iter_mut().zip(scratch.iter()) {
            *slot = p;
        }
    }

    /// The leaf facts of the suffix at `pos`, as the monolithic index
    /// reports them.
    fn leaf(&self, pos: u32) -> (SeqId, Option<u8>, u32) {
        let seq = self.starts.partition_point(|&s| s <= pos) - 1;
        let off = pos - self.starts[seq];
        let left = if off == 0 {
            None
        } else {
            Text::residue(self.codes[pos as usize - 1]).map(|c| c as u8)
        };
        (SeqId(seq as u32), left, off)
    }
}

/// Estimated resident bytes of the bucketed miner's text over
/// `n_residues` residues in `n_seqs` sequences: one byte per residue and
/// per sequence end, plus the per-sequence start table.
pub fn estimated_text_bytes(n_residues: usize, n_seqs: usize) -> u64 {
    n_residues as u64 + 5 * n_seqs as u64
}

/// Drop the suffixes no node of depth ≥ `psi` holds — those whose LCP
/// with both neighbours is below `psi` — and zero the LCP values below
/// `psi`, in place. The lcp-interval tree of the result has exactly the
/// intervals of depth ≥ `psi` of the input's (same suffixes, same order,
/// same internal children) under a bare root, so mining it is mining the
/// input's tree without building its shallow nodes.
fn keep_deep(sa: &mut Vec<u32>, lcp: &mut Vec<u32>, psi: u32) {
    let n = sa.len();
    let mut w = 0;
    for r in 0..n {
        // `w <= r`: the writes below never touch an entry still unread.
        let left = r > 0 && lcp[r] >= psi;
        let right = r + 1 < n && lcp[r + 1] >= psi;
        if left || right {
            // A deep left LCP means rank r − 1 was kept just before.
            lcp[w] = if left { lcp[r] } else { 0 };
            sa[w] = sa[r];
            w += 1;
        }
    }
    sa.truncate(w);
    lcp.truncate(w);
}

/// The leaf facts of one group's kept suffixes, by rank.
struct GroupLeaves(Vec<(SeqId, Option<u8>, u32)>);

impl Leaves for GroupLeaves {
    #[inline]
    fn leaf(&self, rank: u32) -> (SeqId, Option<u8>, u32) {
        self.0[rank as usize]
    }
}

/// One tree node's surviving pairs in the miner's concatenated buffer.
struct NodeRun {
    depth: u32,
    pairs: Range<usize>,
}

/// Streaming maximal-match miner over a prefix-bucketed suffix index:
/// yields exactly the monolithic `promising_pairs` stream (see the module
/// docs), holding the text plus one group's rank arrays at a time.
///
/// The loader maps a global id range to an in-memory [`SequenceSet`]
/// (ids renumbered from 0) — `SeqStore::load_range` composed with any
/// per-sequence transform (index-side masking is per-sequence, so
/// range-level masking equals whole-set masking).
pub struct BucketedMiner {
    plan: ChunkPlan,
    config: MaximalMatchConfig,
    threads: usize,
    /// The text, dropped once the stream is mined.
    text: Option<Text>,
    census: BucketCensus,
    groups: Vec<Range<u32>>,
    /// The merged stream, mined on the first pull.
    out: Option<std::vec::IntoIter<MatchPair>>,
    stats: GenerationStats,
    /// Budget bytes held for the text and the largest group's ranks.
    _reservations: (Reservation, Reservation),
}

impl BucketedMiner {
    /// Miner without budget enforcement, grouping buckets into at most
    /// `group_bytes` of rank arrays each.
    pub fn new<F: FnMut(Range<u32>) -> SequenceSet>(
        plan: ChunkPlan,
        loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        group_bytes: u64,
    ) -> BucketedMiner {
        let unlimited = MemoryBudget::unlimited();
        BucketedMiner::try_new(plan, loader, config, threads, group_bytes, &unlimited)
            .expect("an unlimited budget admits every plan")
    }

    /// Miner that reserves the resident text against `budget`, loads it,
    /// then packs groups of at most `group_bytes` *and* the budget's
    /// remainder, and reserves the largest. A typed error — never an
    /// abort — when the text, or the text plus the largest single
    /// bucket's ranks, does not fit; mining itself is infallible.
    pub fn try_new<F: FnMut(Range<u32>) -> SequenceSet>(
        plan: ChunkPlan,
        mut loader: F,
        config: MaximalMatchConfig,
        threads: usize,
        group_bytes: u64,
        budget: &MemoryBudget,
    ) -> Result<BucketedMiner, BudgetError> {
        let n_seqs = plan.n_seqs() as usize;
        let n_residues = plan.n_residues() as usize;
        let resident =
            budget.try_reserve("partitioned-gsa", estimated_text_bytes(n_residues, n_seqs))?;
        let mut text = Text::with_capacity(n_residues, n_seqs);
        let mut census = BucketCensus::new(config.min_len);
        for c in 0..plan.n_chunks() {
            let set = loader(plan.chunk_range(c));
            census.add(&set);
            text.push_set(&set);
        }
        let groups = plan_groups(&census.counts, group_bytes.min(budget.remaining()));
        let largest = groups.iter().map(|g| census.suffixes_in(g)).max().unwrap_or(0);
        let ranks = budget.try_reserve("partitioned-gsa", RANK_BYTES_PER_SUFFIX * largest)?;
        Ok(BucketedMiner {
            plan,
            config,
            threads,
            text: Some(text),
            census,
            groups,
            out: None,
            stats: GenerationStats::default(),
            _reservations: (resident, ranks),
        })
    }

    /// The load plan the text was paged in by.
    pub fn plan(&self) -> &ChunkPlan {
        &self.plan
    }

    /// The bucket census of the indexed text.
    pub fn census(&self) -> &BucketCensus {
        &self.census
    }

    /// Number of bucket groups (one rank-array build each).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Generation statistics (final once the first pair is pulled — the
    /// whole stream is mined then).
    pub fn stats(&self) -> GenerationStats {
        self.stats
    }

    /// The suffix and LCP arrays of one group, in the allocations of
    /// `spare`.
    fn group_ranks(
        &self,
        text: &Text,
        buckets: &Range<u32>,
        threads: usize,
        spare: (Vec<u32>, Vec<u32>),
    ) -> (Vec<u32>, Vec<u32>) {
        let prefix = self.census.prefix;
        let counts = &self.census.counts[buckets.start as usize..buckets.end as usize];
        let mut bounds = Vec::with_capacity(counts.len() + 1);
        bounds.push(0usize);
        for &c in counts {
            bounds.push(bounds.last().expect("non-empty") + c as usize);
        }
        let n = *bounds.last().expect("non-empty");
        let (mut sa, mut lcp) = spare;
        sa.clear();
        lcp.clear();
        lcp.resize(n, 0);

        // Counting sort of the group's suffixes by bucket.
        if prefix == 0 {
            sa.extend(0..text.codes.len() as u32);
        } else {
            sa.resize(n, 0);
            let mut cursor = bounds[..counts.len()].to_vec();
            for i in 0..text.starts.len() {
                let span = text.residue_span(i);
                let base = span.start;
                scan_buckets(&text.codes[span], prefix, Text::residue, |off, b| {
                    if buckets.contains(&b) {
                        let slot = &mut cursor[(b - buckets.start) as usize];
                        sa[*slot] = (base + off) as u32;
                        *slot += 1;
                    }
                });
            }
        }

        // Sort bucket by bucket; jobs are runs of whole buckets.
        let job = n.div_ceil(threads * 8).max(1);
        let mut pieces = Vec::new();
        let mut rest: &mut [u32] = &mut sa;
        let mut taken = 0usize;
        for &b in &bounds[1..] {
            if b > taken && (b - taken >= job || b == n) {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(b - taken);
                pieces.push((taken, head));
                rest = tail;
                taken = b;
            }
        }
        let bounds = &bounds;
        for_pieces_mut(pieces, threads, |off, piece| {
            let mut scratch = Vec::new();
            let mut j = bounds.partition_point(|&x| x < off);
            while bounds[j] < off + piece.len() {
                let bucket = &mut piece[bounds[j] - off..bounds[j + 1] - off];
                text.sort_bucket(prefix as usize, bucket, &mut scratch);
                j += 1;
            }
        });

        let sa_ref = &sa;
        for_chunks_mut(&mut lcp, n.div_ceil(threads * 8), threads, |off, out| {
            for (d, slot) in out.iter_mut().enumerate() {
                let r = off + d;
                if r > 0 {
                    *slot = text.lcp(sa_ref[r - 1] as usize, sa_ref[r] as usize);
                }
            }
        });
        (sa, lcp)
    }

    /// Mine every group and merge the groups' node runs into the
    /// monolithic stream.
    fn mine(&mut self) -> Vec<MatchPair> {
        let Some(text) = self.text.take() else {
            return Vec::new();
        };
        let threads = resolve_threads(self.threads);
        let MaximalMatchConfig { min_len, max_pairs_per_node, dedup } = self.config;
        let mut kept: Vec<MatchPair> = Vec::new();
        let mut runs: Vec<NodeRun> = Vec::new();
        let mut spare = (Vec::new(), Vec::new());
        for buckets in &self.groups {
            let (mut sa, mut lcp) = self.group_ranks(&text, buckets, threads, spare);
            keep_deep(&mut sa, &mut lcp, min_len);
            let leaves = GroupLeaves(sa.iter().map(|&pos| text.leaf(pos)).collect());
            let ranks = GeneralizedSuffixArray::ranks_only(sa, lcp);
            let tree = SuffixTree::build(&ranks);
            let queue: Vec<NodeId> = tree
                .nodes_by_depth_desc()
                .into_iter()
                .take_while(|&node| tree.depth(node) >= min_len)
                .collect();
            self.stats.nodes_visited += queue.len();
            let mut seen = PairKeySet::default();
            let mut nodes = queue.iter();
            for MinedNodes { pairs, per_node, capped } in
                mine_nodes(&tree, &leaves, &queue, max_pairs_per_node, threads)
            {
                self.stats.pairs_capped += capped;
                let mut pairs = pairs.into_iter();
                for count in per_node {
                    let node = *nodes.next().expect("one count per queued node");
                    let begin = kept.len();
                    for pair in pairs.by_ref().take(count as usize) {
                        if dedup && !seen.insert(pair.key()) {
                            self.stats.pairs_deduped += 1;
                            continue;
                        }
                        kept.push(pair);
                    }
                    if kept.len() > begin {
                        runs.push(NodeRun { depth: tree.depth(node), pairs: begin..kept.len() });
                    }
                }
            }
            drop(tree);
            spare = ranks.into_ranks();
        }
        drop((text, spare));

        // Runs arrive group by group, each group's by (depth, range
        // start); groups are contiguous slices of the global suffix
        // order. A stable sort by depth therefore orders equal depths by
        // global range start: the monolithic node order.
        runs.sort_by_key(|run| Reverse(run.depth));
        let mut out = Vec::with_capacity(kept.len());
        let mut seen = PairKeySet::default();
        for run in runs {
            for &pair in &kept[run.pairs] {
                if dedup && !seen.insert(pair.key()) {
                    self.stats.pairs_deduped += 1;
                    continue;
                }
                out.push(pair);
            }
        }
        self.stats.pairs_emitted = out.len();
        out
    }
}

impl Iterator for BucketedMiner {
    type Item = MatchPair;

    fn next(&mut self) -> Option<MatchPair> {
        if self.out.is_none() {
            let pairs = self.mine();
            self.out = Some(pairs.into_iter());
        }
        self.out.as_mut().and_then(Iterator::next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::promising_pairs;
    use pfam_seq::{SeqId, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn lens_of(set: &SequenceSet) -> Vec<u32> {
        (0..set.len()).map(|i| set.seq_len(SeqId(i as u32)) as u32).collect()
    }

    /// Every field of a pair, anchors included (`MatchPair::eq` ignores
    /// the anchors).
    fn full(pairs: &[MatchPair]) -> Vec<(u32, u32, u32, u32, u32)> {
        pairs.iter().map(|p| (p.a.0, p.b.0, p.len, p.a_pos, p.b_pos)).collect()
    }

    fn monolithic(
        set: &SequenceSet,
        config: MaximalMatchConfig,
    ) -> (Vec<MatchPair>, GenerationStats) {
        let gsa = GeneralizedSuffixArray::build(set);
        let tree = SuffixTree::build(&gsa);
        let mut source = promising_pairs(&tree, config, 1);
        let pairs = source.by_ref().collect();
        (pairs, source.stats())
    }

    fn miner(
        set: &SequenceSet,
        config: MaximalMatchConfig,
        load: u64,
        group: u64,
    ) -> BucketedMiner {
        let plan = ChunkPlan::plan(&lens_of(set), load);
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };
        BucketedMiner::new(plan, loader, config, 1, group)
    }

    const TEST_SEQS: &[&str] = &[
        "AAMKVLWAAKNDAA",
        "CCMKVLWAAKNDCC", // long shared word with s0
        "DDMKVLWDD",      // shorter shared word with s0/s1
        "EFGHIKLMNPQRST",
        "WYEFGHIKLMNPWY", // shared word with s3
        "MKVLWAAKND",     // whole-sequence match region
        "GGGGGGAAMKVLW",  // repeat-adjacent
        "AXMKVLWXAAKNDX", // X residues split the shared word
    ];

    #[test]
    fn plan_single_covers_everything() {
        let plan = ChunkPlan::plan(&[10, 20, 30], 0);
        assert_eq!(plan.n_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..3);
        assert_eq!(plan.n_residues(), 60);
        assert_eq!(plan.chunk_index_bytes(0), estimated_index_bytes(60, 3));
    }

    #[test]
    fn plan_respects_target_and_covers_all_ids() {
        let lens = vec![50u32; 20];
        // Budget for roughly 5 sequences per chunk.
        let target = estimated_index_bytes(5 * 50, 5);
        let plan = ChunkPlan::plan(&lens, target);
        assert!(plan.n_chunks() >= 4, "plan: {plan:?}");
        assert_eq!(plan.n_seqs(), 20);
        let mut next = 0;
        for c in 0..plan.n_chunks() {
            assert!(plan.chunk_index_bytes(c) <= target, "chunk {c} over target");
            assert_eq!(plan.chunk_range(c).start, next, "chunks are contiguous");
            next = plan.chunk_range(c).end;
        }
        assert_eq!(next, 20);
    }

    #[test]
    fn plan_clamps_oversized_sequences_to_their_own_chunk() {
        // Target smaller than any single sequence: one chunk per sequence,
        // never a failure.
        let plan = ChunkPlan::plan(&[100, 200, 300], 1);
        assert_eq!(plan.n_chunks(), 3);
        for c in 0..3 {
            assert_eq!(plan.chunk_range(c).len(), 1);
        }
    }

    #[test]
    fn plan_empty_space() {
        let plan = ChunkPlan::plan(&[], 1024);
        assert_eq!(plan.n_chunks(), 0);
        assert_eq!(plan.n_seqs(), 0);
        assert_eq!(plan.n_residues(), 0);
    }

    #[test]
    fn census_drops_suffixes_with_a_separator_in_the_prefix() {
        // "AACXAA": with a 2-residue prefix the indexed suffixes are AA
        // (twice) and AC; CX, XA and the last A are dropped.
        let set = set_of(&["AACXAA"]);
        let mut census = BucketCensus::new(2);
        census.add(&set);
        assert_eq!(census.prefix, 2);
        assert_eq!(census.largest_bucket(), 2);
        assert_eq!(census.nonempty_buckets(), 2);
        assert_eq!(
            census.min_index_bytes(),
            estimated_text_bytes(6, 1) + 2 * RANK_BYTES_PER_SUFFIX
        );
        // Long cutoffs cap the prefix.
        assert_eq!(BucketCensus::new(40).prefix, MAX_BUCKET_PREFIX);
    }

    #[test]
    fn groups_cover_every_bucket_in_order() {
        let counts = [0u32, 3, 0, 2, 5, 0, 1];
        // 3 suffixes of ranks per group at most; the 5-suffix bucket
        // clamps to a group of its own.
        let groups = plan_groups(&counts, 3 * RANK_BYTES_PER_SUFFIX);
        assert_eq!(groups, vec![0..3, 3..4, 4..6, 6..7]);
        assert_eq!(plan_groups(&counts, u64::MAX), vec![0..7]);
        assert!(plan_groups(&[0, 0], 1).is_empty());
    }

    #[test]
    fn keep_deep_keeps_runs_sharing_psi_symbols() {
        let mut sa = vec![10, 11, 12, 13, 14, 15, 16];
        let mut lcp = vec![0, 1, 5, 6, 2, 3, 7];
        keep_deep(&mut sa, &mut lcp, 5);
        assert_eq!(sa, vec![11, 12, 13, 15, 16]);
        assert_eq!(lcp, vec![0, 5, 6, 0, 7]);
    }

    #[test]
    fn every_group_plan_is_the_monolithic_stream() {
        let set = set_of(TEST_SEQS);
        for psi in [2u32, 4, 5, 7] {
            let config = MaximalMatchConfig { min_len: psi, ..Default::default() };
            let (mono, mono_stats) = monolithic(&set, config);
            assert!(!mono.is_empty());
            let mut group_counts = Vec::new();
            // One group, several groups, one bucket per group; load
            // ranges of every size down to one sequence.
            for (load, group) in [(0u64, u64::MAX), (400, 200), (1, 40), (700, 1)] {
                let mut m = miner(&set, config, load, group);
                let n_groups = m.n_groups();
                let got: Vec<MatchPair> = m.by_ref().collect();
                assert_eq!(full(&got), full(&mono), "psi={psi} load={load} group={group}");
                assert_eq!(m.stats(), mono_stats, "psi={psi} load={load} group={group}");
                group_counts.push(n_groups);
                if group == 1 {
                    assert_eq!(n_groups, m.census().nonempty_buckets(), "one bucket per group");
                }
            }
            assert_eq!(group_counts[0], 1);
            assert!(group_counts[2] > 1);
        }
    }

    #[test]
    fn binding_per_node_cap_and_no_dedup_match_monolithic() {
        let flanks = b"ARNDCQEGHI";
        let seqs: Vec<String> = (0..20)
            .map(|i| {
                let l = flanks[i % flanks.len()] as char;
                let r = flanks[(i + 1) % flanks.len()] as char;
                format!("{l}MKVLWAAKND{r}")
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let set = set_of(&refs);
        for dedup in [true, false] {
            let config = MaximalMatchConfig { min_len: 5, max_pairs_per_node: 10, dedup };
            let (mono, mono_stats) = monolithic(&set, config);
            assert!(mono_stats.pairs_capped > 0, "the cap must bind");
            for group in [u64::MAX, 64, 1] {
                let mut m = miner(&set, config, 1, group);
                let got: Vec<MatchPair> = m.by_ref().collect();
                assert_eq!(full(&got), full(&mono), "dedup={dedup} group={group}");
                assert_eq!(m.stats(), mono_stats);
            }
        }
    }

    #[test]
    fn load_boundary_straddling_a_repeat_is_exact() {
        // The shared word sits in sequences 0, 1, 5 — split the load
        // plan everywhere between them.
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let (mono, _) = monolithic(&set, config);
        let lens = lens_of(&set);
        for split in 1..set.len() {
            let residues = vec![
                lens[..split].iter().map(|&l| l as u64).sum(),
                lens[split..].iter().map(|&l| l as u64).sum(),
            ];
            let plan = ChunkPlan { starts: vec![0, split as u32, set.len() as u32], residues };
            let loader = |r: Range<u32>| {
                let keep: Vec<SeqId> = r.map(SeqId).collect();
                set.subset(&keep).0
            };
            let got: Vec<MatchPair> = BucketedMiner::new(plan, loader, config, 1, 100).collect();
            assert_eq!(full(&got), full(&mono), "split={split}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_stream() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 4, ..Default::default() };
        let (mono, _) = monolithic(&set, config);
        for threads in [2usize, 3, 8] {
            let plan = ChunkPlan::plan(&lens_of(&set), 300);
            let loader = |r: Range<u32>| {
                let keep: Vec<SeqId> = r.map(SeqId).collect();
                set.subset(&keep).0
            };
            let got: Vec<MatchPair> =
                BucketedMiner::new(plan, loader, config, threads, 80).collect();
            assert_eq!(full(&got), full(&mono), "threads={threads}");
        }
    }

    #[test]
    fn single_sequence_and_empty_sets_yield_nothing() {
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let set = set_of(&["MKVLWMKVLW"]);
        assert_eq!(miner(&set, config, 1, 1).count(), 0);
        let empty = SequenceSet::new();
        let mut m = miner(&empty, config, 1, 1);
        assert_eq!(m.n_groups(), 0);
        assert_eq!(m.next(), None);
    }

    #[test]
    fn budget_boundary_is_text_plus_the_largest_bucket() {
        let set = set_of(TEST_SEQS);
        let config = MaximalMatchConfig { min_len: 5, ..Default::default() };
        let mut census = BucketCensus::new(config.min_len);
        census.add(&set);
        let need = census.min_index_bytes();
        let plan = ChunkPlan::plan(&lens_of(&set), 200);
        let loader = |r: Range<u32>| {
            let keep: Vec<SeqId> = r.map(SeqId).collect();
            set.subset(&keep).0
        };

        let tight = MemoryBudget::limited(need - 1);
        let err = BucketedMiner::try_new(plan.clone(), loader, config, 1, u64::MAX, &tight)
            .err()
            .expect("need - 1 must refuse");
        assert_eq!(err.what, "partitioned-gsa");
        assert_eq!(tight.used(), 0, "a refused miner holds nothing");

        let exact = MemoryBudget::limited(need);
        let m = BucketedMiner::try_new(plan, loader, config, 1, u64::MAX, &exact)
            .expect("need is admitted");
        assert_eq!(exact.used(), need, "text + the largest group held while mining");
        assert!(m.n_groups() > 1, "the budget must split the buckets into several groups");
        let got: Vec<MatchPair> = m.collect();
        assert_eq!(full(&got), full(&monolithic(&set, config).0));
        assert_eq!(exact.used(), 0, "reservations released when the miner drops");
    }
}
