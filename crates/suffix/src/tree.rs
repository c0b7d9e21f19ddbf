//! The generalized suffix tree, built in linear time from the suffix and
//! LCP arrays (the lcp-interval tree of Abouelhoda, Kurtz & Ohlebusch).
//!
//! Internal nodes correspond exactly to right-branching repeats: a node of
//! string depth `d` whose SA range is `[l, r)` means the `d`-length prefix
//! shared by the suffixes of ranks `l..r` occurs in at least two right-
//! extensions. The maximal-match generator walks these nodes in decreasing
//! depth order; pattern search descends edges like a classical suffix tree.

use pfam_seq::SeqId;

use crate::gsa::GeneralizedSuffixArray;

/// Identifier of an internal node. The root is always node `0`.
pub type NodeId = u32;

/// Generalized suffix tree over a [`GeneralizedSuffixArray`].
#[derive(Debug)]
pub struct SuffixTree<'a> {
    gsa: &'a GeneralizedSuffixArray,
    /// String depth of each internal node.
    depths: Vec<u32>,
    /// SA rank range `[l, r)` of each internal node.
    ranges: Vec<(u32, u32)>,
    /// Internal-node children of each internal node.
    children: Vec<Vec<NodeId>>,
    /// Parent of each internal node (root's parent is itself).
    parents: Vec<NodeId>,
}

impl<'a> SuffixTree<'a> {
    /// Build the lcp-interval tree of `gsa`.
    #[allow(clippy::needless_range_loop)] // lcp[i] pairs with boundary index i
    pub fn build(gsa: &'a GeneralizedSuffixArray) -> SuffixTree<'a> {
        let lcp = gsa.lcp();
        let n = gsa.sa().len();

        struct Open {
            depth: u32,
            lb: u32,
            children: Vec<NodeId>,
        }
        let mut nodes_depth: Vec<u32> = Vec::new();
        let mut nodes_range: Vec<(u32, u32)> = Vec::new();
        let mut nodes_children: Vec<Vec<NodeId>> = Vec::new();
        let mut stack: Vec<Open> = vec![Open { depth: 0, lb: 0, children: Vec::new() }];

        let close = |open: Open,
                     rb: u32,
                     nodes_depth: &mut Vec<u32>,
                     nodes_range: &mut Vec<(u32, u32)>,
                     nodes_children: &mut Vec<Vec<NodeId>>|
         -> NodeId {
            let id = nodes_depth.len() as NodeId;
            nodes_depth.push(open.depth);
            nodes_range.push((open.lb, rb));
            nodes_children.push(open.children);
            id
        };

        for i in 1..=n {
            let l = if i < n { lcp[i] } else { 0 };
            // A newly opened interval always includes the previous rank.
            let mut lb = (i - 1) as u32;
            let mut pending: Option<NodeId> = None;
            while l < stack.last().expect("root never popped").depth {
                let top = stack.pop().expect("checked non-empty");
                lb = top.lb;
                let id =
                    close(top, i as u32, &mut nodes_depth, &mut nodes_range, &mut nodes_children);
                let parent_depth = stack.last().expect("root remains").depth;
                if l <= parent_depth {
                    stack.last_mut().expect("root remains").children.push(id);
                } else {
                    pending = Some(id);
                }
            }
            if l > stack.last().expect("root remains").depth {
                let children = pending.take().into_iter().collect();
                stack.push(Open { depth: l, lb, children });
            }
            debug_assert!(pending.is_none(), "pending child must have been attached");
        }
        // Close the root over the full rank range.
        debug_assert_eq!(stack.len(), 1);
        let root_open = stack.pop().expect("root");
        debug_assert_eq!(root_open.depth, 0);
        let root_children = root_open.children;
        // Re-number so the root is node 0: append it, then swap into place.
        let root_id = nodes_depth.len() as NodeId;
        nodes_depth.push(0);
        nodes_range.push((0, n as u32));
        nodes_children.push(root_children);
        // Swap root to index 0, fixing child references.
        if root_id != 0 {
            nodes_depth.swap(0, root_id as usize);
            nodes_range.swap(0, root_id as usize);
            nodes_children.swap(0, root_id as usize);
            for kids in nodes_children.iter_mut() {
                for k in kids.iter_mut() {
                    if *k == 0 {
                        *k = root_id;
                    } else if *k == root_id {
                        *k = 0;
                    }
                }
            }
        }

        let mut parents = vec![0 as NodeId; nodes_depth.len()];
        for (id, kids) in nodes_children.iter().enumerate() {
            for &k in kids {
                parents[k as usize] = id as NodeId;
            }
        }

        SuffixTree {
            gsa,
            depths: nodes_depth,
            ranges: nodes_range,
            children: nodes_children,
            parents,
        }
    }

    /// The underlying generalized suffix array.
    pub fn gsa(&self) -> &GeneralizedSuffixArray {
        self.gsa
    }

    /// Number of internal nodes (including the root).
    pub fn n_nodes(&self) -> usize {
        self.depths.len()
    }

    /// String depth of `node`.
    #[inline]
    pub fn depth(&self, node: NodeId) -> u32 {
        self.depths[node as usize]
    }

    /// SA rank range `[l, r)` of `node`.
    #[inline]
    pub fn range(&self, node: NodeId) -> (u32, u32) {
        self.ranges[node as usize]
    }

    /// Internal-node children of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node as usize]
    }

    /// Parent of `node` (the root is its own parent).
    #[inline]
    pub fn parent(&self, node: NodeId) -> NodeId {
        self.parents[node as usize]
    }

    /// Number of leaves (suffix occurrences) below `node`.
    pub fn n_leaves(&self, node: NodeId) -> u32 {
        let (l, r) = self.range(node);
        r - l
    }

    /// Child groups of `node`: each internal child contributes its rank
    /// range; every rank not covered by an internal child is a singleton
    /// leaf group. Groups are returned in rank order and partition the
    /// node's range.
    pub fn child_groups(&self, node: NodeId) -> Vec<(u32, u32)> {
        let (l, r) = self.range(node);
        let mut kid_ranges: Vec<(u32, u32)> =
            self.children(node).iter().map(|&k| self.range(k)).collect();
        kid_ranges.sort_unstable();
        let mut groups = Vec::with_capacity(kid_ranges.len() + 2);
        let mut cursor = l;
        for (kl, kr) in kid_ranges {
            while cursor < kl {
                groups.push((cursor, cursor + 1));
                cursor += 1;
            }
            groups.push((kl, kr));
            cursor = kr;
        }
        while cursor < r {
            groups.push((cursor, cursor + 1));
            cursor += 1;
        }
        groups
    }

    /// Node ids ordered by decreasing string depth, equal depths by SA
    /// range start (root last). The order is canonical — a function of
    /// the nodes' depths and ranks alone, not of the order `build`
    /// happened to number them in — so a miner working on a slice of
    /// the suffix order can rebuild it from global ranks. (Two nodes of
    /// one depth are disjoint, so their range starts differ.)
    pub fn nodes_by_depth_desc(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.n_nodes() as NodeId).collect();
        ids.sort_unstable_by_key(|&a| (std::cmp::Reverse(self.depth(a)), self.range(a).0));
        ids
    }

    /// Locate all occurrences of `pattern` (residue codes) by tree descent,
    /// returning `(sequence, offset)` pairs sorted ascending.
    pub fn find(&self, pattern: &[u8]) -> Vec<(SeqId, u32)> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let n_seqs = self.gsa.n_seqs();
        let encoded: Vec<u32> = pattern.iter().map(|&c| c as u32 + n_seqs).collect();
        let text = self.gsa.text();
        let sa = self.gsa.sa();

        let mut node = 0 as NodeId; // root
        let mut matched = 0usize;
        'descend: while matched < encoded.len() {
            // Find the child group whose edge starts with encoded[matched].
            let groups = self.child_groups(node);
            for (gl, gr) in groups {
                let start = sa[gl as usize] as usize + matched;
                if start >= text.len() {
                    continue;
                }
                if text[start] != encoded[matched] {
                    continue;
                }
                // Determine edge end: internal child keeps descending at its
                // depth; leaf group edge runs to the end of the suffix.
                let edge_end = if gr - gl > 1 {
                    // internal node: find its id by range
                    let child = self
                        .children(node)
                        .iter()
                        .copied()
                        .find(|&k| self.range(k) == (gl, gr))
                        .expect("group of size >1 is an internal child");
                    self.depth(child) as usize
                } else {
                    // leaf: suffix length
                    text.len() - sa[gl as usize] as usize
                };
                // Compare along the edge.
                let mut k = matched;
                while k < encoded.len() && k < edge_end {
                    if text[sa[gl as usize] as usize + k] != encoded[k] {
                        return Vec::new();
                    }
                    k += 1;
                }
                matched = k;
                if matched == encoded.len() {
                    // All leaves in [gl, gr) are occurrences.
                    let mut out: Vec<(SeqId, u32)> = (gl..gr)
                        .map(|rank| {
                            let p = sa[rank as usize] as usize;
                            (self.gsa.seq_at(p), self.gsa.offset_at(p))
                        })
                        .collect();
                    out.sort_unstable();
                    return out;
                }
                if gr - gl > 1 {
                    node = self
                        .children(node)
                        .iter()
                        .copied()
                        .find(|&k2| self.range(k2) == (gl, gr))
                        .expect("internal child exists");
                    continue 'descend;
                }
                // Pattern extends past the end of a leaf edge: no match.
                return Vec::new();
            }
            return Vec::new();
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::alphabet::encode;
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

    #[test]
    fn root_covers_everything() {
        let set = set_of(&["MKVLW", "ACD"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.range(0), (0, g.sa().len() as u32));
        assert_eq!(t.parent(0), 0);
    }

    #[test]
    fn child_groups_partition_parent_range() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            let (l, r) = t.range(node);
            let groups = t.child_groups(node);
            let mut cursor = l;
            for (gl, gr) in &groups {
                assert_eq!(*gl, cursor, "gap in groups of node {node}");
                assert!(gr > gl);
                cursor = *gr;
            }
            assert_eq!(cursor, r, "groups must cover node {node}");
        }
    }

    #[test]
    fn internal_nodes_have_at_least_two_groups() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "MKWW"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            assert!(
                t.child_groups(node).len() >= 2,
                "internal node {node} (depth {}) must branch",
                t.depth(node)
            );
        }
    }

    #[test]
    fn depths_increase_downward() {
        let set = set_of(&["MKVLWMKVLW", "KVLWMK"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 1..t.n_nodes() as NodeId {
            let p = t.parent(node);
            assert!(t.depth(node) > t.depth(p), "node {node} depth vs parent");
            let (pl, pr) = t.range(p);
            let (l, r) = t.range(node);
            assert!(pl <= l && r <= pr, "child range not nested");
        }
    }

    #[test]
    fn node_depth_is_true_lcp_of_its_range() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for node in 0..t.n_nodes() as NodeId {
            let (l, r) = t.range(node);
            // min of lcp[l+1..r] equals the node depth.
            let min_lcp = (l + 1..r).map(|i| g.lcp()[i as usize]).min();
            if let Some(m) = min_lcp {
                assert_eq!(m, t.depth(node), "node {node}");
            }
        }
    }

    #[test]
    fn find_agrees_with_gsa_find() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA", "WWWWW", "MKVLWMKV"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        for pat in ["MKV", "W", "MKVLWMKV", "AA", "VLWM", "ZZZ", "KVA"] {
            let p = encode(pat.as_bytes()).unwrap();
            assert_eq!(t.find(&p), g.find(&p), "pattern {pat}");
        }
    }

    #[test]
    fn find_on_random_sets_matches_gsa() {
        let mut rng = StdRng::seed_from_u64(11);
        let letters = b"ACDEFG";
        for _ in 0..10 {
            let n_seqs = rng.gen_range(1..6);
            let seqs: Vec<String> = (0..n_seqs)
                .map(|_| {
                    let len = rng.gen_range(1..30);
                    (0..len).map(|_| letters[rng.gen_range(0..letters.len())] as char).collect()
                })
                .collect();
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let set = set_of(&refs);
            let g = GeneralizedSuffixArray::build(&set);
            let t = SuffixTree::build(&g);
            for _ in 0..20 {
                let len = rng.gen_range(1..6);
                let pat: Vec<u8> = (0..len)
                    .map(|_| encode(&[letters[rng.gen_range(0..letters.len())]]).unwrap()[0])
                    .collect();
                assert_eq!(t.find(&pat), g.find(&pat));
            }
        }
    }

    #[test]
    fn repeated_sequence_creates_deep_node() {
        let set = set_of(&["MKVLWAAK", "MKVLWAAK"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let max_depth = (0..t.n_nodes() as NodeId).map(|n| t.depth(n)).max().unwrap();
        assert_eq!(max_depth, 8, "full-length repeat must form a depth-8 node");
    }

    #[test]
    fn nodes_by_depth_desc_is_sorted() {
        let set = set_of(&["MKVLWMKV", "AAMKVAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let order = t.nodes_by_depth_desc();
        for w in order.windows(2) {
            assert!(t.depth(w[0]) >= t.depth(w[1]));
        }
        assert_eq!(*order.last().unwrap(), 0, "root (depth 0) sorts last");
    }

    #[test]
    fn nodes_by_depth_desc_orders_ties_by_range_start() {
        // Many equal-depth nodes, including the first node `build`
        // closes (which the root swap renumbers last).
        let set = set_of(&["AAMKAACC", "CCMKAADD", "AAMKWWCC", "DDAAMK", "MKCCAA"]);
        let g = GeneralizedSuffixArray::build(&set);
        let t = SuffixTree::build(&g);
        let order = t.nodes_by_depth_desc();
        assert_eq!(order.len(), t.n_nodes());
        let keys: Vec<(std::cmp::Reverse<u32>, u32)> =
            order.iter().map(|&n| (std::cmp::Reverse(t.depth(n)), t.range(n).0)).collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "order must be (depth desc, range start asc): {keys:?}");
        }
        let ties = keys.windows(2).filter(|w| w[0].0 == w[1].0).count();
        assert!(ties > 2, "the fixture must have equal-depth nodes: {keys:?}");
        // The first-closed node has the smallest range start among the
        // deepest-first nodes of its depth; it is no longer sorted last.
        let first_closed = t.n_nodes() as NodeId - 1;
        let d = t.depth(first_closed);
        let peers: Vec<NodeId> = order.iter().copied().filter(|&n| t.depth(n) == d).collect();
        assert_eq!(peers[0], first_closed, "node renumbered by the root swap sorts first");
    }
}
