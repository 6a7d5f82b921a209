//! Deterministic dirty-vertex work lists for activity-proportional sweeps.
//!
//! Every sweep variant historically re-examined all `n` vertices (and
//! re-gathered all `m` adjacency entries) each iteration, even in late
//! iterations where well under 1% of vertices still move. [`ActiveSet`] is
//! the pruning structure that makes iterations cost O(activity): iteration
//! `k` re-examines only the vertices whose *decision inputs changed* in
//! iteration `k−1` — a vertex is *active* iff it moved or one of its
//! neighbors moved (the dirty-vertex rule Staudt & Meyerhenke's PLM reports
//! order-of-magnitude iteration savings from). Everything starts active in
//! iteration 0.
//!
//! # Determinism contract
//!
//! The set is **rebuilt from the committed move list** at the end of each
//! iteration ([`ActiveSet::rebuild_from_moves`]), never mutated concurrently
//! by in-flight decisions, so its content is a pure function of the moves —
//! which every sweep commits in a schedule-independent order. Marking is set
//! union (order-insensitive) and the frontier is re-extracted by an
//! ascending bitset scan, so the frontier is an ascending, duplicate-free
//! vertex list that is bitwise identical for any thread count and any
//! permutation of the move list. Sweeps that iterate the frontier in order
//! therefore inherit the §5.4 stability guarantee unchanged.
//!
//! Pruning changes the *trajectory*, not the correctness, of a sweep: an
//! inactive vertex's neighborhood labels are unchanged, but global community
//! degrees `a_C` may still drift (a far-away vertex can join a neighboring
//! community), so a full sweep could occasionally re-decide a vertex the
//! active sweep skips. The differential tests pin `active` to `full` on
//! final quality (same Q within the paper's tolerance) and require bitwise
//! identity whenever the set is saturated.

use grappolo_graph::{CsrGraph, VertexId};

/// A dirty-vertex work list: a bitset for O(1) membership plus the
/// materialized ascending frontier the sweeps iterate.
#[derive(Clone, Debug, Default)]
pub struct ActiveSet {
    /// Number of vertices the set ranges over.
    n: usize,
    /// One bit per vertex; bit set ⇔ vertex is active.
    words: Vec<u64>,
    /// Active vertices in ascending id order (always consistent with
    /// `words`).
    frontier: Vec<VertexId>,
}

impl ActiveSet {
    /// Engagement rule for the deferred-pruning schedule: dirty-vertex
    /// tracking starts paying once an iteration commits at most `n / 8`
    /// moves. While more vertices than that move, the frontier (movers ∪
    /// their neighbors) stays near-saturated and a pruned iteration would
    /// re-examine almost everything anyway — so the sweeps keep the
    /// saturated frontier ([`ActiveSet::full`], bitwise identical to
    /// [`crate::config::SweepMode::Full`]) until the move count first drops
    /// to this bound, and prune every iteration after that. The rule reads
    /// only the committed move count, so engagement — like everything else
    /// — is thread-count independent.
    ///
    /// Under a tightening convergence gate ([`crate::schedule`]) the sweeps
    /// additionally hold engagement until the per-vertex gate reaches its
    /// floor: a vertex gated at iteration `k` may clear iteration `k + 1`'s
    /// tighter gate without any neighbor moving, and only the saturated
    /// frontier re-examines it then — a pre-floor frontier would park it
    /// permanently. Gate-suppressed vertices commit no move, so with the
    /// floor reached they drop out of the rebuilt frontier exactly like
    /// ordinary stays, re-armed only when a neighbor moves.
    pub fn engages(n: usize, moves: usize) -> bool {
        moves <= n / 8
    }

    /// The saturated set over `n` vertices — every vertex active (the state
    /// of iteration 0, before any move information exists).
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Self {
            n,
            words,
            frontier: (0..n as VertexId).collect(),
        }
    }

    /// The empty set over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            words: vec![0; n.div_ceil(64)],
            frontier: Vec::new(),
        }
    }

    /// Number of active vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.frontier.len()
    }

    /// True when no vertex is active — the phase has nothing left to
    /// examine and must terminate.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frontier.is_empty()
    }

    /// True when *every* vertex is active (iteration 0, or a graph still in
    /// full churn). Saturated active sweeps make bitwise-identical decisions
    /// to a full sweep.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.frontier.len() == self.n
    }

    /// O(1) membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let v = v as usize;
        debug_assert!(v < self.n);
        self.words[v / 64] >> (v % 64) & 1 == 1
    }

    /// The active vertices in ascending id order — the sweep/commit order.
    #[inline]
    pub fn frontier(&self) -> &[VertexId] {
        &self.frontier
    }

    /// Rebuilds the set from one iteration's committed move list: each
    /// mover and all of its neighbors become active; everything else goes
    /// inactive. `movers` may arrive in any order and with any grouping
    /// (e.g. concatenated per-color commits) — marking is a set union and
    /// the frontier is re-extracted by an ascending bitset scan, so the
    /// result is identical for any permutation. An empty move list empties
    /// the set (the phase is converged and must stop).
    pub fn rebuild_from_moves(&mut self, g: &CsrGraph, movers: &[VertexId]) {
        debug_assert_eq!(g.num_vertices(), self.n);
        self.words.fill(0);
        for &v in movers {
            self.mark(v);
            for &u in g.neighbor_ids(v) {
                self.mark(u);
            }
        }
        self.frontier.clear();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                self.frontier.push((w * 64) as VertexId + b as VertexId);
                bits &= bits - 1;
            }
        }
    }

    #[inline]
    fn mark(&mut self, v: VertexId) {
        let v = v as usize;
        self.words[v / 64] |= 1u64 << (v % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::from_unweighted_edges;
    use grappolo_graph::from_weighted_edges;

    fn path4() -> CsrGraph {
        from_unweighted_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn full_set_is_saturated_and_ascending() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let s = ActiveSet::full(n);
            assert_eq!(s.len(), n);
            assert!(s.is_saturated());
            assert_eq!(s.is_empty(), n == 0);
            let expect: Vec<VertexId> = (0..n as VertexId).collect();
            assert_eq!(s.frontier(), &expect[..]);
            for v in 0..n as VertexId {
                assert!(s.contains(v));
            }
        }
    }

    #[test]
    fn rebuild_marks_movers_and_neighbors_only() {
        let g = path4();
        let mut s = ActiveSet::full(4);
        s.rebuild_from_moves(&g, &[1]);
        // 1 moved: itself plus neighbors 0 and 2 are active; 3 is not.
        assert_eq!(s.frontier(), &[0, 1, 2]);
        assert!(s.contains(0) && s.contains(1) && s.contains(2));
        assert!(!s.contains(3));
        assert!(!s.is_saturated());
    }

    #[test]
    fn rebuild_is_order_independent() {
        let g = path4();
        let mut a = ActiveSet::empty(4);
        let mut b = ActiveSet::empty(4);
        a.rebuild_from_moves(&g, &[0, 3]);
        b.rebuild_from_moves(&g, &[3, 0]);
        assert_eq!(a.frontier(), b.frontier());
        assert_eq!(a.frontier(), &[0, 1, 2, 3]);
    }

    #[test]
    fn empty_move_list_empties_the_set() {
        let g = path4();
        let mut s = ActiveSet::full(4);
        s.rebuild_from_moves(&g, &[]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.frontier(), &[] as &[VertexId]);
    }

    #[test]
    fn isolated_vertices_never_activate() {
        // Vertex 3 is isolated: it cannot move and is nobody's neighbor, so
        // after the first rebuild it can never re-enter the set.
        let g = from_unweighted_edges(4, [(0, 1), (1, 2)]).unwrap();
        let mut s = ActiveSet::full(4);
        s.rebuild_from_moves(&g, &[0, 1, 2]);
        assert!(!s.contains(3));
        assert_eq!(s.frontier(), &[0, 1, 2]);
    }

    #[test]
    fn self_loop_only_vertex_activates_only_as_its_own_mover() {
        // A self-loop lists the vertex as its own neighbor, which is
        // harmless: marking v twice is idempotent. A self-loop-only vertex
        // never moves, so it never re-activates through anyone else.
        let g = from_weighted_edges(3, [(0, 0, 2.0), (1, 2, 1.0)]).unwrap();
        let mut s = ActiveSet::full(3);
        s.rebuild_from_moves(&g, &[1]);
        assert_eq!(s.frontier(), &[1, 2]);
        assert!(!s.contains(0));
        s.rebuild_from_moves(&g, &[0]);
        assert_eq!(s.frontier(), &[0]);
    }

    #[test]
    fn word_boundary_bits() {
        let n = 129;
        let edges: Vec<(u32, u32)> = vec![(63, 64), (64, 65), (127, 128)];
        let g = from_unweighted_edges(n, edges).unwrap();
        let mut s = ActiveSet::empty(n);
        s.rebuild_from_moves(&g, &[64, 128]);
        assert_eq!(s.frontier(), &[63, 64, 65, 127, 128]);
        assert!(!s.contains(62) && !s.contains(66) && !s.contains(126));
    }

    #[test]
    fn duplicate_movers_are_idempotent() {
        let g = path4();
        let mut s = ActiveSet::empty(4);
        s.rebuild_from_moves(&g, &[2, 2, 2]);
        assert_eq!(s.frontier(), &[1, 2, 3]);
    }
}
