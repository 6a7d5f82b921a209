//! The immutable snapshot readers answer from, and the atomic cell that
//! swaps it.
//!
//! Queries never lock anything for longer than an `Arc` clone: the
//! [`SnapshotCell`] holds an `Arc<Snapshot>` behind a `parking_lot`
//! `RwLock`, readers clone the `Arc` under a brief read lock, and the
//! detect worker publishes a replacement with a brief write lock. A
//! failed or panicked detection simply never reaches `store`, so the
//! last good snapshot keeps serving.

use grappolo_core::Community;
use grappolo_graph::CsrGraph;
use parking_lot::RwLock;
use std::sync::Arc;

/// One consistent `(graph, assignment)` state of the service.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The graph the assignment was computed on.
    pub graph: CsrGraph,
    /// Community labels on `graph`'s vertices. The startup detection's
    /// labels are dense (`0..num_communities`). After an `update` the
    /// snapshot holds the update's assignment: on the incremental path its
    /// labels are **carried** from the previous snapshot and not
    /// renumbered, so they may be sparse, and `members <c>` then takes a
    /// carried label (only a from-scratch fallback renumbers densely).
    pub assignment: Vec<Community>,
    /// Number of non-empty communities.
    pub num_communities: usize,
    /// Modularity of `assignment` on `graph`.
    pub modularity: f64,
    /// Publication counter: 0 for the startup snapshot, +1 per swap.
    pub epoch: u64,
}

impl Snapshot {
    /// The community of vertex `v`, or `None` if out of range.
    pub fn community_of(&self, v: usize) -> Option<Community> {
        self.assignment.get(v).copied()
    }

    /// Members of community `c` in ascending vertex order (deterministic
    /// response bytes regardless of who asks from which thread).
    pub fn members(&self, c: Community) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &label)| label == c)
            .map(|(v, _)| v)
            .collect()
    }

    /// The `stats` response body.
    pub fn stats_line(&self) -> String {
        format!(
            "n={} m={} communities={} modularity={:.6} epoch={}",
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.num_communities,
            self.modularity,
            self.epoch
        )
    }
}

/// Atomically swappable `Arc<Snapshot>` holder.
#[derive(Debug)]
pub struct SnapshotCell {
    cell: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Wraps the startup snapshot (its `epoch` is forced to 0).
    pub fn new(mut initial: Snapshot) -> Self {
        initial.epoch = 0;
        Self {
            cell: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Cheap: one `Arc` clone under a read lock.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.cell.read())
    }

    /// Publishes `next` as the new snapshot, stamping it with the next
    /// epoch. Returns the epoch it was published at.
    pub fn store(&self, mut next: Snapshot) -> u64 {
        let mut slot = self.cell.write();
        next.epoch = slot.epoch + 1;
        let epoch = next.epoch;
        *slot = Arc::new(next);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::from_unweighted_edges;

    fn snap(assignment: Vec<Community>) -> Snapshot {
        let graph = from_unweighted_edges(assignment.len(), [(0u32, 1u32)]).unwrap();
        let num_communities = assignment
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        Snapshot {
            graph,
            assignment,
            num_communities,
            modularity: 0.0,
            epoch: 99, // overwritten by the cell
        }
    }

    #[test]
    fn queries_read_the_assignment() {
        let s = snap(vec![0, 1, 0, 1]);
        assert_eq!(s.community_of(2), Some(0));
        assert_eq!(s.community_of(4), None);
        assert_eq!(s.members(1), vec![1, 3]);
        assert!(s.members(7).is_empty());
    }

    #[test]
    fn cell_swaps_and_stamps_epochs() {
        let cell = SnapshotCell::new(snap(vec![0, 0]));
        assert_eq!(cell.load().epoch, 0);
        let e1 = cell.store(snap(vec![0, 1]));
        assert_eq!(e1, 1);
        assert_eq!(cell.load().epoch, 1);
        assert_eq!(cell.load().assignment, vec![0, 1]);
        assert_eq!(cell.store(snap(vec![1, 1])), 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_swaps() {
        let cell = SnapshotCell::new(snap(vec![0, 0]));
        let held = cell.load();
        cell.store(snap(vec![0, 1]));
        assert_eq!(held.assignment, vec![0, 0], "held Arc is immutable");
        assert_eq!(cell.load().assignment, vec![0, 1]);
    }
}
