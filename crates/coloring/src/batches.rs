//! Stable-order color batches — the iteration contract the deterministic
//! colored sweep builds on.
//!
//! [`ColorBatches`] holds the `ColorSets` partitioning of Algorithm 1 line 2
//! as one counting sort ([`group_by_label`]) leaves it, so two ordering
//! invariants hold by construction:
//!
//! 1. batches are iterated in ascending color order, and
//! 2. within a batch, vertex ids are strictly ascending.
//!
//! Together with the distance-1 independence of each batch, this gives the
//! colored sweep a canonical commit order (batch-major, then vertex-ascending)
//! that does not depend on thread count or scheduling — the ordering half of
//! the bitwise-determinism guarantee; the arithmetic half lives in
//! `grappolo_core::modularity` (`det_sum` and the incremental tracker).

use crate::Coloring;
use grappolo_graph::components::group_by_label;
use grappolo_graph::VertexId;

/// Color classes with a stable iteration order, built from a coloring by
/// [`ColorBatches::from_coloring`] and read through
/// [`ColorBatches::classes`] or [`ColorBatches::class`]. A color id the
/// coloring skips yields an empty batch, which the sweep must tolerate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorBatches {
    /// Class `c` is `members[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    members: Vec<VertexId>,
}

impl Default for ColorBatches {
    /// No batches: the grouping of the empty coloring.
    fn default() -> Self {
        Self::from_coloring(&Vec::new())
    }
}

impl ColorBatches {
    /// Groups `coloring` into batches: `batch k` holds the vertices of color
    /// `k` in ascending id order ([`group_by_label`], the `ColorSets`
    /// partitioning consumed by Algorithm 1 line 2).
    pub fn from_coloring(coloring: &Coloring) -> Self {
        let num_colors = coloring.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let (offsets, members) = group_by_label(coloring.len(), num_colors, |v| coloring[v]);
        Self { offsets, members }
    }

    /// Number of batches: one per color id up to the largest used.
    pub fn num_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Batch `color`, in ascending vertex order.
    pub fn class(&self, color: usize) -> &[VertexId] {
        &self.members[self.offsets[color]..self.offsets[color + 1]]
    }

    /// The batches in ascending color order; each batch is in ascending
    /// vertex order (the stable sweep/commit order).
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[VertexId]> {
        self.offsets.windows(2).map(|w| &self.members[w[0]..w[1]])
    }

    /// Copies the vertices of batch `color` that satisfy `keep` into `out`
    /// (cleared first), preserving ascending order — the active-set
    /// filtering hook of the dirty-vertex sweeps. A filtered batch is a
    /// subset of an independent set, so it is itself independent and keeps
    /// the stable commit order.
    pub fn filter_batch_into(
        &self,
        color: usize,
        mut keep: impl FnMut(VertexId) -> bool,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        out.extend(self.class(color).iter().copied().filter(|&v| keep(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batches as owned lists, for comparing against literals.
    fn lists(batches: &ColorBatches) -> Vec<Vec<VertexId>> {
        batches.classes().map(<[VertexId]>::to_vec).collect()
    }

    #[test]
    fn from_coloring_is_stably_ordered() {
        let batches = ColorBatches::from_coloring(&vec![1, 0, 1, 2, 0]);
        assert_eq!(lists(&batches), [vec![1u32, 4], vec![0, 2], vec![3]]);
        assert_eq!(batches.num_classes(), 3);
        assert_eq!(batches.class(1), [0, 2]);
    }

    #[test]
    fn from_coloring_keeps_empty_batches_for_skipped_colors() {
        // Color ids 1 and 3 are unused: their batches exist and are empty.
        let batches = ColorBatches::from_coloring(&vec![0, 2, 4, 0]);
        assert_eq!(
            lists(&batches),
            [vec![0u32, 3], vec![], vec![1], vec![], vec![2]]
        );
        assert!(batches.class(3).is_empty());
    }

    #[test]
    fn filter_batch_preserves_ascending_order() {
        let batches = ColorBatches::from_coloring(&vec![0, 1, 0, 1, 0, 0]);
        let mut out = vec![99u32]; // must be cleared
        batches.filter_batch_into(0, |v| v % 4 == 0, &mut out);
        assert_eq!(out, vec![0, 4]);
        batches.filter_batch_into(1, |_| true, &mut out);
        assert_eq!(out, vec![1, 3]);
        batches.filter_batch_into(1, |_| false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_coloring_has_no_batches() {
        let batches = ColorBatches::from_coloring(&Vec::new());
        assert_eq!(batches.num_classes(), 0);
        assert_eq!(batches.classes().len(), 0);
        assert_eq!(ColorBatches::default(), batches);
    }
}
