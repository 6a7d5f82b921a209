//! Stable-order color batches — the iteration contract the deterministic
//! colored sweep builds on.
//!
//! [`ColorBatches`] wraps the `ColorSets` partitioning of Algorithm 1 line 2
//! with two *guaranteed* ordering invariants:
//!
//! 1. batches are iterated in ascending color order, and
//! 2. within a batch, vertex ids are strictly ascending.
//!
//! Together with the distance-1 independence of each batch, this gives the
//! colored sweep a canonical commit order (batch-major, then vertex-ascending)
//! that does not depend on thread count or scheduling — the ordering half of
//! the bitwise-determinism guarantee; the arithmetic half lives in
//! `grappolo_core::modularity` (`det_sum` and the incremental tracker).

use crate::stats::color_classes;
use crate::Coloring;
use grappolo_graph::VertexId;

/// Color classes with a stable, validated iteration order, built from a
/// coloring by [`ColorBatches::from_coloring`] and read through
/// [`ColorBatches::as_classes`]. A color id the coloring skips yields an
/// empty batch, which the sweep must tolerate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColorBatches {
    classes: Vec<Vec<VertexId>>,
}

impl ColorBatches {
    /// Groups `coloring` into batches: `batch k` holds the vertices of color
    /// `k` in ascending id order.
    pub fn from_coloring(coloring: &Coloring) -> Self {
        // `color_classes` scans vertices in ascending id order, so each
        // class is strictly ascending and duplicate-free by construction —
        // the trusted path needs no re-validation.
        Self::from_validated_classes(color_classes(coloring))
    }

    /// Wraps classes **already known** to satisfy the batch contract (each
    /// class strictly ascending, no vertex in two classes). The contract is
    /// checked under `debug_assertions` only: a violation would corrupt the
    /// colored sweep's size and modularity accounting.
    fn from_validated_classes(classes: Vec<Vec<VertexId>>) -> Self {
        let batches = Self { classes };
        debug_assert!(
            batches.is_stably_ordered(),
            "from_validated_classes received unsorted classes"
        );
        debug_assert!(
            {
                let mut all: Vec<VertexId> = batches.classes.iter().flatten().copied().collect();
                all.sort_unstable();
                all.windows(2).all(|w| w[0] != w[1])
            },
            "from_validated_classes received a duplicated vertex"
        );
        batches
    }

    /// The batches in ascending color order; each batch is in ascending
    /// vertex order (the stable sweep/commit order).
    pub fn as_classes(&self) -> &[Vec<VertexId>] {
        &self.classes
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
        out.extend(self.classes[color].iter().copied().filter(|&v| keep(v)));
    }

    /// True when every batch is strictly ascending (always holds for
    /// instances built through [`ColorBatches::from_coloring`]; exposed so
    /// tests and debug assertions can state the invariant).
    pub fn is_stably_ordered(&self) -> bool {
        self.classes
            .iter()
            .all(|class| class.windows(2).all(|w| w[0] < w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coloring_is_stably_ordered() {
        let batches = ColorBatches::from_coloring(&vec![1, 0, 1, 2, 0]);
        assert!(batches.is_stably_ordered());
        assert_eq!(batches.as_classes(), &[vec![1u32, 4], vec![0, 2], vec![3]]);
    }

    #[test]
    fn from_coloring_keeps_empty_batches_for_skipped_colors() {
        // Color ids 1 and 3 are unused: their batches exist and are empty.
        let batches = ColorBatches::from_coloring(&vec![0, 2, 4, 0]);
        assert_eq!(
            batches.as_classes(),
            &[vec![0u32, 3], vec![], vec![1], vec![], vec![2]]
        );
        assert!(batches.is_stably_ordered());
    }

    #[test]
    fn from_validated_classes_trusts_without_sorting() {
        let classes = vec![vec![1u32, 4], vec![0, 2], vec![3]];
        let trusted = ColorBatches::from_validated_classes(classes.clone());
        assert_eq!(trusted.as_classes(), &classes[..]);
        assert!(trusted.is_stably_ordered());
        // Empty classes are fine on the trusted path too.
        let gap = ColorBatches::from_validated_classes(vec![vec![0], vec![], vec![1]]);
        assert_eq!(gap.as_classes().len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unsorted")]
    fn from_validated_classes_debug_checks_order() {
        let _ = ColorBatches::from_validated_classes(vec![vec![2, 0]]);
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
        assert!(batches.as_classes().is_empty());
        assert!(batches.is_stably_ordered());
    }
}
