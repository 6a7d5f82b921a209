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

/// Color classes with a stable, validated iteration order.
///
/// Construction via [`ColorBatches::from_coloring`] always satisfies the
/// invariants; [`ColorBatches::try_from_classes`] validates externally built
/// classes (and accepts empty batches, which the sweep must tolerate).
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
    /// class strictly ascending, no vertex in two classes) without the
    /// O(n log n) re-validation [`ColorBatches::try_from_classes`] performs
    /// — for classes produced by this crate's own validated colorings
    /// (`greedy`, `parallel`, [`color_classes`]). The contract is still
    /// checked under `debug_assertions`; external or hand-assembled classes
    /// must go through [`ColorBatches::try_from_classes`] instead, because a
    /// contract violation here corrupts the colored sweep's size and
    /// modularity accounting.
    pub fn from_validated_classes(classes: Vec<Vec<VertexId>>) -> Self {
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

    /// Wraps externally assembled classes, validating the batch contract the
    /// colored sweep relies on: every batch's vertex ids strictly ascending
    /// (the stable commit order), and no vertex in more than one batch (a
    /// duplicate would commit twice per iteration and corrupt the size and
    /// modularity accounting). Empty batches are legal (a coloring whose
    /// color ids have gaps). Vertex ids are not range-checked — the sweep's
    /// graph defines the valid range.
    pub fn try_from_classes(classes: Vec<Vec<VertexId>>) -> Result<Self, String> {
        for (color, class) in classes.iter().enumerate() {
            if let Some(w) = class.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "batch {color} is not strictly ascending at {}..{}",
                    w[0], w[1]
                ));
            }
        }
        let mut all: Vec<VertexId> = classes.iter().flatten().copied().collect();
        all.sort_unstable();
        if let Some(w) = all.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("vertex {} appears in more than one batch", w[0]));
        }
        Ok(Self { classes })
    }

    /// Total number of vertices across all batches.
    pub fn num_vertices(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Iterates batches in ascending color order; each batch's slice is in
    /// ascending vertex order (the stable sweep/commit order).
    pub fn iter(&self) -> impl Iterator<Item = &[VertexId]> {
        self.classes.iter().map(Vec::as_slice)
    }

    /// The underlying classes, ascending color order.
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
    /// instances built through the public constructors; exposed so tests and
    /// debug assertions can state the invariant).
    pub fn is_stably_ordered(&self) -> bool {
        self.classes
            .iter()
            .all(|class| class.windows(2).all(|w| w[0] < w[1]))
    }
}

impl<'a> IntoIterator for &'a ColorBatches {
    type Item = &'a [VertexId];
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Vec<VertexId>>,
        fn(&'a Vec<VertexId>) -> &'a [VertexId],
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.classes.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_coloring_is_stably_ordered() {
        let batches = ColorBatches::from_coloring(&vec![1, 0, 1, 2, 0]);
        assert!(batches.is_stably_ordered());
        assert_eq!(batches.as_classes().len(), 3);
        assert_eq!(batches.num_vertices(), 5);
        let collected: Vec<&[VertexId]> = batches.iter().collect();
        assert_eq!(collected, vec![&[1u32, 4][..], &[0, 2][..], &[3][..]]);
    }

    #[test]
    fn try_from_classes_validates_ordering() {
        assert!(ColorBatches::try_from_classes(vec![vec![0, 2], vec![1]]).is_ok());
        // Empty batches are legal.
        let with_gap = ColorBatches::try_from_classes(vec![vec![0], vec![], vec![1]]).unwrap();
        assert_eq!(with_gap.as_classes().len(), 3);
        assert_eq!(with_gap.num_vertices(), 2);
        assert!(with_gap.is_stably_ordered());
        // Descending or duplicated ids are rejected.
        assert!(ColorBatches::try_from_classes(vec![vec![2, 0]]).is_err());
        assert!(ColorBatches::try_from_classes(vec![vec![1, 1]]).is_err());
        // A vertex may not belong to two batches.
        assert!(ColorBatches::try_from_classes(vec![vec![0, 7], vec![1], vec![7]]).is_err());
    }

    #[test]
    fn from_validated_classes_trusts_without_sorting() {
        let classes = vec![vec![1u32, 4], vec![0, 2], vec![3]];
        let trusted = ColorBatches::from_validated_classes(classes.clone());
        let checked = ColorBatches::try_from_classes(classes).unwrap();
        assert_eq!(trusted, checked);
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
    fn into_iterator_matches_iter() {
        let batches = ColorBatches::from_coloring(&vec![0, 1, 0]);
        let a: Vec<&[VertexId]> = batches.iter().collect();
        let b: Vec<&[VertexId]> = (&batches).into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_coloring_has_no_batches() {
        let batches = ColorBatches::from_coloring(&Vec::new());
        assert_eq!(batches.as_classes().len(), 0);
        assert_eq!(batches.num_vertices(), 0);
        assert!(batches.is_stably_ordered());
    }
}
