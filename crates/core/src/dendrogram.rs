//! Community hierarchy across phases.
//!
//! Each Louvain phase "represents a coarser level of hierarchy in the
//! community detection process" (§3). The driver records one
//! [`DendrogramLevel`] per phase so callers can inspect any intermediate
//! granularity, not just the final partition.

use crate::modularity::Community;
use grappolo_graph::VertexId;
use rayon::prelude::*;

/// One phase's community structure.
#[derive(Clone, Debug)]
pub struct DendrogramLevel {
    /// Community label per phase-graph vertex (labels ⊆ `0..n_phase`).
    pub assignment: Vec<Community>,
    /// Dense renumbering: label → next level's vertex id (`u32::MAX` for
    /// labels with no members).
    pub renumber: Vec<Community>,
    /// Number of non-empty communities at this level.
    pub num_communities: usize,
}

/// The full hierarchy of a run.
#[derive(Clone, Debug, Default)]
pub struct Dendrogram {
    /// Maps each original vertex to its phase-0 vertex (identity unless VF
    /// preprocessing merged it away).
    pub vf_mapping: Vec<VertexId>,
    /// Per-phase levels, coarsest last.
    pub levels: Vec<DendrogramLevel>,
}

impl Dendrogram {
    /// Number of hierarchy levels (phases executed).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Community assignment of the *original* vertices after phases
    /// `0..=level`, with dense labels `0..num_communities(level)`. Each
    /// vertex walks the levels independently, so the walk runs in parallel.
    ///
    /// Panics if `level >= num_levels()`.
    pub fn flatten_to_level(&self, level: usize) -> Vec<Community> {
        assert!(level < self.levels.len(), "level {level} out of range");
        self.vf_mapping
            .par_iter()
            .map(|&v0| {
                let mut cur = v0 as usize;
                for l in &self.levels[..=level] {
                    cur = l.renumber[l.assignment[cur] as usize] as usize;
                }
                cur as Community
            })
            .collect()
    }

    /// Final (coarsest) assignment of the original vertices with dense
    /// labels; empty input gives an empty assignment.
    pub fn flatten(&self) -> Vec<Community> {
        if self.levels.is_empty() {
            // No phases ran: every original vertex maps to its VF vertex.
            return self
                .vf_mapping
                .par_iter()
                .map(|&v| v as Community)
                .collect();
        }
        self.flatten_to_level(self.levels.len() - 1)
    }

    /// Community counts per level, coarsest last.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.num_communities).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 original vertices; VF merged 3 into 2 (mapping [0,1,2,2]);
    /// phase 0 groups {0,1} and {2} → 2 communities;
    /// phase 1 merges everything → 1 community.
    fn sample() -> Dendrogram {
        Dendrogram {
            vf_mapping: vec![0, 1, 2, 2],
            levels: vec![
                DendrogramLevel {
                    assignment: vec![1, 1, 2],
                    renumber: vec![Community::MAX, 0, 1],
                    num_communities: 2,
                },
                DendrogramLevel {
                    assignment: vec![0, 0],
                    renumber: vec![0, Community::MAX],
                    num_communities: 1,
                },
            ],
        }
    }

    #[test]
    fn flatten_intermediate_level() {
        let d = sample();
        assert_eq!(d.flatten_to_level(0), vec![0, 0, 1, 1]);
    }

    #[test]
    fn flatten_final() {
        let d = sample();
        assert_eq!(d.flatten(), vec![0, 0, 0, 0]);
        assert_eq!(d.level_sizes(), vec![2, 1]);
        assert_eq!(d.num_levels(), 2);
    }

    #[test]
    fn flatten_without_levels_is_vf_mapping() {
        let d = Dendrogram {
            vf_mapping: vec![0, 1, 1],
            levels: Vec::new(),
        };
        assert_eq!(d.flatten(), vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flatten_bad_level_panics() {
        sample().flatten_to_level(5);
    }
}
