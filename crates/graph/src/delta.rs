//! Batched edge deltas: insert / delete / reweight against an existing
//! [`CsrGraph`], rebuilt through the same flat count → prefix → scatter
//! path as [`crate::builder::GraphBuilder`] so the resulting arrays are
//! bitwise deterministic regardless of batch order or thread count.
//!
//! A batch is resolved *per undirected edge* before anything touches the
//! CSR arrays: deltas are canonicalised to `(min, max)` endpoints, grouped,
//! and replayed in batch order against the edge's current weight. Inserting
//! on top of an existing edge follows the caller's [`MergePolicy`];
//! [`MergePolicy::Sum`] merges exactly like duplicate edges fed to the
//! builder. The net per-edge outcome (and nothing else) is then applied in
//! one serial merge pass over the old adjacency — untouched vertices get a
//! straight `memcpy` of their rows.

use crate::builder::try_zeroed;
use crate::csr::{CsrGraph, VertexId};

/// How an insert onto an existing edge is resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Sum the weights, as the builder does with duplicate edges.
    #[default]
    Sum,
    /// Keep the maximum weight.
    Max,
    /// Reject the batch with [`DeltaError::DuplicateEdge`].
    Reject,
}

/// Applies the policy to an accumulator; `Err(())` means the policy
/// rejects duplicates.
fn merge_weight(acc: &mut f64, w: f64, policy: MergePolicy) -> Result<(), ()> {
    match policy {
        MergePolicy::Sum => *acc += w,
        MergePolicy::Max => *acc = acc.max(w),
        MergePolicy::Reject => return Err(()),
    }
    Ok(())
}

/// One edge mutation in a dynamic batch. Endpoints are unordered (the graph
/// is undirected); `(u, v)` and `(v, u)` address the same edge, and a
/// self-loop is addressed as `(v, v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeDelta {
    /// Add an edge with the given weight. If the edge already exists (in the
    /// graph or earlier in the batch) the weights merge per [`MergePolicy`].
    /// Endpoints beyond the current vertex count grow the graph.
    Insert {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
        /// Edge weight; must be finite and positive.
        weight: f64,
    },
    /// Remove an existing edge. Deleting an edge that does not exist (and was
    /// not inserted earlier in the same batch) is an error.
    Delete {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
    },
    /// Replace the weight of an existing edge. Reweighting an absent edge is
    /// an error.
    Reweight {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
        /// New edge weight; must be finite and positive.
        weight: f64,
    },
}

impl EdgeDelta {
    /// Canonical `(min, max)` endpoints.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        let (u, v) = match *self {
            EdgeDelta::Insert { u, v, .. }
            | EdgeDelta::Delete { u, v }
            | EdgeDelta::Reweight { u, v, .. } => (u, v),
        };
        (u.min(v), u.max(v))
    }
}

/// Why a batch could not be applied. `index` is the 0-based position of the
/// offending delta in the batch; `edge` is its canonical endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// Insert or reweight with a non-finite or non-positive weight.
    InvalidWeight {
        /// Position of the offending delta in the batch.
        index: usize,
        /// Canonical endpoints.
        edge: (VertexId, VertexId),
        /// The rejected weight.
        weight: f64,
    },
    /// Delete or reweight of an edge that exists neither in the graph nor
    /// earlier in the batch.
    MissingEdge {
        /// Position of the offending delta in the batch.
        index: usize,
        /// Canonical endpoints.
        edge: (VertexId, VertexId),
        /// `"delete"` or `"reweight"`.
        op: &'static str,
    },
    /// Insert collided with an existing weight under [`MergePolicy::Reject`].
    DuplicateEdge {
        /// Position of the offending delta in the batch.
        index: usize,
        /// Canonical endpoints.
        edge: (VertexId, VertexId),
    },
    /// The allocator cannot provide the adjacency offsets for the `n`
    /// vertices the batch grows the graph to (an insert naming a huge id).
    OutOfMemory {
        /// Vertex count after the batch.
        n: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::InvalidWeight {
                index,
                edge: (u, v),
                weight,
            } => write!(
                f,
                "delta {index}: edge ({u}, {v}) has invalid weight {weight} (must be finite and > 0)"
            ),
            DeltaError::MissingEdge {
                index,
                edge: (u, v),
                op,
            } => write!(f, "delta {index}: cannot {op} edge ({u}, {v}): no such edge"),
            DeltaError::DuplicateEdge {
                index,
                edge: (u, v),
            } => write!(
                f,
                "delta {index}: duplicate insert of edge ({u}, {v}) rejected by merge policy"
            ),
            DeltaError::OutOfMemory { n } => {
                write!(f, "cannot allocate adjacency offsets for n={n} vertices")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Net outcome for one undirected edge after a batch resolves: `old` is the
/// weight before the batch (`None` if absent), `new` the weight after.
/// Changes are reported in ascending `(u, v)` order with `u <= v`, and only
/// for edges whose weight actually changed bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChange {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
    /// Weight before the batch; `None` if the edge did not exist.
    pub old: Option<f64>,
    /// Weight after the batch; `None` if the edge was deleted.
    pub new: Option<f64>,
}

impl EdgeChange {
    /// Net weight delta contributed by this change (`new - old`, with absent
    /// treated as zero).
    pub fn weight_delta(&self) -> f64 {
        self.new.unwrap_or(0.0) - self.old.unwrap_or(0.0)
    }
}

impl CsrGraph {
    /// Applies a batch of edge deltas, returning the updated graph. See
    /// [`apply_edge_batch_diff`](CsrGraph::apply_edge_batch_diff) for the
    /// variant that also reports the net per-edge changes.
    pub fn apply_edge_batch(
        &self,
        batch: &[EdgeDelta],
        policy: MergePolicy,
    ) -> Result<CsrGraph, DeltaError> {
        self.apply_edge_batch_diff(batch, policy).map(|(g, _)| g)
    }

    /// Applies a batch of edge deltas, returning the updated graph plus the
    /// net per-edge changes (ascending canonical order, no-ops elided).
    ///
    /// Semantics:
    /// * deltas addressing the same undirected edge resolve in batch order
    ///   against the edge's pre-batch weight;
    /// * `Insert` onto an existing weight merges per `policy`
    ///   ([`MergePolicy::Reject`] errors); onto an absent edge it creates it;
    /// * `Delete` / `Reweight` of an absent edge errors — but an edge
    ///   inserted earlier in the same batch counts as existing, so
    ///   insert-then-delete of a new edge cancels to a no-op;
    /// * `Insert` endpoints past the current vertex count grow the graph;
    ///   the result is well-defined starting from [`CsrGraph::empty`]`(0)`;
    /// * an empty batch returns a bitwise-identical copy.
    pub fn apply_edge_batch_diff(
        &self,
        batch: &[EdgeDelta],
        policy: MergePolicy,
    ) -> Result<(CsrGraph, Vec<EdgeChange>), DeltaError> {
        let old_n = self.num_vertices();

        // Canonicalise and group by edge, keeping batch order within a group
        // (stable sort on the canonical key).
        let mut keyed: Vec<(VertexId, VertexId, usize)> = batch
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let (u, v) = d.endpoints();
                (u, v, i)
            })
            .collect();
        keyed.sort_by_key(|&(u, v, _)| (u, v));

        // Replay each group against the pre-batch weight to get the net
        // per-edge outcome.
        let mut changes: Vec<EdgeChange> = Vec::new();
        let mut new_n = old_n;
        let mut i = 0;
        while i < keyed.len() {
            let (u, v, _) = keyed[i];
            let mut j = i;
            let old = if (v as usize) < old_n {
                self.edge_weight(u, v)
            } else {
                None
            };
            let mut cur = old;
            while j < keyed.len() && keyed[j].0 == u && keyed[j].1 == v {
                let index = keyed[j].2;
                match batch[index] {
                    EdgeDelta::Insert { weight, .. } => {
                        if !weight.is_finite() || weight <= 0.0 {
                            return Err(DeltaError::InvalidWeight {
                                index,
                                edge: (u, v),
                                weight,
                            });
                        }
                        match cur {
                            None => cur = Some(weight),
                            Some(ref mut acc) => {
                                if merge_weight(acc, weight, policy).is_err() {
                                    return Err(DeltaError::DuplicateEdge {
                                        index,
                                        edge: (u, v),
                                    });
                                }
                            }
                        }
                    }
                    EdgeDelta::Delete { .. } => {
                        if cur.is_none() {
                            return Err(DeltaError::MissingEdge {
                                index,
                                edge: (u, v),
                                op: "delete",
                            });
                        }
                        cur = None;
                    }
                    EdgeDelta::Reweight { weight, .. } => {
                        if !weight.is_finite() || weight <= 0.0 {
                            return Err(DeltaError::InvalidWeight {
                                index,
                                edge: (u, v),
                                weight,
                            });
                        }
                        if cur.is_none() {
                            return Err(DeltaError::MissingEdge {
                                index,
                                edge: (u, v),
                                op: "reweight",
                            });
                        }
                        cur = Some(weight);
                    }
                }
                j += 1;
            }
            if old.map(f64::to_bits) != cur.map(f64::to_bits) {
                if cur.is_some() {
                    new_n = new_n.max(v as usize + 1);
                }
                changes.push(EdgeChange {
                    u,
                    v,
                    old,
                    new: cur,
                });
            }
            i = j;
        }

        if changes.is_empty() {
            // Bitwise no-op: hand back an identical copy of the arrays.
            return Ok((
                CsrGraph::from_sorted_adjacency(
                    self.adjacency_offsets().to_vec(),
                    self.adjacency_targets().to_vec(),
                    self.adjacency_weights().to_vec(),
                ),
                changes,
            ));
        }

        // Directed view of the changes: each non-loop change appears for both
        // endpoints, self-loops once — mirroring CSR storage. Sorted by
        // (src, tgt); per-edge resolution already deduplicated targets.
        let mut directed: Vec<(VertexId, VertexId, Option<f64>, bool)> = Vec::new();
        for c in &changes {
            directed.push((c.u, c.v, c.new, c.old.is_some()));
            if c.u != c.v {
                directed.push((c.v, c.u, c.new, c.old.is_some()));
            }
        }
        directed.sort_unstable_by_key(|&(s, t, _, _)| (s, t));

        // Count pass: per-vertex adjacency length after the batch. `new_n`
        // may come from one huge inserted id.
        let out_of_memory = DeltaError::OutOfMemory { n: new_n };
        let mut counts = try_zeroed(new_n).ok_or(out_of_memory.clone())?;
        for (v, c) in counts.iter_mut().enumerate().take(old_n) {
            *c = self.degree(v as VertexId);
        }
        for &(s, _, new, existed) in &directed {
            match (existed, new.is_some()) {
                (false, true) => counts[s as usize] += 1,
                (true, false) => counts[s as usize] -= 1,
                _ => {}
            }
        }

        // Prefix pass.
        let mut offsets = try_zeroed(new_n + 1).ok_or(out_of_memory)?;
        for v in 0..new_n {
            offsets[v + 1] = offsets[v] + counts[v];
        }
        let entries = offsets[new_n];

        // Scatter pass: merge each vertex's old sorted row with its sorted
        // slice of directed changes. Vertices with no changes copy straight
        // through.
        let mut targets = vec![0 as VertexId; entries];
        let mut weights = vec![0.0f64; entries];
        let mut d = 0usize;
        for src in 0..new_n {
            let mut out = offsets[src];
            let d_end = {
                let mut k = d;
                while k < directed.len() && directed[k].0 as usize == src {
                    k += 1;
                }
                k
            };
            let (old_ids, old_ws): (&[VertexId], &[f64]) = if src < old_n {
                (
                    self.neighbor_ids(src as VertexId),
                    self.neighbor_weights(src as VertexId),
                )
            } else {
                (&[], &[])
            };
            let mut oi = 0usize;
            let mut di = d;
            while oi < old_ids.len() || di < d_end {
                let old_t = old_ids.get(oi).copied();
                let delta_t = if di < d_end {
                    Some(directed[di].1)
                } else {
                    None
                };
                match (old_t, delta_t) {
                    (Some(ot), Some(dt)) if ot < dt => {
                        targets[out] = ot;
                        weights[out] = old_ws[oi];
                        out += 1;
                        oi += 1;
                    }
                    (Some(ot), Some(dt)) if ot == dt => {
                        // Reweight or delete of an existing entry.
                        if let Some(w) = directed[di].2 {
                            targets[out] = ot;
                            weights[out] = w;
                            out += 1;
                        }
                        oi += 1;
                        di += 1;
                    }
                    (_, Some(dt)) => {
                        // Pure insert (no matching old entry).
                        debug_assert!(!directed[di].3);
                        targets[out] = dt;
                        weights[out] = directed[di].2.expect("insert carries a weight");
                        out += 1;
                        di += 1;
                    }
                    (Some(ot), None) => {
                        targets[out] = ot;
                        weights[out] = old_ws[oi];
                        out += 1;
                        oi += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            debug_assert_eq!(out, offsets[src + 1]);
            d = d_end;
        }

        Ok((
            CsrGraph::from_sorted_adjacency(offsets, targets, weights),
            changes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;

    fn triangle() -> CsrGraph {
        from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn empty_batch_is_bitwise_noop() {
        let g = triangle();
        let (h, changes) = g.apply_edge_batch_diff(&[], MergePolicy::Sum).unwrap();
        assert!(changes.is_empty());
        assert!(g.bitwise_eq(&h));
    }

    #[test]
    fn noop_reweight_is_bitwise_noop() {
        let g = triangle();
        let batch = [EdgeDelta::Reweight {
            u: 0,
            v: 1,
            weight: 1.0,
        }];
        let (h, changes) = g.apply_edge_batch_diff(&batch, MergePolicy::Sum).unwrap();
        assert!(changes.is_empty());
        assert!(g.bitwise_eq(&h));
    }

    #[test]
    fn insert_matches_builder_result() {
        let g = triangle();
        let h = g
            .apply_edge_batch(
                &[EdgeDelta::Insert {
                    u: 3,
                    v: 1,
                    weight: 4.0,
                }],
                MergePolicy::Sum,
            )
            .unwrap();
        let direct =
            from_weighted_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (1, 3, 4.0)]).unwrap();
        assert!(h.bitwise_eq(&direct));
        h.validate().unwrap();
    }

    #[test]
    fn delete_matches_builder_result() {
        let g = triangle();
        let h = g
            .apply_edge_batch(&[EdgeDelta::Delete { u: 2, v: 1 }], MergePolicy::Sum)
            .unwrap();
        let direct = from_weighted_edges(3, [(0, 1, 1.0), (0, 2, 3.0)]).unwrap();
        assert!(h.bitwise_eq(&direct));
    }

    #[test]
    fn reweight_and_self_loop() {
        let g = triangle();
        let h = g
            .apply_edge_batch(
                &[
                    EdgeDelta::Reweight {
                        u: 1,
                        v: 0,
                        weight: 7.5,
                    },
                    EdgeDelta::Insert {
                        u: 2,
                        v: 2,
                        weight: 5.0,
                    },
                ],
                MergePolicy::Sum,
            )
            .unwrap();
        assert_eq!(h.edge_weight(0, 1), Some(7.5));
        assert_eq!(h.self_loop_weight(2), 5.0);
        // Self-loop counts once in k_i, so it adds w/2 to m = ½Σk_i.
        assert!((h.total_weight() - (triangle().total_weight() + 6.5 + 2.5)).abs() < 1e-12);
        h.validate().unwrap();
    }

    #[test]
    fn delete_nonexistent_edge_errors() {
        let g = triangle();
        let err = g
            .apply_edge_batch(&[EdgeDelta::Delete { u: 0, v: 5 }], MergePolicy::Sum)
            .unwrap_err();
        assert_eq!(
            err,
            DeltaError::MissingEdge {
                index: 0,
                edge: (0, 5),
                op: "delete"
            }
        );
    }

    #[test]
    fn reweight_nonexistent_edge_errors() {
        let g = from_weighted_edges(4, [(0, 1, 1.0)]).unwrap();
        let err = g
            .apply_edge_batch(
                &[EdgeDelta::Reweight {
                    u: 2,
                    v: 3,
                    weight: 1.0,
                }],
                MergePolicy::Sum,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            DeltaError::MissingEdge {
                index: 0,
                op: "reweight",
                ..
            }
        ));
    }

    #[test]
    fn duplicate_inserts_follow_merge_policy() {
        let g = CsrGraph::empty(2);
        let batch = [
            EdgeDelta::Insert {
                u: 0,
                v: 1,
                weight: 2.0,
            },
            EdgeDelta::Insert {
                u: 1,
                v: 0,
                weight: 3.0,
            },
        ];
        let sum = g.apply_edge_batch(&batch, MergePolicy::Sum).unwrap();
        assert_eq!(sum.edge_weight(0, 1), Some(5.0));
        let max = g.apply_edge_batch(&batch, MergePolicy::Max).unwrap();
        assert_eq!(max.edge_weight(0, 1), Some(3.0));
        let err = g.apply_edge_batch(&batch, MergePolicy::Reject).unwrap_err();
        assert_eq!(
            err,
            DeltaError::DuplicateEdge {
                index: 1,
                edge: (0, 1)
            }
        );
        // Insert colliding with a pre-existing edge also follows the policy.
        let err = sum
            .apply_edge_batch(
                &[EdgeDelta::Insert {
                    u: 0,
                    v: 1,
                    weight: 1.0,
                }],
                MergePolicy::Reject,
            )
            .unwrap_err();
        assert!(matches!(err, DeltaError::DuplicateEdge { .. }));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let g = triangle();
        let batch = [
            EdgeDelta::Insert {
                u: 0,
                v: 9,
                weight: 1.0,
            },
            EdgeDelta::Delete { u: 9, v: 0 },
        ];
        let (h, changes) = g.apply_edge_batch_diff(&batch, MergePolicy::Sum).unwrap();
        assert!(changes.is_empty());
        assert!(g.bitwise_eq(&h));
        assert_eq!(h.num_vertices(), 3);
    }

    #[test]
    fn delete_then_reinsert_reports_net_change() {
        let g = triangle();
        let batch = [
            EdgeDelta::Delete { u: 0, v: 1 },
            EdgeDelta::Insert {
                u: 0,
                v: 1,
                weight: 6.0,
            },
        ];
        let (h, changes) = g
            .apply_edge_batch_diff(&batch, MergePolicy::Reject)
            .unwrap();
        assert_eq!(
            changes,
            vec![EdgeChange {
                u: 0,
                v: 1,
                old: Some(1.0),
                new: Some(6.0)
            }]
        );
        assert_eq!(h.edge_weight(0, 1), Some(6.0));
    }

    #[test]
    fn invalid_weight_errors() {
        let g = triangle();
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = g
                .apply_edge_batch(
                    &[EdgeDelta::Insert {
                        u: 0,
                        v: 4,
                        weight: w,
                    }],
                    MergePolicy::Sum,
                )
                .unwrap_err();
            assert!(matches!(err, DeltaError::InvalidWeight { index: 0, .. }));
        }
    }

    #[test]
    fn empty_graph_batch_is_well_defined() {
        let g = CsrGraph::empty(0);
        let (same, changes) = g.apply_edge_batch_diff(&[], MergePolicy::Sum).unwrap();
        assert!(changes.is_empty());
        assert_eq!(same.num_vertices(), 0);
        assert_eq!(same.num_edges(), 0);

        let h = g
            .apply_edge_batch(
                &[
                    EdgeDelta::Insert {
                        u: 0,
                        v: 1,
                        weight: 2.0,
                    },
                    EdgeDelta::Insert {
                        u: 2,
                        v: 1,
                        weight: 1.0,
                    },
                ],
                MergePolicy::Sum,
            )
            .unwrap();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 2);
        let direct = from_weighted_edges(3, [(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        assert!(h.bitwise_eq(&direct));
        // Deleting from an empty graph errors cleanly.
        let err = CsrGraph::empty(0)
            .apply_edge_batch(&[EdgeDelta::Delete { u: 0, v: 1 }], MergePolicy::Sum)
            .unwrap_err();
        assert!(matches!(err, DeltaError::MissingEdge { .. }));
    }

    #[test]
    fn grown_vertices_are_isolated_unless_touched() {
        let g = triangle();
        let h = g
            .apply_edge_batch(
                &[EdgeDelta::Insert {
                    u: 6,
                    v: 2,
                    weight: 1.0,
                }],
                MergePolicy::Sum,
            )
            .unwrap();
        assert_eq!(h.num_vertices(), 7);
        for v in 3..6 {
            assert_eq!(h.degree(v), 0);
        }
        assert_eq!(h.degree(6), 1);
        h.validate().unwrap();
    }

    #[test]
    fn interleaved_ops_on_one_edge_resolve_in_batch_order() {
        let g = triangle();
        // reweight → delete → insert: net result is the final insert.
        let batch = [
            EdgeDelta::Reweight {
                u: 1,
                v: 2,
                weight: 9.0,
            },
            EdgeDelta::Delete { u: 1, v: 2 },
            EdgeDelta::Insert {
                u: 2,
                v: 1,
                weight: 0.5,
            },
        ];
        let h = g.apply_edge_batch(&batch, MergePolicy::Reject).unwrap();
        assert_eq!(h.edge_weight(1, 2), Some(0.5));
    }
}
