//! Batched edge deltas: insert / delete / reweight against an existing
//! [`CsrGraph`], spliced into its CSR arrays so the work follows the batch,
//! not the graph, and the result is bitwise deterministic regardless of
//! batch order or thread count.
//!
//! A batch is resolved *per undirected edge* before anything touches the
//! CSR arrays: deltas are canonicalised to `(min, max)` endpoints, grouped,
//! and replayed in batch order against the edge's current weight. Inserting
//! on top of an existing edge sums the weights, exactly like duplicate
//! edges fed to the builder ([`MergePolicy::Sum`]).
//!
//! The net per-edge outcome (and nothing else) is then spliced in. Each
//! touched row's new length shifts the offsets of the rows after it.
//! Parallel tasks over vertex ranges copy every run of untouched rows with
//! one slice copy per array (targets, weights, weighted degrees) and merge
//! only the touched rows, summing each one's weighted degree from 0.0 in
//! row order. `m` is re-summed over the degree array in vertex order, and
//! the edge count is patched from the changes. Every output slot is a
//! function of the input alone, so the result is the same bits at every
//! thread count — the bits a full rebuild from the updated adjacency gives.

use crate::csr::{CsrGraph, VertexId, WeightRangeError};
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

/// How an insert onto an existing edge is resolved. There is one merge
/// rule; the enum keeps [`CsrGraph::apply_edge_batch_diff`]'s signature
/// stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Sum the weights, as the builder does with duplicate edges.
    #[default]
    Sum,
}

/// One edge mutation in a dynamic batch. Endpoints are unordered (the graph
/// is undirected); `(u, v)` and `(v, u)` address the same edge, and a
/// self-loop is addressed as `(v, v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeDelta {
    /// Add an edge with the given weight. If the edge already exists (in the
    /// graph or earlier in the batch) the weights sum ([`MergePolicy`]).
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
    /// The allocator cannot provide the arrays for the `n` vertices the
    /// batch grows the graph to (an insert naming a huge id).
    OutOfMemory {
        /// Vertex count after the batch.
        n: usize,
    },
    /// A merged weight, a weighted degree or the total weight after the
    /// batch is out of the range modularity arithmetic needs.
    WeightRange(WeightRangeError),
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
            DeltaError::OutOfMemory { n } => {
                write!(f, "cannot allocate adjacency arrays for n={n} vertices")
            }
            DeltaError::WeightRange(e) => e.fmt(f),
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
    /// Applies a batch of edge deltas, returning the updated graph plus the
    /// net per-edge changes (ascending canonical order, no-ops elided).
    ///
    /// Semantics:
    /// * deltas addressing the same undirected edge resolve in batch order
    ///   against the edge's pre-batch weight;
    /// * `Insert` onto an existing weight adds to it; onto an absent edge it
    ///   creates it;
    /// * `Delete` / `Reweight` of an absent edge errors — but an edge
    ///   inserted earlier in the same batch counts as existing, so
    ///   insert-then-delete of a new edge cancels to a no-op;
    /// * `Insert` endpoints past the current vertex count grow the graph;
    ///   the result is well-defined starting from [`CsrGraph::empty`]`(0)`;
    /// * a merged weight, a touched row's weighted degree or the new total
    ///   weight out of the range [`WeightRangeError`] describes errors with
    ///   [`DeltaError::WeightRange`];
    /// * an empty batch returns a bitwise-identical copy.
    ///
    /// The result is bitwise the graph a full rebuild from the updated
    /// adjacency gives, at every thread count (see the module doc).
    pub fn apply_edge_batch_diff(
        &self,
        batch: &[EdgeDelta],
        _policy: MergePolicy,
    ) -> Result<(CsrGraph, Vec<EdgeChange>), DeltaError> {
        let (changes, new_n) = resolve(self, batch)?;
        let graph = splice(self, &changes, new_n)?;
        Ok((graph, changes))
    }
}

/// Replays each edge's deltas in batch order against its pre-batch weight.
/// Returns the net changes (ascending canonical order, bitwise no-ops
/// elided) and the vertex count after the batch.
fn resolve(g: &CsrGraph, batch: &[EdgeDelta]) -> Result<(Vec<EdgeChange>, usize), DeltaError> {
    let old_n = g.num_vertices();

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

    let mut changes: Vec<EdgeChange> = Vec::new();
    let mut new_n = old_n;
    let mut i = 0;
    while i < keyed.len() {
        let (u, v, _) = keyed[i];
        let mut j = i;
        let old = if (v as usize) < old_n {
            g.edge_weight(u, v)
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
                    cur = Some(cur.map_or(weight, |acc| acc + weight));
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
        if let Some(weight) = cur.filter(|w| !w.is_finite()) {
            return Err(DeltaError::WeightRange(WeightRangeError::EdgeWeight {
                edge: (u, v),
                weight,
            }));
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
    Ok((changes, new_n))
}

/// A change as the CSR storage sees it: entry `target` of row `row`, with
/// its weight after the batch (`None`: deleted) and whether the entry
/// existed before. A non-loop change touches two entries, a self-loop one.
#[derive(Clone, Copy, Debug)]
struct EntryChange {
    row: VertexId,
    target: VertexId,
    new: Option<f64>,
    existed: bool,
}

/// The entries `changes` touch, sorted by `(row, target)`; per-edge
/// resolution already deduplicated them.
fn entry_changes(changes: &[EdgeChange]) -> Vec<EntryChange> {
    let mut entries = Vec::with_capacity(2 * changes.len());
    for c in changes {
        let (new, existed) = (c.new, c.old.is_some());
        entries.push(EntryChange {
            row: c.u,
            target: c.v,
            new,
            existed,
        });
        if c.u != c.v {
            entries.push(EntryChange {
                row: c.v,
                target: c.u,
                new,
                existed,
            });
        }
    }
    entries.sort_unstable_by_key(|e| (e.row, e.target));
    entries
}

/// Adjacency entries per size class of the spliced `targets`/`weights`:
/// their capacities round up to a multiple of it. A chain of updates then
/// asks the allocator for the same few sizes, so each update's arrays
/// refill the heap holes the graph two updates back left instead of
/// growing the heap. A batch of a few thousand changes rarely crosses a
/// class, and a class wastes at most 192 KiB per graph.
const SIZE_CLASS: usize = 1 << 14;

/// Old entries plus vertices per splice task (at least), and the most
/// tasks one splice runs: small graphs splice inline, large ones in up to
/// 64 vertex ranges balanced by that work.
const SPLICE_GRAIN: usize = 1 << 14;
const MAX_SPLICE_TASKS: usize = 64;

/// A row the batch touched: its [`EntryChange`]s, its length after the
/// batch, and the net entries the touched rows before it gained.
struct TouchedRow {
    row: usize,
    changes: Range<usize>,
    len: usize,
    shift_before: isize,
}

/// Applies resolved `changes` to `g`'s arrays without re-merging the rows
/// they leave alone. Each touched row's new length shifts the offsets
/// after it; parallel tasks over vertex ranges copy every run of untouched
/// rows with one slice copy per array and merge only the touched rows.
fn splice(g: &CsrGraph, changes: &[EdgeChange], new_n: usize) -> Result<CsrGraph, DeltaError> {
    let old_n = g.num_vertices();
    let old_off = g.adjacency_offsets();
    let old_entries = old_off[old_n];
    let entries = entry_changes(changes);

    let mut rows: Vec<TouchedRow> = Vec::new();
    let mut total_shift = 0isize;
    let mut i = 0;
    while i < entries.len() {
        let (row, first) = (entries[i].row as usize, i);
        let old_len = if row < old_n {
            g.degree(row as VertexId)
        } else {
            0
        };
        let mut len = old_len;
        while i < entries.len() && entries[i].row as usize == row {
            match (entries[i].existed, entries[i].new.is_some()) {
                (false, true) => len += 1,
                (true, false) => len -= 1,
                _ => {}
            }
            i += 1;
        }
        rows.push(TouchedRow {
            row,
            changes: first..i,
            len,
            shift_before: total_shift,
        });
        total_shift += len as isize - old_len as isize;
    }
    let new_entries = (old_entries as isize + total_shift) as usize;
    // Where row `v` starts after the batch (`v == new_n`: the end).
    let offset_after = |v: usize| {
        let k = rows.partition_point(|r| r.row < v);
        let shift = rows.get(k).map_or(total_shift, |r| r.shift_before);
        (old_off[v.min(old_n)] as isize + shift) as usize
    };

    // Task boundaries: the first vertex whose old entries-plus-vertices
    // prefix (strictly increasing in `v`) reaches each task's share.
    let work = old_entries + new_n;
    let tasks = (work / SPLICE_GRAIN).clamp(1, MAX_SPLICE_TASKS);
    let bounds: Vec<usize> = (0..=tasks)
        .map(|t| {
            let share = work * t / tasks;
            let (mut lo, mut hi) = (0, new_n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if old_off[mid.min(old_n)] + mid < share {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .collect();

    // Largest first, so the big arrays take the big holes.
    let capacity = new_entries.div_ceil(SIZE_CLASS) * SIZE_CLASS;
    let mut weights: Vec<f64> = try_buffer(capacity, new_n)?;
    let mut targets: Vec<VertexId> = try_buffer(capacity, new_n)?;
    let mut offsets: Vec<usize> = try_buffer(new_n + 1, new_n)?;
    let mut degrees: Vec<f64> = try_buffer(new_n, new_n)?;
    let overflow: Vec<Option<(VertexId, f64)>> = {
        let mut offsets = &mut offsets.spare_capacity_mut()[..new_n];
        let mut degrees = &mut degrees.spare_capacity_mut()[..new_n];
        let mut targets = &mut targets.spare_capacity_mut()[..new_entries];
        let mut weights = &mut weights.spare_capacity_mut()[..new_entries];
        let mut jobs: Vec<SpliceTask> = bounds
            .windows(2)
            .map(|b| {
                let (first_entry, end_entry) = (offset_after(b[0]), offset_after(b[1]));
                SpliceTask {
                    vertices: b[0]..b[1],
                    first_entry,
                    offsets: take_front(&mut offsets, b[1] - b[0]),
                    degrees: take_front(&mut degrees, b[1] - b[0]),
                    targets: take_front(&mut targets, end_entry - first_entry),
                    weights: take_front(&mut weights, end_entry - first_entry),
                }
            })
            .collect();
        jobs.par_iter_mut()
            .with_min_len(1)
            .map(|job| job.run(g, &entries, &rows))
            .collect()
    };
    // SAFETY: the tasks tile `0..new_n` and `0..new_entries`, and each one
    // wrote every slot it owns (`SpliceTask::run` asserts its entry count;
    // its rows are written in order). A panicking task never gets here.
    unsafe {
        offsets.set_len(new_n);
        degrees.set_len(new_n);
        targets.set_len(new_entries);
        weights.set_len(new_entries);
    }
    offsets.push(new_entries);
    if let Some((vertex, degree)) = overflow.into_iter().flatten().next() {
        return Err(DeltaError::WeightRange(WeightRangeError::Degree {
            vertex,
            degree,
        }));
    }

    let inserted = changes.iter().filter(|c| c.old.is_none()).count();
    let deleted = changes.iter().filter(|c| c.new.is_none()).count();
    let graph = CsrGraph::from_parts(
        offsets,
        targets,
        weights,
        degrees,
        g.num_edges() + inserted - deleted,
    );
    graph
        .check_total_weight()
        .map_err(DeltaError::WeightRange)?;
    debug_assert!(graph.validate().is_ok(), "{:?}", graph.validate());
    Ok(graph)
}

/// An empty buffer with room for `capacity` items, or
/// [`DeltaError::OutOfMemory`] for the `n`-vertex graph.
fn try_buffer<T>(capacity: usize, n: usize) -> Result<Vec<T>, DeltaError> {
    let mut buffer = Vec::new();
    buffer
        .try_reserve_exact(capacity)
        .map_err(|_| DeltaError::OutOfMemory { n })?;
    Ok(buffer)
}

/// Splits the first `len` slots off `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Copies `src` into the equally long uninitialized `dst`: one `memcpy`.
fn copy_into<T: Copy>(dst: &mut [MaybeUninit<T>], src: &[T]) {
    assert_eq!(dst.len(), src.len());
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, the lengths match, and a
    // shared and a unique borrow never overlap.
    unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr().cast::<T>(), src.len()) }
}

/// One splice task: rows `vertices` and the output slots they own — their
/// offsets and degrees, and the entries from `first_entry` on.
struct SpliceTask<'a> {
    vertices: Range<usize>,
    first_entry: usize,
    offsets: &'a mut [MaybeUninit<usize>],
    degrees: &'a mut [MaybeUninit<f64>],
    targets: &'a mut [MaybeUninit<VertexId>],
    weights: &'a mut [MaybeUninit<f64>],
}

impl SpliceTask<'_> {
    /// Writes the task's rows in order. Returns the first touched row whose
    /// weighted degree is not finite.
    fn run(
        &mut self,
        g: &CsrGraph,
        entries: &[EntryChange],
        rows: &[TouchedRow],
    ) -> Option<(VertexId, f64)> {
        let Range { start: lo, end: hi } = self.vertices.clone();
        let first = rows.partition_point(|r| r.row < lo);
        let mut overflow = None;
        let (mut v, mut out) = (lo, 0);
        for r in rows[first..].iter().take_while(|r| r.row < hi) {
            out = self.copy_untouched(g, v..r.row, out);
            let (ids, ws): (&[VertexId], &[f64]) = if r.row < g.num_vertices() {
                let row = r.row as VertexId;
                (g.neighbor_ids(row), g.neighbor_weights(row))
            } else {
                (&[], &[])
            };
            let row = out..out + r.len;
            let degree = merge_row(
                ids,
                ws,
                &entries[r.changes.clone()],
                &mut self.targets[row.clone()],
                &mut self.weights[row],
            );
            self.offsets[r.row - lo].write(self.first_entry + out);
            self.degrees[r.row - lo].write(degree);
            if !degree.is_finite() && overflow.is_none() {
                overflow = Some((r.row as VertexId, degree));
            }
            out += r.len;
            v = r.row + 1;
        }
        out = self.copy_untouched(g, v..hi, out);
        assert_eq!(
            out,
            self.targets.len(),
            "splice task left entries unwritten"
        );
        overflow
    }

    /// Writes the untouched rows `run` after the `out` entries written so
    /// far: rows of the old graph as one slice copy per array, rows the
    /// batch grew the graph by as empty. Returns the entries written.
    fn copy_untouched(&mut self, g: &CsrGraph, run: Range<usize>, out: usize) -> usize {
        let lo = self.vertices.start;
        let old_off = g.adjacency_offsets();
        let grown = run.end.min(g.num_vertices()).max(run.start);
        let mut end = out;
        if run.start < grown {
            let src = old_off[run.start]..old_off[grown];
            end += src.len();
            copy_into(
                &mut self.targets[out..end],
                &g.adjacency_targets()[src.clone()],
            );
            copy_into(
                &mut self.weights[out..end],
                &g.adjacency_weights()[src.clone()],
            );
            copy_into(
                &mut self.degrees[run.start - lo..grown - lo],
                &g.weighted_degrees()[run.start..grown],
            );
            let base = self.first_entry + out;
            for (slot, &o) in self.offsets[run.start - lo..grown - lo]
                .iter_mut()
                .zip(&old_off[run.start..grown])
            {
                slot.write(base + (o - src.start));
            }
        }
        for v in grown..run.end {
            self.offsets[v - lo].write(self.first_entry + end);
            self.degrees[v - lo].write(0.0);
        }
        end
    }
}

/// Merges a touched row's old entries with its changes (both ascending by
/// target) into `targets`/`weights`, which the merged row fills exactly:
/// the old entries between two changes go as one slice copy. Returns the
/// row's weighted degree.
fn merge_row(
    old_ids: &[VertexId],
    old_ws: &[f64],
    changes: &[EntryChange],
    targets: &mut [MaybeUninit<VertexId>],
    weights: &mut [MaybeUninit<f64>],
) -> f64 {
    let mut row = RowWriter {
        targets,
        weights,
        len: 0,
        degree: 0.0,
    };
    let mut oi = 0;
    for c in changes {
        let to = oi + old_ids[oi..].partition_point(|&t| t < c.target);
        row.extend(&old_ids[oi..to], &old_ws[oi..to]);
        oi = to;
        if old_ids.get(oi) == Some(&c.target) {
            // The entry the change reweights or deletes.
            debug_assert!(c.existed);
            oi += 1;
        }
        if let Some(w) = c.new {
            row.push(c.target, w);
        }
    }
    row.extend(&old_ids[oi..], &old_ws[oi..]);
    assert_eq!(row.len, row.targets.len(), "merged row length mismatch");
    row.degree
}

/// Appends entries to a merged row, summing its weighted degree from 0.0
/// in row order — the order every graph constructor sums it in.
struct RowWriter<'a> {
    targets: &'a mut [MaybeUninit<VertexId>],
    weights: &'a mut [MaybeUninit<f64>],
    len: usize,
    degree: f64,
}

impl RowWriter<'_> {
    fn extend(&mut self, ids: &[VertexId], ws: &[f64]) {
        let end = self.len + ids.len();
        copy_into(&mut self.targets[self.len..end], ids);
        copy_into(&mut self.weights[self.len..end], ws);
        for &w in ws {
            self.degree += w;
        }
        self.len = end;
    }

    fn push(&mut self, target: VertexId, weight: f64) {
        self.targets[self.len].write(target);
        self.weights[self.len].write(weight);
        self.degree += weight;
        self.len += 1;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_weighted_edges, GraphBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::hash_map::{Entry, HashMap};

    fn triangle() -> CsrGraph {
        from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    /// The per-entry merge the splice replaced, kept as its oracle: every
    /// row is rebuilt entry by entry on one thread, and every cached field
    /// is recomputed from the arrays.
    fn merge_oracle(
        g: &CsrGraph,
        batch: &[EdgeDelta],
    ) -> Result<(CsrGraph, Vec<EdgeChange>), DeltaError> {
        let (changes, new_n) = resolve(g, batch)?;
        let old_n = g.num_vertices();
        let directed = entry_changes(&changes);

        let mut counts = vec![0usize; new_n];
        for (v, c) in counts.iter_mut().enumerate().take(old_n) {
            *c = g.degree(v as VertexId);
        }
        for e in &directed {
            match (e.existed, e.new.is_some()) {
                (false, true) => counts[e.row as usize] += 1,
                (true, false) => counts[e.row as usize] -= 1,
                _ => {}
            }
        }
        let mut offsets = vec![0usize; new_n + 1];
        for v in 0..new_n {
            offsets[v + 1] = offsets[v] + counts[v];
        }
        let entries = offsets[new_n];

        let mut targets = vec![0 as VertexId; entries];
        let mut weights = vec![0.0f64; entries];
        let mut d = 0usize;
        for src in 0..new_n {
            let mut out = offsets[src];
            let mut d_end = d;
            while d_end < directed.len() && directed[d_end].row as usize == src {
                d_end += 1;
            }
            let (old_ids, old_ws): (&[VertexId], &[f64]) = if src < old_n {
                (
                    g.neighbor_ids(src as VertexId),
                    g.neighbor_weights(src as VertexId),
                )
            } else {
                (&[], &[])
            };
            let (mut oi, mut di) = (0usize, d);
            while oi < old_ids.len() || di < d_end {
                let old_t = old_ids.get(oi).copied();
                let delta_t = (di < d_end).then(|| directed[di].target);
                match (old_t, delta_t) {
                    (Some(ot), Some(dt)) if ot < dt => {
                        targets[out] = ot;
                        weights[out] = old_ws[oi];
                        out += 1;
                        oi += 1;
                    }
                    (Some(ot), Some(dt)) if ot == dt => {
                        if let Some(w) = directed[di].new {
                            targets[out] = ot;
                            weights[out] = w;
                            out += 1;
                        }
                        oi += 1;
                        di += 1;
                    }
                    (_, Some(dt)) => {
                        targets[out] = dt;
                        weights[out] = directed[di].new.expect("insert carries a weight");
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
            assert_eq!(out, offsets[src + 1]);
            d = d_end;
        }
        Ok((
            CsrGraph::from_sorted_adjacency(offsets, targets, weights),
            changes,
        ))
    }

    /// Asserts `got` and `want` agree bit for bit: arrays, weighted degrees,
    /// total weight and edge count.
    fn assert_same_bits(got: &CsrGraph, want: &CsrGraph, what: &str) {
        let bits = |g: &CsrGraph| -> Vec<u64> {
            g.weighted_degrees().iter().map(|k| k.to_bits()).collect()
        };
        assert!(got.bitwise_eq(want), "{what}: CSR arrays differ");
        assert_eq!(bits(got), bits(want), "{what}: weighted degrees differ");
        assert_eq!(
            got.total_weight().to_bits(),
            want.total_weight().to_bits(),
            "{what}: total weight differs"
        );
        assert_eq!(
            got.num_edges(),
            want.num_edges(),
            "{what}: edge count differs"
        );
    }

    fn random_weight(rng: &mut SmallRng) -> f64 {
        match rng.gen_range(0..4) {
            0 => 1.0,
            1 => 0.1 * rng.gen_range(1..30) as f64,
            2 => rng.gen_range(0.001..1000.0),
            _ => 0.5,
        }
    }

    /// `n` vertices and about `m` edges, self-loops included. Endpoints
    /// come from the first three quarters of the ids (and not all of
    /// those), so isolated vertices stay.
    fn random_graph(rng: &mut SmallRng, n: usize, m: usize) -> CsrGraph {
        let span = (3 * n / 4).max(1);
        let mut b = GraphBuilder::new(n);
        for _ in 0..if n == 0 { 0 } else { m } {
            let u = rng.gen_range(0..span) as VertexId;
            let v = if rng.gen_bool(0.1) {
                u
            } else {
                rng.gen_range(0..span) as VertexId
            };
            b = b.add_edge(u, v, random_weight(rng));
        }
        b.build().unwrap()
    }

    /// A batch of about `len` deltas that `Sum` and `Max` accept: deletes
    /// and reweights address edges present at that point of the batch
    /// (in `g` or inserted earlier), inserts go anywhere — duplicates and
    /// ids past `n` included — and some deltas come as insert-then-delete
    /// or delete-then-reinsert pairs on one edge.
    fn random_batch(rng: &mut SmallRng, g: &CsrGraph, len: usize) -> Vec<EdgeDelta> {
        let n = g.num_vertices();
        let mut present: Vec<(VertexId, VertexId)> =
            g.undirected_edges().map(|(u, v, _)| (u, v)).collect();
        let mut index: HashMap<(VertexId, VertexId), usize> =
            present.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        let mut batch = Vec::with_capacity(len + 1);
        while batch.len() < len {
            let op = if present.is_empty() {
                0
            } else {
                rng.gen_range(0..6)
            };
            let pick = rng.gen_range(0..present.len().max(1));
            match op {
                0 | 4 => {
                    let id = |rng: &mut SmallRng| {
                        if n == 0 || rng.gen_bool(0.05) {
                            (n + rng.gen_range(0..3)) as VertexId
                        } else {
                            rng.gen_range(0..n) as VertexId
                        }
                    };
                    let u = id(rng);
                    let v = if rng.gen_bool(0.1) { u } else { id(rng) };
                    let weight = random_weight(rng);
                    batch.push(EdgeDelta::Insert { u, v, weight });
                    let e = (u.min(v), u.max(v));
                    if let Entry::Vacant(slot) = index.entry(e) {
                        if op == 4 {
                            batch.push(EdgeDelta::Delete { u: v, v: u });
                        } else {
                            slot.insert(present.len());
                            present.push(e);
                        }
                    }
                }
                1 => {
                    let (u, v) = present[pick];
                    let weight = random_weight(rng);
                    batch.push(EdgeDelta::Insert { u: v, v: u, weight });
                }
                2 | 5 => {
                    let (u, v) = present[pick];
                    batch.push(EdgeDelta::Delete { u, v });
                    if op == 5 {
                        let weight = random_weight(rng);
                        batch.push(EdgeDelta::Insert { u, v, weight });
                    } else {
                        index.remove(&(u, v));
                        present.swap_remove(pick);
                        if let Some(&moved) = present.get(pick) {
                            index.insert(moved, pick);
                        }
                    }
                }
                _ => {
                    let (u, v) = present[pick];
                    let weight = random_weight(rng);
                    batch.push(EdgeDelta::Reweight { u, v, weight });
                }
            }
        }
        batch
    }

    /// The splice against the per-entry merge oracle on 600 small random
    /// graphs (0–64 vertices) and 4 of about 20 K vertices, whose splice
    /// splits across tasks, each inside 1-, 2- and 8-thread pools.
    #[test]
    fn splice_matches_merge_oracle_on_random_batches() {
        let pools: Vec<rayon::ThreadPool> = [1, 2, 8]
            .into_iter()
            .map(|t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(0x5_911CE);
        let mut cases = Vec::new();
        for i in 0..604 {
            let n = if i < 600 {
                rng.gen_range(0..=64)
            } else {
                rng.gen_range(19_500..20_500)
            };
            let m = rng.gen_range(0..=3 * n);
            let g = random_graph(&mut rng, n, m);
            let len = if i < 600 {
                rng.gen_range(0..=24)
            } else {
                rng.gen_range(1_000..3_000)
            };
            let batch = random_batch(&mut rng, &g, len);
            cases.push((g, batch));
        }
        let large = cases[600..]
            .iter()
            .map(|(g, _)| g.num_adjacency_entries() + g.num_vertices())
            .min()
            .unwrap();
        assert!(
            large >= 2 * SPLICE_GRAIN,
            "large cases must split into tasks"
        );
        for (i, (g, batch)) in cases.iter().enumerate() {
            let (want, want_changes) = merge_oracle(g, batch).unwrap();
            for pool in &pools {
                let what = format!("case {i}, {} threads", pool.current_num_threads());
                let (got, changes) = pool
                    .install(|| g.apply_edge_batch_diff(batch, MergePolicy::Sum))
                    .unwrap();
                assert_same_bits(&got, &want, &what);
                assert_eq!(changes, want_changes, "{what}: changes differ");
            }
        }
    }

    #[test]
    fn out_of_range_weights_are_rejected() {
        let insert = |u, v, weight| EdgeDelta::Insert { u, v, weight };
        let range_err = |g: &CsrGraph, batch: &[EdgeDelta]| match g
            .apply_edge_batch_diff(batch, MergePolicy::Sum)
            .unwrap_err()
        {
            DeltaError::WeightRange(e) => e,
            e => panic!("expected a weight-range error, got {e}"),
        };
        // Merged weights and degrees that overflow: no checked graph holds
        // weights this large, so this one is assembled unchecked.
        let huge = CsrGraph::from_sorted_adjacency(vec![0, 1, 2, 2], vec![1, 0], vec![1e308; 2]);
        assert_eq!(
            range_err(&huge, &[insert(0, 1, 1e308)]),
            WeightRangeError::EdgeWeight {
                edge: (0, 1),
                weight: f64::INFINITY
            }
        );
        assert_eq!(
            range_err(&huge, &[insert(2, 1, 1e308)]),
            WeightRangeError::Degree {
                vertex: 1,
                degree: f64::INFINITY
            }
        );
        // (2m)² overflows, then underflows, on checked graphs.
        let g = from_weighted_edges(3, [(0, 1, 1e150), (1, 2, 1e150)]).unwrap();
        assert!(matches!(
            range_err(&g, &[insert(0, 2, 1e154)]),
            WeightRangeError::TotalWeight { .. }
        ));
        let g = from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 1e-160)]).unwrap();
        let e = range_err(&g, &[EdgeDelta::Delete { u: 0, v: 1 }]);
        assert_eq!(
            e,
            WeightRangeError::TotalWeight {
                total_weight: 1e-160
            }
        );
        assert!(e.to_string().contains("1e-160"), "{e}");
        // Deleting every edge leaves m = 0, which is in range.
        let (h, _) = g
            .apply_edge_batch_diff(
                &[
                    EdgeDelta::Delete { u: 0, v: 1 },
                    EdgeDelta::Delete { u: 1, v: 2 },
                ],
                MergePolicy::Sum,
            )
            .unwrap();
        assert_eq!((h.num_edges(), h.total_weight()), (0, 0.0));
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
        let (h, _) = g
            .apply_edge_batch_diff(
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
        let (h, _) = g
            .apply_edge_batch_diff(&[EdgeDelta::Delete { u: 2, v: 1 }], MergePolicy::Sum)
            .unwrap();
        let direct = from_weighted_edges(3, [(0, 1, 1.0), (0, 2, 3.0)]).unwrap();
        assert!(h.bitwise_eq(&direct));
    }

    #[test]
    fn reweight_and_self_loop() {
        let g = triangle();
        let (h, _) = g
            .apply_edge_batch_diff(
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
            .apply_edge_batch_diff(&[EdgeDelta::Delete { u: 0, v: 5 }], MergePolicy::Sum)
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
            .apply_edge_batch_diff(
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
        let (sum, _) = g.apply_edge_batch_diff(&batch, MergePolicy::Sum).unwrap();
        assert_eq!(sum.edge_weight(0, 1), Some(5.0));
        // Insert colliding with a pre-existing edge sums too.
        let (again, changes) = sum
            .apply_edge_batch_diff(
                &[EdgeDelta::Insert {
                    u: 0,
                    v: 1,
                    weight: 1.0,
                }],
                MergePolicy::Sum,
            )
            .unwrap();
        assert_eq!(again.edge_weight(0, 1), Some(6.0));
        assert_eq!(
            changes,
            vec![EdgeChange {
                u: 0,
                v: 1,
                old: Some(5.0),
                new: Some(6.0)
            }]
        );
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
        let (h, changes) = g.apply_edge_batch_diff(&batch, MergePolicy::Sum).unwrap();
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
                .apply_edge_batch_diff(
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

        let (h, _) = g
            .apply_edge_batch_diff(
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
            .apply_edge_batch_diff(&[EdgeDelta::Delete { u: 0, v: 1 }], MergePolicy::Sum)
            .unwrap_err();
        assert!(matches!(err, DeltaError::MissingEdge { .. }));
    }

    #[test]
    fn grown_vertices_are_isolated_unless_touched() {
        let g = triangle();
        let (h, _) = g
            .apply_edge_batch_diff(
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
        let (h, _) = g.apply_edge_batch_diff(&batch, MergePolicy::Sum).unwrap();
        assert_eq!(h.edge_weight(1, 2), Some(0.5));
    }
}
