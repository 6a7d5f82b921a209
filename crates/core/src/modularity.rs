//! Modularity (Eq. 3) and modularity-gain (Eq. 4) kernels, shared by the
//! serial and parallel algorithms.
//!
//! # The flat timestamped neighbor scan
//!
//! The hottest operation in the whole codebase is the per-vertex
//! neighbor-community aggregation feeding Eq. 4: for vertex `i`, collect
//! `e_{i→C}` for every community `C` adjacent to `i`. The original
//! implementation pushed `(community, weight)` pairs and sorted them —
//! O(deg·log deg) per vertex per iteration. [`NeighborScratch`] now uses a
//! **generation-stamped dense scratch** (Staudt & Meyerhenke's flat
//! per-thread hashtable, and the GVE-Louvain lineage's per-thread
//! collision-free map): two `n`-sized arrays, `stamp` (which generation last
//! touched a community) and `slot` (where that community's accumulator lives
//! in the touched list `entries`). A gather is then O(deg) with no sorting
//! and no per-vertex allocation; bumping the generation invalidates the
//! whole scratch in O(1).
//!
//! Entries come out in **first-touch (adjacency) order**, not label order.
//! The paper's generalized minimum-label heuristic (§5.1) is preserved
//! because [`best_move`] breaks equal-gain ties by explicit label
//! comparison, which is order-independent: per-candidate gains are computed
//! by the same float expression regardless of scan order, so "maximum gain,
//! then minimum label" selects the identical target the sorted scan did.
//!
//! # Incremental accounting
//!
//! [`ModularityTracker`] maintains `Σ_i e_{i→C(i)}` and `Σ_C a_C²` across
//! iterations by applying only the committed moves, so the per-iteration
//! modularity is O(#moves + Σ deg(moved)) instead of a full O(m) rescan.
//! The O(m) recomputation survives only as a `debug_assert` cross-check
//! (`ModularityTracker::drift_from_full`).
//!
//! # Floating-point / determinism policy
//!
//! Every reduction that feeds a *convergence decision* is ordered: batch
//! `e_in` deltas go through [`det_sum`] (fixed-size chunking with an ordered
//! sequential combine) and `a_C`/`Σ a_C²` updates are applied in ascending
//! vertex order of the move list, which itself is assembled in vertex order.
//! Results are therefore bitwise identical for any rayon thread count — the
//! paper's §5.4 stability claim ("stable in that it always produces the same
//! output regardless of the number of cores used") extended to the
//! incremental state.

use grappolo_graph::{CsrGraph, VertexId};
use rayon::prelude::*;

/// Community identifier. Community labels are vertex ids of the current
/// phase's graph (`0..n`), exactly as in the paper's minimum-label heuristic
/// where "communities at any given stage … \[are\] labeled numerically".
pub type Community = u32;

/// Fixed chunk width for deterministic parallel sums.
const DET_CHUNK: usize = 4096;

/// Deterministic parallel sum of `f(i)` for `i in 0..n`: chunk sums are
/// computed in parallel but combined in index order, so the result does not
/// depend on the thread count or scheduling. Chunks are coarse units of
/// work (`DET_CHUNK` adds each), so the shim's uniform grain rule is
/// overridden with `with_min_len(1)` — the same convention every other
/// coarse-item iterator in the workspace uses; without it a multi-million
/// element sum would run inline because its *chunk count* sits under the
/// 1024-item default grain.
pub fn det_sum<F: Fn(usize) -> f64 + Sync>(n: usize, f: F) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let num_chunks = n.div_ceil(DET_CHUNK);
    let partials: Vec<f64> = (0..num_chunks)
        .into_par_iter()
        .with_min_len(1)
        .map(|c| {
            let start = c * DET_CHUNK;
            let end = (start + DET_CHUNK).min(n);
            let mut acc = 0.0;
            for i in start..end {
                acc += f(i);
            }
            acc
        })
        .collect();
    partials.iter().sum()
}

/// Community weighted degrees `a_C = Σ_{i∈C} k_i` (Eq. 2), indexed by
/// community label. The scatter is sequential in vertex order, which makes it
/// deterministic. The sweeps no longer call this per iteration (they carry
/// `a` incrementally); it remains the canonical initializer and the
/// debug-time cross-check.
pub fn community_degrees(g: &CsrGraph, assignment: &[Community]) -> Vec<f64> {
    let n = g.num_vertices();
    debug_assert_eq!(assignment.len(), n);
    let mut a = vec![0.0f64; n];
    for v in 0..n {
        a[assignment[v] as usize] += g.weighted_degree(v as VertexId);
    }
    a
}

/// Community sizes (member counts), indexed by community label.
pub fn community_sizes(assignment: &[Community]) -> Vec<u32> {
    let mut sizes = vec![0u32; assignment.len()];
    for &c in assignment {
        sizes[c as usize] += 1;
    }
    sizes
}

/// `Σ_i e_{i→C(i)}`: every intra-community adjacency entry summed from both
/// endpoints (self-loops once). Equals `2 × (intra non-loop weight) +
/// (intra loop weight)` and is the first term of Eq. 3 before the `1/2m`.
pub fn intra_community_weight(g: &CsrGraph, assignment: &[Community]) -> f64 {
    det_sum(g.num_vertices(), |v| {
        let cv = assignment[v];
        g.neighbors(v as VertexId)
            .filter(|&(u, _)| assignment[u as usize] == cv)
            .map(|(_, w)| w)
            .sum()
    })
}

/// Modularity of a partition (Eq. 3):
/// `Q = (1/2m) Σ_i e_{i→C(i)} − Σ_C (a_C / 2m)²`.
pub fn modularity(g: &CsrGraph, assignment: &[Community]) -> f64 {
    modularity_with_resolution(g, assignment, 1.0)
}

/// Generalized modularity with resolution parameter `γ` (the paper's
/// future-work item (iv); `γ = 1` is Eq. 3):
/// `Q_γ = (1/2m) Σ_i e_{i→C(i)} − γ Σ_C (a_C / 2m)²`.
pub fn modularity_with_resolution(g: &CsrGraph, assignment: &[Community], gamma: f64) -> f64 {
    let m = g.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let e_in = intra_community_weight(g, assignment);
    let a = community_degrees(g, assignment);
    let two_m = 2.0 * m;
    let null = det_sum(a.len(), |c| {
        let x = a[c] / two_m;
        x * x
    });
    e_in / two_m - gamma * null
}

/// Per-thread scratch for neighbor-community aggregation: a generation-
/// stamped dense map from community label to an accumulator slot in
/// [`NeighborScratch::entries`].
///
/// One instance per worker (rayon `map_init`), reused across vertices so a
/// gather is O(deg) with no allocation and no sort. `stamp[c] == generation`
/// marks community `c` as touched in the current gather and `slot[c]` holds
/// the index of its `(c, weight)` accumulator; bumping `generation`
/// invalidates everything in O(1).
#[derive(Clone, Debug, Default)]
pub struct NeighborScratch {
    /// Distinct neighboring communities with accumulated edge weight, in
    /// **first-touch (adjacency) order** — not sorted by label.
    pub entries: Vec<(Community, f64)>,
    /// Per-community mark word: generation in the high 32 bits, `entries`
    /// slot index in the low 32. One word (instead of separate stamp/slot
    /// arrays) halves the random cache traffic per accumulated neighbor.
    marks: Vec<u64>,
    /// Current gather generation.
    generation: u32,
}

impl NeighborScratch {
    /// Scratch pre-sized for community labels `< n` (labels are phase-graph
    /// vertex ids). `default()` works too; the arrays grow on first use.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            entries: Vec::new(),
            marks: vec![0; n],
            generation: 0,
        }
    }

    /// Starts a new aggregation over community labels `< n`.
    #[inline]
    pub fn begin(&mut self, n: usize) {
        self.entries.clear();
        if self.marks.len() < n {
            if self.marks.is_empty() {
                // First use of a `default()` scratch: `vec![0; n]` goes
                // through alloc_zeroed (lazily-faulted zero pages), so a
                // freshly-created per-chunk scratch only pays for the pages
                // its gathers actually touch — not an eager O(n) fill.
                self.marks = vec![0; n];
            } else {
                self.marks.resize(n, 0);
            }
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // u32 wrap: stale generations could collide; reset once every
            // 2³² gathers.
            self.marks.fill(0);
            self.generation = 1;
        }
    }

    /// Adds `w` to community `c`'s accumulator (O(1)).
    #[inline]
    pub fn accumulate(&mut self, c: Community, w: f64) {
        let mark = self.marks[c as usize];
        if (mark >> 32) as u32 == self.generation {
            self.entries[mark as u32 as usize].1 += w;
        } else {
            self.marks[c as usize] = ((self.generation as u64) << 32) | self.entries.len() as u64;
            self.entries.push((c, w));
        }
    }

    /// Collects `e_{i→C}` for every community `C` adjacent to `v` (excluding
    /// `v`'s self-loop, which moves with the vertex and cancels in gain
    /// comparisons), with communities read through `community_of`. Entries
    /// end up in first-touch order; weights accumulate in adjacency order.
    #[inline]
    pub fn gather_by(
        &mut self,
        g: &CsrGraph,
        v: VertexId,
        community_of: impl Fn(usize) -> Community,
    ) {
        self.begin(g.num_vertices());
        for (u, w) in g.neighbors(v) {
            if u == v {
                continue;
            }
            self.accumulate(community_of(u as usize), w);
        }
    }

    /// [`Self::gather_by`] against a plain assignment slice.
    #[inline]
    pub fn gather(&mut self, g: &CsrGraph, assignment: &[Community], v: VertexId) {
        self.gather_by(g, v, |u| assignment[u]);
    }

    /// The weight accumulated toward community `c` in the current gather
    /// (0.0 if `c` was not touched) — an O(1) marks lookup, replacing the
    /// linear candidate scan [`best_move`] would otherwise pay for
    /// `e_{i→C(i)}`. Bitwise-identical to that scan's result: both read the
    /// same accumulator slot.
    #[inline]
    pub fn weight_to(&self, c: Community) -> f64 {
        let mark = self.marks[c as usize];
        if (mark >> 32) as u32 == self.generation {
            self.entries[mark as u32 as usize].1
        } else {
            0.0
        }
    }
}

/// Worker slots in a [`ScratchPool`]: slot 0 serves threads outside any
/// resident pool (the caller participating in its own region, tests, the
/// serial path); slots `1..` serve resident workers by
/// [`rayon::current_worker_index`]. 32 worker slots cover every realistic
/// pool; larger pools wrap modulo and merely share a slot (contention, not
/// incorrectness).
const SCRATCH_SLOTS: usize = 33;

/// The persistent per-worker arena of [`NeighborScratch`]es behind every
/// `map_init` gather in the sweeps, the rebuild, and the reference ladder.
///
/// `map_init` builds one state value per executed task and drops it when
/// the task ends, so a sweep that launches many small parallel regions (one
/// per color batch per iteration) would otherwise allocate — and fault in —
/// a fresh `n`-sized `marks` array for every region. Checking scratches out
/// of the pool makes the allocation amortize across the whole run: a task's
/// `init` pops a warmed scratch (marks sized, generation valid) from the
/// slot owned by the executing worker and the guard pushes it back on drop.
///
/// Scratches live in **worker-indexed slots**, so on the resident pool a
/// worker keeps re-checking-out the scratch it warmed — cache- and
/// NUMA-friendly — and the checkout is an uncontended lock in the steady
/// state. [`ScratchPool::global`] is the process-wide instance: because
/// the resident workers are themselves process-wide, scratches persist not
/// just across iterations but across *phases* (each phase's smaller graph
/// reuses the previous phase's already-faulted marks; `begin` re-sizes).
/// Checkout order has no effect on results — the generation stamp makes any
/// scratch state equivalent — so determinism is untouched.
#[derive(Debug)]
pub struct ScratchPool {
    slots: Vec<std::sync::Mutex<Vec<NeighborScratch>>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchPool {
    /// An empty pool; scratches are created on first checkout.
    pub fn new() -> Self {
        Self {
            slots: (0..SCRATCH_SLOTS)
                .map(|_| std::sync::Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The process-global pool — the arena the resident workers keep warm
    /// for the lifetime of the process. Prefer this over per-phase pools so
    /// buffers survive phase transitions.
    pub fn global() -> &'static ScratchPool {
        static GLOBAL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ScratchPool::new)
    }

    /// The slot owned by the executing thread.
    fn slot(&self) -> &std::sync::Mutex<Vec<NeighborScratch>> {
        let idx = match rayon::current_worker_index() {
            Some(i) => 1 + i % (self.slots.len() - 1),
            None => 0,
        };
        &self.slots[idx]
    }

    /// Checks a scratch out of the executing worker's slot (creating one if
    /// the slot is dry). The guard returns it to the same slot on drop.
    pub fn take(&self) -> PooledScratch<'_> {
        let slot = self.slot();
        let scratch = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        PooledScratch { scratch, slot }
    }
}

/// A checked-out [`NeighborScratch`]; derefs to the scratch and returns it
/// to its worker's [`ScratchPool`] slot on drop.
#[derive(Debug)]
pub struct PooledScratch<'a> {
    scratch: NeighborScratch,
    slot: &'a std::sync::Mutex<Vec<NeighborScratch>>,
}

impl std::ops::Deref for PooledScratch<'_> {
    type Target = NeighborScratch;
    fn deref(&self) -> &NeighborScratch {
        &self.scratch
    }
}

impl std::ops::DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut NeighborScratch {
        &mut self.scratch
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        self.slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(std::mem::take(&mut self.scratch));
    }
}

/// Inputs to one vertex's migration decision.
#[derive(Clone, Copy, Debug)]
pub struct MoveContext {
    /// The vertex's current community.
    pub current: Community,
    /// `k_i`, the vertex's weighted degree.
    pub k: f64,
    /// `m`, the graph's total weight.
    pub m: f64,
    /// Resolution parameter γ (1.0 = paper's Eq. 4).
    pub gamma: f64,
}

/// The outcome of a migration decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveDecision {
    /// Chosen community (may equal the current one).
    pub target: Community,
    /// Modularity gain of moving there (Eq. 4); 0 when staying.
    pub gain: f64,
    /// `e_{i→C(i)∖{i}}` — weight to current co-members (found during the
    /// scan; feeds [`ModularityTracker::apply_move`] without a re-scan).
    pub e_src: f64,
    /// `e_{i→target}`; equals `e_src` when staying.
    pub e_tgt: f64,
}

/// Evaluates Eq. 4 over the candidate communities (any order) and returns
/// the target per Eq. 5 with the paper's **generalized minimum-label
/// heuristic**: among equal-gain maxima, the smallest community label wins
/// (§5.1). `a_of` maps a community label to its current degree `a_C`.
///
/// The gain of moving `i` from `C(i)` to `C(j)` (Eq. 4) is, with
/// `a_src' = a_{C(i)} − k_i`:
/// `ΔQ = (e_{i→C(j)} − e_{i→C(i)∖{i}})/m + 2·k_i·(a_src' − a_{C(j)})/(2m)²`.
/// Staying (`C(j) = C(i)`) evaluates to exactly 0 by construction.
///
/// The tie-break is order-independent: each candidate's gain is the same
/// float expression whatever the scan order, so comparing `(gain, label)`
/// pairs selects the same target the historical sorted-ascending scan did.
pub fn best_move(
    ctx: &MoveContext,
    candidates: &[(Community, f64)],
    a_of: impl Fn(Community) -> f64,
) -> MoveDecision {
    // e_{i→C(i)∖{i}}: weight to co-members, excluding the self-loop.
    let e_src = candidates
        .iter()
        .find(|&&(c, _)| c == ctx.current)
        .map(|&(_, w)| w)
        .unwrap_or(0.0);
    best_move_with_src(ctx, candidates, e_src, a_of)
}

/// [`best_move`] with `e_src = e_{i→C(i)∖{i}}` supplied by the caller —
/// the sweeps read it from the gather scratch in O(1)
/// ([`NeighborScratch::weight_to`]) instead of re-scanning the candidate
/// list. Decision arithmetic is identical to [`best_move`].
pub fn best_move_with_src(
    ctx: &MoveContext,
    candidates: &[(Community, f64)],
    e_src: f64,
    a_of: impl Fn(Community) -> f64,
) -> MoveDecision {
    let two_m = 2.0 * ctx.m;
    let a_src_without = a_of(ctx.current) - ctx.k;
    // Hoist the two divisions out of the candidate loop (the loop body runs
    // once per adjacent community per vertex per iteration — the hottest
    // arithmetic in the codebase).
    let inv_m = 1.0 / ctx.m;
    let null_factor = ctx.gamma * 2.0 * ctx.k / (two_m * two_m);

    let mut best = MoveDecision {
        target: ctx.current,
        gain: 0.0,
        e_src,
        e_tgt: e_src,
    };
    for &(c, e_c) in candidates {
        if c == ctx.current {
            continue;
        }
        let gain = (e_c - e_src) * inv_m + null_factor * (a_src_without - a_of(c));
        // Strictly better gain wins; an exactly equal gain wins only with a
        // smaller label (minimum-label heuristic). Staying keeps priority at
        // gain 0: a non-current `best` only ever holds gain > 0.
        if gain > best.gain || (gain == best.gain && best.target != ctx.current && c < best.target)
        {
            best = MoveDecision {
                target: c,
                gain,
                e_src,
                e_tgt: e_c,
            };
        }
    }
    best
}

/// Incrementally maintained modularity state for one phase:
/// `e_in = Σ_i e_{i→C(i)}` and `null_sum = Σ_C a_C²`, with
/// `Q = e_in/2m − γ·null_sum/(2m)²`.
///
/// The full O(m)+O(n) rescan happens once at construction; afterwards every
/// committed move updates both terms in O(1) (plus O(deg) for the parallel
/// batch's `e_in` correction), in an order that does not depend on the
/// thread count.
#[derive(Clone, Debug)]
pub struct ModularityTracker {
    /// `Σ_i e_{i→C(i)}` (every intra adjacency entry, self-loops once).
    pub e_in: f64,
    /// `Σ_C a_C²`.
    pub null_sum: f64,
    two_m: f64,
    gamma: f64,
}

impl ModularityTracker {
    /// Full-scan initialization (parallel, deterministic reductions).
    pub fn new(g: &CsrGraph, assignment: &[Community], a: &[f64], gamma: f64) -> Self {
        let e_in = intra_community_weight(g, assignment);
        let null_sum = det_sum(a.len(), |c| a[c] * a[c]);
        Self {
            e_in,
            null_sum,
            two_m: 2.0 * g.total_weight(),
            gamma,
        }
    }

    /// Full-scan initialization with plain loops — for the serial scheme,
    /// which must never touch the rayon pool.
    pub fn new_serial(g: &CsrGraph, assignment: &[Community], a: &[f64], gamma: f64) -> Self {
        let mut e_in = 0.0f64;
        for v in 0..g.num_vertices() as VertexId {
            let cv = assignment[v as usize];
            for (u, w) in g.neighbors(v) {
                if assignment[u as usize] == cv {
                    e_in += w;
                }
            }
        }
        let mut null_sum = 0.0f64;
        for &ac in a {
            null_sum += ac * ac;
        }
        Self {
            e_in,
            null_sum,
            two_m: 2.0 * g.total_weight(),
            gamma,
        }
    }

    /// Assembles a tracker from externally accumulated sums — for callers
    /// that already hold `Σ e_{i→C(i)}` and `Σ a_C²` (e.g. the refinement
    /// pass, which accumulates both during its component traversal) and
    /// must not pay another full rescan.
    pub fn from_parts(g: &CsrGraph, e_in: f64, null_sum: f64, gamma: f64) -> Self {
        Self {
            e_in,
            null_sum,
            two_m: 2.0 * g.total_weight(),
            gamma,
        }
    }

    /// Current modularity, O(1).
    #[inline]
    pub fn modularity(&self) -> f64 {
        self.e_in / self.two_m - self.gamma * self.null_sum / (self.two_m * self.two_m)
    }

    /// The resolution γ this tracker's modularity is measured at.
    #[inline]
    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Moves weighted degree `k` from community `from` to `to`, updating
    /// `a` in place and `null_sum = Σ a_C²` by the exact difference — the
    /// shared accounting core of [`Self::apply_move`] and
    /// [`Self::apply_batch`].
    #[inline]
    fn transfer_degree(&mut self, k: f64, from: Community, to: Community, a: &mut [f64]) {
        // A no-op "move" would double-write a[from] and corrupt null_sum.
        debug_assert_ne!(from, to, "transfer_degree requires from != to");
        let a_from = a[from as usize];
        let a_to = a[to as usize];
        self.null_sum +=
            (a_from - k) * (a_from - k) - a_from * a_from + (a_to + k) * (a_to + k) - a_to * a_to;
        a[from as usize] = a_from - k;
        a[to as usize] = a_to + k;
    }

    /// Applies one immediately-committed move (the serial sweep): `v` with
    /// degree `k` leaves `from` for `to`, where `e_src = e_{v→from∖{v}}` and
    /// `e_tgt = e_{v→to}` come from the gather that produced the decision.
    /// Updates `a` in place.
    #[inline]
    pub fn apply_move(
        &mut self,
        k: f64,
        e_src: f64,
        e_tgt: f64,
        from: Community,
        to: Community,
        a: &mut [f64],
    ) {
        // Both directions of every (v, co-member) edge enter/leave e_in.
        self.e_in += 2.0 * (e_tgt - e_src);
        self.transfer_degree(k, from, to, a);
    }

    /// Applies one parallel iteration's batch of simultaneous moves.
    ///
    /// `moved` lists the vertices with `c_prev[v] != c_curr[v]` in ascending
    /// vertex order. An adjacency entry `(x → y)` contributes to `e_in` iff
    /// `C(x) == C(y)`, so only entries incident to a moved vertex can
    /// change. Scanning the moved vertices visits `(v → u)` once from `v`;
    /// the mirrored entry `(u → v)` is visited by `u`'s own scan when `u`
    /// also moved, and accounted with a factor of two otherwise. The
    /// reduction is a [`det_sum`] over the moved list and the `a`/`null_sum`
    /// updates run sequentially in list order, so the result is bitwise
    /// independent of the thread count. Cost: O(Σ deg(moved)), which decays
    /// with the move count instead of staying at O(m).
    pub fn apply_batch(
        &mut self,
        g: &CsrGraph,
        c_prev: &[Community],
        c_curr: &[Community],
        moved: &[VertexId],
        a: &mut [f64],
        sizes: &mut [u32],
    ) {
        let delta = det_sum(moved.len(), |i| {
            let v = moved[i];
            let pv = c_prev[v as usize];
            let cv = c_curr[v as usize];
            let mut acc = 0.0;
            for (u, w) in g.neighbors(v) {
                if u == v {
                    continue; // a self-loop is always intra
                }
                let pu = c_prev[u as usize];
                let cu = c_curr[u as usize];
                let change = (cu == cv) as i32 - (pu == pv) as i32;
                if change != 0 {
                    // If u also moved it will account for (u → v) itself;
                    // otherwise v accounts for both directions.
                    let factor = if pu != cu { 1.0 } else { 2.0 };
                    acc += factor * change as f64 * w;
                }
            }
            acc
        });
        self.e_in += delta;
        for &v in moved {
            let from = c_prev[v as usize];
            let to = c_curr[v as usize];
            self.transfer_degree(g.weighted_degree(v), from, to, a);
            sizes[from as usize] -= 1;
            sizes[to as usize] += 1;
        }
    }

    /// Applies one color batch's moves — the colored sweep's barrier commit.
    ///
    /// Precondition: the movers form an **independent set** (no two movers
    /// adjacent — guaranteed when all come from one distance-1 color class),
    /// so each mover's `e_src`/`e_tgt`, captured from the gather that
    /// produced its decision, is still exact at commit time: none of its
    /// neighbors changed community within the batch. Each `(v, co-member)`
    /// edge therefore enters/leaves `e_in` with a factor of exactly 2 and no
    /// double counting between movers.
    ///
    /// Determinism: the per-move `e_in` deltas are reduced through
    /// [`det_sum`] — parallel partials combined left-to-right in fixed chunk
    /// order — and the `a`/`null_sum`/`sizes` updates run sequentially in
    /// `moves` order (ascending vertex order when the caller commits a color
    /// batch). Cost: O(#moves), replacing the colored phase's historical
    /// O(m) full rescan.
    pub fn apply_independent_batch(
        &mut self,
        moves: &[IndependentMove],
        a: &mut [f64],
        sizes: &mut [u32],
    ) {
        self.e_in += det_sum(moves.len(), |i| 2.0 * (moves[i].e_tgt - moves[i].e_src));
        for mv in moves {
            self.transfer_degree(mv.k, mv.from, mv.to, a);
            sizes[mv.from as usize] -= 1;
            sizes[mv.to as usize] += 1;
        }
    }

    /// Absolute deviation of the tracked modularity from a full O(m) + O(n)
    /// recomputation — the debug-assert cross-check that replaced the
    /// per-iteration rescan on the hot path.
    pub fn drift_from_full(&self, g: &CsrGraph, assignment: &[Community]) -> f64 {
        (self.modularity() - modularity_with_resolution(g, assignment, self.gamma)).abs()
    }
}

/// One committed move of a color batch, as consumed by
/// [`ModularityTracker::apply_independent_batch`]: vertex of weighted degree
/// `k` leaves `from` for `to`, with `e_src = e_{v→from∖{v}}` and
/// `e_tgt = e_{v→to}` captured from the decision's gather.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndependentMove {
    /// The mover's weighted degree `k_v`.
    pub k: f64,
    /// Weight from the mover to its old co-members (self-loop excluded).
    pub e_src: f64,
    /// Weight from the mover to the target community's members.
    pub e_tgt: f64,
    /// Community the mover leaves.
    pub from: Community,
    /// Community the mover joins.
    pub to: Community,
}

/// Tolerance for the incremental-vs-full debug cross-checks: fp drift of the
/// incremental sums stays many orders of magnitude below any modularity
/// difference the convergence thresholds (≥ 1e-6) can act on.
pub const TRACKER_DRIFT_TOLERANCE: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::{from_unweighted_edges, from_weighted_edges};

    fn two_triangles() -> CsrGraph {
        // Two triangles joined by one bridge: the canonical Q = 10/28 ≈ 0.357
        // example (for the 2-community partition).
        from_unweighted_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]).unwrap()
    }

    #[test]
    fn modularity_two_triangles_exact() {
        let g = two_triangles();
        let part = vec![0, 0, 0, 1, 1, 1];
        // m=7; e_in = 2*(3+3)=12; Σ(a/2m)^2 = (7/14)^2 * 2 = 0.5
        // Q = 12/14 - 0.5 = 0.357142857…
        let q = modularity(&g, &part);
        assert!((q - (12.0 / 14.0 - 0.5)).abs() < 1e-12, "{q}");
    }

    #[test]
    fn singletons_modularity() {
        let g = two_triangles();
        let part: Vec<u32> = (0..6).collect();
        // e_in = 0; Q = -Σ (k_i/2m)^2.
        let expected: f64 = -(0..6)
            .map(|v| {
                let k = g.weighted_degree(v);
                (k / 14.0) * (k / 14.0)
            })
            .sum::<f64>();
        assert!((modularity(&g, &part) - expected).abs() < 1e-12);
    }

    #[test]
    fn all_in_one_community_zero() {
        // With everything in one community, Q = 2m/2m − (2m/2m)² = 0.
        let g = two_triangles();
        let part = vec![0u32; 6];
        assert!((modularity(&g, &part)).abs() < 1e-12);
    }

    #[test]
    fn self_loop_counts_once_in_e_in() {
        let g = from_weighted_edges(2, [(0, 1, 1.0), (0, 0, 2.0)]).unwrap();
        // One community: e_in = 2*1 + 2 = 4 = 2m → Q = 1 − 1 = 0.
        assert!((modularity(&g, &[0, 0])).abs() < 1e-12);
        // Separate: e_in = loop only = 2. m = 2. k0 = 3, k1 = 1.
        let q = modularity(&g, &[0, 1]);
        let expect = 2.0 / 4.0 - ((3.0 / 4.0f64).powi(2) + (1.0 / 4.0f64).powi(2));
        assert!((q - expect).abs() < 1e-12);
    }

    #[test]
    fn resolution_extremes() {
        let g = two_triangles();
        let split = vec![0, 0, 0, 1, 1, 1];
        let merged = vec![0u32; 6];
        // γ = 0: only intra weight matters → merged (everything intra) wins.
        let q0_split = modularity_with_resolution(&g, &split, 0.0);
        let q0_merged = modularity_with_resolution(&g, &merged, 0.0);
        assert!(q0_merged > q0_split);
        // γ large: null model dominates → split wins.
        let q9_split = modularity_with_resolution(&g, &split, 9.0);
        let q9_merged = modularity_with_resolution(&g, &merged, 9.0);
        assert!(q9_split > q9_merged);
    }

    #[test]
    fn community_degrees_and_sizes() {
        let g = two_triangles();
        let part = vec![0, 0, 0, 1, 1, 1];
        let a = community_degrees(&g, &part);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 7.0);
        assert_eq!(community_sizes(&part)[0], 3);
        let total: f64 = a.iter().sum();
        assert_eq!(total, 2.0 * g.total_weight());
    }

    #[test]
    fn det_sum_matches_serial() {
        let vals: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let serial: f64 = vals.iter().sum();
        let det = det_sum(vals.len(), |i| vals[i]);
        // det_sum chunks at 4096, so exact equality is not guaranteed vs the
        // fully-serial order, but it must be self-consistent and close.
        assert!((det - serial).abs() < 1e-9);
        assert_eq!(det, det_sum(vals.len(), |i| vals[i]));
    }

    #[test]
    fn det_sum_empty() {
        assert_eq!(det_sum(0, |_| 1.0), 0.0);
    }

    #[test]
    fn scratch_gathers_merged_first_touch_order() {
        let g =
            from_weighted_edges(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 4.0), (0, 0, 9.0)]).unwrap();
        let assignment = vec![5u32 % 4, 3, 3, 1]; // v1,v2 → comm 3; v3 → comm 1
        let mut s = NeighborScratch::default();
        s.gather(&g, &assignment, 0);
        // Self-loop excluded; comm 3 first touched (via v1, then v2 merges),
        // then comm 1 — first-touch order, weights merged in adjacency order.
        assert_eq!(s.entries, vec![(3, 3.0), (1, 4.0)]);
        // Reuse on another vertex resets cleanly.
        s.gather(&g, &assignment, 3);
        assert_eq!(s.entries, vec![(assignment[0], 4.0)]);
    }

    #[test]
    fn scratch_with_capacity_matches_default() {
        let g = two_triangles();
        let part = vec![0u32, 0, 1, 1, 2, 2];
        let mut lazy = NeighborScratch::default();
        let mut sized = NeighborScratch::with_capacity(g.num_vertices());
        for v in 0..6 {
            lazy.gather(&g, &part, v);
            sized.gather(&g, &part, v);
            assert_eq!(lazy.entries, sized.entries, "vertex {v}");
        }
    }

    #[test]
    fn best_move_prefers_positive_gain() {
        // Vertex 0 between two communities; candidate with more weight wins.
        let ctx = MoveContext {
            current: 0,
            k: 2.0,
            m: 10.0,
            gamma: 1.0,
        };
        let candidates = vec![(1u32, 1.0), (2u32, 2.0)];
        let a = |c: Community| match c {
            0 => 2.0,
            _ => 4.0,
        };
        let d = best_move(&ctx, &candidates, a);
        assert_eq!(d.target, 2);
        assert!(d.gain > 0.0);
    }

    #[test]
    fn best_move_min_label_tie_break_any_order() {
        // Two identical candidates — the generalized ML heuristic picks the
        // smaller label (§5.1, Fig. 2 case 2) regardless of candidate order.
        let ctx = MoveContext {
            current: 9,
            k: 1.0,
            m: 5.0,
            gamma: 1.0,
        };
        let a_of = |c: Community| if c == 9 { 1.0 } else { 2.0 };
        let d = best_move(&ctx, &[(3u32, 1.0), (7u32, 1.0)], a_of);
        assert_eq!(d.target, 3);
        let d_rev = best_move(&ctx, &[(7u32, 1.0), (3u32, 1.0)], a_of);
        assert_eq!(d_rev.target, 3, "tie-break must not depend on scan order");
        assert_eq!(d.gain, d_rev.gain);
    }

    #[test]
    fn best_move_stays_when_all_negative() {
        // Staying yields 0; an unattractive move must not be taken.
        let ctx = MoveContext {
            current: 0,
            k: 5.0,
            m: 10.0,
            gamma: 1.0,
        };
        // e_src = 4 (strong ties to own community), candidate weak.
        let candidates = vec![(0u32, 4.0), (1u32, 0.1)];
        let d = best_move(&ctx, &candidates, |c| if c == 0 { 10.0 } else { 8.0 });
        assert_eq!(d.target, 0);
        assert_eq!(d.gain, 0.0);
    }

    #[test]
    fn best_move_zero_gain_never_moves() {
        // A candidate whose gain is exactly 0 must lose to staying, even
        // with a smaller label (the tie clause guards on a non-current best).
        let ctx = MoveContext {
            current: 5,
            k: 0.0,
            m: 10.0,
            gamma: 1.0,
        };
        // k = 0 makes every gain term 0 when e_c == e_src == 0.
        let d = best_move(&ctx, &[(1u32, 0.0)], |_| 3.0);
        assert_eq!(d.target, 5);
    }

    #[test]
    fn gain_matches_modularity_delta() {
        // Brute-force check: predicted ΔQ equals Q(after) − Q(before) for a
        // single move on a small weighted graph (the guarantee §3 builds on).
        let g = from_weighted_edges(
            5,
            [
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 3.0),
                (3, 4, 1.5),
                (4, 0, 1.0),
                (1, 3, 2.5),
            ],
        )
        .unwrap();
        let before = vec![0u32, 0, 2, 2, 4];
        let q_before = modularity(&g, &before);
        // Move vertex 4 (currently alone) into community 2.
        let v: VertexId = 4;
        let mut scratch = NeighborScratch::default();
        scratch.gather(&g, &before, v);
        let a = community_degrees(&g, &before);
        let ctx = MoveContext {
            current: before[v as usize],
            k: g.weighted_degree(v),
            m: g.total_weight(),
            gamma: 1.0,
        };
        let decision = best_move(&ctx, &scratch.entries, |c| a[c as usize]);
        let mut after = before.clone();
        after[v as usize] = decision.target;
        let q_after = modularity(&g, &after);
        assert!(
            (q_after - q_before - decision.gain).abs() < 1e-12,
            "predicted {} actual {}",
            decision.gain,
            q_after - q_before
        );
    }

    #[test]
    fn tracker_apply_move_tracks_full_recompute() {
        let g = two_triangles();
        let mut assignment = vec![0u32, 0, 2, 2, 4, 5];
        let mut a = community_degrees(&g, &assignment);
        let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
        assert!(tracker.drift_from_full(&g, &assignment) < 1e-12);

        // Move vertex 4 into community 5, then vertex 5 into community 2.
        for (v, to) in [(4u32, 5u32), (5u32, 2u32)] {
            let mut scratch = NeighborScratch::default();
            scratch.gather(&g, &assignment, v);
            let from = assignment[v as usize];
            let e_src = scratch
                .entries
                .iter()
                .find(|&&(c, _)| c == from)
                .map_or(0.0, |&(_, w)| w);
            let e_tgt = scratch
                .entries
                .iter()
                .find(|&&(c, _)| c == to)
                .map_or(0.0, |&(_, w)| w);
            tracker.apply_move(g.weighted_degree(v), e_src, e_tgt, from, to, &mut a);
            assignment[v as usize] = to;
            assert!(
                tracker.drift_from_full(&g, &assignment) < 1e-12,
                "tracker drifted after moving {v}"
            );
        }
        assert_eq!(a, community_degrees(&g, &assignment));
    }

    #[test]
    fn tracker_apply_batch_handles_simultaneous_moves() {
        // Both endpoints of the bridge move at once plus an unrelated vertex
        // — exercises the moved/unmoved factor-of-two accounting.
        let g = two_triangles();
        let c_prev = vec![0u32, 0, 0, 1, 1, 1];
        let c_curr = vec![0u32, 0, 1, 0, 1, 4];
        let moved: Vec<VertexId> = vec![2, 3, 5];
        let mut a = community_degrees(&g, &c_prev);
        let mut sizes = community_sizes(&c_prev);
        let mut tracker = ModularityTracker::new(&g, &c_prev, &a, 1.0);
        tracker.apply_batch(&g, &c_prev, &c_curr, &moved, &mut a, &mut sizes);
        assert!(
            tracker.drift_from_full(&g, &c_curr) < 1e-12,
            "batch drift {}",
            tracker.drift_from_full(&g, &c_curr)
        );
        assert_eq!(a, community_degrees(&g, &c_curr));
        assert_eq!(sizes, community_sizes(&c_curr));
    }

    #[test]
    fn tracker_independent_batch_bitwise_matches_rescan() {
        // Vertices 1 and 4 are non-adjacent in the two-triangle graph, so
        // {1, 4} is an independent set and may commit as one color batch.
        // Integer weights make every sum exact, so the incremental state
        // must be *bitwise* equal to a from-scratch rescan.
        let g = two_triangles();
        let mut assignment = vec![0u32, 1, 2, 3, 4, 5];
        let mut a = community_degrees(&g, &assignment);
        let mut sizes = community_sizes(&assignment);
        let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);

        let mut scratch = NeighborScratch::default();
        let batch: Vec<(VertexId, Community)> = vec![(1, 0), (4, 3)];
        let mut moves = Vec::new();
        for &(v, to) in &batch {
            scratch.gather(&g, &assignment, v);
            let from = assignment[v as usize];
            let find = |c: Community| {
                scratch
                    .entries
                    .iter()
                    .find(|&&(cc, _)| cc == c)
                    .map_or(0.0, |&(_, w)| w)
            };
            moves.push(IndependentMove {
                k: g.weighted_degree(v),
                e_src: find(from),
                e_tgt: find(to),
                from,
                to,
            });
        }
        tracker.apply_independent_batch(&moves, &mut a, &mut sizes);
        for &(v, to) in &batch {
            assignment[v as usize] = to;
        }

        assert_eq!(a, community_degrees(&g, &assignment));
        assert_eq!(sizes, community_sizes(&assignment));
        let rescan = ModularityTracker::new(&g, &assignment, &a, 1.0);
        assert_eq!(tracker.e_in.to_bits(), rescan.e_in.to_bits());
        assert_eq!(tracker.null_sum.to_bits(), rescan.null_sum.to_bits());
        assert_eq!(
            tracker.modularity().to_bits(),
            rescan.modularity().to_bits()
        );
    }

    #[test]
    fn tracker_empty_independent_batch_is_noop() {
        let g = two_triangles();
        let assignment = vec![0u32, 0, 0, 1, 1, 1];
        let mut a = community_degrees(&g, &assignment);
        let mut sizes = community_sizes(&assignment);
        let mut tracker = ModularityTracker::new(&g, &assignment, &a, 1.0);
        let before = (tracker.e_in.to_bits(), tracker.null_sum.to_bits());
        tracker.apply_independent_batch(&[], &mut a, &mut sizes);
        assert_eq!((tracker.e_in.to_bits(), tracker.null_sum.to_bits()), before);
    }

    #[test]
    fn tracker_serial_init_matches_parallel_init() {
        let g = two_triangles();
        let assignment = vec![0u32, 0, 0, 1, 1, 1];
        let a = community_degrees(&g, &assignment);
        let p = ModularityTracker::new(&g, &assignment, &a, 1.0);
        let s = ModularityTracker::new_serial(&g, &assignment, &a, 1.0);
        assert!((p.e_in - s.e_in).abs() < 1e-12);
        assert!((p.null_sum - s.null_sum).abs() < 1e-12);
        assert!((p.modularity() - modularity(&g, &assignment)).abs() < 1e-12);
    }
}
