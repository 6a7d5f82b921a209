//! Seeded update-batch chains. Every batch is valid against the graph left
//! by all earlier batches: deletes and reweights name distinct edges that
//! exist at that point, inserts of an existing edge merge by `Sum`.

use grappolo_graph::{CsrGraph, VertexId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt::Write as _;

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The live edge set the chain is drawn from: non-loop edges with O(1)
/// sampling, lookup and removal.
struct EdgeSet {
    edges: Vec<(VertexId, VertexId, f64)>,
    index: FxHashMap<(VertexId, VertexId), usize>,
}

impl EdgeSet {
    fn from_graph(g: &CsrGraph) -> Self {
        let edges: Vec<_> = g.undirected_edges().filter(|&(u, v, _)| u != v).collect();
        let index = edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, _))| ((u, v), i))
            .collect();
        Self { edges, index }
    }

    fn remove(&mut self, i: usize) {
        let (u, v, _) = self.edges.swap_remove(i);
        self.index.remove(&(u, v));
        if let Some(&(a, b, _)) = self.edges.get(i) {
            self.index.insert((a, b), i);
        }
    }
}

/// Generates `count` batches of `ops` deltas each (a third deletes, a third
/// reweights, the rest inserts) and returns them as batch-file texts.
pub fn generate(g: &CsrGraph, seed: u64, count: usize, ops: usize) -> Vec<String> {
    let n = g.num_vertices();
    assert!(n >= 2, "the chain needs at least two vertices");
    let mut rng = Rng::new(seed);
    let mut set = EdgeSet::from_graph(g);
    let deletes = ops / 3;
    let reweights = ops / 3;
    let inserts = ops - deletes - reweights;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut text = String::new();
        let mut touched: FxHashSet<(VertexId, VertexId)> = FxHashSet::default();
        for _ in 0..deletes.min(set.edges.len() / 2) {
            let i = rng.below(set.edges.len());
            let (u, v, _) = set.edges[i];
            set.remove(i);
            touched.insert((u, v));
            let _ = writeln!(text, "- {u} {v}");
        }
        let mut done = 0;
        let mut tries = 0;
        while done < reweights && tries < 20 * ops && !set.edges.is_empty() {
            tries += 1;
            let i = rng.below(set.edges.len());
            let (u, v, w) = set.edges[i];
            if !touched.insert((u, v)) {
                continue;
            }
            let w_new = [0.5, 2.0, 3.0][rng.below(3)];
            let w_new = if w_new == w { w + 1.0 } else { w_new };
            set.edges[i].2 = w_new;
            let _ = writeln!(text, "= {u} {v} {w_new}");
            done += 1;
        }
        let mut done = 0;
        let mut tries = 0;
        while done < inserts && tries < 20 * ops {
            tries += 1;
            let (a, b) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
            let (u, v) = (a.min(b), a.max(b));
            if u == v || !touched.insert((u, v)) {
                continue;
            }
            match set.index.get(&(u, v)) {
                Some(&i) => set.edges[i].2 += 1.0,
                None => {
                    set.index.insert((u, v), set.edges.len());
                    set.edges.push((u, v, 1.0));
                }
            }
            let _ = writeln!(text, "+ {u} {v} 1");
            done += 1;
        }
        out.push(text);
    }
    out
}
