//! Golden trajectories: the exact path every phase variant walks on two
//! small seeded inputs, pinned to recorded hashes.
//!
//! The differential and stability properties in `properties.rs` compare
//! variants with each other or across thread counts. An edit that shifts
//! every variant the same way — a reordered float sum in the shared move
//! kernel, a different gate test, an off-by-one in the iteration driver —
//! passes all of them. These tests pin absolute trajectories instead: for
//! each [`PhaseOutcome`] the hash covers the assignment, every per-iteration
//! `(Q bits, moves)` record, every [`IterationStats`], the final Q bits and
//! the [`RefineStats`]; for the incremental update chains it covers every
//! step's carried assignment, Q bits and counters.
//!
//! The matrix is serial / unordered / colored × full / active sweeps ×
//! fixed / geometric schedules × no / Leiden refinement on a planted
//! partition and an RMAT graph, plus a three-batch `update_communities`
//! chain on each of a planted partition and that RMAT graph. The planted
//! inputs carry real-valued weights: with integer weights every float sum
//! is exact in any order, so a reordered sum could not show up in the
//! hashes. A mismatch panics with every differing line, formatted so it can
//! replace the table entry once a behavior change is intended.

use grappolo::core::{update_communities, Community, IterationStats};
use grappolo::graph::EdgeDelta;
use grappolo::prelude::*;

/// FNV-1a (64-bit) over little-endian words: tiny, dependency-free, and
/// stable across Rust releases (unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn labels(&mut self, labels: &[Community]) {
        self.word(labels.len() as u64);
        for &c in labels {
            self.word(c as u64);
        }
    }
}

fn stats_hash(h: &mut Fnv, s: &IterationStats) {
    h.float(s.gate);
    h.word(s.frontier as u64);
    h.word(s.converged as u64);
}

fn refine_hash(h: &mut Fnv, r: &RefineStats) {
    for x in [
        r.parents,
        r.split_parents,
        r.sub_communities,
        r.absorbed,
        r.polished,
        r.passes,
    ] {
        h.word(x as u64);
    }
    h.float(r.pre_modularity);
    h.float(r.refined_modularity);
}

fn outcome_hash(out: &PhaseOutcome) -> u64 {
    let mut h = Fnv::new();
    h.labels(&out.assignment);
    h.word(out.iterations.len() as u64);
    for &(q, moves) in &out.iterations {
        h.float(q);
        h.word(moves as u64);
    }
    h.word(out.stats.len() as u64);
    for s in &out.stats {
        stats_hash(&mut h, s);
    }
    h.float(out.final_modularity);
    match &out.refinement {
        None => h.word(0),
        Some(r) => {
            h.word(1);
            refine_hash(&mut h, r);
        }
    }
    h.0
}

fn inputs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "planted",
            planted_partition(&PlantedConfig {
                num_vertices: 1_500,
                num_communities: 15,
                weight_range: Some((0.5, 2.0)),
                seed: 21,
                ..Default::default()
            })
            .0,
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 10,
                num_edges: 8_000,
                seed: 22,
                ..Default::default()
            }),
        ),
    ]
}

/// Compares `actual` against the recorded table and reports every
/// difference at once, in table syntax.
fn assert_table(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let mut diffs = Vec::new();
    for (name, hash) in actual {
        match expected.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == *hash => {}
            _ => diffs.push(format!("(\"{name}\", {hash:#018x}),")),
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} trajectories changed:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n")
    );
    assert_eq!(
        actual.len(),
        expected.len(),
        "table covers a different matrix"
    );
}

/// Hashes recorded before the local-moving engine was unified; every phase
/// variant must still walk exactly these trajectories.
const PHASE_TRAJECTORIES: &[(&str, u64)] = &[
    ("planted/serial/Full/fixed/None", 0x133556a9deab7dd9),
    ("planted/serial/Full/fixed/Leiden", 0x45d198764f8c7c94),
    ("planted/serial/Full/geometric/None", 0xf94ca84707be7955),
    ("planted/serial/Full/geometric/Leiden", 0xf44c60117e3fe818),
    ("planted/serial/Active/fixed/None", 0x88048ae67fddfe25),
    ("planted/serial/Active/fixed/Leiden", 0x5cb1b1100a3718e4),
    ("planted/serial/Active/geometric/None", 0x660c3dd58a0223a2),
    ("planted/serial/Active/geometric/Leiden", 0xac33e93e701cfc33),
    ("planted/unordered/Full/fixed/None", 0xcc33e5c395727188),
    ("planted/unordered/Full/fixed/Leiden", 0x94c922294ce0431a),
    ("planted/unordered/Full/geometric/None", 0xea30ea276848999f),
    (
        "planted/unordered/Full/geometric/Leiden",
        0x6b7920739a0e7b9c,
    ),
    ("planted/unordered/Active/fixed/None", 0xe7985563bbe752da),
    ("planted/unordered/Active/fixed/Leiden", 0x61b9998f96cf52bc),
    (
        "planted/unordered/Active/geometric/None",
        0x2c4929a613b6a0ab,
    ),
    (
        "planted/unordered/Active/geometric/Leiden",
        0x42f66e9763a3dc0c,
    ),
    ("planted/colored/Full/fixed/None", 0xc002516299f7051b),
    ("planted/colored/Full/fixed/Leiden", 0x7e1fb58a97c6979b),
    ("planted/colored/Full/geometric/None", 0x83c1a2c9490828f8),
    ("planted/colored/Full/geometric/Leiden", 0xce36199b9b381d1a),
    ("planted/colored/Active/fixed/None", 0x37e3769403cab052),
    ("planted/colored/Active/fixed/Leiden", 0x7d26a2e326c35222),
    ("planted/colored/Active/geometric/None", 0xe6be126fb9a210fe),
    (
        "planted/colored/Active/geometric/Leiden",
        0xe7977c7040650988,
    ),
    ("rmat/serial/Full/fixed/None", 0x7d36d809d0306cf3),
    ("rmat/serial/Full/fixed/Leiden", 0xf91f38e0ce2f58df),
    ("rmat/serial/Full/geometric/None", 0x7f2b82294e709a4f),
    ("rmat/serial/Full/geometric/Leiden", 0x95490f0c5116dd98),
    ("rmat/serial/Active/fixed/None", 0x47277c2674fe8f45),
    ("rmat/serial/Active/fixed/Leiden", 0x35376dd498704999),
    ("rmat/serial/Active/geometric/None", 0xf8c1ed7a55531da7),
    ("rmat/serial/Active/geometric/Leiden", 0xc9d95d0cc4e8cb20),
    ("rmat/unordered/Full/fixed/None", 0x5a90a153ff097ebd),
    ("rmat/unordered/Full/fixed/Leiden", 0x5ebee6ebfed69e94),
    ("rmat/unordered/Full/geometric/None", 0x6d50e58132ada6f3),
    ("rmat/unordered/Full/geometric/Leiden", 0x67e6edc2ee7aeffc),
    ("rmat/unordered/Active/fixed/None", 0x5a90a153ff097ebd),
    ("rmat/unordered/Active/fixed/Leiden", 0x5ebee6ebfed69e94),
    ("rmat/unordered/Active/geometric/None", 0x6d50e58132ada6f3),
    ("rmat/unordered/Active/geometric/Leiden", 0x67e6edc2ee7aeffc),
    ("rmat/colored/Full/fixed/None", 0x5e0128310749c9c3),
    ("rmat/colored/Full/fixed/Leiden", 0xed14adafb94723ec),
    ("rmat/colored/Full/geometric/None", 0x1e30dfcab914ed32),
    ("rmat/colored/Full/geometric/Leiden", 0x3e096afa7693b062),
    ("rmat/colored/Active/fixed/None", 0xa21e6f91a49e63ca),
    ("rmat/colored/Active/fixed/Leiden", 0x5a31553335f24006),
    ("rmat/colored/Active/geometric/None", 0xccbce7c2b70726a0),
    ("rmat/colored/Active/geometric/Leiden", 0xcee8a391c0a8c4d0),
];

#[test]
fn phase_trajectories_match_recorded_hashes() {
    let mut actual = Vec::new();
    for (graph, g) in inputs() {
        let batches = ColorBatches::from_coloring(&color_greedy_serial(&g));
        for scheme in ["serial", "unordered", "colored"] {
            for sweep in [SweepMode::Full, SweepMode::Active] {
                for schedule in ["fixed", "geometric"] {
                    for refine in [RefineMode::None, RefineMode::Leiden] {
                        let config = LouvainConfig {
                            parallel: scheme != "serial",
                            sweep_mode: sweep,
                            schedule: match schedule {
                                "fixed" => ScheduleSpec::Fixed,
                                _ => ScheduleSpec::Geometric,
                            },
                            refine,
                            ..LouvainConfig::default()
                        };
                        let driver = PhaseDriver::from_config(&config, config.final_threshold);
                        let out = match scheme {
                            "colored" => driver.run_colored(&g, &batches),
                            _ => driver.run(&g),
                        };
                        let name = format!("{graph}/{scheme}/{sweep:?}/{schedule}/{refine:?}");
                        actual.push((name, outcome_hash(&out)));
                    }
                }
            }
        }
    }
    assert_table(&actual, PHASE_TRAJECTORIES);
}

/// Deterministic batch: delete every `stride`-th undirected edge, reweight
/// the next one, and insert `inserts` LCG-picked new edges.
fn batch(g: &CsrGraph, stride: usize, inserts: usize, salt: u64) -> Vec<EdgeDelta> {
    let mut out = Vec::new();
    for (i, (u, v, w)) in g.undirected_edges().enumerate() {
        match i % stride {
            0 => out.push(EdgeDelta::Delete { u, v }),
            1 => out.push(EdgeDelta::Reweight {
                u,
                v,
                weight: w + 0.5,
            }),
            _ => {}
        }
    }
    let n = g.num_vertices() as u64;
    let mut s = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut next = || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((s >> 33) % n) as VertexId
    };
    let mut added = 0;
    while added < inserts {
        let (u, v) = (next(), next());
        if u != v && !g.has_edge(u, v) {
            out.push(EdgeDelta::Insert { u, v, weight: 1.0 });
            added += 1;
        }
    }
    out
}

/// Hashes of two detect → three-batch `update_communities` chains, one on a
/// planted partition and one on the matrix's RMAT input. The planted rows
/// were recorded before the local-moving engine was unified, and read the
/// same whether a resumed iteration commits as one snapshot or screens in
/// parallel and commits in one immediate pass. The RMAT rows were recorded
/// with the screened immediate pass: there the resumed frontier holds hubs
/// and their neighbors, and a snapshot commit walks another trajectory, so
/// these rows pin the resume's commit.
const UPDATE_CHAIN: &[(&str, u64)] = &[
    ("update/0", 0x867dba72c9ab3ef8),
    ("update/1", 0x3bfd490cdaa61a5b),
    ("update/2", 0x51a2acb1121c362f),
    ("update/rmat/0", 0x4bad16714fbd1083),
    ("update/rmat/1", 0xa7c877f1bdde27a8),
    ("update/rmat/2", 0xedd807f9d91b0864),
];

#[test]
fn update_chain_trajectory_matches_recorded_hashes() {
    let planted = planted_partition(&PlantedConfig {
        num_vertices: 1_500,
        num_communities: 15,
        weight_range: Some((0.5, 2.0)),
        seed: 23,
        ..Default::default()
    })
    .0;
    let rmat = inputs().pop().unwrap().1;
    let config = LouvainConfig::builder()
        .sweep(SweepMode::Active)
        .build()
        .unwrap();
    let mut actual = Vec::new();
    for (chain, g) in [("update", planted), ("update/rmat", rmat)] {
        let start = detect_communities(&g, &config);
        let mut graph = g;
        let mut assignment = start.assignment;
        let mut q = start.modularity;
        for step in 0..3u64 {
            let b = batch(&graph, 97, 12, step);
            let out = update_communities(&graph, &assignment, Some(q), &b, &config).unwrap();
            let mut h = Fnv::new();
            h.labels(&out.assignment);
            h.float(out.modularity);
            for x in [
                out.num_communities,
                out.iterations,
                out.changed_edges,
                out.seed_vertices,
                out.fell_back as usize,
                out.graph.num_vertices(),
                out.graph.num_edges(),
            ] {
                h.word(x as u64);
            }
            actual.push((format!("{chain}/{step}"), h.0));
            graph = out.graph;
            assignment = out.assignment;
            q = out.modularity;
        }
    }
    assert_table(&actual, UPDATE_CHAIN);
}
