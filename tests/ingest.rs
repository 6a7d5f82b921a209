//! Integration tests for the ingest pipeline: the parallel CSR builder
//! (bitwise-equal to the sort-based oracle at every thread count) and the
//! `.grb` binary graph format, end to end through the umbrella crate's
//! public API.

use grappolo::graph::gen::{rmat, web_graph, RmatConfig, WebConfig};
use grappolo::graph::{io, CsrGraph, GraphBuilder, VertexId};
use rayon::ThreadPoolBuilder;

type EdgeList = Vec<(VertexId, VertexId, f64)>;

fn bitwise_equal(a: &CsrGraph, b: &CsrGraph) -> bool {
    a.bitwise_eq(b)
}

/// A generated edge list big enough to cut into several build tasks and
/// nasty enough (duplicates, self-loops, skewed degrees) to exercise every
/// stage of the build.
fn skewed_edges() -> (usize, EdgeList) {
    let g = rmat(&RmatConfig {
        scale: 13,
        num_edges: 60_000,
        seed: 9,
        ..Default::default()
    });
    let mut edges: Vec<(VertexId, VertexId, f64)> = g.undirected_edges().collect();
    // Re-add a slice of reversed duplicates and some self-loops so the merge
    // stage has real work.
    let dups: Vec<_> = edges
        .iter()
        .take(5_000)
        .map(|&(u, v, w)| (v, u, w * 0.5))
        .collect();
    edges.extend(dups);
    for v in 0..64 {
        edges.push((v, v, 2.0));
    }
    (g.num_vertices(), edges)
}

#[test]
fn parallel_ingest_bitwise_deterministic_across_thread_counts() {
    let (n, edges) = skewed_edges();
    let mut permuted = edges.clone();
    let mut state = 3u64;
    for i in (1..permuted.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        permuted.swap(i, (state >> 33) as usize % (i + 1));
    }
    let inputs: Vec<(&str, usize, EdgeList)> = vec![
        ("skewed", n, edges.clone()),
        ("permuted", n, permuted),
        ("under 16 384 edges", n, edges[..10_000].to_vec()),
        // 2 000 edges over 8 192 ids: n > 4m.
        ("n > 4m", n, edges[..2_000].to_vec()),
        ("no edges", n, Vec::new()),
        (
            "self-loops only",
            n,
            edges.iter().map(|&(u, _, w)| (u, u, w)).collect(),
        ),
    ];
    let pools: Vec<(usize, rayon::ThreadPool)> = [1usize, 2, 3, 8, 16]
        .into_iter()
        .map(|t| (t, ThreadPoolBuilder::new().num_threads(t).build().unwrap()))
        .collect();
    for (name, n, edges) in &inputs {
        let input =
            || GraphBuilder::with_capacity(*n, edges.len()).extend_edges(edges.iter().copied());
        let serial = input().build_serial().unwrap();
        assert!(serial.validate().is_ok(), "{name}");
        for (threads, pool) in &pools {
            let parallel = pool.install(|| input().build().unwrap());
            assert!(
                bitwise_equal(&serial, &parallel),
                "{name}: parallel build diverged from serial at {threads} threads"
            );
        }
    }
}

#[test]
fn grb_cache_round_trip_preserves_detection_input() {
    // Web-like graph → .grb → load: the reloaded CSR must be bitwise equal,
    // so any downstream community detection sees the identical input.
    let (g, _truth) = web_graph(&WebConfig {
        num_vertices: 4_000,
        ..Default::default()
    });
    let dir = std::env::temp_dir().join("grappolo_ingest_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("web.grb");
    io::save_path(&g, &path).unwrap();
    let reloaded = io::load_path(&path).unwrap();
    assert!(bitwise_equal(&g, &reloaded));
}

#[test]
fn grb_of_parallel_build_equals_grb_of_serial_build() {
    // End-to-end ingest equivalence: edge list → (parallel|serial) CSR →
    // .grb bytes must be identical files.
    let (n, edges) = skewed_edges();
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let parallel = pool.install(|| {
        GraphBuilder::with_capacity(n, edges.len())
            .extend_edges(edges.iter().copied())
            .build()
            .unwrap()
    });
    let serial = GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges.iter().copied())
        .build_serial()
        .unwrap();
    let mut bytes_par = Vec::new();
    io::write_grb(&parallel, &mut bytes_par).unwrap();
    let mut bytes_ser = Vec::new();
    io::write_grb(&serial, &mut bytes_ser).unwrap();
    assert_eq!(bytes_par, bytes_ser);
}
