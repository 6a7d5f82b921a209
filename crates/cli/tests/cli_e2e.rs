//! End-to-end tests for the CLI surface: typed exit codes and the
//! `query` client against an in-process `grappolo_serve::Server`.

use grappolo_cli::run;
use grappolo_graph::gen::{planted_partition, PlantedConfig};
use grappolo_serve::{ServeConfig, Server};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("grappolo_cli_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn missing_graph_file_exits_3() {
    let dir = tmp_dir("exit3");
    let missing = dir.join("no-such.grb");
    assert_eq!(run(&argv(&["stats", missing.to_str().unwrap()])), 3);
}

#[test]
fn unknown_generator_id_exits_4() {
    let dir = tmp_dir("exit4");
    let out = dir.join("out.grb");
    assert_eq!(
        run(&argv(&[
            "generate",
            "no-such-family",
            "-o",
            out.to_str().unwrap()
        ])),
        4
    );
    assert!(
        !out.exists(),
        "failed generate must not leave output behind"
    );
}

#[test]
fn malformed_graph_file_exits_4() {
    let dir = tmp_dir("exit4-parse");
    let bad = dir.join("bad.edges");
    std::fs::write(&bad, "0 not-a-vertex\n").unwrap();
    assert_eq!(run(&argv(&["stats", bad.to_str().unwrap()])), 4);
}

#[test]
fn huge_ids_exit_4_instead_of_allocating() {
    // An edge-list id past `VertexId` is a parse error, not 2^32 + 1 vertices;
    // an assignment naming vertex 10^10 leaves vertex 0 unassigned.
    let dir = tmp_dir("exit4-huge-ids");
    let [edges, good, huge] = ["huge.edges", "good.assign", "huge.assign"].map(|f| dir.join(f));
    std::fs::write(&edges, "4294967296 1\n").unwrap();
    std::fs::write(&good, "0 0\n").unwrap();
    std::fs::write(&huge, "10000000000 0\n").unwrap();
    let [edges, good, huge] = [&edges, &good, &huge].map(|p| p.to_str().unwrap());
    assert_eq!(run(&argv(&["stats", edges])), 4);
    assert_eq!(run(&argv(&["compare", good, huge])), 4);
}

#[test]
fn usage_error_exits_2() {
    assert_eq!(run(&argv(&["no-such-subcommand"])), 2);
    assert_eq!(run(&argv(&["detect"])), 2);
}

#[test]
fn audit_distinguishes_finding_from_failure() {
    let dir = tmp_dir("audit-codes");
    let graph = dir.join("g.edges");
    // Two disjoint edges: {0,1} and {2,3}.
    std::fs::write(&graph, "0 1\n2 3\n").unwrap();

    // All four vertices in one community -> internally disconnected: exit 5.
    let bad = dir.join("bad.assign");
    std::fs::write(&bad, "0 0\n1 0\n2 0\n3 0\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            bad.to_str().unwrap()
        ])),
        5
    );

    // Matching the component structure -> clean: exit 0.
    let good = dir.join("good.assign");
    std::fs::write(&good, "0 0\n1 0\n2 1\n3 1\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            good.to_str().unwrap()
        ])),
        0
    );

    // Could-not-run (missing assignment file) -> exit 3, not 5.
    let missing = dir.join("no-such.assign");
    assert_eq!(
        run(&argv(&[
            "audit",
            graph.to_str().unwrap(),
            missing.to_str().unwrap()
        ])),
        3
    );
}

#[test]
fn query_round_trips_against_in_process_server() {
    let (graph, _) = planted_partition(&PlantedConfig {
        num_vertices: 200,
        num_communities: 4,
        seed: 7,
        ..Default::default()
    });
    let handle = Server::start_with_graph(graph, ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    // Inline command succeeds.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "ping"])), 0);
    assert_eq!(run(&argv(&["query", "--addr", &addr, "stats"])), 0);

    // Script file with several commands succeeds end to end.
    let dir = tmp_dir("query-script");
    let script = dir.join("script.txt");
    std::fs::write(&script, "# smoke\nping\ncommunity-of 0\nmembers 0\nstats\n").unwrap();
    assert_eq!(
        run(&argv(&[
            "query",
            "--addr",
            &addr,
            "--script",
            script.to_str().unwrap()
        ])),
        0
    );

    // A request the server answers with `err ...` makes the client exit 1.
    assert_eq!(
        run(&argv(&["query", "--addr", &addr, "community-of", "999999"])),
        1
    );

    handle.shutdown();

    // Connecting to a dead server is an I/O failure: exit 3.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "ping"])), 3);
}
