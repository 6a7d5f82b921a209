//! End-to-end tests for the CLI surface: typed exit codes and the
//! `query` client against an in-process `grappolo_serve::Server`.

use grappolo_cli::run;
use grappolo_graph::gen::{planted_partition, PlantedConfig};
use grappolo_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

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
fn non_utf8_text_inputs_exit_4_naming_path_and_line() {
    // One byte that is not UTF-8 in a graph, an assignment or a batch is
    // invalid input on its line, not an I/O error.
    let dir = tmp_dir("exit4-not-utf8");
    for (file, bytes) in [
        ("g.edges", &b"0 1\n1 2\n"[..]),
        ("g.assign", b"0 0\n1 0\n2 0\n"),
        ("bad.edges", b"0 1\n1 \xFF2\n"),
        ("bad.graph", b"3 2\n2\n1 3\xFF\n2\n"),
        ("bad.assign", b"0 0\n1 0\n# \xFF\n2 0\n"),
        ("bad.batch", b"+ 0 1\n\xFF\n"),
    ] {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    for (line, expected) in [
        ("stats bad.edges", "bad.edges:2: line is not UTF-8"),
        ("stats bad.graph", "bad.graph:3: line is not UTF-8"),
        (
            "audit g.edges bad.assign",
            "bad.assign:3: line is not UTF-8",
        ),
        (
            "compare g.assign bad.assign",
            "bad.assign:3: line is not UTF-8",
        ),
        (
            "update g.edges g.assign bad.batch",
            "bad.batch:2: line is not UTF-8",
        ),
    ] {
        let (code, _, stderr) = run_bounded(&dir, line);
        assert_eq!(code, Some(4), "{line}: {stderr}");
        assert!(stderr.contains(expected), "{line}: {stderr}");
    }
}

/// Runs `grappolo <line>` in `dir` under a 4 GB address-space limit, so an
/// allocation sized by a huge vertex id fails on any host, and returns its
/// exit code, stdout and stderr. A run still going after 60 s is killed
/// and has no exit code: a `serve` that took flags it should refuse would
/// otherwise serve forever.
fn run_bounded(dir: &Path, line: &str) -> (Option<i32>, String, String) {
    let mut child = std::process::Command::new("sh")
        .args(["-c", "ulimit -v 4000000; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_grappolo"))
        .args(line.split_whitespace())
        .env("RAYON_NUM_THREADS", "2")
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn huge_ids_exit_4_instead_of_allocating() {
    // An edge-list id past `VertexId` is a parse error, not 2^32 + 1 vertices;
    // an assignment naming vertex 10^10 leaves vertex 0 unassigned. Vertex
    // 4294967294 fits a `VertexId` but sizes a 32 GiB CSR, which must fail as
    // a typed error, not an abort.
    let dir = tmp_dir("exit4-huge-ids");
    for (file, text) in [
        ("huge.edges", "4294967296 1\n"),
        ("good.assign", "0 0\n"),
        ("huge.assign", "10000000000 0\n"),
        ("in_range.edges", "0 4294967294\n"),
        ("g.edges", "0 1\n1 2\n"),
        ("g.assign", "0 0\n1 0\n2 0\n"),
        ("in_range.batch", "+ 0 4294967294\n"),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
    for line in [
        "stats huge.edges",
        "compare good.assign huge.assign",
        "stats in_range.edges",
        "update g.edges g.assign in_range.batch",
    ] {
        let (code, _, stderr) = run_bounded(&dir, line);
        assert_eq!(code, Some(4), "{line}: {stderr}");
        assert!(!stderr.contains("memory allocation"), "{line}: {stderr}");
    }
}

#[test]
fn invalid_update_inputs_exit_4_and_write_nothing() {
    // The library finds these in the batch and the assignment; they are
    // invalid input like the CLI's own parse errors, not runtime failures.
    let dir = tmp_dir("update-invalid");
    for (file, text) in [
        ("g.edges", "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n"),
        ("a.txt", "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n"),
        ("a805.txt", "0 805\n1 0\n2 0\n3 1\n4 1\n5 1\n"),
    ] {
        std::fs::write(dir.join(file), text).unwrap();
    }
    for (assignment, batch, message) in [
        ("a.txt", "- 0 0\n", "cannot delete edge (0, 0)"),
        ("a.txt", "+ 0 1 nan\n", "(0, 1) has invalid weight NaN"),
        ("a805.txt", "+ 0 1\n", "label 805 out of range"),
    ] {
        std::fs::write(dir.join("b.txt"), batch).unwrap();
        let line = format!("update g.edges {assignment} b.txt --assignments-out out.txt");
        let (code, _, stderr) = run_bounded(&dir, &line);
        assert_eq!(code, Some(4), "{line}: {stderr}");
        assert!(stderr.contains(message), "{line}: {stderr}");
        assert!(!dir.join("out.txt").exists(), "{line} wrote its output");
    }
}

#[test]
fn detect_with_stdout_closed_exits_0_and_writes_assignments() {
    // `grappolo detect g --assignments a | head -0`: the reader is gone before
    // the first status line, which must end the output, not the command.
    let dir = tmp_dir("closed-stdout");
    let graph = dir.join("g.edges");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n").unwrap();
    let out = dir.join("a.txt");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_grappolo"))
        .args(["detect", graph.to_str().unwrap(), "--assignments"])
        .arg(&out)
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let written = std::fs::read_to_string(&out).unwrap();
    assert_eq!(written.lines().count(), 6);
}

#[test]
fn stdout_write_error_exits_3() {
    // A full device, unlike a closed pipe, is an I/O failure.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let dir = tmp_dir("stdout-full");
    let graph = dir.join("g.edges");
    std::fs::write(&graph, "0 1\n1 2\n").unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_grappolo"))
        .args(["stats", graph.to_str().unwrap()])
        .stdout(full)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(3), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("writing to stdout"), "stderr: {stderr}");
}

#[test]
fn usage_error_exits_2() {
    assert_eq!(run(&argv(&["no-such-subcommand"])), 2);
    assert_eq!(run(&argv(&["detect"])), 2);
}

#[test]
fn misparses_exit_2_naming_the_token_and_write_nothing() {
    // A misparse is refused before anything runs: no file appears, not
    // even one named after the flag that was taken for a value.
    let dir = tmp_dir("misparse");
    std::fs::write(dir.join("g.edges"), "0 1\n1 2\n2 0\n").unwrap();
    std::fs::write(dir.join("qs.txt"), "ping\n").unwrap();
    for (line, token) in [
        (
            "detect g.edges --shceme serial --assignments a.txt",
            "`--shceme`",
        ),
        (
            "detect g.edges --scheme=serial --assignments a.txt",
            "`--scheme=serial`",
        ),
        ("detect g.edges --assignments --threads 2", "`--threads`"),
        ("detect g.edges h.edges --assignments a.txt", "`h.edges`"),
        ("query --addr 127.0.0.1:1 --script qs.txt ping", "`ping`"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_grappolo"))
            .args(line.split_whitespace())
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.contains(token), "{line}: {stderr}");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        files.sort();
        assert_eq!(files, ["g.edges", "qs.txt"], "{line} wrote a file");
    }
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
fn audit_pads_omitted_vertices_with_labels_no_line_uses() {
    // The file names labels 0 and u32::MAX; vertices 2 and 3 are omitted.
    // Their padding must neither wrap onto label 0 (joining vertex 0, with
    // which neither is connected) nor overflow.
    let dir = tmp_dir("audit-pad");
    std::fs::write(dir.join("path.edges"), "0 1\n1 2\n2 3\n").unwrap();
    std::fs::write(dir.join("a.txt"), "0 0\n1 4294967295\n").unwrap();
    let (code, stdout, stderr) = run_bounded(&dir, "audit path.edges a.txt");
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("padded 2 trailing vertices"), "{stdout}");
    assert!(stdout.contains("communities               4\n"), "{stdout}");
    assert!(stdout.contains("internally disconnected   0\n"), "{stdout}");
}

#[test]
fn infinite_gamma_exits_4_in_detect_update_and_serve() {
    let dir = tmp_dir("gamma-inf");
    std::fs::write(dir.join("g.edges"), "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n").unwrap();
    std::fs::write(dir.join("a.txt"), "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n").unwrap();
    std::fs::write(dir.join("b.txt"), "+ 0 4\n").unwrap();
    // The resolution is refused before the graph is read, so a missing
    // graph file changes nothing.
    for line in [
        "detect g.edges --gamma inf --assignments out.txt",
        "update g.edges a.txt b.txt --gamma inf --assignments-out out.txt",
        "serve g.edges --gamma inf",
        "detect missing.grb --gamma inf --assignments out.txt",
        "update missing.grb a.txt b.txt --gamma inf --assignments-out out.txt",
        "serve missing.grb --gamma inf",
    ] {
        let (code, stdout, stderr) = run_bounded(&dir, line);
        assert_eq!(code, Some(4), "{line}: {stdout}{stderr}");
        assert!(
            stderr.contains("resolution must be finite"),
            "{line}: {stderr}"
        );
        assert!(!dir.join("out.txt").exists(), "{line} wrote its output");
    }
}

/// Runs `grappolo generate <input> --scale <scale> -o g.grb` and checks that
/// it exits 4 with a message naming `--scale` and writes nothing.
fn assert_scale_refused(dir: &Path, input: &str, scale: &str) {
    let line = format!("generate {input} --scale {scale} --seed 1 -o g.grb");
    let (code, stdout, stderr) = run_bounded(dir, &line);
    assert_eq!(code, Some(4), "{line}: {stdout}{stderr}");
    assert!(stderr.contains("--scale"), "{line}: {stderr}");
    assert!(!dir.join("g.grb").exists(), "{line} wrote a graph");
}

#[test]
fn generate_refuses_a_scale_that_is_not_positive() {
    let dir = tmp_dir("scale-negative");
    for scale in ["-1", "0", "-0"] {
        assert_scale_refused(&dir, "er", scale);
    }
}

#[test]
fn generate_refuses_a_scale_that_is_not_finite() {
    let dir = tmp_dir("scale-nan");
    for scale in ["nan", "inf", "-inf"] {
        assert_scale_refused(&dir, "planted", scale);
    }
}

#[test]
fn generate_refuses_a_scale_past_vertex_ids() {
    // 4e34 and 3e34 vertices: more than a `VertexId` can name.
    let dir = tmp_dir("scale-ids");
    for input in ["er", "cnr"] {
        assert_scale_refused(&dir, input, "1e30");
    }
}

#[test]
fn generate_refuses_a_scale_past_the_rmat_limit() {
    // 2e9 vertices fit a `VertexId` but not RMAT's 2^30 id space; 4e10 fit
    // neither.
    let dir = tmp_dir("scale-rmat");
    for scale in ["50000", "1e6"] {
        assert_scale_refused(&dir, "rmat", scale);
    }
}

#[test]
fn serve_refuses_a_fault_spec_that_arms_nothing() {
    // A misspelled point, and `trunc` on a point that never truncates.
    let dir = tmp_dir("serve-faults");
    std::fs::write(dir.join("g.edges"), "0 1\n1 2\n2 0\n").unwrap();
    for (spec, message) in [
        (
            "detcet=panic,persist-write=trunc:5",
            "unknown fault point `detcet`",
        ),
        ("persist=trunc:5", "can never fire"),
        ("persist-write=err", "can never fire"),
    ] {
        let line = format!("serve g.edges --faults {spec}");
        let (code, stdout, stderr) = run_bounded(&dir, &line);
        assert_eq!(code, Some(4), "{line}: {stdout}{stderr}");
        assert!(stderr.contains(message), "{line}: {stderr}");
        assert!(!stdout.contains("listening"), "{line}: {stdout}");
    }
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

    // The server answers `quit` by closing the connection, so the close is
    // its answer: the exit code follows the earlier responses.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "quit"])), 0);
    let quit_script = dir.join("quit.txt");
    std::fs::write(&quit_script, "ping\nquit\n").unwrap();
    let quit_script = quit_script.to_str().unwrap();
    assert_eq!(
        run(&argv(&["query", "--addr", &addr, "--script", quit_script])),
        0
    );

    handle.shutdown();

    // Connecting to a dead server is an I/O failure: exit 3.
    assert_eq!(run(&argv(&["query", "--addr", &addr, "ping"])), 3);

    // So is a server that closes the connection before answering.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let closing = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        use std::io::BufRead;
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut request)
            .unwrap();
        request
    });
    assert_eq!(run(&argv(&["query", "--addr", &closing, "ping"])), 3);
    assert_eq!(server.join().unwrap(), "ping\n");
}
