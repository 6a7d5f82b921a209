//! End-to-end tests for the resident partition service: real TCP
//! clients against an in-process server, with deterministic fault
//! injection through the failpoint layer.

use grappolo_graph::gen::{planted_partition, PlantedConfig};
use grappolo_graph::{io, CsrGraph};
use grappolo_serve::{
    BackoffPolicy, FaultAction, FaultPlan, ServeConfig, ServeError, Server, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn test_graph() -> CsrGraph {
    planted_partition(&PlantedConfig {
        num_vertices: 300,
        num_communities: 6,
        seed: 42,
        ..Default::default()
    })
    .0
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("grappolo_serve_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config_with_threads(server_threads: usize) -> ServeConfig {
    ServeConfig {
        server_threads,
        ..ServeConfig::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn req(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(
            response.ends_with('\n'),
            "connection closed mid-response to `{line}`"
        );
        response.trim_end().to_string()
    }
}

/// The canonical query script the determinism tests byte-compare.
fn query_script(handle: &ServerHandle) -> Vec<String> {
    let mut c = Client::connect(handle);
    let mut out = Vec::new();
    out.push(c.req("ping"));
    out.push(c.req("stats"));
    for v in [0usize, 1, 57, 150, 299] {
        out.push(c.req(&format!("community-of {v}")));
    }
    for comm in 0u32..6 {
        out.push(c.req(&format!("members {comm}")));
    }
    out.push(c.req("community-of 10000")); // error responses are bytes too
    out
}

#[test]
fn serves_basic_queries() {
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    let mut c = Client::connect(&handle);
    assert_eq!(c.req("ping"), "ok pong");
    let stats = c.req("stats");
    assert!(stats.starts_with("ok n=300 "), "{stats}");
    assert!(stats.contains("epoch=0"), "{stats}");
    let first = c.req("community-of 0");
    assert!(first.starts_with("ok "), "{first}");
    let label: u32 = first[3..].parse().unwrap();
    let members = c.req(&format!("members {label}"));
    assert!(members.starts_with("ok "), "{members}");
    // Vertex 0 appears in its own community's member list.
    let fields: Vec<&str> = members.split(' ').collect();
    assert!(fields[2..].contains(&"0"), "{members}");
    assert!(c
        .req("community-of 10000")
        .starts_with("err unknown-vertex"));
    assert!(c.req("frobnicate").starts_with("err bad-request"));
    // A snapshot is `.grb` bytes: any other name is refused, nothing written.
    let edges = tmp_dir("snapshot_non_grb").join("s.edges");
    let resp = c.req(&format!("snapshot-save {}", edges.display()));
    assert!(resp.starts_with("err bad-request"), "{resp}");
    assert!(!edges.exists());
    handle.shutdown();
}

#[test]
fn responses_byte_identical_across_1_8_16_server_threads() {
    let mut transcripts = Vec::new();
    for threads in [1usize, 8, 16] {
        let handle = Server::start_with_graph(test_graph(), config_with_threads(threads)).unwrap();
        transcripts.push((threads, query_script(&handle)));
        handle.shutdown();
    }
    let (_, reference) = &transcripts[0];
    for (threads, got) in &transcripts[1..] {
        assert_eq!(
            got, reference,
            "responses diverged between 1 and {threads} server threads"
        );
    }
}

#[test]
fn update_applies_batch_and_bumps_epoch() {
    let dir = tmp_dir("update");
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "+ 0 150 5.0\n+ 1 151 5.0\n").unwrap();
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    let mut c = Client::connect(&handle);
    let before = c.req("stats");
    let resp = c.req(&format!("update {}", batch.display()));
    assert!(resp.starts_with("ok updated "), "{resp}");
    assert!(resp.contains("epoch=1"), "{resp}");
    let after = c.req("stats");
    assert_ne!(before, after);
    assert!(after.contains("epoch=1"), "{after}");
    assert_eq!(handle.snapshot().graph.edge_weight(0, 150), Some(5.0));
    handle.shutdown();
}

#[test]
fn malformed_batch_names_its_line_and_keeps_snapshot() {
    let batch = tmp_dir("bad_batch").join("batch.txt");
    std::fs::write(&batch, "+ 0 1\n* 2 3\n").unwrap();
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    let mut c = Client::connect(&handle);
    let response = c.req(&format!("update {}", batch.display()));
    let error = "2: unknown operation `*` (expected `+`, `-`, or `=`)";
    assert_eq!(
        response,
        format!("err bad-batch {}:{error}", batch.display())
    );
    assert!(c.req("stats").contains("epoch=0"));
    handle.shutdown();
}

#[test]
fn injected_load_failure_keeps_snapshot() {
    for threads in [1usize, 8] {
        let dir = tmp_dir(&format!("loadfail_{threads}"));
        let batch = dir.join("batch.txt");
        std::fs::write(&batch, "+ 0 150 5.0\n").unwrap();
        let handle = Server::start_with_graph(test_graph(), config_with_threads(threads)).unwrap();
        handle.faults().arm("load", FaultAction::Err, 1);
        let mut c = Client::connect(&handle);
        let resp = c.req(&format!("update {}", batch.display()));
        assert!(resp.starts_with("err load-failed"), "{resp}");
        // Snapshot untouched: epoch still 0, queries keep working.
        assert!(c.req("stats").contains("epoch=0"));
        // The fault was one-shot; the retry succeeds.
        assert!(c
            .req(&format!("update {}", batch.display()))
            .starts_with("ok updated"));
        handle.shutdown();
    }
}

#[test]
fn detect_panic_preserves_last_good_snapshot() {
    for threads in [1usize, 8] {
        let dir = tmp_dir(&format!("panic_{threads}"));
        let batch = dir.join("batch.txt");
        std::fs::write(&batch, "+ 0 150 5.0\n").unwrap();
        let handle = Server::start_with_graph(test_graph(), config_with_threads(threads)).unwrap();
        let before = query_script(&handle);

        handle.faults().arm("detect", FaultAction::Panic, 1);
        let mut c = Client::connect(&handle);
        let resp = c.req(&format!("update {}", batch.display()));
        assert!(resp.starts_with("err detect-failed panic"), "{resp}");
        assert!(resp.contains("snapshot preserved"), "{resp}");

        // The daemon keeps serving the last good snapshot, byte-for-byte.
        assert_eq!(query_script(&handle), before);
        assert_eq!(handle.snapshot().epoch, 0);

        // And it still accepts work: the disarmed path succeeds.
        assert!(c
            .req(&format!("update {}", batch.display()))
            .starts_with("ok updated"));
        assert_eq!(handle.snapshot().epoch, 1);
        handle.shutdown();
    }
}

#[test]
fn detect_error_fault_preserves_snapshot() {
    let dir = tmp_dir("detect_err");
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, "+ 0 150 5.0\n").unwrap();
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    handle.faults().arm("detect", FaultAction::Err, 1);
    let mut c = Client::connect(&handle);
    let resp = c.req(&format!("update {}", batch.display()));
    assert!(resp.starts_with("err detect-failed"), "{resp}");
    assert_eq!(handle.snapshot().epoch, 0);
    handle.shutdown();
}

#[test]
fn persist_fault_exhausts_retries_and_preserves_files() {
    for threads in [1usize, 8] {
        let dir = tmp_dir(&format!("persist_{threads}"));
        let out = dir.join("snap.grb");
        let mut config = config_with_threads(threads);
        config.backoff = BackoffPolicy {
            attempts: 3,
            base: Duration::from_millis(1),
        };
        let handle = Server::start_with_graph(test_graph(), config).unwrap();
        let mut c = Client::connect(&handle);

        // A good save first — its bytes must survive the faulty one.
        assert!(c
            .req(&format!("snapshot-save {}", out.display()))
            .starts_with("ok saved"));
        let good = std::fs::read(&out).unwrap();

        // More failures than retry attempts: the save fails as a whole…
        handle.faults().arm("persist", FaultAction::Err, 3);
        let resp = c.req(&format!("snapshot-save {}", out.display()));
        assert!(resp.starts_with("err persist-failed"), "{resp}");
        assert!(
            handle.faults().is_empty(),
            "all 3 attempts consumed a fault"
        );
        // …and the previous files are byte-intact with no temp leak.
        assert_eq!(std::fs::read(&out).unwrap(), good);
        assert!(io::list_tmp_siblings(&dir).is_empty());

        // Fewer failures than attempts: backoff rides through.
        handle.faults().arm("persist", FaultAction::Err, 2);
        assert!(c
            .req(&format!("snapshot-save {}", out.display()))
            .starts_with("ok saved"));
        handle.shutdown();
    }
}

#[test]
fn persist_truncation_fault_leaves_no_partial_file() {
    let dir = tmp_dir("persist_trunc");
    let out = dir.join("snap.grb");
    let config = ServeConfig {
        backoff: BackoffPolicy {
            attempts: 1,
            base: Duration::from_millis(1),
        },
        ..ServeConfig::default()
    };
    let handle = Server::start_with_graph(test_graph(), config).unwrap();
    handle
        .faults()
        .arm("persist-write", FaultAction::Truncate(32), 1);
    let mut c = Client::connect(&handle);
    let resp = c.req(&format!("snapshot-save {}", out.display()));
    assert!(resp.starts_with("err persist-failed"), "{resp}");
    assert!(!out.exists(), "truncated write must not surface a file");
    assert!(io::list_tmp_siblings(&dir).is_empty());
    // Disarmed, the same request lands a loadable file.
    assert!(c
        .req(&format!("snapshot-save {}", out.display()))
        .starts_with("ok saved"));
    assert!(io::load_path(&out).is_ok());
    handle.shutdown();
}

#[test]
fn deadline_failpoint_reports_deterministically() {
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    handle.faults().arm("deadline", FaultAction::Err, 2);
    let mut c = Client::connect(&handle);
    assert_eq!(c.req("ping"), "err deadline-exceeded");
    assert_eq!(c.req("stats"), "err deadline-exceeded");
    assert_eq!(c.req("ping"), "ok pong", "failpoint exhausted");
    let metrics = c.req("metrics");
    assert!(metrics.contains("deadline-expired=2"), "{metrics}");
    handle.shutdown();
}

#[test]
fn zero_depth_queue_sheds_with_busy() {
    let config = ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    };
    let handle = Server::start_with_graph(test_graph(), config).unwrap();
    let mut c = Client::connect(&handle);
    let resp = c.req("ping");
    assert!(resp.starts_with("err busy"), "{resp}");
    assert!(
        handle
            .metrics()
            .shed
            .load(std::sync::atomic::Ordering::SeqCst)
            >= 1
    );
    handle.shutdown();
}

#[test]
fn socket_fault_drops_connection_then_recovers() {
    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    handle.faults().arm("socket", FaultAction::Err, 1);
    // First connection is dropped by the injected accept fault: either the
    // connect itself fails or the first read sees EOF.
    if let Ok(stream) = TcpStream::connect(handle.addr()) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let _ = writeln!(w, "ping");
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "injected socket fault should close the connection");
    }
    // The retry goes through.
    let mut c = Client::connect(&handle);
    assert_eq!(c.req("ping"), "ok pong");
    handle.shutdown();
}

#[test]
fn concurrent_readers_see_wellformed_consistent_responses() {
    let handle = Server::start_with_graph(test_graph(), config_with_threads(8)).unwrap();
    let addr = handle.addr();
    let readers: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut transcript = Vec::new();
                for _ in 0..20 {
                    for q in ["community-of 0", "members 0", "stats"] {
                        writeln!(writer, "{q}").unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        assert!(line.starts_with("ok "), "{q} → {line}");
                        transcript.push(line);
                    }
                }
                transcript
            })
        })
        .collect();
    let transcripts: Vec<_> = readers.into_iter().map(|j| j.join().unwrap()).collect();
    // No mutations ran, so every reader saw the identical byte stream.
    for t in &transcripts[1..] {
        assert_eq!(t, &transcripts[0]);
    }
    handle.shutdown();
}

#[test]
fn shutdown_during_active_detection_is_clean() {
    let dir = tmp_dir("drain");
    // A batch dense enough to force real re-convergence work.
    let mut text = String::new();
    for i in 0..60u32 {
        text.push_str(&format!("+ {} {} 2.0\n", i, (i + 150) % 300));
    }
    let batch = dir.join("batch.txt");
    std::fs::write(&batch, text).unwrap();

    let handle = Server::start_with_graph(test_graph(), ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let updater = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "update {}", batch.display()).unwrap();
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        line
    });
    // Let the update reach the worker, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(10));
    handle.shutdown();
    // The client either got a completed answer or a clean shutdown/cancel
    // response — never a hung connection (join proves termination).
    let line = updater.join().unwrap();
    assert!(
        line.is_empty()
            || line.starts_with("ok updated")
            || line.starts_with("err shutting-down")
            || line.starts_with("err deadline-exceeded"),
        "unexpected drain response: {line:?}"
    );
    // No partial files: the drain never leaves temp siblings behind.
    assert!(io::list_tmp_siblings(&dir).is_empty());
}

#[test]
fn start_from_path_load_fault_fails_startup() {
    let dir = tmp_dir("startload");
    let path = dir.join("g.grb");
    io::save_path(&test_graph(), &path).unwrap();

    let config = ServeConfig {
        faults: FaultPlan::parse("load=err:1").unwrap(),
        ..ServeConfig::default()
    };
    match Server::start_from_path(&path, config) {
        Err(ServeError::Load(e)) => assert!(e.to_string().contains("injected"), "{e}"),
        Err(other) => panic!("expected load error, got {other}"),
        Ok(_) => panic!("expected load error, got a running server"),
    }
    // Same path, no fault: starts and serves.
    let handle = Server::start_from_path(&path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(&handle);
    assert!(c.req("stats").starts_with("ok n=300 "));
    handle.shutdown();
}
