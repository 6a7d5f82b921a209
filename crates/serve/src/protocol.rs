//! The line-oriented wire protocol.
//!
//! One request per line, one response line per request, in order. Every
//! response starts with `ok ` or `err `; error responses carry a
//! machine-readable reason word first (`busy`, `deadline-exceeded`,
//! `bad-request`, `unknown-vertex`, `detect-failed`, `persist-failed`,
//! `load-failed`, `shutting-down`) followed by human context. Responses
//! are pure functions of the published snapshot, so their bytes are
//! identical regardless of which worker thread answers.
//!
//! ```text
//! ping                      → ok pong
//! community-of <v>          → ok <community>
//! members <c>               → ok <count> <v0> <v1> …
//! stats                     → ok n=… m=… communities=… modularity=… epoch=…
//! metrics                   → ok requests=… shed=… …
//! update <batch-file>       → ok updated communities=… modularity=… epoch=…
//! snapshot-save <path.grb>  → ok saved <path.grb> <path.grb>.assign epoch=…
//! quit                      → (closes the connection)
//! ```

use std::path::PathBuf;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Community label of one vertex.
    CommunityOf(usize),
    /// Member vertices of one community.
    Members(u32),
    /// Snapshot-level statistics.
    Stats,
    /// Service counters (requests, shed, deadline, …).
    Metrics,
    /// Apply an edge-delta batch file and re-converge.
    Update(PathBuf),
    /// Persist the current snapshot (graph + assignment) crash-safely.
    SnapshotSave(PathBuf),
}

/// Parses one request line. The path commands take the rest of the line
/// verbatim (paths may contain spaces).
pub fn parse(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let arg = |name: &str| -> Result<&str, String> {
        if rest.is_empty() {
            Err(format!("`{verb}` needs <{name}>"))
        } else {
            Ok(rest)
        }
    };
    let bare = |req: Request| -> Result<Request, String> {
        if rest.is_empty() {
            Ok(req)
        } else {
            Err(format!("`{verb}` takes no argument"))
        }
    };
    match verb {
        "ping" => bare(Request::Ping),
        "stats" => bare(Request::Stats),
        "metrics" => bare(Request::Metrics),
        "community-of" => {
            let v = arg("vertex")?
                .parse::<usize>()
                .map_err(|e| format!("bad vertex: {e}"))?;
            Ok(Request::CommunityOf(v))
        }
        "members" => {
            let c = arg("community")?
                .parse::<u32>()
                .map_err(|e| format!("bad community: {e}"))?;
            Ok(Request::Members(c))
        }
        "update" => Ok(Request::Update(PathBuf::from(arg("batch-file")?))),
        // The graph is saved as `.grb` bytes and loaders pick the reader by
        // extension, so only a `.grb` name loads back.
        "snapshot-save" => match PathBuf::from(arg("path")?) {
            p if p.extension().is_some_and(|e| e == "grb") => Ok(Request::SnapshotSave(p)),
            p => Err(format!("snapshot path {p:?} must end in `.grb`")),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Formats the `members` success response: count then ascending vertices.
pub fn members_response(members: &[usize]) -> String {
    let mut out = format!("ok {}", members.len());
    for v in members {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse("ping"), Ok(Request::Ping));
        assert_eq!(parse("  stats  "), Ok(Request::Stats));
        assert_eq!(parse("metrics"), Ok(Request::Metrics));
        assert_eq!(parse("community-of 17"), Ok(Request::CommunityOf(17)));
        assert_eq!(parse("members 3"), Ok(Request::Members(3)));
        assert_eq!(
            parse("update /tmp/batch file.txt"),
            Ok(Request::Update(PathBuf::from("/tmp/batch file.txt")))
        );
        assert_eq!(
            parse("snapshot-save /tmp/out.grb"),
            Ok(Request::SnapshotSave(PathBuf::from("/tmp/out.grb")))
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("community-of").is_err());
        assert!(parse("community-of x").is_err());
        assert!(parse("members -1").is_err());
        assert!(parse("update").is_err());
        assert!(parse("snapshot-save").is_err());
        assert!(parse("snapshot-save /tmp/s.edges").is_err());
        assert!(parse("snapshot-save /tmp/s").is_err());
        assert!(parse("ping extra").is_err());
        assert!(parse("stats now").is_err());
        assert!(parse("frobnicate 1").is_err());
    }

    #[test]
    fn members_response_format() {
        assert_eq!(members_response(&[]), "ok 0");
        assert_eq!(members_response(&[2, 5, 9]), "ok 3 2 5 9");
    }
}
