//! Every file format the tools exchange: graphs (whitespace edge-list text,
//! METIS — the DIMACS10 distribution format of the paper's inputs — and the
//! `.grb` binary format), `vertex community` assignments
//! ([`read_assignment`]/[`format_assignment`]) and `+`/`-`/`=` edge batches
//! ([`read_edge_batch`]/[`parse_edge_batch`]).
//!
//! `.grb` ([`write_grb`]/[`read_grb`]) stores the three CSR arrays behind
//! one header and ahead of one checksum, so big benchmark graphs load in
//! O(read) instead of re-parsing and re-sorting an edge list. It is a load
//! cache: only [`GRB_VERSION`] is read, and a file of an older layout is
//! regenerated from its source.
//!
//! The edge-list, assignment and batch parsers share one line reader: blank
//! lines and comment lines are skipped but counted, a field that is absent
//! or does not parse is `missing <field>` or `bad <field>: <err>`, and a
//! field past the last is `trailing tokens after <field>` — each an
//! [`IoError::Parse`] naming its 1-based line. The text formats take UTF-8
//! only, and all four, METIS included, take their text from one reader: a
//! line holding other bytes is `line is not UTF-8`, a parse error on that
//! line.
//!
//! Graph readers produce graphs satisfying [`crate::csr::CsrGraph::validate`];
//! all writers round-trip exactly with their readers (under test), isolated
//! vertices past the largest id included: the edge-list header carries `n`.

use crate::builder::{BuildError, GraphBuilder};
use crate::csr::{CsrGraph, VertexId, DEFAULT_WEIGHT};
use crate::delta::EdgeDelta;
use std::fmt::Display;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::str::FromStr;

/// I/O and parse errors.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed input at a given 1-based line (0 when no one line is at fault).
    Parse {
        /// 1-based line number; 0 for binary formats and assignment holes.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The parsed graph failed validation.
    Build(BuildError),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<BuildError> for IoError {
    fn from(e: BuildError) -> Self {
        IoError::Build(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error (line {line}): {message}"),
            IoError::Build(e) => write!(f, "graph build error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Line-oriented text formats: edge lists, assignments and edge batches
// ---------------------------------------------------------------------------

/// One data line of a line-oriented format: its 1-based number in the input
/// and its whitespace-separated fields, consumed in order.
struct Line<'a> {
    number: usize,
    fields: std::str::SplitWhitespace<'a>,
}

impl<'a> Line<'a> {
    fn new(number: usize, text: &'a str) -> Self {
        let fields = text.split_whitespace();
        Self { number, fields }
    }

    /// The next field parsed as `T`, or `None` past the last one; a field
    /// that does not parse is `bad <name>: <err>`.
    fn optional<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, IoError>
    where
        T::Err: Display,
    {
        let Some(word) = self.fields.next() else {
            return Ok(None);
        };
        word.parse()
            .map(Some)
            .map_err(|e| parse_err(self.number, format!("bad {name}: {e}")))
    }

    /// The next field parsed as `T`; `missing <name>` past the last one.
    fn field<T: FromStr>(&mut self, name: &str) -> Result<T, IoError>
    where
        T::Err: Display,
    {
        self.optional(name)?
            .ok_or_else(|| parse_err(self.number, format!("missing {name}")))
    }
}

/// The parse error of a line holding bytes that are not UTF-8.
const NOT_UTF8: &str = "line is not UTF-8";

/// Reads all of `reader` as the text of a line format: bytes that are not
/// UTF-8 are a parse error on the line that holds them, not an I/O error.
fn read_text<R: Read>(mut reader: R) -> Result<String, IoError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    String::from_utf8(bytes).map_err(|e| {
        let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        parse_err(1 + valid.iter().filter(|&&b| b == b'\n').count(), NOT_UTF8)
    })
}

/// The one line reader of the text formats (see the module doc); `comments`
/// are the format's comment characters. `each` reads a data line's fields and
/// returns the name of the last one the format has.
fn for_each_line(
    text: &str,
    comments: &[char],
    mut each: impl FnMut(&mut Line<'_>) -> Result<&'static str, IoError>,
) -> Result<(), IoError> {
    for (i, data) in text.lines().enumerate() {
        let data = data.trim();
        if data.is_empty() || data.starts_with(comments) {
            continue;
        }
        let mut line = Line::new(i + 1, data);
        let last = each(&mut line)?;
        if line.fields.next().is_some() {
            return Err(parse_err(i + 1, format!("trailing tokens after {last}")));
        }
    }
    Ok(())
}

/// The first line [`write_edge_list`] writes, before ` n=N m=M`.
const EDGE_LIST_HEADER: &str = "# grappolo edge list:";

/// `(n, m)` from [`EDGE_LIST_HEADER`] when it starts the first line; every
/// other comment line, and a header on any later line, is only a comment.
fn edge_list_header(text: &str) -> Result<Option<(usize, usize)>, IoError> {
    let Some(rest) = text
        .lines()
        .next()
        .and_then(|first| first.trim().strip_prefix(EDGE_LIST_HEADER))
    else {
        return Ok(None);
    };
    let mut fields = rest.split_whitespace();
    let mut count = |key: &str| -> Result<usize, IoError> {
        let word = fields.next().unwrap_or_default();
        let value = word
            .strip_prefix(key)
            .and_then(|v| v.strip_prefix('='))
            .ok_or_else(|| parse_err(1, format!("header needs `{key}=<count>`, found `{word}`")))?;
        value
            .parse()
            .map_err(|e| parse_err(1, format!("bad header {key}: {e}")))
    };
    let (n, m) = (count("n")?, count("m")?);
    if fields.next().is_some() {
        return Err(parse_err(1, "trailing tokens after header m"));
    }
    if n > VertexId::MAX as usize + 1 {
        return Err(parse_err(
            1,
            format!("header n={n} exceeds the vertex id range"),
        ));
    }
    Ok(Some((n, m)))
}

/// Reads a whitespace-separated edge list: `u v [w]` per line, 0-based vertex
/// ids, optional weight (default 1). Lines starting with `#` or `%` are
/// comments.
///
/// When the first line is [`write_edge_list`]'s header
/// `# grappolo edge list: n=N m=M`, the graph has `N` vertices, so isolated
/// vertices past the largest id survive a round trip: an id `>= N` is a parse
/// error on its line, and a file without exactly `M` edge lines is a parse
/// error on the header's. Without the header the vertex count is
/// `1 + max id`.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let text = read_text(reader)?;
    let header = edge_list_header(&text)?;
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    // One past the largest id read; 0 while there are no edges.
    let mut inferred = 0;
    for_each_line(&text, &['#', '%'], |line| {
        // Ids parse straight into `VertexId`, so an id past its range is a
        // parse error on its line, never a silently truncated vertex.
        let u: VertexId = line.field("source id")?;
        let v: VertexId = line.field("target id")?;
        let w = line.optional("weight")?.unwrap_or(DEFAULT_WEIGHT);
        let top = u.max(v) as usize;
        if let Some((n, _)) = header {
            if top >= n {
                return Err(parse_err(
                    line.number,
                    format!("vertex id {top} out of 0..{n} (header n={n})"),
                ));
            }
        }
        inferred = inferred.max(top + 1);
        edges.push((u, v, w));
        Ok("weight")
    })?;
    drop(text); // not held through the build, which has its own copies
    let n = match header {
        Some((_, m)) if edges.len() != m => {
            return Err(parse_err(
                1,
                format!("header m={m} does not match the edge count {}", edges.len()),
            ))
        }
        Some((n, _)) => n,
        None => inferred,
    };
    Ok(GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()?)
}

/// Writes the graph as an edge list (`u v w` per undirected edge, once)
/// under the header [`read_edge_list`] takes `n` and `m` from.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "{EDGE_LIST_HEADER} n={} m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v, wt) in g.undirected_edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// METIS format (DIMACS10 distribution format)
// ---------------------------------------------------------------------------

/// Reads a METIS graph file.
///
/// Header: `n m [fmt]` where `fmt` ∈ {`0`/absent: unweighted, `1`: edge
/// weights}; vertex-weighted variants (`10`, `11`) are accepted and vertex
/// weights skipped. Vertex ids in the body are 1-based. METIS lists each
/// edge in both endpoints' lines; the reader keeps only the `u <= v`
/// occurrence, so the builder (which sums duplicates) sees each edge once.
///
/// The body must agree with the header: every occurrence of a non-loop edge
/// needs its mirror on the other endpoint's line with the same weight bits
/// (else a parse error on the first vertex line with an unmirrored entry),
/// and the kept edges must number `m` (else a parse error on the header
/// line).
pub fn read_metis<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let text = read_text(reader)?;
    let mut lines = text.lines().enumerate();

    // Header: first non-comment line.
    let (header_line, n, m, has_edge_weights, has_vertex_weights) = loop {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "empty METIS file"))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if t.split_whitespace().count() < 2 {
            return Err(parse_err(idx + 1, "METIS header needs `n m [fmt]`"));
        }
        let mut header = Line::new(idx + 1, t);
        let n: usize = header.field("n")?;
        let m: usize = header.field("m")?;
        let (vw, ew) = match header.fields.next().unwrap_or("0") {
            "0" | "00" => (false, false),
            "1" | "01" => (false, true),
            "10" => (true, false),
            "11" => (true, true),
            other => return Err(parse_err(idx + 1, format!("unsupported fmt `{other}`"))),
        };
        break (idx + 1, n, m, ew, vw);
    };

    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    // Per vertex line read so far: its 1-based line number, and where its
    // kept entries start in `edges` together with the first of its non-loop
    // ones that no later line has listed back yet.
    let mut vertex_lines: Vec<usize> = Vec::new();
    let mut rows: Vec<(usize, usize)> = Vec::new();
    // This line's `u > v` entries as `(v, weight bits)`.
    let mut back: Vec<(VertexId, u64)> = Vec::new();
    // The entry on the earliest line whose edge the other endpoint does not
    // list back with the same weight bits, as `(vertex, neighbor, weight)`.
    let mut unmirrored: Option<(VertexId, VertexId, f64)> = None;
    let mut note = |vertex: VertexId, neighbor: VertexId, w: f64| {
        if unmirrored.is_none_or(|(first, _, _)| vertex < first) {
            unmirrored = Some((vertex, neighbor, w));
        }
    };
    let mut vertex = 0usize;
    for (idx, line) in lines {
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if vertex >= n {
            if t.is_empty() {
                continue;
            }
            return Err(parse_err(idx + 1, "more vertex lines than n"));
        }
        let u = vertex as VertexId;
        vertex += 1;
        vertex_lines.push(idx + 1);
        let start = edges.len();
        back.clear();
        // A blank line is a vertex without neighbors, so METIS does not go
        // through `for_each_line`, which skips blank lines.
        let mut row = Line::new(idx + 1, t);
        if has_vertex_weights {
            row.fields.next(); // skip the vertex weight
        }
        while let Some(v) = row.optional::<usize>("neighbor id")? {
            if v == 0 || v > n {
                return Err(parse_err(
                    row.number,
                    format!("neighbor id {v} out of 1..={n}"),
                ));
            }
            let w = if has_edge_weights {
                row.field("edge weight")?
            } else {
                DEFAULT_WEIGHT
            };
            let v = (v - 1) as VertexId;
            // Each undirected edge occurs in both endpoint lines: keep the
            // occurrence with u <= v only (self-loops occur once per line
            // they appear on; METIS semantics list a loop on its own line).
            if u <= v {
                edges.push((u, v, w));
            } else {
                back.push((v, w.to_bits()));
            }
        }
        // Sorted by `(v, weight bits)`, this line's kept entries meet the
        // later lines that list them back in order. The builder sorts every
        // row by a total key of its own, so input order changes no bit of
        // the graph.
        edges[start..].sort_unstable_by_key(|&(_, v, w)| (v, w.to_bits()));
        let loops = edges[start..].iter().take_while(|e| e.1 == u).count();
        rows.push((start, start + loops));
        // Pair each `u > v` entry with line `v`'s next kept entry; the ones
        // it passes over no line up to `u` listed back.
        back.sort_unstable();
        for &(v, bits) in &back {
            let end = rows[v as usize + 1].0;
            loop {
                let next = rows[v as usize].1;
                match edges[next..end].first() {
                    Some(&(_, h, w)) if (h, w.to_bits()) <= (u, bits) => {
                        rows[v as usize].1 += 1;
                        if (h, w.to_bits()) == (u, bits) {
                            break;
                        }
                        note(v, h, w);
                    }
                    _ => {
                        note(u, v, f64::from_bits(bits));
                        break;
                    }
                }
            }
        }
    }
    if vertex != n {
        return Err(parse_err(
            0,
            format!("expected {n} vertex lines, found {vertex}"),
        ));
    }
    rows.push((edges.len(), edges.len()));
    // Kept entries still unpaired: no later line listed them back.
    if let Some(v) = (0..n).find(|&v| rows[v].1 < rows[v + 1].0) {
        let (_, h, w) = edges[rows[v].1];
        note(v as VertexId, h, w);
    }
    if let Some((u, v, w)) = unmirrored {
        return Err(parse_err(
            vertex_lines[u as usize],
            format!(
                "neighbor {} (weight {w}) is not listed back by vertex {}",
                v + 1,
                v + 1
            ),
        ));
    }
    if edges.len() != m {
        return Err(parse_err(
            header_line,
            format!("header m={m} does not match the edge count {}", edges.len()),
        ));
    }
    drop((vertex_lines, rows, back)); // not held through the build
    Ok(GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()?)
}

/// Writes the graph in METIS format with edge weights (`fmt = 1`). Weights
/// are written with full float precision (a superset of classic integer
/// METIS, accepted by our reader).
pub fn write_metis<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{} {} 1", g.num_vertices(), g.num_edges())?;
    for v in 0..g.num_vertices() as VertexId {
        let mut first = true;
        for (u, wt) in g.neighbors(v) {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{} {}", u + 1, wt)?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Community assignments and edge batches
// ---------------------------------------------------------------------------

/// Reads a community assignment: one `vertex community` line per vertex,
/// `#` comments, into a dense vector indexed by vertex.
///
/// The file must name every vertex `0..n` exactly once, where `n` is its
/// number of data lines. A duplicate vertex is a parse error at its line
/// that names the first; a vertex the file skips is a parse error at line
/// 0, since no one line is at fault.
pub fn read_assignment<R: Read>(reader: R) -> Result<Vec<u32>, IoError> {
    let mut pairs: Vec<(usize, u32, usize)> = Vec::new();
    for_each_line(&read_text(reader)?, &['#'], |line| {
        pairs.push((line.field("vertex")?, line.field("community")?, line.number));
        Ok("community")
    })?;
    // Sized by the line count, not the largest id: an id at or past the
    // count leaves some id below it unassigned, which the hole check below
    // reports, so one huge id cannot force a huge allocation.
    let n = pairs.len();
    let mut out = vec![0u32; n];
    // Line number that assigned each vertex; 0 marks "not yet seen".
    let mut seen_at = vec![0usize; n];
    for &(v, c, line) in &pairs {
        if v >= n {
            continue;
        }
        if seen_at[v] != 0 {
            return Err(parse_err(
                line,
                format!(
                    "duplicate assignment for vertex {v} (first assigned at line {})",
                    seen_at[v]
                ),
            ));
        }
        seen_at[v] = line;
        out[v] = c;
    }
    if let Some(v) = seen_at.iter().position(|&l| l == 0) {
        let largest = pairs.iter().map(|&(v, _, _)| v).max().unwrap_or(0);
        return Err(parse_err(
            0,
            format!("vertex {v} has no assignment (the file names vertices up to {largest})"),
        ));
    }
    Ok(out)
}

/// Formats an assignment as the `vertex community` lines
/// [`read_assignment`] reads.
pub fn format_assignment(assignment: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(assignment.len() * 8);
    for (v, c) in assignment.iter().enumerate() {
        writeln!(text, "{v} {c}").expect("formatting into a String cannot fail");
    }
    text
}

/// Reads an edge batch in [`parse_edge_batch`]'s format from `reader`.
pub fn read_edge_batch<R: Read>(reader: R) -> Result<Vec<EdgeDelta>, IoError> {
    parse_edge_batch(&read_text(reader)?)
}

/// Parses the edge-batch format `grappolo update` and `grappolo serve`
/// read: one operation per line, `#` comments.
///
/// ```text
/// + u v [w]   insert (weight defaults to 1; duplicates of an existing
///             edge merge per the caller's MergePolicy)
/// - u v       delete an existing edge
/// = u v w     set the weight of an existing edge
/// ```
pub fn parse_edge_batch(text: &str) -> Result<Vec<EdgeDelta>, IoError> {
    let mut batch = Vec::new();
    for_each_line(text, &['#'], |line| {
        // A data line is never empty, so the operation is always there.
        let op = line.fields.next().unwrap_or_default();
        let u: VertexId = line.field("source vertex")?;
        let v: VertexId = line.field("target vertex")?;
        let delta = match op {
            "+" => EdgeDelta::Insert {
                u,
                v,
                weight: line.optional("weight")?.unwrap_or(DEFAULT_WEIGHT),
            },
            "-" => EdgeDelta::Delete { u, v },
            "=" => EdgeDelta::Reweight {
                u,
                v,
                weight: line.field("weight")?,
            },
            other => {
                return Err(parse_err(
                    line.number,
                    format!("unknown operation `{other}` (expected `+`, `-`, or `=`)"),
                ))
            }
        };
        batch.push(delta);
        Ok("operation")
    })?;
    Ok(batch)
}

// ---------------------------------------------------------------------------
// .grb — versioned binary graph format
// ---------------------------------------------------------------------------

/// Magic prefix of a `.grb` file.
pub const GRB_MAGIC: &[u8; 8] = b"GRPLGRB\0";
/// The one `.grb` layout version written and read: the three CSR arrays
/// behind one header and ahead of one checksum.
pub const GRB_VERSION: u16 = 3;
/// Header size: magic (8) + version (2) + n (8) + adjacency entries (8).
const GRB_HEADER_LEN: usize = 26;
/// Words [`write_grb`] encodes into its reused buffer per write.
const GRB_WRITE_WORDS: usize = 1 << 16;

/// Incremental FNV-1a-64 over `u64` words — the `.grb` checksum.
///
/// Hashing the *decoded logical words* (each `offsets[v+1]`, each neighbor
/// id zero-extended, each weight's bit pattern) rather than raw bytes lets
/// the writer fold the hash into its encode loop and the reader into its
/// decode loop; the two are equivalent because every word maps bijectively
/// to its little-endian byte run.
struct GrbChecksum(u64);

impl GrbChecksum {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    #[inline]
    fn push(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }
}

/// Serializes the CSR arrays as `.grb` — all little-endian:
///
/// | bytes   | field                                                   |
/// |---------|---------------------------------------------------------|
/// | 0..8    | magic `"GRPLGRB\0"`                                     |
/// | 8..10   | version (`u16`, 3)                                      |
/// | 10..18  | vertex count `n` (`u64`)                                |
/// | 18..26  | adjacency entry count (`u64`)                           |
/// | …       | `offsets[1..=n]` (`n × u64`; `offsets[0]` is always 0)  |
/// | …       | neighbor ids (`entries × u32`)                          |
/// | …       | weights (`entries × u64` bit patterns)                  |
/// | last 8  | checksum: FNV-1a-64 over the three arrays' words        |
///
/// The write makes one pass: it encodes the arrays through one reused
/// buffer of 65 536 words and folds each word into the checksum on the
/// way, so its transient memory is that buffer, not the serialized graph.
///
/// The checksum carries the writer's validity guarantee across the round
/// trip: only already-validated [`CsrGraph`]s are ever serialized, so a
/// checksum-verified file needs just the linear structural checks on load
/// (offsets monotone and closing at the entry count, neighbor ids in range
/// and strictly ascending per vertex, weights finite and positive) — the
/// O(m log deg) mirror-symmetry search of [`CsrGraph::validate`] is
/// skipped. Corrupted bytes that survive the linear checks fail the
/// checksum.
pub fn write_grb<W: Write>(g: &CsrGraph, mut writer: W) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(GRB_HEADER_LEN + GRB_WRITE_WORDS * 8);
    buf.extend_from_slice(GRB_MAGIC);
    buf.extend_from_slice(&GRB_VERSION.to_le_bytes());
    buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_adjacency_entries() as u64).to_le_bytes());
    let mut sum = GrbChecksum::new();
    let offsets = &g.adjacency_offsets()[1..];
    let (targets, weights) = (g.adjacency_targets(), g.adjacency_weights());
    put_words::<_, 8>(&mut writer, &mut buf, &mut sum, offsets, |o| o as u64)?;
    put_words::<_, 4>(&mut writer, &mut buf, &mut sum, targets, u64::from)?;
    put_words::<_, 8>(&mut writer, &mut buf, &mut sum, weights, f64::to_bits)?;
    buf.extend_from_slice(&sum.0.to_le_bytes());
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Encodes `items` as `WIDTH`-byte little-endian words after what `buf`
/// holds, folding each word into `sum`, and writes `buf` out every
/// [`GRB_WRITE_WORDS`] items.
fn put_words<T: Copy, const WIDTH: usize>(
    writer: &mut impl Write,
    buf: &mut Vec<u8>,
    sum: &mut GrbChecksum,
    items: &[T],
    word: impl Fn(T) -> u64,
) -> io::Result<()> {
    for part in items.chunks(GRB_WRITE_WORDS) {
        for &item in part {
            let word = word(item);
            sum.push(word);
            buf.extend_from_slice(&word.to_le_bytes()[..WIDTH]);
        }
        writer.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Deserializes a `.grb` file written by [`write_grb`]. The resulting graph
/// is bitwise identical to the one serialized (offsets, neighbor ids and
/// weight bits round-trip exactly). A file of any other version is a parse
/// error that names its version; every other damage is a parse error that
/// names it, or a build error when the weights sum past the range
/// modularity needs.
pub fn read_grb<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let mut data = Vec::new();
    BufReader::new(reader).read_to_end(&mut data)?;
    parse_grb(&data)
}

fn parse_grb(data: &[u8]) -> Result<CsrGraph, IoError> {
    let damaged = |message: String| parse_err(0, format!(".grb {message}"));
    // Magic and version come first, so a file of a retired layout is named
    // as such even when it is shorter than this version's header.
    if data.len() < 10 {
        return Err(damaged("truncated: incomplete header".into()));
    }
    if &data[0..8] != GRB_MAGIC {
        return Err(parse_err(0, "bad magic; not a .grb graph file"));
    }
    let version = u16::from_le_bytes([data[8], data[9]]);
    if version != GRB_VERSION {
        return Err(damaged(format!(
            "version {version} unsupported (only version {GRB_VERSION} is read)"
        )));
    }
    if data.len() < GRB_HEADER_LEN {
        return Err(damaged("truncated: incomplete header".into()));
    }
    // Fully checked size arithmetic: a crafted header must come back as an
    // error, never an overflow panic or a truncated count.
    let size = |at: usize| usize::try_from(le_word(&data[at..at + 8])).ok();
    let (n, entries, need) = size(10)
        .zip(size(18))
        .and_then(|(n, entries)| {
            let arrays = n.checked_mul(8)?.checked_add(entries.checked_mul(12)?)?;
            Some((n, entries, arrays.checked_add(GRB_HEADER_LEN + 8)?))
        })
        .ok_or_else(|| damaged("header sizes overflow".into()))?;
    if data.len() != need {
        return Err(damaged(format!(
            "truncated or oversized: have {} bytes, need {need}",
            data.len()
        )));
    }
    let (offset_bytes, rest) = data[GRB_HEADER_LEN..].split_at(n * 8);
    let (target_bytes, rest) = rest.split_at(entries * 4);
    let (weight_bytes, stored) = rest.split_at(entries * 8);

    let mut sum = GrbChecksum::new();
    let mut offsets = vec![0usize; n + 1];
    let mut prev = 0;
    let ends = offsets[1..].iter_mut().zip(offset_bytes.chunks_exact(8));
    for (v, (slot, bytes)) in ends.enumerate() {
        let off = le_word(bytes);
        sum.push(off);
        if off < prev || off > entries as u64 {
            return Err(damaged(format!(
                "offset {off} for vertex {v} outside 0..={entries} or non-monotonic"
            )));
        }
        *slot = off as usize; // at most `entries`, a `usize`
        prev = off;
    }
    if prev != entries as u64 {
        return Err(damaged(format!(
            "last offset {prev} does not close the entry range at {entries}"
        )));
    }
    // One pass over the neighbor ids that tracks the row end, to check
    // each row's strictly ascending order.
    let mut targets = vec![0 as VertexId; entries];
    let mut v = 0;
    let mut prev_t: Option<VertexId> = None;
    let ids = targets.iter_mut().zip(target_bytes.chunks_exact(4));
    for (e, (slot, bytes)) in ids.enumerate() {
        while e >= offsets[v + 1] {
            v += 1;
            prev_t = None;
        }
        let t = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        sum.push(t.into());
        if t as usize >= n {
            return Err(damaged(format!(
                "neighbor id {t} of vertex {v} out of range (n = {n})"
            )));
        }
        if prev_t.is_some_and(|p| t <= p) {
            return Err(damaged(format!(
                "adjacency of vertex {v} not strictly ascending at entry {e}"
            )));
        }
        prev_t = Some(t);
        *slot = t;
    }
    let mut weights = vec![0.0f64; entries];
    let bit_patterns = weights.iter_mut().zip(weight_bytes.chunks_exact(8));
    for (e, (slot, bytes)) in bit_patterns.enumerate() {
        let bits = le_word(bytes);
        sum.push(bits);
        let w = f64::from_bits(bits);
        if !(w.is_finite() && w > 0.0) {
            return Err(damaged(format!(
                "weight {w} at entry {e} not finite and positive"
            )));
        }
        *slot = w;
    }
    let stored = le_word(stored);
    if sum.0 != stored {
        return Err(damaged(format!(
            "checksum mismatch (stored {stored:#018x}, computed {:#018x})",
            sum.0
        )));
    }

    // Trust model: the decode above already enforced every CSR invariant a
    // linear scan can see (offsets tile and close, neighbor ids in range and
    // strictly ascending per vertex, weights finite and positive), and the
    // checksum ties the arrays back to the writer — which only ever
    // serializes validated graphs. The one remaining `validate` check, the
    // O(m log deg) mirror-symmetry search, is therefore skipped here; it
    // would dominate the load. All downstream access is bounds-checked, so
    // even an adversarial file that forged its checksum stays memory-safe.
    // Finite weights can still sum past the range modularity needs: that
    // O(n) check runs on the cached degrees.
    let g = CsrGraph::from_sorted_adjacency(offsets, targets, weights);
    g.check_weight_range()
        .map_err(|e| IoError::Build(BuildError::WeightRange(e)))?;
    Ok(g)
}

/// The little-endian `u64` in the 8 bytes `bytes`.
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

/// Monotone discriminator for temp-file names, so concurrent writers in one
/// process never collide on the same sibling.
static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A hidden temp sibling in the same directory as `path` (same filesystem,
/// so the final rename is atomic). The name carries the pid and a counter;
/// collisions across crashed runs are harmless because the temp is always
/// recreated with `File::create` (truncate).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let k = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    path.with_file_name(format!(".{name}.tmp.{}.{k}", std::process::id()))
}

/// Crash-safe file replacement: `write` streams into a temp sibling, the
/// temp is flushed and fsynced, and only then renamed over `path`. A crash,
/// power cut, or injected fault at any point leaves either the old file
/// intact or no file — never a truncated one. On any error the temp is
/// removed before the error propagates.
///
/// The containing directory is fsynced after the rename (best effort) so
/// the new directory entry is durable too.
pub fn write_atomic(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let path = path.as_ref();
    let tmp = temp_sibling(path);
    let result = (|| -> Result<(), IoError> {
        let f = std::fs::File::create(&tmp)?;
        let mut w = BufWriter::new(f);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        Ok(())
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`write_atomic`] for a prepared byte buffer — the crash-safe replacement
/// for `std::fs::write` used by assignment/trace emitters.
pub fn write_bytes_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), IoError> {
    write_atomic(path, |w| Ok(w.write_all(bytes)?))
}

/// Test/CI support: names of [`write_atomic`] temp siblings left in `dir`.
/// A clean run — even one whose writes were crashed or fault-injected —
/// leaves this empty.
pub fn list_tmp_siblings(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect()
}

/// Why a `.bin` path is refused rather than read or written as an edge list.
const BIN_REMOVED: &str = "the `.bin` graph format was removed; use `.grb`";

/// Loads a graph, dispatching on extension: `.graph`/`.metis` METIS, `.grb`
/// binary, anything else an edge list. A `.bin` path is refused.
pub fn load_path(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    let path = path.as_ref();
    let open = || std::fs::File::open(path);
    match path.extension().and_then(|e| e.to_str()) {
        Some("graph") | Some("metis") => read_metis(open()?),
        Some("grb") => read_grb(open()?),
        Some("bin") => Err(parse_err(0, BIN_REMOVED)),
        _ => read_edge_list(open()?),
    }
}

/// Saves a graph, dispatching on extension like [`load_path`]. Every
/// format goes through [`write_atomic`]: the bytes land in a temp sibling
/// that is fsynced and atomically renamed over `path`, so a crash or an
/// injected fault mid-write leaves the previous file (or nothing), never a
/// truncated graph. A `.bin` path is refused before anything is created.
pub fn save_path(g: &CsrGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    match path.extension().and_then(|e| e.to_str()) {
        Some("graph") | Some("metis") => write_atomic(path, |w| write_metis(g, w)),
        Some("grb") => write_atomic(path, |w| write_grb(g, w)),
        Some("bin") => Err(parse_err(0, BIN_REMOVED)),
        _ => write_atomic(path, |w| write_edge_list(g, w)),
    }
}

#[cfg(test)]
mod grb_mutations;

#[cfg(test)]
mod line_mutations;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;

    pub(super) fn sample() -> CsrGraph {
        from_weighted_edges(
            4,
            [
                (0, 1, 1.0),
                (1, 2, 2.5),
                (2, 3, 0.75),
                (3, 0, 1.0),
                (1, 1, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_list_round_trip() {
        // Inexact weights and a self-loop, and a blocks graph whose trailing
        // isolated vertices only the header's `n` keeps: both bitwise.
        let inexact = from_weighted_edges(2, [(0, 1, 0.1), (1, 1, 1.0 / 3.0)]).unwrap();
        let blocks = crate::gen::planted_blocks(&[200, 100], 16, 17);
        for g in [inexact, blocks] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            assert!(read_edge_list(&buf[..]).unwrap().bitwise_eq(&g));
        }
    }

    #[test]
    fn line_formats_name_the_line_and_round_trip() {
        type Reader = fn(&[u8]) -> Result<(), IoError>;
        let edges: Reader = |bytes| read_edge_list(bytes).map(drop);
        let metis: Reader = |bytes| read_metis(bytes).map(drop);
        let batch: Reader = |bytes| read_edge_batch(bytes).map(drop);
        let assign: Reader = |bytes| read_assignment(bytes).map(drop);
        // The line formats' error contract, one malformed input per row: the
        // reader, the input, and `<line>: <message>`, where the 1-based line
        // counts comment and blank lines. The seed corpus for fuzzing.
        let rows: &[(Reader, &[u8], &str)] = &[
            (edges, b"# c\n\n0 1\n0\n", "4: missing target id"),
            // Every text format names the line of a byte that is not UTF-8,
            // comment lines included.
            (edges, b"0 1\n# \xFF\n", "2: line is not UTF-8"),
            (metis, b"3 2\n2\n1 3\xFF\n2\n", "3: line is not UTF-8"),
            // The bytes are decoded before any line parses.
            (metis, b"3 2\n2\n1 x\n\xFF\n", "4: line is not UTF-8"),
            (batch, b"+ 0 1\n\n- \xFF 1\n", "3: line is not UTF-8"),
            (assign, b"\xFF0 0\n", "1: line is not UTF-8"),
            (edges, b"0 1 w\n", "1: bad weight: invalid float literal"),
            (edges, b"0 1 2 3\n", "1: trailing tokens after weight"),
            // The writer's first-line header fixes `n` and `m`.
            (
                edges,
                b"# grappolo edge list: n=2 m=1\n0 2\n",
                "2: vertex id 2 out of 0..2 (header n=2)",
            ),
            (
                edges,
                b"# grappolo edge list: n=3 m=2\n0 1\n",
                "1: header m=2 does not match the edge count 1",
            ),
            (
                edges,
                b"# grappolo edge list: n=x m=1\n0 1\n",
                "1: bad header n: invalid digit found in string",
            ),
            // A METIS body must mirror every edge and match the header's m.
            (
                metis,
                b"3 2\n\n1 3\n2\n",
                "3: neighbor 1 (weight 1) is not listed back by vertex 1",
            ),
            (
                metis,
                b"3 5\n2\n1 3\n2\n",
                "1: header m=5 does not match the edge count 2",
            ),
            // The earliest line is named, even when a later line shows it.
            (
                metis,
                b"4 2\n4\n3\n2\n\n",
                "2: neighbor 4 (weight 1) is not listed back by vertex 4",
            ),
            (
                metis,
                b"2 1 1\n2 1.5\n1 2\n",
                "2: neighbor 2 (weight 1.5) is not listed back by vertex 2",
            ),
            (
                batch,
                b"+ 0 1\n* 2 3\n",
                "2: unknown operation `*` (expected `+`, `-`, or `=`)",
            ),
            // `%` starts a comment in edge lists only.
            (
                batch,
                b"% c\n",
                "1: bad source vertex: invalid digit found in string",
            ),
            (batch, b"# c\n\n+ 0\n", "3: missing target vertex"),
            (batch, b"= 0 1\n", "1: missing weight"),
            (batch, b"+ 0 1 w\n", "1: bad weight: invalid float literal"),
            (batch, b"- 0 1 9\n", "1: trailing tokens after operation"),
            (assign, b"0 0\n\n1\n", "3: missing community"),
            (assign, b"0 0 junk\n", "1: trailing tokens after community"),
            (
                assign,
                b"0 1\n1 2\n# c\n1 3\n",
                "4: duplicate assignment for vertex 1 (first assigned at line 2)",
            ),
            // A skipped vertex is no one line's fault.
            (
                assign,
                b"0 1\n2 1\n",
                "0: vertex 1 has no assignment (the file names vertices up to 2)",
            ),
        ];
        for &(read, text, expected) in rows {
            let shown = String::from_utf8_lossy(text);
            match read(text) {
                Err(IoError::Parse { line, message }) => {
                    assert_eq!(format!("{line}: {message}"), expected, "{shown:?}")
                }
                other => panic!("{shown:?}: {other:?}"),
            }
        }
        let assignment = [3, 0, 0, 7, 1];
        let text = format_assignment(&assignment);
        assert_eq!(read_assignment(text.as_bytes()).unwrap(), assignment);
    }

    #[test]
    fn edge_list_comments_and_defaults() {
        let text = "# comment\n% another\n0 1\n1 2 2.5\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn edge_list_explicit_n_pads_isolated() {
        let text = "# grappolo edge list: n=10 m=1\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("0 1 2 3\n".as_bytes()).is_err());
    }

    #[test]
    fn edge_list_rejects_ids_past_vertex_id_range() {
        // 2^32 is no `VertexId`: an error naming its line, not edge (0, 1) on
        // a graph of 2^32 + 1 vertices.
        for (text, at) in [("0 1\n4294967296 1\n", 2), ("1 4294967296\n", 1)] {
            match read_edge_list(text.as_bytes()) {
                Err(IoError::Parse { line, .. }) => assert_eq!(line, at),
                other => panic!("{text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn metis_round_trip() {
        let g = sample();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let g2 = read_metis(&buf[..]).unwrap();
        assert!(g2.bitwise_eq(&g));
        assert_eq!(g2.self_loop_weight(1), 3.0);
    }

    #[test]
    fn metis_unweighted_parse() {
        // 3-path: 1-2-3 in 1-based METIS ids.
        let text = "3 2\n2\n1 3\n2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn metis_pairs_lines_in_any_order() {
        // Unsorted neighbors, a self-loop and an edge listed twice on both
        // ends: every entry pairs with its mirror, and the builder sums the
        // duplicates as it would from any edge list.
        let text = "3 4 1\n3 2 2 1 1 5 2 1\n1 1 1 1\n1 2\n";
        let expected =
            from_weighted_edges(3, [(0, 2, 2.0), (0, 1, 1.0), (0, 0, 5.0), (0, 1, 1.0)]).unwrap();
        assert!(read_metis(text.as_bytes()).unwrap().bitwise_eq(&expected));
    }

    #[test]
    fn metis_with_comments() {
        let text = "% hello\n3 2\n% mid comment\n2\n1 3\n2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn metis_rejects_bad_ids() {
        let text = "3 2\n4\n1 3\n2\n"; // neighbor 4 > n=3
        assert!(read_metis(text.as_bytes()).is_err());
        let text2 = "3 2\n0\n1 3\n2\n"; // neighbor 0 invalid (1-based)
        assert!(read_metis(text2.as_bytes()).is_err());
    }

    #[test]
    fn metis_wrong_line_count() {
        assert!(read_metis("3 1\n2\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn path_dispatch_round_trip() {
        let dir = std::env::temp_dir().join("grappolo_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        for name in ["g.edges", "g.graph", "g.grb"] {
            let p = dir.join(name);
            save_path(&g, &p).unwrap();
            let g2 = load_path(&p).unwrap();
            assert_eq!(g2.num_edges(), g.num_edges(), "format {name}");
            assert!((g2.total_weight() - g.total_weight()).abs() < 1e-12);
        }
    }

    fn assert_grb_bitwise_equal(a: &CsrGraph, b: &CsrGraph) {
        assert!(a.bitwise_eq(b), "CSR storage not bitwise equal");
    }

    /// A weighted path on `n` vertices: its rows, weights and offsets all
    /// differ from vertex to vertex.
    pub(super) fn chain(n: usize) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId, f64)> = (0..n - 1)
            .map(|i| (i as VertexId, (i + 1) as VertexId, 1.0 + i as f64 * 0.25))
            .collect();
        from_weighted_edges(n, edges).unwrap()
    }

    /// `g` written as `.grb`.
    fn grb_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_grb(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn grb_round_trip_is_bitwise_exact() {
        // Awkward weights (subnormal-ish fractions, repeated values) and a
        // self-loop; and a chain whose 79 998 entries span two of the
        // writer's buffer loads.
        let awkward = from_weighted_edges(
            5,
            [
                (0, 1, 0.1),
                (1, 2, 1.0 / 3.0),
                (2, 3, 2.5e-13),
                (3, 4, 7.0),
                (4, 0, 0.1),
                (2, 2, 1.5),
            ],
        )
        .unwrap();
        for g in [awkward, sample(), chain(11), chain(40_000)] {
            let buf = grb_bytes(&g);
            let (n, entries) = (g.num_vertices(), g.num_adjacency_entries());
            assert_eq!(buf.len(), GRB_HEADER_LEN + 8 * n + 12 * entries + 8);
            let g2 = read_grb(&buf[..]).unwrap();
            assert_grb_bitwise_equal(&g, &g2);
            assert_eq!(g2.num_edges(), g.num_edges());
            assert_eq!(g2.total_weight().to_bits(), g.total_weight().to_bits());
        }
    }

    #[test]
    fn grb_empty_graph_round_trip() {
        let g = CsrGraph::empty(3);
        let g2 = read_grb(&grb_bytes(&g)[..]).unwrap();
        assert_eq!(g2.num_vertices(), 3);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn grb_zero_vertex_graph_round_trip() {
        let g = CsrGraph::empty(0);
        let buf = grb_bytes(&g);
        let g2 = read_grb(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_edges(), 0);
        assert_grb_bitwise_equal(&g, &g2);
        // Truncating any prefix of the header-and-checksum file errors
        // instead of panicking.
        for keep in 0..buf.len() {
            assert!(read_grb(&buf[..keep]).is_err(), "keep={keep}");
        }
        // Trailing garbage is rejected: the format is exact-size even at n=0.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(read_grb(&padded[..]).is_err());
    }

    #[test]
    fn grb_rejects_weights_out_of_range() {
        use crate::csr::WeightRangeError;
        // Every weight is finite, so the decode's per-entry check passes;
        // vertex 1's degree overflows.
        let g = CsrGraph::from_sorted_adjacency(vec![0, 1, 3, 4], vec![1, 0, 2, 1], vec![1e308; 4]);
        match read_grb(&grb_bytes(&g)[..]) {
            Err(IoError::Build(BuildError::WeightRange(WeightRangeError::Degree {
                vertex: 1,
                degree,
            }))) => assert_eq!(degree, f64::INFINITY),
            other => panic!("expected a degree overflow, got {other:?}"),
        }
    }

    #[test]
    fn grb_rejects_bad_magic() {
        let mut buf = grb_bytes(&sample());
        buf[3] ^= 0xFF;
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn grb_rejects_unsupported_version() {
        let mut buf = grb_bytes(&sample());
        buf[8] = 0xEE; // version LSB
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 238"), "{err}");
    }

    #[test]
    fn grb_rejects_truncation_at_every_section() {
        // Cuts in the header, each array and the checksum all fail cleanly.
        let buf = grb_bytes(&chain(9));
        for keep in 0..buf.len() {
            assert!(read_grb(&buf[..keep]).is_err(), "keep={keep}");
        }
        // Trailing garbage is also rejected (exact-size format).
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; 3]);
        let err = read_grb(&padded[..]).unwrap_err();
        assert!(err.to_string().contains("truncated or oversized"), "{err}");
    }

    #[test]
    fn grb_rejects_overflowing_header_sizes() {
        // n = entries = u64::MAX: the size arithmetic must error, not
        // overflow-panic (debug builds) or allocate absurdly.
        let mut buf = Vec::new();
        buf.extend_from_slice(GRB_MAGIC);
        buf.extend_from_slice(&GRB_VERSION.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // entries
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn grb_rejects_corrupt_offsets() {
        let mut buf = grb_bytes(&sample());
        // The first stored offset: vertex 0's row end.
        let at = GRB_HEADER_LEN;
        buf[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("for vertex 0"), "{err}");
    }

    #[test]
    fn grb_damage_errors_name_the_damage() {
        // chain(9): vertex 0's row is [1], vertex 1's is [0, 2], … — 16
        // entries in all.
        let g = chain(9);
        let buf = grb_bytes(&g);
        let targets_at = GRB_HEADER_LEN + 9 * 8;
        let weights_at = targets_at + 16 * 4;
        let set = |at: usize, bytes: &[u8]| {
            let mut bad = buf.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            read_grb(&bad[..]).unwrap_err().to_string()
        };
        for (err, expected) in [
            // Vertex 1's row end pulled below vertex 0's.
            (
                set(GRB_HEADER_LEN + 8, &0u64.to_le_bytes()),
                "offset 0 for vertex 1",
            ),
            // The last offset no longer closes the entries.
            (
                set(targets_at - 8, &15u64.to_le_bytes()),
                "last offset 15 does not close the entry range at 16",
            ),
            (
                set(targets_at, &9u32.to_le_bytes()),
                "neighbor id 9 of vertex 0 out of range (n = 9)",
            ),
            // Vertex 1's row [0, 2] becomes [2, 2].
            (
                set(targets_at + 4, &2u32.to_le_bytes()),
                "adjacency of vertex 1 not strictly ascending at entry 2",
            ),
            (
                set(weights_at + 8, &0u64.to_le_bytes()),
                "weight 0 at entry 1 not finite and positive",
            ),
            (
                set(buf.len() - 8, &[0; 8]),
                "checksum mismatch (stored 0x0000000000000000",
            ),
        ] {
            assert!(err.contains(expected), "{err}");
        }
    }

    #[test]
    fn grb_checksum_catches_structurally_plausible_corruption() {
        // Flip the lowest mantissa bit of the final weight: still a finite
        // positive weight and the size is intact, so only the checksum can
        // tell the arrays no longer match what was written.
        let mut buf = grb_bytes(&chain(9));
        let len = buf.len();
        buf[len - 16] ^= 0x01;
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains(".grb checksum mismatch"), "{err}");
    }

    #[test]
    fn save_path_writes_v3_and_refuses_older_versions() {
        let dir = std::env::temp_dir().join("grappolo_io_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = chain(12);
        let path = dir.join("g.grb");
        save_path(&g, &path).unwrap();
        let head = std::fs::read(&path).unwrap();
        assert_eq!(u16::from_le_bytes([head[8], head[9]]), GRB_VERSION);
        assert_grb_bitwise_equal(&g, &load_path(&path).unwrap());
        // The empty graph as the retired writers laid it out: v1 (magic,
        // version 1, flags, n = 0, no entries, offsets [0]) and v2 (magic,
        // version 2, flags, n = 0, no entries, chunk size, no chunks). Each
        // is a typed parse error naming its version.
        let v1 = [&GRB_MAGIC[..], &[1, 0, 0, 0], &[0; 24]].concat();
        let v2 = [
            &GRB_MAGIC[..],
            &[2, 0, 0, 0],
            &[0; 16],
            &4096u64.to_le_bytes(),
            &[0; 8],
        ]
        .concat();
        for (version, bytes) in [(1, v1), (2, v2)] {
            let old = dir.join(format!("g_v{version}.grb"));
            std::fs::write(&old, bytes).unwrap();
            let err = load_path(&old).unwrap_err();
            assert!(matches!(err, IoError::Parse { .. }), "{err}");
            let expected = format!(".grb version {version} unsupported");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn write_atomic_leaves_no_temp_on_success() {
        let dir = std::env::temp_dir().join("grappolo_io_atomic_ok");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        for name in ["a.grb", "a.graph", "a.edges"] {
            let p = dir.join(name);
            save_path(&g, &p).unwrap();
            assert!(
                load_path(&p).unwrap().num_edges() == g.num_edges(),
                "{name}"
            );
        }
        assert!(
            list_tmp_siblings(&dir).is_empty(),
            "temp siblings leaked: {:?}",
            list_tmp_siblings(&dir)
        );
    }

    #[test]
    fn write_atomic_failed_write_preserves_old_file_and_cleans_temp() {
        // A writer that fails mid-stream must leave the previous contents
        // bitwise intact and remove its temp sibling — the crash-safety
        // contract `grappolo_serve`'s failpoint tests lean on.
        let dir = std::env::temp_dir().join("grappolo_io_atomic_fail");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("keep.grb");
        save_path(&sample(), &p).unwrap();
        let before = std::fs::read(&p).unwrap();
        let err = write_atomic(&p, |w| {
            // Partial bytes, then a failure — simulating a torn write.
            w.write_all(b"partial garbage")?;
            Err(parse_err(0, "injected mid-write failure"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("injected mid-write failure"));
        assert_eq!(std::fs::read(&p).unwrap(), before, "target was touched");
        assert!(
            list_tmp_siblings(&dir).is_empty(),
            "failed write leaked temp files"
        );
        // The surviving file still loads.
        assert!(load_path(&p).is_ok());
    }

    #[test]
    fn write_bytes_atomic_round_trip_and_replace() {
        let dir = std::env::temp_dir().join("grappolo_io_atomic_bytes");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("assign.txt");
        write_bytes_atomic(&p, b"0 0\n1 1\n").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"0 0\n1 1\n");
        // Replacement is whole-file: no blend of old and new.
        write_bytes_atomic(&p, b"0 7\n").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"0 7\n");
        assert!(list_tmp_siblings(&dir).is_empty());
    }

    #[test]
    fn write_atomic_errors_on_missing_directory() {
        let p = std::env::temp_dir()
            .join("grappolo_io_atomic_missing")
            .join("no_such_subdir")
            .join("x.grb");
        assert!(save_path(&sample(), &p).is_err());
    }
}
