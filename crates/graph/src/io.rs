//! Every file format the tools exchange: graphs (whitespace edge-list text,
//! METIS — the DIMACS10 distribution format of the paper's inputs — and the
//! `.grb` binary format), `vertex community` assignments
//! ([`read_assignment`]/[`format_assignment`]) and `+`/`-`/`=` edge batches
//! ([`parse_edge_batch`]).
//!
//! `.grb` ([`write_grb`]/[`read_grb`]) serializes the CSR arrays directly,
//! so big benchmark graphs load in O(read) instead of re-parsing and
//! re-sorting an edge list. It is a load cache: only [`GRB_VERSION`] is
//! read, and a file of an older layout is regenerated from its source.
//!
//! The edge-list, assignment and batch parsers share one line reader: blank
//! lines and comment lines are skipped but counted, a field that is absent
//! or does not parse is `missing <field>` or `bad <field>: <err>`, and a
//! field past the last is `trailing tokens after <field>` — each an
//! [`IoError::Parse`] naming its 1-based line.
//!
//! Graph readers produce graphs satisfying [`crate::csr::CsrGraph::validate`];
//! all writers round-trip exactly with their readers (under test).

use crate::builder::{BuildError, GraphBuilder};
use crate::csr::{CsrGraph, VertexId, DEFAULT_WEIGHT};
use crate::delta::EdgeDelta;
use crate::shared::SharedSlice;
use rayon::prelude::*;
use std::fmt::Display;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

/// Reads a whitespace-separated edge list: `u v [w]` per line, 0-based vertex
/// ids, optional weight (default 1). Lines starting with `#` or `%` are
/// comments. The vertex count is `1 + max id` unless a larger `n` is given.
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<CsrGraph, IoError> {
    let text = io::read_to_string(reader)?;
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    // One past the largest id read; 0 while there are no edges.
    let mut inferred = 0;
    for_each_line(&text, &['#', '%'], |line| {
        // Ids parse straight into `VertexId`, so an id past its range is a
        // parse error on its line, never a silently truncated vertex.
        let u: VertexId = line.field("source id")?;
        let v: VertexId = line.field("target id")?;
        let w = line.optional("weight")?.unwrap_or(DEFAULT_WEIGHT);
        inferred = inferred.max(u.max(v) as usize + 1);
        edges.push((u, v, w));
        Ok("weight")
    })?;
    drop(text); // not held through the build, which has its own copies
    let n = n.unwrap_or(0).max(inferred);
    Ok(GraphBuilder::with_capacity(n, edges.len())
        .extend_edges(edges)
        .build()?)
}

/// Writes the graph as an edge list (`u v w` per undirected edge, once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# grappolo edge list: n={} m={}",
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
pub fn read_metis<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    // Header: first non-comment line.
    let (n, _m, has_edge_weights, has_vertex_weights) = loop {
        let (idx, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, "empty METIS file"))?;
        let line = line?;
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
        break (n, m, ew, vw);
    };

    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let mut vertex = 0usize;
    for (idx, line) in lines {
        let line = line?;
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
            }
        }
    }
    if vertex != n {
        return Err(parse_err(
            0,
            format!("expected {n} vertex lines, found {vertex}"),
        ));
    }
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
    for_each_line(&io::read_to_string(reader)?, &['#'], |line| {
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
/// The one `.grb` layout version written and read: vertex-range chunks
/// behind a chunk table, written streamed and decoded in parallel.
pub const GRB_VERSION: u16 = 2;
/// Fixed v2 header size: magic (8) + version (2) + flags (2) + n (8) +
/// entries (8) + chunk size (8) + chunk count (8).
const GRB_V2_HEADER_LEN: usize = 44;
/// Bytes per chunk-table record: first vertex, vertex count, first adjacency
/// entry, entry count, payload checksum — each `u64`.
const GRB_V2_TABLE_RECORD: usize = 40;

/// Incremental FNV-1a-64 over `u64` words — the v2 per-chunk checksum.
///
/// Hashing the chunk's *decoded logical words* (each `offsets[v+1]`, each
/// neighbor id zero-extended, each weight's bit pattern) rather than raw
/// bytes lets the writer fold the hash over the CSR arrays directly and the
/// reader fold it into its decode loop; the two are equivalent because every
/// word maps bijectively to its little-endian byte run.
#[derive(Clone, Copy)]
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

    fn finish(self) -> u64 {
        self.0
    }
}

/// Deserializes a `.grb` buffer written by [`write_grb`]. The resulting
/// graph is bitwise identical to the one serialized (offsets, neighbor ids
/// and weight bits round-trip exactly). A file of any other version is a
/// parse error that names its version.
pub fn read_grb<R: Read>(reader: R) -> Result<CsrGraph, IoError> {
    let mut data = Vec::new();
    BufReader::new(reader).read_to_end(&mut data)?;
    parse_grb(&data)
}

fn parse_grb(data: &[u8]) -> Result<CsrGraph, IoError> {
    // Magic and version come first, so a file of a retired layout is named
    // as such even when it is shorter than a v2 header.
    if data.len() < 10 {
        return Err(parse_err(0, ".grb truncated: incomplete header"));
    }
    if &data[0..8] != GRB_MAGIC {
        return Err(parse_err(0, "bad magic; not a .grb graph file"));
    }
    let version = u16::from_le_bytes(data[8..10].try_into().unwrap());
    if version != GRB_VERSION {
        return Err(parse_err(
            0,
            format!(".grb version {version} unsupported (only version {GRB_VERSION} is read)"),
        ));
    }
    parse_grb_v2(data)
}

/// Vertices per chunk [`write_grb`] sections a graph into: about 64 chunks
/// on large graphs (plenty of parallel decode slack for any realistic pool,
/// with stealing absorbing degree skew between vertex ranges), floored so
/// tiny graphs don't pay table overhead per handful of vertices.
fn grb_chunk_vertices(n: usize) -> usize {
    n.div_ceil(64).max(4096)
}

/// Serializes the CSR arrays into the sectioned `.grb` layout — all
/// little-endian:
///
/// | bytes          | field                                        |
/// |----------------|----------------------------------------------|
/// | 0..8           | magic `"GRPLGRB\0"`                          |
/// | 8..10          | version (`u16`, 2)                           |
/// | 10..12         | flags (`u16`, reserved, 0)                   |
/// | 12..20         | vertex count `n` (`u64`)                     |
/// | 20..28         | adjacency entry count (`u64`)                |
/// | 28..36         | vertices per chunk (`u64`)                   |
/// | 36..44         | chunk count (`u64`)                          |
/// | …              | chunk table: per chunk, 5 × `u64` —          |
/// |                | first vertex, vertex count, first entry,     |
/// |                | entry count, payload checksum (FNV-1a-64     |
/// |                | over the chunk's decoded words)              |
/// | …              | per chunk, in order: offsets (`count × u64`, |
/// |                | the absolute `offsets[v+1]` run), neighbor   |
/// |                | ids (`entries × u32`), weights (`entries ×   |
/// |                | f64` bit patterns)                           |
///
/// The write is **streamed**: header and table first, then one chunk's
/// sections at a time through a reused buffer, so peak transient memory is
/// one chunk rather than the whole serialized graph. The chunk table gives
/// the reader an independent byte range and entry range per chunk, which is
/// what lets [`read_grb`] decode and bounds-check chunks in parallel.
///
/// The per-chunk checksum carries the writer's validity guarantee across the
/// round-trip: only already-validated [`CsrGraph`]s are ever serialized, so a
/// checksum-verified chunk needs just the linear structural checks on load
/// (offsets monotone and range-closing, neighbor ids in range and strictly
/// ascending per vertex, weights finite and positive) — the O(m log deg)
/// mirror-symmetry search of [`CsrGraph::validate`] is skipped. Corrupted
/// bytes that survive the linear checks fail the checksum with a
/// chunk-indexed error.
pub fn write_grb<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    write_grb_chunked(g, writer, grb_chunk_vertices(g.num_vertices()))
}

/// [`write_grb`] with an explicit chunk granularity (tests pick small ones;
/// any `chunk_vertices ≥ 1` produces a valid, bitwise round-tripping file).
fn write_grb_chunked<W: Write>(
    g: &CsrGraph,
    writer: W,
    chunk_vertices: usize,
) -> Result<(), IoError> {
    let n = g.num_vertices();
    let entries = g.num_adjacency_entries();
    let chunk_vertices = chunk_vertices.max(1);
    let num_chunks = n.div_ceil(chunk_vertices);
    let offsets = g.adjacency_offsets();

    let mut w = BufWriter::new(writer);
    let mut head = Vec::with_capacity(GRB_V2_HEADER_LEN + num_chunks * GRB_V2_TABLE_RECORD);
    head.extend_from_slice(GRB_MAGIC);
    head.extend_from_slice(&GRB_VERSION.to_le_bytes());
    head.extend_from_slice(&0u16.to_le_bytes());
    head.extend_from_slice(&(n as u64).to_le_bytes());
    head.extend_from_slice(&(entries as u64).to_le_bytes());
    head.extend_from_slice(&(chunk_vertices as u64).to_le_bytes());
    head.extend_from_slice(&(num_chunks as u64).to_le_bytes());
    for c in 0..num_chunks {
        let first_v = c * chunk_vertices;
        let last_v = (first_v + chunk_vertices).min(n);
        let (e_lo, e_hi) = (offsets[first_v], offsets[last_v]);
        head.extend_from_slice(&(first_v as u64).to_le_bytes());
        head.extend_from_slice(&((last_v - first_v) as u64).to_le_bytes());
        head.extend_from_slice(&(e_lo as u64).to_le_bytes());
        head.extend_from_slice(&((e_hi - e_lo) as u64).to_le_bytes());
        let mut sum = GrbChecksum::new();
        for &off in &offsets[first_v + 1..=last_v] {
            sum.push(off as u64);
        }
        for &t in &g.adjacency_targets()[e_lo..e_hi] {
            sum.push(t as u64);
        }
        for &wt in &g.adjacency_weights()[e_lo..e_hi] {
            sum.push(wt.to_bits());
        }
        head.extend_from_slice(&sum.finish().to_le_bytes());
    }
    w.write_all(&head)?;

    let mut buf = Vec::new();
    for c in 0..num_chunks {
        let first_v = c * chunk_vertices;
        let last_v = (first_v + chunk_vertices).min(n);
        let (e_lo, e_hi) = (offsets[first_v], offsets[last_v]);
        buf.clear();
        buf.reserve((last_v - first_v) * 8 + (e_hi - e_lo) * 12);
        for &off in &offsets[first_v + 1..=last_v] {
            buf.extend_from_slice(&(off as u64).to_le_bytes());
        }
        for &t in &g.adjacency_targets()[e_lo..e_hi] {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for &wt in &g.adjacency_weights()[e_lo..e_hi] {
            buf.extend_from_slice(&wt.to_bits().to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(())
}

/// One parsed chunk-table record of a v2 file.
#[derive(Clone, Copy)]
struct GrbChunk {
    first_vertex: usize,
    num_vertices: usize,
    first_entry: usize,
    num_entries: usize,
    /// Stored payload checksum ([`GrbChecksum`] over the decoded words).
    checksum: u64,
    /// Byte offset of this chunk's payload within the file.
    payload_at: usize,
}

impl GrbChunk {
    fn payload_len(&self) -> Option<usize> {
        let v = self.num_vertices.checked_mul(8)?;
        let e = self.num_entries.checked_mul(12)?;
        v.checked_add(e)
    }
}

fn parse_grb_v2(data: &[u8]) -> Result<CsrGraph, IoError> {
    let chunk_err = |c: usize, msg: String| parse_err(0, format!(".grb v2 chunk {c}: {msg}"));
    if data.len() < GRB_V2_HEADER_LEN {
        return Err(parse_err(0, ".grb v2 truncated: incomplete header"));
    }
    let n = u64::from_le_bytes(data[12..20].try_into().unwrap()) as usize;
    let entries = u64::from_le_bytes(data[20..28].try_into().unwrap()) as usize;
    let chunk_vertices = u64::from_le_bytes(data[28..36].try_into().unwrap()) as usize;
    let num_chunks = u64::from_le_bytes(data[36..44].try_into().unwrap()) as usize;
    if n > 0 && chunk_vertices == 0 {
        return Err(parse_err(0, ".grb v2 chunk size must be positive"));
    }
    if num_chunks != n.div_ceil(chunk_vertices.max(1)) {
        return Err(parse_err(
            0,
            format!(
                ".grb v2 chunk count {num_chunks} inconsistent with {n} vertices / {chunk_vertices} per chunk"
            ),
        ));
    }
    // Fully checked size arithmetic: a crafted header must come back as an
    // error, never an overflow panic.
    let need = num_chunks
        .checked_mul(GRB_V2_TABLE_RECORD)
        .and_then(|t| t.checked_add(GRB_V2_HEADER_LEN))
        .and_then(|h| n.checked_mul(8).and_then(|o| h.checked_add(o)))
        .and_then(|h| entries.checked_mul(12).and_then(|e| h.checked_add(e)))
        .ok_or_else(|| parse_err(0, ".grb v2 header sizes overflow"))?;
    if data.len() != need {
        return Err(parse_err(
            0,
            format!(
                ".grb v2 truncated or oversized: have {} bytes, need {need}",
                data.len()
            ),
        ));
    }

    // The chunk table must tile 0..n and 0..entries contiguously; every
    // violation names the offending chunk.
    let mut chunks = Vec::with_capacity(num_chunks);
    let mut payload_at = GRB_V2_HEADER_LEN + num_chunks * GRB_V2_TABLE_RECORD;
    let (mut next_vertex, mut next_entry) = (0usize, 0usize);
    for c in 0..num_chunks {
        let at = GRB_V2_HEADER_LEN + c * GRB_V2_TABLE_RECORD;
        let field =
            |i: usize| u64::from_le_bytes(data[at + i * 8..at + (i + 1) * 8].try_into().unwrap());
        let chunk = GrbChunk {
            first_vertex: field(0) as usize,
            num_vertices: field(1) as usize,
            first_entry: field(2) as usize,
            num_entries: field(3) as usize,
            checksum: field(4),
            payload_at,
        };
        if chunk.first_vertex != next_vertex {
            return Err(chunk_err(
                c,
                format!(
                    "first vertex {} does not continue the previous chunk (expected {next_vertex})",
                    chunk.first_vertex
                ),
            ));
        }
        if chunk.first_entry != next_entry {
            return Err(chunk_err(
                c,
                format!(
                    "first entry {} does not continue the previous chunk (expected {next_entry})",
                    chunk.first_entry
                ),
            ));
        }
        if chunk.num_vertices == 0 || chunk.num_vertices > chunk_vertices {
            return Err(chunk_err(
                c,
                format!(
                    "vertex count {} outside 1..={chunk_vertices}",
                    chunk.num_vertices
                ),
            ));
        }
        next_vertex = chunk
            .first_vertex
            .checked_add(chunk.num_vertices)
            .ok_or_else(|| chunk_err(c, "vertex range overflows".into()))?;
        next_entry = chunk
            .first_entry
            .checked_add(chunk.num_entries)
            .ok_or_else(|| chunk_err(c, "entry range overflows".into()))?;
        let len = chunk
            .payload_len()
            .ok_or_else(|| chunk_err(c, "payload size overflows".into()))?;
        payload_at = payload_at
            .checked_add(len)
            .ok_or_else(|| chunk_err(c, "payload offset overflows".into()))?;
        if payload_at > data.len() {
            return Err(chunk_err(
                c,
                format!(
                    "payload truncated: section ends at byte {payload_at}, file has {}",
                    data.len()
                ),
            ));
        }
        chunks.push(chunk);
    }
    if next_vertex != n {
        return Err(parse_err(
            0,
            format!(".grb v2 chunk table covers {next_vertex} of {n} vertices"),
        ));
    }
    if next_entry != entries {
        return Err(parse_err(
            0,
            format!(".grb v2 chunk table covers {next_entry} of {entries} adjacency entries"),
        ));
    }

    // Parallel chunk decode: every chunk owns a disjoint slice of each CSR
    // array (its vertex range / entry range from the validated table), so
    // workers scatter through raw views and any thread may decode any chunk.
    let mut offsets = vec![0usize; n + 1];
    let mut targets = vec![0 as VertexId; entries];
    let mut weights = vec![0.0f64; entries];
    let offsets_view = SharedSlice::new(&mut offsets);
    let targets_view = SharedSlice::new(&mut targets);
    let weights_view = SharedSlice::new(&mut weights);
    let errors: Vec<Option<(usize, String)>> = (0..num_chunks)
        .into_par_iter()
        .map(|c| {
            let chunk = &chunks[c];
            let mut at = chunk.payload_at;
            let mut sum = GrbChecksum::new();
            // Chunk-local offsets (closing boundary of each vertex's
            // adjacency run) — kept so the target scan below can check
            // per-vertex sorted order without re-reading the shared array.
            let mut local_off = Vec::with_capacity(chunk.num_vertices + 1);
            local_off.push(chunk.first_entry);
            let mut prev = chunk.first_entry;
            for i in 0..chunk.num_vertices {
                let off = u64::from_le_bytes(data[at..at + 8].try_into().unwrap()) as usize;
                sum.push(off as u64);
                if off < prev || off > chunk.first_entry + chunk.num_entries {
                    return Some((
                        c,
                        format!(
                            "offset {off} for vertex {} outside its entry range \
                             {}..={} or non-monotonic",
                            chunk.first_vertex + i,
                            chunk.first_entry,
                            chunk.first_entry + chunk.num_entries,
                        ),
                    ));
                }
                // SAFETY: slot first_vertex+i+1 belongs to this chunk alone
                // (the table tiles vertex ranges disjointly).
                unsafe { offsets_view.write(chunk.first_vertex + i + 1, off) };
                local_off.push(off);
                prev = off;
                at += 8;
            }
            if prev != chunk.first_entry + chunk.num_entries {
                return Some((
                    c,
                    format!(
                        "last offset {prev} does not close the chunk's entry range at {}",
                        chunk.first_entry + chunk.num_entries
                    ),
                ));
            }
            let mut v_idx = 0usize;
            let mut prev_t: Option<VertexId> = None;
            for i in 0..chunk.num_entries {
                let e = chunk.first_entry + i;
                while e >= local_off[v_idx + 1] {
                    v_idx += 1;
                    prev_t = None;
                }
                let t = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
                sum.push(t as u64);
                if t as usize >= n {
                    return Some((
                        c,
                        format!(
                            "neighbor id {t} of vertex {} out of range (n = {n})",
                            chunk.first_vertex + v_idx
                        ),
                    ));
                }
                if prev_t.is_some_and(|p| t <= p) {
                    return Some((
                        c,
                        format!(
                            "adjacency of vertex {} not strictly ascending at entry {e}",
                            chunk.first_vertex + v_idx
                        ),
                    ));
                }
                prev_t = Some(t);
                // SAFETY: entry slot belongs to this chunk alone.
                unsafe { targets_view.write(e, t) };
                at += 4;
            }
            for i in 0..chunk.num_entries {
                let bits = u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
                sum.push(bits);
                let w = f64::from_bits(bits);
                if !(w.is_finite() && w > 0.0) {
                    return Some((
                        c,
                        format!(
                            "weight {w} at entry {} not finite and positive",
                            chunk.first_entry + i
                        ),
                    ));
                }
                // SAFETY: entry slot belongs to this chunk alone.
                unsafe { weights_view.write(chunk.first_entry + i, w) };
                at += 8;
            }
            if sum.finish() != chunk.checksum {
                return Some((
                    c,
                    format!(
                        "payload checksum mismatch (stored {:#018x}, computed {:#018x})",
                        chunk.checksum,
                        sum.finish()
                    ),
                ));
            }
            None
        })
        .collect();
    if let Some((c, msg)) = errors.into_iter().flatten().min_by_key(|(c, _)| *c) {
        return Err(chunk_err(c, msg));
    }

    // Trust model: the decode above already enforced every CSR invariant a
    // linear scan can see (offsets tile and close, neighbor ids in range and
    // strictly ascending per vertex, weights finite and positive), and the
    // per-chunk checksums tie the payload back to the writer — which only
    // ever serializes validated graphs. The one remaining `validate` check,
    // the O(m log deg) mirror-symmetry search, is therefore skipped here; it
    // would dominate the load and is exactly what makes checksum-verified
    // v2 loads fast. All downstream access is bounds-checked, so even an
    // adversarial file that forged its checksums stays memory-safe. Finite
    // weights can still sum past the range modularity needs: that O(n)
    // check runs on the cached degrees.
    let g = CsrGraph::from_sorted_adjacency(offsets, targets, weights);
    g.check_weight_range()
        .map_err(|e| IoError::Build(BuildError::WeightRange(e)))?;
    Ok(g)
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
        _ => read_edge_list(open()?, None),
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
mod tests {
    use super::*;
    use crate::builder::from_weighted_edges;

    fn sample() -> CsrGraph {
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
        // Inexact weights and a self-loop: the text round trip is bitwise.
        let g = from_weighted_edges(2, [(0, 1, 0.1), (1, 1, 1.0 / 3.0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert!(read_edge_list(&buf[..], None).unwrap().bitwise_eq(&g));
    }

    #[test]
    fn line_formats_name_the_line_and_round_trip() {
        type Reader = fn(&str) -> Result<(), IoError>;
        let edges: Reader = |text| read_edge_list(text.as_bytes(), None).map(drop);
        let batch: Reader = |text| parse_edge_batch(text).map(drop);
        let assign: Reader = |text| read_assignment(text.as_bytes()).map(drop);
        // The line formats' error contract, one malformed input per row: the
        // reader, the input, and `<line>: <message>`, where the 1-based line
        // counts comment and blank lines. The seed corpus for fuzzing.
        for (read, text, expected) in [
            (edges, "# c\n\n0 1\n0\n", "4: missing target id"),
            (edges, "0 1 w\n", "1: bad weight: invalid float literal"),
            (edges, "0 1 2 3\n", "1: trailing tokens after weight"),
            (
                batch,
                "+ 0 1\n* 2 3\n",
                "2: unknown operation `*` (expected `+`, `-`, or `=`)",
            ),
            // `%` starts a comment in edge lists only.
            (
                batch,
                "% c\n",
                "1: bad source vertex: invalid digit found in string",
            ),
            (batch, "# c\n\n+ 0\n", "3: missing target vertex"),
            (batch, "= 0 1\n", "1: missing weight"),
            (batch, "+ 0 1 w\n", "1: bad weight: invalid float literal"),
            (batch, "- 0 1 9\n", "1: trailing tokens after operation"),
            (assign, "0 0\n\n1\n", "3: missing community"),
            (assign, "0 0 junk\n", "1: trailing tokens after community"),
            (
                assign,
                "0 1\n1 2\n# c\n1 3\n",
                "4: duplicate assignment for vertex 1 (first assigned at line 2)",
            ),
            // A skipped vertex is no one line's fault.
            (
                assign,
                "0 1\n2 1\n",
                "0: vertex 1 has no assignment (the file names vertices up to 2)",
            ),
        ] {
            match read(text) {
                Err(IoError::Parse { line, message }) => {
                    assert_eq!(format!("{line}: {message}"), expected, "{text:?}")
                }
                other => panic!("{text:?}: {other:?}"),
            }
        }
        let assignment = [3, 0, 0, 7, 1];
        let text = format_assignment(&assignment);
        assert_eq!(read_assignment(text.as_bytes()).unwrap(), assignment);
    }

    #[test]
    fn edge_list_comments_and_defaults() {
        let text = "# comment\n% another\n0 1\n1 2 2.5\n\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn edge_list_explicit_n_pads_isolated() {
        let g = read_edge_list("0 1\n".as_bytes(), Some(10)).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0\n".as_bytes(), None).is_err());
        assert!(read_edge_list("0 1 2 3\n".as_bytes(), None).is_err());
    }

    #[test]
    fn edge_list_rejects_ids_past_vertex_id_range() {
        // 2^32 is no `VertexId`: an error naming its line, not edge (0, 1) on
        // a graph of 2^32 + 1 vertices.
        for (text, at) in [("0 1\n4294967296 1\n", 2), ("1 4294967296\n", 1)] {
            match read_edge_list(text.as_bytes(), None) {
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
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight(), g.total_weight());
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

    #[test]
    fn grb_round_trip_is_bitwise_exact() {
        // Edge list → CSR → .grb → CSR with awkward weights (subnormal-ish
        // fractions, repeated values) and a self-loop.
        let g = from_weighted_edges(
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
        let mut buf = Vec::new();
        write_grb(&g, &mut buf).unwrap();
        let g2 = read_grb(&buf[..]).unwrap();
        assert_grb_bitwise_equal(&g, &g2);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.total_weight().to_bits(), g.total_weight().to_bits());
    }

    #[test]
    fn grb_empty_graph_round_trip() {
        let g = CsrGraph::empty(3);
        let mut buf = Vec::new();
        write_grb(&g, &mut buf).unwrap();
        let g2 = read_grb(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 3);
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn grb_zero_vertex_graph_round_trip() {
        let g = CsrGraph::empty(0);
        let mut buf = Vec::new();
        write_grb(&g, &mut buf).unwrap();
        let g2 = read_grb(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_edges(), 0);
        assert_grb_bitwise_equal(&g, &g2);
        // Truncating any prefix of the header-only file errors instead of
        // panicking.
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
        let mut buf = Vec::new();
        write_grb(&g, &mut buf).unwrap();
        match read_grb(&buf[..]) {
            Err(IoError::Build(BuildError::WeightRange(WeightRangeError::Degree {
                vertex: 1,
                degree,
            }))) => assert_eq!(degree, f64::INFINITY),
            other => panic!("expected a degree overflow, got {other:?}"),
        }
    }

    #[test]
    fn grb_rejects_bad_magic() {
        let mut buf = Vec::new();
        write_grb(&sample(), &mut buf).unwrap();
        buf[3] ^= 0xFF;
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn grb_rejects_unsupported_version() {
        let mut buf = Vec::new();
        write_grb(&sample(), &mut buf).unwrap();
        buf[8] = 0xEE; // version LSB
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("version 238"), "{err}");
    }

    #[test]
    fn grb_rejects_truncation_at_every_section() {
        let mut buf = Vec::new();
        write_grb(&sample(), &mut buf).unwrap();
        // Header, chunk-table and payload truncations all fail cleanly.
        for keep in [0, 10, 27, 40, 60, buf.len() - 1] {
            assert!(read_grb(&buf[..keep]).is_err(), "keep={keep}");
        }
        // Trailing garbage is also rejected (exact-size format).
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; 3]);
        assert!(read_grb(&padded[..]).is_err());
    }

    #[test]
    fn grb_rejects_overflowing_header_sizes() {
        // A consistent one-chunk table, but n = u64::MAX: size arithmetic
        // must error, not overflow-panic (debug builds) or allocate absurdly.
        let mut buf = Vec::new();
        buf.extend_from_slice(GRB_MAGIC);
        buf.extend_from_slice(&GRB_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // entries
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // chunk_vertices
        buf.extend_from_slice(&1u64.to_le_bytes()); // num_chunks
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn grb_v2_rejects_overflowing_header_sizes() {
        // A v2 header whose chunk table alone would overflow usize.
        let mut buf = Vec::new();
        buf.extend_from_slice(GRB_MAGIC);
        buf.extend_from_slice(&GRB_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // entries
        buf.extend_from_slice(&1u64.to_le_bytes()); // chunk_vertices
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // num_chunks
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    /// A multi-chunk v2 sample: enough vertices that `chunk_vertices = 3`
    /// sections it into several chunks with uneven entry counts.
    fn chain(n: usize) -> CsrGraph {
        let edges: Vec<(VertexId, VertexId, f64)> = (0..n - 1)
            .map(|i| (i as VertexId, (i + 1) as VertexId, 1.0 + i as f64 * 0.25))
            .collect();
        from_weighted_edges(n, edges).unwrap()
    }

    #[test]
    fn grb_v2_round_trip_is_bitwise_exact() {
        let g = chain(11);
        for chunk_vertices in [1, 2, 3, 11, 64] {
            let mut buf = Vec::new();
            write_grb_chunked(&g, &mut buf, chunk_vertices).unwrap();
            let g2 = read_grb(&buf[..]).unwrap();
            assert_grb_bitwise_equal(&g, &g2);
            assert_eq!(g.total_weight().to_bits(), g2.total_weight().to_bits());
        }
    }

    #[test]
    fn grb_v2_zero_vertex_round_trip() {
        let g = CsrGraph::empty(0);
        let mut buf = Vec::new();
        write_grb(&g, &mut buf).unwrap();
        let g2 = read_grb(&buf[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        for keep in 0..buf.len() {
            assert!(read_grb(&buf[..keep]).is_err(), "keep={keep}");
        }
    }

    #[test]
    fn grb_v2_rejects_truncation_at_every_length() {
        let mut buf = Vec::new();
        write_grb_chunked(&chain(9), &mut buf, 3).unwrap();
        for keep in 0..buf.len() {
            assert!(read_grb(&buf[..keep]).is_err(), "keep={keep}");
        }
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; 5]);
        assert!(read_grb(&padded[..]).is_err());
    }

    #[test]
    fn grb_v2_corrupt_chunk_errors_name_the_chunk() {
        let g = chain(9); // chunk_vertices = 3 → chunks 0, 1, 2
        let mut buf = Vec::new();
        write_grb_chunked(&g, &mut buf, 3).unwrap();

        // Corrupt chunk 1's table record: its first-vertex no longer
        // continues chunk 0.
        let mut bad = buf.clone();
        let table1 = GRB_V2_HEADER_LEN + GRB_V2_TABLE_RECORD;
        bad[table1..table1 + 8].copy_from_slice(&7u64.to_le_bytes());
        let err = read_grb(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("chunk 1"), "{err}");

        // Corrupt an offset inside chunk 2's payload: error names chunk 2.
        let offsets = g.adjacency_offsets();
        let chunk2_payload = GRB_V2_HEADER_LEN
            + 3 * GRB_V2_TABLE_RECORD
            + (3 * 8 + (offsets[3] - offsets[0]) * 12)
            + (3 * 8 + (offsets[6] - offsets[3]) * 12);
        let mut bad = buf.clone();
        bad[chunk2_payload..chunk2_payload + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_grb(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");

        // A well-framed but structurally broken payload (weight bits zeroed,
        // so a non-positive weight) is rejected by the chunk's linear checks,
        // again naming the chunk.
        let mut bad = buf.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&0u64.to_le_bytes());
        let err = read_grb(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
    }

    #[test]
    fn grb_v2_checksum_catches_structurally_plausible_corruption() {
        // Flip the lowest mantissa bit of the final weight: still a finite
        // positive weight and framing stays intact, so only the per-chunk
        // checksum can tell the payload no longer matches what was written.
        let mut buf = Vec::new();
        write_grb_chunked(&chain(9), &mut buf, 3).unwrap();
        let len = buf.len();
        buf[len - 8] ^= 0x01;
        let err = read_grb(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("chunk 2"), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn save_path_writes_v2_and_refuses_v1() {
        let dir = std::env::temp_dir().join("grappolo_io_v2_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = chain(12);
        let v2_path = dir.join("g.grb");
        save_path(&g, &v2_path).unwrap();
        let head = std::fs::read(&v2_path).unwrap();
        assert_eq!(
            u16::from_le_bytes(head[8..10].try_into().unwrap()),
            GRB_VERSION
        );
        assert_grb_bitwise_equal(&g, &load_path(&v2_path).unwrap());
        // A v1 file is a typed parse error naming its version, even one
        // shorter than a v2 header: the empty graph's 36 bytes (magic,
        // version 1, flags, n = 0, no entries, offsets [0]).
        let v1_path = dir.join("g_v1.grb");
        std::fs::write(&v1_path, [&GRB_MAGIC[..], &[1, 0, 0, 0], &[0; 24]].concat()).unwrap();
        let err = load_path(&v1_path).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("version 1 unsupported"), "{err}");
    }

    #[test]
    fn grb_rejects_corrupt_offsets() {
        let mut buf = Vec::new();
        write_grb(&sample(), &mut buf).unwrap();
        // The first stored offset (vertex 0's run end, after the table).
        let at = GRB_V2_HEADER_LEN + GRB_V2_TABLE_RECORD;
        buf[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_grb(&buf[..]).is_err());
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
