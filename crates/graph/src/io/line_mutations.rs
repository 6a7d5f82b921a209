//! Seeded mutation corpus for the line formats: every damaged edge list,
//! METIS file, assignment and edge batch reads as a value or fails with a
//! typed parse or build error on a line the input has, never a panic or an
//! I/O error.

use super::*;
use crate::builder::from_weighted_edges;

/// What the insertions splice in: an id past `VertexId`, weights that are
/// no number or sum past the range modularity needs, a negative number,
/// whitespace, the comment characters, and a byte that is not UTF-8.
const TOKENS: [&[u8]; 8] = [
    b"4294967296",
    b"nan",
    b"1e308",
    b"-1",
    b"\t",
    b"#",
    b"%",
    b"\xFF",
];

/// A copy of `source` with one seeded mutation, and its label: a flipped
/// byte, a cut, 1–8 deleted bytes, a duplicated span of 1–16 bytes, or one
/// of [`TOKENS`], with or without a space before it, inserted anywhere.
fn mutate(rng: &mut impl rand::Rng, source: &[u8], case: usize) -> (String, Vec<u8>) {
    let mut bytes = source.to_vec();
    let len = bytes.len();
    let label = match case % 5 {
        0 => {
            let at = rng.gen_range(0..len);
            bytes[at] ^= rng.gen_range(1..=255u8);
            format!("byte {at} flipped")
        }
        1 => {
            bytes.truncate(rng.gen_range(0..len));
            format!("cut to {} bytes", bytes.len())
        }
        2 => {
            let at = rng.gen_range(0..len);
            let end = (at + rng.gen_range(1..=8usize)).min(len);
            bytes.drain(at..end);
            format!("bytes {at}..{end} deleted")
        }
        3 => {
            let at = rng.gen_range(0..len);
            let end = (at + rng.gen_range(1..=16usize)).min(len);
            bytes.splice(end..end, source[at..end].to_vec());
            format!("bytes {at}..{end} duplicated")
        }
        _ => {
            let token = TOKENS[rng.gen_range(0..TOKENS.len())];
            let spaced = if rng.gen_bool(0.5) { &b" "[..] } else { &[] };
            let at = rng.gen_range(0..=len);
            bytes.splice(at..at, [spaced, token].concat());
            format!("{:?} inserted at {at}", String::from_utf8_lossy(token))
        }
    };
    (label, bytes)
}

#[test]
fn damaged_line_files_read_or_fail_typed() {
    use rand::{rngs::SmallRng, SeedableRng};
    // 64 vertices, the last four isolated, one self-loop, short weights
    // (merged duplicates sum to short ones too), so ids stay short and no
    // mutation can make one that sizes a large graph.
    let weights = [0.5, 1.25, 2.0, 3.75];
    let edges = (0..90u32)
        .map(|i| (i % 60, (i * 7 + 3) % 60, weights[i as usize % 4]))
        .chain([(5, 5, 1.5)]);
    let g = from_weighted_edges(64, edges).unwrap();
    let assignment: Vec<u32> = (0..64).map(|v| v % 7 * 3).collect();
    let deltas: Vec<EdgeDelta> = (0..40)
        .map(|u| match u % 4 {
            0 => EdgeDelta::Insert {
                u,
                v: u + 1,
                weight: DEFAULT_WEIGHT,
            },
            1 => EdgeDelta::Insert {
                u,
                v: u + 2,
                weight: 1.5,
            },
            2 => EdgeDelta::Delete { u, v: u + 3 },
            _ => EdgeDelta::Reweight {
                u,
                v: u + 1,
                weight: 0.75,
            },
        })
        .collect();

    // The sources as the writers (and, for batches, the documented format)
    // put them, each read back first to the value it holds.
    let mut edge_list = Vec::new();
    write_edge_list(&g, &mut edge_list).unwrap();
    assert!(read_edge_list(&edge_list[..]).unwrap().bitwise_eq(&g));
    let mut metis = Vec::new();
    write_metis(&g, &mut metis).unwrap();
    assert!(read_metis(&metis[..]).unwrap().bitwise_eq(&g));
    let assign = format_assignment(&assignment).into_bytes();
    assert_eq!(read_assignment(&assign[..]).unwrap(), assignment);
    let mut batch = b"# a batch\n\n".to_vec();
    for delta in &deltas {
        let line = match *delta {
            EdgeDelta::Insert { u, v, weight } => format!("+ {u} {v} {weight}"),
            EdgeDelta::Delete { u, v } => format!("- {u} {v}"),
            EdgeDelta::Reweight { u, v, weight } => format!("= {u} {v} {weight}"),
        };
        batch.extend_from_slice(line.as_bytes());
        batch.push(b'\n');
    }
    assert_eq!(read_edge_batch(&batch[..]).unwrap(), deltas);

    type Reader = fn(&[u8]) -> Result<(), IoError>;
    let formats: [(&str, Vec<u8>, Reader); 4] = [
        ("edge list", edge_list, |b| read_edge_list(b).map(drop)),
        ("METIS", metis, |b| read_metis(b).map(drop)),
        ("assignment", assign, |b| read_assignment(b).map(drop)),
        ("batch", batch, |b| read_edge_batch(b).map(drop)),
    ];
    let mut cases = 0;
    for (f, (format, source, read)) in formats.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(f as u64);
        for case in 0..1100 {
            let (damage, bytes) = mutate(&mut rng, source, case);
            let label = format!("{format}, case {case}: {damage}");
            let lines = bytes.split(|&b| b == b'\n').count();
            match std::panic::catch_unwind(|| read(&bytes)) {
                Ok(Ok(()) | Err(IoError::Build(_))) => {}
                Ok(Err(IoError::Parse { line, .. })) => {
                    assert!(line <= lines, "{label}: line {line} of {lines}")
                }
                Ok(Err(e)) => panic!("{label}: {e}"),
                Err(_) => panic!("{label}: the reader panicked"),
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 4400);
}
