//! Seeded mutation corpus for the `.grb` reader: every damaged file loads
//! as the graph that wrote it or fails with a typed parse or build error,
//! never a panic or an I/O error.

use super::tests::{chain, sample};
use super::*;

/// Calls `each` with a source graph, a label and a damaged copy of the
/// source's `.grb` file, a few hundred times per source: seeded flips
/// of one byte in the header, the chunk table or the payload,
/// truncations to a random length, 1–8 appended bytes, and the header's
/// n, entries, chunk size or chunk count replaced by a random value.
fn for_each_grb_mutation(mut each: impl FnMut(&CsrGraph, String, &[u8])) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let planted = crate::gen::planted_partition(&crate::gen::PlantedConfig {
        num_vertices: 3000,
        num_communities: 30,
        weight_range: Some((0.5, 2.0)),
        seed: 5,
        ..Default::default()
    })
    .0;
    let sources = [
        (sample(), grb_chunk_vertices(4)),
        (chain(11), 1),
        (chain(11), 3),
        (chain(11), 64),
        (planted, grb_chunk_vertices(3000)),
    ];
    for (s, (g, chunk_vertices)) in sources.iter().enumerate() {
        let mut file = Vec::new();
        write_grb_chunked(g, &mut file, *chunk_vertices).unwrap();
        let table_end =
            GRB_V2_HEADER_LEN + g.num_vertices().div_ceil(*chunk_vertices) * GRB_V2_TABLE_RECORD;
        let sections = [
            0..GRB_V2_HEADER_LEN,
            GRB_V2_HEADER_LEN..table_end,
            table_end..file.len(),
        ];
        let mut rng = SmallRng::seed_from_u64(s as u64);
        for case in 0..300 {
            let mut bytes = file.clone();
            let damage = match case % 6 {
                section @ 0..=2 => {
                    let at = rng.gen_range(sections[section].clone());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                    format!("byte {at} flipped")
                }
                3 => {
                    bytes.truncate(rng.gen_range(0..file.len()));
                    format!("cut to {} bytes", bytes.len())
                }
                4 => {
                    let extra = rng.gen_range(1..=8usize);
                    bytes.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
                    format!("{extra} bytes appended")
                }
                _ => {
                    // Random widths too, so small values meet the checks
                    // that huge ones never reach.
                    let value = rng.gen::<u64>() >> rng.gen_range(0..64u32);
                    let at = 12 + 8 * rng.gen_range(0..4usize);
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    format!("header word at {at} set to {value}")
                }
            };
            each(g, format!("source {s}, case {case}: {damage}"), &bytes);
        }
    }
}

#[test]
fn damaged_files_load_the_source_or_fail_typed() {
    for_each_grb_mutation(|g, label, bytes| {
        match std::panic::catch_unwind(|| read_grb(bytes)) {
            // Only a flip in the unchecked flags field loads.
            Ok(Ok(loaded)) => assert!(loaded.bitwise_eq(g), "{label}: a different graph"),
            Ok(Err(IoError::Parse { .. } | IoError::Build(_))) => {}
            Ok(Err(e)) => panic!("{label}: {e}"),
            Err(_) => panic!("{label}: read_grb panicked"),
        }
    });
}
