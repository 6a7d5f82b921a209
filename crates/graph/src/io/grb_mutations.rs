//! Seeded mutation corpus for the `.grb` reader: every damaged file fails
//! with a typed parse or build error, never a panic, an I/O error or a
//! loaded graph.

use super::tests::{chain, sample};
use super::*;

/// Calls `each` with a label and a damaged copy of a source graph's `.grb`
/// file, 400 times per source: seeded flips of one byte in the header, the
/// offsets, the neighbor ids, the weights or the checksum, truncations to a
/// random length, 1–8 appended bytes, and the header's n or entry count,
/// or the checksum, replaced by a different random value.
fn for_each_grb_mutation(mut each: impl FnMut(String, &[u8])) {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let planted = |num_vertices, seed| {
        crate::gen::planted_partition(&crate::gen::PlantedConfig {
            num_vertices,
            num_communities: num_vertices / 100,
            weight_range: Some((0.5, 2.0)),
            seed,
            ..Default::default()
        })
        .0
    };
    let sources = [sample(), chain(11), planted(300, 3), planted(3000, 5)];
    for (s, g) in sources.iter().enumerate() {
        let mut file = Vec::new();
        write_grb(g, &mut file).unwrap();
        let targets_at = GRB_HEADER_LEN + 8 * g.num_vertices();
        let weights_at = targets_at + 4 * g.num_adjacency_entries();
        let sections = [
            0..GRB_HEADER_LEN,
            GRB_HEADER_LEN..targets_at,
            targets_at..weights_at,
            weights_at..file.len() - 8,
            file.len() - 8..file.len(),
        ];
        let mut rng = SmallRng::seed_from_u64(s as u64);
        for case in 0..400 {
            let mut bytes = file.clone();
            let damage = match case % 8 {
                section @ 0..=4 => {
                    let at = rng.gen_range(sections[section].clone());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                    format!("byte {at} flipped")
                }
                5 => {
                    bytes.truncate(rng.gen_range(0..file.len()));
                    format!("cut to {} bytes", bytes.len())
                }
                6 => {
                    let extra = rng.gen_range(1..=8usize);
                    bytes.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
                    format!("{extra} bytes appended")
                }
                _ => {
                    // Random widths too, so small values meet the checks
                    // that huge ones never reach.
                    let value = rng.gen::<u64>() >> rng.gen_range(0..64u32);
                    let at = [10, 18, file.len() - 8][rng.gen_range(0..3usize)];
                    let old = le_word(&bytes[at..at + 8]);
                    let value = if value == old { !value } else { value };
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    format!("word at {at} set to {value}")
                }
            };
            each(format!("source {s}, case {case}: {damage}"), &bytes);
        }
    }
}

#[test]
fn damaged_files_load_the_source_or_fail_typed() {
    let mut cases = 0;
    for_each_grb_mutation(|label, bytes| {
        cases += 1;
        match std::panic::catch_unwind(|| read_grb(bytes)) {
            Ok(Err(IoError::Parse { .. } | IoError::Build(_))) => {}
            Ok(Ok(_)) => panic!("{label}: a damaged file loaded"),
            Ok(Err(e)) => panic!("{label}: {e}"),
            Err(_) => panic!("{label}: read_grb panicked"),
        }
    });
    assert_eq!(cases, 1600);
}
