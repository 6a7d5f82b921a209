//! Named synthetic proxies for the paper's 11 real-world inputs.
//!
//! Each [`PaperInput`] pairs a generator configuration that reproduces the
//! input's structural *regime* with the statistics the paper
//! published for the real graph (Table 1) and the modularities it reported
//! (Table 2), so harnesses can print paper-vs-measured side by side.
//!
//! Proxies default to laptop scale (2^15–2^17 vertices); `scale` multiplies
//! vertex counts for smaller smoke tests or larger stress runs.

use super::{
    grid3d, planted_partition, random_geometric, road_network, web_graph, GridConfig,
    PlantedConfig, RggConfig, RoadConfig, WebConfig,
};
use crate::csr::CsrGraph;

/// Identifier for one of the paper's Table 1 inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperInput {
    /// CNR web crawl (325 K vertices / 2.7 M edges, RSD 13.0).
    Cnr,
    /// coPapersDBLP co-authorship (540 K / 15.2 M, RSD 1.17).
    CoPapersDblp,
    /// Channel flow mesh (4.8 M / 42.7 M, RSD 0.061).
    Channel,
    /// Europe-osm road network (50.9 M / 54.1 M, avg degree 2.12).
    EuropeOsm,
    /// soc-LiveJournal1 social network (4.8 M / 68.5 M, RSD 2.55).
    SocLiveJournal,
    /// MG1 ocean metagenomics homology graph (1.3 M / 102 M, weighted).
    Mg1,
    /// Rgg_n_2_24_s0 random geometric graph (16.8 M / 132.6 M, RSD 0.251).
    Rgg,
    /// uk-2002 web crawl (18.5 M / 261.8 M, RSD 5.12, skewed coloring).
    Uk2002,
    /// NLPKKT240 KKT mesh (28.0 M / 373.2 M, RSD 0.083, poor communities).
    Nlpkkt240,
    /// MG2 ocean metagenomics homology graph (11.0 M / 674.1 M, weighted).
    Mg2,
    /// friendster social network (51.9 M / 1.8 B, RSD 17.4).
    Friendster,
}

/// Statistics the paper published for the real input (Tables 1 and 2).
#[derive(Clone, Debug)]
pub struct PaperReference {
    /// Display name used in the paper.
    pub name: &'static str,
    /// Table 1: number of vertices.
    pub num_vertices: u64,
    /// Table 1: number of edges.
    pub num_edges: u64,
    /// Table 1: maximum degree.
    pub max_degree: u64,
    /// Table 1: average degree.
    pub avg_degree: f64,
    /// Table 1: degree RSD.
    pub degree_rsd: f64,
    /// Table 2: final modularity of the parallel implementation (8 threads).
    pub parallel_modularity: Option<f64>,
    /// Table 2: final modularity of serial Louvain (None where it crashed).
    pub serial_modularity: Option<f64>,
    /// Table 2: absolute speedup at 8 threads (None where serial crashed).
    pub speedup_8t: Option<f64>,
}

impl PaperInput {
    /// All inputs in the paper's Table 1 order.
    pub const ALL: [PaperInput; 11] = [
        PaperInput::Cnr,
        PaperInput::CoPapersDblp,
        PaperInput::Channel,
        PaperInput::EuropeOsm,
        PaperInput::SocLiveJournal,
        PaperInput::Mg1,
        PaperInput::Rgg,
        PaperInput::Uk2002,
        PaperInput::Nlpkkt240,
        PaperInput::Mg2,
        PaperInput::Friendster,
    ];

    /// The nine inputs for which the paper had both serial and parallel
    /// results (serial Louvain crashed on Europe-osm and friendster).
    pub const WITH_SERIAL: [PaperInput; 9] = [
        PaperInput::Cnr,
        PaperInput::CoPapersDblp,
        PaperInput::Channel,
        PaperInput::SocLiveJournal,
        PaperInput::Mg1,
        PaperInput::Rgg,
        PaperInput::Uk2002,
        PaperInput::Nlpkkt240,
        PaperInput::Mg2,
    ];

    /// Short lowercase identifier (used for CLI flags and result files).
    pub fn id(&self) -> &'static str {
        match self {
            PaperInput::Cnr => "cnr",
            PaperInput::CoPapersDblp => "copapersdblp",
            PaperInput::Channel => "channel",
            PaperInput::EuropeOsm => "europe-osm",
            PaperInput::SocLiveJournal => "soc-livejournal",
            PaperInput::Mg1 => "mg1",
            PaperInput::Rgg => "rgg",
            PaperInput::Uk2002 => "uk-2002",
            PaperInput::Nlpkkt240 => "nlpkkt240",
            PaperInput::Mg2 => "mg2",
            PaperInput::Friendster => "friendster",
        }
    }

    /// Parses an id produced by [`PaperInput::id`].
    pub fn from_id(id: &str) -> Option<PaperInput> {
        PaperInput::ALL.iter().copied().find(|p| p.id() == id)
    }

    /// Paper-published statistics for the real input.
    pub fn reference(&self) -> PaperReference {
        match self {
            PaperInput::Cnr => PaperReference {
                name: "CNR",
                num_vertices: 325_557,
                num_edges: 2_738_970,
                max_degree: 18_236,
                avg_degree: 16.826,
                degree_rsd: 13.024,
                parallel_modularity: Some(0.912608),
                serial_modularity: Some(0.912784),
                speedup_8t: Some(5.37),
            },
            PaperInput::CoPapersDblp => PaperReference {
                name: "coPapersDBLP",
                num_vertices: 540_486,
                num_edges: 15_245_729,
                max_degree: 3_299,
                avg_degree: 56.414,
                degree_rsd: 1.174,
                parallel_modularity: Some(0.858088),
                serial_modularity: Some(0.848702),
                speedup_8t: Some(2.08),
            },
            PaperInput::Channel => PaperReference {
                name: "Channel",
                num_vertices: 4_802_000,
                num_edges: 42_681_372,
                max_degree: 18,
                avg_degree: 17.776,
                degree_rsd: 0.061,
                parallel_modularity: Some(0.933388),
                serial_modularity: Some(0.849672),
                speedup_8t: Some(1.45),
            },
            PaperInput::EuropeOsm => PaperReference {
                name: "Europe-osm",
                num_vertices: 50_912_018,
                num_edges: 54_054_660,
                max_degree: 13,
                avg_degree: 2.123,
                degree_rsd: 0.225,
                parallel_modularity: Some(0.994996),
                serial_modularity: None,
                speedup_8t: None,
            },
            PaperInput::SocLiveJournal => PaperReference {
                name: "Soc-LiveJournal1",
                num_vertices: 4_847_571,
                num_edges: 68_475_391,
                max_degree: 22_887,
                avg_degree: 28.251,
                degree_rsd: 2.553,
                parallel_modularity: Some(0.751404),
                serial_modularity: Some(0.726785),
                speedup_8t: Some(2.72),
            },
            PaperInput::Mg1 => PaperReference {
                name: "MG1",
                num_vertices: 1_280_000,
                num_edges: 102_268_735,
                max_degree: 148_155,
                avg_degree: 159.794,
                degree_rsd: 2.311,
                parallel_modularity: Some(0.968723),
                serial_modularity: Some(0.968671),
                speedup_8t: Some(4.39),
            },
            PaperInput::Rgg => PaperReference {
                name: "Rgg_n_2_24_s0",
                num_vertices: 16_777_216,
                num_edges: 132_557_200,
                max_degree: 40,
                avg_degree: 15.802,
                degree_rsd: 0.251,
                parallel_modularity: Some(0.992698),
                serial_modularity: Some(0.989637),
                speedup_8t: Some(3.24),
            },
            PaperInput::Uk2002 => PaperReference {
                name: "uk-2002",
                num_vertices: 18_520_486,
                num_edges: 261_787_258,
                max_degree: 194_955,
                avg_degree: 28.270,
                degree_rsd: 5.124,
                parallel_modularity: Some(0.989569),
                serial_modularity: Some(0.9897),
                speedup_8t: Some(1.59),
            },
            PaperInput::Nlpkkt240 => PaperReference {
                name: "NLPKKT240",
                num_vertices: 27_993_600,
                num_edges: 373_239_376,
                max_degree: 27,
                avg_degree: 26.666,
                degree_rsd: 0.083,
                parallel_modularity: Some(0.934717),
                serial_modularity: Some(0.952104),
                speedup_8t: Some(13.07),
            },
            PaperInput::Mg2 => PaperReference {
                name: "MG2",
                num_vertices: 11_005_829,
                num_edges: 674_142_381,
                max_degree: 5_466,
                avg_degree: 122.506,
                degree_rsd: 2.370,
                parallel_modularity: Some(0.998397),
                serial_modularity: Some(0.998426),
                speedup_8t: Some(2.86),
            },
            PaperInput::Friendster => PaperReference {
                name: "friendster",
                num_vertices: 51_952_104,
                num_edges: 1_801_014_245,
                max_degree: 8_603_554,
                avg_degree: 69.333,
                degree_rsd: 17.354,
                parallel_modularity: Some(0.626139),
                serial_modularity: None,
                speedup_8t: None,
            },
        }
    }

    /// True for inputs whose single-degree vertices were pre-pruned when the
    /// graph was generated (paper §6.1: Channel, MG1, MG2), making baseline
    /// and baseline+VF equivalent.
    pub fn vf_prepruned(&self) -> bool {
        matches!(
            self,
            PaperInput::Channel | PaperInput::Mg1 | PaperInput::Mg2
        )
    }

    /// Vertices the proxy asks its generator for at scale 1.0;
    /// [`PaperInput::generate`] asks for `base_vertices() × scale`, at
    /// least 64.
    pub fn base_vertices(&self) -> usize {
        match self {
            PaperInput::Cnr | PaperInput::CoPapersDblp | PaperInput::Channel | PaperInput::Mg1 => {
                32_768
            }
            PaperInput::SocLiveJournal
            | PaperInput::Rgg
            | PaperInput::Uk2002
            | PaperInput::Nlpkkt240
            | PaperInput::Mg2 => 65_536,
            PaperInput::EuropeOsm | PaperInput::Friendster => 131_072,
        }
    }

    /// Generates the synthetic proxy at size multiplier `scale`
    /// (1.0 ≈ 3 × 10⁴–10⁵ vertices) with the given seed.
    pub fn generate(&self, scale: f64, seed: u64) -> CsrGraph {
        let n = ((self.base_vertices() as f64 * scale) as usize).max(64);
        match self {
            // Web crawl: heavy-tailed hubs over a strong community backbone
            // (Table 2: Q ≈ 0.91, Table 1: RSD 13).
            PaperInput::Cnr => {
                web_graph(&WebConfig {
                    num_vertices: n,
                    num_communities: n / 150,
                    avg_intra_degree: 14.0,
                    avg_inter_degree: 0.5,
                    overlay_per_vertex: 0.6,
                    hub_bias: 7.0,
                    seed,
                })
                .0
            }
            // Dense co-authorship with strong planted communities.
            PaperInput::CoPapersDblp => {
                planted_partition(&PlantedConfig {
                    num_vertices: n,
                    num_communities: n / 80,
                    size_exponent: 1.2,
                    avg_intra_degree: 22.0,
                    avg_inter_degree: 2.0,
                    weight_range: None,
                    seed,
                })
                .0
            }
            // Uniform-degree 3-D mesh, weak communities.
            PaperInput::Channel => {
                let side = ((n as f64).cbrt().round() as usize).max(4);
                grid3d(&GridConfig {
                    side,
                    periodic: true,
                    noise_fraction: 0.0,
                    seed,
                })
            }
            // Road network: chains, spurs, avg degree ≈ 2.1.
            PaperInput::EuropeOsm => road_network(&RoadConfig {
                num_vertices: n,
                spur_fraction: 0.15,
                shortcut_per_vertex: 0.12,
                seed,
            }),
            // Social network: RSD ≈ 2.5, moderate communities (Q ≈ 0.75).
            PaperInput::SocLiveJournal => {
                web_graph(&WebConfig {
                    num_vertices: n,
                    num_communities: n / 250,
                    avg_intra_degree: 10.0,
                    avg_inter_degree: 1.2,
                    overlay_per_vertex: 1.2,
                    hub_bias: 7.0,
                    seed,
                })
                .0
            }
            // Weighted homology graph, very strong communities.
            PaperInput::Mg1 => {
                planted_partition(&PlantedConfig {
                    num_vertices: n,
                    num_communities: n / 50,
                    size_exponent: 0.8,
                    avg_intra_degree: 28.0,
                    avg_inter_degree: 0.8,
                    weight_range: Some((1.0, 10.0)),
                    seed,
                })
                .0
            }
            // Random geometric: uniform degree AND strong communities.
            PaperInput::Rgg => random_geometric(&RggConfig {
                num_vertices: n,
                radius: 0.0,
                seed,
            }),
            // Web crawl with extreme hubs → skewed color classes, yet very
            // strong communities (Q ≈ 0.99).
            PaperInput::Uk2002 => {
                web_graph(&WebConfig {
                    num_vertices: n,
                    num_communities: n / 120,
                    avg_intra_degree: 18.0,
                    avg_inter_degree: 0.15,
                    overlay_per_vertex: 0.35,
                    hub_bias: 9.0,
                    seed,
                })
                .0
            }
            // KKT mesh with noise: poorest community structure in the suite.
            PaperInput::Nlpkkt240 => {
                let side = ((n as f64).cbrt().round() as usize).max(4);
                grid3d(&GridConfig {
                    side,
                    periodic: true,
                    noise_fraction: 0.10,
                    seed,
                })
            }
            // Bigger weighted homology graph, Q ≈ 0.998.
            PaperInput::Mg2 => {
                planted_partition(&PlantedConfig {
                    num_vertices: n,
                    num_communities: n / 60,
                    size_exponent: 0.8,
                    avg_intra_degree: 30.0,
                    avg_inter_degree: 0.5,
                    weight_range: Some((1.0, 10.0)),
                    seed,
                })
                .0
            }
            // Social monster: extreme hub (RSD 17), weakest communities of
            // the suite (Q ≈ 0.63).
            PaperInput::Friendster => {
                web_graph(&WebConfig {
                    num_vertices: n,
                    num_communities: n / 400,
                    avg_intra_degree: 7.0,
                    avg_inter_degree: 1.8,
                    overlay_per_vertex: 1.4,
                    hub_bias: 12.0,
                    seed,
                })
                .0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    const TEST_SCALE: f64 = 0.125;

    #[test]
    fn all_inputs_generate_and_validate() {
        for input in PaperInput::ALL {
            let g = input.generate(TEST_SCALE, 1);
            assert!(g.validate().is_ok(), "{} invalid", input.id());
            assert!(g.num_edges() > 0, "{} empty", input.id());
        }
    }

    #[test]
    fn ids_round_trip() {
        for input in PaperInput::ALL {
            assert_eq!(PaperInput::from_id(input.id()), Some(input));
        }
        assert_eq!(PaperInput::from_id("nope"), None);
    }

    #[test]
    fn references_are_complete() {
        for input in PaperInput::ALL {
            let r = input.reference();
            assert!(r.num_vertices > 0);
            assert!(r.num_edges > 0);
            assert!(r.avg_degree > 0.0);
        }
        // serial crashed exactly on Europe-osm and friendster (paper Table 2)
        assert!(PaperInput::EuropeOsm
            .reference()
            .serial_modularity
            .is_none());
        assert!(PaperInput::Friendster
            .reference()
            .serial_modularity
            .is_none());
        assert_eq!(PaperInput::WITH_SERIAL.len(), 9);
    }

    #[test]
    fn degree_rsd_ordering_matches_paper_regimes() {
        // Table 1's key structural contrast: meshes ≈ 0, road < 1,
        // social/web ≫ 1. Verify the proxies preserve the ordering.
        let channel = GraphStats::compute(&PaperInput::Channel.generate(TEST_SCALE, 1));
        let road = GraphStats::compute(&PaperInput::EuropeOsm.generate(TEST_SCALE, 1));
        let soclj = GraphStats::compute(&PaperInput::SocLiveJournal.generate(TEST_SCALE, 1));
        let friend = GraphStats::compute(&PaperInput::Friendster.generate(TEST_SCALE, 1));
        assert!(channel.degree_rsd < 0.1, "mesh RSD {}", channel.degree_rsd);
        assert!(road.degree_rsd < 1.0, "road RSD {}", road.degree_rsd);
        assert!(soclj.degree_rsd > 1.0, "social RSD {}", soclj.degree_rsd);
        assert!(
            friend.degree_rsd > soclj.degree_rsd,
            "friendster RSD {} should exceed livejournal {}",
            friend.degree_rsd,
            soclj.degree_rsd
        );
    }

    #[test]
    fn road_proxy_has_road_avg_degree() {
        let s = GraphStats::compute(&PaperInput::EuropeOsm.generate(TEST_SCALE, 1));
        assert!(s.avg_degree < 3.0, "avg {}", s.avg_degree);
    }

    #[test]
    fn scale_changes_size() {
        let small = PaperInput::Cnr.generate(0.0625, 1);
        let larger = PaperInput::Cnr.generate(0.25, 1);
        assert!(larger.num_vertices() > 2 * small.num_vertices());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperInput::Mg1.generate(TEST_SCALE, 7);
        let b = PaperInput::Mg1.generate(TEST_SCALE, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(
            a.neighbors(10).collect::<Vec<_>>(),
            b.neighbors(10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn prepruned_flags_match_paper() {
        assert!(PaperInput::Channel.vf_prepruned());
        assert!(PaperInput::Mg1.vf_prepruned());
        assert!(PaperInput::Mg2.vf_prepruned());
        assert!(!PaperInput::Cnr.vf_prepruned());
    }
}
