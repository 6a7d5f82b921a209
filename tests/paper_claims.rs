//! The paper's qualitative claims, as executable tests. Each test names the
//! section it reproduces. The single-phase scenarios run one full-sweep,
//! fixed-threshold phase through `PhaseDriver`.

use grappolo::coloring::{color_parallel, ParallelColoringConfig};
use grappolo::core::modularity::{
    best_move, community_degrees, modularity, MoveContext, NeighborScratch,
};
use grappolo::prelude::*;

/// One full-sweep parallel phase through the production driver at the fixed
/// threshold `threshold`, at most `max_iterations` iterations.
fn phase_driver(threshold: f64, max_iterations: usize) -> PhaseDriver {
    let config = LouvainConfig {
        max_iterations_per_phase: max_iterations,
        ..LouvainConfig::default()
    };
    PhaseDriver::from_config(&config, threshold)
}

/// §4.1 / Lemma 1: concurrent moves into the same community can make the
/// *net* modularity gain negative even though each move alone is positive.
/// Reconstructs the three-vertex scenario of Fig. 1 and verifies both sides:
/// individual gains positive, joint gain smaller than their sum.
#[test]
fn lemma1_negative_gain_scenario_is_real() {
    // Vertices i=0, j=1 both connected to k=2; i-j not adjacent. Heavy
    // degrees elsewhere make the null-model term dominate: add pendant
    // weight via self-loops on 0 and 1 (they raise k_i without adding
    // options).
    let g = from_weighted_edges(3, [(0, 2, 1.0), (1, 2, 1.0), (0, 0, 3.0), (1, 1, 3.0)]).unwrap();
    let assignment: Vec<u32> = vec![0, 1, 2];
    let a = community_degrees(&g, &assignment);
    let m = g.total_weight();
    let q_before = modularity(&g, &assignment);

    let mut gains = Vec::new();
    for v in [0u32, 1u32] {
        let mut scratch = NeighborScratch::default();
        scratch.gather(&g, &assignment, v);
        let ctx = MoveContext {
            current: assignment[v as usize],
            k: g.weighted_degree(v),
            m,
            gamma: 1.0,
        };
        let d = best_move(&ctx, &scratch.entries, |c| a[c as usize]);
        assert_eq!(d.target, 2, "vertex {v} should want to join C(k)");
        assert!(d.gain > 0.0, "individual gain must be positive");
        gains.push(d.gain);
    }

    // Both move concurrently (the parallel hazard).
    let after = vec![2u32, 2, 2];
    let q_after = modularity(&g, &after);
    let joint = q_after - q_before;
    // Eq. 7: joint gain < sum of individual gains (by 2·k_i·k_j/(2m)²).
    let predicted_deficit = 2.0 * g.weighted_degree(0) * g.weighted_degree(1) / (2.0 * m * 2.0 * m);
    assert!(
        (gains[0] + gains[1] - joint - predicted_deficit).abs() < 1e-12,
        "Eq. 6/7 accounting: sum {} joint {joint} deficit {predicted_deficit}",
        gains[0] + gains[1]
    );
    assert!(joint < gains[0] + gains[1]);
}

/// §5.1 Fig. 2 case 1: two singleton vertices joined by an edge must merge
/// (not swap) under the singlet minimum-label heuristic, in one parallel
/// iteration, into the smaller label.
#[test]
fn fig2_case1_swap_prevented() {
    let g = from_unweighted_edges(2, [(0, 1)]).unwrap();
    let out = phase_driver(1e-9, 50).run(&g);
    assert_eq!(out.assignment, vec![0, 0]);
    // Convergence should be immediate-ish, not a long swap fight.
    assert!(
        out.num_iterations() <= 3,
        "took {} iterations",
        out.num_iterations()
    );
}

/// §5.1 Fig. 2 case 2: a 4-clique of singletons must not settle on the
/// {i4,i6},{i5,i7} local maximum; the generalized ML heuristic funnels
/// everyone toward the minimum label.
#[test]
fn fig2_case2_local_maximum_avoided() {
    let g = from_unweighted_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
    let out = phase_driver(1e-9, 50).run(&g);
    assert!(
        out.assignment.iter().all(|&c| c == out.assignment[0]),
        "clique split: {:?}",
        out.assignment
    );
}

/// §5.3 Lemma 3: in final solutions, single-degree vertices always share
/// their neighbor's community — verified on a star-of-stars graph across
/// all schemes.
#[test]
fn lemma3_single_degree_cohabitation() {
    let (g, _) = hub_spoke(&HubSpokeConfig {
        num_hubs: 16,
        spokes_per_hub: 5,
        ..Default::default()
    });
    for scheme in Scheme::ALL {
        let result = detect_with_scheme(&g, scheme);
        for v in 0..g.num_vertices() as u32 {
            if grappolo::graph::stats::is_single_degree(&g, v) {
                let j = g.neighbor_ids(v)[0];
                assert_eq!(
                    result.assignment[v as usize],
                    result.assignment[j as usize],
                    "{}: Lemma 3 violated at {v}",
                    scheme.name()
                );
            }
        }
    }
}

/// §5.2 design intent: coloring trades parallelism for *fewer iterations to
/// converge*. On a community-rich input the colored phase must not need
/// more iterations than the unordered phase, and must reach comparable Q.
#[test]
fn coloring_accelerates_convergence() {
    let (g, _) = planted_partition(&PlantedConfig {
        num_vertices: 4_000,
        num_communities: 40,
        ..Default::default()
    });
    let unordered = phase_driver(1e-6, 500).run(&g);
    let coloring = color_parallel(&g, &ParallelColoringConfig::default());
    let batches = ColorBatches::from_coloring(&coloring);
    let colored = phase_driver(1e-6, 500).run_colored(&g, &batches);
    assert!(
        colored.num_iterations() <= unordered.num_iterations(),
        "colored {} vs unordered {}",
        colored.num_iterations(),
        unordered.num_iterations()
    );
    assert!(colored.final_modularity >= 0.95 * unordered.final_modularity);
}

/// PR 3 differential quality claim: the colored pipeline (deterministic
/// barrier commits + incremental accounting) reaches the same final
/// modularity and NMI-vs-ground-truth bars as the unordered sweep on the
/// planted-partition suite, at every thread count — i.e. the accounting
/// rewrite traded none of the paper's §6.2 quality for determinism/speed.
#[test]
fn colored_quality_matches_unordered_across_thread_counts() {
    for (n, k, seed) in [(2_000usize, 20usize, 5u64), (4_000, 40, 6)] {
        let (g, truth) = planted_partition(&PlantedConfig {
            num_vertices: n,
            num_communities: k,
            seed,
            ..Default::default()
        });
        let unordered = detect_communities(&g, &Scheme::Baseline.config());
        let nmi_unordered = normalized_mutual_information(&truth, &unordered.assignment);
        assert!(nmi_unordered > 0.85, "n={n}: unordered NMI {nmi_unordered}");

        let mut reference: Option<Vec<u32>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = Scheme::BaselineVfColor.config();
            cfg.coloring_vertex_cutoff = 128;
            cfg.num_threads = Some(threads);
            let colored = detect_communities(&g, &cfg);
            assert!(
                colored.modularity > 0.95 * unordered.modularity,
                "n={n} t={threads}: colored Q {} vs unordered {}",
                colored.modularity,
                unordered.modularity
            );
            let nmi_colored = normalized_mutual_information(&truth, &colored.assignment);
            assert!(
                nmi_colored > 0.85 && nmi_colored > nmi_unordered - 0.05,
                "n={n} t={threads}: colored NMI {nmi_colored} vs unordered {nmi_unordered}"
            );
            // And the colored result itself is thread-count independent.
            match &reference {
                None => reference = Some(colored.assignment),
                Some(r) => assert_eq!(r, &colored.assignment, "n={n} t={threads}"),
            }
        }
    }
}

/// §6.2.2: "our parallel implementation delivers higher modularity compared
/// to the serial implementation" for most inputs — relaxed here to: the
/// headline scheme's Q is within 2% of serial's or better, on every proxy
/// with serial results, at smoke scale.
#[test]
fn parallel_quality_tracks_serial() {
    for input in [
        PaperInput::CoPapersDblp,
        PaperInput::Mg1,
        PaperInput::Rgg,
        PaperInput::EuropeOsm,
    ] {
        let g = input.generate(0.05, 3);
        let serial = detect_with_scheme(&g, Scheme::Serial);
        let mut cfg = Scheme::BaselineVfColor.config();
        cfg.coloring_vertex_cutoff = 256;
        let parallel = detect_communities(&g, &cfg);
        assert!(
            parallel.modularity > 0.98 * serial.modularity,
            "{}: parallel {} vs serial {}",
            input.id(),
            parallel.modularity,
            serial.modularity
        );
    }
}

/// §3: "modularity is a monotonically increasing function across iterations
/// of a phase" — for the SERIAL algorithm (Lemma 1 shows the parallel one
/// may dip). Verified over the proxy suite at smoke scale.
#[test]
fn serial_monotone_parallel_may_dip() {
    let g = PaperInput::Nlpkkt240.generate(0.04, 5);
    let serial = detect_with_scheme(&g, Scheme::Serial);
    assert!(serial.trace.check_monotone_within_phases(1e-9).is_ok());
    // The parallel trace is *allowed* to dip; we only require it terminated.
    let parallel = detect_with_scheme(&g, Scheme::Baseline);
    assert!(parallel.trace.total_iterations() > 0);
}

/// §6.1 footnote 4: on inputs whose single-degree vertices were pre-pruned
/// (Channel, MG1, MG2 — our proxies generate none), baseline ≡ baseline+VF.
#[test]
fn vf_noop_on_prepruned_inputs() {
    for input in [PaperInput::Channel, PaperInput::Mg1] {
        let g = input.generate(0.04, 2);
        let s = GraphStats::compute(&g);
        assert_eq!(
            s.num_single_degree,
            0,
            "{} proxy should be pre-pruned",
            input.id()
        );
        let base = detect_with_scheme(&g, Scheme::Baseline);
        let vf = detect_with_scheme(&g, Scheme::BaselineVf);
        assert_eq!(base.assignment, vf.assignment, "{}", input.id());
    }
}

/// Leiden's headline guarantee, reproduced for our refinement pass (the
/// Louvain flaw named in Staudt & Meyerhenke and the GSP-Leiden line of
/// work): with `refine = Leiden` every community the pipeline emits is
/// internally connected — the audit's disconnected fraction is **exactly
/// 0** — on ER (structure-free negative control), planted partition, and
/// RMAT (skewed-degree), through both the colored and unordered pipelines.
/// Plain Louvain offers no such guarantee; refinement makes it a theorem
/// (every emitted community is a union of phase-level connected components,
/// condensed along connected quotients).
#[test]
fn refinement_eliminates_disconnected_communities() {
    let suite = [
        (
            "er",
            erdos_renyi(&ErConfig {
                num_vertices: 4_000,
                num_edges: 20_000,
                seed: 11,
            }),
        ),
        (
            "planted",
            planted_partition(&PlantedConfig {
                num_vertices: 6_000,
                num_communities: 40,
                seed: 12,
                ..Default::default()
            })
            .0,
        ),
        (
            "rmat",
            rmat(&RmatConfig {
                scale: 12,
                num_edges: 40_000,
                seed: 13,
                ..Default::default()
            }),
        ),
    ];
    for (name, g) in &suite {
        for (pipeline, base) in [
            ("colored", Scheme::BaselineVfColor.config()),
            ("unordered", Scheme::Baseline.config()),
        ] {
            let mut config = LouvainConfigBuilder::from_base(base)
                .sweep(SweepMode::Active)
                .schedule(ScheduleSpec::Geometric)
                .refine(RefineMode::Leiden)
                .build()
                .expect("valid refined config");
            // Force the colored path at smoke scale.
            config.coloring_vertex_cutoff = 256;
            let result = detect_communities(g, &config);
            let report = connectivity_report(g, &result.assignment);
            assert_eq!(
                report.num_communities, result.num_communities,
                "{name}/{pipeline}: audit community count drifted"
            );
            assert_eq!(
                report.disconnected, 0,
                "{name}/{pipeline}: {} of {} communities internally disconnected",
                report.disconnected, report.num_communities
            );
            assert_eq!(report.disconnected_fraction, 0.0, "{name}/{pipeline}");
            assert!(
                report.min_internal_conductance > 0.0,
                "{name}/{pipeline}: a connected community audited at conductance 0"
            );
        }
    }
}

/// Table 5's conclusion: a higher colored threshold (1e-2) converges in no
/// more iterations than 1e-4, at comparable quality.
#[test]
fn higher_threshold_fewer_iterations() {
    let g = PaperInput::CoPapersDblp.generate(0.08, 4);
    let run = |threshold: f64| {
        let mut cfg = Scheme::BaselineVfColor.config();
        cfg.coloring_vertex_cutoff = 256;
        cfg.colored_threshold = threshold;
        detect_communities(&g, &cfg)
    };
    let tight = run(1e-4);
    let loose = run(1e-2);
    // Colored runs have ±1–2 iterations of scheduling jitter (§5.4's
    // stability caveat), so require "no more than tight + 2" rather than a
    // strict ordering.
    assert!(
        loose.trace.total_iterations() <= tight.trace.total_iterations() + 2,
        "loose {} vs tight {}",
        loose.trace.total_iterations(),
        tight.trace.total_iterations()
    );
    assert!(loose.modularity > 0.97 * tight.modularity);
}
