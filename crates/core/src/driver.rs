//! Multi-phase driver (§5.4): VF preprocessing → phases (colored or
//! unordered or serial) → graph rebuild, repeated until the modularity
//! converges.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::{ColoringSchedule, LouvainConfig, Scheme};
use crate::dendrogram::{Dendrogram, DendrogramLevel};
use crate::history::{PhaseRecord, PhaseTimings, RunTrace};
use crate::modularity::{modularity_with_resolution, Community};
use crate::phase::{PhaseDriver, PhaseOutcome};
use crate::rebuild::{condense, renumber_communities};
use crate::split::{detect_split, SPLIT_SERIAL_THRESHOLD};
use crate::vf::vf_compact;
use grappolo_coloring::{balance_colors, color_parallel, ColorBatches, ParallelColoringConfig};
use grappolo_graph::{CsrGraph, VertexId};
use std::borrow::Cow;
use std::sync::Mutex;
use std::time::Instant;

/// Result of a community-detection run.
#[derive(Clone, Debug)]
pub struct CommunityResult {
    /// Dense community labels (`0..num_communities`) on the **original**
    /// input vertices.
    pub assignment: Vec<Community>,
    /// Number of communities.
    pub num_communities: usize,
    /// Final modularity, evaluated on the original graph.
    pub modularity: f64,
    /// Per-iteration / per-phase trace.
    pub trace: RunTrace,
    /// The phase hierarchy.
    pub dendrogram: Dendrogram,
}

/// Runs community detection on `g` under `config`.
///
/// A serial (`parallel = false`) run executes inside a 1-thread pool
/// whatever `config.num_threads` says, so "serial" never silently
/// parallelizes. A parallel run executes inside the resident pool of
/// `config.num_threads` threads when set, and in the ambient pool otherwise
/// ([`with_thread_budget`]).
///
/// # Panics
///
/// On a config that fails [`LouvainConfig::validate`].
/// [`crate::update_communities`] returns that failure as an error instead.
pub fn detect_communities(g: &CsrGraph, config: &LouvainConfig) -> CommunityResult {
    detect_communities_cancellable(g, config, &CancelToken::new())
        .expect("a fresh CancelToken is never cancelled")
}

/// [`detect_communities`] with cooperative cancellation: the multi-phase
/// driver polls `token` at every phase boundary, the component splitter
/// between components, and the run stops early when it is set; the caller
/// gets `Err(Cancelled)` instead of the partial result. A run that
/// completes with the token unset is bitwise identical to a plain
/// [`detect_communities`] run.
///
/// This is the hook long-lived supervisors (the `grappolo serve` detect
/// worker draining on SIGTERM) use to abandon an in-flight re-detection
/// without tearing down the thread pool.
///
/// # Panics
///
/// On a config that fails [`LouvainConfig::validate`], like
/// [`detect_communities`]; [`crate::update_communities_cancellable`] returns
/// that failure as an error instead.
pub fn detect_communities_cancellable(
    g: &CsrGraph,
    config: &LouvainConfig,
    token: &CancelToken,
) -> Result<CommunityResult, Cancelled> {
    config.validate().expect("invalid LouvainConfig");
    run_in_pool(config, token, || detect(g, config, token))
}

/// The front door of every detection and update run: polls `token`, runs
/// `job` under the thread budget `config` gives a run
/// ([`with_thread_budget`]), and polls `token` again, so a job the token
/// interrupted never hands back its partial result.
pub(crate) fn run_in_pool<R: Send>(
    config: &LouvainConfig,
    token: &CancelToken,
    job: impl FnOnce() -> R + Send,
) -> Result<R, Cancelled> {
    if token.is_cancelled() {
        return Err(Cancelled);
    }
    let result = with_thread_budget(config, job);
    if token.is_cancelled() {
        Err(Cancelled)
    } else {
        Ok(result)
    }
}

/// Runs `job` under the thread budget a run of `config` gets: one thread
/// for a serial config, whatever its `num_threads` (so "serial" never
/// silently parallelizes), `config.num_threads` when set, the ambient pool
/// otherwise.
///
/// A budget of `t` threads is one pool that lives as long as the process,
/// built on first use, so a daemon's updates, a load and the detection it
/// feeds, and a run nested in a run of the same budget all execute on the
/// same threads. Callers load their graph in `job`, so the load uses no
/// more threads than the run it feeds.
pub fn with_thread_budget<R: Send>(config: &LouvainConfig, job: impl FnOnce() -> R + Send) -> R {
    let threads = if config.parallel {
        config.num_threads.map(|t| t.max(1))
    } else {
        Some(1)
    };
    match threads {
        Some(t) => budget_pool(t).install(job),
        None => job(),
    }
}

/// The resident pool of `threads` threads: built the first time a budget
/// asks for it, never dropped.
fn budget_pool(threads: usize) -> &'static rayon::ThreadPool {
    static POOLS: Mutex<Vec<(usize, &'static rayon::ThreadPool)>> = Mutex::new(Vec::new());
    let mut pools = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(_, pool)) = pools.iter().find(|&&(t, _)| t == threads) {
        return pool;
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool");
    let pool: &'static rayon::ThreadPool = Box::leak(Box::new(pool));
    pools.push((threads, pool));
    pool
}

/// Convenience: runs one of the paper's four schemes with default settings.
pub fn detect_with_scheme(g: &CsrGraph, scheme: Scheme) -> CommunityResult {
    detect_communities(g, &scheme.config())
}

/// The one detection run, inside the pool [`run_in_pool`] picked: the
/// component splitter when the config asks for it ([`detect_split`], which
/// runs this function per component), the multi-phase loop otherwise.
///
/// The loop polls `token` at each phase boundary and the splitter between
/// components. On cancellation the run stops early; the partial hierarchy
/// is still flattened so the return value is well-formed, but cancellable
/// callers discard it.
pub(crate) fn detect(g: &CsrGraph, config: &LouvainConfig, token: &CancelToken) -> CommunityResult {
    if config.split_components {
        return detect_split(g, config, token, SPLIT_SERIAL_THRESHOLD);
    }
    let t_start = Instant::now();
    let mut trace = RunTrace::default();

    // m is an invariant of the whole hierarchy — VF and rebuilds only move
    // weight between edges and self-loops — so the input graph's total
    // weight is carried through every level instead of re-summed. For
    // ordinary runs the two are identical (re-summing the same quantity);
    // under component splitting the input's total weight is the *parent*
    // graph's m and must survive VF and every rebuild.
    let m0 = g.total_weight();

    // Step (1): optional VF preprocessing (§5.4). The phase graph borrows
    // `g` until VF or a rebuild produces a smaller one, and owns it after.
    let t_vf = Instant::now();
    let compacted = if config.use_vf {
        vf_compact(g, config.vf_rounds)
    } else {
        None
    };
    let (mut work, vf_mapping): (Cow<CsrGraph>, Vec<VertexId>) = match compacted {
        Some(vf) => {
            trace.vf_merged = vf.merged;
            let graph = vf.graph.with_total_weight_override(m0);
            (Cow::Owned(graph), vf.mapping)
        }
        None => (
            Cow::Borrowed(g),
            (0..g.num_vertices() as VertexId).collect(),
        ),
    };
    trace.vf_time = t_vf.elapsed();
    let vf_vertices = work.num_vertices();

    let mut dendrogram = Dendrogram {
        vf_mapping,
        levels: Vec::new(),
    };

    let mut coloring_active = config.coloring != ColoringSchedule::Off;
    let mut prev_phase_end_q = f64::NEG_INFINITY;

    for phase_idx in 0..config.max_phases {
        if token.is_cancelled() {
            break;
        }
        let n = work.num_vertices();
        let m_edges = work.num_edges();

        // Coloring schedule (§6.1): stop once the graph is small or the
        // previous phase's gain was below the colored threshold.
        let colored = match config.coloring {
            ColoringSchedule::Off => false,
            ColoringSchedule::FirstPhaseOnly => coloring_active && phase_idx == 0,
            ColoringSchedule::MultiPhase => coloring_active && n >= config.coloring_vertex_cutoff,
        } && config.parallel;

        // Step (2): coloring preprocessing.
        let t_color = Instant::now();
        let (batches, num_colors) = if colored {
            let mut coloring = color_parallel(&work, &ParallelColoringConfig::default());
            if config.balanced_coloring {
                balance_colors(&work, &mut coloring, 0.1);
            }
            let batches = ColorBatches::from_coloring(&coloring);
            let num_colors = batches.num_classes();
            (batches, num_colors)
        } else {
            (ColorBatches::default(), 0)
        };
        let coloring_time = t_color.elapsed();

        // Step (3): the phase's iteration loop, behind the unified
        // PhaseDriver. The aggregate phase θ resolves through the config's
        // schedule into the convergence gate the sweep runs under (`Fixed`
        // keeps the paper's aggregate stop at θ; `Geometric` swaps in the
        // per-vertex gate); the driver also applies the Leiden-style
        // refinement pass when the config asks for one.
        let threshold = if colored {
            config.colored_threshold
        } else {
            config.final_threshold
        };
        let phase_driver = PhaseDriver::from_config(config, threshold);
        let start_q = {
            let identity: Vec<Community> = (0..n as Community).collect();
            modularity_with_resolution(&work, &identity, config.resolution)
        };
        let t_cluster = Instant::now();
        let outcome: PhaseOutcome = if colored {
            phase_driver.run_colored(&work, &batches)
        } else {
            phase_driver.run(&work)
        };
        let clustering_time = t_cluster.elapsed();

        // With refinement the phase's end Q is the refined value (never
        // lower than the sweep's); without it, an iteration-less phase
        // reports the identity partition's Q.
        let end_q = match &outcome.refinement {
            Some(stats) => stats.refined_modularity,
            None if outcome.iterations.is_empty() => start_q,
            None => outcome.final_modularity,
        };

        // Step (4): graph rebuild — the phase's one renumbering labels the
        // dendrogram level and the condensed graph's vertices. It is also
        // computed for the terminal phase so the dendrogram's last level has
        // dense labels (no graph is condensed then).
        let t_rebuild = Instant::now();
        let (renumber, num_communities) =
            renumber_communities(&outcome.assignment, config.renumber);
        let phase_gain = end_q - start_q;
        let made_progress = num_communities < n;
        let overall_gain = if prev_phase_end_q.is_finite() {
            end_q - prev_phase_end_q
        } else {
            f64::INFINITY
        };
        let is_last = !made_progress
            || phase_gain < config.final_threshold
            || overall_gain < config.final_threshold
            || phase_idx + 1 == config.max_phases;
        let next_graph = if is_last {
            None
        } else {
            Some(
                condense(&work, &outcome.assignment, &renumber, num_communities)
                    .with_total_weight_override(m0),
            )
        };
        let rebuild_time = t_rebuild.elapsed();

        // The phase's record takes the sweep's own lists; the assignment
        // goes to the dendrogram.
        trace.phases.push(PhaseRecord {
            num_vertices: n,
            num_edges: m_edges,
            colored,
            num_colors,
            start_modularity: start_q,
            end_modularity: end_q,
            iterations: outcome.iterations,
            stats: outcome.stats,
            refinement: outcome.refinement,
            timings: PhaseTimings {
                coloring: coloring_time,
                clustering: clustering_time,
                rebuild: rebuild_time,
            },
        });
        dendrogram.levels.push(DendrogramLevel {
            assignment: outcome.assignment,
            renumber,
            num_communities,
        });

        // Coloring shutoff (§6.1): once the phase gain drops below the
        // colored threshold, later phases run uncolored at θ_final.
        if colored && phase_gain < config.coloring_phase_gain_cutoff {
            coloring_active = false;
        }

        match next_graph {
            Some(gn) => work = Cow::Owned(gn),
            None => break,
        }
        prev_phase_end_q = end_q;
    }

    // Project the hierarchy back to the original vertices.
    let assignment = dendrogram.flatten();
    // No phases ran (empty graph): each VF vertex is a community.
    let num_communities = dendrogram
        .levels
        .last()
        .map_or(vf_vertices, |l| l.num_communities);
    let final_q = modularity_with_resolution(g, &assignment, config.resolution);
    trace.total_time = t_start.elapsed();

    CommunityResult {
        assignment,
        num_communities,
        modularity: final_q,
        trace,
        dendrogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grappolo_graph::gen::{
        planted_partition, ring_of_cliques, CliqueRingConfig, PlantedConfig,
    };

    fn planted() -> (CsrGraph, Vec<u32>) {
        planted_partition(&PlantedConfig {
            num_vertices: 2_000,
            num_communities: 20,
            avg_intra_degree: 12.0,
            avg_inter_degree: 1.0,
            ..Default::default()
        })
    }

    fn colored_config() -> LouvainConfig {
        LouvainConfig {
            coloring_vertex_cutoff: 64, // engage coloring at test scale
            ..Scheme::BaselineVfColor.config()
        }
    }

    #[test]
    fn all_schemes_find_planted_communities() {
        let (g, truth) = planted();
        let q_truth = modularity_with_resolution(&g, &truth, 1.0);
        for scheme in Scheme::ALL {
            let cfg = if scheme == Scheme::BaselineVfColor {
                colored_config()
            } else {
                scheme.config()
            };
            let result = detect_communities(&g, &cfg);
            assert!(
                result.modularity > 0.9 * q_truth,
                "{}: Q {} vs planted {}",
                scheme.name(),
                result.modularity,
                q_truth
            );
            // Dense labels.
            let max = *result.assignment.iter().max().unwrap() as usize;
            assert_eq!(max + 1, result.num_communities, "{}", scheme.name());
        }
    }

    /// Every scheme reports the Q of its assignment from the one evaluator,
    /// bit for bit — on real weights and above `det_sum`'s 4 096-item chunk,
    /// where a differently ordered sum differs in the last bits.
    #[test]
    fn reported_modularity_matches_assignment() {
        for seed in 1..=3 {
            let (g, _) = planted_partition(&PlantedConfig {
                num_vertices: 6_000,
                num_communities: 40,
                weight_range: Some((0.5, 2.0)),
                seed,
                ..Default::default()
            });
            for scheme in Scheme::ALL {
                let result = detect_communities(&g, &scheme.config());
                let q = modularity_with_resolution(&g, &result.assignment, 1.0);
                assert_eq!(
                    q.to_bits(),
                    result.modularity.to_bits(),
                    "{} seed {seed}: reported {} vs recomputed {q}",
                    scheme.name(),
                    result.modularity
                );
            }
        }
    }

    #[test]
    fn last_phase_modularity_equals_final() {
        // The rebuild invariant: Q on the phase graph equals Q of the
        // projected partition on the original graph.
        let (g, _) = planted();
        let result = detect_communities(&g, &colored_config());
        let last_phase_q = result.trace.phases.last().unwrap().end_modularity;
        assert!(
            (last_phase_q - result.modularity).abs() < 1e-9,
            "phase {last_phase_q} vs final {}",
            result.modularity
        );
    }

    #[test]
    fn ring_of_cliques_exact_recovery() {
        let (g, truth) = ring_of_cliques(&CliqueRingConfig {
            num_cliques: 12,
            clique_size: 6,
            ..Default::default()
        });
        for scheme in Scheme::ALL {
            let result = detect_with_scheme(&g, scheme);
            // Each clique ends in exactly one community.
            for c in 0..12u32 {
                let members: Vec<_> = (0..72)
                    .filter(|&v| truth[v] == c)
                    .map(|v| result.assignment[v])
                    .collect();
                assert!(
                    members.windows(2).all(|w| w[0] == w[1]),
                    "{}: clique {c} split",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn baseline_stable_across_thread_counts() {
        // §5.4's stability: baseline (and +VF) outputs do not depend on the
        // number of cores.
        let (g, _) = planted();
        let mut cfg = Scheme::Baseline.config();
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(2);
        let r2 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(4);
        let r4 = detect_communities(&g, &cfg);
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.assignment, r4.assignment);
        assert_eq!(r1.modularity, r2.modularity);
        assert_eq!(r1.modularity, r4.modularity);
        assert_eq!(r1.trace.total_iterations(), r4.trace.total_iterations());
    }

    #[test]
    fn serial_config_runs_on_one_thread_whatever_num_threads_says() {
        let token = CancelToken::new();
        let mut cfg = Scheme::Serial.config();
        cfg.num_threads = Some(4);
        let seen = run_in_pool(&cfg, &token, rayon::current_num_threads).unwrap();
        assert_eq!(seen, 1, "a serial run got a {seen}-thread pool");
        cfg.parallel = true;
        let seen = run_in_pool(&cfg, &token, rayon::current_num_threads).unwrap();
        assert_eq!(seen, 4, "a parallel run keeps its num_threads");
    }

    #[test]
    fn a_load_in_the_thread_budget_sees_the_run_threads() {
        // `detect --scheme serial --threads 4` loads on one thread, and a
        // parallel `--threads 3` on three; the run then keeps that budget.
        let ambient = rayon::current_num_threads();
        for (mut cfg, threads, budget) in
            [(Scheme::Serial.config(), 4, 1), (colored_config(), 3, 3)]
        {
            cfg.num_threads = Some(threads);
            let (load, run) = with_thread_budget(&cfg, || {
                let load = rayon::current_num_threads();
                let token = CancelToken::new();
                let run = run_in_pool(&cfg, &token, rayon::current_num_threads);
                (load, run.unwrap())
            });
            assert_eq!(load, budget, "the load got a {load}-thread pool");
            assert_eq!(run, budget, "the run got a {run}-thread pool");
            assert_eq!(
                rayon::current_num_threads(),
                ambient,
                "the budget outlived its job"
            );
        }
    }

    #[test]
    fn successive_runs_of_one_budget_share_one_pool() {
        // Three runs under `--threads 2` install the one resident 2-thread
        // pool, so every task that runs off the caller runs on its one
        // worker; a pool built per run would bring a new worker each time.
        // Tests that share the pool meanwhile add no other worker.
        use rayon::prelude::*;
        use std::collections::HashSet;
        let cfg = LouvainConfig {
            num_threads: Some(2),
            ..colored_config()
        };
        let caller = std::thread::current().id();
        let workers = Mutex::new(HashSet::new());
        for _ in 0..3 {
            with_thread_budget(&cfg, || {
                (0usize..16).into_par_iter().with_min_len(1).for_each(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let id = std::thread::current().id();
                    if id != caller {
                        workers.lock().unwrap().insert(id);
                    }
                });
            });
        }
        let workers = workers.into_inner().unwrap();
        assert!(
            workers.len() <= 1,
            "three runs of one budget ran on {} workers",
            workers.len()
        );
    }

    #[test]
    fn colored_scheme_stable_across_thread_counts() {
        // PR 3: with barrier commits + incremental accounting the headline
        // colored scheme joins the §5.4 stability guarantee end to end.
        let (g, _) = planted();
        let mut cfg = colored_config();
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(2);
        let r2 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(8);
        let r8 = detect_communities(&g, &cfg);
        assert!(r1.trace.phases[0].colored, "test must exercise coloring");
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.assignment, r8.assignment);
        assert_eq!(r1.modularity.to_bits(), r2.modularity.to_bits());
        assert_eq!(r1.modularity.to_bits(), r8.modularity.to_bits());
        assert_eq!(r1.trace.total_iterations(), r8.trace.total_iterations());
    }

    #[test]
    fn active_sweep_mode_end_to_end() {
        // The driver-level contract for the dirty-vertex schedule: every
        // scheme completes under `SweepMode::Active` with quality within
        // the paper's tolerance of the full-sweep run, and the parallel
        // schemes stay bitwise stable across thread counts.
        let (g, _) = planted();
        for scheme in Scheme::ALL {
            let mut cfg = if scheme == Scheme::BaselineVfColor {
                colored_config()
            } else {
                scheme.config()
            };
            let full = detect_communities(&g, &cfg);
            cfg.sweep_mode = crate::config::SweepMode::Active;
            let active = detect_communities(&g, &cfg);
            assert!(
                active.modularity >= 0.95 * full.modularity,
                "{}: active Q {} vs full Q {}",
                scheme.name(),
                active.modularity,
                full.modularity
            );
            if scheme != Scheme::Serial {
                cfg.num_threads = Some(1);
                let r1 = detect_communities(&g, &cfg);
                cfg.num_threads = Some(8);
                let r8 = detect_communities(&g, &cfg);
                assert_eq!(r1.assignment, r8.assignment, "{}", scheme.name());
                assert_eq!(
                    r1.modularity.to_bits(),
                    r8.modularity.to_bits(),
                    "{}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn geometric_schedule_end_to_end() {
        // The convergence engine at driver level: the geometric per-vertex
        // gate runs through VF, coloring, multi-phase rebuilds, and both
        // sweep modes, keeps quality within tolerance of the fixed
        // baseline, and stays bitwise stable across thread counts.
        let (g, _) = planted();
        let fixed = detect_communities(&g, &colored_config());
        let mut cfg = LouvainConfig {
            schedule: crate::schedule::ScheduleSpec::Geometric,
            sweep_mode: crate::config::SweepMode::Active,
            ..colored_config()
        };
        let sched = detect_communities(&g, &cfg);
        assert!(
            sched.modularity >= 0.95 * fixed.modularity,
            "scheduled Q {} vs fixed Q {}",
            sched.modularity,
            fixed.modularity
        );
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(8);
        let r8 = detect_communities(&g, &cfg);
        assert_eq!(r1.assignment, r8.assignment);
        assert_eq!(r1.modularity.to_bits(), r8.modularity.to_bits());
        assert_eq!(r1.trace.total_iterations(), r8.trace.total_iterations());
    }

    #[test]
    fn cancelled_token_stops_every_detection_path() {
        let (g, _) = planted();
        let token = CancelToken::new();
        token.cancel();
        for split_components in [false, true] {
            let cfg = LouvainConfig {
                split_components,
                ..Scheme::Baseline.config()
            };
            assert_eq!(
                detect_communities_cancellable(&g, &cfg, &token).unwrap_err(),
                Cancelled
            );
            // Inside the pool, the run itself stops before any phase.
            assert!(detect(&g, &cfg, &token).trace.phases.is_empty());
        }
    }

    #[test]
    fn vf_scheme_stable_across_thread_counts() {
        let (g, _) = planted();
        let mut cfg = Scheme::BaselineVf.config();
        cfg.num_threads = Some(1);
        let r1 = detect_communities(&g, &cfg);
        cfg.num_threads = Some(3);
        let r3 = detect_communities(&g, &cfg);
        assert_eq!(r1.assignment, r3.assignment);
    }

    #[test]
    fn trace_is_populated() {
        let (g, _) = planted();
        let result = detect_communities(&g, &colored_config());
        assert!(!result.trace.phases.is_empty());
        assert!(result.trace.total_iterations() > 0);
        for p in &result.trace.phases {
            assert_eq!(p.stats.len(), p.iterations.len());
            assert_eq!(p.iterations.last().unwrap().0, p.end_modularity);
        }
        // Phase 0 was colored under the test cutoff.
        assert!(result.trace.phases[0].colored);
        assert!(result.trace.phases[0].num_colors > 1);
        // Phase sizes shrink.
        let sizes: Vec<_> = result.trace.phases.iter().map(|p| p.num_vertices).collect();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "phase sizes must shrink: {sizes:?}");
        }
    }

    #[test]
    fn dendrogram_levels_flatten_consistently() {
        let (g, _) = planted();
        let result = detect_communities(&g, &colored_config());
        let flat = result.dendrogram.flatten();
        assert_eq!(flat, result.assignment);
        // Earlier levels are finer (more or equal communities).
        let sizes = result.dendrogram.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn modularity_improves_over_levels() {
        let (g, _) = planted();
        let result = detect_communities(&g, &colored_config());
        let mut prev = f64::NEG_INFINITY;
        for lvl in 0..result.dendrogram.num_levels() {
            let flat = result.dendrogram.flatten_to_level(lvl);
            let q = modularity_with_resolution(&g, &flat, 1.0);
            assert!(
                q >= prev - 1e-9,
                "level {lvl} modularity {q} below previous {prev}"
            );
            prev = q;
        }
    }

    #[test]
    fn serial_uses_one_thread_pool() {
        // Smoke check: serial scheme completes and never panics inside the
        // forced 1-thread pool, and its trace has no colored phases.
        let (g, _) = planted();
        let result = detect_with_scheme(&g, Scheme::Serial);
        assert!(result.trace.phases.iter().all(|p| !p.colored));
        assert!(result.modularity > 0.5);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let result = detect_communities(&g, &LouvainConfig::default());
        assert!(result.assignment.is_empty());
        assert_eq!(result.num_communities, 0);
        assert_eq!(result.modularity, 0.0);
    }

    #[test]
    fn edgeless_graph_all_singletons() {
        let g = CsrGraph::empty(7);
        let result = detect_communities(&g, &LouvainConfig::default());
        assert_eq!(result.assignment, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(result.num_communities, 7);
    }

    #[test]
    fn first_phase_only_coloring_runs() {
        let (g, _) = planted();
        let cfg = LouvainConfig {
            coloring: ColoringSchedule::FirstPhaseOnly,
            coloring_vertex_cutoff: 64,
            ..Scheme::BaselineVfColor.config()
        };
        let result = detect_communities(&g, &cfg);
        assert!(result.trace.phases[0].colored);
        for p in &result.trace.phases[1..] {
            assert!(!p.colored, "only phase 0 may be colored");
        }
        assert!(result.modularity > 0.5);
    }

    #[test]
    fn leiden_refinement_end_to_end() {
        // Refinement never lowers a phase's modularity, the driver reports
        // the refined value, and the whole refined pipeline stays bitwise
        // stable across thread counts — colored and unordered alike.
        let (g, _) = planted();
        for base in [colored_config(), Scheme::Baseline.config()] {
            let plain = detect_communities(&g, &base);
            let mut cfg = base;
            cfg.refine = crate::config::RefineMode::Leiden;
            let refined = detect_communities(&g, &cfg);
            assert!(
                refined.modularity >= 0.999 * plain.modularity,
                "refined Q {} vs plain Q {}",
                refined.modularity,
                plain.modularity
            );
            for (i, p) in refined.trace.phases.iter().enumerate() {
                assert!(
                    p.end_modularity >= p.start_modularity - 1e-12,
                    "phase {i} lost modularity under refinement"
                );
                assert_eq!(p.refinement.unwrap().refined_modularity, p.end_modularity);
            }
            assert!(plain.trace.phases.iter().all(|p| p.refinement.is_none()));
            cfg.num_threads = Some(1);
            let r1 = detect_communities(&g, &cfg);
            cfg.num_threads = Some(2);
            let r2 = detect_communities(&g, &cfg);
            cfg.num_threads = Some(8);
            let r8 = detect_communities(&g, &cfg);
            assert_eq!(r1.assignment, r2.assignment);
            assert_eq!(r1.assignment, r8.assignment);
            assert_eq!(r1.modularity.to_bits(), r2.modularity.to_bits());
            assert_eq!(r1.modularity.to_bits(), r8.modularity.to_bits());
        }
    }

    #[test]
    fn resolution_parameter_changes_granularity() {
        let (g, _) = planted();
        let mut lo = colored_config();
        lo.resolution = 0.2;
        let mut hi = colored_config();
        hi.resolution = 4.0;
        let coarse = detect_communities(&g, &lo);
        let fine = detect_communities(&g, &hi);
        assert!(
            coarse.num_communities <= fine.num_communities,
            "γ=0.2 gave {} communities, γ=4 gave {}",
            coarse.num_communities,
            fine.num_communities
        );
    }
}
