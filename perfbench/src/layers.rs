//! The detection pipeline driven from outside, one public layer call at a
//! time, with a wall-clock span around each call. It calls the same
//! functions in the same order as `grappolo_core::detect_communities`, so
//! its assignment must be byte-identical to the untraced program's.

use grappolo_coloring::{
    balance_colors, color_parallel, ColorBatches, ColoringStats, ParallelColoringConfig,
};
use grappolo_core::rebuild::{rebuild, renumber_communities};
use grappolo_core::serial::serial_modularity;
use grappolo_core::{
    modularity_with_resolution, vf_preprocess_recursive, ColoringSchedule, Community, Dendrogram,
    DendrogramLevel, LouvainConfig, PhaseDriver, VfResult,
};
use grappolo_graph::CsrGraph;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer busy time (ms) and work counters of one traced run.
#[derive(Default, Clone)]
pub struct Ledger {
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f` inside the span `layer`; repeated spans of one layer add up.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *self.ms.entry(layer).or_default() += t.elapsed().as_secs_f64() * 1e3;
        r
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counts.entry(counter).or_default() += v;
    }

    /// Sum of every span's duration.
    pub fn traced_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}

/// Output of the traced pipeline.
pub struct Detection {
    pub assignment: Vec<Community>,
    pub modularity: f64,
}

/// `detect_communities(g, config)`, one traced layer call at a time.
pub fn detect_traced(g: &CsrGraph, config: &LouvainConfig, ledger: &mut Ledger) -> Detection {
    config.validate().expect("valid config");
    let threads = match config.num_threads {
        Some(t) => t.max(1),
        None if !config.parallel => 1,
        None => rayon::current_num_threads(),
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| run_phases(g, config, ledger))
}

fn run_phases(g: &CsrGraph, config: &LouvainConfig, ledger: &mut Ledger) -> Detection {
    let m0 = g.total_weight();
    let (vf_n, mapping, mut work) = ledger.time("vf", || {
        let vf: VfResult = if config.use_vf {
            let mut vf = vf_preprocess_recursive(g, config.vf_rounds);
            vf.graph = std::mem::take(&mut vf.graph).with_total_weight_override(m0);
            vf
        } else {
            VfResult::identity(g.clone())
        };
        let work = vf.graph.clone();
        (vf.graph.num_vertices(), vf.mapping, work)
    });
    ledger.add("vf.merged", (g.num_vertices() - vf_n) as f64);
    let mut dendrogram = Dendrogram {
        vf_mapping: mapping,
        levels: Vec::new(),
    };

    let modularity = |g: &CsrGraph, a: &[Community]| {
        if config.parallel {
            modularity_with_resolution(g, a, config.resolution)
        } else {
            serial_modularity(g, a, config.resolution)
        }
    };
    let mut coloring_active = config.coloring != ColoringSchedule::Off;
    let mut prev_phase_end_q = f64::NEG_INFINITY;
    for phase_idx in 0..config.max_phases {
        let n = work.num_vertices();
        let colored = match config.coloring {
            ColoringSchedule::Off => false,
            ColoringSchedule::FirstPhaseOnly => coloring_active && phase_idx == 0,
            ColoringSchedule::MultiPhase => coloring_active && n >= config.coloring_vertex_cutoff,
        } && config.parallel;

        let batches = if colored {
            let (batches, colors) = ledger.time("coloring", || {
                let mut coloring = color_parallel(&work, &ParallelColoringConfig::default());
                if config.balanced_coloring {
                    balance_colors(&work, &mut coloring, 0.1);
                }
                let stats = ColoringStats::compute(&coloring);
                (ColorBatches::from_coloring(&coloring), stats.num_colors)
            });
            ledger.add("coloring.colors", colors as f64);
            ledger.add("coloring.phases", 1.0);
            batches
        } else {
            ColorBatches::default()
        };

        let threshold = if colored {
            config.colored_threshold
        } else {
            config.final_threshold
        };
        let start_q = ledger.time("modularity", || {
            let identity: Vec<Community> = (0..n as Community).collect();
            modularity(&work, &identity)
        });
        let outcome = ledger.time("sweep", || {
            let driver = PhaseDriver::from_config(config, threshold);
            if colored {
                driver.run_colored(&work, &batches)
            } else {
                driver.run(&work)
            }
        });
        ledger.add("phase.iterations", outcome.num_iterations() as f64);
        ledger.add(
            "phase.moves",
            outcome.iterations.iter().map(|&(_, m)| m as f64).sum(),
        );
        ledger.add(
            "phase.visits",
            outcome.stats.iter().map(|s| s.frontier as f64).sum(),
        );

        let end_q = match &outcome.refinement {
            Some(stats) => stats.refined_modularity,
            None if outcome.iterations.is_empty() => start_q,
            None => outcome.final_modularity,
        };
        let (renumber, num_communities, next_graph) = ledger.time("rebuild", || {
            let (renumber, num_communities) =
                renumber_communities(&outcome.assignment, config.renumber);
            let phase_gain = end_q - start_q;
            let overall_gain = if prev_phase_end_q.is_finite() {
                end_q - prev_phase_end_q
            } else {
                f64::INFINITY
            };
            let is_last = num_communities >= n
                || phase_gain < config.final_threshold
                || overall_gain < config.final_threshold
                || phase_idx + 1 == config.max_phases;
            let next = (!is_last).then(|| {
                rebuild(&work, &outcome.assignment, config.rebuild, config.renumber)
                    .graph
                    .with_total_weight_override(m0)
            });
            (renumber, num_communities, next)
        });
        if colored && end_q - start_q < config.coloring_phase_gain_cutoff {
            coloring_active = false;
        }
        dendrogram.levels.push(DendrogramLevel {
            assignment: outcome.assignment,
            renumber,
            num_communities,
        });
        match next_graph {
            Some(next) => work = next,
            None => break,
        }
        prev_phase_end_q = end_q;
    }

    let assignment = ledger.time("dendrogram", || dendrogram.flatten());
    let q = ledger.time("modularity", || modularity(g, &assignment));
    Detection {
        assignment,
        modularity: q,
    }
}

/// Compensated (Neumaier) sum, so the independent check below does not
/// depend on summation order.
#[derive(Default)]
struct Sum {
    s: f64,
    c: f64,
}

impl Sum {
    fn add(&mut self, x: f64) {
        let t = self.s + x;
        if self.s.abs() >= x.abs() {
            self.c += (self.s - t) + x;
        } else {
            self.c += (x - t) + self.s;
        }
        self.s = t;
    }

    fn value(&self) -> f64 {
        self.s + self.c
    }
}

/// Modularity `Q_γ` recomputed straight from the CSR arrays, without the
/// library's modularity code: the benchmark's check on the reported Q.
pub fn independent_modularity(g: &CsrGraph, assignment: &[Community], gamma: f64) -> f64 {
    let offsets = g.adjacency_offsets();
    let targets = g.adjacency_targets();
    let weights = g.adjacency_weights();
    let n = g.num_vertices();
    let mut two_m = Sum::default();
    let mut e_in = Sum::default();
    if assignment.len() != n || assignment.iter().any(|&c| c as usize >= n) {
        return f64::NAN;
    }
    let mut a: Vec<Sum> = (0..n).map(|_| Sum::default()).collect();
    for v in 0..n {
        let cv = assignment[v];
        for e in offsets[v]..offsets[v + 1] {
            let w = weights[e];
            two_m.add(w);
            a[cv as usize].add(w);
            if assignment[targets[e] as usize] == cv {
                e_in.add(w);
            }
        }
    }
    let two_m = two_m.value();
    if two_m <= 0.0 {
        return 0.0;
    }
    let mut null = Sum::default();
    for s in &a {
        let x = s.value() / two_m;
        null.add(x * x);
    }
    e_in.value() / two_m - gamma * null.value()
}

/// Bytes the CSR arrays occupy (offsets, targets, weights, degrees):
/// computed from the array lengths, not measured.
pub fn csr_bytes(g: &CsrGraph) -> usize {
    g.adjacency_offsets().len() * std::mem::size_of::<usize>()
        + g.adjacency_targets().len() * std::mem::size_of::<u32>()
        + g.adjacency_weights().len() * std::mem::size_of::<f64>()
        + g.weighted_degrees().len() * std::mem::size_of::<f64>()
}
