//! # grappolo-coloring
//!
//! Distance-1 graph coloring used to partition vertices into
//! independent sets for the paper's coloring heuristic (§5.2): "vertices of
//! the same color are processed in parallel … no two adjacent vertices will
//! be processed concurrently."
//!
//! The parallel algorithm is the speculative iterative scheme of Çatalyürek,
//! Feo, Gebremedhin, Halappanavar, Pothen, *Graph coloring algorithms for
//! multi-core and massively multithreaded architectures* (Parallel Computing
//! 38(11), 2012) — the paper's reference \[12\] and the implementation Grappolo
//! uses for preprocessing.
//!
//! Also provided: a serial greedy reference and a *balanced* recoloring pass
//! (the paper's §6.2 observes skewed color-class sizes hurt uk-2002 and
//! says "We are exploring an alternative approaches to create balanced
//! coloring sets").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod balanced;
pub mod batches;
pub mod greedy;
pub mod parallel;
pub mod stats;

pub use balanced::balance_colors;
pub use batches::ColorBatches;
pub use greedy::color_greedy_serial;
pub use parallel::{color_parallel, ParallelColoringConfig};
pub use stats::{color_class_sizes, is_valid_distance1, ColoringStats};

/// A coloring: `colors[v]` is the color (0-based) of vertex `v`.
pub type Coloring = Vec<u32>;
