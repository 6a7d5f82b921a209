//! # grappolo-metrics
//!
//! Partition-comparison metrics and performance profiles for the paper's
//! qualitative evaluation:
//!
//! * [`pairwise`] — specificity / sensitivity / overlap quality / Rand index
//!   over vertex pairs (§6.2.3, Table 3), computed exactly in near-linear
//!   time via a contingency table (the paper used the Θ(n²) definition and
//!   could only afford two inputs; the contingency form is algebraically
//!   identical and is cross-checked against the quadratic reference in
//!   tests).
//! * [`nmi`] — normalized mutual information, a standard independent check.
//! * [`perf_profile`] — the ratio-to-best performance profiles of Fig. 10.
//! * [`connectivity`] — the internal-connectivity audit (disconnected-
//!   community fraction, per-community internal conductance) behind the
//!   Leiden-style refinement's acceptance tests and the CLI `audit`
//!   subcommand.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod connectivity;
pub mod nmi;
pub mod pairwise;
pub mod perf_profile;

pub use connectivity::{
    audit_communities, connectivity_report, CommunityConnectivity, ConnectivityReport,
};
pub use nmi::normalized_mutual_information;
pub use pairwise::{pairwise_comparison, pairwise_comparison_bruteforce, PairwiseMetrics};
pub use perf_profile::{PerfProfile, ProfileCurve};
