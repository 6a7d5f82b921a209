//! Pairwise partition comparison (§6.2.3, Table 3).
//!
//! Vertex pairs `(u, v)` are binned as:
//! * **TP** — same community in both partitions;
//! * **FP** — same community only in the candidate partition `P`;
//! * **FN** — same community only in the benchmark partition `S`;
//! * **TN** — different communities in both.
//!
//! From these: `SP = TP/(TP+FP)`, `SE = TP/(TP+FN)`,
//! `OQ = TP/(TP+FP+FN)`, `Rand = (TP+TN)/(all pairs)`.
//!
//! The paper evaluates these "only for two of the inputs — CNR and MG1"
//! because its implementation enumerates all Θ(n²) pairs. The counts are
//! computable exactly from the contingency table of community-intersection
//! sizes: `TP = Σ_ij C(n_ij, 2)`, `TP+FN = Σ_i C(|S_i|, 2)`,
//! `TP+FP = Σ_j C(|P_j|, 2)` — reducing the cost to sort+scan and removing
//! the paper's scalability caveat.

/// Pair-counting comparison result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairwiseMetrics {
    /// Pairs co-clustered in both partitions.
    pub true_positives: u128,
    /// Pairs co-clustered only in the candidate.
    pub false_positives: u128,
    /// Pairs co-clustered only in the benchmark.
    pub false_negatives: u128,
    /// Pairs separated in both.
    pub true_negatives: u128,
}

impl PairwiseMetrics {
    /// Specificity `TP / (TP + FP)`; 1.0 when the candidate proposes no
    /// pairs at all (vacuously specific).
    pub fn specificity(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// Sensitivity `TP / (TP + FN)`; 1.0 when the benchmark has no pairs.
    pub fn sensitivity(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// Overlap quality `TP / (TP + FP + FN)`.
    pub fn overlap_quality(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives + self.false_negatives,
        )
    }

    /// Rand index `(TP + TN) / (TP + FP + FN + TN)`.
    pub fn rand_index(&self) -> f64 {
        ratio(
            self.true_positives + self.true_negatives,
            self.total_pairs(),
        )
    }

    /// All vertex pairs `C(n, 2)`.
    pub fn total_pairs(&self) -> u128 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// Adjusted Rand index (Hubert–Arabie): the Rand index corrected for
    /// chance, 1 for identical partitions, ≈0 for independent ones. Not in
    /// the paper's Table 3; included because the raw Rand index saturates
    /// near 1 on many-small-community partitions (visible in Table 3's
    /// 99–100 % column) while ARI stays discriminative.
    pub fn adjusted_rand_index(&self) -> f64 {
        let tp = self.true_positives as f64;
        let fp = self.false_positives as f64;
        let fn_ = self.false_negatives as f64;
        let total = self.total_pairs() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let sum_a = tp + fn_; // Σ C(|S_i|,2)
        let sum_b = tp + fp; // Σ C(|P_j|,2)
        let expected = sum_a * sum_b / total;
        let max = 0.5 * (sum_a + sum_b);
        if (max - expected).abs() < 1e-12 {
            return 1.0; // degenerate: both partitions trivial
        }
        (tp - expected) / (max - expected)
    }
}

fn ratio(num: u128, den: u128) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

fn choose2(x: u128) -> u128 {
    x * x.saturating_sub(1) / 2
}

/// Exact pairwise comparison via the contingency table.
///
/// `benchmark` plays the paper's role of `S` (the serial output), `candidate`
/// the role of `P` (the parallel output). Both must have the same length.
pub fn pairwise_comparison(benchmark: &[u32], candidate: &[u32]) -> PairwiseMetrics {
    assert_eq!(
        benchmark.len(),
        candidate.len(),
        "partitions must cover the same vertex set"
    );
    let n = benchmark.len();

    // Intersection sizes via sort of (s, p) label pairs.
    let mut pairs: Vec<(u32, u32)> = benchmark
        .iter()
        .zip(candidate)
        .map(|(&s, &p)| (s, p))
        .collect();
    pairs.sort_unstable();

    let mut tp: u128 = 0;
    let mut idx = 0;
    while idx < pairs.len() {
        let key = pairs[idx];
        let mut run = 0u128;
        while idx < pairs.len() && pairs[idx] == key {
            run += 1;
            idx += 1;
        }
        tp += choose2(run);
    }

    let tp_fn: u128 = label_counts(benchmark).into_iter().map(choose2).sum();
    let tp_fp: u128 = label_counts(candidate).into_iter().map(choose2).sum();
    let total = choose2(n as u128);

    let false_negatives = tp_fn - tp;
    let false_positives = tp_fp - tp;
    PairwiseMetrics {
        true_positives: tp,
        false_positives,
        false_negatives,
        true_negatives: total - tp - false_positives - false_negatives,
    }
}

fn label_counts(assignment: &[u32]) -> Vec<u128> {
    let mut sorted: Vec<u32> = assignment.to_vec();
    sorted.sort_unstable();
    let mut counts = Vec::new();
    let mut idx = 0;
    while idx < sorted.len() {
        let label = sorted[idx];
        let mut run = 0u128;
        while idx < sorted.len() && sorted[idx] == label {
            run += 1;
            idx += 1;
        }
        counts.push(run);
    }
    counts
}

/// The paper's literal Θ(n²) definition — the correctness oracle for
/// [`pairwise_comparison`]. Only use on small inputs.
pub fn pairwise_comparison_bruteforce(benchmark: &[u32], candidate: &[u32]) -> PairwiseMetrics {
    assert_eq!(benchmark.len(), candidate.len());
    let n = benchmark.len();
    let mut m = PairwiseMetrics {
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
        true_negatives: 0,
    };
    for u in 0..n {
        for v in u + 1..n {
            let same_s = benchmark[u] == benchmark[v];
            let same_p = candidate[u] == candidate[v];
            match (same_s, same_p) {
                (true, true) => m.true_positives += 1,
                (false, true) => m.false_positives += 1,
                (true, false) => m.false_negatives += 1,
                (false, false) => m.true_negatives += 1,
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identical_partitions_score_perfect() {
        let p = vec![0, 0, 1, 1, 2];
        let m = pairwise_comparison(&p, &p);
        assert_eq!(m.false_positives, 0);
        assert_eq!(m.false_negatives, 0);
        assert_eq!(m.specificity(), 1.0);
        assert_eq!(m.sensitivity(), 1.0);
        assert_eq!(m.overlap_quality(), 1.0);
        assert_eq!(m.rand_index(), 1.0);
    }

    #[test]
    fn label_permutation_is_equivalent() {
        // Renaming community labels must not change any metric.
        let s = vec![0, 0, 1, 1, 2, 2];
        let p = vec![9, 9, 4, 4, 7, 7];
        let m = pairwise_comparison(&s, &p);
        assert_eq!(m.rand_index(), 1.0);
        assert_eq!(m.overlap_quality(), 1.0);
    }

    #[test]
    fn disjoint_vs_merged() {
        // Benchmark: all singletons. Candidate: everything together.
        let s = vec![0, 1, 2, 3];
        let p = vec![0, 0, 0, 0];
        let m = pairwise_comparison(&s, &p);
        assert_eq!(m.true_positives, 0);
        assert_eq!(m.false_positives, 6);
        assert_eq!(m.false_negatives, 0);
        assert_eq!(m.true_negatives, 0);
        assert_eq!(m.specificity(), 0.0);
        assert_eq!(m.sensitivity(), 1.0); // no benchmark pairs to miss
        assert_eq!(m.rand_index(), 0.0);
    }

    #[test]
    fn known_small_example() {
        // S = {0,1},{2,3}; P = {0,1,2},{3}.
        let s = vec![0, 0, 1, 1];
        let p = vec![0, 0, 0, 1];
        let m = pairwise_comparison(&s, &p);
        // Pairs: (01):TP, (02):FP, (03):TN, (12):FP, (13):TN, (23):FN.
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 2);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.true_negatives, 2);
        assert!((m.rand_index() - 0.5).abs() < 1e-12);
        assert!((m.overlap_quality() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn matches_bruteforce_on_random_partitions() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..10 {
            let n = 60 + trial * 13;
            let s: Vec<u32> = (0..n).map(|_| rng.gen_range(0..7)).collect();
            let p: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5)).collect();
            let fast = pairwise_comparison(&s, &p);
            let slow = pairwise_comparison_bruteforce(&s, &p);
            assert_eq!(fast, slow, "trial {trial}");
        }
    }

    #[test]
    fn total_pairs_invariant() {
        let s = vec![0, 1, 0, 1, 2, 2, 0];
        let p = vec![1, 1, 1, 0, 0, 2, 2];
        let m = pairwise_comparison(&s, &p);
        assert_eq!(m.total_pairs(), (7 * 6 / 2) as u128);
    }

    #[test]
    fn empty_and_single_vertex() {
        let m = pairwise_comparison(&[], &[]);
        assert_eq!(m.total_pairs(), 0);
        assert_eq!(m.rand_index(), 1.0); // vacuous
        let m1 = pairwise_comparison(&[0], &[5]);
        assert_eq!(m1.total_pairs(), 0);
    }

    #[test]
    #[should_panic(expected = "same vertex set")]
    fn mismatched_lengths_panic() {
        pairwise_comparison(&[0, 1], &[0]);
    }

    #[test]
    fn ari_identical_is_one() {
        let p = vec![0, 0, 1, 1, 2];
        assert!((pairwise_comparison(&p, &p).adjusted_rand_index() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_orthogonal_is_worse_than_chance() {
        // Orthogonal split of 4 elements: zero agreement on co-clustered
        // pairs; ARI goes negative (−0.5) while raw Rand sits at 1/3.
        let a = vec![0, 0, 1, 1];
        let b = vec![0, 1, 0, 1];
        let m = pairwise_comparison(&a, &b);
        assert!((m.adjusted_rand_index() + 0.5).abs() < 1e-12);
        assert!(m.adjusted_rand_index() < m.rand_index());
    }

    #[test]
    fn ari_discriminates_where_rand_saturates() {
        // Many small communities: one evicted vertex barely moves Rand but
        // visibly moves ARI.
        let s: Vec<u32> = (0..200).map(|v| v / 2).collect();
        let mut p = s.clone();
        p[0] = 1_000; // fresh singleton label: breaks exactly one pair
        let m = pairwise_comparison(&s, &p);
        assert!(m.rand_index() > 0.9999);
        assert!(m.adjusted_rand_index() < 0.995);
    }

    #[test]
    fn ari_degenerate_single_cluster() {
        let one = vec![0, 0, 0];
        assert_eq!(pairwise_comparison(&one, &one).adjusted_rand_index(), 1.0);
    }

    #[test]
    fn large_input_no_overflow() {
        // 200k vertices in one community each side: C(200k, 2) ≈ 2e10 pairs
        // exceeds u32; u128 arithmetic must hold.
        let s = vec![0u32; 200_000];
        let p = vec![0u32; 200_000];
        let m = pairwise_comparison(&s, &p);
        assert_eq!(m.true_positives, 200_000u128 * 199_999 / 2);
        assert_eq!(m.rand_index(), 1.0);
    }
}
