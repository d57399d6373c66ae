//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! picker, and the derived shares and rates the workloads report.

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so the spreads this program prints
/// match the ones computed over its runs. One sample gives `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Median and quartiles of repeated measurements, as every result carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Spread {
            median: median(xs),
            q1,
            q3,
            n: xs.len(),
        }
    }
}

/// Candidate tail percentiles, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its nearest-rank value. Falls back to the
/// median (p50) when even p90 lacks ten samples beyond it. Returns
/// `(percentile, value)`.
pub fn tail_percentile(xs: &[f64]) -> (f64, f64) {
    let mut best = 50.0;
    for p in TAIL_LADDER {
        let beyond = xs.len() as f64 * (1.0 - p / 100.0);
        // Rounded so that e.g. 1000 samples at p99 count as 10 beyond.
        if (beyond * 1e6).round() / 1e6 >= 10.0 {
            best = p;
        }
    }
    (best, nearest_rank(xs, best))
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. 0 when empty.
pub fn nearest_rank(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Share of a measured whole that the replayed layers do not explain:
/// `1 − Σ layer time ÷ whole`. Negative when the layers sum past the whole.
pub fn unattributed_share(layer_seconds: &[f64], whole_seconds: f64) -> f64 {
    if whole_seconds <= 0.0 {
        return 0.0;
    }
    1.0 - layer_seconds.iter().sum::<f64>() / whole_seconds
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One step of the serving rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateStep {
    pub offered_qps: f64,
    pub p99_ms: f64,
    pub backlog_growing: bool,
    /// Every arrived query was answered (a refused or lost query misses
    /// any latency limit).
    pub all_answered: bool,
}

impl RateStep {
    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        self.all_answered && !self.backlog_growing && self.p99_ms <= p99_limit_ms
    }
}

/// The highest offered rate such that it and every lower rate of the
/// ladder meet the p99 limit without a growing backlog; 0 when the lowest
/// rate already misses.
pub fn slo_qps(steps: &[RateStep], p99_limit_ms: f64) -> f64 {
    let mut by_rate: Vec<&RateStep> = steps.iter().collect();
    by_rate.sort_by(|a, b| a.offered_qps.total_cmp(&b.offered_qps));
    let mut best = 0.0;
    for s in by_rate {
        if !s.meets(p99_limit_ms) {
            break;
        }
        best = s.offered_qps;
    }
    best
}

/// Whether a queue kept growing over a run: the mean batch drained in
/// the last third of the drains exceeds twice the first third's, plus one
/// query. Batched admission drains everything that has arrived, so batch
/// size is the queue length at each drain.
pub fn backlog_growing(batch_sizes: &[usize]) -> bool {
    let n = batch_sizes.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&batch_sizes[n - third..]) > 2.0 * mean(&batch_sizes[..third]) + 1.0
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_picker_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (99.0, 990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).0, 90.0);
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (99.9, 9990.0));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (50.0, 50.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), (90.0, 90.0));
    }

    #[test]
    fn unattributed_share_on_hand_made_inputs() {
        assert!((unattributed_share(&[0.5, 0.25], 1.0) - 0.25).abs() < 1e-12);
        assert!((unattributed_share(&[1.2], 1.0) + 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(&[], 2.0), 1.0);
        assert_eq!(unattributed_share(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn failed_share_on_hand_made_inputs() {
        assert_eq!(failed_share(0, 10), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn slo_rate_is_highest_passing_prefix_of_the_ladder() {
        let step = |q, p99, grow| RateStep {
            offered_qps: q,
            p99_ms: p99,
            backlog_growing: grow,
            all_answered: true,
        };
        let steps = [
            step(200.0, 400.0, true),
            step(50.0, 60.0, false),
            step(100.0, 90.0, false),
            step(150.0, 140.0, false),
        ];
        assert_eq!(slo_qps(&steps, 150.0), 150.0);
        assert_eq!(slo_qps(&steps, 100.0), 100.0);
        assert_eq!(slo_qps(&steps, 50.0), 0.0);
        // A growing backlog fails a step even under the limit.
        let steps = [
            step(50.0, 10.0, false),
            step(100.0, 20.0, true),
            step(150.0, 30.0, false),
        ];
        assert_eq!(slo_qps(&steps, 1000.0), 50.0);
        // An unanswered query fails the step.
        let mut lost = step(50.0, 10.0, false);
        lost.all_answered = false;
        assert_eq!(slo_qps(&[lost], 1000.0), 0.0);
    }

    #[test]
    fn backlog_detector() {
        assert!(!backlog_growing(&[3, 4, 3, 5, 4, 3]));
        assert!(backlog_growing(&[1, 2, 2, 6, 9, 14]));
        assert!(!backlog_growing(&[1, 1]));
    }
}
