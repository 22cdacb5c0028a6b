//! Percentiles and the per-operation ledger. A failed operation has no
//! latency: it counts as failed and as missing any latency limit, so it
//! sorts above every completed one.

/// The `q`-quantile (`0 < q <= 1`) of `values` by nearest rank; `NaN`
/// when `values` is empty. Infinite values are allowed and sort last.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `values` (nearest rank).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Why an operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The program's result digest or fingerprint differs from the
    /// reference.
    Digest(String),
    /// The clean firmware produced a bug report, or a crash other than
    /// the planted one.
    BugReport(String),
    /// The service refused the job with `Saturated`.
    Saturated(String),
    /// The job ended with a verdict other than `completed`.
    Verdict(String),
    /// Anything else that makes the output wrong (path count, stop
    /// reason, missing terminal event).
    Wrong(String),
}

/// One attempted operation (campaign or job): its latency in ms, or the
/// reason it failed.
pub(crate) type OpResult = Result<f64, Failure>;

/// The outcome of every operation of one measured window.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    ops: Vec<OpResult>,
}

impl Ledger {
    /// Records one operation.
    pub(crate) fn push(&mut self, op: OpResult) {
        self.ops.push(op);
    }

    /// Operations attempted.
    pub(crate) fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that failed.
    pub(crate) fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| o.is_err()).count() as u64
    }

    /// The distinct failures, for the error report.
    pub(crate) fn failures(&self) -> Vec<&Failure> {
        let mut out: Vec<&Failure> = Vec::new();
        for f in self.ops.iter().filter_map(|o| o.as_ref().err()) {
            if !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// Latency quantile over every attempted operation, a failed one
    /// counting as infinitely late.
    pub(crate) fn latency_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self
            .ops
            .iter()
            .map(|o| *o.as_ref().unwrap_or(&f64::INFINITY))
            .collect();
        quantile(&v, q)
    }

    /// Operations that missed `limit_ms`: failed ones and slower ones.
    pub(crate) fn over_limit(&self, limit_ms: f64) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.as_ref().map_or(true, |&ms| ms > limit_ms))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn each_failure_kind_counts_as_failed_and_over_the_limit() {
        for failure in [
            Failure::Saturated("queue full".into()),
            Failure::Verdict("over-budget".into()),
            Failure::Digest("0x1 != 0x2".into()),
        ] {
            let mut ledger = Ledger::default();
            for _ in 0..9 {
                ledger.push(Ok(10.0));
            }
            ledger.push(Err(failure.clone()));
            assert_eq!(ledger.attempted(), 10);
            assert_eq!(ledger.failed(), 1);
            assert_eq!(ledger.over_limit(100.0), 1, "{failure:?}");
            assert_eq!(ledger.latency_ms(0.9), 10.0);
            assert_eq!(ledger.latency_ms(1.0), f64::INFINITY);
            assert_eq!(ledger.failures(), vec![&failure]);
        }
    }
}
