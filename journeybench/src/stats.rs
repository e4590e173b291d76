//! Order statistics and the one-line JSON result.

use naplet_obs::HistogramSnapshot;

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of an ascending slice;
/// 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort a sample in place and return it, for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the way Prometheus' `histogram_quantile`
/// reads buckets), clamped to the observed min and max.
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * h.total as f64;
    let mut before = 0u64;
    for (idx, &count) in h.counts.iter().enumerate() {
        if count > 0 && (before + count) as f64 >= rank {
            let lower = if idx == 0 { 0 } else { h.bounds[idx - 1] }.max(h.min) as f64;
            let upper = h.bounds.get(idx).copied().unwrap_or(h.max).min(h.max) as f64;
            let within = (rank - before as f64).max(0.0) / count as f64;
            return lower + (upper - lower).max(0.0) * within;
        }
        before += count;
    }
    h.max as f64
}

/// Sum histograms that share one bucket grid (the same metric from
/// several daemons).
pub fn merge_hists<'a>(
    hists: impl IntoIterator<Item = &'a HistogramSnapshot>,
) -> HistogramSnapshot {
    let mut out: Option<HistogramSnapshot> = None;
    for h in hists {
        match &mut out {
            None => out = Some(h.clone()),
            Some(acc) => {
                for (a, b) in acc.counts.iter_mut().zip(&h.counts) {
                    *a += b;
                }
                if h.total > 0 {
                    acc.min = if acc.total == 0 {
                        h.min
                    } else {
                        acc.min.min(h.min)
                    };
                    acc.max = acc.max.max(h.max);
                }
                acc.total += h.total;
                acc.sum += h.sum;
            }
        }
    }
    out.unwrap_or(HistogramSnapshot {
        bounds: Vec::new(),
        counts: vec![0],
        total: 0,
        sum: 0,
        min: 0,
        max: 0,
    })
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, built up by name.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            // non-finite values have no JSON spelling; a metric that
            // cannot be computed reads 0
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let s = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let h = HistogramSnapshot {
            bounds: vec![10, 20],
            counts: vec![0, 4, 0],
            total: 4,
            sum: 60,
            min: 12,
            max: 18,
        };
        // all four observations sit in (10, 20], clamped to [12, 18]
        assert_eq!(hist_quantile(&h, 0.5), 15.0);
        assert_eq!(hist_quantile(&h, 1.0), 18.0);
        let both = merge_hists([&h, &h]);
        assert_eq!(both.total, 8);
        assert_eq!(hist_quantile(&both, 0.5), 15.0);
    }
}
