//! Order statistics and the metric list a run reports.

/// Nearest-rank percentile `q` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One named, unit-carrying number a run reports.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload measured, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = Metric { name, value, unit },
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// `<prefix>_p50_ms`, `<prefix>_<tail>_ms` and `<prefix>_n` of a set
    /// of durations given in seconds.
    pub fn timing(&mut self, prefix: &str, seconds: &[f64], tail: u32) {
        self.set(format!("{prefix}_p50_ms"), median(seconds) * 1e3, "ms");
        self.set(
            format!("{prefix}_p{tail}_ms"),
            percentile(seconds, tail as f64) * 1e3,
            "ms",
        );
        self.set(format!("{prefix}_n"), seconds.len() as f64, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn set_replaces_by_name() {
        let mut m = Metrics::default();
        m.set("a", 1.0, "s");
        m.set("a", 2.0, "s");
        assert_eq!(m.0.len(), 1);
        assert_eq!(m.get("a").unwrap().value, 2.0);
    }
}
