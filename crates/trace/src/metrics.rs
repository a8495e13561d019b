//! The named-metric registry.
//!
//! A [`Metrics`] maps dotted names (`"shard0.hmc.link_bytes"`) to
//! monotone counters, point-in-time gauges, or power-of-two
//! histograms. Component models keep their cheap `*Stats` structs on
//! the hot path; after a run, `export_metrics` adapters project those
//! structs into one registry namespace, where they can be snapshotted,
//! diffed across runs, and converted to a JSON [`Value`].
//!
//! Names are kept in a `BTreeMap`, so iteration order — and therefore
//! the JSON export — is deterministic.

use crate::json::Value;
use std::collections::BTreeMap;

/// A power-of-two histogram of `u64` samples: bucket `i` counts values
/// whose bit length is `i` (bucket 0 counts zero), plus exact
/// count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Hist {
    fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => (64 - v.leading_zeros()) as usize,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference against an earlier snapshot of the same
    /// histogram. `min`/`max` are not recoverable from a subtraction,
    /// so the diff keeps the current (whole-lifetime) extrema.
    fn diff(&self, base: &Hist) -> Hist {
        let mut out = self.clone();
        for (b, old) in out.buckets.iter_mut().zip(base.buckets.iter()) {
            *b = b.saturating_sub(*old);
        }
        out.count = self.count.saturating_sub(base.count);
        out.sum = self.sum.saturating_sub(base.sum);
        out
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(i64),
    /// Sample distribution (boxed: a histogram is ~0.5 KiB and the
    /// registry mixes it with word-sized counters).
    Histogram(Box<Hist>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The registry: named counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: BTreeMap<String, Metric>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, registering it at zero
    /// first if absent.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Sets the named gauge.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Records one sample into the named histogram.
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self
            .entries
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Box::default()))
        {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Current value of the named counter (0 if never registered).
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            None => 0,
            Some(Metric::Counter(v)) => *v,
            Some(other) => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Current value of the named gauge (0 if never registered).
    ///
    /// # Panics
    ///
    /// Panics if the name is registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            None => 0,
            Some(Metric::Gauge(v)) => *v,
            Some(other) => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The named metric, if registered.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.get(name)
    }

    /// Registered metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A frozen copy of the current state.
    pub fn snapshot(&self) -> Metrics {
        self.clone()
    }

    /// What happened since `base` (an earlier
    /// [`snapshot`](Self::snapshot) of this registry): counters and
    /// histogram
    /// populations subtract, gauges keep their current value, metrics
    /// absent from the base pass through whole.
    ///
    /// # Panics
    ///
    /// Panics if a name changed metric kind between the snapshots.
    pub fn diff(&self, base: &Metrics) -> Metrics {
        let mut out = Metrics::new();
        for (name, metric) in &self.entries {
            let diffed = match (metric, base.entries.get(name)) {
                (m, None) => m.clone(),
                (Metric::Counter(v), Some(Metric::Counter(b))) => {
                    Metric::Counter(v.saturating_sub(*b))
                }
                (Metric::Gauge(v), Some(Metric::Gauge(_))) => Metric::Gauge(*v),
                (Metric::Histogram(h), Some(Metric::Histogram(b))) => {
                    Metric::Histogram(Box::new(h.diff(b)))
                }
                (m, Some(b)) => panic!(
                    "metric `{name}` changed kind: {} in the base, {} now",
                    b.kind(),
                    m.kind()
                ),
            };
            out.entries.insert(name.clone(), diffed);
        }
        out
    }
}

impl From<&Metrics> for Value {
    /// The registry as a JSON object, one key per metric in name order.
    /// Counters and gauges become integers; histograms become
    /// `{"count", "sum", "min", "max"}` objects.
    fn from(metrics: &Metrics) -> Self {
        Value::object(metrics.iter().map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(v) => (*v).into(),
                Metric::Gauge(v) => (*v).into(),
                Metric::Histogram(h) => Value::object([
                    ("count", h.count().into()),
                    ("sum", h.sum().into()),
                    ("min", h.min().into()),
                    ("max", h.max().into()),
                ]),
            };
            (name, value)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = Metrics::new();
        m.counter_add("hmc.activations", 3);
        m.counter_add("hmc.activations", 4);
        assert_eq!(m.counter("hmc.activations"), 7);
        assert_eq!(m.counter("never.registered"), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.gauge_set("cycles", 10);
        m.gauge_set("cycles", -2);
        assert_eq!(m.gauge("cycles"), -2);
    }

    #[test]
    fn histogram_tracks_count_sum_extrema_and_buckets() {
        let mut h = Hist::default();
        assert_eq!((h.min(), h.max(), h.count()), (0, 0, 0));
        for v in [0u64, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 206.0).abs() < 1e-9);
        // 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 1024 -> 11.
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(1024), 11);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut m = Metrics::new();
        m.gauge_set("x", 1);
        m.counter_add("x", 1);
    }

    #[test]
    fn snapshot_diff_isolates_one_run() {
        let mut m = Metrics::new();
        m.counter_add("reads", 100);
        m.gauge_set("depth", 4);
        m.observe("lat", 8);
        let before = m.snapshot();
        m.counter_add("reads", 17);
        m.gauge_set("depth", 9);
        m.observe("lat", 32);
        m.counter_add("fresh", 2);
        let d = m.diff(&before);
        assert_eq!(d.counter("reads"), 17);
        assert_eq!(d.gauge("depth"), 9);
        assert_eq!(d.counter("fresh"), 2);
        match d.get("lat") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count(), 1);
                assert_eq!(h.sum(), 32);
            }
            other => panic!("lat should be a histogram, got {other:?}"),
        }
    }

    #[test]
    fn json_is_deterministic_and_name_ordered() {
        let mut m = Metrics::new();
        m.counter_add("b.second", 2);
        m.counter_add("a.first", 1);
        m.gauge_set("c.third", -3);
        m.observe("d.hist", 5);
        let json = crate::json::write(&Value::from(&m));
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        let c = json.find("c.third").unwrap();
        assert!(a < b && b < c);
        assert!(json.contains("\"a.first\": 1"));
        assert!(json.contains("\"c.third\": -3"));
        assert!(json.contains("\"count\": 1, \"sum\": 5, \"min\": 5, \"max\": 5"));
        assert_eq!(json, crate::json::write(&Value::from(&m.snapshot())));
    }
}
