//! The metric registry: named counters, gauges and histograms.
//!
//! Registration (`counter`, `gauge`, `histogram` and their `_with`
//! label-carrying variants) takes a short write lock and returns a
//! pre-resolved handle; the hot path then touches only that handle's
//! atomics. Asking twice for the same `(name, labels)` returns a handle
//! to the same underlying metric, so independent subsystems may share a
//! series without coordinating.
//!
//! Snapshots ([`Registry::snapshot`]) clone the current value of every
//! registered series into plain data — the input of both the Prometheus
//! serializer and the wire-level `StatsReply`.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Identity of one metric series: a name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style, e.g. `sa_cache_hits_total`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that moves both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the value outright.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// The registry (see the module docs). Cheap to share behind an `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the unlabelled counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get-or-create the counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        self.inner.write().expect("registry poisoned").counters.entry(key).or_default().clone()
    }

    /// Get-or-create the unlabelled gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get-or-create the gauge `name` with `labels`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        self.inner.write().expect("registry poisoned").gauges.entry(key).or_default().clone()
    }

    /// Get-or-create the unlabelled histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get-or-create the histogram `name` with `labels`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        self.inner
            .write()
            .expect("registry poisoned")
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Clones every registered series' current value into plain data.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.read().expect("registry poisoned");
        Snapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole registry, sorted by metric key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter series and their values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge series and their values.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram series and their snapshots.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of the first counter named `name` whose labels contain
    /// every pair in `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && labels.iter().all(|(lk, lv)| k.label(lk) == Some(*lv)))
            .map(|(_, v)| *v)
    }

    /// The value of the first matching gauge (same matching rule as
    /// [`Snapshot::counter`]).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(k, _)| k.name == name && labels.iter().all(|(lk, lv)| k.label(lk) == Some(*lv)))
            .map(|(_, v)| *v)
    }

    /// The first matching histogram snapshot (same matching rule as
    /// [`Snapshot::counter`]).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k.name == name && labels.iter().all(|(lk, lv)| k.label(lk) == Some(*lv)))
            .map(|(_, v)| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("hits").add(3);
        r.counter("hits").add(4);
        assert_eq!(r.counter("hits").get(), 7);
        // Different labels are different series.
        r.counter_with("hits", &[("shard", "0")]).inc();
        assert_eq!(r.counter_with("hits", &[("shard", "0")]).get(), 1);
        assert_eq!(r.counter("hits").get(), 7);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-5);
        assert_eq!(r.gauge("depth").get(), -5);
    }

    #[test]
    fn snapshot_finds_by_name_and_label_subset() {
        let r = Registry::new();
        r.counter_with("q_full", &[("shard", "1"), ("kind", "loc")]).add(9);
        r.gauge_with("q_depth", &[("shard", "1")]).set(4);
        r.histogram_with("lat", &[("algo", "mwpsr")]).record(100);
        let snap = r.snapshot();
        assert_eq!(snap.counter("q_full", &[("shard", "1")]), Some(9));
        assert_eq!(snap.counter("q_full", &[("shard", "2")]), None);
        assert_eq!(snap.gauge("q_depth", &[]), Some(4));
        assert_eq!(snap.histogram("lat", &[("algo", "mwpsr")]).unwrap().count, 1);
        assert!(snap.histogram("lat", &[("algo", "pbsr")]).is_none());
    }

    #[test]
    fn handles_survive_registry_snapshots() {
        let r = Registry::new();
        let c = r.counter("x");
        let before = r.snapshot();
        c.add(2);
        let after = r.snapshot();
        assert_eq!(before.counter("x", &[]), Some(0));
        assert_eq!(after.counter("x", &[]), Some(2));
    }
}
