//! The live telemetry plane: cumulative metrics, point-in-time snapshots,
//! and snapshot deltas.
//!
//! The run-report plane (`drain` → [`crate::RunReport`]) is *run-scoped*:
//! thread-local shards merge at drain time and the registry resets, which
//! makes reports deterministic but invisible mid-run. This module is the
//! *live* plane layered next to it: every [`crate::counter_add`] /
//! [`crate::gauge_max`] / [`crate::hist_record`] also lands in a global,
//! **cumulative** registry of striped atomics that any thread can fold into
//! an immutable [`Snapshot`] at any moment — without stopping writers,
//! without a lock on the record path, and without ever resetting (snapshot
//! counters are monotone for the process lifetime).
//!
//! # Snapshots
//!
//! [`crate::snapshot`] assigns a fresh monotone sequence number and folds
//! every registered counter, gauge, histogram, and *gauge provider* (a pull
//! callback, e.g. the serving tier's per-tenant ε gauges) into a
//! [`Snapshot`]. Two snapshots subtract into a [`Delta`] — the rates over an
//! interval — which is what the exporter emits as JSONL.
//!
//! # DP-safety
//!
//! The live plane records exactly what the run-report plane records (same
//! call sites, same `&'static str` names), plus polled gauges whose values
//! are *released or public by definition* — spent/remaining ε (covered
//! budget), cache sizes. Reading the plane takes no lock any
//! serving path holds and touches no RNG, so exporting can never perturb a
//! released answer; `tests/obs_differential.rs` pins that bit-for-bit.

use crate::hist::HistSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time, immutable view of the live telemetry plane.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotone snapshot sequence number (process-wide, starts at 1).
    pub seq: u64,
    /// Milliseconds since the Unix epoch when the snapshot was taken.
    /// Operational timestamp only — nothing deterministic reads it.
    pub unix_ms: u64,
    /// Cumulative counters since process start, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water-mark gauges, by name.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Pull-gauges from registered providers: metric name → `(label, value)`
    /// rows (label `""` renders unlabeled). E.g. per-tenant ε gauges.
    pub polled: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Histograms, by name.
    pub hists: BTreeMap<&'static str, HistSnapshot>,
}

/// The difference between two [`Snapshot`]s of the same process: counter
/// increments, histogram increments, and the latest gauge values over the
/// interval.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// `seq` of the earlier snapshot.
    pub from_seq: u64,
    /// `seq` of the later snapshot.
    pub to_seq: u64,
    /// Interval length in milliseconds (0 if clocks disagree).
    pub interval_ms: u64,
    /// Counter increments over the interval (absent counters count as 0).
    pub counters: BTreeMap<&'static str, u64>,
    /// Latest gauge values (gauges are levels, not flows — no subtraction).
    pub gauges: BTreeMap<&'static str, u64>,
    /// Latest polled gauge rows.
    pub polled: BTreeMap<&'static str, Vec<(String, f64)>>,
    /// Histogram increments over the interval.
    pub hists: BTreeMap<&'static str, HistSnapshot>,
}

impl Snapshot {
    /// Whether nothing has been recorded on the live plane.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.polled.is_empty()
            && self.hists.is_empty()
    }

    /// The increments between `earlier` and `self` (`self` taken later).
    pub fn delta_since(&self, earlier: &Snapshot) -> Delta {
        let mut counters = BTreeMap::new();
        for (&k, &v) in &self.counters {
            let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                counters.insert(k, d);
            }
        }
        let mut hists = BTreeMap::new();
        for (&k, h) in &self.hists {
            let d = match earlier.hists.get(k) {
                Some(e) => h.delta_since(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                hists.insert(k, d);
            }
        }
        Delta {
            from_seq: earlier.seq,
            to_seq: self.seq,
            interval_ms: self.unix_ms.saturating_sub(earlier.unix_ms),
            counters,
            gauges: self.gauges.clone(),
            polled: self.polled.clone(),
            hists,
        }
    }

    /// Serializes the snapshot as one self-contained JSON object on a single
    /// line (JSONL-friendly). Schema: `{"seq", "unix_ms", "counters",
    /// "gauges", "polled", "hists"}` with each histogram as `{"count",
    /// "sum", "p50", "p90", "p99", "p999", "max", "buckets": [[idx, n], …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        write!(out, "{{\"seq\": {}, \"unix_ms\": {}", self.seq, self.unix_ms).unwrap();
        write_u64_map(&mut out, "counters", &self.counters);
        write_u64_map(&mut out, "gauges", &self.gauges);
        out.push_str(", \"polled\": {");
        for (i, (name, rows)) in self.polled.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_str(&mut out, name);
            out.push_str(": {");
            for (j, (label, value)) in rows.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_str(&mut out, label);
                write!(out, ": {}", json_f64(*value)).unwrap();
            }
            out.push('}');
        }
        out.push('}');
        out.push_str(", \"hists\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_str(&mut out, name);
            write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}, \"max\": {}, \"buckets\": [",
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max_bound(),
            )
            .unwrap();
            for (j, &(idx, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write!(out, "[{idx}, {n}]").unwrap();
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `counter`, gauges and polled gauges as
    /// `gauge`, histograms as `summary` quantile series with `_sum` and
    /// `_count`. Metric names are prefixed `r2t_` and `.`-separators become
    /// `_`; label values are escaped per the format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} counter\n{m} {v}").unwrap();
        }
        for (name, v) in &self.gauges {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} gauge\n{m} {v}").unwrap();
        }
        for (name, rows) in &self.polled {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} gauge").unwrap();
            for (label, value) in rows {
                if label.is_empty() {
                    writeln!(out, "{m} {}", prom_f64(*value)).unwrap();
                } else {
                    writeln!(out, "{m}{{tenant=\"{}\"}} {}", escape_label(label), prom_f64(*value))
                        .unwrap();
                }
            }
        }
        for (name, h) in &self.hists {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} summary").unwrap();
            for (q, qs) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                writeln!(out, "{m}{{quantile=\"{qs}\"}} {}", h.quantile(q)).unwrap();
            }
            writeln!(out, "{m}_sum {}\n{m}_count {}", h.sum, h.count).unwrap();
        }
        out
    }
}

impl Delta {
    /// One-line JSON: like [`Snapshot::to_json`] plus the interval fields.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        write!(
            out,
            "{{\"delta\": true, \"from_seq\": {}, \"to_seq\": {}, \"interval_ms\": {}",
            self.from_seq, self.to_seq, self.interval_ms
        )
        .unwrap();
        write_u64_map(&mut out, "counters", &self.counters);
        out.push('}');
        out
    }
}

fn write_u64_map(out: &mut String, key: &str, map: &BTreeMap<&'static str, u64>) {
    write!(out, ", \"{key}\": {{").unwrap();
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_str(out, k);
        write!(out, ": {v}").unwrap();
    }
    out.push('}');
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// `service.answer.ns` → `r2t_service_answer_ns`.
fn metric_name(name: &str) -> String {
    let mut m = String::with_capacity(name.len() + 4);
    m.push_str("r2t_");
    for c in name.chars() {
        m.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    m
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(feature = "enabled")]
pub(crate) mod live {
    //! The global cumulative registry behind [`super::Snapshot`].

    use super::Snapshot;
    use crate::hist::Histogram;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{LazyLock, Mutex, RwLock};

    /// A cumulative live counter (never reset).
    pub(crate) struct LiveCounter(AtomicU64);

    impl LiveCounter {
        #[inline]
        pub(crate) fn add(&self, delta: u64) {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// A cumulative high-water-mark gauge.
    pub(crate) struct LiveGauge(AtomicU64);

    impl LiveGauge {
        #[inline]
        pub(crate) fn raise(&self, value: u64) {
            self.0.fetch_max(value, Ordering::Relaxed);
        }
    }

    type GaugeProviderFn = Box<dyn Fn(&mut dyn FnMut(&'static str, &str, f64)) + Send + Sync>;

    struct Registry {
        counters: RwLock<HashMap<&'static str, &'static LiveCounter>>,
        gauges: RwLock<HashMap<&'static str, &'static LiveGauge>>,
        hists: RwLock<HashMap<&'static str, &'static Histogram>>,
        providers: Mutex<Vec<(u64, GaugeProviderFn)>>,
        next_provider: AtomicU64,
        seq: AtomicU64,
        next_stripe: AtomicUsize,
    }

    static REGISTRY: LazyLock<Registry> = LazyLock::new(|| Registry {
        counters: RwLock::new(HashMap::new()),
        gauges: RwLock::new(HashMap::new()),
        hists: RwLock::new(HashMap::new()),
        providers: Mutex::new(Vec::new()),
        next_provider: AtomicU64::new(1),
        seq: AtomicU64::new(0),
        next_stripe: AtomicUsize::new(0),
    });

    /// Round-robin shard assignment for new threads (see `crate::hist`).
    pub(crate) fn assign_stripe() -> usize {
        REGISTRY.next_stripe.fetch_add(1, Ordering::Relaxed)
    }

    fn get_or_register<T>(
        lock: &RwLock<HashMap<&'static str, &'static T>>,
        name: &'static str,
        make: impl FnOnce() -> T,
    ) -> &'static T {
        if let Some(&m) = lock.read().expect("live registry poisoned").get(name) {
            return m;
        }
        let mut map = lock.write().expect("live registry poisoned");
        map.entry(name).or_insert_with(|| Box::leak(Box::new(make())))
    }

    pub(crate) fn counter(name: &'static str) -> &'static LiveCounter {
        get_or_register(&REGISTRY.counters, name, || LiveCounter(AtomicU64::new(0)))
    }

    pub(crate) fn gauge(name: &'static str) -> &'static LiveGauge {
        get_or_register(&REGISTRY.gauges, name, || LiveGauge(AtomicU64::new(0)))
    }

    pub(crate) fn hist(name: &'static str) -> &'static Histogram {
        get_or_register(&REGISTRY.hists, name, Histogram::new)
    }

    pub(crate) fn register_provider(f: GaugeProviderFn) -> u64 {
        let id = REGISTRY.next_provider.fetch_add(1, Ordering::Relaxed);
        REGISTRY.providers.lock().expect("providers poisoned").push((id, f));
        id
    }

    pub(crate) fn unregister_provider(id: u64) {
        REGISTRY.providers.lock().expect("providers poisoned").retain(|(pid, _)| *pid != id);
    }

    /// Folds the whole live plane into an immutable [`Snapshot`]. Cheap
    /// enough to call per answer batch: reads are relaxed atomic loads; the
    /// only locks taken are the registries' read locks and the provider
    /// list's mutex, none of which any recording hot path holds.
    pub(crate) fn take() -> Snapshot {
        let seq = REGISTRY.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut snap = Snapshot { seq, unix_ms, ..Snapshot::default() };
        for (&name, c) in REGISTRY.counters.read().expect("live registry poisoned").iter() {
            snap.counters.insert(name, c.0.load(Ordering::Relaxed));
        }
        for (&name, g) in REGISTRY.gauges.read().expect("live registry poisoned").iter() {
            snap.gauges.insert(name, g.0.load(Ordering::Relaxed));
        }
        for (&name, h) in REGISTRY.hists.read().expect("live registry poisoned").iter() {
            let s = h.snapshot();
            if !s.is_empty() {
                snap.hists.insert(name, s);
            }
        }
        {
            let providers = REGISTRY.providers.lock().expect("providers poisoned");
            let mut emit = |name: &'static str, label: &str, value: f64| {
                snap.polled.entry(name).or_default().push((label.to_string(), value));
            };
            for (_, f) in providers.iter() {
                f(&mut emit);
            }
        }
        for rows in snap.polled.values_mut() {
            rows.sort_by(|a, b| a.0.cmp(&b.0));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot { seq: 3, unix_ms: 1700000000000, ..Snapshot::default() };
        s.counters.insert("service.answers", 42);
        s.gauges.insert("service.cache.entries", 7);
        s.polled.insert(
            "service.tenant.eps.spent",
            vec![("fraud".to_string(), 0.25), ("marketing".to_string(), 0.5)],
        );
        let h = HistSnapshot { count: 100, sum: 1000, buckets: vec![(10, 100)] };
        s.hists.insert("service.answer.ns", h);
        s
    }

    #[test]
    fn snapshot_json_is_one_line_with_all_sections() {
        let j = sample().to_json();
        assert!(!j.contains('\n'), "JSONL lines must be single-line");
        for frag in [
            "\"seq\": 3",
            "\"service.answers\": 42",
            "\"service.cache.entries\": 7",
            "\"marketing\": 0.5",
            "\"p50\": 10",
            "\"buckets\": [[10, 100]]",
        ] {
            assert!(j.contains(frag), "missing {frag} in {j}");
        }
    }

    #[test]
    fn prometheus_text_has_types_quantiles_and_labels() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE r2t_service_answers counter"));
        assert!(p.contains("r2t_service_answers 42"));
        assert!(p.contains("# TYPE r2t_service_cache_entries gauge"));
        assert!(p.contains("r2t_service_tenant_eps_spent{tenant=\"marketing\"} 0.5"));
        assert!(p.contains("r2t_service_answer_ns{quantile=\"0.999\"} 10"));
        assert!(p.contains("r2t_service_answer_ns_count 100"));
        assert!(p.ends_with('\n'));
    }

    #[test]
    fn delta_subtracts_counters_and_hists() {
        let earlier = sample();
        let mut later = sample();
        later.seq = 4;
        later.unix_ms += 250;
        *later.counters.get_mut("service.answers").unwrap() += 8;
        later.counters.insert("service.refusals.budget", 2);
        let h = later.hists.get_mut("service.answer.ns").unwrap();
        h.merge(&HistSnapshot { count: 5, sum: 250, buckets: vec![(20, 5)] });
        let d = later.delta_since(&earlier);
        assert_eq!(d.from_seq, 3);
        assert_eq!(d.to_seq, 4);
        assert_eq!(d.interval_ms, 250);
        assert_eq!(d.counters.get("service.answers"), Some(&8));
        assert_eq!(d.counters.get("service.refusals.budget"), Some(&2));
        let dh = &d.hists["service.answer.ns"];
        assert_eq!(dh.count, 5);
        assert_eq!(dh.buckets, vec![(20, 5)]);
        assert!(d.to_json().contains("\"interval_ms\": 250"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(metric_name("a.b-c/d"), "r2t_a_b_c_d");
    }
}
