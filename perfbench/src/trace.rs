//! Benchmark-side spans, JSON output and profile digests.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! library layer; nothing inside the library crates is instrumented. Their
//! totals are kept in memory and written out once, with the child's
//! result line.

use r2t_engine::QueryProfile;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Runs `f` and returns its result with the elapsed seconds.
pub fn elapsed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One layer's totals: (client thread, span name, self seconds, count).
type Total = (u32, &'static str, f64, u64);

/// Adds `self_s` and one call to the totals of `(thread, name)`.
fn fold(totals: &mut Vec<Total>, thread: u32, name: &'static str, self_s: f64, count: u64) {
    match totals.iter_mut().find(|t| t.0 == thread && t.1 == name) {
        Some(t) => {
            t.2 += self_s;
            t.3 += count;
        }
        None => totals.push((thread, name, self_s, count)),
    }
}

/// The calling thread's span state.
#[derive(Default)]
struct Local {
    /// Per open span, innermost last: the seconds its closed child spans
    /// took.
    open: Vec<f64>,
    /// Closed spans, folded; moved into the tracer by [`Tracer::flush`].
    closed: Vec<Total>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Records spans when tracing is on; otherwise only times calls.
///
/// A span is folded into its layer's totals as it closes: self time (its
/// duration less its child spans') and count, per client thread and span
/// name. Nesting follows the call stack of the recording thread. Each
/// thread folds into totals of its own, without a lock, and hands them to
/// the tracer with [`Tracer::flush`] when its timed work ends. Folding
/// keeps memory flat however many calls a run makes.
pub struct Tracer {
    on: bool,
    totals: Mutex<Vec<Total>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, totals: Mutex::new(Vec::new()) }
    }

    /// Runs `f` inside a span of layer `name`, recorded for client thread
    /// `thread`, and returns its result with the elapsed seconds.
    pub fn span<T>(&self, name: &'static str, thread: u32, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            return elapsed(f);
        }
        LOCAL.with(|l| l.borrow_mut().open.push(0.0));
        let (out, secs) = elapsed(f);
        LOCAL.with(|l| {
            let l = &mut *l.borrow_mut();
            let child = l.open.pop().expect("an open span");
            if let Some(parent) = l.open.last_mut() {
                *parent += secs;
            }
            fold(&mut l.closed, thread, name, secs - child, 1);
        });
        (out, secs)
    }

    /// Moves the calling thread's span totals into the tracer.
    pub fn flush(&self) {
        let closed = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().closed));
        let mut totals = self.totals.lock().expect("span totals poisoned");
        for (thread, name, self_s, count) in closed {
            fold(&mut totals, thread, name, self_s, count);
        }
    }

    /// The flushed span totals as a JSON array of
    /// `[thread, name, self_us, count]`.
    pub fn layers_json(&self) -> String {
        let totals = self.totals.lock().expect("span totals poisoned");
        let rows: Vec<String> = totals
            .iter()
            .map(|(thread, name, self_s, count)| {
                format!("[{thread},{},{},{count}]", json_str(name), json_num(self_s * 1e6))
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of numbers, printed with full precision.
pub fn json_nums(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", body.join(","))
}

/// A JSON number; non-finite values (never expected) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Builds a flat JSON object from `(key, already-encoded value)` pairs.
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push((key.to_string(), value));
        self
    }
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, json_num(v))
    }
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }
    pub fn render(&self) -> String {
        let body: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}:{}", json_str(k), v)).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The counters the library records itself, collected when the traced
/// build runs at the counters level; an empty object otherwise.
pub fn obs_counters_json() -> String {
    let report = r2t_obs::drain();
    let mut obj = Obj::default();
    for (name, v) in &report.counters {
        obj.int(name, *v);
    }
    for (name, v) in &report.gauges {
        obj.int(&format!("gauge.{name}"), *v);
    }
    obj.render()
}

/// 64-bit FNV-1a over a profile's canonical bytes: every weight bit
/// pattern, reference id and group membership, in order. Equal digests
/// certify bit-identical profiles up to a 2⁻⁶⁴ collision.
pub fn digest_profile(p: &QueryProfile) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(p.num_private as u64);
    h.u64(p.results.len() as u64);
    for r in &p.results {
        h.u64(r.weight.to_bits());
        h.u64(r.refs.len() as u64);
        for &x in &r.refs {
            h.u64(x as u64);
        }
    }
    match &p.groups {
        None => h.u64(0),
        Some(gs) => {
            h.u64(1);
            h.u64(gs.len() as u64);
            for g in gs {
                h.u64(g.weight.to_bits());
                h.u64(g.members.len() as u64);
                for &m in &g.members {
                    h.u64(m as u64);
                }
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next [`peak_rss_mb`] covers only what runs in between. Where procfs does
/// not allow it, the peak stays the process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    r2t_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Fails the correctness gate: the message goes to stderr and the child
/// exits non-zero without printing a result line.
pub fn gate_fail(msg: &str) -> ! {
    eprintln!("perfbench: correctness gate failed: {msg}");
    std::process::exit(3);
}
