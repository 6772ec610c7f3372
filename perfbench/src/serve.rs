//! `serve_mixed`: SQL text through `ServiceTier` sessions while an operator
//! thread applies write batches to the same `PrivateDatabase`.
//!
//! Two client threads (the machine's `nproc`): a closed-loop analyst and
//! an operator. The analyst reads in windows of R reads. The first three
//! quarters of window k run with no write in flight; write k+1 starts there
//! and runs alongside the last quarter; window k+1 starts once that write
//! is done. So the read/write mix is fixed by the workload rather than by
//! the relative speed of the two paths, and read time adds to the wall
//! time instead of hiding behind the writes. Every operation is a pure
//! function of the seed and its index. An unplanned error aborts the run.

use crate::trace::{
    elapsed, gate_fail, json_nums, json_str, obs_counters_json, peak_rss_mb, reset_peak_rss, Obj,
    Tracer,
};
use crate::Args;
use r2t_core::noise::substream_rng;
use r2t_core::{BranchValues, R2TConfig, R2T};
use r2t_engine::{exec, Instance, Schema, Value, WriteBatch};
use r2t_service::{Error, PrivateDatabase, ServiceTier, SessionOptions};
use r2t_tpch::{generate_sf, tpch_schema};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// The four statements prepared during setup.
const STATEMENTS: [&str; 4] = [
    "SELECT COUNT(*) FROM customer, orders WHERE orders.o_ck = customer.ck",
    "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok",
    "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok AND lineitem.quantity < 3",
    // Float weights: the integer branch patcher refuses, so every write
    // revalidates this entry by a full profile and sweep.
    "SELECT SUM(lineitem.extendedprice) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok",
];

/// ε per read: a power of two, so tenant spends sum exactly in f64.
const EPS: f64 = 1.0;
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
const TENANT_QUOTA: f64 = 4_194_304.0;
/// Registered with a zero quota: every admission is a planned refusal.
const EXHAUSTED: &str = "exhausted";
/// Reads per analyst session.
const ROUND: usize = 50;
/// Every 97th read asks for more ε than any quota holds.
const BUDGET_REFUSAL_EVERY: usize = 97;
/// Every 7th session first knocks on the exhausted tenant.
const ADMISSION_REFUSAL_EVERY: usize = 7;
/// Every 10th write batch breaks a foreign key.
const FK_VIOLATION_EVERY: usize = 10;
/// Inserted rows stay this many batches before their deletion starts.
const LIFETIME: usize = 3;
/// Fresh primary keys start far above anything the generator assigns.
const KEY_BASE: i64 = 1 << 40;
/// Every 17th session (17 is coprime with the tenant rotation and the
/// admission knocks) keeps its latencies and, on a replay version, its
/// answers for the gate. The rest are timed but not kept.
const SAMPLE_EVERY: usize = 17;
/// Cache-hit answers are replayed on this many evenly spaced versions.
const REPLAY_VERSIONS: usize = 6;
/// Noise draws per statement and replay version for `rel_err_pct`.
const ERR_DRAWS: u64 = 64;

/// Workload size: scale factor, writes, reads per write, and never-seen
/// statements.
pub struct Serve {
    pub sf: f64,
    pub writes_per_second: f64,
    pub min_writes: usize,
    /// R: the operator's k-th write waits for k×R reads.
    pub reads_per_write: usize,
    pub cold: usize,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
}

fn base_config() -> R2TConfig {
    R2TConfig::builder(1.0, 0.1, (1u64 << 12) as f64).build()
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Never-seen statement `i`: distinct normalized text for every `i`.
fn cold_statement(seed: u64, i: usize) -> String {
    let q = 4 + (i % 40);
    let d = 200 + (splitmix(seed ^ i as u64) % 2000) as i64;
    format!(
        "SELECT COUNT(*) FROM orders, lineitem WHERE lineitem.l_ok = orders.ok \
         AND lineitem.quantity < {q} AND orders.orderdate < {d}"
    )
}

/// Database build plus warm prepares of the four statements: the set-up
/// every repetition pays.
fn build(schema: &Schema, inst: Instance) -> ServiceTier {
    let db = PrivateDatabase::new(schema.clone(), inst)
        .unwrap_or_else(|e| fail(&format!("database build: {e}")));
    let tier = ServiceTier::new(db, base_config());
    for t in TENANTS {
        tier.register_tenant(t, TENANT_QUOTA).unwrap_or_else(|e| fail(&format!("tenant: {e}")));
    }
    tier.register_tenant(EXHAUSTED, 0.0).unwrap_or_else(|e| fail(&format!("tenant: {e}")));
    let warm = tier
        .db()
        .session(SessionOptions::new().total_epsilon(1.0).base(base_config()).seed(u64::MAX))
        .unwrap_or_else(|e| fail(&format!("warm session: {e}")));
    for sql in STATEMENTS {
        warm.prepare(sql).unwrap_or_else(|e| fail(&format!("prepare {sql}: {e}")));
    }
    tier
}

pub fn setup(w: &Serve, args: &Args) {
    let schema = tpch_schema(&["customer"]);
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut tuples = 0;
    for _ in 0..w.setup_reps {
        let (g, total) = elapsed(|| {
            let (inst, g) = elapsed(|| generate_sf(w.sf, 0.3, args.seed));
            tuples = inst.total_tuples();
            drop(build(&schema, inst));
            g
        });
        setup_s.push(total);
        gen_s.push(g);
    }
    let sizes = format!(
        "generate_sf({}), {} prepared statements, {} writes/s of --seconds (at least {}), \
         {} reads per write, {} never-seen statements",
        w.sf,
        STATEMENTS.len(),
        w.writes_per_second,
        w.min_writes,
        w.reads_per_write,
        w.cold
    );
    let mut obj = Obj::default();
    obj.raw("setup_s", json_nums(&setup_s))
        .raw("gen_s", json_nums(&gen_s))
        .raw("write_s", "[]".to_string())
        .num("archive_mb", 0.0)
        .int("tuples", tuples as u64)
        .raw("sizes", json_str(&sizes));
    println!("{}", obj.render());
}

/// One planned analyst read.
#[derive(Clone, Copy)]
enum Read {
    Text(usize),
    Handle(usize),
    Cold(usize),
    /// Asks for more ε than any quota: must be refused, drawing nothing.
    OverBudget(usize),
}

/// A successful answer, kept for the gate.
struct Released {
    text: String,
    version: u64,
    seed: u64,
    substream: u64,
    noisy: f64,
    cache_hit: bool,
}

/// Shared progress counters the two client threads pace each other on:
/// (reads finished, writes finished).
struct Progress {
    counts: Mutex<(usize, usize)>,
    cv: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress { counts: Mutex::new((0, 0)), cv: Condvar::new() }
    }

    /// Publishes the analyst's finished reads. It runs only where a write
    /// window's solo part ends: nothing waits on a count in between.
    fn reads_done(&self, n: usize) {
        self.counts.lock().expect("progress lock poisoned").0 = n;
        self.cv.notify_all();
    }

    fn write_done(&self) {
        self.counts.lock().expect("progress lock poisoned").1 += 1;
        self.cv.notify_all();
    }

    fn wait(&self, ready: impl Fn(&(usize, usize)) -> bool) {
        let mut c = self.counts.lock().expect("progress lock poisoned");
        while !ready(&c) {
            c = self.cv.wait(c).expect("progress lock poisoned");
        }
    }
}

/// Rows of one relation.
type Rows = Vec<Vec<Value>>;

/// The operator's deterministic batch sequence.
struct Writer {
    seed: u64,
    customers: Vec<Value>,
    part: Value,
    supplier: Value,
    /// Per accepted batch: (its order rows, its lineitem rows).
    live: Vec<(Rows, Rows)>,
}

impl Writer {
    fn new(seed: u64, inst: &Instance) -> Self {
        Writer {
            seed,
            customers: inst.rows("customer").iter().map(|r| r[0].clone()).collect(),
            part: inst.rows("part")[0][0].clone(),
            supplier: inst.rows("supplier")[0][0].clone(),
            live: Vec::new(),
        }
    }

    fn lineitem(&self, ok: i64, quantity: i64) -> Vec<Value> {
        vec![
            Value::Int(ok),
            self.part.clone(),
            self.supplier.clone(),
            Value::Int(quantity),
            Value::Float(quantity as f64 * 10.25),
            Value::Float(0.05),
            Value::Int(30),
            Value::Int(60),
            Value::Int(45),
            Value::str("AIR"),
            Value::str("N"),
        ]
    }

    /// Batch `k`: either a planned FK violation, or two new orders with two
    /// lineitems each, deleting the lineitems of the batch `LIFETIME`
    /// accepted batches back and the orders of the one `2×LIFETIME` back.
    fn batch(&mut self, k: usize) -> (WriteBatch, bool) {
        let mut batch = WriteBatch::new();
        if k % FK_VIOLATION_EVERY == FK_VIOLATION_EVERY - 1 {
            let ok = KEY_BASE - 1 - k as i64;
            batch.insert("orders", vec![Value::Int(ok), Value::Int(-1), Value::Int(7)]);
            return (batch, true);
        }
        let mut orders = Vec::new();
        let mut items = Vec::new();
        for j in 0..2 {
            let ok = KEY_BASE + (k * 2 + j) as i64;
            let r = splitmix(self.seed ^ (ok as u64)) as usize;
            let ck = self.customers[r % self.customers.len()].clone();
            let order = vec![Value::Int(ok), ck, Value::Int(500 + (r % 1500) as i64)];
            batch.insert("orders", order.clone());
            orders.push(order);
            for quantity in [1 + (r % 2) as i64, 40] {
                let row = self.lineitem(ok, quantity);
                batch.insert("lineitem", row.clone());
                items.push(row);
            }
        }
        let n = self.live.len();
        if n >= LIFETIME {
            batch.delete_all("lineitem", std::mem::take(&mut self.live[n - LIFETIME].1));
        }
        if n >= 2 * LIFETIME {
            batch.delete_all("orders", std::mem::take(&mut self.live[n - 2 * LIFETIME].0));
        }
        self.live.push((orders, items));
        (batch, false)
    }
}

/// The analyst's plan: `reads` reads in sessions of `ROUND`, each session
/// on a tenant in rotation, some first knocking on the exhausted tenant.
struct Plan {
    seed: u64,
    reads: usize,
    cold: usize,
    cold_every: usize,
}

impl Plan {
    fn new(seed: u64, reads: usize, cold: usize) -> Self {
        Plan { seed, reads, cold, cold_every: (reads / cold.max(1)).max(1) }
    }

    fn sessions(&self) -> usize {
        self.reads.div_ceil(ROUND)
    }

    fn tenant(&self, s: usize) -> usize {
        s % TENANTS.len()
    }

    /// Whether session `s` first knocks on the exhausted tenant.
    fn knocks(&self, s: usize) -> bool {
        s.is_multiple_of(ADMISSION_REFUSAL_EVERY)
    }

    /// Read `j` of the run.
    fn read(&self, j: usize) -> Read {
        let r = splitmix(self.seed ^ (j as u64).wrapping_mul(0xA24B_AED4_963E_E407)) as usize;
        if j % self.cold_every == self.cold_every / 2 && j / self.cold_every < self.cold {
            Read::Cold(j / self.cold_every)
        } else if j % BUDGET_REFUSAL_EVERY == BUDGET_REFUSAL_EVERY - 1 {
            Read::OverBudget(r % STATEMENTS.len())
        } else if j.is_multiple_of(2) {
            Read::Text(r % STATEMENTS.len())
        } else {
            Read::Handle(r % STATEMENTS.len())
        }
    }
}

/// What the analyst thread measured. Latencies and cache-hit answers come
/// from the sampled sessions only.
#[derive(Default)]
struct AnalystOut {
    text_us: Vec<f64>,
    handle_us: Vec<f64>,
    cold_ms: Vec<f64>,
    open_us: Vec<f64>,
    released: Vec<Released>,
    /// ε charged per tenant (by index in `TENANTS`), summed in commit order.
    charged: [f64; TENANTS.len()],
    refusals_budget: u64,
    refusals_admission: u64,
    attempted: u64,
    violations: Vec<String>,
}

/// What the operator thread measured.
#[derive(Default)]
struct OperatorOut {
    apply_ms: Vec<f64>,
    /// Every batch in order with whether it was accepted.
    batches: Vec<(WriteBatch, bool)>,
    refusals_fk: u64,
    attempted: u64,
    violations: Vec<String>,
}

/// Runs the analyst's plan. `replay_versions` are the versions whose
/// cache-hit answers the gate replays; `r` is the reads per write window.
/// Window w waits until write w is done; write w+1 may start once the
/// first `solo_reads(r)` reads of window w are done. After its last read,
/// the analyst waits for `writes` writes to be done.
#[allow(clippy::too_many_arguments)]
fn analyst(
    tier: &ServiceTier,
    plan: &Plan,
    session_base: u64,
    replay_versions: &[u64],
    r: usize,
    writes: usize,
    progress: &Progress,
    tracer: &Tracer,
    out: &mut AnalystOut,
) {
    for s in 0..plan.sessions() {
        let op = session_base + s as u64;
        let t = plan.tenant(s);
        let tenant = TENANTS[t];
        let sampled = s % SAMPLE_EVERY == 0;
        if plan.knocks(s) {
            out.attempted += 1;
            let (refused, _) = tracer.span("service.refusal", 1, || {
                let res = tier.session(SessionOptions::new().tenant(EXHAUSTED).seed(op));
                matches!(res, Err(Error::Admission(_)))
            });
            if refused {
                out.refusals_admission += 1;
            } else {
                out.violations.push("the exhausted tenant was not refused admission".into());
            }
        }
        let sseed = splitmix(plan.seed ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        out.attempted += 1;
        let (session, open_s) = tracer.span("service.session_open", 1, || {
            tier.session(SessionOptions::new().tenant(tenant).seed(sseed))
        });
        let session = session.unwrap_or_else(|e| fail(&format!("unplanned session refusal: {e}")));
        if sampled {
            out.open_us.push(open_s * 1e6);
        }
        let version = session.snapshot().version();
        let keep = sampled && replay_versions.contains(&version);
        let (handles, _) = tracer.span("service.prepare", 1, || {
            STATEMENTS.iter().map(|sql| session.prepare(sql)).collect::<Result<Vec<_>, _>>()
        });
        let handles = handles.unwrap_or_else(|e| fail(&format!("unplanned prepare error: {e}")));
        let mut successes = 0u64;
        for j in s * ROUND..((s + 1) * ROUND).min(plan.reads) {
            if j % r == 0 {
                // A new write window: the write its predecessor started
                // must be done.
                tracer.span("client.wait", 1, || progress.wait(|c| c.1 >= j / r));
            }
            out.attempted += 1;
            match plan.read(j) {
                Read::OverBudget(i) => {
                    let (refused, _) = tracer.span("service.refusal", 1, || {
                        let res = session.answer(STATEMENTS[i], TENANT_QUOTA * 4.0);
                        matches!(res, Err(Error::Budget(_)))
                    });
                    if refused {
                        out.refusals_budget += 1;
                    } else {
                        out.violations.push("an over-budget read was not refused".into());
                    }
                }
                Read::Cold(c) => {
                    // A never-seen statement is answered on the current
                    // version with the operator idle, so its cache entry
                    // deterministically joins the cache later writes
                    // revalidate. After a window's solo part, that means
                    // once the write that started there is done.
                    let done = j / r + usize::from(j % r >= solo_reads(r));
                    tracer.span("client.wait", 1, || progress.wait(|c| c.1 >= done));
                    let text = cold_statement(plan.seed, c);
                    let cseed = splitmix(sseed ^ 0xC01D);
                    let (cold, _) = tracer.span("service.session_open", 1, || {
                        tier.session(SessionOptions::new().tenant(tenant).seed(cseed))
                    });
                    let cold =
                        cold.unwrap_or_else(|e| fail(&format!("unplanned session refusal: {e}")));
                    let version = cold.snapshot().version();
                    let (res, secs) = tracer.span("service.cold", 1, || {
                        cold.answer(&text, EPS).map(|a| (a.receipt.substream, a.noisy))
                    });
                    tracer.span("service.session_close", 1, || drop(cold));
                    let (substream, noisy) =
                        res.unwrap_or_else(|e| fail(&format!("unplanned cold answer error: {e}")));
                    if substream != 0 {
                        out.violations
                            .push("a fresh session's first charge is not substream 0".into());
                    }
                    out.charged[t] += EPS;
                    out.cold_ms.push(secs * 1e3);
                    out.released.push(Released {
                        text,
                        version,
                        seed: cseed,
                        substream,
                        noisy,
                        cache_hit: false,
                    });
                }
                read @ (Read::Text(i) | Read::Handle(i)) => {
                    let by_text = matches!(read, Read::Text(_));
                    let (res, secs) = if by_text {
                        tracer.span("service.answer_text", 1, || {
                            session
                                .answer(STATEMENTS[i], EPS)
                                .map(|a| (a.receipt.substream, a.noisy))
                        })
                    } else {
                        tracer.span("service.answer_handle", 1, || {
                            handles[i].answer(EPS).map(|a| (a.receipt.substream, a.noisy))
                        })
                    };
                    let (substream, noisy) =
                        res.unwrap_or_else(|e| fail(&format!("unplanned read error: {e}")));
                    // Refusals must draw no noise: substreams stay dense.
                    if substream != successes {
                        out.violations.push(format!(
                            "substream {substream} after {successes} charges: a refusal drew noise"
                        ));
                    }
                    successes += 1;
                    out.charged[t] += EPS;
                    if sampled {
                        if by_text { &mut out.text_us } else { &mut out.handle_us }
                            .push(secs * 1e6);
                    }
                    if keep {
                        out.released.push(Released {
                            text: STATEMENTS[i].to_string(),
                            version,
                            seed: sseed,
                            substream,
                            noisy,
                            cache_hit: true,
                        });
                    }
                }
            }
            if (j + 1) % r == solo_reads(r) {
                progress.reads_done(j + 1);
            }
        }
        drop(handles);
        tracer.span("service.session_close", 1, || drop(session));
    }
    tracer.span("client.wait", 1, || progress.wait(|c| c.1 >= writes));
    tracer.flush();
}

fn operator(
    tier: &ServiceTier,
    writer: &mut Writer,
    writes: std::ops::Range<usize>,
    r: usize,
    progress: &Progress,
    tracer: &Tracer,
    out: &mut OperatorOut,
) {
    for k in writes {
        // Write k starts after the solo part of read window k-1.
        let after = (k * r).saturating_sub(r - solo_reads(r));
        tracer.span("client.wait", 2, || progress.wait(|c| c.0 >= after));
        let ((batch, violates), _) = tracer.span("operator.batch", 2, || writer.batch(k));
        out.attempted += 1;
        let (res, secs) = tracer.span("service.apply", 2, || tier.db().apply(batch.clone()));
        let accepted = match (violates, res) {
            (true, Err(Error::Mutation(_))) => {
                out.refusals_fk += 1;
                false
            }
            (true, other) => {
                out.violations.push(format!(
                    "FK-violating batch {k} was not refused: {:?}",
                    other.map(|_| ())
                ));
                false
            }
            (false, Ok(_)) => {
                out.apply_ms.push(secs * 1e3);
                true
            }
            (false, Err(e)) => fail(&format!("unplanned write error: {e}")),
        };
        out.batches.push((batch, accepted));
        progress.write_done();
    }
    tracer.flush();
}

/// The reads at the start of each window of `r` that run with no write in
/// flight.
fn solo_reads(r: usize) -> usize {
    r * 3 / 4
}

/// Planned foreign-key violations among writes `ks`.
fn planned_fk(ks: std::ops::Range<usize>) -> usize {
    ks.filter(|k| k % FK_VIOLATION_EVERY == FK_VIOLATION_EVERY - 1).count()
}

/// `REPLAY_VERSIONS` evenly spaced versions from 0 to `final_version`.
fn replay_versions(final_version: u64) -> Vec<u64> {
    (0..REPLAY_VERSIONS as u64)
        .map(|i| i * final_version / (REPLAY_VERSIONS as u64 - 1).max(1))
        .collect()
}

pub fn timed(w: &Serve, args: &Args, tracer: &Tracer) {
    // Two client threads, never more than the machine's CPUs.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        fail("serve_mixed runs two client threads and needs at least two CPUs");
    }
    let schema = tpch_schema(&["customer"]);
    let base = generate_sf(w.sf, 0.3, args.seed);
    let mut writer = Writer::new(args.seed, &base);
    let tier = build(&schema, base.clone());

    let r = w.reads_per_write;
    let writes = ((args.seconds * w.writes_per_second).round() as usize).max(w.min_writes);
    // Versions count accepted writes: the warm-up write, then the timed
    // writes that are not planned refusals.
    let final_version = (1 + writes - planned_fk(1..writes + 1)) as u64;
    let replay_at = replay_versions(final_version);
    // Warm-up, untimed: one write window of reads and one write (which
    // also builds the database's integrity index).
    let warm_plan = Plan::new(args.seed ^ 0x5741_524D, r, 0);
    let timed_plan = Plan::new(args.seed, writes * r, w.cold);
    let progress = Progress::new();
    let mut warm_a = AnalystOut::default();
    let mut warm_o = OperatorOut::default();
    let untraced = Tracer::new(false);
    analyst(&tier, &warm_plan, 1 << 40, &replay_at, r, 0, &progress, &untraced, &mut warm_a);
    operator(&tier, &mut writer, 0..1, r, &progress, &untraced, &mut warm_o);

    // Timed phase: both client threads.
    let progress = Progress::new();
    let mut a = AnalystOut::default();
    let mut o = OperatorOut::default();
    let _ = r2t_obs::drain(); // counters below cover the timed phase only
    reset_peak_rss();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let analyst_thread = scope.spawn(|| {
            analyst(&tier, &timed_plan, 0, &replay_at, r, writes, &progress, tracer, &mut a)
        });
        let operator_thread = scope
            .spawn(|| operator(&tier, &mut writer, 1..writes + 1, r, &progress, tracer, &mut o));
        analyst_thread.join().expect("analyst thread panicked");
        operator_thread.join().expect("operator thread panicked");
    });
    let total_s = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let cached_statements = tier.db().snapshot().cached_statements();
    let counters = obs_counters_json();

    // Correctness gate.
    let gate_t0 = Instant::now();
    let analysts = [&warm_a, &a];
    let operators = [&warm_o, &o];
    let mut violations = check_accounting(&tier, &timed_plan, writes, &analysts, &operators);
    let released: Vec<&Released> = analysts.iter().flat_map(|x| &x.released).collect();
    let accepted: Vec<&WriteBatch> =
        operators.iter().flat_map(|x| &x.batches).filter(|(_, ok)| *ok).map(|(b, _)| b).collect();
    if accepted.len() as u64 != final_version {
        violations.push(format!("{} writes accepted, {final_version} planned", accepted.len()));
    }
    let (rel_err_pct, shadow) =
        replay(&schema, base, &released, &accepted, &replay_at, &mut violations);
    let replay_s = gate_t0.elapsed().as_secs_f64();
    let texts: Vec<String> = STATEMENTS
        .iter()
        .map(|s| s.to_string())
        .chain((0..w.cold).map(|c| cold_statement(args.seed, c)))
        .collect();
    check_twin(&schema, &tier, shadow, &texts, args, &mut violations);
    eprintln!(
        "perfbench: serve gate: replay {replay_s:.2}s, twin check {:.2}s",
        gate_t0.elapsed().as_secs_f64() - replay_s
    );
    if let Some(v) = violations.first() {
        gate_fail(&format!("{v} ({} violations)", violations.len()));
    }

    let mut layer = Obj::default();
    layer
        .int("service.cached_statements", cached_statements as u64)
        .int("service.refusals.budget", a.refusals_budget)
        .int("service.refusals.admission", a.refusals_admission)
        .int("service.refusals.mutation", o.refusals_fk);
    let mut obj = Obj::default();
    obj.num("total_s", total_s)
        .num("peak_rss_mb", rss)
        .num("rel_err_pct", rel_err_pct)
        .int("attempted", a.attempted + o.attempted)
        .int("failed", 0)
        .raw("cold_ms", json_nums(&a.cold_ms))
        .raw("text_us", json_nums(&a.text_us))
        .raw("handle_us", json_nums(&a.handle_us))
        .raw("session_us", json_nums(&a.open_us))
        .raw("apply_ms", json_nums(&o.apply_ms))
        .raw("layer", layer.render())
        .raw("counters", counters)
        .raw("layers", tracer.layers_json());
    println!("{}", obj.render());
}

/// Checks the client threads' own findings, that every planned refusal
/// happened, and that each tenant's spent ε is exactly its charges' sum.
fn check_accounting(
    tier: &ServiceTier,
    plan: &Plan,
    writes: usize,
    analysts: &[&AnalystOut],
    operators: &[&OperatorOut],
) -> Vec<String> {
    let mut violations: Vec<String> = analysts
        .iter()
        .flat_map(|x| &x.violations)
        .chain(operators.iter().flat_map(|x| &x.violations))
        .cloned()
        .collect();
    let (a, o) = (analysts[analysts.len() - 1], operators[operators.len() - 1]);
    let planned_fk = planned_fk(1..writes + 1);
    if o.refusals_fk as usize != planned_fk {
        violations.push(format!("{} FK refusals, {planned_fk} planned", o.refusals_fk));
    }
    let planned_budget =
        (0..plan.reads).filter(|&j| matches!(plan.read(j), Read::OverBudget(_))).count();
    let planned_admission = (0..plan.sessions()).filter(|&s| plan.knocks(s)).count();
    if a.refusals_budget as usize != planned_budget
        || a.refusals_admission as usize != planned_admission
    {
        violations.push(format!(
            "refusals budget {} / admission {}, planned {planned_budget} / {planned_admission}",
            a.refusals_budget, a.refusals_admission
        ));
    }
    for (i, t) in TENANTS.iter().enumerate() {
        let want: f64 = analysts.iter().map(|x| x.charged[i]).sum();
        let spent = tier.tenant(t).map(|i| i.spent).unwrap_or(f64::NAN);
        if spent.to_bits() != want.to_bits() {
            violations.push(format!("tenant {t} spent {spent}, charges sum to {want}"));
        }
    }
    violations
}

/// Rebuilds the rows version by version from the accepted batches and
/// replays, through the raw pipeline, every cold answer and the sampled
/// sessions' cache-hit answers on the `replay_versions`; the replay must
/// match bit for bit. Returns the relative error of the four statements'
/// releases on those versions and the final rows.
fn replay(
    schema: &Schema,
    base: Instance,
    released: &[&Released],
    accepted: &[&WriteBatch],
    replay_versions: &[u64],
    violations: &mut Vec<String>,
) -> (f64, Instance) {
    let cfg = base_config();
    let final_version = accepted.len() as u64;
    let mut by_version: BTreeMap<u64, Vec<&Released>> =
        replay_versions.iter().map(|v| (*v, Vec::new())).collect();
    for r in released {
        if !r.cache_hit || replay_versions.contains(&r.version) {
            by_version.entry(r.version).or_default().push(r);
        }
    }
    let mut shadow = base;
    let mut batches = accepted.iter();
    let mut version = 0u64;
    let mut advance = |shadow: &mut Instance, until: u64| {
        while version < until {
            let batch = batches.next().unwrap_or_else(|| gate_fail("version beyond the batch log"));
            (*batch)
                .clone()
                .resolve(schema, shadow)
                .unwrap_or_else(|e| gate_fail(&format!("shadow replay of an accepted batch: {e}")))
                .apply_mut(shadow);
            version += 1;
        }
    };
    let (mut err_sum, mut err_n) = (0.0, 0usize);
    for (v, group) in &by_version {
        advance(&mut shadow, *v);
        // The raw pipeline per statement text at this version.
        let mut values: HashMap<String, (BranchValues, f64)> = HashMap::new();
        let mut raw = |text: &str| -> (BranchValues, f64) {
            values
                .entry(text.to_string())
                .or_insert_with(|| {
                    let lowered = r2t_sql::parse_statement(text, schema)
                        .unwrap_or_else(|e| gate_fail(&format!("parse {text}: {e}")));
                    let profile = exec::profile(schema, &shadow, &lowered.query)
                        .unwrap_or_else(|e| gate_fail(&format!("profile {text}: {e}")));
                    (BranchValues::for_profile(&profile, &cfg), profile.query_result())
                })
                .clone()
        };
        let r2t = R2T::new(cfg.with_epsilon(EPS));
        for r in group {
            let (bv, _) = raw(&r.text);
            let want = r2t.run_cached(&bv, &mut substream_rng(r.seed, r.substream)).output;
            if want.to_bits() != r.noisy.to_bits() {
                violations.push(format!(
                    "answer to {:?} at version {v} substream {} is {}, raw pipeline gives {want}",
                    r.text, r.substream, r.noisy
                ));
            }
        }
        // Relative error of each statement's release at this version, over
        // a fixed set of noise draws.
        if replay_versions.contains(v) {
            for (i, text) in STATEMENTS.iter().enumerate() {
                let (bv, truth) = raw(text);
                for d in 0..ERR_DRAWS {
                    let out = r2t.run_cached(&bv, &mut substream_rng(0xE220 + i as u64, d)).output;
                    err_sum += 100.0 * (out - truth).abs() / truth.abs();
                    err_n += 1;
                }
            }
        }
    }
    advance(&mut shadow, final_version);
    (err_sum / err_n as f64, shadow)
}

/// The final database must answer every statement bitwise like a twin
/// built from the mutated rows.
fn check_twin(
    schema: &Schema,
    tier: &ServiceTier,
    rows: Instance,
    texts: &[String],
    args: &Args,
    violations: &mut Vec<String>,
) {
    let twin = PrivateDatabase::new(schema.clone(), rows)
        .unwrap_or_else(|e| gate_fail(&format!("twin build: {e}")));
    let opts =
        || SessionOptions::new().total_epsilon(TENANT_QUOTA).base(base_config()).seed(args.seed);
    let live = tier.db().session(opts()).unwrap_or_else(|e| gate_fail(&format!("session: {e}")));
    let fresh = twin.session(opts()).unwrap_or_else(|e| gate_fail(&format!("twin session: {e}")));
    for text in texts {
        let mut x = live
            .answer(text, EPS)
            .unwrap_or_else(|e| gate_fail(&format!("final answer: {e}")))
            .noisy;
        let y = fresh
            .answer(text, EPS)
            .unwrap_or_else(|e| gate_fail(&format!("twin answer: {e}")))
            .noisy;
        if args.corrupt {
            // Self-test hook: a wrong twin answer must fail the gate.
            x = f64::from_bits(x.to_bits() ^ 1);
        }
        if x.to_bits() != y.to_bits() {
            violations.push(format!("final database answers {text:?} with {x}, its twin with {y}"));
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}
