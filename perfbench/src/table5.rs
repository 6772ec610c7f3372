//! The two Table 5 workloads: cold archive → profile → classify → race for
//! each query, at the paper's parameters (ε = 0.8, β = 0.1, GS = 2¹² for
//! COUNT and 2¹⁸ for SUM) and library defaults everywhere else.

use crate::trace::{
    digest_profile, elapsed, gate_fail, json_nums, json_str, obs_counters_json, peak_rss_mb,
    reset_peak_rss, Obj, Tracer,
};
use crate::{median, Args};
use r2t_core::noise::substream_rng;
use r2t_core::truncation::{self, KernelKind};
use r2t_core::{BranchValues, R2TConfig, R2T};
use r2t_engine::exec::{profile_with_stats_src, ExecOptions, Source};
use r2t_engine::storage::write_archive;
use r2t_engine::Archive;
use r2t_tpch::{all_queries, generate_sf, Category, TpchQuery};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Noise draws per query over which `rel_err_pct` is averaged. Every pass
/// releases the first of them; the gate shows those releases equal
/// the reference race, so the rest come from the reference race directly.
const ERR_DRAWS: u64 = 64;

/// Relative tolerance between the early-stop race and the sequential race
/// without early stop: they differ only by LP solver round-off.
const SOLVER_TOL: f64 = 1e-6;

pub struct Table5 {
    pub sf: f64,
    pub queries: &'static [&'static str],
    /// Independent instances generated per run, each from its own seed
    /// derived from `--seed`: a run's figures average over their data.
    pub instances: usize,
    /// Nominal seconds per pass: a run makes `--seconds / pass_s` passes
    /// (at least three, so the median rejects one disturbed pass), a count
    /// fixed by the arguments, not by speed.
    pub pass_s: f64,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// One query on one instance; `index` is its place in the run.
struct Job {
    index: usize,
    instance: usize,
    query: TpchQuery,
}

/// The queries the closed-form or flow kernel serves.
pub const KERNEL: &[&str] = &["Q3", "Q12", "Q20", "Q5", "Q8", "Q7", "Q11", "Q18"];
/// The queries that fall back to simplex: Q10 (`static_rows`) and Q21
/// (`too_many_refs`).
pub const SIMPLEX: &[&str] = &["Q10", "Q21"];

impl Table5 {
    fn queries(&self) -> Vec<TpchQuery> {
        let all = all_queries();
        self.queries
            .iter()
            .map(|name| all.iter().find(|q| q.name == *name).expect("known query").clone())
            .collect()
    }

    fn jobs(&self) -> Vec<Job> {
        (0..self.instances)
            .flat_map(|instance| self.queries().into_iter().map(move |query| (instance, query)))
            .enumerate()
            .map(|(index, (instance, query))| Job { index, instance, query })
            .collect()
    }
}

/// Generator seed of instance `d` of a run.
fn instance_seed(seed: u64, d: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(d as u64)
}

fn designation(q: &TpchQuery) -> String {
    q.schema.primary_private().join("+")
}

fn archive_path(dir: &Path, d: usize, q: &TpchQuery) -> PathBuf {
    dir.join(format!("{d}-{}.r2t", designation(q)))
}

fn config(q: &TpchQuery) -> R2TConfig {
    let gs = if q.category == Category::Aggregation { 1u64 << 18 } else { 1u64 << 12 };
    R2TConfig::builder(0.8, 0.1, gs as f64).build()
}

/// The noise seed of a job: every pass releases from its substream 0.
///
/// The noise is the same for every pass and every `--seed`, which varies
/// the data. Early stop's work depends on the noise (one draw can stop a
/// Q21 race 100× sooner than another). So the passes of a run repeat
/// identical work, and the median pass rejects a burst of load from
/// outside; and runs on different data race against the same draws.
fn noise_seed(job: &Job) -> u64 {
    0x7AB1_E500_0000_0000 ^ (job.index as u64 + 1)
}

/// Setup: generate each instance and write one archive per
/// primary-private designation, `setup_reps` times; then, untimed, the
/// row-sourced profile digest of every job, which the timed child checks
/// its archive runs against.
pub fn setup(w: &Table5, args: &Args) {
    let queries = w.queries();
    let mut designations: Vec<&TpchQuery> = Vec::new();
    for q in &queries {
        if !designations.iter().any(|d| designation(d) == designation(q)) {
            designations.push(q);
        }
    }
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut write_s = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..w.setup_reps {
        let mut g = 0.0;
        let ((), total) = elapsed(|| {
            instances.clear();
            for d in 0..w.instances {
                let (inst, s) = elapsed(|| generate_sf(w.sf, 0.3, instance_seed(args.seed, d)));
                g += s;
                for q in &designations {
                    let ((), s) = elapsed(|| {
                        write_archive(&q.schema, &inst, &archive_path(&args.dir, d, q))
                            .unwrap_or_else(|e| fail(&format!("write archive: {e}")))
                    });
                    write_s.push(s);
                }
                instances.push(inst);
            }
        });
        setup_s.push(total);
        gen_s.push(g);
    }
    let archive_mb = (0..w.instances)
        .flat_map(|d| designations.iter().map(move |q| (d, q)))
        .map(|(d, q)| {
            std::fs::metadata(archive_path(&args.dir, d, q)).map(|m| m.len()).unwrap_or(0)
        })
        .sum::<u64>() as f64
        / (1024.0 * 1024.0);

    // Gate reference, untimed: the row-sourced columnar run of each job.
    let mut expect = String::new();
    for job in w.jobs() {
        let q = &job.query;
        let (p, _) = profile_with_stats_src(
            &q.schema,
            Source::Rows(&instances[job.instance]),
            &q.query,
            &ExecOptions::default(),
        )
        .unwrap_or_else(|e| fail(&format!("{}: row-sourced profile: {e}", q.name)));
        expect.push_str(&format!("{} {:016x}\n", job_name(&job), digest_profile(&p)));
    }
    std::fs::write(args.dir.join("expect.txt"), expect)
        .unwrap_or_else(|e| fail(&format!("write expected digests: {e}")));

    let mut obj = Obj::default();
    obj.raw("setup_s", json_nums(&setup_s))
        .raw("gen_s", json_nums(&gen_s))
        .raw("write_s", json_nums(&write_s))
        .num("archive_mb", archive_mb)
        .int("tuples", instances.iter().map(|i| i.total_tuples() as u64).sum())
        .raw(
            "sizes",
            json_str(&format!(
                "{} instance(s) of generate_sf({}), queries {}, {} archive(s) each",
                w.instances,
                w.sf,
                w.queries.join(" "),
                designations.len()
            )),
        );
    println!("{}", obj.render());
}

fn job_name(job: &Job) -> String {
    format!("{}:{}", job.instance, job.query.name)
}

/// Per-job measurements of one pass.
struct QueryRun {
    open_s: f64,
    profile_s: f64,
    race_s: f64,
    output: f64,
    completed: usize,
    attempted: usize,
    kind: Option<KernelKind>,
    lines: usize,
    peak_bindings: usize,
}

/// What the warm-up pass keeps for the gate.
struct Reference {
    digest: u64,
    values: BranchValues,
    truth: f64,
}

/// One cold answer: archive open → profile → classify → race. With
/// `reference`, also keeps the gate's reference for the job, untimed.
fn run_query(
    job: &Job,
    dir: &Path,
    tracer: &Tracer,
    reference: Option<&mut Vec<Reference>>,
) -> QueryRun {
    let q = &job.query;
    let cfg = config(q);
    let mut run = None;
    tracer.span("table5.query", 0, || {
        let (archive, open_s) = tracer.span("storage.open", 0, || {
            Archive::open(&q.schema, &archive_path(dir, job.instance, q))
                .unwrap_or_else(|e| fail(&format!("{}: open archive: {e}", q.name)))
        });
        let ((profile, stats), profile_s) = tracer.span("exec.profile", 0, || {
            profile_with_stats_src(
                &q.schema,
                Source::Archive(&archive),
                &q.query,
                &ExecOptions::default(),
            )
            .unwrap_or_else(|e| fail(&format!("{}: profile: {e}", q.name)))
        });
        let ((trunc, kind), _) = tracer.span("trunc.classify", 0, || {
            let trunc = truncation::for_profile(&profile);
            let kind = trunc.sweep_session().map(|s| s.kind());
            (trunc, kind)
        });
        let (report, race_s) = tracer.span("r2t.race", 0, || {
            R2T::new(cfg.clone()).run_with(trunc.as_ref(), &mut substream_rng(noise_seed(job), 0))
        });
        run = Some(QueryRun {
            open_s,
            profile_s,
            race_s,
            output: report.output,
            completed: report.branches.iter().filter(|b| b.lp_value.is_some()).count(),
            attempted: report.branches.len(),
            kind,
            lines: profile.results.len(),
            peak_bindings: stats.peak_bindings,
        });
        if let Some(refs) = reference {
            refs.push(Reference {
                digest: digest_profile(&profile),
                values: BranchValues::compute(trunc.as_ref(), cfg.num_branches(), cfg.warm_sweep),
                truth: profile.query_result(),
            });
        }
    });
    run.expect("query ran")
}

/// The timed child: an untimed, untraced warm-up pass that also builds the
/// gate's references, a fixed number of timed passes, the gate, one result
/// line.
pub fn timed(w: &Table5, args: &Args, tracer: &Tracer) {
    let jobs = w.jobs();
    let expected = read_expected(&args.dir.join("expect.txt"), args.corrupt);
    let mut refs = Vec::new();
    let untraced = Tracer::new(false);
    let warm: Vec<QueryRun> =
        jobs.iter().map(|job| run_query(job, &args.dir, &untraced, Some(&mut refs))).collect();

    let _ = r2t_obs::drain(); // counters below cover the timed passes only
    let n_passes = ((args.seconds / w.pass_s).round() as usize).max(3);
    let mut passes: Vec<Vec<QueryRun>> = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_rss = Vec::new();
    for _ in 0..n_passes {
        reset_peak_rss();
        let t0 = Instant::now();
        let runs: Vec<QueryRun> =
            jobs.iter().map(|job| run_query(job, &args.dir, tracer, None)).collect();
        pass_s.push(t0.elapsed().as_secs_f64());
        pass_rss.push(peak_rss_mb());
        passes.push(runs);
    }
    tracer.flush();
    // Freed memory a pass leaves behind in the allocator only ever adds to
    // a later pass's peak, so the smallest per-pass peak is the pass's own.
    let rss = pass_rss.iter().copied().fold(f64::INFINITY, f64::min);
    let counters = obs_counters_json();

    // Correctness gate.
    for (job, r) in jobs.iter().zip(&refs) {
        match expected.get(&job_name(job)) {
            Some(e) if *e == r.digest => {}
            Some(e) => gate_fail(&format!(
                "{}: archive-sourced profile digest {:016x} != row-sourced {e:016x}",
                job_name(job),
                r.digest
            )),
            None => gate_fail(&format!("{}: no row-sourced digest", job_name(job))),
        }
    }
    let want: Vec<f64> = jobs
        .iter()
        .zip(&refs)
        .map(|(job, r)| {
            let mut rng = substream_rng(noise_seed(job), 0);
            R2T::new(config(&job.query)).run_cached(&r.values, &mut rng).output
        })
        .collect();
    for (pass, runs) in std::iter::once(&warm).chain(&passes).enumerate() {
        for ((job, run), &want) in jobs.iter().zip(runs).zip(&want) {
            if (run.output - want).abs() > SOLVER_TOL * want.abs().max(1.0) {
                gate_fail(&format!(
                    "{} pass {pass}: early-stop release {} != sequential race without early \
                     stop {want}",
                    job_name(job),
                    run.output
                ));
            }
        }
    }

    // Relative error of the released answer, averaged over noise draws.
    let mut err_sum = 0.0;
    for (job, r) in jobs.iter().zip(&refs) {
        let r2t = R2T::new(config(&job.query));
        for d in 0..ERR_DRAWS {
            let out = r2t.run_cached(&r.values, &mut substream_rng(noise_seed(job), d)).output;
            err_sum += 100.0 * (out - r.truth).abs() / r.truth.abs();
        }
    }
    let rel_err_pct = err_sum / (jobs.len() as u64 * ERR_DRAWS) as f64;

    let runs: Vec<&QueryRun> = passes.iter().flatten().collect();
    // The median pass: a burst of load from outside that hits one pass
    // does not move it.
    let total_s = median(&pass_s);
    let mut layer = Obj::default();
    let kinds = |k: KernelKind| warm.iter().filter(|r| r.kind == Some(k)).count() as u64;
    layer
        .int("trunc.kind.closed_form", kinds(KernelKind::ClosedForm))
        .int("trunc.kind.matching", kinds(KernelKind::Matching))
        .int("trunc.kind.simplex", kinds(KernelKind::Simplex))
        .int("exec.result_lines", warm.iter().map(|r| r.lines as u64).sum())
        .int("exec.peak_bindings", warm.iter().map(|r| r.peak_bindings as u64).max().unwrap_or(0))
        .num(
            "r2t.completed_frac",
            runs.iter().map(|r| r.completed).sum::<usize>() as f64
                / runs.iter().map(|r| r.attempted).sum::<usize>().max(1) as f64,
        );
    // Per query, summed over instances: the median pass's seconds.
    let mut per_query = Obj::default();
    for q in w.queries() {
        let per_pass = |f: fn(&QueryRun) -> f64| -> Vec<f64> {
            passes
                .iter()
                .map(|p| {
                    jobs.iter()
                        .zip(p)
                        .filter(|(j, _)| j.query.name == q.name)
                        .map(|(_, r)| f(r))
                        .sum()
                })
                .collect()
        };
        let mut o = Obj::default();
        o.num("profile_s", median(&per_pass(|r| r.profile_s)))
            .num("race_s", median(&per_pass(|r| r.race_s)));
        per_query.raw(q.name, o.render());
    }

    let mut obj = Obj::default();
    obj.num("total_s", total_s)
        .raw("pass_s", json_nums(&pass_s))
        .raw("pass_rss_mb", json_nums(&pass_rss))
        .num("peak_rss_mb", rss)
        .num("rel_err_pct", rel_err_pct)
        .int("attempted", runs.len() as u64)
        .int("failed", 0)
        .raw("open_ms", json_nums(&runs.iter().map(|r| r.open_s * 1e3).collect::<Vec<_>>()))
        .raw("layer", layer.render())
        .raw("per_query", per_query.render())
        .raw("counters", counters)
        .raw("layers", tracer.layers_json());
    println!("{}", obj.render());
}

fn read_expected(path: &Path, corrupt: bool) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("read expected digests {}: {e}", path.display())));
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let (name, hex) = line.split_once(' ').unwrap_or_else(|| fail("malformed digest line"));
        let digest = u64::from_str_radix(hex, 16).unwrap_or_else(|_| fail("malformed digest"));
        out.insert(name.to_string(), digest);
    }
    if corrupt {
        // Self-test hook: a wrong expected digest must fail the gate.
        if let Some(d) = out.values_mut().next() {
            *d ^= 1;
        }
    }
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}
