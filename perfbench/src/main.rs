//! The repository benchmark's measuring program. `run.py` drives it: one
//! child process per phase, so each phase's peak RSS (`VmHWM`) is its own.
//!
//! ```text
//! perfbench <setup|timed> --workload <name> --seed <n> --dir <work dir>
//!           [--seconds <s>] [--trace] [--smoke] [--corrupt]
//! ```
//!
//! Each child prints one JSON result line on stdout. A failed correctness
//! gate exits non-zero without printing one.

mod serve;
mod table5;
mod trace;

use std::path::PathBuf;

/// Command-line arguments of one child.
pub struct Args {
    pub phase: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        phase: String::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        dir: PathBuf::from("."),
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    args.phase = it.next().unwrap_or_else(|| usage("missing phase"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--dir" => args.dir = PathBuf::from(value()),
            "--trace" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench <setup|timed> --workload <table5_kernel|table5_simplex|serve_mixed> \
         --seed <n> --dir <dir> [--seconds <s>] [--trace] [--smoke] [--corrupt]"
    );
    std::process::exit(2);
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let args = parse_args();
    // Library defaults only: counters are on in the traced build's traced
    // runs and off otherwise, whatever `R2T_OBS` says.
    r2t_obs::set_level(if args.trace { r2t_obs::Level::Counters } else { r2t_obs::Level::Off });
    std::fs::create_dir_all(&args.dir).unwrap_or_else(|e| {
        eprintln!("perfbench: work dir {}: {e}", args.dir.display());
        std::process::exit(2);
    });
    let tracer = trace::Tracer::new(args.trace);
    let smoke = args.smoke;
    match args.workload.as_str() {
        "table5_kernel" | "table5_simplex" => {
            let w = if args.workload == "table5_kernel" {
                table5::Table5 {
                    sf: if smoke { 0.002 } else { 0.1 },
                    queries: table5::KERNEL,
                    instances: 1,
                    pass_s: 5.0,
                    setup_reps: 2,
                }
            } else {
                table5::Table5 {
                    sf: if smoke { 0.001 } else { 0.003 },
                    queries: table5::SIMPLEX,
                    instances: 6,
                    pass_s: 3.5,
                    setup_reps: 9,
                }
            };
            match args.phase.as_str() {
                "setup" => table5::setup(&w, &args),
                "timed" => table5::timed(&w, &args, &tracer),
                other => usage(&format!("unknown phase {other}")),
            }
        }
        "serve_mixed" => {
            let w = serve::Serve {
                sf: if smoke { 0.001 } else { 0.005 },
                writes_per_second: if smoke { 0.0 } else { 4.0 },
                min_writes: if smoke { 12 } else { 40 },
                reads_per_write: if smoke { 100 } else { 64_000 },
                cold: if smoke { 3 } else { 12 },
                setup_reps: 9,
            };
            match args.phase.as_str() {
                "setup" => serve::setup(&w, &args),
                "timed" => serve::timed(&w, &args, &tracer),
                other => usage(&format!("unknown phase {other}")),
            }
        }
        other => usage(&format!("unknown workload {other:?}")),
    }
}
