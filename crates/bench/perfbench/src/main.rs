//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints every end-to-end
//! metric (untraced) or every per-layer metric (traced) as a median over
//! repetitions, with quartiles and the repetition count; the last line of
//! standard output is one JSON object with the result. See `README.md`.

use padlock_exec::SweepPool;
use perfbench::figures::Figures;
use perfbench::mlp_deep::MlpDeep;
use perfbench::secure_vm::SecureVm;
use perfbench::server_mix::ServerMix;
use perfbench::stats::{quantile, Summary};
use perfbench::{Rep, DEFAULT_SEED, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The end-to-end metrics: name, unit, better direction.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_mops", "Mops/s", "higher"),
    ("point_ms_p50", "ms", "lower"),
    ("point_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Expected results at the default seed, one record per operation.
fn expected(workload: &str) -> &'static str {
    match workload {
        "figures" => include_str!("../expected/figures.jsonl"),
        "mlp-deep" => include_str!("../expected/mlp-deep.jsonl"),
        "server-mix" => include_str!("../expected/server-mix.jsonl"),
        _ => include_str!("../expected/secure-vm.jsonl"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    results: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <figures|mlp-deep|server-mix|secure-vm> \
--seed <n> --seconds <s> --trace <0|1> [--results <path>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        results: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--results" => args.results = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

enum Bench {
    Figures(Figures),
    MlpDeep(MlpDeep),
    ServerMix(ServerMix),
    SecureVm(SecureVm),
}

impl Bench {
    fn new(workload: &str, seed: u64) -> Option<Self> {
        Some(match workload {
            "figures" => Bench::Figures(Figures::new(seed)),
            "mlp-deep" => Bench::MlpDeep(MlpDeep::new(seed)),
            "server-mix" => Bench::ServerMix(ServerMix::new(seed)),
            "secure-vm" => Bench::SecureVm(SecureVm::new(seed)),
            _ => return None,
        })
    }

    fn rep(&self, pool: &SweepPool, traced: bool) -> Rep {
        match self {
            Bench::Figures(b) => b.run_rep(pool, traced),
            Bench::MlpDeep(b) => b.run_rep(pool, traced),
            Bench::ServerMix(b) => b.run_rep(pool, traced),
            Bench::SecureVm(b) => b.run_rep(pool, traced),
        }
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operation-level correctness over a run: each operation's record must
/// match the reference (the expected file at the default seed, else the
/// warm-up repetition's records) and pass its own output check.
struct Checker {
    reference: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, rep: &Rep) {
        for (i, (result, own_failure)) in rep.results.iter().zip(&rep.op_failed).enumerate() {
            self.attempted += 1;
            if *own_failure || self.reference.get(i) != Some(result) {
                self.failed += 1;
                eprintln!("perfbench: operation {i} failed its check: {result}");
            }
        }
        if rep.results.len() < self.reference.len() {
            let missing = (self.reference.len() - rep.results.len()) as u64;
            eprintln!("perfbench: {missing} expected operations did not run");
            self.attempted += missing;
            self.failed += missing;
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn end_to_end(reps: &[Rep], rss: f64) -> Vec<(&'static str, &'static str, &'static str, Summary)> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>());
    let point = |r: &Rep, q: f64| {
        let ms: Vec<f64> = r.op_times.iter().map(|t| secs(*t) * 1e3).collect();
        quantile(&ms, q)
    };
    END_TO_END
        .iter()
        .map(|&(name, unit, better)| {
            let s = match name {
                "wall_s" => per_rep(&|r| secs(r.wall)),
                "setup_s" => per_rep(&|r| secs(r.setup)),
                "sim_mops" => per_rep(&|r| r.sim_ops as f64 / secs(r.run) / 1e6),
                "point_ms_p50" => per_rep(&|r| point(r, 0.5)),
                "point_ms_p90" => per_rep(&|r| point(r, 0.9)),
                _ => Summary::of(&[rss]),
            };
            (name, unit, better, s)
        })
        .collect()
}

/// The per-layer metrics: medians over the traced repetitions, except
/// `exec.*`, which come from the repetition fanned over every core, and
/// `trace.overhead_pct`.
fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    fanned: &Rep,
) -> Vec<(&'static str, &'static str, &'static str, Summary)> {
    let wall =
        |reps: &[Rep]| Summary::of(&reps.iter().map(|r| secs(r.wall)).collect::<Vec<_>>()).median;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let s = if name == "trace.overhead_pct" {
                Summary::of(&[(wall(traced) / wall(untraced) - 1.0) * 100.0])
            } else if name.starts_with("exec.") {
                Summary::of(&[fanned.layers[name]])
            } else {
                let v: Vec<f64> = traced
                    .iter()
                    .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                Summary::of(&v)
            };
            (name, unit, "", s)
        })
        .collect()
}

fn write_lines(path: &PathBuf, lines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text)
}

/// A metric value as JSON: a finite number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    // Timed repetitions run on one worker: fanning them over the host's
    // cores makes each operation compete with the others for cache and
    // memory, and multiplies the run-to-run spread.
    let pool = SweepPool::serial();

    // The warm-up repetition fills caches, lazy state and the main
    // thread's allocator before timing starts: the first repetition in
    // a process runs markedly slower than later ones.
    let warm = bench.rep(&pool, false);
    let reference: Vec<String> = if args.seed == DEFAULT_SEED {
        expected(&args.workload)
            .lines()
            .map(str::to_string)
            .collect()
    } else {
        warm.results.clone()
    };
    if let Some(path) = &args.results {
        if let Err(e) = write_lines(path, &warm.results) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let mut checker = Checker {
        reference,
        attempted: 0,
        failed: 0,
    };
    checker.check(&warm);

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_REPS || start.elapsed() < budget {
        let rep = bench.rep(&pool, false);
        checker.check(&rep);
        untraced.push(rep);
        if args.trace {
            let rep = bench.rep(&pool, true);
            checker.check(&rep);
            traced.push(rep);
        }
    }

    let rss = peak_rss_mb();

    // One more repetition after timing, fanned over every host core (at
    // least two workers): matching the reference shows the results do
    // not depend on the worker count, and its sweep measures the exec
    // layer.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let fanned_pool = SweepPool::new(cores.max(2));
    let fanned = bench.rep(&fanned_pool, false);
    checker.check(&fanned);

    let metrics = if args.trace {
        per_layer(&untraced, &traced, &fanned)
    } else {
        end_to_end(&untraced, rss)
    };
    let ops = warm.results.len();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} reps={} ops_per_rep={} fanned_workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.len() + traced.len(),
        ops,
        fanned_pool.jobs()
    );
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>5}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for (name, unit, better, s) in &metrics {
        println!(
            "{name:<28} {:>14.6} {:>14.6} {:>14.6} {:>5}  {unit} {better}",
            s.median, s.q1, s.q3, s.n
        );
    }
    if let Some(mae) = warm.paper_mae_pct {
        println!(
            "{:<28} {mae:>14.6} (simulated; the same every repetition)  pp",
            "paper_mae_pct"
        );
    }
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    println!(
        "{:<28} {failed_frac:>14.6} ({} of {} operations)",
        "failed_frac", checker.failed, checker.attempted
    );
    if !args.trace {
        println!("point_ms samples: {ops} operations per repetition");
    }

    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let workload = args.workload.as_str();
        let lines: Vec<String> = traced
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.spans.iter().map(move |s| s.jsonl(workload, i)))
            .collect();
        match write_lines(&path, &lines) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                lines.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }

    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, _, s)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(s.median)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
