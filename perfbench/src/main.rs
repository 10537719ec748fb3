//! `perfbench`: the repository benchmark. One command runs one seeded
//! workload through the library entry points `scd train` and `scd serve`
//! call, checks the outputs, and prints every metric with its unit; the
//! last stdout line is one JSON object with the gated metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload train-syscd|train-dist-tpa|serve-swap --seed N
//!           --seconds S --trace 0|1 [--size full|tiny]
//!           [--inject tamper-decision|miss-gap]
//! ```

mod dist;
mod gen;
mod host;
mod serve;
mod stats;
mod syscd;
mod trace;
mod train;

use gen::Sizes;
use stats::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The gated end-to-end metrics and their units, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("rows_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and their units, printed by traced runs. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("sparse.parse_s", "s"),
    ("sparse.epoch_bytes", "bytes"),
    ("sparse.epoch_gbps", "GB/s"),
    ("core.problem_s", "s"),
    ("core.solver_build_s", "s"),
    ("core.epoch_p50_ms", "ms"),
    ("core.epoch_p90_ms", "ms"),
    ("core.epoch_n", "count"),
    ("core.gap_p50_ms", "ms"),
    ("core.gap_p90_ms", "ms"),
    ("core.gap_n", "count"),
    ("core.gap_share", "ratio"),
    ("core.epochs_to_gap", "count"),
    ("core.time_to_gap_s", "s"),
    ("core.seq_epoch_p50_ms", "ms"),
    ("core.speedup_vs_seq", "x"),
    ("sched.peak_parallelism", "threads"),
    ("store.open_s", "s"),
    ("store.load_s", "s"),
    ("store.bytes", "bytes"),
    ("distributed.build_s", "s"),
    ("distributed.round_p50_ms", "ms"),
    ("distributed.round_p90_ms", "ms"),
    ("distributed.round_n", "count"),
    ("wire.raw_bytes_per_round", "bytes"),
    ("wire.encoded_bytes_per_round", "bytes"),
    ("perf_model.sim_round_s", "s"),
    ("perf_model.wall_over_sim", "ratio"),
    ("serve.model_load_s", "s"),
    ("serve.small_p50_ms", "ms"),
    ("serve.small_p99_ms", "ms"),
    ("serve.small_n", "count"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.batch_p99_ms", "ms"),
    ("serve.batch_n", "count"),
    ("serve.json_parse_small_p50_ms", "ms"),
    ("serve.json_parse_small_p99_ms", "ms"),
    ("serve.json_parse_batch_p50_ms", "ms"),
    ("serve.json_parse_batch_p99_ms", "ms"),
    ("serve.slot_read_small_p50_ms", "ms"),
    ("serve.slot_read_small_p99_ms", "ms"),
    ("serve.slot_read_batch_p50_ms", "ms"),
    ("serve.slot_read_batch_p99_ms", "ms"),
    ("serve.batch_build_small_p50_ms", "ms"),
    ("serve.batch_build_small_p99_ms", "ms"),
    ("serve.batch_build_batch_p50_ms", "ms"),
    ("serve.batch_build_batch_p99_ms", "ms"),
    ("serve.score_small_p50_ms", "ms"),
    ("serve.score_small_p99_ms", "ms"),
    ("serve.score_batch_p50_ms", "ms"),
    ("serve.score_batch_p99_ms", "ms"),
    ("serve.respond_rest_small_p50_ms", "ms"),
    ("serve.respond_rest_small_p99_ms", "ms"),
    ("serve.respond_rest_batch_p50_ms", "ms"),
    ("serve.respond_rest_batch_p99_ms", "ms"),
    ("serve.publish_p50_ms", "ms"),
    ("serve.publish_p99_ms", "ms"),
    ("serve.publish_n", "count"),
    ("serve.reader_retries", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSyscd,
    TrainDistTpa,
    ServeSwap,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train-syscd" => Some(Workload::TrainSyscd),
            "train-dist-tpa" => Some(Workload::TrainDistTpa),
            "serve-swap" => Some(Workload::ServeSwap),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainSyscd => "train-syscd",
            Workload::TrainDistTpa => "train-dist-tpa",
            Workload::ServeSwap => "serve-swap",
        }
    }
}

/// A deliberate fault the smoke test injects to prove the output checks
/// catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Alter one served decision before the responses are checked.
    TamperDecision,
    /// Cap training at one epoch, so the gap target is missed.
    MissGap,
}

/// What a workload run needs.
pub struct Ctx {
    pub dir: PathBuf,
    pub sizes: Sizes,
    pub seed: u64,
    /// Measuring time of the whole run (both phases of a traced run).
    pub budget: Duration,
    pub traced: bool,
    pub inject: Inject,
    /// Where a traced run writes its spans.
    pub trace_path: PathBuf,
}

impl Ctx {
    /// The untraced phase gets the whole budget, or half of it when a
    /// traced phase follows.
    pub fn phase_budget(&self) -> Duration {
        if self.traced {
            self.budget / 2
        } else {
            self.budget
        }
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation; `err` names why it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {e}"));
            }
        }
    }
}

/// Repeat `unit` until `budget` has elapsed, at least `min` times.
pub fn repeat_for(budget: Duration, min: usize, mut unit: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        unit();
        done += 1;
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `full` or `tiny`, and the sizes it names.
    size: String,
    sizes: Sizes,
    inject: Inject,
    /// `gen` subcommand: write inputs into this directory and exit.
    gen_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let gen = argv.first().map(String::as_str) == Some("gen");
    if gen {
        argv.remove(0);
    }
    let mut get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.remove(i);
        (i < argv.len()).then(|| argv.remove(i))
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        format!("unknown workload {workload:?} (train-syscd|train-dist-tpa|serve-swap)")
    })?;
    let num = |v: Option<String>, flag: &str, default: u64| -> Result<u64, String> {
        v.map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| format!("{flag} {s:?}: expected an integer"))
        })
    };
    let seed = num(get("--seed"), "--seed", 1)?;
    let seconds = num(get("--seconds"), "--seconds", 10)?;
    let trace = match num(get("--trace"), "--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let size = get("--size").unwrap_or_else(|| "full".into());
    let sizes =
        Sizes::named(&size).ok_or_else(|| format!("unknown --size {size:?} (full|tiny)"))?;
    let inject = match get("--inject").as_deref() {
        None => Inject::None,
        Some("tamper-decision") => Inject::TamperDecision,
        Some("miss-gap") => Inject::MissGap,
        Some(other) => {
            return Err(format!(
                "unknown --inject {other:?} (tamper-decision|miss-gap)"
            ))
        }
    };
    let gen_dir = if gen {
        Some(PathBuf::from(get("--dir").ok_or("gen needs --dir")?))
    } else {
        None
    };
    if let Some(extra) = argv.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
        sizes,
        inject,
        gen_dir,
    })
}

/// Generate the inputs in a child process, so the measured process
/// never holds anything the generator made.
fn generate_in_child(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .args([
            "gen",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--size", &args.size, "--dir"])
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    Ok(())
}

fn json_metrics(metrics: &Metrics, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).map_or(0.0, |m| {
                assert_eq!(
                    m.unit, unit,
                    "{name} is measured in {}, declared in {unit}",
                    m.unit
                );
                m.value
            });
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args) -> Result<bool, String> {
    let host = host::Host::probe();
    let root = PathBuf::from(".perfbench_work");
    let dir = root.join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let gen_start = Instant::now();
    if let Err(e) = generate_in_child(args, &dir) {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(e);
    }
    let gen_s = gen_start.elapsed().as_secs_f64();
    let ctx = Ctx {
        dir: dir.clone(),
        sizes: args.sizes,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        traced: args.trace,
        inject: args.inject,
        trace_path: root.join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        )),
    };
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
    };
    let input_bytes = read("input_bytes").unwrap_or(0.0);
    let ref_start = read("ref_ms").unwrap_or(0.0);
    let result = match args.workload {
        Workload::TrainSyscd => syscd::run(&ctx),
        Workload::TrainDistTpa => dist::run(&ctx),
        Workload::ServeSwap => serve::run(&ctx),
    };
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    let mut out = result?;
    let ref_end = host::reference_ms();
    out.metrics
        .set("host.ref_ms", stats::median(&[ref_start, ref_end]), "ms");

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("host {}", host.to_json(ref_start, ref_end));
    println!("inputs {input_bytes} bytes generated in {gen_s:.2} s (not measured)");
    for m in &out.metrics.0 {
        println!("metric {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &out.notes {
        println!("note {note}");
    }
    let correct = out.failed == 0;
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        json_metrics(&out.metrics, names)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.gen_dir {
        // The start-of-run host reference is timed here, in the child, so
        // its buffer never counts toward the measured process's peak RSS.
        let ref_ms = host::reference_ms();
        let written = gen::generate(args.workload, &args.sizes, args.seed, dir).and_then(|bytes| {
            std::fs::write(dir.join("input_bytes"), bytes.to_string())?;
            std::fs::write(dir.join("ref_ms"), ref_ms.to_string())
        });
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; the exit code flags the failed checks.
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
