//! What the two train workloads share: build a solver from the inputs on
//! disk (setup), run epochs with a duality-gap check after each one until
//! the gap reaches the target (as `scd train --target-gap` does), check
//! the result, repeat for the phase's budget, and reduce the samples to
//! the common metrics.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{repeat_for, Ctx, Inject, Outcome};
use scd_core::{RidgeProblem, Solver};
use scd_sched::Scheduler;
use std::sync::Arc;
use std::time::Instant;

/// A job that has not reached the target after this many epochs fails.
const MAX_EPOCHS: usize = 400;
/// Jobs per phase at the least, whatever the budget.
const MIN_JOBS: usize = 2;

/// One built solver with the problem and scheduler it runs on.
pub struct Job<S> {
    pub problem: RidgeProblem,
    pub solver: S,
    pub sched: Arc<Scheduler>,
}

/// Everything one phase (untraced or traced) measured.
#[derive(Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub job_s: Vec<f64>,
    /// `Solver::epoch` wall seconds (an epoch, or a distributed round).
    pub epoch_s: Vec<f64>,
    pub gap_s: Vec<f64>,
    /// Epoch plus its gap check.
    pub step_s: Vec<f64>,
    /// The perf model's simulated seconds of each epoch.
    pub sim_s: Vec<f64>,
    pub epochs_to_gap: Vec<usize>,
    pub final_gap: Vec<f64>,
    pub peak_parallelism: usize,
    /// Peak RSS (MiB) through setup and the first job.
    pub first_job_rss_mb: f64,
    pub rows: usize,
    pub nnz: usize,
}

/// How one train workload builds its solver and what it records after a
/// job, beyond the common samples.
pub struct Spec<B, A> {
    /// The span `Solver::epoch` is recorded under.
    pub epoch_span: &'static str,
    /// The target is this share of the gap at the all-zero start.
    pub target_share: f64,
    pub build: B,
    pub after: A,
}

fn one_job<S: Solver>(
    ctx: &Ctx,
    tr: &mut Tracer,
    p: &mut Phase,
    target: &mut Option<f64>,
    out: &mut Outcome,
    spec: &mut Spec<
        impl FnMut(&mut Tracer) -> Result<Job<S>, String>,
        impl FnMut(&mut Tracer, &Job<S>, usize),
    >,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut job = (spec.build)(tr)?;
    p.setup_s.push(t0.elapsed().as_secs_f64());
    p.rows = job.problem.n();
    p.nnz = job.problem.csr().nnz();
    // The target is fixed by the data and not timed.
    let target =
        *target.get_or_insert_with(|| job.solver.duality_gap(&job.problem) * spec.target_share);
    let max_epochs = if ctx.inject == Inject::MissGap {
        1
    } else {
        MAX_EPOCHS
    };

    let start = Instant::now();
    let mut gap = f64::INFINITY;
    let mut epochs = 0;
    while epochs < max_epochs {
        let e0 = Instant::now();
        let stats = tr.span(spec.epoch_span, || job.solver.epoch(&job.problem));
        let e1 = Instant::now();
        gap = tr.span("core.gap", || job.solver.duality_gap(&job.problem));
        let e2 = Instant::now();
        p.epoch_s.push((e1 - e0).as_secs_f64());
        p.gap_s.push((e2 - e1).as_secs_f64());
        p.step_s.push((e2 - e0).as_secs_f64());
        p.sim_s.push(stats.seconds());
        epochs += 1;
        if gap <= target {
            break;
        }
    }
    p.job_s.push(start.elapsed().as_secs_f64());
    if p.job_s.len() == 1 {
        p.first_job_rss_mb = crate::host::peak_rss_mb();
    }
    p.peak_parallelism = p.peak_parallelism.max(job.sched.peak_parallelism());
    p.epochs_to_gap.push(epochs);
    p.final_gap.push(gap);
    let first = (p.epochs_to_gap[0], p.final_gap[0]);
    out.check(check_job(&job.solver.weights(), gap, target, epochs, first));
    (spec.after)(tr, &job, epochs);
    Ok(())
}

fn phase<S: Solver>(
    ctx: &Ctx,
    tr: &mut Tracer,
    target: &mut Option<f64>,
    out: &mut Outcome,
    spec: &mut Spec<
        impl FnMut(&mut Tracer) -> Result<Job<S>, String>,
        impl FnMut(&mut Tracer, &Job<S>, usize),
    >,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut result = Ok(());
    repeat_for(ctx.phase_budget(), MIN_JOBS, || {
        if result.is_ok() {
            result = one_job(ctx, tr, &mut p, target, out, spec);
        }
    });
    result.map(|()| p)
}

/// The output checks of one train-to-gap job: target reached, weights
/// finite, and the same epoch count and bit-identical final gap as the
/// phase's first job (both engines are deterministic).
fn check_job(
    weights: &[f32],
    gap: f64,
    target: f64,
    epochs: usize,
    first: (usize, f64),
) -> Option<String> {
    if gap.is_nan() || gap > target {
        return Some(format!(
            "gap {gap:e} above target {target:e} after {epochs} epochs"
        ));
    }
    if let Some(i) = weights.iter().position(|w| !w.is_finite()) {
        return Some(format!("weight {i} is {}", weights[i]));
    }
    let (first_epochs, first_gap) = first;
    if epochs != first_epochs || gap.to_bits() != first_gap.to_bits() {
        return Some(format!(
            "not reproducible: {epochs} epochs to gap {gap:e}, the first job took {first_epochs} to {first_gap:e}"
        ));
    }
    None
}

/// Run the untraced phase and, for `--trace 1`, the traced one; returns
/// the outcome with every metric both train workloads share, plus the
/// traced phase and its spans for the workload's own layer metrics.
pub fn run<S: Solver>(
    ctx: &Ctx,
    mut spec: Spec<
        impl FnMut(&mut Tracer) -> Result<Job<S>, String>,
        impl FnMut(&mut Tracer, &Job<S>, usize),
    >,
) -> Result<(Outcome, Option<(Phase, Tracer)>), String> {
    let mut out = Outcome::default();
    let mut target = None;
    let base = phase(
        ctx,
        &mut Tracer::new(false),
        &mut target,
        &mut out,
        &mut spec,
    )?;
    let m = &mut out.metrics;
    m.set("setup_s", median(&base.setup_s), "s");
    m.set("job_s", median(&base.job_s), "s");
    m.set(
        "rows_per_s",
        base.rows as f64 / median(&base.epoch_s),
        "1/s",
    );
    m.set("step_p50_ms", median(&base.step_s) * 1e3, "ms");
    m.set("step_p90_ms", percentile(&base.step_s, 90.0) * 1e3, "ms");
    m.set("peak_rss_mb", base.first_job_rss_mb, "MB");
    m.set("time_to_gap_s", median(&base.job_s), "s");
    m.set("epochs_to_gap", base.epochs_to_gap[0] as f64, "count");
    m.set("jobs", base.job_s.len() as f64, "count");
    m.set("final_gap", base.final_gap[0], "gap");
    m.set("target_gap", target.unwrap_or(0.0), "gap");
    if !ctx.traced {
        return Ok((out, None));
    }

    let mut tr = Tracer::new(true);
    let traced = phase(ctx, &mut tr, &mut target, &mut out, &mut spec)?;
    if (traced.epochs_to_gap[0], traced.final_gap[0].to_bits())
        != (base.epochs_to_gap[0], base.final_gap[0].to_bits())
    {
        out.check(Some(format!(
            "the traced run diverged: {} epochs to gap {:e}, untraced {} to {:e}",
            traced.epochs_to_gap[0], traced.final_gap[0], base.epochs_to_gap[0], base.final_gap[0]
        )));
    }
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_pct",
        (median(&traced.step_s) / median(&base.step_s) - 1.0) * 100.0,
        "%",
    );
    let epoch = median(&tr.self_seconds(spec.epoch_span));
    let bytes = epoch_bytes(traced.rows, traced.nnz);
    m.set("sparse.epoch_bytes", bytes, "bytes");
    m.set("sparse.epoch_gbps", bytes / epoch / 1e9, "GB/s");
    m.set(
        "core.problem_s",
        median(&tr.self_seconds("core.problem")),
        "s",
    );
    m.timing("core.gap", &tr.self_seconds("core.gap"), 90);
    let gap_total: f64 = traced.gap_s.iter().sum();
    m.set(
        "core.gap_share",
        gap_total / traced.job_s.iter().sum::<f64>(),
        "ratio",
    );
    m.set(
        "core.epochs_to_gap",
        traced.epochs_to_gap[0] as f64,
        "count",
    );
    m.set("core.time_to_gap_s", median(&traced.job_s), "s");
    m.set(
        "sched.peak_parallelism",
        traced.peak_parallelism as f64,
        "threads",
    );
    Ok((out, Some((traced, tr))))
}

/// CSR bytes one pass over the data streams, computed from the shape:
/// 4-byte index plus 4-byte value per nonzero, 8-byte offset per row.
fn epoch_bytes(rows: usize, nnz: usize) -> f64 {
    (nnz * 8 + (rows + 1) * 8) as f64
}
