//! `train-syscd`: SySCD, dual ridge, H = 2 replicas on an explicit
//! 2-thread scheduler, trained from a LIBSVM file to a gap target.

use crate::gen::LIBSVM_FILE;
use crate::stats::median;
use crate::trace::Tracer;
use crate::train::{Job, Spec};
use crate::{Ctx, Outcome};
use scd_core::{Form, RidgeProblem, SequentialScd, Solver, SyscdScd};
use scd_sched::Scheduler;
use scd_sparse::io::read_libsvm;
use std::fs::File;
use std::sync::Arc;

/// The target: this share of the gap at α = 0 (about 34 epochs).
const TARGET_SHARE: f64 = 1e-3;
const THREADS: usize = 2;
/// Single-thread baseline epochs after each traced job.
const SEQ_EPOCHS: usize = 3;

/// Setup as `scd train --backend syscd` does it: parse, build the
/// problem, build the engine.
fn build(ctx: &Ctx, tr: &mut Tracer) -> Result<Job<SyscdScd>, String> {
    let path = ctx.dir.join(LIBSVM_FILE);
    let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let data = tr
        .span("sparse.parse", || {
            read_libsvm(file, Some(ctx.sizes.syscd_cols))
        })
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let problem = tr
        .span("core.problem", || {
            RidgeProblem::from_labelled(&data, ctx.sizes.syscd_lambda)
        })
        .map_err(|e| e.to_string())?;
    drop(data);
    let sched = Scheduler::new(THREADS);
    let solver = tr.span("core.solver_build", || {
        SyscdScd::new(&problem, Form::Dual, THREADS, ctx.seed).with_scheduler(Arc::clone(&sched))
    });
    Ok(Job {
        problem,
        solver,
        sched,
    })
}

/// The single-thread baseline on the same problem, traced runs only.
fn sequential_baseline(ctx: &Ctx, tr: &mut Tracer, job: &Job<SyscdScd>) {
    if tr.enabled() {
        let mut seq = SequentialScd::dual(&job.problem, ctx.seed);
        for _ in 0..SEQ_EPOCHS {
            tr.span("core.seq_epoch", || seq.epoch(&job.problem));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = Spec {
        epoch_span: "core.epoch",
        target_share: TARGET_SHARE,
        build: |tr: &mut Tracer| build(ctx, tr),
        after: |tr: &mut Tracer, job: &Job<SyscdScd>, _| sequential_baseline(ctx, tr, job),
    };
    let (mut out, traced) = crate::train::run(ctx, spec)?;
    let Some((_, tr)) = traced else {
        return Ok(out);
    };
    let m = &mut out.metrics;
    m.set(
        "sparse.parse_s",
        median(&tr.self_seconds("sparse.parse")),
        "s",
    );
    m.set(
        "core.solver_build_s",
        median(&tr.self_seconds("core.solver_build")),
        "s",
    );
    let epochs = tr.self_seconds("core.epoch");
    m.timing("core.epoch", &epochs, 90);
    let seq = median(&tr.self_seconds("core.seq_epoch"));
    m.set("core.seq_epoch_p50_ms", seq * 1e3, "ms");
    m.set("core.speedup_vs_seq", seq / median(&epochs), "x");
    tr.write_jsonl(&ctx.trace_path)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    Ok(out)
}
