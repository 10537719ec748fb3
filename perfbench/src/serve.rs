//! `serve-swap`: one closed-loop client sends the pre-generated `score`
//! script through `scd_serve::respond` — the JSON-lines session is one
//! sequential pipe whose caller waits for each reply — against a wide SVM
//! model read with `TrainedModel::load`, held in a `ModelSlot` and scored
//! on a 2-thread `BatchScorer`, with a `ModelSlot::publish` hot swap every
//! 50 requests.

use crate::gen::{is_batch, MODEL_FILE, SCRIPT_FILE};
use crate::stats::{median, percentile, Metrics};
use crate::trace::Tracer;
use crate::{repeat_for, Ctx, Inject, Outcome};
use scd_core::TrainedModel;
use scd_datasets::rowgen::splitmix64;
use scd_sched::Scheduler;
use scd_serve::json::Json;
use scd_serve::{batch_from_pairs, prediction, respond, BatchScorer, ModelSlot};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::time::Instant;

/// A hot swap is published before every 50th request.
const SWAP_EVERY: usize = 50;
/// Setups per session (see `session`).
const SETUP_REPS: usize = 5;
/// A session is timed in blocks of this many consecutive requests. Every
/// block holds the same work: 75 single-row and 25 64-row requests (the
/// class mix repeats every 4) and 2 swaps (one every `SWAP_EVERY`). The
/// gated timings come from the run's fastest block: a busy neighbour on
/// the shared host slows whole stretches of seconds by up to 70%, a
/// regression of the program slows every block.
const BLOCK: usize = 100;
/// Distinct β variants the swaps cycle through.
const VARIANTS: usize = 4;
const THREADS: usize = 2;

/// Variant `k` of the model: β with a seeded sign pattern flipped
/// (variant 0 is the file's β). Distinct variants give distinct
/// decisions, so a response checked against the wrong one fails.
fn variants(beta: &[f32]) -> Vec<Vec<f32>> {
    (0..VARIANTS as u64)
        .map(|k| {
            beta.iter()
                .enumerate()
                .map(|(j, &b)| {
                    if k > 0 && splitmix64(k << 32 | j as u64) & 1 == 1 {
                        -b
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    session_s: Vec<f64>,
    /// Per-request `respond` latency, by class.
    small_s: Vec<f64>,
    batch_s: Vec<f64>,
    publish_s: Vec<f64>,
    /// Wall seconds, rows scored and p50 `respond` latency of each block
    /// of `BLOCK` consecutive requests.
    block_s: Vec<f64>,
    block_rows: Vec<u64>,
    block_step_p50_s: Vec<f64>,
    reader_retries: u64,
    /// Peak RSS (MiB) through setup and the first session.
    first_session_rss_mb: f64,
}

/// A parsed request: its rows as sparse pair lists.
fn request_rows(req: &Json) -> Option<Vec<Vec<(u32, f32)>>> {
    req.get("rows")?
        .as_arr()?
        .iter()
        .map(|row| {
            row.as_arr()?
                .iter()
                .map(|pair| match pair.as_arr()? {
                    [i, v] => Some((i.as_f64()? as u32, v.as_f64()? as f32)),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// The output check of one response: `ok`, and every decision and
/// prediction recomputed against the β published under its `model_seq`.
fn check_response(
    request: &str,
    response: &str,
    seq_variant: &[usize],
    betas: &[Vec<f32>],
) -> Option<String> {
    let fail = |why: &str| Some(format!("{why}: {}", &response[..response.len().min(120)]));
    let resp = match Json::parse(response) {
        Ok(r) => r,
        Err(_) => return fail("unparseable response"),
    };
    if resp.get("ok") != Some(&Json::Bool(true)) {
        return fail("request refused");
    }
    let Some(&variant) = resp
        .get("model_seq")
        .and_then(Json::as_f64)
        .and_then(|s| seq_variant.get(s as usize))
    else {
        return fail("unknown model_seq");
    };
    let beta = &betas[variant];
    let rows = Json::parse(request)
        .ok()
        .as_ref()
        .and_then(request_rows)
        .unwrap_or_default();
    let field = |name| {
        resp.get(name)
            .and_then(Json::as_arr)
            .map(|a| a.iter().map(Json::as_f64).collect::<Vec<_>>())
    };
    let (Some(decisions), Some(predictions)) = (field("decisions"), field("predictions")) else {
        return fail("response lacks decisions or predictions");
    };
    if decisions.len() != rows.len() || predictions.len() != rows.len() {
        return fail("wrong number of decisions");
    }
    for ((row, d), p) in rows.iter().zip(decisions).zip(predictions) {
        let want: f64 = row
            .iter()
            .map(|&(i, v)| beta[i as usize] as f64 * v as f64)
            .sum();
        let want = want as f32;
        let (Some(d), Some(p)) = (d, p) else {
            return fail("non-numeric decision");
        };
        if (d as f32 - want).abs() > 1e-5 * (1.0 + want.abs()) {
            return fail(&format!("decision {d} != recomputed {want}"));
        }
        if p as f32 != prediction(scd_core::ObjectiveKind::Svm, want) {
            return fail(&format!("prediction {p} does not match decision {want}"));
        }
    }
    None
}

/// Setup as `scd serve --model` does it: load the model, start the
/// scorer's scheduler, publish the model into a fresh slot.
fn setup(
    path: &std::path::Path,
    tr: &mut Tracer,
) -> Result<(TrainedModel, BatchScorer, ModelSlot, u64), String> {
    let model = tr.span("serve.model_load", || {
        File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|f| TrainedModel::load(f).map_err(|e| e.to_string()))
    })?;
    let scorer = BatchScorer::new(Scheduler::new(THREADS));
    let slot = ModelSlot::new(model.features());
    let seq = slot.publish(model.objective, model.lambda, &model.beta);
    Ok((model, scorer, slot, seq))
}

/// One session: set up, answer the whole script, then check every
/// response against the script on disk.
fn session(
    ctx: &Ctx,
    tr: &mut Tracer,
    p: &mut Phase,
    betas: &mut Vec<Vec<f32>>,
    responses: &mut Vec<String>,
    latencies: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let model_path = ctx.dir.join(MODEL_FILE);
    let script_path = ctx.dir.join(SCRIPT_FILE);
    let open_script = || {
        File::open(&script_path)
            .map(BufReader::new)
            .map_err(|e| format!("cannot open {}: {e}", script_path.display()))
    };
    // Set up several times and keep the last: one setup is tens of
    // milliseconds, too short for one sample to be steady.
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let b = setup(&model_path, tr)
            .map_err(|e| format!("cannot load {}: {e}", model_path.display()))?;
        p.setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (model, scorer, slot, first_seq) = built.expect("SETUP_REPS >= 1");
    if betas.is_empty() {
        *betas = variants(&model.beta);
    }
    // seq_variant[seq] = the variant publication `seq` carried.
    let mut seq_variant = vec![usize::MAX; first_seq as usize + 1];
    seq_variant[first_seq as usize] = 0;

    let start = Instant::now();
    let (mut block_start, mut block_rows) = (start, 0);
    responses.clear();
    latencies.clear();
    for (i, line) in open_script()?.lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read {}: {e}", script_path.display()))?;
        if i > 0 && i % SWAP_EVERY == 0 {
            let variant = (i / SWAP_EVERY) % VARIANTS;
            let s0 = Instant::now();
            let seq = tr.span("serve.publish", || {
                slot.publish(model.objective, model.lambda, &betas[variant])
            });
            p.publish_s.push(s0.elapsed().as_secs_f64());
            seq_variant.resize(seq as usize + 1, usize::MAX);
            seq_variant[seq as usize] = variant;
        }
        let batch = is_batch(i);
        tr.enter(if batch {
            "serve.request_batch"
        } else {
            "serve.request_small"
        });
        let r0 = Instant::now();
        let response = tr.span("serve.respond", || respond(&line, &slot, &scorer));
        let latency = r0.elapsed().as_secs_f64();
        if tr.enabled() {
            replay_layers(tr, &line, &slot, &scorer);
        }
        tr.exit();
        if batch {
            &mut p.batch_s
        } else {
            &mut p.small_s
        }
        .push(latency);
        latencies.push(latency);
        block_rows += response.scored_rows;
        responses.push(response.line);
        if (i + 1) % BLOCK == 0 {
            let now = Instant::now();
            p.block_s.push((now - block_start).as_secs_f64());
            p.block_rows.push(block_rows);
            (block_start, block_rows) = (now, 0);
        }
    }
    p.session_s.push(start.elapsed().as_secs_f64());
    p.block_step_p50_s
        .extend(latencies.chunks_exact(BLOCK).map(median));
    if p.session_s.len() == 1 {
        p.first_session_rss_mb = crate::host::peak_rss_mb();
    }
    p.reader_retries += slot.reader_retries();

    if ctx.inject == Inject::TamperDecision && p.session_s.len() == 1 && !tr.enabled() {
        tamper(responses);
    }
    for (request, response) in open_script()?.lines().zip(responses.iter()) {
        let request = request.map_err(|e| format!("cannot read {}: {e}", script_path.display()))?;
        out.check(check_response(&request, response, &seq_variant, betas));
    }
    Ok(())
}

fn phase(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<Phase, String> {
    let mut p = Phase::default();
    let mut betas = Vec::new();
    let mut responses = Vec::with_capacity(ctx.sizes.serve_requests);
    let mut latencies = Vec::with_capacity(ctx.sizes.serve_requests);
    let mut result = Ok(());
    repeat_for(ctx.phase_budget(), 1, || {
        if result.is_ok() {
            result = session(
                ctx,
                tr,
                &mut p,
                &mut betas,
                &mut responses,
                &mut latencies,
                out,
            );
        }
    });
    result.map(|()| p)
}

/// Time the layers `respond` is made of, one public call each, on the
/// request just answered. Their sum subtracted from the `respond` span
/// leaves row extraction and response formatting.
fn replay_layers(tr: &mut Tracer, line: &str, slot: &ModelSlot, scorer: &BatchScorer) {
    let Ok(req) = tr.span("serve.json_parse", || Json::parse(line)) else {
        return;
    };
    let Some(rows) = request_rows(&req) else {
        return;
    };
    let Some(snap) = tr.span("serve.slot_read", || slot.read()) else {
        return;
    };
    let Ok(batch) = tr.span("serve.batch_build", || {
        batch_from_pairs(&rows, snap.beta.len())
    }) else {
        return;
    };
    let scored = tr.span("serve.score", || {
        scorer.score(&batch, snap.objective, &snap.beta)
    });
    std::hint::black_box(scored.ok());
}

/// Replace the first decision of the first response (smoke test only).
fn tamper(responses: &mut [String]) {
    let Some(r) = responses.first_mut() else {
        return;
    };
    let Some(at) = r
        .find("\"decisions\":[")
        .map(|i| i + "\"decisions\":[".len())
    else {
        return;
    };
    let end = at + r[at..].find([',', ']']).unwrap_or(0);
    r.replace_range(at..end, "12345");
}

/// Per-class p50/p99 of one replayed layer, in ms.
fn layer_by_class(m: &mut Metrics, layer: &str, small: &[f64], batch: &[f64]) {
    for (class, s) in [("small", small), ("batch", batch)] {
        m.set(
            format!("serve.{layer}_{class}_p50_ms"),
            median(s) * 1e3,
            "ms",
        );
        m.set(
            format!("serve.{layer}_{class}_p99_ms"),
            percentile(s, 99.0) * 1e3,
            "ms",
        );
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = phase(ctx, &mut Tracer::new(false), &mut out)?;
    let all: Vec<f64> = base.small_s.iter().chain(&base.batch_s).copied().collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&base.setup_s), "s");
    m.set("job_s", percentile(&base.block_s, 0.0), "s");
    let block_rate: Vec<f64> = base
        .block_rows
        .iter()
        .zip(&base.block_s)
        .map(|(&r, &s)| r as f64 / s)
        .collect();
    m.set("rows_per_s", percentile(&block_rate, 100.0), "1/s");
    m.set(
        "step_p50_ms",
        percentile(&base.block_step_p50_s, 0.0) * 1e3,
        "ms",
    );
    m.set("median_job_s", median(&base.block_s), "s");
    m.set("median_rows_per_s", median(&block_rate), "1/s");
    m.set(
        "median_step_p50_ms",
        median(&base.block_step_p50_s) * 1e3,
        "ms",
    );
    m.set("session_s", median(&base.session_s), "s");
    m.set("step_p90_ms", percentile(&all, 90.0) * 1e3, "ms");
    m.set("peak_rss_mb", base.first_session_rss_mb, "MB");
    m.timing("small", &base.small_s, 99);
    m.timing("batch", &base.batch_s, 99);
    m.set("sessions", base.session_s.len() as f64, "count");
    m.set("swaps", base.publish_s.len() as f64, "count");
    if !ctx.traced {
        return Ok(out);
    }

    let mut tr = Tracer::new(true);
    let traced = phase(ctx, &mut tr, &mut out)?;
    let m = &mut out.metrics;
    let traced_all: Vec<f64> = traced
        .small_s
        .iter()
        .chain(&traced.batch_s)
        .copied()
        .collect();
    m.set(
        "trace.overhead_pct",
        (median(&traced_all) / median(&all) - 1.0) * 100.0,
        "%",
    );
    m.set(
        "serve.model_load_s",
        median(&tr.self_seconds("serve.model_load")),
        "s",
    );
    m.timing("serve.small", &traced.small_s, 99);
    m.timing("serve.batch", &traced.batch_s, 99);
    // Layer samples in request order; the class of each sample follows
    // the request it was replayed on.
    let requests = ctx.sizes.serve_requests;
    let split = |samples: Vec<f64>| -> (Vec<f64>, Vec<f64>) {
        let (mut small, mut batch) = (Vec::new(), Vec::new());
        for (i, s) in samples.into_iter().enumerate() {
            if is_batch(i % requests) {
                &mut batch
            } else {
                &mut small
            }
            .push(s);
        }
        (small, batch)
    };
    let mut rest = split(tr.self_seconds("serve.respond"));
    for layer in ["json_parse", "slot_read", "batch_build", "score"] {
        let (small, batch) = split(tr.self_seconds(&format!("serve.{layer}")));
        for (r, l) in rest
            .0
            .iter_mut()
            .zip(&small)
            .chain(rest.1.iter_mut().zip(&batch))
        {
            *r -= l;
        }
        layer_by_class(m, layer, &small, &batch);
    }
    layer_by_class(m, "respond_rest", &rest.0, &rest.1);
    m.timing("serve.publish", &traced.publish_s, 99);
    m.set(
        "serve.reader_retries",
        traced.reader_retries as f64,
        "count",
    );
    tr.write_jsonl(&ctx.trace_path)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    Ok(out)
}
