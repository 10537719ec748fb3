//! Input generation. Runs in a child process (`perfbench gen ...`) so
//! that nothing the generator allocates reaches the measured process's
//! peak RSS; every input is streamed to disk row by row.

use crate::Workload;
use scd_core::{Form, ObjectiveKind, TrainedModel};
use scd_datasets::rowgen::hash_normal;
use scd_datasets::{CriteoSpec, WebspamStreamSpec};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Problem sizes of every workload. `full` is the benchmark; `tiny` is
/// the smoke-test shape (same code paths, seconds instead of minutes).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// train-syscd: ridge λ, LIBSVM rows, feature width, average nnz per row.
    pub syscd_lambda: f64,
    pub syscd_rows: usize,
    pub syscd_cols: usize,
    pub syscd_nnz: usize,
    /// train-dist-tpa: ridge λ, criteo-like rows, fields (nnz per row),
    /// values per field, rows per chunk file.
    pub dist_lambda: f64,
    pub dist_rows: usize,
    pub dist_fields: usize,
    pub dist_cardinality: usize,
    pub dist_chunk_rows: usize,
    /// serve-swap: model width, requests per script, average nnz per row.
    pub serve_features: usize,
    pub serve_requests: usize,
    pub serve_nnz: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        // Below the paper's 1e-3, so that the target takes over 30 epochs.
        syscd_lambda: 1e-4,
        syscd_rows: 100_000,
        syscd_cols: 100_000,
        syscd_nnz: 50,
        // Small enough that the gap falls steadily for ~30 rounds; the fp16
        // deltas floor the gap near 1e-4 of its start, far below the target.
        dist_lambda: 5e-6,
        dist_rows: 300_000,
        dist_fields: 8,
        dist_cardinality: 4096,
        dist_chunk_rows: 32_768,
        serve_features: 1 << 18,
        serve_requests: 20_000,
        serve_nnz: 16,
    };

    pub const TINY: Sizes = Sizes {
        syscd_lambda: 1e-3,
        syscd_rows: 5_000,
        syscd_cols: 1_000,
        syscd_nnz: 20,
        dist_lambda: 1e-3,
        dist_rows: 4_000,
        dist_fields: 6,
        dist_cardinality: 64,
        dist_chunk_rows: 1_024,
        serve_features: 1 << 12,
        serve_requests: 400,
        serve_nnz: 8,
    };

    pub fn named(name: &str) -> Option<Sizes> {
        match name {
            "full" => Some(Sizes::FULL),
            "tiny" => Some(Sizes::TINY),
            _ => None,
        }
    }
}

/// Rows per batch-class request; every fourth request is one.
pub const BATCH_ROWS: usize = 64;

/// Request `i` of the script is a 64-row batch (else a single row).
pub fn is_batch(i: usize) -> bool {
    i % 4 == 3
}

pub const LIBSVM_FILE: &str = "train.libsvm";
pub const SHARD_DIR: &str = "shards";
pub const MODEL_FILE: &str = "model.txt";
pub const SCRIPT_FILE: &str = "requests.jsonl";

const TAG_MODEL: u64 = 0x50_42_4D_4F_44_45_4C_30; // "PBMODEL0"

/// Write the inputs of `workload` under `dir`; returns the bytes written.
pub fn generate(workload: Workload, sizes: &Sizes, seed: u64, dir: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    match workload {
        Workload::TrainSyscd => write_libsvm(sizes, seed, &dir.join(LIBSVM_FILE)),
        Workload::TrainDistTpa => {
            let spec = CriteoSpec::new(
                sizes.dist_rows,
                sizes.dist_fields,
                sizes.dist_cardinality,
                seed,
            );
            let summary =
                scd_store::write_criteo(&dir.join(SHARD_DIR), &spec, sizes.dist_chunk_rows)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(summary.disk_bytes)
        }
        Workload::ServeSwap => {
            let model = write_model(sizes, seed, &dir.join(MODEL_FILE))?;
            let script = write_script(sizes, seed, &dir.join(SCRIPT_FILE))?;
            Ok(model + script)
        }
    }
}

/// The webspam-like LIBSVM file, written by two threads (one half of the
/// rows each) and concatenated.
fn write_libsvm(sizes: &Sizes, seed: u64, path: &Path) -> std::io::Result<u64> {
    let spec = WebspamStreamSpec::new(sizes.syscd_rows, sizes.syscd_cols, sizes.syscd_nnz, seed);
    let half = sizes.syscd_rows / 2;
    let tail = path.with_extension("part1");
    std::thread::scope(|s| {
        let second = s.spawn(|| write_libsvm_rows(&spec, half..spec.rows, &tail));
        write_libsvm_rows(&spec, 0..half, path)?;
        second.join().expect("generator thread panicked")
    })?;
    let mut out = std::fs::OpenOptions::new().append(true).open(path)?;
    std::io::copy(&mut File::open(&tail)?, &mut out)?;
    out.sync_all()?;
    std::fs::remove_file(&tail)?;
    Ok(std::fs::metadata(path)?.len())
}

fn write_libsvm_rows(
    spec: &WebspamStreamSpec,
    rows: std::ops::Range<usize>,
    path: &Path,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let (mut idx, mut val) = (Vec::new(), Vec::new());
    for r in rows {
        let label = spec.row(r, &mut idx, &mut val);
        write!(out, "{label}")?;
        for (&i, &v) in idx.iter().zip(&val) {
            write!(out, " {}:{v}", i + 1)?;
        }
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// The β every serve-swap model variant derives from: dense N(0, 0.1²).
fn model_weight(seed: u64, j: usize) -> f32 {
    (0.1 * hash_normal(seed, TAG_MODEL, j as u64, 0)) as f32
}

fn write_model(sizes: &Sizes, seed: u64, path: &Path) -> std::io::Result<u64> {
    let model = TrainedModel {
        objective: ObjectiveKind::Svm,
        form: Form::Dual,
        lambda: 1e-3,
        beta: (0..sizes.serve_features)
            .map(|j| model_weight(seed, j))
            .collect(),
    };
    let mut out = BufWriter::new(File::create(path)?);
    model.save(&mut out)?;
    out.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// The JSON-lines request script: three single-row `score` requests for
/// every 64-row one, rows drawn from a webspam-shaped stream over the
/// model's feature space.
fn write_script(sizes: &Sizes, seed: u64, path: &Path) -> std::io::Result<u64> {
    // A stream of its own (seed ^ 0x5E), independent of the model's β.
    let spec = WebspamStreamSpec::new(
        sizes.serve_requests * BATCH_ROWS,
        sizes.serve_features,
        sizes.serve_nnz,
        seed ^ 0x5E,
    );
    let mut out = BufWriter::new(File::create(path)?);
    let (mut idx, mut val) = (Vec::new(), Vec::new());
    let mut row = 0usize;
    for i in 0..sizes.serve_requests {
        let n = if is_batch(i) { BATCH_ROWS } else { 1 };
        out.write_all(b"{\"op\":\"score\",\"rows\":[")?;
        for r in 0..n {
            spec.row(row, &mut idx, &mut val);
            row += 1;
            if r > 0 {
                out.write_all(b",")?;
            }
            out.write_all(b"[")?;
            for (k, (&i, &v)) in idx.iter().zip(&val).enumerate() {
                let sep = if k > 0 { "," } else { "" };
                write!(out, "{sep}[{i},{v}]")?;
            }
            out.write_all(b"]")?;
        }
        out.write_all(b"]}\n")?;
    }
    out.flush()?;
    Ok(std::fs::metadata(path)?.len())
}
