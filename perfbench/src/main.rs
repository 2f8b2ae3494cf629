//! `rjbench`: the benchmark's worker binary.
//!
//! ```text
//! rjbench gen    --workload <name> --seed <n> --out <dir> [--repeat <n>]
//! rjbench detect --workload <name> --input <stem> --work <dir> [--trace]
//! ```
//!
//! `gen` writes the workload's inputs (`<dir>/input-<i>.rjg` with their
//! `.truth` files) and prints one JSON line with the set-up time of every
//! repeat, whether detection is to run on a single CPU, and each input's
//! seed, stem and `.rjg` CRC32; repeats must produce byte-identical inputs. `detect` runs one ingest →
//! detect → report in this process and prints one JSON line with its layer
//! times, peak RSS, report digest and score; `--trace` attaches an `Obs`
//! and appends its metrics document. `run.py` turns these lines into the
//! benchmark's metrics.

use rejecto_core::store::crc32;
use rejecto_core::Completion;
use rejecto_obs::Obs;
use rjbench::{BenchError, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rjbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` lookup; `--trace` is the only bare flag.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, BenchError> {
    flag(args, name).ok_or_else(|| BenchError(format!("missing {name}")))
}

fn workload_arg(args: &[String]) -> Result<&'static Workload, BenchError> {
    let name = required(args, "--workload")?;
    rjbench::workload(name).ok_or_else(|| BenchError(format!("unknown workload {name:?}")))
}

fn run(args: &[String]) -> Result<String, BenchError> {
    match args.first().map(String::as_str) {
        Some("gen") => gen(args),
        Some("detect") => detect(args),
        _ => Err(BenchError(
            "usage: rjbench gen|detect --workload <name> ...".to_string(),
        )),
    }
}

fn gen(args: &[String]) -> Result<String, BenchError> {
    let w = workload_arg(args)?;
    let seed: u64 = required(args, "--seed")?
        .parse()
        .map_err(|_| BenchError("--seed must be a whole number".to_string()))?;
    let dir = PathBuf::from(required(args, "--out")?);
    let repeat: usize = flag(args, "--repeat")
        .unwrap_or("1")
        .parse()
        .unwrap_or(0)
        .max(1);
    let seeds = w.instance_seeds(seed);
    std::fs::create_dir_all(&dir)
        .map_err(|e| BenchError(format!("creating {}: {e}", dir.display())))?;

    // Each repeat regenerates every input; the set-up time of a repeat is
    // the sum over its inputs.
    let mut setup_s = Vec::with_capacity(repeat);
    let mut inputs: Vec<rjbench::Input> = Vec::with_capacity(seeds.len());
    for r in 0..repeat {
        let mut total = 0.0;
        for (i, &s) in seeds.iter().enumerate() {
            let (input, took) = rjbench::generate_to(w, s, &instance_stem(&dir, i))?;
            total += took.as_secs_f64();
            if r == 0 {
                inputs.push(input);
            } else if inputs[i].rjg != input.rjg {
                return Err(BenchError(format!(
                    "seed {s} generated two different inputs for {}",
                    w.name
                )));
            }
        }
        setup_s.push(total);
    }
    let mut described = Vec::with_capacity(inputs.len());
    for (i, (input, &s)) in inputs.iter().zip(&seeds).enumerate() {
        rjbench::write_truth(&instance_stem(&dir, i), &input.fakes)?;
        described.push(serde_json::json!({
            "seed": s.to_string(),
            "input": instance_stem(&dir, i).display().to_string(),
            "rjg_crc32": format!("{:08x}", crc32(&input.rjg)),
            "nodes": input.nodes,
            "friendships": input.friendships,
            "rejections": input.rejections,
        }));
    }
    Ok(serde_json::json!({
        "setup_s": setup_s,
        "single_cpu": w.single_cpu(),
        "instances": described,
    })
    .to_string())
}

/// Where input `i` of a generated workload lives.
fn instance_stem(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("input-{i}"))
}

fn detect(args: &[String]) -> Result<String, BenchError> {
    let w = workload_arg(args)?;
    let stem = PathBuf::from(required(args, "--input")?);
    let work = PathBuf::from(required(args, "--work")?);
    let trace = args.iter().any(|a| a == "--trace");

    // A fresh checkpoint directory per run: generations left by an earlier
    // run would change what the store prunes and writes.
    let ckpt_dir = work.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| BenchError(format!("creating {}: {e}", ckpt_dir.display())))?;

    let obs = trace.then(Obs::new);
    let outcome = rjbench::run_detection(
        w,
        &stem.with_extension("rjg"),
        &work.join("report.jsonl"),
        &ckpt_dir.join("detect.ckpt"),
        obs.as_ref(),
    )?;
    // Everything below is outside the timed region.
    let peak_rss_mb = rjbench::peak_rss_mb()
        .ok_or_else(|| BenchError("no VmHWM in /proc/self/status".to_string()))?;
    let fakes = rjbench::read_truth(&stem)?;
    let (precision, recall) = rjbench::score(&outcome, &fakes, w.budget());
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let io = outcome.io.map(|io| {
        serde_json::json!({
            "fetch_batches": io.fetch_batches,
            "nodes_fetched": io.nodes_fetched,
            "buffer_hits": io.buffer_hits,
            "buffer_misses": io.buffer_misses,
            "worker_restarts": io.worker_restarts,
        })
    });
    let t = outcome.times;
    let line = serde_json::json!({
        "wall_s": t.wall.as_secs_f64(),
        "read_s": t.read.as_secs_f64(),
        "save_s": t.save.as_secs_f64(),
        "render_s": t.render.as_secs_f64(),
        "read_bytes": outcome.read_bytes,
        "saves": outcome.saves,
        "peak_rss_mb": peak_rss_mb,
        "digest": rjbench::digest(&outcome.rendered),
        "precision": precision,
        "recall": recall,
        "complete": outcome.report.completion == Completion::Complete,
        "failures": outcome.report.failures.len(),
        "sweep_threads": w.sweep_threads(),
        "groups": outcome.report.groups.len(),
        "friendships": outcome.graph.num_friendships(),
        "rejections": outcome.graph.num_rejections(),
        "io": io,
    })
    .to_string();
    // The metrics document is spliced in verbatim: it is already JSON.
    Ok(match obs {
        Some(obs) => match line.strip_suffix('}') {
            Some(head) => format!("{head},\"obs\":{}}}", obs.to_json()),
            None => line,
        },
        None => line,
    })
}
