//! The repository benchmark: end-to-end and per-layer performance of the
//! cloud-bursting runtime on three workloads. See `perfbench/README.md`.
//!
//! ```text
//! cloudburst-perfbench --workload <wc-local|kmeans-burst|wc-tcp>
//!                      --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times untraced samples and prints the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced samples and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it records the host and the sample counts. Any wrong result
//! makes the exit code non-zero.

mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{LayerSample, Sample, Tracer, Workload};

/// Every end-to-end metric, with its unit, in the order printed.
const END_TO_END: &[(&str, &str)] = &[
    ("time_to_result_s", "s"),
    ("time_to_result_tail_s", "s"),
    ("throughput_mb_s", "MB/s"),
    ("first_pass_s", "s"),
    ("warm_pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Untraced samples needed for a tail with ten samples beyond it.
const MIN_SAMPLES: usize = stats::TAIL_BEYOND + 1;
/// Traced (and, in a traced run, untraced) samples needed at least.
const MIN_TRACED: usize = 3;
/// Single-thread `run_sequential` repetitions behind `apps.seq_mb_s`.
const SEQUENTIAL_REPS: usize = 3;
/// Sampling stops here even if too few samples completed, so a run that
/// has slowed badly still ends well inside its time limit.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Outcome counts over every sample run after set-up.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn note(&mut self, s: &Sample) {
        self.attempted += 1;
        if let Some(e) = &s.error {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let (wl, setup_times) = workloads::setup(&args.workload, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();

    // One untimed, checked sample first: lazy set-up (thread stacks,
    // allocator arenas, socket buffers) finishes before any timing.
    let warm = wl.sample(None);
    tally.note(&warm);

    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let tracer = args.trace.then(Tracer::new);
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed();
        let enough = match &tracer {
            None => untraced.len() >= MIN_SAMPLES,
            Some(_) => untraced.len() >= MIN_TRACED && traced.len() >= MIN_TRACED,
        };
        if (elapsed >= budget && enough) || elapsed >= HARD_STOP {
            break;
        }
        // A traced run alternates, so drift hits both kinds alike.
        let trace_this = tracer.is_some() && traced.len() < untraced.len();
        let s = wl.sample(if trace_this { tracer.as_ref() } else { None });
        tally.note(&s);
        if trace_this {
            traced.push(s);
        } else {
            untraced.push(s);
        }
    }
    // Failed samples count in `tally` and are left out of every timing.
    untraced.retain(|s| s.error.is_none());
    traced.retain(|s| s.error.is_none());

    let ttr: Vec<f64> = untraced.iter().map(|s| s.ttr_s).collect();
    let tail = stats::tail(&ttr);
    let metrics: Vec<(&str, &str, f64)> = match &tracer {
        None => end_to_end(wl.as_ref(), &untraced, &setup_times, tail),
        Some(tr) => {
            let seq: Vec<f64> = (0..SEQUENTIAL_REPS)
                .map(|_| wl.sequential_pass_s())
                .collect();
            let traced_ttr: Vec<f64> = traced.iter().map(|s| s.ttr_s).collect();
            let layer_samples: Vec<LayerSample> =
                traced.iter_mut().filter_map(|s| s.layer.take()).collect();
            write_trace(args, tr, &layer_samples)?;
            layers::per_layer(
                &layer_samples,
                &layers::RunLevel {
                    untraced_ttr_s: stats::median(&ttr),
                    traced_ttr_s: stats::median(&traced_ttr),
                    sequential_pass_s: stats::median(&seq),
                    input_mb: wl.input_mb(),
                    passes: wl.passes(),
                },
            )
        }
    };

    let correct = tally.failed == 0;
    let mut info = String::from("{\"info\":{");
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("rustc", json_str(&host::rustc_version())),
        ("git_commit", json_str(&host::git_commit())),
        ("clusters", workloads::CLUSTERS.to_string()),
        (
            "slave_cores",
            (workloads::CLUSTERS * workloads::CORES_PER_CLUSTER).to_string(),
        ),
        ("setup_reps", setup_times.len().to_string()),
        ("warmup_samples", "1".into()),
        ("untraced_samples", untraced.len().to_string()),
        ("traced_samples", traced.len().to_string()),
        (
            "tail_percentile",
            tail.map_or("null".into(), |(p, _)| json_num(p)),
        ),
        ("passes_per_sample", wl.passes().to_string()),
        ("input_mb_per_pass", json_num(wl.input_mb())),
        (
            "failed_share",
            json_num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "first_error",
            tally.first_error.as_deref().map_or("null".into(), json_str),
        ),
        ("computed_metrics", "[\"runtime.sync_s\"]".into()),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(info, "{sep}{}:{v}", json_str(k));
    }
    info.push_str("}}");
    println!("{info}");

    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    line.push_str("}}");
    println!("{line}");

    if let Some(e) = &tally.first_error {
        eprintln!(
            "perfbench: {} of {} sample(s) failed; first: {e}",
            tally.failed, tally.attempted
        );
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn end_to_end(
    wl: &dyn Workload,
    samples: &[Sample],
    setup_times: &[f64],
    tail: Option<(f64, f64)>,
) -> Vec<(&'static str, &'static str, f64)> {
    let ttr: Vec<f64> = samples.iter().map(|s| s.ttr_s).collect();
    let median_ttr = stats::median(&ttr);
    let first: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.passes_s.first().copied())
        .collect();
    // Passes 2 and later; a single-pass job's every sample is a pass over
    // data already in memory, so its own pass stands in.
    let warm: Vec<f64> = samples
        .iter()
        .flat_map(|s| {
            if s.passes_s.len() > 1 {
                s.passes_s[1..].to_vec()
            } else {
                s.passes_s.clone()
            }
        })
        .collect();
    let handshakes: Vec<f64> = samples.iter().filter_map(|s| s.handshake_s).collect();
    let setup_s = stats::median(setup_times) + stats::median(&handshakes);
    let values = [
        median_ttr,
        tail.map_or(median_ttr, |(_, v)| v),
        wl.input_mb() * wl.passes() as f64 / median_ttr,
        stats::median(&first),
        stats::median(&warm),
        setup_s,
        host::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Write the traced run's spans and its event stream (the program's own
/// JSONL trace format, readable by `cloudburst inspect trace`).
fn write_trace(args: &Args, tr: &Tracer, samples: &[LayerSample]) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    let events_path = dir.join(format!("{stem}.events.jsonl"));
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(fs::File::create(&spans_path)?);
        tr.spans.write_jsonl(&mut out)?;
        out.flush()?;
        let events: Vec<_> = samples
            .iter()
            .flat_map(|s| s.events.iter().copied())
            .collect();
        fs::write(&events_path, cloudburst_core::obs::encode_jsonl(&events))
    };
    write().map_err(|e| format!("writing the trace to {}: {e}", dir.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
