//! The three workloads: corpus, deployment, one sample, and its check.
//!
//! Every workload runs two clusters (`local` and `EC2`) with one slave core
//! each, and drives the program only through its public entry points.
//! A sample is one call into the runtime, timed from the call until the
//! result is returned, then checked against a reference computed at set-up.

use crate::trace::{Span, Spans, TimedApp, TimedStore, WireTap};
use cb_apps::gen::{PointMode, PointsSpec, WordsSpec};
use cb_apps::kmeans::{kmeans_reference_pass, next_centroids, Centroids, KMeansApp};
use cb_apps::scenario::{build_hybrid, HybridEnv, HybridOpts, ThrottleOpts, CLOUD, LOCAL};
use cb_apps::wordcount::WordCountApp;
use cb_net::head::accept_workers;
use cb_net::{fingerprint, run_head, run_worker, NetConfig, RobjCodec, WorkerSpec};
use cb_storage::layout::{ChunkMeta, DatasetLayout};
use cloudburst_core::api::{run_sequential, GRApp, ReductionObject};
use cloudburst_core::combine::{KeyedSum, VecSum};
use cloudburst_core::obs::{check_invariants, EventKind, EventRecord, RecordingSink, TraceSummary};
use cloudburst_core::{run, run_iterative, Deployment, RunReport, RuntimeConfig, SinkHandle, Step};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as passed to `--workload`.
const NAMES: [&str; 3] = ["wc-local", "kmeans-burst", "wc-tcp"];

/// Slave cores per cluster, and clusters per workload: two slave cores in
/// all, one per core of the 2-core host the benchmark is sized for.
pub const CORES_PER_CLUSTER: usize = 1;
pub const CLUSTERS: usize = 2;

/// Times each workload materializes its corpus; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// k-means passes per sample: one cold, the rest served from cache.
const KMEANS_PASSES: usize = 4;
/// Largest allowed per-coordinate gap between a k-means pass and the
/// sequential reference pass: the runtime merges partial sums in another
/// order, so only rounding may differ.
const KMEANS_TOLERANCE: f64 = 1e-9;
/// Allowed gap in `TraceSummary::reconcile`'s per-core durations, seconds.
const RECONCILE_EPS_S: f64 = 1e-6;
const APP_TAG: &str = "wordcount";

/// Tracing state shared by the traced samples of one run.
pub struct Tracer {
    pub rec: Arc<RecordingSink>,
    pub spans: Arc<Spans>,
}

impl Tracer {
    pub fn new() -> Tracer {
        let rec = RecordingSink::new();
        // Spans and events share (to within the two constructor calls) one
        // origin, so both can be laid on one timeline.
        let spans = Spans::new(Instant::now());
        Tracer { rec, spans }
    }

    fn sink(&self) -> SinkHandle {
        SinkHandle::new(self.rec.clone())
    }
}

/// Cost of the robj codec and merge, measured on a sample's real result.
#[derive(Debug, Clone, Default)]
pub struct RobjCost {
    pub bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub merge_s: f64,
}

/// Wire-side timings of one multi-worker sample.
#[derive(Debug, Clone, Default)]
pub struct NetCost {
    /// `accept_workers` for both workers.
    pub handshake_s: f64,
    /// `run_head` return minus the later of the two robj ships.
    pub head_drain_s: f64,
    /// Last `run_worker` return minus the `run_head` return; negative when
    /// the workers were gone before the head returned.
    pub worker_exit_lag_s: f64,
}

/// What a traced sample leaves for the per-layer metrics.
pub struct LayerSample {
    pub events: Vec<EventRecord>,
    pub spans: Vec<Span>,
    pub reports: Vec<RunReport>,
    pub robj: RobjCost,
    pub net: Option<NetCost>,
}

/// One sample: its timings and whether its result was right.
pub struct Sample {
    pub ttr_s: f64,
    /// Duration of each pass, in order (one entry for single-pass jobs).
    pub passes_s: Vec<f64>,
    /// `accept_workers` time, for the multi-worker workload.
    pub handshake_s: Option<f64>,
    /// Why the sample failed: a run error, a wrong result, or (traced) an
    /// event stream that breaks its invariants or disagrees with the report.
    pub error: Option<String>,
    pub layer: Option<LayerSample>,
}

impl Sample {
    fn failed(error: String) -> Sample {
        Sample {
            ttr_s: 0.0,
            passes_s: Vec::new(),
            handshake_s: None,
            error: Some(error),
            layer: None,
        }
    }
}

pub trait Workload {
    /// Passes over the input per sample.
    fn passes(&self) -> usize;
    /// Input size of one pass, MB (10^6 bytes).
    fn input_mb(&self) -> f64;
    /// Run one sample; traced when `tracer` is given.
    fn sample(&self, tracer: Option<&Tracer>) -> Sample;
    /// One single-threaded pass over the corpus with `run_sequential`.
    fn sequential_pass_s(&self) -> f64;
}

/// Build the named workload from `seed`. Returns it with the duration of
/// each corpus materialization (the last one is kept).
pub fn setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    match name {
        "wc-local" => WordCount::setup(seed, false),
        "wc-tcp" => WordCount::setup(seed, true),
        "kmeans-burst" => KMeansBurst::setup(seed),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Every chunk of the corpus with its bytes, generated once from the seed.
/// Generating the input is the benchmark's work, so it is not timed.
type Corpus = Vec<(ChunkMeta, Vec<u8>)>;

fn generate(layout: &DatasetLayout, mut fill: impl FnMut(&ChunkMeta, &mut [u8])) -> Corpus {
    layout
        .chunks
        .iter()
        .map(|c| {
            let mut bytes = vec![0u8; c.len as usize];
            fill(c, &mut bytes);
            (*c, bytes)
        })
        .collect()
}

/// The program's set-up: materialize `corpus` into a fresh two-site
/// environment, `SETUP_REPS` times, keeping the last one.
fn build_env(
    layout: &DatasetLayout,
    corpus: &Corpus,
    opts: HybridOpts,
) -> Result<(HybridEnv, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut env = None;
    for _ in 0..SETUP_REPS {
        drop(env.take());
        let t = Instant::now();
        // `layout.chunk(id)` indexes chunks by id, so `corpus` does too.
        let copy = |c: &ChunkMeta, buf: &mut [u8]| buf.copy_from_slice(&corpus[c.id.0 as usize].1);
        let built = build_hybrid(layout.clone(), copy, opts)
            .map_err(|e| format!("materializing the corpus: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        env = Some(built);
    }
    Ok((env.expect("SETUP_REPS >= 1"), times))
}

fn input_mb(layout: &DatasetLayout) -> f64 {
    layout.chunks.iter().map(|c| c.len).sum::<u64>() as f64 / 1e6
}

fn time_sequential<A: GRApp>(app: &A, params: &A::Params, chunks: &[(ChunkMeta, Vec<u8>)]) -> f64 {
    let owned = chunks.to_vec();
    let t = Instant::now();
    let robj = run_sequential(app, params, owned);
    let took = t.elapsed().as_secs_f64();
    std::hint::black_box(robj);
    took
}

/// A copy of `deployment` whose every fabric path is wrapped in a
/// [`TimedStore`].
fn timed_deployment(deployment: &Deployment, spans: &Arc<Spans>) -> Deployment {
    let mut d = deployment.clone();
    for site in [LOCAL, CLOUD] {
        d.fabric
            .wrap_paths_to(site, |inner| TimedStore::wrap(inner, spans));
    }
    d
}

fn robj_cost<R: ReductionObject + RobjCodec>(robj: &R, spans: &Spans, parent: u64) -> RobjCost {
    let open = spans.begin("robj.encode", parent);
    let t = Instant::now();
    let bytes = robj.encode_robj();
    let encode_s = t.elapsed().as_secs_f64();
    spans.end(open, bytes.len() as u64, true);

    let open = spans.begin("robj.decode", parent);
    let t = Instant::now();
    let a = R::decode_robj(&bytes);
    let decode_s = t.elapsed().as_secs_f64();
    spans.end(open, bytes.len() as u64, a.is_ok());

    let merge_s = match (a, R::decode_robj(&bytes)) {
        (Ok(mut a), Ok(b)) => {
            let open = spans.begin("robj.merge", parent);
            let t = Instant::now();
            a.merge(b);
            let took = t.elapsed().as_secs_f64();
            spans.end(open, bytes.len() as u64, true);
            std::hint::black_box(a);
            took
        }
        _ => 0.0,
    };
    RobjCost {
        bytes: bytes.len() as u64,
        encode_s,
        decode_s,
        merge_s,
    }
}

/// Validate a traced stream and reconcile it with the reports of its
/// passes (the stream is split at `PassBoundary` for iterative runs).
fn check_stream(events: &[EventRecord], reports: &[RunReport]) -> Result<(), String> {
    check_invariants(events).map_err(|e| format!("trace invariant: {e}"))?;
    let mut passes: Vec<&[EventRecord]> = Vec::new();
    let bounds: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, EventKind::PassBoundary { .. }))
        .map(|(i, _)| i)
        .collect();
    if bounds.is_empty() {
        passes.push(events);
    } else {
        for (k, &start) in bounds.iter().enumerate() {
            let end = bounds.get(k + 1).copied().unwrap_or(events.len());
            passes.push(&events[start..end]);
        }
    }
    if passes.len() != reports.len() {
        return Err(format!(
            "trace has {} pass(es), the run reported {}",
            passes.len(),
            reports.len()
        ));
    }
    for (i, (evs, report)) in passes.iter().zip(reports).enumerate() {
        TraceSummary::from_events(evs)
            .reconcile(report, RECONCILE_EPS_S)
            .map_err(|e| format!("pass {i}: trace disagrees with RunReport: {e}"))?;
    }
    Ok(())
}

fn secs_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

// ---------------------------------------------------------------------------
// wc-local and wc-tcp
// ---------------------------------------------------------------------------

/// Wordcount, in process (`run`) or as a head plus two TCP workers.
struct WordCount {
    env: HybridEnv,
    chunks: Corpus,
    reference: KeyedSum,
    /// `encode_robj` of a single-process run: the wire result must match it.
    reference_bytes: Vec<u8>,
    cfg: RuntimeConfig,
    tcp: bool,
    fingerprint: u64,
}

/// Result of one head-plus-workers round.
struct TcpRound {
    outcome: Result<cloudburst_core::RunOutcome<KeyedSum>, String>,
    handshake_s: f64,
    ttr_s: f64,
    head_done: Instant,
    worker_done: Vec<Instant>,
}

impl WordCount {
    fn spec(seed: u64, tcp: bool) -> WordsSpec {
        if tcp {
            // A vocabulary large enough that each cluster's robj is several
            // MB on the wire, far below the 64 MiB frame cap.
            WordsSpec {
                vocabulary: 1 << 18,
                n_files: 8,
                words_per_file: 128 * 1024,
                words_per_chunk: 8 * 1024,
                seed,
            }
        } else {
            // A small vocabulary: the KeyedSum stays in cache, so the fold
            // and the robj merges dominate. Samples of ~0.2 s keep a host
            // stall of a second or two from reaching ten samples, so it
            // cannot move the tail percentile.
            WordsSpec {
                vocabulary: 1024,
                n_files: 8,
                words_per_file: 512 * 1024,
                words_per_chunk: 16 * 1024,
                seed,
            }
        }
    }

    fn setup(seed: u64, tcp: bool) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
        let spec = Self::spec(seed, tcp);
        let layout = spec.layout();
        let chunks = generate(&layout, spec.fill());
        let (env, times) = build_env(
            &layout,
            &chunks,
            HybridOpts {
                frac_local: 0.5,
                local_cores: CORES_PER_CLUSTER,
                cloud_cores: CORES_PER_CLUSTER,
                throttle: None,
            },
        )?;
        let reference = run_sequential(&WordCountApp, &(), chunks.iter().cloned());
        let cfg = RuntimeConfig::default();
        let single = run(
            &WordCountApp,
            &(),
            &env.layout,
            &env.placement,
            &env.deployment,
            &cfg,
        )
        .map_err(|e| format!("single-process reference run: {e}"))?;
        let reference_bytes = single.result.encode_robj();
        let fingerprint = fingerprint(&env.layout, &env.placement, APP_TAG);
        Ok((
            Box::new(WordCount {
                env,
                chunks,
                reference,
                reference_bytes,
                cfg,
                tcp,
                fingerprint,
            }),
            times,
        ))
    }

    fn check(&self, result: &KeyedSum) -> Option<String> {
        if *result != self.reference {
            return Some(format!(
                "wordcount result differs from run_sequential ({} vs {} keys)",
                result.len(),
                self.reference.len()
            ));
        }
        if self.tcp && result.encode_robj() != self.reference_bytes {
            return Some("wire robj bytes differ from the single-process run".into());
        }
        None
    }

    fn sample_local(&self, tracer: Option<&Tracer>) -> Sample {
        let Some(tr) = tracer else {
            let t = Instant::now();
            let out = run(
                &WordCountApp,
                &(),
                &self.env.layout,
                &self.env.placement,
                &self.env.deployment,
                &self.cfg,
            );
            let ttr_s = t.elapsed().as_secs_f64();
            return match out {
                Ok(out) => Sample {
                    ttr_s,
                    passes_s: vec![ttr_s],
                    handshake_s: None,
                    error: self.check(&out.result),
                    layer: None,
                },
                Err(e) => Sample::failed(format!("run: {e}")),
            };
        };

        let spans = &tr.spans;
        let app = TimedApp::new(WordCountApp, spans);
        let deployment = timed_deployment(&self.env.deployment, spans);
        let cfg = RuntimeConfig {
            sink: tr.sink(),
            ..self.cfg.clone()
        };
        let from = spans.len();
        let root = spans.begin("sample", 0);
        let call = spans.begin("runtime.run", root.id());
        spans.set_current(call.id());
        let t = Instant::now();
        let out = run(
            &app,
            &(),
            &self.env.layout,
            &self.env.placement,
            &deployment,
            &cfg,
        );
        let ttr_s = t.elapsed().as_secs_f64();
        spans.end(call, 0, out.is_ok());
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                spans.end(root, 0, false);
                return Sample::failed(format!("traced run: {e}"));
            }
        };
        let robj = robj_cost(&out.result, spans, root.id());
        spans.end(root, 0, true);
        let events = tr.rec.take();
        let reports = vec![out.report];
        let error = self
            .check(&out.result)
            .or_else(|| check_stream(&events, &reports).err());
        Sample {
            ttr_s,
            passes_s: vec![ttr_s],
            handshake_s: None,
            error,
            layer: Some(LayerSample {
                events,
                spans: spans.since(from),
                reports,
                robj,
                net: None,
            }),
        }
    }

    /// One head plus two workers over loopback TCP, as threads of this
    /// process. The clock runs from the `run_head` call (after the
    /// handshake) to its return; worker teardown is timed separately.
    fn tcp_round<A>(
        &self,
        app: &A,
        deployment: &Deployment,
        head_cfg: &RuntimeConfig,
        worker_cfg: &RuntimeConfig,
        spans: Option<(&Spans, u64)>,
    ) -> TcpRound
    where
        A: GRApp<RObj = KeyedSum, Params = ()>,
    {
        let failed = |e: String| TcpRound {
            outcome: Err(e),
            handshake_s: 0.0,
            ttr_s: 0.0,
            head_done: Instant::now(),
            worker_done: Vec::new(),
        };
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => return failed(format!("binding the head listener: {e}")),
        };
        let addr = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => return failed(format!("head listener address: {e}")),
        };
        let net = NetConfig::default();
        let (layout, placement) = (&self.env.layout, &self.env.placement);
        std::thread::scope(|scope| {
            let workers: Vec<_> = deployment
                .clusters
                .iter()
                .enumerate()
                .map(|(ci, cluster)| {
                    let wspec = WorkerSpec {
                        cluster: ci as u32,
                        name: cluster.name.clone(),
                        app_tag: APP_TAG.into(),
                        fingerprint: self.fingerprint,
                    };
                    let net = &net;
                    let open = spans.map(|(s, root)| s.begin("net.run_worker", root));
                    scope.spawn(move || {
                        let r = run_worker(
                            app,
                            &(),
                            layout,
                            placement,
                            &deployment.fabric,
                            cluster,
                            &wspec,
                            worker_cfg,
                            net,
                            addr,
                        );
                        let done = Instant::now();
                        if let (Some((s, _)), Some(open)) = (spans, open) {
                            s.end_at(open, done, 0, r.is_ok());
                        }
                        (r.map(|_| ()).map_err(|e| e.to_string()), done)
                    })
                })
                .collect();

            let open = spans.map(|(s, root)| s.begin("net.accept_workers", root));
            let t = Instant::now();
            let peers = accept_workers(
                &listener,
                CLUSTERS,
                head_cfg,
                &net,
                self.fingerprint,
                APP_TAG,
            );
            let handshake_s = t.elapsed().as_secs_f64();
            if let (Some((s, _)), Some(open)) = (spans, open) {
                s.end(open, 0, peers.is_ok());
            }

            let (outcome, ttr_s, head_done) = match peers {
                Ok(peers) => {
                    let open = spans.map(|(s, root)| s.begin("net.run_head", root));
                    let t = Instant::now();
                    let out = run_head::<KeyedSum>(peers, layout, placement, head_cfg, &net);
                    let head_done = Instant::now();
                    if let (Some((s, _)), Some(open)) = (spans, open) {
                        s.end_at(open, head_done, 0, out.is_ok());
                    }
                    (
                        out.map_err(|e| format!("run_head: {e}")),
                        secs_between(t, head_done),
                        head_done,
                    )
                }
                Err(e) => (Err(format!("accept_workers: {e}")), 0.0, Instant::now()),
            };

            let mut worker_done = Vec::with_capacity(workers.len());
            let mut outcome = outcome;
            for w in workers {
                match w.join() {
                    Ok((Ok(()), done)) => worker_done.push(done),
                    Ok((Err(e), done)) => {
                        worker_done.push(done);
                        if outcome.is_ok() {
                            outcome = Err(format!("run_worker: {e}"));
                        }
                    }
                    Err(_) => outcome = Err("a worker thread panicked".into()),
                }
            }
            TcpRound {
                outcome,
                handshake_s,
                ttr_s,
                head_done,
                worker_done,
            }
        })
    }

    fn sample_tcp(&self, tracer: Option<&Tracer>) -> Sample {
        let Some(tr) = tracer else {
            let round = self.tcp_round(
                &WordCountApp,
                &self.env.deployment,
                &self.cfg,
                &self.cfg,
                None,
            );
            return match round.outcome {
                Ok(out) => Sample {
                    ttr_s: round.ttr_s,
                    passes_s: vec![round.ttr_s],
                    handshake_s: Some(round.handshake_s),
                    error: self.check(&out.result),
                    layer: None,
                },
                Err(e) => Sample::failed(e),
            };
        };

        let spans = &tr.spans;
        let app = TimedApp::new(WordCountApp, spans);
        let deployment = timed_deployment(&self.env.deployment, spans);
        let head_cfg = RuntimeConfig {
            sink: tr.sink(),
            ..self.cfg.clone()
        };
        let tap = WireTap::new(tr.sink());
        let worker_cfg = RuntimeConfig {
            sink: SinkHandle::new(tap.clone()),
            ..self.cfg.clone()
        };
        let from = spans.len();
        let root = spans.begin("sample", 0);
        // Two workers fold concurrently, so their leaf spans attach to the
        // sample rather than to either worker.
        spans.set_current(root.id());
        let round = self.tcp_round(
            &app,
            &deployment,
            &head_cfg,
            &worker_cfg,
            Some((spans, root.id())),
        );
        let out = match round.outcome {
            Ok(out) => out,
            Err(e) => {
                spans.end(root, 0, false);
                return Sample::failed(format!("traced: {e}"));
            }
        };
        let robj = robj_cost(&out.result, spans, root.id());
        spans.end(root, 0, true);
        let events = tr.rec.take();

        // A worker's robj ship is by far its largest frame; the later of
        // the two ships is when the head had every result in hand.
        let sent = tap.sent();
        let last_ship = (0..CLUSTERS as u32)
            .filter_map(|c| {
                sent.iter()
                    .filter(|f| f.cluster == c)
                    .max_by_key(|f| f.bytes)
                    .map(|f| f.at)
            })
            .max()
            .unwrap_or(round.head_done);
        let last_worker = round.worker_done.iter().copied().max();
        let net = NetCost {
            handshake_s: round.handshake_s,
            head_drain_s: secs_between(last_ship, round.head_done),
            worker_exit_lag_s: last_worker.map_or(0.0, |w| {
                secs_between(round.head_done, w) - secs_between(w, round.head_done)
            }),
        };
        let reports = vec![out.report];
        let error = self
            .check(&out.result)
            .or_else(|| check_stream(&events, &reports).err());
        Sample {
            ttr_s: round.ttr_s,
            passes_s: vec![round.ttr_s],
            handshake_s: Some(round.handshake_s),
            error,
            layer: Some(LayerSample {
                events,
                spans: spans.since(from),
                reports,
                robj,
                net: Some(net),
            }),
        }
    }
}

impl Workload for WordCount {
    fn passes(&self) -> usize {
        1
    }

    fn input_mb(&self) -> f64 {
        input_mb(&self.env.layout)
    }

    fn sample(&self, tracer: Option<&Tracer>) -> Sample {
        if self.tcp {
            self.sample_tcp(tracer)
        } else {
            self.sample_local(tracer)
        }
    }

    fn sequential_pass_s(&self) -> f64 {
        time_sequential(&WordCountApp, &(), &self.chunks)
    }
}

// ---------------------------------------------------------------------------
// kmeans-burst
// ---------------------------------------------------------------------------

/// One k-means sample: the whole run, each pass, and what the passes made.
struct Passes {
    ttr_s: f64,
    reports: Vec<RunReport>,
    passes_s: Vec<f64>,
    /// The model after each pass.
    models: Vec<Centroids>,
    /// The last pass's reduction object.
    last_robj: Option<VecSum>,
}

/// Iterative k-means over the throttled fabric, most data in the cloud.
struct KMeansBurst {
    env: HybridEnv,
    chunks: Corpus,
    app: KMeansApp,
    init: Centroids,
    /// `reference[i]` is the model after `i` sequential reference passes.
    reference: Vec<Centroids>,
    cfg: RuntimeConfig,
}

impl KMeansBurst {
    const K: usize = 8;

    fn spec(seed: u64) -> PointsSpec {
        PointsSpec {
            n_files: 6,
            points_per_file: 40_000,
            points_per_chunk: 2_000,
            dim: 8,
            seed,
            mode: PointMode::Blobs {
                centers: Self::K,
                spread: 0.5,
            },
        }
    }

    fn setup(seed: u64) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
        let spec = Self::spec(seed);
        let layout = spec.layout();
        let chunks = generate(&layout, spec.fill());
        let (env, times) = build_env(
            &layout,
            &chunks,
            HybridOpts {
                // The paper's most skewed split: 17% of the data local.
                frac_local: 1.0 / 6.0,
                local_cores: CORES_PER_CLUSTER,
                cloud_cores: CORES_PER_CLUSTER,
                throttle: Some(ThrottleOpts::scaled_default()),
            },
        )?;
        let app = KMeansApp::new(spec.dim, Self::K);
        // Start every centroid off its blob, so the passes have work to do.
        let init = Centroids::new(
            spec.dim,
            (0..Self::K)
                .flat_map(|c| PointsSpec::blob_center(seed, c, spec.dim))
                .map(|x| x + 1.5)
                .collect(),
        );
        let points = spec.all_points(&env.layout);
        let mut reference = vec![init.clone()];
        for _ in 0..KMEANS_PASSES {
            let next = kmeans_reference_pass(&points, reference.last().expect("non-empty"));
            reference.push(next);
        }
        let dataset_bytes: u64 = env.layout.chunks.iter().map(|c| c.len).sum();
        let cfg = RuntimeConfig {
            // Each fabric path's cache can hold the whole dataset.
            cache_bytes: 2 * dataset_bytes as usize,
            ..RuntimeConfig::default()
        };
        Ok((
            Box::new(KMeansBurst {
                env,
                chunks,
                app,
                init,
                reference,
                cfg,
            }),
            times,
        ))
    }

    fn check(&self, models: &[Centroids]) -> Option<String> {
        if models.len() != KMEANS_PASSES {
            return Some(format!(
                "ran {} pass(es), expected {KMEANS_PASSES}",
                models.len()
            ));
        }
        for (i, got) in models.iter().enumerate() {
            let want = &self.reference[i + 1];
            let gap = got
                .flat
                .iter()
                .zip(&want.flat)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if got.flat.len() != want.flat.len() || gap > KMEANS_TOLERANCE {
                return Some(format!(
                    "k-means pass {i} is {gap:e} from the reference pass (tolerance {KMEANS_TOLERANCE:e})"
                ));
            }
        }
        None
    }

    /// Run all passes of one sample.
    fn iterate<A>(
        &self,
        app: &A,
        deployment: &Deployment,
        cfg: &RuntimeConfig,
    ) -> Result<Passes, String>
    where
        A: GRApp<RObj = VecSum, Params = Centroids>,
    {
        let mut marks = Vec::with_capacity(KMEANS_PASSES);
        let mut models = Vec::with_capacity(KMEANS_PASSES);
        let mut last_robj = None;
        let t0 = Instant::now();
        let out = run_iterative(
            app,
            self.init.clone(),
            &self.env.layout,
            &self.env.placement,
            deployment,
            cfg,
            KMEANS_PASSES,
            |_, robj, params| {
                marks.push(Instant::now());
                let next = next_centroids(&self.app, &robj, params);
                models.push(next.clone());
                last_robj = Some(robj);
                Step::Continue(next)
            },
        );
        let ttr_s = t0.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("run_iterative: {e}"))?;
        let mut prev = t0;
        let passes_s = marks
            .iter()
            .map(|&m| {
                let d = secs_between(prev, m);
                prev = m;
                d
            })
            .collect();
        Ok(Passes {
            ttr_s,
            reports: out.reports,
            passes_s,
            models,
            last_robj,
        })
    }
}

impl Workload for KMeansBurst {
    fn passes(&self) -> usize {
        KMEANS_PASSES
    }

    fn input_mb(&self) -> f64 {
        input_mb(&self.env.layout)
    }

    fn sample(&self, tracer: Option<&Tracer>) -> Sample {
        let Some(tr) = tracer else {
            return match self.iterate(&self.app, &self.env.deployment, &self.cfg) {
                Ok(p) => Sample {
                    ttr_s: p.ttr_s,
                    handshake_s: None,
                    error: self.check(&p.models),
                    passes_s: p.passes_s,
                    layer: None,
                },
                Err(e) => Sample::failed(e),
            };
        };

        let spans = &tr.spans;
        let app = TimedApp::new(self.app.clone(), spans);
        let deployment = timed_deployment(&self.env.deployment, spans);
        let cfg = RuntimeConfig {
            sink: tr.sink(),
            ..self.cfg.clone()
        };
        let from = spans.len();
        let root = spans.begin("sample", 0);
        let call = spans.begin("runtime.run_iterative", root.id());
        spans.set_current(call.id());
        let out = self.iterate(&app, &deployment, &cfg);
        spans.end(call, 0, out.is_ok());
        let Passes {
            ttr_s,
            reports,
            passes_s,
            models,
            last_robj,
        } = match out {
            Ok(out) => out,
            Err(e) => {
                spans.end(root, 0, false);
                return Sample::failed(format!("traced: {e}"));
            }
        };
        let robj = last_robj
            .map(|r| robj_cost(&r, spans, root.id()))
            .unwrap_or_default();
        spans.end(root, 0, true);
        let events = tr.rec.take();
        let error = self
            .check(&models)
            .or_else(|| check_stream(&events, &reports).err());
        Sample {
            ttr_s,
            passes_s,
            handshake_s: None,
            error,
            layer: Some(LayerSample {
                events,
                spans: spans.since(from),
                reports,
                robj,
                net: None,
            }),
        }
    }

    fn sequential_pass_s(&self) -> f64 {
        time_sequential(&self.app, &self.init, &self.chunks)
    }
}
