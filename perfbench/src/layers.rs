//! Per-layer metrics, derived from traced samples.
//!
//! Sources: the benchmark's spans (`store.get`, `app.decode`, the robj
//! codec), the program's event stream, and each pass's `RunReport`. Count
//! and duration metrics are per-sample medians; `_p50_` metrics pool every
//! observation across the traced samples; ratios state their base below.

use crate::stats::median;
use crate::workloads::{LayerSample, CLUSTERS, CORES_PER_CLUSTER};
use cloudburst_core::obs::EventKind;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in the order printed.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cb-storage::store / s3sim (TimedStore spans, below any cache)
    ("store.gets", "count"),
    ("store.bytes", "B"),
    ("store.get_s", "s"),
    ("store.get_p50_us", "us"),
    ("store.failed_gets", "count"),
    // cb-storage::retrieve (FetchEnd / Retry events)
    ("retrieve.fetches", "count"),
    ("retrieve.fetch_s", "s"),
    ("retrieve.fetch_p50_ms", "ms"),
    ("retrieve.remote_bytes", "B"),
    ("retrieve.retries", "count"),
    // cb-storage::cache (CacheHit / CacheMiss events)
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.miss_bytes", "B"),
    // core::sched (JobAssigned / MasterRefill / Steal / LeaseReleased)
    ("sched.grants", "count"),
    ("sched.refills", "count"),
    ("sched.steals", "count"),
    ("sched.stolen_share", "ratio"),
    ("sched.reenqueued", "count"),
    ("sched.grant_wait_p50_us", "us"),
    // cb-apps + core::api
    ("apps.decode_ns_per_byte", "ns/B"),
    ("apps.fold_ns_per_unit", "ns/unit"),
    ("apps.seq_mb_s", "MB/s"),
    ("runtime.parallel_efficiency", "ratio"),
    // core::runtime (RunReport, summed over clusters and passes)
    ("runtime.processing_s", "s"),
    ("runtime.fetch_stall_s", "s"),
    ("runtime.overlap_saved_s", "s"),
    ("runtime.idle_end_s", "s"),
    ("runtime.global_reduction_s", "s"),
    ("runtime.sync_s", "s"),
    // core::combine + cb-net::robj (the sample's own result)
    ("robj.bytes", "B"),
    ("robj.merge_ms", "ms"),
    ("robj.encode_ms", "ms"),
    ("robj.decode_ms", "ms"),
    // cb-net (head report and the benchmark's clocks)
    ("net.frames", "count"),
    ("net.bytes", "B"),
    ("net.handshake_s", "s"),
    ("net.head_drain_s", "s"),
    ("net.worker_exit_lag_s", "s"),
    // core::obs
    ("obs.events", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Run-level inputs to the per-layer metrics that no single sample holds.
pub struct RunLevel {
    /// Median `time_to_result_s` of untraced and of traced samples.
    pub untraced_ttr_s: f64,
    pub traced_ttr_s: f64,
    /// Median single-thread `run_sequential` time for one pass.
    pub sequential_pass_s: f64,
    pub input_mb: f64,
    pub passes: usize,
}

/// Per-sample values (median over samples) and pooled observations.
#[derive(Default)]
struct Acc {
    per_sample: BTreeMap<&'static str, Vec<f64>>,
    pooled: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Acc {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.per_sample.entry(name).or_default().push(v);
    }
    fn pool(&mut self, name: &'static str, v: f64) {
        self.pooled.entry(name).or_default().push(v);
    }
    fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }
    fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn fold_sample(acc: &mut Acc, s: &LayerSample) {
    // --- spans ---
    let (mut gets, mut get_bytes, mut get_s, mut get_failed) = (0.0, 0.0, 0.0, 0.0);
    for sp in &s.spans {
        match sp.name {
            "store.get" => {
                gets += 1.0;
                get_bytes += sp.bytes as f64;
                get_s += sp.secs();
                if !sp.ok {
                    get_failed += 1.0;
                }
                acc.pool("store.get_p50_us", sp.secs() * 1e6);
            }
            "app.decode" => {
                acc.add("decode_ns", sp.secs() * 1e9);
                acc.add("decode_bytes", sp.bytes as f64);
            }
            _ => {}
        }
    }
    acc.sample("store.gets", gets);
    acc.sample("store.bytes", get_bytes);
    acc.sample("store.get_s", get_s);
    acc.sample("store.failed_gets", get_failed);

    // --- events ---
    let mut n = BTreeMap::<&'static str, f64>::new();
    let mut bump = |k: &'static str, v: f64| *n.entry(k).or_default() += v;
    let mut pass = 0u64;
    let mut refill_at: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    for e in &s.events {
        match e.kind {
            EventKind::FetchEnd {
                bytes, remote, ns, ..
            } => {
                bump("fetches", 1.0);
                bump("fetch_ns", ns as f64);
                if remote {
                    bump("remote_bytes", bytes as f64);
                }
                acc.pool("retrieve.fetch_p50_ms", ns as f64 / 1e6);
            }
            EventKind::Retry { .. } => bump("retries", 1.0),
            EventKind::PassBoundary { pass: p } => pass = p,
            EventKind::CacheHit { .. } => {
                bump("hits", 1.0);
                if pass > 0 {
                    bump("warm_hits", 1.0);
                }
            }
            EventKind::CacheMiss { bytes } => {
                bump("misses", 1.0);
                bump("miss_bytes", bytes as f64);
                if pass > 0 {
                    bump("warm_misses", 1.0);
                }
            }
            EventKind::JobAssigned { .. } => {
                bump("grants", 1.0);
                // Grant wait: a master's refill request until the first job
                // the head grants that cluster afterwards.
                if let Some(t) = refill_at.remove(&e.cluster) {
                    acc.pool(
                        "sched.grant_wait_p50_us",
                        (e.t_ns - t.min(e.t_ns)) as f64 / 1e3,
                    );
                }
            }
            EventKind::MasterRefill { .. } => {
                bump("refills", 1.0);
                refill_at.insert(e.cluster, e.t_ns);
            }
            EventKind::Steal { .. } => bump("steals", 1.0),
            EventKind::LeaseReleased { .. } => bump("reenqueued", 1.0),
            EventKind::ProcessEnd { units, ns, .. } => {
                acc.add("process_ns", ns as f64);
                acc.add("units", units as f64);
            }
            _ => {}
        }
    }
    let g = |k: &str| n.get(k).copied().unwrap_or(0.0);
    acc.sample("retrieve.fetches", g("fetches"));
    acc.sample("retrieve.fetch_s", g("fetch_ns") / 1e9);
    acc.sample("retrieve.remote_bytes", g("remote_bytes"));
    acc.sample("retrieve.retries", g("retries"));
    acc.sample("cache.hits", g("hits"));
    acc.sample("cache.misses", g("misses"));
    acc.sample(
        "cache.hit_ratio",
        ratio(g("warm_hits"), g("warm_hits") + g("warm_misses")),
    );
    acc.sample("cache.miss_bytes", g("miss_bytes"));
    acc.sample("sched.grants", g("grants"));
    acc.sample("sched.refills", g("refills"));
    acc.sample("sched.steals", g("steals"));
    acc.sample("sched.stolen_share", ratio(g("steals"), g("grants")));
    acc.sample("sched.reenqueued", g("reenqueued"));
    acc.sample("obs.events", s.events.len() as f64);

    // --- reports ---
    let mut r = BTreeMap::<&'static str, f64>::new();
    let mut add = |k: &'static str, v: f64| *r.entry(k).or_default() += v;
    for rep in &s.reports {
        add("runtime.global_reduction_s", rep.global_reduction_s);
        for c in &rep.clusters {
            add("runtime.processing_s", c.processing_s);
            add("runtime.fetch_stall_s", c.fetch_stall_s);
            add("runtime.overlap_saved_s", c.overlap_saved_s);
            add("runtime.idle_end_s", c.idle_end_s);
            add("runtime.sync_s", c.sync_s);
        }
        add(
            "net.frames",
            (rep.net.frames_sent + rep.net.frames_recv) as f64,
        );
        add(
            "net.bytes",
            (rep.net.bytes_sent + rep.net.bytes_recv) as f64,
        );
    }
    for (k, v) in r {
        acc.sample(k, v);
    }

    // --- robj and wire ---
    acc.sample("robj.bytes", s.robj.bytes as f64);
    acc.sample("robj.merge_ms", s.robj.merge_s * 1e3);
    acc.sample("robj.encode_ms", s.robj.encode_s * 1e3);
    acc.sample("robj.decode_ms", s.robj.decode_s * 1e3);
    let net = s.net.clone().unwrap_or_default();
    acc.sample("net.handshake_s", net.handshake_s);
    acc.sample("net.head_drain_s", net.head_drain_s);
    acc.sample("net.worker_exit_lag_s", net.worker_exit_lag_s);
}

/// Compute every metric of [`PER_LAYER`], in order.
pub fn per_layer(
    samples: &[LayerSample],
    run: &RunLevel,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut acc = Acc::default();
    for s in samples {
        fold_sample(&mut acc, s);
    }
    let cores = (CLUSTERS * CORES_PER_CLUSTER) as f64;
    let decode_ns = acc.sum("decode_ns");
    let derived: BTreeMap<&str, f64> = [
        (
            "apps.decode_ns_per_byte",
            ratio(decode_ns, acc.sum("decode_bytes")),
        ),
        (
            "apps.fold_ns_per_unit",
            ratio(
                (acc.sum("process_ns") - decode_ns).max(0.0),
                acc.sum("units"),
            ),
        ),
        ("apps.seq_mb_s", ratio(run.input_mb, run.sequential_pass_s)),
        (
            "runtime.parallel_efficiency",
            ratio(
                run.sequential_pass_s * run.passes as f64,
                run.untraced_ttr_s * cores,
            ),
        ),
        (
            "obs.trace_overhead",
            ratio(run.traced_ttr_s, run.untraced_ttr_s) - 1.0,
        ),
    ]
    .into_iter()
    .collect();

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if let Some(&v) = derived.get(name) {
                v
            } else if let Some(xs) = acc.pooled.get(name) {
                median(xs)
            } else {
                acc.per_sample.get(name).map_or(0.0, |xs| median(xs))
            };
            (name, unit, v)
        })
        .collect()
}
