//! # Observability: structured events, traces, and metrics
//!
//! The paper's claims — within-cluster load balance, sequential-read
//! locality, contention-minimizing stealing — were originally only
//! *visible* in the simulator's Gantt charts. This module gives the real
//! runtime the same span-level visibility: every scheduling decision,
//! fetch, fold, retry, and reduction-object merge is emitted as a
//! structured [`EventRecord`] through a lock-cheap [`EventSink`].
//!
//! The design invariant is **RunReport-as-derived-view**: each event
//! carries the *same* measured duration / byte count that feeds the
//! aggregate [`RunReport`], so every report
//! field (jobs, steals, retrieval time, fetch stall, cache hits,
//! recovery counters) can be re-derived from the event stream alone —
//! [`TraceSummary::reconcile`] checks this exactly. The simulator emits
//! the same event kinds, so calibration can diff real-vs-simulated
//! *event streams*, not just aggregate reports.
//!
//! Pieces:
//!
//! * [`EventKind`] / [`EventRecord`] — the event taxonomy (timestamps are
//!   monotonic nanoseconds since run start; simulated runs use virtual
//!   nanoseconds, making the two directly comparable).
//! * [`EventSink`] + [`SinkHandle`] — the emission interface. A disabled
//!   handle (the default) costs one branch per call site.
//! * [`RecordingSink`] — buffers events in memory; the runtime stamps
//!   wall-clock time, the simulator stamps virtual time via
//!   [`RecordingSink::with_clock`].
//! * [`encode_jsonl`] / [`decode_jsonl`] — the versioned JSONL trace
//!   format written by `cloudburst run --trace-out` (schema documented in
//!   `docs/OBSERVABILITY.md`).
//! * [`Timeline`] — the one Gantt renderer: live and simulated runs both
//!   build it from their event stream and render with the same glyphs
//!   ([`GANTT_LEGEND`]).
//! * [`TraceSummary`] / [`MetricsRegistry`] — counters and histograms
//!   folded from the stream.
//!
//! ## Example
//!
//! ```
//! use cloudburst_core::obs::{
//!     decode_jsonl, encode_jsonl, EventKind, RecordingSink, SinkHandle,
//! };
//!
//! let sink = RecordingSink::new();
//! let handle = SinkHandle::new(sink.clone());
//! handle.emit(Some(0), Some(1), EventKind::FetchStart { chunk: 7 });
//! handle.emit(
//!     Some(0),
//!     Some(1),
//!     EventKind::FetchEnd { chunk: 7, bytes: 4096, remote: true, ns: 1_500 },
//! );
//!
//! let events = sink.take();
//! let jsonl = encode_jsonl(&events);
//! let back = decode_jsonl(&jsonl).unwrap();
//! assert_eq!(back, events);
//! ```

use crate::report::RunReport;
use parking_lot::Mutex;
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier written in the JSONL header line.
pub const SCHEMA_NAME: &str = "cloudburst-trace";
/// Version of the JSONL trace schema (bump on incompatible change).
pub const SCHEMA_VERSION: u64 = 1;
/// The one Gantt legend shared by live runs, simulated runs, and docs.
pub const GANTT_LEGEND: &str = "█ process, ▒ fetch, ░ stall, ◆ robj, · idle";

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// What happened. Payload integers are the *same* measured values that
/// feed [`RunReport`], so aggregates derived
/// from events match the report exactly (see [`TraceSummary::reconcile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The head granted a job lease (cluster/slave = the grantee's master).
    JobAssigned { chunk: u64, stolen: bool },
    /// A remote-file grant: the grantee will read a chunk homed elsewhere.
    Steal { chunk: u64 },
    /// A lease went back to the pool. `charged` means the job's failure
    /// budget was debited (a real failure); uncharged releases are
    /// never-attempted prefetch leases returned at retirement.
    LeaseReleased { chunk: u64, charged: bool },
    /// A slave's fetcher began retrieving a chunk.
    FetchStart { chunk: u64 },
    /// Retrieval finished: `bytes` delivered, `remote` = crossed the
    /// cluster boundary, `ns` = retrieval duration.
    FetchEnd {
        chunk: u64,
        bytes: u64,
        remote: bool,
        ns: u64,
    },
    /// Retrieval failed terminally (all retries exhausted / deadline hit);
    /// `ns` is the time the fetcher spent before giving up (it still counts
    /// toward the cluster's retrieval time, exactly as in the report).
    FetchFailed { chunk: u64, ns: u64 },
    /// Retrieval completed but the retiring slave never folded the chunk;
    /// its lease goes back uncharged. Terminal for fetch pairing, counted
    /// in no aggregate.
    FetchDiscarded { chunk: u64 },
    /// The fold thread waited `ns` for the fetch pipeline to deliver
    /// (the per-cluster `fetch_stall_s` is the per-core mean of these).
    Stall { ns: u64 },
    /// Local reduction over a chunk began.
    ProcessStart { chunk: u64 },
    /// Local reduction finished: `units` folded in `ns`. `stolen` tags
    /// jobs that were granted off another cluster's files.
    ProcessEnd {
        chunk: u64,
        units: u64,
        ns: u64,
        stolen: bool,
    },
    /// A ranged GET is being retried (`attempt` starts at 1).
    Retry { attempt: u64 },
    /// A slave stopped pulling work; `killed` distinguishes scheduled
    /// fail-stops from failure-threshold retirements.
    SlaveRetired { killed: bool },
    /// A cluster's reduction object reached the head: `bytes` shipped,
    /// `ns` spent on the (WAN) transfer.
    RobjMerge { bytes: u64, ns: u64 },
    /// Iterative-run chunk cache served `bytes` from memory.
    CacheHit { bytes: u64 },
    /// Iterative-run chunk cache went to the backing store for `bytes`.
    CacheMiss { bytes: u64 },
    /// The storage fault-injection layer forced a failure.
    FaultInjected,
    /// An iterative run crossed into pass `pass` (0-based).
    PassBoundary { pass: u64 },
    /// A master asked the head for more work with `queue_len` jobs left.
    MasterRefill { queue_len: u64 },
    /// A control-plane frame of `bytes` was written to a network peer
    /// (distributed runs only; `cluster` identifies the peer on the head
    /// side, the emitting cluster on the worker side).
    NetSent { bytes: u64 },
    /// A control-plane frame of `bytes` was read from a network peer.
    NetRecv { bytes: u64 },
    /// A worker completed the handshake and joined the run with `cores`
    /// slave cores.
    PeerJoined { cores: u64 },
    /// A worker was declared lost (socket error or missed heartbeats);
    /// `jobs` of its work — leases *and* unshipped completions — were
    /// returned to the pool.
    PeerLost { jobs: u64 },
}

impl EventKind {
    /// Stable snake_case name used in the JSONL `ev` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JobAssigned { .. } => "job_assigned",
            EventKind::Steal { .. } => "steal",
            EventKind::LeaseReleased { .. } => "lease_released",
            EventKind::FetchStart { .. } => "fetch_start",
            EventKind::FetchEnd { .. } => "fetch_end",
            EventKind::FetchFailed { .. } => "fetch_failed",
            EventKind::FetchDiscarded { .. } => "fetch_discarded",
            EventKind::Stall { .. } => "stall",
            EventKind::ProcessStart { .. } => "process_start",
            EventKind::ProcessEnd { .. } => "process_end",
            EventKind::Retry { .. } => "retry",
            EventKind::SlaveRetired { .. } => "slave_retired",
            EventKind::RobjMerge { .. } => "robj_merge",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::FaultInjected => "fault_injected",
            EventKind::PassBoundary { .. } => "pass_boundary",
            EventKind::MasterRefill { .. } => "master_refill",
            EventKind::NetSent { .. } => "net_sent",
            EventKind::NetRecv { .. } => "net_recv",
            EventKind::PeerJoined { .. } => "peer_joined",
            EventKind::PeerLost { .. } => "peer_lost",
        }
    }
}

/// One timestamped event. `cluster`/`slave` are omitted where the event
/// has no such scope (e.g. cache traffic observed below the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic nanoseconds since run start (virtual ns in the sim).
    pub t_ns: u64,
    pub cluster: Option<u32>,
    pub slave: Option<u32>,
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives events from emission points. Implementations stamp the
/// timestamp themselves (wall clock for live runs, virtual clock for the
/// simulator) so call sites stay trivial.
pub trait EventSink: Send + Sync {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind);
}

/// A cheaply clonable, possibly-disabled handle to an [`EventSink`].
///
/// The default handle is disabled: [`SinkHandle::emit`] is then a single
/// `Option` branch, which is what the `obs` criterion bench holds to <2%
/// overhead on the fold hot path.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<dyn EventSink>>);

impl SinkHandle {
    /// A handle that drops every event (the default).
    pub fn disabled() -> Self {
        SinkHandle(None)
    }

    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle(Some(sink))
    }

    /// Whether events go anywhere. Emission sites may use this to skip
    /// payload preparation that is not already free.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        if let Some(sink) = &self.0 {
            sink.emit(cluster, slave, kind);
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(enabled)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

/// Buffers events in memory, stamping each with a timestamp.
///
/// With [`RecordingSink::new`] timestamps are wall-clock nanoseconds
/// since the sink was created. With [`RecordingSink::with_clock`] they
/// are read from a shared counter the simulator advances — the mechanism
/// that makes live and simulated event streams diffable.
pub struct RecordingSink {
    t0: Instant,
    clock: Option<Arc<AtomicU64>>,
    events: Mutex<Vec<EventRecord>>,
}

impl RecordingSink {
    /// Record wall-clock timestamps relative to now.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            t0: Instant::now(),
            clock: None,
            events: Mutex::new(Vec::new()),
        })
    }

    /// Record timestamps from `clock` (virtual nanoseconds owned by the
    /// simulator) instead of the wall clock.
    pub fn with_clock(clock: Arc<AtomicU64>) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            t0: Instant::now(),
            clock: Some(clock),
            events: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        match &self.clock {
            Some(c) => c.load(Ordering::Relaxed),
            None => self.t0.elapsed().as_nanos() as u64,
        }
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.events.lock().clone()
    }

    /// Drain everything recorded so far.
    pub fn take(&self) -> Vec<EventRecord> {
        std::mem::take(&mut *self.events.lock())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl EventSink for RecordingSink {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        // Stamp under the lock: a clock read before it would let two
        // emitting threads push their records out of timestamp order.
        let mut events = self.events.lock();
        events.push(EventRecord {
            t_ns: self.now_ns(),
            cluster,
            slave,
            kind,
        });
    }
}

// ---------------------------------------------------------------------------
// JSONL encode / decode
// ---------------------------------------------------------------------------

fn u(n: u64) -> Value {
    Value::Number(Number::U64(n))
}

impl EventRecord {
    /// The event as a JSON object (one JSONL line, sans newline).
    pub fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![("t_ns".into(), u(self.t_ns))];
        if let Some(c) = self.cluster {
            pairs.push(("cluster".into(), u(c as u64)));
        }
        if let Some(s) = self.slave {
            pairs.push(("slave".into(), u(s as u64)));
        }
        pairs.push(("ev".into(), Value::String(self.kind.name().into())));
        match self.kind {
            EventKind::JobAssigned { chunk, stolen } => {
                pairs.push(("chunk".into(), u(chunk)));
                pairs.push(("stolen".into(), Value::Bool(stolen)));
            }
            EventKind::Steal { chunk }
            | EventKind::FetchStart { chunk }
            | EventKind::FetchDiscarded { chunk }
            | EventKind::ProcessStart { chunk } => {
                pairs.push(("chunk".into(), u(chunk)));
            }
            EventKind::FetchFailed { chunk, ns } => {
                pairs.push(("chunk".into(), u(chunk)));
                pairs.push(("ns".into(), u(ns)));
            }
            EventKind::LeaseReleased { chunk, charged } => {
                pairs.push(("chunk".into(), u(chunk)));
                pairs.push(("charged".into(), Value::Bool(charged)));
            }
            EventKind::FetchEnd {
                chunk,
                bytes,
                remote,
                ns,
            } => {
                pairs.push(("chunk".into(), u(chunk)));
                pairs.push(("bytes".into(), u(bytes)));
                pairs.push(("remote".into(), Value::Bool(remote)));
                pairs.push(("ns".into(), u(ns)));
            }
            EventKind::Stall { ns } => pairs.push(("ns".into(), u(ns))),
            EventKind::ProcessEnd {
                chunk,
                units,
                ns,
                stolen,
            } => {
                pairs.push(("chunk".into(), u(chunk)));
                pairs.push(("units".into(), u(units)));
                pairs.push(("ns".into(), u(ns)));
                pairs.push(("stolen".into(), Value::Bool(stolen)));
            }
            EventKind::Retry { attempt } => pairs.push(("attempt".into(), u(attempt))),
            EventKind::SlaveRetired { killed } => {
                pairs.push(("killed".into(), Value::Bool(killed)));
            }
            EventKind::RobjMerge { bytes, ns } => {
                pairs.push(("bytes".into(), u(bytes)));
                pairs.push(("ns".into(), u(ns)));
            }
            EventKind::CacheHit { bytes } | EventKind::CacheMiss { bytes } => {
                pairs.push(("bytes".into(), u(bytes)));
            }
            EventKind::FaultInjected => {}
            EventKind::PassBoundary { pass } => pairs.push(("pass".into(), u(pass))),
            EventKind::MasterRefill { queue_len } => {
                pairs.push(("queue_len".into(), u(queue_len)));
            }
            EventKind::NetSent { bytes } | EventKind::NetRecv { bytes } => {
                pairs.push(("bytes".into(), u(bytes)));
            }
            EventKind::PeerJoined { cores } => pairs.push(("cores".into(), u(cores))),
            EventKind::PeerLost { jobs } => pairs.push(("jobs".into(), u(jobs))),
        }
        Value::Object(pairs)
    }

    /// Parse one JSONL line's object back into an event.
    pub fn from_value(v: &Value) -> Result<EventRecord, String> {
        fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
            let field = v.get(key).ok_or_else(|| format!("missing `{key}`"))?;
            match field.as_number().map_err(|e| e.to_string())? {
                Number::U64(n) => Ok(*n),
                Number::I64(n) if *n >= 0 => Ok(*n as u64),
                _ => Err(format!("`{key}` is not a non-negative integer")),
            }
        }
        fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
            match v.get(key) {
                Some(Value::Bool(b)) => Ok(*b),
                Some(other) => Err(format!("`{key}` should be bool, got {}", other.kind())),
                None => Err(format!("missing `{key}`")),
            }
        }
        let t_ns = get_u64(v, "t_ns")?;
        let cluster = match v.get("cluster") {
            Some(_) => Some(get_u64(v, "cluster")?),
            None => None,
        };
        let slave = match v.get("slave") {
            Some(_) => Some(get_u64(v, "slave")?),
            None => None,
        };
        let ev = match v.get("ev") {
            Some(Value::String(s)) => s.as_str(),
            _ => return Err("missing or non-string `ev`".into()),
        };
        let kind = match ev {
            "job_assigned" => EventKind::JobAssigned {
                chunk: get_u64(v, "chunk")?,
                stolen: get_bool(v, "stolen")?,
            },
            "steal" => EventKind::Steal {
                chunk: get_u64(v, "chunk")?,
            },
            "lease_released" => EventKind::LeaseReleased {
                chunk: get_u64(v, "chunk")?,
                charged: get_bool(v, "charged")?,
            },
            "fetch_start" => EventKind::FetchStart {
                chunk: get_u64(v, "chunk")?,
            },
            "fetch_end" => EventKind::FetchEnd {
                chunk: get_u64(v, "chunk")?,
                bytes: get_u64(v, "bytes")?,
                remote: get_bool(v, "remote")?,
                ns: get_u64(v, "ns")?,
            },
            "fetch_failed" => EventKind::FetchFailed {
                chunk: get_u64(v, "chunk")?,
                ns: get_u64(v, "ns")?,
            },
            "fetch_discarded" => EventKind::FetchDiscarded {
                chunk: get_u64(v, "chunk")?,
            },
            "stall" => EventKind::Stall {
                ns: get_u64(v, "ns")?,
            },
            "process_start" => EventKind::ProcessStart {
                chunk: get_u64(v, "chunk")?,
            },
            "process_end" => EventKind::ProcessEnd {
                chunk: get_u64(v, "chunk")?,
                units: get_u64(v, "units")?,
                ns: get_u64(v, "ns")?,
                stolen: get_bool(v, "stolen")?,
            },
            "retry" => EventKind::Retry {
                attempt: get_u64(v, "attempt")?,
            },
            "slave_retired" => EventKind::SlaveRetired {
                killed: get_bool(v, "killed")?,
            },
            "robj_merge" => EventKind::RobjMerge {
                bytes: get_u64(v, "bytes")?,
                ns: get_u64(v, "ns")?,
            },
            "cache_hit" => EventKind::CacheHit {
                bytes: get_u64(v, "bytes")?,
            },
            "cache_miss" => EventKind::CacheMiss {
                bytes: get_u64(v, "bytes")?,
            },
            "fault_injected" => EventKind::FaultInjected,
            "pass_boundary" => EventKind::PassBoundary {
                pass: get_u64(v, "pass")?,
            },
            "master_refill" => EventKind::MasterRefill {
                queue_len: get_u64(v, "queue_len")?,
            },
            "net_sent" => EventKind::NetSent {
                bytes: get_u64(v, "bytes")?,
            },
            "net_recv" => EventKind::NetRecv {
                bytes: get_u64(v, "bytes")?,
            },
            "peer_joined" => EventKind::PeerJoined {
                cores: get_u64(v, "cores")?,
            },
            "peer_lost" => EventKind::PeerLost {
                jobs: get_u64(v, "jobs")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(EventRecord {
            t_ns,
            cluster: cluster.map(|c| c as u32),
            slave: slave.map(|s| s as u32),
            kind,
        })
    }
}

/// Encode a trace: a header line
/// `{"schema":"cloudburst-trace","v":1}` followed by one event per line.
pub fn encode_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::new();
    let header = Value::Object(vec![
        ("schema".into(), Value::String(SCHEMA_NAME.into())),
        ("v".into(), u(SCHEMA_VERSION)),
    ]);
    out.push_str(&header.render_compact());
    out.push('\n');
    for e in events {
        out.push_str(&e.to_value().render_compact());
        out.push('\n');
    }
    out
}

/// Decode a JSONL trace, validating the schema header. Errors carry the
/// offending line number.
pub fn decode_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let hv: Value =
        serde_json::from_str(header).map_err(|e| format!("line 1: bad header JSON: {e}"))?;
    match hv.get("schema") {
        Some(Value::String(s)) if s == SCHEMA_NAME => {}
        _ => {
            return Err(format!(
                "line 1: header is not a `{SCHEMA_NAME}` schema line"
            ))
        }
    }
    match hv.get("v").map(|v| v.as_number()) {
        Some(Ok(Number::U64(n))) if *n == SCHEMA_VERSION => {}
        _ => {
            return Err(format!(
                "line 1: unsupported trace schema version (want {SCHEMA_VERSION})"
            ))
        }
    }
    let mut events = Vec::new();
    for (i, line) in lines {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(EventRecord::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Stream invariants
// ---------------------------------------------------------------------------

/// Structural invariants every well-formed stream satisfies: each
/// `FetchStart` on a slave is terminated by a `FetchEnd` or `FetchFailed`
/// for the same chunk before the stream ends, and durations never precede
/// run start. Returns the first violation found.
pub fn check_invariants(events: &[EventRecord]) -> Result<(), String> {
    let mut open: BTreeMap<(Option<u32>, Option<u32>), Vec<u64>> = BTreeMap::new();
    for e in events {
        let key = (e.cluster, e.slave);
        match e.kind {
            EventKind::FetchStart { chunk } => open.entry(key).or_default().push(chunk),
            EventKind::FetchEnd { chunk, ns, .. } => {
                let inflight = open.entry(key).or_default();
                match inflight.iter().rposition(|&c| c == chunk) {
                    Some(i) => {
                        inflight.remove(i);
                    }
                    None => {
                        return Err(format!(
                            "fetch_end for chunk {chunk} on {key:?} without fetch_start"
                        ))
                    }
                }
                if ns > e.t_ns {
                    return Err(format!(
                        "fetch_end duration {ns}ns precedes run start (t_ns={})",
                        e.t_ns
                    ));
                }
            }
            EventKind::FetchFailed { chunk, .. } | EventKind::FetchDiscarded { chunk } => {
                let inflight = open.entry(key).or_default();
                match inflight.iter().rposition(|&c| c == chunk) {
                    Some(i) => {
                        inflight.remove(i);
                    }
                    None => {
                        return Err(format!(
                            "{} for chunk {chunk} on {key:?} without fetch_start",
                            e.kind.name()
                        ))
                    }
                }
            }
            _ => {}
        }
    }
    for (key, inflight) in open {
        if !inflight.is_empty() {
            return Err(format!(
                "{} fetch(es) on {key:?} never terminated (chunks {inflight:?})",
                inflight.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Timeline (the shared Gantt renderer)
// ---------------------------------------------------------------------------

/// What a slave was doing during a [`TimelineSpan`]. Glyphs are listed in
/// [`GANTT_LEGEND`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Fetch,
    Stall,
    Process,
    RobjTransfer,
}

impl SpanKind {
    /// The Gantt cell glyph (see [`GANTT_LEGEND`]).
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Fetch => '▒',
            SpanKind::Stall => '░',
            SpanKind::Process => '█',
            SpanKind::RobjTransfer => '◆',
        }
    }
}

/// One activity interval of one slave, in nanoseconds since run start.
#[derive(Debug, Clone, Copy)]
pub struct TimelineSpan {
    pub cluster: u32,
    pub slave: u32,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-slave activity spans reconstructed from an event stream, the
/// runtime's wall-clock one or the simulator's virtual-time one; renders
/// as a textual Gantt chart.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub spans: Vec<TimelineSpan>,
    /// End of the observed run, ns.
    pub horizon_ns: u64,
}

impl Timeline {
    /// Rebuild spans from duration-carrying events (`fetch_end`, `stall`,
    /// `process_end`, `robj_merge` each close a span of length `ns`).
    pub fn from_events(events: &[EventRecord]) -> Timeline {
        let mut tl = Timeline::default();
        for e in events {
            let (cluster, slave) = match (e.cluster, e.slave) {
                (Some(c), s) => (c, s.unwrap_or(0)),
                _ => continue,
            };
            let kind_ns = match e.kind {
                EventKind::FetchEnd { ns, .. } | EventKind::FetchFailed { ns, .. } => {
                    Some((SpanKind::Fetch, ns))
                }
                EventKind::Stall { ns } => Some((SpanKind::Stall, ns)),
                EventKind::ProcessEnd { ns, .. } => Some((SpanKind::Process, ns)),
                EventKind::RobjMerge { ns, .. } => Some((SpanKind::RobjTransfer, ns)),
                _ => None,
            };
            if let Some((kind, ns)) = kind_ns {
                tl.record(cluster, slave, kind, e.t_ns.saturating_sub(ns), e.t_ns);
            }
            tl.horizon_ns = tl.horizon_ns.max(e.t_ns);
        }
        tl
    }

    /// Record one span and extend the horizon.
    pub fn record(&mut self, cluster: u32, slave: u32, kind: SpanKind, start_ns: u64, end_ns: u64) {
        debug_assert!(end_ns >= start_ns, "span ends before it starts");
        self.spans.push(TimelineSpan {
            cluster,
            slave,
            kind,
            start_ns,
            end_ns,
        });
        self.horizon_ns = self.horizon_ns.max(end_ns);
    }

    /// Busy fraction of one slave over the whole run (fetch + process;
    /// stall and robj shipping are not "busy" slave work).
    pub fn utilization(&self, cluster: u32, slave: u32) -> f64 {
        if self.horizon_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self
            .spans
            .iter()
            .filter(|s| {
                s.cluster == cluster
                    && s.slave == slave
                    && matches!(s.kind, SpanKind::Fetch | SpanKind::Process)
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        busy as f64 / self.horizon_ns as f64
    }

    /// Mean busy fraction across all slaves of `cluster`.
    pub fn cluster_utilization(&self, cluster: u32) -> f64 {
        let slaves: std::collections::BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.cluster == cluster)
            .map(|s| s.slave)
            .collect();
        if slaves.is_empty() {
            return 0.0;
        }
        slaves
            .iter()
            .map(|&s| self.utilization(cluster, s))
            .sum::<f64>()
            / slaves.len() as f64
    }

    /// Render the textual Gantt chart: one row per (cluster, slave),
    /// `width` columns spanning the run, later spans overwriting earlier
    /// ones in a cell. A span is recorded at the event that closes it, so a
    /// `process` span paints over a prefetch `fetch` that overlaps it.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width > 0);
        let horizon = (self.horizon_ns as f64).max(1.0);
        let mut rows: BTreeMap<(u32, u32), Vec<char>> = BTreeMap::new();
        for s in &self.spans {
            let row = rows
                .entry((s.cluster, s.slave))
                .or_insert_with(|| vec!['·'; width]);
            let a = ((s.start_ns as f64 / horizon) * width as f64) as usize;
            let b = ((s.end_ns as f64 / horizon) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                *cell = s.kind.glyph();
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gantt over {:.2}s  ({GANTT_LEGEND})",
            self.horizon_ns as f64 / 1e9
        );
        for ((c, s), row) in rows {
            let _ = writeln!(
                out,
                "c{c}/s{s:<3} |{}|",
                row.into_iter().collect::<String>()
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Summary (RunReport as a derived view)
// ---------------------------------------------------------------------------

/// Per-cluster aggregates folded from the event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSummary {
    pub jobs: u64,
    pub stolen: u64,
    pub process_ns: u64,
    pub fetch_ns: u64,
    pub stall_ns: u64,
    pub bytes_local: u64,
    pub bytes_remote: u64,
}

/// Everything [`RunReport`] reports, re-derived
/// from the event stream alone. [`TraceSummary::reconcile`] asserts the
/// two agree — the observability layer's core invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    pub clusters: BTreeMap<u32, ClusterSummary>,
    pub assignments: u64,
    pub steals: u64,
    pub leases_released: u64,
    pub charged_releases: u64,
    pub retries: u64,
    pub fetch_failures: u64,
    /// Failure-threshold retirements (excludes scheduled kills, matching
    /// `RecoveryStats::slaves_retired`).
    pub slaves_retired: u64,
    pub slaves_killed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_bytes: u64,
    pub robj_bytes: u64,
    pub robj_merges: u64,
    pub faults_injected: u64,
    pub passes: u64,
    /// Control-plane frames written/read (distributed runs; zero for
    /// in-process runs, matching `NetStats::default`).
    pub frames_sent: u64,
    pub frames_recv: u64,
    pub net_bytes_sent: u64,
    pub net_bytes_recv: u64,
    pub peers_joined: u64,
    pub peers_lost: u64,
}

impl TraceSummary {
    /// Fold an event stream into aggregates.
    pub fn from_events(events: &[EventRecord]) -> TraceSummary {
        fn cl<'a>(s: &'a mut TraceSummary, e: &EventRecord) -> &'a mut ClusterSummary {
            s.clusters.entry(e.cluster.unwrap_or(0)).or_default()
        }
        let mut s = TraceSummary::default();
        for e in events {
            match e.kind {
                EventKind::JobAssigned { .. } => s.assignments += 1,
                EventKind::Steal { .. } => s.steals += 1,
                EventKind::LeaseReleased { charged, .. } => {
                    s.leases_released += 1;
                    if charged {
                        s.charged_releases += 1;
                    }
                }
                EventKind::FetchEnd {
                    bytes, remote, ns, ..
                } => {
                    let c = cl(&mut s, e);
                    c.fetch_ns += ns;
                    if remote {
                        c.bytes_remote += bytes;
                    } else {
                        c.bytes_local += bytes;
                    }
                }
                EventKind::FetchFailed { ns, .. } => {
                    s.fetch_failures += 1;
                    cl(&mut s, e).fetch_ns += ns;
                }
                EventKind::Stall { ns } => cl(&mut s, e).stall_ns += ns,
                EventKind::ProcessEnd { ns, stolen, .. } => {
                    let c = cl(&mut s, e);
                    c.jobs += 1;
                    c.process_ns += ns;
                    if stolen {
                        c.stolen += 1;
                    }
                }
                EventKind::Retry { .. } => s.retries += 1,
                EventKind::SlaveRetired { killed } => {
                    if killed {
                        s.slaves_killed += 1;
                    } else {
                        s.slaves_retired += 1;
                    }
                }
                EventKind::RobjMerge { bytes, .. } => {
                    s.robj_merges += 1;
                    s.robj_bytes += bytes;
                }
                EventKind::CacheHit { bytes } => {
                    s.cache_hits += 1;
                    s.cache_hit_bytes += bytes;
                }
                EventKind::CacheMiss { .. } => s.cache_misses += 1,
                EventKind::FaultInjected => s.faults_injected += 1,
                EventKind::PassBoundary { pass } => s.passes = s.passes.max(pass + 1),
                EventKind::NetSent { bytes } => {
                    s.frames_sent += 1;
                    s.net_bytes_sent += bytes;
                }
                EventKind::NetRecv { bytes } => {
                    s.frames_recv += 1;
                    s.net_bytes_recv += bytes;
                }
                EventKind::PeerJoined { .. } => s.peers_joined += 1,
                EventKind::PeerLost { .. } => s.peers_lost += 1,
                _ => {}
            }
        }
        s
    }

    /// Jobs processed across all clusters.
    pub fn total_jobs(&self) -> u64 {
        self.clusters.values().map(|c| c.jobs).sum()
    }

    /// Stolen jobs processed across all clusters.
    pub fn total_stolen(&self) -> u64 {
        self.clusters.values().map(|c| c.stolen).sum()
    }

    /// Check that this summary and `report` agree: integer counters must
    /// match exactly; per-core mean durations within `eps_s` seconds
    /// (floating-point association differs between the two folds).
    /// Returns the first disagreement found.
    pub fn reconcile(&self, report: &RunReport, eps_s: f64) -> Result<(), String> {
        fn eq(name: &str, a: u64, b: u64) -> Result<(), String> {
            if a == b {
                Ok(())
            } else {
                Err(format!("{name}: events say {a}, report says {b}"))
            }
        }
        fn close(name: &str, a: f64, b: f64, eps: f64) -> Result<(), String> {
            if (a - b).abs() <= eps {
                Ok(())
            } else {
                Err(format!("{name}: events say {a:.6}, report says {b:.6}"))
            }
        }
        for (i, c) in report.clusters.iter().enumerate() {
            let empty = ClusterSummary::default();
            let ev = self.clusters.get(&(i as u32)).unwrap_or(&empty);
            let name = &c.name;
            eq(&format!("{name}.jobs_processed"), ev.jobs, c.jobs_processed)?;
            eq(&format!("{name}.jobs_stolen"), ev.stolen, c.jobs_stolen)?;
            eq(
                &format!("{name}.bytes_local"),
                ev.bytes_local,
                c.bytes_local,
            )?;
            eq(
                &format!("{name}.bytes_remote"),
                ev.bytes_remote,
                c.bytes_remote,
            )?;
            let cores = (c.cores as f64).max(1.0);
            close(
                &format!("{name}.retrieval_s"),
                ev.fetch_ns as f64 / 1e9 / cores,
                c.retrieval_s,
                eps_s,
            )?;
            close(
                &format!("{name}.fetch_stall_s"),
                ev.stall_ns as f64 / 1e9 / cores,
                c.fetch_stall_s,
                eps_s,
            )?;
        }
        eq("recovery.retries", self.retries, report.recovery.retries)?;
        eq(
            "recovery.fetch_failures",
            self.fetch_failures,
            report.recovery.fetch_failures,
        )?;
        eq(
            "recovery.jobs_reenqueued",
            self.leases_released,
            report.recovery.jobs_reenqueued,
        )?;
        eq(
            "recovery.slaves_retired",
            self.slaves_retired,
            report.recovery.slaves_retired,
        )?;
        eq(
            "recovery.slaves_killed",
            self.slaves_killed,
            report.recovery.slaves_killed,
        )?;
        eq("cache_hits", self.cache_hits, report.cache_hits)?;
        eq("cache_misses", self.cache_misses, report.cache_misses)?;
        eq("net.frames_sent", self.frames_sent, report.net.frames_sent)?;
        eq("net.frames_recv", self.frames_recv, report.net.frames_recv)?;
        eq("net.bytes_sent", self.net_bytes_sent, report.net.bytes_sent)?;
        eq("net.bytes_recv", self.net_bytes_recv, report.net.bytes_recv)?;
        eq(
            "net.peers_joined",
            self.peers_joined,
            report.net.peers_joined,
        )?;
        eq("net.peers_lost", self.peers_lost, report.net.peers_lost)?;
        Ok(())
    }
}

/// The `n` slowest completed fetches, slowest first (for `inspect trace`).
pub fn slowest_fetches(events: &[EventRecord], n: usize) -> Vec<EventRecord> {
    let mut fetches: Vec<EventRecord> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FetchEnd { .. }))
        .copied()
        .collect();
    fetches.sort_by_key(|e| match e.kind {
        EventKind::FetchEnd { ns, .. } => std::cmp::Reverse(ns),
        _ => std::cmp::Reverse(0),
    });
    fetches.truncate(n);
    fetches
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A log₂-bucketed latency histogram (nanosecond samples).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples with `ns < 2^i` (and `>= 2^(i-1)`).
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Record one nanosecond sample.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-quantile sample (within 2× of the true value by construction).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        self.max_ns
    }
}

/// Counters and histograms folded from an event stream: the queryable
/// face of the metrics layer (`fetch_latency`, `stall`, `process`
/// histograms; job/steal/retry/cache counters).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Fold `events` into counters and histograms.
    pub fn from_events(events: &[EventRecord]) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for e in events {
            m.count(e.kind.name(), 1);
            match e.kind {
                EventKind::FetchEnd {
                    bytes, remote, ns, ..
                } => {
                    m.observe("fetch_latency", ns);
                    m.count(
                        if remote {
                            "bytes_remote"
                        } else {
                            "bytes_local"
                        },
                        bytes,
                    );
                }
                EventKind::Stall { ns } => m.observe("stall", ns),
                EventKind::ProcessEnd { units, ns, .. } => {
                    m.observe("process", ns);
                    m.count("units_folded", units);
                }
                EventKind::RobjMerge { bytes, ns } => {
                    m.observe("robj_transfer", ns);
                    m.count("robj_bytes", bytes);
                }
                _ => {}
            }
        }
        m
    }

    fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    fn observe(&mut self, name: &'static str, ns: u64) {
        self.histograms.entry(name).or_default().record(ns);
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram, if any sample was recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Cache hit ratio in [0, 1]; 0 when the cache saw no traffic.
    pub fn cache_hit_ratio(&self) -> f64 {
        let h = self.counter("cache_hit");
        let m = self.counter("cache_miss");
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Render counters and histogram summaries as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>12}", "counter", "value");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<16} {v:>12}");
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                    h.count(),
                    h.mean_ns() / 1e6,
                    h.quantile_ns(0.5) as f64 / 1e6,
                    h.quantile_ns(0.99) as f64 / 1e6,
                    h.max_ns() as f64 / 1e6,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, cluster: u32, slave: u32, kind: EventKind) -> EventRecord {
        EventRecord {
            t_ns,
            cluster: Some(cluster),
            slave: Some(slave),
            kind,
        }
    }

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::JobAssigned {
                chunk: 3,
                stolen: true,
            },
            EventKind::Steal { chunk: 3 },
            EventKind::LeaseReleased {
                chunk: 4,
                charged: false,
            },
            EventKind::FetchStart { chunk: 5 },
            EventKind::FetchEnd {
                chunk: 5,
                bytes: 1 << 20,
                remote: true,
                ns: 12_345,
            },
            EventKind::FetchFailed { chunk: 6, ns: 42 },
            EventKind::FetchDiscarded { chunk: 8 },
            EventKind::Stall { ns: 99 },
            EventKind::ProcessStart { chunk: 5 },
            EventKind::ProcessEnd {
                chunk: 5,
                units: 4096,
                ns: 777,
                stolen: false,
            },
            EventKind::Retry { attempt: 2 },
            EventKind::SlaveRetired { killed: true },
            EventKind::RobjMerge {
                bytes: 64,
                ns: 1_000,
            },
            EventKind::CacheHit { bytes: 512 },
            EventKind::CacheMiss { bytes: 512 },
            EventKind::FaultInjected,
            EventKind::PassBoundary { pass: 1 },
            EventKind::MasterRefill { queue_len: 2 },
            EventKind::NetSent { bytes: 48 },
            EventKind::NetRecv { bytes: 37 },
            EventKind::PeerJoined { cores: 4 },
            EventKind::PeerLost { jobs: 7 },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events: Vec<EventRecord> = all_kinds()
            .into_iter()
            .enumerate()
            .map(|(i, k)| EventRecord {
                t_ns: 1_000_000 + i as u64,
                cluster: if i % 3 == 0 { None } else { Some(i as u32) },
                slave: if i % 2 == 0 { None } else { Some(1) },
                kind: k,
            })
            .collect();
        let text = encode_jsonl(&events);
        assert!(text.starts_with("{\"schema\":\"cloudburst-trace\",\"v\":1}"));
        let back = decode_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_jsonl("").is_err());
        assert!(decode_jsonl("{\"schema\":\"other\",\"v\":1}\n").is_err());
        assert!(decode_jsonl("{\"schema\":\"cloudburst-trace\",\"v\":99}\n").is_err());
        let bad_event = format!(
            "{}\n{{\"t_ns\":1,\"ev\":\"no_such_event\"}}\n",
            "{\"schema\":\"cloudburst-trace\",\"v\":1}"
        );
        let err = decode_jsonl(&bad_event).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("no_such_event"), "{err}");
    }

    #[test]
    fn disabled_handle_is_a_noop() {
        let h = SinkHandle::default();
        assert!(!h.is_enabled());
        h.emit(Some(0), Some(0), EventKind::FaultInjected); // must not panic
        assert_eq!(format!("{h:?}"), "SinkHandle(disabled)");
    }

    #[test]
    fn recording_sink_orders_and_stamps() {
        let sink = RecordingSink::new();
        let h = SinkHandle::new(sink.clone());
        assert!(h.is_enabled());
        h.emit(Some(0), Some(0), EventKind::FetchStart { chunk: 1 });
        h.emit(
            Some(0),
            Some(0),
            EventKind::FetchEnd {
                chunk: 1,
                bytes: 10,
                remote: false,
                ns: 0,
            },
        );
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].t_ns <= evs[1].t_ns, "timestamps are monotonic");
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn manual_clock_stamps_virtual_time() {
        let clock = Arc::new(AtomicU64::new(42));
        let sink = RecordingSink::with_clock(clock.clone());
        let h = SinkHandle::new(sink.clone());
        h.emit(None, None, EventKind::FaultInjected);
        clock.store(1_000, Ordering::Relaxed);
        h.emit(None, None, EventKind::FaultInjected);
        let evs = sink.snapshot();
        assert_eq!(evs[0].t_ns, 42);
        assert_eq!(evs[1].t_ns, 1_000);
    }

    #[test]
    fn invariants_catch_unterminated_fetch() {
        let ok = vec![
            rec(10, 0, 0, EventKind::FetchStart { chunk: 1 }),
            rec(
                20,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 1,
                    remote: false,
                    ns: 10,
                },
            ),
            rec(30, 0, 1, EventKind::FetchStart { chunk: 2 }),
            rec(40, 0, 1, EventKind::FetchFailed { chunk: 2, ns: 10 }),
        ];
        assert_eq!(check_invariants(&ok), Ok(()));

        let dangling = vec![rec(10, 0, 0, EventKind::FetchStart { chunk: 1 })];
        assert!(check_invariants(&dangling).is_err());

        let orphan = vec![rec(
            10,
            0,
            0,
            EventKind::FetchEnd {
                chunk: 1,
                bytes: 1,
                remote: false,
                ns: 5,
            },
        )];
        assert!(check_invariants(&orphan).is_err());
    }

    #[test]
    fn timeline_builds_spans_and_renders() {
        let events = vec![
            rec(
                2_000_000_000,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 1,
                    remote: true,
                    ns: 2_000_000_000,
                },
            ),
            rec(
                6_000_000_000,
                0,
                0,
                EventKind::ProcessEnd {
                    chunk: 1,
                    units: 10,
                    ns: 4_000_000_000,
                    stolen: false,
                },
            ),
            rec(
                10_000_000_000,
                1,
                0,
                EventKind::ProcessEnd {
                    chunk: 2,
                    units: 10,
                    ns: 10_000_000_000,
                    stolen: true,
                },
            ),
        ];
        let tl = Timeline::from_events(&events);
        assert_eq!(tl.spans.len(), 3);
        assert_eq!(tl.horizon_ns, 10_000_000_000);
        assert!((tl.utilization(0, 0) - 0.6).abs() < 1e-12);
        assert!((tl.utilization(1, 0) - 1.0).abs() < 1e-12);
        let g = tl.render_gantt(20);
        assert!(g.contains(GANTT_LEGEND));
        assert!(g.contains("c0/s0"));
        let row1 = g.lines().find(|l| l.starts_with("c1/s0")).unwrap();
        assert_eq!(row1.matches('█').count(), 20, "fully busy row");
    }

    #[test]
    fn summary_folds_counters() {
        let events = vec![
            rec(
                1,
                0,
                0,
                EventKind::JobAssigned {
                    chunk: 1,
                    stolen: false,
                },
            ),
            rec(2, 0, 0, EventKind::Steal { chunk: 9 }),
            rec(
                5,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 100,
                    remote: false,
                    ns: 4,
                },
            ),
            rec(
                9,
                0,
                0,
                EventKind::ProcessEnd {
                    chunk: 1,
                    units: 50,
                    ns: 3,
                    stolen: false,
                },
            ),
            rec(
                12,
                1,
                0,
                EventKind::ProcessEnd {
                    chunk: 9,
                    units: 50,
                    ns: 3,
                    stolen: true,
                },
            ),
            rec(13, 1, 0, EventKind::Retry { attempt: 1 }),
            rec(14, 1, 0, EventKind::SlaveRetired { killed: false }),
            rec(15, 0, 0, EventKind::CacheHit { bytes: 10 }),
            rec(16, 0, 0, EventKind::PassBoundary { pass: 2 }),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.total_jobs(), 2);
        assert_eq!(s.total_stolen(), 1);
        assert_eq!(s.steals, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.slaves_retired, 1);
        assert_eq!(s.slaves_killed, 0);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.passes, 3);
        assert_eq!(s.clusters[&0].bytes_local, 100);
        assert_eq!(s.clusters[&1].stolen, 1);
    }

    #[test]
    fn slowest_fetches_sorts_desc() {
        let mk = |ns| {
            rec(
                ns,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: ns,
                    bytes: 1,
                    remote: false,
                    ns,
                },
            )
        };
        let events = vec![
            mk(5),
            mk(50),
            mk(20),
            rec(1, 0, 0, EventKind::FaultInjected),
        ];
        let top = slowest_fetches(&events, 2);
        assert_eq!(top.len(), 2);
        assert!(matches!(top[0].kind, EventKind::FetchEnd { ns: 50, .. }));
        assert!(matches!(top[1].kind, EventKind::FetchEnd { ns: 20, .. }));
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for ns in [10, 20, 40, 80, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_ns(), 10);
        assert_eq!(h.max_ns(), 1_000_000);
        let p50 = h.quantile_ns(0.5);
        assert!((16..=64).contains(&p50), "p50 bucket bound {p50}");
        assert!(h.quantile_ns(1.0) >= 1_000_000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile_ns(0.5), 0);
        assert_eq!(empty.min_ns(), 0);
    }

    #[test]
    fn metrics_registry_folds_events() {
        let events = vec![
            rec(
                5,
                0,
                0,
                EventKind::FetchEnd {
                    chunk: 1,
                    bytes: 100,
                    remote: true,
                    ns: 4,
                },
            ),
            rec(6, 0, 0, EventKind::CacheHit { bytes: 1 }),
            rec(7, 0, 0, EventKind::CacheHit { bytes: 1 }),
            rec(8, 0, 0, EventKind::CacheMiss { bytes: 1 }),
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.counter("fetch_end"), 1);
        assert_eq!(m.counter("bytes_remote"), 100);
        assert_eq!(m.histogram("fetch_latency").unwrap().count(), 1);
        assert!((m.cache_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        let table = m.render();
        assert!(table.contains("cache_hit"));
        assert!(table.contains("fetch_latency"));
    }
}
