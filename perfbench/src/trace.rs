//! The benchmark's own tracing: spans kept in memory, and decorators that
//! record them at the program's public seams.
//!
//! Nothing here reaches inside the program. Spans come from
//! * the benchmark's calls into each layer (`run`, `run_iterative`,
//!   `accept_workers`, `run_head`, `run_worker`, the robj codec and merge);
//! * [`TimedStore`], an [`ObjectStore`] installed on every fabric path with
//!   `DataFabric::wrap_paths_to`, one `store.get` span per ranged GET;
//! * [`TimedApp`], a [`GRApp`] that times `decode_chunk`, one `app.decode`
//!   span per chunk.
//!
//! [`WireTap`] splits the program's own event stream in a multi-worker
//! run: workers' frame events stay out of the shared recording sink, so
//! that stream reconciles with the head's `RunReport`.

use bytes::Bytes;
use cb_storage::layout::ChunkMeta;
use cb_storage::store::ObjectStore;
use cloudburst_core::api::GRApp;
use cloudburst_core::obs::{EventKind, EventSink, SinkHandle};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. `parent` 0 means a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes the spanned operation moved or decoded (0 when not applicable).
    pub bytes: u64,
    pub ok: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span that has begun; close it with [`Spans::end`].
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span recorder. Leaf spans recorded by the decorators attach
/// to the span set with [`Spans::set_current`] (the layer call in flight).
pub struct Spans {
    t0: Instant,
    next_id: AtomicU64,
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(t0: Instant) -> Arc<Spans> {
        Arc::new(Spans {
            t0,
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    pub fn end(&self, open: Open, bytes: u64, ok: bool) {
        self.end_at(open, Instant::now(), bytes, ok);
    }

    pub fn end_at(&self, open: Open, end: Instant, bytes: u64, ok: bool) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
            bytes,
            ok,
        };
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    /// Record a finished leaf span under the current parent.
    fn leaf(&self, name: &'static str, start: Instant, bytes: u64, ok: bool) {
        let open = Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            name,
            start,
        };
        self.end(open, bytes, ok);
    }

    pub fn set_current(&self, id: u64) {
        self.current.store(id, Ordering::Relaxed);
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Spans that completed after the first `from` (a previous `len`).
    pub fn since(&self, from: usize) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned")[from..].to_vec()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"ok\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.bytes, s.ok
            )?;
        }
        Ok(())
    }
}

/// An [`ObjectStore`] decorator recording one `store.get` span per ranged
/// GET, with the bytes returned and whether it failed.
pub struct TimedStore {
    inner: Arc<dyn ObjectStore>,
    spans: Arc<Spans>,
}

impl TimedStore {
    pub fn wrap(inner: Arc<dyn ObjectStore>, spans: &Arc<Spans>) -> Arc<dyn ObjectStore> {
        Arc::new(TimedStore {
            inner,
            spans: Arc::clone(spans),
        })
    }
}

impl ObjectStore for TimedStore {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.inner.put(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let start = Instant::now();
        let got = self.inner.get_range(key, offset, len);
        let bytes = got.as_ref().map_or(0, |b| b.len() as u64);
        self.spans.leaf("store.get", start, bytes, got.is_ok());
        got
    }

    fn size_of(&self, key: &str) -> io::Result<u64> {
        self.inner.size_of(key)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> io::Result<bool> {
        self.inner.delete(key)
    }
}

/// A [`GRApp`] decorator recording one `app.decode` span per
/// `decode_chunk` call; the fold itself is untouched.
pub struct TimedApp<A> {
    inner: A,
    spans: Arc<Spans>,
}

impl<A> TimedApp<A> {
    pub fn new(inner: A, spans: &Arc<Spans>) -> Self {
        TimedApp {
            inner,
            spans: Arc::clone(spans),
        }
    }
}

impl<A: GRApp> GRApp for TimedApp<A> {
    type Unit = A::Unit;
    type RObj = A::RObj;
    type Params = A::Params;

    fn decode_chunk(&self, meta: &ChunkMeta, bytes: &[u8]) -> Vec<A::Unit> {
        let start = Instant::now();
        let units = self.inner.decode_chunk(meta, bytes);
        self.spans
            .leaf("app.decode", start, bytes.len() as u64, true);
        units
    }

    fn init(&self, params: &A::Params) -> A::RObj {
        self.inner.init(params)
    }

    fn local_reduce(&self, params: &A::Params, robj: &mut A::RObj, unit: &A::Unit) {
        self.inner.local_reduce(params, robj, unit)
    }
}

/// A frame a worker wrote to the head: when the send returned, and its size.
#[derive(Debug, Clone, Copy)]
pub struct SentFrame {
    pub cluster: u32,
    pub at: Instant,
    pub bytes: u64,
}

/// Event sink for the workers of a multi-worker run sharing one process
/// with the head. Worker-side `NetSent` events are kept here and `NetRecv`
/// events dropped, not forwarded: the head's `RunReport` counts only the
/// head's frames, so forwarding them would make the stream unreconcilable.
/// Every other worker event goes to the shared sink, on its clock.
pub struct WireTap {
    shared: SinkHandle,
    sent: Mutex<Vec<SentFrame>>,
}

impl WireTap {
    pub fn new(shared: SinkHandle) -> Arc<WireTap> {
        Arc::new(WireTap {
            shared,
            sent: Mutex::new(Vec::new()),
        })
    }

    /// Frames the workers sent, in send order.
    pub fn sent(&self) -> Vec<SentFrame> {
        self.sent.lock().expect("wiretap lock poisoned").clone()
    }
}

impl EventSink for WireTap {
    fn emit(&self, cluster: Option<u32>, slave: Option<u32>, kind: EventKind) {
        match kind {
            EventKind::NetSent { bytes } => {
                self.sent
                    .lock()
                    .expect("wiretap lock poisoned")
                    .push(SentFrame {
                        cluster: cluster.unwrap_or(0),
                        at: Instant::now(),
                        bytes,
                    })
            }
            EventKind::NetRecv { .. } => {}
            other => self.shared.emit(cluster, slave, other),
        }
    }
}
