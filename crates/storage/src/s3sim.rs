//! A wall-clock–accurate simulated S3 (or any remote object service).
//!
//! The paper evaluated against the real Amazon S3; we cannot, so
//! [`RemoteStore`] wraps any inner [`ObjectStore`] and imposes the two
//! behaviours that matter to the middleware:
//!
//! * **per-request latency** — every GET pays a fixed round-trip before the
//!   first byte (S3's time-to-first-byte),
//! * **bandwidth** — a *shared* aggregate limit across all concurrent
//!   requests (the service frontend / WAN bottleneck) plus a *per-request*
//!   streaming cap (a single HTTP connection cannot exceed some rate —
//!   this is exactly why the paper's slaves fetch with multiple retrieval
//!   threads).
//!
//! The aggregate limit is enforced by [`Throttle`] (a shared serial
//! bottleneck); the per-connection cap is enforced by additionally sleeping
//! out the remainder of `len / per_conn_bps` if the shared queue was faster.

use crate::store::ObjectStore;
use bytes::Bytes;
use cb_simnet::Throttle;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bandwidth/latency profile of a simulated remote store.
#[derive(Debug, Clone, Copy)]
pub struct RemoteProfile {
    /// Time-to-first-byte of every request.
    pub request_latency: Duration,
    /// Aggregate bytes/sec across all concurrent requests.
    pub aggregate_bps: f64,
    /// Max bytes/sec a single request (connection) can stream.
    pub per_conn_bps: f64,
}

impl RemoteProfile {
    /// No throttling at all (unit tests).
    pub fn unlimited() -> Self {
        RemoteProfile {
            request_latency: Duration::ZERO,
            aggregate_bps: f64::INFINITY,
            per_conn_bps: f64::INFINITY,
        }
    }
}

/// An [`ObjectStore`] decorator imposing a [`RemoteProfile`] in wall-clock
/// time. Writes (`put`) are deliberately *not* throttled: dataset
/// materialization is test scaffolding, not part of the measured system.
pub struct RemoteStore {
    inner: Arc<dyn ObjectStore>,
    profile: RemoteProfile,
    shared: Throttle,
    name: String,
}

impl RemoteStore {
    pub fn new(
        name: impl Into<String>,
        inner: Arc<dyn ObjectStore>,
        profile: RemoteProfile,
    ) -> Self {
        RemoteStore {
            shared: Throttle::new(profile.aggregate_bps, profile.request_latency),
            inner,
            profile,
            name: name.into(),
        }
    }

    /// The profile this store enforces.
    pub fn profile(&self) -> RemoteProfile {
        self.profile
    }

    /// Total bytes served through the throttled path.
    pub fn bytes_served(&self) -> u64 {
        self.shared.total_bytes()
    }

    /// Number of GET requests served.
    pub fn requests_served(&self) -> u64 {
        self.shared.total_requests()
    }
}

impl ObjectStore for RemoteStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn put(&self, key: &str, data: Bytes) -> io::Result<()> {
        self.inner.put(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Bytes> {
        let start = Instant::now();
        // Resolve the GET first: a request that fails (missing key, an
        // injected fault in the backing store) pays the round-trip latency
        // but must not bill `len` bytes of bandwidth to the shared wire —
        // the service never streamed the body. Charging up front both
        // inflated `bytes_served()` with bytes that were never delivered and
        // slept the full transfer time on every doomed retry.
        let body = match self.inner.get_range(key, offset, len) {
            Ok(body) => body,
            Err(e) => {
                self.shared.acquire(0);
                return Err(e);
            }
        };
        // Shared bottleneck: queueing + aggregate bandwidth + latency.
        self.shared.acquire(len);
        // Per-connection streaming cap.
        if self.profile.per_conn_bps.is_finite() {
            let conn_floor = self.profile.request_latency
                + Duration::from_secs_f64(len as f64 / self.profile.per_conn_bps);
            let elapsed = start.elapsed();
            if conn_floor > elapsed {
                std::thread::sleep(conn_floor - elapsed);
            }
        }
        Ok(body)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn store_with(profile: RemoteProfile) -> RemoteStore {
        let inner = Arc::new(MemStore::new("backing"));
        inner.put("obj", Bytes::from(vec![7u8; 1_000_000])).unwrap();
        RemoteStore::new("s3-sim", inner, profile)
    }

    #[test]
    fn data_passes_through_unchanged() {
        let s = store_with(RemoteProfile::unlimited());
        let got = s.get_range("obj", 10, 100).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.iter().all(|&b| b == 7));
        assert_eq!(s.size_of("obj").unwrap(), 1_000_000);
        assert_eq!(s.list(), vec!["obj".to_string()]);
    }

    #[test]
    fn latency_enforced() {
        let s = store_with(RemoteProfile {
            request_latency: Duration::from_millis(25),
            aggregate_bps: f64::INFINITY,
            per_conn_bps: f64::INFINITY,
        });
        let t0 = Instant::now();
        s.get_range("obj", 0, 10).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn per_connection_cap_enforced() {
        // Aggregate is huge, per-conn 1 MB/s: 200 KB takes >= ~200 ms.
        let s = store_with(RemoteProfile {
            request_latency: Duration::ZERO,
            aggregate_bps: f64::INFINITY,
            per_conn_bps: 1.0e6,
        });
        let t0 = Instant::now();
        s.get_range("obj", 0, 200_000).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(180));
    }

    #[test]
    fn counters_track_gets() {
        let s = store_with(RemoteProfile::unlimited());
        s.get_range("obj", 0, 1000).unwrap();
        s.get_range("obj", 0, 500).unwrap();
        assert_eq!(s.bytes_served(), 1500);
        assert_eq!(s.requests_served(), 2);
    }

    #[test]
    fn failed_gets_pay_latency_but_do_not_count_bytes_served() {
        let s = store_with(RemoteProfile {
            request_latency: Duration::from_millis(10),
            // 1 B/s: if a failed GET charged its length we'd sleep for ages
            // and the byte counter would lie.
            aggregate_bps: 1.0,
            per_conn_bps: f64::INFINITY,
        });
        let t0 = Instant::now();
        assert!(s.get_range("no-such-object", 0, 1_000_000).is_err());
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "failed GET slept out a transfer that never happened: {:?}",
            t0.elapsed()
        );
        assert_eq!(s.bytes_served(), 0, "no body streamed, no bytes billed");
        assert_eq!(s.requests_served(), 1, "the request itself still counts");
    }

    #[test]
    fn puts_are_not_throttled() {
        let s = store_with(RemoteProfile {
            request_latency: Duration::from_secs(5),
            aggregate_bps: 1.0,
            per_conn_bps: 1.0,
        });
        let t0 = Instant::now();
        s.put("fresh", Bytes::from_static(b"abc")).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
