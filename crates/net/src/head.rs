//! The head process: global job pool, peer tracking, global reduction.
//!
//! [`serve_head`] accepts the expected complement of workers (handshake:
//! version, app tag, fingerprint, distinct cluster/location) and then hands
//! the connected peers to [`run_head`], which is transport-agnostic — the
//! integration tests drive it with loopback endpoints, the CLI with TCP.
//!
//! # Failure semantics
//!
//! The head tracks each peer's `last_seen` instant (any frame refreshes
//! it; idle workers send heartbeats at the cadence the head announced in
//! `Welcome`). A peer that goes silent for `heartbeat × heartbeat_misses`,
//! or whose connection drops, is declared **lost** — unless it already
//! shipped its reduction object, in which case its work is banked and its
//! death is free. Losing an unshipped peer forfeits everything it held
//! via [`JobPool::forfeit`]: its outstanding leases *and* its completions
//! return to the pending queues (the completions were folded into a
//! reduction object that will now never arrive), so surviving workers
//! re-process them and the run still produces the exact result.
//!
//! Forfeiture is **final**: frames that arrive from a peer after it was
//! declared lost are dropped unprocessed. A stalled-but-alive worker that
//! wakes up and delivers its robj or late lease resolutions must not have
//! them banked — the forfeited work may already be re-granted to (or
//! re-done by) survivors, and counting it twice would break the byte-exact
//! result contract.

use crate::robj::RobjCodec;
use crate::transport::{split_tcp, LinkRx, LinkTx, NetConfig};
use crate::wire::{Disposition, Message, WireClusterReport, PROTOCOL_VERSION};
use cb_storage::layout::{ChunkId, DatasetLayout, LocationId, Placement};
use cloudburst_core::api::ReductionObject;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::obs::EventKind;
use cloudburst_core::report::{ClusterBreakdown, NetStats, RecoveryStats, RunReport};
use cloudburst_core::sched::pool::JobPool;
use cloudburst_core::{RunOutcome, RuntimeError};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What a worker declared about itself at handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSpec {
    /// Report slot (cluster index); each peer must claim a distinct one.
    pub cluster: u32,
    /// The worker's site — the job pool's locality key. Distinct per peer:
    /// peer loss forfeits *by location*.
    pub location: LocationId,
    pub cores: u32,
    pub name: String,
}

/// A connected, handshaken worker as seen by [`run_head`].
pub struct HeadPeer {
    pub spec: PeerSpec,
    pub tx: LinkTx,
    pub rx: LinkRx,
}

/// Reader-thread → head-loop event.
enum FromPeer {
    Frame {
        peer: usize,
        msg: Message,
        bytes: usize,
    },
    /// The connection died (EOF or I/O error). Benign once the peer
    /// shipped; peer loss otherwise.
    Gone { peer: usize, error: String },
}

/// Head-side record of one peer's progress.
struct PeerState {
    spec: PeerSpec,
    last_seen: Instant,
    /// Banked result: encoded robj + final report + arrival instant.
    shipped: Option<(Vec<u8>, WireClusterReport, Instant)>,
    lost: bool,
}

/// Accept and handshake exactly `expected` workers, then run the job-pool
/// protocol to completion and perform the global reduction.
///
/// The listener should already be bound; workers dial it with
/// [`crate::transport::connect_with_backoff`].
#[allow(clippy::too_many_arguments)]
pub fn serve_head<R: ReductionObject + RobjCodec>(
    listener: &TcpListener,
    expected: usize,
    layout: &DatasetLayout,
    placement: &Placement,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> Result<RunOutcome<R>, RuntimeError> {
    let peers = accept_workers(listener, expected, cfg, net, fingerprint, app_tag)
        .map_err(|e| RuntimeError::Io(format!("accepting workers: {e}")))?;
    run_head(peers, layout, placement, cfg, net)
}

/// Accept loop: polls a non-blocking listener until `expected` workers have
/// handshaken or [`NetConfig::accept_timeout`] expires. Rejected dialers
/// (version/fingerprint/app mismatch, duplicate cluster or location) get a
/// `Reject { reason }` frame and are dropped without counting.
///
/// Each accepted connection's `Hello` is read on a short-lived thread, so
/// a dialer that connects but never speaks (a port-scanner, a stalled
/// client) ties up only its own thread for `io_timeout` instead of
/// stalling every legitimate join behind it. Validation and the
/// `Welcome`/`Reject` reply stay on this thread, serialized against
/// `peers`, so duplicate-slot checks cannot race.
pub fn accept_workers(
    listener: &TcpListener,
    expected: usize,
    cfg: &RuntimeConfig,
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> io::Result<Vec<HeadPeer>> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + net.accept_timeout;
    let mut peers: Vec<HeadPeer> = Vec::with_capacity(expected);
    type PendingHello = (LinkTx, LinkRx, Result<Message, String>);
    let (hello_tx, hello_rx) = unbounded::<PendingHello>();
    while peers.len() < expected {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let hello_tx = hello_tx.clone();
                let net = net.clone();
                std::thread::spawn(move || {
                    let (tx, mut rx) = match split_tcp(stream, &net) {
                        Ok(halves) => halves,
                        Err(_) => return,
                    };
                    let hello = match rx.recv(net.io_timeout) {
                        Ok(Some((msg, _bytes))) => Ok(msg),
                        Ok(None) => Err("no Hello before timeout".to_string()),
                        Err(e) => Err(format!("reading Hello: {e}")),
                    };
                    // The accept loop may be gone (deadline, or complement
                    // already full) — then the send fails and the dialer's
                    // socket just drops.
                    let _ = hello_tx.send((tx, rx, hello));
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        // Admit every dialer whose Hello has landed.
        while let Ok((mut tx, rx, hello)) = hello_rx.try_recv() {
            let hello = match hello {
                Ok(hello) => hello,
                Err(reason) => {
                    eprintln!("head: dropped dialer: {reason}");
                    continue;
                }
            };
            if peers.len() == expected {
                let _ = tx.send(&Message::Reject {
                    reason: format!("all {expected} worker slot(s) filled"),
                });
                continue;
            }
            match admit_hello(tx, rx, hello, &peers, net, fingerprint, app_tag) {
                Ok(peer) => {
                    cfg.sink.emit(
                        Some(peer.spec.cluster),
                        None,
                        EventKind::PeerJoined {
                            cores: peer.spec.cores as u64,
                        },
                    );
                    peers.push(peer);
                }
                Err(reason) => {
                    // Rejection already sent (best-effort); keep waiting
                    // for a valid worker on this slot.
                    eprintln!("head: rejected worker: {reason}");
                }
            }
        }
        if peers.len() >= expected {
            break;
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("only {} of {expected} worker(s) joined", peers.len()),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(peers)
}

/// Validate one dialer's `Hello`; answer `Welcome` or `Reject`. Public so
/// loopback harnesses can handshake channel-backed peers the same way the
/// accept loop handshakes sockets.
pub fn handshake_one(
    tx: LinkTx,
    mut rx: LinkRx,
    accepted: &[HeadPeer],
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> Result<HeadPeer, String> {
    // Handshake traffic is deliberately not counted into net stats/events:
    // the report's net counters cover the post-handshake protocol, so the
    // recorded trace and the RunReport reconcile exactly.
    let hello = match rx.recv(net.io_timeout) {
        Ok(Some((msg, _bytes))) => msg,
        Ok(None) => return Err("no Hello before timeout".into()),
        Err(e) => return Err(format!("reading Hello: {e}")),
    };
    admit_hello(tx, rx, hello, accepted, net, fingerprint, app_tag)
}

/// Validate a received `Hello` against the already-accepted peers; answer
/// `Welcome` or `Reject`. Must be called serially with respect to
/// `accepted` (the duplicate-slot checks assume no concurrent admission).
fn admit_hello(
    mut tx: LinkTx,
    rx: LinkRx,
    hello: Message,
    accepted: &[HeadPeer],
    net: &NetConfig,
    fingerprint: u64,
    app_tag: &str,
) -> Result<HeadPeer, String> {
    let reject = |tx: &mut LinkTx, reason: String| -> Result<HeadPeer, String> {
        let _ = tx.send(&Message::Reject {
            reason: reason.clone(),
        });
        Err(reason)
    };
    let Message::Hello {
        version,
        cluster,
        location,
        cores,
        name,
        app,
        fingerprint: their_fp,
    } = hello
    else {
        return reject(&mut tx, "first frame was not Hello".into());
    };
    if version != PROTOCOL_VERSION {
        return reject(
            &mut tx,
            format!("protocol version {version} != {PROTOCOL_VERSION}"),
        );
    }
    if app != app_tag {
        return reject(&mut tx, format!("app {app:?} != head's {app_tag:?}"));
    }
    if their_fp != fingerprint {
        return reject(
            &mut tx,
            format!("dataset fingerprint {their_fp:#x} != head's {fingerprint:#x}"),
        );
    }
    if cores == 0 {
        return reject(&mut tx, "worker declared zero cores".into());
    }
    if accepted.iter().any(|p| p.spec.cluster == cluster) {
        return reject(&mut tx, format!("cluster slot {cluster} already taken"));
    }
    if accepted.iter().any(|p| p.spec.location.0 == location) {
        return reject(
            &mut tx,
            format!("location {location} already taken (peer loss is tracked per location)"),
        );
    }
    let welcome = Message::Welcome {
        version: PROTOCOL_VERSION,
        heartbeat_ms: net.heartbeat.as_millis() as u64,
        fingerprint,
    };
    if let Err(e) = tx.send(&welcome) {
        return Err(format!("sending Welcome: {e}"));
    }
    Ok(HeadPeer {
        spec: PeerSpec {
            cluster,
            location: LocationId(location),
            cores,
            name,
        },
        tx,
        rx,
    })
}

/// Drive handshaken peers through the job-pool protocol and perform the
/// global reduction. Transport-agnostic: peers may sit on TCP sockets or
/// loopback channels.
pub fn run_head<R: ReductionObject + RobjCodec>(
    peers: Vec<HeadPeer>,
    layout: &DatasetLayout,
    placement: &Placement,
    cfg: &RuntimeConfig,
    net: &NetConfig,
) -> Result<RunOutcome<R>, RuntimeError> {
    cfg.validate().map_err(RuntimeError::Validation)?;
    layout
        .validate()
        .map_err(|e| RuntimeError::Validation(e.to_string()))?;
    if peers.is_empty() {
        return Err(RuntimeError::Validation("no workers".into()));
    }
    {
        let mut slots: Vec<u32> = peers.iter().map(|p| p.spec.cluster).collect();
        slots.sort_unstable();
        if slots != (0..peers.len() as u32).collect::<Vec<_>>() {
            return Err(RuntimeError::Validation(format!(
                "peer cluster slots {slots:?} are not exactly 0..{}",
                peers.len()
            )));
        }
    }

    let cluster_of: BTreeMap<LocationId, u32> = peers
        .iter()
        .map(|p| (p.spec.location, p.spec.cluster))
        .collect();
    let mut pool =
        JobPool::new(layout, placement, cfg.pool.clone()).with_sink(cfg.sink.clone(), cluster_of);
    let mut net_stats = NetStats {
        peers_joined: peers.len() as u64,
        ..Default::default()
    };

    let t0 = Instant::now();
    let deadline_grace = net.heartbeat * net.heartbeat_misses.max(1);
    let (event_tx, event_rx) = unbounded::<FromPeer>();
    let done = AtomicBool::new(false);

    let mut txs: Vec<LinkTx> = Vec::with_capacity(peers.len());
    let mut states: Vec<PeerState> = Vec::with_capacity(peers.len());
    let mut rxs: Vec<(usize, LinkRx)> = Vec::with_capacity(peers.len());
    for (i, p) in peers.into_iter().enumerate() {
        txs.push(p.tx);
        states.push(PeerState {
            spec: p.spec,
            last_seen: Instant::now(),
            shipped: None,
            lost: false,
        });
        rxs.push((i, p.rx));
    }

    let run_error: Option<String> = std::thread::scope(|scope| {
        // --- Per-peer readers: frames → central channel. A reader returns
        // right after forwarding its peer's `RobjShip` (nothing after it
        // matters to the head), so the scope join at the last ship is
        // immediate; only a lost peer's reader waits out a poll. ---
        for (peer, mut rx) in rxs {
            let event_tx = event_tx.clone();
            let done = &done;
            scope.spawn(move || loop {
                if done.load(Ordering::Relaxed) {
                    return;
                }
                match rx.recv(Duration::from_millis(100)) {
                    Ok(None) => {}
                    Ok(Some((msg, bytes))) => {
                        let last = matches!(msg, Message::RobjShip { .. } | Message::Goodbye);
                        let _ = event_tx.send(FromPeer::Frame { peer, msg, bytes });
                        if last {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = event_tx.send(FromPeer::Gone {
                            peer,
                            error: e.to_string(),
                        });
                        return;
                    }
                }
            });
        }
        drop(event_tx);

        // --- Head loop: serve the pool until every peer shipped or lost. ---
        let mut first_error: Option<String> = None;
        let poll = (net.heartbeat / 2).clamp(Duration::from_millis(10), Duration::from_millis(250));
        loop {
            if states.iter().all(|s| s.shipped.is_some() || s.lost) {
                break;
            }
            match event_rx.recv_timeout(poll) {
                Ok(FromPeer::Frame { peer, msg, bytes }) => {
                    let cluster = states[peer].spec.cluster;
                    net_stats.frames_recv += 1;
                    net_stats.bytes_recv += bytes as u64;
                    cfg.sink.emit(
                        Some(cluster),
                        None,
                        EventKind::NetRecv {
                            bytes: bytes as u64,
                        },
                    );
                    // Forfeiture is final. A lost-but-alive peer's leases
                    // and completions were re-enqueued at loss and may
                    // already be re-granted or re-done by survivors:
                    // banking its late robj would count that work twice,
                    // and resolving its late leases would corrupt the
                    // pool. Count the bytes, drop the frame.
                    if states[peer].lost {
                        match msg {
                            Message::Goodbye | Message::Heartbeat { .. } => {}
                            dropped => eprintln!(
                                "head: dropping late {} from lost worker {}",
                                frame_name(&dropped),
                                states[peer].spec.name
                            ),
                        }
                        // Fall through to the heartbeat sweep so a frame
                        // flood from a lost peer cannot delay detecting
                        // *other* peers' losses.
                    } else {
                        states[peer].last_seen = Instant::now();
                        handle_frame(
                            peer,
                            msg,
                            &mut states,
                            &mut txs,
                            &mut pool,
                            cfg,
                            &mut net_stats,
                            &mut first_error,
                        );
                    }
                }
                Ok(FromPeer::Gone { peer, error }) => {
                    let s = &mut states[peer];
                    if s.shipped.is_none() && !s.lost {
                        first_error.get_or_insert(format!(
                            "worker {} disconnected before shipping: {error}",
                            s.spec.name
                        ));
                        declare_lost(peer, &mut states, &mut pool, cfg, &mut net_stats);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            // Heartbeat sweep: silence beyond the grace window is loss.
            let now = Instant::now();
            for peer in 0..states.len() {
                let s = &states[peer];
                if s.shipped.is_none()
                    && !s.lost
                    && now.saturating_duration_since(s.last_seen) > deadline_grace
                {
                    first_error.get_or_insert(format!(
                        "worker {} missed {} heartbeat(s)",
                        s.spec.name, net.heartbeat_misses
                    ));
                    declare_lost(peer, &mut states, &mut pool, cfg, &mut net_stats);
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        first_error
    });

    // The run fails only if some chunk could not complete anywhere.
    if !pool.all_done() {
        return Err(RuntimeError::JobsFailed {
            dead: pool.dead_jobs(),
            unfinished: pool.pending() + pool.outstanding(),
            last_error: run_error,
        });
    }

    // --- Global reduction: decode and merge in cluster-index order (the
    // same canonical order the in-process runtime uses). ---
    let mut by_cluster: Vec<&PeerState> = states.iter().collect();
    by_cluster.sort_by_key(|s| s.spec.cluster);
    let mut final_robj: Option<R> = None;
    let mut last_ship: Option<Instant> = None;
    for s in &by_cluster {
        let Some((bytes, _, at)) = &s.shipped else {
            continue;
        };
        let t = Instant::now();
        let robj = R::decode_robj(bytes)
            .map_err(|e| RuntimeError::Io(format!("decoding robj from {}: {e}", s.spec.name)))?;
        match final_robj.as_mut() {
            None => final_robj = Some(robj),
            Some(acc) => acc.merge(robj),
        }
        cfg.sink.emit(
            Some(s.spec.cluster),
            None,
            EventKind::RobjMerge {
                bytes: bytes.len() as u64,
                ns: t.elapsed().as_nanos() as u64,
            },
        );
        last_ship = Some(last_ship.map_or(*at, |l| l.max(*at)));
    }
    let final_robj = final_robj
        .ok_or_else(|| RuntimeError::Validation("no reduction objects produced".into()))?;
    let end = Instant::now();

    // --- Assemble the report from the shipped per-cluster accounts. ---
    let mut recovery = RecoveryStats {
        jobs_reenqueued: pool.reenqueued(),
        ..Default::default()
    };
    let mut clusters = Vec::with_capacity(by_cluster.len());
    for s in &by_cluster {
        let Some((_, rep, at)) = &s.shipped else {
            // A lost peer contributes an empty breakdown: its completed work
            // was re-processed elsewhere and is accounted there.
            clusters.push(ClusterBreakdown {
                name: format!("{} (lost)", s.spec.name),
                cores: s.spec.cores as usize,
                processing_s: 0.0,
                retrieval_s: 0.0,
                sync_s: 0.0,
                wall_s: 0.0,
                idle_end_s: 0.0,
                jobs_processed: 0,
                jobs_stolen: 0,
                bytes_local: 0,
                bytes_remote: 0,
                overlap_saved_s: 0.0,
                fetch_stall_s: 0.0,
            });
            continue;
        };
        recovery.fetch_failures += rep.fetch_failures;
        recovery.retries += rep.retries;
        recovery.slaves_retired += rep.slaves_retired;
        recovery.slaves_killed += rep.slaves_killed;
        let n = rep.slaves.len().max(1) as f64;
        let ns = |f: fn(&crate::wire::WireSlaveStats) -> u64| -> f64 {
            rep.slaves.iter().map(|sl| f(sl) as f64 / 1e9).sum::<f64>() / n
        };
        let proc_s = ns(|sl| sl.processing_ns);
        let retr_s = ns(|sl| sl.retrieval_ns);
        let stall_s = ns(|sl| sl.fetch_stall_ns);
        let overlap_s = rep
            .slaves
            .iter()
            .map(|sl| sl.retrieval_ns.saturating_sub(sl.fetch_stall_ns) as f64 / 1e9)
            .sum::<f64>()
            / n;
        let wall_s = rep.wall_ns as f64 / 1e9;
        clusters.push(ClusterBreakdown {
            name: s.spec.name.clone(),
            cores: s.spec.cores as usize,
            processing_s: proc_s,
            retrieval_s: retr_s,
            sync_s: (wall_s - proc_s - retr_s).max(0.0),
            wall_s,
            idle_end_s: last_ship
                .map(|l| l.saturating_duration_since(*at).as_secs_f64())
                .unwrap_or(0.0),
            jobs_processed: rep.slaves.iter().map(|sl| sl.jobs).sum(),
            jobs_stolen: rep.slaves.iter().map(|sl| sl.stolen_jobs).sum(),
            bytes_local: rep.slaves.iter().map(|sl| sl.bytes_local).sum(),
            bytes_remote: rep.slaves.iter().map(|sl| sl.bytes_remote).sum(),
            overlap_saved_s: overlap_s,
            fetch_stall_s: stall_s,
        });
    }

    let report = RunReport {
        total_s: end.saturating_duration_since(t0).as_secs_f64(),
        global_reduction_s: last_ship
            .map(|l| end.saturating_duration_since(l).as_secs_f64())
            .unwrap_or(0.0),
        robj_bytes: final_robj.size_bytes() as u64,
        clusters,
        recovery,
        cache_hits: 0,
        cache_misses: 0,
        net: net_stats,
    };
    Ok(RunOutcome {
        result: final_robj,
        report,
    })
}

/// One protocol frame from a live (non-lost) peer against the pool.
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    peer: usize,
    msg: Message,
    states: &mut [PeerState],
    txs: &mut [LinkTx],
    pool: &mut JobPool,
    cfg: &RuntimeConfig,
    net_stats: &mut NetStats,
    first_error: &mut Option<String>,
) {
    let cluster = states[peer].spec.cluster;
    let loc = states[peer].spec.location;
    match msg {
        Message::JobRequest { seq } => {
            let grant = pool.request(loc);
            let exhausted = grant.is_empty() && pool.exhausted_for(loc);
            let reply = Message::JobGrant {
                seq,
                jobs: grant.jobs.iter().map(|c| c.0).collect(),
                stolen: grant.stolen,
                exhausted,
            };
            send_counted(&mut txs[peer], &reply, cluster, cfg, net_stats);
        }
        Message::Resolve { chunk, disposition } => {
            // Tolerant resolution: this input crosses a process boundary,
            // so a violated invariant is the *peer's* bug — record it,
            // don't panic the run.
            let chunk = ChunkId(chunk);
            let ok = match disposition {
                Disposition::Completed => pool.try_complete(loc, chunk),
                Disposition::Failed => pool.try_fail(loc, chunk),
                Disposition::Released => pool.try_release(loc, chunk),
            };
            if !ok {
                first_error.get_or_insert(format!(
                    "peer {} resolved {chunk} it does not hold",
                    states[peer].spec.name
                ));
            }
        }
        Message::Heartbeat { .. } => {}
        Message::RobjShip { robj, report } => {
            if let Some(e) = &report.error {
                first_error.get_or_insert_with(|| e.clone());
            }
            states[peer].shipped = Some((robj, report, Instant::now()));
            send_counted(&mut txs[peer], &Message::ShipAck, cluster, cfg, net_stats);
        }
        Message::Goodbye => {}
        other => {
            first_error.get_or_insert(format!(
                "peer {} sent unexpected {other:?}",
                states[peer].spec.name
            ));
        }
    }
}

/// Short display name of a message for drop logging (a `RobjShip`'s full
/// `Debug` form would dump the encoded reduction object).
fn frame_name(msg: &Message) -> &'static str {
    match msg {
        Message::Hello { .. } => "Hello",
        Message::Welcome { .. } => "Welcome",
        Message::Reject { .. } => "Reject",
        Message::JobRequest { .. } => "JobRequest",
        Message::JobGrant { .. } => "JobGrant",
        Message::Resolve { .. } => "Resolve",
        Message::Heartbeat { .. } => "Heartbeat",
        Message::RobjShip { .. } => "RobjShip",
        Message::ShipAck => "ShipAck",
        Message::Goodbye => "Goodbye",
    }
}

/// Send a frame to a peer, counting it into obs + report. A send failure
/// is not handled here: the peer's reader will surface `Gone` and the loss
/// path takes over.
fn send_counted(
    tx: &mut LinkTx,
    msg: &Message,
    cluster: u32,
    cfg: &RuntimeConfig,
    net_stats: &mut NetStats,
) {
    if let Ok(bytes) = tx.send(msg) {
        net_stats.frames_sent += 1;
        net_stats.bytes_sent += bytes as u64;
        cfg.sink.emit(
            Some(cluster),
            None,
            EventKind::NetSent {
                bytes: bytes as u64,
            },
        );
    }
}

/// Forfeit everything an unshipped peer held and mark it lost.
fn declare_lost(
    peer: usize,
    states: &mut [PeerState],
    pool: &mut JobPool,
    cfg: &RuntimeConfig,
    net_stats: &mut NetStats,
) {
    let s = &mut states[peer];
    s.lost = true;
    let forfeited = pool.forfeit(s.spec.location) as u64;
    net_stats.peers_lost += 1;
    cfg.sink.emit(
        Some(s.spec.cluster),
        None,
        EventKind::PeerLost { jobs: forfeited },
    );
}
