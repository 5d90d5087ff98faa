//! Distributed-runtime integration: TCP and loopback runs must reproduce
//! the in-process runtime's result *byte for byte*; silent workers must be
//! detected by heartbeat and their work recovered; bad handshakes must be
//! rejected with a reason.

use cb_apps::gen::WordsSpec;
use cb_apps::scenario::{build_hybrid, HybridEnv, HybridOpts};
use cb_apps::wordcount::WordCountApp;
use cb_net::wire::{Disposition, Message, WireClusterReport, PROTOCOL_VERSION};
use cb_net::{
    connect_with_backoff, fingerprint, handshake_one, loopback_pair, run_head, run_worker,
    run_worker_on_links, serve_head, split_tcp, NetConfig, RobjCodec, WorkerSpec,
};
use cloudburst_core::combine::KeyedSum;
use cloudburst_core::config::RuntimeConfig;
use cloudburst_core::runtime::run;
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const APP: &str = "wordcount";

fn env_for(spec: &WordsSpec, frac_local: f64, local_cores: usize, cloud_cores: usize) -> HybridEnv {
    build_hybrid(
        spec.layout(),
        spec.fill(),
        HybridOpts {
            frac_local,
            local_cores,
            cloud_cores,
            throttle: None,
        },
    )
    .expect("build env")
}

fn single_process_bytes(env: &HybridEnv, cfg: &RuntimeConfig) -> Vec<u8> {
    run(
        &WordCountApp,
        &(),
        &env.layout,
        &env.placement,
        &env.deployment,
        cfg,
    )
    .expect("single-process run")
    .result
    .encode_robj()
}

/// Three OS-thread "processes" over real localhost TCP produce the same
/// final reduction-object bytes as the in-process loopback runtime.
#[test]
fn tcp_three_node_matches_single_process() {
    let spec = WordsSpec {
        vocabulary: 300,
        n_files: 4,
        words_per_file: 4_000,
        words_per_chunk: 500,
        seed: 7,
    };
    let env = env_for(&spec, 0.5, 2, 2);
    let cfg = RuntimeConfig::default();
    let expected = single_process_bytes(&env, &cfg);

    let net = NetConfig::default();
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let out = std::thread::scope(|scope| {
        for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: ci as u32,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("worker run");
            });
        }
        serve_head::<KeyedSum>(
            &listener,
            2,
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            APP,
        )
        .expect("head run")
    });

    assert_eq!(out.result.encode_robj(), expected, "robj bytes must match");
    assert_eq!(out.report.net.peers_joined, 2);
    assert_eq!(out.report.net.peers_lost, 0);
    assert!(out.report.net.frames_recv > 0 && out.report.net.frames_sent > 0);
    assert_eq!(out.report.clusters.len(), 2);
    let jobs: u64 = out.report.clusters.iter().map(|c| c.jobs_processed).sum();
    assert_eq!(
        jobs as usize,
        env.layout.n_jobs(),
        "every job ran exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The in-process runtime is the loopback special case: running the
    /// full wire protocol over in-process channel links (same codec, no
    /// sockets) reproduces `runtime::run` byte for byte across random
    /// workload shapes, splits, and core counts.
    fn loopback_wire_matches_in_process_runtime(
        vocab in 50u64..300,
        n_files in 2usize..5,
        chunks_per_file in 2u64..5,
        frac_sel in 0u8..3,
        local_cores in 1usize..3,
        cloud_cores in 1usize..3,
        seed in any::<u64>(),
    ) {
        let words_per_chunk = 400usize;
        let spec = WordsSpec {
            vocabulary: vocab,
            n_files,
            words_per_file: words_per_chunk * chunks_per_file as usize,
            words_per_chunk,
            seed,
        };
        let frac_local = [0.0, 0.5, 1.0][frac_sel as usize];
        let env = env_for(&spec, frac_local, local_cores, cloud_cores);
        let cfg = RuntimeConfig::default();
        let expected = single_process_bytes(&env, &cfg);

        let net = NetConfig::default();
        let fp = fingerprint(&env.layout, &env.placement, APP);
        let out = std::thread::scope(|scope| {
            let mut peers = Vec::new();
            for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
                let (head_end, worker_end) = loopback_pair();
                let (net, cfg) = (&net, &cfg);
                let (layout, placement, fabric) =
                    (&env.layout, &env.placement, &env.deployment.fabric);
                scope.spawn(move || {
                    let wspec = WorkerSpec {
                        cluster: ci as u32,
                        name: cluster.name.clone(),
                        app_tag: APP.into(),
                        fingerprint: fp,
                    };
                    run_worker_on_links(
                        &WordCountApp,
                        &(),
                        layout,
                        placement,
                        fabric,
                        cluster,
                        &wspec,
                        cfg,
                        net,
                        worker_end.tx,
                        worker_end.rx,
                    )
                    .expect("worker over loopback");
                });
                let peer = handshake_one(head_end.tx, head_end.rx, &peers, net, fp, APP)
                    .expect("loopback handshake");
                peers.push(peer);
            }
            run_head::<KeyedSum>(peers, &env.layout, &env.placement, &cfg, &net)
                .expect("head over loopback")
        });
        prop_assert_eq!(out.result.encode_robj(), expected);
    }
}

/// Both ends tear down as soon as the last robj lands: the head's readers
/// return right after their peer's `RobjShip` (not after a receive poll),
/// and each worker's reader returns at `ShipAck` while its heartbeat thread
/// wakes at once instead of finishing a sleep. The heartbeat is stretched
/// to 2 s, so a sleeping heartbeat thread would hold a worker ~1 s.
#[test]
fn teardown_is_prompt_after_the_last_ship() {
    let spec = WordsSpec {
        vocabulary: 40,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 5,
    };
    let env = env_for(&spec, 0.5, 1, 1);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        heartbeat: Duration::from_secs(2),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let (out, worker_s) = std::thread::scope(|scope| {
        let mut peers = Vec::new();
        let mut workers = Vec::new();
        for (ci, cluster) in env.deployment.clusters.iter().enumerate() {
            let (head_end, worker_end) = loopback_pair();
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            workers.push(scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: ci as u32,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                let t = std::time::Instant::now();
                run_worker_on_links(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    worker_end.tx,
                    worker_end.rx,
                )
                .expect("worker over loopback");
                t.elapsed().as_secs_f64()
            }));
            peers.push(
                handshake_one(head_end.tx, head_end.rx, &peers, net, fp, APP)
                    .expect("loopback handshake"),
            );
        }
        let out = run_head::<KeyedSum>(peers, &env.layout, &env.placement, &cfg, &net)
            .expect("head over loopback");
        let worker_s: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        (out, worker_s)
    });
    assert_eq!(out.result.encode_robj(), single_process_bytes(&env, &cfg));
    assert!(
        out.report.global_reduction_s < 0.05,
        "head spent {:.3} s after the last ship",
        out.report.global_reduction_s
    );
    for s in worker_s {
        assert!(s < 0.5, "a worker took {s:.3} s to return");
    }
}

/// A worker that goes silent (socket open, no heartbeats, never ships) is
/// declared lost; the completions it reported are forfeited and re-run by
/// the surviving worker, and the final result is still exactly right.
#[test]
fn silent_worker_is_lost_and_its_work_recovered() {
    let spec = WordsSpec {
        vocabulary: 200,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_000,
        seed: 13,
    };
    let env = env_for(&spec, 0.5, 2, 1);
    // Stretch real processing (~50 ms/job, 24 jobs on 2 cores) so the head
    // declares the ghost lost (grace = 40 ms × 2) while the survivor is
    // still busy and can absorb the forfeited jobs.
    let cfg = RuntimeConfig {
        synthetic_compute_ns_per_unit: 50_000,
        ..RuntimeConfig::default()
    };
    let expected = single_process_bytes(&env, &RuntimeConfig::default());

    let net = NetConfig {
        heartbeat: Duration::from_millis(40),
        heartbeat_misses: 2,
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|scope| {
        // The survivor: a real worker on the local cluster.
        {
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            let cluster = &env.deployment.clusters[0];
            scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: 0,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("surviving worker");
            });
        }
        // The ghost: handshakes as cluster 1, grabs a batch, *claims* to
        // complete it, then goes silent with the socket held open — the
        // worst case, detectable only by heartbeat.
        {
            let net = &net;
            let done = &done;
            scope.spawn(move || {
                let stream = connect_with_backoff(addr, net, 99).unwrap();
                let (mut tx, mut rx) = split_tcp(stream, net).unwrap();
                tx.send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    cluster: 1,
                    location: 1,
                    cores: 1,
                    name: "ghost".into(),
                    app: APP.into(),
                    fingerprint: fp,
                })
                .unwrap();
                let (welcome, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("welcome");
                assert!(matches!(welcome, Message::Welcome { .. }));
                tx.send(&Message::JobRequest { seq: 1 }).unwrap();
                let (grant, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("grant");
                let Message::JobGrant { jobs, .. } = grant else {
                    panic!("expected JobGrant, got {grant:?}");
                };
                assert!(!jobs.is_empty(), "ghost should get a real batch");
                for chunk in &jobs {
                    tx.send(&Message::Resolve {
                        chunk: *chunk,
                        disposition: Disposition::Completed,
                    })
                    .unwrap();
                }
                // Silence. Hold the socket open until the run is over.
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        let out = serve_head::<KeyedSum>(
            &listener,
            2,
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            APP,
        )
        .expect("head survives peer loss");
        done.store(true, Ordering::Relaxed);
        out
    });

    assert_eq!(
        out.result.encode_robj(),
        expected,
        "result exact despite losing a worker that had completed jobs"
    );
    assert_eq!(out.report.net.peers_joined, 2);
    assert_eq!(out.report.net.peers_lost, 1);
    assert!(
        out.report.recovery.jobs_reenqueued > 0,
        "the ghost's forfeited jobs were re-enqueued"
    );
    assert!(
        out.report.clusters[1].name.contains("lost"),
        "lost peer marked in the report"
    );
}

/// Forfeiture is final: a worker that stalls past the grace window, is
/// declared lost, and *then* wakes up and delivers late `Resolve`s and its
/// `RobjShip` must have those frames dropped — banking them would count
/// the forfeited (and re-run) work twice, and resolving leases that were
/// re-enqueued (or re-granted) would corrupt or panic the pool.
#[test]
fn lost_peer_late_frames_are_dropped() {
    let spec = WordsSpec {
        vocabulary: 200,
        n_files: 4,
        words_per_file: 6_000,
        words_per_chunk: 1_000,
        seed: 29,
    };
    let env = env_for(&spec, 0.5, 2, 1);
    // ~100 ms/job × 24 jobs on 2 cores keeps the head busy well past the
    // ghost's wake-up, so its late frames arrive mid-run.
    let cfg = RuntimeConfig {
        synthetic_compute_ns_per_unit: 100_000,
        ..RuntimeConfig::default()
    };
    let expected = single_process_bytes(&env, &RuntimeConfig::default());

    let net = NetConfig {
        heartbeat: Duration::from_millis(40),
        heartbeat_misses: 2,
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let done = AtomicBool::new(false);

    let out = std::thread::scope(|scope| {
        {
            let (net, cfg) = (&net, &cfg);
            let (layout, placement, fabric) = (&env.layout, &env.placement, &env.deployment.fabric);
            let cluster = &env.deployment.clusters[0];
            scope.spawn(move || {
                let wspec = WorkerSpec {
                    cluster: 0,
                    name: cluster.name.clone(),
                    app_tag: APP.into(),
                    fingerprint: fp,
                };
                run_worker(
                    &WordCountApp,
                    &(),
                    layout,
                    placement,
                    fabric,
                    cluster,
                    &wspec,
                    cfg,
                    net,
                    addr,
                )
                .expect("surviving worker");
            });
        }
        // The zombie: handshakes, takes a batch, claims completions, goes
        // silent past the grace window (40 ms × 2), then *wakes up* and
        // replays its resolutions and ships a bogus robj.
        {
            let net = &net;
            let done = &done;
            scope.spawn(move || {
                let stream = connect_with_backoff(addr, net, 31).unwrap();
                let (mut tx, mut rx) = split_tcp(stream, net).unwrap();
                tx.send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    cluster: 1,
                    location: 1,
                    cores: 1,
                    name: "zombie".into(),
                    app: APP.into(),
                    fingerprint: fp,
                })
                .unwrap();
                let (welcome, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("welcome");
                assert!(matches!(welcome, Message::Welcome { .. }));
                tx.send(&Message::JobRequest { seq: 1 }).unwrap();
                let (grant, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("grant");
                let Message::JobGrant { jobs, .. } = grant else {
                    panic!("expected JobGrant, got {grant:?}");
                };
                assert!(!jobs.is_empty(), "zombie should get a real batch");
                for chunk in &jobs {
                    tx.send(&Message::Resolve {
                        chunk: *chunk,
                        disposition: Disposition::Completed,
                    })
                    .unwrap();
                }
                // Silence well past the grace window: declared lost.
                std::thread::sleep(Duration::from_millis(500));
                // Wake up and replay everything — all of it must be dropped.
                for chunk in &jobs {
                    let _ = tx.send(&Message::Resolve {
                        chunk: *chunk,
                        disposition: Disposition::Completed,
                    });
                }
                let _ = tx.send(&Message::RobjShip {
                    robj: vec![0xDE, 0xAD, 0xBE, 0xEF],
                    report: WireClusterReport::default(),
                });
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        let out = serve_head::<KeyedSum>(
            &listener,
            2,
            &env.layout,
            &env.placement,
            &cfg,
            &net,
            fp,
            APP,
        )
        .expect("head survives a lost peer's late frames");
        done.store(true, Ordering::Relaxed);
        out
    });

    assert_eq!(
        out.result.encode_robj(),
        expected,
        "late frames from the lost peer must not perturb the result"
    );
    assert_eq!(out.report.net.peers_lost, 1);
    assert!(
        out.report.clusters[1].name.contains("lost"),
        "the zombie's late robj must not be banked"
    );
}

/// A missed `JobGrant` poisons the link: the worker stops heartbeating and
/// refuses to ship, so the head declares it lost and forfeits its leases —
/// instead of the worker consuming a stale grant (desynchronizing the
/// pairing) or shipping + saying goodbye with leases still assigned, which
/// would strand them forever and fail the run.
#[test]
fn missed_grant_poisons_link_and_withholds_robj() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 11,
    };
    let env = env_for(&spec, 1.0, 1, 1);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        io_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let (head_end, worker_end) = loopback_pair();

    std::thread::scope(|scope| {
        // A head that welcomes the worker and then never answers its job
        // requests — the worst kind of stall, invisible to the socket.
        let deaf_head = scope.spawn(move || {
            let (mut tx, mut rx) = (head_end.tx, head_end.rx);
            let (hello, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("hello");
            assert!(matches!(hello, Message::Hello { .. }));
            tx.send(&Message::Welcome {
                version: PROTOCOL_VERSION,
                heartbeat_ms: 50,
                fingerprint: fp,
            })
            .unwrap();
            let mut saw_request = false;
            loop {
                match rx.recv(Duration::from_secs(5)) {
                    Ok(Some((Message::JobRequest { .. }, _))) => saw_request = true,
                    Ok(Some((Message::Heartbeat { .. }, _))) => {}
                    Ok(Some((Message::RobjShip { .. }, _))) => {
                        panic!("worker shipped over a poisoned link")
                    }
                    Ok(Some((Message::Goodbye, _))) => {
                        panic!("worker said goodbye over a poisoned link")
                    }
                    Ok(Some((other, _))) => panic!("unexpected frame {other:?}"),
                    Ok(None) => panic!("worker neither died nor spoke within 5 s"),
                    // The worker gave up and dropped the link — exactly
                    // what the head's loss path needs to reclaim leases.
                    Err(_) => break,
                }
            }
            assert!(saw_request, "worker should have requested jobs");
        });

        let wspec = WorkerSpec {
            cluster: 0,
            name: "starved".into(),
            app_tag: APP.into(),
            fingerprint: fp,
        };
        let err = run_worker_on_links(
            &WordCountApp,
            &(),
            &env.layout,
            &env.placement,
            &env.deployment.fabric,
            &env.deployment.clusters[0],
            &wspec,
            &cfg,
            &net,
            worker_end.tx,
            worker_end.rx,
        )
        .expect_err("a worker whose grant never arrives must fail, not ship");
        assert!(
            err.to_string().contains("poisoned"),
            "error should name the poisoned link: {err}"
        );
        deaf_head.join().unwrap();
    });
}

/// A dialer that connects but never sends `Hello` (a port-scanner, a hung
/// client) must not stall legitimate workers: Hellos are read on
/// short-lived threads, so the real worker joins immediately while the
/// silent socket times out in the background.
#[test]
fn silent_dialer_does_not_block_real_worker_join() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 5,
    };
    let env = env_for(&spec, 1.0, 1, 0);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        io_timeout: Duration::from_secs(5),
        accept_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Connect (the backlog accepts it before the head does) and say nothing.
    let _silent = std::net::TcpStream::connect(addr).unwrap();

    std::thread::scope(|scope| {
        let net_ref = &net;
        scope.spawn(move || {
            let stream = connect_with_backoff(addr, net_ref, 3).unwrap();
            let (mut tx, mut rx) = split_tcp(stream, net_ref).unwrap();
            tx.send(&Message::Hello {
                version: PROTOCOL_VERSION,
                cluster: 0,
                location: 0,
                cores: 1,
                name: "prompt".into(),
                app: APP.into(),
                fingerprint: fp,
            })
            .unwrap();
            let (reply, _) = rx.recv(Duration::from_secs(5)).unwrap().expect("reply");
            assert!(matches!(reply, Message::Welcome { .. }), "got {reply:?}");
        });

        let t0 = std::time::Instant::now();
        let peers = cb_net::head::accept_workers(&listener, 1, &cfg, &net, fp, APP)
            .expect("real worker admitted");
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].spec.name, "prompt");
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "silent dialer stalled the join for {:?} (io_timeout is 5 s)",
            t0.elapsed()
        );
    });
}

/// Handshake rejection: wrong protocol version and wrong dataset
/// fingerprint both get an explanatory `Reject`, and the head then accepts
/// a well-formed worker on the same slot.
#[test]
fn bad_handshakes_rejected_with_reason() {
    let spec = WordsSpec {
        vocabulary: 50,
        n_files: 2,
        words_per_file: 800,
        words_per_chunk: 400,
        seed: 3,
    };
    let env = env_for(&spec, 1.0, 1, 0);
    let cfg = RuntimeConfig::default();
    let net = NetConfig {
        accept_timeout: Duration::from_secs(10),
        ..NetConfig::default()
    };
    let fp = fingerprint(&env.layout, &env.placement, APP);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let dial = |hello: Message| -> Message {
        let stream = connect_with_backoff(addr, &net, 1).unwrap();
        let (mut tx, mut rx) = split_tcp(stream, &net).unwrap();
        tx.send(&hello).unwrap();
        rx.recv(Duration::from_secs(5)).unwrap().expect("reply").0
    };
    let hello = |version: u16, fingerprint: u64| Message::Hello {
        version,
        cluster: 0,
        location: 0,
        cores: 1,
        name: "w".into(),
        app: APP.into(),
        fingerprint,
    };

    std::thread::scope(|scope| {
        let (net, cfg) = (&net, &cfg);
        let peers = scope.spawn(move || {
            cb_net::head::accept_workers(&listener, 1, cfg, net, fp, APP).expect("accept")
        });

        match dial(hello(PROTOCOL_VERSION + 1, fp)) {
            Message::Reject { reason } => assert!(
                reason.contains("version"),
                "reason should name the version: {reason}"
            ),
            other => panic!("expected Reject, got {other:?}"),
        }
        match dial(hello(PROTOCOL_VERSION, fp ^ 1)) {
            Message::Reject { reason } => assert!(
                reason.contains("fingerprint"),
                "reason should name the fingerprint: {reason}"
            ),
            other => panic!("expected Reject, got {other:?}"),
        }
        match dial(hello(PROTOCOL_VERSION, fp)) {
            Message::Welcome { heartbeat_ms, .. } => {
                assert_eq!(heartbeat_ms, net.heartbeat.as_millis() as u64)
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
        let peers = peers.join().unwrap();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].spec.name, "w");
    });
}
