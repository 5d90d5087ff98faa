//! The paper's experiments as runnable functions.
//!
//! Each function returns structured rows; the `repro` binary in `cb-bench`
//! formats them next to the paper's reported values. Everything here runs in
//! virtual time — a full figure is milliseconds of wall clock.

use crate::calib::{self, App, NetConstants};
use crate::model::{simulate, simulate_observed};
use cloudburst_core::combine::Moments;
use cloudburst_core::obs::Timeline;
use cloudburst_core::report::RunReport;
use serde::Serialize;

/// Default seed for reported runs (the paper took the best of ≥3 EC2 runs;
/// we are deterministic instead).
pub const DEFAULT_SEED: u64 = 2011;

/// One bar of Fig. 3: an environment plus its simulated report.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    pub env: String,
    pub local_cores: usize,
    pub cloud_cores: usize,
    pub report: RunReport,
}

/// Run the five environments of Fig. 3 for `app`.
pub fn run_fig3(app: App, net: &NetConstants, seed: u64) -> Vec<Fig3Row> {
    calib::fig3_envs(app)
        .into_iter()
        .map(|env| {
            let params = calib::build_params(app, &env, net, seed);
            let report = simulate(params).expect("fig3 simulation failed");
            Fig3Row {
                env: env.name,
                local_cores: env.local_cores,
                cloud_cores: env.cloud_cores,
                report,
            }
        })
        .collect()
}

/// Table I row: job distribution for one hybrid environment.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    pub app: String,
    pub env: String,
    pub ec2_jobs: u64,
    pub local_jobs: u64,
    pub local_stolen: u64,
}

/// Derive Table I from fig3 rows (hybrid envs only).
pub fn table1(app: App, rows: &[Fig3Row]) -> Vec<Table1Row> {
    rows.iter()
        .filter(|r| r.local_cores > 0 && r.cloud_cores > 0)
        .map(|r| {
            let local = r.report.cluster("local").expect("local cluster");
            let ec2 = r.report.cluster("EC2").expect("EC2 cluster");
            Table1Row {
                app: app.name().into(),
                env: r.env.clone(),
                ec2_jobs: ec2.jobs_processed,
                local_jobs: local.jobs_processed,
                local_stolen: local.jobs_stolen,
            }
        })
        .collect()
}

/// Table II row: overhead decomposition for one hybrid environment.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    pub app: String,
    pub env: String,
    pub global_reduction_s: f64,
    pub idle_local_s: f64,
    pub idle_ec2_s: f64,
    /// Seconds over the env-local baseline.
    pub total_slowdown_s: f64,
    /// Slowdown as a fraction of this env's execution time.
    pub slowdown_ratio: f64,
}

/// Derive Table II from fig3 rows (needs the env-local baseline, `rows[0]`).
pub fn table2(app: App, rows: &[Fig3Row]) -> Vec<Table2Row> {
    let baseline = &rows[0].report;
    assert_eq!(rows[0].env, "env-local", "rows[0] must be the baseline");
    rows.iter()
        .filter(|r| r.local_cores > 0 && r.cloud_cores > 0)
        .map(|r| {
            let local = r.report.cluster("local").expect("local cluster");
            let ec2 = r.report.cluster("EC2").expect("EC2 cluster");
            let slow = r.report.slowdown_vs(baseline);
            Table2Row {
                app: app.name().into(),
                env: r.env.clone(),
                global_reduction_s: r.report.global_reduction_s,
                idle_local_s: local.idle_end_s,
                idle_ec2_s: ec2.idle_end_s,
                total_slowdown_s: slow,
                slowdown_ratio: slow / r.report.total_s,
            }
        })
        .collect()
}

/// One point of Fig. 4 plus the speedup over the previous point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    pub cores_each: usize,
    pub report: RunReport,
    /// `(T_prev / T - 1) × 100`, as the paper quotes "X% speedup" per
    /// doubling. `None` for the first point.
    pub speedup_pct: Option<f64>,
}

/// Run the Fig. 4 scalability sweep for `app` (all data in S3).
pub fn run_fig4(app: App, net: &NetConstants, seed: u64) -> Vec<Fig4Row> {
    let mut rows: Vec<Fig4Row> = Vec::new();
    for m in calib::FIG4_CORES {
        let params = calib::build_fig4_params(app, m, net, seed);
        let report = simulate(params).expect("fig4 simulation failed");
        let speedup_pct = rows
            .last()
            .map(|prev| (prev.report.total_s / report.total_s - 1.0) * 100.0);
        rows.push(Fig4Row {
            cores_each: m,
            report,
            speedup_pct,
        });
    }
    rows
}

/// The abstract's headline: mean hybrid slowdown across apps and skews.
pub fn average_slowdown_pct(net: &NetConstants, seed: u64) -> f64 {
    let mut ratios = Vec::new();
    for app in App::ALL {
        let rows = run_fig3(app, net, seed);
        let baseline = &rows[0].report;
        for r in rows
            .iter()
            .filter(|r| r.local_cores > 0 && r.cloud_cores > 0)
        {
            ratios.push(r.report.slowdown_ratio_vs(baseline) * 100.0);
        }
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// The abstract's other headline: mean speedup per core doubling.
pub fn average_speedup_pct(net: &NetConstants, seed: u64) -> f64 {
    let mut speedups = Vec::new();
    for app in App::ALL {
        for r in run_fig4(app, net, seed) {
            if let Some(s) = r.speedup_pct {
                speedups.push(s);
            }
        }
    }
    speedups.iter().sum::<f64>() / speedups.len() as f64
}

/// Ablation result: a labelled variant next to the default.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationRow {
    pub variant: String,
    pub total_s: f64,
    pub retrieval_local_s: f64,
    pub retrieval_ec2_s: f64,
    pub idle_max_s: f64,
    pub stolen_jobs: u64,
}

fn ablation_row(variant: impl Into<String>, report: &RunReport) -> AblationRow {
    AblationRow {
        variant: variant.into(),
        total_s: report.total_s,
        retrieval_local_s: report
            .cluster("local")
            .map(|c| c.retrieval_s)
            .unwrap_or(0.0),
        retrieval_ec2_s: report.cluster("EC2").map(|c| c.retrieval_s).unwrap_or(0.0),
        idle_max_s: report
            .clusters
            .iter()
            .map(|c| c.idle_end_s)
            .fold(0.0, f64::max),
        stolen_jobs: report.total_stolen(),
    }
}

/// Consecutive vs round-robin local job assignment (sequential-read
/// optimization, §III-B).
pub fn ablate_consecutive(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::Knn)[0]; // env-local: pure disk reads
    let mut out = Vec::new();
    for (label, consecutive) in [("consecutive (paper)", true), ("round-robin files", false)] {
        let mut p = calib::build_params(App::Knn, env, net, seed);
        p.pool.consecutive = consecutive;
        out.push(ablation_row(label, &simulate(p).unwrap()));
    }
    out
}

/// Min-contention vs naive remote-file selection for stealing. The naive
/// variant is emulated by making every file look equally contended
/// (factor 1.0 ⇒ the heuristic has nothing to save), versus the calibrated
/// contention penalty with and without the heuristic-friendly batch sizes.
pub fn ablate_contention(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::Knn)[4]; // env-17/83: heavy stealing
    let mut out = Vec::new();
    let p = calib::build_params(App::Knn, env, net, seed);
    out.push(ablation_row(
        "min-readers heuristic (paper)",
        &simulate(p).unwrap(),
    ));
    // Adversarial selection: steal many tiny batches so concurrent readers
    // pile onto few files (remote_batch 1 with contention penalty).
    let mut p = calib::build_params(App::Knn, env, net, seed);
    p.pool.remote_batch = 1;
    p.file_contention_bw_factor = 0.5;
    out.push(ablation_row(
        "fine-grained steal, heavier contention",
        &simulate(p).unwrap(),
    ));
    // No contention effect at all (upper bound).
    let mut p = calib::build_params(App::Knn, env, net, seed);
    p.file_contention_bw_factor = 1.0;
    out.push(ablation_row(
        "no contention penalty (upper bound)",
        &simulate(p).unwrap(),
    ));
    out
}

/// Work stealing on vs off in a skewed environment.
pub fn ablate_stealing(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::Knn)[4]; // env-17/83
    let mut out = Vec::new();
    for (label, stealing) in [("stealing on (paper)", true), ("stealing off", false)] {
        let mut p = calib::build_params(App::Knn, env, net, seed);
        p.pool.allow_stealing = stealing;
        out.push(ablation_row(label, &simulate(p).unwrap()));
    }
    out
}

/// Retrieval connections per remote fetch: 1, 2, 4, 8 (multi-threaded
/// retrieval, §III-B).
pub fn ablate_retrieval_streams(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::Knn)[1]; // env-cloud: all fetches are S3
    let mut out = Vec::new();
    for streams in [1usize, 2, 4, 8] {
        let mut n = *net;
        n.s3_streams = streams;
        let p = calib::build_params(App::Knn, env, &n, seed);
        out.push(ablation_row(
            format!("{streams} retrieval streams"),
            &simulate(p).unwrap(),
        ));
    }
    out
}

/// Master prefetch depth (the refill low-water mark): demand-driven
/// pooling only hides the master↔head round trip if the master re-requests
/// *before* its queue drains (`low_water = 0` refills only once a slave is
/// already waiting). At the paper's 100 ms WAN RTT the batch grants
/// amortize the round trip so completely that prefetch depth is
/// irrelevant — a robustness result — so this ablation stresses the
/// mechanism with a 1 s RTT, where the gap becomes visible.
pub fn ablate_prefetch(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::Knn)[1]; // env-cloud: every grant crosses the WAN RTT
    let mut stressed = *net;
    stressed.wan_rtt = cb_simnet::time::SimDur::from_secs(1);
    [0usize, 2, 4, 8, 16]
        .into_iter()
        .map(|low_water| {
            let mut p = calib::build_params(App::Knn, env, &stressed, seed);
            p.master_low_water = low_water;
            ablation_row(
                format!("low-water {low_water} (1s head RTT)"),
                &simulate(p).expect("prefetch ablation"),
            )
        })
        .collect()
}

/// Slave-side retrieval/compute overlap (double buffering): sweep the slave
/// prefetch depth on the all-remote, compute-heavy configuration (k-means
/// in env-cloud), where every chunk crosses the S3 path but the cores are
/// busy enough per chunk for a background fetch to hide behind the fold.
/// Depth 0 is the paper's serial fetch-then-process slave.
pub fn ablate_overlap(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::KMeans)[1]; // env-cloud: all fetches are S3
    [0usize, 1, 2, 4]
        .into_iter()
        .map(|depth| {
            let mut p = calib::build_params(App::KMeans, env, net, seed);
            p.prefetch_depth = depth;
            let label = if depth == 0 {
                "prefetch depth 0 (serial, paper)".to_string()
            } else {
                format!("prefetch depth {depth}")
            };
            ablation_row(label, &simulate(p).expect("overlap ablation"))
        })
        .collect()
}

/// One row of the failure ablation: a fault schedule next to its cost.
#[derive(Debug, Clone, Serialize)]
pub struct FailureAblationRow {
    pub variant: String,
    pub total_s: f64,
    /// Extra time over the failure-free run, percent.
    pub penalty_pct: f64,
    pub fetch_failures: u64,
    pub jobs_reenqueued: u64,
    pub slaves_killed: u64,
    /// Jobs the local cluster took over from cloud-homed data.
    pub local_stolen: u64,
}

/// Failure ablation (§III-C's recovery claim, quantified): because
/// generalized reduction only needs the reduction objects plus the set of
/// unprocessed chunks, killed slaves and failed fetches cost re-execution
/// time — never correctness. Runs env-50/50 under escalating fault
/// schedules and reports the time penalty of each.
pub fn ablate_failures(net: &NetConstants, seed: u64) -> Vec<FailureAblationRow> {
    use cloudburst_core::config::SlaveKill;
    let env = &calib::fig3_envs(App::Knn)[2]; // env-50/50 hybrid
    let cloud = env.cloud_cores;
    let schedules: Vec<(String, crate::params::FaultPlan)> = vec![
        ("failure-free (paper)".into(), Default::default()),
        (
            "2% fetch faults".into(),
            crate::params::FaultPlan {
                fetch_failure_prob: 0.02,
                ..Default::default()
            },
        ),
        (
            format!("kill {} of {cloud} EC2 cores mid-run", cloud / 2),
            crate::params::FaultPlan {
                kill_schedule: (0..cloud / 2)
                    .map(|s| SlaveKill {
                        cluster: 1,
                        slave: s,
                        after_jobs: 5,
                    })
                    .collect(),
                ..Default::default()
            },
        ),
        (
            "lose the EC2 cluster at startup".into(),
            crate::params::FaultPlan {
                kill_schedule: (0..cloud)
                    .map(|s| SlaveKill {
                        cluster: 1,
                        slave: s,
                        after_jobs: 0,
                    })
                    .collect(),
                ..Default::default()
            },
        ),
    ];
    let mut out = Vec::new();
    let mut baseline_s = 0.0f64;
    for (variant, faults) in schedules {
        let mut p = calib::build_params(App::Knn, env, net, seed);
        p.faults = faults;
        let report = simulate(p).expect("failure ablation");
        if out.is_empty() {
            baseline_s = report.total_s;
        }
        out.push(FailureAblationRow {
            variant,
            total_s: report.total_s,
            penalty_pct: (report.total_s / baseline_s - 1.0) * 100.0,
            fetch_failures: report.recovery.fetch_failures,
            jobs_reenqueued: report.recovery.jobs_reenqueued,
            slaves_killed: report.recovery.slaves_killed,
            local_stolen: report.cluster("local").map(|c| c.jobs_stolen).unwrap_or(0),
        });
    }
    out
}

/// EC2 performance variability: how total time degrades with jitter under
/// pool-based balancing.
pub fn ablate_jitter(net: &NetConstants, seed: u64) -> Vec<AblationRow> {
    let env = &calib::fig3_envs(App::KMeans)[2]; // compute-bound hybrid
    let mut out = Vec::new();
    for cv in [0.0, 0.08, 0.2, 0.4] {
        let mut p = calib::build_params(App::KMeans, env, net, seed);
        for c in &mut p.clusters {
            if c.name == "EC2" {
                c.jitter_cv = cv;
            }
        }
        out.push(ablation_row(
            format!("EC2 jitter cv={cv}"),
            &simulate(p).unwrap(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetConstants {
        NetConstants::default()
    }

    #[test]
    fn fig3_knn_has_five_envs_and_all_jobs() {
        let rows = run_fig3(App::Knn, &net(), DEFAULT_SEED);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.report.total_jobs(), 960, "{}", r.env);
        }
    }

    #[test]
    fn fig3_hybrid_slowdown_grows_with_skew() {
        for app in App::ALL {
            let rows = run_fig3(app, &net(), DEFAULT_SEED);
            let base = rows[0].report.total_s;
            let t5050 = rows[2].report.total_s;
            let t3367 = rows[3].report.total_s;
            let t1783 = rows[4].report.total_s;
            assert!(
                t5050 <= t3367 && t3367 <= t1783,
                "{}: slowdown must grow with skew: {t5050} {t3367} {t1783}",
                app.name()
            );
            assert!(
                t1783 > base,
                "{}: worst skew must be slower than baseline",
                app.name()
            );
        }
    }

    #[test]
    fn table1_stealing_grows_with_skew() {
        for app in App::ALL {
            let rows = run_fig3(app, &net(), DEFAULT_SEED);
            let t1 = table1(app, &rows);
            assert_eq!(t1.len(), 3);
            assert!(t1[0].local_stolen <= t1[1].local_stolen);
            assert!(t1[1].local_stolen <= t1[2].local_stolen);
            // At 50/50 almost nothing is stolen (paper: exactly 0).
            assert!(t1[0].local_stolen <= 8, "{}: {:?}", app.name(), t1[0]);
        }
    }

    #[test]
    fn table2_pagerank_global_reduction_dominates_apps() {
        let knn = table2(App::Knn, &run_fig3(App::Knn, &net(), DEFAULT_SEED));
        let pr = table2(
            App::PageRank,
            &run_fig3(App::PageRank, &net(), DEFAULT_SEED),
        );
        // knn's robj is tiny; pagerank's is 300 MB.
        assert!(knn[0].global_reduction_s < 1.0, "{:?}", knn[0]);
        assert!(
            pr[0].global_reduction_s > 10.0,
            "pagerank robj must cost tens of seconds: {:?}",
            pr[0]
        );
    }

    #[test]
    fn fig4_speedups_are_substantial() {
        for app in App::ALL {
            let rows = run_fig4(app, &net(), DEFAULT_SEED);
            assert_eq!(rows.len(), 4);
            for r in rows.iter().skip(1) {
                let s = r.speedup_pct.unwrap();
                assert!(
                    s > 40.0,
                    "{} at ({},{}) speedup {s}",
                    app.name(),
                    r.cores_each,
                    r.cores_each
                );
            }
        }
    }

    #[test]
    fn fig4_pagerank_scales_worst_at_high_cores() {
        let knn = run_fig4(App::Knn, &net(), DEFAULT_SEED);
        let pr = run_fig4(App::PageRank, &net(), DEFAULT_SEED);
        let last = |rows: &[Fig4Row]| rows.last().unwrap().speedup_pct.unwrap();
        assert!(
            last(&pr) < last(&knn),
            "pagerank's fixed robj cost must hurt scaling: {} vs {}",
            last(&pr),
            last(&knn)
        );
    }

    #[test]
    fn ablations_point_the_right_way() {
        let n = net();
        let cons = ablate_consecutive(&n, DEFAULT_SEED);
        assert!(
            cons[0].total_s < cons[1].total_s,
            "consecutive grants must beat round-robin: {cons:?}"
        );

        let steal = ablate_stealing(&n, DEFAULT_SEED);
        assert!(
            steal[0].total_s < steal[1].total_s,
            "stealing must beat idling: {steal:?}"
        );
        assert!(steal[1].idle_max_s > steal[0].idle_max_s);

        let streams = ablate_retrieval_streams(&n, DEFAULT_SEED);
        assert!(
            streams[3].total_s < streams[0].total_s * 0.6,
            "multi-threaded retrieval must pay off: {streams:?}"
        );
    }
}

/// One row of the multi-cloud extension: a three-site deployment (local +
/// two cloud providers), varying how much data stays local.
#[derive(Debug, Clone, Serialize)]
pub struct MultiCloudRow {
    pub frac_local: f64,
    pub report: RunReport,
}

/// Run the multi-cloud extension (§II's "two different cloud providers"):
/// three 16-core clusters, data split local / cloud-A / cloud-B.
pub fn run_multicloud(app: App, net: &NetConstants, seed: u64) -> Vec<MultiCloudRow> {
    [0.34f64, 0.2, 0.0]
        .into_iter()
        .map(|frac_local| {
            let params = calib::build_multicloud_params(app, frac_local, 16, net, seed);
            let report = simulate(params).expect("multicloud simulation failed");
            MultiCloudRow { frac_local, report }
        })
        .collect()
}

/// One point of the WAN provisioning sweep.
#[derive(Debug, Clone, Serialize)]
pub struct WanSweepRow {
    /// Multiplier over the calibrated 2011 WAN (bandwidths and streams'
    /// per-connection rates scale together).
    pub wan_multiplier: f64,
    pub total_s: f64,
    /// Slowdown of env-17/83 relative to env-local, percent.
    pub slowdown_pct: f64,
    pub global_reduction_s: f64,
}

/// The paper's §I forward-looking claim — *"ongoing developments (such as
/// building dedicated high speed connections ...) are addressing this
/// issue"* — quantified: scale the WAN up and watch the worst-skew
/// (env-17/83) slowdown collapse toward zero. Uses pagerank, the app most
/// sensitive to inter-cluster bandwidth.
pub fn sweep_wan(app: App, net: &NetConstants, seed: u64) -> Vec<WanSweepRow> {
    let baseline = {
        let env = &calib::fig3_envs(app)[0];
        simulate(calib::build_params(app, env, net, seed)).expect("baseline")
    };
    [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0]
        .into_iter()
        .map(|mult| {
            let mut n = *net;
            n.wan_bps *= mult;
            n.wan_conn_bps *= mult;
            n.robj_conn_bps *= mult;
            let env = &calib::fig3_envs(app)[4]; // env-17/83
            let report = simulate(calib::build_params(app, env, &n, seed)).expect("sweep");
            WanSweepRow {
                wan_multiplier: mult,
                total_s: report.total_s,
                slowdown_pct: (report.total_s / baseline.total_s - 1.0) * 100.0,
                global_reduction_s: report.global_reduction_s,
            }
        })
        .collect()
}

/// Seed-sensitivity row: run-to-run spread of one environment under EC2
/// jitter.
#[derive(Debug, Clone, Serialize)]
pub struct SeedSpreadRow {
    pub env: String,
    pub min_s: f64,
    pub mean_s: f64,
    pub max_s: f64,
    /// Coefficient of variation across seeds, percent.
    pub cv_pct: f64,
}

/// The paper ran every EC2 configuration "at least three times" and kept
/// the shortest, because of instance variability. This experiment
/// quantifies that spread in the model: `n_seeds` independent runs per
/// environment, reporting min/mean/max total time.
pub fn seed_sensitivity(app: App, net: &NetConstants, n_seeds: u64) -> Vec<SeedSpreadRow> {
    assert!(n_seeds >= 2, "need at least two seeds for a spread");
    calib::fig3_envs(app)
        .iter()
        .map(|env| {
            let mut moments = Moments::new();
            let (mut min_s, mut max_s) = (f64::INFINITY, f64::NEG_INFINITY);
            for seed in 0..n_seeds {
                let params = calib::build_params(app, env, net, DEFAULT_SEED + seed);
                let total_s = simulate(params).expect("seed run").total_s;
                moments.observe(total_s);
                min_s = min_s.min(total_s);
                max_s = max_s.max(total_s);
            }
            SeedSpreadRow {
                env: env.name.clone(),
                min_s,
                mean_s: moments.mean(),
                max_s,
                cv_pct: 100.0 * moments.variance().sqrt() / moments.mean(),
            }
        })
        .collect()
}

/// One point of the reduction-object size sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RobjSweepRow {
    pub robj_mb: f64,
    pub total_s: f64,
    pub global_reduction_s: f64,
    /// Fraction of execution spent in the global reduction.
    pub global_fraction: f64,
    /// Slowdown of env-50/50 over env-local with the same robj size.
    pub slowdown_pct: f64,
}

/// The paper's feasibility threshold (§IV-B): *"if the reduction object
/// size increases relative to input data size, it may not be feasible to
/// use cloud bursting due to the increasing costs of transferring the
/// reduction object."* Sweep the robj from kilobytes to gigabytes on the
/// pagerank profile and watch the global reduction swallow the run.
pub fn sweep_robj(net: &NetConstants, seed: u64) -> Vec<RobjSweepRow> {
    let envs = calib::fig3_envs(App::PageRank);
    [0.3f64, 30.0, 300.0, 1_000.0, 3_000.0]
        .into_iter()
        .map(|mb| {
            let robj_bytes = (mb * 1e6) as u64;
            let mut base = calib::build_params(App::PageRank, &envs[0], net, seed);
            base.robj_bytes = robj_bytes;
            let baseline = simulate(base).expect("robj sweep baseline");
            let mut p = calib::build_params(App::PageRank, &envs[2], net, seed);
            p.robj_bytes = robj_bytes;
            let report = simulate(p).expect("robj sweep");
            RobjSweepRow {
                robj_mb: mb,
                total_s: report.total_s,
                global_reduction_s: report.global_reduction_s,
                global_fraction: report.global_reduction_s / report.total_s,
                slowdown_pct: (report.total_s / baseline.total_s - 1.0) * 100.0,
            }
        })
        .collect()
}

/// An observed run of one hybrid environment, for timeline rendering:
/// returns the report and the per-slave [`Timeline`] built from the run's
/// event stream.
pub fn run_timeline(app: App, net: &NetConstants, seed: u64) -> (RunReport, Timeline) {
    let env = &calib::fig3_envs(app)[3]; // env-33/67: both stealing and idle
    let params = calib::build_params(app, env, net, seed);
    let (report, events) = simulate_observed(params).expect("observed simulation failed");
    (report, Timeline::from_events(&events))
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn prefetch_hides_head_rtt() {
        let rows = ablate_prefetch(&NetConstants::default(), DEFAULT_SEED);
        assert_eq!(rows.len(), 5);
        // Deep prefetch must clearly beat no prefetch under a 1s RTT.
        assert!(
            rows.last().unwrap().total_s < rows[0].total_s * 0.98,
            "prefetch should hide the head RTT: {rows:?}"
        );
    }

    #[test]
    fn overlap_ablation_rewards_prefetch_deterministically() {
        let n = NetConstants::default();
        let rows = ablate_overlap(&n, DEFAULT_SEED);
        assert_eq!(rows.len(), 4);
        assert!(
            rows[1].total_s < rows[0].total_s,
            "double buffering must beat the serial slave: {rows:?}"
        );
        for r in &rows[1..] {
            assert!(
                r.total_s <= rows[0].total_s,
                "deeper prefetch must never lose to serial: {rows:?}"
            );
        }
        let again = ablate_overlap(&n, DEFAULT_SEED);
        assert_eq!(rows, again, "the ablation must be deterministic");
    }

    #[test]
    fn multicloud_terminates_and_conserves() {
        let rows = run_multicloud(App::Knn, &NetConstants::default(), DEFAULT_SEED);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.report.total_jobs(), 960, "frac={}", r.frac_local);
            assert_eq!(r.report.clusters.len(), 3);
            // Each cloud processes work; nobody is starved outright.
            for c in &r.report.clusters {
                assert!(
                    c.jobs_processed > 0,
                    "{} idle at frac={}",
                    c.name,
                    r.frac_local
                );
            }
        }
        // With no local data, the local cluster's work is all stolen.
        let all_cloud = &rows[2];
        let local = all_cloud.report.cluster("local").unwrap();
        assert_eq!(local.jobs_stolen, local.jobs_processed);
    }

    #[test]
    fn wan_sweep_slowdown_collapses() {
        let rows = sweep_wan(App::PageRank, &NetConstants::default(), DEFAULT_SEED);
        assert_eq!(rows.len(), 6);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.slowdown_pct < first.slowdown_pct / 2.0,
            "a 32x WAN should collapse the skew penalty: {} -> {}",
            first.slowdown_pct,
            last.slowdown_pct
        );
        assert!(
            last.global_reduction_s < first.global_reduction_s / 4.0,
            "robj transfer should get much cheaper: {} -> {}",
            first.global_reduction_s,
            last.global_reduction_s
        );
        // Totals are non-increasing in WAN capacity.
        for w in rows.windows(2) {
            assert!(w[1].total_s <= w[0].total_s * 1.001);
        }
    }

    #[test]
    fn seed_spread_is_tight_for_long_runs() {
        let rows = seed_sensitivity(App::Knn, &NetConstants::default(), 4);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.min_s <= r.mean_s && r.mean_s <= r.max_s, "{r:?}");
            // Long-running pooled workloads absorb jitter: spread under 5%.
            assert!(r.cv_pct < 5.0, "spread too wide: {r:?}");
        }
        // Hybrid envs (EC2 jitter cv=0.08 on half the cores) still vary a
        // bit more than... actually env-local has cv=0.02 local-only: its
        // spread should be the smallest or near it.
        let local = &rows[0];
        let worst = rows.iter().map(|r| r.cv_pct).fold(0.0, f64::max);
        assert!(local.cv_pct <= worst + 1e-9);
    }

    #[test]
    fn robj_sweep_shows_the_feasibility_cliff() {
        let rows = sweep_robj(&NetConstants::default(), DEFAULT_SEED);
        assert_eq!(rows.len(), 5);
        // Global-reduction share grows monotonically with robj size...
        for w in rows.windows(2) {
            assert!(
                w[1].global_reduction_s > w[0].global_reduction_s,
                "{rows:?}"
            );
        }
        // ...and at gigabyte scale it dominates the hybrid run.
        let last = rows.last().unwrap();
        assert!(
            last.global_fraction > 0.3,
            "3 GB robj should dominate: {last:?}"
        );
        assert!(
            rows[0].slowdown_pct < 10.0,
            "tiny robj keeps bursting cheap: {:?}",
            rows[0]
        );
        assert!(
            last.slowdown_pct > 30.0,
            "huge robj makes bursting infeasible: {last:?}"
        );
    }

    #[test]
    fn failure_ablation_costs_time_never_jobs() {
        let rows = ablate_failures(&NetConstants::default(), DEFAULT_SEED);
        assert_eq!(rows.len(), 4);
        let base = &rows[0];
        assert_eq!(base.fetch_failures, 0);
        assert_eq!(base.slaves_killed, 0);
        // Fetch faults at 2% over 960 jobs must both occur and be re-run.
        assert!(rows[1].fetch_failures > 0, "{rows:?}");
        assert_eq!(rows[1].fetch_failures, rows[1].jobs_reenqueued);
        // Losing the whole cloud forces the local cluster to steal roughly
        // half the dataset, at a large but finite cost.
        let lost = rows.last().unwrap();
        assert!(lost.slaves_killed as usize > 0);
        assert!(
            lost.local_stolen > 400,
            "local must absorb the cloud's ~480 jobs: {lost:?}"
        );
        assert!(
            lost.penalty_pct > rows[1].penalty_pct,
            "total cluster loss must cost more than sparse faults: {rows:?}"
        );
    }

    #[test]
    fn timeline_shows_busy_slaves() {
        let (report, timeline) = run_timeline(App::Knn, &NetConstants::default(), DEFAULT_SEED);
        assert_eq!(report.total_jobs(), 960);
        assert!(!timeline.spans.is_empty());
        // Pool balancing keeps every cluster quite busy.
        for (ci, c) in report.clusters.iter().enumerate() {
            let u = timeline.cluster_utilization(ci as u32);
            assert!(u > 0.7, "cluster {} utilization only {u:.2}", c.name);
        }
        let gantt = timeline.render_gantt(80);
        assert!(gantt.lines().count() >= 33, "one row per slave plus header");
    }

    /// The timeline built from the event stream and the report's per-cluster
    /// breakdown are two views of one run: a cluster's busy time on the
    /// timeline is its report `processing_s + retrieval_s`.
    #[test]
    fn timeline_busy_time_matches_report() {
        let net = NetConstants::default();
        for app in App::ALL {
            for env in calib::fig3_envs(app) {
                for prefetch_depth in [0, 1] {
                    for fault_rate in [0.0, 0.05] {
                        let mut params = calib::build_params(app, &env, &net, DEFAULT_SEED);
                        params.prefetch_depth = prefetch_depth;
                        params.faults.fetch_failure_prob = fault_rate;
                        let (report, events) = simulate_observed(params).unwrap();
                        let timeline = Timeline::from_events(&events);
                        let horizon_s = timeline.horizon_ns as f64 / 1e9;
                        for (ci, c) in report.clusters.iter().enumerate() {
                            let busy_s = timeline.cluster_utilization(ci as u32) * horizon_s;
                            let want_s = c.processing_s + c.retrieval_s;
                            assert!(
                                (busy_s - want_s).abs() <= 1e-9 * want_s,
                                "{} {} {} depth {prefetch_depth} faults {fault_rate}: \
                                 timeline busy {busy_s} s, report {want_s} s",
                                app.name(),
                                env.name,
                                c.name,
                            );
                        }
                    }
                }
            }
        }
    }
}
