//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p cb-bench --release --bin repro -- all
//! cargo run -p cb-bench --release --bin repro -- fig3a
//! ```
//!
//! Pass `--json <dir>` after the experiment name to additionally write the
//! selected experiments' rows as JSON files into `<dir>`.
//!
//! Experiments: `fig1`, `fig3a`, `fig3b`, `fig3c`, `table1`, `table2`,
//! `fig4a`, `fig4b`, `fig4c`, `headline`, `ablate-consecutive`,
//! `ablate-contention`, `ablate-stealing`, `ablate-retrieval`,
//! `ablate-jitter`, `ablate-prefetch`, `ablate-overlap`, `ablate-failures`,
//! `multicloud`, `sweep-wan`, `sweep-robj`, `seeds`, `timeline`, `all`.
//! `ablate-overlap --smoke` additionally verifies the ablation is
//! deterministic and that depth 1 beats the serial slave, exiting nonzero
//! otherwise (a CI guard). Figures 3–4 and the tables run on the calibrated
//! discrete-event simulator at full paper scale (120 GB / 960 jobs); fig1
//! runs real code on real data. Simulated numbers are printed next to the
//! paper's where the paper reports them.

use cb_bench::fig1;
use cb_bench::fmt::{pct, s2, table};
use cb_sim::calib::{self, App, NetConstants};
use cb_sim::experiments::{self, DEFAULT_SEED};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let net = NetConstants::default();

    let known: &[&str] = &[
        "fig1",
        "fig3a",
        "fig3b",
        "fig3c",
        "table1",
        "table2",
        "fig4a",
        "fig4b",
        "fig4c",
        "headline",
        "ablate-consecutive",
        "ablate-contention",
        "ablate-stealing",
        "ablate-retrieval",
        "ablate-jitter",
        "ablate-prefetch",
        "ablate-overlap",
        "ablate-failures",
        "multicloud",
        "sweep-wan",
        "sweep-robj",
        "seeds",
        "timeline",
        "all",
    ];
    if !known.contains(&what) {
        eprintln!("unknown experiment `{what}`; one of: {}", known.join(" "));
        std::process::exit(2);
    }

    let run = |name: &str| what == "all" || what == name;

    if run("fig1") {
        print_fig1();
    }
    for (name, app) in [
        ("fig3a", App::Knn),
        ("fig3b", App::KMeans),
        ("fig3c", App::PageRank),
    ] {
        if run(name) {
            print_fig3(name, app, &net);
        }
    }
    if run("table1") {
        print_table1(&net);
    }
    if run("table2") {
        print_table2(&net);
    }
    for (name, app) in [
        ("fig4a", App::Knn),
        ("fig4b", App::KMeans),
        ("fig4c", App::PageRank),
    ] {
        if run(name) {
            print_fig4(name, app, &net);
        }
    }
    if run("headline") {
        print_headline(&net);
    }
    if run("ablate-consecutive") {
        print_ablation(
            "ablate-consecutive — consecutive vs round-robin local grants (knn, env-local)",
            experiments::ablate_consecutive(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-contention") {
        print_ablation(
            "ablate-contention — remote-file selection under contention (knn, env-17/83)",
            experiments::ablate_contention(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-stealing") {
        print_ablation(
            "ablate-stealing — work stealing on/off (knn, env-17/83)",
            experiments::ablate_stealing(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-retrieval") {
        print_ablation(
            "ablate-retrieval — parallel connections per S3 fetch (knn, env-cloud)",
            experiments::ablate_retrieval_streams(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-prefetch") {
        print_ablation(
            "ablate-prefetch — master refill low-water mark under a stressed 1s head RTT (knn, env-cloud)",
            experiments::ablate_prefetch(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-overlap") {
        let smoke = args.iter().any(|a| a == "--smoke");
        let rows = experiments::ablate_overlap(&net, DEFAULT_SEED);
        if smoke {
            let again = experiments::ablate_overlap(&net, DEFAULT_SEED);
            let mut ok = true;
            if rows != again {
                eprintln!("ablate-overlap smoke: rows differ between runs (non-deterministic)");
                ok = false;
            }
            if rows[1].total_s >= rows[0].total_s {
                eprintln!(
                    "ablate-overlap smoke: depth 1 ({:.2}s) does not beat serial ({:.2}s)",
                    rows[1].total_s, rows[0].total_s
                );
                ok = false;
            }
            if !ok {
                std::process::exit(1);
            }
            println!(
                "ablate-overlap smoke: deterministic; depth 1 beats serial ({:.2}s -> {:.2}s, {:.2}x)",
                rows[0].total_s,
                rows[1].total_s,
                rows[0].total_s / rows[1].total_s
            );
        }
        print_ablation(
            "ablate-overlap — slave prefetch pipeline: retrieval overlapped with compute (kmeans, env-cloud)",
            rows,
        );
    }
    if run("multicloud") {
        print_multicloud(&net);
    }
    if run("sweep-wan") {
        print_wan_sweep(&net);
    }
    if run("sweep-robj") {
        print_robj_sweep(&net);
    }
    if run("seeds") {
        print_seed_spread(&net);
    }
    if run("timeline") {
        print_timeline(&net);
    }
    if run("ablate-jitter") {
        print_ablation(
            "ablate-jitter — EC2 variability under pool balancing (kmeans, env-50/50)",
            experiments::ablate_jitter(&net, DEFAULT_SEED),
        );
    }
    if run("ablate-failures") {
        print_failure_ablation(&net);
    }

    if let Some(dir) = json_dir {
        write_json(&dir, what, &net);
    }
}

/// Serialize the selected experiments' structured rows into `dir`.
fn write_json(dir: &std::path::Path, what: &str, net: &NetConstants) {
    std::fs::create_dir_all(dir).expect("create json output dir");
    let run = |name: &str| what == "all" || what == name;
    let write = |name: &str, value: serde_json::Value| {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    for (name, app) in [
        ("fig3a", App::Knn),
        ("fig3b", App::KMeans),
        ("fig3c", App::PageRank),
    ] {
        if run(name) {
            let rows = experiments::run_fig3(app, net, DEFAULT_SEED);
            write(name, serde_json::to_value(&rows).unwrap());
        }
    }
    for (name, app) in [
        ("fig4a", App::Knn),
        ("fig4b", App::KMeans),
        ("fig4c", App::PageRank),
    ] {
        if run(name) {
            let rows = experiments::run_fig4(app, net, DEFAULT_SEED);
            write(name, serde_json::to_value(&rows).unwrap());
        }
    }
    if run("table1") {
        let rows: Vec<_> = App::ALL
            .into_iter()
            .flat_map(|app| {
                let fig3 = experiments::run_fig3(app, net, DEFAULT_SEED);
                experiments::table1(app, &fig3)
            })
            .collect();
        write("table1", serde_json::to_value(&rows).unwrap());
    }
    if run("table2") {
        let rows: Vec<_> = App::ALL
            .into_iter()
            .flat_map(|app| {
                let fig3 = experiments::run_fig3(app, net, DEFAULT_SEED);
                experiments::table2(app, &fig3)
            })
            .collect();
        write("table2", serde_json::to_value(&rows).unwrap());
    }
    if run("sweep-wan") {
        let rows = experiments::sweep_wan(App::PageRank, net, DEFAULT_SEED);
        write("sweep-wan", serde_json::to_value(&rows).unwrap());
    }
    if run("sweep-robj") {
        let rows = experiments::sweep_robj(net, DEFAULT_SEED);
        write("sweep-robj", serde_json::to_value(&rows).unwrap());
    }
    if run("ablate-prefetch") {
        let rows = experiments::ablate_prefetch(net, DEFAULT_SEED);
        write("ablate-prefetch", serde_json::to_value(&rows).unwrap());
    }
    if run("ablate-overlap") {
        let rows = experiments::ablate_overlap(net, DEFAULT_SEED);
        write("ablate-overlap", serde_json::to_value(&rows).unwrap());
    }
    if run("multicloud") {
        let rows = experiments::run_multicloud(App::Knn, net, DEFAULT_SEED);
        write("multicloud", serde_json::to_value(&rows).unwrap());
    }
    if run("ablate-failures") {
        let rows = experiments::ablate_failures(net, DEFAULT_SEED);
        write("ablate-failures", serde_json::to_value(&rows).unwrap());
    }
    if run("seeds") {
        let rows = experiments::seed_sensitivity(App::Knn, net, 5);
        write("seeds", serde_json::to_value(&rows).unwrap());
    }
}

fn banner(title: &str) {
    println!("\n== {title} ==");
}

fn print_fig1() {
    banner("fig1 — API comparison (real execution, 3 APIs × 2 workloads)");
    let mut rows = fig1::wordcount_comparison(2_000_000, 16);
    rows.extend(fig1::kmeans_comparison(400_000, 4, 64, 16));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.api.to_string(),
                format!("{:.3}", r.wall_s),
                r.shuffled_pairs.to_string(),
                r.peak_pairs.to_string(),
                r.state_bytes.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "workload",
                "api",
                "wall(s)",
                "shuffled pairs",
                "peak buffered",
                "state bytes"
            ],
            &table_rows
        )
    );
    println!("paper's claim: combine cuts shuffle volume but still buffers pairs; GR has no intermediate pairs at all.");
}

fn print_fig3(name: &str, app: App, net: &NetConstants) {
    banner(&format!(
        "{name} — Fig. 3 ({}) execution over the five environments [simulated at 120 GB scale]",
        app.name()
    ));
    let rows = experiments::run_fig3(app, net, DEFAULT_SEED);
    let base = rows[0].report.total_s;
    let t: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|r| {
            r.report.clusters.iter().map(move |c| {
                vec![
                    r.env.clone(),
                    format!("({},{})", r.local_cores, r.cloud_cores),
                    c.name.clone(),
                    s2(c.processing_s),
                    s2(c.retrieval_s),
                    s2(c.sync_s),
                    s2(r.report.total_s),
                    pct((r.report.total_s - base) / base),
                ]
            })
        })
        .collect();
    print!(
        "{}",
        table(
            &["env", "cores", "cluster", "proc(s)", "retr(s)", "sync(s)", "total(s)", "vs local"],
            &t
        )
    );
}

fn print_table1(net: &NetConstants) {
    banner("table1 — job assignment per application [simulated | paper]");
    let mut rows = Vec::new();
    for app in App::ALL {
        let fig3 = experiments::run_fig3(app, net, DEFAULT_SEED);
        let ours = experiments::table1(app, &fig3);
        let paper: &[(&str, u64, u64, u64)] = match app {
            App::Knn => &calib::paper::TABLE1_KNN,
            App::KMeans => &calib::paper::TABLE1_KMEANS,
            App::PageRank => &calib::paper::TABLE1_PAGERANK,
        };
        for (o, p) in ours.iter().zip(paper) {
            rows.push(vec![
                o.app.clone(),
                o.env.clone(),
                format!("{} | {}", o.ec2_jobs, p.1),
                format!("{} | {}", o.local_jobs, p.2),
                format!("{} | {}", o.local_stolen, p.3),
            ]);
        }
    }
    print!(
        "{}",
        table(
            &[
                "app",
                "env",
                "EC2 jobs (sim|paper)",
                "local jobs (sim|paper)",
                "stolen (sim|paper)"
            ],
            &rows
        )
    );
}

fn print_table2(net: &NetConstants) {
    banner("table2 — overheads and slowdowns [simulated | paper]");
    let mut rows = Vec::new();
    for app in App::ALL {
        let fig3 = experiments::run_fig3(app, net, DEFAULT_SEED);
        let ours = experiments::table2(app, &fig3);
        let paper: &[(&str, f64, f64, f64, f64)] = match app {
            App::Knn => &calib::paper::TABLE2_KNN,
            App::KMeans => &calib::paper::TABLE2_KMEANS,
            App::PageRank => &calib::paper::TABLE2_PAGERANK,
        };
        for (o, p) in ours.iter().zip(paper) {
            rows.push(vec![
                o.app.clone(),
                o.env.clone(),
                format!("{} | {}", s2(o.global_reduction_s), p.1),
                format!("{} | {}", s2(o.idle_local_s), p.2),
                format!("{} | {}", s2(o.idle_ec2_s), p.3),
                format!("{} | {}", s2(o.total_slowdown_s), p.4),
                pct(o.slowdown_ratio),
            ]);
        }
    }
    print!(
        "{}",
        table(
            &[
                "app",
                "env",
                "glob.red (sim|paper)",
                "idle local",
                "idle EC2",
                "slowdown(s)",
                "ratio"
            ],
            &rows
        )
    );
}

fn print_fig4(name: &str, app: App, net: &NetConstants) {
    banner(&format!(
        "{name} — Fig. 4 ({}) scalability, all data in S3 [simulated | paper speedups]",
        app.name()
    ));
    let rows = experiments::run_fig4(app, net, DEFAULT_SEED);
    let paper: &[f64; 3] = match app {
        App::Knn => &calib::paper::FIG4_SPEEDUPS_KNN,
        App::KMeans => &calib::paper::FIG4_SPEEDUPS_KMEANS,
        App::PageRank => &calib::paper::FIG4_SPEEDUPS_PAGERANK,
    };
    let t: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let local = r.report.cluster("local");
            let ec2 = r.report.cluster("EC2");
            vec![
                format!("({m},{m})", m = r.cores_each),
                s2(r.report.total_s),
                local.map(|c| s2(c.retrieval_s)).unwrap_or_default(),
                ec2.map(|c| s2(c.retrieval_s)).unwrap_or_default(),
                r.speedup_pct
                    .map(|s| format!("{s:.1}%"))
                    .unwrap_or_else(|| "-".into()),
                if i > 0 {
                    format!("{:.1}%", paper[i - 1])
                } else {
                    "-".into()
                },
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "cores",
                "total(s)",
                "retr local(s)",
                "retr EC2(s)",
                "speedup sim",
                "speedup paper"
            ],
            &t
        )
    );
}

fn print_headline(net: &NetConstants) {
    banner("headline — abstract's summary numbers [simulated | paper]");
    let slow = experiments::average_slowdown_pct(net, DEFAULT_SEED);
    let speed = experiments::average_speedup_pct(net, DEFAULT_SEED);
    println!(
        "average hybrid slowdown: {:.2}% | paper {:.2}%",
        slow,
        calib::paper::AVG_SLOWDOWN_PCT
    );
    println!(
        "average speedup per core doubling: {:.1}% | paper {:.1}%",
        speed,
        calib::paper::AVG_SPEEDUP_PCT
    );
}

fn print_ablation(title: &str, rows: Vec<experiments::AblationRow>) {
    banner(title);
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                s2(r.total_s),
                s2(r.retrieval_local_s),
                s2(r.retrieval_ec2_s),
                s2(r.idle_max_s),
                r.stolen_jobs.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "variant",
                "total(s)",
                "retr local(s)",
                "retr EC2(s)",
                "max idle(s)",
                "stolen"
            ],
            &t
        )
    );
}

fn print_failure_ablation(net: &NetConstants) {
    banner("ablate-failures — recovery cost under escalating fault schedules (knn, env-50/50)");
    let rows = experiments::ablate_failures(net, DEFAULT_SEED);
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                s2(r.total_s),
                format!("{:.1}%", r.penalty_pct),
                r.fetch_failures.to_string(),
                r.jobs_reenqueued.to_string(),
                r.slaves_killed.to_string(),
                r.local_stolen.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "fault schedule",
                "total(s)",
                "penalty",
                "fetch fails",
                "re-enqueued",
                "killed",
                "local stolen"
            ],
            &t
        )
    );
    println!("the GR recovery model in action: failures cost re-execution time, never results.");
}

fn print_multicloud(net: &NetConstants) {
    banner("multicloud — extension: local + two cloud providers (knn, 16 cores/site)");
    let rows = experiments::run_multicloud(App::Knn, net, DEFAULT_SEED);
    let t: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|r| {
            r.report.clusters.iter().map(move |c| {
                vec![
                    format!("{:.0}% local", r.frac_local * 100.0),
                    c.name.clone(),
                    c.jobs_processed.to_string(),
                    c.jobs_stolen.to_string(),
                    s2(c.retrieval_s),
                    s2(r.report.total_s),
                ]
            })
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "data split",
                "cluster",
                "jobs",
                "stolen",
                "retr(s)",
                "total(s)"
            ],
            &t
        )
    );
    println!("the middleware is provider-count agnostic: three sites, one job pool.");
}

fn print_wan_sweep(net: &NetConstants) {
    banner(
        "sweep-wan — dedicated high-speed WAN collapses the bursting penalty (pagerank, env-17/83)",
    );
    let rows = experiments::sweep_wan(App::PageRank, net, DEFAULT_SEED);
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}x", r.wan_multiplier),
                s2(r.total_s),
                format!("{:.1}%", r.slowdown_pct),
                s2(r.global_reduction_s),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "WAN capacity",
                "total(s)",
                "slowdown vs env-local",
                "global red(s)"
            ],
            &t
        )
    );
}

fn print_robj_sweep(net: &NetConstants) {
    banner(
        "sweep-robj — reduction-object size vs bursting feasibility (pagerank profile, env-50/50)",
    );
    let rows = experiments::sweep_robj(net, DEFAULT_SEED);
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1} MB", r.robj_mb),
                s2(r.total_s),
                s2(r.global_reduction_s),
                pct(r.global_fraction),
                format!("{:.1}%", r.slowdown_pct),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "robj size",
                "total(s)",
                "global red(s)",
                "share of run",
                "slowdown vs env-local"
            ],
            &t
        )
    );
    println!(
        "the paper's conclusion quantified: bursting stays cheap until the robj rivals the data."
    );
}

fn print_seed_spread(net: &NetConstants) {
    banner(
        "seeds — run-to-run spread under EC2 jitter (knn, 5 seeds per env; paper kept best of >=3)",
    );
    let rows = experiments::seed_sensitivity(App::Knn, net, 5);
    let t: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.env.clone(),
                s2(r.min_s),
                s2(r.mean_s),
                s2(r.max_s),
                format!("{:.2}%", r.cv_pct),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["env", "min(s)", "mean(s)", "max(s)", "cv"], &t)
    );
    println!("pool-based balancing keeps the spread tight even with jittery instances.");
}

fn print_timeline(net: &NetConstants) {
    banner("timeline — per-slave activity, knn env-33/67 (█ process, ▒ fetch, ◆ robj)");
    let (report, timeline) = experiments::run_timeline(App::Knn, net, DEFAULT_SEED);
    print!("{}", timeline.render_gantt(100));
    for (ci, c) in report.clusters.iter().enumerate() {
        println!(
            "{:<6} mean slave utilization {:.1}%",
            c.name,
            timeline.cluster_utilization(ci as u32) * 100.0
        );
    }
}
