//! Reduction benchmarks: local-reduce rates of the three evaluation
//! applications and merge throughput of the combiner library — the costs
//! the simulator's `ns_per_unit` / `merge_bps` parameters abstract.

use cb_apps::gen::{GraphSpec, PointMode, PointsSpec};
use cb_apps::kmeans::{Centroids, KMeansApp};
use cb_apps::knn::{KnnApp, KnnQuery};
use cb_apps::pagerank::{PageRankApp, RankParams};
use cb_simnet::DetRng;
use cloudburst_core::api::{reduce_units, GRApp, ReductionObject};
use cloudburst_core::combine::{KeyedSum, TopK, VecSum};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn bench_local_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_reduce_per_unit");

    // knn: 20k 4-d points against a k=1000 TopK.
    let spec = PointsSpec {
        n_files: 1,
        points_per_file: 20_000,
        points_per_chunk: 20_000,
        dim: 4,
        seed: 1,
        mode: PointMode::Uniform,
    };
    let layout = spec.layout();
    let knn = KnnApp::new(4, 1000);
    let query = KnnQuery {
        query: vec![0.5; 4],
    };
    let mut buf = vec![0u8; layout.chunks[0].len as usize];
    (spec.fill())(&layout.chunks[0], &mut buf);
    let units = knn.decode_chunk(&layout.chunks[0], &buf);
    g.throughput(Throughput::Elements(units.len() as u64));
    g.bench_function("knn_k1000", |b| {
        b.iter(|| {
            let mut robj = knn.init(&query);
            reduce_units(&knn, &query, &mut robj, &units);
            black_box(robj.len())
        })
    });

    // kmeans: same points against k=100 centroids.
    let km = KMeansApp::new(4, 100);
    let mut rng = DetRng::new(2);
    let centroids = Centroids::new(4, (0..400).map(|_| rng.uniform() * 10.0).collect());
    let km_units = km.decode_chunk(&layout.chunks[0], &buf);
    g.bench_function("kmeans_k100", |b| {
        b.iter(|| {
            let mut robj = km.init(&centroids);
            reduce_units(&km, &centroids, &mut robj, &km_units);
            black_box(robj.values()[0])
        })
    });

    // pagerank: 20k edges against a 100k-page rank vector.
    let gspec = GraphSpec {
        n_pages: 100_000,
        n_files: 1,
        edges_per_file: 20_000,
        edges_per_chunk: 20_000,
        seed: 3,
    };
    let glayout = gspec.layout();
    let pr = PageRankApp::new(gspec.n_pages);
    let params = RankParams::uniform(Arc::new({
        let mut d = gspec.out_degrees(&glayout);
        // Avoid zero-degree sources in the bench inner loop.
        for x in d.iter_mut() {
            *x = (*x).max(1);
        }
        d
    }));
    let mut gbuf = vec![0u8; glayout.chunks[0].len as usize];
    (gspec.fill())(&glayout.chunks[0], &mut gbuf);
    let edges = pr.decode_chunk(&glayout.chunks[0], &gbuf);
    g.bench_function("pagerank_100k_pages", |b| {
        b.iter(|| {
            let mut robj = pr.init(&params);
            reduce_units(&pr, &params, &mut robj, &edges);
            black_box(robj.values()[0])
        })
    });
    g.finish();
}

fn bench_merges(c: &mut Criterion) {
    let mut g = c.benchmark_group("robj_merge");

    // VecSum at pagerank scale (the 300 MB robj, scaled to 8 MB).
    let n = 1_000_000;
    let a = VecSum::from_vec(vec![1.0; n]);
    let b2 = VecSum::from_vec(vec![2.0; n]);
    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("vecsum_1M_f64", |bch| {
        bch.iter(|| {
            let mut x = a.clone();
            x.merge(b2.clone());
            black_box(x.values()[0])
        })
    });

    // TopK merge (knn's global reduction).
    let mut rng = DetRng::new(9);
    let mk = |rng: &mut DetRng| {
        let mut t = TopK::new(1000);
        for i in 0..10_000u64 {
            t.offer(rng.uniform(), i);
        }
        t
    };
    let t1 = mk(&mut rng);
    let t2 = mk(&mut rng);
    g.bench_function("topk_1000_merge", |bch| {
        bch.iter(|| {
            let mut x = t1.clone();
            x.merge(t2.clone());
            black_box(x.len())
        })
    });

    // KeyedSum merge (wordcount global reduction).
    let mk_ks = |salt: u64| {
        let mut k = KeyedSum::new();
        let mut rng = DetRng::new(salt);
        for _ in 0..50_000 {
            k.add(rng.index(10_000) as u64, 1.0);
        }
        k
    };
    let k1 = mk_ks(1);
    let k2 = mk_ks(2);
    g.bench_function("keyedsum_10k_keys_merge", |bch| {
        bch.iter(|| {
            let mut x = k1.clone();
            x.merge(k2.clone());
            black_box(x.len())
        })
    });
    g.finish();
}

/// Wordcount's fold and its one sort per ship, at wc-tcp's vocabulary: a
/// `KeyedSum` over 2^18 keys (several MB of tables, past L2). The word
/// stream and the folded object are built outside the timed closures.
fn bench_keyed_fold(c: &mut Criterion) {
    let mut g = c.benchmark_group("keyedsum_2^18_keys");
    let mut rng = DetRng::new(5);
    let words: Vec<u64> = (0..1 << 20).map(|_| rng.index(1 << 18) as u64).collect();
    g.throughput(Throughput::Elements(words.len() as u64));
    g.bench_function("fold_1Mi_words", |b| {
        b.iter(|| {
            let mut robj = KeyedSum::new();
            for &w in &words {
                robj.add(w, 1.0);
            }
            black_box(robj.len())
        })
    });
    let mut folded = KeyedSum::new();
    for &w in &words {
        folded.add(w, 1.0);
    }
    g.throughput(Throughput::Elements(folded.len() as u64));
    g.bench_function("iter_key_ascending", |b| {
        b.iter(|| black_box(folded.iter().fold(0u64, |acc, (k, (_, n))| acc ^ k ^ n)))
    });
    g.finish();
}

criterion_group!(benches, bench_local_reduce, bench_merges, bench_keyed_fold);
criterion_main!(benches);
