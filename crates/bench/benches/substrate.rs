//! Substrate micro-benchmarks: graph construction, exact counters, stream
//! generation + validation, and the samplers every algorithm leans on.

use adjstream_core::common::PairWatcher;
use adjstream_graph::{exact, gen, GraphBuilder, VertexId};
use adjstream_stream::sampling::{BottomKSampler, Reservoir, ThresholdSampler};
use adjstream_stream::{validate_stream, AdjListStream, StreamOrder};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_substrate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let g = gen::gnm(5_000, 40_000, &mut rng);
    let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.lo().0, e.hi().0)).collect();

    let mut grp = c.benchmark_group("substrate");
    grp.sample_size(15);
    grp.measurement_time(std::time::Duration::from_secs(3));
    grp.warm_up_time(std::time::Duration::from_secs(1));
    grp.throughput(Throughput::Elements(edges.len() as u64));
    grp.bench_function("csr_build_40k_edges", |b| {
        b.iter(|| GraphBuilder::from_edges(5_000, edges.iter().copied()).unwrap())
    });
    grp.bench_function("exact_triangles_40k", |b| {
        b.iter(|| exact::count_triangles(&g))
    });
    grp.bench_function("exact_fourcycles_40k", |b| {
        b.iter(|| exact::count_four_cycles(&g))
    });
    grp.bench_function("stream_generate_40k", |b| {
        let s = AdjListStream::new(&g, StreamOrder::shuffled(5_000, 3));
        b.iter(|| s.items().count())
    });
    grp.bench_function("stream_validate_40k", |b| {
        let s = AdjListStream::new(&g, StreamOrder::shuffled(5_000, 3));
        b.iter(|| validate_stream(s.items()).unwrap())
    });
    grp.bench_function("bottomk_offer_100k", |b| {
        b.iter(|| {
            let mut s = BottomKSampler::new(1, 1000);
            for k in 0..100_000u64 {
                s.offer(k);
            }
            s.len()
        })
    });
    grp.bench_function("threshold_accept_100k", |b| {
        let s = ThresholdSampler::new(1, 0.01);
        b.iter(|| (0..100_000u64).filter(|&k| s.accepts(k)).count())
    });
    grp.bench_function("reservoir_offer_100k", |b| {
        b.iter(|| {
            let mut r: Reservoir<u64> = Reservoir::new(1, 1000);
            for k in 0..100_000u64 {
                r.offer(k);
            }
            r.len()
        })
    });
    grp.bench_function("pair_watcher_scan", |b| {
        // 1000 watched pairs, scan a synthetic 64-neighbor list 100 times.
        let mut w = PairWatcher::new();
        for i in 0..1000u32 {
            w.watch(VertexId(i), VertexId(i + 5000));
        }
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..100 {
                w.begin_list();
                for x in 0..64u32 {
                    w.on_item(VertexId(x * 17 % 6000), |_, _| hits += 1);
                }
            }
            hits
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
