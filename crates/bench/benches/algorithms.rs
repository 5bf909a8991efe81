//! Microbenchmarks of the core algorithms, including the paper's claim
//! that marker selection "runs in seconds on every call-loop graph":
//! the simulator's lowered paths, graph construction from a trace,
//! marker detection, BBV collection,
//! the two selection passes, Sequitur, reuse-distance tracking,
//! k-means, and cache simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spm_bbv::{Boundaries, IntervalBbvCollector};
use spm_bench::{BBV_FIXED, ILOWER, LIMIT_MAX, LIMIT_MIN};
use spm_cache::{Cache, CacheConfig};
use spm_core::predict::{MarkovPredictor, PhasePredictor};
use spm_core::{
    partition, select_markers, CallLoopProfiler, MarkerRuntime, SelectConfig, PRELUDE_PHASE,
};
use spm_reuse::{detect_boundaries, sequitur, ReuseTracker};
use spm_sim::{run, Reads, TraceEvent, TraceObserver};
use spm_simpoint::kmeans;
use spm_store::{StoreReader, StoreWriter};
use spm_workloads::build;

/// Counts the events of the full stream, reading only `reads`.
struct Counter {
    reads: Reads,
    events: u64,
}

impl TraceObserver for Counter {
    fn on_batch(&mut self, batch: &[(u64, TraceEvent)]) {
        self.events += batch.len() as u64;
    }

    fn reads(&self) -> Reads {
        self.reads
    }

    fn withheld(&mut self, events: u64) {
        self.events += events;
    }
}

/// The engine alone on gzip `ref`: into an observer that reads no data
/// events (the path of a marker run: straight-line loop bodies stepped
/// whole, addresses nobody reads skipped at their draws) and into one
/// that reads blocks (the path of the BBV collectors).
fn bench_sim(c: &mut Criterion) {
    let w = build("gzip").expect("gzip");
    let mut group = c.benchmark_group("sim");
    let mut all = Counter {
        reads: Reads::ALL,
        events: 0,
    };
    run(&w.program, &w.ref_input, &mut [&mut all]).unwrap();
    group.throughput(Throughput::Elements(all.events));
    for (name, reads) in [
        ("run_gzip_ref_none", Reads::NONE),
        ("run_gzip_ref_blocks", Reads::BLOCKS),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut counter = Counter { reads, events: 0 };
                run(&w.program, &w.ref_input, &mut [&mut counter]).unwrap();
                assert_eq!(counter.events, all.events);
                counter.events
            })
        });
    }
    group.finish();
}

fn bench_callloop_profile(c: &mut Criterion) {
    let w = build("gzip").expect("gzip");
    let mut group = c.benchmark_group("callloop");
    let instrs = run(&w.program, &w.train_input, &mut []).unwrap().instrs;
    group.throughput(Throughput::Elements(instrs));
    group.bench_function("profile_gzip_train", |b| {
        b.iter(|| {
            let mut profiler = CallLoopProfiler::new();
            run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
            profiler.into_graph().unwrap().edges().len()
        })
    });
    // Marker detection alone: plain and limit markers selected on
    // `train` watch a recorded `ref` trace, delivered in engine-sized
    // batches.
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.train_input, &mut [&mut profiler]).unwrap();
    let graph = profiler.into_graph().unwrap();
    let plain = select_markers(&graph, &SelectConfig::new(ILOWER)).markers;
    let limit = select_markers(&graph, &SelectConfig::with_limit(LIMIT_MIN, LIMIT_MAX)).markers;
    let mut tape: Vec<(u64, TraceEvent)> = Vec::new();
    run(&w.program, &w.ref_input, &mut [&mut tape]).unwrap();
    group.throughput(Throughput::Elements(tape.len() as u64));
    group.bench_function("mark_gzip_ref", |b| {
        b.iter(|| {
            let mut by_plain = MarkerRuntime::new(&plain);
            let mut by_limit = MarkerRuntime::new(&limit);
            for batch in tape.chunks(1024) {
                by_plain.on_batch(batch);
                by_limit.on_batch(batch);
            }
            by_plain.into_firings().len() + by_limit.into_firings().len()
        })
    });
    // The same two runtimes fed live by the simulator, which hands them
    // only the call-loop events.
    group.bench_function("mark_gzip_ref_live", |b| {
        b.iter(|| {
            let mut by_plain = MarkerRuntime::new(&plain);
            let mut by_limit = MarkerRuntime::new(&limit);
            run(
                &w.program,
                &w.ref_input,
                &mut [&mut by_plain, &mut by_limit],
            )
            .unwrap();
            by_plain.into_firings().len() + by_limit.into_firings().len()
        })
    });
    group.finish();

    // SimPoint's two BBV collectors, fixed-length and cut by the limit
    // markers' intervals, fed live by the simulator, which hands them
    // only blocks and call-loop events.
    let mut runtime = MarkerRuntime::new(&limit);
    let total = run(&w.program, &w.ref_input, &mut [&mut runtime])
        .unwrap()
        .instrs;
    let cuts: Vec<(u64, usize)> = partition(&runtime.into_firings(), total)
        .iter()
        .skip(1)
        .map(|v| (v.begin, v.phase))
        .collect();
    let mut group = c.benchmark_group("bbv");
    group.throughput(Throughput::Elements(tape.len() as u64));
    group.bench_function("collect_gzip_ref_live", |b| {
        b.iter(|| {
            let mut fixed = IntervalBbvCollector::new(&w.program, Boundaries::Fixed(BBV_FIXED));
            let mut vli = IntervalBbvCollector::new(
                &w.program,
                Boundaries::Explicit {
                    cuts: cuts.clone(),
                    prelude_phase: PRELUDE_PHASE,
                },
            );
            run(&w.program, &w.ref_input, &mut [&mut fixed, &mut vli]).unwrap();
            fixed.into_intervals().len() + vli.into_intervals().len()
        })
    });
    group.finish();
}

fn bench_marker_selection(c: &mut Criterion) {
    // The paper: "The algorithm runs in seconds on every call-loop graph
    // we have collected." Ours runs in microseconds at this scale.
    let w = build("gcc").expect("gcc");
    let mut profiler = CallLoopProfiler::new();
    run(&w.program, &w.ref_input, &mut [&mut profiler]).unwrap();
    let graph = profiler.into_graph().unwrap();
    let mut group = c.benchmark_group("selection");
    group.bench_function("select_nolimit_gcc", |b| {
        b.iter(|| {
            select_markers(&graph, &SelectConfig::new(10_000))
                .markers
                .len()
        })
    });
    group.bench_function("select_limit_gcc", |b| {
        b.iter(|| {
            select_markers(&graph, &SelectConfig::with_limit(10_000, 200_000))
                .markers
                .len()
        })
    });
    group.finish();
}

fn bench_sequitur(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(42);
    let periodic: Vec<u32> = (0..20_000).map(|i| (i % 17) as u32).collect();
    let random: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..64)).collect();
    let mut group = c.benchmark_group("sequitur");
    group.throughput(Throughput::Elements(periodic.len() as u64));
    group.bench_function("periodic_20k", |b| {
        b.iter(|| sequitur::infer(&periodic).size())
    });
    group.bench_function("random_20k", |b| b.iter(|| sequitur::infer(&random).size()));
    group.finish();
}

fn bench_reuse_distance(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0u64..1 << 22)).collect();
    let mut group = c.benchmark_group("reuse");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("track_100k_random", |b| {
        b.iter_batched(
            || ReuseTracker::new(64),
            |mut t| {
                let mut sum = 0u64;
                for &a in &addrs {
                    sum += t.access(a).unwrap_or(0);
                }
                sum
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let points: Vec<Vec<f64>> = (0..2_000)
        .map(|i| {
            let cx = (i % 5) as f64 * 10.0;
            (0..15).map(|_| cx + rng.gen_range(-1.0..1.0)).collect()
        })
        .collect();
    let weights = vec![1.0; points.len()];
    // 2,000 copies of 8 distinct vectors with k = 12: more clusters
    // than distinct points, so the fit reaches the 2-cycle stop.
    let copies: Vec<Vec<f64>> = (0..2_000).map(|i| points[i % 8].clone()).collect();
    let mut group = c.benchmark_group("kmeans");
    group.bench_function("k10_2000x15", |b| {
        b.iter(|| kmeans(&points, &weights, 10, 1).unwrap().distortion)
    });
    group.bench_function("k12_8distinct_2000x15", |b| {
        b.iter(|| kmeans(&copies, &weights, 12, 1).unwrap().distortion)
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0u64..1 << 20)).collect();
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.bench_function("l1_100k_random", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::new(512, 4, 64)),
            |mut cache| {
                for &a in &addrs {
                    cache.access(a, false);
                }
                cache.misses()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_trace_record_replay(c: &mut Criterion) {
    let w = build("art").expect("art");
    let mut group = c.benchmark_group("trace");
    let instrs = run(&w.program, &w.train_input, &mut []).unwrap().instrs;
    group.throughput(Throughput::Elements(instrs));
    let record = || {
        let mut store = Vec::new();
        let mut writer = StoreWriter::new(&mut store);
        run(&w.program, &w.train_input, &mut [&mut writer]).unwrap();
        writer.finish().unwrap();
        store
    };
    group.bench_function("record_art_train", |b| b.iter(|| record().len()));
    let store = record();
    group.bench_function("replay_art_train", |b| {
        b.iter(|| {
            StoreReader::from_bytes(store.clone())
                .unwrap()
                .replay(&mut [])
                .unwrap()
                .events
        })
    });
    group.finish();
}

fn bench_boundary_detection(c: &mut Criterion) {
    // A realistic phased signal: alternating levels + noise.
    let signal: Vec<f64> = (0..4_000)
        .map(|i| if (i / 50) % 2 == 0 { 2.0 } else { 9.0 } + ((i * 37) % 11) as f64 * 0.02)
        .collect();
    let mut group = c.benchmark_group("boundaries");
    group.throughput(Throughput::Elements(signal.len() as u64));
    group.bench_function("otsu_4k_windows", |b| {
        b.iter(|| detect_boundaries(&signal).len())
    });
    group.finish();
}

fn bench_predictors(c: &mut Criterion) {
    let phases: Vec<usize> = (0..50_000).map(|i| [1usize, 2, 3, 2, 1][i % 5]).collect();
    let mut group = c.benchmark_group("predict");
    group.throughput(Throughput::Elements(phases.len() as u64));
    group.bench_function("markov2_50k", |b| {
        b.iter(|| {
            let mut p = MarkovPredictor::new(2);
            for &ph in &phases {
                p.observe(ph);
            }
            p.accuracy()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sim,
        bench_callloop_profile,
        bench_marker_selection,
        bench_sequitur,
        bench_reuse_distance,
        bench_kmeans,
        bench_cache,
        bench_trace_record_replay,
        bench_boundary_detection,
        bench_predictors
);
criterion_main!(benches);
