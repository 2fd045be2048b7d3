//! Criterion microbenchmarks of the telemetry primitives on the query
//! hot path (`moabench` prices them end to end as
//! `obs.telemetry_overhead_ratio`): the per-event cost of a counter
//! increment, a gauge update, a histogram record, a phase-clock add, and
//! a trace-ring slot write — plus the off-path costs a scrape pays
//! (histogram snapshot + percentile, registry text render).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moa_obs::{Counter, Gauge, Histogram, MetricsRegistry, Phase, PhaseAgg, QueryTrace, TraceRing};

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_primitives");

    let counter = Counter::new();
    g.bench_function("counter_incr", |b| {
        b.iter(|| {
            counter.incr();
            black_box(&counter)
        })
    });

    let gauge = Gauge::new();
    g.bench_function("gauge_set_high_water", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) & 0xFF;
            gauge.set(black_box(v));
            black_box(&gauge)
        })
    });

    let hist = Histogram::new();
    g.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 32));
            black_box(&hist)
        })
    });

    g.bench_function("phase_agg_add", |b| {
        let mut agg = PhaseAgg::new();
        let mut ns = 1u64;
        b.iter(|| {
            ns = ns.wrapping_add(37);
            agg.add_ns(Phase::Score, black_box(ns));
            black_box(agg.get(Phase::Score))
        })
    });

    g.bench_function("trace_ring_record", |b| {
        let mut ring = TraceRing::with_capacity(128);
        let mut agg = PhaseAgg::new();
        agg.add_ns(Phase::Decode, 1_000);
        agg.add_ns(Phase::Score, 5_000);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            let mut t = QueryTrace::new(seq, 0, 0);
            t.wall_ns = black_box(6_000);
            t.push_phases(&agg);
            ring.record(t);
            black_box(seq)
        })
    });

    // Scrape-side costs: paid per exposition, never per query.
    let loaded = Histogram::new();
    for i in 0..10_000u64 {
        loaded.record(i * 97 % 1_000_000);
    }
    g.bench_function("histogram_snapshot_p99", |b| {
        b.iter(|| black_box(loaded.snapshot().percentile(0.99)))
    });

    let registry = MetricsRegistry::new();
    for i in 0..16 {
        registry.counter(&format!("bench.counter{i}")).add(i);
        registry.gauge(&format!("bench.gauge{i}")).set(i);
        registry.histogram(&format!("bench.hist{i}")).record(i);
    }
    g.bench_function("registry_render_text", |b| {
        b.iter(|| black_box(registry.render_text()))
    });

    g.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
