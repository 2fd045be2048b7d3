//! Counting-allocator proof of the zero-allocation steady state.
//!
//! The arena's contract: once a [`QueryScratch`] has served one query of
//! a given shape, every further query through
//! [`DaatSearcher::search_into`] / [`DaatSearcher::search_exhaustive_into`]
//! performs **zero heap allocations** — cursor decode buffers, bound work
//! lists, the short-run merge's buffers, the top-N heap, and the result
//! vector are all reused arena state. A `#[global_allocator]` wrapper counts every allocation and
//! reallocation; the steady-state phase must leave the counter untouched.
//! The pruned kernel's window lanes are arena state too: they grow on the
//! first window a query shape decodes and are kept. The tests of the
//! windowed kernel call it directly (`search_windowed_into`), since the
//! tiny preset's runs are all short and `search_into` answers those with
//! the short-run merge.
//!
//! (This is an integration test so the counting allocator owns the whole
//! test binary; unit tests in the crate keep the system allocator.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};
use moa_ir::daat::WINDOW;
use moa_ir::{BoundGate, DaatSearcher, InvertedIndex, QueryScratch, RankingModel};

struct CountingAlloc;

// Per-thread counter: the libtest harness thread allocates (output
// buffering) concurrently with the test thread, so a process-global
// counter would flake. The const initializer keeps thread-local access
// itself allocation-free.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_queries_allocate_nothing() {
    let collection = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let daat = DaatSearcher::new(&index, RankingModel::default());
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();

    // A mixed workload: several widths, both frequent and rare terms.
    let queries = generate_queries(
        &collection,
        &QueryConfig {
            num_queries: 12,
            bias: DfBias::TrecLike { high_df_mix: 0.5 },
            seed: 0xA110C,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    let n = 10usize;

    // Warm-up: first contact grows every arena buffer to the workload's
    // high-water mark and triggers the one-time lazy ScoreBounds build.
    let mut expected: Vec<Vec<(u32, f64)>> = Vec::new();
    for q in &queries {
        let _ = daat
            .search_windowed_into(&q.terms, n, &gate, &mut scratch)
            .expect("valid query");
        let _ = daat
            .search_exhaustive_into(&q.terms, n, &gate, &mut scratch)
            .expect("valid query");
        expected.push(scratch.out.clone());
    }

    // Steady state: the same workload, five more rounds, pruned and
    // exhaustive — not a single allocation (or reallocation) allowed.
    let before = allocations();
    let mut checksum = 0usize;
    for _ in 0..5 {
        for q in &queries {
            let stats = daat
                .search_windowed_into(&q.terms, n, &gate, &mut scratch)
                .expect("valid query");
            checksum += stats.postings_scanned + scratch.out.len();
            let stats = daat
                .search_exhaustive_into(&q.terms, n, &gate, &mut scratch)
                .expect("valid query");
            checksum += stats.postings_scanned + scratch.out.len();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state queries performed {} heap allocations",
        after - before
    );
    assert!(checksum > 0, "the measured loop really executed queries");
    // Telemetry was live the whole time: the per-query phase aggregate
    // (gate pass / decode / score / merge stage clocks) recorded inside
    // the measured loop, and still nothing allocated — the observability
    // layer rides the same arena contract.
    assert!(
        !scratch.phases().is_empty(),
        "stage clocks must have recorded during the steady-state loop"
    );

    // And the arena-path answers still match the warm-up round's results
    // (reuse never changes an answer).
    for (i, q) in queries.iter().enumerate() {
        let _ = daat
            .search_exhaustive_into(&q.terms, n, &gate, &mut scratch)
            .expect("valid query");
        assert_eq!(scratch.out, expected[i], "query {i} diverged after reuse");
    }
}

#[test]
fn shrinking_and_regrowing_queries_stay_allocation_free_once_seen() {
    let collection = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let daat = DaatSearcher::new(&index, RankingModel::Bm25 { k1: 1.2, b: 0.75 });
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();
    let terms = index.terms_by_df_asc();
    let widest: Vec<u32> = terms.iter().rev().take(6).copied().collect();

    // Warm with the widest shape and the largest N the test will use.
    let _ = daat
        .search_windowed_into(&widest, 20, &gate, &mut scratch)
        .expect("valid query");

    // Narrower queries and smaller N fit inside the warmed arena.
    let before = allocations();
    for w in 1..=widest.len() {
        for n in [1usize, 5, 20] {
            let _ = daat
                .search_windowed_into(&widest[..w], n, &gate, &mut scratch)
                .expect("valid query");
        }
    }
    assert_eq!(allocations() - before, 0, "narrower shapes reallocated");
}

#[test]
fn multi_window_queries_allocate_nothing_once_the_lanes_have_grown() {
    // Short documents spanning more than three production windows, so the
    // pruned phase syncs, gates and decodes window after window.
    let collection = Collection::generate(CollectionConfig {
        num_docs: 3 * WINDOW + 1_000,
        vocab_size: 600,
        avg_doc_len: 6,
        zipf_exponent: 1.1,
        num_topics: 8,
        topic_mix: 0.3,
        seed: 0x1A4E5,
    })
    .expect("valid config");
    let index = InvertedIndex::from_collection(&collection);
    let daat = DaatSearcher::new(&index, RankingModel::default());
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();
    let terms = index.terms_by_df_asc();
    // The most frequent terms: each has postings in every window.
    let widest: Vec<u32> = terms.iter().rev().take(6).copied().collect();
    let shapes = [1usize, 3, 6, 2];

    // Growth: the lanes grow with the query width and never shrink.
    let mut lanes = scratch.lane_bytes();
    assert_eq!(lanes, 0, "a fresh arena holds no lanes");
    for &w in &shapes {
        let _ = daat
            .search_windowed_into(&widest[..w], 100, &gate, &mut scratch)
            .expect("valid query");
        assert!(
            scratch.lane_bytes() >= lanes,
            "the lanes shrank at width {w}"
        );
        lanes = scratch.lane_bytes();
    }
    assert!(lanes > 0, "no query decoded a window");

    // Steady state: every shape again, at every depth — no allocation,
    // and the lanes stay exactly as grown.
    let before = allocations();
    let mut checksum = 0usize;
    for &w in &shapes {
        for n in [1usize, 10, 100] {
            let stats = daat
                .search_windowed_into(&widest[..w], n, &gate, &mut scratch)
                .expect("valid query");
            checksum += stats.postings_scanned + scratch.out.len();
            assert_eq!(scratch.lane_bytes(), lanes);
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "multi-window queries allocated in steady state"
    );
    assert!(checksum > 0);
}

#[test]
fn seeded_queries_allocate_nothing_once_the_seed_buffers_have_grown() {
    // One run longer than the seed pass's 512-posting cap and short runs
    // of 50–300 postings: the kernel decodes and merges the short runs
    // into the arena's seed buffers before it scans.
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let by_df = index.terms_by_df_asc();
    let df = |t: u32| index.df(t).expect("term in vocabulary");
    let long = by_df[by_df.len() - 1];
    assert!(df(long) > 512);
    let short: Vec<u32> = by_df
        .iter()
        .copied()
        .filter(|&t| (50..=300).contains(&df(t)))
        .take(5)
        .collect();
    assert_eq!(short.len(), 5);
    let queries: Vec<Vec<u32>> = vec![
        vec![short[0], long, short[1]],
        vec![long, short[2], short[3], short[4]],
        vec![short[1], short[0], long, short[1]],
    ];
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();
    for model in [
        RankingModel::default(),
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ] {
        let daat = DaatSearcher::new(&index, model);
        for q in &queries {
            for n in [1usize, 10, 100] {
                let _ = daat
                    .search_into(q, n, &gate, &mut scratch)
                    .expect("valid query");
            }
        }
        let before = allocations();
        let mut seeded = 0usize;
        for _ in 0..5 {
            for q in &queries {
                for n in [1usize, 10, 100] {
                    let stats = daat
                        .search_into(q, n, &gate, &mut scratch)
                        .expect("valid query");
                    seeded += stats.seeded;
                }
            }
        }
        assert_eq!(
            allocations() - before,
            0,
            "{model:?}: seeded queries allocated in steady state"
        );
        assert!(
            seeded >= 5 * 2 * queries.len(),
            "{model:?}: only {seeded} seeded"
        );
    }
}

#[test]
fn all_short_queries_allocate_nothing_once_the_merge_buffers_have_grown() {
    // The tiny preset's runs are all at most 512 postings, so every query
    // is answered by the short-run merge, which never builds the bound
    // tables.
    let collection = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let queries = generate_queries(
        &collection,
        &QueryConfig {
            num_queries: 12,
            bias: DfBias::TrecLike { high_df_mix: 0.5 },
            seed: 0x5407,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();
    for model in [
        RankingModel::default(),
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ] {
        let daat = DaatSearcher::new(&index, model);
        for q in &queries {
            for n in [1usize, 10, 100] {
                let _ = daat
                    .search_into(&q.terms, n, &gate, &mut scratch)
                    .expect("valid query");
            }
        }
        let before = allocations();
        let mut merged = 0usize;
        for _ in 0..5 {
            for q in &queries {
                for n in [1usize, 10, 100] {
                    let stats = daat
                        .search_into(&q.terms, n, &gate, &mut scratch)
                        .expect("valid query");
                    merged += stats.short_merged;
                }
            }
        }
        assert_eq!(
            allocations() - before,
            0,
            "{model:?}: all-short queries allocated in steady state"
        );
        assert_eq!(
            merged,
            5 * 3 * queries.len(),
            "{model:?}: only {merged} merged"
        );
    }
}

#[test]
fn windowed_queries_mixing_short_and_long_runs_allocate_nothing_once_the_short_bounds_have_grown() {
    // The windowed kernel builds each short term's bounds per query into
    // the arena, seeded or not: BM25 with b = 3.0 can weigh below zero, so
    // its queries run unseeded and the pass builds the bounds alone.
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let by_df = index.terms_by_df_asc();
    let df = |t: u32| index.df(t).expect("term in vocabulary");
    let long: Vec<u32> = by_df.iter().rev().take(2).copied().collect();
    assert!(long.iter().all(|&t| df(t) > 512));
    let short: Vec<u32> = by_df
        .iter()
        .copied()
        .filter(|&t| (1..=512).contains(&df(t)))
        .step_by(97)
        .take(6)
        .collect();
    assert_eq!(short.len(), 6);
    let queries: Vec<Vec<u32>> = vec![
        vec![short[0], long[0], short[1]],
        vec![long[1], short[2], short[3], long[0], short[4]],
        vec![short[5], long[1]],
    ];
    let gate = BoundGate::none();
    let mut scratch = QueryScratch::new();
    for model in [
        RankingModel::default(),
        RankingModel::Bm25 { k1: 1.2, b: 3.0 },
    ] {
        let daat = DaatSearcher::new(&index, model);
        for q in &queries {
            for n in [1usize, 10, 100] {
                let _ = daat
                    .search_windowed_into(q, n, &gate, &mut scratch)
                    .expect("valid query");
            }
        }
        let before = allocations();
        let mut checksum = 0usize;
        for _ in 0..5 {
            for q in &queries {
                for n in [1usize, 10, 100] {
                    let stats = daat
                        .search_windowed_into(q, n, &gate, &mut scratch)
                        .expect("valid query");
                    checksum += stats.postings_scanned + scratch.out.len();
                }
            }
        }
        assert_eq!(
            allocations() - before,
            0,
            "{model:?}: windowed queries with short terms allocated in steady state"
        );
        assert!(checksum > 0);
    }
}
