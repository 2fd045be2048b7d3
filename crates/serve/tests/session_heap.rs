//! Counting-allocator proof of what a serving session builds and carries.
//!
//! A planned serving session builds an unsharded index and one shard
//! index per document partition, and every shard gets a fragmented
//! index. The planner does not pick a fragmented plan for any of the
//! work ledger's four query classes, so no shard may build a fragment
//! table: those tables cost 12 bytes per posting plus their sparse
//! index, several times the block-compressed postings themselves. The
//! shards must also share the unsharded index's catalog instead of
//! copying it. This test builds the engine with the serving defaults
//! (`ServeConfig::cached(2)`), bounds the build's live heap by a multiple
//! of the posting storage, replays the four classes planned, and checks
//! that only a pinned fragmented query builds the tables.
//!
//! One query with a long run makes each shard build its score-bound
//! table. That table holds only the shard's runs of more than 512
//! postings, sized exactly, so its bytes are capped by those runs' block
//! count: one 16-byte block bound per block and one 24-byte record per
//! run. A table that also bounded the short runs, or kept dense
//! vocabulary-sized arrays, would be many times over that cap.
//!
//! (Integration test so the counting allocator owns the whole binary;
//! the crate's unit tests keep the system allocator.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};
use moa_ir::{BlockBound, InvertedIndex, PhysicalPlan, Strategy};
use moa_serve::{BatchQuery, ServeConfig, ServeMode, ShardedEngine};

struct CountingAlloc;

/// Bytes currently allocated, process-wide. The libtest harness thread
/// allocates a few kilobytes beside the test, far below the megabytes
/// measured here.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The build's live heap may be at most this many times the unsharded
/// index's posting storage. The index, two shard indexes and their
/// per-term arrays come to 6.1 times on this corpus, whose 20 000-term
/// vocabulary is large against its postings. A catalog copied into each
/// shard makes it 8.1, and eagerly built fragment tables 10.3.
const MAX_BUILD_HEAP_PER_STORAGE_BYTE: usize = 7;

/// The longest short run: the bound table holds only longer runs.
const SHORT_RUN_MAX: usize = 512;

/// A bound-table record per long run: its term id, its block range and
/// its maximum weight.
const RECORD_BYTES: usize = 24;

/// The most heap a shard's bound table may hold: a record per run of more
/// than [`SHORT_RUN_MAX`] postings in the shard's index and a block bound
/// per block of those runs.
fn bound_table_ceiling(index: &InvertedIndex) -> usize {
    (0..index.vocab_size() as u32)
        .map(|t| index.blocks().view(t))
        .filter(|view| view.len() > SHORT_RUN_MAX)
        .map(|view| RECORD_BYTES + view.num_blocks() * std::mem::size_of::<BlockBound>())
        .sum()
}

/// The work ledger's query classes.
const CLASSES: [DfBias; 4] = [
    DfBias::FrequentOnly,
    DfBias::TrecLike { high_df_mix: 0.5 },
    DfBias::RareOnly,
    DfBias::Topical { high_df_mix: 0.5 },
];

#[test]
fn a_planned_session_builds_no_fragment_table_and_shares_one_catalog() {
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let config = ServeConfig::cached(2);

    let before = LIVE.load(Ordering::Relaxed);
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let mut engine = ShardedEngine::build(
        Arc::clone(&index),
        config.shard_spec,
        config.frag_spec,
        config.model,
        config.policy,
        config.sparse_block,
    )
    .expect("the corpus shards under the serving defaults");
    let built = LIVE.load(Ordering::Relaxed) - before;
    let storage = index.blocks().storage_bytes();
    assert!(
        built <= MAX_BUILD_HEAP_PER_STORAGE_BYTE * storage,
        "the build holds {built} heap bytes, over {MAX_BUILD_HEAP_PER_STORAGE_BYTE} x \
         {storage} bytes of posting storage"
    );

    // One query of the two most frequent terms, on the pruned kernel,
    // builds every shard's bound table: it holds the long runs alone.
    let frequent = index.terms_by_df_asc();
    let terms = [frequent[frequent.len() - 1], frequent[frequent.len() - 2]];
    let pruned = ServeMode::Fixed(PhysicalPlan::PrunedDaat);
    let response = engine
        .execute(&terms, 10, pruned, config.propagate)
        .expect("terms are in the vocabulary");
    assert_eq!(response.top.len(), 10);
    let mut table_bytes = 0usize;
    let mut ceiling = 0usize;
    for shard in engine.shards() {
        table_bytes += shard
            .bound_table_bytes()
            .unwrap_or_else(|| panic!("shard {} built no bound table", shard.id()));
        ceiling += bound_table_ceiling(shard.fragments().index());
    }
    assert!(
        table_bytes <= ceiling,
        "the shards' bound tables hold {table_bytes} heap bytes, over the {ceiling} bytes \
         their long runs need"
    );

    for bias in CLASSES {
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 16,
                bias,
                seed: 0x1ED6E7,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for n in [1, 10, 1000] {
            let batch: Vec<BatchQuery> = queries
                .iter()
                .map(|q| BatchQuery {
                    terms: q.terms.clone(),
                    n,
                })
                .collect();
            let responses = engine
                .execute_batch_sequential(&batch, config.mode, config.propagate)
                .expect("generated terms are in the vocabulary");
            assert_eq!(responses.len(), batch.len());
        }
    }
    for shard in engine.shards() {
        let frag = shard.fragments();
        assert!(
            !frag.tables_built(),
            "shard {} built a fragment table while serving planned queries",
            shard.id()
        );
        assert!(
            std::ptr::eq(frag.index().doc_lens(), index.doc_lens()),
            "shard {} copied the catalog instead of sharing it",
            shard.id()
        );
    }

    // A pinned fragmented plan is what builds the tables.
    let pinned = ServeMode::Fixed(PhysicalPlan::Fragmented(Strategy::Switch {
        use_b_index: true,
    }));
    let response = engine
        .execute(&terms, 10, pinned, config.propagate)
        .expect("terms are in the vocabulary");
    assert_eq!(response.top.len(), 10);
    for shard in engine.shards() {
        assert!(shard.fragments().tables_built(), "shard {}", shard.id());
    }
}
