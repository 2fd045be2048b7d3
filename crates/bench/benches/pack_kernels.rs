//! Criterion microbenchmarks of the word-parallel bit-pack kernels and
//! the quantized mini-block bound refinement — the raw per-posting
//! constants behind `moabench`'s `pack.*` / `blocks.*` decode figures and
//! the planner's
//! `decode_posting` / `daat_prune` cost weights.
//!
//! Groups:
//! * `pack_kernels/unpack_*` — bulk word-parallel decode of one
//!   128-value block at a dividing width (8: 8 lanes per word) and a
//!   straddling width (13: branch-free two-word windows);
//! * `pack_kernels/fused_deltas_*` — the fused gap-decode + prefix-sum
//!   kernel the cursor doc path runs on, incl. the width-0
//!   arithmetic-fill fast path (consecutive ids, no payload read);
//! * `pack_kernels/unpack_slice_mini` — the 16-value mini-block window
//!   decode of the lazy tf path;
//! * `pack_kernels/unpack_one_x128` — the scalar point lookup the
//!   word-parallel kernels replaced on the bulk paths (kept for
//!   comparison);
//! * `pack_kernels/mini_gate_refine` — summing dequantized mini-block
//!   maxima across term cursors: the extra work a passed 128-block gate
//!   pays before touching any payload.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moa_corpus::{Collection, CollectionConfig};
use moa_ir::{InvertedIndex, RankingModel, ScoreBounds, ScoreKernel};
use moa_storage::pack::{
    pack_into, unpack_deltas_prefix_sum, unpack_from, unpack_one, unpack_slice,
};

const BLOCK: usize = 128;

fn values_of_width(width: u8) -> Vec<u32> {
    let mask = (1u32 << width) - 1;
    (0..BLOCK as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761)) & mask)
        .collect()
}

fn bench_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_kernels");
    for width in [8u8, 13] {
        let values = values_of_width(width);
        let mut words = Vec::new();
        pack_into(&values, width, &mut words);
        let mut out = [0u32; BLOCK];
        g.bench_function(format!("unpack_128x{width}bit"), |b| {
            b.iter(|| {
                unpack_from(black_box(&words), width, BLOCK, &mut out);
                black_box(out[BLOCK - 1])
            })
        });
    }
    let values = values_of_width(13);
    let mut words = Vec::new();
    pack_into(&values, 13, &mut words);
    g.bench_function("unpack_one_x128", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..BLOCK {
                acc ^= unpack_one(black_box(&words), 13, i);
            }
            black_box(acc)
        })
    });
    g.bench_function("unpack_slice_mini", |b| {
        let mut out = [0u32; 16];
        b.iter(|| {
            // An unaligned 16-value window: the lazy tf decode of one
            // mini-block in the middle of a 13-bit packed stream.
            unpack_slice(black_box(&words), 13, 48, 16, &mut out);
            black_box(out[15])
        })
    });
    g.bench_function("pack_128x13bit", |b| {
        b.iter(|| {
            let mut w = Vec::with_capacity(26);
            pack_into(black_box(&values), 13, &mut w);
            black_box(w.len())
        })
    });
    g.finish();
}

fn bench_fused_deltas(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_kernels");
    // Gappy run: deltas need bits, the fused kernel decodes + sums.
    let mut docs = Vec::with_capacity(BLOCK);
    let mut d = 17u32;
    for i in 0..BLOCK as u32 {
        docs.push(d);
        d += 1 + (i.wrapping_mul(2_654_435_761) & 0x3FF);
    }
    let mut deltas = vec![0u32];
    deltas.extend(docs.windows(2).map(|w| w[1] - w[0] - 1));
    let width = moa_storage::pack::bits_for(*deltas.iter().max().expect("non-empty"));
    let mut words = Vec::new();
    pack_into(&deltas, width, &mut words);
    let mut out = [0u32; BLOCK];
    g.bench_function(format!("fused_deltas_128x{width}bit"), |b| {
        b.iter(|| {
            unpack_deltas_prefix_sum(black_box(&words), width, BLOCK, docs[0], &mut out);
            black_box(out[BLOCK - 1])
        })
    });
    // Width-0: consecutive ids, the arithmetic fill that skips the
    // payload entirely.
    g.bench_function("fused_deltas_128x0bit", |b| {
        b.iter(|| {
            unpack_deltas_prefix_sum(black_box(&[]), 0, BLOCK, black_box(1000), &mut out);
            black_box(out[BLOCK - 1])
        })
    });
    g.finish();
}

fn bench_mini_gate_refine(c: &mut Criterion) {
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = InvertedIndex::from_collection(&collection);
    let kernel = ScoreKernel::new(RankingModel::default(), &index);
    let bounds = ScoreBounds::new(&kernel, &index);
    // The most frequent terms have the most blocks: a realistic
    // multi-term refinement over real bound tables.
    let terms = index.terms_by_df_asc();
    let hot: Vec<u32> = terms.iter().rev().take(4).copied().collect();
    let tables: Vec<_> = hot
        .iter()
        .map(|&t| bounds.term(t).expect("a hot term's run is long").1)
        .collect();
    let mut g = c.benchmark_group("pack_kernels");
    g.bench_function("mini_gate_refine", |b| {
        b.iter(|| {
            // Sweep every (block, in-block offset) pair once per term:
            // one dequantized nibble lookup + add per cursor, the exact
            // shape of the DAAT refine step.
            let mut acc = 0.0f64;
            for blocks in &tables {
                for (bi, bound) in blocks.iter().enumerate() {
                    acc += bound.mini_bound(black_box(bi * 37 % BLOCK));
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_unpack,
    bench_fused_deltas,
    bench_mini_gate_refine
);
criterion_main!(benches);
