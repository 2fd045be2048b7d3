//! Property tests pinning the precomputed scoring kernel to the
//! reference `RankingModel::term_weight` path, and the score bounds to a
//! full reference table.
//!
//! The query kernels (set-at-a-time, DAAT, fragmented scan) all score
//! through `TermScorer` constants and the `ScoreKernel` norm table; the
//! differential oracle relies on those weights agreeing with the naive
//! formula to the last bit. These properties sweep the parameter space
//! far beyond the seeded workloads.
//!
//! The bound table (`ScoreBounds`) holds only the runs longer than 512
//! postings; the windowed kernel builds a short term's bounds per query.
//! The last two properties check, on corpora with runs on both sides of
//! 512, that both sources give exactly the bits of a table built the way
//! every term's bounds used to be built — one pass over every run — and
//! that the windowed kernel answers as the exhaustive merge does.

use proptest::prelude::*;

use moa_ir::blocks::{CursorBuf, MINIS_PER_BLOCK, MINI_LEN};
use moa_ir::{
    BlockBound, BoundGate, CollectionStats, DaatSearcher, InvertedIndex, QueryScratch,
    RankingModel, ScoreBounds, ScoreKernel, TermScorer,
};

/// The longest short run: a run of more postings is in the table.
const SHORT_RUN_MAX: usize = 512;

/// Deterministic pseudo-random numbers from a seed (xorshift).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// An index of `num_docs` documents whose term `t` has a run of exactly
/// `lens[t]` postings (at most `num_docs`), on random documents with tfs
/// 1–9 and document lengths 1–500.
fn index_with_runs(num_docs: usize, lens: &[usize], seed: u64) -> InvertedIndex {
    let mut next = xorshift(seed);
    let doc_len: Vec<u32> = (0..num_docs).map(|_| (next() % 500) as u32 + 1).collect();
    let mut postings = Vec::new();
    for (t, &len) in lens.iter().enumerate() {
        // Selection sampling: exactly `len` documents, ascending.
        let mut need = len.min(num_docs);
        for d in 0..num_docs {
            if (next() % (num_docs - d) as u64) < need as u64 {
                postings.push((t as u32, d as u32, (next() % 9) as u32 + 1));
                need -= 1;
            }
        }
    }
    InvertedIndex::from_sorted_postings(lens.len(), doc_len, &postings).unwrap()
}

/// Run lengths on both sides of 512: exactly 512 and 513, and random
/// lengths up to `num_docs`.
fn mixed_lens(num_docs: usize, extra: usize, seed: u64) -> Vec<usize> {
    let mut next = xorshift(seed ^ 0x5EED);
    let mut lens = vec![SHORT_RUN_MAX, SHORT_RUN_MAX + 1, 1, 0];
    for _ in 0..extra {
        lens.push((next() % num_docs as u64) as usize + 1);
    }
    lens
}

/// The four models of the bound tests. BM25 with `b = 3.0` can weigh a
/// posting below zero, so the seed never runs under it, while the short
/// terms' bounds must still be built.
fn bound_models(lambda: f64) -> [RankingModel; 4] {
    [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
        RankingModel::Bm25 { k1: 1.2, b: 3.0 },
    ]
}

/// Round-up quantization of a mini-block maximum against its block
/// maximum, as the bound builder defines it: the smallest nibble `q`
/// with `block_max · q / 15 ≥ mini_max`.
fn quantize(mini_max: f64, block_max: f64) -> u8 {
    if mini_max <= 0.0 {
        return 0;
    }
    let mut q = (((mini_max / block_max) * 15.0).ceil() as u8).min(15);
    while block_max * (f64::from(q) / 15.0) < mini_max {
        q += 1;
    }
    q
}

/// The reference: every term's `(max weight, block bounds)`, built by one
/// scoring pass over every run, block by block, whatever its length.
fn reference_table(kernel: &ScoreKernel, index: &InvertedIndex) -> Vec<(f64, Vec<BlockBound>)> {
    let store = index.blocks();
    let mut buf = CursorBuf::new();
    (0..index.vocab_size() as u32)
        .map(|t| {
            let view = store.view(t);
            let scorer = kernel.term_scorer(index.df(t).unwrap(), index.cf(t).unwrap());
            let mut tmax = 0.0f64;
            let mut blocks = Vec::new();
            for (b, header) in view.headers().iter().enumerate() {
                view.decode_docs(b, &mut buf);
                view.decode_tfs(b, &mut buf);
                let mut bmax = 0.0f64;
                let mut mini_max = [0.0f64; MINIS_PER_BLOCK];
                for i in 0..usize::from(header.len) {
                    let w = scorer.weight(buf.tfs[i], kernel.norm(buf.docs[i]));
                    bmax = bmax.max(w);
                    mini_max[i / MINI_LEN] = mini_max[i / MINI_LEN].max(w);
                }
                let mut minis = [0u8; 4];
                for (m, &mm) in mini_max.iter().enumerate() {
                    minis[m >> 1] |= quantize(mm, bmax) << ((m & 1) * 4);
                }
                blocks.push(BlockBound {
                    last_doc: header.last_doc,
                    minis,
                    max_score: bmax,
                });
                tmax = tmax.max(bmax);
            }
            (tmax, blocks)
        })
        .collect()
}

/// Whether two bound lists are the same bits: every `last_doc`,
/// `max_score` and nibble.
fn same_bits(got: &[BlockBound], want: &[BlockBound]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.last_doc == w.last_doc
                && g.max_score.to_bits() == w.max_score.to_bits()
                && g.minis == w.minis
        })
}

fn models_for(lambda: f64, k1: f64, b: f64) -> Vec<RankingModel> {
    vec![
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda },
        RankingModel::Bm25 { k1, b },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TermScorer::weight` with the model's doc norm reproduces
    /// `term_weight` within 1e-12 (in fact bit-exactly, since
    /// `term_weight` delegates to the same floating-point path).
    #[test]
    fn term_scorer_matches_term_weight(
        tf in 0u32..500,
        df in 0u32..50_000,
        cf_extra in 0u64..100_000,
        doc_len in 0u32..50_000,
        num_docs in 1usize..1_000_000,
        avg_doc_len in 1.0f64..10_000.0,
        total_tokens in 1u64..1_000_000_000,
        lambda in 0.0f64..1.0,
        k1 in 0.1f64..3.0,
        b in 0.0f64..1.0,
    ) {
        let stats = CollectionStats { num_docs, avg_doc_len, total_tokens };
        let cf = u64::from(df) + cf_extra;
        for model in models_for(lambda, k1, b) {
            let scorer = TermScorer::new(model, df, cf, &stats);
            let got = scorer.weight(tf, model.doc_norm(doc_len, &stats));
            let want = model.term_weight(tf, df, cf, doc_len, &stats);
            prop_assert!(got.is_finite() && want.is_finite(), "{model:?}: non-finite");
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{model:?} (tf={tf}, df={df}, cf={cf}, dl={doc_len}): {got} vs {want}"
            );
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}: not bit-exact", model);
        }
    }

    /// On a randomly built index the kernel's cached norm table and the
    /// bounds tables agree with per-posting `term_weight`, and every
    /// bound is sound.
    #[test]
    fn kernel_and_bounds_match_term_weight_on_random_indexes(
        num_docs in 1usize..40,
        vocab in 1usize..20,
        density in 1usize..8,
        seed in 0u64..10_000,
        lambda in 0.05f64..0.95,
    ) {
        // Deterministic pseudo-random postings from the seed (xorshift).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let doc_len: Vec<u32> = (0..num_docs).map(|_| (next() % 500) as u32 + 1).collect();
        let mut postings = Vec::new();
        for t in 0..vocab as u32 {
            for d in 0..num_docs as u32 {
                if next() % 8 < density as u64 {
                    postings.push((t, d, (next() % 9) as u32 + 1));
                }
            }
        }
        let index = InvertedIndex::from_sorted_postings(vocab, doc_len, &postings).unwrap();
        let stats = index.stats();
        // Every run here is short, so the bounds are the ones the windowed
        // kernel builds per query (the table holds none of them).
        let all: Vec<u32> = (0..vocab as u32).collect();
        let mut scratch = QueryScratch::new();
        for model in models_for(lambda, 1.2, 0.75) {
            let kernel = ScoreKernel::new(model, &index);
            prop_assert_eq!(ScoreBounds::new(&kernel, &index).long_runs(), 0);
            let bounds = DaatSearcher::new(&index, model)
                .term_bounds(&all, &mut scratch)
                .unwrap();
            for term in 0..vocab as u32 {
                let df = index.df(term).unwrap();
                let cf = index.cf(term).unwrap();
                let scorer = kernel.term_scorer(df, cf);
                let (docs, tfs) = index.decode_postings(term).unwrap();
                let mut observed_max = 0.0f64;
                for (i, &doc) in docs.iter().enumerate() {
                    let got = kernel.weight(&scorer, tfs[i], doc);
                    let want = model.term_weight(tfs[i], df, cf, index.doc_len(doc), &stats);
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                    observed_max = observed_max.max(got);
                }
                let (max_weight, bb) = &bounds[term as usize];
                prop_assert_eq!(max_weight.to_bits(), observed_max.to_bits());
                // Block bounds cover their postings and share the storage
                // blocks' horizons; the quantized mini-block nibbles are
                // sound per 16-posting mini-block (round-up quantization:
                // the dequantized nibble is >= the exact mini maximum)
                // and never exceed the exact block maximum.
                prop_assert_eq!(bb.len(), docs.len().div_ceil(ScoreBounds::BLOCK_POSTINGS));
                for (bi, chunk) in docs.chunks(ScoreBounds::BLOCK_POSTINGS).enumerate() {
                    prop_assert_eq!(bb[bi].last_doc, *chunk.last().unwrap());
                    let mut mini_exact = [0.0f64; ScoreBounds::BLOCK_POSTINGS / MINI_LEN];
                    for (i, &doc) in chunk.iter().enumerate() {
                        let w = kernel.weight(
                            &scorer,
                            tfs[bi * ScoreBounds::BLOCK_POSTINGS + i],
                            doc,
                        );
                        prop_assert!(w <= bb[bi].max_score);
                        prop_assert!(
                            w <= bb[bi].mini_bound(i),
                            "posting weight {} above its mini-block bound {}",
                            w,
                            bb[bi].mini_bound(i)
                        );
                        mini_exact[i / MINI_LEN] = mini_exact[i / MINI_LEN].max(w);
                    }
                    for (m, &exact) in mini_exact.iter().enumerate() {
                        let q = bb[bi].mini_bound(m * MINI_LEN);
                        prop_assert!(
                            q >= exact,
                            "quantized mini bound {q} below exact mini max {exact}"
                        );
                        prop_assert!(q <= bb[bi].max_score);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On corpora with runs on both sides of 512 (exactly 512 and 513
    /// among them), the per-query short-run bounds and the long-run table
    /// equal, bit for bit, a reference table built by one pass over every
    /// run; the table holds exactly the runs over 512.
    #[test]
    fn per_query_and_table_bounds_equal_a_full_reference_table(
        num_docs in 520usize..1_400,
        extra in 2usize..7,
        seed in 0u64..10_000,
        lambda in 0.05f64..0.95,
    ) {
        let lens = mixed_lens(num_docs, extra, seed);
        let index = index_with_runs(num_docs, &lens, seed);
        let all: Vec<u32> = (0..lens.len() as u32).collect();
        let mut scratch = QueryScratch::new();
        for model in bound_models(lambda) {
            let kernel = ScoreKernel::new(model, &index);
            let reference = reference_table(&kernel, &index);

            let table = ScoreBounds::new(&kernel, &index);
            let mut long = 0usize;
            for (t, (want_max, want)) in reference.iter().enumerate() {
                let len = index.run_len(t as u32).unwrap();
                match table.term(t as u32) {
                    Some((max_weight, bb)) => {
                        prop_assert!(len > SHORT_RUN_MAX, "{:?}: short run {} of {} in the table", model, t, len);
                        prop_assert_eq!(max_weight.to_bits(), want_max.to_bits());
                        prop_assert!(same_bits(bb, want), "{:?}: table bounds of term {}", model, t);
                        long += 1;
                    }
                    None => prop_assert!(len <= SHORT_RUN_MAX, "{:?}: long run {} of {} missing", model, t, len),
                }
            }
            prop_assert_eq!(table.long_runs(), long);
            prop_assert!(long >= 1, "the 513-posting run is long");

            // What the windowed kernel reads, term by term: the table for
            // a long run, the short-run pass for a short one.
            let got = DaatSearcher::new(&index, model).term_bounds(&all, &mut scratch).unwrap();
            for (t, ((max_weight, bb), (want_max, want))) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(max_weight.to_bits(), want_max.to_bits(), "{:?} term {}", model, t);
                prop_assert!(same_bits(bb, want), "{:?}: query bounds of term {}", model, t);
            }
        }
    }

    /// The windowed kernel, on queries that mix short and long runs,
    /// answers bit for bit as the exhaustive merge — under every model,
    /// including BM25 `b = 3.0`, where the seed does not run and the short
    /// bounds are built for the bounds alone.
    #[test]
    fn windowed_matches_exhaustive_on_mixed_queries(
        num_docs in 520usize..1_400,
        extra in 2usize..7,
        seed in 0u64..10_000,
        lambda in 0.05f64..0.95,
    ) {
        let lens = mixed_lens(num_docs, extra, seed);
        let index = index_with_runs(num_docs, &lens, seed);
        let mut next = xorshift(seed ^ 0x0E7);
        let mut queries: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2, 0], vec![3, 1]];
        for _ in 0..4 {
            let m = (next() % 5) as usize + 1;
            queries.push((0..m).map(|_| (next() % lens.len() as u64) as u32).collect());
        }
        let mut scratch = QueryScratch::new();
        for model in bound_models(lambda) {
            let daat = DaatSearcher::new(&index, model);
            for q in &queries {
                for n in [1usize, 10, 100, 1_000] {
                    let rep = daat
                        .search_windowed_into(q, n, &BoundGate::none(), &mut scratch)
                        .unwrap();
                    let volume: usize = q.iter().map(|&t| index.run_len(t).unwrap()).sum();
                    prop_assert_eq!(rep.postings_scanned + rep.docs_skipped, volume);
                    let want = daat.search_exhaustive(q, n).unwrap().top;
                    prop_assert_eq!(scratch.out.len(), want.len(), "{:?} {:?} n={}", model, q, n);
                    for (g, w) in scratch.out.iter().zip(&want) {
                        prop_assert!(
                            g.0 == w.0 && g.1.to_bits() == w.1.to_bits(),
                            "{:?} {:?} n={}: {:?} vs {:?}", model, q, n, g, w
                        );
                    }
                }
            }
        }
    }
}
