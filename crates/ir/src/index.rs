//! The inverted index: a term-major term–document matrix.
//!
//! Postings are stored in the block-compressed format of
//! [`crate::blocks`] — fixed 128-entry blocks, delta-encoded bit-packed
//! document ids with term frequencies packed alongside, and one contiguous
//! per-block header array — rather than flat `(doc, tf)` arrays. The
//! element-at-a-time paths read it through decode-on-demand cursors
//! ([`PostingCursor`], or the scratch-backed cursor state the DAAT kernel
//! drives directly); set-based consumers stream whole runs with
//! [`InvertedIndex::for_each_posting`] or materialize them with
//! [`InvertedIndex::decode_postings`]. Collection-wide statistics (df, cf,
//! max tf, document lengths) are kept alongside; the ranking models and
//! the fragmentation safety check consume them.

use std::sync::Arc;

use moa_corpus::Collection;

use crate::blocks::{BlockListBuilder, BlockPostingList, CursorBuf, CursorPos, TermView};
use crate::error::{IrError, Result};

/// Collection statistics needed by ranking models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Number of documents.
    pub num_docs: usize,
    /// Average document length in tokens.
    pub avg_doc_len: f64,
    /// Total tokens in the collection.
    pub total_tokens: u64,
}

/// A term-major inverted index over a document collection.
///
/// The catalog arrays (per-document lengths, per-term df, cf and max tf)
/// are shared by the index and every document-partition shard cut from
/// it. Each is its own `Arc<[_]>` whose pointer sits in the index itself,
/// so a query reads them exactly as it would a plain `Vec`: no small
/// shared header block, whose heap neighbours would change from run to
/// run, lies on the query path.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    stats: CollectionStats,
    doc_len: Arc<[u32]>,
    df: Arc<[u32]>,
    cf: Arc<[u64]>,
    /// Highest within-document tf of each term (upper bound for the safety
    /// check's score-contribution estimates).
    max_tf: Arc<[u32]>,
    /// Block-compressed posting payloads, term-major.
    blocks: BlockPostingList,
}

impl InvertedIndex {
    /// Build an index from a generated collection.
    pub fn from_collection(collection: &Collection) -> InvertedIndex {
        InvertedIndex::from_sorted_postings(
            collection.vocab_size(),
            collection.doc_len().to_vec(),
            collection.postings(),
        )
        .expect("generated collections are non-empty and sorted")
    }

    /// Build an index from `(term, doc, tf)` postings sorted by `(term,
    /// doc)`, with the given vocabulary size and per-document token counts.
    /// A posting is anything that converts to a `(term, doc, tf)` triple:
    /// plain tuples, or a collection's own [`moa_corpus::Posting`]s read
    /// in place. Every index is block-encoded here, except the shards
    /// [`InvertedIndex::shard_by_docs_multi`] re-encodes from an existing
    /// index.
    pub fn from_sorted_postings<P: Copy + Into<(u32, u32, u32)>>(
        vocab: usize,
        doc_len: Vec<u32>,
        postings: &[P],
    ) -> Result<InvertedIndex> {
        if doc_len.is_empty() {
            return Err(IrError::InvalidConfig(
                "index needs at least one document".into(),
            ));
        }
        // Strict order: a duplicate (term, doc) pair is malformed input
        // (one posting per term-document cell; builders aggregate tfs),
        // and the delta encoder requires strictly increasing doc ids
        // within a run.
        let triple = |i: usize| -> (u32, u32, u32) { postings[i].into() };
        if (1..postings.len()).any(|i| {
            let ((t0, d0, _), (t1, d1, _)) = (triple(i - 1), triple(i));
            (t0, d0) >= (t1, d1)
        }) {
            return Err(IrError::InvalidConfig(
                "postings must be strictly sorted by (term, doc) with no duplicates".into(),
            ));
        }
        let mut df = vec![0u32; vocab];
        let mut cf = vec![0u64; vocab];
        let mut max_tf = vec![0u32; vocab];
        for &p in postings {
            let (term, doc, tf) = p.into();
            let t = term as usize;
            if t >= vocab {
                return Err(IrError::UnknownTerm(term));
            }
            if doc as usize >= doc_len.len() {
                return Err(IrError::InvalidConfig(format!(
                    "posting references doc {doc} beyond {} documents",
                    doc_len.len()
                )));
            }
            df[t] += 1;
            cf[t] += u64::from(tf);
            max_tf[t] = max_tf[t].max(tf);
        }
        let total_tokens: u64 = doc_len.iter().map(|&l| u64::from(l)).sum();
        let stats = CollectionStats {
            num_docs: doc_len.len(),
            avg_doc_len: total_tokens as f64 / doc_len.len() as f64,
            total_tokens,
        };
        // Into their shared form before the postings are encoded, so the
        // copy does not add to the build's peak.
        let (doc_len, df, cf, max_tf) = (
            Arc::from(doc_len),
            Arc::from(df),
            Arc::from(cf),
            Arc::from(max_tf),
        );
        // Encode term by term: `postings` is (term, doc)-sorted, so each
        // term's triples form one doc-ascending run.
        let mut builder = BlockListBuilder::new();
        let mut run_docs: Vec<u32> = Vec::new();
        let mut run_tfs: Vec<u32> = Vec::new();
        let mut i = 0usize;
        for t in 0..vocab as u32 {
            run_docs.clear();
            run_tfs.clear();
            while i < postings.len() && triple(i).0 == t {
                let (_, doc, tf) = triple(i);
                run_docs.push(doc);
                run_tfs.push(tf);
                i += 1;
            }
            builder.push_run(&run_docs, &run_tfs);
        }
        Ok(InvertedIndex {
            stats,
            doc_len,
            df,
            cf,
            max_tf,
            blocks: builder.finish(),
        })
    }

    /// Collection statistics.
    pub fn stats(&self) -> CollectionStats {
        self.stats
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.stats.num_docs
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.df.len()
    }

    /// Total number of postings (the data volume unit of the fragmentation
    /// experiments).
    pub fn num_postings(&self) -> usize {
        self.blocks.num_postings()
    }

    /// Document frequency of a term.
    pub fn df(&self, term: u32) -> Result<u32> {
        self.df
            .get(term as usize)
            .copied()
            .ok_or(IrError::UnknownTerm(term))
    }

    /// Collection frequency of a term.
    pub fn cf(&self, term: u32) -> Result<u64> {
        self.cf
            .get(term as usize)
            .copied()
            .ok_or(IrError::UnknownTerm(term))
    }

    /// Highest within-document tf of a term.
    pub fn max_tf(&self, term: u32) -> Result<u32> {
        self.max_tf
            .get(term as usize)
            .copied()
            .ok_or(IrError::UnknownTerm(term))
    }

    /// Length (token count) of a document.
    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(doc as usize).copied().unwrap_or(0)
    }

    /// All document lengths.
    pub fn doc_lens(&self) -> &[u32] {
        &self.doc_len
    }

    /// Length of a term's *resident* posting run. Equals `df` on an index
    /// built from a whole collection; on a document-partition shard
    /// ([`InvertedIndex::shard_by_docs`]) it is the number of postings
    /// physically present in this shard, while `df` stays the collection-
    /// wide catalog statistic. Work estimates (planner pricing, scan
    /// volumes) should use this; ranking-model inputs should use `df`.
    pub fn run_len(&self, term: u32) -> Result<usize> {
        if term as usize >= self.df.len() {
            return Err(IrError::UnknownTerm(term));
        }
        Ok(self.blocks.run_len(term))
    }

    /// The block-compressed posting store — block headers, packed payload,
    /// per-term views. The DAAT kernel and the bound-table builder operate
    /// on it directly.
    pub fn blocks(&self) -> &BlockPostingList {
        &self.blocks
    }

    /// Stream a term's postings in document order through `f(doc, tf)` —
    /// the allocation-free full-run path of the set-at-a-time evaluator
    /// and the table builders.
    pub fn for_each_posting(&self, term: u32, f: impl FnMut(u32, u32)) -> Result<()> {
        if term as usize >= self.df.len() {
            return Err(IrError::UnknownTerm(term));
        }
        self.blocks.for_each(term, f);
        Ok(())
    }

    /// [`InvertedIndex::for_each_posting`] with a breakable callback:
    /// returning `false` from `f` stops the stream mid-run. Returns
    /// whether the run was fully consumed — the deadline-polled term-run
    /// loops of the accumulator evaluator ride on this.
    pub fn for_each_posting_while(
        &self,
        term: u32,
        f: impl FnMut(u32, u32) -> bool,
    ) -> Result<bool> {
        if term as usize >= self.df.len() {
            return Err(IrError::UnknownTerm(term));
        }
        Ok(self.blocks.for_each_while(term, f))
    }

    /// Materialize a term's posting run as owned `(docs, tfs)` vectors.
    /// Pays one decode pass plus two allocations — use
    /// [`InvertedIndex::for_each_posting`] or a cursor on hot paths.
    pub fn decode_postings(&self, term: u32) -> Result<(Vec<u32>, Vec<u32>)> {
        if term as usize >= self.df.len() {
            return Err(IrError::UnknownTerm(term));
        }
        Ok(self.blocks.decode_term(term))
    }

    /// A skippable cursor over a term's posting run, for
    /// document-at-a-time merging with bounds-based pruning
    /// ([`crate::daat::DaatSearcher`]). Owns its decode buffer (one heap
    /// allocation); the DAAT kernel's scratch-pooled path avoids even that
    /// via [`crate::scratch::QueryScratch`].
    pub fn cursor(&self, term: u32) -> Result<PostingCursor<'_>> {
        if term as usize >= self.df.len() {
            return Err(IrError::UnknownTerm(term));
        }
        Ok(PostingCursor::new(self.blocks.view(term)))
    }

    /// Build a document-partition *shard* of this index: only postings
    /// whose document passes `keep` are retained, while **every catalog
    /// statistic stays global** — the shard shares the full index's
    /// `df`, `cf`, `max_tf` and per-document lengths (`Arc`s, not
    /// copies) and carries its collection stats unchanged. Ranking-model
    /// weights computed on the shard are
    /// therefore bit-identical to the unsharded index (same `f64`
    /// constants, same per-document norms, same document ids), which is
    /// what lets `moa_serve` merge shard-local top-N heaps into the exact
    /// single-engine answer. Shard-local *work* figures come from
    /// [`InvertedIndex::run_len`] and [`InvertedIndex::num_postings`],
    /// which do reflect only the resident postings.
    pub fn shard_by_docs(&self, keep: impl Fn(u32) -> bool) -> InvertedIndex {
        let mut shards = self.shard_by_docs_multi(2, |d| usize::from(!keep(d)));
        shards.swap_remove(0)
    }

    /// Partition this index into `shards` document-partition shards in
    /// **one pass** over the postings: `assign(doc)` names each
    /// document's shard (values ≥ `shards` are clamped to the last).
    /// Each shard re-encodes its resident runs into its own block store
    /// and shares this index's catalog (see
    /// [`InvertedIndex::shard_by_docs`]).
    pub fn shard_by_docs_multi(
        &self,
        shards: usize,
        assign: impl Fn(u32) -> usize,
    ) -> Vec<InvertedIndex> {
        let p = shards.max(1);
        let vocab = self.vocab_size();
        let mut builders: Vec<BlockListBuilder> = (0..p).map(|_| BlockListBuilder::new()).collect();
        let mut docs: Vec<Vec<u32>> = vec![Vec::new(); p];
        let mut tfs: Vec<Vec<u32>> = vec![Vec::new(); p];
        for t in 0..vocab as u32 {
            for s in 0..p {
                docs[s].clear();
                tfs[s].clear();
            }
            self.blocks.for_each(t, |doc, tf| {
                let shard = assign(doc).min(p - 1);
                docs[shard].push(doc);
                tfs[shard].push(tf);
            });
            for s in 0..p {
                builders[s].push_run(&docs[s], &tfs[s]);
            }
        }
        builders
            .into_iter()
            .map(|b| InvertedIndex {
                stats: self.stats,
                doc_len: Arc::clone(&self.doc_len),
                df: Arc::clone(&self.df),
                cf: Arc::clone(&self.cf),
                max_tf: Arc::clone(&self.max_tf),
                blocks: b.finish(),
            })
            .collect()
    }

    /// Terms sorted by ascending df (the "most interesting first" order the
    /// fragmentation uses); ties broken by term id. Terms with df = 0 are
    /// excluded.
    pub fn terms_by_df_asc(&self) -> Vec<u32> {
        let mut terms: Vec<u32> = (0..self.df.len() as u32)
            .filter(|&t| self.df[t as usize] > 0)
            .collect();
        terms.sort_by_key(|&t| (self.df[t as usize], t));
        terms
    }
}

/// A forward cursor over one term's block-compressed posting run:
/// decode-on-demand (documents on block entry, term frequencies only when
/// scored) with a `seek` that binary-searches the contiguous block-header
/// array and unpacks a single block — the skip primitive behind the
/// MaxScore-pruned DAAT kernel.
///
/// This standalone form owns its decode buffer (one boxed [`CursorBuf`]).
/// The query kernel's hot path keeps the same state in pooled scratch
/// arrays instead ([`crate::scratch::QueryScratch`]) so steady-state
/// queries allocate nothing; both drive the identical [`TermView`] core.
#[derive(Debug, Clone)]
pub struct PostingCursor<'a> {
    view: TermView<'a>,
    pos: CursorPos,
    buf: Box<CursorBuf>,
}

impl<'a> PostingCursor<'a> {
    fn new(view: TermView<'a>) -> PostingCursor<'a> {
        let mut buf = Box::new(CursorBuf::new());
        let pos = view.start(&mut buf);
        PostingCursor { view, pos, buf }
    }

    /// The current posting's document id, or `None` when exhausted.
    #[inline]
    pub fn doc(&self) -> Option<u32> {
        self.view.doc_at(&self.pos, &self.buf)
    }

    /// The current posting's term frequency (0 when exhausted): served
    /// from the mini-block lookahead buffer, decoding a 16-entry
    /// mini-block on first touch.
    #[inline]
    pub fn tf(&mut self) -> u32 {
        self.view.tf_at(&mut self.pos, &mut self.buf)
    }

    /// Advance to the next posting.
    #[inline]
    pub fn advance(&mut self) {
        self.view.advance(&mut self.pos, &mut self.buf);
    }

    /// The cursor's position within the posting run (0-based; equals
    /// `len()` when exhausted). Block-max pruning divides this by
    /// [`crate::blocks::BLOCK_LEN`] to find the current block.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos.base + self.pos.idx
    }

    /// Whether every posting has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.position() >= self.view.len()
    }

    /// Postings not yet consumed (including the current one).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.view.len() - self.position().min(self.view.len())
    }

    /// Total postings in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the run has no postings at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Advance to the first posting with document id ≥ `target`: binary
    /// search over the block headers (`last_doc` fields, one contiguous
    /// array), then one block unpack and an in-block search. Never moves
    /// backwards. Returns the number of postings skipped over (positions
    /// passed without being scored), the pruning work-saved measure.
    pub fn seek(&mut self, target: u32) -> usize {
        self.view.seek(&mut self.pos, &mut self.buf, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::CollectionConfig;

    fn index() -> InvertedIndex {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        InvertedIndex::from_collection(&c)
    }

    #[test]
    fn stats_are_consistent() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        assert_eq!(idx.num_docs(), c.num_docs());
        assert_eq!(idx.vocab_size(), c.vocab_size());
        assert_eq!(idx.num_postings(), c.num_postings());
        assert_eq!(idx.stats().total_tokens, c.total_tokens());
        let expect_avg = c.total_tokens() as f64 / c.num_docs() as f64;
        assert!((idx.stats().avg_doc_len - expect_avg).abs() < 1e-9);
    }

    #[test]
    fn postings_decode_to_collection() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for term in [0u32, 5, 100, 1999] {
            let (docs, tfs) = idx.decode_postings(term).unwrap();
            let expect = c.postings_for_term(term);
            assert_eq!(docs.len(), expect.len());
            for (i, p) in expect.iter().enumerate() {
                assert_eq!(docs[i], p.doc);
                assert_eq!(tfs[i], p.tf);
            }
            // The streaming path yields the identical sequence.
            let mut streamed = Vec::new();
            idx.for_each_posting(term, |d, t| streamed.push((d, t)))
                .unwrap();
            let zipped: Vec<(u32, u32)> = docs.into_iter().zip(tfs).collect();
            assert_eq!(streamed, zipped);
        }
    }

    #[test]
    fn unknown_term_is_error() {
        let idx = index();
        assert!(matches!(
            idx.decode_postings(u32::MAX),
            Err(IrError::UnknownTerm(_))
        ));
        assert!(idx.df(u32::MAX).is_err());
        assert!(idx.cf(u32::MAX).is_err());
        assert!(idx.max_tf(u32::MAX).is_err());
        assert!(idx.for_each_posting(u32::MAX, |_, _| {}).is_err());
    }

    #[test]
    fn max_tf_bounds_all_postings() {
        let idx = index();
        for term in 0..idx.vocab_size() as u32 {
            let (_, tfs) = idx.decode_postings(term).unwrap();
            let observed_max = tfs.iter().copied().max().unwrap_or(0);
            assert_eq!(idx.max_tf(term).unwrap(), observed_max);
        }
    }

    #[test]
    fn block_headers_cover_runs() {
        let idx = index();
        for term in idx.terms_by_df_asc() {
            let (docs, tfs) = idx.decode_postings(term).unwrap();
            let view = idx.blocks().view(term);
            assert_eq!(view.len(), docs.len());
            assert_eq!(
                view.num_blocks(),
                docs.len().div_ceil(crate::blocks::BLOCK_LEN)
            );
            for (b, chunk) in docs.chunks(crate::blocks::BLOCK_LEN).enumerate() {
                let h = view.headers()[b];
                assert_eq!(h.first_doc, chunk[0]);
                assert_eq!(h.last_doc, *chunk.last().unwrap());
                assert_eq!(usize::from(h.len), chunk.len());
                let base = b * crate::blocks::BLOCK_LEN;
                let tf_max = tfs[base..base + chunk.len()].iter().copied().max().unwrap();
                assert_eq!(h.tf_bits, moa_storage::pack::bits_for(tf_max));
            }
        }
    }

    #[test]
    fn terms_by_df_ascending_order() {
        let idx = index();
        let terms = idx.terms_by_df_asc();
        assert!(!terms.is_empty());
        for w in terms.windows(2) {
            assert!(idx.df(w[0]).unwrap() <= idx.df(w[1]).unwrap());
        }
        // All listed terms occur.
        assert!(terms.iter().all(|&t| idx.df(t).unwrap() > 0));
    }

    #[test]
    fn doc_len_out_of_range_is_zero() {
        let idx = index();
        assert_eq!(idx.doc_len(u32::MAX), 0);
    }

    #[test]
    fn cursor_walks_postings_in_order() {
        let idx = index();
        let term = *idx.terms_by_df_asc().last().unwrap();
        let (docs, tfs) = idx.decode_postings(term).unwrap();
        let mut c = idx.cursor(term).unwrap();
        assert_eq!(c.len(), docs.len());
        for (i, &d) in docs.iter().enumerate() {
            assert_eq!(c.doc(), Some(d));
            assert_eq!(c.tf(), tfs[i]);
            assert_eq!(c.remaining(), docs.len() - i);
            c.advance();
        }
        assert!(c.is_exhausted());
        assert_eq!(c.doc(), None);
        assert_eq!(c.tf(), 0);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_seek_matches_linear_scan() {
        let idx = index();
        for term in idx.terms_by_df_asc() {
            let (docs, _) = idx.decode_postings(term).unwrap();
            // Seek to every doc id around each posting and compare with
            // the linear-scan definition: first posting with doc >= target.
            for &target in docs
                .iter()
                .flat_map(|&d| [d.saturating_sub(1), d, d + 1])
                .chain([0, u32::MAX])
                .collect::<Vec<u32>>()
                .iter()
            {
                let mut c = idx.cursor(term).unwrap();
                let skipped = c.seek(target);
                let expect = docs.iter().position(|&d| d >= target);
                assert_eq!(
                    c.doc(),
                    expect.map(|i| docs[i]),
                    "term {term} target {target}"
                );
                assert_eq!(skipped, expect.unwrap_or(docs.len()));
            }
        }
    }

    #[test]
    fn cursor_seek_is_monotone_and_counts_skips() {
        let idx = index();
        let term = *idx.terms_by_df_asc().last().unwrap();
        let (docs, _) = idx.decode_postings(term).unwrap();
        let mut c = idx.cursor(term).unwrap();
        // Seeking backwards (or to the current doc) never moves the cursor.
        c.seek(docs[docs.len() / 2]);
        let here = c.doc();
        assert_eq!(c.seek(0), 0);
        assert_eq!(c.doc(), here);
        // Total skips + scored positions account for the whole run.
        let mut c = idx.cursor(term).unwrap();
        let mut skipped = 0usize;
        let mut visited = 0usize;
        for (i, &d) in docs.iter().enumerate().step_by(3) {
            skipped += c.seek(d);
            assert_eq!(c.doc(), Some(docs[i]));
            visited += 1;
            c.advance();
        }
        skipped += c.remaining();
        assert_eq!(skipped + visited, docs.len());
    }

    #[test]
    fn unknown_term_cursor_is_error() {
        let idx = index();
        assert!(idx.cursor(u32::MAX).is_err());
    }

    #[test]
    fn run_len_equals_df_on_an_unsharded_index() {
        let idx = index();
        for t in 0..idx.vocab_size() as u32 {
            assert_eq!(idx.run_len(t).unwrap(), idx.df(t).unwrap() as usize);
        }
        assert!(idx.run_len(u32::MAX).is_err());
    }

    #[test]
    fn shard_by_docs_keeps_global_catalog_and_partitions_postings() {
        let idx = index();
        let p = 3u32;
        let shards: Vec<InvertedIndex> =
            (0..p).map(|s| idx.shard_by_docs(|d| d % p == s)).collect();
        for shard in &shards {
            // Catalog statistics are global, and shared rather than copied...
            assert!(std::ptr::eq(shard.doc_lens(), idx.doc_lens()));
            assert_eq!(shard.stats(), idx.stats());
            assert_eq!(shard.num_docs(), idx.num_docs());
            assert_eq!(shard.vocab_size(), idx.vocab_size());
            for t in 0..idx.vocab_size() as u32 {
                assert_eq!(shard.df(t).unwrap(), idx.df(t).unwrap());
                assert_eq!(shard.cf(t).unwrap(), idx.cf(t).unwrap());
                assert_eq!(shard.max_tf(t).unwrap(), idx.max_tf(t).unwrap());
            }
        }
        // ...while the postings partition exactly: per term, concatenating
        // the shard runs in shard order of each doc recovers the full run.
        let mut total = 0usize;
        for shard in &shards {
            total += shard.num_postings();
        }
        assert_eq!(total, idx.num_postings());
        for t in 0..idx.vocab_size() as u32 {
            let (docs, tfs) = idx.decode_postings(t).unwrap();
            let mut rebuilt: Vec<(u32, u32)> = Vec::new();
            for shard in &shards {
                let (d, f) = shard.decode_postings(t).unwrap();
                assert!(d.windows(2).all(|w| w[0] < w[1]), "shard run stays sorted");
                rebuilt.extend(d.into_iter().zip(f));
            }
            rebuilt.sort_by_key(|&(d, _)| d);
            let expect: Vec<(u32, u32)> = docs.into_iter().zip(tfs).collect();
            assert_eq!(rebuilt, expect, "term {t}");
            // Shard-local run lengths sum to the global df.
            let run_sum: usize = shards.iter().map(|s| s.run_len(t).unwrap()).sum();
            assert_eq!(run_sum, idx.df(t).unwrap() as usize);
        }
    }

    #[test]
    fn multi_way_shard_equals_per_predicate_sharding() {
        let idx = index();
        for p in [1usize, 3, 4] {
            let multi = idx.shard_by_docs_multi(p, |d| d as usize % p);
            assert_eq!(multi.len(), p);
            for (s, shard) in multi.iter().enumerate() {
                let want = idx.shard_by_docs(|d| d as usize % p == s);
                for t in 0..idx.vocab_size() as u32 {
                    assert_eq!(
                        shard.decode_postings(t).unwrap(),
                        want.decode_postings(t).unwrap(),
                        "p={p} shard {s} term {t}"
                    );
                }
                assert_eq!(shard.stats(), want.stats());
                assert_eq!(shard.num_postings(), want.num_postings());
            }
        }
        // Out-of-range assignments clamp to the last shard.
        let clamped = idx.shard_by_docs_multi(2, |_| 99);
        assert_eq!(clamped[0].num_postings(), 0);
        assert_eq!(clamped[1].num_postings(), idx.num_postings());
    }

    #[test]
    fn from_sorted_postings_validates_input() {
        // Unsorted postings rejected.
        assert!(
            InvertedIndex::from_sorted_postings(3, vec![2, 2], &[(1, 0, 1), (0, 0, 1)],).is_err()
        );
        // Duplicate (term, doc) pairs rejected with a typed error (the
        // delta encoder requires strictly increasing doc ids per run).
        assert!(InvertedIndex::from_sorted_postings(1, vec![2], &[(0, 0, 1), (0, 0, 1)]).is_err());
        // Term beyond vocab rejected.
        assert!(InvertedIndex::from_sorted_postings(2, vec![1], &[(5, 0, 1)]).is_err());
        // Doc beyond doc_len rejected.
        assert!(InvertedIndex::from_sorted_postings(2, vec![1], &[(0, 3, 1)]).is_err());
        // Empty collection rejected.
        let none: &[(u32, u32, u32)] = &[];
        assert!(InvertedIndex::from_sorted_postings(2, vec![], none).is_err());
        // A valid minimal index.
        let idx =
            InvertedIndex::from_sorted_postings(2, vec![3, 2], &[(0, 0, 2), (1, 1, 1)]).unwrap();
        assert_eq!(idx.df(0).unwrap(), 1);
        assert_eq!(idx.cf(0).unwrap(), 2);
        assert_eq!(idx.stats().total_tokens, 5);
    }

    #[test]
    fn block_storage_is_compact() {
        let idx = index();
        let flat = idx.num_postings() * 8;
        assert!(
            idx.blocks().storage_bytes() < flat,
            "block storage {} >= flat {flat}",
            idx.blocks().storage_bytes()
        );
    }
}
