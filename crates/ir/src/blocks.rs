//! Block-compressed posting storage.
//!
//! The flat `Vec<u32>` posting arrays the index shipped with until now make
//! every posting cost two 4-byte loads from two parallel arrays, and every
//! skip decision cost extra loads from *separate* block-max tables — at
//! memory-bandwidth speed the constant factor per posting dominates the
//! pruned DAAT kernel (2.3–3.4x fewer postings scanned bought only
//! 1.1–1.8x wall-time on flat arrays). This module is the storage-format
//! fix, after
//! the block layouts of the MonetDB/BAT lineage:
//!
//! * postings are split into fixed [`BLOCK_LEN`]-entry **blocks**; document
//!   ids are delta-encoded (`gap − 1`, strictly increasing ids) and
//!   bit-packed at a per-block width, term frequencies bit-packed alongside,
//! * each block's [`BlockHeader`] (first/last doc, bit widths, max tf,
//!   payload offset) lives in one contiguous header array — the skip
//!   machinery never touches the packed payload of a block it rejects,
//! * decoding is **on demand** into a caller-owned [`CursorBuf`]
//!   ([`BLOCK_LEN`] doc slots + [`BLOCK_LEN`] tf slots): document ids
//!   decode when a cursor enters a block, term frequencies only when a
//!   posting is actually scored, so skipped blocks pay zero unpack work
//!   and pruned blocks pay only the doc half.
//!
//! The per-model block-max *score* bounds are colocated in the same
//! block-granular geometry by [`crate::scorer::ScoreBounds`]
//! (`BlockBound { last_doc, max_score }`), so one 16-byte load answers the
//! DAAT gate's "can this block matter, and how far may I skip?" — exactly
//! one cache line per block decision.
//!
//! Encoding is lossless, so every evaluator built on top remains
//! bit-identical to the flat layout (pinned by the round-trip proptest in
//! `crates/ir/tests/proptest_blocks.rs` and the differential oracle).

use moa_storage::pack::{
    bits_for, pack_into, unpack_deltas_prefix_sum, unpack_from, unpack_slice, words_for,
};

/// Postings per block. 128 keeps a block's decoded image (two 512-byte
/// arrays) inside L1 while making the header array 1/128th of the posting
/// count — small enough to stay cache-resident across a query.
pub const BLOCK_LEN: usize = 128;

/// Postings per mini-block: the granularity of the cursor's lazy tf
/// decode and of the quantized sub-block score bounds
/// (`crate::scorer::BlockBound` carries one 4-bit score maximum per
/// mini-block). 16 entries × 8 mini-blocks tile one [`BLOCK_LEN`] block.
pub const MINI_LEN: usize = 16;

/// Mini-blocks per block (`BLOCK_LEN / MINI_LEN`).
pub const MINIS_PER_BLOCK: usize = BLOCK_LEN / MINI_LEN;

/// Per-block layout metadata, stored contiguously (one array per list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Document id of the block's first posting.
    pub first_doc: u32,
    /// Document id of the block's last posting — the skip horizon.
    pub last_doc: u32,
    /// Offset of the block's packed payload, in `u64` words.
    pub payload_off: u32,
    /// Bit width of the packed doc-id deltas.
    pub doc_bits: u8,
    /// Bit width of the packed term frequencies.
    pub tf_bits: u8,
    /// Postings in this block (`BLOCK_LEN` except for a final partial
    /// block).
    pub len: u16,
}

// Headers are pure per-block overhead, paid once per (term, 128-posting
// block) — on a large vocabulary most terms have short runs, so every
// byte here is a direct bytes-per-posting cost. Keep the record at
// exactly 16 bytes: anything derivable at build time (e.g. the block's
// max tf, which only ever fed `tf_bits`) stays out.
const _: () = assert!(std::mem::size_of::<BlockHeader>() == 16);

/// Decode scratch for one cursor: one block's worth of document ids and
/// term frequencies. ~1 KiB; owned by [`crate::scratch::QueryScratch`] (one
/// per query term, reused across queries) or boxed inside a standalone
/// [`crate::index::PostingCursor`].
#[derive(Debug, Clone)]
pub struct CursorBuf {
    /// Decoded document ids of the current block (valid only while
    /// [`CursorPos::docs_ready`]).
    pub docs: [u32; BLOCK_LEN],
    /// Decoded term frequencies. Whole-block consumers
    /// ([`BlockPostingList::for_each`], the bound-table builder) fill all
    /// of it at once; cursor paths fill it one [`MINI_LEN`]-entry
    /// mini-block at a time, on the first tf read inside that mini-block
    /// (tracked by [`CursorPos::tf_ready`]), so a scored posting costs an
    /// amortized 16-value lookahead decode instead of a point unpack per
    /// posting.
    pub tfs: [u32; BLOCK_LEN],
}

impl CursorBuf {
    /// A zeroed buffer.
    pub fn new() -> CursorBuf {
        CursorBuf {
            docs: [0; BLOCK_LEN],
            tfs: [0; BLOCK_LEN],
        }
    }
}

impl Default for CursorBuf {
    fn default() -> Self {
        CursorBuf::new()
    }
}

/// Plain-data cursor position within one term's block run. Separate from
/// the buffer so the query scratch can keep both in flat reusable arrays.
#[derive(Debug, Clone, Copy)]
pub struct CursorPos {
    /// Current block index within the term's run.
    pub block: usize,
    /// Offset within the current block.
    pub idx: usize,
    /// Absolute posting position of the current block's first entry
    /// (`block * BLOCK_LEN`, cached).
    pub base: usize,
    /// Whether the doc half of the current block has been decoded into
    /// the buffer. A cursor parked at a block's first posting needs no
    /// decode at all (`first_doc` lives in the header), so blocks that
    /// are entered and immediately skipped past never touch the payload.
    pub docs_ready: bool,
    /// Bitmask of which [`MINI_LEN`]-entry mini-blocks of the current
    /// block's tf half are decoded into the buffer (bit `m` covers
    /// entries `m*16..(m+1)*16`). Cleared on every block change; a block
    /// whose postings are never scored never touches its tf payload.
    pub tf_ready: u8,
}

/// One term's slice of a [`BlockPostingList`]: its headers, the shared
/// payload, and the run length. Cheap to construct (two offset loads), so
/// long-lived state needs to remember only the term id.
#[derive(Debug, Clone, Copy)]
pub struct TermView<'a> {
    headers: &'a [BlockHeader],
    payload: &'a [u64],
    len: usize,
}

impl<'a> TermView<'a> {
    /// Total postings in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run has no postings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run's block headers.
    #[inline]
    pub fn headers(&self) -> &'a [BlockHeader] {
        self.headers
    }

    /// Number of blocks in the run.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.headers.len()
    }

    /// Decode block `b`'s document ids into `buf.docs[..len]` — one fused
    /// unpack + prefix-sum pass (deltas store `gap − 1` with a leading 0).
    pub fn decode_docs(&self, b: usize, buf: &mut CursorBuf) {
        let h = &self.headers[b];
        let n = h.len as usize;
        unpack_deltas_prefix_sum(
            &self.payload[h.payload_off as usize..],
            h.doc_bits,
            n,
            h.first_doc,
            &mut buf.docs,
        );
    }

    /// Decode block `b`'s term frequencies into `buf.tfs[..len]`.
    pub fn decode_tfs(&self, b: usize, buf: &mut CursorBuf) {
        let h = &self.headers[b];
        let n = h.len as usize;
        let off = h.payload_off as usize + words_for(n, h.doc_bits);
        unpack_from(&self.payload[off..], h.tf_bits, n, &mut buf.tfs);
    }

    /// Decode one [`MINI_LEN`]-entry mini-block of block `b`'s term
    /// frequencies into the matching slots of `buf.tfs` — the cursor
    /// lookahead decode.
    fn decode_tf_mini(&self, b: usize, mini: usize, buf: &mut CursorBuf) {
        let h = &self.headers[b];
        let n = h.len as usize;
        let off = h.payload_off as usize + words_for(n, h.doc_bits);
        let start = mini * MINI_LEN;
        let count = n.saturating_sub(start).min(MINI_LEN);
        unpack_slice(
            &self.payload[off..],
            h.tf_bits,
            start,
            count,
            &mut buf.tfs[start..start + count],
        );
    }

    /// Position a fresh cursor at the run's first posting. No payload is
    /// decoded: the first posting's document id is the first block's
    /// header `first_doc`.
    pub fn start(&self, _buf: &mut CursorBuf) -> CursorPos {
        CursorPos {
            block: 0,
            idx: 0,
            base: 0,
            docs_ready: false,
            tf_ready: 0,
        }
    }

    /// The current posting's document id, or `None` when exhausted. A
    /// cursor at a block's first posting reads the header's `first_doc`;
    /// deeper positions read the decoded ids (the decode invariant is
    /// maintained by [`TermView::advance`] / [`TermView::seek`]).
    #[inline]
    pub fn doc_at(&self, pos: &CursorPos, buf: &CursorBuf) -> Option<u32> {
        if pos.base + pos.idx >= self.len {
            None
        } else if pos.idx == 0 {
            Some(self.headers[pos.block].first_doc)
        } else {
            Some(buf.docs[pos.idx])
        }
    }

    /// The current posting's term frequency (0 when exhausted). The first
    /// tf read inside a [`MINI_LEN`]-entry mini-block decodes that whole
    /// mini-block into the lookahead buffer; subsequent reads in the same
    /// mini-block are plain array loads — a pruned query that scores one
    /// posting of a block pays a 16-value decode, never the 128-value
    /// bulk unpack, while dense scoring amortizes to bulk-decode cost.
    #[inline]
    pub fn tf_at(&self, pos: &mut CursorPos, buf: &mut CursorBuf) -> u32 {
        if pos.base + pos.idx >= self.len {
            return 0;
        }
        let mini = pos.idx / MINI_LEN;
        let bit = 1u8 << mini;
        if pos.tf_ready & bit == 0 {
            self.decode_tf_mini(pos.block, mini, buf);
            pos.tf_ready |= bit;
        }
        buf.tfs[pos.idx]
    }

    /// Advance one posting. Entering the body of a block (offset ≥ 1)
    /// decodes its doc ids once; crossing into a new block decodes
    /// nothing (the next id is the header's `first_doc`). Safe (and a
    /// no-op beyond bookkeeping) when already exhausted.
    #[inline]
    pub fn advance(&self, pos: &mut CursorPos, buf: &mut CursorBuf) {
        pos.idx += 1;
        let block_len = self
            .headers
            .get(pos.block)
            .map_or(0, |h| usize::from(h.len));
        if pos.idx >= block_len {
            pos.base += block_len;
            pos.block += 1;
            pos.idx = 0;
            pos.docs_ready = false;
            pos.tf_ready = 0;
        } else if !pos.docs_ready {
            self.decode_docs(pos.block, buf);
            pos.docs_ready = true;
        }
    }

    /// Advance to the first posting with document id ≥ `target`: binary
    /// search over the contiguous header array (touching only `last_doc`
    /// fields), then at most a single block unpack and an in-block
    /// search — a seek that lands on a block's first posting decodes
    /// nothing at all. Never moves backwards. Returns the number of
    /// postings skipped over.
    pub fn seek(&self, pos: &mut CursorPos, buf: &mut CursorBuf, target: u32) -> usize {
        let start_abs = pos.base + pos.idx;
        if start_abs >= self.len {
            return 0;
        }
        let h = &self.headers[pos.block];
        let here = if pos.idx == 0 {
            h.first_doc
        } else {
            buf.docs[pos.idx]
        };
        if here >= target {
            return 0;
        }
        // Still inside the current block? In-block binary search over the
        // decoded ids (decode now if this block was never entered).
        if target <= h.last_doc {
            if !pos.docs_ready {
                self.decode_docs(pos.block, buf);
                pos.docs_ready = true;
            }
            let block_len = usize::from(h.len);
            let rest = &buf.docs[pos.idx + 1..block_len];
            pos.idx += 1 + rest.partition_point(|&d| d < target);
            return pos.base + pos.idx - start_abs;
        }
        // Header search: first block whose last_doc reaches the target.
        let k =
            pos.block + 1 + self.headers[pos.block + 1..].partition_point(|h| h.last_doc < target);
        if k >= self.headers.len() {
            // Exhausted: park one past the end.
            let skipped = self.len - start_abs;
            pos.block = self.headers.len();
            pos.base = self.len;
            pos.idx = 0;
            pos.docs_ready = false;
            pos.tf_ready = 0;
            return skipped;
        }
        pos.block = k;
        pos.base = k * BLOCK_LEN; // all blocks before a run's last are full
        pos.docs_ready = false;
        pos.tf_ready = 0;
        if target <= self.headers[k].first_doc {
            // Landed on the block's first posting: header data suffices.
            pos.idx = 0;
            return pos.base - start_abs;
        }
        self.decode_docs(k, buf);
        pos.docs_ready = true;
        let block_len = usize::from(self.headers[k].len);
        pos.idx = buf.docs[..block_len].partition_point(|&d| d < target);
        pos.base + pos.idx - start_abs
    }
}

/// Append-only builder: push each term's `(docs, tfs)` run in term order.
#[derive(Debug, Default)]
pub struct BlockListBuilder {
    headers: Vec<BlockHeader>,
    term_blocks: Vec<usize>,
    term_lens: Vec<u32>,
    payload: Vec<u64>,
    num_postings: usize,
}

impl BlockListBuilder {
    /// An empty builder.
    pub fn new() -> BlockListBuilder {
        BlockListBuilder {
            term_blocks: vec![0],
            ..BlockListBuilder::default()
        }
    }

    /// Append the next term's posting run (`docs` strictly increasing,
    /// `tfs` aligned). An empty run records a term with no postings.
    pub fn push_run(&mut self, docs: &[u32], tfs: &[u32]) {
        debug_assert_eq!(docs.len(), tfs.len());
        debug_assert!(docs.windows(2).all(|w| w[0] < w[1]));
        let mut deltas = [0u32; BLOCK_LEN];
        for (block_docs, block_tfs) in docs.chunks(BLOCK_LEN).zip(tfs.chunks(BLOCK_LEN)) {
            let n = block_docs.len();
            deltas[0] = 0;
            let mut max_delta = 0u32;
            for i in 1..n {
                let d = block_docs[i] - block_docs[i - 1] - 1;
                deltas[i] = d;
                max_delta = max_delta.max(d);
            }
            let max_tf = block_tfs.iter().copied().max().unwrap_or(0);
            let doc_bits = bits_for(max_delta);
            let tf_bits = bits_for(max_tf);
            let payload_off =
                u32::try_from(self.payload.len()).expect("payload below 32 GiB of words");
            pack_into(&deltas[..n], doc_bits, &mut self.payload);
            pack_into(block_tfs, tf_bits, &mut self.payload);
            self.headers.push(BlockHeader {
                first_doc: block_docs[0],
                last_doc: block_docs[n - 1],
                payload_off,
                doc_bits,
                tf_bits,
                len: n as u16,
            });
        }
        self.term_blocks.push(self.headers.len());
        self.term_lens.push(docs.len() as u32);
        self.num_postings += docs.len();
    }

    /// Seal the builder into an immutable list.
    pub fn finish(self) -> BlockPostingList {
        BlockPostingList {
            headers: self.headers,
            term_blocks: self.term_blocks,
            term_lens: self.term_lens,
            payload: self.payload,
            num_postings: self.num_postings,
        }
    }
}

/// The block-compressed posting store of a whole index: per-term block
/// runs over one contiguous header array and one packed payload.
#[derive(Debug, Clone)]
pub struct BlockPostingList {
    headers: Vec<BlockHeader>,
    /// `term_blocks[t]..term_blocks[t + 1]` is term `t`'s header range.
    term_blocks: Vec<usize>,
    term_lens: Vec<u32>,
    payload: Vec<u64>,
    num_postings: usize,
}

impl BlockPostingList {
    /// Number of terms (the vocabulary size the list was built over).
    pub fn num_terms(&self) -> usize {
        self.term_lens.len()
    }

    /// Total postings across all terms.
    pub fn num_postings(&self) -> usize {
        self.num_postings
    }

    /// Posting count of one term's run (0 for out-of-range terms).
    #[inline]
    pub fn run_len(&self, term: u32) -> usize {
        self.term_lens.get(term as usize).map_or(0, |&l| l as usize)
    }

    /// One term's view. Panics if `term` is out of range (callers validate
    /// against the catalog first).
    #[inline]
    pub fn view(&self, term: u32) -> TermView<'_> {
        let t = term as usize;
        let (s, e) = (self.term_blocks[t], self.term_blocks[t + 1]);
        TermView {
            headers: &self.headers[s..e],
            payload: &self.payload,
            len: self.term_lens[t] as usize,
        }
    }

    /// Stream one term's postings in document order through `f(doc, tf)`,
    /// decoding block by block on a stack buffer — the zero-allocation
    /// full-run path the set-at-a-time evaluator and the builders use.
    pub fn for_each(&self, term: u32, mut f: impl FnMut(u32, u32)) {
        self.for_each_while(term, |d, t| {
            f(d, t);
            true
        });
    }

    /// Like [`BlockPostingList::for_each`], but `f` returns whether to
    /// continue: a `false` stops the stream mid-block. Returns `true` when
    /// the run was streamed to completion — the breakable variant the
    /// deadline-gated accumulator loops use so an expired budget no
    /// longer overshoots by one whole uninterruptible term run.
    pub fn for_each_while(&self, term: u32, mut f: impl FnMut(u32, u32) -> bool) -> bool {
        let view = self.view(term);
        let mut buf = CursorBuf::new();
        for b in 0..view.num_blocks() {
            view.decode_docs(b, &mut buf);
            view.decode_tfs(b, &mut buf);
            let n = usize::from(view.headers()[b].len);
            for i in 0..n {
                if !f(buf.docs[i], buf.tfs[i]) {
                    return false;
                }
            }
        }
        true
    }

    /// Materialize one term's run as owned `(docs, tfs)` vectors — the
    /// convenience path for builders and tests.
    pub fn decode_term(&self, term: u32) -> (Vec<u32>, Vec<u32>) {
        let n = self.run_len(term);
        let mut docs = Vec::with_capacity(n);
        let mut tfs = Vec::with_capacity(n);
        self.for_each(term, |d, t| {
            docs.push(d);
            tfs.push(t);
        });
        (docs, tfs)
    }

    /// Size of the packed payload plus headers, in bytes — the compression
    /// figure behind `moabench`'s `blocks.bytes_per_posting`, against the
    /// flat layout's 8 bytes/posting.
    pub fn storage_bytes(&self) -> usize {
        self.payload.len() * 8 + self.headers.len() * std::mem::size_of::<BlockHeader>()
    }

    /// Total number of storage blocks across every term's run — the
    /// multiplier for per-block side tables (e.g. the 16-byte
    /// [`crate::scorer::BlockBound`] records, nibble maxima included).
    pub fn num_blocks(&self) -> usize {
        self.headers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(runs: &[(Vec<u32>, Vec<u32>)]) -> BlockPostingList {
        let mut b = BlockListBuilder::new();
        for (docs, tfs) in runs {
            b.push_run(docs, tfs);
        }
        b.finish()
    }

    fn run(n: usize, stride: u32) -> (Vec<u32>, Vec<u32>) {
        // Strictly increasing docs with irregular gaps in [1, stride].
        let mut d = 0u32;
        let docs: Vec<u32> = (0..n as u32)
            .map(|i| {
                d += 1 + (i.wrapping_mul(7919)) % stride.max(1);
                d
            })
            .collect();
        let tfs: Vec<u32> = (0..n as u32).map(|i| 1 + (i % 7)).collect();
        (docs, tfs)
    }

    #[test]
    fn roundtrips_including_partial_final_block() {
        for n in [0usize, 1, 5, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 1000] {
            let (docs, tfs) = run(n, 3);
            let list = build(&[(docs.clone(), tfs.clone())]);
            assert_eq!(list.run_len(0), n);
            assert_eq!(list.num_postings(), n);
            assert_eq!(list.decode_term(0), (docs, tfs), "n={n}");
        }
    }

    #[test]
    fn consecutive_docs_pack_at_width_zero() {
        let docs: Vec<u32> = (100..100 + BLOCK_LEN as u32).collect();
        let tfs = vec![1u32; BLOCK_LEN];
        let list = build(&[(docs.clone(), tfs.clone())]);
        let h = list.view(0).headers()[0];
        assert_eq!(h.doc_bits, 0, "consecutive run needs no delta bits");
        assert_eq!(h.tf_bits, 1);
        assert_eq!((h.first_doc, h.last_doc), (100, 100 + BLOCK_LEN as u32 - 1));
        assert_eq!(list.decode_term(0), (docs, tfs));
    }

    #[test]
    fn multi_term_runs_are_independent() {
        let a = run(300, 2);
        let empty = (Vec::new(), Vec::new());
        let b = run(17, 1000);
        let list = build(&[a.clone(), empty, b.clone()]);
        assert_eq!(list.num_terms(), 3);
        assert_eq!(list.decode_term(0), a);
        assert_eq!(list.run_len(1), 0);
        assert!(list.view(1).is_empty());
        assert_eq!(list.decode_term(2), b);
        assert_eq!(list.num_postings(), 317);
        assert_eq!(list.run_len(u32::MAX), 0);
    }

    #[test]
    fn cursor_walks_in_order_with_lazy_tfs() {
        let (docs, tfs) = run(500, 5);
        let list = build(&[(docs.clone(), tfs.clone())]);
        let view = list.view(0);
        let mut buf = CursorBuf::new();
        let mut pos = view.start(&mut buf);
        for i in 0..docs.len() {
            assert_eq!(view.doc_at(&pos, &buf), Some(docs[i]));
            assert_eq!(view.tf_at(&mut pos, &mut buf), tfs[i]);
            view.advance(&mut pos, &mut buf);
        }
        assert_eq!(view.doc_at(&pos, &buf), None);
        assert_eq!(view.tf_at(&mut pos, &mut buf), 0);
        view.advance(&mut pos, &mut buf); // past-the-end advance is safe
        assert_eq!(view.doc_at(&pos, &buf), None);
    }

    #[test]
    fn tf_reads_decode_one_mini_block_at_a_time() {
        let (docs, tfs) = run(300, 5);
        let list = build(&[(docs.clone(), tfs.clone())]);
        let view = list.view(0);
        let mut buf = CursorBuf::new();
        let mut pos = view.start(&mut buf);
        // Seek into the middle of the second block.
        let target = docs[BLOCK_LEN + 40];
        view.seek(&mut pos, &mut buf, target);
        assert_eq!(pos.tf_ready, 0, "seeking never touches the tf payload");
        assert_eq!(view.tf_at(&mut pos, &mut buf), tfs[BLOCK_LEN + 40]);
        let mini = 40 / MINI_LEN;
        assert_eq!(
            pos.tf_ready,
            1 << mini,
            "one tf read decodes exactly its mini-block"
        );
        // The rest of that mini-block is already in the lookahead buffer.
        for k in (mini * MINI_LEN)..((mini + 1) * MINI_LEN) {
            assert_eq!(buf.tfs[k], tfs[BLOCK_LEN + k]);
        }
        // Crossing into a new block resets the mask.
        view.seek(&mut pos, &mut buf, docs[2 * BLOCK_LEN + 3]);
        assert_eq!(pos.tf_ready, 0);
        assert_eq!(view.tf_at(&mut pos, &mut buf), tfs[2 * BLOCK_LEN + 3]);
        assert_eq!(pos.tf_ready, 1 << (3 / MINI_LEN));
    }

    #[test]
    fn for_each_while_stops_mid_run() {
        let (docs, tfs) = run(500, 4);
        let list = build(&[(docs.clone(), tfs)]);
        let mut seen = 0usize;
        let complete = list.for_each_while(0, |_, _| {
            seen += 1;
            seen < 200
        });
        assert!(!complete);
        assert_eq!(seen, 200, "stops exactly where the callback said no");
        let complete = list.for_each_while(0, |_, _| true);
        assert!(complete);
    }

    #[test]
    fn seek_matches_linear_scan_and_counts_skips() {
        let (docs, tfs) = run(700, 4);
        let list = build(&[(docs.clone(), tfs.clone())]);
        let view = list.view(0);
        let targets: Vec<u32> = docs
            .iter()
            .flat_map(|&d| [d.saturating_sub(1), d, d + 1])
            .chain([0, u32::MAX])
            .collect();
        for &target in &targets {
            let mut buf = CursorBuf::new();
            let mut pos = view.start(&mut buf);
            let skipped = view.seek(&mut pos, &mut buf, target);
            let expect = docs.iter().position(|&d| d >= target);
            assert_eq!(
                view.doc_at(&pos, &buf),
                expect.map(|i| docs[i]),
                "target {target}"
            );
            assert_eq!(skipped, expect.unwrap_or(docs.len()));
            if let Some(i) = expect {
                assert_eq!(view.tf_at(&mut pos, &mut buf), tfs[i]);
            }
        }
        // Monotone: seeking backwards never moves.
        let mut buf = CursorBuf::new();
        let mut pos = view.start(&mut buf);
        view.seek(&mut pos, &mut buf, docs[docs.len() / 2]);
        let here = view.doc_at(&pos, &buf);
        assert_eq!(view.seek(&mut pos, &mut buf, 0), 0);
        assert_eq!(view.doc_at(&pos, &buf), here);
    }

    #[test]
    fn interleaved_seek_and_advance_balance_the_ledger() {
        let (docs, tfs) = run(777, 6);
        let list = build(&[(docs.clone(), tfs)]);
        let view = list.view(0);
        let mut buf = CursorBuf::new();
        let mut pos = view.start(&mut buf);
        let mut skipped = 0usize;
        let mut visited = 0usize;
        for (i, &d) in docs.iter().enumerate().step_by(11) {
            skipped += view.seek(&mut pos, &mut buf, d);
            assert_eq!(view.doc_at(&pos, &buf), Some(docs[i]));
            visited += 1;
            view.advance(&mut pos, &mut buf);
        }
        skipped += view.len() - (pos.base + pos.idx);
        assert_eq!(skipped + visited, docs.len());
    }

    #[test]
    fn storage_is_smaller_than_flat() {
        let (docs, tfs) = run(10_000, 7);
        let list = build(&[(docs, tfs)]);
        let flat = list.num_postings() * 8;
        assert!(
            list.storage_bytes() < flat / 2,
            "{} bytes vs flat {flat}",
            list.storage_bytes()
        );
    }
}
