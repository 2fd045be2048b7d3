//! Horizontal fragmentation of the term–document matrix (the paper's Step 1).
//!
//! In the paper's flattened Moa/MonetDB execution model, the term–document
//! matrix is a table of `(term, doc, tf)` triples (here a [`TdTable`] of
//! three parallel columns) and a query's posting retrieval is a
//! *set-at-a-time selection over that table* — work proportional to the
//! table's volume, not to the query's result. Fragmenting the table by
//! document frequency therefore directly cuts query time:
//!
//! * **Fragment A** — the "most interesting" (lowest-df, highest-idf) terms;
//!   a small share of the volume. Evaluating only A is the paper's *unsafe*
//!   technique: fast, but quality drops when query terms live in B.
//! * **Fragment B** — the frequent rest, the bulk of the volume. The *safe*
//!   variant consults an early quality check ([`crate::safety`]) and
//!   *switches in* fragment B when needed — either by scanning B or through
//!   a **non-dense index** ([`moa_storage::SparseIndex`]) over B's sorted
//!   term column, the acceleration the paper proposes.
//!
//! [`FragmentedIndex::build`] reads only the catalog: the fragment
//! boundary, and each fragment's volume as the sum of its terms' resident
//! run lengths. A fragment's table, with the non-dense index declared for
//! it, is built on the first fragmented evaluation that reads it, so a
//! serving shard whose planner never picks a fragmented plan carries no
//! table. That one-time build is not deadline-polled: the query that
//! triggers it pays for it in full. Scan counts are unaffected, because a
//! lazily built table is the same table the eager build produced.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use moa_storage::SparseIndex;
use moa_topn::TopNHeap;

use crate::accum::EpochAccumulator;
use crate::blocks::BLOCK_LEN;
use crate::error::{IrError, Result};
use crate::index::InvertedIndex;
use crate::ranking::RankingModel;
use crate::safety::{SwitchDecision, SwitchPolicy};
use crate::scorer::{block_bound, BlockBound, ScoreBounds, ScoreKernel, TermScorer, SEED_RUN_MAX};
use crate::threshold::BoundGate;

/// How the fragment boundary is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FragmentSpec {
    /// Fragment A holds the rarest terms whose cumulative posting volume
    /// stays below this fraction of the total (0, 1].
    VolumeFraction(f64),
    /// Fragment A holds this fraction of the observed terms, rarest first
    /// (the paper's "95% most interesting terms" phrasing).
    TermFraction(f64),
    /// Fragment A holds every term with `df <=` this threshold.
    DfThreshold(u32),
}

/// A flat `(term, doc, tf)` table sorted by term — one fragment as three
/// parallel columns, with an optional non-dense index read over the term
/// column.
#[derive(Debug, Clone)]
pub struct TdTable {
    terms: Vec<u32>,
    docs: Vec<u32>,
    tfs: Vec<u32>,
    sparse: Option<SparseIndex>,
}

/// Scan statistics of one posting-retrieval pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use]
pub struct ScanStats {
    /// Table entries inspected.
    pub scanned: usize,
    /// Entries matching the query terms (and therefore gathered).
    pub matched: usize,
    /// Sparse-index range lookups issued (0 for plain scans).
    pub lookups: usize,
}

/// Table entries inspected between deadline polls inside the gated
/// retrieval passes: coarse enough that the poll branch is amortized to
/// noise, fine enough that an expired deadline stops a scan within about
/// a thousand entries instead of at the end of the fragment.
pub const SCAN_POLL_STRIDE: usize = 1024;

impl TdTable {
    /// Build a fragment table holding the postings of the selected terms,
    /// with a non-dense index over its sorted term column when
    /// `sparse_block` names a block size.
    pub(crate) fn from_index(
        index: &InvertedIndex,
        keep: impl Fn(u32) -> bool,
        sparse_block: Option<usize>,
    ) -> Result<TdTable> {
        let mut terms = Vec::new();
        let mut docs = Vec::new();
        let mut tfs = Vec::new();
        for term in 0..index.vocab_size() as u32 {
            if !keep(term) {
                continue;
            }
            index.for_each_posting(term, |doc, tf| {
                terms.push(term);
                docs.push(doc);
                tfs.push(tf);
            })?;
        }
        let sparse = sparse_block
            .map(|block| SparseIndex::build(&terms, block))
            .transpose()?;
        Ok(TdTable {
            terms,
            docs,
            tfs,
            sparse,
        })
    }

    /// Number of `(term, doc, tf)` entries (the fragment's volume).
    pub fn volume(&self) -> usize {
        self.terms.len()
    }

    /// Retrieve the postings of `query_terms` by scanning the whole table
    /// (the un-indexed selection): cost = volume.
    pub fn postings_scan(
        &self,
        query_terms: &HashSet<u32>,
        on_posting: impl FnMut(u32, u32, u32),
    ) -> ScanStats {
        self.postings_scan_while(query_terms, on_posting, || true).0
    }

    /// [`TdTable::postings_scan`] with a deadline hook: `keep_going` is
    /// polled every [`SCAN_POLL_STRIDE`] inspected entries and the scan
    /// stops early (returning `false` alongside the partial stats) the
    /// first time it answers `false`. The scanned count then reflects the
    /// entries actually inspected, not the fragment volume.
    pub fn postings_scan_while(
        &self,
        query_terms: &HashSet<u32>,
        mut on_posting: impl FnMut(u32, u32, u32),
        mut keep_going: impl FnMut() -> bool,
    ) -> (ScanStats, bool) {
        let mut stats = ScanStats::default();
        for i in 0..self.terms.len() {
            if i % SCAN_POLL_STRIDE == 0 && !keep_going() {
                return (stats, false);
            }
            stats.scanned += 1;
            if query_terms.contains(&self.terms[i]) {
                stats.matched += 1;
                on_posting(self.terms[i], self.docs[i], self.tfs[i]);
            }
        }
        (stats, true)
    }

    /// Retrieve the postings of `query_terms` through the non-dense index:
    /// cost = the covering blocks of each term's run. Falls back to a full
    /// scan when no index has been built.
    pub fn postings_indexed(
        &self,
        query_terms: &HashSet<u32>,
        on_posting: impl FnMut(u32, u32, u32),
    ) -> ScanStats {
        self.postings_indexed_while(query_terms, on_posting, || true)
            .0
    }

    /// [`TdTable::postings_indexed`] with the same deadline hook as
    /// [`TdTable::postings_scan_while`]: polled once per term lookup and
    /// every [`SCAN_POLL_STRIDE`] inspected entries within a term's
    /// covering range.
    pub fn postings_indexed_while(
        &self,
        query_terms: &HashSet<u32>,
        mut on_posting: impl FnMut(u32, u32, u32),
        mut keep_going: impl FnMut() -> bool,
    ) -> (ScanStats, bool) {
        let Some(sparse) = &self.sparse else {
            return self.postings_scan_while(query_terms, on_posting, keep_going);
        };
        let mut stats = ScanStats::default();
        let mut sorted_terms: Vec<u32> = query_terms.iter().copied().collect();
        sorted_terms.sort_unstable();
        for term in sorted_terms {
            if !keep_going() {
                return (stats, false);
            }
            stats.lookups += 1;
            for (k, i) in sparse.lookup_range(term, term).enumerate() {
                if k > 0 && k % SCAN_POLL_STRIDE == 0 && !keep_going() {
                    return (stats, false);
                }
                stats.scanned += 1;
                if self.terms[i] == term {
                    stats.matched += 1;
                    on_posting(term, self.docs[i], self.tfs[i]);
                }
            }
        }
        (stats, true)
    }
}

/// The fragmented term–document matrix plus shared collection statistics.
///
/// The fragment boundary and both volumes come from the catalog at
/// [`FragmentedIndex::build`]; each fragment's [`TdTable`] (and its
/// declared non-dense index) is built on the first call to
/// [`FragmentedIndex::fragment_a`] or [`FragmentedIndex::fragment_b`].
#[derive(Debug, Clone)]
pub struct FragmentedIndex {
    index: Arc<InvertedIndex>,
    spec: FragmentSpec,
    in_a: Vec<bool>,
    /// Largest df found in fragment A (boundary documentation).
    df_boundary: u32,
    volume_a: usize,
    volume_b: usize,
    /// Declared sparse-index block sizes, applied when a table is built.
    sparse_a: Option<usize>,
    sparse_b: Option<usize>,
    a: OnceLock<TdTable>,
    b: OnceLock<TdTable>,
}

impl FragmentedIndex {
    /// Fragment an index according to `spec`. Reads only the catalog: no
    /// fragment table is built here.
    pub fn build(index: Arc<InvertedIndex>, spec: FragmentSpec) -> Result<FragmentedIndex> {
        let mut in_a = vec![false; index.vocab_size()];
        let by_df = index.terms_by_df_asc();
        let observed = by_df.len();
        let total_volume: usize = index.num_postings();
        if observed == 0 || total_volume == 0 {
            return Err(IrError::InvalidConfig(
                "cannot fragment an empty index".into(),
            ));
        }
        let mut df_boundary = 0u32;
        match spec {
            FragmentSpec::VolumeFraction(f) => {
                if !(0.0 < f && f <= 1.0) {
                    return Err(IrError::InvalidConfig(format!(
                        "volume fraction {f} outside (0, 1]"
                    )));
                }
                let budget = (f * total_volume as f64) as usize;
                let mut acc = 0usize;
                for &t in &by_df {
                    let run = index.df(t)? as usize;
                    if acc + run > budget && acc > 0 {
                        break;
                    }
                    acc += run;
                    in_a[t as usize] = true;
                    df_boundary = df_boundary.max(index.df(t)?);
                }
            }
            FragmentSpec::TermFraction(f) => {
                if !(0.0 < f && f <= 1.0) {
                    return Err(IrError::InvalidConfig(format!(
                        "term fraction {f} outside (0, 1]"
                    )));
                }
                let count = ((f * observed as f64).round() as usize).clamp(1, observed);
                for &t in by_df.iter().take(count) {
                    in_a[t as usize] = true;
                    df_boundary = df_boundary.max(index.df(t)?);
                }
            }
            FragmentSpec::DfThreshold(th) => {
                for &t in &by_df {
                    if index.df(t)? <= th {
                        in_a[t as usize] = true;
                        df_boundary = df_boundary.max(index.df(t)?);
                    }
                }
            }
        }
        // A table's volume is its terms' *resident* runs: on a shard, df
        // stays collection-wide while `run_len` counts the postings here.
        let mut volume_a = 0usize;
        for (t, &ia) in in_a.iter().enumerate() {
            if ia {
                volume_a += index.run_len(t as u32)?;
            }
        }
        let volume_b = total_volume - volume_a;
        Ok(FragmentedIndex {
            index,
            spec,
            in_a,
            df_boundary,
            volume_a,
            volume_b,
            sparse_a: None,
            sparse_b: None,
            a: OnceLock::new(),
            b: OnceLock::new(),
        })
    }

    /// The fragmentation specification used.
    pub fn spec(&self) -> FragmentSpec {
        self.spec
    }

    /// The underlying unfragmented index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Whether a term belongs to fragment A.
    pub fn term_in_a(&self, term: u32) -> bool {
        self.in_a.get(term as usize).copied().unwrap_or(false)
    }

    /// Largest document frequency of any fragment-A term.
    pub fn df_boundary(&self) -> u32 {
        self.df_boundary
    }

    /// Declare a non-dense index with `block_size` over fragment A's term
    /// column. It is built with the table; a table built before the
    /// declaration is dropped and rebuilt on its next read.
    pub fn set_sparse_block_a(&mut self, block_size: usize) -> Result<()> {
        declare_sparse(&mut self.a, &mut self.sparse_a, block_size)
    }

    /// [`FragmentedIndex::set_sparse_block_a`] for fragment B.
    pub fn set_sparse_block_b(&mut self, block_size: usize) -> Result<()> {
        declare_sparse(&mut self.b, &mut self.sparse_b, block_size)
    }

    /// Fragment A's declared sparse-index block size.
    pub fn sparse_block_a(&self) -> Option<usize> {
        self.sparse_a
    }

    /// Fragment B's declared sparse-index block size.
    pub fn sparse_block_b(&self) -> Option<usize> {
        self.sparse_b
    }

    /// Fragment A (interesting terms), built on first call.
    pub fn fragment_a(&self) -> &TdTable {
        self.a.get_or_init(|| {
            TdTable::from_index(&self.index, |t| self.in_a[t as usize], self.sparse_a)
                .expect("catalog term ids and the declared block size were validated")
        })
    }

    /// Fragment B (frequent terms), built on first call.
    pub fn fragment_b(&self) -> &TdTable {
        self.b.get_or_init(|| {
            TdTable::from_index(&self.index, |t| !self.in_a[t as usize], self.sparse_b)
                .expect("catalog term ids and the declared block size were validated")
        })
    }

    /// Whether either fragment table has been built.
    pub fn tables_built(&self) -> bool {
        self.a.get().is_some() || self.b.get().is_some()
    }

    /// Fragment A's posting volume, from the catalog.
    pub fn volume_a(&self) -> usize {
        self.volume_a
    }

    /// Fragment B's posting volume, from the catalog.
    pub fn volume_b(&self) -> usize {
        self.volume_b
    }

    /// A's share of the total posting volume.
    pub fn volume_fraction_a(&self) -> f64 {
        let total = (self.volume_a + self.volume_b).max(1);
        self.volume_a as f64 / total as f64
    }

    /// A's share of the observed terms.
    pub fn term_fraction_a(&self) -> f64 {
        let in_a = self
            .in_a
            .iter()
            .enumerate()
            .filter(|&(t, &ia)| ia && self.index.df(t as u32).map(|d| d > 0).unwrap_or(false))
            .count();
        let observed = self.index.terms_by_df_asc().len().max(1);
        in_a as f64 / observed as f64
    }
}

/// Record a fragment's declared block size, rejecting a zero block, and
/// drop a table built without it.
fn declare_sparse(
    table: &mut OnceLock<TdTable>,
    declared: &mut Option<usize>,
    block_size: usize,
) -> Result<()> {
    if block_size == 0 {
        return Err(IrError::InvalidConfig(
            "sparse index block size must be positive".into(),
        ));
    }
    table.take();
    *declared = Some(block_size);
    Ok(())
}

/// Query evaluation strategy over a fragmented index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The unoptimized baseline: scan the full (A + B) volume.
    FullScan,
    /// The unsafe technique: retrieve (and score) fragment A only.
    AOnly {
        /// Access A through its non-dense index instead of scanning it.
        use_a_index: bool,
    },
    /// The safe technique: scan A, consult the early quality check, and
    /// switch in fragment B when needed.
    Switch {
        /// Access B through its non-dense index instead of scanning it.
        use_b_index: bool,
    },
}

/// Report of a fragmented query evaluation.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct FragSearchReport {
    /// Top `(doc, score)` pairs, best first.
    pub top: Vec<(u32, f64)>,
    /// Total table entries inspected across fragments.
    pub postings_scanned: usize,
    /// Score probes actually evaluated (one per query *position* × matched
    /// posting of a surviving candidate — duplicated query terms probe
    /// twice, exactly as the naive evaluators score twice).
    pub postings_scored: usize,
    /// Score probes bypassed because the document's upper bound could not
    /// enter the top-N heap. `postings_scored + postings_pruned` equals the
    /// total probe volume of the gathered postings.
    pub postings_pruned: usize,
    /// Documents whose exact score was computed and offered to the heap.
    pub candidates: usize,
    /// Documents abandoned by the upper-bound test before any scoring.
    pub bound_exits: usize,
    /// Sparse-index range lookups issued while gathering.
    pub seeks: usize,
    /// Whether fragment B was consulted.
    pub used_b: bool,
    /// The safety decision, when the strategy made one.
    pub decision: Option<SwitchDecision>,
    /// Whether the evaluation was truncated by an expired per-query
    /// deadline. The gather passes poll the gate every
    /// [`SCAN_POLL_STRIDE`] inspected entries (stopping mid-fragment with
    /// partial scanned counts and an empty `top`), the accumulator loops
    /// poll per stride of accumulated postings, and the bound-pruned
    /// score pass polls per candidate — so everything in `top` is an
    /// exactly scored document.
    pub timed_out: bool,
}

impl FragSearchReport {
    fn empty() -> FragSearchReport {
        FragSearchReport {
            top: Vec::new(),
            postings_scanned: 0,
            postings_scored: 0,
            postings_pruned: 0,
            candidates: 0,
            bound_exits: 0,
            seeks: 0,
            used_b: false,
            decision: None,
            timed_out: false,
        }
    }
}

/// A reusable evaluator over a fragmented index. Scoring goes through the
/// shared [`ScoreKernel`] (precomputed per-term constants and cached
/// per-document norms), and the sparse accumulators use epoch markers —
/// the same query kernel as [`crate::eval::Searcher`] and
/// [`crate::daat::DaatSearcher`].
///
/// Evaluation is *gather–bound–score*: one set-at-a-time pass per fragment
/// gathers the query terms' postings into per-term buckets (the scan cost
/// the fragmentation experiments measure), a bound pass accumulates each
/// touched document's score **upper bound** from the catalog's per-term
/// maxima, and only documents whose bound still passes
/// [`moa_topn::TopNHeap::would_enter`] are scored exactly — in original
/// query-position order, so surviving scores are bit-identical to the
/// set-at-a-time and document-at-a-time evaluators. Fragment-B probes of
/// hopeless documents are thereby skipped instead of paying full scoring.
#[derive(Debug)]
pub struct FragSearcher {
    frag: Arc<FragmentedIndex>,
    kernel: Arc<ScoreKernel>,
    policy: SwitchPolicy,
    /// The long runs' block-max bound table, built lazily by the first
    /// bound pass with a long run and shared (same `Arc`) with the DAAT
    /// kernel when both run under one [`crate::physical::EngineSet`].
    bound_tables: Arc<OnceLock<ScoreBounds>>,
    /// Scratch: the current query's block bounds, distinct term after
    /// distinct term — a short run's built per query, a long run's copied
    /// from the table. Kept between queries.
    query_bounds: Vec<BlockBound>,
    /// Scratch: per-document score upper bounds of the current query.
    ub_accum: EpochAccumulator,
}

impl FragSearcher {
    /// Create an evaluator with a ranking model and switch policy.
    pub fn new(
        frag: Arc<FragmentedIndex>,
        model: RankingModel,
        policy: SwitchPolicy,
    ) -> FragSearcher {
        let kernel = Arc::new(ScoreKernel::new(model, frag.index()));
        FragSearcher::with_shared(frag, kernel, Arc::new(OnceLock::new()), policy)
    }

    /// Create an evaluator sharing existing per-index state: `kernel` must
    /// have been built for the same index and the desired ranking model,
    /// and `bound_tables` caches the lazily built [`ScoreBounds`] across
    /// engine paths — the physical layer builds both once per
    /// `(index, model)` and shares them everywhere.
    pub fn with_shared(
        frag: Arc<FragmentedIndex>,
        kernel: Arc<ScoreKernel>,
        bound_tables: Arc<OnceLock<ScoreBounds>>,
        policy: SwitchPolicy,
    ) -> FragSearcher {
        let n = frag.index().num_docs();
        FragSearcher {
            frag,
            kernel,
            policy,
            bound_tables,
            query_bounds: Vec::new(),
            ub_accum: EpochAccumulator::new(n),
        }
    }

    /// The fragmented index this searcher evaluates over.
    pub fn fragments(&self) -> &Arc<FragmentedIndex> {
        &self.frag
    }

    /// Retire any scratch state an abandoned evaluation may have left
    /// mid-accumulation (e.g. a panic caught at a serving-worker
    /// boundary): the epoch bump invalidates partial sums in O(1),
    /// restoring the accumulator invariant the next query relies on.
    pub fn reset_scratch(&mut self) {
        self.ub_accum.retire();
    }

    /// Evaluate a query under the given strategy.
    pub fn search(
        &mut self,
        terms: &[u32],
        n: usize,
        strategy: Strategy,
    ) -> Result<FragSearchReport> {
        self.search_gated(terms, n, strategy, &BoundGate::none())
    }

    /// [`FragSearcher::search`] with a cross-engine threshold hook: the
    /// bound-pruned score pass additionally skips documents whose upper
    /// bound falls strictly below the propagated global threshold, and
    /// every heap insertion publishes the local N-th score back through
    /// the gate (see [`crate::threshold`]).
    pub fn search_gated(
        &mut self,
        terms: &[u32],
        n: usize,
        strategy: Strategy,
        gate: &BoundGate,
    ) -> Result<FragSearchReport> {
        let index_vocab = self.frag.index().vocab_size();
        for &t in terms {
            if t as usize >= index_vocab {
                return Err(IrError::UnknownTerm(t));
            }
        }
        if terms.is_empty() {
            // Pinned behavior: the empty query touches nothing on every
            // engine path (no scan, no decision, empty top).
            return Ok(FragSearchReport::empty());
        }
        let qset: HashSet<u32> = terms.iter().copied().collect();

        // Distinct query terms in first-occurrence order; gathered postings
        // land in one doc-sorted bucket per distinct term (a term's run
        // lives entirely in one fragment and both gather paths visit it in
        // ascending document order).
        let mut distinct: Vec<u32> = Vec::new();
        for &t in terms {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); distinct.len()];
        let gather = |buckets: &mut Vec<Vec<(u32, u32)>>, t: u32, d: u32, f: u32| {
            let i = distinct
                .iter()
                .position(|&x| x == t)
                .expect("gathered posting belongs to a query term");
            buckets[i].push((d, f));
        };

        let frag = Arc::clone(&self.frag);
        let mut scanned = 0usize;
        let mut seeks = 0usize;
        let mut used_b = false;
        let mut decision = None;
        // The gathers poll the gate every SCAN_POLL_STRIDE inspected
        // entries: an expired deadline stops a pass mid-fragment instead
        // of at its end, bounding overshoot by the stride rather than the
        // fragment volume.
        let live = || !gate.expired();
        let mut gather_done;

        match strategy {
            Strategy::FullScan => {
                let (sa, a_done) = frag.fragment_a().postings_scan_while(
                    &qset,
                    |t, d, f| gather(&mut buckets, t, d, f),
                    live,
                );
                scanned = sa.scanned;
                gather_done = a_done;
                if a_done {
                    let (sb, b_done) = frag.fragment_b().postings_scan_while(
                        &qset,
                        |t, d, f| gather(&mut buckets, t, d, f),
                        live,
                    );
                    scanned += sb.scanned;
                    gather_done = b_done;
                }
                used_b = true;
            }
            Strategy::AOnly { use_a_index } => {
                let (sa, a_done) = if use_a_index {
                    frag.fragment_a().postings_indexed_while(
                        &qset,
                        |t, d, f| gather(&mut buckets, t, d, f),
                        live,
                    )
                } else {
                    frag.fragment_a().postings_scan_while(
                        &qset,
                        |t, d, f| gather(&mut buckets, t, d, f),
                        live,
                    )
                };
                scanned = sa.scanned;
                seeks = sa.lookups;
                gather_done = a_done;
            }
            Strategy::Switch { use_b_index } => {
                // The early check runs before any scanning — it needs only
                // per-term statistics ("early in the query plan").
                let d = self.policy.decide(terms, &frag, self.kernel.model())?;
                let need_b = d.use_b;
                decision = Some(d);

                let (sa, a_done) = frag.fragment_a().postings_scan_while(
                    &qset,
                    |t, d2, f| gather(&mut buckets, t, d2, f),
                    live,
                );
                scanned += sa.scanned;
                gather_done = a_done;
                if need_b && a_done {
                    used_b = true;
                    let (sb, b_done) = if use_b_index {
                        frag.fragment_b().postings_indexed_while(
                            &qset,
                            |t, d2, f| gather(&mut buckets, t, d2, f),
                            live,
                        )
                    } else {
                        frag.fragment_b().postings_scan_while(
                            &qset,
                            |t, d2, f| gather(&mut buckets, t, d2, f),
                            live,
                        )
                    };
                    scanned += sb.scanned;
                    seeks += sb.lookups;
                    gather_done = b_done;
                }
            }
        }

        // A truncated gather leaves partial buckets: nothing may be
        // ranked off them, so stop here with the work actually paid.
        if !gather_done {
            return Ok(FragSearchReport {
                top: Vec::new(),
                postings_scanned: scanned,
                postings_scored: 0,
                postings_pruned: 0,
                candidates: 0,
                bound_exits: 0,
                seeks,
                used_b,
                decision,
                timed_out: true,
            });
        }

        // Per-position scorers and bucket links.
        let index = frag.index();
        let m = terms.len();
        let mut scorers: Vec<TermScorer> = Vec::with_capacity(m);
        let mut bucket_of: Vec<usize> = Vec::with_capacity(m);
        for &t in terms {
            scorers.push(self.kernel.term_scorer(index.df(t)?, index.cf(t)?));
            bucket_of.push(
                distinct
                    .iter()
                    .position(|&x| x == t)
                    .expect("every position has a distinct-term bucket"),
            );
        }

        // The bound lookups below index the *index-built* block-max
        // tables by bucket position, which is sound only because a
        // gathered bucket is the term's full index run in order (a term's
        // postings live entirely in one fragment, and both gather paths
        // emit the run ascending). Pin that cross-module invariant in
        // debug builds before pruning on it.
        #[cfg(debug_assertions)]
        for (di, &t) in distinct.iter().enumerate() {
            let b = &buckets[di];
            debug_assert!(
                b.is_empty() || b.len() == index.run_len(t)?,
                "bucket for term {t} is a partial run ({} of {} postings)",
                b.len(),
                index.run_len(t)?
            );
            debug_assert!(
                b.windows(2).all(|w| w[0].0 < w[1].0),
                "bucket for term {t} is not in ascending document order"
            );
        }

        // Deadline poll at the gather/score boundary: the gathers above
        // are uninterruptible, but an overloaded worker stops here before
        // paying any scoring. Nothing entered the accumulator yet.
        if gate.expired() {
            return Ok(FragSearchReport {
                top: Vec::new(),
                postings_scanned: scanned,
                postings_scored: 0,
                postings_pruned: 0,
                candidates: 0,
                bound_exits: 0,
                seeks,
                used_b,
                decision,
                timed_out: true,
            });
        }

        // Fast path: when the heap can admit every matching document, the
        // bound machinery cannot prune anything — accumulate exact scores
        // directly (position by position: the canonical addition order)
        // and skip the table build, the bound pass, and the sort.
        let matched_total: usize = buckets.iter().map(Vec::len).sum();
        if n >= matched_total.min(index.num_docs()) {
            let mut scored = 0usize;
            let mut timed_out = false;
            'accumulate: for (p, &bi) in bucket_of.iter().enumerate() {
                // Poll per position run and every SCAN_POLL_STRIDE
                // accumulated postings within a run: a document's sum is
                // exact only once every position has contributed, so on
                // expiry the partial sums are discarded, never ranked.
                for (k, &(doc, tf)) in buckets[bi].iter().enumerate() {
                    if k % SCAN_POLL_STRIDE == 0 && gate.expired() {
                        timed_out = true;
                        break 'accumulate;
                    }
                    self.ub_accum
                        .add(doc, self.kernel.weight(&scorers[p], tf, doc));
                    scored += 1;
                }
            }
            let mut heap = TopNHeap::new(n);
            if !timed_out {
                for &doc in self.ub_accum.touched() {
                    heap.push(doc, self.ub_accum.score(doc));
                }
                // Even the unpruned path publishes its N-th score: other
                // shards' gates tighten off it.
                gate.publish(&heap);
            }
            let candidates = heap.pushes();
            self.ub_accum.retire();
            return Ok(FragSearchReport {
                top: heap.into_sorted_vec(),
                postings_scanned: scanned,
                postings_scored: scored,
                postings_pruned: 0,
                candidates,
                bound_exits: 0,
                seeks,
                used_b,
                decision,
                timed_out,
            });
        }

        // Each distinct term's block bounds, into one buffer. A gathered
        // bucket is the term's whole run or empty (asserted above), and an
        // empty one is never read. A long run's bounds come from the
        // shared table — the same [`ScoreBounds`] the pruned DAAT kernel
        // runs on, built lazily once per `(index, model)` by the first
        // query with a long run. A short run has no table entry: its
        // bounds are built here, per query, from the bucket's weights by
        // the table's own builder, so they are the same bits.
        let kernel = Arc::clone(&self.kernel);
        let bound_tables = Arc::clone(&self.bound_tables);
        self.query_bounds.clear();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(distinct.len());
        for (&t, bucket) in distinct.iter().zip(&buckets) {
            let start = self.query_bounds.len();
            if bucket.len() > SEED_RUN_MAX {
                let tables = bound_tables.get_or_init(|| ScoreBounds::new(&kernel, index));
                let (_, bb) = tables.term(t).expect("the table bounds every long run");
                self.query_bounds.extend_from_slice(bb);
            } else if !bucket.is_empty() {
                let scorer = kernel.term_scorer(index.df(t)?, index.cf(t)?);
                let mut weights = [0.0f64; BLOCK_LEN];
                for block in bucket.chunks(BLOCK_LEN) {
                    for (w, &(doc, tf)) in weights.iter_mut().zip(block) {
                        *w = kernel.weight(&scorer, tf, doc);
                    }
                    let last_doc = block[block.len() - 1].0;
                    self.query_bounds
                        .push(block_bound(last_doc, &weights[..block.len()]));
                }
            }
            spans.push((start, self.query_bounds.len()));
        }

        // Bound pass: accumulate each touched document's score upper bound
        // position by position from the quantized mini-block maxima (8
        // nibbles per 128-posting `BlockBound`, colocated with the block
        // headers). Bucket position i sits in storage block
        // i / BLOCK_POSTINGS at offset i % BLOCK_POSTINGS (the invariant
        // asserted above), so its 16-entry mini-block's round-up-quantized
        // maximum bounds the posting's weight — a strictly tighter sum
        // than the whole-block maxima, still a sound upper bound per
        // posting. The sequential accumulation mirrors the exact canonical
        // sum's addition order, and floating-point rounding is monotone,
        // so `bound >= exact score` holds slot for slot. Polled per stride
        // like the exact accumulator: on expiry nothing has been ranked
        // yet.
        let mut timed_out = false;
        'bound: for &bi in bucket_of.iter() {
            let (start, end) = spans[bi];
            let block_bounds = &self.query_bounds[start..end];
            for (i, &(doc, _)) in buckets[bi].iter().enumerate() {
                if i % SCAN_POLL_STRIDE == 0 && gate.expired() {
                    timed_out = true;
                    break 'bound;
                }
                self.ub_accum.add(
                    doc,
                    block_bounds[i / ScoreBounds::BLOCK_POSTINGS]
                        .mini_bound(i % ScoreBounds::BLOCK_POSTINGS),
                );
            }
        }
        if timed_out {
            self.ub_accum.retire();
            return Ok(FragSearchReport {
                top: Vec::new(),
                postings_scanned: scanned,
                postings_scored: 0,
                postings_pruned: 0,
                candidates: 0,
                bound_exits: 0,
                seeks,
                used_b,
                decision,
                timed_out: true,
            });
        }
        let mut docs: Vec<(u32, f64)> = self
            .ub_accum
            .touched()
            .iter()
            .map(|&d| (d, self.ub_accum.score(d)))
            .collect();
        // Highest bound first (ties by ascending doc id): the heap
        // threshold tightens as fast as possible, maximizing skips.
        docs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        // Score pass: only documents whose bound would still enter the
        // heap are scored — exactly, in original query-position order.
        let mut heap = TopNHeap::new(n);
        let mut scored = 0usize;
        let mut candidates = 0usize;
        let mut bound_exits = 0usize;
        for &(doc, ub) in &docs {
            // Deadline poll per candidate: each heap entry is a fully,
            // exactly scored document, so truncation here leaves an
            // honest partial top-N.
            if gate.expired() {
                timed_out = true;
                break;
            }
            if !(heap.would_enter(ub, doc) && gate.admits(ub)) {
                bound_exits += 1;
                continue;
            }
            candidates += 1;
            let mut score = 0.0f64;
            for (p, &bi) in bucket_of.iter().enumerate() {
                let bucket = &buckets[bi];
                if let Ok(i) = bucket.binary_search_by_key(&doc, |&(d, _)| d) {
                    score += self.kernel.weight(&scorers[p], bucket[i].1, doc);
                    scored += 1;
                }
            }
            heap.push(doc, score);
            gate.publish(&heap);
        }
        self.ub_accum.retire();
        // Every (position, membership) probe belongs to exactly one
        // document — scored if it survived, bypassed otherwise — so the
        // pruned count is the probe volume minus the scored probes.
        let probe_total: usize = bucket_of.iter().map(|&bi| buckets[bi].len()).sum();

        Ok(FragSearchReport {
            top: heap.into_sorted_vec(),
            postings_scanned: scanned,
            postings_scored: scored,
            postings_pruned: probe_total - scored,
            candidates,
            bound_exits,
            seeks,
            used_b,
            decision,
            timed_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Searcher;
    use moa_corpus::{Collection, CollectionConfig};

    fn frag(spec: FragmentSpec) -> Arc<FragmentedIndex> {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        Arc::new(FragmentedIndex::build(idx, spec).unwrap())
    }

    #[test]
    fn fragments_partition_the_volume() {
        let f = frag(FragmentSpec::VolumeFraction(0.2));
        let total = f.index().num_postings();
        assert_eq!(f.fragment_a().volume() + f.fragment_b().volume(), total);
        assert!(f.volume_fraction_a() <= 0.2 + 0.05);
        assert!(f.volume_fraction_a() > 0.0);
    }

    #[test]
    fn fragment_a_holds_rarest_terms() {
        let f = frag(FragmentSpec::TermFraction(0.5));
        let boundary = f.df_boundary();
        for t in 0..f.index().vocab_size() as u32 {
            let df = f.index().df(t).unwrap();
            if df == 0 {
                continue;
            }
            if f.term_in_a(t) {
                assert!(df <= boundary);
            } else {
                // B terms are at least as frequent as the boundary
                // (ties may fall either side).
                assert!(df >= boundary.min(df));
            }
        }
    }

    #[test]
    fn df_threshold_spec() {
        let f = frag(FragmentSpec::DfThreshold(3));
        for t in 0..f.index().vocab_size() as u32 {
            let df = f.index().df(t).unwrap();
            if df == 0 {
                continue;
            }
            assert_eq!(f.term_in_a(t), df <= 3, "term {t} df {df}");
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        assert!(
            FragmentedIndex::build(Arc::clone(&idx), FragmentSpec::VolumeFraction(0.0)).is_err()
        );
        assert!(
            FragmentedIndex::build(Arc::clone(&idx), FragmentSpec::VolumeFraction(1.5)).is_err()
        );
        assert!(FragmentedIndex::build(idx, FragmentSpec::TermFraction(-0.1)).is_err());
    }

    #[test]
    fn full_scan_equals_unfragmented_search() {
        let f = frag(FragmentSpec::VolumeFraction(0.3));
        let model = RankingModel::default();
        let mut fs = FragSearcher::new(Arc::clone(&f), model, SwitchPolicy::default());
        let mut reference = Searcher::new(f.index(), model);
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 2]];
        let got = fs.search(&q, 10, Strategy::FullScan).unwrap();
        let want = reference.search(&q, 10).unwrap();
        assert_eq!(got.top, want.top);
        // Full scan inspects the entire volume.
        assert_eq!(got.postings_scanned, f.index().num_postings());
    }

    #[test]
    fn a_only_scans_only_fragment_a() {
        let f = frag(FragmentSpec::VolumeFraction(0.3));
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[0], terms[terms.len() - 1]];
        let rep = fs
            .search(&q, 10, Strategy::AOnly { use_a_index: false })
            .unwrap();
        assert_eq!(rep.postings_scanned, f.fragment_a().volume());
        assert!(!rep.used_b);
    }

    #[test]
    fn a_index_reduces_a_only_scanned_volume() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let mut f = FragmentedIndex::build(idx, FragmentSpec::TermFraction(0.9)).unwrap();
        f.set_sparse_block_a(64).unwrap();
        let f = Arc::new(f);
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[0], terms[1]];
        let indexed = fs
            .search(&q, 10, Strategy::AOnly { use_a_index: true })
            .unwrap();
        let scanned = fs
            .search(&q, 10, Strategy::AOnly { use_a_index: false })
            .unwrap();
        assert_eq!(indexed.top, scanned.top);
        assert!(indexed.seeks > 0);
        assert!(
            indexed.postings_scanned < scanned.postings_scanned,
            "indexed {} >= scanned {}",
            indexed.postings_scanned,
            scanned.postings_scanned
        );
    }

    #[test]
    fn duplicate_query_terms_accumulate_twice_like_the_saat_engine() {
        let f = frag(FragmentSpec::VolumeFraction(0.3));
        let model = RankingModel::default();
        let mut fs = FragSearcher::new(Arc::clone(&f), model, SwitchPolicy::default());
        let mut reference = Searcher::new(f.index(), model);
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 1], terms[0]];
        let got = fs.search(&q, 10, Strategy::FullScan).unwrap();
        let want = reference.search(&q, 10).unwrap();
        assert_eq!(got.top, want.top, "duplicated term must contribute twice");
    }

    #[test]
    fn empty_query_touches_nothing_under_every_strategy() {
        let f = frag(FragmentSpec::VolumeFraction(0.3));
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        for strategy in [
            Strategy::FullScan,
            Strategy::AOnly { use_a_index: false },
            Strategy::AOnly { use_a_index: true },
            Strategy::Switch { use_b_index: false },
            Strategy::Switch { use_b_index: true },
        ] {
            let rep = fs.search(&[], 10, strategy).unwrap();
            assert!(rep.top.is_empty());
            assert_eq!(rep.postings_scanned, 0, "{strategy:?}");
            assert_eq!(rep.postings_scored, 0);
            assert!(!rep.used_b);
            assert!(rep.decision.is_none());
        }
    }

    #[test]
    fn bound_pruning_skips_probes_without_changing_the_topn() {
        let f = frag(FragmentSpec::VolumeFraction(0.3));
        let model = RankingModel::default();
        let mut fs = FragSearcher::new(Arc::clone(&f), model, SwitchPolicy::default());
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 2], terms[0]];
        // Small n: most touched documents cannot enter, so their probes
        // are skipped on the upper bound.
        let small = fs.search(&q, 3, Strategy::FullScan).unwrap();
        assert!(small.bound_exits > 0, "no document was pruned");
        assert!(small.postings_pruned > 0);
        // Large n admits everything: nothing may be pruned, and the small
        // top-N must be a prefix of the large one.
        let large = fs
            .search(&q, f.index().num_docs(), Strategy::FullScan)
            .unwrap();
        assert_eq!(large.bound_exits, 0);
        assert_eq!(large.postings_pruned, 0);
        assert_eq!(&large.top[..small.top.len()], &small.top[..]);
        // The probe ledger balances: scored + pruned probes equal the
        // unpruned probe volume.
        assert_eq!(
            small.postings_scored + small.postings_pruned,
            large.postings_scored
        );
    }

    #[test]
    fn switch_consults_b_for_frequent_queries() {
        let f = frag(FragmentSpec::VolumeFraction(0.2));
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let terms = f.index().terms_by_df_asc();
        // All-frequent query: the check must demand fragment B.
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 2]];
        let rep = fs
            .search(&q, 10, Strategy::Switch { use_b_index: false })
            .unwrap();
        assert!(rep.used_b);
        assert!(rep.decision.unwrap().use_b);
        // And its results match the full scan.
        let full = fs.search(&q, 10, Strategy::FullScan).unwrap();
        assert_eq!(rep.top, full.top);
    }

    #[test]
    fn switch_skips_b_for_rare_queries() {
        let f = frag(FragmentSpec::TermFraction(0.9));
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[0], terms[1]]; // rarest observed terms
        let rep = fs
            .search(&q, 10, Strategy::Switch { use_b_index: false })
            .unwrap();
        assert!(!rep.used_b);
        assert_eq!(rep.postings_scanned, f.fragment_a().volume());
    }

    #[test]
    fn b_index_reduces_scanned_volume() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let mut f = FragmentedIndex::build(idx, FragmentSpec::VolumeFraction(0.2)).unwrap();
        f.set_sparse_block_b(64).unwrap();
        let f = Arc::new(f);
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let terms = f.index().terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 2]];
        let indexed = fs
            .search(&q, 10, Strategy::Switch { use_b_index: true })
            .unwrap();
        let scanned = fs
            .search(&q, 10, Strategy::Switch { use_b_index: false })
            .unwrap();
        assert_eq!(indexed.top, scanned.top);
        assert!(
            indexed.postings_scanned < scanned.postings_scanned,
            "indexed {} >= scanned {}",
            indexed.postings_scanned,
            scanned.postings_scanned
        );
    }

    #[test]
    fn indexed_lookup_matches_scan_lookup() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        let table = TdTable::from_index(&idx, |_| true, Some(32)).unwrap();
        let terms = idx.terms_by_df_asc();
        let qset: HashSet<u32> = [terms[0], terms[terms.len() - 1]].into_iter().collect();
        let mut via_scan = Vec::new();
        let _ = table.postings_scan(&qset, |t, d, f| via_scan.push((t, d, f)));
        let mut via_index = Vec::new();
        let _ = table.postings_indexed(&qset, |t, d, f| via_index.push((t, d, f)));
        via_scan.sort_unstable();
        via_index.sort_unstable();
        assert_eq!(via_scan, via_index);
    }

    #[test]
    fn unknown_query_term_is_error() {
        let f = frag(FragmentSpec::VolumeFraction(0.5));
        let mut fs = FragSearcher::new(
            Arc::clone(&f),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        assert!(fs.search(&[u32::MAX], 5, Strategy::FullScan).is_err());
    }

    #[test]
    fn catalog_volumes_match_the_lazily_built_tables() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        let shards = idx.shard_by_docs_multi(2, |d| d as usize % 2);
        let indexes: Vec<Arc<InvertedIndex>> =
            std::iter::once(idx).chain(shards).map(Arc::new).collect();
        for spec in [
            FragmentSpec::VolumeFraction(0.3),
            FragmentSpec::TermFraction(0.9),
            FragmentSpec::DfThreshold(3),
        ] {
            for index in &indexes {
                let mut f = FragmentedIndex::build(Arc::clone(index), spec).unwrap();
                assert!(f.set_sparse_block_a(0).is_err());
                f.set_sparse_block_a(16).unwrap();
                f.set_sparse_block_b(64).unwrap();
                // Catalog reads leave both tables unbuilt.
                let (va, vb) = (f.volume_a(), f.volume_b());
                let _ = f.volume_fraction_a() + f.term_fraction_a();
                assert!(!f.tables_built(), "{spec:?}");
                assert_eq!(va + vb, index.num_postings());
                assert_eq!(f.fragment_a().volume(), va, "{spec:?}");
                assert_eq!(f.fragment_b().volume(), vb, "{spec:?}");
                assert!(f.tables_built());
                assert_eq!(
                    f.fragment_a().sparse.as_ref().map(SparseIndex::block_size),
                    Some(16)
                );
                assert_eq!(
                    f.fragment_b().sparse.as_ref().map(SparseIndex::block_size),
                    Some(64)
                );
                // Declaring on a built table rebuilds it with the index.
                f.set_sparse_block_b(32).unwrap();
                assert_eq!(
                    f.fragment_b().sparse.as_ref().map(SparseIndex::block_size),
                    Some(32)
                );
                assert_eq!(f.sparse_block_b(), Some(32));
            }
        }
    }

    #[test]
    fn term_fraction_reports_fraction() {
        let f = frag(FragmentSpec::TermFraction(0.75));
        let tf = f.term_fraction_a();
        assert!((tf - 0.75).abs() < 0.02, "term fraction {tf}");
    }
}
