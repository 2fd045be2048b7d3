//! Cross-batch result cache: bounded, sharded-by-hash answers for the
//! serving hot path.
//!
//! The paper's premise — top-N answers are *small* and *expensive* — makes
//! them ideal cache currency. Admission coalescing ([`crate::pool`])
//! already folds duplicates *within* a batch; Zipf traffic repeats across
//! batches too, and this module turns those repeats into O(1) lookups
//! consulted **before** queue-gauge acquisition: a hit never occupies a
//! worker slot, never sheds, and is exempt from deadline budgets.
//!
//! Design:
//! - **Key** — `(terms, n, model, snapshot_epoch)`. The ranking model is
//!   folded in at construction (a cache belongs to one session); the
//!   epoch is a monotonically increasing snapshot counter so a single
//!   [`ResultCache::invalidate_epoch`] call flash-invalidates every
//!   entry in O(1) without scanning — stale entries can never match
//!   again and are reclaimed lazily on touch or eviction.
//! - **Value** — the exact [`QueryResponse`] a fresh execution produced
//!   (sorted top-N, absorbed [`moa_ir::ExecReport`], per-shard
//!   outcomes), behind an `Arc` so a hit is a pointer clone: the
//!   steady-state hit path performs **zero heap allocations** (pinned by
//!   the counting-allocator test in `tests/alloc_cache_hit.rs`).
//!   Partial (deadline-truncated) responses are never inserted.
//! - **Eviction** — segmented LRU with a byte-accounted capacity bound.
//!   New entries land at the *probationary* head; a hit promotes to the
//!   *protected* segment (capped at [`PROTECTED_NUM`]/[`PROTECTED_DEN`]
//!   of the shard's bound, demoting its tail back to probationary when
//!   over). Eviction takes the probationary tail first, so a burst of
//!   one-hit wonders cannot wash out the re-referenced head of a Zipf
//!   distribution — exactly the traffic shape `moabench`'s `zipf_hot`
//!   and `zipf_churn` workloads drive.
//! - **Concurrency** — the key hash picks one of `shards` independently
//!   locked segments; the byte bound is enforced per segment
//!   (`capacity_bytes / shards`), so the global footprint never exceeds
//!   the configured bound.
//!
//! Hit/miss/eviction/insertion counters and the byte gauge publish
//! through the session's [`MetricsRegistry`] (`serve.cache.*`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use moa_ir::RankingModel;
use moa_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;

use crate::shard::QueryResponse;

/// Protected-segment share of each cache shard's byte bound (4/5): hits
/// promote into at most this fraction, keeping at least 1/5 of the
/// budget churning probationally.
pub const PROTECTED_NUM: usize = 4;
/// Denominator of the protected share.
pub const PROTECTED_DEN: usize = 5;

/// Fixed per-entry bookkeeping charge (node, links, hash-chain slot) on
/// top of the measured key and value payload.
const ENTRY_OVERHEAD: usize = 160;

/// Null link index.
const NIL: u32 = u32::MAX;

/// Result-cache sizing. `Copy` so [`crate::service::ServeConfig`] stays
/// `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total byte budget across every cache shard (keys + values +
    /// per-entry overhead). The cache never holds more than this.
    pub capacity_bytes: usize,
    /// Independently locked segments (clamped ≥ 1). More shards, less
    /// contention, coarser per-shard bound granularity.
    pub shards: usize,
}

impl Default for CacheConfig {
    /// 8 MiB over 8 lock shards — a few thousand typical top-100
    /// answers.
    fn default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 8 << 20,
            shards: 8,
        }
    }
}

/// Point-in-time cache counters (monotonic except `bytes`/`entries`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including epoch-stale entries).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries removed: capacity evictions plus lazy reclamation of
    /// epoch-stale entries.
    pub evictions: u64,
    /// Bytes currently accounted.
    pub bytes: u64,
    /// High-water byte mark since construction.
    pub bytes_high_water: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probationary,
    Protected,
}

struct Entry {
    hash: u64,
    terms: Vec<u32>,
    n: usize,
    epoch: u64,
    value: Arc<QueryResponse>,
    bytes: usize,
    seg: Segment,
    prev: u32,
    next: u32,
}

/// One intrusive doubly-linked list over the slab (head = most recent).
#[derive(Clone, Copy)]
struct Lru {
    head: u32,
    tail: u32,
}

impl Lru {
    fn empty() -> Lru {
        Lru {
            head: NIL,
            tail: NIL,
        }
    }
}

struct Shard {
    /// `hash → slab indices` (collision chains are almost always one
    /// entry; stored keys are verified on every probe).
    map: HashMap<u64, Vec<u32>>,
    slab: Vec<Option<Entry>>,
    free: Vec<u32>,
    prob: Lru,
    prot: Lru,
    bytes: usize,
    prot_bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            prob: Lru::empty(),
            prot: Lru::empty(),
            bytes: 0,
            prot_bytes: 0,
        }
    }

    fn entry(&self, idx: u32) -> &Entry {
        self.slab[idx as usize].as_ref().expect("live slab index")
    }

    fn entry_mut(&mut self, idx: u32) -> &mut Entry {
        self.slab[idx as usize].as_mut().expect("live slab index")
    }

    fn list(&mut self, seg: Segment) -> &mut Lru {
        match seg {
            Segment::Probationary => &mut self.prob,
            Segment::Protected => &mut self.prot,
        }
    }

    /// Unlink `idx` from its segment's list (does not free the slot).
    fn unlink(&mut self, idx: u32) {
        let (seg, prev, next) = {
            let e = self.entry(idx);
            (e.seg, e.prev, e.next)
        };
        if prev != NIL {
            self.entry_mut(prev).next = next;
        } else {
            self.list(seg).head = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        } else {
            self.list(seg).tail = prev;
        }
        let e = self.entry_mut(idx);
        e.prev = NIL;
        e.next = NIL;
    }

    /// Push `idx` at `seg`'s head (most-recent position) and stamp its
    /// segment tag.
    fn push_head(&mut self, idx: u32, seg: Segment) {
        let head = self.list(seg).head;
        {
            let e = self.entry_mut(idx);
            e.seg = seg;
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.entry_mut(head).prev = idx;
        } else {
            self.list(seg).tail = idx;
        }
        self.list(seg).head = idx;
    }

    /// Remove the entry at `idx` entirely: unlink, drop the hash-chain
    /// reference, free the slot, release its bytes. Returns the bytes
    /// freed.
    fn remove(&mut self, idx: u32) -> usize {
        self.unlink(idx);
        let entry = self.slab[idx as usize].take().expect("live slab index");
        if let Some(chain) = self.map.get_mut(&entry.hash) {
            chain.retain(|&i| i != idx);
            if chain.is_empty() {
                self.map.remove(&entry.hash);
            }
        }
        self.free.push(idx);
        self.bytes -= entry.bytes;
        if entry.seg == Segment::Protected {
            self.prot_bytes -= entry.bytes;
        }
        entry.bytes
    }

    /// The slab index holding `(hash, terms, n)`, if resident (any
    /// epoch).
    fn find(&self, hash: u64, terms: &[u32], n: usize) -> Option<u32> {
        let chain = self.map.get(&hash)?;
        chain.iter().copied().find(|&i| {
            let e = self.entry(i);
            e.n == n && e.terms == terms
        })
    }

    /// While the protected segment exceeds its share of `bound`, demote
    /// its tail (least-recent protected entry) back to the probationary
    /// head — it must re-earn protection, but is not evicted outright.
    fn rebalance_protected(&mut self, bound: usize) {
        let share = bound / PROTECTED_DEN * PROTECTED_NUM;
        while self.prot_bytes > share {
            let tail = self.prot.tail;
            if tail == NIL {
                break;
            }
            self.unlink(tail);
            self.prot_bytes -= self.entry(tail).bytes;
            self.push_head(tail, Segment::Probationary);
        }
    }

    /// Evict until `bytes ≤ bound`: probationary tail first, protected
    /// tail only when probation is empty. Returns `(evicted, freed)`.
    fn evict_to(&mut self, bound: usize) -> (u64, usize) {
        let mut evicted = 0;
        let mut freed = 0;
        while self.bytes > bound {
            let victim = if self.prob.tail != NIL {
                self.prob.tail
            } else if self.prot.tail != NIL {
                self.prot.tail
            } else {
                break;
            };
            freed += self.remove(victim);
            evicted += 1;
        }
        (evicted, freed)
    }
}

/// The bounded, sharded, epoch-invalidated answer cache. See the module
/// docs for the design; construct via [`ResultCache::new`] (standalone
/// metrics) or [`ResultCache::with_registry`] (session-shared metrics).
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    shard_bound: usize,
    capacity: usize,
    model_bits: u64,
    epoch: AtomicU64,
    /// Global resident-byte total, mirrored into the `serve.cache.bytes`
    /// gauge after every mutation. Kept as its own atomic so no shard
    /// lock ever needs a sibling's lock (that nesting would deadlock
    /// under concurrent inserts).
    resident: AtomicU64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes: Arc<Gauge>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity_bytes", &self.capacity)
            .field("shards", &self.shards.len())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

/// Fold the ranking model into the key: discriminant plus exact
/// parameter bits, so e.g. two BM25 variants never share answers.
fn model_bits(model: RankingModel) -> u64 {
    match model {
        RankingModel::TfIdf => 1,
        RankingModel::HiemstraLm { lambda } => 2 ^ lambda.to_bits().rotate_left(8),
        RankingModel::Bm25 { k1, b } => {
            3 ^ k1.to_bits().rotate_left(8) ^ b.to_bits().rotate_left(40)
        }
    }
}

/// One multiply-rotate round (fxhash-style; no dependency, no
/// allocation).
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    (h.rotate_left(5) ^ v).wrapping_mul(K)
}

#[inline]
fn key_hash(model: u64, terms: &[u32], n: usize) -> u64 {
    let mut h = mix(0xcbf2_9ce4_8422_2325, model);
    for &t in terms {
        h = mix(h, u64::from(t));
    }
    mix(h, n as u64 ^ 0x9e37_79b9_7f4a_7c15)
}

/// The byte charge an entry for `(terms → value)` carries against the
/// capacity bound: key, top-N payload, per-shard reports, and a fixed
/// bookkeeping overhead. Exposed so tests and the proptest oracle can
/// account bytes identically.
pub fn approx_entry_bytes(terms: &[u32], value: &QueryResponse) -> usize {
    let pair = std::mem::size_of::<(u32, f64)>();
    let mut bytes = ENTRY_OVERHEAD + std::mem::size_of_val(terms);
    bytes += value.top.len() * pair;
    bytes += value.shards.len() * std::mem::size_of::<crate::shard::ShardOutcome>();
    for o in &value.shards {
        bytes += o.report.top.len() * pair;
    }
    bytes
}

impl ResultCache {
    /// A cache with standalone (unregistered) metric handles — unit
    /// tests and embedding without a registry.
    pub fn new(config: CacheConfig, model: RankingModel) -> ResultCache {
        ResultCache::with_registry(config, model, &MetricsRegistry::new())
    }

    /// A cache whose counters and byte gauge publish through `registry`
    /// as `serve.cache.{hits,misses,insertions,evictions,bytes}`.
    pub fn with_registry(
        config: CacheConfig,
        model: RankingModel,
        registry: &MetricsRegistry,
    ) -> ResultCache {
        let shards = config.shards.max(1);
        let slots: Vec<Mutex<Shard>> = (0..shards).map(|_| Mutex::new(Shard::new())).collect();
        ResultCache {
            shards: slots.into_boxed_slice(),
            shard_bound: config.capacity_bytes / shards,
            capacity: config.capacity_bytes,
            model_bits: model_bits(model),
            epoch: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            hits: registry.counter("serve.cache.hits"),
            misses: registry.counter("serve.cache.misses"),
            insertions: registry.counter("serve.cache.insertions"),
            evictions: registry.counter("serve.cache.evictions"),
            bytes: registry.gauge("serve.cache.bytes"),
        }
    }

    /// The configured total byte bound.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// The current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Flash-invalidate every resident entry in O(1): bump the snapshot
    /// epoch. Entries stamped with an older epoch can never match again;
    /// their bytes are reclaimed lazily on next touch or eviction. This
    /// is the hook corpus mutation needs — bump once per index swap.
    /// Returns the new epoch.
    pub fn invalidate_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn shard_of(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Fold a byte delta into the global resident total and mirror it
    /// into the gauge (whose `set` also advances the high-water mark).
    fn account(&self, added: usize, freed: usize) {
        let now = if added >= freed {
            let d = (added - freed) as u64;
            self.resident.fetch_add(d, Ordering::Relaxed) + d
        } else {
            let d = (freed - added) as u64;
            self.resident.fetch_sub(d, Ordering::Relaxed) - d
        };
        self.bytes.set(now);
    }

    /// Look up `(terms, n)` at the current epoch. A hit promotes the
    /// entry (probationary → protected, protected → its head) and
    /// returns the cached response by `Arc` clone — no heap allocation
    /// on this path. An epoch-stale entry counts as a miss and is
    /// reclaimed on the spot.
    pub fn get(&self, terms: &[u32], n: usize) -> Option<Arc<QueryResponse>> {
        let hash = key_hash(self.model_bits, terms, n);
        let now = self.epoch();
        let mut shard = self.shard_of(hash).lock();
        let Some(idx) = shard.find(hash, terms, n) else {
            self.misses.incr();
            return None;
        };
        if shard.entry(idx).epoch != now {
            let freed = shard.remove(idx);
            self.account(0, freed);
            self.evictions.incr();
            self.misses.incr();
            return None;
        }
        let value = Arc::clone(&shard.entry(idx).value);
        match shard.entry(idx).seg {
            Segment::Probationary => {
                shard.unlink(idx);
                shard.push_head(idx, Segment::Protected);
                shard.prot_bytes += shard.entry(idx).bytes;
                shard.rebalance_protected(self.shard_bound);
            }
            Segment::Protected => {
                shard.unlink(idx);
                shard.push_head(idx, Segment::Protected);
            }
        }
        self.hits.incr();
        Some(value)
    }

    /// Non-mutating probe for EXPLAIN: the epoch of a live entry for
    /// `(terms, n)`, or `None`. Counts nothing, promotes nothing.
    pub fn peek(&self, terms: &[u32], n: usize) -> Option<u64> {
        let hash = key_hash(self.model_bits, terms, n);
        let now = self.epoch();
        let shard = self.shard_of(hash).lock();
        let idx = shard.find(hash, terms, n)?;
        let e = shard.entry(idx);
        (e.epoch == now).then_some(e.epoch)
    }

    /// Insert `(terms, n) → value` stamped with the current epoch.
    pub fn insert(&self, terms: &[u32], n: usize, value: Arc<QueryResponse>) {
        let epoch = self.epoch();
        self.insert_at(terms, n, value, epoch);
    }

    /// Insert stamped with `epoch` — the epoch the caller *observed when
    /// it admitted the query*. If an [`ResultCache::invalidate_epoch`]
    /// landed since, the answer was computed against a superseded
    /// snapshot and is silently dropped: a racing invalidation can never
    /// be laundered into a fresh-looking entry.
    pub fn insert_at(&self, terms: &[u32], n: usize, value: Arc<QueryResponse>, epoch: u64) {
        if epoch != self.epoch() {
            return;
        }
        let entry_bytes = approx_entry_bytes(terms, &value);
        if entry_bytes > self.shard_bound {
            // Could never fit without evicting the whole shard: refuse.
            return;
        }
        let hash = key_hash(self.model_bits, terms, n);
        let mut shard = self.shard_of(hash).lock();
        let mut freed = 0usize;
        let mut evicted = 0u64;
        if let Some(idx) = shard.find(hash, terms, n) {
            if shard.entry(idx).epoch == epoch {
                // Purity: an answer for a key at an epoch is unique, so
                // the resident entry is already this one. Keep it (and
                // its LRU position).
                return;
            }
            freed += shard.remove(idx);
            evicted += 1;
        }
        let idx = match shard.free.pop() {
            Some(i) => i,
            None => {
                shard.slab.push(None);
                (shard.slab.len() - 1) as u32
            }
        };
        shard.slab[idx as usize] = Some(Entry {
            hash,
            terms: terms.to_vec(),
            n,
            epoch,
            value,
            bytes: entry_bytes,
            seg: Segment::Probationary,
            prev: NIL,
            next: NIL,
        });
        shard.map.entry(hash).or_default().push(idx);
        shard.bytes += entry_bytes;
        shard.push_head(idx, Segment::Probationary);
        let (e, f) = shard.evict_to(self.shard_bound);
        evicted += e;
        freed += f;
        drop(shard);
        self.insertions.incr();
        self.account(entry_bytes, freed);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Point-in-time counters and residency.
    pub fn stats(&self) -> CacheStats {
        let mut bytes = 0u64;
        let mut entries = 0usize;
        for s in self.shards.iter() {
            let g = s.lock();
            bytes += g.bytes as u64;
            entries += g.slab.len() - g.free.len();
        }
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            bytes,
            bytes_high_water: self.bytes.high_water().max(bytes),
            entries,
        }
    }

    /// Entries currently resident (live at *some* epoch; stale ones
    /// count until lazily reclaimed).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let g = s.lock();
                g.slab.len() - g.free.len()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_ir::ExecReport;

    fn resp(doc: u32) -> Arc<QueryResponse> {
        Arc::new(QueryResponse {
            top: vec![(doc, 1.0), (doc + 1, 0.5)],
            work: ExecReport::default(),
            partial: false,
            shards: Vec::new(),
        })
    }

    fn single_shard(capacity: usize) -> ResultCache {
        ResultCache::new(
            CacheConfig {
                capacity_bytes: capacity,
                shards: 1,
            },
            RankingModel::default(),
        )
    }

    #[test]
    fn hit_returns_the_inserted_answer_verbatim() {
        let cache = single_shard(1 << 20);
        assert!(cache.get(&[1, 2], 10).is_none());
        cache.insert(&[1, 2], 10, resp(7));
        let hit = cache.get(&[1, 2], 10).expect("resident");
        assert_eq!(hit.top, vec![(7, 1.0), (8, 0.5)]);
        // Different n or different terms: distinct keys.
        assert!(cache.get(&[1, 2], 11).is_none());
        assert!(cache.get(&[1], 10).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 3, 1));
    }

    #[test]
    fn epoch_bump_invalidates_everything_in_o1() {
        let cache = single_shard(1 << 20);
        cache.insert(&[1], 5, resp(1));
        cache.insert(&[2], 5, resp(2));
        assert_eq!(cache.len(), 2);
        let e = cache.invalidate_epoch();
        assert_eq!(e, 1);
        assert!(cache.get(&[1], 5).is_none(), "stale epoch never hits");
        assert!(cache.peek(&[2], 5).is_none());
        // The touched entry was reclaimed lazily; re-insert works at the
        // new epoch.
        cache.insert(&[1], 5, resp(9));
        assert_eq!(cache.get(&[1], 5).expect("fresh").top[0].0, 9);
    }

    #[test]
    fn stale_insert_from_a_superseded_epoch_is_dropped() {
        let cache = single_shard(1 << 20);
        let admitted_at = cache.epoch();
        cache.invalidate_epoch();
        cache.insert_at(&[3], 5, resp(3), admitted_at);
        assert!(cache.get(&[3], 5).is_none(), "superseded answer cached");
    }

    #[test]
    fn capacity_bound_holds_and_evicts_lru_first() {
        let bytes_each = approx_entry_bytes(&[0], &resp(0));
        // Room for exactly 3 entries.
        let cache = single_shard(bytes_each * 3 + bytes_each / 2);
        for k in 0..3u32 {
            cache.insert(&[k], 5, resp(k));
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.stats().bytes <= cache.capacity_bytes() as u64);
        // Touch key 0 so it is promoted; key 1 becomes the LRU victim.
        assert!(cache.get(&[0], 5).is_some());
        cache.insert(&[3], 5, resp(3));
        assert_eq!(cache.len(), 3);
        assert!(cache.stats().bytes <= cache.capacity_bytes() as u64);
        assert!(cache.peek(&[1], 5).is_none(), "LRU probationary evicted");
        assert!(cache.peek(&[0], 5).is_some(), "protected survivor");
        assert!(cache.peek(&[2], 5).is_some());
        assert!(cache.peek(&[3], 5).is_some());
    }

    #[test]
    fn oversized_entry_is_refused_not_thrashed() {
        let cache = single_shard(64);
        cache.insert(&[1, 2, 3], 100, resp(1));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn models_do_not_share_answers() {
        let a = ResultCache::new(CacheConfig::default(), RankingModel::TfIdf);
        let b = model_bits(RankingModel::Bm25 { k1: 1.2, b: 0.75 });
        let c = model_bits(RankingModel::Bm25 { k1: 1.2, b: 0.4 });
        assert_ne!(model_bits(RankingModel::TfIdf), b);
        assert_ne!(b, c, "parameter bits fold into the key");
        drop(a);
    }

    #[test]
    fn protected_share_demotes_instead_of_evicting() {
        let bytes_each = approx_entry_bytes(&[0], &resp(0));
        // 5 slots; protected share is 4/5 of the bound.
        let cache = single_shard(bytes_each * 5);
        for k in 0..5u32 {
            cache.insert(&[k], 5, resp(k));
        }
        // Promote all five: the protected segment exceeds its share, so
        // tails demote back to probation rather than being dropped.
        for k in 0..5u32 {
            assert!(cache.get(&[k], 5).is_some());
        }
        assert_eq!(cache.len(), 5, "demotion never evicts");
        assert!(cache.stats().bytes <= cache.capacity_bytes() as u64);
    }
}
