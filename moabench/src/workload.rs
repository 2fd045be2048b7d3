//! The four workloads: their fixed sizes, why each exists, what each
//! must look like to the cache and the pool, and the query streams
//! generated from `--seed`.
//!
//! Every stream is fixed-length and a run replays it a fixed number of
//! rounds (`run::ROUNDS`): two runs of one seed execute the same calls.

use std::collections::HashSet;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig, Zipf};
use moa_serve::BatchQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per `enqueue`.
pub const BATCH: usize = 32;

/// One corpus for all workloads: about 9.5 M postings, so that one
/// index build plus session start takes over half a second.
pub fn corpus_config(seed: u64) -> CollectionConfig {
    CollectionConfig {
        num_docs: 150_000,
        vocab_size: 400_000,
        avg_doc_len: 150,
        zipf_exponent: 1.5,
        num_topics: 200,
        topic_mix: 0.3,
        seed,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanLong,
    PointRare,
    ZipfHot,
    ZipfChurn,
}

/// What the cache must have evicted over the timed rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evictions {
    Any,
    Zero,
    Some,
}

/// Checked on every run, so that a workload keeps stressing the layer
/// it was chosen for.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Inclusive range of cache hits over arrivals in the sat replays.
    pub hit_ratio: (f64, f64),
    /// All-distinct streams must see no admission coalescing.
    pub no_coalescing: bool,
    pub evictions: Evictions,
    /// Inclusive range of the median postings scanned per query.
    pub median_scanned: Option<(usize, usize)>,
    /// Inclusive range of (busiest shard's time) / (solo latency). A
    /// ratio of two timings on a shared host: the ranges are wide, and
    /// the posting counts above are what pins a workload to its layer.
    pub busy_share: Option<(f64, f64)>,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Distinct queries the stream draws from.
    pub pool: usize,
    /// Arrivals in one pass over the pre-built batches.
    pub pass_len: usize,
    /// Passes per sat replay (`zipf_hot` cycles a ring of batches so
    /// that the generator's memory stays small).
    pub passes: usize,
    /// `submit` calls in one solo slice.
    pub solo_len: usize,
    /// Consecutive cache hits timed as one solo sample, so that no
    /// sample is shorter than about 5 µs; a miss is timed alone.
    pub solo_group: usize,
    /// Of the warm-up's solo answers, one in this many is compared with
    /// the oracle.
    pub verify_stride: usize,
    /// Bump the cache epoch before every sat replay and every solo
    /// slice, so that each starts from the same (empty) cache.
    pub bump: bool,
    /// Further epoch bumps inside a sat replay, every this many arrivals.
    pub epoch_every: Option<usize>,
    pub expect: Expect,
}

impl Spec {
    pub fn sat_len(&self) -> usize {
        self.pass_len * self.passes
    }
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "scan_long",
        why: "600 distinct 2-6 term frequent and topical queries, N 10/100/1000: decode, operators, scorer and threshold do the work; cache only misses and inserts, so cache or hand-off changes must not move it",
        kind: Kind::ScanLong,
        pool: 600,
        pass_len: 600,
        passes: 1,
        solo_len: 600,
        solo_group: 1,
        verify_stride: 1,
        bump: true,
        epoch_every: None,
        expect: Expect {
            hit_ratio: (0.0, 0.0),
            no_coalescing: true,
            evictions: Evictions::Any,
            median_scanned: Some((1000, usize::MAX)),
            busy_share: Some((0.8, 1.0)),
        },
    },
    Spec {
        name: "point_rare",
        why: "128000 distinct rare-term queries, N 10, a few postings each: planner, admission, pool hand-off, k-way merge, deliver and telemetry are the cost; a decode kernel must not move it",
        kind: Kind::PointRare,
        pool: 128_000,
        pass_len: 128_000,
        passes: 1,
        solo_len: 12_800,
        solo_group: 1,
        verify_stride: 3,
        bump: true,
        epoch_every: None,
        expect: Expect {
            hit_ratio: (0.0, 0.0),
            no_coalescing: true,
            evictions: Evictions::Any,
            median_scanned: Some((1, 64)),
            busy_share: Some((0.0, 0.5)),
        },
    },
    Spec {
        name: "zipf_hot",
        why: "Zipf(1.0) arrivals over 512 topical N 100 keys that fit the cache: after warm-up every query is a hit and the workers idle, so cache.get and the admission fast path are the whole cost",
        kind: Kind::ZipfHot,
        pool: 512,
        pass_len: 4096 * BATCH,
        passes: 14,
        solo_len: 16_000 * 64,
        solo_group: 64,
        verify_stride: 1,
        bump: false,
        epoch_every: None,
        expect: Expect {
            hit_ratio: (1.0, 1.0),
            no_coalescing: false,
            evictions: Evictions::Zero,
            median_scanned: None,
            busy_share: None,
        },
    },
    Spec {
        name: "zipf_churn",
        why: "Zipf(1.0) arrivals over 4000 topical N 100 keys, 2.5x what the cache holds, epoch bump every 4800: miss, insert, evict, stale reclaim and refill beside hits; p50 on the hit side, p95 on the miss side",
        kind: Kind::ZipfChurn,
        pool: 4000,
        pass_len: 57_600,
        passes: 1,
        solo_len: 16_000,
        solo_group: 8,
        verify_stride: 1,
        bump: true,
        epoch_every: Some(4800),
        expect: Expect {
            hit_ratio: (0.65, 0.80),
            no_coalescing: false,
            evictions: Evictions::Some,
            median_scanned: None,
            busy_share: None,
        },
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A workload's inputs. The program under test receives only these.
pub struct Stream {
    /// The distinct queries; `solo` and the oracle index into it.
    pub pool: Vec<BatchQuery>,
    /// One pass of the sat replay, pre-built so that the clock covers no
    /// generator work.
    pub batches: Vec<Vec<BatchQuery>>,
    /// The solo slice, as pool indices.
    pub solo: Vec<u32>,
}

impl Stream {
    /// A digest of everything the stream will send, in order.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        for b in &self.batches {
            for q in b {
                q.terms.iter().for_each(|&t| mix(u64::from(t)));
                mix(q.n as u64 | 1 << 40);
            }
        }
        self.solo.iter().for_each(|&k| mix(u64::from(k)));
        h
    }
}

fn candidates(
    corpus: &Collection,
    count: usize,
    terms: (usize, usize),
    bias: DfBias,
    seed: u64,
) -> Vec<Vec<u32>> {
    let config = QueryConfig {
        num_queries: count,
        min_terms: terms.0,
        max_terms: terms.1,
        bias,
        seed,
    };
    generate_queries(corpus, &config)
        .expect("the query configuration is valid for the benchmark corpus")
        .into_iter()
        .map(|q| q.terms)
        .collect()
}

/// Pick `count` of the candidates, the middle one of each stratum of
/// total posting volume, so that every seed draws the same cost profile
/// with different terms. Query cost is heavy-tailed in the posting volume
/// of its terms; an unstratified draw of a few hundred queries moves the
/// mean by a tenth from seed to seed, which would drown the effects the
/// benchmark is for. Returned in stratum order, cheapest first; no query
/// already in `taken` is picked, and every pick joins it.
fn stratified(
    corpus: &Collection,
    mut cands: Vec<Vec<u32>>,
    count: usize,
    taken: &mut HashSet<Vec<u32>>,
) -> Vec<Vec<u32>> {
    let volume =
        |t: &Vec<u32>| -> u64 { t.iter().map(|&x| u64::from(corpus.df()[x as usize])).sum() };
    cands.sort_by_cached_key(|t| (volume(t), t.clone()));
    cands.dedup();
    assert!(cands.len() >= count, "too few distinct candidates");
    let width = cands.len() / count;
    (0..count)
        .map(|s| {
            let pick = (0..width)
                .map(|i| &cands[s * width + (width / 2 + i) % width])
                .find(|t| !taken.contains(*t))
                .expect("a stratum has a query no other class took");
            taken.insert(pick.clone());
            pick.clone()
        })
        .collect()
}

/// `count` distinct queries in generation order.
fn distinct(cands: Vec<Vec<u32>>, count: usize) -> Vec<Vec<u32>> {
    let mut seen = HashSet::new();
    let out: Vec<Vec<u32>> = cands
        .into_iter()
        .filter(|t| seen.insert(t.clone()))
        .take(count)
        .collect();
    assert_eq!(out.len(), count, "too few distinct candidates");
    out
}

fn with_n(terms: Vec<Vec<u32>>, n: usize) -> Vec<BatchQuery> {
    terms
        .into_iter()
        .map(|terms| BatchQuery { terms, n })
        .collect()
}

/// `len` Zipf(1.0) draws over `keys` ranks.
fn zipf_arrivals(keys: usize, len: usize, rng: &mut StdRng) -> Vec<u32> {
    let law = Zipf::new(keys, 1.0).expect("a positive number of keys");
    (0..len).map(|_| law.sample(rng) as u32).collect()
}

/// Build the stream of `spec` from `seed`. The same seed gives the same
/// stream; the corpus is an input too (see [`corpus_config`]).
pub fn build(spec: &Spec, corpus: &Collection, seed: u64) -> Stream {
    // One generator per purpose, so that resizing one part of a stream
    // does not reshuffle the others.
    let sub = |salt: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    let mut rng = StdRng::seed_from_u64(sub(1));
    let topical = DfBias::Topical { high_df_mix: 0.0 };
    let mut taken = HashSet::new();
    let (pool, sat, solo): (Vec<BatchQuery>, Vec<u32>, Vec<u32>) = match spec.kind {
        Kind::ScanLong => {
            // Six classes (two term pools x three N), 100 strata each,
            // interleaved with a stride coprime to 100 so that every
            // window of the stream spans the whole cost range.
            let per_class = spec.pool / 6;
            let mut classes = Vec::new();
            for (b, bias) in [DfBias::FrequentOnly, DfBias::Topical { high_df_mix: 0.5 }]
                .into_iter()
                .enumerate()
            {
                for (k, n) in [10usize, 100, 1000].into_iter().enumerate() {
                    let salt = 10 + (b * 3 + k) as u64;
                    let cands = candidates(corpus, per_class * 10, (2, 6), bias, sub(salt));
                    classes.push(with_n(stratified(corpus, cands, per_class, &mut taken), n));
                }
            }
            let pool: Vec<BatchQuery> = (0..per_class)
                .flat_map(|i| classes.iter().map(move |c| c[(i * 37) % per_class].clone()))
                .collect();
            let order: Vec<u32> = (0..pool.len() as u32).collect();
            let solo = order[..spec.solo_len].to_vec();
            (pool, order, solo)
        }
        Kind::PointRare => {
            let cands = candidates(
                corpus,
                spec.pool + spec.pool / 8,
                (2, 4),
                DfBias::RareOnly,
                sub(20),
            );
            let pool = with_n(distinct(cands, spec.pool), 10);
            let order: Vec<u32> = (0..pool.len() as u32).collect();
            let solo = order[..spec.solo_len].to_vec();
            (pool, order, solo)
        }
        Kind::ZipfHot | Kind::ZipfChurn => {
            let cands = candidates(corpus, spec.pool * 10, (2, 6), topical, sub(30));
            let mut pool = stratified(corpus, cands, spec.pool, &mut taken);
            // Popularity rank must not follow cost: shuffle the strata.
            for i in (1..pool.len()).rev() {
                pool.swap(i, rng.gen_range(0..=i));
            }
            let sat = zipf_arrivals(spec.pool, spec.pass_len, &mut rng);
            let solo = zipf_arrivals(spec.pool, spec.solo_len, &mut rng);
            (with_n(pool, 100), sat, solo)
        }
    };
    assert_eq!(sat.len(), spec.pass_len);
    let batches = sat
        .chunks(BATCH)
        .map(|keys| keys.iter().map(|&k| pool[k as usize].clone()).collect())
        .collect();
    Stream {
        pool,
        batches,
        solo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Collection {
        Collection::generate(CollectionConfig {
            num_docs: 3000,
            vocab_size: 30_000,
            ..corpus_config(5)
        })
        .expect("valid configuration")
    }

    fn shrunk(spec: &Spec) -> Spec {
        // The same generators at a size a unit test can afford.
        let pool = spec.pool.min(600);
        let pass_len = match spec.kind {
            Kind::ScanLong | Kind::PointRare => pool,
            Kind::ZipfHot | Kind::ZipfChurn => 960,
        };
        Spec {
            pool,
            pass_len,
            passes: 1,
            solo_len: 256,
            ..*spec
        }
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        let corpus = small_corpus();
        for spec in SPECS {
            let spec = shrunk(spec);
            let a = build(&spec, &corpus, 1).hash();
            assert_eq!(a, build(&spec, &corpus, 1).hash(), "{}", spec.name);
            assert_ne!(a, build(&spec, &corpus, 2).hash(), "{}", spec.name);
        }
    }

    #[test]
    fn distinct_workloads_repeat_no_query_and_sizes_hold() {
        let corpus = small_corpus();
        for spec in SPECS {
            let spec = shrunk(spec);
            let s = build(&spec, &corpus, 3);
            assert_eq!(s.pool.len(), spec.pool);
            assert_eq!(s.solo.len(), spec.solo_len);
            assert_eq!(s.batches.iter().map(Vec::len).sum::<usize>(), spec.pass_len);
            assert!(s.batches.iter().all(|b| b.len() <= BATCH));
            let keys: HashSet<(&[u32], usize)> =
                s.pool.iter().map(|q| (q.terms.as_slice(), q.n)).collect();
            assert_eq!(keys.len(), s.pool.len(), "{} pool repeats a key", spec.name);
        }
    }

    #[test]
    fn declared_sizes_fit_the_measurement_rules() {
        // `lat_p95_us` is read per slice; p95 needs ten samples beyond it.
        const MIN_SLICE_SAMPLES: usize = 200;
        for spec in SPECS {
            // Even a slice of hits alone holds that many timed samples.
            let samples = spec.solo_len / spec.solo_group;
            assert!(samples >= MIN_SLICE_SAMPLES, "{}", spec.name);
            assert!(spec.solo_len <= spec.pass_len || spec.kind == Kind::ZipfHot);
            assert!(spec.pass_len % BATCH == 0 || spec.passes == 1);
        }
    }
}
