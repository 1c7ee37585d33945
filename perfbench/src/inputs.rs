//! Seeded workload inputs and the plaintext oracle.
//!
//! Every input a workload feeds the system — plaintext records, the
//! query pool, the trusted authority's keys, each document's encryption
//! randomness, the wave schedule — is drawn from the run's `--seed`
//! through a named stream, so the same seed gives the same inputs
//! whatever the thread interleaving. The oracle holds the plaintext of
//! every stored document and answers each pool query with
//! [`Query::matches_record`]; the system's hit sets must equal it.

use apks_authz::{SignedCapability, TrustedAuthority};
use apks_core::{ApksPublicKey, ApksSystem, EncryptedIndex, Query, QueryPolicy, Record, Schema};
use apks_curve::CurveParams;
use apks_dataset::nursery::{nursery_records, nursery_schema};
use apks_math::encode::Writer;
use apks_math::sha256::Sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Nursery's nine schema fields, in record order (eight attributes, then
/// the class).
pub const FIELDS: [&str; 9] = [
    "parents", "has_nurs", "form", "children", "housing", "finance", "social", "health", "class",
];

/// Independent random streams drawn from one seed.
#[derive(Clone, Copy)]
#[repr(u64)]
pub enum Stream {
    Authority = 1,
    Records = 2,
    Queries = 3,
    Issue = 4,
    Uploads = 5,
    Schedule = 6,
    /// Per-document encryption randomness: document `i` uses
    /// `Documents + i`, so parallel encryption stays deterministic.
    Documents = 1 << 32,
    /// Per-record randomness of the records uploaded in the timed phase.
    UploadDocuments = 1 << 33,
}

/// The RNG for `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    let mut x = seed ^ (stream as u64 + index).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finaliser: nearby seeds give unrelated streams
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(x ^ (x >> 31))
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A deployment's keys and query pool: everything set-up makes before
/// the corpus is loaded.
pub struct Base {
    pub system: ApksSystem,
    pub ta: TrustedAuthority,
    pub records: Vec<Record>,
    pub queries: Vec<Query>,
    pub caps: Vec<SignedCapability>,
    /// Wall time of each `issue_capability` call, ms.
    pub issue_ms: Vec<f64>,
}

impl Base {
    /// Runs TA set-up over the Nursery schema with OR budget `d`
    /// (n = 9d + 1), samples `docs` plaintext records and issues one
    /// signed capability per pool query.
    pub fn new(seed: u64, d: usize, docs: usize, pool: usize) -> Base {
        let system = ApksSystem::new(
            CurveParams::fast(),
            nursery_schema(d).expect("Nursery schema builds for d >= 1"),
        );
        let ta = TrustedAuthority::setup(system.clone(), &mut rng(seed, Stream::Authority, 0));
        let records = sample_records(&mut rng(seed, Stream::Records, 0), docs);
        let queries = query_pool(&mut rng(seed, Stream::Queries, 0), &records, pool);
        let mut issue_rng = rng(seed, Stream::Issue, 0);
        let mut issue_ms = Vec::with_capacity(pool);
        let caps = queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                let cap = ta
                    .issue_capability(q, &QueryPolicy::default(), &mut issue_rng)
                    .expect("pool queries fit the schema");
                issue_ms.push(ms_since(t));
                cap
            })
            .collect();
        Base {
            system,
            ta,
            records,
            queries,
            caps,
            issue_ms,
        }
    }

    /// The deployment's public key.
    pub fn pk(&self) -> &ApksPublicKey {
        self.ta.public_key()
    }

    /// A fresh oracle over the pool queries (no documents yet).
    pub fn oracle(&self) -> Oracle {
        Oracle::new(self.system.schema().clone(), self.queries.clone())
    }
}

/// `count` records drawn uniformly, with replacement, from the 12,960
/// Nursery rows.
pub fn sample_records(rng: &mut StdRng, count: usize) -> Vec<Record> {
    let table = nursery_records();
    (0..count)
        .map(|_| table[rng.gen_range(0..table.len())].clone())
        .collect()
}

/// `count` conjunctive equality queries over one or two fields, each
/// built from a record of `records` so that every query has a hit.
pub fn query_pool(rng: &mut StdRng, records: &[Record], count: usize) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let rec = &records[rng.gen_range(0..records.len())];
            let k = rng.gen_range(1..3usize);
            let mut fields: Vec<usize> = Vec::with_capacity(k);
            while fields.len() < k {
                let f = rng.gen_range(0..FIELDS.len());
                if !fields.contains(&f) {
                    fields.push(f);
                }
            }
            fields.iter().fold(Query::new(), |q, &f| {
                q.equals(FIELDS[f], rec.values[f].clone())
            })
        })
        .collect()
}

/// Encrypted records plus the wall time of each `gen_index` call.
pub struct Encrypted {
    pub indexes: Vec<EncryptedIndex>,
    pub gen_ms: Vec<f64>,
}

/// Encrypts `records` with `gen_index` on two threads (corpus
/// generation is the only part of a workload allowed the second core).
/// Document `i` draws its randomness from `(seed, stream, i)`, so the
/// ciphertexts do not depend on the interleaving.
pub fn encrypt(
    system: &ApksSystem,
    pk: &ApksPublicKey,
    records: &[Record],
    seed: u64,
    stream: Stream,
) -> Encrypted {
    let gen = |i: usize| {
        let mut r = rng(seed, stream, i as u64);
        let t = Instant::now();
        let idx = system
            .gen_index(pk, &records[i], &mut r)
            .expect("Nursery records fit the schema");
        (idx, ms_since(t))
    };
    let (odd, even): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let worker = s.spawn(move || (1..records.len()).step_by(2).map(gen).collect());
        let even: Vec<_> = (0..records.len()).step_by(2).map(gen).collect();
        (worker.join().expect("encryption worker panicked"), even)
    });
    let mut out = Encrypted {
        indexes: Vec::with_capacity(records.len()),
        gen_ms: Vec::with_capacity(records.len()),
    };
    let mut odd = odd.into_iter();
    for e in even {
        for (idx, ms) in std::iter::once(e).chain(odd.next()) {
            out.indexes.push(idx);
            out.gen_ms.push(ms);
        }
    }
    out
}

/// Canonical encoding of an index (what the store and the wire carry).
pub fn encode_index(params: &CurveParams, idx: &EncryptedIndex) -> Vec<u8> {
    let mut w = Writer::new();
    idx.encode(params, &mut w);
    w.finish()
}

fn hex(bytes: [u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over the canonical encodings of `indexes`, in order.
pub fn corpus_digest(params: &CurveParams, indexes: &[EncryptedIndex]) -> String {
    let mut sha = Sha256::new();
    for idx in indexes {
        sha.update(&encode_index(params, idx));
    }
    hex(sha.finalize())
}

/// Running digest over the first [`HitLog::LIMIT`] answers of a run, so
/// two runs of one seed can be compared answer for answer even though a
/// timed run's length varies.
pub struct HitLog {
    sha: Sha256,
    answers: usize,
}

impl Default for HitLog {
    fn default() -> HitLog {
        HitLog {
            sha: Sha256::new(),
            answers: 0,
        }
    }
}

impl HitLog {
    /// Answers folded into the digest.
    pub const LIMIT: usize = 16;

    /// Folds in query `q`'s sorted hit set.
    pub fn record(&mut self, q: usize, hits: &[u64]) {
        if self.answers == Self::LIMIT {
            return;
        }
        self.answers += 1;
        self.sha.update(&(q as u64).to_le_bytes());
        self.sha.update(&(hits.len() as u64).to_le_bytes());
        for id in hits {
            self.sha.update(&id.to_le_bytes());
        }
    }

    /// `<answers>:<hex digest>`.
    pub fn finish(self) -> String {
        format!("{}:{}", self.answers, hex(self.sha.finalize()))
    }
}

/// A hit set that differs from the plaintext oracle's.
#[derive(Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub query: usize,
    pub missing: Vec<u64>,
    pub unexpected: Vec<u64>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "oracle mismatch on pool query {}: missing {:?}, unexpected {:?}",
            self.query, self.missing, self.unexpected
        )
    }
}

/// Expected hit sets of the pool queries over the stored plaintexts.
#[derive(Clone)]
pub struct Oracle {
    schema: Arc<Schema>,
    queries: Vec<Query>,
    /// Per pool query, the matching document ids, ascending.
    hits: Vec<Vec<u64>>,
}

impl Oracle {
    pub fn new(schema: Arc<Schema>, queries: Vec<Query>) -> Oracle {
        let hits = vec![Vec::new(); queries.len()];
        Oracle {
            schema,
            queries,
            hits,
        }
    }

    /// Records that document `id` holds `record`.
    pub fn insert(&mut self, id: u64, record: &Record) {
        for (q, hits) in self.queries.iter().zip(&mut self.hits) {
            if q.matches_record(&self.schema, record)
                .expect("pool queries fit the schema")
            {
                let at = hits.partition_point(|&h| h < id);
                hits.insert(at, id);
            }
        }
    }

    /// Pool query `q`'s expected hits, ascending.
    pub fn expected(&self, q: usize) -> &[u64] {
        &self.hits[q]
    }

    /// Checks a hit set (any order) against pool query `q`; returns the
    /// sorted hits.
    pub fn check(&self, q: usize, got: &[u64]) -> Result<Vec<u64>, Mismatch> {
        let mut got = got.to_vec();
        got.sort_unstable();
        let want = &self.hits[q];
        if &got == want {
            return Ok(got);
        }
        Err(Mismatch {
            query: q,
            missing: want
                .iter()
                .filter(|id| got.binary_search(id).is_err())
                .copied()
                .collect(),
            unexpected: got
                .iter()
                .filter(|id| want.binary_search(id).is_err())
                .copied()
                .collect(),
        })
    }
}
