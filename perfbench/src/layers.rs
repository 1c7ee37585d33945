//! Layer probes shared by every workload: kernel microbenchmarks, a
//! benchmark-owned twin of the paged store, per-document twins of the
//! scan's inner calls, and the registry counters the metrics are read
//! from.

use crate::framed::OWNER;
use crate::inputs::{encode_index, Base};
use crate::stats::{median, ratio};
use crate::trace::{decompose, Term, Tracer};
use crate::{Args, E2e};
use apks_core::{EncryptedIndex, PreparedCapability};
use apks_curve::prepared::{pairing_prepared, PreparedG1};
use apks_curve::{final_exponentiation, pairing_unreduced, CurveParams};
use apks_math::encode::Reader;
use apks_math::Fr;
use apks_store::{PagedStore, StoreConfig};
use apks_telemetry::MetricsSnapshot;
use apks_wire::{IngestBatch, Request, Wire, WireCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Page size of every store the benchmark opens.
pub const PAGE_SIZE: usize = 4096;
/// Segment roll: a segment is sealed (flushed and fsynced) once it holds
/// this many bytes.
pub const SEGMENT_ROLL_BYTES: u64 = 64 << 10;

/// The store configuration of every paged deployment and twin.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        page_size: PAGE_SIZE,
        segment_max_bytes: SEGMENT_ROLL_BYTES,
    }
}

/// Median per-call time of `f` over `batches` batches of `reps` calls, ns.
fn per_call_ns(batches: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&samples)
}

/// Kernel timings: `(prepared pairing µs, final exponentiation µs,
/// Fp multiplication ns)` on the workload's curve.
pub fn kernels(params: &CurveParams) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let g = params.generator();
    let p = params.mul(&g, Fr::random_nonzero(&mut rng));
    let q = params.mul(&g, Fr::random_nonzero(&mut rng));
    let prep = PreparedG1::new(params, &p);
    let pairing_us = per_call_ns(7, 20, || {
        black_box(pairing_prepared(params, black_box(&prep), black_box(&q)));
    }) / 1e3;
    let miller = pairing_unreduced(params, &p, &q);
    let final_exp_us = per_call_ns(7, 20, || {
        black_box(final_exponentiation(params, black_box(miller)));
    }) / 1e3;
    let fp = params.fp();
    let y = fp.from_u64(0x1234_5678_9abc_def1);
    let mut x = fp.from_u64(3);
    let fp_mul_ns = per_call_ns(7, 20_000, || {
        x = fp.mul(black_box(x), y);
    });
    black_box(x);
    (pairing_us, final_exp_us, fp_mul_ns)
}

/// A `PagedStore` the benchmark opens over the workload's payloads, so
/// the store layer is timed without the cloud crate's lookups around it.
pub struct TwinStore {
    store: PagedStore,
    user_bytes: u64,
}

impl TwinStore {
    /// Opens an empty store at `dir` (removing any earlier contents).
    pub fn open(dir: &Path, schema_digest: [u8; 32]) -> TwinStore {
        let _ = std::fs::remove_dir_all(dir);
        TwinStore {
            store: PagedStore::open(dir, schema_digest, store_config())
                .expect("twin store opens in a fresh directory"),
            user_bytes: 0,
        }
    }

    /// Appends `payload` under `id` as a twin span `store.put`.
    pub fn put(&mut self, tracer: &mut Tracer, req: u64, id: u64, payload: Vec<u8>) {
        self.user_bytes += payload.len() as u64;
        tracer
            .twin(req, "store.put", || self.store.put(id, payload))
            .expect("twin store put");
    }

    /// Reads `id` back as a twin span `store.get`.
    pub fn get(&mut self, tracer: &mut Tracer, req: u64, id: u64) -> Vec<u8> {
        tracer
            .twin(req, "store.get", || self.store.get(id))
            .expect("twin store get")
            .expect("twin store holds every benchmark document")
    }

    /// `(file bytes per payload byte, sealed segments)`.
    pub fn shape(&mut self) -> (f64, f64) {
        let stats = self.store.stats().expect("twin store stats");
        (
            stats.bytes as f64 / self.user_bytes.max(1) as f64,
            stats.segments as f64,
        )
    }
}

/// Strict decode of one canonical index encoding, as the store's
/// hydration does it.
pub fn decode_index(params: &CurveParams, payload: &[u8]) -> EncryptedIndex {
    let mut r = Reader::new(payload);
    let idx = EncryptedIndex::decode(params, &mut r).expect("benchmark payloads decode");
    r.finish().expect("no trailing bytes");
    idx
}

/// Everything a traced run times off the request path: a twin store
/// holding the corpus, the pool capabilities prepared once
/// (`core.prepare`), upload-request decodes, the kernels, and the
/// per-document work of a scan on sampled documents.
pub struct Twins<'a> {
    base: &'a Base,
    pub store: TwinStore,
    prepared: Vec<PreparedCapability>,
    /// `(prepared pairing µs, final exponentiation µs, Fp mul ns)`.
    pub kernels: (f64, f64, f64),
    /// Traced requests so far (rotates the sampled documents).
    pub traced: u64,
}

impl<'a> Twins<'a> {
    pub fn prepare(
        tracer: &mut Tracer,
        base: &'a Base,
        corpus_ids: &[u64],
        corpus: &[EncryptedIndex],
        store_dir: &Path,
    ) -> Twins<'a> {
        let params = base.system.params();
        let mut store = TwinStore::open(store_dir, base.system.schema_digest());
        for (&id, idx) in corpus_ids.iter().zip(corpus) {
            store.put(tracer, 0, id, encode_index(params, idx));
        }
        let prepared = base
            .caps
            .iter()
            .map(|c| {
                tracer
                    .twin(0, "core.prepare", || {
                        base.system.prepare_capability(&c.capability)
                    })
                    .expect("pool capabilities belong to the deployment")
            })
            .collect();
        let ctx = WireCtx::new(params.clone());
        for (seq, idx) in corpus.iter().take(8).enumerate() {
            let bytes = Request::Upload(IngestBatch {
                owner: OWNER.to_string(),
                seq: seq as u64,
                records: vec![idx.clone()],
            })
            .to_bytes(&ctx);
            tracer
                .twin(0, "wire.upload_decode", || {
                    Request::from_bytes(&ctx, &bytes)
                })
                .expect("upload request decodes");
        }
        Twins {
            base,
            store,
            prepared,
            kernels: kernels(params),
            traced: 0,
        }
    }

    /// Capabilities in the pool.
    pub fn pool(&self) -> usize {
        self.prepared.len()
    }

    /// Times the per-document work of a scan — page read, strict
    /// decode, the prepared multi-pairing and its wave form — on
    /// `TWIN_DOCS` sampled documents of `ids`, against pool capability
    /// `cap` and the pool capabilities `wave`. Each kernel runs over the
    /// sampled documents back to back, as the scan loop runs it, so its
    /// line coefficients stay warm between documents.
    pub fn sample_docs(
        &mut self,
        tracer: &mut Tracer,
        req: u64,
        ids: &[u64],
        cap: usize,
        wave: &[usize],
    ) {
        let (system, pk) = (&self.base.system, self.base.pk());
        let cap = &self.prepared[cap];
        let wave: Vec<&PreparedCapability> = wave.iter().map(|&q| &self.prepared[q]).collect();
        let first = self.traced * crate::TWIN_DOCS as u64;
        let docs: Vec<EncryptedIndex> = (first..first + crate::TWIN_DOCS as u64)
            .map(|j| {
                let payload = self
                    .store
                    .get(tracer, req, ids[(j % ids.len() as u64) as usize]);
                tracer.twin(req, "core.decode", || {
                    decode_index(system.params(), &payload)
                })
            })
            .collect();
        for idx in &docs {
            tracer
                .twin(req, "core.search", || system.search_prepared(pk, cap, idx))
                .expect("twin search on a benchmark document");
        }
        for idx in &docs {
            tracer
                .twin(req, "core.wave", || {
                    system.search_prepared_wave(pk, &wave, idx)
                })
                .expect("twin wave on a benchmark document");
        }
        self.traced += 1;
    }
}

/// Registry counters the per-layer ratios are computed from. Read from
/// a snapshot before and after each request on the measured path, so
/// twin calls never leak into them.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub pairings: f64,
    pub hydrate_hits: f64,
    pub hydrate_misses: f64,
    pub prepare_hits: f64,
    pub prepare_calls: f64,
    pub wave_shared: f64,
    pub wave_docs: f64,
    pub distinct_sum: f64,
    pub distinct_count: f64,
}

impl Counters {
    pub fn read(s: &MetricsSnapshot) -> Counters {
        let c = |name: &str| s.counter(name).unwrap_or(0) as f64;
        let h = |name: &str| {
            s.histogram(name)
                .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
        };
        Counters {
            pairings: c("cloud.scan.pairings") + c("cloud.wave.pairings"),
            hydrate_hits: c("cloud.hydrate.hits"),
            hydrate_misses: c("cloud.hydrate.misses"),
            prepare_hits: c("cloud.prepare.cache_hits"),
            prepare_calls: h("cloud.scan.prepare_ticks").1 + h("cloud.wave.prepare_ticks").1,
            wave_shared: c("cloud.wave.shared_evals"),
            wave_docs: c("cloud.wave.docs"),
            distinct_sum: h("cloud.wave.distinct_caps").0,
            distinct_count: h("cloud.wave.distinct_caps").1,
        }
    }

    /// Adds the change between two readings.
    pub fn accumulate(&mut self, before: Counters, after: Counters) {
        self.pairings += after.pairings - before.pairings;
        self.hydrate_hits += after.hydrate_hits - before.hydrate_hits;
        self.hydrate_misses += after.hydrate_misses - before.hydrate_misses;
        self.prepare_hits += after.prepare_hits - before.prepare_hits;
        self.prepare_calls += after.prepare_calls - before.prepare_calls;
        self.wave_shared += after.wave_shared - before.wave_shared;
        self.wave_docs += after.wave_docs - before.wave_docs;
        self.distinct_sum += after.distinct_sum - before.distinct_sum;
        self.distinct_count += after.distinct_count - before.distinct_count;
    }
}

/// What a traced run measured outside its spans.
pub struct TraceFacts<'a> {
    /// Registry deltas over the requests on the measured path.
    pub counters: Counters,
    /// Queries answered on the measured path, traced or not.
    pub queries: f64,
    /// Query-document evaluations of those queries.
    pub evaluations: f64,
    pub gen_ms: &'a [f64],
    pub issue_ms: &'a [f64],
    /// `(file bytes per payload byte, sealed segments)` of the store.
    pub store_shape: (f64, f64),
    pub shard_ms: f64,
    pub server_ms_per_query: f64,
    pub bytes_per_query: f64,
    /// `(prepared pairing µs, final exponentiation µs, Fp mul ns)`.
    pub kernels: (f64, f64, f64),
}

/// Ends a traced run: reports the decomposition of the untraced median
/// into `terms` and the tracing overhead (traced over untraced median),
/// writes the spans, and returns the per-layer metrics.
pub fn per_layer_metrics(
    args: &Args,
    tracer: &Tracer,
    facts: &TraceFacts<'_>,
    terms: &[Term],
    e2e: &E2e,
    traced_ms: &[f64],
    report: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let untraced_p50 = median(&e2e.query_ms);
    let residue = decompose(args.workload.name(), terms, untraced_p50, report);
    let traced_p50 = median(traced_ms);
    let overhead = 100.0 * (traced_p50 / untraced_p50 - 1.0);
    report.push(format!(
        "tracing overhead: traced p50 {traced_p50:.3} ms over untraced p50 {untraced_p50:.3} ms = {overhead:+.2}% ({} traced, {} untraced query samples)",
        traced_ms.len(),
        e2e.query_ms.len()
    ));
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.push(format!("spans written to {}", path.display())),
        Err(e) => report.push(format!("spans not written: {e}")),
    }
    let s = |name: &str| tracer.median_self_us(name);
    let c = &facts.counters;
    let (pairing_us, final_exp_us, fp_mul_ns) = facts.kernels;
    let mut m = BTreeMap::from([
        ("core.search_us_per_doc", s("core.search")),
        ("core.wave_us_per_doc", s("core.wave")),
        ("core.prepare_ms", s("core.prepare") / 1e3),
        ("core.decode_us", s("core.decode")),
        ("core.gen_index_ms", median(facts.gen_ms)),
        ("store.get_us", s("store.get")),
        ("store.put_us", s("store.put")),
        ("store.bytes_per_user_byte", facts.store_shape.0),
        ("store.seals", facts.store_shape.1),
        (
            "cloud.hydrate.hit_ratio",
            ratio(c.hydrate_hits, c.hydrate_hits + c.hydrate_misses),
        ),
        (
            "cloud.hydrate.misses_per_query",
            c.hydrate_misses / facts.queries,
        ),
        (
            "cloud.prepare.hit_ratio",
            ratio(c.prepare_hits, c.prepare_calls),
        ),
        (
            "cloud.wave.shared_ratio",
            ratio(c.wave_shared, facts.evaluations),
        ),
        (
            "cloud.wave.distinct_caps",
            ratio(c.distinct_sum, c.distinct_count),
        ),
        ("cloud.shard_ms", facts.shard_ms),
        ("cloud.server_ms_per_query", facts.server_ms_per_query),
        ("cloud.pairings_per_query", c.pairings / facts.queries),
        ("authz.verify_us", s("authz.verify")),
        ("authz.issue_ms", median(facts.issue_ms)),
        ("wire.search_encode_us", s("wire.search_encode")),
        ("wire.search_decode_us", s("wire.search_decode")),
        ("wire.response_us", s("wire.response_encode")),
        ("wire.response_decode_us", s("wire.response_decode")),
        ("wire.frame_us", s("wire.frame_send") + s("wire.frame_recv")),
        ("wire.upload_decode_us", s("wire.upload_decode")),
        ("wire.bytes_per_query", facts.bytes_per_query),
        ("curve.pairing_prepared_us", pairing_us),
        ("curve.final_exp_us", final_exp_us),
        ("math.fp_mul_ns", fp_mul_ns),
        ("trace.residue_pct", residue),
        ("trace.overhead_pct", overhead),
    ]);
    m.extend(e2e.unbounded_metrics());
    m
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
