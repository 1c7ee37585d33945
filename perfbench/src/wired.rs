//! `solo_n28` and `paged_mix_n10`: one closed-loop framed client against
//! one server.
//!
//! * `solo_n28` — an in-memory `CloudServer` at n = 28. Each round is one
//!   unbounded search with the next pool capability. A solo server has no
//!   prepared cache, so every search pays `prepare_capability` and one
//!   prepared multi-pairing per document.
//! * `paged_mix_n10` — `CloudServer::with_paged_store` at n = 10 with a
//!   decoded-index budget of a quarter of the initial corpus. Each round
//!   is one search, then two single-record uploads of records encrypted
//!   during set-up, so reads and writes share the store. Every
//!   [`EPOCH_ROUNDS`] rounds the server restarts over a fresh copy of the
//!   corpus as set-up left it on disk, so the corpus a search scans
//!   depends on the round number only, never on how fast earlier rounds
//!   ran.

use crate::framed::Framed;
use crate::inputs::{
    corpus_digest, encode_index, encrypt, ms_since, rng, sample_records, Base, HitLog, Mismatch,
    Oracle, Stream,
};
use crate::layers::{per_layer_metrics, store_config, Counters, TraceFacts, Twins};
use crate::stats::median;
use crate::trace::{Term, Tracer};
use crate::{note_failure, Args, E2e, Outcome, Workload, WAVE};
use apks_cloud::{CloudServer, HydrateConfig};
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{Budget, Deadline, EncryptedIndex, Record};
use apks_telemetry::{MetricsRegistry, WallClock};
use apks_wire::{Request, Response, SearchResponse, Wire};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Uploads after each search in `paged_mix_n10`.
const UPLOADS_PER_ROUND: usize = 2;
/// Rounds between restores of the paged corpus to its post-set-up state.
pub const EPOCH_ROUNDS: u64 = 8;
/// A traced search also times the whole server-side search call on
/// every this-many-th traced request.
const SHARD_TWIN_EVERY: u64 = 4;

/// One set-up's result.
struct Deployment {
    base: Base,
    corpus: Vec<EncryptedIndex>,
    corpus_ids: Vec<u64>,
    gen_ms: Vec<f64>,
    /// Latency of each single-record framed upload of the corpus load.
    load_upload_ms: Vec<f64>,
    /// Seconds from the first `gen_index` to the last upload acknowledged.
    load_s: f64,
    /// Timed-phase upload records (paged only).
    uploads: Vec<(Record, EncryptedIndex)>,
    oracle: Oracle,
    framed: Framed,
    store_dir: Option<PathBuf>,
    /// Decoded-index budget of the paged corpus, bytes.
    cache_budget: usize,
}

impl Deployment {
    fn new(args: &Args, k: usize) -> Result<Deployment, String> {
        let (seed, sizes) = (args.seed, args.sizes);
        let base = Base::new(seed, args.workload.d(), sizes.docs, sizes.pool);
        let store_dir = (args.workload == Workload::PagedMixN10).then(|| {
            args.out_dir.join(format!(
                "{}-{}-store{k}",
                args.workload.name(),
                std::process::id()
            ))
        });
        let load = Instant::now();
        let enc = encrypt(
            &base.system,
            base.pk(),
            &base.records,
            seed,
            Stream::Documents,
        );
        let cache_budget = enc.indexes[0].encoded_size() * sizes.docs / 4;
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut framed = Framed::new(open_server(&base, store_dir.as_deref(), cache_budget)?);
        let mut oracle = base.oracle();
        let mut corpus_ids = Vec::with_capacity(sizes.docs);
        let mut load_upload_ms = Vec::with_capacity(sizes.docs);
        for (idx, rec) in enc.indexes.iter().zip(&base.records) {
            let t = Instant::now();
            let id = framed.upload(idx.clone())?;
            load_upload_ms.push(ms_since(t));
            oracle.insert(id, rec);
            corpus_ids.push(id);
        }
        let load_s = load.elapsed().as_secs_f64();
        // seal the active segment: the directory now holds the whole
        // corpus, the snapshot each epoch restarts from
        framed
            .server
            .store_stats()
            .map_err(|e| format!("sealing the corpus: {e}"))?;
        let upload_records = sample_records(&mut rng(seed, Stream::Uploads, 0), sizes.upload_pool);
        let pool = encrypt(
            &base.system,
            base.pk(),
            &upload_records,
            seed,
            Stream::UploadDocuments,
        );
        Ok(Deployment {
            base,
            corpus: enc.indexes,
            corpus_ids,
            gen_ms: enc.gen_ms,
            load_upload_ms,
            load_s,
            uploads: upload_records.into_iter().zip(pool.indexes).collect(),
            oracle,
            framed,
            store_dir,
            cache_budget,
        })
    }
}

/// Opens the workload's server: paged at `dir` with a decoded-index
/// budget of `cache_budget` bytes, or in memory.
fn open_server(
    base: &Base,
    dir: Option<&Path>,
    cache_budget: usize,
) -> Result<Arc<CloudServer>, String> {
    let (system, pk, ibs) = (
        base.system.clone(),
        base.pk().clone(),
        base.ta.ibs_params().clone(),
    );
    let server = match dir {
        Some(dir) => CloudServer::with_paged_store(
            system,
            pk,
            ibs,
            Arc::new(MetricsRegistry::new()),
            Arc::new(WallClock),
            dir,
            store_config(),
            HydrateConfig {
                cache_budget_bytes: cache_budget,
            },
        )
        .map_err(|e| format!("paged store: {e}"))?,
        None => CloudServer::new(system, pk, ibs),
    };
    server.register_authority("ta");
    Ok(Arc::new(server))
}

/// Copies every file of `snapshot` into a fresh `dir`.
fn copy_store(snapshot: &Path, dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(snapshot)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
    }
    Ok(())
}

fn remove_store(dir: &Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Runs `solo_n28` or `paged_mix_n10`.
pub fn run(args: &Args) -> Result<Outcome, Mismatch> {
    let mut e2e = E2e::default();
    let mut report = Vec::new();
    let mut dep: Option<Deployment> = None;
    for k in 0..args.sizes.setups {
        if let Some(prev) = dep.take() {
            let dir = prev.store_dir.clone();
            drop(prev);
            remove_store(&dir);
        }
        let t = Instant::now();
        let d = Deployment::new(args, k).unwrap_or_else(|e| panic!("set-up failed: {e}"));
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        e2e.ingest_docs += d.corpus.len() as f64;
        e2e.ingest_s += d.load_s;
        // upload latency is the timed phase's on the read/write mix and
        // the corpus load's where the timed phase only searches
        if d.uploads.is_empty() {
            e2e.upload_ms.extend_from_slice(&d.load_upload_ms);
        }
        dep = Some(d);
    }
    let Deployment {
        base,
        corpus,
        corpus_ids,
        gen_ms,
        uploads,
        mut oracle,
        mut framed,
        store_dir,
        cache_budget,
        ..
    } = dep.expect("at least one set-up");
    let snapshot_oracle = oracle.clone();
    let epoch_dir = |epoch: u64| {
        args.out_dir.join(format!(
            "{}-{}-epoch{epoch}",
            args.workload.name(),
            std::process::id()
        ))
    };
    let params = base.system.params().clone();
    report.push(format!(
        "corpus: n={} docs={} pool={} upload_pool={} digest={}",
        base.system.n(),
        corpus.len(),
        base.caps.len(),
        uploads.len(),
        corpus_digest(&params, &corpus)
    ));

    let mut tracer = Tracer::default();
    let twin_dir = args.out_dir.join(format!(
        "{}-{}-twin",
        args.workload.name(),
        std::process::id()
    ));
    let mut twins = args
        .trace
        .then(|| Twins::prepare(&mut tracer, &base, &corpus_ids, &corpus, &twin_dir));

    let mut server = framed.server.clone();
    let mut hits = HitLog::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counters = Counters::default();
    let (mut searches, mut evaluations, mut search_wire_bytes) = (0f64, 0f64, 0f64);
    let mut traced_ms = Vec::new();
    let corpus_bytes: usize = corpus.iter().map(|i| i.encoded_size()).sum();
    let mut user_bytes = corpus_bytes;
    let uploads_per_round = if uploads.is_empty() {
        0
    } else {
        UPLOADS_PER_ROUND
    };

    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        if let (Some(snapshot), 0) = (&store_dir, round % EPOCH_ROUNDS) {
            let epoch = round / EPOCH_ROUNDS;
            copy_store(snapshot, &epoch_dir(epoch)).expect("copying the corpus snapshot");
            framed = Framed::new(
                open_server(&base, Some(&epoch_dir(epoch)), cache_budget)
                    .expect("reopening the corpus snapshot"),
            );
            server = framed.server.clone();
            if epoch > 0 {
                let _ = std::fs::remove_dir_all(epoch_dir(epoch - 1));
            }
            oracle = snapshot_oracle.clone();
            user_bytes = corpus_bytes;
        }
        let round_start = Instant::now();
        let traced = args.trace && round % 2 == 1;
        let q = round as usize % base.caps.len();
        let cap = &base.caps[q];
        let before = Counters::read(&server.metrics_snapshot());
        let bytes_before = framed.wire_bytes();
        attempted += 1;
        let t = Instant::now();
        let res = if traced {
            framed.search_traced(&mut tracer, round, cap)
        } else {
            framed.search(cap).map(|r| (r, Vec::new()))
        };
        let ms = ms_since(t);
        counters.accumulate(before, Counters::read(&server.metrics_snapshot()));
        searches += 1.0;
        search_wire_bytes += (framed.wire_bytes() - bytes_before) as f64;
        match res {
            Ok((resp, req_bytes)) => {
                hits.record(q, &oracle.check(q, &resp.matches)?);
                evaluations += resp.stats.scanned as f64;
                if traced {
                    traced_ms.push(ms);
                } else {
                    e2e.query_ms.push(ms);
                    e2e.docs_evaluated += resp.stats.scanned as f64;
                }
                if let (true, Some(tw)) = (traced, twins.as_mut()) {
                    search_twins(
                        tw,
                        &mut tracer,
                        &framed,
                        round,
                        q,
                        &corpus_ids,
                        &req_bytes,
                        &resp,
                    );
                }
            }
            Err(e) => note_failure(&mut report, &mut failed, e),
        }
        for u in 0..uploads_per_round {
            let (rec, idx) = &uploads[(round as usize * uploads_per_round + u) % uploads.len()];
            attempted += 1;
            user_bytes += idx.encoded_size();
            let t = Instant::now();
            let res = if traced {
                framed.upload_traced(&mut tracer, round, idx.clone())
            } else {
                framed.upload(idx.clone()).map(|id| (id, Vec::new()))
            };
            let ms = ms_since(t);
            match res {
                Ok((id, req_bytes)) => {
                    oracle.insert(id, rec);
                    if !traced {
                        e2e.upload_ms.push(ms);
                    }
                    if let (true, Some(tw)) = (traced, twins.as_mut()) {
                        tracer
                            .twin(round, "wire.upload_decode", || {
                                Request::from_bytes(&framed.ctx, &req_bytes)
                            })
                            .expect("upload request decodes");
                        tw.store
                            .put(&mut tracer, round, id, encode_index(&params, idx));
                    }
                }
                Err(e) => note_failure(&mut report, &mut failed, e),
            }
        }
        if !traced {
            e2e.untraced_s += round_start.elapsed().as_secs_f64();
        }
        round += 1;
    }
    report.push(format!("hits digest (first answers): {}", hits.finish()));
    report.push(e2e.describe());

    let metrics = match twins {
        None => e2e.metrics(),
        Some(mut tw) => {
            let store_shape = match server.store_stats().expect("store stats") {
                Some(stats) => (
                    stats.bytes as f64 / user_bytes as f64,
                    stats.segments as f64,
                ),
                None => tw.store.shape(),
            };
            let misses = counters.hydrate_misses / searches;
            // the request's own spans, then the twins of the server's work
            let mut terms: Vec<Term> = [
                "request",
                "wire.search_encode",
                "wire.frame_send",
                "wire.search_decode",
                "authz.verify",
                "wire.response_encode",
                "wire.frame_recv",
                "wire.response_decode",
            ]
            .into_iter()
            .map(|layer| Term::of(&tracer, layer, 1.0))
            .collect();
            terms.extend([
                Term::of(
                    &tracer,
                    "core.prepare",
                    (counters.prepare_calls - counters.prepare_hits) / searches,
                ),
                Term::of(&tracer, "store.get", misses),
                Term::of(&tracer, "core.decode", misses),
                Term::of(&tracer, "core.search", evaluations / searches),
            ]);
            let facts = TraceFacts {
                counters,
                queries: searches,
                evaluations,
                gen_ms: &gen_ms,
                issue_ms: &base.issue_ms,
                store_shape,
                shard_ms: median(&tracer.total_us("cloud.shard")) / 1e3,
                server_ms_per_query: median(&tracer.total_us("cloud.poll")) / 1e3,
                bytes_per_query: search_wire_bytes / searches,
                kernels: tw.kernels,
            };
            per_layer_metrics(args, &tracer, &facts, &terms, &e2e, &traced_ms, &mut report)
        }
    };
    drop(framed);
    drop(server);
    remove_store(&store_dir);
    if store_dir.is_some() {
        let _ = std::fs::remove_dir_all(epoch_dir(round.saturating_sub(1) / EPOCH_ROUNDS));
    }
    let _ = std::fs::remove_dir_all(&twin_dir);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The server-side layers of one traced search, timed on twins right
/// after it: request decode, capability verification, the per-document
/// page read, decode, prepared multi-pairing (solo and wave form) on a
/// few sampled documents, the response encode, and every few requests
/// the whole server-side search call.
#[allow(clippy::too_many_arguments)]
fn search_twins(
    tw: &mut Twins<'_>,
    tracer: &mut Tracer,
    framed: &Framed,
    req: u64,
    q: usize,
    corpus_ids: &[u64],
    req_bytes: &[u8],
    resp: &SearchResponse,
) {
    let ctx = &framed.ctx;
    let server = &framed.server;
    let Ok(Request::Search(search)) = tracer.twin(req, "wire.search_decode", || {
        Request::from_bytes(ctx, req_bytes)
    }) else {
        panic!("a search request the server answered decodes");
    };
    let cap = &search.capability;
    tracer
        .twin(req, "authz.verify", || server.admit(cap))
        .expect("pool capabilities are admitted");
    let pool = tw.pool();
    let wave: Vec<usize> = (0..WAVE).map(|i| (q + i) % pool).collect();
    let shard_twin = tw.traced.is_multiple_of(SHARD_TWIN_EVERY);
    tw.sample_docs(tracer, req, corpus_ids, q, &wave);
    let answer = Response::Result(resp.clone());
    tracer.twin(req, "wire.response_encode", || answer.to_bytes(ctx));
    if shard_twin {
        let (plan, policy, clock) = (
            FaultPlan::new(FaultConfig::default()),
            RetryPolicy::default(),
            VirtualClock::new(),
        );
        let fctx = FaultContext::new(&plan, &policy, &clock);
        let budget = Budget::unlimited();
        tracer
            .twin(req, "cloud.shard", || {
                server.search_batched(&[(cap, Deadline::NEVER, &budget)], &fctx, 0)
            })
            .expect("pool capabilities search");
    }
}
