//! `wave_shard_n10`: one closed-loop caller submitting waves of
//! [`WAVE`] requests to a [`ShardRouter`] over [`SHARDS`] in-memory
//! shards (replication 1) at n = 10. Each wave draws its capabilities
//! Zipf(1.1) from the pool, so waves repeat capabilities (deduplicated by
//! the wave kernel) and the router's shared `PreparedCache` serves every
//! preparation once set-up has warmed it.

use crate::inputs::{corpus_digest, encrypt, ms_since, Base, HitLog, Mismatch, Oracle, Stream};
use crate::layers::{per_layer_metrics, Counters, TraceFacts, Twins};
use crate::stats::median;
use crate::trace::{Term, Tracer};
use crate::{note_failure, Args, E2e, Outcome, SHARDS, WAVE};
use apks_authz::SignedCapability;
use apks_cloud::{CloudServer, ShardConfig, ShardRouter, ShardedBatch};
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{Budget, Deadline, EncryptedIndex};
use apks_dataset::zipf::Zipf;
use apks_telemetry::MetricsRegistry;
use apks_wire::{
    encode_frame, FrameDecoder, Request, Response, SearchRequest, SearchResponse, Wire, WireCtx,
};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// Zipf exponent of capability popularity within the pool.
const ZIPF_S: f64 = 1.1;
/// Distinct capabilities in every wave: the most likely count of eight
/// Zipf(1.1) draws from 16. Waves are drawn Zipf and kept only with this
/// many distinct capabilities, so every wave does the same work and the
/// spread between runs is the system's, not the draw's.
const WAVE_DISTINCT: usize = 5;

/// The next wave: `WAVE` Zipf draws with exactly `distinct` different
/// capabilities.
fn draw_wave(zipf: &Zipf, rng: &mut StdRng, distinct: usize) -> Vec<usize> {
    loop {
        let qs: Vec<usize> = (0..WAVE).map(|_| zipf.sample(rng)).collect();
        let mut seen = qs.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() == distinct {
            return qs;
        }
    }
}

struct Deployment {
    base: Base,
    corpus: Vec<EncryptedIndex>,
    corpus_ids: Vec<u64>,
    gen_ms: Vec<f64>,
    upload_ms: Vec<f64>,
    /// Seconds from the first `gen_index` to the last upload acknowledged.
    load_s: f64,
    oracle: Oracle,
    router: ShardRouter,
    metrics: Arc<MetricsRegistry>,
}

fn no_faults() -> (FaultPlan, RetryPolicy) {
    (
        FaultPlan::new(FaultConfig::default()),
        RetryPolicy::default(),
    )
}

/// `requests` with `Deadline::NEVER` and the matching budget.
fn wave_requests<'a>(
    caps: &'a [SignedCapability],
    qs: &[usize],
    budgets: &'a [Budget],
) -> Vec<(&'a SignedCapability, Deadline, &'a Budget)> {
    qs.iter()
        .zip(budgets)
        .map(|(&q, b)| (&caps[q], Deadline::NEVER, b))
        .collect()
}

impl Deployment {
    fn new(args: &Args) -> Deployment {
        let seed = args.seed;
        let base = Base::new(seed, args.workload.d(), args.sizes.docs, args.sizes.pool);
        let metrics = Arc::new(MetricsRegistry::new());
        let clock = Arc::new(VirtualClock::new());
        let shards = (0..SHARDS)
            .map(|_| {
                Arc::new(CloudServer::with_telemetry(
                    base.system.clone(),
                    base.pk().clone(),
                    base.ta.ibs_params().clone(),
                    metrics.clone(),
                    clock.clone(),
                ))
            })
            .collect();
        let router = ShardRouter::new(shards, ShardConfig::default(), clock, metrics.clone());
        router.register_authority("ta");
        let mut oracle = base.oracle();
        let load = Instant::now();
        let enc = encrypt(
            &base.system,
            base.pk(),
            &base.records,
            seed,
            Stream::Documents,
        );
        let mut upload_ms = Vec::with_capacity(enc.indexes.len());
        let mut corpus_ids = Vec::with_capacity(enc.indexes.len());
        for (idx, rec) in enc.indexes.iter().zip(&base.records) {
            let t = Instant::now();
            let id = router.upload(idx.clone());
            upload_ms.push(ms_since(t));
            oracle.insert(id, rec);
            corpus_ids.push(id);
        }
        let load_s = load.elapsed().as_secs_f64();
        // Warm the shared prepared cache the way a caller would: waves
        // with a zero pairing budget prepare every pool capability and
        // evaluate no document.
        let (plan, policy) = no_faults();
        let all: Vec<usize> = (0..base.caps.len()).collect();
        for chunk in all.chunks(WAVE) {
            let budgets: Vec<Budget> = chunk.iter().map(|_| Budget::pairings(0)).collect();
            router
                .search_batched(
                    &wave_requests(&base.caps, chunk, &budgets),
                    &plan,
                    &policy,
                    0,
                )
                .expect("pool capabilities are admitted");
        }
        Deployment {
            base,
            corpus: enc.indexes,
            corpus_ids,
            gen_ms: enc.gen_ms,
            upload_ms,
            load_s,
            oracle,
            router,
            metrics,
        }
    }
}

/// Per-traced-wave measurements beyond the span medians.
#[derive(Default)]
struct WaveTwins {
    /// Slowest shard's `CloudServer::search_batched` per wave, ms.
    straggler_ms: Vec<f64>,
    /// Framed request plus response bytes of the wave's first query.
    frame_bytes: Vec<f64>,
}

/// Runs `wave_shard_n10`.
pub fn run(args: &Args) -> Result<Outcome, Mismatch> {
    let mut e2e = E2e::default();
    let mut report = Vec::new();
    let mut dep = None;
    for _ in 0..args.sizes.setups {
        drop(dep.take());
        let t = Instant::now();
        let d = Deployment::new(args);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        e2e.ingest_docs += d.corpus.len() as f64;
        e2e.ingest_s += d.load_s;
        e2e.upload_ms.extend_from_slice(&d.upload_ms);
        dep = Some(d);
    }
    let Deployment {
        base,
        corpus,
        corpus_ids,
        gen_ms,
        oracle,
        router,
        metrics,
        ..
    } = dep.expect("at least one set-up");
    let params = base.system.params().clone();
    let ctx = WireCtx::new(params.clone());
    report.push(format!(
        "corpus: n={} docs={} shards={SHARDS} pool={} wave={WAVE} digest={}",
        base.system.n(),
        corpus.len(),
        base.caps.len(),
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
    let mut wave_twins = WaveTwins::default();

    let zipf = Zipf::new(base.caps.len(), ZIPF_S);
    let mut schedule = crate::inputs::rng(args.seed, Stream::Schedule, 0);
    let distinct = WAVE_DISTINCT.min(base.caps.len());
    let (plan, policy) = no_faults();
    let mut hits = HitLog::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counters = Counters::default();
    let (mut waves, mut evaluations) = (0f64, 0f64);
    let mut traced_ms = Vec::new();

    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        let round_start = Instant::now();
        let traced = args.trace && round % 2 == 1;
        let qs = draw_wave(&zipf, &mut schedule, distinct);
        let budgets: Vec<Budget> = qs.iter().map(|_| Budget::unlimited()).collect();
        let requests = wave_requests(&base.caps, &qs, &budgets);
        let before = Counters::read(&metrics.snapshot());
        attempted += WAVE as u64;
        let t = Instant::now();
        let res = if traced {
            let root = tracer.open(round, "wave", None);
            let res = router.search_batched(&requests, &plan, &policy, 0);
            tracer.close(root);
            res
        } else {
            router.search_batched(&requests, &plan, &policy, 0)
        };
        let ms = ms_since(t);
        counters.accumulate(before, Counters::read(&metrics.snapshot()));
        waves += 1.0;
        let batch = match res {
            Ok(batch) => batch,
            Err(e) => {
                failed += WAVE as u64 - 1;
                note_failure(&mut report, &mut failed, format!("wave rejected: {e}"));
                round += 1;
                continue;
            }
        };
        for (&q, scan) in qs.iter().zip(&batch.results) {
            if scan.stats.degraded || !scan.unscanned.is_empty() || !scan.faulted.is_empty() {
                note_failure(
                    &mut report,
                    &mut failed,
                    format!("degraded answer: {:?}", scan.stats),
                );
                continue;
            }
            hits.record(q, &oracle.check(q, &scan.matches)?);
            evaluations += scan.stats.scanned as f64;
            if traced {
                traced_ms.push(ms);
            } else {
                e2e.query_ms.push(ms);
                e2e.docs_evaluated += scan.stats.scanned as f64;
            }
        }
        if let (true, Some(tw)) = (traced, twins.as_mut()) {
            trace_wave(
                tw,
                &mut wave_twins,
                &mut tracer,
                &ctx,
                &router,
                &base,
                &qs,
                &batch,
                &corpus_ids,
                round,
            );
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
            let terms = [
                Term::of(&tracer, "authz.verify", (WAVE * SHARDS) as f64),
                Term::of(
                    &tracer,
                    "core.prepare",
                    (counters.prepare_calls - counters.prepare_hits) / waves,
                ),
                Term::of(&tracer, "core.wave", counters.wave_docs / waves),
            ];
            let facts = TraceFacts {
                counters,
                queries: waves * WAVE as f64,
                evaluations,
                gen_ms: &gen_ms,
                issue_ms: &base.issue_ms,
                store_shape: tw.store.shape(),
                shard_ms: median(&wave_twins.straggler_ms),
                server_ms_per_query: median(&tracer.total_us("wave")) / 1e3 / WAVE as f64,
                bytes_per_query: median(&wave_twins.frame_bytes),
                kernels: tw.kernels,
            };
            per_layer_metrics(args, &tracer, &facts, &terms, &e2e, &traced_ms, &mut report)
        }
    };
    let _ = std::fs::remove_dir_all(&twin_dir);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Twins of one traced wave: verification of each distinct capability,
/// the per-document layers against the wave's distinct capabilities,
/// the wire cost of the wave's first query had it been framed, and each
/// shard's `CloudServer::search_batched` on the same wave.
#[allow(clippy::too_many_arguments)]
fn trace_wave(
    tw: &mut Twins<'_>,
    wt: &mut WaveTwins,
    tracer: &mut Tracer,
    ctx: &WireCtx,
    router: &ShardRouter,
    base: &Base,
    qs: &[usize],
    batch: &ShardedBatch,
    corpus_ids: &[u64],
    req: u64,
) {
    let mut distinct: Vec<usize> = Vec::new();
    for &q in qs {
        if !distinct.contains(&q) {
            distinct.push(q);
        }
    }
    for &q in &distinct {
        tracer
            .twin(req, "authz.verify", || {
                router.shards()[0].admit(&base.caps[q])
            })
            .expect("pool capabilities are admitted");
    }
    tw.sample_docs(tracer, req, corpus_ids, distinct[0], &distinct);

    let search = Request::Search(SearchRequest {
        id: req,
        deadline_expires_at: u64::MAX,
        pairing_budget: u64::MAX,
        doc_cost_ticks: 0,
        capability: base.caps[qs[0]].clone(),
    });
    let req_bytes = tracer.twin(req, "wire.search_encode", || search.to_bytes(ctx));
    tracer
        .twin(req, "wire.search_decode", || {
            Request::from_bytes(ctx, &req_bytes)
        })
        .expect("search request decodes");
    let answer = Response::Result(SearchResponse::from_scan(req, &batch.results[0]));
    let resp_bytes = tracer.twin(req, "wire.response_encode", || answer.to_bytes(ctx));
    tracer
        .twin(req, "wire.response_decode", || {
            Response::from_bytes(ctx, &resp_bytes)
        })
        .expect("response decodes");
    let out = tracer
        .twin(req, "wire.frame_send", || encode_frame(&req_bytes))
        .expect("request fits a frame");
    let back = encode_frame(&resp_bytes).expect("response fits a frame");
    tracer
        .twin(req, "wire.frame_recv", || {
            let mut decoder = FrameDecoder::new();
            decoder.push(&back);
            decoder.next_frame()
        })
        .expect("response frame decodes");
    wt.frame_bytes.push((out.len() + back.len()) as f64);

    let (plan, policy) = no_faults();
    let budgets: Vec<Budget> = qs.iter().map(|_| Budget::unlimited()).collect();
    let requests = wave_requests(&base.caps, qs, &budgets);
    let mut straggler = 0f64;
    for shard in router.shards() {
        let clock = VirtualClock::new();
        let fctx = FaultContext::new(&plan, &policy, &clock);
        let t = Instant::now();
        tracer
            .twin(req, "cloud.shard", || {
                shard.search_batched(&requests, &fctx, 0)
            })
            .expect("pool capabilities search");
        straggler = straggler.max(ms_since(t));
    }
    wt.straggler_ms.push(straggler);
}
