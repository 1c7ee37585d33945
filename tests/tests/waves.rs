//! Batched wave-scan suite: the multi-capability scan engine against
//! its per-query ground truth.
//!
//! Three properties anchor batching, mirroring the overload suite:
//!
//! 1. **Equivalence** — with no deadlines, a wave's per-query results
//!    (matches, faulted docs, unscanned tails, bound flags, pairing
//!    accounting) are *exactly* those of sequential bounded scans, for
//!    arbitrary per-query budgets and fault schedules. Batching is an
//!    execution strategy, not a semantics change. A solo bounded scan
//!    is itself a wave of one, so both sides are checked against an
//!    independent test-only oracle rather than against each other.
//! 2. **Determinism** — same-seed batched overload runs are
//!    byte-identical, metrics snapshot included.
//! 3. **Degradation, not lies** — a batched loaded run may answer less
//!    than the unloaded per-query run, but never differently.

use apks_authz::TrustedAuthority;
use apks_cloud::{CloudServer, DegradedScan, SearchStats, WaveConfig};
use apks_core::fault::{DocFault, FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{
    ApksSystem, Budget, Capability, Deadline, FieldValue, Query, QueryPolicy, Record, Schema,
};
use apks_curve::CurveParams;
use apks_sim::overload::{run_overload, run_overload_batched, OverloadConfig, RequestOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small deployment: 5 documents, 3 distinct query shapes.
fn deployment() -> (CloudServer, Vec<apks_authz::SignedCapability>, usize) {
    let schema = Schema::builder()
        .flat_field("illness", 1)
        .flat_field("sex", 1)
        .build()
        .unwrap();
    let sys = ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(4242);
    let ta = TrustedAuthority::setup(sys, &mut rng);
    let server = CloudServer::new(
        ta.system().clone(),
        ta.public_key().clone(),
        ta.ibs_params().clone(),
    );
    server.register_authority("ta");
    for (illness, sex) in [
        ("flu", "female"),
        ("flu", "male"),
        ("diabetes", "female"),
        ("cancer", "male"),
        ("flu", "female"),
    ] {
        let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
        server.upload(
            ta.system()
                .gen_index(ta.public_key(), &rec, &mut rng)
                .unwrap(),
        );
    }
    let caps = [
        Query::new().equals("illness", "flu"),
        Query::new()
            .equals("illness", "flu")
            .equals("sex", "female"),
        Query::new().equals("illness", "cancer"),
    ]
    .into_iter()
    .map(|q| {
        ta.issue_capability(&q, &QueryPolicy::default(), &mut rng)
            .unwrap()
    })
    .collect();
    let n0 = ta.system().n() + 3;
    (server, caps, n0)
}

/// Test-only reference for one bounded scan, sharing none of the
/// server's scan kernel: a sequential per-document loop over the
/// unprepared `ApksSystem::search`, the fault plan's per-document rule
/// under the retry policy, and the deadline-then-budget charge of
/// `n + 3` pairings before each document.
fn oracle_scan(
    server: &CloudServer,
    cap: &Capability,
    ctx: &FaultContext<'_>,
    deadline: Deadline,
    budget: &Budget,
    doc_cost_ticks: u64,
) -> DegradedScan {
    let n0 = server.system().n() + 3;
    let ids = server.doc_ids();
    let mut out = DegradedScan {
        matches: Vec::new(),
        faulted: Vec::new(),
        unscanned: Vec::new(),
        stats: SearchStats::default(),
    };
    let mut evals = 0;
    for (pos, &id) in ids.iter().enumerate() {
        if deadline.expired_at(ctx.clock.now()) {
            out.stats.deadline_expired = true;
        } else if !budget.try_charge(n0 as u64) {
            out.stats.budget_exhausted = true;
        } else {
            ctx.clock.advance(doc_cost_ticks);
            // a flaky burst shorter than the attempt budget recovers
            // after `burst` backed-off retries; a longer one spends every
            // retry the policy allows and skips the document
            let evaluable = match ctx.plan.doc_fault(id) {
                None => true,
                Some(DocFault::Slow { ticks }) => {
                    ctx.clock.advance(ticks);
                    true
                }
                Some(DocFault::Flaky { burst }) => {
                    let retries = burst.min(ctx.policy.max_attempts - 1);
                    for retry in 0..retries {
                        ctx.clock.advance(ctx.policy.backoff(retry, id));
                    }
                    out.stats.retries += retries as usize;
                    burst < ctx.policy.max_attempts
                }
                Some(DocFault::Poisoned) => false,
            };
            let verdict = evaluable
                .then(|| server.document(id).ok().flatten())
                .flatten()
                .and_then(|idx| server.system().search(server.public_key(), cap, &idx).ok());
            match verdict {
                Some(hit) => {
                    evals += 1;
                    if hit {
                        out.matches.push(id);
                    }
                }
                None => out.faulted.push(id),
            }
            continue;
        }
        out.unscanned = ids[pos..].to_vec();
        break;
    }
    out.stats.scanned = ids.len() - out.unscanned.len();
    out.stats.matched = out.matches.len();
    out.stats.pairings = evals * n0;
    out.stats.faulted_docs = out.faulted.len();
    out.stats.unscanned_docs = out.unscanned.len();
    out.stats.degraded = !out.faulted.is_empty() || !out.unscanned.is_empty();
    out
}

/// Everything but the timing fields, which legitimately differ between
/// a batched wave (one clock charge per document) and solo scans.
fn untimed(d: &DegradedScan) -> DegradedScan {
    DegradedScan {
        stats: SearchStats {
            prepare_micros: 0,
            scan_micros: 0,
            ..d.stats
        },
        ..d.clone()
    }
}

/// One equivalence input: a fault schedule plus, per query, the index
/// of its capability in [`deployment`]'s list and its budget in whole
/// documents (6 means unlimited).
#[derive(Debug)]
struct WaveCase {
    fault_seed: u64,
    poisoned: u32,
    flaky: u32,
    queries: Vec<(usize, u64)>,
}

/// The equivalence property on one input: every query's solo bounded
/// scan, and its slot in one batched wave of all of them, settle
/// exactly as the oracle does — matches, faulted documents, unscanned
/// tails, retries, bound flags and pairing accounting. Returns the
/// wave's results.
fn check_wave_against_oracle(case: &WaveCase) -> Result<Vec<DegradedScan>, TestCaseError> {
    let (server, caps, n0) = deployment();
    let plan = FaultPlan::new(FaultConfig {
        seed: case.fault_seed,
        poisoned_doc_permille: case.poisoned,
        flaky_doc_permille: case.flaky,
        ..FaultConfig::default()
    });
    let policy = RetryPolicy::default();
    let budget = |docs: u64| {
        if docs >= 6 {
            Budget::unlimited()
        } else {
            Budget::pairings(docs * n0 as u64)
        }
    };

    // each query alone, on its own clock: the oracle, then the server
    let mut oracle = Vec::new();
    for (i, &(c, docs)) in case.queries.iter().enumerate() {
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let reference = oracle_scan(
            &server,
            &caps[c].capability,
            &ctx,
            Deadline::NEVER,
            &budget(docs),
            7,
        );
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let solo = server
            .search_bounded(&caps[c], &ctx, Deadline::NEVER, &budget(docs), 7)
            .unwrap();
        prop_assert_eq!(untimed(&solo), untimed(&reference), "solo query {}", i);
        oracle.push(reference);
    }

    let clock = VirtualClock::new();
    let ctx = FaultContext::new(&plan, &policy, &clock);
    let budgets: Vec<Budget> = case.queries.iter().map(|&(_, d)| budget(d)).collect();
    let reqs: Vec<(&apks_authz::SignedCapability, Deadline, &Budget)> = case
        .queries
        .iter()
        .zip(&budgets)
        .map(|(&(c, _), b)| (&caps[c], Deadline::NEVER, b))
        .collect();
    let wave = server.search_batched(&reqs, &ctx, 7).unwrap();
    prop_assert_eq!(wave.len(), oracle.len());
    for (i, (w, o)) in wave.iter().zip(&oracle).enumerate() {
        prop_assert_eq!(untimed(w), untimed(o), "wave query {}", i);
    }

    // solo scans stay in the per-query ledger, the wave in its own
    let snap = server.metrics_snapshot();
    prop_assert_eq!(snap.counter("cloud.scans"), Some(case.queries.len() as u64));
    prop_assert_eq!(snap.counter("cloud.wave.scans"), Some(1));
    let exhausted = wave.iter().filter(|d| d.stats.budget_exhausted).count() as u64;
    prop_assert_eq!(
        snap.counter("cloud.wave.budget_exhausted").unwrap_or(0),
        exhausted
    );
    Ok(wave)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary fault schedules and per-query budgets (including
    /// budgets that die mid-scan), a batched wave settles every query
    /// exactly as a sequence of solo bounded scans would, and both
    /// exactly as the oracle does. Only wall-clock style timing may
    /// differ (the wave charges service time once per document).
    #[test]
    fn wave_results_equal_sequential_bounded_scans(
        fault_seed in 0u64..1000,
        poisoned in 0u32..500,
        flaky in 0u32..400,
        // budget in whole documents; 6 means unlimited
        budget_docs in prop::collection::vec(0u64..7, 1..6),
    ) {
        let queries = budget_docs
            .iter()
            .enumerate()
            .map(|(i, &d)| (i % 3, d))
            .collect();
        check_wave_against_oracle(&WaveCase { fault_seed, poisoned, flaky, queries })?;
    }
}

/// The equivalence property on a pinned input: three distinct
/// capabilities over a flaky and poisoned corpus, the middle one
/// starved to two documents' budget. The wave must degrade that query
/// alone, exactly as its solo scan and the oracle do.
#[test]
fn wave_results_equal_oracle_on_pinned_inputs() {
    let wave = check_wave_against_oracle(&WaveCase {
        fault_seed: 31,
        poisoned: 400,
        flaky: 300,
        queries: vec![(1, 6), (0, 2), (2, 6)],
    })
    .unwrap();
    assert!(
        wave[1].stats.budget_exhausted && !wave[1].unscanned.is_empty(),
        "the starved query degrades mid-wave"
    );
}

#[test]
fn same_seed_batched_overload_runs_are_byte_identical() {
    let cfg = OverloadConfig {
        seed: 21,
        ..OverloadConfig::default()
    };
    let wave = WaveConfig::new(4, 60);
    let a = run_overload_batched(&cfg, &wave).unwrap();
    let b = run_overload_batched(&cfg, &wave).unwrap();
    assert_eq!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "same-seed batched runs must replay exactly, metrics included"
    );
    assert!(a.admitted > 0, "some requests must be served");
    assert!(
        a.metrics.counter("cloud.wave.scans").unwrap_or(0) > 0,
        "batched mode must actually run waves"
    );
    assert!(
        a.metrics.counter("cloud.scans").is_none(),
        "batched mode must not touch the solo-scan ledger"
    );
}

#[test]
fn batched_loaded_hits_are_a_subset_of_unloaded_per_query_hits() {
    let cfg = OverloadConfig::default();
    let loaded = run_overload_batched(&cfg, &WaveConfig::default()).unwrap();
    let unloaded = run_overload(&cfg.unloaded()).unwrap();
    assert_eq!(loaded.requests.len(), unloaded.requests.len());
    assert!(
        loaded.shed_total() > 0,
        "the default burst must still overload the queue in batched mode"
    );
    for (l, u) in loaded.requests.iter().zip(&unloaded.requests) {
        assert_eq!(l.id, u.id);
        assert_eq!(
            l.class, u.class,
            "both runs must see the identical request stream"
        );
        let RequestOutcome::Completed { hits: full, .. } = &u.outcome else {
            panic!("unloaded request {} was not completed", u.id);
        };
        match &l.outcome {
            RequestOutcome::Completed { hits, .. } => {
                assert!(
                    hits.iter().all(|h| full.contains(h)),
                    "request {}: batched hits {hits:?} not a subset of {full:?}",
                    l.id
                );
            }
            RequestOutcome::ShedQueueFull | RequestOutcome::ShedBrownout { .. } => {}
        }
    }
}

/// Wave batching amortizes the per-document service charge: with no
/// bounds cutting scans short, a depth-N wave finishes the corpus in
/// roughly the virtual time one query takes alone.
#[test]
fn unbounded_batched_run_spends_far_fewer_ticks_than_per_query() {
    let cfg = OverloadConfig::default().unloaded();
    let wave = WaveConfig::new(8, 100);
    let per_query = run_overload(&cfg).unwrap();
    let batched = run_overload_batched(&cfg, &wave).unwrap();
    // identical answers, request for request
    for (b, p) in batched.requests.iter().zip(&per_query.requests) {
        assert_eq!(
            b.outcome, p.outcome,
            "unbounded batched request {} must answer exactly as per-query",
            b.id
        );
    }
    assert!(
        batched.virtual_ticks * 2 < per_query.virtual_ticks,
        "batching must amortize scan time: {} vs {} ticks",
        batched.virtual_ticks,
        per_query.virtual_ticks
    );
}
