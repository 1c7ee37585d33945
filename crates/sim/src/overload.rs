//! Overload scenario: Zipf-bursty arrivals against a bounded server.
//!
//! The chaos suite (PR 2) asks "does the deployment survive faults?";
//! this module asks "does it survive *load*?". A seeded schedule of
//! bursty arrivals — query popularity Zipf-distributed over a small
//! catalog of shapes, every k-th request a priority revocation probe —
//! is driven through the full overload-protection stack: the admission
//! controller sheds at the queue bound and browns out expensive shapes
//! as occupancy climbs, and every admitted request carries a
//! [`Deadline`] and pairing [`Budget`] into the bounded corpus scan.
//!
//! Everything runs on the deployment's virtual clock with a
//! pre-generated arrival schedule, so a same-seed run reproduces every
//! decision — and the metrics snapshot — byte for byte. The *unloaded*
//! twin of a config (same seed, same schedule, protections disabled)
//! serves as ground truth: a browned-out run may answer less, but never
//! differently.

use apks_authz::{AuthzError, SignedCapability, TrustedAuthority};
use apks_cloud::{
    AdmissionConfig, AdmissionController, AdmissionDecision, CloudServer, QueryShape, RequestClass,
    ShedReason, WaveBatcher, WaveConfig,
};
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{
    ApksSystem, Budget, Deadline, FieldValue, Hierarchy, Query, QueryPolicy, Record, Schema,
};
use apks_curve::CurveParams;
use apks_dataset::zipf::Zipf;
use apks_proxy::ProxyChain;
use apks_telemetry::{Clock, MetricsRegistry, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Overload scenario knobs. All times are virtual ticks.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Corpus size (records ingested through the proxy before load).
    pub docs: usize,
    /// Total search arrivals.
    pub arrivals: usize,
    /// Arrivals per burst (all land on the same tick).
    pub burst_size: usize,
    /// Ticks between burst starts.
    pub burst_gap_ticks: u64,
    /// Zipf skew of query popularity over the catalog.
    pub zipf_s: f64,
    /// Every k-th arrival is a priority revocation probe (0 = none).
    pub priority_every: usize,
    /// Modeled service time charged per evaluated document.
    pub doc_cost_ticks: u64,
    /// Modeled cost of one admission decision (the time-to-shed).
    pub admission_cost_ticks: u64,
    /// Per-request deadline, relative to arrival (`u64::MAX` = none).
    pub deadline_ticks: u64,
    /// Per-request pairing budget (`u64::MAX` = unlimited).
    pub pairing_budget: u64,
    /// Admission queue bound + brown-out ladder.
    pub admission: AdmissionConfig,
    /// Fault schedule for the corpus ingest (exercises the proxy
    /// breakers); `None` ingests cleanly.
    pub ingest_faults: Option<FaultConfig>,
    /// RNG seed (corpus, capabilities, schedule).
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            docs: 6,
            arrivals: 32,
            burst_size: 8,
            burst_gap_ticks: 400,
            zipf_s: 1.1,
            priority_every: 7,
            doc_cost_ticks: 25,
            admission_cost_ticks: 1,
            deadline_ticks: 120,
            pairing_budget: u64::MAX,
            admission: AdmissionConfig::new(4, 500, 750, 900),
            ingest_faults: None,
            seed: 1,
        }
    }
}

impl OverloadConfig {
    /// The unloaded twin: same seed, same corpus, same arrival
    /// schedule, but no deadline, no budget, and a queue so deep the
    /// ladder never engages. Its results are the ground truth the
    /// brown-out subset assertions compare against.
    pub fn unloaded(&self) -> OverloadConfig {
        OverloadConfig {
            deadline_ticks: u64::MAX,
            pairing_budget: u64::MAX,
            admission: AdmissionConfig::new(self.arrivals.max(1) * 2, 1001, 1001, 1001),
            ..self.clone()
        }
    }
}

/// What happened to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Refused at a full queue: no scan work at all.
    ShedQueueFull,
    /// Refused by the brown-out ladder at the given level.
    ShedBrownout {
        /// Ladder level (1–3) in force at the decision.
        level: u8,
    },
    /// Admitted and scanned (possibly cut short).
    Completed {
        /// Matching document ids (sorted, scan order).
        hits: Vec<u64>,
        /// True iff the deadline cut the scan short.
        deadline_expired: bool,
        /// True iff the pairing budget ran out mid-scan.
        budget_exhausted: bool,
    },
}

/// One arrival's ledger entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Arrival ordinal (also the admission [`apks_cloud::RequestId`]).
    pub id: u64,
    /// Scheduled arrival tick.
    pub arrival: u64,
    /// Stable class label (`priority`, `equality`, …).
    pub class: &'static str,
    /// Decision + result.
    pub outcome: RequestOutcome,
}

/// Aggregated outcome of an overload run.
#[derive(Clone, Debug, Default)]
pub struct OverloadReport {
    /// Requests in the schedule.
    pub arrivals: usize,
    /// Requests admitted past the controller.
    pub admitted: usize,
    /// Requests shed at the queue bound.
    pub shed_queue_full: usize,
    /// Requests shed by the brown-out ladder.
    pub shed_brownout: usize,
    /// Normal requests displaced by arriving priority requests.
    pub displaced: usize,
    /// Admitted requests whose deadline cut the scan short.
    pub deadline_expired: usize,
    /// Admitted requests whose pairing budget ran out.
    pub budget_exhausted: usize,
    /// Documents left unscanned across all cut-short scans.
    pub unscanned_docs: usize,
    /// Highest brown-out level observed.
    pub max_brownout_level: u8,
    /// Corpus size actually stored (ingest faults may lose documents).
    pub docs_stored: usize,
    /// Final virtual-clock reading.
    pub virtual_ticks: u64,
    /// Wall-clock microseconds spent inside the server's scan calls —
    /// the measured twin of the scan share of `virtual_ticks` (0 on the
    /// framed path). Differs run to run, so it stays out of
    /// [`OverloadReport::canonical_bytes`].
    pub scan_wall_micros: u64,
    /// Per-request ledger, in arrival order.
    pub requests: Vec<RequestRecord>,
    /// Proxy breaker states after the run (`(replica id, state label)`).
    pub breaker_states: Vec<(String, &'static str)>,
    /// The deployment-wide metrics snapshot (admission counters, scan
    /// counters, `overload.*` latency histograms). Deterministic — part
    /// of [`OverloadReport::canonical_bytes`].
    pub metrics: MetricsSnapshot,
}

impl OverloadReport {
    /// Total shed requests.
    pub fn shed_total(&self) -> usize {
        self.shed_queue_full + self.shed_brownout
    }

    /// p99 upper bound of the time-to-shed histogram (ticks).
    pub fn time_to_shed_p99(&self) -> u64 {
        self.metrics
            .histogram("overload.time_to_shed")
            .map(|h| h.quantile_upper_bound(0.99))
            .unwrap_or(0)
    }

    /// p99 upper bound of admitted requests' arrival-to-result latency
    /// (ticks).
    pub fn scan_latency_p99(&self) -> u64 {
        self.metrics
            .histogram("overload.scan_latency")
            .map(|h| h.quantile_upper_bound(0.99))
            .unwrap_or(0)
    }

    /// Canonical byte encoding of every deterministic field, in a fixed
    /// order. The overload chaos tests assert byte-identity of this
    /// encoding (metrics snapshot included) across same-seed runs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.ledger_bytes();
        out.extend_from_slice(&self.metrics.canonical_bytes());
        out
    }

    /// The request-ledger portion of [`OverloadReport::canonical_bytes`]
    /// — everything except the metrics snapshot. The framed-path
    /// equivalence test compares this across transports (the framed run
    /// adds `wire.*` counters, so full snapshots legitimately differ
    /// while the ledgers must not).
    pub fn ledger_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [
            self.arrivals as u64,
            self.admitted as u64,
            self.shed_queue_full as u64,
            self.shed_brownout as u64,
            self.displaced as u64,
            self.deadline_expired as u64,
            self.budget_exhausted as u64,
            self.unscanned_docs as u64,
            self.max_brownout_level as u64,
            self.docs_stored as u64,
            self.virtual_ticks,
            self.requests.len() as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for r in &self.requests {
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.arrival.to_le_bytes());
            out.extend_from_slice(r.class.as_bytes());
            match &r.outcome {
                RequestOutcome::ShedQueueFull => out.push(1),
                RequestOutcome::ShedBrownout { level } => {
                    out.push(2);
                    out.push(*level);
                }
                RequestOutcome::Completed {
                    hits,
                    deadline_expired,
                    budget_exhausted,
                } => {
                    out.push(3);
                    out.push(u8::from(*deadline_expired));
                    out.push(u8::from(*budget_exhausted));
                    out.extend_from_slice(&(hits.len() as u64).to_le_bytes());
                    for &h in hits {
                        out.extend_from_slice(&h.to_le_bytes());
                    }
                }
            }
        }
        for (id, state) in &self.breaker_states {
            out.extend_from_slice(id.as_bytes());
            out.extend_from_slice(state.as_bytes());
        }
        out
    }
}

/// Index of the priority entry in the capability catalog.
const PRIORITY: usize = 5;

pub(crate) struct CatalogEntry {
    pub(crate) label: &'static str,
    pub(crate) class: RequestClass,
    pub(crate) cap: SignedCapability,
}

/// The provisioned deployment every overload variant runs against:
/// corpus ingested, catalog issued, schedule pre-generated.
pub(crate) struct World {
    pub(crate) server: CloudServer,
    pub(crate) chain: ProxyChain,
    pub(crate) catalog: Vec<CatalogEntry>,
    /// `(arrival tick, catalog entry)` per request, in arrival order.
    pub(crate) schedule: Vec<(u64, usize)>,
    pub(crate) docs_stored: usize,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) retry: RetryPolicy,
}

/// Builds the deployment, ingests the corpus through the proxy chain,
/// issues the capability catalog, and pre-generates the arrival
/// schedule — everything both the per-query and the batched event
/// loops share, so a config and its batched twin see the identical
/// request stream.
pub(crate) fn build_world(config: &OverloadConfig) -> Result<World, AuthzError> {
    // -- deployment: small schema with one flat and one deep field ------
    let schema = Schema::builder()
        .flat_field("illness", 2)
        .hierarchical_field("age", Hierarchy::numeric(0, 15, 2), 4)
        .build()?;
    let system = ApksSystem::new(CurveParams::fast(), schema);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let metrics = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());

    let (pk, mk) = system.setup_plus(&mut rng);
    let mut chain = ProxyChain::provision_replicated_with_metrics(
        &mk,
        1,
        1,
        10_000,
        1_000_000,
        Arc::clone(&metrics),
        &mut rng,
    );
    chain.set_breaker_config(apks_proxy::BreakerConfig::default());
    let ta = TrustedAuthority::from_parts(system.clone(), pk, mk.inner, &mut rng);
    let pk = ta.public_key().clone();

    let server = CloudServer::with_telemetry(
        system.clone(),
        pk.clone(),
        ta.ibs_params().clone(),
        Arc::clone(&metrics),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    server.register_authority("ta");

    // -- capability catalog, Zipf-popular head first --------------------
    let policy = QueryPolicy::permissive();
    let issue = |q: &Query, rng: &mut StdRng| ta.issue_capability(q, &policy, rng);
    let catalog = [
        (
            "equality",
            RequestClass::Normal(QueryShape::Equality),
            Query::new().equals("illness", "flu"),
        ),
        (
            "equality",
            RequestClass::Normal(QueryShape::Equality),
            Query::new().equals("illness", "cold"),
        ),
        (
            "subset",
            RequestClass::Normal(QueryShape::Subset),
            Query::new().one_of("illness", ["flu", "cold"]),
        ),
        (
            "shallow-range",
            RequestClass::Normal(QueryShape::ShallowRange),
            Query::new().range("age", 0, 7),
        ),
        (
            "deep-range",
            RequestClass::Normal(QueryShape::DeepRange),
            Query::new().range("age", 2, 9),
        ),
        // the revocation-freshness probe: must never be browned out
        (
            "priority",
            RequestClass::Priority,
            Query::new().equals("illness", "asthma"),
        ),
    ];
    let catalog: Vec<CatalogEntry> = catalog
        .into_iter()
        .map(|(label, class, q)| {
            Ok(CatalogEntry {
                label,
                class,
                cap: issue(&q, &mut rng)?,
            })
        })
        .collect::<Result<_, AuthzError>>()?;

    // -- corpus ingest through the proxy chain --------------------------
    let retry = RetryPolicy::default();
    let ingest_plan = config.ingest_faults.clone().map(FaultPlan::new);
    let mut docs_stored = 0;
    for i in 0..config.docs {
        let illness = ["flu", "cold", "asthma"][i % 3];
        let age = (i * 5 % 16) as i64;
        let record = Record::new(vec![FieldValue::text(illness), FieldValue::num(age)]);
        let partial = system
            .gen_index(&pk, &record, &mut rng)
            .map_err(AuthzError::Apks)?;
        let full = match &ingest_plan {
            Some(plan) => {
                let ctx = FaultContext::new(plan, &retry, &clock);
                match chain.ingest_resilient(&system, "owner", &partial, &ctx, i as u64) {
                    Ok((full, _)) => full,
                    Err(apks_proxy::ProxyError::Unavailable { .. }) => continue,
                    Err(e) => panic!("overload ingest stays under the rate limit: {e}"),
                }
            }
            None => chain
                .ingest(&system, "owner", i as u64, &partial)
                .expect("overload ingest stays under the rate limit"),
        };
        server.upload(full);
        docs_stored += 1;
    }

    // -- pre-generated arrival schedule ---------------------------------
    // Generated before execution so a config and its unloaded twin see
    // the identical request stream: same ticks, same classes, same
    // catalog entries, request for request.
    let zipf = Zipf::new(PRIORITY, config.zipf_s);
    let schedule: Vec<(u64, usize)> = (0..config.arrivals)
        .map(|i| {
            let tick = (i / config.burst_size.max(1)) as u64 * config.burst_gap_ticks;
            let entry = if config.priority_every > 0 && (i + 1) % config.priority_every == 0 {
                PRIORITY
            } else {
                zipf.sample(&mut rng)
            };
            (tick, entry)
        })
        .collect();

    Ok(World {
        server,
        chain,
        catalog,
        schedule,
        docs_stored,
        metrics,
        clock,
        retry,
    })
}

/// Runs the scenario and returns its report.
///
/// # Errors
///
/// Propagates setup/issuance failures (none for valid configs).
pub fn run_overload(config: &OverloadConfig) -> Result<OverloadReport, AuthzError> {
    let World {
        server,
        chain,
        catalog,
        schedule,
        docs_stored,
        metrics,
        clock,
        retry,
    } = build_world(config)?;

    // -- event loop: serial server, admission before any scan work ------
    let admission = AdmissionController::new(config.admission, Arc::clone(&metrics));
    let scan_plan = FaultPlan::new(FaultConfig::default());
    let ctx = FaultContext::new(&scan_plan, &retry, &clock);
    let shed_hist = metrics.histogram("overload.time_to_shed");
    let latency_hist = metrics.histogram("overload.scan_latency");

    let mut report = OverloadReport {
        arrivals: config.arrivals,
        docs_stored,
        ..OverloadReport::default()
    };
    // (finish tick, id): admitted requests hold their queue slot until
    // their finish tick has passed in *arrival* time — that lag is what
    // builds the backlog a burst must shed against.
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
    for (i, &(tick, entry)) in schedule.iter().enumerate() {
        let id = i as u64;
        while let Some(&(finish, done)) = inflight.front() {
            if finish > tick {
                break;
            }
            admission.complete(done);
            inflight.pop_front();
        }
        if clock.now() < tick {
            clock.advance(tick - clock.now());
        }
        clock.advance(config.admission_cost_ticks);
        let entry = &catalog[entry];
        let outcome = match admission.offer(id, entry.class) {
            AdmissionDecision::Shed { reason } => {
                shed_hist.record(config.admission_cost_ticks);
                match reason {
                    ShedReason::QueueFull => {
                        report.shed_queue_full += 1;
                        RequestOutcome::ShedQueueFull
                    }
                    ShedReason::Brownout { level } => {
                        report.shed_brownout += 1;
                        report.max_brownout_level = report.max_brownout_level.max(level);
                        RequestOutcome::ShedBrownout { level }
                    }
                }
            }
            AdmissionDecision::Admitted {
                brownout_level,
                displaced,
            } => {
                report.max_brownout_level = report.max_brownout_level.max(brownout_level);
                if let Some(d) = displaced {
                    report.displaced += 1;
                    inflight.retain(|&(_, q)| q != d);
                }
                report.admitted += 1;
                let deadline = if config.deadline_ticks == u64::MAX {
                    Deadline::NEVER
                } else {
                    Deadline::at(tick.saturating_add(config.deadline_ticks))
                };
                let budget = Budget::pairings(config.pairing_budget);
                let wall = Instant::now();
                let d = server
                    .search_bounded(&entry.cap, &ctx, deadline, &budget, config.doc_cost_ticks)
                    .expect("registered issuer");
                report.scan_wall_micros += wall.elapsed().as_micros() as u64;
                report.deadline_expired += usize::from(d.stats.deadline_expired);
                report.budget_exhausted += usize::from(d.stats.budget_exhausted);
                report.unscanned_docs += d.stats.unscanned_docs;
                latency_hist.record(clock.now().saturating_sub(tick));
                inflight.push_back((clock.now(), id));
                RequestOutcome::Completed {
                    hits: d.matches,
                    deadline_expired: d.stats.deadline_expired,
                    budget_exhausted: d.stats.budget_exhausted,
                }
            }
        };
        report.requests.push(RequestRecord {
            id,
            arrival: tick,
            class: entry.label,
            outcome,
        });
    }

    report.virtual_ticks = clock.now();
    report.breaker_states = chain
        .breaker_states(clock.now())
        .into_iter()
        .map(|(id, state)| (id, state.label()))
        .collect();
    report.metrics = metrics.snapshot();
    Ok(report)
}

/// Runs the scenario with **micro-batched admission**: admitted
/// requests coalesce in a [`WaveBatcher`] and execute as one
/// [`CloudServer::search_batched`] wave when the batch fills, when the
/// oldest request has waited out the coalescing window, or when the
/// schedule drains. Shedding is identical to [`run_overload`] — the
/// admission controller decides before batching — and every request
/// still carries its own [`Deadline`] (anchored at *arrival*, so time
/// spent coalescing counts against it) and pairing [`Budget`] into the
/// wave. The same seed sees the same corpus, catalog, and arrival
/// stream as the per-query loop, so reports stay comparable and
/// same-seed batched runs reproduce byte for byte.
///
/// # Errors
///
/// Propagates setup/issuance failures (none for valid configs).
pub fn run_overload_batched(
    config: &OverloadConfig,
    wave: &WaveConfig,
) -> Result<OverloadReport, AuthzError> {
    let World {
        server,
        chain,
        catalog,
        schedule,
        docs_stored,
        metrics,
        clock,
        retry,
    } = build_world(config)?;

    let admission = AdmissionController::new(config.admission, Arc::clone(&metrics));
    let batcher = WaveBatcher::new(*wave, Arc::clone(&metrics));
    let scan_plan = FaultPlan::new(FaultConfig::default());
    let ctx = FaultContext::new(&scan_plan, &retry, &clock);
    let shed_hist = metrics.histogram("overload.time_to_shed");
    let latency_hist = metrics.histogram("overload.scan_latency");

    let mut report = OverloadReport {
        arrivals: config.arrivals,
        docs_stored,
        ..OverloadReport::default()
    };
    // Admitted-but-unscanned queries parked in the batcher, keyed by
    // request id: their bounds were fixed at admission.
    struct Parked {
        entry: usize,
        arrival: u64,
        deadline: Deadline,
        budget: Budget,
    }
    let mut parked: Vec<Option<Parked>> = (0..config.arrivals).map(|_| None).collect();
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; config.arrivals];
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();

    // Executes one wave: scans all members in a single batched pass and
    // settles their ledgers. Returns the members' `(finish, id)` pairs.
    let run_wave = |ids: &[u64],
                    parked: &mut Vec<Option<Parked>>,
                    outcomes: &mut Vec<Option<RequestOutcome>>,
                    report: &mut OverloadReport|
     -> Vec<(u64, u64)> {
        let members: Vec<(u64, Parked)> = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    parked[id as usize]
                        .take()
                        .expect("wave members were parked"),
                )
            })
            .collect();
        let reqs: Vec<(&SignedCapability, Deadline, &Budget)> = members
            .iter()
            .map(|(_, p)| (&catalog[p.entry].cap, p.deadline, &p.budget))
            .collect();
        let wall = Instant::now();
        let scans = server
            .search_batched(&reqs, &ctx, config.doc_cost_ticks)
            .expect("registered issuer");
        report.scan_wall_micros += wall.elapsed().as_micros() as u64;
        let finish = clock.now();
        let mut done = Vec::with_capacity(members.len());
        for ((id, p), d) in members.iter().zip(scans) {
            report.deadline_expired += usize::from(d.stats.deadline_expired);
            report.budget_exhausted += usize::from(d.stats.budget_exhausted);
            report.unscanned_docs += d.stats.unscanned_docs;
            latency_hist.record(finish.saturating_sub(p.arrival));
            outcomes[*id as usize] = Some(RequestOutcome::Completed {
                hits: d.matches,
                deadline_expired: d.stats.deadline_expired,
                budget_exhausted: d.stats.budget_exhausted,
            });
            done.push((finish, *id));
        }
        done
    };

    for (i, &(tick, entry)) in schedule.iter().enumerate() {
        let id = i as u64;
        while let Some(&(finish, done)) = inflight.front() {
            if finish > tick {
                break;
            }
            admission.complete(done);
            inflight.pop_front();
        }
        if clock.now() < tick {
            clock.advance(tick - clock.now());
        }
        // waves whose oldest member has out-waited the window go first
        while let Some(ids) = batcher.flush_due(tick) {
            inflight.extend(run_wave(&ids, &mut parked, &mut outcomes, &mut report));
        }
        clock.advance(config.admission_cost_ticks);
        let entry_ref = &catalog[entry];
        match admission.offer(id, entry_ref.class) {
            AdmissionDecision::Shed { reason } => {
                shed_hist.record(config.admission_cost_ticks);
                outcomes[i] = Some(match reason {
                    ShedReason::QueueFull => {
                        report.shed_queue_full += 1;
                        RequestOutcome::ShedQueueFull
                    }
                    ShedReason::Brownout { level } => {
                        report.shed_brownout += 1;
                        report.max_brownout_level = report.max_brownout_level.max(level);
                        RequestOutcome::ShedBrownout { level }
                    }
                });
            }
            AdmissionDecision::Admitted {
                brownout_level,
                displaced,
            } => {
                report.max_brownout_level = report.max_brownout_level.max(brownout_level);
                if let Some(d) = displaced {
                    report.displaced += 1;
                    inflight.retain(|&(_, q)| q != d);
                }
                report.admitted += 1;
                let deadline = if config.deadline_ticks == u64::MAX {
                    Deadline::NEVER
                } else {
                    Deadline::at(tick.saturating_add(config.deadline_ticks))
                };
                parked[i] = Some(Parked {
                    entry,
                    arrival: tick,
                    deadline,
                    budget: Budget::pairings(config.pairing_budget),
                });
                if let Some(ids) = batcher.enqueue(id, tick) {
                    inflight.extend(run_wave(&ids, &mut parked, &mut outcomes, &mut report));
                }
            }
        }
    }
    // the schedule is drained: whatever is still coalescing runs now
    if let Some(ids) = batcher.flush_all() {
        inflight.extend(run_wave(&ids, &mut parked, &mut outcomes, &mut report));
    }
    for (_, done) in inflight {
        admission.complete(done);
    }

    report.requests = schedule
        .iter()
        .enumerate()
        .map(|(i, &(tick, entry))| RequestRecord {
            id: i as u64,
            arrival: tick,
            class: catalog[entry].label,
            outcome: outcomes[i].take().expect("every request was settled"),
        })
        .collect();
    report.virtual_ticks = clock.now();
    report.breaker_states = chain
        .breaker_states(clock.now())
        .into_iter()
        .map(|(id, state)| (id, state.label()))
        .collect();
    report.metrics = metrics.snapshot();
    Ok(report)
}
