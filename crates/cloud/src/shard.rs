//! Scatter-gather search across simulated cloud shards.
//!
//! The paper's cloud is one logical server; at 10M documents a single
//! scan loop is a modeling fiction. [`ShardRouter`] splits the corpus
//! round-robin across N [`CloudServer`] shards and fans each
//! [`ShardRouter::search_batched`] wave out to all of them, merging the
//! per-shard [`DegradedScan`]s **in shard order** — never sorting, so
//! the merged result is a deterministic function of the corpus and the
//! bounds.
//!
//! # Clock models
//!
//! Scans are timed on the deployment's shared [`VirtualClock`], under
//! one of two models:
//!
//! * [`ClockModel::Serial`] — shards scan one after another on the
//!   shared clock. This is the *oracle* model: with round-robin upload
//!   through the router, the merged results are equal — result sets
//!   and every accounting field — to a single-node
//!   [`CloudServer::search_batched`] over the corpus formed by
//!   concatenating the shard corpora in shard order, under the same
//!   deadlines and budgets. That holds because capability preparation
//!   never advances the virtual clock, budgets charge per document
//!   only, faults are a pure function of the document id, and the wave
//!   re-checks each query's bound before every document — a query cut
//!   in shard *s* enters shard *s+1* dead and contributes its whole
//!   tail to `unscanned` exactly as the single node would. The only
//!   fields outside the contract are the two measurement-frame timings
//!   (`prepare_micros`/`scan_micros`), which the merge reports as
//!   per-shard sums rather than one wave-wide reading.
//! * [`ClockModel::Parallel`] — every shard scans on a child clock
//!   forked at the scatter tick, and the shared clock advances by the
//!   **slowest** shard's elapsed time. This is the latency model: wave
//!   p99 is straggler-defined, which is what the sharded sim measures.
//!   It models concurrency on the virtual clock only: in wall time the
//!   partitions still run one after another, each using every core
//!   inside its own scan kernel. Per-shard threads are left out because
//!   a query's liveness and its budget carry from one partition into
//!   the next.
//!
//! # Stragglers and breakers
//!
//! A shard whose scan blows its queries' deadlines contributes a
//! degraded result (its tail explicitly in [`DegradedScan::unscanned`])
//! instead of hanging the gather, and records a failure on that shard's
//! [`CircuitBreaker`]. A shard whose breaker is open is skipped
//! outright: every query receives that shard's full corpus as
//! `unscanned`, accounted under `cloud.shard.breaker_skipped` — partial
//! results with explicit gaps, never silent loss.
//!
//! # Replication
//!
//! With [`ShardConfig::replication`] `R > 1` the shard list is read as
//! `len/R` **partitions** of `R` replicas each — partition `p`'s
//! replicas are `shards[p·R .. p·R+R]`, replica 0 the primary. Uploads
//! fan each document to all `R` replicas, so every replica of a
//! partition holds the identical corpus slice in identical scan order.
//! A wave scans **one** replica per partition: the first whose breaker
//! admits it, failing over to the next on an open breaker or a failed
//! [`CloudServer::probe`] (a replica whose store has crashed or become
//! unreachable). Because replicas are identical and fault schedules are pure
//! functions of document ids, the merged results are byte-equal to an
//! `R = 1` deployment over the same partitions no matter which replica
//! serves — failover changes latency, never answers. Only when *every*
//! replica of a partition is down does the partition contribute an
//! explicit gap. Failovers are accounted under `cloud.replica.*`, and
//! [`ShardRouter::anti_entropy`] heals replicas that drifted (content
//! compared by canonical-encoding digest, majority wins, ties to the
//! lowest replica index) by re-shipping the winning copy.

use crate::backend::CorpusError;
use crate::server::{
    CloudServer, DegradedScan, DocumentId, PreparedCache, SearchOutcome, SearchStats,
};
use apks_authz::SignedCapability;
use apks_core::fault::{FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{Budget, Deadline, EncryptedIndex};
use apks_curve::CurveParams;
use apks_math::encode::Writer;
use apks_math::sha256::Sha256;
use apks_proxy::{BreakerConfig, CircuitBreaker};
use apks_telemetry::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How shard scan time maps onto the deployment's shared clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockModel {
    /// Shards scan back-to-back on the shared clock; byte-equal to a
    /// single node over the shard-order-concatenated corpus.
    Serial,
    /// Shards scan concurrently on forked child clocks; the shared
    /// clock advances by the straggler's elapsed time. In wall time the
    /// partitions still scan one after another.
    Parallel,
}

/// Router construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Per-shard circuit breaker policy.
    pub breaker: BreakerConfig,
    /// Clock model for `search_batched`.
    pub clock_model: ClockModel,
    /// Replicas per partition. The shard list length must be a
    /// multiple of this; `1` (the default) is the unreplicated router.
    pub replication: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            // open after 3 consecutive failing waves, probe after 1000 ticks
            breaker: BreakerConfig::new(3, 1000),
            clock_model: ClockModel::Serial,
            replication: 1,
        }
    }
}

/// What one partition contributed to a gathered wave (one entry per
/// partition, in partition order; with replication 1 a partition *is*
/// a shard and `shard == partition`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Global index of the shard that served (the partition's primary
    /// when the whole partition was skipped).
    pub shard: usize,
    /// Which replica of its partition served: 0 is the primary,
    /// anything higher means the wave failed over.
    pub replica: usize,
    /// No replica could serve: no scan ran, the partition's whole
    /// corpus is in every query's `unscanned`.
    pub skipped: bool,
    /// Documents this partition holds (per replica).
    pub docs: usize,
    /// Ticks the partition's serve took, failed-over attempts included
    /// (shared-clock delta under [`ClockModel::Serial`], child-clock
    /// delta under [`ClockModel::Parallel`]; 0 when skipped).
    pub elapsed_ticks: u64,
    /// At least one query's deadline expired inside this partition —
    /// the signal fed to the serving replica's breaker.
    pub deadline_failed: bool,
}

/// A gathered scatter-gather wave: merged per-query results plus
/// per-shard accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedBatch {
    /// One merged [`DegradedScan`] per request, in request order. Each
    /// is the concatenation of the per-shard scans in shard order.
    pub results: Vec<DegradedScan>,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// The slowest shard's elapsed ticks — wave latency under the
    /// parallel model.
    pub straggler_ticks: u64,
}

/// Routes uploads and scatter-gathers searches over N shards, read as
/// `N / replication` partitions of identical replicas.
pub struct ShardRouter {
    shards: Vec<Arc<CloudServer>>,
    breakers: Vec<CircuitBreaker>,
    clock: Arc<VirtualClock>,
    metrics: Arc<MetricsRegistry>,
    model: ClockModel,
    replication: usize,
    next_id: AtomicU64,
    /// Prepared-capability cache shared by every shard: a scatter-
    /// gather wave pays `prepare_capability` once, the other N−1
    /// shards hit the cache.
    prepared: Arc<PreparedCache>,
}

impl ShardRouter {
    /// Builds a router over `shards` (at least one), sharing `clock`
    /// and `metrics` with them.
    ///
    /// The shards should have been constructed with
    /// [`CloudServer::with_telemetry`] against the same registry and
    /// clock so the deployment's telemetry aggregates deterministically.
    ///
    /// # Panics
    ///
    /// If `shards` is empty, `config.replication` is zero, or the shard
    /// count is not a multiple of `config.replication`.
    pub fn new(
        shards: Vec<Arc<CloudServer>>,
        config: ShardConfig,
        clock: Arc<VirtualClock>,
        metrics: Arc<MetricsRegistry>,
    ) -> ShardRouter {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        assert!(config.replication >= 1, "replication factor must be ≥ 1");
        assert!(
            shards.len().is_multiple_of(config.replication),
            "shard count {} is not a multiple of replication {}",
            shards.len(),
            config.replication
        );
        let breakers = (0..shards.len())
            .map(|_| CircuitBreaker::new(config.breaker))
            .collect();
        // one prepared-capability cache for the whole deployment: the
        // first shard to prepare a capability shares it with the rest
        let prepared = Arc::new(PreparedCache::new());
        for shard in &shards {
            shard.set_prepared_cache(prepared.clone());
        }
        metrics.add("cloud.replica.factor", config.replication as u64);
        ShardRouter {
            shards,
            breakers,
            clock,
            metrics,
            model: config.clock_model,
            replication: config.replication,
            next_id: AtomicU64::new(0),
            prepared,
        }
    }

    /// The deployment-shared prepared-capability cache — its
    /// [`PreparedCache::misses`] count is the number of
    /// `prepare_capability` runs the whole deployment actually paid.
    pub fn prepared_cache(&self) -> &Arc<PreparedCache> {
        &self.prepared
    }

    /// Number of shards (replicas counted individually).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Replicas per partition.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of partitions (`shard_count / replication`).
    pub fn partitions(&self) -> usize {
        self.shards.len() / self.replication
    }

    /// The shards themselves (for inspection; uploads should go through
    /// the router so the global id space stays consistent).
    pub fn shards(&self) -> &[Arc<CloudServer>] {
        &self.shards
    }

    /// The breaker guarding shard `i`.
    pub fn breaker(&self, shard: usize) -> &CircuitBreaker {
        &self.breakers[shard]
    }

    /// The deployment's shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The router's metrics registry (`cloud.shard.*`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Total *logical* documents across all partitions (each document
    /// counted once, however many replicas hold a copy).
    pub fn len(&self) -> usize {
        (0..self.partitions())
            .map(|p| self.shards[p * self.replication].len())
            .sum()
    }

    /// True iff no shard holds any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers an authority on every shard.
    pub fn register_authority(&self, id: &str) {
        for shard in &self.shards {
            shard.register_authority(id);
        }
    }

    /// Stores an index on partition `id % partitions` under the next
    /// global id, fanning the write to every replica of the partition.
    pub fn upload(&self, index: EncryptedIndex) -> DocumentId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let base = (id % self.partitions() as u64) as usize * self.replication;
        for r in 0..self.replication {
            self.shards[base + r].upload_assigned(id, index.clone());
        }
        if self.replication > 1 {
            self.metrics
                .add("cloud.replica.fanout_writes", self.replication as u64 - 1);
        }
        id
    }

    /// Stores a batch of indexes round-robin; returns their global ids
    /// in batch order.
    pub fn upload_many(&self, indexes: Vec<EncryptedIndex>) -> Vec<DocumentId> {
        indexes.into_iter().map(|idx| self.upload(idx)).collect()
    }

    /// Scatter-gather batched search: fans `requests` out to every
    /// partition (one replica serves each), merges the per-partition
    /// [`DegradedScan`]s in partition order, and reports per-partition
    /// accounting under `cloud.shard.*` / `cloud.replica.*`.
    ///
    /// Bounds stay per-request across the whole gather: one [`Deadline`]
    /// and one [`Budget`] govern a query's scan over *all* partitions,
    /// so a query cut in one partition surfaces every later partition's
    /// corpus in its merged `unscanned` — exactly the single-node
    /// contract.
    ///
    /// # Errors
    ///
    /// Fails if any capability is rejected by any scanned shard (all
    /// shards hold the same deployment, so the first shard decides).
    /// Storage faults are *not* returned: a replica failing its
    /// [`CloudServer::probe`] fails the wave over to the partition's
    /// next replica, with no replica left the partition becomes an
    /// explicit gap, and per-document hydrate failures degrade into
    /// `faulted`.
    pub fn search_batched(
        &self,
        requests: &[(&SignedCapability, Deadline, &Budget)],
        plan: &FaultPlan,
        policy: &RetryPolicy,
        doc_cost_ticks: u64,
    ) -> Result<ShardedBatch, SearchOutcome> {
        if requests.is_empty() {
            return Ok(ShardedBatch {
                results: Vec::new(),
                shards: Vec::new(),
                straggler_ticks: 0,
            });
        }

        let mut results: Vec<DegradedScan> = requests
            .iter()
            .map(|_| DegradedScan {
                matches: Vec::new(),
                faulted: Vec::new(),
                unscanned: Vec::new(),
                stats: SearchStats::default(),
            })
            .collect();
        let mut outcomes = Vec::with_capacity(self.partitions());
        let scatter = self.clock.now();
        let mut straggler = 0u64;
        let mut skipped = 0u64;
        let mut degraded_shards = 0u64;
        // A query cut by its deadline or budget is dead for every later
        // partition: re-submitting it would let scan_wave's entry check
        // tag a budget-cut query with a spurious `deadline_expired` the
        // single-node scan never sets. Dead queries swallow later
        // partitions whole, bound checks untouched.
        let mut alive: Vec<bool> = vec![true; requests.len()];

        for p in 0..self.partitions() {
            let base = p * self.replication;
            let entry = self.clock.now();
            // replicas whose breaker admits the wave, in replica order
            let admitted: Vec<usize> = (0..self.replication)
                .filter(|r| self.breakers[base + r].allows(entry))
                .collect();
            if admitted.is_empty() {
                // every replica's breaker is open: the partition
                // contributes an explicit gap, not a hang — its whole
                // corpus lands in `unscanned`.
                skipped += 1;
                Self::gap(&mut results, &self.shards[base].doc_ids(), |_| true);
                outcomes.push(ShardOutcome {
                    shard: base,
                    replica: 0,
                    skipped: true,
                    docs: self.shards[base].len(),
                    elapsed_ticks: 0,
                    deadline_failed: false,
                });
                continue;
            }

            let live_idx: Vec<usize> = (0..requests.len()).filter(|&q| alive[q]).collect();
            if live_idx.len() < requests.len() {
                let dead_ids = self.shards[base].doc_ids();
                Self::gap(&mut results, &dead_ids, |q| !alive[q]);
            }
            if live_idx.is_empty() {
                outcomes.push(ShardOutcome {
                    shard: base + admitted[0],
                    replica: admitted[0],
                    skipped: false,
                    docs: self.shards[base].len(),
                    elapsed_ticks: 0,
                    deadline_failed: false,
                });
                continue;
            }
            let sub: Vec<(&SignedCapability, Deadline, &Budget)> =
                live_idx.iter().map(|&q| requests[q]).collect();

            // Try each admitted replica in order; a failed probe records
            // a breaker failure and fails the wave over to the next.
            // The wave itself never fails over: it absorbs per-document
            // hydrate failures into `faulted`. Parallel partitions scan
            // on a clock forked at the scatter tick; serial partitions
            // share the deployment clock directly.
            let mut served: Option<(usize, Vec<DegradedScan>, u64)> = None;
            for &r in &admitted {
                let s = base + r;
                let child;
                let scan_clock: &VirtualClock = match self.model {
                    ClockModel::Serial => &self.clock,
                    ClockModel::Parallel => {
                        child = VirtualClock::new();
                        child.advance(scatter);
                        &child
                    }
                };
                let start = scan_clock.now();
                // a dead store degrades every document instead of
                // erroring inside the wave — catch it at the door
                if self.shards[s].probe().is_err() {
                    self.breakers[s].record_failure(scan_clock.now());
                    self.metrics.add("cloud.replica.scan_failovers", 1);
                    continue;
                }
                let ctx = FaultContext::new(plan, policy, scan_clock);
                let scans = self.shards[s].search_batched(&sub, &ctx, doc_cost_ticks)?;
                served = Some((r, scans, scan_clock.now().saturating_sub(start)));
                break;
            }
            let Some((r, scans, elapsed)) = served else {
                // every admitted replica failed its probe: the live
                // queries get the partition as an explicit gap (dead
                // queries already did, above)
                skipped += 1;
                Self::gap(&mut results, &self.shards[base].doc_ids(), |q| alive[q]);
                outcomes.push(ShardOutcome {
                    shard: base,
                    replica: 0,
                    skipped: true,
                    docs: self.shards[base].len(),
                    elapsed_ticks: 0,
                    deadline_failed: false,
                });
                continue;
            };
            let s = base + r;
            if r != 0 {
                self.metrics.add("cloud.replica.failovers", 1);
                // probe failovers happen at the partition door, before
                // any scan work: they add no virtual ticks
                self.metrics.record("cloud.replica.failover_ticks", 0);
            }
            straggler = straggler.max(elapsed);

            let deadline_failed = scans.iter().any(|d| d.stats.deadline_expired);
            let now = self.clock.now().max(scatter + elapsed);
            if deadline_failed {
                self.breakers[s].record_failure(now);
            } else {
                self.breakers[s].record_success(now);
            }
            if scans.iter().any(|d| d.stats.degraded) {
                degraded_shards += 1;
            }
            for (&q, scan) in live_idx.iter().zip(scans) {
                if scan.stats.deadline_expired || scan.stats.budget_exhausted {
                    alive[q] = false;
                }
                merge_into(&mut results[q], scan);
            }
            self.metrics.record("cloud.shard.ticks", elapsed);
            outcomes.push(ShardOutcome {
                shard: s,
                replica: r,
                skipped: false,
                docs: self.shards[base].len(),
                elapsed_ticks: elapsed,
                deadline_failed,
            });
        }

        if self.model == ClockModel::Parallel {
            // The wave lasts as long as its slowest shard.
            self.clock.advance(straggler);
        }

        self.metrics.add("cloud.shard.batches", 1);
        self.metrics
            .record("cloud.shard.fanout", (self.partitions() as u64) - skipped);
        if skipped > 0 {
            self.metrics.add("cloud.shard.breaker_skipped", skipped);
        }
        if degraded_shards > 0 {
            self.metrics
                .add("cloud.shard.degraded_shards", degraded_shards);
        }
        self.metrics
            .record("cloud.shard.straggler_ticks", straggler);

        Ok(ShardedBatch {
            results,
            shards: outcomes,
            straggler_ticks: straggler,
        })
    }

    /// Adds `ids` to the `unscanned` tail of every query `q` for which
    /// `applies(q)` — an explicit gap, never silent loss.
    fn gap(results: &mut [DegradedScan], ids: &[DocumentId], applies: impl Fn(usize) -> bool) {
        for (q, merged) in results.iter_mut().enumerate() {
            if applies(q) {
                merged.stats.unscanned_docs += ids.len();
                merged.stats.degraded |= !ids.is_empty();
                merged.unscanned.extend_from_slice(ids);
            }
        }
    }

    /// One anti-entropy pass over every partition: replicas' copies are
    /// compared by canonical-encoding digest, a winner is elected per
    /// document (majority digest, ties to the lowest replica index
    /// holding it), and the winning copy is re-shipped to every replica
    /// that is missing the document or holds a divergent copy.
    ///
    /// Deterministic: documents are visited in ascending id order and
    /// the election is a pure function of replica contents, so a
    /// same-seed chaos run heals identically. Accounted under
    /// `cloud.replica.anti_entropy_*`. A no-op when `replication == 1`.
    ///
    /// # Errors
    ///
    /// Storage failures while hydrating or re-shipping a disk-backed
    /// document.
    pub fn anti_entropy(&self) -> Result<AntiEntropyReport, CorpusError> {
        let mut report = AntiEntropyReport {
            partitions: self.partitions(),
            ..AntiEntropyReport::default()
        };
        if self.replication == 1 {
            return Ok(report);
        }
        let params = self.shards[0].system().params().clone();
        for p in 0..self.partitions() {
            let base = p * self.replication;
            // replica → (sorted doc ids, per-doc digest)
            let mut held: Vec<Vec<(DocumentId, [u8; 32])>> = Vec::with_capacity(self.replication);
            for r in 0..self.replication {
                let shard = &self.shards[base + r];
                let mut docs = Vec::new();
                for id in shard.doc_ids() {
                    let index = shard
                        .document(id)?
                        .expect("listed doc must hydrate on its own shard");
                    docs.push((id, doc_digest(&params, &index)));
                }
                docs.sort_unstable_by_key(|&(id, _)| id);
                held.push(docs);
            }
            // ascending union of ids across the partition's replicas
            let mut union: Vec<DocumentId> = held.iter().flatten().map(|&(id, _)| id).collect();
            union.sort_unstable();
            union.dedup();
            for id in union {
                report.docs_checked += 1;
                let copies: Vec<(usize, [u8; 32])> = held
                    .iter()
                    .enumerate()
                    .filter_map(|(r, docs)| {
                        docs.binary_search_by_key(&id, |&(d, _)| d)
                            .ok()
                            .map(|i| (r, docs[i].1))
                    })
                    .collect();
                // elect: most holders, ties to the lowest replica index
                let winner = copies
                    .iter()
                    .map(|&(r, digest)| {
                        let votes = copies.iter().filter(|&&(_, d)| d == digest).count();
                        (votes, std::cmp::Reverse(r), digest, r)
                    })
                    .max()
                    .map(|(_, _, digest, r)| (digest, r))
                    .expect("a doc in the union is held somewhere");
                let (winning_digest, source) = winner;
                if copies.iter().any(|&(_, d)| d != winning_digest) {
                    report.divergent += 1;
                }
                let truth = self.shards[base + source]
                    .document(id)?
                    .expect("winning copy must hydrate");
                for r in 0..self.replication {
                    match copies.iter().find(|&&(cr, _)| cr == r) {
                        Some(&(_, d)) if d == winning_digest => {}
                        Some(_) => {
                            // divergent copy: overwrite with the winner
                            self.shards[base + r].upload_assigned(id, (*truth).clone());
                            report.reshipped += 1;
                        }
                        None => {
                            report.missing += 1;
                            self.shards[base + r].upload_assigned(id, (*truth).clone());
                            report.reshipped += 1;
                        }
                    }
                }
            }
        }
        self.metrics.add("cloud.replica.anti_entropy_runs", 1);
        if report.reshipped > 0 {
            self.metrics.add(
                "cloud.replica.anti_entropy_reshipped",
                report.reshipped as u64,
            );
        }
        if report.divergent > 0 {
            self.metrics.add(
                "cloud.replica.anti_entropy_divergent",
                report.divergent as u64,
            );
        }
        Ok(report)
    }
}

/// What one [`ShardRouter::anti_entropy`] pass found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Partitions examined.
    pub partitions: usize,
    /// Distinct documents compared (union across replicas).
    pub docs_checked: usize,
    /// Documents whose replicas disagreed on content.
    pub divergent: usize,
    /// (replica, document) pairs where a copy was absent outright.
    pub missing: usize,
    /// Copies re-shipped to heal missing or divergent replicas.
    pub reshipped: usize,
}

/// Content digest of a stored index: SHA-256 over the ciphertext's
/// canonical encoding — the identity anti-entropy compares between
/// replicas.
fn doc_digest(params: &CurveParams, index: &EncryptedIndex) -> [u8; 32] {
    let mut w = Writer::new();
    index.ct.encode(params, &mut w);
    let mut h = Sha256::new();
    h.update(&w.finish());
    h.finalize()
}

/// Appends one shard's scan to a query's merged result. Vectors
/// concatenate in call (= shard) order; counters sum; flags OR. The
/// two timing fields become per-shard sums — the one place the merge
/// is an aggregate rather than the single-node reading.
fn merge_into(merged: &mut DegradedScan, scan: DegradedScan) {
    merged.matches.extend(scan.matches);
    merged.faulted.extend(scan.faulted);
    merged.unscanned.extend(scan.unscanned);
    let s = &mut merged.stats;
    s.scanned += scan.stats.scanned;
    s.matched += scan.stats.matched;
    s.prepare_micros += scan.stats.prepare_micros;
    s.scan_micros += scan.stats.scan_micros;
    s.pairings += scan.stats.pairings;
    s.faulted_docs += scan.stats.faulted_docs;
    s.retries += scan.stats.retries;
    s.degraded |= scan.stats.degraded;
    s.deadline_expired |= scan.stats.deadline_expired;
    s.budget_exhausted |= scan.stats.budget_exhausted;
    s.unscanned_docs += scan.stats.unscanned_docs;
}

#[cfg(test)]
mod tests {
    use super::*;
    use apks_authz::TrustedAuthority;
    use apks_core::fault::FaultConfig;
    use apks_core::{FieldValue, Query, QueryPolicy, Record, Schema};
    use apks_curve::CurveParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CORPUS: [(&str, &str); 7] = [
        ("flu", "female"),
        ("flu", "male"),
        ("diabetes", "female"),
        ("cancer", "male"),
        ("flu", "female"),
        ("cancer", "female"),
        ("flu", "male"),
    ];

    fn authority() -> (TrustedAuthority, StdRng) {
        let schema = Schema::builder()
            .flat_field("illness", 1)
            .flat_field("sex", 1)
            .build()
            .unwrap();
        let sys = apks_core::ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(4242);
        let ta = TrustedAuthority::setup(sys, &mut rng);
        (ta, rng)
    }

    fn server(ta: &TrustedAuthority, clock: &Arc<VirtualClock>) -> Arc<CloudServer> {
        let s = Arc::new(CloudServer::with_telemetry(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
            Arc::new(MetricsRegistry::new()),
            clock.clone(),
        ));
        s.register_authority("ta");
        s
    }

    fn router(ta: &TrustedAuthority, n: usize, model: ClockModel) -> ShardRouter {
        let clock = Arc::new(VirtualClock::new());
        let shards = (0..n).map(|_| server(ta, &clock)).collect();
        let config = ShardConfig {
            clock_model: model,
            ..ShardConfig::default()
        };
        ShardRouter::new(shards, config, clock, Arc::new(MetricsRegistry::new()))
    }

    fn upload_corpus(ta: &TrustedAuthority, rng: &mut StdRng, router: &ShardRouter) {
        for (illness, sex) in CORPUS {
            let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
            router.upload(ta.system().gen_index(ta.public_key(), &rec, rng).unwrap());
        }
    }

    fn flu_cap(ta: &TrustedAuthority, rng: &mut StdRng) -> apks_authz::SignedCapability {
        ta.issue_capability(
            &Query::new().equals("illness", "flu"),
            &QueryPolicy::default(),
            rng,
        )
        .unwrap()
    }

    #[test]
    fn round_robin_upload_spreads_and_ids_are_global() {
        let (ta, mut rng) = authority();
        let r = router(&ta, 3, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        assert_eq!(r.len(), CORPUS.len());
        assert_eq!(r.shards()[0].doc_ids(), vec![0, 3, 6]);
        assert_eq!(r.shards()[1].doc_ids(), vec![1, 4]);
        assert_eq!(r.shards()[2].doc_ids(), vec![2, 5]);
    }

    #[test]
    fn unbounded_scatter_gather_matches_single_node() {
        let (ta, mut rng) = authority();
        let r = router(&ta, 3, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);

        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let budget = Budget::unlimited();
        let batch = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        // flu docs: ids 0, 1, 4, 6 — shard order 0:[0,6], 1:[1,4], 2:[]
        assert_eq!(batch.results[0].matches, vec![0, 6, 1, 4]);
        assert!(batch.results[0].unscanned.is_empty());
        assert!(!batch.results[0].stats.degraded);
        assert_eq!(batch.results[0].stats.scanned, CORPUS.len());
        assert_eq!(batch.shards.len(), 3);
        assert!(batch.shards.iter().all(|o| !o.skipped));
    }

    #[test]
    fn expired_deadline_yields_full_unscanned_not_a_hang() {
        let (ta, mut rng) = authority();
        let r = router(&ta, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let budget = Budget::unlimited();
        // expires immediately: tick 0 is already the deadline
        let batch = r
            .search_batched(&[(&cap, Deadline::at(0), &budget)], &plan, &policy, 1)
            .unwrap();
        let scan = &batch.results[0];
        assert!(scan.matches.is_empty());
        assert!(scan.stats.deadline_expired);
        assert_eq!(scan.stats.unscanned_docs, CORPUS.len());
        // shard order: shard 0's docs first, then shard 1's
        assert_eq!(scan.unscanned, vec![0, 2, 4, 6, 1, 3, 5]);
    }

    #[test]
    fn open_breaker_skips_shard_with_explicit_gap() {
        let (ta, mut rng) = authority();
        let r = router(&ta, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();

        // trip shard 1's breaker by hand
        let now = 0;
        for _ in 0..ShardConfig::default().breaker.failure_threshold {
            r.breaker(1).record_failure(now);
        }
        assert!(!r.breaker(1).allows(now));

        let budget = Budget::unlimited();
        let batch = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        let scan = &batch.results[0];
        // shard 0 scanned fully; shard 1 (docs 1,3,5) is an explicit gap
        assert_eq!(scan.matches, vec![0, 4, 6]);
        assert_eq!(scan.unscanned, vec![1, 3, 5]);
        assert!(scan.stats.degraded);
        assert!(batch.shards[1].skipped);
        assert_eq!(r.metrics().counter("cloud.shard.breaker_skipped").get(), 1);
    }

    fn replicated_router(
        ta: &TrustedAuthority,
        partitions: usize,
        replication: usize,
        model: ClockModel,
    ) -> ShardRouter {
        let clock = Arc::new(VirtualClock::new());
        let shards = (0..partitions * replication)
            .map(|_| server(ta, &clock))
            .collect();
        let config = ShardConfig {
            clock_model: model,
            replication,
            ..ShardConfig::default()
        };
        ShardRouter::new(shards, config, clock, Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn replicated_upload_fans_to_identical_replicas() {
        let (ta, mut rng) = authority();
        let r = replicated_router(&ta, 3, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        // logical count: each doc once, despite two physical copies
        assert_eq!(r.len(), CORPUS.len());
        assert_eq!(r.partitions(), 3);
        for p in 0..3 {
            let primary = r.shards()[p * 2].doc_ids();
            let follower = r.shards()[p * 2 + 1].doc_ids();
            assert_eq!(primary, follower, "partition {p} replicas must agree");
        }
        // same round-robin placement as an unreplicated 3-shard router
        assert_eq!(r.shards()[0].doc_ids(), vec![0, 3, 6]);
        assert_eq!(r.shards()[2].doc_ids(), vec![1, 4]);
        assert_eq!(r.shards()[4].doc_ids(), vec![2, 5]);
        assert_eq!(
            r.metrics().counter("cloud.replica.fanout_writes").get(),
            CORPUS.len() as u64
        );
    }

    #[test]
    fn replicated_gather_is_byte_equal_to_single_replica_oracle() {
        let (ta, mut rng) = authority();
        let replicated = replicated_router(&ta, 3, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &replicated);
        let oracle = router(&ta, 3, ClockModel::Serial);
        let mut rng2 = StdRng::seed_from_u64(4242);
        upload_corpus(&ta, &mut rng2, &oracle);

        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let b1 = Budget::unlimited();
        let b2 = Budget::unlimited();
        let rb = replicated
            .search_batched(&[(&cap, Deadline::NEVER, &b1)], &plan, &policy, 1)
            .unwrap();
        let ob = oracle
            .search_batched(&[(&cap, Deadline::NEVER, &b2)], &plan, &policy, 1)
            .unwrap();
        assert_eq!(
            rb.results, ob.results,
            "replication must not change answers"
        );
        assert!(rb.shards.iter().all(|o| o.replica == 0 && !o.skipped));
    }

    #[test]
    fn open_primary_breaker_fails_over_to_follower() {
        let (ta, mut rng) = authority();
        let r = replicated_router(&ta, 2, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();

        // trip partition 0's primary (global shard 0)
        for _ in 0..ShardConfig::default().breaker.failure_threshold {
            r.breaker(0).record_failure(0);
        }
        let budget = Budget::unlimited();
        let batch = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        // the follower serves the identical slice: full results, no gap
        let scan = &batch.results[0];
        assert_eq!(scan.matches, vec![0, 4, 6, 1], "failover changes nothing");
        assert!(scan.unscanned.is_empty());
        assert!(!scan.stats.degraded);
        assert_eq!(batch.shards[0].replica, 1, "partition 0 served by follower");
        assert_eq!(batch.shards[0].shard, 1);
        assert_eq!(batch.shards[1].replica, 0, "partition 1 untouched");
        assert_eq!(r.metrics().counter("cloud.replica.failovers").get(), 1);
    }

    #[test]
    fn partition_with_every_replica_down_is_an_explicit_gap() {
        let (ta, mut rng) = authority();
        let r = replicated_router(&ta, 2, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        for shard in [0, 1] {
            for _ in 0..ShardConfig::default().breaker.failure_threshold {
                r.breaker(shard).record_failure(0);
            }
        }
        let budget = Budget::unlimited();
        let batch = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        let scan = &batch.results[0];
        // partition 0 (docs 0,2,4,6) is a gap; partition 1 serves
        assert_eq!(scan.unscanned, vec![0, 2, 4, 6]);
        assert_eq!(scan.matches, vec![1]);
        assert!(scan.stats.degraded);
        assert!(batch.shards[0].skipped);
        assert_eq!(r.metrics().counter("cloud.shard.breaker_skipped").get(), 1);
    }

    /// A memory backend that can be switched into a failing mode where
    /// every hydrate errors — a replica whose store crashed mid-wave.
    struct FlakyBackend {
        inner: crate::backend::MemoryBackend,
        dead: Arc<std::sync::atomic::AtomicBool>,
    }

    impl crate::backend::CorpusBackend for FlakyBackend {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn doc_id(&self, pos: usize) -> Option<DocumentId> {
            self.inner.doc_id(pos)
        }
        fn doc_ids(&self) -> Vec<DocumentId> {
            self.inner.doc_ids()
        }
        fn ids_from(&self, pos: usize) -> Vec<DocumentId> {
            self.inner.ids_from(pos)
        }
        fn push(&self, id: DocumentId, index: EncryptedIndex) -> Result<bool, CorpusError> {
            self.inner.push(id, index)
        }
        fn hydrate(&self, pos: usize) -> Result<Arc<EncryptedIndex>, CorpusError> {
            if self.dead.load(Ordering::Relaxed) {
                return Err(CorpusError::Decode {
                    doc: 0,
                    what: "simulated replica outage".into(),
                });
            }
            self.inner.hydrate(pos)
        }
    }

    #[test]
    fn mid_scan_corpus_fault_fails_over_without_changing_answers() {
        let (ta, mut rng) = authority();
        let clock = Arc::new(VirtualClock::new());
        let dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flaky = {
            let s = Arc::new(CloudServer::with_backend(
                ta.system().clone(),
                ta.public_key().clone(),
                ta.ibs_params().clone(),
                Arc::new(MetricsRegistry::new()),
                clock.clone(),
                Box::new(FlakyBackend {
                    inner: crate::backend::MemoryBackend::new(),
                    dead: dead.clone(),
                }),
            ));
            s.register_authority("ta");
            s
        };
        let follower = server(&ta, &clock);
        let config = ShardConfig {
            replication: 2,
            ..ShardConfig::default()
        };
        let r = ShardRouter::new(
            vec![flaky, follower],
            config,
            clock,
            Arc::new(MetricsRegistry::new()),
        );
        upload_corpus(&ta, &mut rng, &r);
        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();

        let healthy = {
            let budget = Budget::unlimited();
            r.search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
                .unwrap()
        };
        assert_eq!(healthy.shards[0].replica, 0);

        dead.store(true, Ordering::Relaxed);
        let budget = Budget::unlimited();
        let failed_over = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        assert_eq!(
            failed_over.results[0].matches, healthy.results[0].matches,
            "a mid-scan fault must not change answers"
        );
        assert!(failed_over.results[0].unscanned.is_empty());
        assert_eq!(failed_over.shards[0].replica, 1);
        assert_eq!(r.metrics().counter("cloud.replica.scan_failovers").get(), 1);
        assert_eq!(r.metrics().counter("cloud.replica.failovers").get(), 1);

        // with the follower also unavailable the partition is an
        // explicit gap, not an error
        for _ in 0..ShardConfig::default().breaker.failure_threshold {
            r.breaker(1).record_failure(r.clock().now());
        }
        let budget = Budget::unlimited();
        let gap = r
            .search_batched(&[(&cap, Deadline::NEVER, &budget)], &plan, &policy, 1)
            .unwrap();
        assert!(gap.shards[0].skipped);
        assert!(gap.results[0].matches.is_empty());
        assert_eq!(gap.results[0].unscanned.len(), CORPUS.len());
        assert!(gap.results[0].stats.degraded);
    }

    #[test]
    fn anti_entropy_heals_missing_and_divergent_copies() {
        let (ta, mut rng) = authority();
        let r = replicated_router(&ta, 2, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &r);

        // a clean pass finds nothing to do
        let clean = r.anti_entropy().unwrap();
        assert_eq!(clean.docs_checked, CORPUS.len());
        assert_eq!((clean.divergent, clean.missing, clean.reshipped), (0, 0, 0));

        // diverge: overwrite doc 0's copy on partition 0's follower
        let rogue = Record::new(vec![FieldValue::text("plague"), FieldValue::text("male")]);
        let rogue_idx = ta
            .system()
            .gen_index(ta.public_key(), &rogue, &mut rng)
            .unwrap();
        r.shards()[1].upload_assigned(0, rogue_idx);
        // lose: ship doc 100 to partition 0's primary only
        let extra = Record::new(vec![FieldValue::text("flu"), FieldValue::text("female")]);
        let extra_idx = ta
            .system()
            .gen_index(ta.public_key(), &extra, &mut rng)
            .unwrap();
        r.shards()[0].upload_assigned(100, extra_idx);

        let healed = r.anti_entropy().unwrap();
        assert_eq!(healed.divergent, 1, "doc 0 disagreed");
        assert_eq!(healed.missing, 1, "doc 100 absent on the follower");
        assert_eq!(healed.reshipped, 2);

        // the pass converged: a second run is clean and the replicas
        // answer identically whichever one serves
        let again = r.anti_entropy().unwrap();
        assert_eq!((again.divergent, again.missing, again.reshipped), (0, 0, 0));
        for p in 0..2 {
            assert_eq!(r.shards()[p * 2].doc_ids(), r.shards()[p * 2 + 1].doc_ids());
        }
        assert_eq!(
            r.metrics()
                .counter("cloud.replica.anti_entropy_reshipped")
                .get(),
            2
        );
    }

    #[test]
    fn parallel_model_advances_clock_by_straggler_only() {
        let (ta, mut rng) = authority();
        let serial = router(&ta, 2, ClockModel::Serial);
        upload_corpus(&ta, &mut rng, &serial);
        let parallel = router(&ta, 2, ClockModel::Parallel);
        let mut rng2 = StdRng::seed_from_u64(4242);
        // skip the authority's draws so indexes differ — content is
        // irrelevant here, only doc counts drive timing
        upload_corpus(&ta, &mut rng2, &parallel);

        let cap = flu_cap(&ta, &mut rng);
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let b1 = Budget::unlimited();
        let b2 = Budget::unlimited();

        let sb = serial
            .search_batched(&[(&cap, Deadline::NEVER, &b1)], &plan, &policy, 10)
            .unwrap();
        let pb = parallel
            .search_batched(&[(&cap, Deadline::NEVER, &b2)], &plan, &policy, 10)
            .unwrap();

        // serial: the clock walks the whole corpus (7 docs × 10 ticks)
        assert_eq!(serial.clock().now(), 70);
        assert_eq!(sb.straggler_ticks, 40); // slower shard has 4 docs
                                            // parallel: only the straggler's time passes on the shared clock
        assert_eq!(parallel.clock().now(), 40);
        assert_eq!(pb.straggler_ticks, 40);
        // same merged hits either way
        assert_eq!(sb.results[0].matches, pb.results[0].matches);
    }
}
