//! The encrypted-index store and search engine.

use crate::backend::{CorpusBackend, CorpusError, HydrateConfig, MemoryBackend, PagedBackend};
use apks_authz::{IbsPublicParams, SignedCapability};
use apks_core::fault::{DocFault, FaultContext};
use apks_core::{
    ApksError, ApksPublicKey, ApksSystem, Budget, Capability, Deadline, EncryptedIndex,
    PreparedCapability,
};
use apks_curve::CurveParams;
use apks_math::encode::Writer;
use apks_math::sha256::sha256;
use apks_store::StoreConfig;
use apks_telemetry::source::{self, SourceCounts};
use apks_telemetry::{Clock, MetricsRegistry, MetricsSnapshot, Span, WallClock};
use core::fmt;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// An opaque document identifier assigned at upload.
pub type DocumentId = u64;

/// Errors from search submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The capability's signature did not verify.
    BadSignature,
    /// The issuing authority is not registered with this server.
    UnknownIssuer(String),
    /// The underlying APKS evaluation failed (deployment mismatch, …).
    Apks(ApksError),
    /// The corpus backend failed to materialize a document on the
    /// strict (non-degraded) scan path.
    Corpus(CorpusError),
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchOutcome::BadSignature => write!(f, "capability signature invalid"),
            SearchOutcome::UnknownIssuer(id) => write!(f, "issuer {id:?} not registered"),
            SearchOutcome::Apks(e) => write!(f, "apks error: {e}"),
            SearchOutcome::Corpus(e) => write!(f, "corpus error: {e}"),
        }
    }
}

impl std::error::Error for SearchOutcome {}

/// Accounting for one search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Number of indexes evaluated.
    pub scanned: usize,
    /// Number of matches returned.
    pub matched: usize,
    /// One-time capability preprocessing cost in ticks of the server's
    /// clock — microseconds under [`WallClock`], virtual ticks when a
    /// simulation injects its clock. 0 for a query whose deadline had
    /// already expired on entry: it prepares nothing.
    pub prepare_micros: u64,
    /// Corpus-scan time in ticks of the server's clock (excludes
    /// preparation).
    pub scan_micros: u64,
    /// Pairing evaluations performed by the scan, measured at the
    /// pairing layer (`n + 3` per evaluated document; skipped documents
    /// perform none).
    pub pairings: usize,
    /// Documents whose evaluation faulted through the whole retry budget
    /// and were skipped (never silently dropped — also listed in
    /// [`DegradedScan::faulted`]).
    pub faulted_docs: usize,
    /// Evaluation retries performed while scanning flaky documents.
    pub retries: usize,
    /// True iff at least one document was skipped: the match set covers
    /// only the healthy corpus.
    pub degraded: bool,
    /// True iff the request's [`Deadline`] expired before or during the
    /// scan: the tail of the corpus was never evaluated.
    pub deadline_expired: bool,
    /// True iff the request's pairing [`Budget`] ran out mid-scan.
    pub budget_exhausted: bool,
    /// Documents never evaluated because the deadline or budget cut the
    /// scan short (also listed in [`DegradedScan::unscanned`]).
    pub unscanned_docs: usize,
}

/// Outcome of a degraded-mode scan: the matches over the healthy corpus
/// plus an explicit list of the documents the scan had to skip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedScan {
    /// Matching document ids among the documents that evaluated.
    pub matches: Vec<DocumentId>,
    /// Documents skipped because evaluation faulted past the budget.
    pub faulted: Vec<DocumentId>,
    /// Documents never evaluated: a deadline or pairing budget stopped
    /// the scan before reaching them. Empty on unbounded scans.
    pub unscanned: Vec<DocumentId>,
    /// Accounting (with `faulted_docs`/`retries`/`degraded` populated).
    pub stats: SearchStats,
}

/// One query's slot in a scan wave: its capability plus the overload
/// bounds that stay **per-request** even when the scan is shared.
#[derive(Clone, Copy)]
pub struct WaveRequest<'a> {
    /// The query's capability.
    pub cap: &'a Capability,
    /// The query's own deadline, re-checked per document.
    pub deadline: Deadline,
    /// The query's own pairing budget, charged per document.
    pub budget: &'a Budget,
}

/// Worker threads a scan's evaluate pass may use: the cores this
/// process may run on (`available_parallelism` honours the CPU affinity
/// mask), read once.
fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The telemetry namespace one run of the wave kernel writes: a solo
/// bounded scan is a wave of one that keeps the per-query
/// `cloud.scan.*` ledger, a batched wave writes `cloud.wave.*`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ledger {
    Solo,
    Wave,
}

impl Ledger {
    /// The metric `suffix` under this ledger's namespace.
    fn name(self, suffix: &str) -> String {
        let prefix = match self {
            Ledger::Solo => "cloud.scan",
            Ledger::Wave => "cloud.wave",
        };
        format!("{prefix}.{suffix}")
    }
}

/// A digest-keyed cache of prepared capabilities, shared across the
/// shards of one deployment so a scatter-gather query pays the Miller
/// precomputation **once**, not once per shard.
///
/// Keys are the SHA-256 of the capability's canonical encoding, so two
/// structurally identical capabilities share an entry regardless of
/// which shard prepared first. Lookups never advance any clock —
/// installing the cache cannot perturb a virtual-clock simulation's
/// timeline.
///
/// The map is **unbounded**, and entries are not small: a prepared
/// coordinate stores 159 Miller steps of 272 bytes (about 43 KB), so
/// one capability holds about 1.34 MB at n = 28 and about 0.56 MB at
/// n = 10. A client presenting distinct capabilities grows it without
/// limit; bounding it is ROADMAP open item 4.
#[derive(Default)]
pub struct PreparedCache {
    map: RwLock<HashMap<[u8; 32], Arc<PreparedCapability>>>,
    calls: AtomicU64,
    hits: AtomicU64,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> PreparedCache {
        PreparedCache::default()
    }

    /// The cache key for a capability: SHA-256 of its canonical
    /// encoding.
    pub fn key(params: &CurveParams, cap: &Capability) -> [u8; 32] {
        let mut w = Writer::new();
        cap.encode(params, &mut w);
        sha256(&w.finish())
    }

    /// Looks up a prepared capability, counting the call (and the hit).
    pub fn get(&self, key: &[u8; 32]) -> Option<Arc<PreparedCapability>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let hit = self.map.read().get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Installs a freshly prepared capability.
    pub fn insert(&self, key: [u8; 32], prepared: Arc<PreparedCapability>) {
        self.map.write().insert(key, prepared);
    }

    /// Lookups performed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed — i.e. `prepare_capability` runs actually
    /// paid by servers sharing this cache.
    pub fn misses(&self) -> u64 {
        self.calls() - self.hits()
    }

    /// Distinct capabilities cached.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }
}

/// The cloud server.
pub struct CloudServer {
    system: ApksSystem,
    pk: ApksPublicKey,
    ibs: IbsPublicParams,
    registered: RwLock<HashSet<String>>,
    store: Box<dyn CorpusBackend>,
    next_id: AtomicUsize,
    /// Cross-server prepared-capability cache, installed by the shard
    /// router (`None` on solo servers: a solo scan's preparation cost
    /// stays visible, uncached, exactly as the paper measures it).
    prepared: RwLock<Option<Arc<PreparedCache>>>,
    metrics: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
}

impl CloudServer {
    /// Creates a server for one deployment, timing against the wall
    /// clock with a private metrics registry.
    pub fn new(system: ApksSystem, pk: ApksPublicKey, ibs: IbsPublicParams) -> CloudServer {
        CloudServer::with_telemetry(
            system,
            pk,
            ibs,
            Arc::new(MetricsRegistry::new()),
            Arc::new(WallClock),
        )
    }

    /// Creates a server that records into `metrics` and charges its
    /// timings (stats *and* latency histograms) to `clock`. The sim
    /// passes a deployment-shared registry and its virtual clock so
    /// same-seed chaos runs reproduce every timing byte for byte.
    pub fn with_telemetry(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
    ) -> CloudServer {
        CloudServer::with_backend(
            system,
            pk,
            ibs,
            metrics,
            clock,
            Box::new(MemoryBackend::new()),
        )
    }

    /// Creates a server over an explicit [`CorpusBackend`].
    pub fn with_backend(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        store: Box<dyn CorpusBackend>,
    ) -> CloudServer {
        CloudServer {
            system,
            pk,
            ibs,
            registered: RwLock::new(HashSet::new()),
            store,
            next_id: AtomicUsize::new(0),
            prepared: RwLock::new(None),
            metrics,
            clock,
        }
    }

    /// Creates a server whose corpus is disk-backed: ciphertexts live
    /// in a [`PagedBackend`] at `dir` and are decoded lazily through a
    /// byte-budgeted LRU (telemetry under `cloud.hydrate.*` in
    /// `metrics`). Documents already on disk are served immediately;
    /// `next_id` resumes past the highest stored id.
    ///
    /// # Errors
    ///
    /// Store open failures (I/O, foreign segments).
    #[allow(clippy::too_many_arguments)] // the deployment's full wiring is explicit by design
    pub fn with_paged_store(
        system: ApksSystem,
        pk: ApksPublicKey,
        ibs: IbsPublicParams,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        dir: &Path,
        store_config: StoreConfig,
        hydrate_config: HydrateConfig,
    ) -> Result<CloudServer, CorpusError> {
        let backend = PagedBackend::open(
            system.clone(),
            dir,
            store_config,
            hydrate_config,
            metrics.clone(),
            clock.clone(),
        )?;
        let next = backend
            .doc_ids()
            .iter()
            .map(|&id| id as usize + 1)
            .max()
            .unwrap_or(0);
        let server = CloudServer::with_backend(system, pk, ibs, metrics, clock, Box::new(backend));
        server.next_id.store(next, Ordering::Relaxed);
        Ok(server)
    }

    /// Installs a [`PreparedCache`] (normally the shard router's,
    /// shared by every shard of a deployment).
    pub fn set_prepared_cache(&self, cache: Arc<PreparedCache>) {
        *self.prepared.write() = Some(cache);
    }

    /// The installed prepared-capability cache, if any.
    pub fn prepared_cache(&self) -> Option<Arc<PreparedCache>> {
        self.prepared.read().clone()
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of the server's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Registers an authority identity whose signatures are accepted.
    pub fn register_authority(&self, id: impl Into<String>) {
        self.registered.write().insert(id.into());
    }

    /// Stores an encrypted index; returns its document id.
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept the write; use
    /// [`CloudServer::try_upload`] to observe storage errors.
    pub fn upload(&self, index: EncryptedIndex) -> DocumentId {
        self.try_upload(index).expect("corpus append failed")
    }

    /// Stores an encrypted index, surfacing backend storage errors.
    ///
    /// # Errors
    ///
    /// Backend storage failures (I/O on a disk-backed corpus).
    pub fn try_upload(&self, index: EncryptedIndex) -> Result<DocumentId, CorpusError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as DocumentId;
        self.store.push(id, index)?;
        Ok(id)
    }

    /// Stores a batch of encrypted indexes; returns their document ids
    /// in batch order, guaranteed contiguous (the whole id range is
    /// reserved atomically, so no concurrent upload can interleave ids
    /// inside a batch).
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept a write.
    pub fn upload_many(&self, indexes: Vec<EncryptedIndex>) -> Vec<DocumentId> {
        let first = self.next_id.fetch_add(indexes.len(), Ordering::Relaxed) as DocumentId;
        indexes
            .into_iter()
            .enumerate()
            .map(|(i, index)| {
                let id = first + i as DocumentId;
                self.store.push(id, index).expect("corpus append failed");
                id
            })
            .collect()
    }

    /// Stores an encrypted index under a caller-assigned document id.
    ///
    /// Used by the shard router, which owns the global id space and
    /// routes each id to one shard — ids must stay globally unique even
    /// though each shard numbers only a slice of the corpus. Keeps
    /// `next_id` ahead of every assigned id so a later plain
    /// [`CloudServer::upload`] cannot collide.
    ///
    /// Re-using an id **overwrites** the existing document in place
    /// (the document keeps its scan position; the last write wins,
    /// matching the paged store's compaction semantics) — it never
    /// silently stores a second copy for scans to double-count.
    /// Returns `true` when `id` was new, `false` on an overwrite.
    ///
    /// # Panics
    ///
    /// Panics if a disk-backed corpus fails to accept the write.
    pub fn upload_assigned(&self, id: DocumentId, index: EncryptedIndex) -> bool {
        let fresh = self.store.push(id, index).expect("corpus append failed");
        self.next_id.fetch_max(id as usize + 1, Ordering::Relaxed);
        fresh
    }

    /// The stored document ids, in store (scan) order.
    pub fn doc_ids(&self) -> Vec<DocumentId> {
        self.store.doc_ids()
    }

    /// The stored index under `id`, hydrated from the backend — the
    /// anti-entropy pass reads replicas through this to compare and
    /// re-ship documents.
    ///
    /// # Errors
    ///
    /// Storage failures while hydrating a disk-backed document.
    pub fn document(&self, id: DocumentId) -> Result<Option<Arc<EncryptedIndex>>, CorpusError> {
        match self.store.doc_ids().iter().position(|&d| d == id) {
            Some(pos) => self.store.hydrate(pos).map(Some),
            None => Ok(None),
        }
    }

    /// A liveness probe: materializes the first stored document,
    /// surfacing the kind of storage fault that would otherwise degrade
    /// every document of a scan (the batched wave absorbs per-document
    /// hydrate failures into `faulted` rather than erroring). The shard
    /// router probes a replica before serving a wave from it and fails
    /// over on an error. Empty corpora are vacuously healthy.
    ///
    /// # Errors
    ///
    /// Whatever the backend reports for the first document.
    pub fn probe(&self) -> Result<(), CorpusError> {
        if self.store.is_empty() {
            return Ok(());
        }
        self.store.hydrate(0).map(|_| ())
    }

    /// Number of stored indexes.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// On-disk shape of the backing store — `None` for in-memory
    /// corpora.
    ///
    /// # Errors
    ///
    /// Storage failures while statting a disk-backed corpus.
    pub fn store_stats(&self) -> Result<Option<apks_store::StoreStats>, CorpusError> {
        self.store.store_stats()
    }

    /// The unscanned tail `pos..total` as document ids, without
    /// hydrating anything. Clamped to the `total` captured at scan
    /// start so a concurrent upload cannot inflate a cut query's tail.
    fn ids_tail(&self, pos: usize, total: usize) -> Vec<DocumentId> {
        let mut ids = self.store.ids_from(pos);
        ids.truncate(total.saturating_sub(pos));
        ids
    }

    /// Verifies a signed capability (signature + issuer registration).
    ///
    /// # Errors
    ///
    /// Returns why the capability was rejected.
    pub fn admit(&self, cap: &SignedCapability) -> Result<(), SearchOutcome> {
        if !self.registered.read().contains(&cap.issuer) {
            return Err(SearchOutcome::UnknownIssuer(cap.issuer.clone()));
        }
        if !cap.verify(self.system.params(), &self.ibs) {
            return Err(SearchOutcome::BadSignature);
        }
        Ok(())
    }

    /// The single entry point for capability preparation on every scan
    /// path: measures the work through `clock`, records the ticks into
    /// `metric`, and — when a [`PreparedCache`] is installed — reuses
    /// a previously prepared capability instead of redoing the Miller
    /// precomputation. Returns `(prepared, ticks, source counts)`;
    /// counts are zero on a cache hit because no pairing work ran.
    ///
    /// Never advances a virtual clock, so caching cannot shift a
    /// simulation's timeline — only the measured preparation cost.
    fn prepare_measured(
        &self,
        cap: &Capability,
        clock: &dyn Clock,
        metric: &str,
    ) -> (
        Result<Arc<PreparedCapability>, SearchOutcome>,
        u64,
        SourceCounts,
    ) {
        let cache = self.prepared.read().clone();
        let start = clock.now_ticks();
        let key = cache
            .as_ref()
            .map(|_| PreparedCache::key(self.system.params(), cap));
        if let (Some(cache), Some(key)) = (&cache, &key) {
            if let Some(hit) = cache.get(key) {
                self.metrics.add("cloud.prepare.cache_hits", 1);
                let ticks = clock.now_ticks().saturating_sub(start);
                self.metrics.record(metric, ticks);
                return (Ok(hit), ticks, SourceCounts::default());
            }
        }
        let (res, counts) = source::measure(|| self.system.prepare_capability(cap));
        let ticks = clock.now_ticks().saturating_sub(start);
        self.metrics.record(metric, ticks);
        let res = res.map(Arc::new).map_err(SearchOutcome::Apks);
        if let (Some(cache), Some(key), Ok(prepared)) = (&cache, key, &res) {
            cache.insert(key, prepared.clone());
        }
        (res, ticks, counts)
    }

    /// Full search: admit, then scan the store sequentially.
    ///
    /// # Errors
    ///
    /// Fails if the capability is rejected or malformed.
    pub fn search(
        &self,
        cap: &SignedCapability,
    ) -> Result<(Vec<DocumentId>, SearchStats), SearchOutcome> {
        self.admit(cap)?;
        self.scan(&cap.capability, 1)
    }

    /// Full search with a worker-thread pool (the paper's parallel-search
    /// remark in §VII-B.4).
    ///
    /// # Errors
    ///
    /// Fails if the capability is rejected or malformed.
    pub fn search_parallel(
        &self,
        cap: &SignedCapability,
        threads: usize,
    ) -> Result<(Vec<DocumentId>, SearchStats), SearchOutcome> {
        self.admit(cap)?;
        self.scan(&cap.capability, threads.max(1))
    }

    /// Evaluates an *unsigned* capability — used by benchmarks that are
    /// not measuring the authorization layer.
    ///
    /// The capability's Miller lines are precomputed **once per search**
    /// and shared (by reference) across all workers, so every
    /// per-document pairing runs in the paper's "with preprocessing"
    /// mode (§VII-B.4). The one-time cost is reported in
    /// [`SearchStats::prepare_micros`]. The pairings run on the scan
    /// kernel's evaluate pass with `threads` workers; results and
    /// counters do not depend on `threads`.
    ///
    /// This is the strict path: wall-clocked per-document spans, and a
    /// document the backend cannot materialize fails the whole scan
    /// instead of degrading it — with the failure at the lowest store
    /// position, whatever the worker count. Bounded and fault-tolerant
    /// scans go through [`CloudServer::scan_bounded`] and
    /// [`CloudServer::scan_wave`].
    ///
    /// # Errors
    ///
    /// Fails on deployment mismatch or on the first document the
    /// backend cannot materialize or evaluate.
    pub fn scan(
        &self,
        cap: &Capability,
        threads: usize,
    ) -> Result<(Vec<DocumentId>, SearchStats), SearchOutcome> {
        let scanned = self.store.len();
        let clock = &*self.clock;
        let doc_hist = self.metrics.histogram("cloud.scan.doc_ticks");

        let (prepared, prepare_micros, prep_counts) =
            self.prepare_measured(cap, clock, "cloud.scan.prepare_ticks");
        let prepared = prepared?;

        let ids = self.ids_tail(0, scanned);
        let positions: Vec<usize> = (0..ids.len()).collect();
        let scan_start = clock.now_ticks();
        let (slots, scan_counts) = self.evaluate_pass(&positions, threads, true, &|_, idx| {
            let span = Span::start(clock, &doc_hist);
            let matched = self.system.search_prepared(&self.pk, &prepared, idx);
            span.finish();
            matched.map_err(SearchOutcome::Apks)
        });
        let scan_micros = clock.now_ticks().saturating_sub(scan_start);

        let mut matches = Vec::new();
        for (&id, slot) in ids.iter().zip(slots) {
            // a strict pass fills every slot up to its first failure
            if slot.expect("slot before the first failure")? {
                matches.push(id);
            }
        }
        matches.sort_unstable();

        self.metrics.add("cloud.scans", 1);
        self.metrics.add("cloud.scan.docs", scanned as u64);
        self.metrics.add("cloud.scan.matches", matches.len() as u64);
        self.metrics
            .add("cloud.scan.pairings", scan_counts.pairings);
        self.metrics.add(
            "cloud.scan.miller_loops",
            scan_counts.miller_loops + prep_counts.miller_loops,
        );
        self.metrics
            .add("cloud.scan.predicate_evals", scan_counts.predicate_evals);

        let stats = SearchStats {
            scanned,
            matched: matches.len(),
            prepare_micros,
            scan_micros,
            pairings: scan_counts.pairings as usize,
            ..SearchStats::default()
        };
        Ok((matches, stats))
    }

    /// The evaluate pass shared by every scan: `workers` threads — the
    /// calling thread among them, none spawned for a single position —
    /// draw `positions` from one ordered cursor. Each worker hydrates
    /// its document **while holding the cursor's lock**, so the backend
    /// is touched in exactly the order of a serial walk (the
    /// [`PagedBackend`] LRU and every `cloud.hydrate.*` counter are
    /// those of a one-worker pass), then runs `eval` outside the lock,
    /// so page reads overlap other workers' pairings. `eval` gets the
    /// position's index into `positions`.
    ///
    /// Slot `i` holds the outcome for `positions[i]`; a failed hydration
    /// is `Err(SearchOutcome::Corpus)`. Without `strict` every slot is
    /// filled. With `strict` the first failure stops the cursor: every
    /// earlier position has already been handed out and finishes, so
    /// the first `Err` in slot order is the lowest-position failure, and
    /// slots after it may stay `None`.
    ///
    /// Returns the slots and the sum of each worker's own source-counter
    /// delta, which is exact for any worker count.
    fn evaluate_pass<T: Send>(
        &self,
        positions: &[usize],
        workers: usize,
        strict: bool,
        eval: &(dyn Fn(usize, &EncryptedIndex) -> Result<T, SearchOutcome> + Sync),
    ) -> (Vec<Option<Result<T, SearchOutcome>>>, SourceCounts) {
        /// Next slot to hand out; `stopped` once a strict pass failed.
        struct Cursor {
            next: usize,
            stopped: bool,
        }
        let cursor = Mutex::new(Cursor {
            next: 0,
            stopped: false,
        });
        type Done<T> = Vec<(usize, Result<T, SearchOutcome>)>;
        let work = || -> (Done<T>, SourceCounts) {
            source::measure(|| {
                let mut done = Vec::new();
                loop {
                    let (slot, idx) = {
                        let mut c = cursor.lock();
                        if c.stopped || c.next == positions.len() {
                            break;
                        }
                        let slot = c.next;
                        c.next += 1;
                        (slot, self.store.hydrate(positions[slot]))
                    };
                    let out = idx
                        .map_err(SearchOutcome::Corpus)
                        .and_then(|idx| eval(slot, &idx));
                    if strict && out.is_err() {
                        cursor.lock().stopped = true;
                    }
                    done.push((slot, out));
                }
                done
            })
        };
        let workers = workers.clamp(1, positions.len().max(1));
        let parts: Vec<(Done<T>, SourceCounts)> = if workers == 1 {
            vec![work()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
                let mut parts = vec![work()];
                parts.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("scan worker panicked")),
                );
                parts
            })
        };
        let mut slots: Vec<Option<Result<T, SearchOutcome>>> =
            (0..positions.len()).map(|_| None).collect();
        let mut counts = SourceCounts::default();
        for (done, part_counts) in parts {
            counts += part_counts;
            for (slot, out) in done {
                slots[slot] = Some(out);
            }
        }
        (slots, counts)
    }

    /// Resolves a document's injected fault: whether evaluation may
    /// proceed, the retries spent getting there, and the ticks charged
    /// (slowness + backoff). The fault is a pure function of the
    /// document id, so a wave resolves it **once** per document and
    /// every query in the wave sees the outcome a solo scan would.
    fn resolve_doc_fault(ctx: &FaultContext<'_>, id: DocumentId) -> (bool, usize, u64) {
        match ctx.plan.doc_fault(id) {
            None => (true, 0, 0),
            Some(DocFault::Slow { ticks }) => {
                ctx.clock.advance(ticks);
                (true, 0, ticks)
            }
            Some(DocFault::Flaky { burst }) => {
                // attempts 0..burst fault; each retry backs off
                let mut retries = 0;
                let mut charged = 0u64;
                for attempt in 0..ctx.policy.max_attempts {
                    if attempt >= burst {
                        return (true, retries, charged);
                    }
                    if attempt + 1 < ctx.policy.max_attempts {
                        retries += 1;
                        let backoff = ctx.policy.backoff(attempt, id);
                        ctx.clock.advance(backoff);
                        charged += backoff;
                    }
                }
                (false, retries, charged)
            }
            Some(DocFault::Poisoned) => (false, 0, 0),
        }
    }

    /// Admit, then scan under a deadline and pairing budget — the
    /// overload-protection entry point.
    ///
    /// # Errors
    ///
    /// Fails if the capability is rejected; expiry and exhaustion
    /// degrade the result instead of failing it.
    pub fn search_bounded(
        &self,
        cap: &SignedCapability,
        ctx: &FaultContext<'_>,
        deadline: Deadline,
        budget: &Budget,
        doc_cost_ticks: u64,
    ) -> Result<DegradedScan, SearchOutcome> {
        self.admit(cap)?;
        self.scan_bounded(&cap.capability, ctx, deadline, budget, doc_cost_ticks)
    }

    /// Corpus scan bounded by an absolute [`Deadline`] and a pairing
    /// [`Budget`], under the degraded-mode fault schedule — a wave of
    /// one ([`CloudServer::scan_wave`]) that keeps the per-query
    /// `cloud.scan.*` ledger.
    ///
    /// Per document, the injected [`DocFault`] (a pure function of the
    /// document id) decides the behaviour: slow documents charge virtual
    /// ticks and evaluate; flaky documents are retried under `ctx.policy`
    /// (with backoff charged to the virtual clock) and evaluate once the
    /// burst clears; poisoned documents — and documents whose *real*
    /// hydration or evaluation errors — are skipped and returned in
    /// [`DegradedScan::faulted`]. Matches over the healthy corpus are
    /// exactly what a fault-free scan would return for those documents,
    /// since faults never touch ciphertexts.
    ///
    /// The deadline is re-checked against the virtual clock before
    /// *every* document, and each document reserves its worst-case
    /// pairing cost (`n + 3`) from the budget before evaluating — an
    /// expired or exhausted request stops consuming pairings mid-scan
    /// instead of finishing the corpus. Each evaluated document charges
    /// `doc_cost_ticks` to the virtual clock (the sim's discrete-event
    /// service model), on top of any fault-injected slowness or backoff.
    /// [`Deadline::NEVER`], [`Budget::unlimited`] and `doc_cost_ticks =
    /// 0` give a plain degraded-mode scan.
    ///
    /// Deadline checks read the shared virtual clock, yet the scan uses
    /// every core without letting scheduling move a cut point: a serial
    /// plan pass applies the bounds, charges the clock and resolves the
    /// faults — each a pure function of the document, none reading a
    /// pairing result — and only then do workers evaluate the planned
    /// documents and a serial merge collects the verdicts in document
    /// order, so the result equals the one-worker walk byte for byte.
    /// Everything the scan did *not* do is explicit:
    /// [`DegradedScan::unscanned`] lists the documents never reached,
    /// and [`SearchStats::deadline_expired`] /
    /// [`SearchStats::budget_exhausted`] say why.
    ///
    /// A request whose deadline has already expired on entry performs no
    /// work at all and touches no counter except
    /// `cloud.scan.deadline_expired` — shed work must not dilute the
    /// scan telemetry.
    ///
    /// # Errors
    ///
    /// Fails only if the capability cannot be prepared (deployment
    /// mismatch).
    pub fn scan_bounded(
        &self,
        cap: &Capability,
        ctx: &FaultContext<'_>,
        deadline: Deadline,
        budget: &Budget,
        doc_cost_ticks: u64,
    ) -> Result<DegradedScan, SearchOutcome> {
        let request = WaveRequest {
            cap,
            deadline,
            budget,
        };
        let mut out = self.wave_kernel(
            &[request],
            ctx,
            doc_cost_ticks,
            Ledger::Solo,
            default_workers(),
        )?;
        Ok(out.pop().expect("a wave of one settles one query"))
    }

    /// Admit every capability, then run one batched wave over the
    /// corpus — the multi-query overload entry point.
    ///
    /// # Errors
    ///
    /// Fails if **any** capability is rejected (the wave is all-or-
    /// nothing at admission; shed decisions belong to the admission
    /// controller, before batching).
    pub fn search_batched(
        &self,
        requests: &[(&SignedCapability, Deadline, &Budget)],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        for (cap, _, _) in requests {
            self.admit(cap)?;
        }
        let wave: Vec<WaveRequest<'_>> = requests
            .iter()
            .map(|(cap, deadline, budget)| WaveRequest {
                cap: &cap.capability,
                deadline: *deadline,
                budget,
            })
            .collect();
        self.scan_wave(&wave, ctx, doc_cost_ticks)
    }

    /// Multi-capability batched corpus scan: walks the store **once**,
    /// loads each encrypted index a single time, and evaluates every
    /// query in the wave against it in one lockstep multi-pairing
    /// ([`ApksSystem::search_prepared_wave`]) — one final exponentiation
    /// per (document, capability) group. Identical capabilities in the
    /// wave are deduplicated: their Miller work runs once and the
    /// verdict fans out, though each duplicate still charges its own
    /// [`Budget`].
    ///
    /// Overload bounds stay per-request. Each query's [`Deadline`] is
    /// re-checked and its `Budget` charged (`n + 3` pairings) before
    /// every document, in wave order — a query whose bound dies
    /// mid-wave stops scanning there and reports the tail in its own
    /// [`DegradedScan::unscanned`], while the rest of the wave
    /// continues. The per-document service cost (`doc_cost_ticks`) and
    /// any fault-injected slowness or backoff are charged to the
    /// virtual clock **once per document**, not once per query — that
    /// amortization is the point of batching. Faults are a pure
    /// function of the document id, so every query in the wave sees
    /// the outcome a solo scan would; with [`Deadline::NEVER`]
    /// deadlines a wave's per-query results (matches, faulted,
    /// unscanned, accounting) are exactly those of sequential
    /// [`CloudServer::scan_bounded`] runs, and with live deadlines each
    /// query scans a prefix, so its hits stay a subset of the solo
    /// scan's.
    ///
    /// A query whose deadline has already expired at wave start does no
    /// work at all — its capability is not even prepared unless a live
    /// query shares it. Wave telemetry lands under `cloud.wave.*`
    /// (size, distinct capabilities, measured amortized pairings,
    /// per-query bound cuts) and never under `cloud.scan.*`: that
    /// ledger belongs to solo scans, so every measured pairing is
    /// counted in exactly one of the two namespaces.
    ///
    /// # Errors
    ///
    /// Fails only if some live capability cannot be prepared
    /// (deployment mismatch).
    pub fn scan_wave(
        &self,
        requests: &[WaveRequest<'_>],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        self.wave_kernel(
            requests,
            ctx,
            doc_cost_ticks,
            Ledger::Wave,
            default_workers(),
        )
    }

    /// The one fault-, deadline- and budget-aware corpus walk behind
    /// [`CloudServer::scan_wave`] and [`CloudServer::scan_bounded`];
    /// `ledger` picks the telemetry namespace and `workers` caps the
    /// evaluate pass's threads (results never depend on it).
    ///
    /// Three passes: a serial *plan* walk applies every bound, clock
    /// charge and fault — all pure functions of the document — and
    /// lists the documents to evaluate; the *evaluate* pass runs their
    /// pairings on [`CloudServer::evaluate_pass`]; a serial *merge*
    /// fans the verdicts out in document order.
    fn wave_kernel(
        &self,
        requests: &[WaveRequest<'_>],
        ctx: &FaultContext<'_>,
        doc_cost_ticks: u64,
        ledger: Ledger,
        workers: usize,
    ) -> Result<Vec<DegradedScan>, SearchOutcome> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let total = self.store.len();
        let clock: &dyn Clock = ctx.clock;
        let entry = clock.now_ticks();
        let doc_pairings = (self.system.n() + 3) as u64;

        /// Per-query scan state.
        struct QState {
            /// Index into the distinct-capability table.
            cap_idx: usize,
            /// Expired before the wave started: no work, no preparation.
            dead_at_entry: bool,
            matches: Vec<DocumentId>,
            faulted: Vec<DocumentId>,
            /// Store position where a bound cut the scan; `None` while
            /// the query is still scanning.
            cut_pos: Option<usize>,
            deadline_expired: bool,
            budget_exhausted: bool,
            retries: usize,
            /// Documents actually evaluated (each costs `n + 3`
            /// logical pairings against this query's budget).
            evals: usize,
        }

        // Deduplicate capabilities (waves are small; linear scan).
        let mut distinct: Vec<&Capability> = Vec::new();
        let mut states: Vec<QState> = requests
            .iter()
            .map(|req| {
                let cap_idx = match distinct.iter().position(|c| *c == req.cap) {
                    Some(i) => i,
                    None => {
                        distinct.push(req.cap);
                        distinct.len() - 1
                    }
                };
                let dead_at_entry = req.deadline.expired_at(entry);
                QState {
                    cap_idx,
                    dead_at_entry,
                    matches: Vec::new(),
                    faulted: Vec::new(),
                    cut_pos: if dead_at_entry { Some(0) } else { None },
                    deadline_expired: dead_at_entry,
                    budget_exhausted: false,
                    retries: 0,
                    evals: 0,
                }
            })
            .collect();

        let settle = |q: QState, prepare_micros: u64, scan_micros: u64| {
            let unscanned: Vec<DocumentId> = match q.cut_pos {
                Some(pos) => self.ids_tail(pos, total),
                None => Vec::new(),
            };
            let stats = SearchStats {
                scanned: total - unscanned.len(),
                matched: q.matches.len(),
                prepare_micros,
                scan_micros,
                pairings: q.evals * doc_pairings as usize,
                faulted_docs: q.faulted.len(),
                retries: q.retries,
                degraded: !q.faulted.is_empty() || !unscanned.is_empty(),
                deadline_expired: q.deadline_expired,
                budget_exhausted: q.budget_exhausted,
                unscanned_docs: unscanned.len(),
            };
            DegradedScan {
                matches: q.matches,
                faulted: q.faulted,
                unscanned,
                stats,
            }
        };

        // A solo scan already expired on entry does no work and touches
        // no counter but `cloud.scan.deadline_expired`: shed work must
        // not dilute the scan telemetry.
        if ledger == Ledger::Solo && states[0].dead_at_entry {
            self.metrics.add("cloud.scan.deadline_expired", 1);
            return Ok(states.into_iter().map(|q| settle(q, 0, 0)).collect());
        }

        // A solo scan registers its per-document histogram before
        // preparing, a wave only after: both ledgers keep their names
        // even when a preparation fails.
        let doc_ticks = ledger.name("doc_ticks");
        let solo_hist = (ledger == Ledger::Solo).then(|| self.metrics.histogram(&doc_ticks));

        // Prepare each distinct capability once — but only those some
        // live query needs (a wave of dead queries does no crypto).
        let mut prepared: Vec<Option<Arc<PreparedCapability>>> =
            (0..distinct.len()).map(|_| None).collect();
        let mut prep_ticks: Vec<u64> = vec![0; distinct.len()];
        let mut prep_counts = SourceCounts::default();
        for q in states.iter().filter(|q| q.cut_pos.is_none()) {
            if prepared[q.cap_idx].is_some() {
                continue;
            }
            let (res, ticks, counts) =
                self.prepare_measured(distinct[q.cap_idx], clock, &ledger.name("prepare_ticks"));
            prep_counts += counts;
            prep_ticks[q.cap_idx] = ticks;
            prepared[q.cap_idx] = Some(res?);
        }

        /// One document the plan pass reached.
        struct Planned {
            pos: usize,
            id: DocumentId,
            /// Live queries that reached the document, in wave order.
            survivors: Vec<usize>,
            /// Retries spent resolving the document's injected fault.
            retries: usize,
            /// Distinct capability slots among the survivors, in
            /// first-survivor order — duplicates ride along on one
            /// evaluation. `None` when the injected fault skips the
            /// document.
            caps: Option<Vec<usize>>,
        }

        // Plan: the serial walk without hydration or pairings. Nothing
        // here reads an evaluation result, so the cut points, clock and
        // budgets are those of a walk that evaluates as it goes.
        let doc_hist = solo_hist.unwrap_or_else(|| self.metrics.histogram(&doc_ticks));
        let mut planned: Vec<Planned> = Vec::new();
        let scan_start = clock.now_ticks();
        for pos in 0..total {
            let Some(id) = self.store.doc_id(pos) else {
                break;
            };
            // Each live query's bounds, in wave order — the same
            // deadline-then-budget order a solo scan applies.
            let mut survivors: Vec<usize> = Vec::new();
            for (qi, q) in states.iter_mut().enumerate() {
                if q.cut_pos.is_some() {
                    continue;
                }
                if requests[qi].deadline.expired_at(clock.now_ticks()) {
                    q.deadline_expired = true;
                } else if !requests[qi].budget.try_charge(doc_pairings) {
                    q.budget_exhausted = true;
                } else {
                    survivors.push(qi);
                    continue;
                }
                q.cut_pos = Some(pos);
            }
            if survivors.is_empty() {
                break;
            }
            // One load + one service charge for the whole wave.
            ctx.clock.advance(doc_cost_ticks);
            let (evaluable, retries, charged) = Self::resolve_doc_fault(ctx, id);
            doc_hist.record(charged + doc_cost_ticks);
            let caps = evaluable.then(|| {
                let mut caps: Vec<usize> = Vec::new();
                for &qi in &survivors {
                    if !caps.contains(&states[qi].cap_idx) {
                        caps.push(states[qi].cap_idx);
                    }
                }
                caps
            });
            planned.push(Planned {
                pos,
                id,
                survivors,
                retries,
                caps,
            });
        }

        // Evaluate: one hydration and one lockstep multi-pairing per
        // evaluable document, for the whole wave. `Ok(None)` is an
        // evaluation error; both it and a failed hydration degrade the
        // document for its survivors exactly like an injected fault.
        let jobs: Vec<&Planned> = planned.iter().filter(|p| p.caps.is_some()).collect();
        let positions: Vec<usize> = jobs.iter().map(|p| p.pos).collect();
        let (slots, scan_counts) = self.evaluate_pass(&positions, workers, false, &|job, idx| {
            let caps = jobs[job].caps.as_deref().expect("jobs are evaluable");
            let cap_refs: Vec<&PreparedCapability> = caps
                .iter()
                .map(|&ci| {
                    &**prepared[ci]
                        .as_ref()
                        .expect("live query's capability prepared")
                })
                .collect();
            Ok(self
                .system
                .search_prepared_wave(&self.pk, &cap_refs, idx)
                .ok())
        });

        // Merge, in document order.
        let mut slots = slots.into_iter();
        let mut shared_evals = 0u64;
        for p in &planned {
            let verdicts = p.caps.as_ref().and_then(|caps| {
                match slots
                    .next()
                    .flatten()
                    .expect("a lenient pass fills every slot")
                {
                    Ok(verdicts) => {
                        shared_evals += (p.survivors.len() - caps.len()) as u64;
                        verdicts.map(|v| (caps, v))
                    }
                    Err(_) => None,
                }
            });
            for &qi in &p.survivors {
                let q = &mut states[qi];
                q.retries += p.retries;
                match &verdicts {
                    Some((caps, verdicts)) => {
                        let slot = caps
                            .iter()
                            .position(|&ci| ci == q.cap_idx)
                            .expect("survivor's capability in wave");
                        q.evals += 1;
                        if verdicts[slot] {
                            q.matches.push(p.id);
                        }
                    }
                    None => q.faulted.push(p.id),
                }
            }
        }
        let scan_micros = clock.now_ticks().saturating_sub(scan_start);

        let out: Vec<DegradedScan> = states
            .into_iter()
            .map(|q| {
                if q.dead_at_entry {
                    settle(q, 0, 0)
                } else {
                    let prepare_micros = prep_ticks[q.cap_idx];
                    settle(q, prepare_micros, scan_micros)
                }
            })
            .collect();

        let m = &self.metrics;
        match ledger {
            Ledger::Solo => {
                let d = &out[0];
                m.add("cloud.scans", 1);
                m.add("cloud.scan.docs", d.stats.scanned as u64);
                m.add("cloud.scan.matches", d.matches.len() as u64);
                m.add("cloud.scan.retries", d.stats.retries as u64);
                m.add("cloud.scan.faulted_docs", d.faulted.len() as u64);
                if !d.faulted.is_empty() {
                    m.add("cloud.scan.degraded_scans", 1);
                }
            }
            Ledger::Wave => {
                m.add("cloud.wave.scans", 1);
                m.record("cloud.wave.size", requests.len() as u64);
                m.record("cloud.wave.distinct_caps", distinct.len() as u64);
                m.add("cloud.wave.docs", planned.len() as u64);
                m.add("cloud.wave.shared_evals", shared_evals);
                m.record(
                    "cloud.wave.amortized_pairings_per_query",
                    scan_counts.pairings / requests.len() as u64,
                );
            }
        }
        m.add(&ledger.name("pairings"), scan_counts.pairings);
        m.add(
            &ledger.name("miller_loops"),
            scan_counts.miller_loops + prep_counts.miller_loops,
        );
        m.add(&ledger.name("predicate_evals"), scan_counts.predicate_evals);
        // per-query bound cuts, written only when some query was cut
        let cuts = |metric: &str, n: usize| {
            if n > 0 {
                m.add(&ledger.name(metric), n as u64);
            }
        };
        cuts(
            "deadline_expired",
            out.iter().filter(|d| d.stats.deadline_expired).count(),
        );
        cuts(
            "budget_exhausted",
            out.iter().filter(|d| d.stats.budget_exhausted).count(),
        );
        cuts(
            "unscanned_docs",
            out.iter().map(|d| d.unscanned.len()).sum(),
        );
        Ok(out)
    }

    /// The deployment's public key (public information).
    pub fn public_key(&self) -> &ApksPublicKey {
        &self.pk
    }

    /// The system context (public information).
    pub fn system(&self) -> &ApksSystem {
        &self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apks_authz::{AttributeDirectory, Eligibility, EligibilityRules, TrustedAuthority};
    use apks_core::{FieldValue, Query, QueryPolicy, Record, Schema};
    use apks_curve::CurveParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment() -> (CloudServer, TrustedAuthority, StdRng) {
        let schema = Schema::builder()
            .flat_field("illness", 1)
            .flat_field("sex", 1)
            .build()
            .unwrap();
        let sys = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(1100);
        let ta = TrustedAuthority::setup(sys, &mut rng);
        let server = CloudServer::new(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
        );
        server.register_authority("ta");
        (server, ta, rng)
    }

    fn upload_corpus(
        server: &CloudServer,
        ta: &TrustedAuthority,
        rng: &mut StdRng,
    ) -> Vec<DocumentId> {
        let sys = ta.system();
        let pk = ta.public_key();
        let mut ids = Vec::new();
        for (illness, sex) in [
            ("flu", "female"),
            ("flu", "male"),
            ("diabetes", "female"),
            ("cancer", "male"),
            ("flu", "female"),
        ] {
            let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
            ids.push(server.upload(sys.gen_index(pk, &rec, rng).unwrap()));
        }
        ids
    }

    #[test]
    fn signed_search_returns_matches() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new()
                    .equals("illness", "flu")
                    .equals("sex", "female"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let (hits, stats) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[0], ids[4]]);
        assert_eq!(stats.scanned, 5);
        assert_eq!(stats.matched, 2);
    }

    #[test]
    fn upload_assigned_overwrites_duplicates_in_place() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let sys = ta.system();
        let pk = ta.public_key();
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "measles"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        assert!(server.search(&cap).unwrap().0.is_empty());

        // overwrite the middle document: not fresh, corpus size and
        // scan order unchanged, new ciphertext visible exactly once
        let rec = Record::new(vec![FieldValue::text("measles"), FieldValue::text("male")]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert!(!server.upload_assigned(ids[2], idx));
        assert_eq!(server.len(), ids.len());
        assert_eq!(server.doc_ids(), ids);
        let (hits, stats) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[2]]);
        assert_eq!(stats.matched, 1);

        // a genuinely new id is fresh and lands at the end of the scan
        let rec = Record::new(vec![
            FieldValue::text("measles"),
            FieldValue::text("female"),
        ]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert!(server.upload_assigned(99, idx));
        assert_eq!(server.len(), ids.len() + 1);
        assert_eq!(*server.doc_ids().last().unwrap(), 99);
        let (hits, _) = server.search(&cap).unwrap();
        assert_eq!(hits, vec![ids[2], 99]);
        // and the bumped counter keeps future uploads collision-free
        let rec = Record::new(vec![FieldValue::text("flu"), FieldValue::text("male")]);
        let idx = sys.gen_index(pk, &rec, &mut rng).unwrap();
        assert_eq!(server.upload(idx), 100);
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let (seq, _) = server.search(&cap).unwrap();
        let (par, _) = server.search_parallel(&cap, 4).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn prepared_and_plain_scan_agree_across_thread_counts() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let n0 = ta.system().n() + 3;
        // the unprepared baseline: one plain multi-pairing per document
        let baseline: Vec<DocumentId> = server
            .doc_ids()
            .into_iter()
            .filter(|&id| {
                let idx = server.document(id).unwrap().unwrap();
                ta.system()
                    .search(ta.public_key(), &cap.capability, &idx)
                    .unwrap()
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let (hits, stats) = server.scan(&cap.capability, threads).unwrap();
            assert_eq!(hits, baseline, "results diverged (threads={threads})");
            assert_eq!(stats.scanned, server.len());
            assert_eq!(stats.matched, baseline.len());
            assert_eq!(stats.pairings, stats.scanned * n0);
        }
    }

    use apks_core::fault::{FaultConfig, FaultPlan, RetryPolicy, VirtualClock};

    #[test]
    fn unpreparable_capability_is_an_error_not_a_panic() {
        // `G1Affine::from_bytes` accepts the on-curve 2-torsion point
        // (0, 0); in a capability it must fail preparation, not the
        // server thread
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let mut cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap()
            .capability;
        let fp = ta.system().params().fp();
        cap.key.dec.0[2] = apks_curve::G1Affine::new_unchecked(fp.zero(), fp.zero());
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let unpreparable = |res: Result<_, SearchOutcome>| {
            matches!(
                res,
                Err(SearchOutcome::Apks(ApksError::Hpe(
                    apks_hpe::HpeError::UnpreparableKey
                )))
            )
        };
        assert!(unpreparable(
            server
                .scan_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
                .map(|_| ())
        ));
        assert!(unpreparable(server.scan(&cap, 2).map(|_| ())));
    }

    #[test]
    fn degraded_scan_without_faults_equals_plain_scan() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert_eq!(degraded.matches, plain);
        assert!(degraded.faulted.is_empty());
        assert!(!degraded.stats.degraded);
        assert_eq!(degraded.stats.retries, 0);
        assert_eq!(clock.now(), 0);
    }

    #[test]
    fn poisoned_docs_are_skipped_and_reported_never_silently_dropped() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 31,
            poisoned_doc_permille: 400,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let poisoned: Vec<DocumentId> = ids
            .iter()
            .copied()
            .filter(|&id| plan.doc_fault(id).is_some())
            .collect();
        assert!(
            !poisoned.is_empty() && poisoned.len() < ids.len(),
            "seed must poison a strict subset; got {poisoned:?}"
        );
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert_eq!(degraded.faulted, poisoned);
        assert_eq!(degraded.stats.faulted_docs, poisoned.len());
        assert!(degraded.stats.degraded);
        // healthy corpus answers exactly as the fault-free scan does
        let expected: Vec<DocumentId> = plain
            .iter()
            .copied()
            .filter(|id| !poisoned.contains(id))
            .collect();
        assert_eq!(degraded.matches, expected);
        // subset property + full accounting: every document is either
        // evaluated or explicitly faulted
        assert!(degraded.matches.iter().all(|id| plain.contains(id)));
        assert_eq!(
            degraded.stats.pairings,
            (degraded.stats.scanned - poisoned.len()) * (ta.system().n() + 3)
        );
    }

    #[test]
    fn flaky_docs_recover_with_retries_and_slow_docs_charge_the_clock() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 8,
            flaky_doc_permille: 600,
            slow_doc_permille: 400,
            max_fault_burst: 2,
            slow_doc_ticks: 5,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let degraded = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        // bursts (≤2) fit the budget (4): everything recovers
        assert_eq!(degraded.matches, plain);
        assert!(degraded.faulted.is_empty());
        assert!(!degraded.stats.degraded);
        assert!(degraded.stats.retries > 0, "flaky docs must retry");
        assert!(clock.now() > 0, "backoff + slowness on the virtual clock");
    }

    #[test]
    fn degraded_scan_is_deterministic_across_runs() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            poisoned_doc_permille: 300,
            flaky_doc_permille: 300,
            slow_doc_permille: 300,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let run = || {
            let clock = VirtualClock::new();
            let ctx = FaultContext::new(&plan, &policy, &clock);
            let d = server
                .search_bounded(&cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
                .unwrap();
            (d.matches, d.faulted, d.stats.retries, clock.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_pairing_counts_match_legacy_stats() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let n0 = ta.system().n() + 3;
        let (_, stats) = server.search_parallel(&cap, 4).unwrap();
        let snap = server.metrics_snapshot();
        // the measured counter reproduces the legacy closed-form value
        assert_eq!(stats.pairings, stats.scanned * n0);
        assert_eq!(
            snap.counter("cloud.scan.pairings"),
            Some(stats.pairings as u64)
        );
        assert_eq!(snap.counter("cloud.scans"), Some(1));
        assert_eq!(snap.counter("cloud.scan.docs"), Some(stats.scanned as u64));
        assert_eq!(
            snap.counter("cloud.scan.predicate_evals"),
            Some(stats.scanned as u64)
        );
        // prepared scan: Miller loops spent once at preparation
        assert_eq!(snap.counter("cloud.scan.miller_loops"), Some(n0 as u64));
        // one latency observation per scanned document
        assert_eq!(
            snap.histogram("cloud.scan.doc_ticks").unwrap().count,
            stats.scanned as u64
        );
        // a second scan keeps accumulating
        let (_, stats2) = server.search(&cap).unwrap();
        let snap2 = server.metrics_snapshot();
        assert_eq!(
            snap2.counter("cloud.scan.pairings"),
            Some((stats.pairings + stats2.pairings) as u64)
        );
        assert_eq!(snap2.counter("cloud.scans"), Some(2));
    }

    #[test]
    fn bounded_scan_with_no_limits_matches_plain_scan() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let budget = Budget::unlimited();
        let (plain, _) = server.search(&cap).unwrap();
        let d = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &budget, 3)
            .unwrap();
        assert_eq!(d.matches, plain);
        assert!(d.faulted.is_empty() && d.unscanned.is_empty());
        assert!(!d.stats.deadline_expired && !d.stats.budget_exhausted);
        assert!(!d.stats.degraded);
        assert_eq!(d.stats.scanned, 5);
        assert_eq!(clock.now(), 15, "5 docs x 3 ticks each");
        assert!(budget.is_unlimited(), "unlimited budgets are never drawn");
    }

    #[test]
    fn already_expired_deadline_consumes_nothing() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        clock.advance(100);
        let budget = Budget::pairings(10_000);
        let before = budget.remaining();
        let d = server
            .search_bounded(&cap, &ctx, Deadline::at(50), &budget, 3)
            .unwrap();
        assert!(d.matches.is_empty() && d.faulted.is_empty());
        assert_eq!(d.unscanned, ids, "every document is explicitly unscanned");
        assert!(d.stats.deadline_expired);
        assert_eq!(d.stats.scanned, 0);
        assert_eq!(d.stats.pairings, 0, "no pairing was spent");
        assert_eq!(budget.remaining(), before, "no budget was drawn");
        assert_eq!(clock.now(), 100, "no service time was charged");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.deadline_expired"), Some(1));
        assert_eq!(
            snap.counter("cloud.scans"),
            None,
            "shed work must not dilute the scan telemetry"
        );
    }

    #[test]
    fn mid_scan_deadline_stops_pairing_spend() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let n0 = ta.system().n() + 3;
        let (plain, _) = server.search(&cap).unwrap();
        let snap_before = server.metrics_snapshot();
        // docs are checked at ticks 0, 10, 20, 30: the deadline at 25
        // admits three documents and cuts the last two off
        let d = server
            .search_bounded(&cap, &ctx, Deadline::at(25), &Budget::unlimited(), 10)
            .unwrap();
        assert_eq!(d.stats.scanned, 3);
        assert_eq!(d.unscanned.len(), 2);
        assert!(d.stats.deadline_expired);
        assert!(!d.stats.budget_exhausted);
        assert!(d.stats.degraded);
        assert_eq!(d.stats.pairings, 3 * n0, "only evaluated docs paid");
        assert!(
            d.matches.iter().all(|id| plain.contains(id)),
            "partial matches are a subset of the full scan"
        );
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.deadline_expired"), Some(1));
        assert_eq!(snap.counter("cloud.scan.unscanned_docs"), Some(2));
        assert_eq!(
            snap.counter("cloud.scan.docs"),
            Some(snap_before.counter("cloud.scan.docs").unwrap() + 3)
        );
    }

    #[test]
    fn budget_exhaustion_stops_scan_with_explicit_accounting() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let n0 = ta.system().n() + 3;
        // budget for exactly two documents
        let budget = Budget::pairings((2 * n0) as u64);
        let d = server
            .search_bounded(&cap, &ctx, Deadline::NEVER, &budget, 1)
            .unwrap();
        assert_eq!(d.stats.scanned, 2);
        assert!(d.stats.budget_exhausted);
        assert!(!d.stats.deadline_expired);
        assert_eq!(d.unscanned.len(), 3);
        assert_eq!(budget.remaining(), 0);
        assert_eq!(d.stats.pairings, 2 * n0);
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scan.budget_exhausted"), Some(1));
        assert_eq!(snap.counter("cloud.scan.unscanned_docs"), Some(3));
    }

    #[test]
    fn unknown_issuer_rejected() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let mut cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        cap.issuer = "lta:rogue".into();
        assert!(matches!(
            server.search(&cap),
            Err(SearchOutcome::UnknownIssuer(_))
        ));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let good = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let other = ta
            .issue_capability(
                &Query::new().equals("illness", "cancer"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        // graft flu's signature onto cancer's capability
        let forged = SignedCapability {
            capability: other.capability.clone(),
            issuer: good.issuer.clone(),
            signature: good.signature.clone(),
        };
        assert_eq!(server.search(&forged), Err(SearchOutcome::BadSignature));
    }

    #[test]
    fn lta_issued_capability_accepted_after_registration() {
        let schema = Schema::builder()
            .flat_field("provider", 1)
            .flat_field("illness", 1)
            .build()
            .unwrap();
        let sys = ApksSystem::new(CurveParams::fast(), schema);
        let mut rng = StdRng::seed_from_u64(1101);
        let mut ta = TrustedAuthority::setup(sys, &mut rng);
        let server = CloudServer::new(
            ta.system().clone(),
            ta.public_key().clone(),
            ta.ibs_params().clone(),
        );
        let mut dir = AttributeDirectory::new();
        dir.register_user("alice", [("illness", FieldValue::text("flu"))]);
        let lta = ta
            .register_lta(
                "lta:h",
                &Query::new().equals("provider", "h"),
                dir,
                EligibilityRules::with_default(Eligibility::OwnsValue),
                QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let sys = ta.system().clone();
        let pk = ta.public_key().clone();
        let cap = lta
            .request_capability(
                &sys,
                &pk,
                "alice",
                &Query::new().equals("illness", "flu"),
                &mut rng,
            )
            .unwrap();
        // not yet registered
        assert!(matches!(
            server.search(&cap),
            Err(SearchOutcome::UnknownIssuer(_))
        ));
        server.register_authority("lta:h");
        let rec = Record::new(vec![FieldValue::text("h"), FieldValue::text("flu")]);
        server.upload(sys.gen_index(&pk, &rec, &mut rng).unwrap());
        let (hits, _) = server.search(&cap).unwrap();
        assert_eq!(hits.len(), 1);
    }

    /// The solo and wave ledgers never overlap: a solo bounded scan
    /// writes no `cloud.wave.*` metric, a wave no `cloud.scan.*` one,
    /// and together their measured pairings are exactly what the
    /// queries were billed — the sum a per-query pairing figure divides.
    #[test]
    fn solo_and_wave_ledgers_split_the_pairings() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let caps: Vec<SignedCapability> = ["flu", "cancer"]
            .into_iter()
            .map(|illness| {
                ta.issue_capability(
                    &Query::new().equals("illness", illness),
                    &QueryPolicy::default(),
                    &mut rng,
                )
                .unwrap()
            })
            .collect();
        let n0 = (ta.system().n() + 3) as u64;
        let plan = FaultPlan::new(FaultConfig {
            seed: 31,
            poisoned_doc_permille: 400,
            flaky_doc_permille: 300,
            ..FaultConfig::default()
        });
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let ledger = |prefix: &str| -> Vec<(String, apks_telemetry::Metric)> {
            let snap = server.metrics_snapshot();
            snap.entries()
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .cloned()
                .collect()
        };
        let mut billed = 0;
        for round in 0..3 {
            // a live solo scan, then one already dead on entry
            let waves_before = ledger("cloud.wave.");
            for deadline in [Deadline::NEVER, Deadline::at(clock.now())] {
                let d = server
                    .search_bounded(&caps[round % 2], &ctx, deadline, &Budget::unlimited(), 1)
                    .unwrap();
                billed += d.stats.pairings;
            }
            assert_eq!(ledger("cloud.wave."), waves_before, "round {round}");
            // distinct capabilities, so no evaluation is shared, and one
            // budget that dies mid-wave
            let scans_before = ledger("cloud.scan");
            let (b0, b1) = (Budget::unlimited(), Budget::pairings(2 * n0));
            let wave = server
                .search_batched(
                    &[
                        (&caps[0], Deadline::NEVER, &b0),
                        (&caps[1], Deadline::NEVER, &b1),
                    ],
                    &ctx,
                    1,
                )
                .unwrap();
            billed += wave.iter().map(|d| d.stats.pairings).sum::<usize>();
            assert_eq!(ledger("cloud.scan"), scans_before, "round {round}");
        }
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.scans"), Some(3));
        assert_eq!(snap.counter("cloud.scan.deadline_expired"), Some(3));
        assert_eq!(snap.counter("cloud.wave.scans"), Some(3));
        assert_eq!(snap.counter("cloud.wave.budget_exhausted"), Some(3));
        let measured = snap.counter("cloud.scan.pairings").unwrap()
            + snap.counter("cloud.wave.pairings").unwrap();
        assert_eq!(measured, billed as u64);
    }

    #[test]
    fn wave_shares_evaluations_between_identical_capabilities() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let b1 = Budget::unlimited();
        let b2 = Budget::unlimited();
        // the SAME capability submitted twice (a re-issued query has
        // fresh randomness and would not dedup)
        let wave = server
            .search_batched(
                &[(&cap, Deadline::NEVER, &b1), (&cap, Deadline::NEVER, &b2)],
                &ctx,
                3,
            )
            .unwrap();
        assert_eq!(wave[0].matches, wave[1].matches);
        let (plain, _) = server.search(&cap).unwrap();
        assert_eq!(wave[0].matches, plain);
        // both queries are billed, but the crypto ran once per document
        assert_eq!(wave[0].stats.pairings, wave[1].stats.pairings);
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.wave.shared_evals"), Some(5));
        assert_eq!(clock.now(), 15, "5 docs x 3 ticks, charged once per doc");
    }

    #[test]
    fn empty_wave_is_free() {
        let (server, _, _) = deployment();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let out = server.scan_wave(&[], &ctx, 3).unwrap();
        assert!(out.is_empty());
        assert_eq!(server.metrics_snapshot().counter("cloud.wave.scans"), None);
    }

    #[test]
    fn dead_at_entry_query_rides_the_wave_without_work() {
        let (server, ta, mut rng) = deployment();
        let ids = upload_corpus(&server, &ta, &mut rng);
        let live = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let dead = ta
            .issue_capability(
                &Query::new().equals("illness", "cancer"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        clock.advance(100);
        let dead_budget = Budget::pairings(10_000);
        let before = dead_budget.remaining();
        let live_budget = Budget::unlimited();
        let wave = server
            .search_batched(
                &[
                    (&live, Deadline::NEVER, &live_budget),
                    (&dead, Deadline::at(50), &dead_budget),
                ],
                &ctx,
                3,
            )
            .unwrap();
        // the live query is untouched by its neighbour's expiry
        let (plain, _) = server.search(&live).unwrap();
        assert_eq!(wave[0].matches, plain);
        assert!(!wave[0].stats.deadline_expired);
        // the dead query consumed nothing
        let d = &wave[1];
        assert!(d.matches.is_empty() && d.faulted.is_empty());
        assert_eq!(d.unscanned, ids);
        assert!(d.stats.deadline_expired);
        assert_eq!(d.stats.scanned, 0);
        assert_eq!(d.stats.pairings, 0);
        assert_eq!(d.stats.prepare_micros, 0);
        assert_eq!(dead_budget.remaining(), before, "no budget was drawn");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("cloud.wave.deadline_expired"), Some(1));
    }

    #[test]
    fn mid_wave_deadline_scans_a_prefix_and_hits_stay_a_subset() {
        let (server, ta, mut rng) = deployment();
        upload_corpus(&server, &ta, &mut rng);
        let cap = ta
            .issue_capability(
                &Query::new().equals("illness", "flu"),
                &QueryPolicy::default(),
                &mut rng,
            )
            .unwrap();
        let plan = FaultPlan::new(FaultConfig::default());
        let policy = RetryPolicy::default();
        let clock = VirtualClock::new();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let (plain, _) = server.search(&cap).unwrap();
        let hurried = Budget::unlimited();
        let patient = Budget::unlimited();
        // docs are checked at ticks 0, 10, 20, 30: the deadline at 25
        // admits three documents and cuts the last two off
        let wave = server
            .search_batched(
                &[
                    (&cap, Deadline::at(25), &hurried),
                    (&cap, Deadline::NEVER, &patient),
                ],
                &ctx,
                10,
            )
            .unwrap();
        assert_eq!(wave[0].stats.scanned, 3);
        assert_eq!(wave[0].unscanned.len(), 2);
        assert!(wave[0].stats.deadline_expired && wave[0].stats.degraded);
        assert!(wave[0].matches.iter().all(|id| plain.contains(id)));
        assert_eq!(wave[1].matches, plain, "the patient query finishes");
        assert!(!wave[1].stats.deadline_expired);
    }

    /// Corpus, capabilities and sizes shared by the worker-count tests.
    struct WorkerFixture {
        ta: TrustedAuthority,
        docs: Vec<EncryptedIndex>,
        caps: Vec<Capability>,
        /// Canonical payload bytes of one stored index.
        doc_bytes: usize,
    }

    impl WorkerFixture {
        /// Paged corpora keep about two documents per page, so one
        /// corrupt page faults a strict subset of the corpus.
        fn store_config(&self) -> StoreConfig {
            StoreConfig {
                page_size: (2 * self.doc_bytes + 128)
                    .clamp(apks_store::MIN_PAGE_SIZE, apks_store::MAX_PAGE_SIZE),
                ..StoreConfig::default()
            }
        }
    }

    fn worker_fixture() -> &'static WorkerFixture {
        static FX: OnceLock<WorkerFixture> = OnceLock::new();
        FX.get_or_init(|| {
            let (_, ta, mut rng) = deployment();
            let (sys, pk) = (ta.system(), ta.public_key());
            let docs: Vec<EncryptedIndex> = (0..10)
                .map(|i| {
                    let illness = ["flu", "diabetes", "cancer"][i % 3];
                    let sex = ["female", "male"][i % 2];
                    let rec = Record::new(vec![FieldValue::text(illness), FieldValue::text(sex)]);
                    sys.gen_index(pk, &rec, &mut rng).unwrap()
                })
                .collect();
            let caps = ["flu", "diabetes", "cancer"]
                .into_iter()
                .map(|illness| {
                    ta.issue_capability(
                        &Query::new().equals("illness", illness),
                        &QueryPolicy::default(),
                        &mut rng,
                    )
                    .unwrap()
                    .capability
                })
                .collect();
            let mut w = Writer::new();
            docs[0].encode(sys.params(), &mut w);
            let doc_bytes = w.finish().len();
            WorkerFixture {
                ta,
                docs,
                caps,
                doc_bytes,
            }
        })
    }

    /// A scratch directory removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new() -> ScratchDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "apks-cloud-workers-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A backend that logs the position of every hydration as it
    /// completes. Each hydration first takes a page read's worth of
    /// time, so hydrations that were not serialized in cursor order
    /// would show up out of order in the log.
    struct TouchLog {
        inner: Box<dyn CorpusBackend>,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl CorpusBackend for TouchLog {
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
            let out = self.inner.hydrate(pos);
            std::thread::sleep(std::time::Duration::from_micros(200));
            self.log.lock().push(pos);
            out
        }
    }

    /// A fresh server over the fixture corpus with its own registry,
    /// in memory or — with `paged` — on disk behind an LRU that holds
    /// a third of the corpus, plus its backend's hydration log.
    fn worker_server(
        paged: Option<&Path>,
        clock: Arc<VirtualClock>,
    ) -> (CloudServer, Arc<Mutex<Vec<usize>>>) {
        let fx = worker_fixture();
        let (sys, pk, ibs) = (fx.ta.system(), fx.ta.public_key(), fx.ta.ibs_params());
        let metrics = Arc::new(MetricsRegistry::new());
        let inner: Box<dyn CorpusBackend> = match paged {
            None => Box::new(MemoryBackend::new()),
            Some(dir) => Box::new(
                PagedBackend::open(
                    sys.clone(),
                    dir,
                    fx.store_config(),
                    HydrateConfig {
                        cache_budget_bytes: fx.doc_bytes * fx.docs.len() / 3,
                    },
                    metrics.clone(),
                    clock.clone(),
                )
                .unwrap(),
            ),
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let backend = TouchLog {
            inner,
            log: log.clone(),
        };
        let server = CloudServer::with_backend(
            sys.clone(),
            pk.clone(),
            ibs.clone(),
            metrics,
            clock,
            Box::new(backend),
        );
        server.upload_many(fx.docs.clone());
        (server, log)
    }

    /// One worker-count case: the fault plan, the wave (capability,
    /// deadline tick or `None`, budget in documents or `None`), the
    /// ledger, the per-document service cost, and the corpus: in
    /// memory, paged, or paged with its middle page corrupted on disk
    /// after the store opened.
    struct WorkerCase {
        faults: FaultConfig,
        queries: Vec<(usize, Option<u64>, Option<u64>)>,
        ledger: Ledger,
        doc_cost_ticks: u64,
        paged: bool,
        corrupt: bool,
    }

    /// What one run of a case produced: the per-query results, the
    /// canonical metrics bytes and the hydration log after the kernel,
    /// and a strict scan of the first capability run after it.
    type WorkerRun = (
        Vec<DegradedScan>,
        Vec<u8>,
        Vec<usize>,
        Result<(Vec<DocumentId>, SearchStats), SearchOutcome>,
    );

    /// Flips one cell byte of the middle page of the store's single
    /// segment, so that page fails its checksum on the next read.
    fn corrupt_middle_page(dir: &Path) {
        let segments: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(segments.len(), 1, "{segments:?}");
        let page = worker_fixture().store_config().page_size;
        let mut bytes = std::fs::read(&segments[0]).unwrap();
        let pages = (bytes.len() - apks_store::SEGMENT_HEADER_LEN) / page;
        assert!(pages >= 3, "want a middle page; got {pages}");
        bytes[apks_store::SEGMENT_HEADER_LEN + (pages / 2 + 1) * page - 10] ^= 0x01;
        std::fs::write(&segments[0], &bytes).unwrap();
    }

    /// Runs `case` on a fresh server with `workers` evaluate workers.
    fn run_workers(case: &WorkerCase, workers: usize) -> WorkerRun {
        let fx = worker_fixture();
        let clock = Arc::new(VirtualClock::new());
        let dir = case.paged.then(ScratchDir::new);
        let (server, log) = worker_server(dir.as_ref().map(|d| d.0.as_path()), clock.clone());
        if case.corrupt {
            // the probe seals the segment, so the page is on disk
            server.probe().unwrap();
            corrupt_middle_page(&dir.as_ref().expect("a corrupt case is paged").0);
        }
        let n0 = (fx.ta.system().n() + 3) as u64;
        let budgets: Vec<Budget> = case
            .queries
            .iter()
            .map(|&(_, _, docs)| docs.map_or_else(Budget::unlimited, |d| Budget::pairings(d * n0)))
            .collect();
        let requests: Vec<WaveRequest<'_>> = case
            .queries
            .iter()
            .zip(&budgets)
            .map(|(&(c, deadline, _), budget)| WaveRequest {
                cap: &fx.caps[c],
                deadline: deadline.map_or(Deadline::NEVER, Deadline::at),
                budget,
            })
            .collect();
        let plan = FaultPlan::new(case.faults.clone());
        let policy = RetryPolicy::default();
        let ctx = FaultContext::new(&plan, &policy, &clock);
        let out = server
            .wave_kernel(&requests, &ctx, case.doc_cost_ticks, case.ledger, workers)
            .unwrap();
        // a failing strict scan's workers may hydrate past the failure
        // before the cursor stops, so metrics and log are read before it
        let bytes = server.metrics_snapshot().canonical_bytes();
        let touched = log.lock().clone();
        let strict = server.scan(&fx.caps[case.queries[0].0], workers);
        (out, bytes, touched, strict)
    }

    /// Every worker count reproduces the one-worker run.
    fn assert_worker_invariant(case: &WorkerCase) -> WorkerRun {
        let serial = run_workers(case, 1);
        for workers in [2, 3, 8] {
            let (out, bytes, touched, strict) = run_workers(case, workers);
            assert_eq!(out, serial.0, "results moved at {workers} workers");
            assert!(bytes == serial.1, "metrics moved at {workers} workers");
            assert_eq!(
                touched, serial.2,
                "hydration order moved at {workers} workers"
            );
            assert_eq!(strict, serial.3, "strict scan moved at {workers} workers");
        }
        serial
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The evaluate pass's worker count never changes a scan: not
        /// its per-query results, and not one byte of the metrics
        /// (`cloud.hydrate.*` included), over memory and evicting paged
        /// corpora, under faults, live deadlines, finite budgets and
        /// duplicate capabilities, on both ledgers.
        #[test]
        fn worker_count_never_changes_a_scan(
            fault_seed in 0u64..1000,
            poisoned in 0u32..300,
            flaky in 0u32..400,
            slow in 0u32..400,
            queries in proptest::collection::vec((0usize..3, 0u64..60, 0u64..14), 1..5),
            solo in proptest::prelude::any::<bool>(),
            doc_cost_ticks in 0u64..6,
        ) {
            let mut queries: Vec<(usize, Option<u64>, Option<u64>)> = queries
                .into_iter()
                .map(|(c, tick, docs)| (c, (tick < 40).then_some(tick), (docs < 11).then_some(docs)))
                .collect();
            if solo {
                queries.truncate(1);
            }
            let mut case = WorkerCase {
                faults: FaultConfig {
                    seed: fault_seed,
                    poisoned_doc_permille: poisoned,
                    flaky_doc_permille: flaky,
                    slow_doc_permille: slow,
                    max_fault_burst: 5,
                    slow_doc_ticks: 4,
                    ..FaultConfig::default()
                },
                queries,
                ledger: if solo { Ledger::Solo } else { Ledger::Wave },
                doc_cost_ticks,
                paged: false,
                corrupt: false,
            };
            let _ = assert_worker_invariant(&case);
            case.paged = true;
            let _ = assert_worker_invariant(&case);
        }
    }

    /// A page that fails its checksum mid-corpus degrades exactly the
    /// documents on it, for every worker count, and the strict scan
    /// fails with the same lowest-position error for every thread count.
    #[test]
    fn corrupt_page_mid_corpus_is_worker_count_invariant() {
        let fx = worker_fixture();
        let case = WorkerCase {
            faults: FaultConfig::default(),
            queries: vec![
                (0, None, None),
                (1, None, None),
                (0, None, None),
                (2, None, None),
            ],
            ledger: Ledger::Wave,
            doc_cost_ticks: 1,
            paged: true,
            corrupt: true,
        };
        let (serial, _, _, strict) = assert_worker_invariant(&case);
        let faulted = &serial[0].faulted;
        assert!(
            !faulted.is_empty()
                && faulted[0] > 0
                && *faulted.last().unwrap() < fx.docs.len() as u64 - 1,
            "the corrupt page must fault documents mid-corpus: {faulted:?}"
        );
        assert!(serial.iter().all(|d| d.faulted == *faulted));
        assert!(matches!(
            strict,
            Err(SearchOutcome::Corpus(CorpusError::Store(
                apks_store::StoreError::PageChecksumMismatch { .. }
            )))
        ));
    }
}
