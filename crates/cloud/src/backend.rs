//! Corpus backends: where the encrypted indexes live.
//!
//! The paper's cloud server scans "the" encrypted index collection
//! (§IV); at bench scale that collection is an in-memory `Vec`, at
//! production scale it is disk-resident and decoded on access. The
//! [`CorpusBackend`] trait abstracts the difference so every scan mode
//! in [`crate::server`] runs unchanged over either:
//!
//! * [`MemoryBackend`] — the historical in-memory store. Hydration is
//!   an `Arc` clone; nothing is ever decoded twice because nothing is
//!   ever encoded.
//! * [`PagedBackend`] — ciphertexts live in an [`apks_store::PagedStore`]
//!   as canonical wire payloads and are decoded **lazily**, one page
//!   read per miss, through a byte-budgeted LRU of decoded indexes
//!   ([`DecodedCache`]). Every miss pays exactly one checksummed page
//!   read (the store's point-lookup index) plus one wire decode;
//!   every hit is an `Arc` clone.
//!
//! Hydration telemetry lands under `cloud.hydrate.*`: `hits`, `misses`,
//! `evictions`, `oversize`, `bytes_inserted`, `bytes_evicted` counters,
//! a `decode_ticks` histogram (charged to the injected clock, so
//! virtual-clock runs stay deterministic), and a `resident_bytes`
//! histogram sampled after every miss. Scans hydrate in plan order
//! under their evaluate pass's cursor lock, whatever the worker count,
//! so touch order is the scan order and same-seed runs reproduce every
//! counter byte for byte.

use crate::server::DocumentId;
use apks_core::{ApksSystem, EncryptedIndex};
use apks_math::encode::{Reader, Writer};
use apks_store::{PagedStore, StoreConfig, StoreError, StoreStats};
use apks_telemetry::{Clock, MetricsRegistry};
use core::fmt;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Why a corpus operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The underlying paged store failed (I/O, checksum, corruption).
    Store(StoreError),
    /// A stored payload did not decode as an [`EncryptedIndex`].
    Decode {
        /// The document whose payload is malformed.
        doc: DocumentId,
        /// The decoder's complaint.
        what: String,
    },
    /// A position past the end of the corpus was addressed.
    UnknownPosition(usize),
    /// The backend's position table and the store disagree (a writer
    /// bug, never user input).
    MissingDocument(DocumentId),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Store(e) => write!(f, "corpus store error: {e}"),
            CorpusError::Decode { doc, what } => {
                write!(f, "document {doc} payload does not decode: {what}")
            }
            CorpusError::UnknownPosition(pos) => {
                write!(f, "corpus position {pos} out of range")
            }
            CorpusError::MissingDocument(doc) => {
                write!(f, "document {doc} indexed but not stored")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<StoreError> for CorpusError {
    fn from(e: StoreError) -> CorpusError {
        CorpusError::Store(e)
    }
}

/// Where the server's encrypted indexes live.
///
/// Positions are stable scan coordinates: `0..len()` enumerates the
/// corpus in upload order, overwrites keep their position, and
/// [`CorpusBackend::hydrate`] materializes one position's index without
/// touching any other — the laziness contract a bounded scan relies on
/// (a query cut at position `p` must not pay decode work for `p..`).
pub trait CorpusBackend: Send + Sync {
    /// Number of live documents.
    fn len(&self) -> usize;

    /// True iff the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The document id at `pos`, if in range. Never decodes anything.
    fn doc_id(&self, pos: usize) -> Option<DocumentId>;

    /// Every live document id in scan order. Never decodes anything.
    fn doc_ids(&self) -> Vec<DocumentId>;

    /// The ids from `pos` to the end, in scan order — the unscanned
    /// tail of a cut query. Never decodes anything.
    fn ids_from(&self, pos: usize) -> Vec<DocumentId>;

    /// Inserts (or explicitly overwrites) a document. Returns `true`
    /// when `id` is new, `false` when an existing document was
    /// replaced in place (its position is kept).
    ///
    /// # Errors
    ///
    /// Backend-specific storage failures.
    fn push(&self, id: DocumentId, index: EncryptedIndex) -> Result<bool, CorpusError>;

    /// Materializes the index at `pos`.
    ///
    /// # Errors
    ///
    /// Out-of-range positions, storage failures, or payload decode
    /// failures.
    fn hydrate(&self, pos: usize) -> Result<Arc<EncryptedIndex>, CorpusError>;

    /// On-disk shape of the backing store — `None` for corpora that
    /// live in memory.
    ///
    /// # Errors
    ///
    /// Storage failures while statting disk-backed corpora.
    fn store_stats(&self) -> Result<Option<StoreStats>, CorpusError> {
        Ok(None)
    }
}

/// The historical in-memory corpus: every index resident and decoded.
#[derive(Default)]
pub struct MemoryBackend {
    inner: RwLock<MemoryInner>,
}

#[derive(Default)]
struct MemoryInner {
    docs: Vec<(DocumentId, Arc<EncryptedIndex>)>,
    pos_of: HashMap<DocumentId, usize>,
}

impl MemoryBackend {
    /// An empty in-memory corpus.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl CorpusBackend for MemoryBackend {
    fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    fn doc_id(&self, pos: usize) -> Option<DocumentId> {
        self.inner.read().docs.get(pos).map(|(id, _)| *id)
    }

    fn doc_ids(&self) -> Vec<DocumentId> {
        self.inner.read().docs.iter().map(|(id, _)| *id).collect()
    }

    fn ids_from(&self, pos: usize) -> Vec<DocumentId> {
        let inner = self.inner.read();
        inner
            .docs
            .get(pos..)
            .unwrap_or(&[])
            .iter()
            .map(|(id, _)| *id)
            .collect()
    }

    fn push(&self, id: DocumentId, index: EncryptedIndex) -> Result<bool, CorpusError> {
        let mut inner = self.inner.write();
        if let Some(&pos) = inner.pos_of.get(&id) {
            inner.docs[pos].1 = Arc::new(index);
            Ok(false)
        } else {
            let pos = inner.docs.len();
            inner.pos_of.insert(id, pos);
            inner.docs.push((id, Arc::new(index)));
            Ok(true)
        }
    }

    fn hydrate(&self, pos: usize) -> Result<Arc<EncryptedIndex>, CorpusError> {
        self.inner
            .read()
            .docs
            .get(pos)
            .map(|(_, idx)| idx.clone())
            .ok_or(CorpusError::UnknownPosition(pos))
    }
}

/// Knobs for the decoded-index cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HydrateConfig {
    /// Byte budget for resident decoded indexes, accounted at each
    /// payload's canonical encoded size. `0` disables caching (every
    /// hydrate is a miss).
    pub cache_budget_bytes: usize,
}

impl Default for HydrateConfig {
    fn default() -> HydrateConfig {
        HydrateConfig {
            cache_budget_bytes: 64 << 20,
        }
    }
}

/// What [`DecodedCache::insert`] did with the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Cached, evicting the listed documents (LRU-first) to fit.
    Inserted {
        /// Documents evicted to make room.
        evicted: Vec<DocumentId>,
        /// Bytes those evictions released.
        evicted_bytes: usize,
    },
    /// The entry alone exceeds the whole budget: returned to the
    /// caller but never cached — one oversize document must not wedge
    /// the cache by evicting everything and still not fitting.
    Oversize,
}

/// A byte-budgeted LRU of decoded values.
///
/// Recency is a monotone stamp per touch; eviction pops the minimum
/// stamp. Both structures are ordered, so same touch sequence ⇒ same
/// evictions — no dependence on hash iteration order.
pub struct DecodedCache<V> {
    budget: usize,
    resident: usize,
    next_stamp: u64,
    entries: HashMap<DocumentId, CacheEntry<V>>,
    by_stamp: BTreeMap<u64, DocumentId>,
}

struct CacheEntry<V> {
    stamp: u64,
    bytes: usize,
    value: V,
}

impl<V: Clone> DecodedCache<V> {
    /// An empty cache holding at most `budget` accounted bytes.
    pub fn new(budget: usize) -> DecodedCache<V> {
        DecodedCache {
            budget,
            resident: 0,
            next_stamp: 0,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Resident accounted bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident ids, least-recently-used first (test hook).
    pub fn resident_lru_first(&self) -> Vec<DocumentId> {
        self.by_stamp.values().copied().collect()
    }

    /// Looks up `id`, marking it most recently used on a hit.
    pub fn get(&mut self, id: DocumentId) -> Option<V> {
        let stamp = self.next_stamp;
        let entry = self.entries.get_mut(&id)?;
        self.by_stamp.remove(&entry.stamp);
        entry.stamp = stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, id);
        Some(entry.value.clone())
    }

    /// Drops `id` if resident, returning the bytes released.
    pub fn remove(&mut self, id: DocumentId) -> Option<usize> {
        let entry = self.entries.remove(&id)?;
        self.by_stamp.remove(&entry.stamp);
        self.resident -= entry.bytes;
        Some(entry.bytes)
    }

    /// Caches `value` under `id` at an accounted size of `bytes`,
    /// evicting LRU-first until it fits. An entry larger than the whole
    /// budget is refused ([`InsertOutcome::Oversize`]) without evicting
    /// anything.
    pub fn insert(&mut self, id: DocumentId, bytes: usize, value: V) -> InsertOutcome {
        if bytes > self.budget {
            return InsertOutcome::Oversize;
        }
        // re-inserting (an overwrite) replaces the old accounting
        self.remove(id);
        let mut evicted = Vec::new();
        let mut evicted_bytes = 0;
        while self.resident + bytes > self.budget {
            let (&stamp, &victim) = self.by_stamp.iter().next().expect("resident > 0");
            self.by_stamp.remove(&stamp);
            let entry = self.entries.remove(&victim).expect("stamped entry exists");
            self.resident -= entry.bytes;
            evicted_bytes += entry.bytes;
            evicted.push(victim);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, id);
        self.entries.insert(
            id,
            CacheEntry {
                stamp,
                bytes,
                value,
            },
        );
        self.resident += bytes;
        InsertOutcome::Inserted {
            evicted,
            evicted_bytes,
        }
    }
}

/// The disk-backed corpus: canonical ciphertext payloads in a
/// [`PagedStore`], decoded lazily through a [`DecodedCache`].
pub struct PagedBackend {
    system: ApksSystem,
    inner: Mutex<PagedInner>,
    metrics: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
}

struct PagedInner {
    store: PagedStore,
    cache: DecodedCache<Arc<EncryptedIndex>>,
}

impl PagedBackend {
    /// Opens (or creates) the disk corpus at `dir`, pinned to
    /// `system`'s schema digest. Documents already on disk are
    /// immediately addressable — the store's point-lookup index is
    /// rebuilt at open, the decoded cache starts cold.
    ///
    /// # Errors
    ///
    /// Store open failures (I/O, foreign segments).
    pub fn open(
        system: ApksSystem,
        dir: &Path,
        store_config: StoreConfig,
        hydrate_config: HydrateConfig,
        metrics: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
    ) -> Result<PagedBackend, CorpusError> {
        let store = PagedStore::open(dir, system.schema_digest(), store_config)?;
        Ok(PagedBackend {
            system,
            inner: Mutex::new(PagedInner {
                store,
                cache: DecodedCache::new(hydrate_config.cache_budget_bytes),
            }),
            metrics,
            clock,
        })
    }

    /// Seals the active segment, making every accepted upload durable.
    ///
    /// # Errors
    ///
    /// I/O failures flushing or syncing.
    pub fn seal(&self) -> Result<(), CorpusError> {
        Ok(self.inner.lock().store.seal()?)
    }
}

impl CorpusBackend for PagedBackend {
    fn len(&self) -> usize {
        self.inner.lock().store.doc_count()
    }

    fn doc_id(&self, pos: usize) -> Option<DocumentId> {
        self.inner.lock().store.doc_order().get(pos).copied()
    }

    fn doc_ids(&self) -> Vec<DocumentId> {
        self.inner.lock().store.doc_order().to_vec()
    }

    fn ids_from(&self, pos: usize) -> Vec<DocumentId> {
        self.inner
            .lock()
            .store
            .doc_order()
            .get(pos..)
            .unwrap_or(&[])
            .to_vec()
    }

    fn push(&self, id: DocumentId, index: EncryptedIndex) -> Result<bool, CorpusError> {
        let mut w = Writer::new();
        index.encode(self.system.params(), &mut w);
        let payload = w.finish();
        let mut inner = self.inner.lock();
        let fresh = inner.store.location_of(id).is_none();
        inner.store.put(id, payload)?;
        // an overwrite makes any resident decoded copy stale
        inner.cache.remove(id);
        Ok(fresh)
    }

    fn hydrate(&self, pos: usize) -> Result<Arc<EncryptedIndex>, CorpusError> {
        let mut inner = self.inner.lock();
        let Some(&id) = inner.store.doc_order().get(pos) else {
            return Err(CorpusError::UnknownPosition(pos));
        };
        if let Some(idx) = inner.cache.get(id) {
            self.metrics.add("cloud.hydrate.hits", 1);
            return Ok(idx);
        }
        self.metrics.add("cloud.hydrate.misses", 1);
        let start = self.clock.now_ticks();
        let payload = inner
            .store
            .get(id)?
            .ok_or(CorpusError::MissingDocument(id))?;
        let mut r = Reader::new(&payload);
        let index = EncryptedIndex::decode(self.system.params(), &mut r)
            .and_then(|idx| r.finish().map(|()| idx))
            .map_err(|e| CorpusError::Decode {
                doc: id,
                what: e.to_string(),
            })?;
        self.metrics.record(
            "cloud.hydrate.decode_ticks",
            self.clock.now_ticks().saturating_sub(start),
        );
        let idx = Arc::new(index);
        match inner.cache.insert(id, payload.len(), idx.clone()) {
            InsertOutcome::Inserted {
                evicted,
                evicted_bytes,
            } => {
                self.metrics
                    .add("cloud.hydrate.bytes_inserted", payload.len() as u64);
                if !evicted.is_empty() {
                    self.metrics
                        .add("cloud.hydrate.evictions", evicted.len() as u64);
                    self.metrics
                        .add("cloud.hydrate.bytes_evicted", evicted_bytes as u64);
                }
            }
            InsertOutcome::Oversize => {
                self.metrics.add("cloud.hydrate.oversize", 1);
            }
        }
        self.metrics.record(
            "cloud.hydrate.resident_bytes",
            inner.cache.resident_bytes() as u64,
        );
        Ok(idx)
    }

    fn store_stats(&self) -> Result<Option<StoreStats>, CorpusError> {
        Ok(Some(self.inner.lock().store.stats()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent_first() {
        let mut cache: DecodedCache<u32> = DecodedCache::new(30);
        assert!(matches!(
            cache.insert(1, 10, 100),
            InsertOutcome::Inserted { ref evicted, .. } if evicted.is_empty()
        ));
        cache.insert(2, 10, 200);
        cache.insert(3, 10, 300);
        assert_eq!(cache.resident_lru_first(), vec![1, 2, 3]);
        // touching 1 makes 2 the victim
        assert_eq!(cache.get(1), Some(100));
        assert_eq!(cache.resident_lru_first(), vec![2, 3, 1]);
        let out = cache.insert(4, 15, 400);
        assert_eq!(
            out,
            InsertOutcome::Inserted {
                evicted: vec![2, 3],
                evicted_bytes: 20,
            }
        );
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.get(3), None);
        assert_eq!(cache.get(1), Some(100));
        assert_eq!(cache.get(4), Some(400));
        assert_eq!(cache.resident_bytes(), 25);
    }

    #[test]
    fn oversize_entry_never_wedges_the_cache() {
        let mut cache: DecodedCache<u32> = DecodedCache::new(20);
        cache.insert(1, 8, 1);
        cache.insert(2, 8, 2);
        // larger than the whole budget: refused, nothing evicted
        assert_eq!(cache.insert(9, 21, 9), InsertOutcome::Oversize);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.resident_bytes(), 16);
        assert_eq!(cache.get(1), Some(1));
        assert_eq!(cache.get(2), Some(2));
        assert_eq!(cache.get(9), None);
    }

    #[test]
    fn reinsert_replaces_accounting() {
        let mut cache: DecodedCache<u32> = DecodedCache::new(20);
        cache.insert(1, 10, 1);
        cache.insert(1, 5, 11);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), 5);
        assert_eq!(cache.get(1), Some(11));
        assert_eq!(cache.remove(1), Some(5));
        assert_eq!(cache.resident_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut cache: DecodedCache<u32> = DecodedCache::new(0);
        assert_eq!(cache.insert(1, 1, 1), InsertOutcome::Oversize);
        assert!(cache.is_empty());
    }
}
