//! Wall-clock benchmark of the APKS stack.
//!
//! Three workloads drive the public entry points real callers use and
//! check every answer against a plaintext oracle:
//!
//! * `solo_n28` — one framed client searching an in-memory
//!   `CloudServer` at n = 28 (the paper's pairing-bound path);
//! * `paged_mix_n10` — one framed client alternating a search with two
//!   single-record uploads on a disk-backed server at n = 10;
//! * `wave_shard_n10` — one caller submitting waves of 8 Zipf-drawn
//!   capabilities to a two-shard `ShardRouter` at n = 10.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) times each crate's public calls from this side and
//! reports the per-layer metrics, the decomposition residue and the
//! tracing overhead.

pub mod framed;
pub mod inputs;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod wave;
pub mod wired;

use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("query.p50_ms", "ms"),
    ("query.qps", "1/s"),
    ("query.scan_docs_per_s", "docs/s"),
    ("ingest.docs_per_s", "docs/s"),
    ("ingest.upload_p50_ms", "ms"),
    ("ingest.upload_p90_ms", "ms"),
    ("core.search_us_per_doc", "us"),
    ("core.wave_us_per_doc", "us"),
    ("core.prepare_ms", "ms"),
    ("core.decode_us", "us"),
    ("core.gen_index_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.bytes_per_user_byte", "ratio"),
    ("store.seals", "count"),
    ("cloud.hydrate.hit_ratio", "ratio"),
    ("cloud.hydrate.misses_per_query", "count"),
    ("cloud.prepare.hit_ratio", "ratio"),
    ("cloud.wave.shared_ratio", "ratio"),
    ("cloud.wave.distinct_caps", "count"),
    ("cloud.shard_ms", "ms"),
    ("cloud.server_ms_per_query", "ms"),
    ("cloud.pairings_per_query", "count"),
    ("authz.verify_us", "us"),
    ("authz.issue_ms", "ms"),
    ("wire.search_encode_us", "us"),
    ("wire.search_decode_us", "us"),
    ("wire.response_us", "us"),
    ("wire.response_decode_us", "us"),
    ("wire.frame_us", "us"),
    ("wire.upload_decode_us", "us"),
    ("wire.bytes_per_query", "bytes"),
    ("curve.pairing_prepared_us", "us"),
    ("curve.final_exp_us", "us"),
    ("math.fp_mul_ns", "ns"),
    ("trace.residue_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Capabilities per wave in `wave_shard_n10`.
pub const WAVE: usize = 8;
/// Shards behind the router in `wave_shard_n10` (replication 1).
pub const SHARDS: usize = 2;
/// Documents sampled for the per-document twins after each traced request.
pub const TWIN_DOCS: usize = 4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SoloN28,
    PagedMixN10,
    WaveShardN10,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SoloN28,
        Workload::PagedMixN10,
        Workload::WaveShardN10,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloN28 => "solo_n28",
            Workload::PagedMixN10 => "paged_mix_n10",
            Workload::WaveShardN10 => "wave_shard_n10",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nursery OR budget per field: n = 9d + 1.
    pub fn d(self) -> usize {
        match self {
            Workload::SoloN28 => 3,
            Workload::PagedMixN10 | Workload::WaveShardN10 => 1,
        }
    }
}

/// Input sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Documents loaded during set-up.
    pub docs: usize,
    /// Signed capabilities issued during set-up.
    pub pool: usize,
    /// Records encrypted during set-up for the timed phase's uploads
    /// (re-used cyclically, each upload gets a fresh id).
    pub upload_pool: usize,
    /// Complete set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// `tiny` is the self-tests' smoke size.
    pub fn of(workload: Workload, tiny: bool, trace: bool) -> Sizes {
        let (docs, pool, upload_pool) = match (workload, tiny) {
            (Workload::SoloN28, false) => (32, 8, 0),
            (Workload::PagedMixN10, false) => (96, 16, 64),
            (Workload::WaveShardN10, false) => (64, 16, 0),
            (Workload::PagedMixN10, true) => (8, 4, 4),
            (_, true) => (6, 4, 0),
        };
        Sizes {
            docs,
            pool,
            upload_pool,
            // a traced run reports no set-up time, so it sets up once
            setups: match (tiny, trace) {
                (_, true) => 1,
                (true, false) => 2,
                (false, false) => 3,
            },
        }
    }
}

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch space for stores and span files.
    pub out_dir: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
}

/// A run's raw end-to-end samples.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Documents loaded and seconds spent loading them, over all set-ups.
    pub ingest_docs: f64,
    pub ingest_s: f64,
    /// Latency of each query answered on an untraced round.
    pub query_ms: Vec<f64>,
    pub upload_ms: Vec<f64>,
    /// Wall time of the untraced rounds, and the document evaluations
    /// of their queries.
    pub untraced_s: f64,
    pub docs_evaluated: f64,
}

impl E2e {
    /// The end-to-end metrics of [`END_TO_END`]. Only these are bounded:
    /// on a machine whose speed flips between two states every few
    /// seconds the query latencies are bimodal, so their median and the
    /// rates jump with the share of time spent slow, while the 90th
    /// percentile stays in the slow state.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("query_p90_ms", quantile(&self.query_ms, 0.9)),
            ("peak_rss_mb", layers::peak_rss_mb()),
        ])
    }

    /// The median latency, the rates and the write path's figures,
    /// reported with the per-layer metrics.
    pub fn unbounded_metrics(&self) -> [(&'static str, f64); 6] {
        [
            ("query.p50_ms", median(&self.query_ms)),
            ("query.qps", self.query_ms.len() as f64 / self.untraced_s),
            (
                "query.scan_docs_per_s",
                self.docs_evaluated / self.untraced_s,
            ),
            ("ingest.docs_per_s", self.ingest_docs / self.ingest_s),
            ("ingest.upload_p50_ms", median(&self.upload_ms)),
            ("ingest.upload_p90_ms", quantile(&self.upload_ms, 0.9)),
        ]
    }

    /// Sample counts and the unbounded figures, as a report line.
    pub fn describe(&self) -> String {
        let figures: Vec<String> = self
            .unbounded_metrics()
            .iter()
            .map(|(name, v)| format!("{name}={v:.4}"))
            .collect();
        format!(
            "samples: setups={} queries={} uploads={} untraced_s={:.3}; {}",
            self.setup_s.len(),
            self.query_ms.len(),
            self.upload_ms.len(),
            self.untraced_s,
            figures.join(" ")
        )
    }
}

/// Counts a failed operation; the first few are reported.
pub fn note_failure(report: &mut Vec<String>, failed: &mut u64, e: String) {
    *failed += 1;
    if *failed <= 3 {
        report.push(format!("failed operation: {e}"));
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An answer that differs from the plaintext oracle: the run has no
/// result.
pub fn run(args: &Args) -> Result<Outcome, inputs::Mismatch> {
    match args.workload {
        Workload::SoloN28 | Workload::PagedMixN10 => wired::run(args),
        Workload::WaveShardN10 => wave::run(args),
    }
}
