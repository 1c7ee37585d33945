//! Spans recorded from the benchmark's side of each public layer call.
//!
//! A span is a name, a request id, an optional parent and a wall-clock
//! interval. Spans on the request's own path nest under its root span;
//! *twin* spans time the same public call on a copy of the inputs right
//! after the request finished (for work that happens inside a call the
//! benchmark cannot split, such as the server's scan inside
//! `ServerEndpoint::poll`). Twins never overlap their request's root, so
//! the root's duration is the traced end-to-end latency. Spans stay in
//! memory and are written out as JSON lines when the run ends.

use crate::stats::median;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub twin: bool,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span on `req`'s own path; close it with [`Tracer::close`].
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            name,
            parent,
            twin: false,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` at the current instant.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
    }

    /// Runs `f` as a leaf span on `req`'s own path under `parent`.
    pub fn leaf<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(req, name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` as a twin span attributed to `req`.
    pub fn twin<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns() - start_ns;
        self.spans.push(Span {
            req,
            name,
            parent: None,
            twin: true,
            start_ns,
            dur_ns,
        });
        out
    }

    /// Self time of every span called `name`, µs: its duration minus the
    /// part its child spans cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns.saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Total duration of every span called `name`, µs.
    pub fn total_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Median self time of spans called `name`, µs.
    pub fn median_self_us(&self, name: &str) -> f64 {
        median(&self.self_us(name))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"twin\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.req, s.name, s.twin, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// One row of a decomposition: a layer's median self time and how many
/// times one request pays it.
pub struct Term {
    pub layer: &'static str,
    pub median_us: f64,
    pub per_request: f64,
}

impl Term {
    /// The term for spans called `layer`, at their median self time.
    pub fn of(tracer: &Tracer, layer: &'static str, per_request: f64) -> Term {
        Term {
            layer,
            median_us: tracer.median_self_us(layer),
            per_request,
        }
    }
}

/// Residue above this share of the end-to-end median is flagged as a
/// finding.
pub const RESIDUE_FLAG_PCT: f64 = 15.0;

/// Σ(layer median self time × count per request) against the untraced
/// end-to-end median. Appends the table to `report` and returns the
/// residue as a percentage of `e2e_ms`.
pub fn decompose(workload: &str, terms: &[Term], e2e_ms: f64, report: &mut Vec<String>) -> f64 {
    report.push(format!(
        "decomposition {workload} (per request; untraced end-to-end median {e2e_ms:.3} ms):"
    ));
    let mut sum_ms = 0.0;
    for t in terms {
        let ms = t.median_us * t.per_request / 1e3;
        sum_ms += ms;
        report.push(format!(
            "  {:<26} {:>12.2} us x {:>9.2} = {:>10.3} ms ({:>5.1}%)",
            t.layer,
            t.median_us,
            t.per_request,
            ms,
            100.0 * ms / e2e_ms
        ));
    }
    let residue_ms = e2e_ms - sum_ms;
    let residue_pct = 100.0 * residue_ms / e2e_ms;
    report.push(format!(
        "  sum of layers {sum_ms:.3} ms; residue {residue_ms:.3} ms ({residue_pct:.1}%)"
    ));
    if residue_pct.abs() > RESIDUE_FLAG_PCT {
        report.push(format!(
            "  FINDING: residue {residue_pct:.1}% exceeds {RESIDUE_FLAG_PCT}% of the end-to-end median"
        ));
    }
    residue_pct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.open(1, "root", None);
        t.leaf(1, "child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let child = t.total_us("child")[0];
        let root_total = t.total_us("root")[0];
        let root_self = t.self_us("root")[0];
        assert!(child >= 2000.0);
        assert!((root_total - child - root_self).abs() < 1.0);
    }
}
