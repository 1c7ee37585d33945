//! Self-tests of the benchmark: a tiny-size run of every workload prints
//! exactly the metrics `BENCHMARK.json` declares, each with its unit, and
//! the oracle gate rejects a hit set with one match dropped.

use apks_cloud::CloudServer;
use apks_core::fault::{FaultConfig, FaultContext, FaultPlan, RetryPolicy, VirtualClock};
use apks_core::{Budget, Deadline};
use apks_perfbench::inputs::{encrypt, Base, Stream};
use apks_perfbench::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                let start = self.i + 1;
                self.i = start;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &Json) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = list
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Runs a tiny-size workload and returns its parsed result line.
fn smoke(workload: &str, trace: u8) -> Json {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_apks-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name).to_vec(),
        "BENCHMARK.json lists the benchmark's workloads"
    );
    for workload in workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = smoke(workload, trace);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Json::Num(_)), "{name} has a value");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(manifest.get(list)),
                "{workload} --trace {trace} prints the {list} metrics"
            );
        }
    }
}

#[test]
fn oracle_gate_fires_on_a_dropped_match() {
    let base = Base::new(3, 1, 12, 4);
    let server = CloudServer::new(
        base.system.clone(),
        base.pk().clone(),
        base.ta.ibs_params().clone(),
    );
    server.register_authority("ta");
    let mut oracle = base.oracle();
    let enc = encrypt(&base.system, base.pk(), &base.records, 3, Stream::Documents);
    for (idx, rec) in enc.indexes.into_iter().zip(&base.records) {
        oracle.insert(server.upload(idx), rec);
    }
    let (plan, policy, clock) = (
        FaultPlan::new(FaultConfig::default()),
        RetryPolicy::default(),
        VirtualClock::new(),
    );
    let ctx = FaultContext::new(&plan, &policy, &clock);
    for (q, cap) in base.caps.iter().enumerate() {
        let scan = server
            .search_bounded(cap, &ctx, Deadline::NEVER, &Budget::unlimited(), 0)
            .unwrap();
        assert!(!scan.matches.is_empty(), "pool queries are built to hit");
        // the real answer passes the gate
        assert_eq!(oracle.check(q, &scan.matches).unwrap(), oracle.expected(q));
        // the same answer with one match dropped does not
        let mut dropped = scan.matches.clone();
        let lost = dropped.remove(dropped.len() / 2);
        let mismatch = oracle.check(q, &dropped).unwrap_err();
        assert_eq!(mismatch.missing, vec![lost]);
        assert!(mismatch.unexpected.is_empty());
    }
}
