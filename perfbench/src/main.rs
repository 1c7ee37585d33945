//! Command-line entry point of the APKS wall-clock benchmark.
//!
//! ```text
//! apks-perfbench --workload <solo_n28|paged_mix_n10|wave_shard_n10>
//!                --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! Prints human-readable report lines, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The metrics
//! are the end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. Exits 2 on bad arguments and 3 when an answer differs
//! from the plaintext oracle (no result line is printed then).

use apks_perfbench::{run, Args, Sizes, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scale" => {
                tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(bad("expected tiny or full")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.unwrap_or(false);
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::of(workload, tiny, trace),
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("apks-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("apks-perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" curve={} sizes={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        apks_curve::CurveParams::fast().label(),
        args.sizes,
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(mismatch) => {
            eprintln!("apks-perfbench: {mismatch}; no result");
            return ExitCode::from(3);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics[name];
        println!("metric {name} = {value} {unit}");
        // JSON has no NaN or infinity; a metric with no samples reads 0
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
