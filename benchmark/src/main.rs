//! The repository benchmark: three workloads against a reactor-hosted RP
//! fleet inside one process, measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fanout_1k|session_64k|churn_control --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. Exits non-zero when a correctness check failed. See
//! `NOTES.md` for what each workload and metric measures.

mod churn;
mod common;
mod data;
mod fanout;
mod probe;
mod session;
mod spans;
mod stats;

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use common::{Ledger, Metrics};
use serde_json::{json, Value};

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

/// Where run files (the churn store logs, the traced run's spans) go,
/// relative to the directory the benchmark runs in.
const RUN_DIR: &str = ".bench_run";

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Relay fan-out of 1 KiB frames, closed loop.
    Fanout1k,
    /// Paced 64 KiB session on multi-hop trees, open loop.
    Session64k,
    /// Churn epochs through service, store and barrier, closed loop.
    ChurnControl,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fanout_1k" => Some(Workload::Fanout1k),
            "session_64k" => Some(Workload::Session64k),
            "churn_control" => Some(Workload::ChurnControl),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fanout1k => "fanout_1k",
            Workload::Session64k => "session_64k",
            Workload::ChurnControl => "churn_control",
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Whether to run the traced measurement.
    pub trace: bool,
}

const USAGE: &str =
    "usage: teeve-benchmark --workload fanout_1k|session_64k|churn_control --seed N --seconds S --trace 0|1";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Checks what the result line reports: a metric that could not be
/// computed, or a run that attempted nothing, is a failed check, not a
/// plausible number.
fn check_result(ledger: &mut Ledger, metrics: &Metrics) {
    for m in &metrics.0 {
        ledger.check(m.value.is_finite(), || {
            format!("metric {} is not a number: {}", m.name, m.value)
        });
    }
    ledger.check(ledger.attempted > 0, || {
        "the run attempted no operation".to_string()
    });
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(ledger: &Ledger, metrics: &Metrics) -> String {
    let metrics: Vec<(String, Value)> = metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
        .collect();
    let result = json!({
        "correct": ledger.errors.is_empty(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": Value::Object(metrics),
    });
    result.to_string()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(RUN_DIR);
    if let Err(e) = fs::create_dir_all(run_dir) {
        eprintln!("cannot create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // Start the trace clock.
    probe::wall_ns();

    let mut ledger = Ledger::default();
    let steal_start = probe::cpu_steal_ticks();
    let outcome = match args.workload {
        Workload::Fanout1k => data::run(&fanout::specs(), &args, &mut ledger),
        Workload::Session64k => data::run(&session::specs(args.seed), &args, &mut ledger),
        Workload::ChurnControl => churn::run(&args, &mut ledger, run_dir),
    };
    let steal_share = probe::steal_share(steal_start, probe::cpu_steal_ticks());
    let metrics = if args.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end.metrics()
    };

    println!(
        "workload {} seed {} seconds {} trace {} ({} loop threads, {} CPUs available)",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        common::LOOP_THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for m in &metrics.0 {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in &outcome.readout {
        println!("  {:<36} {:>16.4} {unit}   (readout)", name, value);
    }
    println!(
        "  {:<36} {:>16.4} ratio   (readout: CPU time the hypervisor gave to other guests)",
        "host.cpu_steal_share", steal_share
    );
    println!(
        "  {:<36} {:>16.6} ratio   ({} failed of {} attempted)",
        "failed_ops_ratio",
        stats::failed_ratio(ledger.failed, ledger.attempted),
        ledger.failed,
        ledger.attempted
    );
    if args.trace {
        let path = run_dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match outcome.tracer.write_json(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => ledger.errors.push(format!("writing spans failed: {e}")),
        }
    }
    check_result(&mut ledger, &metrics);
    for error in &ledger.errors {
        eprintln!("CHECK FAILED: {error}");
    }
    println!("{}", result_json(&ledger, &metrics));
    if ledger.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = parse_args(argv(
            "--workload churn_control --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(args.workload, Workload::ChurnControl);
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Duration::from_secs(10), true)
        );
        assert!(parse_args(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(argv("--workload fanout_1k --seed 1 --seconds 0")).is_err());
        assert!(parse_args(argv("--workload fanout_1k --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(argv("--workload fanout_1k --seconds 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let ledger = Ledger {
            attempted: 10,
            failed: 1,
            errors: vec!["x".into()],
        };
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.5, "s");
        metrics.put("rate", 2.0e6, "1/s");
        assert_eq!(
            result_json(&ledger, &metrics),
            "{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"rate\":{\"value\":2000000.0,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn a_metric_that_is_not_a_number_fails_the_run() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.5, "s");
        let mut ledger = Ledger {
            attempted: 3,
            ..Ledger::default()
        };
        check_result(&mut ledger, &metrics);
        assert!(ledger.errors.is_empty());

        metrics.put("bad", f64::NAN, "us");
        check_result(&mut ledger, &metrics);
        assert_eq!(ledger.errors.len(), 1);
        assert!(result_json(&ledger, &metrics).starts_with("{\"correct\":false,"));

        let mut empty = Ledger::default();
        check_result(&mut empty, &Metrics::default());
        assert_eq!(
            empty.errors,
            vec!["the run attempted no operation".to_string()]
        );
    }
}
