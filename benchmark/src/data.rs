//! The data-path workloads: static plans on reactor-hosted fleets, fed
//! back-to-back `publish` batches by the caller thread. `fanout_1k` runs
//! them unpaced (closed loop); `session_64k` paces every origin stream.
//! A run is one segment per plan, each on its own fleet, sharing the
//! measured time evenly. Set-up-only launches of the segment's plan are
//! spread through each segment's measured batches. The end-to-end figures
//! come from the segments the hypervisor stole the least CPU time from.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use teeve_net::ClusterConfig;
use teeve_pubsub::DisseminationPlan;
use teeve_telemetry::LogHistogram;

use crate::common::{
    self, deliveries_per_frame, expect_batch, launch, Fleet, LayerTotals, Ledger, Metrics, Outcome,
    CALL_TIMEOUT,
};
use crate::probe;
use crate::spans::Tracer;
use crate::stats;
use crate::Args;

/// Set-up-only launches per run, shared evenly by its segments (at least
/// one each) and spread through each segment's measured time: a burst of
/// launches at the start of a run samples the host's state of a few
/// milliseconds, while spread launches sample the whole run.
const SETUPS_PER_RUN: u32 = 48;

/// What one segment's untraced batches measured.
struct Measured {
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests while the batches ran.
    steal: f64,
    /// Each batch's wall time, ns.
    walls: Vec<u64>,
    /// The fleet's exact delivery latency mean, µs.
    latency_us: Option<f64>,
}

/// One segment of a data-path workload.
#[derive(Clone)]
pub struct DataSpec {
    /// The plan every batch runs on.
    pub plan: DisseminationPlan,
    /// Frame payload size, bytes.
    pub payload_bytes: usize,
    /// Frames per origin stream per `publish` batch.
    pub batch_frames: u64,
    /// Origin pacing; `None` publishes as fast as the sockets accept.
    pub interval: Option<Duration>,
    /// Batches run before measuring.
    pub warmup_batches: u64,
}

impl DataSpec {
    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            frames_per_stream: self.batch_frames,
            payload_bytes: self.payload_bytes,
            frame_interval: self.interval,
            timeout: CALL_TIMEOUT,
        }
    }

    /// Each batch's wall time over its paced schedule; empty when unpaced.
    fn lags(&self, walls: &[u64]) -> Vec<f64> {
        let Some(interval) = self.interval else {
            return Vec::new();
        };
        walls
            .iter()
            .map(|&ns| stats::pace_lag(ns, self.batch_frames, interval.as_nanos() as u64))
            .collect()
    }
}

/// Publishes batches until `deadline` passes (at least one), one
/// `publish` span per batch, and returns each batch's wall time in ns.
/// Publishes nothing once a check has failed, and stops at the first
/// failed batch: later batches would only wait out the timeout on the
/// missing frames.
fn publish_loop(
    fleet: &mut Fleet,
    spec: &DataSpec,
    deadline: Instant,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    batches: &mut u64,
) -> Vec<u64> {
    let mut walls = Vec::new();
    while ledger.errors.is_empty() {
        let t = Instant::now();
        tracer.enter("publish", *batches);
        let delivered = ledger.call("publish", fleet.cluster.publish(spec.batch_frames));
        tracer.exit();
        walls.push(t.elapsed().as_nanos() as u64);
        *batches += 1;
        if delivered.is_none() || Instant::now() >= deadline {
            break;
        }
    }
    walls
}

/// Launches `spec`'s plan on a fresh reactor, recording the set-up time.
fn launch_timed(spec: &DataSpec, ledger: &mut Ledger, setup_s: &mut Vec<f64>) -> Option<Fleet> {
    let t = Instant::now();
    let fleet = ledger.call("launch_reactor", launch(&spec.plan, &spec.config()))?;
    setup_s.push(t.elapsed().as_secs_f64());
    Some(fleet)
}

/// A set-up-only launch: timed, then shut down and checked.
fn setup_only(spec: &DataSpec, ledger: &mut Ledger, setup_s: &mut Vec<f64>) {
    if let Some(fleet) = launch_timed(spec, ledger, setup_s) {
        let (report, dropped) = fleet.shutdown();
        ledger.settle(&report, &BTreeMap::new());
        ledger.shed(dropped);
    }
}

/// Runs a data-path workload for `args.seconds`, one segment per spec.
pub fn run(specs: &[DataSpec], args: &Args, ledger: &mut Ledger) -> Outcome {
    let first = &specs[0];
    let mut outcome = Outcome {
        plan_edges: first.plan.edges().count(),
        ..Outcome::default()
    };
    let share = args.seconds / specs.len() as u32;
    let setups = (SETUPS_PER_RUN / specs.len() as u32).max(1);
    let (untraced_budget, traced_budget) = if args.trace {
        (share / 2, share / 2)
    } else {
        (share, Duration::ZERO)
    };
    let mut tracer = Tracer::new(true);
    let mut totals = LayerTotals::default();
    let (mut untraced_us, mut traced_us) = (Vec::new(), Vec::new());
    let mut traced_lags = Vec::new();
    let mut measured = Vec::new();
    let (mut traced_deliveries, mut delivered, mut dropped_writes) = (0u64, 0u64, 0u64);
    let mut latency = LogHistogram::new();
    for spec in specs {
        let Some(mut fleet) = launch_timed(spec, ledger, &mut outcome.end_to_end.setup_s) else {
            break;
        };

        let mut batches = 0u64;
        let mut off = Tracer::new(false);
        for _ in 0..spec.warmup_batches {
            let now = Instant::now();
            publish_loop(&mut fleet, spec, now, &mut off, ledger, &mut batches);
        }
        // The measured batches, with set-up-only launches spread among them.
        let steal_start = probe::cpu_steal_ticks();
        let start = Instant::now();
        let mut untraced = Vec::new();
        for k in 1..=setups {
            let deadline = start + untraced_budget * k / setups;
            untraced.extend(publish_loop(
                &mut fleet,
                spec,
                deadline,
                &mut off,
                ledger,
                &mut batches,
            ));
            if !args.trace && ledger.errors.is_empty() {
                setup_only(spec, ledger, &mut outcome.end_to_end.setup_s);
            }
        }
        let steal = probe::steal_share(steal_start, probe::cpu_steal_ticks());
        let per_batch = spec.batch_frames * deliveries_per_frame(&spec.plan);
        untraced_us.extend(untraced.iter().map(|&ns| ns as f64 / 1e3));

        if args.trace && ledger.errors.is_empty() {
            probe::set_alloc_counting(true);
            let window = fleet.window();
            let traced = publish_loop(
                &mut fleet,
                spec,
                Instant::now() + traced_budget,
                &mut tracer,
                ledger,
                &mut batches,
            );
            totals.close_window(&fleet, window);
            probe::set_alloc_counting(false);
            totals.add_coordinator(&fleet.cluster);
            traced_deliveries += traced.len() as u64 * per_batch;
            traced_us.extend(traced.iter().map(|&ns| ns as f64 / 1e3));
            traced_lags.extend(spec.lags(&traced));
        }

        let (report, dropped) = fleet.shutdown();
        let mut expected = BTreeMap::new();
        expect_batch(&mut expected, &spec.plan, batches * spec.batch_frames);
        ledger.settle(&report, &expected);
        ledger.shed(dropped);
        measured.push(Measured {
            steal,
            walls: untraced,
            latency_us: common::latency_mean_us(&report),
        });
        latency.merge(&report.merged_latency());
        delivered += report.total_delivered();
        dropped_writes += dropped;
    }

    let steal: Vec<f64> = measured.iter().map(|m| m.steal).collect();
    let kept = stats::least_stolen(&steal, common::STEAL_LIMIT);
    let e2e = &mut outcome.end_to_end;
    let mut kept_lags = Vec::new();
    for &i in &kept {
        let (m, spec) = (&measured[i], &specs[i]);
        let per_batch = spec.batch_frames * deliveries_per_frame(&spec.plan);
        e2e.rate_steps
            .extend(m.walls.iter().map(|&ns| (ns, per_batch)));
        e2e.steps_us
            .extend(m.walls.iter().map(|&ns| ns as f64 / 1e3));
        e2e.fleet_latency_us.extend(m.latency_us);
        kept_lags.extend(spec.lags(&m.walls));
    }

    outcome.readout = vec![
        ("segments".into(), specs.len() as f64, "count"),
        ("segments_measured".into(), kept.len() as f64, "count"),
        ("batches".into(), e2e.steps_us.len() as f64, "count"),
        ("pace_lag".into(), stats::median(&kept_lags), "ratio"),
        (
            "step_p99_us".into(),
            stats::quantile(&e2e.steps_us, 0.99),
            "us",
        ),
        (
            "delivery_latency_p99_bucket_us".into(),
            latency.p99() as f64,
            "us",
        ),
        ("delivered_frames".into(), delivered as f64, "count"),
        (
            "fleet_latency_min_us".into(),
            stats::quantile(&e2e.fleet_latency_us, 0.0),
            "us",
        ),
        (
            "fleet_latency_max_us".into(),
            stats::quantile(&e2e.fleet_latency_us, 1.0),
            "us",
        ),
        ("setup_samples".into(), e2e.setup_s.len() as f64, "count"),
        (
            "relay_entries".into(),
            common::relay_entries(&first.plan) as f64,
            "count",
        ),
    ];

    if args.trace {
        let mut shared = Metrics::default();
        common::shared_layers(
            &mut shared,
            &mut tracer,
            &totals,
            traced_deliveries,
            first.payload_bytes,
            &first.plan,
            dropped_writes,
        );
        outcome.shared = shared;
        outcome.pace_lag = stats::median(&traced_lags);
        outcome.trace_overhead = stats::median(&traced_us) / stats::median(&untraced_us) - 1.0;
        outcome.tracer = tracer;
    }
    outcome
}
