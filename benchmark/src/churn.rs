//! `churn_control`: a persistent `MembershipService` over a fresh
//! `SessionStore` log hosts one seeded 10-site session on a reactor fleet;
//! every epoch of seeded churn runs `drive_epoch` → `apply_delta` → a short
//! verification batch, closed loop. A run is a sequence of rounds, each
//! with its own session, store, service, reactor and fleet, so one run
//! averages over many sessions instead of hanging on one. Set-up is
//! sampled once per round and once more by a set-up-only round after each
//! measured one. The end-to-end figures come from the rounds the
//! hypervisor stole the least CPU time from. A traced run replays the
//! untraced half's rounds, so the two halves see the same sessions.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::{ClusterConfig, LiveCluster};
use teeve_pubsub::DisseminationPlan;
use teeve_runtime::TraceConfig;
use teeve_service::{MembershipService, SessionSpec};
use teeve_store::SessionStore;

use crate::common::{
    self, deliveries_per_frame, expect_batch, start_reactor, ControlLayers, Fleet, LayerTotals,
    Ledger, Metrics, Outcome, CALL_TIMEOUT, DISPLAYS_PER_SITE, PHASES, SESSION_SITES,
};
use crate::probe;
use crate::spans::Tracer;
use crate::stats;
use crate::Args;

/// Epochs of churn per round.
const EPOCHS_PER_ROUND: usize = 400;
/// Frames per origin stream in each epoch's verification batch.
const VERIFY_FRAMES: u64 = 8;
/// Verification frame payload, bytes.
const VERIFY_PAYLOAD: usize = 1024;
/// Set-up-only rounds before the measured ones; one more follows every
/// measured round.
const SETUP_REPS: u64 = 3;
/// Rounds after which the peak RSS is read. The resident set after a
/// round swings by about a MiB from round to round and drifts upward, so a
/// peak read at the end of the run would grow with the number of rounds
/// the box managed, i.e. with speed. `rss_growth_kib_per_round` watches
/// the drift over the rounds after this one.
const RSS_ROUNDS: u64 = 4;
/// Round ids of set-up-only rounds count down from here, clear of the
/// measured rounds' ids.
const SETUP_ONLY_ROUND: u64 = u64::MAX;

/// What one epoch measured.
struct EpochSample {
    traced: bool,
    /// The round (and so the session) the epoch belongs to.
    round: u64,
    /// `drive_epoch` → `apply_delta` return.
    reconfig_ns: u64,
    /// `apply_delta` alone.
    apply_ns: u64,
    socket_free: bool,
    reconverge_ns: u64,
    phases_ns: [u64; 5],
    /// The whole epoch, verification batch included.
    step_ns: u64,
    /// Deliveries the verification batch owed.
    deliveries: u64,
}

/// What one untraced measured round yields beside its epochs.
struct RoundSample {
    round: u64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the round's epoch loop.
    steal: f64,
    /// The fleet's exact delivery latency mean, µs.
    latency_us: Option<f64>,
}

/// Identity counts of the first round.
#[derive(Default)]
struct Identity {
    epochs: usize,
    links_opened: usize,
    links_closed: usize,
    delta_entries: usize,
    rebuilds: usize,
    store_bytes: u64,
}

struct Run<'a> {
    seed: u64,
    run_dir: &'a Path,
    samples: Vec<EpochSample>,
    rounds: Vec<RoundSample>,
    identity: Identity,
    totals: LayerTotals,
    tracer: Tracer,
    /// Writes the reactors shed, over every round.
    dropped_writes: u64,
    /// The session's launch plan, as the service derived it.
    launch_plan: Option<DisseminationPlan>,
    /// `VmRSS` after each untraced measured round, KiB.
    rss_kib: Vec<f64>,
}

/// Runs `churn_control` for `args.seconds` of epoch loops.
pub fn run(args: &Args, ledger: &mut Ledger, run_dir: &Path) -> Outcome {
    let mut run = Run {
        seed: args.seed,
        run_dir,
        samples: Vec::new(),
        rounds: Vec::new(),
        identity: Identity::default(),
        totals: LayerTotals::default(),
        tracer: Tracer::new(true),
        dropped_writes: 0,
        launch_plan: None,
        rss_kib: Vec::new(),
    };
    let mut outcome = Outcome::default();
    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut phases = vec![(false, untraced_budget)];
    if args.trace {
        phases.push((true, args.seconds / 2));
    }
    let mut setup_only = SETUP_ONLY_ROUND;
    let mut setup_round = |run: &mut Run, ledger: &mut Ledger, outcome: &mut Outcome| {
        if ledger.errors.is_empty() {
            run.round(setup_only, 0, false, ledger, outcome);
            setup_only -= 1;
        }
    };
    for _ in 0..SETUP_REPS {
        setup_round(&mut run, ledger, &mut outcome);
    }
    let mut rounds = 0u64;
    for (traced, budget) in phases {
        let mut spent = Duration::ZERO;
        let mut round = 0u64;
        while ledger.errors.is_empty() && (spent < budget || round == 0) {
            match run.round(round, EPOCHS_PER_ROUND, traced, ledger, &mut outcome) {
                Some(loop_time) => spent += loop_time,
                None => break,
            }
            if !traced {
                setup_round(&mut run, ledger, &mut outcome);
            }
            round += 1;
            rounds += 1;
        }
    }
    run.finish(args, rounds, outcome)
}

impl Run<'_> {
    /// One round: set-up, `epochs` epochs, shutdown, checks. Returns the
    /// time spent in the epoch loop.
    fn round(
        &mut self,
        round: u64,
        epochs: usize,
        traced: bool,
        ledger: &mut Ledger,
        outcome: &mut Outcome,
    ) -> Option<Duration> {
        let path = self
            .run_dir
            .join(format!("churn-{}-{round}.log", self.seed));
        let _ = fs::remove_file(&path);
        let seed = common::derive_seed(self.seed, round);
        let session = common::sample_session(seed);
        let trace = TraceConfig {
            epochs,
            ..TraceConfig::default()
        }
        .generate(
            SESSION_SITES,
            DISPLAYS_PER_SITE,
            &mut ChaCha8Rng::seed_from_u64(seed),
        );
        let config = ClusterConfig {
            frames_per_stream: VERIFY_FRAMES,
            payload_bytes: VERIFY_PAYLOAD,
            frame_interval: None,
            timeout: CALL_TIMEOUT,
        };

        let t0 = Instant::now();
        let (reactor, loop_threads) = ledger.call("Reactor::new", start_reactor())?;
        let store = ledger.call("SessionStore::open", SessionStore::open(&path))?;
        let service = ledger.call(
            "MembershipService::recover",
            MembershipService::recover(store),
        )?;
        let spec = SessionSpec::new(session);
        let handle = ledger.call("create_session", service.create_session(spec))?;
        let plan = ledger.call("plan", handle.plan())?;
        let cluster = ledger.call(
            "launch_reactor",
            LiveCluster::launch_reactor(&plan, &config, &reactor),
        )?;
        let mut fleet = Fleet {
            cluster,
            reactor,
            loop_threads,
        };
        let setup = t0.elapsed();
        if !traced {
            outcome.end_to_end.setup_s.push(setup.as_secs_f64());
        }
        let first = round == 0 && !traced;
        if first {
            outcome.plan_edges = plan.edges().count();
            self.launch_plan = Some(plan.clone());
        }
        let log_after_setup = file_len(&path);

        let tracer = &mut self.tracer;
        let mut off = Tracer::new(false);
        let tracer = if traced { tracer } else { &mut off };
        let window = traced.then(|| fleet.window());
        probe::set_alloc_counting(traced);
        let mut expected = BTreeMap::new();
        let mut driven_epochs = 0usize;
        let steal_start = probe::cpu_steal_ticks();
        let loop_start = Instant::now();
        for (k, events) in trace.iter().enumerate() {
            let id = round << 32 | k as u64;
            let t = Instant::now();
            tracer.enter("epoch", id);
            tracer.enter("drive_epoch", id);
            let driven = ledger.call("drive_epoch", handle.drive_epoch(events));
            let drive_span = tracer.exit();
            let Some(driven) = driven else {
                tracer.exit();
                break;
            };
            let report = &driven.report;
            let phases = [
                report.phases.event_drain,
                report.phases.repair,
                report.phases.refit,
                report.phases.derive,
                report.phases.delta,
            ]
            .map(|d| d.as_nanos() as u64);
            if let Some(drive_span) = drive_span {
                let mut offset = 0;
                for (name, ns) in PHASES.iter().zip(phases) {
                    tracer.child(drive_span, name, offset, ns);
                    offset += ns;
                }
            }

            let t_apply = Instant::now();
            tracer.enter("apply_delta", id);
            let applied = ledger.call("apply_delta", fleet.cluster.apply_delta(&driven.delta));
            tracer.exit();
            let apply_ns = t_apply.elapsed().as_nanos() as u64;
            let reconfig_ns = t.elapsed().as_nanos() as u64;
            let Some(applied) = applied else {
                tracer.exit();
                break;
            };
            let revision = driven.delta.to_revision();
            ledger.check(
                applied.revision == revision && fleet.cluster.revision() == revision,
                || {
                    format!(
                        "epoch {k}: fleet acked {} for revision {revision}",
                        applied.revision
                    )
                },
            );

            tracer.enter("verify_batch", id);
            let verified = ledger.call("publish", fleet.cluster.publish(VERIFY_FRAMES));
            tracer.exit();
            tracer.exit();
            expect_batch(&mut expected, fleet.cluster.plan(), VERIFY_FRAMES);
            driven_epochs += 1;

            self.samples.push(EpochSample {
                traced,
                round,
                reconfig_ns,
                apply_ns,
                socket_free: applied.is_socket_free(),
                reconverge_ns: report.reconverge.as_nanos() as u64,
                phases_ns: phases,
                step_ns: t.elapsed().as_nanos() as u64,
                deliveries: VERIFY_FRAMES * deliveries_per_frame(fleet.cluster.plan()),
            });
            if first {
                let id = &mut self.identity;
                id.links_opened += applied.established.len();
                id.links_closed += applied.closed.len();
                id.delta_entries += driven.delta.len();
                id.rebuilds += usize::from(report.rebuilt);
            }
            if verified.is_none() {
                break;
            }
        }
        let loop_time = loop_start.elapsed();
        let steal = probe::steal_share(steal_start, probe::cpu_steal_ticks());
        probe::set_alloc_counting(false);
        if let Some(window) = window {
            self.totals.close_window(&fleet, window);
            self.totals.add_coordinator(&fleet.cluster);
        }

        let live = ledger.call("plan", handle.plan())?;
        ledger.check(fleet.cluster.plan() == &live, || {
            format!("round {round}: the fleet's plan differs from the service's")
        });
        let (report, dropped) = fleet.shutdown();
        ledger.settle(&report, &expected);
        ledger.shed(dropped);
        self.dropped_writes += dropped;
        if !traced && epochs > 0 {
            self.rounds.push(RoundSample {
                round,
                steal,
                latency_us: common::latency_mean_us(&report),
            });
        }
        if first {
            self.identity.epochs = driven_epochs;
            self.identity.store_bytes = file_len(&path) - log_after_setup;
        }

        let id = handle.id();
        drop(handle);
        drop(service);
        let recovered = SessionStore::open(&path)
            .map_err(teeve_service::ServiceError::from)
            .and_then(MembershipService::recover)
            .and_then(|service| service.handle(id)?.plan());
        let recovered = ledger.call("recover", recovered)?;
        ledger.check(recovered == live, || {
            format!("round {round}: the plan recovered from the log differs from the live one")
        });
        let _ = fs::remove_file(&path);
        if epochs > 0 && !traced {
            self.rss_kib.push(probe::rss_kib() as f64);
            if round == RSS_ROUNDS - 1 {
                outcome.end_to_end.peak_rss_kib = Some(probe::peak_rss_kib());
            }
        }
        Some(loop_time)
    }

    fn finish(mut self, args: &Args, rounds: u64, mut outcome: Outcome) -> Outcome {
        let untraced: Vec<&EpochSample> = self.samples.iter().filter(|s| !s.traced).collect();
        let steal: Vec<f64> = self.rounds.iter().map(|r| r.steal).collect();
        let kept: Vec<&RoundSample> = stats::least_stolen(&steal, common::STEAL_LIMIT)
            .into_iter()
            .map(|i| &self.rounds[i])
            .collect();
        let measured: Vec<&EpochSample> = untraced
            .iter()
            .copied()
            .filter(|s| kept.iter().any(|r| r.round == s.round))
            .collect();
        let e2e = &mut outcome.end_to_end;
        e2e.rate_steps = measured.iter().map(|s| (s.step_ns, s.deliveries)).collect();
        e2e.steps_us = measured
            .iter()
            .map(|s| s.reconfig_ns as f64 / 1e3)
            .collect();
        e2e.fleet_latency_us = kept.iter().filter_map(|r| r.latency_us).collect();
        let loop_s: f64 = measured.iter().map(|s| s.step_ns as f64 / 1e9).sum();
        let id = &self.identity;
        let per_epoch = |n: usize| stats::mean(n as f64, id.epochs as f64);
        let rss_growth = rss_growth_kib_per_round(&self.rss_kib);
        outcome.readout = vec![
            ("rounds".into(), rounds as f64, "count"),
            ("rounds_measured".into(), kept.len() as f64, "count"),
            ("epochs".into(), measured.len() as f64, "count"),
            (
                "epochs_per_s".into(),
                stats::mean(measured.len() as f64, loop_s),
                "1/s",
            ),
            ("reconfig_p50_us".into(), stats::median(&e2e.steps_us), "us"),
            (
                "reconfig_p99_us".into(),
                stats::quantile(&e2e.steps_us, 0.99),
                "us",
            ),
            (
                "store.bytes_per_epoch".into(),
                stats::mean(id.store_bytes as f64, id.epochs as f64),
                "bytes",
            ),
            ("rss_growth_kib_per_round".into(), rss_growth, "KiB"),
        ];
        if !args.trace {
            return outcome;
        }

        let traced: Vec<&EpochSample> = self.samples.iter().filter(|s| s.traced).collect();
        let us = |ns: u64| ns as f64 / 1e3;
        let median_of = |pick: &dyn Fn(&EpochSample) -> Option<u64>| {
            let values: Vec<f64> = traced.iter().filter_map(|s| pick(s)).map(us).collect();
            stats::median(&values)
        };
        let reconfig: Vec<f64> = traced.iter().map(|s| us(s.reconfig_ns)).collect();
        let mut phases_us = [0.0; 5];
        for (i, slot) in phases_us.iter_mut().enumerate() {
            *slot = median_of(&|s| Some(s.phases_ns[i]));
        }
        outcome.control = ControlLayers {
            reconfig_us: (stats::median(&reconfig), stats::quantile(&reconfig, 0.99)),
            barrier_socket_free_us: median_of(&|s| s.socket_free.then_some(s.apply_ns)),
            barrier_link_churn_us: median_of(&|s| (!s.socket_free).then_some(s.apply_ns)),
            reconverge_us: median_of(&|s| Some(s.reconverge_ns)),
            phases_us,
            commit_overhead_us: common::median_self_us(&self.tracer, "drive_epoch"),
            store_bytes_per_epoch: stats::mean(id.store_bytes as f64, id.epochs as f64),
            links_opened_per_epoch: per_epoch(id.links_opened),
            links_closed_per_epoch: per_epoch(id.links_closed),
            delta_entries_per_epoch: per_epoch(id.delta_entries),
            rebuild_epochs: id.rebuilds as f64,
            rss_growth_kib_per_round: rss_growth,
        };
        let deliveries: u64 = traced.iter().map(|s| s.deliveries).sum();
        let Some(plan) = self.launch_plan.take() else {
            return outcome;
        };
        let mut shared = Metrics::default();
        common::shared_layers(
            &mut shared,
            &mut self.tracer,
            &self.totals,
            deliveries,
            VERIFY_PAYLOAD,
            &plan,
            self.dropped_writes,
        );
        outcome.shared = shared;
        // Against the untraced epochs of the same rounds, i.e. the same
        // sessions and churn traces.
        let matched: Vec<f64> = untraced
            .iter()
            .filter(|u| traced.iter().any(|t| t.round == u.round))
            .map(|u| us(u.reconfig_ns))
            .collect();
        outcome.trace_overhead = stats::median(&reconfig) / stats::median(&matched) - 1.0;
        outcome.tracer = self.tracer;
        outcome
    }
}

/// Least-squares slope of the resident set over the rounds after the one
/// the peak is read at, KiB per round; 0 with fewer than two such rounds.
fn rss_growth_kib_per_round(rss_kib: &[f64]) -> f64 {
    let later = rss_kib.get(RSS_ROUNDS as usize..).unwrap_or_default();
    stats::slope(later)
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}
