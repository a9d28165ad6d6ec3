//! What the three workloads share: the hosted fleet, the seeded session,
//! delivery bookkeeping, the failure ledger, and the metric sets.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::wire::{self, Message};
use teeve_net::{ClusterConfig, ClusterError, ClusterReport, LiveCluster, Reactor};
use teeve_pubsub::{DisseminationPlan, Session};
use teeve_telemetry::LogHistogram;
use teeve_types::{DisplayId, Quality, SiteId, StreamId};

use crate::probe;
use crate::spans::{self_times_ns, Counters, Tracer};
use crate::stats;

/// Event-loop threads hosting every RP (the container has two cores).
pub const LOOP_THREADS: usize = 2;
/// Sites of the seeded session (the paper's largest N).
pub const SESSION_SITES: usize = 10;
/// Cameras (streams) per site.
pub const CAMERAS_PER_SITE: u32 = 8;
/// Displays per site, each aimed at another site.
pub const DISPLAYS_PER_SITE: u32 = 2;
/// Deadline for every blocking cluster call.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(20);
/// Minimum span of one window of the windowed delivery rate.
pub const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Steal share up to which a segment or round counts as undisturbed. The
/// end-to-end figures come from the undisturbed ones, or from the half
/// the hypervisor stole least from when fewer are undisturbed: on the
/// 2-core VM a few per cent of steal cut the closed-loop rates and raised
/// the latencies by a fifth to a third, in bursts of a few seconds.
pub const STEAL_LIMIT: f64 = 0.01;

/// A (receiving site, stream) pair of delivery accounting.
pub type Pair = (SiteId, StreamId);

/// The seed of the `index`-th session or round of a run; index 0 is the
/// run's own seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seeded 10-site session: sites sampled from the North American
/// backbone, and each site's two displays aimed at two distinct other
/// sites with `subscribe_viewpoint`. The default site capacity (degree 20)
/// already makes the runtime relay about one stream edge in five.
pub fn sample_session(seed: u64) -> Session {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let costs = teeve_topology::backbone_north_america()
        .sample_session(SESSION_SITES, &mut rng)
        .expect("the backbone has more than 10 connected sites")
        .costs;
    let mut session = Session::builder(costs)
        .cameras_per_site(CAMERAS_PER_SITE)
        .displays_per_site(DISPLAYS_PER_SITE)
        .build();
    for site in SiteId::all(SESSION_SITES) {
        let mut others: Vec<SiteId> = SiteId::all(SESSION_SITES).filter(|&s| s != site).collect();
        others.shuffle(&mut rng);
        for (display, &target) in (0..DISPLAYS_PER_SITE).zip(&others) {
            session.subscribe_viewpoint(DisplayId::new(site, display), target);
        }
    }
    session
}

/// Deliveries one frame of every origin stream owes the plan's receivers.
pub fn deliveries_per_frame(plan: &DisseminationPlan) -> u64 {
    plan.site_plans()
        .iter()
        .map(|sp| sp.in_degree() as u64)
        .sum()
}

/// Records what the plan's receivers are owed by a batch of `frames`.
pub fn expect_batch(expected: &mut BTreeMap<Pair, u64>, plan: &DisseminationPlan, frames: u64) {
    for sp in plan.site_plans() {
        for stream in sp.received_streams() {
            *expected.entry((sp.site, stream)).or_default() += frames;
        }
    }
}

/// Forwarding entries that both receive and forward a stream: nonzero
/// when the plan's trees are multi-hop.
pub fn relay_entries(plan: &DisseminationPlan) -> usize {
    plan.site_plans()
        .iter()
        .flat_map(|sp| &sp.entries)
        .filter(|e| !e.is_origin() && !e.children.is_empty())
        .count()
}

/// Attempted and failed operations, plus every failed correctness check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted: expected frame deliveries and calls made.
    pub attempted: u64,
    /// Frames expected but not delivered, shed writes, and calls that
    /// returned an error.
    pub failed: u64,
    /// Failed correctness checks, in order.
    pub errors: Vec<String>,
}

impl Ledger {
    /// Counts one call; an error counts as failed and as a failed check.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Checks a fleet's final report against what its batches owed: exact
    /// per-pair counts and every RP's stats harvested.
    pub fn settle(&mut self, report: &ClusterReport, expected: &BTreeMap<Pair, u64>) {
        let owed: u64 = expected.values().sum();
        let missing: u64 = expected
            .iter()
            .map(|(pair, &n)| n.saturating_sub(report.delivered.get(pair).copied().unwrap_or(0)))
            .sum();
        self.attempted += owed;
        self.failed += missing;
        self.check(report.missing_reports == 0, || {
            format!("{} RP stats reports were lost", report.missing_reports)
        });
        let delivered: BTreeMap<Pair, u64> = report
            .delivered
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&pair, &n)| (pair, n))
            .collect();
        self.check(&delivered == expected, || {
            format!(
                "deliveries differ from the plans: {} delivered, {owed} owed, {missing} missing",
                report.total_delivered()
            )
        });
    }

    /// Counts writes the reactor shed as failed operations.
    pub fn shed(&mut self, dropped_writes: u64) {
        self.failed += dropped_writes;
        self.check(dropped_writes == 0, || {
            format!("the reactor shed {dropped_writes} writes")
        });
    }
}

/// A reactor and the RP fleet it hosts. Field order is drop order.
pub struct Fleet {
    /// The coordinator-driven cluster.
    pub cluster: LiveCluster,
    /// The reactor hosting every RP.
    pub reactor: Reactor,
    /// Threads `Reactor::new` spawned (its event loops).
    pub loop_threads: Vec<u64>,
}

/// Starts a reactor and records the threads it spawned.
pub fn start_reactor() -> std::io::Result<(Reactor, Vec<u64>)> {
    let before = probe::thread_ids();
    let reactor = Reactor::new(LOOP_THREADS)?;
    let loop_threads = stats::spawned_threads(&before, &probe::thread_ids());
    Ok((reactor, loop_threads))
}

/// Launches `plan` on a fresh reactor.
pub fn launch(plan: &DisseminationPlan, config: &ClusterConfig) -> Result<Fleet, ClusterError> {
    let (reactor, loop_threads) = start_reactor()?;
    let cluster = LiveCluster::launch_reactor(plan, config, &reactor)?;
    Ok(Fleet {
        cluster,
        reactor,
        loop_threads,
    })
}

impl Fleet {
    /// Shuts the cluster and its reactor down, returning the cluster's
    /// report and the reactor's shed-write count.
    pub fn shutdown(self) -> (ClusterReport, u64) {
        let Fleet {
            cluster, reactor, ..
        } = self;
        let report = cluster.shutdown();
        let dropped = reactor.telemetry().counter("reactor.writes.dropped").get();
        reactor.shutdown();
        (report, dropped)
    }

    /// Opens a measurement window over the reactor's loop threads.
    pub fn window(&self) -> LoopWindow {
        let wakeups = self
            .reactor
            .telemetry()
            .histogram("reactor.wakeup_batch")
            .snapshot();
        LoopWindow {
            cpu: probe::threads_cpu_ns(&self.loop_threads),
            wall_ns: probe::wall_ns(),
            wakeup_sum: wakeups.sum(),
            wakeup_count: wakeups.count(),
        }
    }
}

/// Loop-thread CPU and wakeup counters at the start of a window.
pub struct LoopWindow {
    cpu: BTreeMap<u64, u64>,
    wall_ns: u64,
    wakeup_sum: u64,
    wakeup_count: u64,
}

/// Reactor and coordinator figures gathered over traced windows.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Busy share of the busiest loop thread, one per window.
    pub loop_busy_max: Vec<f64>,
    /// Events handled per poll wakeup: sum and count.
    pub wakeup: (u64, u64),
    /// Coordinator `Reconfigure`→`Ack` round trips: sum and count, µs.
    pub reconfigure_rtt: (u64, u64),
    /// Coordinator link opens: sum and count, µs.
    pub link_open: (u64, u64),
    /// Coordinator link closes: sum and count, µs.
    pub link_close: (u64, u64),
}

fn add_hist(total: &mut (u64, u64), hist: &LogHistogram) {
    total.0 += hist.sum();
    total.1 += hist.count();
}

impl LayerTotals {
    /// Closes a window opened by [`Fleet::window`].
    pub fn close_window(&mut self, fleet: &Fleet, start: LoopWindow) {
        let wall_ns = probe::wall_ns() - start.wall_ns;
        let end = probe::threads_cpu_ns(&fleet.loop_threads);
        let busy = stats::thread_busy(&start.cpu, &end, wall_ns);
        self.loop_busy_max
            .push(busy.values().copied().fold(0.0, f64::max));
        let wakeups = fleet
            .reactor
            .telemetry()
            .histogram("reactor.wakeup_batch")
            .snapshot();
        self.wakeup.0 += wakeups.sum() - start.wakeup_sum;
        self.wakeup.1 += wakeups.count() - start.wakeup_count;
    }

    /// Adds a cluster's coordinator histograms.
    pub fn add_coordinator(&mut self, cluster: &LiveCluster) {
        let registry = cluster.telemetry();
        add_hist(
            &mut self.reconfigure_rtt,
            &registry
                .histogram("coordinator.reconfigure_rtt_micros")
                .snapshot(),
        );
        add_hist(
            &mut self.link_open,
            &registry
                .histogram("coordinator.link_open_micros")
                .snapshot(),
        );
        add_hist(
            &mut self.link_close,
            &registry
                .histogram("coordinator.link_close_micros")
                .snapshot(),
        );
    }
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics in declaration order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// A fleet's exact mean delivery latency, µs: `sum / count` over every
/// frame it delivered; `None` when it delivered none.
pub fn latency_mean_us(report: &ClusterReport) -> Option<f64> {
    let merged = report.merged_latency();
    (merged.count() > 0).then(|| stats::mean(merged.sum() as f64, merged.count() as f64))
}

/// What the untraced measurement of a workload yields.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up wall times, s.
    pub setup_s: Vec<f64>,
    /// Loop steps as `(wall_ns, deliveries)`, for the windowed rate.
    pub rate_steps: Vec<(u64, u64)>,
    /// Blocking step wall times, µs.
    pub steps_us: Vec<f64>,
    /// Exact delivery latency mean of each fleet, µs.
    pub fleet_latency_us: Vec<f64>,
    /// `VmHWM` read at a fixed point of the workload, KiB; `None` reads
    /// it when the metrics are taken.
    pub peak_rss_kib: Option<u64>,
}

impl EndToEnd {
    /// The end-to-end metric set, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", stats::median(&self.setup_s), "s");
        let rates = stats::windowed_rates(&self.rate_steps, RATE_WINDOW.as_nanos() as u64);
        m.put("deliveries_per_s", stats::median(&rates), "1/s");
        m.put(
            "delivery_latency_mean_us",
            stats::interquartile_mean(&self.fleet_latency_us),
            "us",
        );
        m.put("step_p50_us", stats::median(&self.steps_us), "us");
        let peak_kib = self.peak_rss_kib.unwrap_or_else(probe::peak_rss_kib);
        m.put("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");
        m
    }
}

/// Process counters summed over the root spans of a traced phase.
pub fn root_counters(tracer: &Tracer) -> Counters {
    let mut total = Counters::default();
    for span in tracer.spans().iter().filter(|s| s.parent.is_none()) {
        if let Some(c) = &span.counters {
            total.add(c);
        }
    }
    total
}

/// Median self time of the spans named `name`, µs; 0 when none exist.
pub fn median_self_us(tracer: &Tracer, name: &str) -> f64 {
    let selfs = self_times_ns(tracer.spans());
    let samples: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    stats::median(&samples)
}

/// Per-layer figures every workload reports the same way: the process
/// counters per delivery over the traced phase, the reactor and
/// coordinator totals, and the in-memory codec cost of the workload's own
/// frame and plan.
pub fn shared_layers(
    m: &mut Metrics,
    tracer: &mut Tracer,
    totals: &LayerTotals,
    deliveries: u64,
    payload_bytes: usize,
    plan: &DisseminationPlan,
    dropped_writes: u64,
) {
    let c = root_counters(tracer);
    let per = |x: u64| stats::mean(x as f64, deliveries as f64);
    let (encode_ns, decode_ns, reconfigure_ns) = codec_costs(tracer, payload_bytes, plan);
    m.put("wire.frame_encode_ns", encode_ns, "ns");
    m.put("wire.frame_decode_ns", decode_ns, "ns");
    m.put("wire.reconfigure_codec_ns", reconfigure_ns, "ns");
    m.put(
        "reactor.loop_busy_max",
        stats::median(&totals.loop_busy_max),
        "ratio",
    );
    m.put(
        "reactor.wakeup_batch_mean",
        stats::mean(totals.wakeup.0 as f64, totals.wakeup.1 as f64),
        "events",
    );
    m.put("reactor.writes_dropped", dropped_writes as f64, "count");
    m.put("cpu_ns_per_delivery", per(c.process_cpu_ns), "ns");
    m.put("allocs_per_delivery", per(c.allocs), "count");
    m.put(
        "alloc_bytes_per_payload_byte",
        stats::mean(
            c.alloc_bytes as f64,
            (deliveries * payload_bytes as u64) as f64,
        ),
        "ratio",
    );
    m.put(
        "ctx_switches_per_delivery",
        per(c.context_switches),
        "count",
    );
    m.put(
        "coordinator.thread_cpu_share",
        stats::mean(c.thread_cpu_ns as f64, c.process_cpu_ns as f64),
        "ratio",
    );
    let hist_mean = |h: (u64, u64)| stats::mean(h.0 as f64, h.1 as f64);
    m.put(
        "coordinator.reconfigure_rtt_mean_us",
        hist_mean(totals.reconfigure_rtt),
        "us",
    );
    m.put(
        "coordinator.link_open_mean_us",
        hist_mean(totals.link_open),
        "us",
    );
    m.put(
        "coordinator.link_close_mean_us",
        hist_mean(totals.link_close),
        "us",
    );
}

/// In-memory `wire::encode`/`decode` of one `Frame` of `payload_bytes`,
/// and encode+decode of every `Reconfigure` site plan of `plan`, each as
/// ns per call from one traced block of calls.
pub fn codec_costs(
    tracer: &mut Tracer,
    payload_bytes: usize,
    plan: &DisseminationPlan,
) -> (f64, f64, f64) {
    let frame = Message::Frame {
        stream: StreamId::new(SiteId::new(0), 0),
        quality: Quality::FULL,
        seq: 1,
        captured_micros: 1,
        payload: Bytes::from(vec![0x5a; payload_bytes]),
    };
    // 16 MiB of frames per timed block.
    let reps = (16 << 20) / payload_bytes.max(1024);
    let mut dst = BytesMut::with_capacity(reps * (payload_bytes + 64));
    let encode = timed(tracer, "wire.encode", || {
        for _ in 0..reps {
            wire::encode(std::hint::black_box(&frame), &mut dst);
        }
    });
    let decode = timed(tracer, "wire.decode", || {
        for _ in 0..reps {
            let message = wire::decode(&mut dst).expect("own frame decodes");
            std::hint::black_box(message.expect("a whole frame is buffered"));
        }
    });

    let plans: Vec<Message> = plan
        .site_plans()
        .iter()
        .map(|sp| Message::Reconfigure {
            revision: plan.revision(),
            site_plan: sp.clone(),
        })
        .collect();
    let reconfigure_reps = 2_000;
    let mut buf = BytesMut::with_capacity(4096);
    let reconfigure = timed(tracer, "wire.reconfigure", || {
        for _ in 0..reconfigure_reps {
            for message in &plans {
                wire::encode(std::hint::black_box(message), &mut buf);
                let decoded = wire::decode(&mut buf).expect("own plan decodes");
                std::hint::black_box(decoded.expect("a whole message is buffered"));
            }
        }
    });
    let calls = (reconfigure_reps * plans.len()).max(1) as f64;
    (
        encode / reps as f64,
        decode / reps as f64,
        reconfigure / calls,
    )
}

/// Runs `body` inside one childless span and returns its duration (so
/// also its self time), ns.
fn timed(tracer: &mut Tracer, name: &'static str, body: impl FnOnce()) -> f64 {
    tracer.enter(name, 0);
    body();
    let index = tracer
        .exit()
        .expect("codec costs are measured on a traced run");
    tracer.spans()[index].duration_ns() as f64
}

/// Control-path layer figures; zero on workloads that bypass the layers.
#[derive(Debug, Default)]
pub struct ControlLayers {
    /// `drive_epoch` → `apply_delta` return, median and p99, µs.
    pub reconfig_us: (f64, f64),
    /// Median `apply_delta` wall time of socket-free deltas, µs.
    pub barrier_socket_free_us: f64,
    /// Median `apply_delta` wall time of deltas that opened or closed links, µs.
    pub barrier_link_churn_us: f64,
    /// Median `EpochReport::reconverge`, µs.
    pub reconverge_us: f64,
    /// Median of each runtime phase, µs, in `PHASES` order.
    pub phases_us: [f64; 5],
    /// Median `drive_epoch` self time (validation, slot lock, log append), µs.
    pub commit_overhead_us: f64,
    /// Log growth per epoch of the first round, bytes.
    pub store_bytes_per_epoch: f64,
    /// Workload identity counts of the first round, per epoch.
    pub links_opened_per_epoch: f64,
    /// Links closed per epoch (first round).
    pub links_closed_per_epoch: f64,
    /// Delta entries per epoch (first round).
    pub delta_entries_per_epoch: f64,
    /// Epochs that fell back to full reconstruction (first round).
    pub rebuild_epochs: f64,
    /// Resident-set growth per round after the peak's read point, KiB.
    pub rss_growth_kib_per_round: f64,
}

/// The runtime's phases, as span and metric names.
pub const PHASES: [&str; 5] = ["event_drain", "repair", "refit", "derive", "delta"];

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Untraced end-to-end samples.
    pub end_to_end: EndToEnd,
    /// Layer figures every workload reports (traced run only).
    pub shared: Metrics,
    /// Median paced-batch lag of the traced phase; 0 when unpaced.
    pub pace_lag: f64,
    /// Control-path layer figures (traced run only).
    pub control: ControlLayers,
    /// Stream edges of the (first) plan.
    pub plan_edges: usize,
    /// Traced over untraced median step time, minus one.
    pub trace_overhead: f64,
    /// Extra figures printed for reading, not part of the result line.
    pub readout: Vec<(String, f64, &'static str)>,
    /// The traced phase's spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// The per-layer metric set, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Metrics {
        let mut m = Metrics(self.shared.0.clone());
        let c = &self.control;
        m.put("pace_lag", self.pace_lag, "ratio");
        m.put("reconfig_p50_us", c.reconfig_us.0, "us");
        m.put("reconfig_p99_us", c.reconfig_us.1, "us");
        m.put("barrier.socket_free_us", c.barrier_socket_free_us, "us");
        m.put("barrier.link_churn_us", c.barrier_link_churn_us, "us");
        m.put("runtime.reconverge_us", c.reconverge_us, "us");
        for (name, value) in PHASES.iter().zip(c.phases_us) {
            m.put(format!("runtime.phase.{name}_us"), value, "us");
        }
        m.put("service.commit_overhead_us", c.commit_overhead_us, "us");
        m.put("store.bytes_per_epoch", c.store_bytes_per_epoch, "bytes");
        m.put(
            "process.rss_growth_kib_per_round",
            c.rss_growth_kib_per_round,
            "KiB",
        );
        m.put("plan_edges", self.plan_edges as f64, "count");
        m.put("links_opened_per_epoch", c.links_opened_per_epoch, "count");
        m.put("links_closed_per_epoch", c.links_closed_per_epoch, "count");
        m.put(
            "delta_entries_per_epoch",
            c.delta_entries_per_epoch,
            "count",
        );
        m.put("rebuild_epochs", c.rebuild_epochs, "count");
        m.put("trace.overhead", self.trace_overhead, "ratio");
        m
    }
}
