//! Live TCP rendezvous-point substrate for TEEVE dissemination plans.
//!
//! The paper's deployment vision — RPs at every site forwarding 3D video
//! streams along the constructed overlay, reconfigured by the membership
//! server as displays change FOV and sites churn — realized as real
//! sockets: each RP runs reader threads per inbound overlay link and
//! forwards frames to its planned children over a length-prefixed binary
//! protocol ([`wire`]).
//!
//! The substrate is **process-separable**: an [`RpNode`] is one site's
//! autonomous RP runtime — it owns its listener, forwarding table, link
//! set, and delivery counters, and is addressed only by socket — while a
//! [`Coordinator`] holds nothing but control connections and site
//! addresses. Every coordinator action is a [`wire`] message (table
//! installs via `Reconfigure`/`Ack`, link lifecycle via
//! `OpenLink`/`CloseLink` orders confirmed by `LinkUp`/`LinkDown`
//! notifications, frame injection via `Publish`/`BatchDone`, delivery
//! accounting via `StatsRequest`/`StatsReport`), so the same coordinator
//! drives RPs spawned as threads, as separate OS processes, or on other
//! hosts.
//!
//! [`LiveCluster`] is the in-process convenience wrapper (N spawned
//! nodes + one coordinator) that keeps the RPs up across plan revisions:
//! each [`PlanDelta`](teeve_pubsub::PlanDelta) is pushed at the running
//! cluster over the control plane, opening only the connections
//! [`link_changes`] reports as established and closing only the ones
//! whose last stream left — socket-free reroutes touch nothing.
//! [`run_cluster`] is the one-shot wrapper: launch, publish, shut down,
//! report per-site delivery counts and latencies.
//!
//! # Hosting modes: threads vs the reactor
//!
//! Every RP's protocol is one sans-IO state machine, `RpCore`: it owns
//! the revision-tagged forwarding table, `Hello` attribution, the
//! control-channel generation, delivery statistics and the per-rung
//! frame encoder, and answers each message with a list of effects
//! (writes to a child or to the control channel, link opens and closes,
//! publish batches, shutdown, disconnect). An RP can be hosted two ways;
//! both are executors of those effects and differ only in how they do
//! I/O:
//!
//! - **Thread-per-connection** ([`RpNode::spawn`]): an accept thread plus
//!   one reader thread per connection, each locking the core only while
//!   it handles a message and writing under per-socket locks. Simple and
//!   robust, but a fleet of N sites costs well over 2N threads — fine
//!   for a handful of sites, prohibitive for hundreds of sessions in one
//!   process.
//! - **Event-driven** ([`Reactor::bind_node`]): a fixed pool of
//!   non-blocking event loops hosts every RP. Each loop owns its nodes'
//!   cores outright (no locks), decodes incrementally from
//!   per-connection read buffers, coalesces writes per wakeup with
//!   backpressure-aware pending buffers, and paces `Publish` batches
//!   with timers instead of sleeping threads — thousands of RPs at a
//!   thread budget that does not grow with fleet size.
//!
//! [`LiveCluster::launch`] uses the threaded path;
//! [`LiveCluster::launch_reactor`] hosts the same fleet on a reactor.
//! Because both run the same core, the bytes on every hop and the
//! delivery accounting are identical across hosting modes.
//!
//! # Examples
//!
//! ```no_run
//! use rand::SeedableRng;
//! use teeve_net::{run_cluster, ClusterConfig};
//! use teeve_overlay::{ConstructionAlgorithm, ProblemInstance, RandomJoin};
//! use teeve_pubsub::{DisseminationPlan, StreamProfile};
//! use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
//! let problem = ProblemInstance::builder(costs, CostMs::new(50))
//!     .symmetric_capacities(Degree::new(4))
//!     .streams_per_site(&[1, 1, 1])
//!     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
//!     .build()?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let outcome = RandomJoin::default().construct(&problem, &mut rng);
//! let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
//!
//! let report = run_cluster(&plan, &ClusterConfig::default())?;
//! println!("delivered {} frames", report.total_delivered());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod coordinator;
mod node;
mod reactor;
mod replan;
mod rp;
pub mod wire;

pub use cluster::{run_cluster, LiveCluster};
pub use coordinator::{ClusterConfig, ClusterError, ClusterReport, Coordinator, ReconfigureReport};
pub use node::{RpNode, RpNodeHandle};
pub use reactor::{Reactor, ReactorNodeHandle};
pub use replan::{link_changes, link_changes_between, LinkChanges};
