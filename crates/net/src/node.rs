//! A standalone rendezvous-point runtime, addressed only by socket.
//!
//! [`RpNode`] is one site's RP as an autonomous unit: it owns its TCP
//! listener, its outbound link set, and one [`RpCore`] — the protocol
//! state machine shared with the [`Reactor`](crate::Reactor), which holds
//! the forwarding table, link attribution and delivery counters.
//! Everything a coordinator does to it — installing tables, opening and
//! closing links, injecting frames, harvesting statistics, shutting it
//! down — arrives as a [`wire`](crate::wire) message, so the node runs
//! equally well as a thread inside the coordinator's process
//! ([`LiveCluster`] spawns it that way), as its own OS process, or (in
//! principle) on another host.
//!
//! This module is the thread-per-connection executor of the core's
//! effects: an accept thread plus one reader thread per connection. A
//! reader decodes a message, holds the core's lock only while
//! [`RpCore::handle`] runs, then performs the effects with no core lock
//! held — writes under the per-socket writer locks of the outbound links
//! and the control channel, so concurrent readers never interleave
//! message bytes on one socket. The coordinator's first connection sends
//! [`Message::Attach`] to mark itself as the control channel; the node's
//! notifications and replies go up that channel.
//!
//! [`LiveCluster`]: crate::LiveCluster
//! [`Message::Attach`]: crate::wire::Message::Attach

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::BytesMut;
use parking_lot::Mutex;
use teeve_telemetry::FlightRecorder;
use teeve_types::SiteId;

use crate::rp::{ConnRole, Effect, PublishBatch, RpCore};
use crate::wire::decode;

/// Microseconds since the Unix epoch: the capture/delivery timestamp base.
/// A wall clock (not a process-local [`std::time::Instant`]) so frames
/// published by one process measure sane latencies when delivered in
/// another. Delegates to the workspace's single sanctioned clock module.
pub(crate) use teeve_types::clock::unix_micros;

/// State shared by the node's accept loop, readers and publishers.
struct NodeShared {
    site: SiteId,
    /// The address this node *advertises*: what the coordinator dials
    /// and hands to parents in `OpenLink` orders. Defaults to the bound
    /// listener address; multi-host deployments advertise a reachable
    /// address distinct from the (possibly wildcard) bind address.
    advertise: SocketAddr,
    /// The bound listener address as locally reachable, used to
    /// self-connect and wake the accept loop at shutdown (a wildcard
    /// bind maps to loopback).
    wake: SocketAddr,
    /// The protocol state machine, locked only while it handles one
    /// message; its effects are performed after the lock is released.
    core: Mutex<RpCore>,
    /// Outbound (this RP → child) data connections, opened by `OpenLink`
    /// orders — the node dials its own upstream targets.
    outbound: Mutex<BTreeMap<SiteId, TcpStream>>,
    /// The connection the latest `Attach` arrived on, shared with the
    /// reader serving it. One lock serializes every control-bound write
    /// so reader threads cannot interleave message bytes.
    control: Mutex<Option<Arc<TcpStream>>>,
    /// The core's flight recorder (clones share the ring).
    recorder: FlightRecorder,
    stop: AtomicBool,
    /// Socket deadline for dials and writes; also the idle wake-up period
    /// of every reader (a blocked read re-checks `stop` this often).
    timeout: Duration,
}

impl NodeShared {
    /// Performs the core's effects in order, draining `effects`. Returns
    /// false when one of them drops the connection the message came
    /// from.
    fn execute(self: &Arc<Self>, effects: &mut Vec<Effect>) -> bool {
        let mut keep = true;
        for effect in effects.drain(..) {
            match effect {
                Effect::ToChild { child, bytes } => {
                    if let Some(conn) = self.outbound.lock().get_mut(&child) {
                        let _ = conn.write_all(&bytes);
                    }
                }
                Effect::ToControl(bytes) => {
                    if let Some(mut conn) = self.control.lock().as_deref() {
                        let _ = conn.write_all(&bytes);
                    }
                }
                Effect::OpenLink { child, addr, hello } => {
                    let _ = self.open_link(child, addr, &hello);
                }
                Effect::CloseLink { child } => self.close_link(child),
                Effect::Publish(batch) => {
                    // Each batch paces on its own thread: two origin
                    // streams at one site interleave at the shared cadence
                    // instead of doubling the batch's wall time
                    // back-to-back, and a paced batch never stalls the
                    // control channel. The thread is untracked — the
                    // coordinator's publish() waits for its BatchDone, so
                    // it never outlives a graceful run.
                    let publisher = Arc::clone(self);
                    thread::spawn(move || publisher.publish_batch(&batch));
                }
                Effect::Shutdown => {
                    // Wake the accept loop; it re-checks the stop flag.
                    self.stop.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(self.wake);
                }
                Effect::Disconnect => keep = false,
            }
        }
        keep
    }

    /// Dials the child, opens with the `Hello` preamble, and registers
    /// the outbound link.
    fn open_link(&self, child: SiteId, addr: SocketAddr, hello: &[u8]) -> io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true).ok();
        conn.set_write_timeout(Some(self.timeout)).ok();
        conn.write_all(hello)?;
        self.outbound.lock().insert(child, conn);
        Ok(())
    }

    /// Write-shuts and drops the link so the child observes EOF (and
    /// reports `LinkDown`).
    fn close_link(&self, child: SiteId) {
        // Detach under the lock, shut down after releasing it: shutdown
        // can block on the peer's TCP stack and must not stall forwards.
        let conn = self.outbound.lock().remove(&child);
        if let Some(conn) = conn {
            let _ = conn.shutdown(Shutdown::Write);
        }
    }

    /// Paces one publish batch on the calling thread, then reports it
    /// done.
    fn publish_batch(self: &Arc<Self>, batch: &PublishBatch) {
        let mut effects = Vec::new();
        for seq in batch.base_seq..batch.end_seq {
            self.core
                .lock()
                .originate(unix_micros(), batch, seq, &mut effects);
            self.execute(&mut effects);
            if batch.interval_micros > 0 {
                thread::sleep(Duration::from_micros(batch.interval_micros));
            }
        }
        self.core.lock().batch_done(batch, &mut effects);
        self.execute(&mut effects);
    }

    /// Idempotent teardown: the core's shutdown cascade (`End` markers
    /// for locally originated streams, every outbound link write-shut),
    /// then the accept loop wakes and exits.
    fn begin_shutdown(self: &Arc<Self>) {
        let mut effects = Vec::new();
        self.core.lock().stop(&mut effects);
        self.execute(&mut effects);
    }
}

/// A bound-but-not-yet-running rendezvous point.
///
/// `bind` reserves the listener (so the address can be published before
/// any traffic exists), then either [`spawn`](Self::spawn) runs the
/// accept loop on a background thread (in-process fleets) or
/// [`run`](Self::run) blocks the calling thread until shutdown (the
/// standalone-process entry point).
pub struct RpNode {
    shared: Arc<NodeShared>,
    listener: TcpListener,
}

impl RpNode {
    /// Binds a new RP for `site` on an OS-assigned 127.0.0.1 port.
    ///
    /// `read_timeout` is every connection's periodic wake-up to re-check
    /// the stop flag — an idle link survives arbitrarily many timeouts —
    /// and the node's deadline for dials and writes.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind(site: SiteId, read_timeout: Duration) -> io::Result<RpNode> {
        Self::bind_to(
            site,
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            read_timeout,
        )
    }

    /// Binds a new RP for `site` on an explicit address (`bind` with port
    /// 0 picks a free localhost port); the node advertises the address it
    /// actually bound.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind_to(site: SiteId, addr: SocketAddr, read_timeout: Duration) -> io::Result<RpNode> {
        Self::bind_advertised(site, addr, None, read_timeout)
    }

    /// Binds a new RP for `site` on `bind` while *advertising* a
    /// (possibly different) address — the multi-host shape, where a node
    /// binds a wildcard or private address but must be dialed by the
    /// coordinator (and by parent RPs executing `OpenLink` orders) at a
    /// routable one. An advertised port of 0 is substituted with the
    /// port actually bound, so `0.0.0.0:0` + `advertise 10.0.0.7:0`
    /// works without pre-allocating ports. `advertise: None` falls back
    /// to the bound address, which is how the loopback defaults of
    /// [`bind`](Self::bind)/[`bind_to`](Self::bind_to) stay unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind_advertised(
        site: SiteId,
        bind: SocketAddr,
        advertise: Option<SocketAddr>,
        read_timeout: Duration,
    ) -> io::Result<RpNode> {
        let listener = TcpListener::bind(bind)?;
        let bound = listener.local_addr()?;
        let advertise = match advertise {
            Some(mut addr) => {
                if addr.port() == 0 {
                    addr.set_port(bound.port());
                }
                addr
            }
            None => bound,
        };
        // The shutdown self-connect must reach the listener from this
        // process; a wildcard bind is reachable via loopback.
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let recorder = FlightRecorder::new();
        Ok(RpNode {
            shared: Arc::new(NodeShared {
                site,
                advertise,
                wake,
                core: Mutex::new(RpCore::new(site, recorder.clone())),
                outbound: Mutex::new(BTreeMap::new()),
                control: Mutex::new(None),
                recorder,
                stop: AtomicBool::new(false),
                timeout: read_timeout,
            }),
            listener,
        })
    }

    /// Returns the node's advertised address — the only thing a
    /// coordinator needs to drive it. Equal to the bound listener address
    /// unless [`bind_advertised`](Self::bind_advertised) overrode it.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.advertise
    }

    /// Returns the site this node serves.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// Starts the accept loop on a background thread and returns the
    /// handle controlling it.
    pub fn spawn(self) -> RpNodeHandle {
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(listener, &accept_shared));
        RpNodeHandle { shared, accept }
    }

    /// Runs the node on the calling thread until it is shut down (by a
    /// coordinator `Shutdown` order or a local signal) — the entry point
    /// for a standalone RP process.
    pub fn run(self) {
        self.spawn().join();
    }
}

/// A running [`RpNode`]'s control handle.
pub struct RpNodeHandle {
    shared: Arc<NodeShared>,
    accept: thread::JoinHandle<()>,
}

impl RpNodeHandle {
    /// Returns the node's advertised address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.advertise
    }

    /// Returns the site this node serves.
    pub fn site(&self) -> SiteId {
        self.shared.site
    }

    /// The node's flight recorder: recent reconfigures and link churn as
    /// structured events, for postmortems. Clones share the ring.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.recorder
    }

    /// Begins local teardown, as if a `Shutdown` order had arrived:
    /// end-markers cascade, outbound links write-shut, the
    /// accept loop wakes and exits. Idempotent; does not block.
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the node to exit (its accept loop broken and every
    /// reader thread joined). Readers blocked on an idle connection exit
    /// within one read timeout of the stop flag being set.
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Accepts connections until the stop flag is set, spawning a reader per
/// connection.
///
/// The stop flag is checked **before** a reader is spawned, and a
/// connection that raced past it is dropped on the floor: without this
/// order, a connection accepted after teardown began would get a reader
/// spawned for it just before the loop breaks, leaving a thread serving a
/// link the cluster has already abandoned.
fn accept_loop(listener: TcpListener, shared: &Arc<NodeShared>) {
    let mut readers = Vec::new();
    loop {
        let Ok((conn, _)) = listener.accept() else {
            break;
        };
        if shared.stop.load(Ordering::SeqCst) {
            // Accepted after the stop flag: never spawn a reader; the
            // peer observes the dropped socket as EOF.
            drop(conn);
            break;
        }
        conn.set_read_timeout(Some(shared.timeout)).ok();
        conn.set_write_timeout(Some(shared.timeout)).ok();
        conn.set_nodelay(true).ok();
        let role = shared.core.lock().conn_role();
        let rp = Arc::clone(shared);
        readers.push(thread::spawn(move || reader_loop(conn, role, &rp)));
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Serves one connection until EOF, a dropped link or shutdown: every
/// decoded message goes to the core, and the reader performs the
/// effects before reading the next one, so orders arriving on one
/// connection are executed strictly in arrival order.
fn reader_loop(conn: TcpStream, mut role: ConnRole, rp: &Arc<NodeShared>) {
    let conn = Arc::new(conn);
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut effects = Vec::new();
    loop {
        match decode(&mut buf) {
            Ok(Some(message)) => {
                let attached = role.attached();
                let mut core = rp.core.lock();
                core.handle(unix_micros(), &mut role, message, &mut effects);
                if role.attached() != attached {
                    // Installed under the core lock, so two racing
                    // `Attach`es fill the slot in generation order.
                    *rp.control.lock() = Some(Arc::clone(&conn));
                }
                drop(core);
                if rp.execute(&mut effects) {
                    continue;
                }
                break;
            }
            Ok(None) => {}
            // Undecodable bytes drop the link.
            Err(_) => break,
        }
        match (&*conn).read(&mut chunk) {
            Ok(0) => break,
            Ok(read) => buf.extend_from_slice(&chunk[..read]),
            // The read timeout (WouldBlock on Unix, TimedOut on Windows)
            // just means the link is idle: keep serving it unless the
            // node is tearing down. Real errors end the link.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if rp.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    {
        let mut core = rp.core.lock();
        core.on_close(&mut role, &mut effects);
        // Release this socket from the control slot unless a newer
        // `Attach` already took it over.
        let mut control = rp.control.lock();
        if control.as_ref().is_some_and(|c| Arc::ptr_eq(c, &conn)) {
            *control = None;
        }
    }
    rp.execute(&mut effects);
}

#[cfg(test)]
mod tests {
    use super::*;

    use teeve_pubsub::{ChildLink, SitePlan};
    use teeve_types::{Quality, StreamId};

    use crate::wire::{encode, Message};

    #[test]
    fn socket_connection_accepted_after_stop_is_dropped_not_served() {
        let node = RpNode::bind(SiteId::new(0), Duration::from_millis(200)).expect("bind");
        let addr = node.local_addr();
        let shared = Arc::clone(&node.shared);
        let handle = node.spawn();

        // Set the stop flag directly, without the shutdown wake-up: the
        // next accepted connection is the one racing past teardown.
        shared.stop.store(true, Ordering::SeqCst);
        let mut racer = TcpStream::connect(addr).expect("connect");
        racer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // The racing connection must be dropped (EOF / reset), never
        // handed to a reader that would serve it indefinitely…
        let mut scratch = [0u8; 8];
        match racer.read(&mut scratch) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("dropped connection delivered {n} bytes"),
        }
        // …and the accept loop must have broken out, so the node joins.
        handle.join();
    }

    #[test]
    fn socket_stop_is_idempotent_and_unblocks_join() {
        let node = RpNode::bind(SiteId::new(3), Duration::from_millis(200)).expect("bind");
        assert_eq!(node.site(), SiteId::new(3));
        let handle = node.spawn();
        handle.stop();
        handle.stop();
        handle.join();
    }

    #[test]
    fn socket_parent_sizes_frames_by_the_childs_rung() {
        use teeve_pubsub::ForwardingEntry;

        // A bare listener stands in for the degraded child so the bytes
        // the parent actually puts on that hop can be inspected.
        let child_listener = TcpListener::bind("127.0.0.1:0").expect("child bind");
        let child_addr = child_listener.local_addr().unwrap();
        let stream_id = StreamId::new(SiteId::new(0), 0);

        let node = RpNode::bind(SiteId::new(0), Duration::from_millis(200)).expect("bind");
        let addr = node.local_addr();
        let handle = node.spawn();

        // One control connection carries, in order: Attach, a table where
        // this origin's child takes the stream at rung 1, the OpenLink
        // order, and a single 1024-byte publish. Orders on one connection
        // execute in arrival order, so the link exists before the frame.
        let mut control = TcpStream::connect(addr).expect("control connect");
        let mut orders = BytesMut::new();
        encode(&Message::Attach, &mut orders);
        encode(
            &Message::Reconfigure {
                revision: 1,
                site_plan: SitePlan {
                    site: SiteId::new(0),
                    entries: vec![ForwardingEntry {
                        stream: stream_id,
                        parent: None,
                        children: vec![ChildLink {
                            site: SiteId::new(1),
                            quality: Quality::new(1),
                        }],
                        quality: Quality::FULL,
                    }],
                },
            },
            &mut orders,
        );
        encode(
            &Message::OpenLink {
                child: SiteId::new(1),
                addr: child_addr,
            },
            &mut orders,
        );
        encode(
            &Message::Publish {
                stream: stream_id,
                base_seq: 0,
                frames: 1,
                payload_bytes: 1024,
                interval_micros: 0,
            },
            &mut orders,
        );
        control.write_all(&orders).expect("orders sent");

        // Accept the node's dial and decode what it sends: the Hello
        // preamble, then the frame — which must arrive tagged at the
        // child's rung with its payload halved (1024 >> 1). This is the
        // hop *into* the degraded receiver, so the inbound budget the
        // admission path degraded for is genuinely relieved.
        let (mut conn, _) = child_listener.accept().expect("node dials child");
        conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        let frame = loop {
            match decode(&mut buf).expect("valid wire traffic") {
                Some(Message::Hello { site }) => assert_eq!(site, SiteId::new(0)),
                Some(frame @ Message::Frame { .. }) => break frame,
                Some(other) => panic!("unexpected message {other:?}"),
                None => {
                    let read = conn.read(&mut chunk).expect("child read");
                    assert!(read > 0, "connection closed before the frame");
                    buf.extend_from_slice(&chunk[..read]);
                }
            }
        };
        let Message::Frame {
            quality, payload, ..
        } = frame
        else {
            unreachable!()
        };
        assert_eq!(quality, Quality::new(1), "frame tagged at the child's rung");
        assert_eq!(payload.len(), 512, "payload halved for rung 1");

        handle.stop();
        handle.join();
    }

    #[test]
    fn advertised_address_overrides_the_bound_one() {
        // Bind loopback, advertise a different loopback IP with port 0:
        // the advertised IP is reported verbatim and the port is
        // substituted with the one actually bound. (No connection is
        // made; this only exercises address bookkeeping.)
        let node = RpNode::bind_advertised(
            SiteId::new(1),
            "127.0.0.1:0".parse().unwrap(),
            Some("127.0.0.2:0".parse().unwrap()),
            Duration::from_millis(200),
        )
        .expect("bind");
        let advertised = node.local_addr();
        assert_eq!(advertised.ip().to_string(), "127.0.0.2");
        assert_ne!(advertised.port(), 0, "port 0 must be substituted");

        // An explicit advertised port is kept as-is.
        let node = RpNode::bind_advertised(
            SiteId::new(2),
            "127.0.0.1:0".parse().unwrap(),
            Some("10.1.2.3:4567".parse().unwrap()),
            Duration::from_millis(200),
        )
        .expect("bind");
        assert_eq!(node.local_addr().to_string(), "10.1.2.3:4567");

        // No advertise override: the bound address is reported, exactly
        // the pre-existing `bind`/`bind_to` behavior.
        let node = RpNode::bind(SiteId::new(3), Duration::from_millis(200)).expect("bind");
        assert_eq!(node.local_addr().ip().to_string(), "127.0.0.1");
    }

    #[test]
    fn unix_micros_is_monotonic_enough() {
        let a = unix_micros();
        let b = unix_micros();
        assert!(b >= a || a - b < 1_000, "wall clock moved wildly backward");
    }
}
