//! Event-driven RP hosting: one readiness loop drives many RPs.
//!
//! The thread-per-connection [`RpNode`](crate::RpNode) spends ~2 + L
//! threads per RP (accept loop, control reader, one reader per inbound
//! link), which caps an in-process fleet at a few dozen sites. The
//! [`Reactor`] executes the *same* protocol state machine — each node
//! owns one [`RpCore`], and the loop performs the [`Effect`]s its
//! `handle` writes — on a small pool of non-blocking event loops, so
//! thousands of RPs fit in one process at a fixed thread budget.
//!
//! Per event-loop iteration:
//!
//! 1. **Poll** — block in `epoll_wait` until a socket is ready, a paced
//!    publish timer is due, or another thread wakes the loop to deliver
//!    a command (register a node, stop one, quit).
//! 2. **Read** — drain every readable connection to `WouldBlock`,
//!    decoding frames and orders incrementally out of a per-connection
//!    read buffer, handing each to the node's core and executing the
//!    effects it returns (writes are queued, dials and closes run
//!    inline).
//! 3. **Write** — outgoing bytes accumulate in a per-connection pending
//!    buffer; all connections dirtied during the iteration flush once at
//!    the end (writes coalesce per wakeup), and a connection whose
//!    kernel buffer is full keeps `WRITABLE` interest until it drains.
//!    A connection whose backlog exceeds the cap sheds new frames — the
//!    non-blocking analog of a failed blocking write dropping a subtree.
//! 4. **Timers** — paced `Publish` batches are due-time entries in a
//!    timer map (no sleeping publisher threads); each firing asks the
//!    core for one frame and re-arms, and the final firing reports
//!    `BatchDone` one interval after the last frame, matching the
//!    threaded pacing.
//!
//! Ownership is strictly per-loop: a node and all its connections live
//! on exactly one event loop, so node state needs no locks at all. The
//! only cross-thread structures are each loop's command queue and its
//! [`mio::Waker`]; handles push a command, wake the loop, and the loop
//! applies it between iterations.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::{Buf, Bytes, BytesMut};
use mio::event::Events;
use mio::net::{TcpListener, TcpStream};
use mio::{Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use teeve_telemetry::{
    Counter, FlightEventKind, FlightRecorder, Gauge, Histogram, MetricsRegistry,
};
use teeve_types::SiteId;

use crate::node::unix_micros;
use crate::rp::{ConnRole, Effect, PublishBatch, RpCore};
use crate::wire::{decode, Message};

/// The waker's token — far outside any slab index.
const WAKE: Token = Token(usize::MAX);

/// Per-connection cap on *queued* (not yet written) outgoing bytes.
/// A connection already holding this much backlog sheds further
/// messages instead of growing without bound; one message over the
/// threshold is always admitted, so the true bound is the cap plus one
/// maximum frame.
const MAX_PENDING_WRITE: usize = 8 * 1024 * 1024;

/// Read-syscall chunk size, matching the threaded reader's.
const READ_CHUNK: usize = 64 * 1024;

/// How many readiness records one poll can return.
const EVENTS_PER_POLL: usize = 1024;

/// Commands injected into an event loop by other threads.
enum Command {
    /// Adopt a freshly bound node listener.
    Register(Box<NodeSeed>),
    /// Force-stop a node: graceful teardown, then immediate removal.
    StopNode {
        /// The node's reactor-wide key.
        key: u64,
    },
    /// Exit the loop, abandoning every hosted node.
    Quit,
}

/// Everything an event loop needs to adopt a node.
struct NodeSeed {
    key: u64,
    site: SiteId,
    listener: std::net::TcpListener,
    recorder: FlightRecorder,
    done: Arc<AtomicBool>,
}

/// One RP hosted on an event loop: its protocol core, owned lock-free by
/// the loop, beside the sockets that carry out the core's effects.
struct NodeState {
    key: u64,
    /// Slab token of the node's listener while it accepts.
    listener_token: Option<usize>,
    /// The protocol state machine. Once it is stopping, no new conns are
    /// accepted and the node is removed when its last connection dies.
    core: RpCore,
    /// Outbound (this RP → child) links by child site, as slab tokens.
    outbound: BTreeMap<SiteId, usize>,
    /// Every live connection token belonging to this node.
    conns: BTreeSet<usize>,
    /// Token of the connection the latest `Attach` arrived on.
    control: Option<usize>,
    done: Arc<AtomicBool>,
}

/// One registered connection and its buffers.
struct Conn {
    stream: TcpStream,
    /// Owning node's slab index.
    node: usize,
    /// Incremental decode buffer for inbound bytes.
    read_buf: BytesMut,
    /// Pending outgoing bytes (written bytes are consumed off the
    /// front; the buffer compacts itself as its cursor advances).
    out: BytesMut,
    /// Whether `WRITABLE` interest is currently registered.
    wants_write: bool,
    /// False while an outbound dial's handshake is still in flight.
    connected: bool,
    /// Flush-then-close requested (`CloseLink` / shutdown cascade).
    closing: bool,
    /// Queued in the loop's dirty list for the end-of-iteration flush.
    dirty: bool,
    /// The connection's protocol state, handed to the core.
    role: ConnRole,
    /// The child site this connection was dialed for (outbound links).
    outbound_child: Option<SiteId>,
}

/// A slab slot: a node's listener or one of its connections.
enum Entry {
    Listener { listener: TcpListener, node: usize },
    Conn(Conn),
}

/// A paced `Publish` batch parked in the timer map. `next_seq ==
/// end_seq` marks the trailing firing that reports `BatchDone` one
/// interval after the last frame — the threaded publisher's timing.
struct PacedBatch {
    node_key: u64,
    next_seq: u64,
    batch: PublishBatch,
}

/// Shared metric handles one loop updates (all loops share the same
/// underlying registry entries).
struct LoopMetrics {
    conns_live: Gauge,
    nodes_registered: Gauge,
    threads_per_rp_milli: Gauge,
    wakeup_batch: Histogram,
    dropped_writes: Counter,
    threads: u64,
}

impl LoopMetrics {
    fn new(registry: &MetricsRegistry, threads: u64) -> LoopMetrics {
        LoopMetrics {
            conns_live: registry.gauge("reactor.connections.live"),
            nodes_registered: registry.gauge("reactor.nodes.registered"),
            threads_per_rp_milli: registry.gauge("reactor.threads_per_rp_milli"),
            wakeup_batch: registry.histogram("reactor.wakeup_batch"),
            dropped_writes: registry.counter("reactor.writes.dropped"),
            threads,
        }
    }

    /// Recomputes `threads per RP × 1000` from the live node gauge.
    fn refresh_ratio(&self) {
        let nodes = self.nodes_registered.get().max(1);
        self.threads_per_rp_milli
            .set(self.threads.saturating_mul(1000) / nodes);
    }
}

/// The full private state of one event loop.
struct LoopState {
    poll: Poll,
    /// Token-indexed slab of listeners and connections.
    entries: Vec<Option<Entry>>,
    /// Reusable slab tokens.
    free: Vec<usize>,
    /// Tokens freed during the current iteration; recycled only at its
    /// end so a token is never reused while this iteration's readiness
    /// records may still reference its previous occupant.
    pending_free: Vec<usize>,
    nodes: Vec<Option<NodeState>>,
    node_free: Vec<usize>,
    /// Reactor-wide node key → local slab index.
    node_keys: BTreeMap<u64, usize>,
    /// Paced publishes by (due unix-micros, tiebreak seq).
    timers: BTreeMap<(u64, u64), PacedBatch>,
    timer_seq: u64,
    /// Connections with bytes queued this iteration, flushed once at
    /// its end.
    dirty: Vec<usize>,
    /// Reused buffer the cores write their effects into.
    effects: Vec<Effect>,
    metrics: LoopMetrics,
}

impl LoopState {
    fn new(poll: Poll, metrics: LoopMetrics) -> LoopState {
        LoopState {
            poll,
            entries: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            nodes: Vec::new(),
            node_free: Vec::new(),
            node_keys: BTreeMap::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            dirty: Vec::new(),
            effects: Vec::new(),
            metrics,
        }
    }

    // ---- slab plumbing ----------------------------------------------

    fn alloc_token(&mut self) -> usize {
        if let Some(token) = self.free.pop() {
            token
        } else {
            self.entries.push(None);
            self.entries.len() - 1
        }
    }

    fn set_entry(&mut self, token: usize, entry: Entry) {
        if let Some(slot) = self.entries.get_mut(token) {
            *slot = Some(entry);
        }
    }

    fn conn_mut(&mut self, token: usize) -> Option<&mut Conn> {
        match self.entries.get_mut(token).and_then(Option::as_mut) {
            Some(Entry::Conn(conn)) => Some(conn),
            _ => None,
        }
    }

    fn node_ref(&self, idx: usize) -> Option<&NodeState> {
        self.nodes.get(idx).and_then(Option::as_ref)
    }

    fn node_mut(&mut self, idx: usize) -> Option<&mut NodeState> {
        self.nodes.get_mut(idx).and_then(Option::as_mut)
    }

    /// Makes this iteration's freed tokens reusable. Called only at the
    /// end of an iteration — see `pending_free`.
    fn recycle(&mut self) {
        self.free.append(&mut self.pending_free);
    }

    // ---- node lifecycle ---------------------------------------------

    fn register_node(&mut self, seed: NodeSeed) {
        let NodeSeed {
            key,
            site,
            listener,
            recorder,
            done,
        } = seed;
        let mut listener = TcpListener::from_std(listener);
        let node_idx = if let Some(idx) = self.node_free.pop() {
            idx
        } else {
            self.nodes.push(None);
            self.nodes.len() - 1
        };
        let token = self.alloc_token();
        if self
            .poll
            .registry()
            .register(&mut listener, Token(token), Interest::READABLE)
            .is_err()
        {
            self.free.push(token);
            self.node_free.push(node_idx);
            done.store(true, Ordering::SeqCst);
            return;
        }
        self.set_entry(
            token,
            Entry::Listener {
                listener,
                node: node_idx,
            },
        );
        if let Some(slot) = self.nodes.get_mut(node_idx) {
            *slot = Some(NodeState {
                key,
                listener_token: Some(token),
                core: RpCore::new(site, recorder),
                outbound: BTreeMap::new(),
                conns: BTreeSet::new(),
                control: None,
                done,
            });
        }
        self.node_keys.insert(key, node_idx);
        self.metrics.nodes_registered.add(1);
        self.metrics.refresh_ratio();
    }

    /// The core's `Shutdown` effect: stop accepting. The node is
    /// removed once its last connection dies (inbound links die by peer
    /// EOF).
    fn stop_accepting(&mut self, node_idx: usize) {
        let listener_token = self
            .node_mut(node_idx)
            .and_then(|n| n.listener_token.take());
        if let Some(token) = listener_token {
            self.drop_listener(token);
        }
        self.maybe_finish_node(node_idx);
    }

    fn drop_listener(&mut self, token: usize) {
        let is_listener = matches!(
            self.entries.get(token).and_then(Option::as_ref),
            Some(Entry::Listener { .. })
        );
        if !is_listener {
            return;
        }
        let Some(slot) = self.entries.get_mut(token) else {
            return;
        };
        if let Some(Entry::Listener { mut listener, .. }) = slot.take() {
            let _ = self.poll.registry().deregister(&mut listener);
        }
        self.pending_free.push(token);
    }

    /// Removes a stopping node whose last connection just died.
    fn maybe_finish_node(&mut self, node_idx: usize) {
        let finished = self
            .node_ref(node_idx)
            .is_some_and(|n| n.core.stopping() && n.conns.is_empty() && n.listener_token.is_none());
        if finished {
            self.remove_node(node_idx);
        }
    }

    /// Forced removal: every remaining connection is dropped without
    /// notifications (the node itself is going away), timers cancelled,
    /// the join flag raised.
    fn remove_node(&mut self, node_idx: usize) {
        let Some(slot) = self.nodes.get_mut(node_idx) else {
            return;
        };
        let Some(node) = slot.take() else {
            return;
        };
        for &token in &node.conns {
            let is_conn = matches!(
                self.entries.get(token).and_then(Option::as_ref),
                Some(Entry::Conn(_))
            );
            if !is_conn {
                continue;
            }
            if let Some(slot) = self.entries.get_mut(token) {
                if let Some(Entry::Conn(mut conn)) = slot.take() {
                    let _ = self.poll.registry().deregister(&mut conn.stream);
                    self.metrics.conns_live.sub(1);
                }
            }
            self.pending_free.push(token);
        }
        if let Some(token) = node.listener_token {
            self.drop_listener(token);
        }
        self.node_keys.remove(&node.key);
        self.timers.retain(|_, batch| batch.node_key != node.key);
        self.metrics.nodes_registered.sub(1);
        self.metrics.refresh_ratio();
        node.done.store(true, Ordering::SeqCst);
        self.node_free.push(node_idx);
    }

    /// `StopNode` command: the core's shutdown cascade, a best-effort
    /// flush of it, then immediate removal (the forced analog of the
    /// threaded `stop()` + reader timeouts).
    fn stop_node(&mut self, key: u64) {
        let Some(&node_idx) = self.node_keys.get(&key) else {
            return;
        };
        self.run_core(node_idx, RpCore::stop);
        self.flush_dirty();
        self.remove_node(node_idx);
    }

    /// Quit: abandon every hosted node so joins unblock.
    fn abandon(&mut self) {
        let hosted: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.node_ref(i).is_some())
            .collect();
        for node_idx in hosted {
            self.remove_node(node_idx);
        }
    }

    // ---- event handling ---------------------------------------------

    fn handle_event(&mut self, token: usize, readable: bool, writable: bool) {
        match self.entries.get(token).and_then(Option::as_ref) {
            Some(Entry::Listener { node, .. }) => {
                let node_idx = *node;
                self.accept_ready(token, node_idx);
            }
            Some(Entry::Conn(_)) => {
                if writable {
                    self.on_writable(token);
                }
                if readable {
                    self.on_readable(token);
                }
            }
            None => {}
        }
    }

    fn accept_ready(&mut self, token: usize, node_idx: usize) {
        loop {
            let accepted = match self.entries.get(token).and_then(Option::as_ref) {
                Some(Entry::Listener { listener, .. }) => listener.accept(),
                _ => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    // Same race rule as the threaded accept loop: a
                    // connection arriving after teardown began is
                    // dropped on the floor (the peer sees EOF).
                    let stopping = self
                        .node_ref(node_idx)
                        .map(|n| n.core.stopping())
                        .unwrap_or(true);
                    if stopping {
                        drop(stream);
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let role = self
                        .node_mut(node_idx)
                        .map(|n| n.core.conn_role())
                        .unwrap_or_default();
                    self.add_conn(stream, node_idx, true, role, None);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn add_conn(
        &mut self,
        mut stream: TcpStream,
        node_idx: usize,
        connected: bool,
        role: ConnRole,
        outbound_child: Option<SiteId>,
    ) -> Option<usize> {
        let token = self.alloc_token();
        let interest = if connected {
            Interest::READABLE
        } else {
            // Writability signals dial completion.
            Interest::READABLE.add(Interest::WRITABLE)
        };
        if self
            .poll
            .registry()
            .register(&mut stream, Token(token), interest)
            .is_err()
        {
            self.free.push(token);
            return None;
        }
        self.set_entry(
            token,
            Entry::Conn(Conn {
                stream,
                node: node_idx,
                read_buf: BytesMut::with_capacity(READ_CHUNK),
                out: BytesMut::new(),
                wants_write: !connected,
                connected,
                closing: false,
                dirty: false,
                role,
                outbound_child,
            }),
        );
        if let Some(node) = self.node_mut(node_idx) {
            node.conns.insert(token);
        }
        self.metrics.conns_live.add(1);
        Some(token)
    }

    fn on_writable(&mut self, token: usize) {
        let failed = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            if conn.connected {
                false
            } else {
                match conn.stream.take_error() {
                    Ok(None) => {
                        conn.connected = true;
                        false
                    }
                    // A failed dial stays silent, exactly like the
                    // threaded `open_link`: the coordinator observes it
                    // as a missing LinkUp.
                    _ => true,
                }
            }
        };
        if failed {
            self.close_conn(token);
            return;
        }
        self.flush_conn(token);
    }

    fn on_readable(&mut self, token: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let read = {
                let Some(conn) = self.conn_mut(token) else {
                    return;
                };
                conn.stream.read(&mut chunk)
            };
            match read {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let outbound = {
                        let Some(conn) = self.conn_mut(token) else {
                            return;
                        };
                        if conn.outbound_child.is_none() {
                            conn.read_buf.extend_from_slice(&chunk[..n]);
                        }
                        conn.outbound_child.is_some()
                    };
                    // Nothing legitimate ever flows back on an outbound
                    // data link (the threaded node never reads them);
                    // discard so only EOF/errors matter.
                    if !outbound && !self.drain_messages(token) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete message buffered on a
    /// connection. Returns false when the connection was closed.
    fn drain_messages(&mut self, token: usize) -> bool {
        loop {
            let decoded = {
                let Some(conn) = self.conn_mut(token) else {
                    return false;
                };
                decode(&mut conn.read_buf)
            };
            match decoded {
                Ok(Some(message)) => {
                    if !self.handle_message(token, message) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// Hands one message to its node's core and executes the effects.
    /// Returns false when the connection was closed by the message.
    fn handle_message(&mut self, token: usize, message: Message) -> bool {
        let mut effects = std::mem::take(&mut self.effects);
        let mut node_idx = None;
        if let Some(Entry::Conn(conn)) = self.entries.get_mut(token).and_then(Option::as_mut) {
            if let Some(node) = self.nodes.get_mut(conn.node).and_then(Option::as_mut) {
                let attached = conn.role.attached();
                node.core
                    .handle(unix_micros(), &mut conn.role, message, &mut effects);
                if conn.role.attached() != attached {
                    node.control = Some(token);
                }
                node_idx = Some(conn.node);
            }
        }
        let alive = match node_idx {
            Some(node_idx) => self.execute(node_idx, Some(token), &mut effects),
            None => false,
        };
        self.effects = effects;
        alive
    }

    // ---- protocol effects -------------------------------------------

    /// Runs one step of a node's core and executes the effects it
    /// writes, reusing the loop's effect buffer.
    fn run_core(&mut self, node_idx: usize, step: impl FnOnce(&mut RpCore, &mut Vec<Effect>)) {
        let mut effects = std::mem::take(&mut self.effects);
        if let Some(node) = self.node_mut(node_idx) {
            step(&mut node.core, &mut effects);
        }
        self.execute(node_idx, None, &mut effects);
        self.effects = effects;
    }

    /// Performs a node core's effects in order, draining `effects`.
    /// `source` is the connection the message arrived on, if any.
    /// Returns false when an effect closed it.
    fn execute(
        &mut self,
        node_idx: usize,
        source: Option<usize>,
        effects: &mut Vec<Effect>,
    ) -> bool {
        let mut alive = true;
        for effect in effects.drain(..) {
            match effect {
                Effect::ToChild { child, bytes } => {
                    let target = self
                        .node_ref(node_idx)
                        .and_then(|n| n.outbound.get(&child).copied());
                    if let Some(conn_token) = target {
                        self.queue_write(conn_token, bytes);
                    }
                }
                Effect::ToControl(bytes) => {
                    let target = self.node_ref(node_idx).and_then(|n| n.control);
                    if let Some(conn_token) = target {
                        self.queue_write(conn_token, bytes);
                    }
                }
                Effect::OpenLink { child, addr, hello } => {
                    self.open_link(node_idx, child, addr, hello);
                }
                Effect::CloseLink { child } => self.close_link(node_idx, child),
                Effect::Publish(batch) => self.publish(node_idx, batch),
                Effect::Shutdown => self.stop_accepting(node_idx),
                Effect::Disconnect => {
                    if let Some(token) = source {
                        self.close_conn(token);
                    }
                    alive = false;
                }
            }
        }
        alive
    }

    fn open_link(&mut self, node_idx: usize, child: SiteId, addr: SocketAddr, hello: Bytes) {
        // Dial failure is silent on this side, as in the threaded node:
        // the coordinator observes it as a missing LinkUp.
        let Ok(stream) = TcpStream::connect(addr) else {
            return;
        };
        stream.set_nodelay(true).ok();
        let Some(token) = self.add_conn(stream, node_idx, false, ConnRole::default(), Some(child))
        else {
            return;
        };
        self.queue_write(token, hello);
        let replaced = self
            .node_mut(node_idx)
            .and_then(|n| n.outbound.insert(child, token));
        if let Some(old) = replaced {
            if old != token {
                self.close_conn(old);
            }
        }
    }

    fn close_link(&mut self, node_idx: usize, child: SiteId) {
        let removed = self
            .node_mut(node_idx)
            .and_then(|n| n.outbound.remove(&child));
        if let Some(token) = removed {
            self.begin_close(token);
        }
    }

    fn publish(&mut self, node_idx: usize, batch: PublishBatch) {
        if batch.interval_micros == 0 {
            // Unpaced: inject the whole batch inline, exactly as the
            // threaded publisher's zero-interval loop does.
            for seq in batch.base_seq..batch.end_seq {
                self.run_core(node_idx, |core, out| {
                    core.originate(unix_micros(), &batch, seq, out);
                });
            }
            self.run_core(node_idx, |core, out| core.batch_done(&batch, out));
            return;
        }
        let node_key = match self.node_ref(node_idx) {
            Some(node) => node.key,
            None => return,
        };
        // First frame is due immediately; fire_timers runs later this
        // same iteration.
        self.schedule(
            PacedBatch {
                node_key,
                next_seq: batch.base_seq,
                batch,
            },
            unix_micros(),
        );
    }

    // ---- timers ------------------------------------------------------

    fn schedule(&mut self, batch: PacedBatch, due_micros: u64) {
        self.timer_seq += 1;
        self.timers.insert((due_micros, self.timer_seq), batch);
    }

    /// The poll timeout: time until the earliest timer, or forever.
    fn next_timeout(&self) -> Option<Duration> {
        self.timers
            .first_key_value()
            .map(|(&(due, _), _)| Duration::from_micros(due.saturating_sub(unix_micros())))
    }

    fn fire_timers(&mut self) {
        loop {
            let now = unix_micros();
            let key = match self.timers.first_key_value() {
                Some((&(due, seq), _)) if due <= now => (due, seq),
                _ => return,
            };
            let Some(paced) = self.timers.remove(&key) else {
                return;
            };
            let Some(&node_idx) = self.node_keys.get(&paced.node_key) else {
                continue;
            };
            let done = paced.next_seq >= paced.batch.end_seq;
            self.run_core(node_idx, |core, out| {
                if done {
                    // Trailing firing: BatchDone one interval after the
                    // last frame, matching the threaded publisher (which
                    // sleeps once more after its final frame).
                    core.batch_done(&paced.batch, out);
                } else {
                    core.originate(now, &paced.batch, paced.next_seq, out);
                }
            });
            if !done {
                let due = now.saturating_add(paced.batch.interval_micros);
                let rearmed = PacedBatch {
                    next_seq: paced.next_seq + 1,
                    ..paced
                };
                self.schedule(rearmed, due);
            }
        }
    }

    // ---- write path --------------------------------------------------

    /// Appends bytes to a connection's pending buffer and marks it for
    /// the end-of-iteration flush. A connection at its backlog cap
    /// sheds the message (see [`MAX_PENDING_WRITE`]).
    fn queue_write(&mut self, token: usize, bytes: Bytes) {
        let mut newly_dirty = false;
        if let Some(Entry::Conn(conn)) = self.entries.get_mut(token).and_then(Option::as_mut) {
            if conn.closing {
                return;
            }
            if conn.out.len() >= MAX_PENDING_WRITE {
                self.metrics.dropped_writes.incr();
                return;
            }
            conn.out.extend_from_slice(&bytes);
            if !conn.dirty {
                conn.dirty = true;
                newly_dirty = true;
            }
        }
        if newly_dirty {
            self.dirty.push(token);
        }
    }

    /// Flushes every connection dirtied this iteration — one write
    /// burst per wakeup per connection.
    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for token in dirty {
            if let Some(conn) = self.conn_mut(token) {
                conn.dirty = false;
            } else {
                continue;
            }
            self.flush_conn(token);
        }
    }

    /// Requests flush-then-close on a connection (`CloseLink`, shutdown
    /// cascades): pending bytes still go out, then the write half shuts
    /// so the peer observes EOF, then the connection drops.
    fn begin_close(&mut self, token: usize) {
        let ready = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            if conn.closing {
                return;
            }
            conn.closing = true;
            conn.connected && conn.out.is_empty()
        };
        if ready {
            if let Some(conn) = self.conn_mut(token) {
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
            self.close_conn(token);
        } else {
            let newly_dirty = self.conn_mut(token).is_some_and(|conn| {
                if conn.dirty {
                    false
                } else {
                    conn.dirty = true;
                    true
                }
            });
            if newly_dirty {
                self.dirty.push(token);
            }
        }
    }

    fn flush_conn(&mut self, token: usize) {
        enum After {
            Nothing,
            Close,
            CloseGraceful,
            Reregister(Interest),
        }
        let after = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            if !conn.connected {
                return;
            }
            let mut dead = false;
            while !conn.out.is_empty() {
                match conn.stream.write(&conn.out[..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.out.advance(n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                After::Close
            } else if conn.out.is_empty() {
                if conn.closing {
                    After::CloseGraceful
                } else if conn.wants_write {
                    conn.wants_write = false;
                    After::Reregister(Interest::READABLE)
                } else {
                    After::Nothing
                }
            } else if conn.wants_write {
                // Partially written but WRITABLE interest already held:
                // the next writability record resumes the flush.
                After::Nothing
            } else {
                conn.wants_write = true;
                After::Reregister(Interest::READABLE.add(Interest::WRITABLE))
            }
        };
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(token),
            After::CloseGraceful => {
                if let Some(conn) = self.conn_mut(token) {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                }
                self.close_conn(token);
            }
            After::Reregister(interest) => self.reregister_conn(token, interest),
        }
    }

    fn reregister_conn(&mut self, token: usize, interest: Interest) {
        let mut failed = false;
        {
            let registry = self.poll.registry();
            if let Some(Entry::Conn(conn)) = self.entries.get_mut(token).and_then(Option::as_mut) {
                failed = registry
                    .reregister(&mut conn.stream, Token(token), interest)
                    .is_err();
            }
        }
        if failed {
            self.close_conn(token);
        }
    }

    /// Tears one connection down: the core de-attributes its peer and
    /// detaches the control channel if this was still its generation,
    /// then the node finishes if it was stopping and this was its last
    /// connection.
    fn close_conn(&mut self, token: usize) {
        let is_conn = matches!(
            self.entries.get(token).and_then(Option::as_ref),
            Some(Entry::Conn(_))
        );
        if !is_conn {
            return;
        }
        let Some(slot) = self.entries.get_mut(token) else {
            return;
        };
        let Some(Entry::Conn(mut conn)) = slot.take() else {
            return;
        };
        let _ = self.poll.registry().deregister(&mut conn.stream);
        self.pending_free.push(token);
        self.metrics.conns_live.sub(1);
        let node_idx = conn.node;
        if let Some(node) = self.node_mut(node_idx) {
            node.conns.remove(&token);
            if let Some(child) = conn.outbound_child {
                if node.outbound.get(&child) == Some(&token) {
                    node.outbound.remove(&child);
                }
            }
            if node.control == Some(token) {
                node.control = None;
            }
        }
        self.run_core(node_idx, |core, out| core.on_close(&mut conn.role, out));
        drop(conn);
        self.maybe_finish_node(node_idx);
    }
}

/// One event loop's thread body.
fn run_loop(mut state: LoopState, commands: Arc<Mutex<Vec<Command>>>) {
    let mut events = Events::with_capacity(EVENTS_PER_POLL);
    'outer: loop {
        let timeout = state.next_timeout();
        if state.poll.poll(&mut events, timeout).is_err() {
            // epoll_wait only fails on programming errors (EINTR is
            // retried inside the shim); abandon rather than spin.
            break;
        }
        state.metrics.wakeup_batch.record(events.len() as u64);
        let mut woken = false;
        for event in events.iter() {
            if event.token() == WAKE {
                woken = true;
                continue;
            }
            state.handle_event(event.token().0, event.is_readable(), event.is_writable());
        }
        if woken {
            let drained: Vec<Command> = std::mem::take(&mut *commands.lock());
            for command in drained {
                match command {
                    Command::Register(seed) => state.register_node(*seed),
                    Command::StopNode { key } => state.stop_node(key),
                    Command::Quit => break 'outer,
                }
            }
        }
        state.fire_timers();
        state.flush_dirty();
        state.recycle();
    }
    state.abandon();
}

/// A pool of non-blocking event loops hosting many RPs per thread.
///
/// Nodes bound via [`bind_node`](Self::bind_node) are spread round-robin
/// over the loops; each speaks the exact [`wire`](crate::wire) protocol
/// of a threaded [`RpNode`](crate::RpNode), so the same
/// [`Coordinator`](crate::Coordinator) drives either, and
/// [`LiveCluster::launch_reactor`](crate::LiveCluster::launch_reactor)
/// swaps fleets between hosting modes without touching the control
/// plane.
///
/// Dropping the reactor quits every loop, abandoning nodes still hosted
/// (their `join` unblocks); stop nodes first for a graceful end.
pub struct Reactor {
    loops: Vec<LoopHandle>,
    next_loop: AtomicUsize,
    next_key: AtomicU64,
    telemetry: MetricsRegistry,
    recorder: FlightRecorder,
}

struct LoopHandle {
    commands: Arc<Mutex<Vec<Command>>>,
    waker: Arc<Waker>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts a reactor with `threads` event loops (at least one).
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation failure (fd exhaustion).
    pub fn new(threads: usize) -> io::Result<Reactor> {
        Self::with_telemetry(threads, MetricsRegistry::new(), FlightRecorder::new())
    }

    /// Starts a reactor reporting into caller-supplied telemetry: live
    /// connection and registered-node gauges, the `reactor.wakeup_batch`
    /// events-per-poll histogram, a `reactor.threads_per_rp_milli`
    /// thread-amortization gauge, and ReactorStart/ReactorStop flight
    /// events.
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation failure (fd exhaustion).
    pub fn with_telemetry(
        threads: usize,
        telemetry: MetricsRegistry,
        recorder: FlightRecorder,
    ) -> io::Result<Reactor> {
        let threads = threads.max(1);
        let mut loops = Vec::with_capacity(threads);
        for _ in 0..threads {
            let poll = Poll::new()?;
            let waker = Arc::new(Waker::new(poll.registry(), WAKE)?);
            let commands: Arc<Mutex<Vec<Command>>> = Arc::new(Mutex::new(Vec::new()));
            let metrics = LoopMetrics::new(&telemetry, threads as u64);
            let state = LoopState::new(poll, metrics);
            let thread_commands = Arc::clone(&commands);
            let thread = thread::spawn(move || run_loop(state, thread_commands));
            loops.push(LoopHandle {
                commands,
                waker,
                thread: Some(thread),
            });
        }
        telemetry.gauge("reactor.threads").set(threads as u64);
        recorder.record(FlightEventKind::ReactorStart {
            threads: threads as u64,
        });
        Ok(Reactor {
            loops,
            next_loop: AtomicUsize::new(0),
            next_key: AtomicU64::new(0),
            telemetry,
            recorder,
        })
    }

    /// Number of event-loop threads.
    pub fn threads(&self) -> usize {
        self.loops.len()
    }

    /// The reactor's metrics registry (shared with every loop).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// The reactor's flight recorder (start/stop lifecycle events).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Binds a new RP for `site` on an OS-assigned 127.0.0.1 port and
    /// hosts it on the next event loop (round-robin). The returned
    /// handle's address is dialable immediately — connections queue in
    /// the accept backlog until the loop adopts the listener.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind_node(&self, site: SiteId) -> io::Result<ReactorNodeHandle> {
        let listener =
            std::net::TcpListener::bind(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0))?;
        let addr = listener.local_addr()?;
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(AtomicBool::new(false));
        let recorder = FlightRecorder::new();
        let slot = self.next_loop.fetch_add(1, Ordering::Relaxed) % self.loops.len();
        let Some(host) = self.loops.get(slot) else {
            return Err(io::Error::other("reactor has no event loops"));
        };
        host.commands
            .lock()
            .push(Command::Register(Box::new(NodeSeed {
                key,
                site,
                listener,
                recorder: recorder.clone(),
                done: Arc::clone(&done),
            })));
        let _ = host.waker.wake();
        Ok(ReactorNodeHandle {
            site,
            addr,
            key,
            recorder,
            done,
            commands: Arc::clone(&host.commands),
            waker: Arc::clone(&host.waker),
        })
    }

    /// Explicit teardown (identical to drop): quit and join every loop.
    pub fn shutdown(self) {}
}

impl Drop for Reactor {
    fn drop(&mut self) {
        for host in &self.loops {
            host.commands.lock().push(Command::Quit);
            let _ = host.waker.wake();
        }
        for host in &mut self.loops {
            if let Some(thread) = host.thread.take() {
                let _ = thread.join();
            }
        }
        let threads = self.loops.len() as u64;
        self.telemetry.gauge("reactor.threads").set(0);
        self.recorder
            .record(FlightEventKind::ReactorStop { threads });
    }
}

/// Control handle of a reactor-hosted RP — the event-driven counterpart
/// of [`RpNodeHandle`](crate::RpNodeHandle).
pub struct ReactorNodeHandle {
    site: SiteId,
    addr: SocketAddr,
    key: u64,
    recorder: FlightRecorder,
    done: Arc<AtomicBool>,
    commands: Arc<Mutex<Vec<Command>>>,
    waker: Arc<Waker>,
}

impl ReactorNodeHandle {
    /// The node's advertised (bound) address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The site this node serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The node's flight recorder (link churn, reconfigures).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Orders the node down: graceful `End`/link teardown, then removal
    /// from its loop. Idempotent; does not block.
    pub fn stop(&self) {
        self.commands
            .lock()
            .push(Command::StopNode { key: self.key });
        let _ = self.waker.wake();
    }

    /// Waits until the node has been removed from its event loop (by
    /// [`stop`](Self::stop), a coordinator `Shutdown`, or reactor
    /// teardown).
    pub fn join(self) {
        while !self.done.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use teeve_pubsub::{ChildLink, ForwardingEntry, SitePlan};
    use teeve_types::{Quality, StreamId};

    use crate::wire::encode;

    fn read_next(conn: &mut std::net::TcpStream, buf: &mut BytesMut, chunk: &mut [u8]) -> Message {
        loop {
            match decode(buf).expect("valid wire traffic") {
                Some(message) => return message,
                None => {
                    let read = conn.read(chunk).expect("socket read");
                    assert!(read > 0, "connection closed early");
                    buf.extend_from_slice(&chunk[..read]);
                }
            }
        }
    }

    #[test]
    fn socket_reactor_node_executes_orders_end_to_end() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let stream_id = StreamId::new(SiteId::new(0), 0);

        // A bare std listener stands in for the degraded child.
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let child_addr = child_listener.local_addr().expect("child addr");

        // One control connection carries, in order: Attach, a table
        // where the origin's child takes the stream at rung 1, the
        // OpenLink order, and a single 1024-byte publish — the same
        // script the threaded node test uses.
        let mut control = std::net::TcpStream::connect(node.addr()).expect("control connect");
        control.set_read_timeout(Some(Duration::from_secs(10))).ok();
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

        // The control channel answers with the Ack for revision 1.
        let mut control_buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        let ack = read_next(&mut control, &mut control_buf, &mut chunk);
        assert_eq!(ack, Message::Ack { revision: 1 });

        // The child observes the Hello preamble then the frame, tagged
        // at its rung with the payload halved — identical to the
        // threaded node's bytes.
        let (mut child_conn, _) = child_listener.accept().expect("node dials child");
        child_conn
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok();
        let mut child_buf = BytesMut::new();
        let hello = read_next(&mut child_conn, &mut child_buf, &mut chunk);
        assert_eq!(
            hello,
            Message::Hello {
                site: SiteId::new(0)
            }
        );
        let frame = read_next(&mut child_conn, &mut child_buf, &mut chunk);
        let Message::Frame {
            quality, payload, ..
        } = frame
        else {
            panic!("expected a frame, got {frame:?}");
        };
        assert_eq!(quality, Quality::new(1), "frame tagged at the child's rung");
        assert_eq!(payload.len(), 512, "payload halved for rung 1");

        // BatchDone comes back on the control channel once the inline
        // batch has been injected.
        let done = read_next(&mut control, &mut control_buf, &mut chunk);
        assert_eq!(
            done,
            Message::BatchDone {
                stream: stream_id,
                next_seq: 1
            }
        );

        node.stop();
        node.join();
        // Stopping cascaded the link down: the child sees EOF.
        let mut scratch = [0u8; 16];
        loop {
            match child_conn.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let registered = reactor.telemetry().gauge("reactor.nodes.registered").get();
        assert_eq!(registered, 0, "stopped node must deregister");
        reactor.shutdown();
    }

    #[test]
    fn socket_reactor_stop_is_idempotent_and_join_unblocks() {
        let reactor = Reactor::new(2).expect("reactor starts");
        let a = reactor.bind_node(SiteId::new(0)).expect("bind a");
        let b = reactor.bind_node(SiteId::new(1)).expect("bind b");
        assert_eq!(a.site(), SiteId::new(0));
        assert_ne!(a.addr(), b.addr());
        a.stop();
        a.stop();
        a.join();
        // Dropping the reactor abandons node b; its join still unblocks.
        drop(reactor);
        b.join();
    }

    #[test]
    fn socket_reactor_records_lifecycle_flight_events() {
        let telemetry = MetricsRegistry::new();
        let recorder = FlightRecorder::new();
        let reactor =
            Reactor::with_telemetry(3, telemetry.clone(), recorder.clone()).expect("starts");
        assert_eq!(telemetry.gauge("reactor.threads").get(), 3);
        drop(reactor);
        let kinds: Vec<FlightEventKind> = recorder.events().into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FlightEventKind::ReactorStart { threads: 3 }));
        assert!(kinds.contains(&FlightEventKind::ReactorStop { threads: 3 }));
        assert_eq!(telemetry.gauge("reactor.threads").get(), 0);
    }
}
