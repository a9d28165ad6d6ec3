//! The RP protocol state machine, shared by both hosting modes.
//!
//! [`RpCore`] is one site's rendezvous point as the paper describes it:
//! it installs the slice of the dissemination plan the membership server
//! dictates, and forwards each stream to that slice's children. It owns
//! every decision the [`wire`](crate::wire) protocol makes — the
//! revision-tagged forwarding table, `Hello` attribution, the control
//! channel's attach generation, delivery statistics, flight events, the
//! per-rung frame encoding, and the `End` and shutdown cascades — and
//! does no I/O and never reads the clock.
//!
//! A host decodes a message off one of its connections and hands it to
//! [`RpCore::handle`] with the current time and that connection's
//! [`ConnRole`]; the core writes the resulting [`Effect`]s (writes to a
//! child or to the control channel, dials, closes, publish batches,
//! shutdown, disconnect) into a buffer the host reuses, and the host
//! performs them. The thread-per-connection [`RpNode`](crate::RpNode)
//! and the event-driven [`Reactor`](crate::Reactor) are both such
//! executors, so there is exactly one protocol dispatch table.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

use bytes::{Bytes, BytesMut};
use teeve_pubsub::{ChildLink, ForwardingEntry, SitePlan};
use teeve_telemetry::{FlightEventKind, FlightRecorder, LogHistogram};
use teeve_types::{Quality, SiteId, StreamId};

use crate::wire::{encode, Message, StreamDelivery};

/// The node's forwarding state, tagged with the plan revision it belongs
/// to (matching `PlanDelta::from_revision`/`PlanDelta::to_revision`).
#[derive(Debug)]
struct ForwardingTable {
    revision: u64,
    plan: SitePlan,
}

/// Encodes the outgoing copies of one frame, one per child, degraded to
/// the coarsest of the arriving tag, this RP's effective rung, and each
/// child's planned rung — one shared encoding per distinct outgoing rung
/// (siblings at the same rung reference the same bytes).
fn encode_frame_copies(
    stream: StreamId,
    seq: u64,
    captured_micros: u64,
    payload: &Bytes,
    tagged: Quality,
    effective: Quality,
    children: &[ChildLink],
) -> Vec<(SiteId, Bytes)> {
    let mut encoded: BTreeMap<Quality, Bytes> = BTreeMap::new();
    let mut copies = Vec::with_capacity(children.len());
    for child in children {
        let rung = effective.max(child.quality);
        let buf = encoded.entry(rung).or_insert_with(|| {
            let extra = Quality::new((rung.rung() - tagged.rung()) as u8);
            let mut buf = BytesMut::new();
            encode(
                &Message::Frame {
                    stream,
                    quality: rung,
                    seq,
                    captured_micros,
                    payload: payload.slice(0..extra.scaled_len(payload.len())),
                },
                &mut buf,
            );
            buf.freeze()
        });
        copies.push((child.site, buf.clone()));
    }
    copies
}

/// Encodes one message into its own buffer.
fn encoded(message: &Message) -> Bytes {
    let mut buf = BytesMut::new();
    encode(message, &mut buf);
    buf.freeze()
}

/// One stream's local delivery accounting at this RP.
#[derive(Debug, Default, Clone)]
struct StreamStats {
    /// Frames delivered.
    delivered: u64,
    /// Frames whose effective rung — the coarser of the wire tag and
    /// this RP's planned quality — was below full.
    degraded: u64,
    /// Sum of observed end-to-end latencies, microseconds.
    latency_sum_micros: u64,
    /// Full end-to-end latency distribution, microseconds.
    latency: LogHistogram,
}

/// The node's local delivery counters, reported over the wire via
/// [`Message::StatsReport`] — no memory is shared with the coordinator.
#[derive(Debug, Default)]
struct NodeStats {
    /// Per-stream delivery accounting at this site.
    delivered: BTreeMap<StreamId, StreamStats>,
    total: u64,
    max_latency_micros: u64,
}

impl NodeStats {
    fn record(&mut self, stream: StreamId, latency_micros: u64, degraded: bool) {
        let entry = self.delivered.entry(stream).or_default();
        entry.delivered += 1;
        entry.degraded += u64::from(degraded);
        entry.latency_sum_micros += latency_micros;
        entry.latency.record(latency_micros);
        self.total += 1;
        self.max_latency_micros = self.max_latency_micros.max(latency_micros);
    }

    fn report(&self, probe: u64) -> Message {
        let streams = self
            .delivered
            .iter()
            .map(|(&stream, stats)| StreamDelivery {
                stream,
                delivered: stats.delivered,
                delivered_degraded: stats.degraded,
                latency_sum_micros: stats.latency_sum_micros,
                latency: stats.latency.clone(),
            })
            .collect();
        Message::StatsReport {
            probe,
            total: self.total,
            max_latency_micros: self.max_latency_micros,
            streams,
        }
    }
}

/// A `Publish` order: a batch of synthetic frames of a locally
/// originated stream. The host paces it and asks
/// [`RpCore::originate`] for each frame's bytes.
#[derive(Debug)]
pub(crate) struct PublishBatch {
    pub(crate) stream: StreamId,
    pub(crate) base_seq: u64,
    /// One past the last sequence number.
    pub(crate) end_seq: u64,
    /// Gap between frames; 0 publishes back to back.
    pub(crate) interval_micros: u64,
    pub(crate) payload: Bytes,
}

/// One action the core asks its host to perform.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Write `bytes` on the outbound link to `child`, if it is open. A
    /// failed write drops that downstream subtree; the run then surfaces
    /// it as missing deliveries.
    ToChild { child: SiteId, bytes: Bytes },
    /// Write `bytes` on the attached control channel. The core emits
    /// this only while a channel is attached.
    ToControl(Bytes),
    /// Dial `child` at `addr`, send `hello` first, and register the
    /// connection as the outbound link to `child`. A failed dial is
    /// silent: the coordinator observes it as a missing `LinkUp`.
    OpenLink {
        child: SiteId,
        addr: SocketAddr,
        hello: Bytes,
    },
    /// Flush, write-shut and drop the outbound link to `child`, so the
    /// child observes EOF.
    CloseLink { child: SiteId },
    /// Pace a publish batch.
    Publish(PublishBatch),
    /// Stop accepting connections; the node exits once its connections
    /// are gone.
    Shutdown,
    /// Close the connection the message arrived on.
    Disconnect,
}

/// The protocol state of one connection, stored by the host beside its
/// socket and handed to the core with every message from that socket.
/// Hosts get one from [`RpCore::conn_role`]; the default role (never
/// attached) serves connections the node dialed itself.
#[derive(Debug, Default)]
pub(crate) struct ConnRole {
    /// Accept order among the node's connections.
    id: u64,
    /// The upstream site this connection's `Hello` attributed it to.
    peer: Option<SiteId>,
    /// The control-channel generation this connection attached as.
    attached: Option<u64>,
}

impl ConnRole {
    /// The control-channel generation this connection last attached as.
    /// A host sees it change when the connection becomes the control
    /// channel.
    pub(crate) fn attached(&self) -> Option<u64> {
        self.attached
    }
}

/// One RP's protocol state machine: every decision, no I/O, no clock.
#[derive(Debug)]
pub(crate) struct RpCore {
    site: SiteId,
    /// The live forwarding table; replaced wholesale by `Reconfigure`.
    table: ForwardingTable,
    /// Upstream sites with live inbound data connections (`Hello`
    /// attribution counts, so an overlapping close/reopen never drops
    /// the peer from the set early). Reported by `ResyncReply`.
    inbound: BTreeMap<SiteId, u32>,
    /// Children this RP was ordered to link to and not yet to unlink;
    /// the shutdown cascade closes them all.
    links: BTreeSet<SiteId>,
    /// Connections accepted so far, numbering their roles.
    accepted: u64,
    /// Number of `Attach` orders ever honored, numbering the
    /// control-channel generations.
    generation: u64,
    /// Generation and connection id of the attached control channel. A
    /// replaced channel's close never detaches its successor.
    control: Option<(u64, u64)>,
    stats: NodeStats,
    /// Ring of recent structured events (reconfigures, link churn) for
    /// post-mortem inspection; never crosses the wire.
    recorder: FlightRecorder,
    /// Set once the shutdown cascade has run.
    stopping: bool,
}

impl RpCore {
    /// A fresh RP for `site`: empty revision-0 table, no links, no
    /// control channel.
    pub(crate) fn new(site: SiteId, recorder: FlightRecorder) -> RpCore {
        RpCore {
            site,
            table: ForwardingTable {
                revision: 0,
                plan: SitePlan {
                    site,
                    entries: Vec::new(),
                },
            },
            inbound: BTreeMap::new(),
            links: BTreeSet::new(),
            accepted: 0,
            generation: 0,
            control: None,
            stats: NodeStats::default(),
            recorder,
            stopping: false,
        }
    }

    /// The role of a newly accepted connection.
    pub(crate) fn conn_role(&mut self) -> ConnRole {
        self.accepted += 1;
        ConnRole {
            id: self.accepted,
            ..ConnRole::default()
        }
    }

    /// Whether the shutdown cascade has run.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping
    }

    /// Handles one message that arrived on the connection `role`
    /// describes, at `now_micros` (unix microseconds), appending the
    /// effects to `out`.
    ///
    /// Messages from one connection must be handled, and their effects
    /// performed, in arrival order: a `Reconfigure` queued behind an
    /// `OpenLink` on the control channel is only acknowledged once the
    /// new link is registered, which is what lets the coordinator
    /// sequence reconfigurations without shared memory.
    pub(crate) fn handle(
        &mut self,
        now_micros: u64,
        role: &mut ConnRole,
        message: Message,
        out: &mut Vec<Effect>,
    ) {
        match message {
            Message::Frame {
                stream,
                quality,
                seq,
                captured_micros,
                payload,
            } => {
                // Deliver at the effective rung (the coarser of the wire
                // tag and this RP's planned quality) and pass the frame
                // on, further degraded if the plan says so.
                let effective = self.forward(stream, seq, captured_micros, &payload, quality, out);
                self.stats.record(
                    stream,
                    now_micros.saturating_sub(captured_micros),
                    !effective.is_full(),
                );
            }
            Message::End { stream } => {
                if let Some(entry) = self.table.plan.entry(stream) {
                    end_stream(entry, out);
                }
            }
            Message::Hello { site } => {
                // Attribute the link and tell the coordinator the data
                // path is up.
                role.peer = Some(site);
                *self.inbound.entry(site).or_insert(0) += 1;
                self.recorder.record(FlightEventKind::LinkUp {
                    parent: site.index() as u32,
                    child: self.site.index() as u32,
                });
                self.notify(&Message::LinkUp { peer: site }, out);
            }
            Message::Reconfigure {
                revision,
                site_plan,
            } => {
                // A replayed order for an older revision must not roll
                // the table back; it is still acknowledged so a
                // coordinator retry converges. Everything sent after the
                // Ack is routed by the new table.
                if revision >= self.table.revision {
                    self.table = ForwardingTable {
                        revision,
                        plan: site_plan,
                    };
                }
                self.recorder
                    .record(FlightEventKind::Reconfigure { revision, sites: 1 });
                self.notify(&Message::Ack { revision }, out);
            }
            Message::Attach => {
                // The latest connection wins: a reconnected coordinator's
                // fresh channel replaces a dead one, and a stale channel
                // whose `Attach` is handled late never displaces a
                // channel accepted after it.
                if self.control.is_none_or(|(_, id)| id <= role.id) {
                    self.generation += 1;
                    self.control = Some((self.generation, role.id));
                    role.attached = Some(self.generation);
                }
            }
            Message::ResyncQuery { probe } => {
                // Describe this RP as it stands now. The reply is a
                // snapshot: the coordinator must still close the round
                // with a re-dictation barrier.
                let inbound = self
                    .inbound
                    .iter()
                    .filter(|(_, &count)| count > 0)
                    .map(|(&site, _)| site)
                    .collect();
                self.recorder.record(FlightEventKind::ResyncStart);
                self.notify(
                    &Message::ResyncReply {
                        probe,
                        revision: self.table.revision,
                        inbound,
                    },
                    out,
                );
            }
            Message::OpenLink { child, addr } => {
                self.links.insert(child);
                out.push(Effect::OpenLink {
                    child,
                    addr,
                    hello: encoded(&Message::Hello { site: self.site }),
                });
            }
            Message::CloseLink { child } => {
                self.links.remove(&child);
                out.push(Effect::CloseLink { child });
            }
            Message::Publish {
                stream,
                base_seq,
                frames,
                payload_bytes,
                interval_micros,
            } => out.push(Effect::Publish(PublishBatch {
                stream,
                base_seq,
                end_seq: base_seq.saturating_add(frames),
                interval_micros,
                payload: Bytes::from(vec![0x3D; payload_bytes as usize]),
            })),
            Message::StatsRequest { probe } => {
                let report = self.stats.report(probe);
                self.notify(&report, out);
            }
            Message::Shutdown => {
                self.stop(out);
                out.push(Effect::Disconnect);
            }
            // RP-bound traffic never includes coordinator-bound replies;
            // drop the link on protocol violations.
            Message::Ack { .. }
            | Message::LinkUp { .. }
            | Message::LinkDown { .. }
            | Message::BatchDone { .. }
            | Message::StatsReport { .. }
            | Message::ResyncReply { .. } => out.push(Effect::Disconnect),
        }
    }

    /// The connection `role` describes is gone: de-attribute its peer
    /// (the coordinator observes a closed pair die through the `LinkDown`
    /// notification), and if it was the attached control channel, detach
    /// so acks stop until a re-`Attach`. A channel already replaced by a
    /// newer generation leaves its successor alone.
    pub(crate) fn on_close(&mut self, role: &mut ConnRole, out: &mut Vec<Effect>) {
        if let Some(site) = role.peer.take() {
            if let Some(count) = self.inbound.get_mut(&site) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    self.inbound.remove(&site);
                }
            }
            self.recorder.record(FlightEventKind::LinkDown {
                parent: site.index() as u32,
                child: self.site.index() as u32,
            });
            self.notify(&Message::LinkDown { peer: site }, out);
        }
        if let Some(generation) = role.attached.take() {
            if self.control.is_some_and(|(g, _)| g == generation) {
                self.control = None;
                self.recorder.record(FlightEventKind::CoordinatorLost);
            }
        }
    }

    /// The bytes of frame `seq` of a locally originated batch, captured
    /// at `now_micros`. The origin publishes at full quality; forwarding
    /// degrades (sizes and tags) to the origin entry's planned rung.
    pub(crate) fn originate(
        &self,
        now_micros: u64,
        batch: &PublishBatch,
        seq: u64,
        out: &mut Vec<Effect>,
    ) {
        self.forward(
            batch.stream,
            seq,
            now_micros,
            &batch.payload,
            Quality::FULL,
            out,
        );
    }

    /// Reports a finished batch to the coordinator.
    pub(crate) fn batch_done(&self, batch: &PublishBatch, out: &mut Vec<Effect>) {
        self.notify(
            &Message::BatchDone {
                stream: batch.stream,
                next_seq: batch.end_seq,
            },
            out,
        );
    }

    /// Idempotent teardown: cascade `End` markers for locally originated
    /// streams, close every outbound link, stop accepting.
    pub(crate) fn stop(&mut self, out: &mut Vec<Effect>) {
        if self.stopping {
            return;
        }
        self.stopping = true;
        for entry in &self.table.plan.entries {
            if entry.is_origin() {
                end_stream(entry, out);
            }
        }
        for child in std::mem::take(&mut self.links) {
            out.push(Effect::CloseLink { child });
        }
        out.push(Effect::Shutdown);
    }

    /// Forwards one frame — arriving at `tagged` quality — to this RP's
    /// planned children for `stream`. Each outgoing copy is degraded to
    /// the coarsest of the tag, this RP's own planned rung, and the
    /// child's rung from the plan's [`ChildLink`]: the payload is sized
    /// down one halving per extra rung and re-tagged, so quality only
    /// ever degrades along a path and the hop into a degraded receiver
    /// carries exactly the degraded bytes. Returns the effective rung
    /// this RP itself delivers at (tag vs own plan). An absent entry is
    /// a leaf at full quality, matching the admission path.
    fn forward(
        &self,
        stream: StreamId,
        seq: u64,
        captured_micros: u64,
        payload: &Bytes,
        tagged: Quality,
        out: &mut Vec<Effect>,
    ) -> Quality {
        let Some(entry) = self.table.plan.entry(stream) else {
            return tagged;
        };
        let effective = tagged.max(entry.quality);
        if !entry.children.is_empty() {
            let copies = encode_frame_copies(
                stream,
                seq,
                captured_micros,
                payload,
                tagged,
                effective,
                &entry.children,
            );
            out.extend(
                copies
                    .into_iter()
                    .map(|(child, bytes)| Effect::ToChild { child, bytes }),
            );
        }
        effective
    }

    /// Sends one message up the attached control channel. With no
    /// channel attached the message is dropped: this is the
    /// ack-suppression the resync contract relies on.
    fn notify(&self, message: &Message, out: &mut Vec<Effect>) {
        if self.control.is_some() {
            out.push(Effect::ToControl(encoded(message)));
        }
    }
}

/// Cascades the entry's stream `End` marker to its planned children: the
/// graceful per-stream termination signal. Connections themselves
/// outlive the stream.
fn end_stream(entry: &ForwardingEntry, out: &mut Vec<Effect>) {
    if entry.children.is_empty() {
        return;
    }
    let bytes = encoded(&Message::End {
        stream: entry.stream,
    });
    for child in &entry.children {
        out.push(Effect::ToChild {
            child: child.site,
            bytes: bytes.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::wire::decode;

    const NOW: u64 = 1_000_000;

    fn site(index: u32) -> SiteId {
        SiteId::new(index)
    }

    fn core() -> RpCore {
        RpCore::new(site(0), FlightRecorder::new())
    }

    fn step(core: &mut RpCore, role: &mut ConnRole, message: Message) -> Vec<Effect> {
        let mut out = Vec::new();
        core.handle(NOW, role, message, &mut out);
        out
    }

    /// Attaches a control channel so notifications are emitted.
    fn attached(core: &mut RpCore) -> ConnRole {
        let mut control = core.conn_role();
        assert!(step(core, &mut control, Message::Attach).is_empty());
        control
    }

    fn decoded(bytes: &Bytes) -> Message {
        let mut buf = BytesMut::from(&bytes[..]);
        let message = decode(&mut buf).expect("valid").expect("complete");
        assert!(buf.is_empty());
        message
    }

    /// The control-bound messages among `effects`, decoded.
    fn to_control(effects: &[Effect]) -> Vec<Message> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::ToControl(bytes) => Some(decoded(bytes)),
                _ => None,
            })
            .collect()
    }

    /// `(child, message)` for every child-bound effect, decoded.
    fn to_children(effects: &[Effect]) -> Vec<(SiteId, Message)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::ToChild { child, bytes } => Some((*child, decoded(bytes))),
                _ => None,
            })
            .collect()
    }

    fn entry(stream: StreamId, parent: Option<u32>, children: &[(u32, u8)]) -> ForwardingEntry {
        ForwardingEntry {
            stream,
            parent: parent.map(site),
            children: children
                .iter()
                .map(|&(s, rung)| ChildLink {
                    site: site(s),
                    quality: Quality::new(rung),
                })
                .collect(),
            quality: Quality::FULL,
        }
    }

    fn reconfigure(revision: u64, entries: Vec<ForwardingEntry>) -> Message {
        Message::Reconfigure {
            revision,
            site_plan: SitePlan {
                site: site(0),
                entries,
            },
        }
    }

    fn resync(core: &mut RpCore, control: &mut ConnRole) -> (u64, Vec<SiteId>) {
        let out = step(core, control, Message::ResyncQuery { probe: 9 });
        match to_control(&out).as_slice() {
            [Message::ResyncReply {
                probe: 9,
                revision,
                inbound,
            }] => (*revision, inbound.clone()),
            other => panic!("expected one ResyncReply, got {other:?}"),
        }
    }

    #[test]
    fn stale_reconfigure_is_acked_not_applied_and_replay_reapplies() {
        let mut core = core();
        let mut control = attached(&mut core);
        let stream = StreamId::new(site(0), 0);

        let out = step(&mut core, &mut control, reconfigure(4, vec![]));
        assert_eq!(to_control(&out), vec![Message::Ack { revision: 4 }]);

        // Older revision: acknowledged, table kept.
        let stale = reconfigure(2, vec![entry(stream, None, &[(1, 0)])]);
        let out = step(&mut core, &mut control, stale);
        assert_eq!(to_control(&out), vec![Message::Ack { revision: 2 }]);
        assert_eq!(core.table.revision, 4);
        assert!(core.table.plan.entries.is_empty());

        // Same revision replayed with a new table: applied.
        let replay = reconfigure(4, vec![entry(stream, None, &[(1, 0)])]);
        let out = step(&mut core, &mut control, replay);
        assert_eq!(to_control(&out), vec![Message::Ack { revision: 4 }]);
        assert_eq!(core.table.plan.entries.len(), 1);
        assert_eq!(resync(&mut core, &mut control).0, 4);
    }

    #[test]
    fn overlapping_hello_close_hello_keeps_the_peer_inbound() {
        let mut core = core();
        let mut control = attached(&mut core);
        let mut first = ConnRole::default();
        let mut second = ConnRole::default();

        let out = step(&mut core, &mut first, Message::Hello { site: site(5) });
        assert_eq!(to_control(&out), vec![Message::LinkUp { peer: site(5) }]);
        step(&mut core, &mut second, Message::Hello { site: site(5) });

        let mut out = Vec::new();
        core.on_close(&mut first, &mut out);
        assert_eq!(to_control(&out), vec![Message::LinkDown { peer: site(5) }]);
        assert_eq!(resync(&mut core, &mut control).1, vec![site(5)]);

        core.on_close(&mut second, &mut out);
        assert!(resync(&mut core, &mut control).1.is_empty());
    }

    #[test]
    fn closing_a_replaced_control_channel_keeps_its_successor() {
        let recorder = FlightRecorder::new();
        let mut core = RpCore::new(site(0), recorder.clone());
        let mut old = attached(&mut core);
        let mut new = attached(&mut core);

        let mut out = Vec::new();
        core.on_close(&mut old, &mut out);
        assert!(out.is_empty());
        let lost = |r: &FlightRecorder| {
            r.events()
                .iter()
                .any(|e| e.kind == FlightEventKind::CoordinatorLost)
        };
        assert!(!lost(&recorder), "old channel must not detach the new one");

        // The successor still carries acks...
        let mut out = step(&mut core, &mut new, reconfigure(1, vec![]));
        assert_eq!(to_control(&out), vec![Message::Ack { revision: 1 }]);

        // ...until it closes itself.
        core.on_close(&mut new, &mut out);
        assert!(lost(&recorder));
        let mut other = core.conn_role();
        let out = step(&mut core, &mut other, reconfigure(2, vec![]));
        assert!(to_control(&out).is_empty(), "detached: acks suppressed");
    }

    #[test]
    fn a_late_attach_from_an_older_connection_keeps_the_newer_channel() {
        let mut core = core();
        let mut stale = core.conn_role();
        let mut fresh = core.conn_role();
        // The fresh channel's Attach is handled first, the stale one's
        // after it.
        step(&mut core, &mut fresh, Message::Attach);
        step(&mut core, &mut stale, Message::Attach);
        assert_eq!(stale.attached(), None, "older connection must not attach");
        assert_eq!(fresh.attached(), Some(1));

        let mut out = Vec::new();
        core.on_close(&mut stale, &mut out);
        let out = step(&mut core, &mut fresh, reconfigure(1, vec![]));
        assert_eq!(to_control(&out), vec![Message::Ack { revision: 1 }]);
    }

    #[test]
    fn full_tag_to_a_rung_one_child_halves_the_payload_and_counts_degraded() {
        let mut core = core();
        let mut control = attached(&mut core);
        let stream = StreamId::new(site(3), 0);
        let mut relay = entry(stream, Some(3), &[(1, 1), (2, 0)]);
        // This RP's own planned rung is below full.
        relay.quality = Quality::new(1);
        step(&mut core, &mut control, reconfigure(1, vec![relay]));

        let mut upstream = ConnRole::default();
        let frame = Message::Frame {
            stream,
            quality: Quality::FULL,
            seq: 7,
            captured_micros: NOW - 250,
            payload: Bytes::from(vec![1u8; 1024]),
        };
        let out = step(&mut core, &mut upstream, frame);
        let copies = to_children(&out);
        assert_eq!(copies.len(), 2);
        for (child, message) in copies {
            let Message::Frame {
                quality, payload, ..
            } = message
            else {
                panic!("expected a frame to {child:?}");
            };
            // Both children get the RP's effective rung 1.
            assert_eq!(quality, Quality::new(1));
            assert_eq!(payload.len(), 512);
        }

        let out = step(&mut core, &mut control, Message::StatsRequest { probe: 1 });
        let reports = to_control(&out);
        let [Message::StatsReport { total, streams, .. }] = reports.as_slice() else {
            panic!("expected one StatsReport");
        };
        assert_eq!(*total, 1);
        assert_eq!(streams[0].delivered, 1);
        assert_eq!(streams[0].delivered_degraded, 1);
        assert_eq!(streams[0].latency_sum_micros, 250);
    }

    #[test]
    fn full_rung_relay_sizes_each_copy_by_its_childs_rung() {
        let mut core = core();
        let mut control = attached(&mut core);
        let stream = StreamId::new(site(3), 0);
        let relay = entry(stream, Some(3), &[(1, 1), (2, 0)]);
        step(&mut core, &mut control, reconfigure(1, vec![relay]));

        let frame = Message::Frame {
            stream,
            quality: Quality::FULL,
            seq: 0,
            captured_micros: NOW,
            payload: Bytes::from(vec![1u8; 1024]),
        };
        let out = step(&mut core, &mut ConnRole::default(), frame);
        let sizes: Vec<(SiteId, usize)> = to_children(&out)
            .into_iter()
            .map(|(child, m)| match m {
                Message::Frame { payload, .. } => (child, payload.len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![(site(1), 512), (site(2), 1024)]);

        let out = step(&mut core, &mut control, Message::StatsRequest { probe: 1 });
        let reports = to_control(&out);
        let [Message::StatsReport { streams, .. }] = reports.as_slice() else {
            panic!("expected one StatsReport");
        };
        assert_eq!(streams[0].delivered_degraded, 0, "own rung is full");
    }

    #[test]
    fn end_cascades_only_to_planned_children() {
        let mut core = core();
        let mut control = attached(&mut core);
        let planned = StreamId::new(site(3), 0);
        let unplanned = StreamId::new(site(4), 0);
        let leaf = StreamId::new(site(5), 0);
        step(
            &mut core,
            &mut control,
            reconfigure(
                1,
                vec![
                    entry(planned, Some(3), &[(1, 0), (2, 0)]),
                    entry(leaf, Some(5), &[]),
                ],
            ),
        );
        let mut upstream = ConnRole::default();
        let out = step(&mut core, &mut upstream, Message::End { stream: planned });
        assert_eq!(
            to_children(&out),
            vec![
                (site(1), Message::End { stream: planned }),
                (site(2), Message::End { stream: planned }),
            ]
        );
        assert_eq!(out.len(), 2);
        assert!(step(&mut core, &mut upstream, Message::End { stream: unplanned }).is_empty());
        assert!(step(&mut core, &mut upstream, Message::End { stream: leaf }).is_empty());
    }

    #[test]
    fn shutdown_ends_origin_streams_then_closes_every_link() {
        let mut core = core();
        let mut control = attached(&mut core);
        let origin = StreamId::new(site(0), 0);
        let relayed = StreamId::new(site(3), 0);
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        step(
            &mut core,
            &mut control,
            reconfigure(
                1,
                vec![
                    entry(origin, None, &[(1, 0)]),
                    entry(StreamId::new(site(0), 1), None, &[]),
                    entry(relayed, Some(3), &[(2, 0)]),
                ],
            ),
        );
        for child in [1, 2, 4] {
            let out = step(
                &mut core,
                &mut control,
                Message::OpenLink {
                    child: site(child),
                    addr,
                },
            );
            let [Effect::OpenLink { hello, .. }] = out.as_slice() else {
                panic!("expected one OpenLink effect, got {out:?}");
            };
            assert_eq!(decoded(hello), Message::Hello { site: site(0) });
        }
        step(
            &mut core,
            &mut control,
            Message::CloseLink { child: site(4) },
        );

        let out = step(&mut core, &mut control, Message::Shutdown);
        assert_eq!(
            to_children(&out),
            vec![(site(1), Message::End { stream: origin })]
        );
        let rest: Vec<String> = out[1..].iter().map(|e| format!("{e:?}")).collect();
        assert_eq!(
            rest,
            vec![
                format!("{:?}", Effect::CloseLink { child: site(1) }),
                format!("{:?}", Effect::CloseLink { child: site(2) }),
                "Shutdown".to_string(),
                "Disconnect".to_string(),
            ]
        );
        assert!(core.stopping());

        // Idempotent: a second shutdown only drops its connection.
        let out = step(&mut core, &mut control, Message::Shutdown);
        assert!(matches!(out.as_slice(), [Effect::Disconnect]));
    }

    #[test]
    fn coordinator_bound_messages_drop_the_connection() {
        let stream = StreamId::new(site(0), 0);
        let bound = [
            Message::Ack { revision: 1 },
            Message::LinkUp { peer: site(1) },
            Message::LinkDown { peer: site(1) },
            Message::BatchDone {
                stream,
                next_seq: 1,
            },
            Message::StatsReport {
                probe: 1,
                total: 0,
                max_latency_micros: 0,
                streams: Vec::new(),
            },
            Message::ResyncReply {
                probe: 1,
                revision: 0,
                inbound: Vec::new(),
            },
        ];
        for message in bound {
            let mut core = core();
            let mut control = attached(&mut core);
            let out = step(&mut core, &mut control, message.clone());
            assert!(
                matches!(out.as_slice(), [Effect::Disconnect]),
                "{message:?} must only drop the connection, got {out:?}"
            );
        }
    }

    #[test]
    fn publish_batch_originates_at_full_quality_and_reports_done() {
        let mut core = core();
        let mut control = attached(&mut core);
        let stream = StreamId::new(site(0), 0);
        step(
            &mut core,
            &mut control,
            reconfigure(1, vec![entry(stream, None, &[(1, 0)])]),
        );
        let publish = Message::Publish {
            stream,
            base_seq: 3,
            frames: 2,
            payload_bytes: 64,
            interval_micros: 0,
        };
        let mut out = step(&mut core, &mut control, publish);
        let Some(Effect::Publish(batch)) = out.pop() else {
            panic!("expected a Publish effect");
        };
        assert_eq!((batch.base_seq, batch.end_seq), (3, 5));

        let mut out = Vec::new();
        core.originate(NOW, &batch, 3, &mut out);
        match to_children(&out).as_slice() {
            [(
                child,
                Message::Frame {
                    seq: 3,
                    captured_micros: NOW,
                    quality,
                    payload,
                    ..
                },
            )] => {
                assert_eq!(*child, site(1));
                assert!(quality.is_full());
                assert_eq!(payload.len(), 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut out = Vec::new();
        core.batch_done(&batch, &mut out);
        assert_eq!(
            to_control(&out),
            vec![Message::BatchDone {
                stream,
                next_seq: 5
            }]
        );
    }
}
