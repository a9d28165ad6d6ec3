//! `teeve-check`: the workspace's self-checking gate — repo-invariant
//! lint passes and an exhaustive control-plane model checker, all run in
//! CI (`cargo run --release -p teeve-check -- <lint|locks|model|all>`).
//!
//! # Why a bespoke checker
//!
//! The failure classes this repo kept hand-patching in review are
//! *repo-specific* — a `Message` variant added to the encoder but not
//! the proptest strategy, a wire count looped on before a bounds check,
//! an `unwrap()` inside an RP reader thread, an ad-hoc
//! `SystemTime::now`, a guard held across a socket write. Generic
//! tooling can't know these rules, and the build image has no registry
//! access for `syn`-sized dependencies, so [`lint`] is a token-level
//! scanner over cleaned source text: exact line numbers, zero
//! dependencies, suppression and allowlist escape hatches for the
//! places the heuristics misjudge. The `locks` pass layers a
//! lock-discipline analysis on the same scanner: it tracks `parking_lot`
//! guard live-ranges, builds a cross-file lock-ordering graph, and
//! reports order cycles, guards held across blocking calls, and
//! double-acquisitions of one lock family.
//!
//! The dictation protocol (revision-tagged `Reconfigure`/`Ack` with an
//! ack barrier, absorbing poisoning, quality-stamped forwarding tables,
//! crash/reconnect/resync) is only ever *tested* on clean
//! interleavings; [`model`] explores it exhaustively at small scope —
//! every reordering, drop, duplication, and coordinator crash the
//! bounded network allows — and proves eight invariants on every
//! reachable state, with seeded-mutation self-tests demonstrating that
//! each invariant check can actually fail:
//!
//! | invariant | meaning |
//! |---|---|
//! | `revision-monotone`   | an RP's applied revision never decreases |
//! | `ack-valid`           | no `Ack` for a revision never delivered to that RP |
//! | `poison-absorbing`    | a poisoned coordinator never dictates again |
//! | `quality-monotone`    | effective quality only degrades along forwarding paths |
//! | `acyclic-forwarding`  | no reachable mixed table forwards in a cycle |
//! | `resync-continuity`   | RPs keep forwarding their last-applied table through coordinator absence |
//! | `resync-view`         | a reconnected coordinator only dictates on a view matching every RP's real revision |
//! | `reconnect-regression`| the dictation watermark never falls across a reconnect |
//!
//! The bridge back to the real code is [`model::swap_table`] — the exact
//! table-application rule `teeve-net`'s `RpCore` implements — which the
//! model-conformance proptest (`tests/conformance.rs`) runs against real
//! `DisseminationPlan`-derived `SitePlan`s evolved by random deltas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod model;
