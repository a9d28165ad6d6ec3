//! Spans recorded from the benchmark's own code around each call into a
//! layer, with process counters sampled at the span boundaries. Spans stay
//! in memory and are written out when the run ends.

use std::fs;
use std::io;
use std::path::Path;

use serde_json::{json, Value};

use crate::probe;

/// Counters sampled at a span boundary; a span stores their difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// CPU time of the calling (coordinator) thread, ns.
    pub thread_cpu_ns: u64,
    /// CPU time of the whole process, ns.
    pub process_cpu_ns: u64,
    /// Allocations counted by the global allocator.
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Voluntary plus involuntary context switches of the process.
    pub context_switches: u64,
}

impl Counters {
    /// Samples every counter now.
    pub fn sample() -> Counters {
        let (allocs, alloc_bytes) = probe::alloc_counts();
        Counters {
            thread_cpu_ns: probe::thread_cpu_ns(),
            process_cpu_ns: probe::process_cpu_ns(),
            allocs,
            alloc_bytes,
            context_switches: probe::context_switches(),
        }
    }

    fn since(&self, start: &Counters) -> Counters {
        Counters {
            thread_cpu_ns: self.thread_cpu_ns.saturating_sub(start.thread_cpu_ns),
            process_cpu_ns: self.process_cpu_ns.saturating_sub(start.process_cpu_ns),
            allocs: self.allocs.saturating_sub(start.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(start.alloc_bytes),
            context_switches: self.context_switches.saturating_sub(start.context_switches),
        }
    }

    /// Adds another span's counters.
    pub fn add(&mut self, other: &Counters) {
        self.thread_cpu_ns += other.thread_cpu_ns;
        self.process_cpu_ns += other.process_cpu_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.context_switches += other.context_switches;
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span wraps.
    pub name: &'static str,
    /// Batch or epoch id shared by the spans of one loop step.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start on the trace clock, ns.
    pub start_ns: u64,
    /// End on the trace clock, ns.
    pub end_ns: u64,
    /// Counter deltas over the span; `None` for spans reconstructed from
    /// durations the program returned (the runtime's phases).
    pub counters: Option<Counters>,
}

impl Span {
    /// The span's wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs a branch per call.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<(usize, Counters)>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let counters = Counters::sample();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().map(|&(index, _)| index),
            start_ns: probe::wall_ns(),
            end_ns: 0,
            counters: None,
        });
        self.open.push((self.spans.len() - 1, counters));
    }

    /// Closes the innermost open span and returns its index.
    pub fn exit(&mut self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let end_ns = probe::wall_ns();
        let (index, start) = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.counters = Some(Counters::sample().since(&start));
        Some(index)
    }

    /// Records a child of `parent` from a duration the program measured
    /// itself, laid out after the parent's start plus `offset_ns`.
    pub fn child(&mut self, parent: usize, name: &'static str, offset_ns: u64, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.spans[parent].start_ns + offset_ns;
        let id = self.spans[parent].id;
        self.spans.push(Span {
            name,
            id,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + duration_ns,
            counters: None,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON array.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                let c = span.counters.unwrap_or_default();
                json!({
                    "index": index,
                    "name": span.name,
                    "id": span.id,
                    "parent": span.parent,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "thread_cpu_ns": c.thread_cpu_ns,
                    "process_cpu_ns": c.process_cpu_ns,
                    "allocs": c.allocs,
                    "alloc_bytes": c.alloc_bytes,
                    "context_switches": c.context_switches,
                })
            })
            .collect();
        fs::write(path, format!("{}\n", Value::Array(spans)))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = end;
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
            counters: None,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("epoch", None, 0, 1000),
            span("drive_epoch", Some(0), 0, 600),
            span("repair", Some(1), 100, 300),
            span("derive", Some(1), 250, 400), // overlaps repair by 50
            span("apply_delta", Some(0), 600, 900),
            span("spill", Some(4), 850, 2000), // clipped to the parent
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100, 300, 200, 150, 250, 1150]);
    }

    #[test]
    fn tracer_nests_spans_and_samples_counters() {
        let mut tracer = Tracer::new(true);
        tracer.enter("epoch", 7);
        tracer.enter("drive_epoch", 7);
        let drive = tracer.exit().expect("enabled");
        tracer.child(drive, "repair", 0, 0);
        tracer.exit();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.id == 7));
        assert!(spans[0].counters.is_some() && spans[2].counters.is_none());

        let mut off = Tracer::new(false);
        off.enter("epoch", 1);
        assert_eq!(off.exit(), None);
        assert!(off.spans().is_empty());
    }
}
