//! Spans recorded from outside the program: the benchmark's driver
//! brackets every call it makes into a layer with `begin`/`end`.
//!
//! Every span is timed and folded into a per-name aggregate (count,
//! total, self time); one root span in `keep_every` additionally keeps
//! its whole tree in memory, to be written out when the run ends. Self
//! time is a span's duration minus the durations of its direct
//! children, so the self times of a tree add up to its root.

use std::io::Write;
use std::time::Instant;

/// The layer boundary a span brackets. The discriminant indexes
/// [`NAMES`] and the aggregate table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: one kernel event, from before its pop to after its last
    /// send was scheduled.
    Event,
    Pop,
    Schedule,
    Send,
    OnEvent,
    OnSubscription,
    Publish,
    GossipRound,
    OnDigest,
    OnRequest,
    OnReply,
    Sink,
    /// The codec/frame timing the traced run performs on sampled
    /// envelopes — benchmark work, kept out of every layer's self time.
    WireProbe,
}

pub const NAMES: [&str; 13] = [
    "event",
    "sim.pop",
    "sim.schedule",
    "overlay.send",
    "pubsub.on_event",
    "pubsub.on_subscription",
    "pubsub.publish",
    "gossip.round",
    "gossip.on_digest",
    "gossip.on_request",
    "gossip.on_reply",
    "metrics.sink",
    "harness.wire_probe",
];

/// What the driver reports to. `Off` compiles to nothing, so the same
/// generic loop is both the bare driver and the traced one.
pub trait Probe {
    const ON: bool;
    /// Opens the root span of kernel event `id`.
    fn root(&mut self, id: u64);
    fn begin(&mut self, name: Name);
    /// Closes the innermost open span.
    fn end(&mut self);
}

pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn root(&mut self, _id: u64) {}
    #[inline(always)]
    fn begin(&mut self, _name: Name) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Per-name totals over *all* spans of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    pub count: u64,
    /// Direct child spans closed inside spans of this name.
    pub children: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One kept span. `parent` indexes the kept-span list (`u32::MAX` for
/// a root); `root_id` is the kernel event's sequence number, shared by
/// every span of that event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub root_id: u64,
}

const NO_PARENT: u32 = u32::MAX;

struct Open {
    name: Name,
    start_ns: u64,
    children_ns: u64,
    /// Index of this span in `kept`, when its tree is being kept.
    slot: u32,
}

pub struct Recorder {
    origin: Instant,
    stack: Vec<Open>,
    aggregates: [Aggregate; NAMES.len()],
    kept: Vec<Span>,
    keep_every: u64,
    keep_cap: usize,
    keeping: bool,
    root_id: u64,
    cost: SpanCost,
}

/// What recording one span costs, measured on empty spans before the
/// run: `leaf_ns` lands inside the span's own duration, `parent_ns` in
/// whatever contains it. A clock read is tens of nanoseconds, the same
/// order as a queue pop, so self times are reported net of both.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    pub leaf_ns: f64,
    pub parent_ns: f64,
}

impl Recorder {
    /// Keeps the full span tree of every `keep_every`-th root, until
    /// `keep_cap` spans are in memory; aggregates always cover all.
    pub fn new(keep_every: u64, keep_cap: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            aggregates: [Aggregate::default(); NAMES.len()],
            kept: Vec::new(),
            keep_every: keep_every.max(1),
            keep_cap,
            keeping: false,
            root_id: 0,
            cost: SpanCost::default(),
        }
    }

    /// A recorder that knows its own cost: times empty root + child
    /// pairs first, then starts clean.
    pub fn calibrated(keep_every: u64, keep_cap: usize) -> Recorder {
        const PAIRS: u64 = 200_000;
        let mut probe = Recorder::new(1, 0);
        for id in 0..PAIRS {
            probe.root(id);
            probe.begin(Name::Pop);
            probe.end();
            probe.end();
        }
        let leaf_ns = probe.aggregate(Name::Pop).total_ns as f64 / PAIRS as f64;
        let root_self_ns = probe.aggregate(Name::Event).self_ns as f64 / PAIRS as f64;
        let mut rec = Recorder::new(keep_every, keep_cap);
        rec.cost = SpanCost {
            leaf_ns,
            parent_ns: (root_self_ns - leaf_ns).max(0.0),
        };
        rec
    }

    pub fn cost(&self) -> SpanCost {
        self.cost
    }

    /// Self time of all spans named `name`, net of the recording cost
    /// of the spans themselves and of their direct children, ns.
    pub fn net_self_ns(&self, name: Name) -> f64 {
        let agg = self.aggregate(name);
        (agg.self_ns as f64
            - agg.count as f64 * self.cost.leaf_ns
            - agg.children as f64 * self.cost.parent_ns)
            .max(0.0)
    }

    /// [`Recorder::net_self_ns`] per span (0 when none occurred).
    pub fn net_self_ns_per_call(&self, name: Name) -> f64 {
        match self.aggregate(name).count {
            0 => 0.0,
            count => self.net_self_ns(name) / count as f64,
        }
    }

    /// Spans of every name, roots included.
    pub fn span_count(&self) -> u64 {
        self.aggregates.iter().map(|a| a.count).sum()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn aggregate(&self, name: Name) -> Aggregate {
        self.aggregates[name as usize]
    }

    pub fn keep_every(&self) -> u64 {
        self.keep_every
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Writes the kept spans as one JSON object:
    /// `{"workload", "keep_every", "names", "spans": [[name, start_ns,
    /// end_ns, parent, root_id], ...]}` with `parent` = -1 for roots.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"keep_every\":{},\"names\":[",
            self.keep_every
        )?;
        for (i, name) in NAMES.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{}[{},{},{},{parent},{}]",
                if i == 0 { "" } else { "," },
                s.name as u8,
                s.start_ns,
                s.end_ns,
                s.root_id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }

    fn open(&mut self, name: Name) {
        let slot = if self.keeping {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                root_id: self.root_id,
            });
            (self.kept.len() - 1) as u32
        } else {
            NO_PARENT
        };
        // Read the clock last, so bookkeeping above is charged to the
        // parent, not to the span being opened.
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            slot,
        });
    }
}

impl Probe for Recorder {
    const ON: bool = true;

    fn root(&mut self, id: u64) {
        debug_assert!(self.stack.is_empty(), "root opened inside a span");
        self.root_id = id;
        self.keeping = id.is_multiple_of(self.keep_every) && self.kept.len() < self.keep_cap;
        self.open(Name::Event);
    }

    fn begin(&mut self, name: Name) {
        self.open(name);
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end without begin");
        let duration = end_ns - open.start_ns;
        let agg = &mut self.aggregates[open.name as usize];
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += duration;
            self.aggregates[parent.name as usize].children += 1;
        }
        if open.slot != NO_PARENT {
            let span = &mut self.kept[open.slot as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new(1, 100);
        rec.root(0);
        spin(200_000);
        rec.begin(Name::OnEvent);
        spin(300_000);
        rec.begin(Name::Sink);
        spin(400_000);
        rec.end();
        rec.end();
        rec.begin(Name::Send);
        spin(100_000);
        rec.end();
        rec.end();

        let root = rec.aggregate(Name::Event);
        let handle = rec.aggregate(Name::OnEvent);
        let sink = rec.aggregate(Name::Sink);
        let send = rec.aggregate(Name::Send);
        assert_eq!(sink.self_ns, sink.total_ns, "a leaf is all self time");
        assert_eq!(handle.self_ns, handle.total_ns - sink.total_ns);
        // Only *direct* children are subtracted from the root.
        assert_eq!(
            root.self_ns,
            root.total_ns - handle.total_ns - send.total_ns
        );
        // Self times of a tree add up to its root.
        assert_eq!(
            root.self_ns + handle.self_ns + sink.self_ns + send.self_ns,
            root.total_ns
        );
        assert!(sink.self_ns >= 400_000 && handle.self_ns >= 300_000);
    }

    #[test]
    fn keeps_one_tree_in_k_and_links_parents() {
        let mut rec = Recorder::new(3, 1000);
        for id in 0..7 {
            rec.root(id);
            rec.begin(Name::Pop);
            rec.end();
            rec.end();
        }
        assert_eq!(rec.aggregate(Name::Event).count, 7, "counts cover all");
        // Roots 0, 3 and 6 are kept, each with its pop child.
        assert_eq!(rec.kept().len(), 6);
        for pair in rec.kept().chunks(2) {
            assert_eq!(pair[0].name, Name::Event);
            assert_eq!(pair[0].parent, NO_PARENT);
            assert_eq!(pair[1].name, Name::Pop);
            assert_eq!(pair[1].root_id, pair[0].root_id);
            assert!(pair[1].start_ns >= pair[0].start_ns && pair[1].end_ns <= pair[0].end_ns);
        }
        let first_child = rec.kept()[1];
        assert_eq!(first_child.parent, 0);
    }

    #[test]
    fn kept_spans_respect_the_memory_cap() {
        let mut rec = Recorder::new(1, 4);
        for id in 0..10 {
            rec.root(id);
            rec.begin(Name::Pop);
            rec.end();
            rec.end();
        }
        // A tree that starts under the cap is kept whole.
        assert_eq!(rec.kept().len(), 4);
        assert_eq!(rec.aggregate(Name::Pop).count, 10);
    }
}
