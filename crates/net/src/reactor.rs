//! The epoll reactor: the socket runtime, thousands of dispatchers
//! per process.
//!
//! All TCP tree links and UDP out-of-band sockets are multiplexed onto
//! a small fixed pool of worker threads, each owning a contiguous
//! slice of nodes (a multi-process deployment runs a one-node slice on
//! one worker per process):
//!
//! ```text
//!  worker 0 ───────────────┐   worker 1 ───────────────┐
//!  │ nodes [0, n)          │   │ nodes [n, 2n)         │
//!  │ epoll fd              │   │ epoll fd              │
//!  │ timerfd ← timer queue │   │ timerfd ← timer queue │
//!  │ eventfd ← coordinator │   │ eventfd ← coordinator │
//!  └───────────────────────┘   └───────────────────────┘
//!            └─ shared run state + delivery ledger ─┘
//! ```
//!
//! - **One timer queue, not sleeps.** Every protocol deadline (publish
//!   tick, gossip round, dial retry, restart resume) is an entry in
//!   the simulator's own `eps_sim::KeyedEngine`; a single `timerfd` is
//!   armed to the queue's head and `epoll_wait` blocks until either it
//!   fires or a socket becomes ready. An idle worker costs zero CPU.
//! - **Edge-triggered reads.** Every stream is registered `EPOLLET`
//!   and drained to `EAGAIN` into the shared `frame.rs` decoder.
//! - **Batched writes.** Outbound frames coalesce into one per-link
//!   write buffer and are flushed once per readiness cycle — one
//!   `write` syscall per link per batch instead of one per envelope.
//!   A full buffer sheds new frames into `queue_drops`
//!   (backpressure).
//! - **Connection state machines.** Dial retry/backoff (with jitter)
//!   and forced-restart semantics live in per-link `Down →
//!   Connecting → Up` state driven by epoll events, not thread state.
//!
//! The protocol state is the `NodeCore` of `core.rs`, booted by
//! `boot_population`, reported through `aggregate_cores`; each worker
//! counts its slice's messages in one `MessageCounters`. What a seed
//! publishes and how bytes are accounted is decided there, not here
//! (pinned against the simulator by `tests/crossval.rs`).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eps_gossip::Channel;
use eps_metrics::MessageCounters;
use eps_overlay::{LinkId, NodeId};
use eps_sim::{KeyedEngine, Rng, SimTime};

use crate::cluster::{
    aggregate_cores, bind_with_retry, boot_population, wait_for_convergence, Boot, BootNode,
    NetConfig, NetRunReport, NodeAddrs,
};
use crate::core::{Arrival, NodeCore, Outbound, Shared};
use crate::frame::FrameReader;
use crate::syscalls::{
    drain_counter, epoll_add, epoll_create, epoll_mod, epoll_wait, eventfd_create, eventfd_signal,
    take_socket_error, tcp_connect_start, timerfd_arm, timerfd_create, EpollEvent, OwnedFd,
    EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Events drained per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 1024;
/// Fallback arm when the queue is empty (cannot happen while any node
/// is live, but the timerfd must never be left unarmed forever).
const IDLE_ARM: Duration = Duration::from_millis(50);
/// First dial-retry wait of a link; doubles per failed attempt.
const BACKOFF_START: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Dial-retry backoff with jitter: the deterministic base doubles up
/// to the cap, but each wait is scaled by a uniform draw in
/// `[0.5, 1.5)` from the node's dial stream — so peers restarted
/// together do not hammer an acceptor in lockstep.
fn jittered_backoff(base: Duration, dial_rng: &mut Rng) -> Duration {
    base.mul_f64(dial_rng.random_range(0.5..1.5))
}

// ---- epoll token packing -------------------------------------------
//
// The kernel hands back one u64 per readiness event; the reactor packs
// `kind | aux | index` into it: 3 bits of kind, 29 bits of auxiliary
// data (the link index within a node), 32 bits of worker-local node
// index or pending-slab slot.

const KIND_TIMER: u64 = 0;
const KIND_WAKE: u64 = 1;
const KIND_LISTENER: u64 = 2;
const KIND_UDP: u64 = 3;
const KIND_LINK: u64 = 4;
const KIND_PENDING: u64 = 5;

fn token(kind: u64, idx: usize, aux: usize) -> u64 {
    debug_assert!(idx <= u32::MAX as usize && aux < (1 << 29));
    (kind << 61) | ((aux as u64) << 32) | idx as u64
}

fn token_kind(t: u64) -> u64 {
    t >> 61
}

fn token_idx(t: u64) -> usize {
    (t & 0xFFFF_FFFF) as usize
}

fn token_aux(t: u64) -> usize {
    ((t >> 32) & 0x1FFF_FFFF) as usize
}

// ---- timers -------------------------------------------------------

/// What a timer entry wakes up: a node's next protocol deadline, a
/// dial retry for one link, or a restarted node's resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimerToken {
    Node(usize),
    Dial { node: usize, link: usize },
    Resume(usize),
}

/// A worker's pending timers over nanoseconds-since-run-start: the
/// simulator's event queue, keyed by an insertion counter (equal
/// deadlines fire in insertion order).
#[derive(Default)]
pub(crate) struct Timers {
    queue: KeyedEngine<u64, TimerToken>,
    inserted: u64,
}

impl Timers {
    /// Files `token` at `deadline_ns`. The queue's clock is the last
    /// deadline it fired, and a node that has fallen behind its
    /// schedule asks for deadlines before that: those are already due,
    /// so they are filed at the clock and come out of the next drain.
    pub(crate) fn insert(&mut self, deadline_ns: u64, token: TimerToken) {
        let at = SimTime::from_nanos(deadline_ns).max(self.queue.now());
        self.queue.schedule_at(at, self.inserted, token);
        self.inserted += 1;
    }

    /// Moves every entry due at `now_ns` into `out`, in deadline order.
    pub(crate) fn drain_due(&mut self, now_ns: u64, out: &mut Vec<TimerToken>) {
        let horizon = SimTime::from_nanos(now_ns + 1);
        while let Some((_, _, token)) = self.queue.pop_before(horizon) {
            out.push(token);
        }
    }

    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.queue.peek_time().map(SimTime::as_nanos)
    }
}

// ---- per-link write buffer -----------------------------------------

/// How one flush attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushStatus {
    /// Everything queued went out; the buffer is empty again.
    Clean,
    /// The socket would block; register for `EPOLLOUT` and retry.
    Blocked,
    /// The connection is dead.
    Broken,
}

/// One flush attempt's outcome: completed frames/bytes (for the
/// `frames_sent`/`bytes_sent` counters) and how it ended.
pub(crate) struct FlushOutcome {
    pub frames: u64,
    pub bytes: u64,
    pub status: FlushStatus,
}

/// The coalescing write buffer of one link: queued frames share one
/// contiguous byte run, flushed with one `write` per readiness cycle.
/// Bounded in *frames* (same unit as the thread runtime's outbox);
/// overflow is the caller's `queue_drops`. Survives reconnects by
/// rewinding to the first frame the dead connection did not complete.
pub(crate) struct LinkBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` written to the current connection.
    pos: usize,
    /// Start offset of the first incompletely-sent frame — the rewind
    /// point when a connection dies mid-frame (the replacement
    /// connection gets the whole frame again; its fresh `FrameReader`
    /// never saw the partial bytes).
    front_start: usize,
    /// End offset of each queued-but-incomplete frame, in order.
    ends: VecDeque<usize>,
    capacity: usize,
}

impl LinkBuf {
    pub(crate) fn new(capacity: usize) -> LinkBuf {
        LinkBuf {
            buf: Vec::new(),
            pos: 0,
            front_start: 0,
            ends: VecDeque::new(),
            capacity,
        }
    }

    /// Queues one frame (4-byte length prefix + body); `false` means
    /// the buffer is at capacity and the frame was shed.
    pub(crate) fn push(&mut self, body: &[u8]) -> bool {
        if self.ends.len() >= self.capacity {
            return false;
        }
        self.buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(body);
        self.ends.push_back(self.buf.len());
        true
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Queued frames not yet fully written.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.ends.len()
    }

    /// Writes as much of the buffer as the socket accepts.
    pub(crate) fn flush(&mut self, stream: &mut TcpStream) -> FlushOutcome {
        let mut frames = 0;
        let mut bytes = 0;
        loop {
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
                self.front_start = 0;
                self.ends.clear();
                return FlushOutcome {
                    frames,
                    bytes,
                    status: FlushStatus::Clean,
                };
            }
            match stream.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return FlushOutcome {
                        frames,
                        bytes,
                        status: FlushStatus::Broken,
                    }
                }
                Ok(n) => {
                    self.pos += n;
                    while self.ends.front().is_some_and(|&end| end <= self.pos) {
                        let end = self.ends.pop_front().expect("checked front");
                        frames += 1;
                        bytes += (end - self.front_start - 4) as u64;
                        self.front_start = end;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return FlushOutcome {
                        frames,
                        bytes,
                        status: FlushStatus::Blocked,
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    return FlushOutcome {
                        frames,
                        bytes,
                        status: FlushStatus::Broken,
                    }
                }
            }
        }
    }

    /// The connection died: rewind to the start of the first frame it
    /// did not complete, so the replacement connection re-sends it
    /// whole.
    pub(crate) fn on_disconnect(&mut self) {
        self.pos = self.front_start;
    }

    /// A restart discards queued traffic, like a process restart
    /// would.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.front_start = 0;
        self.ends.clear();
    }
}

// ---- connection state ----------------------------------------------

enum LinkState {
    /// No connection. A dialer gets here with a `Dial` timer entry
    /// pending; an acceptor waits for the peer to dial.
    Down,
    /// A nonblocking connect is in flight; `EPOLLOUT` delivers the
    /// verdict via `SO_ERROR`.
    Connecting(TcpStream),
    Up {
        stream: TcpStream,
        reader: FrameReader,
    },
}

struct RLink {
    peer: NodeId,
    dialer: bool,
    state: LinkState,
    backoff: Duration,
    attempts_this_session: u64,
    buf: LinkBuf,
    /// Queued for this cycle's batched flush.
    dirty: bool,
    /// Registered for `EPOLLOUT` (flush hit backpressure).
    want_out: bool,
}

struct RNode {
    core: NodeCore,
    dial_rng: Rng,
    listener: Option<TcpListener>,
    udp: Option<UdpSocket>,
    links: Vec<RLink>,
    /// Mid-restart: sockets closed, waiting for the `Resume` timer.
    down: bool,
    /// The deadline of the node's live `Node` entry. An entry filed
    /// earlier, when the node's next timer moved earlier, supersedes a
    /// later one, which then fires nothing.
    armed_at: Option<u64>,
}

/// An accepted connection whose 4-byte hello has not fully arrived.
struct Pending {
    stream: TcpStream,
    hello: [u8; 4],
    got: usize,
    node_local: usize,
}

/// Coordinator-to-worker requests, delivered via the wake eventfd.
enum Command {
    Restart { node_local: usize, pause: Duration },
}

// ---- the worker ----------------------------------------------------

struct Worker {
    /// Global index of `nodes[0]` (the slice is contiguous).
    base: usize,
    nodes: Vec<RNode>,
    ep: OwnedFd,
    timer: OwnedFd,
    wake_fd: RawFd,
    timers: Timers,
    registry: Vec<NodeAddrs>,
    shared: Arc<Shared>,
    /// Message counts of every node in the slice.
    counters: MessageCounters,
    start: Instant,
    commands: Arc<Mutex<VecDeque<Command>>>,
    pending: Vec<Option<Pending>>,
    free_pending: Vec<usize>,
    /// Links touched since the last batched flush.
    dirty: Vec<(usize, usize)>,
    fired: Vec<TimerToken>,
    /// What a node call encoded, until [`dispatch_sends`] drains it.
    sends: Vec<Outbound>,
    scratch: Vec<u8>,
}

/// Drains one edge-triggered stream to `EAGAIN` through a
/// [`FrameReader`], returning the complete bodies plus whether the
/// connection died or the stream is corrupt. The reader persists
/// across calls, so a frame split over multiple readiness cycles
/// reassembles exactly (unit-tested below).
pub(crate) fn drain_stream(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    scratch: &mut [u8],
) -> (Vec<Vec<u8>>, bool, bool) {
    let mut disconnected = false;
    let mut corrupt = false;
    loop {
        match stream.read(scratch) {
            Ok(0) => {
                disconnected = true;
                break;
            }
            Ok(n) => reader.extend(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                disconnected = true;
                break;
            }
        }
    }
    let mut bodies = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Some(body)) => bodies.push(body),
            Ok(None) => break,
            Err(_) => {
                corrupt = true;
                disconnected = true;
                break;
            }
        }
    }
    (bodies, disconnected, corrupt)
}

/// Routes one node's outbound batch, draining it: tree frames into the
/// link write buffers (marking them for the batched flush),
/// cross/out-of-band envelopes as UDP datagrams. Free function so
/// callers can hold the node and the worker-level dirty list at once.
fn dispatch_sends(
    node: &mut RNode,
    ni: usize,
    sends: &mut Vec<Outbound>,
    registry: &[NodeAddrs],
    dirty: &mut Vec<(usize, usize)>,
) {
    for send in sends.drain(..) {
        match send.channel {
            Channel::Tree => {
                let Some(li) = node.links.iter().position(|l| l.peer == send.to) else {
                    node.core.net.queue_drops += 1;
                    continue;
                };
                let link = &mut node.links[li];
                if !link.buf.push(&send.body) {
                    // Write-buffer backpressure: the link cannot drain
                    // as fast as the node produces; shed, do not grow.
                    node.core.net.queue_drops += 1;
                    continue;
                }
                if !link.dirty {
                    link.dirty = true;
                    dirty.push((ni, li));
                }
            }
            Channel::Cross | Channel::OutOfBand => {
                let Some(udp) = &node.udp else {
                    node.core.net.queue_drops += 1;
                    continue;
                };
                let mut datagram = Vec::with_capacity(4 + send.body.len());
                datagram.extend_from_slice(&node.core.id.value().to_le_bytes());
                datagram.extend_from_slice(&send.body);
                match udp.send_to(&datagram, registry[send.to.index()].udp) {
                    Ok(_) => {
                        node.core.net.datagrams_sent += 1;
                        node.core.net.bytes_sent += send.body.len() as u64;
                    }
                    Err(_) => {
                        node.core.net.queue_drops += 1;
                    }
                }
            }
        }
    }
}

/// Files node `ni`'s next protocol deadline, if its clock has one
/// left (rounds stop at the end of the drain) before its live entry:
/// after a timer, and after every frame, which can make a parked round
/// send.
fn arm_node(timers: &mut Timers, node: &mut RNode, ni: usize) {
    let Some((at, _)) = node.core.sim_node().next_timer() else {
        return;
    };
    let at = at.as_nanos();
    if node.armed_at.is_none_or(|armed| at < armed) {
        timers.insert(at, TimerToken::Node(ni));
        node.armed_at = Some(at);
    }
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    fn new(
        base: usize,
        boots: Vec<BootNode>,
        registry: Vec<NodeAddrs>,
        shared: Arc<Shared>,
        start: Instant,
        commands: Arc<Mutex<VecDeque<Command>>>,
        wake_fd: RawFd,
        queue_capacity: usize,
    ) -> std::io::Result<Worker> {
        let ep = epoll_create()?;
        let timer = timerfd_create()?;
        epoll_add(ep.raw(), timer.raw(), EPOLLIN, token(KIND_TIMER, 0, 0))?;
        epoll_add(ep.raw(), wake_fd, EPOLLIN, token(KIND_WAKE, 0, 0))?;
        let mut nodes = Vec::with_capacity(boots.len());
        for (ni, boot) in boots.into_iter().enumerate() {
            boot.listener.set_nonblocking(true)?;
            boot.udp.set_nonblocking(true)?;
            epoll_add(
                ep.raw(),
                boot.listener.as_raw_fd(),
                EPOLLIN | EPOLLET,
                token(KIND_LISTENER, ni, 0),
            )?;
            epoll_add(
                ep.raw(),
                boot.udp.as_raw_fd(),
                EPOLLIN | EPOLLET,
                token(KIND_UDP, ni, 0),
            )?;
            let id = boot.core.id;
            let links = boot
                .core
                .neighbors()
                .iter()
                .map(|&peer| RLink {
                    peer,
                    dialer: LinkId::new(id, peer).dialer() == id,
                    state: LinkState::Down,
                    backoff: BACKOFF_START,
                    attempts_this_session: 0,
                    buf: LinkBuf::new(queue_capacity),
                    dirty: false,
                    want_out: false,
                })
                .collect();
            nodes.push(RNode {
                core: boot.core,
                dial_rng: boot.dial_rng,
                listener: Some(boot.listener),
                udp: Some(boot.udp),
                links,
                down: false,
                armed_at: None,
            });
        }
        Ok(Worker {
            base,
            nodes,
            ep,
            timer,
            wake_fd,
            timers: Timers::default(),
            registry,
            counters: MessageCounters::new(shared.scenario.nodes),
            shared,
            start,
            commands,
            pending: Vec::new(),
            free_pending: Vec::new(),
            dirty: Vec::new(),
            fired: Vec::new(),
            sends: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
        })
    }

    fn ns_now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn run(mut self) -> (Vec<NodeCore>, MessageCounters) {
        let now = self.ns_now();
        for ni in 0..self.nodes.len() {
            let node = &mut self.nodes[ni];
            node.core.report_publish_done(&self.shared);
            // Plans the clock: rounds that would send nothing never
            // wake the worker.
            node.core
                .catch_up(SimTime::from_nanos(now), &self.shared, &mut self.counters);
            arm_node(&mut self.timers, node, ni);
            for li in 0..self.nodes[ni].links.len() {
                if self.nodes[ni].links[li].dialer {
                    self.timers
                        .insert(now, TimerToken::Dial { node: ni, link: li });
                }
            }
        }
        let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
        let mut batch: Vec<(u32, u64)> = Vec::with_capacity(EVENTS_PER_WAIT);
        loop {
            self.fire_timers();
            self.process_commands();
            if self.shared.stop_all.load(Ordering::Relaxed) {
                break;
            }
            self.flush_dirty();
            self.arm_timer();
            let n = epoll_wait(self.ep.raw(), &mut events, -1).expect("epoll_wait");
            batch.clear();
            for ev in &events[..n] {
                batch.push((ev.events, ev.data));
            }
            for &(evs, data) in &batch {
                self.handle_event(evs, data);
            }
            self.flush_dirty();
        }
        let cores = self.nodes.into_iter().map(|n| n.core).collect();
        (cores, self.counters)
    }

    // ---- timers --------------------------------------------------

    fn arm_timer(&self) {
        let delay = match self.timers.next_deadline() {
            Some(deadline) => Duration::from_nanos(deadline.saturating_sub(self.ns_now())),
            None => IDLE_ARM,
        };
        timerfd_arm(self.timer.raw(), delay).expect("timerfd_settime");
    }

    fn fire_timers(&mut self) {
        let now = self.ns_now();
        let mut fired = std::mem::take(&mut self.fired);
        // Drained in full before any is handled: a node behind its
        // schedule re-files itself as already due, and must wait for
        // the next pass — after the sockets — not be popped again here.
        self.timers.drain_due(now, &mut fired);
        for tok in fired.drain(..) {
            match tok {
                TimerToken::Node(ni) => self.fire_node_timer(ni),
                TimerToken::Dial { node, link } => self.try_dial(node, link),
                TimerToken::Resume(ni) => self.resume_node(ni),
            }
        }
        self.fired = fired;
    }

    fn fire_node_timer(&mut self, ni: usize) {
        let Worker {
            nodes,
            shared,
            counters,
            registry,
            dirty,
            timers,
            start,
            sends,
            ..
        } = self;
        let node = &mut nodes[ni];
        let now = start.elapsed().as_nanos() as u64;
        if node.armed_at.is_none_or(|armed| armed > now) {
            // Superseded by an earlier entry, which has fired.
            return;
        }
        node.armed_at = None;
        if node.down {
            // The Resume entry re-arms the node timer.
            return;
        }
        (node.core).tick_timers(SimTime::from_nanos(now), shared, counters, sends);
        dispatch_sends(node, ni, sends, registry, dirty);
        arm_node(timers, node, ni);
    }

    // ---- dialing -------------------------------------------------

    fn try_dial(&mut self, ni: usize, li: usize) {
        let node = &mut self.nodes[ni];
        if node.down {
            return;
        }
        let link = &mut node.links[li];
        if !link.dialer || !matches!(link.state, LinkState::Down) {
            return;
        }
        node.core.net.connect_attempts += 1;
        if link.attempts_this_session > 0 {
            node.core.net.connect_retries += 1;
        }
        link.attempts_this_session += 1;
        let addr = self.registry[link.peer.index()].tcp;
        match tcp_connect_start(addr) {
            Ok(stream) => {
                let tok = token(KIND_LINK, ni, li);
                if epoll_add(self.ep.raw(), stream.as_raw_fd(), EPOLLOUT, tok).is_ok() {
                    link.state = LinkState::Connecting(stream);
                } else {
                    self.schedule_redial(ni, li);
                }
            }
            Err(_) => self.schedule_redial(ni, li),
        }
    }

    fn schedule_redial(&mut self, ni: usize, li: usize) {
        let node = &mut self.nodes[ni];
        let link = &mut node.links[li];
        let wait = jittered_backoff(link.backoff, &mut node.dial_rng);
        link.backoff = (link.backoff * 2).min(BACKOFF_CAP);
        self.timers.insert(
            self.start.elapsed().as_nanos() as u64 + wait.as_nanos() as u64,
            TimerToken::Dial { node: ni, link: li },
        );
    }

    /// `EPOLLOUT` on a connecting socket: the connect finished, one
    /// way or the other.
    fn complete_connect(&mut self, ni: usize, li: usize) {
        let id = self.nodes[ni].core.id;
        let link = &mut self.nodes[ni].links[li];
        let LinkState::Connecting(mut stream) = std::mem::replace(&mut link.state, LinkState::Down)
        else {
            return;
        };
        let ep = self.ep.raw();
        let verdict = take_socket_error(stream.as_raw_fd())
            .and_then(|()| stream.write(&id.value().to_le_bytes()))
            .and_then(|n| {
                if n == 4 {
                    Ok(())
                } else {
                    Err(std::io::Error::new(ErrorKind::WriteZero, "short hello"))
                }
            })
            .and_then(|()| stream.set_nodelay(true))
            .and_then(|()| {
                epoll_mod(
                    ep,
                    stream.as_raw_fd(),
                    EPOLLIN | EPOLLRDHUP | EPOLLET,
                    token(KIND_LINK, ni, li),
                )
            });
        match verdict {
            Ok(()) => {
                link.state = LinkState::Up {
                    stream,
                    reader: FrameReader::new(),
                };
                link.backoff = BACKOFF_START;
                link.attempts_this_session = 0;
                link.buf.on_disconnect();
                if !link.buf.is_empty() {
                    self.mark_dirty(ni, li);
                }
                // Edge-triggered: drain anything that raced the MOD.
                self.read_link(ni, li);
            }
            Err(_) => {
                drop(stream);
                self.schedule_redial(ni, li);
            }
        }
    }

    fn mark_dirty(&mut self, ni: usize, li: usize) {
        let link = &mut self.nodes[ni].links[li];
        if !link.dirty {
            link.dirty = true;
            self.dirty.push((ni, li));
        }
    }

    fn link_down(&mut self, ni: usize, li: usize) {
        let link = &mut self.nodes[ni].links[li];
        link.state = LinkState::Down;
        link.want_out = false;
        link.buf.on_disconnect();
        if link.dialer {
            // Immediate redial; the peer may just have restarted.
            self.timers
                .insert(self.ns_now(), TimerToken::Dial { node: ni, link: li });
        }
    }

    // ---- event dispatch ------------------------------------------

    fn handle_event(&mut self, evs: u32, data: u64) {
        match token_kind(data) {
            KIND_TIMER => drain_counter(self.timer.raw()),
            KIND_WAKE => drain_counter(self.wake_fd),
            KIND_LISTENER => self.accept_ready(token_idx(data)),
            KIND_UDP => self.udp_ready(token_idx(data)),
            KIND_PENDING => self.pending_ready(token_idx(data)),
            KIND_LINK => self.link_ready(token_idx(data), token_aux(data), evs),
            _ => {}
        }
    }

    fn link_ready(&mut self, ni: usize, li: usize, evs: u32) {
        match self.nodes[ni].links[li].state {
            LinkState::Down => {}
            LinkState::Connecting(_) => {
                if evs & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                    self.complete_connect(ni, li);
                }
            }
            LinkState::Up { .. } => {
                if evs & EPOLLOUT != 0 {
                    self.flush_link(ni, li);
                }
                if evs & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                    self.read_link(ni, li);
                }
            }
        }
    }

    fn accept_ready(&mut self, ni: usize) {
        loop {
            let Some(listener) = &self.nodes[ni].listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.nodes[ni].core.net.accepted_conns += 1;
                    let slot = match self.free_pending.pop() {
                        Some(s) => s,
                        None => {
                            self.pending.push(None);
                            self.pending.len() - 1
                        }
                    };
                    let fd = stream.as_raw_fd();
                    self.pending[slot] = Some(Pending {
                        stream,
                        hello: [0; 4],
                        got: 0,
                        node_local: ni,
                    });
                    if epoll_add(
                        self.ep.raw(),
                        fd,
                        EPOLLIN | EPOLLET,
                        token(KIND_PENDING, slot, 0),
                    )
                    .is_err()
                    {
                        self.pending[slot] = None;
                        self.free_pending.push(slot);
                        continue;
                    }
                    // The hello may have raced the registration.
                    self.pending_ready(slot);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn pending_ready(&mut self, slot: usize) {
        let Some(pending) = self.pending.get_mut(slot).and_then(|p| p.as_mut()) else {
            return;
        };
        loop {
            let got = pending.got;
            match pending.stream.read(&mut pending.hello[got..]) {
                Ok(0) => {
                    self.pending[slot] = None;
                    self.free_pending.push(slot);
                    return;
                }
                Ok(n) => {
                    pending.got += n;
                    if pending.got == 4 {
                        let pending = self.pending[slot].take().expect("checked");
                        self.free_pending.push(slot);
                        self.attach(pending);
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.pending[slot] = None;
                    self.free_pending.push(slot);
                    return;
                }
            }
        }
    }

    /// Binds an accepted, hello-complete stream to its link (replacing
    /// any dead connection). Hellos from non-neighbors, or for a node
    /// that is mid-restart, are dropped.
    fn attach(&mut self, pending: Pending) {
        let ni = pending.node_local;
        let peer = NodeId::new(u32::from_le_bytes(pending.hello));
        if self.nodes[ni].down {
            return;
        }
        let Some(li) = self.nodes[ni].links.iter().position(|l| l.peer == peer) else {
            return;
        };
        let stream = pending.stream;
        let tok = token(KIND_LINK, ni, li);
        if epoll_mod(
            self.ep.raw(),
            stream.as_raw_fd(),
            EPOLLIN | EPOLLRDHUP | EPOLLET,
            tok,
        )
        .is_err()
        {
            return;
        }
        let link = &mut self.nodes[ni].links[li];
        link.state = LinkState::Up {
            stream,
            reader: FrameReader::new(),
        };
        link.want_out = false;
        link.buf.on_disconnect();
        if !link.buf.is_empty() {
            self.mark_dirty(ni, li);
        }
        // Frames may have followed the hello before the MOD landed.
        self.read_link(ni, li);
    }

    fn udp_ready(&mut self, ni: usize) {
        loop {
            let Worker {
                nodes,
                shared,
                counters,
                registry,
                dirty,
                scratch,
                start,
                timers,
                sends,
                ..
            } = self;
            let node = &mut nodes[ni];
            let Some(udp) = &node.udp else { return };
            match udp.recv_from(scratch) {
                Ok((n, _)) => {
                    // A datagram shorter than its sender prefix is
                    // undecodable.
                    let Some((prefix, body)) = scratch[..n].split_first_chunk::<4>() else {
                        node.core.net.decode_errors += 1;
                        continue;
                    };
                    let from = NodeId::new(u32::from_le_bytes(*prefix));
                    node.core.net.datagrams_received += 1;
                    node.core.net.bytes_received += body.len() as u64;
                    let now = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
                    (node.core).handle_body(
                        from,
                        Arrival::Datagram,
                        body,
                        now,
                        shared,
                        counters,
                        sends,
                    );
                    dispatch_sends(node, ni, sends, registry, dirty);
                    arm_node(timers, node, ni);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn read_link(&mut self, ni: usize, li: usize) {
        let Worker {
            nodes,
            shared,
            counters,
            registry,
            dirty,
            scratch,
            start,
            timers,
            sends,
            ..
        } = self;
        let node = &mut nodes[ni];
        let peer = node.links[li].peer;
        let LinkState::Up { stream, reader } = &mut node.links[li].state else {
            return;
        };
        let (bodies, disconnected, corrupt) = drain_stream(stream, reader, scratch);
        if corrupt {
            node.core.net.decode_errors += 1;
        }
        for body in bodies {
            node.core.net.frames_received += 1;
            node.core.net.bytes_received += body.len() as u64;
            let now = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
            (node.core).handle_body(peer, Arrival::Link, &body, now, shared, counters, sends);
            dispatch_sends(node, ni, sends, registry, dirty);
            arm_node(timers, node, ni);
        }
        if disconnected {
            self.link_down(ni, li);
        }
    }

    // ---- batched flush -------------------------------------------

    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for (ni, li) in dirty {
            self.nodes[ni].links[li].dirty = false;
            self.flush_link(ni, li);
        }
    }

    fn flush_link(&mut self, ni: usize, li: usize) {
        let link = &mut self.nodes[ni].links[li];
        let LinkState::Up { stream, .. } = &mut link.state else {
            return;
        };
        let fd = stream.as_raw_fd();
        let outcome = link.buf.flush(stream);
        self.nodes[ni].core.net.frames_sent += outcome.frames;
        self.nodes[ni].core.net.bytes_sent += outcome.bytes;
        let link = &mut self.nodes[ni].links[li];
        match outcome.status {
            FlushStatus::Clean => {
                if link.want_out {
                    link.want_out = false;
                    let _ = epoll_mod(
                        self.ep.raw(),
                        fd,
                        EPOLLIN | EPOLLRDHUP | EPOLLET,
                        token(KIND_LINK, ni, li),
                    );
                }
            }
            FlushStatus::Blocked => {
                if !link.want_out {
                    link.want_out = true;
                    let _ = epoll_mod(
                        self.ep.raw(),
                        fd,
                        EPOLLIN | EPOLLRDHUP | EPOLLOUT | EPOLLET,
                        token(KIND_LINK, ni, li),
                    );
                }
            }
            FlushStatus::Broken => self.link_down(ni, li),
        }
    }

    // ---- restart -------------------------------------------------

    fn process_commands(&mut self) {
        loop {
            let cmd = self.commands.lock().expect("commands mutex").pop_front();
            match cmd {
                Some(Command::Restart { node_local, pause }) => self.restart(node_local, pause),
                None => break,
            }
        }
    }

    /// Stops one node cold: sockets closed (peers see resets and fall
    /// into their dial-backoff machines), queued traffic discarded,
    /// protocol state kept. The `Resume` timer entry brings it back.
    fn restart(&mut self, ni: usize, pause: Duration) {
        let node = &mut self.nodes[ni];
        if node.down {
            return;
        }
        node.down = true;
        node.listener = None;
        node.udp = None;
        for link in &mut node.links {
            link.state = LinkState::Down;
            link.want_out = false;
            link.dirty = false;
            link.buf.clear();
            link.backoff = BACKOFF_START;
            link.attempts_this_session = 0;
        }
        self.dirty.retain(|&(n, _)| n != ni);
        for slot in 0..self.pending.len() {
            if self.pending[slot]
                .as_ref()
                .is_some_and(|p| p.node_local == ni)
            {
                self.pending[slot] = None;
                self.free_pending.push(slot);
            }
        }
        self.timers.insert(
            self.ns_now() + pause.as_nanos() as u64,
            TimerToken::Resume(ni),
        );
    }

    fn resume_node(&mut self, ni: usize) {
        let addrs = self.registry[self.base + ni];
        let listener = bind_with_retry(|| {
            let l = TcpListener::bind(addrs.tcp)?;
            l.set_nonblocking(true)?;
            Ok(l)
        })
        .expect("rebind tcp");
        let udp = bind_with_retry(|| {
            let u = UdpSocket::bind(addrs.udp)?;
            u.set_nonblocking(true)?;
            Ok(u)
        })
        .expect("rebind udp");
        epoll_add(
            self.ep.raw(),
            listener.as_raw_fd(),
            EPOLLIN | EPOLLET,
            token(KIND_LISTENER, ni, 0),
        )
        .expect("register listener");
        epoll_add(
            self.ep.raw(),
            udp.as_raw_fd(),
            EPOLLIN | EPOLLET,
            token(KIND_UDP, ni, 0),
        )
        .expect("register udp");
        let now = self.ns_now();
        let node = &mut self.nodes[ni];
        node.listener = Some(listener);
        node.udp = Some(udp);
        node.down = false;
        arm_node(&mut self.timers, node, ni);
        for li in 0..self.nodes[ni].links.len() {
            if self.nodes[ni].links[li].dialer {
                self.timers
                    .insert(now, TimerToken::Dial { node: ni, link: li });
            }
        }
    }
}

// ---- the cluster ---------------------------------------------------

struct WorkerHandle {
    handle: Option<JoinHandle<(Vec<NodeCore>, MessageCounters)>>,
    commands: Arc<Mutex<VecDeque<Command>>>,
    wake_fd: RawFd,
    base: usize,
    len: usize,
}

/// A running reactor cluster: the whole population multiplexed onto a
/// fixed pool of epoll worker threads.
pub struct ReactorCluster {
    drain: Duration,
    shared: Arc<Shared>,
    start: Instant,
    workers: Vec<WorkerHandle>,
    /// Wake eventfds stay owned here so a worker that exited early can
    /// never leave the coordinator signalling a recycled fd.
    _wakes: Vec<OwnedFd>,
    setup_subscription_msgs: u64,
}

impl ReactorCluster {
    /// Boots the full population and starts `workers` reactor threads,
    /// each owning a contiguous slice of nodes.
    pub fn launch(config: NetConfig, workers: usize) -> std::io::Result<ReactorCluster> {
        ReactorCluster::start(config, None, workers)
    }

    /// [`Self::launch`], or with `process = Some((index, registry))`
    /// the one-node slice `[index, index + 1)` of a multi-process
    /// cluster (see [`boot_population`]).
    fn start(
        config: NetConfig,
        process: Option<(usize, Vec<NodeAddrs>)>,
        workers: usize,
    ) -> std::io::Result<ReactorCluster> {
        let Boot {
            registry,
            mut base,
            nodes,
            setup_subscription_msgs,
            shared,
        } = boot_population(&config, process)?;
        let n = nodes.len();
        let workers = workers.clamp(1, n.max(1));
        let shared = Arc::new(shared);
        let start = Instant::now();
        let mut handles = Vec::with_capacity(workers);
        let mut wakes = Vec::with_capacity(workers);
        let mut boots = nodes.into_iter();
        for w in 0..workers {
            // Contiguous slices, remainder spread over the first few.
            let len = n / workers + usize::from(w < n % workers);
            let slice: Vec<_> = boots.by_ref().take(len).collect();
            let wake = eventfd_create()?;
            let commands = Arc::new(Mutex::new(VecDeque::new()));
            let worker = Worker::new(
                base,
                slice,
                registry.clone(),
                Arc::clone(&shared),
                start,
                Arc::clone(&commands),
                wake.raw(),
                config.queue_capacity,
            )?;
            let handle = std::thread::Builder::new()
                .name(format!("eps-reactor-{w}"))
                .spawn(move || worker.run())?;
            handles.push(WorkerHandle {
                handle: Some(handle),
                commands,
                wake_fd: wake.raw(),
                base,
                len,
            });
            wakes.push(wake);
            base += len;
        }
        Ok(ReactorCluster {
            drain: config.drain,
            shared,
            start,
            workers: handles,
            _wakes: wakes,
            setup_subscription_msgs,
        })
    }

    /// Asks the owning worker to stop node `index`, keep it down for
    /// `pause`, then rebind and resume it with protocol state intact.
    /// Asynchronous: the request is queued and the call returns
    /// immediately (the worker must keep serving its other nodes).
    pub fn restart_node(&mut self, index: usize, pause: Duration) -> std::io::Result<()> {
        let worker = self
            .workers
            .iter()
            .find(|w| (w.base..w.base + w.len).contains(&index))
            .expect("node index in range");
        worker
            .commands
            .lock()
            .expect("commands mutex")
            .push_back(Command::Restart {
                node_local: index - worker.base,
                pause,
            });
        eventfd_signal(worker.wake_fd)
    }

    /// Waits for the workload to finish and deliveries to converge
    /// (bounded by the drain budget), stops every worker, and
    /// assembles the report.
    pub fn finish(mut self) -> NetRunReport {
        wait_for_convergence(&self.shared, self.drain, self.start);
        self.shared.stop_all.store(true, Ordering::Relaxed);
        for worker in &self.workers {
            let _ = eventfd_signal(worker.wake_fd);
        }
        let mut cores = Vec::with_capacity(self.shared.scenario.nodes);
        let mut counters = MessageCounters::new(self.shared.scenario.nodes);
        for worker in &mut self.workers {
            let (slice, slice_counters) = worker
                .handle
                .take()
                .expect("worker is running")
                .join()
                .expect("reactor worker panicked");
            cores.extend(slice);
            counters.absorb(&slice_counters);
        }
        aggregate_cores(&self.shared, &cores, counters, self.setup_subscription_msgs)
    }
}

/// Launches a reactor cluster, lets it run to convergence, and
/// reports — the one-call entry point tests and the binaries use.
pub fn run_reactor_cluster(config: NetConfig, workers: usize) -> std::io::Result<NetRunReport> {
    Ok(ReactorCluster::launch(config, workers)?.finish())
}

/// Runs node `index` of a *multi-process* cluster in the current
/// process, binding the addresses `registry[index]` and dialing the
/// rest. Every process derives the identical population from the
/// shared seed; peers may start in any order (the dialers retry with
/// backoff until their acceptors come up).
///
/// Runs for the scenario duration plus the full drain budget — with
/// no shared memory there is no cross-process convergence signal, so
/// this process's one publisher never makes `finish` see the whole
/// population done — and reports this node's *local view*: its own
/// publishes and deliveries, its own counters. Cluster-wide delivery
/// rates require the single-process mode, where the coordinator sees
/// every sink.
pub fn run_process_node(
    config: &NetConfig,
    index: usize,
    registry: Vec<NodeAddrs>,
) -> std::io::Result<NetRunReport> {
    assert_eq!(
        registry.len(),
        config.scenario.nodes,
        "one address per dispatcher"
    );
    assert!(index < config.scenario.nodes, "node index out of range");
    Ok(ReactorCluster::start(config.clone(), Some((index, registry)), 1)?.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame;
    use std::net::TcpListener;

    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    /// The defect the hashed wheel had: a deadline earlier than the
    /// last one fired (a node behind its publish schedule) was filed
    /// behind the cursor and waited a whole revolution. It is due, so
    /// the very next drain must return it — ahead of later entries.
    #[test]
    fn a_deadline_before_the_last_fired_one_comes_out_of_the_next_drain() {
        let mut timers = Timers::default();
        timers.insert(5_000_000, TimerToken::Node(5));
        timers.insert(9_000_000, TimerToken::Node(9));
        timers.insert(20_000_000, TimerToken::Node(20));
        let mut out = Vec::new();
        timers.drain_due(9_000_000, &mut out);
        assert_eq!(out, vec![TimerToken::Node(5), TimerToken::Node(9)]);

        timers.insert(2_000_000, TimerToken::Node(2));
        assert_eq!(timers.next_deadline(), Some(9_000_000), "filed as due now");
        out.clear();
        timers.drain_due(9_000_000, &mut out);
        assert_eq!(out, vec![TimerToken::Node(2)]);
        assert_eq!(timers.next_deadline(), Some(20_000_000));
    }

    /// The satellite-4 partial-frame case: one frame arriving in
    /// pieces across readiness cycles (separate `drain_stream` calls
    /// with a persistent reader) reassembles exactly once.
    #[test]
    fn partial_frames_reassemble_across_readiness_cycles() {
        let (mut tx, mut rx) = stream_pair();
        rx.set_nonblocking(true).expect("nonblocking");
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let framed = frame(&body);
        let mut reader = FrameReader::new();
        let mut scratch = vec![0u8; 4096];

        // Cycle 1: the first half of the frame.
        tx.write_all(&framed[..300]).expect("first half");
        tx.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
        let (bodies, disconnected, corrupt) = drain_stream(&mut rx, &mut reader, &mut scratch);
        assert!(bodies.is_empty(), "half a frame must not decode");
        assert!(!disconnected && !corrupt);
        assert_eq!(reader.pending(), 300);

        // Cycle 2: the rest, plus a second complete frame.
        tx.write_all(&framed[300..]).expect("second half");
        tx.write_all(&frame(&[7, 8, 9])).expect("second frame");
        tx.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
        let (bodies, disconnected, _) = drain_stream(&mut rx, &mut reader, &mut scratch);
        assert_eq!(bodies, vec![body, vec![7, 8, 9]]);
        assert!(!disconnected);

        // Peer hangup is reported as a disconnect, not an error loop.
        drop(tx);
        std::thread::sleep(Duration::from_millis(20));
        let (bodies, disconnected, _) = drain_stream(&mut rx, &mut reader, &mut scratch);
        assert!(bodies.is_empty());
        assert!(disconnected);
    }

    /// The satellite-4 backpressure case: a bounded LinkBuf sheds
    /// frames at capacity (the caller counts `queue_drops`), reports
    /// `Blocked` against a full socket, and finishes the flush once
    /// the peer drains.
    #[test]
    fn write_buffer_backpressure_sheds_and_recovers() {
        let (mut tx, mut rx) = stream_pair();
        tx.set_nonblocking(true).expect("nonblocking");

        // Capacity bound: the fourth frame is shed.
        let mut small = LinkBuf::new(3);
        assert!(small.push(&[1]));
        assert!(small.push(&[2]));
        assert!(small.push(&[3]));
        assert!(!small.push(&[4]), "over-capacity push must be shed");
        assert_eq!(small.queued(), 3);

        // Socket backpressure: frames big enough to overrun the kernel
        // buffers while the peer reads nothing.
        let mut buf = LinkBuf::new(64);
        let body = vec![0xABu8; 256 * 1024];
        let mut pushed = 0;
        while pushed < 32 && buf.push(&body) {
            pushed += 1;
        }
        let first = buf.flush(&mut tx);
        assert_eq!(first.status, FlushStatus::Blocked, "kernel buffer filled");
        assert!(
            (first.frames as usize) < pushed,
            "some frames must still be queued"
        );
        assert!(!buf.is_empty());

        // Peer drains; the flush completes and every frame arrives
        // intact through the frame reader.
        let expected = pushed;
        let reader_thread = std::thread::spawn(move || {
            rx.set_nonblocking(false).expect("blocking reads");
            let mut reader = FrameReader::new();
            let mut scratch = vec![0u8; 64 * 1024];
            let mut got = 0;
            while got < expected {
                let n = rx.read(&mut scratch).expect("read");
                assert!(n > 0, "sender closed early");
                reader.extend(&scratch[..n]);
                while let Some(body) = reader.next_frame().expect("clean stream") {
                    assert_eq!(body.len(), 256 * 1024);
                    got += 1;
                }
            }
            got
        });
        let mut frames = first.frames;
        let deadline = Instant::now() + Duration::from_secs(10);
        while frames < pushed as u64 {
            assert!(Instant::now() < deadline, "flush never completed");
            match buf.flush(&mut tx) {
                FlushOutcome {
                    frames: f,
                    status: FlushStatus::Blocked,
                    ..
                } => {
                    frames += f;
                    std::thread::sleep(Duration::from_millis(2));
                }
                FlushOutcome {
                    frames: f,
                    status: FlushStatus::Clean,
                    ..
                } => {
                    frames += f;
                }
                FlushOutcome {
                    status: FlushStatus::Broken,
                    ..
                } => panic!("link broke"),
            }
        }
        assert_eq!(frames, pushed as u64);
        assert_eq!(reader_thread.join().expect("reader"), pushed);
        assert!(buf.is_empty());
    }

    /// A connection dying mid-frame rewinds the buffer to the frame
    /// boundary, so the replacement connection re-sends the whole
    /// frame.
    #[test]
    fn disconnect_rewinds_to_the_frame_boundary() {
        let mut buf = LinkBuf::new(8);
        assert!(buf.push(&[1, 2, 3]));
        assert!(buf.push(&[4, 5, 6]));
        // Simulate a partial write: the first frame (7 wire bytes) and
        // 2 bytes of the second went out before the connection died.
        buf.pos = 9;
        let end = *buf.ends.front().expect("frames queued");
        while buf.ends.front().is_some_and(|&e| e <= buf.pos) {
            buf.ends.pop_front();
            buf.front_start = end;
        }
        buf.on_disconnect();
        assert_eq!(buf.pos, 7, "rewound to the second frame's start");
        assert_eq!(buf.queued(), 1);
    }
}
