//! The binary wire codec for [`Envelope`]: what the sim *accounts*,
//! the net runtime *sends*.
//!
//! Every envelope encodes to exactly
//! [`Envelope::wire_bits`]`(payload_bits) / 8` bytes, so the
//! simulator's byte accounting and the bytes a socket carries can
//! never drift: the codec pads short content with zeros up to the
//! accounted size and refuses ([`CodecError::Overflow`]) content that
//! exceeds it. The overflow case is not an implementation limit — it
//! is the paper's own modelling assumption ("gossip messages have at
//! most the same size as event messages") made enforceable: a digest
//! that does not fit in one event payload must be trimmed
//! ([`fit`]) before it can be sent.
//!
//! # Body format (version 1)
//!
//! All bodies start with a one-byte version and a one-byte type tag.
//! Multi-byte integers are LEB128 varints unless stated; route hops
//! are fixed 4-byte little-endian node ids (one hop =
//! [`eps_pubsub::ROUTE_HOP_BITS`] on the wire) and the event ids in a `Request`
//! are fixed 12-byte (source `u32`, seq `u64`) pairs (one id =
//! [`EVENT_ID_BITS`]). Zero padding extends each body to its
//! accounted size; decoding verifies the padding is zero, so
//! `encode(decode(bytes)) == bytes` for every valid encoding.
//!
//! | type | envelope                | content after the 2-byte header            | padded to (bytes) |
//! |------|-------------------------|--------------------------------------------|-------------------|
//! | 1    | `PubSub(Subscribe)`     | pattern                                    | 32                |
//! | 2    | `PubSub(Unsubscribe)`   | pattern                                    | 32                |
//! | 3    | `PubSub(Event)`         | event body (below)                         | P/8 + 4·hops      |
//! | 4    | `Gossip(PushDigest)`    | gossiper, pattern, n, n × (source, seq)    | P/8               |
//! | 5    | `Gossip(PullDigest)`    | gossiper, pattern, n, n × loss record      | P/8               |
//! | 6    | `Gossip(SourcePull)`    | gossiper, source, n, n × loss record, route| P/8 + 4·hops      |
//! | 7    | `Gossip(RandomPull)`    | gossiper, ttl, n, n × loss record          | P/8               |
//! | 8    | `Request`               | n, n × fixed event id                      | 32 + 12·n         |
//! | 9    | `Reply`                 | n, n × event body                          | Σ sizes, min 32   |
//! | 10   | `CrossEvent`            | event body (below)                         | P/8 + 4·hops      |
//! | 11   | `Gossip(SummaryDigest)` | gossiper, pattern, n, n × range summary, m, m × range detail | 32 + 21·n + Σ(9 + 12·ids) |
//! | 12   | `RangeRequest`          | pattern, n, n × range ref                  | 32 + 5·n          |
//!
//! A *range summary* is fixed-width: level `u8`, index `u32` LE, count
//! `u64` LE, hash `u64` LE — 21 bytes = [`SUMMARY_RANGE_BITS`]. A
//! *range detail* is a fixed 9-byte header (level `u8`, index `u32`
//! LE, id count `u32` LE = [`SUMMARY_DETAIL_BITS`]) followed by fixed
//! 12-byte event ids (as in a `Request`). A *range ref* is level `u8`
//! plus index `u32` LE — 5 bytes = [`RANGE_REF_BITS`]. Summary
//! digests are the one gossip kind accounted exactly rather than at
//! the flat event-payload rate, so they can never overflow and
//! [`fit`] always leaves them alone.
//!
//! An *event body* is: seq, route length, route hops (fixed u32),
//! pattern count, then (pattern, per-pattern seq) pairs. The source
//! is not stored separately — a recorded route always starts at the
//! source. A *loss record* is (source, pattern, seq), all varints.
//!
//! Framing is a transport concern and is **not** part of the
//! accounted size: the TCP tree links prefix each body with a 4-byte
//! little-endian length, and the UDP out-of-band channel prefixes the
//! 4-byte sender id (see `eps-net`). The paper's accounting has no
//! per-message transport header either, so the equivalence rule is:
//! accounted bytes = body bytes; framing rides on top on both sides.

use std::sync::Arc;

use eps_overlay::NodeId;
use eps_pubsub::summary::{FANOUT_BITS, LEAF_LEVEL};
use eps_pubsub::{
    Event, EventId, LossRecord, PatternId, PubSubMessage, RangeDetail, RangeRef, RangeSummary,
    ROUTE_HOP_BITS,
};

use crate::envelope::Envelope;
use crate::message::GossipMessage;

/// Codec version byte leading every body.
pub const WIRE_VERSION: u8 = 1;

/// Wire size of a fixed-size control message (subscribe, unsubscribe,
/// and the header floor of requests and replies), in bits. The
/// paper's accounting assumes 256; the codec pads control bodies to
/// exactly this size.
pub const CONTROL_BITS: u64 = 256;

/// Wire size of one event identifier in a `Request`, in bits: a
/// 32-bit source plus a 64-bit sequence number, encoded fixed-width.
pub const EVENT_ID_BITS: u64 = 96;

/// Wire size of one hash-tree range aggregate in a summary digest, in
/// bits: level (8) + index (32) + count (64) + XOR hash (64),
/// fixed-width.
pub const SUMMARY_RANGE_BITS: u64 = 168;

/// Wire size of one expanded-range header in a summary digest, in
/// bits: level (8) + index (32) + id count (32), fixed-width; the ids
/// themselves follow at [`EVENT_ID_BITS`] each.
pub const SUMMARY_DETAIL_BITS: u64 = 72;

/// Wire size of one range reference in a `RangeRequest`, in bits:
/// level (8) + index (32), fixed-width.
pub const RANGE_REF_BITS: u64 = 40;

/// A decoding or encoding failure. Encoding fails only on content
/// that exceeds its accounted size ([`CodecError::Overflow`]) or an
/// unusable payload configuration; every other variant is a decode
/// error describing why the bytes are not a valid envelope.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The configured event payload is not a whole number of bytes.
    UnalignedPayload(u64),
    /// Packed content exceeds the accounted envelope size.
    Overflow {
        /// Bytes the content needs.
        needed: usize,
        /// Bytes the accounting allows.
        budget: usize,
    },
    /// The buffer ended before the content did.
    Truncated,
    /// Unknown codec version byte.
    BadVersion(u8),
    /// Unknown envelope type byte.
    BadType(u8),
    /// Structurally invalid content (the reason names the field).
    Malformed(&'static str),
    /// The buffer length does not equal the envelope's accounted size.
    BadLength {
        /// Accounted size of the decoded envelope.
        expected: usize,
        /// Actual buffer length.
        got: usize,
    },
    /// Padding bytes after the content were not zero.
    DirtyPadding,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CodecError::UnalignedPayload(bits) => {
                write!(f, "event payload of {bits} bits is not byte-aligned")
            }
            CodecError::Overflow { needed, budget } => {
                write!(
                    f,
                    "content needs {needed} bytes, accounting allows {budget}"
                )
            }
            CodecError::Truncated => write!(f, "buffer ended before the content"),
            CodecError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            CodecError::BadType(t) => write!(f, "unknown envelope type {t}"),
            CodecError::Malformed(what) => write!(f, "malformed content: {what}"),
            CodecError::BadLength { expected, got } => {
                write!(f, "body is {got} bytes, accounting says {expected}")
            }
            CodecError::DirtyPadding => write!(f, "nonzero padding"),
        }
    }
}

impl std::error::Error for CodecError {}

const T_SUBSCRIBE: u8 = 1;
const T_UNSUBSCRIBE: u8 = 2;
const T_EVENT: u8 = 3;
const T_PUSH: u8 = 4;
const T_PULL: u8 = 5;
const T_SOURCE_PULL: u8 = 6;
const T_RANDOM_PULL: u8 = 7;
const T_REQUEST: u8 = 8;
const T_REPLY: u8 = 9;
const T_CROSS_EVENT: u8 = 10;
const T_SUMMARY: u8 = 11;
const T_RANGE_REQUEST: u8 = 12;

/// Upper bound on decoded list lengths (routes, digests, replies):
/// rejects garbage that would otherwise ask for absurd allocations.
const MAX_LIST: u64 = 1 << 20;

/// Fewest bits an event body can take: one-byte seq, route length and
/// pattern count, one hop, one (pattern, seq) pair.
const EVENT_BODY_MIN_BITS: u64 = 3 * 8 + ROUTE_HOP_BITS + 2 * 8;

/// The exact encoded size of `env` in bytes — by construction equal
/// to [`Envelope::wire_bits`]` / 8` — or
/// [`CodecError::UnalignedPayload`] if `payload_bits` is not a
/// multiple of 8 (every accounted constant already is).
fn encoded_len(env: &Envelope, payload_bits: u64) -> Result<usize, CodecError> {
    if payload_bits == 0 || !payload_bits.is_multiple_of(8) {
        return Err(CodecError::UnalignedPayload(payload_bits));
    }
    Ok((env.wire_bits(payload_bits) / 8) as usize)
}

/// Encodes `env` into a fresh buffer of exactly
/// [`Envelope::wire_bits`]` / 8` bytes, zero-padding up to the
/// accounted size.
///
/// # Errors
///
/// [`CodecError::Overflow`] when the packed content exceeds the
/// accounted size — for gossip digests this means the digest breaks
/// the paper's one-event-payload bound and must be trimmed with
/// [`fit`] first; [`CodecError::UnalignedPayload`] on a payload size
/// that is not a whole number of bytes.
pub fn encode(env: &Envelope, payload_bits: u64) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_into(env, payload_bits, &mut out)?;
    Ok(out)
}

/// [`encode`] into `out` (cleared first), so [`fit`]'s retries reuse
/// one buffer.
fn encode_into(env: &Envelope, payload_bits: u64, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let target = encoded_len(env, payload_bits)?;
    out.clear();
    out.push(WIRE_VERSION);
    match env {
        Envelope::PubSub(PubSubMessage::Subscribe(p)) => {
            out.push(T_SUBSCRIBE);
            put_varint(out, u64::from(p.value()));
        }
        Envelope::PubSub(PubSubMessage::Unsubscribe(p)) => {
            out.push(T_UNSUBSCRIBE);
            put_varint(out, u64::from(p.value()));
        }
        Envelope::PubSub(PubSubMessage::Event(event)) => {
            out.push(T_EVENT);
            put_event_body(out, event);
        }
        Envelope::CrossEvent(event) => {
            out.push(T_CROSS_EVENT);
            put_event_body(out, event);
        }
        Envelope::Gossip(GossipMessage::PushDigest {
            gossiper,
            pattern,
            ids,
        }) => {
            out.push(T_PUSH);
            put_varint(out, u64::from(gossiper.value()));
            put_varint(out, u64::from(pattern.value()));
            put_varint(out, ids.len() as u64);
            for id in ids.iter() {
                put_varint(out, u64::from(id.source().value()));
                put_varint(out, id.seq());
            }
        }
        Envelope::Gossip(GossipMessage::PullDigest {
            gossiper,
            pattern,
            lost,
        }) => {
            out.push(T_PULL);
            put_varint(out, u64::from(gossiper.value()));
            put_varint(out, u64::from(pattern.value()));
            put_losses(out, lost);
        }
        Envelope::Gossip(GossipMessage::SourcePull {
            gossiper,
            source,
            lost,
            route,
        }) => {
            out.push(T_SOURCE_PULL);
            put_varint(out, u64::from(gossiper.value()));
            put_varint(out, u64::from(source.value()));
            put_losses(out, lost);
            put_varint(out, route.len() as u64);
            for hop in route {
                out.extend_from_slice(&hop.value().to_le_bytes());
            }
        }
        Envelope::Gossip(GossipMessage::RandomPull {
            gossiper,
            lost,
            ttl,
        }) => {
            out.push(T_RANDOM_PULL);
            put_varint(out, u64::from(gossiper.value()));
            put_varint(out, u64::from(*ttl));
            put_losses(out, lost);
        }
        Envelope::Request(ids) => {
            out.push(T_REQUEST);
            put_varint(out, ids.len() as u64);
            for id in ids {
                out.extend_from_slice(&id.source().value().to_le_bytes());
                out.extend_from_slice(&id.seq().to_le_bytes());
            }
        }
        Envelope::Reply(events) => {
            out.push(T_REPLY);
            put_varint(out, events.len() as u64);
            for event in events {
                put_event_body(out, event);
            }
        }
        Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper,
            pattern,
            ranges,
            details,
        }) => {
            out.push(T_SUMMARY);
            put_varint(out, u64::from(gossiper.value()));
            put_varint(out, u64::from(pattern.value()));
            put_varint(out, ranges.len() as u64);
            for r in ranges.iter() {
                put_range_ref(out, r.range);
                out.extend_from_slice(&r.count.to_le_bytes());
                out.extend_from_slice(&r.hash.to_le_bytes());
            }
            put_varint(out, details.len() as u64);
            for d in details.iter() {
                put_range_ref(out, d.range);
                out.extend_from_slice(&(d.ids.len() as u32).to_le_bytes());
                for id in &d.ids {
                    out.extend_from_slice(&id.source().value().to_le_bytes());
                    out.extend_from_slice(&id.seq().to_le_bytes());
                }
            }
        }
        Envelope::RangeRequest { pattern, ranges } => {
            out.push(T_RANGE_REQUEST);
            put_varint(out, u64::from(pattern.value()));
            put_varint(out, ranges.len() as u64);
            for &r in ranges {
                put_range_ref(out, r);
            }
        }
    }
    if out.len() > target {
        return Err(CodecError::Overflow {
            needed: out.len(),
            budget: target,
        });
    }
    out.resize(target, 0);
    Ok(())
}

/// Decodes one envelope body (no framing) encoded with the same
/// `payload_bits`.
///
/// # Errors
///
/// Any [`CodecError`] decode variant: wrong version or type, content
/// running past the buffer, structurally invalid fields, a buffer
/// length that disagrees with the decoded envelope's accounted size,
/// or nonzero padding.
pub fn decode(buf: &[u8], payload_bits: u64) -> Result<Envelope, CodecError> {
    if payload_bits == 0 || !payload_bits.is_multiple_of(8) {
        return Err(CodecError::UnalignedPayload(payload_bits));
    }
    let mut cur = Cursor { buf, pos: 0 };
    let version = cur.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let tag = cur.u8()?;
    let env = match tag {
        T_SUBSCRIBE => Envelope::PubSub(PubSubMessage::Subscribe(cur.pattern()?)),
        T_UNSUBSCRIBE => Envelope::PubSub(PubSubMessage::Unsubscribe(cur.pattern()?)),
        T_EVENT => Envelope::PubSub(PubSubMessage::Event(cur.event_body()?)),
        T_CROSS_EVENT => Envelope::CrossEvent(cur.event_body()?),
        T_PUSH => {
            let gossiper = cur.node()?;
            let pattern = cur.pattern()?;
            let n = cur.list_len()?;
            // Two varints: at least two bytes per id.
            let mut ids = Vec::with_capacity(cur.capacity(n, 16));
            for _ in 0..n {
                let source = cur.node()?;
                let seq = cur.varint()?;
                ids.push(event_id(source, seq)?);
            }
            Envelope::Gossip(GossipMessage::PushDigest {
                gossiper,
                pattern,
                ids: Arc::new(ids),
            })
        }
        T_PULL => {
            let gossiper = cur.node()?;
            let pattern = cur.pattern()?;
            let lost = cur.losses()?;
            Envelope::Gossip(GossipMessage::PullDigest {
                gossiper,
                pattern,
                lost,
            })
        }
        T_SOURCE_PULL => {
            let gossiper = cur.node()?;
            let source = cur.node()?;
            let lost = cur.losses()?;
            let hops = cur.list_len()?;
            let mut route = Vec::with_capacity(cur.capacity(hops, ROUTE_HOP_BITS));
            for _ in 0..hops {
                route.push(NodeId::new(cur.u32_le()?));
            }
            Envelope::Gossip(GossipMessage::SourcePull {
                gossiper,
                source,
                lost,
                route,
            })
        }
        T_RANDOM_PULL => {
            let gossiper = cur.node()?;
            let ttl = cur.varint()?;
            if ttl > u64::from(u32::MAX) {
                return Err(CodecError::Malformed("ttl exceeds u32"));
            }
            let lost = cur.losses()?;
            Envelope::Gossip(GossipMessage::RandomPull {
                gossiper,
                lost,
                ttl: ttl as u32,
            })
        }
        T_REQUEST => {
            let n = cur.list_len()?;
            let mut ids = Vec::with_capacity(cur.capacity(n, EVENT_ID_BITS));
            for _ in 0..n {
                let source = NodeId::new(cur.u32_le()?);
                let seq = cur.u64_le()?;
                ids.push(event_id(source, seq)?);
            }
            Envelope::Request(ids)
        }
        T_REPLY => {
            let n = cur.list_len()?;
            let mut events = Vec::with_capacity(cur.capacity(n, EVENT_BODY_MIN_BITS));
            for _ in 0..n {
                events.push(cur.event_body()?);
            }
            Envelope::Reply(events)
        }
        T_SUMMARY => {
            let gossiper = cur.node()?;
            let pattern = cur.pattern()?;
            let nranges = cur.list_len()?;
            let mut ranges = Vec::with_capacity(cur.capacity(nranges, SUMMARY_RANGE_BITS));
            for _ in 0..nranges {
                let range = cur.range_ref()?;
                let count = cur.u64_le()?;
                let hash = cur.u64_le()?;
                ranges.push(RangeSummary { range, count, hash });
            }
            let ndetails = cur.list_len()?;
            let mut details = Vec::with_capacity(cur.capacity(ndetails, SUMMARY_DETAIL_BITS));
            for _ in 0..ndetails {
                let range = cur.range_ref()?;
                let nids = cur.u32_le()?;
                if u64::from(nids) > MAX_LIST {
                    return Err(CodecError::Malformed("list length is implausible"));
                }
                let mut ids = Vec::with_capacity(cur.capacity(nids as usize, EVENT_ID_BITS));
                for _ in 0..nids {
                    let source = NodeId::new(cur.u32_le()?);
                    let seq = cur.u64_le()?;
                    ids.push(event_id(source, seq)?);
                }
                details.push(RangeDetail { range, ids });
            }
            Envelope::Gossip(GossipMessage::SummaryDigest {
                gossiper,
                pattern,
                ranges: Arc::new(ranges),
                details: Arc::new(details),
            })
        }
        T_RANGE_REQUEST => {
            let pattern = cur.pattern()?;
            let n = cur.list_len()?;
            let mut ranges = Vec::with_capacity(cur.capacity(n, RANGE_REF_BITS));
            for _ in 0..n {
                ranges.push(cur.range_ref()?);
            }
            Envelope::RangeRequest { pattern, ranges }
        }
        other => return Err(CodecError::BadType(other)),
    };
    let expected = (env.wire_bits(payload_bits) / 8) as usize;
    if buf.len() != expected {
        return Err(CodecError::BadLength {
            expected,
            got: buf.len(),
        });
    }
    if !cur.rest_is_zero() {
        return Err(CodecError::DirtyPadding);
    }
    Ok(env)
}

/// Trims a gossip digest down to the paper's one-event-payload bound
/// so it encodes without [`CodecError::Overflow`], returning the
/// envelope and how many digest entries were dropped. Non-digest
/// envelopes (and digests that already fit) come back unchanged with
/// zero drops.
///
/// Push digests list the cache oldest-first, and every round
/// re-announces the whole cache — so trimming drops the *front*
/// (oldest) entries, which earlier, smaller digests already carried.
/// Trimming the tail instead would permanently hide the newest events
/// from a full digest, a structural blind spot. Pull digests trim the
/// tail: their oldest entries are the longest-outstanding losses, the
/// ones that most need announcing.
pub fn fit(mut env: Envelope, payload_bits: u64) -> (Envelope, u64) {
    let mut dropped = 0u64;
    let mut scratch = Vec::new();
    loop {
        match encode_into(&env, payload_bits, &mut scratch) {
            Err(CodecError::Overflow { .. }) => match &mut env {
                Envelope::Gossip(GossipMessage::PushDigest { ids, .. }) if !ids.is_empty() => {
                    Arc::make_mut(ids).remove(0);
                    dropped += 1;
                }
                Envelope::Gossip(
                    GossipMessage::PullDigest { lost, .. }
                    | GossipMessage::SourcePull { lost, .. }
                    | GossipMessage::RandomPull { lost, .. },
                ) if !lost.is_empty() => {
                    lost.pop();
                    dropped += 1;
                }
                _ => return (env, dropped),
            },
            _ => return (env, dropped),
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_event_body(out: &mut Vec<u8>, event: &Event) {
    put_varint(out, event.id().seq());
    put_varint(out, event.route().len() as u64);
    for hop in event.route() {
        out.extend_from_slice(&hop.value().to_le_bytes());
    }
    put_varint(out, event.pattern_seqs().len() as u64);
    for &(pattern, seq) in event.pattern_seqs() {
        put_varint(out, u64::from(pattern.value()));
        put_varint(out, seq);
    }
}

fn put_range_ref(out: &mut Vec<u8>, range: RangeRef) {
    out.push(range.level());
    out.extend_from_slice(&range.index().to_le_bytes());
}

fn put_losses(out: &mut Vec<u8>, lost: &[LossRecord]) {
    put_varint(out, lost.len() as u64);
    for rec in lost {
        put_varint(out, u64::from(rec.source.value()));
        put_varint(out, u64::from(rec.pattern.value()));
        put_varint(out, rec.seq);
    }
}

/// The id of `source`'s event `seq`, if a dispatcher can mark it seen
/// (seq at most [`EventId::MAX_SEQ`]).
fn event_id(source: NodeId, seq: u64) -> Result<EventId, CodecError> {
    if seq > EventId::MAX_SEQ {
        return Err(CodecError::Malformed("event seq exceeds EventId::MAX_SEQ"));
    }
    Ok(EventId::new(source, seq))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let byte = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::Malformed("varint exceeds 64 bits"))
    }

    fn u32_le(&mut self) -> Result<u32, CodecError> {
        let end = self.pos.checked_add(4).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64_le(&mut self) -> Result<u64, CodecError> {
        let end = self.pos.checked_add(8).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn node(&mut self) -> Result<NodeId, CodecError> {
        let raw = self.varint()?;
        if raw > u64::from(u32::MAX) {
            return Err(CodecError::Malformed("node id exceeds u32"));
        }
        Ok(NodeId::new(raw as u32))
    }

    fn pattern(&mut self) -> Result<PatternId, CodecError> {
        let raw = self.varint()?;
        if raw > u64::from(u16::MAX) {
            return Err(CodecError::Malformed("pattern id exceeds u16"));
        }
        Ok(PatternId::new(raw as u16))
    }

    /// The capacity a list of `n` claimed items, each at least
    /// `item_bits` long on the wire, may reserve: no more items than
    /// the rest of the buffer can hold. A damaged count then costs at
    /// most a few bytes of allocation per input byte; the decode loop
    /// still fails with [`CodecError::Truncated`] where the items run
    /// out.
    fn capacity(&self, n: usize, item_bits: u64) -> usize {
        let fit = (self.buf.len() - self.pos) as u64 * 8 / item_bits;
        n.min(fit as usize)
    }

    fn list_len(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > MAX_LIST {
            return Err(CodecError::Malformed("list length is implausible"));
        }
        Ok(n as usize)
    }

    fn range_ref(&mut self) -> Result<RangeRef, CodecError> {
        let level = self.u8()?;
        let index = self.u32_le()?;
        if level > LEAF_LEVEL {
            return Err(CodecError::Malformed("range level too deep"));
        }
        if u64::from(index) >= 1u64 << (FANOUT_BITS * u32::from(level)) {
            return Err(CodecError::Malformed("range index out of range for level"));
        }
        Ok(RangeRef::new(level, index))
    }

    fn losses(&mut self) -> Result<Vec<LossRecord>, CodecError> {
        let n = self.list_len()?;
        // Three varints: at least three bytes per record.
        let mut lost = Vec::with_capacity(self.capacity(n, 24));
        for _ in 0..n {
            let source = self.node()?;
            let pattern = self.pattern()?;
            let seq = self.varint()?;
            lost.push(LossRecord {
                source,
                pattern,
                seq,
            });
        }
        Ok(lost)
    }

    fn event_body(&mut self) -> Result<Event, CodecError> {
        let seq = self.varint()?;
        let hops = self.list_len()?;
        if hops == 0 {
            return Err(CodecError::Malformed("event route is empty"));
        }
        // A one-hop route is the id's source, which the event holds
        // without allocating: only a longer route is collected.
        let source = NodeId::new(self.u32_le()?);
        let mut route = Vec::new();
        if hops > 1 {
            route.reserve_exact(1 + self.capacity(hops - 1, ROUTE_HOP_BITS));
            route.push(source);
            for _ in 1..hops {
                route.push(NodeId::new(self.u32_le()?));
            }
        }
        let npat = self.list_len()?;
        if npat == 0 {
            return Err(CodecError::Malformed("event matches no pattern"));
        }
        let mut pattern_seqs = Vec::with_capacity(self.capacity(npat, 16));
        for _ in 0..npat {
            let pattern = self.pattern()?;
            let pseq = self.varint()?;
            if let Some(&(prev, _)) = pattern_seqs.last() {
                if prev >= pattern {
                    return Err(CodecError::Malformed("event patterns not strictly sorted"));
                }
            }
            pattern_seqs.push((pattern, pseq));
        }
        let id = event_id(source, seq)?;
        Ok(if route.is_empty() {
            Event::new(id, pattern_seqs)
        } else {
            Event::from_wire(id, pattern_seqs, route)
        })
    }

    fn rest_is_zero(&self) -> bool {
        self.buf[self.pos..].iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use std::iter;

    use eps_sim::check::forall;
    use eps_sim::Rng;

    use super::*;

    const P: u64 = 1024;

    fn event(hops: u32, patterns: u16) -> Event {
        let source = NodeId::new(3);
        Event::from_wire(
            EventId::new(source, 41),
            (0..patterns)
                .map(|p| (PatternId::new(p * 2), u64::from(p) + 7))
                .collect(),
            iter::once(source)
                .chain((0..hops).map(|h| NodeId::new(100 + h)))
                .collect(),
        )
    }

    fn losses(n: u64) -> Vec<LossRecord> {
        (0..n)
            .map(|i| LossRecord {
                source: NodeId::new((i % 5) as u32),
                pattern: PatternId::new((i % 7) as u16),
                seq: 1000 + i,
            })
            .collect()
    }

    fn battery() -> Vec<Envelope> {
        vec![
            Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(0))),
            Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(u16::MAX))),
            Envelope::PubSub(PubSubMessage::Unsubscribe(PatternId::new(69))),
            Envelope::PubSub(PubSubMessage::Event(event(0, 1))),
            Envelope::PubSub(PubSubMessage::Event(event(9, 3))),
            Envelope::CrossEvent(event(0, 1)),
            Envelope::CrossEvent(event(4, 2)),
            Envelope::Gossip(GossipMessage::PushDigest {
                gossiper: NodeId::new(1),
                pattern: PatternId::new(4),
                ids: Arc::new(vec![]),
            }),
            Envelope::Gossip(GossipMessage::PushDigest {
                gossiper: NodeId::new(1),
                pattern: PatternId::new(4),
                ids: Arc::new(
                    (0..20)
                        .map(|i| EventId::new(NodeId::new(i), 50 + u64::from(i)))
                        .collect(),
                ),
            }),
            Envelope::Gossip(GossipMessage::PullDigest {
                gossiper: NodeId::new(2),
                pattern: PatternId::new(5),
                lost: losses(12),
            }),
            Envelope::Gossip(GossipMessage::SourcePull {
                gossiper: NodeId::new(2),
                source: NodeId::new(9),
                lost: losses(6),
                route: (0..4).map(NodeId::new).collect(),
            }),
            Envelope::Gossip(GossipMessage::SourcePull {
                gossiper: NodeId::new(2),
                source: NodeId::new(9),
                lost: vec![],
                route: vec![],
            }),
            Envelope::Gossip(GossipMessage::RandomPull {
                gossiper: NodeId::new(3),
                lost: losses(3),
                ttl: 8,
            }),
            Envelope::Request(vec![]),
            Envelope::Request(vec![EventId::new(NodeId::new(7), EventId::MAX_SEQ)]),
            Envelope::Reply(vec![]),
            Envelope::Reply(vec![event(0, 1), event(5, 2)]),
            Envelope::Gossip(GossipMessage::SummaryDigest {
                gossiper: NodeId::new(4),
                pattern: PatternId::new(6),
                ranges: Arc::new(vec![]),
                details: Arc::new(vec![]),
            }),
            Envelope::Gossip(GossipMessage::SummaryDigest {
                gossiper: NodeId::new(4),
                pattern: PatternId::new(6),
                ranges: Arc::new(vec![
                    RangeSummary {
                        range: RangeRef::ROOT,
                        count: 42,
                        hash: 0xdead_beef_cafe_f00d,
                    },
                    RangeSummary {
                        range: RangeRef::new(3, 0xabc),
                        count: 7,
                        hash: u64::MAX,
                    },
                ]),
                details: Arc::new(vec![
                    RangeDetail {
                        range: RangeRef::new(LEAF_LEVEL, 0xfffff),
                        ids: (0..5)
                            .map(|i| EventId::new(NodeId::new(i), 900 + u64::from(i)))
                            .collect(),
                    },
                    RangeDetail {
                        range: RangeRef::new(2, 0),
                        ids: vec![],
                    },
                ]),
            }),
            Envelope::RangeRequest {
                pattern: PatternId::new(6),
                ranges: vec![],
            },
            Envelope::RangeRequest {
                pattern: PatternId::new(6),
                ranges: vec![RangeRef::ROOT, RangeRef::new(1, 15), RangeRef::new(5, 1)],
            },
        ]
    }

    #[test]
    fn encoded_len_equals_wire_bits_for_every_variant() {
        for env in battery() {
            let len = encoded_len(&env, P).unwrap();
            assert_eq!(len as u64 * 8, env.wire_bits(P), "size drift: {env:?}");
        }
    }

    #[test]
    fn roundtrip_every_variant() {
        for env in battery() {
            let bytes = encode(&env, P).unwrap();
            assert_eq!(bytes.len(), encoded_len(&env, P).unwrap());
            let back = decode(&bytes, P).unwrap();
            assert_eq!(back, env);
            // And bytes → envelope → bytes is the identity too.
            assert_eq!(encode(&back, P).unwrap(), bytes);
        }
    }

    #[test]
    fn unaligned_payloads_are_rejected() {
        let env = Envelope::Request(vec![]);
        assert_eq!(
            encode(&env, 1001).unwrap_err(),
            CodecError::UnalignedPayload(1001)
        );
        assert_eq!(
            decode(&[0u8; 4], 0).unwrap_err(),
            CodecError::UnalignedPayload(0)
        );
    }

    #[test]
    fn dirty_padding_is_rejected() {
        let env = Envelope::PubSub(PubSubMessage::Subscribe(PatternId::new(3)));
        let mut bytes = encode(&env, P).unwrap();
        *bytes.last_mut().unwrap() = 1;
        assert_eq!(decode(&bytes, P).unwrap_err(), CodecError::DirtyPadding);
    }

    #[test]
    fn truncation_and_bad_headers_are_rejected() {
        let env = Envelope::PubSub(PubSubMessage::Event(event(2, 2)));
        let bytes = encode(&env, P).unwrap();
        assert_eq!(decode(&bytes[..1], P).unwrap_err(), CodecError::Truncated);
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 9;
        assert_eq!(
            decode(&wrong_version, P).unwrap_err(),
            CodecError::BadVersion(9)
        );
        let mut wrong_type = bytes.clone();
        wrong_type[1] = 200;
        assert_eq!(
            decode(&wrong_type, P).unwrap_err(),
            CodecError::BadType(200)
        );
        let mut overlong = bytes;
        overlong.push(0);
        assert!(matches!(
            decode(&overlong, P).unwrap_err(),
            CodecError::BadLength { .. }
        ));
    }

    #[test]
    fn oversized_digests_overflow_and_fit_trims_them() {
        let env = Envelope::Gossip(GossipMessage::PushDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(0),
            ids: Arc::new(
                (0..200u64)
                    .map(|i| EventId::new(NodeId::new(0), i))
                    .collect(),
            ),
        });
        assert!(matches!(
            encode(&env, P).unwrap_err(),
            CodecError::Overflow { .. }
        ));
        let (fitted, dropped) = fit(env, P);
        assert!(dropped > 0);
        let bytes = encode(&fitted, P).unwrap();
        assert_eq!(bytes.len() as u64 * 8, fitted.wire_bits(P));
        // The surviving suffix — the newest cache entries — is intact;
        // the dropped front was already announced by earlier rounds.
        match decode(&bytes, P).unwrap() {
            Envelope::Gossip(GossipMessage::PushDigest { ids, .. }) => {
                assert_eq!(ids.len() as u64 + dropped, 200);
                assert_eq!(ids[0], EventId::new(NodeId::new(0), dropped));
                assert_eq!(*ids.last().unwrap(), EventId::new(NodeId::new(0), 199));
            }
            other => panic!("decoded to {other:?}"),
        }
    }

    #[test]
    fn fit_leaves_fitting_envelopes_alone() {
        for env in battery() {
            let (fitted, dropped) = fit(env.clone(), P);
            assert_eq!(dropped, 0);
            assert_eq!(fitted, env);
        }
    }

    #[test]
    fn fixed_width_fields_match_their_accounted_constants() {
        // One request id = 12 bytes; one route hop = 4 bytes.
        assert_eq!(EVENT_ID_BITS / 8, 12);
        assert_eq!(ROUTE_HOP_BITS / 8, 4);
        assert_eq!(CONTROL_BITS / 8, 32);
        let empty = encode(&Envelope::Request(vec![]), P).unwrap();
        let one = encode(&Envelope::Request(vec![EventId::new(NodeId::new(1), 2)]), P).unwrap();
        assert_eq!(one.len() - empty.len(), (EVENT_ID_BITS / 8) as usize);
    }

    #[test]
    fn summary_fixed_widths_match_their_accounted_constants() {
        // One range aggregate = 21 bytes, one detail header = 9, one
        // range ref = 5.
        assert_eq!(SUMMARY_RANGE_BITS / 8, 21);
        assert_eq!(SUMMARY_DETAIL_BITS / 8, 9);
        assert_eq!(RANGE_REF_BITS / 8, 5);
        let base = Envelope::RangeRequest {
            pattern: PatternId::new(1),
            ranges: vec![],
        };
        let one = Envelope::RangeRequest {
            pattern: PatternId::new(1),
            ranges: vec![RangeRef::new(2, 200)],
        };
        let grown = encode(&one, P).unwrap().len() - encode(&base, P).unwrap().len();
        assert_eq!(grown, (RANGE_REF_BITS / 8) as usize);
    }

    #[test]
    fn invalid_range_refs_are_rejected() {
        // A level-1 range only has indices 0..16; index 16 is invalid.
        let mut buf = vec![WIRE_VERSION, T_RANGE_REQUEST];
        put_varint(&mut buf, 1); // pattern
        put_varint(&mut buf, 1); // one range
        buf.push(1); // level 1
        buf.extend_from_slice(&16u32.to_le_bytes());
        buf.resize((CONTROL_BITS / 8 + RANGE_REF_BITS / 8) as usize, 0);
        assert_eq!(
            decode(&buf, P).unwrap_err(),
            CodecError::Malformed("range index out of range for level")
        );
        let mut deep = vec![WIRE_VERSION, T_RANGE_REQUEST];
        put_varint(&mut deep, 1);
        put_varint(&mut deep, 1);
        deep.push(LEAF_LEVEL + 1);
        deep.extend_from_slice(&0u32.to_le_bytes());
        deep.resize((CONTROL_BITS / 8 + RANGE_REF_BITS / 8) as usize, 0);
        assert_eq!(
            decode(&deep, P).unwrap_err(),
            CodecError::Malformed("range level too deep")
        );
    }

    #[test]
    fn summary_digests_never_overflow_the_codec() {
        // The exact accounting means even a huge digest encodes at its
        // own accounted size — fit() must leave it untouched.
        let env = Envelope::Gossip(GossipMessage::SummaryDigest {
            gossiper: NodeId::new(0),
            pattern: PatternId::new(0),
            ranges: Arc::new(
                (0..200u32)
                    .map(|i| RangeSummary {
                        range: RangeRef::new(3, i),
                        count: u64::from(i),
                        hash: u64::from(i) * 77,
                    })
                    .collect(),
            ),
            details: Arc::new(vec![RangeDetail {
                range: RangeRef::new(5, 9),
                ids: (0..500).map(|i| EventId::new(NodeId::new(1), i)).collect(),
            }]),
        });
        let bytes = encode(&env, P).unwrap();
        assert_eq!(bytes.len() as u64 * 8, env.wire_bits(P));
        let (fitted, dropped) = fit(env.clone(), P);
        assert_eq!(dropped, 0);
        assert_eq!(fitted, env);
    }

    #[test]
    fn malformed_event_bodies_are_rejected() {
        // Hand-build an event body whose patterns are unsorted.
        let mut buf = vec![WIRE_VERSION, T_EVENT];
        put_varint(&mut buf, 1); // seq
        put_varint(&mut buf, 1); // one hop
        buf.extend_from_slice(&3u32.to_le_bytes());
        put_varint(&mut buf, 2); // two patterns
        put_varint(&mut buf, 5);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 5); // duplicate pattern
        put_varint(&mut buf, 0);
        buf.resize((P / 8) as usize + 4, 0);
        assert_eq!(
            decode(&buf, P).unwrap_err(),
            CodecError::Malformed("event patterns not strictly sorted")
        );
    }

    /// One envelope of each kind that carries an event id, all naming
    /// `seq`.
    fn envelopes_naming(seq: u64) -> Vec<Envelope> {
        let id = EventId::new(NodeId::new(3), seq);
        let event = Event::new(id, vec![(PatternId::new(2), 0)]);
        vec![
            Envelope::PubSub(PubSubMessage::Event(event.clone())),
            Envelope::CrossEvent(event.clone()),
            Envelope::Gossip(GossipMessage::PushDigest {
                gossiper: NodeId::new(1),
                pattern: PatternId::new(2),
                ids: Arc::new(vec![id]),
            }),
            Envelope::Request(vec![id]),
            Envelope::Reply(vec![event]),
            Envelope::Gossip(GossipMessage::SummaryDigest {
                gossiper: NodeId::new(1),
                pattern: PatternId::new(2),
                ranges: Arc::new(vec![]),
                details: Arc::new(vec![RangeDetail {
                    range: RangeRef::ROOT,
                    ids: vec![id],
                }]),
            }),
        ]
    }

    #[test]
    fn an_id_past_the_largest_seq_is_malformed() {
        // A dispatcher's seen set keys a word by `seq >> 6` in 32 bits:
        // an id it cannot mark is refused where it enters.
        for env in envelopes_naming(EventId::MAX_SEQ) {
            let bytes = encode(&env, P).unwrap();
            assert_eq!(decode(&bytes, P), Ok(env));
        }
        for env in envelopes_naming(EventId::MAX_SEQ + 1) {
            let bytes = encode(&env, P).unwrap();
            assert_eq!(
                decode(&bytes, P),
                Err(CodecError::Malformed("event seq exceeds EventId::MAX_SEQ")),
                "{env:?}"
            );
        }
    }

    // ---- properties over random envelopes -------------------------

    fn random_id(rng: &mut Rng) -> EventId {
        EventId::new(
            NodeId::new(rng.random_range(0..64u32)),
            rng.random_below(100_000),
        )
    }

    fn random_loss(rng: &mut Rng) -> LossRecord {
        LossRecord {
            source: NodeId::new(rng.random_range(0..64u32)),
            pattern: PatternId::new(rng.random_range(0..70u16)),
            seq: rng.random_below(100_000),
        }
    }

    fn random_list<T>(
        rng: &mut Rng,
        max_len: usize,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..rng.random_range(0..max_len + 1))
            .map(|_| item(rng))
            .collect()
    }

    /// Up to a max-degree route (the widest overlay the scenarios use
    /// has degree 16), or none.
    fn random_route(rng: &mut Rng) -> Vec<NodeId> {
        random_list(rng, 16, |rng| NodeId::new(rng.random_range(0..64u32)))
    }

    fn random_event(rng: &mut Rng) -> Event {
        let mut pattern_seqs: Vec<(PatternId, u64)> = (0..rng.random_range(1..4usize))
            .map(|_| {
                let pattern = PatternId::new(rng.random_range(0..70u16));
                (pattern, rng.random_below(100_000))
            })
            .collect();
        pattern_seqs.sort_unstable();
        pattern_seqs.dedup_by_key(|&mut (pattern, _)| pattern);
        let id = random_id(rng);
        let route = iter::once(id.source()).chain(random_route(rng)).collect();
        Event::from_wire(id, pattern_seqs, route)
    }

    fn random_range_ref(rng: &mut Rng) -> RangeRef {
        let level = rng.random_range(0..u32::from(LEAF_LEVEL) + 1);
        RangeRef::new(level as u8, rng.random_below(1 << (4 * level)) as u32)
    }

    /// An envelope of any of the twelve wire kinds. List sizes start at
    /// zero on purpose: empty digests must frame and round-trip like
    /// any other body.
    fn random_envelope(rng: &mut Rng) -> Envelope {
        let gossiper = NodeId::new(rng.random_range(0..64u32));
        let pattern = PatternId::new(rng.random_range(0..70u16));
        match T_SUBSCRIBE + rng.random_below(u64::from(T_RANGE_REQUEST)) as u8 {
            T_SUBSCRIBE => Envelope::PubSub(PubSubMessage::Subscribe(pattern)),
            T_UNSUBSCRIBE => Envelope::PubSub(PubSubMessage::Unsubscribe(pattern)),
            T_EVENT => Envelope::PubSub(PubSubMessage::Event(random_event(rng))),
            T_CROSS_EVENT => Envelope::CrossEvent(random_event(rng)),
            T_PUSH => Envelope::Gossip(GossipMessage::PushDigest {
                gossiper,
                pattern,
                ids: Arc::new(random_list(rng, 40, random_id)),
            }),
            T_PULL => Envelope::Gossip(GossipMessage::PullDigest {
                gossiper,
                pattern,
                lost: random_list(rng, 40, random_loss),
            }),
            T_SOURCE_PULL => Envelope::Gossip(GossipMessage::SourcePull {
                gossiper,
                source: NodeId::new(rng.random_range(0..64u32)),
                lost: random_list(rng, 40, random_loss),
                route: random_route(rng),
            }),
            T_RANDOM_PULL => Envelope::Gossip(GossipMessage::RandomPull {
                gossiper,
                lost: random_list(rng, 40, random_loss),
                ttl: rng.random_range(0..8u32),
            }),
            T_REQUEST => Envelope::Request(random_list(rng, 40, random_id)),
            T_REPLY => Envelope::Reply(random_list(rng, 3, random_event)),
            // Root-only, with refinements, with and without details.
            T_SUMMARY => Envelope::Gossip(GossipMessage::SummaryDigest {
                gossiper,
                pattern,
                ranges: Arc::new(random_list(rng, 20, |rng| RangeSummary {
                    range: if rng.random_bool(0.3) {
                        RangeRef::ROOT
                    } else {
                        random_range_ref(rng)
                    },
                    count: rng.random_below(1500),
                    hash: rng.next_u64(),
                })),
                details: Arc::new(random_list(rng, 3, |rng| RangeDetail {
                    range: random_range_ref(rng),
                    ids: random_list(rng, 10, random_id),
                })),
            }),
            T_RANGE_REQUEST => Envelope::RangeRequest {
                pattern,
                ranges: random_list(rng, 20, random_range_ref),
            },
            tag => unreachable!("no wire kind {tag}"),
        }
    }

    /// A byte-aligned payload size (the codec rejects anything else).
    fn random_payload_bits(rng: &mut Rng) -> u64 {
        rng.random_range(64..512u64) * 8
    }

    fn is_digest(env: &Envelope) -> bool {
        matches!(
            env,
            Envelope::Gossip(
                GossipMessage::PushDigest { .. }
                    | GossipMessage::PullDigest { .. }
                    | GossipMessage::SourcePull { .. }
                    | GossipMessage::RandomPull { .. }
            )
        )
    }

    #[test]
    fn decode_inverts_encode_on_every_fitted_envelope() {
        forall("decode_inverts_encode", 512, |rng| {
            let env = random_envelope(rng);
            let payload_bits = random_payload_bits(rng);
            let (fitted, dropped) = fit(env.clone(), payload_bits);
            assert!(dropped == 0 || is_digest(&env), "only digests are trimmed");
            match encode(&fitted, payload_bits) {
                Ok(bytes) => {
                    assert_eq!(bytes.len() as u64 * 8, fitted.wire_bits(payload_bits));
                    assert_eq!(decode(&bytes, payload_bits), Ok(fitted));
                }
                // Only non-digest bodies may stay oversized after
                // fitting (fit cannot shrink an event or a reply).
                Err(CodecError::Overflow { .. }) => assert!(!is_digest(&fitted) || dropped > 0),
                Err(other) => panic!("unexpected encode error: {other:?}"),
            }
        });
    }

    /// Every frame `encode` accepts, with the payload size it was
    /// encoded at, over `cases` random envelopes.
    fn for_every_valid_frame(name: &str, cases: u64, mut check: impl FnMut(&mut Rng, &[u8], u64)) {
        forall(name, cases, |rng| {
            let payload_bits = random_payload_bits(rng);
            let (fitted, _) = fit(random_envelope(rng), payload_bits);
            // An oversized non-digest body has no frame to damage.
            if let Ok(bytes) = encode(&fitted, payload_bits) {
                check(rng, &bytes, payload_bits);
            }
        });
    }

    #[test]
    fn encode_inverts_decode_on_every_canonical_frame() {
        // The codec admits exactly one byte representation per envelope.
        for_every_valid_frame("encode_inverts_decode", 512, |_, bytes, payload_bits| {
            let back = decode(bytes, payload_bits).expect("valid frame decodes");
            assert_eq!(encode(&back, payload_bits).as_deref(), Ok(bytes));
        });
    }

    #[test]
    fn damaged_frames_are_rejected_or_decoded_but_never_panic() {
        for_every_valid_frame(
            "damaged_frames_never_panic",
            2000,
            |rng, bytes, payload_bits| {
                // No strict prefix of a frame is a frame.
                let cut = rng.random_range(0..bytes.len());
                assert!(decode(&bytes[..cut], payload_bits).is_err());
                assert!(decode(&bytes[..bytes.len() - 1], payload_bits).is_err());
                // A few flipped bits may still be a frame; decode must say
                // which, by returning.
                let mut flipped = bytes.to_vec();
                for _ in 0..rng.random_range(1..9usize) {
                    let bit = rng.random_range(0..flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    let _ = decode(&flipped, payload_bits);
                    let _ = decode(&flipped[..rng.random_range(0..flipped.len())], payload_bits);
                }
            },
        );
    }
}
