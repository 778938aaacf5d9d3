//! Runtime counters for the real-socket runtime (`eps-net`).
//!
//! The simulator's [`crate::MessageCounters`] track the *protocol*
//! traffic the paper reports. A socket runtime has an extra layer the
//! simulator does not: connections that retry, queues that overflow,
//! frames that fail to decode. [`NetCounters`] makes that layer
//! observable — every column in the `net_cluster` CSV beyond the
//! shared `ScenarioResult` schema comes from here, so a run that
//! "worked" with a saturated queue or a flapping link is visible
//! rather than silently degraded.

/// Per-run socket-layer counters, summed over all node threads.
///
/// All fields are plain totals; per-node instances are merged with
/// [`NetCounters::absorb`] after the run, mirroring how the protocol
/// counters are aggregated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// TCP connect attempts made by dialer sides (first tries and
    /// retries alike).
    pub connect_attempts: u64,
    /// Connect attempts beyond the first per link session — non-zero
    /// means some peer was not yet listening (or restarted) and the
    /// backoff path was exercised.
    pub connect_retries: u64,
    /// TCP connections accepted by acceptor sides.
    pub accepted_conns: u64,
    /// Framed messages written to tree links (TCP).
    pub frames_sent: u64,
    /// Framed messages fully reassembled from tree links (TCP).
    pub frames_received: u64,
    /// Out-of-band datagrams sent (UDP).
    pub datagrams_sent: u64,
    /// Out-of-band datagrams received (UDP).
    pub datagrams_received: u64,
    /// Messages dropped because a link's bounded outbound queue was
    /// full — backpressure made visible instead of unbounded memory.
    pub queue_drops: u64,
    /// Received frames or datagrams the wire codec rejected. Always
    /// zero in a healthy cluster; non-zero means version skew or
    /// corruption.
    pub decode_errors: u64,
    /// Envelopes dropped at send by the simulator's own link-loss draw
    /// (ε on tree and cross links, the out-of-band loss rate on the
    /// recovery channel), before they are encoded or written.
    pub injected_drops: u64,
    /// Gossip digests trimmed by the codec's `fit` pass because they
    /// exceeded the one-event-payload budget the paper's accounting
    /// assumes.
    pub digest_truncations: u64,
    /// Digest entries removed by those truncations (a later gossip
    /// round re-announces what was trimmed).
    pub route_drops: u64,
    /// Payload bytes sent on sockets (frame bodies and datagram
    /// bodies, excluding length/sender prefixes — i.e. exactly the
    /// bytes `wire_bits` accounts for).
    pub bytes_sent: u64,
    /// Payload bytes received on sockets, same accounting as
    /// [`NetCounters::bytes_sent`].
    pub bytes_received: u64,
}

impl NetCounters {
    /// Folds `other`'s totals into `self`.
    pub fn absorb(&mut self, other: &NetCounters) {
        self.connect_attempts += other.connect_attempts;
        self.connect_retries += other.connect_retries;
        self.accepted_conns += other.accepted_conns;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.queue_drops += other.queue_drops;
        self.decode_errors += other.decode_errors;
        self.injected_drops += other.injected_drops;
        self.digest_truncations += other.digest_truncations;
        self.route_drops += other.route_drops;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
    }

    /// The column names of [`NetCounters::csv_row`], in order. The
    /// `net_cluster` binary appends these after the shared
    /// `ScenarioResult` columns.
    pub fn csv_header() -> &'static [&'static str] {
        &[
            "connect_attempts",
            "connect_retries",
            "accepted_conns",
            "frames_sent",
            "frames_received",
            "datagrams_sent",
            "datagrams_received",
            "queue_drops",
            "decode_errors",
            "injected_drops",
            "digest_truncations",
            "route_drops",
            "bytes_sent",
            "bytes_received",
        ]
    }

    /// One CSV row of these counters, aligned with
    /// [`NetCounters::csv_header`].
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            self.connect_attempts.to_string(),
            self.connect_retries.to_string(),
            self.accepted_conns.to_string(),
            self.frames_sent.to_string(),
            self.frames_received.to_string(),
            self.datagrams_sent.to_string(),
            self.datagrams_received.to_string(),
            self.queue_drops.to_string(),
            self.decode_errors.to_string(),
            self.injected_drops.to_string(),
            self.digest_truncations.to_string(),
            self.route_drops.to_string(),
            self.bytes_sent.to_string(),
            self.bytes_received.to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_every_field() {
        let mut a = NetCounters {
            connect_attempts: 1,
            frames_sent: 10,
            bytes_sent: 100,
            ..NetCounters::default()
        };
        let b = NetCounters {
            connect_attempts: 2,
            connect_retries: 1,
            accepted_conns: 3,
            frames_sent: 5,
            frames_received: 5,
            datagrams_sent: 4,
            datagrams_received: 4,
            queue_drops: 1,
            decode_errors: 1,
            injected_drops: 2,
            digest_truncations: 1,
            route_drops: 6,
            bytes_sent: 50,
            bytes_received: 50,
        };
        a.absorb(&b);
        assert_eq!(a.connect_attempts, 3);
        assert_eq!(a.connect_retries, 1);
        assert_eq!(a.accepted_conns, 3);
        assert_eq!(a.frames_sent, 15);
        assert_eq!(a.frames_received, 5);
        assert_eq!(a.datagrams_sent, 4);
        assert_eq!(a.datagrams_received, 4);
        assert_eq!(a.queue_drops, 1);
        assert_eq!(a.decode_errors, 1);
        assert_eq!(a.injected_drops, 2);
        assert_eq!(a.digest_truncations, 1);
        assert_eq!(a.route_drops, 6);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.bytes_received, 50);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let c = NetCounters::default();
        assert_eq!(c.csv_row().len(), NetCounters::csv_header().len());
        assert!(c.csv_row().iter().all(|v| v == "0"));
    }
}
