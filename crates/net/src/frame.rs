//! Length-prefixed framing for the tree links (TCP).
//!
//! A frame is a 4-byte little-endian body length followed by the body
//! — one encoded [`eps_gossip::Envelope`]. The prefix is transport
//! plumbing, not protocol: it is *excluded* from the byte accounting,
//! exactly as the simulator's `wire_bits` excludes transport headers.
//! The body length therefore always equals `wire_bits / 8` for the
//! framed envelope, which is what the sim-vs-wire cross-validation
//! leans on.

/// Upper bound on one frame body, in bytes. Replies carry full event
/// copies and can be large, but anything beyond this is corruption
/// (or an attack), not protocol traffic — the reader fails fast
/// instead of allocating unboundedly.
pub const MAX_FRAME: usize = 16 << 20;

/// The one unrecoverable framing failure: a length prefix beyond
/// [`MAX_FRAME`]. Anything else is just "wait for more bytes".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The length the corrupt prefix claimed.
    pub claimed: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame length prefix {} exceeds MAX_FRAME {}",
            self.claimed, MAX_FRAME
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Prepends the 4-byte length prefix to an encoded body.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME`] — the codec's size
/// discipline makes that unreachable for protocol traffic.
pub fn frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Incremental frame reassembly over a nonblocking byte stream. Feed
/// it whatever `read` returned; take complete bodies out as they
/// become available.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so a burst of small
    /// frames does not memmove per frame.
    pos: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one has fully arrived.
    ///
    /// Returns [`FrameTooLarge`] when the stream is unrecoverably
    /// corrupt (a length prefix beyond [`MAX_FRAME`]); the connection
    /// should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooLarge> {
        let avail = self.buf.len() - self.pos;
        let Some(&prefix) = self.buf[self.pos..].first_chunk::<4>() else {
            self.compact();
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(FrameTooLarge { claimed: len });
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_arbitrary_splits() {
        let bodies: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![9; 300]];
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend_from_slice(&frame(b));
        }
        // Feed the stream one byte at a time — the worst fragmentation
        // a socket can produce.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &byte in &wire {
            reader.extend(&[byte]);
            while let Some(body) = reader.next_frame().expect("clean stream") {
                got.push(body);
            }
        }
        assert_eq!(got, bodies);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let mut reader = FrameReader::new();
        reader.extend(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn pending_counts_unconsumed_bytes() {
        let mut reader = FrameReader::new();
        reader.extend(&frame(&[7; 10])[..8]);
        assert!(reader.next_frame().expect("clean").is_none());
        assert_eq!(reader.pending(), 8);
    }
}
