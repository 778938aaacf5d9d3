//! A seeded integer hasher for the lookup-only maps on the event path.
//!
//! The simulator's keys are small tuples of integers (`EventId`,
//! `(source, pattern, seq)`, link endpoints), and every map keyed by
//! them is probed but never iterated, so the hash function cannot be
//! observed in any output. std's SipHash spends more on such a key than
//! the rest of the probe; [`IdHasher`] spends one 64×64→128-bit
//! multiply per integer written, folding the high half back into the
//! low so that both the bucket index (low bits) and hashbrown's control
//! byte (top bits) depend on every input bit.
//!
//! The state starts from one per-process seed drawn from
//! [`std::hash::RandomState`], for two reasons. A peer on the socket
//! runtime chooses the `EventId`s it sends, and without a secret in the
//! hash it could pre-compute a set that lands in one bucket; with the
//! seed it has to learn the seed first (the hasher is not
//! cryptographic: it does not resist an attacker who can time probes
//! adaptively — that is what SipHash is for). And a map that is
//! iterated by accident changes order from run to run, so the golden
//! files flake instead of freezing the mistake in.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// Odd, bit-balanced multiplier (2⁶⁴/φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A folded-multiply [`Hasher`] for integer keys: each word written
/// becomes `state = hi ^ lo` of the 128-bit product `(state ^ word)·K`.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(K);
        self.state = product as u64 ^ (product >> 64) as u64;
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Any other key: eight bytes per step (`Hash` impls of
    /// variable-length types write their own length).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`IdHasher`]s that all start from the process's one seed, so
/// every [`IdMap`] in a process hashes alike (and differently from the
/// next process).
#[derive(Clone, Copy, Debug)]
pub struct IdState {
    seed: u64,
}

impl Default for IdState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// A `HashMap` on [`IdHasher`]; for maps that are probed, never iterated.
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` on [`IdHasher`]; for sets that are probed, never iterated.
pub type IdSet<K> = HashSet<K, IdState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use std::collections::BTreeMap;
    use std::hash::Hash;

    fn hash_of(seed: u64, key: impl Hash) -> u64 {
        IdState { seed }.hash_one(key)
    }

    /// What hashbrown needs of 4096 hashes: the group index (low 7
    /// bits) and the control byte (top 7 bits) each take nearly all
    /// 128 values, and neither end piles into one of 64 cells.
    fn assert_spreads(family: &str, hashes: &[u64]) {
        assert_eq!(hashes.len(), 4096);
        for (end, shift) in [("low", 0), ("top", 57)] {
            let mut cells = [0usize; 128];
            for h in hashes {
                cells[(h >> shift) as usize & 127] += 1;
            }
            let taken = cells.iter().filter(|&&c| c > 0).count();
            assert!(taken >= 120, "{family}: {end} 7 bits take {taken}/128");
            let fullest = (0..64).map(|c| cells[2 * c] + cells[2 * c + 1]).max();
            let share = hashes.len() / 64;
            assert!(
                fullest <= Some(4 * share),
                "{family}: a {end} cell holds {fullest:?}, share {share}"
            );
        }
    }

    #[test]
    fn dense_integer_keys_spread_over_both_ends_of_the_hash() {
        // `(u32, u64)` and `(u32, u16, u64)` feed the hasher the same
        // words as `EventId` and the cache's (source, pattern, seq).
        forall("dense_integer_keys_spread", 64, |rng| {
            let seed = rng.next_u64();
            let (source, seq) = (rng.next_u64() as u32 >> 8, rng.next_u64() >> 16);
            let pattern = rng.next_u64() as u16 >> 4;
            let spreads = |family: &str, key: &dyn Fn(u32) -> u64| {
                assert_spreads(family, &(0..4096).map(key).collect::<Vec<u64>>());
            };
            let step = u64::from;
            spreads("seqs", &|i| hash_of(seed, (source, seq + step(i))));
            spreads("sources", &|i| hash_of(seed, (source + i, seq)));
            spreads("triple.0", &|i| hash_of(seed, (source + i, pattern, seq)));
            spreads("triple.1", &|i| {
                hash_of(seed, (source, pattern + i as u16, seq))
            });
            spreads("triple.2", &|i| {
                hash_of(seed, (source, pattern, seq + step(i)))
            });
            spreads("bytes", &|i| hash_of(seed, format!("event-{i}")));
        });
    }

    #[test]
    fn maps_share_one_seed_and_answer_like_a_btreemap() {
        forall("idmap_mirrors_btreemap", 64, |rng| {
            let mut map: IdMap<(u32, u64), u64> = IdMap::default();
            let other: IdSet<(u32, u64)> = IdSet::default();
            let mut model = BTreeMap::new();
            for step in 0..rng.random_range(1..400u64) {
                // Few sources, few seqs: removals and overwrites hit.
                let key = (rng.random_below(4) as u32, rng.random_below(64));
                assert_eq!(map.hasher().hash_one(key), other.hasher().hash_one(key));
                if rng.random_bool(0.6) {
                    assert_eq!(map.insert(key, step), model.insert(key, step));
                } else {
                    assert_eq!(map.remove(&key), model.remove(&key));
                }
                assert_eq!(map.len(), model.len());
            }
            for source in 0..4 {
                for seq in 0..64 {
                    assert_eq!(map.get(&(source, seq)), model.get(&(source, seq)));
                }
            }
        });
    }
}
