//! A seeded integer hasher for the lookup-only maps on the event path.
//!
//! The simulator's keys are small tuples of integers (`EventId`,
//! `(source, pattern, seq)`, link endpoints), and every map keyed by
//! them is probed but never iterated (at most filtered by a `retain`
//! that no visiting order can change), so the hash function cannot be
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
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
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
/// next process). It is zero-sized: each hasher reads the seed from
/// one process-wide cell instead of every map keeping a copy, which is
/// 8 B on each of the maps and indexes a dispatcher holds.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdState;

/// The process's seed, drawn once from std's per-process random keys.
#[inline]
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u64))
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: seed() }
    }
}

/// A `HashMap` on [`IdHasher`]; for maps that are probed, never iterated.
/// A `retain` whose predicate reads only the entry it is handed is
/// allowed too: it removes the same entries in any visiting order, so
/// the order never reaches a result.
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` on [`IdHasher`]; for sets that are probed, never iterated.
pub type IdSet<K> = HashSet<K, IdState>;

/// A bucket no entry holds ([`SlotIndex::insert`] refuses its slot).
const EMPTY: u64 = u64::MAX;

/// An open-addressing index from keys to the `u32` slots of a store it
/// does not own — an event cache's ring of β events, say.
///
/// The table holds no keys. Each bucket is one `u64`: the low 32 bits
/// of the key's hash shifted up 32, OR the slot. Those 32 tag bits
/// turn away almost every other key before the caller's `is_key` reads
/// the store, and they name the entry's home bucket, so the table can
/// grow without the keys. Probing is linear; removal shifts the run
/// behind the hole back instead of leaving a tombstone, so insert and
/// remove churn never grows the table: it doubles only when live
/// entries pass 5/8 of the buckets. An empty index allocates nothing.
/// Hashes come from [`SlotIndex::hash`], on the same seeded
/// [`IdState`] as [`IdMap`]; the index is probed, never iterated.
///
/// # Examples
///
/// ```
/// use eps_sim::hash::SlotIndex;
/// let store = ["a", "b", "c"];
/// let mut index = SlotIndex::default();
/// for (slot, key) in store.iter().enumerate() {
///     index.insert(index.hash(key), slot as u32);
/// }
/// index.remove(index.hash("b"), 1);
/// let find = |key| index.find(index.hash(key), |s| store[s as usize] == key);
/// assert_eq!((find("a"), find("b"), find("c")), (Some(0), None, Some(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlotIndex {
    buckets: Vec<u64>,
    len: usize,
}

impl SlotIndex {
    /// The hash this index files `key` under.
    pub fn hash(&self, key: impl Hash) -> u64 {
        IdState.hash_one(key)
    }

    /// The first bucket from `i` on that is empty or that `stop` accepts
    /// (`None` before the first insert allocates).
    fn scan(&self, mut i: usize, mut stop: impl FnMut(u64) -> bool) -> Option<usize> {
        let mask = self.buckets.len().wrapping_sub(1);
        loop {
            i &= mask;
            let entry = *self.buckets.get(i)?;
            if entry == EMPTY || stop(entry) {
                return Some(i);
            }
            i += 1;
        }
    }

    /// The slot filed under `hash` that `is_key` accepts.
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let tag = hash & 0xffff_ffff;
        let i = self.scan(tag as usize, |e| e >> 32 == tag && is_key(e as u32))?;
        (self.buckets[i] != EMPTY).then_some(self.buckets[i] as u32)
    }

    /// Files `slot` under `hash`; `slot` must not be `u32::MAX`, and the
    /// caller keeps one entry per key.
    #[inline]
    pub fn insert(&mut self, hash: u64, slot: u32) {
        assert!(slot != u32::MAX, "slot u32::MAX spells an empty bucket");
        if (self.len + 1) * 8 > self.buckets.len() * 5 {
            let size = (self.buckets.len() * 2).max(8);
            let old = std::mem::replace(&mut self.buckets, vec![EMPTY; size]);
            old.into_iter()
                .filter(|&e| e != EMPTY)
                .for_each(|e| self.place(e));
        }
        self.place(hash << 32 | u64::from(slot));
        self.len += 1;
    }

    #[inline]
    fn place(&mut self, entry: u64) {
        let free = self.scan((entry >> 32) as usize, |_| false);
        self.buckets[free.expect("an insert allocates")] = entry;
    }

    /// Removes the entry filing `slot` under `hash`, then shifts back
    /// each later entry of its run that may move nearer its home.
    ///
    /// # Panics
    ///
    /// Panics if there is no such entry.
    #[inline]
    pub fn remove(&mut self, hash: u64, slot: u32) {
        let entry = hash << 32 | u64::from(slot);
        let mut hole = self
            .scan((entry >> 32) as usize, |e| e == entry)
            .filter(|&i| self.buckets[i] == entry)
            .unwrap_or_else(|| panic!("no slot {slot} is filed under hash {hash:#x}"));
        let mask = self.buckets.len() - 1;
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let moved = self.buckets[next];
            if moved == EMPTY {
                break;
            }
            // It may fill the hole unless its home lies in (hole, next].
            let home = (moved >> 32) as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.buckets[hole] = moved;
                hole = next;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use std::collections::BTreeMap;

    fn hash_of(seed: u64, key: impl Hash) -> u64 {
        let mut hasher = IdHasher { state: seed };
        key.hash(&mut hasher);
        hasher.finish()
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
    fn a_map_keeps_no_copy_of_the_seed() {
        assert_eq!(std::mem::size_of::<IdState>(), 0);
        let plain = std::mem::size_of::<HashMap<u64, u64, ()>>();
        assert_eq!(std::mem::size_of::<IdMap<u64, u64>>(), plain);
        assert_eq!(std::mem::size_of::<SlotIndex>(), 32);
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

    /// The buckets a table that once held `peak` entries needs.
    fn buckets_for(peak: usize) -> usize {
        (3..).map(|k| 1 << k).find(|&b| peak * 8 <= b * 5).unwrap()
    }

    #[test]
    fn slot_index_answers_like_a_btreemap() {
        forall("slot_index_mirrors_btreemap", 256, |rng| {
            // Some cases file every key under one of a few 32-bit tags
            // homed in the last buckets: runs are long, wrap past the
            // end, and only `is_key` tells the keys apart.
            let tags = [0, 1, 3][rng.random_below(3) as usize];
            let keys = rng.random_range(1..64u64);
            let mut index = SlotIndex::default();
            let hash = |index: &SlotIndex, key: u64| match tags {
                0 => index.hash(key),
                _ => index.hash(key) & !0xffff_ffff | (0xffff_ffff - key % tags),
            };
            let mut store: Vec<Option<u64>> = Vec::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut peak = 0;
            for _ in 0..rng.random_range(1..400u32) {
                let key = rng.random_below(keys);
                match model.get(&key) {
                    None if rng.random_bool(0.6) => {
                        let free = store.iter().position(Option::is_none);
                        let slot = free.unwrap_or_else(|| {
                            store.push(None);
                            store.len() - 1
                        });
                        store[slot] = Some(key);
                        index.insert(hash(&index, key), slot as u32);
                        model.insert(key, slot as u32);
                    }
                    Some(&slot) if rng.random_bool(0.5) => {
                        index.remove(hash(&index, key), slot);
                        store[slot as usize] = None;
                        model.remove(&key);
                    }
                    _ => {}
                }
                assert_eq!(index.len, model.len());
                peak = peak.max(model.len());
                // Churn never grows the table past what its peak needs.
                if peak > 0 {
                    assert_eq!(index.buckets.len(), buckets_for(peak));
                }
                for probe in 0..keys {
                    let found =
                        index.find(hash(&index, probe), |s| store[s as usize] == Some(probe));
                    assert_eq!(found, model.get(&probe).copied(), "key {probe}");
                }
            }
        });
    }

    #[test]
    fn an_index_allocates_nothing_until_its_first_insert() {
        let index = SlotIndex::default();
        assert_eq!(index.buckets.capacity(), 0);
        assert_eq!(index.find(index.hash(1u64), |_| true), None);
    }

    #[test]
    #[should_panic(expected = "no slot 9 is filed")]
    fn removing_an_absent_entry_panics() {
        let mut index = SlotIndex::default();
        for slot in 0..5u32 {
            index.insert(index.hash(slot), slot);
        }
        index.remove(index.hash(9u32), 9);
    }

    #[test]
    #[should_panic(expected = "no slot 3 is filed")]
    fn removing_from_an_empty_index_panics() {
        let mut index = SlotIndex::default();
        index.remove(index.hash(3u32), 3);
    }
}
