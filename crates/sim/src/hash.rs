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

/// The heap bytes of `map`, from its capacity, not its length: std's
/// table allocates a power-of-two bucket count that holds `capacity()`
/// entries at a load of at most 7/8 (one bucket fewer than it has, for
/// 4 or 8 buckets), one key-value pair and one control byte per
/// bucket, and a trailing group of 16 control bytes.
/// `crates/pubsub/tests/cache_bytes.rs` holds this to a counting
/// allocator's reading.
pub fn map_heap_bytes<K, V>(map: &IdMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => return 0,
        capacity if capacity < 8 => capacity + 1,
        capacity => capacity / 7 * 8,
    };
    let pairs = buckets * std::mem::size_of::<(K, V)>();
    pairs.next_multiple_of(16) + buckets + 16
}

/// A bucket no entry holds: an entry's slot field is below the store's
/// capacity, so never all ones.
const EMPTY: u32 = u32::MAX;

/// An open-addressing index from keys to the `u32` slots of a store it
/// does not own — an event cache's ring of β events, say.
///
/// The table holds no keys. Each bucket is one `u32`: the slot in the
/// low ⌈log₂(capacity + 1)⌉ bits, sized from the store's capacity, and
/// the top bits of the key's hash in the rest, as a tag that turns away
/// most other keys before the caller's `is_key` reads the store. The
/// home bucket is the hash's top log₂(buckets) bits, so while the tag
/// is at least that wide it names the entry's home, and removal shifts
/// entries back without reading the store (a β = 1500 cache's indexes:
/// an 11-bit slot, a 21-bit tag, at most 8 192 buckets). Past that the
/// home takes bits the tag does not hold, and the caller names what the
/// store files under each slot with `keys`: the hashes of its keys, one
/// per slot for an event id, one per pattern for (source, pattern,
/// seq). Removal then reads the homes of the entries it shifts from
/// `keys`, and where two keys of one slot share a tag, so that it
/// cannot tell which home is whose, re-files every entry instead.
/// Growth always re-files every entry from the store. Probing is
/// linear; removal shifts the run behind the hole back instead of
/// leaving a tombstone, so insert and remove churn never grows the
/// table: it doubles only when live entries pass 5/8 of the buckets.
/// An empty index allocates nothing. Hashes come from
/// [`SlotIndex::hash`], on the same seeded [`IdState`] as [`IdMap`];
/// the index is probed, never iterated.
///
/// # Examples
///
/// ```
/// use eps_sim::hash::SlotIndex;
/// let store = ["a", "b", "c"];
/// let keys = |slot: u32| [SlotIndex::hash(store[slot as usize])];
/// let mut index = SlotIndex::new(store.len());
/// for slot in 0..3 {
///     index.insert(slot, keys, 0..slot);
/// }
/// index.remove(1, keys, [0, 2].into_iter());
/// let find = |key| index.find(SlotIndex::hash(key), |s| store[s as usize] == key);
/// assert_eq!((find("a"), find("b"), find("c")), (Some(0), None, Some(2)));
/// ```
#[derive(Clone, Debug)]
pub struct SlotIndex {
    buckets: Vec<u32>,
    len: u32,
    /// Width of an entry's slot field; the tag takes the other bits.
    slot_bits: u8,
}

impl SlotIndex {
    /// An empty index for a store of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `u32::MAX` or more: the slot field, with
    /// its all-ones value left to spell an empty bucket, is 32 bits.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < u32::MAX as usize,
            "a slot index holds at most 2³² - 2 slots"
        );
        SlotIndex {
            buckets: Vec::new(),
            len: 0,
            slot_bits: (usize::BITS - capacity.leading_zeros()) as u8,
        }
    }

    /// The hash an index files `key` under.
    pub fn hash(key: impl Hash) -> u64 {
        IdState.hash_one(key)
    }

    /// Heap bytes of the table: its buckets, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u32>()
    }

    /// The slot field's bits.
    fn slot_mask(&self) -> u32 {
        ((1u64 << self.slot_bits) - 1) as u32
    }

    /// The bucket `slot` takes when filed under `hash`.
    fn entry(&self, hash: u64, slot: u32) -> u32 {
        (hash >> 32) as u32 & !self.slot_mask() | slot
    }

    /// The first bucket from `hash`'s home on that is empty or that
    /// `stop` accepts (`None` before the first insert allocates).
    fn scan(&self, hash: u64, mut stop: impl FnMut(u32) -> bool) -> Option<usize> {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut i = self.home_of_hash(hash);
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
    #[inline]
    pub fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slot_mask();
        let tag = self.entry(hash, 0);
        let i = self.scan(hash, |e| e & !mask == tag && is_key(e & mask))?;
        (self.buckets[i] != EMPTY).then(|| self.buckets[i] & mask)
    }

    /// Files `slot` under each hash `keys(slot)` yields. Where that
    /// would pass the load cap, the table first grows and re-files
    /// `filed` — every slot it holds entries of, `slot` not among them —
    /// from `keys`. The caller keeps one entry per key.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the capacity the index was built
    /// for.
    pub fn insert<I>(
        &mut self,
        slot: u32,
        keys: impl Fn(u32) -> I,
        filed: impl Iterator<Item = u32>,
    ) where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let mask = self.slot_mask();
        assert!(
            slot & !mask == 0 && slot != mask,
            "slot {slot} is past the index's capacity"
        );
        let added = keys(slot).into_iter();
        let len = self.len as usize + added.len();
        if len * 8 > self.buckets.len() * 5 {
            let mut size = (self.buckets.len() * 2).max(8);
            while len * 8 > size * 5 {
                size *= 2;
            }
            self.buckets = vec![EMPTY; size];
            self.refile(&keys, filed);
        }
        added.for_each(|hash| self.place(hash, slot));
        self.len = len as u32;
    }

    /// Files every key of every slot of `filed` into empty buckets: the
    /// `len` entries the table held, read back from the store.
    fn refile<I: IntoIterator<Item = u64>>(
        &mut self,
        keys: &impl Fn(u32) -> I,
        filed: impl Iterator<Item = u32>,
    ) {
        let mut count = 0;
        for slot in filed {
            for hash in keys(slot) {
                self.place(hash, slot);
                count += 1;
            }
        }
        assert_eq!(count, self.len, "the store lists the entries filed");
    }

    #[inline]
    fn place(&mut self, hash: u64, slot: u32) {
        let free = self.scan(hash, |_| false).expect("an insert allocates");
        self.buckets[free] = self.entry(hash, slot);
    }

    /// Removes every entry of `slot` — one under each hash `keys(slot)`
    /// yields — shifting back each later entry of its run that may move
    /// nearer its home: the home its tag names, or, where the tag is
    /// narrower than a bucket number, the one `keys` gives from the
    /// store. Where the slot of an entry to shift files two keys under
    /// one such tag, which of the two homes is the entry's is unknown,
    /// so the table re-files `filed` — every slot it holds entries of,
    /// less `slot` — instead.
    ///
    /// # Panics
    ///
    /// Panics if some key of `slot` has no entry.
    pub fn remove<I>(
        &mut self,
        slot: u32,
        keys: impl Fn(u32) -> I,
        filed: impl Iterator<Item = u32>,
    ) where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut removed = keys(slot).into_iter();
        while let Some(hash) = removed.next() {
            let entry = self.entry(hash, slot);
            let mut hole = self
                .scan(hash, |e| e == entry)
                .filter(|&i| self.buckets[i] == entry)
                .unwrap_or_else(|| panic!("no slot {slot} is filed under hash {hash:#x}"));
            self.len -= 1;
            let mut next = hole;
            loop {
                next = (next + 1) & mask;
                let moved = self.buckets[next];
                if moved == EMPTY {
                    break;
                }
                let Some(home) = self.home(moved, &keys) else {
                    self.len -= removed.len() as u32;
                    self.buckets.fill(EMPTY);
                    self.refile(&keys, filed);
                    return;
                };
                // It may fill the hole unless its home lies in (hole, next].
                if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                    self.buckets[hole] = moved;
                    hole = next;
                }
            }
            self.buckets[hole] = EMPTY;
        }
    }

    /// The bits of a bucket number: log₂ of the bucket count.
    fn bucket_bits(&self) -> u32 {
        self.buckets.len().trailing_zeros()
    }

    /// The home bucket of `hash`: its top log₂(buckets) bits. (Before
    /// the first insert allocates, any number: no bucket is there.)
    fn home_of_hash(&self, hash: u64) -> usize {
        hash.wrapping_shr(64 - self.bucket_bits()) as usize
    }

    /// The home bucket of `entry`: the top bits of its tag, where the
    /// tag is as wide as a bucket number; else from the one key of its
    /// slot whose hash spells it, and `None` where more than one does.
    fn home<I: IntoIterator<Item = u64>>(
        &self,
        entry: u32,
        keys: &impl Fn(u32) -> I,
    ) -> Option<usize> {
        let bits = self.bucket_bits();
        if bits + u32::from(self.slot_bits) <= 32 {
            return Some((entry >> (32 - bits)) as usize);
        }
        let slot = entry & self.slot_mask();
        let mut spelled = keys(slot)
            .into_iter()
            .filter(|&hash| self.entry(hash, slot) == entry);
        let hash = spelled
            .next()
            .expect("an entry is filed under a key of its slot");
        spelled.next().is_none().then(|| self.home_of_hash(hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use std::collections::{BTreeMap, BTreeSet};

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
        // Stores whose slot field takes 1, 11, 17, 29 and 32 bits, each
        // slot filing one to three keys, as an event files one per
        // pattern. Past 8 buckets a 29-bit field leaves a tag narrower
        // than a bucket number, and a 32-bit one no tag at all, so a
        // shift reads homes from `keys`. Some cases put every key's top
        // 8 bits in one of two values: homes pile into the first
        // buckets, and where the tag is 8 bits or fewer two keys of one
        // slot often share it, and only `keys` can tell their homes
        // apart. Some home every key in the last few buckets, so runs
        // are long and wrap past the end.
        forall("slot_index_mirrors_btreemap", 256, |rng| {
            let capacity =
                [1, 1500, 100_000, 1 << 28, u32::MAX as usize - 1][rng.random_below(5) as usize];
            let forced = rng.random_below(3);
            let hash = |key: u64| {
                let hash = SlotIndex::hash(key);
                match forced {
                    0 => hash,
                    1 => hash & u64::MAX >> 8 | (key % 2) << 56,
                    _ => hash & u64::MAX >> 16 | (0xffff - key % 3) << 48,
                }
            };
            let keys = rng.random_range(1..64u64);
            let slots: Vec<u32> = (0..48)
                .map(|_| rng.random_below(capacity as u64) as u32)
                .chain([capacity as u32 - 1])
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            let mut index = SlotIndex::new(capacity);
            // The keys each slot files, and the slot of each key.
            let mut store: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut peak = 0;
            for _ in 0..rng.random_range(1..300u32) {
                let slot = *rng.choose(&slots).unwrap();
                let filed = |store: &BTreeMap<u32, Vec<u64>>| {
                    let others: Vec<u32> = store.keys().copied().filter(|&s| s != slot).collect();
                    others.into_iter()
                };
                let holds_slot = store.contains_key(&slot);
                if holds_slot {
                    if rng.random_bool(0.4) {
                        let others = filed(&store);
                        index.remove(slot, |s| store[&s].iter().map(|&k| hash(k)), others);
                        for key in store.remove(&slot).unwrap() {
                            model.remove(&key);
                        }
                    }
                } else {
                    let mut new: Vec<u64> = (0..rng.random_range(1..4u32))
                        .map(|_| rng.random_below(keys))
                        .filter(|key| !model.contains_key(key))
                        .collect();
                    new.sort_unstable();
                    new.dedup();
                    if !new.is_empty() {
                        model.extend(new.iter().map(|&key| (key, slot)));
                        store.insert(slot, new);
                        let others = filed(&store);
                        index.insert(slot, |s| store[&s].iter().map(|&k| hash(k)), others);
                    }
                }
                assert_eq!(index.len as usize, model.len());
                peak = peak.max(model.len());
                // Churn never grows the table past what its peak needs.
                if peak > 0 {
                    assert_eq!(index.buckets.len(), buckets_for(peak));
                }
                for probe in 0..keys {
                    let found = index.find(hash(probe), |s| store[&s].contains(&probe));
                    assert_eq!(found, model.get(&probe).copied(), "key {probe}");
                }
            }
        });
    }

    #[test]
    fn a_slot_field_fits_the_capacity_and_leaves_all_ones_empty() {
        for (capacity, bits) in [(0, 0), (1, 1), (2, 2), (1500, 11), (2047, 11), (2048, 12)] {
            assert_eq!(SlotIndex::new(capacity).slot_bits, bits, "{capacity}");
        }
        assert_eq!(SlotIndex::new(100_000).slot_bits, 17);
        assert_eq!(SlotIndex::new(u32::MAX as usize - 1).slot_bits, 32);
    }

    #[test]
    #[should_panic(expected = "past the index's capacity")]
    fn a_slot_past_the_capacity_is_refused() {
        let mut index = SlotIndex::new(4);
        index.insert(7, |_| [SlotIndex::hash(7u32)], std::iter::empty());
    }

    #[test]
    fn an_index_allocates_nothing_until_its_first_insert() {
        let index = SlotIndex::new(1500);
        assert_eq!((index.buckets.capacity(), index.heap_bytes()), (0, 0));
        assert_eq!(index.find(SlotIndex::hash(1u64), |_| true), None);
    }

    #[test]
    fn a_tag_as_wide_as_a_bucket_number_shifts_without_the_store() {
        // A β = 1500 index holding 1 500 ids in 4 096 buckets: an 11-bit
        // slot leaves a 21-bit tag, which names a 12-bit home. Removal
        // reads `keys` for the slot it removes and for no other.
        let keys = |s: u32| [SlotIndex::hash(s)];
        let mut index = SlotIndex::new(1500);
        for slot in 0..1500 {
            index.insert(slot, keys, 0..slot);
        }
        assert_eq!(index.buckets.len(), 4096);
        for slot in (0..1500).step_by(3) {
            let only = |s: u32| {
                assert_eq!(s, slot, "a shift read the store");
                keys(s)
            };
            index.remove(slot, only, std::iter::empty());
        }
        for slot in 0..1500 {
            let found = index.find(SlotIndex::hash(slot), |s| s == slot);
            assert_eq!(found, (slot % 3 != 0).then_some(slot));
        }
    }

    /// An index of `slots` slots filing `slot`'s id under its hash.
    fn filled(slots: u32) -> SlotIndex {
        let mut index = SlotIndex::new(16);
        for slot in 0..slots {
            index.insert(slot, |s| [SlotIndex::hash(s)], 0..slot);
        }
        index
    }

    #[test]
    #[should_panic(expected = "no slot 9 is filed")]
    fn removing_an_absent_entry_panics() {
        let mut index = filled(5);
        index.remove(9, |_| [SlotIndex::hash(9u32)], 0..5);
    }

    #[test]
    #[should_panic(expected = "no slot 3 is filed")]
    fn removing_from_an_empty_index_panics() {
        let mut index = SlotIndex::new(16);
        index.remove(3, |_| [SlotIndex::hash(3u32)], std::iter::empty());
    }
}
