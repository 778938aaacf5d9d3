//! The subscription table kept by every dispatcher.
//!
//! In a subscription-forwarding scheme the table maps each pattern to
//! the set of *interfaces* from which that subscription was received:
//! either the local clients (collapsed to [`Interface::Local`], since
//! the paper ignores individual clients) or a neighboring dispatcher.
//! Events are forwarded along every interface whose pattern matches,
//! except the one they arrived from — laying event routes on the
//! reverse paths of subscription propagation.
//!
//! # Dense layout
//!
//! The paper's workload is a dense, small universe (Π = 70 patterns,
//! ≤ 3 patterns per event, overlay degree ≤ 10), and matching an event
//! against the table is the per-hop hot path of the whole simulator.
//! The table is therefore *slot-indexed* rather than tree-shaped:
//!
//! - each neighboring dispatcher gets a *slot* in a per-table registry
//!   kept sorted by [`NodeId`], so slot order **is** id order;
//! - the local-subscriber flags live in one bitset over the dense
//!   [`PatternId::index`] space;
//! - the per-pattern neighbor sets are stored structure-of-arrays: one
//!   byte per pattern while the table has at most eight neighbor slots
//!   ([`Rows::Narrow`] — the paper's trees have degree ≤ 4), upgraded
//!   in place to a vector of multi-word bitsets ([`NeighborMask`])
//!   the first time a ninth slot registers;
//! - matching an event is an OR of at most `max_patterns_per_event`
//!   rows followed by set-bit iteration — no tree walk, no sort, no
//!   dedup, no allocation.
//!
//! Subscription forwarding floods every subscribed pattern to every
//! dispatcher of the tree, so at large pattern universes the table is
//! the dominant per-node allocation: the narrow layout costs ~1.14
//! bytes per pattern instead of the ~40 an array-of-structs row would,
//! which is what makes 10⁵–10⁶-node populations fit in memory.
//!
//! # The known-pattern index
//!
//! Push and summary gossip label every round with one pattern drawn
//! uniformly from the *whole* table, every 30 ms on every dispatcher.
//! Enumerating the known patterns for that draw is a scan of all Π
//! rows, so the table also keeps one bit per pattern index, set iff
//! the entry is non-empty (`known_bits`, Π/8 bytes per table — 1 KB at
//! Π = 8192 beside the 8 KB of narrow rows). It changes exactly where
//! `len()` changes — [`SubscriptionTable::insert`],
//! [`SubscriptionTable::remove`],
//! [`SubscriptionTable::remove_neighbor`] and the bulk `insert_mask`
//! of the direct subscription fill — and
//! [`SubscriptionTable::nth_known`] answers "the k-th known pattern,
//! ascending" by popcount-select over it: Π/64 word steps, no row
//! touched. [`SubscriptionTable::all_patterns`] remains the row scan
//! it always was; equality and the debug-build cross-check of every
//! gossip draw use it as the reference the index must agree with.
//!
//! Every observable iteration order is preserved across layouts:
//! neighbors enumerate in ascending id order (sorted slots), patterns
//! in ascending pattern-id order (dense index order). The golden
//! determinism suite pins this bit-for-bit.

use eps_overlay::NodeId;

use crate::event::Event;
use crate::pattern::PatternId;

/// Where a subscription came from, as seen by one dispatcher.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Interface {
    /// Some local client is subscribed (the dispatcher itself is a
    /// subscriber, in the paper's stretched terminology).
    Local,
    /// The subscription was propagated by this neighboring dispatcher.
    Neighbor(NodeId),
}

/// Number of neighbor slots the narrow (one byte per pattern) row
/// layout can hold before upgrading to [`NeighborMask`] rows.
const NARROW_SLOTS: usize = 8;

/// A bitset over the neighbor slots of one [`SubscriptionTable`], used
/// by the wide row layout.
///
/// The first 64 slots live in an inline word (`w0`) — the common case
/// — and slots beyond that spill into a vector of further words, so
/// any degree is handled without a hardcoded 64-neighbor assumption.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct NeighborMask {
    w0: u64,
    rest: Vec<u64>,
}

impl NeighborMask {
    fn set(&mut self, bit: usize) {
        if bit < 64 {
            self.w0 |= 1u64 << bit;
        } else {
            let word = bit / 64 - 1;
            if word >= self.rest.len() {
                self.rest.resize(word + 1, 0);
            }
            self.rest[word] |= 1u64 << (bit % 64);
        }
    }

    fn clear(&mut self, bit: usize) {
        if bit < 64 {
            self.w0 &= !(1u64 << bit);
        } else if let Some(word) = self.rest.get_mut(bit / 64 - 1) {
            *word &= !(1u64 << (bit % 64));
        }
    }

    fn test(&self, bit: usize) -> bool {
        if bit < 64 {
            self.w0 & (1u64 << bit) != 0
        } else {
            self.rest
                .get(bit / 64 - 1)
                .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
        }
    }

    fn is_empty(&self) -> bool {
        self.w0 == 0 && self.rest.iter().all(|&w| w == 0)
    }

    /// Set bits in ascending order. Since slots are kept sorted by
    /// node id, this is ascending-[`NodeId`] order.
    fn iter(&self) -> SetBits<'_> {
        SetBits {
            word: self.w0,
            rest: self.rest.iter(),
            base: 0,
        }
    }

    /// Rebuilds the mask, sending each set bit `b` to `f(b)` (`None`
    /// drops it). Used only when the slot registry is renumbered — a
    /// setup or reconfiguration event, never the per-event hot path.
    fn remap<F: Fn(usize) -> Option<usize>>(&mut self, f: F) {
        let bits: Vec<usize> = self.iter().collect();
        self.w0 = 0;
        self.rest.clear();
        for b in bits {
            if let Some(nb) = f(b) {
                self.set(nb);
            }
        }
    }
}

/// Iterator over the set bits of a word sequence, ascending.
struct SetBits<'a> {
    word: u64,
    rest: std::slice::Iter<'a, u64>,
    base: usize,
}

impl<'a> SetBits<'a> {
    /// The set bits of `words`, bit `i` of word `w` counting as
    /// `64·w + i`.
    fn of(words: &'a [u64]) -> Self {
        let (&word, rest) = words.split_first().unwrap_or((&0, &[]));
        SetBits {
            word,
            rest: rest.iter(),
            base: 0,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.base + bit);
            }
            self.word = *self.rest.next()?;
            self.base += 64;
        }
    }
}

/// The per-pattern neighbor sets, structure-of-arrays.
#[derive(Clone, Debug)]
enum Rows {
    /// One byte per pattern: bit `s` set means neighbor slot `s` is
    /// subscribed. Valid while at most [`NARROW_SLOTS`] slots exist.
    Narrow(Vec<u8>),
    /// One multi-word bitset per pattern, for higher degrees.
    Wide(Vec<NeighborMask>),
}

/// A dispatcher's subscription table (dense slot-indexed layout; see
/// the module docs).
///
/// # Examples
///
/// ```
/// use eps_pubsub::{Interface, PatternId, SubscriptionTable};
/// use eps_overlay::NodeId;
///
/// let mut table = SubscriptionTable::new();
/// let p = PatternId::new(3);
/// table.insert(p, Interface::Local);
/// table.insert(p, Interface::Neighbor(NodeId::new(7)));
/// assert!(table.has_local(p));
/// assert_eq!(table.neighbors_for(p, None), vec![NodeId::new(7)]);
/// ```
#[derive(Clone, Debug)]
pub struct SubscriptionTable {
    /// Slot → neighbor id, kept sorted ascending so that set-bit
    /// iteration enumerates neighbors in id order.
    slots: Vec<NodeId>,
    /// Local-subscriber flags, one bit per pattern index.
    local: Vec<u64>,
    /// Per-pattern neighbor sets, indexed by [`PatternId::index`].
    rows: Rows,
    /// Number of pattern rows allocated (grown on demand, pre-sized by
    /// [`SubscriptionTable::with_dims`]).
    patterns: usize,
    /// Number of non-empty pattern rows (`len()`).
    known: usize,
    /// The known-pattern index: bit `idx` is set iff pattern `idx` has
    /// any entry, so `known == popcount(known_bits)`. Sized with
    /// `local`.
    known_bits: Vec<u64>,
}

impl Default for SubscriptionTable {
    fn default() -> Self {
        SubscriptionTable {
            slots: Vec::new(),
            local: Vec::new(),
            rows: Rows::Narrow(Vec::new()),
            patterns: 0,
            known: 0,
            known_bits: Vec::new(),
        }
    }
}

impl SubscriptionTable {
    /// Creates an empty table that grows its pattern rows and slot
    /// registry on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table pre-sized for `universe` patterns (one
    /// dense row each) and `degree_hint` neighbor slots — derived from
    /// [`crate::PatternSpace::universe`] and the overlay degree at
    /// setup. Purely an allocation hint: the table still grows past
    /// either dimension on demand.
    pub fn with_dims(universe: usize, degree_hint: usize) -> Self {
        SubscriptionTable {
            slots: Vec::with_capacity(degree_hint.min(1024)),
            local: vec![0; universe.div_ceil(64)],
            rows: if degree_hint <= NARROW_SLOTS {
                Rows::Narrow(vec![0; universe])
            } else {
                Rows::Wide(vec![NeighborMask::default(); universe])
            },
            patterns: universe,
            known: 0,
            known_bits: vec![0; universe.div_ceil(64)],
        }
    }

    /// Grows the pattern dimension to cover `idx`.
    fn ensure(&mut self, idx: usize) {
        if idx >= self.patterns {
            self.patterns = idx + 1;
            if self.local.len() * 64 < self.patterns {
                self.local.resize(self.patterns.div_ceil(64), 0);
                self.known_bits.resize(self.patterns.div_ceil(64), 0);
            }
            match &mut self.rows {
                Rows::Narrow(rows) => rows.resize(idx + 1, 0),
                Rows::Wide(rows) => rows.resize(idx + 1, NeighborMask::default()),
            }
        }
    }

    fn local_test(&self, idx: usize) -> bool {
        self.local
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    fn row_is_empty(&self, idx: usize) -> bool {
        match &self.rows {
            Rows::Narrow(rows) => rows.get(idx).is_none_or(|&b| b == 0),
            Rows::Wide(rows) => rows.get(idx).is_none_or(|m| m.is_empty()),
        }
    }

    fn entry_is_empty(&self, idx: usize) -> bool {
        !self.local_test(idx) && self.row_is_empty(idx)
    }

    fn row_test(&self, idx: usize, slot: usize) -> bool {
        match &self.rows {
            Rows::Narrow(rows) => rows.get(idx).is_some_and(|&b| b & (1u8 << slot) != 0),
            Rows::Wide(rows) => rows.get(idx).is_some_and(|m| m.test(slot)),
        }
    }

    /// Set bits of one pattern row, ascending. Out-of-range patterns
    /// yield an empty iterator.
    fn row_bits(&self, idx: usize) -> SetBits<'_> {
        match &self.rows {
            Rows::Narrow(rows) => SetBits {
                word: rows.get(idx).copied().unwrap_or(0) as u64,
                rest: [].iter(),
                base: 0,
            },
            Rows::Wide(rows) => match rows.get(idx) {
                Some(m) => m.iter(),
                None => SetBits {
                    word: 0,
                    rest: [].iter(),
                    base: 0,
                },
            },
        }
    }

    /// Converts narrow byte rows to wide mask rows (the first time a
    /// ninth neighbor slot registers). Content-preserving.
    fn upgrade_to_wide(&mut self) {
        if let Rows::Narrow(rows) = &self.rows {
            let wide = rows
                .iter()
                .map(|&b| NeighborMask {
                    w0: b as u64,
                    rest: Vec::new(),
                })
                .collect();
            self.rows = Rows::Wide(wide);
        }
    }

    /// The slot of `neighbor`, if registered.
    fn slot_of(&self, neighbor: NodeId) -> Option<usize> {
        self.slots.binary_search(&neighbor).ok()
    }

    /// Registers `neighbor` and returns its slot. Slots stay sorted by
    /// node id; inserting in the middle renumbers the higher slots and
    /// remaps every pattern row — rare (subscription setup or overlay
    /// reconfiguration), never on the event-matching hot path.
    fn register(&mut self, neighbor: NodeId) -> usize {
        match self.slots.binary_search(&neighbor) {
            Ok(pos) => pos,
            Err(pos) => {
                if matches!(self.rows, Rows::Narrow(_)) && self.slots.len() == NARROW_SLOTS {
                    self.upgrade_to_wide();
                }
                self.slots.insert(pos, neighbor);
                if pos + 1 < self.slots.len() {
                    match &mut self.rows {
                        Rows::Narrow(rows) => {
                            // Bits at or above `pos` move up one slot.
                            // Pre-insert bits occupy slots below the
                            // old length (< NARROW_SLOTS), so the
                            // shift cannot overflow the byte.
                            let low = (1u8 << pos) - 1;
                            for b in rows.iter_mut() {
                                *b = (*b & low) | ((*b & !low) << 1);
                            }
                        }
                        Rows::Wide(rows) => {
                            for mask in rows.iter_mut() {
                                mask.remap(|b| Some(if b >= pos { b + 1 } else { b }));
                            }
                        }
                    }
                }
                pos
            }
        }
    }

    /// Records that `pattern` is subscribed via `iface`. Returns `true`
    /// if this is new information (used to decide whether to propagate
    /// further).
    pub fn insert(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let slot = match iface {
            Interface::Local => None,
            Interface::Neighbor(n) => Some(self.register(n)),
        };
        let idx = pattern.index();
        self.ensure(idx);
        let was_empty = self.entry_is_empty(idx);
        let inserted = match slot {
            None => {
                let word = &mut self.local[idx / 64];
                let bit = 1u64 << (idx % 64);
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            Some(slot) => match &mut self.rows {
                Rows::Narrow(rows) => {
                    let bit = 1u8 << slot;
                    let new = rows[idx] & bit == 0;
                    rows[idx] |= bit;
                    new
                }
                Rows::Wide(rows) => {
                    let new = !rows[idx].test(slot);
                    rows[idx].set(slot);
                    new
                }
            },
        };
        if inserted && was_empty {
            self.known += 1;
            self.known_bits[idx / 64] |= 1u64 << (idx % 64);
        }
        inserted
    }

    /// Records every pattern whose bit is set in `mask` (bit `i` of
    /// word `w` is pattern index `64·w + i`) as subscribed via
    /// `neighbor`: the final state of one [`SubscriptionTable::insert`]
    /// per set bit, reached by one sequential sweep over the rows that
    /// updates the known-pattern index a word at a time. An all-zero
    /// mask changes nothing — it does not register `neighbor` either,
    /// as zero inserts would not.
    pub(crate) fn insert_mask(&mut self, neighbor: NodeId, mask: &[u64]) {
        let Some(top) = mask.iter().rposition(|&w| w != 0) else {
            return;
        };
        let mask = &mask[..=top];
        self.ensure(top * 64 + 63 - mask[top].leading_zeros() as usize);
        let slot = self.register(neighbor);
        match &mut self.rows {
            Rows::Narrow(rows) => {
                let bit = 1u8 << slot;
                for idx in SetBits::of(mask) {
                    rows[idx] |= bit;
                }
            }
            Rows::Wide(rows) => {
                for idx in SetBits::of(mask) {
                    rows[idx].set(slot);
                }
            }
        }
        for (known, &word) in self.known_bits.iter_mut().zip(mask) {
            self.known += (word & !*known).count_ones() as usize;
            *known |= word;
        }
    }

    /// Removes a subscription entry. Returns `true` if it was present.
    pub fn remove(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let slot = match iface {
            Interface::Local => None,
            Interface::Neighbor(n) => match self.slot_of(n) {
                Some(slot) => Some(slot),
                None => return false,
            },
        };
        let idx = pattern.index();
        if idx >= self.patterns {
            return false;
        }
        let removed = match slot {
            None => {
                let word = &mut self.local[idx / 64];
                let bit = 1u64 << (idx % 64);
                let was = *word & bit != 0;
                *word &= !bit;
                was
            }
            Some(slot) => match &mut self.rows {
                Rows::Narrow(rows) => {
                    let bit = 1u8 << slot;
                    let was = rows[idx] & bit != 0;
                    rows[idx] &= !bit;
                    was
                }
                Rows::Wide(rows) => {
                    let was = rows[idx].test(slot);
                    rows[idx].clear(slot);
                    was
                }
            },
        };
        if removed && self.entry_is_empty(idx) {
            self.known -= 1;
            self.known_bits[idx / 64] &= !(1u64 << (idx % 64));
        }
        removed
    }

    /// Drops every entry learned from `neighbor` (when the link to it
    /// breaks). Returns the affected patterns, in ascending pattern-id
    /// order (dense row order).
    pub fn remove_neighbor(&mut self, neighbor: NodeId) -> Vec<PatternId> {
        let Some(slot) = self.slot_of(neighbor) else {
            return Vec::new();
        };
        let mut affected = Vec::new();
        for idx in 0..self.patterns {
            if self.row_test(idx, slot) {
                match &mut self.rows {
                    Rows::Narrow(rows) => rows[idx] &= !(1u8 << slot),
                    Rows::Wide(rows) => rows[idx].clear(slot),
                }
                affected.push(PatternId::new(idx as u16));
                if self.entry_is_empty(idx) {
                    self.known -= 1;
                    self.known_bits[idx / 64] &= !(1u64 << (idx % 64));
                }
            }
        }
        // Retire the slot and renumber the higher ones so the registry
        // never accumulates dead neighbors across reconfigurations.
        self.slots.remove(slot);
        match &mut self.rows {
            Rows::Narrow(rows) => {
                // Bits above `slot` move down one. Shifted in 16 bits:
                // retiring slot 7 shifts by 8, which a `u8` cannot.
                let low = (1u8 << slot) - 1;
                for b in rows.iter_mut() {
                    *b = (*b & low) | ((u16::from(*b) >> (slot + 1)) << slot) as u8;
                }
            }
            Rows::Wide(rows) => {
                for mask in rows.iter_mut() {
                    mask.remap(|b| match b.cmp(&slot) {
                        std::cmp::Ordering::Less => Some(b),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some(b - 1),
                    });
                }
            }
        }
        affected
    }

    /// `true` if a local client subscribes to `pattern`.
    pub fn has_local(&self, pattern: PatternId) -> bool {
        self.local_test(pattern.index())
    }

    /// `true` if the table has any entry (local or remote) for
    /// `pattern`.
    pub fn knows(&self, pattern: PatternId) -> bool {
        let idx = pattern.index();
        idx < self.patterns && !self.entry_is_empty(idx)
    }

    /// The neighbor interfaces subscribed to `pattern`, excluding
    /// `exclude` (typically the message's arrival interface), in id
    /// order.
    pub fn neighbors_for(&self, pattern: PatternId, exclude: Option<NodeId>) -> Vec<NodeId> {
        self.neighbors_for_iter(pattern, exclude).collect()
    }

    /// Allocation-free variant of [`SubscriptionTable::neighbors_for`]:
    /// iterates the subscribed neighbor interfaces in id order without
    /// materializing a `Vec`.
    pub fn neighbors_for_iter(
        &self,
        pattern: PatternId,
        exclude: Option<NodeId>,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.row_bits(pattern.index())
            .map(|slot| self.slots[slot])
            .filter(move |&n| Some(n) != exclude)
    }

    /// The distinct neighbors an event must be forwarded to: the union
    /// of [`SubscriptionTable::neighbors_for`] over the event's
    /// patterns, minus the arrival interface.
    pub fn matching_neighbors(&self, event: &Event, from: Option<NodeId>) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.matching_neighbors_into(event, from, &mut out);
        out
    }

    /// Like [`SubscriptionTable::matching_neighbors`], but reuses the
    /// caller's buffer: `out` is cleared and refilled, so a dispatcher
    /// forwarding many events allocates nothing in steady state.
    ///
    /// This is the per-hop hot path: an OR of the event's pattern
    /// rows, then set-bit iteration. The union is deduplicated and in
    /// ascending id order by construction — no sort, no dedup.
    pub fn matching_neighbors_into(
        &self,
        event: &Event,
        from: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        match &self.rows {
            Rows::Narrow(rows) => {
                let mut acc = 0u64;
                for p in event.patterns() {
                    acc |= rows.get(p.index()).copied().unwrap_or(0) as u64;
                }
                if let Some(f) = from {
                    if let Some(slot) = self.slot_of(f) {
                        acc &= !(1u64 << slot);
                    }
                }
                while acc != 0 {
                    let slot = acc.trailing_zeros() as usize;
                    acc &= acc - 1;
                    out.push(self.slots[slot]);
                }
            }
            Rows::Wide(rows) if self.slots.len() <= 64 => {
                // Single-word fast path: the whole neighbor set fits w0.
                let mut acc = 0u64;
                for p in event.patterns() {
                    if let Some(m) = rows.get(p.index()) {
                        acc |= m.w0;
                    }
                }
                if let Some(f) = from {
                    if let Some(slot) = self.slot_of(f) {
                        acc &= !(1u64 << slot);
                    }
                }
                while acc != 0 {
                    let slot = acc.trailing_zeros() as usize;
                    acc &= acc - 1;
                    out.push(self.slots[slot]);
                }
            }
            Rows::Wide(rows) => {
                let mut acc = NeighborMask::default();
                for p in event.patterns() {
                    if let Some(m) = rows.get(p.index()) {
                        acc.w0 |= m.w0;
                        if acc.rest.len() < m.rest.len() {
                            acc.rest.resize(m.rest.len(), 0);
                        }
                        for (a, &w) in acc.rest.iter_mut().zip(&m.rest) {
                            *a |= w;
                        }
                    }
                }
                if let Some(f) = from {
                    if let Some(slot) = self.slot_of(f) {
                        acc.clear(slot);
                    }
                }
                out.extend(acc.iter().map(|slot| self.slots[slot]));
            }
        }
    }

    /// `true` if the event matches a local subscription.
    pub fn matches_locally(&self, event: &Event) -> bool {
        event.patterns().any(|p| self.has_local(p))
    }

    /// Patterns with a local subscription, in order.
    pub fn local_patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        // Set-bit order is ascending pattern-id order.
        SetBits::of(&self.local).map(|idx| PatternId::new(idx as u16))
    }

    /// Every pattern known to the table — locally subscribed or
    /// learned through forwarding. The push algorithm draws its gossip
    /// pattern from this set ("p is selected by considering the whole
    /// subscription table") through [`SubscriptionTable::nth_known`];
    /// this O(Π) row scan is the reference that index is checked
    /// against.
    pub fn all_patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        // Dense row order is ascending pattern-id order.
        (0..self.patterns)
            .filter(|&idx| !self.entry_is_empty(idx))
            .map(|idx| PatternId::new(idx as u16))
    }

    /// The `k`-th known pattern in ascending pattern-id order — what
    /// `all_patterns().nth(k)` returns — by popcount-select over the
    /// known-pattern index: Π/64 word steps and no row is touched.
    /// `None` when `k >= len()`.
    pub fn nth_known(&self, k: usize) -> Option<PatternId> {
        let mut k = k;
        for (w, &word) in self.known_bits.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut word = word;
                for _ in 0..k {
                    word &= word - 1;
                }
                let idx = w * 64 + word.trailing_zeros() as usize;
                return Some(PatternId::new(idx as u16));
            }
            k -= ones;
        }
        None
    }

    /// Number of patterns known.
    pub fn len(&self) -> usize {
        self.known
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }
}

/// Semantic equality: same patterns, each with the same local flag and
/// neighbor set. Two tables built through different insertion
/// histories (and therefore with different slot registries, row
/// layouts, or row capacities) compare equal when their observable
/// content matches.
impl PartialEq for SubscriptionTable {
    fn eq(&self, other: &Self) -> bool {
        if self.known != other.known {
            return false;
        }
        self.all_patterns().eq(other.all_patterns())
            && self.all_patterns().all(|p| {
                self.has_local(p) == other.has_local(p)
                    && self
                        .neighbors_for_iter(p, None)
                        .eq(other.neighbors_for_iter(p, None))
            })
    }
}

impl Eq for SubscriptionTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;

    fn ev(patterns: &[u16]) -> Event {
        Event::new(
            EventId::new(NodeId::new(0), 1),
            patterns.iter().map(|&p| (PatternId::new(p), 0)).collect(),
        )
    }

    #[test]
    fn insert_is_idempotent() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(1);
        assert!(t.insert(p, Interface::Local));
        assert!(!t.insert(p, Interface::Local));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_cleans_up_empty_patterns() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(1);
        t.insert(p, Interface::Local);
        assert!(t.remove(p, Interface::Local));
        assert!(!t.remove(p, Interface::Local));
        assert!(t.is_empty());
        assert!(!t.knows(p));
    }

    #[test]
    fn neighbors_for_excludes_arrival_interface() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(2);
        t.insert(p, Interface::Neighbor(NodeId::new(1)));
        t.insert(p, Interface::Neighbor(NodeId::new(2)));
        t.insert(p, Interface::Local);
        assert_eq!(
            t.neighbors_for(p, Some(NodeId::new(1))),
            vec![NodeId::new(2)]
        );
        assert_eq!(t.neighbors_for(p, None).len(), 2);
    }

    #[test]
    fn matching_neighbors_dedups_across_patterns() {
        let mut t = SubscriptionTable::new();
        let n = NodeId::new(9);
        t.insert(PatternId::new(1), Interface::Neighbor(n));
        t.insert(PatternId::new(2), Interface::Neighbor(n));
        let e = ev(&[1, 2]);
        assert_eq!(t.matching_neighbors(&e, None), vec![n]);
        assert_eq!(t.matching_neighbors(&e, Some(n)), Vec::<NodeId>::new());
    }

    #[test]
    fn matches_locally_uses_local_interface_only() {
        let mut t = SubscriptionTable::new();
        t.insert(PatternId::new(1), Interface::Neighbor(NodeId::new(3)));
        assert!(!t.matches_locally(&ev(&[1])));
        t.insert(PatternId::new(1), Interface::Local);
        assert!(t.matches_locally(&ev(&[1])));
        assert!(!t.matches_locally(&ev(&[2])));
    }

    #[test]
    fn remove_neighbor_drops_all_its_entries() {
        let mut t = SubscriptionTable::new();
        let n = NodeId::new(4);
        t.insert(PatternId::new(1), Interface::Neighbor(n));
        t.insert(PatternId::new(2), Interface::Neighbor(n));
        t.insert(PatternId::new(2), Interface::Local);
        let affected = t.remove_neighbor(n);
        assert_eq!(affected, vec![PatternId::new(1), PatternId::new(2)]);
        assert!(!t.knows(PatternId::new(1)));
        assert!(t.has_local(PatternId::new(2)));
    }

    #[test]
    fn pattern_views_are_ordered() {
        let mut t = SubscriptionTable::new();
        t.insert(PatternId::new(5), Interface::Local);
        t.insert(PatternId::new(1), Interface::Neighbor(NodeId::new(2)));
        t.insert(PatternId::new(3), Interface::Local);
        let local: Vec<_> = t.local_patterns().collect();
        assert_eq!(local, vec![PatternId::new(3), PatternId::new(5)]);
        let all: Vec<_> = t.all_patterns().collect();
        assert_eq!(
            all,
            vec![PatternId::new(1), PatternId::new(3), PatternId::new(5)]
        );
    }

    #[test]
    fn neighbor_enumeration_is_id_ordered_regardless_of_insertion_order() {
        // Out-of-order registrations renumber slots; the enumeration
        // order must stay ascending by node id.
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(0);
        for raw in [9u32, 2, 7, 0, 5] {
            t.insert(p, Interface::Neighbor(NodeId::new(raw)));
        }
        let ids: Vec<u32> = t
            .neighbors_for_iter(p, None)
            .map(|n| n.index() as u32)
            .collect();
        assert_eq!(ids, vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn degree_above_64_spills_into_extra_words() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(1);
        let q = PatternId::new(2);
        for raw in 0..130u32 {
            let target = if raw % 2 == 0 { p } else { q };
            t.insert(target, Interface::Neighbor(NodeId::new(raw)));
        }
        assert_eq!(t.neighbors_for(p, None).len(), 65);
        assert_eq!(t.neighbors_for(q, None).len(), 65);
        let union = t.matching_neighbors(&ev(&[1, 2]), None);
        assert_eq!(union.len(), 130);
        assert!(union.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        // Exclusion works past the inline word too.
        let minus = t.matching_neighbors(&ev(&[1, 2]), Some(NodeId::new(100)));
        assert_eq!(minus.len(), 129);
        assert!(!minus.contains(&NodeId::new(100)));
        // Removing a low slot renumbers the spilled bits correctly.
        let affected = t.remove_neighbor(NodeId::new(0));
        assert_eq!(affected, vec![p]);
        assert_eq!(t.matching_neighbors(&ev(&[1, 2]), None).len(), 129);
    }

    #[test]
    fn with_dims_preallocates_without_changing_behavior() {
        let mut a = SubscriptionTable::with_dims(70, 10);
        let mut b = SubscriptionTable::new();
        for (p, n) in [(3u16, 5u32), (69, 1), (3, 9)] {
            assert_eq!(
                a.insert(PatternId::new(p), Interface::Neighbor(NodeId::new(n))),
                b.insert(PatternId::new(p), Interface::Neighbor(NodeId::new(n)))
            );
        }
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn equality_is_semantic_not_structural() {
        // Same content via different insertion orders (and therefore
        // different registry histories) compares equal.
        let mut a = SubscriptionTable::new();
        let mut b = SubscriptionTable::with_dims(16, 4);
        for n in [3u32, 1, 2] {
            a.insert(PatternId::new(7), Interface::Neighbor(NodeId::new(n)));
        }
        for n in [1u32, 2, 3] {
            b.insert(PatternId::new(7), Interface::Neighbor(NodeId::new(n)));
        }
        assert_eq!(a, b);
        b.insert(PatternId::new(7), Interface::Local);
        assert_ne!(a, b);
    }

    #[test]
    fn narrow_rows_upgrade_to_wide_at_the_ninth_slot() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(3);
        // Register nine neighbors out of order, crossing the upgrade
        // boundary mid-insert; content must be preserved throughout.
        for raw in [8u32, 1, 6, 3, 9, 0, 5, 7, 2] {
            t.insert(p, Interface::Neighbor(NodeId::new(raw)));
        }
        let ids: Vec<u32> = t
            .neighbors_for_iter(p, None)
            .map(|n| n.index() as u32)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
        // And a reference table built post-upgrade agrees semantically.
        let mut r = SubscriptionTable::new();
        for raw in 0..=9u32 {
            if raw != 4 {
                r.insert(p, Interface::Neighbor(NodeId::new(raw)));
            }
        }
        assert_eq!(t, r);
    }

    /// The index invariants, checked against the row scan.
    fn assert_index_matches_scan(t: &SubscriptionTable, step: usize) {
        let scan: Vec<PatternId> = t.all_patterns().collect();
        assert_eq!(t.len(), scan.len(), "step {step}: len vs scan");
        for (k, &p) in scan.iter().enumerate() {
            assert_eq!(t.nth_known(k), Some(p), "step {step}: nth_known({k})");
        }
        assert_eq!(t.nth_known(t.len()), None, "step {step}: past the end");
    }

    #[test]
    fn known_index_tracks_the_scan_through_a_random_walk() {
        // Every mutation that can change `known` — including the bulk
        // `insert_mask`, mirrored bit by bit through `insert` on a twin
        // table — on narrow rows, wide rows and rows that upgrade
        // mid-walk, with patterns drawn past the `with_dims` universe.
        const STEPS: usize = 10_000;
        const PATTERNS: u64 = 150;
        let layouts = [
            (SubscriptionTable::with_dims(40, 4), 8u64, false),
            (SubscriptionTable::with_dims(40, 12), 12, true),
            (SubscriptionTable::new(), 12, true),
        ];
        for (seed, (mut table, neighbors, ends_wide)) in layouts.into_iter().enumerate() {
            let mut twin = table.clone();
            let mut rng = eps_sim::Rng::from_seed(seed as u64 + 1);
            for step in 0..STEPS {
                let pattern = PatternId::new(rng.random_below(PATTERNS) as u16);
                let neighbor = NodeId::new(rng.random_below(neighbors) as u32);
                let iface = if rng.random_below(4) == 0 {
                    Interface::Local
                } else {
                    Interface::Neighbor(neighbor)
                };
                match rng.random_below(16) {
                    0..=6 => {
                        assert_eq!(table.insert(pattern, iface), twin.insert(pattern, iface));
                    }
                    7..=12 => {
                        assert_eq!(table.remove(pattern, iface), twin.remove(pattern, iface));
                    }
                    13 => {
                        assert_eq!(
                            table.remove_neighbor(neighbor),
                            twin.remove_neighbor(neighbor)
                        );
                    }
                    _ => {
                        // Sparse three-word masks, sometimes all-zero.
                        let mask: Vec<u64> = (0..3)
                            .map(|_| match rng.random_below(3) {
                                0 => 0,
                                _ => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                            })
                            .collect();
                        table.insert_mask(neighbor, &mask);
                        for idx in SetBits::of(&mask) {
                            twin.insert(PatternId::new(idx as u16), Interface::Neighbor(neighbor));
                        }
                        assert_eq!(table, twin, "step {step}: insert_mask vs insert");
                        assert_eq!(table.slots, twin.slots, "step {step}: slot registry");
                    }
                }
                assert_index_matches_scan(&table, step);
            }
            assert_eq!(table, twin);
            assert_index_matches_scan(&twin, STEPS);
            assert_eq!(matches!(table.rows, Rows::Wide(_)), ends_wide);
        }
    }

    #[test]
    fn narrow_mid_insert_renumbers_and_removal_collapses() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(0);
        let q = PatternId::new(1);
        t.insert(p, Interface::Neighbor(NodeId::new(10)));
        t.insert(q, Interface::Neighbor(NodeId::new(30)));
        // Mid-insert between the two registered slots.
        t.insert(p, Interface::Neighbor(NodeId::new(20)));
        assert_eq!(
            t.neighbors_for(p, None),
            vec![NodeId::new(10), NodeId::new(20)]
        );
        assert_eq!(t.neighbors_for(q, None), vec![NodeId::new(30)]);
        // Removing the lowest slot shifts the others down.
        let affected = t.remove_neighbor(NodeId::new(10));
        assert_eq!(affected, vec![p]);
        assert_eq!(t.neighbors_for(p, None), vec![NodeId::new(20)]);
        assert_eq!(t.neighbors_for(q, None), vec![NodeId::new(30)]);
    }
}
