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
//! # Layout: one shared default, a few explicit rows
//!
//! Subscription forwarding floods every subscribed pattern to every
//! dispatcher of the tree, so every table knows nearly every pattern —
//! but almost all of those entries are the same route. A dispatcher off
//! the subtree spanned by a pattern's subscribers routes that pattern
//! one way only: towards the subtree, which, with the tree rooted where
//! the bulk fill roots it, is its parent. The table therefore keeps two
//! parts:
//!
//! - the **shared default**: one neighbor slot and an `Arc` bitset of
//!   the patterns it applies to. The bulk fill
//!   ([`crate::flood_subscriptions_direct`]) builds the bitset of all
//!   subscribed patterns once (per component of a forest) and hands the
//!   same allocation to every dispatcher, so a pattern in it with no
//!   explicit row costs a table nothing;
//! - **explicit rows**, only where the entry is something else: a local
//!   subscriber, a route towards a child, no route to the default. On a
//!   filled tree that is the dispatcher's share of each pattern's
//!   subscriber subtree — 20 rows per dispatcher on average at
//!   N = 4000, Π = 8192 — and the fill writes them, map and counts in
//!   one pass per table, each sized exactly. The fill writes a table
//!   with no neighbor yet: a fresh one, or one whose routes
//!   [`crate::Dispatcher::reset_routing_state`] cleared. A table built
//!   one [`SubscriptionTable::insert`] at a time (the message-at-a-time
//!   flood) has no default and holds every entry as a row.
//!
//! A row is one `u64` over the interfaces: bit 0 is the local flag and
//! bit `s + 1` neighbor slot `s`, so a table routes to at most
//! [`MAX_NEIGHBORS`] = 63 neighbors. The paper's trees have degree 4;
//! `ScenarioConfig::validate` refuses a degree bound above the row's
//! width, and registering a 64th neighbor panics. Each neighbor's slot
//! lives in a registry kept sorted by [`NodeId`], so slot order **is**
//! id order. Rows are packed
//! in pattern order behind a map of the patterns that have one, sized
//! by the rows rather than by Π: a presence bitset over the Π/64 words
//! of the pattern bitset (one word per 4096 patterns), only the
//! non-empty pattern words, in order, and a 16-bit rank per word of
//! each level, all in one allocation. At N = 4000, Π = 8192 that is 2
//! presence words and ≈ 10 pattern words, ≈ 120 B, where a Π-bit map
//! with a count per word cost ≈ 1 KB. Finding a pattern's row is a bit
//! test and a popcount at each level — no search. Matching an event is
//! an OR of at most `max_patterns_per_event` rows followed by set-bit
//! iteration — no tree walk, no sort, no dedup, no allocation.
//!
//! # The known-pattern index
//!
//! Push and summary gossip label every round with one pattern drawn
//! uniformly from the *whole* table, every 30 ms on every dispatcher.
//! [`SubscriptionTable::nth_known`] answers "the k-th known pattern,
//! ascending" where the table lies: no copy, no allocation, no pass
//! over the Π/64 pattern words. The known set is the shared bitset,
//! plus the explicit rows outside it, minus the empty ones inside it —
//! the *delta rows*, kept as one sorted list, boxed at the first. Below
//! a delta row the known patterns are the shared ones (an O(1) rank
//! from the bitset's per-word counts, `PatternBits`), plus the outside
//! rows before it, minus the emptied ones; so the select walks the list
//! to the answer, where it is an outside row, or else to the first
//! delta row above it and searches the shared counts, shifted by the
//! two. The fill leaves every dispatcher but the root with no delta
//! row: one binary search over one cache-hot bitset. A table with no
//! default (the root, a message-flooded table) keeps no list: every
//! row is a known pattern. The list's length and its outside count
//! give [`SubscriptionTable::len`] in O(1), and
//! [`SubscriptionTable::all_patterns`] is the per-pattern scan that
//! equality and the debug-build check of every gossip draw compare to.
//!
//! Every observable iteration order is preserved: neighbors enumerate
//! in ascending id order (sorted slots), patterns in ascending
//! pattern-id order (map and row order). The golden determinism suite
//! pins this bit-for-bit.

use std::sync::Arc;

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

/// The most neighbors one table routes to: a row is one `u64`, the
/// local flag and one bit per neighbor slot.
pub const MAX_NEIGHBORS: usize = 63;

/// Row bit of [`Interface::Local`]; neighbor slot `s` is bit `s + 1`.
const LOCAL: u64 = 1;

/// Row bit of neighbor slot `slot`.
fn slot_bit(slot: usize) -> u64 {
    1 << (slot + 1)
}

/// Panics unless `slots` neighbor slots fit in a row.
fn assert_fits(slots: usize) {
    assert!(
        slots <= MAX_NEIGHBORS,
        "a table routes to at most MAX_NEIGHBORS = {MAX_NEIGHBORS} neighbors (a row is one \
         u64: the local flag and a bit per neighbor), not {slots}"
    );
}

/// Bit `idx` of a bitset (bit `i` of word `w` is `64·w + i`); `false`
/// past its end.
pub(crate) fn test_bit(words: &[u64], idx: usize) -> bool {
    words
        .get(idx / 64)
        .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
}

/// The bit index of the `k`-th set bit of `word`, which has more than
/// `k`.
fn select_in(mut word: u64, k: usize) -> usize {
    for _ in 0..k {
        word &= word - 1;
    }
    word.trailing_zeros() as usize
}

/// The pattern bitset of a default route, built once and shared by
/// every table it is the default of (bit `i` of word `w` is pattern
/// index `64·w + i`), followed in the same allocation by the count of
/// set bits before each word: a select over it is a binary search,
/// not a popcount pass over Π/64 words, and reading a bit costs what
/// it cost in a plain `Arc<[u64]>`.
#[derive(Clone, Debug)]
pub(crate) struct PatternBits(Arc<[u64]>);

impl From<Vec<u64>> for PatternBits {
    fn from(mut words: Vec<u64>) -> Self {
        let w = words.len();
        let mut below = 0;
        for i in 0..w {
            words.push(below);
            below += u64::from(words[i].count_ones());
        }
        PatternBits(words.into())
    }
}

impl std::ops::Deref for PatternBits {
    type Target = [u64];

    /// The bitset's words.
    fn deref(&self) -> &[u64] {
        &self.0[..self.0.len() / 2]
    }
}

impl PatternBits {
    /// Set bits before each word.
    fn before(&self) -> &[u64] {
        &self.0[self.0.len() / 2..]
    }

    /// Set bits in all.
    pub(crate) fn count(&self) -> usize {
        match (self.last(), self.before().last()) {
            (Some(word), Some(&below)) => below as usize + word.count_ones() as usize,
            _ => 0,
        }
    }

    /// Set bits below bit `idx`.
    fn rank(&self, idx: usize) -> usize {
        match self.get(idx / 64) {
            Some(word) => {
                let below = word & ((1 << (idx % 64)) - 1);
                self.before()[idx / 64] as usize + below.count_ones() as usize
            }
            None => self.count(),
        }
    }

    /// The `k`-th set bit as a pattern; `None` past the last.
    // Inlined into `nth_known`: called out of line, the `--churn 0.01`
    // cell (N = 4000, Π = 8192) ran ≈ 20 % slower over 8 alternating
    // pairs.
    #[inline]
    fn select(&self, k: usize) -> Option<PatternId> {
        if k >= self.count() {
            return None;
        }
        let before = self.before();
        let w = before.partition_point(|&below| below as usize <= k) - 1;
        let bit = select_in(self[w], k - before[w] as usize);
        Some(PatternId::new((w * 64 + bit) as u16))
    }
}

/// `row` with a zero opened at bit `bit`: the bits at and above it move
/// up one. The row's top bit must be clear.
fn insert_zero_bit(row: u64, bit: usize) -> u64 {
    let low = (1u64 << bit) - 1;
    (row & low) | ((row & !low) << 1)
}

/// The set bits of `word`, ascending, each offset by `base`.
fn bits(mut word: u64, base: usize) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
}

/// The set bits of a bitset, ascending (bit `i` of word `w` is
/// `64·w + i`).
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(w, &word)| bits(word, 64 * w))
}

/// Which patterns have an explicit row, and where it is: a two-level
/// rank map sized by the rows a table holds, not by Π. A presence
/// bitset over the Π/64 words of the pattern bitset marks the words
/// that hold a row — one presence word per 4096 patterns, at most 16 —
/// and only those words are kept, in order, each with the count of
/// rows before it. Finding a row is a bit test and a popcount at each
/// level, with no search.
#[derive(Clone, Debug, Default)]
struct RowMap {
    /// `presence` presence words, then the `words` non-empty map words,
    /// then their row counts as `u16`s packed four to a word. Empty —
    /// no allocation — while no pattern has a row.
    buf: Box<[u64]>,
    /// Presence words: one per 4096 patterns, up to the highest row's.
    presence: u32,
    /// Non-empty map words.
    words: u32,
}

impl RowMap {
    /// The map whose non-empty words are `entries`: (map word index,
    /// word), ascending by index, no word zero.
    fn from_words(entries: &[(usize, u64)]) -> Self {
        let Some(&(top, _)) = entries.last() else {
            return RowMap::default();
        };
        let (p, k) = (top / 64 + 1, entries.len());
        let mut map = RowMap {
            buf: vec![0; p + k + k.div_ceil(4)].into(),
            presence: p as u32,
            words: k as u32,
        };
        let mut rows = 0;
        for (at, &(w, word)) in entries.iter().enumerate() {
            map.buf[w / 64] |= 1 << (w % 64);
            map.buf[p + at] = word;
            map.set_rows_before(at, rows);
            rows += word.count_ones() as usize;
        }
        map
    }

    /// Rows of the patterns below the non-empty word at position `at`.
    #[inline]
    fn rows_before(&self, at: usize) -> usize {
        let i = (self.presence + self.words) as usize + at / 4;
        usize::from((self.buf[i] >> (at % 4 * 16)) as u16)
    }

    fn set_rows_before(&mut self, at: usize, rows: usize) {
        debug_assert!(rows <= usize::from(u16::MAX));
        let (i, shift) = ((self.presence + self.words) as usize + at / 4, at % 4 * 16);
        self.buf[i] = (self.buf[i] & !(0xffff << shift)) | (rows as u64) << shift;
    }

    /// Map word `w` — zero where no pattern of it has a row — and its
    /// position among the non-empty words: the set presence bits before
    /// its own. A map word is read only where its presence bit is set.
    /// Presence words are sparse, so the bits below the one tested are
    /// mostly none or one, counted without a popcount (a dozen
    /// instructions on x86-64 without `popcnt`): over 12 alternating
    /// `microbench` runs on a 2-vCPU Xeon, `table_matching` 41.8 →
    /// 34.1 ns and `table_matching_dense` 42.2 → 37.0 ns in the median,
    /// each faster in 9 of 12 pairs.
    #[inline]
    fn find(&self, w: usize) -> (usize, u64) {
        let (p, pw, bit) = (self.presence as usize, w / 64, w % 64);
        let Some(&present) = self.buf[..p].get(pw) else {
            return (0, 0);
        };
        if (present >> bit) & 1 == 0 {
            return (0, 0);
        }
        let below = present & ((1 << bit) - 1);
        let here = if below & below.wrapping_sub(1) == 0 {
            usize::from(below != 0)
        } else {
            below.count_ones() as usize
        };
        let at = here
            + (self.buf[..pw].iter())
                .map(|x| x.count_ones() as usize)
                .sum::<usize>();
        (at, self.buf[p + at])
    }

    /// Index of pattern `idx`'s row, if it has one.
    #[inline]
    fn row_of(&self, idx: usize) -> Option<usize> {
        let (at, word) = self.find(idx / 64);
        let bit = 1u64 << (idx % 64);
        (word & bit != 0).then(|| self.rows_before(at) + (word & (bit - 1)).count_ones() as usize)
    }

    /// The non-empty words with their indexes, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let p = self.presence as usize;
        let words = &self.buf[p..p + self.words as usize];
        set_bits(&self.buf[..p]).zip(words.iter().copied())
    }

    /// The patterns with a row, ascending: the `r`-th has row `r`.
    fn patterns(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries().flat_map(|(w, word)| bits(word, 64 * w))
    }

    /// One past the highest map word with a row.
    fn word_bound(&self) -> usize {
        match self.presence as usize {
            0 => 0,
            p => 64 * p - self.buf[p - 1].leading_zeros() as usize,
        }
    }

    /// Gives pattern `idx`, which has no row, one, and returns its
    /// index. A pattern in a word that already holds a row sets a bit
    /// and moves the row counts after it; one in a new word rebuilds the
    /// map.
    fn insert(&mut self, idx: usize) -> usize {
        let (w, bit) = (idx / 64, 1u64 << (idx % 64));
        let (at, word) = self.find(w);
        if word == 0 {
            let mut entries = Vec::with_capacity(self.words as usize + 1);
            entries.extend(self.entries());
            let at = entries.partition_point(|&(v, _)| v < w);
            entries.insert(at, (w, bit));
            *self = RowMap::from_words(&entries);
            return self.rows_before(at);
        }
        self.buf[self.presence as usize + at] |= bit;
        self.shift_rows(at, 1);
        self.rows_before(at) + (word & (bit - 1)).count_ones() as usize
    }

    /// Takes pattern `idx`'s row out of the map.
    fn remove(&mut self, idx: usize) {
        let (w, bit) = (idx / 64, 1u64 << (idx % 64));
        let (at, word) = self.find(w);
        debug_assert!(word & bit != 0, "pattern {idx} has a row");
        if word == bit {
            let mut entries: Vec<(usize, u64)> = self.entries().collect();
            entries.remove(at);
            *self = RowMap::from_words(&entries);
        } else {
            self.buf[self.presence as usize + at] &= !bit;
            self.shift_rows(at, -1);
        }
    }

    /// Adds `delta` to the rows before every non-empty word after the
    /// one at position `at`.
    fn shift_rows(&mut self, at: usize, delta: isize) {
        for i in at + 1..self.words as usize {
            self.set_rows_before(i, self.rows_before(i).wrapping_add_signed(delta));
        }
    }
}

/// The shared default route of a table (see the module docs).
#[derive(Clone, Debug)]
struct Shared {
    /// Slot of the default neighbor.
    slot: usize,
    /// The patterns it applies to.
    patterns: PatternBits,
}

/// A table's delta rows, ascending (see the module docs): its explicit
/// rows outside the shared set — never empty: such a row is deleted
/// when it empties — and its empty ones inside it, each withholding
/// the default route from its pattern.
#[derive(Clone, Debug, Default)]
struct Delta {
    patterns: Vec<PatternId>,
    /// How many of them lie outside the shared set.
    outside: usize,
}

/// A dispatcher's subscription table (shared default plus explicit
/// rows; see the module docs).
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
/// assert!(table.neighbors_for(p, None).eq([NodeId::new(7)]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SubscriptionTable {
    /// Slot → neighbor id, kept sorted ascending so that set-bit
    /// iteration enumerates neighbors in id order.
    slots: Vec<NodeId>,
    /// The default route, if any.
    shared: Option<Shared>,
    /// The patterns with an explicit row.
    map: RowMap,
    /// The explicit rows, in pattern order.
    rows: Vec<u64>,
    /// The delta rows, made at the first; a table with no default keeps
    /// none (every row is one).
    delta: Option<Box<Delta>>,
}

impl SubscriptionTable {
    /// Creates an empty table; rows and the slot registry grow on
    /// demand.
    pub fn new() -> Self {
        Self::default()
    }

    fn in_shared(&self, idx: usize) -> bool {
        self.shared
            .as_ref()
            .is_some_and(|s| test_bit(&s.patterns, idx))
    }

    /// Pattern `idx`'s entry: its explicit row, else the default route
    /// where the pattern is shared.
    #[inline]
    fn entry(&self, idx: usize) -> u64 {
        match self.map.row_of(idx) {
            Some(r) => self.rows[r],
            None => self.default_entry(idx),
        }
    }

    /// The default route of pattern `idx`, which has no explicit row.
    #[inline]
    fn default_entry(&self, idx: usize) -> u64 {
        match &self.shared {
            Some(s) if test_bit(&s.patterns, idx) => slot_bit(s.slot),
            _ => 0,
        }
    }

    fn knows_index(&self, idx: usize) -> bool {
        self.entry(idx) != 0
    }

    /// One past the largest pattern index any part of the table covers.
    fn pattern_bound(&self) -> usize {
        let shared = self.shared.as_ref().map_or(0, |s| s.patterns.len());
        64 * shared.max(self.map.word_bound())
    }

    /// Creates the explicit row of `idx`, which has none, with the
    /// entry's current content: the default route where the pattern is
    /// shared, else nothing. Rows stay packed in pattern order, so a new
    /// row moves the ones above it — O(rows), paid on set-up and
    /// subscription changes, never on the event path; the bulk fill
    /// writes each table's rows at once ([`SubscriptionTable::fill`]).
    fn new_row(&mut self, idx: usize) -> usize {
        let r = self.map.insert(idx);
        let row = self.default_entry(idx);
        if row == 0 {
            self.flip_delta(idx);
        }
        self.rows.insert(r, row);
        r
    }

    /// Deletes row `r` of pattern `idx`, which lies outside the shared
    /// set.
    fn delete_row(&mut self, idx: usize, r: usize) {
        self.map.remove(idx);
        self.rows.remove(r);
        self.flip_delta(idx);
    }

    /// Makes pattern `idx` a delta row, or, if it is one, no longer one.
    /// A no-op without a default.
    fn flip_delta(&mut self, idx: usize) {
        let Some(shared) = &self.shared else { return };
        let outside = usize::from(!test_bit(&shared.patterns, idx));
        let delta = self.delta.get_or_insert_default();
        let p = PatternId::new(idx as u16);
        match delta.patterns.binary_search(&p) {
            Ok(at) => {
                delta.patterns.remove(at);
                delta.outside -= outside;
            }
            Err(at) => {
                delta.patterns.insert(at, p);
                delta.outside += outside;
            }
        }
    }

    /// The slot of `neighbor`, if registered.
    fn slot_of(&self, neighbor: NodeId) -> Option<usize> {
        self.slots.binary_search(&neighbor).ok()
    }

    /// Registers `neighbor` and returns its slot. Slots stay sorted by
    /// node id; inserting in the middle renumbers the higher slots in
    /// every row — rare (subscription setup or overlay
    /// reconfiguration), never on the event-matching hot path.
    ///
    /// # Panics
    ///
    /// Panics on a neighbor past the [`MAX_NEIGHBORS`]th.
    fn register(&mut self, neighbor: NodeId) -> usize {
        let pos = match self.slots.binary_search(&neighbor) {
            Ok(pos) => return pos,
            Err(pos) => pos,
        };
        assert_fits(self.slots.len() + 1);
        self.slots.insert(pos, neighbor);
        if pos + 1 < self.slots.len() {
            for row in &mut self.rows {
                *row = insert_zero_bit(*row, pos + 1);
            }
        }
        if let Some(s) = &mut self.shared {
            if s.slot >= pos {
                s.slot += 1;
            }
        }
        pos
    }

    /// Records that `pattern` is subscribed via `iface`. Returns `true`
    /// if this is new information (used to decide whether to propagate
    /// further).
    pub fn insert(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let bit = match iface {
            Interface::Local => LOCAL,
            Interface::Neighbor(n) => slot_bit(self.register(n)),
        };
        let idx = pattern.index();
        let r = match self.map.row_of(idx) {
            Some(r) if self.rows[r] & bit != 0 => return false,
            Some(r) => {
                // Only a shared pattern's row is ever empty.
                if self.rows[r] == 0 {
                    self.flip_delta(idx);
                }
                r
            }
            None if self.default_entry(idx) & bit != 0 => return false,
            None => self.new_row(idx),
        };
        self.rows[r] |= bit;
        true
    }

    /// Writes the routes of one closed-form fill into a table with no
    /// neighbor yet (fresh, or reset): a route to `c` for every `(p, c)`
    /// of `children` (ascending by pattern) and, given `default =
    /// (parent, patterns, except)`, a route to `parent` for every
    /// pattern set in `patterns` (bit `i` of word `w` is pattern index
    /// `64·w + i`) but those of `except` (ascending). The content is the
    /// final state of one [`SubscriptionTable::insert`] per route; an
    /// all-zero bitset adds no route and registers no slot.
    ///
    /// The table is written once, each part sized exactly: `patterns`
    /// becomes its default, keeping the `Arc`, and its rows are its
    /// local patterns and the children's. A pattern of both `except` and
    /// `patterns` must be one of those: its row withholds the default.
    ///
    /// # Panics
    ///
    /// Panics if the table has a neighbor slot, or the fill names more
    /// than [`MAX_NEIGHBORS`] neighbors.
    pub(crate) fn fill(
        &mut self,
        children: &[(PatternId, NodeId)],
        default: Option<(NodeId, &PatternBits, &[PatternId])>,
    ) {
        assert!(
            self.slots.is_empty(),
            "a fill writes a table with no neighbor: a fresh one, or one reset_routing_state cleared"
        );
        let default = default.filter(|&(_, patterns, _)| patterns.count() > 0);
        let (patterns, except): (&[u64], &[PatternId]) =
            default.map_or((&[], &[]), |(_, patterns, except)| (patterns, except));
        let mut slots: Vec<NodeId> = (children.iter().map(|&(_, child)| child))
            .chain(default.map(|(parent, ..)| parent))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots.shrink_to_fit();
        assert_fits(slots.len());
        let slot_of = |n: NodeId| slots.binary_search(&n).expect("registered above");
        let parent = default.map(|(parent, ..)| slot_bit(slot_of(parent)));

        // The row map: the local patterns (a table without slots has no
        // other rows) and the children's, merged word by word.
        let mut words = Vec::with_capacity(self.map.words as usize + children.len());
        let mut add = |(w, word): (usize, u64)| match words.last_mut() {
            Some((last, x)) if *last == w => *x |= word,
            _ => words.push((w, word)),
        };
        let mut local_words = self.map.entries().peekable();
        for (p, _) in children {
            let w = p.index() / 64;
            while let Some(local) = local_words.next_if(|&(v, _)| v <= w) {
                add(local);
            }
            add((w, 1 << (p.index() % 64)));
        }
        local_words.for_each(add);
        let map = RowMap::from_words(&words);
        let total = words
            .iter()
            .map(|(_, x)| x.count_ones() as usize)
            .sum::<usize>();

        // Each row: the local flag, the children's routes, the parent's.
        let mut rows = vec![0; total];
        let (mut c, mut e, mut outside) = (0, 0, Vec::new());
        let mut locals = self.map.patterns().peekable();
        for (row, idx) in rows.iter_mut().zip(map.patterns()) {
            if locals.next_if_eq(&idx).is_some() {
                *row = LOCAL;
            }
            while let Some(&(_, child)) = children.get(c).filter(|(p, _)| p.index() == idx) {
                *row |= slot_bit(slot_of(child));
                c += 1;
            }
            while except.get(e).is_some_and(|p| p.index() < idx) {
                e += 1;
            }
            let shared = test_bit(patterns, idx);
            match parent {
                Some(bit) if shared && except.get(e).is_none_or(|p| p.index() != idx) => {
                    *row |= bit;
                }
                Some(_) if !shared => outside.push(idx),
                _ => {}
            }
        }
        drop(locals);
        debug_assert!(
            (except.iter())
                .all(|p| !test_bit(patterns, p.index()) || map.row_of(p.index()).is_some()),
            "an excepted shared pattern has a row to withhold the default"
        );
        self.shared = default.map(|(parent, patterns, _)| Shared {
            slot: slot_of(parent),
            patterns: patterns.clone(),
        });
        (self.slots, self.map, self.rows) = (slots, map, rows);
        outside.into_iter().for_each(|idx| self.flip_delta(idx));
    }

    /// Removes a subscription entry. Returns `true` if it was present.
    pub fn remove(&mut self, pattern: PatternId, iface: Interface) -> bool {
        let bit = match iface {
            Interface::Local => LOCAL,
            Interface::Neighbor(n) => match self.slot_of(n) {
                Some(slot) => slot_bit(slot),
                None => return false,
            },
        };
        let idx = pattern.index();
        let r = match self.map.row_of(idx) {
            Some(r) if self.rows[r] & bit == 0 => return false,
            Some(r) => r,
            None if self.default_entry(idx) & bit == 0 => return false,
            None => self.new_row(idx),
        };
        self.rows[r] &= !bit;
        if self.rows[r] == 0 {
            if self.in_shared(idx) {
                self.flip_delta(idx);
            } else {
                self.delete_row(idx, r);
            }
        }
        true
    }

    /// `true` if a local client subscribes to `pattern`.
    pub fn has_local(&self, pattern: PatternId) -> bool {
        self.map
            .row_of(pattern.index())
            .is_some_and(|r| self.rows[r] & LOCAL != 0)
    }

    /// `true` if the table has any entry (local or remote) for
    /// `pattern`.
    #[cfg(test)]
    pub(crate) fn knows(&self, pattern: PatternId) -> bool {
        self.knows_index(pattern.index())
    }

    /// The neighbor interfaces subscribed to `pattern`, excluding
    /// `exclude` (typically the message's arrival interface), in id
    /// order.
    pub fn neighbors_for(
        &self,
        pattern: PatternId,
        exclude: Option<NodeId>,
    ) -> impl Iterator<Item = NodeId> + Clone + '_ {
        bits(self.entry(pattern.index()) & !LOCAL, 0)
            .map(|bit| self.slots[bit - 1])
            .filter(move |&n| Some(n) != exclude)
    }

    /// The distinct neighbors an event must be forwarded to, into the
    /// caller's buffer: the union of
    /// [`SubscriptionTable::neighbors_for`] over the event's patterns,
    /// minus the arrival interface. `out` is cleared and refilled, so a
    /// dispatcher forwarding many events allocates nothing in steady
    /// state. Returns [`SubscriptionTable::matches_locally`] for the event,
    /// which the same OR computes.
    ///
    /// This is the per-hop hot path: an OR of the event's pattern
    /// entries, then set-bit iteration. The union is deduplicated and in
    /// ascending id order by construction — no sort, no dedup.
    pub fn matching_neighbors_into(
        &self,
        event: &Event,
        from: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        // `row_of` and `default_entry` inlined, the default's bit
        // hoisted.
        let (shared, default) = match &self.shared {
            Some(s) => (&s.patterns[..], slot_bit(s.slot)),
            None => (&[][..], 0),
        };
        let mut acc = 0;
        for p in event.patterns() {
            let (i, bit) = (p.index() / 64, 1u64 << (p.index() % 64));
            let (at, x) = self.map.find(i);
            acc |= if x & bit != 0 {
                let r = self.map.rows_before(at) + (x & (bit - 1)).count_ones() as usize;
                self.rows[r]
            } else if shared.get(i).is_some_and(|&s| s & bit != 0) {
                default
            } else {
                0
            };
        }
        for bit in bits(acc & !LOCAL, 0) {
            let neighbor = self.slots[bit - 1];
            if Some(neighbor) != from {
                out.push(neighbor);
            }
        }
        acc & LOCAL != 0
    }

    /// `true` if the event matches a local subscription.
    pub fn matches_locally(&self, event: &Event) -> bool {
        event.patterns().any(|p| self.has_local(p))
    }

    /// Patterns with a local subscription, in order.
    pub fn local_patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        // Local patterns always have a row, and rows are in pattern
        // order: the n-th pattern of the map has row n.
        self.map
            .patterns()
            .enumerate()
            .filter(|&(r, _)| self.rows[r] & LOCAL != 0)
            .map(|(_, idx)| PatternId::new(idx as u16))
    }

    /// Every pattern known to the table — locally subscribed or
    /// learned through forwarding. The push algorithm draws its gossip
    /// pattern from this set ("p is selected by considering the whole
    /// subscription table") through [`SubscriptionTable::nth_known`];
    /// this O(Π) per-pattern scan is the reference that index is
    /// checked against.
    pub fn all_patterns(&self) -> impl Iterator<Item = PatternId> + '_ {
        (0..self.pattern_bound())
            .filter(|&idx| self.knows_index(idx))
            .map(|idx| PatternId::new(idx as u16))
    }

    /// The `k`-th known pattern in ascending pattern-id order — what
    /// `all_patterns().nth(k)` returns — by a select in the shared
    /// bitset corrected by the delta rows below the answer (see the
    /// module docs). `None` when `k >= len()`.
    pub fn nth_known(&self, k: usize) -> Option<PatternId> {
        let Some(shared) = self.shared.as_ref().map(|s| &s.patterns) else {
            // No default: every row is a known pattern.
            let nth = self.map.patterns().nth(k);
            return nth.map(|idx| PatternId::new(idx as u16));
        };
        // Known patterns below a delta row: the shared ones, plus the
        // outside rows before it, minus the emptied rows before it.
        let (mut outside, mut emptied) = (0, 0);
        for &p in self.delta.iter().flat_map(|d| &d.patterns) {
            let below = shared.rank(p.index()) + outside - emptied;
            if k < below {
                break;
            }
            if test_bit(shared, p.index()) {
                emptied += 1;
            } else if k == below {
                return Some(p);
            } else {
                outside += 1;
            }
        }
        shared.select(k + emptied - outside)
    }

    /// Number of patterns known.
    pub fn len(&self) -> usize {
        let Some(shared) = &self.shared else {
            return self.rows.len();
        };
        let (delta, outside) =
            (self.delta.as_ref()).map_or((0, 0), |d| (d.patterns.len(), d.outside));
        shared.patterns.count() + outside - (delta - outside)
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Semantic equality: same patterns, each with the same local flag and
/// neighbor set. Two tables built through different insertion
/// histories (and therefore with different slot registries, defaults
/// or explicit rows) compare equal when their observable content
/// matches.
impl PartialEq for SubscriptionTable {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        self.all_patterns().eq(other.all_patterns())
            && self.all_patterns().all(|p| {
                self.has_local(p) == other.has_local(p)
                    && self.neighbors_for(p, None).eq(other.neighbors_for(p, None))
            })
    }
}

impl Eq for SubscriptionTable {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use eps_sim::check::forall;

    fn ev(patterns: &[u16]) -> Event {
        Event::new(
            EventId::new(NodeId::new(0), 1),
            patterns.iter().map(|&p| (PatternId::new(p), 0)).collect(),
        )
    }

    /// The neighbors `t` forwards `e` to, arrived from `from`.
    fn matching(t: &SubscriptionTable, e: &Event, from: Option<NodeId>) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.matching_neighbors_into(e, from, &mut out);
        out
    }

    /// The neighbors `t` routes `p` to, but `exclude`.
    fn routes(t: &SubscriptionTable, p: PatternId, exclude: Option<NodeId>) -> Vec<NodeId> {
        t.neighbors_for(p, exclude).collect()
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
        assert!(
            t.rows.is_empty(),
            "an emptied row outside the default is deleted"
        );
    }

    #[test]
    fn neighbors_for_excludes_arrival_interface() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(2);
        t.insert(p, Interface::Neighbor(NodeId::new(1)));
        t.insert(p, Interface::Neighbor(NodeId::new(2)));
        t.insert(p, Interface::Local);
        assert_eq!(routes(&t, p, Some(NodeId::new(1))), vec![NodeId::new(2)]);
        assert_eq!(t.neighbors_for(p, None).count(), 2);
    }

    #[test]
    fn matching_neighbors_dedups_across_patterns() {
        let mut t = SubscriptionTable::new();
        let n = NodeId::new(9);
        t.insert(PatternId::new(1), Interface::Neighbor(n));
        t.insert(PatternId::new(2), Interface::Neighbor(n));
        let e = ev(&[1, 2]);
        assert_eq!(matching(&t, &e, None), vec![n]);
        assert_eq!(matching(&t, &e, Some(n)), Vec::<NodeId>::new());
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
        let ids: Vec<u32> = t.neighbors_for(p, None).map(|n| n.index() as u32).collect();
        assert_eq!(ids, vec![0, 2, 5, 7, 9]);
    }

    #[test]
    fn a_row_holds_63_neighbors_in_id_order() {
        // 63 neighbors registered out of order fill the row to its top
        // bit; every registration renumbers the slots above it.
        let mut t = SubscriptionTable::new();
        let (p, q) = (PatternId::new(1), PatternId::new(2));
        t.insert(p, Interface::Local);
        let order: Vec<u32> = (0..MAX_NEIGHBORS as u32).map(|i| (i * 37) % 67).collect();
        for &raw in &order {
            let target = if raw % 2 == 0 { p } else { q };
            t.insert(target, Interface::Neighbor(NodeId::new(raw)));
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let union = matching(&t, &ev(&[1, 2]), None);
        assert_eq!(
            union,
            sorted.iter().map(|&n| NodeId::new(n)).collect::<Vec<_>>()
        );
        assert!(t.has_local(p) && !t.has_local(q));
        let top = NodeId::new(*sorted.last().unwrap());
        assert!(!matching(&t, &ev(&[1, 2]), Some(top)).contains(&top));
        // A reference table built in id order agrees semantically.
        let mut r = SubscriptionTable::new();
        for &raw in &sorted {
            let target = if raw % 2 == 0 { p } else { q };
            r.insert(target, Interface::Neighbor(NodeId::new(raw)));
        }
        r.insert(p, Interface::Local);
        assert_eq!(t, r);
    }

    #[test]
    #[should_panic(expected = "at most MAX_NEIGHBORS = 63 neighbors")]
    fn registering_a_64th_neighbor_panics() {
        let mut t = SubscriptionTable::new();
        for raw in 0..=MAX_NEIGHBORS as u32 {
            t.insert(PatternId::new(0), Interface::Neighbor(NodeId::new(raw)));
        }
    }

    #[test]
    #[should_panic(expected = "a fill writes a table with no neighbor")]
    fn a_fill_refuses_a_table_with_a_neighbor() {
        let mut t = SubscriptionTable::new();
        t.insert(PatternId::new(0), Interface::Neighbor(NodeId::new(1)));
        t.fill(&[(PatternId::new(1), NodeId::new(2))], None);
    }

    #[test]
    fn equality_is_semantic_not_structural() {
        // Same content via different insertion orders (and therefore
        // different registry histories) compares equal, as does the
        // same content held as a default route instead of rows.
        let mut a = SubscriptionTable::new();
        let mut b = SubscriptionTable::new();
        for n in [3u32, 1, 2] {
            a.insert(PatternId::new(7), Interface::Neighbor(NodeId::new(n)));
        }
        for n in [1u32, 2, 3] {
            b.insert(PatternId::new(7), Interface::Neighbor(NodeId::new(n)));
        }
        assert_eq!(a, b);
        b.insert(PatternId::new(7), Interface::Local);
        assert_ne!(a, b);

        let mut shared = SubscriptionTable::new();
        let bits = PatternBits::from(vec![0b1010u64]);
        shared.fill(&[], Some((NodeId::new(4), &bits, &[])));
        let mut rows = SubscriptionTable::new();
        rows.insert(PatternId::new(3), Interface::Neighbor(NodeId::new(4)));
        rows.insert(PatternId::new(1), Interface::Neighbor(NodeId::new(4)));
        assert_eq!(shared, rows);
        assert!(shared.rows.is_empty(), "the default route holds no row");
    }

    /// The index invariants, checked against the scan.
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
        // Every mutation that can change `len`, on a table that starts
        // empty and on one that starts from a default route.
        const STEPS: usize = 10_000;
        const PATTERNS: u64 = 150;
        let mut from_default = SubscriptionTable::new();
        let bits = PatternBits::from(vec![u64::MAX, 0xf0f0, 1 << 20]);
        from_default.fill(&[], Some((NodeId::new(3), &bits, &[])));
        for (seed, mut table) in [SubscriptionTable::new(), from_default]
            .into_iter()
            .enumerate()
        {
            let mut rng = eps_sim::Rng::from_seed(seed as u64 + 1);
            for step in 0..STEPS {
                let pattern = PatternId::new(rng.random_below(PATTERNS) as u16);
                let iface = match rng.random_below(4) {
                    0 => Interface::Local,
                    _ => Interface::Neighbor(NodeId::new(rng.random_below(8) as u32)),
                };
                if rng.random_below(2) == 0 {
                    table.insert(pattern, iface);
                } else {
                    table.remove(pattern, iface);
                }
                assert_index_matches_scan(&table, step);
            }
        }
    }

    /// Random routes of one fill into `table`: child routes in pattern
    /// order over `neighbors` neighbors, and a default — absent,
    /// all-zero, or a random bitset with exceptions. An exception the
    /// bitset holds has a row or a child route, as in the fill; others
    /// are drawn anywhere.
    type Fill = (
        Vec<(PatternId, NodeId)>,
        Option<(NodeId, PatternBits, Vec<PatternId>)>,
    );

    fn random_fill(
        rng: &mut eps_sim::Rng,
        table: &SubscriptionTable,
        patterns: u64,
        neighbors: u64,
        routes: u64,
    ) -> Fill {
        let mut children: Vec<(PatternId, NodeId)> = (0..rng.random_below(routes + 1))
            .map(|_| {
                let p = PatternId::new(rng.random_below(patterns) as u16);
                (p, NodeId::new(rng.random_below(neighbors) as u32))
            })
            .collect();
        children.sort_by_key(|&(p, _)| p);
        let words = patterns.div_ceil(64) as usize;
        let default = match rng.random_below(4) {
            0 => None,
            k => {
                let bits: Vec<u64> = (0..words)
                    .map(|_| {
                        if k == 1 {
                            0
                        } else {
                            rng.next_u64() & rng.next_u64()
                        }
                    })
                    .collect();
                let with_rows: Vec<PatternId> = (children.iter().map(|&(p, _)| p))
                    .chain(table.local_patterns())
                    .collect();
                let mut except: Vec<PatternId> = (0..rng.random_below(8))
                    .map(|_| match rng.random_below(2) {
                        0 if !with_rows.is_empty() => *rng.choose(&with_rows).unwrap(),
                        _ => PatternId::new(rng.random_below(patterns) as u16),
                    })
                    .filter(|p| {
                        !test_bit(&bits, p.index())
                            || with_rows.contains(p)
                            || table.map.row_of(p.index()).is_some()
                    })
                    .collect();
                except.sort_unstable();
                except.dedup();
                let parent = NodeId::new(rng.random_below(neighbors) as u32);
                Some((parent, PatternBits::from(bits), except))
            }
        };
        (children, default)
    }

    /// Applies `fill` to `table` through the builder and to `twin`
    /// through one `insert` per route.
    fn apply(table: &mut SubscriptionTable, twin: &mut SubscriptionTable, fill: &Fill) {
        let (children, default) = fill;
        let default = default
            .as_ref()
            .map(|(parent, bits, except)| (*parent, bits, &except[..]));
        table.fill(children, default);
        for &(p, child) in children {
            twin.insert(p, Interface::Neighbor(child));
        }
        if let Some((parent, bits, except)) = default {
            for idx in set_bits(bits) {
                let p = PatternId::new(idx as u16);
                if except.binary_search(&p).is_err() {
                    twin.insert(p, Interface::Neighbor(parent));
                }
            }
        }
    }

    /// Asserts that `table` and `twin` hold the same content and the
    /// same known-pattern index.
    fn assert_twins(table: &SubscriptionTable, twin: &SubscriptionTable, case: &str) {
        assert_eq!(table, twin, "{case}: fill vs insert");
        assert_index_matches_scan(table, 0);
        for k in 0..=twin.len() {
            assert_eq!(
                table.nth_known(k),
                twin.nth_known(k),
                "{case}: nth_known({k})"
            );
        }
    }

    #[test]
    fn fill_equals_the_inserts_it_replaces() {
        // The builder writes the table in one pass where the fill made
        // one insert per route: the same content from an empty table and
        // from a table of local subscriptions, with a few neighbors or
        // with all 63 a row holds; then both keep agreeing under inserts
        // and removes.
        const PATTERNS: u64 = 200;
        let mut full_rows = 0;
        forall("fill_equals_the_inserts_it_replaces", 384, |rng| {
            let (neighbors, routes) = match rng.random_below(3) {
                0 => (MAX_NEIGHBORS as u64, 400),
                _ => (8, 40),
            };
            let mut table = SubscriptionTable::new();
            for _ in 0..rng.random_below(7) {
                table.insert(
                    PatternId::new(rng.random_below(PATTERNS) as u16),
                    Interface::Local,
                );
            }
            let mut twin = table.clone();
            let fill = random_fill(rng, &table, PATTERNS, neighbors, routes);
            apply(&mut table, &mut twin, &fill);
            assert_twins(&table, &twin, "fill");
            full_rows += usize::from(table.slots.len() == MAX_NEIGHBORS);
            for _ in 0..20 {
                let p = PatternId::new(rng.random_below(PATTERNS) as u16);
                let iface = match rng.random_below(neighbors + 1) {
                    0 => Interface::Local,
                    n => Interface::Neighbor(NodeId::new(n as u32 - 1)),
                };
                if rng.random_below(2) == 0 {
                    assert_eq!(table.insert(p, iface), twin.insert(p, iface));
                } else {
                    assert_eq!(table.remove(p, iface), twin.remove(p, iface));
                }
            }
            assert_twins(&table, &twin, "after inserts and removes");
        });
        assert!(full_rows > 32, "{full_rows} cases fill every slot of a row");
    }

    #[test]
    fn a_default_route_is_overridden_row_by_row() {
        let (parent, child) = (NodeId::new(1), NodeId::new(9));
        let mut t = SubscriptionTable::new();
        t.insert(PatternId::new(2), Interface::Local);
        t.fill(
            &[],
            Some((parent, &PatternBits::from(vec![0b1110u64]), &[])),
        );
        // The local row gained the default route; the others hold none.
        assert_eq!(routes(&t, PatternId::new(2), None), vec![parent]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.len(), 3);
        // A child route adds a row on top of the default.
        assert!(t.insert(PatternId::new(3), Interface::Neighbor(child)));
        assert!(!t.insert(PatternId::new(1), Interface::Neighbor(parent)));
        assert_eq!(matching(&t, &ev(&[1, 3]), None), vec![parent, child]);
        // Withdrawing the default from a pattern empties its entry but
        // keeps the row, which withholds the route.
        assert!(t.remove(PatternId::new(1), Interface::Neighbor(parent)));
        assert!(!t.knows(PatternId::new(1)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.nth_known(0), Some(PatternId::new(2)));
        assert_index_matches_scan(&t, 0);
    }

    /// Asserts that `map` is the rank map of the pattern bitset `dense`
    /// (1024 words: every u16 pattern), exactly sized.
    fn assert_map_of(map: &RowMap, dense: &[u64], probes: &[usize], case: &str) {
        let mut before = vec![0; dense.len() + 1];
        for (w, word) in dense.iter().enumerate() {
            before[w + 1] = before[w] + word.count_ones() as usize;
        }
        let rank = |idx: usize| {
            before[idx / 64] + (dense[idx / 64] & ((1 << (idx % 64)) - 1)).count_ones() as usize
        };
        let set: Vec<usize> = set_bits(dense).collect();
        assert_eq!(map.patterns().collect::<Vec<_>>(), set, "{case}: patterns");
        for &idx in set.iter().chain(probes) {
            let expected = test_bit(dense, idx).then(|| rank(idx));
            assert_eq!(map.row_of(idx), expected, "{case}: row_of({idx})");
        }
        let top = dense.iter().rposition(|&w| w != 0);
        assert_eq!(
            map.word_bound(),
            top.map_or(0, |w| w + 1),
            "{case}: word bound"
        );
        let (p, k) = (
            top.map_or(0, |w| w / 64 + 1),
            dense.iter().filter(|&&w| w != 0).count(),
        );
        assert_eq!(map.buf.len(), p + k + k.div_ceil(4), "{case}: bytes");
    }

    #[test]
    fn row_map_ranks_match_a_dense_bitset() {
        // Rows inserted and removed one at a time, and the map rebuilt
        // whole as the fill builds it, at both ends of the u16 universe
        // (map words 0 and 1023, presence words 0 and 15) and anywhere
        // between: every row index is the dense bitset's rank.
        forall("row_map_ranks_match_a_dense_bitset", 128, |rng| {
            let draw = |rng: &mut eps_sim::Rng| match rng.random_below(3) {
                0 => rng.random_below(130) as usize,
                1 => 65_535 - rng.random_below(130) as usize,
                _ => rng.random_below(65_536) as usize,
            };
            let mut dense = vec![0u64; 1024];
            let mut map = RowMap::default();
            for step in 0..rng.random_range(1..160usize) {
                let idx = draw(rng);
                let bit = 1u64 << (idx % 64);
                if test_bit(&dense, idx) {
                    map.remove(idx);
                    dense[idx / 64] &= !bit;
                } else {
                    let r = map.insert(idx);
                    dense[idx / 64] |= bit;
                    assert_eq!(map.row_of(idx), Some(r), "step {step}: inserted row");
                }
                if rng.random_below(8) == 0 {
                    let entries: Vec<(usize, u64)> = (dense.iter().copied().enumerate())
                        .filter(|&(_, w)| w != 0)
                        .collect();
                    map = RowMap::from_words(&entries);
                }
                let probes: Vec<usize> = (0..8)
                    .map(|_| draw(rng))
                    .chain([0, 63, 64, 4095, 4096, 65_535])
                    .collect();
                assert_map_of(&map, &dense, &probes, &format!("step {step}"));
            }
        });
    }

    #[test]
    fn narrow_mid_insert_renumbers_the_higher_slots() {
        let mut t = SubscriptionTable::new();
        let p = PatternId::new(0);
        let q = PatternId::new(1);
        t.insert(p, Interface::Neighbor(NodeId::new(10)));
        t.insert(q, Interface::Neighbor(NodeId::new(30)));
        // Mid-insert between the two registered slots.
        t.insert(p, Interface::Neighbor(NodeId::new(20)));
        assert_eq!(routes(&t, p, None), vec![NodeId::new(10), NodeId::new(20)]);
        assert_eq!(routes(&t, q, None), vec![NodeId::new(30)]);
    }
}
