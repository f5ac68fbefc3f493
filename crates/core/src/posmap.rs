//! Cache-friendly open-addressing hash tables for the search hot loops.
//!
//! The `d_min` searches perform billions of probes (the Table 1 harness
//! probes ~2·10⁹ syndrome pairs for 0xD419CC15 alone), so `std::HashMap`'s
//! SipHash and per-entry overhead are replaced by flat linear-probing
//! tables with a multiplicative hash.

/// Maps a syndrome value to the **first** position where it occurs.
///
/// Below the polynomial's order, syndromes are distinct; past it they
/// repeat, and first-occurrence semantics keep every `d_min` search exact
/// (see [`PosMap::insert`]).
///
/// Sizing contract: [`PosMap::with_capacity`]`(n)` rounds the slot count
/// to the next power of two **at or above `2n`**, so inserting up to `n`
/// distinct keys keeps the load factor ≤ ½ and never triggers a rehash —
/// a `weights234`-style sweep that sizes for its codeword length pays for
/// exactly one allocation ([`PosMap::rehashes`] stays 0; the regression
/// test below counts them). Inserting beyond that grows the table
/// (doubling) instead of failing. Positions are `u32`.
#[derive(Debug, Clone)]
pub struct PosMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
    len: usize,
    rehashes: u64,
}

/// Sentinel meaning "slot empty" in [`PosMap`] (positions are < 2³¹).
const EMPTY: u32 = u32::MAX;

impl PosMap {
    /// Creates a map able to hold `capacity` entries with load factor ≤ ½
    /// (slot count = next power of two ≥ `2 × capacity`).
    pub fn with_capacity(capacity: usize) -> PosMap {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        PosMap {
            keys: vec![0; slots],
            vals: vec![EMPTY; slots],
            mask: slots - 1,
            len: 0,
            rehashes: 0,
        }
    }

    /// Number of times the table has grown (rehashed) since construction.
    /// Stays 0 for any usage that stays within the constructed capacity.
    #[inline]
    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// Entries the table holds without growing (½ the slot count).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.len() / 2
    }

    /// Removes every entry, keeping the allocation (and the lifetime
    /// rehash count) — the cheap way for a reused workspace to rebind to
    /// a new polynomial.
    pub fn clear(&mut self) {
        self.vals.fill(EMPTY);
        self.len = 0;
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ensures the table can hold `n` entries at load ≤ ½ without any
    /// incidental doubling, preserving existing entries.
    ///
    /// Growth is amortized: the slot count at least doubles whenever it
    /// changes, so an index that trails its syndrome table through many
    /// slightly-increasing caps (the wide-width `ensure_indexed` pattern)
    /// pays O(log n) resizes total rather than one rebuild per call.
    /// Explicit resizes are *not* counted by [`PosMap::rehashes`]; that
    /// counter tracks only implicit growth during [`PosMap::insert`], so
    /// "sized correctly up front" remains observable as `rehashes() == 0`.
    pub fn reserve(&mut self, n: usize) {
        if self.capacity() >= n {
            return;
        }
        let slots = (n.max(4) * 2).next_power_of_two().max(self.keys.len() * 2);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![EMPTY; slots]);
        self.mask = slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != EMPTY {
                self.insert(k, v);
            }
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply and take the top bits.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Inserts a key → position mapping, keeping the **first** position
    /// when a key repeats. Syndromes repeat only past the polynomial's
    /// order, and every `d_min` argument works with first occurrences:
    /// a probe hit through a first-occurrence position is still a genuine
    /// codeword witness, and ascending-degree scans keep minimality.
    ///
    /// Grows (doubling) when an insert would push the load factor past ½;
    /// correctly sized callers never hit this path (see the type docs).
    #[inline]
    pub fn insert(&mut self, key: u64, pos: u32) {
        debug_assert_ne!(pos, EMPTY);
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut slot = self.slot_of(key);
        loop {
            if self.vals[slot] == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = pos;
                self.len += 1;
                return;
            }
            if self.keys[slot] == key {
                return; // keep the earliest position for this syndrome
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_slots = (self.keys.len() * 2).max(8);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![EMPTY; new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        self.rehashes += 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != EMPTY {
                // Re-inserting first occurrences preserves first-occurrence
                // semantics: keys are unique within the old table.
                self.insert(k, v);
            }
        }
    }

    /// Looks up the position of a syndrome.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut slot = self.slot_of(key);
        loop {
            let v = self.vals[slot];
            if v == EMPTY {
                return None;
            }
            if self.keys[slot] == key {
                return Some(v);
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// A multimap from subset-XOR values to packed position subsets, used by
/// the meet-in-the-middle `d_min` searches for weights ≥ 5.
///
/// Duplicate keys are stored as separate slots; lookups walk the probe
/// chain and visit every entry with a matching key, so disjointness of
/// position sets can be verified exactly.
#[derive(Debug, Clone)]
pub struct XorMultiMap {
    keys: Vec<u64>,
    /// Packed positions (17 bits each, up to 7 positions) or `u128::MAX`
    /// for an empty slot.
    vals: Vec<u128>,
    /// Presence screen over the low [`SCREEN_BITS`] bits of every stored
    /// key: a fixed 16 KiB bitset that answers most negative probes with
    /// one L1 load instead of a hash multiply + table-sized random load.
    screen: Vec<u64>,
    mask: usize,
    len: usize,
}

const SLOT_EMPTY: u128 = u128::MAX;

/// log₂ of the [`XorMultiMap`] presence-screen size in bits (2¹⁷ bits =
/// 16 KiB: small enough to stay L1-resident under the probe loops, large
/// enough to keep the false-positive rate low for MITM-sized maps).
const SCREEN_BITS: u32 = 17;

impl XorMultiMap {
    /// Creates a multimap able to hold `capacity` entries (load ≤ ½).
    pub fn with_capacity(capacity: usize) -> XorMultiMap {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        XorMultiMap {
            keys: vec![0; slots],
            vals: vec![SLOT_EMPTY; slots],
            screen: vec![0; 1 << (SCREEN_BITS - 6)],
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the table holds without growing (½ the slot count).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.len() / 2
    }

    /// Removes every entry, keeping the allocations — this is what lets a
    /// workspace-owned MITM subset map persist across polynomial rebinds.
    /// A map with nothing inserted since its last clear is already empty,
    /// so clearing it again touches no memory.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.vals.fill(SLOT_EMPTY);
        self.screen.fill(0);
        self.len = 0;
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Inserts an entry (duplicates allowed), growing the table when the
    /// load factor would exceed ½ — searches that terminate early never
    /// pay for their worst-case size.
    #[inline]
    pub fn insert(&mut self, key: u64, packed: u128) {
        debug_assert_ne!(packed, SLOT_EMPTY);
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let low = key as usize & ((1 << SCREEN_BITS) - 1);
        self.screen[low >> 6] |= 1u64 << (low & 63);
        let mut slot = self.slot_of(key);
        while self.vals[slot] != SLOT_EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.keys[slot] = key;
        self.vals[slot] = packed;
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_slots = (self.keys.len() * 2).max(8);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![SLOT_EMPTY; new_slots]);
        self.mask = new_slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if v != SLOT_EMPTY {
                self.insert(k, v);
            }
        }
    }

    /// Visits every stored subset whose key equals `key`; stops early when
    /// the visitor returns `true` and reports whether it did.
    ///
    /// Most probes in a `d_min` search miss; the presence screen rejects
    /// them before the hash multiply and the (L2-sized) table load.
    #[inline]
    pub fn any_match(&self, key: u64, mut visit: impl FnMut(u128) -> bool) -> bool {
        let low = key as usize & ((1 << SCREEN_BITS) - 1);
        if self.screen[low >> 6] & (1u64 << (low & 63)) == 0 {
            return false;
        }
        let mut slot = self.slot_of(key);
        loop {
            let v = self.vals[slot];
            if v == SLOT_EMPTY {
                return false;
            }
            if self.keys[slot] == key && visit(v) {
                return true;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

/// Packs up to 7 positions (each < 2¹⁷) into a `u128`, length-tagged by
/// the caller's context. Position order is preserved.
#[inline]
pub fn pack_positions(positions: &[u32]) -> u128 {
    debug_assert!(positions.len() <= 7);
    let mut out: u128 = 0;
    for (i, &p) in positions.iter().enumerate() {
        debug_assert!(p < 1 << 17);
        out |= (p as u128) << (17 * i);
    }
    out
}

/// Unpacks `count` positions packed by [`pack_positions`].
#[inline]
pub fn unpack_positions(packed: u128, count: usize, out: &mut [u32]) {
    for (i, o) in out.iter_mut().enumerate().take(count) {
        *o = (packed >> (17 * i)) as u32 & 0x1FFFF;
    }
}

/// Largest position in a `count`-position packed subset. The MITM
/// inserters pack positions ascending, so this is the last field; probes
/// against a persistent map use it to discard subsets whose positions
/// exceed the current top degree.
#[inline]
pub fn packed_last(packed: u128, count: usize) -> u32 {
    debug_assert!(count >= 1);
    (packed >> (17 * (count - 1))) as u32 & 0x1FFFF
}

/// True when the `count`-position packed subset shares no position with
/// the sorted slice `other`.
#[inline]
pub fn packed_disjoint_from(packed: u128, count: usize, other: &[u32]) -> bool {
    for i in 0..count {
        let p = (packed >> (17 * i)) as u32 & 0x1FFFF;
        if other.contains(&p) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posmap_insert_get() {
        let mut m = PosMap::with_capacity(100);
        for i in 0..100u32 {
            m.insert(((i as u64) * 0x1234_5678_9ABC) ^ 7, i);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u32 {
            assert_eq!(m.get(((i as u64) * 0x1234_5678_9ABC) ^ 7), Some(i));
        }
        assert_eq!(m.get(42), None);
    }

    #[test]
    fn posmap_duplicate_keys_keep_first_position() {
        let mut m = PosMap::with_capacity(8);
        m.insert(42, 3);
        m.insert(42, 9); // later occurrence ignored
        assert_eq!(m.get(42), Some(3));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn posmap_handles_zero_key_and_position() {
        let mut m = PosMap::with_capacity(4);
        m.insert(0, 0);
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn posmap_colliding_keys_probe_linearly() {
        // Keys engineered to collide in a tiny table.
        let mut m = PosMap::with_capacity(4);
        for i in 0..4u32 {
            m.insert(i as u64, i + 100);
        }
        for i in 0..4u32 {
            assert_eq!(m.get(i as u64), Some(i + 100));
        }
    }

    #[test]
    fn posmap_overfill_grows_instead_of_failing() {
        let mut m = PosMap::with_capacity(4);
        for i in 0..100 {
            m.insert(i, i as u32);
        }
        assert_eq!(m.len(), 100);
        assert!(m.rehashes() > 0);
        for i in 0..100 {
            assert_eq!(m.get(i), Some(i as u32), "key {i} lost across growth");
        }
    }

    #[test]
    fn posmap_sized_for_a_sweep_never_rehashes() {
        // The sizing contract the weights234 sweep relies on: a map built
        // with with_capacity(n) absorbs n distinct keys with zero growth.
        // Cover power-of-two boundaries and a codeword-length-shaped n.
        for n in [1usize, 4, 5, 63, 64, 65, 1024, 1037, 12_144] {
            let mut m = PosMap::with_capacity(n);
            for i in 0..n as u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9_97F4_A7C1) | 1, i as u32);
            }
            assert_eq!(m.rehashes(), 0, "with_capacity({n}) rehashed");
        }
    }

    #[test]
    fn posmap_clear_keeps_allocation_and_contract() {
        let mut m = PosMap::with_capacity(64);
        for i in 0..64u64 {
            m.insert(i * 77 + 1, i as u32);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(78), None);
        // A full re-fill after clear still needs no growth.
        for i in 0..64u64 {
            m.insert(i * 131 + 5, (i + 1) as u32);
        }
        assert_eq!(m.rehashes(), 0);
        assert_eq!(m.get(5), Some(1));
    }

    #[test]
    fn posmap_reserve_preserves_entries_and_amortizes() {
        let mut m = PosMap::with_capacity(8);
        for i in 0..8u64 {
            m.insert(i * 101 + 3, i as u32);
        }
        // Many slightly-increasing reserves: capacity must at least double
        // on every actual resize, so the number of distinct capacities is
        // logarithmic in the final size.
        let mut caps = vec![m.capacity()];
        for n in (9..4000).step_by(7) {
            m.reserve(n);
            if *caps.last().unwrap() != m.capacity() {
                assert!(
                    m.capacity() >= 2 * caps.last().unwrap(),
                    "resize did not at least double"
                );
                caps.push(m.capacity());
            }
        }
        assert!(caps.len() <= 12, "too many resizes: {caps:?}");
        assert_eq!(m.rehashes(), 0, "explicit reserve must not count");
        for i in 0..8u64 {
            assert_eq!(m.get(i * 101 + 3), Some(i as u32), "entry lost");
        }
    }

    #[test]
    fn multimap_clear_keeps_allocation_and_screen_consistency() {
        let mut m = XorMultiMap::with_capacity(16);
        m.insert(5, pack_positions(&[1, 2]));
        m.insert(5 + (1 << SCREEN_BITS), pack_positions(&[3, 4]));
        assert!(m.any_match(5, |_| true));
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        // The screen must forget cleared keys (no stale accepts turning
        // into full-table probes of empty chains is fine, but a stale
        // *reject* of a re-inserted key would be a correctness bug).
        assert!(!m.any_match(5, |_| true));
        m.insert(5, pack_positions(&[9, 11]));
        assert!(m.any_match(5, |_| true));
    }

    #[test]
    fn multimap_screen_aliases_do_not_reject() {
        // Keys that collide in the low SCREEN_BITS bits but differ overall
        // must still be distinguished by the exact table.
        let mut m = XorMultiMap::with_capacity(4);
        let k1 = 0x42u64;
        let k2 = k1 + (1 << SCREEN_BITS);
        m.insert(k1, pack_positions(&[1]));
        assert!(m.any_match(k1, |_| true));
        assert!(!m.any_match(k2, |_| true), "alias must miss in the table");
    }

    #[test]
    fn multimap_duplicate_keys_all_visible() {
        let mut m = XorMultiMap::with_capacity(16);
        m.insert(5, pack_positions(&[1, 2]));
        m.insert(5, pack_positions(&[3, 4]));
        m.insert(9, pack_positions(&[5, 6]));
        let mut seen = Vec::new();
        m.any_match(5, |packed| {
            let mut pos = [0u32; 2];
            unpack_positions(packed, 2, &mut pos);
            seen.push(pos);
            false // visit all
        });
        seen.sort();
        assert_eq!(seen, vec![[1, 2], [3, 4]]);
    }

    #[test]
    fn multimap_early_stop() {
        let mut m = XorMultiMap::with_capacity(16);
        m.insert(1, pack_positions(&[7]));
        m.insert(1, pack_positions(&[8]));
        let mut visits = 0;
        let hit = m.any_match(1, |_| {
            visits += 1;
            true
        });
        assert!(hit);
        assert_eq!(visits, 1);
    }

    #[test]
    fn packing_round_trip_and_disjointness() {
        let positions = [3u32, 70_000, 131_000, 9, 17, 55, 1];
        let packed = pack_positions(&positions);
        let mut out = [0u32; 7];
        unpack_positions(packed, 7, &mut out);
        assert_eq!(out, positions);
        assert!(packed_disjoint_from(packed, 7, &[2, 4, 100]));
        assert!(!packed_disjoint_from(packed, 7, &[2, 70_000]));
        // Prefix-only checks respect the count.
        assert!(packed_disjoint_from(packed, 2, &[9]));
    }

    #[test]
    fn packed_last_reads_the_top_position() {
        let ascending = [3u32, 9, 17, 131_000];
        assert_eq!(packed_last(pack_positions(&ascending), 4), 131_000);
        assert_eq!(packed_last(pack_positions(&ascending), 2), 9);
        assert_eq!(packed_last(pack_positions(&[7]), 1), 7);
    }
}
