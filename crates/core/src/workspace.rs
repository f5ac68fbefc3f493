//! The shared screening workspace: syndromes, a position index and
//! per-weight `d_min` knowledge that persist across filter stages,
//! lengths and weight computations.
//!
//! # Why a workspace
//!
//! Every question this crate answers about a generator `G` — "does a
//! weight-w multiple fit in `n` bits?", "what is `d_min(w)`?", "how many
//! weight-4 codewords exist at length `L`?" — is a subset-XOR question
//! over the same syndrome sequence `r(i) = x^i mod G`. The scratch paths
//! (preserved in [`crate::reference`]) rebuild that sequence and its
//! value→position index from zero on every call, so a staged screen
//! (filter at 64 bits → profile to 1024 → exact weights at 1024) pays
//! for overlapping syndrome prefixes many times, and a doubling+bisect
//! breakpoint search re-derives them ~30 times per polynomial.
//!
//! A [`SyndromeWorkspace`] is bound to one polynomial at a time and owns:
//!
//! * the **grow-only syndrome table** `r(0)..r(k)`, extended (never
//!   recomputed) as probed lengths grow;
//! * a **position index** mapping syndrome values back to their first
//!   position — a direct-indexed array for widths ≤
//!   [`DIRECT_INDEX_MAX_WIDTH`] (one L1/L2 load per probe, no hashing),
//!   falling back to the [`PosMap`] sparse hash for wider generators
//!   whose value space outruns memory;
//! * a **per-weight `d_min` memo**: each capped search records either the
//!   exact minimal degree it found or the degree below which it proved no
//!   weight-`w` multiple exists, so later stages *resume* scans instead
//!   of restarting them, and the `weights234` sweep skips every degree
//!   the profile already certified clean — quadratically less work,
//!   since the pair loop at degree `t` costs `O(t)` probes.
//!
//! All probes bound-check positions explicitly (`p < t`), so the index
//! may safely run ahead of any particular query: first occurrences are
//! global minima, and "is there an occurrence before `t`?" is exactly
//! `first_occurrence < t`.
//!
//! # Direct index, two-level wide index, hash fallback
//!
//! The direct index stores one `u16` per possible syndrome value
//! (`2 × 2^width` bytes): 16 KiB at the survey's 13-bit width — small
//! enough that the table *and* the streamed syndrome row stay inside L1
//! together (`u16` is enough for positions because first occurrences
//! are bounded by the multiplicative order `< 2^width ≤ 2^16`). Probes
//! are a single dependent L1 load — ~5× cheaper than a hash probe
//! (multiply, mask, and two dependent loads over a larger footprint,
//! with occasional collision chains). Beyond [`DIRECT_INDEX_MAX_WIDTH`]
//! positions outgrow `u16` and a full direct table outgrows cache (at
//! 32 bits, RAM), so widths 17–32 use a **compressed two-level index**:
//!
//! * level 0 — a fixed 16 KiB presence *screen* (one bit per low-bits
//!   slice of the value space) that stays L1-resident and answers the
//!   overwhelmingly-miss probes of the pair sweep with one load;
//! * level 1 — a bucket *directory* over the high bits of the value
//!   (`4 × 2^min(width,20)` bytes). A bucket holds "empty", a single
//!   first-occurrence position (confirmed with one compare against the
//!   syndrome table), or a spill marker into a dense `u32` position row
//!   for the rare colliding buckets — so a surviving probe costs at most
//!   one directory hop plus one compare, and the structure stays *exact*
//!   (no false positives or negatives), unlike a plain fingerprint
//!   filter.
//!
//! Beyond [`TWO_LEVEL_MAX_WIDTH`] the workspace keeps the `PosMap`
//! open-addressing path (also available at every width via
//! [`IndexPolicy::ForceHash`] as the differential oracle); sorted-array
//! merge kernels were considered and rejected because XOR targets do not
//! preserve sort order (a merge degenerates into `O(popcount)` recursive
//! splits that lose to one hash probe). Rebinding to a new polynomial
//! clears each index by *replaying* the positions it inserted
//! (`O(indexed)`, not `O(2^width)`), so a campaign worker reuses one
//! allocation across every candidate.
//!
//! The direct index earns its place at widths ≤ 16. A probe that forced
//! the two-level index there gave byte-identical shard results, but the
//! per-candidate cost rose from 20.6–23.2 µs to 25.6–29.9 µs on the
//! perfbench `fleet_w16` configuration, and from 421 µs to
//! 1,675–1,864 µs at 13 bits.
//!
//! An earlier opt-in policy layered the [`crate::bitslice`] block
//! kernels on the two-level index: bulk syndrome extension through
//! CLMUL-advanced bit-plane blocks and a batch (mask-then-resolve) pair
//! sweep. Neither half paid in the survey pipeline (filter → profile →
//! weights on one reused workspace, identical results asserted): median
//! per-candidate cost at width 18 was 178.5 µs two-level vs 196.7 µs
//! with both halves, 6.0 vs 6.3 ms at width 24, and 156 vs 152 ms with
//! overlapping run ranges at width 32. It won only the cold MTU
//! `weights234` micro-row, which the pipeline never pays (its profile
//! certifies most of that sweep clean first), so it was removed; the
//! block kernels live on in [`crate::distribution`].

use crate::dmin::{dmin2, mitm_scan_with, MitmState};
use crate::filter::FilterVerdict;
use crate::posmap::PosMap;
use crate::syndrome::SyndromeSeq;
use crate::weights::{weight2_from_order, Weights234};
use crate::{Error, Result};
use gf2poly::GenPoly;

/// Widest generator that uses the direct-indexed position table.
/// At or below this width both syndrome values and first-occurrence
/// positions fit in `u16` (first occurrences are bounded by the
/// multiplicative order, which is `< 2^width`), so the table is
/// `2 × 2^width` bytes: 16 KiB at 13 bits, where the whole sweep working
/// set stays L1-resident, and 128 KiB at 16 bits, more than a 48 KiB L1d
/// holds, so probes there mostly hit L2. Wider generators use the
/// [`PosMap`] hash fallback.
pub const DIRECT_INDEX_MAX_WIDTH: u32 = 16;

/// "Slot empty" sentinel of the direct index. `u16::MAX` (not 0) so the
/// hot pair loop needs a *single* compare: real positions are ≤ 2^16 − 2
/// (first occurrences sit below the order), sweep degrees `t` are below
/// the order too, so `p < t` is false for empty slots automatically.
const DIRECT_EMPTY: u16 = u16::MAX;

/// Weights `2..MEMO_WEIGHTS` get a `d_min` memo slot and a persistent
/// MITM subset-map slot (covers every profile weight; rarer weights
/// simply re-scan with transient state).
const MEMO_WEIGHTS: usize = 33;

/// Widest generator that uses the compressed two-level index; wider
/// generators fall back to the [`PosMap`] hash (the paper's subject —
/// the 32-bit space — sits exactly at this ceiling).
pub const TWO_LEVEL_MAX_WIDTH: u32 = 32;

/// log₂ of the largest two-level bucket directory (`4 × 2^20` = 4 MiB;
/// widths below this use their full value space and are collision-free).
/// Collisions only cost spill-row hops, so the directory can stay far
/// smaller than the 32-bit value space.
const WIDE_DIR_BITS: u32 = 20;

/// log₂ of the two-level presence screen in bits (2¹⁷ bits = 16 KiB,
/// L1-resident; indexed by the *low* value bits, complementing the
/// high-bits directory).
const WIDE_SCREEN_BITS: u32 = 17;

/// "Bucket empty" sentinel of the two-level directory.
const WIDE_EMPTY: u32 = u32::MAX;

/// Directory entries with this bit set hold a spill-row number, not a
/// position (positions are < 2³¹; the sweep's `e < t` compare rejects
/// both markers and the sentinel for free).
const WIDE_SPILL: u32 = 1 << 31;

/// How a workspace chooses its position index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Direct-indexed table for widths ≤ [`DIRECT_INDEX_MAX_WIDTH`],
    /// two-level for widths ≤ [`TWO_LEVEL_MAX_WIDTH`], hash otherwise.
    Auto,
    /// Always use the [`PosMap`] hash path — the sparse-probe fallback,
    /// forced (used by differential tests and before/after benches).
    ForceHash,
}

/// Which index flavor a binding ended up with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Direct-indexed `u16` table over the value space.
    Direct,
    /// Compressed two-level index (presence screen + bucket directory +
    /// spill rows) for wide widths.
    TwoLevel,
    /// Open-addressing hash table ([`PosMap`]).
    Hash,
}

/// What a workspace knows about weight-`w` multiples (constant term 1)
/// of the bound polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeightFact {
    /// Nothing beyond the trivial degree ≥ w−1 bound.
    Unknown,
    /// No weight-`w` multiple has degree < this (a capped search came up
    /// empty through this−1).
    ZeroBelow(u32),
    /// The exact minimal degree of a weight-`w` multiple.
    MinDegree(u32),
}

/// A persisted `d_min` memo fact for one weight: the public,
/// serializable mirror of the workspace's internal memo. Every capped
/// search deposits either the exact answer or a certified-clean range;
/// [`SyndromeWorkspace::memo_facts`] exports those deposits and
/// [`SyndromeWorkspace::seed_memo`] replants them — in a fresh
/// workspace, or a fresh *process* — so a second evaluation pass (say,
/// re-profiling a survey survivor at 8k–64k bits) resumes each weight's
/// scan where the first pass stopped instead of restarting from degree
/// `w − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoFact {
    /// No weight-`w` multiple has degree below this bound (a capped
    /// search came up empty through `bound − 1`).
    ZeroBelow(u32),
    /// The exact minimal degree of a weight-`w` multiple.
    MinDegree(u32),
}

/// A reusable, grow-only evaluation workspace for one polynomial at a
/// time (see the module docs). Create once per worker, then call the
/// evaluation methods — each auto-binds to its polynomial argument,
/// keeping all cached state while the polynomial stays the same and
/// cheaply resetting (allocations retained) when it changes.
#[derive(Debug, Clone)]
pub struct SyndromeWorkspace {
    policy: IndexPolicy,
    g: Option<GenPoly>,
    seq: Option<SyndromeSeq>,
    /// `syn[i] = r(i)`; grow-only while bound.
    syn: Vec<u64>,
    order: Option<u128>,
    facts: [WeightFact; MEMO_WEIGHTS],
    kind: IndexKind,
    /// Positions `1..=indexed` are present in the active index.
    indexed: u32,
    /// Direct index: `direct[value] = first position`, 0 = absent
    /// (position 0 is never indexed). Sized lazily to `1 << width`;
    /// positions fit `u16` because first occurrences are below the
    /// order, which is below `2^width ≤ 2^16`.
    direct: Vec<u16>,
    /// `u16` mirror of `syn` for direct-index sweeps (values are
    /// `< 2^width ≤ 2^16` there); extended lazily, cleared on rebind.
    syn16: Vec<u16>,
    /// Hash fallback index.
    hash: PosMap,
    /// Two-level bucket directory over the high `dir_bits` bits of a
    /// value: [`WIDE_EMPTY`], a first-occurrence position, or a
    /// [`WIDE_SPILL`]-tagged row number. Grow-only across bindings
    /// (a narrower binding uses a prefix), cleared by replay.
    dir: Vec<u32>,
    /// Bits of the value space the directory covers (`min(width, 20)`).
    dir_bits: u32,
    /// `width - dir_bits`: the probe's high-bits shift.
    dir_shift: u32,
    /// Spill rows for the rare buckets holding ≥ 2 distinct values;
    /// positions ascending, deduplicated by value (first occurrence).
    rows: Vec<Vec<u32>>,
    /// Two-level presence screen (see [`WIDE_SCREEN_BITS`]); allocated on
    /// first two-level binding, cleared by replay.
    wscreen: Vec<u64>,
    /// Persistent MITM subset maps, one per memoized weight, extended
    /// incrementally across calls and reset (allocations kept) on
    /// rebind — see [`MitmState`].
    mitm: Vec<Option<MitmState>>,
    rebinds: u64,
}

impl Default for SyndromeWorkspace {
    fn default() -> SyndromeWorkspace {
        SyndromeWorkspace::new()
    }
}

impl SyndromeWorkspace {
    /// An empty workspace with the [`IndexPolicy::Auto`] index choice.
    pub fn new() -> SyndromeWorkspace {
        SyndromeWorkspace::with_policy(IndexPolicy::Auto)
    }

    /// An empty workspace with an explicit index policy.
    pub fn with_policy(policy: IndexPolicy) -> SyndromeWorkspace {
        SyndromeWorkspace {
            policy,
            g: None,
            seq: None,
            syn: Vec::new(),
            order: None,
            facts: [WeightFact::Unknown; MEMO_WEIGHTS],
            kind: IndexKind::Hash,
            indexed: 0,
            direct: Vec::new(),
            syn16: Vec::new(),
            hash: PosMap::with_capacity(0),
            dir: Vec::new(),
            dir_bits: 0,
            dir_shift: 0,
            rows: Vec::new(),
            wscreen: Vec::new(),
            mitm: Vec::new(),
            rebinds: 0,
        }
    }

    /// Binds the workspace to `g`: a no-op when `g` is already bound,
    /// otherwise clears the cached state (keeping allocations — the
    /// direct index is cleared by replaying the positions it holds).
    pub fn bind(&mut self, g: &GenPoly) {
        if self.g.as_ref() == Some(g) {
            return;
        }
        match self.kind {
            IndexKind::Direct => {
                for i in 1..=self.indexed {
                    self.direct[self.syn[i as usize] as usize] = DIRECT_EMPTY;
                }
            }
            IndexKind::TwoLevel => {
                for i in 1..=self.indexed {
                    let v = self.syn[i as usize];
                    self.dir[(v >> self.dir_shift) as usize] = WIDE_EMPTY;
                    let low = v as usize & ((1 << WIDE_SCREEN_BITS) - 1);
                    self.wscreen[low >> 6] &= !(1u64 << (low & 63));
                }
                self.rows.clear();
            }
            IndexKind::Hash => self.hash.clear(),
        }
        self.indexed = 0;
        self.syn.clear();
        self.syn16.clear();
        self.order = None;
        self.facts = [WeightFact::Unknown; MEMO_WEIGHTS];
        for state in self.mitm.iter_mut().flatten() {
            state.reset();
        }
        self.kind = match self.policy {
            IndexPolicy::ForceHash => IndexKind::Hash,
            IndexPolicy::Auto if g.width() <= DIRECT_INDEX_MAX_WIDTH => IndexKind::Direct,
            IndexPolicy::Auto if g.width() <= TWO_LEVEL_MAX_WIDTH => IndexKind::TwoLevel,
            IndexPolicy::Auto => IndexKind::Hash,
        };
        if self.kind == IndexKind::Direct {
            let need = 1usize << g.width();
            if self.direct.len() < need {
                self.direct.resize(need, DIRECT_EMPTY);
            }
        }
        if self.kind == IndexKind::TwoLevel {
            self.dir_bits = g.width().min(WIDE_DIR_BITS);
            self.dir_shift = g.width() - self.dir_bits;
            let need = 1usize << self.dir_bits;
            if self.dir.len() < need {
                self.dir.resize(need, WIDE_EMPTY);
            }
            if self.wscreen.is_empty() {
                self.wscreen = vec![0; 1 << (WIDE_SCREEN_BITS - 6)];
            }
        }
        let seq = SyndromeSeq::new(g);
        self.syn.push(seq.peek());
        self.seq = Some(seq);
        self.g = Some(*g);
        self.rebinds += 1;
    }

    /// The polynomial currently bound, if any.
    pub fn bound(&self) -> Option<&GenPoly> {
        self.g.as_ref()
    }

    /// The index flavor of the current binding.
    pub fn index_kind(&self) -> IndexKind {
        self.kind
    }

    /// Number of syndromes `r(0)..` computed so far for the binding.
    pub fn syndromes_known(&self) -> usize {
        self.syn.len()
    }

    /// Number of positions present in the value→position index.
    pub fn positions_indexed(&self) -> u32 {
        self.indexed
    }

    /// How many times the workspace has been (re)bound.
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    /// Implicit growth rehashes of the hash index (see
    /// [`PosMap::rehashes`]) — stays 0 when every scan pre-sizes through
    /// `reserve_hash` per the documented sizing contract.
    pub fn hash_rehashes(&self) -> u64 {
        self.hash.rehashes()
    }

    /// Number of entries currently held in the hash index.
    pub fn hash_len(&self) -> usize {
        self.hash.len()
    }

    /// Slot capacity of the hash index; together with [`hash_len`] this
    /// gives the load factor a telemetry gauge can report without
    /// reaching into [`PosMap`] internals.
    ///
    /// [`hash_len`]: SyndromeWorkspace::hash_len
    pub fn hash_capacity(&self) -> usize {
        self.hash.capacity()
    }

    /// Number of spill rows the two-level index has materialized —
    /// syndrome values whose first-level slot overflowed into a
    /// heap-allocated row. Stays 0 for `Direct` and `Hash` bindings.
    pub fn two_level_spill_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total positions stored across all two-level spill rows — the
    /// subset of [`positions_indexed`] that could not live in the
    /// first-level directory.
    ///
    /// [`positions_indexed`]: SyndromeWorkspace::positions_indexed
    pub fn two_level_spill_positions(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The multiplicative order of `x` mod `g` (= `d_min(2)`), cached
    /// across every evaluation of the binding.
    pub fn order(&mut self, g: &GenPoly) -> u128 {
        self.bind(g);
        self.order_value()
    }

    fn order_value(&mut self) -> u128 {
        if self.order.is_none() {
            self.order = Some(dmin2(self.g.as_ref().expect("workspace is bound")));
        }
        self.order.expect("just filled")
    }

    /// Exports every non-trivial `d_min` memo fact the binding to `g`
    /// holds, as `(weight, fact)` pairs in ascending weight order —
    /// the serializable state a caller persists to resume evaluation in
    /// a later process via [`SyndromeWorkspace::seed_memo`]. Weight 2 is
    /// excluded: its answer is the multiplicative order, which callers
    /// persist separately (see [`SyndromeWorkspace::seed_order`]).
    pub fn memo_facts(&mut self, g: &GenPoly) -> Vec<(u32, MemoFact)> {
        self.bind(g);
        (3..MEMO_WEIGHTS as u32)
            .filter_map(|w| match self.fact(w) {
                WeightFact::Unknown => None,
                WeightFact::ZeroBelow(t) => Some((w, MemoFact::ZeroBelow(t))),
                WeightFact::MinDegree(d) => Some((w, MemoFact::MinDegree(d))),
            })
            .collect()
    }

    /// Seeds the binding to `g` with previously exported memo facts
    /// (see [`SyndromeWorkspace::memo_facts`]). Facts only ever
    /// strengthen: an exact answer is never displaced, and
    /// certified-clean bounds merge to the larger one, so seeding stale
    /// or partial state is always safe — but the facts themselves are
    /// *caller-certified*: they must describe `g` (as exported by an
    /// earlier binding to the same polynomial), or later answers will be
    /// wrong. Weights outside the memoized range are ignored.
    pub fn seed_memo(&mut self, g: &GenPoly, facts: &[(u32, MemoFact)]) {
        self.bind(g);
        for &(w, fact) in facts {
            if !(3..MEMO_WEIGHTS as u32).contains(&w) {
                continue;
            }
            let merged = match (self.fact(w), fact) {
                (WeightFact::MinDegree(d), _) => WeightFact::MinDegree(d),
                (_, MemoFact::MinDegree(d)) => WeightFact::MinDegree(d),
                (WeightFact::ZeroBelow(a), MemoFact::ZeroBelow(b)) => {
                    WeightFact::ZeroBelow(a.max(b))
                }
                (WeightFact::Unknown, MemoFact::ZeroBelow(b)) => WeightFact::ZeroBelow(b),
            };
            self.set_fact(w, merged);
        }
    }

    /// Seeds the cached multiplicative order of `x` mod `g` (caller-
    /// certified, like [`SyndromeWorkspace::seed_memo`]): the one
    /// evaluation input the memo facts do not cover. A no-op when the
    /// binding already computed its order.
    pub fn seed_order(&mut self, g: &GenPoly, order: u128) {
        self.bind(g);
        if self.order.is_none() {
            self.order = Some(order);
        }
    }

    fn fact(&self, w: u32) -> WeightFact {
        self.facts
            .get(w as usize)
            .copied()
            .unwrap_or(WeightFact::Unknown)
    }

    fn set_fact(&mut self, w: u32, fact: WeightFact) {
        if let Some(slot) = self.facts.get_mut(w as usize) {
            *slot = fact;
        }
    }

    /// The degree below which weight-`w` multiples are certified absent
    /// (0 when nothing is known).
    fn zero_below(&self, w: u32) -> u32 {
        match self.fact(w) {
            WeightFact::Unknown => 0,
            WeightFact::ZeroBelow(t) => t,
            WeightFact::MinDegree(d) => d,
        }
    }

    /// The direct table sliced to exactly the bound width's value space,
    /// plus the value mask. The exact length and the mask together let
    /// the compiler drop the bounds check from every probe (syndromes
    /// are `< 2^width`, so the mask is the identity on real values).
    fn direct_table(&self) -> (&[u16], u64) {
        let width = self.g.as_ref().expect("workspace is bound").width();
        (&self.direct[..1usize << width], (1u64 << width) - 1)
    }

    /// Rebuilds the current direct index as a hash index (same
    /// first-occurrence contents) and flips the binding to
    /// [`IndexKind::Hash`] — the escape hatch for positions that would
    /// collide with the `u16` sentinel; see `ensure_indexed`.
    fn migrate_direct_to_hash(&mut self, upto: u32) {
        let mut m = PosMap::with_capacity(upto as usize);
        for i in 1..=self.indexed {
            let v = self.syn[i as usize];
            self.direct[v as usize] = DIRECT_EMPTY;
            m.insert(v, i);
        }
        self.hash = m;
        self.kind = IndexKind::Hash;
    }

    /// Pre-sizes the hash index for a scan that may index up to `n`
    /// positions. Scans leave the load factor low this way — exactly
    /// like the scratch paths, which size their map for the cap — so
    /// probe collision chains stay short even when an early exit leaves
    /// the table mostly empty. [`PosMap::reserve`] at-least-doubles on
    /// every actual resize, so an index trailing its table through many
    /// slightly-growing caps (the breakpoint search's bisection pattern
    /// at 32-bit cardinalities) pays `O(log n)` rebuilds total, and
    /// `rehashes()` stays 0 under the sizing contract. No-op for the
    /// direct and two-level indexes (collision-free / spill-row based).
    fn reserve_hash(&mut self, n: u32) {
        if self.kind == IndexKind::Hash {
            self.hash.reserve(n as usize);
        }
    }

    /// Extends the `u16` syndrome mirror to cover `syn[..=upto]`.
    fn ensure_syn16(&mut self, upto: u32) {
        debug_assert!((upto as usize) < self.syn.len());
        while self.syn16.len() <= upto as usize {
            self.syn16.push(self.syn[self.syn16.len()] as u16);
        }
    }

    fn ensure_syndromes(&mut self, upto: u32) {
        self.seq
            .as_mut()
            .expect("workspace is bound")
            .extend_table(&mut self.syn, upto as usize);
    }

    /// Extends the index to cover positions `1..=upto` (syndromes must
    /// already be computed that far).
    fn ensure_indexed(&mut self, upto: u32) {
        debug_assert!((upto as usize) < self.syn.len());
        if self.kind == IndexKind::Direct && upto >= DIRECT_EMPTY as u32 {
            // A u16 direct index cannot represent positions at or past
            // the sentinel. Reachable only when a scan runs past an
            // order of exactly 2^16 − 1 (a primitive width-16
            // generator): position 2^16 − 1 re-introduces the value
            // r(0) = 1, which position 0 never indexed. Migrate the
            // binding to the hash index (first occurrences preserved by
            // inserting in position order) and continue there.
            self.migrate_direct_to_hash(upto);
        }
        match self.kind {
            IndexKind::Direct => {
                while self.indexed < upto {
                    self.indexed += 1;
                    let slot = &mut self.direct[self.syn[self.indexed as usize] as usize];
                    if *slot == DIRECT_EMPTY {
                        // An empty slot means a first occurrence, and
                        // first occurrences lie below the order < 2^16:
                        // past the order the sequence repeats, so every
                        // later position finds its value already stored
                        // (and no stored position collides with the
                        // sentinel).
                        debug_assert!(self.indexed < DIRECT_EMPTY as u32);
                        *slot = self.indexed as u16;
                    }
                }
            }
            IndexKind::TwoLevel => {
                let shift = self.dir_shift;
                while self.indexed < upto {
                    self.indexed += 1;
                    let p = self.indexed;
                    debug_assert!(p < WIDE_SPILL, "positions stay below the spill tag");
                    let v = self.syn[p as usize];
                    let low = v as usize & ((1 << WIDE_SCREEN_BITS) - 1);
                    self.wscreen[low >> 6] |= 1u64 << (low & 63);
                    let bucket = (v >> shift) as usize;
                    let e = self.dir[bucket];
                    if e == WIDE_EMPTY {
                        self.dir[bucket] = p;
                    } else if e & WIDE_SPILL != 0 {
                        let ri = (e & !WIDE_SPILL) as usize;
                        if !self.rows[ri].iter().any(|&q| self.syn[q as usize] == v) {
                            self.rows[ri].push(p);
                        }
                    } else if self.syn[e as usize] != v {
                        // Second distinct value in this bucket: spill both
                        // positions to a dense row (ascending, so the first
                        // match during a scan is the first occurrence).
                        let ri = self.rows.len() as u32;
                        debug_assert!(ri < WIDE_SPILL);
                        self.rows.push(vec![e, p]);
                        self.dir[bucket] = WIDE_SPILL | ri;
                    }
                    // else: later occurrence of an indexed value — keep the
                    // first position, exactly like the other index kinds.
                }
            }
            IndexKind::Hash => {
                while self.indexed < upto {
                    self.indexed += 1;
                    self.hash
                        .insert(self.syn[self.indexed as usize], self.indexed);
                }
            }
        }
    }

    /// Smallest degree `t ≤ cap` of a weight-`w` multiple of the bound
    /// polynomial with nonzero constant term — the workspace-backed
    /// equivalent of [`crate::reference::dmin`], with memoized resume:
    /// a search capped at `c` leaves behind either the exact answer or a
    /// certified-clean range, and the next call continues from there.
    ///
    /// # Errors
    ///
    /// As [`crate::reference::dmin`]: `w < 2` is [`Error::BadLength`];
    /// `w ≥ 5` searches can return [`Error::BudgetExceeded`].
    pub fn dmin(&mut self, g: &GenPoly, w: u32, cap: u32) -> Result<Option<u32>> {
        if w < 2 {
            return Err(Error::BadLength(format!("weight {w} < 2 has no multiples")));
        }
        self.bind(g);
        if w == 2 {
            let e = self.order_value();
            return Ok(if e <= cap as u128 {
                Some(e as u32)
            } else {
                None
            });
        }
        if g.divisible_by_x_plus_1() && w % 2 == 1 {
            return Ok(None);
        }
        if cap < w - 1 {
            return Ok(None);
        }
        match self.fact(w) {
            WeightFact::MinDegree(d) => {
                return Ok(if d <= cap { Some(d) } else { None });
            }
            WeightFact::ZeroBelow(t) if t > cap => return Ok(None),
            _ => {}
        }
        match w {
            3 => Ok(self.scan_w3(cap)),
            4 => Ok(self.scan_w4(cap)),
            _ => self.scan_mitm(w, cap),
        }
    }

    /// Does any weight-`w` codeword fit in `codeword_len` bits?
    ///
    /// # Errors
    ///
    /// As [`SyndromeWorkspace::dmin`].
    pub fn exists_weight(&mut self, g: &GenPoly, w: u32, codeword_len: u32) -> Result<bool> {
        if codeword_len == 0 {
            return Ok(false);
        }
        Ok(self.dmin(g, w, codeword_len - 1)?.is_some())
    }

    /// First position of `v` in the built index, 0 when absent.
    #[inline]
    fn pos_of(&self, v: u64) -> u32 {
        match self.kind {
            IndexKind::Direct => {
                let p = self.direct[v as usize];
                if p == DIRECT_EMPTY {
                    0
                } else {
                    p as u32
                }
            }
            IndexKind::TwoLevel => twolevel_pos(
                &self.syn,
                &self.wscreen,
                &self.dir,
                self.dir_shift,
                &self.rows,
                v,
            ),
            IndexKind::Hash => self.hash.get(v).unwrap_or(0),
        }
    }

    fn scan_w3(&mut self, cap: u32) -> Option<u32> {
        let start = self.zero_below(3).max(2);
        if start > cap {
            return None;
        }
        self.reserve_hash(cap - 1);
        let mut found = None;
        // Incremental growth (index trails the probe degree by one)
        // keeps early exits from paying for the full cap, exactly like
        // the scratch scan.
        for t in start..=cap {
            self.ensure_syndromes(t);
            self.ensure_indexed(t - 1);
            let p = self.pos_of(1 ^ self.syn[t as usize]);
            if p != 0 && p < t {
                found = Some(t);
                break;
            }
        }
        self.set_fact(
            3,
            match found {
                Some(t) => WeightFact::MinDegree(t),
                None => WeightFact::ZeroBelow(cap + 1),
            },
        );
        found
    }

    fn scan_w4(&mut self, cap: u32) -> Option<u32> {
        let start = self.zero_below(4).max(3);
        if start > cap {
            return None;
        }
        self.reserve_hash(cap - 1);
        let mut found = None;
        for t in start..=cap {
            self.ensure_syndromes(t);
            self.ensure_indexed(t - 1);
            let target = 1 ^ self.syn[t as usize];
            let hit = match self.kind {
                IndexKind::Direct => {
                    let (tbl, mask) = self.direct_table();
                    row_has_pair(&self.syn, t, target, |v| {
                        let p = tbl[(v & mask) as usize];
                        if p == DIRECT_EMPTY {
                            0
                        } else {
                            p as u32
                        }
                    })
                }
                IndexKind::TwoLevel => {
                    let (syn, screen) = (&self.syn, &self.wscreen[..]);
                    let (dir, rows, shift) = (&self.dir[..], &self.rows[..], self.dir_shift);
                    row_has_pair(syn, t, target, |v| {
                        twolevel_pos(syn, screen, dir, shift, rows, v)
                    })
                }
                IndexKind::Hash => {
                    let map = &self.hash;
                    row_has_pair(&self.syn, t, target, |v| map.get(v).unwrap_or(0))
                }
            };
            if hit {
                found = Some(t);
                break;
            }
        }
        self.set_fact(
            4,
            match found {
                Some(t) => WeightFact::MinDegree(t),
                None => WeightFact::ZeroBelow(cap + 1),
            },
        );
        found
    }

    fn scan_mitm(&mut self, w: u32, cap: u32) -> Result<Option<u32>> {
        let probe_from = self.zero_below(w);
        if w == 5 && self.kind != IndexKind::Hash && (cap as u128) < self.order_value() {
            // Weight-5 specialization: the MITM a-side here is a
            // *singleton* map, and below the order (values distinct, so
            // first occurrences are the only occurrences) that map is
            // exactly the workspace's first-occurrence index. Probing the
            // b = 2 inner pairs against the index replaces the subset-map
            // build entirely, shares syndromes/index with every other
            // scan, and needs no budget (the map it replaces is the
            // index, whose size is bounded by the cap).
            let found = self.scan_w5_indexed(cap, probe_from);
            self.set_fact(
                5,
                match found {
                    Some(d) => WeightFact::MinDegree(d),
                    None => WeightFact::ZeroBelow(cap + 1),
                },
            );
            return Ok(found);
        }
        if self.mitm.is_empty() && (w as usize) < MEMO_WEIGHTS {
            self.mitm = std::iter::repeat_with(|| None).take(MEMO_WEIGHTS).collect();
        }
        let seq = self.seq.as_mut().expect("workspace is bound");
        let found = if let Some(slot) = self.mitm.get_mut(w as usize) {
            // Persistent subset map: extended incrementally across calls
            // on this binding, so `hd_filter → HdProfile → weights234`
            // funnels stop rebuilding it from scratch per stage.
            let state = slot.get_or_insert_with(MitmState::new);
            mitm_scan_with(w, cap, probe_from, &mut self.syn, seq, state)?
        } else {
            mitm_scan_with(
                w,
                cap,
                probe_from,
                &mut self.syn,
                seq,
                &mut MitmState::new(),
            )?
        };
        self.set_fact(
            w,
            match found {
                Some(d) => WeightFact::MinDegree(d),
                None => WeightFact::ZeroBelow(cap + 1),
            },
        );
        Ok(found)
    }

    /// The index-backed weight-5 scan (see `scan_mitm`): for each top
    /// degree `t`, probe every inner pair `i < j` for a third partner
    /// position completing `r(i)^r(j)^r(k) = 1^r(t)` — the same probe
    /// count as the reference MITM split (a = 1, b = 2), with the
    /// singleton map replaced by the shared index. Only called with
    /// `cap` below the order, where first occurrences are unique
    /// occurrences, so the index answers exactly what the map would.
    fn scan_w5_indexed(&mut self, cap: u32, probe_from: u32) -> Option<u32> {
        let start = probe_from.max(4);
        if start > cap {
            return None;
        }
        self.reserve_hash(cap - 1);
        for t in start..=cap {
            self.ensure_syndromes(t);
            self.ensure_indexed(t - 1);
            let target = 1 ^ self.syn[t as usize];
            for j in 2..t {
                let vj = target ^ self.syn[j as usize];
                for i in 1..j {
                    let k = self.pos_of(vj ^ self.syn[i as usize]);
                    if k != 0 && k < t && k != i && k != j {
                        return Some(t);
                    }
                }
            }
        }
        None
    }

    /// The fast HD filter over this workspace — see
    /// [`crate::filter::hd_filter_in`], which this delegates to.
    ///
    /// # Errors
    ///
    /// As [`SyndromeWorkspace::dmin`].
    pub fn hd_filter(
        &mut self,
        g: &GenPoly,
        data_len: u32,
        target_hd: u32,
    ) -> Result<FilterVerdict> {
        crate::filter::hd_filter_in(self, g, data_len, target_hd)
    }

    /// Exact `W₂` at any data-word length from the cached order.
    ///
    /// # Errors
    ///
    /// [`Error::BadLength`] for zero or overflowing lengths.
    pub fn weight2(&mut self, g: &GenPoly, data_len: u32) -> Result<u128> {
        if data_len == 0 {
            return Err(Error::BadLength("data_len must be positive".into()));
        }
        let l = data_len
            .checked_add(g.width())
            .ok_or_else(|| Error::BadLength("codeword length overflow".into()))?
            as u128;
        self.bind(g);
        Ok(weight2_from_order(self.order_value(), l))
    }

    /// Exact `W₂`, `W₃`, `W₄` at `data_len` — the workspace-kernel
    /// equivalent of [`crate::reference::weights234`]. The top-degree
    /// sweep starts at the smallest degree not already certified clean
    /// by earlier `d_min` searches on this binding (a profile computed
    /// first makes most of the sweep vanish), and what the sweep proves
    /// flows back into the memo.
    ///
    /// # Errors
    ///
    /// As [`crate::reference::weights234`]: zero/overflowing lengths and
    /// codeword lengths beyond the polynomial order are
    /// [`Error::BadLength`].
    pub fn weights234(&mut self, g: &GenPoly, data_len: u32) -> Result<Weights234> {
        if data_len == 0 {
            return Err(Error::BadLength("data_len must be positive".into()));
        }
        let r = g.width();
        let codeword_len = data_len
            .checked_add(r)
            .ok_or_else(|| Error::BadLength("codeword length overflow".into()))?;
        self.bind(g);
        let order = self.order_value();
        let l = codeword_len as u64;
        if (l as u128) > order {
            return Err(Error::BadLength(format!(
                "codeword length {l} exceeds the polynomial order {order}; \
                 exact counting requires distinct syndromes"
            )));
        }
        let w2 = weight2_from_order(order, l as u128);
        let parity = g.divisible_by_x_plus_1();
        let zb3 = if parity {
            u32::MAX
        } else {
            self.zero_below(3).max(2)
        };
        let zb4 = self.zero_below(4).max(2);
        let mut w3 = 0u128;
        let mut w4 = 0u128;
        if zb3.min(zb4) < codeword_len {
            self.ensure_syndromes(codeword_len - 1);
            let sweep = match self.kind {
                IndexKind::Direct => {
                    // Collision-free probes: build the whole index once,
                    // then run the u16 kernel (its table is L1-resident
                    // up to 13 bits; see DIRECT_INDEX_MAX_WIDTH).
                    self.ensure_indexed(codeword_len - 2);
                    self.ensure_syn16(codeword_len - 1);
                    let (tbl, mask) = self.direct_table();
                    sweep_w34_direct(&self.syn16, tbl, mask as u16, codeword_len, zb3, zb4)
                }
                IndexKind::TwoLevel => {
                    // Spill-row probes are exact and bound-checked, so
                    // build the whole index once (no trailing) and run
                    // the screen-first kernel.
                    self.ensure_indexed(codeword_len - 2);
                    self.sweep_w34_twolevel(codeword_len, zb3, zb4)
                }
                IndexKind::Hash => self.sweep_w34_hash(codeword_len, zb3, zb4),
            };
            w3 = sweep.w3;
            w4 = sweep.w4;
            // Fold what the sweep proved back into the memo: a first hit
            // is an exact d_min (everything below its start was already
            // certified clean); a clean sweep certifies the whole range.
            if !parity {
                self.note_scan(3, sweep.first3, codeword_len - 1);
            }
            self.note_scan(4, sweep.first4, codeword_len - 1);
        }
        Ok(Weights234 {
            data_len,
            codeword_len,
            w2,
            w3,
            w4,
        })
    }

    /// Records a weights-sweep outcome for weight `w`: `first` is the
    /// first degree with a hit (0 = none), `scanned_to` the last degree
    /// swept. Facts only ever strengthen — a clean short sweep must not
    /// shrink a larger certified-clean range left by an earlier search.
    fn note_scan(&mut self, w: u32, first: u32, scanned_to: u32) {
        match (self.fact(w), first) {
            (WeightFact::MinDegree(_), _) => {}
            (_, 0) => {
                let zb = (scanned_to + 1).max(self.zero_below(w));
                self.set_fact(w, WeightFact::ZeroBelow(zb));
            }
            (_, t) => self.set_fact(w, WeightFact::MinDegree(t)),
        }
    }
}

/// Is there a pair `i ≠ j`, both in `[1, t-1]`, with
/// `r(i) ^ r(j) = target`? `lookup` returns the first position of a
/// value (0 for absent); the explicit `p < t` bound makes an index that
/// runs ahead of `t` safe.
#[inline]
fn row_has_pair(syn: &[u64], t: u32, target: u64, lookup: impl Fn(u64) -> u32) -> bool {
    for (k, &s) in syn[1..t as usize].iter().enumerate() {
        let i = (k + 1) as u32;
        let p = lookup(target ^ s);
        if p != 0 && p < t && p != i {
            return true;
        }
    }
    false
}

/// First position of `v` in a two-level index, 0 when absent: presence
/// screen (low bits, one L1 load — rejects ~all pair-sweep misses) →
/// bucket directory (high bits) → one confirming compare against the
/// syndrome table, or a spill-row scan for the rare colliding buckets.
#[inline]
fn twolevel_pos(
    syn: &[u64],
    screen: &[u64],
    dir: &[u32],
    shift: u32,
    rows: &[Vec<u32>],
    v: u64,
) -> u32 {
    let low = v as usize & ((1 << WIDE_SCREEN_BITS) - 1);
    if screen[low >> 6] & (1u64 << (low & 63)) == 0 {
        return 0;
    }
    let e = dir[(v >> shift) as usize];
    if e == WIDE_EMPTY {
        return 0;
    }
    if e & WIDE_SPILL == 0 {
        return if syn[e as usize] == v { e } else { 0 };
    }
    rows[(e & !WIDE_SPILL) as usize]
        .iter()
        .copied()
        .find(|&q| syn[q as usize] == v)
        .unwrap_or(0)
}

/// Resolves a screen-surviving pair probe `v` (partner of position `i`
/// at top degree `t`) against the directory: true iff `v` first occurs
/// at a position in `(i, t)` — the "count each unordered pair from its
/// smaller side once" rule of the hash sweep, in branch-light form. The
/// `e < t` compare rejects [`WIDE_EMPTY`], spill tags *and* positions
/// the index holds beyond `t` in one go; sweeps run below the order, so
/// a first occurrence is the only occurrence below `t`.
#[inline]
fn twolevel_pair_hit(
    syn: &[u64],
    dir: &[u32],
    shift: u32,
    rows: &[Vec<u32>],
    v: u64,
    i: u32,
    t: u32,
) -> bool {
    let e = dir[(v >> shift) as usize];
    if e < t {
        return syn[e as usize] == v && e > i;
    }
    if e != WIDE_EMPTY && e & WIDE_SPILL != 0 {
        if let Some(q) = rows[(e & !WIDE_SPILL) as usize]
            .iter()
            .copied()
            .find(|&q| syn[q as usize] == v)
        {
            return q > i && q < t;
        }
    }
    false
}

/// Accumulated result of one weights sweep.
#[derive(Default)]
struct Sweep {
    w3: u128,
    w4: u128,
    /// First degree with a weight-3 hit (0 = none).
    first3: u32,
    /// First degree with a weight-4 pair (0 = none).
    first4: u32,
}

impl SyndromeWorkspace {
    /// The weights top-degree sweep over the hash index, with
    /// certified-zero skipping: the weight-3 probe runs only for
    /// `t ≥ zb3` and the `O(t)` pair loop only for `t ≥ zb4`. The index
    /// trails the probe degree (extended per `t`), so on a fresh binding
    /// early probes hit a nearly-empty table and collision chains ramp
    /// up exactly like the scratch sweep's; on a reused binding the
    /// index may already run ahead, which the explicit `p < t` bound
    /// makes safe. The inner loop keeps the scratch sweep's
    /// branch-on-hit shape — hash probes miss almost always, and the
    /// predicted-not-taken branch beats a branchless accumulate there.
    fn sweep_w34_hash(&mut self, codeword_len: u32, zb3: u32, zb4: u32) -> Sweep {
        self.reserve_hash(codeword_len.saturating_sub(2));
        let l = codeword_len as u64;
        let mut out = Sweep::default();
        let t_start = zb3.min(zb4).max(2);
        for t in t_start..codeword_len {
            self.ensure_indexed(t - 1);
            let (syn, map) = (&self.syn, &self.hash);
            let target = 1 ^ syn[t as usize];
            let shifts = (l - t as u64) as u128;
            if t >= zb3 {
                if let Some(p) = map.get(target) {
                    if p < t {
                        out.w3 += shifts;
                        if out.first3 == 0 {
                            out.first3 = t;
                        }
                    }
                }
            }
            if t >= zb4 {
                let mut pairs = 0u64;
                for (k, &s) in syn[1..t as usize].iter().enumerate() {
                    let i = (k + 1) as u32;
                    if let Some(p) = map.get(target ^ s) {
                        if p > i && p < t {
                            pairs += 1;
                        }
                    }
                }
                if pairs != 0 {
                    out.w4 += pairs as u128 * shifts;
                    if out.first4 == 0 {
                        out.first4 = t;
                    }
                }
            }
        }
        out
    }

    /// The wide-width weights sweep over the two-level index. The inner
    /// pair loop leads with the 16 KiB presence screen — one L1 load and
    /// a predicted-not-taken branch kill almost every probe before it
    /// touches the (much larger) bucket directory, which is what buys
    /// the 32-bit speedup over the hash sweep. Probes run against the
    /// *full* syndrome table on purpose: on a reused binding the
    /// directory and spill rows may reference positions past this
    /// sweep's length (from an earlier longer scan), and the explicit
    /// `< t` bounds in [`twolevel_pair_hit`] make that safe where a
    /// truncated slice would panic.
    fn sweep_w34_twolevel(&self, codeword_len: u32, zb3: u32, zb4: u32) -> Sweep {
        let syn = &self.syn[..];
        let screen = &self.wscreen[..1 << (WIDE_SCREEN_BITS - 6)];
        let dir = &self.dir[..1usize << self.dir_bits];
        let rows = &self.rows[..];
        let shift = self.dir_shift;
        let l = codeword_len as u64;
        let mut out = Sweep::default();
        let t_start = zb3.min(zb4).max(2);
        for t in t_start..codeword_len {
            let target = 1 ^ syn[t as usize];
            let shifts = (l - t as u64) as u128;
            if t >= zb3 {
                let p = twolevel_pos(syn, screen, dir, shift, rows, target);
                if p != 0 && p < t {
                    out.w3 += shifts;
                    if out.first3 == 0 {
                        out.first3 = t;
                    }
                }
            }
            if t >= zb4 {
                let mut pairs = 0u64;
                for (k, &s) in syn[1..t as usize].iter().enumerate() {
                    let v = target ^ s;
                    let low = v as usize & ((1 << WIDE_SCREEN_BITS) - 1);
                    if screen[low >> 6] & (1u64 << (low & 63)) == 0 {
                        continue;
                    }
                    let i = (k + 1) as u32;
                    pairs += twolevel_pair_hit(syn, dir, shift, rows, v, i, t) as u64;
                }
                if pairs != 0 {
                    out.w4 += pairs as u128 * shifts;
                    if out.first4 == 0 {
                        out.first4 = t;
                    }
                }
            }
        }
        out
    }
}

/// The direct-index weights sweep, specialized to the `u16` value/
/// position domain, which halves the probe table and the syndrome row
/// against `u32` (they share L1 up to 13 bits; see
/// [`DIRECT_INDEX_MAX_WIDTH`]). Semantically identical to [`sweep_w34`]
/// with a direct-table lookup.
fn sweep_w34_direct(
    syn16: &[u16],
    tbl: &[u16],
    mask: u16,
    codeword_len: u32,
    zb3: u32,
    zb4: u32,
) -> Sweep {
    // Re-slice so the compiler sees `index ≤ mask < tbl.len()` and drops
    // the bounds check from every probe.
    let tbl = &tbl[..mask as usize + 1];
    let l = codeword_len as u64;
    let mut out = Sweep::default();
    let t_start = zb3.min(zb4).max(2);
    for t in t_start..codeword_len {
        // Weights sweeps run below the order (< 2^16 at these widths).
        let t16 = t as u16;
        let target = 1 ^ syn16[t as usize];
        let shifts = (l - t as u64) as u128;
        if t >= zb3 {
            // Empty slots read as DIRECT_EMPTY ≥ t16, so `p < t16` alone
            // is "an earlier partner exists".
            let p = tbl[(target & mask) as usize];
            if p < t16 {
                out.w3 += shifts;
                if out.first3 == 0 {
                    out.first3 = t;
                }
            }
        }
        if t >= zb4 {
            // Each unordered pair {i, j} with r(i)^r(j) = target is seen
            // from both ends (the partner of i is j and vice versa;
            // p = i is impossible since target ≠ 0 below the order), so
            // one compare per probe and a final halving count the pairs.
            let mut twice = 0u64;
            for &s in &syn16[1..t as usize] {
                twice += (tbl[((target ^ s) & mask) as usize] < t16) as u64;
            }
            if twice != 0 {
                debug_assert!(twice.is_multiple_of(2));
                out.w4 += (twice / 2) as u128 * shifts;
                if out.first4 == 0 {
                    out.first4 = t;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn g32(koopman: u64) -> GenPoly {
        GenPoly::from_koopman(32, koopman).unwrap()
    }

    #[test]
    fn direct_and_hash_agree_with_reference_dmin() {
        for (width, koopman) in [(8u32, 0x83u64), (8, 0xEA), (13, 0x1021), (16, 0xC86C)] {
            let g = GenPoly::from_koopman(width, koopman).unwrap();
            let mut auto = SyndromeWorkspace::new();
            let mut hash = SyndromeWorkspace::with_policy(IndexPolicy::ForceHash);
            if width <= DIRECT_INDEX_MAX_WIDTH {
                auto.bind(&g);
                assert_eq!(auto.index_kind(), IndexKind::Direct);
            }
            for w in 2..=6u32 {
                for cap in [5u32, 40, 200] {
                    let want = reference::dmin(&g, w, cap).unwrap();
                    assert_eq!(auto.dmin(&g, w, cap).unwrap(), want, "auto w={w} cap={cap}");
                    assert_eq!(hash.dmin(&g, w, cap).unwrap(), want, "hash w={w} cap={cap}");
                }
            }
        }
    }

    #[test]
    fn capped_weight2_matches_reference_and_keeps_the_order_exact() {
        for (width, koopman) in [(8u32, 0x83u64), (8, 0xEA), (13, 0x1021), (16, 0xC86C)] {
            let g = GenPoly::from_koopman(width, koopman).unwrap();
            let order = gf2poly::order_of_x(g.to_poly()).unwrap();
            let e = u32::try_from(order).unwrap();
            for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
                // A fresh binding per cap, so each capped question is the
                // first one, then the same caps again on one binding.
                for cap in [e - 1, e, e + 1] {
                    let mut ws = SyndromeWorkspace::with_policy(policy);
                    let want = reference::dmin(&g, 2, cap).unwrap();
                    assert_eq!(ws.dmin(&g, 2, cap).unwrap(), want, "{g} cap {cap}");
                    assert_eq!(ws.order(&g), order, "{g} after cap {cap}");
                }
                let mut ws = SyndromeWorkspace::with_policy(policy);
                for cap in [e / 2, e - 1, e, e + 1, e / 2] {
                    let want = reference::dmin(&g, 2, cap).unwrap();
                    assert_eq!(ws.dmin(&g, 2, cap).unwrap(), want, "{g} cap {cap}");
                }
                assert_eq!(ws.order(&g), order, "{g}");
            }
        }
    }

    #[test]
    fn memo_resumes_across_growing_caps() {
        let g = g32(0x82608EDB);
        let mut ws = SyndromeWorkspace::new();
        // d_min(4) = 3006: a short capped search certifies a clean range,
        // a longer one resumes and finds the exact answer.
        assert_eq!(ws.dmin(&g, 4, 2000).unwrap(), None);
        assert_eq!(ws.dmin(&g, 4, 5000).unwrap(), Some(3006));
        // Memoized: shrinking the cap below the known minimum flips back
        // to None without re-scanning.
        assert_eq!(ws.dmin(&g, 4, 3005).unwrap(), None);
        assert_eq!(ws.dmin(&g, 4, 3006).unwrap(), Some(3006));
    }

    #[test]
    fn rebinding_clears_state_between_polynomials() {
        let mut ws = SyndromeWorkspace::new();
        let a = GenPoly::from_koopman(8, 0x83).unwrap();
        let b = GenPoly::from_koopman(8, 0x97).unwrap();
        for _ in 0..3 {
            for g in [a, b] {
                let want = reference::weights234(&g, 9).unwrap();
                assert_eq!(ws.weights234(&g, 9).unwrap(), want, "{g}");
            }
        }
        assert_eq!(ws.rebinds(), 6);
    }

    #[test]
    fn stat_accessors_track_index_population() {
        let g = g32(0x82608EDB);

        // Two-level binding (Auto at width 32): positions land in the
        // directory, collisions spill to rows; the spill accessors expose
        // that split.
        let mut two = SyndromeWorkspace::new();
        two.dmin(&g, 4, 5000).unwrap();
        assert_eq!(two.index_kind(), IndexKind::TwoLevel);
        assert!(two.positions_indexed() > 0);
        assert!(two.two_level_spill_positions() >= 2 * two.two_level_spill_rows());
        assert!(two.two_level_spill_positions() <= two.positions_indexed() as usize);
        // The hash accessors stay idle for a two-level binding.
        assert_eq!(two.hash_len(), 0);

        // Hash binding: entries accumulate in the PosMap and capacity
        // bounds them; the two-level accessors stay idle.
        let mut hash = SyndromeWorkspace::with_policy(IndexPolicy::ForceHash);
        hash.dmin(&g, 4, 5000).unwrap();
        assert_eq!(hash.index_kind(), IndexKind::Hash);
        assert!(hash.hash_len() > 0);
        assert!(hash.hash_capacity() >= hash.hash_len());
        assert_eq!(hash.two_level_spill_rows(), 0);
        assert_eq!(hash.two_level_spill_positions(), 0);
    }

    #[test]
    fn weights_after_profile_match_scratch_weights() {
        // The memo-hinted sweep (profile first certifies clean ranges)
        // must count exactly what the scratch sweep counts.
        for koopman in [0x82608EDBu64, 0xBA0DC66B, 0x8F6E37A0] {
            let g = g32(koopman);
            let mut ws = SyndromeWorkspace::new();
            let _profile = crate::HdProfile::compute_in(&mut ws, &g, 3000, 8).unwrap();
            let got = ws.weights234(&g, 3000).unwrap();
            let want = reference::weights234(&g, 3000).unwrap();
            assert_eq!(got, want, "{koopman:#x}");
        }
    }

    #[test]
    fn weights_sweep_feeds_the_memo() {
        let g = g32(0x82608EDB);
        let mut ws = SyndromeWorkspace::new();
        let w = ws.weights234(&g, 3000).unwrap();
        assert!(w.w4 > 0);
        // The sweep discovered the exact d_min(4); the next dmin call is
        // answered from the memo.
        assert_eq!(ws.dmin(&g, 4, 5000).unwrap(), Some(3006));
    }

    #[test]
    fn order_restriction_and_bad_lengths_match_reference() {
        let g = GenPoly::from_normal(8, 0x83).unwrap(); // order 14
        let mut ws = SyndromeWorkspace::new();
        assert!(ws.weights234(&g, 30).is_err());
        assert!(ws.weights234(&g, 0).is_err());
        assert!(reference::weights234(&g, 30).is_err());
        assert_eq!(
            ws.weight2(&g, 30).unwrap(),
            crate::weights::weight2(&g, 30).unwrap()
        );
    }

    #[test]
    fn direct_index_migrates_before_sentinel_positions() {
        // Only a generator with order exactly 2^16 - 1 (primitive width
        // 16) re-introduces a value (r(0) = 1, never indexed at position
        // 0) at the position that collides with the u16 sentinel; the
        // index must flip to the hash flavor before storing it.
        let g = (0x8000u64..0x8400)
            .filter_map(|k| GenPoly::from_koopman(16, k).ok())
            .find(|g| dmin2(g) == 65_535)
            .expect("a primitive 16-bit generator in range");
        let mut ws = SyndromeWorkspace::new();
        ws.bind(&g);
        assert_eq!(ws.index_kind(), IndexKind::Direct);
        ws.ensure_syndromes(70_000);
        ws.ensure_indexed(70_000 - 1);
        assert_eq!(ws.index_kind(), IndexKind::Hash, "must migrate");
        // The first indexed occurrence of value 1 is the order itself.
        assert_eq!(ws.pos_of(1), 65_535);
        for i in [1u32, 2, 7, 65_534] {
            let v = ws.syn[i as usize];
            assert_eq!(ws.pos_of(v), i, "first occurrence of r({i})");
        }
        // The migrated binding still answers like the scratch oracle.
        assert_eq!(
            ws.dmin(&g, 3, 400).unwrap(),
            reference::dmin(&g, 3, 400).unwrap()
        );
        assert_eq!(
            ws.weights234(&g, 300).unwrap(),
            reference::weights234(&g, 300).unwrap()
        );
    }

    #[test]
    fn weights_sweep_never_weakens_certified_ranges() {
        let g = g32(0x82608EDB);
        let mut ws = SyndromeWorkspace::new();
        // A capped search certifies a wide clean range for weight 4...
        assert_eq!(ws.dmin(&g, 4, 2500).unwrap(), None);
        assert_eq!(ws.zero_below(4), 2501);
        // ...and a subsequent *short* weights sweep (which skips all its
        // weight-4 probes against that range) must not shrink it.
        let w = ws.weights234(&g, 100).unwrap();
        assert_eq!((w.w3, w.w4), (0, 0));
        assert_eq!(ws.zero_below(4), 2501, "short sweep weakened the memo");
    }

    #[test]
    fn memo_facts_export_seed_and_resume() {
        // CRC-32 (IEEE): first weight-4 codeword near length 3007, no
        // weight-3 codeword until far beyond — so a 4000-bit pass
        // deposits one exact answer and one certified-clean range.
        let g = g32(0x82608EDB);
        let mut first = SyndromeWorkspace::new();
        let d4 = first.dmin(&g, 4, 4000).unwrap().expect("weight-4 < 4000");
        assert_eq!(first.dmin(&g, 3, 4000).unwrap(), None);
        let facts = first.memo_facts(&g);
        assert!(facts.contains(&(4, MemoFact::MinDegree(d4))));
        assert!(facts.contains(&(3, MemoFact::ZeroBelow(4001))));
        let order = first.order(&g);

        // Seeding a fresh workspace resumes instead of restarting: a
        // query inside the certified range answers from the memo alone,
        // before a single syndrome beyond r(0) is computed.
        let mut second = SyndromeWorkspace::new();
        second.seed_memo(&g, &facts);
        second.seed_order(&g, order);
        assert_eq!(second.dmin(&g, 3, 3000).unwrap(), None);
        assert_eq!(second.dmin(&g, 4, 4000).unwrap(), Some(d4));
        assert_eq!(second.syndromes_known(), 1, "memo answered, not a scan");
        assert_eq!(second.order(&g), order);
        // Extending past the certified range picks up where the first
        // pass stopped and agrees with the scratch oracle.
        assert_eq!(
            second.dmin(&g, 3, 6000).unwrap(),
            reference::dmin(&g, 3, 6000).unwrap()
        );

        // Seeding only strengthens: a weaker bound cannot displace a
        // stronger one, and an exact answer is never displaced.
        let mut third = SyndromeWorkspace::new();
        third.seed_memo(&g, &[(3, MemoFact::ZeroBelow(4001))]);
        third.seed_memo(&g, &[(3, MemoFact::ZeroBelow(10))]);
        assert_eq!(third.zero_below(3), 4001);
        third.seed_memo(&g, &[(4, MemoFact::MinDegree(d4))]);
        third.seed_memo(&g, &[(4, MemoFact::ZeroBelow(2))]);
        assert_eq!(third.dmin(&g, 4, 4000).unwrap(), Some(d4));
        // Rebinding clears seeded state like any other cached state.
        let other = g32(0xBA0DC66B);
        third.bind(&other);
        assert_eq!(third.zero_below(3), 0);
    }

    #[test]
    fn direct_index_survives_indexing_past_a_query() {
        // The index may run ahead of any particular question: a long
        // dmin scan indexes far positions, and a later short query must
        // still bound-check correctly.
        let g = GenPoly::from_koopman(13, 0x102D).unwrap();
        let mut ws = SyndromeWorkspace::new();
        let long = ws.dmin(&g, 4, 500).unwrap();
        let mut fresh = SyndromeWorkspace::new();
        let short = fresh.dmin(&g, 4, 60).unwrap();
        assert_eq!(short, reference::dmin(&g, 4, 60).unwrap());
        assert_eq!(long, reference::dmin(&g, 4, 500).unwrap());
    }
}
