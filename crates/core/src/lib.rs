//! Hamming-distance evaluation and polynomial search for CRCs — the
//! primary contribution of Koopman's DSN 2002 paper, reproduced.
//!
//! # What this crate computes
//!
//! For a CRC generator polynomial `G` of width `r` and a data word of `n`
//! bits, an error pattern is undetectable exactly when it is itself a valid
//! codeword, i.e. a multiple of `G` fitting in the `n + r` codeword bits.
//! The *Hamming distance* `HD(n)` is the smallest weight of such a
//! multiple; the paper's Figure 1 / Table 1 chart `HD(n)` for eight 32-bit
//! polynomials, and its §4 describes the filtering machinery used to
//! evaluate a billion polynomials at the Ethernet MTU length.
//!
//! This crate reproduces all of it:
//!
//! * [`dmin`] — minimal-degree weight-`w` multiples `d_min(w)`, the exact
//!   quantity behind every breakpoint in Table 1: `HD` drops below `w` at
//!   data length `d_min(w) − (r − 1)`.
//! * [`weights`] — exact undetected-error counts `W₂..W₄` at any length
//!   (validating the paper's `W₄ = 223,059` for 802.3 at 12112 bits).
//! * [`distribution`] — the exact **full** weight distribution
//!   `W₀..W_{n+r}` at any data length (see "The exact distribution
//!   layer" below).
//! * [`spectrum`] — the complete weight spectrum by exhaustive multiplier
//!   enumeration at small lengths (ground truth for everything else).
//! * [`profile`] — `HD`-vs-length profiles (a Table 1 row / Figure 1
//!   curve) assembled from the above.
//! * [`filter`] — the paper's §4.1 filtering pipeline: early-bailout
//!   enumeration, FCS-bits-first ordering, increasing-length staging and
//!   inverse filtering, for the ablation experiments.
//! * [`search`] — exhaustive search over whole polynomial spaces (run in
//!   full at 8/16 bits, as the paper's own validation did).
//! * [`costmodel`] — the paper's §3 cost model ("151 million years").
//!
//! # Screening architecture: the syndrome workspace
//!
//! Every evaluation above is a subset-XOR question over one polynomial's
//! syndrome sequence `r(i) = x^i mod G`, and a survey asks many of them
//! per candidate: an HD filter at a short length, a full profile, exact
//! weights at a reference length. [`workspace::SyndromeWorkspace`] is the
//! shared substrate those stages run on — the paper's §4.1 tractability
//! techniques (staged lengths, early bailout) turned into a data
//! structure:
//!
//! * **Lifecycle** — one workspace per worker, *bound* to one polynomial
//!   at a time. Evaluation methods auto-bind to their argument; binding
//!   the same polynomial again is free, rebinding to a new one clears
//!   state but keeps every allocation (the direct index is wiped by
//!   replaying the positions it holds, `O(positions)`, not
//!   `O(value space)`). A campaign worker therefore screens thousands of
//!   candidates on a single set of buffers.
//! * **Grow-only syndromes** — `r(0)..r(k)` extend as probed lengths
//!   grow and are never recomputed, so a doubling+bisect breakpoint
//!   search or a staged filter funnel pays for each syndrome exactly
//!   once.
//! * **`d_min` memo** — every capped search deposits what it proved
//!   (exact minimal degree, or "no weight-w multiple below T"), and
//!   every later search resumes from there. In the survey's
//!   filter → profile → weights stage order this makes the
//!   [`weights::weights234`] top-degree sweep skip every degree the
//!   profile certified clean, and lets [`filter::breakpoint_search_in`]
//!   answer its ~30 filter evaluations for roughly the cost of one scan.
//! * **Index kernels and the crossovers** — syndrome values map back to
//!   first positions through a direct-indexed `u16` table for widths ≤
//!   [`workspace::DIRECT_INDEX_MAX_WIDTH`] (table and syndrome row stay
//!   L1-resident together; one compare per probe in the weight-4 pair
//!   kernel — ~10× over hash probing on the 13-bit survey scenario);
//!   through a **compressed two-level index** for widths up to
//!   [`workspace::TWO_LEVEL_MAX_WIDTH`] — a 16 KiB L1-resident presence
//!   screen over the low value bits that kills almost every pair-sweep
//!   probe in one load, backed by a bucket directory over the high bits
//!   with exact spill rows for colliding buckets (this is the kernel
//!   that makes the paper's own 32-bit space affordable); and through
//!   the [`posmap::PosMap`] open-addressing hash beyond that, or at any
//!   width via [`workspace::IndexPolicy::ForceHash`] as the
//!   differential oracle. Sorted-array merge kernels were evaluated and
//!   rejected: XOR targets do not preserve sort order, so merges
//!   degenerate into recursive splits that lose to a single probe.
//!   An opt-in bitsliced policy (block syndrome extension plus a batch
//!   pair sweep) was measured against the two-level index in the full
//!   filter → profile → weights pipeline and lost or tied at widths 18,
//!   24 and 32, so it was removed (figures in the [`workspace`] docs).
//! * **Persistent MITM subset maps** — weight ≥ 5 searches keep their
//!   meet-in-the-middle a-subset multimaps on the workspace, extended
//!   incrementally across the `hd_filter → HdProfile → weights234`
//!   funnel and reset (allocations kept) on rebind, so each subset is
//!   hashed once per binding rather than once per stage.
//!
//! The pre-workspace scratch implementations live on in [`mod@reference`] as
//! the differential-testing oracle (CI job `screening-equivalence`);
//! `crates/survey` threads one workspace per campaign worker through
//! `SurvivorRecord::screen_in`.
//!
//! # The exact distribution layer
//!
//! The paper's P_ud methodology truncates at `W₄`; [`distribution`]
//! removes the truncation. The code at data length `n` is the kernel of
//! the parity-check matrix whose columns are the syndromes
//! `r(t) = x^t mod G`, so its *dual* code is enumerable directly from
//! the syndrome table: `2^r` parity masks, swept 64 at a time on the
//! bitsliced kernels (a histogram + fast Walsh–Hadamard transform for
//! widths ≤ 20, carry-save bit-plane counters with a [`bitslice::transpose64`]
//! extraction beyond), with the table itself grown block-wise through
//! [`bitslice::PlaneState`] and [`gf2poly::ModCtx`] anchor jumps. The
//! MacWilliams identity then transfers the dual histogram to the code's
//! own `W₀..W_{n+r}` via a Horner recursion — one polynomial
//! state-update per length step, `O(r·2^r + L³)` total instead of `2ⁿ`.
//! State is one length-`L` coefficient vector; counts are exact
//! arbitrary-precision integers ([`distribution::Nat`], the escape
//! hatch for lengths where `2ⁿ` overflows `u128`), and
//! [`distribution::WeightDistribution::p_ud`] folds them through
//! extended-exponent floats so exact undetected-error probabilities
//! survive far below `f64` underflow (`1e-30` and beyond). Downstream,
//! this feeds the survey's opt-in exact-P_ud Pareto axis, the
//! `figure1 --exact` curves, and netsim's oracle cross-checks at
//! weights `weights234` cannot reach.
//!
//! # Quick start
//!
//! ```
//! use crc_hd::profile::HdProfile;
//! use crc_hd::GenPoly;
//!
//! // Koopman's 0xBA0DC66B: HD=6 through one Ethernet MTU.
//! let g = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
//! let profile = HdProfile::compute(&g, 4000).unwrap();
//! assert_eq!(profile.hd_at(3000), Some(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod costmodel;
pub mod distribution;
pub mod dmin;
pub mod filter;
pub mod posmap;
pub mod profile;
pub mod reference;
pub mod report;
pub mod search;
pub mod spectrum;
pub mod syndrome;
pub mod weights;
pub mod witness;
pub mod workspace;

pub use gf2poly::GenPoly;
pub use profile::HdProfile;
pub use workspace::SyndromeWorkspace;

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by `crc-hd` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// CRC width outside the supported 3..=64 range.
    UnsupportedWidth(u32),
    /// The polynomial value does not fit or lacks required bits.
    BadPolynomial(String),
    /// A search would exceed the configured work or memory budget.
    BudgetExceeded {
        /// What the estimated cost was.
        estimated: u128,
        /// The configured limit.
        limit: u128,
    },
    /// A length argument is out of the supported range.
    BadLength(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnsupportedWidth(w) => write!(f, "unsupported CRC width {w} (need 3..=64)"),
            Error::BadPolynomial(s) => write!(f, "bad generator polynomial: {s}"),
            Error::BudgetExceeded { estimated, limit } => write!(
                f,
                "search cost estimate {estimated} exceeds the configured limit {limit}"
            ),
            Error::BadLength(s) => write!(f, "bad length: {s}"),
        }
    }
}

impl StdError for Error {}

impl From<gf2poly::Error> for Error {
    fn from(e: gf2poly::Error) -> Error {
        match e {
            gf2poly::Error::UnsupportedWidth(w) => Error::UnsupportedWidth(w),
            gf2poly::Error::BadGenerator(s) => Error::BadPolynomial(s),
            other => Error::BadPolynomial(other.to_string()),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
