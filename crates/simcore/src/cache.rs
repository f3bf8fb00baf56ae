//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement.
//!
//! The cache tracks *which lines are resident*, not their contents — data
//! bytes live in the [`crate::Arena`]. Residency is what determines hit/miss
//! counts, timing and energy, which is all the paper's methodology consumes.
//!
//! ## Struct-of-arrays layout
//!
//! The simulated way arrays are the simulator's own working set, and walking
//! them is the dominant host cost of the fused fast paths (DESIGN §9). The
//! cache therefore stores its state as two parallel arrays instead of an
//! array of per-way structs:
//!
//! * `Cache::meta` — one compacted `u32` per way, set-major contiguous:
//!   `tag << 3 | prefetched << 2 | dirty << 1 | valid`. The residency test
//!   is a single masked compare against `tag << 3 | 1`. Tags fit easily:
//!   line numbers are bounded by the arena (`DRAM_BASE + dram_size < 2^32`,
//!   so line numbers < 2^26) and set indexing only shortens them.
//! * `Cache::ranks` — one `u64` *rank word* per set holding the exact LRU
//!   rank of every way in a 4-bit field (way `w`'s rank is nibble `w`;
//!   `ways <= 16` is asserted at construction). Rank `0` is least recent,
//!   `ways - 1` most recent, and the live nibbles always form a permutation
//!   of `0..ways`.
//!
//! An 8-way set is 8×4 B of tags + 8 B of ranks = 40 B where the previous
//! interleaved `[tag, stamp]` layout took 128 B; a 16-way set is 72 B vs
//! 256 B. That ~3.2–3.6× shrink is what lets the hot walks sit in the host
//! L2 instead of thrashing its LLC.
//!
//! The rank word replaces the old per-way monotonic stamps without changing
//! a single victim decision: victim selection only ever observed the *order*
//! of the stamps (first invalid way by index, else the unique argmin), and
//! the rank permutation encodes exactly that order, so the cache keeps no
//! stamp at all. The pre-SoA stamp model is retained in [`oracle`] and
//! differential tests drive both side by side.

use crate::arch::CacheConfig;

/// `meta` bit for a resident way.
const VALID: u32 = 1;
/// `meta` bit for a dirty way.
const DIRTY: u32 = 2;
/// `meta` bit for a prefetcher-filled, not-yet-demanded way.
const PREFETCHED: u32 = 4;
/// Mask selecting the tag and valid bits (the residency-test key).
const KEY_MASK: u32 = !(DIRTY | PREFETCHED);

/// Tags are compacted into `meta[31:3]`; the arena keeps every line number
/// below 2^26, so post-set-indexing tags fit with room to spare.
const TAG_BITS: u32 = 29;

#[inline]
fn meta_key(tag: u64) -> u32 {
    debug_assert!(tag >> TAG_BITS == 0, "tag overflows the compacted meta");
    (tag as u32) << 3 | VALID
}

#[inline]
fn meta_new(tag: u64, dirty: bool, prefetch: bool) -> u32 {
    debug_assert!(tag >> TAG_BITS == 0, "tag overflows the compacted meta");
    (tag as u32) << 3 | (prefetch as u32) << 2 | (dirty as u32) << 1 | VALID
}

#[inline]
fn meta_matches(meta: u32, key: u32) -> bool {
    meta & KEY_MASK == key
}

#[inline]
fn meta_valid(meta: u32) -> bool {
    meta & VALID != 0
}

#[inline]
fn meta_tag(meta: u32) -> u64 {
    (meta >> 3) as u64
}

/// Exact per-way LRU ranks packed into one `u64` per set: nibble `w` holds
/// way `w`'s rank, `0` = least-recently-used, `ways - 1` = most. All
/// operations preserve the invariant that nibbles `0..ways` are a
/// permutation of `0..ways` and nibbles `ways..16` stay zero.
///
/// The permutation is exactly the stamp *order* of the old per-way stamp
/// model: promoting way `w` (rank `r`) decrements every rank above `r` and
/// sets `w` to `ways - 1`, which preserves the relative order of all other
/// ways — the same effect restamping `w` with a fresh maximal stamp had.
pub(crate) mod rank {
    /// Nibble-wise low bits, for the zero-nibble locate.
    const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
    /// Nibble-wise high bits.
    const NIBBLE_HI: u64 = 0x8888_8888_8888_8888;
    /// Even-nibble extraction mask (nibbles widened into byte lanes).
    const NIBBLE_MASK: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    /// Byte-wise low bits.
    const BYTE_LO: u64 = 0x0101_0101_0101_0101;
    /// Byte-wise high bits.
    const BYTE_HI: u64 = 0x8080_8080_8080_8080;

    /// Mask covering the live nibbles of a `ways`-way rank word.
    #[inline]
    pub fn live_mask(ways: usize) -> u64 {
        debug_assert!((1..=16).contains(&ways));
        if ways == 16 {
            !0
        } else {
            (1u64 << (4 * ways)) - 1
        }
    }

    /// The identity permutation (way `w` has rank `w`): the state of a
    /// freshly built or flushed set. Any permutation would do — an empty
    /// set's victims are chosen first-invalid-by-index until it fills, and
    /// every fill promotes its way to most-recent — but the identity makes
    /// the word human-readable in a debugger.
    #[inline]
    pub fn identity(ways: usize) -> u64 {
        0xfedc_ba98_7654_3210 & live_mask(ways)
    }

    /// Way `w`'s rank.
    #[inline]
    pub fn get(word: u64, w: usize) -> u64 {
        word >> (4 * w) & 0xf
    }

    /// Move way `w` to most-recently-used: every rank above `w`'s old rank
    /// `r` decrements by one, `w` takes `ways - 1`. Branch-free SWAR: the
    /// nibbles are widened into two byte-lane words, a carry-safe `>= r + 1`
    /// compare builds the decrement mask, and the subtraction happens on the
    /// packed word directly (safe: only nibbles `>= r + 1 >= 1` are
    /// decremented, so no nibble borrows).
    #[inline]
    pub fn promote(word: u64, w: usize, ways: usize) -> u64 {
        let r = get(word, w);
        let t = r + 1; // decrement threshold; <= 16, so byte compares can't borrow
        let lo = word & NIBBLE_MASK;
        let hi = word >> 4 & NIBBLE_MASK;
        let ge_lo = ((lo | BYTE_HI) - t * BYTE_LO) & BYTE_HI;
        let ge_hi = ((hi | BYTE_HI) - t * BYTE_LO) & BYTE_HI;
        let dec = (ge_lo >> 7) | (ge_hi >> 7) << 4;
        let shifted = word - dec;
        (shifted & !(0xf << (4 * w))) | ((ways as u64 - 1) << (4 * w))
    }

    /// The way holding rank 0 — the true-LRU victim of an all-valid set.
    /// Dead nibbles are forced non-zero so the classic zero-nibble locate
    /// (`(v - 0x11…) & !v & 0x88…`) flags the unique live zero; borrow
    /// false-positives can only appear *above* the lowest zero nibble, so
    /// `trailing_zeros` lands on the real one.
    #[inline]
    pub fn lru_way(word: u64, ways: usize) -> usize {
        let v = word | !live_mask(ways);
        let zero = v.wrapping_sub(NIBBLE_LO) & !v & NIBBLE_HI;
        debug_assert!(zero != 0, "rank word lost its zero rank: {word:#x}");
        (zero.trailing_zeros() / 4) as usize
    }

    /// Invariant check for tests: live nibbles are a permutation of
    /// `0..ways`, dead nibbles are zero.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_permutation(word: u64, ways: usize) -> bool {
        let mut seen = 0u32;
        for w in 0..ways {
            seen |= 1 << get(word, w);
        }
        seen == (1u32 << ways) - 1 && word & !live_mask(ways) == 0
    }
}

/// AVX2 single-pass set scan, used by [`Cache::find_or_victim_cold`] on
/// 8/16-way geometries, where one scan both finds the line and picks the
/// victim. One 256-bit load covers a whole 8-way set of compacted `u32`
/// metas (two cover 16 ways). Selection is provably identical to the
/// scalar loop in [`Cache::find_or_victim_cold`]:
///
/// * a tag match is unique within a set (a line is resident in at most one
///   way), so reporting `trailing_zeros` of the match mask is exact;
/// * on a miss the victim is the first invalid way by index
///   (`trailing_zeros` of the invalid-lane mask), else the rank word's
///   unique rank-0 way — no stamp minimum to reduce at all.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{rank, KEY_MASK, VALID};
    use std::arch::x86_64::*;

    /// Scan `ways` (8 or 16) contiguous meta words starting at `meta`:
    /// `Ok(way)` on a key match, else `Err(victim way)` per `rank_word`.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and that `meta` points at
    /// `ways` initialised `u32` metas.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan(
        meta: *const u32,
        rank_word: u64,
        ways: usize,
        key: u32,
    ) -> Result<usize, usize> {
        debug_assert!(ways == 8 || ways == 16);
        let keyv = _mm256_set1_epi32(key as i32);
        let maskv = _mm256_set1_epi32(KEY_MASK as i32);
        let validv = _mm256_set1_epi32(VALID as i32);
        let zerov = _mm256_setzero_si256();
        let mut match_mask = 0u32;
        let mut invalid_mask = 0u32;
        for g in 0..ways / 8 {
            let m = _mm256_loadu_si256(meta.add(g * 8) as *const __m256i);
            let mat = _mm256_cmpeq_epi32(_mm256_and_si256(m, maskv), keyv);
            let inv = _mm256_cmpeq_epi32(_mm256_and_si256(m, validv), zerov);
            match_mask |= (_mm256_movemask_ps(_mm256_castsi256_ps(mat)) as u32) << (8 * g);
            invalid_mask |= (_mm256_movemask_ps(_mm256_castsi256_ps(inv)) as u32) << (8 * g);
        }
        if match_mask != 0 {
            return Ok(match_mask.trailing_zeros() as usize);
        }
        if invalid_mask != 0 {
            return Err(invalid_mask.trailing_zeros() as usize);
        }
        Err(rank::lru_way(rank_word, ways))
    }
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line was resident.
    Hit {
        /// Whether this is the first demand touch of a prefetched line
        /// (a useful prefetch).
        was_prefetched: bool,
    },
    /// Line was absent.
    Miss,
}

/// Outcome of inserting a line: the victim, if a dirty line was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// Dirty victim line address that must be written back, if any.
    pub writeback: Option<u64>,
    /// Clean victim line address, if a valid line was displaced.
    pub evicted: Option<u64>,
}

/// Shift that turns a byte address into a line number (lines are
/// power-of-two sized, so division is a shift).
const LINE_SHIFT: u32 = crate::LINE.trailing_zeros();

/// A single cache level (struct-of-arrays; see the module docs).
pub struct Cache {
    /// Compacted tag/flag word per way, set-major contiguous.
    meta: Vec<u32>,
    /// One LRU rank word per set (see [`rank`]).
    ranks: Vec<u64>,
    ways: usize,
    sets: u64,
    /// `log2(sets)`, precomputed so `tag_of` is two shifts, not two divides.
    set_shift: u32,
    /// Host-side accelerator, not simulated state: the way-within-set each
    /// recently installed line landed in, indexed by line number modulo
    /// [`HINT_SLOTS`]. Hints are verified against the tag before use and
    /// never consulted for victim choice, so stale or colliding entries are
    /// harmless. Empty (disabled) for small caches whose scans are cheap.
    way_hint: Vec<u8>,
    /// Host supports the AVX2 set scan for this geometry (see [`simd`]).
    simd: bool,
}

/// Slots in [`Cache::way_hint`] (32 KiB per enabled cache — small enough
/// that the table itself stays resident in the host's near caches, which
/// matters because hint reads are the first hop of a dependent two-load
/// chain). Lines 2 MiB apart alias; a stale alias just fails tag
/// verification and falls back to the scan.
const HINT_SLOTS: usize = 1 << 15;

impl Cache {
    /// Build a cache from its geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (1..=16).contains(&cfg.ways),
            "rank words hold at most 16 ways"
        );
        let ways = cfg.ways as usize;
        Cache {
            meta: vec![0; (sets * ways as u64) as usize],
            ranks: vec![rank::identity(ways); sets as usize],
            ways,
            sets,
            set_shift: sets.trailing_zeros(),
            way_hint: if sets >= 512 {
                vec![0; HINT_SLOTS]
            } else {
                Vec::new()
            },
            simd: {
                #[cfg(target_arch = "x86_64")]
                {
                    (cfg.ways == 8 || cfg.ways == 16) && std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                false
            },
        }
    }

    #[inline]
    fn hint_slot(line_addr: u64) -> usize {
        (line_addr >> LINE_SHIFT) as usize & (HINT_SLOTS - 1)
    }

    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> LINE_SHIFT) & (self.sets - 1)) as usize
    }

    fn tag_of(&self, line_addr: u64) -> u64 {
        (line_addr >> LINE_SHIFT) >> self.set_shift
    }

    /// Within-set victim: first invalid way by index, else the rank-0 way.
    /// Identical to the old first-minimum over `valid ? stamp : 0` — all
    /// invalid ways tied at key 0 (strict `<` keeps the first), and among
    /// all-valid ways the distinct stamps' argmin is exactly rank 0.
    #[inline]
    fn victim_in_set(&self, set: usize) -> usize {
        let s = set * self.ways;
        match self.meta[s..s + self.ways]
            .iter()
            .position(|&m| !meta_valid(m))
        {
            Some(w) => w,
            None => rank::lru_way(self.ranks[set], self.ways),
        }
    }

    /// Hint the *host* CPU to pull this line's set into its own cache ahead
    /// of the walk scanning it. Pure performance hint: reads and writes no
    /// simulated state, so every path stays bit-identical with or without it.
    #[inline]
    pub fn prefetch_set(&self, line_addr: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let set = self.set_of(line_addr);
            let s = set * self.ways;
            let ptr = self.meta[s..].as_ptr() as *const i8;
            // A set is `ways * 4` bytes (32 B / 64 B) — at most two host
            // lines even when it straddles a boundary. Touch both ends,
            // plus the set's rank word (a separate, much smaller array).
            unsafe {
                _mm_prefetch(ptr, _MM_HINT_T0);
                _mm_prefetch(ptr.add(self.ways * 4 - 1), _MM_HINT_T0);
                _mm_prefetch(self.ranks[set..].as_ptr() as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line_addr;
    }

    /// Companion to [`Cache::prefetch_set`] for hint-enabled caches: pull
    /// the way-hint slot as well, so the hinted lookup's serial
    /// hint-then-line load chain starts from the host cache. Same contract —
    /// host-side only, touches no simulated state.
    #[inline]
    pub fn prefetch_hint(&self, line_addr: u64) {
        #[cfg(target_arch = "x86_64")]
        if !self.way_hint.is_empty() {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            unsafe {
                let p = self.way_hint.as_ptr().add(Self::hint_slot(line_addr));
                _mm_prefetch(p as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line_addr;
    }

    /// Demand access to the line containing `line_addr`. Updates LRU on hit;
    /// does **not** fill on miss (the hierarchy decides what to fill where).
    pub fn access(&mut self, line_addr: u64, write: bool) -> Lookup {
        let set = self.set_of(line_addr);
        if let Some(w) = self.match_in_set(set, meta_key(self.tag_of(line_addr))) {
            let was_prefetched = self.demand_hit(set, w, write);
            return Lookup::Hit { was_prefetched };
        }
        Lookup::Miss
    }

    /// Demand-access up to `max_lines` *sequential* lines starting at the
    /// line containing `line_addr`, stopping at the first miss. Returns the
    /// number of leading hits.
    ///
    /// Each counted hit is state-identical to one [`Cache::access`] call:
    /// the way is promoted most-recent, a write dirties it and the
    /// `prefetched` flag is cleared. The terminating miss probe changes
    /// nothing; the caller re-drives that line through a full walk.
    pub fn access_run(&mut self, line_addr: u64, max_lines: u64, write: bool) -> u64 {
        let mut ln = line_addr >> LINE_SHIFT;
        let mask = self.sets - 1;
        let mut hits = 0u64;
        while hits < max_lines {
            let set = (ln & mask) as usize;
            let Some(w) = self.match_in_set(set, meta_key(ln >> self.set_shift)) else {
                break;
            };
            self.demand_hit(set, w, write);
            hits += 1;
            ln += 1;
        }
        hits
    }

    /// The way of `set` matching `key`, if any: the set scan of every
    /// lookup, except where [`Cache::find_or_victim_cold`] takes the AVX2
    /// scan. It stays scalar so that it inlines into the hit loops: the
    /// AVX2 scan is a `target_feature` function, which cannot be inlined
    /// into a caller built without AVX2.
    #[inline]
    fn match_in_set(&self, set: usize, key: u32) -> Option<usize> {
        let s = set * self.ways;
        self.meta[s..s + self.ways]
            .iter()
            .position(|&m| meta_matches(m, key))
    }

    /// The hit arm of a demand access at way `w` of `set`: clear
    /// `prefetched`, dirty on write, promote most-recent. Returns
    /// `was_prefetched`.
    #[inline]
    fn demand_hit(&mut self, set: usize, w: usize, write: bool) -> bool {
        let i = set * self.ways + w;
        let m = self.meta[i];
        self.meta[i] = (m & !PREFETCHED) | if write { DIRTY } else { 0 };
        self.ranks[set] = rank::promote(self.ranks[set], w, self.ways);
        m & PREFETCHED != 0
    }

    /// `n` repeated demand accesses to one resident line, in O(1). Returns
    /// `false` (no state change) if the line is not resident.
    ///
    /// Equivalent to `n` [`Cache::access`] calls: the way ends up
    /// most-recent — the intermediate promotions are idempotent because no
    /// other access interleaves.
    pub fn access_repeat(&mut self, line_addr: u64, n: u64, write: bool) -> bool {
        if n == 0 {
            return true;
        }
        let ln = line_addr >> LINE_SHIFT;
        let set = (ln & (self.sets - 1)) as usize;
        let Some(w) = self.match_in_set(set, meta_key(ln >> self.set_shift)) else {
            return false;
        };
        self.demand_hit(set, w, write);
        true
    }

    /// Pure lookup: the way index holding `line_addr`, if resident. No LRU
    /// or flag changes — pairs with [`Cache::touch_way`] /
    /// [`Cache::install_at`] so a fused walk can scan each set once.
    pub fn find_way(&self, line_addr: u64) -> Option<usize> {
        let set = self.set_of(line_addr);
        self.match_in_set(set, meta_key(self.tag_of(line_addr)))
            .map(|w| set * self.ways + w)
    }

    /// Single-pass combination of [`Cache::find_way`] and
    /// [`Cache::victim_way`]: `Ok(way)` when resident, else `Err(victim)` —
    /// the way [`Cache::fill`] would evict right now. One set scan instead
    /// of the scalar access-then-fill pair's two.
    pub fn find_or_victim(&self, line_addr: u64) -> Result<usize, usize> {
        // Host-side way hint: a line is resident in at most one way of its
        // set, so a verified hint returns exactly the way the scan would.
        if !self.way_hint.is_empty() {
            let key = meta_key(self.tag_of(line_addr));
            let s = self.set_of(line_addr) * self.ways;
            let h = self.way_hint[Self::hint_slot(line_addr)] as usize;
            if meta_matches(self.meta[s + h], key) {
                return Ok(s + h);
            }
        }
        self.find_or_victim_cold(line_addr)
    }

    /// [`Cache::find_or_victim`] without the way-hint probe — for callers
    /// that expect a miss (prefetch frontier pulls), where the hint lookup
    /// is a wasted host-cache access. Result is identical either way.
    pub fn find_or_victim_cold(&self, line_addr: u64) -> Result<usize, usize> {
        let key = meta_key(self.tag_of(line_addr));
        let set = self.set_of(line_addr);
        let s = set * self.ways;
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: `simd` is set only when AVX2 was detected and the
            // geometry is 8/16 ways; the slice holds `ways` metas at `s`.
            return match unsafe {
                simd::scan(self.meta.as_ptr().add(s), self.ranks[set], self.ways, key)
            } {
                Ok(w) => Ok(s + w),
                Err(v) => Err(s + v),
            };
        }
        match self.match_in_set(set, key) {
            Some(w) => Ok(s + w),
            None => Err(s + self.victim_in_set(set)),
        }
    }

    /// Number of sets (fused walks gate victim precomputation on geometry).
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Host-side bytes backing this cache's simulated metadata: the
    /// compacted tag array, the rank words and the way-hint shadow table.
    /// Pure geometry — independent of residency or access history.
    pub fn footprint_bytes(&self) -> u64 {
        (self.meta.len() * 4 + self.ranks.len() * 8 + self.way_hint.len()) as u64
    }

    /// Pure lookup: the global index of the way [`Cache::fill`] would evict
    /// for `line_addr` *right now*, without mutating anything.
    pub fn victim_way(&self, line_addr: u64) -> usize {
        let set = self.set_of(line_addr);
        set * self.ways + self.victim_in_set(set)
    }

    /// One demand access applied at a way found by [`Cache::find_way`]:
    /// exactly the hit arm of [`Cache::access`] (promote most-recent, dirty
    /// on write, clear `prefetched`). Returns `was_prefetched`.
    pub fn touch_way(&mut self, way: usize, write: bool) -> bool {
        debug_assert!(meta_valid(self.meta[way]), "touch_way on an invalid way");
        self.demand_hit(way / self.ways, way % self.ways, write)
    }

    /// Insert `line_addr` at a victim way precomputed by
    /// [`Cache::victim_way`]. Exactly [`Cache::fill`] for a non-resident
    /// line whose set was untouched since the victim scan (the caller's
    /// proof obligation); same promotion, same `Fill` report.
    pub fn install_at(&mut self, line_addr: u64, way: usize, dirty: bool, prefetch: bool) -> Fill {
        let tag = self.tag_of(line_addr);
        let set = self.set_of(line_addr);
        debug_assert_eq!(way / self.ways, set, "install_at way outside the set");
        let m = self.meta[way];
        let mut out = Fill {
            writeback: None,
            evicted: None,
        };
        if meta_valid(m) {
            let victim_addr = (meta_tag(m) * self.sets + set as u64) * crate::LINE;
            if m & DIRTY != 0 {
                out.writeback = Some(victim_addr);
            } else {
                out.evicted = Some(victim_addr);
            }
        }
        self.meta[way] = meta_new(tag, dirty, prefetch);
        self.ranks[set] = rank::promote(self.ranks[set], way % self.ways, self.ways);
        if !self.way_hint.is_empty() {
            self.way_hint[Self::hint_slot(line_addr)] = (way % self.ways) as u8;
        }
        out
    }

    /// Probe without touching LRU or dirty state.
    pub fn probe(&self, line_addr: u64) -> bool {
        self.find_way(line_addr).is_some()
    }

    /// Insert the line containing `line_addr`, evicting the LRU way if the
    /// set is full. `prefetch` marks the line as prefetcher-filled.
    pub fn fill(&mut self, line_addr: u64, dirty: bool, prefetch: bool) -> Fill {
        let tag = self.tag_of(line_addr);
        let set = self.set_of(line_addr);
        let s = set * self.ways;

        // Already resident (e.g. racing prefetch): refresh LRU and dirty
        // only — the `prefetched` flag is deliberately left as-is.
        if let Some(w) = self.match_in_set(set, meta_key(tag)) {
            if dirty {
                self.meta[s + w] |= DIRTY;
            }
            self.ranks[set] = rank::promote(self.ranks[set], w, self.ways);
            return Fill {
                writeback: None,
                evicted: None,
            };
        }

        let w = self.victim_in_set(set);
        let m = self.meta[s + w];
        let mut out = Fill {
            writeback: None,
            evicted: None,
        };
        if meta_valid(m) {
            let victim_addr = (meta_tag(m) * self.sets + set as u64) * crate::LINE;
            if m & DIRTY != 0 {
                out.writeback = Some(victim_addr);
            } else {
                out.evicted = Some(victim_addr);
            }
        }
        self.meta[s + w] = meta_new(tag, dirty, prefetch);
        self.ranks[set] = rank::promote(self.ranks[set], w, self.ways);
        out
    }

    /// Drop the line if resident, reporting a dirty writeback address.
    /// The rank word is deliberately untouched: an invalid way's rank is
    /// unobservable (victims prefer invalid ways by index) until its next
    /// fill promotes it, and leaving it preserves both the permutation
    /// invariant and the relative order of the surviving valid ways.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<u64> {
        let w = self.find_way(line_addr)?;
        let dirty = self.meta[w] & DIRTY != 0;
        self.meta[w] &= !VALID;
        dirty.then_some(line_addr)
    }

    /// Drop every line (used between independent measurement runs).
    pub fn flush(&mut self) {
        self.meta.fill(0);
        self.ranks.fill(rank::identity(self.ways));
    }

    /// Number of valid lines (test/diagnostic helper).
    pub fn resident(&self) -> usize {
        self.meta.iter().filter(|&&m| meta_valid(m)).count()
    }
}

pub mod oracle {
    //! The pre-SoA cache model, retained as a differential test oracle: an
    //! array of per-way structs, each holding the packed meta word and an
    //! 8-byte monotonic LRU stamp, with victim selection by first-minimum
    //! over `valid ? stamp : 0`. The production [`super::Cache`]
    //! must make *identical* decisions from its rank words — the property
    //! tests and `tests/access_equiv.rs` drive both side by side. Not used
    //! by the simulator itself; kept always-compiled so integration tests
    //! in downstream crates can reach it.

    use super::{Fill, Lookup};
    use crate::arch::CacheConfig;

    const VALID: u64 = 1;
    const DIRTY: u64 = 2;
    const PREFETCHED: u64 = 4;
    const KEY_MASK: u64 = !(DIRTY | PREFETCHED);
    const LINE_SHIFT: u32 = super::LINE_SHIFT;

    #[derive(Debug, Clone, Copy)]
    struct Line {
        meta: u64,
        lru: u64,
    }

    impl Line {
        fn key(tag: u64) -> u64 {
            tag << 3 | VALID
        }
        fn matches(&self, key: u64) -> bool {
            self.meta & KEY_MASK == key
        }
        fn valid(&self) -> bool {
            self.meta & VALID != 0
        }
        fn dirty(&self) -> bool {
            self.meta & DIRTY != 0
        }
        fn prefetched(&self) -> bool {
            self.meta & PREFETCHED != 0
        }
        fn tag(&self) -> u64 {
            self.meta >> 3
        }
        fn new(tag: u64, dirty: bool, prefetch: bool, lru: u64) -> Line {
            Line {
                meta: tag << 3 | (prefetch as u64) << 2 | (dirty as u64) << 1 | VALID,
                lru,
            }
        }
    }

    const EMPTY: Line = Line { meta: 0, lru: 0 };

    /// The stamp-model cache (scalar only — oracles have no fast paths).
    pub struct StampCache {
        lines: Vec<Line>,
        ways: usize,
        sets: u64,
        set_shift: u32,
        /// Last LRU stamp handed out; only the order of the stamps matters.
        stamp: u64,
    }

    impl StampCache {
        /// Build an oracle cache from the same geometry as [`super::Cache`].
        pub fn new(cfg: &CacheConfig) -> Self {
            let sets = cfg.sets();
            assert!(sets.is_power_of_two());
            StampCache {
                lines: vec![EMPTY; (sets * cfg.ways as u64) as usize],
                ways: cfg.ways as usize,
                sets,
                set_shift: sets.trailing_zeros(),
                stamp: 0,
            }
        }

        fn set_of(&self, line_addr: u64) -> usize {
            ((line_addr >> LINE_SHIFT) & (self.sets - 1)) as usize
        }

        fn tag_of(&self, line_addr: u64) -> u64 {
            (line_addr >> LINE_SHIFT) >> self.set_shift
        }

        fn set_slice(&mut self, set: usize) -> &mut [Line] {
            let s = set * self.ways;
            &mut self.lines[s..s + self.ways]
        }

        /// See [`super::Cache::access`].
        pub fn access(&mut self, line_addr: u64, write: bool) -> Lookup {
            self.stamp += 1;
            let stamp = self.stamp;
            let key = Line::key(self.tag_of(line_addr));
            let set = self.set_of(line_addr);
            for l in self.set_slice(set) {
                if l.matches(key) {
                    l.lru = stamp;
                    let was_prefetched = l.prefetched();
                    if write {
                        l.meta |= DIRTY;
                    }
                    l.meta &= !PREFETCHED;
                    return Lookup::Hit { was_prefetched };
                }
            }
            Lookup::Miss
        }

        /// See [`super::Cache::access_run`].
        pub fn access_run(&mut self, line_addr: u64, max_lines: u64, write: bool) -> u64 {
            let mut ln = line_addr >> LINE_SHIFT;
            let mask = self.sets - 1;
            let mut hits = 0u64;
            while hits < max_lines {
                let set = (ln & mask) as usize;
                let key = Line::key(ln >> self.set_shift);
                let s = set * self.ways;
                let stamp = self.stamp + 1;
                let mut hit = false;
                for l in &mut self.lines[s..s + self.ways] {
                    if l.matches(key) {
                        l.lru = stamp;
                        if write {
                            l.meta |= DIRTY;
                        }
                        l.meta &= !PREFETCHED;
                        hit = true;
                        break;
                    }
                }
                if !hit {
                    break;
                }
                self.stamp = stamp;
                hits += 1;
                ln += 1;
            }
            hits
        }

        /// See [`super::Cache::access_repeat`].
        pub fn access_repeat(&mut self, line_addr: u64, n: u64, write: bool) -> bool {
            if n == 0 {
                return true;
            }
            let ln = line_addr >> LINE_SHIFT;
            let set = ((ln & (self.sets - 1)) as usize) * self.ways;
            let key = Line::key(ln >> self.set_shift);
            let stamp = self.stamp + n;
            let mut hit = false;
            for l in &mut self.lines[set..set + self.ways] {
                if l.matches(key) {
                    l.lru = stamp;
                    if write {
                        l.meta |= DIRTY;
                    }
                    l.meta &= !PREFETCHED;
                    hit = true;
                    break;
                }
            }
            if hit {
                self.stamp = stamp;
            }
            hit
        }

        /// See [`super::Cache::find_way`].
        pub fn find_way(&self, line_addr: u64) -> Option<usize> {
            let key = Line::key(self.tag_of(line_addr));
            let s = self.set_of(line_addr) * self.ways;
            self.lines[s..s + self.ways]
                .iter()
                .position(|l| l.matches(key))
                .map(|w| s + w)
        }

        /// See [`super::Cache::victim_way`]: first-minimum over
        /// `valid ? stamp : 0` — the definition the rank model must match.
        pub fn victim_way(&self, line_addr: u64) -> usize {
            let s = self.set_of(line_addr) * self.ways;
            let mut best = s;
            let mut best_key = u64::MAX;
            for (i, l) in self.lines[s..s + self.ways].iter().enumerate() {
                let key = if l.valid() { l.lru } else { 0 };
                if key < best_key {
                    best_key = key;
                    best = s + i;
                }
            }
            best
        }

        /// See [`super::Cache::touch_way`].
        pub fn touch_way(&mut self, way: usize, write: bool) -> bool {
            self.stamp += 1;
            let l = &mut self.lines[way];
            debug_assert!(l.valid());
            l.lru = self.stamp;
            if write {
                l.meta |= DIRTY;
            }
            let was_prefetched = l.prefetched();
            l.meta &= !PREFETCHED;
            was_prefetched
        }

        /// See [`super::Cache::install_at`].
        pub fn install_at(
            &mut self,
            line_addr: u64,
            way: usize,
            dirty: bool,
            prefetch: bool,
        ) -> Fill {
            self.stamp += 1;
            let stamp = self.stamp;
            let tag = self.tag_of(line_addr);
            let set = self.set_of(line_addr) as u64;
            let sets = self.sets;
            let victim = &mut self.lines[way];
            let mut out = Fill {
                writeback: None,
                evicted: None,
            };
            if victim.valid() {
                let victim_addr = (victim.tag() * sets + set) * crate::LINE;
                if victim.dirty() {
                    out.writeback = Some(victim_addr);
                } else {
                    out.evicted = Some(victim_addr);
                }
            }
            *victim = Line::new(tag, dirty, prefetch, stamp);
            out
        }

        /// See [`super::Cache::probe`].
        pub fn probe(&self, line_addr: u64) -> bool {
            let key = Line::key(self.tag_of(line_addr));
            let s = self.set_of(line_addr) * self.ways;
            self.lines[s..s + self.ways].iter().any(|l| l.matches(key))
        }

        /// See [`super::Cache::fill`].
        pub fn fill(&mut self, line_addr: u64, dirty: bool, prefetch: bool) -> Fill {
            self.stamp += 1;
            let stamp = self.stamp;
            let tag = self.tag_of(line_addr);
            let key = Line::key(tag);
            let set = self.set_of(line_addr);
            let sets = self.sets;
            let set_lines = self.set_slice(set);

            if let Some(l) = set_lines.iter_mut().find(|l| l.matches(key)) {
                l.lru = stamp;
                if dirty {
                    l.meta |= DIRTY;
                }
                return Fill {
                    writeback: None,
                    evicted: None,
                };
            }

            let victim = set_lines
                .iter_mut()
                .min_by_key(|l| if l.valid() { l.lru } else { 0 })
                .expect("cache set has at least one way");

            let mut out = Fill {
                writeback: None,
                evicted: None,
            };
            if victim.valid() {
                let victim_addr = (victim.tag() * sets + set as u64) * crate::LINE;
                if victim.dirty() {
                    out.writeback = Some(victim_addr);
                } else {
                    out.evicted = Some(victim_addr);
                }
            }
            *victim = Line::new(tag, dirty, prefetch, stamp);
            out
        }

        /// See [`super::Cache::invalidate`].
        pub fn invalidate(&mut self, line_addr: u64) -> Option<u64> {
            let key = Line::key(self.tag_of(line_addr));
            let set = self.set_of(line_addr);
            for l in self.set_slice(set) {
                if l.matches(key) {
                    let dirty = l.dirty();
                    l.meta &= !VALID;
                    return if dirty { Some(line_addr) } else { None };
                }
            }
            None
        }

        /// See [`super::Cache::flush`].
        pub fn flush(&mut self) {
            self.lines.fill(EMPTY);
            self.stamp = 0;
        }

        /// Number of valid lines.
        pub fn resident(&self) -> usize {
            self.lines.iter().filter(|l| l.valid()).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways = 8 lines of 64B.
        Cache::new(&CacheConfig {
            size: 8 * 64,
            ways: 2,
            latency_cycles: 1,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, false), Lookup::Miss);
        c.fill(0, false, false);
        assert_eq!(
            c.access(0, false),
            Lookup::Hit {
                was_prefetched: false
            }
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Addresses mapping to set 0: line numbers 0, 4, 8 -> addrs 0, 256, 512.
        c.fill(0, false, false);
        c.fill(256, false, false);
        c.access(0, false); // make line 0 most recent
        let f = c.fill(512, false, false);
        assert_eq!(f.evicted, Some(256));
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true, false);
        c.fill(256, false, false);
        let f = c.fill(512, false, false);
        assert_eq!(f.writeback, Some(0));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.access(0, true); // dirty line 0, refresh LRU
        c.fill(256, false, false);
        // Set 0 holds {0 (older), 256 (newer)}: victim is the dirty line 0.
        let f = c.fill(512, false, false);
        assert_eq!(f.writeback, Some(0));
        assert_eq!(f.evicted, None);
    }

    #[test]
    fn prefetched_flag_cleared_on_first_demand_touch() {
        let mut c = tiny();
        c.fill(0, false, true);
        assert_eq!(
            c.access(0, false),
            Lookup::Hit {
                was_prefetched: true
            }
        );
        assert_eq!(
            c.access(0, false),
            Lookup::Hit {
                was_prefetched: false
            }
        );
    }

    #[test]
    fn sub_line_addresses_map_to_same_line() {
        let mut c = tiny();
        c.fill(0, false, false);
        assert_eq!(
            c.access(63, false),
            Lookup::Hit {
                was_prefetched: false
            }
        );
        assert_eq!(c.access(64, false), Lookup::Miss);
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.flush();
        assert_eq!(c.resident(), 0);
        assert_eq!(c.access(0, false), Lookup::Miss);
    }

    #[test]
    fn permutation_traversal_bigger_than_cache_always_misses_after_warmup() {
        // Reuse-distance argument from DESIGN.md §5.3: a permutation cycle over
        // N lines > capacity misses every access under LRU.
        let mut c = tiny(); // 8 lines capacity
        let lines: Vec<u64> = (0..16u64).map(|i| i * 64).collect();
        for &a in &lines {
            if c.access(a, false) == Lookup::Miss {
                c.fill(a, false, false);
            }
        }
        let mut misses = 0;
        for &a in &lines {
            if c.access(a, false) == Lookup::Miss {
                misses += 1;
                c.fill(a, false, false);
            }
        }
        assert_eq!(misses, 16);
    }

    /// Require identical observable state of two caches driven through
    /// different verbs: residency, the LRU victim and dirtiness at every
    /// probe line. Destructive: the probe lines end up invalidated.
    fn assert_state_equal(a: &mut Cache, b: &mut Cache, probe_lines: &[u64]) {
        for &p in probe_lines {
            assert_eq!(a.probe(p), b.probe(p), "residency differs at {p}");
            assert_eq!(a.victim_way(p), b.victim_way(p), "LRU differs at {p}");
        }
        for &p in probe_lines {
            assert_eq!(a.invalidate(p), b.invalidate(p), "dirtiness differs at {p}");
        }
    }

    #[test]
    fn access_run_counts_hit_prefix_and_matches_scalar_state() {
        let mut a = tiny();
        let mut b = tiny();
        // Lines 0..5 resident, line 5 absent.
        for i in 0..5u64 {
            a.fill(i * 64, false, false);
            b.fill(i * 64, false, false);
        }
        // Scalar: five hits then a miss.
        let mut scalar_hits = 0;
        for i in 0..8u64 {
            match a.access(i * 64, true) {
                Lookup::Hit { .. } => scalar_hits += 1,
                Lookup::Miss => break,
            }
        }
        // Batched: hit prefix, then the caller re-drives the miss line
        // through scalar `access`.
        let hits = b.access_run(0, 8, true);
        assert_eq!(hits, scalar_hits);
        assert_eq!(hits, 5);
        assert_eq!(b.access(5 * 64, true), Lookup::Miss);
        let probes: Vec<u64> = (0..8u64).map(|i| i * 64).collect();
        assert_state_equal(&mut a, &mut b, &probes);
    }

    #[test]
    fn access_run_clears_prefetched_like_scalar() {
        let mut c = tiny();
        c.fill(0, false, true);
        assert_eq!(c.access_run(0, 1, false), 1);
        // A later demand access must not see the prefetched flag.
        assert_eq!(
            c.access(0, false),
            Lookup::Hit {
                was_prefetched: false
            }
        );
    }

    #[test]
    fn fused_primitives_equal_access_and_fill() {
        // find_way/touch_way/victim_way/install_at must leave a
        // cache in exactly the state the scalar access+fill pair produces.
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.fill(0, false, false);
            c.fill(256, true, false);
        }
        // Scalar: hit 0 (write), then miss 512 and fill it.
        assert!(matches!(a.access(0, true), Lookup::Hit { .. }));
        assert_eq!(a.access(512, false), Lookup::Miss);
        let fa = a.fill(512, false, false);
        // Fused: same sequence through the primitives.
        let w = b.find_way(0).expect("line 0 resident");
        b.touch_way(w, true);
        assert_eq!(b.find_way(512), None);
        let victim = b.victim_way(512);
        let fb = b.install_at(512, victim, false, false);
        assert_eq!(fa, fb, "victim choice must match fill()");
        let probes: Vec<u64> = (0..12u64).map(|i| i * 64).collect();
        assert_state_equal(&mut a, &mut b, &probes);
    }

    /// xorshift64* is plenty for adversarial-state generation.
    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    const PROP_ITERS: u64 = if cfg!(miri) { 200 } else { 4000 };

    #[test]
    fn find_or_victim_cold_matches_scalar_selection() {
        // Randomized states over 8- and 16-way geometries (the ones the
        // AVX2 scan covers, where available): the combined scan must agree
        // with the scalar find_way/victim_way pair on every lookup, through
        // partially-filled sets, invalidated holes and full-LRU sets.
        for &(size, ways) in &[(64 * 8 * 64, 8), (256 * 16 * 64, 16)] {
            let mut c = Cache::new(&CacheConfig {
                size,
                ways,
                latency_cycles: 1,
            });
            let mut rng = rng_from(0x9e37_79b9_7f4a_7c15);
            for i in 0..PROP_ITERS {
                let a = (rng() % 4096) * 64;
                match rng() % 4 {
                    0 => {
                        c.fill(a, rng().is_multiple_of(2), rng().is_multiple_of(2));
                    }
                    1 => {
                        c.access(a, rng().is_multiple_of(2));
                    }
                    2 => {
                        c.invalidate(a);
                    }
                    _ => {}
                }
                let probe = (rng() % 4096) * 64;
                let expect = match c.find_way(probe) {
                    Some(w) => Ok(w),
                    None => Err(c.victim_way(probe)),
                };
                assert_eq!(c.find_or_victim_cold(probe), expect, "lookup {i}");
            }
        }
    }

    #[test]
    fn access_repeat_equals_n_scalar_accesses() {
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.fill(0, false, false);
            c.fill(256, false, false); // same set: line 0 is now LRU
        }
        for _ in 0..7 {
            assert!(matches!(a.access(0, true), Lookup::Hit { .. }));
        }
        assert!(b.access_repeat(0, 7, true));
        // Non-resident line of the same set: no state change, the caller
        // falls back.
        assert!(!b.access_repeat(512, 3, false));
        assert_state_equal(&mut a, &mut b, &[0, 256, 512]);
    }

    /// Reference implementation of the rank-word operations on a plain
    /// byte array, for the SWAR property test.
    fn promote_ref(ranks: &mut [u8], w: usize) {
        let r = ranks[w];
        for x in ranks.iter_mut() {
            if *x > r {
                *x -= 1;
            }
        }
        ranks[w] = (ranks.len() - 1) as u8;
    }

    #[test]
    fn rank_word_swar_matches_reference_for_every_way_count() {
        // The SWAR promote/lru_way must agree with the naive byte-array
        // model for every geometry 1..=16 under random promote sequences,
        // and the word must remain a permutation throughout. This is the
        // pure rank-word half of the Miri unsafe/rank gate.
        for ways in 1..=16usize {
            let mut word = rank::identity(ways);
            let mut reference: Vec<u8> = (0..ways as u8).collect();
            let mut rng = rng_from(0xdead_beef_0bad_f00d ^ ways as u64);
            let iters = if cfg!(miri) { 100 } else { 2000 };
            for _ in 0..iters {
                let w = (rng() % ways as u64) as usize;
                word = rank::promote(word, w, ways);
                promote_ref(&mut reference, w);
                assert!(rank::is_permutation(word, ways), "{word:#x} ways={ways}");
                for (i, &r) in reference.iter().enumerate() {
                    assert_eq!(rank::get(word, i), r as u64, "way {i} of {ways}");
                }
                let lru_ref = reference.iter().position(|&r| r == 0).unwrap();
                assert_eq!(rank::lru_way(word, ways), lru_ref);
            }
        }
    }

    /// One random op applied identically to the SoA cache and the stamp
    /// oracle; returns a probe address for posterior checks.
    fn drive_pair(
        c: &mut Cache,
        o: &mut oracle::StampCache,
        rng: &mut impl FnMut() -> u64,
        addr_lines: u64,
    ) -> u64 {
        let a = (rng() % addr_lines) * 64;
        match rng() % 8 {
            0 | 1 => {
                let (d, p) = (rng().is_multiple_of(2), rng().is_multiple_of(2));
                assert_eq!(c.fill(a, d, p), o.fill(a, d, p), "fill {a}");
            }
            2 | 3 => {
                let w = rng().is_multiple_of(2);
                assert_eq!(c.access(a, w), o.access(a, w), "access {a}");
            }
            4 => {
                let n = rng() % 64;
                let w = rng().is_multiple_of(2);
                assert_eq!(c.access_run(a, n, w), o.access_run(a, n, w), "run {a}");
            }
            5 => {
                let n = rng() % 9;
                let w = rng().is_multiple_of(2);
                assert_eq!(
                    c.access_repeat(a, n, w),
                    o.access_repeat(a, n, w),
                    "repeat {a}"
                );
            }
            6 => {
                assert_eq!(c.invalidate(a), o.invalidate(a), "invalidate {a}");
            }
            _ => {
                assert_eq!(c.probe(a), o.probe(a), "probe {a}");
            }
        }
        a
    }

    #[test]
    fn rank_lru_matches_stamp_oracle_on_random_sequences() {
        // The tentpole property test: random access sequences drive the
        // rank-word LRU and the retained stamp oracle side by side. Every
        // operation's return value (hit/miss, victim address, writeback)
        // must be identical, and the rank words must remain permutations of
        // `0..ways` after every step.
        for &(size, ways, addr_lines) in &[
            (8 * 64, 2, 64),            // tiny 4x2, heavy conflict
            (64 * 8 * 64, 8, 4096),     // L1-like 8-way
            (256 * 16 * 64, 16, 16384), // L3-like 16-way
        ] {
            let cfg = CacheConfig {
                size,
                ways,
                latency_cycles: 1,
            };
            let mut c = Cache::new(&cfg);
            let mut o = oracle::StampCache::new(&cfg);
            let mut rng = rng_from(0x5851_f42d_4c95_7f2d ^ size);
            for i in 0..PROP_ITERS {
                let a = drive_pair(&mut c, &mut o, &mut rng, addr_lines);
                assert_eq!(c.resident(), o.resident(), "residency after op {i}");
                // Victim agreement at a fresh address (the next eviction
                // both models would take), plus the permutation invariant
                // on the touched set.
                assert_eq!(c.victim_way(a), o.victim_way(a), "victim after op {i}");
                let set = c.set_of(a);
                assert!(
                    rank::is_permutation(c.ranks[set], c.ways),
                    "set {set} rank word {:#x} not a permutation after op {i}",
                    c.ranks[set]
                );
                // Occasionally flush both and re-verify from empty.
                if rng().is_multiple_of(512) {
                    c.flush();
                    o.flush();
                }
            }
        }
    }

    #[test]
    fn footprint_is_pure_geometry() {
        let c = tiny();
        // 8 metas * 4 B + 4 rank words * 8 B, no hint table below 512 sets.
        assert_eq!(c.footprint_bytes(), 8 * 4 + 4 * 8);
        let big = Cache::new(&CacheConfig {
            size: 512 * 8 * 64,
            ways: 8,
            latency_cycles: 1,
        });
        assert_eq!(
            big.footprint_bytes(),
            512 * 8 * 4 + 512 * 8 + HINT_SLOTS as u64
        );
    }
}
