//! L2 streamer prefetcher.
//!
//! The i7-4790 has four hardware prefetchers (§2.3); only the two generated
//! by the **L2 streamer** are PMU-visible, and those are the two the paper
//! models: prefetches *into L2* and prefetches *into L3*. This module detects
//! ascending/descending line streams within 4 KB pages on demand L2 accesses
//! and proposes lines to pull into L2 (near) and L3 (far). The hierarchy
//! decides what is actually fetched (already-resident lines are skipped).

/// Lines per 4 KB page.
const PAGE_LINES: u64 = 4096 / crate::LINE;
/// Tracked streams (Haswell tracks 32 per core; 16 is plenty here).
const STREAMS: usize = 16;
/// Demand accesses in sequence before prefetching starts.
const TRAIN: u32 = 2;
/// Lines pulled into L2 ahead of the demand stream.
pub(crate) const NEAR: u64 = 2;
/// Additional lines pulled into L3 beyond the near window.
pub(crate) const FAR: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct Stream {
    page: u64,
    last_line: u64,
    dir: i64,
    trained: u32,
    lru: u64,
    valid: bool,
}

const DEAD: Stream = Stream {
    page: 0,
    last_line: 0,
    dir: 0,
    trained: 0,
    lru: 0,
    valid: false,
};

/// Prefetch proposals for one demand access.
#[derive(Debug, Clone, Copy, Default)]
pub struct Proposals {
    into_l2: [u64; NEAR as usize],
    n_l2: usize,
    into_l3: [u64; FAR as usize],
    n_l3: usize,
}

impl Proposals {
    /// Line addresses proposed for L2.
    pub fn l2(&self) -> &[u64] {
        &self.into_l2[..self.n_l2]
    }
    /// Line addresses proposed for L3.
    pub fn l3(&self) -> &[u64] {
        &self.into_l3[..self.n_l3]
    }
    /// No proposals at all.
    pub fn is_empty(&self) -> bool {
        self.n_l2 == 0 && self.n_l3 == 0
    }
}

/// Cursor over one ascending demand stream, handed out by
/// [`Streamer::begin_run`] so the cold-run fast path can continue the stream
/// in O(1) — no 16-slot search per line. Valid only while `continues`
/// holds *and* no other [`Streamer::on_l2_access`]/`begin_run` interleaved
/// (the fused walk owns every streamer event inside one run, so this is
/// guaranteed by construction there).
#[derive(Debug, Clone, Copy)]
pub struct RunCursor {
    idx: usize,
    page: u64,
    last_line: u64,
}

impl RunCursor {
    /// Whether an access to line number `ln` continues this cursor's stream:
    /// the immediately next ascending line of the same 4 KB page.
    pub fn continues(&self, ln: u64) -> bool {
        ln == self.last_line + 1 && ln / PAGE_LINES == self.page
    }
}

/// The streamer state machine.
#[derive(Debug)]
pub struct Streamer {
    streams: [Stream; STREAMS],
    clock: u64,
}

impl Default for Streamer {
    fn default() -> Self {
        Self::new()
    }
}

impl Streamer {
    /// Fresh streamer with no trained streams.
    pub fn new() -> Self {
        Streamer {
            streams: [DEAD; STREAMS],
            clock: 0,
        }
    }

    /// Forget all streams (cache flush / measurement boundary).
    pub fn reset(&mut self) {
        self.streams = [DEAD; STREAMS];
    }

    /// Observe a demand access to `line_addr` reaching L2 and return
    /// prefetch proposals.
    pub fn on_l2_access(&mut self, line_addr: u64) -> Proposals {
        self.observe(line_addr).0
    }

    /// [`Streamer::on_l2_access`] that also starts a [`RunCursor`] at the
    /// observed stream's slot, for O(1) ascending continuation.
    pub fn begin_run(&mut self, line_addr: u64) -> (Proposals, RunCursor) {
        let (p, idx) = self.observe(line_addr);
        let line = line_addr / crate::LINE;
        (
            p,
            RunCursor {
                idx,
                page: line / PAGE_LINES,
                last_line: line,
            },
        )
    }

    /// Exact equivalent of [`Streamer::on_l2_access`] for the next ascending
    /// line of the cursor's stream (`cur.continues(line)` must hold), with
    /// the slot search skipped. State and proposals are identical to the
    /// scalar call: the step is `+1` by construction, so the stream either
    /// keeps training ascending or retrains from a previous descending
    /// direction, exactly as the general path would.
    pub fn step_ascending(&mut self, cur: &mut RunCursor, line_addr: u64) -> Proposals {
        self.clock += 1;
        let line = line_addr / crate::LINE;
        debug_assert!(cur.continues(line), "cursor does not continue at {line}");
        let s = &mut self.streams[cur.idx];
        debug_assert!(s.valid && s.page == cur.page && s.last_line == cur.last_line);
        s.lru = self.clock;
        if s.dir == 0 || s.dir == 1 {
            s.dir = 1;
            s.trained += 1;
        } else {
            s.dir = 1;
            s.trained = 0;
        }
        s.last_line = line;
        cur.last_line = line;
        if s.trained < TRAIN {
            return Proposals::default();
        }
        let mut out = Proposals::default();
        let page_hi = (cur.page + 1) * PAGE_LINES; // exclusive
        for k in 1..=(NEAR + FAR) {
            let target = line + k;
            if target >= page_hi {
                break;
            }
            let addr = target * crate::LINE;
            if k <= NEAR {
                out.into_l2[out.n_l2] = addr;
                out.n_l2 += 1;
            } else {
                out.into_l3[out.n_l3] = addr;
                out.n_l3 += 1;
            }
        }
        out
    }

    /// Test-and-step for the *steady* ascending state: the cursor's stream is
    /// already trained ascending and the full `NEAR + FAR` proposal window
    /// fits inside the 4 KB page. When both hold, this applies exactly the
    /// state mutation [`Streamer::step_ascending`] would (whose proposals are
    /// then the fixed `line+1 ..= line+NEAR+FAR` window, which the caller
    /// materialises itself) and returns `true`; otherwise it leaves all state
    /// untouched and returns `false` so the caller falls back to the general
    /// step.
    pub fn steady_ascending(&mut self, cur: &mut RunCursor, line_addr: u64) -> bool {
        let line = line_addr / crate::LINE;
        debug_assert!(cur.continues(line), "cursor does not continue at {line}");
        let s = &self.streams[cur.idx];
        debug_assert!(s.valid && s.page == cur.page && s.last_line == cur.last_line);
        if s.dir != 1 || s.trained < TRAIN || line % PAGE_LINES + NEAR + FAR >= PAGE_LINES {
            return false;
        }
        self.clock += 1;
        let s = &mut self.streams[cur.idx];
        s.lru = self.clock;
        s.trained += 1;
        s.last_line = line;
        cur.last_line = line;
        true
    }

    fn observe(&mut self, line_addr: u64) -> (Proposals, usize) {
        self.clock += 1;
        let line = line_addr / crate::LINE;
        let page = line / PAGE_LINES;

        // One pass over the table: find this page's stream and, in the same
        // sweep, the LRU victim in case there is none. Victim tracking
        // mirrors `min_by_key` (the first minimum wins, via strict `<`) and
        // is only consumed when no slot matched — i.e. when the loop covered
        // every slot — so breaking early on a match is sound.
        let mut found = None;
        let mut victim = 0usize;
        let mut victim_lru = u64::MAX;
        for (i, s) in self.streams.iter().enumerate() {
            if s.valid && s.page == page {
                found = Some(i);
                break;
            }
            let lru = if s.valid { s.lru } else { 0 };
            if lru < victim_lru {
                victim_lru = lru;
                victim = i;
            }
        }
        let idx = match found {
            Some(i) => i,
            None => {
                // Allocate over the LRU slot and start training.
                self.streams[victim] = Stream {
                    page,
                    last_line: line,
                    dir: 0,
                    trained: 0,
                    lru: self.clock,
                    valid: true,
                };
                return (Proposals::default(), victim);
            }
        };

        let s = &mut self.streams[idx];
        s.lru = self.clock;
        let step = line as i64 - s.last_line as i64;
        if step == 0 {
            return (Proposals::default(), idx);
        }
        let dir = step.signum();
        if (step == 1 || step == -1) && (s.dir == 0 || s.dir == dir) {
            s.dir = dir;
            s.trained += 1;
        } else {
            // Broken pattern: retrain in the new direction.
            s.dir = dir;
            s.trained = 0;
        }
        s.last_line = line;
        if s.trained < TRAIN {
            return (Proposals::default(), idx);
        }

        // Trained: propose NEAR lines into L2 and FAR more into L3, stopping
        // at the 4 KB page boundary like real streamers.
        let mut out = Proposals::default();
        let page_lo = page * PAGE_LINES;
        let page_hi = page_lo + PAGE_LINES; // exclusive
        for k in 1..=(NEAR + FAR) {
            let target = line as i64 + dir * k as i64;
            if target < page_lo as i64 || target >= page_hi as i64 {
                break;
            }
            let addr = target as u64 * crate::LINE;
            if k <= NEAR {
                out.into_l2[out.n_l2] = addr;
                out.n_l2 += 1;
            } else {
                out.into_l3[out.n_l3] = addr;
                out.n_l3 += 1;
            }
        }
        (out, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_trains_then_prefetches() {
        let mut s = Streamer::new();
        assert!(s.on_l2_access(0).is_empty()); // allocate
        assert!(s.on_l2_access(64).is_empty()); // trained = 1
        let p = s.on_l2_access(128); // trained = 2 -> fire
        assert_eq!(p.l2(), &[192, 256]);
        assert_eq!(p.l3(), &[320, 384, 448, 512]);
    }

    #[test]
    fn descending_stream_is_detected() {
        let mut s = Streamer::new();
        s.on_l2_access(10 * 64 + 4096 * 3);
        s.on_l2_access(9 * 64 + 4096 * 3);
        let p = s.on_l2_access(8 * 64 + 4096 * 3);
        assert_eq!(p.l2()[0], 7 * 64 + 4096 * 3);
    }

    #[test]
    fn random_jumps_never_prefetch() {
        let mut s = Streamer::new();
        let mut line = 1u64;
        for i in 0..100 {
            // Jumps of > 1 line within the same page.
            line = (line + 3 + i % 5) % PAGE_LINES;
            assert!(s.on_l2_access(line * crate::LINE).is_empty());
        }
    }

    #[test]
    fn prefetch_stops_at_page_boundary() {
        let mut s = Streamer::new();
        let last = PAGE_LINES - 1;
        s.on_l2_access((last - 2) * crate::LINE);
        s.on_l2_access((last - 1) * crate::LINE);
        let p = s.on_l2_access(last * crate::LINE);
        assert!(p.is_empty());
    }

    #[test]
    fn streams_are_tracked_per_page_concurrently() {
        let mut s = Streamer::new();
        // Interleave two pages; both should train.
        for i in 0..3u64 {
            s.on_l2_access(i * 64);
            s.on_l2_access(4096 * 8 + i * 64);
        }
        let a = s.on_l2_access(3 * 64);
        let b = s.on_l2_access(4096 * 8 + 3 * 64);
        assert!(!a.is_empty());
        assert!(!b.is_empty());
    }
}
