//! Span forests: the per-operator hierarchy reconstructed from a flat,
//! seq-sorted [`SpanRecord`] stream.
//!
//! A span's [`Measurement`] delta is *inclusive* — it contains everything
//! its children did. The forest makes the *exclusive* view available:
//! [`SpanForest::exclusive`] subtracts the children's deltas, so per-node
//! energies telescope — summing `self_j` over every node of a tree
//! reproduces the root's RAPL delta exactly (same additions, float-exact
//! in practice to ~1e-12 relative).

use mjobs::span::SpanRecord;
use simcore::{Measurement, RunStats};

/// A parent/child view over a seq-sorted slice of span records.
#[derive(Debug)]
pub struct SpanForest<'a> {
    recs: &'a [SpanRecord],
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
}

impl<'a> SpanForest<'a> {
    /// Build the forest, validating well-formedness: records sorted by
    /// `seq`, every `parent_seq` resolving to an earlier record whose
    /// `(seq, end_seq)` interval strictly encloses the child's, and depths
    /// consistent with the parent chain. Returns a description of the
    /// first violation instead of a forest when the stream is malformed.
    pub fn build(recs: &'a [SpanRecord]) -> Result<SpanForest<'a>, String> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
        let mut roots = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            if i > 0 && recs[i - 1].seq >= r.seq {
                return Err(format!("records not sorted by seq at index {i}"));
            }
            if r.end_seq <= r.seq {
                return Err(format!("span {} has end_seq <= seq", r.name));
            }
            match r.parent_seq {
                None => {
                    if r.depth != 0 {
                        return Err(format!("root span {} has depth {}", r.name, r.depth));
                    }
                    roots.push(i);
                }
                Some(p) => {
                    // Records are seq-sorted, so the parent precedes i.
                    let Ok(pi) = recs[..i].binary_search_by(|c| c.seq.cmp(&p)) else {
                        return Err(format!("span {} has unknown parent seq {p}", r.name));
                    };
                    let par = &recs[pi];
                    if !(par.seq < r.seq && r.end_seq < par.end_seq) {
                        return Err(format!(
                            "span {} [{}, {}] not enclosed by parent {} [{}, {}]",
                            r.name, r.seq, r.end_seq, par.name, par.seq, par.end_seq
                        ));
                    }
                    if r.depth != par.depth + 1 {
                        return Err(format!(
                            "span {} depth {} under parent depth {}",
                            r.name, r.depth, par.depth
                        ));
                    }
                    children[pi].push(i);
                }
            }
        }
        Ok(SpanForest {
            recs,
            children,
            roots,
        })
    }

    /// Indices of root spans, in seq order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Indices of node `i`'s children, in execution (seq) order.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// The record behind node `i`.
    pub fn rec(&self, i: usize) -> &SpanRecord {
        &self.recs[i]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Node `i`'s *exclusive* measurement: its inclusive delta minus every
    /// direct child's. PMU counts, energy, time and cycles all telescope,
    /// so the subtraction can never go negative on well-formed streams
    /// (children execute strictly inside the parent's window).
    pub fn exclusive(&self, i: usize) -> Measurement {
        let mut m = self.recs[i].delta.clone();
        for &c in &self.children[i] {
            let ch = &self.recs[c].delta;
            m.pmu = m.pmu.delta(&ch.pmu);
            m.rapl = m.rapl.delta(&ch.rapl);
            m.time_s -= ch.time_s;
            m.cycles -= ch.cycles;
        }
        m
    }

    /// Node `i`'s exclusive RAPL joules (total domain).
    pub fn self_j(&self, i: usize) -> f64 {
        let mut j = self.recs[i].delta.rapl.total_j();
        for &c in &self.children[i] {
            j -= self.recs[c].delta.rapl.total_j();
        }
        j.max(0.0)
    }

    /// Node `i`'s exclusive fast-path counter deltas.
    pub fn exclusive_runs(&self, i: usize) -> RunStats {
        let mut r = self.recs[i].runs;
        for &c in &self.children[i] {
            r -= self.recs[c].runs;
        }
        r
    }

    /// Sum of the root spans' inclusive RAPL joules — the total energy the
    /// stream accounts for.
    pub fn total_j(&self) -> f64 {
        self.roots
            .iter()
            .map(|&r| self.recs[r].delta.rapl.total_j())
            .sum()
    }
}

/// Fraction of fast-path-eligible lines actually served by a fast path
/// (batched, cold-batched or replayed); `None` when the window moved no
/// lines through `access_run` at all.
pub fn fastpath_hit_rate(r: RunStats) -> Option<f64> {
    let served = r.served();
    let total = served + r.fallbacks;
    (total > 0).then(|| served as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Cpu, Dep, ExecOp};

    fn spans_of(f: impl FnOnce(&mut Cpu)) -> Vec<SpanRecord> {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        mjobs::span::install();
        f(&mut cpu);
        mjobs::span::take()
    }

    #[test]
    fn forest_reconstructs_nesting_and_telescopes_energy() {
        let recs = spans_of(|cpu| {
            let buf = cpu.alloc(4096).unwrap();
            mjobs::span::enter(cpu, || "root".into());
            cpu.exec_n(ExecOp::Add, 50);
            mjobs::span::enter(cpu, || "left".into());
            for l in 0..8 {
                cpu.load(buf.addr + l * 64, Dep::Stream);
            }
            mjobs::span::exit(cpu);
            mjobs::span::enter(cpu, || "right".into());
            cpu.exec_n(ExecOp::Mul, 30);
            mjobs::span::exit(cpu);
            mjobs::span::exit(cpu);
        });
        let forest = SpanForest::build(&recs).expect("well-formed");
        assert_eq!(forest.roots().len(), 1);
        let root = forest.roots()[0];
        assert_eq!(forest.children(root).len(), 2);
        let sum_self: f64 = (0..forest.len()).map(|i| forest.self_j(i)).sum();
        let total = forest.total_j();
        assert!(total > 0.0);
        assert!(
            (sum_self - total).abs() <= 1e-9 * total.max(1.0),
            "exclusive energies must telescope: {sum_self} vs {total}"
        );
        // Exclusive time also telescopes and stays non-negative.
        for i in 0..forest.len() {
            assert!(forest.exclusive(i).time_s >= 0.0);
        }
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let recs = spans_of(|cpu| {
            mjobs::span::enter(cpu, || "a".into());
            mjobs::span::exit(cpu);
        });
        let mut bad = recs.clone();
        bad[0].parent_seq = Some(99);
        assert!(SpanForest::build(&bad)
            .unwrap_err()
            .contains("unknown parent"));
        let mut bad = recs.clone();
        bad[0].end_seq = bad[0].seq;
        assert!(SpanForest::build(&bad).is_err());
        let mut bad = recs;
        bad[0].depth = 3;
        assert!(SpanForest::build(&bad).unwrap_err().contains("depth"));
    }
}
