//! Extension (the paper's §7 future work) — profile the energy cost of a
//! NoSQL system: the §2 methodology applied to an LSM key-value store under
//! YCSB-like mixes.
//!
//! The question the paper poses: does the L1D energy bottleneck generalise
//! beyond relational query workloads? The answer here: no. Point-read mixes
//! spend their energy on bloom probes, index descents and skip-list chases
//! (stall-leaning); the short scans of YCSB-E seek with the same chases and
//! read a block or two per run, so they lean more on L1D than point reads
//! but stay stall-bound — every mix sits between the paper's query
//! workloads and its CPU-bound workloads.

use std::any::Any;
use std::fmt::Write as _;

use analysis::report::TextTable;
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use nosql::{LsmConfig, LsmStore, Workload, YcsbMix};
use simcore::{ArchConfig, Cpu, PState};

use crate::{share_header, share_row};

/// One shard per YCSB mix; each yields the mix's table row + summary
/// shares.
pub struct FutureNosql;

/// A mix's table row plus the L1D/stall shares the footer reports.
struct MixRow {
    row: Vec<String>,
    name: &'static str,
    l1d: f64,
    stall: f64,
}

impl Experiment for FutureNosql {
    fn name(&self) -> &'static str {
        "future_nosql"
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        YcsbMix::ALL.len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let mix = YcsbMix::ALL[shard];
        let table = ctx.table_x86(PState::P36);
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        cpu.set_prefetch(true);
        let mut store = LsmStore::open(&mut cpu, LsmConfig::default()).expect("open");
        let mut w = Workload::load(&mut cpu, &mut store, mix, 20_000, 100).expect("load");
        // Warm the read path.
        w.run(&mut cpu, &mut store, 1_000).expect("warm");
        let m = cpu.measure(|c| {
            w.run(c, &mut store, 5_000).expect("run");
        });
        ctx.record(&m);
        let bd = table.breakdown(&m);
        Box::new(MixRow {
            row: share_row(mix.name(), &bd),
            name: mix.name(),
            l1d: bd.l1d_share(),
            stall: bd.share(analysis::MicroOp::Stall),
        })
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let rows: Vec<MixRow> = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| downcast_shard::<MixRow>(self.name(), i, s))
            .collect();
        let mut t = TextTable::new(share_header());
        for mr in &rows {
            t.row(mr.row.clone());
        }
        let mut r = Report::new();
        writeln!(
            r,
            "== Future work (sec. 7): Eactive breakdown of an LSM KV store under YCSB =="
        )
        .unwrap();
        write!(r, "{}", t.render()).unwrap();
        writeln!(r).unwrap();
        for mr in &rows {
            writeln!(
                r,
                "{}: EL1D+EReg2L1D {:.1}% | Estall {:.1}%",
                mr.name,
                mr.l1d * 100.0,
                mr.stall * 100.0
            )
            .unwrap();
        }
        writeln!(
            r,
            "\nRelational query workloads sit at 39-67% L1D share (Figs. 6-7); CPU-bound at ~9% (Fig. 10)."
        )
        .unwrap();
        r
    }
}
