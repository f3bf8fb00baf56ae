#![warn(missing_docs)]

//! # simcore — a cycle-approximate simulated CPU with energy metering
//!
//! This crate is the hardware substrate for the `microjoule` reproduction of
//! *Micro Analysis to Enable Energy-Efficient Database Systems* (EDBT 2020).
//! The paper's methodology runs on an Intel i7-4790 with Linux perf + RAPL and,
//! for the proof of concept, on an ARM1176JZF-S with Tightly Coupled Memory
//! (TCM). Neither is available here, so `simcore` provides the closest
//! synthetic equivalent:
//!
//! * a **set-associative cache hierarchy** (L1D/L2/L3/DRAM) with write-back,
//!   write-allocate semantics and the step-by-step replication strategy the
//!   paper describes (§2.3, Fig. 2),
//! * an **L2 streamer prefetcher** that prefetches into L2 and L3 (the two
//!   counter-visible prefetch flavours of the i7-4790),
//! * a **PMU** exposing the event counts the paper's counting step needs
//!   (§2.4): per-level hits/misses, prefetch counts, store hits, stall cycles,
//! * **P-states / DVFS** (29 operating points, 800 MHz–3.6 GHz) with an
//!   EIST-like governor,
//! * a **RAPL-style energy meter** with core / package / memory domains fed by
//!   a *hidden* ground-truth per-event energy model. The analysis layer never
//!   reads the ground truth — it must recover per-micro-op energies from
//!   measured joules, exactly as the paper recovers them from RAPL,
//! * a **TCM region** (ARM1176JZF-S-like architecture) with fixed addresses,
//!   1-cycle latency and lower per-access energy than L1D.
//!
//! ## Timing model
//!
//! Loads are tagged with a [`Dep`] hint. `Dep::Chase` loads (pointer chasing:
//! linked lists, B-tree descent, hash probes) expose the full access latency;
//! the cycles between issue and return are *stall* cycles unless subsequent
//! independent instructions fill them (a small out-of-order window is
//! modelled). `Dep::Stream` loads (array scans, sequential page reads) are
//! dual-issued and hide latency behind memory-level parallelism. This is the
//! minimal model that reproduces the paper's Fig. 3 contrast between list
//! traversal (IPC ≈ 0.26) and array traversal (IPC ≈ 2).
//!
//! ## Example
//!
//! ```
//! use simcore::{Cpu, ArchConfig, Dep, PState};
//!
//! let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
//! cpu.set_pstate(PState::P36);
//! let buf = cpu.alloc(4096).unwrap();
//! for line in 0..(4096 / 64) {
//!     cpu.load(buf.addr + line * 64, Dep::Stream);
//! }
//! assert!(cpu.rapl().package_j > 0.0);
//! ```

pub mod arch;
pub mod arena;
pub mod cache;
pub mod cpu;
pub mod dvfs;
pub mod energy;
pub mod hierarchy;
pub mod pmu;
pub mod prefetch;
pub mod timeline;

pub use arch::{ArchConfig, ArchKind, CacheConfig};
pub use arena::{Arena, MemError, Region};
pub use cpu::{take_cache_bytes_resident, take_run_stats, Cpu, Dep, ExecOp, Measurement, RunStats};
pub use dvfs::{Governor, PState};
pub use energy::{Domain, RaplReading};
pub use hierarchy::HitLevel;
pub use pmu::{Event, Pmu, PmuSnapshot};
pub use timeline::{TimelineSample, TimelineSampler};

/// Cache line size in bytes. The paper's data items are sized to one line.
pub const LINE: u64 = 64;

// The mjrt runtime moves measurements between worker threads and shares
// architecture descriptions across them; keep these types thread-portable
// so a change here fails at the definition, not in the scheduler.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Measurement>();
    assert_send_sync::<ArchConfig>();
    assert_send_sync::<ArchKind>();
    assert_send_sync::<PState>();
    assert_send_sync::<RaplReading>();
    assert_send_sync::<PmuSnapshot>();
};
