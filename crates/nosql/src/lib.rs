#![warn(missing_docs)]

//! # nosql — an LSM-tree key-value store on the simulated CPU
//!
//! The paper closes with "we will try to profile the energy cost of other
//! typical database systems, such as NoSQL systems, to identify their energy
//! distribution feature on CPU and check if our method can be employed"
//! (§7). This crate is that future work: a write-optimised LSM store in the
//! RocksDB/LevelDB family —
//!
//! * a **write-ahead log** (sequential appends + group-commit fsyncs),
//! * a **memtable** (skip-list-shaped simulated accesses, host-side ordered
//!   map for correctness),
//! * immutable **SSTables** with block-sparse indexes and **bloom filters**,
//! * size-tiered **compaction**,
//! * range scans that seek the memtable and every run, then k-way merge
//!   forward (newest version wins, tombstones skipped),
//! * a **YCSB-like workload driver** (A–F mixes, Zipfian keys).
//!
//! Every access runs through [`simcore::Cpu`], so the §2 methodology breaks
//! a YCSB run down exactly like a TPC-H query (see the `future_nosql`
//! harness). Point reads are dominated by bloom-probe, index and skip-list
//! pointer chases (stall heavy). A short scan seeks with the same chases and
//! then reads a block or two per run, so it leans more on L1D but stays
//! stall-bound; only flushes and compactions stream whole runs. NoSQL sits
//! between the paper's query workloads and its CPU-bound workloads.

pub mod bloom;
pub mod lsm;
pub mod memtable;
pub mod sstable;
pub mod wal;
pub mod ycsb;

pub use lsm::{LsmConfig, LsmStore};
pub use ycsb::{Workload, YcsbMix};

/// Errors from the KV store.
#[derive(Debug)]
pub enum KvError {
    /// Simulated memory exhausted.
    Mem(simcore::MemError),
    /// Keys/values over the size limits.
    TooLarge(&'static str),
    /// An empty value: empty values are reserved as deletion tombstones.
    EmptyValue,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Mem(e) => write!(f, "memory: {e}"),
            KvError::TooLarge(what) => write!(f, "{what} exceeds the size limit"),
            KvError::EmptyValue => write!(f, "empty values are reserved for deletions"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<simcore::MemError> for KvError {
    fn from(e: simcore::MemError) -> Self {
        KvError::Mem(e)
    }
}

/// Crate-wide result.
pub type Result<T> = std::result::Result<T, KvError>;
