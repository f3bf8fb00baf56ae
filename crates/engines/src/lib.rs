#![warn(missing_docs)]

//! # engines — the database personalities plus the DTCM proof of concept
//!
//! The paper profiles PostgreSQL 9.5, SQLite 3.14 and MySQL 8.0 and
//! attributes their energy-distribution differences to *implementation
//! style* (§3.3): SQLite leans on sequential scanning and simple structures
//! (highest `E_L1D + E_Reg2L1D` share), PostgreSQL and MySQL build complex
//! auxiliary structures (hash joins, sort runs, heavier buffer management)
//! that add stalls and calculation energy.
//!
//! This crate implements the paper's three row engines over the shared
//! [`storage`] substrate, differing in exactly those structural ways, plus
//! a vectorized columnar counterfactual (**Vec**, the [`batch`] executor):
//!
//! | | **Pg** | **Lite** | **My** | **Vec** |
//! |---|---|---|---|---|
//! | table scan | heap cursor | table B-tree walk | clustered B-tree walk | column-lane batches |
//! | equi-join | hash join | index nested loop (+ transient auto-index) | hash join | hash join |
//! | grouping | hash aggregation | sort-based | hash aggregation | hash aggregation |
//! | secondary index | key → tuple id | key → rowid → table B-tree | key → PK → clustered B-tree | key-lane selection |
//! | per-row overhead | slot abstraction | VM dispatch (state loads) | server layer + checksums | amortized per vector |
//!
//! All four execute the same logical [`plan::Plan`]s and must return
//! identical result sets (differential tests enforce this); they differ only
//! in which loads, stores, and ops they issue — which is the whole point.
//!
//! [`dtcm`] is the §4 proof of concept: the **Lite** engine on the
//! ARM1176JZF-S machine with three co-design strategies — a DTCM database
//! buffer, the VM's hot "special variables" in DTCM, and the top B-tree
//! layers of the queried tables pinned in DTCM.

pub mod advisor;
pub mod batch;
pub mod db;
pub mod dml;
pub mod dtcm;
pub mod executor;
pub mod knobs;
mod ops;
pub mod optimizer;
pub mod plan;
pub mod profile;
pub mod session;

pub use advisor::DvfsAdvisor;
pub use db::Database;
pub use dml::Dml;
pub use dtcm::DtcmConfig;
pub use knobs::{KnobLevel, Knobs};
pub use optimizer::optimize;
pub use plan::Plan;
pub use profile::{EngineKind, Profile};
pub use session::{Session, SessionCtx};
