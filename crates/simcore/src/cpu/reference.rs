//! The reference step: the oracle for every fast step.
//!
//! `load_reference`, `store_reference` and `exec_n_reference` simulate one
//! access the plain way: every price and latency is derived from the
//! energy model and the architecture on the spot, the hierarchy is walked
//! one level at a time (`Hierarchy::load`/`store`), and time passes through
//! `advance`, so the governor and the sampler see every step. The fast
//! steps in `cpu.rs` must match them bit for bit. Production never calls
//! them. `tests/access_equiv.rs`, simcore's equivalence unit tests and
//! perfbench's scalar arm call them per access, and a machine built by
//! `Cpu::new_reference` takes them for every access of every verb, which
//! is how `tests/fastpath_equiv.rs` runs whole workloads on the oracle.

use super::{Cpu, Dep, ExecOp};
use crate::arch::ArchConfig;
use crate::hierarchy::{AccessResult, HitLevel};
use crate::pmu::Event;

#[cfg(test)]
thread_local! {
    /// Calls into the three reference verbs on this thread, so unit tests
    /// can check that an ordinary machine never takes them and a reference
    /// machine takes them for every access.
    pub(super) static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn note_call() {
    CALLS.with(|c| c.set(c.get() + 1));
}

impl Cpu {
    /// A machine that is the oracle: its `load`, `store` and `exec_n` take
    /// the reference step, and its fast paths' time budget has no room, so
    /// every line of a run verb (a repeat's first access aside) is a
    /// fallback through those single verbs. Bit-identical to [`Cpu::new`]
    /// on any workload; kept for whole-workload equivalence tests.
    #[doc(hidden)]
    pub fn new_reference(arch: ArchConfig) -> Self {
        // `Cpu` implements `Drop`, so the flag is set on a built machine
        // rather than by struct update.
        let mut cpu = Cpu::new(arch);
        cpu.reference = true;
        cpu
    }

    /// The reference step of [`Cpu::load`]: every price, latency and
    /// hierarchy transition derived on the spot. Bit-identical to `load`;
    /// kept callable for equivalence tests and benchmark baselines.
    #[doc(hidden)]
    pub fn load_reference(&mut self, addr: u64, dep: Dep) {
        #[cfg(test)]
        note_call();
        if dep == Dep::Chase {
            self.settle();
        }
        let r = self.hier.load(addr, &mut self.pmu);
        let level = r.level.expect("load always resolves to a level");
        let hz = self.freq_hz();
        self.pmu.bump(Event::Instructions);
        self.charge_frontend(0);
        self.meter
            .charge(self.model.load_price(level, r.dram_row_hit, hz));
        self.charge_access_side_effects(&r);

        let lat = self.hier.latency_cycles(&self.arch, level, hz);
        match dep {
            Dep::Chase => {
                self.advance(1.0, 0.0);
                self.pending = (lat - 1.0).max(0.0);
                self.fillable = self.pending.min(self.arch.ooo_fill_cycles);
            }
            Dep::Stream => {
                let issue = 1.0 / self.arch.load_issue_width;
                self.busy_work(issue);
                if !matches!(level, HitLevel::L1d | HitLevel::Tcm) {
                    // MLP-amortized exposed latency.
                    self.advance(0.0, lat / self.arch.mlp);
                }
            }
        }
    }

    /// The reference step of [`Cpu::store`] (see `load_reference`).
    #[doc(hidden)]
    pub fn store_reference(&mut self, addr: u64) {
        #[cfg(test)]
        note_call();
        let (r, allocated) = self.hier.store(addr, &mut self.pmu);
        let hz = self.freq_hz();
        self.pmu.bump(Event::Instructions);
        self.charge_frontend(1);
        let tcm = matches!(r.level, Some(HitLevel::Tcm));
        self.meter.charge(self.model.store_price(tcm, hz));
        self.charge_access_side_effects(&r);
        self.busy_work(1.0);
        if let Some(level) = allocated {
            // Write-allocate fill: pay the movement energy and a (store-
            // buffer-softened) fraction of the latency.
            self.meter
                .charge(self.model.load_price(level, r.dram_row_hit, hz));
            let lat = self.hier.latency_cycles(&self.arch, level, hz);
            self.advance(0.0, lat / self.arch.mlp / 2.0);
        }
    }

    /// The reference step of [`Cpu::exec_n`] (see `load_reference`).
    #[doc(hidden)]
    pub fn exec_n_reference(&mut self, op: ExecOp, n: u64) {
        #[cfg(test)]
        note_call();
        if n == 0 {
            return;
        }
        let c = self.exec_cycles(op, n);
        self.pmu.add(Event::Instructions, n);
        self.pmu.add(op.event(), n);
        let hz = self.freq_hz();
        // Per-instruction fetch is part of `per`; only the class-switch
        // decode penalty is charged at the block boundary.
        let class = 2 + op.event() as u8;
        if self.last_class != class && self.last_class != u8::MAX {
            self.meter.charge(self.model.decode_switch_price(hz));
        }
        self.last_class = class;
        let fetch = self.fetch_price_eff(hz);
        let per = crate::energy::add_price(fetch, self.model.op_price(op.class(), hz));
        self.meter.charge(crate::energy::scale_price(per, n as f64));
        self.busy_work(c);
    }

    /// Busy work of `c` cycles that may execute in the shadow of an
    /// outstanding chase load.
    #[inline]
    fn busy_work(&mut self, c: f64) {
        self.fill_shadow(c);
        self.advance(c, 0.0);
    }

    /// Charge front-end cost for an instruction of `class`, including the
    /// decode-switch penalty on class transitions.
    #[inline]
    fn charge_frontend(&mut self, class: u8) {
        let hz = self.freq_hz();
        self.meter.charge(self.fetch_price_eff(hz));
        if self.last_class != class && self.last_class != u8::MAX {
            self.meter.charge(self.model.decode_switch_price(hz));
        }
        self.last_class = class;
    }

    fn charge_access_side_effects(&mut self, r: &AccessResult) {
        let hz = self.freq_hz();
        for _ in 0..r.pf_l2 {
            self.meter.charge(self.model.pf_l2_price(hz));
        }
        for i in 0..r.pf_l3 {
            let row_hit = i < r.pf_l3_row_hits;
            self.meter.charge(self.model.pf_l3_price(row_hit, hz));
        }
        for _ in 0..r.wb_l1 {
            self.meter
                .charge(self.model.writeback_price(HitLevel::L1d, hz));
        }
        for _ in 0..r.wb_l2 {
            self.meter
                .charge(self.model.writeback_price(HitLevel::L2, hz));
        }
        for _ in 0..r.wb_l3 {
            self.meter
                .charge(self.model.writeback_price(HitLevel::L3, hz));
        }
    }
}
