//! The §4 proof of concept in miniature: the Lite engine on the
//! ARM1176JZF-S-like machine, with and without the DTCM co-design.
//!
//! ```text
//! cargo run --release --example dtcm_poc
//! ```

use engines::{dtcm, DtcmConfig};
use microjoule::prelude::*;
use workloads::tpch::gen::build_tpch_db;
use workloads::TpchScale;

fn main() {
    let scale = TpchScale(2.0);
    let queries = [1u8, 3, 6, 10];

    // Baseline: unmodified Lite on the ARM part.
    let mut base_cpu = Cpu::new(ArchConfig::arm1176jzf_s());
    base_cpu.set_prefetch(true);
    let mut base = build_tpch_db(&mut base_cpu, EngineKind::Lite, KnobLevel::Small, scale)
        .expect("load baseline");
    base.knobs = engines::Knobs::arm_small();

    // Co-designed: DB buffer + special variables + B-tree tops in DTCM.
    let mut opt_cpu = Cpu::new(ArchConfig::arm1176jzf_s());
    opt_cpu.set_prefetch(true);
    let mut opt = build_tpch_db(&mut opt_cpu, EngineKind::Lite, KnobLevel::Small, scale)
        .expect("load optimised");
    opt.knobs = engines::Knobs::arm_small();
    let hot = ["lineitem", "orders", "customer", "nation", "region"];
    dtcm::configure(&mut opt_cpu, &mut opt, &hot, DtcmConfig::default()).expect("configure DTCM");
    println!("pinned {} pages in DTCM\n", opt.pool().pinned_pages());

    for qn in queries {
        let q = TpchQuery(qn);
        let plan = q.plan();
        base.session().run(&mut base_cpu, &plan).expect("warm base");
        let mb = base_cpu.measure(|c| {
            base.session().run(c, &plan).expect("base");
        });
        opt.session().run(&mut opt_cpu, &plan).expect("warm dtcm");
        let mo = opt_cpu.measure(|c| {
            opt.session().run(c, &plan).expect("dtcm");
        });
        println!(
            "{:<4} energy saving {:>6.2}% | performance {:>+6.2}%",
            q.name(),
            (1.0 - mo.rapl.total_j() / mb.rapl.total_j()) * 100.0,
            (1.0 - mo.time_s / mb.time_s) * 100.0,
        );
    }
    println!("\nDTCM saves energy without losing performance — the §4.3 headline.");
}
