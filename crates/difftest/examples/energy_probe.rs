//! One-off probe: estimated/measured Active-energy ratio for every corpus
//! case on every variant, to ground the invariant bounds empirically.

use std::sync::Arc;

use analysis::CalibrationBuilder;
use mjdiff::{compile_case, corpus, Engine, Variant};
use simcore::{ArchConfig, ArchKind};

fn main() {
    let x86 = Arc::new(CalibrationBuilder::quick().calibrate().unwrap());
    let arm = Arc::new(
        CalibrationBuilder::new(ArchConfig::arm1176jzf_s())
            .target_ops(20_000)
            .calibrate()
            .unwrap(),
    );
    let mut engines: Vec<Engine> = Variant::ALL.iter().map(|&v| Engine::build(v)).collect();
    let cases = corpus::full_corpus(50, mjdiff::SEED);
    let mut lo = (f64::INFINITY, String::new());
    let mut hi = (0.0f64, String::new());
    for case in &cases {
        let Ok(plan) = compile_case(case, engines[0].catalog()) else {
            continue;
        };
        for e in engines.iter_mut() {
            let table = match e.variant.arch() {
                ArchKind::X86 => &x86,
                ArchKind::Arm => &arm,
            };
            let (est, meas) = e.probe_energy(&plan, table);
            if meas < 1e-6 {
                continue;
            }
            let ratio = est / meas;
            let label = format!("{}/{}", case.name(), e.variant.name());
            if ratio < lo.0 {
                lo = (ratio, label.clone());
            }
            if ratio > hi.0 {
                hi = (ratio, label.clone());
            }
            println!("{label}: est {est:.6} meas {meas:.6} ratio {ratio:.3}");
        }
    }
    println!("\nmin ratio: {:.4} at {}", lo.0, lo.1);
    println!("max ratio: {:.4} at {}", hi.0, hi.1);
}
