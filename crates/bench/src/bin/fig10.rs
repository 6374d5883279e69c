//! Reproduces **Fig. 10**: failure-rate curves of design C3 by four
//! methods — Monte-Carlo, the proposed temperature-aware statistical
//! approach, a temperature-unaware variant (worst-case temperature for
//! every block) and the conventional guard-band — plus the
//! 10-faults-per-million lifetime errors of each (the paper reports 1.8 %,
//! 25.1 % and 54.3 %).
//!
//! Run with `--quick` for fewer Monte-Carlo chips.

use statobd_bench::*;
use statobd_circuits::{build_design, Benchmark, DesignConfig};
use statobd_core::{
    failure_rate_curve, solve_lifetime, ChipAnalysis, GuardBand, GuardBandConfig, MonteCarlo,
    MonteCarloConfig, StFast, StFastConfig,
};
use statobd_device::ClosedFormTech;

fn main() {
    let quick = statobd_bench::harness::quick_flag();
    // The paper simulates 10 000 sample chips for this figure.
    let mc_chips = if quick { 500 } else { 10_000 };

    println!("== Fig. 10: failure-rate curves and 10-per-million errors, design C3 ==");
    let built = build_design(Benchmark::C3, &DesignConfig::default()).expect("design");
    let model = thickness_model_for(&built, 0.5);
    let tech = ClosedFormTech::nominal_45nm();

    // Temperature-aware analysis.
    let aware = analyze(&built, &model, &tech).expect("characterization");
    // Temperature-unaware: every block at the chip's worst temperature.
    let unaware_spec = built
        .spec
        .with_uniform_worst_temperature()
        .expect("non-empty spec");
    let unaware = ChipAnalysis::new(unaware_spec, model.clone(), &tech).expect("characterization");

    let mut mc = MonteCarlo::build(
        &aware,
        MonteCarloConfig {
            n_chips: mc_chips,
            ..Default::default()
        },
    )
    .expect("MC build");
    let mut fast_aware = StFast::new(&aware, StFastConfig::default());
    let mut fast_unaware = StFast::new(&unaware, StFastConfig::default());
    let mut guard = GuardBand::new(&aware, GuardBandConfig::default()).expect("guard");

    // Lifetimes at the 10-per-million criterion.
    let p10 = statobd_core::params::TEN_PER_MILLION;
    let t_mc = solve_lifetime(&mut mc, p10, BRACKET).expect("MC lifetime");
    let t_aware = solve_lifetime(&mut fast_aware, p10, BRACKET).expect("aware lifetime");
    let t_unaware = solve_lifetime(&mut fast_unaware, p10, BRACKET).expect("unaware lifetime");
    let t_guard = guard.lifetime(p10).expect("guard lifetime");

    let err = |t: f64| 100.0 * ((t - t_mc) / t_mc).abs();
    println!();
    println!("10-faults-per-million lifetimes (MC = {} chips):", mc_chips);
    println!("  MC reference     : {}", fmt_lifetime(t_mc));
    println!(
        "  temp-aware       : {}  error {:>5.1}%  (paper:  1.8%)",
        fmt_lifetime(t_aware),
        err(t_aware)
    );
    println!(
        "  temp-unaware     : {}  error {:>5.1}%  (paper: 25.1%)",
        fmt_lifetime(t_unaware),
        err(t_unaware)
    );
    println!(
        "  guard-band       : {}  error {:>5.1}%  (paper: 54.3%)",
        fmt_lifetime(t_guard),
        err(t_guard)
    );

    // Failure-rate curves over the interesting window.
    let (t_lo, t_hi) = (t_guard / 4.0, t_mc * 6.0);
    let n_pts = 25;
    let c_mc = failure_rate_curve(&mut mc, t_lo, t_hi, n_pts).expect("curve");
    let c_aw = failure_rate_curve(&mut fast_aware, t_lo, t_hi, n_pts).expect("curve");
    let c_un = failure_rate_curve(&mut fast_unaware, t_lo, t_hi, n_pts).expect("curve");
    let c_gd = failure_rate_curve(&mut guard, t_lo, t_hi, n_pts).expect("curve");

    println!();
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "t (s)", "MC", "temp-aware", "temp-unaw.", "guard"
    );
    for i in 0..n_pts {
        println!(
            "{:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            c_mc[i].0, c_mc[i].1, c_aw[i].1, c_un[i].1, c_gd[i].1
        );
    }
    println!();
    println!("Expected shape (paper): the temperature-aware curve tracks MC closely;");
    println!("temp-unaware overstates the failure rate (lifetime error tens of %);");
    println!("guard-band overstates it the most (~half the real lifetime).");
    println!("Error ordering: temp-aware < temp-unaware < guard-band.");
}
