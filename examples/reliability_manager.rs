//! Dynamic reliability management — the use-case behind the DATE-2010
//! title: a runtime manager that tracks *consumed* OBD life as the
//! workload (and therefore the thermal profile) changes, using the hybrid
//! lookup tables ("embedded into a dynamic system for reliability
//! monitoring that usually requires very fast response", paper
//! Sec. IV-E).
//!
//! The damage model is effective-age accumulation: under a time-varying
//! operating point, each block's Weibull hazard advances by
//! `dξ_j = dt / α_j(T(t), V(t))`; the block's failure probability at any
//! moment is the table entry at `γ_j = ln(ξ_j)` (the constant-condition
//! identity `γ = ln(t/α)` with `ξ = t/α` made cumulative). The chip-level
//! probability is weakest-link composed on log-survival — *not* a sum of
//! block probabilities — and the manager walks a DVFS ladder whenever the
//! projected end-of-service probability exceeds the budget.
//!
//! Run with: `cargo run --release --example reliability_manager`

use statobd::circuits::Benchmark;
use statobd::core::{params, EngineKind, HybridConfig};
use statobd::device::ClosedFormTech;
use statobd::manager::{DamageState, DvfsLevel, PolicyConfig, ReliabilityManager};
use statobd::{AnalysisSpec, Session};

const MONTH_S: f64 = 2.63e6;
const LIFETIME_MONTHS: usize = 60; // 5-year service target
const BUDGET: f64 = params::ONE_PER_MILLION;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Compile the design once; the cheap closed-form engine suffices
    // because the manager drives its own hybrid tables (built once,
    // offline — the manager widens the table grid so the whole service
    // life stays on-grid).
    let aspec = AnalysisSpec::benchmark(Benchmark::C3).with_engine(EngineKind::StClosed);
    let mut session = Session::build(&aspec)?;
    let tech = ClosedFormTech::nominal_45nm();
    let n_blocks = session.analysis().n_blocks();
    let spec_temps: Vec<f64> = session
        .analysis()
        .blocks()
        .iter()
        .map(|b| b.spec().temperature_k())
        .collect();

    let policy = PolicyConfig {
        budget: BUDGET,
        service_life_s: LIFETIME_MONTHS as f64 * MONTH_S,
        hysteresis: 0.85,
        levels: vec![
            DvfsLevel {
                name: "turbo".to_string(),
                vdd_cap_v: 1.26,
                dt_when_capped_k: 0.0,
            },
            DvfsLevel {
                name: "nominal".to_string(),
                vdd_cap_v: 1.20,
                dt_when_capped_k: -6.0,
            },
            DvfsLevel {
                name: "eco".to_string(),
                vdd_cap_v: 1.10,
                dt_when_capped_k: -14.0,
            },
        ],
    };
    session.configure_manager(policy.clone(), HybridConfig::default())?;
    let mgr = session.manager_mut()?;

    // Three workload regimes: per-block temperature offsets relative to
    // the design's nominal profile, and the voltage the workload asks for.
    let regimes = [
        ("idle", -12.0, 1.10),
        ("typical", 0.0, 1.20),
        ("turbo", 10.0, 1.26),
    ];

    println!("dynamic reliability manager: C3, 5-year service, budget 1 ppm\n");
    println!(
        "{:>6} {:>9} {:>8} {:>7} {:>13} {:>13}",
        "month", "regime", "level", "VDD", "P(now)", "P(projected)"
    );

    let mut checkpoint: Option<String> = None;
    let mut query_count = 0usize;
    let query_start = std::time::Instant::now();
    for month in 0..LIFETIME_MONTHS {
        // A bursty request pattern with turbo phases.
        let (name, dt_k, vdd_req) = match month % 12 {
            0..=2 => regimes[1],
            3..=4 => regimes[2],
            5..=8 => regimes[1],
            _ => regimes[0],
        };
        let temps: Vec<f64> = spec_temps.iter().map(|t| t + dt_k).collect();
        let report = mgr.step(MONTH_S, &temps, vdd_req)?;
        // One p_now sweep + one projection sweep per ladder walk.
        query_count += 2 * n_blocks;

        if month % 12 < 6 {
            println!(
                "{:>6} {:>9} {:>8} {:>7.2} {:>13.3e} {:>13.3e}{}",
                month,
                name,
                mgr.level_name(),
                report.vdd_v,
                report.p_now,
                report.p_projected,
                if report.capped { "  <- capped" } else { "" }
            );
        }
        // Mid-life: checkpoint the complete reliability state.
        if month == LIFETIME_MONTHS / 2 {
            checkpoint = Some(mgr.damage().to_json());
        }
    }
    let per_query = query_start.elapsed().as_secs_f64() / query_count as f64;

    // Pull the end-of-service numbers before the manager borrow ends.
    let p_final = mgr.failure_probability_now()?;
    let transitions = mgr.transitions();
    let off_grid = mgr.off_grid_queries();

    // The damage vector is the *complete* state: restoring the mid-life
    // checkpoint into a fresh manager reproduces the monitored value.
    let json = checkpoint.expect("mid-life checkpoint");
    let mut resumed = ReliabilityManager::new(
        session.analysis(),
        Box::new(tech),
        policy,
        HybridConfig::default(),
    )?;
    resumed.restore(DamageState::from_json(&json)?)?;
    println!(
        "\nmid-life checkpoint: {} bytes of JSON, P on restore {:.3e}",
        json.len(),
        resumed.failure_probability_now()?
    );
    println!(
        "end of service: chip failure probability {p_final:.3e} (budget {BUDGET:.0e}), \
         {transitions} DVFS transitions, {off_grid} off-grid queries"
    );
    println!(
        "manager overhead: {} table queries at {:.1} µs each — cheap enough for a runtime monitor",
        query_count,
        per_query * 1e6
    );
    if p_final <= BUDGET {
        println!(
            "verdict: budget met{}",
            if transitions > 0 {
                " (after throttling)"
            } else {
                ""
            }
        );
    } else {
        println!("verdict: budget exceeded");
    }
    Ok(())
}
