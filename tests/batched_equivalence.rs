//! One-point-vs-sweep equivalence: every engine evaluates `P(t)` only in
//! its batched `failure_probabilities(ts)`, and `failure_probability(t)`
//! is a one-point call of it. The reference loops below are therefore n
//! one-point calls through the same path, and each sweep entry must be
//! **bit-identical** to its one-point call — at any worker-thread count,
//! whatever the chunking, lane packing or fan-out of the rest of the
//! sweep (st_fast even takes a different lane layout for a batch of one).
//! This is the contract that lets `failure_rate_curve` and the benchmarks
//! batch their probes, and `solve_lifetime` probe one point per call,
//! without changing a single reported number.

use statobd::circuits::{build_design, Benchmark, DesignConfig};
use statobd::core::{build_engine, ChipAnalysis, EngineKind, EngineSpec, MonteCarloConfig};
use statobd::core::{CoreError, ReliabilityEngine, StMc, StMcConfig};
use statobd::device::ClosedFormTech;
use statobd::num::simd::{self, LaneWidth};
use statobd::variation::{CorrelationKernel, ThicknessModelBuilder, VarianceBudget};
use std::sync::{Mutex, MutexGuard};

/// Lane-width forcing is process-global, so the cross-width test holds
/// this lock while overriding and every other test holds it plainly —
/// otherwise a width flip mid-test could change an engine's lane
/// dispatch between its one-point reference and batched evaluation.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_guard() -> MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII width override; restores the environment default on drop.
struct ForcedWidth(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForcedWidth {
    fn new(w: LaneWidth) -> Self {
        let guard = width_guard();
        simd::force_width(Some(w));
        ForcedWidth(guard)
    }

    fn set(&self, w: LaneWidth) {
        simd::force_width(Some(w));
    }
}

impl Drop for ForcedWidth {
    fn drop(&mut self) {
        simd::force_width(None);
    }
}

fn c1_analysis() -> ChipAnalysis {
    let built = build_design(
        Benchmark::C1,
        &DesignConfig {
            correlation_grid_side: 8,
            ..DesignConfig::default()
        },
    )
    .expect("design");
    let model = ThicknessModelBuilder::new()
        .grid(built.grid)
        .nominal(statobd::core::params::NOMINAL_THICKNESS_NM)
        .budget(
            VarianceBudget::itrs_2008(statobd::core::params::NOMINAL_THICKNESS_NM).expect("budget"),
        )
        .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
        .build()
        .expect("model");
    ChipAnalysis::new(built.spec.clone(), model, &ClosedFormTech::nominal_45nm())
        .expect("characterization")
}

/// A small Monte-Carlo configuration keeps the six-engine × three-thread
/// sweep fast while still exercising the chunked parallel evaluation.
fn spec_for(kind: EngineKind, threads: usize) -> EngineSpec {
    let spec = match kind {
        EngineKind::MonteCarlo => EngineSpec::MonteCarlo(MonteCarloConfig {
            n_chips: 300,
            ..Default::default()
        }),
        other => other.default_spec(),
    };
    spec.with_threads(Some(threads))
}

#[test]
fn batched_matches_scalar_loop_for_every_engine_at_any_thread_count() {
    let _width = width_guard();
    let analysis = c1_analysis();
    // Log-spaced sweep wide enough to hit P ~ 0 and P ~ 1 regions, with an
    // awkward length (not a multiple of any internal chunking).
    let ts: Vec<f64> = (0..37).map(|i| 10f64.powf(5.0 + i as f64 * 0.2)).collect();

    for kind in EngineKind::ALL {
        // One-point reference at one thread.
        let mut reference = build_engine(&analysis, &spec_for(kind, 1)).expect("engine");
        let scalar: Vec<f64> = ts
            .iter()
            .map(|&t| reference.failure_probability(t).expect("one-point P(t)"))
            .collect();
        assert!(
            scalar.iter().any(|&p| p > 0.0),
            "{kind}: degenerate scalar curve"
        );

        for threads in [1usize, 2, 8] {
            let mut engine = build_engine(&analysis, &spec_for(kind, threads)).expect("engine");
            let batched = engine.failure_probabilities(&ts).expect("batched P(t)");
            assert_eq!(batched.len(), ts.len(), "{kind}: wrong batch length");
            for (i, (&a, &b)) in scalar.iter().zip(&batched).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{kind}: P(t[{i}]) differs at {threads} threads: one-point {a:e} vs batched {b:e}"
                );
            }
        }
    }
}

/// Degenerate sweeps must behave: empty input, a single point, and
/// repeated identical points.
#[test]
fn batched_handles_degenerate_sweeps() {
    let _width = width_guard();
    let analysis = c1_analysis();
    for kind in EngineKind::ALL {
        let mut engine = build_engine(&analysis, &spec_for(kind, 2)).expect("engine");
        assert!(
            engine.failure_probabilities(&[]).expect("empty").is_empty(),
            "{kind}: empty sweep"
        );
        let single = engine.failure_probabilities(&[1e9]).expect("single");
        let scalar = engine.failure_probability(1e9).expect("one-point");
        assert_eq!(single.len(), 1);
        assert!(
            single[0].to_bits() == scalar.to_bits(),
            "{kind}: single-point batch differs from the one-point call"
        );
        let repeated = engine.failure_probabilities(&[1e9; 5]).expect("repeated");
        assert!(
            repeated.iter().all(|p| p.to_bits() == scalar.to_bits()),
            "{kind}: repeated points differ"
        );
    }
}

/// The `st_MC` joint-PDF construction fills its sample chunks through
/// the SoA `uv_given_z_tile` kernel at every width; every lane
/// accumulates in the same component order, so the engine must be
/// **bit-identical** across lane widths {1, 4, 8} — including the masked
/// partial tile an awkward sample count leaves in the final chunk.
#[test]
fn st_mc_chunk_fill_bit_identical_across_lane_widths() {
    let analysis = c1_analysis();
    let ts: Vec<f64> = (0..9).map(|i| 10f64.powf(7.0 + i as f64 * 0.5)).collect();
    // 1037 = 4 full 256-sample chunks + 13: the last chunk exercises one
    // full width-8 tile plus a masked partial tile of 5 live samples (and
    // of 1 at width 4), on top of the 2-thread chunk partitioning.
    let config = StMcConfig {
        n_samples: 1037,
        threads: Some(2),
        ..StMcConfig::default()
    };
    let guard = ForcedWidth::new(LaneWidth::W1);
    let curve_at = |w: LaneWidth| -> Vec<f64> {
        guard.set(w);
        let mut engine = StMc::new(&analysis, config).expect("st_MC build");
        engine.failure_probabilities(&ts).expect("batched P(t)")
    };
    let p1 = curve_at(LaneWidth::W1);
    let p4 = curve_at(LaneWidth::W4);
    let p8 = curve_at(LaneWidth::W8);
    assert!(p1.iter().any(|&p| p > 1e-9), "degenerate st_MC curve");
    for (i, ((&a, &b), &c)) in p1.iter().zip(&p4).zip(&p8).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "w4 differs at t[{i}]: {a:e} vs {b:e}"
        );
        assert_eq!(
            a.to_bits(),
            c.to_bits(),
            "w8 differs at t[{i}]: {a:e} vs {c:e}"
        );
    }
}

/// Every engine refuses an age that is not finite and `> 0` with a
/// structured error — one check at the top of its one evaluation path,
/// for a one-point call and a sweep alike — and answers a probability in
/// `[0, 1]` at the extreme finite ages.
#[test]
fn engines_reject_times_that_are_not_finite_and_positive() {
    let _width = width_guard();
    let analysis = c1_analysis();
    let bad: [&[f64]; 6] = [
        &[0.0],
        &[-1.0],
        &[f64::NAN],
        &[f64::INFINITY],
        &[f64::NEG_INFINITY],
        &[1e6, 0.0],
    ];
    for kind in EngineKind::ALL {
        let mut engine = build_engine(&analysis, &spec_for(kind, 1)).expect("engine");
        for ts in bad {
            assert!(
                matches!(
                    engine.failure_probabilities(ts),
                    Err(CoreError::InvalidParameter { .. })
                ),
                "{kind}: accepted {ts:?}"
            );
        }
        for t in [1e-300, 1e300] {
            let p = engine.failure_probability(t).expect("extreme finite age");
            assert!((0.0..=1.0).contains(&p), "{kind}: P({t:e}) = {p}");
        }
    }
}
