//! Fleet benchmark: millions of chips through the sharded constant-memory
//! streaming reducer, with the determinism claims enforced.
//!
//! Six gates, any failure exits non-zero:
//!
//! 1. **Cross-thread determinism** — the deterministic aggregate block of
//!    [`statobd::FleetReport`] must render to bit-identical JSON across
//!    1, 2, 3 and 7 threads, one shard each: uneven shard boundaries over
//!    a fleet whose last tile is ragged.
//! 2. **Constant memory** — every run must report
//!    `workspaces_created <= shards`: the hot path allocates one reusable
//!    workspace per shard and nothing per chip.
//! 3. **Time budget** (full mode only) — the 10⁶-chip headline run must
//!    finish inside [`HEADLINE_BUDGET_S`].
//! 4. **Tiled-vs-scalar agreement** — at the default lane width the fleet
//!    aggregates must match the forced width-1 (libm) run: discrete
//!    counts exactly, the exact per-chip extremes within
//!    [`DIVERGENCE_GATE`] relative, sketch quantiles in the same bin —
//!    per mission profile, and for the one-spare fleet.
//! 5. **Tiled speedup** (full mode, lane width > 1) — single-thread tiled
//!    chips/s must beat the width-1 run on **every** mission profile,
//!    and by ≥ [`W8_SPEEDUP_BAR`]× on the datacenter profile at lane
//!    width 8, for the weakest-link and the one-spare fleet alike. Both
//!    sides are re-measured interleaved
//!    ([`remeasure`], as BENCH_sweeps does) so noise converges out but a
//!    real regression stays.
//! 6. **Spares determinism** — the same fleet with one spare block
//!    (`spares: 1`, the lane Poisson-binomial fold) must render
//!    bit-identical aggregates across the whole thread matrix at
//!    width 1 and at the default width, agree across the two widths
//!    within [`DIVERGENCE_GATE`], and never exceed the failure budget
//!    more often than the weakest-link fleet.
//!
//! ```text
//! cargo run --release -p statobd-bench --bin fleet -- \
//!     [--quick] [--out BENCH_fleet.json] [--chips 1000000] [--threads N]
//! ```
//!
//! Output schema (one JSON object):
//!
//! ```text
//! { "lanes": "...", "rows": [ { "design": "two_block", "scenario":
//!   "throughput", "profile": "datacenter", "lane_width": 8,
//!   "chips": 100000, "threads": 1, "shards": 1, "run_s": ...,
//!   "chips_per_s": ..., "exceed_budget": ..., "deterministic": true,
//!   "workspaces_ok": true, "max_solve_steps": 5 }, ... ],
//!   "speedup": [ { "profile": "datacenter", "composition":
//!   "weakest_link", "chips": 100000, "lane_width": 8,
//!   "scalar_chips_per_s": ..., "tiled_chips_per_s": ..., "speedup": ...,
//!   "max_rel_divergence": ..., "within_gate": true }, ... ] }
//! ```

use statobd::{run_fleet, AnalysisSpec, FleetAggregates, FleetConfig, FleetReport, Session};
use statobd_bench::harness::{rel_divergence, remeasure, Cli, Gates};
use statobd_core::{BlockSpec, ChipAnalysis, ChipSpec};
use statobd_device::ClosedFormTech;
use statobd_manager::MissionProfile;
use statobd_num::flags::at_least;
use statobd_num::impl_json_struct;
use statobd_num::json;
use statobd_num::simd::{self, LaneWidth};

/// Wall-clock budget for the full-mode headline run (10⁶ chips).
const HEADLINE_BUDGET_S: f64 = 120.0;

/// Determinism matrix: thread counts, one shard each. 3 and 7 split the
/// determinism fleets' 8 (`--quick`) or 79 tiles unevenly.
const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 7];

/// Minimum tiled/scalar throughput ratio on the datacenter profile at
/// lane width 8 — the cross-chip tiling headline claim.
const W8_SPEEDUP_BAR: f64 = 2.5;

/// Relative gate on the exact aggregate extremes between the tiled and
/// the scalar run (the lane kernels' per-chip error budget).
const DIVERGENCE_GATE: f64 = 1e-12;

/// One measurement row.
#[derive(Debug, Clone)]
struct FleetRow {
    design: String,
    scenario: String,
    profile: String,
    /// Chips per lane tile in this run.
    lane_width: u64,
    chips: u64,
    threads: u64,
    shards: u64,
    run_s: f64,
    chips_per_s: f64,
    /// Chips over the failure-probability budget at mission end (a
    /// deterministic aggregate — identical across rows of one scenario).
    exceed_budget: u64,
    /// Aggregates bit-identical to the scenario's reference run.
    deterministic: bool,
    /// `workspaces_created <= shards` held for this run.
    workspaces_ok: bool,
    /// The most lifetime-solve probes one lane tile took.
    max_solve_steps: u64,
}

impl_json_struct!(FleetRow {
    design,
    scenario,
    profile,
    lane_width,
    chips,
    threads,
    shards,
    run_s,
    chips_per_s,
    exceed_budget,
    deterministic,
    workspaces_ok,
    max_solve_steps
});

/// One scalar-vs-tiled speedup row (single thread, one mission profile,
/// one composition).
#[derive(Debug, Clone)]
struct SpeedupRow {
    profile: String,
    /// `"weakest_link"` or `"spares=<n>"`.
    composition: String,
    chips: u64,
    /// Lanes per chip tile on the tiled side (the scalar side is always
    /// the forced width-1 libm run).
    lane_width: u64,
    scalar_chips_per_s: f64,
    tiled_chips_per_s: f64,
    /// `tiled_chips_per_s / scalar_chips_per_s`.
    speedup: f64,
    /// Max relative difference across the exact aggregate extremes
    /// (infinite if any discrete count differs).
    max_rel_divergence: f64,
    /// Counts exact, extremes within [`DIVERGENCE_GATE`], quantiles in
    /// the same sketch bin.
    within_gate: bool,
}

impl_json_struct!(SpeedupRow {
    profile,
    composition,
    chips,
    lane_width,
    scalar_chips_per_s,
    tiled_chips_per_s,
    speedup,
    max_rel_divergence,
    within_gate
});

/// The whole report (`BENCH_fleet.json`).
#[derive(Debug, Clone)]
struct Report {
    /// SIMD lane dispatch active during the run.
    lanes: String,
    rows: Vec<FleetRow>,
    speedup: Vec<SpeedupRow>,
}

impl_json_struct!(Report {
    lanes,
    rows,
    speedup
});

/// Tiled-vs-scalar aggregate divergence: infinite if any discrete count
/// differs or a sketch quantile landed in a different bin; otherwise the
/// max relative difference over the exact per-chip extremes.
fn aggregates_divergence(tiled: &FleetAggregates, scalar: &FleetAggregates) -> f64 {
    let counts = |a: &FleetAggregates| {
        (
            a.exceed_budget,
            a.censored_low,
            a.censored_high,
            a.weakest_counts.clone(),
        )
    };
    let quantiles =
        |a: &FleetAggregates| [&a.lifetime_quantiles_s[..], &a.p_mission_quantiles].concat();
    let extremes = |a: &FleetAggregates| {
        [
            a.lifetime_min_s,
            a.lifetime_max_s,
            a.p_mission_min,
            a.p_mission_max,
        ]
    };
    // Quantiles pass through the log-sketch's binning: a sub-gate per-chip
    // difference either leaves them bit-identical or moves one whole bin,
    // so "same bin" is the right equality there (1e-9 spans rounding in
    // the pow/log round-trip but never a bin).
    if counts(tiled) != counts(scalar)
        || rel_divergence(&quantiles(tiled), &quantiles(scalar)) > 1e-9
    {
        return f64::INFINITY;
    }
    rel_divergence(&extremes(tiled), &extremes(scalar))
}

/// The benchmark design: a hot two-block chip over a 10×10 correlation
/// grid — small enough that the per-chip hot path, not the model build,
/// dominates, like a production fleet sweep over a compiled model.
fn bench_session() -> Session {
    let mut chip = ChipSpec::new();
    chip.add_block(
        BlockSpec::new(
            "core",
            60_000.0,
            60_000,
            368.15,
            1.2,
            vec![(0, 0.3), (1, 0.3), (11, 0.4)],
        )
        .expect("bench block is valid"),
    )
    .expect("bench chip accepts blocks");
    chip.add_block(
        BlockSpec::new("cache", 140_000.0, 140_000, 341.15, 1.2, vec![(55, 1.0)])
            .expect("bench block is valid"),
    )
    .expect("bench chip accepts blocks");
    Session::build(&AnalysisSpec::chip(chip).with_grid_side(10)).expect("bench model compiles")
}

fn config(chips: u64, profile: MissionProfile, threads: usize) -> FleetConfig {
    FleetConfig {
        chips,
        profile,
        threads: (threads > 0).then_some(threads),
        ..FleetConfig::default()
    }
}

/// Records one run as a row: printed, gated (aggregates bit-identical
/// to the scenario's reference run, no per-chip allocation) and appended
/// to `rows`.
fn push_row(
    rows: &mut Vec<FleetRow>,
    gates: &mut Gates,
    report: &FleetReport,
    scenario: &str,
    profile: &str,
    deterministic: bool,
) {
    let r = FleetRow {
        design: "two_block".to_string(),
        scenario: scenario.to_string(),
        profile: profile.to_string(),
        lane_width: report.lane_width,
        chips: report.aggregates.chips,
        threads: report.threads,
        shards: report.shards,
        run_s: report.run_s,
        chips_per_s: report.chips_per_s,
        exceed_budget: report.aggregates.exceed_budget,
        deterministic,
        workspaces_ok: report.workspaces_created <= report.shards,
        max_solve_steps: report.max_solve_steps,
    };
    println!(
        "  {:<12} {:<13} w={} chips={:<8} t={} s={}  {:>7.3}s  {:>9.0} chips/s  \
         {} probes/tile  {}{}",
        r.scenario,
        r.profile,
        r.lane_width,
        r.chips,
        r.threads,
        r.shards,
        r.run_s,
        r.chips_per_s,
        r.max_solve_steps,
        if r.deterministic { "ok" } else { "DIVERGED" },
        if r.workspaces_ok { "" } else { " ALLOCATING" }
    );
    gates.check(r.deterministic && r.workspaces_ok, || {
        format!(
            "{scenario} {profile} w={} t={} s={}: aggregates diverged across \
             threads or the hot path allocated per chip",
            r.lane_width, r.threads, r.shards
        )
    });
    rows.push(r);
}

/// Runs `base` across the thread matrix at lane width `width`
/// (`None`: the default dispatch), one row each, gating aggregates
/// bit-identical (compared as compact JSON) to the first run, which it
/// returns.
fn matrix(
    analysis: &ChipAnalysis,
    tech: &ClosedFormTech,
    rows: &mut Vec<FleetRow>,
    gates: &mut Gates,
    base: &FleetConfig,
    scenario: &str,
    width: Option<LaneWidth>,
) -> FleetReport {
    let mut reference: Option<FleetReport> = None;
    for threads in THREAD_MATRIX {
        simd::force_width(width);
        let cfg = FleetConfig {
            threads: Some(threads),
            ..base.clone()
        };
        let report = run_fleet(analysis, tech, &cfg).expect("fleet runs");
        simd::force_width(None);
        let deterministic = reference
            .as_ref()
            .is_none_or(|r| json::to_string(&r.aggregates) == json::to_string(&report.aggregates));
        push_row(rows, gates, &report, scenario, "datacenter", deterministic);
        reference.get_or_insert(report);
    }
    reference.expect("the matrix is not empty")
}

/// One width-1-vs-default speedup row for `cfg`, re-measured
/// interleaved until the default width clears `bar`×.
fn measure_speedup(
    analysis: &ChipAnalysis,
    tech: &ClosedFormTech,
    cfg: &FleetConfig,
    bar: f64,
) -> SpeedupRow {
    let (scalar, tiled) = remeasure(
        bar,
        |r: &FleetReport| r.run_s,
        |tiled| {
            simd::force_width((!tiled).then_some(LaneWidth::W1));
            let report = run_fleet(analysis, tech, cfg).expect("fleet runs");
            simd::force_width(None);
            report
        },
    );
    let divergence = aggregates_divergence(&tiled.aggregates, &scalar.aggregates);
    SpeedupRow {
        profile: cfg.profile.name().to_string(),
        composition: if cfg.spares > 0 {
            format!("spares={}", cfg.spares)
        } else {
            "weakest_link".to_string()
        },
        chips: cfg.chips,
        lane_width: tiled.lane_width,
        scalar_chips_per_s: scalar.chips_per_s,
        tiled_chips_per_s: tiled.chips_per_s,
        speedup: tiled.chips_per_s / scalar.chips_per_s.max(1e-12),
        max_rel_divergence: divergence,
        within_gate: divergence <= DIVERGENCE_GATE,
    }
}

fn main() {
    let mut cli = Cli::from_env();
    let threads = cli.threads(0);
    let headline_chips = cli.flag("--chips", at_least(1), 1_000_000, 10_000);
    let quick = cli.quick;
    let mut gates = cli.gates("BENCH_fleet.json");
    let session = bench_session();
    let analysis = session.analysis();
    let tech = ClosedFormTech::nominal_45nm();
    let mut rows = Vec::new();

    // Gate 1+2 — the determinism matrix: one fleet at every thread count
    // of the matrix, aggregates compared bit-for-bit.
    let det_chips: u64 = if quick { 2_000 } else { 20_000 };
    println!("determinism matrix ({det_chips} chips):");
    let datacenter = |chips| config(chips, MissionProfile::datacenter(), 0);
    let det_cfg = datacenter(det_chips);
    let weakest_link = matrix(
        analysis,
        &tech,
        &mut rows,
        &mut gates,
        &det_cfg,
        "determinism",
        None,
    );

    // Gate 6 — the redundancy-aware scenario: the same fleet with one
    // spare over the chip's blocks, composed by the lane Poisson-binomial
    // fold. At each width (forced width 1, then the default dispatch) the
    // aggregates must be bit-identical across the thread matrix;
    // across the two widths they must agree within DIVERGENCE_GATE.
    let spares_chips: u64 = if quick { 2_000 } else { 20_000 };
    let default_width = simd::active_width();
    println!("spares scenario ({spares_chips} chips, 1 spare):");
    let widths: &[LaneWidth] = if default_width == LaneWidth::W1 {
        &[LaneWidth::W1]
    } else {
        &[LaneWidth::W1, default_width]
    };
    let spares_cfg = FleetConfig {
        spares: 1,
        ..datacenter(spares_chips)
    };
    let spares: Vec<FleetReport> = widths
        .iter()
        .map(|&w| {
            let (rows, gates, cfg) = (&mut rows, &mut gates, &spares_cfg);
            matrix(analysis, &tech, rows, gates, cfg, "spares", Some(w))
        })
        .collect();
    if let [w1, tiled] = &spares[..] {
        let divergence = aggregates_divergence(&tiled.aggregates, &w1.aggregates);
        gates.check(divergence <= DIVERGENCE_GATE, || {
            format!(
                "spares aggregates at width {} diverged from width 1 \
                 (max rel {divergence:.3e}, gate {DIVERGENCE_GATE:.0e})",
                tiled.lane_width
            )
        });
    }
    // The spare must matter: a fleet that tolerates one block failure
    // exceeds the budget no more often than the weakest-link fleet.
    let exceed = spares
        .last()
        .expect("one width at least")
        .aggregates
        .exceed_budget;
    let wl_exceed = weakest_link.aggregates.exceed_budget;
    gates.check(spares_chips != det_chips || exceed <= wl_exceed, || {
        format!(
            "spares fleet exceeds the budget more often ({exceed}) than weakest-link ({wl_exceed})"
        )
    });

    // Per-profile throughput at a moderate fleet size.
    let prof_chips: u64 = if quick { 5_000 } else { 100_000 };
    println!("profile throughput ({prof_chips} chips):");
    for profile in MissionProfile::all() {
        let name = profile.name();
        let report =
            run_fleet(analysis, &tech, &config(prof_chips, profile, threads)).expect("fleet runs");
        push_row(&mut rows, &mut gates, &report, "throughput", name, true);
    }

    // Gates 4+5 — width 1 vs tiled per mission profile, plus the
    // one-spare fleet on the datacenter profile, single thread. Skipped
    // when the default dispatch is already width 1 (forced-width CI
    // runs): both sides would time the identical path and the ≥1× gate
    // would be a coin flip on noise.
    let mut speedup_rows = Vec::new();
    if default_width.lanes() > 1 {
        let sp_chips: u64 = if quick { 5_000 } else { 100_000 };
        println!("scalar vs tiled, single thread ({sp_chips} chips):");
        let spares = FleetConfig {
            spares: 1,
            ..config(sp_chips, MissionProfile::datacenter(), 1)
        };
        let configs = MissionProfile::all()
            .into_iter()
            .map(|profile| config(sp_chips, profile, 1))
            .chain([spares]);
        for cfg in configs {
            // The datacenter rows chase the width-8 headline bar.
            let bar = if cfg.profile.name() == "datacenter" && default_width.lanes() == 8 {
                W8_SPEEDUP_BAR
            } else {
                1.0
            };
            let row = measure_speedup(analysis, &tech, &cfg, bar);
            let what = format!("{} {}", row.profile, row.composition);
            println!(
                "  {what:<26} w={}  scalar {:>9.0} chips/s  tiled {:>9.0} chips/s  {:.2}x  {}",
                row.lane_width,
                row.scalar_chips_per_s,
                row.tiled_chips_per_s,
                row.speedup,
                if row.within_gate { "agree" } else { "DIVERGED" }
            );
            gates.check(row.within_gate, || {
                format!(
                    "{what}: tiled aggregates diverged from width 1 \
                     (max rel {:.3e}, gate {DIVERGENCE_GATE:.0e})",
                    row.max_rel_divergence
                )
            });
            gates.bar(row.speedup >= bar, || {
                format!(
                    "{what}: tiled {:.0} chips/s is below {bar}x the width-1 \
                     {:.0} chips/s ({:.2}x)",
                    row.tiled_chips_per_s, row.scalar_chips_per_s, row.speedup
                )
            });
            speedup_rows.push(row);
        }
    } else {
        println!("scalar vs tiled: skipped (default dispatch is width 1)");
    }

    // Gate 3 — the headline: a production-scale fleet, all cores.
    println!("headline ({headline_chips} chips):");
    let report = run_fleet(
        analysis,
        &tech,
        &config(headline_chips, MissionProfile::datacenter(), threads),
    )
    .expect("fleet runs");
    gates.bar(report.run_s <= HEADLINE_BUDGET_S, || {
        format!(
            "headline run took {:.1}s, budget {HEADLINE_BUDGET_S}s",
            report.run_s
        )
    });
    push_row(
        &mut rows,
        &mut gates,
        &report,
        "headline",
        "datacenter",
        true,
    );

    gates.finish(&Report {
        lanes: statobd_num::simd::dispatch_label(),
        rows,
        speedup: speedup_rows,
    });
}
