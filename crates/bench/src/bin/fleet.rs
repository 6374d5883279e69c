//! Fleet benchmark: millions of chips through the sharded constant-memory
//! streaming reducer, with the determinism claims enforced.
//!
//! Six gates, any failure exits non-zero:
//!
//! 1. **Cross-thread/shard determinism** — the deterministic aggregate
//!    block of [`statobd::FleetReport`] must render to bit-identical JSON
//!    across a thread × shard matrix (1/2/8 threads × 1/2/5 shards).
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
//!    sides are re-measured interleaved (min across up to
//!    [`MAX_ATTEMPTS`] attempts, as BENCH_sweeps does) so noise
//!    converges out but a real regression stays.
//! 6. **Spares determinism** — the same fleet with one spare block
//!    (`spares: 1`, the lane Poisson-binomial fold) must render
//!    bit-identical aggregates across the full thread × shard matrix at
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
//!   "workspaces_ok": true }, ... ],
//!   "speedup": [ { "profile": "datacenter", "composition":
//!   "weakest_link", "chips": 100000, "lane_width": 8,
//!   "scalar_chips_per_s": ..., "tiled_chips_per_s": ..., "speedup": ...,
//!   "max_rel_divergence": ..., "within_gate": true }, ... ] }
//! ```

use statobd::{run_fleet, AnalysisSpec, FleetAggregates, FleetConfig, FleetReport, Session};
use statobd_core::{BlockSpec, ChipAnalysis, ChipSpec};
use statobd_device::ClosedFormTech;
use statobd_manager::MissionProfile;
use statobd_num::impl_json_struct;
use statobd_num::json;
use statobd_num::simd::{self, LaneWidth};

/// Wall-clock budget for the full-mode headline run (10⁶ chips).
const HEADLINE_BUDGET_S: f64 = 120.0;

/// Thread × shard determinism matrix.
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];
const SHARD_MATRIX: [usize; 3] = [1, 2, 5];

/// Minimum tiled/scalar throughput ratio on the datacenter profile at
/// lane width 8 — the cross-chip tiling headline claim.
const W8_SPEEDUP_BAR: f64 = 2.5;

/// Relative gate on the exact aggregate extremes between the tiled and
/// the scalar run (the lane kernels' per-chip error budget).
const DIVERGENCE_GATE: f64 = 1e-12;

/// Interleaved re-measure cap for the speedup rows.
const MAX_ATTEMPTS: usize = 12;

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
    workspaces_ok
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

/// Tiled-vs-scalar aggregate divergence: `None` if any discrete count
/// differs or a sketch quantile landed in a different bin (rendered as
/// an infinite divergence by the caller); otherwise the max relative
/// difference over the exact per-chip extremes.
fn aggregates_divergence(tiled: &FleetAggregates, scalar: &FleetAggregates) -> Option<f64> {
    if tiled.exceed_budget != scalar.exceed_budget
        || tiled.censored_low != scalar.censored_low
        || tiled.censored_high != scalar.censored_high
        || tiled.weakest_counts != scalar.weakest_counts
    {
        return None;
    }
    let rel = |a: f64, b: f64| {
        if a == b {
            0.0
        } else {
            (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
        }
    };
    // Quantiles pass through the log-sketch's binning: a sub-gate per-chip
    // difference either leaves them bit-identical or moves one whole bin,
    // so "same bin" is the right equality there (1e-9 spans rounding in
    // the pow/log round-trip but never a bin).
    for (a, b) in tiled
        .lifetime_quantiles_s
        .iter()
        .zip(&scalar.lifetime_quantiles_s)
        .chain(
            tiled
                .p_mission_quantiles
                .iter()
                .zip(&scalar.p_mission_quantiles),
        )
    {
        if rel(*a, *b) > 1e-9 {
            return None;
        }
    }
    Some(
        [
            rel(tiled.lifetime_min_s, scalar.lifetime_min_s),
            rel(tiled.lifetime_max_s, scalar.lifetime_max_s),
            rel(tiled.p_mission_min, scalar.p_mission_min),
            rel(tiled.p_mission_max, scalar.p_mission_max),
        ]
        .into_iter()
        .fold(0.0, f64::max),
    )
}

struct Options {
    out: String,
    quick: bool,
    /// Headline fleet size.
    chips: u64,
    /// Thread override for the throughput/headline rows (0 = all cores).
    threads: usize,
}

fn parse_options() -> Options {
    let mut opts = Options {
        out: "BENCH_fleet.json".to_string(),
        quick: false,
        chips: 1_000_000,
        threads: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = value("--out"),
            "--chips" => {
                opts.chips = value("--chips").parse().unwrap_or_else(|_| {
                    eprintln!("bad chip count");
                    std::process::exit(2);
                });
                if opts.chips == 0 {
                    eprintln!("--chips: need at least one chip");
                    std::process::exit(2);
                }
            }
            "--threads" => {
                opts.threads = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("bad thread count");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    opts
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

fn config(
    chips: u64,
    profile: MissionProfile,
    threads: usize,
    shards: Option<usize>,
) -> FleetConfig {
    FleetConfig {
        chips,
        profile,
        threads: (threads > 0).then_some(threads),
        shards,
        ..FleetConfig::default()
    }
}

fn row(report: &FleetReport, scenario: &str, profile: &str, deterministic: bool) -> FleetRow {
    FleetRow {
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
    }
}

fn print_row(r: &FleetRow) {
    println!(
        "  {:<12} {:<13} w={} chips={:<8} t={} s={}  {:>7.3}s  {:>9.0} chips/s  {}{}",
        r.scenario,
        r.profile,
        r.lane_width,
        r.chips,
        r.threads,
        r.shards,
        r.run_s,
        r.chips_per_s,
        if r.deterministic { "ok" } else { "DIVERGED" },
        if r.workspaces_ok { "" } else { " ALLOCATING" }
    );
}

/// One interleaved width-1-vs-default speedup row for `cfg`: both sides
/// re-measured alternately, keeping each side's best run, until the
/// default width clears `bar`× or [`MAX_ATTEMPTS`] is spent — noise
/// converges out, a real regression stays.
fn measure_speedup(
    analysis: &ChipAnalysis,
    tech: &ClosedFormTech,
    cfg: &FleetConfig,
    bar: f64,
) -> SpeedupRow {
    let run_at = |w: Option<LaneWidth>| {
        simd::force_width(w);
        let report = run_fleet(analysis, tech, cfg).expect("fleet runs");
        simd::force_width(None);
        report
    };
    let mut scalar = run_at(Some(LaneWidth::W1));
    let mut tiled = run_at(None);
    let mut attempts = 0;
    while tiled.chips_per_s < bar * scalar.chips_per_s && attempts < MAX_ATTEMPTS {
        let s = run_at(Some(LaneWidth::W1));
        if s.chips_per_s > scalar.chips_per_s {
            scalar = s;
        }
        let t = run_at(None);
        if t.chips_per_s > tiled.chips_per_s {
            tiled = t;
        }
        attempts += 1;
    }
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
        max_rel_divergence: divergence.unwrap_or(f64::INFINITY),
        within_gate: divergence.is_some_and(|d| d <= DIVERGENCE_GATE),
    }
}

fn main() {
    let opts = parse_options();
    let session = bench_session();
    let analysis = session.analysis();
    let tech = ClosedFormTech::nominal_45nm();
    let mut rows = Vec::new();
    let mut all_ok = true;

    // Gate 1+2 — the determinism matrix: one fleet, every thread × shard
    // combination, aggregates compared bit-for-bit as compact JSON.
    let det_chips: u64 = if opts.quick { 2_000 } else { 20_000 };
    println!("determinism matrix ({det_chips} chips):");
    let mut reference: Option<String> = None;
    for &threads in &THREAD_MATRIX {
        for &shards in &SHARD_MATRIX {
            let report = run_fleet(
                analysis,
                &tech,
                &config(
                    det_chips,
                    MissionProfile::datacenter(),
                    threads,
                    Some(shards),
                ),
            )
            .expect("fleet runs");
            let rendered = json::to_string(&report.aggregates);
            let deterministic = match &reference {
                None => {
                    reference = Some(rendered);
                    true
                }
                Some(r) => r == &rendered,
            };
            let r = row(&report, "determinism", "datacenter", deterministic);
            all_ok &= r.deterministic && r.workspaces_ok;
            print_row(&r);
            rows.push(r);
        }
    }

    // Gate 6 — the redundancy-aware scenario: the same fleet with one
    // spare over the chip's blocks, composed by the lane Poisson-binomial
    // fold. At each width (forced width 1, then the default dispatch) the
    // aggregates must be bit-identical across the thread × shard matrix;
    // across the two widths they must agree within DIVERGENCE_GATE.
    let spares_chips: u64 = if opts.quick { 2_000 } else { 20_000 };
    let default_width = simd::active_width();
    println!("spares scenario ({spares_chips} chips, 1 spare):");
    let widths: &[LaneWidth] = if default_width == LaneWidth::W1 {
        &[LaneWidth::W1]
    } else {
        &[LaneWidth::W1, default_width]
    };
    let mut spares_reference: Vec<FleetReport> = Vec::new();
    for &width in widths {
        let mut width_reference: Option<String> = None;
        for &threads in &THREAD_MATRIX {
            for &shards in &SHARD_MATRIX {
                simd::force_width(Some(width));
                let report = run_fleet(
                    analysis,
                    &tech,
                    &FleetConfig {
                        spares: 1,
                        ..config(
                            spares_chips,
                            MissionProfile::datacenter(),
                            threads,
                            Some(shards),
                        )
                    },
                )
                .expect("spares fleet runs");
                simd::force_width(None);
                let rendered = json::to_string(&report.aggregates);
                let deterministic = match &width_reference {
                    None => {
                        width_reference = Some(rendered);
                        spares_reference.push(report.clone());
                        true
                    }
                    Some(r) => r == &rendered,
                };
                let r = row(&report, "spares", "datacenter", deterministic);
                all_ok &= r.deterministic && r.workspaces_ok;
                print_row(&r);
                rows.push(r);
            }
        }
    }
    if let [w1, tiled] = &spares_reference[..] {
        let divergence =
            aggregates_divergence(&tiled.aggregates, &w1.aggregates).unwrap_or(f64::INFINITY);
        if divergence > DIVERGENCE_GATE {
            eprintln!(
                "ERROR: spares aggregates at width {} diverged from width 1 \
                 (max rel {divergence:.3e}, gate {DIVERGENCE_GATE:.0e})",
                tiled.lane_width
            );
            all_ok = false;
        }
    }
    // The spare must matter: a fleet that tolerates one block failure
    // exceeds the budget no more often than the weakest-link fleet.
    if let (Some(spares), Some(_)) = (spares_reference.last(), &reference) {
        let wl_exceed = rows
            .iter()
            .find(|r| r.scenario == "determinism")
            .map_or(0, |r| r.exceed_budget);
        if spares_chips == det_chips && spares.aggregates.exceed_budget > wl_exceed {
            eprintln!(
                "ERROR: spares fleet exceeds the budget more often ({}) than weakest-link ({})",
                spares.aggregates.exceed_budget, wl_exceed
            );
            all_ok = false;
        }
    }

    // Per-profile throughput at a moderate fleet size.
    let prof_chips: u64 = if opts.quick { 5_000 } else { 100_000 };
    println!("profile throughput ({prof_chips} chips):");
    for profile in MissionProfile::all() {
        let name = profile.name();
        let report = run_fleet(
            analysis,
            &tech,
            &config(prof_chips, profile, opts.threads, None),
        )
        .expect("fleet runs");
        let r = row(&report, "throughput", name, true);
        all_ok &= r.workspaces_ok;
        print_row(&r);
        rows.push(r);
    }

    // Gates 4+5 — width 1 vs tiled per mission profile, plus the
    // one-spare fleet on the datacenter profile, single thread. Skipped
    // when the default dispatch is already width 1 (forced-width CI
    // runs): both sides would time the identical path and the ≥1× gate
    // would be a coin flip on noise.
    let mut speedup_rows = Vec::new();
    if default_width.lanes() > 1 {
        let sp_chips: u64 = if opts.quick { 5_000 } else { 100_000 };
        println!("scalar vs tiled, single thread ({sp_chips} chips):");
        let spares = FleetConfig {
            spares: 1,
            ..config(sp_chips, MissionProfile::datacenter(), 1, None)
        };
        let configs = MissionProfile::all()
            .into_iter()
            .map(|profile| config(sp_chips, profile, 1, None))
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
            if !row.within_gate {
                eprintln!(
                    "ERROR: {what}: tiled aggregates diverged from width 1 \
                     (max rel {:.3e}, gate {DIVERGENCE_GATE:.0e})",
                    row.max_rel_divergence
                );
                all_ok = false;
            }
            if !opts.quick && row.speedup < bar {
                eprintln!(
                    "ERROR: {what}: tiled {:.0} chips/s is below {bar}x the width-1 \
                     {:.0} chips/s ({:.2}x)",
                    row.tiled_chips_per_s, row.scalar_chips_per_s, row.speedup
                );
                all_ok = false;
            }
            speedup_rows.push(row);
        }
    } else {
        println!("scalar vs tiled: skipped (default dispatch is width 1)");
    }

    // Gate 3 — the headline: a production-scale fleet, all cores.
    let headline_chips = if opts.quick { 10_000 } else { opts.chips };
    println!("headline ({headline_chips} chips):");
    let report = run_fleet(
        analysis,
        &tech,
        &config(
            headline_chips,
            MissionProfile::datacenter(),
            opts.threads,
            None,
        ),
    )
    .expect("fleet runs");
    let r = row(&report, "headline", "datacenter", true);
    all_ok &= r.workspaces_ok;
    if !opts.quick && r.run_s > HEADLINE_BUDGET_S {
        eprintln!(
            "ERROR: headline run took {:.1}s, budget {HEADLINE_BUDGET_S}s",
            r.run_s
        );
        all_ok = false;
    }
    print_row(&r);
    rows.push(r);

    let report = Report {
        lanes: statobd_num::simd::dispatch_label(),
        rows,
        speedup: speedup_rows,
    };
    std::fs::write(&opts.out, json::to_string_pretty(&report)).expect("report written");
    println!("wrote {}", opts.out);
    if !all_ok {
        eprintln!(
            "ERROR: fleet aggregates diverged across threads/shards or lane widths, \
             allocated per chip, missed the tiled speedup bar, or blew the time budget"
        );
        std::process::exit(1);
    }
}
