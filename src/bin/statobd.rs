//! `statobd` — command-line front end for the statistical OBD reliability
//! analysis.
//!
//! ```text
//! statobd template <out.json>          write an example chip spec
//! statobd analyze  <design> [opts]     analyze a design: a bundled
//!                                      benchmark (C1..C6, MC16), else a
//!                                      chip-spec path
//! statobd bench    <design> [opts]     the same as analyze
//! statobd serve    [opts]              answer line-delimited JSON queries
//!                                      over hot sessions (see below)
//! statobd thermal  <floorplan.json> <power.json> [opts]
//!                                      solve the steady-state thermal map
//! statobd manage   <design> <schedule.json> [opts]
//!                                      run the dynamic reliability manager
//!                                      over a phase schedule
//! statobd manage template <out.json>   write an example schedule
//! statobd fleet    <design> [opts]     stream a sampled chip population
//!                                      through a mission profile
//!
//! Flags come in any order. A bad or missing value, a repeated flag, a
//! switch given a value and an unknown flag are all reported before any
//! work starts (exit 1).
//!
//! options for fleet:
//!   --chips <n>      fleet size                      (default 100000)
//!   --profile <name> mission profile: htol, ltol, datacenter,
//!                    automotive, burn_in_field       (default datacenter)
//!   --seed <n>       root RNG seed                   (default 42)
//!   --budget <f>     failure-probability budget      (default 1e-6)
//!   --wafer-depth <f> wafer bowl depth in nm, 0 = none (default 0.02)
//!   --spares <n>     tolerate n block failures: one k-out-of-n group over
//!                    every block (default 0: weakest link)
//!   --rho <f>        relative correlation distance   (default 0.5)
//!   --grid <n>       correlation grid side           (default 25)
//!   --threads <n>    worker threads
//!   --shards <n>     reducer shards (default: thread count; aggregates
//!                    are bit-identical for any value)
//!   --json           print the full report as JSON
//!
//! options for serve:
//!   --socket <path>  listen on a unix socket instead of stdin/stdout
//!   --cache-dir <p>  artifact cache root (default $STATOBD_CACHE, then
//!                    ~/.cache/statobd)
//!   --no-cache       always build cold, never persist artifacts
//!   --quick          smoke mode: alias for --no-cache (used by CI)
//!   --max-sessions <n>  hot-session LRU capacity (default 4)
//!
//! options for manage:
//!   --rho <f>        relative correlation distance   (default 0.5)
//!   --grid <n>       correlation grid side           (default 25)
//!   --l0 <n>         table-quadrature sub-domains    (default 10)
//!   --threads <n>    worker threads for the table build
//!   --checkpoint <path>  restore the damage state from this file if it
//!                    exists, and save the updated state back on exit
//!
//! options for thermal (the linear solver is multigrid-preconditioned CG):
//!   --grid <n>       thermal grid side                (default 64)
//!   --timings        print the assembly / preconditioner / solve
//!                    wall-time breakdown, per-iteration CG counts and the
//!                    final residual
//!
//! options for analyze/bench:
//!   --rho <f>        relative correlation distance   (default 0.5)
//!   --grid <n>       correlation grid side           (default 25)
//!   --l0 <n>         integration sub-domains         (default 10)
//!   --target <f>     failure-probability target      (default 1e-6)
//!   --engine <name>  primary engine: st_fast, st_MC, st_closed, hybrid,
//!                    guard, MC (case-insensitive; default st_fast)
//!   --threads <n>    worker threads for parallel engines (default: the
//!                    STATOBD_THREADS environment variable, then all cores)
//!   --mc <n>         also run Monte-Carlo with n chips
//!   --cache          open through the artifact cache: load the compiled
//!                    model if present, save it after a cold build
//!   --timings        print the session build breakdown (cold build vs
//!                    cache load, wall time, retained components)
//!   --curve <n>      print an n-point (n >= 2) P(t) failure-rate curve
//!                    around the solved lifetime (one batched engine sweep)
//! ```

use statobd::circuits::Benchmark;
use statobd::core::{
    build_engine, params, solve_lifetime, ChipSpec, EngineKind, EngineSpec, GuardBand,
    GuardBandConfig, HybridConfig, MonteCarloConfig, StFast, StFastConfig,
};
use statobd::manager::{
    DamageState, DvfsLevel, ManageSpec, ManagerConfig, MissionProfile, PhaseSpec, PolicyConfig,
};
use statobd::num::flags::{at_least, path, positive, probability, Flags};
use statobd::num::json::{self, FromJson};
use statobd::thermal::{kelvin_to_celsius, Floorplan, PowerModel, ThermalConfig, ThermalSolver};
use statobd::variation::{CorrelationKernel, SystematicPattern};
use statobd::{run_fleet, AnalysisSpec, ArtifactCache, FleetConfig, ServeConfig, Session};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  statobd template <out.json>\n  statobd analyze <C1..C6|MC16|spec.json> [--rho f] [--grid n] [--l0 n] [--target f] [--engine st_fast|st_MC|st_closed|hybrid|guard|MC] [--threads n] [--mc n] [--curve n] [--cache] [--timings]\n  statobd bench <C1..C6|MC16|spec.json> [same options as analyze]\n  statobd serve [--socket path] [--cache-dir path] [--no-cache|--quick] [--max-sessions n]\n  statobd thermal <floorplan.json> <power.json> [--grid n] [--timings]\n  statobd manage <C1..C6|MC16|spec.json> <schedule.json> [--rho f] [--grid n] [--l0 n] [--threads n] [--checkpoint path]\n  statobd manage template <out.json>\n  statobd fleet <C1..C6|MC16|spec.json> [--chips n] [--profile name] [--seed n] [--budget f] [--wafer-depth f] [--spares n] [--rho f] [--grid n] [--threads n] [--shards n] [--json]"
    );
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn read_json<T: FromJson>(path: &str) -> Result<T, String> {
    json::from_str(&read(path)?).map_err(|e| format!("parsing {path}: {e}"))
}

/// Reads `--rho`, `--grid` and `--threads`, ends the parse, and only then
/// resolves the design argument — a bundled benchmark name, else a
/// chip-spec path — so every bad flag is reported before the design file
/// is read. An argument that is neither gets the benchmark menu.
fn analysis_spec(design: &str, mut flags: Flags) -> Result<AnalysisSpec, String> {
    let rho = flags.opt("--rho", positive);
    let grid = flags.opt("--grid", at_least(1));
    let threads = flags.opt("--threads", at_least(1));
    flags.finish()?;
    let mut spec = match Benchmark::parse(design) {
        Ok(bench) => AnalysisSpec::benchmark(bench),
        Err(unknown) if !std::path::Path::new(design).exists() => {
            return Err(format!("{unknown}, and no chip-spec file of that name"))
        }
        Err(_) => AnalysisSpec::chip(read_json::<ChipSpec>(design)?),
    };
    if let Some(rel_distance) = rho {
        spec.model.kernel = CorrelationKernel::Exponential { rel_distance };
    }
    spec.grid_side = grid.unwrap_or(spec.grid_side);
    Ok(spec.with_threads(threads))
}

/// The st_fast configuration `--l0` selects (threads unset).
fn st_fast_config(flags: &mut Flags) -> StFastConfig {
    let defaults = StFastConfig::default();
    StFastConfig {
        l0: flags.value("--l0", at_least(1), defaults.l0),
        ..defaults
    }
}

/// The thermal solve `--grid` selects.
fn thermal_config(flags: &mut Flags) -> ThermalConfig {
    let defaults = ThermalConfig::default();
    let side = flags.opt("--grid", at_least(1));
    ThermalConfig {
        nx: side.unwrap_or(defaults.nx),
        ny: side.unwrap_or(defaults.ny),
        ..defaults
    }
}

fn thermal(fp_path: &str, pm_path: &str, mut flags: Flags) -> Result<(), String> {
    let config = thermal_config(&mut flags);
    let timings = flags.switch("--timings");
    flags.finish()?;
    let fp: Floorplan = read_json(fp_path)?;
    let pm: PowerModel = read_json(pm_path)?;
    let solver = ThermalSolver::new(config);
    let map = solver.solve(&fp, &pm).map_err(|e| e.to_string())?;
    if timings {
        let b = map.breakdown();
        println!(
            "thermal solve: {}x{} grid, solver mgcg",
            config.nx, config.ny
        );
        println!(
            "  assembly {:.4} s  preconditioner {:.4} s  solve {:.4} s",
            b.assembly_s, b.precond_s, b.solve_s
        );
        let per_iter: Vec<String> = b.cg_iterations.iter().map(|i| i.to_string()).collect();
        println!(
            "  leakage iterations {}: CG per iteration [{}], total {}",
            map.leakage_iterations(),
            per_iter.join(", "),
            map.total_cg_iterations()
        );
        println!("  final relative residual {:.3e}\n", map.final_residual());
    }
    println!("{}", map.ascii_render(48));
    println!(
        "die: min {:.1} C, mean {:.1} C, max {:.1} C",
        kelvin_to_celsius(map.min_k()),
        kelvin_to_celsius(map.mean_k()),
        kelvin_to_celsius(map.max_k())
    );
    println!(
        "\n{:<14} {:>9} {:>9} {:>9}",
        "block", "min C", "mean C", "max C"
    );
    for b in fp.blocks() {
        let s = map.block_stats(b.rect());
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>9.1}",
            b.name(),
            kelvin_to_celsius(s.min_k),
            kelvin_to_celsius(s.mean_k),
            kelvin_to_celsius(s.max_k)
        );
    }
    Ok(())
}

fn template(path: &str, flags: Flags) -> Result<(), String> {
    flags.finish()?;
    let mut spec = ChipSpec::new();
    spec.add_block(
        statobd::core::BlockSpec::new(
            "core",
            60_000.0,
            60_000,
            368.15,
            1.2,
            vec![(0, 0.5), (1, 0.5)],
        )
        .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    spec.add_block(
        statobd::core::BlockSpec::new("cache", 140_000.0, 140_000, 341.15, 1.2, vec![(12, 1.0)])
            .map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let json = json::to_string_pretty(&spec);
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    println!("wrote example spec to {path}");
    println!(
        "grid indices refer to a {0}x{0} correlation grid (row-major)",
        25
    );
    Ok(())
}

/// Writes an example `statobd manage` schedule: a 1-ppm five-year budget,
/// a three-level DVFS ladder and a bursty typical/turbo/idle pattern.
fn manage_template(path: &str, flags: Flags) -> Result<(), String> {
    flags.finish()?;
    const MONTH_S: f64 = 2.63e6;
    let spec = ManageSpec {
        policy: PolicyConfig {
            budget: params::ONE_PER_MILLION,
            service_life_s: 60.0 * MONTH_S,
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
        },
        phases: vec![
            PhaseSpec {
                name: "typical".to_string(),
                duration_s: 3.0 * MONTH_S,
                dt_k: 0.0,
                vdd_v: 1.20,
            },
            PhaseSpec {
                name: "turbo".to_string(),
                duration_s: 2.0 * MONTH_S,
                dt_k: 10.0,
                vdd_v: 1.26,
            },
            PhaseSpec {
                name: "idle".to_string(),
                duration_s: 7.0 * MONTH_S,
                dt_k: -12.0,
                vdd_v: 1.10,
            },
        ],
        steps_per_phase: 3,
        repeat: 5,
    };
    std::fs::write(path, spec.to_json()).map_err(|e| e.to_string())?;
    println!("wrote example schedule to {path}");
    println!("phase temperatures are offsets (dt_k) from each block's spec temperature");
    Ok(())
}

/// Runs the dynamic reliability manager over a phase schedule.
fn manage(design: &str, schedule_path: &str, mut flags: Flags) -> Result<(), String> {
    let defaults = HybridConfig::default();
    let l0 = flags.value("--l0", at_least(1), defaults.quadrature_l0);
    let checkpoint = flags.opt("--checkpoint", path);
    // The manager needs only the compiled analysis; the (cheap) closed-form
    // engine keeps session construction light.
    let aspec = analysis_spec(design, flags)?.with_engine(EngineKind::StClosed);
    let tables = HybridConfig {
        quadrature_l0: l0,
        threads: aspec.threads,
        ..defaults
    };
    let schedule = ManageSpec::from_json(&read(schedule_path)?)
        .map_err(|e| format!("parsing {schedule_path}: {e}"))?;
    let mut session = Session::build(&aspec).map_err(|e| e.to_string())?;
    let n_blocks = session.analysis().n_blocks();

    let start = std::time::Instant::now();
    let manager_config = ManagerConfig {
        tables,
        ..ManagerConfig::default()
    };
    session
        .configure_manager(schedule.policy.clone(), manager_config)
        .map_err(|e| e.to_string())?;
    // Resolve the phase temperatures up front: the manager borrow below
    // is exclusive for the rest of the run.
    let phases: Vec<statobd::manager::OperatingPhase> = schedule
        .phases
        .iter()
        .map(|p| p.resolve(session.analysis().spec()))
        .collect();
    let mgr = session.manager_mut().map_err(|e| e.to_string())?;
    println!(
        "manager ready: {} blocks, tables γ ∈ [{:.1}, {:.1}], b ∈ [{:.3}, {:.3}]  [{:.2} s]",
        n_blocks,
        mgr.tables().config().gamma_range.0,
        mgr.tables().config().gamma_range.1,
        mgr.tables().config().b_range.0,
        mgr.tables().config().b_range.1,
        start.elapsed().as_secs_f64()
    );

    if let Some(path) = &checkpoint {
        match std::fs::read_to_string(path) {
            Ok(json) => {
                let state = DamageState::from_json(&json).map_err(|e| e.to_string())?;
                println!(
                    "restored checkpoint {path}: {:.3} years of damage, P = {:.3e}",
                    state.elapsed_s() / 3.156e7,
                    {
                        mgr.restore(state).map_err(|e| e.to_string())?;
                        mgr.failure_probability_now().map_err(|e| e.to_string())?
                    }
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("checkpoint {path} not found, starting from a pristine chip");
            }
            Err(e) => return Err(format!("reading {path}: {e}")),
        }
    }

    println!(
        "\n{:>5} {:>12} {:>8} {:>7} {:>13} {:>13}",
        "cycle", "phase", "level", "VDD", "P(now)", "P(projected)"
    );
    let budget = schedule.policy.budget;
    for cycle in 0..schedule.repeat {
        for phase in &phases {
            let reports = mgr
                .run_phase(phase, schedule.steps_per_phase)
                .map_err(|e| e.to_string())?;
            let last = reports.last().expect("at least one step");
            println!(
                "{:>5} {:>12} {:>8} {:>7.2} {:>13.3e} {:>13.3e}{}",
                cycle,
                phase.name,
                mgr.level_name(),
                last.vdd_v,
                last.p_now,
                last.p_projected,
                if last.capped { "  <- capped" } else { "" }
            );
        }
    }

    let p_final = mgr.failure_probability_now().map_err(|e| e.to_string())?;
    println!(
        "\nend of schedule: {:.2} years elapsed, P = {p_final:.3e} (budget {budget:.1e}), {} DVFS transitions",
        mgr.damage().elapsed_s() / 3.156e7,
        mgr.transitions()
    );
    if mgr.off_grid_queries() > 0 {
        println!(
            "warning: {} table queries ran off the grid — results clamp conservatively low; \
             rebuild with a longer service life or cooler schedule",
            mgr.off_grid_queries()
        );
    }
    println!(
        "verdict: budget {}",
        if p_final <= budget { "met" } else { "exceeded" }
    );

    if let Some(path) = &checkpoint {
        std::fs::write(path, mgr.damage().to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("damage state checkpointed to {path}");
    }
    Ok(())
}

/// `analyze`/`bench`: compiles the session for a design (through the
/// artifact cache with `--cache`) and prints the full report.
fn report(design: &str, mut flags: Flags) -> Result<(), String> {
    let engine = |name: &str| EngineKind::parse(name).map_err(|e| e.to_string());
    let engine = flags.opt("--engine", engine);
    // The per-block breakdown always runs st_fast, whatever the engine.
    let mut st_fast = st_fast_config(&mut flags);
    let target = flags.value("--target", probability, params::ONE_PER_MILLION);
    let mc_chips = flags.opt("--mc", at_least(1));
    let curve_points = flags.opt("--curve", at_least(2));
    let cache = flags.switch("--cache");
    let timings = flags.switch("--timings");
    let mut spec = analysis_spec(design, flags)?;
    st_fast.threads = spec.threads;
    spec.engine = match engine.unwrap_or(spec.engine.kind()) {
        EngineKind::StFast => EngineSpec::StFast(st_fast),
        kind => kind.default_spec().with_threads(spec.threads),
    };

    let mut session = if cache {
        let cache = ArtifactCache::open_default().map_err(|e| e.to_string())?;
        Session::open(&spec, &cache)
    } else {
        Session::build(&spec)
    }
    .map_err(|e| e.to_string())?;

    if let Some(note) = &session.stats().note {
        eprintln!("warning: {note}");
    }
    if timings {
        let stats = session.stats();
        println!(
            "session: {} build in {:.4} s, {} components retained, spec hash {}",
            stats.source.name(),
            stats.build_s,
            stats.n_components,
            stats.spec_hash
        );
        println!("lane dispatch: {}", statobd::num::simd::dispatch_label());
    }
    println!(
        "design: {} blocks, {} devices, worst block temperature {:.1} C",
        session.analysis().n_blocks(),
        session.analysis().spec().total_devices(),
        session.analysis().spec().max_temperature_k().unwrap_or(0.0) - 273.15
    );

    let years = |t: f64| t / 3.156e7;
    let kind = spec.engine.kind();

    let start = std::time::Instant::now();
    let t_fast = session.lifetime(target).map_err(|e| e.to_string())?;
    println!(
        "{} lifetime @ P={:.1e}: {:.3e} s ({:.2} years)  [{:.1} ms]",
        kind,
        target,
        t_fast,
        years(t_fast),
        start.elapsed().as_secs_f64() * 1e3
    );

    let fit = session.fit_rate(t_fast).map_err(|e| e.to_string())?;
    let slope = session.weibull_slope(t_fast).map_err(|e| e.to_string())?;
    println!(
        "at that lifetime: FIT rate {fit:.2} failures/1e9 device-hours, effective Weibull slope {slope:.2}"
    );

    let analysis = session.analysis();
    let guard = GuardBand::new(analysis, GuardBandConfig::default()).map_err(|e| e.to_string())?;
    let t_guard = guard.lifetime(target).map_err(|e| e.to_string())?;
    println!(
        "guard-band corner:            {:.3e} s ({:.2} years)  [{:.0}% pessimistic]",
        t_guard,
        years(t_guard),
        100.0 * (1.0 - t_guard / t_fast)
    );

    if let Some(chips) = mc_chips {
        let start = std::time::Instant::now();
        let mc_spec = EngineSpec::MonteCarlo(MonteCarloConfig {
            n_chips: chips,
            threads: spec.threads,
            ..Default::default()
        });
        let mut mc = build_engine(analysis, &mc_spec).map_err(|e| e.to_string())?;
        let t_mc = solve_lifetime(mc.as_mut(), target, statobd::LIFETIME_BRACKET_S)
            .map_err(|e| e.to_string())?;
        println!(
            "Monte-Carlo ({chips} chips):     {:.3e} s ({:.2} years)  [{:.1} s; {} error {:.2}%]",
            t_mc,
            years(t_mc),
            start.elapsed().as_secs_f64(),
            kind,
            100.0 * ((t_fast - t_mc) / t_mc).abs()
        );
    }

    println!("\nper-block contributions at the {kind} lifetime:");
    let breakdown = StFast::new(analysis, st_fast);
    let blocks: Vec<(String, f64, f64)> = analysis
        .blocks()
        .iter()
        .enumerate()
        .map(|(j, block)| {
            breakdown.block_failure_probability(j, t_fast).map(|p| {
                (
                    block.spec().name().to_string(),
                    block.spec().temperature_k(),
                    p,
                )
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    for (name, temp_k, p) in &blocks {
        println!("  {name:<12} {:>7.1} C  P_j = {p:.3e}", temp_k - 273.15);
    }

    if let Some(n) = curve_points {
        // Two decades either side of the solved lifetime covers the whole
        // interesting region of the S-curve; one batched sweep.
        let start = std::time::Instant::now();
        let curve = session
            .sweep(t_fast * 1e-2, t_fast * 1e2, n)
            .map_err(|e| e.to_string())?;
        println!(
            "\nP(t) curve, {n} points around the lifetime  [{:.1} ms]:",
            start.elapsed().as_secs_f64() * 1e3
        );
        println!("  {:>12}  {:>10}  {:>12}", "t (s)", "t (yr)", "P(t)");
        for (t, p) in &curve {
            println!("  {t:>12.4e}  {:>10.3}  {p:>12.4e}", years(*t));
        }
    }
    Ok(())
}

/// The fleet run the flags select (threads unset); every default comes
/// from [`FleetConfig::default`].
fn fleet_config(flags: &mut Flags) -> FleetConfig {
    let defaults = FleetConfig::default();
    // Resolved at parse time: an unknown profile fails with a
    // did-you-mean suggestion before the model compiles.
    let profile = |name: &str| MissionProfile::named(name).map_err(|e| e.to_string());
    FleetConfig {
        chips: flags.value("--chips", at_least(1), defaults.chips),
        profile: flags.value("--profile", profile, defaults.profile),
        seed: flags.value("--seed", at_least(0), defaults.seed),
        budget: flags.value("--budget", probability, defaults.budget),
        wafer: match flags.opt("--wafer-depth", at_least(0.0)) {
            Some(depth) if depth > 0.0 => SystematicPattern::Bowl {
                depth,
                center: (0.5, 0.5),
            },
            Some(_) => SystematicPattern::None,
            None => defaults.wafer,
        },
        shards: flags.opt("--shards", at_least(1)),
        spares: flags.value("--spares", at_least(0), defaults.spares),
        ..defaults
    }
}

/// Streams a sampled chip population through a mission profile.
fn fleet(design: &str, mut flags: Flags) -> Result<(), String> {
    let mut config = fleet_config(&mut flags);
    let as_json = flags.switch("--json");
    // The fleet never queries the engine; the closed-form selection keeps
    // the session build light.
    let aspec = analysis_spec(design, flags)?.with_engine(EngineKind::StClosed);
    config.threads = aspec.threads;
    let session = Session::build(&aspec).map_err(|e| e.to_string())?;
    let tech = session.spec().tech.tech();

    let report = run_fleet(session.analysis(), &tech, &config).map_err(|e| e.to_string())?;
    if as_json {
        println!("{}", json::to_string_pretty(&report));
        return Ok(());
    }

    let a = &report.aggregates;
    let years = |t: f64| t / 3.156e7;
    println!(
        "fleet: {} chips through '{}' ({})",
        a.chips,
        a.profile,
        config.profile.description()
    );
    if config.spares > 0 {
        println!(
            "  redundancy: one group over all blocks, {} spare(s) (chip fails only past {} block failures)",
            config.spares, config.spares
        );
    }
    println!(
        "  {} threads, {} shards, {:.2} s  [{:.0} chips/s, {} workspace(s)]",
        report.threads, report.shards, report.run_s, report.chips_per_s, report.workspaces_created
    );
    println!(
        "  {}: {} chips/tile, {} lane tile(s), {} masked lane(s) in the last, \
         at most {} lifetime probe(s) per tile",
        report.lanes,
        report.lane_width,
        report.lane_tiles,
        (report.lane_tiles * report.lane_width).saturating_sub(a.chips),
        report.max_solve_steps
    );
    println!(
        "budget P = {:.1e}: {} chips over budget at mission end ({:.3}%)",
        a.budget,
        a.exceed_budget,
        100.0 * a.exceed_budget as f64 / a.chips as f64
    );
    if a.censored_low + a.censored_high > 0 {
        println!(
            "  lifetime censoring: {} below {:.0e} s, {} beyond {:.0e} s",
            a.censored_low,
            statobd::FLEET_LIFE_BRACKET_S.0,
            a.censored_high,
            statobd::FLEET_LIFE_BRACKET_S.1
        );
    }
    println!("\nweakest block across the fleet:");
    for (name, count) in a.block_names.iter().zip(&a.weakest_counts) {
        println!(
            "  {name:<14} {count:>10}  ({:.2}%)",
            100.0 * *count as f64 / a.chips as f64
        );
    }
    println!(
        "\n{:>8}  {:>12}  {:>10}  {:>12}  {:>10}",
        "quantile", "life (s)", "life (yr)", "P(mission)", "FIT"
    );
    for (i, q) in a.quantile_levels.iter().enumerate() {
        println!(
            "{q:>8}  {:>12.4e}  {:>10.2}  {:>12.4e}  {:>10.3}",
            a.lifetime_quantiles_s[i],
            years(a.lifetime_quantiles_s[i]),
            a.p_mission_quantiles[i],
            a.fit_quantiles[i]
        );
    }
    Ok(())
}

/// Answers line-delimited JSON requests on stdin/stdout or a unix socket.
fn serve(mut flags: Flags) -> Result<(), String> {
    let socket = flags.opt("--socket", path);
    let cache_dir = flags.opt("--cache-dir", path);
    // Both switches are read, so giving both is not an error.
    let no_cache = flags.switch("--no-cache") | flags.switch("--quick");
    let config = ServeConfig {
        max_sessions: flags.value(
            "--max-sessions",
            at_least(1),
            ServeConfig::default().max_sessions,
        ),
        // Serving without any cache root (e.g. no $HOME) is fine: every
        // open is just a cold build.
        cache: match cache_dir {
            _ if no_cache => None,
            Some(dir) => Some(ArtifactCache::new(dir)),
            None => ArtifactCache::default_root().map(ArtifactCache::new),
        },
    };
    flags.finish()?;
    statobd::serve(config, socket.as_deref().map(std::path::Path::new)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match args.as_slice() {
        ["template", path, rest @ ..] => template(path, Flags::new(rest)),
        ["analyze" | "bench", design, rest @ ..] => report(design, Flags::new(rest)),
        ["serve", rest @ ..] => serve(Flags::new(rest)),
        ["thermal", fp, pm, rest @ ..] => thermal(fp, pm, Flags::new(rest)),
        ["manage", "template", path, rest @ ..] => manage_template(path, Flags::new(rest)),
        ["manage", design, schedule, rest @ ..] => manage(design, schedule, Flags::new(rest)),
        ["fleet", design, rest @ ..] => fleet(design, Flags::new(rest)),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(list: &[&str]) -> Flags {
        Flags::new(list)
    }

    #[test]
    fn parse_options_accepts_sane_flags() {
        let mut f = flags(&[
            "--rho",
            "0.4",
            "--grid",
            "12",
            "--l0",
            "8",
            "--threads",
            "2",
        ]);
        let st_fast = st_fast_config(&mut f);
        let spec = analysis_spec("C1", f).unwrap();
        assert_eq!(spec.grid_side, 12);
        assert_eq!(spec.threads, Some(2));
        assert_eq!(st_fast.l0, 8);
        assert_eq!(
            spec.model.kernel,
            CorrelationKernel::Exponential { rel_distance: 0.4 }
        );
        // The report's own flags parse too: with one bad value among them,
        // that value is the only problem reported (and nothing runs).
        let err = report(
            "C1",
            flags(&[
                "--l0",
                "8",
                "--mc",
                "50",
                "--curve",
                "5",
                "--engine",
                "HYBRID",
                "--cache",
                "--timings",
                "--target",
                "0",
            ]),
        )
        .unwrap_err();
        assert!(
            err.starts_with("--target") && err.lines().count() == 1,
            "{err}"
        );
    }

    #[test]
    fn parse_options_rejects_degenerate_values_at_parse_time() {
        // Each of these used to parse fine and fail (or mislead) much
        // later, deep inside the analysis.
        for (bad, needle) in [
            (vec!["--l0", "0"], "--l0"),
            (vec!["--grid", "0"], "--grid"),
            (vec!["--rho", "0"], "--rho"),
            (vec!["--rho", "-0.5"], "--rho"),
            (vec!["--rho", "nan"], "--rho"),
            (vec!["--mc", "0"], "--mc"),
            (vec!["--curve", "0"], "--curve"),
            (vec!["--curve", "1"], "--curve"),
            (vec!["--threads", "0"], "--threads"),
            (vec!["--target", "0"], "--target"),
            (vec!["--target", "1.5"], "--target"),
            (vec!["--grid", "0", "--grid", "6"], "--grid given twice"),
            (vec!["--cache", "yes"], "--cache takes no value"),
        ] {
            let err = report("C1", flags(&bad)).unwrap_err();
            assert!(
                err.contains(needle),
                "rejection for {bad:?} should mention {needle}: {err}"
            );
        }
    }

    #[test]
    fn parse_options_rejects_unknown_and_dangling_flags() {
        assert!(report("C1", flags(&["--frobnicate"])).is_err());
        assert!(report("C1", flags(&["--rho"])).is_err());
        let err = report("C9", flags(&[])).unwrap_err();
        assert!(err.contains("one of: C1"), "benchmark menu missing: {err}");
        // Every flag problem is reported before the design file is read.
        let not_a_spec = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let err = report(not_a_spec, flags(&["--grid", "0", "--bogus"])).unwrap_err();
        assert!(
            err.starts_with("--grid") && err.ends_with("unknown option --bogus"),
            "{err}"
        );
        let err = report(not_a_spec, flags(&[])).unwrap_err();
        assert!(err.starts_with("parsing"), "{err}");
    }

    #[test]
    fn parse_fleet_options_accepts_sane_flags() {
        let mut f = flags(&[
            "--chips",
            "5000",
            "--profile",
            "AUTOMOTIVE",
            "--seed",
            "7",
            "--budget",
            "1e-5",
            "--wafer-depth",
            "0",
            "--threads",
            "2",
            "--shards",
            "5",
            "--spares",
            "1",
        ]);
        let config = fleet_config(&mut f);
        let spec = analysis_spec("C1", f).unwrap();
        assert_eq!(config.chips, 5000);
        assert_eq!(config.profile.name(), "automotive");
        assert_eq!(config.seed, 7);
        assert_eq!(config.budget, 1e-5);
        assert_eq!(spec.threads, Some(2));
        assert_eq!(config.shards, Some(5));
        assert_eq!(config.spares, 1);
        assert_eq!(config.wafer, SystematicPattern::None);
        // Absent flags keep the library defaults.
        let config = fleet_config(&mut flags(&[]));
        let defaults = FleetConfig::default();
        assert_eq!(
            (config.chips, config.seed, config.wafer),
            (defaults.chips, defaults.seed, defaults.wafer)
        );
        let err = fleet("C1", flags(&["--json", "--chips", "0"])).unwrap_err();
        assert!(
            err.starts_with("--chips") && err.lines().count() == 1,
            "{err}"
        );
    }

    #[test]
    fn parse_fleet_options_rejects_degenerate_values_at_parse_time() {
        for (bad, needle) in [
            (vec!["--chips", "0"], "--chips"),
            (vec!["--shards", "0"], "--shards"),
            (vec!["--threads", "0"], "--threads"),
            (vec!["--budget", "0"], "--budget"),
            (vec!["--budget", "1"], "--budget"),
            (vec!["--wafer-depth", "-1"], "--wafer-depth"),
            (vec!["--rho", "0"], "--rho"),
            (vec!["--grid", "0"], "--grid"),
            (vec!["--profile"], "--profile"),
            (vec!["--frobnicate"], "--frobnicate"),
            (vec!["--json", "yes"], "--json takes no value"),
        ] {
            let err = fleet("C1", flags(&bad)).unwrap_err();
            assert!(
                err.contains(needle),
                "rejection for {bad:?} should mention {needle}: {err}"
            );
        }
    }

    #[test]
    fn parse_fleet_options_suggests_profile_names() {
        let err = fleet("C1", flags(&["--profile", "datacentre"])).unwrap_err();
        assert!(err.contains("did you mean 'datacenter'"), "{err}");
        assert!(err.contains("htol"), "menu missing from: {err}");
    }

    #[test]
    fn parse_thermal_options_rejects_zero_grid() {
        let parse = |args: &[&str]| {
            let mut f = flags(args);
            let config = thermal_config(&mut f);
            f.finish().map(|()| config)
        };
        assert!(parse(&["--grid", "0"]).is_err());
        let config = parse(&["--grid", "32"]).unwrap();
        assert_eq!((config.nx, config.ny), (32, 32));
        // MGCG is the only solver, so there is no `--solver` flag.
        let err = parse(&["--grid", "32", "--solver", "mgcg"]).unwrap_err();
        assert!(err.contains("--solver"), "{err}");
    }

    #[test]
    fn parse_manage_options_validates_like_analyze() {
        // With good flags, the missing schedule is the first failure.
        let err = manage(
            "C1",
            "/nonexistent/schedule.json",
            flags(&["--checkpoint", "state.json", "--grid", "10"]),
        )
        .unwrap_err();
        assert!(
            err.starts_with("reading /nonexistent/schedule.json"),
            "{err}"
        );
        for bad in [
            vec!["--l0", "0"],
            vec!["--grid", "0"],
            vec!["--rho", "0"],
            vec!["--threads", "0"],
            vec!["--unknown"],
            vec!["--checkpoint", ""],
        ] {
            let err = manage("C1", "/nonexistent/schedule.json", flags(&bad)).unwrap_err();
            assert!(
                err.contains(bad[0]),
                "{bad:?} should be rejected before the schedule is read: {err}"
            );
        }
    }

    #[test]
    fn serve_and_template_reject_bad_flags_before_running() {
        for bad in [
            vec!["--max-sessions", "0"],
            vec!["--no-cache", "--no-cache"],
            vec!["--socket"],
        ] {
            let err = serve(flags(&bad)).unwrap_err();
            assert!(err.contains(bad[0]), "{bad:?}: {err}");
        }
        assert!(template("/nonexistent/out.json", flags(&["--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
    }
}
