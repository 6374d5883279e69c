//! `statobd` — command-line front end for the statistical OBD reliability
//! analysis.
//!
//! ```text
//! statobd template <out.json>          write an example chip spec
//! statobd analyze  <spec.json> [opts]  analyze a chip spec
//! statobd bench    <C1..C6|MC16>       analyze a bundled benchmark design
//! statobd serve    [opts]              answer line-delimited JSON queries
//!                                      over hot sessions (see below)
//! statobd thermal  <floorplan.json> <power.json> [opts]
//!                                      solve the steady-state thermal map
//! statobd manage   <spec.json> <schedule.json> [opts]
//!                                      run the dynamic reliability manager
//!                                      over a phase schedule
//! statobd manage template <out.json>   write an example schedule
//! statobd fleet    <spec.json|C1..MC16> [opts]
//!                                      stream a sampled chip population
//!                                      through a mission profile
//!
//! options for fleet:
//!   --chips <n>      fleet size                      (default 100000)
//!   --profile <name> mission profile: htol, ltol, datacenter,
//!                    automotive, burn_in_field       (default datacenter)
//!   --seed <n>       root RNG seed                   (default 42)
//!   --budget <f>     failure-probability budget      (default 1e-6)
//!   --wafer-depth <f> wafer bowl depth in nm, 0 = none (default 0.02)
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
//! options for thermal:
//!   --solver <name>  linear solver: auto, ic0_pcg, mgcg (default auto:
//!                    IC(0)-PCG below 64x64 cells, MGCG from there up)
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
//!   --engine <name>  primary engine: st_fast, st_MC, st_closed, hybrid
//!                    (default st_fast)
//!   --threads <n>    worker threads for parallel engines (default: the
//!                    STATOBD_THREADS environment variable, then all cores)
//!   --mc <n>         also run Monte-Carlo with n chips
//!   --cache          open through the artifact cache: load the compiled
//!                    model if present, save it after a cold build
//!   --timings        print the session build breakdown (cold build vs
//!                    cache load, wall time, retained components)
//!   --curve <n>      print an n-point P(t) failure-rate curve around the
//!                    solved lifetime (one batched engine sweep)
//! ```

use statobd::circuits::Benchmark;
use statobd::core::{
    build_engine, params, solve_lifetime, ChipSpec, EngineKind, EngineSpec, GuardBand,
    GuardBandConfig, HybridConfig, MonteCarloConfig, StFast, StFastConfig,
};
use statobd::manager::{
    DamageState, DvfsLevel, ManageSpec, ManagerConfig, MissionProfile, PhaseSpec, PolicyConfig,
};
use statobd::thermal::{
    kelvin_to_celsius, Floorplan, PowerModel, ThermalConfig, ThermalSolver, ThermalSolverKind,
};
use statobd::variation::SystematicPattern;
use statobd::{run_fleet, FleetConfig};
use statobd::{AnalysisSpec, ArtifactCache, DesignSource, ServeConfig, Session};
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    rho: f64,
    grid: usize,
    l0: usize,
    target: f64,
    engine: EngineKind,
    threads: Option<usize>,
    mc_chips: Option<usize>,
    curve_points: Option<usize>,
    cache: bool,
    timings: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            rho: params::DEFAULT_CORRELATION_DISTANCE,
            grid: params::DEFAULT_GRID_SIDE,
            l0: params::DEFAULT_L0,
            target: params::ONE_PER_MILLION,
            engine: EngineKind::StFast,
            threads: None,
            mc_chips: None,
            curve_points: None,
            cache: false,
            timings: false,
        }
    }
}

impl Options {
    /// The primary engine's construction spec.
    fn engine_spec(&self) -> EngineSpec {
        let spec = match self.engine {
            EngineKind::StFast => EngineSpec::StFast(StFastConfig {
                l0: self.l0,
                ..Default::default()
            }),
            kind => kind.default_spec(),
        };
        spec.with_threads(self.threads)
    }

    /// The declarative analysis spec these options denote for `design`.
    fn to_spec(&self, design: DesignSource) -> AnalysisSpec {
        let mut spec = match design {
            DesignSource::Benchmark(b) => AnalysisSpec::benchmark(b),
            DesignSource::Chip(c) => AnalysisSpec::chip(c),
        };
        spec.grid_side = self.grid;
        spec.model.kernel = statobd::variation::CorrelationKernel::Exponential {
            rel_distance: self.rho,
        };
        spec.engine = self.engine_spec();
        spec.threads = self.threads;
        spec
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  statobd template <out.json>\n  statobd analyze <spec.json> [--rho f] [--grid n] [--l0 n] [--target f] [--engine name] [--threads n] [--mc n] [--curve n] [--cache] [--timings]\n  statobd bench <C1|C2|C3|C4|C5|C6|MC16> [same options]\n  statobd serve [--socket path] [--cache-dir path] [--no-cache|--quick] [--max-sessions n]\n  statobd thermal <floorplan.json> <power.json> [--solver auto|ic0_pcg|mgcg] [--grid n] [--timings]\n  statobd manage <spec.json> <schedule.json> [--rho f] [--grid n] [--l0 n] [--threads n] [--checkpoint path]\n  statobd manage template <out.json>\n  statobd fleet <spec.json|C1..MC16> [--chips n] [--profile name] [--seed n] [--budget f] [--wafer-depth f] [--rho f] [--grid n] [--threads n] [--shards n] [--spares n] [--json]"
    );
    ExitCode::FAILURE
}

#[derive(Debug)]
struct ThermalOptions {
    solver: ThermalSolverKind,
    grid: Option<usize>,
    timings: bool,
}

fn parse_thermal_options(args: &[String]) -> Result<ThermalOptions, String> {
    let mut opts = ThermalOptions {
        solver: ThermalSolverKind::Auto,
        grid: None,
        timings: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--solver" => {
                let name = value("--solver")?;
                opts.solver = ThermalSolverKind::parse(&name).ok_or_else(|| {
                    format!(
                        "--solver: unknown solver '{name}' (expected {})",
                        ThermalSolverKind::expected()
                    )
                })?;
            }
            "--grid" => {
                opts.grid = Some(
                    value("--grid")?
                        .parse()
                        .map_err(|e| format!("--grid: {e}"))?,
                )
            }
            "--timings" => opts.timings = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.grid == Some(0) {
        return Err("--grid: the thermal grid needs at least one cell per side".to_string());
    }
    Ok(opts)
}

fn thermal(fp_path: &str, pm_path: &str, opts: &ThermalOptions) -> Result<(), String> {
    let fp: Floorplan = statobd::num::json::from_str(
        &std::fs::read_to_string(fp_path).map_err(|e| format!("reading {fp_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {fp_path}: {e}"))?;
    let pm: PowerModel = statobd::num::json::from_str(
        &std::fs::read_to_string(pm_path).map_err(|e| format!("reading {pm_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {pm_path}: {e}"))?;
    let mut config = ThermalConfig {
        solver: opts.solver,
        ..ThermalConfig::default()
    };
    if let Some(side) = opts.grid {
        config.nx = side;
        config.ny = side;
    }
    let solver = ThermalSolver::new(config);
    let map = solver.solve(&fp, &pm).map_err(|e| e.to_string())?;
    if opts.timings {
        let b = map.breakdown();
        println!(
            "thermal solve: {}x{} grid, solver {}",
            config.nx, config.ny, b.solver
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

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--rho" => opts.rho = value("--rho")?.parse().map_err(|e| format!("--rho: {e}"))?,
            "--grid" => {
                opts.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?
            }
            "--l0" => opts.l0 = value("--l0")?.parse().map_err(|e| format!("--l0: {e}"))?,
            "--target" => {
                opts.target = value("--target")?
                    .parse()
                    .map_err(|e| format!("--target: {e}"))?
            }
            "--mc" => {
                opts.mc_chips = Some(value("--mc")?.parse().map_err(|e| format!("--mc: {e}"))?)
            }
            "--curve" => {
                opts.curve_points = Some(
                    value("--curve")?
                        .parse()
                        .map_err(|e| format!("--curve: {e}"))?,
                )
            }
            "--engine" => {
                let name = value("--engine")?;
                opts.engine = EngineKind::parse(&name).map_err(|e| format!("--engine: {e}"))?;
            }
            "--threads" => {
                opts.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--cache" => opts.cache = true,
            "--timings" => opts.timings = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    validate_options(&opts)?;
    Ok(opts)
}

/// Rejects parameter values that would only fail (or silently produce
/// nonsense) deep inside the analysis: zero grid sides, zero quadrature
/// sub-domains, non-positive correlation distances, empty Monte-Carlo
/// populations and empty curves.
fn validate_options(opts: &Options) -> Result<(), String> {
    if !(opts.rho > 0.0) || !opts.rho.is_finite() {
        return Err(format!(
            "--rho: correlation distance must be positive and finite, got {}",
            opts.rho
        ));
    }
    if opts.grid == 0 {
        return Err("--grid: the correlation grid needs at least one cell per side".to_string());
    }
    if opts.l0 == 0 {
        return Err("--l0: the quadrature needs at least one sub-domain".to_string());
    }
    if !(opts.target > 0.0) || opts.target >= 1.0 {
        return Err(format!(
            "--target: failure-probability target must be in (0, 1), got {}",
            opts.target
        ));
    }
    if opts.mc_chips == Some(0) {
        return Err("--mc: the Monte-Carlo population needs at least one chip".to_string());
    }
    if opts.curve_points == Some(0) {
        return Err("--curve: the P(t) curve needs at least one point".to_string());
    }
    if opts.threads == Some(0) {
        return Err("--threads: need at least one worker thread".to_string());
    }
    Ok(())
}

fn template(path: &str) -> Result<(), String> {
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
    let json = statobd::num::json::to_string_pretty(&spec);
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    println!("wrote example spec to {path}");
    println!(
        "grid indices refer to a {0}x{0} correlation grid (row-major)",
        25
    );
    Ok(())
}

#[derive(Debug)]
struct ManageOptions {
    rho: f64,
    grid: usize,
    l0: usize,
    threads: Option<usize>,
    checkpoint: Option<String>,
}

fn parse_manage_options(args: &[String]) -> Result<ManageOptions, String> {
    let mut opts = ManageOptions {
        rho: params::DEFAULT_CORRELATION_DISTANCE,
        grid: params::DEFAULT_GRID_SIDE,
        l0: params::DEFAULT_L0,
        threads: None,
        checkpoint: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--rho" => opts.rho = value("--rho")?.parse().map_err(|e| format!("--rho: {e}"))?,
            "--grid" => {
                opts.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?
            }
            "--l0" => opts.l0 = value("--l0")?.parse().map_err(|e| format!("--l0: {e}"))?,
            "--threads" => {
                opts.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !(opts.rho > 0.0) || !opts.rho.is_finite() {
        return Err(format!(
            "--rho: correlation distance must be positive and finite, got {}",
            opts.rho
        ));
    }
    if opts.grid == 0 {
        return Err("--grid: the correlation grid needs at least one cell per side".to_string());
    }
    if opts.l0 == 0 {
        return Err("--l0: the quadrature needs at least one sub-domain".to_string());
    }
    if opts.threads == Some(0) {
        return Err("--threads: need at least one worker thread".to_string());
    }
    Ok(opts)
}

/// Writes an example `statobd manage` schedule: a 1-ppm five-year budget,
/// a three-level DVFS ladder and a bursty typical/turbo/idle pattern.
fn manage_template(path: &str) -> Result<(), String> {
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
fn manage(spec_path: &str, schedule_path: &str, opts: &ManageOptions) -> Result<(), String> {
    let chip: ChipSpec = statobd::num::json::from_str(
        &std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {spec_path}: {e}"))?;
    let schedule = ManageSpec::from_json(
        &std::fs::read_to_string(schedule_path)
            .map_err(|e| format!("reading {schedule_path}: {e}"))?,
    )
    .map_err(|e| format!("parsing {schedule_path}: {e}"))?;

    // The manager needs only the compiled analysis; the (cheap) closed-form
    // engine keeps session construction light.
    let mut aspec = AnalysisSpec::chip(chip);
    aspec.grid_side = opts.grid;
    aspec.model.kernel = statobd::variation::CorrelationKernel::Exponential {
        rel_distance: opts.rho,
    };
    aspec.engine = EngineKind::StClosed.default_spec();
    aspec.threads = opts.threads;
    let mut session = Session::build(&aspec).map_err(|e| e.to_string())?;
    let n_blocks = session.analysis().n_blocks();

    let start = std::time::Instant::now();
    let manager_config = ManagerConfig {
        tables: HybridConfig {
            quadrature_l0: opts.l0,
            threads: opts.threads,
            ..HybridConfig::default()
        },
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

    if let Some(path) = &opts.checkpoint {
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

    if let Some(path) = &opts.checkpoint {
        std::fs::write(path, mgr.damage().to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("damage state checkpointed to {path}");
    }
    Ok(())
}

/// Compiles the session for `design` (through the artifact cache when
/// `--cache` is set) and prints the full report.
fn report(design: DesignSource, opts: &Options) -> Result<(), String> {
    let spec = opts.to_spec(design);
    let mut session = if opts.cache {
        let cache = ArtifactCache::open_default().map_err(|e| e.to_string())?;
        Session::open(&spec, &cache)
    } else {
        Session::build(&spec)
    }
    .map_err(|e| e.to_string())?;

    if let Some(note) = &session.stats().note {
        eprintln!("warning: {note}");
    }
    if opts.timings {
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
    let kind = opts.engine;

    let start = std::time::Instant::now();
    let t_fast = session.lifetime(opts.target).map_err(|e| e.to_string())?;
    println!(
        "{} lifetime @ P={:.1e}: {:.3e} s ({:.2} years)  [{:.1} ms]",
        kind,
        opts.target,
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
    let t_guard = guard.lifetime(opts.target).map_err(|e| e.to_string())?;
    println!(
        "guard-band corner:            {:.3e} s ({:.2} years)  [{:.0}% pessimistic]",
        t_guard,
        years(t_guard),
        100.0 * (1.0 - t_guard / t_fast)
    );

    if let Some(chips) = opts.mc_chips {
        let start = std::time::Instant::now();
        let mc_spec = EngineSpec::MonteCarlo(MonteCarloConfig {
            n_chips: chips,
            threads: opts.threads,
            ..Default::default()
        });
        let mut mc = build_engine(analysis, &mc_spec).map_err(|e| e.to_string())?;
        let t_mc = solve_lifetime(mc.as_mut(), opts.target, statobd::LIFETIME_BRACKET_S)
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
    let breakdown = StFast::new(
        analysis,
        StFastConfig {
            l0: opts.l0,
            threads: opts.threads,
            ..Default::default()
        },
    );
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

    if let Some(n) = opts.curve_points {
        let n = n.max(2);
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

#[derive(Debug)]
struct FleetOptions {
    chips: u64,
    profile: MissionProfile,
    seed: u64,
    budget: f64,
    wafer_depth: f64,
    rho: f64,
    grid: usize,
    threads: Option<usize>,
    shards: Option<usize>,
    spares: usize,
    json: bool,
}

fn parse_fleet_options(args: &[String]) -> Result<FleetOptions, String> {
    let mut opts = FleetOptions {
        chips: 100_000,
        profile: MissionProfile::datacenter(),
        seed: 42,
        budget: params::ONE_PER_MILLION,
        wafer_depth: 0.02,
        rho: params::DEFAULT_CORRELATION_DISTANCE,
        grid: params::DEFAULT_GRID_SIDE,
        threads: None,
        shards: None,
        spares: 0,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--chips" => {
                opts.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?
            }
            "--profile" => {
                // Resolve at parse time: an unknown name fails here with a
                // did-you-mean suggestion, not after the model compiles.
                let name = value("--profile")?;
                opts.profile =
                    MissionProfile::named(&name).map_err(|e| format!("--profile: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--wafer-depth" => {
                opts.wafer_depth = value("--wafer-depth")?
                    .parse()
                    .map_err(|e| format!("--wafer-depth: {e}"))?
            }
            "--rho" => opts.rho = value("--rho")?.parse().map_err(|e| format!("--rho: {e}"))?,
            "--grid" => {
                opts.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?
            }
            "--threads" => {
                opts.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--shards" => {
                opts.shards = Some(
                    value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--spares" => {
                opts.spares = value("--spares")?
                    .parse()
                    .map_err(|e| format!("--spares: {e}"))?
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.chips == 0 {
        return Err("--chips: the fleet needs at least one chip".to_string());
    }
    if opts.shards == Some(0) {
        return Err("--shards: need at least one shard".to_string());
    }
    if opts.threads == Some(0) {
        return Err("--threads: need at least one worker thread".to_string());
    }
    if !(opts.budget > 0.0) || opts.budget >= 1.0 {
        return Err(format!(
            "--budget: failure-probability budget must be in (0, 1), got {}",
            opts.budget
        ));
    }
    if !(opts.wafer_depth >= 0.0) || !opts.wafer_depth.is_finite() {
        return Err(format!(
            "--wafer-depth: bowl depth must be non-negative and finite, got {}",
            opts.wafer_depth
        ));
    }
    if !(opts.rho > 0.0) || !opts.rho.is_finite() {
        return Err(format!(
            "--rho: correlation distance must be positive and finite, got {}",
            opts.rho
        ));
    }
    if opts.grid == 0 {
        return Err("--grid: the correlation grid needs at least one cell per side".to_string());
    }
    Ok(opts)
}

impl FleetOptions {
    fn config(&self) -> FleetConfig {
        FleetConfig {
            chips: self.chips,
            profile: self.profile.clone(),
            seed: self.seed,
            budget: self.budget,
            wafer: if self.wafer_depth > 0.0 {
                SystematicPattern::Bowl {
                    depth: self.wafer_depth,
                    center: (0.5, 0.5),
                }
            } else {
                SystematicPattern::None
            },
            threads: self.threads,
            shards: self.shards,
            spares: self.spares,
        }
    }
}

/// Streams a sampled chip population through a mission profile.
fn fleet(design_arg: &str, opts: &FleetOptions) -> Result<(), String> {
    // The design argument is a bundled benchmark name or a chip-spec path.
    let design = match Benchmark::parse(design_arg) {
        Ok(bench) => DesignSource::Benchmark(bench),
        Err(_) => {
            let json = std::fs::read_to_string(design_arg)
                .map_err(|e| format!("reading {design_arg}: {e}"))?;
            DesignSource::Chip(
                statobd::num::json::from_str::<ChipSpec>(&json)
                    .map_err(|e| format!("parsing {design_arg}: {e}"))?,
            )
        }
    };
    // The fleet never queries the engine; the closed-form selection keeps
    // the session build light.
    let mut aspec = match design {
        DesignSource::Benchmark(b) => AnalysisSpec::benchmark(b),
        DesignSource::Chip(c) => AnalysisSpec::chip(c),
    };
    aspec.grid_side = opts.grid;
    aspec.model.kernel = statobd::variation::CorrelationKernel::Exponential {
        rel_distance: opts.rho,
    };
    aspec.engine = EngineKind::StClosed.default_spec();
    aspec.threads = opts.threads;
    let session = Session::build(&aspec).map_err(|e| e.to_string())?;
    let tech = session.spec().tech.tech();

    let config = opts.config();
    let report = run_fleet(session.analysis(), &tech, &config).map_err(|e| e.to_string())?;
    if opts.json {
        println!("{}", statobd::num::json::to_string_pretty(&report));
        return Ok(());
    }

    let a = &report.aggregates;
    let years = |t: f64| t / 3.156e7;
    println!(
        "fleet: {} chips through '{}' ({})",
        a.chips,
        a.profile,
        opts.profile.description()
    );
    if opts.spares > 0 {
        println!(
            "  redundancy: one group over all blocks, {} spare(s) (chip fails only past {} block failures)",
            opts.spares, opts.spares
        );
    }
    println!(
        "  {} threads, {} shards, {:.2} s  [{:.0} chips/s, {} workspace(s)]",
        report.threads, report.shards, report.run_s, report.chips_per_s, report.workspaces_created
    );
    println!(
        "  {}: {} chips/tile, {} lane tile(s), {} masked lane(s) in the last",
        report.lanes,
        report.lane_width,
        report.lane_tiles,
        (report.lane_tiles * report.lane_width).saturating_sub(a.chips)
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

#[derive(Debug, Default)]
struct ServeOptions {
    socket: Option<String>,
    cache_dir: Option<String>,
    no_cache: bool,
    max_sessions: Option<usize>,
}

fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--socket" => opts.socket = Some(value("--socket")?),
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--no-cache" | "--quick" => opts.no_cache = true,
            "--max-sessions" => {
                opts.max_sessions = Some(
                    value("--max-sessions")?
                        .parse()
                        .map_err(|e| format!("--max-sessions: {e}"))?,
                )
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.max_sessions == Some(0) {
        return Err("--max-sessions: the server needs room for at least one session".to_string());
    }
    Ok(opts)
}

fn serve_cmd(opts: &ServeOptions) -> Result<(), String> {
    let mut config = ServeConfig::default();
    if let Some(n) = opts.max_sessions {
        config.max_sessions = n;
    }
    config.cache = if opts.no_cache {
        None
    } else if let Some(dir) = &opts.cache_dir {
        Some(ArtifactCache::new(dir))
    } else {
        // Serving without any cache root (e.g. no $HOME) is fine: every
        // open is just a cold build.
        ArtifactCache::default_root().map(ArtifactCache::new)
    };
    let socket = opts.socket.as_ref().map(std::path::Path::new);
    statobd::serve(config, socket).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "template" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            template(path)
        }
        "analyze" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            match parse_options(&args[2..]) {
                Ok(opts) => std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))
                    .and_then(|json| {
                        statobd::num::json::from_str::<ChipSpec>(&json)
                            .map_err(|e| format!("parsing {path}: {e}"))
                    })
                    .and_then(|spec| report(DesignSource::Chip(spec), &opts)),
                Err(e) => Err(e),
            }
        }
        "serve" => match parse_serve_options(&args[1..]) {
            Ok(opts) => serve_cmd(&opts),
            Err(e) => Err(e),
        },
        "thermal" => {
            let (Some(fp), Some(pm)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            match parse_thermal_options(&args[3..]) {
                Ok(opts) => thermal(fp, pm, &opts),
                Err(e) => Err(e),
            }
        }
        "manage" => match (args.get(1).map(String::as_str), args.get(2)) {
            (Some("template"), Some(path)) => manage_template(path),
            (Some(spec), Some(schedule)) => match parse_manage_options(&args[3..]) {
                Ok(opts) => manage(spec, schedule, &opts),
                Err(e) => Err(e),
            },
            _ => return usage(),
        },
        "fleet" => {
            let Some(design) = args.get(1) else {
                return usage();
            };
            match parse_fleet_options(&args[2..]) {
                Ok(opts) => fleet(design, &opts),
                Err(e) => Err(e),
            }
        }
        "bench" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            match Benchmark::parse(name).map_err(|e| e.to_string()) {
                Ok(bench) => match parse_options(&args[2..]) {
                    Ok(opts) => report(DesignSource::Benchmark(bench), &opts),
                    Err(e) => Err(e),
                },
                Err(e) => Err(e),
            }
        }
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_options_accepts_sane_flags() {
        let opts = parse_options(&args(&[
            "--rho",
            "0.4",
            "--grid",
            "12",
            "--l0",
            "8",
            "--mc",
            "50",
            "--curve",
            "5",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(opts.grid, 12);
        assert_eq!(opts.l0, 8);
        assert_eq!(opts.mc_chips, Some(50));
        assert_eq!(opts.curve_points, Some(5));
        assert_eq!(opts.threads, Some(2));
        assert!((opts.rho - 0.4).abs() < 1e-12);
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
            (vec!["--threads", "0"], "--threads"),
            (vec!["--target", "0"], "--target"),
            (vec!["--target", "1.5"], "--target"),
        ] {
            let err = parse_options(&args(&bad)).unwrap_err();
            assert!(
                err.contains(needle),
                "rejection for {bad:?} should mention {needle}: {err}"
            );
        }
    }

    #[test]
    fn parse_options_rejects_unknown_and_dangling_flags() {
        assert!(parse_options(&args(&["--frobnicate"])).is_err());
        assert!(parse_options(&args(&["--rho"])).is_err());
    }

    #[test]
    fn parse_fleet_options_accepts_sane_flags() {
        let opts = parse_fleet_options(&args(&[
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
            "--json",
        ]))
        .unwrap();
        assert_eq!(opts.chips, 5000);
        assert_eq!(opts.profile.name(), "automotive");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.shards, Some(5));
        assert!(opts.json);
        assert_eq!(opts.config().wafer, SystematicPattern::None);
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
        ] {
            let err = parse_fleet_options(&args(&bad)).unwrap_err();
            assert!(
                err.contains(needle),
                "rejection for {bad:?} should mention {needle}: {err}"
            );
        }
    }

    #[test]
    fn parse_fleet_options_suggests_profile_names() {
        let err = parse_fleet_options(&args(&["--profile", "datacentre"])).unwrap_err();
        assert!(err.contains("did you mean 'datacenter'"), "{err}");
        assert!(err.contains("htol"), "menu missing from: {err}");
    }

    #[test]
    fn parse_thermal_options_rejects_zero_grid() {
        assert!(parse_thermal_options(&args(&["--grid", "0"])).is_err());
        assert!(parse_thermal_options(&args(&["--grid", "32"])).is_ok());
    }

    #[test]
    fn parse_manage_options_validates_like_analyze() {
        let opts =
            parse_manage_options(&args(&["--checkpoint", "state.json", "--grid", "10"])).unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some("state.json"));
        assert_eq!(opts.grid, 10);
        for bad in [
            vec!["--l0", "0"],
            vec!["--grid", "0"],
            vec!["--rho", "0"],
            vec!["--threads", "0"],
            vec!["--unknown"],
        ] {
            assert!(
                parse_manage_options(&args(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
