//! Steady-state grid RC thermal solver (the HotSpot-grid-style substrate).
//!
//! The die is discretized into `nx × ny` thermal cells. Each cell exchanges
//! heat laterally with its 4-neighbours through the silicon substrate
//! (conductance `k_si · t_die` per unit aspect) and vertically to ambient
//! through an effective package resistance. The steady state solves
//!
//! ```text
//! (L + diag(G_v)) · T = P + G_v · T_amb
//! ```
//!
//! with `L` the weighted graph Laplacian of lateral conductances — an SPD
//! system handled by preconditioned conjugate gradients. Leakage power
//! depends on temperature, so the solver iterates the leakage–temperature
//! fixed point to convergence, warm-starting each linear solve from the
//! previous temperature field.
//!
//! The linear solver is multigrid-preconditioned CG (MGCG,
//! [`Multigrid`]): its iteration count does not grow with resolution, and
//! a grid of at most 64 cells is one exact coarse solve.

use crate::floorplan::{Floorplan, Rect};
use crate::power::PowerModel;
use crate::{Result, ThermalError};
use statobd_num::cg::{solve_pcg, CgOptions};
use statobd_num::impl_json_struct;
use statobd_num::multigrid::Multigrid;
use statobd_num::sparse::{CooMatrix, CsrMatrix};

/// Physical and numerical configuration of the thermal solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Thermal grid resolution along x.
    pub nx: usize,
    /// Thermal grid resolution along y.
    pub ny: usize,
    /// Silicon thermal conductivity (W/(m·K)); ~100 near operating
    /// temperatures.
    pub k_silicon: f64,
    /// Die (substrate) thickness (m).
    pub die_thickness: f64,
    /// Heat-spreader thermal conductivity (W/(m·K)); copper ≈ 400. The
    /// spreader is lumped into the lateral sheet conductance, mirroring
    /// HotSpot's spreader layer.
    pub k_spreader: f64,
    /// Heat-spreader thickness (m).
    pub spreader_thickness: f64,
    /// Effective vertical junction-to-ambient specific resistance
    /// (K·m²/W): package, spreader and heatsink lumped per unit area.
    pub r_package: f64,
    /// Ambient temperature (K).
    pub ambient_k: f64,
    /// Leakage e-folding temperature (K) — leakage multiplies by `e` every
    /// `theta` kelvin.
    pub leakage_theta_k: f64,
    /// Maximum leakage fixed-point iterations (at least 1: the first
    /// iteration is the thermal solve itself).
    pub max_leakage_iters: usize,
    /// Convergence tolerance on the temperature update (K).
    pub leakage_tol_k: f64,
    /// Volumetric heat capacity of silicon (J/(m³·K)) — used only by the
    /// transient solver.
    pub c_volumetric: f64,
    /// Relative residual tolerance of each CG solve.
    pub cg_rel_tol: f64,
    /// Iteration cap of each CG solve.
    pub cg_max_iter: usize,
    /// Warm-start each leakage iteration (and transient step) from the
    /// previous temperature field instead of from zero.
    pub warm_start: bool,
}

impl_json_struct!(ThermalConfig {
    nx,
    ny,
    k_silicon,
    die_thickness,
    k_spreader,
    spreader_thickness,
    r_package,
    ambient_k,
    leakage_theta_k,
    max_leakage_iters,
    leakage_tol_k,
    c_volumetric,
    cg_rel_tol,
    cg_max_iter,
    warm_start,
});

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            nx: 64,
            ny: 64,
            k_silicon: 100.0,
            die_thickness: 0.5e-3,
            k_spreader: 400.0,
            spreader_thickness: 0.5e-3,
            r_package: 1.3e-4,
            ambient_k: 318.15, // 45 °C case/ambient, HotSpot-style
            leakage_theta_k: 30.0,
            max_leakage_iters: 25,
            leakage_tol_k: 1e-3,
            c_volumetric: 1.63e6,
            cg_rel_tol: 1e-9,
            cg_max_iter: 50_000,
            warm_start: true,
        }
    }
}

impl ThermalConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] on non-physical values.
    pub fn validate(&self) -> Result<()> {
        if self.nx == 0 || self.ny == 0 {
            return Err(ThermalError::InvalidParameter {
                detail: "thermal grid must be non-empty".to_string(),
            });
        }
        for (name, v) in [
            ("k_silicon", self.k_silicon),
            ("die_thickness", self.die_thickness),
            ("k_spreader", self.k_spreader),
            ("spreader_thickness", self.spreader_thickness),
            ("r_package", self.r_package),
            ("ambient_k", self.ambient_k),
            ("leakage_theta_k", self.leakage_theta_k),
            ("leakage_tol_k", self.leakage_tol_k),
            ("c_volumetric", self.c_volumetric),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(ThermalError::InvalidParameter {
                    detail: format!("{name} must be positive, got {v}"),
                });
            }
        }
        if self.max_leakage_iters == 0 {
            return Err(ThermalError::InvalidParameter {
                detail: "max_leakage_iters must be at least 1".to_string(),
            });
        }
        if !(self.cg_rel_tol > 0.0) || self.cg_rel_tol >= 1.0 {
            return Err(ThermalError::InvalidParameter {
                detail: format!("cg_rel_tol must be in (0, 1), got {}", self.cg_rel_tol),
            });
        }
        if self.cg_max_iter == 0 {
            return Err(ThermalError::InvalidParameter {
                detail: "cg_max_iter must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    /// The CG options every linear solve in this configuration uses.
    pub(crate) fn cg_options(&self) -> CgOptions {
        CgOptions {
            rel_tol: self.cg_rel_tol,
            max_iter: self.cg_max_iter,
        }
    }
}

/// The assembled grid operator shared by the steady-state and transient
/// paths: the conductance matrix `L + diag(G_v)` plus the per-cell
/// constants it was built from.
#[derive(Debug, Clone)]
pub(crate) struct GridOperator {
    /// Vertical cell-to-ambient conductance (W/K).
    pub(crate) g_v: f64,
    /// Heat capacity of one cell (J/K) — the transient stepper's `C`.
    pub(crate) c_cell: f64,
    /// `L + diag(G_v)`, SPD.
    pub(crate) matrix: CsrMatrix,
}

/// Assembles the conductance operator for `cfg` on a `die_w × die_h` die.
///
/// This is the single source of truth for the grid RC constants — the
/// steady-state solve and the transient stepper both build on it, so the
/// two paths can never drift apart.
pub(crate) fn assemble_conductance(cfg: &ThermalConfig, die_w: f64, die_h: f64) -> GridOperator {
    let (nx, ny) = (cfg.nx, cfg.ny);
    let n = nx * ny;
    let cw = die_w / nx as f64;
    let ch = die_h / ny as f64;
    let cell_area = cw * ch;

    // Lateral conductance between adjacent cells: the silicon substrate
    // and the heat spreader act as parallel conduction sheets, so the
    // sheet conductance is k_si·t_die + k_sp·t_sp, times the aspect of
    // the shared face over the center distance.
    let sheet = cfg.k_silicon * cfg.die_thickness + cfg.k_spreader * cfg.spreader_thickness;
    let g_x = sheet * ch / cw;
    let g_y = sheet * cw / ch;
    let g_v = cell_area / cfg.r_package;
    let c_cell = cfg.c_volumetric * cell_area * cfg.die_thickness;

    let mut coo = CooMatrix::new(n, n);
    for iy in 0..ny {
        for ix in 0..nx {
            let i = iy * nx + ix;
            let mut diag = g_v;
            if ix + 1 < nx {
                let j = iy * nx + ix + 1;
                coo.push(i, j, -g_x);
                coo.push(j, i, -g_x);
                diag += g_x;
            }
            if ix > 0 {
                diag += g_x;
            }
            if iy + 1 < ny {
                let j = (iy + 1) * nx + ix;
                coo.push(i, j, -g_y);
                coo.push(j, i, -g_y);
                diag += g_y;
            }
            if iy > 0 {
                diag += g_y;
            }
            coo.push(i, i, diag);
        }
    }
    GridOperator {
        g_v,
        c_cell,
        matrix: coo.to_csr(),
    }
}

/// Rasterizes block powers onto the thermal grid: per-cell dynamic power
/// and reference leakage, apportioned by cell–block overlap area. Shared
/// by the steady-state and transient paths.
pub(crate) fn rasterize_power(
    floorplan: &Floorplan,
    power: &PowerModel,
    nx: usize,
    ny: usize,
) -> (Vec<f64>, Vec<f64>) {
    let cw = floorplan.die_w() / nx as f64;
    let ch = floorplan.die_h() / ny as f64;
    let n = nx * ny;
    let mut dyn_cell = vec![0.0; n];
    let mut leak_cell_ref = vec![0.0; n];
    for block in floorplan.blocks() {
        let Some(bp) = power.block_power(block.name()) else {
            continue;
        };
        let r = block.rect();
        let dyn_density = bp.dynamic_w() / r.area();
        let leak_density = bp.leakage_ref_w() / r.area();
        let ix0 = ((r.x() / cw).floor().max(0.0) as usize).min(nx - 1);
        let ix1 = (((r.x1() / cw).ceil().max(1.0) as usize) - 1).min(nx - 1);
        let iy0 = ((r.y() / ch).floor().max(0.0) as usize).min(ny - 1);
        let iy1 = (((r.y1() / ch).ceil().max(1.0) as usize) - 1).min(ny - 1);
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let cx0 = ix as f64 * cw;
                let cy0 = iy as f64 * ch;
                let ox = (r.x1().min(cx0 + cw) - r.x().max(cx0)).max(0.0);
                let oy = (r.y1().min(cy0 + ch) - r.y().max(cy0)).max(0.0);
                let overlap = ox * oy;
                if overlap > 0.0 {
                    dyn_cell[iy * nx + ix] += dyn_density * overlap;
                    leak_cell_ref[iy * nx + ix] += leak_density * overlap;
                }
            }
        }
    }
    (dyn_cell, leak_cell_ref)
}

/// Builds the MGCG preconditioner for the operator `a` on an `nx × ny`
/// grid, reused across every solve on that operator (all leakage
/// iterations, all transient steps).
pub(crate) fn multigrid(a: &CsrMatrix, nx: usize, ny: usize) -> Result<Multigrid> {
    Multigrid::new(a, nx, ny).map_err(|e| ThermalError::SolveFailed {
        detail: format!("building the multigrid preconditioner: {e}"),
    })
}

/// Wall-time and convergence breakdown of a steady-state solve, carried on
/// the [`TemperatureMap`] so `--timings` and the benchmarks can report the
/// real cost.
#[derive(Debug, Clone, Default)]
pub struct SolveBreakdown {
    /// Conductance assembly plus power rasterization seconds.
    pub assembly_s: f64,
    /// Multigrid hierarchy build seconds.
    pub precond_s: f64,
    /// Accumulated CG seconds over all leakage iterations.
    pub solve_s: f64,
    /// CG iterations of each leakage fixed-point iteration.
    pub cg_iterations: Vec<usize>,
    /// Relative residual of the final CG solve.
    pub final_residual: f64,
}

impl SolveBreakdown {
    /// Total CG iterations across the leakage loop.
    pub fn total_cg_iterations(&self) -> usize {
        self.cg_iterations.iter().sum()
    }
}

/// Per-block temperature summary extracted from a [`TemperatureMap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTempStats {
    /// Area-weighted mean temperature (K).
    pub mean_k: f64,
    /// Maximum cell temperature (K) — the paper's "block-level worst-case
    /// operating temperature".
    pub max_k: f64,
    /// Minimum cell temperature (K).
    pub min_k: f64,
}

/// A solved steady-state temperature field.
#[derive(Debug, Clone)]
pub struct TemperatureMap {
    nx: usize,
    ny: usize,
    die_w: f64,
    die_h: f64,
    /// Cell temperatures (K), row-major: index `iy * nx + ix`.
    temps: Vec<f64>,
    /// Solver breakdown; `cg_iterations.len()` is the leakage iteration
    /// count.
    breakdown: SolveBreakdown,
}

impl TemperatureMap {
    /// Assembles a map from raw parts (used by the transient solver).
    ///
    /// # Panics
    ///
    /// Panics if `temps.len() != nx * ny`.
    pub(crate) fn from_parts(
        nx: usize,
        ny: usize,
        die_w: f64,
        die_h: f64,
        temps: Vec<f64>,
    ) -> Self {
        assert_eq!(temps.len(), nx * ny, "temperature vector length mismatch");
        TemperatureMap {
            nx,
            ny,
            die_w,
            die_h,
            temps,
            breakdown: SolveBreakdown::default(),
        }
    }

    /// Grid resolution `(nx, ny)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// All cell temperatures (K), row-major.
    pub fn temps(&self) -> &[f64] {
        &self.temps
    }

    /// Leakage fixed-point iterations performed.
    pub fn leakage_iterations(&self) -> usize {
        self.breakdown.cg_iterations.len()
    }

    /// CG iterations of each leakage fixed-point iteration.
    pub fn cg_iterations(&self) -> &[usize] {
        &self.breakdown.cg_iterations
    }

    /// Total CG iterations across the whole solve.
    pub fn total_cg_iterations(&self) -> usize {
        self.breakdown.total_cg_iterations()
    }

    /// Relative residual of the final CG solve.
    pub fn final_residual(&self) -> f64 {
        self.breakdown.final_residual
    }

    /// Wall-time and convergence breakdown of the solve that produced this
    /// map (empty for maps assembled by the transient stepper, which has
    /// its own per-run stats).
    pub fn breakdown(&self) -> &SolveBreakdown {
        &self.breakdown
    }

    /// Temperature (K) of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn cell(&self, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.nx && iy < self.ny, "cell index out of range");
        self.temps[iy * self.nx + ix]
    }

    /// Temperature (K) at die coordinates `(x, y)` (nearest cell).
    pub fn at(&self, x: f64, y: f64) -> f64 {
        let ix = ((x / self.die_w * self.nx as f64).floor().max(0.0) as usize).min(self.nx - 1);
        let iy = ((y / self.die_h * self.ny as f64).floor().max(0.0) as usize).min(self.ny - 1);
        self.cell(ix, iy)
    }

    /// Hottest cell temperature (K).
    pub fn max_k(&self) -> f64 {
        self.temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Coolest cell temperature (K).
    pub fn min_k(&self) -> f64 {
        self.temps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean cell temperature (K).
    pub fn mean_k(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Temperature statistics over the cells covered by `rect`.
    ///
    /// Cells are attributed by center point; a rectangle smaller than one
    /// cell still picks up its containing cell.
    pub fn block_stats(&self, rect: &Rect) -> BlockTempStats {
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        let cw = self.die_w / self.nx as f64;
        let ch = self.die_h / self.ny as f64;
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let cx = (ix as f64 + 0.5) * cw;
                let cy = (iy as f64 + 0.5) * ch;
                if rect.contains(cx, cy) {
                    let t = self.temps[iy * self.nx + ix];
                    sum += t;
                    count += 1;
                    max = max.max(t);
                    min = min.min(t);
                }
            }
        }
        if count == 0 {
            // Degenerate rect: sample its center.
            let (cx, cy) = rect.center();
            let t = self.at(cx, cy);
            return BlockTempStats {
                mean_k: t,
                max_k: t,
                min_k: t,
            };
        }
        BlockTempStats {
            mean_k: sum / count as f64,
            max_k: max,
            min_k: min,
        }
    }

    /// Renders the map as an ASCII heat chart (one character per cell,
    /// coarsened to at most `max_cols` columns), hottest = '@'.
    pub fn ascii_render(&self, max_cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max_cols = max_cols.max(1);
        let step = self.nx.div_ceil(max_cols);
        let lo = self.min_k();
        let hi = self.max_k();
        let span = (hi - lo).max(1e-9);
        let mut out = String::new();
        for iy in (0..self.ny).step_by(step).rev() {
            for ix in (0..self.nx).step_by(step) {
                let t = self.cell(ix, iy);
                let level = (((t - lo) / span) * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[level.min(RAMP.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// Steady-state thermal solver.
#[derive(Debug, Clone)]
pub struct ThermalSolver {
    config: ThermalConfig,
}

impl ThermalSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: ThermalConfig) -> Self {
        ThermalSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Solves the steady-state temperature field for a floorplan and power
    /// model, iterating the leakage–temperature fixed point.
    ///
    /// The conductance operator and the preconditioner are built once and
    /// reused across all fixed-point iterations; with
    /// [`ThermalConfig::warm_start`] each iteration's CG starts from the
    /// previous temperature field, which cuts later iterations to a
    /// handful of CG steps.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] for an invalid configuration,
    /// * [`ThermalError::SolveFailed`] if the fixed point diverges
    ///   (thermal runaway) or CG fails.
    pub fn solve(&self, floorplan: &Floorplan, power: &PowerModel) -> Result<TemperatureMap> {
        self.config.validate()?;
        let cfg = &self.config;
        let (nx, ny) = (cfg.nx, cfg.ny);
        let n = nx * ny;

        let t_assembly = std::time::Instant::now();
        let op = assemble_conductance(cfg, floorplan.die_w(), floorplan.die_h());
        let (dyn_cell, leak_cell_ref) = rasterize_power(floorplan, power, nx, ny);
        let assembly_s = t_assembly.elapsed().as_secs_f64();

        let t_precond = std::time::Instant::now();
        let precond = multigrid(&op.matrix, nx, ny)?;
        let precond_s = t_precond.elapsed().as_secs_f64();

        // Leakage–temperature fixed point.
        let g_v = op.g_v;
        let mut temps = vec![cfg.ambient_k; n];
        let cg_opts = cfg.cg_options();
        let mut cg_iterations = Vec::new();
        let mut final_residual = 0.0;
        let mut solve_s = 0.0;
        for _ in 0..cfg.max_leakage_iters {
            // The per-cell source: dynamic power plus the leakage at the
            // cell's current temperature (an exp per cell per iteration).
            let rhs: Vec<f64> = (0..n)
                .map(|i| {
                    let leak = leak_cell_ref[i]
                        * ((temps[i] - crate::power::LEAKAGE_REF_K) / cfg.leakage_theta_k).exp();
                    dyn_cell[i] + leak + g_v * cfg.ambient_k
                })
                .collect();
            let guess = cfg.warm_start.then_some(temps.as_slice());
            let t_solve = std::time::Instant::now();
            let sol = solve_pcg(&op.matrix, &rhs, guess, &precond, &cg_opts).map_err(|e| {
                ThermalError::SolveFailed {
                    detail: format!("mgcg failed: {e}"),
                }
            })?;
            solve_s += t_solve.elapsed().as_secs_f64();
            cg_iterations.push(sol.iterations);
            final_residual = sol.relative_residual;
            let max_delta = sol
                .x
                .iter()
                .zip(&temps)
                .map(|(new, old)| (new - old).abs())
                .fold(0.0f64, f64::max);
            temps = sol.x;
            let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if !hottest.is_finite() || hottest > cfg.ambient_k + 500.0 {
                return Err(ThermalError::SolveFailed {
                    detail: format!("thermal runaway: hottest cell {hottest:.1} K"),
                });
            }
            if max_delta < cfg.leakage_tol_k {
                break;
            }
        }

        let mut map =
            TemperatureMap::from_parts(nx, ny, floorplan.die_w(), floorplan.die_h(), temps);
        map.breakdown = SolveBreakdown {
            assembly_s,
            precond_s,
            solve_s,
            cg_iterations,
            final_residual,
        };
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Floorplan, Rect};
    use crate::power::{BlockPower, PowerModel};
    use statobd_num::cholesky::Cholesky;
    use statobd_num::matrix::DMatrix;

    fn one_block_chip(power_w: f64) -> (Floorplan, PowerModel) {
        let mut fp = Floorplan::new(0.016, 0.016).unwrap();
        fp.add_block(Block::new("all", Rect::new(0.0, 0.0, 0.016, 0.016).unwrap()).unwrap())
            .unwrap();
        let mut pm = PowerModel::new();
        pm.set_block_power("all", BlockPower::new(power_w, 0.0).unwrap())
            .unwrap();
        (fp, pm)
    }

    #[test]
    fn zero_power_gives_ambient() {
        let (fp, pm) = one_block_chip(0.0);
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        for &t in map.temps() {
            assert!((t - 318.15).abs() < 1e-6, "temp {t}");
        }
    }

    #[test]
    fn uniform_power_matches_analytic_rise() {
        // Uniform power density: no lateral flow; ΔT = P·r_package/A.
        let p = 50.0;
        let (fp, pm) = one_block_chip(p);
        let cfg = ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        };
        let solver = ThermalSolver::new(cfg);
        let map = solver.solve(&fp, &pm).unwrap();
        let expected = cfg.ambient_k + p * cfg.r_package / (0.016 * 0.016);
        for &t in map.temps() {
            assert!((t - expected).abs() < 1e-3, "temp {t} vs {expected}");
        }
    }

    #[test]
    fn hotspot_structure_matches_figure_one() {
        // A small hot block on an otherwise idle die: the hot spot should
        // sit tens of kelvin above the far corner, echoing Fig. 1.
        let mut fp = Floorplan::new(0.016, 0.016).unwrap();
        fp.add_block(Block::new("hot", Rect::new(0.001, 0.001, 0.003, 0.003).unwrap()).unwrap())
            .unwrap();
        fp.add_block(Block::new("idle", Rect::new(0.008, 0.008, 0.008, 0.008).unwrap()).unwrap())
            .unwrap();
        let mut pm = PowerModel::new();
        pm.set_block_power("hot", BlockPower::new(18.0, 1.0).unwrap())
            .unwrap();
        pm.set_block_power("idle", BlockPower::new(1.0, 0.5).unwrap())
            .unwrap();
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 32,
            ny: 32,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        let hot = map.block_stats(fp.block("hot").unwrap().rect());
        let idle = map.block_stats(fp.block("idle").unwrap().rect());
        let delta = hot.max_k - idle.min_k;
        assert!(
            (10.0..80.0).contains(&delta),
            "hot-to-idle spread {delta:.1} K out of the expected range"
        );
        // Hot spot is local: the die max is inside the hot block.
        assert!((map.max_k() - hot.max_k).abs() < 1e-9);
    }

    #[test]
    fn leakage_feedback_raises_temperature() {
        let mut fp = Floorplan::new(0.016, 0.016).unwrap();
        fp.add_block(Block::new("b", Rect::new(0.0, 0.0, 0.016, 0.016).unwrap()).unwrap())
            .unwrap();
        let mut no_leak = PowerModel::new();
        no_leak
            .set_block_power("b", BlockPower::new(40.0, 0.0).unwrap())
            .unwrap();
        let mut with_leak = PowerModel::new();
        with_leak
            .set_block_power("b", BlockPower::new(40.0, 8.0).unwrap())
            .unwrap();
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 8,
            ny: 8,
            ..ThermalConfig::default()
        });
        let cold = solver.solve(&fp, &no_leak).unwrap();
        let warm = solver.solve(&fp, &with_leak).unwrap();
        assert!(warm.max_k() > cold.max_k());
        assert!(warm.leakage_iterations() >= 2);
    }

    #[test]
    fn block_stats_and_point_queries_agree() {
        let (fp, pm) = one_block_chip(30.0);
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        let stats = map.block_stats(fp.block("all").unwrap().rect());
        assert!(stats.min_k <= stats.mean_k && stats.mean_k <= stats.max_k);
        let t = map.at(0.008, 0.008);
        assert!(t >= stats.min_k && t <= stats.max_k);
    }

    #[test]
    fn tiny_block_stats_fall_back_to_center_sample() {
        let (fp, pm) = one_block_chip(30.0);
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 4,
            ny: 4,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        // A rect much smaller than a cell, positioned between cell centers.
        let tiny = Rect::new(0.0039, 0.0039, 0.0002, 0.0002).unwrap();
        let stats = map.block_stats(&tiny);
        assert_eq!(stats.min_k, stats.max_k);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let (fp, pm) = one_block_chip(30.0);
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        let art = map.ascii_render(8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.len() == 8));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = ThermalConfig {
            nx: 0,
            ..ThermalConfig::default()
        };
        let (fp, pm) = one_block_chip(1.0);
        assert!(ThermalSolver::new(cfg).solve(&fp, &pm).is_err());
        let cfg = ThermalConfig {
            k_silicon: -1.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalSolver::new(cfg).solve(&fp, &pm).is_err());
        let cfg = ThermalConfig {
            cg_rel_tol: 0.0,
            ..ThermalConfig::default()
        };
        assert!(ThermalSolver::new(cfg).solve(&fp, &pm).is_err());
        let cfg = ThermalConfig {
            cg_max_iter: 0,
            ..ThermalConfig::default()
        };
        assert!(ThermalSolver::new(cfg).solve(&fp, &pm).is_err());
        // A loop that cannot run or cannot stop would leave the die at
        // ambient or silently skip the convergence test.
        for cfg in [
            ThermalConfig {
                max_leakage_iters: 0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                leakage_tol_k: f64::NAN,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                leakage_tol_k: 0.0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                leakage_tol_k: -1e-3,
                ..ThermalConfig::default()
            },
        ] {
            assert!(matches!(
                ThermalSolver::new(cfg).solve(&fp, &pm),
                Err(ThermalError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn unpowered_blocks_are_cool() {
        let mut fp = Floorplan::new(0.01, 0.01).unwrap();
        fp.add_block(Block::new("hot", Rect::new(0.0, 0.0, 0.002, 0.002).unwrap()).unwrap())
            .unwrap();
        fp.add_block(Block::new("cold", Rect::new(0.007, 0.007, 0.003, 0.003).unwrap()).unwrap())
            .unwrap();
        let mut pm = PowerModel::new();
        pm.set_block_power("hot", BlockPower::new(8.0, 0.0).unwrap())
            .unwrap();
        // "cold" gets no assignment at all.
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 20,
            ny: 20,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        let hot = map.block_stats(fp.block("hot").unwrap().rect());
        let cold = map.block_stats(fp.block("cold").unwrap().rect());
        assert!(hot.mean_k > cold.mean_k + 5.0);
    }

    #[test]
    fn breakdown_reports_convergence_cost() {
        let (fp, pm) = one_block_chip(30.0);
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        });
        let map = solver.solve(&fp, &pm).unwrap();
        let b = map.breakdown();
        assert_eq!(b.cg_iterations.len(), map.leakage_iterations());
        assert!(map.total_cg_iterations() > 0);
        assert!(map.final_residual() <= solver.config().cg_rel_tol);
        assert!(b.assembly_s >= 0.0 && b.precond_s >= 0.0 && b.solve_s > 0.0);
    }

    /// The exact reference: the leakage fixed point of [`ThermalSolver::solve`]
    /// (same start, update and stopping rule) with every linear solve done
    /// by one dense Cholesky factor of the assembled operator.
    fn dense_cholesky_fixed_point(
        cfg: &ThermalConfig,
        fp: &Floorplan,
        pm: &PowerModel,
    ) -> Vec<f64> {
        let op = assemble_conductance(cfg, fp.die_w(), fp.die_h());
        let (dyn_cell, leak_cell_ref) = rasterize_power(fp, pm, cfg.nx, cfg.ny);
        let n = dyn_cell.len();
        let factor = Cholesky::new(&DMatrix::from_fn(n, n, |i, j| op.matrix.get(i, j))).unwrap();
        let mut temps = vec![cfg.ambient_k; n];
        for _ in 0..cfg.max_leakage_iters {
            let rhs: Vec<f64> = (0..n)
                .map(|i| {
                    let leak = leak_cell_ref[i]
                        * ((temps[i] - crate::power::LEAKAGE_REF_K) / cfg.leakage_theta_k).exp();
                    dyn_cell[i] + leak + op.g_v * cfg.ambient_k
                })
                .collect();
            let next = factor.solve(&rhs).unwrap();
            let max_delta = next
                .iter()
                .zip(&temps)
                .map(|(new, old)| (new - old).abs())
                .fold(0.0f64, f64::max);
            temps = next;
            if max_delta < cfg.leakage_tol_k {
                break;
            }
        }
        temps
    }

    /// MGCG against the dense reference: 1e-8 relative per cell, 1e-6 K
    /// on each block's mean and max. Returns both cell fields.
    fn assert_matches_dense_reference(
        cfg: ThermalConfig,
        fp: &Floorplan,
        pm: &PowerModel,
    ) -> (Vec<f64>, Vec<f64>) {
        let exact = dense_cholesky_fixed_point(&cfg, fp, pm);
        let map = ThermalSolver::new(cfg).solve(fp, pm).unwrap();
        let grid = format!("{}x{}", cfg.nx, cfg.ny);
        for (a, b) in map.temps().iter().zip(&exact) {
            assert!((a - b).abs() < 1e-8 * b.abs(), "{grid}: cell {a} vs {b}");
        }
        let reference = TemperatureMap::from_parts(cfg.nx, cfg.ny, fp.die_w(), fp.die_h(), exact);
        for block in fp.blocks() {
            let (m, r) = (
                map.block_stats(block.rect()),
                reference.block_stats(block.rect()),
            );
            assert!(
                (m.mean_k - r.mean_k).abs() < 1e-6 && (m.max_k - r.max_k).abs() < 1e-6,
                "{grid} block {}: mean {} vs {}, max {} vs {}",
                block.name(),
                m.mean_k,
                r.mean_k,
                m.max_k,
                r.max_k
            );
        }
        (map.temps, reference.temps)
    }

    fn profiles() -> [(&'static str, Floorplan, PowerModel); 2] {
        [
            (
                "alpha",
                crate::alpha_ev6_floorplan().unwrap(),
                crate::alpha_ev6_power().unwrap(),
            ),
            (
                "many_core",
                crate::many_core_floorplan().unwrap(),
                crate::many_core_power(&[0, 3, 5, 10, 12, 15], 9.0).unwrap(),
            ),
        ]
    }

    #[test]
    fn mgcg_matches_a_dense_cholesky_solve_on_a_hotspot() {
        let mut fp = Floorplan::new(0.016, 0.016).unwrap();
        fp.add_block(Block::new("hot", Rect::new(0.001, 0.001, 0.004, 0.004).unwrap()).unwrap())
            .unwrap();
        fp.add_block(Block::new("rest", Rect::new(0.008, 0.008, 0.008, 0.008).unwrap()).unwrap())
            .unwrap();
        // Leakage-free, so the steady state is one linear system.
        let mut pm = PowerModel::new();
        pm.set_block_power("hot", BlockPower::new(15.0, 0.0).unwrap())
            .unwrap();
        pm.set_block_power("rest", BlockPower::new(2.0, 0.0).unwrap())
            .unwrap();
        let cfg = ThermalConfig {
            nx: 24,
            ny: 24,
            ..ThermalConfig::default()
        };
        let (mgcg, exact) = assert_matches_dense_reference(cfg, &fp, &pm);
        for (a, b) in mgcg.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6, "mgcg diverged: {a} vs {b}");
        }
    }

    #[test]
    fn mgcg_matches_a_dense_cholesky_leakage_fixed_point_on_both_profiles() {
        for (name, fp, pm) in profiles() {
            let cfg = ThermalConfig {
                nx: 32,
                ny: 32,
                ..ThermalConfig::default()
            };
            let map = ThermalSolver::new(cfg).solve(&fp, &pm).unwrap();
            assert!(
                map.leakage_iterations() >= 2,
                "{name}: leakage never fed back"
            );
            assert_matches_dense_reference(cfg, &fp, &pm);
        }
    }

    #[test]
    fn mgcg_matches_a_dense_cholesky_solve_on_tiny_and_odd_grids() {
        for (_, fp, pm) in profiles() {
            for (nx, ny) in [(1, 1), (1, 2), (2, 3), (3, 7), (7, 4)] {
                let cfg = ThermalConfig {
                    nx,
                    ny,
                    ..ThermalConfig::default()
                };
                assert_matches_dense_reference(cfg, &fp, &pm);
            }
        }
    }
}
