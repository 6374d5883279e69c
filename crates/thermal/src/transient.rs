//! Transient thermal simulation (HotSpot's transient mode, as an implicit
//! integrator).
//!
//! The same grid RC network as the steady-state solver, plus a heat
//! capacity per cell: `C·dT/dt = P(T) + G_v·T_amb − (L + diag(G_v))·T`.
//! Integration is backward Euler: each step solves
//!
//! ```text
//! (A + (C/dt)·I) · T_{n+1} = P(T_n) + G_v·T_amb + (C/dt)·T_n
//! ```
//!
//! with `A = L + diag(G_v)` the steady-state operator. Backward Euler is
//! unconditionally stable, so the sub-step is chosen to *resolve the
//! physics* — a fraction of the vertical RC time constant
//! `τ_v = r_package·c_volumetric·t_die` — instead of being pinned to the
//! explicit stability limit of the much stiffer lateral network. The
//! stepped operator and its preconditioner are assembled **once** and
//! reused across every step, and each solve warm-starts from the previous
//! field, so a step typically costs only a handful of CG iterations.
//! Leakage is handled semi-implicitly (evaluated at `T_n`).
//!
//! Transient analysis matters to the reliability flow because application
//! phases with different power maps produce different *worst-case block
//! temperatures*; the paper handles this by taking the block-level
//! worst case over the lifetime — this module lets a user derive exactly
//! that from a power trace.

use crate::floorplan::Floorplan;
use crate::power::PowerModel;
use crate::solver::{
    assemble_conductance, multigrid, rasterize_power, TemperatureMap, ThermalSolver,
};
use crate::{Result, ThermalError};
use statobd_num::cg::solve_pcg;

/// How many backward-Euler sub-steps resolve one vertical RC time
/// constant `τ_v` (sets the target `dt = τ_v / TAU_RESOLUTION`).
const TAU_RESOLUTION: f64 = 16.0;

/// Cost accounting of a transient run: the steps taken, their CG
/// iterations, and the time spent assembling the stepped operator,
/// building its preconditioner (both once per run) and solving.
#[derive(Debug, Clone, Default)]
pub struct TransientStats {
    /// Backward-Euler steps taken.
    pub steps: usize,
    /// Sub-step length (s).
    pub dt_s: f64,
    /// CG iterations summed over all steps.
    pub total_cg_iterations: usize,
    /// Operator assembly plus power rasterization seconds.
    pub assembly_s: f64,
    /// Preconditioner construction seconds.
    pub precond_s: f64,
    /// Accumulated CG seconds over all steps.
    pub solve_s: f64,
}

/// A transient simulation result: snapshots at the requested times.
#[derive(Debug)]
pub struct TransientResult {
    /// `(time (s), temperature field)` pairs, in increasing time order.
    pub snapshots: Vec<(f64, TemperatureMap)>,
    /// Cost accounting of the run.
    pub stats: TransientStats,
}

impl TransientResult {
    /// The final temperature map.
    ///
    /// # Panics
    ///
    /// Panics if the result has no snapshots (the solver always produces
    /// at least one).
    pub fn final_map(&self) -> &TemperatureMap {
        &self.snapshots.last().expect("at least one snapshot").1
    }
}

impl ThermalSolver {
    /// Integrates the transient response from a uniform `t_init_k` start
    /// under the given power model, recording `n_snapshots` equally spaced
    /// snapshots over `duration_s`.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] for a non-positive duration,
    ///   zero snapshots, or an invalid configuration,
    /// * [`ThermalError::SolveFailed`] on thermal runaway or CG failure.
    pub fn solve_transient(
        &self,
        floorplan: &Floorplan,
        power: &PowerModel,
        t_init_k: f64,
        duration_s: f64,
        n_snapshots: usize,
    ) -> Result<TransientResult> {
        let cfg = self.config();
        cfg.validate()?;
        if !(duration_s > 0.0) || n_snapshots == 0 || !(t_init_k > 0.0) {
            return Err(ThermalError::InvalidParameter {
                detail: format!(
                    "need duration > 0, snapshots > 0 and t_init > 0, got {duration_s}, {n_snapshots}, {t_init_k}"
                ),
            });
        }
        let (nx, ny) = (cfg.nx, cfg.ny);
        let n = nx * ny;

        let t_assembly = std::time::Instant::now();
        let op = assemble_conductance(cfg, floorplan.die_w(), floorplan.die_h());
        let (dyn_cell, leak_cell_ref) = rasterize_power(floorplan, power, nx, ny);

        // Sub-step: resolve the slowest (vertical) RC time constant
        // τ_v = C/G_v = r_pkg·c_v·t_die — grid-independent — while landing
        // exactly on each snapshot boundary.
        let tau_v = cfg.r_package * cfg.c_volumetric * cfg.die_thickness;
        let snap_every = duration_s / n_snapshots as f64;
        let steps_per_snap = ((snap_every * TAU_RESOLUTION / tau_v).ceil() as usize).max(1);
        let dt = snap_every / steps_per_snap as f64;

        // Backward-Euler operator M = A + (C/dt)·I, assembled once for the
        // whole run.
        let shift = op.c_cell / dt;
        let m = op.matrix.with_shifted_diagonal(shift)?;
        let assembly_s = t_assembly.elapsed().as_secs_f64();

        let t_precond = std::time::Instant::now();
        let precond = multigrid(&m, nx, ny)?;
        let precond_s = t_precond.elapsed().as_secs_f64();

        let g_v = op.g_v;
        let cg_opts = cfg.cg_options();
        let mut temps = vec![t_init_k; n];
        let mut rhs = vec![0.0; n];
        let mut snapshots = Vec::with_capacity(n_snapshots);
        let mut total_cg_iterations = 0usize;
        let mut solve_s = 0.0;
        for snap in 0..n_snapshots {
            for _ in 0..steps_per_snap {
                for i in 0..n {
                    let leak = leak_cell_ref[i]
                        * ((temps[i] - crate::power::LEAKAGE_REF_K) / cfg.leakage_theta_k).exp();
                    rhs[i] = dyn_cell[i] + leak + g_v * cfg.ambient_k + shift * temps[i];
                }
                let guess = cfg.warm_start.then_some(temps.as_slice());
                let t_solve = std::time::Instant::now();
                let sol = solve_pcg(&m, &rhs, guess, &precond, &cg_opts).map_err(|e| {
                    ThermalError::SolveFailed {
                        detail: format!("transient mgcg failed: {e}"),
                    }
                })?;
                solve_s += t_solve.elapsed().as_secs_f64();
                total_cg_iterations += sol.iterations;
                temps = sol.x;
                let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if !hottest.is_finite() || hottest > cfg.ambient_k + 500.0 {
                    return Err(ThermalError::SolveFailed {
                        detail: format!("transient thermal runaway: hottest cell {hottest:.1} K"),
                    });
                }
            }
            snapshots.push((
                (snap + 1) as f64 * snap_every,
                TemperatureMap::from_parts(
                    nx,
                    ny,
                    floorplan.die_w(),
                    floorplan.die_h(),
                    temps.clone(),
                ),
            ));
        }
        Ok(TransientResult {
            snapshots,
            stats: TransientStats {
                steps: n_snapshots * steps_per_snap,
                dt_s: dt,
                total_cg_iterations,
                assembly_s,
                precond_s,
                solve_s,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Block, Rect};
    use crate::power::BlockPower;
    use crate::solver::ThermalConfig;

    fn setup(power_w: f64) -> (Floorplan, PowerModel, ThermalSolver) {
        let mut fp = Floorplan::new(0.008, 0.008).unwrap();
        fp.add_block(Block::new("b", Rect::new(0.0, 0.0, 0.008, 0.008).unwrap()).unwrap())
            .unwrap();
        let mut pm = PowerModel::new();
        pm.set_block_power("b", BlockPower::new(power_w, 0.0).unwrap())
            .unwrap();
        let solver = ThermalSolver::new(ThermalConfig {
            nx: 8,
            ny: 8,
            ..ThermalConfig::default()
        });
        (fp, pm, solver)
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (fp, pm, solver) = setup(10.0);
        let steady = solver.solve(&fp, &pm).unwrap();
        // Several vertical time constants: τ = C/G_v ≈ r_pkg·c_v·t_die.
        let duration = 5.0 * 1.3e-4 * 1.63e6 * 0.5e-3;
        let transient = solver
            .solve_transient(&fp, &pm, 318.15, duration, 4)
            .unwrap();
        let final_map = transient.final_map();
        for (t_tr, t_ss) in final_map.temps().iter().zip(steady.temps()) {
            assert!(
                (t_tr - t_ss).abs() < 0.05 * (t_ss - 318.15).max(0.1),
                "transient {t_tr} vs steady {t_ss}"
            );
        }
    }

    #[test]
    fn temperature_rises_monotonically_from_cold_start() {
        let (fp, pm, solver) = setup(10.0);
        let result = solver.solve_transient(&fp, &pm, 318.15, 0.05, 5).unwrap();
        let mut prev = 318.15;
        for (_, map) in &result.snapshots {
            let mean = map.mean_k();
            assert!(mean >= prev - 1e-9, "mean {mean} dropped below {prev}");
            prev = mean;
        }
        assert_eq!(result.snapshots.len(), 5);
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (fp, pm, solver) = setup(0.0);
        let result = solver.solve_transient(&fp, &pm, 318.15, 0.01, 2).unwrap();
        for &t in result.final_map().temps() {
            assert!((t - 318.15).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_start_cools_toward_steady_state() {
        let (fp, pm, solver) = setup(5.0);
        let steady = solver.solve(&fp, &pm).unwrap();
        let duration = 8.0 * 1.3e-4 * 1.63e6 * 0.5e-3;
        let result = solver
            .solve_transient(&fp, &pm, steady.max_k() + 30.0, duration, 3)
            .unwrap();
        let final_mean = result.final_map().mean_k();
        assert!(
            (final_mean - steady.mean_k()).abs() < 1.0,
            "cooled to {final_mean} vs steady {}",
            steady.mean_k()
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let (fp, pm, solver) = setup(1.0);
        assert!(solver.solve_transient(&fp, &pm, 318.15, 0.0, 2).is_err());
        assert!(solver.solve_transient(&fp, &pm, 318.15, 0.1, 0).is_err());
        assert!(solver.solve_transient(&fp, &pm, 0.0, 0.1, 2).is_err());
    }

    #[test]
    fn stepper_reports_its_steps_and_cg_cost() {
        let (fp, pm, solver) = setup(10.0);
        let result = solver.solve_transient(&fp, &pm, 318.15, 0.05, 5).unwrap();
        let s = &result.stats;
        assert!(s.steps >= 5, "expected at least one step per snapshot");
        assert!(s.dt_s > 0.0);
        assert!(s.total_cg_iterations > 0);
    }

    #[test]
    fn snapshot_times_land_on_uniform_boundaries() {
        let (fp, pm, solver) = setup(4.0);
        let result = solver.solve_transient(&fp, &pm, 318.15, 0.1, 4).unwrap();
        for (k, (t, _)) in result.snapshots.iter().enumerate() {
            let want = (k + 1) as f64 * 0.025;
            assert!((t - want).abs() < 1e-12, "snapshot {k} at {t}, want {want}");
        }
    }
}
