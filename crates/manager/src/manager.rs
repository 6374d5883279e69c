//! The runtime reliability manager: damage accounting, budget
//! projection, and the DVFS throttle.

use crate::damage::DamageState;
use crate::policy::PolicyConfig;
use crate::schedule::{unphysical_temperature, OperatingPhase};
use crate::{ManagerError, Result};
use statobd_core::{ChipAnalysis, HybridConfig, HybridTables};
use statobd_device::ObdTechnology;

/// Temperature headroom (K) added above the hottest (and below the
/// coolest) block specification temperature when sizing the table ranges.
const TEMP_HEADROOM_K: f64 = 20.0;

/// Safety margin added to the widened upper `γ` edge (log units).
const GAMMA_MARGIN: f64 = 0.5;

/// What one manager step observed and decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Chip failure probability at the end of the step (weakest-link
    /// composed over the block tables).
    pub p_now: f64,
    /// End-of-service projection at the step's final DVFS level, holding
    /// the step's requested operating point for the remaining life.
    pub p_projected: f64,
    /// DVFS level index after the step's policy decision (0 = fastest).
    pub level: usize,
    /// Whether the level in force *during* the step capped the requested
    /// voltage.
    pub capped: bool,
    /// The supply voltage (V) actually applied during the step.
    pub vdd_v: f64,
}

/// The dynamic reliability manager (the paper's "dynamic system for
/// reliability monitoring", Sec. IV-E, with a RAMP-style budget policy).
///
/// Built once per design from a [`ChipAnalysis`]; each runtime step
/// advances the per-block [`DamageState`] under the current operating
/// point, reads the chip failure probability off the hybrid tables at
/// `γ_j = ln ξ_j`, projects it to end of service, and walks the DVFS
/// ladder to keep the projection inside the budget.
#[derive(Debug)]
pub struct ReliabilityManager {
    tables: HybridTables,
    tech: Box<dyn ObdTechnology>,
    policy: PolicyConfig,
    damage: DamageState,
    /// Per-block `b` at the most recently applied temperatures (the
    /// lookup ordinate for "current P" queries between steps);
    /// initialized from the design's specification temperatures.
    last_b: Vec<f64>,
    block_names: Vec<String>,
    level: usize,
    transitions: u64,
}

impl ReliabilityManager {
    /// Builds the manager's lookup tables over `analysis`, sized for the
    /// policy's service life.
    ///
    /// `tables` is the base hybrid-table configuration. Its `γ` range is
    /// widened ([`HybridConfig::covering_gamma`]) to
    /// `ln(service_life / α(T_max + 20 K, V_max)) + 0.5` so the tables
    /// cover end-of-service ages even at the worst operating point the
    /// ladder can grant; its `b` range is widened
    /// ([`HybridConfig::covering_b`]) to cover `b(T)` over the block
    /// specification temperatures ± 20 K.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for an invalid policy
    /// and propagates table-construction failures.
    pub fn new(
        analysis: &ChipAnalysis,
        tech: Box<dyn ObdTechnology>,
        policy: PolicyConfig,
        tables: HybridConfig,
    ) -> Result<Self> {
        policy.validate()?;
        let blocks = analysis.blocks();
        let t_hi = blocks
            .iter()
            .map(|b| b.spec().temperature_k())
            .fold(f64::MIN, f64::max)
            + TEMP_HEADROOM_K;
        let t_lo = (blocks
            .iter()
            .map(|b| b.spec().temperature_k())
            .fold(f64::MAX, f64::min)
            - TEMP_HEADROOM_K)
            .max(200.0);
        let v_spec = blocks
            .iter()
            .map(|b| b.spec().voltage_v())
            .fold(f64::MIN, f64::max);
        // Caps only ever *limit* the granted voltage, so a cap far above
        // spec (e.g. the unbounded monitoring-only rung) is not a real
        // operating point; size the grid for modest turbo headroom.
        let v_max = policy
            .levels
            .iter()
            .map(|l| l.vdd_cap_v)
            .filter(|v| v.is_finite())
            .fold(v_spec, f64::max)
            .min(1.5 * v_spec);
        // Hotter and higher-voltage → smaller α → larger end-of-service
        // γ = ln(t_svc/α); size the grid for the worst case.
        let alpha_min = tech.alpha(t_hi, v_max);
        let gamma_hi = (policy.service_life_s / alpha_min).ln() + GAMMA_MARGIN;
        // b(T) need not be monotone for table-driven technologies:
        // sample the window.
        let (mut b_lo, mut b_hi) = (f64::MAX, f64::MIN);
        for i in 0..=64 {
            let b = tech.b(t_lo + (t_hi - t_lo) * i as f64 / 64.0);
            b_lo = b_lo.min(b);
            b_hi = b_hi.max(b);
        }
        let table_config = tables.covering_gamma(gamma_hi).covering_b(b_lo, b_hi);
        let tables = HybridTables::build(analysis, table_config)?;
        Ok(ReliabilityManager {
            damage: DamageState::new(blocks.len()),
            last_b: blocks.iter().map(|b| b.b_per_nm()).collect(),
            block_names: blocks.iter().map(|b| b.spec().name().to_string()).collect(),
            tables,
            tech,
            policy,
            level: 0,
            transitions: 0,
        })
    }

    /// The underlying hybrid tables (their config records the widened
    /// `γ`/`b` ranges).
    pub fn tables(&self) -> &HybridTables {
        &self.tables
    }

    /// The policy in force.
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// The accumulated damage state (checkpoint it with
    /// [`DamageState::to_json`]).
    pub fn damage(&self) -> &DamageState {
        &self.damage
    }

    /// Block names, in table order.
    pub fn block_names(&self) -> &[String] {
        &self.block_names
    }

    /// Restores a checkpointed damage state.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] if the block count
    /// does not match this design.
    pub fn restore(&mut self, damage: DamageState) -> Result<()> {
        if damage.n_blocks() != self.last_b.len() {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "checkpoint has {} blocks, design has {}",
                    damage.n_blocks(),
                    self.last_b.len()
                ),
            });
        }
        self.damage = damage;
        Ok(())
    }

    /// Current DVFS level index (0 = fastest).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Name of the current DVFS level.
    pub fn level_name(&self) -> &str {
        &self.policy.levels[self.level].name
    }

    /// Ladder transitions taken so far (a chattering throttle shows up
    /// here; the hysteresis keeps this near the number of genuine
    /// budget crossings).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Table queries that ran off the non-conservative grid edges —
    /// must stay zero when the tables were sized for the service life
    /// (see [`HybridTables::off_grid_queries`]).
    pub fn off_grid_queries(&self) -> u64 {
        self.tables.off_grid_queries()
    }

    /// Records a repair event: block `block` was swapped for a pristine
    /// spare, re-baselining its effective age to zero (the rest of the
    /// chip keeps its damage). Under a redundancy-group composition this
    /// is how the analysis learns that a group's spare budget was spent
    /// on a fresh part.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for an out-of-range
    /// block index.
    pub fn repair(&mut self, block: usize) -> Result<()> {
        self.damage.repair(block)
    }

    /// Chip failure probability at the accumulated damage, composed over
    /// the block tables at `γ_j = ln ξ_j` through the design's
    /// composition (weakest-link, or k-out-of-n redundancy groups).
    ///
    /// # Errors
    ///
    /// Propagates table-query failures.
    pub fn failure_probability_now(&self) -> Result<f64> {
        let mut chip = self.tables.composition().accumulator(self.last_b.len());
        for (j, (&xi, &b)) in self
            .damage
            .effective_ages()
            .iter()
            .zip(&self.last_b)
            .enumerate()
        {
            chip.absorb(j, self.tables.block_failure_probability_at_age(j, xi, b)?);
        }
        Ok(chip.failure_probability())
    }

    /// Advances the manager by `dt_s` seconds at the requested operating
    /// point (per-block temperatures + requested voltage), then runs the
    /// budget policy.
    ///
    /// The DVFS level in force *before* the step governs the damage
    /// accrued during it (the decision the manager made last time); the
    /// projection afterwards may move the level for subsequent steps:
    /// down while the end-of-service projection exceeds the budget, up
    /// only when the projection at the next-faster level clears
    /// `hysteresis · budget`.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for a bad operating
    /// point — including a temperature that is not finite and above 0 K,
    /// or at which `α` or `b` is not finite and positive, at any ladder
    /// level's offset — before any state changes, and propagates
    /// table-query failures.
    pub fn step(&mut self, dt_s: f64, temps_k: &[f64], vdd_req_v: f64) -> Result<StepReport> {
        if temps_k.len() != self.last_b.len() {
            return Err(ManagerError::InvalidParameter {
                detail: format!(
                    "got {} temperatures for {} blocks",
                    temps_k.len(),
                    self.last_b.len()
                ),
            });
        }
        if !(vdd_req_v > 0.0) {
            return Err(ManagerError::InvalidParameter {
                detail: format!("requested voltage must be positive, got {vdd_req_v}"),
            });
        }
        self.check_operating_points(temps_k, vdd_req_v)?;
        // 1. Damage accrues at the operating point the current level
        //    grants.
        let (vdd_v, capped, dt_k) = self.granted(vdd_req_v, self.level);
        let alphas: Vec<f64> = temps_k
            .iter()
            .map(|&t| self.tech.alpha(t + dt_k, vdd_v))
            .collect();
        self.damage.advance(dt_s, &alphas)?;
        for (b, &t) in self.last_b.iter_mut().zip(temps_k) {
            *b = self.tech.b(t + dt_k);
        }
        let p_now = self.failure_probability_now()?;

        // 2. Policy: walk the ladder against the end-of-service
        //    projection. Stepping down requires proj > budget at the
        //    current level; stepping back up requires proj ≤ h·budget at
        //    the faster level — mutually exclusive conditions, so one
        //    step can never both throttle and unthrottle.
        let mut p_projected = self.projected(temps_k, vdd_req_v, self.level)?;
        while self.level + 1 < self.policy.levels.len() && p_projected > self.policy.budget {
            self.level += 1;
            self.transitions += 1;
            p_projected = self.projected(temps_k, vdd_req_v, self.level)?;
        }
        while self.level > 0 {
            let faster = self.projected(temps_k, vdd_req_v, self.level - 1)?;
            if faster <= self.policy.hysteresis * self.policy.budget {
                self.level -= 1;
                self.transitions += 1;
                p_projected = faster;
            } else {
                break;
            }
        }
        Ok(StepReport {
            p_now,
            p_projected,
            level: self.level,
            capped,
            vdd_v,
        })
    }

    /// Runs a whole phase as `steps` equal damage/decision steps,
    /// returning each step's report.
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError::InvalidParameter`] for an invalid phase
    /// or `steps == 0`.
    pub fn run_phase(&mut self, phase: &OperatingPhase, steps: usize) -> Result<Vec<StepReport>> {
        phase.validate(self.last_b.len())?;
        if steps == 0 {
            return Err(ManagerError::InvalidParameter {
                detail: "a phase needs at least one step".to_string(),
            });
        }
        let dt_s = phase.duration_s / steps as f64;
        (0..steps)
            .map(|_| self.step(dt_s, &phase.temps_k, phase.vdd_v))
            .collect()
    }

    /// Checks every operating point a step can evaluate, whichever level
    /// it ends on, so a bad one is rejected before any state changes:
    /// each block at offset 0 and at every level's capped offset needs a
    /// finite temperature above 0 K and a finite positive `b(T)`, and
    /// each level's grant a finite positive `α(T, V)`.
    fn check_operating_points(&self, temps_k: &[f64], vdd_req_v: f64) -> Result<()> {
        let invalid = |detail| Err(ManagerError::InvalidParameter { detail });
        for (level, lv) in self.policy.levels.iter().enumerate() {
            let (vdd_v, _, dt_k) = self.granted(vdd_req_v, level);
            for &t in temps_k {
                let evaluated = [t, t + lv.dt_when_capped_k];
                if let Some(bad) = unphysical_temperature(evaluated) {
                    return invalid(format!("temperature {bad} K is not physical"));
                }
                for t_k in evaluated {
                    let b = self.tech.b(t_k);
                    if !(b > 0.0 && b.is_finite()) {
                        return invalid(format!("b({t_k} K) = {b} /nm is not finite and positive"));
                    }
                }
                let alpha = self.tech.alpha(t + dt_k, vdd_v);
                if !(alpha > 0.0 && alpha.is_finite()) {
                    return invalid(format!(
                        "α({} K, {vdd_v} V) = {alpha} s is not finite and positive",
                        t + dt_k
                    ));
                }
            }
        }
        Ok(())
    }

    /// The operating point level `level` grants for a request:
    /// `(granted vdd, capped?, temperature offset)`.
    fn granted(&self, vdd_req_v: f64, level: usize) -> (f64, bool, f64) {
        let lv = &self.policy.levels[level];
        let vdd_v = vdd_req_v.min(lv.vdd_cap_v);
        let capped = vdd_v < vdd_req_v;
        let dt_k = if capped { lv.dt_when_capped_k } else { 0.0 };
        (vdd_v, capped, dt_k)
    }

    /// End-of-service projection: the chip failure probability if the
    /// remaining service life is spent at the requested operating point
    /// as granted by ladder level `level`.
    fn projected(&self, temps_k: &[f64], vdd_req_v: f64, level: usize) -> Result<f64> {
        let (vdd_v, _, dt_k) = self.granted(vdd_req_v, level);
        let remaining_s = (self.policy.service_life_s - self.damage.elapsed_s()).max(0.0);
        let mut chip = self.tables.composition().accumulator(self.last_b.len());
        for (j, (&xi, &t)) in self.damage.effective_ages().iter().zip(temps_k).enumerate() {
            let t_eff = t + dt_k;
            let alpha = self.tech.alpha(t_eff, vdd_v);
            let p = self.tables.block_failure_probability_at_age(
                j,
                xi + remaining_s / alpha,
                self.tech.b(t_eff),
            )?;
            chip.absorb(j, p);
        }
        Ok(chip.failure_probability())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DvfsLevel;
    use statobd_core::{BlockSpec, ChipSpec, ReliabilityEngine};
    use statobd_device::ClosedFormTech;
    use statobd_variation::{CorrelationKernel, GridSpec, ThicknessModelBuilder, VarianceBudget};

    fn analysis() -> ChipAnalysis {
        let model = ThicknessModelBuilder::new()
            .grid(GridSpec::square_unit(5).unwrap())
            .nominal(2.2)
            .budget(VarianceBudget::itrs_2008(2.2).unwrap())
            .kernel(CorrelationKernel::Exponential { rel_distance: 0.5 })
            .build()
            .unwrap();
        let mut spec = ChipSpec::new();
        spec.add_block(
            BlockSpec::new(
                "core",
                40_000.0,
                40_000,
                368.15,
                1.2,
                vec![(0, 0.5), (6, 0.5)],
            )
            .unwrap(),
        )
        .unwrap();
        spec.add_block(
            BlockSpec::new("cache", 60_000.0, 60_000, 341.15, 1.2, vec![(12, 1.0)]).unwrap(),
        )
        .unwrap();
        ChipAnalysis::new(spec, model, &ClosedFormTech::nominal_45nm()).unwrap()
    }

    const YEAR_S: f64 = 3.156e7;

    fn monitoring_manager(a: &ChipAnalysis) -> ReliabilityManager {
        ReliabilityManager::new(
            a,
            Box::new(ClosedFormTech::nominal_45nm()),
            PolicyConfig::monitoring_only(1.0, 10.0 * YEAR_S),
            HybridConfig::default(),
        )
        .unwrap()
    }

    /// A turbo/nominal ladder under a budget tight enough that sustained
    /// turbo overruns it, but loose enough for the nominal rung to hold.
    fn throttling_manager(a: &ChipAnalysis) -> ReliabilityManager {
        let policy = PolicyConfig {
            budget: 5e-6,
            service_life_s: 10.0 * YEAR_S,
            hysteresis: 0.8,
            levels: vec![
                DvfsLevel {
                    name: "turbo".to_string(),
                    vdd_cap_v: 1.26,
                    dt_when_capped_k: 0.0,
                },
                DvfsLevel {
                    name: "nominal".to_string(),
                    vdd_cap_v: 1.20,
                    dt_when_capped_k: -8.0,
                },
            ],
        };
        ReliabilityManager::new(
            a,
            Box::new(ClosedFormTech::nominal_45nm()),
            policy,
            HybridConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn constant_point_matches_direct_table_evaluation() {
        // Under a constant operating point the accumulated-damage P(t)
        // must land on the same table cells as the direct engine query —
        // the cross-validation anchor of the whole damage model.
        let a = analysis();
        let mut mgr = monitoring_manager(&a);
        let temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let steps = 40usize;
        let dt = 8.0 * YEAR_S / steps as f64;
        for _ in 0..steps {
            mgr.step(dt, &temps, 1.2).unwrap();
        }
        // Identical tables → the only difference is Σ(dt/α) vs (Σdt)/α
        // float rounding, many orders below the 1e-9 criterion.
        let mut direct = HybridTables::build(&a, *mgr.tables().config()).unwrap();
        let p_direct = direct
            .failure_probability(mgr.damage().elapsed_s())
            .unwrap();
        let p_mgr = mgr.failure_probability_now().unwrap();
        let rel = ((p_mgr - p_direct) / p_direct).abs();
        assert!(
            rel < 1e-12,
            "manager {p_mgr:.12e} vs direct {p_direct:.12e} (rel {rel:.3e})"
        );
        assert_eq!(mgr.off_grid_queries(), 0);
        assert_eq!(mgr.transitions(), 0);
    }

    #[test]
    fn hotter_phases_consume_life_faster() {
        let a = analysis();
        let spec_temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let hot: Vec<f64> = spec_temps.iter().map(|t| t + 15.0).collect();
        let mut cool_mgr = monitoring_manager(&a);
        let mut hot_mgr = monitoring_manager(&a);
        for _ in 0..12 {
            cool_mgr.step(YEAR_S / 2.0, &spec_temps, 1.2).unwrap();
            hot_mgr.step(YEAR_S / 2.0, &hot, 1.2).unwrap();
        }
        let p_cool = cool_mgr.failure_probability_now().unwrap();
        let p_hot = hot_mgr.failure_probability_now().unwrap();
        assert!(
            p_hot > 3.0 * p_cool,
            "hot {p_hot:.3e} should dwarf cool {p_cool:.3e}"
        );
    }

    #[test]
    fn throttle_engages_and_respects_hysteresis() {
        let a = analysis();
        let mut mgr = throttling_manager(&a);
        let temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let mut levels = Vec::new();
        for _ in 0..120 {
            let r = mgr.step(YEAR_S / 12.0, &temps, 1.26).unwrap();
            levels.push(r.level);
        }
        // The throttle engaged...
        assert!(levels.contains(&1), "throttle never engaged");
        // ...the budget held...
        let final_p = mgr.failure_probability_now().unwrap();
        assert!(final_p <= 5e-6 * 1.05, "budget blown: P = {final_p:.3e}");
        // ...and the level sequence never chattered: no A→B→A flip
        // within consecutive steps.
        for w in levels.windows(3) {
            assert!(
                !(w[0] != w[1] && w[2] == w[0]),
                "throttle oscillated: {w:?}"
            );
        }
        assert!(
            mgr.transitions() <= 2,
            "too many transitions: {}",
            mgr.transitions()
        );
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let a = analysis();
        let temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let mut one = monitoring_manager(&a);
        for _ in 0..6 {
            one.step(YEAR_S, &temps, 1.2).unwrap();
        }
        // Checkpoint mid-life, restore into a fresh manager, continue.
        let json = one.damage().to_json();
        let mut two = monitoring_manager(&a);
        two.restore(DamageState::from_json(&json).unwrap()).unwrap();
        for _ in 0..4 {
            one.step(YEAR_S, &temps, 1.2).unwrap();
            two.step(YEAR_S, &temps, 1.2).unwrap();
        }
        let p1 = one.failure_probability_now().unwrap();
        let p2 = two.failure_probability_now().unwrap();
        assert_eq!(p1.to_bits(), p2.to_bits(), "{p1:e} vs {p2:e}");
        // Mismatched block counts are rejected.
        assert!(two.restore(DamageState::new(7)).is_err());
    }

    #[test]
    fn service_life_stays_on_grid() {
        // The sizing contract: a full service life at spec conditions
        // (and modestly above) never falls off the widened tables.
        let a = analysis();
        let mut mgr = monitoring_manager(&a);
        let hot: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k() + 10.0)
            .collect();
        for _ in 0..20 {
            mgr.step(YEAR_S / 2.0, &hot, 1.25).unwrap();
        }
        assert_eq!(mgr.off_grid_queries(), 0);
        let gamma_hi = mgr.tables().config().gamma_range.1;
        assert!(
            gamma_hi > HybridConfig::default().gamma_range.1,
            "tables were not widened: γ_hi = {gamma_hi}"
        );
    }

    #[test]
    fn repair_lowers_current_probability() {
        let a = analysis();
        let temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let mut mgr = monitoring_manager(&a);
        for _ in 0..10 {
            mgr.step(YEAR_S, &temps, 1.2).unwrap();
        }
        let before = mgr.failure_probability_now().unwrap();
        mgr.repair(0).unwrap();
        let after = mgr.failure_probability_now().unwrap();
        assert!(
            after < before,
            "repair should lower P: {after:.3e} vs {before:.3e}"
        );
        // ξ_0 = 0 ⇒ block 0 contributes nothing; the remainder is the
        // cache block alone.
        assert_eq!(mgr.damage().effective_ages()[0], 0.0);
        assert!(after > 0.0, "the unrepaired block still carries damage");
        assert!(mgr.repair(17).is_err());
    }

    #[test]
    fn grouped_composition_flows_through_monitoring() {
        use statobd_core::Composition;
        let wl = analysis();
        let grouped = analysis()
            .with_composition(Composition::uniform_spares(2, 1))
            .unwrap();
        let temps: Vec<f64> = wl
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        let mut mgr_wl = monitoring_manager(&wl);
        let mut mgr_gr = monitoring_manager(&grouped);
        for _ in 0..10 {
            mgr_wl.step(YEAR_S, &temps, 1.2).unwrap();
            mgr_gr.step(YEAR_S, &temps, 1.2).unwrap();
        }
        let p_wl = mgr_wl.failure_probability_now().unwrap();
        let p_gr = mgr_gr.failure_probability_now().unwrap();
        // One spare over two blocks: the chip only fails when BOTH
        // blocks fail — orders of magnitude below weakest-link.
        assert!(
            p_gr < 1e-3 * p_wl,
            "grouped {p_gr:.3e} should be far below weakest-link {p_wl:.3e}"
        );
        // And it matches composing the same per-block table reads by hand.
        let ages = mgr_gr.damage().effective_ages().to_vec();
        let ps: Vec<f64> = ages
            .iter()
            .enumerate()
            .map(|(j, &xi)| {
                mgr_gr
                    .tables()
                    .block_failure_probability_at_age(j, xi, wl.blocks()[j].b_per_nm())
                    .unwrap()
            })
            .collect();
        let expected = Composition::uniform_spares(2, 1).compose(&ps);
        assert_eq!(p_gr.to_bits(), expected.to_bits());
    }

    #[test]
    fn step_rejects_bad_operating_points() {
        let a = analysis();
        let mut mgr = monitoring_manager(&a);
        assert!(mgr.step(1.0, &[350.0], 1.2).is_err());
        assert!(mgr.step(1.0, &[350.0, 340.0], -1.0).is_err());
        assert!(mgr.step(-1.0, &[350.0, 340.0], 1.2).is_err());
        for bad in [-32.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(mgr.step(1.0, &[350.0, bad], 1.2).is_err(), "{bad} K");
        }
    }

    #[test]
    fn rejected_step_leaves_no_damage_behind() {
        let a = analysis();
        let temps = [368.15, 341.15];
        let mut fresh = monitoring_manager(&a);
        let want = fresh.step(YEAR_S, &temps, 1.2).unwrap();
        let mut mgr = monitoring_manager(&a);
        // 400 K below the spec temperatures: −32 K on the hot block.
        let cold: Vec<f64> = temps.iter().map(|t| t - 400.0).collect();
        assert!(mgr.step(YEAR_S, &cold, 1.2).is_err());
        let got = mgr.step(YEAR_S, &temps, 1.2).unwrap();
        assert_eq!(got.p_now.to_bits(), want.p_now.to_bits());
        assert_eq!(got.p_projected.to_bits(), want.p_projected.to_bits());
        assert_eq!(mgr.damage().elapsed_s(), YEAR_S);
        // A ladder level that runs cooler when capped is checked too: at
        // 5 K a −6 K offset would leave the physical range.
        let mut policy = PolicyConfig::monitoring_only(1.0, 10.0 * YEAR_S);
        policy.levels.push(DvfsLevel {
            name: "slow".to_string(),
            vdd_cap_v: 1.0,
            dt_when_capped_k: -6.0,
        });
        let mut laddered = ReliabilityManager::new(
            &a,
            Box::new(ClosedFormTech::nominal_45nm()),
            policy,
            HybridConfig::default(),
        )
        .unwrap();
        assert!(laddered.step(YEAR_S, &[5.0, 341.15], 1.2).is_err());
        assert_eq!(laddered.damage().elapsed_s(), 0.0);
    }

    #[test]
    fn a_step_past_b_zero_changes_no_state() {
        // b(T) = b_ref·(1 − c_b·(T − T_ref)) crosses zero near 2,000 K:
        // a step there must be rejected before it advances the damage,
        // the b ordinate or the ladder.
        let a = analysis();
        let mut mgr = throttling_manager(&a);
        let temps: Vec<f64> = a
            .blocks()
            .iter()
            .map(|b| b.spec().temperature_k())
            .collect();
        while mgr.level() == 0 {
            mgr.step(YEAR_S / 12.0, &temps, 1.26).unwrap();
        }
        let bits = |m: &ReliabilityManager| {
            let d = m.damage();
            let ages: Vec<u64> = d.effective_ages().iter().map(|x| x.to_bits()).collect();
            let p_now = m.failure_probability_now().unwrap().to_bits();
            (
                ages,
                d.elapsed_s().to_bits(),
                m.level(),
                m.transitions(),
                p_now,
            )
        };
        let before = bits(&mgr);
        let hot: Vec<f64> = temps.iter().map(|t| t + 2000.0).collect();
        let errors = [1.0, 1.26].map(|vdd| mgr.step(YEAR_S, &hot, vdd).unwrap_err().to_string());
        assert_eq!(bits(&mgr), before);
        for err in errors {
            assert!(err.contains("b("), "{err}");
        }
    }
}
