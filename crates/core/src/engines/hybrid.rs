//! The hybrid analytical/table-lookup engine (paper Sec. IV-E).
//!
//! Designers re-evaluate the same design under many setup/application
//! profiles; different profiles change only the per-block Weibull
//! parameters `(α_j, b_j)`. Since the double integral of eq. (28) depends
//! on the operating point only through `γ = ln(t/α_j)` and `b_j`, each
//! block's integral can be precomputed once on a `(γ, b)` grid and then
//! evaluated for *any* profile by bilinear interpolation — the paper
//! reports three to five orders of magnitude speed-up over Monte Carlo at
//! near-identical accuracy.
//!
//! Tables store `ln P_j` (failure probabilities span many decades, and the
//! logarithm is nearly linear in `γ`, which is exactly what bilinear
//! interpolation wants). Tables serialize to JSON
//! ([`statobd_num::json`]) so they can be shipped into a runtime
//! reliability monitor.

use crate::chip::ChipAnalysis;
use crate::engines::composition::Composition;
use crate::engines::st_fast::{BlockQuadrature, StFastConfig};
use crate::engines::{check_times, ReliabilityEngine};
use crate::gfun::GCoefficients;
use crate::{CoreError, Result};
use statobd_num::impl_json_struct;
use statobd_num::interp::Bilinear;
use statobd_num::parallel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Floor applied before taking logs of probabilities.
const LN_P_FLOOR: f64 = -700.0;

/// Configuration of the hybrid table construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Range of `γ = ln(t/α)` covered by the tables.
    pub gamma_range: (f64, f64),
    /// Range of `b` (1/nm) covered by the tables.
    pub b_range: (f64, f64),
    /// Number of `γ` samples (`n_α` in the paper; default 100).
    pub n_gamma: usize,
    /// Number of `b` samples (`n_b` in the paper; default 100).
    pub n_b: usize,
    /// Quadrature settings used to fill the table entries.
    pub quadrature_l0: usize,
    /// Worker threads for the table build and large batched sweeps
    /// (`None` = all available cores).
    pub threads: Option<usize>,
}

impl_json_struct!(HybridConfig {
    gamma_range,
    b_range,
    n_gamma,
    n_b,
    quadrature_l0,
    threads
});

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            // ln(t/α) from −30 (P astronomically small) to 0 (t = α).
            gamma_range: (-30.0, 0.0),
            // b range covering 300–430 K for the 45 nm-class model.
            b_range: (0.74, 0.86),
            n_gamma: 100,
            n_b: 100,
            quadrature_l0: crate::params::DEFAULT_L0,
            threads: None,
        }
    }
}

impl HybridConfig {
    /// Extends the upper `γ` edge to cover `gamma_hi`, growing `n_gamma`
    /// proportionally so the sample density (and hence the interpolation
    /// error) is unchanged. A runtime manager that must stay on-grid out
    /// to a service-life horizon `t_svc` under a worst-case operating
    /// point `α_min` builds its tables with
    /// `config.covering_gamma(ln(t_svc / α_min) + margin)`.
    pub fn covering_gamma(mut self, gamma_hi: f64) -> Self {
        let (g0, g1) = self.gamma_range;
        if gamma_hi.is_finite() && gamma_hi > g1 && g1 > g0 {
            let density = (self.n_gamma.max(2) - 1) as f64 / (g1 - g0);
            self.gamma_range.1 = gamma_hi;
            let samples = ((gamma_hi - g0) * density).ceil() as usize + 1;
            self.n_gamma = samples.max(self.n_gamma);
        }
        self
    }

    /// Extends the `b` range to cover `[b_lo, b_hi]`, growing `n_b`
    /// proportionally so the sample density is unchanged.
    pub fn covering_b(mut self, b_lo: f64, b_hi: f64) -> Self {
        let (old_lo, old_hi) = self.b_range;
        if b_lo.is_finite() && b_hi.is_finite() && old_hi > old_lo {
            let density = (self.n_b.max(2) - 1) as f64 / (old_hi - old_lo);
            let new_lo = b_lo.min(old_lo);
            let new_hi = b_hi.max(old_hi);
            if (new_lo, new_hi) != self.b_range {
                self.b_range = (new_lo, new_hi);
                let samples = ((new_hi - new_lo) * density).ceil() as usize + 1;
                self.n_b = samples.max(self.n_b);
            }
        }
        self
    }
}

/// One block's lookup table.
#[derive(Debug, Clone)]
struct BlockTable {
    /// Bilinear interpolant of `ln P_j` over `(γ, b)`.
    ln_p: Bilinear,
    /// The block's current Weibull scale `α_j` (s).
    alpha_s: f64,
    /// The block's current `b_j` (1/nm).
    b_per_nm: f64,
}

// Manual (de)serialization instead of `impl_json_struct`: `ln_p` is
// written as its axes and row-major values, and since the table grids
// scale with the density config, in the packed bit-exact float encoding
// to keep persisted artifacts cheap to load.
impl statobd_num::json::ToJson for BlockTable {
    fn to_json(&self) -> statobd_num::json::Json {
        use statobd_num::json::{pack_f64s, Json};
        let ln_p = Json::Object(vec![
            ("xs".to_string(), pack_f64s(self.ln_p.xs())),
            ("ys".to_string(), pack_f64s(self.ln_p.ys())),
            ("values".to_string(), pack_f64s(self.ln_p.values())),
        ]);
        Json::Object(vec![
            ("ln_p".to_string(), ln_p),
            ("alpha_s".to_string(), self.alpha_s.to_json()),
            ("b_per_nm".to_string(), self.b_per_nm.to_json()),
        ])
    }
}

impl statobd_num::json::FromJson for BlockTable {
    fn from_json(v: &statobd_num::json::Json) -> statobd_num::json::Result<Self> {
        use statobd_num::json::{unpack_f64s, Json, JsonError};
        fn field<'j>(v: &'j Json, k: &str) -> statobd_num::json::Result<&'j Json> {
            v.get(k)
                .ok_or_else(|| JsonError::new(format!("missing field '{k}' in BlockTable")))
        }
        let ln_p = field(v, "ln_p")?;
        let axis = |k| unpack_f64s(field(ln_p, k)?);
        Ok(BlockTable {
            ln_p: Bilinear::new(axis("xs")?, axis("ys")?, axis("values")?)
                .map_err(|e| JsonError::new(e.to_string()))?,
            alpha_s: f64::from_json(field(v, "alpha_s")?)?,
            b_per_nm: f64::from_json(field(v, "b_per_nm")?)?,
        })
    }
}

/// The hybrid analytical/table-lookup engine (`hybrid` in Table III).
#[derive(Debug)]
pub struct HybridTables {
    tables: Vec<BlockTable>,
    config: HybridConfig,
    /// The chip's block composition, captured at build time — the engine
    /// is self-contained (no `ChipAnalysis` borrow at query time), so the
    /// redundancy structure has to travel with the tables.
    composition: Composition,
    /// Queries that fell off the non-conservative table edges (`γ` above
    /// the grid, or `b` outside it) and were silently clamped by the
    /// bilinear interpolation — see [`HybridTables::off_grid_queries`].
    off_grid: AtomicU64,
}

impl HybridTables {
    /// Precomputes the per-block `(γ, b)` tables (the expensive step,
    /// performed once per design).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for degenerate ranges or
    /// sample counts, and propagates quadrature failures.
    pub fn build(analysis: &ChipAnalysis, config: HybridConfig) -> Result<Self> {
        let (g0, g1) = config.gamma_range;
        let (b0, b1) = config.b_range;
        if !(g0 < g1) || !(b0 < b1) || config.n_gamma < 2 || config.n_b < 2 {
            return Err(CoreError::InvalidParameter {
                detail: format!("invalid hybrid config: {config:?}"),
            });
        }
        let quad = StFastConfig {
            l0: config.quadrature_l0,
            ..StFastConfig::default()
        };
        let gammas: Vec<f64> = (0..config.n_gamma)
            .map(|i| g0 + (g1 - g0) * i as f64 / (config.n_gamma - 1) as f64)
            .collect();
        let bs: Vec<f64> = (0..config.n_b)
            .map(|i| b0 + (b1 - b0) * i as f64 / (config.n_b - 1) as f64)
            .collect();

        let mut tables = Vec::with_capacity(analysis.n_blocks());
        let threads = parallel::resolve_threads(config.threads);
        for block in analysis.blocks() {
            let quadrature = BlockQuadrature::new(block.moments(), &quad)?;
            // Fill the (γ, b) grid one γ-row per work item, each row as a
            // single lane sweep over its n_b quadratures; rows are
            // gathered in index order, so the table is identical at any
            // thread count.
            let area = block.spec().area();
            let rows = parallel::run_indexed(gammas.len(), threads, |gi| {
                let gamma = gammas[gi];
                let coeffs: Vec<GCoefficients> = bs
                    .iter()
                    .map(|&b| {
                        let gb = gamma * b;
                        GCoefficients {
                            s1: gb,
                            s2: 0.5 * gb * gb,
                        }
                    })
                    .collect();
                let mut row = vec![0.0; coeffs.len()];
                quadrature.integrate_many(area, &coeffs, &mut row);
                for p in &mut row {
                    *p = p.max(f64::MIN_POSITIVE).ln().max(LN_P_FLOOR);
                }
                row
            });
            let values: Vec<f64> = rows.into_iter().flatten().collect();
            tables.push(BlockTable {
                ln_p: Bilinear::new(gammas.clone(), bs.clone(), values)?,
                alpha_s: block.alpha_s(),
                b_per_nm: block.b_per_nm(),
            });
        }
        Ok(HybridTables {
            tables,
            config,
            composition: analysis.composition().clone(),
            off_grid: AtomicU64::new(0),
        })
    }

    /// The chip composition the tables were built with.
    pub fn composition(&self) -> &Composition {
        &self.composition
    }

    /// The construction configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Number of block tables.
    pub fn n_blocks(&self) -> usize {
        self.tables.len()
    }

    /// Updates block `block_idx`'s operating parameters `(α, b)` — the
    /// "different setup/application profiles" use-case: no re-integration
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range index
    /// or non-positive parameters.
    pub fn set_operating_point(
        &mut self,
        block_idx: usize,
        alpha_s: f64,
        b_per_nm: f64,
    ) -> Result<()> {
        if block_idx >= self.tables.len() {
            return Err(CoreError::InvalidParameter {
                detail: format!("block index {block_idx} out of range"),
            });
        }
        if !(alpha_s > 0.0) || !(b_per_nm > 0.0) {
            return Err(CoreError::InvalidParameter {
                detail: format!("operating point must be positive, got ({alpha_s}, {b_per_nm})"),
            });
        }
        self.tables[block_idx].alpha_s = alpha_s;
        self.tables[block_idx].b_per_nm = b_per_nm;
        Ok(())
    }

    /// Per-block failure probability by bilinear interpolation in
    /// `(γ, b)` at the block's current operating point.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range block
    /// index.
    pub fn block_failure_probability(&self, block_idx: usize, t_s: f64) -> Result<f64> {
        let table = self.table(block_idx)?;
        let gamma = (t_s / table.alpha_s).ln();
        Ok(self.eval_tracked(block_idx, gamma, table.b_per_nm))
    }

    /// Per-block failure probability at an accumulated *effective age*
    /// `ξ_j = ∫ dt / α_j(T(t), V(t))` (dimensionless) and an
    /// instantaneous `b` — the runtime reliability-manager entry point.
    ///
    /// The table integral depends on the operating point only through
    /// `γ = ln(t/α)`, so a piecewise-constant operating history enters
    /// purely as `γ = ln ξ`: under a constant point `ξ = t/α` and this
    /// reduces exactly to
    /// [`block_failure_probability`](HybridTables::block_failure_probability).
    ///
    /// An age of zero (or below) returns `P = 0` without touching the
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an out-of-range block
    /// index or a non-positive `b`.
    pub fn block_failure_probability_at_age(
        &self,
        block_idx: usize,
        effective_age: f64,
        b_per_nm: f64,
    ) -> Result<f64> {
        self.table(block_idx)?;
        if !(b_per_nm > 0.0) {
            return Err(CoreError::InvalidParameter {
                detail: format!("b must be positive, got {b_per_nm}"),
            });
        }
        if effective_age <= 0.0 {
            return Ok(0.0);
        }
        Ok(self.eval_tracked(block_idx, effective_age.ln(), b_per_nm))
    }

    /// Number of queries so far that landed off the table on a
    /// *non-conservative* edge — `γ` above the grid (the clamp then
    /// freezes `ln P` at its edge value and **underestimates** failure),
    /// or `b` outside the grid in either direction. Queries below the
    /// `γ` range are not counted: there the clamp returns the table's
    /// `≈ −700` floor, a vanishing and conservative overestimate.
    ///
    /// A runtime monitor should treat a nonzero count as "the tables
    /// were built too small for this service life" and rebuild with
    /// [`HybridConfig::covering_gamma`] /
    /// [`HybridConfig::covering_b`].
    pub fn off_grid_queries(&self) -> u64 {
        self.off_grid.load(Ordering::Relaxed)
    }

    /// Resets the off-grid query counter to zero.
    pub fn reset_off_grid_queries(&self) {
        self.off_grid.store(0, Ordering::Relaxed);
    }

    fn table(&self, block_idx: usize) -> Result<&BlockTable> {
        self.tables
            .get(block_idx)
            .ok_or_else(|| CoreError::InvalidParameter {
                detail: format!(
                    "block index {block_idx} out of range ({} tables)",
                    self.tables.len()
                ),
            })
    }

    /// The shared `(γ, b)` lookup kernel of every query path (per-block,
    /// sweep, effective-age), with off-grid accounting.
    fn eval_tracked(&self, block_idx: usize, gamma: f64, b_per_nm: f64) -> f64 {
        let (_, g_hi) = self.config.gamma_range;
        let (b_lo, b_hi) = self.config.b_range;
        if gamma > g_hi || b_per_nm < b_lo || b_per_nm > b_hi {
            self.off_grid.fetch_add(1, Ordering::Relaxed);
        }
        let ln_p = self.tables[block_idx].ln_p.eval(gamma, b_per_nm);
        ln_p.exp().min(1.0)
    }

    /// Serializes the tables to JSON (for embedding in a reliability
    /// monitor).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on serialization failure
    /// (does not occur for well-formed tables).
    pub fn to_json(&self) -> Result<String> {
        Ok(self.to_json_value().to_compact())
    }

    /// Serializes the tables to a JSON tree (the artifact cache embeds
    /// this in a larger document without re-parsing).
    pub fn to_json_value(&self) -> statobd_num::json::Json {
        use statobd_num::json::ToJson;
        SerializedTables {
            tables: self.tables.clone(),
            config: self.config,
            composition: self.composition.clone(),
        }
        .to_json()
    }

    /// Restores tables from [`HybridTables::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed input.
    pub fn from_json(json: &str) -> Result<Self> {
        let v = statobd_num::json::Json::parse(json).map_err(|e| CoreError::InvalidParameter {
            detail: format!("deserialization failed: {e}"),
        })?;
        Self::from_json_value(&v)
    }

    /// Restores tables from an already-parsed JSON tree.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for malformed input.
    pub fn from_json_value(v: &statobd_num::json::Json) -> Result<Self> {
        use statobd_num::json::FromJson;
        let s = SerializedTables::from_json(v).map_err(|e| CoreError::InvalidParameter {
            detail: format!("deserialization failed: {e}"),
        })?;
        s.composition
            .validate(s.tables.len())
            .map_err(|e| CoreError::InvalidParameter {
                detail: format!("deserialization failed: {e}"),
            })?;
        Ok(HybridTables {
            tables: s.tables,
            config: s.config,
            composition: s.composition,
            off_grid: AtomicU64::new(0),
        })
    }
}

#[derive(Debug)]
struct SerializedTables {
    tables: Vec<BlockTable>,
    config: HybridConfig,
    /// The chip's composition, saved with the tables it composes. A
    /// document without the member reads as weakest-link: `Composition`'s
    /// [`FromJson::from_missing`](statobd_num::json::FromJson::from_missing)
    /// supplies it.
    composition: Composition,
}

impl_json_struct!(SerializedTables {
    tables,
    config,
    composition
});

impl ReliabilityEngine for HybridTables {
    fn name(&self) -> &str {
        "hybrid"
    }

    /// Batched table interpolation: the per-block `(α, b)` operating
    /// points are hoisted out of the time loop, and long sweeps fan out
    /// over threads one time point per work item (each point's
    /// composition runs in block order, so every entry is bit-identical
    /// to a one-point call at any thread count).
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
        check_times(ts)?;
        // One (α, b) pair per block, resolved once.
        let points: Vec<(f64, f64)> = self
            .tables
            .iter()
            .map(|table| (table.alpha_s, table.b_per_nm))
            .collect();
        let eval_one = |&t_s: &f64| -> f64 {
            let mut chip = self.composition.accumulator(points.len());
            for (j, &(alpha_s, b_per_nm)) in points.iter().enumerate() {
                let gamma = (t_s / alpha_s).ln();
                chip.absorb(j, self.eval_tracked(j, gamma, b_per_nm));
            }
            chip.failure_probability()
        };
        // Lookups are cheap; only fan out when the sweep is long enough to
        // amortize the thread spawn.
        if ts.len() < 256 {
            return Ok(ts.iter().map(eval_one).collect());
        }
        let threads = parallel::resolve_threads(self.config.threads);
        Ok(parallel::run_indexed(ts.len(), threads, |i| {
            eval_one(&ts[i])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{BlockSpec, ChipSpec};
    use crate::engines::st_fast::StFast;
    use statobd_device::{ClosedFormTech, ObdTechnology};
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

    #[test]
    fn hybrid_matches_st_fast_percent_level() {
        let a = analysis();
        let mut hybrid = HybridTables::build(&a, HybridConfig::default()).unwrap();
        let mut fast = StFast::new(&a, StFastConfig::default());
        for &t in &[1e8, 1e9, 5e9] {
            let ph = hybrid.failure_probability(t).unwrap();
            let pf = fast.failure_probability(t).unwrap();
            let rel = ((ph - pf) / pf).abs();
            assert!(
                rel < 0.05,
                "hybrid {ph:.4e} vs st_fast {pf:.4e} at {t:e} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn query_is_fast_relative_to_build() {
        let a = analysis();
        let build_start = std::time::Instant::now();
        let mut hybrid = HybridTables::build(&a, HybridConfig::default()).unwrap();
        let build_time = build_start.elapsed();
        let queries = 1000;
        let q_start = std::time::Instant::now();
        for i in 0..queries {
            let t = 1e8 * (1.0 + i as f64);
            let _ = hybrid.failure_probability(t).unwrap();
        }
        let per_query = q_start.elapsed() / queries;
        // A query must be at least 100x cheaper than the build.
        assert!(
            per_query.as_secs_f64() * 100.0 < build_time.as_secs_f64(),
            "per-query {per_query:?} vs build {build_time:?}"
        );
    }

    #[test]
    fn operating_point_update_tracks_new_temperature() {
        let a = analysis();
        let mut hybrid = HybridTables::build(&a, HybridConfig::default()).unwrap();
        let t = 1e9;
        let p_before = hybrid.failure_probability(t).unwrap();
        // Heat block 1 (the cache) to the core temperature: reliability
        // must get worse without rebuilding.
        let tech = ClosedFormTech::nominal_45nm();
        hybrid
            .set_operating_point(1, tech.alpha(368.15, 1.2), tech.b(368.15))
            .unwrap();
        let p_after = hybrid.failure_probability(t).unwrap();
        assert!(p_after > p_before);
        // And it should now match a fresh st_fast on the hotter spec.
        let model = a.model().clone();
        let hot_spec = a.spec().with_uniform_worst_temperature().unwrap();
        let hot = ChipAnalysis::new(hot_spec, model, &tech).unwrap();
        let pf = StFast::new(&hot, StFastConfig::default())
            .block_failure_probability(1, t)
            .unwrap()
            + StFast::new(&hot, StFastConfig::default())
                .block_failure_probability(0, t)
                .unwrap();
        let rel = ((p_after - pf) / pf).abs();
        assert!(rel < 0.05, "updated hybrid {p_after:.4e} vs {pf:.4e}");
    }

    #[test]
    fn json_round_trip_preserves_results() {
        let a = analysis();
        let mut hybrid = HybridTables::build(&a, HybridConfig::default()).unwrap();
        let json = hybrid.to_json().unwrap();
        let mut restored = HybridTables::from_json(&json).unwrap();
        for &t in &[1e8, 1e9] {
            let a = hybrid.failure_probability(t).unwrap();
            let b = restored.failure_probability(t).unwrap();
            assert!(((a - b) / a).abs() < 1e-12, "{a:e} vs {b:e}");
        }
    }

    #[test]
    fn rejects_bad_config_and_indices() {
        let a = analysis();
        assert!(HybridTables::build(
            &a,
            HybridConfig {
                gamma_range: (0.0, -1.0),
                ..Default::default()
            }
        )
        .is_err());
        assert!(HybridTables::build(
            &a,
            HybridConfig {
                n_gamma: 1,
                ..Default::default()
            }
        )
        .is_err());
        let mut h = HybridTables::build(&a, HybridConfig::default()).unwrap();
        assert!(h.set_operating_point(99, 1e16, 0.6).is_err());
        assert!(h.set_operating_point(0, -1.0, 0.6).is_err());
        // Query paths return errors instead of panicking.
        assert!(h.block_failure_probability(99, 1e9).is_err());
        assert!(h.block_failure_probability_at_age(99, 1e-3, 0.8).is_err());
        assert!(h.block_failure_probability_at_age(0, 1e-3, -0.8).is_err());
    }

    #[test]
    fn age_query_reduces_to_time_query_at_constant_point() {
        // Under a constant operating point ξ = t/α, so the effective-age
        // entry point must reproduce the time query bit for bit.
        let a = analysis();
        let h = HybridTables::build(&a, HybridConfig::default()).unwrap();
        for j in 0..h.n_blocks() {
            let block = &a.blocks()[j];
            for &t in &[1e8, 1e9, 5e9] {
                let p_t = h.block_failure_probability(j, t).unwrap();
                let p_xi = h
                    .block_failure_probability_at_age(j, t / block.alpha_s(), block.b_per_nm())
                    .unwrap();
                assert_eq!(p_t.to_bits(), p_xi.to_bits(), "block {j} at t={t:e}");
            }
        }
        // Zero age is exactly zero probability.
        assert_eq!(
            h.block_failure_probability_at_age(0, 0.0, 0.8).unwrap(),
            0.0
        );
    }

    #[test]
    fn off_grid_queries_are_counted_on_nonconservative_edges() {
        let a = analysis();
        let mut h = HybridTables::build(&a, HybridConfig::default()).unwrap();
        assert_eq!(h.off_grid_queries(), 0);
        // In-range queries do not count.
        let _ = h.block_failure_probability(0, 1e9).unwrap();
        assert_eq!(h.off_grid_queries(), 0);
        // Below the γ range: conservative clamp, not counted.
        let _ = h.block_failure_probability_at_age(0, 1e-30, 0.8).unwrap();
        assert_eq!(h.off_grid_queries(), 0);
        // Above the γ range (age past the table horizon): counted.
        let _ = h.block_failure_probability_at_age(0, 10.0, 0.8).unwrap();
        assert_eq!(h.off_grid_queries(), 1);
        // b outside the grid in either direction: counted.
        let _ = h.block_failure_probability_at_age(0, 1e-3, 0.5).unwrap();
        let _ = h.block_failure_probability_at_age(0, 1e-3, 1.5).unwrap();
        assert_eq!(h.off_grid_queries(), 3);
        h.reset_off_grid_queries();
        assert_eq!(h.off_grid_queries(), 0);
        // The engine-trait paths count too (scalar and batched agree).
        let far_future = 1e18;
        let _ = h.failure_probability(far_future).unwrap();
        let scalar_count = h.off_grid_queries();
        assert_eq!(scalar_count, h.n_blocks() as u64);
        let _ = h.failure_probabilities(&[far_future]).unwrap();
        assert_eq!(h.off_grid_queries(), 2 * scalar_count);
    }

    #[test]
    fn covering_gamma_widens_range_and_keeps_density() {
        let base = HybridConfig::default();
        let wide = base.covering_gamma(6.0);
        assert_eq!(wide.gamma_range, (-30.0, 6.0));
        // Density preserved: 99 intervals over 30 units → 3.3/unit.
        let base_density = (base.n_gamma - 1) as f64 / (base.gamma_range.1 - base.gamma_range.0);
        let wide_density = (wide.n_gamma - 1) as f64 / (wide.gamma_range.1 - wide.gamma_range.0);
        assert!(wide_density >= base_density * 0.999);
        // A no-op when the range already covers the horizon.
        assert_eq!(base.covering_gamma(-5.0), base);
        let wide_b = base.covering_b(0.70, 0.90);
        assert_eq!(wide_b.b_range, (0.70, 0.90));
        assert!(wide_b.n_b > base.n_b);
        assert_eq!(base.covering_b(0.75, 0.85), base);
    }

    #[test]
    fn widened_tables_agree_with_default_on_grid() {
        // Widening the γ range must not change on-grid results beyond
        // interpolation noise (the sample density is preserved, not the
        // sample placement).
        let a = analysis();
        let mut base = HybridTables::build(&a, HybridConfig::default()).unwrap();
        let mut wide =
            HybridTables::build(&a, HybridConfig::default().covering_gamma(5.0)).unwrap();
        for &t in &[1e8, 1e9, 5e9] {
            let pb = base.failure_probability(t).unwrap();
            let pw = wide.failure_probability(t).unwrap();
            let rel = ((pb - pw) / pb).abs();
            assert!(rel < 0.01, "base {pb:e} vs widened {pw:e} at t={t:e}");
        }
        // And the widened table keeps the far tail on-grid.
        wide.reset_off_grid_queries();
        let block = &a.blocks()[0];
        let xi_far = (4.0_f64).exp();
        let _ = wide
            .block_failure_probability_at_age(0, xi_far, block.b_per_nm())
            .unwrap();
        assert_eq!(wide.off_grid_queries(), 0);
    }
}
