//! The reliability engines: different evaluators of the ensemble chip
//! failure probability `P(t) = 1 − R_c(t)`, plus the unified
//! [`build_engine`] construction entry point.

pub mod composition;
pub mod guard;
pub mod hybrid;
pub mod monte_carlo;
pub mod st_closed;
pub mod st_fast;
pub mod st_mc;

use crate::chip::ChipAnalysis;
use crate::gfun::GCoefficients;
use crate::Result;
use composition::Composition;
use guard::{GuardBand, GuardBandConfig};
use statobd_num::parallel;
use std::sync::Mutex;

use hybrid::{HybridConfig, HybridTables};
use monte_carlo::{MonteCarlo, MonteCarloConfig};
use st_closed::StClosed;
use st_fast::{StFast, StFastConfig};
use st_mc::{StMc, StMcConfig};

/// A chip-level reliability evaluator.
///
/// Engines expose the *failure probability* `P(t) = 1 − R_c(t)` rather
/// than `R_c(t)` because the quantities of interest (1- and 10-per-million
/// criteria) live at the `10⁻⁶` scale where `R` itself has no usable
/// precision.
///
/// `&mut self` allows engines to cache (the hybrid engine's tables, the
/// Monte-Carlo engine's chip samples).
pub trait ReliabilityEngine {
    /// A short identifier (`"st_fast"`, `"st_MC"`, `"hybrid"`, `"guard"`,
    /// `"MC"`, ...) matching the paper's method abbreviations.
    fn name(&self) -> &str;

    /// The ensemble failure probabilities at every time in `ts` (seconds),
    /// in order — the one evaluation path of every engine.
    ///
    /// Time sweeps dominate everything downstream of the engines
    /// (failure-rate curves, the Table III benchmarks), and most
    /// engines carry per-evaluation state that is invariant across `t`
    /// (Monte-Carlo chip histograms and bin-weight tables, quadrature node
    /// sets, lookup tables). Every engine in this crate amortizes that
    /// state over the whole sweep, and those with a thread setting fan
    /// the work out across threads; each entry is **bit-identical** to a
    /// one-point call at the same time, at any thread count.
    ///
    /// # Errors
    ///
    /// Every engine in this crate returns
    /// [`crate::CoreError::InvalidParameter`] if any time is not finite
    /// and `> 0`, before evaluating anything; otherwise engine-specific
    /// numerical failures.
    ///
    /// # Example
    ///
    /// ```
    /// use statobd_core::{ReliabilityEngine, Result};
    ///
    /// // A toy engine: P(t) = 1 − exp(−t/1e9).
    /// #[derive(Debug)]
    /// struct Toy;
    /// impl ReliabilityEngine for Toy {
    ///     fn name(&self) -> &str { "toy" }
    ///     fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>> {
    ///         Ok(ts.iter().map(|&t| -(-t / 1e9_f64).exp_m1()).collect())
    ///     }
    /// }
    /// let ps = Toy.failure_probabilities(&[1e8, 1e9])?;
    /// assert_eq!(ps.len(), 2);
    /// assert!(ps[0] < ps[1]);
    /// assert_eq!(Toy.failure_probability(1e8)?, ps[0]);
    /// # Ok::<(), statobd_core::CoreError>(())
    /// ```
    fn failure_probabilities(&mut self, ts: &[f64]) -> Result<Vec<f64>>;

    /// The ensemble failure probability at time `t_s` (seconds): a
    /// one-point
    /// [`failure_probabilities`](ReliabilityEngine::failure_probabilities)
    /// call.
    ///
    /// # Errors
    ///
    /// As for the batched method.
    fn failure_probability(&mut self, t_s: f64) -> Result<f64> {
        Ok(self.failure_probabilities(std::slice::from_ref(&t_s))?[0])
    }
}

/// The time check at the top of every engine's
/// [`failure_probabilities`](ReliabilityEngine::failure_probabilities):
/// an age that is not finite and `> 0` has no failure probability, so
/// the whole sweep is refused before any work.
///
/// # Errors
///
/// Returns [`crate::CoreError::InvalidParameter`] naming the first
/// offending time.
pub(crate) fn check_times(ts: &[f64]) -> Result<()> {
    match ts.iter().find(|&&t| !(t.is_finite() && t > 0.0)) {
        Some(t) => Err(crate::CoreError::InvalidParameter {
            detail: format!("time must be finite and > 0 s, got {t}"),
        }),
        None => Ok(()),
    }
}

/// Sweep times per `(block × time-chunk)` work item of [`sweep`]. Fixed
/// (never thread-derived) so chunk boundaries — and therefore results —
/// are independent of the worker count; large enough that per-item
/// dispatch cost is amortized over many lane chunks.
const T_CHUNK: usize = 64;

/// What an engine reads of one block at query time, copied out of the
/// [`ChipAnalysis`] when the engine is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRecord {
    /// The Weibull scale `α_j` (s).
    pub(crate) alpha_s: f64,
    /// The Weibull thickness coefficient `b_j` (1/nm).
    pub(crate) b_per_nm: f64,
    /// The block's gate area `A_j`.
    pub(crate) area: f64,
    /// The block's device count `m_j`.
    pub(crate) m_devices: u64,
}

impl BlockRecord {
    /// The `g`-kernel coefficients at time `t_s`.
    pub(crate) fn coefficients(&self, t_s: f64) -> GCoefficients {
        GCoefficients::at(t_s, self.alpha_s, self.b_per_nm)
    }
}

/// What an engine owns of its chip: every block's record, in block
/// order, and the chip's composition.
#[derive(Debug, Clone)]
pub(crate) struct ChipRecord {
    pub(crate) blocks: Vec<BlockRecord>,
    pub(crate) composition: Composition,
}

impl ChipRecord {
    /// The copy of `analysis` an engine keeps.
    pub(crate) fn of(analysis: &ChipAnalysis) -> Self {
        let blocks = analysis
            .blocks()
            .iter()
            .map(|block| BlockRecord {
                alpha_s: block.alpha_s(),
                b_per_nm: block.b_per_nm(),
                area: block.spec().area(),
                m_devices: block.spec().m_devices(),
            })
            .collect();
        ChipRecord {
            blocks,
            composition: analysis.composition().clone(),
        }
    }

    /// [`sweep`] over this chip's blocks.
    pub(crate) fn sweep(
        &self,
        ts: &[f64],
        threads: Option<usize>,
        fan_out_at: usize,
        kernel: impl Fn(usize, &[f64], &mut [f64]) -> Result<()> + Sync,
    ) -> Result<Vec<f64>> {
        let n_blocks = self.blocks.len();
        sweep(ts, n_blocks, &self.composition, threads, fan_out_at, kernel)
    }
}

/// The one sweep of the marginal engines — st_fast, st_MC, st_closed and
/// hybrid — which differ only in how they evaluate one block's `P_j(t)`
/// (eqs. 18 and 28): `kernel(j, times, out)` writes block `j`'s
/// probabilities at `times` into `out`.
///
/// The sweep refuses any time that is not finite and `> 0`
/// ([`check_times`]) before evaluating anything. It then runs the kernel
/// over `(block × time-chunk)` items of up to [`T_CHUNK`] times and
/// composes each time's block probabilities in block order through the
/// chip's [`CompositionAccumulator`](composition::CompositionAccumulator).
/// A sweep of at least `fan_out_at` times spreads its items over the
/// engine's `threads` setting; a shorter one runs serially and reads no
/// thread count, and a one-point call composes each block as it goes.
/// Chunk boundaries never depend on the thread count, so every entry is
/// bit-identical to a one-point call at any thread count.
///
/// # Errors
///
/// [`crate::CoreError::InvalidParameter`] for a bad time; otherwise the
/// error of a failed kernel call — the first in `(block, chunk)` order
/// when the sweep runs serially.
pub(crate) fn sweep(
    ts: &[f64],
    n_blocks: usize,
    composition: &Composition,
    threads: Option<usize>,
    fan_out_at: usize,
    kernel: impl Fn(usize, &[f64], &mut [f64]) -> Result<()> + Sync,
) -> Result<Vec<f64>> {
    check_times(ts)?;
    let mut chip = composition.accumulator(n_blocks);
    // A one-point call absorbs each block as soon as its kernel returns:
    // evaluating every block before composing, as longer sweeps do, ran
    // hybrid's one-point lookups ~25% slower.
    if let [_] = ts {
        let mut p = [0.0];
        for j in 0..n_blocks {
            kernel(j, ts, &mut p)?;
            chip.absorb(j, p[0]);
        }
        return Ok(vec![chip.failure_probability()]);
    }
    let n_t = ts.len();
    // Block j's chunks lie back to back in row j, so time i sits at
    // `j * row + i`.
    let chunk = n_t.clamp(1, T_CHUNK);
    let chunks = n_t.div_ceil(chunk);
    let row = chunks * chunk;
    let mut per_block = vec![0.0; n_blocks * row];
    let threads = if n_t < fan_out_at { Some(1) } else { threads };
    let failed = Mutex::new(None);
    let workers = parallel::resolve_threads(threads);
    parallel::for_each_chunk_mut(&mut per_block, chunk, workers, |item, out| {
        let lo = (item % chunks) * chunk;
        let hi = n_t.min(lo + chunk);
        if let Err(e) = kernel(item / chunks, &ts[lo..hi], &mut out[..hi - lo]) {
            let mut failed = failed.lock().expect("no worker panics holding it");
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed.into_inner().expect("no worker panics holding it") {
        return Err(e);
    }
    Ok((0..n_t)
        .map(|i| {
            chip.reset();
            for j in 0..n_blocks {
                chip.absorb(j, per_block[j * row + i]);
            }
            chip.failure_probability()
        })
        .collect())
}

/// The available reliability engines, by the paper's Table III
/// abbreviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`StFast`] — the paper's main marginal-product method.
    StFast,
    /// [`StMc`] — numerical joint-PDF variant.
    StMc,
    /// [`StClosed`] — fully closed-form first-order evaluation.
    StClosed,
    /// [`HybridTables`] — precomputed `(γ, b)` look-up tables.
    Hybrid,
    /// [`GuardBand`] — traditional worst-case corner.
    GuardBand,
    /// [`MonteCarlo`] — per-device reference simulation.
    MonteCarlo,
}

impl EngineKind {
    /// All engine kinds, in the paper's Table III order.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::StFast,
        EngineKind::StMc,
        EngineKind::StClosed,
        EngineKind::Hybrid,
        EngineKind::GuardBand,
        EngineKind::MonteCarlo,
    ];

    /// The paper's abbreviation (matches [`ReliabilityEngine::name`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::StFast => "st_fast",
            EngineKind::StMc => "st_MC",
            EngineKind::StClosed => "st_closed",
            EngineKind::Hybrid => "hybrid",
            EngineKind::GuardBand => "guard",
            EngineKind::MonteCarlo => "MC",
        }
    }

    /// Parses a paper abbreviation (as printed by [`EngineKind::name`],
    /// case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidParameter`] for an unknown name,
    /// with the closest valid abbreviation as a did-you-mean suggestion —
    /// the CLI/server boundary where `st_MC` vs `st_mc` casing used to be
    /// a silent foot-gun.
    pub fn parse(s: &str) -> Result<Self> {
        if let Some(kind) = EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
        {
            return Ok(kind);
        }
        let nearest = EngineKind::ALL
            .into_iter()
            .min_by_key(|k| edit_distance(&s.to_ascii_lowercase(), &k.name().to_ascii_lowercase()))
            .map(|k| k.name())
            .unwrap_or("st_fast");
        let all = EngineKind::ALL.map(EngineKind::name).join(", ");
        Err(crate::CoreError::InvalidParameter {
            detail: format!("unknown engine '{s}' (did you mean '{nearest}'? one of: {all})"),
        })
    }

    /// The default configuration for this kind.
    pub fn default_spec(self) -> EngineSpec {
        match self {
            EngineKind::StFast => EngineSpec::StFast(StFastConfig::default()),
            EngineKind::StMc => EngineSpec::StMc(StMcConfig::default()),
            EngineKind::StClosed => EngineSpec::StClosed,
            EngineKind::Hybrid => EngineSpec::Hybrid(HybridConfig::default()),
            EngineKind::GuardBand => EngineSpec::GuardBand(GuardBandConfig::default()),
            EngineKind::MonteCarlo => EngineSpec::MonteCarlo(MonteCarloConfig::default()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Levenshtein edit distance — the did-you-mean metric for
/// [`EngineKind::parse`] and other small-menu name parsers (mission
/// profiles, CLI subcommands). The candidate sets are a handful of short
/// names, so the textbook two-row dynamic program is plenty.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// An engine selection together with its configuration — the input to
/// [`build_engine`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSpec {
    /// Build an [`StFast`] engine.
    StFast(StFastConfig),
    /// Build an [`StMc`] engine.
    StMc(StMcConfig),
    /// Build an [`StClosed`] engine (no configuration).
    StClosed,
    /// Build a [`HybridTables`] engine.
    Hybrid(HybridConfig),
    /// Build a [`GuardBand`] engine.
    GuardBand(GuardBandConfig),
    /// Build a [`MonteCarlo`] engine.
    MonteCarlo(MonteCarloConfig),
}

impl EngineSpec {
    /// The kind this spec builds.
    pub fn kind(&self) -> EngineKind {
        match self {
            EngineSpec::StFast(_) => EngineKind::StFast,
            EngineSpec::StMc(_) => EngineKind::StMc,
            EngineSpec::StClosed => EngineKind::StClosed,
            EngineSpec::Hybrid(_) => EngineKind::Hybrid,
            EngineSpec::GuardBand(_) => EngineKind::GuardBand,
            EngineSpec::MonteCarlo(_) => EngineKind::MonteCarlo,
        }
    }

    /// Overrides the worker-thread count on the kinds that fan out
    /// (`st_fast`, `st_MC`, `MC`, `hybrid`); a no-op for the rest.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        match &mut self {
            EngineSpec::StFast(c) => c.threads = threads,
            EngineSpec::StMc(c) => c.threads = threads,
            EngineSpec::MonteCarlo(c) => c.threads = threads,
            EngineSpec::Hybrid(c) => c.threads = threads,
            EngineSpec::StClosed | EngineSpec::GuardBand(_) => {}
        }
        self
    }
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineKind::StFast.default_spec()
    }
}

impl statobd_num::json::ToJson for EngineSpec {
    /// Serializes as the kind name for a default-free kind (`"st_closed"`)
    /// and as a single-key object `{"<kind>": {<config>}}` otherwise —
    /// the workspace's standard enum encoding.
    fn to_json(&self) -> statobd_num::json::Json {
        use statobd_num::json::Json;
        let tagged =
            |kind: EngineKind, config: Json| Json::Object(vec![(kind.name().to_string(), config)]);
        match self {
            EngineSpec::StFast(c) => tagged(EngineKind::StFast, c.to_json()),
            EngineSpec::StMc(c) => tagged(EngineKind::StMc, c.to_json()),
            EngineSpec::StClosed => Json::String(EngineKind::StClosed.name().to_string()),
            EngineSpec::Hybrid(c) => tagged(EngineKind::Hybrid, c.to_json()),
            EngineSpec::GuardBand(c) => tagged(EngineKind::GuardBand, c.to_json()),
            EngineSpec::MonteCarlo(c) => tagged(EngineKind::MonteCarlo, c.to_json()),
        }
    }
}

impl statobd_num::json::FromJson for EngineSpec {
    /// Accepts either a bare kind name (default configuration — handy in
    /// hand-written specs) or the tagged single-key object form.
    fn from_json(v: &statobd_num::json::Json) -> statobd_num::json::Result<Self> {
        use statobd_num::json::JsonError;
        if let Some(name) = v.as_str() {
            return EngineKind::parse(name)
                .map(EngineKind::default_spec)
                .map_err(|e| JsonError::new(e.to_string()));
        }
        let members = v
            .as_object()
            .ok_or_else(|| JsonError::new(format!("expected an engine spec, got {v}")))?;
        let [(key, config)] = members else {
            return Err(JsonError::new(format!(
                "expected a single-key engine object, got {} keys",
                members.len()
            )));
        };
        let kind = EngineKind::parse(key).map_err(|e| JsonError::new(e.to_string()))?;
        Ok(match kind {
            EngineKind::StFast => EngineSpec::StFast(StFastConfig::from_json(config)?),
            EngineKind::StMc => EngineSpec::StMc(StMcConfig::from_json(config)?),
            EngineKind::StClosed => EngineSpec::StClosed,
            EngineKind::Hybrid => EngineSpec::Hybrid(HybridConfig::from_json(config)?),
            EngineKind::GuardBand => EngineSpec::GuardBand(GuardBandConfig::from_json(config)?),
            EngineKind::MonteCarlo => EngineSpec::MonteCarlo(MonteCarloConfig::from_json(config)?),
        })
    }
}

impl From<EngineKind> for EngineSpec {
    fn from(kind: EngineKind) -> Self {
        kind.default_spec()
    }
}

/// Builds any reliability engine over a characterized chip — the single
/// construction entry point used by the CLI, the benchmarks, and the
/// examples.
///
/// Every engine copies what it reads at query time out of `analysis`
/// when it is built, so the returned engine owns its data and outlives
/// the borrow.
///
/// # Errors
///
/// Propagates the underlying constructor's validation errors
/// ([`crate::CoreError::InvalidParameter`] for degenerate configurations,
/// numerical failures from table/sample construction).
///
/// # Example
///
/// ```no_run
/// use statobd_core::{build_engine, ChipAnalysis, EngineKind};
/// # fn demo(analysis: &ChipAnalysis) -> statobd_core::Result<()> {
/// let mut engine = build_engine(analysis, &EngineKind::StFast.default_spec())?;
/// let p = engine.failure_probability(1e9)?;
/// # let _ = p; Ok(())
/// # }
/// ```
pub fn build_engine(
    analysis: &ChipAnalysis,
    spec: &EngineSpec,
) -> Result<Box<dyn ReliabilityEngine>> {
    Ok(match spec {
        EngineSpec::StFast(config) => Box::new(StFast::new(analysis, *config)),
        EngineSpec::StMc(config) => Box::new(StMc::new(analysis, *config)?),
        EngineSpec::StClosed => Box::new(StClosed::new(analysis)),
        EngineSpec::Hybrid(config) => Box::new(HybridTables::build(analysis, *config)?),
        EngineSpec::GuardBand(config) => Box::new(GuardBand::new(analysis, *config)?),
        EngineSpec::MonteCarlo(config) => Box::new(MonteCarlo::build(analysis, *config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::composition::Composition;
    use super::*;

    /// The paper's chip composition of per-block failure probabilities.
    fn weakest_link(ps: &[f64]) -> f64 {
        Composition::WeakestLink.compose(ps)
    }

    #[test]
    fn weakest_link_matches_direct_product() {
        // Moderate probabilities: compare against the direct product.
        let ps = [0.1, 0.25, 0.5];
        let direct = 1.0 - ps.iter().map(|p| 1.0 - p).product::<f64>();
        let composed = weakest_link(&ps);
        assert!((composed - direct).abs() < 1e-15, "{composed} vs {direct}");
    }

    #[test]
    fn weakest_link_keeps_precision_in_the_per_million_regime() {
        // 100 blocks at 1e-8 each: P = 1 − (1 − 1e-8)^100. The naive
        // 1 − product form would round each factor; the log-survival
        // form keeps ~15 significant digits.
        let composed = weakest_link(&[1e-8; 100]);
        let exact = -(100.0 * (-1e-8_f64).ln_1p()).exp_m1();
        assert!(
            ((composed - exact) / exact).abs() < 1e-14,
            "{composed:e} vs {exact:e}"
        );
        // And it is strictly below the first-order sum.
        assert!(composed < 100.0 * 1e-8);
    }

    #[test]
    fn weakest_link_saturates_at_one() {
        assert_eq!(weakest_link(&[0.3, 1.0, 0.2]), 1.0);
        // Out-of-range inputs are clamped, never amplified.
        assert_eq!(weakest_link(&[1.5]), 1.0);
        assert_eq!(weakest_link(&[-0.5]), 0.0);
        assert_eq!(weakest_link(&[]), 0.0);
    }

    // Regression for the silent NaN absorption: a NaN block probability
    // used to poison `ln_survival` with no diagnostic. Debug builds now
    // panic at the offending `absorb`; release builds deterministically
    // treat the block as failed.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN"))]
    fn weakest_link_rejects_nan_deterministically() {
        assert_eq!(weakest_link(&[0.25, f64::NAN]), 1.0);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(
                EngineKind::parse(&kind.name().to_uppercase()).unwrap(),
                kind
            );
            assert_eq!(kind.default_spec().kind(), kind);
        }
    }

    #[test]
    fn parse_suggests_the_nearest_name() {
        // Typos map to a useful did-you-mean, not a bare failure.
        for (typo, suggestion) in [
            ("st_fst", "st_fast"),
            ("hybird", "hybrid"),
            ("gaurd", "guard"),
            ("st_mcc", "st_MC"),
        ] {
            let err = EngineKind::parse(typo).unwrap_err().to_string();
            assert!(
                err.contains(&format!("did you mean '{suggestion}'")),
                "{typo}: {err}"
            );
        }
        // The error always lists the full menu.
        let err = EngineKind::parse("zzz").unwrap_err().to_string();
        for kind in EngineKind::ALL {
            assert!(err.contains(kind.name()), "{err}");
        }
    }

    #[test]
    fn engine_spec_json_round_trips() {
        use statobd_num::json::{from_str, to_string};
        for kind in EngineKind::ALL {
            let spec = kind.default_spec().with_threads(Some(3));
            let back: EngineSpec = from_str(&to_string(&spec)).unwrap();
            assert_eq!(back, spec, "{kind}");
        }
        // A bare kind name parses as the default configuration.
        let spec: EngineSpec = from_str("\"hybrid\"").unwrap();
        assert_eq!(spec, EngineKind::Hybrid.default_spec());
        // Unknown kinds are rejected with the did-you-mean message.
        let err = from_str::<EngineSpec>("\"hybird\"").unwrap_err();
        assert!(err.to_string().contains("did you mean"), "{err}");
        assert!(from_str::<EngineSpec>("{\"st_fast\":{},\"MC\":{}}").is_err());
    }

    #[test]
    fn with_threads_applies_to_fanout_engines() {
        let spec = EngineSpec::StFast(StFastConfig::default()).with_threads(Some(3));
        assert!(matches!(spec, EngineSpec::StFast(c) if c.threads == Some(3)));
        let spec = EngineSpec::MonteCarlo(MonteCarloConfig::default()).with_threads(Some(2));
        assert!(matches!(spec, EngineSpec::MonteCarlo(c) if c.threads == Some(2)));
        // The hybrid table build fans out too (one γ-row per work item).
        let spec = EngineSpec::Hybrid(HybridConfig::default()).with_threads(Some(5));
        assert!(matches!(spec, EngineSpec::Hybrid(c) if c.threads == Some(5)));
        // No-op on engines without a fan-out.
        assert_eq!(
            EngineSpec::StClosed.with_threads(Some(4)),
            EngineSpec::StClosed
        );
    }
}
