//! The declarative analysis specification — one JSON-serializable value
//! that captures *everything* needed to compile a reliability model:
//! which design, how the substrate is configured, the thickness-variation
//! model inputs, the technology parameters and the engine selection.
//!
//! An [`AnalysisSpec`] replaces the imperative five-step build dance
//! (`build_design` → `ThicknessModelBuilder` → `ChipAnalysis` →
//! `build_engine`) with a single value handed to
//! [`Session::build`](crate::Session::build). Because the spec is a pure
//! value, it also keys the artifact cache: [`AnalysisSpec::spec_hash`]
//! hashes the *canonical* form — defaults resolved, the thread count
//! stripped (results are bit-identical at any thread count) — so two
//! specs that mean the same analysis share one cache entry.
//!
//! # Example
//!
//! ```
//! use statobd::{AnalysisSpec, EngineKind};
//! use statobd::circuits::Benchmark;
//!
//! let spec = AnalysisSpec::benchmark(Benchmark::C1).with_engine(EngineKind::StClosed);
//! // Round-trips through JSON, and the hash ignores the thread count.
//! let json = statobd::num::json::to_string_pretty(&spec);
//! let back: AnalysisSpec = statobd::num::json::from_str(&json)?;
//! assert_eq!(back.spec_hash()?, spec.clone().with_threads(Some(4)).spec_hash()?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::{Error, Result};
use statobd_circuits::Benchmark;
use statobd_core::{params, ChipSpec, Composition, EngineKind, EngineSpec};
use statobd_device::ClosedFormTech;
use statobd_num::hash::fnv1a_hex;
use statobd_num::impl_json_struct;
use statobd_num::json::{FromJson, Json, JsonError, ToJson};
use statobd_thermal::ThermalConfig;
use statobd_variation::{CorrelationKernel, SystematicPattern, VarianceBudget};

/// Which design the analysis targets.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A bundled benchmark (C1–C6, MC16): the floorplan, power model and
    /// thermal profile are generated by the substrate pipeline.
    Benchmark(Benchmark),
    /// An explicit chip specification with pre-assigned block temperatures
    /// and correlation-grid weights; the variation grid is the unit square
    /// at the spec's `grid_side`.
    Chip(ChipSpec),
}

impl ToJson for DesignSource {
    fn to_json(&self) -> Json {
        match self {
            DesignSource::Benchmark(b) => {
                Json::Object(vec![("benchmark".to_string(), b.to_json())])
            }
            DesignSource::Chip(spec) => Json::Object(vec![("chip".to_string(), spec.to_json())]),
        }
    }
}

impl FromJson for DesignSource {
    fn from_json(json: &Json) -> std::result::Result<Self, JsonError> {
        // Accept the bare benchmark name as shorthand for the object form.
        if json.as_str().is_some() {
            return Ok(DesignSource::Benchmark(Benchmark::from_json(json)?));
        }
        let members = json
            .as_object()
            .ok_or_else(|| JsonError::new("design: expected a string or a single-key object"))?;
        let [(key, value)] = members else {
            return Err(JsonError::new(
                "design: expected exactly one of 'benchmark' or 'chip'",
            ));
        };
        match key.as_str() {
            "benchmark" => Ok(DesignSource::Benchmark(Benchmark::from_json(value)?)),
            "chip" => Ok(DesignSource::Chip(ChipSpec::from_json(value)?)),
            other => Err(JsonError::new(format!(
                "design: unknown source '{other}' (expected 'benchmark' or 'chip')"
            ))),
        }
    }
}

/// The oxide-thickness variation-model inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Nominal oxide thickness (nm).
    pub nominal_nm: f64,
    /// Variance decomposition; `None` resolves to the ITRS-2008 budget at
    /// `nominal_nm`.
    pub budget: Option<VarianceBudget>,
    /// Spatial correlation kernel of the systematic component.
    pub kernel: CorrelationKernel,
    /// Deterministic wafer-level thickness pattern (absent = none).
    pub systematic: SystematicPattern,
}

impl_json_struct!(ModelSpec {
    nominal_nm,
    budget,
    kernel,
    systematic,
});

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec {
            nominal_nm: params::NOMINAL_THICKNESS_NM,
            budget: None,
            kernel: CorrelationKernel::Exponential {
                rel_distance: params::DEFAULT_CORRELATION_DISTANCE,
            },
            systematic: SystematicPattern::None,
        }
    }
}

impl ModelSpec {
    /// The variance budget with the `None` default resolved.
    ///
    /// # Errors
    ///
    /// Propagates [`VarianceBudget::itrs_2008`] rejection of a
    /// non-positive nominal thickness.
    pub fn resolved_budget(&self) -> Result<VarianceBudget> {
        match self.budget {
            Some(b) => Ok(b),
            None => VarianceBudget::itrs_2008(self.nominal_nm).map_err(Error::from),
        }
    }
}

/// The OBD technology model selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TechSpec {
    /// The bundled representative 45 nm-class calibration
    /// ([`ClosedFormTech::nominal_45nm`]).
    Nominal45nm,
    /// Explicit closed-form parameters.
    ClosedForm(ClosedFormTech),
}

impl TechSpec {
    /// The concrete technology model this spec denotes.
    pub fn tech(&self) -> ClosedFormTech {
        match self {
            TechSpec::Nominal45nm => ClosedFormTech::nominal_45nm(),
            TechSpec::ClosedForm(t) => *t,
        }
    }
}

impl ToJson for TechSpec {
    fn to_json(&self) -> Json {
        match self {
            TechSpec::Nominal45nm => Json::String("nominal_45nm".to_string()),
            TechSpec::ClosedForm(t) => Json::Object(vec![("closed_form".to_string(), t.to_json())]),
        }
    }
}

impl FromJson for TechSpec {
    fn from_json(json: &Json) -> std::result::Result<Self, JsonError> {
        if let Some(name) = json.as_str() {
            return if name == "nominal_45nm" {
                Ok(TechSpec::Nominal45nm)
            } else {
                Err(JsonError::new(format!(
                    "tech: unknown technology '{name}' (expected 'nominal_45nm' or a \
                     {{\"closed_form\": ...}} object)"
                )))
            };
        }
        let members = json
            .as_object()
            .ok_or_else(|| JsonError::new("tech: expected a string or a single-key object"))?;
        let [(key, value)] = members else {
            return Err(JsonError::new("tech: expected exactly one key"));
        };
        if key != "closed_form" {
            return Err(JsonError::new(format!(
                "tech: unknown technology '{key}' (expected 'closed_form')"
            )));
        }
        Ok(TechSpec::ClosedForm(ClosedFormTech::from_json(value)?))
    }
}

/// A complete, declarative description of one reliability analysis.
///
/// Every field except [`design`](Self::design) has a default, and the
/// JSON form may omit defaulted fields — parsing fills them in. The
/// canonical form (what [`spec_hash`](Self::spec_hash) hashes) always
/// spells every field out, with [`threads`](Self::threads) stripped, so
/// specs that denote the same analysis key the same cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSpec {
    /// The design under analysis.
    pub design: DesignSource,
    /// Correlation-grid resolution per axis (paper default 25).
    pub grid_side: usize,
    /// Thermal solver configuration (benchmark designs only; an explicit
    /// chip spec carries its own temperatures).
    pub thermal: ThermalConfig,
    /// Supply voltage applied to every block (V).
    pub vdd_v: f64,
    /// Normalized gate area per device (minimum-device-area units).
    pub area_per_device: f64,
    /// Thickness-variation model inputs.
    pub model: ModelSpec,
    /// OBD technology parameters.
    pub tech: TechSpec,
    /// Engine selection and configuration.
    pub engine: EngineSpec,
    /// How block failures compose into chip failure: weakest-link (the
    /// default), or k-out-of-n redundancy groups with spares. Omitted
    /// from the JSON and canonical forms when weakest-link, so existing
    /// specs, hashes and cached artifacts are untouched.
    pub composition: Composition,
    /// Worker threads for parallel stages (`None` = the `STATOBD_THREADS`
    /// environment variable, then all cores). Excluded from the cache key:
    /// results are bit-identical at any thread count.
    pub threads: Option<usize>,
}

impl AnalysisSpec {
    /// A default-configured spec for a bundled benchmark.
    pub fn benchmark(benchmark: Benchmark) -> Self {
        AnalysisSpec::for_design(DesignSource::Benchmark(benchmark))
    }

    /// A default-configured spec for an explicit chip specification.
    pub fn chip(spec: ChipSpec) -> Self {
        AnalysisSpec::for_design(DesignSource::Chip(spec))
    }

    fn for_design(design: DesignSource) -> Self {
        AnalysisSpec {
            design,
            grid_side: params::DEFAULT_GRID_SIDE,
            thermal: ThermalConfig::default(),
            vdd_v: params::NOMINAL_VDD_V,
            area_per_device: 1.0,
            model: ModelSpec::default(),
            tech: TechSpec::Nominal45nm,
            engine: EngineSpec::default(),
            composition: Composition::WeakestLink,
            threads: None,
        }
    }

    /// Replaces the engine with `kind`'s default configuration.
    pub fn with_engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind.default_spec();
        self
    }

    /// Replaces the engine configuration wholesale.
    pub fn with_engine_spec(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the correlation-grid side.
    pub fn with_grid_side(mut self, side: usize) -> Self {
        self.grid_side = side;
        self
    }

    /// Sets the block-failure composition (validated against the block
    /// count at build time; [`validate`](Self::validate) checks explicit
    /// chip designs up front).
    pub fn with_composition(mut self, composition: Composition) -> Self {
        self.composition = composition;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the spec's scalar parameters, rejecting values that would
    /// only fail (or silently produce nonsense) deep inside the build.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.grid_side == 0 {
            return Err(Error::Spec(
                "grid_side: the correlation grid needs at least one cell per side".to_string(),
            ));
        }
        if !(self.vdd_v > 0.0) || !self.vdd_v.is_finite() {
            return Err(Error::Spec(format!(
                "vdd_v: supply voltage must be positive and finite, got {}",
                self.vdd_v
            )));
        }
        if !(self.area_per_device > 0.0) || !self.area_per_device.is_finite() {
            return Err(Error::Spec(format!(
                "area_per_device: must be positive and finite, got {}",
                self.area_per_device
            )));
        }
        if !(self.model.nominal_nm > 0.0) || !self.model.nominal_nm.is_finite() {
            return Err(Error::Spec(format!(
                "model.nominal_nm: nominal thickness must be positive and finite, got {}",
                self.model.nominal_nm
            )));
        }
        if !self.model.kernel.is_valid() {
            return Err(Error::Spec(format!(
                "model.kernel: invalid correlation kernel {:?}",
                self.model.kernel
            )));
        }
        if self.threads == Some(0) {
            return Err(Error::Spec(
                "threads: need at least one worker thread".to_string(),
            ));
        }
        if let DesignSource::Chip(chip) = &self.design {
            if chip.n_blocks() == 0 {
                return Err(Error::Spec(
                    "design.chip: the chip spec has no blocks".to_string(),
                ));
            }
            // Benchmarks resolve their block count at build time; an
            // explicit chip spec can be checked here.
            self.composition
                .validate(chip.n_blocks())
                .map_err(|e| Error::Spec(format!("composition: {e}")))?;
        }
        Ok(())
    }

    /// The canonical form: defaults resolved (the variance budget is
    /// spelled out) and the thread count stripped, both at the top level
    /// and inside the engine configuration.
    ///
    /// # Errors
    ///
    /// Propagates default-budget resolution failure.
    pub fn canonical(&self) -> Result<AnalysisSpec> {
        let mut canon = self.clone();
        canon.model.budget = Some(self.model.resolved_budget()?);
        canon.threads = None;
        canon.engine = canon.engine.with_threads(None);
        Ok(canon)
    }

    /// The canonical compact-JSON rendering — the cache-key preimage.
    ///
    /// # Errors
    ///
    /// Propagates [`canonical`](Self::canonical) failure.
    pub fn canonical_json(&self) -> Result<String> {
        Ok(self.canonical()?.to_json().to_compact())
    }

    /// The content hash keying the artifact cache: FNV-1a 64 (hex) of the
    /// canonical compact JSON. Stable across platforms and toolchains.
    ///
    /// # Errors
    ///
    /// Propagates [`canonical`](Self::canonical) failure.
    pub fn spec_hash(&self) -> Result<String> {
        Ok(fnv1a_hex(self.canonical_json()?.as_bytes()))
    }
}

/// The names `thermal.solver` could hold when a spec chose the thermal
/// linear solver. MGCG is the only solver now, but every spec hash covers
/// the member, so it stays on the wire and nowhere else: written as
/// `"auto"` right after `c_volumetric`, optional on read, and any other
/// name is an error.
const THERMAL_SOLVER_NAMES: [&str; 5] = ["auto", "mgcg", "multigrid", "ic0_pcg", "ic0"];

/// The thermal configuration's JSON with the wire-only `solver` member.
fn thermal_to_json(thermal: &ThermalConfig) -> Json {
    let mut json = thermal.to_json();
    let Json::Object(members) = &mut json else {
        unreachable!("ThermalConfig::to_json builds an object");
    };
    let at = members
        .iter()
        .position(|(k, _)| k == "c_volumetric")
        .expect("ThermalConfig::to_json writes c_volumetric");
    members.insert(
        at + 1,
        ("solver".to_string(), Json::String("auto".to_string())),
    );
    json
}

impl ToJson for AnalysisSpec {
    fn to_json(&self) -> Json {
        let mut json = Json::Object(vec![
            ("design".to_string(), self.design.to_json()),
            ("grid_side".to_string(), self.grid_side.to_json()),
            ("thermal".to_string(), thermal_to_json(&self.thermal)),
            ("vdd_v".to_string(), self.vdd_v.to_json()),
            (
                "area_per_device".to_string(),
                self.area_per_device.to_json(),
            ),
            ("model".to_string(), self.model.to_json()),
            ("tech".to_string(), self.tech.to_json()),
            ("engine".to_string(), self.engine.to_json()),
            ("threads".to_string(), self.threads.to_json()),
        ]);
        // The weakest-link default is omitted so pre-composition spec
        // renderings — and therefore spec hashes and cache keys — are
        // byte-identical to what they were before redundancy groups
        // existed.
        if !self.composition.is_weakest_link() {
            let Json::Object(members) = &mut json else {
                unreachable!("AnalysisSpec::to_json builds an object");
            };
            members.push(("composition".to_string(), self.composition.to_json()));
        }
        json
    }
}

impl FromJson for AnalysisSpec {
    fn from_json(json: &Json) -> std::result::Result<Self, JsonError> {
        let members = json
            .as_object()
            .ok_or_else(|| JsonError::new("AnalysisSpec: expected an object"))?;
        let field = |name: &str| members.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        // Every field except `design` may be omitted; parsing fills in the
        // same defaults the Rust constructors use.
        let design = match field("design") {
            Some(v) => DesignSource::from_json(v)?,
            None => return Err(JsonError::new("AnalysisSpec: missing field 'design'")),
        };
        let mut spec = AnalysisSpec::for_design(design);
        if let Some(v) = field("grid_side") {
            spec.grid_side = usize::from_json(v)?;
        }
        if let Some(v) = field("thermal") {
            if let Some(solver) = v.get("solver") {
                let name = solver.as_str().map(|s| s.trim().to_ascii_lowercase());
                if !name.is_some_and(|n| THERMAL_SOLVER_NAMES.contains(&n.as_str())) {
                    return Err(JsonError::new(format!(
                        "unknown thermal solver {solver} (expected {})",
                        THERMAL_SOLVER_NAMES.join(", ")
                    )));
                }
            }
            spec.thermal = ThermalConfig::from_json(v)?;
        }
        if let Some(v) = field("vdd_v") {
            spec.vdd_v = f64::from_json(v)?;
        }
        if let Some(v) = field("area_per_device") {
            spec.area_per_device = f64::from_json(v)?;
        }
        if let Some(v) = field("model") {
            spec.model = ModelSpec::from_json(v)?;
        }
        if let Some(v) = field("tech") {
            spec.tech = TechSpec::from_json(v)?;
        }
        if let Some(v) = field("engine") {
            spec.engine = EngineSpec::from_json(v)?;
        }
        if let Some(v) = field("threads") {
            spec.threads = Option::<usize>::from_json(v)?;
        }
        if let Some(v) = field("composition") {
            spec.composition = Composition::from_json(v)?;
        }
        const KNOWN: [&str; 10] = [
            "design",
            "grid_side",
            "thermal",
            "vdd_v",
            "area_per_device",
            "model",
            "tech",
            "engine",
            "threads",
            "composition",
        ];
        if let Some((unknown, _)) = members.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(JsonError::new(format!(
                "AnalysisSpec: unknown field '{unknown}'"
            )));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statobd_num::json;

    #[test]
    fn json_round_trips_and_minimal_specs_parse() {
        let spec = AnalysisSpec::benchmark(Benchmark::C3)
            .with_engine(EngineKind::Hybrid)
            .with_threads(Some(2));
        let back: AnalysisSpec = json::from_str(&json::to_string(&spec)).unwrap();
        assert_eq!(back, spec);

        // A minimal hand-written spec: defaults fill in.
        let minimal: AnalysisSpec = json::from_str(r#"{"design": "C1"}"#).unwrap();
        assert_eq!(minimal, AnalysisSpec::benchmark(Benchmark::C1));
    }

    #[test]
    fn hash_ignores_threads_and_resolved_defaults() {
        let base = AnalysisSpec::benchmark(Benchmark::C1);
        let threaded = base
            .clone()
            .with_threads(Some(8))
            .with_engine_spec(EngineKind::StFast.default_spec().with_threads(Some(8)));
        assert_eq!(base.spec_hash().unwrap(), threaded.spec_hash().unwrap());

        // Omitted budget hashes like the explicit ITRS budget.
        let mut explicit = base.clone();
        explicit.model.budget =
            Some(VarianceBudget::itrs_2008(params::NOMINAL_THICKNESS_NM).unwrap());
        assert_eq!(base.spec_hash().unwrap(), explicit.spec_hash().unwrap());

        // But a real configuration change must change the key.
        let coarser = base.clone().with_grid_side(10);
        assert_ne!(base.spec_hash().unwrap(), coarser.spec_hash().unwrap());
        let other_engine = base.clone().with_engine(EngineKind::StClosed);
        assert_ne!(base.spec_hash().unwrap(), other_engine.spec_hash().unwrap());
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        let base = AnalysisSpec::benchmark(Benchmark::C1);
        assert!(base.validate().is_ok());
        for (mutate, needle) in [
            (
                Box::new(|s: &mut AnalysisSpec| s.grid_side = 0) as Box<dyn Fn(&mut AnalysisSpec)>,
                "grid_side",
            ),
            (Box::new(|s: &mut AnalysisSpec| s.vdd_v = -1.0), "vdd_v"),
            (
                Box::new(|s: &mut AnalysisSpec| s.model.nominal_nm = f64::NAN),
                "nominal_nm",
            ),
            (
                Box::new(|s: &mut AnalysisSpec| s.threads = Some(0)),
                "threads",
            ),
            (
                Box::new(|s: &mut AnalysisSpec| s.design = DesignSource::Chip(ChipSpec::new())),
                "no blocks",
            ),
        ] {
            let mut bad = base.clone();
            mutate(&mut bad);
            let err = bad.validate().unwrap_err().to_string();
            assert!(err.contains(needle), "expected '{needle}' in: {err}");
        }
    }

    #[test]
    fn composition_round_trips_and_default_stays_invisible() {
        // The weakest-link default never appears in the JSON, so
        // pre-composition spec renderings — and spec hashes — are
        // byte-identical.
        let base = AnalysisSpec::benchmark(Benchmark::C1);
        assert!(!json::to_string(&base).contains("composition"));
        assert!(!base.canonical_json().unwrap().contains("composition"));

        // A grouped spec round-trips and changes the cache key.
        let grouped = base
            .clone()
            .with_composition(Composition::uniform_spares(4, 1));
        let back: AnalysisSpec = json::from_str(&json::to_string(&grouped)).unwrap();
        assert_eq!(back, grouped);
        assert_ne!(base.spec_hash().unwrap(), grouped.spec_hash().unwrap());
    }

    #[test]
    fn composition_is_validated_against_chip_designs() {
        let mut chip = ChipSpec::new();
        chip.add_block(
            statobd_core::BlockSpec::new("core", 4e4, 40_000, 368.15, 1.2, vec![(0, 1.0)]).unwrap(),
        )
        .unwrap();
        // One block cannot afford a spare.
        let bad = AnalysisSpec::chip(chip).with_composition(Composition::uniform_spares(1, 1));
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("composition"), "{err}");
    }

    #[test]
    fn spec_hashes_the_benchmark_keys_on_stay_pinned() {
        // Both are keys of the repository benchmark's goldens; a change
        // that moves either fails every operation of that benchmark.
        let c1 = AnalysisSpec::benchmark(Benchmark::C1);
        assert_eq!(c1.spec_hash().unwrap(), "cddfb8bd683fc093");
        let mut smoke = c1
            .with_grid_side(5)
            .with_engine(EngineKind::StFast)
            .with_threads(Some(1));
        smoke.model.kernel = CorrelationKernel::Exponential { rel_distance: 0.25 };
        (smoke.thermal.nx, smoke.thermal.ny) = (16, 16);
        assert_eq!(smoke.spec_hash().unwrap(), "4596830cc7214677");
    }

    #[test]
    fn thermal_solver_member_stays_on_the_wire_as_auto() {
        let spec = AnalysisSpec::benchmark(Benchmark::C3);
        for text in [json::to_string(&spec), spec.canonical_json().unwrap()] {
            assert!(
                text.contains(r#""c_volumetric":1630000,"solver":"auto","cg_rel_tol""#),
                "{text}"
            );
        }
        let back: AnalysisSpec = json::from_str(&json::to_string(&spec)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn thermal_solver_member_accepts_every_name_a_spec_could_carry() {
        let base = AnalysisSpec::benchmark(Benchmark::C1);
        let text = json::to_string(&base);
        let with_solver = |name: &str| text.replace(r#""solver":"auto""#, name);
        // Every old name, and no member at all, parses to the same spec
        // and hash.
        for name in [
            "auto",
            "mgcg",
            "multigrid",
            "ic0_pcg",
            "ic0",
            " MGCG ",
            "IC0_PCG",
        ] {
            let spec: AnalysisSpec =
                json::from_str(&with_solver(&format!(r#""solver":"{name}""#))).unwrap();
            assert_eq!(spec, base, "{name}");
            assert_eq!(spec.spec_hash().unwrap(), base.spec_hash().unwrap());
        }
        let omitted = text.replace(r#""solver":"auto","#, "");
        assert!(!omitted.contains("solver"), "{omitted}");
        assert_eq!(json::from_str::<AnalysisSpec>(&omitted).unwrap(), base);
        // Retired tiers, unknown names and non-strings are errors.
        for bad in [r#""jacobi_pcg""#, r#""plain_cg""#, r#""nope""#, "3", "null"] {
            let err = json::from_str::<AnalysisSpec>(&with_solver(&format!(r#""solver":{bad}"#)))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("unknown thermal solver")
                    && err.contains("auto, mgcg, multigrid, ic0_pcg, ic0"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = json::from_str::<AnalysisSpec>(r#"{"design": "C1", "grd_side": 10}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("grd_side"), "{err}");
        // A retired thermal solver tier is an unknown name, not an alias.
        let text = json::to_string(&AnalysisSpec::benchmark(Benchmark::C1));
        assert_eq!(text.matches(r#""solver":"auto""#).count(), 1, "{text}");
        let retired = text.replace(r#""solver":"auto""#, r#""solver":"jacobi_pcg""#);
        let err = json::from_str::<AnalysisSpec>(&retired)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown thermal solver"), "{err}");
    }
}
