//! Redundancy-aware chip composition: k-out-of-n block groups with
//! spares.
//!
//! The paper's chip-level reliability is pure weakest-link — the chip
//! dies with its first block. Repair-capable designs (in-field logic
//! repair, spare cache ways, cold-spare cores) tolerate the first
//! breakdowns: a *redundancy group* of `n` blocks with `s` spares
//! survives as long as at most `s` of its blocks have failed, and the
//! chip survives while every group does. [`Composition`] describes that
//! structure; [`CompositionAccumulator`] evaluates it from per-block
//! failure probabilities, in log-survival space, with the same relative
//! precision discipline as [`WeakestLink`].
//!
//! # Numerical form
//!
//! For one group with per-block failure probabilities `p_1..p_n` and `s`
//! spares, the group failure probability is the Poisson-binomial tail
//! `Q = P(more than s blocks failed)`. The accumulator maintains the
//! dynamic program
//!
//! ```text
//! ln_at[m]  = ln P(exactly m of the absorbed blocks failed),  m ≤ s
//! ln_fail   = ln P(more than s of the absorbed blocks failed)
//! ```
//!
//! updated per block with `logaddexp` over *positive* mass terms only —
//! no cancellation anywhere, so `Q` keeps full relative precision even
//! when every `p_j ≤ 1e-12` leaves `Q` at the `p²` scale. The group's
//! log-survival is `ln(1 − Q) = ln_1p(−exp(ln_fail))`, and the chip
//! composes groups weakest-link style (survival multiplies).
//!
//! A group with zero spares *is* weakest-link over its blocks: the
//! accumulator then reduces to the plain `Σ ln_1p(−p_j)` running sum —
//! the bit-identical operation sequence of
//! [`WeakestLink::absorb`](super::WeakestLink::absorb) — which is what
//! keeps 1-out-of-1 degenerate configurations exactly on today's
//! numbers.
//!
//! The per-block recurrence itself is [`simd::group_absorb`], run here
//! at lane width 1 (libm, the scalar bits) and by the fleet's lane
//! kernels across chip tiles — one definition for both.

use super::WeakestLink;
use crate::{CoreError, Result};
use statobd_num::json::{FromJson, Json, JsonError, ToJson};
use statobd_num::simd::{self, GroupLayout};

/// One redundancy group: a set of block indices that survives while at
/// most [`spares`](RedundancyGroup::spares) of them have failed
/// (`(n − s)`-out-of-`n` in reliability terms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundancyGroup {
    /// Indices into the chip's block list (order does not matter).
    pub blocks: Vec<usize>,
    /// How many block failures the group tolerates; must be strictly
    /// less than the group size.
    pub spares: usize,
}

impl RedundancyGroup {
    /// A group over `blocks` tolerating `spares` failures.
    pub fn new(blocks: Vec<usize>, spares: usize) -> Self {
        RedundancyGroup { blocks, spares }
    }
}

statobd_num::impl_json_struct!(RedundancyGroup { blocks, spares });

/// How a chip's blocks compose into the chip-level failure probability.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Composition {
    /// The paper's model: the chip fails with its first block
    /// (every block is its own 1-out-of-1 group). This variant routes
    /// through the plain [`WeakestLink`] accumulator
    /// verbatim, so existing results stay bit-identical.
    #[default]
    WeakestLink,
    /// Redundancy groups with spares. Must partition the chip's blocks:
    /// every block in exactly one group.
    Groups(Vec<RedundancyGroup>),
}

impl Composition {
    /// A single group spanning blocks `0..n_blocks` with `spares`
    /// tolerated failures — the `--spares` CLI scenario.
    pub fn uniform_spares(n_blocks: usize, spares: usize) -> Self {
        Composition::Groups(vec![RedundancyGroup::new((0..n_blocks).collect(), spares)])
    }

    /// Whether this is the plain weakest-link composition.
    pub fn is_weakest_link(&self) -> bool {
        matches!(self, Composition::WeakestLink)
    }

    /// Validates the composition against a chip with `n_blocks` blocks:
    /// groups must be non-empty, reference only in-range blocks, cover
    /// every block exactly once, and tolerate strictly fewer failures
    /// than their size.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the offending group.
    pub fn validate(&self, n_blocks: usize) -> Result<()> {
        let groups = match self {
            Composition::WeakestLink => return Ok(()),
            Composition::Groups(groups) => groups,
        };
        let bad = |detail: String| {
            Err(CoreError::InvalidParameter {
                detail: format!("composition: {detail}"),
            })
        };
        if groups.is_empty() {
            return bad("needs at least one redundancy group".to_string());
        }
        let mut owner = vec![usize::MAX; n_blocks];
        for (g, group) in groups.iter().enumerate() {
            if group.blocks.is_empty() {
                return bad(format!("group {g} has no blocks"));
            }
            if group.spares >= group.blocks.len() {
                return bad(format!(
                    "group {g} tolerates {} failures but only has {} block(s)",
                    group.spares,
                    group.blocks.len()
                ));
            }
            for &j in &group.blocks {
                if j >= n_blocks {
                    return bad(format!(
                        "group {g} references block {j}, chip has {n_blocks}"
                    ));
                }
                if owner[j] != usize::MAX {
                    return bad(format!("block {j} appears in groups {} and {g}", owner[j]));
                }
                owner[j] = g;
            }
        }
        if let Some(j) = owner.iter().position(|&g| g == usize::MAX) {
            return bad(format!("block {j} belongs to no group"));
        }
        Ok(())
    }

    /// A reusable accumulator for a chip with `n_blocks` blocks. The
    /// composition must already be [`validate`](Composition::validate)d.
    pub fn accumulator(&self, n_blocks: usize) -> CompositionAccumulator {
        let inner = match self {
            Composition::WeakestLink => AccImpl::WeakestLink(WeakestLink::new()),
            Composition::Groups(groups) => AccImpl::Groups {
                group_of: group_of(groups, n_blocks),
                states: groups.iter().map(|g| GroupState::new(g.spares)).collect(),
            },
        };
        CompositionAccumulator { inner }
    }

    /// The lane-fold shape of this composition for a chip with
    /// `n_blocks` blocks — `None` for weakest-link, which folds through
    /// [`simd::WeakestLinkFold`]. The composition must already be
    /// [`validate`](Composition::validate)d.
    pub fn group_layout(&self, n_blocks: usize) -> Option<GroupLayout> {
        match self {
            Composition::WeakestLink => None,
            Composition::Groups(groups) => {
                let spares: Vec<usize> = groups.iter().map(|g| g.spares).collect();
                Some(GroupLayout::new(group_of(groups, n_blocks), &spares))
            }
        }
    }

    /// One-shot composition of per-block failure probabilities
    /// (`ps[j]` is block `j`'s).
    ///
    /// # Example
    ///
    /// ```
    /// use statobd_core::{compose_weakest_link, Composition};
    /// let ps = [0.1, 0.2, 0.3];
    /// // Weakest-link is the degenerate case...
    /// let wl = Composition::WeakestLink.compose(&ps);
    /// assert_eq!(wl, compose_weakest_link(ps));
    /// // ...while one spare across the chip tolerates the first failure.
    /// let spared = Composition::uniform_spares(3, 1).compose(&ps);
    /// assert!(spared < wl);
    /// ```
    pub fn compose(&self, ps: &[f64]) -> f64 {
        let mut acc = self.accumulator(ps.len());
        for (j, &p) in ps.iter().enumerate() {
            acc.absorb(j, p);
        }
        acc.failure_probability()
    }
}

impl ToJson for Composition {
    /// `"weakest_link"` for the default, `{"groups": [...]}` otherwise —
    /// the workspace's standard enum encoding.
    fn to_json(&self) -> Json {
        match self {
            Composition::WeakestLink => Json::String("weakest_link".to_string()),
            Composition::Groups(groups) => Json::Object(vec![(
                "groups".to_string(),
                Json::Array(groups.iter().map(ToJson::to_json).collect()),
            )]),
        }
    }
}

impl FromJson for Composition {
    fn from_json(v: &Json) -> statobd_num::json::Result<Self> {
        if let Some(name) = v.as_str() {
            return match name {
                "weakest_link" => Ok(Composition::WeakestLink),
                other => Err(JsonError::new(format!(
                    "composition: expected 'weakest_link' or a groups object, got '{other}'"
                ))),
            };
        }
        let groups = v.get("groups").and_then(Json::as_array).ok_or_else(|| {
            JsonError::new("composition: expected 'weakest_link' or {\"groups\": [...]}")
        })?;
        groups
            .iter()
            .map(RedundancyGroup::from_json)
            .collect::<statobd_num::json::Result<Vec<_>>>()
            .map(Composition::Groups)
    }

    /// An absent composition member means weakest-link, so documents
    /// written before redundancy groups existed keep parsing unchanged.
    fn from_missing() -> Option<Self> {
        Some(Composition::WeakestLink)
    }
}

/// Block index → group index (dense; a validated composition owns every
/// block).
fn group_of(groups: &[RedundancyGroup], n_blocks: usize) -> Vec<usize> {
    let mut group_of = vec![usize::MAX; n_blocks];
    for (g, group) in groups.iter().enumerate() {
        for &j in &group.blocks {
            group_of[j] = g;
        }
    }
    group_of
}

/// Per-group dynamic-program state (see the module docs), in the
/// width-1 row shape of [`simd::group_absorb`].
#[derive(Debug, Clone)]
struct GroupState {
    /// `ln P(exactly m absorbed blocks failed)` for `m = 0..=spares`.
    ln_at: Vec<[f64; 1]>,
    /// `ln P(more than `spares` absorbed blocks failed)`.
    ln_fail: [f64; 1],
}

impl GroupState {
    fn new(spares: usize) -> Self {
        let mut ln_at = vec![[f64::NEG_INFINITY]; spares + 1];
        ln_at[0] = [0.0];
        GroupState {
            ln_at,
            ln_fail: [f64::NEG_INFINITY],
        }
    }

    fn reset(&mut self) {
        self.ln_at.fill([f64::NEG_INFINITY]);
        self.ln_at[0] = [0.0];
        self.ln_fail = [f64::NEG_INFINITY];
    }

    fn absorb(&mut self, p: f64) {
        simd::group_absorb::<1>(&mut self.ln_at, &mut self.ln_fail, &[p], &[(-p).ln_1p()]);
    }

    /// `ln P(group survives)` = `ln(1 − Q)` with `Q` the failure tail.
    fn ln_survival(&self) -> f64 {
        simd::group_ln_survival::<1>(&self.ln_at, &self.ln_fail)[0]
    }
}

#[derive(Debug, Clone)]
enum AccImpl {
    WeakestLink(WeakestLink),
    Groups {
        /// Block index → group index (dense; every block owned).
        group_of: Vec<usize>,
        states: Vec<GroupState>,
    },
}

/// A reusable accumulator evaluating one chip's [`Composition`] from
/// per-block failure probabilities.
///
/// Feed every block once via [`absorb`](CompositionAccumulator::absorb)
/// (any order), then read the chip-level result;
/// [`reset`](CompositionAccumulator::reset) makes the accumulator
/// reusable without reallocating. (The fleet runs the same recurrence
/// across chip tiles through `num::simd::GroupFold`.)
#[derive(Debug, Clone)]
pub struct CompositionAccumulator {
    inner: AccImpl,
}

impl CompositionAccumulator {
    /// Absorbs block `block`'s failure probability.
    ///
    /// `p` is clamped to `[0, 1]`. A NaN is rejected loudly in debug
    /// builds and maps to certain failure (`p = 1`) in release builds,
    /// matching [`WeakestLink::absorb`](super::WeakestLink::absorb).
    pub fn absorb(&mut self, block: usize, p: f64) {
        match &mut self.inner {
            AccImpl::WeakestLink(acc) => acc.absorb(p),
            AccImpl::Groups { group_of, states } => {
                debug_assert!(
                    !p.is_nan(),
                    "CompositionAccumulator::absorb: NaN failure probability for block {block}"
                );
                let p = if p.is_nan() { 1.0 } else { p.clamp(0.0, 1.0) };
                states[group_of[block]].absorb(p);
            }
        }
    }

    /// The chip-level `ln P(chip survives)`: the sum of the group
    /// log-survivals, in group order.
    pub fn ln_survival(&self) -> f64 {
        match &self.inner {
            AccImpl::WeakestLink(acc) => acc.ln_survival(),
            AccImpl::Groups { states, .. } => {
                let mut total = 0.0;
                for state in states {
                    total += state.ln_survival();
                }
                total
            }
        }
    }

    /// The chip-level failure probability `−expm1(ln_survival)`.
    pub fn failure_probability(&self) -> f64 {
        -self.ln_survival().exp_m1()
    }

    /// Clears the absorbed state (no allocation).
    pub fn reset(&mut self) {
        match &mut self.inner {
            AccImpl::WeakestLink(acc) => *acc = WeakestLink::new(),
            AccImpl::Groups { states, .. } => {
                for state in states {
                    state.reset();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::compose_weakest_link;
    use statobd_num::rng::{Rng, Xoshiro256pp};

    /// Brute-force group survival: sum over every failure subset of size
    /// ≤ spares (exact reference, exponential in the group size).
    fn enumerate_survival(ps: &[f64], spares: usize) -> f64 {
        let n = ps.len();
        let mut survival = 0.0;
        for mask in 0u32..(1 << n) {
            if (mask.count_ones() as usize) > spares {
                continue;
            }
            let mut term = 1.0;
            for (j, &p) in ps.iter().enumerate() {
                term *= if mask & (1 << j) != 0 { p } else { 1.0 - p };
            }
            survival += term;
        }
        survival
    }

    #[test]
    fn singleton_zero_spare_groups_reduce_bitwise_to_weakest_link() {
        let ps = [0.1, 3.4e-7, 0.0, 0.95, 1e-13];
        let groups = Composition::Groups(
            (0..ps.len())
                .map(|j| RedundancyGroup::new(vec![j], 0))
                .collect(),
        );
        groups.validate(ps.len()).unwrap();
        let grouped = groups.compose(&ps);
        let weakest = compose_weakest_link(ps);
        assert_eq!(
            grouped.to_bits(),
            weakest.to_bits(),
            "{grouped:e} vs {weakest:e}"
        );
        // And the explicit WeakestLink variant delegates verbatim.
        let delegated = Composition::WeakestLink.compose(&ps);
        assert_eq!(delegated.to_bits(), weakest.to_bits());
    }

    #[test]
    fn n_out_of_n_reduces_to_the_all_fail_product() {
        // spares = n − 1: the group fails only when every block does.
        let ps = [0.3, 0.5, 0.8];
        let comp = Composition::uniform_spares(ps.len(), ps.len() - 1);
        let q = comp.compose(&ps);
        let product: f64 = ps.iter().product();
        assert!(
            ((q - product) / product).abs() < 1e-14,
            "{q:e} vs {product:e}"
        );
        // Also in the tiny-probability regime, on relative precision.
        let tiny = [2e-7, 5e-8, 1.5e-7];
        let q = Composition::uniform_spares(3, 2).compose(&tiny);
        let product: f64 = tiny.iter().product();
        assert!(
            ((q - product) / product).abs() < 1e-12,
            "{q:e} vs {product:e}"
        );
    }

    #[test]
    fn grouped_composition_matches_subset_enumeration() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for trial in 0..200 {
            let n = 2 + rng.gen_index(7);
            let spares = rng.gen_index(n);
            let scale = [1.0, 1e-3, 1e-6][trial % 3];
            let ps: Vec<f64> = (0..n).map(|_| scale * rng.gen_range(0.0..0.9)).collect();
            let comp = Composition::uniform_spares(n, spares);
            let got = comp.compose(&ps);
            let want = 1.0 - enumerate_survival(&ps, spares);
            let tol = 1e-12 * want.abs().max(1e-300) + 1e-15;
            assert!(
                (got - want).abs() <= tol.max(1e-9 * want.abs()),
                "trial {trial}: n={n} spares={spares} got {got:e} want {want:e}"
            );
        }
    }

    #[test]
    fn composition_is_monotone_in_each_per_block_probability() {
        let base = [0.02, 0.4, 1e-5, 0.7, 0.09];
        for spares in 0..base.len() {
            let comp = Composition::uniform_spares(base.len(), spares);
            let p0 = comp.compose(&base);
            for j in 0..base.len() {
                let mut bumped = base;
                bumped[j] = (bumped[j] * 1.5 + 1e-4).min(1.0);
                let p1 = comp.compose(&bumped);
                assert!(p1 >= p0, "spares={spares} block {j}: {p1:e} < {p0:e}");
            }
        }
    }

    #[test]
    fn log_space_stays_stable_at_p_below_1e12() {
        // Two blocks at p = 1e-12, one spare: Q = p² exactly (to first
        // order in p³). A linear-space DP would return 0 or lose all
        // relative precision; the log-space tail keeps ~15 digits.
        let p = 1e-12;
        let q = Composition::uniform_spares(2, 1).compose(&[p, p]);
        let exact = p * p;
        assert!(((q - exact) / exact).abs() < 1e-12, "{q:e} vs {exact:e}");
        // 8 blocks at 1e-13, two spares: Q ≈ C(8,3) p³ = 56e-39.
        let p = 1e-13;
        let q = Composition::uniform_spares(8, 2).compose(&[p; 8]);
        let exact = 56.0 * p * p * p;
        assert!(((q - exact) / exact).abs() < 1e-10, "{q:e} vs {exact:e}");
    }

    #[test]
    fn accumulator_reset_reuses_cleanly() {
        let comp = Composition::uniform_spares(3, 1);
        let mut acc = comp.accumulator(3);
        let ps = [0.1, 0.2, 0.3];
        for (j, &p) in ps.iter().enumerate() {
            acc.absorb(j, p);
        }
        let first = acc.failure_probability();
        acc.reset();
        for (j, &p) in ps.iter().enumerate() {
            acc.absorb(j, p);
        }
        assert_eq!(first.to_bits(), acc.failure_probability().to_bits());
        assert_eq!(first.to_bits(), comp.compose(&ps).to_bits());
    }

    /// The fleet's width-1 lane folds are these accumulators, bit for
    /// bit, on the chip log-survival itself — through the mission-end
    /// entry and inside the fused survival kernel — for weakest-link and
    /// every group shape. (Lifetimes alone would hide an ulp drift: it
    /// rarely moves a solved lifetime.)
    #[test]
    fn width_1_lane_folds_reproduce_the_accumulators_bitwise() {
        use statobd_num::simd::{self, GroupFold, LaneFold, WeakestLinkFold};
        // Per block (ln_rate, area, b·u, b²·v): over the age sweep the
        // failure probabilities run from ~1e-6 to saturation.
        let blocks = [
            (-40.0, 1e3, 0.5, 1e-3),
            (-38.5, 5e2, 0.45, 2e-3),
            (-41.0, 2e3, 0.55, 5e-4),
            (-39.0, 50.0, 0.5, 1e-3),
        ];
        let block_params: Vec<f64> = blocks
            .iter()
            .flat_map(|&(ln_rate, area, _, _)| {
                [
                    ln_rate,
                    area,
                    simd::failure_poly_threshold(area),
                    simd::failure_sat_threshold(area),
                ]
            })
            .collect();
        let bu: Vec<f64> = blocks.iter().map(|b| b.2).collect();
        let bbv: Vec<f64> = blocks.iter().map(|b| b.3).collect();
        let ages: Vec<(f64, Vec<f64>)> = (0..160)
            .map(|i| {
                let x = 0.375 * i as f64;
                let ps = blocks
                    .iter()
                    .map(|&(ln_rate, area, bu, bbv)| {
                        let gamma = ln_rate + x;
                        let ln_g = gamma * bu + 0.5 * gamma * gamma * bbv;
                        -(-area * ln_g.exp()).exp_m1()
                    })
                    .collect();
                (x, ps)
            })
            .collect();

        fn check<F: LaneFold<1>>(
            what: &str,
            comp: &Composition,
            fold: &mut F,
            ages: &[(f64, Vec<f64>)],
            tile: (&[f64], &[f64], &[f64]),
        ) {
            let mut acc = comp.accumulator(4);
            for (x, ps) in ages {
                for (j, &p) in ps.iter().enumerate() {
                    acc.absorb(j, p);
                }
                let want = acc.ln_survival().to_bits();
                acc.reset();
                let mut s = [0.0];
                simd::ln_surv_tile_fold::<1, _>(&[*x], tile.0, tile.1, tile.2, fold, &mut s);
                assert_eq!(s[0].to_bits(), want, "{what}: fused kernel at x = {x}");
                fold.clear();
                for (j, &p) in ps.iter().enumerate() {
                    fold.absorb(j, &[p]);
                }
                let s = fold.ln_survival()[0];
                assert_eq!(s.to_bits(), want, "{what}: mission-end entry at x = {x}");
            }
        }

        let tile = (&block_params[..], &bu[..], &bbv[..]);
        let weakest_link = Composition::WeakestLink;
        let mut fold = WeakestLinkFold::<1>::default();
        check("weakest-link", &weakest_link, &mut fold, &ages, tile);
        for comp in [
            Composition::uniform_spares(4, 1),
            Composition::uniform_spares(4, 3),
            Composition::Groups(vec![
                RedundancyGroup::new(vec![0, 2], 1),
                RedundancyGroup::new(vec![1, 3], 0),
            ]),
        ] {
            comp.validate(4).unwrap();
            let layout = comp.group_layout(4).expect("grouped");
            let mut rows = vec![0.0; layout.rows()];
            let mut fold = GroupFold::<1>::new(&layout, &mut rows);
            check(&format!("{comp:?}"), &comp, &mut fold, &ages, tile);
        }
    }

    #[test]
    fn certain_failures_saturate_groups_exactly() {
        // One spare absorbs a single certain failure...
        let q = Composition::uniform_spares(3, 1).compose(&[1.0, 0.0, 0.0]);
        assert_eq!(q, 0.0);
        // ...but a second certain failure kills the group.
        let q = Composition::uniform_spares(3, 1).compose(&[1.0, 1.0, 0.0]);
        assert_eq!(q, 1.0);
        // Out-of-range inputs are clamped, never amplified.
        let q = Composition::uniform_spares(2, 1).compose(&[1.5, -0.5]);
        assert_eq!(q, 0.0);
    }

    #[test]
    fn validate_rejects_malformed_group_structures() {
        let cases: [(Composition, &str); 5] = [
            (Composition::Groups(vec![]), "at least one"),
            (
                Composition::Groups(vec![RedundancyGroup::new(vec![], 0)]),
                "no blocks",
            ),
            (
                Composition::Groups(vec![RedundancyGroup::new(vec![0, 1], 2)]),
                "tolerates",
            ),
            (
                Composition::Groups(vec![RedundancyGroup::new(vec![0, 5], 0)]),
                "references block 5",
            ),
            (
                Composition::Groups(vec![
                    RedundancyGroup::new(vec![0, 1], 0),
                    RedundancyGroup::new(vec![1], 0),
                ]),
                "appears in groups",
            ),
        ];
        for (comp, needle) in cases {
            let err = comp.validate(2).unwrap_err().to_string();
            assert!(err.contains(needle), "{comp:?}: {err}");
        }
        // A partial cover is rejected too.
        let partial = Composition::Groups(vec![RedundancyGroup::new(vec![0], 0)]);
        let err = partial.validate(2).unwrap_err().to_string();
        assert!(err.contains("belongs to no group"), "{err}");
        // And the good ones pass.
        Composition::WeakestLink.validate(3).unwrap();
        Composition::uniform_spares(3, 2).validate(3).unwrap();
        Composition::Groups(vec![
            RedundancyGroup::new(vec![0, 2], 1),
            RedundancyGroup::new(vec![1], 0),
        ])
        .validate(3)
        .unwrap();
    }

    #[test]
    fn composition_json_round_trips() {
        use statobd_num::json::{from_str, to_string};
        for comp in [
            Composition::WeakestLink,
            Composition::uniform_spares(4, 1),
            Composition::Groups(vec![
                RedundancyGroup::new(vec![0, 2], 1),
                RedundancyGroup::new(vec![1], 0),
            ]),
        ] {
            let back: Composition = from_str(&to_string(&comp)).unwrap();
            assert_eq!(back, comp);
        }
        assert!(from_str::<Composition>("\"strongest_link\"").is_err());
        assert!(from_str::<Composition>("{\"blocks\": []}").is_err());
    }
}
