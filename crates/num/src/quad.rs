//! Numerical quadrature: midpoint, Simpson and Gauss–Legendre rules in 1-D.
//!
//! The paper's overall algorithm (its Fig. 9) evaluates the ensemble
//! reliability with an `l0 × l0` midpoint "integral sum"; the Gauss–Legendre
//! rule is provided as a higher-accuracy alternative and for convergence
//! studies.

use crate::{NumError, Result};

/// 1-D quadrature rule selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuadRule {
    /// Composite midpoint rule (what the paper's algorithm uses).
    Midpoint,
    /// Composite Simpson rule (requires an even panel count internally;
    /// handled automatically).
    Simpson,
    /// Gauss–Legendre with the given number of nodes.
    GaussLegendre,
}

/// Nodes and weights of a quadrature rule on `[a, b]`.
#[derive(Debug, Clone)]
pub struct Quadrature {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl Quadrature {
    /// Builds an `n`-point rule of the given kind on `[a, b]`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] if `n == 0` or `a >= b`.
    pub fn new(rule: QuadRule, n: usize, a: f64, b: f64) -> Result<Self> {
        if n == 0 || !(a < b) {
            return Err(NumError::Domain {
                detail: format!("quadrature needs n > 0 and a < b, got n={n}, [{a}, {b}]"),
            });
        }
        match rule {
            QuadRule::Midpoint => Ok(Self::midpoint(n, a, b)),
            QuadRule::Simpson => Ok(Self::simpson(n, a, b)),
            QuadRule::GaussLegendre => Ok(Self::gauss_legendre(n, a, b)),
        }
    }

    fn midpoint(n: usize, a: f64, b: f64) -> Self {
        let h = (b - a) / n as f64;
        let nodes = (0..n).map(|i| a + (i as f64 + 0.5) * h).collect();
        let weights = vec![h; n];
        Quadrature { nodes, weights }
    }

    fn simpson(n: usize, a: f64, b: f64) -> Self {
        // Composite Simpson needs an even number of intervals; nodes are the
        // panel endpoints, so `n` points means `n-1` intervals. Round up to
        // an odd node count >= 3.
        let n = if n < 3 {
            3
        } else if n.is_multiple_of(2) {
            n + 1
        } else {
            n
        };
        let h = (b - a) / (n - 1) as f64;
        let nodes: Vec<f64> = (0..n).map(|i| a + i as f64 * h).collect();
        let mut weights = vec![0.0; n];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = if i == 0 || i == n - 1 {
                h / 3.0
            } else if i % 2 == 1 {
                4.0 * h / 3.0
            } else {
                2.0 * h / 3.0
            };
        }
        Quadrature { nodes, weights }
    }

    fn gauss_legendre(n: usize, a: f64, b: f64) -> Self {
        // Newton iteration on Legendre polynomials, standard Golub-free
        // approach; accurate to ~1e-15 for n up to several hundred.
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Initial guess (Chebyshev-like).
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut pp = 0.0;
            for _ in 0..100 {
                // Evaluate P_n(x) and its derivative by recurrence.
                let mut p0 = 1.0;
                let mut p1 = 0.0;
                for j in 0..n {
                    let p2 = p1;
                    p1 = p0;
                    p0 = ((2.0 * j as f64 + 1.0) * x * p1 - j as f64 * p2) / (j as f64 + 1.0);
                }
                pp = n as f64 * (x * p0 - p1) / (x * x - 1.0);
                let dx = p0 / pp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    break;
                }
            }
            let half = 0.5 * (b - a);
            let mid = 0.5 * (a + b);
            nodes[i] = mid - half * x;
            nodes[n - 1 - i] = mid + half * x;
            let w = 2.0 * half / ((1.0 - x * x) * pp * pp);
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        Quadrature { nodes, weights }
    }

    /// The quadrature nodes.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// The quadrature weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Integrates `f` with this rule.
    pub fn integrate(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Integrates `f` over `[a, b]` with an `n`-point rule.
///
/// # Errors
///
/// Propagates [`Quadrature::new`] errors.
pub fn integrate_1d(
    rule: QuadRule,
    n: usize,
    a: f64,
    b: f64,
    f: impl FnMut(f64) -> f64,
) -> Result<f64> {
    Ok(Quadrature::new(rule, n, a, b)?.integrate(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn midpoint_integrates_linear_exactly() {
        let v = integrate_1d(QuadRule::Midpoint, 4, 0.0, 2.0, |x| 3.0 * x + 1.0).unwrap();
        assert_close(v, 8.0, 1e-13);
    }

    #[test]
    fn simpson_integrates_cubic_exactly() {
        let v = integrate_1d(QuadRule::Simpson, 11, -1.0, 3.0, |x| x * x * x).unwrap();
        assert_close(v, 20.0, 1e-11);
    }

    #[test]
    fn gauss_legendre_high_accuracy() {
        // ∫₀^π sin x dx = 2 with very few nodes.
        let v = integrate_1d(
            QuadRule::GaussLegendre,
            8,
            0.0,
            std::f64::consts::PI,
            f64::sin,
        )
        .unwrap();
        assert_close(v, 2.0, 1e-10);
        // Polynomial exactness: degree 2n−1 = 9 with n = 5 nodes.
        let p = integrate_1d(QuadRule::GaussLegendre, 5, 0.0, 1.0, |x| x.powi(9)).unwrap();
        assert_close(p, 0.1, 1e-14);
    }

    #[test]
    fn gauss_weights_sum_to_interval() {
        for n in [1, 2, 5, 16, 64] {
            let q = Quadrature::new(QuadRule::GaussLegendre, n, -2.0, 5.0).unwrap();
            let sum: f64 = q.weights().iter().sum();
            assert_close(sum, 7.0, 1e-11);
        }
    }

    #[test]
    fn rejects_degenerate_intervals() {
        assert!(integrate_1d(QuadRule::Midpoint, 0, 0.0, 1.0, |_| 1.0).is_err());
        assert!(integrate_1d(QuadRule::Midpoint, 4, 1.0, 1.0, |_| 1.0).is_err());
        assert!(integrate_1d(QuadRule::GaussLegendre, 4, 2.0, 1.0, |_| 1.0).is_err());
    }

    #[test]
    fn simpson_handles_even_request() {
        // Even n is rounded up internally; result must still be exact for
        // quadratics.
        let v = integrate_1d(QuadRule::Simpson, 4, 0.0, 1.0, |x| x * x).unwrap();
        assert_close(v, 1.0 / 3.0, 1e-12);
    }
}
