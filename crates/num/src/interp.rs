//! Bilinear interpolation on a rectilinear grid.
//!
//! The hybrid analytical/table-lookup reliability engine (paper Sec. IV-E)
//! interpolates a precomputed `(ln(t/α), b)` table bilinearly.

use crate::{NumError, Result};

/// Locates `x` in a sorted axis, returning the left index and the fractional
/// position within the cell, clamping to the axis range.
///
/// # Panics
///
/// Panics if the axis has fewer than 2 points (checked by callers).
fn locate(axis: &[f64], x: f64) -> (usize, f64) {
    debug_assert!(axis.len() >= 2);
    let n = axis.len();
    if x <= axis[0] {
        return (0, 0.0);
    }
    if x >= axis[n - 1] {
        return (n - 2, 1.0);
    }
    // Binary search for the cell containing x.
    let mut lo = 0;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if axis[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let frac = (x - axis[lo]) / (axis[lo + 1] - axis[lo]);
    (lo, frac)
}

fn validate_axis(axis: &[f64], name: &str) -> Result<()> {
    if axis.len() < 2 {
        return Err(NumError::Domain {
            detail: format!("{name} axis needs at least 2 points, got {}", axis.len()),
        });
    }
    if !axis.windows(2).all(|w| w[0] < w[1]) {
        return Err(NumError::Domain {
            detail: format!("{name} axis must be strictly increasing"),
        });
    }
    Ok(())
}

/// 2-D bilinear interpolant over a rectilinear grid.
///
/// Values are stored row-major: `values[i * ny + j]` is the sample at
/// `(xs[i], ys[j])`. Out-of-range queries clamp to the grid edge.
///
/// # Example
///
/// ```
/// use statobd_num::interp::Bilinear;
///
/// let b = Bilinear::new(
///     vec![0.0, 1.0],
///     vec![0.0, 1.0],
///     vec![0.0, 1.0, 2.0, 3.0], // f(0,0)=0 f(0,1)=1 f(1,0)=2 f(1,1)=3
/// )?;
/// assert!((b.eval(0.5, 0.5) - 1.5).abs() < 1e-14);
/// # Ok::<(), statobd_num::NumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bilinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
    values: Vec<f64>,
}

impl Bilinear {
    /// Creates a bilinear interpolant.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Domain`] for malformed axes or a value vector of
    /// the wrong length.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, values: Vec<f64>) -> Result<Self> {
        validate_axis(&xs, "x")?;
        validate_axis(&ys, "y")?;
        if values.len() != xs.len() * ys.len() {
            return Err(NumError::Domain {
                detail: format!(
                    "expected {} values for a {}x{} grid, got {}",
                    xs.len() * ys.len(),
                    xs.len(),
                    ys.len(),
                    values.len()
                ),
            });
        }
        Ok(Bilinear { xs, ys, values })
    }

    /// Evaluates the interpolant at `(x, y)` (clamped to the grid).
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let ny = self.ys.len();
        let (i, tx) = locate(&self.xs, x);
        let (j, ty) = locate(&self.ys, y);
        let v00 = self.values[i * ny + j];
        let v01 = self.values[i * ny + j + 1];
        let v10 = self.values[(i + 1) * ny + j];
        let v11 = self.values[(i + 1) * ny + j + 1];
        v00 * (1.0 - tx) * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v10 * tx * (1.0 - ty)
            + v11 * tx * ty
    }

    /// The x axis.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y axis.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The row-major sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bilinear_reproduces_bilinear_functions() {
        // f(x,y) = 2x + 3y + xy is reproduced exactly by bilinear interp.
        let xs: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..4).map(|j| j as f64 * 0.5).collect();
        let f = |x: f64, y: f64| 2.0 * x + 3.0 * y + x * y;
        let mut values = Vec::new();
        for &x in &xs {
            for &y in &ys {
                values.push(f(x, y));
            }
        }
        let b = Bilinear::new(xs, ys, values).unwrap();
        for &(x, y) in &[(0.3, 0.2), (1.7, 1.2), (3.99, 1.49), (0.0, 0.0)] {
            assert!((b.eval(x, y) - f(x, y)).abs() < 1e-12, "at ({x}, {y})");
        }
    }

    #[test]
    fn bilinear_clamps_at_edges() {
        let b = Bilinear::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(b.eval(-5.0, -5.0), 1.0);
        assert_eq!(b.eval(5.0, 5.0), 4.0);
    }

    #[test]
    fn bilinear_rejects_wrong_value_count() {
        assert!(Bilinear::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![1.0; 3]).is_err());
    }

    #[test]
    fn bilinear_rejects_bad_axes() {
        let ys = vec![0.0, 1.0];
        assert!(Bilinear::new(vec![0.0], ys.clone(), vec![1.0; 2]).is_err());
        assert!(Bilinear::new(vec![0.0, 0.0], ys.clone(), vec![1.0; 4]).is_err());
        assert!(Bilinear::new(vec![1.0, 0.0], ys.clone(), vec![1.0; 4]).is_err());
        assert!(Bilinear::new(ys, vec![1.0, 0.0], vec![1.0; 4]).is_err());
    }
}
