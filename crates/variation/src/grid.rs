//! The spatial-correlation grid (paper Fig. 2): the chip is partitioned
//! into `nx × ny` rectangular grids, each carrying one random variable for
//! the spatially correlated component of thickness variation.

use crate::{Result, VariationError};
use statobd_num::impl_json_struct;

/// Rectangular grid partition of a chip.
///
/// Grid cells are indexed row-major: cell `(ix, iy)` has linear index
/// `iy * nx + ix`, with `x` across the chip width and `y` across the
/// height. Distances between grids are measured center-to-center, which is
/// how the paper's exponential-decay covariance is evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    chip_w: f64,
    chip_h: f64,
    nx: usize,
    ny: usize,
}

impl_json_struct!(GridSpec {
    chip_w,
    chip_h,
    nx,
    ny,
});

impl GridSpec {
    /// Creates a grid over a `chip_w × chip_h` die.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidParameter`] if the dimensions are
    /// not positive or either grid count is zero.
    pub fn new(chip_w: f64, chip_h: f64, nx: usize, ny: usize) -> Result<Self> {
        if !(chip_w > 0.0) || !(chip_h > 0.0) || !chip_w.is_finite() || !chip_h.is_finite() {
            return Err(VariationError::InvalidParameter {
                detail: format!("chip dimensions must be positive, got {chip_w} x {chip_h}"),
            });
        }
        if nx == 0 || ny == 0 {
            return Err(VariationError::InvalidParameter {
                detail: format!("grid counts must be positive, got {nx} x {ny}"),
            });
        }
        Ok(GridSpec {
            chip_w,
            chip_h,
            nx,
            ny,
        })
    }

    /// Square `n × n` grid over a square unit chip — the paper's default
    /// configuration (Table V explores 10×10, 20×20, 25×25).
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidParameter`] if `n == 0`.
    pub fn square_unit(n: usize) -> Result<Self> {
        Self::new(1.0, 1.0, n, n)
    }

    /// Chip width.
    pub fn chip_w(&self) -> f64 {
        self.chip_w
    }

    /// Chip height.
    pub fn chip_h(&self) -> f64 {
        self.chip_h
    }

    /// Grid count along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid count along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of grid cells.
    pub fn n_grids(&self) -> usize {
        self.nx * self.ny
    }

    /// The larger chip dimension, used to normalize correlation distances.
    pub fn max_dimension(&self) -> f64 {
        self.chip_w.max(self.chip_h)
    }

    /// Center coordinates of grid `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= n_grids()`.
    pub fn center(&self, g: usize) -> (f64, f64) {
        assert!(g < self.n_grids(), "grid index {g} out of range");
        let ix = g % self.nx;
        let iy = g / self.nx;
        (
            (ix as f64 + 0.5) * self.chip_w / self.nx as f64,
            (iy as f64 + 0.5) * self.chip_h / self.ny as f64,
        )
    }

    /// Center-to-center distance between grids `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let (xa, ya) = self.center(a);
        let (xb, yb) = self.center(b);
        ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt()
    }

    /// Fraction of the axis-aligned rectangle `(x0, y0)–(x1, y1)` that
    /// overlaps each grid cell, as `(grid_index, overlap_area)` pairs for
    /// cells with non-zero overlap.
    ///
    /// Used to apportion a functional block's devices across correlation
    /// grids. The rectangle is clipped to the die.
    pub fn rect_overlaps(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<(usize, f64)> {
        let x0 = x0.clamp(0.0, self.chip_w);
        let x1 = x1.clamp(0.0, self.chip_w);
        let y0 = y0.clamp(0.0, self.chip_h);
        let y1 = y1.clamp(0.0, self.chip_h);
        if !(x0 < x1) || !(y0 < y1) {
            return Vec::new();
        }
        let gw = self.chip_w / self.nx as f64;
        let gh = self.chip_h / self.ny as f64;
        let ix0 = ((x0 / gw).floor() as usize).min(self.nx - 1);
        let ix1 = (((x1 / gw).ceil() as usize).max(1) - 1).min(self.nx - 1);
        let iy0 = ((y0 / gh).floor() as usize).min(self.ny - 1);
        let iy1 = (((y1 / gh).ceil() as usize).max(1) - 1).min(self.ny - 1);
        let mut out = Vec::new();
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let cx0 = ix as f64 * gw;
                let cy0 = iy as f64 * gh;
                let ox = (x1.min(cx0 + gw) - x0.max(cx0)).max(0.0);
                let oy = (y1.min(cy0 + gh) - y0.max(cy0)).max(0.0);
                let area = ox * oy;
                if area > 0.0 {
                    out.push((iy * self.nx + ix, area));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centers_and_indexing() {
        let g = GridSpec::new(2.0, 1.0, 4, 2).unwrap();
        assert_eq!(g.n_grids(), 8);
        assert_eq!(g.center(0), (0.25, 0.25));
        assert_eq!(g.center(7), (1.75, 0.75));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        let g = GridSpec::square_unit(5).unwrap();
        assert_eq!(g.distance(3, 3), 0.0);
        assert_eq!(g.distance(2, 17), g.distance(17, 2));
    }

    #[test]
    fn rect_overlaps_full_die_sums_to_area() {
        let g = GridSpec::new(2.0, 3.0, 4, 6).unwrap();
        let overlaps = g.rect_overlaps(0.0, 0.0, 2.0, 3.0);
        assert_eq!(overlaps.len(), 24);
        let total: f64 = overlaps.iter().map(|&(_, a)| a).sum();
        assert!((total - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rect_overlaps_partial_cell() {
        let g = GridSpec::square_unit(2).unwrap();
        // Rectangle in the lower-left quarter cell only.
        let overlaps = g.rect_overlaps(0.0, 0.0, 0.25, 0.25);
        assert_eq!(overlaps, vec![(0, 0.0625)]);
        // Straddling two cells horizontally.
        let overlaps = g.rect_overlaps(0.25, 0.0, 0.75, 0.5);
        assert_eq!(overlaps.len(), 2);
        let total: f64 = overlaps.iter().map(|&(_, a)| a).sum();
        assert!((total - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rect_overlaps_degenerate_is_empty() {
        let g = GridSpec::square_unit(2).unwrap();
        assert!(g.rect_overlaps(0.5, 0.5, 0.5, 0.9).is_empty());
        assert!(g.rect_overlaps(0.9, 0.9, 0.1, 0.1).is_empty());
    }

    #[test]
    fn rejects_invalid_specs() {
        assert!(GridSpec::new(0.0, 1.0, 2, 2).is_err());
        assert!(GridSpec::new(1.0, 1.0, 0, 2).is_err());
        assert!(GridSpec::new(f64::INFINITY, 1.0, 2, 2).is_err());
    }

    #[test]
    fn json_round_trip() {
        let g = GridSpec::new(1.5, 2.5, 10, 20).unwrap();
        let json = statobd_num::json::to_string(&g);
        let back: GridSpec = statobd_num::json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
