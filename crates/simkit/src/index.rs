//! Three-dimensional indexing of structured grids.
//!
//! A structured mesh addresses its nodes and elements either by a triple
//! `(i, j, k)` ([`Index3`]) or by a linearized offset. [`Extents`] owns the
//! grid dimensions and performs the conversion in row-major (`k` slowest,
//! `i` fastest) order, matching the layout used by LULESH.

use crate::error::{Error, Result};

/// A triple of grid coordinates `(i, j, k)`.
///
/// ```
/// use simkit::index::Index3;
/// let idx = Index3::new(1, 2, 3);
/// assert_eq!(idx.i, 1);
/// assert_eq!(idx + Index3::new(1, 1, 1), Index3::new(2, 3, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Index3 {
    /// Fastest-varying coordinate (x direction).
    pub i: usize,
    /// Middle coordinate (y direction).
    pub j: usize,
    /// Slowest-varying coordinate (z direction).
    pub k: usize,
}

impl Index3 {
    /// Creates a new index triple.
    pub fn new(i: usize, j: usize, k: usize) -> Self {
        Self { i, j, k }
    }

    /// Euclidean distance from this index to another, treating the grid
    /// coordinates as points in space with unit spacing.
    pub fn distance_to(&self, other: &Index3) -> f64 {
        let dx = self.i as f64 - other.i as f64;
        let dy = self.j as f64 - other.j as f64;
        let dz = self.k as f64 - other.k as f64;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Euclidean distance from the grid origin `(0, 0, 0)`.
    ///
    /// This is the "radius" used by the spherically symmetric Sedov problem
    /// to map a 3D element onto a radial shell.
    pub fn radius(&self) -> f64 {
        self.distance_to(&Index3::default())
    }
}

impl std::ops::Add for Index3 {
    type Output = Index3;

    fn add(self, rhs: Index3) -> Index3 {
        Index3::new(self.i + rhs.i, self.j + rhs.j, self.k + rhs.k)
    }
}

impl From<(usize, usize, usize)> for Index3 {
    fn from((i, j, k): (usize, usize, usize)) -> Self {
        Index3::new(i, j, k)
    }
}

/// Grid dimensions together with row-major linearization.
///
/// ```
/// use simkit::index::{Extents, Index3};
/// let ext = Extents::cubic(4);
/// assert_eq!(ext.len(), 64);
/// let idx = Index3::new(1, 2, 3);
/// let lin = ext.linearize(idx).unwrap();
/// assert_eq!(ext.delinearize(lin).unwrap(), idx);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extents {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Extents {
    /// Creates extents for an `nx x ny x nz` grid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidExtent`] if any dimension is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Result<Self> {
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(Error::InvalidExtent {
                what: format!("extents must be positive, got {nx}x{ny}x{nz}"),
            });
        }
        Ok(Self { nx, ny, nz })
    }

    /// Creates cubic extents `n x n x n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn cubic(n: usize) -> Self {
        Self::new(n, n, n).expect("cubic extent must be positive")
    }

    /// Number of cells in the x direction.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of cells in the y direction.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of cells in the z direction.
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Whether the grid contains no cells (never true for a valid value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Converts a triple into a linear row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the triple lies outside the grid.
    pub fn linearize(&self, idx: Index3) -> Result<usize> {
        if idx.i >= self.nx || idx.j >= self.ny || idx.k >= self.nz {
            return Err(Error::OutOfBounds {
                index: idx.i + idx.j * self.nx + idx.k * self.nx * self.ny,
                len: self.len(),
            });
        }
        Ok(idx.i + self.nx * (idx.j + self.ny * idx.k))
    }

    /// Converts a linear offset back into a triple.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the offset exceeds [`Extents::len`].
    pub fn delinearize(&self, linear: usize) -> Result<Index3> {
        if linear >= self.len() {
            return Err(Error::OutOfBounds {
                index: linear,
                len: self.len(),
            });
        }
        let i = linear % self.nx;
        let j = (linear / self.nx) % self.ny;
        let k = linear / (self.nx * self.ny);
        Ok(Index3::new(i, j, k))
    }

    /// Iterates over all index triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Index3> + '_ {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        (0..nz).flat_map(move |k| {
            (0..ny).flat_map(move |j| (0..nx).map(move |i| Index3::new(i, j, k)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_round_trips() {
        let ext = Extents::new(3, 4, 5).unwrap();
        for linear in 0..ext.len() {
            let idx = ext.delinearize(linear).unwrap();
            assert_eq!(ext.linearize(idx).unwrap(), linear);
        }
    }

    #[test]
    fn linearize_rejects_out_of_bounds() {
        let ext = Extents::cubic(3);
        assert!(ext.linearize(Index3::new(3, 0, 0)).is_err());
        assert!(ext.delinearize(27).is_err());
    }

    #[test]
    fn zero_extent_is_rejected() {
        assert!(Extents::new(0, 1, 1).is_err());
        assert!(Extents::new(1, 0, 1).is_err());
        assert!(Extents::new(1, 1, 0).is_err());
    }

    #[test]
    fn iter_visits_every_cell_once() {
        let ext = Extents::new(2, 3, 4);
        let ext = ext.unwrap();
        let all: Vec<_> = ext.iter().collect();
        assert_eq!(all.len(), ext.len());
        // Row-major: first entries vary i fastest.
        assert_eq!(all[0], Index3::new(0, 0, 0));
        assert_eq!(all[1], Index3::new(1, 0, 0));
        assert_eq!(all[2], Index3::new(0, 1, 0));
    }

    #[test]
    fn radius_matches_euclidean_distance() {
        let idx = Index3::new(3, 4, 0);
        assert!((idx.radius() - 5.0).abs() < 1e-12);
        let idx = Index3::new(1, 2, 2);
        assert!((idx.radius() - 3.0).abs() < 1e-12);
    }
}
