//! Block domain decomposition across ranks.
//!
//! LULESH requires a cubic number of MPI ranks (1, 8, 27, ...) and splits the
//! cubic domain into equally sized sub-cubes; Castro splits its AMR grid into
//! boxes distributed round-robin. [`BlockDecomposition`] implements the
//! LULESH-style cubic split and a generic contiguous-chunk split used when a
//! perfect cube is not available, and answers the two questions the runtime
//! and the in-situ layer ask: *which rank owns element e?* and *which
//! elements does rank r own?*

use crate::error::{Error, Result};
use crate::index::{Extents, Index3};

/// How the global element grid is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// A cubic `p x p x p` split (LULESH style); requires `ranks` to be a
    /// perfect cube.
    Cubic,
    /// Contiguous slabs of the linearized element range (Castro/AMReX
    /// box-list style fallback that works for any rank count).
    Linear,
}

/// A static assignment of grid elements to ranks.
///
/// ```
/// use simkit::decomposition::BlockDecomposition;
/// use simkit::index::Extents;
///
/// let dec = BlockDecomposition::new(Extents::cubic(30), 8).unwrap();
/// assert_eq!(dec.num_ranks(), 8);
/// let owned: usize = (0..8).map(|r| dec.elements_of_rank(r).len()).sum();
/// assert_eq!(owned, 27_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecomposition {
    extents: Extents,
    ranks: usize,
    kind: SplitKind,
    /// Ranks along each axis for the cubic split (1 for linear).
    ranks_per_axis: usize,
}

impl BlockDecomposition {
    /// Creates a decomposition of `extents` over `ranks` ranks.
    ///
    /// A cubic split is used when `ranks` is a perfect cube (including 1);
    /// otherwise elements are assigned in contiguous linear chunks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decomposition`] if `ranks` is zero or exceeds the
    /// number of elements.
    pub fn new(extents: Extents, ranks: usize) -> Result<Self> {
        if ranks == 0 {
            return Err(Error::Decomposition {
                what: "rank count must be positive".into(),
            });
        }
        if ranks > extents.len() {
            return Err(Error::Decomposition {
                what: format!("rank count {ranks} exceeds element count {}", extents.len()),
            });
        }
        let cbrt = (ranks as f64).cbrt().round() as usize;
        let is_cube = cbrt * cbrt * cbrt == ranks;
        let divides = is_cube
            && extents.nx().is_multiple_of(cbrt)
            && extents.ny().is_multiple_of(cbrt)
            && extents.nz().is_multiple_of(cbrt);
        let (kind, ranks_per_axis) = if divides {
            (SplitKind::Cubic, cbrt)
        } else {
            (SplitKind::Linear, 1)
        };
        Ok(Self {
            extents,
            ranks,
            kind,
            ranks_per_axis,
        })
    }

    /// Global element extents being decomposed.
    pub fn extents(&self) -> Extents {
        self.extents
    }

    /// Number of ranks in the decomposition.
    pub fn num_ranks(&self) -> usize {
        self.ranks
    }

    /// Which split strategy was chosen.
    pub fn kind(&self) -> SplitKind {
        self.kind
    }

    /// The rank that owns a global element (by linear index).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if the element does not exist.
    pub fn owner_of(&self, element: usize) -> Result<usize> {
        if element >= self.extents.len() {
            return Err(Error::OutOfBounds {
                index: element,
                len: self.extents.len(),
            });
        }
        match self.kind {
            SplitKind::Cubic => {
                let idx = self.extents.delinearize(element)?;
                let p = self.ranks_per_axis;
                let bx = idx.i * p / self.extents.nx();
                let by = idx.j * p / self.extents.ny();
                let bz = idx.k * p / self.extents.nz();
                Ok(bx + p * (by + p * bz))
            }
            SplitKind::Linear => {
                // Balanced chunking: the first `len % ranks` ranks own one
                // extra element, so no rank is ever left empty.
                let len = self.extents.len();
                let base = len / self.ranks;
                let remainder = len % self.ranks;
                let cutoff = (base + 1) * remainder;
                if element < cutoff {
                    Ok(element / (base + 1))
                } else {
                    Ok(remainder + (element - cutoff) / base)
                }
            }
        }
    }

    /// All global element indices owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= num_ranks()`.
    pub fn elements_of_rank(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.ranks, "rank {rank} out of range");
        (0..self.extents.len())
            .filter(|&e| self.owner_of(e).expect("element in range") == rank)
            .collect()
    }

    /// Half-open range of elements owned by `rank` for the linear split, or
    /// `None` for the cubic split (whose ownership is not contiguous).
    pub fn linear_range_of_rank(&self, rank: usize) -> Option<std::ops::Range<usize>> {
        if self.kind != SplitKind::Linear || rank >= self.ranks {
            return None;
        }
        let len = self.extents.len();
        let base = len / self.ranks;
        let remainder = len % self.ranks;
        let cutoff = (base + 1) * remainder;
        let (start, end) = if rank < remainder {
            (rank * (base + 1), (rank + 1) * (base + 1))
        } else {
            let start = cutoff + (rank - remainder) * base;
            (start, start + base)
        };
        Some(start..end)
    }

    /// The ranks whose sub-domains touch the sub-domain of `rank` (face
    /// neighbours for the cubic split; predecessor/successor for the linear
    /// split). Used to size halo-exchange traffic in the parallel cost model.
    pub fn neighbors_of(&self, rank: usize) -> Vec<usize> {
        match self.kind {
            SplitKind::Linear => {
                let mut out = Vec::new();
                if rank > 0 {
                    out.push(rank - 1);
                }
                if rank + 1 < self.ranks {
                    out.push(rank + 1);
                }
                out
            }
            SplitKind::Cubic => {
                let p = self.ranks_per_axis;
                let bx = rank % p;
                let by = (rank / p) % p;
                let bz = rank / (p * p);
                let mut out = Vec::new();
                let deltas: [(isize, isize, isize); 6] = [
                    (-1, 0, 0),
                    (1, 0, 0),
                    (0, -1, 0),
                    (0, 1, 0),
                    (0, 0, -1),
                    (0, 0, 1),
                ];
                for (dx, dy, dz) in deltas {
                    let nx = bx as isize + dx;
                    let ny = by as isize + dy;
                    let nz = bz as isize + dz;
                    if nx >= 0
                        && ny >= 0
                        && nz >= 0
                        && (nx as usize) < p
                        && (ny as usize) < p
                        && (nz as usize) < p
                    {
                        out.push(nx as usize + p * (ny as usize + p * nz as usize));
                    }
                }
                out
            }
        }
    }

    /// The rank whose sub-domain contains the grid origin. The paper's
    /// analysis broadcasts from the rank that observes the wave front; the
    /// blast originates at the origin, so this is the initial front owner.
    pub fn origin_rank(&self) -> usize {
        self.owner_of(
            self.extents
                .linearize(Index3::new(0, 0, 0))
                .expect("origin element exists"),
        )
        .expect("origin element owned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_owns_everything() {
        let dec = BlockDecomposition::new(Extents::cubic(4), 1).unwrap();
        assert_eq!(dec.kind(), SplitKind::Cubic);
        assert_eq!(dec.elements_of_rank(0).len(), 64);
        assert_eq!(dec.origin_rank(), 0);
    }

    #[test]
    fn cubic_split_partitions_evenly() {
        let dec = BlockDecomposition::new(Extents::cubic(30), 27).unwrap();
        assert_eq!(dec.kind(), SplitKind::Cubic);
        for r in 0..27 {
            assert_eq!(dec.elements_of_rank(r).len(), 1000);
        }
    }

    #[test]
    fn every_element_has_exactly_one_owner() {
        let dec = BlockDecomposition::new(Extents::cubic(6), 8).unwrap();
        let mut counts = [0usize; 8];
        for e in 0..dec.extents().len() {
            counts[dec.owner_of(e).unwrap()] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 216);
        assert!(counts.iter().all(|&c| c == 27));
    }

    #[test]
    fn linear_split_used_for_non_cubic_rank_counts() {
        let dec = BlockDecomposition::new(Extents::cubic(8), 5).unwrap();
        assert_eq!(dec.kind(), SplitKind::Linear);
        let total: usize = (0..5).map(|r| dec.elements_of_rank(r).len()).sum();
        assert_eq!(total, 512);
        assert!(dec.linear_range_of_rank(0).is_some());
    }

    #[test]
    fn invalid_rank_counts_are_rejected() {
        assert!(BlockDecomposition::new(Extents::cubic(2), 0).is_err());
        assert!(BlockDecomposition::new(Extents::cubic(2), 9).is_err());
    }

    #[test]
    fn cubic_neighbors_are_faces_only() {
        let dec = BlockDecomposition::new(Extents::cubic(6), 27).unwrap();
        // Corner rank 0 has 3 neighbours, centre rank 13 has 6.
        assert_eq!(dec.neighbors_of(0).len(), 3);
        assert_eq!(dec.neighbors_of(13).len(), 6);
    }

    #[test]
    fn linear_neighbors_are_adjacent_chunks() {
        let dec = BlockDecomposition::new(Extents::cubic(8), 5).unwrap();
        assert_eq!(dec.neighbors_of(0), vec![1]);
        assert_eq!(dec.neighbors_of(2), vec![1, 3]);
        assert_eq!(dec.neighbors_of(4), vec![3]);
    }

    #[test]
    fn owner_of_out_of_bounds_errors() {
        let dec = BlockDecomposition::new(Extents::cubic(2), 1).unwrap();
        assert!(dec.owner_of(8).is_err());
    }
}
