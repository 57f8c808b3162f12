//! Structured hexahedral meshes.
//!
//! The proxy applications operate on a regular, axis-aligned hexahedral mesh
//! of `n x n x n` elements whose nodes sit on a `(n+1)^3` lattice. The mesh
//! stores nodal coordinates explicitly because Lagrangian hydrodynamics
//! moves the nodes with the material; element-to-node connectivity is
//! implicit in the structured layout and exposed through
//! [`StructuredMesh::element_nodes`].

use crate::error::{Error, Result};
use crate::index::{Extents, Index3};

/// A regular structured mesh of hexahedral elements.
///
/// ```
/// use simkit::mesh::StructuredMesh;
///
/// let mesh = StructuredMesh::cubic(4, 1.0);
/// assert_eq!(mesh.num_elements(), 64);
/// assert_eq!(mesh.num_nodes(), 125);
/// let corners = mesh.element_nodes(0);
/// assert_eq!(corners.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct StructuredMesh {
    element_extents: Extents,
    node_extents: Extents,
    /// Physical edge length of the whole domain.
    domain_size: f64,
    /// Nodal coordinates, one `[x, y, z]` triple per node.
    coords: Vec<[f64; 3]>,
}

impl StructuredMesh {
    /// Builds a cubic mesh with `edge_elems` elements along each axis and a
    /// physical domain edge length of `domain_size`.
    ///
    /// # Panics
    ///
    /// Panics if `edge_elems` is zero or `domain_size` is not positive.
    pub fn cubic(edge_elems: usize, domain_size: f64) -> Self {
        assert!(edge_elems > 0, "edge_elems must be positive");
        assert!(domain_size > 0.0, "domain_size must be positive");
        let element_extents = Extents::cubic(edge_elems);
        let node_extents = Extents::cubic(edge_elems + 1);
        let dx = domain_size / edge_elems as f64;
        let mut coords = Vec::with_capacity(node_extents.len());
        for idx in node_extents.iter() {
            coords.push([idx.i as f64 * dx, idx.j as f64 * dx, idx.k as f64 * dx]);
        }
        Self {
            element_extents,
            node_extents,
            domain_size,
            coords,
        }
    }

    /// Number of elements along one edge.
    pub fn edge_elems(&self) -> usize {
        self.element_extents.nx()
    }

    /// Extents of the element grid.
    pub fn element_extents(&self) -> Extents {
        self.element_extents
    }

    /// Extents of the node lattice.
    pub fn node_extents(&self) -> Extents {
        self.node_extents
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.element_extents.len()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_extents.len()
    }

    /// Physical edge length of the whole domain.
    pub fn domain_size(&self) -> f64 {
        self.domain_size
    }

    /// Initial (uniform) element edge length.
    pub fn initial_spacing(&self) -> f64 {
        self.domain_size / self.edge_elems() as f64
    }

    /// Coordinates of a node by linear index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `node` is not a valid node index.
    pub fn node_coords(&self, node: usize) -> Result<[f64; 3]> {
        self.coords.get(node).copied().ok_or(Error::OutOfBounds {
            index: node,
            len: self.coords.len(),
        })
    }

    /// Mutable access to all nodal coordinates (used by Lagrangian motion).
    pub fn coords_mut(&mut self) -> &mut [[f64; 3]] {
        &mut self.coords
    }

    /// Shared access to all nodal coordinates.
    pub fn coords(&self) -> &[[f64; 3]] {
        &self.coords
    }

    /// The eight node indices forming the corners of an element.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of bounds.
    pub fn element_nodes(&self, element: usize) -> [usize; 8] {
        let idx = self
            .element_extents
            .delinearize(element)
            .expect("element index out of bounds");
        let n = |di: usize, dj: usize, dk: usize| {
            self.node_extents
                .linearize(Index3::new(idx.i + di, idx.j + dj, idx.k + dk))
                .expect("corner node must exist")
        };
        [
            n(0, 0, 0),
            n(1, 0, 0),
            n(1, 1, 0),
            n(0, 1, 0),
            n(0, 0, 1),
            n(1, 0, 1),
            n(1, 1, 1),
            n(0, 1, 1),
        ]
    }

    /// Centroid of an element computed from its current corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of bounds.
    pub fn element_centroid(&self, element: usize) -> [f64; 3] {
        let corners = self.element_nodes(element);
        let mut c = [0.0; 3];
        for node in corners {
            let p = self.coords[node];
            c[0] += p[0];
            c[1] += p[1];
            c[2] += p[2];
        }
        [c[0] / 8.0, c[1] / 8.0, c[2] / 8.0]
    }

    /// Distance of an element centroid from the domain origin, expressed in
    /// units of the *initial* element spacing (a dimensionless radius that
    /// matches the "location id" used by the paper's LULESH case study).
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of bounds.
    pub fn element_radius_index(&self, element: usize) -> f64 {
        let c = self.element_centroid(element);
        let r = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        r / self.initial_spacing()
    }

    /// Returns all element indices whose centroid radius (in spacing units)
    /// rounds to the given integer shell radius.
    pub fn elements_on_shell(&self, shell: usize) -> Vec<usize> {
        (0..self.num_elements())
            .filter(|&e| self.element_radius_index(e).round() as usize == shell)
            .collect()
    }

    /// Volume of an element assuming it is still an axis-aligned box spanned
    /// by its first and seventh corner (exact for the undeformed mesh and a
    /// good approximation for the mildly deformed proxy meshes).
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of bounds.
    pub fn element_volume(&self, element: usize) -> f64 {
        let corners = self.element_nodes(element);
        let a = self.coords[corners[0]];
        let b = self.coords[corners[6]];
        ((b[0] - a[0]) * (b[1] - a[1]) * (b[2] - a[2])).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_mesh_counts() {
        let mesh = StructuredMesh::cubic(3, 3.0);
        assert_eq!(mesh.num_elements(), 27);
        assert_eq!(mesh.num_nodes(), 64);
        assert!((mesh.initial_spacing() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn element_nodes_are_distinct_and_in_range() {
        let mesh = StructuredMesh::cubic(4, 1.0);
        for e in 0..mesh.num_elements() {
            let nodes = mesh.element_nodes(e);
            let mut sorted = nodes;
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert_ne!(w[0], w[1], "corner nodes must be distinct");
            }
            for n in nodes {
                assert!(n < mesh.num_nodes());
            }
        }
    }

    #[test]
    fn element_volume_matches_spacing_cube() {
        let mesh = StructuredMesh::cubic(5, 2.5);
        let expect = mesh.initial_spacing().powi(3);
        for e in 0..mesh.num_elements() {
            assert!((mesh.element_volume(e) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn centroid_of_first_element_is_half_spacing() {
        let mesh = StructuredMesh::cubic(4, 4.0);
        let c = mesh.element_centroid(0);
        assert!((c[0] - 0.5).abs() < 1e-12);
        assert!((c[1] - 0.5).abs() < 1e-12);
        assert!((c[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shells_partition_elements() {
        let mesh = StructuredMesh::cubic(6, 6.0);
        let total: usize = (0..=11).map(|s| mesh.elements_on_shell(s).len()).sum();
        assert_eq!(total, mesh.num_elements());
    }

    #[test]
    fn radius_index_grows_along_diagonal() {
        let mesh = StructuredMesh::cubic(8, 8.0);
        let ext = mesh.element_extents();
        let r0 = mesh.element_radius_index(ext.linearize((0, 0, 0).into()).unwrap());
        let r1 = mesh.element_radius_index(ext.linearize((4, 4, 4).into()).unwrap());
        let r2 = mesh.element_radius_index(ext.linearize((7, 7, 7).into()).unwrap());
        assert!(r0 < r1 && r1 < r2);
    }
}
