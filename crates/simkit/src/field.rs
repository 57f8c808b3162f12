//! Scalar and vector fields over a mesh.
//!
//! Fields are simple structure-of-arrays containers indexed the same way as
//! the mesh entity they live on (element- or node-centred). They carry a
//! name so diagnostics and the in-situ analysis layer can refer to variables
//! symbolically ("velocity", "temperature", ...).

use crate::error::{Error, Result};

/// A named scalar field.
///
/// ```
/// use simkit::field::ScalarField;
///
/// let mut e = ScalarField::zeros("energy", 4);
/// e.set(0, 3.0).unwrap();
/// assert_eq!(e.get(0).unwrap(), 3.0);
/// assert_eq!(e.sum(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarField {
    name: String,
    data: Vec<f64>,
}

impl ScalarField {
    /// Creates a field of `len` zeros.
    pub fn zeros(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            data: vec![0.0; len],
        }
    }

    /// Creates a field filled with a constant value.
    pub fn constant(name: impl Into<String>, len: usize, value: f64) -> Self {
        Self {
            name: name.into(),
            data: vec![value; len],
        }
    }

    /// Creates a field from existing values.
    pub fn from_vec(name: impl Into<String>, data: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            data,
        }
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the field has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads the value at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `index >= len`.
    pub fn get(&self, index: usize) -> Result<f64> {
        self.data.get(index).copied().ok_or(Error::OutOfBounds {
            index,
            len: self.data.len(),
        })
    }

    /// Writes the value at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `index >= len`.
    pub fn set(&mut self, index: usize, value: f64) -> Result<()> {
        let len = self.data.len();
        match self.data.get_mut(index) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(Error::OutOfBounds { index, len }),
        }
    }

    /// Overwrites every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Shared view of the raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw values.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean (0 for an empty field).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest entry (negative infinity for an empty field).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest entry (positive infinity for an empty field).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Adds `scale * other` entry-wise.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the fields differ in length.
    pub fn axpy(&mut self, scale: f64, other: &ScalarField) -> Result<()> {
        if self.len() != other.len() {
            return Err(Error::ShapeMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
        Ok(())
    }
}

/// A named 3-component vector field stored as structure-of-arrays.
///
/// ```
/// use simkit::field::VectorField;
///
/// let mut v = VectorField::zeros("velocity", 10);
/// v.set(2, [1.0, 2.0, 2.0]).unwrap();
/// assert!((v.magnitude(2).unwrap() - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField {
    name: String,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl VectorField {
    /// Creates a field of `len` zero vectors.
    pub fn zeros(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            x: vec![0.0; len],
            y: vec![0.0; len],
            z: vec![0.0; len],
        }
    }

    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the field has no entries.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Reads the vector at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `index >= len`.
    pub fn get(&self, index: usize) -> Result<[f64; 3]> {
        if index >= self.len() {
            return Err(Error::OutOfBounds {
                index,
                len: self.len(),
            });
        }
        Ok([self.x[index], self.y[index], self.z[index]])
    }

    /// Writes the vector at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `index >= len`.
    pub fn set(&mut self, index: usize, value: [f64; 3]) -> Result<()> {
        if index >= self.len() {
            return Err(Error::OutOfBounds {
                index,
                len: self.len(),
            });
        }
        self.x[index] = value[0];
        self.y[index] = value[1];
        self.z[index] = value[2];
        Ok(())
    }

    /// Euclidean norm of the vector at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] if `index >= len`.
    pub fn magnitude(&self, index: usize) -> Result<f64> {
        let [x, y, z] = self.get(index)?;
        Ok((x * x + y * y + z * z).sqrt())
    }

    /// X components.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Y components.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Z components.
    pub fn z(&self) -> &[f64] {
        &self.z
    }

    /// Mutable X components.
    pub fn x_mut(&mut self) -> &mut [f64] {
        &mut self.x
    }

    /// Mutable Y components.
    pub fn y_mut(&mut self) -> &mut [f64] {
        &mut self.y
    }

    /// Mutable Z components.
    pub fn z_mut(&mut self) -> &mut [f64] {
        &mut self.z
    }

    /// Largest vector magnitude in the field (0 for an empty field).
    pub fn max_magnitude(&self) -> f64 {
        (0..self.len())
            .map(|i| {
                let x = self.x[i];
                let y = self.y[i];
                let z = self.z[i];
                (x * x + y * y + z * z).sqrt()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_field_get_set_round_trip() {
        let mut f = ScalarField::zeros("p", 5);
        for i in 0..5 {
            f.set(i, i as f64 * 2.0).unwrap();
        }
        for i in 0..5 {
            assert_eq!(f.get(i).unwrap(), i as f64 * 2.0);
        }
        assert!(f.get(5).is_err());
        assert!(f.set(5, 1.0).is_err());
    }

    #[test]
    fn scalar_field_statistics() {
        let f = ScalarField::from_vec("e", vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.sum(), 10.0);
        assert_eq!(f.mean(), 2.5);
        assert_eq!(f.max(), 4.0);
        assert_eq!(f.min(), 1.0);
    }

    #[test]
    fn scalar_axpy_requires_matching_shapes() {
        let mut a = ScalarField::constant("a", 3, 1.0);
        let b = ScalarField::constant("b", 3, 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.0, 2.0]);
        let c = ScalarField::zeros("c", 4);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn vector_field_magnitude_and_bounds() {
        let mut v = VectorField::zeros("u", 3);
        v.set(1, [3.0, 4.0, 0.0]).unwrap();
        assert!((v.magnitude(1).unwrap() - 5.0).abs() < 1e-12);
        assert!(v.get(3).is_err());
        assert!(v.set(3, [0.0; 3]).is_err());
        assert!((v.max_magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn constant_field_has_uniform_values() {
        let f = ScalarField::constant("rho", 10, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }
}
