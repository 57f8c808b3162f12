//! Gradient-descent update rules for the AR coefficients.
//!
//! The paper trains the model with plain gradient descent on each filled
//! mini-batch. Plain SGD is therefore the default; momentum and Adagrad are
//! provided for the optimizer ablation bench (`ablate_optimizer`), since a
//! practitioner adopting the library would reasonably ask whether a smarter
//! update rule changes the accuracy/overhead trade-off.

/// An in-place update rule `params -= f(grads)`.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step given the loss gradient w.r.t. every
    /// parameter.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `params` and `grads` differ in length.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);

    /// The learning rate currently in effect.
    fn learning_rate(&self) -> f64;

    /// Appends the optimizer's mutable state (velocity, accumulators, ...)
    /// to `out` as a flat `f64` vector for the snapshot encoder. Stateless
    /// optimizers append nothing (the default).
    fn export_state(&self, out: &mut Vec<f64>) {
        let _ = out;
    }

    /// Overwrites the optimizer's mutable state from a flat vector produced
    /// by [`Optimizer::export_state`] on an identically configured instance.
    /// Returns `false` (leaving the state untouched) if the length does not
    /// fit; stateless optimizers accept only the empty slice (the default).
    fn import_state(&mut self, state: &[f64]) -> bool {
        state.is_empty()
    }
}

/// Identifies an optimizer family plus its learning rate; used in
/// configuration structs that must be plain data (serializable, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent (the paper's choice).
    Sgd {
        /// Learning rate.
        learning_rate: f64,
    },
    /// SGD with heavy-ball momentum.
    Momentum {
        /// Learning rate.
        learning_rate: f64,
        /// Momentum factor in `[0, 1)`.
        beta: f64,
    },
    /// Adagrad with per-parameter adaptive rates.
    Adagrad {
        /// Base learning rate.
        learning_rate: f64,
    },
}

impl Default for OptimizerKind {
    fn default() -> Self {
        OptimizerKind::Sgd {
            learning_rate: 0.05,
        }
    }
}

impl OptimizerKind {
    /// Instantiates the optimizer state for `dim` parameters.
    pub fn build(self, dim: usize) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd { learning_rate } => Box::new(Sgd::new(learning_rate)),
            OptimizerKind::Momentum {
                learning_rate,
                beta,
            } => Box::new(Momentum::new(learning_rate, beta, dim)),
            OptimizerKind::Adagrad { learning_rate } => Box::new(Adagrad::new(learning_rate, dim)),
        }
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    learning_rate: f64,
}

impl Sgd {
    /// Creates an SGD optimizer; non-positive learning rates are clamped to
    /// a tiny positive value so a misconfiguration degrades gracefully
    /// instead of reversing the descent direction.
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate: learning_rate.max(1e-12),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.learning_rate * g;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }
}

/// Heavy-ball momentum.
#[derive(Debug, Clone, PartialEq)]
pub struct Momentum {
    learning_rate: f64,
    beta: f64,
    velocity: Vec<f64>,
}

impl Momentum {
    /// Creates a momentum optimizer for `dim` parameters.
    pub fn new(learning_rate: f64, beta: f64, dim: usize) -> Self {
        Self {
            learning_rate: learning_rate.max(1e-12),
            beta: beta.clamp(0.0, 0.999),
            velocity: vec![0.0; dim],
        }
    }
}

impl Optimizer for Momentum {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        assert_eq!(params.len(), self.velocity.len(), "dimension mismatch");
        for ((p, g), v) in params.iter_mut().zip(grads).zip(self.velocity.iter_mut()) {
            *v = self.beta * *v + (1.0 - self.beta) * g;
            *p -= self.learning_rate * *v;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn export_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.velocity);
    }

    fn import_state(&mut self, state: &[f64]) -> bool {
        if state.len() != self.velocity.len() {
            return false;
        }
        self.velocity.copy_from_slice(state);
        true
    }
}

/// Adagrad: per-parameter learning rates scaled by accumulated squared
/// gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct Adagrad {
    learning_rate: f64,
    accumulator: Vec<f64>,
    epsilon: f64,
}

impl Adagrad {
    /// Creates an Adagrad optimizer for `dim` parameters.
    pub fn new(learning_rate: f64, dim: usize) -> Self {
        Self {
            learning_rate: learning_rate.max(1e-12),
            accumulator: vec![0.0; dim],
            epsilon: 1e-10,
        }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient mismatch");
        assert_eq!(params.len(), self.accumulator.len(), "dimension mismatch");
        for ((p, g), a) in params
            .iter_mut()
            .zip(grads)
            .zip(self.accumulator.iter_mut())
        {
            *a += g * g;
            *p -= self.learning_rate * g / (a.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn export_state(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.accumulator);
    }

    fn import_state(&mut self, state: &[f64]) -> bool {
        if state.len() != self.accumulator.len() {
            return false;
        }
        self.accumulator.copy_from_slice(state);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(optimizer: &mut dyn Optimizer) -> f64 {
        // Minimize f(x) = (x - 3)^2 starting from 0; gradient is 2(x - 3).
        let mut params = vec![0.0];
        for _ in 0..500 {
            let grads = vec![2.0 * (params[0] - 3.0)];
            optimizer.step(&mut params, &grads);
        }
        params[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!((quadratic_descent(&mut opt) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let mut opt = Momentum::new(0.1, 0.9, 1);
        assert!((quadratic_descent(&mut opt) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = Adagrad::new(0.5, 1);
        assert!((quadratic_descent(&mut opt) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn kind_builds_matching_optimizer() {
        let sgd = OptimizerKind::Sgd { learning_rate: 0.2 }.build(3);
        assert_eq!(sgd.learning_rate(), 0.2);
        let mom = OptimizerKind::Momentum {
            learning_rate: 0.1,
            beta: 0.5,
        }
        .build(3);
        assert_eq!(mom.learning_rate(), 0.1);
        let ada = OptimizerKind::Adagrad { learning_rate: 0.3 }.build(3);
        assert_eq!(ada.learning_rate(), 0.3);
    }

    #[test]
    fn nonpositive_learning_rates_are_clamped() {
        assert!(Sgd::new(0.0).learning_rate() > 0.0);
        assert!(Sgd::new(-1.0).learning_rate() > 0.0);
    }

    #[test]
    fn state_export_import_round_trips() {
        // Warm an optimizer, export, overlay onto a fresh instance, and the
        // next step must match bit for bit.
        for kind in [
            OptimizerKind::Sgd { learning_rate: 0.1 },
            OptimizerKind::Momentum {
                learning_rate: 0.1,
                beta: 0.9,
            },
            OptimizerKind::Adagrad { learning_rate: 0.3 },
        ] {
            let mut warm = kind.build(3);
            let mut params = vec![0.5, -1.0, 2.0];
            for i in 0..7 {
                let g = i as f64 * 0.25 - 0.5;
                warm.step(&mut params, &[g, -g, g * 2.0]);
            }
            let mut state = Vec::new();
            warm.export_state(&mut state);

            let mut cold = kind.build(3);
            assert!(cold.import_state(&state));
            let mut a = params.clone();
            let mut b = params.clone();
            warm.step(&mut a, &[0.3, -0.7, 1.1]);
            cold.step(&mut b, &[0.3, -0.7, 1.1]);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn state_import_rejects_wrong_lengths() {
        let mut mom = OptimizerKind::Momentum {
            learning_rate: 0.1,
            beta: 0.9,
        }
        .build(3);
        assert!(!mom.import_state(&[0.0; 2]));
        assert!(mom.import_state(&[0.0; 3]));
        let mut sgd = OptimizerKind::Sgd { learning_rate: 0.1 }.build(3);
        assert!(sgd.import_state(&[]));
        assert!(!sgd.import_state(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "parameter/gradient mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut params = vec![0.0, 1.0];
        opt.step(&mut params, &[1.0]);
    }
}
