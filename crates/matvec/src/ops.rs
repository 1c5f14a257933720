//! Operator composition: the three eigenproblem formulations of paper
//! Eqs. 3–5 and spectral shifts.
//!
//! With `F = diag(f)` positive, the quasispecies eigenproblem can be posed
//! as any of
//!
//! ```text
//! (R)  Q·F·x_R = λ·x_R          (concentrations live in x_R)
//! (S)  F^½·Q·F^½·x_S = λ·x_S    (symmetric — Lanczos-friendly)
//! (L)  F·Q·x_L = λ·x_L
//! ```
//!
//! whose solutions convert by diagonal scalings
//! `x_R = F^{-½}·x_S`, `x_S = F^{-½}·x_L`, `x_R = F^{-1}·x_L`.
//! [`WOperator`] wraps any `Q` engine into any formulation by sandwiching
//! diagonal passes around it; [`conservative_shift`] computes the paper's
//! provably safe shift `µ = (1−2p)^ν·f_min` (Section 3's convergence
//! acceleration, which the power loop applies as `W − µI`).

use crate::{time_stage, LinearOperator, Probe};
use qs_landscape::Landscape;

/// Which of the three equivalent eigenproblem formulations (paper
/// Eqs. 3–5) an operator or eigenvector refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// `W = Q·F` (Eq. 3). The eigenvector holds relative concentrations.
    #[default]
    Right,
    /// `W = F^½·Q·F^½` (Eq. 4). Symmetric whenever `Q` is.
    Symmetric,
    /// `W = F·Q` (Eq. 5).
    Left,
}

impl Formulation {
    /// Exponent `e` such that `x_this = F^{e}·x_S` relative to the
    /// symmetric formulation.
    fn exponent(self) -> f64 {
        match self {
            Formulation::Right => -0.5,
            Formulation::Symmetric => 0.0,
            Formulation::Left => 0.5,
        }
    }
}

/// Convert an eigenvector between formulations:
/// `x_to = F^{e_to − e_from}·x_from` (elementwise powers of the fitness
/// diagonal).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn convert_eigenvector(
    from: Formulation,
    to: Formulation,
    x: &[f64],
    fitness: &[f64],
) -> Vec<f64> {
    let mut out = x.to_vec();
    convert_eigenvector_in_place(from, to, &mut out, fitness);
    out
}

/// [`convert_eigenvector`] in place, so a pooled buffer stays pooled.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn convert_eigenvector_in_place(
    from: Formulation,
    to: Formulation,
    x: &mut [f64],
    fitness: &[f64],
) {
    assert_eq!(
        x.len(),
        fitness.len(),
        "convert_eigenvector: length mismatch"
    );
    let e = to.exponent() - from.exponent();
    if e != 0.0 {
        for (xi, &fi) in x.iter_mut().zip(fitness) {
            *xi *= fi.powf(e);
        }
    }
}

/// A diagonal operator `diag(d)`.
#[derive(Debug, Clone)]
pub struct DiagOp {
    d: Vec<f64>,
}

impl DiagOp {
    /// Wrap a diagonal.
    ///
    /// # Panics
    ///
    /// Panics on an empty diagonal.
    pub fn new(d: Vec<f64>) -> Self {
        assert!(!d.is_empty(), "diagonal must be non-empty");
        DiagOp { d }
    }

    /// Borrow the diagonal values.
    pub fn diagonal(&self) -> &[f64] {
        &self.d
    }
}

impl LinearOperator for DiagOp {
    fn len(&self) -> usize {
        self.d.len()
    }

    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(x.len(), self.len(), "apply_into: x length mismatch");
        assert_eq!(y.len(), self.len(), "apply_into: y length mismatch");
        time_stage(probe, "apply", || {
            for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.d) {
                *yi = di * xi;
            }
        });
    }

    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        time_stage(probe, "apply", || {
            qs_linalg::vec_ops::apply_diagonal(&self.d, v)
        });
    }

    fn flops_estimate(&self) -> f64 {
        self.len() as f64
    }
}

/// The quasispecies operator `W` in a chosen formulation, built from any
/// `Q` engine and a fitness diagonal. The diagonal is owned (`Vec<f64>`,
/// the default) or borrowed (`&[f64]`), so a caller that already holds
/// the fitness table builds `W` without copying it.
#[derive(Debug, Clone)]
pub struct WOperator<Q, F = Vec<f64>> {
    q: Q,
    fitness: F,
    /// `√f`, built only for [`Formulation::Symmetric`] (empty otherwise).
    sqrt_fitness: Vec<f64>,
    form: Formulation,
}

impl<Q: LinearOperator, F: AsRef<[f64]>> WOperator<Q, F> {
    /// Compose `W` from a `Q` engine and a materialised fitness diagonal.
    ///
    /// # Panics
    ///
    /// Panics if the fitness length differs from the operator dimension or
    /// any fitness value is not positive finite.
    pub fn new(q: Q, fitness: F, form: Formulation) -> Self {
        let f = fitness.as_ref();
        assert_eq!(f.len(), q.len(), "fitness length mismatch");
        assert!(
            f.iter().all(|f| f.is_finite() && *f > 0.0),
            "fitness values must be positive"
        );
        let sqrt_fitness = match form {
            Formulation::Symmetric => f.iter().map(|f| f.sqrt()).collect(),
            Formulation::Right | Formulation::Left => Vec::new(),
        };
        WOperator {
            q,
            fitness,
            sqrt_fitness,
            form,
        }
    }

    /// The formulation this operator realises.
    pub fn formulation(&self) -> Formulation {
        self.form
    }

    /// Borrow the fitness diagonal.
    pub fn fitness(&self) -> &[f64] {
        self.fitness.as_ref()
    }

    /// Borrow the wrapped `Q` engine.
    pub fn q(&self) -> &Q {
        &self.q
    }
}

impl<Q: LinearOperator> WOperator<Q> {
    /// Compose from a [`Landscape`] (materialises its diagonal).
    ///
    /// # Panics
    ///
    /// Panics if the landscape dimension differs from the `Q` engine's.
    pub fn from_landscape<L: Landscape + ?Sized>(q: Q, landscape: &L, form: Formulation) -> Self {
        Self::new(q, landscape.materialize(), form)
    }
}

impl<Q: LinearOperator, F: AsRef<[f64]> + Send + Sync> LinearOperator for WOperator<Q, F> {
    fn len(&self) -> usize {
        self.q.len()
    }

    fn flops_estimate(&self) -> f64 {
        self.q.flops_estimate() + 2.0 * self.len() as f64
    }

    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(x.len(), self.len(), "apply_into: x length mismatch");
        assert_eq!(y.len(), self.len(), "apply_into: y length mismatch");
        y.copy_from_slice(x);
        self.apply_in_place_probed(y, probe);
    }

    /// Each fitness pass is timed as one `"diag"` stage; `Q` reports its
    /// own.
    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(v.len(), self.len(), "apply_in_place: length mismatch");
        match self.form {
            Formulation::Right => {
                time_stage(probe, "diag", || {
                    qs_linalg::vec_ops::apply_diagonal(self.fitness.as_ref(), v)
                });
                self.q.apply_in_place_probed(v, probe);
            }
            Formulation::Symmetric => {
                time_stage(probe, "diag", || {
                    qs_linalg::vec_ops::apply_diagonal(&self.sqrt_fitness, v)
                });
                self.q.apply_in_place_probed(v, probe);
                time_stage(probe, "diag", || {
                    qs_linalg::vec_ops::apply_diagonal(&self.sqrt_fitness, v)
                });
            }
            Formulation::Left => {
                self.q.apply_in_place_probed(v, probe);
                time_stage(probe, "diag", || {
                    qs_linalg::vec_ops::apply_diagonal(self.fitness.as_ref(), v)
                });
            }
        }
    }

    /// The leading fitness factor becomes `Q`'s step diagonal: the Right
    /// form forwards `f` and the Symmetric form `√f`, so an engine that
    /// folds the step head (Fmmp's first butterfly pass) applies `F` with
    /// no sweep of its own. The Symmetric form's trailing `√f` and the Left
    /// form's `f` stay separate passes, each timed as one `"diag"` stage;
    /// the Left form hands a caller's `diag` on to `Q` unchanged.
    fn apply_step(
        &self,
        y: &mut [f64],
        x: &mut [f64],
        scale: f64,
        diag: Option<&[f64]>,
        probe: &mut dyn Probe,
    ) {
        let trailing = match (self.form, diag) {
            (Formulation::Right, None) => {
                let f = Some(self.fitness.as_ref());
                return self.q.apply_step(y, x, scale, f, probe);
            }
            (Formulation::Symmetric, None) => {
                let sqrt_f = Some(&self.sqrt_fitness[..]);
                self.q.apply_step(y, x, scale, sqrt_f, probe);
                &self.sqrt_fitness[..]
            }
            (Formulation::Left, _) => {
                self.q.apply_step(y, x, scale, diag, probe);
                self.fitness.as_ref()
            }
            // A caller's diagonal in front of a leading fitness factor
            // would need their product: run the step unfolded.
            _ => return crate::apply_step_unfused(self, y, x, scale, diag, probe),
        };
        time_stage(probe, "diag", || {
            qs_linalg::vec_ops::apply_diagonal(trailing, y)
        });
    }
}

/// The paper's conservative, always-safe spectral shift
/// `µ = (1−2p)^ν · f_min` (Section 3): a lower bound on `λ_{N−1}(W)`
/// derived from `‖W^{-1}‖₁ ≤ f_min^{-1}·(1−2p)^{-ν}`, so `λ₀ − µ` remains
/// the dominant eigenvalue of `W − µI` and the shifted power iteration
/// still converges to the quasispecies.
///
/// # Panics
///
/// Panics unless `0 < p ≤ 1/2` and `f_min > 0`.
pub fn conservative_shift(nu: u32, p: f64, f_min: f64) -> f64 {
    assert!(p > 0.0 && p <= 0.5, "error rate must satisfy 0 < p ≤ 1/2");
    assert!(f_min > 0.0, "f_min must be positive");
    (1.0 - 2.0 * p).powi(nu as i32) * f_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmmp::Fmmp;
    use crate::smvp::Smvp;
    use crate::test_util::{max_diff, random_vector};
    use qs_landscape::{Landscape, Random};
    use qs_linalg::DenseMatrix;
    use qs_mutation::{MutationModel, Uniform};

    fn dense_w(nu: u32, p: f64, f: &[f64], form: Formulation) -> DenseMatrix {
        let q = Uniform::new(nu, p).dense();
        let fd = DenseMatrix::diagonal(f);
        match form {
            Formulation::Right => q.matmul(&fd),
            Formulation::Left => fd.matmul(&q),
            Formulation::Symmetric => {
                let sq: Vec<f64> = f.iter().map(|x| x.sqrt()).collect();
                let sd = DenseMatrix::diagonal(&sq);
                sd.matmul(&q).matmul(&sd)
            }
        }
    }

    #[test]
    fn all_formulations_match_dense() {
        let (nu, p) = (6u32, 0.04);
        let landscape = Random::new(nu, 5.0, 1.0, 3);
        let f = landscape.materialize();
        let x = random_vector(1 << nu, 12);
        for form in [
            Formulation::Right,
            Formulation::Symmetric,
            Formulation::Left,
        ] {
            let w = WOperator::new(Fmmp::new(nu, p), f.clone(), form);
            let want = dense_w(nu, p, &f, form).matvec(&x);
            assert!(max_diff(&want, &w.apply(&x)) < 1e-12, "{form:?}");
        }
    }

    #[test]
    fn formulations_share_their_spectrum() {
        // All three W's have the same dominant eigenvalue.
        let (nu, p) = (5u32, 0.06);
        let f: Vec<f64> = (0..32).map(|i| 1.0 + (i % 7) as f64 / 3.0).collect();
        let mut lambdas = Vec::new();
        for form in [
            Formulation::Right,
            Formulation::Symmetric,
            Formulation::Left,
        ] {
            let dense = dense_w(nu, p, &f, form);
            let eig =
                qs_linalg::dominant_eigenpair(Smvp::new(dense).matrix(), None, 1e-13, 200_000);
            lambdas.push(eig.value);
        }
        assert!((lambdas[0] - lambdas[1]).abs() < 1e-9);
        assert!((lambdas[1] - lambdas[2]).abs() < 1e-9);
    }

    #[test]
    fn eigenvector_conversion_round_trip() {
        let f: Vec<f64> = (0..16).map(|i| 1.0 + i as f64 / 5.0).collect();
        let x = random_vector(16, 9);
        for from in [
            Formulation::Right,
            Formulation::Symmetric,
            Formulation::Left,
        ] {
            for to in [
                Formulation::Right,
                Formulation::Symmetric,
                Formulation::Left,
            ] {
                let there = convert_eigenvector(from, to, &x, &f);
                let back = convert_eigenvector(to, from, &there, &f);
                assert!(max_diff(&x, &back) < 1e-12, "{from:?} → {to:?}");
            }
        }
    }

    #[test]
    fn conversion_maps_eigenvectors_between_formulations() {
        // Solve S-form densely, convert to R-form, check it is an
        // eigenvector of Q·F.
        let (nu, p) = (4u32, 0.09);
        let f: Vec<f64> = (0..16).map(|i| 1.5 + ((i * 13) % 5) as f64 / 2.0).collect();
        let ws = dense_w(nu, p, &f, Formulation::Symmetric);
        let eig = qs_linalg::jacobi_eigen(&ws);
        let xs: Vec<f64> = (0..16).map(|i| eig.vectors[(i, 0)]).collect();
        let xr = convert_eigenvector(Formulation::Symmetric, Formulation::Right, &xs, &f);
        let wr = dense_w(nu, p, &f, Formulation::Right);
        let wx = wr.matvec(&xr);
        for (a, b) in wx.iter().zip(&xr) {
            assert!((a - eig.values[0] * b).abs() < 1e-10);
        }
    }

    #[test]
    fn conservative_shift_is_below_lambda_min() {
        // µ = (1−2p)^ν f_min must not exceed the true smallest eigenvalue
        // of W (checked densely on the symmetric form).
        let (nu, p) = (5u32, 0.07);
        let landscape = Random::new(nu, 5.0, 1.0, 77);
        let f = landscape.materialize();
        let mu = conservative_shift(nu, p, landscape.f_min());
        let eig = qs_linalg::jacobi_eigen(&dense_w(nu, p, &f, Formulation::Symmetric));
        let lam_min = *eig.values.last().unwrap();
        assert!(mu <= lam_min + 1e-12, "shift {mu} exceeds λ_min {lam_min}");
        assert!(mu > 0.0);
    }

    #[test]
    fn diag_op_behaviour() {
        let d = DiagOp::new(vec![2.0, 3.0]);
        assert_eq!(d.apply(&[1.0, 1.0]), vec![2.0, 3.0]);
        let mut v = vec![4.0, 5.0];
        d.apply_in_place(&mut v);
        assert_eq!(v, vec![8.0, 15.0]);
    }

    #[test]
    fn w_operator_step_matches_the_unfused_step() {
        // Every formulation, on the fused engine (the head rides its tiled
        // first pass) and the staged one (a separate head pass), with and
        // without a caller diagonal and a pending normalisation, probed or
        // not: the same bits as the default's head pass followed by the
        // in-place apply.
        use qs_telemetry::{NullProbe, RecordingProbe};
        let (nu, p) = (14u32, 0.03);
        let n = 1usize << nu;
        let f = Random::new(nu, 5.0, 1.0, 5).materialize();
        let d: Vec<f64> = random_vector(n, 6).iter().map(|v| 1.5 + v).collect();
        let (y0, x0) = (random_vector(n, 3), random_vector(n, 4));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for engine in [
            Fmmp::new(nu, p),
            Fmmp::with_variant(nu, p, crate::FmmpVariant::Iterative),
        ] {
            for form in [
                Formulation::Right,
                Formulation::Symmetric,
                Formulation::Left,
            ] {
                let w = WOperator::new(engine, f.as_slice(), form);
                let heads = [None, Some(d.as_slice())]
                    .into_iter()
                    .flat_map(|diag| [0.0, 0.5].map(|scale| (diag, scale)));
                for (diag, scale) in heads {
                    let (mut want_y, mut want_x) = (y0.clone(), x0.clone());
                    crate::apply_step_unfused(
                        &w,
                        &mut want_y,
                        &mut want_x,
                        scale,
                        diag,
                        &mut NullProbe,
                    );
                    for probed in [false, true] {
                        let (mut y, mut x) = (y0.clone(), x0.clone());
                        let mut rec = RecordingProbe::new();
                        let probe: &mut dyn Probe = if probed { &mut rec } else { &mut NullProbe };
                        w.apply_step(&mut y, &mut x, scale, diag, probe);
                        let case = format!(
                            "{engine:?} {form:?} diag={} scale={scale} probed={probed}",
                            diag.is_some()
                        );
                        assert_eq!(bits(&y), bits(&want_y), "{case}");
                        assert_eq!(bits(&x), bits(&want_x), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fitness values must be positive")]
    fn rejects_nonpositive_fitness() {
        let _ = WOperator::new(
            Fmmp::new(2, 0.1),
            vec![1.0, -1.0, 1.0, 1.0],
            Formulation::Right,
        );
    }
}
