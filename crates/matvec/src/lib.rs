//! Implicit matrix–vector products for the quasispecies model.
//!
//! This crate implements every matrix–vector engine of the paper:
//!
//! * [`fmmp`] — the **fast mutation matrix product** (paper Section 2,
//!   Algorithms 1 & 2): `Q(ν)·v` in `Θ(N log₂ N)` time, in place, without
//!   storing a single matrix element. Both recursion orderings (Eq. 9 and
//!   Eq. 10) and the GPU-kernel index form are provided.
//! * [`xmvp`] — the XOR-based implicit (optionally sparsified) product
//!   `Xmvp(d_max)` of the authors' prior work \[10\], the paper's main
//!   baseline. `Xmvp(ν)` is the exact `Θ(N²)` product; `Xmvp(d_max)`
//!   truncates mutations beyond Hamming distance `d_max`.
//! * [`smvp`] — the standard dense product `Smvp` on an explicitly
//!   materialised matrix.
//! * [`fwht`] — the fast Walsh–Hadamard transform, i.e. multiplication by
//!   the eigenvector matrix `V(ν)` of `Q`.
//! * [`shift_invert`] — the `Θ(N log₂ N)` implicit
//!   `(Q − µI)^{-1} v = V (Λ − µI)^{-1} V v` product (paper Section 3).
//! * [`kron`] — a general mixed-radix Kronecker-chain operator covering the
//!   per-site and grouped mutation models of paper Section 2.2 (and the
//!   4-letter alphabet of Section 5.2).
//! * [`ops`] — operator composition: the three eigenproblem formulations
//!   `Q·F`, `F^½·Q·F^½`, `F·Q` (paper Eqs. 3–5) and spectral shifts.
//! * [`fused`] — the cache-blocked radix-4/8 butterfly kernels and the
//!   pass plan ([`FusedPlan`]) every fused product runs.
//! * [`schedule`] — the one executor of a fused plan
//!   ([`schedule::run_fused`]): the plan's passes in order on the calling
//!   thread, or, standing in for the paper's OpenCL/GPU implementation,
//!   the same `ID`-indexed butterfly decomposition (Algorithm 2) on the
//!   chunk-stealing span schedule, one scoped set of workers per apply.
//!   [`Fmmp::new`] runs it on as many workers as the calling thread's
//!   width grants.
//! * [`simd`] — runtime-dispatched AVX2/AVX-512 fibre kernels (with the
//!   portable scalar loops as fallback and reference) that every fused
//!   pass runs, at every worker count.
//!
//! All engines implement [`LinearOperator`] and are verified against each
//! other and against dense materialisations in the test suite.
//!
//! `unsafe` is denied crate-wide and allowed in exactly two leaf modules:
//! [`simd`] (`std::arch` intrinsics behind safe dispatch wrappers) and
//! [`schedule`] (disjoint-span `&mut` reconstruction behind a pass
//! barrier). Everything else remains safe Rust.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fmmp;
pub mod fused;
pub mod fwht;
pub mod kron;
pub mod ops;
pub mod permuted;
pub mod schedule;
pub mod shift_invert;
pub mod simd;
pub mod smvp;
pub mod xmvp;

pub use fmmp::{Fmmp, FmmpVariant};
pub use fused::{fmmp_in_place_fused, fwht_in_place_fused, FusedPlan, FUSED_TILE};
pub use fwht::Fwht;
pub use kron::KroneckerOp;
pub use ops::{
    conservative_shift, convert_eigenvector, convert_eigenvector_in_place, DiagOp, Formulation,
    WOperator,
};
pub use permuted::PermutedOp;
pub use shift_invert::{QShiftInvert, QSweep};
pub use simd::Isa;
pub use smvp::Smvp;
pub use xmvp::Xmvp;

pub use qs_telemetry::{time_stage, NullProbe, Probe};

/// A real linear operator `A : R^N → R^N` available only through its action
/// on vectors.
///
/// Every power-iteration step in the workspace goes through this trait, so
/// any of the paper's engines (and any composition of them) can drive the
/// solver interchangeably.
pub trait LinearOperator: Send + Sync {
    /// Dimension `N` of the operator.
    fn len(&self) -> usize;

    /// Operators are never 0-dimensional.
    fn is_empty(&self) -> bool {
        false
    }

    /// `y ← A·x`, reporting wall time to `probe`. This and
    /// [`LinearOperator::apply_in_place_probed`] are the only apply bodies
    /// an operator writes; the probe-less [`LinearOperator::apply_into`],
    /// [`LinearOperator::apply_in_place`] and [`LinearOperator::apply`]
    /// forward here with a [`NullProbe`], so a traced and an untraced
    /// apply run the same code and give the same bits.
    ///
    /// Leaf engines time the whole product as one `"apply"` stage;
    /// staged engines (Fmmp, `WOperator`) report per-stage breakdowns.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.len()` or `y.len()` differ from
    /// [`LinearOperator::len`].
    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe);

    /// `v ← A·v` in place, reporting wall time to `probe`. The default
    /// copies through a scratch allocation; transform-style operators
    /// (Fmmp, FWHT, Kronecker chains) override it with a true in-situ
    /// butterfly.
    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        let x = v.to_vec();
        self.apply_into_probed(&x, v, probe);
    }

    /// `y ← A·x` untraced: [`LinearOperator::apply_into_probed`] with a
    /// [`NullProbe`]. A forward only; no operator overrides it.
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.apply_into_probed(x, y, &mut NullProbe);
    }

    /// `v ← A·v` untraced: [`LinearOperator::apply_in_place_probed`]
    /// with a [`NullProbe`]. A forward only; no operator overrides it.
    fn apply_in_place(&self, v: &mut [f64]) {
        self.apply_in_place_probed(v, &mut NullProbe);
    }

    /// `y = A·x` into a fresh vector (convenience forward).
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        self.apply_into(x, &mut y);
        y
    }

    /// Rough floating-point operation count of one application, used by the
    /// benchmark harness to draw the paper's `O(N²)` / `O(N log₂ N)`
    /// reference slopes.
    fn flops_estimate(&self) -> f64 {
        let n = self.len() as f64;
        n * n
    }

    /// One power-iteration step. It first runs the step's elementwise
    /// head ([`step_prologue`]):
    ///
    /// 1. `x ← scale·y` — the previous step's normalisation, deferred
    ///    into this one; a zero scale marks an `x` that is already
    ///    current and leaves it untouched;
    /// 2. `y ← diag ⊙ x`, or `y ← x` without a diagonal;
    ///
    /// and then `y ← A·y`. So afterwards `x` holds the iterate and `y`
    /// holds `A·(diag ⊙ x)`.
    ///
    /// The default runs the head as its own pass, timed as one `"diag"`
    /// stage, then [`LinearOperator::apply_in_place_probed`] — the
    /// copy-then-apply the step always was. Overrides fold the head into
    /// a pass they make anyway: [`WOperator`] forwards its fitness factor
    /// to `Q` as `diag`, and [`Fmmp`] runs the head inside the stride-1
    /// radix-8 block kernel of its first butterfly pass. Every override
    /// is bit-identical to the default.
    ///
    /// # Panics
    ///
    /// Panics unless `y`, `x` and `diag` (if any) hold one vector of
    /// length [`LinearOperator::len`].
    fn apply_step(
        &self,
        y: &mut [f64],
        x: &mut [f64],
        scale: f64,
        diag: Option<&[f64]>,
        probe: &mut dyn Probe,
    ) {
        apply_step_unfused(self, y, x, scale, diag, probe);
    }
}

/// The elementwise head of one power step on one lane: `x ← scale·y` when
/// `scale ≠ 0`, then `y ← d⊙x` (`y ← x` without `d`), in one sweep. Per
/// element the expressions are those of the passes it replaces — the
/// normalisation `yᵢ·s`, then the copy and `apply_diagonal`'s `xᵢ·dᵢ` —
/// so the result is bit-identical to running them one after another.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn step_prologue(y: &mut [f64], x: &mut [f64], scale: f64, diag: Option<&[f64]>) {
    assert_eq!(x.len(), y.len(), "step_prologue: length mismatch");
    match (scale != 0.0, diag) {
        (true, Some(d)) => {
            assert_eq!(d.len(), y.len(), "step_prologue: diagonal length mismatch");
            for ((yi, xi), &di) in y.iter_mut().zip(x.iter_mut()).zip(d) {
                *xi = *yi * scale;
                *yi = *xi * di;
            }
        }
        (true, None) => {
            for (yi, xi) in y.iter_mut().zip(x.iter_mut()) {
                *xi = *yi * scale;
                *yi = *xi;
            }
        }
        (false, Some(d)) => {
            assert_eq!(d.len(), y.len(), "step_prologue: diagonal length mismatch");
            for ((yi, &xi), &di) in y.iter_mut().zip(x.iter()).zip(d) {
                *yi = xi * di;
            }
        }
        (false, None) => y.copy_from_slice(x),
    }
}

/// Check the shape contract of [`LinearOperator::apply_step`] for an
/// operator of dimension `n`.
pub(crate) fn check_step(n: usize, y: &[f64], x: &[f64], diag: Option<&[f64]>) {
    assert!(
        y.len() == n && x.len() == n,
        "apply_step: y and x must hold one vector"
    );
    assert!(
        diag.is_none_or(|d| d.len() == n),
        "apply_step: diagonal length mismatch"
    );
}

/// [`LinearOperator::apply_step`]'s default: the head as its own pass
/// (timed as one `"diag"` stage), then
/// [`LinearOperator::apply_in_place_probed`]. Overrides fall back to it
/// for the shapes they do not fold.
pub fn apply_step_unfused<A: LinearOperator + ?Sized>(
    a: &A,
    y: &mut [f64],
    x: &mut [f64],
    scale: f64,
    diag: Option<&[f64]>,
    probe: &mut dyn Probe,
) {
    check_step(a.len(), y, x, diag);
    time_stage(probe, "diag", || step_prologue(y, x, scale, diag));
    a.apply_in_place_probed(y, probe);
}

impl<A: LinearOperator + ?Sized> LinearOperator for &A {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn flops_estimate(&self) -> f64 {
        (**self).flops_estimate()
    }
    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        (**self).apply_into_probed(x, y, probe)
    }
    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        (**self).apply_in_place_probed(v, probe)
    }
    fn apply_step(
        &self,
        y: &mut [f64],
        x: &mut [f64],
        scale: f64,
        diag: Option<&[f64]>,
        probe: &mut dyn Probe,
    ) {
        (**self).apply_step(y, x, scale, diag, probe)
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for Box<A> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn flops_estimate(&self) -> f64 {
        (**self).flops_estimate()
    }
    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        (**self).apply_into_probed(x, y, probe)
    }
    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        (**self).apply_in_place_probed(v, probe)
    }
    fn apply_step(
        &self,
        y: &mut [f64],
        x: &mut [f64],
        scale: f64,
        diag: Option<&[f64]>,
        probe: &mut dyn Probe,
    ) {
        (**self).apply_step(y, x, scale, diag, probe)
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use qs_landscape::rng::ChaCha12;

    /// Deterministic pseudo-random test vector in `[-1, 1)`.
    pub fn random_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha12::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
    }

    /// Max absolute difference of two vectors.
    pub fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
    }
}
