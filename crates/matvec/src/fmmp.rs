//! The fast mutation matrix product `Fmmp` (paper Section 2, Algorithms 1–2).
//!
//! `Q(ν)·v` is evaluated through the Kronecker recursion (paper Eq. 8)
//!
//! ```text
//! Q(ν)·v = [ (1−p)·v̄₁ + p·v̄₂ ]     with v̄ᵢ = Q(ν−1)·vᵢ        (Eq. 9)
//!          [ p·v̄₁ + (1−p)·v̄₂ ]
//! ```
//!
//! or by first combining then recursing (Eq. 10). Either way the product
//! costs `Θ(N log₂ N)` (paper Lemma 1) and runs **in situ** like an
//! FFT/FWHT butterfly — no matrix element is ever stored.
//!
//! Four equivalent formulations are implemented and cross-checked:
//!
//! * [`fmmp_in_place`] — the iterative Algorithm 1 (strides `1,2,…,N/2`),
//! * [`fmmp_in_place_eq10`] — the reversed stage order corresponding to
//!   Eq. 10 (strides `N/2,…,2,1`); identical result because every stage
//!   commutes with the others,
//! * [`fmmp_recursive`] — the literal recursion, kept as an executable
//!   specification,
//! * [`fmmp_kernel_form`] — Algorithm 2's flat `ID`-loop with the bit-trick
//!   index map `j = 2·ID − (ID & (i−1))`, the form the GPU kernel uses.
//!
//! [`Fmmp::new`] is the engine every solve runs: the fused plan of
//! [`crate::fused`], run by the one executor
//! ([`crate::schedule::run_fused`]) on as many workers as the calling
//! thread's width grants (see its docs).

use crate::fused::{MixButterfly, StepHead};
use crate::schedule::{record_dispatch, run_fused, span_workers};
use crate::{time_stage, LinearOperator, Probe};

/// Which loop structure [`Fmmp`] uses; all variants compute the same
/// product, they differ only in constants (paper Section 4 benchmarks the
/// kernel form). [`Fmmp::new`] runs `Fused`; the others, the staged
/// `Iterative` oracle among them, run serially and are reachable through
/// [`Fmmp::with_variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmmpVariant {
    /// Iterative Algorithm 1 (Eq. 9; strides ascending): one memory sweep
    /// per stage. The staged reference every other variant is tested
    /// against.
    Iterative,
    /// Iterative with descending strides (Eq. 10 ordering).
    Eq10,
    /// Literal recursion on halves (executable specification).
    Recursive,
    /// Algorithm 2's flat `ID`-indexed kernel form.
    Kernel,
    /// The planned product: cache-blocked radix-4/8 fused stages
    /// ([`crate::fused`]), identical arithmetic in `≈ log₂N/3` memory
    /// sweeps instead of `log₂N`, on every worker the calling width
    /// grants ([`crate::schedule::span_workers`]); `with_threads(1, …)`
    /// pins it serial.
    Fused,
}

/// One butterfly of the mutation transform:
/// `(t1, t2) ← ((1−p)·t1 + p·t2, p·t1 + (1−p)·t2)`.
#[inline(always)]
fn butterfly(p: f64, t1: f64, t2: f64) -> (f64, f64) {
    let q = 1.0 - p;
    (q * t1 + p * t2, p * t1 + q * t2)
}

/// Paper Algorithm 1: in-place `v ← Q(ν)·v` with ascending strides.
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fmmp_in_place(v: &mut [f64], p: f64) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    let mut i = 1;
    while i <= n / 2 {
        fmmp_stage(v, i, p);
        i *= 2;
    }
}

/// Eq. 10 ordering: identical product, descending strides.
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fmmp_in_place_eq10(v: &mut [f64], p: f64) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    let mut i = n / 2;
    while i >= 1 {
        fmmp_stage(v, i, p);
        i /= 2;
    }
}

/// One stage of the transform: butterflies at stride `i` (must be a power
/// of two dividing `v.len()/2`).
#[inline]
fn fmmp_stage(v: &mut [f64], i: usize, p: f64) {
    let n = v.len();
    let mut j = 0;
    while j < n {
        let (a, b) = v[j..j + 2 * i].split_at_mut(i);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (u, w) = butterfly(p, *x, *y);
            *x = u;
            *y = w;
        }
        j += 2 * i;
    }
}

/// Literal recursion on Eq. 9, kept as an executable specification of the
/// iterative forms.
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fmmp_recursive(v: &mut [f64], p: f64) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    fmmp_rec_inner(v, p);
}

fn fmmp_rec_inner(v: &mut [f64], p: f64) {
    let n = v.len();
    if n == 1 {
        return; // Q(0) = 1.
    }
    let (v1, v2) = v.split_at_mut(n / 2);
    fmmp_rec_inner(v1, p);
    fmmp_rec_inner(v2, p);
    for (x, y) in v1.iter_mut().zip(v2.iter_mut()) {
        let (u, w) = butterfly(p, *x, *y);
        *x = u;
        *y = w;
    }
}

/// Paper Algorithm 2: the flat kernel form. The outer stage loop is the
/// "host" loop; the inner loop enumerates the `N/2` independent butterflies
/// by thread id with the index map
/// `j = 2·ID − (ID & (i−1))` (the paper's AND trick replacing `mod`).
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fmmp_kernel_form(v: &mut [f64], p: f64) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    let mut i = 1;
    while i <= n / 2 {
        for id in 0..n / 2 {
            let j = 2 * id - (id & (i - 1));
            let (u, w) = butterfly(p, v[j], v[j + i]);
            v[j] = u;
            v[j + i] = w;
        }
        i *= 2;
    }
}

/// In-place `v ← Q·v` for **per-site** symmetric rates `p_s` (paper
/// Section 2.2). `rates[0]` is the rate of the most significant site;
/// stage at stride `2^s` applies site `ν−1−s`.
///
/// # Panics
///
/// Panics unless `v.len() == 2^{rates.len()}`.
pub fn fmmp_per_site(v: &mut [f64], rates: &[f64]) {
    let nu = rates.len();
    assert!(
        nu >= 1 && v.len() == 1usize << nu,
        "length must be 2^{{rates.len()}}"
    );
    let mut i = 1;
    for s in 0..nu {
        fmmp_stage(v, i, rates[nu - 1 - s]);
        i *= 2;
    }
}

/// The `Fmmp` engine as a [`LinearOperator`] for `Q(ν)` with uniform error
/// rate `p`.
#[derive(Debug, Clone, Copy)]
pub struct Fmmp {
    nu: u32,
    p: f64,
    variant: FmmpVariant,
}

impl Fmmp {
    /// Create the operator for chain length `nu` and error rate `p`: the
    /// fused plan ([`FmmpVariant::Fused`]) at every length — it beats the
    /// staged loop from the shortest measured vector on (DESIGN.md,
    /// "Kernel plan") — on [`span_workers`] workers at the width each
    /// apply runs at ([`crate::schedule::threads`]): span-parallel
    /// wherever that grants more than one, else on the calling thread.
    /// Every width gives the same product bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless `ν ≥ 1` and `0 < p ≤ 1/2`.
    pub fn new(nu: u32, p: f64) -> Self {
        Self::with_variant(nu, p, FmmpVariant::Fused)
    }

    /// Create with an explicit loop-structure variant; every variant but
    /// `Fused` runs serially whatever the width.
    ///
    /// # Panics
    ///
    /// Panics unless `ν ≥ 1` and `0 < p ≤ 1/2`.
    pub fn with_variant(nu: u32, p: f64, variant: FmmpVariant) -> Self {
        assert!(nu >= 1, "chain length must be at least 1");
        let _ = qs_bitseq::dimension(nu);
        assert!(
            p.is_finite() && p > 0.0 && p <= 0.5,
            "error rate must satisfy 0 < p ≤ 1/2"
        );
        Fmmp { nu, p, variant }
    }

    /// Build from a [`qs_mutation::Uniform`] model.
    pub fn from_model(q: &qs_mutation::Uniform) -> Self {
        use qs_mutation::MutationModel;
        Self::new(q.nu(), q.p())
    }

    /// Chain length `ν`.
    pub fn nu(&self) -> u32 {
        self.nu
    }

    /// Error rate `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The fused plan on the workers the calling width grants, with a
    /// power step's `head` (if any) riding the first pass. An enabled
    /// probe gets the dispatch and one `fmmp-fused-pass` event per
    /// *memory pass* (the unit of work fusion changes), not per logical
    /// stage.
    fn run_planned(&self, v: &mut [f64], head: Option<StepHead<'_>>, probe: &mut dyn Probe) {
        let workers = span_workers(v.len()).max(1);
        let bf = MixButterfly::new(self.p);
        run_fused(v, bf, head, workers, probe, "fmmp-fused-pass");
    }
}

impl LinearOperator for Fmmp {
    fn len(&self) -> usize {
        1usize << self.nu
    }

    fn flops_estimate(&self) -> f64 {
        // log₂N stages × N/2 butterflies × 6 flops. Identical for every
        // variant, including Fused: fusion regroups the stage loop into
        // fewer memory passes but performs the same arithmetic.
        let n = self.len() as f64;
        3.0 * n * self.nu as f64
    }

    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(x.len(), self.len(), "apply_into: x length mismatch");
        assert_eq!(y.len(), self.len(), "apply_into: y length mismatch");
        y.copy_from_slice(x);
        self.apply_in_place_probed(y, probe);
    }

    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(v.len(), self.len(), "apply_in_place: length mismatch");
        if self.variant == FmmpVariant::Fused {
            return self.run_planned(v, None, probe);
        }
        if probe.enabled() {
            record_dispatch(probe, 1, 1);
        }
        let p = self.p;
        match self.variant {
            FmmpVariant::Iterative => {
                let n = v.len();
                let mut i = 1;
                while i <= n / 2 {
                    time_stage(probe, "fmmp-stage", || fmmp_stage(v, i, p));
                    i *= 2;
                }
            }
            // The other loop structures have no exposed per-stage kernel;
            // time the whole product as one stage.
            FmmpVariant::Eq10 => time_stage(probe, "fmmp", || fmmp_in_place_eq10(v, p)),
            FmmpVariant::Recursive => time_stage(probe, "fmmp", || fmmp_recursive(v, p)),
            FmmpVariant::Kernel => time_stage(probe, "fmmp", || fmmp_kernel_form(v, p)),
            FmmpVariant::Fused => unreachable!("the fused variant runs the executor"),
        }
    }

    /// On the fused plan from 8 elements, the step head runs inside the
    /// stride-1 radix-8 block kernel of the first pass
    /// ([`crate::fused::StepHead`]), tile by tile and on every worker; the
    /// probe sees the same events as
    /// [`LinearOperator::apply_in_place_probed`]. Shorter vectors and the
    /// staged variants run the default's separate head pass.
    fn apply_step(
        &self,
        y: &mut [f64],
        x: &mut [f64],
        scale: f64,
        diag: Option<&[f64]>,
        probe: &mut dyn Probe,
    ) {
        // Every plan of 8 or more elements opens with the stride-1
        // radix-8 group, whatever its tile (`FusedPass::head_tile`).
        if self.variant != FmmpVariant::Fused || self.len() < 8 {
            return crate::apply_step_unfused(self, y, x, scale, diag, probe);
        }
        crate::check_step(self.len(), y, x, diag);
        self.run_planned(y, Some(StepHead { x, scale, diag }), probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{max_diff, random_vector};
    use qs_mutation::{MutationModel, PerSite, Uniform};

    #[test]
    fn matches_dense_q_small() {
        for nu in 1..=8u32 {
            for &p in &[0.01, 0.1, 0.37, 0.5] {
                let q = Uniform::new(nu, p).dense();
                let x = random_vector(1 << nu, 11 + nu as u64);
                let want = q.matvec(&x);
                let mut got = x.clone();
                fmmp_in_place(&mut got, p);
                assert!(
                    max_diff(&want, &got) < 1e-13,
                    "ν={nu} p={p}: Fmmp ≠ dense Q·v"
                );
            }
        }
    }

    #[test]
    fn all_variants_agree() {
        let nu = 9u32;
        let p = 0.07;
        let x = random_vector(1 << nu, 3);
        let reference = {
            let mut v = x.clone();
            fmmp_in_place(&mut v, p);
            v
        };
        for variant in [
            FmmpVariant::Eq10,
            FmmpVariant::Recursive,
            FmmpVariant::Kernel,
            FmmpVariant::Fused,
        ] {
            let op = Fmmp::with_variant(nu, p, variant);
            let got = op.apply(&x);
            assert!(
                max_diff(&reference, &got) < 1e-14,
                "variant {variant:?} diverges"
            );
        }
    }

    #[test]
    fn preserves_vector_sum() {
        // Q is column stochastic: 1ᵀQv = 1ᵀv.
        let x = random_vector(1 << 10, 5);
        let before: f64 = qs_linalg::sum(&x);
        let mut v = x;
        fmmp_in_place(&mut v, 0.23);
        let after: f64 = qs_linalg::sum(&v);
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn uniform_vector_is_fixed_point() {
        // Q·1 = 1 (rows also sum to one by symmetry).
        let mut v = vec![1.0; 1 << 8];
        fmmp_in_place(&mut v, 0.11);
        for &x in &v {
            assert!((x - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn linearity() {
        let n = 1 << 7;
        let (a, b) = (2.5f64, -1.25f64);
        let x = random_vector(n, 1);
        let y = random_vector(n, 2);
        let combo: Vec<f64> = x.iter().zip(&y).map(|(&u, &v)| a * u + b * v).collect();
        let op = Fmmp::new(7, 0.09);
        let lhs = op.apply(&combo);
        let qx = op.apply(&x);
        let qy = op.apply(&y);
        let rhs: Vec<f64> = qx.iter().zip(&qy).map(|(&u, &v)| a * u + b * v).collect();
        assert!(max_diff(&lhs, &rhs) < 1e-13);
    }

    #[test]
    fn per_site_matches_dense() {
        let rates = [0.02, 0.3, 0.11, 0.5];
        let model = PerSite::symmetric(&rates);
        let dense = model.dense();
        let x = random_vector(16, 9);
        let want = dense.matvec(&x);
        let mut got = x.clone();
        fmmp_per_site(&mut got, &rates);
        assert!(max_diff(&want, &got) < 1e-14);
    }

    #[test]
    fn per_site_with_equal_rates_matches_uniform() {
        let p = 0.04;
        let x = random_vector(1 << 6, 13);
        let mut a = x.clone();
        fmmp_in_place(&mut a, p);
        let mut b = x;
        fmmp_per_site(&mut b, &[p; 6]);
        assert!(max_diff(&a, &b) < 1e-15);
    }

    #[test]
    fn apply_into_leaves_input_untouched() {
        let op = Fmmp::new(6, 0.2);
        let x = random_vector(64, 21);
        let x_copy = x.clone();
        let mut y = vec![0.0; 64];
        op.apply_into(&x, &mut y);
        assert_eq!(x, x_copy);
        let mut z = x;
        op.apply_in_place(&mut z);
        assert!(max_diff(&y, &z) < 1e-16);
    }

    #[test]
    fn kernel_index_map_is_the_classic_formula() {
        // j = 2·i·⌊ID/i⌋ + ID mod i == 2·ID − (ID & (i−1)) for power-of-two i.
        for log_i in 0..6u32 {
            let i = 1usize << log_i;
            for id in 0..256usize {
                let classic = 2 * i * (id / i) + id % i;
                let trick = 2 * id - (id & (i - 1));
                assert_eq!(classic, trick);
            }
        }
    }

    #[test]
    fn p_half_collapses_to_averages() {
        // At p = 1/2 every butterfly averages, so Q·v = mean(v)·1.
        let x = random_vector(1 << 5, 4);
        let mean = qs_linalg::sum(&x) / x.len() as f64;
        let mut v = x;
        fmmp_in_place(&mut v, 0.5);
        for &u in &v {
            assert!((u - mean).abs() < 1e-13);
        }
    }

    #[test]
    fn flops_estimate_scales_n_log_n() {
        let a = Fmmp::new(10, 0.1).flops_estimate();
        let b = Fmmp::new(11, 0.1).flops_estimate();
        assert!((b / a - 2.0 * 11.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn new_plans_fused_at_every_length() {
        for nu in [1u32, 3, 8, 13, 17, 24] {
            assert_eq!(Fmmp::new(nu, 0.01).variant, FmmpVariant::Fused, "ν={nu}");
        }
        // The explicit constructor overrides the plan at every length.
        assert_eq!(
            Fmmp::with_variant(24, 0.01, FmmpVariant::Iterative).variant,
            FmmpVariant::Iterative
        );
    }

    #[test]
    fn new_runs_fused_span_parallel_when_the_pool_has_workers() {
        use crate::schedule::span_workers;
        use qs_telemetry::{RecordingProbe, SolverEvent};
        // ν = 16 and 18 run serially below the span threshold; ν = 20 gets
        // two workers wherever two cores are available.
        crate::schedule::with_threads(2, || {
            for nu in [16u32, 18, 20] {
                let n = 1usize << nu;
                let p = 0.013;
                let x = random_vector(n, 100 + nu as u64);
                let mut want = x.clone();
                fmmp_in_place(&mut want, p);
                let op = Fmmp::new(nu, p);
                assert_eq!(op.apply(&x), want, "ν={nu}: plain apply");

                let mut rec = RecordingProbe::new();
                let mut probed = vec![0.0; n];
                op.apply_into_probed(&x, &mut probed, &mut rec);
                assert_eq!(probed, want, "ν={nu}: probed apply");
                // Below the threshold, or on a one-core runner, the serial
                // plan runs and reports a single thread.
                let workers = span_workers(n).max(1);
                let threads: Vec<usize> = rec
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        SolverEvent::KernelDispatch { threads, .. } => Some(*threads),
                        _ => None,
                    })
                    .collect();
                assert_eq!(threads, [workers], "ν={nu}");
                if workers > 1 {
                    let passes = rec
                        .events()
                        .iter()
                        .filter(|e| {
                            matches!(
                                e,
                                SolverEvent::MatvecTimed {
                                    stage: "fmmp-fused-pass",
                                    ..
                                }
                            )
                        })
                        .count();
                    assert_eq!(passes, crate::schedule::par_plan(n, workers).passes().len());
                }
            }
        });
    }

    #[test]
    fn fused_variant_reports_reference_flops() {
        // Fusion changes memory traffic, not arithmetic: telemetry and the
        // bench harness must see identical flop counts.
        for nu in [4u32, 10, 16] {
            assert_eq!(
                Fmmp::with_variant(nu, 0.1, FmmpVariant::Iterative).flops_estimate(),
                Fmmp::new(nu, 0.1).flops_estimate()
            );
        }
    }

    #[test]
    #[should_panic(expected = "length must be 2^ν")]
    fn rejects_non_power_of_two() {
        let mut v = vec![1.0; 3];
        fmmp_in_place(&mut v, 0.1);
    }
}
