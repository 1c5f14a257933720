//! The implicit shift-and-invert product for `Q` (paper Section 3,
//! "Towards a Shift-and-Invert Method").
//!
//! Because `Q = V Λ V` with `V` the (fast) normalised Hadamard transform,
//!
//! ```text
//! (Q − µI)^{-1}·v = V · (Λ − µI)^{-1} · V·v,
//! ```
//!
//! two FWHTs plus a diagonal scaling — still `Θ(N log₂ N)`, no storage.
//! This enables inverse iteration on `Q` itself, i.e. computing interior
//! eigenvectors of the mutation matrix (the extension the paper flags as
//! the entry point towards Rayleigh-quotient methods for `Q·F`).

use crate::fused::fwht_in_place_fused;
use crate::{time_stage, LinearOperator, Probe};

/// How the eigenvalues `Λ_ii` of the diagonalised model are evaluated.
#[derive(Debug, Clone)]
enum Spectrum {
    /// Uniform rate: `Λ_ii = (1−2p)^{w(i)}`; table of `1/(λ_k − µ)` by
    /// Hamming weight.
    Uniform(Vec<f64>),
    /// Per-site symmetric rates: `Λ_ii = Π_{bit s of i} (1−2p_s)`;
    /// per-*bit* scale factors (bit `s` ↔ site `ν−1−s`).
    PerSite(Vec<f64>),
}

/// The operator `(Q(ν) − µI)^{-1}` for symmetric (uniform or per-site)
/// mutation models — every such `Q` is diagonalised by the same Hadamard
/// transform, since each 2×2 factor `[[1−p_s, p_s], [p_s, 1−p_s]]` has
/// eigenvectors `(1, ±1)`.
#[derive(Debug, Clone)]
pub struct QShiftInvert {
    nu: u32,
    p: f64,
    mu: f64,
    spectrum: Spectrum,
}

impl QShiftInvert {
    /// Create the operator for chain length `nu`, error rate `p`, and shift
    /// `mu`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p ≤ 1/2` and `µ` is separated from every
    /// eigenvalue `(1−2p)^k` by at least `1e-14` in relative terms (the
    /// operator is otherwise numerically singular). The paper admits the
    /// endpoint `p = 1/2`: the spectrum degenerates to `λ_0 = 1`,
    /// `λ_k = 0` for `k ≥ 1`, which is fine for any shift `µ ∉ {0, 1}` —
    /// and `µ = 0` is rejected by the separation check like any other
    /// eigenvalue hit.
    pub fn new(nu: u32, p: f64, mu: f64) -> Self {
        assert!(nu >= 1, "chain length must be at least 1");
        let _ = qs_bitseq::dimension(nu);
        assert!(
            p.is_finite() && p > 0.0 && p <= 0.5,
            "error rate must satisfy 0 < p ≤ 1/2"
        );
        assert!(mu.is_finite(), "shift must be finite");
        let inv_shifted: Vec<f64> = (0..=nu)
            .map(|k| {
                let lambda = (1.0 - 2.0 * p).powi(k as i32);
                let gap = lambda - mu;
                assert!(
                    gap.abs() > 1e-14 * lambda.abs().max(mu.abs()).max(1e-300),
                    "shift µ = {mu} coincides with eigenvalue (1−2p)^{k} = {lambda}"
                );
                1.0 / gap
            })
            .collect();
        QShiftInvert {
            nu,
            p,
            mu,
            spectrum: Spectrum::Uniform(inv_shifted),
        }
    }

    /// Create the operator for **per-site** symmetric rates (paper
    /// Section 2.2's first generalisation): `rates[0]` is the most
    /// significant site, matching [`qs_mutation::PerSite`].
    ///
    /// # Panics
    ///
    /// Panics unless every rate satisfies `0 < p_s ≤ 1/2` (the `p = 1/2`
    /// endpoint zeroes that site's factor, collapsing part of the
    /// spectrum to 0 — legal for any `µ` the separation check accepts)
    /// and `µ` stays clear of every eigenvalue `Π (1−2p_s)^{bit_s}`.
    pub fn per_site(rates: &[f64], mu: f64) -> Self {
        let nu = rates.len() as u32;
        assert!(nu >= 1, "at least one site required");
        let _ = qs_bitseq::dimension(nu);
        assert!(
            rates.iter().all(|p| p.is_finite() && *p > 0.0 && *p <= 0.5),
            "all rates must satisfy 0 < p ≤ 1/2"
        );
        assert!(mu.is_finite(), "shift must be finite");
        // bit s (value 2^s) corresponds to site ν−1−s.
        let bit_scale: Vec<f64> = (0..nu)
            .map(|s| 1.0 - 2.0 * rates[(nu - 1 - s) as usize])
            .collect();
        // Eigenvalue extremes bound the spectrum; cheap global separation
        // check (exact per-eigenvalue checks happen implicitly through the
        // division — we reject only exact/near-exact coincidences of the
        // two closed-form extremes and of 1 itself, the common choices).
        let lam_min: f64 = bit_scale.iter().product();
        for lam in [1.0, lam_min] {
            assert!(
                (lam - mu).abs() > 1e-14 * lam.abs().max(mu.abs()),
                "shift µ = {mu} coincides with eigenvalue {lam}"
            );
        }
        QShiftInvert {
            nu,
            p: f64::NAN, // not meaningful for per-site models
            mu,
            spectrum: Spectrum::PerSite(bit_scale),
        }
    }

    /// The eigenvalue `Λ_ii` of `Q` at index `i`.
    #[inline]
    pub fn eigenvalue(&self, i: u64) -> f64 {
        match &self.spectrum {
            Spectrum::Uniform(_) => (1.0 - 2.0 * self.p).powi(i.count_ones() as i32),
            Spectrum::PerSite(bit_scale) => {
                let mut lam = 1.0;
                let mut bits = i;
                while bits != 0 {
                    lam *= bit_scale[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
                lam
            }
        }
    }

    /// The shift `µ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The error rate `p`.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl LinearOperator for QShiftInvert {
    fn len(&self) -> usize {
        1usize << self.nu
    }

    fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(x.len(), self.len(), "apply_into: x length mismatch");
        assert_eq!(y.len(), self.len(), "apply_into: y length mismatch");
        y.copy_from_slice(x);
        self.apply_in_place_probed(y, probe);
    }

    /// Timed as one `"apply"` stage.
    fn apply_in_place_probed(&self, v: &mut [f64], probe: &mut dyn Probe) {
        assert_eq!(v.len(), self.len(), "apply_in_place: length mismatch");
        // V (Λ−µI)^{-1} V = 2^{-ν} · H (Λ−µI)^{-1} H; fold the 2^{-ν}
        // into the diagonal pass so only one scaling sweep is needed.
        // The fused FWHT is bit-identical to the reference stage loop.
        time_stage(probe, "apply", || {
            fwht_in_place_fused(v);
            let scale = 0.5f64.powi(self.nu as i32);
            match &self.spectrum {
                Spectrum::Uniform(inv_shifted) => {
                    for (i, vi) in v.iter_mut().enumerate() {
                        let k = (i as u64).count_ones() as usize;
                        *vi *= scale * inv_shifted[k];
                    }
                }
                Spectrum::PerSite(_) => {
                    for (i, vi) in v.iter_mut().enumerate() {
                        *vi *= scale / (self.eigenvalue(i as u64) - self.mu);
                    }
                }
            }
            fwht_in_place_fused(v);
        });
    }

    fn flops_estimate(&self) -> f64 {
        let n = self.len() as f64;
        2.0 * n * self.nu as f64 + 2.0 * n
    }
}

/// Batched multi-`p` mutation product for parameter sweeps: column `j` of
/// the slab is multiplied by `Q(p_j)`.
///
/// The sweep uses the paper's diagonalisation `Q(p) = V Λ(p) V`: `V`
/// (the Hadamard transform) does not depend on `p`, so each column takes
/// two fused FWHTs ([`crate::fwht_in_place_fused`], the executor at one
/// worker) around a diagonal that indexes that column's precomputed
/// eigenvalue table by Hamming weight. The columns are transformed one
/// after another, with no scratch allocation.
///
/// The solver does not run it: a sweep steps each rate's own fused
/// [`Fmmp`](crate::Fmmp) lane, ν butterfly stages with positive weights
/// instead of 2ν with signed ones. It stays only as the kernel the
/// benchmark's sweep ledger times, until that ledger is rebuilt on the
/// Fmmp sweep (ROADMAP item 2).
#[derive(Debug, Clone)]
pub struct QSweep {
    nu: u32,
    /// `class_scale[w][j] = 2^{-ν} · (1 − 2 p_j)^w`.
    class_scale: Vec<Vec<f64>>,
    k: usize,
}

impl QSweep {
    /// Build the sweep operator for chain length `nu` and one error rate
    /// per column.
    ///
    /// # Panics
    ///
    /// Panics unless `ν ≥ 1`, `ps` is non-empty, and every rate satisfies
    /// `0 < p ≤ 1/2`.
    pub fn new(nu: u32, ps: &[f64]) -> Self {
        assert!(nu >= 1, "chain length must be at least 1");
        let _ = qs_bitseq::dimension(nu);
        assert!(!ps.is_empty(), "at least one error rate required");
        assert!(
            ps.iter().all(|p| p.is_finite() && *p > 0.0 && *p <= 0.5),
            "all rates must satisfy 0 < p ≤ 1/2"
        );
        let scale = 0.5f64.powi(nu as i32);
        let class_scale = (0..=nu)
            .map(|w| {
                ps.iter()
                    .map(|&p| scale * (1.0 - 2.0 * p).powi(w as i32))
                    .collect()
            })
            .collect();
        QSweep {
            nu,
            class_scale,
            k: ps.len(),
        }
    }

    /// Dimension `N = 2^ν` of each column.
    pub fn len(&self) -> usize {
        1usize << self.nu
    }

    /// Never zero-dimensional.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Apply `Q(p_j)` to column `j` of the slab (`k` contiguous vectors of
    /// length `N`).
    ///
    /// # Panics
    ///
    /// Panics unless `slab.len() == k·N`.
    pub fn apply_batch(&self, slab: &mut [f64]) {
        let (n, k) = (self.len(), self.k);
        assert_eq!(slab.len(), n * k, "apply_batch: slab length mismatch");
        for (j, col) in slab.chunks_exact_mut(n).enumerate() {
            fwht_in_place_fused(col);
            for (i, x) in col.iter_mut().enumerate() {
                let w = (i as u64).count_ones() as usize;
                *x *= self.class_scale[w][j];
            }
            fwht_in_place_fused(col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{max_diff, random_vector};
    use qs_linalg::{DenseMatrix, Lu};
    use qs_mutation::{MutationModel, Uniform};

    fn dense_shifted(nu: u32, p: f64, mu: f64) -> DenseMatrix {
        let mut m = Uniform::new(nu, p).dense();
        for i in 0..m.rows() {
            m[(i, i)] -= mu;
        }
        m
    }

    #[test]
    fn matches_lu_solve() {
        for nu in 2..=6u32 {
            let (p, mu) = (0.08, -0.3);
            let op = QShiftInvert::new(nu, p, mu);
            let b = random_vector(1 << nu, nu as u64 + 50);
            let direct = Lu::new(&dense_shifted(nu, p, mu)).unwrap().solve(&b);
            let fast = op.apply(&b);
            assert!(max_diff(&direct, &fast) < 1e-11, "ν={nu}");
        }
    }

    #[test]
    fn inverts_the_shifted_operator() {
        // (Q − µI)·((Q − µI)^{-1} v) == v via Fmmp.
        let (nu, p, mu) = (9u32, 0.03, 0.2);
        let op = QShiftInvert::new(nu, p, mu);
        let v = random_vector(1 << nu, 8);
        let mut w = op.apply(&v);
        // Apply (Q − µI): Fmmp then subtract µ·w.
        let w_copy = w.clone();
        crate::fmmp::fmmp_in_place(&mut w, p);
        for (wi, &ci) in w.iter_mut().zip(&w_copy) {
            *wi -= mu * ci;
        }
        assert!(max_diff(&w, &v) < 1e-10);
    }

    #[test]
    fn zero_shift_is_q_inverse() {
        // µ = 0: the product must equal Q^{-1}v; verify through the
        // Kronecker inverse factor representation (paper Eq. 12).
        let (nu, p) = (5u32, 0.1);
        let op = QShiftInvert::new(nu, p, 0.0);
        let q = Uniform::new(nu, p);
        let inv_factor = q.inverse_site_factor();
        let inv_dense = (0..nu).fold(DenseMatrix::identity(1), |acc, _| acc.kron(&inv_factor));
        let v = random_vector(1 << nu, 15);
        assert!(max_diff(&inv_dense.matvec(&v), &op.apply(&v)) < 1e-11);
    }

    #[test]
    fn inverse_iteration_finds_smallest_eigenvector() {
        // Inverse iteration with µ slightly below λ_min = (1−2p)^ν converges
        // to the alternating-sign eigenvector ⊗[1,−1].
        let (nu, p) = (6u32, 0.12f64);
        let lam_min = (1.0 - 2.0 * p).powi(nu as i32);
        let op = QShiftInvert::new(nu, p, lam_min * 0.9);
        let mut v = random_vector(1 << nu, 33);
        for _ in 0..40 {
            op.apply_in_place(&mut v);
            let norm = qs_linalg::norm_l2(&v);
            for x in &mut v {
                *x /= norm;
            }
        }
        // The eigenvector for (1−2p)^ν is proportional to (−1)^{w(i)}:
        // after normalisation every entry is ±1/√N with that sign pattern.
        let amp = 1.0 / ((1usize << nu) as f64).sqrt();
        let sign0 = v[0].signum();
        for (i, &x) in v.iter().enumerate() {
            let parity = if (i as u64).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let expect = sign0 * parity * amp;
            assert!(
                (x - expect).abs() < 1e-8,
                "component {i}: {x} vs expected {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "coincides with eigenvalue")]
    fn rejects_shift_on_eigenvalue() {
        let _ = QShiftInvert::new(4, 0.1, 1.0);
    }

    #[test]
    fn per_site_matches_lu_solve() {
        use qs_mutation::PerSite;
        let rates = [0.05, 0.12, 0.02, 0.2];
        let mu = -0.4;
        let op = QShiftInvert::per_site(&rates, mu);
        let model = PerSite::symmetric(&rates);
        let mut dense = model.dense();
        for i in 0..dense.rows() {
            dense[(i, i)] -= mu;
        }
        let b = random_vector(16, 3);
        let direct = Lu::new(&dense).unwrap().solve(&b);
        let fast = op.apply(&b);
        assert!(max_diff(&direct, &fast) < 1e-11);
    }

    #[test]
    fn per_site_with_equal_rates_matches_uniform_path() {
        let p = 0.07;
        let mu = 0.3;
        let uni = QShiftInvert::new(5, p, mu);
        let per = QShiftInvert::per_site(&[p; 5], mu);
        let b = random_vector(32, 6);
        assert!(max_diff(&uni.apply(&b), &per.apply(&b)) < 1e-12);
        // Eigenvalue accessor agrees too.
        for i in 0..32u64 {
            assert!((uni.eigenvalue(i) - per.eigenvalue(i)).abs() < 1e-15);
        }
    }

    #[test]
    fn per_site_eigenvalue_uses_site_order() {
        // rates MSB-first: flipping the MSB (bit ν−1) scales by 1−2·rates[0].
        let rates = [0.1, 0.25, 0.4];
        let op = QShiftInvert::per_site(&rates, -1.0);
        let msb = 1u64 << 2;
        assert!((op.eigenvalue(msb) - 0.8).abs() < 1e-15);
        let lsb = 1u64;
        assert!((op.eigenvalue(lsb) - 0.2).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "0 < p ≤ 1/2")]
    fn per_site_rejects_bad_rates() {
        let _ = QShiftInvert::per_site(&[0.1, 0.7], -0.4);
    }

    #[test]
    fn p_half_endpoint_is_accepted_and_matches_lu() {
        // Paper admits p ∈ (0, 1/2]. At p = 1/2 the spectrum is λ_0 = 1,
        // λ_k = 0 for k ≥ 1 — fine for any shift off {0, 1}.
        for nu in 2..=5u32 {
            let (p, mu) = (0.5, -0.35);
            let op = QShiftInvert::new(nu, p, mu);
            let b = random_vector(1 << nu, 60 + nu as u64);
            let direct = Lu::new(&dense_shifted(nu, p, mu)).unwrap().solve(&b);
            assert!(max_diff(&direct, &op.apply(&b)) < 1e-11, "ν={nu}");
        }
        // Per-site endpoint likewise.
        let op = QShiftInvert::per_site(&[0.1, 0.5, 0.3], 0.7);
        assert_eq!(op.eigenvalue(0), 1.0);
        assert_eq!(op.eigenvalue(0b010), 0.0);
    }

    #[test]
    #[should_panic(expected = "coincides with eigenvalue")]
    fn p_half_with_zero_shift_is_singular() {
        // µ = 0 hits the collapsed eigenvalue λ_k = 0 (k ≥ 1).
        let _ = QShiftInvert::new(4, 0.5, 0.0);
    }

    #[test]
    fn qsweep_matches_per_column_fmmp() {
        // Spectral sweep vs the butterfly product: different algorithms,
        // same operator — agreement to solver tolerance, including the
        // p = 1/2 endpoint column.
        let nu = 9u32;
        let n = 1usize << nu;
        let ps = [0.001, 0.05, 0.17, 0.33, 0.5];
        let sweep = QSweep::new(nu, &ps);
        assert_eq!(sweep.len(), n);
        let mut slab = random_vector(n * ps.len(), 14);
        let want: Vec<f64> = slab
            .chunks_exact(n)
            .zip(&ps)
            .flat_map(|(col, &p)| {
                let mut c = col.to_vec();
                crate::fmmp::fmmp_in_place(&mut c, p);
                c
            })
            .collect();
        sweep.apply_batch(&mut slab);
        assert!(max_diff(&want, &slab) < 1e-12);
    }
}
