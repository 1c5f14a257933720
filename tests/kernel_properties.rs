//! Exact-equality pins for every kernel path over the full ν range.
//!
//! The fused plan regroups the staged butterfly schedule, at any worker
//! count, but never changes any per-element expression or evaluation
//! order, so its results must match the staged reference **bit for
//! bit** — not merely to tolerance. These tests pin that contract for
//! ν = 1..=20 across:
//!
//! * the one executor at one worker (`fmmp_in_place_fused` /
//!   `fwht_in_place_fused`),
//! * the planned engine `Fmmp::new` at one thread (the executor's
//!   one-worker path) and at two (its span schedule wherever two cores
//!   give it a second worker),
//! * every available SIMD dispatch (scalar / AVX2 / AVX-512): forcing any
//!   ISA must reproduce the scalar staged reference bit for bit, both at
//!   the whole-transform level and for the raw fibre lane kernels on
//!   odd-length tails that straddle the vector width,
//! * the power step's reductions (`span_shift_dot` / `span_step_norms`)
//!   over their length-fixed chunk partition, at several worker counts
//!   under every ISA: one chunk up to ν = 18, 32 and 64 at ν = 19 and 20.

use std::sync::{Mutex, MutexGuard};

use qs_matvec::fmmp::fmmp_in_place;
use qs_matvec::fused::{radix2_lanes, radix4_lanes, radix8_lanes, MixButterfly};
use qs_matvec::fwht::fwht_in_place;
use qs_matvec::schedule::{span_shift_dot, span_step_norms, with_threads};
use qs_matvec::{Fmmp, Isa, LinearOperator};

const P: f64 = 0.013;

/// The process-wide SIMD dispatch is shared state; tests that force an
/// ISA serialise on this lock and restore auto-detection before release.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_lock() -> MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every ISA the current CPU + build can actually run (scalar is always
/// first, so the reference below is always computed).
fn available_isas() -> Vec<Isa> {
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .filter(|isa| isa.available())
        .collect()
}

/// Deterministic, sign-mixed, non-uniform probe vector: exercises
/// cancellation paths a positive vector would miss.
fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| {
            // SplitMix64 step; map to (-2, 2) with full mantissa variety.
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 4.0 - 2.0
        })
        .collect()
}

/// The planned engine's widths: the "CPU" (1 thread) and "GPU"
/// (2 threads) rows.
const WIDTHS: [usize; 2] = [1, 2];

/// `Fmmp::new(ν, P)` applied to a copy of `v` at `threads` threads.
fn planned(threads: usize, nu: u32, v: &[f64]) -> Vec<f64> {
    let mut out = v.to_vec();
    with_threads(threads, || Fmmp::new(nu, P).apply_in_place(&mut out));
    out
}

/// The power step's reductions on `workers` workers: the plain dot, then
/// the shifted dot and the norms at it, as bits, plus the shifted `y`.
fn step_reductions(x: &[f64], y: &[f64], workers: usize) -> ([u64; 4], Vec<f64>) {
    let mut y = y.to_vec();
    let dot = span_shift_dot(x, &mut y, 0.0, workers);
    let shifted = span_shift_dot(x, &mut y, 0.29, workers);
    let (rss, yss) = span_step_norms(x, &y, shifted, workers);
    ([dot, shifted, rss, yss].map(f64::to_bits), y)
}

fn assert_bits_equal(a: &[f64], b: &[f64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x:e} vs {y:e})"
        );
    }
}

#[test]
fn fmmp_serial_and_parallel_paths_are_bit_identical_for_nu_1_to_20() {
    for nu in 1..=20u32 {
        let n = 1usize << nu;
        let v = probe_vector(n, u64::from(nu));

        let mut reference = v.clone();
        fmmp_in_place(&mut reference, P);

        let mut fused = v.clone();
        qs_matvec::fmmp_in_place_fused(&mut fused, P);
        assert_bits_equal(&reference, &fused, &format!("fmmp fused ν={nu}"));

        for threads in WIDTHS {
            let got = planned(threads, nu, &v);
            assert_bits_equal(
                &reference,
                &got,
                &format!("Fmmp::new ν={nu} threads={threads}"),
            );
        }
    }
}

#[test]
fn fwht_staged_and_fused_paths_are_bit_identical_for_nu_1_to_20() {
    for nu in 1..=20u32 {
        let n = 1usize << nu;
        let v = probe_vector(n, 1000 + u64::from(nu));

        let mut reference = v.clone();
        fwht_in_place(&mut reference);

        let mut fused = v.clone();
        qs_matvec::fwht_in_place_fused(&mut fused);
        assert_bits_equal(&reference, &fused, &format!("fwht fused ν={nu}"));
    }
}

#[test]
fn every_path_matches_the_scalar_reference_under_every_isa_for_nu_1_to_20() {
    let _guard = isa_lock();
    let isas = available_isas();
    for nu in 1..=20u32 {
        let n = 1usize << nu;
        let v = probe_vector(n, 31_000 + u64::from(nu));
        let w = probe_vector(n, 47_000 + u64::from(nu));

        // The pinned truth: the staged reference under forced-scalar
        // dispatch. Every (ISA × path) cell must reproduce it exactly.
        qs_matvec::simd::force(Isa::Scalar).expect("scalar is always available");
        let mut fmmp_ref = v.clone();
        fmmp_in_place(&mut fmmp_ref, P);
        let mut fwht_ref = w.clone();
        fwht_in_place(&mut fwht_ref);
        let (sums_ref, shifted_ref) = step_reductions(&v, &w, 1);

        for &isa in &isas {
            qs_matvec::simd::force(isa).expect("available() said yes");
            let tag = |path: &str| format!("{path} ν={nu} isa={}", isa.name());

            let mut staged = v.clone();
            fmmp_in_place(&mut staged, P);
            assert_bits_equal(&fmmp_ref, &staged, &tag("fmmp staged"));

            let mut fused = v.clone();
            qs_matvec::fmmp_in_place_fused(&mut fused, P);
            assert_bits_equal(&fmmp_ref, &fused, &tag("fmmp fused"));

            for threads in WIDTHS {
                let got = planned(threads, nu, &v);
                assert_bits_equal(
                    &fmmp_ref,
                    &got,
                    &tag(&format!("Fmmp::new threads={threads}")),
                );
            }

            let mut fwht_fused = w.clone();
            qs_matvec::fwht_in_place_fused(&mut fwht_fused);
            assert_bits_equal(&fwht_ref, &fwht_fused, &tag("fwht fused"));

            for workers in [1usize, 2, 4] {
                let what = tag(&format!("step reductions workers={workers}"));
                let (sums, shifted) = step_reductions(&v, &w, workers);
                assert_eq!(sums, sums_ref, "{what}");
                assert_bits_equal(&shifted_ref, &shifted, &what);
            }
        }
    }
    qs_matvec::simd::reset_auto();
}

/// Lengths chosen to straddle the 4-lane (AVX2) and 8-lane (AVX-512)
/// widths: empty, sub-width, exact multiples, and every off-by-one around
/// them, so the SIMD main body + scalar tail split is exercised in full.
const TAIL_LENGTHS: [usize; 19] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 67,
];

#[test]
fn lane_kernels_are_bit_identical_across_isas_on_odd_tails() {
    let _guard = isa_lock();
    let bf = MixButterfly::new(P);
    for &len in &TAIL_LENGTHS {
        let fibres: Vec<Vec<f64>> = (0..8)
            .map(|j| probe_vector(len.max(1), 83_000 + len as u64 * 8 + j)[..len].to_vec())
            .collect();

        // Scalar truth for each radix kernel.
        qs_matvec::simd::force(Isa::Scalar).expect("scalar is always available");
        let scalar2 = {
            let mut f: Vec<Vec<f64>> = fibres[..2].to_vec();
            let (a, b) = f.split_at_mut(1);
            radix2_lanes(&mut a[0], &mut b[0], bf);
            f
        };
        let scalar4 = {
            let mut f: Vec<Vec<f64>> = fibres[..4].to_vec();
            let [f0, f1, f2, f3] = f.as_mut_slice() else {
                unreachable!()
            };
            radix4_lanes(f0, f1, f2, f3, bf);
            f
        };
        let scalar8 = {
            let mut f: Vec<Vec<f64>> = fibres.clone();
            let [f0, f1, f2, f3, f4, f5, f6, f7] = f.as_mut_slice() else {
                unreachable!()
            };
            radix8_lanes(f0, f1, f2, f3, f4, f5, f6, f7, bf);
            f
        };

        for isa in available_isas() {
            qs_matvec::simd::force(isa).expect("available() said yes");
            let tag = |r: u32| format!("radix{r} lanes len={len} isa={}", isa.name());

            let mut f = fibres[..2].to_vec();
            let (a, b) = f.split_at_mut(1);
            radix2_lanes(&mut a[0], &mut b[0], bf);
            for (got, want) in f.iter().zip(&scalar2) {
                assert_bits_equal(want, got, &tag(2));
            }

            let mut f = fibres[..4].to_vec();
            let [f0, f1, f2, f3] = f.as_mut_slice() else {
                unreachable!()
            };
            radix4_lanes(f0, f1, f2, f3, bf);
            for (got, want) in f.iter().zip(&scalar4) {
                assert_bits_equal(want, got, &tag(4));
            }

            let mut f = fibres.clone();
            let [f0, f1, f2, f3, f4, f5, f6, f7] = f.as_mut_slice() else {
                unreachable!()
            };
            radix8_lanes(f0, f1, f2, f3, f4, f5, f6, f7, bf);
            for (got, want) in f.iter().zip(&scalar8) {
                assert_bits_equal(want, got, &tag(8));
            }
        }
    }
    qs_matvec::simd::reset_auto();
}
