//! The `LinearOperator` contract, checked on every in-tree operator.
//!
//! Each operator writes one body per action — out-of-place
//! (`apply_into_probed`) and in-place (`apply_in_place_probed`) — and the
//! probe-less `apply_into` / `apply_in_place` / `apply` only forward there
//! with a `NullProbe`. So for every action the forward, an explicit
//! `NullProbe` and a `RecordingProbe` must give the same bits, and the
//! recording probe must see the operator's own stage labels, in order.

use qs_fault::{FaultPlan, FaultyOp};
use qs_matvec::schedule::with_threads;
use qs_matvec::{
    DiagOp, Fmmp, FmmpVariant, Formulation, Fwht, KroneckerOp, LinearOperator, NullProbe,
    PermutedOp, QShiftInvert, Smvp, WOperator, Xmvp,
};
use qs_mutation::Uniform;
use qs_telemetry::{RecordingProbe, SolverEvent};

const NU: u32 = 10;
const P: f64 = 0.03;

/// Deterministic, sign-mixed test vector (SplitMix64 mapped to (-2, 2)).
fn vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z as f64 / u64::MAX as f64) * 4.0 - 2.0
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The recorded events as labels: a kernel dispatch reads `dispatch`, a
/// timed stage its stage label.
fn labels(rec: &RecordingProbe) -> Vec<String> {
    rec.events()
        .iter()
        .map(|event| match event {
            SolverEvent::KernelDispatch { .. } => "dispatch".to_string(),
            SolverEvent::MatvecTimed { stage, .. } => stage.to_string(),
            other => panic!("an apply recorded {other:?}"),
        })
        .collect()
}

/// Expand a label pattern in which `label×r` stands for `r` repeats.
fn expand(pattern: &str) -> Vec<String> {
    let mut out = Vec::new();
    for word in pattern.split_whitespace() {
        let (label, r) = match word.split_once('×') {
            Some((label, r)) => (label, r.parse().expect("repeat count")),
            None => (word, 1),
        };
        out.extend(std::iter::repeat_n(label.to_string(), r));
    }
    out
}

/// Every action of `op` three ways, against the stage labels one
/// vector's apply records (`expect`).
fn check(name: &str, op: &dyn LinearOperator, expect: &str) {
    let n = op.len();
    let x = vector(n, 7);

    // Out of place: `apply`, `apply_into`, an explicit NullProbe, a
    // recording probe.
    let want = op.apply(&x);
    let mut y = vec![0.0; n];
    op.apply_into(&x, &mut y);
    assert_eq!(bits(&y), bits(&want), "{name}: apply_into");
    op.apply_into_probed(&x, &mut y, &mut NullProbe);
    assert_eq!(
        bits(&y),
        bits(&want),
        "{name}: apply_into_probed(NullProbe)"
    );
    let mut rec = RecordingProbe::new();
    op.apply_into_probed(&x, &mut y, &mut rec);
    assert_eq!(
        bits(&y),
        bits(&want),
        "{name}: apply_into_probed(recording)"
    );
    let expect = expand(expect);
    assert_eq!(labels(&rec), expect, "{name}: out-of-place stages");

    // In place: the same product, the same stages.
    let mut v = x.clone();
    op.apply_in_place(&mut v);
    assert_eq!(bits(&v), bits(&want), "{name}: apply_in_place");
    v.copy_from_slice(&x);
    op.apply_in_place_probed(&mut v, &mut NullProbe);
    assert_eq!(
        bits(&v),
        bits(&want),
        "{name}: apply_in_place_probed(NullProbe)"
    );
    v.copy_from_slice(&x);
    let mut rec = RecordingProbe::new();
    op.apply_in_place_probed(&mut v, &mut rec);
    assert_eq!(
        bits(&v),
        bits(&want),
        "{name}: apply_in_place_probed(recording)"
    );
    assert_eq!(labels(&rec), expect, "{name}: in-place stages");
}

#[test]
fn every_operator_keeps_the_one_body_contract() {
    let n = 1usize << NU;
    let staged = || Fmmp::with_variant(NU, P, FmmpVariant::Iterative);
    let fitness: Vec<f64> = vector(n, 3).iter().map(|v| 2.5 + v).collect();
    let w = |form| WOperator::new(staged(), fitness.clone(), form);
    // The staged Fmmp times each of its ν butterfly stages; the fused
    // plan one event per memory pass (4 for ν = 10, fewer than ν).
    let fmmp = "dispatch fmmp-stage×10";
    let table: &[(&str, Box<dyn LinearOperator>, &str)] = &[
        ("Fmmp Iterative", Box::new(staged()), fmmp),
        (
            "Fmmp Eq10",
            Box::new(Fmmp::with_variant(NU, P, FmmpVariant::Eq10)),
            "dispatch fmmp",
        ),
        (
            "Fmmp Recursive",
            Box::new(Fmmp::with_variant(NU, P, FmmpVariant::Recursive)),
            "dispatch fmmp",
        ),
        (
            "Fmmp Kernel",
            Box::new(Fmmp::with_variant(NU, P, FmmpVariant::Kernel)),
            "dispatch fmmp",
        ),
        (
            "Fmmp Fused",
            Box::new(Fmmp::new(NU, P)),
            "dispatch fmmp-fused-pass×4",
        ),
        ("Fwht", Box::new(Fwht::new(NU)), "apply"),
        ("DiagOp", Box::new(DiagOp::new(fitness.clone())), "apply"),
        (
            "WOperator Right",
            Box::new(w(Formulation::Right)),
            "diag dispatch fmmp-stage×10",
        ),
        (
            "WOperator Symmetric",
            Box::new(w(Formulation::Symmetric)),
            "diag dispatch fmmp-stage×10 diag",
        ),
        (
            "WOperator Left",
            Box::new(w(Formulation::Left)),
            "dispatch fmmp-stage×10 diag",
        ),
        ("PermutedOp", Box::new(PermutedOp::gray(staged())), "apply"),
        (
            "KroneckerOp",
            Box::new(KroneckerOp::from_model(&Uniform::new(NU, P))),
            "apply",
        ),
        (
            "Smvp",
            Box::new(Smvp::from_model(&Uniform::new(NU, P))),
            "apply",
        ),
        ("Xmvp", Box::new(Xmvp::new(NU, P, 3)), "apply"),
        (
            "QShiftInvert",
            Box::new(QShiftInvert::new(NU, P, 1.5)),
            "apply",
        ),
        (
            "FaultyOp",
            Box::new(FaultyOp::new(staged(), &FaultPlan::default())),
            fmmp,
        ),
    ];
    for (name, op, expect) in table {
        with_threads(1, || check(name, op.as_ref(), expect));
    }
}

#[test]
fn span_parallel_fmmp_keeps_the_one_body_contract() {
    // From ν = 19 `Fmmp::new` runs the span-parallel plan wherever the
    // width grants a second worker: one dispatch, then one event per
    // memory pass (the tiled pass and two radix-8 passes).
    let op = Fmmp::new(19, P);
    with_threads(2, || {
        check("Fmmp span-parallel", &op, "dispatch fmmp-fused-pass×3")
    });
}

#[test]
fn fmmp_step_equals_the_unfused_step_on_every_plan() {
    // From 8 elements `Fmmp::apply_step` folds the step head into the
    // stride-1 radix-8 kernel of its first pass: the untiled plans
    // (ν ≤ 13), the tiled ones, and from ν = 19 the span-parallel plan
    // wherever the width grants a second worker. The default
    // `apply_step_unfused` runs the head as its own `diag` pass. Both
    // must give the same bits in `y` and `x`, with and without a pending
    // normalisation, and the folded step must record no `diag` stage.
    for threads in [1usize, 2] {
        with_threads(threads, || {
            for nu in [3u32, 5, 8, 13, 14, 16, 20] {
                let n = 1usize << nu;
                let op = Fmmp::new(nu, P);
                let y0 = vector(n, 21 + u64::from(nu));
                let x0 = vector(n, 31 + u64::from(nu));
                let d = vector(n, 41 + u64::from(nu));
                for (diag, scale) in [None, Some(&d[..])]
                    .into_iter()
                    .flat_map(|diag| [0.37, 0.0].map(|scale| (diag, scale)))
                {
                    let case = format!(
                        "ν={nu} threads={threads} diag={} scale={scale}",
                        diag.is_some()
                    );
                    let (mut want_y, mut want_x) = (y0.clone(), x0.clone());
                    qs_matvec::apply_step_unfused(
                        &op,
                        &mut want_y,
                        &mut want_x,
                        scale,
                        diag,
                        &mut NullProbe,
                    );
                    let (mut y, mut x) = (y0.clone(), x0.clone());
                    let mut rec = RecordingProbe::new();
                    op.apply_step(&mut y, &mut x, scale, diag, &mut rec);
                    assert_eq!(bits(&y), bits(&want_y), "{case}: y");
                    assert_eq!(bits(&x), bits(&want_x), "{case}: x");
                    let stages = labels(&rec);
                    assert!(!stages.iter().any(|s| s == "diag"), "{case}: {stages:?}");
                }
            }
        });
    }
}
