//! Shifted power iteration on implicit operators (paper Section 3).
//!
//! The power iteration offers "the best balance between storage
//! requirements and accuracy" for this problem class: two working vectors,
//! one operator application per step. Convergence is governed by
//! `λ₁/λ₀ < 1` (guaranteed `< 1` by Perron–Frobenius since `W` is positive
//! and, for `p < 1/2`, positive definite); a spectral shift `µ` improves
//! the rate to `(λ₁−µ)/(λ₀−µ)`.
//!
//! The stopping criterion is the paper's residual `R(λ̃, x̃) = ‖Wx̃ − λ̃x̃‖₂`.
//!
//! [`power_iteration`] is the one loop behind every power solve (the
//! solver's attempt ladder enters it through `power_run`, handing over
//! the start as a pool buffer to iterate on): a single
//! solve runs it once, and a multi-rate sweep runs it once per lane, each
//! lane on its own rate's operator with its own conservative shift
//! `µ_j = (1−2p_j)^ν·f_min` — exactly the Pi+shift iteration a single
//! solve at `p_j` runs. A [`RunContext`] carries the optional telemetry
//! probe, buffer pool and checkpoint session.
//!
//! Each step is one [`LinearOperator::apply_step`], which also writes out
//! the previous step's normalisation `x ← y/‖y‖` — deferred so that
//! engines folding the step head into their first pass (Fmmp's stride-1
//! radix-8 block kernel, with `W`'s fitness factor) normalise, scale and
//! transform in one sweep. The loop then makes two fused reduction passes:
//! [`qs_matvec::schedule::span_shift_dot`] subtracts the shift `µ` and
//! forms `λ`, and [`qs_matvec::schedule::span_step_norms`] forms
//! `‖y − λx‖²` and `‖y‖²` together. Both cut the vectors into a partition
//! fixed by their length (one chunk below 2¹⁹ elements, up to 64 from
//! there), reduce each chunk with the fixed 8-lane kernels of
//! [`qs_matvec::simd`] on the span schedule's workers, and sum the chunk
//! partials left to right — so every result is bit-identical across
//! scalar/AVX2/AVX-512 and across pool widths.

use std::time::Instant;

use qs_linalg::vec_ops::{normalize_l2, orient_positive};
use qs_matvec::schedule::{span_shift_dot, span_step_norms, span_workers};
use qs_matvec::{time_stage, LinearOperator};
use qs_telemetry::{NullProbe, Probe, SolverEvent};

use crate::checkpoint::CheckpointSession;
use crate::guard::{Breakdown, StallDetector};
use crate::workspace::Workspace;

/// Default residual-stagnation window: a healthy geometric iteration
/// improves its best residual far more often than once per thousand
/// steps, so only a genuinely stuck solve trips it.
const STALL_WINDOW: usize = 1_000;

/// Options for [`power_iteration`].
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    /// Residual tolerance `τ` on `‖Wx̃ − λ̃x̃‖₂` (paper uses `10⁻¹⁵` for
    /// exact engines, `10⁻¹⁰` for `Xmvp(5)`).
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Residual-stagnation window: the run stops with
    /// [`Breakdown::ResidualStagnation`] after this many consecutive
    /// iterations without a new best residual. Defaults to 1000; `None`
    /// disables the guard.
    pub stall_window: Option<usize>,
    /// Wall-clock deadline: once `Instant::now()` passes it, the run
    /// stops after the current step's residual measurement and reports
    /// its best-so-far state with [`PowerOutcome::timed_out`] set. The
    /// check sits before the iterate update, so the returned
    /// `(λ, x, residual)` triple stays self-consistent; `Instant::now()`
    /// is only consulted when a deadline is set, leaving the default
    /// path's floating-point sequence and syscall profile untouched.
    pub deadline: Option<Instant>,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            tol: 1e-13,
            max_iter: 100_000,
            stall_window: Some(STALL_WINDOW),
            deadline: None,
        }
    }
}

/// Outcome of a [`power_iteration`] run.
#[derive(Debug, Clone)]
pub struct PowerOutcome {
    /// Approximated dominant eigenvalue `λ̃₀` of the *unshifted* operator.
    pub lambda: f64,
    /// Unit-L2 eigenvector, oriented non-negative (Perron orientation).
    pub vector: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual `‖Wx̃ − λ̃x̃‖₂`.
    pub residual: f64,
    /// Did the residual reach `tol` within the budget?
    pub converged: bool,
    /// Operator applications performed (= iterations; kept separately so
    /// engines with inner iterations can report honestly).
    pub matvecs: usize,
    /// Set when a guardrail stopped the run early: the iterate went
    /// non-finite, the residual stagnated for a full window, or the
    /// iterate collapsed to zero. `None` for convergence or honest
    /// budget exhaustion.
    pub breakdown: Option<Breakdown>,
    /// `true` when the wall-clock deadline expired before convergence
    /// (see [`PowerOptions::deadline`]); the outcome is the
    /// best-so-far state at expiry.
    pub timed_out: bool,
}

/// Everything an eigensolver run threads through besides the operator,
/// the start and the options: [`power_iteration`] and
/// [`lanczos`](crate::lanczos::lanczos) both take one. Every field is
/// optional: `RunContext::default()` runs silently on a private cold
/// pool.
#[derive(Default)]
pub struct RunContext<'a> {
    /// Telemetry sink for the event stream each method documents.
    pub probe: Option<&'a mut dyn Probe>,
    /// Caller-owned buffer pool for the power loop. Both working buffers
    /// — the iterate and its 64-byte-aligned image — come from it, and
    /// the iterate escapes as the result vector; park it back via
    /// [`Workspace::put`] and a warmed pool serves repeated same-shape
    /// runs without touching the allocator
    /// ([`Workspace::bytes_since_mark`] stays zero). Lanczos draws only
    /// its returned Ritz vector from it.
    pub ws: Option<&'a mut Workspace>,
    /// Durable checkpoint session: snapshots are written on its cadence.
    /// The power loop consumes a pending resume snapshot itself (it
    /// replaces the start); Lanczos leaves that to the caller, who
    /// warm-restarts it from the snapshotted iterate.
    pub session: Option<&'a mut CheckpointSession>,
}

/// Why a power run stopped.
#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// Residual reached tolerance.
    Converged,
    /// Non-finite λ or residual (guardrail).
    NonFinite,
    /// Residual stopped improving for a full stall window (guardrail).
    Stagnation,
    /// Wall-clock deadline expired before convergence.
    TimedOut,
    /// Iteration budget spent without convergence.
    Budget,
    /// Iterate collapsed to zero (guardrail).
    Collapse,
}

impl Stop {
    /// The guardrail this stop stands for, if any.
    fn breakdown(self) -> Option<Breakdown> {
        match self {
            Stop::NonFinite => Some(Breakdown::NonFiniteIterate),
            Stop::Stagnation => Some(Breakdown::ResidualStagnation),
            Stop::Collapse => Some(Breakdown::IterateCollapse),
            Stop::Converged | Stop::TimedOut | Stop::Budget => None,
        }
    }
}

/// Run the (optionally shifted) power iteration `x ← (A − µI)x / ‖·‖`
/// from `start`, reporting the eigenpair of the **unshifted** `A`.
///
/// `shift` is the spectral shift `µ` (0 disables; the paper's
/// conservative choice is `(1−2p)^ν·f_min`, see
/// [`qs_matvec::conservative_shift`]). Every step applies `A` through one
/// [`LinearOperator::apply_step`]. The normalisation ending each step is
/// deferred into the next step's `apply_step`, which folds it into its
/// first pass; a snapshot applies it per entry as it streams, so every
/// result is bit-identical to normalising at the end of the step. The
/// run stops when the
/// residual reaches `tol`, a guardrail trips, the deadline passes or the
/// budget is spent.
///
/// The residual of the shifted pair equals the residual of the unshifted
/// pair (`(A−µI)x − (λ−µ)x = Ax − λx`), so the stopping criterion is
/// shift-invariant. The returned `(λ, x, residual)` triple is
/// self-consistent: the residual is measured at exactly the returned `x`.
///
/// **Telemetry.** Per step the probe receives
/// [`SolverEvent::IterationStart`], the operator's per-stage
/// [`SolverEvent::MatvecTimed`] events, the two reduction passes timed
/// as `shift-dot` and `step-norms` stages and a [`SolverEvent::Residual`]
/// carrying the unshifted eigenvalue estimate, a
/// [`SolverEvent::GuardrailTripped`] when a guardrail stopped the run,
/// and one `CheckpointWritten` / `CheckpointRejected` event per snapshot
/// — recorded once the snapshot is renamed into its slot, or found to
/// have failed, at the latest before the terminal event. The run ends with [`SolverEvent::Converged`] (carrying the
/// residual and λ) when it converged, and with [`SolverEvent::Budget`]
/// (carrying its residual) otherwise. A probed run is bit-identical to an
/// unprobed one.
///
/// **Durability.** With a session, the iterate, the step counter and the
/// stall detector's state are snapshotted on the session's cadence —
/// never on a step where the run stopped, since that stop belongs to
/// this run's budget rather than the problem. A pending resume snapshot
/// with the start's length replaces the start *bit-exactly* (saved
/// iterates are already normalised) and restores the counter and the
/// stall state, and the run replays the exact floating-point sequence
/// and stopping step of the uninterrupted one. A snapshot is written
/// behind the loop: the solve thread streams the pending-normalised
/// image into the session's temporary file — no write-out pass over the
/// iterate first — and a writer thread syncs and renames it while the
/// next steps run. That write is joined when the next snapshot starts
/// and before the terminal event, so no writer outlives the run; with an
/// enabled probe, time spent blocked in the join is a `checkpoint-wait`
/// stage. A failed snapshot write never kills a healthy solve: it is
/// reported and the loop carries on.
///
/// # Panics
///
/// Panics if `start.len()` differs from `a.len()`, `start` is zero, or
/// `tol` is negative. Numerical trouble mid-run (non-finite iterate,
/// stagnating residual, iterate collapsing to zero because `µ` hit an
/// eigenvalue) does not panic: the run stops and
/// [`PowerOutcome::breakdown`] classifies the failure.
pub fn power_iteration<A: LinearOperator + ?Sized>(
    a: &A,
    start: &[f64],
    shift: f64,
    opts: &PowerOptions,
    ctx: RunContext<'_>,
) -> PowerOutcome {
    let mut out = power_run(a, Start::Copy(start), shift, opts, ctx);
    orient_positive(&mut out.vector);
    out
}

/// Where a power run's first iterate comes from.
pub(crate) enum Start<'a> {
    /// A start of any scale, copied into a pool buffer and L2-normalised
    /// there ([`power_iteration`]'s start).
    Copy(&'a [f64]),
    /// A pool buffer of any scale, L2-normalised in place and run as the
    /// iterate: the copy [`Start::Copy`] makes, without the copy.
    Owned(Vec<f64>),
    /// A pool buffer already as `normalize_l2` leaves it, run as the
    /// iterate as it is.
    Unit(Vec<f64>),
    /// No start: the session's pending resume snapshot supplies the
    /// iterate.
    Resume,
}

/// [`power_iteration`] from any [`Start`], leaving the iterate unoriented:
/// the caller's first read of it orients it (the solver's answer pass
/// does). A start buffer the run does not need (a snapshot supplies the
/// iterate) goes back to the pool.
pub(crate) fn power_run<A: LinearOperator + ?Sized>(
    a: &A,
    start: Start<'_>,
    shift: f64,
    opts: &PowerOptions,
    ctx: RunContext<'_>,
) -> PowerOutcome {
    let n = a.len();
    let start_len = match &start {
        Start::Copy(s) => s.len(),
        Start::Owned(s) | Start::Unit(s) => s.len(),
        Start::Resume => n,
    };
    assert_eq!(start_len, n, "power_iteration: start length mismatch");
    assert!(opts.tol >= 0.0, "tolerance must be non-negative");
    let mut null_probe = NullProbe;
    let probe: &mut dyn Probe = ctx.probe.unwrap_or(&mut null_probe);
    let mut own_ws = Workspace::new();
    let ws = ctx.ws.unwrap_or(&mut own_ws);
    let mut session = ctx.session;

    // Why the run stopped, and what it measured there.
    let mut stopped = None;
    let (mut lambda, mut residual, mut frozen_at) = (0.0, f64::INFINITY, 0usize);
    let (mut stall_best, mut stall_count) = (f64::INFINITY, 0usize);
    // The normalisation `x ← scale·y` the next `apply_step` writes out;
    // zero when `x` is current.
    let mut scale = 0.0;

    // Resume: restore the iterate, the step counter and the stall state
    // from a pending snapshot (validated upstream). The saved iterate was
    // captured after the end-of-step normalisation, so it is used
    // bit-exactly — re-normalising an already-unit vector is not a
    // bitwise no-op.
    let resume = session
        .as_deref_mut()
        .and_then(|s| s.take_resume())
        .filter(|snap| snap.iterate.len() == n);
    let unit = matches!(start, Start::Unit(_));
    let mut iterations = 0;
    let mut x = match &resume {
        Some(snap) => {
            iterations = snap.iteration as usize;
            (stall_best, stall_count) = (snap.stall_best, snap.stall_count as usize);
            probe.record(&SolverEvent::CheckpointLoaded { iter: iterations });
            if let Start::Owned(s) | Start::Unit(s) = start {
                ws.put(s);
            }
            ws.take_copy(&snap.iterate)
        }
        None => {
            let mut x = match start {
                Start::Copy(s) => ws.take_copy(s),
                Start::Owned(s) => s,
                Start::Unit(x) => x,
                Start::Resume => panic!("power_iteration: no start and no snapshot to resume"),
            };
            assert!(
                unit || normalize_l2(&mut x) > 0.0,
                "power_iteration: zero start"
            );
            x
        }
    };
    // The image is transformed in place; the aligned pool window puts
    // every span the matvec schedule hands to the SIMD fibre kernels on a
    // cache-line boundary.
    let mut y = ws.take_aligned(n);
    // Workers for the step reductions; their sums do not depend on it.
    let workers = span_workers(n);

    while iterations < opts.max_iter {
        iterations += 1;
        probe.record(&SolverEvent::IterationStart { iter: iterations });
        // One wall-clock read per step: when the deadline has passed, the
        // run stops this step with its freshly measured (λ, residual) and
        // `timed_out` set.
        let expired = opts
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline);
        a.apply_step(&mut y, &mut x, scale, None, probe);
        scale = 0.0;
        // y ← y − µx and λ of the shifted operator (x has unit norm) in
        // one pass, then ‖y − λx‖² and ‖y‖² in one more.
        let lambda_shifted = time_stage(probe, "shift-dot", || {
            span_shift_dot(&x, &mut y, shift, workers)
        });
        let (rss, yss) = time_stage(probe, "step-norms", || {
            span_step_norms(&x, &y, lambda_shifted, workers)
        });
        let step_residual = rss.sqrt();
        probe.record(&SolverEvent::Residual {
            iter: iterations,
            value: step_residual,
            lambda: lambda_shifted + shift,
        });
        if let Some(s) = session.as_deref_mut() {
            s.push_residual(step_residual);
        }
        // Guardrails are pure comparisons on already-computed scalars, so
        // the fault-free floating-point sequence is unchanged. The
        // non-finite check runs first: a NaN λ must never be reported as
        // converged. The budget and deadline checks sit before the
        // update, so a stopped run keeps the iterate its residual was
        // measured at.
        let ny = yss.sqrt();
        let stop = if !(step_residual.is_finite() && lambda_shifted.is_finite()) {
            Some(Stop::NonFinite)
        } else if step_residual <= opts.tol {
            Some(Stop::Converged)
        } else if opts.stall_window.is_some_and(|window| {
            let mut stall = StallDetector::restore(window, stall_best, stall_count);
            let tripped = stall.observe(step_residual);
            (stall_best, stall_count) = stall.state();
            tripped
        }) {
            Some(Stop::Stagnation)
        } else if expired {
            Some(Stop::TimedOut)
        } else if iterations == opts.max_iter {
            Some(Stop::Budget)
        } else if !(ny.is_finite() && ny > 0.0) {
            Some(Stop::Collapse)
        } else {
            None
        };
        if let Some(stop) = stop {
            stopped = Some(stop);
            lambda = lambda_shifted + shift;
            residual = step_residual;
            frozen_at = iterations;
            if let Some(b) = stop.breakdown() {
                probe.record(&SolverEvent::GuardrailTripped {
                    kind: b.label(),
                    iter: iterations,
                });
            }
            break;
        }
        // Deferred into the next step's `apply_step`.
        scale = 1.0 / ny;
        // Durable cadence point: `scale·y` is the iterate entering step
        // `iterations + 1`, so a resume that sets the counter to
        // `iterations` replays the uninterrupted run exactly. The image
        // streams it entry by entry — the bits `apply_step` will write
        // into `x` — and the normalisation stays pending.
        if let Some(s) = session.as_deref_mut() {
            // `due` may read the clock: ask it exactly once per step.
            if s.due(iterations as u64) {
                let step = iterations as u64;
                let stall = (stall_best, stall_count as u64);
                s.write_snapshot(step, step, (&y, Some(scale)), stall, probe);
            }
        }
    }

    // A run that never stopped here never stepped (`max_iter` already
    // reached); it reports its normalised start honestly. No normalisation is
    // pending: the step that spends the budget stops the run before it
    // would defer one.
    debug_assert!(scale == 0.0);
    ws.put_aligned(y);
    // The last snapshot's event precedes the terminal one.
    if let Some(s) = session {
        s.settle(probe);
    }
    let converged = stopped == Some(Stop::Converged);
    if converged {
        probe.record(&SolverEvent::Converged {
            iterations,
            matvecs: iterations,
            residual,
            lambda,
        });
    } else {
        probe.record(&SolverEvent::Budget {
            iterations,
            matvecs: iterations,
            residual,
        });
    }
    PowerOutcome {
        lambda,
        vector: x,
        iterations: frozen_at,
        residual,
        converged,
        matvecs: frozen_at,
        breakdown: stopped.and_then(Stop::breakdown),
        timed_out: stopped == Some(Stop::TimedOut),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_landscape::{Landscape, Random, SinglePeak};
    use qs_matvec::schedule::with_threads;
    use qs_matvec::{Fmmp, Formulation, WOperator};
    use qs_telemetry::RecordingProbe;

    fn w_op(nu: u32, p: f64, landscape: &impl Landscape) -> WOperator<Fmmp> {
        WOperator::from_landscape(Fmmp::new(nu, p), landscape, Formulation::Right)
    }

    fn start_from(landscape: &impl Landscape) -> Vec<f64> {
        let mut s = landscape.materialize();
        qs_linalg::vec_ops::normalize_l1(&mut s);
        s
    }

    /// A silent unshifted single-column run.
    fn solo<A: LinearOperator + ?Sized>(a: &A, start: &[f64], opts: &PowerOptions) -> PowerOutcome {
        power_iteration(a, start, 0.0, opts, RunContext::default())
    }

    /// An unshifted single-column run recording its event stream.
    fn probed<A: LinearOperator + ?Sized>(
        a: &A,
        start: &[f64],
        opts: &PowerOptions,
        rec: &mut RecordingProbe,
    ) -> PowerOutcome {
        let ctx = RunContext {
            probe: Some(rec),
            ..Default::default()
        };
        power_iteration(a, start, 0.0, opts, ctx)
    }

    #[test]
    fn converges_on_single_peak() {
        let nu = 8u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = w_op(nu, 0.01, &landscape);
        let out = solo(&w, &start_from(&landscape), &PowerOptions::default());
        assert!(out.converged, "residual stuck at {}", out.residual);
        assert!(out.lambda > 1.0 && out.lambda < 2.0);
        // Perron vector: strictly positive.
        assert!(out.vector.iter().all(|&v| v > 0.0));
        // Master sequence dominates at small p.
        let max = out.vector.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(out.vector[0], max);
    }

    #[test]
    fn matches_dense_eigensolver() {
        let nu = 5u32;
        let landscape = Random::new(nu, 5.0, 1.0, 13);
        let w = w_op(nu, 0.02, &landscape);
        let out = solo(&w, &start_from(&landscape), &PowerOptions::default());
        // Dense reference through the symmetric formulation.
        let f = landscape.materialize();
        let sq: Vec<f64> = f.iter().map(|x| x.sqrt()).collect();
        let qd = {
            use qs_mutation::MutationModel;
            qs_mutation::Uniform::new(nu, 0.02).dense()
        };
        let sd = qs_linalg::DenseMatrix::diagonal(&sq);
        let ws = sd.matmul(&qd).matmul(&sd);
        let eig = qs_linalg::jacobi_eigen(&ws);
        assert!(
            (out.lambda - eig.values[0]).abs() < 1e-9,
            "λ = {} vs dense {}",
            out.lambda,
            eig.values[0]
        );
    }

    #[test]
    fn shift_reduces_iteration_count() {
        // The paper reports ~10% fewer iterations with the conservative
        // shift on random landscapes.
        let nu = 10u32;
        let p = 0.01;
        let landscape = Random::new(nu, 5.0, 1.0, 7);
        let w = w_op(nu, p, &landscape);
        let start = start_from(&landscape);
        let plain = solo(
            &w,
            &start,
            &PowerOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        let mu = qs_matvec::conservative_shift(nu, p, landscape.f_min());
        let shifted = power_iteration(
            &w,
            &start,
            mu,
            &PowerOptions {
                tol: 1e-12,
                ..Default::default()
            },
            RunContext::default(),
        );
        assert!(plain.converged && shifted.converged);
        assert!(
            shifted.iterations < plain.iterations,
            "shifted {} !< plain {}",
            shifted.iterations,
            plain.iterations
        );
        // Same eigenvalue either way.
        assert!((plain.lambda - shifted.lambda).abs() < 1e-9);
    }

    #[test]
    fn residual_is_shift_invariant() {
        let nu = 6u32;
        let landscape = SinglePeak::new(nu, 3.0, 1.0);
        let w = w_op(nu, 0.05, &landscape);
        let start = start_from(&landscape);
        let budget = PowerOptions {
            tol: 0.0,
            max_iter: 25,
            ..Default::default()
        };
        let plain = solo(&w, &start, &budget);
        // Residual after k steps differs between shifted/unshifted runs
        // (different iterates), but the *reported* residual must always be
        // the true residual of the unshifted pair:
        let mut wx = vec![0.0; w.len()];
        w.apply_into(&plain.vector, &mut wx);
        let mut r = vec![0.0; w.len()];
        qs_linalg::vec_ops::sub_scaled_into(&wx, plain.lambda, &plain.vector, &mut r);
        assert!(
            (qs_linalg::norm_l2(&r) - plain.residual).abs() < 1e-16_f64.max(plain.residual * 1e-6)
        );
    }

    #[test]
    fn reports_non_convergence_honestly() {
        let nu = 6u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = w_op(nu, 0.03, &landscape);
        let out = solo(
            &w,
            &start_from(&landscape),
            &PowerOptions {
                tol: 1e-15,
                max_iter: 3,
                ..Default::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        assert_eq!(out.matvecs, 3);
    }

    #[test]
    fn probed_run_is_bit_identical_and_self_consistent() {
        let nu = 8u32;
        let landscape = Random::new(nu, 5.0, 1.0, 19);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let opts = PowerOptions::default();

        let plain = solo(&w, &start, &opts);
        let mut rec = RecordingProbe::new();
        let probed = probed(&w, &start, &opts, &mut rec);

        // The probed run performs the identical floating-point sequence.
        assert_eq!(plain.lambda.to_bits(), probed.lambda.to_bits());
        assert_eq!(plain.residual.to_bits(), probed.residual.to_bits());
        assert_eq!(plain.iterations, probed.iterations);
        for (a, b) in plain.vector.iter().zip(&probed.vector) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // The event stream is self-consistent with the outcome.
        assert_eq!(rec.iterations(), probed.iterations);
        let history = rec.residual_history();
        assert_eq!(history.len(), probed.iterations);
        assert_eq!(history.last().unwrap().to_bits(), probed.residual.to_bits());
        match rec.terminal() {
            Some(&SolverEvent::Converged {
                iterations,
                matvecs,
                residual,
                lambda,
            }) => {
                assert_eq!(iterations, probed.iterations);
                assert_eq!(matvecs, probed.matvecs);
                assert_eq!(residual.to_bits(), probed.residual.to_bits());
                assert_eq!(lambda.to_bits(), probed.lambda.to_bits());
            }
            other => panic!("expected Converged terminal event, got {other:?}"),
        }
        // Stage timings, exactly, per label: per iteration the fused
        // plan's memory passes (the untiled plan's stride-1 radix-8 pass
        // carries the step head, so there is no `diag` pass), and the
        // loop's two reduction passes.
        let timed = |label: &str| {
            rec.events()
                .iter()
                .filter(|e| matches!(e, SolverEvent::MatvecTimed { stage, .. } if *stage == label))
                .count()
        };
        let total = rec
            .events()
            .iter()
            .filter(|e| matches!(e, SolverEvent::MatvecTimed { .. }))
            .count();
        let it = probed.iterations;
        let passes = qs_matvec::FusedPlan::new(1 << nu, 1).passes().len();
        assert_eq!(timed("fmmp-fused-pass"), it * passes);
        assert_eq!(timed("diag"), 0);
        assert_eq!(timed("shift-dot"), it);
        assert_eq!(timed("step-norms"), it);
        assert_eq!(total, it * (passes + 2));
    }

    #[test]
    fn folded_step_head_drops_the_diag_pass_from_the_fused_plan() {
        // On the fused plan the step head rides the first pass: the
        // probe sees that pass's event and no `diag` stage, and the
        // probed run is still bit-identical to the silent one.
        let nu = 15u32;
        let landscape = Random::new(nu, 5.0, 1.0, 23);
        let w = WOperator::from_landscape(Fmmp::new(nu, 0.01), &landscape, Formulation::Right);
        let start = start_from(&landscape);
        let opts = PowerOptions {
            tol: 1e-11,
            ..Default::default()
        };
        let plain = solo(&w, &start, &opts);
        let mut rec = RecordingProbe::new();
        let traced = probed(&w, &start, &opts, &mut rec);
        assert!(plain.converged);
        assert_eq!(plain.lambda.to_bits(), traced.lambda.to_bits());
        assert_eq!(plain.iterations, traced.iterations);
        let passes = qs_matvec::FusedPlan::new(1 << nu, 1).passes().len();
        let count = |label: &str| {
            rec.events()
                .iter()
                .filter(|e| matches!(e, SolverEvent::MatvecTimed { stage, .. } if *stage == label))
                .count()
        };
        assert_eq!(count("diag"), 0);
        assert_eq!(count("fmmp-fused-pass"), traced.iterations * passes);
        assert_eq!(count("shift-dot"), traced.iterations);
    }

    #[test]
    fn span_parallel_step_traces_one_stage_per_reduction() {
        // ν = 19 in a 2-thread pool runs both reductions on two workers
        // wherever two cores are free: the probe still sees exactly one
        // `shift-dot` and one `step-norms` stage per step, and the traced
        // run equals a silent 1-thread run bit for bit.
        let nu = 19u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let mu = qs_matvec::conservative_shift(nu, 0.01, landscape.f_min());
        let opts = PowerOptions {
            tol: 1e-9,
            max_iter: 12,
            ..Default::default()
        };
        let run = |probe: Option<&mut dyn Probe>| {
            let ctx = RunContext {
                probe,
                ..Default::default()
            };
            power_iteration(&w, &start, mu, &opts, ctx)
        };
        let serial = with_threads(1, || run(None));
        let mut rec = RecordingProbe::new();
        let traced = with_threads(2, || run(Some(&mut rec)));
        assert_eq!(traced.iterations, serial.iterations);
        assert_eq!(traced.lambda.to_bits(), serial.lambda.to_bits());
        assert_eq!(traced.residual.to_bits(), serial.residual.to_bits());
        assert!(traced
            .vector
            .iter()
            .zip(&serial.vector)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let count = |label: &str| {
            rec.events()
                .iter()
                .filter(|e| matches!(e, SolverEvent::MatvecTimed { stage, .. } if *stage == label))
                .count()
        };
        assert_eq!(rec.iterations(), traced.iterations);
        assert_eq!(count("shift-dot"), traced.iterations);
        assert_eq!(count("step-norms"), traced.iterations);
    }

    #[test]
    fn probed_budget_run_ends_in_budget_event() {
        let landscape = SinglePeak::new(6, 2.0, 1.0);
        let w = w_op(6, 0.03, &landscape);
        let mut rec = RecordingProbe::new();
        let out = probed(
            &w,
            &start_from(&landscape),
            &PowerOptions {
                tol: 1e-15,
                max_iter: 3,
                ..Default::default()
            },
            &mut rec,
        );
        assert!(!out.converged);
        assert!(matches!(
            rec.terminal(),
            Some(SolverEvent::Budget { iterations: 3, .. })
        ));
    }

    /// `k` starts around `top`, one after another: each is `top` plus
    /// noise scaled by a different power of ten, so their runs stop at
    /// well-separated iterations.
    fn staggered_around(top: &[f64], n: usize, k: usize) -> Vec<f64> {
        let mut starts = Vec::with_capacity(n * k);
        for s in 0..k {
            let eps = 10f64.powi(-3 * (k - 1 - s) as i32);
            let mut col: Vec<f64> = top
                .iter()
                .enumerate()
                .map(|(i, &v)| v + eps * (1.0 + (((i * 31 + s * 7) % 11) as f64) / 10.0))
                .collect();
            normalize_l2(&mut col);
            starts.extend_from_slice(&col);
        }
        starts
    }

    fn durable(session: &mut CheckpointSession) -> RunContext<'_> {
        RunContext {
            session: Some(session),
            ..Default::default()
        }
    }

    /// The unfused power loop on one column — the oracle the fused step is
    /// checked against. Every pass is its own sweep with the loop's own
    /// expressions: copy, the formulation's fitness passes around the
    /// staged `fmmp_in_place`, the shift loop, the unshifted reductions
    /// on one worker (the partition's serial order) and the
    /// normalisation. Returns `(λ, x, iterations, residual)`, with `x` the
    /// iterate the last residual was measured at (the one a budget freeze
    /// reports).
    fn reference_run(
        form: Formulation,
        f: &[f64],
        p: f64,
        mu: f64,
        start: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> (f64, Vec<f64>, usize, f64) {
        use qs_linalg::vec_ops::apply_diagonal;
        use qs_matvec::fmmp::fmmp_in_place;
        let sqrt_f: Vec<f64> = f.iter().map(|v| v.sqrt()).collect();
        let mut x = start.to_vec();
        normalize_l2(&mut x);
        let mut y = vec![0.0; x.len()];
        for it in 1..=max_iter {
            y.copy_from_slice(&x);
            match form {
                Formulation::Right => {
                    apply_diagonal(f, &mut y);
                    fmmp_in_place(&mut y, p);
                }
                Formulation::Symmetric => {
                    apply_diagonal(&sqrt_f, &mut y);
                    fmmp_in_place(&mut y, p);
                    apply_diagonal(&sqrt_f, &mut y);
                }
                Formulation::Left => {
                    fmmp_in_place(&mut y, p);
                    apply_diagonal(f, &mut y);
                }
            }
            if mu != 0.0 {
                for (yi, &xi) in y.iter_mut().zip(&x) {
                    *yi -= mu * xi;
                }
            }
            let lambda = span_shift_dot(&x, &mut y, 0.0, 1);
            let (rss, yss) = span_step_norms(&x, &y, lambda, 1);
            let residual = rss.sqrt();
            if residual <= tol || it == max_iter {
                return (lambda + mu, x, it, residual);
            }
            let inv = 1.0 / yss.sqrt();
            for (xi, &yi) in x.iter_mut().zip(&y) {
                *xi = yi * inv;
            }
        }
        unreachable!("max_iter must be at least 1")
    }

    fn assert_matches_reference(
        got: &PowerOutcome,
        want: &(f64, Vec<f64>, usize, f64),
        case: &str,
    ) {
        assert_eq!(got.iterations, want.2, "{case}: iterations");
        assert_eq!(got.lambda.to_bits(), want.0.to_bits(), "{case}: λ");
        assert_eq!(got.residual.to_bits(), want.3.to_bits(), "{case}: residual");
        let mut x = want.1.clone();
        orient_positive(&mut x);
        assert!(
            got.vector
                .iter()
                .zip(&x)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{case}: iterate"
        );
    }

    #[test]
    fn fused_step_is_bit_identical_to_the_unfused_reference() {
        // ν = 8 runs an untiled fused plan, ν = 17 the serial tiled plan
        // and ν = 19 the span-parallel one wherever the pool has two
        // workers — the head rides the first pass on all three. Runs from
        // four staggered starts, shifted or not, must match the oracle
        // start by start, budget stops included.
        let p = 0.02;
        let k = 4;
        for nu in [8u32, 17, 19] {
            let n = 1usize << nu;
            let landscape = Random::new(nu, 5.0, 1.0, 61);
            let f = landscape.materialize();
            let mu_c = qs_matvec::conservative_shift(nu, p, landscape.f_min());
            let near = PowerOptions {
                tol: 1e-10,
                ..Default::default()
            };
            let w_right = WOperator::new(Fmmp::new(nu, p), f.as_slice(), Formulation::Right);
            let top_right = solo(&w_right, &start_from(&landscape), &near).vector;
            for form in [
                Formulation::Right,
                Formulation::Symmetric,
                Formulation::Left,
            ] {
                let w = WOperator::new(Fmmp::new(nu, p), f.as_slice(), form);
                let top = qs_matvec::convert_eigenvector(Formulation::Right, form, &top_right, &f);
                let starts = staggered_around(&top, n, k);
                // Unshifted, then a distinct shift per start (the first
                // gets the full conservative µ).
                let distinct: Vec<f64> = (0..k).map(|j| mu_c / (j + 1) as f64).collect();
                for shifts in [vec![0.0; k], distinct] {
                    // A budget that stops the slowest start keeps the
                    // large-ν cases short; budget stops compare too.
                    let opts = PowerOptions {
                        tol: 1e-8,
                        max_iter: 10,
                        ..Default::default()
                    };
                    for (j, (start, &mu)) in starts.chunks_exact(n).zip(&shifts).enumerate() {
                        let want = reference_run(form, &f, p, mu, start, opts.tol, opts.max_iter);
                        for threads in [1usize, 2] {
                            let case =
                                format!("ν={nu} {form:?} µ={mu} start {j} threads={threads}");
                            let got = with_threads(threads, || {
                                power_iteration(&w, start, mu, &opts, RunContext::default())
                            });
                            assert_matches_reference(&got, &want, &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn folded_durable_block_snapshots_every_three_steps_and_resumes_bit_identically() {
        use crate::checkpoint::{CheckpointConfig, Checkpointer};
        // ν = 15 on the fused plan: the step head rides the first pass,
        // so every snapshot must write the deferred normalisation
        // out first.
        let (nu, p) = (15u32, 0.02);
        let landscape = Random::new(nu, 5.0, 1.0, 67);
        let f = landscape.materialize();
        let w = WOperator::new(Fmmp::new(nu, p), f.as_slice(), Formulation::Right);
        let start = start_from(&landscape);
        let mu = qs_matvec::conservative_shift(nu, p, landscape.f_min());
        let opts = PowerOptions {
            tol: 1e-12,
            ..Default::default()
        };
        let reference = power_iteration(&w, &start, mu, &opts, RunContext::default());
        assert!(reference.converged);

        let dir = std::env::temp_dir().join(format!("qs-folded-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.every_iterations = 3;
        let cut = reference.iterations - 1;
        let writer = Checkpointer::create(cfg.clone()).unwrap();
        let mut session = CheckpointSession::new(writer, 1, mu, opts.tol, 0, None);
        let partial = power_iteration(
            &w,
            &start,
            mu,
            &PowerOptions {
                max_iter: cut,
                ..opts
            },
            durable(&mut session),
        );
        assert!(!partial.converged);

        // The newest snapshot holds the exact iterate — the oracle's after
        // the same number of steps — and the stall detector's state in its
        // header: the best residual seen so far.
        let snap = crate::checkpoint::load_latest(&dir, 1).unwrap().unwrap();
        assert_eq!(snap.iteration % 3, 0);
        let best = snap
            .residual_history
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(snap.stall_best.to_bits(), best.to_bits());
        let steps = snap.iteration as usize + 1;
        let (_, want, _, _) = reference_run(Formulation::Right, &f, p, mu, &start, 0.0, steps);
        assert!(
            snap.iterate
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "snapshot iterate differs from the oracle's"
        );

        let writer = Checkpointer::create(cfg).unwrap();
        let mut session = CheckpointSession::new(writer, 1, mu, opts.tol, 0, Some(snap));
        let resumed = power_iteration(&w, &start, mu, &opts, durable(&mut session));
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.matvecs, reference.matvecs);
        assert_eq!(resumed.lambda.to_bits(), reference.lambda.to_bits());
        assert_eq!(resumed.residual.to_bits(), reference.residual.to_bits());
        assert!(resumed
            .vector
            .iter()
            .zip(&reference.vector)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "zero start")]
    fn rejects_zero_start() {
        let landscape = SinglePeak::new(4, 2.0, 1.0);
        let w = w_op(4, 0.01, &landscape);
        let _ = power_iteration(
            &w,
            &[0.0; 16],
            0.0,
            &PowerOptions::default(),
            RunContext::default(),
        );
    }

    /// Wraps an operator and poisons element 0 of every application from
    /// the `from`-th matvec (0-based) onwards. With `alternate` the sign
    /// of the poison flips per application, so the corrupted map has no
    /// fixed point the iteration could (wrongly) converge to.
    struct PoisonOp<A> {
        inner: A,
        from: usize,
        value: f64,
        alternate: bool,
        count: std::sync::atomic::AtomicUsize,
    }

    impl<A: LinearOperator> LinearOperator for PoisonOp<A> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn apply_into_probed(&self, x: &[f64], y: &mut [f64], probe: &mut dyn Probe) {
            self.inner.apply_into_probed(x, y, probe);
            let k = self
                .count
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if k >= self.from {
                let sign = if self.alternate && k % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                y[0] = sign * self.value;
            }
        }
    }

    #[test]
    fn nan_matvec_trips_non_finite_guardrail_instead_of_spinning() {
        let nu = 6u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = PoisonOp {
            inner: w_op(nu, 0.01, &landscape),
            from: 3,
            value: f64::NAN,
            alternate: false,
            count: Default::default(),
        };
        let mut rec = RecordingProbe::new();
        let out = probed(
            &w,
            &start_from(&landscape),
            &PowerOptions::default(),
            &mut rec,
        );
        assert!(!out.converged);
        assert_eq!(
            out.breakdown,
            Some(crate::guard::Breakdown::NonFiniteIterate)
        );
        // Stopped promptly, not at the 100k budget.
        assert!(out.iterations <= 5, "spun {} iterations", out.iterations);
        assert_eq!(rec.guardrail_kinds(), vec!["non_finite_iterate"]);
    }

    #[test]
    fn persistent_perturbation_trips_stagnation_guardrail() {
        // An alternating-sign perturbation injected into every matvec
        // keeps the residual bounded away from tol; with a stall window
        // the loop classifies the stagnation instead of burning the
        // whole budget.
        let nu = 6u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = PoisonOp {
            inner: w_op(nu, 0.01, &landscape),
            from: 0,
            value: 0.5,
            alternate: true,
            count: Default::default(),
        };
        let out = solo(
            &w,
            &start_from(&landscape),
            &PowerOptions {
                stall_window: Some(50),
                ..Default::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(
            out.breakdown,
            Some(crate::guard::Breakdown::ResidualStagnation)
        );
        assert!(
            out.iterations < 10_000,
            "spun {} iterations",
            out.iterations
        );
        // The iterate is still finite — usable as a best-so-far candidate.
        assert!(out.vector.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn a_resumed_run_keeps_its_stall_count_and_stops_where_the_whole_run_does() {
        use crate::checkpoint::{load_latest, CheckpointConfig, Checkpointer};
        // The perturbed run above stagnates after a 50-step stall window.
        // Interrupted with the stall count part way up, the resumed run
        // must trip the guard at the same step with the same λ: the
        // header's stall state has to round-trip (a fresh detector would
        // trip 50 steps late).
        let nu = 6u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let poisoned = |applied: usize| PoisonOp {
            inner: w_op(nu, 0.01, &landscape),
            from: 0,
            value: 0.5,
            alternate: true,
            count: applied.into(),
        };
        let start = start_from(&landscape);
        let opts = PowerOptions {
            stall_window: Some(50),
            ..Default::default()
        };
        let reference = solo(&poisoned(0), &start, &opts);
        assert_eq!(reference.breakdown, Some(Breakdown::ResidualStagnation));

        let dir = std::env::temp_dir().join(format!("qs-power-stall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.every_iterations = 1;
        let cut = PowerOptions {
            max_iter: reference.iterations - 10,
            ..opts
        };
        let writer = Checkpointer::create(cfg.clone()).unwrap();
        let mut session = CheckpointSession::new(writer, 1, 0.0, opts.tol, 0, None);
        let partial = power_iteration(&poisoned(0), &start, 0.0, &cut, durable(&mut session));
        assert!(partial.breakdown.is_none() && !partial.converged);
        let snap = load_latest(&dir, 1).unwrap().unwrap();
        assert_eq!(snap.iteration as usize, reference.iterations - 11);
        assert!(
            (1..50).contains(&snap.stall_count),
            "stall count {}",
            snap.stall_count
        );

        // The poison's sign alternates per application: resume with the
        // count the uninterrupted run had at the snapshot.
        let w = poisoned(snap.iteration as usize);
        let writer = Checkpointer::create(cfg).unwrap();
        let mut session = CheckpointSession::new(writer, 1, 0.0, opts.tol, 0, Some(snap));
        let resumed = power_iteration(&w, &start, 0.0, &opts, durable(&mut session));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(resumed.breakdown, reference.breakdown);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.lambda.to_bits(), reference.lambda.to_bits());
    }

    #[test]
    fn expired_deadline_returns_flagged_best_so_far() {
        let nu = 8u32;
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let w = w_op(nu, 0.01, &landscape);
        let out = solo(
            &w,
            &start_from(&landscape),
            &PowerOptions {
                tol: 0.0, // unreachable: only the deadline can stop it
                deadline: Some(std::time::Instant::now()),
                ..Default::default()
            },
        );
        assert!(out.timed_out);
        assert!(!out.converged);
        assert!(out.breakdown.is_none());
        // Exactly one iteration ran: the residual is measured at the
        // returned x, so the best-so-far contract holds.
        assert_eq!(out.iterations, 1);
        assert!(out.residual.is_finite());
        assert!(out.vector.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn far_future_deadline_keeps_bit_identity() {
        let nu = 7u32;
        let landscape = Random::new(nu, 5.0, 1.0, 29);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let plain = solo(&w, &start, &PowerOptions::default());
        let dead = solo(
            &w,
            &start,
            &PowerOptions {
                deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                ..Default::default()
            },
        );
        assert!(plain.converged && dead.converged && !dead.timed_out);
        assert_eq!(plain.lambda.to_bits(), dead.lambda.to_bits());
        assert_eq!(plain.iterations, dead.iterations);
        for (a, b) in plain.vector.iter().zip(&dead.vector) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn durable_power_resumes_bit_identically() {
        use crate::checkpoint::{CheckpointConfig, Checkpointer};
        let nu = 8u32;
        let landscape = Random::new(nu, 5.0, 1.0, 37);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let opts = PowerOptions {
            tol: 1e-13,
            ..Default::default()
        };
        let reference = solo(&w, &start, &opts);
        assert!(reference.converged);

        let dir = std::env::temp_dir().join(format!("qs-power-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.every_iterations = 5;

        // Phase 1: run with a small budget (simulating a crash), writing
        // checkpoints along the way.
        let writer = Checkpointer::create(cfg.clone()).unwrap();
        let mut session = CheckpointSession::new(writer, 1, 0.0, opts.tol, 0, None);
        let cut = reference.iterations / 2;
        let partial = power_iteration(
            &w,
            &start,
            0.0,
            &PowerOptions {
                max_iter: cut,
                ..opts
            },
            durable(&mut session),
        );
        assert!(!partial.converged);

        // Phase 2: resume from the latest snapshot with the full budget.
        let snap = crate::checkpoint::load_latest(&dir, 1).unwrap().unwrap();
        assert!(snap.iteration > 0 && snap.iteration <= cut as u64);
        let writer = Checkpointer::create(cfg).unwrap();
        let mut session = CheckpointSession::new(writer, 1, 0.0, opts.tol, 0, Some(snap));
        let resumed = power_iteration(&w, &start, 0.0, &opts, durable(&mut session));

        // Bit-identical to the uninterrupted run: same λ, same iterate,
        // same iteration count, same residual bits.
        assert!(resumed.converged);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.lambda.to_bits(), reference.lambda.to_bits());
        assert_eq!(resumed.residual.to_bits(), reference.residual.to_bits());
        for (a, b) in reference.vector.iter().zip(&resumed.vector) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_writes_are_reported_and_the_solve_carries_on() {
        use crate::checkpoint::{CheckpointConfig, Checkpointer};
        let nu = 8u32;
        let landscape = Random::new(nu, 5.0, 1.0, 37);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let opts = PowerOptions::default();
        let reference = solo(&w, &start, &opts);

        // Pull the directory out from under an opened writer: every
        // snapshot write of the run now fails.
        let dir = std::env::temp_dir().join(format!("qs-power-failing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointConfig::new(&dir);
        cfg.every_iterations = 2;
        let writer = Checkpointer::create(cfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let mut session = CheckpointSession::new(writer, 1, 0.0, opts.tol, 0, None);
        let mut rec = RecordingProbe::new();
        let ctx = RunContext {
            probe: Some(&mut rec),
            session: Some(&mut session),
            ..Default::default()
        };
        let out = power_iteration(&w, &start, 0.0, &opts, ctx);

        assert!(out.converged);
        assert_eq!(out.lambda.to_bits(), reference.lambda.to_bits());
        let rejected = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SolverEvent::CheckpointRejected {
                        reason: "write_failed"
                    }
                )
            })
            .count();
        assert_eq!(rejected, (out.iterations - 1) / 2);
        assert!(!rec
            .events()
            .iter()
            .any(|e| matches!(e, SolverEvent::CheckpointWritten { .. })));
    }

    #[test]
    fn stall_guard_keeps_bit_identity() {
        // The stall guard must not change the floating-point sequence of
        // a healthy run.
        let nu = 7u32;
        let landscape = Random::new(nu, 5.0, 1.0, 11);
        let w = w_op(nu, 0.01, &landscape);
        let start = start_from(&landscape);
        let guarded = solo(&w, &start, &PowerOptions::default());
        let unguarded = solo(
            &w,
            &start,
            &PowerOptions {
                stall_window: None,
                ..Default::default()
            },
        );
        assert!(guarded.converged && unguarded.converged);
        assert_eq!(guarded.lambda.to_bits(), unguarded.lambda.to_bits());
        assert_eq!(guarded.iterations, unguarded.iterations);
        assert!(guarded.breakdown.is_none() && unguarded.breakdown.is_none());
    }
}
