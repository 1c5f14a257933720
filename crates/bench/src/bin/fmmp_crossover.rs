//! Kernel-plan crossover measurement for `Fmmp`.
//!
//! [`Fmmp::new`] runs the fused cache-tiled kernel at every length, since
//! it beats the staged loop (one sweep per butterfly stage) from the
//! shortest vector measured here; and it spreads the fused kernel over the
//! calling thread's width wherever [`qs_matvec::schedule::span_workers`]
//! grants more than one worker. This binary produces the tables both
//! decisions are read from: at every ν from 8 to 22 it times the staged
//! serial variant's `apply_in_place` and the fused plan run by the one
//! executor ([`qs_matvec::schedule::run_fused`]) at one worker and on as
//! many workers as the thread width and cores allow (forced at every ν,
//! including below the span threshold, where `Fmmp::new` itself would run
//! serially), over several rounds, on the `auto` and `scalar` SIMD
//! dispatches. Within a round the three variants take turns batch by
//! batch (the variant that goes first rotates between rounds), so a burst
//! of load from another tenant of the host lands on all three rather than
//! on one.
//!
//! ```text
//! fmmp_crossover
//! ```
//!
//! Each cell is the median over rounds of a round's median batch time, in
//! ns per element. `fused wins` counts the rounds in which fused beat
//! staged; `par wins` counts the rounds in which the span-parallel kernel
//! beat the faster serial plan of the same round. The last lines name, on
//! the runtime (`auto`) dispatch, the smallest ν from which fused wins
//! every round at that ν and every larger one, and every ν at which
//! span-parallel wins every round (on a shared host a neighbour's burst
//! can cost the parallel kernel a round at any length, so its rule is
//! read across several runs). The forced `scalar` rows are for reference
//! only: that dispatch is a reproducibility override, not what a solve
//! runs.

use std::time::Instant;

use qs_matvec::fused::MixButterfly;
use qs_matvec::schedule::run_fused;
use qs_matvec::{fmmp_in_place_fused, Fmmp, FmmpVariant, Isa, LinearOperator, NullProbe};

const MIN_NU: u32 = 8;
const MAX_NU: u32 = 22;
const ROUNDS: usize = 7;
/// Timed batches per (round, ν, variant); the batch median is kept.
const BATCHES: usize = 5;
/// Elements processed per batch (at least one apply).
const BATCH_ELEMENTS: usize = 1 << 22;
const P: f64 = 0.01;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One in-place product under test.
type Apply<'a> = &'a dyn Fn(&mut [f64]);

/// One round: median-of-batches ns/element of each of `applies`, taking
/// turns batch by batch, with `first` going first. All compute the same
/// product, so they share one buffer.
fn time_round<const V: usize>(applies: &[Apply<'_>; V], buf: &mut [f64], first: usize) -> [f64; V] {
    let n = buf.len();
    let per_batch = (BATCH_ELEMENTS / n).max(1);
    for apply in applies {
        apply(buf);
    }
    let mut times: [Vec<f64>; V] = std::array::from_fn(|_| Vec::new());
    for _ in 0..BATCHES {
        for k in 0..V {
            let which = (k + first) % V;
            let t0 = Instant::now();
            for _ in 0..per_batch {
                applies[which](buf);
            }
            times[which].push(t0.elapsed().as_secs_f64() * 1e9 / (per_batch * n) as f64);
        }
    }
    times.map(|mut t| median(&mut t))
}

/// Smallest ν from which `wins` is a full sweep at that ν and every
/// larger one (`MAX_NU + 1` if the largest ν already drops a round).
fn wins_from(nus: &[u32], wins: &[usize]) -> u32 {
    nus.iter()
        .zip(wins)
        .rev()
        .take_while(|&(_, &w)| w == ROUNDS)
        .last()
        .map_or(MAX_NU + 1, |(&nu, _)| nu)
}

fn main() {
    let nus: Vec<u32> = (MIN_NU..=MAX_NU).collect();
    // The widest span schedule this width and machine run.
    let workers = qs_matvec::schedule::span_workers(usize::MAX);
    // On auto: the smallest ν from which fused wins every round, and the
    // lengths at which span-parallel wins every round.
    let (mut fused_from, mut par_full) = (MAX_NU + 1, Vec::new());
    println!(
        "| ISA | ν | staged ns/el | fused ns/el | par({workers}) ns/el | staged/fused | fused wins \
         | par wins |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for forced in [None, Some(Isa::Scalar)] {
        match forced {
            None => qs_matvec::simd::reset_auto(),
            Some(isa) => qs_matvec::simd::force(isa).expect("the scalar dispatch always runs"),
        }
        let isa = qs_matvec::simd::active().name();
        // times[ν][variant][round], variant 0 = staged, 1 = fused,
        // 2 = span-parallel.
        let mut times = vec![[Vec::new(), Vec::new(), Vec::new()]; nus.len()];
        for round in 0..ROUNDS {
            for (i, &nu) in nus.iter().enumerate() {
                let staged = Fmmp::with_variant(nu, P, FmmpVariant::Iterative);
                let bf = MixButterfly::new(P);
                let applies: [Apply<'_>; 3] = [
                    &|v| staged.apply_in_place(v),
                    &|v| fmmp_in_place_fused(v, P),
                    &|v| run_fused(v, bf, None, workers, &mut NullProbe, "fmmp-fused-pass"),
                ];
                let mut buf: Vec<f64> = (0..1usize << nu)
                    .map(|j| 1.0 + (j.wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
                    .collect();
                let round_times = time_round(&applies, &mut buf, round % 3);
                for (series, t) in times[i].iter_mut().zip(round_times) {
                    series.push(t);
                }
            }
        }
        let fused_wins: Vec<usize> = times
            .iter()
            .map(|[staged, fused, _]| staged.iter().zip(fused).filter(|(s, f)| f < s).count())
            .collect();
        let par_wins: Vec<usize> = times
            .iter()
            .map(|[staged, fused, par]| {
                (0..ROUNDS)
                    .filter(|&r| par[r] < staged[r].min(fused[r]))
                    .count()
            })
            .collect();
        for (i, &nu) in nus.iter().enumerate() {
            let [staged, fused, par] = &mut times[i];
            let (s, f, q) = (median(staged), median(fused), median(par));
            println!(
                "| {isa} | {nu} | {s:.3} | {f:.3} | {q:.3} | {:.2} | {}/{ROUNDS} | {}/{ROUNDS} |",
                s / f,
                fused_wins[i],
                par_wins[i]
            );
        }
        if forced.is_none() {
            fused_from = wins_from(&nus, &fused_wins);
            par_full = nus
                .iter()
                .zip(&par_wins)
                .filter(|&(_, &w)| w == ROUNDS)
                .map(|(nu, _)| nu.to_string())
                .collect();
        }
    }
    qs_matvec::simd::reset_auto();
    let planned_par = (1..=30)
        .find(|&nu| qs_matvec::schedule::span_workers(1 << nu) > 1)
        .unwrap_or(0);
    let never = MAX_NU + 1;
    println!(
        "\nfused wins every round on auto from ν = {fused_from} on ({never} means never up \
         to ν = {MAX_NU}); Fmmp::new runs fused at every length"
    );
    println!(
        "span-parallel on {workers} workers wins every round on auto at ν = [{}]; \
         Fmmp::new goes span-parallel from ν = {planned_par} (0 means never at this width)",
        par_full.join(", ")
    );
}
