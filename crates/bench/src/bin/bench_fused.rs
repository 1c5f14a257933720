//! Fused-kernel benchmark: staged reference vs the fused cache-blocked
//! butterfly plan run by the one executor
//! ([`qs_matvec::schedule::run_fused`]) at one worker and span-parallel,
//! plus end-to-end `Fmmp` solve timings at one thread ("CPU") and at the
//! process default width ("GPU*").
//!
//! The matvec matrix runs **twice** — once at one thread and once at
//! several (both set with `qs_matvec::schedule::with_threads`) — so
//! the committed record separates single-core kernel quality from
//! span-parallel scaling. Unlike the figure binaries (which mirror the
//! paper's plots into `bench_results/`), this harness writes two
//! **root-level** files — `BENCH_matvec.json` and `BENCH_solver.json` — so
//! the repository carries a committed record of the fused-kernel speedups,
//! and CI's `perf-smoke` job can diff them as artifacts.
//!
//! ```text
//! bench_fused [--max-nu N] [--quick] [--threads 1,2,4] [--isas auto,scalar]
//!             [--guard R] [--guard-parallel R] [--guard-plan R]
//! ```
//!
//! `--threads` selects the thread widths to measure (default: `1` plus the
//! machine's available parallelism). `--isas` selects the SIMD dispatch
//! paths (`auto`, `scalar`, `avx2`, `avx512`); ISAs the host CPU lacks
//! are skipped with a note so one command line works everywhere.
//!
//! `--guard R` turns the run into a regression gate: exit nonzero if the
//! serial fused kernel is more than `R`× slower than the staged reference
//! at any measured ν. `--guard-parallel R`
//! gates span-schedule scaling: on every multi-thread run, the parallel
//! fused kernel must stay within `R`× of the same run's serial fused
//! kernel once ν ≥ 18 (where parallelism must pay for itself), and within
//! a hard 1.5× at *every* measured ν (no size may fall off a scaling
//! cliff). `--guard-plan R` gates the kernel plan (the fused kernel
//! at every length, span-parallel where
//! [`qs_matvec::schedule::span_workers`] grants more than one worker):
//! exit nonzero if the kernel `Fmmp::new` picks at some measured ν, in
//! some run, is more than `R`× slower than the fastest of the staged,
//! fused and span-parallel kernels. Run it over a ν range that reaches
//! the span threshold so both plans are checked. CI uses `--guard 2.0
//! --guard-parallel 1.05` and `--guard 2.0 --guard-plan 1.25`.
//!
//! Every matvec sample times a batch of back-to-back applies lasting at
//! least 1 ms, so short vectors are not timed off a few timer ticks.
//! Where [`qs_matvec::schedule::span_workers`] grants at most one worker,
//! the executor runs the one-worker path, so the span-parallel series
//! records the fused time instead of measuring it again.

use std::time::Instant;

use qs_bench::time_median;
use qs_landscape::SinglePeak;
use qs_matvec::fused::MixButterfly;
use qs_matvec::schedule::{run_fused, threads, with_threads};
use qs_matvec::{fmmp_in_place_fused, Fmmp, FmmpVariant, LinearOperator, NullProbe};
use quasispecies::{solve, SolverConfig};

/// First ν at which `--guard-parallel` applies its tight ratio: below
/// this the span schedule is expected to bail to serial, above it the
/// parallel path must at least match serial throughput.
const GUARD_PARALLEL_MIN_NU: u32 = 18;

/// Absolute scaling-cliff cap enforced by `--guard-parallel` at every ν.
const PARALLEL_BLOWUP_CAP: f64 = 1.5;

struct Args {
    max_nu: u32,
    quick: bool,
    threads: Option<Vec<usize>>,
    isas: Vec<String>,
    guard: Option<f64>,
    guard_parallel: Option<f64>,
    guard_plan: Option<f64>,
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Option<Vec<T>> {
    let items: Vec<T> = s
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.parse().ok())
        .collect();
    if items.is_empty() {
        None
    } else {
        Some(items)
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut out = Args {
        max_nu: 22,
        quick: false,
        threads: None,
        isas: vec!["auto".into(), "scalar".into()],
        guard: None,
        guard_parallel: None,
        guard_plan: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--max-nu" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.max_nu = v;
                }
                i += 2;
            }
            "--threads" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| parse_list(s)) {
                    out.threads = Some(v);
                }
                i += 2;
            }
            "--isas" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| parse_list(s)) {
                    out.isas = v;
                }
                i += 2;
            }
            "--guard" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.guard = Some(v);
                }
                i += 2;
            }
            "--guard-parallel" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.guard_parallel = Some(v);
                }
                i += 2;
            }
            "--guard-plan" => {
                if let Some(v) = argv.get(i + 1).and_then(|s| s.parse().ok()) {
                    out.guard_plan = Some(v);
                }
                i += 2;
            }
            "--quick" => {
                out.quick = true;
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Deterministic, positive, non-uniform start vector.
fn test_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i.wrapping_mul(2654435761)) % 1000) as f64 / 1000.0)
        .collect()
}

/// Shortest timed sample of a matvec series: a sample times as many
/// back-to-back calls as fill it, so the microsecond applies at small ν
/// are not read off a handful of timer ticks.
const MIN_SAMPLE_SECONDS: f64 = 1e-3;

/// Median seconds per call of `f` over `reps` samples, each a batch of
/// calls lasting at least [`MIN_SAMPLE_SECONDS`] (sized by timing one
/// call after the warm-up).
fn seconds_per_call(mut f: impl FnMut(), warmup: usize, reps: usize) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64();
    let calls = (MIN_SAMPLE_SECONDS / one).ceil().clamp(1.0, 1e6) as usize;
    let batch = || {
        for _ in 0..calls {
            f();
        }
    };
    time_median(batch, 0, reps) / calls as f64
}

/// Median ns/element for one in-place application of `apply`.
fn ns_per_element(mut apply: impl FnMut(&mut [f64]), v: &[f64], warmup: usize, reps: usize) -> f64 {
    let mut buf = v.to_vec();
    let n = v.len() as f64;
    // Re-seeding each rep would swamp small sizes with copy cost; the
    // iterate stays finite under repeated Q applications (column
    // stochastic), so reuse the buffer.
    seconds_per_call(|| apply(&mut buf), warmup, reps) * 1e9 / n
}

/// JSON array of numbers, each to four decimals.
fn json_f64s(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(", "))
}

fn json_u32s(xs: &[u32]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// One matvec measurement matrix (all three series over `nus`), taken on
/// whatever thread width and SIMD dispatch are set when this runs.
struct MatvecRun {
    threads: usize,
    /// The dispatch the kernels actually ran with (`auto` resolves to a
    /// concrete name before measuring).
    isa: String,
    /// The dispatch as requested on the command line (`auto`, `scalar`,
    /// ...). Trend comparisons match on this so that a record measured on
    /// an AVX-512 box still lines up with an `auto` run on an AVX2 runner.
    isa_requested: String,
    serial_ref: Vec<f64>,
    serial_fused: Vec<f64>,
    par_fused: Vec<f64>,
    /// Workers the span schedule engaged at each ν at this width on this machine
    /// (≤ 1 means the parallel kernel fell back to serial code).
    workers: Vec<usize>,
}

impl MatvecRun {
    fn json_entry(&self, nus: &[u32]) -> String {
        format!(
            "    {{\n      \"threads\": {},\n      \"isa\": \"{}\",\n      \"isa_requested\": \"{}\",\n      \"nus\": {},\n      \
             \"series\": {{\n        \
             \"fmmp_serial_ref\": {},\n        \"fmmp_serial_fused\": {},\n        \
             \"fmmp_parallel_fused\": {}\n      }},\n      \"span_workers\": {}\n    }}",
            self.threads,
            self.isa,
            self.isa_requested,
            json_u32s(nus),
            json_f64s(&self.serial_ref),
            json_f64s(&self.serial_fused),
            json_f64s(&self.par_fused),
            json_u32s(&self.workers.iter().map(|&w| w as u32).collect::<Vec<_>>()),
        )
    }
}

/// Measure all three series at every ν at the current width and dispatch.
fn run_matvec_series(nus: &[u32], p: f64, quick: bool, isa_requested: &str) -> MatvecRun {
    let mut run = MatvecRun {
        threads: threads(),
        isa: qs_matvec::simd::active().name().to_string(),
        isa_requested: isa_requested.to_string(),
        serial_ref: Vec::new(),
        serial_fused: Vec::new(),
        par_fused: Vec::new(),
        workers: Vec::new(),
    };
    println!(
        "== fused-kernel matvec bench (ns/element, median; {} thread{}; {} kernels) ==",
        run.threads,
        if run.threads == 1 { "" } else { "s" },
        run.isa
    );
    println!(
        "{:>4} {:>12} {:>12} {:>12}",
        "ν", "serial-ref", "serial-fused", "par-fused"
    );
    for &nu in nus {
        let n = 1usize << nu;
        let v = test_vector(n);
        // Budget ≈ constant total elements per series.
        let reps = if quick {
            3
        } else {
            (1usize << 24).checked_div(n).unwrap_or(1).clamp(3, 64)
        };
        let warmup = if quick { 1 } else { 2 };

        let staged = Fmmp::with_variant(nu, p, FmmpVariant::Iterative);
        let sr = ns_per_element(|v| staged.apply_in_place(v), &v, warmup, reps);
        let sf = ns_per_element(|v| fmmp_in_place_fused(v, p), &v, warmup, reps);
        let workers = qs_matvec::schedule::span_workers(n);
        // Below the span threshold the executor runs its one-worker path:
        // record that series' time instead of measuring the same kernel
        // twice.
        let pf = if workers > 1 {
            let bf = MixButterfly::new(p);
            let label = "fmmp-fused-pass";
            let apply = |v: &mut [f64]| run_fused(v, bf, None, workers, &mut NullProbe, label);
            ns_per_element(apply, &v, warmup, reps)
        } else {
            sf
        };

        println!("{nu:>4} {sr:>12.3} {sf:>12.3} {pf:>12.3}");
        run.serial_ref.push(sr);
        run.serial_fused.push(sf);
        run.par_fused.push(pf);
        run.workers.push(workers);
    }
    run
}

fn main() {
    let args = parse_args();
    let p = 0.01;
    let min_nu = 8u32.min(args.max_nu);
    let nus: Vec<u32> = (min_nu..=args.max_nu).step_by(2).collect();

    // One single-thread run isolates kernel quality; the multi-thread runs
    // expose span-parallel scaling; per-ISA reruns separate SIMD gains from
    // schedule gains. All go into the committed record.
    let threads_list = args.threads.clone().unwrap_or_else(|| {
        let multi = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(2);
        vec![1, multi]
    });
    let mut runs = Vec::new();
    for &threads in &threads_list {
        for isa_name in &args.isas {
            match isa_name.as_str() {
                "auto" => qs_matvec::simd::reset_auto(),
                other => match qs_matvec::Isa::from_name(other) {
                    Some(isa) => {
                        if qs_matvec::simd::force(isa).is_err() {
                            println!("   (skipping {other}: not available on this CPU)\n");
                            continue;
                        }
                    }
                    None => {
                        println!("   (skipping unknown ISA '{other}')\n");
                        continue;
                    }
                },
            }
            runs.push(with_threads(threads, || {
                run_matvec_series(&nus, p, args.quick, isa_name)
            }));
            println!();
        }
    }
    // Leave runtime detection in charge for the solver bench below.
    qs_matvec::simd::reset_auto();

    let run_entries: Vec<String> = runs.iter().map(|r| r.json_entry(&nus)).collect();
    let matvec_json = format!(
        "{{\n  \"provenance\": {{\"generated_by\": \"bench_fused\", \"solver_threads\": {}, \
         \"serial\": {}}},\n  \
         \"unit\": \"ns_per_element\",\n  \"p\": {p},\n  \
         \"nus\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        threads(),
        threads() <= 1,
        json_u32s(&nus),
        run_entries.join(",\n"),
    );
    match std::fs::write("BENCH_matvec.json", &matvec_json) {
        Ok(()) => println!("   (matvec data → BENCH_matvec.json)"),
        Err(e) => eprintln!("warning: could not write BENCH_matvec.json: {e}"),
    }

    // --- End-to-end `Fmmp` solve timings: the "CPU" row runs at one
    // thread, the "GPU*" row at the process default width.
    let solver_max = if args.quick {
        args.max_nu.min(12)
    } else {
        args.max_nu.min(16)
    };
    let solver_nus: Vec<u32> = (min_nu..=solver_max).step_by(2).collect();
    println!("\n== solver bench (seconds per solve, median; single-peak, p = {p}) ==");
    let mut solver_rows = Vec::new();
    for &nu in &solver_nus {
        let landscape = SinglePeak::new(nu, 2.0, 1.0);
        let config = SolverConfig::default();
        for (backend, width) in [("CPU", Some(1)), ("GPU*", None)] {
            let measure = || {
                let reps = if args.quick { 3 } else { 5 };
                let seconds = time_median(
                    || {
                        let _ = std::hint::black_box(solve(p, &landscape, &config).unwrap());
                    },
                    1,
                    reps,
                );
                let qs = solve(p, &landscape, &config).unwrap();
                (seconds, qs.stats.iterations, threads())
            };
            let (seconds, iterations, threads) = match width {
                Some(width) => with_threads(width, measure),
                None => measure(),
            };
            let label = format!("{backend}-Fmmp");
            println!("  ν={nu:<3} {label:<16} {seconds:>12.6}s  ({iterations} iterations)");
            solver_rows.push(format!(
                "    {{\"nu\": {nu}, \"engine\": \"{label}\", \"threads\": {threads}, \
                 \"seconds\": {seconds:.6}, \"iterations\": {iterations}}}"
            ));
        }
    }
    let solver_json = format!(
        "{{\n  \"provenance\": {{\"generated_by\": \"bench_fused\", \"solver_threads\": {}, \
         \"serial\": {}}},\n  \
         \"landscape\": \"single-peak f0=2 frest=1\",\n  \"p\": {p},\n  \
         \"tol\": 1e-13,\n  \"threads\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        threads(),
        threads() <= 1,
        threads(),
        solver_rows.join(",\n"),
    );
    match std::fs::write("BENCH_solver.json", &solver_json) {
        Ok(()) => println!("   (solver data → BENCH_solver.json)"),
        Err(e) => eprintln!("warning: could not write BENCH_solver.json: {e}"),
    }

    // --- Regression gates (CI perf-smoke).
    let mut failed = false;
    if let Some(ratio) = args.guard {
        for run in &runs {
            for (i, &nu) in nus.iter().enumerate() {
                let (fused, reference) = (run.serial_fused[i], run.serial_ref[i]);
                if fused > ratio * reference {
                    eprintln!(
                        "guard FAILED at ν={nu} ({} threads): fused {fused:.3} ns/el > \
                         {ratio}× reference {reference:.3} ns/el",
                        run.threads
                    );
                    failed = true;
                }
            }
        }
        if !failed {
            println!("guard OK: fused within {ratio}× of reference at every measured ν");
        }
    }
    if let Some(ratio) = args.guard_parallel {
        // Span-schedule scaling gate: on every multi-thread run the
        // parallel fused path must not lose to the serial fused path where
        // parallelism is supposed to pay (ν ≥ GUARD_PARALLEL_MIN_NU), and
        // must never fall off a cliff at any ν. Serial and parallel come
        // from the same run, so machine speed and ISA cancel out.
        let mut checked = false;
        let mut parallel_failed = false;
        for run in runs.iter().filter(|r| r.threads > 1) {
            for (i, &nu) in nus.iter().enumerate() {
                let (par, serial) = (run.par_fused[i], run.serial_fused[i]);
                // The tight ratio only makes sense where the span schedule
                // actually engaged extra workers; when it (correctly) fell
                // back to serial — width beyond the hardware, or span
                // below threshold — both series run identical code and any
                // delta is measurement noise. The blowup cap below still
                // applies everywhere.
                let engaged = run.workers.get(i).copied().unwrap_or(0) > 1;
                if engaged {
                    checked = true;
                }
                if engaged && nu >= GUARD_PARALLEL_MIN_NU && par > ratio * serial {
                    eprintln!(
                        "guard-parallel FAILED at ν={nu} ({} threads, {} kernels): parallel \
                         fused {par:.3} ns/el > {ratio}× serial fused {serial:.3} ns/el",
                        run.threads, run.isa
                    );
                    parallel_failed = true;
                }
                if par > PARALLEL_BLOWUP_CAP * serial {
                    eprintln!(
                        "guard-parallel FAILED at ν={nu} ({} threads, {} kernels): parallel \
                         fused {par:.3} ns/el blows past the {PARALLEL_BLOWUP_CAP}× scaling \
                         cliff cap vs serial fused {serial:.3} ns/el",
                        run.threads, run.isa
                    );
                    parallel_failed = true;
                }
            }
        }
        if !checked && !parallel_failed {
            println!(
                "guard-parallel skipped: the span schedule never engaged >1 worker \
                 (single-thread --threads list, hardware parallelism of 1, or --max-nu \
                 below the span threshold)"
            );
        } else if !parallel_failed {
            println!(
                "guard-parallel OK: multi-thread fused within {ratio}× of serial at \
                 ν≥{GUARD_PARALLEL_MIN_NU} and under the {PARALLEL_BLOWUP_CAP}× cap everywhere"
            );
        }
        failed = failed || parallel_failed;
    }
    if let Some(ratio) = args.guard_plan {
        // Plan gate: the automatic plan must track the fastest kernel on
        // this machine. A failure means the plan, or the span threshold,
        // is wrong for this hardware.
        let mut plan_failed = false;
        for run in &runs {
            for (i, &nu) in nus.iter().enumerate() {
                let (staged, fused, par) =
                    (run.serial_ref[i], run.serial_fused[i], run.par_fused[i]);
                let best = staged.min(fused).min(par);
                let planned = if run.workers[i] > 1 { par } else { fused };
                if planned > ratio * best {
                    eprintln!(
                        "guard-plan FAILED at ν={nu} ({} threads, {} kernels): Fmmp::new \
                         {planned:.3} ns/el > {ratio}× the fastest kernel {best:.3} ns/el \
                         (staged {staged:.3}, fused {fused:.3}, span-parallel {par:.3})",
                        run.threads, run.isa
                    );
                    plan_failed = true;
                }
            }
        }
        if !plan_failed {
            println!(
                "guard-plan OK: Fmmp::new within {ratio}× of the fastest of staged, fused and \
                 span-parallel at every measured ν"
            );
        }
        failed = failed || plan_failed;
    }
    if failed {
        std::process::exit(1);
    }
}
