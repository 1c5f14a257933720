//! The one executor of a fused butterfly plan, its chunk-stealing span
//! schedule, and the workspace's one spawner and thread width.
//!
//! The paper's Algorithm 2 is a host loop over the butterfly stages and
//! `N/2` independent butterflies per stage, indexed by thread id; its
//! "CPU" and "GPU" rows differ only in how many threads run them. So does
//! [`run_fused`], the only code that runs a [`FusedPlan`]'s passes: at one
//! worker it runs them in order on the calling thread, and above one it
//! runs them under the schedule below. [`crate::Fmmp`] (at the calling
//! width), the fused FWHT and Fmmp helpers, the shift-invert and sweep
//! products, and the benchmarks' forced-width rows all call it.
//!
//! An earlier parallel backend issued one fork–join per radix pass. At
//! small ν that join overhead dominates — BENCH_matvec.json showed the
//! 2-thread staged path regressing 4.5 → 20.5 ns/element at ν = 14 — and
//! even at large ν every pass pays a wake-up and barrier. Above one
//! worker the executor instead uses one scoped set of workers per apply
//! and a claim-counter stealing schedule inside it:
//!
//! 1. **One scope, all passes.** The caller enters [`on_workers`] once;
//!    `workers − 1` helper threads are spawned and the calling thread
//!    works inline as worker 0. Every pass of the plan runs inside that
//!    one scope — no per-pass join.
//! 2. **Thread-affine spans with stealing.** Each pass is cut into
//!    equal-size independent *units*: contiguous chunks that never split
//!    a block, or, for a late radix pass with fewer blocks than workers,
//!    equal segments of every fibre of a block. Worker `w` owns the
//!    contiguous unit range `[w·U/W, (w+1)·U/W)` and drains it through a
//!    per-worker atomic claim cursor, so on every pass the same worker
//!    touches the same region of the vector first (cache- and
//!    first-touch-affine). Only after its own range is empty does it
//!    advance round-robin through the other workers' cursors and steal
//!    their leftover units — imbalance from preemption never idles a
//!    worker, and the common balanced case costs one uncontended
//!    `fetch_add` per unit.
//! 3. **Pass barrier by completion count.** A unit's executor bumps the
//!    pass's completion counter with `Release`; workers spin (then yield)
//!    on an `Acquire` load until the counter reaches the unit count
//!    before entering the next pass. The inline worker can always finish
//!    a pass alone, so the schedule is deadlock-free even if no helper
//!    ever runs.
//! 4. **Serial below threshold.** [`span_workers`] returns ≤ 1 unless
//!    every worker would get at least [`MIN_WORKER_SPAN`] elements;
//!    [`run_fused`] then builds no schedule at all. This is the measured
//!    fix for the ν ≤ 14 regression: a transform that fits in L2 cannot
//!    amortise any cross-thread coordination.
//!
//! **Safety.** Units within a pass address pairwise-disjoint element
//! ranges (contiguous chunks, or disjoint segments of disjoint fibres),
//! so handing each claimed unit a `&mut [f64]` reconstructed from a raw
//! base pointer is sound; the `Release`/`Acquire` completion counter
//! orders all of a pass's writes before any next-pass read. A power
//! step's head ([`StepHead`]) rides the first pass: each unit also
//! writes the matching window of the step's `x` and reads the matching
//! window of its diagonal, disjoint across units like the units
//! themselves. A contiguous unit runs [`crate::fused::run_pass`], the
//! pass dispatch of the one-worker path, and a fibre segment the same
//! `radix*_lanes` kernels on a shorter fibre, so bit-identity with the
//! staged reference is preserved structurally.
//!
//! **Step reductions.** The power step's two reduction passes,
//! [`span_shift_dot`] and [`span_step_norms`], run on the same machinery:
//! the vector is cut into a partition fixed by its length alone
//! ([`reduce_chunks`]), workers claim chunks through the claim cursors,
//! each chunk is reduced by the 8-lane kernels of [`crate::simd`], and the
//! chunk partials are summed left to right. The worker count decides who
//! reduces a chunk, never the order of any sum, so the result is the same
//! bits at every width.
//!
//! **Width.** [`threads`] is how many threads parallel work on this thread
//! may use: the innermost [`with_threads`] width, else the process
//! default — `RAYON_NUM_THREADS` if set to a positive count (read once),
//! else the machine's available parallelism. [`on_workers`] helpers
//! inherit their caller's width. Every fork–join in the workspace (a span
//! schedule's passes, its two step reductions, a sweep's lanes) spawns
//! through [`on_workers`]; a region costs one scoped spawn and join per
//! helper, which is why [`span_workers`] keeps short vectors serial.

#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::fused::{
    head_ladder, radix2_lanes, radix4_lanes, radix8_lanes, run_pass, Butterfly, FusedPass,
    FusedPlan, StepHead, FUSED_TILE, MAX_FUSED_PASSES, NO_HEAD,
};
use crate::simd::{block_dot, block_shift_dot, block_step_norms};
use crate::{time_stage, Probe};
use qs_telemetry::SolverEvent;

/// Hard cap on cooperating workers; bounds the stack-resident claim
/// matrix.
pub const MAX_WORKERS: usize = 16;

/// Target elements per claimable unit (2¹⁴ doubles = 128 KiB): big enough
/// that one claim `fetch_add` is noise against the memory traffic, small
/// enough to leave several units per worker for stealing.
pub const SPAN_UNIT: usize = 1 << 14;

/// Minimum elements of span per worker for the workers to pay for
/// themselves. `n >> 18` therefore also sets the serial/parallel
/// threshold: parallel execution engages from ν = 19 with 2 threads,
/// the smallest ν from which the 2-worker span-parallel kernel beat the
/// faster serial plan in every round of every `fmmp_crossover` run on a
/// shared 2-vCPU host (table in DESIGN.md, "Kernel plan").
pub const MIN_WORKER_SPAN: usize = 1 << 18;

/// Hardware threads actually available to this process (cgroup-aware),
/// cached once. A span schedule's per-pass barriers make oversubscription
/// strictly lossy: two workers time-slicing one core serialise the same
/// memory traffic *plus* a context switch per barrier, so the worker
/// count must never exceed what the machine can run simultaneously.
fn hardware_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    /// Width set by the innermost [`with_threads`] on this thread; 0 =
    /// the process default.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// The process default width: `RAYON_NUM_THREADS` if it is a positive
/// count, else the machine's available parallelism. Read once.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .unwrap_or_else(hardware_parallelism)
    })
}

/// How many threads parallel work started on this thread may use: the
/// innermost [`with_threads`] width, else the process default.
pub fn threads() -> usize {
    match WIDTH.with(Cell::get) {
        0 => default_threads(),
        n => n,
    }
}

/// Run `f` with [`threads`] set to `n` (at least 1) on this thread and
/// on every [`on_workers`] helper it starts; the outer width comes back
/// when `f` returns or panics.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WIDTH.with(|w| w.replace(n.max(1))));
    f()
}

/// Run `work(w)` for every worker `w < workers`: the calling thread works
/// inline as worker 0 and `workers − 1` scoped helper threads, each at
/// the caller's [`threads`] width, run the rest. Returns once every
/// worker has finished; a worker's panic reaches the caller.
pub fn on_workers(workers: usize, work: impl Fn(usize) + Sync) {
    let work = &work;
    let width = threads();
    std::thread::scope(|scope| {
        for w in 1..workers {
            scope.spawn(move || with_threads(width, || work(w)));
        }
        work(0);
    });
}

/// How many workers a span of `n` elements can productively use: capped
/// by [`threads`], the machine's hardware parallelism, [`MAX_WORKERS`],
/// and one worker per [`MIN_WORKER_SPAN`] elements. `0` or `1` means
/// "run serial".
///
/// Every [`crate::Fmmp::new`] apply asks this, so a span too short for
/// two workers answers before the width is looked up.
pub fn span_workers(n: usize) -> usize {
    let by_span = n / MIN_WORKER_SPAN;
    if by_span <= 1 {
        return by_span;
    }
    by_span
        .min(MAX_WORKERS)
        .min(threads())
        .min(hardware_parallelism())
}

/// Smallest tile the thread-aware planner will shrink to; below this the
/// tile no longer covers enough stages to amortise its traversal.
const MIN_PAR_TILE: usize = 1 << 10;

/// The fused pass plan [`run_fused`] runs on `workers` cooperating
/// threads: [`FusedPlan::new`]`(n, 1)` at one worker.
///
/// The tiled pass parallelises over tiles, so the default 64 KiB tile
/// ([`FUSED_TILE`]) starves wide schedules on mid-sized vectors
/// (`n / tile < workers` leaves workers idle). Halve the tile until every
/// worker gets at least one, never below `MIN_PAR_TILE`. Any power-of-two
/// tile yields bit-identical results: regrouping stages into tiles never
/// changes the per-element arithmetic or its order.
pub(crate) fn par_plan(n: usize, workers: usize) -> FusedPlan {
    let mut tile = FUSED_TILE;
    while tile > MIN_PAR_TILE && n > tile && n / tile < workers {
        tile /= 2;
    }
    FusedPlan::with_tile(n, 1, tile)
}

/// How a pass's independent work units map onto the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayoutKind {
    /// Unit `u` is the contiguous chunk
    /// `[u · unit_elems, (u+1) · unit_elems)`; `unit_elems` is a multiple
    /// of the pass's block (or tile) size, so chunks never split a block.
    Contig { unit_elems: usize },
    /// For radix passes with too few blocks to feed every worker: each
    /// block's fibres are cut into `segs` equal segments and unit `u`
    /// covers segment `u % segs` of every fibre of block `u / segs`.
    /// Fibre kernels are elementwise, so segmenting is exact.
    FibreSeg { segs: usize },
}

/// One planned pass plus its unit decomposition.
#[derive(Debug, Clone, Copy)]
struct PassLayout {
    pass: FusedPass,
    kind: LayoutKind,
    units: usize,
}

const NO_PASS: PassLayout = PassLayout {
    pass: FusedPass::Radix2 { stride: 0 },
    kind: LayoutKind::Contig { unit_elems: 0 },
    units: 0,
};

/// A fused plan's passes laid out for `workers` cooperating threads:
/// `Copy`, fixed-size, heap-free — built per apply on the stack like
/// [`FusedPlan`].
#[derive(Debug, Clone, Copy)]
struct SpanSchedule {
    passes: [PassLayout; MAX_FUSED_PASSES],
    count: usize,
    workers: usize,
    /// The first pass's [`FusedPass::head_tile`]: the window a step head
    /// rides in, if one can.
    head_tile: Option<usize>,
}

impl SpanSchedule {
    /// Lay out `passes` (from a [`FusedPlan`] over a length-`n` vector
    /// with base stride 1) across `workers` threads, with contiguous units
    /// of about `unit_target` elements ([`SPAN_UNIT`] in production; tests
    /// and Miri shrink it so short vectors still get many units).
    fn new(n: usize, workers: usize, passes: &[FusedPass], unit_target: usize) -> Self {
        assert!(n.is_power_of_two() && unit_target.is_power_of_two());
        let workers = workers.clamp(1, MAX_WORKERS);
        let mut out = [NO_PASS; MAX_FUSED_PASSES];
        for (slot, &pass) in out.iter_mut().zip(passes) {
            *slot = layout_pass(n, workers, pass, unit_target);
        }
        SpanSchedule {
            passes: out,
            count: passes.len(),
            workers,
            head_tile: passes.first().and_then(|p| p.head_tile()),
        }
    }

    /// Total claimable units across all passes — the grain count the
    /// stealing scheduler distributes (reported in the `kernel_dispatch`
    /// telemetry event).
    fn total_units(&self) -> usize {
        self.passes[..self.count].iter().map(|p| p.units).sum()
    }
}

/// Decompose one pass into equal independent units (see `LayoutKind`).
fn layout_pass(n: usize, workers: usize, pass: FusedPass, unit_target: usize) -> PassLayout {
    // The smallest contiguous chunk that never splits a block.
    let grain = pass.block();
    debug_assert!(grain.is_power_of_two() && grain <= n && n.is_multiple_of(grain));
    // Contiguous units: start from the target size, shrink (never below
    // one block) until there are at least two units per worker to steal.
    let mut unit = grain.max(unit_target).min(n);
    while unit > grain && n / unit < 2 * workers {
        unit /= 2;
    }
    if n / unit >= 2 * workers || matches!(pass, FusedPass::Tile { .. }) {
        return PassLayout {
            pass,
            kind: LayoutKind::Contig { unit_elems: unit },
            units: n / unit,
        };
    }
    // Too few blocks (late big-stride radix passes). Split fibres into
    // segments instead; segment kernels are the same elementwise fibre
    // kernels, so this stays exact.
    if let Some((_, stride)) = pass.fibres() {
        let nblocks = n / grain;
        // Halt once a further split would push the per-unit *work*
        // (`radix` fibres × `stride / segs` elements) below half the unit
        // target — that is the steal-granularity floor, not the raw
        // stride, which a big-radix pass can exceed even when each fibre
        // segment is still long enough to keep the lane kernels busy.
        let mut segs = 1;
        while nblocks * segs < 2 * workers
            && 2 * segs <= stride
            && grain / (2 * segs) >= unit_target.max(2) / 2
        {
            segs *= 2;
        }
        if segs > 1 {
            return PassLayout {
                pass,
                kind: LayoutKind::FibreSeg { segs },
                units: nblocks * segs,
            };
        }
    }
    PassLayout {
        pass,
        kind: LayoutKind::Contig { unit_elems: grain },
        units: n / grain,
    }
}

/// The vector shared across workers, plus the step head the first pass
/// runs. Units are pairwise disjoint per pass and passes are separated by
/// the completion barrier, so concurrent mutable access through the raw
/// pointers never aliases.
struct SharedSpan {
    ptr: *mut f64,
    len: usize,
    head: Option<SharedHead>,
}

impl SharedSpan {
    /// Share `v` and, for a stepping schedule, the head's `x` and `diag`
    /// (each `v.len()` long), riding windows of `tile`.
    fn new(v: &mut [f64], head: Option<StepHead<'_>>, tile: Option<usize>) -> Self {
        let head = head.map(|h| {
            assert!(
                h.x.len() == v.len() && h.diag.is_none_or(|d| d.len() == v.len()),
                "step head must cover the whole vector"
            );
            SharedHead {
                x: h.x.as_mut_ptr(),
                diag: h.diag.map(<[f64]>::as_ptr),
                scale: h.scale,
                tile: tile.expect(NO_HEAD),
            }
        });
        SharedSpan {
            ptr: v.as_mut_ptr(),
            len: v.len(),
            head,
        }
    }

    /// The window `[start, start + len)` of the shared vector.
    ///
    /// # Safety
    ///
    /// The window must lie inside the vector, and no other live borrow may
    /// overlap it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn window(&self, start: usize, len: usize) -> &mut [f64] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// A [`StepHead`] shared across workers: each unit of the first pass
/// hands its own windows of `x` and `diag` to [`head_ladder`]. The `x`
/// windows of distinct units are disjoint like the units themselves;
/// `diag` is only read.
struct SharedHead {
    x: *mut f64,
    diag: Option<*const f64>,
    scale: f64,
    /// The schedule's [`FusedPass::head_tile`].
    tile: usize,
}

// SAFETY: see `SharedSpan` — disjoint units + pass barrier.
unsafe impl Send for SharedSpan {}
unsafe impl Sync for SharedSpan {}

/// Execute one claimed unit; `head`, if any, is the first pass's step
/// head, which the unit runs through [`head_ladder`] on its windows.
///
/// # Safety
///
/// `u` must be `< layout.units` for a schedule built over the vector
/// `shared` points at, and no other thread may hold the same unit.
unsafe fn run_unit<B: Butterfly>(
    shared: &SharedSpan,
    layout: &PassLayout,
    u: usize,
    bf: B,
    head: Option<&SharedHead>,
) {
    match layout.kind {
        LayoutKind::Contig { unit_elems } => {
            let start = u * unit_elems;
            // SAFETY: unit `u < units` covers `[u·unit_elems,
            // (u+1)·unit_elems)`, inside the vector and disjoint from every
            // other unit of the pass.
            let v = shared.window(start, unit_elems);
            if let Some(h) = head {
                // SAFETY: the unit's windows of `x` and `diag` lie in the
                // shared length like the unit, and its `x` window belongs
                // to this unit alone.
                let x = std::slice::from_raw_parts_mut(h.x.add(start), unit_elems);
                let diag = h
                    .diag
                    .map(|d| std::slice::from_raw_parts(d.add(start), unit_elems));
                return head_ladder(v, x, h.scale, diag, h.tile, bf);
            }
            run_pass(v, layout.pass, bf);
        }
        LayoutKind::FibreSeg { segs } => {
            // A head pass is a tile or a stride-1 radix-8 pass, both of
            // which `layout_pass` keeps contiguous.
            debug_assert!(head.is_none(), "a head pass is laid out contiguously");
            let (radix, stride) = layout
                .pass
                .fibres()
                .expect("tiled passes are always Contig");
            let seg_len = stride / segs;
            let block_start = (u / segs) * (radix * stride);
            let seg_off = (u % segs) * seg_len;
            // SAFETY: fibre j of block b spans
            // [b·radix·stride + j·stride, …+stride); distinct (b, j,
            // segment) triples are disjoint.
            let fibre = |j: usize| shared.window(block_start + j * stride + seg_off, seg_len);
            match radix {
                8 => radix8_lanes(
                    fibre(0),
                    fibre(1),
                    fibre(2),
                    fibre(3),
                    fibre(4),
                    fibre(5),
                    fibre(6),
                    fibre(7),
                    bf,
                ),
                4 => radix4_lanes(fibre(0), fibre(1), fibre(2), fibre(3), bf),
                _ => radix2_lanes(fibre(0), fibre(1), bf),
            }
        }
    }
}

/// Claim matrix + completion counters for one apply. Stack-resident
/// (`MAX_FUSED_PASSES × (MAX_WORKERS + 1)` words) so the hot path
/// allocates nothing.
struct ClaimState {
    claims: [[AtomicUsize; MAX_WORKERS]; MAX_FUSED_PASSES],
    done: [AtomicUsize; MAX_FUSED_PASSES],
}

impl ClaimState {
    fn new() -> Self {
        ClaimState {
            claims: [const { [const { AtomicUsize::new(0) }; MAX_WORKERS] }; MAX_FUSED_PASSES],
            done: [const { AtomicUsize::new(0) }; MAX_FUSED_PASSES],
        }
    }
}

/// The contiguous unit range worker `w` owns (first-touch affinity: the
/// same worker claims the same vector region on every pass).
fn worker_range(units: usize, workers: usize, w: usize) -> (usize, usize) {
    let start = units * w / workers;
    let end = units * (w + 1) / workers;
    (start, end - start)
}

/// Worker `w`'s claims on one pass of `units` units: drain its own range
/// through its cursor in `cursors`, then steal round-robin from the other
/// workers' cursors, calling `run` on every unit it wins. Each unit index
/// is handed out exactly once across all workers.
fn claim_units(
    cursors: &[AtomicUsize; MAX_WORKERS],
    units: usize,
    workers: usize,
    w: usize,
    mut run: impl FnMut(usize),
) {
    for off in 0..workers {
        let victim = (w + off) % workers;
        let (start, len) = worker_range(units, workers, victim);
        loop {
            let idx = cursors[victim].fetch_add(1, Ordering::Relaxed);
            if idx >= len {
                break;
            }
            run(start + idx);
        }
    }
}

/// One worker's traversal of every pass: drain the own range, steal
/// round-robin, then spin-wait on the pass completion barrier.
fn worker_loop<B: Butterfly>(
    shared: &SharedSpan,
    sched: &SpanSchedule,
    state: &ClaimState,
    w: usize,
    bf: B,
) {
    for k in 0..sched.count {
        let layout = &sched.passes[k];
        let head = if k == 0 { shared.head.as_ref() } else { None };
        claim_units(&state.claims[k], layout.units, sched.workers, w, |u| {
            // SAFETY: `claim_units` hands out each unit index exactly
            // once; units within a pass are disjoint (see `run_unit`).
            unsafe { run_unit(shared, layout, u, bf, head) };
            state.done[k].fetch_add(1, Ordering::Release);
        });
        // Barrier: every unit's writes must be visible before any worker
        // reads them in pass k+1. The inline worker can complete the pass
        // alone, so this wait always terminates.
        // Brief spin for the common case (peers are mid-unit and finish in
        // nanoseconds), then yield every iteration: a waiting worker must
        // hand its core to whoever still owns units, or an oversubscribed
        // schedule (more workers than cores) serialises the pass behind the
        // scheduler quantum.
        let mut spins = 0u32;
        while state.done[k].load(Ordering::Acquire) < layout.units {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Run every pass of `sched` over `v` with one scoped set of workers
/// ([`on_workers`]): the calling thread works inline as worker 0 and
/// `workers − 1` helpers run the rest. A power step's `head` (if any)
/// folds into the first pass: every worker runs it on the units it
/// claims.
fn run_schedule<B: Butterfly>(
    v: &mut [f64],
    sched: &SpanSchedule,
    bf: B,
    head: Option<StepHead<'_>>,
) {
    let state = ClaimState::new();
    let shared = SharedSpan::new(v, head, sched.head_tile);
    on_workers(sched.workers, |w| {
        worker_loop(&shared, sched, &state, w, bf)
    });
}

/// Report a kernel dispatch: the ISA, the workers, and the units they
/// share (`1, 1` on the calling thread alone).
pub(crate) fn record_dispatch(probe: &mut dyn Probe, threads: usize, spans: usize) {
    probe.record(&SolverEvent::KernelDispatch {
        isa: crate::simd::active().name(),
        threads,
        spans,
    });
}

/// The one executor of a fused product: every pass of
/// `par_plan(v.len(), workers)` over `v`, with the butterfly `bf`.
///
/// * At one worker it runs the passes in order on the calling thread —
///   no schedule, no atomics, no scope.
/// * Above one worker it runs them under the chunk-stealing span
///   schedule, in one scope of `workers` threads (capped at
///   [`MAX_WORKERS`]).
///
/// Every worker count gives the same bits as the staged reference.
/// [`crate::Fmmp::new`] passes [`span_workers`] at the calling width; the
/// fused helpers ([`crate::fmmp_in_place_fused`],
/// [`crate::fwht_in_place_fused`]) pass 1, and the bench binaries force
/// other counts to measure where that threshold belongs.
///
/// A power step's `head` (if any) folds into the first pass — every
/// worker runs it on the units it claims. An enabled `probe` gets one
/// `kernel_dispatch` event (ISA, workers, units: `1, 1` at one worker)
/// and one `label` stage per memory pass; the first pass's event covers
/// the head. Per-pass timing needs a barrier after each pass, so a traced
/// multi-worker apply runs one single-pass schedule per planned pass (an
/// untraced one runs them all in one scope).
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2, or if `head` is set and
/// `v` is shorter than 8 elements (the first pass cannot carry it) or the
/// head does not cover the whole vector.
pub fn run_fused<B: Butterfly>(
    v: &mut [f64],
    bf: B,
    head: Option<StepHead<'_>>,
    workers: usize,
    probe: &mut dyn Probe,
    label: &'static str,
) {
    let plan = par_plan(v.len(), workers);
    run_plan(v, &plan, bf, head, workers, SPAN_UNIT, probe, label);
}

/// [`run_fused`] on an explicit plan and unit target.
#[allow(clippy::too_many_arguments)]
fn run_plan<B: Butterfly>(
    v: &mut [f64],
    plan: &FusedPlan,
    bf: B,
    mut head: Option<StepHead<'_>>,
    workers: usize,
    unit_target: usize,
    probe: &mut dyn Probe,
    label: &'static str,
) {
    let passes = plan.passes();
    let workers = workers.clamp(1, MAX_WORKERS);
    if workers == 1 {
        if probe.enabled() {
            record_dispatch(probe, 1, 1);
        }
        let mut rest = passes;
        if let Some(h) = head {
            let tile = passes[0].head_tile().expect(NO_HEAD);
            time_stage(probe, label, || {
                head_ladder(v, h.x, h.scale, h.diag, tile, bf)
            });
            rest = &passes[1..];
        }
        for &pass in rest {
            time_stage(probe, label, || run_pass(v, pass, bf));
        }
        return;
    }
    let n = v.len();
    let sched = SpanSchedule::new(n, workers, passes, unit_target);
    if !probe.enabled() {
        return run_schedule(v, &sched, bf, head);
    }
    record_dispatch(probe, workers, sched.total_units());
    for pass in passes {
        let one = SpanSchedule::new(n, workers, std::slice::from_ref(pass), unit_target);
        time_stage(probe, label, || run_schedule(v, &one, bf, head.take()));
    }
}

/// Most chunks the step-reduction partition cuts a vector into; part of
/// the partition's definition (a different cap sums in a different order).
const MAX_REDUCE_CHUNKS: usize = 64;

/// Chunks of the step-reduction partition of a length-`n` vector, fixed by
/// `n` alone: one below `2 · MIN_WORKER_SPAN` (the length from which span
/// parallelism can engage), so short vectors reduce exactly as a single
/// [`crate::simd::block_dot`] call does; from there `n / SPAN_UNIT` equal
/// contiguous chunks, at most 64. Chunk `c` covers
/// `[c·n/chunks, (c+1)·n/chunks)`.
pub fn reduce_chunks(n: usize) -> usize {
    if n < 2 * MIN_WORKER_SPAN {
        1
    } else {
        (n / SPAN_UNIT).min(MAX_REDUCE_CHUNKS)
    }
}

/// Reduce a length-`n` vector over `chunks` contiguous chunks:
/// `kernel(start, len)` returns the partials of one chunk, and the chunk
/// partials are summed left to right. Up to `workers` workers claim chunks
/// through claim cursors (one worker claims them all in order, on the
/// calling thread); which worker reduces a chunk never changes a bit of
/// the result. A single chunk is one `kernel` call over the whole vector.
fn reduce_over<K>(n: usize, chunks: usize, workers: usize, kernel: K) -> (f64, f64)
where
    K: Fn(usize, usize) -> (f64, f64) + Sync,
{
    assert!((1..=MAX_REDUCE_CHUNKS).contains(&chunks));
    if chunks == 1 {
        return kernel(0, n);
    }
    let workers = workers.clamp(1, MAX_WORKERS).min(chunks);
    // Each chunk's partials are written once, by the worker that claims
    // the chunk; the scope's join orders every write before the sum.
    let partials = [const { [const { AtomicU64::new(0) }; 2] }; MAX_REDUCE_CHUNKS];
    let cursors = [const { AtomicUsize::new(0) }; MAX_WORKERS];
    on_workers(workers, |w| {
        claim_units(&cursors, chunks, workers, w, |c| {
            let (start, len) = worker_range(n, chunks, c);
            let (a, b) = kernel(start, len);
            partials[c][0].store(a.to_bits(), Ordering::Relaxed);
            partials[c][1].store(b.to_bits(), Ordering::Relaxed);
        });
    });
    let partial = |c: usize, k: usize| f64::from_bits(partials[c][k].load(Ordering::Relaxed));
    (1..chunks).fold((partial(0, 0), partial(0, 1)), |(a, b), c| {
        (a + partial(c, 0), b + partial(c, 1))
    })
}

/// The power step's shift-and-dot pass over the step-reduction partition
/// ([`reduce_chunks`]) on up to `workers` workers: `y ← y − µ·x` and
/// `Σ xᵢ·yᵢ` over the shifted `y`, each chunk through
/// [`crate::simd::block_shift_dot`]. With `µ = 0` it is
/// [`crate::simd::block_dot`] per chunk and leaves `y` untouched. The
/// result and the shifted `y` are the same bits at every worker count and
/// on every ISA; below `2 · MIN_WORKER_SPAN` elements they are a single
/// `block_shift_dot` (`block_dot`) call's. The power loop passes
/// [`span_workers`]`(n)`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn span_shift_dot(x: &[f64], y: &mut [f64], mu: f64, workers: usize) -> f64 {
    shift_dot_over(x, y, mu, reduce_chunks(x.len()), workers)
}

/// [`span_shift_dot`] over an explicit chunk count.
fn shift_dot_over(x: &[f64], y: &mut [f64], mu: f64, chunks: usize, workers: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "span_shift_dot: length mismatch");
    let y = SharedSpan::new(y, None, None);
    let kernel = |start: usize, len: usize| {
        let x = &x[start..start + len];
        // SAFETY: the chunk lies inside `y` (same length as `x`), and
        // chunks are pairwise disjoint and each is reduced exactly once,
        // so this window of `y` is borrowed by this call alone.
        let y = unsafe { y.window(start, len) };
        let dot = if mu != 0.0 {
            block_shift_dot(x, y, mu)
        } else {
            block_dot(x, y)
        };
        (dot, 0.0)
    };
    reduce_over(x.len(), chunks, workers, kernel).0
}

/// The power step's norms pass over the step-reduction partition
/// ([`reduce_chunks`]) on up to `workers` workers:
/// `(‖y − λx‖₂², ‖y‖₂²)`, each chunk through
/// [`crate::simd::block_step_norms`]. Same bit-identity promise as
/// [`span_shift_dot`].
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn span_step_norms(x: &[f64], y: &[f64], lambda: f64, workers: usize) -> (f64, f64) {
    step_norms_over(x, y, lambda, reduce_chunks(x.len()), workers)
}

/// [`span_step_norms`] over an explicit chunk count.
fn step_norms_over(x: &[f64], y: &[f64], lambda: f64, chunks: usize, workers: usize) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "span_step_norms: length mismatch");
    reduce_over(x.len(), chunks, workers, |start, len| {
        let end = start + len;
        block_step_norms(&x[start..end], &y[start..end], lambda)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmmp::fmmp_in_place;
    use crate::fused::{HadamardButterfly, MixButterfly};
    use qs_telemetry::{NullProbe, RecordingProbe};

    /// Small sizes under Miri, full sweep natively.
    fn test_nus() -> std::ops::RangeInclusive<u32> {
        if cfg!(miri) {
            1..=9
        } else {
            1..=16
        }
    }

    fn probe(n: usize, seed: u64) -> Vec<f64> {
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

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|x| x.to_bits()).collect()
    }

    /// The `fmmp-fused-pass` stages a probe recorded.
    fn pass_events(rec: &RecordingProbe) -> usize {
        rec.events()
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
            .count()
    }

    #[test]
    fn span_workers_is_serial_below_the_threshold() {
        assert_eq!(span_workers(1 << 14), 0);
        assert_eq!(span_workers(MIN_WORKER_SPAN - 1), 0);
        assert!(span_workers(MIN_WORKER_SPAN) <= 1);
        assert!(span_workers(2 * MIN_WORKER_SPAN) <= 2);
        assert!(span_workers(1 << 24) <= MAX_WORKERS);
    }

    #[test]
    fn every_pass_decomposes_the_whole_vector() {
        for nu in 4..=20u32 {
            let n = 1usize << nu;
            for workers in [1usize, 2, 3, 4, 8] {
                let plan = FusedPlan::new(n, 1);
                let sched = SpanSchedule::new(n, workers, plan.passes(), SPAN_UNIT);
                for layout in &sched.passes[..sched.count] {
                    match layout.kind {
                        LayoutKind::Contig { unit_elems } => {
                            assert_eq!(layout.units * unit_elems, n, "ν={nu} w={workers}");
                        }
                        LayoutKind::FibreSeg { segs } => {
                            let (radix, stride) =
                                layout.pass.fibres().expect("tile pass with fibre layout");
                            assert_eq!(stride % segs, 0);
                            assert_eq!(layout.units * radix * (stride / segs), n);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_worker_schedules_have_stealable_grain() {
        // At production sizes every multi-worker pass should expose at
        // least `workers` units (big radix passes via fibre segmentation).
        for nu in [16u32, 18, 20] {
            let n = 1usize << nu;
            let workers = 4;
            let plan = FusedPlan::new(n, 1);
            let sched = SpanSchedule::new(n, workers, plan.passes(), SPAN_UNIT);
            for layout in &sched.passes[..sched.count] {
                assert!(
                    layout.units >= workers,
                    "ν={nu}: pass {:?} has only {} units",
                    layout.pass,
                    layout.units
                );
            }
        }
    }

    #[test]
    fn par_plan_gives_every_worker_a_tile() {
        for workers in [2usize, 4, 8, 16] {
            for nu in [16u32, 18, 20] {
                let n = 1usize << nu;
                match par_plan(n, workers).passes()[0] {
                    FusedPass::Tile { tile, .. } => {
                        assert!(n / tile >= workers || tile == MIN_PAR_TILE, "ν={nu}");
                    }
                    other => panic!("ν={nu}: first pass {other:?} is not tiled"),
                }
            }
        }
        // One worker keeps the default plan.
        for nu in 1..=22u32 {
            let n = 1usize << nu;
            assert_eq!(par_plan(n, 1).passes(), FusedPlan::new(n, 1).passes());
        }
    }

    #[test]
    fn stolen_schedule_is_bit_identical_to_reference_fused() {
        let p = 0.017;
        for nu in test_nus() {
            let n = 1usize << nu;
            let v = probe(n, 40 + u64::from(nu));
            let mut want = v.clone();
            fmmp_in_place(&mut want, p);
            let mut want_fwht = v.clone();
            crate::fwht::fwht_in_place(&mut want_fwht);
            // A tiny unit target forces real multi-unit stealing even at
            // Miri-sized vectors.
            for workers in [1usize, 2, 3, 4] {
                let plan = par_plan(n, workers);
                let mut got = v.clone();
                let bf = MixButterfly::new(p);
                run_plan(&mut got, &plan, bf, None, workers, 64, &mut NullProbe, "t");
                assert_eq!(bits(&want), bits(&got), "ν={nu} workers={workers}");
                let mut got = v.clone();
                let bf = HadamardButterfly;
                run_plan(&mut got, &plan, bf, None, workers, 64, &mut NullProbe, "t");
                assert_eq!(
                    bits(&want_fwht),
                    bits(&got),
                    "fwht ν={nu} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn step_head_rides_the_first_pass_bit_identically() {
        // The head, run inside the first pass on every worker, probed or
        // not, must equal the head as its own sweep followed by the staged
        // transform — in both the transformed vector and `x` — whether
        // that pass is a tile or an untiled plan's stride-1 radix-8 pass.
        let p = 0.023;
        for nu in test_nus().filter(|&nu| nu >= 3) {
            let n = 1usize << nu;
            // The default plan (untiled below 2^14 elements), and a tile
            // small enough that Miri-sized vectors get a tiled pass with
            // several tiles per unit.
            let mut plans = vec![FusedPlan::new(n, 1)];
            if n >= 32 {
                plans.push(FusedPlan::with_tile(n, 1, (n / 4).min(1 << 10)));
            }
            let y0 = probe(n, 500 + u64::from(nu));
            let x0 = probe(n, 900 + u64::from(nu));
            let d = probe(n, 1300 + u64::from(nu));
            for (scale, diag) in [
                (0.0, None),
                (0.0, Some(&d[..])),
                (0.37, None),
                (0.37, Some(&d[..])),
            ] {
                let (mut want_y, mut want_x) = (y0.clone(), x0.clone());
                crate::step_prologue(&mut want_y, &mut want_x, scale, diag);
                fmmp_in_place(&mut want_y, p);
                for plan in &plans {
                    assert!(plan.passes()[0].head_tile().is_some());
                    for (workers, probed) in [1usize, 2, 3, 4]
                        .into_iter()
                        .flat_map(|w| [(w, false), (w, true)])
                    {
                        let (mut y, mut x) = (y0.clone(), x0.clone());
                        let head = StepHead {
                            x: &mut x,
                            scale,
                            diag,
                        };
                        let mut rec = RecordingProbe::new();
                        let probe: &mut dyn Probe = if probed { &mut rec } else { &mut NullProbe };
                        let bf = MixButterfly::new(p);
                        run_plan(&mut y, plan, bf, Some(head), workers, 64, probe, "t");
                        let case = format!(
                            "ν={nu} first={:?} workers={workers} probed={probed} s={scale} \
                             diag={}",
                            plan.passes()[0],
                            diag.is_some()
                        );
                        assert_eq!(bits(&want_y), bits(&y), "{case}");
                        assert_eq!(bits(&want_x), bits(&x), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn short_plans_cannot_carry_a_head() {
        // Below 8 elements no pass starts with the stride-1 radix-8 group.
        for n in [2usize, 4] {
            let plan = FusedPlan::new(n, 1);
            assert_eq!(plan.passes()[0].head_tile(), None, "n={n}");
            assert_eq!(SpanSchedule::new(n, 2, plan.passes(), 64).head_tile, None);
        }
        assert_eq!(FusedPlan::new(8, 1).passes()[0].head_tile(), Some(8));
    }

    #[test]
    fn probed_executor_matches_plain_with_one_event_per_pass() {
        // At every worker count a traced apply gives the untraced bits,
        // one dispatch — one thread and one span at one worker, the
        // workers and their units above — and one stage per planned pass.
        // Explicit worker counts: the contract is checked even where the
        // hardware would hold the width to one worker.
        let nus: &[u32] = if cfg!(miri) { &[6] } else { &[10, 18] };
        for &nu in nus {
            let n = 1usize << nu;
            let x = probe(n, 19 + u64::from(nu));
            let mut want = x.clone();
            fmmp_in_place(&mut want, 0.02);
            for workers in [1usize, 2, 4] {
                let case = format!("ν={nu} workers={workers}");
                let bf = MixButterfly::new(0.02);
                let label = "fmmp-fused-pass";
                let mut plain = x.clone();
                run_fused(&mut plain, bf, None, workers, &mut NullProbe, label);
                assert_eq!(bits(&want), bits(&plain), "{case}");
                let mut rec = RecordingProbe::new();
                let mut probed = x.clone();
                run_fused(&mut probed, bf, None, workers, &mut rec, label);
                assert_eq!(bits(&plain), bits(&probed), "{case}");

                let plan = par_plan(n, workers);
                assert_eq!(pass_events(&rec), plan.passes().len(), "{case}");
                assert!(pass_events(&rec) < nu as usize, "{case}");
                let dispatch: Vec<_> = rec
                    .events()
                    .iter()
                    .filter_map(|e| match e {
                        SolverEvent::KernelDispatch {
                            isa,
                            threads,
                            spans,
                        } => Some((*isa, *threads, *spans)),
                        _ => None,
                    })
                    .collect();
                let spans = if workers == 1 {
                    1
                } else {
                    SpanSchedule::new(n, workers, plan.passes(), SPAN_UNIT).total_units()
                };
                let isa = crate::simd::active().name();
                assert_eq!(dispatch, [(isa, workers, spans)], "{case}");
            }
        }
    }

    #[test]
    fn threaded_schedule_matches_reference() {
        // Not under Miri: these lengths are too long for it; the tests
        // above run the same schedule at Miri sizes.
        if cfg!(miri) {
            return;
        }
        let p = 0.031;
        for nu in [10u32, 14, 16] {
            let n = 1usize << nu;
            let v = probe(n, 7 + u64::from(nu));
            let mut want = v.clone();
            fmmp_in_place(&mut want, p);
            let plan = FusedPlan::new(n, 1);
            let mut got = v.clone();
            let bf = MixButterfly::new(p);
            run_plan(&mut got, &plan, bf, None, 4, 256, &mut NullProbe, "t");
            assert_eq!(bits(&want), bits(&got), "ν={nu}");
        }
    }

    /// The step reductions spelt out: the chunks of a `chunks`-way
    /// partition reduced one by one with the 8-lane kernels, each sum
    /// taken left to right. Returns the bits of the dot and of the norms
    /// at λ = that dot, and the shifted `y`.
    fn chunked_reference(x: &[f64], y: &[f64], mu: f64, chunks: usize) -> ([u64; 3], Vec<f64>) {
        let n = x.len();
        let mut y = y.to_vec();
        let bounds = |c: usize| n * c / chunks..n * (c + 1) / chunks;
        let mut dot = None;
        for c in 0..chunks {
            let r = bounds(c);
            let d = if mu != 0.0 {
                block_shift_dot(&x[r.clone()], &mut y[r], mu)
            } else {
                block_dot(&x[r.clone()], &y[r])
            };
            dot = Some(dot.map_or(d, |a| a + d));
        }
        let dot = dot.unwrap();
        let mut norms: Option<(f64, f64)> = None;
        for c in 0..chunks {
            let r = bounds(c);
            let (a, b) = block_step_norms(&x[r.clone()], &y[r], dot);
            norms = Some(norms.map_or((a, b), |(p, q)| (p + a, q + b)));
        }
        let (rss, yss) = norms.unwrap();
        ([dot, rss, yss].map(f64::to_bits), y)
    }

    /// Checks `shift_dot` and then `step_norms` at its dot against
    /// [`chunked_reference`], at 1–4 workers.
    fn check_reductions(
        x: &[f64],
        y0: &[f64],
        mu: f64,
        chunks: usize,
        shift_dot: impl Fn(&[f64], &mut [f64], usize) -> f64,
        step_norms: impl Fn(&[f64], &[f64], f64, usize) -> (f64, f64),
        case: &str,
    ) {
        let (want, y_want) = chunked_reference(x, y0, mu, chunks);
        for workers in 1..=4usize {
            let mut y = y0.to_vec();
            let dot = shift_dot(x, &mut y, workers);
            let (rss, yss) = step_norms(x, &y, dot, workers);
            let got = [dot, rss, yss].map(f64::to_bits);
            assert_eq!(got, want, "{case} workers={workers}");
            assert_eq!(bits(&y), bits(&y_want), "{case} workers={workers}");
        }
    }

    #[test]
    fn reduce_partition_is_fixed_by_length() {
        assert_eq!(reduce_chunks(0), 1);
        assert_eq!(reduce_chunks(1 << 18), 1);
        assert_eq!(reduce_chunks(2 * MIN_WORKER_SPAN - 1), 1);
        assert_eq!(reduce_chunks(1 << 19), 32);
        assert_eq!(reduce_chunks(1 << 20), MAX_REDUCE_CHUNKS);
        assert_eq!(reduce_chunks(1 << 24), MAX_REDUCE_CHUNKS);
    }

    #[test]
    fn chunked_reductions_are_bit_identical_at_every_width() {
        // Small lengths and explicit chunk counts, so Miri can run the
        // claim cursors and the raw `y` windows; some chunks are empty or
        // not a multiple of the 8 accumulator lanes.
        let lens: &[usize] = if cfg!(miri) {
            &[0, 5, 67]
        } else {
            &[0, 5, 67, 1000, 4099]
        };
        for &n in lens {
            let x = probe(n, 3 + n as u64);
            let y0 = probe(n, 71 + n as u64);
            for chunks in [1usize, 3, 7, MAX_REDUCE_CHUNKS] {
                for mu in [0.0, -0.6] {
                    check_reductions(
                        &x,
                        &y0,
                        mu,
                        chunks,
                        |x, y, w| shift_dot_over(x, y, mu, chunks, w),
                        |x, y, l, w| step_norms_over(x, y, l, chunks, w),
                        &format!("n={n} chunks={chunks} µ={mu}"),
                    );
                }
            }
        }
    }

    #[test]
    fn span_reductions_are_width_invariant() {
        // Production lengths around the partition's threshold: 2^18 is one
        // chunk, a single kernel call over the whole vector; 2^19 and 2^20
        // are 32 and 64 chunks. Explicit worker counts, so the host's core
        // count does not matter.
        if cfg!(miri) {
            return;
        }
        for nu in [18u32, 19, 20] {
            let n = 1usize << nu;
            let x = probe(n, 900 + u64::from(nu));
            let y0 = probe(n, 1900 + u64::from(nu));
            for mu in [0.0, 0.37] {
                check_reductions(
                    &x,
                    &y0,
                    mu,
                    reduce_chunks(n),
                    |x, y, w| span_shift_dot(x, y, mu, w),
                    span_step_norms,
                    &format!("ν={nu} µ={mu}"),
                );
            }
        }
    }

    #[test]
    fn with_threads_nests_and_restores_the_outer_width() {
        let outer = threads();
        assert!(outer >= 1);
        with_threads(3, || {
            assert_eq!(threads(), 3);
            with_threads(1, || assert_eq!(threads(), 1));
            assert_eq!(threads(), 3);
            // A width of 0 means one thread, not the process default.
            with_threads(0, || assert_eq!(threads(), 1));
        });
        assert_eq!(threads(), outer);
        let panicked = std::panic::catch_unwind(|| with_threads(5, || panic!("inside")));
        assert!(panicked.is_err());
        assert_eq!(threads(), outer);
        with_threads(2, || {
            let _ = std::panic::catch_unwind(|| with_threads(7, || panic!("nested")));
            assert_eq!(threads(), 2);
        });
    }

    #[test]
    fn on_workers_helpers_see_the_callers_width() {
        let seen: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        with_threads(6, || {
            on_workers(3, |w| seen[w].store(threads(), Ordering::Relaxed));
        });
        for (w, width) in seen.iter().enumerate() {
            assert_eq!(width.load(Ordering::Relaxed), 6, "worker {w}");
        }
    }

    #[test]
    fn worker_ranges_partition_units() {
        for units in [0usize, 1, 3, 7, 16, 33] {
            for workers in 1..=8usize {
                let mut covered = 0;
                for w in 0..workers {
                    let (start, len) = worker_range(units, workers, w);
                    assert_eq!(start, covered);
                    covered += len;
                }
                assert_eq!(covered, units);
            }
        }
    }
}
