//! Fused multi-stage butterfly kernels and the pass plan they run in.
//!
//! The reference transforms ([`crate::fmmp::fmmp_in_place`],
//! [`crate::fwht::fwht_in_place`]) sweep the whole vector once per stage:
//! `log₂ N` full passes of `N` doubles each. On anything larger than the
//! last-level cache the product is memory-bandwidth bound (paper Section 4),
//! so the stage loop — not the arithmetic — is the cost. This module cuts
//! the number of full-vector sweeps two ways:
//!
//! 1. **Radix-4 / radix-8 fusion.** Two (three) consecutive stages at
//!    strides `i` and `2i` (`and 4i`) touch exactly the same blocks of
//!    `4i` (`8i`) elements, so they can be executed in one pass: load four
//!    (eight) strided fibres, apply both (all three) butterfly layers in
//!    registers, store once. The arithmetic per element is *identical* to
//!    the reference — same expressions, same order — so the result is
//!    bit-for-bit equal and `flops_estimate` is unchanged; only the memory
//!    traffic drops.
//! 2. **Cache tiling.** Every stage with stride `< T/2` is local to
//!    aligned tiles of `T` elements (blocks of `2i ≤ T` never straddle a
//!    tile boundary when `T` is a power of two). All those stages run
//!    back-to-back on each tile while it is cache-resident — one sweep for
//!    the first `log₂ T` stages — and only the remaining
//!    `log₂ N − log₂ T` large-stride stages need (radix-fused) global
//!    passes.
//!
//! Together a ν = 20 product needs 3–4 sweeps instead of 20.
//!
//! Both the mutation butterfly `(q·a + p·b, p·a + q·b)` and the Hadamard
//! butterfly `(a + b, a − b)` share the stage structure, so the kernels are
//! generic over a [`Butterfly`]. [`FusedPlan`] lists a product's passes and
//! [`run_pass`] runs one of them; the one executor of a whole plan, at any
//! worker count, is [`crate::schedule::run_fused`]. Several vectors (a
//! sweep's columns) are transformed one after another, each by its own
//! plan.
//!
//! All inner butterflies are **register-blocked**: the fibre loops walk
//! `chunks_exact` lanes of fixed width (8 for radix-2, 4 for radix-4/8),
//! which LLVM fully unrolls and autovectorizes without any `unsafe`.
//! Butterflies that expose their 2×2 coefficient matrix via
//! [`Butterfly::coeffs`] additionally dispatch to the explicit SIMD fibre
//! kernels in [`crate::simd`] (AVX2/AVX-512, resolved once at runtime);
//! the scalar `chunks_exact` path remains the portable fallback and the
//! reference. Neither the lane grouping nor the SIMD kernels change the
//! per-element expressions or their evaluation order, so bit-identity
//! with the staged reference holds throughout.
//!
//! The **bottom radix-8 group** (strides 1, 2 and 4) is the exception to
//! the fibre loops: its fibres are one element long, so a radix-8 pass at
//! stride 1 goes to `radix8_blocks` whole — one dispatched call per tile
//! or span, which keeps every 8-element block in registers (the SIMD
//! in-register family, or a straight-line scalar block loop) and
//! evaluates the same expressions in the same order. Every plan starts
//! its ladder there: the tile pass, untiled plans, span-schedule units,
//! sweep lanes and the FWHT.
//!
//! A power step's elementwise head (`x ← s·y`, then `y ← d⊙x`) rides the
//! same block kernel (`head_ladder`): each block is scaled, weighted and
//! given its bottom three stages between one load and one store, so the
//! head adds no traversal to the first pass of any plan of 8 or more
//! elements.

use crate::schedule::run_fused;
use crate::NullProbe;

/// Tile size (in `f64` elements) for the cache-blocked phase: 2¹³ doubles
/// = 64 KiB, small enough to sit in L1/L2 on current hardware while each
/// tile absorbs 13 butterfly stages in one sweep.
pub const FUSED_TILE: usize = 1 << 13;

/// A 2-point butterfly kernel shared by the mutation and Hadamard
/// transforms.
pub trait Butterfly: Copy + Send + Sync {
    /// Apply the butterfly to one pair.
    fn bf(self, a: f64, b: f64) -> (f64, f64);

    /// The butterfly as a 2×2 coefficient matrix `[c₀₀, c₀₁, c₁₀, c₁₁]`
    /// such that `bf(a, b)` equals **bit for bit** the expression pair
    /// `(c₀₀·a + c₀₁·b, c₁₀·a + c₁₁·b)` — separate multiplies and adds in
    /// that order, no FMA. Butterflies that return `Some` opt in to the
    /// runtime-dispatched SIMD fibre kernels in [`crate::simd`]; the
    /// default `None` keeps the portable register-blocked scalar path.
    #[inline]
    fn coeffs(self) -> Option<[f64; 4]> {
        None
    }
}

/// The mutation butterfly `(a, b) ← (q·a + p·b, p·a + q·b)` with
/// `q = 1 − p` — identical arithmetic to the reference
/// [`crate::fmmp::fmmp_in_place`] stage kernel.
#[derive(Debug, Clone, Copy)]
pub struct MixButterfly {
    p: f64,
    q: f64,
}

impl MixButterfly {
    /// Butterfly for error rate `p`.
    pub fn new(p: f64) -> Self {
        MixButterfly { p, q: 1.0 - p }
    }
}

impl Butterfly for MixButterfly {
    #[inline(always)]
    fn bf(self, a: f64, b: f64) -> (f64, f64) {
        (self.q * a + self.p * b, self.p * a + self.q * b)
    }

    #[inline(always)]
    fn coeffs(self) -> Option<[f64; 4]> {
        Some([self.q, self.p, self.p, self.q])
    }
}

/// The (unnormalised) Hadamard butterfly `(a, b) ← (a + b, a − b)` —
/// identical arithmetic to [`crate::fwht::fwht_in_place`].
#[derive(Debug, Clone, Copy)]
pub struct HadamardButterfly;

impl Butterfly for HadamardButterfly {
    #[inline(always)]
    fn bf(self, a: f64, b: f64) -> (f64, f64) {
        (a + b, a - b)
    }

    #[inline(always)]
    fn coeffs(self) -> Option<[f64; 4]> {
        // 1·a + 1·b and 1·a + (−1)·b are bit-identical to a + b and a − b:
        // multiplying by ±1.0 only (possibly) flips the sign bit, and IEEE
        // subtraction is addition of the negation.
        Some([1.0, 1.0, 1.0, -1.0])
    }
}

/// Lane width for the radix-2 fibre loop: 8 doubles = one 64-byte cache
/// line, a trip count LLVM fully unrolls into vector registers.
const LANES_R2: usize = 8;

/// Lane width for the radix-4/8 fibre loops: 4 doubles per fibre keeps the
/// live values (16/32 doubles across fibres) within the register file.
const LANES_R48: usize = 4;

/// Radix-2 butterflies across two equal-length fibres. Coefficient-form
/// butterflies ([`Butterfly::coeffs`]) dispatch to the runtime-selected
/// SIMD kernel in [`crate::simd`]; otherwise the bulk runs register-blocked
/// in `chunks_exact` lanes of `LANES_R2` elements (a fixed trip count
/// LLVM unrolls and autovectorizes), the tail falls back to scalars. Per
/// element the expression is exactly the reference kernel's on every path.
#[inline]
pub fn radix2_lanes<B: Butterfly>(f0: &mut [f64], f1: &mut [f64], bf: B) {
    debug_assert_eq!(f0.len(), f1.len());
    if let Some(c) = bf.coeffs() {
        if crate::simd::radix2_simd(f0, f1, c) {
            return;
        }
    }
    let mut c0 = f0.chunks_exact_mut(LANES_R2);
    let mut c1 = f1.chunks_exact_mut(LANES_R2);
    for (l0, l1) in c0.by_ref().zip(c1.by_ref()) {
        for (x, y) in l0.iter_mut().zip(l1.iter_mut()) {
            let (u, w) = bf.bf(*x, *y);
            *x = u;
            *y = w;
        }
    }
    for (x, y) in c0
        .into_remainder()
        .iter_mut()
        .zip(c1.into_remainder().iter_mut())
    {
        let (u, w) = bf.bf(*x, *y);
        *x = u;
        *y = w;
    }
}

/// Two fused butterfly layers (strides `i`, `2i`) across four equal-length
/// fibres: SIMD-dispatched for coefficient-form butterflies, otherwise
/// register-blocked in `LANES_R48`-wide lanes. Bit-for-bit identical to
/// two [`radix2_lanes`] layers.
#[inline]
pub fn radix4_lanes<B: Butterfly>(
    f0: &mut [f64],
    f1: &mut [f64],
    f2: &mut [f64],
    f3: &mut [f64],
    bf: B,
) {
    if let Some(c) = bf.coeffs() {
        if crate::simd::radix4_simd([&mut *f0, &mut *f1, &mut *f2, &mut *f3], c) {
            return;
        }
    }
    #[inline(always)]
    fn kernel<B: Butterfly>(x0: &mut f64, x1: &mut f64, x2: &mut f64, x3: &mut f64, bf: B) {
        // Stage i: pairs (x0,x1), (x2,x3).
        let (a0, a1) = bf.bf(*x0, *x1);
        let (a2, a3) = bf.bf(*x2, *x3);
        // Stage 2i: pairs (a0,a2), (a1,a3).
        let (b0, b2) = bf.bf(a0, a2);
        let (b1, b3) = bf.bf(a1, a3);
        *x0 = b0;
        *x1 = b1;
        *x2 = b2;
        *x3 = b3;
    }
    debug_assert!(f0.len() == f1.len() && f1.len() == f2.len() && f2.len() == f3.len());
    let mut c0 = f0.chunks_exact_mut(LANES_R48);
    let mut c1 = f1.chunks_exact_mut(LANES_R48);
    let mut c2 = f2.chunks_exact_mut(LANES_R48);
    let mut c3 = f3.chunks_exact_mut(LANES_R48);
    for (((l0, l1), l2), l3) in c0
        .by_ref()
        .zip(c1.by_ref())
        .zip(c2.by_ref())
        .zip(c3.by_ref())
    {
        for (((x0, x1), x2), x3) in l0
            .iter_mut()
            .zip(l1.iter_mut())
            .zip(l2.iter_mut())
            .zip(l3.iter_mut())
        {
            kernel(x0, x1, x2, x3, bf);
        }
    }
    for (((x0, x1), x2), x3) in c0
        .into_remainder()
        .iter_mut()
        .zip(c1.into_remainder().iter_mut())
        .zip(c2.into_remainder().iter_mut())
        .zip(c3.into_remainder().iter_mut())
    {
        kernel(x0, x1, x2, x3, bf);
    }
}

/// Three butterfly layers over eight values `x[0..8]` — pairs at distance
/// 1, then 2, then 4 — in the reference order. The scalar body of both
/// [`radix8_lanes`] (one value per fibre) and the stride-1 block loop
/// (eight consecutive elements).
#[inline(always)]
fn radix8_kernel<B: Butterfly>(x: [f64; 8], bf: B) -> [f64; 8] {
    // Stage i.
    let (a0, a1) = bf.bf(x[0], x[1]);
    let (a2, a3) = bf.bf(x[2], x[3]);
    let (a4, a5) = bf.bf(x[4], x[5]);
    let (a6, a7) = bf.bf(x[6], x[7]);
    // Stage 2i.
    let (b0, b2) = bf.bf(a0, a2);
    let (b1, b3) = bf.bf(a1, a3);
    let (b4, b6) = bf.bf(a4, a6);
    let (b5, b7) = bf.bf(a5, a7);
    // Stage 4i.
    let (c0, c4) = bf.bf(b0, b4);
    let (c1, c5) = bf.bf(b1, b5);
    let (c2, c6) = bf.bf(b2, b6);
    let (c3, c7) = bf.bf(b3, b7);
    [c0, c1, c2, c3, c4, c5, c6, c7]
}

/// [`radix8_kernel`] on one element of each of eight fibres.
#[inline(always)]
fn radix8_refs<B: Butterfly>(x: [&mut f64; 8], bf: B) {
    let y = radix8_kernel(x.each_ref().map(|r| **r), bf);
    for (r, y) in x.into_iter().zip(y) {
        *r = y;
    }
}

/// Three fused butterfly layers (strides `i`, `2i`, `4i`) across eight
/// equal-length fibres: SIMD-dispatched for coefficient-form butterflies,
/// otherwise register-blocked in `LANES_R48`-wide lanes. Bit-for-bit
/// identical to three [`radix2_lanes`] layers.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn radix8_lanes<B: Butterfly>(
    f0: &mut [f64],
    f1: &mut [f64],
    f2: &mut [f64],
    f3: &mut [f64],
    f4: &mut [f64],
    f5: &mut [f64],
    f6: &mut [f64],
    f7: &mut [f64],
    bf: B,
) {
    if let Some(c) = bf.coeffs() {
        if crate::simd::radix8_simd(
            [
                &mut *f0, &mut *f1, &mut *f2, &mut *f3, &mut *f4, &mut *f5, &mut *f6, &mut *f7,
            ],
            c,
        ) {
            return;
        }
    }
    debug_assert!(f0.len() == f7.len() && f0.len() == f3.len());
    let mut c0 = f0.chunks_exact_mut(LANES_R48);
    let mut c1 = f1.chunks_exact_mut(LANES_R48);
    let mut c2 = f2.chunks_exact_mut(LANES_R48);
    let mut c3 = f3.chunks_exact_mut(LANES_R48);
    let mut c4 = f4.chunks_exact_mut(LANES_R48);
    let mut c5 = f5.chunks_exact_mut(LANES_R48);
    let mut c6 = f6.chunks_exact_mut(LANES_R48);
    let mut c7 = f7.chunks_exact_mut(LANES_R48);
    for (((((((l0, l1), l2), l3), l4), l5), l6), l7) in c0
        .by_ref()
        .zip(c1.by_ref())
        .zip(c2.by_ref())
        .zip(c3.by_ref())
        .zip(c4.by_ref())
        .zip(c5.by_ref())
        .zip(c6.by_ref())
        .zip(c7.by_ref())
    {
        for (((((((x0, x1), x2), x3), x4), x5), x6), x7) in l0
            .iter_mut()
            .zip(l1.iter_mut())
            .zip(l2.iter_mut())
            .zip(l3.iter_mut())
            .zip(l4.iter_mut())
            .zip(l5.iter_mut())
            .zip(l6.iter_mut())
            .zip(l7.iter_mut())
        {
            radix8_refs([x0, x1, x2, x3, x4, x5, x6, x7], bf);
        }
    }
    for (((((((x0, x1), x2), x3), x4), x5), x6), x7) in c0
        .into_remainder()
        .iter_mut()
        .zip(c1.into_remainder().iter_mut())
        .zip(c2.into_remainder().iter_mut())
        .zip(c3.into_remainder().iter_mut())
        .zip(c4.into_remainder().iter_mut())
        .zip(c5.into_remainder().iter_mut())
        .zip(c6.into_remainder().iter_mut())
        .zip(c7.into_remainder().iter_mut())
    {
        radix8_refs([x0, x1, x2, x3, x4, x5, x6, x7], bf);
    }
}

/// One stage at stride `i`: the reference kernel (register-blocked),
/// generic over the butterfly.
#[inline]
pub(crate) fn radix2_stage<B: Butterfly>(v: &mut [f64], i: usize, bf: B) {
    for block in v.chunks_exact_mut(2 * i) {
        let (a, b) = block.split_at_mut(i);
        radix2_lanes(a, b, bf);
    }
}

/// Two fused stages (strides `i`, `2i`) in one pass over blocks of `4i`.
///
/// Per element the arithmetic is exactly "stage `i` then stage `2i`", so
/// the result is bit-for-bit identical to running [`radix2_stage`] twice.
#[inline]
fn radix4_stage<B: Butterfly>(v: &mut [f64], i: usize, bf: B) {
    for block in v.chunks_exact_mut(4 * i) {
        let (f0, rest) = block.split_at_mut(i);
        let (f1, rest) = rest.split_at_mut(i);
        let (f2, f3) = rest.split_at_mut(i);
        radix4_lanes(f0, f1, f2, f3, bf);
    }
}

/// Three fused stages (strides `i`, `2i`, `4i`) in one pass over blocks of
/// `8i`. Bit-for-bit identical to three [`radix2_stage`] calls.
///
/// At stride 1 the three stages never leave an 8-element block, so the
/// whole span goes to [`radix8_blocks`] in one call instead of one
/// eight-fibre call per block.
#[inline]
pub(crate) fn radix8_stage<B: Butterfly>(v: &mut [f64], i: usize, bf: B) {
    if i == 1 {
        return radix8_blocks(v, bf);
    }
    for block in v.chunks_exact_mut(8 * i) {
        let (f0, rest) = block.split_at_mut(i);
        let (f1, rest) = rest.split_at_mut(i);
        let (f2, rest) = rest.split_at_mut(i);
        let (f3, rest) = rest.split_at_mut(i);
        let (f4, rest) = rest.split_at_mut(i);
        let (f5, rest) = rest.split_at_mut(i);
        let (f6, f7) = rest.split_at_mut(i);
        radix8_lanes(f0, f1, f2, f3, f4, f5, f6, f7, bf);
    }
}

/// Strides 1, 2 and 4 on every 8-element block of `v` (a trailing partial
/// block is left alone, as [`radix8_stage`] leaves it): the bottom radix-8
/// group of a ladder, done in registers. Coefficient-form butterflies
/// dispatch the whole span to one [`crate::simd`] block kernel; otherwise
/// a straight-line block loop runs [`radix8_kernel`]. Both evaluate the
/// reference expressions in the reference order.
fn radix8_blocks<B: Butterfly>(v: &mut [f64], bf: B) {
    if let Some(c) = bf.coeffs() {
        if crate::simd::radix8_blocks_simd(v, c) {
            return;
        }
    }
    for block in v.chunks_exact_mut(8) {
        let x: &mut [f64; 8] = block.try_into().expect("chunks of eight");
        *x = radix8_kernel(*x, bf);
    }
}

/// [`radix8_blocks`] with a power step's head folded in: per 8-element
/// block, `x ← scale·v` when `scale ≠ 0`, then `v ← diag ⊙ x` (`v ← x`
/// without `diag`), then strides 1, 2 and 4 — one traversal of the
/// window instead of a [`crate::step_prologue`] sweep before it. Per
/// element the head keeps the prologue's expressions and their order
/// (`yᵢ·s`, then `xᵢ·dᵢ`, separate multiplies), so the result is
/// bit-identical to the prologue followed by the group. Coefficient-form
/// butterflies dispatch the whole window to one [`crate::simd`] call;
/// otherwise a straight-line block loop runs [`radix8_kernel`].
///
/// # Panics
///
/// Panics unless `v` holds whole blocks and `x` and `diag` (if any) are
/// as long as `v`.
pub(crate) fn radix8_blocks_head<B: Butterfly>(
    v: &mut [f64],
    x: &mut [f64],
    scale: f64,
    diag: Option<&[f64]>,
    bf: B,
) {
    assert!(
        v.len().is_multiple_of(8) && x.len() == v.len() && diag.is_none_or(|d| d.len() == v.len()),
        "step head: whole blocks, with x and diag covering them"
    );
    if let Some(c) = bf.coeffs() {
        if crate::simd::radix8_blocks_head_simd(v, x, scale, diag, c) {
            return;
        }
    }
    let scaled = scale != 0.0;
    for (k, (vb, xb)) in v.chunks_exact_mut(8).zip(x.chunks_exact_mut(8)).enumerate() {
        let vb: &mut [f64; 8] = vb.try_into().expect("chunks of eight");
        let xb: &mut [f64; 8] = xb.try_into().expect("chunks of eight");
        if scaled {
            *xb = vb.map(|y| y * scale);
        }
        let mut b = *xb;
        if let Some(d) = diag {
            for (bi, &di) in b.iter_mut().zip(&d[8 * k..8 * k + 8]) {
                *bi *= di;
            }
        }
        *vb = radix8_kernel(b, bf);
    }
}

/// The one head-then-ladder path: on every `tile`-element window of `v`,
/// the power step's head fused into the stride-1 radix-8 group
/// ([`radix8_blocks_head`], on the matching windows of `x` and `diag`),
/// then the rest of the ladder up to stride `tile/2` while the window is
/// cache-resident. This is the whole first pass of a plan that
/// can carry a head (`tile` from [`FusedPass::head_tile`]), or one
/// span-schedule unit of it. A `tile` of 8 is the bare radix-8 group,
/// which never leaves its block, so `v` then goes to the kernel in one
/// call.
pub(crate) fn head_ladder<B: Butterfly>(
    v: &mut [f64],
    x: &mut [f64],
    scale: f64,
    diag: Option<&[f64]>,
    tile: usize,
    bf: B,
) {
    if tile == 8 {
        return radix8_blocks_head(v, x, scale, diag, bf);
    }
    let windows = v.chunks_exact_mut(tile).zip(x.chunks_exact_mut(tile));
    for (t, (w, xw)) in windows.enumerate() {
        let d = diag.map(|d| &d[t * tile..(t + 1) * tile]);
        radix8_blocks_head(w, xw, scale, d, bf);
        radix_ladder(w, 8, tile / 2, bf);
    }
}

/// One memory pass of a fused plan ([`FusedPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedPass {
    /// All stages with stride in `base..tile/2` executed tile-locally: one
    /// sweep of the vector in aligned chunks of `tile` elements.
    Tile {
        /// Tile size in elements.
        tile: usize,
        /// Smallest stage stride (1 for a whole product).
        base: usize,
    },
    /// Three stages (`stride`, `2·stride`, `4·stride`) fused in one pass.
    Radix8 {
        /// Smallest of the three strides.
        stride: usize,
    },
    /// Two stages (`stride`, `2·stride`) fused in one pass.
    Radix4 {
        /// Smaller of the two strides.
        stride: usize,
    },
    /// A single remaining stage.
    Radix2 {
        /// Stage stride.
        stride: usize,
    },
}

impl FusedPass {
    /// The window a power step's head rides in when this pass opens a
    /// single-vector plan: the tile of a tiled pass, or the 8-element
    /// block of a stride-1 radix-8 pass (an untiled plan of at least 8
    /// elements). `None` where the pass does not start with the stride-1
    /// radix-8 group, so no head can ride it.
    pub fn head_tile(self) -> Option<usize> {
        match self {
            FusedPass::Tile { tile, base: 1 } if tile >= 8 => Some(tile),
            FusedPass::Radix8 { stride: 1 } => Some(8),
            _ => None,
        }
    }

    /// How many butterfly stages this pass absorbs.
    pub fn stages(&self) -> u32 {
        match self {
            FusedPass::Tile { tile, base } => (tile / (2 * base)).trailing_zeros() + 1,
            FusedPass::Radix8 { .. } => 3,
            FusedPass::Radix4 { .. } => 2,
            FusedPass::Radix2 { .. } => 1,
        }
    }

    /// The aligned chunk of elements this pass never splits: its tile, or
    /// the `radix · stride` block of a radix pass.
    pub(crate) fn block(self) -> usize {
        match self {
            FusedPass::Tile { tile, .. } => tile,
            FusedPass::Radix8 { stride } => 8 * stride,
            FusedPass::Radix4 { stride } => 4 * stride,
            FusedPass::Radix2 { stride } => 2 * stride,
        }
    }

    /// A radix pass's fibres: `(radix, stride)`, the pass's block being
    /// `radix` fibres of `stride` elements. `None` for a tiled pass.
    pub(crate) fn fibres(self) -> Option<(usize, usize)> {
        match self {
            FusedPass::Tile { .. } => None,
            FusedPass::Radix8 { stride } => Some((8, stride)),
            FusedPass::Radix4 { stride } => Some((4, stride)),
            FusedPass::Radix2 { stride } => Some((2, stride)),
        }
    }
}

/// Ladder of radix-fused stages from stride `i` up to `top` inclusive,
/// without tiling. `top / i` must be a power of two (or `top < i`, a
/// no-op).
fn radix_ladder<B: Butterfly>(v: &mut [f64], mut i: usize, top: usize, bf: B) {
    while i <= top {
        if 4 * i <= top {
            radix8_stage(v, i, bf);
            i *= 8;
        } else if 2 * i <= top {
            radix4_stage(v, i, bf);
            i *= 4;
        } else {
            radix2_stage(v, i, bf);
            i *= 2;
        }
    }
}

/// Upper bound on passes any plan can need: one tiled pass plus a radix
/// ladder over at most 63 remaining stages grouped ≥ 1 stage per pass
/// never exceeds this on 64-bit lengths. It also sizes the span
/// schedule's per-pass claim state.
pub(crate) const MAX_FUSED_PASSES: usize = 24;

/// A complete pass schedule held inline — `Copy`, fixed-size, and built
/// without touching the heap, so planning can sit inside the per-apply
/// hot path of a solver iteration without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FusedPlan {
    passes: [FusedPass; MAX_FUSED_PASSES],
    count: usize,
}

impl FusedPlan {
    /// Plan the memory passes covering stage strides `base, 2·base, …,
    /// len/2` with the default [`FUSED_TILE`] cache tile.
    ///
    /// Equivalent stage-for-stage to the reference ascending loop; the
    /// plan only groups stages into passes. `len / (2·base)` must be a
    /// power of two. Tiling is used when the vector exceeds the tile and
    /// the tile aligns with both the block size `2·base` and the vector
    /// length (always true for `base = 1`; otherwise the plan may fall
    /// back to untiled radix-fused passes).
    pub fn new(len: usize, base: usize) -> Self {
        Self::with_tile(len, base, FUSED_TILE)
    }

    /// As [`FusedPlan::new`] with an explicit tile size (a span schedule
    /// shrinks the tile so one tiled pass yields at least one tile per
    /// worker). Any power-of-two tile produces the same
    /// bit-identical result — tiling only regroups stages into passes,
    /// never changes the per-element arithmetic.
    pub fn with_tile(len: usize, base: usize, tile: usize) -> Self {
        assert!(base >= 1 && len >= 2 * base && len.is_multiple_of(2 * base));
        assert!(
            (len / (2 * base)).is_power_of_two(),
            "len / (2·base) must be a power of two"
        );
        let top = len / 2;
        let mut passes = [FusedPass::Radix2 { stride: 0 }; MAX_FUSED_PASSES];
        let mut count = 0;
        let mut i = base;
        if len > tile
            && 2 * base <= tile
            && tile.is_multiple_of(2 * base)
            && (tile / (2 * base)).is_power_of_two()
            && len.is_multiple_of(tile)
        {
            passes[count] = FusedPass::Tile { tile, base };
            count += 1;
            i = tile;
        }
        while i <= top {
            if 4 * i <= top {
                passes[count] = FusedPass::Radix8 { stride: i };
                i *= 8;
            } else if 2 * i <= top {
                passes[count] = FusedPass::Radix4 { stride: i };
                i *= 4;
            } else {
                passes[count] = FusedPass::Radix2 { stride: i };
                i *= 2;
            }
            count += 1;
        }
        FusedPlan { passes, count }
    }

    /// The planned passes, in execution order.
    pub fn passes(&self) -> &[FusedPass] {
        &self.passes[..self.count]
    }
}

/// Execute one planned pass.
pub fn run_pass<B: Butterfly>(v: &mut [f64], pass: FusedPass, bf: B) {
    match pass {
        FusedPass::Tile { tile, base } => {
            for chunk in v.chunks_exact_mut(tile) {
                radix_ladder(chunk, base, tile / 2, bf);
            }
        }
        FusedPass::Radix8 { stride } => radix8_stage(v, stride, bf),
        FusedPass::Radix4 { stride } => radix4_stage(v, stride, bf),
        FusedPass::Radix2 { stride } => radix2_stage(v, stride, bf),
    }
}

/// The panic message for a head handed to a plan that cannot carry it.
pub(crate) const NO_HEAD: &str =
    "a step head needs a first pass that starts at the stride-1 radix-8 group";

/// A power step's elementwise head ([`crate::step_prologue`]) for one
/// lane, riding the first pass of a fused plan: `head_ladder` runs it
/// in the stride-1 radix-8 block kernel on each window's slice of `x` and
/// `diag`, while the window is in registers, before the rest of the
/// window's ladder.
pub struct StepHead<'a> {
    /// The lane's iterate, written as `x ← scale·v` when `scale ≠ 0`.
    pub x: &'a mut [f64],
    /// The deferred normalisation; zero leaves `x` untouched.
    pub scale: f64,
    /// The diagonal of `v ← diag ⊙ x` (`v ← x` without one).
    pub diag: Option<&'a [f64]>,
}

/// Fused-kernel `v ← Q(ν)·v`: same arithmetic as
/// [`crate::fmmp::fmmp_in_place`] in `≈ log₂N/3` memory sweeps instead of
/// `log₂N`, on the calling thread ([`run_fused`] at one worker).
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fmmp_in_place_fused(v: &mut [f64], p: f64) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    let bf = MixButterfly::new(p);
    run_fused(v, bf, None, 1, &mut NullProbe, "fmmp-fused-pass");
}

/// Fused-kernel unnormalised FWHT: same arithmetic as
/// [`crate::fwht::fwht_in_place`] in fewer memory sweeps, on the calling
/// thread ([`run_fused`] at one worker).
///
/// # Panics
///
/// Panics if `v.len()` is not a power of two ≥ 2.
pub fn fwht_in_place_fused(v: &mut [f64]) {
    let n = v.len();
    assert!(n.is_power_of_two() && n >= 2, "length must be 2^ν, ν ≥ 1");
    run_fused(
        v,
        HadamardButterfly,
        None,
        1,
        &mut NullProbe,
        "fwht-fused-pass",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmmp::fmmp_in_place;
    use crate::fwht::fwht_in_place;
    use crate::test_util::{max_diff, random_vector};

    #[test]
    fn fused_fmmp_is_bit_identical_to_reference() {
        // Fusion regroups stages into passes but performs the exact same
        // scalar expressions per element, so equality is exact, not just
        // within tolerance.
        for nu in 1..=14u32 {
            for &p in &[0.01, 0.25, 0.5] {
                let x = random_vector(1 << nu, 100 + nu as u64);
                let mut want = x.clone();
                fmmp_in_place(&mut want, p);
                let mut got = x;
                fmmp_in_place_fused(&mut got, p);
                assert_eq!(want, got, "ν={nu} p={p}");
            }
        }
    }

    #[test]
    fn fused_fwht_is_bit_identical_to_reference() {
        for nu in 1..=14u32 {
            let x = random_vector(1 << nu, 300 + nu as u64);
            let mut want = x.clone();
            fwht_in_place(&mut want);
            let mut got = x;
            fwht_in_place_fused(&mut got);
            assert_eq!(want, got, "ν={nu}");
        }
    }

    #[test]
    fn fused_crosses_the_tile_boundary_correctly() {
        // ν = 15 exercises tile-local stages (strides 1..2¹²) plus global
        // fused passes (strides 2¹³, 2¹⁴).
        let nu = 15u32;
        let x = random_vector(1 << nu, 7);
        let mut want = x.clone();
        fmmp_in_place(&mut want, 0.013);
        let mut got = x;
        fmmp_in_place_fused(&mut got, 0.013);
        assert_eq!(want, got);
    }

    #[test]
    fn plan_covers_every_stage_exactly_once() {
        for nu in 1..=22u32 {
            let n = 1usize << nu;
            let total: u32 = FusedPlan::new(n, 1)
                .passes()
                .iter()
                .map(|p| p.stages())
                .sum();
            assert_eq!(total, nu, "ν={nu}: plan must absorb all ν stages");
        }
    }

    #[test]
    fn plan_cuts_sweeps_to_a_third() {
        // ν = 20: one tiled sweep (13 stages) + ceil(7/3) global passes.
        let plan = FusedPlan::new(1 << 20, 1);
        let passes = plan.passes();
        assert!(
            passes.len() <= 4,
            "ν=20 should need ≤ 4 sweeps, planned {passes:?}"
        );
        assert!(matches!(passes[0], FusedPass::Tile { .. }));
    }

    #[test]
    fn plan_skips_tiling_when_base_does_not_divide_the_tile() {
        // Base stride 3: tile alignment impossible, fall back to untiled
        // radix passes over the whole vector.
        let plan = FusedPlan::new(3 << 14, 3);
        let passes = plan.passes();
        assert!(passes.iter().all(|p| !matches!(p, FusedPass::Tile { .. })));
        let total: u32 = passes.iter().map(|p| p.stages()).sum();
        assert_eq!(total, 14);
    }

    #[test]
    fn custom_tile_plans_stay_bit_identical() {
        // Tiling only regroups stages into passes; any power-of-two tile
        // must reproduce the reference bit-for-bit.
        let x = random_vector(1 << 15, 42);
        let mut want = x.clone();
        fmmp_in_place(&mut want, 0.03);
        for tile_log in [10u32, 11, 12, 14] {
            let mut got = x.clone();
            let plan = FusedPlan::with_tile(got.len(), 1, 1 << tile_log);
            let total: u32 = plan.passes().iter().map(|p| p.stages()).sum();
            assert_eq!(total, 15, "tile=2^{tile_log}: plan must absorb all stages");
            for &pass in plan.passes() {
                run_pass(&mut got, pass, MixButterfly::new(0.03));
            }
            assert_eq!(want, got, "tile=2^{tile_log}");
        }
    }

    #[test]
    fn max_diff_tolerance_contract() {
        // The public contract promises ≤ 1e-12 agreement; bit-identity is
        // stronger but keep the tolerance-based check as the stated bound.
        let x = random_vector(1 << 12, 55);
        let mut a = x.clone();
        fmmp_in_place(&mut a, 0.31);
        let mut b = x;
        fmmp_in_place_fused(&mut b, 0.31);
        assert!(max_diff(&a, &b) <= 1e-12);
    }
}
