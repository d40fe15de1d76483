//! Cache-blocked matmul micro-kernels with runtime tiling schemes, plus the
//! im2col convolution lowering.
//!
//! All kernels operate on raw row-major `f32` slices so the graph forward
//! pass, the backward pass and benches share one code path. Three layouts
//! cover every product the autodiff engine needs without materialising a
//! transposed tensor:
//!
//! * [`matmul_nn_acc`] — `out += A·B` with `A [m,k]`, `B [k,n]`
//! * [`matmul_nt_acc`] — `out += A·Bᵀ` with `B` stored `[n,k]`
//! * [`matmul_tn_acc`] — `out += Aᵀ·B` with `A` stored `[k,m]`
//!
//! ## Tiling schemes
//!
//! Tile shapes are no longer compile-time constants: every kernel is
//! parameterised by a [`TilingScheme`] (register-tile `mr×nr`, cache blocks
//! `mc/kc/nc`) resolved at runtime. Resolution order, highest priority
//! first: a forced scheme ([`force_scheme`] or the `CIT_TILING` env var),
//! an installed provider ([`install_scheme_provider`] — the `cit-compute`
//! autotuner), then per-layout static defaults. The `nn` and `nt` drivers
//! pack the needed `B` (or `Bᵀ`) panel into a contiguous, tile-ordered
//! thread-local scratch buffer so the micro-kernel inner loop is a
//! contiguous unrolled axpy regardless of the source layout — this is what
//! fixes the former ~7× `nt` slowdown from its strided `bt[(j+c)·k+p]`
//! inner load. A small row-major `nn` `B` whose width is whole register
//! tiles (the TCN convs and the attention mix at paper scale) already has
//! that shape row by row, so the `nn` kernel reads it in place instead.
//!
//! ## Determinism contract
//!
//! Every kernel accumulates each output element strictly in ascending
//! reduction-index order, seeded from the value already in `out`. The
//! association `((out + t₀) + t₁) + …` is therefore *identical for every
//! tiling scheme*: tile shapes only change traversal order across output
//! elements, never the order of additions within one element. f32 addition
//! is not associative, so this is what keeps training runs bit-stable
//! across schemes, autotuner decisions and thread counts (proven by
//! `crates/core/tests/determinism.rs` and the bitwise shape sweep in
//! `crates/tensor/tests/kernel_parity.rs`).
//!
//! ## Instruction-set dispatch
//!
//! The kernels are compiled twice: once for the build's baseline target and
//! once under `#[target_feature(enable = "avx2")]`. The AVX2 copy is picked
//! at runtime when the CPU reports AVX2 ([`simd_level`]), otherwise the
//! portable copy runs. Both copies come from the same source loops, and
//! Rust never contracts `a * b + c` into a fused multiply-add, so every
//! lane performs the same IEEE multiply then add in the same ascending
//! reduction order — the AVX2 copy is bit-identical to the portable one,
//! only wider (`kernels/simd_parity.rs`). The one hardware-defined
//! exception is NaN payloads: when an add meets two NaNs with different
//! bits, which one survives depends on the operand order the code
//! generator chose for that copy; a NaN result is NaN in both. FMA and `-C target-cpu=native` are deliberately
//! not used: the first rounds once instead of twice and so changes bits,
//! the second makes the binary fault on CPUs without the build host's
//! features.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// The operand layout of a matmul kernel, used to key tiling-scheme
/// resolution (each layout has its own default and autotune entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatmulLayout {
    /// `A [m,k] · B [k,n]`.
    Nn,
    /// `A [m,k] · Bᵀ` with `B` stored `[n,k]`.
    Nt,
    /// `Aᵀ · B` with `A` stored `[k,m]`.
    Tn,
}

impl MatmulLayout {
    /// Short lowercase label (`"nn"`, `"nt"`, `"tn"`), used in cache keys.
    pub fn label(self) -> &'static str {
        match self {
            MatmulLayout::Nn => "nn",
            MatmulLayout::Nt => "nt",
            MatmulLayout::Tn => "tn",
        }
    }
}

/// Register-tile (`mr`, `nr`) shapes that have a monomorphised micro-kernel.
/// [`TilingScheme::validated`] snaps any other pair to the default; the
/// autotuner uses this list as its candidate grid.
pub const SUPPORTED_REGISTER_TILES: &[(usize, usize)] =
    &[(2, 8), (4, 4), (4, 8), (8, 4), (8, 8), (4, 16), (8, 16)];

/// The candidate schemes the autotuner benches for `layout` — small on
/// purpose, since the one-shot bench must stay in the low-millisecond range
/// per size class. nn/nt share the packed-panel kernel, so the register
/// tile is the lever and cache blocks come from the defaults; tn is an
/// axpy kernel that ignores `mr`/`nr`, so `mc`/`nc` are the lever.
pub fn candidate_schemes(layout: MatmulLayout) -> Vec<TilingScheme> {
    let d = TilingScheme::default_for(layout);
    match layout {
        MatmulLayout::Nn | MatmulLayout::Nt => SUPPORTED_REGISTER_TILES
            .iter()
            .map(|&(mr, nr)| TilingScheme::new(mr, nr, d.mc, d.kc, d.nc).validated())
            .collect(),
        MatmulLayout::Tn => [(32, 256), (64, 256), (64, 512), (128, 512)]
            .iter()
            .map(|&(mc, nc)| TilingScheme::new(d.mr, d.nr, mc, d.kc, nc).validated())
            .collect(),
    }
}

/// A runtime tile-shape decomposition for the matmul kernels, following
/// the global/stage/tile split of cubecl-matmul: a register tile
/// (`mr`×`nr` output elements held in accumulators for the full reduction)
/// nested inside cache blocks (`mc` output rows, `kc` reduction depth per
/// packing chunk, `nc` packed panel columns).
///
/// `kc` only chunks the *packing copy loop* for locality — the arithmetic
/// reduction always runs over the full `k` with one live accumulator per
/// output element, which is what keeps results bit-identical across
/// schemes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilingScheme {
    /// Output rows per register tile.
    pub mr: usize,
    /// Output columns per register tile.
    pub nr: usize,
    /// Output rows per cache block (one pass over a packed panel).
    pub mc: usize,
    /// Reduction depth per packing chunk (memory layout only).
    pub kc: usize,
    /// Output columns packed per panel.
    pub nc: usize,
}

impl TilingScheme {
    /// A scheme from raw tile sizes (not yet validated).
    pub const fn new(mr: usize, nr: usize, mc: usize, kc: usize, nc: usize) -> Self {
        TilingScheme { mr, nr, mc, kc, nc }
    }

    /// The static default for `layout`, used when no override, provider or
    /// cache entry applies.
    pub fn default_for(layout: MatmulLayout) -> Self {
        match layout {
            MatmulLayout::Nn => TilingScheme::new(4, 16, 64, 256, 256),
            MatmulLayout::Nt => TilingScheme::new(4, 16, 64, 256, 256),
            // tn is an outer-product axpy driver: only mc/nc block it.
            MatmulLayout::Tn => TilingScheme::new(4, 16, 64, 256, 512),
        }
    }

    /// Snaps the scheme onto the supported envelope: (`mr`,`nr`) must be one
    /// of [`SUPPORTED_REGISTER_TILES`] (otherwise the default 4×16 register
    /// tile is used) and the cache blocks are clamped to cover at least one
    /// register tile / a sane packing chunk.
    #[must_use]
    pub fn validated(self) -> Self {
        let (mr, nr) = if SUPPORTED_REGISTER_TILES.contains(&(self.mr, self.nr)) {
            (self.mr, self.nr)
        } else {
            (4, 16)
        };
        TilingScheme {
            mr,
            nr,
            mc: self.mc.max(mr),
            kc: self.kc.max(8),
            nc: self.nc.max(nr),
        }
    }

    /// Compact text form `"mr x nr : mc x kc x nc"` (without spaces), e.g.
    /// `"4x16:64x256x256"` — stable across versions, used by the autotune
    /// cache file and the `CIT_TILING` env override.
    pub fn encode(&self) -> String {
        format!(
            "{}x{}:{}x{}x{}",
            self.mr, self.nr, self.mc, self.kc, self.nc
        )
    }

    /// Parses [`TilingScheme::encode`]'s format. The cache-block part is
    /// optional (`"8x8"` uses default blocks). Returns `None` on anything
    /// malformed; callers should [`TilingScheme::validated`] the result.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let (reg, blocks) = match s.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (s, None),
        };
        let mut reg_it = reg.split('x').map(|p| p.trim().parse::<usize>());
        let mr = reg_it.next()?.ok()?;
        let nr = reg_it.next()?.ok()?;
        if reg_it.next().is_some() || mr == 0 || nr == 0 {
            return None;
        }
        let default = TilingScheme::default_for(MatmulLayout::Nn);
        let (mc, kc, nc) = match blocks {
            None => (default.mc, default.kc, default.nc),
            Some(b) => {
                let mut it = b.split('x').map(|p| p.trim().parse::<usize>());
                let mc = it.next()?.ok()?;
                let kc = it.next()?.ok()?;
                let nc = it.next()?.ok()?;
                if it.next().is_some() || mc == 0 || kc == 0 || nc == 0 {
                    return None;
                }
                (mc, kc, nc)
            }
        };
        Some(TilingScheme::new(mr, nr, mc, kc, nc))
    }
}

/// A scheme provider maps `(layout, m, k, n)` to the tile shapes to use —
/// installed once per process by the `cit-compute` autotuner.
pub type SchemeProvider =
    Box<dyn Fn(MatmulLayout, usize, usize, usize) -> TilingScheme + Send + Sync>;

static PROVIDER: OnceLock<SchemeProvider> = OnceLock::new();
/// Set while a forced scheme is installed, so the common unforced path is
/// one atomic load instead of a lock. The `Release` store in
/// [`force_scheme`] pairs with the `Acquire` load in [`resolve_scheme`];
/// the scheme itself is only ever read under `FORCED`'s lock.
static FORCED_SET: AtomicBool = AtomicBool::new(false);
static FORCED: Mutex<Option<TilingScheme>> = Mutex::new(None);

/// Installs the process-global scheme provider (one-shot; returns `false`
/// if a provider was already installed).
///
/// The provider runs inside every matmul call that no forced scheme or
/// `CIT_TILING` override covers — hundreds of times per served decision —
/// so its hit path must not lock: the `cit-compute` autotuner answers hits
/// from a fixed table of published winners with one atomic load and takes
/// its mutex only on a miss, to tune and persist a new size class.
pub fn install_scheme_provider(provider: SchemeProvider) -> bool {
    PROVIDER.set(provider).is_ok()
}

/// Forces every matmul onto one scheme (or clears the force with `None`),
/// overriding the provider and the static defaults. Intended for tests and
/// experiments — thanks to the determinism contract a forced scheme changes
/// wall-clock only, never results.
pub fn force_scheme(scheme: Option<TilingScheme>) {
    let mut guard = FORCED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = scheme.map(TilingScheme::validated);
    FORCED_SET.store(guard.is_some(), Ordering::Release);
}

fn env_forced() -> Option<TilingScheme> {
    static ENV: OnceLock<Option<TilingScheme>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CIT_TILING")
            .ok()
            .and_then(|s| TilingScheme::parse(&s))
            .map(TilingScheme::validated)
    })
}

/// The scheme a kernel call with this layout and problem size will use.
/// Resolution order: [`force_scheme`] → `CIT_TILING` env override →
/// installed provider → [`TilingScheme::default_for`]. Only a forced scheme
/// takes a lock; an unforced call costs an atomic flag load, the cached env
/// lookup and the provider's hit path.
pub fn resolve_scheme(layout: MatmulLayout, m: usize, k: usize, n: usize) -> TilingScheme {
    if FORCED_SET.load(Ordering::Acquire) {
        if let Some(s) = *FORCED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            return s;
        }
    }
    if let Some(s) = env_forced() {
        return s;
    }
    if let Some(p) = PROVIDER.get() {
        return p(layout, m, k, n).validated();
    }
    TilingScheme::default_for(layout)
}

/// GraphPool-style thread-local recycling for `f32` scratch buffers, used
/// by the conv1d im2col path (and available to other hot loops) to cut
/// per-step allocation traffic. Buffers keep their capacity across
/// [`take`](scratch::take)/[`put`](scratch::put) cycles.
pub mod scratch {
    use std::cell::RefCell;

    const MAX_POOLED: usize = 8;

    thread_local! {
        static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    }

    /// A buffer of exactly `len` elements with **unspecified contents** —
    /// callers must overwrite (or `fill`) before reading. Reuses the
    /// largest pooled buffer when one exists.
    pub fn take(len: usize) -> Vec<f32> {
        let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the thread-local pool for reuse. At most a small
    /// fixed number of buffers are retained; excess buffers are dropped.
    pub fn put(buf: Vec<f32>) {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(buf);
            }
        });
    }
}

thread_local! {
    /// Packing slab for the nn/nt drivers, reused across matmul calls.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn check_dims(name: &str, m: usize, k: usize, n: usize, a: usize, b: usize, out: usize) {
    assert!(a >= m * k, "{name}: lhs has {a} elements, need {m}x{k}");
    assert!(b >= k * n, "{name}: rhs has {b} elements, need {k}x{n}");
    assert!(out >= m * n, "{name}: out has {out} elements, need {m}x{n}");
}

/// One register tile of `rows ≤ MR` output rows. An edge tile
/// (`rows < MR`) is split into full-height tiles of 4, 2 and 1 rows, so
/// every tile's row loop has a compile-time bound (which keeps its
/// accumulators in registers) and no lane computes a row it does not store.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_rows<const MR: usize, const NR: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert!(rows <= MR);
    if rows == MR {
        micro_packed::<MR, NR>(k, a, lda, bp, ldb, out, ldc, cols);
        return;
    }
    let mut r = 0;
    while r < rows {
        let (a, out) = (&a[r * lda..], &mut out[r * ldc..]);
        r += match rows - r {
            left if left >= 4 && MR > 4 => {
                micro_packed::<4, NR>(k, a, lda, bp, ldb, out, ldc, cols);
                4
            }
            left if left >= 2 && MR > 2 => {
                micro_packed::<2, NR>(k, a, lda, bp, ldb, out, ldc, cols);
                2
            }
            _ => {
                micro_packed::<1, NR>(k, a, lda, bp, ldb, out, ldc, cols);
                1
            }
        };
    }
}

/// One full-height register tile: accumulates `MR`×`cols` output elements
/// over the full reduction `k` against a panel tile holding row `p` of `B`
/// at `bp[p·ldb ..]` (`ldb = NR` when packed, `n` when read in place).
///
/// Seeds the accumulators from `out` and walks `p` strictly ascending, so
/// the per-element association is independent of `MR`/`NR` — the
/// determinism contract. Dead lanes (`c >= cols`) read packed zeros and are
/// never stored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_packed<const MR: usize, const NR: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    cols: usize,
) {
    debug_assert!(cols <= NR);
    let mut acc = [[0.0f32; NR]; MR];
    if cols == NR {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr.copy_from_slice(&out[r * ldc..r * ldc + NR]);
        }
        micro_accumulate::<MR, NR>(k, a, lda, bp, ldb, &mut acc);
        for (r, accr) in acc.iter().enumerate() {
            out[r * ldc..r * ldc + NR].copy_from_slice(accr);
        }
    } else {
        for (r, accr) in acc.iter_mut().enumerate() {
            accr[..cols].copy_from_slice(&out[r * ldc..r * ldc + cols]);
        }
        micro_accumulate::<MR, NR>(k, a, lda, bp, ldb, &mut acc);
        for (r, accr) in acc.iter().enumerate() {
            out[r * ldc..r * ldc + cols].copy_from_slice(&accr[..cols]);
        }
    }
}

/// The reduction of one register tile: `tile[r][c] += a[r, p] · b[p, c]`
/// for `p` ascending. It works on a local copy of the tile: with every
/// bound a compile-time constant the copy stays in registers across the
/// whole reduction, whatever partial copies seeded it.
#[inline(always)]
fn micro_accumulate<const MR: usize, const NR: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    tile: &mut [[f32; NR]; MR],
) {
    let mut acc = *tile;
    for p in 0..k {
        let brow = &bp[p * ldb..p * ldb + NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[r * lda + p];
            for (slot, &bv) in accr.iter_mut().zip(brow) {
                *slot += av * bv;
            }
        }
    }
    *tile = acc;
}

/// Dispatches on the validated register-tile shape to a monomorphised
/// micro-kernel. `(4,16)` is the fallback arm, matching
/// [`TilingScheme::validated`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_micro(
    mr: usize,
    nr: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    match (mr, nr) {
        (2, 8) => micro_rows::<2, 8>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        (4, 4) => micro_rows::<4, 4>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        (4, 8) => micro_rows::<4, 8>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        (8, 4) => micro_rows::<8, 4>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        (8, 8) => micro_rows::<8, 8>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        (8, 16) => micro_rows::<8, 16>(k, a, lda, bp, ldb, out, ldc, rows, cols),
        _ => micro_rows::<4, 16>(k, a, lda, bp, ldb, out, ldc, rows, cols),
    }
}

/// Packs `nr`-wide column tiles of a `[k, n]` row-major `B` panel
/// (columns `j0 .. j0+jb`) into `buf` in tile-major `[tile][p][lane]`
/// order. Edge-tile lanes beyond the matrix are zero-filled.
#[allow(clippy::too_many_arguments)]
fn pack_panel_nn(
    buf: &mut [f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    jb: usize,
    nr: usize,
    kc: usize,
) {
    let ntiles = jb.div_ceil(nr);
    for t in 0..ntiles {
        let j = j0 + t * nr;
        let cols = nr.min(j0 + jb - j);
        let tile = &mut buf[t * k * nr..(t + 1) * k * nr];
        if cols == nr {
            for (p, dst) in tile.chunks_exact_mut(nr).enumerate() {
                dst.copy_from_slice(&b[p * n + j..p * n + j + nr]);
            }
        } else {
            for (p, dst) in tile.chunks_exact_mut(nr).enumerate() {
                dst[..cols].copy_from_slice(&b[p * n + j..p * n + j + cols]);
                dst[cols..].fill(0.0);
            }
        }
    }
    let _ = kc; // nn packing is already row-contiguous; kc chunking is moot.
}

/// Packs `nr`-wide column tiles of `Bᵀ` (with `B` stored `[n, k]`
/// row-major, i.e. `bt[j*k + p]`) into `buf` in tile-major
/// `[tile][p][lane]` order. This is the transposing copy that turns the
/// former strided `bt[(j+c)·k+p]` inner load into a contiguous stream. The
/// copy walks `p` in `kc`-sized chunks so the destination chunk stays
/// cache-resident while `nr` source columns stream through.
#[allow(clippy::too_many_arguments)]
fn pack_panel_nt(
    buf: &mut [f32],
    bt: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    jb: usize,
    nr: usize,
    kc: usize,
) {
    let ntiles = jb.div_ceil(nr);
    for t in 0..ntiles {
        let j = j0 + t * nr;
        let cols = nr.min(j0 + jb - j);
        let tile = &mut buf[t * k * nr..(t + 1) * k * nr];
        let mut p0 = 0;
        while p0 < k {
            let pb = kc.min(k - p0);
            for c in 0..cols {
                let src = &bt[(j + c) * k + p0..(j + c) * k + p0 + pb];
                for (pp, &v) in src.iter().enumerate() {
                    tile[(p0 + pp) * nr + c] = v;
                }
            }
            if cols < nr {
                for pp in 0..pb {
                    tile[(p0 + pp) * nr + cols..(p0 + pp + 1) * nr].fill(0.0);
                }
            }
            p0 += pb;
        }
    }
    let _ = n;
}

/// Signature shared by the panel-packing routines: `(buf, b, k, n, j0,
/// jb, nr, kc)` — fill `buf` with the `[j0, j0+jb)` column panel of the
/// second operand in tile-major `[tile][p][lane]` order.
type PackFn = fn(&mut [f32], &[f32], usize, usize, usize, usize, usize, usize);

/// Largest row-major `B` (in elements, 32 KiB) the nn kernel reads in
/// place: small enough to stay cache-resident while every row tile of `A`
/// sweeps it, so the packing copy would buy no locality.
const IN_PLACE_MAX: usize = 8 * 1024;

/// Shared nn/nt driver: packs one `nc`-column panel at a time, then sweeps
/// `mc`-row cache blocks of register tiles over it.
///
/// `in_place` says `B` is row-major `[k, n]`, i.e. its rows already hold
/// `nr`-lane tiles at stride `n`. When every tile is full width and `B` is
/// small, the micro-kernels then read it directly and the packing copy is
/// skipped; the arithmetic, and so every bit, is the same either way.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn matmul_packed_acc(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    pack: PackFn,
    in_place: bool,
) {
    let scheme = scheme.validated();
    let TilingScheme { nr, kc, nc, .. } = scheme;
    if in_place && n.is_multiple_of(nr) && k * n <= IN_PLACE_MAX {
        sweep_panel(scheme, m, k, a, b, n, nr, out, n, 0, n);
        return;
    }
    let mut buf = PACK_BUF.with(RefCell::take);
    let mut j0 = 0;
    while j0 < n {
        let jb = nc.min(n - j0);
        buf.resize(jb.div_ceil(nr) * k * nr, 0.0);
        pack(&mut buf, b, k, n, j0, jb, nr, kc);
        sweep_panel(scheme, m, k, a, &buf, nr, k * nr, out, n, j0, jb);
        j0 += nc;
    }
    PACK_BUF.with(|p| p.replace(buf));
}

/// Sweeps `mc`-row cache blocks of register tiles over the output columns
/// `j0 .. j0+jb`, whose `B` tiles start `tile_stride` apart in `panel`
/// with rows `ldb` apart. `scheme` is already validated.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_panel(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    a: &[f32],
    panel: &[f32],
    ldb: usize,
    tile_stride: usize,
    out: &mut [f32],
    n: usize,
    j0: usize,
    jb: usize,
) {
    let TilingScheme { mr, nr, mc, .. } = scheme;
    let mut i0 = 0;
    while i0 < m {
        let ib = mc.min(m - i0);
        let mut ii = 0;
        while ii < ib {
            let i = i0 + ii;
            let rows = mr.min(ib - ii);
            for t in 0..jb.div_ceil(nr) {
                let j = j0 + t * nr;
                let cols = nr.min(j0 + jb - j);
                run_micro(
                    mr,
                    nr,
                    k,
                    &a[i * k..],
                    k,
                    &panel[t * tile_stride..],
                    ldb,
                    &mut out[i * n + j..],
                    n,
                    rows,
                    cols,
                );
            }
            ii += mr;
        }
        i0 += mc;
    }
}

/// The outer-product tn kernel: for each reduction index `p` a row of `B`
/// is broadcast-multiplied into a block of `out` rows, so the inner loop is
/// a contiguous axpy. `mc`/`nc` block the output panel to keep it
/// cache-resident; per output element the `p` loop is still outermost and
/// ascending, so the determinism contract holds.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn matmul_tn_axpy(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    at: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    let TilingScheme { mc, nc, .. } = scheme.validated();
    let mut j0 = 0;
    while j0 < n {
        let jb = nc.min(n - j0);
        let mut i0 = 0;
        while i0 < m {
            let ib = mc.min(m - i0);
            for p in 0..k {
                let arow = &at[p * m..p * m + m];
                let brow = &b[p * n + j0..p * n + j0 + jb];
                for r in 0..ib {
                    let av = arow[i0 + r];
                    let dst = &mut out[(i0 + r) * n + j0..(i0 + r) * n + j0 + jb];
                    for (d, &bv) in dst.iter_mut().zip(brow) {
                        *d += av * bv;
                    }
                }
            }
            i0 += mc;
        }
        j0 += nc;
    }
}

/// One dimension-checked matmul under an explicit scheme: the unit the
/// instruction-set dispatch compiles twice (see the module docs).
pub(crate) struct MatmulCall<'a> {
    pub(crate) layout: MatmulLayout,
    pub(crate) scheme: TilingScheme,
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
    /// `A`, stored `[k, m]` for [`MatmulLayout::Tn`].
    pub(crate) a: &'a [f32],
    /// `B`, stored `[n, k]` for [`MatmulLayout::Nt`].
    pub(crate) b: &'a [f32],
    pub(crate) out: &'a mut [f32],
}

impl MatmulCall<'_> {
    /// The kernel body, inlined into each compiled copy so the whole call
    /// tree down to the micro-kernels inherits that copy's target features.
    #[inline(always)]
    fn execute(self) {
        let MatmulCall {
            layout,
            scheme,
            m,
            k,
            n,
            a,
            b,
            out,
        } = self;
        match layout {
            MatmulLayout::Nn => matmul_packed_acc(scheme, m, k, n, a, b, out, pack_panel_nn, true),
            MatmulLayout::Nt => matmul_packed_acc(scheme, m, k, n, a, b, out, pack_panel_nt, false),
            MatmulLayout::Tn => matmul_tn_axpy(scheme, m, k, n, a, b, out),
        }
    }
}

/// `true` when this CPU can run the AVX2 copy of the kernels. The standard
/// library caches the CPUID answer, so this is one atomic load per call.
#[inline]
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The compiled copy of the matmul kernels this process runs: `"avx2"` on
/// x86-64 CPUs that report AVX2, `"portable"` everywhere else. Both copies
/// produce identical bits; only throughput differs.
pub fn simd_level() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "portable"
    }
}

/// The baseline-target copy of the kernels: the fallback on CPUs without
/// AVX2, and the reference the dispatched copy is tested against.
pub(crate) fn execute_portable(call: MatmulCall<'_>) {
    call.execute();
}

/// The AVX2 copy of the kernels: the same source as [`execute_portable`],
/// compiled with 256-bit vectors enabled (and without FMA).
///
/// # Safety
///
/// The CPU running this must support AVX2; calling it elsewhere is
/// undefined behaviour (typically an illegal-instruction fault). Callers
/// must check `is_x86_feature_detected!("avx2")` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn execute_avx2(call: MatmulCall<'_>) {
    call.execute();
}

/// Runs one matmul on the fastest compiled copy this CPU supports.
fn execute(call: MatmulCall<'_>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `avx2_detected` has just confirmed through
        // `is_x86_feature_detected!("avx2")` that this CPU executes AVX2
        // instructions, the only precondition of `execute_avx2`.
        unsafe { execute_avx2(call) };
        return;
    }
    execute_portable(call);
}

/// `out[i,j] += Σ_p a[i,p]·b[p,j]` — `A [m,k] · B [k,n]` under the
/// resolved tiling scheme (see [`resolve_scheme`]).
pub fn matmul_nn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let scheme = resolve_scheme(MatmulLayout::Nn, m, k, n);
    matmul_nn_acc_with(scheme, m, k, n, a, b, out);
}

/// [`matmul_nn_acc`] under an explicit scheme (autotuner benching, tests).
pub fn matmul_nn_acc_with(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    check_dims("matmul_nn_acc", m, k, n, a.len(), b.len(), out.len());
    execute(MatmulCall {
        layout: MatmulLayout::Nn,
        scheme,
        m,
        k,
        n,
        a,
        b,
        out,
    });
}

/// Freshly allocated `A·B` (`A [m,k]`, `B [k,n]`), zero-initialised then
/// accumulated by [`matmul_nn_acc`].
pub fn matmul_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_nn_acc(m, k, n, a, b, &mut out);
    out
}

/// `out[i,j] += Σ_p a[i,p]·bt[j,p]` — `A [m,k] · Bᵀ` with `B` stored
/// `[n,k]`, under the resolved tiling scheme. The needed `Bᵀ` panel is
/// packed into a contiguous tile-ordered scratch buffer first, so the hot
/// loop never touches the strided source layout.
pub fn matmul_nt_acc(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32], out: &mut [f32]) {
    let scheme = resolve_scheme(MatmulLayout::Nt, m, k, n);
    matmul_nt_acc_with(scheme, m, k, n, a, bt, out);
}

/// [`matmul_nt_acc`] under an explicit scheme (autotuner benching, tests).
pub fn matmul_nt_acc_with(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
) {
    // bt holds n rows of k elements; k*n == n*k, so check_dims covers it.
    check_dims("matmul_nt_acc", m, k, n, a.len(), bt.len(), out.len());
    execute(MatmulCall {
        layout: MatmulLayout::Nt,
        scheme,
        m,
        k,
        n,
        a,
        b: bt,
        out,
    });
}

/// Freshly allocated `A·Bᵀ` (`A [m,k]`, `B` stored `[n,k]`).
pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f32], bt: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_nt_acc(m, k, n, a, bt, &mut out);
    out
}

/// `out[i,j] += Σ_p at[p,i]·b[p,j]` — `Aᵀ·B` with `A` stored `[k,m]`,
/// under the resolved tiling scheme, as an outer-product axpy sweep.
pub fn matmul_tn_acc(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], out: &mut [f32]) {
    let scheme = resolve_scheme(MatmulLayout::Tn, m, k, n);
    matmul_tn_acc_with(scheme, m, k, n, at, b, out);
}

/// [`matmul_tn_acc`] under an explicit scheme (autotuner benching, tests).
pub fn matmul_tn_acc_with(
    scheme: TilingScheme,
    m: usize,
    k: usize,
    n: usize,
    at: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    // at holds k rows of m elements; k*m == m*k, so check_dims covers it.
    check_dims("matmul_tn_acc", m, k, n, at.len(), b.len(), out.len());
    execute(MatmulCall {
        layout: MatmulLayout::Tn,
        scheme,
        m,
        k,
        n,
        a: at,
        b,
        out,
    });
}

/// Freshly allocated `Aᵀ·B` (`A` stored `[k,m]`, `B [k,n]`).
pub fn matmul_tn(m: usize, k: usize, n: usize, at: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_tn_acc(m, k, n, at, b, &mut out);
    out
}

/// Textbook triple-loop `A·B` — the naive reference the tiled kernels are
/// checked (and benchmarked) against. Not used on any hot path. Accumulates
/// each element ascending in `p` from zero, which is exactly the tiled
/// kernels' association on a zeroed `out` — so the tiled family is
/// *bit-identical* to this reference, not merely close.
pub fn matmul_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Unrolls one batch element of a causal dilated convolution input into its
/// im2col matrix: `col[(i·K + j)·L + t] = x[i·L + t − (K−1−j)·dilation]`
/// with implicit zero padding on the left. `x` is one `[Cin, L]` slab.
///
/// Each `(channel, tap)` row is a shifted memcpy of the input channel, so
/// the convolution becomes the single matrix product
/// `W [Cout, Cin·K] · col [Cin·K, L]`.
pub fn im2col(x: &[f32], cin: usize, l: usize, k: usize, dilation: usize, col: &mut [f32]) {
    assert!(x.len() >= cin * l, "im2col: x has {} elements", x.len());
    assert!(
        col.len() >= cin * k * l,
        "im2col: col has {} elements, need {}",
        col.len(),
        cin * k * l
    );
    for i in 0..cin {
        let xi = &x[i * l..(i + 1) * l];
        for j in 0..k {
            let back = (k - 1 - j) * dilation;
            let row = &mut col[(i * k + j) * l..(i * k + j + 1) * l];
            if back >= l {
                row.fill(0.0);
            } else {
                row[..back].fill(0.0);
                row[back..].copy_from_slice(&xi[..l - back]);
            }
        }
    }
}

/// Scatters an im2col-shaped gradient back onto the input slab:
/// `gx[i·L + t − back] += gcol[(i·K + j)·L + t]` for every in-range tap.
/// Exact adjoint of [`im2col`].
pub fn col2im_acc(gcol: &[f32], cin: usize, l: usize, k: usize, dilation: usize, gx: &mut [f32]) {
    assert!(
        gx.len() >= cin * l,
        "col2im_acc: gx has {} elements",
        gx.len()
    );
    for i in 0..cin {
        let dst = &mut gx[i * l..(i + 1) * l];
        for j in 0..k {
            let back = (k - 1 - j) * dilation;
            if back >= l {
                continue;
            }
            let row = &gcol[(i * k + j) * l..(i * k + j + 1) * l];
            for (d, &gv) in dst[..l - back].iter_mut().zip(&row[back..]) {
                *d += gv;
            }
        }
    }
}

#[cfg(test)]
mod simd_parity;

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values in [-0.5, 0.5).
        (0..len)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed.wrapping_mul(97))
                    % 1000;
                h as f32 / 1000.0 - 0.5
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn nn_matches_reference_across_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 1),
            (3, 1, 9),
            (5, 17, 3),
            (33, 2, 2),
            (4, 16, 16),
            (9, 23, 31),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            assert_close(&matmul_nn(m, k, n, &a, &b), &matmul_ref(m, k, n, &a, &b));
        }
    }

    #[test]
    fn nt_and_tn_match_explicit_transpose() {
        let (m, k, n) = (6, 11, 13);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let reference = matmul_ref(m, k, n, &a, &b);
        // B stored transposed [n, k].
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        assert_close(&matmul_nt(m, k, n, &a, &bt), &reference);
        // A stored transposed [k, m].
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        assert_close(&matmul_tn(m, k, n, &at, &b), &reference);
    }

    #[test]
    fn acc_variants_accumulate_on_top() {
        let (m, k, n) = (5, 4, 18);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut out = vec![1.0f32; m * n];
        matmul_nn_acc(m, k, n, &a, &b, &mut out);
        let reference = matmul_ref(m, k, n, &a, &b);
        for (o, r) in out.iter().zip(&reference) {
            assert!((o - (r + 1.0)).abs() <= 1e-5);
        }
    }

    #[test]
    fn every_supported_register_tile_is_bitwise_vs_reference() {
        // n = 21 packs every panel; n = 32 is whole register tiles for
        // every `nr`, so the nn kernel reads `B` in place.
        for (m, k, n) in [(19, 23, 21), (19, 23, 32)] {
            let a = fill(m * k, 9);
            let b = fill(k * n, 10);
            let reference = matmul_ref(m, k, n, &a, &b);
            for &(mr, nr) in SUPPORTED_REGISTER_TILES {
                for (mc, kc, nc) in [(64, 256, 256), (8, 8, 16)] {
                    let scheme = TilingScheme::new(mr, nr, mc, kc, nc).validated();
                    let mut out = vec![0.0f32; m * n];
                    matmul_nn_acc_with(scheme, m, k, n, &a, &b, &mut out);
                    assert_eq!(
                        out,
                        reference,
                        "nn {m}x{k}x{n} scheme {} not bitwise vs reference",
                        scheme.encode()
                    );
                }
            }
        }
    }

    #[test]
    fn scheme_encode_parse_round_trips() {
        for &(mr, nr) in SUPPORTED_REGISTER_TILES {
            let s = TilingScheme::new(mr, nr, 32, 128, 96);
            assert_eq!(TilingScheme::parse(&s.encode()), Some(s));
        }
        // Register-tile-only form picks default cache blocks.
        let p = TilingScheme::parse("8x8").expect("register-only form");
        assert_eq!((p.mr, p.nr), (8, 8));
        assert!(p.mc > 0 && p.kc > 0 && p.nc > 0);
        for bad in ["", "8", "0x8", "8x0", "axb", "8x8:1x2", "8x8:1x2x3x4"] {
            assert_eq!(TilingScheme::parse(bad), None, "parse({bad:?})");
        }
    }

    #[test]
    fn validated_snaps_unsupported_register_tiles() {
        let s = TilingScheme::new(5, 13, 0, 0, 0).validated();
        assert_eq!((s.mr, s.nr), (4, 16));
        assert!(s.mc >= s.mr && s.nc >= s.nr && s.kc >= 8);
        for &(mr, nr) in SUPPORTED_REGISTER_TILES {
            let kept = TilingScheme::new(mr, nr, 64, 64, 64).validated();
            assert_eq!((kept.mr, kept.nr), (mr, nr));
        }
    }

    #[test]
    fn forced_scheme_changes_nothing_numerically() {
        let (m, k, n) = (17, 33, 15);
        let a = fill(m * k, 21);
        let b = fill(k * n, 22);
        let baseline = matmul_nn(m, k, n, &a, &b);
        force_scheme(Some(TilingScheme::new(8, 4, 16, 32, 32)));
        let forced = matmul_nn(m, k, n, &a, &b);
        force_scheme(None);
        assert_eq!(baseline, forced, "forced scheme changed matmul bits");
    }

    #[test]
    fn scratch_pool_round_trips() {
        let mut a = scratch::take(64);
        assert_eq!(a.len(), 64);
        a.fill(3.0);
        scratch::put(a);
        let b = scratch::take(16);
        assert_eq!(b.len(), 16);
        let c = scratch::take(1024);
        assert_eq!(c.len(), 1024);
        scratch::put(b);
        scratch::put(c);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let (cin, l, k, d) = (3, 10, 3, 2);
        let x = fill(cin * l, 7);
        let y = fill(cin * k * l, 8);
        let mut col = vec![0.0f32; cin * k * l];
        im2col(&x, cin, l, k, d, &mut col);
        let lhs: f32 = col.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut gx = vec![0.0f32; cin * l];
        col2im_acc(&y, cin, l, k, d, &mut gx);
        let rhs: f32 = x.iter().zip(&gx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }
}
