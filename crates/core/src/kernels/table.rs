//! The pattern-specialized kernel table: a macro-generated
//! `KernelKey → fn-pointer` registry replacing the hand-written
//! width/KB `match` ladders that used to live in [`cpu`].
//!
//! One kernel *family* per payload shape, instantiated at every
//! register-blocked RHS width in [`RHS_WIDTHS`] by `kernel_table!`'s
//! nested expansion — adding a family or a width is one token in the
//! macro invocation, never a new `match` arm. Plan compilation asserts
//! registry coverage for every format it emits
//! ([`BinFormat::kernel_family`]), the executors resolve entries once
//! per (bin, RHS-block) outside their parallel regions, and `spmv-lint`
//! sweeps the registry both ways (every reachable key registered, every
//! registered key reachable).
//!
//! Single-vector execution of the specialized families goes through the
//! same registry at `KB = 1` over a stride-1 output view, so there is
//! exactly one kernel body per family.
//!
//! [`cpu`]: crate::kernels::cpu
//! [`BinFormat::kernel_family`]: crate::plan::BinFormat::kernel_family

use super::cpu::BlockWriter;
use crate::plan::BinPayload;
use spmv_sparse::{CsrMatrix, Scalar};

/// The payload-shape axis of the kernel key space: which traversal a
/// bin's entries execute with. [`Csr`](Self::Csr) also serves
/// cache-blocked bins in the batched path — the strip schedule is a
/// single-vector locality optimisation, and both walks consume storage
/// order, so the results are bit-identical either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelFamily {
    /// Row-list walk through the CSR arrays (plain and cache-blocked
    /// bins).
    Csr,
    /// Column-major SELL chunk walk over a packed slab.
    Packed,
    /// Contiguous-run traversal: strided dense AXPYs, no per-element
    /// index gathers.
    DenseRun,
    /// Diagonal-offset traversal: the offset list is the only index
    /// metadata.
    Banded,
    /// Identical-row-run traversal: one shared column pattern per run.
    RowRun,
}

impl KernelFamily {
    /// Every family in the registry, in registration order.
    pub const ALL: [KernelFamily; 5] = [
        KernelFamily::Csr,
        KernelFamily::Packed,
        KernelFamily::DenseRun,
        KernelFamily::Banded,
        KernelFamily::RowRun,
    ];

    /// Short label (`csr`, `packed`, `dense-run`, `banded`, `row-run`).
    pub fn label(self) -> &'static str {
        match self {
            KernelFamily::Csr => "csr",
            KernelFamily::Packed => "packed",
            KernelFamily::DenseRun => "dense-run",
            KernelFamily::Banded => "banded",
            KernelFamily::RowRun => "row-run",
        }
    }
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The register-blocked RHS widths every family is instantiated at —
/// exactly the widths [`crate::plan::rhs_blocks`] decomposes a batch
/// into (proven by `verify::check_rhs_blocks`).
pub const RHS_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One point of the kernel instantiation matrix: a payload family at a
/// register-blocked RHS width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelKey {
    /// Payload-shape axis.
    pub family: KernelFamily,
    /// RHS-block width axis (`∈` [`RHS_WIDTHS`]).
    pub kb: usize,
}

impl std::fmt::Display for KernelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×{}", self.family, self.kb)
    }
}

/// Everything one table kernel needs to execute one (tile, RHS-block)
/// work item. `start..end` is the tile's span in the bin's own work
/// coordinates: chunk indices for [`KernelFamily::Packed`], positions
/// into `bin_rows` for every other family.
pub struct BatchArgs<'a, T: Scalar> {
    /// The matrix (values are always read from here, in storage order).
    pub a: &'a CsrMatrix<T>,
    /// The bin's **full** dispatch row list (kernels slice it by
    /// `start..end`; run-based kernels need the full list to clip runs).
    pub bin_rows: &'a [u32],
    /// The bin's payload (must match the kernel's family).
    pub payload: &'a BinPayload<T>,
    /// Tile start (inclusive), in the family's work coordinates.
    pub start: usize,
    /// Tile end (exclusive).
    pub end: usize,
    /// The RHS block storage (`x` as a flat row-major slice).
    pub xs: &'a [T],
    /// Row stride of `xs` (`1` for single-vector execution).
    pub x_stride: usize,
    /// First RHS column this work item owns.
    pub c0: usize,
    /// Output writer (stride-1 view of `u` for single-vector execution).
    pub out: BlockWriter<T>,
}

/// A registered kernel: reads its [`BatchArgs`], writes its tile's rows
/// × its RHS block, nothing else.
pub type BatchKernelFn<T> = fn(&BatchArgs<'_, T>);

/// One row of the generated registry.
pub struct KernelEntry<T: Scalar> {
    /// The instantiation point.
    pub key: KernelKey,
    /// The compiled kernel.
    pub run: BatchKernelFn<T>,
}

/// Generate the registry from one `family => body` list × one width
/// list: the outer arm iterates families, the inner arms instantiate
/// each body at every width literal — once as the [`kernel_table`]
/// listing and once as [`lookup`]'s allocation-free `match`. This is
/// the **only** place the (family × KB) matrix is spelled out.
macro_rules! kernel_table {
    ($( $family:ident => $body:ident ),+ $(,)?) => {
        kernel_table!(@gen [1, 2, 4, 8] $( $family => $body ),+);
    };
    (@gen $widths:tt $( $family:ident => $body:ident ),+) => {
        /// The full generated kernel table: every family at every RHS
        /// width, in deterministic (family, width) order.
        pub fn kernel_table<T: Scalar>() -> Vec<KernelEntry<T>> {
            let mut table = Vec::with_capacity(KernelFamily::ALL.len() * RHS_WIDTHS.len());
            $( kernel_table!(@push table, $family, $body, $widths); )+
            table
        }

        /// Resolve one instantiation point, `None` for widths outside
        /// [`RHS_WIDTHS`]. A `match` over family × width: no table is
        /// built, so executors may resolve per call.
        pub fn lookup<T: Scalar>(key: KernelKey) -> Option<BatchKernelFn<T>> {
            match key.family {
                $( KernelFamily::$family => kernel_table!(@width key.kb, $body, $widths), )+
            }
        }
    };
    (@push $table:ident, $family:ident, $body:ident, [$( $kb:literal ),+]) => {
        $( $table.push(KernelEntry {
            key: KernelKey { family: KernelFamily::$family, kb: $kb },
            run: $body::<T, $kb>,
        }); )+
    };
    (@width $kb_of:expr, $body:ident, [$( $kb:literal ),+]) => {
        match $kb_of {
            $( $kb => Some($body::<T, $kb> as BatchKernelFn<T>), )+
            _ => None,
        }
    };
}

kernel_table! {
    Csr => batch_csr,
    Packed => batch_packed,
    DenseRun => batch_dense_run,
    Banded => batch_banded,
    RowRun => batch_row_run,
}

/// The kernel family a payload executes with (the payload side of
/// [`crate::plan::BinFormat::kernel_family`] — the two must agree, and
/// `check_payloads` proves the format/payload pairing).
pub fn payload_family<T: Scalar>(p: &BinPayload<T>) -> KernelFamily {
    match p {
        BinPayload::Csr | BinPayload::Blocked { .. } => KernelFamily::Csr,
        BinPayload::Packed(_) => KernelFamily::Packed,
        BinPayload::DenseRun(_) => KernelFamily::DenseRun,
        BinPayload::Banded(_) => KernelFamily::Banded,
        BinPayload::RowRun(_) => KernelFamily::RowRun,
    }
}

/// CSR family: walk each row's entries once in ascending storage order
/// (bit-identical per column to the single-vector reference) and
/// broadcast every gathered element against the `KB` contiguous x-lanes
/// of the column block.
fn batch_csr<T: Scalar, const KB: usize>(args: &BatchArgs<'_, T>) {
    for &r in &args.bin_rows[args.start..args.end] {
        let (cols, vals) = args.a.row(r as usize);
        let mut sums = [T::ZERO; KB];
        for (&c, &av) in cols.iter().zip(vals) {
            let base = c as usize * args.x_stride + args.c0;
            let xr = &args.xs[base..base + KB];
            for kk in 0..KB {
                sums[kk] = av.mul_add_(xr[kk], sums[kk]);
            }
        }
        // SAFETY: each row id appears in exactly one tile of one bin and
        // this item owns columns `c0..c0 + KB`; the parallel region
        // returns only once every worker is done, before the output is
        // observable again.
        unsafe { args.out.write_block(r as usize, args.c0, sums) };
    }
}

/// Packed family: stream the SELL chunk range through the slab's
/// register-blocked walk.
fn batch_packed<T: Scalar, const KB: usize>(args: &BatchArgs<'_, T>) {
    let BinPayload::Packed(packed) = args.payload else {
        panic!("packed kernel resolved for a non-packed payload");
    };
    packed.with_slab(|slab| {
        packed.spmm_chunks::<KB, _>(
            slab,
            args.start,
            args.end,
            args.xs,
            args.x_stride,
            args.c0,
            // SAFETY: chunk ranges of one bin are disjoint, each packed
            // row belongs to exactly one chunk, and this item owns
            // columns `c0..c0 + KB`; same join argument as `batch_csr`.
            |r, sums| unsafe { args.out.write_block(r, args.c0, sums) },
        );
    });
}

/// Dense-run family: each row executes as a sequence of strided dense
/// AXPYs over its contiguous column runs — values stream in storage
/// order, `x` is read consecutively inside a run, and **no per-element
/// column index is ever loaded**. The run decomposition is proven
/// against the CSR arrays (`DenseRuns::check_against`), so the FMA
/// chain is position-for-position the CSR reference chain.
///
/// Bit-for-bit identity with the CSR reference pins each row to one
/// sequential FMA chain, so at narrow RHS widths the kernel interleaves
/// four rows (four independent chains) whenever four consecutive rows
/// are each a single run of the same length — the shape a banded bin
/// routed here always has. Wider blocks already carry `KB` independent
/// lanes per row.
fn batch_dense_run<T: Scalar, const KB: usize>(args: &BatchArgs<'_, T>) {
    let BinPayload::DenseRun(runs) = args.payload else {
        panic!("dense-run kernel resolved for a non-dense-run payload");
    };
    let row_off = runs.row_off();
    let all_runs = runs.runs();
    let single_run_len = |p: usize| {
        let (o0, o1) = (row_off[p] as usize, row_off[p + 1] as usize);
        (o1 - o0 == 1).then(|| all_runs[o0].1 as usize)
    };
    let mut pos = args.start;
    while pos < args.end {
        // Eight-row stretch path for the single-vector view: eight
        // consecutive single-run rows of equal length are one contiguous
        // CSR values slice (a single run covers the whole row), so the
        // eight dots run with no per-row setup — the OoO window overlaps
        // their independent chains. Per-row order is untouched, so
        // results stay bit-for-bit.
        if KB == 1 && args.x_stride == 1 && pos + 8 <= args.end {
            let r0 = args.bin_rows[pos] as usize;
            let stretch = (1..8).all(|q| args.bin_rows[pos + q] as usize == r0 + q)
                && single_run_len(pos).is_some_and(|len| {
                    len > 0 && (1..8).all(|q| single_run_len(pos + q) == Some(len))
                });
            if stretch {
                let len = single_run_len(pos).unwrap();
                let rp = args.a.row_ptr();
                let v0 = rp[r0];
                debug_assert_eq!(rp[r0 + 8] - v0, 8 * len);
                let vals8 = &args.a.values()[v0..v0 + 8 * len];
                let mut sums = [T::ZERO; 8];
                for q in 0..8 {
                    let start_col = all_runs[row_off[pos + q] as usize].0 as usize;
                    let vrow = &vals8[q * len..(q + 1) * len];
                    let xrow = &args.xs[args.c0 + start_col..args.c0 + start_col + len];
                    let mut s = T::ZERO;
                    for j in 0..len {
                        s = vrow[j].mul_add_(xrow[j], s);
                    }
                    sums[q] = s;
                }
                for (q, s) in sums.into_iter().enumerate() {
                    // SAFETY: same (tile × block) disjointness as
                    // `batch_csr`.
                    unsafe { args.out.write_block(r0 + q, args.c0, [s; KB]) };
                }
                pos += 8;
                continue;
            }
        }
        if KB <= 2 && pos + 4 <= args.end {
            // Quad path: four single-run rows of equal length run their
            // four chains in lockstep.
            let quad_len = (0..4).try_fold(0usize, |want, q| {
                let (o0, o1) = (row_off[pos + q] as usize, row_off[pos + q + 1] as usize);
                if o1 - o0 != 1 {
                    return None;
                }
                let len = all_runs[o0].1 as usize;
                match (q, len == want) {
                    (0, _) => Some(len),
                    (_, true) => Some(want),
                    (_, false) => None,
                }
            });
            if let Some(len) = quad_len {
                let mut rows = [0usize; 4];
                let mut vals: [&[T]; 4] = [&[]; 4];
                let mut bases = [0usize; 4];
                for q in 0..4 {
                    rows[q] = args.bin_rows[pos + q] as usize;
                    vals[q] = args.a.row(rows[q]).1;
                    let start_col = all_runs[row_off[pos + q] as usize].0 as usize;
                    bases[q] = start_col * args.x_stride + args.c0;
                }
                let mut sums = [[T::ZERO; KB]; 4];
                if KB == 1 && args.x_stride == 1 {
                    // Exact-length value and x-window slices: every
                    // bounds check elides against the shared `t < len`
                    // loop bound, leaving four clean FMA chains over
                    // contiguous loads.
                    let v: [&[T]; 4] = std::array::from_fn(|q| &vals[q][..len]);
                    let xw: [&[T]; 4] = std::array::from_fn(|q| &args.xs[bases[q]..bases[q] + len]);
                    for t in 0..len {
                        for q in 0..4 {
                            sums[q][0] = v[q][t].mul_add_(xw[q][t], sums[q][0]);
                        }
                    }
                } else {
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..len {
                        for q in 0..4 {
                            let b = bases[q] + t * args.x_stride;
                            let xr = &args.xs[b..b + KB];
                            let av = vals[q][t];
                            for kk in 0..KB {
                                sums[q][kk] = av.mul_add_(xr[kk], sums[q][kk]);
                            }
                        }
                    }
                }
                for q in 0..4 {
                    // SAFETY: same (tile × block) disjointness as
                    // `batch_csr`.
                    unsafe { args.out.write_block(rows[q], args.c0, sums[q]) };
                }
                pos += 4;
                continue;
            }
        }
        let r = args.bin_rows[pos] as usize;
        let (_, vals) = args.a.row(r);
        let mut sums = [T::ZERO; KB];
        let mut vj = 0usize;
        for &(start_col, len) in &all_runs[row_off[pos] as usize..row_off[pos + 1] as usize] {
            let len = len as usize;
            let vrun = &vals[vj..vj + len];
            vj += len;
            let base = start_col as usize * args.x_stride + args.c0;
            if KB == 1 && args.x_stride == 1 {
                // Single-vector view: the run is a plain dot product over
                // a contiguous `x` window — no per-element slicing.
                let xwin = &args.xs[base..base + len];
                for (&av, &xv) in vrun.iter().zip(xwin) {
                    sums[0] = av.mul_add_(xv, sums[0]);
                }
            } else {
                let mut b = base;
                for &av in vrun {
                    let xr = &args.xs[b..b + KB];
                    for kk in 0..KB {
                        sums[kk] = av.mul_add_(xr[kk], sums[kk]);
                    }
                    b += args.x_stride;
                }
            }
        }
        // SAFETY: same (tile × block) disjointness as `batch_csr`.
        unsafe { args.out.write_block(r, args.c0, sums) };
        pos += 1;
    }
}

/// Banded family: each row's entries are exactly the in-range members of
/// the bin's diagonal-offset set (proven by `BandSet::check_against`),
/// so the kernel iterates offsets with **zero index traffic** — values
/// stream in storage order, which the proof makes ascending-column
/// order.
fn batch_banded<T: Scalar, const KB: usize>(args: &BatchArgs<'_, T>) {
    let BinPayload::Banded(band) = args.payload else {
        panic!("banded kernel resolved for a non-banded payload");
    };
    let offsets = band.offsets();
    let n = args.a.n_cols() as i64;
    let (min_off, max_off) = match (offsets.first(), offsets.last()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => return,
    };
    let interior = |r: usize| r as i64 + min_off >= 0 && r as i64 + max_off < n;
    let n_off = offsets.len();
    // A complete band is a contiguous offset range, so interior rows read
    // a contiguous `x` window — the strictly-ascending invariant makes
    // the span test sufficient.
    let contiguous = max_off - min_off + 1 == n_off as i64;
    let mut pos = args.start;
    while pos < args.end {
        // Eight-row stretch path for the single-vector view of a dense
        // (contiguous) band: eight **consecutive** interior rows have
        // exactly `n_off` entries each (band-completeness), so their
        // values are one contiguous CSR slice and their x windows slide
        // by one — eight independent FMA chains with no per-row setup.
        // Each row's chain stays in CSR storage order, so results are
        // still bit-for-bit.
        if KB == 1 && args.x_stride == 1 && contiguous && n_off > 0 && pos + 8 <= args.end {
            let r0 = args.bin_rows[pos] as usize;
            let consecutive = (1..8).all(|q| args.bin_rows[pos + q] as usize == r0 + q);
            if consecutive && interior(r0) && interior(r0 + 7) {
                let rp = args.a.row_ptr();
                let v0 = rp[r0];
                debug_assert_eq!(rp[r0 + 8] - v0, 8 * n_off);
                let vals8 = &args.a.values()[v0..v0 + 8 * n_off];
                let xbase = (r0 as i64 + min_off) as usize + args.c0;
                let xw = &args.xs[xbase..xbase + n_off + 7];
                let mut sums = [T::ZERO; 8];
                for q in 0..8 {
                    let vrow = &vals8[q * n_off..(q + 1) * n_off];
                    let xrow = &xw[q..q + n_off];
                    let mut s = T::ZERO;
                    for j in 0..n_off {
                        s = vrow[j].mul_add_(xrow[j], s);
                    }
                    sums[q] = s;
                }
                for (q, s) in sums.into_iter().enumerate() {
                    // SAFETY: same (tile × block) disjointness as
                    // `batch_csr`.
                    unsafe { args.out.write_block(r0 + q, args.c0, [s; KB]) };
                }
                pos += 8;
                continue;
            }
        }
        // Quad path at narrow RHS widths: four interior rows walk the
        // offset list in lockstep — four independent FMA chains (each
        // row's chain stays in CSR storage order, so results are still
        // bit-for-bit) instead of one latency-bound chain.
        if KB <= 2
            && pos + 4 <= args.end
            && (0..4).all(|q| interior(args.bin_rows[pos + q] as usize))
        {
            let mut rows = [0usize; 4];
            let mut vals: [&[T]; 4] = [&[]; 4];
            for q in 0..4 {
                rows[q] = args.bin_rows[pos + q] as usize;
                vals[q] = args.a.row(rows[q]).1;
            }
            let mut sums = [[T::ZERO; KB]; 4];
            if KB == 1 && args.x_stride == 1 && contiguous {
                // Dense band: exact-length value and x-window slices, so
                // every bounds check elides against `j < n_off` and the
                // x loads are contiguous.
                let v: [&[T]; 4] = std::array::from_fn(|q| &vals[q][..n_off]);
                let xw: [&[T]; 4] = std::array::from_fn(|q| {
                    let base = (rows[q] as i64 + min_off) as usize + args.c0;
                    &args.xs[base..base + n_off]
                });
                for j in 0..n_off {
                    for q in 0..4 {
                        sums[q][0] = v[q][j].mul_add_(xw[q][j], sums[q][0]);
                    }
                }
            } else {
                for (j, &o) in offsets.iter().enumerate() {
                    for q in 0..4 {
                        let base = (rows[q] as i64 + o) as usize * args.x_stride + args.c0;
                        let xr = &args.xs[base..base + KB];
                        let av = vals[q][j];
                        for kk in 0..KB {
                            sums[q][kk] = av.mul_add_(xr[kk], sums[q][kk]);
                        }
                    }
                }
            }
            for q in 0..4 {
                // SAFETY: same (tile × block) disjointness as `batch_csr`.
                unsafe { args.out.write_block(rows[q], args.c0, sums[q]) };
            }
            pos += 4;
            continue;
        }
        let r = args.bin_rows[pos] as usize;
        let (_, vals) = args.a.row(r);
        let mut sums = [T::ZERO; KB];
        if interior(r) {
            // Interior row: the proof says every offset lands in range,
            // so the row's values zip the offset list one-to-one — no
            // range branch, no cursor bookkeeping.
            for (&o, &av) in offsets.iter().zip(vals) {
                let base = (r as i64 + o) as usize * args.x_stride + args.c0;
                let xr = &args.xs[base..base + KB];
                for kk in 0..KB {
                    sums[kk] = av.mul_add_(xr[kk], sums[kk]);
                }
            }
        } else {
            // Edge row: walk the offsets with the clip branch, consuming
            // values in storage order (= ascending offsets in range).
            let mut vj = 0usize;
            for &o in offsets {
                let c = r as i64 + o;
                if c < 0 || c >= n {
                    continue;
                }
                let base = c as usize * args.x_stride + args.c0;
                let xr = &args.xs[base..base + KB];
                let av = vals[vj];
                vj += 1;
                for kk in 0..KB {
                    sums[kk] = av.mul_add_(xr[kk], sums[kk]);
                }
            }
        }
        // SAFETY: same (tile × block) disjointness as `batch_csr`.
        unsafe { args.out.write_block(r, args.c0, sums) };
        pos += 1;
    }
}

/// Identical-row-run family: the tile's span is clipped against the
/// proven maximal-run boundaries and each segment loads its column
/// pattern **once** from its first row, streaming every run row's
/// values against it. Any row of a run is a valid pattern source — the
/// proof (`RowRuns::check_against`) says their column lists are
/// identical — so clipping a run at a tile boundary is harmless.
fn batch_row_run<T: Scalar, const KB: usize>(args: &BatchArgs<'_, T>) {
    let BinPayload::RowRun(rr) = args.payload else {
        panic!("row-run kernel resolved for a non-row-run payload");
    };
    if args.start >= args.end {
        return;
    }
    let run_off = rr.run_off();
    // Index of the run containing `start`: boundaries are strictly
    // ascending and begin at 0, so at least one is ≤ start.
    let mut run = run_off.partition_point(|&b| (b as usize) <= args.start) - 1;
    let mut pos = args.start;
    while pos < args.end {
        let seg_end = (run_off[run + 1] as usize).min(args.end);
        let (cols, _) = args.a.row(args.bin_rows[pos] as usize);
        let mut p = pos;
        // Quad path at narrow RHS widths: four rows of the same run share
        // the column pattern, so each gathered `x` element feeds four
        // independent FMA chains (per-row order untouched — still
        // bit-for-bit) and is loaded once instead of four times.
        while KB <= 2 && p + 4 <= seg_end {
            let mut rows = [0usize; 4];
            let mut vals: [&[T]; 4] = [&[]; 4];
            for q in 0..4 {
                rows[q] = args.bin_rows[p + q] as usize;
                vals[q] = args.a.row(rows[q]).1;
            }
            let mut sums = [[T::ZERO; KB]; 4];
            for (j, &c) in cols.iter().enumerate() {
                let base = c as usize * args.x_stride + args.c0;
                let xr = &args.xs[base..base + KB];
                for q in 0..4 {
                    let av = vals[q][j];
                    for kk in 0..KB {
                        sums[q][kk] = av.mul_add_(xr[kk], sums[q][kk]);
                    }
                }
            }
            for q in 0..4 {
                // SAFETY: same (tile × block) disjointness as `batch_csr`.
                unsafe { args.out.write_block(rows[q], args.c0, sums[q]) };
            }
            p += 4;
        }
        // Pair path: short runs (e.g. 3-row blocks) still get two chains
        // per gathered `x` element.
        while KB <= 2 && p + 2 <= seg_end {
            let rows = [args.bin_rows[p] as usize, args.bin_rows[p + 1] as usize];
            let vals = [args.a.row(rows[0]).1, args.a.row(rows[1]).1];
            let mut sums = [[T::ZERO; KB]; 2];
            for (j, &c) in cols.iter().enumerate() {
                let base = c as usize * args.x_stride + args.c0;
                let xr = &args.xs[base..base + KB];
                for q in 0..2 {
                    let av = vals[q][j];
                    for kk in 0..KB {
                        sums[q][kk] = av.mul_add_(xr[kk], sums[q][kk]);
                    }
                }
            }
            for q in 0..2 {
                // SAFETY: same (tile × block) disjointness as `batch_csr`.
                unsafe { args.out.write_block(rows[q], args.c0, sums[q]) };
            }
            p += 2;
        }
        for p in p..seg_end {
            let r = args.bin_rows[p] as usize;
            let (_, vals) = args.a.row(r);
            let mut sums = [T::ZERO; KB];
            for (&c, &av) in cols.iter().zip(vals) {
                let base = c as usize * args.x_stride + args.c0;
                let xr = &args.xs[base..base + KB];
                for kk in 0..KB {
                    sums[kk] = av.mul_add_(xr[kk], sums[kk]);
                }
            }
            // SAFETY: same (tile × block) disjointness as `batch_csr`.
            unsafe { args.out.write_block(r, args.c0, sums) };
        }
        pos = seg_end;
        run += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_family_at_every_width() {
        let table = kernel_table::<f64>();
        assert_eq!(table.len(), KernelFamily::ALL.len() * RHS_WIDTHS.len());
        for family in KernelFamily::ALL {
            for kb in RHS_WIDTHS {
                let key = KernelKey { family, kb };
                assert!(lookup::<f64>(key).is_some(), "missing {key}");
                assert!(lookup::<f32>(key).is_some(), "missing {key} (f32)");
            }
        }
    }

    #[test]
    fn unregistered_widths_resolve_to_none() {
        for kb in [0usize, 3, 5, 16] {
            let key = KernelKey {
                family: KernelFamily::Csr,
                kb,
            };
            assert!(lookup::<f64>(key).is_none(), "{key} should be unregistered");
        }
    }

    #[test]
    fn keys_are_unique() {
        let table = kernel_table::<f32>();
        for (i, e) in table.iter().enumerate() {
            for other in &table[i + 1..] {
                assert_ne!(e.key, other.key, "duplicate registry key");
            }
        }
    }
}
