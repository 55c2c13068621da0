//! The kernel bodies of the native plan executor, one per payload
//! family: the CSR row walk, the packed SELL chunk walk, and the
//! dense-run, banded and row-run traversals. Each is const-generic over
//! the register-blocked RHS width `KB` (1, 2, 4 or 8) and runs one
//! (tile, RHS-block) work item: it reads `KB` right-hand sides from a
//! row-major block and writes its tile's rows × its block's columns,
//! nothing else. SpMV is the same body at `KB = 1` over a stride-1 view
//! of `v`, so each family has one body for every width.
//!
//! The executor's per-item tile function in `cpu` is the only place a
//! body is chosen: it matches on the bin's payload and hands each body
//! its own payload type.

use super::cpu::BlockWriter;
use spmv_sparse::{BandSet, CsrMatrix, DenseRuns, PackedSell, RowRuns, Scalar};

/// Everything one kernel body needs to execute one (tile, RHS-block)
/// work item. `start..end` is the tile's span in the bin's own work
/// coordinates: chunk indices for a packed slab, positions into
/// `bin_rows` for every other payload.
pub(super) struct TileArgs<'a, T: Scalar> {
    /// The matrix (values are always read from here, in storage order).
    pub(super) a: &'a CsrMatrix<T>,
    /// The bin's **full** dispatch row list (bodies slice it by
    /// `start..end`; run-based bodies need the full list to clip runs).
    pub(super) bin_rows: &'a [u32],
    /// Tile start (inclusive), in the payload's work coordinates.
    pub(super) start: usize,
    /// Tile end (exclusive).
    pub(super) end: usize,
    /// The RHS block storage (`x` as a flat row-major slice).
    pub(super) xs: &'a [T],
    /// Row stride of `xs` (`1` for single-vector execution).
    pub(super) x_stride: usize,
    /// First RHS column this work item owns.
    pub(super) c0: usize,
    /// Output writer (stride-1 view of `u` for single-vector execution).
    pub(super) out: BlockWriter<T>,
}

/// CSR family: walk each row's entries once in ascending storage order
/// (bit-identical per column to the single-vector reference) and
/// broadcast every gathered element against the `KB` contiguous x-lanes
/// of the column block.
pub(super) fn csr<T: Scalar, const KB: usize>(args: &TileArgs<'_, T>) {
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
/// lock-step walk, a chunk's lanes advancing together with one `KB`-wide
/// row of sums each; SpMV runs the same walk at `KB = 1`.
pub(super) fn packed<T: Scalar, const KB: usize>(packed: &PackedSell<T>, args: &TileArgs<'_, T>) {
    let (start, end, xs, c0, out) = (args.start, args.end, args.xs, args.c0, args.out);
    packed.with_slab(|slab| {
        if KB == 1 && args.x_stride == 1 && out.stride() == 1 {
            // Single-vector view: the walk compiled for constant unit
            // strides gathers `x[col]` and stores `u[row]` with no
            // address multiply.
            // SAFETY: chunk ranges of one bin are disjoint, each packed
            // row belongs to exactly one chunk, and this item owns column
            // 0 (`c0 + KB <= x_stride`); same join argument as `csr`.
            let sink = move |r, sums| unsafe { out.write_block(r, 0, sums) };
            slab.spmm_chunks::<KB, _>(start, end, xs, 1, 0, sink);
        } else {
            // SAFETY: as above, with this item owning columns
            // `c0..c0 + KB`.
            let sink = move |r, sums| unsafe { out.write_block(r, c0, sums) };
            slab.spmm_chunks::<KB, _>(start, end, xs, args.x_stride, c0, sink);
        }
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
pub(super) fn dense_run<T: Scalar, const KB: usize>(runs: &DenseRuns, args: &TileArgs<'_, T>) {
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
                    // `csr`.
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
                    // `csr`.
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
        // SAFETY: same (tile × block) disjointness as `csr`.
        unsafe { args.out.write_block(r, args.c0, sums) };
        pos += 1;
    }
}

/// Banded family: each row's entries are exactly the in-range members of
/// the bin's diagonal-offset set (proven by `BandSet::check_against`),
/// so the kernel iterates offsets with **zero index traffic** — values
/// stream in storage order, which the proof makes ascending-column
/// order.
pub(super) fn banded<T: Scalar, const KB: usize>(band: &BandSet, args: &TileArgs<'_, T>) {
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
                    // `csr`.
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
                // SAFETY: same (tile × block) disjointness as `csr`.
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
        // SAFETY: same (tile × block) disjointness as `csr`.
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
pub(super) fn row_run<T: Scalar, const KB: usize>(rr: &RowRuns, args: &TileArgs<'_, T>) {
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
                // SAFETY: same (tile × block) disjointness as `csr`.
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
                // SAFETY: same (tile × block) disjointness as `csr`.
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
            // SAFETY: same (tile × block) disjointness as `csr`.
            unsafe { args.out.write_block(r, args.c0, sums) };
        }
        pos = seg_end;
        run += 1;
    }
}
