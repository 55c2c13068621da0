//! Native row kernels for level-scheduled triangular solves.
//!
//! A triangular solve reads and writes the *same* vector `x`: row `i`
//! gathers `x[c]` for its off-diagonal columns (all completed in
//! earlier steps, by the dependency-order proof) and then writes
//! `x[i]`. Within one parallel step, workers write disjoint rows and
//! read only rows finished in earlier steps — the barrier in
//! `stepped_for_each` orders those writes before these reads — so a
//! shared read/write raw-pointer window ([`XVec`]) over `x` is sound
//! for exactly the schedules the prover certifies. The fused forward
//! half of a SymGS sweep also reads and writes a residual `r` through a
//! second window; it touches only `r[i]` of the row `i` it solves, so
//! the same row ownership covers it.
//!
//! The per-row arithmetic is *identical* to `spmv_sparse::sptrsv_seq`
//! (subtract off-diagonal products in storage order, one divide at the
//! end), so any dependency-respecting schedule reproduces the
//! sequential reference bit for bit. Rows of one level run as the lanes
//! of SELL-C chunks ([`solve_chunks`]): each lane keeps its own chain,
//! so lock-step execution is a change of loop shape, not of arithmetic.

use spmv_sparse::packed::SlabCol;
use spmv_sparse::{Scalar, SlabRef};

/// Shared read/write window over the solution vector `x`, passable to
/// a barrier-stepped scope. `Copy`, so each worker keeps its own
/// handle.
// SAFETY: the pointer is only read at indices completed in earlier
// barrier-separated steps and written at rows the dependency-order
// prover assigned to exactly one worker of the current step, so
// cross-thread use never races.
#[derive(Clone, Copy)]
pub(crate) struct XVec<T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    len: usize,
}

// SAFETY: see the type-level invariant above — disjoint-row writes and
// happens-before-ordered reads only, inside one `stepped_for_each`
// call, which returns only once every worker is done.
unsafe impl<T: Send> Send for XVec<T> {}
// SAFETY: as above; shared access is index-disjoint per step.
unsafe impl<T: Send> Sync for XVec<T> {}

impl<T: Scalar> XVec<T> {
    pub(crate) fn new(x: &mut [T]) -> Self {
        Self {
            ptr: x.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: x.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds for the vector this window was built
    /// from, and the slot must not be written concurrently: either it
    /// was finalised in an earlier barrier-separated step, or it is
    /// owned by this worker in the current step.
    #[inline]
    pub(crate) unsafe fn read(&self, i: usize) -> T {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len, "x read {i} out of bounds {}", self.len);
        // SAFETY: in bounds and race-free per the caller contract.
        unsafe { *self.ptr.add(i) }
    }

    /// # Safety
    ///
    /// `i` must be in bounds for the vector this window was built
    /// from, and no other thread may read or write index `i` during
    /// the current step (the dependency-order proof guarantees both
    /// for scheduled rows).
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, val: T) {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.len, "x write {i} out of bounds {}", self.len);
        // SAFETY: in bounds and exclusively owned per the caller
        // contract.
        unsafe { *self.ptr.add(i) = val };
    }
}

/// Solve chunks `[c0, c1)` of a solve plan's slab — positions in
/// schedule order, each lane a row's off-diagonals, the diagonals kept
/// apart — streaming its arrays front to back; `cols` is the slab's
/// column array at its width. Each lane computes
/// `x[i] = (b[i] - Σ a[i,c] * x[c]) / a[i,i]` with the products
/// subtracted in the row's storage order — bit for bit the arithmetic of
/// `sptrsv_seq`, which skips the diagonal in place where the slab keeps
/// it apart. The lanes of a chunk run in lock-step (see
/// [`solve_chunk`]), which changes no lane's operation order.
///
/// With `EMIT` the call is the forward half of a SymGS sweep and `r` is
/// live: on entry `r[i]` holds `(U·x_old)[i]` for each row `i` solved,
/// the row's right-hand side is `b[i] - r[i]` (the composed reference's
/// residual subtract), and beside the solve the same entries feed a
/// second chain per lane, a fused multiply-add from zero over the
/// finalised `x[c]` in storage order, whose result leaves as
/// `r[i] = b[i] - Σ a[i,c] * x[c]` — `spmv_seq` of the strict lower
/// triangle at the new iterate followed by the reference's subtract, so
/// the backward half reads its residual without a second pass over `L`.
/// Without `EMIT`, `r` is never touched.
///
/// # Safety
///
/// Every column of every lane in `[c0, c1)` must be in bounds for `x`
/// and already finalised there *before its chunk starts* (earlier
/// steps, or earlier chunks of this worker's own serial run — lanes of
/// one chunk read together and write together), and no other thread may
/// touch those lanes' rows during this call — all of which the
/// dependency-order prover establishes for certified schedules. `rows`
/// must be in bounds for `x` and `b`, and with `EMIT` for `r`, whose
/// slot `r[i]` belongs to the worker solving row `i` exactly as `x[i]`
/// does.
pub(crate) unsafe fn solve_chunks<T: Scalar, C: SlabCol, const EMIT: bool>(
    snap: SlabRef<'_, T>,
    cols: &[C],
    b: &[T],
    x: XVec<T>,
    r: XVec<T>,
    c0: usize,
    c1: usize,
) {
    let mut c = c0;
    while c < c1 {
        // SAFETY: forwarded caller contract, run by run.
        c = unsafe {
            match snap.chunk_ptr[c + 1] - snap.chunk_ptr[c] {
                1 => solve_run::<T, C, 1, EMIT>(snap, cols, b, x, r, c, c1),
                2 => solve_run::<T, C, 2, EMIT>(snap, cols, b, x, r, c, c1),
                4 => solve_run::<T, C, 4, EMIT>(snap, cols, b, x, r, c, c1),
                8 => solve_run::<T, C, 8, EMIT>(snap, cols, b, x, r, c, c1),
                lanes => unreachable!("chunk {c} has {lanes} lanes; the prover admits 1, 2, 4, 8"),
            }
        };
    }
}

/// Solve chunks from `c` on while they have `L` lanes (at least chunk
/// `c`, at most up to `c1`), and return where the run ended. One loop
/// per height keeps a run of equal chunks — a chain of one-row levels,
/// or a wide level — free of per-chunk dispatch.
///
/// # Safety
///
/// As [`solve_chunks`], for the chunks it runs.
// Not inlined: each height's loop keeps the registers to itself. Inlined
// into `solve_chunks` beside the other three, the one-lane loop spilled
// and a banded matrix's chain of one-row levels ran about 10% slower.
#[inline(never)]
unsafe fn solve_run<T: Scalar, C: SlabCol, const L: usize, const EMIT: bool>(
    snap: SlabRef<'_, T>,
    cols: &[C],
    b: &[T],
    x: XVec<T>,
    r: XVec<T>,
    mut c: usize,
    c1: usize,
) -> usize {
    // Chunks of a run are consecutive: each starts `L` positions and its
    // predecessor's slots after the last.
    let (mut p0, mut s0) = (snap.chunk_ptr[c], snap.slot_ptr[c]);
    loop {
        let s1 = s0 + snap.lens[p0] as usize * L;
        // SAFETY: forwarded caller contract, for chunk `c`.
        unsafe { solve_chunk::<T, C, L, EMIT>(snap, cols, s0..s1, p0, b, x, r) };
        (c, p0, s0) = (c + 1, p0 + L, s1);
        if c == c1 || snap.chunk_ptr[c + 1] - p0 != L {
            return c;
        }
    }
}

/// One chunk of `L` lanes at position `p0`, entries in `slots` of
/// `cols` and the slab's values. Every
/// lane keeps its own chain (`sum = b[i]`, then `sum - v·x[c]` in
/// storage order, one divide; with `EMIT` also its own multiply-add
/// chain), so lock-step changes no result. While every lane is active
/// (the first `lens[L - 1]` columns) a column is `L` contiguous slots:
/// gather first, arithmetic second, which the compiler turns into packed
/// operations. Lanes are length-sorted, so in the ragged tail the active
/// lanes at column `j` are the prefix with `len > j` and no padding slot
/// is ever read. With `L = 1` this is the plain row loop.
///
/// # Safety
///
/// As [`solve_chunks`], for this one chunk.
#[inline(always)]
unsafe fn solve_chunk<T: Scalar, C: SlabCol, const L: usize, const EMIT: bool>(
    snap: SlabRef<'_, T>,
    cols: &[C],
    slots: std::ops::Range<usize>,
    p0: usize,
    b: &[T],
    x: XVec<T>,
    r: XVec<T>,
) {
    let rows = &snap.rows[p0..p0 + L];
    let lens = &snap.lens[p0..p0 + L];
    let diag = &snap.diag[p0..p0 + L];
    let (cols, vals) = (&cols[slots.clone()], &snap.vals[slots]);
    let dense = lens[L - 1] as usize * L;
    let mut sums = [T::ZERO; L];
    for (s, &row) in sums.iter_mut().zip(rows) {
        let i = row as usize;
        *s = if EMIT {
            // SAFETY: row `i` is owned by this worker in this step.
            b[i] - unsafe { r.read(i) }
        } else {
            b[i]
        };
    }
    let mut emitted = [T::ZERO; L];
    for (cw, vw) in cols[..dense]
        .chunks_exact(L)
        .zip(vals[..dense].chunks_exact(L))
    {
        let mut xs = [T::ZERO; L];
        for (xl, &c) in xs.iter_mut().zip(cw) {
            // SAFETY: `c` is a proven dependency of this lane's row,
            // finalised before this chunk runs (caller contract).
            *xl = unsafe { x.read(c.idx()) };
        }
        for l in 0..L {
            sums[l] = sums[l] - vw[l] * xs[l];
            if EMIT {
                emitted[l] = vw[l].mul_add_(xs[l], emitted[l]);
            }
        }
    }
    let mut active = L;
    let tail = cols[dense..]
        .chunks_exact(L)
        .zip(vals[dense..].chunks_exact(L));
    for (j, (cw, vw)) in (dense / L..).zip(tail) {
        while active > 0 && lens[active - 1] as usize <= j {
            active -= 1;
        }
        for l in 0..active {
            // SAFETY: lane `l < active` has `len > j`, so this slot is
            // its `j`-th entry, a proven dependency (caller contract).
            let xc = unsafe { x.read(cw[l].idx()) };
            sums[l] = sums[l] - vw[l] * xc;
            if EMIT {
                emitted[l] = vw[l].mul_add_(xc, emitted[l]);
            }
        }
    }
    for l in 0..L {
        let i = rows[l] as usize;
        // SAFETY: row `i` is owned by this worker in this step, in `x`
        // and (with `EMIT`) in `r`.
        unsafe {
            x.write(i, sums[l] / diag[l]);
            if EMIT {
                r.write(i, b[i] - emitted[l]);
            }
        }
    }
}
