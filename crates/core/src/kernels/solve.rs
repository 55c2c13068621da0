//! Native row kernels for level-scheduled triangular solves.
//!
//! A triangular solve reads and writes the *same* vector `x`: row `i`
//! gathers `x[c]` for its off-diagonal columns (all completed in
//! earlier steps, by the dependency-order proof) and then writes
//! `x[i]`. Within one parallel step, workers write disjoint rows and
//! read only rows finished in earlier steps — the barrier in
//! `stepped_for_each` orders those writes before these reads — so a
//! shared read/write raw-pointer window ([`XVec`]) over `x` is sound
//! for exactly the schedules the prover certifies.
//!
//! The per-row arithmetic is *identical* to `spmv_sparse::sptrsv_seq`
//! (subtract off-diagonal products in storage order, one divide at the
//! end), so any dependency-respecting schedule reproduces the
//! sequential reference bit for bit.

use spmv_sparse::{prefetch_read, CsrMatrix, Scalar};

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

/// Rows ahead of a schedule-order walk whose columns and values are
/// hinted toward cache; twice as far ahead, the row's `row_ptr` pair.
const ROW_AHEAD: usize = 8;

/// Hint the CPU toward the rows a walk over `a` in `order` visits next:
/// `row_ptr` of `order[q + 2 * ROW_AHEAD]`, and the columns and values of
/// `order[q + ROW_AHEAD]`. Level order scatters consecutive rows over
/// the whole matrix, so without the hints every row of the build's
/// gather, the prover's walk and a value refresh is a chain of cache
/// misses (about a third of the gather's time on a 0.5M-row road
/// network). Hints only: nothing is read that the walk would not.
#[inline(always)]
pub(crate) fn prefetch_rows_ahead<T: Scalar>(a: &CsrMatrix<T>, order: &[u32], q: usize) {
    let row_ptr = a.row_ptr();
    if let Some(&r) = order.get(q + 2 * ROW_AHEAD) {
        prefetch_read(row_ptr, r as usize);
    }
    if let Some(&r) = order.get(q + ROW_AHEAD) {
        if let Some(&start) = row_ptr.get(r as usize) {
            prefetch_read(a.col_idx(), start);
            prefetch_read(a.values(), start);
        }
    }
}

/// A solve plan's schedule-ordered snapshot, borrowed: position `p`
/// (in the order the schedule's steps run) solves row `rows[p]`, whose
/// off-diagonal entries are `cols[entry_ptr[p]..entry_ptr[p + 1]]` with
/// values `vals[..]` in the same range, in the row's storage order, and
/// whose diagonal value is `diag[p]`.
#[derive(Clone, Copy)]
pub(crate) struct SnapshotRef<'a, T> {
    pub(crate) rows: &'a [u32],
    pub(crate) entry_ptr: &'a [usize],
    pub(crate) cols: &'a [u32],
    pub(crate) diag: &'a [T],
    pub(crate) vals: &'a [T],
}

/// Solve positions `[lo, hi)` of a schedule-ordered snapshot, streaming
/// its arrays front to back: `x[r] = (b[r] - Σ a[r,c] * x[c]) / a[r,r]`
/// with the products subtracted in the row's storage order — bit for bit
/// the arithmetic of `sptrsv_seq`, which skips the diagonal in place
/// where the snapshot has lifted it out.
///
/// # Safety
///
/// Every column of every position in `[lo, hi)` must be in bounds for
/// `x` and already finalised there (earlier steps, or earlier positions
/// of this worker's own serial chunk), and no other thread may touch
/// those positions' rows during this call — all of which the
/// dependency-order prover establishes for certified schedules. `rows`
/// must be in bounds for `x` and `b`.
pub(crate) unsafe fn solve_positions<T: Scalar>(
    snap: SnapshotRef<'_, T>,
    b: &[T],
    x: XVec<T>,
    lo: usize,
    hi: usize,
) {
    let rows = &snap.rows[lo..hi];
    let diag = &snap.diag[lo..hi];
    let ends = &snap.entry_ptr[lo + 1..=hi];
    let mut k = snap.entry_ptr[lo];
    for ((&r, &d), &end) in rows.iter().zip(diag).zip(ends) {
        let i = r as usize;
        let mut sum = b[i];
        for (&c, &v) in snap.cols[k..end].iter().zip(&snap.vals[k..end]) {
            // SAFETY: `c` is a proven dependency of row `i`, finalised
            // before this position runs (caller contract).
            sum = sum - v * unsafe { x.read(c as usize) };
        }
        k = end;
        // SAFETY: row `i` is owned by this worker in this step.
        unsafe { x.write(i, sum / d) };
    }
}
