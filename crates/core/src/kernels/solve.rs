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

use spmv_sparse::Scalar;

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

/// Solve the listed rows against the plan's structure snapshot:
/// `x[r] = (b[r] - Σ_{c != r} a[r,c] * x[c]) / a[r,r]`, products
/// subtracted in storage order — bit-for-bit the arithmetic of
/// `sptrsv_seq`. A structurally missing diagonal (never present in a
/// verified schedule) divides by `T::ONE`, keeping the output finite.
///
/// # Safety
///
/// Every off-diagonal column of every listed row must already be
/// finalised in `x` (earlier steps, or earlier in this worker's own
/// serial chunk), no other thread may touch the listed rows during
/// this call, and `row_ptr`/`col_idx` must describe a structure whose
/// rows and columns are in bounds for `x`/`b`/`values` — all of which
/// the dependency-order prover establishes for certified schedules.
pub(crate) unsafe fn solve_rows<T: Scalar>(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[T],
    b: &[T],
    x: XVec<T>,
    rows: &[u32],
) {
    for &r in rows {
        let i = r as usize;
        let (start, end) = (row_ptr[i], row_ptr[i + 1]);
        let cols = &col_idx[start..end];
        let vals = &values[start..end];
        let mut sum = b[i];
        let mut diag = T::ONE;
        for (&c, &v) in cols.iter().zip(vals) {
            let ci = c as usize;
            if ci == i {
                diag = v;
            } else {
                // SAFETY: `ci` is a proven dependency of row `i`,
                // finalised before this step (caller contract).
                sum = sum - v * unsafe { x.read(ci) };
            }
        }
        // SAFETY: row `i` is owned by this worker in this step.
        unsafe { x.write(i, sum / diag) };
    }
}
