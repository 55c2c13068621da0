//! Structure-exploiting bin specializations: the pack-time *detectors*
//! and *structural proofs* behind the pattern-specialized kernel table.
//!
//! Where [`crate::packed`] streams one 16- or 32-bit column per slot, the
//! three shapes here eliminate that stream for bins whose sparsity has exploitable
//! structure:
//!
//! * [`DenseRuns`] — rows whose columns form contiguous runs execute as
//!   strided dense AXPYs: the kernel gathers `x[start..start + len]`
//!   directly, no per-element index load.
//! * [`BandSet`] — bins whose entries all sit on a fixed small set of
//!   diagonal offsets (`col - row`) execute offset-wise: the only index
//!   metadata is the offset list itself, shared by every row.
//! * [`RowRuns`] — runs of consecutive bin rows with *identical* column
//!   patterns (block-structured matrices) load the shared pattern once
//!   per run instead of once per row.
//!
//! Each struct is built by a `detect` constructor that derives the
//! structure from the CSR arrays (returning `None` when the bin does not
//! qualify), and carries a `check_against` prover that *re-derives* the
//! same structure at verification time and compares it field for field —
//! the same re-derivation discipline as [`PackedSell::check_against`].
//! A payload that passes licenses every gather its kernel performs:
//! the kernels read `x` only at positions the proof tied to real CSR
//! entries, whose columns are bounded by `n_cols` by construction.
//!
//! All three kernels consume a row's stored values in exact CSR storage
//! order, so execution is bit-for-bit identical to the sequential CSR
//! reference — the detectors constrain *where* the columns are, never
//! reorder the FMA chain.
//!
//! [`PackedSell::check_against`]: crate::packed::PackedSell::check_against

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::collections::BTreeSet;

/// Contiguous-run decomposition of a bin's rows: row `i` of the bin owns
/// runs `row_off[i]..row_off[i + 1]`, each a `(start_col, len)` stretch
/// of consecutive columns. Values are consumed from the CSR value array
/// in storage order, so no value copy is materialised.
#[derive(Clone, Debug)]
pub struct DenseRuns {
    /// Per-bin-row prefix offsets into `runs` (`rows.len() + 1` entries).
    row_off: Vec<u32>,
    /// `(first column, length)` of every maximal contiguous run, in
    /// storage order.
    runs: Vec<(u32, u32)>,
    /// Column count the run bounds were proven against.
    n_cols: usize,
    /// Total non-zeros covered (Σ run lengths).
    nnz: usize,
}

/// Decompose one CSR row into its maximal contiguous runs, in storage
/// order: a run extends while the next stored column is exactly the
/// previous plus one. No sortedness requirement — an unsorted row simply
/// yields short runs — and the decomposition never reorders entries.
fn row_runs(cols: &[u32], mut f: impl FnMut(u32, u32)) {
    let mut i = 0usize;
    while i < cols.len() {
        let start = cols[i];
        let mut len = 1u32;
        while i + (len as usize) < cols.len() && cols[i + len as usize] == start.wrapping_add(len) {
            len += 1;
        }
        f(start, len);
        i += len as usize;
    }
}

impl DenseRuns {
    /// Derive the run decomposition of `rows` and keep it when the runs
    /// are long enough to pay: average run length (`nnz / n_runs`) at
    /// least `min_avg_run`. Returns `None` for empty bins or bins whose
    /// runs are too short (the per-run bookkeeping would cost more than
    /// the index loads it saves).
    pub fn detect<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32], min_avg_run: usize) -> Option<Self> {
        if rows.is_empty() || min_avg_run == 0 {
            return None;
        }
        let mut row_off = Vec::with_capacity(rows.len() + 1);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut nnz = 0usize;
        row_off.push(0u32);
        for &r in rows {
            let (cols, _) = a.row(r as usize);
            nnz += cols.len();
            row_runs(cols, |start, len| runs.push((start, len)));
            row_off.push(runs.len() as u32);
        }
        if nnz == 0 || nnz < runs.len().saturating_mul(min_avg_run) {
            return None;
        }
        Some(Self {
            row_off,
            runs,
            n_cols: a.n_cols(),
            nnz,
        })
    }

    /// Re-derive the run decomposition from `(a, rows)` and require it to
    /// match this payload field for field — the verification-time proof
    /// that every `x[start..start + len]` gather the kernel performs maps
    /// to real CSR entries of the claimed bin (and is therefore bounded
    /// by `n_cols`).
    pub fn check_against<T: Scalar>(&self, a: &CsrMatrix<T>, rows: &[u32]) -> Result<(), String> {
        if self.n_cols != a.n_cols() {
            return Err(format!(
                "payload proven for {} columns, matrix has {}",
                self.n_cols,
                a.n_cols()
            ));
        }
        if self.row_off.len() != rows.len() + 1 {
            return Err(format!(
                "row offsets cover {} rows, bin has {}",
                self.row_off.len().saturating_sub(1),
                rows.len()
            ));
        }
        if self.row_off.first() != Some(&0) {
            return Err("row offsets do not start at 0".into());
        }
        let mut k = 0usize;
        let mut nnz = 0usize;
        for (i, &r) in rows.iter().enumerate() {
            let (cols, _) = a.row(r as usize);
            nnz += cols.len();
            let mut bad: Option<String> = None;
            row_runs(cols, |start, len| {
                if bad.is_some() {
                    return;
                }
                if self.runs.get(k) != Some(&(start, len)) {
                    bad = Some(format!(
                        "row {r} (bin position {i}): derived run ({start}, {len}) at slot {k} \
                         disagrees with stored {:?}",
                        self.runs.get(k)
                    ));
                }
                k += 1;
            });
            if let Some(detail) = bad {
                return Err(detail);
            }
            if self.row_off[i + 1] as usize != k {
                return Err(format!(
                    "row {r} (bin position {i}): offset {} != derived run count {k}",
                    self.row_off[i + 1]
                ));
            }
        }
        if k != self.runs.len() {
            return Err(format!(
                "payload stores {} runs, derivation found {k}",
                self.runs.len()
            ));
        }
        if nnz != self.nnz {
            return Err(format!("payload claims {} nnz, rows hold {nnz}", self.nnz));
        }
        Ok(())
    }

    /// Per-bin-row prefix offsets into [`runs`](Self::runs).
    pub fn row_off(&self) -> &[u32] {
        &self.row_off
    }

    /// Every `(first column, length)` run, in storage order.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// Non-zeros covered.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Modelled index traffic of one execution: one `(start, len)` pair
    /// of `u32`s per run (vs 4 bytes per non-zero for CSR).
    pub fn index_stream_bytes(&self) -> usize {
        self.runs.len() * 8
    }
}

/// Diagonal/banded structure of a bin: a fixed set of offsets `col - row`
/// such that every row's columns are *exactly* the in-range offsets, in
/// ascending order. Execution iterates the offset list per row — zero
/// per-non-zero index traffic.
#[derive(Clone, Debug)]
pub struct BandSet {
    /// Distinct diagonal offsets, strictly ascending.
    offsets: Vec<i64>,
    /// Column count the offset bounds were proven against.
    n_cols: usize,
    /// Total non-zeros covered.
    nnz: usize,
}

impl BandSet {
    /// Derive the offset set of `rows` and keep it when the bin is
    /// *band-complete*: at most `max_offsets` distinct offsets, and every
    /// row's stored columns are exactly the ascending in-range members of
    /// `{row + o}`. Rows clipped at the matrix edge (a band running off
    /// column 0 or `n_cols`) stay complete — out-of-range offsets are
    /// simply absent. Returns `None` for empty bins, too many offsets, or
    /// any row deviating from the pattern.
    pub fn detect<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32], max_offsets: usize) -> Option<Self> {
        if rows.is_empty() || max_offsets == 0 {
            return None;
        }
        let mut set: BTreeSet<i64> = BTreeSet::new();
        let mut nnz = 0usize;
        for &r in rows {
            let (cols, _) = a.row(r as usize);
            nnz += cols.len();
            for &c in cols {
                set.insert(c as i64 - r as i64);
                if set.len() > max_offsets {
                    return None;
                }
            }
        }
        if nnz == 0 {
            return None;
        }
        let cand = Self {
            offsets: set.into_iter().collect(),
            n_cols: a.n_cols(),
            nnz,
        };
        cand.rows_complete(a, rows).is_ok().then_some(cand)
    }

    /// Re-derive band-completeness from `(a, rows)`: the offset list is
    /// strictly ascending, every row's columns are exactly the ascending
    /// in-range `{row + o}` sequence, and the totals match — so the
    /// kernel's `x[(row + o)]` gathers are exactly the bin's CSR entries
    /// (in-range by construction of the expected sequence).
    pub fn check_against<T: Scalar>(&self, a: &CsrMatrix<T>, rows: &[u32]) -> Result<(), String> {
        if self.n_cols != a.n_cols() {
            return Err(format!(
                "payload proven for {} columns, matrix has {}",
                self.n_cols,
                a.n_cols()
            ));
        }
        if self.offsets.is_empty() {
            return Err("empty offset set".into());
        }
        if self.offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err("offset list not strictly ascending".into());
        }
        self.rows_complete(a, rows)
    }

    /// The completeness core shared by detection and verification: every
    /// row's stored columns equal the ascending in-range offset pattern.
    fn rows_complete<T: Scalar>(&self, a: &CsrMatrix<T>, rows: &[u32]) -> Result<(), String> {
        let n = self.n_cols as i64;
        let mut nnz = 0usize;
        for &r in rows {
            let (cols, _) = a.row(r as usize);
            nnz += cols.len();
            let mut j = 0usize;
            for &o in &self.offsets {
                let c = r as i64 + o;
                if c < 0 || c >= n {
                    continue;
                }
                if cols.get(j).copied() != Some(c as u32) {
                    return Err(format!(
                        "row {r}: expected column {c} at position {j}, found {:?}",
                        cols.get(j)
                    ));
                }
                j += 1;
            }
            if j != cols.len() {
                return Err(format!(
                    "row {r}: {} stored entries but the offset pattern covers {j}",
                    cols.len()
                ));
            }
        }
        if nnz != self.nnz {
            return Err(format!("payload claims {} nnz, rows hold {nnz}", self.nnz));
        }
        Ok(())
    }

    /// The distinct diagonal offsets, strictly ascending.
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Non-zeros covered.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Modelled index traffic of one execution: the offset list itself —
    /// independent of `nnz`, which is the whole point.
    pub fn index_stream_bytes(&self) -> usize {
        self.offsets.len() * 8
    }
}

/// Identical-row-run structure of a bin: maximal runs of consecutive
/// *bin positions* whose rows store identical column lists. The kernel
/// loads the shared pattern once per run and streams each run row's
/// values against it — index traffic shrinks by the run length.
#[derive(Clone, Debug)]
pub struct RowRuns {
    /// Run boundaries as positions into the bin's row list: `n_runs + 1`
    /// entries, first `0`, last `rows.len()`.
    run_off: Vec<u32>,
    /// Modelled index bytes of one execution: Σ head-row nnz × 4.
    index_bytes: usize,
}

/// Derive the maximal identical-pattern run boundaries of `rows`.
fn derive_row_runs<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32]) -> (Vec<u32>, usize) {
    let mut run_off = vec![0u32];
    let mut index_bytes = 0usize;
    let mut i = 0usize;
    while i < rows.len() {
        let (head_cols, _) = a.row(rows[i] as usize);
        let mut j = i + 1;
        while j < rows.len() && a.row(rows[j] as usize).0 == head_cols {
            j += 1;
        }
        index_bytes += head_cols.len() * 4;
        run_off.push(j as u32);
        i = j;
    }
    (run_off, index_bytes)
}

impl RowRuns {
    /// Derive the identical-row runs of `rows` and keep them when they
    /// are long enough to pay: average run length (`rows / n_runs`) at
    /// least `min_avg_run`. Returns `None` for empty bins or bins whose
    /// rows are mostly unique (the pattern reuse would be nil).
    pub fn detect<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32], min_avg_run: usize) -> Option<Self> {
        if rows.is_empty() || min_avg_run == 0 {
            return None;
        }
        let (run_off, index_bytes) = derive_row_runs(a, rows);
        let n_runs = run_off.len() - 1;
        if n_runs == 0 || rows.len() < n_runs.saturating_mul(min_avg_run) {
            return None;
        }
        Some(Self {
            run_off,
            index_bytes,
        })
    }

    /// Re-derive the maximal run boundaries from `(a, rows)` and require
    /// exact agreement — which proves both that every run's rows really
    /// share one column pattern (the reuse the kernel performs) and that
    /// the modelled index traffic is honest.
    pub fn check_against<T: Scalar>(&self, a: &CsrMatrix<T>, rows: &[u32]) -> Result<(), String> {
        let (run_off, index_bytes) = derive_row_runs(a, rows);
        if run_off != self.run_off {
            let k = run_off
                .iter()
                .zip(&self.run_off)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| run_off.len().min(self.run_off.len()));
            return Err(format!(
                "run boundaries disagree with derivation at slot {k}: stored {:?}, derived {:?}",
                self.run_off.get(k),
                run_off.get(k)
            ));
        }
        if index_bytes != self.index_bytes {
            return Err(format!(
                "payload claims {} index bytes, derivation gives {index_bytes}",
                self.index_bytes
            ));
        }
        Ok(())
    }

    /// Run boundaries as positions into the bin's row list.
    pub fn run_off(&self) -> &[u32] {
        &self.run_off
    }

    /// Number of identical-pattern runs.
    pub fn n_runs(&self) -> usize {
        self.run_off.len() - 1
    }

    /// Modelled index traffic of one execution (one pattern load per
    /// run).
    pub fn index_stream_bytes(&self) -> usize {
        self.index_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn all_rows(m: usize) -> Vec<u32> {
        (0..m as u32).collect()
    }

    #[test]
    fn banded_matrix_is_band_complete() {
        let a = gen::banded::<f64>(500, 3, 7);
        let rows = all_rows(a.n_rows());
        let band = BandSet::detect(&a, &rows, 16).expect("banded generator qualifies");
        assert_eq!(band.offsets(), &[-3, -2, -1, 0, 1, 2, 3]);
        assert_eq!(band.nnz(), a.nnz());
        band.check_against(&a, &rows).unwrap();
        // Too-small offset budget refuses.
        assert!(BandSet::detect(&a, &rows, 6).is_none());
    }

    #[test]
    fn band_detection_rejects_incomplete_bands() {
        // One entry knocked off the pattern defeats completeness.
        let a = gen::banded::<f64>(100, 2, 3);
        let mut coo = crate::CooMatrix::<f64>::new(100, 100);
        for i in 0..100usize {
            for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
                if i == 50 && a.col_idx()[k] as usize == 51 {
                    continue; // drop (50, 51)
                }
                coo.push(i, a.col_idx()[k] as usize, a.values()[k]);
            }
        }
        let b: CsrMatrix<f64> = coo.to_csr();
        assert!(BandSet::detect(&b, &all_rows(100), 16).is_none());
    }

    #[test]
    fn band_proof_rejects_tampering() {
        let a = gen::banded::<f64>(200, 2, 1);
        let rows = all_rows(200);
        let band = BandSet::detect(&a, &rows, 16).unwrap();
        // Same pattern, one entry moved: the re-derivation must notice.
        let mut coo = crate::CooMatrix::<f64>::new(200, 200);
        for i in 0..200usize {
            for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
                let c = a.col_idx()[k] as usize;
                let c = if i == 70 && c == 72 { 75 } else { c };
                coo.push(i, c, a.values()[k]);
            }
        }
        let b: CsrMatrix<f64> = coo.to_csr();
        assert!(band.check_against(&b, &rows).is_err());
        // Wrong row list (subset) breaks the nnz total.
        assert!(band.check_against(&a, &rows[..100]).is_err());
    }

    #[test]
    fn dense_runs_cover_banded_rows_exactly() {
        let a = gen::banded::<f64>(300, 4, 5);
        let rows = all_rows(300);
        let runs = DenseRuns::detect(&a, &rows, 4).expect("9-wide rows qualify");
        // Interior rows are one maximal run each.
        assert_eq!(runs.runs().len(), 300);
        assert_eq!(runs.nnz(), a.nnz());
        assert!(runs.index_stream_bytes() < a.nnz() * 4);
        runs.check_against(&a, &rows).unwrap();
        // A scatter matrix's runs are too short.
        let p = gen::powerlaw::<f64>(400, 2, 60, 2.0, 9);
        assert!(DenseRuns::detect(&p, &all_rows(400), 4).is_none());
    }

    #[test]
    fn dense_run_proof_rejects_wrong_rows_and_shrunk_columns() {
        let a = gen::banded::<f64>(120, 5, 2);
        let rows = all_rows(120);
        let runs = DenseRuns::detect(&a, &rows, 4).unwrap();
        let mut reversed = rows.clone();
        reversed.reverse();
        assert!(runs.check_against(&a, &reversed).is_err());
        // Column-shrunk matrix of the same pattern must be rejected (the
        // run bounds were proven against the wider n_cols).
        let narrow = CsrMatrix::from_parts(
            120,
            a.n_cols() - 1,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        );
        if let Ok(narrow) = narrow {
            assert!(runs.check_against(&narrow, &rows).is_err());
        }
    }

    #[test]
    fn row_runs_find_block_structure() {
        let a = gen::block_structured::<f64>(40, 8, 1, 3);
        let rows = all_rows(a.n_rows());
        let rr = RowRuns::detect(&a, &rows, 4).expect("block rows share patterns");
        assert!(rr.n_runs() <= 40, "{} runs for 40 blocks", rr.n_runs());
        assert!(rr.index_stream_bytes() * 4 <= a.nnz() * 4);
        rr.check_against(&a, &rows).unwrap();
        // Unique-pattern rows do not qualify.
        let p = gen::powerlaw::<f64>(300, 2, 40, 2.0, 5);
        assert!(RowRuns::detect(&p, &all_rows(300), 4).is_none());
    }

    #[test]
    fn row_run_proof_rejects_boundary_tampering() {
        let a = gen::block_structured::<f64>(20, 6, 1, 11);
        let rows = all_rows(a.n_rows());
        let rr = RowRuns::detect(&a, &rows, 3).unwrap();
        // A permuted row list breaks the run derivation.
        let mut shuffled = rows.clone();
        shuffled.swap(0, 60);
        assert!(rr.check_against(&a, &shuffled).is_err());
    }
}
