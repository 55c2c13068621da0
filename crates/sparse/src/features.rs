//! Sparsity feature extraction — the paper's Table I parameters, which
//! feed the two-stage machine-learning model, plus the extended
//! histogram-based features that §IV-C proposes as future work and the
//! column-locality features that drive the bandwidth-tier format gate
//! (cache-blocked execution; see the plan layer).

use crate::csr::CsrMatrix;
use crate::histogram::RowHistogram;
use crate::scalar::Scalar;

/// Column-locality summary of a row subset — the cheap structural
/// signals the bottleneck classifier uses to spot scatter-heavy bins
/// (following the lightweight feature-based selection of Elafrou et
/// al.):
///
/// * **column span** (`max col − min col` per row) predicts how far the
///   `x` gathers of one row reach, hence whether they outgrow one
///   cache-blocking strip;
/// * **distinct cache lines per row** estimates how many `x` cache lines
///   one row touches — high values mean the gather is a scatter and the
///   working set, not the streamed matrix bytes, is the bottleneck.
///
/// Lines are counted as transitions of `col / (64 / sizeof(T))` in
/// storage order, which is exact for column-sorted rows and an upper
/// bound otherwise. Averages are over **all** listed rows (empty rows
/// contribute zero), so `avg · rows` reconstructs the exact total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColumnLocality {
    /// Mean per-row column span (`0.0` for empty rows / subsets).
    pub avg_col_span: f64,
    /// Largest per-row column span.
    pub max_col_span: usize,
    /// Mean distinct-cache-line count per row.
    pub avg_lines_per_row: f64,
}

impl ColumnLocality {
    /// Measure the listed rows of `a`. O(total nnz of the rows).
    pub fn of_rows<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32]) -> Self {
        let line = (64 / T::BYTES).max(1) as u32;
        let mut span_sum = 0.0f64;
        let mut max_span = 0usize;
        let mut lines_sum = 0.0f64;
        for &r in rows {
            let (cols, _) = a.row(r as usize);
            if cols.is_empty() {
                continue;
            }
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            let mut lines = 0u32;
            let mut prev_line = u32::MAX;
            for &c in cols {
                lo = lo.min(c);
                hi = hi.max(c);
                let l = c / line;
                if l != prev_line {
                    lines += 1;
                    prev_line = l;
                }
            }
            let span = (hi - lo) as usize;
            span_sum += span as f64;
            max_span = max_span.max(span);
            lines_sum += lines as f64;
        }
        let denom = rows.len().max(1) as f64;
        Self {
            avg_col_span: span_sum / denom,
            max_col_span: max_span,
            avg_lines_per_row: lines_sum / denom,
        }
    }

    /// Measure every row of `a`.
    pub fn of_matrix<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        Self::of_rows(a, &rows)
    }
}

/// Which feature vector to extract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureSet {
    /// Exactly Table I: `{M, N, NNZ, Var_NNZ, Avg_NNZ, Min_NNZ, Max_NNZ}`.
    TableI,
    /// Table I plus the row-NNZ histogram shares the paper's §IV-C
    /// ("Parameters") suggests to capture the ratio of short/medium/long
    /// rows.
    Extended,
}

/// The extracted feature parameters of one sparse matrix (Table I).
///
/// * Basic matrix info: `m` (rows), `n` (columns), `nnz`.
/// * Non-zero distribution info: variance, average, minimum and maximum of
///   non-zeros per row.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixFeatures {
    /// `M` — the number of rows.
    pub m: usize,
    /// `N` — the number of columns.
    pub n: usize,
    /// `NNZ` — the overall number of non-zeros.
    pub nnz: usize,
    /// `Var_NNZ` — the (population) variance of non-zeros per row.
    pub var_nnz: f64,
    /// `Avg_NNZ` — the average of non-zeros per row.
    pub avg_nnz: f64,
    /// `Min_NNZ` — the minimum of non-zeros per row.
    pub min_nnz: usize,
    /// `Max_NNZ` — the maximum of non-zeros per row.
    pub max_nnz: usize,
    /// Extended features (§IV-C): share of rows whose NNZ falls in each
    /// power-of-ten histogram bucket `[1, 10), [10, 100), [100, 1000), ≥1000`
    /// plus the share of empty rows. Empty unless [`FeatureSet::Extended`]
    /// was requested.
    pub hist_shares: Vec<f64>,
    /// `Avg_col_span` — mean per-row column span (bandwidth-tier gate
    /// input; see [`ColumnLocality`]). Always computed.
    pub avg_col_span: f64,
    /// `Max_col_span` — largest per-row column span.
    pub max_col_span: usize,
    /// `Avg_lines_per_row` — mean distinct-cache-lines-per-row estimate.
    pub avg_lines_per_row: f64,
}

impl MatrixFeatures {
    /// Extract features from a CSR matrix.
    pub fn extract<T: Scalar>(a: &CsrMatrix<T>, set: FeatureSet) -> Self {
        let m = a.n_rows();
        let nnz = a.nnz();
        let avg = if m == 0 { 0.0 } else { nnz as f64 / m as f64 };
        let mut min_nnz = usize::MAX;
        let mut max_nnz = 0usize;
        let mut var_acc = 0.0f64;
        for i in 0..m {
            let r = a.row_nnz(i);
            min_nnz = min_nnz.min(r);
            max_nnz = max_nnz.max(r);
            let d = r as f64 - avg;
            var_acc += d * d;
        }
        if m == 0 {
            min_nnz = 0;
        }
        let var_nnz = if m == 0 { 0.0 } else { var_acc / m as f64 };
        let hist_shares = match set {
            FeatureSet::TableI => Vec::new(),
            FeatureSet::Extended => {
                let h = RowHistogram::of_matrix(a);
                h.decade_shares()
            }
        };
        let locality = ColumnLocality::of_matrix(a);
        Self {
            m,
            n: a.n_cols(),
            nnz,
            var_nnz,
            avg_nnz: avg,
            min_nnz,
            max_nnz,
            hist_shares,
            avg_col_span: locality.avg_col_span,
            max_col_span: locality.max_col_span,
            avg_lines_per_row: locality.avg_lines_per_row,
        }
    }

    /// Flatten into the numeric attribute vector consumed by the learner,
    /// in the fixed order `{M, N, NNZ, Var_NNZ, Avg_NNZ, Min_NNZ, Max_NNZ}`
    /// (then histogram shares and column-locality features, when
    /// extended — the Table I vector is frozen so checked-in models keep
    /// their attribute count).
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = vec![
            self.m as f64,
            self.n as f64,
            self.nnz as f64,
            self.var_nnz,
            self.avg_nnz,
            self.min_nnz as f64,
            self.max_nnz as f64,
        ];
        if !self.hist_shares.is_empty() {
            v.extend_from_slice(&self.hist_shares);
            v.push(self.avg_col_span);
            v.push(self.max_col_span as f64);
            v.push(self.avg_lines_per_row);
        }
        v
    }

    /// Names for each position of [`to_vec`](Self::to_vec), used when
    /// printing learned rule-sets.
    pub fn attr_names(set: FeatureSet) -> Vec<&'static str> {
        let mut names = vec!["M", "N", "NNZ", "Var_NNZ", "Avg_NNZ", "Min_NNZ", "Max_NNZ"];
        if set == FeatureSet::Extended {
            names.extend_from_slice(&[
                "Share_empty",
                "Share_1_10",
                "Share_10_100",
                "Share_100_1000",
                "Share_ge_1000",
                "Avg_col_span",
                "Max_col_span",
                "Avg_lines_per_row",
            ]);
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::figure1_example;

    #[test]
    fn table1_features_of_figure1() {
        let a = figure1_example::<f64>();
        let f = MatrixFeatures::extract(&a, FeatureSet::TableI);
        assert_eq!(f.m, 4);
        assert_eq!(f.n, 4);
        assert_eq!(f.nnz, 8);
        assert_eq!(f.avg_nnz, 2.0);
        assert_eq!(f.min_nnz, 1);
        assert_eq!(f.max_nnz, 3);
        // rows have nnz {2,2,1,3}; var = ((0)^2+(0)^2+(1)^2+(1)^2)/4 = 0.5
        assert!((f.var_nnz - 0.5).abs() < 1e-12);
        assert!(f.hist_shares.is_empty());
    }

    #[test]
    fn extended_features_have_five_shares_summing_to_one() {
        let a = figure1_example::<f64>();
        let f = MatrixFeatures::extract(&a, FeatureSet::Extended);
        assert_eq!(f.hist_shares.len(), 5);
        let s: f64 = f.hist_shares.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_features_are_zero() {
        let a = crate::csr::CsrMatrix::<f64>::zeros(0, 0);
        let f = MatrixFeatures::extract(&a, FeatureSet::TableI);
        assert_eq!(f.m, 0);
        assert_eq!(f.nnz, 0);
        assert_eq!(f.avg_nnz, 0.0);
        assert_eq!(f.min_nnz, 0);
        assert_eq!(f.max_nnz, 0);
    }

    #[test]
    fn vector_order_is_stable() {
        let a = figure1_example::<f64>();
        let f = MatrixFeatures::extract(&a, FeatureSet::TableI);
        let v = f.to_vec();
        assert_eq!(
            v.len(),
            MatrixFeatures::attr_names(FeatureSet::TableI).len()
        );
        assert_eq!(v[0], 4.0); // M
        assert_eq!(v[2], 8.0); // NNZ
        assert_eq!(v[6], 3.0); // Max_NNZ
    }

    #[test]
    fn extended_vector_appends_locality_after_shares() {
        let a = figure1_example::<f64>();
        let f = MatrixFeatures::extract(&a, FeatureSet::Extended);
        let v = f.to_vec();
        assert_eq!(
            v.len(),
            MatrixFeatures::attr_names(FeatureSet::Extended).len()
        );
        assert_eq!(v[v.len() - 3], f.avg_col_span);
        assert_eq!(v[v.len() - 2], f.max_col_span as f64);
        assert_eq!(v[v.len() - 1], f.avg_lines_per_row);
    }

    #[test]
    fn column_locality_of_banded_and_scattered_rows() {
        // A diagonal: every row spans 0 columns and touches one line.
        let a = crate::csr::CsrMatrix::<f64>::identity(32);
        let loc = ColumnLocality::of_matrix(&a);
        assert_eq!(loc.avg_col_span, 0.0);
        assert_eq!(loc.max_col_span, 0);
        assert_eq!(loc.avg_lines_per_row, 1.0);

        // Two entries 8000 columns apart: span 8000, two distinct lines
        // (f64 line = 8 entries), averaged over 2 rows (one empty).
        let mut coo = crate::CooMatrix::<f64>::new(2, 8_001);
        coo.push(0, 0, 1.0);
        coo.push(0, 8_000, 1.0);
        let b = coo.to_csr();
        let loc = ColumnLocality::of_matrix(&b);
        assert_eq!(loc.max_col_span, 8_000);
        assert_eq!(loc.avg_col_span, 4_000.0);
        assert_eq!(loc.avg_lines_per_row, 1.0);

        // Empty subsets are all-zero, not NaN.
        let none = ColumnLocality::of_rows(&b, &[]);
        assert_eq!(none.avg_lines_per_row, 0.0);
    }

    #[test]
    fn uniform_rows_have_zero_variance() {
        let a = crate::csr::CsrMatrix::<f64>::identity(10);
        let f = MatrixFeatures::extract(&a, FeatureSet::TableI);
        assert_eq!(f.var_nnz, 0.0);
        assert_eq!(f.min_nnz, 1);
        assert_eq!(f.max_nnz, 1);
    }
}
