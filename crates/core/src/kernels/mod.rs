//! The kernel pool (step 3 of the framework): nine SpMV kernels with the
//! same semantics but different thread organisations (§III-B, Algorithms
//! 3–5).
//!
//! * [`KernelId::Serial`] — one work-item per row (Algorithm 3). Cheap
//!   for very short rows, catastrophic on long ones (divergence +
//!   uncoalesced walks).
//! * [`KernelId::Subvector`]`(X)` for `X ∈ {2,4,8,16,32,64,128}` — `X`
//!   work-items cooperate on a row through an LDS staging buffer and a
//!   segmented reduction (Algorithm 4).
//! * [`KernelId::Vector`] — the whole 256-work-item work-group on one row
//!   (Algorithm 5). Best for very long rows.
//!
//! Every kernel executes *functionally* (the output vector is really
//! computed) while tracing its architectural behaviour on the simulated
//! device; [`run_kernel`] returns both the result (in `u`) and the priced
//! [`LaunchStats`]. Native CPU implementations live in [`cpu`].

pub mod cpu;
mod serial;
pub(crate) mod solve;
mod subvector;
mod table;

use spmv_gpusim::{GpuDevice, LaunchStats};
use spmv_sparse::{CsrMatrix, Scalar};

/// Work-group size used by every kernel (the paper fixes 256).
pub const WORKGROUP_SIZE: usize = 256;

/// LDS staging factor of the subvector/vector kernels (the paper's
/// `factor = 4`).
pub const FACTOR: usize = 4;

/// Identifier of one kernel in the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// One work-item per row.
    Serial,
    /// `X` work-items per row (`X ∈ {2,4,8,16,32,64,128}`).
    Subvector(u32),
    /// One 256-work-item work-group per row.
    Vector,
}

/// The full nine-kernel pool, in increasing threads-per-row order.
pub const ALL_KERNELS: [KernelId; 9] = [
    KernelId::Serial,
    KernelId::Subvector(2),
    KernelId::Subvector(4),
    KernelId::Subvector(8),
    KernelId::Subvector(16),
    KernelId::Subvector(32),
    KernelId::Subvector(64),
    KernelId::Subvector(128),
    KernelId::Vector,
];

impl KernelId {
    /// Work-items assigned to one row.
    pub fn threads_per_row(self) -> usize {
        match self {
            KernelId::Serial => 1,
            KernelId::Subvector(x) => x as usize,
            KernelId::Vector => WORKGROUP_SIZE,
        }
    }

    /// Stable index in [`ALL_KERNELS`] (used as the ML class label).
    pub fn index(self) -> usize {
        ALL_KERNELS
            .iter()
            .position(|&k| k == self)
            .expect("kernel not in pool")
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> KernelId {
        ALL_KERNELS[i]
    }

    /// Short label (`serial`, `sub16`, `vector`).
    pub fn label(self) -> String {
        match self {
            KernelId::Serial => "serial".into(),
            KernelId::Subvector(x) => format!("sub{x}"),
            KernelId::Vector => "vector".into(),
        }
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Execute `kernel` over the rows listed in `rows` (ascending row ids, as
/// produced by [`crate::binning::Bins::expand`]) on the simulated device:
/// `u[r] = Σ_j A[r, j] · v[j]` for each `r ∈ rows`, other entries of `u`
/// untouched. Returns the priced launch.
///
/// # Panics
///
/// Panics if `v`/`u` have the wrong length or a row id is out of range
/// (debug builds).
pub fn run_kernel<T: Scalar>(
    device: &GpuDevice,
    a: &CsrMatrix<T>,
    rows: &[u32],
    kernel: KernelId,
    v: &[T],
    u: &mut [T],
) -> LaunchStats {
    assert_eq!(v.len(), a.n_cols(), "input vector length");
    assert_eq!(u.len(), a.n_rows(), "output vector length");
    match kernel {
        KernelId::Serial => serial::run(device, a, rows, v, u),
        KernelId::Subvector(x) => {
            assert!(
                (2..=128).contains(&x) && x.is_power_of_two(),
                "subvector width {x} not supported"
            );
            subvector::run(device, a, rows, x as usize, v, u)
        }
        KernelId::Vector => subvector::run(device, a, rows, WORKGROUP_SIZE, v, u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::csr::figure1_example;
    use spmv_sparse::gen;
    use spmv_sparse::gen::mixture::RowRegime;
    use spmv_sparse::scalar::approx_eq;

    fn check_all_kernels<T: Scalar>(a: &CsrMatrix<T>, v: &[T]) {
        let device = GpuDevice::kaveri();
        let reference = a.spmv_seq_alloc(v).unwrap();
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        for k in ALL_KERNELS {
            let mut u = vec![T::ZERO; a.n_rows()];
            let stats = run_kernel(&device, a, &rows, k, v, &mut u);
            assert!(stats.cycles > 0.0, "{k}: zero cycles");
            for i in 0..a.n_rows() {
                assert!(
                    approx_eq(u[i], reference[i], a.row_nnz(i)),
                    "{k}: row {i}: {} vs {}",
                    u[i],
                    reference[i]
                );
            }
        }
    }

    #[test]
    fn all_kernels_match_reference_on_figure1() {
        let a = figure1_example::<f64>();
        check_all_kernels(&a, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn all_kernels_match_reference_on_irregular_matrix() {
        let a = gen::mixture::<f32>(
            300,
            500,
            &[
                RowRegime::new(1, 3, 0.5),
                RowRegime::new(10, 80, 0.4),
                RowRegime::new(300, 450, 0.1),
            ],
            true,
            42,
        );
        let v: Vec<f32> = (0..a.n_cols()).map(|i| (i % 7) as f32 - 3.0).collect();
        check_all_kernels(&a, &v);
    }

    #[test]
    fn all_kernels_handle_empty_rows() {
        // A matrix with scattered empty rows.
        let a = gen::mixture::<f64>(
            100,
            100,
            &[RowRegime::new(1, 1, 0.5), RowRegime::new(2, 5, 0.5)],
            true,
            3,
        );
        // Remove some rows' entries by binning a submatrix: simpler — use
        // incidence with k=1 and prepend empty rows via COO.
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(50, 20);
        for i in (0..50).step_by(3) {
            coo.push(i, i % 20, 1.0 + i as f64);
        }
        let b = coo.to_csr();
        let v: Vec<f64> = (0..20).map(|i| i as f64).collect();
        check_all_kernels(&b, &v);
        let _ = a;
    }

    #[test]
    fn kernels_only_touch_requested_rows() {
        let a = figure1_example::<f64>();
        let device = GpuDevice::kaveri();
        let v = [1.0, 1.0, 1.0, 1.0];
        for k in ALL_KERNELS {
            let mut u = vec![-99.0; 4];
            run_kernel(&device, &a, &[1, 3], k, &v, &mut u);
            assert_eq!(u[0], -99.0, "{k} touched row 0");
            assert_eq!(u[2], -99.0, "{k} touched row 2");
            assert_ne!(u[1], -99.0, "{k} skipped row 1");
            assert_ne!(u[3], -99.0, "{k} skipped row 3");
        }
    }

    #[test]
    fn empty_row_list_is_a_noop_launch() {
        let a = figure1_example::<f32>();
        let device = GpuDevice::kaveri();
        let v = [1.0f32; 4];
        let mut u = [0.0f32; 4];
        for k in ALL_KERNELS {
            let stats = run_kernel(&device, &a, &[], k, &v, &mut u);
            assert_eq!(stats.workgroups, 0, "{k}");
        }
    }

    #[test]
    fn kernel_id_index_roundtrip() {
        for (i, k) in ALL_KERNELS.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(KernelId::from_index(i), *k);
        }
    }

    #[test]
    fn threads_per_row_is_monotone_over_the_pool() {
        let t: Vec<usize> = ALL_KERNELS.iter().map(|k| k.threads_per_row()).collect();
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t[0], 1);
        assert_eq!(t[8], 256);
    }

    #[test]
    fn serial_beats_vector_on_short_rows_and_vice_versa() {
        let device = GpuDevice::kaveri();
        // Short rows: 4 NNZ each.
        let short = gen::random_uniform::<f32>(20_000, 20_000, 4, 4, 1);
        // Long rows: ~600 NNZ each.
        let long = gen::random_uniform::<f32>(600, 4_000, 600, 600, 2);
        let cost = |a: &CsrMatrix<f32>, k: KernelId| {
            let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
            let v = vec![1.0f32; a.n_cols()];
            let mut u = vec![0.0f32; a.n_rows()];
            run_kernel(&device, a, &rows, k, &v, &mut u).cycles
        };
        let s_short = cost(&short, KernelId::Serial);
        let v_short = cost(&short, KernelId::Vector);
        assert!(
            s_short < v_short,
            "short rows: serial {s_short} !< vector {v_short}"
        );
        let s_long = cost(&long, KernelId::Serial);
        let v_long = cost(&long, KernelId::Vector);
        assert!(
            v_long < s_long,
            "long rows: vector {v_long} !< serial {s_long}"
        );
    }

    #[test]
    fn midsize_rows_prefer_a_subvector_kernel() {
        // ~48-NNZ rows: some subvector width should beat both extremes,
        // the core claim behind the nine-kernel pool.
        let device = GpuDevice::kaveri();
        let a = gen::random_uniform::<f32>(8_000, 20_000, 40, 56, 3);
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        let v = vec![1.0f32; a.n_cols()];
        let cost = |k: KernelId| {
            let mut u = vec![0.0f32; a.n_rows()];
            run_kernel(&device, &a, &rows, k, &v, &mut u).cycles
        };
        let serial = cost(KernelId::Serial);
        let vector = cost(KernelId::Vector);
        let best_sub = [2u32, 4, 8, 16, 32, 64, 128]
            .iter()
            .map(|&x| cost(KernelId::Subvector(x)))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_sub < serial && best_sub < vector,
            "sub {best_sub} vs serial {serial} / vector {vector}"
        );
    }
}
