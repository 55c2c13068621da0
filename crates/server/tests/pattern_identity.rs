//! A served plan is bound to the whole sparsity pattern, columns
//! included. Two circulant bands of equal width share `row_ptr` exactly,
//! so an identity that hashed only the row structure would hand the
//! second matrix the first one's plan (wrong in every row) or make the
//! two fight over one cache slot, rebuilding it in turn.

use spmv_autotune::{BinningScheme, KernelId, Strategy};
use spmv_serve::{ServeConfig, SpmvServer};
use spmv_sparse::CsrMatrix;
use std::time::{Duration, Instant};

const N: usize = 4096;

/// `N × N` circulant band with offsets `{-d, 0, +d}` (mod `N`): three
/// entries in every row, so `row_ptr` is the same for every `d`.
fn circulant(d: usize) -> CsrMatrix<f64> {
    let mut col_idx = Vec::with_capacity(3 * N);
    for i in 0..N {
        let mut cols = [(i + N - d) % N, i, (i + d) % N].map(|c| c as u32);
        cols.sort_unstable();
        col_idx.extend(cols);
    }
    let row_ptr = (0..=N).map(|i| 3 * i).collect();
    let values = (0..3 * N).map(|k| (k % 7) as f64 * 0.5 - 1.5).collect();
    CsrMatrix::from_parts(N, N, row_ptr, col_idx, values).unwrap()
}

fn request(salt: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 37 + salt * 11) % 101) as f64 / 8.0 - 6.0)
        .collect()
}

#[test]
fn bands_sharing_row_ptr_get_their_own_plans() {
    let (a, b) = (circulant(1), circulant(7));
    assert_eq!(a.row_ptr(), b.row_ptr(), "the pair must share row_ptr");
    assert_ne!(a.col_idx(), b.col_idx());
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Serial; 8],
    };
    let server = SpmvServer::start(ServeConfig {
        coalesce_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    server.register_matrix(1, a.clone(), strategy.clone());
    server.register_matrix(2, b.clone(), strategy);

    let deadline = Instant::now() + Duration::from_secs(60);
    for round in 0..6 {
        for (id, m) in [(1u64, &a), (2u64, &b)] {
            let x = request(round * 2 + id as usize);
            let mut want = vec![0.0; N];
            m.spmv_seq(&x, &mut want).unwrap();
            let got = server.submit(0, id, x, deadline).unwrap().wait().unwrap();
            let wrong = got.y.iter().zip(&want).filter(|(g, w)| g != w).count();
            assert_eq!(wrong, 0, "matrix {id}, round {round}: {wrong} rows differ");
        }
    }
    let cache = server.stats().cache;
    assert_eq!(cache.builds, 2, "one warm plan per pattern: {cache:?}");
    assert_eq!(
        cache.collisions, 0,
        "the two patterns fought over one slot: {cache:?}"
    );
    server.shutdown();
}
