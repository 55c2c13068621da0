//! Serving-equivalence suite: every coalesced response must be
//! **bit-for-bit** identical to a standalone single-vector `execute`
//! through an identically-configured plan — across tenants, backend
//! worker counts {1, 2, 4}, and partial batch widths K ∈ {1, 3, 5, 8}.
//!
//! The test never asserts *how* requests were batched (that is a
//! timing outcome); it asserts that however they were batched, the
//! tenant cannot tell. Occupancy accounting (`Σ k·occupancy[k-1] =
//! completed`) is checked as a bookkeeping invariant.

use spmv_autotune::{
    BinningScheme, KernelId, NativeCpuBackend, PlanConfig, SpmvPlan, Strategy, VerifiedPlan,
};
use spmv_serve::{ServeConfig, SpmvServer};
use spmv_sparse::{gen, CsrMatrix};
use std::time::{Duration, Instant};

fn strategy() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

fn standalone_plan(a: &CsrMatrix<f64>, workers: usize) -> VerifiedPlan<f64> {
    SpmvPlan::compile_with(
        a,
        strategy(),
        Box::new(NativeCpuBackend::new().with_workers(workers)),
        PlanConfig::default(),
    )
    .verify(a)
    .expect("standalone plan must verify")
}

/// A deterministic request vector: varied magnitudes and signs so
/// accumulation-order differences would actually show up in the bits.
fn request_vector(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let v = ((i.wrapping_mul(2654435761) ^ salt.wrapping_mul(40503)) % 1000) as f64;
            (v - 500.0) / 64.0
        })
        .collect()
}

/// Submit `k` requests (mixed tenants, two matrices) against a server
/// with `workers` backend threads; every response must equal the
/// standalone execute bit-for-bit.
fn run_case(workers: usize, k: usize) {
    let a1 = gen::random_uniform::<f64>(600, 550, 1, 9, 42);
    let a2 = gen::random_uniform::<f64>(450, 550, 2, 14, 43);
    let plan1 = standalone_plan(&a1, workers);
    let plan2 = standalone_plan(&a2, workers);

    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(120),
        workers,
        ..ServeConfig::default()
    });
    server.register_matrix(1, a1.clone(), strategy());
    server.register_matrix(2, a2.clone(), strategy());

    // Warm both plans so the measured phase coalesces instead of
    // compiling inside the window.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (mid, a) in [(1u64, &a1), (2u64, &a2)] {
        server
            .submit(0, mid, vec![1.0; a.n_cols()], deadline)
            .unwrap()
            .wait()
            .unwrap();
    }

    let tickets: Vec<_> = (0..k)
        .map(|i| {
            let tenant = (i % 3) as u32;
            let mid = 1 + (i % 2) as u64;
            let n = if mid == 1 { a1.n_cols() } else { a2.n_cols() };
            let x = request_vector(n, workers * 1000 + i);
            (
                i,
                mid,
                x.clone(),
                server.submit(tenant, mid, x, deadline).unwrap(),
            )
        })
        .collect();

    for (i, mid, x, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        let (a, plan) = if mid == 1 {
            (&a1, &plan1)
        } else {
            (&a2, &plan2)
        };
        let mut expect = vec![0.0; a.n_rows()];
        plan.execute(a, &x, &mut expect).unwrap();
        assert_eq!(
            resp.y, expect,
            "workers {workers}, K {k}: request {i} (matrix {mid}, rode a \
             {}-wide batch) diverges from the standalone execute",
            resp.batch_k
        );
        assert!((1..=8).contains(&resp.batch_k));
    }

    let stats = server.stats();
    assert_eq!(stats.completed, (k + 2) as u64);
    let by_occupancy: u64 = stats
        .occupancy
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 + 1) * c)
        .sum();
    assert_eq!(
        by_occupancy, stats.completed,
        "occupancy histogram must account for every served request"
    );
    // Two matrices, one configuration each: exactly two plan builds,
    // everything after is a confirmed cache hit.
    assert_eq!(stats.cache.builds, 2);
    assert_eq!(stats.cache.collisions, 0);
    server.shutdown();
}

#[test]
fn coalesced_equals_standalone_one_worker() {
    for k in [1usize, 3, 5, 8] {
        run_case(1, k);
    }
}

#[test]
fn coalesced_equals_standalone_two_workers() {
    for k in [1usize, 3, 5, 8] {
        run_case(2, k);
    }
}

#[test]
fn coalesced_equals_standalone_four_workers() {
    for k in [1usize, 3, 5, 8] {
        run_case(4, k);
    }
}

/// Saturation-shaped traffic: far more requests than batch slots, all
/// for one matrix, from rotating tenants. Every response still equals
/// the standalone execute, and coalescing must actually engage (with a
/// wide window and 32 queued requests, at least one batch is > 1 wide).
#[test]
fn backlog_coalesces_and_stays_bit_for_bit() {
    let a = gen::random_uniform::<f64>(500, 500, 1, 7, 77);
    let plan = standalone_plan(&a, 2);
    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(60),
        workers: 2,
        ..ServeConfig::default()
    });
    server.register_matrix(9, a.clone(), strategy());
    let deadline = Instant::now() + Duration::from_secs(60);
    server
        .submit(0, 9, vec![1.0; 500], deadline)
        .unwrap()
        .wait()
        .unwrap();

    let tickets: Vec<_> = (0..32)
        .map(|i| {
            let x = request_vector(500, i);
            (
                x.clone(),
                server.submit(i as u32 % 4, 9, x, deadline).unwrap(),
            )
        })
        .collect();
    let mut widths = Vec::new();
    for (x, ticket) in tickets {
        let resp = ticket.wait().unwrap();
        let mut expect = vec![0.0; 500];
        plan.execute(&a, &x, &mut expect).unwrap();
        assert_eq!(resp.y, expect);
        widths.push(resp.batch_k);
    }
    assert!(
        widths.iter().any(|&w| w > 1),
        "32 queued same-matrix requests never coalesced: {widths:?}"
    );
    server.shutdown();
}

/// `a` with every third row (from row 1) emptied: the kernel must still
/// write those outputs, as zeros.
fn with_empty_rows(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for i in 0..a.n_rows() {
        if i % 3 != 1 {
            let span = a.row_ptr()[i]..a.row_ptr()[i + 1];
            col_idx.extend_from_slice(&a.col_idx()[span.clone()]);
            values.extend_from_slice(&a.values()[span]);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(a.n_rows(), a.n_cols(), row_ptr, col_idx, values).unwrap()
}

/// The dispatcher reuses one `x` and one `y` block across batches and
/// does not zero them, and each response is written over its request's
/// own vector. Interleave matrices of different shapes (more rows than
/// columns, fewer rows than columns, empty rows) at widths 1..=8, with a
/// full-width batch of the largest matrix right before each narrow
/// batch of the smallest: any element of a block or a response that a
/// batch fails to rewrite holds another batch's data and shows up here.
#[test]
fn reused_blocks_never_leak_between_batches() {
    let workers = 2;
    let big = gen::random_uniform::<f64>(1_500, 1_200, 1, 12, 51);
    let wide = gen::random_uniform::<f64>(400, 1_000, 2, 10, 52);
    let holes = with_empty_rows(&gen::random_uniform::<f64>(700, 700, 1, 9, 53));
    let small = gen::random_uniform::<f64>(120, 90, 1, 5, 54);
    let matrices = [&big, &wide, &holes, &small];
    let plans: Vec<_> = matrices
        .iter()
        .map(|a| standalone_plan(a, workers))
        .collect();

    let server = SpmvServer::start(ServeConfig {
        max_batch: 8,
        coalesce_window: Duration::from_millis(30),
        workers,
        ..ServeConfig::default()
    });
    for (id, a) in matrices.iter().enumerate() {
        server.register_matrix(id as u64, (*a).clone(), strategy());
    }

    let (big_id, wide_id, holes_id, small_id) = (0, 1, 2, 3);
    let mut schedule = Vec::new();
    for w in 1..=8 {
        schedule.extend([(big_id, 8), (small_id, w), (holes_id, 9 - w), (wide_id, w)]);
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    for (phase, &(id, width)) in schedule.iter().enumerate() {
        let a = matrices[id];
        let tickets: Vec<_> = (0..width)
            .map(|j| {
                let x = request_vector(a.n_cols(), phase * 8 + j);
                let ticket = server.submit(j as u32 % 3, id as u64, x.clone(), deadline);
                (x, ticket.unwrap())
            })
            .collect();
        for (j, (x, ticket)) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().unwrap();
            let mut expect = vec![0.0; a.n_rows()];
            plans[id].execute(a, &x, &mut expect).unwrap();
            assert_eq!(
                resp.y,
                expect,
                "phase {phase}: matrix {id} ({}x{}), request {j} of {width} (rode a \
                 {}-wide batch) diverges from the standalone execute",
                a.n_rows(),
                a.n_cols(),
                resp.batch_k
            );
        }
    }
    let stats = server.stats();
    assert_eq!(stats.cache.builds, 4);
    assert_eq!(stats.cache.collisions, 0);
    server.shutdown();
}
