//! A native SpMV execute allocates nothing: the plan executor runs the
//! tile queue in place, with no per-call kernel table or item list. A
//! counting global allocator watches repeated checked and verified
//! executes of plans holding every payload kind (CSR, packed,
//! cache-blocked, banded, dense-run, row-run). The one exception is the
//! cache-blocked strip walk, whose per-worker cursor and partial-sum
//! buffers live for one execute: at most two allocations per worker.
//!
//! This file holds one test on purpose: the allocator counts the whole
//! process, so a second test running alongside would be counted too.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::{CooMatrix, CsrMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    /// # Safety
    ///
    /// `GlobalAlloc::alloc`'s contract, forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    ///
    /// `GlobalAlloc::dealloc`'s contract, forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// # Safety
    ///
    /// `GlobalAlloc::realloc`'s contract, forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn coarse() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

/// Runs of eight identical-pattern rows with scattered columns.
fn row_runs() -> CsrMatrix<f64> {
    let mut coo = CooMatrix::<f64>::new(512, 4_000);
    for r in 0..512 {
        for j in 0..12 {
            coo.push(r, (j * 331 + (r / 8) * 97) % 4_000, 1.0 + r as f64);
        }
    }
    coo.to_csr()
}

#[test]
fn native_spmv_execute_allocates_nothing() {
    // Each matrix with the config that routes it to one payload kind,
    // named by the start of that format's label.
    let cases: Vec<(CsrMatrix<f64>, PlanConfig, &str)> = vec![
        (
            gen::random_uniform(700, 900, 2, 6, 11),
            PlanConfig {
                pack: false,
                cache_block: false,
                ..PlanConfig::default()
            },
            "csr",
        ),
        (
            gen::random_uniform(600, 600, 4, 4, 12),
            PlanConfig::default(),
            "sell-",
        ),
        (
            gen::powerlaw(800, 4, 120, 2.0, 9),
            PlanConfig {
                pack: false,
                l2_bytes: 32 * std::mem::size_of::<f64>(),
                scatter_lines_per_row: 2.0,
                ..PlanConfig::default()
            },
            "blocked-csr-",
        ),
        (gen::banded(1_500, 3, 13), PlanConfig::default(), "banded-"),
        (
            gen::banded(1_500, 3, 14),
            PlanConfig {
                band_max_offsets: 0,
                min_dense_run: 2,
                ..PlanConfig::default()
            },
            "dense-run",
        ),
        (
            row_runs(),
            PlanConfig {
                llc_bytes: 0,
                ..PlanConfig::default()
            },
            "row-run",
        ),
    ];
    for (a, config, label) in cases {
        let plan = SpmvPlan::compile_with(&a, coarse(), Box::new(NativeCpuBackend::new()), config);
        let formats: Vec<BinFormat> = plan.dispatch().iter().map(|d| d.format).collect();
        assert!(
            formats.iter().any(|f| f.to_string().starts_with(label)),
            "{label}: formats {formats:?}"
        );
        let v: Vec<f64> = (0..a.n_cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut u = vec![0.0; a.n_rows()];
        let verified = plan.verify(&a).expect("plan must verify");
        // Warm up: the worker team starts on first use.
        for _ in 0..3 {
            verified.execute_unchecked(&a, &v, &mut u).unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..5 {
            verified.execute_unchecked(&a, &v, &mut u).unwrap();
            verified.execute(&a, &v, &mut u).unwrap();
        }
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let blocked = formats
            .iter()
            .any(|f| matches!(f, BinFormat::CacheBlockedCsr { .. }));
        let allowed = if blocked {
            10 * 2 * spmv_parallel::num_threads()
        } else {
            0
        };
        assert!(
            made <= allowed,
            "{formats:?}: 10 executes allocated {made} times (allowed {allowed})"
        );
        assert_eq!(u, a.spmv_seq_alloc(&v).unwrap(), "{formats:?}");
    }
}
