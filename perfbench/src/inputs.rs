//! Seeded inputs for the three workloads.
//!
//! The seed drives only the generators' random streams (values, random
//! columns, kept road edges). Matrix shapes, generator parameters and
//! traffic constants are fixed per workload, so two seeds give the
//! program the same amount of work and runs with different seeds are
//! comparable.

use spmv_sparse::gen::{self, mixture::RowRegime, RowsBuilder};
use spmv_sparse::CsrMatrix;
use std::time::Duration;

/// Serving traffic of a workload. Rates are constants chosen once, well
/// below the slowest drain rate measured for the workload; they are
/// never derived from the speed of the run itself.
pub struct Traffic {
    /// Offered rate of the low-load window, requests per second.
    pub lo_rps: f64,
    /// Offered rate of the high-load window, requests per second.
    pub hi_rps: f64,
    /// Length of each open-loop window.
    pub window: Duration,
    /// Requests submitted back to back in one drain burst.
    pub burst: usize,
}

/// One workload: its matrices, how often each solve round repeats a call
/// per matrix, and its serving traffic.
///
/// The first matrix is the hot matrix of the serving mix. It is one
/// whose execute time lies mid-way among the others, so the median
/// latency falls inside its mode rather than on the edge between two
/// matrices' modes, where a small shift in the mix would move it.
pub struct Workload {
    pub name: &'static str,
    pub matrices: Vec<(String, CsrMatrix<f32>)>,
    /// Calls per matrix and phase in one solve round.
    pub reps: usize,
    /// Time an epoch spends in solve rounds.
    pub solve_time: Duration,
    /// Serving windows per rate, and drain bursts, per epoch.
    pub serve_repeats: usize,
    pub traffic: Traffic,
}

pub const WORKLOADS: [&str; 3] = ["solve-large", "solve-small", "serve"];

/// Mix the run seed with a per-matrix salt (SplitMix64 finaliser), so
/// every matrix draws an independent stream from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "solve-large" => Some(solve_large(seed)),
        "solve-small" => Some(solve_small(seed)),
        "serve" => Some(serve(seed)),
        _ => None,
    }
}

/// The Table II analogues whose working sets exceed the per-core L2 and
/// that the format gate sends to different formats.
fn solve_large(seed: u64) -> Workload {
    let s = |i| mix(seed, i);
    let regimes = [
        RowRegime::new(30, 100, 0.60),
        RowRegime::new(100, 300, 0.32),
        RowRegime::new(300, 1_400, 0.08),
    ];
    Workload {
        name: "solve-large",
        matrices: vec![
            (
                "crankseg_2".into(),
                gen::block_structured(1_500, 6, 36, s(2)),
            ),
            ("apache1".into(), gen::banded(81_000, 3, s(1))),
            (
                "Ga3As3H12".into(),
                gen::mixture(12_000, 12_000, &regimes, true, s(3)),
            ),
            ("roadNet-CA".into(), gen::road_network(450, 450, 0.70, s(4))),
            ("europe_osm".into(), gen::road_network(715, 715, 0.53, s(5))),
        ],
        reps: 1,
        solve_time: Duration::from_secs(2),
        serve_repeats: 2,
        traffic: Traffic {
            lo_rps: 40.0,
            hi_rps: 120.0,
            window: Duration::from_millis(160),
            burst: 40,
        },
    }
}

/// One small matrix of generator family `kind` (0 banded, 1 uniform,
/// 2 block, 3 road) with about `rows` rows and at most ~200k non-zeros.
fn small(kind: usize, rows: usize, seed: u64) -> (String, CsrMatrix<f32>) {
    match kind {
        0 => {
            let hb = 1 + rows % 3;
            (format!("banded{hb}-{rows}"), gen::banded(rows, hb, seed))
        }
        1 => (
            format!("uniform-{rows}"),
            gen::random_uniform(rows, rows, 2, 8, seed),
        ),
        2 => {
            let coupling = (200_000 / (rows * 4)).clamp(2, 5) - 1;
            (
                format!("block{coupling}-{rows}"),
                gen::block_structured(rows / 4, 4, coupling, seed),
            )
        }
        _ => {
            let g = (rows as f64).sqrt() as usize;
            (
                format!("road-{}", g * g),
                gen::road_network(g, g, 0.70, seed),
            )
        }
    }
}

/// Row counts of the small matrices, 5k to 30k; each family gets every
/// size once.
const SMALL_ROWS: [usize; 8] = [5_000, 8_000, 11_000, 14_000, 18_000, 22_000, 26_000, 30_000];

/// 32 L2-resident matrices: executes take tens to hundreds of µs, so
/// per-call dispatch and checks dominate.
fn solve_small(seed: u64) -> Workload {
    let mut matrices = Vec::new();
    for (i, &rows) in SMALL_ROWS.iter().enumerate() {
        for kind in 0..4 {
            let salt = (i * 4 + kind) as u64 + 1;
            matrices.push(small(kind, rows, mix(seed, salt)));
        }
    }
    // The hot matrix: uniform-18000, mid-way in execute time.
    matrices.swap(0, 17);
    Workload {
        name: "solve-small",
        matrices,
        reps: 2,
        solve_time: Duration::from_secs(1),
        serve_repeats: 4,
        traffic: Traffic {
            lo_rps: 400.0,
            hi_rps: 1_200.0,
            window: Duration::from_millis(50),
            burst: 256,
        },
    }
}

/// Twelve registered matrices, mostly small, one hot (the first) and one
/// mid-sized road graph.
fn serve(seed: u64) -> Workload {
    let s = |i| mix(seed, 100 + i);
    let mut matrices = vec![(
        "hot-banded2-20000".to_string(),
        gen::banded(20_000, 2, s(0)),
    )];
    let rest = [
        (1, 10_000),
        (2, 12_000),
        (3, 10_000),
        (0, 8_000),
        (1, 25_000),
        (3, 22_500),
        (2, 24_000),
        (0, 30_000),
        (1, 5_000),
        (3, 14_400),
    ];
    for (i, &(kind, rows)) in rest.iter().enumerate() {
        matrices.push(small(kind, rows, s(i as u64 + 1)));
    }
    matrices.push((
        "road-90000".into(),
        gen::road_network(300, 300, 0.70, s(20)),
    ));
    Workload {
        name: "serve",
        matrices,
        reps: 2,
        solve_time: Duration::from_secs(1),
        serve_repeats: 4,
        traffic: Traffic {
            lo_rps: 400.0,
            hi_rps: 1_200.0,
            window: Duration::from_millis(50),
            burst: 256,
        },
    }
}

/// Square SymGS companion of `a`: the same off-diagonal pattern clipped
/// to square, plus a diagonal that makes every row strictly diagonally
/// dominant, so repeated sweeps stay finite.
pub fn symgs_companion(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = a.n_rows().min(a.n_cols());
    let mut rows = RowsBuilder::with_capacity(n, n, a.nnz() + n);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..n {
        cols.clear();
        vals.clear();
        let mut off = 0.0f32;
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            let c = a.col_idx()[k] as usize;
            if c < n && c != i {
                cols.push(c as u32);
                vals.push(a.values()[k]);
                off += a.values()[k].abs();
            }
        }
        cols.push(i as u32);
        vals.push(1.0 + off + (i % 5) as f32);
        rows.push_row(&cols, &vals);
    }
    rows.finish()
}

/// A deterministic dense vector of length `n`; `salt` picks one of many.
pub fn vector(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((((i * 31 + salt * 7) % 17) as f32) - 8.0) / 4.0)
        .collect()
}
