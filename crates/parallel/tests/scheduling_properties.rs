//! Property tests of the scheduling substrate: every index visited
//! exactly once, results collected in order.
//! Randomised sizes come from a seeded generator for reproducibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmv_parallel::{parallel_for, parallel_map_collect};
use std::sync::atomic::{AtomicUsize, Ordering};

const CASES: usize = 64;

#[test]
fn parallel_for_visits_each_index_once() {
    let mut rng = StdRng::seed_from_u64(0x5C02);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..5_000);
        let grain = rng.gen_range(1usize..512);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, grain, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}

#[test]
fn map_collect_is_order_preserving() {
    let mut rng = StdRng::seed_from_u64(0x5C03);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..3_000);
        let grain = rng.gen_range(1usize..256);
        let v = parallel_map_collect(n, grain, |i| i * 3 + 1);
        assert_eq!(v.len(), n);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 3 + 1);
        }
    }
}
