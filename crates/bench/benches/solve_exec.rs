//! Criterion bench for the level-scheduled triangular solves: one
//! forward (`L + D`) and one backward (`D + U`) verified solve of a SymGS
//! sweep, through `solve_unchecked` on the sweep's own halves, at the
//! default worker count and level-merge granularity. Two SymGS
//! companions (the off-diagonal pattern plus a dominant diagonal): the
//! `road_network(715, 715, 0.53, ·)` analogue of europe_osm, whose long
//! chains of thin levels are the serial-chunk case, and a
//! `block_structured` FEM-like matrix with few, wide levels. The
//! `plan_setup` bench bounds what building these plans costs.

use criterion::{criterion_group, criterion_main, Criterion};
use spmv_autotune::prelude::*;
use spmv_sparse::{gen, CsrMatrix};

/// The same off-diagonal pattern plus a strictly dominant diagonal.
fn companion(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = a.n_rows();
    let mut rows = gen::RowsBuilder::with_capacity(n, n, a.nnz() + n);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..n {
        cols.clear();
        vals.clear();
        let (rc, rv) = a.row(i);
        let mut off = 0.0f32;
        for (&c, &v) in rc.iter().zip(rv) {
            if c as usize != i {
                cols.push(c);
                vals.push(v);
                off += v.abs();
            }
        }
        cols.push(i as u32);
        vals.push(1.0 + off);
        rows.push_row(&cols, &vals);
    }
    rows.finish()
}

fn bench_solve_exec(c: &mut Criterion) {
    let cases = [
        (
            "road",
            companion(&gen::road_network::<f32>(715, 715, 0.53, 5)),
        ),
        (
            "block",
            companion(&gen::block_structured::<f32>(2_000, 8, 4, 7)),
        ),
    ];
    let mut group = c.benchmark_group("solve_exec");
    group.sample_size(20);
    for (name, sym) in &cases {
        let sweep = SymgsPlan::build(sym).expect("companion has a full diagonal");
        let h = sweep.halves();
        let b: Vec<f32> = (0..sym.n_rows()).map(|i| ((i % 7) as f32) - 3.0).collect();
        let mut x = vec![0.0f32; sym.n_rows()];
        group.bench_function(format!("{name}/forward"), |bench| {
            bench.iter(|| sweep.forward().solve_unchecked(h.lower(), &b, &mut x))
        });
        group.bench_function(format!("{name}/backward"), |bench| {
            bench.iter(|| sweep.backward().solve_unchecked(h.upper(), &b, &mut x))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solve_exec);
criterion_main!(benches);
