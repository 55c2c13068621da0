//! `spmv-lint`: run every static analyzer over the repository and exit
//! non-zero on any violation. The CI job runs this binary.
//!
//! Checks, in order:
//!
//! 1. **Unsafe hygiene** — every `unsafe` site in the workspace's own
//!    crates carries a `// SAFETY:` (or `# Safety`) justification.
//! 2. **Model soundness** — every checked-in model under `models/`
//!    loads (which runs the fatal-severity rule-set lint) and its
//!    warnings are printed.
//! 3. **Write-set disjointness** — every (binning strategy × kernel map
//!    × backend) plan over the driver's matrix suite proves coverage,
//!    disjointness, and in-bounds writes.
//! 4. **Batched dispatch** — every verified plan's `execute_batch` is
//!    bit-for-bit identical, per output column, to single-vector
//!    executes at RHS widths covering lone-column, remainder, and full
//!    register-block decompositions.
//! 5. **Concurrency protocols** — the queue-claim/level-barrier,
//!    worker-team park/wake and serving admission-queue state machines
//!    pass exhaustive interleaving (the team model proves a parked
//!    helper never misses a published job; the admission model proves
//!    the coalescing-window protocol loses no request); the deliberately
//!    buggy variants are *detected* (a checker that flags nothing proves
//!    nothing).
//! 6. **Bandwidth tiers** — every (strategy × backend × default/blocked
//!    tier) plan verifies and executes bit-for-bit against the
//!    sequential CSR reference, the sweep demonstrably reaches
//!    cache-blocked bins, and the `n_cols`-shrink guard rejects a packed
//!    plan whose gather-bound proof a column-shrunk matrix would
//!    invalidate.
//! 7. **Kernel table** — every reachable `KernelKey` (each format's
//!    kernel family × every register-block width) resolves to a
//!    registered micro-kernel and every registered entry is reachable
//!    (no dead table rows), and the specialized sweep proves every
//!    structure fast path — banded, dense-run, row-run — verifies and
//!    executes bit-for-bit over the strategy grid, with coverage flags
//!    guaranteeing each path (and the `specialize` kill switch) actually
//!    fired.
//! 8. **Solve schedules** — every (matrix × direction × worker count ×
//!    level granularity) triangular-solve and SymGS plan passes the
//!    dependency-order prover and executes bit-for-bit against the
//!    sequential references, and the sweep demonstrably reaches both
//!    parallel steps and merged levels.
//!
//! `spmv-lint --gen-model <path>` instead trains a small deterministic
//! model and writes it to `<path>` (used to produce `models/tiny.txt`).

use spmv_autotune::model_io::{lint_model_rulesets, load_model_file, save_model_file};
use spmv_autotune::training::{Trainer, TrainerConfig};
use spmv_autotune::tuner::TunerConfig;
use spmv_gpusim::GpuDevice;
use spmv_ml::lint::Severity;
use spmv_sparse::corpus::CorpusConfig;
use spmv_verify::interleave::{explore, Verdict};
use spmv_verify::models::{AdmissionModel, CursorModel, LevelModel, TeamModel, TwoLockModel};
use spmv_verify::{driver, hygiene};
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--gen-model") {
        let path = args.get(1).map(PathBuf::from).unwrap_or_else(|| {
            eprintln!("usage: spmv-lint --gen-model <path>");
            std::process::exit(2);
        });
        gen_model(&path);
        return;
    }
    if !args.is_empty() {
        eprintln!("usage: spmv-lint [--gen-model <path>]");
        std::process::exit(2);
    }

    let root = repo_root();
    let mut failures = 0usize;
    failures += check_hygiene(&root);
    failures += check_models(&root);
    failures += check_plans();
    failures += check_batched();
    failures += check_concurrency();
    failures += check_bandwidth();
    failures += check_kernel_table();
    failures += check_solve();

    if failures > 0 {
        eprintln!("\nspmv-lint: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nspmv-lint: all checks passed");
}

/// The workspace root: three levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis has a workspace root two levels up")
        .to_path_buf()
}

fn check_hygiene(root: &Path) -> usize {
    println!("== SAFETY-comment hygiene ==");
    match hygiene::scan_tree(root) {
        Ok(findings) if findings.is_empty() => {
            println!("ok: every raw-pointer site carries a SAFETY comment");
            0
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("FAIL: {f}");
            }
            1
        }
        Err(e) => {
            eprintln!("FAIL: source scan errored: {e}");
            1
        }
    }
}

fn check_models(root: &Path) -> usize {
    println!("\n== checked-in models ==");
    let dir = root.join("models");
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .collect(),
        Err(e) => {
            eprintln!("FAIL: cannot read {}: {e}", dir.display());
            return 1;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("FAIL: no models under {}", dir.display());
        return 1;
    }
    let mut bad = 0;
    for p in &paths {
        match load_model_file(p) {
            Ok(model) => {
                // Load already rejected Error-severity findings; surface
                // the tolerated warnings for the record.
                let warnings: Vec<_> =
                    lint_model_rulesets(&model.stage1, &model.stage2, model.u_classes.len())
                        .into_iter()
                        .filter(|f| f.severity() == Severity::Warning)
                        .collect();
                println!(
                    "ok: {} ({} stage-1 + {} stage-2 rules, {} warning(s))",
                    p.file_name().unwrap().to_string_lossy(),
                    model.stage1.rules().len(),
                    model.stage2.rules().len(),
                    warnings.len()
                );
                for w in warnings {
                    println!("    warning: {w}");
                }
            }
            Err(e) => {
                eprintln!("FAIL: {}: {e}", p.display());
                bad += 1;
            }
        }
    }
    usize::from(bad > 0)
}

fn check_plans() -> usize {
    println!("\n== write-set disjointness (strategy x backend sweep) ==");
    let checks = driver::full_sweep();
    let mut bad = 0;
    for c in &checks {
        if let Err(e) = &c.result {
            eprintln!(
                "FAIL: {} on {} over {}: {e}",
                c.strategy, c.backend, c.matrix
            );
            bad += 1;
        }
    }
    if bad == 0 {
        println!(
            "ok: {} plans proven (coverage + disjointness + bounds)",
            checks.len()
        );
        0
    } else {
        1
    }
}

fn check_batched() -> usize {
    println!("\n== batched dispatch (execute_batch vs single-vector) ==");
    let checks = driver::batched_sweep();
    let mut bad = 0;
    for c in &checks {
        if let Err(e) = &c.result {
            eprintln!(
                "FAIL: {} on {} over {} (K = {}): {e}",
                c.strategy, c.backend, c.matrix, c.k
            );
            bad += 1;
        }
    }
    if bad == 0 {
        println!(
            "ok: {} batched plans bit-identical to their single-vector columns",
            checks.len()
        );
        0
    } else {
        1
    }
}

fn check_concurrency() -> usize {
    println!("\n== concurrency protocols (exhaustive interleaving) ==");
    const BUDGET: usize = 500_000;
    let mut bad = 0;

    // The shipped protocols must pass…
    let sound: [(&str, Verdict); 5] = [
        (
            "flat queue cursor claim (2 threads, 3 items)",
            explore(CursorModel::atomic_claim(2, 3), BUDGET),
        ),
        (
            "consistent lock order",
            explore(TwoLockModel::consistent_order(), BUDGET),
        ),
        (
            "level-barrier stepped solve (3 workers)",
            explore(LevelModel::correct(3), BUDGET),
        ),
        (
            "worker-team park/wake handoff (2 helpers, 2 jobs)",
            explore(TeamModel::correct(2, 2), BUDGET),
        ),
        (
            "serving admission queue (3 producers, batches of 2)",
            explore(AdmissionModel::correct(3, 2), BUDGET),
        ),
    ];
    for (name, v) in sound {
        if v.passed() {
            println!("ok: {name}: {v}");
        } else {
            eprintln!("FAIL: {name}: {v}");
            bad += 1;
        }
    }

    // …and the injected bugs must be *caught* (checker self-test).
    type Expect = fn(&Verdict) -> bool;
    let buggy: [(&str, Verdict, Expect); 5] = [
        (
            "racy cursor claim is detected as double write",
            explore(CursorModel::racy_claim(2, 2), BUDGET),
            |v| matches!(v, Verdict::Violation { .. }),
        ),
        (
            "opposite lock order is detected as deadlock",
            explore(TwoLockModel::opposite_order(), BUDGET),
            |v| matches!(v, Verdict::Deadlock { .. }),
        ),
        (
            "skipped level barrier is detected as a dependency race",
            explore(LevelModel::skipped_barrier(2), BUDGET),
            |v| matches!(v, Verdict::Violation { .. }),
        ),
        (
            "checking for sleepers before publishing is detected as a lost wake-up",
            explore(TeamModel::sleepers_checked_before_publish(2, 1), BUDGET),
            |v| matches!(v, Verdict::Deadlock { .. }),
        ),
        (
            "non-atomic admission wait is detected as a stranded request",
            explore(AdmissionModel::sleep_after_unlock(2, 2), BUDGET),
            |v| matches!(v, Verdict::Deadlock { .. }),
        ),
    ];
    for (name, v, expected) in buggy {
        if expected(&v) {
            println!("ok: {name} ({v})");
        } else {
            eprintln!("FAIL: {name}: got {v}");
            bad += 1;
        }
    }
    usize::from(bad > 0)
}

fn check_bandwidth() -> usize {
    println!("\n== bandwidth tiers (default / cache-blocked plans) ==");
    let checks = driver::bandwidth_sweep();
    let mut bad = 0;
    for c in &checks {
        if let Err(e) = &c.result {
            eprintln!(
                "FAIL: [{}] {} on {} over {}: {e}",
                c.tier, c.strategy, c.backend, c.matrix
            );
            bad += 1;
        }
    }
    if bad == 0 {
        println!(
            "ok: {} tiered plans verified and bit-identical to the CSR reference",
            checks.len()
        );
    }
    match driver::shrink_guard_lint() {
        Ok(()) => println!("ok: n_cols-shrink guard rejects stale gather-bound proofs"),
        Err(e) => {
            eprintln!("FAIL: shrink guard: {e}");
            bad += 1;
        }
    }
    usize::from(bad > 0)
}

fn check_kernel_table() -> usize {
    println!("\n== kernel table (registry coverage + specialized fast paths) ==");
    let mut bad = 0;
    match driver::kernel_table_lint() {
        Ok(()) => println!("ok: every reachable KernelKey registered, every entry reachable"),
        Err(e) => {
            eprintln!("FAIL: kernel table: {e}");
            bad += 1;
        }
    }
    let checks = driver::specialized_sweep();
    let mut sweep_bad = 0;
    for c in &checks {
        if let Err(e) = &c.result {
            eprintln!("FAIL: [{}] {} on {}: {e}", c.tier, c.strategy, c.backend);
            sweep_bad += 1;
        }
    }
    if sweep_bad == 0 {
        println!(
            "ok: {} specialized plans verified and bit-identical to the CSR reference",
            checks.len()
        );
    } else {
        bad += sweep_bad;
    }
    usize::from(bad > 0)
}

fn check_solve() -> usize {
    println!("\n== solve schedules (dependency-order prover sweep) ==");
    let checks = driver::solve_sweep();
    let mut bad = 0;
    for c in &checks {
        if let Err(e) = &c.result {
            eprintln!(
                "FAIL: {} over {} (workers = {}, granularity = {}): {e}",
                c.op, c.matrix, c.workers, c.granularity
            );
            bad += 1;
        }
    }
    if bad == 0 {
        println!(
            "ok: {} solve checks: schedules certified and bit-identical to the sequential \
             references, tampered snapshots rejected",
            checks.len()
        );
        0
    } else {
        1
    }
}

/// Train the small deterministic model committed as `models/tiny.txt`:
/// fixed corpus seed, fixed granularity grid, simulated Kaveri device —
/// every invocation reproduces the same file.
fn gen_model(path: &Path) {
    let config = TrainerConfig {
        corpus: CorpusConfig {
            count: 25,
            min_rows: 300,
            max_rows: 900,
            seed: 8,
        },
        tuner: TunerConfig {
            granularities: vec![10, 100, 1000],
            ..TunerConfig::training()
        },
        ..Default::default()
    };
    let (model, report) = Trainer::with_config(GpuDevice::kaveri(), config).train();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create model dir");
    }
    save_model_file(&model, path).expect("write model");
    println!(
        "wrote {} (stage-1 error {:.2}, stage-2 error {:.2})",
        path.display(),
        report.stage1_error(),
        report.stage2_error()
    );
}
