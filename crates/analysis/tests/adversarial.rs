//! Adversarial inputs for every analyzer: each test constructs a
//! malformed artifact and asserts the *exact* diagnostic variant, so a
//! regression that silently weakens a checker fails loudly. The final
//! test is a seeded fuzz loop asserting the `execute_unchecked` fast
//! path is bit-for-bit identical to the checked path.

use spmv_autotune::binning::BinningScheme;
use spmv_autotune::exec::{NativeCpuBackend, SimGpuBackend};
use spmv_autotune::kernels::KernelId;
use spmv_autotune::model_io::load_model;
use spmv_autotune::plan::{BinDispatch, BinFormat, SpmvPlan};
use spmv_autotune::strategy::Strategy;
use spmv_gpusim::GpuDevice;
use spmv_ml::io::RulesIoError;
use spmv_ml::lint::{lint_ruleset, Finding, LintOptions};
use spmv_ml::rules::{Cond, Rule, RuleSet};
use spmv_sparse::gen;
use spmv_verify::check_dispatch;
use spmv_verify::interleave::{explore, Verdict};
use spmv_verify::models::{CursorModel, TeamModel};
use spmv_verify::VerifyError;

// ---------------------------------------------------------------------
// Analyzer 1: write-set disjointness.
// ---------------------------------------------------------------------

fn sim_plan(a: &spmv_sparse::CsrMatrix<f64>) -> SpmvPlan<f64> {
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };
    SpmvPlan::compile(
        a,
        strategy,
        Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
    )
}

/// A hand-built dispatch table where two bins claim the same row must
/// produce `OverlappingRows` naming both bins.
#[test]
fn overlapping_bin_dispatch_names_both_bins() {
    let a = gen::random_uniform::<f64>(20, 20, 1, 3, 42);
    let rows_a: Vec<u32> = (0..12).collect();
    let rows_b: Vec<u32> = (10..20).collect(); // rows 10, 11 overlap
    let nnz_of = |rows: &[u32]| rows.iter().map(|&r| a.row_nnz(r as usize)).sum();
    let dispatch = vec![
        BinDispatch {
            bin_id: 0,
            kernel: KernelId::Serial,
            nnz: nnz_of(&rows_a),
            rows: rows_a,
            format: BinFormat::Csr,
        },
        BinDispatch {
            bin_id: 3,
            kernel: KernelId::Vector,
            nnz: nnz_of(&rows_b),
            rows: rows_b,
            format: BinFormat::Csr,
        },
    ];
    match check_dispatch(&a, &dispatch) {
        Err(VerifyError::OverlappingRows {
            bin_a: 0,
            kernel_a: KernelId::Serial,
            bin_b: 3,
            kernel_b: KernelId::Vector,
            rows,
        }) => {
            assert_eq!(rows, (10, 11), "overlap range should be 10..=11");
        }
        other => panic!("expected OverlappingRows(bins 0 and 3), got {other:?}"),
    }
}

#[test]
fn empty_dispatch_reports_all_rows_uncovered() {
    let a = gen::random_uniform::<f64>(8, 8, 1, 2, 1);
    match check_dispatch(&a, &[]) {
        Err(VerifyError::UncoveredRows { rows: (0, 7) }) => {}
        other => panic!("expected UncoveredRows(0..=7), got {other:?}"),
    }
}

#[test]
fn tampered_plan_dispatch_fails_verification() {
    let a = gen::powerlaw::<f64>(300, 1, 60, 2.0, 5);
    let plan = sim_plan(&a);
    // The compiled plan passes…
    let mut dispatch = plan.dispatch().to_vec();
    check_dispatch(&a, &dispatch).expect("compiled plan must verify");
    // …until its cached NNZ is corrupted.
    dispatch[0].nnz = dispatch[0].nnz.wrapping_add(7);
    assert!(matches!(
        check_dispatch(&a, &dispatch),
        Err(VerifyError::BinNnzMismatch { .. })
    ));
}

// ---------------------------------------------------------------------
// Analyzer 2: rule-set linting.
// ---------------------------------------------------------------------

fn ruleset(rules: Vec<Rule>, default: usize, n_classes: usize, n_attrs: usize) -> RuleSet {
    let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
    RuleSet::from_parts(rules, default, names, n_classes)
}

fn rule(conds: Vec<Cond>, class: usize) -> Rule {
    Rule {
        conds,
        class,
        accuracy: 0.9,
    }
}

#[test]
fn unreachable_rule_is_reported_with_its_shadow() {
    // Rule 0 matches a0 > 1; rule 1 matches a0 > 5, which implies a0 > 1
    // — rule 1 can never fire first.
    let rs = ruleset(
        vec![
            rule(vec![Cond::Gt(0, 1.0)], 0),
            rule(vec![Cond::Gt(0, 5.0)], 1),
        ],
        0,
        2,
        1,
    );
    let findings = lint_ruleset(&rs, &LintOptions::default());
    assert!(
        findings.iter().any(|f| matches!(
            f,
            Finding::UnreachableRule {
                rule: 1,
                shadowed_by: 0
            }
        )),
        "got {findings:?}"
    );
}

#[test]
fn contradictory_conjunction_is_reported() {
    // a0 <= 2 AND a0 > 5 is unsatisfiable.
    let rs = ruleset(
        vec![rule(vec![Cond::Le(0, 2.0), Cond::Gt(0, 5.0)], 0)],
        0,
        2,
        1,
    );
    let findings = lint_ruleset(&rs, &LintOptions::default());
    assert!(
        findings
            .iter()
            .any(|f| matches!(f, Finding::ContradictoryConds { rule: 0, attr: 0 })),
        "got {findings:?}"
    );
}

#[test]
fn out_of_range_kernel_class_fails_model_load() {
    // Stage-2 declares 11 classes and predicts class 10; the runtime's
    // kernel pool has 9 entries, so dispatch would panic. The load-time
    // lint must refuse it with the exact variant.
    let text = "spmv-model v1\nfeatures TableI\nu-classes 10 100\n\
                ruleset v1\nclasses 2\nattrs m n nnz\ndefault 0\nrule 1 0.9 gt:0:5\nend\n\
                ruleset v1\nclasses 11\nattrs m n nnz u bin\ndefault 0\n\
                rule 10 0.9 gt:0:5\nend\n";
    match load_model(text.as_bytes()) {
        Err(RulesIoError::Lint(findings)) => {
            assert!(
                findings.iter().any(|f| matches!(
                    f,
                    Finding::ClassOutOfRange {
                        class: 10,
                        limit: 9,
                        ..
                    }
                )),
                "got {findings:?}"
            );
        }
        Err(other) => panic!("expected Lint error, got {other:?}"),
        Ok(_) => panic!("corrupt model loaded"),
    }
}

#[test]
fn truncated_model_file_is_a_parse_error() {
    // File ends mid-way through the stage-1 rule-set: stage 2 missing.
    let text = "spmv-model v1\nfeatures TableI\nu-classes 10 100\n\
                ruleset v1\nclasses 2\nattrs m n nnz\ndefault 0\n";
    match load_model(text.as_bytes()) {
        Err(RulesIoError::Parse(_, msg)) => {
            assert!(msg.contains("stage-2"), "unexpected message: {msg}");
        }
        Err(other) => panic!("expected Parse error, got {other:?}"),
        Ok(_) => panic!("truncated model loaded"),
    }
}

// ---------------------------------------------------------------------
// Analyzer 3: concurrency model checking.
// ---------------------------------------------------------------------

#[test]
fn double_write_bug_is_found_with_a_schedule() {
    match explore(CursorModel::racy_claim(2, 2), 500_000) {
        Verdict::Violation { trace, message } => {
            assert!(!trace.is_empty());
            assert!(message.contains("written"), "got message: {message}");
        }
        other => panic!("expected Violation, got {other}"),
    }
}

#[test]
fn lost_team_wake_up_is_found_as_a_deadlock_with_a_schedule() {
    // The caller looks for sleepers before it publishes the job epoch;
    // the helper registers, rechecks the old epoch and parks in the gap.
    match explore(TeamModel::sleepers_checked_before_publish(1, 1), 500_000) {
        Verdict::Deadlock { trace } => {
            assert!(
                trace.contains(&0) && trace.contains(&1),
                "got trace: {trace:?}"
            );
        }
        other => panic!("expected Deadlock, got {other}"),
    }
    assert!(explore(TeamModel::correct(1, 1), 500_000).passed());
}

// ---------------------------------------------------------------------
// Fast path: execute vs execute_unchecked, bit for bit, under fuzz.
// ---------------------------------------------------------------------

#[test]
fn fuzz_unchecked_execute_is_bit_identical() {
    let strategies = [
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        },
        Strategy {
            binning: BinningScheme::Fine,
            kernels: vec![KernelId::Subvector(16); 8],
        },
        Strategy {
            binning: BinningScheme::Hybrid {
                threshold: 16,
                u: 10,
            },
            kernels: vec![KernelId::Vector; 8],
        },
        Strategy::single_kernel(KernelId::Subvector(32)),
    ];
    for seed in 0..12u64 {
        let m = 100 + (seed as usize * 37) % 400;
        let a = gen::powerlaw::<f64>(m, 1, 50 + (seed as usize % 60), 2.0, seed);
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| (((i as u64).wrapping_mul(seed + 3) % 17) as f64) - 8.0)
            .collect();
        for (si, strategy) in strategies.iter().enumerate() {
            let checked =
                SpmvPlan::compile(&a, strategy.clone(), Box::new(NativeCpuBackend::new()));
            let verified =
                SpmvPlan::compile(&a, strategy.clone(), Box::new(NativeCpuBackend::new()))
                    .verify(&a)
                    .unwrap_or_else(|e| panic!("seed {seed} strategy {si}: verify failed: {e}"));
            let mut u1 = vec![0.0f64; a.n_rows()];
            let mut u2 = vec![0.0f64; a.n_rows()];
            checked.execute(&a, &v, &mut u1).unwrap();
            verified.execute_unchecked(&a, &v, &mut u2).unwrap();
            assert_eq!(u1, u2, "seed {seed} strategy {si}: paths diverge");
        }
    }
}
