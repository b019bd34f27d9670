//! exp-smoke: every experiment binary, run end to end at `--tiny` scale,
//! must reproduce its committed golden stdout byte for byte — and must
//! produce those bytes at every execution setting the bins accept (the
//! worker count is the only one), so the smoke run doubles as an
//! end-to-end check of the determinism contract at the process boundary
//! (the stdout a user pipes into a file, not just the report JSON the
//! unit suites compare).
//!
//! Goldens live in `tests/golden/exp/` at the workspace root, next to the
//! report snapshot, so the CI golden-drift gate covers them: regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p bench --test exp_smoke` and commit
//! the diff only when the output change is intended.
//!
//! Each binary runs twice, and the child environment is pinned so the
//! comparison is reproducible whatever the caller's shell exports:
//!
//! * The **reference** run pins `HYBRID_THREADS=1` (the sequential
//!   path), and its stdout is compared with the golden.
//! * The **flipped** run sets `HYBRID_THREADS=2`, and its stdout must
//!   equal the reference's: parallelism is an execution detail, never
//!   output. The sweep's execution counters go to stderr.
//!
//! Both runs pin `HYBRID_UPDATE_WINDOWS` (empty: each temporal bin's
//! default) and `HYBRID_DEPLOYMENT` (empty: no defence), and both
//! inherit `HYBRID_SCENARIO` — a scenario is an output knob, so each CI
//! scenario leg compares against its own golden directory
//! (`tests/golden/exp/` for classic, a `tests/golden/exp/<scenario>/`
//! subdirectory otherwise) and the flip must still reproduce the bytes
//! within the leg.
//!
//! The bins run the library's defaults for everything else about
//! execution. The alternatives that remain selectable from code are
//! held to the same bytes in-process instead: the frontier split by
//! `frontier_matrix_produces_byte_identical_reports`, the adjacency-map
//! backend by `backend_matrix_produces_byte_identical_reports` and the
//! sweep tiers by `impact_sweep_matrix_produces_byte_identical_reports`
//! (all in `tests/determinism.rs`), plus their proptests in
//! `tests/properties.rs`.

use std::path::PathBuf;
use std::process::Command;

/// The thirteen experiment binaries and their build-time executable paths.
const BINS: &[(&str, &str)] = &[
    ("exp_a1_baseline_accuracy", env!("CARGO_BIN_EXE_exp_a1_baseline_accuracy")),
    ("exp_a2_coverage_sweep", env!("CARGO_BIN_EXE_exp_a2_coverage_sweep")),
    ("exp_a3_collector_sensitivity", env!("CARGO_BIN_EXE_exp_a3_collector_sensitivity")),
    ("exp_e1_dataset", env!("CARGO_BIN_EXE_exp_e1_dataset")),
    ("exp_e2_hybrid_census", env!("CARGO_BIN_EXE_exp_e2_hybrid_census")),
    ("exp_e3_visibility", env!("CARGO_BIN_EXE_exp_e3_visibility")),
    ("exp_e4_valley_paths", env!("CARGO_BIN_EXE_exp_e4_valley_paths")),
    ("exp_f1_customer_tree_example", env!("CARGO_BIN_EXE_exp_f1_customer_tree_example")),
    ("exp_f2_customer_tree_sweep", env!("CARGO_BIN_EXE_exp_f2_customer_tree_sweep")),
    ("exp_g1_temporal_census", env!("CARGO_BIN_EXE_exp_g1_temporal_census")),
    ("exp_g2_correction_churn", env!("CARGO_BIN_EXE_exp_g2_correction_churn")),
    ("exp_leak_distortion", env!("CARGO_BIN_EXE_exp_leak_distortion")),
    ("exp_rov_sweep", env!("CARGO_BIN_EXE_exp_rov_sweep")),
];

/// The golden directory for the active scenario leg: the classic
/// (default) scenario owns `tests/golden/exp/` itself, so the goldens
/// that predate the scenario suite keep their paths; every other
/// scenario compares against its own subdirectory, named after the
/// `HYBRID_SCENARIO` spelling CI exports (`leak`, `subprefix-hijack`).
fn golden_dir() -> PathBuf {
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exp");
    match std::env::var("HYBRID_SCENARIO") {
        Ok(scenario) if !scenario.is_empty() && !scenario.eq_ignore_ascii_case("classic") => {
            base.join(scenario.to_ascii_lowercase())
        }
        _ => base,
    }
}

/// Run one binary at `--tiny` scale on `threads` workers and return its
/// stdout.
fn run_tiny(name: &str, exe: &str, threads: &str) -> String {
    let output = Command::new(exe)
        .arg("--tiny")
        .env("HYBRID_THREADS", threads)
        // Pinned so the temporal bins always replay their default window
        // count, whatever the caller's shell exports.
        .env("HYBRID_UPDATE_WINDOWS", "")
        // Pinned to "no defence": the scenario legs exercise the attack
        // itself; the deployment sweep has its own bin and goldens.
        // HYBRID_SCENARIO is deliberately inherited (see the module doc).
        .env("HYBRID_DEPLOYMENT", "")
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {name} ({exe}): {e}"));
    assert!(
        output.status.success(),
        "{name} --tiny exited with {}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap_or_else(|e| panic!("{name} stdout is not UTF-8: {e}"))
}

#[test]
fn exp_bins_reproduce_their_goldens_at_every_execution_setting() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden/exp");
    }
    for (name, exe) in BINS {
        // The sequential reference run pins the goldens.
        let sequential = run_tiny(name, exe, "1");
        let golden_path = dir.join(format!("{name}.txt"));
        if update {
            std::fs::write(&golden_path, &sequential)
                .unwrap_or_else(|e| panic!("write {}: {e}", golden_path.display()));
        } else {
            let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
                panic!(
                    "{} is not committed ({e}); generate it with UPDATE_GOLDEN=1 \
                     cargo test -p bench --test exp_smoke",
                    golden_path.display()
                )
            });
            assert!(
                sequential == golden,
                "{name} --tiny stdout drifted from {}; if the change is intended, regenerate \
                 with UPDATE_GOLDEN=1 cargo test -p bench --test exp_smoke",
                golden_path.display()
            );
        }
        // ... and the two-worker run must produce the same bytes.
        let parallel = run_tiny(name, exe, "2");
        assert!(parallel == sequential, "{name} --tiny stdout depends on HYBRID_THREADS");
    }
}
