//! Golden figures: the paper-reproduction binaries' stdout pinned against
//! committed fixtures.
//!
//! Each test runs one deterministic figure or table binary at a small,
//! fixed experiment shape (`--runs=1 --generations=20`) and compares its
//! stdout byte for byte with `tests/figures/<binary>.txt`.  The binaries
//! inherit `EHW_WORKERS`, so running this suite at several worker counts
//! also checks that no figure depends on the host's parallelism.  The two
//! binaries that echo their worker count in the banner (`fig11_pipeline`,
//! `ablation_icap`) are pinned to `--workers=1`.
//!
//! `parallel_scaling`, `ablation_arrays` and `bench_summary` print wall-clock
//! times and are not pinned.
//!
//! The two cascade sweeps also run with `--naive`, which evolves their
//! cascades through `ehw_bench::oracle` instead of the cascade jobs: the
//! oracle must reproduce the same figure, with only the engine line naming
//! it.

use std::process::Command;

/// Runs `exe` with the golden experiment shape plus `extra` flags and
/// asserts its stdout equals the committed fixture `name.txt`.
fn check(name: &str, exe: &str, extra: &[&str]) {
    check_with(name, exe, extra, |fixture| fixture);
}

/// Runs a cascade figure with `--naive` and asserts its stdout equals the
/// committed fixture `name.txt` with the engine line naming the oracle.
fn check_naive(name: &str, exe: &str) {
    check_with(name, exe, &["--naive"], |fixture| {
        assert!(
            fixture.contains("cascade engine: Compiled"),
            "{name} fixture"
        );
        fixture.replace("cascade engine: Compiled", "cascade engine: Naive")
    });
}

/// [`check`] against `expected(fixture)`.
fn check_with(name: &str, exe: &str, extra: &[&str], expected: impl FnOnce(String) -> String) {
    let output = Command::new(exe)
        .args(["--runs=1", "--generations=20"])
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let path = format!("{}/tests/figures/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let expected = expected(
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}")),
    );
    let actual = String::from_utf8(output.stdout).expect("figure output is UTF-8");
    assert_eq!(actual, expected, "{name}: output drifted from the fixture");
}

#[test]
fn fig11_pipeline() {
    check(
        "fig11_pipeline",
        env!("CARGO_BIN_EXE_fig11_pipeline"),
        &["--workers=1"],
    );
}

#[test]
fn fig12_speedup() {
    check("fig12_speedup", env!("CARGO_BIN_EXE_fig12_speedup"), &[]);
}

#[test]
fn fig13_speedup_large() {
    check(
        "fig13_speedup_large",
        env!("CARGO_BIN_EXE_fig13_speedup_large"),
        &[],
    );
}

#[test]
fn fig14_new_ea_time() {
    check(
        "fig14_new_ea_time",
        env!("CARGO_BIN_EXE_fig14_new_ea_time"),
        &[],
    );
}

#[test]
fn fig15_new_ea_fitness() {
    check(
        "fig15_new_ea_fitness",
        env!("CARGO_BIN_EXE_fig15_new_ea_fitness"),
        &[],
    );
}

#[test]
fn fig16_cascade_avg() {
    check(
        "fig16_cascade_avg",
        env!("CARGO_BIN_EXE_fig16_cascade_avg"),
        &[],
    );
}

#[test]
fn fig17_cascade_best() {
    check(
        "fig17_cascade_best",
        env!("CARGO_BIN_EXE_fig17_cascade_best"),
        &[],
    );
}

#[test]
fn fig16_cascade_avg_naive() {
    check_naive("fig16_cascade_avg", env!("CARGO_BIN_EXE_fig16_cascade_avg"));
}

#[test]
fn fig17_cascade_best_naive() {
    check_naive(
        "fig17_cascade_best",
        env!("CARGO_BIN_EXE_fig17_cascade_best"),
    );
}

#[test]
fn fig18_cascade_vs_median() {
    check(
        "fig18_cascade_vs_median",
        env!("CARGO_BIN_EXE_fig18_cascade_vs_median"),
        &[],
    );
}

#[test]
fn fig19_imitation() {
    check(
        "fig19_imitation",
        env!("CARGO_BIN_EXE_fig19_imitation"),
        &[],
    );
}

#[test]
fn fig20_tmr_recovery() {
    check(
        "fig20_tmr_recovery",
        env!("CARGO_BIN_EXE_fig20_tmr_recovery"),
        &[],
    );
}

#[test]
fn resources() {
    check("resources", env!("CARGO_BIN_EXE_resources"), &[]);
}

#[test]
fn ablation_icap() {
    check(
        "ablation_icap",
        env!("CARGO_BIN_EXE_ablation_icap"),
        &["--workers=1"],
    );
}

#[test]
fn fault_campaign() {
    check("fault_campaign", env!("CARGO_BIN_EXE_fault_campaign"), &[]);
}
