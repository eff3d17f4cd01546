//! The correctness check: every settled result against an in-process
//! `jobs::execute` of the same (spec, seed).
//!
//! Only the members the determinism contract covers are compared —
//! genotypes, fitness history, evaluations, `EngineStats`, the simulated
//! time estimate and the kind payload — so a wire field added later (per-job
//! timing, say) does not read as a wrong answer.

use std::sync::atomic::{AtomicUsize, Ordering};

use ehw_parallel::ParallelConfig;
use ehw_platform::jobs;
use ehw_platform::platform::EhwPlatform;
use ehw_server::json::{self, Value};
use ehw_server::wire;
use ehw_service::JobResult;

use crate::load::JobRecord;
use crate::workload::JobPlan;

const ENVELOPE: [&str; 2] = ["seed", "evaluations"];
const STATS: [&str; 3] = ["plans_evaluated", "memo_hits", "early_exits"];

fn output_members(kind: &str) -> &'static [&'static str] {
    match kind {
        "evolution" => &[
            "best_genotype",
            "best_fitness",
            "initial_fitness",
            "history",
            "generations_run",
            "total_pe_reconfigurations",
            "time",
        ],
        "cascade" => &["stage_genotypes", "stage_fitness"],
        "fault_campaign" => &[
            "scenario",
            "policy",
            "positions",
            "events",
            "critical_positions",
            "fully_recovered_positions",
            "mean_recovery_ratio",
        ],
        "stream" => &[
            "frames",
            "drift_events",
            "adaptations_attempted",
            "adaptations_applied",
            "initial_fitness",
            "final_fitness",
            "segments",
            "final_genotype",
            "output_hash",
        ],
        _ => &[],
    }
}

/// Digest of the contract members of a `result` document.
pub fn digest(result: &Value) -> u64 {
    let pick = |doc: Option<&Value>, keys: &[&str]| {
        Value::Object(
            keys.iter()
                .map(|&key| {
                    let value = doc.and_then(|doc| doc.get(key)).cloned();
                    (key.to_string(), value.unwrap_or(Value::Null))
                })
                .collect(),
        )
    };
    let output = result.get("output");
    let kind = output
        .and_then(|output| output.get("type"))
        .and_then(Value::as_str)
        .unwrap_or("");
    let canonical = Value::Array(vec![
        pick(Some(result), &ENVELOPE),
        pick(result.get("stats"), &STATS),
        Value::String(kind.to_string()),
        pick(output, output_members(kind)),
    ]);
    fnv1a(canonical.to_json().as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of an in-process result, through the same wire encoding the
/// server answers with.
pub fn digest_result(result: &JobResult) -> u64 {
    digest(&wire::encode_result(result))
}

/// Executes `plan` in-process on a fresh single-worker platform: the
/// reference a served result must match.
pub fn execute(plan: &JobPlan) -> JobResult {
    let spec = plan.spec();
    let mut platform = EhwPlatform::with_parallel(spec.arrays_needed(), ParallelConfig::serial());
    jobs::execute(&mut platform, &spec, plan.seed)
}

/// Reference digests for the plans that ran, indexed by plan, computed on
/// `threads` threads.  A resubmit shares its original's digest.
pub fn reference_digests(plans: &[JobPlan], ran: &[JobRecord], threads: usize) -> Vec<Option<u64>> {
    let mut roots: Vec<usize> = ran
        .iter()
        .map(|job| plans[job.plan].original.unwrap_or(job.plan))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let cursor = AtomicUsize::new(0);
    let computed: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(&root) = roots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        done.push((root, digest_result(&execute(&plans[root]))));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("reference thread panicked"))
            .collect()
    });
    let mut by_root = vec![None; plans.len()];
    for (root, digest) in computed {
        by_root[root] = Some(digest);
    }
    (0..plans.len())
        .map(|i| by_root[plans[i].original.unwrap_or(i)])
        .collect()
}

/// Outcome of comparing the settled jobs with their references.
pub struct Check {
    pub results: usize,
    pub mismatches: Vec<String>,
    /// Sum of `evaluations` over the settled results.
    pub evaluations: u64,
}

/// Compares every settled job in `jobs` with the reference digest of its
/// plan.
pub fn check(jobs: &[JobRecord], references: &[Option<u64>]) -> Check {
    let mut check = Check {
        results: 0,
        mismatches: Vec::new(),
        evaluations: 0,
    };
    for job in jobs {
        let Ok(body) = &job.outcome else { continue };
        check.results += 1;
        let served = json::parse(body)
            .map_err(|e| format!("job {}: unparsable status document: {e}", job.plan))
            .and_then(|doc| {
                doc.get("result")
                    .cloned()
                    .ok_or_else(|| format!("job {}: status document has no result", job.plan))
            });
        match (served, references[job.plan]) {
            (Ok(result), Some(reference)) => {
                check.evaluations += result
                    .get("evaluations")
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                if digest(&result) != reference {
                    check.mismatches.push(format!(
                        "job {} differs from its in-process reference",
                        job.plan
                    ));
                }
            }
            (Ok(_), None) => check
                .mismatches
                .push(format!("job {} has no reference", job.plan)),
            (Err(why), _) => check.mismatches.push(why),
        }
    }
    check
}
