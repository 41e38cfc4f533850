//! Elastic restart bench: the wall time of resizing a checkpointed world onto a
//! different rank count, against the same-size restart as the baseline.
//!
//! Two CI cases, both over the partition-independent logical-shard workload:
//!
//! * **shrink** — a 16-rank job restarted onto 12 ranks;
//! * **grow** — an 8-rank job restarted onto 16 ranks.
//!
//! Per case the harness checkpoints mid-run, times a plain same-size restart and
//! an elastic resized restart of the *same* generation, then drives the resized
//! world to completion and compares its answer bit-for-bit against the
//! uninterrupted run. The gate is correctness (`all_match`): the wall-time ratio
//! is reported for trend-watching, not gated, because both restarts are
//! sub-second in the simulator.

use std::sync::Arc;
use std::time::Instant;

use job_runtime::{Backend, JobConfig, JobRuntime, RemapPolicy};
use mana_apps::{shard_fold_step, SkeletonRepartition};
use serde::{Deserialize, Serialize};

/// Shape of the elastic-restart smoke bench.
#[derive(Debug, Clone)]
pub struct ElasticBenchConfig {
    /// Total steps per job.
    pub steps: u64,
    /// Checkpoint interval (steps).
    pub checkpoint_every: u64,
    /// `(from, to)` world-size cases.
    pub cases: Vec<(usize, usize)>,
}

impl Default for ElasticBenchConfig {
    fn default() -> Self {
        ElasticBenchConfig {
            steps: 6,
            checkpoint_every: 3,
            cases: vec![(16, 12), (8, 16)],
        }
    }
}

/// One resize case's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticResizeRow {
    /// World size the checkpoint was taken with.
    pub from: usize,
    /// World size the job restarted onto.
    pub to: usize,
    /// Wall time of a plain restart at the checkpointed size, ms.
    pub same_size_restart_ms: f64,
    /// Wall time of the elastic restart onto `to` ranks, ms.
    pub resized_restart_ms: f64,
    /// `resized_restart_ms / same_size_restart_ms` (informational).
    pub overhead: f64,
    /// Whether the resized run finished with the uninterrupted run's exact answer.
    pub matches_baseline: bool,
}

/// The elastic bench aggregate and its gate verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticBenchReport {
    /// Steps per job.
    pub steps: u64,
    /// Per-case rows.
    pub rows: Vec<ElasticResizeRow>,
    /// Whether every resized run matched its uninterrupted baseline bit-for-bit.
    pub all_match: bool,
    /// Whether the gate passed (`all_match`).
    pub pass: bool,
}

fn measure_case(from: usize, to: usize, config: &ElasticBenchConfig) -> ElasticResizeRow {
    // The answer the resized run must reproduce exactly.
    let reference = JobRuntime::new(
        JobConfig::new(from, Backend::Mpich).with_checkpoint_every(config.checkpoint_every),
    )
    .run_steps(config.steps, shard_fold_step)
    .expect("uninterrupted baseline")
    .results()
    .expect("baseline completes")[0];

    let runtime = JobRuntime::new(
        JobConfig::new(from, Backend::Mpich)
            .with_checkpoint_every(config.checkpoint_every)
            .with_kill_at_step(config.checkpoint_every)
            .with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default())),
    );
    let run = runtime
        .run_steps(config.steps, shard_fold_step)
        .expect("checkpointed leg");
    assert!(
        run.was_preempted(),
        "the kill-at-step preemption never fired"
    );

    // Same generation, two restore paths: plain same-size first (it leaves the
    // runtime's world size untouched), then the elastic resize.
    let t = Instant::now();
    let same = runtime.restart(Backend::Mpich).expect("same-size restart");
    let same_size_restart_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(same);

    let t = Instant::now();
    let resized = runtime.restart_resized(to).expect("elastic restart");
    let resized_restart_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(resized);

    let results = runtime
        .resume_steps_resized(to, config.steps, shard_fold_step)
        .expect("resized leg")
        .results()
        .expect("resized leg completes");
    let matches_baseline = results.len() == to && results.iter().all(|&v| v == reference);

    ElasticResizeRow {
        from,
        to,
        same_size_restart_ms,
        resized_restart_ms,
        overhead: if same_size_restart_ms > 0.0 {
            resized_restart_ms / same_size_restart_ms
        } else {
            0.0
        },
        matches_baseline,
    }
}

/// Run the elastic-restart cases and aggregate the report.
pub fn measure_elastic_bench(config: &ElasticBenchConfig) -> ElasticBenchReport {
    let rows: Vec<ElasticResizeRow> = config
        .cases
        .iter()
        .map(|&(from, to)| measure_case(from, to, config))
        .collect();
    let all_match = rows.iter().all(|r| r.matches_baseline);
    ElasticBenchReport {
        steps: config.steps,
        all_match,
        pass: all_match,
        rows,
    }
}

/// Render the elastic table + summary from an existing report.
pub fn elastic_note_from(report: &ElasticBenchReport) -> String {
    let mut note = format!(
        "== Elastic restart: resized vs same-size restore of one generation, {} steps ==\n",
        report.steps
    );
    note.push_str(&format!(
        "{:>10} {:>14} {:>14} {:>9} {:>10}\n",
        "resize", "same-size(ms)", "resized(ms)", "ratio", "identical"
    ));
    for row in &report.rows {
        note.push_str(&format!(
            "{:>10} {:>14.2} {:>14.2} {:>9.2} {:>10}\n",
            format!("{}->{}", row.from, row.to),
            row.same_size_restart_ms,
            row.resized_restart_ms,
            row.overhead,
            if row.matches_baseline { "yes" } else { "NO" },
        ));
    }
    note.push_str(&format!(
        "every resized run bit-identical to its uninterrupted baseline — {}\n",
        if report.pass { "PASS" } else { "FAIL" }
    ));
    note
}

/// Run the default cases and render their note.
pub fn elastic_note() -> String {
    elastic_note_from(&measure_elastic_bench(&ElasticBenchConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_elastic_bench_passes_and_renders() {
        let config = ElasticBenchConfig {
            cases: vec![(4, 2), (2, 4)],
            ..ElasticBenchConfig::default()
        };
        let report = measure_elastic_bench(&config);
        assert!(report.pass, "elastic bench failed: {report:?}");
        let note = elastic_note_from(&report);
        assert!(note.contains("Elastic restart"));
        assert!(note.contains("PASS"));
    }
}
