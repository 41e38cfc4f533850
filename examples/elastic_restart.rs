//! Elastic restart: checkpoint a world at N ranks, restart it onto M.
//!
//! A job of N logical shards is preempted mid-run after committing a
//! checkpoint generation. Because the job carries an elastic policy
//! ([`JobConfig::with_elastic`]), the same generation can be restored onto a
//! *different* rank count: [`JobRuntime::resume_steps_resized`] rewrites each
//! survivor's virtual-id tables, counters and ledgers onto the new world,
//! synthesizes upper halves for any fresh ranks, and lets the
//! [`SkeletonRepartition`] rebalance the logical shards over the new hosts.
//! The workload ([`mana_apps::shard_fold_step`]) folds every phase in
//! logical-rank order, so the final answer
//! is bit-identical no matter how many physical ranks host the shards — the
//! example asserts exactly that for a shrink (8 → 6) and a growth (8 → 12).
//!
//! ```text
//! cargo run --release --example elastic_restart
//! ```

use std::sync::Arc;

use job_runtime::{Backend, JobConfig, JobRuntime, RemapPolicy};
use mana_apps::{shard_fold_step, SkeletonRepartition};
use mpi_model::error::MpiResult;

const STEPS: u64 = 8;
const CKPT_EVERY: u64 = 2;
const KILL_AT: u64 = 3;

/// Checkpoint at `from` ranks, preempt, resume the same generation at `to`.
fn resize_case(from: usize, to: usize) -> MpiResult<()> {
    // The answer the resized run must reproduce exactly.
    let reference =
        JobRuntime::new(JobConfig::new(from, Backend::Mpich).with_checkpoint_every(CKPT_EVERY))
            .run_steps(STEPS, shard_fold_step)?
            .results()?[0];

    let runtime = JobRuntime::new(
        JobConfig::new(from, Backend::Mpich)
            .with_checkpoint_every(CKPT_EVERY)
            .with_kill_at_step(KILL_AT)
            .with_elastic(RemapPolicy::Block, Arc::new(SkeletonRepartition::default())),
    );
    let run = runtime.run_steps(STEPS, shard_fold_step)?;
    assert!(
        run.was_preempted(),
        "the kill-at-step preemption never fired"
    );
    println!(
        "  {from}-rank job preempted at step {KILL_AT}, generation {:?} committed",
        runtime.published_generation()
    );

    let results = runtime
        .resume_steps_resized(to, STEPS, shard_fold_step)?
        .results()?;
    assert_eq!(results.len(), to, "the resized world has {to} ranks");
    assert!(
        results.iter().all(|&v| v == reference),
        "resized run diverged from the uninterrupted baseline"
    );
    println!(
        "  resumed on {to} ranks (now world size {}), all {} answers bit-identical \
         to the uninterrupted {from}-rank run ✓",
        runtime.current_world_size(),
        results.len()
    );
    Ok(())
}

fn main() -> MpiResult<()> {
    println!("shrink: 8 logical shards squeezed onto 6 survivors");
    resize_case(8, 6)?;
    println!("grow: 8 logical shards spread over 12 ranks (4 fresh)");
    resize_case(8, 12)?;
    println!("\nboth resized restarts reproduced their baselines exactly ✓");
    Ok(())
}
