//! Asynchronous checkpoint flush: what a rank *stalls* vs what the flush *costs*.
//!
//! The synchronous `write_checkpoint` stalls a rank for the full
//! chunk/hash/compress/store work of its image. The asynchronous split
//! (`snapshot_checkpoint` + `FlusherPool`) stalls the rank only for the snapshot — a
//! memory copy of the upper half — and performs the expensive write on a flusher
//! thread. This module measures both on the CoMD memory profile (the paper's 32
//! MB/rank checkpoint shape, scaled down) through a real `ManaRank`, and gates on
//! the acceptance criterion: **async stall ≤ 50% of the synchronous write wall
//! time**, per checkpoint.
//!
//! Like the repo's other wall-time comparisons (the parallel-write and
//! typed-overhead rows), each path keeps the **fastest** of its repeated rounds —
//! the fastest round is the one least polluted by scheduler preemption and
//! allocator page faults, i.e. the true cost of the work — and the gate compares
//! fastest against fastest. The median paired ratio is reported alongside for
//! context.

use ckpt_store::{CheckpointStorage, FlusherPool};
use mana::{ManaConfig, ManaRank, StoragePolicy};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Fraction of the CoMD full-scale state measured per rank (0.25 × 32 MB = 8 MB —
/// large enough that the chunk/compress work dominates timer noise).
pub const ASYNC_CKPT_STATE_SCALE: f64 = 0.25;
/// Measured checkpoint rounds per path (paired, after one warm-up round; the
/// fastest-of-rounds figures are gated).
pub const ASYNC_CKPT_ROUNDS: usize = 7;

const STATE_REGION: &str = "app.comd.state";

/// The async-vs-sync stall comparison and its gate verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncCkptReport {
    /// Per-rank state bytes in the measured image (CoMD profile, scaled).
    pub state_bytes: usize,
    /// Checkpoint rounds measured per path.
    pub rounds: usize,
    /// Fastest per-checkpoint rank stall under the synchronous write (ms): the full
    /// `write_checkpoint` wall time.
    pub sync_stall_ms: f64,
    /// Fastest per-checkpoint rank stall under the async split (ms): snapshot +
    /// submit, nothing else.
    pub async_stall_ms: f64,
    /// Fastest end-to-end flush (ms): submit until the background write landed.
    pub async_flush_ms: f64,
    /// `async_stall_ms / sync_stall_ms` (fastest vs fastest) — the gated figure.
    pub stall_fraction: f64,
    /// Median over paired rounds of `async_stall / sync_stall`, for context (on a
    /// loaded single-CPU machine individual rounds absorb scheduler noise that the
    /// fastest-round figure sheds).
    pub median_stall_fraction: f64,
    /// Maximum acceptable `stall_fraction`.
    pub gate_fraction: f64,
    /// Whether the async stall stayed under the gate.
    pub pass: bool,
}

/// A single-rank MANA world carrying a CoMD-profile state region under the given
/// storage policy.
fn comd_rank(session_id: u64) -> ManaRank {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let lower = mpich_sim::MpichFactory::mpich()
        .launch(1, Arc::clone(&registry), session_id)
        .expect("launch")
        .pop()
        .expect("one rank");
    let config = ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
    let mut rank = ManaRank::new(lower, config, registry).expect("wrap");
    let bytes = state_bytes();
    rank.upper_mut().map_region(STATE_REGION, vec![0u8; bytes]);
    rank
}

/// CoMD per-rank state bytes at the measured scale.
pub fn state_bytes() -> usize {
    mana_apps::comd::profile().state_bytes_at_scale(ASYNC_CKPT_STATE_SCALE)
}

/// Rewrite the whole state region with round-dependent, mildly compressible content
/// (runs of a round constant interrupted by position noise — the same texture the
/// Table 3 bench uses), so every round's checkpoint re-chunks and re-compresses the
/// full image: the worst case for the synchronous stall and the honest baseline for
/// the snapshot's memory copy.
fn dirty_state(rank: &mut ManaRank, round: u64) {
    let region = rank
        .upper_mut()
        .region_mut(STATE_REGION)
        .expect("state region mapped");
    for (i, byte) in region.iter_mut().enumerate() {
        *byte = if i % 7 == 0 {
            ((i as u64).wrapping_mul(2654435761) >> 5) as u8
        } else {
            (round % 251) as u8
        };
    }
}

/// Measure both paths over paired rounds (at least one) and compare against
/// `gate_fraction`.
pub fn measure_async_ckpt(gate_fraction: f64, rounds: usize) -> AsyncCkptReport {
    let rounds = rounds.max(1);
    let mut sync_rank = comd_rank(31);
    let sync_storage = CheckpointStorage::unmetered();

    let mut async_rank = comd_rank(32);
    let async_storage = CheckpointStorage::unmetered();
    let pool = FlusherPool::with_workers(async_storage.clone(), 2);

    let mut sync_stall = f64::INFINITY;
    let mut async_stall = f64::INFINITY;
    let mut async_flush = f64::INFINITY;
    let mut paired_fractions = Vec::with_capacity(rounds);
    // One unmeasured warm-up round: the first checkpoint pays one-off allocator
    // growth and page-fault costs that belong to neither path.
    for round in 0..=rounds as u64 {
        let warmup = round == 0;
        // Synchronous path: the rank stalls for the whole write.
        dirty_state(&mut sync_rank, round);
        let start = Instant::now();
        sync_rank
            .write_checkpoint(&sync_storage)
            .expect("sync write");
        let sync_s = start.elapsed().as_secs_f64();

        // Asynchronous path: the rank stalls only for snapshot + submit; the flush
        // runs (and is then awaited, outside the stall window) in the background.
        dirty_state(&mut async_rank, round);
        let start = Instant::now();
        let handle = async_rank
            .write_checkpoint_async(&pool, |_| {})
            .expect("async snapshot");
        let async_s = start.elapsed().as_secs_f64();
        handle.wait();
        let flush_s = start.elapsed().as_secs_f64();
        if warmup {
            continue;
        }
        sync_stall = sync_stall.min(sync_s);
        async_stall = async_stall.min(async_s);
        async_flush = async_flush.min(flush_s);
        paired_fractions.push(async_s / sync_s);
    }
    pool.wait_idle();

    paired_fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
    let median_stall_fraction = paired_fractions[paired_fractions.len() / 2];
    let stall_fraction = async_stall / sync_stall;
    AsyncCkptReport {
        state_bytes: state_bytes(),
        rounds,
        sync_stall_ms: sync_stall * 1e3,
        async_stall_ms: async_stall * 1e3,
        async_flush_ms: async_flush * 1e3,
        stall_fraction,
        median_stall_fraction,
        gate_fraction,
        pass: stall_fraction <= gate_fraction,
    }
}

/// Render the comparison as an aligned text note for the harness.
pub fn async_ckpt_note() -> String {
    async_ckpt_note_from(&measure_async_ckpt(
        crate::ASYNC_CKPT_GATE_FRACTION,
        ASYNC_CKPT_ROUNDS,
    ))
}

/// Render an already-measured comparison.
pub fn async_ckpt_note_from(report: &AsyncCkptReport) -> String {
    let mut note = format!(
        "== Async checkpoint flush: CoMD profile, {} KiB/rank, {} paired rounds ==\n\
         {:<28} {:>14} {:>18}\n",
        report.state_bytes / 1024,
        report.rounds,
        "path",
        "stall (ms)",
        "end-to-end (ms)"
    );
    note.push_str(&format!(
        "{:<28} {:>14.2} {:>18.2}\n",
        "sync write_checkpoint", report.sync_stall_ms, report.sync_stall_ms
    ));
    note.push_str(&format!(
        "{:<28} {:>14.2} {:>18.2}\n",
        "async snapshot + flush", report.async_stall_ms, report.async_flush_ms
    ));
    note.push_str(&format!(
        "stall fraction (fastest async/sync): {:.2}, median {:.2} (gate: ≤{:.2}) — {}\n",
        report.stall_fraction,
        report.median_stall_fraction,
        report.gate_fraction,
        if report.pass { "PASS" } else { "FAIL" }
    ));
    note
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance criterion: with `async_checkpoint` on the CoMD profile, the
    /// per-checkpoint rank stall is at most half the synchronous write wall time.
    /// (A memory copy vs chunk + FNV hash + RLE compress + store of the same bytes:
    /// the margin holds in debug and release alike.)
    #[test]
    fn async_stall_is_at_most_half_the_sync_write() {
        let report = measure_async_ckpt(crate::ASYNC_CKPT_GATE_FRACTION, 5);
        assert!(
            report.pass,
            "async stall fraction {:.2} over gate {:.2} (sync {:.2} ms, async {:.2} ms)",
            report.stall_fraction,
            report.gate_fraction,
            report.sync_stall_ms,
            report.async_stall_ms
        );
        assert!(report.async_flush_ms >= report.async_stall_ms);
        let note = async_ckpt_note_from(&report);
        assert!(note.contains("async snapshot + flush"));
        assert!(note.contains("PASS"));
    }
}
