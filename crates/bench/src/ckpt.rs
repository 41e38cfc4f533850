//! Table 3 extension: full vs incremental vs incremental+compressed checkpoint
//! storage, at several dirty fractions, on a synthetic multi-MiB upper half — plus
//! the coordinated-checkpoint concurrency comparison: 8 ranks writing one generation
//! in parallel through the sharded store vs the serialized pre-shard baseline.
//!
//! This is the harness-facing companion of the `table3_checkpoint` Criterion bench:
//! it reports *bytes written* and the modelled NFSv3 write time for generation G+1
//! after dirtying 1%, 10%, or 100% of the regions since generation G, and measured
//! wall time for the parallel write phase.

use ckpt_store::{CheckpointStorage, StoragePolicy, StoreConfig, StoreReport, DEFAULT_SHARD_COUNT};
use serde::{Deserialize, Serialize};
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::{Arc, Mutex};

/// Number of equally sized regions in the synthetic upper half.
pub const REGIONS: usize = 100;
/// Bytes per region (100 × 80 KiB = 8000 KiB ≈ 7.8 MiB, comfortably over the 4 MiB
/// the acceptance scenario calls for).
pub const REGION_BYTES: usize = 80 * 1024;

/// One measured storage configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageRow {
    /// Storage policy measured.
    pub policy: StoragePolicy,
    /// Fraction of regions dirtied between the two generations (0.01, 0.10, 1.0).
    pub dirty_fraction: f64,
    /// Logical (flat-equivalent) image payload in bytes.
    pub logical_bytes: usize,
    /// Bytes physically written for the second generation.
    pub written_bytes: usize,
    /// `logical / written` reduction factor.
    pub reduction: f64,
    /// Modelled NFSv3 (Discovery) write time for the second generation.
    pub write_time_s: f64,
}

fn synthetic_upper() -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for r in 0..REGIONS {
        // Mildly compressible content: runs of a region-dependent byte interrupted by
        // position-dependent noise, so RLE wins something but not everything.
        let data: Vec<u8> = (0..REGION_BYTES)
            .map(|i| {
                if i % 7 == 0 {
                    (i.wrapping_mul(2654435761) >> 5) as u8
                } else {
                    (r % 251) as u8
                }
            })
            .collect();
        upper.map_region(format!("app.region{r:03}"), data);
    }
    upper
}

fn image_of(generation: u64, upper: &UpperHalfSpace) -> CheckpointImage {
    CheckpointImage::new(
        ImageMetadata {
            rank: 0,
            world_size: 1,
            generation,
            implementation: "mpich".into(),
        },
        upper.clone(),
    )
}

/// Write generation 0, dirty `dirty_fraction` of the regions, write generation 1
/// under `policy`, and report what generation 1 cost.
pub fn measure(policy: StoragePolicy, dirty_fraction: f64) -> StoreReport {
    let storage = CheckpointStorage::with_model(StoreConfig::nfs_discovery());
    let mut upper = synthetic_upper();
    storage.write_image(policy, &image_of(0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    let dirty_regions = ((REGIONS as f64 * dirty_fraction).round() as usize).clamp(1, REGIONS);
    for r in 0..dirty_regions {
        // Touch one byte per dirtied region: region-level tracking re-encodes the
        // whole region, chunk-level dedup then recovers its untouched chunks.
        upper
            .region_mut(&format!("app.region{r:03}"))
            .expect("region exists")[r % REGION_BYTES] ^= 0xFF;
    }
    storage.write_image(policy, &image_of(1, &upper))
}

/// All `(policy, dirty fraction)` rows of the comparison.
pub fn storage_rows() -> Vec<StorageRow> {
    let mut rows = Vec::new();
    for policy in [
        StoragePolicy::FullImage,
        StoragePolicy::Incremental,
        StoragePolicy::IncrementalCompressed,
    ] {
        for dirty_fraction in [0.01, 0.10, 1.0] {
            let report = measure(policy, dirty_fraction);
            rows.push(StorageRow {
                policy,
                dirty_fraction,
                logical_bytes: report.logical_bytes,
                written_bytes: report.written_bytes,
                reduction: report.reduction_factor(),
                write_time_s: report.write_time_s,
            });
        }
    }
    rows
}

/// Render the comparison as an aligned text note for the harness.
pub fn storage_comparison_note() -> String {
    let mut note = String::from(
        "== Table 3 extension: ckpt-store full vs incremental encode \
         (8000 KiB upper half, generation G+1, NFSv3 model) ==\n",
    );
    note.push_str(&format!(
        "{:<16} {:>8} {:>12} {:>12} {:>10} {:>12}\n",
        "policy", "dirty", "logical B", "written B", "reduction", "write time"
    ));
    for row in storage_rows() {
        note.push_str(&format!(
            "{:<16} {:>7.0}% {:>12} {:>12} {:>9.1}x {:>11.2}s\n",
            row.policy.label(),
            row.dirty_fraction * 100.0,
            row.logical_bytes,
            row.written_bytes,
            row.reduction,
            row.write_time_s
        ));
    }
    note
}

// ----------------------------------------------------------------------
// Shifted dirty region: content-defined cuts survive an insertion
// ----------------------------------------------------------------------

/// Bytes of the shifted region: 16 chunks at the default 64 KiB maximum (17 once
/// the insertion spills past the last fixed boundary).
pub const SHIFTED_REGION_BYTES: usize = 1 << 20;
/// Bytes inserted at the region's front between its two checkpoints.
pub const SHIFTED_INSERT_BYTES: usize = 3;
/// Most chunks the second checkpoint may store anew.
pub const SHIFTED_CHUNKS_NEW_GATE: usize = 3;

/// One non-repeating region checkpointed twice, the second time with
/// [`SHIFTED_INSERT_BYTES`] inserted at its front. Every offset after the insertion
/// moves; content-defined cuts move with the content, so the chunks past the edit
/// dedup against the first checkpoint's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShiftedRegionReport {
    /// Region length before the insertion.
    pub region_bytes: usize,
    /// Bytes inserted at the region's front.
    pub inserted_bytes: usize,
    /// Chunks the second checkpoint stored anew.
    pub chunks_new: usize,
    /// Chunks the second checkpoint re-referenced from the first.
    pub chunks_reused: usize,
    /// Bytes the second checkpoint wrote: new chunks plus its manifest.
    pub written_bytes: usize,
    /// Chunks a fixed-size chunker would have stored anew (all of them: every
    /// fixed boundary shifts).
    pub fixed_chunks_new: usize,
    /// Most chunks the second checkpoint may store anew.
    pub chunks_new_gate: usize,
    /// `chunks_new <= chunks_new_gate` and the shifted image read back intact.
    pub pass: bool,
}

/// Run the shifted-region checkpoint pair. Deterministic: the region is a fixed
/// xorshift stream, and cuts are a pure function of content.
pub fn measure_shifted_region() -> ShiftedRegionReport {
    let storage = CheckpointStorage::unmetered();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let data: Vec<u8> = (0..SHIFTED_REGION_BYTES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect();
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.state", data);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    upper
        .region_mut("app.state")
        .expect("region exists")
        .splice(0..0, [0xC4u8; SHIFTED_INSERT_BYTES]);
    let shifted = image_of(1, &upper);
    let report = storage.write_image(StoragePolicy::Incremental, &shifted);
    let intact = storage
        .read(1, 0)
        .is_ok_and(|back| back.upper_half == shifted.upper_half);
    ShiftedRegionReport {
        region_bytes: SHIFTED_REGION_BYTES,
        inserted_bytes: SHIFTED_INSERT_BYTES,
        chunks_new: report.chunks_new,
        chunks_reused: report.chunks_reused,
        written_bytes: report.written_bytes,
        fixed_chunks_new: (SHIFTED_REGION_BYTES + SHIFTED_INSERT_BYTES)
            .div_ceil(ckpt_store::DEFAULT_CHUNK_SIZE),
        chunks_new_gate: SHIFTED_CHUNKS_NEW_GATE,
        pass: intact && report.chunks_new <= SHIFTED_CHUNKS_NEW_GATE,
    }
}

/// Render a shifted-region measurement for the harness.
pub fn shifted_region_note_from(report: &ShiftedRegionReport) -> String {
    format!(
        "== ckpt-store: shifted dirty region ({} B, {} B inserted at the front) ==\n\
         second checkpoint: {} chunks new, {} reused, {} B written \
         (fixed-size chunks: all {} new) — chunks_new gate ≤{} — {}\n",
        report.region_bytes,
        report.inserted_bytes,
        report.chunks_new,
        report.chunks_reused,
        report.written_bytes,
        report.fixed_chunks_new,
        report.chunks_new_gate,
        if report.pass { "PASS" } else { "FAIL" }
    )
}

// ----------------------------------------------------------------------
// Parallel checkpoint: sharded store vs serialized baseline
// ----------------------------------------------------------------------

/// Ranks in the parallel-write comparison (the acceptance scenario's world size).
pub const PARALLEL_WORLD: usize = 8;
const PARALLEL_REGIONS: usize = 16;
const PARALLEL_REGION_BYTES: usize = 256 * 1024;

/// One measured configuration of the 8-rank parallel generation write.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelCkptRow {
    /// Human-readable configuration label.
    pub mode: String,
    /// Digest-keyed shards in the store.
    pub shards: usize,
    /// Whether writes were forced through one whole-write lock (the behaviour of the
    /// pre-shard engine, whose single `Mutex<Inner>` serialized entire writes).
    pub serialized: bool,
    /// Concurrent writer ranks.
    pub world: usize,
    /// Wall-clock seconds from first write start to last write end.
    pub wall_seconds: f64,
    /// Bytes physically written across all ranks.
    pub total_written_bytes: usize,
}

/// A rank-private upper half: aperiodic content offset per rank, so no chunk is
/// shared across ranks and every writer pushes its full payload through the store.
fn parallel_rank_upper(rank: usize) -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for r in 0..PARALLEL_REGIONS {
        let data: Vec<u8> = (0..PARALLEL_REGION_BYTES)
            .map(|i| {
                ((i as u64)
                    .wrapping_add(rank as u64 * 10_000_019)
                    .wrapping_add(r as u64 * 97_001)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 24) as u8
            })
            .collect();
        upper.map_region(format!("app.region{r:02}"), data);
    }
    upper
}

/// Write one generation from `PARALLEL_WORLD` concurrent ranks into a store with
/// `shards` shards and measure the wall time of the whole write phase.
/// `serialize_writes` wraps every write in one global lock, reproducing the
/// pre-shard engine's behaviour as the baseline.
pub fn measure_parallel_checkpoint(shards: usize, serialize_writes: bool) -> ParallelCkptRow {
    let storage = CheckpointStorage::unmetered().with_shards(shards);
    let whole_write_lock = Arc::new(Mutex::new(()));
    let uppers: Vec<UpperHalfSpace> = (0..PARALLEL_WORLD).map(parallel_rank_upper).collect();

    let start = std::time::Instant::now();
    let handles: Vec<_> = uppers
        .into_iter()
        .enumerate()
        .map(|(rank, upper)| {
            let storage = storage.clone();
            let lock = Arc::clone(&whole_write_lock);
            std::thread::spawn(move || {
                let image = CheckpointImage::new(
                    ImageMetadata {
                        rank: rank as i32,
                        world_size: PARALLEL_WORLD,
                        generation: 0,
                        implementation: "mpich".into(),
                    },
                    upper,
                );
                let report = if serialize_writes {
                    let _guard = lock.lock().expect("baseline lock");
                    storage.write_image(StoragePolicy::Incremental, &image)
                } else {
                    storage.write_image(StoragePolicy::Incremental, &image)
                };
                report.written_bytes
            })
        })
        .collect();
    let total_written_bytes = handles.into_iter().map(|h| h.join().expect("writer")).sum();
    let wall_seconds = start.elapsed().as_secs_f64();

    let mode = if serialize_writes {
        "serialized baseline (whole-write lock)".to_string()
    } else {
        format!(
            "parallel, {shards} shard{}",
            if shards == 1 { "" } else { "s" }
        )
    };
    ParallelCkptRow {
        mode,
        shards,
        serialized: serialize_writes,
        world: PARALLEL_WORLD,
        wall_seconds,
        total_written_bytes,
    }
}

/// The three rows of the comparison: serialized baseline, parallel single-shard,
/// parallel sharded. Each configuration is measured twice and the faster run kept,
/// damping scheduler noise.
pub fn parallel_checkpoint_rows() -> Vec<ParallelCkptRow> {
    let best = |shards, serialized| {
        let a = measure_parallel_checkpoint(shards, serialized);
        let b = measure_parallel_checkpoint(shards, serialized);
        if a.wall_seconds <= b.wall_seconds {
            a
        } else {
            b
        }
    };
    vec![
        best(DEFAULT_SHARD_COUNT, true),
        best(1, false),
        best(DEFAULT_SHARD_COUNT, false),
    ]
}

/// Render the parallel-write comparison as an aligned text note for the harness.
pub fn parallel_checkpoint_note() -> String {
    parallel_checkpoint_note_from(parallel_checkpoint_rows())
}

/// Render already-measured parallel-write rows as an aligned text note.
pub fn parallel_checkpoint_note_from(rows: Vec<ParallelCkptRow>) -> String {
    let baseline = rows
        .iter()
        .find(|r| r.serialized)
        .map(|r| r.wall_seconds)
        .unwrap_or(0.0);
    let mut note = format!(
        "== Parallel checkpoint: {PARALLEL_WORLD} ranks, one generation, sharded store vs \
         serialized baseline ==\n{:<40} {:>12} {:>12} {:>10}\n",
        "configuration", "written B", "wall (ms)", "speedup"
    );
    for row in rows {
        note.push_str(&format!(
            "{:<40} {:>12} {:>12.1} {:>9.1}x\n",
            row.mode,
            row.total_written_bytes,
            row.wall_seconds * 1e3,
            if row.wall_seconds > 0.0 {
                baseline / row.wall_seconds
            } else {
                f64::INFINITY
            }
        ));
    }
    note
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_percent_dirty_beats_full_by_ten_x() {
        let full = measure(StoragePolicy::FullImage, 0.01);
        let incremental = measure(StoragePolicy::Incremental, 0.01);
        assert!(incremental.written_bytes * 10 <= full.written_bytes);
        assert!(incremental.write_time_s < full.write_time_s);
    }

    #[test]
    fn compression_only_helps() {
        let plain = measure(StoragePolicy::Incremental, 1.0);
        let compressed = measure(StoragePolicy::IncrementalCompressed, 1.0);
        assert!(compressed.written_bytes <= plain.written_bytes);
        assert!(compressed.compression_saved_bytes > 0);
    }

    #[test]
    fn note_renders_all_rows() {
        let note = storage_comparison_note();
        assert!(note.contains("full"));
        assert!(note.contains("incremental+comp"));
        assert_eq!(note.lines().count(), 2 + 9);
    }

    #[test]
    fn shifted_region_stores_only_the_chunks_at_the_edit() {
        let report = measure_shifted_region();
        assert!(report.pass, "{report:?}");
        assert_eq!(report.fixed_chunks_new, 17);
        assert!(report.chunks_reused >= 10, "{report:?}");
        assert_eq!(report, measure_shifted_region(), "deterministic");
        assert!(shifted_region_note_from(&report).contains("PASS"));
    }

    #[test]
    fn parallel_sharded_writes_beat_the_serialized_baseline() {
        // Acceptance criterion: checkpoint wall time for an 8-rank world through the
        // sharded store is measurably below the serialized baseline. Take the best
        // of two runs per configuration to damp scheduler noise, and render the
        // rows here too (so only this test pays for actual measurement).
        let rows = parallel_checkpoint_rows();
        let baseline = rows.iter().find(|r| r.serialized).unwrap().clone();
        let sharded = rows
            .iter()
            .find(|r| !r.serialized && r.shards == DEFAULT_SHARD_COUNT)
            .unwrap()
            .clone();
        assert_eq!(baseline.total_written_bytes, sharded.total_written_bytes);
        // Wall-time speedup needs real cores: on a single-CPU box the eight writer
        // threads timeshare one core and both configurations degenerate to the same
        // serial wall time, so only assert the ordering where parallelism exists.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            assert!(
                sharded.wall_seconds < baseline.wall_seconds,
                "sharded parallel writes ({:.1} ms) must beat the serialized baseline \
                 ({:.1} ms) on {cores} cores",
                sharded.wall_seconds * 1e3,
                baseline.wall_seconds * 1e3
            );
        } else {
            println!("single-CPU machine: skipping the wall-time ordering assertion");
        }

        let note = parallel_checkpoint_note_from(rows);
        assert!(note.contains("serialized baseline"));
        assert!(note.contains("16 shards"));
    }
}
