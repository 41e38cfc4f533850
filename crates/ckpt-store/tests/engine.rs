//! Engine-level tests for the incremental, content-addressed checkpoint store:
//! round-trips, dedup, dirty-region reuse, compression, integrity fallback, and GC.

use ckpt_store::{CheckpointStorage, StoragePolicy};
use split_proc::address_space::UpperHalfSpace;
use split_proc::image::{CheckpointImage, ImageMetadata};
use split_proc::store::StoreConfig;

fn metadata(rank: i32, generation: u64) -> ImageMetadata {
    ImageMetadata {
        rank,
        world_size: 2,
        generation,
        implementation: "mpich".into(),
    }
}

/// An upper half of `regions` regions × `region_bytes` bytes of incompressible
/// (position-dependent) content, unique per rank.
fn synthetic_upper(rank: i32, regions: usize, region_bytes: usize) -> UpperHalfSpace {
    let mut upper = UpperHalfSpace::new();
    for r in 0..regions {
        let data: Vec<u8> = (0..region_bytes)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(r as u64 * 97)
                    .wrapping_add(rank as u64 * 131);
                (x >> 3) as u8
            })
            .collect();
        upper.map_region(format!("app.region{r:03}"), data);
    }
    upper
}

fn image_of(rank: i32, generation: u64, upper: &UpperHalfSpace) -> CheckpointImage {
    CheckpointImage::new(metadata(rank, generation), upper.clone())
}

#[test]
fn full_image_policy_roundtrips() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(0, 4, 10_000);
    let report = storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    assert_eq!(report.policy, StoragePolicy::FullImage);
    assert!(report.written_bytes >= report.logical_bytes);
    assert_eq!(report.chunks_new, 0);

    let back = storage.read(0, 0).unwrap();
    assert_eq!(back.upper_half, upper);
    assert!(storage.contains(0, 0));
    assert!(!storage.contains(1, 0));
    assert!(storage.read(0, 1).is_err());
}

#[test]
fn incremental_roundtrips_and_dedups_across_ranks() {
    let storage = CheckpointStorage::unmetered();
    // Both ranks share most content (rank folded in weakly): force identical regions.
    let upper = synthetic_upper(0, 8, 64 * 1024);
    let report0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    let report1 = storage.write_image(StoragePolicy::Incremental, &image_of(1, 0, &upper));

    assert!(report0.chunks_new > 0);
    // Rank 1's image is byte-identical: every chunk dedups against rank 0's.
    assert_eq!(report1.chunks_new, 0);
    assert_eq!(report1.chunks_reused, report0.chunks_new);
    assert!(report1.written_bytes < report0.written_bytes / 10);

    for rank in 0..2 {
        let back = storage.read(0, rank).unwrap();
        assert_eq!(back.upper_half, upper);
        assert_eq!(back.metadata.rank, rank);
    }
}

/// Acceptance criterion: an incremental checkpoint of a ≥4 MiB upper half with ≤1%
/// dirty regions encodes ≥10× fewer bytes than the full-image baseline.
#[test]
fn one_percent_dirty_writes_ten_times_fewer_bytes() {
    let storage = CheckpointStorage::unmetered();
    // 128 × 64 KiB = 8 MiB; one dirty region = 0.78% of the regions and bytes.
    let mut upper = synthetic_upper(0, 128, 64 * 1024);
    assert!(upper.total_bytes() >= 4 << 20);

    let baseline = storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));

    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    // Touch exactly one region.
    upper.region_mut("app.region064").unwrap()[12345] ^= 0xFF;
    assert_eq!(upper.dirty_count(), 1);

    let image2 = image_of(0, 2, &upper);
    let gen1 = storage.write_image(StoragePolicy::Incremental, &image2);
    upper.mark_clean();
    upper.advance_epoch();

    assert_eq!(
        gen1.regions_reused, 127,
        "clean regions reuse their chunk lists"
    );
    assert!(
        gen1.written_bytes * 10 <= baseline.written_bytes,
        "incremental wrote {} bytes, full baseline {} — less than 10× reduction",
        gen1.written_bytes,
        baseline.written_bytes
    );
    assert!(
        gen1.written_bytes * 10 <= gen0.written_bytes,
        "second generation must also be ≥10× below the first full encode"
    );
    assert!(gen1.reduction_factor() >= 10.0);

    // And the reassembled image is exactly what was checkpointed.
    let back = storage.read(2, 0).unwrap();
    assert_eq!(back.upper_half, image2.upper_half);
}

#[test]
fn compression_shrinks_compressible_chunks_and_roundtrips() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.zeros", vec![0u8; 1 << 20]);
    upper.map_region("app.mixed", {
        let mut data = vec![7u8; 600_000];
        for (i, byte) in data.iter_mut().enumerate().skip(300_000) {
            *byte = (i.wrapping_mul(31) % 251) as u8;
        }
        data
    });

    let compressed = storage.write_image(
        StoragePolicy::IncrementalCompressed,
        &image_of(0, 0, &upper),
    );
    // The 16 identical zero chunks dedup down to a single stored chunk, which RLE
    // then collapses; only the incompressible half of "app.mixed" is stored raw.
    assert!(compressed.compression_saved_bytes > 60_000);
    assert!(
        compressed.chunks_reused >= 15,
        "identical zero chunks must dedup"
    );
    assert!(
        compressed.written_bytes < compressed.logical_bytes / 4,
        "zero-dominated state should RLE-compress well \
         (wrote {} of {} logical bytes)",
        compressed.written_bytes,
        compressed.logical_bytes
    );
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper);
}

#[test]
fn corrupt_chunk_is_detected_and_older_generation_survives() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 16, 32 * 1024);

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    upper.region_mut("app.region007").unwrap()[100] = 0xAB;
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));

    // Corrupt a chunk private to generation 1.
    storage.corrupt_fresh_chunk(1, 0).unwrap();

    let err = storage.read(1, 0).unwrap_err();
    assert!(
        format!("{err:?}").contains("digest"),
        "unexpected error {err:?}"
    );
    assert!(
        storage.read(0, 0).is_ok(),
        "generation 0 must still validate"
    );
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 0);
}

#[test]
fn corrupt_manifest_is_detected_for_both_policies() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(3, 4, 8192);
    storage.write_image(StoragePolicy::Incremental, &image_of(3, 0, &upper));
    storage.corrupt_manifest(0, 3).unwrap();
    assert!(storage.read(0, 3).is_err());

    let storage = CheckpointStorage::unmetered();
    storage.write_image(StoragePolicy::FullImage, &image_of(3, 0, &upper));
    storage.corrupt_manifest(0, 3).unwrap();
    assert!(storage.read(0, 3).is_err());
}

#[test]
fn latest_valid_generation_requires_every_rank() {
    let storage = CheckpointStorage::unmetered();
    for generation in 0..2u64 {
        for rank in 0..2 {
            let upper = synthetic_upper(rank, 4, 4096);
            storage.write_image(
                StoragePolicy::Incremental,
                &CheckpointImage::new(
                    ImageMetadata {
                        rank,
                        world_size: 2,
                        generation,
                        implementation: "mpich".into(),
                    },
                    upper,
                ),
            );
        }
    }
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 1);
    // One rank of generation 1 corrupt → the whole job falls back to generation 0.
    storage.corrupt_manifest(1, 1).unwrap();
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 0);
    // Both generations of rank 1 corrupt → no valid generation at all.
    storage.corrupt_manifest(0, 1).unwrap();
    assert!(storage.latest_valid_generation(2).is_err());
    // A single-rank job that only needs rank 0 still has generation 1.
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 1);
}

#[test]
fn pruning_releases_unshared_chunks_only() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 16 * 1024);

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    upper.region_mut("app.region001").unwrap()[0] ^= 1;
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));

    let before = storage.stats();
    let report = storage.prune_before(1);
    let after = storage.stats();

    // Only generation 0's private chunk (the old region001 content) is freed; the
    // seven shared regions' chunks survive because generation 1 references them.
    assert_eq!(report.pruned, vec![0]);
    assert!(report.retained.is_empty());
    assert!(report.freed_bytes > 0);
    assert!(after.chunk_bytes < before.chunk_bytes);
    assert_eq!(after.manifest_count, 1);
    assert!(
        storage.read(1, 0).is_ok(),
        "surviving generation stays readable"
    );
    assert!(storage.read(0, 0).is_err());
}

#[test]
fn rewriting_a_generation_releases_the_replaced_manifests_chunks() {
    let storage = CheckpointStorage::unmetered();
    let upper_a = synthetic_upper(0, 4, 32 * 1024);
    let upper_b = synthetic_upper(7, 4, 32 * 1024); // disjoint content

    // What upper_b alone costs in chunk bytes (reference store).
    let reference = CheckpointStorage::unmetered();
    reference.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_b));
    let upper_b_chunk_bytes = reference.stats().chunk_bytes;

    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_a));
    // Rewrite the same (generation, rank) slot — the re-checkpoint-after-fallback
    // case. The replaced manifest must give its chunk references back.
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_b));
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);

    // Generation 0 is the newest committed generation, so even a prune past it keeps
    // it restartable — but the *replaced* manifest's chunks (upper_a's content, now
    // unreferenced) must be reclaimed by the sweep.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.retained, vec![0]);
    assert!(report.pruned.is_empty());
    assert!(
        report.freed_bytes > 0,
        "upper_a's orphaned chunks are freed"
    );
    let stats = storage.stats();
    assert_eq!(stats.manifest_count, 1, "the newest generation survives");
    assert_eq!(
        stats.chunk_bytes, upper_b_chunk_bytes,
        "exactly the live manifest's chunks remain — nothing leaked, nothing torn"
    );
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);

    // Rewriting a chunked slot with a flat image also releases the manifest.
    let storage = CheckpointStorage::unmetered();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_a));
    storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper_b));
    assert_eq!(storage.read(0, 0).unwrap().upper_half, upper_b);
    storage.prune_before(u64::MAX);
    let stats = storage.stats();
    assert_eq!(
        stats.chunk_count, 0,
        "the replaced manifest's chunks are freed"
    );
    assert_eq!(stats.full_image_count, 1, "the newest generation survives");
}

#[test]
fn epoch_mismatch_disables_region_reuse_but_not_dedup() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 16 * 1024);

    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    // Simulate a checkpoint into a *different* store in between: the clean set now
    // describes changes relative to that other checkpoint, not ours.
    upper.mark_clean();
    upper.advance_epoch();

    let gen1 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    assert_eq!(
        gen1.regions_reused, 0,
        "clean-region reuse must be refused on an epoch mismatch"
    );
    // Content addressing still recognizes every chunk.
    assert_eq!(gen1.chunks_new, 0);
    assert_eq!(gen1.chunks_reused, gen0.chunks_new);
    assert!(storage.read(1, 0).is_ok());
}

#[test]
fn metered_incremental_writes_model_less_time_than_full() {
    let storage = CheckpointStorage::with_model(StoreConfig::nfs_discovery());
    let mut upper = synthetic_upper(0, 64, 64 * 1024); // 4 MiB

    let full = storage.write_image(StoragePolicy::FullImage, &image_of(0, 0, &upper));
    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    upper.mark_clean();
    upper.advance_epoch();
    upper.region_mut("app.region000").unwrap()[0] ^= 1;
    let gen1 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 2, &upper));

    assert!(full.write_time_s > 0.0 && gen0.write_time_s > 0.0);
    assert!(
        gen1.write_time_s < full.write_time_s / 2.0,
        "incremental write ({:.3}s) should be far below the full image ({:.3}s)",
        gen1.write_time_s,
        full.write_time_s
    );
    assert!(gen1.effective_bandwidth_mb_s().unwrap() > 0.0);
    assert_eq!(gen1.to_write_report().bytes, gen1.written_bytes);

    // An unmetered write has no bandwidth — `None`, not a fabricated zero — and the
    // legacy-report view propagates the same honesty.
    let unmetered = CheckpointStorage::unmetered();
    let report = unmetered.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    assert_eq!(report.effective_bandwidth_mb_s(), None);
    assert_eq!(report.to_write_report().effective_bandwidth_mb_s, None);
}

/// Hammer the prune/write race the sharded engine must survive: writers keep
/// committing incremental generations with clean (reusable) regions while a pruner
/// concurrently drops old generations. Every generation a write reported success
/// for — and that the pruner has not dropped — must read back end to end; a reuse
/// that raced a prune must have fallen back to re-chunking, never committed a
/// manifest with dangling chunk references.
#[test]
fn concurrent_prune_never_strands_a_committed_generation() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let storage = CheckpointStorage::unmetered().with_chunk_size(512);
    let newest = Arc::new(AtomicU64::new(0));
    const GENERATIONS: u64 = 60;

    let writer = {
        let storage = storage.clone();
        let newest = Arc::clone(&newest);
        std::thread::spawn(move || {
            let mut upper = synthetic_upper(0, 8, 4_096);
            storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
            upper.mark_clean();
            upper.advance_epoch();
            newest.store(0, Ordering::SeqCst);
            for generation in 1..GENERATIONS {
                // Touch one region; the other seven stay clean and take the
                // re-reference path that races the pruner.
                let touched = format!("app.region{:03}", generation % 8);
                upper.region_mut(&touched).unwrap()[0] = generation as u8;
                storage.write_image(StoragePolicy::Incremental, &image_of(0, generation, &upper));
                upper.mark_clean();
                upper.advance_epoch();
                newest.store(generation, Ordering::SeqCst);
            }
        })
    };
    let pruner = {
        let storage = storage.clone();
        let newest = Arc::clone(&newest);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while newest.load(Ordering::SeqCst) < GENERATIONS - 1 {
                // Alternate a normal GC sweep with an aggressive one that drops
                // even the newest committed generation — the in-flight writer may
                // have just snapshotted that manifest for clean-region reuse, which
                // is exactly the window where its chunks vanish under the writer.
                let cut = newest.load(Ordering::SeqCst) + (round % 2);
                storage.prune_before(cut);
                round += 1;
                std::thread::yield_now();
            }
        })
    };
    writer.join().unwrap();
    pruner.join().unwrap();

    // Everything still catalogued must validate end to end.
    let survivors = storage.generations();
    assert!(survivors.contains(&(GENERATIONS - 1)));
    for generation in survivors {
        storage
            .read(generation, 0)
            .unwrap_or_else(|e| panic!("generation {generation} is torn: {e:?}"));
    }
}

#[test]
fn prune_never_drops_the_newest_committed_or_a_pending_generation() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 8, 8_192);
    for generation in 0..3u64 {
        storage.write_image(StoragePolicy::Incremental, &image_of(0, generation, &upper));
        upper.mark_clean();
        upper.advance_epoch();
        upper.region_mut("app.region000").unwrap()[0] = generation as u8;
    }

    // A cutoff past everything (e.g. computed from a generation counter that ran
    // ahead of the commits) must still leave the newest committed generation.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.pruned, vec![0, 1]);
    assert_eq!(report.retained, vec![2]);
    assert_eq!(storage.generations(), vec![2]);
    assert!(storage.read(2, 0).is_ok(), "the restart point survives");
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 2);

    // A pending generation (flush in flight) is equally untouchable, and does not
    // lose its protection to the newest-committed rule.
    storage.begin_generation(3, 1);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 3, &upper));
    let report = storage.prune_before(u64::MAX);
    assert!(report.pruned.is_empty());
    assert_eq!(report.retained, vec![2, 3]);
    assert!(storage.read(2, 0).is_ok());

    // Once the pending generation commits, the old newest becomes prunable.
    assert!(storage.note_rank_flushed(3, 0));
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.pruned, vec![2]);
    assert_eq!(report.retained, vec![3]);
    assert_eq!(storage.latest_valid_generation(1).unwrap(), 3);
}

#[test]
fn pending_generation_is_invisible_until_every_rank_flushes() {
    let storage = CheckpointStorage::unmetered();
    let upper = synthetic_upper(0, 4, 8_192);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 0, &upper));

    storage.begin_generation(1, 2);
    storage.begin_generation(1, 2); // idempotent
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    assert!(storage.is_pending(1));
    assert_eq!(storage.pending_generations(), vec![1]);
    assert_eq!(
        storage.generations(),
        vec![0],
        "half-flushed generation hidden"
    );
    let err = storage.read(1, 0).unwrap_err();
    assert!(
        format!("{err:?}").contains("pending"),
        "unexpected error {err:?}"
    );
    assert_eq!(
        storage.latest_valid_generation(2).unwrap(),
        0,
        "restart fallback must never select a half-flushed generation"
    );

    assert!(!storage.note_rank_flushed(1, 0));
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper));
    assert!(storage.note_rank_flushed(1, 1), "last rank commits");
    assert!(!storage.is_pending(1));
    assert_eq!(storage.generations(), vec![0, 1]);
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 1);
    // A generation never announced as pending reports no commit transition.
    assert!(!storage.note_rank_flushed(0, 0));

    // The force-commit escape hatch: makes a pending generation visible without
    // waiting for the flush accounting — but never resurrects an aborted round.
    storage.begin_generation(2, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 2, &upper));
    assert!(storage.is_pending(2));
    storage.commit_generation(2);
    assert!(!storage.is_pending(2));
    assert_eq!(storage.generations(), vec![0, 1, 2]);
    storage.begin_generation(3, 2);
    storage.abort_generation(3);
    storage.commit_generation(3);
    assert!(storage.is_pending(3), "an aborted round stays invisible");
}

#[test]
fn aborting_a_pending_generation_releases_its_slots() {
    let storage = CheckpointStorage::unmetered();
    let upper_old = synthetic_upper(0, 4, 16_384);
    let upper_new = synthetic_upper(9, 4, 16_384); // disjoint content
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper_old));

    storage.begin_generation(1, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper_new));
    let released = storage.abort_generation(1);
    assert_eq!(released, 1, "one rank's slot had landed");
    // The tombstone keeps the dead round invisible — it is still "pending" as far
    // as readers and the pruner are concerned, never half-visible.
    assert!(storage.is_pending(1));
    assert_eq!(storage.generations(), vec![0]);
    let report = storage.prune_before(u64::MAX);
    assert!(
        report.freed_bytes > 0,
        "the aborted flush's chunks are reclaimed"
    );
    assert!(storage.read(0, 0).is_ok());

    // A straggler flush of the aborted round — still in flight when the abort ran —
    // is released the moment it reports in, and never commits the dead round.
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper_new));
    assert!(!storage.note_rank_flushed(1, 1));
    assert_eq!(storage.generations(), vec![0]);
    assert!(
        storage.read(1, 1).is_err(),
        "straggler slot released on arrival"
    );

    // A restarted incarnation reuses the generation number: `begin_generation`
    // resets the tombstone to a fresh round with fresh flush accounting — the dead
    // round's stale `flushed` set must not count toward the new round's commit.
    storage.begin_generation(1, 2);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper_new));
    assert!(
        !storage.note_rank_flushed(1, 0),
        "fresh round: one of two landed"
    );
    storage.write_image(StoragePolicy::Incremental, &image_of(1, 1, &upper_new));
    assert!(
        storage.note_rank_flushed(1, 1),
        "fresh round commits on its own ranks"
    );
    assert_eq!(storage.generations(), vec![0, 1]);
    assert_eq!(storage.latest_valid_generation(2).unwrap(), 1);
}

/// Satellite stress test: one thread pruning aggressively while two "ranks" take
/// periodic checkpoints, alternating synchronous writes and asynchronous flushes
/// through a [`ckpt_store::FlusherPool`]. A restartable generation must survive at
/// every instant, and the stats stay consistent (no torn survivor, no leak past the
/// final sweep).
#[test]
fn concurrent_prune_with_sync_and_async_checkpoints_keeps_a_restart_point() {
    use ckpt_store::FlusherPool;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    const WORLD: usize = 2;
    const GENERATIONS: u64 = 40;

    let storage = CheckpointStorage::unmetered().with_chunk_size(512);
    let pool = Arc::new(FlusherPool::with_workers(storage.clone(), 2));
    let done = Arc::new(AtomicBool::new(false));
    let round_barrier = Arc::new(Barrier::new(WORLD));

    let writers: Vec<_> = (0..WORLD as i32)
        .map(|rank| {
            let storage = storage.clone();
            let pool = Arc::clone(&pool);
            let round_barrier = Arc::clone(&round_barrier);
            std::thread::spawn(move || {
                let mut upper = synthetic_upper(rank, 6, 2_048);
                for generation in 0..GENERATIONS {
                    upper.region_mut("app.region000").unwrap()[0] = generation as u8;
                    let image = CheckpointImage::new(
                        ImageMetadata {
                            rank,
                            world_size: WORLD,
                            generation,
                            implementation: "mpich".into(),
                        },
                        upper.clone(),
                    );
                    // Ranks agree on the mode per generation: even = sync write,
                    // odd = async flush through the pool. Both announce the
                    // generation pending first, exactly as the orchestrator's
                    // coordinated paths do — a half-written generation must never
                    // look committed to the racing pruner.
                    round_barrier.wait();
                    storage.begin_generation(generation, WORLD);
                    if generation % 2 == 0 {
                        storage.write_image(StoragePolicy::Incremental, &image);
                        storage.note_rank_flushed(generation, rank);
                    } else {
                        pool.submit(StoragePolicy::Incremental, image).wait();
                    }
                    upper.mark_clean();
                    upper.advance_epoch();
                }
            })
        })
        .collect();

    let pruner = {
        let storage = storage.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut sweeps = 0u64;
            let mut committed_once = false;
            while !done.load(Ordering::SeqCst) {
                // As aggressive as it gets: prune *everything*. The guard must keep
                // the newest committed generation and anything mid-flush.
                storage.prune_before(u64::MAX);
                // The assertion latches: from the first observed commit onwards, a
                // restartable generation must exist at *every* instant, pruner
                // racing or not — an empty committed set after that point is
                // exactly the failure this test exists to catch, not a reason to
                // skip the check.
                committed_once = committed_once || !storage.generations().is_empty();
                if committed_once {
                    storage
                        .latest_valid_images(WORLD)
                        .expect("a restartable generation must always survive");
                }
                let stats = storage.stats();
                assert!(stats.total_bytes() >= stats.chunk_bytes);
                sweeps += 1;
                std::thread::yield_now();
            }
            assert!(sweeps > 0);
        })
    };

    for writer in writers {
        writer.join().unwrap();
    }
    pool.wait_idle();
    done.store(true, Ordering::SeqCst);
    pruner.join().unwrap();

    // Quiescent wrap-up: nothing pending, the newest generation is complete for the
    // whole world, and every surviving generation validates end to end.
    assert!(storage.pending_generations().is_empty());
    let (generation, images) = storage.latest_valid_images(WORLD).unwrap();
    assert_eq!(generation, GENERATIONS - 1);
    assert_eq!(images.len(), WORLD);
    for generation in storage.generations() {
        for rank in 0..WORLD {
            storage
                .read(generation, rank as i32)
                .unwrap_or_else(|e| panic!("generation {generation} rank {rank} torn: {e:?}"));
        }
    }
    // After a final sweep only the newest committed generation (and its chunks)
    // remains: refcount accounting survived the concurrency.
    let report = storage.prune_before(u64::MAX);
    assert_eq!(report.retained, vec![GENERATIONS - 1]);
    let stats = storage.stats();
    assert_eq!(stats.manifest_count, WORLD);
    assert!(stats.chunk_count > 0);
}

#[test]
fn per_shard_occupancy_sums_to_the_aggregate() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    for rank in 0..2 {
        storage.write_image(
            StoragePolicy::Incremental,
            &image_of(rank, 0, &synthetic_upper(rank, 3, 40_000)),
        );
    }
    let stats = storage.stats();
    assert_eq!(stats.shards.len(), storage.shard_count());
    assert_eq!(
        stats.shards.iter().map(|s| s.chunk_count).sum::<usize>(),
        stats.chunk_count
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.stored_bytes).sum::<usize>(),
        stats.chunk_bytes
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.refcount_total).sum::<u64>(),
        stats.refcount_total
    );
    // No cold tier: everything is hot, and every chunk is referenced at least once.
    assert_eq!(stats.hot_bytes, stats.chunk_bytes);
    assert_eq!(stats.cold_chunk_count, 0);
    assert!(stats.refcount_total >= stats.chunk_count as u64);
    assert!(
        stats.shards.iter().filter(|s| s.chunk_count > 0).count() > 1,
        "the digest space must actually spread across shards"
    );
}

#[test]
fn prune_reports_logical_and_physical_frees_separately() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    let upper = synthetic_upper(0, 2, 20_000);

    // Two generations with identical content: generation 0's chunks are all shared
    // with generation 1.
    let mut gen0 = upper.clone();
    gen0.mark_all_dirty();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &gen0));
    let mut gen1 = upper.clone();
    gen1.mark_all_dirty();
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 1, &gen1));

    let report = storage.prune_before(1);
    assert_eq!(report.pruned, vec![0]);
    assert_eq!(
        report.freed_bytes, 0,
        "fully shared chunks must free no physical bytes"
    );
    assert_eq!(
        report.logical_freed_bytes, 40_000,
        "the logical release is the pruned slots' payload size"
    );

    // Replace generation 1 with unique content, then prune it away under a newer
    // one: now the physical free is real.
    let unique = synthetic_upper(7, 2, 20_000);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 2, &unique));
    let swept = storage.prune_before(2);
    assert_eq!(swept.pruned, vec![1]);
    assert!(
        swept.freed_bytes > 0,
        "unshared chunks must free physical bytes"
    );
    assert_eq!(swept.logical_freed_bytes, 40_000);
}

#[test]
fn tenant_views_share_chunks_but_not_catalogs() {
    let storage = CheckpointStorage::unmetered().with_chunk_size(4096);
    let first = storage.tenant_view();
    let second = storage.tenant_view();
    let upper = synthetic_upper(0, 2, 30_000);

    let a = first.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    let b = second.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    assert!(a.chunks_new > 0);
    assert_eq!(b.chunks_new, 0, "the second view dedups against the first");
    assert_eq!(b.chunks_reused, a.chunks_new + a.chunks_reused);

    // Catalogs are namespaced: each view sees only its own generation...
    assert_eq!(first.generations(), vec![0]);
    assert_eq!(second.generations(), vec![0]);
    assert!(
        storage.generations().is_empty(),
        "the base catalog stays empty"
    );
    // ...and the shared chunk space holds each chunk once.
    assert_eq!(first.stats().chunk_count, a.chunks_new);

    // One view pruning everything leaves the other's reads intact.
    first.prune_before(u64::MAX);
    let restored = second.read(0, 0).unwrap();
    assert_eq!(restored.upper_half, upper);
}

/// A byte inserted at the front of a dirty region shifts every later offset. The
/// content-defined cuts follow the content, so only the chunks next to the edit are
/// stored again; the rest dedup against the previous generation's. (Fixed 64 KiB
/// chunks would re-store all 16 of this 1 MiB region.)
#[test]
fn a_front_insertion_restores_only_the_chunks_next_to_it() {
    let storage = CheckpointStorage::unmetered();
    // Non-repeating content (xorshift), so no chunk dedups by accident.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let noise: Vec<u8> = (0..1 << 20)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect();
    let mut upper = UpperHalfSpace::new();
    upper.map_region("app.state", noise);
    let gen0 = storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    assert_eq!(gen0.chunks_reused, 0);
    assert!(gen0.chunks_new >= 16, "{gen0:?}");
    upper.mark_clean();
    upper.advance_epoch();

    upper.region_mut("app.state").unwrap().insert(0, 0xA5);
    let image1 = image_of(0, 1, &upper);
    let gen1 = storage.write_image(StoragePolicy::Incremental, &image1);
    assert_eq!(gen1.regions_reused, 0, "the region is dirty");
    assert!(
        gen1.chunks_new <= 3,
        "{} of {} chunks re-stored after a one-byte insertion",
        gen1.chunks_new,
        gen1.chunks_new + gen1.chunks_reused
    );
    assert!(gen1.written_bytes * 4 < gen0.written_bytes, "{gen1:?}");
    assert_eq!(storage.read(1, 0).unwrap().upper_half, image1.upper_half);
}

/// Clean-region reuse copies the previous manifest's chunk references, and a
/// manifest bounds every chunk by its own chunk size. A store whose chunk size
/// differs from the previous manifest's must therefore re-chunk clean regions, or
/// it would write a manifest its own reader rejects.
#[test]
fn clean_region_reuse_requires_the_same_chunk_size() {
    let storage = CheckpointStorage::unmetered();
    let mut upper = synthetic_upper(0, 4, 64 * 1024);
    storage.write_image(StoragePolicy::Incremental, &image_of(0, 0, &upper));
    upper.mark_clean();
    upper.advance_epoch();

    let smaller = storage.clone().with_chunk_size(4096);
    let gen1 = smaller.write_image(StoragePolicy::Incremental, &image_of(0, 1, &upper));
    assert_eq!(gen1.regions_reused, 0, "{gen1:?}");
    assert_eq!(storage.read(1, 0).unwrap().upper_half, upper);
    upper.mark_clean();
    upper.advance_epoch();

    // Same chunk size again: reuse resumes.
    let gen2 = smaller.write_image(StoragePolicy::Incremental, &image_of(0, 2, &upper));
    assert_eq!(gen2.regions_reused, 4, "{gen2:?}");
    assert_eq!(storage.read(2, 0).unwrap().upper_half, upper);
}
