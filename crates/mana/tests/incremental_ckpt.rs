//! End-to-end tests for the `ckpt-store` storage engine driven through the full MANA
//! stack: incremental generations, dirty-region savings, and job-level fallback to an
//! older generation when a chunk of the newest one is corrupt.

use ckpt_store::{CheckpointStorage, StoragePolicy};
use job_runtime::{Backend, JobConfig, JobRuntime};
use mana::{ManaConfig, Op};

const BULK_REGION: &str = "app.bulk";
const MARKER_REGION: &str = "app.marker";
const BULK_BYTES: usize = 512 * 1024;

/// Run a 2-rank job under the orchestrator that takes `generations` coordinated
/// engine checkpoints. Between checkpoints only the small marker region changes; the
/// bulk region stays clean. Returns the runtime (for restarts) and all reports.
fn checkpoint_generations(
    storage: &CheckpointStorage,
    config: ManaConfig,
    generations: u64,
) -> (JobRuntime, Vec<ckpt_store::StoreReport>) {
    let runtime = JobRuntime::with_storage(
        JobConfig::new(2, Backend::Mpich).with_mana(config),
        storage.clone(),
    );
    let per_rank = runtime
        .run(move |mut session, ctx| {
            let me = session.world_rank();
            let world = session.world()?;

            // A xorshift stream seeded per rank: aperiodic over the whole region,
            // and unrelated between ranks, so neither self-dedups nor shares
            // chunks. (A multiplicative progression offset per rank is one stream
            // seen at two offsets, and content-defined cuts find the overlap.)
            let mut state = 0x2545_F491_4F6C_DD1D_u64 ^ (me as u64 + 1);
            let bulk: Vec<u8> = (0..BULK_BYTES)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 24) as u8
                })
                .collect();
            session.upper_mut().map_region(BULK_REGION, bulk);

            let mut reports = Vec::new();
            for generation in 0..generations {
                let total = session.allreduce(&[1], Op::sum(), world)?[0];
                assert_eq!(total, 2);
                session
                    .upper_mut()
                    .map_region(MARKER_REGION, vec![me as u8, generation as u8]);
                reports.push(ctx.checkpoint(&mut session)?);
            }
            Ok(reports)
        })
        .unwrap();
    let reports = per_rank.into_iter().flatten().collect();
    (runtime, reports)
}

#[test]
fn incremental_generations_reuse_the_clean_bulk() {
    let storage = CheckpointStorage::unmetered();
    let config = ManaConfig::new_design().with_storage(StoragePolicy::Incremental);
    let (runtime, reports) = checkpoint_generations(&storage, config, 3);

    for report in &reports {
        assert_eq!(report.policy, StoragePolicy::Incremental);
        if report.generation == 0 {
            // First generation pays for the bulk region.
            assert!(report.written_bytes > BULK_BYTES / 2);
        } else {
            // Later generations rewrite only the marker + MANA's own small regions.
            assert!(
                report.written_bytes * 10 <= BULK_BYTES,
                "generation {} of rank {} wrote {} bytes",
                report.generation,
                report.rank,
                report.written_bytes
            );
            assert!(
                report.regions_reused >= 1,
                "clean bulk region must be reused"
            );
        }
    }

    // Restart lands on the newest generation with the matching marker.
    let (ranks, generation) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(generation, 2);
    assert_eq!(runtime.published_generation(), Some(2));
    for rank in &ranks {
        let marker = rank.upper().region(MARKER_REGION).unwrap();
        assert_eq!(marker, &[rank.world_rank() as u8, 2]);
        assert_eq!(rank.generation(), 3);
    }
}

/// Acceptance criterion: a corrupted chunk is detected at restart and the previous
/// generation is restored successfully — for the whole job, not a torn mix.
#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    let storage = CheckpointStorage::unmetered();
    let config = ManaConfig::new_design().with_storage(StoragePolicy::Incremental);
    let (runtime, _reports) = checkpoint_generations(&storage, config, 2);

    // Corrupt a chunk that only generation 1 of rank 1 references (its marker).
    storage.corrupt_fresh_chunk(1, 1).unwrap();
    assert!(storage.read(1, 1).is_err(), "corruption must be detected");
    assert!(
        storage.read(1, 0).is_ok(),
        "rank 0's generation 1 is intact"
    );

    // The restored ranks carry generation 0's marker and still communicate.
    let (_, generation) = runtime
        .resume(|mut session, _ctx| {
            let marker = session.upper().region(MARKER_REGION).unwrap().to_vec();
            assert_eq!(marker, vec![session.world_rank() as u8, 0]);
            let world = session.world()?;
            let total = session.allreduce(&[1], Op::sum(), world)?[0];
            assert_eq!(total, 2);
            Ok(())
        })
        .unwrap();
    assert_eq!(
        generation, 0,
        "the job as a whole must fall back to generation 0"
    );

    // With every generation of rank 1 corrupt, restart has nothing left to offer.
    storage.corrupt_manifest(0, 1).unwrap();
    assert!(runtime.restart(Backend::Mpich).is_err());
}

#[test]
fn compressed_policy_round_trips_through_the_stack() {
    let storage = CheckpointStorage::unmetered();
    let config = ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
    let (runtime, reports) = checkpoint_generations(&storage, config, 2);
    assert!(reports
        .iter()
        .all(|r| r.policy == StoragePolicy::IncrementalCompressed));

    let (ranks, generation) = runtime.restart(Backend::Mpich).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(ranks.len(), 2);
}
