//! Engine-level elastic-restart tests: remap edge cases exercised directly against
//! `resize_job` / `resize_job_from_storage`, without the proxy applications.

use ckpt_store::CheckpointStorage;
use elastic::{resize_job, resize_job_from_storage, NoRepartition, RankMap, RemapPolicy};
use mana::ckpt::regions;
use mana::record::{CollectiveKind, CollectiveLog};
use mana::virtid::VirtualId;
use mana::{Comm, ManaConfig, ManaRank, Op, Session};
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpi_model::types::{HandleKind, Rank};
use mpich_sim::MpichFactory;
use parking_lot::RwLock;
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

fn registry() -> Registry {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

fn launch(world: usize, registry: &Registry, session: u64) -> Vec<Box<dyn MpiApi>> {
    MpichFactory::mpich()
        .launch(world, registry.clone(), session)
        .unwrap()
}

/// Run `body` concurrently on a fresh `world`-rank job and return the per-rank
/// results in rank order.
fn run_job<R, F>(world: usize, registry: &Registry, session: u64, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Session) -> MpiResult<R> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = launch(world, registry, session)
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let rank = ManaRank::new(lower, ManaConfig::new_design(), registry).unwrap();
                let mut session = Session::new(rank);
                body(&mut session).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Drive already-restored ranks concurrently.
fn drive_ranks<R, F>(ranks: Vec<ManaRank>, body: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Session) -> MpiResult<R> + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut session = Session::new(rank);
                body(&mut session).unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Checkpoint a 4-rank world that duplicated the world communicator, exchanged a
/// ring of point-to-point messages, and ran collectives on the dup.
fn checkpoint_with_world_dup(registry: &Registry, storage: &CheckpointStorage) {
    run_job(4, registry, 1, {
        let storage = storage.clone();
        move |session| {
            let me = session.world_rank();
            let world = session.world()?;
            let dup = session.comm_dup(world)?;
            session.upper_mut().store_json("test.dup", &dup)?;
            let total = session.allreduce(&[1u64], Op::sum(), dup)?;
            assert_eq!(total, vec![4]);
            session.send(&[me as u64], (me + 1).rem_euclid(4), 7, world)?;
            let (got, _) = session.recv::<u64>(1, (me - 1).rem_euclid(4), 7, world)?;
            assert_eq!(got, vec![(me - 1).rem_euclid(4) as u64]);
            session.checkpoint(&storage)?;
            Ok(())
        }
    });
}

#[test]
fn world_dup_survives_a_shrink_with_remapped_membership() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let lowers = launch(2, &registry, 2);
    let (ranks, generation) = resize_job_from_storage(
        lowers,
        &storage,
        RemapPolicy::Block,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(generation, 0);
    assert_eq!(ranks.len(), 2);

    let after = CheckpointStorage::unmetered();
    let sizes = drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            // The stored dup handle is still valid and now spans the 2-rank world.
            let dup: Comm = session.upper().load_json("test.dup")?;
            let size = session.comm_size(dup)?;
            let total = session.allreduce(&[1u64], Op::sum(), dup)?;
            assert_eq!(total, vec![2]);
            let world = session.world()?;
            let wtotal = session.allreduce(&[10u64], Op::sum(), world)?;
            assert_eq!(wtotal, vec![20]);
            // A checkpoint of the resized world must pass the collective
            // epoch-agreement check (merged ledgers) and the drain protocol
            // (merged counters).
            session.checkpoint(&after)?;
            Ok(size)
        }
    });
    assert_eq!(sizes, vec![2, 2]);
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 2);
}

#[test]
fn total_collapse_onto_one_rank() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let lowers = launch(1, &registry, 3);
    let (ranks, _) = resize_job_from_storage(
        lowers,
        &storage,
        RemapPolicy::RoundRobin,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(ranks.len(), 1);
    let after = CheckpointStorage::unmetered();
    drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            assert_eq!(session.world_size(), 1);
            let world = session.world()?;
            assert_eq!(session.allreduce(&[5u64], Op::sum(), world)?, vec![5]);
            let dup: Comm = session.upper().load_json("test.dup")?;
            assert_eq!(session.comm_size(dup)?, 1);
            session.checkpoint(&after)?;
            Ok(())
        }
    });
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 1);
}

/// A repartition that moves no state but promises to rebuild sub-communicators.
struct ConsumesComms;

impl elastic::Repartition for ConsumesComms {
    fn repartition(
        &self,
        _old: &[split_proc::address_space::UpperHalfSpace],
        _map: &RankMap,
        _new_rank: Rank,
        _upper: &mut split_proc::address_space::UpperHalfSpace,
    ) -> MpiResult<()> {
        Ok(())
    }

    fn consumes_derived_comms(&self) -> bool {
        true
    }
}

fn checkpoint_with_parity_split(registry: &Registry, storage: &CheckpointStorage) {
    run_job(4, registry, 1, {
        let storage = storage.clone();
        move |session| {
            let me = session.world_rank();
            let world = session.world()?;
            let row = session.comm_split(world, Some(me % 2), me)?;
            session.upper_mut().store_json("test.row", &row)?;
            let total = session.allreduce(&[1u64], Op::sum(), row)?;
            assert_eq!(total, vec![2]);
            session.checkpoint(&storage)?;
            Ok(())
        }
    });
}

#[test]
fn subset_communicator_rejects_resize_unless_consumed() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_parity_split(&registry, &storage);

    // Without the application's promise to rebuild, the live split is a clean error.
    let err = resize_job_from_storage(
        launch(2, &registry, 2),
        &storage,
        RemapPolicy::Block,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::ElasticResize(reason) => {
            assert!(reason.contains("consumes_derived_comms"), "{reason}")
        }
        other => panic!("expected ElasticResize, got {other:?}"),
    }

    // With the promise, the split is dropped everywhere and the resize completes;
    // the stored handle is dead, the world is fully usable.
    let (ranks, _) = resize_job_from_storage(
        launch(2, &registry, 3),
        &storage,
        RemapPolicy::Block,
        &ConsumesComms,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    drive_ranks(ranks, move |session| {
        let row: Comm = session.upper().load_json("test.row")?;
        assert!(
            session.comm_size(row).is_err(),
            "consumed split must be gone"
        );
        let world = session.world()?;
        assert_eq!(session.allreduce(&[1u64], Op::sum(), world)?, vec![2]);
        Ok(())
    });
}

#[test]
fn growth_adds_fresh_ranks_that_participate_in_the_world() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            let world = session.world()?;
            let dup = session.comm_dup(world)?;
            session.allreduce(&[1u64], Op::sum(), dup)?;
            session.checkpoint(&storage)?;
            Ok(())
        }
    });

    let (ranks, _) = resize_job_from_storage(
        launch(3, &registry, 2),
        &storage,
        RemapPolicy::Block,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(ranks.len(), 3);
    assert!(
        ranks.iter().any(|r| r.descriptor_count() > 0),
        "adopting ranks carry descriptors"
    );
    let after = CheckpointStorage::unmetered();
    drive_ranks(ranks, {
        let after = after.clone();
        move |session| {
            let world = session.world()?;
            // All three ranks — including the fresh one — close the collective.
            assert_eq!(session.allreduce(&[1u64], Op::sum(), world)?, vec![3]);
            // And the next checkpoint agrees on the collective epoch everywhere.
            session.checkpoint(&after)?;
            Ok(())
        }
    });
    let (_, images) = after.latest_valid_images_any_size().unwrap();
    assert_eq!(images.len(), 3);
}

#[test]
fn identity_resize_is_bit_identical_to_the_legacy_restart() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    checkpoint_with_world_dup(&registry, &storage);

    let (legacy, generation_a) = mana::restart_job_from_storage(
        launch(4, &registry, 2),
        &storage,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    // Sizes match, so the storage entry point takes the identity map.
    let (elastic_ranks, generation_b) = resize_job_from_storage(
        launch(4, &registry, 3),
        &storage,
        RemapPolicy::Block,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(generation_a, generation_b);

    // Checkpoint both restored worlds and compare the images region by region:
    // the elastic identity path must leave no trace of itself.
    let store_a = CheckpointStorage::unmetered();
    let store_b = CheckpointStorage::unmetered();
    let ckpt = |store: CheckpointStorage| {
        move |session: &mut Session| {
            session.checkpoint(&store)?;
            Ok(())
        }
    };
    drive_ranks(legacy, ckpt(store_a.clone()));
    drive_ranks(elastic_ranks, ckpt(store_b.clone()));

    let (gen_a, images_a) = store_a.latest_valid_images_any_size().unwrap();
    let (gen_b, images_b) = store_b.latest_valid_images_any_size().unwrap();
    assert_eq!(gen_a, gen_b);
    for (a, b) in images_a.iter().zip(images_b.iter()) {
        assert_eq!(a.metadata.rank, b.metadata.rank);
        assert_eq!(a.metadata.world_size, b.metadata.world_size);
        assert_eq!(a.metadata.generation, b.metadata.generation);
        let mut names_a = a.upper_half.region_names();
        let mut names_b = b.upper_half.region_names();
        names_a.sort_unstable();
        names_b.sort_unstable();
        assert_eq!(names_a, names_b);
        for name in names_a {
            assert_eq!(
                a.upper_half.region(name).unwrap(),
                b.upper_half.region(name).unwrap(),
                "region {name} of rank {} differs between legacy restart and \
                 identity resize",
                a.metadata.rank
            );
        }
    }
}

#[test]
fn straddled_collective_checkpoint_is_rejected_under_resize() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            let world = session.world()?;
            session.allreduce(&[1u64], Op::sum(), world)?;
            session.checkpoint(&storage)?;
            Ok(())
        }
    });
    let (_, mut images) = storage.latest_valid_images_any_size().unwrap();

    // Forge a straddled checkpoint: rewrite rank 0's collective ledger so it
    // carries a registered-but-never-completed collective.
    let mut log = CollectiveLog::new();
    let vid = VirtualId::new(HandleKind::Comm, true, 0);
    log.begin(vid, CollectiveKind::Allreduce).unwrap();
    images[0]
        .upper_half
        .store_json(regions::COLLECTIVES, &log)
        .unwrap();

    let map = RankMap::block(2, 1).unwrap();
    let err = resize_job(
        launch(1, &registry, 2),
        images,
        &map,
        &NoRepartition,
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::ElasticResize(reason) => assert!(reason.contains("straddled"), "{reason}"),
        other => panic!("expected ElasticResize, got {other:?}"),
    }
}

#[test]
fn identity_restart_path_reports_a_typed_world_size_mismatch() {
    let registry = registry();
    let storage = CheckpointStorage::unmetered();
    run_job(2, &registry, 1, {
        let storage = storage.clone();
        move |session| {
            session.checkpoint(&storage)?;
            Ok(())
        }
    });
    let (_, mut images) = storage.latest_valid_images_any_size().unwrap();
    let mut lowers = launch(4, &registry, 2);
    let err = mana::restart_rank(
        lowers.remove(0),
        images.remove(0),
        ManaConfig::new_design(),
        registry.clone(),
    )
    .unwrap_err();
    match err {
        MpiError::WorldSizeMismatch {
            checkpointed,
            offered,
            generation,
        } => {
            assert_eq!((checkpointed, offered, generation), (2, 4, 0));
            let text = err.to_string();
            assert!(text.contains("elastic"), "{text}");
        }
        other => panic!("expected WorldSizeMismatch, got {other:?}"),
    }
}
