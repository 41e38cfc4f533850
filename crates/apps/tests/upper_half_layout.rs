//! The proxy applications' upper-half layout: a small JSON header next to the
//! lattice as raw little-endian `f64`s, 8 bytes per element.
//!
//! A LULESH run checkpointed mid-way through the storage engine resumes on a
//! different MPI implementation bit-identically, and its checkpoint holds the
//! lattice exactly as it lies in memory. Hostile upper halves — a torn lattice, a
//! lattice the header disagrees with, a header without its lattice, the retired
//! all-JSON layout, an elastic shard missing from the rank that hosts it — resume
//! to a typed [`MpiError::Checkpoint`], never a panic.

use ckpt_store::{CheckpointStorage, StoragePolicy};
use elastic::{RankMap, Repartition};
use mana::restart::restart_job_from_storage;
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::skeleton::{lattice_region, state_region};
use mana_apps::{
    profile_of, run_app, run_app_elastic, shard_region, AppId, AppReport, RunConfig,
    SkeletonRepartition, StateLayout, STATE_REGION,
};
use mpi_model::api::{MpiApi, MpiImplementationFactory};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpich_sim::MpichFactory;
use openmpi_sim::OpenMpiFactory;
use parking_lot::RwLock;
use split_proc::address_space::UpperHalfSpace;
use std::sync::Arc;

type Registry = Arc<RwLock<UserFunctionRegistry>>;

const WORLD: usize = 2;
const ITERATIONS: u64 = 6;
const CKPT_AT: u64 = 3;
const SCALE: f64 = 1e-4;

fn registry() -> Registry {
    Arc::new(RwLock::new(UserFunctionRegistry::new()))
}

fn mana_config() -> ManaConfig {
    ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed)
}

fn run_config(storage: Option<CheckpointStorage>) -> RunConfig {
    RunConfig {
        iterations: ITERATIONS,
        state_scale: SCALE,
        checkpoint_at: storage.as_ref().map(|_| CKPT_AT),
        storage,
    }
}

/// Run LULESH on every rank, each on its own thread; reports in rank order.
fn run_ranks(ranks: Vec<ManaRank>, config: RunConfig) -> Vec<AppReport> {
    let handles: Vec<_> = ranks
        .into_iter()
        .map(|rank| {
            let config = config.clone();
            std::thread::spawn(move || {
                run_app(AppId::Lulesh, &mut Session::new(rank), &config).unwrap()
            })
        })
        .collect();
    let mut reports: Vec<AppReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    reports.sort_by_key(|r| r.rank);
    reports
}

fn wrap(lowers: Vec<Box<dyn MpiApi>>, registry: &Registry) -> Vec<ManaRank> {
    lowers
        .into_iter()
        .map(|lower| ManaRank::new(lower, mana_config(), registry.clone()).unwrap())
        .collect()
}

#[test]
fn lulesh_resumes_across_backends_bit_identically_from_a_raw_lattice() {
    let registry = registry();
    let mpich = MpichFactory::mpich();
    let reference = run_ranks(
        wrap(mpich.launch(WORLD, registry.clone(), 1).unwrap(), &registry),
        run_config(None),
    );

    let storage = CheckpointStorage::unmetered();
    run_ranks(
        wrap(mpich.launch(WORLD, registry.clone(), 2).unwrap(), &registry),
        run_config(Some(storage.clone())),
    );

    // The checkpoint holds the lattice as it lies in memory: 8 bytes per element,
    // next to a header whose size does not grow with the state.
    let generation = *storage.generations().last().unwrap();
    let elements = profile_of(AppId::Lulesh).state_bytes_at_scale(SCALE) / 8;
    for rank in 0..WORLD {
        let image = storage.read(generation, rank as i32).unwrap();
        let layout = StateLayout::of(&image.upper_half, AppId::Lulesh).unwrap();
        assert_eq!(layout.elements, elements);
        assert_eq!(
            layout.lattice_bytes,
            8 * elements,
            "rank {rank}: {layout:?}"
        );
        assert!(layout.header_bytes < 1024, "rank {rank}: {layout:?}");
        assert!(layout.is_raw());
    }

    // Resume the mid-way generation on Open MPI and finish the run there.
    let (restarted, resumed_from) = restart_job_from_storage(
        OpenMpiFactory::new()
            .launch(WORLD, registry.clone(), 3)
            .unwrap(),
        &storage,
        mana_config(),
        registry.clone(),
    )
    .unwrap();
    assert_eq!(resumed_from, generation);
    let resumed = run_ranks(restarted, run_config(None));

    for (expected, got) in reference.iter().zip(&resumed) {
        assert_eq!(got.iterations_completed, ITERATIONS);
        assert_eq!(
            got.checksum.to_bits(),
            expected.checksum.to_bits(),
            "rank {}: the resumed run diverged from the uninterrupted one",
            got.rank
        );
    }
}

/// A one-rank session, run for two steps, so its upper half holds real state.
fn session_with_state(app: AppId, elastic: bool) -> Session {
    let registry = registry();
    let lower = MpichFactory::mpich()
        .launch(1, registry.clone(), 7)
        .unwrap()
        .remove(0);
    let mut session = Session::new(ManaRank::new(lower, mana_config(), registry).unwrap());
    let config = RunConfig {
        iterations: 2,
        state_scale: 1e-6,
        ..RunConfig::default()
    };
    if elastic {
        run_app_elastic(app, &mut session, &config).unwrap();
    } else {
        run_app(app, &mut session, &config).unwrap();
    }
    session
}

/// Tamper with a LULESH upper half, then resume it.
fn resume_tampered(tamper: impl FnOnce(&mut UpperHalfSpace)) -> MpiResult<AppReport> {
    let mut session = session_with_state(AppId::Lulesh, false);
    tamper(session.upper_mut());
    run_app(AppId::Lulesh, &mut session, &RunConfig::smoke(4))
}

#[track_caller]
fn assert_checkpoint_error<T: std::fmt::Debug>(result: MpiResult<T>, expect: &str) {
    match result {
        Err(MpiError::Checkpoint(message)) => assert!(
            message.contains(expect),
            "error {message:?} does not mention {expect:?}"
        ),
        other => panic!("expected a checkpoint error mentioning {expect:?}, got {other:?}"),
    }
}

#[test]
fn torn_lattice_region_is_a_checkpoint_error() {
    let result = resume_tampered(|upper| {
        upper
            .region_mut(&lattice_region(AppId::Lulesh))
            .unwrap()
            .pop();
    });
    assert_checkpoint_error(result, "not a whole number of f64s");
}

#[test]
fn lattice_disagreeing_with_its_header_is_a_checkpoint_error() {
    let result = resume_tampered(|upper| {
        upper
            .region_mut(&lattice_region(AppId::Lulesh))
            .unwrap()
            .extend_from_slice(&1.5f64.to_le_bytes());
    });
    assert_checkpoint_error(result, "its header records");
}

#[test]
fn header_without_its_lattice_is_a_checkpoint_error() {
    let result = resume_tampered(|upper| {
        upper.unmap_region(&lattice_region(AppId::Lulesh)).unwrap();
    });
    assert_checkpoint_error(result, "is missing");
}

#[test]
fn all_json_layout_is_a_checkpoint_error() {
    // The retired layout kept the lattice inside the header as decimal bit
    // patterns, with no element count and no lattice region.
    let result = resume_tampered(|upper| {
        let header =
            String::from_utf8(upper.region(&state_region(AppId::Lulesh)).unwrap().to_vec())
                .unwrap();
        let elements = upper.load_f64s(&lattice_region(AppId::Lulesh)).unwrap();
        let bits: Vec<String> = elements.iter().map(|v| v.to_bits().to_string()).collect();
        let count = format!("\"elements\":{}", elements.len());
        assert!(header.contains(&count), "unexpected header {header}");
        let old = header.replace(&count, &format!("\"lattice\":[{}]", bits.join(",")));
        upper.map_region(state_region(AppId::Lulesh), old.into_bytes());
        upper.unmap_region(&lattice_region(AppId::Lulesh)).unwrap();
    });
    assert_checkpoint_error(result, "elements");
}

#[test]
fn elastic_shard_missing_from_its_host_is_a_checkpoint_error() {
    let mut session = session_with_state(AppId::CoMd, true);
    session.upper_mut().unmap_region(&shard_region(0)).unwrap();
    let result = run_app_elastic(AppId::CoMd, &mut session, &RunConfig::smoke(4));
    assert_checkpoint_error(result, "is missing");

    // The repartition hook fails the same way when the old host lacks the shard.
    let old = vec![session.upper().clone()];
    let mut upper = UpperHalfSpace::new();
    let result = SkeletonRepartition::default().repartition(
        &old,
        &RankMap::block(1, 1).unwrap(),
        0,
        &mut upper,
    );
    assert_checkpoint_error(result, "is missing");
    assert!(!upper.contains(STATE_REGION), "nothing written on failure");
}
