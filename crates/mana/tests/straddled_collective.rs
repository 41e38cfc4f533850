//! Regression: a checkpoint intent serviced while a rank is parked in the
//! registration phase of a step's *second* collective. The serialized collective
//! ledger then carries a pending record for that second collective — and the restart
//! re-runs the interrupted step from its beginning, re-issuing the *first* collective
//! first. The pending record must therefore be cleared at restart (the re-issued
//! collectives receive their sequence numbers afresh); matching the first re-issued
//! call against the pending second-collective record would wrongly reject the replay
//! as divergent.

use ckpt_store::CheckpointStorage;
use job_runtime::run_world;
use mana::restart::restart_job_from_storage;
use mana::{
    CheckpointIntercept, CollectiveKind, IntentOutcome, LocalDrainObserver, ManaConfig, ManaRank,
    Op, Session,
};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpich_sim::MpichFactory;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WORLD: usize = 2;

/// The test intercept: `intent_pending` reads a flag the workload flips between its
/// two collectives, and `service` runs a full standalone checkpoint, records what the
/// rank's collective ledger held pending at that moment, and vacates.
struct StraddleIntercept {
    intent: Arc<AtomicBool>,
    storage: CheckpointStorage,
    pending_at_service: Arc<Mutex<Vec<Option<CollectiveKind>>>>,
}

impl CheckpointIntercept for StraddleIntercept {
    fn intent_pending(&self) -> bool {
        self.intent.load(Ordering::SeqCst)
    }

    fn service(&self, rank: &mut ManaRank) -> MpiResult<IntentOutcome> {
        self.pending_at_service
            .lock()
            .push(rank.collective_log().pending().map(|p| p.kind));
        let plan = rank.begin_checkpoint()?;
        rank.drain_quiescent(&plan, &LocalDrainObserver::default())?;
        rank.complete_drain()?;
        rank.write_checkpoint(&self.storage)?;
        Ok(IntentOutcome::Vacate)
    }
}

/// The interrupted "step": an `allreduce` followed by an `allgather`, state mutation
/// only after both. Returns the two collective results.
fn two_collective_step(session: &mut Session) -> MpiResult<(u64, u64)> {
    let me = session.world_rank() as u64;
    let world = session.world()?;
    let local = me * 7 + 3;
    let total = session.allreduce(&[local], Op::sum(), world)?[0];
    let digest = session
        .allgather(&[local], world)?
        .iter()
        .fold(0u64, |acc, &x| acc.rotate_left(5) ^ x);
    Ok((total, digest))
}

#[test]
fn straddling_the_second_collective_of_a_step_restarts_cleanly() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let storage = CheckpointStorage::unmetered();
    let intent = Arc::new(AtomicBool::new(false));
    let pending_at_service = Arc::new(Mutex::new(Vec::new()));

    let ranks: Vec<ManaRank> = MpichFactory::mpich()
        .launch(WORLD, Arc::clone(&registry), 1)
        .unwrap()
        .into_iter()
        .map(|lower| ManaRank::new(lower, ManaConfig::new_design(), Arc::clone(&registry)).unwrap())
        .collect();

    let reference = {
        // Uninterrupted reference in its own world.
        let reg = Arc::new(RwLock::new(UserFunctionRegistry::new()));
        let fresh: Vec<ManaRank> = MpichFactory::mpich()
            .launch(WORLD, Arc::clone(&reg), 9)
            .unwrap()
            .into_iter()
            .map(|lower| ManaRank::new(lower, ManaConfig::new_design(), Arc::clone(&reg)).unwrap())
            .collect();
        run_world(fresh, |_, rank| {
            two_collective_step(&mut Session::new(rank))
        })
        .unwrap()
    };

    // Interrupted run: rank 0 dawdles between its allreduce completion and its
    // allgather (flipping the intent flag mid-sleep), so rank 1 is already parked in
    // the allgather's registration phase when the intent lands — pending record:
    // the *second* collective of the step.
    let outcomes = {
        let storage = storage.clone();
        let intent = Arc::clone(&intent);
        let pending_at_service = Arc::clone(&pending_at_service);
        run_world(ranks, move |index, rank| {
            let mut session = Session::new(rank);
            session
                .rank_mut()
                .set_intercept(Arc::new(StraddleIntercept {
                    intent: Arc::clone(&intent),
                    storage: storage.clone(),
                    pending_at_service: Arc::clone(&pending_at_service),
                }));
            let me = session.world_rank() as u64;
            let world = session.world()?;
            let local = me * 7 + 3;
            session.allreduce(&[local], Op::sum(), world)?;
            if index == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
                intent.store(true, Ordering::SeqCst);
            }
            match session.allgather(&[local], world) {
                Err(MpiError::Preempted) => Ok("preempted"),
                Ok(_) => Ok("completed"),
                Err(error) => Err(error),
            }
        })
        .unwrap()
    };
    assert_eq!(outcomes, vec!["preempted"; WORLD]);
    let pendings = pending_at_service.lock().clone();
    assert!(
        pendings.contains(&Some(CollectiveKind::Allgather)),
        "at least one rank must have been caught inside the second collective's \
         registration phase (got {pendings:?})"
    );

    // Restart from the straddled-collective generation and re-run the whole step:
    // the allreduce is re-issued *first*, which must not trip over the restored
    // pending allgather record.
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let lowers = MpichFactory::mpich()
        .launch(WORLD, Arc::clone(&registry), 2)
        .unwrap();
    let (restored, generation) =
        restart_job_from_storage(lowers, &storage, ManaConfig::new_design(), registry).unwrap();
    assert_eq!(generation, 0);
    for rank in &restored {
        assert!(
            rank.collective_log().pending().is_none(),
            "restart must clear the straddled pending record"
        );
    }
    let results = run_world(restored, |_, rank| {
        two_collective_step(&mut Session::new(rank))
    })
    .unwrap();
    assert_eq!(
        results, reference,
        "the re-executed step must reproduce the uninterrupted run"
    );
}
