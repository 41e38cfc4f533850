//! A rank parked in a collective's registration wait still services a checkpoint
//! intent: it withdraws from the uncommitted round, services the intent, registers
//! again, and the collective then completes on every rank.
//!
//! The schedule is fixed by ordering alone. Rank 1 stays outside the `allreduce`
//! until rank 0's intercept services the intent, so rank 0's round cannot commit
//! before the withdrawal; and rank 0's intent is raised only by its second query,
//! which the wrapper makes after registering and waiting once.

use job_runtime::run_world;
use mana::{CheckpointIntercept, CollectiveKind, IntentOutcome, ManaConfig, ManaRank, Op, Session};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::UserFunctionRegistry;
use mpich_sim::MpichFactory;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 2;

/// How long rank 1 waits to be let in before the test fails. Never reached when the
/// protocol works; it only turns a hang into a failure.
const FAILURE_TIMEOUT: Duration = Duration::from_secs(60);

/// Rank 0's intercept. The first query is the wrapper-entry safe point, before the
/// rank registers; every later query until the service comes from the registration
/// wait, with the rank registered in a round that cannot commit yet.
struct ParkedIntercept {
    queries: AtomicUsize,
    serviced: AtomicBool,
    /// What the rank's collective ledger held pending when the intent was serviced.
    pending_at_service: Mutex<Vec<Option<CollectiveKind>>>,
    release_peer: SyncSender<()>,
}

impl CheckpointIntercept for ParkedIntercept {
    fn intent_pending(&self) -> bool {
        let query = self.queries.fetch_add(1, Ordering::SeqCst);
        query >= 1 && !self.serviced.load(Ordering::SeqCst)
    }

    fn service(&self, rank: &mut ManaRank) -> MpiResult<IntentOutcome> {
        self.pending_at_service
            .lock()
            .push(rank.collective_log().pending().map(|p| p.kind));
        self.serviced.store(true, Ordering::SeqCst);
        self.release_peer
            .send(())
            .map_err(|_| MpiError::Internal("rank 1 stopped waiting".into()))?;
        Ok(IntentOutcome::Continue)
    }
}

#[test]
fn parked_registrant_withdraws_services_and_completes_the_collective() {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let ranks: Vec<ManaRank> = MpichFactory::mpich()
        .launch(WORLD, Arc::clone(&registry), 1)
        .unwrap()
        .into_iter()
        .map(|lower| ManaRank::new(lower, ManaConfig::new_design(), Arc::clone(&registry)).unwrap())
        .collect();

    let (release_peer, let_in): (SyncSender<()>, Receiver<()>) = sync_channel(1);
    let intercept = Arc::new(ParkedIntercept {
        queries: AtomicUsize::new(0),
        serviced: AtomicBool::new(false),
        pending_at_service: Mutex::new(Vec::new()),
        release_peer,
    });
    let let_in = Mutex::new(let_in);

    let sums = {
        let intercept = Arc::clone(&intercept);
        run_world(ranks, move |index, rank| {
            let mut session = Session::new(rank);
            let world = session.world()?;
            let local = session.world_rank() as u64 * 7 + 3;
            if index == 0 {
                session.rank_mut().set_intercept(intercept.clone());
            } else {
                let_in
                    .lock()
                    .recv_timeout(FAILURE_TIMEOUT)
                    .map_err(|_| MpiError::Internal("rank 0 never serviced its intent".into()))?;
            }
            Ok(session.allreduce(&[local], Op::sum(), world)?[0])
        })
        .unwrap()
    };

    assert_eq!(
        sums,
        vec![3 + 10; WORLD],
        "both ranks complete the allreduce"
    );
    assert_eq!(
        *intercept.pending_at_service.lock(),
        vec![Some(CollectiveKind::Allreduce)],
        "serviced once, from inside the allreduce's registration phase"
    );
    // Entry, the query from the wait that found the intent, and the service's own
    // check.
    assert!(intercept.queries.load(Ordering::SeqCst) >= 3);
}
