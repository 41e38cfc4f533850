//! Transparent checkpoint: drain the network, then save the upper half.
//!
//! The checkpoint is *collective and cooperative*: every rank calls
//! [`ManaRank::checkpoint`] (in the real system a checkpoint-request signal interrupts
//! the ranks at a wrapper boundary; the coordination protocol from there on is the
//! same). The algorithm uses only MPI calls from the required subset of paper §5:
//!
//! 1. `MPI_Barrier` on the world communicator — every rank has stopped injecting new
//!    point-to-point messages.
//! 2. `MPI_Alltoall` of per-destination send counts — every rank learns how many
//!    messages are still headed its way.
//! 3. A drain loop of `MPI_Iprobe` + `MPI_Recv` over every live communicator until the
//!    received counts match the expected counts. Drained messages are buffered in the
//!    *upper half*, so the application will still receive them (from the buffer) after
//!    the restart.
//! 4. `MPI_Barrier`, then serialize the upper half — application regions, the
//!    descriptor table, the replay log, the drained-message buffer and the drain
//!    counters — into a [`CheckpointImage`] and hand it to the `ckpt-store` engine.
//!
//! Nothing from the lower half (fabric mailboxes, library object stores, constant
//! addresses) is saved: that is the whole point of the split-process design.

use crate::runtime::{BufferedMessage, ManaRank};
use ckpt_store::{CheckpointStorage, FlushHandle, FlusherPool, StoreReport};
use mpi_model::buffer::{bytes_to_u64, u64_to_bytes};
use mpi_model::constants::PredefinedObject;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::types::{HandleKind, Rank, ANY_SOURCE, ANY_TAG};
use split_proc::image::{CheckpointImage, ImageMetadata};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper-half region names used for MANA's own state inside a checkpoint image.
pub mod regions {
    /// The virtual-id translator (descriptor table or legacy maps).
    pub const TRANSLATOR: &str = "mana.translator";
    /// The object-creation replay log.
    pub const REPLAY_LOG: &str = "mana.replay_log";
    /// Messages drained from the network at checkpoint time.
    pub const BUFFERED: &str = "mana.buffered";
    /// Per-peer send/receive counters.
    pub const COUNTERS: &str = "mana.counters";
    /// The collective-progress ledger (published sequence numbers + the pending
    /// registration of a straddled collective).
    pub const COLLECTIVES: &str = "mana.collectives";

    /// All MANA-internal regions, in the order they are mapped into an image.
    pub const ALL: [&str; 5] = [TRANSLATOR, REPLAY_LOG, BUFFERED, COUNTERS, COLLECTIVES];
}

/// Smallest sleep of the drain backoff ladder.
const BACKOFF_FLOOR: Duration = Duration::from_micros(4);
/// Cap of the drain backoff ladder: an idle rank never sleeps longer than this
/// between probe sweeps, so late traffic is still picked up promptly.
const BACKOFF_CAP: Duration = Duration::from_millis(1);

/// The drain's expected traffic and the job-wide collective agreement, produced by
/// [`ManaRank::begin_checkpoint`]: how many point-to-point messages each world rank
/// has sent this rank since job start, plus the world-communicator collective epoch
/// every rank reported — the proof that no rank sits inside a collective's critical
/// phase (all ranks are *between* the same pair of world collectives).
#[derive(Debug, Clone)]
pub struct DrainPlan {
    expected_from: Vec<u64>,
    collective_epoch: u64,
}

impl DrainPlan {
    /// A hand-built plan: expect `expected_from[i]` cumulative messages from world
    /// rank `i`, at the given collective epoch. For tests and stall-path diagnostics
    /// that need a plan no real exchange would produce (e.g. a peer that never
    /// sends); real checkpoints get their plan from
    /// [`ManaRank::begin_checkpoint`].
    pub fn synthetic(expected_from: Vec<u64>, collective_epoch: u64) -> Self {
        DrainPlan {
            expected_from,
            collective_epoch,
        }
    }

    /// Expected cumulative message count from each world rank.
    pub fn expected_from(&self) -> &[u64] {
        &self.expected_from
    }

    /// The job-agreed collective epoch: completed collectives on the world
    /// communicator, identical on every rank at checkpoint time.
    pub fn collective_epoch(&self) -> u64 {
        self.collective_epoch
    }
}

/// What a serviced checkpoint intent asks the interrupted wrapper to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntentOutcome {
    /// Resume the interrupted operation (checkpoint-and-continue).
    Continue,
    /// Vacate the allocation: the wrapper unwinds with
    /// [`MpiError::Preempted`] and the orchestrator treats the run as preempted.
    Vacate,
}

/// The mid-step checkpoint hook an orchestrator installs on a [`ManaRank`]
/// (see [`ManaRank::set_intercept`]): how a rank learns that a checkpoint intent has
/// been broadcast, and how it services one from *inside* a wrapper.
///
/// Collective wrappers consult the hook only at registration-phase safe points:
/// wrapper entry (before registering), and between the slices of the registration
/// wait, where a rank withdraws its registration (atomically, see `collective_withdraw`) before
/// servicing — so a checkpoint can never catch a rank inside a collective. There is
/// no post-critical-phase check: an intent arriving during the critical phase waits
/// for the next registration or step-boundary safe point, where every rank's
/// upper-half state is the same deterministic step prefix.
pub trait CheckpointIntercept: Send + Sync {
    /// Whether a checkpoint intent is pending that this rank has not serviced yet.
    fn intent_pending(&self) -> bool;

    /// Service the pending intent: run this rank's side of a full coordinated
    /// checkpoint (quiesce, drain, write, commit). Called with the rank at a safe
    /// point. Returns what the interrupted wrapper should do next.
    fn service(&self, rank: &mut ManaRank) -> MpiResult<IntentOutcome>;
}

/// One peer this rank is still waiting on during a drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainShortfall {
    /// The peer world rank that still owes messages.
    pub peer: Rank,
    /// Messages that peer has sent this rank since job start.
    pub expected: u64,
    /// Messages this rank has received from that peer so far.
    pub received: u64,
}

impl DrainShortfall {
    /// Messages still missing from this peer.
    pub fn missing(&self) -> u64 {
        self.expected.saturating_sub(self.received)
    }
}

fn describe_shortfalls(shortfalls: &[DrainShortfall], dead_peers: &[Rank]) -> String {
    shortfalls
        .iter()
        .map(|s| {
            // Distinguish a peer that will *never* send (its heartbeat expired) from
            // one that is merely slow: under chaos the two need opposite responses —
            // abort-and-recover vs wait — and a stall budget is only meaningful for
            // the latter.
            let verdict = if dead_peers.contains(&s.peer) {
                "peer dead: heartbeat expired"
            } else {
                "peer slow"
            };
            format!(
                "rank {} is short {} (expected {}, received {}; {verdict})",
                s.peer,
                s.missing(),
                s.expected,
                s.received
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Observes drain progress across whatever scope the caller has: a single rank (the
/// default, [`LocalDrainObserver`]) or the whole job (a coordinator).
///
/// The drain loop declares a stall only when the observer's *progress stamp* has been
/// frozen for the whole stall budget. A job-wide observer therefore keeps a rank
/// patient while any other rank is still making progress — the coordinator-observed
/// replacement for the old per-rank idle-round counter, which could misfire on a slow
/// machine even though the job as a whole was healthy.
pub trait DrainObserver: Send + Sync {
    /// Record that `rank` drained `messages` more in-flight messages.
    fn record_progress(&self, rank: Rank, messages: u64);

    /// A stamp that increases whenever any observed rank makes progress.
    fn progress_stamp(&self) -> u64;

    /// How long a rank may watch a frozen stamp before declaring the drain stalled.
    fn stall_budget(&self) -> Duration {
        Duration::from_secs(5)
    }

    /// World ranks the observer's failure detector has declared dead (heartbeat
    /// expired). The drain uses this to fail *fast* — a peer that will never send
    /// again should not be waited on for the whole stall budget — and to label its
    /// stall diagnostic "peer dead" instead of the misleading "peer slow". The
    /// default (no detector) reports nobody dead.
    fn dead_peers(&self) -> Vec<Rank> {
        Vec::new()
    }
}

/// The fallback observer used by the standalone [`ManaRank::checkpoint`]: only this
/// rank's own progress is visible.
#[derive(Debug, Default)]
pub struct LocalDrainObserver {
    drained: AtomicU64,
}

impl DrainObserver for LocalDrainObserver {
    fn record_progress(&self, _rank: Rank, messages: u64) {
        self.drained.fetch_add(messages, Ordering::Relaxed);
    }

    fn progress_stamp(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }
}

impl ManaRank {
    /// Take a transparent checkpoint into the `ckpt-store` storage engine, using the
    /// storage policy from this rank's [`ManaConfig`](crate::config::ManaConfig)
    /// (full image, incremental, or incremental+compressed). `FullImage` is the
    /// paper-baseline write path: every generation writes the complete image.
    ///
    /// On the incremental policies only the upper-half regions dirtied since the
    /// previous generation are re-encoded, and only content-new chunks reach storage;
    /// after a successful write the upper half is marked clean and its checkpoint
    /// epoch advances, so the *next* checkpoint diffs against this one.
    ///
    /// Collective: every rank of the job must call this at the same logical point.
    /// Jobs running under an orchestrator (`job-runtime`) go through the same phases
    /// individually, with a job-wide [`DrainObserver`] in the middle.
    pub fn checkpoint(&mut self, storage: &CheckpointStorage) -> MpiResult<StoreReport> {
        self.quiesce_and_drain(&LocalDrainObserver::default())?;
        self.write_checkpoint(storage)
    }

    /// Phases 1-4 of the checkpoint protocol in one call: [`begin_checkpoint`],
    /// [`drain_quiescent`] under `observer`, [`complete_drain`]. Collective. After
    /// this returns the rank is safe to snapshot or write.
    ///
    /// [`begin_checkpoint`]: ManaRank::begin_checkpoint
    /// [`drain_quiescent`]: ManaRank::drain_quiescent
    /// [`complete_drain`]: ManaRank::complete_drain
    pub fn quiesce_and_drain(&mut self, observer: &dyn DrainObserver) -> MpiResult<()> {
        let plan = self.begin_checkpoint()?;
        self.drain_quiescent(&plan, observer)?;
        self.complete_drain()
    }

    /// Phases 1-2 of the checkpoint protocol: quiesce the job (world barrier),
    /// exchange per-destination send counts, and agree on the job-wide collective
    /// epoch, producing the [`DrainPlan`] the drain phase works off. Collective.
    ///
    /// Each alltoall block carries two words: the cumulative send count to that peer
    /// and this rank's world-communicator collective epoch. The epoch agreement is
    /// the checkable half of the two-phase collective guarantee: if any two ranks
    /// report different epochs, some rank was caught inside (or past) a collective
    /// the others have not reached, and the checkpoint must not proceed.
    pub fn begin_checkpoint(&mut self) -> MpiResult<DrainPlan> {
        let world = self.world()?;
        let world_vid = world.virtual_id()?;
        let world_phys = self.phys(world, HandleKind::Comm)?;

        // Phase 1: quiesce. After this barrier no rank injects new messages until the
        // checkpoint completes.
        self.cross();
        self.lower.barrier(world_phys)?;

        // Phase 2: publish per-destination send counts and the collective epoch
        // (required subset, category 3).
        let my_epoch = self.collectives.completed_on(world_vid);
        let mut contribution = Vec::with_capacity(self.world_size * 2);
        for &count in &self.counters.sent_to {
            contribution.push(count);
            contribution.push(my_epoch);
        }
        self.cross();
        let exchanged = self
            .lower
            .alltoall(&u64_to_bytes(&contribution), 16, world_phys)?;
        let words = bytes_to_u64(&exchanged);
        if words.len() != self.world_size * 2 {
            return Err(MpiError::Checkpoint(
                "send-count exchange returned the wrong number of peers".into(),
            ));
        }
        let expected_from: Vec<u64> = words.iter().step_by(2).copied().collect();
        for (peer, &epoch) in words.iter().skip(1).step_by(2).enumerate() {
            if epoch != my_epoch {
                return Err(MpiError::Checkpoint(format!(
                    "collective epoch disagreement at checkpoint: rank {} is at world \
                     epoch {}, but rank {peer} reported {epoch} — a rank straddles a \
                     collective's critical phase",
                    self.world_rank, my_epoch
                )));
            }
        }
        Ok(DrainPlan {
            expected_from,
            collective_epoch: my_epoch,
        })
    }

    /// Phase 4 of the checkpoint protocol: a world barrier confirming every rank has
    /// drained, then a refresh of ggids a lazy policy deferred (paper §4.2: "At the
    /// time of checkpoint, the structures may be further updated"). After this returns
    /// the rank is safe to snapshot. Collective.
    pub fn complete_drain(&mut self) -> MpiResult<()> {
        let world = self.world()?;
        let world_phys = self.phys(world, HandleKind::Comm)?;
        self.cross();
        self.lower.barrier(world_phys)?;

        let comm_and_group_vids: Vec<_> = self
            .translator
            .iter_in_creation_order()
            .iter()
            .filter(|d| matches!(d.kind, HandleKind::Comm | HandleKind::Group))
            .map(|d| d.vid)
            .collect();
        for vid in comm_and_group_vids {
            self.translator.get_mut(vid)?.ggid_or_compute();
        }
        Ok(())
    }

    /// Snapshot this rank's upper half into the `ckpt-store` engine under the
    /// configured storage policy and advance the generation + dirty-tracking epoch.
    /// The caller must have completed the drain phases first.
    ///
    /// Writes from different ranks may run concurrently: the sharded store admits
    /// them in parallel, which is what the orchestrator's parallel write phase
    /// exploits.
    pub fn write_checkpoint(&mut self, storage: &CheckpointStorage) -> MpiResult<StoreReport> {
        let policy = self.config.storage;
        let report = self.with_built_image(|image| storage.write_image(policy, image))?;
        self.upper.mark_clean();
        self.upper.advance_epoch();
        self.generation += 1;
        Ok(report)
    }

    /// The fast half of the asynchronous checkpoint split: freeze this rank's
    /// checkpoint image (one memory copy of the upper half, with the MANA regions
    /// serialized in) and immediately return the rank to computation. The caller
    /// hands the frozen image to a [`FlusherPool`], which performs the expensive
    /// chunk/compress/store work in the background.
    ///
    /// Generation and dirty-tracking epoch advance *here*, at freeze time: every
    /// application write after this call is dirty relative to this snapshot, exactly
    /// as it would be after a synchronous write. The caller must have completed the
    /// drain phases first.
    pub fn snapshot_checkpoint(&mut self) -> MpiResult<CheckpointImage> {
        let image = self.with_built_image(|image| image.clone())?;
        self.upper.mark_clean();
        self.upper.advance_epoch();
        self.generation += 1;
        Ok(image)
    }

    /// Snapshot this rank (see
    /// [`snapshot_checkpoint`](ManaRank::snapshot_checkpoint)) and submit the frozen
    /// image to `flusher` for background writing under the configured storage
    /// policy. The generation is announced as *pending* in the flusher's store — it
    /// becomes visible only once every rank of the world has flushed it, so a job
    /// killed mid-flush restarts from the newest committed generation exactly like a
    /// job killed mid-write does. `on_flushed` runs on the flusher thread after this
    /// rank's image lands in storage (orchestrators hang their commit accounting
    /// here). The caller must have completed the drain phases first.
    pub fn write_checkpoint_async(
        &mut self,
        flusher: &FlusherPool,
        on_flushed: impl FnOnce(&StoreReport) + Send + 'static,
    ) -> MpiResult<FlushHandle> {
        let policy = self.config.storage;
        let world_size = self.world_size;
        let image = self.snapshot_checkpoint()?;
        flusher
            .storage()
            .begin_generation(image.metadata.generation, world_size);
        Ok(flusher.submit_with(policy, image, on_flushed))
    }

    /// Run `consume` over this rank's checkpoint image without cloning the upper
    /// half: the MANA regions (descriptor table, replay log, drained messages,
    /// counters, collective ledger) are serialized *into* the live upper half, the
    /// space is moved into the image for the duration of the call, then moved back
    /// and the MANA regions unmapped. Peak memory stays one upper half, where the
    /// old clone-based path briefly held two.
    fn with_built_image<R>(&mut self, consume: impl FnOnce(&CheckpointImage) -> R) -> MpiResult<R> {
        self.upper
            .store_json(regions::TRANSLATOR, &self.translator)?;
        self.upper
            .store_json(regions::REPLAY_LOG, &self.replay_log)?;
        self.upper.store_json(regions::BUFFERED, &self.buffered)?;
        self.upper.store_json(regions::COUNTERS, &self.counters)?;
        self.upper
            .store_json(regions::COLLECTIVES, &self.collectives)?;
        let image = CheckpointImage::new(
            ImageMetadata {
                rank: self.world_rank,
                world_size: self.world_size,
                generation: self.generation,
                implementation: self.lower.implementation_name().to_string(),
            },
            std::mem::take(&mut self.upper),
        );
        let result = consume(&image);
        self.upper = image.upper_half;
        for region in regions::ALL {
            let _ = self.upper.unmap_region(region);
        }
        Ok(result)
    }

    /// Phase 3 of the checkpoint protocol: drain pending point-to-point traffic into
    /// the upper-half buffer until every count in `plan` is satisfied.
    ///
    /// Idle rounds back off exponentially (capped at 1 ms) instead of
    /// spinning, and a stall is declared only after the observer's progress stamp has
    /// been frozen for its whole stall budget — under a job-wide observer, only when
    /// *no rank anywhere* is draining anything. The stall diagnostic names each peer
    /// this rank is still waiting on and by how many messages.
    pub fn drain_quiescent(
        &mut self,
        plan: &DrainPlan,
        observer: &dyn DrainObserver,
    ) -> MpiResult<()> {
        let expected_from = &plan.expected_from;
        // Snapshot the live communicators (vid, physical handle, membership) so we can
        // iterate without holding a borrow on the translator.
        let comms: Vec<_> = self
            .translator
            .iter_in_creation_order()
            .iter()
            .filter(|d| d.kind == HandleKind::Comm && !d.phys.is_null())
            .map(|d| (d.vid, d.phys, d.members_world.clone().unwrap_or_default()))
            .collect();

        let mut backoff = BACKOFF_FLOOR;
        let mut last_stamp = observer.progress_stamp();
        let mut frozen_since = Instant::now();
        loop {
            let satisfied = self
                .counters
                .received_from
                .iter()
                .zip(expected_from.iter())
                .all(|(got, want)| got >= want);
            if satisfied {
                return Ok(());
            }
            let drained = self.drain_sweep(&comms)?;
            if drained > 0 {
                observer.record_progress(self.world_rank, drained);
                backoff = BACKOFF_FLOOR;
                frozen_since = Instant::now();
                continue;
            }
            // A declared-dead peer that still owes us messages can never satisfy the
            // plan: fail fast with an honest diagnostic instead of burning the whole
            // stall budget waiting on a corpse.
            let dead = observer.dead_peers();
            if !dead.is_empty() {
                let shortfalls = self.drain_shortfall(expected_from);
                if shortfalls.iter().any(|s| dead.contains(&s.peer)) {
                    return Err(MpiError::Checkpoint(format!(
                        "drain on rank {} cannot complete: a peer it is waiting on \
                         is dead (heartbeat expired); still missing {} messages: {}",
                        self.world_rank,
                        shortfalls.iter().map(DrainShortfall::missing).sum::<u64>(),
                        describe_shortfalls(&shortfalls, &dead)
                    )));
                }
            }
            // Nothing here — but if any observed rank progressed, the job is healthy;
            // reset the stall clock and stay patient.
            let stamp = observer.progress_stamp();
            if stamp != last_stamp {
                last_stamp = stamp;
                backoff = BACKOFF_FLOOR;
                frozen_since = Instant::now();
            } else if frozen_since.elapsed() >= observer.stall_budget() {
                let shortfalls = self.drain_shortfall(expected_from);
                return Err(MpiError::Checkpoint(format!(
                    "drain stalled on rank {} after {:.3}s without progress \
                     anywhere in the job (stall budget {:.3}s); still missing {} \
                     messages: {}",
                    self.world_rank,
                    frozen_since.elapsed().as_secs_f64(),
                    observer.stall_budget().as_secs_f64(),
                    shortfalls.iter().map(DrainShortfall::missing).sum::<u64>(),
                    describe_shortfalls(&shortfalls, &dead)
                )));
            }
            // Clamp the sleep to the remaining stall budget: an uncapped backoff
            // taken *after* the stall check could overshoot the budget by a whole
            // sleep, declaring the stall late and misreporting the real wait.
            let remaining = observer
                .stall_budget()
                .saturating_sub(frozen_since.elapsed());
            std::thread::sleep(backoff.min(remaining));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }

    /// One probe-and-receive sweep over every live communicator, draining each until
    /// its probe runs dry; returns how many in-flight messages were buffered in the
    /// upper half. (Draining only one message per communicator per sweep would force
    /// a full backoff-loop iteration — with its sleep — per in-flight message.)
    fn drain_sweep(
        &mut self,
        comms: &[(
            crate::virtid::VirtualId,
            mpi_model::types::PhysHandle,
            Vec<Rank>,
        )],
    ) -> MpiResult<u64> {
        let mut drained = 0u64;
        for (vid, phys, members) in comms {
            loop {
                self.cross();
                let Some(status) = self.lower.iprobe(ANY_SOURCE, ANY_TAG, *phys)? else {
                    break;
                };
                // Receive exactly the probed message and buffer it in the upper half.
                let byte_type = self.constant(PredefinedObject::Datatype(
                    mpi_model::datatype::PrimitiveType::Byte,
                ))?;
                let byte_phys = self.phys(byte_type, HandleKind::Datatype)?;
                self.cross();
                let (payload, status) = self.lower.recv(
                    byte_phys,
                    status.count_bytes,
                    status.source,
                    status.tag,
                    *phys,
                )?;
                let source_world = members
                    .get(status.source.max(0) as usize)
                    .copied()
                    .ok_or_else(|| {
                        MpiError::Checkpoint(
                            "drained message from a rank outside the communicator".into(),
                        )
                    })?;
                self.counters.received_from[source_world as usize] += 1;
                self.buffered.push(BufferedMessage {
                    comm: *vid,
                    source: status.source,
                    tag: status.tag,
                    payload,
                });
                drained += 1;
            }
        }
        Ok(drained)
    }

    /// Whether a checkpoint intent is pending on the installed intercept.
    pub(crate) fn intent_pending(&self) -> bool {
        self.intercept
            .as_ref()
            .is_some_and(|hook| hook.intent_pending())
    }

    /// Service a pending mid-step checkpoint intent, if an intercept is installed and
    /// an intent is pending; a no-op otherwise. Must only be called from a safe point
    /// (between wrapper calls, or inside a collective wrapper strictly outside the
    /// critical phase). Returns [`MpiError::Preempted`] when the serviced intent asks
    /// the rank to vacate.
    pub fn service_pending_intent(&mut self) -> MpiResult<()> {
        let Some(hook) = self.intercept.clone() else {
            return Ok(());
        };
        if !hook.intent_pending() {
            return Ok(());
        }
        match hook.service(self)? {
            IntentOutcome::Continue => Ok(()),
            IntentOutcome::Vacate => Err(MpiError::Preempted),
        }
    }

    /// The peers this rank is still waiting on, with expected/received counts — the
    /// payload of the stall diagnostic.
    pub fn drain_shortfall(&self, expected_from: &[u64]) -> Vec<DrainShortfall> {
        self.counters
            .received_from
            .iter()
            .zip(expected_from.iter())
            .enumerate()
            .filter(|(_, (got, want))| got < want)
            .map(|(peer, (got, want))| DrainShortfall {
                peer: peer as Rank,
                expected: *want,
                received: *got,
            })
            .collect()
    }
}
