//! The fabric: the shared, in-memory "network" connecting all ranks of a job, and the
//! per-rank [`Endpoint`] the MPI implementations use to move bytes.
//!
//! Beyond plain delivery, the fabric carries the three lanes the self-healing
//! orchestrator is built on:
//!
//! * **A chaos lane.** An installed [`ChaosPlan`] can delay, drop (then retransmit)
//!   or reorder individual messages, partition rank sets, and kill ranks or whole
//!   "nodes" — all seeded and replayable. Masked faults are absorbed by per-pair
//!   sequencing plus the mailbox re-sequencing lane; lethal faults surface as
//!   [`MpiError::RankKilled`] on the victim and silence everywhere else.
//! * **A heartbeat lane.** When enabled, every endpoint operation (and every slice of
//!   a blocking wait) records a beat for its rank on a shared board. Beats from dead
//!   or partition-isolated ranks are suppressed, so "no beat within the deadline" is
//!   exactly the observable a failure detector needs.
//! * **An abort lane.** [`Fabric::abort`] wakes every blocked rank with
//!   [`MpiError::JobAborted`], which is how a detector tears down a world whose
//!   survivors are wedged on a dead peer.

use crate::bytes::PayloadBuf;
use crate::chaos::{ChaosAction, ChaosEvent, ChaosPlan, FaultKind};
use crate::mailbox::Mailbox;
use crate::message::{Envelope, MatchSpec};
use crate::stats::{FabricStats, StatsSnapshot};
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::status::Status;
use mpi_model::types::{ContextId, Rank};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a blocking receive or collective will wait for its counterpart before the
/// fabric declares the job wedged. Real MPI would hang forever; failing fast keeps the
/// test suite debuggable. Generous enough for heavily oversubscribed CI machines.
const BLOCKING_TIMEOUT: Duration = Duration::from_secs(60);

/// Wait-slice length used once the fabric is "lively" (chaos installed or heartbeats
/// enabled): blocked ranks wake this often to beat, pump held messages, and notice
/// deaths or aborts. Without liveliness, waits use the full [`BLOCKING_TIMEOUT`].
const WAIT_SLICE: Duration = Duration::from_millis(2);

/// Configuration for a fabric instance.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of ranks connected to the fabric.
    pub world_size: usize,
    /// Session nonce distinguishing this "hardware instantiation" from any other.
    ///
    /// This models the non-checkpointable NIC/switch state: a restarted job gets a new
    /// fabric with a new nonce, and nothing in a checkpoint image may depend on it.
    pub session_nonce: u64,
}

impl FabricConfig {
    /// Convenience constructor.
    pub fn new(world_size: usize, session_nonce: u64) -> Self {
        FabricConfig {
            world_size,
            session_nonce,
        }
    }
}

struct RankSlot {
    mailbox: Mutex<Mailbox>,
    arrival: Condvar,
    open: AtomicBool,
}

struct CollectiveSlot {
    expected: usize,
    contributions: HashMap<usize, PayloadBuf>,
    /// The ordered contributions, shared: every reader receives refcount bumps of
    /// the same `expected` buffers, so an N-way fan-out moves no payload bytes.
    result: Option<Arc<Vec<PayloadBuf>>>,
    readers_remaining: usize,
}

/// Registration board entry for one collective round: who has announced intent to
/// enter the collective keyed by `(context, seq)`. The board is the fabric half of
/// the two-phase collective protocol ("trivial barrier"): a member may *withdraw* its
/// registration — atomically, and only while the round is still incomplete — which is
/// what lets a rank step out to service a checkpoint without ever being caught inside
/// the collective's critical phase.
struct RegistrationSlot {
    expected: usize,
    /// Each registrant's member index and when it registered. The time is what the
    /// registration wait's stall bound is measured from: a re-registration after a
    /// withdrawal starts a fresh clock, an idempotent re-registration keeps it.
    registered: HashMap<usize, Instant>,
    /// Once every member has registered the round is *committed*: withdrawals fail
    /// and every member must proceed into the real collective exchange.
    committed: bool,
}

/// A rank's death record: when it died and why.
#[derive(Debug, Clone)]
struct DeathRecord {
    at: Instant,
    cause: String,
}

/// One active network partition: `isolated` ranks cannot reach the rest of the world
/// (and their heartbeats are suppressed) until `heals_at`, if ever.
struct ActivePartition {
    fault_id: Option<usize>,
    isolated: HashSet<Rank>,
    started: Instant,
    heals_at: Option<Instant>,
}

/// Why a held message is being withheld, and when it may go.
enum Release {
    /// Deliver once this instant passes (delay, or drop-then-retransmit).
    At(Instant),
    /// Deliver once this many messages have been injected fabric-wide (reorder),
    /// or once the retransmit backstop instant passes — whichever comes first. The
    /// backstop matters at the tail of a run: if traffic ends before enough
    /// overtaking messages are injected, a real transport's retransmit timer still
    /// fires; without it the held message would be parked forever and wedge its
    /// receiver.
    AfterInjected(u64, Instant),
    /// Deliver once no active partition separates source from destination.
    WhenConnected,
}

/// Retransmit backstop for reorder holds: long enough that overtaking traffic
/// normally wins the race (the reorder is observed), short enough to stay inside
/// the masked-outage envelope of every heartbeat deadline used in practice.
const REORDER_BACKSTOP: Duration = Duration::from_millis(50);

struct HeldEnvelope {
    envelope: Envelope,
    release: Release,
}

/// Installed chaos plan plus per-fault fired flags.
struct ChaosExec {
    plan: ChaosPlan,
    fired: Vec<bool>,
}

struct FabricInner {
    world_size: usize,
    session_nonce: u64,
    epoch: Instant,
    slots: Vec<RankSlot>,
    collectives: Mutex<HashMap<(ContextId, u64), CollectiveSlot>>,
    registrations: Mutex<HashMap<(ContextId, u64), RegistrationSlot>>,
    collective_done: Condvar,
    /// Paired with `registrations`: notified when a registration round commits, and
    /// on every death or abort, so a rank parked in the registration wait wakes.
    registration_commit: Condvar,
    next_context: AtomicU64,
    next_seq: AtomicU64,
    /// Per-(source, destination) consecutive delivery sequence counters, row-major
    /// `source * world_size + dest`. Assigned at injection, before chaos.
    pair_seqs: Vec<AtomicU64>,
    /// Fabric operations performed, per rank and globally; trigger clocks for chaos.
    rank_ops: Vec<AtomicU64>,
    global_ops: AtomicU64,
    collective_entries: Vec<AtomicU64>,
    injected_messages: AtomicU64,
    /// Whether any chaos/heartbeat machinery is active; when false every per-op hook
    /// is a single relaxed load and blocking waits use the full timeout.
    lively: AtomicBool,
    heartbeats_enabled: AtomicBool,
    /// Microseconds since `epoch` of each rank's last heartbeat.
    beats: Vec<AtomicU64>,
    deaths: Mutex<HashMap<Rank, DeathRecord>>,
    aborted: AtomicBool,
    abort_reason: Mutex<Option<String>>,
    partitions: Mutex<Vec<ActivePartition>>,
    held: Mutex<Vec<HeldEnvelope>>,
    chaos: Mutex<Option<ChaosExec>>,
    events: Mutex<Vec<ChaosEvent>>,
    stats: FabricStats,
}

/// The shared fabric connecting every rank of one job (one "session" of the network
/// hardware). Cloning is cheap (it is an `Arc` underneath); each simulated MPI
/// implementation's launch routine creates one fabric and hands each rank an
/// [`Endpoint`] onto it.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("world_size", &self.inner.world_size)
            .field("session_nonce", &self.inner.session_nonce)
            .finish()
    }
}

thread_local! {
    /// Capture slot armed by [`Fabric::capture_next`]: the next fabric constructed on
    /// this thread clones itself into the slot. This is how an orchestrator obtains
    /// the fabric an MPI implementation factory builds internally during `launch`,
    /// without widening the factory trait with network-specific types.
    static CAPTURE: RefCell<Option<Arc<Mutex<Option<Fabric>>>>> = const { RefCell::new(None) };
}

/// Handle returned by [`Fabric::capture_next`]; yields the captured fabric once one
/// has been constructed on the arming thread.
#[derive(Clone)]
pub struct FabricCapture {
    slot: Arc<Mutex<Option<Fabric>>>,
}

impl FabricCapture {
    /// The captured fabric, if one has been constructed since arming.
    pub fn take(&self) -> Option<Fabric> {
        self.slot.lock().take()
    }
}

impl Fabric {
    /// Create a new fabric for `config.world_size` ranks.
    pub fn new(config: FabricConfig) -> Self {
        let slots = (0..config.world_size)
            .map(|_| RankSlot {
                mailbox: Mutex::new(Mailbox::new()),
                arrival: Condvar::new(),
                open: AtomicBool::new(true),
            })
            .collect();
        let n = config.world_size;
        let fabric = Fabric {
            inner: Arc::new(FabricInner {
                world_size: n,
                session_nonce: config.session_nonce,
                epoch: crate::clock::now(),
                slots,
                collectives: Mutex::new(HashMap::new()),
                registrations: Mutex::new(HashMap::new()),
                collective_done: Condvar::new(),
                registration_commit: Condvar::new(),
                // Contexts 1 and 2 are reserved for MPI_COMM_WORLD / MPI_COMM_SELF.
                next_context: AtomicU64::new(16),
                next_seq: AtomicU64::new(0),
                pair_seqs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
                rank_ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
                global_ops: AtomicU64::new(0),
                collective_entries: (0..n).map(|_| AtomicU64::new(0)).collect(),
                injected_messages: AtomicU64::new(0),
                lively: AtomicBool::new(false),
                heartbeats_enabled: AtomicBool::new(false),
                beats: (0..n).map(|_| AtomicU64::new(0)).collect(),
                deaths: Mutex::new(HashMap::new()),
                aborted: AtomicBool::new(false),
                abort_reason: Mutex::new(None),
                partitions: Mutex::new(Vec::new()),
                held: Mutex::new(Vec::new()),
                chaos: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                stats: FabricStats::new(),
            }),
        };
        CAPTURE.with(|slot| {
            if let Some(capture) = slot.borrow_mut().take() {
                *capture.lock() = Some(fabric.clone());
            }
        });
        fabric
    }

    /// Arm a one-shot capture on the *current thread*: the next [`Fabric::new`] call
    /// made from this thread (typically inside an MPI implementation factory's
    /// synchronous `launch`) clones the new fabric into the returned handle.
    pub fn capture_next() -> FabricCapture {
        let slot = Arc::new(Mutex::new(None));
        CAPTURE.with(|cell| *cell.borrow_mut() = Some(Arc::clone(&slot)));
        FabricCapture { slot }
    }

    /// Number of ranks connected to this fabric.
    pub fn world_size(&self) -> usize {
        self.inner.world_size
    }

    /// The per-session hardware nonce (never stable across restarts).
    pub fn session_nonce(&self) -> u64 {
        self.inner.session_nonce
    }

    /// Obtain the endpoint for `world_rank`.
    pub fn endpoint(&self, world_rank: Rank) -> MpiResult<Endpoint> {
        if world_rank < 0 || world_rank as usize >= self.inner.world_size {
            return Err(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            });
        }
        Ok(Endpoint {
            inner: Arc::clone(&self.inner),
            world_rank,
        })
    }

    /// Allocate a fresh communication context (one per communicator created by the
    /// implementation using this fabric).
    pub fn allocate_context(&self) -> ContextId {
        self.inner.next_context.fetch_add(1, Ordering::Relaxed)
    }

    /// Total number of point-to-point messages currently in flight (injected but not
    /// yet received — chaos-held messages included), across all ranks. After a correct
    /// MANA drain this is zero.
    pub fn pending_messages(&self) -> usize {
        let queued: usize = self
            .inner
            .slots
            .iter()
            .map(|s| s.mailbox.lock().pending())
            .sum();
        queued + self.inner.held.lock().len()
    }

    /// Number of in-flight messages addressed to one rank (chaos-held included).
    pub fn pending_for_rank(&self, world_rank: Rank) -> MpiResult<usize> {
        let slot =
            self.inner
                .slots
                .get(world_rank.max(0) as usize)
                .ok_or(MpiError::InvalidRank {
                    rank: world_rank,
                    size: self.inner.world_size,
                })?;
        let held = self
            .inner
            .held
            .lock()
            .iter()
            .filter(|h| h.envelope.dest_world == world_rank)
            .count();
        Ok(slot.mailbox.lock().pending() + held)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Total number of envelopes that arrived out of order at some mailbox and were
    /// re-sequenced before becoming visible — a direct measure of how much network
    /// misbehaviour the transport masked.
    pub fn resequenced_messages(&self) -> u64 {
        self.inner
            .slots
            .iter()
            .map(|s| s.mailbox.lock().resequenced)
            .sum()
    }

    // ------------------------------------------------------------------
    // Chaos lane
    // ------------------------------------------------------------------

    /// Install a chaos plan. Subsequent fabric operations consult it; each fault fires
    /// at most once. Installing a plan makes the fabric lively (sliced waits).
    pub fn install_chaos(&self, plan: ChaosPlan) {
        let fired = vec![false; plan.faults.len()];
        *self.inner.chaos.lock() = Some(ChaosExec { plan, fired });
        self.inner.set_lively();
    }

    /// Plan indices of the faults that have fired so far (empty without a plan).
    pub fn fired_fault_ids(&self) -> Vec<usize> {
        match self.inner.chaos.lock().as_ref() {
            Some(exec) => exec
                .fired
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.then_some(i))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Everything the chaos layer has actually done, in order. Timestamps are
    /// microseconds since fabric creation.
    pub fn chaos_events(&self) -> Vec<ChaosEvent> {
        self.inner.events.lock().clone()
    }

    /// Kill `world_rank` immediately (manual fault injection): its next fabric
    /// operation — and every one after — fails with [`MpiError::RankKilled`], its
    /// heartbeats stop, and messages addressed to it vanish. Peers are *not* notified;
    /// detection is the failure detector's job.
    pub fn kill_rank(&self, world_rank: Rank, cause: &str) {
        self.inner.set_lively();
        self.inner.kill(world_rank, cause, None);
    }

    /// Ranks currently marked dead.
    pub fn dead_ranks(&self) -> Vec<Rank> {
        let mut ranks: Vec<Rank> = self.inner.deaths.lock().keys().copied().collect();
        ranks.sort_unstable();
        ranks
    }

    /// Whether `world_rank` is marked dead.
    pub fn is_dead(&self, world_rank: Rank) -> bool {
        self.inner.deaths.lock().contains_key(&world_rank)
    }

    /// Cause label recorded when `world_rank` was killed ("crash",
    /// "crash-in-collective", "node-failure", or a manual-injection label).
    pub fn death_cause(&self, world_rank: Rank) -> Option<String> {
        self.inner
            .deaths
            .lock()
            .get(&world_rank)
            .map(|r| r.cause.clone())
    }

    /// The instant `world_rank`'s failure began, if it is currently failed: its death
    /// instant, or the start of the partition isolating it. This is the ground truth a
    /// detector's latency is measured against.
    pub fn failure_instant(&self, world_rank: Rank) -> Option<Instant> {
        if let Some(record) = self.inner.deaths.lock().get(&world_rank) {
            return Some(record.at);
        }
        self.inner
            .partitions
            .lock()
            .iter()
            .filter(|p| p.isolated.contains(&world_rank))
            .map(|p| p.started)
            .min()
    }

    /// Start a network partition isolating `isolated` from every other rank. Cross-cut
    /// messages are buffered until the partition heals (after `heal_after`, if given;
    /// never, otherwise), collective entries from isolated ranks stall, and isolated
    /// ranks' heartbeats are suppressed. A heal faster than the failure detector's
    /// deadline is therefore fully masked; a slower one is indistinguishable from
    /// death — exactly as in a real cluster.
    pub fn inject_partition(&self, isolated: &[Rank], heal_after: Option<Duration>) {
        self.inner.set_lively();
        self.inner.start_partition(
            isolated.iter().copied().collect(),
            heal_after.map(|d| crate::clock::now() + d),
            None,
        );
    }

    /// Whether any partition is currently active.
    pub fn partitioned(&self) -> bool {
        !self.inner.partitions.lock().is_empty()
    }

    // ------------------------------------------------------------------
    // Heartbeat lane
    // ------------------------------------------------------------------

    /// Enable the heartbeat lane: every endpoint operation (and every slice of a
    /// blocking wait) from a live, connected rank records a beat. All ranks start
    /// with a fresh beat so ages are meaningful immediately.
    pub fn enable_heartbeats(&self) {
        let now = self.inner.micros();
        for beat in &self.inner.beats {
            beat.store(now, Ordering::Relaxed);
        }
        self.inner.heartbeats_enabled.store(true, Ordering::Release);
        self.inner.set_lively();
    }

    /// Age of each rank's most recent heartbeat. Meaningless (all zero-ish) before
    /// [`Fabric::enable_heartbeats`].
    pub fn heartbeat_ages(&self) -> Vec<Duration> {
        let now = self.inner.micros();
        self.inner
            .beats
            .iter()
            .map(|b| Duration::from_micros(now.saturating_sub(b.load(Ordering::Relaxed))))
            .collect()
    }

    /// Record a heartbeat for `world_rank` from outside the endpoint op stream (e.g.
    /// from a compute-only phase that performs no MPI calls). Suppressed for dead or
    /// isolated ranks, like every other beat.
    pub fn beat(&self, world_rank: Rank) {
        self.inner.beat(world_rank);
    }

    // ------------------------------------------------------------------
    // Abort lane
    // ------------------------------------------------------------------

    /// Abort the job fabric-wide: every rank's next (or currently blocked) fabric
    /// operation fails with [`MpiError::JobAborted`]. Idempotent; the first reason
    /// wins.
    pub fn abort(&self, reason: &str) {
        {
            let mut slot = self.inner.abort_reason.lock();
            if slot.is_none() {
                *slot = Some(reason.to_string());
            }
        }
        self.inner.aborted.store(true, Ordering::Release);
        self.inner.set_lively();
    }

    /// Whether the fabric has been aborted.
    pub fn aborted(&self) -> bool {
        self.inner.aborted.load(Ordering::Acquire)
    }

    /// The abort reason, if aborted.
    pub fn abort_reason(&self) -> Option<String> {
        self.inner.abort_reason.lock().clone()
    }
}

impl FabricInner {
    fn micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn event(&self, fault_id: Option<usize>, action: ChaosAction) {
        self.events.lock().push(ChaosEvent {
            at_micros: self.micros(),
            fault_id,
            action,
        });
    }

    fn is_dead(&self, rank: Rank) -> bool {
        self.deaths.lock().contains_key(&rank)
    }

    fn is_isolated(&self, rank: Rank) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|p| p.isolated.contains(&rank))
    }

    /// Whether an active partition separates `a` from `b` (exactly one of the two is
    /// on the isolated side of some cut).
    fn cut(&self, a: Rank, b: Rank) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|p| p.isolated.contains(&a) != p.isolated.contains(&b))
    }

    fn beat(&self, rank: Rank) {
        if !self.heartbeats_enabled.load(Ordering::Acquire) {
            return;
        }
        if self.is_dead(rank) || self.is_isolated(rank) {
            return;
        }
        if let Some(slot) = self.beats.get(rank.max(0) as usize) {
            slot.store(self.micros(), Ordering::Relaxed);
        }
    }

    fn kill(&self, rank: Rank, cause: &str, fault_id: Option<usize>) {
        {
            let mut deaths = self.deaths.lock();
            if deaths.contains_key(&rank) {
                return;
            }
            deaths.insert(
                rank,
                DeathRecord {
                    at: crate::clock::now(),
                    cause: cause.to_string(),
                },
            );
        }
        self.event(
            fault_id,
            ChaosAction::RankKilled {
                rank,
                cause: cause.to_string(),
            },
        );
        // Wake the victim wherever it is blocked so it notices its own death.
        if let Some(slot) = self.slots.get(rank.max(0) as usize) {
            slot.arrival.notify_all();
        }
        self.collective_done.notify_all();
        self.registration_commit.notify_all();
    }

    /// Flip the fabric into lively (sliced-wait) mode and wake every parked waiter.
    /// The wake matters: a rank that blocked *before* the transition is parked on a
    /// full [`BLOCKING_TIMEOUT`] condvar slice — without a notify it would sit there
    /// beat-less (and blind to chaos) until some unrelated traffic woke it, and a
    /// failure detector would declare a perfectly healthy rank dead.
    fn set_lively(&self) {
        if self.lively.swap(true, Ordering::Release) {
            return;
        }
        for slot in &self.slots {
            slot.arrival.notify_all();
        }
        self.collective_done.notify_all();
        self.registration_commit.notify_all();
    }

    fn start_partition(
        &self,
        isolated: HashSet<Rank>,
        heals_at: Option<Instant>,
        fault_id: Option<usize>,
    ) {
        let mut ranks: Vec<Rank> = isolated.iter().copied().collect();
        ranks.sort_unstable();
        self.event(fault_id, ChaosAction::PartitionStarted { isolated: ranks });
        self.partitions.lock().push(ActivePartition {
            fault_id,
            isolated,
            started: crate::clock::now(),
            heals_at,
        });
    }

    /// Deposit an envelope into its destination mailbox (dropping it silently if the
    /// destination is dead or closed) and wake the destination.
    fn deliver(&self, envelope: Envelope) {
        let dest = envelope.dest_world;
        if self.is_dead(dest) {
            return;
        }
        let Some(slot) = self.slots.get(dest.max(0) as usize) else {
            return;
        };
        if !slot.open.load(Ordering::Acquire) {
            return;
        }
        {
            let mut mailbox = slot.mailbox.lock();
            mailbox.deposit(envelope);
        }
        slot.arrival.notify_all();
    }

    /// Advance chaos time: heal due partitions, fire due global-op-triggered faults,
    /// and release held messages whose release condition is now met. Must be called
    /// with **no mailbox or collective-table lock held**.
    fn pump(&self) {
        let now = crate::clock::now();
        // Heal partitions whose deadline has passed.
        let healed: Vec<(Option<usize>, Vec<Rank>)> = {
            let mut partitions = self.partitions.lock();
            let mut healed = Vec::new();
            partitions.retain(|p| match p.heals_at {
                Some(at) if now >= at => {
                    let mut ranks: Vec<Rank> = p.isolated.iter().copied().collect();
                    ranks.sort_unstable();
                    healed.push((p.fault_id, ranks));
                    false
                }
                _ => true,
            });
            healed
        };
        for (fault_id, isolated) in healed {
            self.event(fault_id, ChaosAction::PartitionHealed { isolated });
            // A healed rank resumes beating on its next op; give it a fresh beat now
            // so a just-healed masked partition does not race the detector.
            // (Suppression has ended, so this goes through.)
        }
        // Fire global-op-count faults: partitions and node failures.
        let global = self.global_ops.load(Ordering::Relaxed);
        let mut to_start: Vec<(usize, HashSet<Rank>, Option<Duration>)> = Vec::new();
        let mut to_kill: Vec<(usize, Vec<Rank>)> = Vec::new();
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    match fault {
                        FaultKind::Partition {
                            at_op,
                            isolated,
                            heal_ms,
                        } if *at_op <= global => {
                            exec.fired[id] = true;
                            to_start.push((
                                id,
                                isolated.iter().copied().collect(),
                                heal_ms.map(Duration::from_millis),
                            ));
                        }
                        FaultKind::KillNode { ranks, at_op } if *at_op <= global => {
                            exec.fired[id] = true;
                            to_kill.push((id, ranks.clone()));
                        }
                        _ => {}
                    }
                }
            }
        }
        for (id, isolated, heal) in to_start {
            self.start_partition(isolated, heal.map(|d| now + d), Some(id));
        }
        for (id, ranks) in to_kill {
            for rank in ranks {
                self.kill(rank, "node-failure", Some(id));
            }
        }
        // Release held messages whose condition is met.
        let injected = self.injected_messages.load(Ordering::Relaxed);
        let due: Vec<Envelope> = {
            let mut held = self.held.lock();
            let mut due = Vec::new();
            held.retain_mut(|h| {
                let ready = match h.release {
                    Release::At(at) => now >= at,
                    Release::AfterInjected(n, backstop) => injected >= n || now >= backstop,
                    Release::WhenConnected => {
                        !self.cut(h.envelope.source_world, h.envelope.dest_world)
                    }
                };
                if ready {
                    due.push(std::mem::replace(
                        &mut h.envelope,
                        Envelope {
                            source_world: 0,
                            source_comm_rank: 0,
                            dest_world: 0,
                            context: 0,
                            tag: 0,
                            seq: 0,
                            pair_seq: 0,
                            payload: PayloadBuf::new(),
                        },
                    ));
                    false
                } else {
                    true
                }
            });
            due
        };
        for envelope in due {
            self.event(
                None,
                ChaosAction::MessageReleased {
                    source: envelope.source_world,
                    dest: envelope.dest_world,
                },
            );
            // A release is a redelivery of the originally injected buffer — the
            // retransmit/reorder lane reshares, it never re-copies.
            self.stats.record_payload_share(envelope.payload.len());
            self.deliver(envelope);
        }
    }

    /// Per-operation hook: count the op, fire this rank's own crash triggers, advance
    /// chaos time, beat, and fail if the rank is dead or the job aborted. Must be
    /// called with no fabric lock held.
    fn tick_op(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        let ops = self.rank_ops[rank.max(0) as usize].fetch_add(1, Ordering::Relaxed) + 1;
        self.global_ops.fetch_add(1, Ordering::Relaxed);
        let mut crash: Option<usize> = None;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    if let FaultKind::CrashRank {
                        rank: victim,
                        at_rank_op,
                    } = fault
                    {
                        if *victim == rank && *at_rank_op <= ops {
                            exec.fired[id] = true;
                            crash = Some(id);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(id) = crash {
            self.kill(rank, "crash", Some(id));
        }
        self.pump();
        self.beat(rank);
        self.check_alive(rank)
    }

    /// Wait-slice hook: advance chaos time and beat without counting an operation.
    fn tick_wait(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        self.pump();
        self.beat(rank);
        self.check_alive(rank)
    }

    fn check_alive(&self, rank: Rank) -> MpiResult<()> {
        if self.is_dead(rank) {
            return Err(MpiError::RankKilled { rank });
        }
        if self.aborted.load(Ordering::Acquire) {
            let reason = self
                .abort_reason
                .lock()
                .clone()
                .unwrap_or_else(|| "unspecified".into());
            return Err(MpiError::JobAborted(reason));
        }
        Ok(())
    }

    /// Collective-entry hook: count the entry and fire this rank's mid-collective
    /// crash triggers (the victim dies *after* registering intent, *before*
    /// contributing — the nastiest possible moment).
    fn tick_collective_entry(&self, rank: Rank) -> MpiResult<()> {
        if !self.lively.load(Ordering::Acquire) {
            return Ok(());
        }
        let entries =
            self.collective_entries[rank.max(0) as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let mut crash: Option<usize> = None;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    if let FaultKind::CrashInCollective {
                        rank: victim,
                        at_entry,
                    } = fault
                    {
                        if *victim == rank && *at_entry <= entries {
                            exec.fired[id] = true;
                            crash = Some(id);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(id) = crash {
            self.kill(rank, "crash-in-collective", Some(id));
        }
        self.check_alive(rank)
    }

    /// Route a freshly injected envelope through the chaos layer: drop it if the
    /// destination is dead, hold it if a partition cuts the pair or a message fault
    /// matches its injection index, otherwise deliver immediately.
    fn route(&self, envelope: Envelope) {
        if self.is_dead(envelope.dest_world) {
            return;
        }
        if self.cut(envelope.source_world, envelope.dest_world) {
            self.event(
                None,
                ChaosAction::MessageHeld {
                    source: envelope.source_world,
                    dest: envelope.dest_world,
                    category: "partition".into(),
                },
            );
            self.held.lock().push(HeldEnvelope {
                envelope,
                release: Release::WhenConnected,
            });
            return;
        }
        let idx = self.injected_messages.fetch_add(1, Ordering::Relaxed);
        let mut verdict: Option<(usize, Release, &'static str)> = None;
        {
            let mut chaos = self.chaos.lock();
            if let Some(exec) = chaos.as_mut() {
                for (id, fault) in exec.plan.faults.iter().enumerate() {
                    if exec.fired[id] {
                        continue;
                    }
                    match fault {
                        FaultKind::DelayMessage { nth, hold_ms } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some((
                                id,
                                Release::At(crate::clock::now() + Duration::from_millis(*hold_ms)),
                                "delay",
                            ));
                        }
                        FaultKind::DropMessage { nth, retransmit_ms } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some((
                                id,
                                Release::At(
                                    crate::clock::now() + Duration::from_millis(*retransmit_ms),
                                ),
                                "loss",
                            ));
                        }
                        FaultKind::ReorderMessage { nth, overtaken_by } if *nth == idx => {
                            exec.fired[id] = true;
                            verdict = Some((
                                id,
                                Release::AfterInjected(
                                    idx + overtaken_by,
                                    crate::clock::now() + REORDER_BACKSTOP,
                                ),
                                "reorder",
                            ));
                        }
                        _ => {}
                    }
                    if verdict.is_some() {
                        break;
                    }
                }
            }
        }
        match verdict {
            Some((id, release, category)) => {
                let action = if category == "loss" {
                    ChaosAction::MessageDropped {
                        source: envelope.source_world,
                        dest: envelope.dest_world,
                    }
                } else {
                    ChaosAction::MessageHeld {
                        source: envelope.source_world,
                        dest: envelope.dest_world,
                        category: category.into(),
                    }
                };
                self.event(Some(id), action);
                self.held.lock().push(HeldEnvelope { envelope, release });
            }
            None => self.deliver(envelope),
        }
    }
}

/// One rank's attachment to the fabric. All methods are callable from that rank's
/// thread; the endpoint is `Send` so the owning lower half can live inside a rank
/// thread.
pub struct Endpoint {
    inner: Arc<FabricInner>,
    world_rank: Rank,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("world_rank", &self.world_rank)
            .finish()
    }
}

impl Endpoint {
    /// World rank of this endpoint.
    pub fn world_rank(&self) -> Rank {
        self.world_rank
    }

    /// Number of ranks on the fabric.
    pub fn world_size(&self) -> usize {
        self.inner.world_size
    }

    /// The per-session hardware nonce.
    pub fn session_nonce(&self) -> u64 {
        self.inner.session_nonce
    }

    /// Allocate a fresh communication context.
    pub fn allocate_context(&self) -> ContextId {
        self.inner.next_context.fetch_add(1, Ordering::Relaxed)
    }

    fn slot(&self, world_rank: Rank) -> MpiResult<&RankSlot> {
        if world_rank < 0 {
            return Err(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            });
        }
        self.inner
            .slots
            .get(world_rank as usize)
            .ok_or(MpiError::InvalidRank {
                rank: world_rank,
                size: self.inner.world_size,
            })
    }

    /// The wait-slice to use for blocking operations: short when the fabric is lively
    /// (so blocked ranks keep beating and noticing deaths), the full timeout
    /// otherwise.
    fn wait_slice(&self) -> Duration {
        if self.inner.lively.load(Ordering::Acquire) {
            WAIT_SLICE
        } else {
            BLOCKING_TIMEOUT
        }
    }

    /// Inject a point-to-point message (eager protocol: the payload is buffered at the
    /// destination immediately, whether or not a receive is posted). Under chaos the
    /// message may be held, dropped-then-retransmitted, or reordered — all invisibly
    /// to the receiver, thanks to the per-pair sequence assigned here at injection.
    ///
    /// The payload is taken by value as a [`PayloadBuf`] (a `Vec<u8>` converts at no
    /// cost): injection is a pointer hand-off, and every downstream hop — mailbox
    /// deposit, re-sequencing park, chaos hold and retransmit — shares the same
    /// allocation.
    pub fn send(
        &self,
        dest_world: Rank,
        source_comm_rank: Rank,
        context: ContextId,
        tag: i32,
        payload: impl Into<PayloadBuf>,
    ) -> MpiResult<()> {
        self.inner.tick_op(self.world_rank)?;
        let payload = payload.into();
        let dest = self.slot(dest_world)?;
        if !dest.open.load(Ordering::Acquire) {
            return Err(MpiError::PeerUnreachable(dest_world));
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let pair_seq = self.inner.pair_seqs
            [self.world_rank as usize * self.inner.world_size + dest_world as usize]
            .fetch_add(1, Ordering::Relaxed);
        self.inner.stats.record_send(payload.len());
        // The one materialization per message: the caller built this buffer. Every
        // later hop (mailbox, park, hold, retransmit) must show up as shared bytes.
        self.inner.stats.record_payload_copy(payload.len());
        let envelope = Envelope {
            source_world: self.world_rank,
            source_comm_rank,
            dest_world,
            context,
            tag,
            seq,
            pair_seq,
            payload,
        };
        self.inner.route(envelope);
        Ok(())
    }

    /// Non-blocking receive: take the earliest matching message if one is present.
    pub fn try_recv(&self, spec: &MatchSpec) -> MpiResult<Option<Envelope>> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let mut mailbox = slot.mailbox.lock();
        let taken = mailbox.take(spec);
        if taken.is_some() {
            self.inner.stats.record_recv();
        }
        Ok(taken)
    }

    /// Blocking receive: wait until a matching message arrives, then take it. While
    /// blocked, the rank keeps heartbeating in wait slices and is woken early by its
    /// own death or a job abort.
    pub fn recv_blocking(&self, spec: &MatchSpec) -> MpiResult<Envelope> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let deadline = crate::clock::now() + BLOCKING_TIMEOUT;
        loop {
            {
                let mut mailbox = slot.mailbox.lock();
                if let Some(envelope) = mailbox.take(spec) {
                    self.inner.stats.record_recv();
                    return Ok(envelope);
                }
                if !slot.open.load(Ordering::Acquire) {
                    return Err(MpiError::PeerUnreachable(self.world_rank));
                }
                slot.arrival.wait_for(&mut mailbox, self.wait_slice());
            }
            self.inner.tick_wait(self.world_rank)?;
            if crate::clock::now() >= deadline {
                return Err(MpiError::Internal(format!(
                    "rank {} blocked in receive for more than {:?} (context {}, source {:?}, tag {:?})",
                    self.world_rank, BLOCKING_TIMEOUT, spec.context, spec.source_comm_rank, spec.tag
                )));
            }
        }
    }

    /// Probe for a matching message without consuming it (`MPI_Iprobe`).
    pub fn probe(&self, spec: &MatchSpec) -> MpiResult<Option<Status>> {
        self.inner.tick_op(self.world_rank)?;
        let slot = self.slot(self.world_rank)?;
        let mailbox = slot.mailbox.lock();
        Ok(mailbox
            .probe(spec)
            .map(|e| Status::new(e.source_comm_rank, e.tag, e.payload.len())))
    }

    /// Number of messages currently queued for this rank (any context). Also beats,
    /// since drain loops poll this while otherwise quiet.
    pub fn pending_incoming(&self) -> usize {
        let _ = self.inner.tick_wait(self.world_rank);
        self.slot(self.world_rank)
            .map(|s| s.mailbox.lock().pending())
            .unwrap_or(0)
    }

    /// Number of messages currently queued for this rank on one context.
    pub fn pending_incoming_for_context(&self, context: ContextId) -> usize {
        let _ = self.inner.tick_wait(self.world_rank);
        self.slot(self.world_rank)
            .map(|s| s.mailbox.lock().pending_for_context(context))
            .unwrap_or(0)
    }

    /// Mark this endpoint as closed: subsequent sends to it fail and blocked receives
    /// are woken with an error. Used for failure-injection tests.
    pub fn close(&self) {
        if let Ok(slot) = self.slot(self.world_rank) {
            slot.open.store(false, Ordering::Release);
            slot.arrival.notify_all();
        }
    }

    /// Whether this endpoint is still open.
    pub fn is_open(&self) -> bool {
        self.slot(self.world_rank)
            .map(|s| s.open.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Synchronous all-to-all exchange used as the building block for every collective.
    ///
    /// All `comm_size` members of a communicator call this with the same `(context,
    /// seq)` key and their own `my_index` (their rank within the communicator). Every
    /// caller blocks until all contributions have arrived and then receives the full
    /// ordered vector of contributions. The `(context, seq)` key is what isolates
    /// concurrent collectives on different communicators — and why collective sequence
    /// numbers restart cleanly after a MANA restart (the new lower half starts a new
    /// context space on a new fabric).
    ///
    /// Under chaos: a partition-isolated rank stalls here (before contributing) until
    /// the partition heals, a mid-collective crash trigger kills the rank after its
    /// entry is counted but before its contribution lands, and a job abort wakes every
    /// blocked member with [`MpiError::JobAborted`].
    pub fn collective_exchange(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
        comm_size: usize,
        contribution: impl Into<PayloadBuf>,
    ) -> MpiResult<Vec<PayloadBuf>> {
        let contribution = contribution.into();
        if comm_size == 0 || my_index >= comm_size {
            return Err(MpiError::Internal(format!(
                "collective exchange with index {my_index} out of {comm_size}"
            )));
        }
        self.inner.tick_op(self.world_rank)?;
        self.inner.tick_collective_entry(self.world_rank)?;
        // A partition-isolated rank cannot reach the exchange: stall until heal (or
        // death/abort), exactly like a real collective over a cut network.
        let stall_deadline = crate::clock::now() + BLOCKING_TIMEOUT;
        while self.inner.is_isolated(self.world_rank) {
            crate::clock::sleep(WAIT_SLICE);
            self.inner.tick_wait(self.world_rank)?;
            if crate::clock::now() >= stall_deadline {
                return Err(MpiError::Internal(format!(
                    "rank {} isolated by a partition for more than {:?}",
                    self.world_rank, BLOCKING_TIMEOUT
                )));
            }
        }
        self.inner.stats.record_collective(contribution.len());
        self.inner.stats.record_payload_copy(contribution.len());
        let key = (context, seq);
        let deadline = crate::clock::now() + BLOCKING_TIMEOUT;
        let mut table = self.inner.collectives.lock();
        {
            let slot = table.entry(key).or_insert_with(|| CollectiveSlot {
                expected: comm_size,
                contributions: HashMap::with_capacity(comm_size),
                result: None,
                readers_remaining: comm_size,
            });
            if slot.expected != comm_size {
                return Err(MpiError::CollectiveMismatch(format!(
                    "ranks disagree about communicator size: {} vs {}",
                    slot.expected, comm_size
                )));
            }
            if slot.contributions.insert(my_index, contribution).is_some() {
                return Err(MpiError::CollectiveMismatch(format!(
                    "rank index {my_index} contributed twice to collective {key:?}"
                )));
            }
            if slot.contributions.len() == slot.expected {
                let mut ordered = Vec::with_capacity(slot.expected);
                for i in 0..slot.expected {
                    // len == expected and double contributions are rejected above, so
                    // every index is present — but a bookkeeping bug here must fail
                    // the collective, not panic a rank mid-round.
                    ordered.push(slot.contributions.remove(&i).ok_or_else(|| {
                        MpiError::Internal(format!(
                            "collective {key:?}: contribution from rank index {i} missing \
                             at completion"
                        ))
                    })?);
                }
                slot.result = Some(Arc::new(ordered));
                self.inner.collective_done.notify_all();
            }
        }
        // Wait for completion, then pick up the shared result.
        loop {
            let finished = {
                let slot = table.get(&key).ok_or_else(|| {
                    MpiError::Internal("collective slot vanished before completion".into())
                })?;
                slot.result.clone()
            };
            if let Some(result) = finished {
                let remove = {
                    // The slot outlives its readers by construction; if it vanished
                    // anyway, surface a typed fault instead of killing the rank.
                    let slot = table.get_mut(&key).ok_or_else(|| {
                        MpiError::Internal(format!(
                            "collective slot {key:?} vanished while readers remained"
                        ))
                    })?;
                    slot.readers_remaining -= 1;
                    slot.readers_remaining == 0
                };
                if remove {
                    table.remove(&key);
                    // The round is over: clear any registration-board entry for the
                    // same key (every registrant necessarily contributed).
                    self.inner.registrations.lock().remove(&key);
                }
                // Each reader's copy of the fan-out is refcount bumps of the shared
                // contribution buffers, never a byte copy.
                for buf in result.iter() {
                    self.inner.stats.record_payload_share(buf.len());
                }
                return Ok(result.as_ref().clone());
            }
            let slice = self.wait_slice();
            let timed_out = self
                .inner
                .collective_done
                .wait_for(&mut table, slice)
                .timed_out();
            if self.inner.lively.load(Ordering::Acquire) {
                // Release the table while ticking: the pump may need mailboxes, and
                // beats/death checks must not be starved by a long collective wait.
                drop(table);
                self.inner.tick_wait(self.world_rank)?;
                if crate::clock::now() >= deadline {
                    return Err(MpiError::Internal(format!(
                        "rank {} blocked in collective (context {context}, seq {seq}) for more than {:?}",
                        self.world_rank, BLOCKING_TIMEOUT
                    )));
                }
                table = self.inner.collectives.lock();
            } else if timed_out {
                return Err(MpiError::Internal(format!(
                    "rank {} blocked in collective (context {context}, seq {seq}) for more than {:?}",
                    self.world_rank, BLOCKING_TIMEOUT
                )));
            }
        }
    }

    // ------------------------------------------------------------------
    // Two-phase collective registration ("trivial barrier") board
    // ------------------------------------------------------------------

    /// Announce intent to enter the collective `(context, seq)`. Idempotent: a member
    /// re-registering without having withdrawn is a no-op and keeps its original
    /// registration time. Once the last member registers, the round *commits*,
    /// withdrawals start failing, and every member parked in
    /// [`Endpoint::collective_registration_committed`] wakes.
    pub fn collective_register(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
        comm_size: usize,
    ) -> MpiResult<()> {
        if comm_size == 0 || my_index >= comm_size {
            return Err(MpiError::Internal(format!(
                "collective registration with index {my_index} out of {comm_size}"
            )));
        }
        self.inner.tick_op(self.world_rank)?;
        let mut board = self.inner.registrations.lock();
        let slot = board
            .entry((context, seq))
            .or_insert_with(|| RegistrationSlot {
                expected: comm_size,
                registered: HashMap::with_capacity(comm_size),
                committed: false,
            });
        if slot.expected != comm_size {
            return Err(MpiError::CollectiveMismatch(format!(
                "ranks disagree about communicator size in registration: {} vs {}",
                slot.expected, comm_size
            )));
        }
        slot.registered
            .entry(my_index)
            .or_insert_with(crate::clock::now);
        if !slot.committed && slot.registered.len() == slot.expected {
            slot.committed = true;
            self.inner.registration_commit.notify_all();
        }
        Ok(())
    }

    /// Wait up to `wait` for the registration round `(context, seq)` to commit (every
    /// member registered); returns whether it did. The wait parks on the board and is
    /// woken by the registration that commits the round, so the first member in
    /// returns as soon as the last one arrives. A zero `wait` is a plain check.
    ///
    /// The caller must hold a live registration of its own as `my_index`. Errors if
    /// this rank dies or the job is aborted while waiting (a parked rank must observe
    /// the failure lane), or once this rank's own registration is older than the
    /// fabric's blocking timeout without the round committing — a peer likely died
    /// before registering, and the job errors out instead of hanging.
    pub fn collective_registration_committed(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
        wait: Duration,
    ) -> MpiResult<bool> {
        let key = (context, seq);
        // Clamping loses nothing: the stall bound below ends every wait sooner.
        let deadline = crate::clock::now() + wait.min(BLOCKING_TIMEOUT);
        loop {
            // Beat, pump chaos and notice death or abort on every slice.
            self.inner.tick_wait(self.world_rank)?;
            let mut board = self.inner.registrations.lock();
            let registered_at = match board.get(&key) {
                Some(slot) if slot.committed => return Ok(true),
                Some(slot) => slot.registered.get(&my_index).copied(),
                None => None,
            };
            let Some(registered_at) = registered_at else {
                return Err(MpiError::Internal(format!(
                    "rank {} waited on collective registration round {key:?} without \
                     holding a registration in it",
                    self.world_rank
                )));
            };
            let stall_at = registered_at + BLOCKING_TIMEOUT;
            let now = crate::clock::now();
            if now >= stall_at {
                return Err(MpiError::Internal(format!(
                    "rank {} waited more than {BLOCKING_TIMEOUT:?} for a collective \
                     registration round to commit — a peer likely died before \
                     registering",
                    self.world_rank
                )));
            }
            if now >= deadline {
                return Ok(false);
            }
            let slice = (deadline.min(stall_at) - now).min(self.wait_slice());
            self.inner.registration_commit.wait_for(&mut board, slice);
        }
    }

    /// Atomically withdraw `my_index`'s registration from round `(context, seq)`.
    /// Returns `true` if the withdrawal succeeded (the rank is provably *outside* the
    /// collective and may safely checkpoint), `false` if the round has already
    /// committed — in which case the rank is obliged to enter the real collective
    /// before doing anything else. This check-and-remove is one critical section, so
    /// exactly one of "withdrawn" / "committed" holds for every member.
    pub fn collective_withdraw(
        &self,
        context: ContextId,
        seq: u64,
        my_index: usize,
    ) -> MpiResult<bool> {
        self.inner.tick_op(self.world_rank)?;
        let mut board = self.inner.registrations.lock();
        let Some(slot) = board.get_mut(&(context, seq)) else {
            // Nothing registered under this key: trivially out.
            return Ok(true);
        };
        if slot.committed {
            return Ok(false);
        }
        slot.registered.remove(&my_index);
        if slot.registered.is_empty() {
            board.remove(&(context, seq));
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosMenu;
    use std::thread;

    fn fabric(n: usize) -> Fabric {
        Fabric::new(FabricConfig::new(n, 0xdead_beef))
    }

    #[test]
    fn send_then_recv_same_thread() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 1, 7, vec![1, 2, 3]).unwrap();
        assert_eq!(f.pending_messages(), 1);
        let spec = MatchSpec::from_mpi_args(1, 0, 7);
        let env = e1.recv_blocking(&spec).unwrap();
        assert_eq!(env.payload, vec![1, 2, 3]);
        assert_eq!(env.source_comm_rank, 0);
        assert_eq!(f.pending_messages(), 0);
        assert_eq!(f.stats().messages_sent, 1);
        assert_eq!(f.stats().messages_received, 1);
    }

    #[test]
    fn blocking_recv_waits_for_sender() {
        let f = fabric(2);
        let e1 = f.endpoint(1).unwrap();
        let f2 = f.clone();
        let sender = thread::spawn(move || {
            let e0 = f2.endpoint(0).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            e0.send(1, 0, 1, 3, vec![9]).unwrap();
        });
        let env = e1
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 3))
            .unwrap();
        assert_eq!(env.payload, vec![9]);
        sender.join().unwrap();
    }

    #[test]
    fn probe_and_try_recv() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let spec = MatchSpec::from_mpi_args(1, 0, 5);
        assert!(e1.probe(&spec).unwrap().is_none());
        assert!(e1.try_recv(&spec).unwrap().is_none());
        e0.send(1, 0, 1, 5, vec![0; 16]).unwrap();
        let st = e1.probe(&spec).unwrap().unwrap();
        assert_eq!(st.count_bytes, 16);
        assert_eq!(e1.pending_incoming(), 1);
        assert!(e1.try_recv(&spec).unwrap().is_some());
        assert_eq!(e1.pending_incoming(), 0);
    }

    #[test]
    fn contexts_isolate_traffic() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 100, 0, vec![1]).unwrap();
        // A receive on context 200 must not match the message on context 100.
        assert!(e1
            .try_recv(&MatchSpec::from_mpi_args(200, 0, 0))
            .unwrap()
            .is_none());
        assert_eq!(e1.pending_incoming_for_context(100), 1);
        assert_eq!(e1.pending_incoming_for_context(200), 0);
    }

    #[test]
    fn closed_endpoint_rejects_sends() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        assert!(e1.is_open());
        e1.close();
        assert!(!e1.is_open());
        assert_eq!(
            e0.send(1, 0, 1, 0, vec![1]),
            Err(MpiError::PeerUnreachable(1))
        );
    }

    #[test]
    fn collective_exchange_gathers_all_contributions() {
        let n = 4;
        let f = fabric(n);
        let mut handles = vec![];
        for rank in 0..n {
            let f = f.clone();
            handles.push(thread::spawn(move || {
                let ep = f.endpoint(rank as Rank).unwrap();
                ep.collective_exchange(1, 0, rank, n, vec![rank as u8; 2])
                    .unwrap()
            }));
        }
        for h in handles {
            let result = h.join().unwrap();
            assert_eq!(result.len(), n);
            for (i, contribution) in result.iter().enumerate() {
                assert_eq!(contribution, &vec![i as u8; 2]);
            }
        }
        // The collective slot must have been cleaned up.
        assert_eq!(f.inner.collectives.lock().len(), 0);
        assert_eq!(f.stats().collective_rounds, n as u64);
    }

    #[test]
    fn collective_mismatch_detected() {
        let f = fabric(3);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        // Rank 0 claims the communicator has 1 member and completes alone.
        e0.collective_exchange(7, 0, 0, 1, vec![]).unwrap();
        // Rank 1 then claims it has 2 members under the same key: size mismatch.
        // (The slot was cleaned up after rank 0's solo collective, so re-create it
        //  and then disagree within the same generation.)
        let r = e1.collective_exchange(7, 1, 0, 1, vec![]);
        assert!(r.is_ok());
        let e2 = f.endpoint(2).unwrap();
        let h = {
            let f = f.clone();
            thread::spawn(move || {
                let ep = f.endpoint(0).unwrap();
                ep.collective_exchange(9, 0, 0, 2, vec![])
            })
        };
        // Let rank 0 create the slot with size 2, then rank 2 disagrees with size 3.
        std::thread::sleep(Duration::from_millis(20));
        let err = e2.collective_exchange(9, 0, 1, 3, vec![]).unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        // Unblock rank 0 by providing the second size-2 contribution.
        e1.collective_exchange(9, 0, 1, 2, vec![]).unwrap();
        h.join().unwrap().unwrap();
    }

    #[test]
    fn context_allocation_is_unique() {
        let f = fabric(2);
        let a = f.allocate_context();
        let b = f.allocate_context();
        let c = f.endpoint(0).unwrap().allocate_context();
        assert!(a != b && b != c && a != c);
        assert!(a >= 16, "low context ids are reserved for world/self");
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let f = fabric(2);
        assert!(f.endpoint(2).is_err());
        assert!(f.endpoint(-1).is_err());
        let e0 = f.endpoint(0).unwrap();
        assert!(e0.send(5, 0, 1, 0, vec![]).is_err());
        assert!(f.pending_for_rank(9).is_err());
    }

    #[test]
    fn registration_board_commits_and_blocks_withdrawal() {
        let f = fabric(3);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let e2 = f.endpoint(2).unwrap();
        // Two of three register: not committed, withdrawal allowed (and idempotent
        // re-registration is a no-op).
        e0.collective_register(40, 0, 0, 3).unwrap();
        e0.collective_register(40, 0, 0, 3).unwrap();
        e1.collective_register(40, 0, 1, 3).unwrap();
        assert!(!e0
            .collective_registration_committed(40, 0, 0, Duration::ZERO)
            .unwrap());
        assert!(e1.collective_withdraw(40, 0, 1).unwrap());
        // After the withdrawal the last member cannot commit the round alone.
        e2.collective_register(40, 0, 2, 3).unwrap();
        assert!(!e2
            .collective_registration_committed(40, 0, 2, Duration::ZERO)
            .unwrap());
        // All three in: committed, withdrawal now fails for everyone.
        e1.collective_register(40, 0, 1, 3).unwrap();
        assert!(e0
            .collective_registration_committed(40, 0, 0, Duration::ZERO)
            .unwrap());
        assert!(!e1.collective_withdraw(40, 0, 1).unwrap());
        assert!(!e0.collective_withdraw(40, 0, 0).unwrap());
        // A size disagreement is caught at registration time.
        let err = e0.collective_register(40, 0, 0, 2).unwrap_err();
        assert!(matches!(err, MpiError::CollectiveMismatch(_)));
        // Completing the matching exchange clears the board entry.
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let f = f.clone();
                thread::spawn(move || {
                    let ep = f.endpoint(rank as Rank).unwrap();
                    ep.collective_exchange(40, 0, rank, 3, vec![]).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.inner.registrations.lock().len(), 0);
        // A fully withdrawn round leaves no slot behind.
        e0.collective_register(41, 0, 0, 3).unwrap();
        assert!(e0.collective_withdraw(41, 0, 0).unwrap());
        assert_eq!(f.inner.registrations.lock().len(), 0);
    }

    /// Far longer than any wake-up takes: a parked wait that returns before it has
    /// run out was woken, not timed out.
    const PARKED_BOUND: Duration = Duration::from_secs(30);

    /// Register rank 0 of a two-member round on context 50 and park it in the
    /// registration wait on another thread. Returns once the thread is about to park,
    /// with the wait's result and how long it waited.
    fn park_first_registrant(f: &Fabric) -> thread::JoinHandle<(MpiResult<bool>, Duration)> {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let f = f.clone();
        let handle = thread::spawn(move || {
            let e0 = f.endpoint(0).unwrap();
            e0.collective_register(50, 0, 0, 2).unwrap();
            ready_tx.send(()).unwrap();
            let start = crate::clock::now();
            let result = e0.collective_registration_committed(50, 0, 0, PARKED_BOUND);
            (result, crate::clock::elapsed_since(start))
        });
        ready_rx.recv().unwrap();
        handle
    }

    #[test]
    fn parked_registrant_wakes_when_the_round_commits() {
        let f = fabric(2);
        let parked = park_first_registrant(&f);
        f.endpoint(1)
            .unwrap()
            .collective_register(50, 0, 1, 2)
            .unwrap();
        let (result, waited) = parked.join().unwrap();
        assert_eq!(result, Ok(true));
        assert!(
            waited < PARKED_BOUND,
            "woken by the commit, not by its bound"
        );
    }

    #[test]
    fn parked_registrant_wakes_on_its_own_death() {
        let f = fabric(2);
        let parked = park_first_registrant(&f);
        f.kill_rank(0, "test");
        let (result, waited) = parked.join().unwrap();
        assert_eq!(result, Err(MpiError::RankKilled { rank: 0 }));
        assert!(waited < PARKED_BOUND);
    }

    #[test]
    fn parked_registrant_wakes_on_job_abort() {
        let f = fabric(2);
        let parked = park_first_registrant(&f);
        f.abort("test abort");
        let (result, waited) = parked.join().unwrap();
        assert!(matches!(result, Err(MpiError::JobAborted(_))), "{result:?}");
        assert!(waited < PARKED_BOUND);
    }

    #[test]
    fn registration_time_restarts_only_after_a_withdrawal() {
        let f = fabric(3);
        let e0 = f.endpoint(0).unwrap();
        let registered_at = |f: &Fabric| f.inner.registrations.lock()[&(60, 0)].registered[&0];
        e0.collective_register(60, 0, 0, 3).unwrap();
        let first = registered_at(&f);
        e0.collective_register(60, 0, 0, 3).unwrap();
        assert_eq!(
            registered_at(&f),
            first,
            "an idempotent re-register keeps its time"
        );
        // Rank 1's registration keeps the slot alive across rank 0's withdrawal.
        f.endpoint(1)
            .unwrap()
            .collective_register(60, 0, 1, 3)
            .unwrap();
        assert!(e0.collective_withdraw(60, 0, 0).unwrap());
        while crate::clock::now() == first {
            std::hint::spin_loop();
        }
        e0.collective_register(60, 0, 0, 3).unwrap();
        assert!(
            registered_at(&f) > first,
            "a re-register after withdrawal is fresh"
        );
    }

    #[test]
    fn a_registration_older_than_the_blocking_timeout_stalls_out() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        e0.collective_register(80, 0, 0, 2).unwrap();
        // Backdate rank 0's registration instead of waiting a minute.
        let stale = crate::clock::now() - BLOCKING_TIMEOUT;
        f.inner
            .registrations
            .lock()
            .get_mut(&(80, 0))
            .unwrap()
            .registered
            .insert(0, stale);
        let err = e0
            .collective_registration_committed(80, 0, 0, PARKED_BOUND)
            .unwrap_err();
        assert!(
            matches!(&err, MpiError::Internal(m) if m.contains("peer likely died")),
            "{err:?}"
        );
    }

    #[test]
    fn waiting_without_a_registration_is_an_error() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let err = e0
            .collective_registration_committed(70, 0, 0, PARKED_BOUND)
            .unwrap_err();
        assert!(matches!(err, MpiError::Internal(_)), "{err:?}");
    }

    #[test]
    fn fifo_order_preserved_per_sender() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..10u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..10u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
    }

    // ------------------------------------------------------------------
    // Chaos lane
    // ------------------------------------------------------------------

    #[test]
    fn capture_hook_grabs_next_fabric_on_thread() {
        let capture = Fabric::capture_next();
        assert!(capture.take().is_none());
        let capture = Fabric::capture_next();
        let f = fabric(3);
        let grabbed = capture.take().expect("fabric captured");
        assert_eq!(grabbed.world_size(), 3);
        assert_eq!(grabbed.session_nonce(), f.session_nonce());
        // One-shot: a second fabric is not captured.
        let _g = fabric(2);
        assert!(capture.take().is_none());
    }

    #[test]
    fn delayed_message_is_masked_by_resequencing() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::DelayMessage {
            nth: 0,
            hold_ms: 15,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        // Message 0 is held; message 1 arrives first but is parked behind the gap.
        e0.send(1, 0, 1, 0, vec![0]).unwrap();
        e0.send(1, 0, 1, 0, vec![1]).unwrap();
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        // Both must still arrive in order.
        for i in 0..2u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i]);
        }
        assert_eq!(f.fired_fault_ids(), vec![0]);
        assert!(f.resequenced_messages() >= 1);
        assert!(!f.chaos_events().is_empty());
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::DropMessage {
            nth: 0,
            retransmit_ms: 10,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        e0.send(1, 0, 1, 0, vec![42]).unwrap();
        assert_eq!(f.pending_messages(), 1, "held messages stay in flight");
        let env = e1
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        assert_eq!(env.payload, vec![42]);
        let events = f.chaos_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::MessageDropped { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::MessageReleased { .. })));
    }

    #[test]
    fn reordered_message_is_masked() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::ReorderMessage {
            nth: 0,
            overtaken_by: 2,
        }]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..4u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..4u8 {
            let env = e1.recv_blocking(&spec).unwrap();
            assert_eq!(env.payload, vec![i], "delivery order survives reordering");
        }
    }

    #[test]
    fn killed_rank_fails_ops_and_sends_to_it_vanish() {
        let f = fabric(2);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        f.kill_rank(1, "test");
        assert!(f.is_dead(1));
        assert_eq!(f.dead_ranks(), vec![1]);
        assert!(f.failure_instant(1).is_some());
        // The victim's own ops fail.
        assert_eq!(
            e1.send(0, 1, 1, 0, vec![1]),
            Err(MpiError::RankKilled { rank: 1 })
        );
        // Sends to the dead rank vanish silently (no error back to the sender).
        e0.send(1, 0, 1, 0, vec![1]).unwrap();
        assert_eq!(f.pending_messages(), 0);
    }

    #[test]
    fn crash_trigger_fires_at_op_count() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::CrashRank {
            rank: 0,
            at_rank_op: 3,
        }]));
        let e0 = f.endpoint(0).unwrap();
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        let err = e0.send(1, 0, 1, 0, vec![]).unwrap_err();
        assert_eq!(err, MpiError::RankKilled { rank: 0 });
        assert!(f.is_dead(0));
    }

    #[test]
    fn abort_wakes_blocked_receiver() {
        let f = fabric(2);
        f.enable_heartbeats();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let e1 = f2.endpoint(1).unwrap();
            e1.recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
        });
        std::thread::sleep(Duration::from_millis(30));
        f.abort("detector: rank 0 heartbeat expired");
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::JobAborted(_)));
        assert!(f.aborted());
        assert!(f.abort_reason().unwrap().contains("heartbeat"));
    }

    #[test]
    fn abort_wakes_blocked_collective() {
        let f = fabric(2);
        f.enable_heartbeats();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let e0 = f2.endpoint(0).unwrap();
            // Rank 1 never joins: blocked until abort.
            e0.collective_exchange(1, 0, 0, 2, vec![])
        });
        std::thread::sleep(Duration::from_millis(30));
        f.abort("test abort");
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, MpiError::JobAborted(_)));
    }

    #[test]
    fn healing_partition_masks_traffic_and_suppresses_beats() {
        let f = fabric(3);
        f.enable_heartbeats();
        let e0 = f.endpoint(0).unwrap();
        let e2 = f.endpoint(2).unwrap();
        f.inject_partition(&[2], Some(Duration::from_millis(30)));
        assert!(f.partitioned());
        // Cross-cut message is held.
        e0.send(2, 0, 1, 0, vec![7]).unwrap();
        assert_eq!(e2.pending_incoming(), 0, "held at the cut, not delivered");
        assert_eq!(f.pending_messages(), 1);
        // Isolated rank's beats are suppressed while the partition is active.
        let before = f.heartbeat_ages()[2];
        std::thread::sleep(Duration::from_millis(10));
        let _ = e2.pending_incoming(); // would normally beat
        assert!(f.heartbeat_ages()[2] >= before);
        // After heal, the held message is delivered and beats resume.
        let env = e2
            .recv_blocking(&MatchSpec::from_mpi_args(1, 0, 0))
            .unwrap();
        assert_eq!(env.payload, vec![7]);
        assert!(!f.partitioned());
        let _ = e2.pending_incoming();
        assert!(f.heartbeat_ages()[2] < Duration::from_millis(100));
        let events = f.chaos_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::PartitionStarted { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::PartitionHealed { .. })));
    }

    #[test]
    fn heartbeats_age_without_ops_and_refresh_with_them() {
        let f = fabric(2);
        f.enable_heartbeats();
        let e0 = f.endpoint(0).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let ages = f.heartbeat_ages();
        assert!(ages[0] >= Duration::from_millis(15));
        e0.send(1, 0, 1, 0, vec![]).unwrap();
        assert!(f.heartbeat_ages()[0] < Duration::from_millis(15));
        // Manual beats work too (compute-only phases).
        std::thread::sleep(Duration::from_millis(20));
        f.beat(0);
        assert!(f.heartbeat_ages()[0] < Duration::from_millis(15));
    }

    #[test]
    fn node_failure_kills_all_its_ranks() {
        let f = fabric(4);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::KillNode {
            ranks: vec![1, 2],
            at_op: 1,
        }]));
        let e0 = f.endpoint(0).unwrap();
        e0.send(3, 0, 1, 0, vec![]).unwrap();
        e0.send(3, 0, 1, 0, vec![]).unwrap();
        assert!(f.is_dead(1) && f.is_dead(2));
        assert!(!f.is_dead(0) && !f.is_dead(3));
    }

    #[test]
    fn mid_collective_crash_kills_before_contribution() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![FaultKind::CrashInCollective {
            rank: 1,
            at_entry: 1,
        }]));
        let e1 = f.endpoint(1).unwrap();
        let err = e1.collective_exchange(1, 0, 1, 2, vec![1]).unwrap_err();
        assert_eq!(err, MpiError::RankKilled { rank: 1 });
        // No contribution landed: the slot (if any) has nothing from index 1.
        let table = f.inner.collectives.lock();
        assert!(table
            .get(&(1, 0))
            .is_none_or(|s| s.contributions.is_empty()));
    }

    #[test]
    fn seeded_plan_runs_end_to_end_on_fabric() {
        // Smoke: install a full seeded plan and push traffic through; masked faults
        // must not corrupt or lose any message (no lethal faults in this menu).
        let f = fabric(2);
        let plan = ChaosPlan::seeded(
            7,
            2,
            &ChaosMenu {
                op_horizon: 40,
                ..ChaosMenu::masked_only()
            },
        );
        f.install_chaos(plan);
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        let f2 = f.clone();
        let h = thread::spawn(move || {
            let spec = MatchSpec::from_mpi_args(1, 0, 0);
            let e1 = f2.endpoint(1).unwrap();
            (0..50u8)
                .map(|_| e1.recv_blocking(&spec).unwrap().payload[0])
                .collect::<Vec<u8>>()
        });
        for i in 0..50u8 {
            e0.send(1, 0, 1, 0, vec![i]).unwrap();
        }
        let got = h.join().unwrap();
        assert_eq!(got, (0..50u8).collect::<Vec<u8>>());
        drop(e1);
    }

    #[test]
    fn chaos_retransmit_reshares_instead_of_recopying() {
        let f = fabric(2);
        f.install_chaos(ChaosPlan::from_faults(vec![
            FaultKind::DropMessage {
                nth: 0,
                retransmit_ms: 5,
            },
            FaultKind::ReorderMessage {
                nth: 1,
                overtaken_by: 2,
            },
        ]));
        let e0 = f.endpoint(0).unwrap();
        let e1 = f.endpoint(1).unwrap();
        for i in 0..4u8 {
            e0.send(1, 0, 1, 0, vec![i; 32]).unwrap();
        }
        let spec = MatchSpec::from_mpi_args(1, 0, 0);
        for i in 0..4u8 {
            assert_eq!(e1.recv_blocking(&spec).unwrap().payload, vec![i; 32]);
        }
        let stats = f.stats();
        assert_eq!(
            stats.bytes_copied,
            4 * 32,
            "only the initial injections materialize bytes"
        );
        assert!(
            stats.bytes_shared >= 2 * 32,
            "drop-retransmit and reorder redelivery must reshare the injected \
             buffers, got {} shared bytes",
            stats.bytes_shared
        );
    }

    #[test]
    fn collective_fanout_shares_contribution_buffers() {
        let n = 4usize;
        let f = fabric(n);
        let mut handles = vec![];
        for rank in 0..n {
            let f = f.clone();
            handles.push(thread::spawn(move || {
                let ep = f.endpoint(rank as Rank).unwrap();
                ep.collective_exchange(1, 0, rank, n, vec![rank as u8; 16])
                    .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = f.stats();
        assert_eq!(
            stats.bytes_copied,
            (n * 16) as u64,
            "one materialization per contribution"
        );
        assert_eq!(
            stats.bytes_shared,
            (n * n * 16) as u64,
            "every reader's fan-out is refcount bumps of all {n} contributions"
        );
    }
}
