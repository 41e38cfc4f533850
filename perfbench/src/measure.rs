//! The measuring engine shared by the untraced and the traced run.
//!
//! Untraced, every world runs through the public `job-runtime` API: `JobRuntime::run`
//! launches it, `JobCtx::checkpoint` checkpoints it and `JobRuntime::resume_on`
//! restarts it. Traced, the same workload loop runs over the public calls those
//! three are made of (`JobRuntime::launch`, `ManaRank::begin_checkpoint`, …,
//! `CheckpointStorage::write_image`, `Coordinator::commit`, the backend's lower-half
//! launch, `CheckpointStorage::latest_valid_images`, `mana::restart::restart_job`),
//! each inside a span. Either way the outputs are checked against an uninterrupted
//! reference run.

use crate::spec::{median, ms, Inputs, Kind, Workload, CKPT_EVERY_CYCLES, INPUT_REGION, WORLD};
use crate::trace::{Tracer, MAIN_THREAD, ROOT};
use ckpt_store::{CheckpointStorage, StoreReport};
use job_runtime::{run_world, Backend, CommitLedger, Coordinator, JobCtx, JobRuntime};
use mana::restart::restart_job;
use mana::Session;
use mana_apps::{run_app, AppReport, RunConfig};
use mpi_model::error::{MpiError, MpiResult};
use split_proc::image::CheckpointImage;
use split_proc::integrity::xxh64;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 21;
/// Slices of the timed window `steps_per_s` takes its median over.
const SLICES: usize = 10;
/// Checkpoint images per rank kept for the codec replay.
const KEPT_IMAGES: usize = 4;
/// Checkpoints a traced call-bound run takes after its timed loop, so that the
/// checkpoint and restart layers are measured on its state too.
const PROBE_CHECKPOINTS: usize = 2;

/// One traced checkpoint on one rank, split into its public calls (ms).
#[derive(Debug, Clone, Copy)]
pub struct CkptParts {
    pub total: f64,
    pub quiesce: f64,
    pub drain: f64,
    pub snapshot: f64,
    pub write: f64,
    pub commit: f64,
    pub report: StoreReport,
}

impl CkptParts {
    pub fn residual(&self) -> f64 {
        self.total - (self.quiesce + self.drain + self.snapshot + self.write + self.commit)
    }
}

/// One traced restart, split into its public calls (ms).
#[derive(Debug, Clone, Copy)]
pub struct RestartParts {
    /// From the restart call until the last rank begins its first step.
    pub total: f64,
    pub launch: f64,
    pub read: f64,
    pub rebuild: f64,
    /// Logical bytes of the images read.
    pub read_bytes: usize,
    pub descriptors: usize,
}

impl RestartParts {
    pub fn residual(&self) -> f64 {
        self.total - (self.launch + self.read + self.rebuild)
    }
}

/// What one run measured, plus its correctness bookkeeping.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Intervals, checkpoints and restarts attempted, and every failure seen.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Each cycle's start (seconds into the timed window) and the world steps it
    /// executed, repeated steps included.
    pub cycles: Vec<(f64, u64)>,
    pub wall_s: f64,
    /// Rank 0's `run_app` time per interval.
    pub interval_ms: Vec<f64>,
    /// Per coordinated checkpoint, the slowest rank's time blocked in it.
    pub stall_ms: Vec<f64>,
    /// Per restart, from the restart call until the last rank begins its first step.
    pub restart_ms: Vec<f64>,
    /// Wall time of one cycle: restart (if any) + interval + checkpoint (if any).
    pub cycle_ms: Vec<f64>,
    /// `StoreReport::written_bytes` per rank per checkpoint.
    pub written_bytes: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub rss_peak_mib: f64,
    /// Traced only: the slowest rank's parts of each checkpoint.
    pub ckpt_parts: Vec<CkptParts>,
    /// Traced only: every rank's store report.
    pub store_reports: Vec<StoreReport>,
    /// Traced only: the parts of each restart.
    pub restart_parts: Vec<RestartParts>,
    /// Traced only: recent checkpoint images, for the codec replay.
    pub images: Vec<CheckpointImage>,
}

impl Outcome {
    pub fn steps(&self) -> u64 {
        self.cycles.iter().map(|c| c.1).sum()
    }

    /// Steps per second of wall time, checkpoints and restarts included: the median
    /// over `SLICES` consecutive runs of whole cycles that tile the timed window, so
    /// a burst of load from elsewhere on the host moves only the slices it hits.
    pub fn steps_per_s(&self) -> f64 {
        let n = self.cycles.len();
        if n < SLICES {
            return self.steps() as f64 / self.wall_s.max(1e-9);
        }
        let rates: Vec<f64> = (0..SLICES)
            .map(|slice| {
                let (lo, hi) = (slice * n / SLICES, (slice + 1) * n / SLICES);
                let end = self.cycles.get(hi).map_or(self.wall_s, |c| c.0);
                let steps: u64 = self.cycles[lo..hi].iter().map(|c| c.1).sum();
                steps as f64 / (end - self.cycles[lo].0).max(1e-9)
            })
            .collect();
        median(&rates)
    }
}

pub fn poisoned<T>(_: T) -> MpiError {
    MpiError::Internal("benchmark bookkeeping lock poisoned".into())
}

pub fn run_config(workload: &Workload, iterations: u64) -> RunConfig {
    RunConfig {
        iterations,
        state_scale: workload.state_scale(),
        ..RunConfig::default()
    }
}

/// Bit pattern of a rank's checksum: outputs are compared bit for bit.
fn checksum_bits(report: &AppReport) -> u64 {
    report.checksum.to_bits()
}

/// Map the seeded input region and initialise the application's state (step 0).
fn init_rank(session: &mut Session, workload: &Workload, inputs: &Inputs) -> MpiResult<()> {
    let rank = session.world_rank() as usize;
    session
        .upper_mut()
        .map_region(INPUT_REGION, inputs.input[rank].clone());
    run_app(workload.app, session, &run_config(workload, 0))?;
    Ok(())
}

/// Whether the input region still holds exactly the seeded bytes.
fn input_intact(session: &Session, inputs: &Inputs) -> bool {
    let rank = session.world_rank() as usize;
    session
        .upper()
        .region(INPUT_REGION)
        .map(|bytes| xxh64(bytes) == inputs.input_digest[rank])
        .unwrap_or(false)
}

// ----------------------------------------------------------------------------------
// Untraced vs traced calls into the layers
// ----------------------------------------------------------------------------------

/// A rank's handle for checkpoints: the runtime's `JobCtx` when untraced, the
/// coordinator and store it is made of when traced.
pub struct RankCtx<'a> {
    coordinator: &'a Coordinator,
    storage: &'a CheckpointStorage,
    job: Option<&'a JobCtx>,
    tracer: Option<&'a Tracer>,
    policy: ckpt_store::StoragePolicy,
}

impl RankCtx<'_> {
    /// Advance the application to `target` steps.
    fn interval(
        &self,
        session: &mut Session,
        workload: &Workload,
        target: u64,
    ) -> MpiResult<AppReport> {
        let config = run_config(workload, target);
        match self.tracer {
            Some(tracer) => {
                let rank = session.world_rank() as i64;
                tracer
                    .span("mana-apps.run_app", ROOT, rank, || {
                        run_app(workload.app, session, &config)
                    })
                    .0
            }
            None => run_app(workload.app, session, &config),
        }
    }

    /// One coordinated checkpoint; traced, also its parts and the frozen image.
    fn checkpoint(
        &self,
        session: &mut Session,
    ) -> MpiResult<(StoreReport, Option<(CkptParts, CheckpointImage)>)> {
        match (self.job, self.tracer) {
            (Some(job), _) => Ok((job.checkpoint(session)?, None)),
            (None, Some(tracer)) => {
                let (parts, image) = self.traced_checkpoint(session, tracer)?;
                Ok((parts.report, Some((parts, image))))
            }
            (None, None) => Err(MpiError::Internal("rank context without a job".into())),
        }
    }

    /// `coordinated_checkpoint` as its public calls: quiesce, drain, snapshot,
    /// write, commit — each in a span under one `bench.checkpoint` span.
    fn traced_checkpoint(
        &self,
        session: &mut Session,
        tracer: &Tracer,
    ) -> MpiResult<(CkptParts, CheckpointImage)> {
        session.reap();
        let rank = session.rank_mut();
        let me = rank.world_rank();
        let r = me as i64;
        let id = tracer.reserve();
        let begun = Instant::now();
        let (plan, quiesce) =
            tracer.span("mana.begin_checkpoint", id, r, || rank.begin_checkpoint());
        let plan = plan?;
        let (drained, drain) = tracer.span("mana.drain", id, r, || {
            rank.drain_quiescent(&plan, self.coordinator)?;
            rank.complete_drain()
        });
        drained?;
        let generation = rank.generation();
        self.storage
            .begin_generation(generation, self.coordinator.world_size());
        let result = (|| {
            let (image, snapshot) = tracer.span("mana.snapshot_checkpoint", id, r, || {
                rank.snapshot_checkpoint()
            });
            let image = image?;
            let (report, write) = tracer.span("ckpt-store.write_image", id, r, || {
                self.storage.write_image(self.policy, &image)
            });
            let (committed, commit) = tracer.span("job-runtime.commit", id, r, || {
                self.storage.note_rank_flushed(report.generation, me);
                self.coordinator.commit(me, report.generation, None)
            });
            committed?;
            Ok((snapshot, write, commit, report, image))
        })();
        let (snapshot, write, commit, report, image) = match result {
            Ok(parts) => parts,
            Err(error) => {
                self.storage.abort_generation(generation);
                return Err(error);
            }
        };
        let ended = Instant::now();
        tracer.record(id, "bench.checkpoint", ROOT, r, begun, ended);
        let parts = CkptParts {
            total: ms(ended - begun),
            quiesce,
            drain,
            snapshot,
            write,
            commit,
            report,
        };
        Ok((parts, image))
    }
}

/// A rank body: runs on every rank of a world with its session and context.
type Body<T> = dyn Fn(&mut Session, &RankCtx) -> MpiResult<T> + Send + Sync;

/// How worlds are launched, checkpointed and restarted.
pub enum Mode {
    Untraced,
    Traced(Arc<TracedJob>),
}

/// State the traced mode keeps in place of the runtime's own.
pub struct TracedJob {
    pub tracer: Arc<Tracer>,
    ledger: Arc<CommitLedger>,
    next_session: AtomicU64,
}

impl TracedJob {
    pub fn new(tracer: Arc<Tracer>) -> Arc<TracedJob> {
        Arc::new(TracedJob {
            tracer,
            ledger: Arc::new(CommitLedger::new()),
            next_session: AtomicU64::new(1 << 32),
        })
    }
}

impl Mode {
    /// Launch a fresh world of `runtime` and run `body` on every rank.
    fn launch<T: Send + 'static>(
        &self,
        runtime: &JobRuntime,
        workload: &Workload,
        body: Arc<Body<T>>,
    ) -> MpiResult<Vec<T>> {
        let policy = workload.policy;
        match self {
            Mode::Untraced => runtime.run(move |mut session, job| {
                let ctx = RankCtx {
                    coordinator: job.coordinator(),
                    storage: job.storage(),
                    job: Some(&job),
                    tracer: None,
                    policy,
                };
                body(&mut session, &ctx)
            }),
            Mode::Traced(traced) => {
                let (ranks, _) =
                    traced
                        .tracer
                        .span("job-runtime.launch", ROOT, MAIN_THREAD, || runtime.launch());
                run_traced(ranks?, runtime.storage().clone(), traced, policy, body)
            }
        }
    }

    /// Restart `runtime`'s newest committed generation onto `backend` and run `body`
    /// on every restored rank. Traced, also the restart's parts; its total needs
    /// the time each rank entered `body`, which `entered` reads from the results.
    fn restart<T: Send + 'static>(
        &self,
        runtime: &JobRuntime,
        workload: &Workload,
        backend: Backend,
        body: Arc<Body<T>>,
        entered: impl Fn(&T) -> Instant,
    ) -> MpiResult<(Vec<T>, u64, Option<RestartParts>)> {
        let policy = workload.policy;
        let traced = match self {
            Mode::Untraced => {
                let (ranks, generation) = runtime.resume_on(backend, move |mut session, job| {
                    let ctx = RankCtx {
                        coordinator: job.coordinator(),
                        storage: job.storage(),
                        job: Some(&job),
                        tracer: None,
                        policy,
                    };
                    body(&mut session, &ctx)
                })?;
                return Ok((ranks, generation, None));
            }
            Mode::Traced(traced) => traced,
        };
        let tracer = &traced.tracer;
        let id = tracer.reserve();
        let begun = Instant::now();
        let session = traced.next_session.fetch_add(1, Ordering::Relaxed);
        let (lowers, launch) = tracer.span("job-runtime.launch", id, MAIN_THREAD, || {
            backend.factory().launch(WORLD, runtime.registry(), session)
        });
        let storage = runtime.storage();
        let (read, read_ms) =
            tracer.span("ckpt-store.latest_valid_images", id, MAIN_THREAD, || {
                storage.latest_valid_images(WORLD)
            });
        let (generation, images) = read?;
        let read_bytes = images.iter().map(|i| i.upper_half.total_bytes()).sum();
        let (ranks, rebuild) = tracer.span("mana.restart_job", id, MAIN_THREAD, || {
            restart_job(lowers?, images, workload.mana_config(), runtime.registry())
        });
        let ranks = ranks?;
        let descriptors = ranks.first().map_or(0, |r| r.descriptor_count());
        let results = run_traced(ranks, storage.clone(), traced, policy, body)?;
        let last_entry = results.iter().map(&entered).max().unwrap_or(begun);
        tracer.record(id, "bench.restart", ROOT, MAIN_THREAD, begun, last_entry);
        let parts = RestartParts {
            total: ms(last_entry - begun),
            launch,
            read: read_ms,
            rebuild,
            read_bytes,
            descriptors,
        };
        Ok((results, generation, Some(parts)))
    }
}

/// Run `body` on every rank of a traced world, under a coordinator of its own.
fn run_traced<T: Send + 'static>(
    ranks: Vec<mana::ManaRank>,
    storage: CheckpointStorage,
    traced: &Arc<TracedJob>,
    policy: ckpt_store::StoragePolicy,
    body: Arc<Body<T>>,
) -> MpiResult<Vec<T>> {
    let coordinator = Arc::new(Coordinator::new(
        ranks.len(),
        None,
        Arc::clone(&traced.ledger),
    ));
    let traced = Arc::clone(traced);
    run_world(ranks, move |_, rank| {
        let mut session = Session::new(rank);
        let ctx = RankCtx {
            coordinator: &coordinator,
            storage: &storage,
            job: None,
            tracer: Some(&traced.tracer),
            policy,
        };
        body(&mut session, &ctx)
    })
}

// ----------------------------------------------------------------------------------
// Runs
// ----------------------------------------------------------------------------------

/// Measure `setups - 1` throwaway set-ups, then the real one followed by the timed
/// loop, then the checks against the uninterrupted reference run.
pub fn measure(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    setups: usize,
    mode: &Mode,
) -> MpiResult<Outcome> {
    let mut setup_s = Vec::with_capacity(setups);
    for _ in 1..setups {
        setup_s.push(throwaway_setup(workload, inputs, mode)?);
    }
    let mut outcome = match workload.kind {
        Kind::CallBound | Kind::CkptWrite => single_world(workload, inputs, seconds, mode)?,
        Kind::PreemptRestart => preempt_restart(workload, inputs, seconds, mode)?,
    };
    outcome.setup_s.extend(setup_s);
    outcome.attempted = outcome.attempted.max(outcome.failures.len() as u64).max(1);
    Ok(outcome)
}

fn throwaway_setup(workload: &Workload, inputs: &Inputs, mode: &Mode) -> MpiResult<f64> {
    let start = Instant::now();
    let runtime = JobRuntime::new(workload.job_config(workload.backend));
    let first = Arc::new(Mutex::new(None));
    let (w, i, f) = (*workload, inputs.clone(), Arc::clone(&first));
    let barrier = Arc::new(Barrier::new(WORLD));
    mode.launch(
        &runtime,
        workload,
        Arc::new(move |session: &mut Session, ctx: &RankCtx| {
            init_rank(session, &w, &i)?;
            if w.kind == Kind::PreemptRestart {
                ctx.checkpoint(session)?;
            }
            barrier.wait();
            if session.world_rank() == 0 {
                *f.lock().map_err(poisoned)? = Some(Instant::now());
            }
            Ok(())
        }),
    )?;
    let first = first.lock().map_err(poisoned)?.unwrap_or(start);
    Ok((first - start).as_secs_f64())
}

/// Per-rank record of the single-world loop (call-bound, ckpt-write).
#[derive(Debug, Default)]
struct RankLoop {
    interval_ms: Vec<f64>,
    cycle_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    written_bytes: Vec<f64>,
    parts: Vec<CkptParts>,
    images: Vec<CheckpointImage>,
    /// Start and step count of each interval.
    cycles: Vec<(Instant, u64)>,
    target: u64,
    checksum: u64,
    failures: Vec<String>,
    attempted: u64,
}

/// One checkpoint as a cycle takes it.
struct Taken {
    stall_ms: f64,
    report: StoreReport,
    traced: Option<(CkptParts, CheckpointImage)>,
    failure: Option<String>,
}

/// Take a checkpoint, check that it published its generation (the `expected` one,
/// when given), then prune every older generation, as a long-running job would.
fn take_checkpoint(
    session: &mut Session,
    ctx: &RankCtx,
    expected: Option<u64>,
) -> MpiResult<Taken> {
    let me = session.world_rank();
    let begun = Instant::now();
    let (report, traced) = ctx.checkpoint(session)?;
    let stall_ms = ms(begun.elapsed());
    let published = ctx.coordinator.ledger().published_generation();
    let failure = (published != Some(report.generation)
        || expected.is_some_and(|g| g != report.generation))
    .then(|| {
        format!(
            "rank {me}: checkpoint wrote generation {} (expected {expected:?}), ledger \
             published {published:?}",
            report.generation
        )
    });
    if me == 0 {
        ctx.storage.prune_before(report.generation);
    }
    Ok(Taken {
        stall_ms,
        report,
        traced,
        failure,
    })
}

impl RankLoop {
    fn checkpoint(&mut self, session: &mut Session, ctx: &RankCtx, expected: u64) -> MpiResult<()> {
        let taken = take_checkpoint(session, ctx, Some(expected))?;
        self.attempted += 1;
        self.stall_ms.push(taken.stall_ms);
        self.written_bytes.push(taken.report.written_bytes as f64);
        self.failures.extend(taken.failure);
        if let Some((parts, image)) = taken.traced {
            self.parts.push(parts);
            if self.images.len() == KEPT_IMAGES {
                self.images.remove(0);
            }
            self.images.push(image);
        }
        Ok(())
    }
}

struct Shared {
    workload: Workload,
    inputs: Inputs,
    seconds: f64,
    barrier: Barrier,
    /// Index of the first interval not to run; set once, by rank 0.
    stop_at: AtomicU64,
    /// Rank 0's clock at the start of the first timed interval.
    first: Mutex<Option<Instant>>,
    /// Rank 0's clock when the timed loop ended.
    last: Mutex<Option<Instant>>,
    traced: bool,
}

fn rank_loop(shared: &Shared, session: &mut Session, ctx: &RankCtx) -> MpiResult<RankLoop> {
    let workload = &shared.workload;
    let me = session.world_rank();
    init_rank(session, workload, &shared.inputs)?;
    let mut log = RankLoop::default();
    let mut index = 0u64;
    loop {
        if me == 0 && index > 0 {
            let first = shared
                .first
                .lock()
                .map_err(poisoned)?
                .unwrap_or_else(Instant::now);
            if first.elapsed().as_secs_f64() >= shared.seconds {
                shared.stop_at.store(index, Ordering::SeqCst);
            }
        }
        shared.barrier.wait();
        if index >= shared.stop_at.load(Ordering::SeqCst) {
            break;
        }
        if me == 0 && index == 0 {
            *shared.first.lock().map_err(poisoned)? = Some(Instant::now());
        }
        let steps = shared.inputs.interval_steps(workload, index);
        log.target += steps;
        let started = Instant::now();
        let report = ctx.interval(session, workload, log.target)?;
        log.interval_ms.push(ms(started.elapsed()));
        log.attempted += 1;
        log.cycles.push((started, steps));
        log.checksum = checksum_bits(&report);
        if report.iterations_completed != log.target {
            log.failures.push(format!(
                "rank {me}: interval {index} ended at step {} instead of {}",
                report.iterations_completed, log.target
            ));
        }
        if workload.kind == Kind::CkptWrite {
            log.checkpoint(session, ctx, index)?;
        }
        log.cycle_ms.push(ms(started.elapsed()));
        index += 1;
    }
    if me == 0 {
        *shared.last.lock().map_err(poisoned)? = Some(Instant::now());
    }
    if shared.traced && workload.kind == Kind::CallBound {
        for probe in 0..PROBE_CHECKPOINTS {
            log.checkpoint(session, ctx, probe as u64)?;
        }
    }
    if !input_intact(session, &shared.inputs) {
        log.failures
            .push(format!("rank {me}: input region changed"));
    }
    Ok(log)
}

fn single_world(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    mode: &Mode,
) -> MpiResult<Outcome> {
    let start = Instant::now();
    let runtime = JobRuntime::new(workload.job_config(workload.backend));
    let shared = Arc::new(Shared {
        workload: *workload,
        inputs: inputs.clone(),
        seconds,
        barrier: Barrier::new(WORLD),
        stop_at: AtomicU64::new(u64::MAX),
        first: Mutex::new(None),
        last: Mutex::new(None),
        traced: matches!(mode, Mode::Traced(_)),
    });
    let body_shared = Arc::clone(&shared);
    let mut ranks = mode.launch(
        &runtime,
        workload,
        Arc::new(move |session: &mut Session, ctx: &RankCtx| rank_loop(&body_shared, session, ctx)),
    )?;
    let rss_peak_mib = crate::spec::rss_peak_mib();
    let first = shared.first.lock().map_err(poisoned)?.unwrap_or(start);
    let last = shared.last.lock().map_err(poisoned)?.unwrap_or(first);

    let mut outcome = Outcome {
        wall_s: (last - first).as_secs_f64(),
        rss_peak_mib,
        cycles: ranks[0]
            .cycles
            .iter()
            .map(|&(at, steps)| (at.saturating_duration_since(first).as_secs_f64(), steps))
            .collect(),
        interval_ms: ranks[0].interval_ms.clone(),
        cycle_ms: ranks[0].cycle_ms.clone(),
        attempted: ranks[0].attempted,
        ..Outcome::default()
    };
    outcome.setup_s.push((first - start).as_secs_f64());
    for index in 0..ranks[0].stall_ms.len() {
        let stall = |rank: usize| ranks[rank].stall_ms.get(index).copied().unwrap_or(0.0);
        let slowest = (0..ranks.len())
            .max_by(|&a, &b| stall(a).total_cmp(&stall(b)))
            .unwrap_or(0);
        outcome.stall_ms.push(stall(slowest));
        if let Some(parts) = ranks[slowest].parts.get(index) {
            outcome.ckpt_parts.push(*parts);
        }
    }
    let intervals = ranks[0].interval_ms.len();
    for rank in &mut ranks {
        outcome.written_bytes.extend(&rank.written_bytes);
        outcome.failures.append(&mut rank.failures);
        outcome
            .store_reports
            .extend(rank.parts.iter().map(|p| p.report));
        outcome.images.append(&mut rank.images);
        if rank.interval_ms.len() != intervals || rank.stall_ms.len() != outcome.stall_ms.len() {
            outcome
                .failures
                .push("ranks ran different numbers of operations".into());
        }
    }

    let target = ranks[0].target;
    let finals: Vec<u64> = ranks.iter().map(|r| r.checksum).collect();
    if let Mode::Traced(_) = mode {
        // Restart the last checkpoint once and check the restored state is the
        // state that was checkpointed, bit for bit.
        let backend = probe_backend(workload);
        let (w, i) = (*workload, inputs.clone());
        let (restored, _, parts) = mode.restart(
            &runtime,
            workload,
            backend,
            Arc::new(move |session: &mut Session, ctx: &RankCtx| {
                cycle_body(session, ctx, &w, &i, backend, target, false)
            }),
            |rank| rank.entered,
        )?;
        outcome.attempted += 1;
        outcome.restart_parts.extend(parts);
        for (rank, cycle) in restored.iter().enumerate() {
            outcome.failures.extend(cycle.failures.iter().cloned());
            if cycle.checksum != finals[rank] {
                outcome.failures.push(format!(
                    "rank {rank}: restored state differs from the checkpointed one"
                ));
            }
        }
    }

    // Uninterrupted reference: one `run_app` call straight to the final step count.
    let reference = reference_checksums(workload, inputs, &[target])?;
    for (rank, bits) in finals.iter().enumerate() {
        if reference[rank].get(&target) != Some(bits) {
            outcome.failures.push(format!(
                "rank {rank}: checksum after {target} steps differs from the uninterrupted run"
            ));
        }
    }
    Ok(outcome)
}

/// The backend a single-world workload's traced restart lands on: the next
/// distinct implementation, unless the application needs a feature (communicator
/// splitting) that ExaMPI's subset lacks.
fn probe_backend(workload: &Workload) -> Backend {
    let next = workload.backend_for_cycle(1);
    if workload.profile().uses_split_comm && next == Backend::ExaMpi {
        Backend::Mpich
    } else {
        next
    }
}

/// What one rank did in one restart cycle.
#[derive(Debug)]
struct CycleRank {
    entered: Instant,
    interval_ms: f64,
    stall_ms: Option<f64>,
    written_bytes: Option<f64>,
    generation: Option<u64>,
    parts: Option<CkptParts>,
    image: Option<CheckpointImage>,
    checksum: u64,
    failures: Vec<String>,
}

/// The body of one restart cycle on one restored rank: verify the restore landed on
/// `backend` with the input intact, advance to `target`, and checkpoint when asked.
fn cycle_body(
    session: &mut Session,
    ctx: &RankCtx,
    workload: &Workload,
    inputs: &Inputs,
    backend: Backend,
    target: u64,
    checkpoint: bool,
) -> MpiResult<CycleRank> {
    let entered = Instant::now();
    let me = session.world_rank();
    let mut failures = Vec::new();
    if session.implementation_name() != backend.name() {
        failures.push(format!(
            "rank {me}: restored onto {} instead of {}",
            session.implementation_name(),
            backend.name()
        ));
    }
    if !input_intact(session, inputs) {
        failures.push(format!("rank {me}: input region differs after restart"));
    }
    let started = Instant::now();
    let report = ctx.interval(session, workload, target)?;
    let interval_ms = ms(started.elapsed());
    if report.iterations_completed != target {
        failures.push(format!(
            "rank {me}: resumed run ended at step {} instead of {target}",
            report.iterations_completed
        ));
    }
    let mut cycle = CycleRank {
        entered,
        interval_ms,
        stall_ms: None,
        written_bytes: None,
        generation: None,
        parts: None,
        image: None,
        checksum: checksum_bits(&report),
        failures,
    };
    if checkpoint {
        let taken = take_checkpoint(session, ctx, None)?;
        cycle.stall_ms = Some(taken.stall_ms);
        cycle.written_bytes = Some(taken.report.written_bytes as f64);
        cycle.generation = Some(taken.report.generation);
        cycle.failures.extend(taken.failure);
        if let Some((parts, image)) = taken.traced {
            cycle.parts = Some(parts);
            cycle.image = Some(image);
        }
    }
    Ok(cycle)
}

fn preempt_restart(
    workload: &Workload,
    inputs: &Inputs,
    seconds: f64,
    mode: &Mode,
) -> MpiResult<Outcome> {
    let start = Instant::now();
    let runtime = JobRuntime::new(workload.job_config(workload.backend));
    let (w, i) = (*workload, inputs.clone());
    let initial = mode.launch(
        &runtime,
        workload,
        Arc::new(move |session: &mut Session, ctx: &RankCtx| {
            init_rank(session, &w, &i)?;
            let (report, _) = ctx.checkpoint(session)?;
            Ok((
                report.generation,
                ctx.coordinator.ledger().published_generation(),
            ))
        }),
    )?;
    let mut outcome = Outcome::default();
    let (mut generation, published) = initial[0];
    if published != Some(generation) {
        outcome
            .failures
            .push(format!("initial generation {generation} not published"));
    }
    let first = Instant::now();
    outcome.setup_s.push((first - start).as_secs_f64());

    let mut base = 0u64;
    let mut expectations: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut cycle = 1u64;
    while cycle == 1 || first.elapsed() < Duration::from_secs_f64(seconds) {
        let backend = workload.backend_for_cycle(cycle);
        let steps = inputs.interval_steps(workload, cycle - 1);
        let target = base + steps;
        let checkpoint = cycle.is_multiple_of(CKPT_EVERY_CYCLES);
        let (w, i) = (*workload, inputs.clone());
        let began = Instant::now();
        let (mut ranks, restored, parts) = mode.restart(
            &runtime,
            workload,
            backend,
            Arc::new(move |session: &mut Session, ctx: &RankCtx| {
                cycle_body(session, ctx, &w, &i, backend, target, checkpoint)
            }),
            |rank| rank.entered,
        )?;
        outcome.cycle_ms.push(ms(began.elapsed()));
        let entered = ranks.iter().map(|r| r.entered).max().unwrap_or(began);
        outcome.restart_ms.push(ms(entered - began));
        outcome.restart_parts.extend(parts);
        outcome.interval_ms.push(ranks[0].interval_ms);
        outcome.cycles.push(((began - first).as_secs_f64(), steps));
        outcome.attempted += 2;
        if restored != generation {
            outcome.failures.push(format!(
                "cycle {cycle}: restored generation {restored}, newest committed is {generation}"
            ));
        }
        for rank in &mut ranks {
            outcome.failures.append(&mut rank.failures);
            outcome.written_bytes.extend(rank.written_bytes);
            outcome.store_reports.extend(rank.parts.map(|p| p.report));
            if let Some(image) = rank.image.take() {
                if outcome.images.len() == KEPT_IMAGES * WORLD {
                    outcome.images.remove(0);
                }
                outcome.images.push(image);
            }
        }
        if checkpoint {
            outcome.attempted += 1;
            let slowest = (0..ranks.len())
                .max_by(|&a, &b| {
                    let stall = |r: usize| ranks[r].stall_ms.unwrap_or(0.0);
                    stall(a).total_cmp(&stall(b))
                })
                .unwrap_or(0);
            outcome
                .stall_ms
                .push(ranks[slowest].stall_ms.unwrap_or(0.0));
            outcome.ckpt_parts.extend(ranks[slowest].parts);
            generation = ranks[0].generation.unwrap_or(generation);
            base = target;
        }
        expectations.push((target, ranks.iter().map(|r| r.checksum).collect()));
        cycle += 1;
    }
    outcome.wall_s = first.elapsed().as_secs_f64();
    outcome.rss_peak_mib = crate::spec::rss_peak_mib();

    let targets: BTreeSet<u64> = expectations.iter().map(|(t, _)| *t).collect();
    let targets: Vec<u64> = targets.into_iter().collect();
    let reference = reference_checksums(workload, inputs, &targets)?;
    for (index, (target, checksums)) in expectations.iter().enumerate() {
        for (rank, bits) in checksums.iter().enumerate() {
            if reference[rank].get(target) != Some(bits) {
                outcome.failures.push(format!(
                    "cycle {}: rank {rank} at step {target} is not bit-identical to the \
                     uninterrupted run",
                    index + 1
                ));
            }
        }
    }
    Ok(outcome)
}

/// Per-rank checksum bits after exactly `targets[k]` steps, from one uninterrupted
/// world on the workload's first backend that visits every target in order.
fn reference_checksums(
    workload: &Workload,
    inputs: &Inputs,
    targets: &[u64],
) -> MpiResult<Vec<BTreeMap<u64, u64>>> {
    let runtime = JobRuntime::new(workload.job_config(workload.backend));
    let (w, i, t) = (*workload, inputs.clone(), targets.to_vec());
    runtime.run(move |mut session, _ctx| {
        init_rank(&mut session, &w, &i)?;
        let mut sums = BTreeMap::new();
        for &target in &t {
            let report = run_app(w.app, &mut session, &run_config(&w, target))?;
            sums.insert(target, checksum_bits(&report));
        }
        Ok(sums)
    })
}
