//! A workload's per-step MPI call mix, issued by the benchmark itself from the public
//! `AppProfile` fields so that every call can be spanned: once through MANA's typed
//! `Session` (on two ranks and on one), and once on raw `MpiApi` lower halves with
//! no MANA at all — the native baseline the paper's Fig 2 compares against.
//!
//! The mix is the skeleton's step: a two-way halo exchange with each of
//! `halo_neighbors` partners, `allreduces_per_iter` one-element reductions on the
//! compute communicator, and an all-to-all every `alltoall_every` steps.

use crate::spec::Workload;
use crate::trace::{Tracer, MAIN_THREAD, ROOT};
use job_runtime::{run_world, JobConfig, JobRuntime};
use mana::{Op, Session};
use mpi_model::api::MpiApi;
use mpi_model::constants::PredefinedObject;
use mpi_model::datatype::PrimitiveType;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::op::PredefinedOp;
use mpi_model::types::Rank;
use net_sim::fabric::Fabric;
use net_sim::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// All-to-alls issued on their own when a profile's mix has none, so the
/// per-call latency is still measured.
const CALIBRATION_ALLTOALLS: usize = 200;

/// The call kinds of the mix, as span names per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Send,
    Recv,
    Allreduce,
    Alltoall,
}

impl Call {
    fn span(self, native: bool) -> &'static str {
        match (self, native) {
            (Call::Send, false) => "mana.send",
            (Call::Recv, false) => "mana.recv",
            (Call::Allreduce, false) => "mana.allreduce",
            (Call::Alltoall, false) => "mana.alltoall",
            (Call::Send, true) => "mpi-engine.send",
            (Call::Recv, true) => "mpi-engine.recv",
            (Call::Allreduce, true) => "mpi-engine.allreduce",
            (Call::Alltoall, true) => "mpi-engine.alltoall",
        }
    }
}

/// What one rank measured over the mix.
#[derive(Debug, Default)]
pub struct Mix {
    pub step_us: Vec<f64>,
    pub call_us: BTreeMap<Call, Vec<f64>>,
    /// Calls issued and upper↔lower crossings they made, inside the steps.
    pub calls: u64,
    pub crossings: u64,
    /// Whether the all-to-all latency comes from the calibration loop.
    pub alltoall_calibrated: bool,
    /// Fabric counters over the steps (rank 0 only).
    pub fabric: Option<StatsSnapshot>,
}

fn delta(after: StatsSnapshot, before: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        messages_sent: after.messages_sent - before.messages_sent,
        bytes_sent: after.bytes_sent - before.bytes_sent,
        messages_received: after.messages_received - before.messages_received,
        collective_rounds: after.collective_rounds - before.collective_rounds,
        collective_bytes: after.collective_bytes - before.collective_bytes,
        bytes_copied: after.bytes_copied - before.bytes_copied,
        bytes_shared: after.bytes_shared - before.bytes_shared,
    }
}

/// One rank's view of the mix, through either layer.
trait Issuer {
    fn me(&self) -> Rank;
    fn size(&self) -> Rank;
    fn crossings(&self) -> u64;
    fn send(&mut self, data: &[f64], dest: Rank, tag: i32) -> MpiResult<()>;
    fn recv(&mut self, count: usize, source: Rank, tag: i32) -> MpiResult<()>;
    fn allreduce(&mut self, value: f64) -> MpiResult<f64>;
    fn alltoall(&mut self, block: &[u64]) -> MpiResult<()>;
}

struct Run<'a> {
    tracer: &'a Tracer,
    native: bool,
    mix: Mix,
}

impl Run<'_> {
    fn call<R>(
        &mut self,
        issuer: &mut dyn Issuer,
        call: Call,
        parent: u64,
        op: impl FnOnce(&mut dyn Issuer) -> MpiResult<R>,
    ) -> MpiResult<R> {
        let rank = issuer.me() as i64;
        let before = issuer.crossings();
        let (result, elapsed_ms) = self
            .tracer
            .span(call.span(self.native), parent, rank, || op(issuer));
        self.mix.crossings += issuer.crossings() - before;
        self.mix.calls += 1;
        self.mix
            .call_us
            .entry(call)
            .or_default()
            .push(elapsed_ms * 1e3);
        result
    }

    /// The skeleton's step, one call at a time.
    fn step(&mut self, issuer: &mut dyn Issuer, workload: &Workload, step: u64) -> MpiResult<()> {
        let profile = workload.profile();
        let (me, size) = (issuer.me(), issuer.size());
        let halo = vec![me as f64 + 0.5; profile.halo_elements];
        let id = self.tracer.reserve();
        let begun = Instant::now();
        for n in 1..=profile.halo_neighbors as Rank {
            let (right, left) = ((me + n).rem_euclid(size), (me - n).rem_euclid(size));
            self.call(issuer, Call::Send, id, |i| i.send(&halo, right, n))?;
            self.call(issuer, Call::Recv, id, |i| i.recv(halo.len(), left, n))?;
            self.call(issuer, Call::Send, id, |i| i.send(&halo, left, 1000 + n))?;
            self.call(issuer, Call::Recv, id, |i| {
                i.recv(halo.len(), right, 1000 + n)
            })?;
        }
        let mut local = step as f64 * 1e-6;
        for _ in 0..profile.allreduces_per_iter {
            local += self.call(issuer, Call::Allreduce, id, |i| i.allreduce(local))? * 1e-9;
        }
        if profile.alltoall_every > 0 && (step + 1).is_multiple_of(profile.alltoall_every) {
            let block: Vec<u64> = (0..size).map(|peer| (me * 1000 + peer) as u64).collect();
            self.call(issuer, Call::Alltoall, id, |i| i.alltoall(&block))?;
        }
        let ended = Instant::now();
        let name = if self.native {
            "bench.native_step"
        } else {
            "bench.mix_step"
        };
        self.tracer.record(id, name, ROOT, me as i64, begun, ended);
        self.mix.step_us.push((ended - begun).as_secs_f64() * 1e6);
        Ok(())
    }

    /// Per-call all-to-all latency for a profile whose mix issues none.
    fn calibrate_alltoall(&mut self, issuer: &mut dyn Issuer) -> MpiResult<()> {
        let (me, size) = (issuer.me(), issuer.size());
        let block: Vec<u64> = (0..size).map(|peer| (me * 1000 + peer) as u64).collect();
        let (calls, crossings) = (self.mix.calls, self.mix.crossings);
        for _ in 0..CALIBRATION_ALLTOALLS {
            self.call(issuer, Call::Alltoall, ROOT, |i| i.alltoall(&block))?;
        }
        // Calibration calls stay out of the per-step call and crossing counts.
        (self.mix.calls, self.mix.crossings) = (calls, crossings);
        self.mix.alltoall_calibrated = true;
        Ok(())
    }
}

/// Run `steps` steps of `issuer`'s mix between two fabric snapshots taken by rank 0
/// with every rank parked at `barrier`.
fn drive(
    issuer: &mut dyn Issuer,
    workload: &Workload,
    steps: u64,
    tracer: &Tracer,
    native: bool,
    barrier: &Barrier,
    fabric: &Mutex<Option<Fabric>>,
) -> MpiResult<Mix> {
    let root = issuer.me() == 0;
    let snapshot = || -> Option<StatsSnapshot> {
        if root {
            fabric
                .lock()
                .ok()
                .and_then(|f| f.as_ref().map(|f| f.stats()))
        } else {
            None
        }
    };
    let mut run = Run {
        tracer,
        native,
        mix: Mix::default(),
    };
    barrier.wait();
    let before = snapshot();
    barrier.wait();
    for step in 0..steps {
        run.step(issuer, workload, step)?;
    }
    barrier.wait();
    let after = snapshot();
    run.mix.fabric = after.zip(before).map(|(a, b)| delta(a, b));
    if workload.profile().alltoall_every == 0 {
        run.calibrate_alltoall(issuer)?;
    }
    Ok(run.mix)
}

// ----------------------------------------------------------------------------------
// Through MANA
// ----------------------------------------------------------------------------------

struct ManaIssuer<'a> {
    session: &'a mut Session,
    world: mana::Comm,
    compute: mana::Comm,
    sum: Op<f64>,
}

impl Issuer for ManaIssuer<'_> {
    fn me(&self) -> Rank {
        self.session.world_rank()
    }
    fn size(&self) -> Rank {
        self.session.world_size() as Rank
    }
    fn crossings(&self) -> u64 {
        self.session.crossings()
    }
    fn send(&mut self, data: &[f64], dest: Rank, tag: i32) -> MpiResult<()> {
        self.session.send(data, dest, tag, self.world)
    }
    fn recv(&mut self, count: usize, source: Rank, tag: i32) -> MpiResult<()> {
        self.session
            .recv::<f64>(count, source, tag, self.world)
            .map(|_| ())
    }
    fn allreduce(&mut self, value: f64) -> MpiResult<f64> {
        self.session
            .allreduce(&[value], self.sum, self.compute)?
            .first()
            .copied()
            .ok_or_else(|| MpiError::Internal("allreduce returned no element".into()))
    }
    fn alltoall(&mut self, block: &[u64]) -> MpiResult<()> {
        self.session.alltoall(block, 1, self.world).map(|_| ())
    }
}

/// The mix through MANA's typed session on a `world`-rank job of the workload's
/// first backend. Returns each rank's measurements.
pub fn through_mana(
    workload: &Workload,
    world: usize,
    steps: u64,
    tracer: &Arc<Tracer>,
) -> MpiResult<Vec<Mix>> {
    let runtime = Arc::new(JobRuntime::new(
        JobConfig::new(world, workload.backend).with_mana(workload.mana_config()),
    ));
    let fabric = Arc::new(Mutex::new(None));
    let barrier = Arc::new(Barrier::new(world));
    let (w, t, f, rt) = (
        *workload,
        Arc::clone(tracer),
        Arc::clone(&fabric),
        Arc::clone(&runtime),
    );
    runtime.run(move |mut session, _ctx| {
        let me = session.world_rank();
        let world_comm = session.world()?;
        let compute = if w.profile().uses_split_comm && session.world_size() > 1 {
            session.comm_split(world_comm, Some(me % 2), me)?
        } else {
            world_comm
        };
        if me == 0 {
            *f.lock().map_err(crate::measure::poisoned)? = rt.fabric();
        }
        let mut issuer = ManaIssuer {
            session: &mut session,
            world: world_comm,
            compute,
            sum: Op::sum(),
        };
        drive(&mut issuer, &w, steps, &t, false, &barrier, &f)
    })
}

// ----------------------------------------------------------------------------------
// Native: raw lower halves, no MANA
// ----------------------------------------------------------------------------------

struct NativeIssuer {
    api: Box<dyn MpiApi>,
    world: mpi_model::types::PhysHandle,
    compute: mpi_model::types::PhysHandle,
    double: mpi_model::types::PhysHandle,
    sum: mpi_model::types::PhysHandle,
}

fn f64_bytes(data: &[f64]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

impl Issuer for NativeIssuer {
    fn me(&self) -> Rank {
        self.api.world_rank()
    }
    fn size(&self) -> Rank {
        self.api.world_size() as Rank
    }
    fn crossings(&self) -> u64 {
        0
    }
    fn send(&mut self, data: &[f64], dest: Rank, tag: i32) -> MpiResult<()> {
        self.api
            .send(&f64_bytes(data), self.double, dest, tag, self.world)
    }
    fn recv(&mut self, count: usize, source: Rank, tag: i32) -> MpiResult<()> {
        self.api
            .recv(self.double, count * 8, source, tag, self.world)
            .map(|_| ())
    }
    fn allreduce(&mut self, value: f64) -> MpiResult<f64> {
        let bytes =
            self.api
                .allreduce(&value.to_le_bytes(), self.double, self.sum, self.compute)?;
        let word: [u8; 8] = bytes
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(|| MpiError::Internal("allreduce returned fewer than 8 bytes".into()))?;
        Ok(f64::from_le_bytes(word))
    }
    fn alltoall(&mut self, block: &[u64]) -> MpiResult<()> {
        let bytes: Vec<u8> = block.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.api.alltoall(&bytes, 8, self.world).map(|_| ())
    }
}

/// The same mix on raw `MpiApi` lower halves of the workload's first backend: the
/// `mpi-engine` over its `*-sim` crate and `net-sim`, with no MANA above them.
pub fn native(workload: &Workload, steps: u64, tracer: &Arc<Tracer>) -> MpiResult<Vec<Mix>> {
    let world = crate::spec::WORLD;
    // A runtime's fresh registry is the user-function registry every launch takes.
    let registry = JobRuntime::new(workload.job_config(workload.backend)).registry();
    let capture = Fabric::capture_next();
    let (lowers, _) = tracer.span("mpi-engine.launch", ROOT, MAIN_THREAD, || {
        workload.backend.factory().launch(world, registry, 1 << 40)
    });
    let lowers = lowers?;
    let fabric = Arc::new(Mutex::new(capture.take()));
    let barrier = Arc::new(Barrier::new(world));
    let (w, t) = (*workload, Arc::clone(tracer));
    run_world(lowers, move |_, mut api| {
        let me = api.world_rank();
        let world_comm = api.resolve_constant(PredefinedObject::CommWorld)?;
        let double = api.resolve_constant(PredefinedObject::Datatype(PrimitiveType::Double))?;
        let sum = api.resolve_constant(PredefinedObject::Op(PredefinedOp::Sum))?;
        let compute = if w.profile().uses_split_comm {
            api.comm_split(world_comm, Some(me % 2), me)?
        } else {
            world_comm
        };
        let mut issuer = NativeIssuer {
            api,
            world: world_comm,
            compute,
            double,
            sum,
        };
        drive(&mut issuer, &w, steps, &t, true, &barrier, &fabric)
    })
}
