//! # mana-bench
//!
//! The benchmark harness that regenerates every table and figure of the paper's
//! evaluation (§6), plus the shared machinery used by the Criterion micro-benchmarks.
//!
//! Two kinds of numbers appear in the output:
//!
//! * **Reproduced (model)** — the runtime-overhead model: the paper's measured native
//!   runtimes and per-application MPI-call rates (encoded in
//!   [`mana_apps::workloads`]), combined with this reproduction's crossing-cost model
//!   ([`split_proc::crossing`]) and per-call wrapper costs for the legacy and new
//!   virtual-id designs. This is what reproduces the *shape* of Figures 2-4: which
//!   configuration wins, by roughly what factor, and where the FSGSBASE/prctl regime
//!   change lands.
//! * **Measured (scaled-down)** — actual executions of the proxy applications through
//!   the full MANA stack on the simulated MPI implementations, at a reduced rank count
//!   and iteration count, reporting real crossing counts, real checkpoint image sizes,
//!   and real restart equivalence. These validate that the modelled call mixes come
//!   from code that genuinely runs.
//!
//! The `harness` binary prints both, side by side with the paper's reference values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_ckpt;
pub mod chaos;
pub mod ckpt;
pub mod collectives;
pub mod compression;
pub mod elastic;
pub mod fabric;
pub mod model;
pub mod report;
pub mod runner;
pub mod service;
pub mod typed;

/// Maximum acceptable typed-session overhead over the raw byte path, in percent
/// (the acceptance gate of the typed-API migration).
pub const TYPED_OVERHEAD_GATE_PCT: f64 = 5.0;

/// Maximum acceptable per-checkpoint rank stall under the asynchronous flush,
/// as a fraction of the synchronous `write_checkpoint_into` wall time (the
/// acceptance gate of the async checkpoint split).
pub const ASYNC_CKPT_GATE_FRACTION: f64 = 0.5;

/// Minimum acceptable service-wide `logical / physical` ratio for two
/// identical-app tenants checkpointing through one `CkptService` (the cross-job
/// dedup acceptance gate).
pub const SERVICE_DEDUP_GATE: f64 = 1.5;

/// Minimum acceptable ratio of aggregate throughput across concurrent service
/// tenants to the single-job baseline (the shared chunk space must not serialize
/// concurrent jobs).
pub const SERVICE_THROUGHPUT_GATE: f64 = 0.7;

/// Maximum acceptable recovery blackout — heartbeat declaration to resumed world —
/// across the chaos soak seed matrix, in milliseconds (the self-healing
/// acceptance gate; the matrix must also complete bit-identically with zero
/// operator restarts).
pub const CHAOS_BLACKOUT_GATE_MS: u64 = 5_000;

/// Maximum acceptable per-crossing fabric latency, microseconds: one message
/// delivered end to end through the simulated fabric. The hop is a mutex'd
/// pointer hand-off, so the gate is generous — it catches a reintroduced
/// per-hop byte copy or lock convoy, not scheduler noise.
pub const FABRIC_CROSSING_GATE_US: f64 = 50.0;

/// Minimum acceptable fabric stream throughput, MiB/s, for 256 KiB payloads
/// travelling as `PayloadBuf` refcount hand-offs.
pub const FABRIC_THROUGHPUT_GATE_MIBS: f64 = 100.0;

pub use async_ckpt::{
    async_ckpt_note, async_ckpt_note_from, measure_async_ckpt, AsyncCkptReport, ASYNC_CKPT_ROUNDS,
};
pub use chaos::{
    chaos_note, chaos_note_from, measure_chaos_soak, recovery_logs_json, ChaosBenchReport,
    ChaosSoakConfig, ChaosSoakOutcome, ChaosSoakRow, CHAOS_SOAK_SEEDS,
};
pub use ckpt::{
    measure_parallel_checkpoint, measure_shifted_region, parallel_checkpoint_note,
    parallel_checkpoint_note_from, parallel_checkpoint_rows, shifted_region_note_from,
    storage_comparison_note, ParallelCkptRow, ShiftedRegionReport, StorageRow,
};
pub use collectives::{
    collective_checkpoint_note, collective_checkpoint_note_from, collective_checkpoint_rows,
    measure_collective_checkpoint, CollectiveCkptMode, CollectiveCkptRow,
};
pub use compression::{
    compression_note, compression_note_from, measure_compression_bench, CompressionReport,
    CompressionRow,
};
pub use elastic::{
    elastic_note, elastic_note_from, measure_elastic_bench, ElasticBenchConfig, ElasticBenchReport,
    ElasticResizeRow,
};
pub use fabric::{fabric_note, fabric_note_from, measure_fabric_bench, FabricBenchReport};
pub use model::{CostModel, OverheadRow};
pub use report::{CiReport, Report};
pub use runner::{run_small_scale, SmallScaleConfig, SmallScaleResult};
pub use service::{
    measure_service_bench, service_note, service_note_from, ServiceBenchConfig, ServiceBenchReport,
    SERVICE_FLEET_JOBS,
};
pub use typed::{
    measure_typed_overhead, typed_overhead_note, typed_overhead_note_from, TypedOverheadReport,
    TypedOverheadRow,
};
