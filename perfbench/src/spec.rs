//! The three workloads, the inputs their seed generates, and small statistics helpers.

use ckpt_store::StoragePolicy;
use job_runtime::{Backend, JobConfig};
use mana::ManaConfig;
use mana_apps::{profile_of, AppId, AppProfile};
use net_sim::SplitMix64;
use split_proc::integrity::xxh64;

/// Ranks in every workload's world: two rank threads, one per core of a 2-core box.
pub const WORLD: usize = 2;

/// Upper-half region holding the workload's seeded, read-only input bytes.
pub const INPUT_REGION: &str = "bench.input";

/// What a workload does between its compute intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Intervals only: no checkpoints, no restarts.
    CallBound,
    /// A coordinated checkpoint after every interval.
    CkptWrite,
    /// Every cycle restarts the newest committed generation on the next backend,
    /// runs one interval and vacates; every 4th cycle also checkpoints.
    PreemptRestart,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub app: AppId,
    /// Backend of the first launch (preempt-restart then rotates through
    /// [`Backend::DISTINCT`]).
    pub backend: Backend,
    pub policy: StoragePolicy,
    /// Per-rank application state in `f64` elements. The skeleton keeps its state
    /// in one upper-half region serialized at ~20 bytes per element, so the sizes
    /// below are chosen for the region (the bytes a checkpoint carries).
    pub state_elements: usize,
    /// Per-rank seeded input region size in bytes.
    pub input_bytes: usize,
    /// Interval length range in steps, `[lo, hi)`; drawn per interval from the seed.
    pub steps: (u64, u64),
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "call-bound",
        kind: Kind::CallBound,
        app: AppId::Vasp,
        backend: Backend::OpenMpi,
        policy: StoragePolicy::IncrementalCompressed,
        state_elements: 4_800, // ~96 KiB serialized
        input_bytes: 64 * 1024,
        steps: (64, 193),
    },
    Workload {
        name: "ckpt-write",
        kind: Kind::CkptWrite,
        app: AppId::Lulesh,
        backend: Backend::Mpich,
        policy: StoragePolicy::IncrementalCompressed,
        state_elements: 52_000, // ~1 MiB serialized
        input_bytes: 1024 * 1024,
        steps: (5, 6),
    },
    Workload {
        name: "preempt-restart",
        kind: Kind::PreemptRestart,
        app: AppId::CoMd,
        backend: Backend::Mpich,
        policy: StoragePolicy::IncrementalCompressed,
        state_elements: 16_000, // ~320 KiB serialized
        input_bytes: 64 * 1024,
        steps: (8, 33),
    },
];

/// Every fourth preempt-restart cycle takes a new checkpoint.
pub const CKPT_EVERY_CYCLES: u64 = 4;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn profile(&self) -> AppProfile {
        profile_of(self.app)
    }

    /// The `RunConfig::state_scale` that gives `state_elements` per rank.
    pub fn state_scale(&self) -> f64 {
        // Half an element of slack so the skeleton's truncating size computation
        // lands exactly on `state_elements`.
        (self.state_elements as f64 + 0.5) / self.profile().state_elements_full_scale as f64
    }

    pub fn mana_config(&self) -> ManaConfig {
        ManaConfig::new_design().with_storage(self.policy)
    }

    pub fn job_config(&self, backend: Backend) -> JobConfig {
        JobConfig::new(WORLD, backend).with_mana(self.mana_config())
    }

    /// The backend cycle `cycle` (1-based) restarts onto: the one after the
    /// first launch's backend in [`Backend::DISTINCT`], and so on around.
    pub fn backend_for_cycle(&self, cycle: u64) -> Backend {
        let start = Backend::DISTINCT
            .iter()
            .position(|&b| b == self.backend)
            .unwrap_or(0) as u64;
        Backend::DISTINCT[((start + cycle) % Backend::DISTINCT.len() as u64) as usize]
    }
}

/// Everything the seed decides. The program receives only these generated values.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub seed: u64,
    /// Per-rank input region bytes.
    pub input: Vec<Vec<u8>>,
    /// XXH64 of each rank's input region, checked after the run.
    pub input_digest: Vec<u64>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let input: Vec<Vec<u8>> = (0..WORLD)
            .map(|rank| {
                let mut rng = SplitMix64::new(seed ^ 0x1b87_3593 ^ ((rank as u64) << 40));
                let mut bytes = Vec::with_capacity(workload.input_bytes + 8);
                while bytes.len() < workload.input_bytes {
                    bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                bytes.truncate(workload.input_bytes);
                bytes
            })
            .collect();
        let input_digest = input.iter().map(|bytes| xxh64(bytes)).collect();
        Inputs {
            seed,
            input,
            input_digest,
        }
    }

    /// Length in steps of interval `index` (0-based).
    pub fn interval_steps(&self, workload: &Workload, index: u64) -> u64 {
        let (lo, hi) = workload.steps;
        SplitMix64::new(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index).in_range(lo, hi)
    }
}

/// Percentile by nearest rank over an unsorted sample; 0 for an empty one.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Samples strictly beyond the p90 value.
pub fn beyond_p90(values: &[f64]) -> usize {
    let p90 = percentile(values, 90.0);
    values.iter().filter(|&&v| v > p90).count()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}
