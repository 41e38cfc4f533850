//! Scaled-down end-to-end runs of the proxy applications through the full MANA stack,
//! used by the harness as validation columns and by the Criterion benches.

use ckpt_store::CheckpointStorage;
use mana::restart::restart_job_from_storage;
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::{run_app, AppId, RunConfig};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::error::MpiResult;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Parameters of one scaled-down run.
#[derive(Debug, Clone)]
pub struct SmallScaleConfig {
    /// Ranks to launch (much smaller than the paper's 27-64).
    pub ranks: usize,
    /// Timesteps to run.
    pub iterations: u64,
    /// Per-rank state scale relative to the paper's full-size state.
    pub state_scale: f64,
    /// MANA configuration (virtual-id mode, ggid policy, crossing mode).
    pub mana: ManaConfig,
    /// Checkpoint (and restart, to verify equivalence) halfway through the run.
    pub checkpoint_and_restart: bool,
}

impl Default for SmallScaleConfig {
    fn default() -> Self {
        SmallScaleConfig {
            ranks: 4,
            iterations: 8,
            state_scale: 1e-4,
            mana: ManaConfig::new_design(),
            checkpoint_and_restart: false,
        }
    }
}

/// What one scaled-down run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmallScaleResult {
    /// Application that ran.
    pub app: AppId,
    /// MPI implementation used.
    pub implementation: String,
    /// Ranks launched.
    pub ranks: usize,
    /// Timesteps completed.
    pub iterations: u64,
    /// Mean upper↔lower crossings per rank.
    pub crossings_per_rank: f64,
    /// Mean crossings per rank per timestep (the measured call mix).
    pub crossings_per_rank_per_iteration: f64,
    /// Checkpoint bytes physically written per rank (0 if no checkpoint was taken).
    /// Under the incremental storage policies this is what actually reached storage.
    pub ckpt_bytes_per_rank: u64,
    /// Logical (flat-image-equivalent) checkpoint payload per rank in bytes.
    pub ckpt_logical_bytes_per_rank: u64,
    /// Whether the post-restart run produced checksums identical to an uninterrupted
    /// run (only meaningful when `checkpoint_and_restart` was requested).
    pub restart_equivalent: bool,
    /// Wall-clock seconds for the run (this machine, not the paper's testbed).
    pub wall_seconds: f64,
}

fn run_job(
    factory: &dyn MpiImplementationFactory,
    config: &SmallScaleConfig,
    app: AppId,
    run_config: RunConfig,
    session: u64,
    registry: Arc<RwLock<UserFunctionRegistry>>,
) -> MpiResult<Vec<mana_apps::AppReport>> {
    let lowers = factory.launch(config.ranks, registry.clone(), session)?;
    let mana_config = config.mana;
    let ranks: Vec<ManaRank> = lowers
        .into_iter()
        .map(|lower| ManaRank::new(lower, mana_config, registry.clone()))
        .collect::<MpiResult<_>>()?;
    let mut reports = job_runtime::run_world(ranks, move |_, rank| {
        run_app(app, &mut Session::new(rank), &run_config)
    })?;
    reports.sort_by_key(|r| r.rank);
    Ok(reports)
}

/// Run `app` end to end (optionally with a checkpoint/restart round trip in the
/// middle) and report what was measured.
pub fn run_small_scale(
    app: AppId,
    factory: &dyn MpiImplementationFactory,
    config: &SmallScaleConfig,
) -> MpiResult<SmallScaleResult> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let start = std::time::Instant::now();

    let (reports, ckpt_bytes, ckpt_logical_bytes, restart_equivalent) =
        if config.checkpoint_and_restart {
            // Reference run: no interruption.
            let reference = run_job(
                factory,
                config,
                app,
                RunConfig {
                    iterations: config.iterations,
                    state_scale: config.state_scale,
                    checkpoint_at: None,
                    storage: None,
                },
                11,
                registry.clone(),
            )?;

            // Interrupted run: checkpoint halfway through the storage engine (under the
            // configured storage policy), restart on a fresh lower half, finish.
            let storage = CheckpointStorage::unmetered();
            let halfway = (config.iterations / 2).max(1);
            let first_half = run_job(
                factory,
                config,
                app,
                RunConfig {
                    iterations: halfway,
                    state_scale: config.state_scale,
                    checkpoint_at: Some(halfway),
                    storage: Some(storage.clone()),
                },
                12,
                registry.clone(),
            )?;
            let ckpt_bytes = first_half
                .iter()
                .filter_map(|r| r.checkpoint.as_ref().map(|c| c.written_bytes as u64))
                .max()
                .unwrap_or(0);
            let ckpt_logical_bytes = first_half
                .iter()
                .filter_map(|r| r.checkpoint.as_ref().map(|c| c.logical_bytes as u64))
                .max()
                .unwrap_or(0);

            let new_lowers = factory.launch(config.ranks, registry.clone(), 13)?;
            let (restarted, _generation) =
                restart_job_from_storage(new_lowers, &storage, config.mana, registry.clone())?;
            let finish_config = RunConfig {
                iterations: config.iterations,
                state_scale: config.state_scale,
                checkpoint_at: None,
                storage: None,
            };
            let mut resumed = job_runtime::run_world(restarted, move |_, rank| {
                run_app(app, &mut Session::new(rank), &finish_config)
            })?;
            resumed.sort_by_key(|r| r.rank);
            let equivalent = reference.iter().zip(resumed.iter()).all(|(a, b)| {
                a.checksum == b.checksum && b.iterations_completed == config.iterations
            });
            (resumed, ckpt_bytes, ckpt_logical_bytes, equivalent)
        } else {
            let reports = run_job(
                factory,
                config,
                app,
                RunConfig {
                    iterations: config.iterations,
                    state_scale: config.state_scale,
                    checkpoint_at: None,
                    storage: None,
                },
                21,
                registry.clone(),
            )?;
            (reports, 0, 0, true)
        };

    let crossings_per_rank =
        reports.iter().map(|r| r.crossings as f64).sum::<f64>() / reports.len() as f64;
    Ok(SmallScaleResult {
        app,
        implementation: factory.name().to_string(),
        ranks: config.ranks,
        iterations: config.iterations,
        crossings_per_rank,
        crossings_per_rank_per_iteration: crossings_per_rank / config.iterations as f64,
        ckpt_bytes_per_rank: ckpt_bytes,
        ckpt_logical_bytes_per_rank: ckpt_logical_bytes,
        restart_equivalent,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_measures_crossings() {
        let result = run_small_scale(
            AppId::CoMd,
            &mpich_sim::MpichFactory::mpich(),
            &SmallScaleConfig {
                ranks: 3,
                iterations: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.ranks, 3);
        assert!(result.crossings_per_rank_per_iteration > 5.0);
        assert!(result.restart_equivalent);
        assert_eq!(result.ckpt_bytes_per_rank, 0);
    }

    #[test]
    fn checkpoint_restart_round_trip_is_equivalent() {
        let result = run_small_scale(
            AppId::Lammps,
            &openmpi_sim::OpenMpiFactory::new(),
            &SmallScaleConfig {
                ranks: 2,
                iterations: 6,
                checkpoint_and_restart: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            result.restart_equivalent,
            "restart must not change the results"
        );
        assert!(result.ckpt_bytes_per_rank > 0);
    }

    #[test]
    fn incremental_policy_round_trip_is_equivalent() {
        let result = run_small_scale(
            AppId::CoMd,
            &mpich_sim::MpichFactory::mpich(),
            &SmallScaleConfig {
                ranks: 2,
                iterations: 6,
                checkpoint_and_restart: true,
                mana: ManaConfig::new_design().with_storage(mana::StoragePolicy::Incremental),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            result.restart_equivalent,
            "incremental restart must be transparent"
        );
        assert!(result.ckpt_bytes_per_rank > 0);
        assert!(result.ckpt_logical_bytes_per_rank >= result.ckpt_bytes_per_rank / 2);
    }
}
