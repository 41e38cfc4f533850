//! Workspace-level integration tests: the whole stack (proxy application → MANA
//! wrappers → simulated MPI implementation → simulated fabric → checkpoint store) run
//! end to end, across implementations and virtual-id designs.

use mana_bench::runner::{run_small_scale, SmallScaleConfig};
use mana_repro::mana::ManaConfig;
use mana_repro::mana_apps::AppId;
use mpi_model::api::MpiImplementationFactory;

fn config(mana: ManaConfig, checkpoint: bool) -> SmallScaleConfig {
    SmallScaleConfig {
        ranks: 4,
        iterations: 6,
        state_scale: 1e-4,
        mana,
        checkpoint_and_restart: checkpoint,
    }
}

#[test]
fn every_app_restarts_equivalently_on_mpich() {
    for app in AppId::ALL {
        let result = run_small_scale(
            app,
            &mpich_sim::MpichFactory::mpich(),
            &config(ManaConfig::new_design(), true),
        )
        .unwrap();
        assert!(
            result.restart_equivalent,
            "{} must produce identical results across a checkpoint/restart",
            app.name()
        );
        assert!(result.ckpt_bytes_total > 0);
        assert!(result.crossings_per_rank_per_iteration > 1.0);
    }
}

#[test]
fn every_app_restarts_equivalently_on_openmpi() {
    for app in AppId::ALL {
        let result = run_small_scale(
            app,
            &openmpi_sim::OpenMpiFactory::new(),
            &config(ManaConfig::new_design(), true),
        )
        .unwrap();
        assert!(
            result.restart_equivalent,
            "{} failed on Open MPI",
            app.name()
        );
    }
}

#[test]
fn exampi_runs_the_compatible_apps() {
    for app in [AppId::CoMd, AppId::Lulesh] {
        let result = run_small_scale(
            app,
            &exampi_sim::ExaMpiFactory::new(),
            &config(ManaConfig::new_design(), true),
        )
        .unwrap();
        assert!(result.restart_equivalent, "{} failed on ExaMPI", app.name());
    }
}

#[test]
fn legacy_virtid_design_still_works_on_the_mpich_family() {
    let result = run_small_scale(
        AppId::Lammps,
        &mpich_sim::MpichFactory::cray(),
        &config(ManaConfig::legacy_design(), true),
    )
    .unwrap();
    assert!(result.restart_equivalent);
}

#[test]
fn call_mix_ordering_matches_section_6_3() {
    // Per-iteration wrapped-call counts should order the applications the same way the
    // paper's context-switch rates do (LAMMPS most chatty, LULESH least).
    let mut per_iter = std::collections::HashMap::new();
    for app in AppId::ALL {
        let result = run_small_scale(
            app,
            &mpich_sim::MpichFactory::mpich(),
            &config(ManaConfig::new_design(), false),
        )
        .unwrap();
        per_iter.insert(app, result.crossings_per_rank_per_iteration);
    }
    assert!(per_iter[&AppId::Lammps] > per_iter[&AppId::Lulesh]);
    assert!(per_iter[&AppId::Lammps] > per_iter[&AppId::CoMd]);
    assert!(per_iter[&AppId::Sw4] > per_iter[&AppId::Lulesh]);
}

#[test]
fn subset_audit_matches_the_paper() {
    // All three implementations satisfy §5's required subset; only ExaMPI drops
    // optional features.
    for (factory, full_featured) in [
        (
            &mpich_sim::MpichFactory::mpich() as &dyn MpiImplementationFactory,
            true,
        ),
        (&openmpi_sim::OpenMpiFactory::new(), true),
        (&exampi_sim::ExaMpiFactory::new(), false),
    ] {
        let ranks = mana_repro::launch_mana_job(factory, 1, ManaConfig::new_design(), 5).unwrap();
        let audit = ranks[0].audit_lower_half();
        assert!(audit.compatible(), "{} must host MANA", factory.name());
        let has_comm_dup = audit
            .optional_features
            .contains(&mpi_model::subset::SubsetFeature::CommDup);
        assert_eq!(has_comm_dup, full_featured, "{}", factory.name());
    }
}
