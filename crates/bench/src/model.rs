//! The runtime-overhead model behind the Figure 2/3/4 reproductions.
//!
//! The paper's runtime overhead is, to first order, `(MPI calls per rank) × (cost of
//! one wrapped call)`, where the per-call cost is the `fs`-register switch (FSGSBASE
//! instruction vs `prctl` system call) plus the wrapper's own bookkeeping (virtual-id
//! translation). The model therefore needs three ingredients, all of which this
//! workspace measures or encodes explicitly:
//!
//! * the per-application call rate (from §6.3's context-switch rates, validated by the
//!   scaled-down runs' crossing counts);
//! * the crossing cost of the host (FSGSBASE vs prctl, [`CrossingMode`]);
//! * the wrapper cost of the virtual-id design in use (legacy string-keyed maps vs the
//!   unified table; the Criterion `virtid` bench measures the same contrast directly).

use mana::config::VirtIdMode;
use mana_apps::workloads::{PerlmutterSpec, WorkloadSpec};
use serde::{Deserialize, Serialize};
use split_proc::crossing::{CrossingMode, CrossingProfile};

/// Per-call wrapper cost (ns) of each virtual-id design, plus an extra per-call cost
/// observed under Open MPI (the paper speculates slower network calls cause extra
/// context switches when MANA polls with `MPI_Test`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Wrapper cost of the legacy string-keyed design, ns per wrapped call.
    pub legacy_wrapper_ns: f64,
    /// Wrapper cost of the new unified-table design, ns per wrapped call.
    pub unified_wrapper_ns: f64,
    /// Additional per-call cost when the lower half is Open MPI, ns.
    pub openmpi_extra_ns: f64,
    /// Additional per-call cost when the lower half is ExaMPI, ns. The paper observed
    /// MANA+virtId *improving* CoMD's runtime over native ExaMPI by ~5% (§6.2),
    /// speculating that the descriptor caches information ExaMPI otherwise recomputes
    /// and improves code locality; a negative value large enough to outweigh the
    /// crossing cost models that net per-call saving.
    pub exampi_extra_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            legacy_wrapper_ns: 110.0,
            unified_wrapper_ns: 60.0,
            openmpi_extra_ns: 140.0,
            exampi_extra_ns: -900.0,
        }
    }
}

impl CostModel {
    /// Wrapper cost for a virtual-id mode.
    pub fn wrapper_ns(&self, mode: VirtIdMode) -> f64 {
        match mode {
            VirtIdMode::LegacyMaps => self.legacy_wrapper_ns,
            VirtIdMode::UnifiedTable => self.unified_wrapper_ns,
        }
    }

    /// Modelled MANA runtime for a workload on a host with `crossing` available,
    /// starting from the given native runtime.
    pub fn mana_runtime(
        &self,
        native_seconds: f64,
        calls_per_rank_per_sec: f64,
        crossing: CrossingMode,
        mode: VirtIdMode,
        extra_ns: f64,
    ) -> f64 {
        let calls = calls_per_rank_per_sec * native_seconds;
        let profile = CrossingProfile {
            mode: crossing,
            wrapper_overhead_ns: self.wrapper_ns(mode) + extra_ns,
        };
        native_seconds + profile.overhead_seconds(calls as u64)
    }
}

/// One row of a reproduced runtime figure: paper value (if reported) next to the
/// model's value, for one (application, configuration) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Application name.
    pub app: String,
    /// Configuration label ("native/MPICH", "MANA+virtId/OMPI", ...).
    pub configuration: String,
    /// Runtime the paper reports, seconds (if it reports one).
    pub paper_seconds: Option<f64>,
    /// Runtime reproduced by the model, seconds.
    pub model_seconds: f64,
}

impl OverheadRow {
    /// Relative error of the model against the paper, when both exist.
    pub fn relative_error(&self) -> Option<f64> {
        self.paper_seconds
            .map(|p| ((self.model_seconds - p) / p).abs())
    }
}

/// Reproduce the five-configuration rows of Figure 2 for one workload.
///
/// The Discovery cluster lacks userspace FSGSBASE, so every MANA configuration pays
/// the `prctl` crossing cost.
pub fn figure2_rows(spec: &WorkloadSpec, cost: &CostModel) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    let calls = spec.calls_per_rank_per_sec();
    if let Some(native) = spec.paper.native_mpich {
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "native/MPICH".into(),
            paper_seconds: Some(native),
            model_seconds: native,
        });
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA/MPICH".into(),
            paper_seconds: spec.paper.mana_mpich,
            model_seconds: cost.mana_runtime(
                native,
                calls,
                CrossingMode::Prctl,
                VirtIdMode::LegacyMaps,
                0.0,
            ),
        });
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA+virtId/MPICH".into(),
            paper_seconds: spec.paper.mana_virtid_mpich,
            model_seconds: cost.mana_runtime(
                native,
                calls,
                CrossingMode::Prctl,
                VirtIdMode::UnifiedTable,
                0.0,
            ),
        });
    }
    if let Some(native) = spec.paper.native_ompi {
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "native/OMPI".into(),
            paper_seconds: Some(native),
            model_seconds: native,
        });
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA+virtId/OMPI".into(),
            paper_seconds: spec.paper.mana_virtid_ompi,
            model_seconds: cost.mana_runtime(
                native,
                calls,
                CrossingMode::Prctl,
                VirtIdMode::UnifiedTable,
                cost.openmpi_extra_ns,
            ),
        });
    }
    rows
}

/// Reproduce the Figure 3 rows (ExaMPI vs MPICH) for one workload; only the
/// ExaMPI-compatible workloads (CoMD, LULESH) produce ExaMPI rows.
pub fn figure3_rows(spec: &WorkloadSpec, cost: &CostModel) -> Vec<OverheadRow> {
    let mut rows = figure2_rows(spec, cost)
        .into_iter()
        .filter(|r| r.configuration.ends_with("/MPICH"))
        .collect::<Vec<_>>();
    if let Some(native) = spec.paper.native_exampi {
        let calls = spec.calls_per_rank_per_sec();
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "native/ExaMPI".into(),
            paper_seconds: Some(native),
            model_seconds: native,
        });
        rows.push(OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA+virtId/ExaMPI".into(),
            paper_seconds: spec.paper.mana_virtid_exampi,
            model_seconds: cost.mana_runtime(
                native,
                calls,
                CrossingMode::Prctl,
                VirtIdMode::UnifiedTable,
                cost.exampi_extra_ns,
            ),
        });
    }
    rows
}

/// Reproduce the Figure 4 rows (Cray MPI on Perlmutter, FSGSBASE available).
pub fn figure4_rows(
    spec: &PerlmutterSpec,
    single_node: &[WorkloadSpec],
    cost: &CostModel,
) -> Vec<OverheadRow> {
    // Call rates scale with the per-rank rate measured on the local cluster.
    let calls = single_node
        .iter()
        .find(|w| w.app == spec.app)
        .map(|w| w.calls_per_rank_per_sec())
        .unwrap_or(250_000.0);
    vec![
        OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "native/CrayMPI".into(),
            paper_seconds: Some(spec.native_craympi),
            model_seconds: spec.native_craympi,
        },
        OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA/CrayMPI".into(),
            paper_seconds: Some(spec.mana_craympi),
            model_seconds: cost.mana_runtime(
                spec.native_craympi,
                calls,
                CrossingMode::Fsgsbase,
                VirtIdMode::LegacyMaps,
                0.0,
            ),
        },
        OverheadRow {
            app: spec.app.name().to_string(),
            configuration: "MANA+virtId/CrayMPI".into(),
            paper_seconds: Some(spec.mana_virtid_craympi),
            model_seconds: cost.mana_runtime(
                spec.native_craympi,
                calls,
                CrossingMode::Fsgsbase,
                VirtIdMode::UnifiedTable,
                0.0,
            ),
        },
    ]
}

/// One row of the Table 3 reproduction: checkpoint size vs time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRow {
    /// Application name.
    pub app: String,
    /// Checkpoint size per rank in MB (paper, Table 3).
    pub ckpt_mb_per_rank: f64,
    /// Checkpoint time the paper reports, seconds.
    pub paper_time_s: f64,
    /// Checkpoint time the store model reproduces, seconds.
    pub model_time_s: f64,
    /// Effective MB/s/rank the paper reports.
    pub paper_mb_s: f64,
    /// Effective MB/s/rank the model reproduces.
    pub model_mb_s: f64,
}

/// Reproduce Table 3 from the store's filesystem model.
pub fn table3_rows(specs: &[WorkloadSpec]) -> Vec<CheckpointRow> {
    let store = ckpt_store::StoreConfig::nfs_discovery();
    specs
        .iter()
        .map(|spec| {
            let model_time_s = store.write_time_s(spec.ckpt_mb_per_rank);
            CheckpointRow {
                app: spec.app.name().to_string(),
                ckpt_mb_per_rank: spec.ckpt_mb_per_rank,
                paper_time_s: spec.ckpt_time_s,
                model_time_s,
                paper_mb_s: spec.ckpt_mb_s_per_rank,
                model_mb_s: spec.ckpt_mb_per_rank / model_time_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_apps::workloads::{perlmutter_workloads, single_node_workloads};

    #[test]
    fn figure2_shape_matches_paper() {
        let cost = CostModel::default();
        let specs = single_node_workloads();
        for spec in &specs {
            let rows = figure2_rows(spec, &cost);
            let get = |label: &str| {
                rows.iter()
                    .find(|r| r.configuration == label)
                    .map(|r| r.model_seconds)
            };
            let native = get("native/MPICH").unwrap();
            let legacy = get("MANA/MPICH").unwrap();
            let unified = get("MANA+virtId/MPICH").unwrap();
            // MANA always costs something on the prctl machine, and virtId never costs
            // more than the legacy design.
            assert!(legacy > native);
            assert!(unified > native);
            assert!(unified <= legacy);
            if let Some(ompi) = get("MANA+virtId/OMPI") {
                let native_ompi = get("native/OMPI").unwrap();
                let ompi_overhead = (ompi - native_ompi) / native_ompi;
                let mpich_overhead = (unified - native) / native;
                assert!(
                    ompi_overhead >= mpich_overhead * 0.8,
                    "Open MPI overhead is comparable to or larger than MPICH overhead"
                );
            }
        }
        // LAMMPS shows the largest relative overhead (highest call rate).
        let overhead = |app: mana_apps::AppId| {
            let spec = specs.iter().find(|s| s.app == app).unwrap();
            let rows = figure2_rows(spec, &cost);
            let native = rows[0].model_seconds;
            let mana = rows[1].model_seconds;
            (mana - native) / native
        };
        assert!(overhead(mana_apps::AppId::Lammps) > overhead(mana_apps::AppId::Lulesh));
        assert!(overhead(mana_apps::AppId::Lammps) > overhead(mana_apps::AppId::CoMd));
    }

    #[test]
    fn figure2_model_is_close_to_paper_for_low_variance_apps() {
        // The paper restricts its overhead analysis to CoMD, LAMMPS and SW4 (HPCG and
        // LULESH had too much native variance). For those three the model should land
        // within ~15% of the paper's MANA/MPICH bars.
        let cost = CostModel::default();
        for spec in single_node_workloads() {
            if !matches!(
                spec.app,
                mana_apps::AppId::CoMd | mana_apps::AppId::Lammps | mana_apps::AppId::Sw4
            ) {
                continue;
            }
            for row in figure2_rows(&spec, &cost) {
                if row.configuration == "MANA/MPICH" || row.configuration == "MANA+virtId/MPICH" {
                    let err = row.relative_error().unwrap();
                    assert!(
                        err < 0.15,
                        "{} {} off by {:.1}% (paper {:?}, model {:.1})",
                        row.app,
                        row.configuration,
                        err * 100.0,
                        row.paper_seconds,
                        row.model_seconds
                    );
                }
            }
        }
    }

    #[test]
    fn figure3_exampi_improvement_for_comd() {
        let cost = CostModel::default();
        let specs = single_node_workloads();
        let comd = specs
            .iter()
            .find(|s| s.app == mana_apps::AppId::CoMd)
            .unwrap();
        let rows = figure3_rows(comd, &cost);
        let native = rows
            .iter()
            .find(|r| r.configuration == "native/ExaMPI")
            .unwrap()
            .model_seconds;
        let mana = rows
            .iter()
            .find(|r| r.configuration == "MANA+virtId/ExaMPI")
            .unwrap()
            .model_seconds;
        assert!(
            mana < native,
            "the paper observed MANA+virtId/ExaMPI *improving* CoMD runtime (§6.2)"
        );
        // LAMMPS has no ExaMPI rows.
        let lammps = specs
            .iter()
            .find(|s| s.app == mana_apps::AppId::Lammps)
            .unwrap();
        assert!(figure3_rows(lammps, &cost)
            .iter()
            .all(|r| !r.configuration.contains("ExaMPI")));
    }

    #[test]
    fn figure4_overheads_are_single_digit_with_fsgsbase() {
        let cost = CostModel::default();
        let single = single_node_workloads();
        for spec in perlmutter_workloads() {
            let rows = figure4_rows(&spec, &single, &cost);
            let native = rows[0].model_seconds;
            for row in &rows[1..] {
                let overhead = (row.model_seconds - native) / native;
                assert!(
                    overhead < 0.07,
                    "{} {} overhead {:.1}% exceeds the FSGSBASE regime",
                    row.app,
                    row.configuration,
                    overhead * 100.0
                );
            }
        }
    }

    #[test]
    fn table3_trend_matches_paper() {
        let rows = table3_rows(&single_node_workloads());
        assert_eq!(rows.len(), 5);
        for row in &rows {
            let err = (row.model_time_s - row.paper_time_s).abs() / row.paper_time_s;
            assert!(
                err < 0.5,
                "{}: model {:.1}s vs paper {:.1}s",
                row.app,
                row.model_time_s,
                row.paper_time_s
            );
        }
        // Bigger images take longer but achieve better effective bandwidth.
        let comd = rows.iter().find(|r| r.app == "CoMD").unwrap();
        let hpcg = rows.iter().find(|r| r.app == "HPCG").unwrap();
        assert!(hpcg.model_time_s > comd.model_time_s);
        assert!(hpcg.model_mb_s > comd.model_mb_s);
    }
}
