//! Plain-text and JSON rendering of the harness output.

use crate::app_state::AppStateReport;
use crate::async_ckpt::AsyncCkptReport;
use crate::chaos::{ChaosBenchReport, ChaosSoakConfig};
use crate::ckpt::{ParallelCkptRow, ShiftedRegionReport, StorageRow};
use crate::compression::CompressionReport;
use crate::elastic::{ElasticBenchConfig, ElasticBenchReport};
use crate::fabric::FabricBenchReport;
use crate::model::{CheckpointRow, OverheadRow};
use crate::runner::SmallScaleResult;
use crate::service::{ServiceBenchConfig, ServiceBenchReport};
use crate::typed::TypedOverheadReport;
use serde::{Deserialize, Serialize};

/// A complete harness report: one section per table/figure requested.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Section title → rows of (paper, model) runtimes.
    pub runtime_sections: Vec<(String, Vec<OverheadRow>)>,
    /// Table 3 rows, if requested.
    pub checkpoint_rows: Vec<CheckpointRow>,
    /// Scaled-down validation runs, if requested.
    pub validation_runs: Vec<SmallScaleResult>,
    /// Free-form notes (workload tables, context-switch rates).
    pub notes: Vec<String>,
}

impl Report {
    /// Render the report as aligned plain text for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (title, rows) in &self.runtime_sections {
            out.push_str(&format!("\n== {title} ==\n"));
            out.push_str(&format!(
                "{:<8} {:<22} {:>12} {:>12} {:>9}\n",
                "app", "configuration", "paper (s)", "model (s)", "err"
            ));
            for row in rows {
                let paper = row
                    .paper_seconds
                    .map(|p| format!("{p:>12.1}"))
                    .unwrap_or_else(|| format!("{:>12}", "-"));
                let err = row
                    .relative_error()
                    .map(|e| format!("{:>8.1}%", e * 100.0))
                    .unwrap_or_else(|| format!("{:>9}", "-"));
                out.push_str(&format!(
                    "{:<8} {:<22} {} {:>12.1} {}\n",
                    row.app, row.configuration, paper, row.model_seconds, err
                ));
            }
        }
        if !self.checkpoint_rows.is_empty() {
            out.push_str("\n== Table 3: checkpoint size vs time (NFSv3 model) ==\n");
            out.push_str(&format!(
                "{:<8} {:>12} {:>14} {:>14} {:>12} {:>12}\n",
                "app", "MB/rank", "paper time(s)", "model time(s)", "paper MB/s", "model MB/s"
            ));
            for row in &self.checkpoint_rows {
                out.push_str(&format!(
                    "{:<8} {:>12.0} {:>14.1} {:>14.1} {:>12.1} {:>12.1}\n",
                    row.app,
                    row.ckpt_mb_per_rank,
                    row.paper_time_s,
                    row.model_time_s,
                    row.paper_mb_s,
                    row.model_mb_s
                ));
            }
        }
        if !self.validation_runs.is_empty() {
            out.push_str("\n== Scaled-down validation runs (this machine) ==\n");
            out.push_str(&format!(
                "{:<8} {:<10} {:>6} {:>6} {:>14} {:>14} {:>10} {:>10} {:>8}\n",
                "app",
                "impl",
                "ranks",
                "iters",
                "cross/rank",
                "cross/iter",
                "ckpt B",
                "logical B",
                "restart"
            ));
            for run in &self.validation_runs {
                out.push_str(&format!(
                    "{:<8} {:<10} {:>6} {:>6} {:>14.0} {:>14.1} {:>10} {:>10} {:>8}\n",
                    run.app.name(),
                    run.implementation,
                    run.ranks,
                    run.iterations,
                    run.crossings_per_rank,
                    run.crossings_per_rank_per_iteration,
                    run.ckpt_bytes_per_rank,
                    run.ckpt_logical_bytes_per_rank,
                    if run.restart_equivalent {
                        "ok"
                    } else {
                        "MISMATCH"
                    }
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        out
    }

    /// Render as pretty-printed JSON (the machine-readable form of the report).
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// The machine-readable CI smoke report (`BENCH_ci.json`): the quick `ckpt-store`
/// and parallel-checkpoint measurements plus the regression gates CI enforces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CiReport {
    /// Full vs incremental vs incremental+compressed rows at 1/10/100% dirty.
    pub storage_rows: Vec<StorageRow>,
    /// Parallel sharded vs serialized baseline write rows.
    pub parallel_rows: Vec<ParallelCkptRow>,
    /// `logical / written` for the `Incremental` policy at 1% dirty — the headline
    /// byte-reduction number the CI gate protects.
    pub incremental_reduction_1pct: f64,
    /// Wall-time speedup of the sharded parallel write over the serialized baseline.
    pub parallel_speedup: f64,
    /// Minimum acceptable `incremental_reduction_1pct`.
    pub reduction_gate: f64,
    /// One region checkpointed twice with a few bytes inserted at its front, with
    /// its `chunks_new ≤ chunks_new_gate` verdict folded into `pass`.
    pub shifted_region: ShiftedRegionReport,
    /// The typed-session-vs-raw-bytes comparison on the CoMD profile, with its own
    /// `< gate_pct` verdict folded into `pass`.
    pub typed_overhead: TypedOverheadReport,
    /// The async-vs-sync checkpoint stall comparison on the CoMD profile, with its
    /// own `≤ gate_fraction` verdict folded into `pass`.
    pub async_ckpt: AsyncCkptReport,
    /// The multi-tenant checkpoint service under load (cross-job dedup, aggregate
    /// throughput, the preempt/restart fleet, the cold-tier round trip), with its
    /// own gate verdicts folded into `pass`.
    pub service: ServiceBenchReport,
    /// The seeded chaos soak through the self-healing runtime (detection latency,
    /// recovery blackout, bit-identical completion), with its own blackout gate
    /// verdict folded into `pass`.
    pub chaos: ChaosBenchReport,
    /// The elastic-restart comparison (shrunk and grown restarts of one
    /// generation vs the same-size restore, bit-identical completion), with its
    /// own correctness verdict folded into `pass`.
    pub elastic: ElasticBenchReport,
    /// The fabric microbench (per-crossing latency, zero-copy stream throughput,
    /// exact one-materialization-per-message copy accounting), with its own gate
    /// verdicts folded into `pass`.
    pub fabric: FabricBenchReport,
    /// The LZ-vs-RLE codec comparison on the real proxy-app checkpoint corpus,
    /// with its LZ-never-loses verdict folded into `pass`.
    pub compression: CompressionReport,
    /// Every proxy app's upper-half state layout at the CI scale, with its
    /// raw-lattice verdict folded into `pass`.
    pub app_state: AppStateReport,
    /// Whether every gate passed.
    pub pass: bool,
}

impl CiReport {
    /// Measure everything the CI smoke job checks. `reduction_gate` is the minimum
    /// acceptable incremental-vs-full byte reduction at 1% dirty.
    pub fn measure(reduction_gate: f64) -> Self {
        let storage_rows = crate::ckpt::storage_rows();
        let parallel_rows = crate::ckpt::parallel_checkpoint_rows();
        let incremental_reduction_1pct = storage_rows
            .iter()
            .find(|row| {
                row.policy == ckpt_store::StoragePolicy::Incremental
                    && (row.dirty_fraction - 0.01).abs() < 1e-9
            })
            .map(|row| row.reduction)
            .unwrap_or(0.0);
        let baseline = parallel_rows
            .iter()
            .find(|r| r.serialized)
            .map(|r| r.wall_seconds)
            .unwrap_or(0.0);
        let parallel_speedup = parallel_rows
            .iter()
            .find(|r| !r.serialized && r.shards == ckpt_store::DEFAULT_SHARD_COUNT)
            .map(|r| {
                if r.wall_seconds > 0.0 {
                    baseline / r.wall_seconds
                } else {
                    f64::INFINITY
                }
            })
            .unwrap_or(0.0);
        let shifted_region = crate::ckpt::measure_shifted_region();
        let typed_overhead = crate::typed::measure_typed_overhead(crate::TYPED_OVERHEAD_GATE_PCT);
        let async_ckpt = crate::async_ckpt::measure_async_ckpt(
            crate::ASYNC_CKPT_GATE_FRACTION,
            crate::ASYNC_CKPT_ROUNDS,
        );
        let service = crate::service::measure_service_bench(
            &ServiceBenchConfig::default(),
            crate::SERVICE_DEDUP_GATE,
            crate::SERVICE_THROUGHPUT_GATE,
        );
        let chaos = crate::chaos::measure_chaos_soak(
            &ChaosSoakConfig::default(),
            crate::CHAOS_BLACKOUT_GATE_MS,
        )
        .report;
        let elastic = crate::elastic::measure_elastic_bench(&ElasticBenchConfig::default());
        let fabric = crate::fabric::measure_fabric_bench(
            crate::FABRIC_CROSSING_GATE_US,
            crate::FABRIC_THROUGHPUT_GATE_MIBS,
        );
        let compression = crate::compression::measure_compression_bench();
        let app_state = crate::app_state::measure_app_state();
        let pass = incremental_reduction_1pct >= reduction_gate
            && shifted_region.pass
            && typed_overhead.pass
            && async_ckpt.pass
            && service.pass
            && chaos.pass
            && elastic.pass
            && fabric.pass
            && compression.pass
            && app_state.pass;
        CiReport {
            storage_rows,
            parallel_rows,
            incremental_reduction_1pct,
            parallel_speedup,
            reduction_gate,
            shifted_region,
            typed_overhead,
            async_ckpt,
            service,
            chaos,
            elastic,
            fabric,
            compression,
            app_state,
            pass,
        }
    }

    /// Pretty JSON for the artifact upload.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ci report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_text_and_json() {
        let mut report = Report::default();
        report.runtime_sections.push((
            "Figure 2".into(),
            vec![OverheadRow {
                app: "CoMD".into(),
                configuration: "native/MPICH".into(),
                paper_seconds: Some(32.8),
                model_seconds: 32.8,
            }],
        ));
        report.notes.push("a note".into());
        let text = report.render_text();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("CoMD"));
        assert!(text.contains("a note"));
        let json = report.render_json();
        assert!(json.contains("\"model_seconds\""));
    }
}
