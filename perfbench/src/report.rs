//! Metric names, the human-readable report and the final JSON line.

use crate::measure::Outcome;
use crate::spec::{beyond_p90, median, percentile, Kind, Workload};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The metrics of the final JSON line, in order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

/// A sample's p50 and p90 with its size and how many samples lie beyond the p90.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    if values.is_empty() {
        return format!("  {:<24} n/a on this workload", format!("{name}_p50/p90"));
    }
    format!(
        "  {:<24} {:>10.3} {unit:<3} {:<20} {:>10.3} {unit:<3} (n={}, {} beyond p90)",
        format!("{name}_p50"),
        percentile(values, 50.0),
        format!("{name}_p90"),
        percentile(values, 90.0),
        values.len(),
        beyond_p90(values)
    )
}

impl Report {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The untraced run's report. The JSON line carries the end-to-end metrics
    /// that apply to every workload and hold steady from run to run. The p90 tails
    /// are printed by name and unit above it, and so are the checkpoint and
    /// restart metrics, which apply to only some workloads. A minute-long slowdown
    /// of the host has spread ckpt-write's interval p90 over ten runs to 0.74 of
    /// its median, far past the largest bound the benchmark uses.
    pub fn end_to_end(workload: &Workload, outcome: &Outcome) -> Report {
        let mut report = Report {
            attempted: outcome.attempted,
            failed: outcome.failures.len() as u64,
            failures: outcome.failures.clone(),
            ..Report::default()
        };
        report.push("steps_per_s", "1/s", outcome.steps_per_s());
        report.push(
            "interval_ms_p50",
            "ms",
            percentile(&outcome.interval_ms, 50.0),
        );
        report.push("cycle_ms_p50", "ms", percentile(&outcome.cycle_ms, 50.0));
        report.push("setup_s", "s", median(&outcome.setup_s));
        report.push("rss_peak_mib", "MiB", outcome.rss_peak_mib);

        let lines = &mut report.lines;
        lines.push(format!(
            "  {:<24} {:.2} 1/s (median of slices; {} steps in {:.3} s overall)",
            "steps_per_s",
            outcome.steps_per_s(),
            outcome.steps(),
            outcome.wall_s
        ));
        lines.push(describe("interval_ms", "ms", &outcome.interval_ms));
        lines.push(describe("cycle_ms", "ms", &outcome.cycle_ms));
        lines.push(describe("ckpt_stall_ms", "ms", &outcome.stall_ms));
        lines.push(describe("restart_ms", "ms", &outcome.restart_ms));
        if outcome.written_bytes.is_empty() {
            lines.push(format!(
                "  {:<24} n/a on this workload",
                "ckpt_written_bytes"
            ));
        } else {
            lines.push(format!(
                "  {:<24} {:.0} B (median per rank per checkpoint, n={})",
                "ckpt_written_bytes",
                median(&outcome.written_bytes),
                outcome.written_bytes.len()
            ));
        }
        lines.push(format!(
            "  {:<24} {:.4} s (median of {} set-ups)",
            "setup_s",
            median(&outcome.setup_s),
            outcome.setup_s.len()
        ));
        lines.push(format!(
            "  {:<24} {:.1} MiB",
            "rss_peak_mib", outcome.rss_peak_mib
        ));
        lines.push(format!(
            "  {:<24} {:.4} ({} failed of {} intervals, checkpoints and restarts)",
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
            report.failed,
            report.attempted
        ));
        if workload.kind == Kind::CallBound {
            lines.push("  (call-bound takes no checkpoints and no restarts)".into());
        }
        report
    }

    pub fn print(&self, workload: &Workload, seed: u64, traced: bool) {
        let mode = if traced { "traced run" } else { "end to end" };
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!(
            "perfbench {} (seed {seed}) — {mode}; {cores} cores available",
            workload.name
        );
        for line in &self.lines {
            println!("{line}");
        }
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
