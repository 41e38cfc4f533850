//! The evaluation harness: regenerates every table and figure of the paper's §6.
//!
//! Usage:
//!
//! ```text
//! harness [--json] [table1|table2|table3|ckpt-store|parallel|collectives|typed-overhead|async-ckpt|ckpt-service|chaos|elastic|fabric|compression|app-state|figure2|figure3|figure4|cs-rate|validate|all]
//! harness ci
//! harness chaos-soak
//! ```
//!
//! With no argument (or `all`) every section is produced. `--json` emits the
//! machine-readable form of the same report. An unknown section name is an error:
//! the harness names the valid ones and exits nonzero.
//!
//! `ci` runs the quick smoke mode: it measures the `ckpt-store` byte-reduction rows,
//! the shifted-dirty-region row (one region checkpointed twice with bytes inserted
//! at its front),
//! the parallel sharded-vs-serialized write comparison, the typed-session overhead
//! on the CoMD profile, the async-vs-sync checkpoint stall on the CoMD profile, and
//! the multi-tenant checkpoint service under load (cross-job dedup, aggregate
//! throughput, a 100+-job preempt/restart fleet, the cold-tier round trip); writes
//! `BENCH_ci.json` for the CI artifact upload, and **exits nonzero** if the
//! incremental-vs-full byte reduction at 1% dirty regresses below the gate (50x),
//! the shifted region's second checkpoint stores more than 3 chunks anew,
//! the typed layer costs 5% or more over the raw byte path, the async checkpoint
//! stall exceeds 50% of the synchronous write wall time, the service's cross-job
//! dedup falls under 1.5x or its aggregate throughput under 0.7x the single-job
//! baseline, any fleet job fails to complete and restart, the cold-tier round
//! trip is not bit-identical, the seeded chaos soak fails to self-heal
//! bit-identically within the recovery-blackout gate, any elastic (resized)
//! restart fails to reproduce its uninterrupted baseline bit-for-bit, the fabric
//! breaches its per-crossing latency / stream throughput gates or copies any
//! payload byte more than once per injected message, the in-tree LZ codec
//! writes more bytes than the legacy RLE on any proxy app's checkpoint corpus, or
//! any proxy app's checkpointed lattice is not raw `f64`s (8 bytes per element)
//! next to a JSON header of at most 1 KiB.
//!
//! `chaos-soak` runs the seeded chaos matrix on its own, writes the combined
//! per-seed `RecoveryLog` stream to `RECOVERY_log.json` for the CI artifact
//! upload, and exits nonzero if any seed diverges from the chaos-free baseline
//! or the worst recovery blackout exceeds the gate.

use mana_apps::workloads::{perlmutter_workloads, single_node_workloads};
use mana_apps::AppId;
use mana_bench::model::{figure2_rows, figure3_rows, figure4_rows, table3_rows, CostModel};
use mana_bench::report::{CiReport, Report};
use mana_bench::runner::{run_small_scale, SmallScaleConfig};

/// Minimum acceptable incremental-vs-full byte reduction at 1% dirty.
const CI_REDUCTION_GATE: f64 = 50.0;

/// Every report section, in the order the report prints them.
const SECTIONS: [&str; 19] = [
    "table1",
    "table2",
    "figure2",
    "figure3",
    "figure4",
    "cs-rate",
    "table3",
    "ckpt-store",
    "parallel",
    "collectives",
    "typed-overhead",
    "async-ckpt",
    "ckpt-service",
    "chaos",
    "elastic",
    "fabric",
    "compression",
    "app-state",
    "validate",
];

/// Names accepted besides the sections: `all`, and the two standalone modes.
const OTHER_NAMES: [&str; 3] = ["all", "ci", "chaos-soak"];

/// The non-flag arguments, each checked against [`SECTIONS`] and [`OTHER_NAMES`];
/// an error message names the unknown ones and every valid name.
fn selection(args: &[String]) -> Result<Vec<&str>, String> {
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let unknown: Vec<&str> = names
        .iter()
        .copied()
        .filter(|name| !SECTIONS.contains(name) && !OTHER_NAMES.contains(name))
        .collect();
    if unknown.is_empty() {
        Ok(names)
    } else {
        Err(format!(
            "unknown harness section(s): {}\nvalid: {}, {}",
            unknown.join(", "),
            SECTIONS.join(", "),
            OTHER_NAMES.join(", ")
        ))
    }
}

/// The `harness chaos-soak` mode: run the seeded soak, write the combined
/// recovery-log artifact, gate on blackout + bit-identity.
fn run_chaos_soak() -> std::process::ExitCode {
    let outcome = mana_bench::measure_chaos_soak(
        &mana_bench::ChaosSoakConfig::default(),
        mana_bench::CHAOS_BLACKOUT_GATE_MS,
    );
    std::fs::write(
        "RECOVERY_log.json",
        mana_bench::recovery_logs_json(&outcome.logs),
    )
    .expect("write RECOVERY_log.json");
    println!("{}", mana_bench::chaos_note_from(&outcome.report));
    println!("wrote RECOVERY_log.json");
    if outcome.report.pass {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

/// The `harness ci` smoke mode: measure, write `BENCH_ci.json`, gate.
fn run_ci() -> std::process::ExitCode {
    let report = CiReport::measure(CI_REDUCTION_GATE);
    std::fs::write("BENCH_ci.json", report.render_json()).expect("write BENCH_ci.json");

    println!("{}", mana_bench::storage_comparison_note());
    println!(
        "{}",
        mana_bench::shifted_region_note_from(&report.shifted_region)
    );
    println!(
        "{}",
        mana_bench::parallel_checkpoint_note_from(report.parallel_rows.clone())
    );
    println!(
        "incremental reduction at 1% dirty: {:.1}x (gate: {:.0}x) — {}",
        report.incremental_reduction_1pct,
        report.reduction_gate,
        if report.pass { "PASS" } else { "FAIL" }
    );
    println!(
        "parallel sharded write speedup over serialized baseline: {:.1}x",
        report.parallel_speedup
    );
    println!(
        "{}",
        mana_bench::typed_overhead_note_from(&report.typed_overhead)
    );
    println!("{}", mana_bench::async_ckpt_note_from(&report.async_ckpt));
    println!("{}", mana_bench::service_note_from(&report.service));
    println!("{}", mana_bench::chaos_note_from(&report.chaos));
    println!("{}", mana_bench::elastic_note_from(&report.elastic));
    println!("{}", mana_bench::fabric_note_from(&report.fabric));
    println!("{}", mana_bench::compression_note_from(&report.compression));
    println!("{}", mana_bench::app_state_note_from(&report.app_state));
    println!("wrote BENCH_ci.json");
    if report.pass {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

fn table1_note() -> String {
    let mut note = String::from("== Table 1: single-node inputs (Discovery) ==\n");
    note.push_str(&format!("{:<8} {:>6}  {}\n", "app", "ranks", "input"));
    for spec in single_node_workloads() {
        note.push_str(&format!(
            "{:<8} {:>6}  {}\n",
            spec.app.name(),
            spec.ranks,
            spec.input
        ));
    }
    note
}

fn table2_note() -> String {
    let mut note = String::from("== Table 2: Perlmutter inputs ==\n");
    note.push_str(&format!("{:<8} {:>6}  {}\n", "app", "ranks", "input"));
    for spec in perlmutter_workloads() {
        note.push_str(&format!(
            "{:<8} {:>6}  {}\n",
            spec.app.name(),
            spec.ranks,
            spec.input
        ));
    }
    note
}

fn cs_rate_note() -> String {
    let mut note = String::from(
        "== Section 6.3: context switches per second (paper) and wrapped calls per \
         iteration (measured profile) ==\n",
    );
    note.push_str(&format!(
        "{:<8} {:>12} {:>16} {:>18}\n",
        "app", "ranks", "paper CS/s", "calls/iter (proxy)"
    ));
    for spec in single_node_workloads() {
        let profile = mana_apps::profile_of(spec.app);
        note.push_str(&format!(
            "{:<8} {:>12} {:>16.1e} {:>18}\n",
            spec.app.name(),
            spec.ranks,
            spec.cs_rate_per_sec,
            profile.calls_per_iteration()
        ));
    }
    note
}

fn validation_runs() -> Vec<mana_bench::SmallScaleResult> {
    let mut runs = Vec::new();
    let base = SmallScaleConfig {
        ranks: 4,
        iterations: 6,
        checkpoint_and_restart: true,
        // Exercise the new storage engine end to end in every validation run.
        mana: mana::ManaConfig::new_design().with_storage(mana::StoragePolicy::Incremental),
        ..Default::default()
    };
    for app in AppId::ALL {
        runs.push(
            run_small_scale(app, &mpich_sim::MpichFactory::mpich(), &base)
                .expect("mpich validation run"),
        );
        runs.push(
            run_small_scale(app, &openmpi_sim::OpenMpiFactory::new(), &base)
                .expect("openmpi validation run"),
        );
        // Only the ExaMPI-compatible applications run there (paper Figure 3).
        if matches!(app, AppId::CoMd | AppId::Lulesh) {
            runs.push(
                run_small_scale(app, &exampi_sim::ExaMpiFactory::new(), &base)
                    .expect("exampi validation run"),
            );
        }
    }
    runs
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let selections = match selection(&args) {
        Ok(selections) => selections,
        Err(message) => {
            eprintln!("{message}");
            return std::process::ExitCode::from(2);
        }
    };
    if selections.contains(&"ci") {
        return run_ci();
    }
    if selections.contains(&"chaos-soak") {
        return run_chaos_soak();
    }
    let want = |section: &str| {
        selections.is_empty() || selections.contains(&"all") || selections.contains(&section)
    };

    let cost = CostModel::default();
    let single_node = single_node_workloads();
    let mut report = Report::default();

    if want("table1") {
        report.notes.push(table1_note());
    }
    if want("table2") {
        report.notes.push(table2_note());
    }
    if want("figure2") {
        let rows = single_node
            .iter()
            .flat_map(|spec| figure2_rows(spec, &cost))
            .collect();
        report.runtime_sections.push((
            "Figure 2: MPICH vs Open MPI on Discovery (no FSGSBASE)".into(),
            rows,
        ));
    }
    if want("figure3") {
        let rows = single_node
            .iter()
            .filter(|spec| spec.exampi_compatible())
            .flat_map(|spec| figure3_rows(spec, &cost))
            .collect();
        report
            .runtime_sections
            .push(("Figure 3: ExaMPI vs MPICH on Discovery".into(), rows));
    }
    if want("figure4") {
        let rows = perlmutter_workloads()
            .iter()
            .flat_map(|spec| figure4_rows(spec, &single_node, &cost))
            .collect();
        report.runtime_sections.push((
            "Figure 4: Cray MPI on Perlmutter (userspace FSGSBASE)".into(),
            rows,
        ));
    }
    if want("cs-rate") {
        report.notes.push(cs_rate_note());
    }
    if want("table3") {
        report.checkpoint_rows = table3_rows(&single_node);
    }
    if want("ckpt-store") {
        report.notes.push(mana_bench::storage_comparison_note());
        report.notes.push(mana_bench::shifted_region_note_from(
            &mana_bench::measure_shifted_region(),
        ));
    }
    if want("parallel") {
        report.notes.push(mana_bench::parallel_checkpoint_note());
    }
    if want("collectives") {
        report.notes.push(mana_bench::collective_checkpoint_note());
    }
    if want("typed-overhead") {
        report.notes.push(mana_bench::typed_overhead_note());
    }
    if want("async-ckpt") {
        report.notes.push(mana_bench::async_ckpt_note());
    }
    if want("ckpt-service") {
        report.notes.push(mana_bench::service_note());
    }
    if want("chaos") {
        report.notes.push(mana_bench::chaos_note());
    }
    if want("elastic") {
        report.notes.push(mana_bench::elastic_note());
    }
    if want("fabric") {
        report.notes.push(mana_bench::fabric_note());
    }
    if want("compression") {
        report.notes.push(mana_bench::compression_note());
    }
    if want("app-state") {
        report.notes.push(mana_bench::app_state_note());
    }
    if want("validate") {
        report.validation_runs = validation_runs();
    }

    if json {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_text());
    }
    std::process::ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|name| name.to_string()).collect()
    }

    #[test]
    fn selection_accepts_every_known_name_and_skips_flags() {
        assert!(selection(&[]).unwrap().is_empty());
        let all: Vec<&str> = SECTIONS.iter().chain(&OTHER_NAMES).copied().collect();
        assert_eq!(selection(&args(&all)).unwrap(), all);
        assert_eq!(
            selection(&args(&["--json", "ckpt-store"])).unwrap(),
            vec!["ckpt-store"]
        );
    }

    #[test]
    fn selection_rejects_unknown_names_and_lists_the_valid_ones() {
        let message = selection(&args(&["ckpt-store", "no-such-section", "tabel3"])).unwrap_err();
        assert!(message.contains("no-such-section, tabel3"), "{message}");
        assert!(!message.contains("section(s): ckpt-store"), "{message}");
        for name in SECTIONS.iter().chain(&OTHER_NAMES) {
            assert!(message.contains(name), "{name} missing from: {message}");
        }
    }
}
