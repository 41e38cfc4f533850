//! The traced run: per-layer metrics.
//!
//! A third of the time budget runs the workload untraced and a third runs it
//! traced (see `measure`); the difference in `steps_per_s` is the tracing overhead.
//! Then the call-mix probes and the codec replay run, and every span is written to
//! `.bench_out/trace-<workload>.json`.

use crate::callmix::{self, Call, Mix};
use crate::measure::{measure, CkptParts, Mode, Outcome, RestartParts, TracedJob};
use crate::report::Report;
use crate::spec::{median, Inputs, Workload, WORLD};
use crate::trace::Tracer;
use ckpt_store::codec::{compress_chunk, decode_chunk};
use ckpt_store::{CheckpointStorage, StorageConfig, DEFAULT_CHUNK_SIZE};
use mpi_model::error::MpiResult;
use split_proc::image::CheckpointImage;
use std::sync::Arc;
use std::time::Instant;

/// Steps of the call mix through MANA on two ranks, and natively.
const MIX_STEPS: u64 = 1000;
/// Steps of the call mix through MANA on one rank (the crossing baseline).
const MIX_STEPS_ONE_RANK: u64 = 300;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-image codec replay times (ms) over the dirty regions' 64 KiB chunks.
#[derive(Debug, Default)]
struct Replay {
    digest_ms: Vec<f64>,
    compress_ms: Vec<f64>,
    decompress_ms: Vec<f64>,
    chunks: usize,
    mismatches: usize,
}

/// Re-run the store's digest, compressor and decoder over the chunks the traced
/// checkpoints wrote, checking every chunk decodes to its original bytes.
fn codec_replay(images: &[CheckpointImage], config: StorageConfig) -> Replay {
    let mut replay = Replay::default();
    for image in images {
        let upper = &image.upper_half;
        let (mut digest, mut compress, mut decompress) = (0.0, 0.0, 0.0);
        for (name, data) in upper.iter() {
            if !upper.is_dirty(name) {
                continue;
            }
            for chunk in data.chunks(DEFAULT_CHUNK_SIZE) {
                let t0 = Instant::now();
                let key = config.digest.hash(chunk);
                let t1 = Instant::now();
                let (stored, form) = compress_chunk(config.codec, chunk);
                let t2 = Instant::now();
                let decoded = decode_chunk(form, &stored, chunk.len());
                let t3 = Instant::now();
                digest += (t1 - t0).as_secs_f64() * 1e3;
                compress += (t2 - t1).as_secs_f64() * 1e3;
                decompress += (t3 - t2).as_secs_f64() * 1e3;
                replay.chunks += 1;
                let intact = decoded
                    .map(|bytes| bytes == chunk && config.digest.hash(&bytes) == key)
                    .unwrap_or(false);
                if !intact {
                    replay.mismatches += 1;
                }
            }
        }
        replay.digest_ms.push(digest);
        replay.compress_ms.push(compress);
        replay.decompress_ms.push(decompress);
    }
    replay
}

fn pooled(mixes: &[Mix], pick: impl Fn(&Mix) -> &[f64]) -> f64 {
    let all: Vec<f64> = mixes.iter().flat_map(|m| pick(m).iter().copied()).collect();
    median(&all)
}

fn pooled_call(mixes: &[Mix], call: Call) -> f64 {
    pooled(mixes, |m| m.call_us.get(&call).map_or(&[][..], |v| &v[..]))
}

fn crossings_per_call(mixes: &[Mix]) -> f64 {
    let crossings: u64 = mixes.iter().map(|m| m.crossings).sum();
    let calls: u64 = mixes.iter().map(|m| m.calls).sum();
    crossings as f64 / calls.max(1) as f64
}

fn med<T>(items: &[T], pick: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(pick).collect::<Vec<_>>())
}

pub fn run(workload: &Workload, inputs: &Inputs, seconds: f64) -> MpiResult<Report> {
    let tracer = Arc::new(Tracer::new(workload.name));
    let share = seconds / 3.0;
    let untraced = measure(workload, inputs, share, 1, &Mode::Untraced)?;
    let traced = measure(
        workload,
        inputs,
        share,
        1,
        &Mode::Traced(TracedJob::new(Arc::clone(&tracer))),
    )?;
    let mana = callmix::through_mana(workload, WORLD, MIX_STEPS, &tracer)?;
    let mana_one = callmix::through_mana(workload, 1, MIX_STEPS_ONE_RANK, &tracer)?;
    let native = callmix::native(workload, MIX_STEPS, &tracer)?;
    let replay = codec_replay(&traced.images, CheckpointStorage::unmetered().config());

    let mut report = Report {
        attempted: untraced.attempted + traced.attempted + traced.images.len() as u64,
        ..Report::default()
    };
    report.failures.extend(untraced.failures.iter().cloned());
    report.failures.extend(traced.failures.iter().cloned());
    if replay.mismatches > 0 {
        report.failures.push(format!(
            "codec replay: {} of {} chunks did not decode to their original bytes",
            replay.mismatches, replay.chunks
        ));
    }

    let measured = Measured {
        tracer: &tracer,
        untraced: &untraced,
        traced: &traced,
        mana: &mana,
        mana_one: &mana_one,
        native: &native,
        replay: &replay,
    };
    push_metrics(&mut report, &measured);
    explain(&mut report, workload, &measured);
    report.lines.extend(tracer.self_time_table());
    let path = std::path::PathBuf::from(".bench_out").join(format!("trace-{}.json", workload.name));
    match tracer.write_json(&path) {
        Ok(()) => report.lines.push(format!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(error) => report
            .failures
            .push(format!("could not write {}: {error}", path.display())),
    }
    report.failed = (report.failures.len() as u64).min(report.attempted);
    Ok(report)
}

/// Everything the traced run measured.
struct Measured<'a> {
    tracer: &'a Tracer,
    untraced: &'a Outcome,
    traced: &'a Outcome,
    mana: &'a [Mix],
    mana_one: &'a [Mix],
    native: &'a [Mix],
    replay: &'a Replay,
}

fn push_metrics(report: &mut Report, m: &Measured) {
    let Measured {
        tracer,
        untraced,
        traced,
        mana,
        mana_one,
        native,
        replay,
    } = *m;
    let ckpt: &[CkptParts] = &traced.ckpt_parts;
    let restarts: &[RestartParts] = &traced.restart_parts;
    let launches: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "job-runtime.launch")
        .map(|s| s.ms())
        .collect();
    report.push("job-runtime.launch_ms", "ms", median(&launches));
    report.push("job-runtime.commit_ms", "ms", med(ckpt, |p| p.commit));

    report.push("mana.send_us_p50", "us", pooled_call(mana, Call::Send));
    report.push("mana.recv_us_p50", "us", pooled_call(mana, Call::Recv));
    report.push(
        "mana.allreduce_us_p50",
        "us",
        pooled_call(mana, Call::Allreduce),
    );
    report.push(
        "mana.alltoall_us_p50",
        "us",
        pooled_call(mana, Call::Alltoall),
    );
    let mana_step = pooled(mana, |m| &m.step_us);
    report.push("mana.step_us_p50", "us", mana_step);
    let (two, one) = (crossings_per_call(mana), crossings_per_call(mana_one));
    report.push("mana.crossings_per_call", "count", two);
    report.push("mana.crossings_per_call_1rank", "count", one);
    report.push("mana.registration_polls_per_call", "count", two - one);

    let native_step = pooled(native, |m| &m.step_us);
    report.push("mpi-engine.step_us_p50", "us", native_step);
    report.push(
        "mpi-engine.allreduce_us_p50",
        "us",
        pooled_call(native, Call::Allreduce),
    );
    report.push(
        "mpi-engine.recv_us_p50",
        "us",
        pooled_call(native, Call::Recv),
    );
    report.push(
        "mana.overhead_pct",
        "%",
        100.0 * (mana_step - native_step) / native_step.max(1e-9),
    );

    let fabric = mana.iter().find_map(|m| m.fabric).unwrap_or_default();
    let steps = MIX_STEPS as f64;
    let payload = (fabric.bytes_sent + fabric.collective_bytes) as f64;
    report.push(
        "net-sim.messages_per_step",
        "count",
        fabric.messages_sent as f64 / steps,
    );
    report.push("net-sim.bytes_per_step", "B", payload / steps);
    report.push(
        "net-sim.collective_rounds_per_step",
        "count",
        fabric.collective_rounds as f64 / steps,
    );
    report.push(
        "net-sim.bytes_copied_ratio",
        "ratio",
        fabric.bytes_copied as f64 / payload.max(1.0),
    );

    report.push("mana.quiesce_ms", "ms", med(ckpt, |p| p.quiesce));
    report.push("mana.drain_ms", "ms", med(ckpt, |p| p.drain));
    report.push("mana.snapshot_ms", "ms", med(ckpt, |p| p.snapshot));
    report.push("ckpt-store.write_ms", "ms", med(ckpt, |p| p.write));
    report.push(
        "ckpt-store.write_mib_s",
        "MiB/s",
        med(ckpt, |p| {
            p.report.logical_bytes as f64 / MIB / (p.write / 1e3).max(1e-9)
        }),
    );
    report.push("ckpt-store.read_ms", "ms", med(restarts, |r| r.read));
    report.push(
        "ckpt-store.read_mib_s",
        "MiB/s",
        med(restarts, |r| {
            r.read_bytes as f64 / MIB / (r.read / 1e3).max(1e-9)
        }),
    );
    report.push("mana.rebuild_ms", "ms", med(restarts, |r| r.rebuild));
    report.push(
        "mana.descriptors_replayed",
        "count",
        med(restarts, |r| r.descriptors as f64),
    );

    let stores = &traced.store_reports;
    let logical = med(stores, |r| r.logical_bytes as f64);
    let written = med(stores, |r| r.written_bytes as f64);
    report.push("ckpt-store.logical_bytes", "B", logical);
    report.push("ckpt-store.written_bytes", "B", written);
    report.push(
        "ckpt-store.chunks_new",
        "count",
        med(stores, |r| r.chunks_new as f64),
    );
    report.push(
        "ckpt-store.chunks_reused",
        "count",
        med(stores, |r| r.chunks_reused as f64),
    );
    report.push(
        "ckpt-store.regions_reused",
        "count",
        med(stores, |r| r.regions_reused as f64),
    );
    report.push(
        "ckpt-store.compression_saved_bytes",
        "B",
        med(stores, |r| r.compression_saved_bytes as f64),
    );
    report.push("ckpt-store.reduction", "ratio", logical / written.max(1.0));

    report.push("ckpt-store.digest_ms", "ms", median(&replay.digest_ms));
    report.push("ckpt-store.compress_ms", "ms", median(&replay.compress_ms));
    report.push(
        "ckpt-store.decompress_ms",
        "ms",
        median(&replay.decompress_ms),
    );

    report.push("trace.ckpt_stall_ms", "ms", med(ckpt, |p| p.total));
    report.push("trace.ckpt_residual_ms", "ms", med(ckpt, |p| p.residual()));
    report.push("trace.restart_ms", "ms", med(restarts, |r| r.total));
    report.push(
        "trace.restart_residual_ms",
        "ms",
        med(restarts, |r| r.residual()),
    );
    let (plain, spanned) = (untraced.steps_per_s(), traced.steps_per_s());
    report.push(
        "trace.overhead_pct",
        "%",
        100.0 * (plain - spanned) / plain.max(1e-9),
    );
}

/// The human-readable part: every metric with its unit, then how the checkpoint
/// and restart parts add up to their end-to-end times.
fn explain(report: &mut Report, workload: &Workload, m: &Measured) {
    let Measured {
        untraced,
        traced,
        mana,
        native,
        replay,
        ..
    } = *m;
    let mut lines = Vec::new();
    for metric in &report.metrics {
        let label = match metric.name {
            "ckpt-store.digest_ms" | "ckpt-store.compress_ms" | "ckpt-store.decompress_ms" => {
                "  (replay)"
            }
            "mana.alltoall_us_p50" if mana.iter().any(|m| m.alltoall_calibrated) => {
                "  (calibration: the profile issues no all-to-all)"
            }
            _ => "",
        };
        lines.push(format!(
            "  {:<36} {:>14.4} {}{label}",
            metric.name, metric.value, metric.unit
        ));
    }
    let ckpt = &traced.ckpt_parts;
    if !ckpt.is_empty() {
        lines.push(format!(
            "  checkpoint (slowest rank, medians of {}{}): {:.3} ms = quiesce {:.3} + drain {:.3} \
             + snapshot {:.3} + write {:.3} + commit {:.3} + residual {:.3}",
            ckpt.len(),
            if workload.kind == crate::spec::Kind::CallBound {
                ", probe after the timed loop"
            } else {
                ""
            },
            med(ckpt, |p| p.total),
            med(ckpt, |p| p.quiesce),
            med(ckpt, |p| p.drain),
            med(ckpt, |p| p.snapshot),
            med(ckpt, |p| p.write),
            med(ckpt, |p| p.commit),
            med(ckpt, |p| p.residual()),
        ));
    }
    let restarts = &traced.restart_parts;
    if !restarts.is_empty() {
        lines.push(format!(
            "  restart (medians of {}): {:.3} ms = launch {:.3} + read {:.3} + rebuild {:.3} \
             + residual {:.3}",
            restarts.len(),
            med(restarts, |r| r.total),
            med(restarts, |r| r.launch),
            med(restarts, |r| r.read),
            med(restarts, |r| r.rebuild),
            med(restarts, |r| r.residual()),
        ));
    }
    lines.push(format!(
        "  steps_per_s untraced {:.2} vs traced {:.2} ({} vs {} steps)",
        untraced.steps_per_s(),
        traced.steps_per_s(),
        untraced.steps(),
        traced.steps()
    ));
    lines.push(format!(
        "  call mix: {MIX_STEPS} steps on {} ranks through MANA and natively; codec replay \
         over {} chunks of {} images",
        mana.len().max(native.len()),
        replay.chunks,
        replay.digest_ms.len()
    ));
    report.lines.extend(lines);
}
