//! Codec comparison on the real checkpoint corpus: the in-tree LZ against the
//! RLE it replaced, measured on every proxy application's actual checkpoint
//! image rather than synthetic data.
//!
//! Each app runs on a small world through the full MANA stack, checkpointing
//! mid-run into the chunk store. The checkpointed images are then written into
//! two fresh stores — one configured with the new default codec
//! ([`ckpt_store::StorageConfig::default`]: LZ + XXH64), one with the legacy
//! configuration ([`ckpt_store::StorageConfig::legacy`]: RLE + FNV-1a) — and the
//! physically written bytes are compared. Both numbers are deterministic, so the
//! gate is exact and load-independent: **LZ must not write more bytes than RLE
//! for any app** (the LZ format's overlapping matches subsume RLE's runs, so a
//! loss means the encoder regressed).

use ckpt_store::{CheckpointStorage, StorageConfig, StoragePolicy};
use mana::{ManaConfig, ManaRank, Session};
use mana_apps::{run_app, AppId, RunConfig};
use mpi_model::api::MpiImplementationFactory;
use mpi_model::op::UserFunctionRegistry;
use parking_lot::RwLock;
use split_proc::image::CheckpointImage;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Ranks per corpus run.
pub const COMPRESSION_WORLD: usize = 2;
const ITERATIONS: u64 = 3;
const CHECKPOINT_AT: u64 = 2;
const STATE_SCALE: f64 = 2e-7;

/// One app's codec comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompressionRow {
    /// Application name.
    pub app: String,
    /// Flat-equivalent image payload across the world, bytes.
    pub logical_bytes: usize,
    /// Bytes physically written under the legacy RLE configuration.
    pub rle_bytes: usize,
    /// Bytes physically written under the default LZ configuration.
    pub lz_bytes: usize,
    /// `rle_bytes / lz_bytes` (>= 1.0 when LZ wins).
    pub lz_advantage: f64,
}

/// The corpus-wide codec comparison and its gate verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Per-app rows.
    pub rows: Vec<CompressionRow>,
    /// RLE bytes summed over the corpus.
    pub total_rle_bytes: usize,
    /// LZ bytes summed over the corpus.
    pub total_lz_bytes: usize,
    /// Corpus-wide `total_rle / total_lz`.
    pub lz_advantage: f64,
    /// Whether LZ wrote no more bytes than RLE for *every* app (the gate).
    pub pass: bool,
}

/// Checkpoint `app` on a fresh world and return the images read back from the
/// store — the same corpus construction the `codec_corpus` acceptance tests use.
pub(crate) fn checkpoint_app(app: AppId, session_id: u64) -> Vec<CheckpointImage> {
    let registry = Arc::new(RwLock::new(UserFunctionRegistry::new()));
    let storage = CheckpointStorage::unmetered();
    let lowers = mpich_sim::MpichFactory::mpich()
        .launch(COMPRESSION_WORLD, registry.clone(), session_id)
        .expect("launch corpus world");
    let handles: Vec<_> = lowers
        .into_iter()
        .map(|lower| {
            let registry = registry.clone();
            let config = RunConfig {
                iterations: ITERATIONS,
                state_scale: STATE_SCALE,
                checkpoint_at: Some(CHECKPOINT_AT),
                storage: Some(storage.clone()),
            };
            std::thread::spawn(move || {
                let mana_config =
                    ManaConfig::new_design().with_storage(StoragePolicy::IncrementalCompressed);
                let rank = ManaRank::new(lower, mana_config, registry).expect("wrap rank");
                let mut session = Session::new(rank);
                run_app(app, &mut session, &config).expect("corpus run");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("corpus rank");
    }
    let generation = *storage
        .generations()
        .last()
        .expect("the run checkpointed at least once");
    (0..COMPRESSION_WORLD)
        .map(|rank| storage.read(generation, rank as i32).expect("read image"))
        .collect()
}

/// Write `images` into a fresh store under `config` and return the physically
/// written bytes (deterministic for a given corpus).
fn written_under(config: StorageConfig, images: &[CheckpointImage]) -> usize {
    let store = CheckpointStorage::unmetered().with_config(config);
    images
        .iter()
        .map(|image| {
            store
                .write_image(StoragePolicy::IncrementalCompressed, image)
                .written_bytes
        })
        .sum()
}

/// Build the corpus, measure both codecs on it, and gate.
pub fn measure_compression_bench() -> CompressionReport {
    let rows: Vec<CompressionRow> = AppId::ALL
        .iter()
        .enumerate()
        .map(|(index, &app)| {
            let images = checkpoint_app(app, 9_000 + index as u64);
            let logical_bytes = images
                .iter()
                .map(|image| {
                    image
                        .upper_half
                        .iter()
                        .map(|(_, data)| data.len())
                        .sum::<usize>()
                })
                .sum();
            let rle_bytes = written_under(StorageConfig::legacy(), &images);
            let lz_bytes = written_under(StorageConfig::default(), &images);
            CompressionRow {
                app: app.name().to_string(),
                logical_bytes,
                rle_bytes,
                lz_bytes,
                lz_advantage: if lz_bytes > 0 {
                    rle_bytes as f64 / lz_bytes as f64
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect();
    let total_rle_bytes: usize = rows.iter().map(|r| r.rle_bytes).sum();
    let total_lz_bytes: usize = rows.iter().map(|r| r.lz_bytes).sum();
    let pass = rows.iter().all(|r| r.lz_bytes <= r.rle_bytes);
    CompressionReport {
        rows,
        total_rle_bytes,
        total_lz_bytes,
        lz_advantage: if total_lz_bytes > 0 {
            total_rle_bytes as f64 / total_lz_bytes as f64
        } else {
            f64::INFINITY
        },
        pass,
    }
}

/// Render an already-measured comparison as an aligned text note.
pub fn compression_note_from(report: &CompressionReport) -> String {
    let mut note = format!(
        "== Codec comparison: LZ (default) vs RLE (legacy) on the proxy-app \
         checkpoint corpus, {COMPRESSION_WORLD} ranks ==\n{:<8} {:>12} {:>12} {:>12} {:>10}\n",
        "app", "logical B", "RLE B", "LZ B", "LZ adv"
    );
    for row in &report.rows {
        note.push_str(&format!(
            "{:<8} {:>12} {:>12} {:>12} {:>9.2}x\n",
            row.app, row.logical_bytes, row.rle_bytes, row.lz_bytes, row.lz_advantage
        ));
    }
    note.push_str(&format!(
        "corpus total: RLE {} B, LZ {} B ({:.2}x) — LZ never loses to RLE: {}\n",
        report.total_rle_bytes,
        report.total_lz_bytes,
        report.lz_advantage,
        if report.pass { "PASS" } else { "FAIL" }
    ));
    note
}

/// Measure the corpus and render the note.
pub fn compression_note() -> String {
    compression_note_from(&measure_compression_bench())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lz_beats_rle_corpus_wide_and_renders() {
        let report = measure_compression_bench();
        assert!(report.pass, "LZ lost to RLE somewhere: {report:?}");
        assert_eq!(report.rows.len(), AppId::ALL.len());
        assert!(report.total_lz_bytes > 0);
        let note = compression_note_from(&report);
        assert!(note.contains("Codec comparison"));
        assert!(note.contains("PASS"));
    }
}
