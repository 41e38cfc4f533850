//! # ckpt-store
//!
//! An incremental, content-addressed checkpoint storage engine for the MANA
//! reproduction — the subsystem behind the paper's Table 3 observation that checkpoint
//! cost is dominated by how many bytes reach the filesystem.
//!
//! The flat [`split_proc::store::CheckpointStore`] writes every rank's complete image
//! every generation. This engine instead decomposes an image into content-defined chunks
//! addressed by content digest and shares them across generations and ranks:
//!
//! * **Chunk store** ([`chunk`]) — content-defined chunking (gear-hash cuts, each
//!   chunk between a quarter of the chunk size and the chunk size), 64-bit content digests,
//!   reference-counted chunk entries, optional per-chunk compression. A chunk
//!   whose digest is already stored costs zero new bytes, whoever wrote it first.
//! * **Codec selection** ([`codec`]) — which compressor (RLE or the in-tree LZ) and
//!   which digest (FNV-1a/64 or XXH64) writes use, via
//!   [`CheckpointStorage::with_config`]. Reads are config-independent: every
//!   manifest records the digest and per-chunk stored form it was written with, so
//!   images from any earlier configuration restore bit-identically
//!   ([`StorageConfig::legacy`] writes the pre-codec RLE + FNV-1a version-1
//!   manifests, which every reader restores).
//! * **Dirty-region tracking** — [`split_proc::address_space::UpperHalfSpace`] records
//!   which regions were touched since the previous checkpoint epoch; clean regions are
//!   re-referenced from the previous generation's manifest without even re-hashing
//!   their data.
//! * **Manifests** ([`manifest`]) — per `(generation, rank)` a CRC-32-validated
//!   description of how to reassemble the image from chunks. Corruption or truncation
//!   of a manifest *or any chunk* is detected at read time, so restart can fall back
//!   to the newest generation that still validates end-to-end.
//! * **Generation GC** — pruning a generation decrements chunk refcounts and frees
//!   chunks no surviving generation references. The newest committed generation and
//!   any generation with a flush in flight are never pruned, whatever the cutoff.
//! * **Asynchronous flush** ([`flush`]) — a [`FlusherPool`] writes frozen images off
//!   the ranks' critical path; generations move through a *pending → committed*
//!   state so a half-flushed generation is never visible to readers or restart.
//! * **Tenant views** ([`CheckpointStorage::tenant_view`]) — additional catalog
//!   namespaces over one shared chunk space: each tenant's generations, reads and
//!   GC are isolated, while identical chunks written by different tenants are
//!   stored once (the multi-tenant service in `ckpt-service` builds on this).
//! * **Cold tier** ([`tier`]) — least-recently-referenced chunks can be spilled to
//!   CRC-framed files ([`CheckpointStorage::spill_over`]) and are transparently
//!   promoted — with CRC re-validation — when a read needs them.
//!
//! The engine is selected through [`StoragePolicy`] (a `ManaConfig` knob in the MANA
//! layer): `FullImage` preserves the legacy flat-image baseline — mirroring the
//! paper's legacy-vs-new-design methodology — while `Incremental` and
//! `IncrementalCompressed` exercise the new path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod codec;
pub mod flush;
pub mod manifest;
pub mod store;
pub mod tier;

pub use chunk::{ChunkRef, DEFAULT_CHUNK_SIZE};
pub use codec::{Codec, Digest, StorageConfig, StoredForm};
pub use flush::{FlushHandle, FlusherPool};
pub use manifest::{Manifest, RegionManifest};
pub use store::{
    CheckpointStorage, PruneReport, ShardStats, SpillReport, StorageStats, StoreReport,
    DEFAULT_SHARD_COUNT,
};
pub use tier::ColdTier;

use serde::{Deserialize, Serialize};

/// How a rank's checkpoint image is written to storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoragePolicy {
    /// The legacy baseline: one flat, CRC-validated image per `(generation, rank)`,
    /// with no sharing across generations. Mirrors what the flat
    /// `split_proc::store::CheckpointStore` wrote.
    FullImage,
    /// Content-addressed chunking with dirty-region reuse: only regions touched since
    /// the previous generation are re-chunked, and only chunks whose digest is new
    /// reach storage.
    Incremental,
    /// [`StoragePolicy::Incremental`] plus per-chunk compression under the store's
    /// configured [`Codec`] (kept only when it actually shrinks the chunk).
    IncrementalCompressed,
}

impl StoragePolicy {
    /// Short label used by benches and the harness.
    pub fn label(self) -> &'static str {
        match self {
            StoragePolicy::FullImage => "full",
            StoragePolicy::Incremental => "incremental",
            StoragePolicy::IncrementalCompressed => "incremental+comp",
        }
    }

    /// Whether this policy uses the chunked incremental path.
    pub fn is_incremental(self) -> bool {
        !matches!(self, StoragePolicy::FullImage)
    }

    /// Whether chunks are candidates for compression.
    pub fn compresses(self) -> bool {
        matches!(self, StoragePolicy::IncrementalCompressed)
    }
}
