//! The checkpoint storage engine: ref-counted chunk store + manifests + full-image
//! blobs, shared by all ranks of a job (clone-shared, like the flat store).

use crate::chunk::{for_each_chunk, ChunkRef, DEFAULT_CHUNK_SIZE};
use crate::codec::{compress_chunk, decode_chunk, StorageConfig, StoredForm};
use crate::manifest::{Manifest, RegionManifest};
use crate::tier::ColdTier;
use crate::StoragePolicy;
use mpi_model::error::{MpiError, MpiResult};
use mpi_model::payload::PayloadBuf;
use mpi_model::types::Rank;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use split_proc::image::CheckpointImage;
use split_proc::store::StoreConfig;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// What one checkpoint write cost, physically and logically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreReport {
    /// Checkpoint generation written.
    pub generation: u64,
    /// Rank whose image was written.
    pub rank: Rank,
    /// Policy in force for this write.
    pub policy: StoragePolicy,
    /// Uncompressed upper-half payload bytes (the size a flat image's regions occupy
    /// regardless of policy) — the "logical" checkpoint size of Table 3.
    pub logical_bytes: usize,
    /// Bytes that actually reached storage: new chunk payloads (post-compression)
    /// plus the manifest, or the whole flat image under `FullImage`.
    pub written_bytes: usize,
    /// Bytes of the manifest itself (0 for `FullImage`).
    pub manifest_bytes: usize,
    /// Chunks newly stored by this write.
    pub chunks_new: usize,
    /// Chunks re-referenced from content already in the store.
    pub chunks_reused: usize,
    /// Regions whose chunk lists were reused wholesale via dirty-region tracking.
    pub regions_reused: usize,
    /// Bytes saved by compression on the chunks this write stored.
    pub compression_saved_bytes: usize,
    /// Modelled write time for `written_bytes` (0 when unmetered).
    pub write_time_s: f64,
}

impl StoreReport {
    /// `logical / written`: how many times smaller this write was than a flat image
    /// of the same upper half (1.0 ≈ no savings).
    pub fn reduction_factor(&self) -> f64 {
        if self.written_bytes == 0 {
            f64::INFINITY
        } else {
            self.logical_bytes as f64 / self.written_bytes as f64
        }
    }

    /// Effective bandwidth in MB/s measured against the bytes actually written, or
    /// `None` for an unmetered store (no write-time model, so no bandwidth exists —
    /// reporting `0 MB/s` would be a lie, not a measurement).
    pub fn effective_bandwidth_mb_s(&self) -> Option<f64> {
        if self.write_time_s > 0.0 {
            Some(self.written_bytes as f64 / 1.0e6 / self.write_time_s)
        } else {
            None
        }
    }

    /// View as the flat store's report type (image size = bytes written), for callers
    /// that predate the engine. An unmetered write carries `None` bandwidth — not a
    /// fabricated `0 MB/s` — so downstream reports can skip the column honestly.
    pub fn to_write_report(&self) -> split_proc::store::WriteReport {
        split_proc::store::WriteReport {
            bytes: self.written_bytes,
            write_time_s: self.write_time_s,
            effective_bandwidth_mb_s: self.effective_bandwidth_mb_s(),
        }
    }
}

/// What one [`CheckpointStorage::prune_before`] sweep did — and, as important, what
/// it deliberately did **not** do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// **Physical** chunk payload bytes freed by the sweep: stored bytes of chunks
    /// whose reference count reached zero. With cross-tenant dedup this can be far
    /// smaller than [`logical_freed_bytes`](PruneReport::logical_freed_bytes) — a
    /// pruned generation whose chunks are still referenced by another generation (or
    /// another tenant's manifests) only drops reference counts.
    pub freed_bytes: usize,
    /// **Logical** bytes released by the sweep: the uncompressed upper-half payload
    /// size of every `(generation, rank)` slot dropped, regardless of whether the
    /// underlying chunks were shared. This is the number quota accounting wants.
    pub logical_freed_bytes: usize,
    /// Generations whose checkpoints were dropped, ascending.
    pub pruned: Vec<u64>,
    /// Generations older than the cutoff that were *kept*: the newest committed
    /// generation (the job's only restart point) and any generation still pending
    /// (a flush in flight must never have its chunks deleted under it), ascending.
    pub retained: Vec<u64>,
}

/// Occupancy of one digest-keyed chunk shard — the real numbers the service's
/// tiering and GC decisions are driven by, not a recomputation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Distinct chunks resident in this shard (hot or cold).
    pub chunk_count: usize,
    /// Stored bytes held by this shard's chunks, hot and cold combined.
    pub stored_bytes: usize,
    /// Stored bytes resident in memory (hot payloads).
    pub hot_bytes: usize,
    /// Chunks whose payload currently lives in the cold tier.
    pub cold_chunks: usize,
    /// Sum of reference counts across this shard's chunks.
    pub refcount_total: u64,
}

/// Aggregate occupancy of the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageStats {
    /// Distinct chunks held.
    pub chunk_count: usize,
    /// Bytes held by chunk payloads (stored form), hot and cold combined.
    pub chunk_bytes: usize,
    /// Chunk payload bytes resident in memory (the hot set).
    pub hot_bytes: usize,
    /// Chunks whose payload currently lives in the cold tier.
    pub cold_chunk_count: usize,
    /// Chunk payload bytes currently spilled to the cold tier.
    pub cold_bytes: usize,
    /// Sum of chunk reference counts across all shards.
    pub refcount_total: u64,
    /// Chunk fetches served by promoting a cold-tier payload (lifetime counter).
    pub cold_hits: u64,
    /// Total chunk fetches on the read path (lifetime counter, hot + cold).
    pub chunk_reads: u64,
    /// Chunks demoted to the cold tier over the store's lifetime.
    pub spilled_chunks: u64,
    /// Stored bytes demoted to the cold tier over the store's lifetime.
    pub spilled_bytes: u64,
    /// Per-shard occupancy, in shard order.
    pub shards: Vec<ShardStats>,
    /// Manifests held.
    pub manifest_count: usize,
    /// Bytes held by encoded manifests.
    pub manifest_bytes: usize,
    /// Flat images held (FullImage policy writes).
    pub full_image_count: usize,
    /// Bytes held by flat images.
    pub full_image_bytes: usize,
}

impl StorageStats {
    /// Total bytes resident in the store (in memory or spilled).
    pub fn total_bytes(&self) -> usize {
        self.chunk_bytes + self.manifest_bytes + self.full_image_bytes
    }

    /// Fraction of chunk fetches served by promoting from the cold tier, or 0.0
    /// when nothing has been read yet.
    pub fn cold_hit_rate(&self) -> f64 {
        if self.chunk_reads == 0 {
            0.0
        } else {
            self.cold_hits as f64 / self.chunk_reads as f64
        }
    }
}

/// What one [`CheckpointStorage::spill_over`] pass demoted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Chunks demoted to the cold tier by this pass.
    pub spilled_chunks: usize,
    /// Stored bytes demoted by this pass.
    pub spilled_bytes: usize,
    /// Hot bytes resident after the pass.
    pub hot_bytes: usize,
}

/// Where a chunk's stored payload currently lives.
enum ChunkPayload {
    /// Resident in memory. A [`PayloadBuf`], so reads hand the stored bytes out as
    /// a refcount bump on this allocation instead of a copy per read.
    Hot(PayloadBuf),
    /// Demoted to the cold tier; fetched (and CRC-revalidated) on next read.
    Cold,
}

struct ChunkEntry {
    refs: u64,
    payload: ChunkPayload,
    /// Length of the stored form (kept even while the payload is cold).
    stored_len: u32,
    /// The form the stored bytes take — mirrored into every [`ChunkRef`] that
    /// references this entry.
    form: StoredForm,
    /// Last-referenced tick from the store's LRU clock; spill candidates are the
    /// chunks with the oldest touch.
    touch: u64,
}

/// Counters and tiering state shared by every tenant view of one chunk space.
struct TierState {
    cold: Option<ColdTier>,
    /// Monotonic LRU clock; bumped on every chunk reference.
    clock: AtomicU64,
    hot_bytes: AtomicUsize,
    cold_hits: AtomicU64,
    chunk_reads: AtomicU64,
    spilled_chunks: AtomicU64,
    spilled_bytes: AtomicU64,
}

impl Default for TierState {
    fn default() -> Self {
        TierState {
            cold: None,
            clock: AtomicU64::new(0),
            hot_bytes: AtomicUsize::new(0),
            cold_hits: AtomicU64::new(0),
            chunk_reads: AtomicU64::new(0),
            spilled_chunks: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
        }
    }
}

/// Number of digest-keyed chunk shards a store carves its content-addressed space
/// into. Concurrent rank writes land on different shards with high probability, so an
/// 8-rank coordinated checkpoint no longer serializes on one global lock.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One digest-keyed slice of the content-addressed chunk space, behind its own lock.
#[derive(Default)]
struct ChunkShard {
    /// Content-addressed chunks, keyed by `(digest, raw_len)`.
    chunks: HashMap<(u64, u32), ChunkEntry>,
}

/// The per-job checkpoint catalog: which `(generation, rank)` slots exist and the
/// encoded bytes of their manifests or flat images. Held separately from the chunk
/// shards (and its lock is never held while a shard lock is taken), so catalog
/// lookups and chunk traffic never contend with each other.
#[derive(Default)]
struct Catalog {
    /// Encoded manifests per `(generation, rank)` — kept encoded so every read
    /// re-validates the CRC, exactly like a file on a checkpoint filesystem.
    manifests: BTreeMap<(u64, Rank), Vec<u8>>,
    /// Flat images per `(generation, rank)` (FullImage policy).
    full_images: BTreeMap<(u64, Rank), Vec<u8>>,
}

/// One generation announced as in flight by an asynchronous flush: which ranks'
/// flushes have landed so far, out of how many the commit needs.
struct PendingGeneration {
    expected_ranks: usize,
    flushed: BTreeSet<Rank>,
    /// Tombstone: the round was aborted. The entry stays (keeping the generation
    /// invisible) so a straggler flush that lands *after* the abort is released on
    /// arrival instead of surfacing a slot of a dead round.
    aborted: bool,
}

/// The storage engine. Cloning shares the underlying store (all ranks of a job write
/// into one engine, which is what makes cross-rank chunk dedup possible).
///
/// Internally the chunk space is split into [`DEFAULT_SHARD_COUNT`] digest-keyed
/// shards, each behind its own lock, so the parallel per-rank writes of a coordinated
/// checkpoint proceed concurrently instead of queueing on one global mutex.
///
/// Generations move through a **pending → committed** state: a generation announced
/// via [`begin_generation`](CheckpointStorage::begin_generation) (the asynchronous
/// flush path) stays invisible to [`generations`](CheckpointStorage::generations),
/// [`read`](CheckpointStorage::read) and therefore
/// [`latest_valid_images`](CheckpointStorage::latest_valid_images) until every rank's
/// flush has landed. Synchronous writes never enter the pending state and are visible
/// immediately, exactly as before.
#[derive(Clone)]
pub struct CheckpointStorage {
    shards: Arc<Vec<Mutex<ChunkShard>>>,
    catalog: Arc<Mutex<Catalog>>,
    /// Generations announced but not yet fully flushed. Locked on its own, never
    /// while the catalog or a shard lock is held.
    pending: Arc<Mutex<BTreeMap<u64, PendingGeneration>>>,
    /// Cold tier + LRU clock + occupancy counters, shared by every clone and every
    /// tenant view of this chunk space.
    tier: Arc<TierState>,
    model: Option<StoreConfig>,
    /// Codec + digest selection for *writes*. Reads are config-independent: they
    /// decode by what each manifest records, which is what lets a store restore
    /// images written under any earlier configuration.
    config: StorageConfig,
    chunk_size: usize,
}

impl Default for CheckpointStorage {
    fn default() -> Self {
        CheckpointStorage::unmetered()
    }
}

impl std::fmt::Debug for CheckpointStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CheckpointStorage")
            .field("chunks", &stats.chunk_count)
            .field("manifests", &stats.manifest_count)
            .field("full_images", &stats.full_image_count)
            .field("total_bytes", &stats.total_bytes())
            .finish()
    }
}

impl CheckpointStorage {
    /// An unmetered engine (write time reported as zero) with the default chunk size
    /// and shard count.
    pub fn unmetered() -> Self {
        CheckpointStorage {
            shards: Arc::new((0..DEFAULT_SHARD_COUNT).map(|_| Mutex::default()).collect()),
            catalog: Arc::new(Mutex::new(Catalog::default())),
            pending: Arc::new(Mutex::new(BTreeMap::new())),
            tier: Arc::new(TierState::default()),
            model: None,
            config: StorageConfig::default(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }

    /// An engine whose write times follow the given filesystem model, applied to the
    /// bytes each write physically stores (incremental checkpoints therefore finish
    /// proportionally faster, which is the whole point).
    pub fn with_model(model: StoreConfig) -> Self {
        CheckpointStorage {
            model: Some(model),
            ..CheckpointStorage::unmetered()
        }
    }

    /// Override the chunk size — the largest chunk a content-defined cut may produce;
    /// chunks are at least a quarter of it (mainly for tests and benches).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.clamp(1, u32::MAX as usize);
        self
    }

    /// Override the codec/digest selection for subsequent writes.
    /// [`StorageConfig::legacy`] writes RLE + FNV-1a version-1 manifests, which every
    /// reader restores; reads always follow each manifest's own record, so images
    /// written under a different configuration restore unchanged.
    pub fn with_config(mut self, config: StorageConfig) -> Self {
        self.config = config;
        self
    }

    /// The codec/digest selection writes currently use.
    pub fn config(&self) -> StorageConfig {
        self.config
    }

    /// Override the number of digest-keyed chunk shards. `1` reproduces the old
    /// single-lock engine (the serialized baseline the Table 3 bench compares
    /// against); the default is [`DEFAULT_SHARD_COUNT`].
    ///
    /// Must be called before the store is shared (cloned): it rebuilds the shard set.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Arc::new((0..shards.max(1)).map(|_| Mutex::default()).collect());
        self
    }

    /// Attach a cold tier: least-recently-referenced chunks can then be demoted to
    /// file-backed storage by [`spill_over`](CheckpointStorage::spill_over) and are
    /// transparently promoted (CRC-revalidated) on read.
    ///
    /// Must be called before the store is shared (cloned or viewed): it rebuilds the
    /// shared tier state, so earlier occupancy counters are reset.
    pub fn with_cold_tier(mut self, cold: ColdTier) -> Self {
        self.tier = Arc::new(TierState {
            cold: Some(cold),
            ..TierState::default()
        });
        self
    }

    /// Whether a cold tier is attached.
    pub fn has_cold_tier(&self) -> bool {
        self.tier.cold.is_some()
    }

    /// A new catalog namespace over the **same** content-addressed chunk space.
    ///
    /// The view shares the chunk shards (and their reference counts), the cold tier,
    /// the LRU clock and the write-time model with `self`, but has a fresh, empty
    /// catalog and pending table. This is the tenancy primitive of the multi-tenant
    /// checkpoint service: every tenant writes generations and manifests into its own
    /// namespace — `generations`, `read`, `prune_before`, `latest_valid_images` are
    /// all per-tenant — while identical chunks written by different tenants are
    /// stored once. Shared reference counts make cross-tenant GC safe: a tenant
    /// pruning its generations only frees chunks no other tenant references.
    ///
    /// Configure the store (`with_shards`, `with_chunk_size`, `with_cold_tier`)
    /// **before** creating views; views snapshot the configuration.
    pub fn tenant_view(&self) -> CheckpointStorage {
        CheckpointStorage {
            shards: Arc::clone(&self.shards),
            catalog: Arc::new(Mutex::new(Catalog::default())),
            pending: Arc::new(Mutex::new(BTreeMap::new())),
            tier: Arc::clone(&self.tier),
            model: self.model,
            config: self.config,
            chunk_size: self.chunk_size,
        }
    }

    /// Number of digest-keyed chunk shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Chunk payload bytes currently resident in memory (the hot set).
    pub fn hot_bytes(&self) -> usize {
        self.tier.hot_bytes.load(Ordering::Relaxed)
    }

    /// Next tick of the shared LRU clock.
    fn tick(&self) -> u64 {
        self.tier.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Decrease the hot-byte counter (saturating — defensive against double frees).
    fn sub_hot(&self, bytes: usize) {
        let _ = self
            .tier
            .hot_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                Some(current.saturating_sub(bytes))
            });
    }

    /// The shard a chunk digest routes to.
    fn shard(&self, digest: u64) -> &Mutex<ChunkShard> {
        &self.shards[(digest % self.shards.len() as u64) as usize]
    }

    /// Increment the reference count of `key` if the chunk is resident, returning its
    /// stored form `(stored_len, form)` when it was.
    fn bump_chunk_ref(&self, key: (u64, u32)) -> Option<(u32, StoredForm)> {
        let now = self.tick();
        let mut shard = self.shard(key.0).lock();
        shard.chunks.get_mut(&key).map(|entry| {
            entry.refs += 1;
            entry.touch = now;
            (entry.stored_len, entry.form)
        })
    }

    /// Decrement the reference count of `key` (undo of a bump that must not stand).
    fn release_chunk_ref(&self, key: (u64, u32)) {
        let mut shard = self.shard(key.0).lock();
        if let Some(entry) = shard.chunks.get_mut(&key) {
            entry.refs = entry.refs.saturating_sub(1);
        }
    }

    /// Re-reference every chunk of a previous generation's region, all or nothing:
    /// returns `false` (with any partial bumps released) if a chunk is no longer
    /// resident — a concurrent prune freed it after the manifest was snapshotted.
    fn bump_region_refs(&self, region: &RegionManifest) -> bool {
        for (position, chunk) in region.chunks.iter().enumerate() {
            if self.bump_chunk_ref(chunk.key()).is_none() {
                for taken in &region.chunks[..position] {
                    self.release_chunk_ref(taken.key());
                }
                return false;
            }
        }
        true
    }

    /// Remove whatever `(generation, rank)` currently holds, decrementing the chunk
    /// references a removed manifest owned. Zero-ref chunks stay resident until the
    /// next `prune_before` sweep (or are immediately re-referenced by a rewrite).
    /// Returns the **logical** bytes the slot represented (the uncompressed
    /// upper-half payload size), so GC paths can report logical and physical frees
    /// separately.
    ///
    /// Best effort on an undecodable manifest: it cannot tell us which chunks to
    /// release, so its chunks leak until the store is dropped (and its logical size
    /// is unknowable, reported as 0).
    fn release_slot(&self, generation: u64, rank: Rank) -> usize {
        let (full_image, manifest) = {
            let mut catalog = self.catalog.lock();
            (
                catalog.full_images.remove(&(generation, rank)),
                catalog.manifests.remove(&(generation, rank)),
            )
        };
        let mut logical = full_image.map_or(0, |bytes| bytes.len());
        if let Some(manifest) = manifest.and_then(|bytes| Manifest::decode(&bytes).ok()) {
            logical += manifest
                .regions
                .iter()
                .map(|region| region.len as usize)
                .sum::<usize>();
            for chunk in manifest.chunk_refs() {
                let mut shard = self.shard(chunk.digest).lock();
                if let Some(entry) = shard.chunks.get_mut(&chunk.key()) {
                    entry.refs = entry.refs.saturating_sub(1);
                }
            }
        }
        logical
    }

    // ------------------------------------------------------------------
    // Pending-generation lifecycle (asynchronous flush)
    // ------------------------------------------------------------------

    /// Announce `generation` as in flight: an asynchronous flush of a
    /// `expected_ranks`-rank job is about to write its images. Until
    /// [`note_rank_flushed`](CheckpointStorage::note_rank_flushed) has seen every
    /// rank (or [`commit_generation`](CheckpointStorage::commit_generation) forces
    /// it), the generation is invisible to readers and protected from
    /// [`prune_before`](CheckpointStorage::prune_before).
    ///
    /// Idempotent: later calls for the same generation are no-ops, so every rank can
    /// announce before submitting its own flush without coordinating who goes first.
    /// One exception: an entry left by an **aborted** round (see
    /// [`abort_generation`](CheckpointStorage::abort_generation)) is *reset* to a
    /// fresh round — a restarted job legitimately reuses the generation number, and
    /// the dead round's stale flush accounting must not count toward the new one.
    /// No slot sweep happens here: every dead-round slot is already released by the
    /// abort's own sweep or, for a straggler landing later, by its
    /// [`note_rank_flushed`](CheckpointStorage::note_rank_flushed) hitting the
    /// tombstone — and sweeping here would race a fresh round's first flushes.
    /// (Stragglers still in flight at reset time are the caller's to drain first —
    /// `JobRuntime::restart` waits its flusher pool idle before aborting, precisely
    /// so no dead-round flush can land after this point and be mistaken for the new
    /// round's.)
    pub fn begin_generation(&self, generation: u64, expected_ranks: usize) {
        let mut pending = self.pending.lock();
        let entry = pending
            .entry(generation)
            .or_insert_with(|| PendingGeneration {
                expected_ranks: expected_ranks.max(1),
                flushed: BTreeSet::new(),
                aborted: false,
            });
        if entry.aborted {
            *entry = PendingGeneration {
                expected_ranks: expected_ranks.max(1),
                flushed: BTreeSet::new(),
                aborted: false,
            };
        }
    }

    /// Record that `rank`'s flush for a pending `generation` has landed. When the
    /// last expected rank lands, the generation commits — it becomes visible to
    /// readers — and `true` is returned (exactly once). A generation never announced
    /// as pending returns `false`: it was visible all along (the synchronous path).
    /// A flush landing on an **aborted** round is released on the spot (its round is
    /// dead; the slot must never surface) and reported as `false`.
    pub fn note_rank_flushed(&self, generation: u64, rank: Rank) -> bool {
        let aborted_straggler = {
            let mut pending = self.pending.lock();
            let Some(entry) = pending.get_mut(&generation) else {
                return false;
            };
            if entry.aborted {
                true
            } else {
                entry.flushed.insert(rank);
                if entry.flushed.len() >= entry.expected_ranks {
                    pending.remove(&generation);
                    return true;
                }
                return false;
            }
        };
        if aborted_straggler {
            self.release_slot(generation, rank);
        }
        false
    }

    /// Force-commit a pending generation (make it visible regardless of flush
    /// accounting). A no-op if the generation is not pending or its round was
    /// aborted.
    pub fn commit_generation(&self, generation: u64) {
        let mut pending = self.pending.lock();
        if pending.get(&generation).is_some_and(|entry| !entry.aborted) {
            pending.remove(&generation);
        }
    }

    /// Drop a generation's pending entry entirely, abort tombstone included. Only
    /// safe once no flush of that generation can still be in flight (the tombstone
    /// exists precisely to catch stragglers) — restart uses it after aborting the
    /// dead incarnation's rounds with its flusher pool drained, so the restarted
    /// job's *synchronous* checkpoints can reuse the generation number without the
    /// stale tombstone hiding them forever.
    pub fn forget_generation(&self, generation: u64) {
        self.pending.lock().remove(&generation);
    }

    /// Abort a pending generation: release every slot already written for it (the
    /// chunks become unreferenced and are reclaimed by the next
    /// [`prune_before`](CheckpointStorage::prune_before) sweep) and tombstone the
    /// pending entry — the generation stays invisible, and a straggler flush still
    /// in flight at abort time is released when it lands instead of surfacing a
    /// slot of the dead round. Returns the number of `(generation, rank)` slots
    /// released here (stragglers are released later, on arrival).
    pub fn abort_generation(&self, generation: u64) -> usize {
        {
            let mut pending = self.pending.lock();
            // Only a *pending* round can be aborted: a generation that already
            // committed (or was never announced) is left alone, so an abort racing
            // a completed round cannot destroy a valid restart point.
            match pending.get_mut(&generation) {
                Some(entry) => entry.aborted = true,
                None => return 0,
            }
        }
        let slots: Vec<(u64, Rank)> = {
            let catalog = self.catalog.lock();
            catalog
                .manifests
                .keys()
                .chain(catalog.full_images.keys())
                .filter(|(g, _)| *g == generation)
                .copied()
                .collect()
        };
        for (generation, rank) in &slots {
            self.release_slot(*generation, *rank);
        }
        slots.len()
    }

    /// Whether `generation` is announced but not yet committed.
    pub fn is_pending(&self, generation: u64) -> bool {
        self.pending.lock().contains_key(&generation)
    }

    /// Generations currently pending (announced, not yet fully flushed), ascending.
    pub fn pending_generations(&self) -> Vec<u64> {
        self.pending.lock().keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Write one rank's image for the generation recorded in its metadata, under the
    /// given policy.
    pub fn write_image(&self, policy: StoragePolicy, image: &CheckpointImage) -> StoreReport {
        let generation = image.metadata.generation;
        let rank = image.metadata.rank;
        let logical_bytes = image.upper_half.total_bytes();

        let mut report = StoreReport {
            generation,
            rank,
            policy,
            logical_bytes,
            written_bytes: 0,
            manifest_bytes: 0,
            chunks_new: 0,
            chunks_reused: 0,
            regions_reused: 0,
            compression_saved_bytes: 0,
            write_time_s: 0.0,
        };

        // Rewriting an existing (generation, rank) — e.g. re-checkpointing after a
        // restart replaced a torn generation — must release whatever the slot held,
        // or the replaced manifest's chunk references leak forever.
        self.release_slot(generation, rank);
        if policy.is_incremental() {
            self.write_chunked(policy, image, &mut report);
        } else {
            let encoded = image.encode();
            report.written_bytes = encoded.len();
            self.catalog
                .lock()
                .full_images
                .insert((generation, rank), encoded);
        }

        if let Some(model) = self.model {
            report.write_time_s = model.write_time_s(report.written_bytes as f64 / 1.0e6);
        }
        report
    }

    fn write_chunked(
        &self,
        policy: StoragePolicy,
        image: &CheckpointImage,
        report: &mut StoreReport,
    ) {
        let rank = image.metadata.rank;
        let generation = image.metadata.generation;
        let upper = &image.upper_half;

        // The previous generation's manifest for this rank, if its epoch chain links
        // directly to this image's epoch — otherwise dirty flags describe changes
        // relative to some *other* checkpoint and clean-region reuse would be unsound.
        // Copied out under the catalog lock, decoded outside it.
        let previous = {
            let catalog = self.catalog.lock();
            catalog
                .manifests
                .range(..(generation, rank))
                .rev()
                .find(|((_, r), _)| *r == rank)
                .map(|(_, bytes)| bytes.clone())
        }
        .and_then(|bytes| Manifest::decode(&bytes).ok())
        .filter(|m| m.base_epoch() == upper.epoch())
        // A manifest records one digest function for all its chunks, so clean-region
        // reuse across a digest change would stamp old-digest references into a
        // new-digest manifest and fail validation on read. After a config switch the
        // first checkpoint re-chunks everything; reuse resumes from then on. The
        // same holds for the chunk size: the manifest's chunk size bounds every
        // chunk it lists, so reused references must have been cut under ours.
        .filter(|m| m.digest == self.config.digest && m.chunk_size as usize == self.chunk_size);

        let mut regions = Vec::with_capacity(upper.region_count());
        for (name, data) in upper.iter() {
            let reusable = previous.as_ref().and_then(|m| {
                if upper.is_dirty(name) {
                    return None;
                }
                m.region(name).filter(|r| r.len == data.len() as u64)
            });
            if let Some(prev_region) = reusable {
                // Clean region: re-reference the previous generation's chunks without
                // re-reading the data. A concurrent `prune_before` may have freed some
                // of them between our catalog snapshot and now — if any bump misses,
                // release the ones taken and re-chunk the region from its data
                // instead of committing a manifest with dangling references.
                if self.bump_region_refs(prev_region) {
                    report.chunks_reused += prev_region.chunks.len();
                    report.regions_reused += 1;
                    regions.push(RegionManifest {
                        reused: true,
                        ..prev_region.clone()
                    });
                    continue;
                }
            }

            // Dirty (or un-reusable) region: chunk it; content addressing still
            // dedups any chunk the store has seen before, from any rank or
            // generation. Only the per-digest shard is locked, and never while
            // compressing, so concurrent rank writes proceed in parallel.
            let mut chunks = Vec::with_capacity(data.len() / self.chunk_size + 1);
            for_each_chunk(
                data,
                self.chunk_size,
                self.config.digest,
                |digest, piece| {
                    let key = (digest, piece.len() as u32);
                    if let Some((stored_len, form)) = self.bump_chunk_ref(key) {
                        report.chunks_reused += 1;
                        chunks.push(ChunkRef {
                            digest,
                            raw_len: piece.len() as u32,
                            stored_len,
                            form,
                        });
                        return;
                    }
                    let (stored, form) = if policy.compresses() {
                        compress_chunk(self.config.codec, piece)
                    } else {
                        (piece.to_vec(), StoredForm::Raw)
                    };
                    // Re-check under the shard lock: another rank may have stored the
                    // same content while we were compressing. Whoever loses the race
                    // re-references the winner's copy instead of inserting a duplicate.
                    let now = self.tick();
                    let mut shard = self.shard(digest).lock();
                    if let Some(entry) = shard.chunks.get_mut(&key) {
                        entry.refs += 1;
                        entry.touch = now;
                        report.chunks_reused += 1;
                        chunks.push(ChunkRef {
                            digest,
                            raw_len: piece.len() as u32,
                            stored_len: entry.stored_len,
                            form: entry.form,
                        });
                        return;
                    }
                    if form.is_compressed() {
                        report.compression_saved_bytes += piece.len() - stored.len();
                    }
                    report.chunks_new += 1;
                    report.written_bytes += stored.len();
                    chunks.push(ChunkRef {
                        digest,
                        raw_len: piece.len() as u32,
                        stored_len: stored.len() as u32,
                        form,
                    });
                    self.tier
                        .hot_bytes
                        .fetch_add(stored.len(), Ordering::Relaxed);
                    shard.chunks.insert(
                        key,
                        ChunkEntry {
                            refs: 1,
                            stored_len: stored.len() as u32,
                            payload: ChunkPayload::Hot(stored.into()),
                            form,
                            touch: now,
                        },
                    );
                },
            );
            regions.push(RegionManifest {
                name: name.to_string(),
                len: data.len() as u64,
                chunks,
                reused: false,
            });
        }

        let manifest = Manifest {
            metadata: image.metadata.clone(),
            upper_epoch: upper.epoch(),
            policy,
            digest: self.config.digest,
            chunk_size: self.chunk_size as u32,
            regions,
        };
        let encoded = manifest.encode();
        report.manifest_bytes = encoded.len();
        report.written_bytes += encoded.len();
        self.catalog
            .lock()
            .manifests
            .insert((generation, rank), encoded);
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Read one rank's image back, whichever policy wrote it, verifying the manifest
    /// CRC and every chunk digest (or the flat image's CRC) end to end.
    ///
    /// A generation still pending (an asynchronous flush in flight) is refused: a
    /// half-flushed generation must never be observed, even piecewise.
    pub fn read(&self, generation: u64, rank: Rank) -> MpiResult<CheckpointImage> {
        if self.is_pending(generation) {
            return Err(MpiError::Checkpoint(format!(
                "generation {generation} is pending (its asynchronous flush has not \
                 committed); refusing to read a half-flushed checkpoint"
            )));
        }
        let manifest_bytes = {
            let catalog = self.catalog.lock();
            if let Some(bytes) = catalog.full_images.get(&(generation, rank)) {
                return CheckpointImage::decode(bytes);
            }
            catalog
                .manifests
                .get(&(generation, rank))
                .cloned()
                .ok_or_else(|| {
                    MpiError::Checkpoint(format!(
                        "no checkpoint for generation {generation}, rank {rank}"
                    ))
                })?
        };
        let manifest = Manifest::decode(&manifest_bytes)?;

        let mut upper = split_proc::address_space::UpperHalfSpace::new();
        for region in &manifest.regions {
            let mut data = Vec::with_capacity(region.len as usize);
            for chunk in &region.chunks {
                self.tier.chunk_reads.fetch_add(1, Ordering::Relaxed);
                let now = self.tick();
                // Hot chunks are served straight from the shard; a cold chunk is
                // fetched from its spill file (outside the shard lock), CRC-verified
                // by the tier, and promoted back into memory.
                let hot = {
                    let mut shard = self.shard(chunk.digest).lock();
                    let entry = shard.chunks.get_mut(&chunk.key()).ok_or_else(|| {
                        MpiError::Checkpoint(format!(
                            "chunk {:#018x} (len {}) referenced by generation {generation}, \
                             rank {rank} is missing from the store",
                            chunk.digest, chunk.raw_len
                        ))
                    })?;
                    entry.touch = now;
                    match &entry.payload {
                        // A PayloadBuf clone is a refcount bump on the stored
                        // allocation, not a copy — the hot read path shares.
                        ChunkPayload::Hot(stored) => Some((stored.clone(), entry.form)),
                        ChunkPayload::Cold => None,
                    }
                };
                let (stored, form) = match hot {
                    Some(hot) => hot,
                    None => self.promote_chunk(chunk)?,
                };
                // Decode by the *manifest's* record, never by this store's current
                // codec configuration — that is what keeps images written under any
                // earlier config restorable.
                let decompressed;
                let raw: &[u8] = if form.is_compressed() {
                    decompressed = decode_chunk(form, &stored, chunk.raw_len as usize)?;
                    &decompressed
                } else {
                    &stored
                };
                if raw.len() != chunk.raw_len as usize || manifest.digest.hash(raw) != chunk.digest
                {
                    return Err(MpiError::Checkpoint(format!(
                        "chunk {:#018x} of region {:?} failed digest validation \
                         (generation {generation}, rank {rank})",
                        chunk.digest, region.name
                    )));
                }
                data.extend_from_slice(raw);
            }
            if data.len() != region.len as usize {
                return Err(MpiError::Checkpoint(format!(
                    "region {:?} reassembled to {} bytes, manifest says {}",
                    region.name,
                    data.len(),
                    region.len
                )));
            }
            upper.map_region(region.name.clone(), data);
        }
        upper.set_epoch(manifest.upper_epoch);
        upper.mark_clean();
        Ok(CheckpointImage::new(manifest.metadata.clone(), upper))
    }

    /// Fetch a cold chunk's stored form from the spill file (the tier re-validates
    /// its CRC-32 frame) and promote it back into the in-memory shard. Returns the
    /// stored bytes and their form for the caller's decode. The promoted entry and
    /// the returned buffer share one allocation.
    fn promote_chunk(&self, chunk: &ChunkRef) -> MpiResult<(PayloadBuf, StoredForm)> {
        let cold = self.tier.cold.as_ref().ok_or_else(|| {
            MpiError::Checkpoint(format!(
                "chunk {:#018x} is marked cold but no cold tier is attached",
                chunk.digest
            ))
        })?;
        let stored: PayloadBuf = cold.fetch(chunk.key())?.into();
        if stored.len() != chunk.stored_len as usize {
            return Err(MpiError::Checkpoint(format!(
                "cold chunk {:#018x} promoted to {} bytes, manifest says {}",
                chunk.digest,
                stored.len(),
                chunk.stored_len
            )));
        }
        let mut shard = self.shard(chunk.digest).lock();
        let form = match shard.chunks.get_mut(&chunk.key()) {
            Some(entry) => {
                if matches!(entry.payload, ChunkPayload::Cold) {
                    entry.payload = ChunkPayload::Hot(stored.clone());
                    self.tier
                        .hot_bytes
                        .fetch_add(stored.len(), Ordering::Relaxed);
                }
                entry.form
            }
            // The entry was pruned while we were fetching; serve this read from the
            // file's content anyway (the digest check downstream still guards it).
            None => chunk.form,
        };
        self.tier.cold_hits.fetch_add(1, Ordering::Relaxed);
        Ok((stored, form))
    }

    /// Whether a checkpoint exists (valid or not) for `(generation, rank)`.
    pub fn contains(&self, generation: u64, rank: Rank) -> bool {
        let catalog = self.catalog.lock();
        catalog.manifests.contains_key(&(generation, rank))
            || catalog.full_images.contains_key(&(generation, rank))
    }

    /// All **committed** generations with at least one checkpoint, ascending.
    /// Generations whose asynchronous flush is still pending are excluded — they do
    /// not exist yet as far as readers (and restart fallback) are concerned.
    pub fn generations(&self) -> Vec<u64> {
        // Catalog snapshot first, pending filter second: any catalogued slot of an
        // async generation implies `begin_generation` already ran, so a generation
        // that is half-flushed at the catalog snapshot is still pending when the
        // filter reads — it can never leak out as committed.
        let generations: BTreeSet<u64> = {
            let catalog = self.catalog.lock();
            let mut generations: BTreeSet<u64> =
                catalog.manifests.keys().map(|(g, _)| *g).collect();
            generations.extend(catalog.full_images.keys().map(|(g, _)| *g));
            generations
        };
        let pending = self.pending.lock();
        generations
            .into_iter()
            .filter(|g| !pending.contains_key(g))
            .collect()
    }

    /// The ranks holding a checkpoint in `generation`, ascending (used by tests that
    /// assert a committed generation is complete for the whole world).
    pub fn ranks_in_generation(&self, generation: u64) -> Vec<Rank> {
        let catalog = self.catalog.lock();
        let mut ranks: BTreeSet<Rank> = catalog
            .manifests
            .keys()
            .filter(|(g, _)| *g == generation)
            .map(|(_, r)| *r)
            .collect();
        ranks.extend(
            catalog
                .full_images
                .keys()
                .filter(|(g, _)| *g == generation)
                .map(|(_, r)| *r),
        );
        ranks.into_iter().collect()
    }

    /// The newest generation for which **every** rank of a `world_size` job reads back
    /// and validates end to end, together with the validated images in rank order.
    /// Generations with corrupt or missing pieces are skipped — this is the job-level
    /// fallback restart relies on. Returning the images means the validation decode is
    /// also the restart decode: nothing is reassembled twice.
    pub fn latest_valid_images(&self, world_size: usize) -> MpiResult<(u64, Vec<CheckpointImage>)> {
        for generation in self.generations().into_iter().rev() {
            let images: MpiResult<Vec<CheckpointImage>> = (0..world_size)
                .map(|rank| self.read(generation, rank as Rank))
                .collect();
            if let Ok(images) = images {
                return Ok((generation, images));
            }
        }
        Err(MpiError::Checkpoint(format!(
            "no complete, valid checkpoint generation for a {world_size}-rank job"
        )))
    }

    /// The newest generation that validates end to end at **its own** recorded world
    /// size — whatever that size is — together with the validated images in rank
    /// order. This is the elastic-restart entry point: the caller learns the
    /// checkpointed rank count from the returned images and maps it onto the new
    /// world, instead of asserting a size up front.
    pub fn latest_valid_images_any_size(&self) -> MpiResult<(u64, Vec<CheckpointImage>)> {
        for generation in self.generations().into_iter().rev() {
            let ranks = self.ranks_in_generation(generation);
            let world_size = ranks.len();
            // Only a contiguous 0..world_size rank set is a whole job's checkpoint.
            if world_size == 0 || ranks.iter().enumerate().any(|(i, &r)| r != i as Rank) {
                continue;
            }
            let images: MpiResult<Vec<CheckpointImage>> = (0..world_size)
                .map(|rank| self.read(generation, rank as Rank))
                .collect();
            if let Ok(images) = images {
                return Ok((generation, images));
            }
        }
        Err(MpiError::Checkpoint(
            "no complete, valid checkpoint generation at any world size".into(),
        ))
    }

    /// The newest generation for which **every** rank of a `world_size` job validates
    /// end to end (see [`latest_valid_images`](CheckpointStorage::latest_valid_images)).
    pub fn latest_valid_generation(&self, world_size: usize) -> MpiResult<u64> {
        self.latest_valid_images(world_size)
            .map(|(generation, _)| generation)
    }

    /// Read the full job's images for one generation, in rank order.
    pub fn read_job(&self, generation: u64, world_size: usize) -> MpiResult<Vec<CheckpointImage>> {
        (0..world_size)
            .map(|rank| self.read(generation, rank as Rank))
            .collect()
    }

    // ------------------------------------------------------------------
    // GC and occupancy
    // ------------------------------------------------------------------

    /// Drop checkpoints from generations older than `keep_from`, releasing chunk
    /// references and freeing chunks nothing references any more.
    ///
    /// Two classes of generation are **never** pruned, whatever the cutoff says:
    ///
    /// * the newest committed generation — deleting it could leave
    ///   `restart_job_from_storage` with nothing to fall back to (the cutoff may be
    ///   arbitrarily aggressive, e.g. computed from a generation counter that ran
    ///   ahead of the commits);
    /// * any pending generation — its flush is mid-flight, and deleting chunks under
    ///   a concurrent writer would tear the generation it is about to commit.
    ///
    /// The returned [`PruneReport`] says exactly which generations were dropped and
    /// which were retained despite being older than the cutoff.
    pub fn prune_before(&self, keep_from: u64) -> PruneReport {
        let mut report = PruneReport::default();
        let doomed: Vec<(u64, Rank)> = {
            let catalog = self.catalog.lock();
            // The pending snapshot is taken *while the catalog is held*: any
            // catalogued slot of an async generation implies `begin_generation`
            // already ran, so a half-flushed generation can never be mistaken for
            // the newest committed one (a stale pre-catalog snapshot could miss a
            // generation that began and landed its first slot in between, stripping
            // protection from the real restart point). Lock order catalog → pending
            // is safe: no other path acquires the catalog while holding pending.
            let pending: BTreeSet<u64> = self.pending.lock().keys().copied().collect();
            let mut all: BTreeSet<u64> = catalog.manifests.keys().map(|(g, _)| *g).collect();
            all.extend(catalog.full_images.keys().map(|(g, _)| *g));
            let newest_committed = all.iter().rev().find(|g| !pending.contains(g)).copied();
            let protected = |generation: u64| {
                pending.contains(&generation) || Some(generation) == newest_committed
            };
            for &generation in all.iter().filter(|g| **g < keep_from) {
                if protected(generation) {
                    report.retained.push(generation);
                } else {
                    report.pruned.push(generation);
                }
            }
            let mut catalog = catalog;
            catalog
                .full_images
                .retain(|(generation, _), _| *generation >= keep_from || protected(*generation));
            catalog
                .manifests
                .keys()
                .filter(|(generation, _)| *generation < keep_from && !protected(*generation))
                .copied()
                .collect()
        };
        for (generation, rank) in doomed {
            report.logical_freed_bytes += self.release_slot(generation, rank);
        }

        let mut cold_doomed: Vec<(u64, u32)> = Vec::new();
        for shard in self.shards.iter() {
            shard.lock().chunks.retain(|key, entry| {
                if entry.refs == 0 {
                    report.freed_bytes += entry.stored_len as usize;
                    match entry.payload {
                        ChunkPayload::Hot(_) => self.sub_hot(entry.stored_len as usize),
                        ChunkPayload::Cold => cold_doomed.push(*key),
                    }
                    false
                } else {
                    true
                }
            });
        }
        if let Some(cold) = &self.tier.cold {
            for key in cold_doomed {
                cold.discard(key);
            }
        }
        report
    }

    /// Demote least-recently-referenced chunks to the cold tier until the hot set is
    /// at most `hot_target_bytes`, or until every chunk is cold. A no-op (beyond
    /// reporting current occupancy) when no cold tier is attached or the hot set is
    /// already within target. Demotion is transparent to readers: a cold chunk is
    /// fetched, CRC-revalidated and promoted on the next
    /// [`read`](CheckpointStorage::read) that needs it.
    pub fn spill_over(&self, hot_target_bytes: usize) -> SpillReport {
        let mut report = SpillReport {
            hot_bytes: self.hot_bytes(),
            ..SpillReport::default()
        };
        let Some(cold) = self.tier.cold.as_ref() else {
            return report;
        };
        if report.hot_bytes <= hot_target_bytes {
            return report;
        }

        // Rank hot chunks oldest-touch first. The snapshot is advisory: each
        // candidate is re-checked under its shard lock before demotion.
        let mut candidates: Vec<(u64, (u64, u32))> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for (key, entry) in shard.chunks.iter() {
                if matches!(entry.payload, ChunkPayload::Hot(_)) {
                    candidates.push((entry.touch, *key));
                }
            }
        }
        candidates.sort_unstable();

        for (_, key) in candidates {
            if self.hot_bytes() <= hot_target_bytes {
                break;
            }
            // Copy the payload out under the lock, write the spill file unlocked
            // (file IO must not block the shard), then flip the entry to cold only
            // if it is still hot — a concurrent prune or spill may have beaten us.
            let stored = {
                let shard = self.shard(key.0).lock();
                match shard.chunks.get(&key).map(|entry| &entry.payload) {
                    Some(ChunkPayload::Hot(bytes)) => bytes.clone(),
                    _ => continue,
                }
            };
            if cold.spill(key, &stored).is_err() {
                // Disk trouble: stop demoting, keep serving from memory.
                break;
            }
            let mut shard = self.shard(key.0).lock();
            match shard.chunks.get_mut(&key) {
                Some(entry) if matches!(entry.payload, ChunkPayload::Hot(_)) => {
                    entry.payload = ChunkPayload::Cold;
                    self.sub_hot(stored.len());
                    report.spilled_chunks += 1;
                    report.spilled_bytes += stored.len();
                }
                Some(_) => {}
                // Pruned while we spilled: the file is unreachable garbage, drop it.
                None => cold.discard(key),
            }
        }
        self.tier
            .spilled_chunks
            .fetch_add(report.spilled_chunks as u64, Ordering::Relaxed);
        self.tier
            .spilled_bytes
            .fetch_add(report.spilled_bytes as u64, Ordering::Relaxed);
        report.hot_bytes = self.hot_bytes();
        report
    }

    /// Aggregate occupancy, including per-shard breakdowns and cold-tier counters.
    ///
    /// On a tenant view the chunk/shard numbers describe the **shared** chunk space
    /// (they are the same from every view), while the manifest and full-image
    /// numbers describe this view's own catalog namespace.
    pub fn stats(&self) -> StorageStats {
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let shard = shard.lock();
            let mut occupancy = ShardStats {
                chunk_count: shard.chunks.len(),
                ..ShardStats::default()
            };
            for entry in shard.chunks.values() {
                occupancy.stored_bytes += entry.stored_len as usize;
                occupancy.refcount_total += entry.refs;
                match entry.payload {
                    ChunkPayload::Hot(_) => occupancy.hot_bytes += entry.stored_len as usize,
                    ChunkPayload::Cold => occupancy.cold_chunks += 1,
                }
            }
            shards.push(occupancy);
        }
        let mut stats = StorageStats {
            chunk_count: shards.iter().map(|s| s.chunk_count).sum(),
            chunk_bytes: shards.iter().map(|s| s.stored_bytes).sum(),
            hot_bytes: shards.iter().map(|s| s.hot_bytes).sum(),
            cold_chunk_count: shards.iter().map(|s| s.cold_chunks).sum(),
            cold_bytes: shards.iter().map(|s| s.stored_bytes - s.hot_bytes).sum(),
            refcount_total: shards.iter().map(|s| s.refcount_total).sum(),
            cold_hits: self.tier.cold_hits.load(Ordering::Relaxed),
            chunk_reads: self.tier.chunk_reads.load(Ordering::Relaxed),
            spilled_chunks: self.tier.spilled_chunks.load(Ordering::Relaxed),
            spilled_bytes: self.tier.spilled_bytes.load(Ordering::Relaxed),
            shards,
            manifest_count: 0,
            manifest_bytes: 0,
            full_image_count: 0,
            full_image_bytes: 0,
        };
        let catalog = self.catalog.lock();
        stats.manifest_count = catalog.manifests.len();
        stats.manifest_bytes = catalog.manifests.values().map(|m| m.len()).sum();
        stats.full_image_count = catalog.full_images.len();
        stats.full_image_bytes = catalog.full_images.values().map(|i| i.len()).sum();
        stats
    }

    // ------------------------------------------------------------------
    // Fault injection (integrity testing)
    // ------------------------------------------------------------------

    /// Flip one byte of a stored chunk that is referenced by `(generation, rank)` and
    /// by **no other generation** — corrupting exactly one generation's data, the way
    /// a torn write during that checkpoint would. Returns an error if the generation
    /// has no such private chunk.
    pub fn corrupt_fresh_chunk(&self, generation: u64, rank: Rank) -> MpiResult<()> {
        let (target_bytes, other_bytes) = {
            let catalog = self.catalog.lock();
            let target = catalog
                .manifests
                .get(&(generation, rank))
                .cloned()
                .ok_or_else(|| {
                    MpiError::Checkpoint(format!(
                        "no chunked checkpoint for generation {generation}, rank {rank}"
                    ))
                })?;
            let others: Vec<Vec<u8>> = catalog
                .manifests
                .iter()
                .filter(|(key, _)| **key != (generation, rank))
                .map(|(_, bytes)| bytes.clone())
                .collect();
            (target, others)
        };
        let target = Manifest::decode(&target_bytes)?;
        let shared: BTreeSet<(u64, u32)> = other_bytes
            .iter()
            .filter_map(|bytes| Manifest::decode(bytes).ok())
            .flat_map(|manifest| manifest.chunk_refs().map(|c| c.key()).collect::<Vec<_>>())
            .collect();
        let private = target
            .chunk_refs()
            .map(|c| c.key())
            .find(|key| !shared.contains(key))
            .ok_or_else(|| {
                MpiError::Checkpoint(format!(
                    "generation {generation}, rank {rank} shares every chunk with other \
                     generations; nothing private to corrupt"
                ))
            })?;
        let mut shard = self.shard(private.0).lock();
        let entry = shard
            .chunks
            .get_mut(&private)
            .ok_or_else(|| MpiError::Checkpoint("private chunk vanished".into()))?;
        match &mut entry.payload {
            ChunkPayload::Hot(stored) => {
                // The stored buffer is immutable (readers may hold refcounts on it);
                // corruption rebuilds the entry around a flipped copy, exactly like a
                // torn write replacing the on-disk bytes.
                let mut flipped = stored.to_vec();
                let position = flipped.len() / 2;
                flipped[position] ^= 0x01;
                *stored = flipped.into();
                Ok(())
            }
            // The private chunk was demoted: corrupt its spill file instead, which
            // exercises the CRC re-validation on promote.
            ChunkPayload::Cold => self
                .tier
                .cold
                .as_ref()
                .ok_or_else(|| MpiError::Checkpoint("cold chunk without a cold tier".into()))?
                .corrupt_spilled(private),
        }
    }

    /// Flip one byte of the stored manifest (or flat image) for `(generation, rank)`.
    pub fn corrupt_manifest(&self, generation: u64, rank: Rank) -> MpiResult<()> {
        let mut catalog = self.catalog.lock();
        let catalog = &mut *catalog;
        let bytes = match catalog.manifests.get_mut(&(generation, rank)) {
            Some(bytes) => bytes,
            None => catalog
                .full_images
                .get_mut(&(generation, rank))
                .ok_or_else(|| {
                    MpiError::Checkpoint(format!(
                        "no checkpoint for generation {generation}, rank {rank}"
                    ))
                })?,
        };
        let position = bytes.len() / 2;
        bytes[position] ^= 0x01;
        Ok(())
    }
}
