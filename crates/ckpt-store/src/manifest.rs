//! The CRC-validated checkpoint manifest: how to reassemble one rank's image for one
//! generation from content-addressed chunks.
//!
//! Binary layout (version 1, the pre-codec format):
//!
//! ```text
//! magic (8 bytes, "CKPTMANI")
//! version (u32 LE)
//! metadata length (u32 LE) | metadata JSON (split_proc ImageMetadata)
//! upper epoch (u64 LE) | policy tag (u8) | chunk size (u32 LE)
//! region count (u32 LE)
//! per region:
//!   name length (u32 LE) | name UTF-8 | region length (u64 LE) | reused flag (u8)
//!   chunk count (u32 LE)
//!   per chunk: digest (u64 LE) | raw length (u32 LE) | stored length (u32 LE) | flags (u8)
//! crc32 of everything above (u32 LE)
//! ```
//!
//! Version 2 inserts one `digest tag (u8)` immediately after the chunk size, naming
//! the digest function chunks were content-addressed with, and widens the per-chunk
//! flags byte from a compressed boolean to a [`StoredForm`] tag (0 = raw, 1 = RLE,
//! 2 = LZ — the first two coincide with version 1's boolean).
//!
//! **Version negotiation:** [`Manifest::encode`] emits the *oldest* version able to
//! represent the content — a manifest whose digest is FNV-1a and whose chunks are all
//! raw/RLE encodes byte-identically to what pre-codec builds wrote, so a store
//! running [`crate::codec::StorageConfig::legacy`] produces images old readers still
//! accept, and images written before the codec switch decode unchanged here.
//!
//! The chunk size field records the largest chunk the writer's content-defined
//! chunker could cut (fixed-size chunks, as older builds cut them, satisfy the same
//! bound). Past the CRC, [`Manifest::decode`] checks structure: every chunk's raw
//! length lies in `1..=chunk size`, and a region's chunk lengths sum to its length.
//! Those two bounds cap what a read allocates on the manifest's word.

use crate::chunk::ChunkRef;
use crate::codec::{Digest, StoredForm};
use crate::StoragePolicy;
use mpi_model::error::{MpiError, MpiResult};
use split_proc::image::ImageMetadata;
use split_proc::integrity::{crc32, Cursor};

const MAGIC: &[u8; 8] = b"CKPTMANI";
/// The pre-codec format: FNV-1a digests, boolean compressed flag.
const VERSION_LEGACY: u32 = 1;
/// Adds the digest tag and the stored-form byte.
const VERSION_CURRENT: u32 = 2;

/// One region's reassembly recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionManifest {
    /// Region name within the upper half.
    pub name: String,
    /// Uncompressed region length in bytes.
    pub len: u64,
    /// Chunks, in order; empty for an empty region.
    pub chunks: Vec<ChunkRef>,
    /// Whether this region's chunk list was reused verbatim from the previous
    /// generation (the dirty-region fast path). Informational.
    pub reused: bool,
}

/// A complete per-`(generation, rank)` manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The image metadata (rank, world size, generation, implementation).
    pub metadata: ImageMetadata,
    /// Checkpoint epoch of the upper half when the image was built.
    pub upper_epoch: u64,
    /// Policy this manifest was written under.
    pub policy: StoragePolicy,
    /// Digest function the chunks were content-addressed with. Version-1 manifests
    /// decode with [`Digest::Fnv1a64`] (the only digest that existed then).
    pub digest: Digest,
    /// Largest chunk the image was split into (the chunker's maximum); decoding
    /// rejects any chunk above it.
    pub chunk_size: u32,
    /// Regions in name order.
    pub regions: Vec<RegionManifest>,
}

impl Manifest {
    /// The epoch the upper half entered after this checkpoint completed. An
    /// incremental write may only reuse this manifest's clean regions when the live
    /// upper half is still in exactly this epoch.
    pub fn base_epoch(&self) -> u64 {
        self.upper_epoch + 1
    }

    /// Look up a region's recipe by name.
    pub fn region(&self, name: &str) -> Option<&RegionManifest> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Sum of uncompressed region lengths.
    pub fn logical_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.len).sum()
    }

    /// Every chunk reference in the manifest, in region order.
    pub fn chunk_refs(&self) -> impl Iterator<Item = &ChunkRef> {
        self.regions.iter().flat_map(|r| r.chunks.iter())
    }

    /// The oldest format version able to represent this manifest. FNV-addressed,
    /// raw/RLE-only content fits version 1 exactly (the stored-form tags 0 and 1
    /// coincide with the old compressed boolean); XXH64 digests or LZ chunks need
    /// version 2.
    fn wire_version(&self) -> u32 {
        let legacy_forms = self.chunk_refs().all(|chunk| chunk.form != StoredForm::Lz);
        if self.digest == Digest::Fnv1a64 && legacy_forms {
            VERSION_LEGACY
        } else {
            VERSION_CURRENT
        }
    }

    /// Encode to the CRC-trailed binary form, negotiating the oldest version that
    /// can carry the content (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        // analyzer: allow(no-panic): infallible by construction — metadata is a plain string/number struct; the value-model serializer has no failure mode for it, and encode() has no Result channel
        let metadata =
            serde_json::to_vec(&self.metadata).expect("image metadata always serializes");
        let version = self.wire_version();
        let mut out = Vec::with_capacity(64 + metadata.len() + self.regions.len() * 48);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(metadata.len() as u32).to_le_bytes());
        out.extend_from_slice(&metadata);
        out.extend_from_slice(&self.upper_epoch.to_le_bytes());
        out.push(policy_tag(self.policy));
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        if version >= VERSION_CURRENT {
            out.push(self.digest.tag());
        }
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        for region in &self.regions {
            out.extend_from_slice(&(region.name.len() as u32).to_le_bytes());
            out.extend_from_slice(region.name.as_bytes());
            out.extend_from_slice(&region.len.to_le_bytes());
            out.push(region.reused as u8);
            out.extend_from_slice(&(region.chunks.len() as u32).to_le_bytes());
            for chunk in &region.chunks {
                out.extend_from_slice(&chunk.digest.to_le_bytes());
                out.extend_from_slice(&chunk.raw_len.to_le_bytes());
                out.extend_from_slice(&chunk.stored_len.to_le_bytes());
                out.push(chunk.form.tag());
            }
        }
        let checksum = crc32(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode a binary manifest, verifying the trailing CRC-32 before interpreting
    /// any content.
    pub fn decode(bytes: &[u8]) -> MpiResult<Self> {
        let mut cursor = Cursor::new(bytes, "checkpoint manifest");
        if cursor.take(8)? != MAGIC {
            return Err(MpiError::Checkpoint("bad checkpoint manifest magic".into()));
        }
        let version = cursor.u32()?;
        if !(VERSION_LEGACY..=VERSION_CURRENT).contains(&version) {
            return Err(MpiError::Checkpoint(format!(
                "unsupported checkpoint manifest version {version} \
                 (expected {VERSION_LEGACY}..={VERSION_CURRENT})"
            )));
        }
        if bytes.len() < 16 {
            return Err(MpiError::Checkpoint("truncated checkpoint manifest".into()));
        }
        let payload_end = bytes.len() - 4;
        let stored_crc = u32::from_le_bytes(bytes[payload_end..].try_into().map_err(|_| {
            MpiError::Checkpoint("checkpoint manifest CRC trailer truncated".into())
        })?);
        let computed_crc = crc32(&bytes[..payload_end]);
        if stored_crc != computed_crc {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint manifest failed CRC validation \
                 (stored {stored_crc:#010x}, computed {computed_crc:#010x})"
            )));
        }
        let metadata_len = cursor.u32()? as usize;
        let metadata: ImageMetadata = serde_json::from_slice(cursor.take(metadata_len)?)
            .map_err(|e| MpiError::Checkpoint(format!("bad manifest metadata: {e}")))?;
        let upper_epoch = cursor.u64()?;
        let policy = policy_from_tag(cursor.u8()?)?;
        let chunk_size = cursor.u32()?;
        let digest = if version >= VERSION_CURRENT {
            Digest::from_tag(cursor.u8()?)?
        } else {
            Digest::Fnv1a64 // the only digest the version-1 format ever carried
        };
        let region_count = cursor.u32()? as usize;
        let mut regions = Vec::with_capacity(region_count.min(1 << 16));
        for _ in 0..region_count {
            let name_len = cursor.u32()? as usize;
            let name = std::str::from_utf8(cursor.take(name_len)?)
                .map_err(|e| MpiError::Checkpoint(format!("bad region name: {e}")))?
                .to_string();
            let len = cursor.u64()?;
            let reused = cursor.u8()? != 0;
            let chunk_count = cursor.u32()? as usize;
            let mut chunks = Vec::with_capacity(chunk_count.min(1 << 16));
            let mut chunked_len = 0u64;
            for _ in 0..chunk_count {
                let chunk_digest = cursor.u64()?;
                let raw_len = cursor.u32()?;
                // Bound every chunk by the manifest's chunk size: it is what a read
                // pre-allocates to decode the chunk.
                if raw_len == 0 || raw_len > chunk_size {
                    return Err(MpiError::Checkpoint(format!(
                        "chunk of region {name:?} claims {raw_len} bytes, outside \
                         1..={chunk_size} (the manifest's chunk size)"
                    )));
                }
                chunked_len += u64::from(raw_len);
                let stored_len = cursor.u32()?;
                let flags = cursor.u8()?;
                let form = if version >= VERSION_CURRENT {
                    StoredForm::from_tag(flags)?
                } else {
                    // Version 1's flags byte is a strict boolean: anything else is
                    // corruption, not a forward-compat form.
                    match flags {
                        0 => StoredForm::Raw,
                        1 => StoredForm::Rle,
                        other => {
                            return Err(MpiError::Checkpoint(format!(
                                "bad chunk flags byte {other} in version-1 manifest"
                            )))
                        }
                    }
                };
                chunks.push(ChunkRef {
                    digest: chunk_digest,
                    raw_len,
                    stored_len,
                    form,
                });
            }
            // The chunks must tile the region exactly: its recorded length is what a
            // read pre-allocates to reassemble it.
            if chunked_len != len {
                return Err(MpiError::Checkpoint(format!(
                    "region {name:?} records {len} bytes but its chunks hold {chunked_len}"
                )));
            }
            regions.push(RegionManifest {
                name,
                len,
                chunks,
                reused,
            });
        }
        if cursor.pos() != payload_end {
            return Err(MpiError::Checkpoint(format!(
                "checkpoint manifest length mismatch: {} bytes",
                payload_end.abs_diff(cursor.pos())
            )));
        }
        Ok(Manifest {
            metadata,
            upper_epoch,
            policy,
            digest,
            chunk_size,
            regions,
        })
    }
}

fn policy_tag(policy: StoragePolicy) -> u8 {
    match policy {
        StoragePolicy::FullImage => 0,
        StoragePolicy::Incremental => 1,
        StoragePolicy::IncrementalCompressed => 2,
    }
}

fn policy_from_tag(tag: u8) -> MpiResult<StoragePolicy> {
    match tag {
        0 => Ok(StoragePolicy::FullImage),
        1 => Ok(StoragePolicy::Incremental),
        2 => Ok(StoragePolicy::IncrementalCompressed),
        other => Err(MpiError::Checkpoint(format!(
            "unknown storage policy tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest(digest: Digest, compressed_form: StoredForm) -> Manifest {
        Manifest {
            metadata: ImageMetadata {
                rank: 2,
                world_size: 8,
                generation: 5,
                implementation: "openmpi".into(),
            },
            upper_epoch: 5,
            policy: StoragePolicy::IncrementalCompressed,
            digest,
            chunk_size: 65536,
            regions: vec![
                RegionManifest {
                    name: "app.lattice".into(),
                    len: 130_000,
                    chunks: vec![
                        ChunkRef {
                            digest: 0xDEAD_BEEF_0123_4567,
                            raw_len: 65536,
                            stored_len: 120,
                            form: compressed_form,
                        },
                        ChunkRef {
                            digest: 0x0102_0304_0506_0708,
                            raw_len: 64464,
                            stored_len: 64464,
                            form: StoredForm::Raw,
                        },
                    ],
                    reused: false,
                },
                RegionManifest {
                    name: "empty".into(),
                    len: 0,
                    chunks: vec![],
                    reused: true,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_both_versions() {
        for (digest, form) in [
            (Digest::Fnv1a64, StoredForm::Rle), // encodes as version 1
            (Digest::Xx64, StoredForm::Lz),     // needs version 2
            (Digest::Xx64, StoredForm::Rle),    // digest alone forces version 2
            (Digest::Fnv1a64, StoredForm::Lz),  // form alone forces version 2
        ] {
            let manifest = sample_manifest(digest, form);
            let encoded = manifest.encode();
            let decoded = Manifest::decode(&encoded).unwrap();
            assert_eq!(decoded, manifest);
            assert_eq!(decoded.base_epoch(), 6);
            assert_eq!(decoded.logical_bytes(), 130_000);
            assert_eq!(decoded.chunk_refs().count(), 2);
            assert!(decoded.region("empty").unwrap().reused);
            assert!(decoded.region("missing").is_none());
        }
    }

    #[test]
    fn legacy_content_encodes_as_version_1() {
        // FNV + raw/RLE chunks must produce the pre-codec byte layout: version word
        // 1, no digest byte (a version-2 encode of the same content is exactly one
        // byte longer), flags byte equal to the old compressed boolean.
        let legacy = sample_manifest(Digest::Fnv1a64, StoredForm::Rle);
        let encoded = legacy.encode();
        assert_eq!(&encoded[8..12], &1u32.to_le_bytes());
        let modern = sample_manifest(Digest::Xx64, StoredForm::Rle);
        let modern_encoded = modern.encode();
        assert_eq!(&modern_encoded[8..12], &2u32.to_le_bytes());
        assert_eq!(modern_encoded.len(), encoded.len() + 1);
        // And the decoded legacy manifest carries the implied FNV digest.
        assert_eq!(Manifest::decode(&encoded).unwrap().digest, Digest::Fnv1a64);
    }

    #[test]
    fn version_1_rejects_lz_flags_byte() {
        // Hand-corrupt a version-1 manifest's chunk flags to the LZ tag and refresh
        // the CRC: the strict boolean check must still reject it.
        let legacy = sample_manifest(Digest::Fnv1a64, StoredForm::Rle);
        let mut encoded = legacy.encode();
        let payload_end = encoded.len() - 4;
        let flag_at = (0..payload_end)
            .find(|&i| {
                encoded[i..].starts_with(&0xDEAD_BEEF_0123_4567u64.to_le_bytes())
                    && encoded[i + 16] == 1
            })
            .map(|i| i + 16)
            .expect("sample chunk present");
        encoded[flag_at] = 2;
        let crc = crc32(&encoded[..payload_end]);
        encoded[payload_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(Manifest::decode(&encoded).is_err());
    }

    /// Decode a hand-edited manifest. The encoder checks no structure and trails
    /// the bytes with a valid CRC, so only the decoder's structural checks can
    /// reject them.
    fn decode_error(manifest: &Manifest) -> String {
        match Manifest::decode(&manifest.encode()) {
            Err(MpiError::Checkpoint(message)) => message,
            other => panic!("crafted manifest not rejected as a checkpoint error: {other:?}"),
        }
    }

    #[test]
    fn rejects_chunks_outside_the_chunk_size_with_a_valid_crc() {
        for digest in [Digest::Fnv1a64, Digest::Xx64] {
            let mut empty_chunk = sample_manifest(digest, StoredForm::Rle);
            empty_chunk.regions[0].chunks[1].raw_len = 0;
            empty_chunk.regions[0].len = 65536;
            assert!(decode_error(&empty_chunk).contains("outside 1..=65536"));

            let mut oversized = sample_manifest(digest, StoredForm::Rle);
            oversized.regions[0].chunks[0].raw_len = 65537;
            oversized.regions[0].len = 65537 + 64464;
            assert!(decode_error(&oversized).contains("claims 65537 bytes"));

            // A shrunken chunk size in the header condemns chunks cut under the old.
            let mut shrunk = sample_manifest(digest, StoredForm::Rle);
            shrunk.chunk_size = 4096;
            assert!(decode_error(&shrunk).contains("outside 1..=4096"));
        }
    }

    #[test]
    fn rejects_regions_whose_chunks_do_not_sum_to_their_length() {
        // (region index, recorded length): the two-chunk region and the empty one.
        for (region, len) in [(0, 130_001), (0, 129_999), (0, u64::MAX), (1, 1)] {
            let mut manifest = sample_manifest(Digest::Xx64, StoredForm::Lz);
            manifest.regions[region].len = len;
            let message = decode_error(&manifest);
            assert!(
                message.contains(&format!("records {len} bytes")),
                "{message}"
            );
        }
        // The untouched sample still decodes: the checks reject only what is wrong.
        let sample = sample_manifest(Digest::Xx64, StoredForm::Lz);
        assert!(Manifest::decode(&sample.encode()).is_ok());
    }

    #[test]
    fn rejects_corruption_and_truncation_everywhere() {
        for (digest, form) in [
            (Digest::Fnv1a64, StoredForm::Rle),
            (Digest::Xx64, StoredForm::Lz),
        ] {
            let encoded = sample_manifest(digest, form).encode();
            for cut in 0..encoded.len() {
                assert!(Manifest::decode(&encoded[..cut]).is_err(), "cut at {cut}");
            }
            for position in 0..encoded.len() {
                let mut corrupted = encoded.clone();
                corrupted[position] ^= 0x10;
                assert!(
                    Manifest::decode(&corrupted).is_err(),
                    "flip at {position} accepted"
                );
            }
        }
    }
}
