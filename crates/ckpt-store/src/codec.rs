//! Codec and digest selection for the chunk store, plus the in-tree LZ compressor.
//!
//! The store's wire-visible knobs live in [`StorageConfig`]: which compressor a
//! compressing policy uses ([`Codec`]) and which content-address digest chunks are
//! keyed and validated by ([`Digest`]). The defaults are the strongest pair (LZ +
//! XXH64); [`StorageConfig::legacy`] selects the pre-codec pair (RLE + FNV-1a) and
//! so writes version-1 manifests, which every reader restores — see the manifest's
//! version negotiation ([`crate::manifest`]).
//!
//! ## LZ stream format (self-framed, byte-exact)
//!
//! A sequence of ops; control byte `c`:
//!
//! * `c < 0x80` — literal run: the next `c + 1` bytes are copied verbatim (1..=128);
//! * `c >= 0x80` — match: copy `(c & 0x7F) + 4` bytes from `distance` bytes back in
//!   the produced output, where `distance` is the following little-endian `u16`
//!   (1..=65535, may be shorter than the match length — overlapping copies
//!   replicate runs, which is what subsumes RLE). When `(c & 0x7F) == 0x7F` the
//!   distance is followed by extension bytes, each adding its value to the length,
//!   ending with the first byte below 255 (so a multi-KiB run is one op — this is
//!   what keeps LZ from ever losing to RLE on run-dominated data).
//!
//! The decoder validates everything: a match may not reach behind the start of the
//! produced output, the stream may not end inside an op, and the final length must
//! equal the recorded chunk length exactly. Combined with the digest check on the
//! decompressed bytes, a corrupted or truncated stored chunk cannot decode silently.

use mpi_model::error::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};
use split_proc::integrity::{fnv1a64, xxh64};

/// Which compressor a compressing [`crate::StoragePolicy`] runs chunks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// The original run-length codec: only byte runs compress.
    Rle,
    /// The LZ77-style codec below: runs *and* repeated byte strings compress, so it
    /// never does worse than RLE on the corpus (both fall back to stored-raw).
    Lz,
}

/// Which 64-bit digest chunks are content-addressed and validated by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Digest {
    /// FNV-1a/64 — the pre-codec store's digest; kept for old images.
    Fnv1a64,
    /// XXH64 (seed 0) — stronger mixing at lower cost per byte.
    Xx64,
}

impl Digest {
    /// Digest `bytes` with this function.
    pub fn hash(self, bytes: &[u8]) -> u64 {
        match self {
            Digest::Fnv1a64 => fnv1a64(bytes),
            Digest::Xx64 => xxh64(bytes),
        }
    }

    /// Stable on-manifest tag.
    pub fn tag(self) -> u8 {
        match self {
            Digest::Fnv1a64 => 0,
            Digest::Xx64 => 1,
        }
    }

    /// Decode an on-manifest tag.
    pub fn from_tag(tag: u8) -> MpiResult<Digest> {
        match tag {
            0 => Ok(Digest::Fnv1a64),
            1 => Ok(Digest::Xx64),
            other => Err(MpiError::Checkpoint(format!(
                "unknown chunk digest tag {other}"
            ))),
        }
    }
}

/// The form a chunk's bytes take in the store — recorded per chunk in the manifest,
/// so the read path decodes by what was written, never by current configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoredForm {
    /// Stored verbatim (incompressible under the codec in force, or a
    /// non-compressing policy).
    Raw,
    /// RLE stream ([`crate::chunk::rle_compress`]).
    Rle,
    /// LZ stream ([`lz_compress`]).
    Lz,
}

impl StoredForm {
    /// Whether this form needs a decompression pass on read.
    pub fn is_compressed(self) -> bool {
        self != StoredForm::Raw
    }

    /// Stable on-manifest tag. Tags 0 and 1 coincide with version-1 manifests'
    /// `compressed` boolean, which is what lets a Raw/Rle-only manifest still be
    /// written in the old format.
    pub fn tag(self) -> u8 {
        match self {
            StoredForm::Raw => 0,
            StoredForm::Rle => 1,
            StoredForm::Lz => 2,
        }
    }

    /// Decode an on-manifest tag.
    pub fn from_tag(tag: u8) -> MpiResult<StoredForm> {
        match tag {
            0 => Ok(StoredForm::Raw),
            1 => Ok(StoredForm::Rle),
            2 => Ok(StoredForm::Lz),
            other => Err(MpiError::Checkpoint(format!(
                "unknown chunk stored-form tag {other}"
            ))),
        }
    }
}

/// The store's codec/digest selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Compressor used by compressing policies.
    pub codec: Codec,
    /// Content-address digest for chunk keys and read-path validation.
    pub digest: Digest,
}

impl Default for StorageConfig {
    /// The current defaults: LZ compression, XXH64 content addressing.
    fn default() -> Self {
        StorageConfig {
            codec: Codec::Lz,
            digest: Digest::Xx64,
        }
    }
}

impl StorageConfig {
    /// The pre-codec store's codec and digest: RLE + FNV-1a/64. A store configured
    /// this way writes version-1 manifests, which every reader restores (chunk cuts
    /// are content-defined under every configuration).
    pub fn legacy() -> Self {
        StorageConfig {
            codec: Codec::Rle,
            digest: Digest::Fnv1a64,
        }
    }
}

// ----------------------------------------------------------------------------------
// LZ codec
// ----------------------------------------------------------------------------------

/// Shortest match worth encoding: a match op costs 3 bytes (control + distance).
const MIN_MATCH: usize = 4;
/// Longest match the control byte alone encodes; `(control & 0x7F) == 0x7F` marks
/// extension bytes carrying the rest.
const CONTROL_MATCH_MAX: usize = 0x7F + MIN_MATCH;
/// Longest literal run one op encodes.
const LITERAL_MAX: usize = 128;
/// Farthest back a match may reach (16-bit distance; chunks are ≤ 64 KiB anyway).
const MAX_DISTANCE: usize = u16::MAX as usize;
/// Hash-chain buckets (power of two).
const HASH_BUCKETS: usize = 1 << 13;
/// How many chain candidates the matcher tries per position before settling —
/// bounds worst-case encode time on adversarial data.
const MAX_CHAIN_DEPTH: usize = 32;

/// Chain terminator for the `u32` position tables.
const NO_POSITION: u32 = u32::MAX;

/// The four bytes of `data` starting at `at`, as a little-endian word (caller
/// guarantees them).
#[inline]
fn word4_at(data: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(word)
}

/// The eight bytes of `data` starting at `at`, as a little-endian word (caller
/// guarantees them).
#[inline]
fn word8_at(data: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(word)
}

#[inline]
fn hash4(bytes: &[u8], at: usize) -> usize {
    // Multiplicative hash of the 4 bytes starting at `at` (caller guarantees them).
    (word4_at(bytes, at).wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize & (HASH_BUCKETS - 1)
}

/// Length of the common prefix of `data[earlier..]` and `data[at..]`, capped at
/// `limit` (caller guarantees `at + limit <= data.len()` and `earlier < at`). Compares
/// a word at a time: the first differing byte is the lowest set bit of the XOR.
#[inline]
fn match_len(data: &[u8], earlier: usize, at: usize, limit: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= limit {
        let diff = word8_at(data, earlier + len) ^ word8_at(data, at + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[earlier + len] == data[at + len] {
        len += 1;
    }
    len
}

/// LZ-compress `data`; returns `None` unless the compressed form is strictly smaller
/// (incompressible chunks are stored raw, exactly like the RLE codec's contract).
/// Inputs of 4 GiB or more are never compressed: chunk lengths are `u32` anyway.
pub fn lz_compress(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < MIN_MATCH || data.len() >= NO_POSITION as usize {
        return None;
    }
    let mut out = Vec::with_capacity(data.len() / 2);
    // head[h] = most recent position hashing to h; prev[i] = previous position in
    // i's chain; NO_POSITION marks "no entry". Positions fit u32 (checked above),
    // which halves the tables' footprint against usize.
    let mut head = vec![NO_POSITION; HASH_BUCKETS];
    let mut prev = vec![NO_POSITION; data.len()];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= data.len() {
        let bucket = hash4(data, i);
        // Greedy: take the longest match among the first MAX_CHAIN_DEPTH candidates.
        let mut best_len = 0usize;
        let mut best_distance = 0usize;
        let mut candidate = head[bucket];
        let mut depth = 0;
        let limit = data.len() - i;
        while candidate != NO_POSITION && depth < MAX_CHAIN_DEPTH {
            let earlier = candidate as usize;
            let distance = i - earlier;
            if distance > MAX_DISTANCE {
                break; // chains are position-ordered: older entries are farther
            }
            // A candidate matters only if it beats `best_len` and reaches MIN_MATCH,
            // so it must agree on the four bytes ending at max(best_len, 3)
            // (in bounds: best_len < limit, as a full match stops the search).
            // This probe rejects most candidates without a full comparison.
            let probe = best_len.saturating_sub(MIN_MATCH - 1);
            if word4_at(data, earlier + probe) == word4_at(data, i + probe) {
                let len = match_len(data, earlier, i, limit);
                if len > best_len {
                    best_len = len;
                    best_distance = distance;
                    if len == limit {
                        break;
                    }
                }
            }
            candidate = prev[earlier];
            depth += 1;
        }
        if best_len >= MIN_MATCH {
            flush_lz_literals(&mut out, &data[literal_start..i]);
            let control_len = best_len.min(CONTROL_MATCH_MAX);
            out.push(0x80 | (control_len - MIN_MATCH) as u8);
            out.extend_from_slice(&(best_distance as u16).to_le_bytes());
            if control_len == CONTROL_MATCH_MAX {
                // LZ4-style length extension: each byte adds its value, the first
                // byte below 255 terminates. An exactly-CONTROL_MATCH_MAX match
                // still emits one 0 byte, keeping the framing unambiguous.
                let mut rest = best_len - CONTROL_MATCH_MAX;
                while rest >= 255 {
                    out.push(255);
                    rest -= 255;
                }
                out.push(rest as u8);
            }
            // Insert every covered position into the chains so later matches can
            // reach into this match's span. (Indexing two tables by different
            // keys, so an iterator form would not simplify this.)
            #[allow(clippy::needless_range_loop)]
            for position in i..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                let bucket = hash4(data, position);
                prev[position] = head[bucket];
                head[bucket] = position as u32;
            }
            i += best_len;
            literal_start = i;
        } else {
            prev[i] = head[bucket];
            head[bucket] = i as u32;
            i += 1;
        }
        if out.len() + (i - literal_start) >= data.len() {
            return None; // already not worth it
        }
    }
    flush_lz_literals(&mut out, &data[literal_start..]);
    (out.len() < data.len()).then_some(out)
}

fn flush_lz_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(LITERAL_MAX);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

/// Decompress an LZ stream produced by [`lz_compress`], verifying the expected
/// output length and every match distance.
pub fn lz_decompress(stream: &[u8], expected_len: usize) -> MpiResult<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        if control < 0x80 {
            let take = control as usize + 1;
            if i + take > stream.len() {
                return Err(MpiError::Checkpoint(
                    "truncated LZ literal run in chunk".into(),
                ));
            }
            out.extend_from_slice(&stream[i..i + take]);
            i += take;
        } else {
            let mut len = (control & 0x7F) as usize + MIN_MATCH;
            if i + 2 > stream.len() {
                return Err(MpiError::Checkpoint(
                    "truncated LZ match distance in chunk".into(),
                ));
            }
            let distance = u16::from_le_bytes([stream[i], stream[i + 1]]) as usize;
            i += 2;
            if len == CONTROL_MATCH_MAX {
                loop {
                    let extra = *stream.get(i).ok_or_else(|| {
                        MpiError::Checkpoint("truncated LZ match length extension in chunk".into())
                    })?;
                    i += 1;
                    len += extra as usize;
                    if extra < 255 {
                        break;
                    }
                    if len > expected_len {
                        return Err(MpiError::Checkpoint(
                            "LZ match length extension overruns the chunk".into(),
                        ));
                    }
                }
            }
            if distance == 0 || distance > out.len() {
                return Err(MpiError::Checkpoint(format!(
                    "LZ match reaches {distance} bytes back with only {} produced",
                    out.len()
                )));
            }
            // A distance shorter than the length is an overlapping copy that
            // replicates the last `distance` bytes (the RLE case). Everything from
            // `start` on is then periodic in `distance`, so copying from `start` in
            // pieces of what already exists — distance, 2×distance, 4×… bytes —
            // reproduces the byte-at-a-time result; a non-overlapping match is one
            // piece.
            let start = out.len() - distance;
            let mut remaining = len;
            while remaining > 0 {
                let piece = (out.len() - start).min(remaining);
                out.extend_from_within(start..start + piece);
                remaining -= piece;
            }
        }
        if out.len() > expected_len {
            return Err(MpiError::Checkpoint(format!(
                "LZ chunk decompressed past its recorded length ({} > {expected_len})",
                out.len()
            )));
        }
    }
    if out.len() != expected_len {
        return Err(MpiError::Checkpoint(format!(
            "LZ chunk decompressed to {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// Compress `data` under `codec`, returning the stored bytes and their form.
/// Falls back to stored-raw (borrowed nowhere — the caller keeps `data`) when the
/// codec cannot shrink the chunk.
pub fn compress_chunk(codec: Codec, data: &[u8]) -> (Vec<u8>, StoredForm) {
    match codec {
        Codec::Rle => match crate::chunk::rle_compress(data) {
            Some(stream) => (stream, StoredForm::Rle),
            None => (data.to_vec(), StoredForm::Raw),
        },
        Codec::Lz => match lz_compress(data) {
            Some(stream) => (stream, StoredForm::Lz),
            None => (data.to_vec(), StoredForm::Raw),
        },
    }
}

/// Decode a stored chunk back to its raw bytes according to its recorded form.
pub fn decode_chunk(form: StoredForm, stored: &[u8], raw_len: usize) -> MpiResult<Vec<u8>> {
    match form {
        StoredForm::Raw => Ok(stored.to_vec()),
        StoredForm::Rle => crate::chunk::rle_decompress(stored, raw_len),
        StoredForm::Lz => lz_decompress(stored, raw_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> bool {
        match lz_compress(data) {
            Some(stream) => {
                assert_eq!(lz_decompress(&stream, data.len()).unwrap(), data);
                true
            }
            None => false,
        }
    }

    #[test]
    fn lz_roundtrips_runs_and_repeats() {
        let mut data = vec![0u8; 10_000];
        data[5000..5010].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let stream = lz_compress(&data).expect("zero-dominated data compresses");
        assert!(stream.len() < data.len() / 10);
        assert_eq!(lz_decompress(&stream, data.len()).unwrap(), data);

        // Repeated strings (not runs) — the case RLE cannot touch.
        let phrase = b"the quick brown checkpoint fox ".repeat(64);
        let stream = lz_compress(&phrase).expect("repeated strings compress");
        assert!(stream.len() < phrase.len() / 4);
        assert_eq!(lz_decompress(&stream, phrase.len()).unwrap(), phrase);
    }

    #[test]
    fn lz_handles_overlapping_copies_and_boundaries() {
        // Run of one byte → distance-1 overlapping matches.
        assert!(roundtrip(&[7u8; 500]));
        // Period-2 and period-3 patterns.
        assert!(roundtrip(
            &(0..600).map(|i| (i % 2) as u8).collect::<Vec<_>>()
        ));
        assert!(roundtrip(
            &(0..600).map(|i| (i % 3) as u8).collect::<Vec<_>>()
        ));
        // Exactly MIN_MATCH-long repeat.
        let mut data = b"abcdWXYZabcd".to_vec();
        data.extend_from_slice(&[0; 64]);
        roundtrip(&data);
        // Tiny inputs never compress (no room for an op to win).
        assert!(lz_compress(b"").is_none());
        assert!(lz_compress(b"abc").is_none());
    }

    #[test]
    fn lz_declines_incompressible_data() {
        // A xorshift byte stream: no 4-byte repeats within the window to speak of.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        assert!(lz_compress(&data).is_none());
        let (stored, form) = compress_chunk(Codec::Lz, &data);
        assert_eq!(form, StoredForm::Raw);
        assert_eq!(stored, data);
    }

    #[test]
    fn lz_beats_or_matches_rle_on_run_heavy_data() {
        let mut data = vec![0u8; 40_000];
        for block in 0..10 {
            let at = block * 4000;
            data[at..at + 100].copy_from_slice(&[block as u8 + 1; 100]);
        }
        let lz = lz_compress(&data).unwrap().len();
        let rle = crate::chunk::rle_compress(&data).unwrap().len();
        assert!(lz <= rle, "LZ ({lz}) must not lose to RLE ({rle}) on runs");
    }

    #[test]
    fn lz_decompress_rejects_malformed_streams() {
        assert!(lz_decompress(&[0x05], 6).is_err()); // literal run cut off
        assert!(lz_decompress(&[0x80], 4).is_err()); // match missing distance
        assert!(lz_decompress(&[0x80, 1], 4).is_err()); // distance truncated
        assert!(lz_decompress(&[0x00, 9, 0x80, 5, 0], 5).is_err()); // distance 5 > 1 produced
        assert!(lz_decompress(&[0x00, 9, 0x80, 0, 0], 5).is_err()); // distance 0
        assert!(lz_decompress(&[0x01, 1, 2], 10).is_err()); // too short overall
        assert!(lz_decompress(&[0x00, 9, 0xFF, 1, 0], 2).is_err()); // overruns expected
    }

    #[test]
    fn digests_and_tags_round_trip() {
        assert_ne!(
            Digest::Fnv1a64.hash(b"checkpoint"),
            Digest::Xx64.hash(b"checkpoint")
        );
        for digest in [Digest::Fnv1a64, Digest::Xx64] {
            assert_eq!(Digest::from_tag(digest.tag()).unwrap(), digest);
        }
        assert!(Digest::from_tag(9).is_err());
        for form in [StoredForm::Raw, StoredForm::Rle, StoredForm::Lz] {
            assert_eq!(StoredForm::from_tag(form.tag()).unwrap(), form);
        }
        assert!(StoredForm::from_tag(9).is_err());
        assert!(!StoredForm::Raw.is_compressed());
        assert!(StoredForm::Lz.is_compressed());
    }

    #[test]
    fn config_defaults_and_legacy() {
        let current = StorageConfig::default();
        assert_eq!(current.codec, Codec::Lz);
        assert_eq!(current.digest, Digest::Xx64);
        let legacy = StorageConfig::legacy();
        assert_eq!(legacy.codec, Codec::Rle);
        assert_eq!(legacy.digest, Digest::Fnv1a64);
    }

    #[test]
    fn decode_chunk_dispatches_by_form() {
        let data = vec![3u8; 1000];
        for codec in [Codec::Rle, Codec::Lz] {
            let (stored, form) = compress_chunk(codec, &data);
            assert!(form.is_compressed());
            assert_eq!(decode_chunk(form, &stored, data.len()).unwrap(), data);
        }
        assert_eq!(
            decode_chunk(StoredForm::Raw, &data, data.len()).unwrap(),
            data
        );
    }
}
