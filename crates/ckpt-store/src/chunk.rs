//! Content-defined chunking, content digests, and the in-tree RLE codec.
//!
//! Cut points follow content, not offsets: a gear hash rolls over the data and a
//! chunk ends where the hash of the last 64 bytes has its top mask bits
//! clear (the LBFS/FastCDC scheme). Bytes inserted or removed early in a region
//! therefore move only the cuts next to the edit; every later chunk keeps its
//! content, its digest and its place in the content-addressed store. Each chunk is
//! between `chunk_size / 4` and `chunk_size` bytes, except a region's last, which
//! may be shorter.

use crate::codec::{Digest, StoredForm};
use mpi_model::error::{MpiError, MpiResult};
use serde::{Deserialize, Serialize};

/// Default chunk size — the hard maximum a content-defined cut may reach: 64 KiB
/// balances dedup granularity against per-chunk overhead (digest + manifest entry)
/// for the multi-MiB upper halves of Table 3.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// The largest chunk size a store may be configured with or a manifest may claim
/// (16 × the default). A read pre-allocates each region by the sizes its chunks
/// claim, so without this bound a CRC-valid crafted manifest could ask for 4 GiB
/// per chunk entry before a single chunk is fetched.
pub const MAX_CHUNK_SIZE: usize = 16 * DEFAULT_CHUNK_SIZE;

/// Bytes the gear hash remembers: each step shifts the hash left by one bit, so a
/// byte's contribution is gone 64 steps later.
const GEAR_WINDOW: usize = 64;

/// Seed of the gear table. Changing it moves every cut point, and with them every
/// chunk key a store already holds, so it is fixed for good.
const GEAR_SEED: u64 = 0x6765_6172_6364_6331;

/// One pseudo-random 64-bit value per byte value, from SplitMix64.
static GEAR: [u64; 256] = gear_table(GEAR_SEED);

const fn gear_table(seed: u64) -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut state = seed;
    let mut i = 0;
    while i < table.len() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// The cut parameters derived from one `chunk_size`.
struct Cuts {
    min: usize,
    max: usize,
    /// Top bits of the gear hash that must all be clear for a cut. The top bits mix
    /// the whole window; the low bits see only the last few bytes.
    mask: u64,
}

impl Cuts {
    fn new(chunk_size: usize) -> Cuts {
        let max = chunk_size.max(1);
        let min = (max / 4).max(1);
        // A cut is then expected about `min` bytes past the minimum, so chunks
        // average roughly half the maximum and few are forced at the maximum.
        let bits = min.ilog2();
        let mask = if bits == 0 {
            0
        } else {
            u64::MAX << (64 - bits)
        };
        Cuts { min, max, mask }
    }

    /// Length of the chunk that starts at the front of `data`.
    fn next_len(&self, data: &[u8]) -> usize {
        if data.len() <= self.min {
            return data.len();
        }
        let end = data.len().min(self.max);
        // Warm the hash on the window before the minimum, so that every candidate
        // cut depends on the content of its window alone, not on where the chunk
        // began.
        let mut hash = 0u64;
        for &byte in &data[self.min.saturating_sub(GEAR_WINDOW)..self.min] {
            hash = (hash << 1).wrapping_add(GEAR[byte as usize]);
        }
        for (offset, &byte) in data[self.min..end].iter().enumerate() {
            hash = (hash << 1).wrapping_add(GEAR[byte as usize]);
            if hash & self.mask == 0 {
                return self.min + offset + 1;
            }
        }
        end
    }
}

/// One chunk reference inside a region manifest: enough to find the chunk in the
/// store and to verify it end-to-end after reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkRef {
    /// Digest of the *uncompressed* chunk content (the content address). Which
    /// digest function produced it is recorded once per manifest
    /// ([`crate::Manifest::digest`]), not per chunk.
    pub digest: u64,
    /// Uncompressed chunk length in bytes.
    pub raw_len: u32,
    /// Bytes the chunk occupies in the store (post-compression if compressed).
    pub stored_len: u32,
    /// The form the stored bytes take (raw / RLE / LZ) — the read path decodes by
    /// this record, never by the store's current codec configuration.
    pub form: StoredForm,
}

impl ChunkRef {
    /// The store key: digest plus length, shrinking the collision window further.
    /// Images written under different digest functions therefore occupy disjoint
    /// key spaces and never alias each other.
    pub fn key(&self) -> (u64, u32) {
        (self.digest, self.raw_len)
    }
}

/// Split `data` at content-defined cut points and hand `(digest, slice)` pairs to
/// `visit` in order, addressing each chunk with `digest_fn`. Every chunk is between
/// `chunk_size / 4` and `chunk_size` bytes except the last, which may be shorter;
/// empty data yields no chunks. The cuts are a pure function of `data` and
/// `chunk_size`.
pub fn for_each_chunk(
    data: &[u8],
    chunk_size: usize,
    digest_fn: Digest,
    mut visit: impl FnMut(u64, &[u8]),
) {
    let cuts = Cuts::new(chunk_size);
    let mut rest = data;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at(cuts.next_len(rest));
        visit(digest_fn.hash(piece), piece);
        rest = tail;
    }
}

// ----------------------------------------------------------------------------------
// RLE codec
// ----------------------------------------------------------------------------------
//
// Stream of ops. Control byte `c`:
//   c < 0x80  → literal run: the next `c + 1` bytes are copied verbatim (1..=128);
//   c >= 0x80 → repeat run: the next byte repeats `(c - 0x80) + RUN_MIN` times
//               (RUN_MIN..=RUN_MIN+127).
// Runs shorter than RUN_MIN are cheaper as literals, so the encoder never emits them.

const RUN_MIN: usize = 3;
const RUN_MAX: usize = RUN_MIN + 127;
const LITERAL_MAX: usize = 128;

/// RLE-compress `data`; returns `None` unless the compressed form is strictly smaller
/// (incompressible chunks are stored raw).
pub fn rle_compress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        // Measure the run starting at i.
        let byte = data[i];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == byte && run < RUN_MAX {
            run += 1;
        }
        if run >= RUN_MIN {
            flush_literals(&mut out, &data[literal_start..i]);
            out.push(0x80 | (run - RUN_MIN) as u8);
            out.push(byte);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
        if out.len() >= data.len() {
            return None; // already not worth it
        }
    }
    flush_literals(&mut out, &data[literal_start..]);
    (out.len() < data.len()).then_some(out)
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(LITERAL_MAX);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

/// Decompress an RLE stream produced by [`rle_compress`], verifying the expected
/// output length.
pub fn rle_decompress(stream: &[u8], expected_len: usize) -> MpiResult<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        if control < 0x80 {
            let take = control as usize + 1;
            if i + take > stream.len() {
                return Err(MpiError::Checkpoint(
                    "truncated RLE literal run in chunk".into(),
                ));
            }
            out.extend_from_slice(&stream[i..i + take]);
            i += take;
        } else {
            let run = (control & 0x7F) as usize + RUN_MIN;
            let byte = *stream
                .get(i)
                .ok_or_else(|| MpiError::Checkpoint("truncated RLE repeat run in chunk".into()))?;
            i += 1;
            out.resize(out.len() + run, byte);
        }
        if out.len() > expected_len {
            return Err(MpiError::Checkpoint(format!(
                "RLE chunk decompressed past its recorded length ({} > {expected_len})",
                out.len()
            )));
        }
    }
    if out.len() != expected_len {
        return Err(MpiError::Checkpoint(format!(
            "RLE chunk decompressed to {} bytes, expected {expected_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic non-repeating bytes: the low byte of successive gear tables.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len.div_ceil(256) as u64)
            .flat_map(|block| gear_table(seed ^ (block << 32)).map(|word| word as u8))
            .take(len)
            .collect()
    }

    fn pieces(data: &[u8], chunk_size: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for_each_chunk(data, chunk_size, Digest::Xx64, |_, piece| {
            out.push(piece.to_vec())
        });
        out
    }

    #[test]
    fn chunking_covers_all_bytes_in_order() {
        let data = noise(2048 * 8, 7);
        for chunk_size in [128, 1000, 4096] {
            for digest_fn in [Digest::Fnv1a64, Digest::Xx64] {
                let mut reassembled = Vec::new();
                let mut lens = Vec::new();
                for_each_chunk(&data, chunk_size, digest_fn, |digest, piece| {
                    assert_eq!(digest, digest_fn.hash(piece));
                    reassembled.extend_from_slice(piece);
                    lens.push(piece.len());
                });
                assert_eq!(reassembled, data);
                // Every piece but the last lies in [chunk_size / 4, chunk_size].
                let (last, body) = lens.split_last().expect("non-empty data chunks");
                assert!(*last >= 1 && *last <= chunk_size);
                for &len in body {
                    assert!((chunk_size / 4..=chunk_size).contains(&len), "{len}");
                }
                // Content, not offsets, decides the cuts: some fall short of the max.
                assert!(body.iter().any(|&len| len < chunk_size), "{lens:?}");
            }
            // Cuts are deterministic.
            assert_eq!(pieces(&data, chunk_size), pieces(&data, chunk_size));
        }

        let mut none = 0;
        for_each_chunk(&[], 128, Digest::Xx64, |_, _| none += 1);
        assert_eq!(none, 0);
        // Degenerate sizes still cover the data, one byte at a time at size 1.
        assert_eq!(
            pieces(b"abc", 1),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );
        assert_eq!(pieces(b"abc", 0).concat(), b"abc");
    }

    #[test]
    fn an_insertion_moves_only_the_cuts_next_to_it() {
        let data = noise(64 * 1024, 11);
        let before = pieces(&data, 1024);
        let mut shifted = b"xyz".to_vec();
        shifted.extend_from_slice(&data);
        let after = pieces(&shifted, 1024);
        let kept = after.iter().filter(|piece| before.contains(piece)).count();
        assert!(
            after.len() - kept <= 3,
            "{} of {} pieces changed",
            after.len() - kept,
            after.len()
        );
    }

    #[test]
    fn uniform_bytes_cut_at_the_maximum() {
        // A constant byte drives the gear hash to a fixed point, so runs are cut
        // either always at the first candidate or, as with this table, at the max.
        let lens: Vec<usize> = pieces(&[0u8; 10_000], 1024).iter().map(Vec::len).collect();
        let (last, body) = lens.split_last().unwrap();
        assert!(body.iter().all(|&len| len == 1024), "{lens:?}");
        assert_eq!(body.iter().sum::<usize>() + last, 10_000);
    }

    #[test]
    fn rle_roundtrips_compressible_data() {
        let mut data = vec![0u8; 10_000];
        data[5000..5010].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let compressed = rle_compress(&data).expect("zero-dominated data compresses");
        assert!(compressed.len() < data.len() / 10);
        assert_eq!(rle_decompress(&compressed, data.len()).unwrap(), data);
    }

    #[test]
    fn rle_roundtrips_long_runs_and_alternations() {
        // Max-length runs, runs of exactly RUN_MIN, and alternating bytes.
        let mut data = vec![7u8; RUN_MAX * 3 + 1];
        data.extend_from_slice(&[1, 1, 1]);
        data.extend((0..500u32).map(|i| (i % 2) as u8));
        match rle_compress(&data) {
            Some(compressed) => {
                assert_eq!(rle_decompress(&compressed, data.len()).unwrap(), data)
            }
            None => panic!("run-dominated data should compress"),
        }
    }

    #[test]
    fn rle_declines_incompressible_data() {
        // A permutation-ish byte sequence with no runs ≥ 3.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(97) % 256) as u8)
            .collect();
        assert!(rle_compress(&data).is_none());
    }

    #[test]
    fn rle_decompress_rejects_malformed_streams() {
        assert!(rle_decompress(&[0x05], 6).is_err()); // literal run cut off
        assert!(rle_decompress(&[0x80], 3).is_err()); // repeat run missing byte
        assert!(rle_decompress(&[0x80, 9], 100).is_err()); // too short overall
        assert!(rle_decompress(&[0xFF, 9], 2).is_err()); // overruns expected length
    }
}
