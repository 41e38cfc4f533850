//! The LZ encoder as `ckpt_store::codec::lz_compress` first shipped, kept as a test
//! oracle: the optimized encoder must emit exactly the same stream for every input,
//! so stored bytes, `written_bytes` and the codec corpus's byte counts cannot move.
//!
//! Included by path from the ckpt-store and codec-corpus tests.

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

#[inline]
fn hash4(bytes: &[u8], at: usize) -> usize {
    // Multiplicative hash of the 4 bytes starting at `at` (caller guarantees them).
    let v = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize & (HASH_BUCKETS - 1)
}

/// The original LZ encoder, byte for byte: `usize` hash chains and a byte-at-a-time
/// match extension.
pub fn seed_lz_compress(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < MIN_MATCH {
        return None;
    }
    let mut out = Vec::with_capacity(data.len() / 2);
    // head[h] = most recent position hashing to h; prev[i] = previous position in
    // i's chain. usize::MAX marks "no entry".
    let mut head = vec![usize::MAX; HASH_BUCKETS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= data.len() {
        let bucket = hash4(data, i);
        // Greedy: take the longest match among the first MAX_CHAIN_DEPTH candidates.
        let mut best_len = 0usize;
        let mut best_distance = 0usize;
        let mut candidate = head[bucket];
        let mut depth = 0;
        while candidate != usize::MAX && depth < MAX_CHAIN_DEPTH {
            let distance = i - candidate;
            if distance > MAX_DISTANCE {
                break; // chains are position-ordered: older entries are farther
            }
            let limit = data.len() - i;
            let mut len = 0usize;
            while len < limit && data[candidate + len] == data[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_distance = distance;
                if len == limit {
                    break;
                }
            }
            candidate = prev[candidate];
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
                head[bucket] = position;
            }
            i += best_len;
            literal_start = i;
        } else {
            prev[i] = head[bucket];
            head[bucket] = i;
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
