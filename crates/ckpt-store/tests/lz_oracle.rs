//! The LZ encoder must emit exactly the stream the original encoder did: stored
//! bytes, `written_bytes` and every codec byte count depend on it. Checked here over
//! synthetic runs, periodic patterns, repeated phrases and noise; the codec corpus
//! test checks the same over every proxy app's checkpoint regions.

#[path = "support/seed_lz.rs"]
mod seed_lz;

use ckpt_store::codec::{lz_compress, lz_decompress};
use seed_lz::seed_lz_compress;

fn xorshift(len: usize, mut state: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state as u8
        })
        .collect()
}

fn assert_same_stream(data: &[u8], what: &str) {
    let stream = lz_compress(data);
    assert_eq!(stream, seed_lz_compress(data), "{what}: streams differ");
    if let Some(stream) = stream {
        assert_eq!(lz_decompress(&stream, data.len()).unwrap(), data, "{what}");
    }
}

#[test]
fn streams_match_the_original_encoder_on_runs_and_periods() {
    for len in 0..=40 {
        assert_same_stream(&vec![9u8; len], &format!("run of {len}"));
    }
    // Runs around the control-byte maximum and the 255-byte extension steps.
    for len in [130, 131, 132, 385, 386, 387, 1000, 65_536, 70_000] {
        assert_same_stream(&vec![0u8; len], &format!("zeros × {len}"));
    }
    for period in 1..=17u32 {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % period * 37) as u8).collect();
        assert_same_stream(&data, &format!("period {period}"));
    }
    let phrase = b"the quick brown checkpoint fox ".repeat(300);
    assert_same_stream(&phrase, "repeated phrase");
}

#[test]
fn streams_match_the_original_encoder_on_noise_and_mixtures() {
    for (len, seed) in [(3, 1), (4, 2), (7, 3), (64, 4), (4096, 5), (65_536, 6)] {
        assert_same_stream(&xorshift(len, seed), &format!("noise {len}"));
    }
    // Noise with runs and copies spliced in: literal flushes, short matches that
    // lose to longer chain candidates, and matches reaching past the 64 KiB window.
    let mut mixed = xorshift(20_000, 7);
    mixed.extend_from_slice(&[0u8; 300]);
    mixed.extend_from_within(1000..9000);
    mixed.extend(xorshift(50_000, 8));
    mixed.extend_from_within(100..6000);
    for step in (0..mixed.len()).step_by(97) {
        mixed[step] = 0;
    }
    assert_same_stream(&mixed, "mixture");
    // Low-entropy noise: many near-matches per chain, so the depth cap and the
    // one-byte probe both decide.
    let nibbles: Vec<u8> = xorshift(30_000, 9).iter().map(|b| b & 0x3).collect();
    assert_same_stream(&nibbles, "two-bit noise");
    for window in [&mixed[..25_000], &mixed[1..], &nibbles[5..4100]] {
        assert_same_stream(window, "sub-slice");
    }
}
