//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! Hand-rolled because the build is fully offline (no registry crates). The
//! parameters match zlib's `crc32()`, so images can be cross-checked with
//! standard tooling.
//!
//! Recovery checksums the whole snapshot image, about 11 MB on the
//! benchmark's lineage, so the checksum loop's speed is most of a snapshot
//! load. The classic byte-at-a-time table loop runs one dependent lookup
//! per byte: 2.7–2.9 ns a byte, 32 ms for 11 MB, on a 2-vCPU Xeon. This one
//! is **slicing-by-16**: sixteen tables, where `TABLES[k][b]` is the CRC
//! contribution of byte `b` followed by `k` zero bytes, fold sixteen input
//! bytes per step with sixteen independent lookups (0.5–0.6 ns a byte,
//! 6–7 ms, on the same machine). The tail shorter than sixteen bytes runs
//! byte-wise on `TABLES[0]`, the classic table. Both compute the same
//! linear map over GF(2), so every CRC value is unchanged; the byte-wise
//! loop is kept as the test reference.

/// `TABLES[0]` is the classic 256-entry table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` by one zero byte. Generated at compile time.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32 over the concatenation of `parts`, without materialising it —
/// used to checksum a framing header together with its payload.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        crc = update(crc, part);
    }
    crc ^ 0xFFFF_FFFF
}

/// Advances the (pre-inverted) register `crc` over `bytes`, sixteen bytes a
/// step.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time loop over `TABLES[0]`, advancing the
    /// pre-inverted register like [`update`]: the reference slicing-by-16
    /// must match bit for bit.
    fn bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// The reference CRC-32 of `bytes`.
    fn reference(bytes: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// SplitMix64 bytes, so the property test needs no dependency.
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn matches_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn parts_match_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), crc32(b"123456789"));
        assert_eq!(crc32_parts(&[b"", b"abc", b""]), crc32(b"abc"));
        assert_eq!(crc32_parts(&[]), crc32(b""));
    }

    /// Slicing-by-16 ≡ the byte-wise reference: every length 0–4 096 at
    /// every start offset 0–15 (so every alignment and every tail length),
    /// random split points for `crc32_parts`, and one 11 MB buffer, the size
    /// of the benchmark's snapshot image.
    #[test]
    fn slicing_by_16_matches_the_bytewise_reference() {
        let data = noise(4096 + 16, 1);
        for start in 0..16 {
            // The reference register runs along the buffer once per start.
            let mut register = 0xFFFF_FFFF;
            for len in 0..=4096 {
                if len > 0 {
                    register = bytewise(register, &data[start + len - 1..start + len]);
                }
                assert_eq!(
                    crc32(&data[start..start + len]),
                    register ^ 0xFFFF_FFFF,
                    "start {start}, length {len}"
                );
            }
        }
        let mut state = 0x6372_6333_3221u64;
        for round in 0..2000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = (state >> 33) as usize % data.len();
            let a = (state >> 11) as usize % (len + 1);
            let b = (state >> 22) as usize % (len + 1);
            let (a, b) = (a.min(b), a.max(b));
            let whole = &data[..len];
            let parts = [&whole[..a], &whole[a..b], &whole[b..]];
            assert_eq!(
                crc32_parts(&parts),
                reference(whole),
                "round {round}: length {len}, splits {a} / {b}"
            );
        }
        let image = noise(11 * 1024 * 1024 + 7, 2);
        assert_eq!(crc32(&image), reference(&image));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"hello, persistent world".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
