//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant), hand-rolled
//! with compile-time lookup tables so the crate stays dependency-free.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k`
//! zero bytes, so eight input bytes fold into the running value with
//! eight independent lookups instead of eight dependent ones. The
//! checksum runs inside the log mutex on every enqueue and over every
//! recovered record.

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// One byte at a time: the tail of [`crc32`], and the reference its
/// test compares the sliced loop against.
fn update_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of `bytes` (all-ones preset and final inversion, per the
/// IEEE definition).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    update_bytewise(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytewise(bytes: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_loop_equals_the_bytewise_one() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            // xorshift64*: any seeded stream of bytes will do.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Every length 0..=64 at every alignment within a word.
        let backing: Vec<u8> = (0..64 + 8).map(|_| next() as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &backing[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {offset} len {len}");
            }
        }
        for _ in 0..1000 {
            let len = (next() % 4097) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), bytewise(&buf), "len {len}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"txboost wal record payload";
        let base = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
