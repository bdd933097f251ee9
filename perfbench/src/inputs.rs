//! The seeded input generator's primitives: a SplitMix64 stream and a
//! canonical byte encoding whose FNV-1a digest identifies an input list.
//!
//! Every workload derives its whole input list from `--seed` through
//! [`SeedRng`], encodes it with [`Encoder`], and hands the program only the
//! decoded values. Equal seeds give byte-identical encodings.

/// SplitMix64: tiny, seedable, and good enough to pick benchmark inputs.
#[derive(Debug, Clone)]
pub struct SeedRng {
    state: u64,
}

impl SeedRng {
    /// A stream for `seed`, separated from other streams by `salt` so
    /// workloads sharing a seed draw unrelated inputs.
    pub fn new(seed: u64, salt: &str) -> Self {
        SeedRng {
            state: seed ^ fnv1a(salt.as_bytes()),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Canonical little-endian encoding of an input list.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Encoder {
    bytes: Vec<u8>,
}

impl Encoder {
    /// Appends an integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes.extend_from_slice(&value.to_le_bytes());
        self
    }

    /// Appends a float by its bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Appends a length-prefixed string.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64);
        self.bytes.extend_from_slice(value.as_bytes());
        self
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The FNV-1a digest of the encoded bytes.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }
}
