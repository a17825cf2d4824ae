//! Table-driven VLC decoding (the WebGraph technique, see
//! `webgraph-rs`'s `code_tables_generator.py`): short codewords dominate
//! real gap streams, so a table indexed by the next 16 stream bits resolves
//! most codewords — and, in the multi-gap variant, *runs* of up to
//! [`MAX_PACKED`] consecutive short codewords — in a single probe, falling
//! back to the broadword slow path ([`Code::decode_at`]) only when the
//! window is exhausted or a codeword exceeds [`WINDOW_BITS`] bits.
//!
//! The fast path is **bitwise equivalent** to the slow path by
//! construction: every table entry is built by running the slow-path oracle
//! on the window prefix, and a probe is only a hit when the codeword(s)
//! fit entirely inside the window, whose bits are real stream bits (zero
//! padding past the end of a [`BitVec`] can never fabricate the unary
//! terminator). All of the slow path's hardening carries over for free —
//! the ≥64-zero unary rejection, codeword-0 values surfacing to the
//! callers' checked arithmetic, truncated-stream `None`s — which the
//! differential property tests pin window-by-window.
//!
//! Tables are immutable after construction and `Send + Sync`; build one per
//! process per code through [`DecodeTable::shared`] and hand the `Arc`
//! around (a `PreparedGraph` and every serving worker decode through the
//! same allocation).

use std::sync::{Arc, Mutex, OnceLock};

use crate::bitvec::BitVec;
use crate::codes::Code;

/// Bits of lookahead indexing the tables: every probe reads the next 16
/// stream bits ([`BitVec::peek_word`] high bits) and indexes a 65 536-entry
/// table. 16 covers all single codewords of values up to 255 (γ) / 4 095
/// (ζ3) and packs several small residual gaps per probe, while keeping a
/// full code's tables around 1 MiB — resident in L2, as on the GPU they
/// would sit in shared memory.
pub const WINDOW_BITS: u32 = 16;

/// Maximum consecutive codewords a multi-gap probe resolves at once.
pub const MAX_PACKED: usize = 4;

const TABLE_LEN: usize = 1 << WINDOW_BITS;

/// The shared residual-gap benchmark workload: `n` values shaped like an
/// LLP-reordered CGR residual area (overwhelmingly small gaps, a tail of
/// longer jumps). The `repro -- decode` experiment measures the
/// table-vs-slow-path speedup on **this** distribution, so the ≥2× ζ3
/// acceptance bar always means the same workload.
pub fn residual_gap_values(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let r = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40;
            match r % 16 {
                0..=11 => r % 8 + 1,   // short gaps dominate
                12..=14 => r % 64 + 1, // medium
                _ => r % 100_000 + 1,  // occasional long jump
            }
        })
        .collect()
}

/// One multi-gap probe result: up to [`MAX_PACKED`] consecutive codewords
/// resolved from one window, in exactly one 16-byte (quarter-cache-line)
/// record — raw values, *cumulative* per-codeword end offsets (so a caller
/// can take a prefix of the packed run and still know its exact bit
/// position, keeping bounds checks per codeword identical to the slow
/// path), and the count (`0` = slow path even for the first codeword).
/// Returned by value: one aligned 16-byte copy per probe.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(16))]
pub struct PackedRun {
    vals: [u16; MAX_PACKED],
    ends: [u8; MAX_PACKED],
    count: u8,
    _pad: [u8; 3],
}

impl PackedRun {
    /// How many consecutive codewords this probe resolved (0 = slow path).
    #[inline]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the probe resolved nothing (slow path required).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Raw codeword value `i` (valid for `i < len()`).
    #[inline]
    pub fn value(&self, i: usize) -> u64 {
        u64::from(self.vals[i])
    }

    /// Cumulative end offset of codeword `i` in bits from the probe
    /// position: consuming codewords `0..=i` leaves the cursor exactly at
    /// `pos + end(i)`, bitwise where `i + 1` sequential slow-path decodes
    /// would.
    #[inline]
    pub fn end(&self, i: usize) -> usize {
        self.ends[i] as usize
    }
}

/// Precomputed decode tables for one [`Code`]: a single-codeword table and
/// a multi-gap table packing up to [`MAX_PACKED`] consecutive codewords per
/// probe — built *from* the slow-path oracle and bitwise equivalent to it:
/// a probe only hits when the codeword(s) fit entirely inside the window,
/// whose bits are real stream bits (zero padding past the end of a
/// [`BitVec`] can never fabricate the unary terminator), so the slow
/// path's hardening (≥64-zero unary rejection, codeword-0 values surfacing
/// to callers' checked arithmetic, truncated-stream `None`s) carries over
/// unchanged.
///
/// Storage is laid out for one memory touch per probe: the single-codeword
/// table packs `value | (len << 16)` into a `u32` (values fit 16 bits
/// because a ≤16-bit codeword carries at most 15 payload bits — every code
/// spends ≥ 1 bit on the unary part; entry `0` marks a slow-path window),
/// and each multi-gap entry is one aligned 16-byte record.
pub struct DecodeTable {
    code: Code,
    single: Box<[u32; TABLE_LEN]>,
    packed: Box<[PackedRun; TABLE_LEN]>,
}

impl std::fmt::Debug for DecodeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeTable")
            .field("code", &self.code)
            .field("window_bits", &WINDOW_BITS)
            .finish_non_exhaustive()
    }
}

impl DecodeTable {
    /// Builds the tables for `code` by sweeping every 16-bit window prefix
    /// through the slow-path oracle. O(2¹⁶) decodes, a few milliseconds —
    /// prefer [`DecodeTable::shared`] to build each code's tables once per
    /// process.
    pub fn new(code: Code) -> DecodeTable {
        let mut single = vec![0u32; TABLE_LEN];
        let mut packed = vec![PackedRun::default(); TABLE_LEN];

        for w in 0..TABLE_LEN as u64 {
            // The window as a WINDOW_BITS-long stream: the oracle sees
            // exactly these bits and nothing else, so a decode consuming
            // ≤ WINDOW_BITS bits is valid for *any* stream starting with
            // this prefix.
            let window =
                BitVec::try_from_words(vec![w << (64 - WINDOW_BITS)], WINDOW_BITS as usize)
                    .expect("window padding is zero by construction");
            let idx = w as usize;
            let mut pos = 0usize;
            while (packed[idx].count as usize) < MAX_PACKED {
                match code.decode_at(&window, pos) {
                    Some((v, next)) if next <= WINDOW_BITS as usize => {
                        debug_assert!(v < 1 << WINDOW_BITS, "≤16-bit codeword value");
                        let slot = packed[idx].count as usize;
                        packed[idx].vals[slot] = v as u16;
                        packed[idx].ends[slot] = next as u8;
                        packed[idx].count += 1;
                        if slot == 0 {
                            single[idx] = v as u32 | (next as u32) << 16;
                        }
                        pos = next;
                    }
                    // Codeword runs past the window (or the window holds no
                    // valid codeword): everything from here is slow-path.
                    _ => break,
                }
            }
        }
        let single: Box<[u32; TABLE_LEN]> = single
            .into_boxed_slice()
            .try_into()
            .expect("table length is TABLE_LEN");
        let packed: Box<[PackedRun; TABLE_LEN]> = packed
            .into_boxed_slice()
            .try_into()
            .expect("table length is TABLE_LEN");
        DecodeTable {
            code,
            single,
            packed,
        }
    }

    /// The process-wide shared table for `code`: built on first use, then
    /// reused through the returned `Arc` — every `CgrGraph` (and through
    /// it every session, executor and serving worker) decoding the same
    /// code shares one allocation.
    pub fn shared(code: Code) -> Arc<DecodeTable> {
        type Cache = Mutex<Vec<(Code, Arc<DecodeTable>)>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        {
            let cache = cache.lock().expect("decode-table cache poisoned");
            if let Some((_, table)) = cache.iter().find(|(c, _)| *c == code) {
                return Arc::clone(table);
            }
        }
        // Build outside the lock (construction is idempotent; a racing
        // duplicate is dropped below).
        let built = Arc::new(DecodeTable::new(code));
        let mut cache = cache.lock().expect("decode-table cache poisoned");
        if let Some((_, table)) = cache.iter().find(|(c, _)| *c == code) {
            return Arc::clone(table);
        }
        cache.push((code, Arc::clone(&built)));
        built
    }

    /// The code these tables decode.
    #[inline]
    pub fn code(&self) -> Code {
        self.code
    }

    /// Table-accelerated [`Code::decode_at`]: one probe resolves any
    /// codeword of ≤ [`WINDOW_BITS`] bits; longer codewords (and windows
    /// with no valid codeword) fall back to the slow path. Bitwise
    /// equivalent to `self.code().decode_at(bits, pos)` on every input,
    /// including truncated and adversarial streams.
    #[inline]
    pub fn decode_at(&self, bits: &BitVec, pos: usize) -> Option<(u64, usize)> {
        let idx = (bits.peek_word(pos) >> (64 - WINDOW_BITS)) as usize;
        let e = self.single[idx];
        if e != 0 {
            // Hit: the codeword's one bits are real stream bits (padding is
            // zero), and its payload zero-extends exactly as the slow
            // path's padded reads do.
            return Some((u64::from(e & 0xFFFF), pos + (e >> 16) as usize));
        }
        self.code.decode_at(bits, pos)
    }

    /// Multi-gap probe: resolves up to [`MAX_PACKED`] **consecutive**
    /// codewords from one window, returned as one 16-byte [`PackedRun`]
    /// copy. An empty run means even the first codeword needs the slow
    /// path — callers then take [`DecodeTable::decode_at`] for one
    /// codeword and re-probe. Taking any *prefix* of the run is sound:
    /// see [`PackedRun::end`].
    #[inline]
    pub fn decode_packed_at(&self, bits: &BitVec, pos: usize) -> PackedRun {
        let idx = (bits.peek_word(pos) >> (64 - WINDOW_BITS)) as usize;
        self.packed[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitWriter;

    fn stream(code: Code, values: &[u64]) -> BitVec {
        let mut w = BitWriter::new();
        for &v in values {
            code.encode(&mut w, v);
        }
        w.into_bitvec()
    }

    #[test]
    fn table_is_send_sync_and_shared_once() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeTable>();
        let a = DecodeTable::shared(Code::Zeta(3));
        let b = DecodeTable::shared(Code::Zeta(3));
        assert!(Arc::ptr_eq(&a, &b), "one allocation per code per process");
        let g = DecodeTable::shared(Code::Gamma);
        assert!(!Arc::ptr_eq(&a, &g));
    }

    #[test]
    fn single_probe_matches_slow_path_on_valid_streams() {
        for code in Code::FIGURE11_SWEEP {
            let table = DecodeTable::shared(code);
            let values: Vec<u64> = (1..400).map(|i| i * 13 % 97 + 1).collect();
            let bits = stream(code, &values);
            let mut pos = 0usize;
            for &want in &values {
                let slow = code.decode_at(&bits, pos).expect("slow");
                let fast = table.decode_at(&bits, pos).expect("fast");
                assert_eq!(fast, slow, "{} at bit {pos}", code.name());
                assert_eq!(fast.0, want);
                pos = fast.1;
            }
            assert_eq!(table.decode_at(&bits, pos), None, "end of stream");
        }
    }

    #[test]
    fn long_codewords_fall_back_to_the_slow_path() {
        // Values whose codewords exceed the 16-bit window: the table must
        // defer, and still answer identically.
        for code in Code::FIGURE11_SWEEP {
            let values = [1u64 << 20, u64::from(u32::MAX), 1u64 << 40, 7, 1 << 33];
            let bits = stream(code, &values);
            let table = DecodeTable::shared(code);
            let mut pos = 0usize;
            for &want in &values {
                let (v, next) = table.decode_at(&bits, pos).expect("decodes");
                assert_eq!(v, want, "{}", code.name());
                assert_eq!(Some((v, next)), code.decode_at(&bits, pos));
                pos = next;
            }
        }
    }

    #[test]
    fn packed_probe_matches_sequential_slow_decodes() {
        for code in Code::FIGURE11_SWEEP {
            let table = DecodeTable::shared(code);
            // Small residual-like gaps: several codewords per window.
            let values: Vec<u64> = (0..600u64).map(|i| i % 7 + 1).collect();
            let bits = stream(code, &values);
            let mut pos = 0usize;
            let mut decoded = Vec::new();
            while decoded.len() < values.len() {
                let run = table.decode_packed_at(&bits, pos);
                if run.is_empty() {
                    let (v, next) = table.decode_at(&bits, pos).expect("fallback");
                    decoded.push(v);
                    pos = next;
                    continue;
                }
                // Every prefix position matches sequential slow decoding.
                let mut check = pos;
                for i in 0..run.len() {
                    let (v, next) = code.decode_at(&bits, check).expect("slow");
                    assert_eq!(v, run.value(i), "{} codeword {i}", code.name());
                    assert_eq!(next, pos + run.end(i), "{} codeword {i}", code.name());
                    check = next;
                }
                for i in 0..run.len() {
                    decoded.push(run.value(i));
                }
                pos += run.end(run.len() - 1);
            }
            assert_eq!(decoded[..values.len()], values[..], "{}", code.name());
            // Dense small gaps must actually pack (that is the speedup).
            assert!(
                table.decode_packed_at(&bits, 0).len() >= 2,
                "{}: no packing on a dense small-gap stream",
                code.name()
            );
        }
    }

    #[test]
    fn adversarial_windows_match_the_slow_path() {
        // ≥64-zero unary runs, codeword-0-shaped payloads, truncated
        // streams: the fast path must reproduce the slow path bit for bit,
        // including the Nones.
        let mut w = BitWriter::new();
        w.push_zeros(80);
        w.push_bit(true);
        w.push_bits(0, 12);
        let adversarial = w.into_bitvec();
        for code in Code::FIGURE11_SWEEP {
            let table = DecodeTable::shared(code);
            for pos in 0..adversarial.len() {
                assert_eq!(
                    table.decode_at(&adversarial, pos),
                    code.decode_at(&adversarial, pos),
                    "{} at bit {pos}",
                    code.name()
                );
            }
        }
        // A truncated single-codeword stream: probes at every offset agree.
        let truncated = stream(Code::Zeta(3), &[100_000]);
        let table = DecodeTable::shared(Code::Zeta(3));
        for pos in 0..truncated.len() {
            assert_eq!(
                table.decode_at(&truncated, pos),
                Code::Zeta(3).decode_at(&truncated, pos),
                "bit {pos}"
            );
        }
    }
}
