//! The `spmstk01` on-disk layout: constants, checksums, and the
//! fixed-width framing records (block frame header, index entry,
//! footer). DESIGN.md §11 is the prose specification of this module.
//!
//! ```text
//! file   := header block* index footer
//!
//! header (16 bytes):
//!   0   8  magic "spmstk01"
//!   8   4  block budget in bytes, u32 LE (writer's pre-compression
//!          target; informational)
//!   12  1  sync policy the writer ran under, u8 (0 = none, 1 = block,
//!          2 = close; unknown values read as none). Files from
//!          writers predating this byte carry 0, which is accurate:
//!          those writers never synced.
//!   13  1  compression applied to every block payload, u8 (0 = none,
//!          1 = lz; unknown values are rejected — decoding a payload
//!          under the wrong codec would be garbage). Files from writers
//!          predating this byte carry 0: uncompressed, which is what
//!          those writers wrote.
//!   14  2  reserved (0)
//!
//! block (40-byte frame header + payload):
//!   0   4  payload length in bytes, u32 LE (the *stored* length: the
//!          compressed length when the header enables compression)
//!   4   4  event count, u32 LE
//!   8   8  first event sequence number, u64 LE (0-based)
//!   16  8  start instruction watermark, u64 LE (icount before the
//!          block's first event; the first delta is relative to it)
//!   24  8  end instruction watermark, u64 LE (icount after the last)
//!   32  8  FNV-1a-64 checksum of the stored payload bytes, u64 LE
//!          (computed over what is on disk, so frame verification and
//!          torn-tail recovery never need to decompress)
//!   40  —  payload: events encoded with the `spm_sim::record` codec
//!          (tag byte + LEB128 varints, icount delta-encoded),
//!          with the delta base reset to the start watermark. Under
//!          compression the stored bytes are the [`crate::compress`]
//!          encoding of that event payload.
//!
//! index (40 bytes per block):
//!   0   8  file offset of the block frame, u64 LE
//!   8   8  first event sequence number, u64 LE
//!   16  8  start instruction watermark, u64 LE
//!   24  8  end instruction watermark, u64 LE
//!   32  4  event count, u32 LE
//!   36  4  payload length, u32 LE
//!
//! footer (56 bytes, fixed position at end of file):
//!   0   8  file offset of the index, u64 LE
//!   8   8  block count, u64 LE
//!   16  8  total event count, u64 LE
//!   24  8  total instruction watermark, u64 LE
//!   32  8  FNV-1a-64 checksum of the index bytes, u64 LE
//!   40  4  static block-id space of the traced program, u32 LE
//!          (0 = unknown; sizes BBVs for trace-only simpoint runs)
//!   44  4  reserved, u32 LE (0)
//!   48  8  magic "spmstk01" again (tail magic: cheap truncation check)
//! ```
//!
//! Every multi-byte integer is little-endian. Because blocks reset the
//! delta base and carry their own start watermark and sequence number,
//! any block decodes independently of every other — the property the
//! skip-bad-blocks recovery path and the serve wire protocol rely on.

use spm_sim::record::DecodeError;

/// Magic bytes opening (and closing) an `spmstk01` container.
pub const MAGIC: &[u8; 8] = b"spmstk01";

/// Magic prefix shared by all store versions.
pub const MAGIC_PREFIX: &[u8; 6] = b"spmstk";

/// Byte length of the file header.
pub const HEADER_LEN: usize = 16;

/// Byte length of a block frame header.
pub const FRAME_LEN: usize = 40;

/// Byte length of one index entry.
pub const INDEX_ENTRY_LEN: usize = 40;

/// Byte length of the footer.
pub const FOOTER_LEN: usize = 56;

/// Default pre-compression block budget (~256 KiB of encoded payload).
pub const DEFAULT_BLOCK_BUDGET: usize = 256 * 1024;

/// Byte offset of the sync-policy byte inside the header.
pub const SYNC_POLICY_OFFSET: usize = 12;

/// Byte offset of the compression byte inside the header.
pub const COMPRESSION_OFFSET: usize = 13;

/// When the writer issues durability barriers (`sync`) to its sink.
///
/// The policy is recorded in the header (one byte at
/// [`SYNC_POLICY_OFFSET`]) so a reader can tell how much a torn file
/// was allowed to lose: under `Block`, everything up to the last
/// committed block; under `None`/`Close`, potentially the whole file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never sync; fastest, a crash may lose everything.
    None,
    /// Sync after every flushed block — each block is durable (and its
    /// commit watermark advances) before the next begins. The default
    /// for `spm pack`.
    #[default]
    Block,
    /// Sync once when the container is finished.
    Close,
}

impl SyncPolicy {
    /// The header encoding of this policy.
    pub fn header_byte(self) -> u8 {
        match self {
            SyncPolicy::None => 0,
            SyncPolicy::Block => 1,
            SyncPolicy::Close => 2,
        }
    }

    /// Decodes a header byte; unknown values read as `None` (the
    /// weakest promise — never claim durability a writer didn't give).
    pub fn from_header_byte(byte: u8) -> Self {
        match byte {
            1 => SyncPolicy::Block,
            2 => SyncPolicy::Close,
            _ => SyncPolicy::None,
        }
    }

    /// Parses the CLI spelling (`none` | `block` | `close`).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "none" => Some(SyncPolicy::None),
            "block" => Some(SyncPolicy::Block),
            "close" => Some(SyncPolicy::Close),
            _ => None,
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncPolicy::None => "none",
            SyncPolicy::Block => "block",
            SyncPolicy::Close => "close",
        })
    }
}

/// The codec applied to every block payload, recorded in the header
/// (one byte at [`COMPRESSION_OFFSET`]).
///
/// Unlike [`SyncPolicy`], an *unknown* byte here is rejected rather
/// than defaulted: the value changes how payload bytes are interpreted,
/// and decoding under the wrong codec would feed garbage downstream.
/// Because blocks are compressed independently and the frame checksum
/// covers the stored (compressed) bytes, compression composes with
/// skip-bad-block replay and torn-tail recovery unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Payloads are stored as encoded (the historical format).
    #[default]
    None,
    /// Payloads are stored under the crate's zero-dependency LZ codec
    /// (`compress.rs`).
    Lz,
}

impl Compression {
    /// The header encoding of this codec.
    pub fn header_byte(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Lz => 1,
        }
    }

    /// Decodes a header byte; unknown values are `None` (reject —
    /// never guess a codec).
    pub fn from_header_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Compression::None),
            1 => Some(Compression::Lz),
            _ => None,
        }
    }

    /// Parses the CLI spelling (`none` | `lz`).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "none" => Some(Compression::None),
            "lz" => Some(Compression::Lz),
            _ => None,
        }
    }
}

impl std::fmt::Display for Compression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Compression::None => "none",
            Compression::Lz => "lz",
        })
    }
}

/// The FNV-1a-64 offset basis: the state of a hash that has read no
/// bytes, where a lane of [`fnv1a64_lanes`] starts to hash its bytes
/// on their own.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Continues an FNV-1a-64 hash `h` over `bytes`.
#[inline(always)]
fn fnv1a64_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash: the checksum of block payloads and of the index
/// (and of `spm-serve` wire frames and `spm-corpus` content keys).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// `N` FNV-1a-64 hashes at once: lane `i` continues the hash state
/// `start` over its `bytes`, so a lane that starts at [`FNV_OFFSET`]
/// yields [`fnv1a64`]`(bytes)` and one that starts at `fnv1a64(head)`
/// yields `fnv1a64(head ++ bytes)`, bit for bit.
///
/// FNV-1a is one serial multiply chain per input, so a single hash
/// runs at the multiplier's latency. The chains here are independent
/// and interleaved byte by byte over the length the lanes share, which
/// keeps `N` multiplies in flight; each lane's remaining bytes then
/// finish alone. Store replay verifies four block payloads per pass;
/// `spm-serve` checks a BLOCK frame's message and block checksums in
/// one pass over its payload.
pub fn fnv1a64_lanes<const N: usize>(lanes: [(u64, &[u8]); N]) -> [u64; N] {
    let shared = lanes
        .iter()
        .map(|(_, bytes)| bytes.len())
        .min()
        .unwrap_or(0);
    let mut h = lanes.map(|(start, _)| start);
    let heads = lanes.map(|(_, bytes)| &bytes[..shared]);
    for at in 0..shared {
        for (h, head) in h.iter_mut().zip(heads) {
            *h = (*h ^ u64::from(head[at])).wrapping_mul(FNV_PRIME);
        }
    }
    std::array::from_fn(|i| fnv1a64_from(h[i], &lanes[i].1[shared..]))
}

/// Reads a little-endian `u64` at `at`, or a typed truncation error if
/// the slice ends first (fixed-width fields never panic on short input).
pub(crate) fn read_u64_le(bytes: &[u8], at: usize) -> Result<u64, DecodeError> {
    let slice = bytes
        .get(at..at.saturating_add(8))
        .ok_or(DecodeError::Truncated { offset: at })?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(slice);
    Ok(u64::from_le_bytes(raw))
}

/// Reads a little-endian `u32` at `at`; see [`read_u64_le`].
pub(crate) fn read_u32_le(bytes: &[u8], at: usize) -> Result<u32, DecodeError> {
    let slice = bytes
        .get(at..at.saturating_add(4))
        .ok_or(DecodeError::Truncated { offset: at })?;
    let mut raw = [0u8; 4];
    raw.copy_from_slice(slice);
    Ok(u32::from_le_bytes(raw))
}

/// Per-block metadata: one index entry (equivalently, one block frame
/// header minus the checksum plus the file offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// File offset of the block's frame header.
    pub offset: u64,
    /// Sequence number (0-based) of the block's first event.
    pub first_seq: u64,
    /// Instruction count before the block's first event.
    pub start_icount: u64,
    /// Instruction count after the block's last event.
    pub end_icount: u64,
    /// Events in the block.
    pub events: u32,
    /// Encoded payload bytes.
    pub payload_len: u32,
}

impl BlockMeta {
    /// Sequence number one past the block's last event (saturating, so
    /// a hostile frame header cannot overflow it).
    pub fn end_seq(self) -> u64 {
        self.first_seq.saturating_add(u64::from(self.events))
    }

    /// Serializes the index-entry form.
    pub fn encode_index_entry(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.first_seq.to_le_bytes());
        out.extend_from_slice(&self.start_icount.to_le_bytes());
        out.extend_from_slice(&self.end_icount.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
    }

    /// Parses one index entry at `at`, or a typed truncation error if
    /// `bytes` ends before the entry does.
    pub fn decode_index_entry(bytes: &[u8], at: usize) -> Result<Self, DecodeError> {
        Ok(Self {
            offset: read_u64_le(bytes, at)?,
            first_seq: read_u64_le(bytes, at + 8)?,
            start_icount: read_u64_le(bytes, at + 16)?,
            end_icount: read_u64_le(bytes, at + 24)?,
            events: read_u32_le(bytes, at + 32)?,
            payload_len: read_u32_le(bytes, at + 36)?,
        })
    }

    /// Serializes the block frame-header form (which carries the
    /// payload checksum instead of the file offset).
    pub fn encode_frame(self, checksum: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.first_seq.to_le_bytes());
        out.extend_from_slice(&self.start_icount.to_le_bytes());
        out.extend_from_slice(&self.end_icount.to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Parses a block frame header (which becomes the meta's offset),
    /// returning the meta and the declared payload checksum. Accepts
    /// any slice holding at least [`FRAME_LEN`] bytes; shorter input is
    /// a typed truncation error, never a panic.
    pub fn decode_frame(bytes: &[u8], offset: u64) -> Result<(Self, u64), DecodeError> {
        let meta = Self {
            offset,
            payload_len: read_u32_le(bytes, 0)?,
            events: read_u32_le(bytes, 4)?,
            first_seq: read_u64_le(bytes, 8)?,
            start_icount: read_u64_le(bytes, 16)?,
            end_icount: read_u64_le(bytes, 24)?,
        };
        Ok((meta, read_u64_le(bytes, 32)?))
    }
}

/// The parsed footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// File offset of the index.
    pub index_offset: u64,
    /// Number of blocks.
    pub block_count: u64,
    /// Total events across all blocks.
    pub total_events: u64,
    /// Instruction count after the last event.
    pub total_icount: u64,
    /// FNV-1a-64 checksum of the index bytes.
    pub index_checksum: u64,
    /// Static block-id space of the traced program (0 = unknown).
    pub block_dims: u32,
}

impl Footer {
    /// Serializes the footer (including the tail magic).
    pub fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.index_offset.to_le_bytes());
        out.extend_from_slice(&self.block_count.to_le_bytes());
        out.extend_from_slice(&self.total_events.to_le_bytes());
        out.extend_from_slice(&self.total_icount.to_le_bytes());
        out.extend_from_slice(&self.index_checksum.to_le_bytes());
        out.extend_from_slice(&self.block_dims.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(MAGIC);
    }

    /// Parses a footer, verifying the tail magic. Accepts any slice
    /// holding at least [`FOOTER_LEN`] bytes; shorter input is a typed
    /// truncation error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.get(48..56) != Some(MAGIC.as_slice()) {
            return Err(DecodeError::Truncated { offset: 48 });
        }
        Ok(Self {
            index_offset: read_u64_le(bytes, 0)?,
            block_count: read_u64_le(bytes, 8)?,
            total_events: read_u64_le(bytes, 16)?,
            total_icount: read_u64_le(bytes, 24)?,
            index_checksum: read_u64_le(bytes, 32)?,
            block_dims: read_u32_le(bytes, 40)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_meta_round_trips_through_both_framings() {
        let meta = BlockMeta {
            offset: 16,
            first_seq: 1_000_000,
            start_icount: 42_424_242,
            end_icount: 43_000_001,
            events: 65_535,
            payload_len: 262_144,
        };
        let mut entry = Vec::new();
        meta.encode_index_entry(&mut entry);
        assert_eq!(entry.len(), INDEX_ENTRY_LEN);
        assert_eq!(BlockMeta::decode_index_entry(&entry, 0), Ok(meta));

        let mut frame = Vec::new();
        meta.encode_frame(0xdead_beef, &mut frame);
        assert_eq!(frame.len(), FRAME_LEN);
        assert_eq!(BlockMeta::decode_frame(&frame, 16), Ok((meta, 0xdead_beef)));
    }

    #[test]
    fn short_fixed_width_input_is_a_typed_error_not_a_panic() {
        for len in 0..INDEX_ENTRY_LEN {
            let short = vec![0u8; len];
            assert!(
                matches!(
                    BlockMeta::decode_index_entry(&short, 0),
                    Err(DecodeError::Truncated { .. })
                ),
                "index entry at {len} bytes"
            );
            assert!(
                matches!(
                    BlockMeta::decode_frame(&short, 0),
                    Err(DecodeError::Truncated { .. })
                ),
                "frame at {len} bytes"
            );
        }
        for len in 0..FOOTER_LEN {
            assert!(
                Footer::decode(&vec![0u8; len]).is_err(),
                "footer at {len} bytes"
            );
        }
        // An `at` near usize::MAX must not overflow the range arithmetic.
        assert!(read_u64_le(&[0u8; 8], usize::MAX - 2).is_err());
        assert!(read_u32_le(&[0u8; 4], usize::MAX).is_err());
    }

    #[test]
    fn footer_round_trips_and_rejects_bad_tail_magic() {
        let footer = Footer {
            index_offset: 123,
            block_count: 4,
            total_events: 99,
            total_icount: 1 << 40,
            index_checksum: 7,
            block_dims: 31,
        };
        let mut bytes = Vec::new();
        footer.encode(&mut bytes);
        assert_eq!(bytes.len(), FOOTER_LEN);
        let mut raw = [0u8; FOOTER_LEN];
        raw.copy_from_slice(&bytes);
        assert_eq!(Footer::decode(&raw), Ok(footer));

        raw[55] ^= 0xff;
        assert!(Footer::decode(&raw).is_err());
    }

    #[test]
    fn compression_round_trips_and_unknown_is_rejected() {
        for codec in [Compression::None, Compression::Lz] {
            assert_eq!(
                Compression::from_header_byte(codec.header_byte()),
                Some(codec)
            );
            assert_eq!(Compression::parse(&codec.to_string()), Some(codec));
        }
        assert_eq!(Compression::from_header_byte(0xff), None);
        assert_eq!(Compression::parse("gzip"), None);
    }

    #[test]
    fn sync_policy_round_trips_and_unknown_reads_as_none() {
        for policy in [SyncPolicy::None, SyncPolicy::Block, SyncPolicy::Close] {
            assert_eq!(SyncPolicy::from_header_byte(policy.header_byte()), policy);
            assert_eq!(SyncPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(SyncPolicy::from_header_byte(0xff), SyncPolicy::None);
        assert_eq!(SyncPolicy::parse("fsync"), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a64_lanes([
                (FNV_OFFSET, b"a"),
                (FNV_OFFSET, b""),
                (FNV_OFFSET, b"a"),
                (FNV_OFFSET, b"")
            ]),
            [
                0xaf63_dc4c_8601_ec8c,
                0xcbf2_9ce4_8422_2325,
                0xaf63_dc4c_8601_ec8c,
                0xcbf2_9ce4_8422_2325
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn each_fnv_lane_equals_the_single_hash(
            lanes in (
                proptest::collection::vec(any::<u8>(), 0..96),
                proptest::collection::vec(any::<u8>(), 0..96),
                proptest::collection::vec(any::<u8>(), 0..96),
                proptest::collection::vec(any::<u8>(), 0..96),
            ),
            empty in 0usize..5,
        ) {
            // Unequal lengths, with one lane (or none, at 4) emptied.
            let mut lanes = [lanes.0, lanes.1, lanes.2, lanes.3];
            if let Some(lane) = lanes.get_mut(empty) {
                lane.clear();
            }
            let hashed = fnv1a64_lanes([
                (FNV_OFFSET, &lanes[0][..]),
                (FNV_OFFSET, &lanes[1][..]),
                (FNV_OFFSET, &lanes[2][..]),
                (FNV_OFFSET, &lanes[3][..]),
            ]);
            for (lane, hash) in lanes.iter().zip(hashed) {
                prop_assert_eq!(hash, fnv1a64(lane));
            }
        }

        /// A lane that starts from the hash of a head continues it: the
        /// result is the hash of head and lane bytes together, whatever
        /// the other lane holds.
        #[test]
        fn a_started_lane_continues_its_head(
            head in proptest::collection::vec(any::<u8>(), 0..48),
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            other in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let whole: Vec<u8> = head.iter().chain(&bytes).copied().collect();
            let [continued, alone] =
                fnv1a64_lanes([(fnv1a64(&head), &bytes[..]), (FNV_OFFSET, &other[..])]);
            prop_assert_eq!(continued, fnv1a64(&whole));
            prop_assert_eq!(alone, fnv1a64(&other));
        }
    }
}
