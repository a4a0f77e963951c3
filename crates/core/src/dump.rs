//! The **per-node binary dump format** written by `BGP_Finalize`.
//!
//! The paper's library "dumps the difference in counter data between the
//! corresponding pairs of BGP_Start() and the BGP_Stop() functions of all
//! the sets into a binary file at each node" (§IV). This module defines
//! that record format and its hand-rolled little-endian codec, including
//! the integrity fields the post-processing tools check ("the data is
//! checked based on the number of records and the length of each record").
//!
//! ## Layout (little-endian, version 2)
//!
//! ```text
//! magic   : b"BGPC"
//! version : u32 (= 2)
//! node_id : u32
//! mode    : u8   (counter mode 0-3)
//! n_sets  : u32
//! sets    : n_sets × { set_id: u32, records: u32, counts: 256 × u64,
//!                      set_checksum: u64 }
//! checksum: u64  (position-weighted sum of everything before it)
//! ```
//!
//! Version 2 adds the **per-set checksum** (computed over the set's own
//! bytes) so a corrupted file can be salvaged set by set: the strict
//! [`decode`] still rejects the whole file on any damage, while
//! [`decode_lenient`] recovers every set whose own checksum verifies and
//! quarantines the rest — the raw material for degraded-mode
//! aggregation when nodes die or dumps arrive mangled.

use bgp_arch::events::{CounterMode, NUM_COUNTERS};
use bgp_arch::wire::checksum;
use bgp_arch::{error::Context, error::Result, BgpError};
use std::collections::BTreeSet;

/// File magic.
pub const MAGIC: &[u8; 4] = b"BGPC";
/// Format version.
pub const VERSION: u32 = 2;
/// Fixed header length: magic + version + node + mode + n_sets.
pub const HEADER_BYTES: usize = 17;
/// One set record: id + records + 256 counters + per-set checksum.
pub const SET_RECORD_BYTES: usize = 8 + NUM_COUNTERS * 8 + 8;

/// High bit marking a **synthetic multiplexing set**. Under
/// [`bgp_mpi::CounterPolicy::Multiplexed`] the node rotates through all
/// four counter modes, so one user set yields raw counts in every mode.
/// `BGP_Finalize` emits the primary [`SetDump`] (base-mode counts, id
/// unchanged) plus four synthetic sets carrying the per-mode blocks:
/// `id = MUX_SET_BASE | (user_set << 2) | mode`, with `records` holding
/// the mode's **occupancy** (phases the window spent counting in that
/// mode) — the weight reconstruction scales by. User set ids stay
/// below [`SET_ID_LIMIT`], so the encoding is collision-free.
pub(crate) const MUX_SET_BASE: u32 = 0x8000_0000;

/// Exclusive upper bound on user set ids (`2^29`). Below it,
/// `user_set << 2` fits under bit 31 and `user_set` under bit 29, so
/// [`mux_set_id`] and [`mux_sched_id`] never alias another set's ids.
/// `BGP_Start` refuses larger ids, and a snapshot that names one is
/// corrupt.
pub(crate) const SET_ID_LIMIT: u32 = 1 << 29;

/// Synthetic-set id of `user_set`'s mode-`mode` block (see
/// `MUX_SET_BASE`).
pub fn mux_set_id(user_set: u32, mode: usize) -> u32 {
    MUX_SET_BASE | (user_set << 2) | mode as u32
}

/// Whether `id` names a synthetic multiplexing set.
pub(crate) fn is_mux_set(id: u32) -> bool {
    id & MUX_SET_BASE != 0
}

/// Split a synthetic multiplexing set id into `(user_set, mode index)`;
/// `None` for ordinary set ids.
pub fn mux_set_parts(id: u32) -> Option<(u32, usize)> {
    is_mux_set(id).then_some(((id & !MUX_SET_BASE) >> 2, (id & 3) as usize))
}

/// Bit marking a **multiplexing schedule set**: one synthetic set per
/// multiplexed user set, `id = MUX_SCHED_BASE | user_set`, whose counts
/// carry the rotation schedule's weights instead of event counts —
/// `counts[0..4]` are the window's enabled *cycles* per mode,
/// `counts[4..8]` the enabled *phases* per mode, the rest zero. Cycle
/// weights are what reconstruction scales by; phase counts are the
/// fallback for windows shorter than a phase. Distinct from
/// `MUX_SET_BASE` ids because user set ids stay below
/// `SET_ID_LIMIT`, so an ordinary set never has bit 30 set and a mode
/// set always has bit 31.
pub const MUX_SCHED_BASE: u32 = 0x4000_0000;

/// Schedule-set id of a multiplexed `user_set` (see [`MUX_SCHED_BASE`]).
pub fn mux_sched_id(user_set: u32) -> u32 {
    MUX_SCHED_BASE | user_set
}

/// Whether `id` names a multiplexing schedule set.
pub fn is_mux_sched(id: u32) -> bool {
    id & (MUX_SET_BASE | MUX_SCHED_BASE) == MUX_SCHED_BASE
}

/// Accumulated counter deltas of one instrumentation set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetDump {
    /// Set number (the argument of `BGP_Start`/`BGP_Stop`).
    pub id: u32,
    /// How many start/stop pairs were accumulated.
    pub records: u32,
    /// Summed counter deltas, one per physical counter slot.
    pub counts: Vec<u64>,
}

/// Everything one node dumps at `BGP_Finalize`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeDump {
    /// Node id within the partition.
    pub node: u32,
    /// Counter mode the node's UPC unit was programmed into.
    pub mode: CounterMode,
    /// Per-set accumulated deltas: the user sets in id order, then,
    /// under multiplexing, each user set's four per-mode sets and its
    /// schedule set. No id appears twice.
    pub sets: Vec<SetDump>,
}

impl NodeDump {
    /// Counter deltas of one set, if present.
    pub fn set(&self, id: u32) -> Option<&SetDump> {
        self.sets.iter().find(|s| s.id == id)
    }
}

/// A set that [`decode_lenient`] could not salvage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedSet {
    /// Position of the set record within the file (0-based).
    pub index: usize,
    /// The set id as read from the file, when the id field itself was
    /// readable (it may of course be corrupt).
    pub id: Option<u32>,
    /// Byte offset of the set record within the file.
    pub offset: u64,
    /// Why the set was rejected.
    pub reason: String,
}

/// The best-effort result of [`decode_lenient`]: everything that could
/// be salvaged from a damaged dump, plus an account of what could not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredDump {
    /// Node id from the header (header integrity is vouched for by the
    /// file checksum — check [`RecoveredDump::checksum_ok`]).
    pub node: u32,
    /// Counter mode from the header.
    pub mode: CounterMode,
    /// Sets whose own checksums verified.
    pub sets: Vec<SetDump>,
    /// Sets that failed their checksum or were cut off.
    pub quarantined: Vec<QuarantinedSet>,
    /// The file ended before all declared data (and the trailer) fit.
    pub truncated: bool,
    /// The whole-file checksum verified (the header is trustworthy;
    /// only a repeated set id can still be quarantined).
    pub checksum_ok: bool,
}

impl RecoveredDump {
    /// A fully intact file: everything recovered, nothing suspicious.
    pub fn is_intact(&self) -> bool {
        self.checksum_ok && !self.truncated && self.quarantined.is_empty()
    }

    /// Convert to a [`NodeDump`] carrying only the surviving sets.
    pub fn into_dump(self) -> NodeDump {
        NodeDump {
            node: self.node,
            mode: self.mode,
            sets: self.sets,
        }
    }
}

/// Length of an encoded dump of `n_sets` sets: header, set records and
/// file checksum.
pub fn encoded_len(n_sets: usize) -> usize {
    HEADER_BYTES + n_sets * SET_RECORD_BYTES + 8
}

/// Encode a dump (always writes the current [`VERSION`]).
///
/// # Panics
/// Panics if a set does not carry exactly [`NUM_COUNTERS`] counts.
pub fn encode(dump: &NodeDump) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(dump.sets.len()));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&dump.node.to_le_bytes());
    out.push(dump.mode.index() as u8);
    out.extend_from_slice(&(dump.sets.len() as u32).to_le_bytes());
    for s in &dump.sets {
        assert_eq!(
            s.counts.len(),
            NUM_COUNTERS,
            "a set always carries 256 counters"
        );
        let start = out.len();
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&s.records.to_le_bytes());
        for c in &s.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        // Per-set checksum over the set's own bytes, so each record is
        // independently verifiable.
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode and integrity-check a dump, strictly.
///
/// Any damage — a flipped bit anywhere, a truncated tail, trailing
/// garbage, a set id that appears twice — yields [`BgpError::Corrupt`]
/// with the byte offset of the first problem found. Use
/// [`decode_lenient`] to salvage what survives.
pub fn decode(bytes: &[u8]) -> Result<NodeDump> {
    let header = decode_header(bytes)?;
    let body_len = encoded_len(header.n_sets) - 8;
    if bytes.len() != body_len + 8 {
        return Err(BgpError::Corrupt(
            Context::new(format!(
                "length mismatch: {} bytes for {} sets (want {})",
                bytes.len(),
                header.n_sets,
                body_len + 8
            ))
            .at_node(header.node)
            .at_offset(bytes.len().min(body_len + 8) as u64),
        ));
    }
    let mut sets = Vec::with_capacity(header.n_sets);
    let mut seen = BTreeSet::new();
    for i in 0..header.n_sets {
        let start = HEADER_BYTES + i * SET_RECORD_BYTES;
        let rec = &bytes[start..start + SET_RECORD_BYTES];
        let set = decode_set(rec, &mut seen).map_err(|reason| {
            BgpError::Corrupt(
                Context::new(reason)
                    .at_node(header.node)
                    .at_set(read_u32(&rec[0..4]))
                    .at_offset(start as u64),
            )
        })?;
        sets.push(set);
    }
    let declared = read_u64(&bytes[body_len..body_len + 8]);
    let actual = checksum(&bytes[..body_len]);
    if declared != actual {
        return Err(BgpError::Corrupt(
            Context::new(format!(
                "file checksum mismatch: stored {declared:#x}, computed {actual:#x}"
            ))
            .at_node(header.node)
            .at_offset(body_len as u64),
        ));
    }
    Ok(NodeDump {
        node: header.node,
        mode: header.mode,
        sets,
    })
}

/// Decode as much of a damaged dump as possible.
///
/// Returns `Err` only when the 17-byte header itself is unusable (bad
/// magic, unknown version or mode, or the file is shorter than the
/// header) — without a trustworthy header there is no node to attribute
/// data to. Otherwise every set whose own checksum verifies is
/// recovered, unless an earlier recovered set has its id; the rest are
/// quarantined with the reason and offset.
pub fn decode_lenient(bytes: &[u8]) -> Result<RecoveredDump> {
    let header = decode_header(bytes)?;
    let mut sets = Vec::new();
    let mut seen = BTreeSet::new();
    let mut quarantined = Vec::new();
    let mut truncated = false;
    for i in 0..header.n_sets {
        let start = HEADER_BYTES + i * SET_RECORD_BYTES;
        if start + SET_RECORD_BYTES > bytes.len() {
            truncated = true;
            quarantined.push(QuarantinedSet {
                index: i,
                id: (start + 4 <= bytes.len()).then(|| read_u32(&bytes[start..start + 4])),
                offset: start.min(bytes.len()) as u64,
                reason: "file ends mid-record".into(),
            });
            // Later records cannot start at their proper offsets either.
            // One summary entry covers them all: the declared count is
            // attacker-controlled (a flipped header byte can claim 2^32
            // sets), so the quarantine list must stay bounded by the
            // bytes actually present, never by the claim.
            if i + 1 < header.n_sets {
                quarantined.push(QuarantinedSet {
                    index: i + 1,
                    id: None,
                    offset: bytes.len() as u64,
                    reason: format!(
                        "{} more record(s) declared beyond end of file",
                        header.n_sets - i - 1
                    ),
                });
            }
            break;
        }
        let rec = &bytes[start..start + SET_RECORD_BYTES];
        match decode_set(rec, &mut seen) {
            Ok(set) => sets.push(set),
            Err(reason) => quarantined.push(QuarantinedSet {
                index: i,
                id: Some(read_u32(&rec[0..4])),
                offset: start as u64,
                reason,
            }),
        }
    }
    let body_len = HEADER_BYTES + header.n_sets * SET_RECORD_BYTES;
    let checksum_ok = bytes.len() == body_len + 8
        && read_u64(&bytes[body_len..body_len + 8]) == checksum(&bytes[..body_len]);
    if bytes.len() < body_len + 8 {
        truncated = true;
    }
    Ok(RecoveredDump {
        node: header.node,
        mode: header.mode,
        sets,
        quarantined,
        truncated,
        checksum_ok,
    })
}

struct Header {
    node: u32,
    mode: CounterMode,
    n_sets: usize,
}

fn decode_header(bytes: &[u8]) -> Result<Header> {
    if bytes.len() < HEADER_BYTES {
        return Err(BgpError::Corrupt(
            Context::new(format!(
                "file shorter than the {HEADER_BYTES}-byte header ({} bytes)",
                bytes.len()
            ))
            .at_offset(bytes.len() as u64),
        ));
    }
    if &bytes[0..4] != MAGIC {
        return Err(BgpError::Corrupt(Context::new("bad magic").at_offset(0)));
    }
    let version = read_u32(&bytes[4..8]);
    if version != VERSION {
        return Err(BgpError::Corrupt(
            Context::new(format!("unsupported version {version}")).at_offset(4),
        ));
    }
    let node = read_u32(&bytes[8..12]);
    let mode_byte = bytes[12];
    let mode = CounterMode::from_index(mode_byte as usize).ok_or_else(|| {
        BgpError::Corrupt(
            Context::new(format!("invalid counter mode {mode_byte}"))
                .at_node(node)
                .at_offset(12),
        )
    })?;
    let n_sets = read_u32(&bytes[13..17]) as usize;
    Ok(Header { node, mode, n_sets })
}

/// Decode one full-length set record, verifying its own checksum and
/// that no set in `seen` (the file's earlier sets) carries its id —
/// otherwise [`NodeDump::set`] would silently pick one of the copies.
fn decode_set(rec: &[u8], seen: &mut BTreeSet<u32>) -> std::result::Result<SetDump, String> {
    debug_assert_eq!(rec.len(), SET_RECORD_BYTES);
    let payload = SET_RECORD_BYTES - 8;
    let declared = read_u64(&rec[payload..]);
    let actual = checksum(&rec[..payload]);
    if declared != actual {
        return Err(format!(
            "set checksum mismatch: stored {declared:#x}, computed {actual:#x}"
        ));
    }
    let id = read_u32(&rec[0..4]);
    if !seen.insert(id) {
        return Err("repeated set id".into());
    }
    let records = read_u32(&rec[4..8]);
    let counts = (0..NUM_COUNTERS)
        .map(|i| read_u64(&rec[8 + i * 8..16 + i * 8]))
        .collect();
    Ok(SetDump {
        id,
        records,
        counts,
    })
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeDump {
        NodeDump {
            node: 7,
            mode: CounterMode::Mode2,
            sets: vec![
                SetDump {
                    id: 0,
                    records: 1,
                    counts: (0..256).map(|i| i as u64 * 3).collect(),
                },
                SetDump {
                    id: 5,
                    records: 2,
                    counts: vec![u64::MAX; 256],
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let d = sample();
        assert_eq!(decode(&encode(&d)).unwrap(), d);
    }

    #[test]
    fn empty_dump_round_trips() {
        let d = NodeDump {
            node: 0,
            mode: CounterMode::Mode0,
            sets: vec![],
        };
        assert_eq!(decode(&encode(&d)).unwrap(), d);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = encode(&sample());
        b[0] = b'X';
        assert!(matches!(decode(&b), Err(BgpError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let b = encode(&sample());
        for cut in [0, 3, 16, b.len() - 1] {
            assert!(
                matches!(decode(&b[..cut]), Err(BgpError::Corrupt(_))),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bitflip_in_counts_caught_by_checksum() {
        let mut b = encode(&sample());
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
        assert!(matches!(decode(&b), Err(BgpError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut b = encode(&sample());
        b.push(0);
        assert!(matches!(decode(&b), Err(BgpError::Corrupt(_))));
    }

    #[test]
    fn invalid_mode_rejected() {
        let mut b = encode(&sample());
        b[12] = 9; // mode byte
        assert!(matches!(decode(&b), Err(BgpError::Corrupt(_))));
    }

    #[test]
    fn corrupt_error_carries_node_and_offset() {
        let mut b = encode(&sample());
        let mid = HEADER_BYTES + 100; // inside set 0's counts
        b[mid] ^= 0x01;
        match decode(&b) {
            Err(BgpError::Corrupt(c)) => {
                assert_eq!(c.node, Some(7));
                assert_eq!(c.set, Some(0));
                assert_eq!(c.offset, Some(HEADER_BYTES as u64));
            }
            other => panic!("expected Corrupt with context, got {other:?}"),
        }
    }

    #[test]
    fn lenient_recovers_good_sets_around_a_bad_one() {
        let d = NodeDump {
            node: 3,
            mode: CounterMode::Mode1,
            sets: (0..4)
                .map(|i| SetDump {
                    id: i,
                    records: 1,
                    counts: vec![i as u64; 256],
                })
                .collect(),
        };
        let mut b = encode(&d);
        // Corrupt a byte in set 2's counts.
        let bad = HEADER_BYTES + 2 * SET_RECORD_BYTES + 50;
        b[bad] ^= 0xFF;
        let r = decode_lenient(&b).unwrap();
        assert_eq!(r.node, 3);
        assert_eq!(
            r.sets.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].index, 2);
        assert_eq!(r.quarantined[0].id, Some(2));
        assert!(!r.checksum_ok);
        assert!(!r.truncated);
        assert!(!r.is_intact());
    }

    /// A set id that appears twice would let [`NodeDump::set`] pick
    /// either copy: strict decoding refuses the file, naming the node
    /// and the id; lenient decoding keeps the first copy and quarantines
    /// the repeat.
    #[test]
    fn repeated_set_id_is_refused_or_quarantined() {
        let mut d = sample();
        d.sets.push(SetDump {
            id: 0,
            records: 9,
            counts: vec![1; 256],
        });
        let b = encode(&d);
        let repeat_at = (HEADER_BYTES + 2 * SET_RECORD_BYTES) as u64;
        match decode(&b) {
            Err(BgpError::Corrupt(c)) => {
                assert_eq!(
                    (c.node, c.set, c.offset),
                    (Some(7), Some(0), Some(repeat_at))
                );
                assert_eq!(c.reason, "repeated set id");
            }
            other => panic!("expected Corrupt for a repeated id, got {other:?}"),
        }
        let r = decode_lenient(&b).unwrap();
        assert!(r.checksum_ok && !r.truncated && !r.is_intact());
        assert_eq!(r.sets, sample().sets);
        assert_eq!(r.quarantined.len(), 1);
        let q = &r.quarantined[0];
        assert_eq!((q.index, q.id, q.offset), (2, Some(0), repeat_at));
        assert_eq!(q.reason, "repeated set id");
    }

    #[test]
    fn lenient_recovers_prefix_of_truncated_file() {
        let d = sample();
        let b = encode(&d);
        // Keep the header, all of set 0, and half of set 1.
        let cut = HEADER_BYTES + SET_RECORD_BYTES + SET_RECORD_BYTES / 2;
        let r = decode_lenient(&b[..cut]).unwrap();
        assert_eq!(r.sets.len(), 1);
        assert_eq!(r.sets[0].id, 0);
        assert!(r.truncated);
        assert!(!r.checksum_ok);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].reason, "file ends mid-record");
    }

    #[test]
    fn lenient_on_intact_file_recovers_everything() {
        let d = sample();
        let r = decode_lenient(&encode(&d)).unwrap();
        assert!(r.is_intact());
        assert_eq!(r.into_dump(), d);
    }

    #[test]
    fn lenient_rejects_unusable_header() {
        assert!(decode_lenient(b"BGP").is_err());
        let mut b = encode(&sample());
        b[0] = b'X';
        assert!(decode_lenient(&b).is_err());
    }
}
