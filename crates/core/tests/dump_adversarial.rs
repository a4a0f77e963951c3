//! Adversarial tests of the dump codec: truncation at every byte
//! boundary and a flipped byte at every position. The codec must never
//! panic, the strict decoder must reject every damaged file with a
//! well-located [`BgpError::Corrupt`], and the lenient decoder must
//! either salvage exactly the undamaged sets or report an unusable
//! header — it must never hand back silently corrupted counter data.

use bgp_arch::events::{CounterMode, NUM_COUNTERS};
use bgp_arch::BgpError;
use bgp_core::dump::{
    decode, decode_lenient, encode, NodeDump, SetDump, HEADER_BYTES, SET_RECORD_BYTES,
};

/// A two-set dump with distinctive per-set data.
fn sample() -> NodeDump {
    NodeDump {
        node: 42,
        mode: CounterMode::Mode1,
        sets: vec![
            SetDump {
                id: 0,
                records: 3,
                counts: (0..NUM_COUNTERS as u64).map(|i| i * 17 + 1).collect(),
            },
            SetDump {
                id: 7,
                records: 1,
                counts: (0..NUM_COUNTERS as u64).map(|i| i * 31 + 5).collect(),
            },
        ],
    }
}

#[test]
fn round_trip_at_every_set_count() {
    for n_sets in 0..4u32 {
        let dump = NodeDump {
            node: n_sets,
            mode: CounterMode::Mode2,
            sets: (0..n_sets)
                .map(|id| SetDump {
                    id,
                    records: id + 1,
                    counts: vec![u64::from(id) * 1000 + 7; NUM_COUNTERS],
                })
                .collect(),
        };
        let bytes = encode(&dump);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + n_sets as usize * SET_RECORD_BYTES + 8
        );
        assert_eq!(
            decode(&bytes).unwrap(),
            dump,
            "strict round trip, {n_sets} sets"
        );
        let rec = decode_lenient(&bytes).unwrap();
        assert!(
            rec.is_intact(),
            "lenient sees an intact file, {n_sets} sets"
        );
        assert_eq!(rec.into_dump(), dump, "lenient round trip, {n_sets} sets");
    }
}

#[test]
fn truncation_at_every_byte_boundary_never_panics() {
    let dump = sample();
    let bytes = encode(&dump);
    for len in 0..bytes.len() {
        let cut = &bytes[..len];
        // Strict: every truncation is an error, never a panic.
        let err = decode(cut).expect_err("truncated file must not decode strictly");
        assert!(
            matches!(err, BgpError::Corrupt(_)),
            "truncation at {len} gave {err:?}, want Corrupt"
        );
        if let Some(off) = err.context().and_then(|c| c.offset) {
            assert!(
                off <= bytes.len() as u64,
                "offset {off} out of bounds at len {len}"
            );
        }
        // Lenient: an unusable header is an error; anything longer
        // salvages exactly the complete, verifying set records.
        match decode_lenient(cut) {
            Err(e) => {
                assert!(len < HEADER_BYTES, "lenient failed on a usable header: {e}");
            }
            Ok(rec) => {
                assert!(len >= HEADER_BYTES);
                assert!(rec.truncated, "cut at {len} must set the truncated flag");
                assert!(!rec.is_intact());
                let whole_records = (len - HEADER_BYTES) / SET_RECORD_BYTES;
                let expect = whole_records.min(dump.sets.len());
                assert_eq!(
                    rec.sets.len(),
                    expect,
                    "cut at {len}: want {expect} salvaged set(s)"
                );
                for (i, s) in rec.sets.iter().enumerate() {
                    assert_eq!(s, &dump.sets[i], "salvaged set {i} must be bit-exact");
                }
            }
        }
    }
}

#[test]
fn single_byte_flip_at_every_position_is_caught() {
    let dump = sample();
    let bytes = encode(&dump);
    let set_start = |i: usize| HEADER_BYTES + i * SET_RECORD_BYTES;
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        // Strict: the position-weighted checksums catch every
        // single-byte change; the error names an in-bounds offset.
        let err = decode(&bad).expect_err("flipped file must not decode strictly");
        assert!(
            matches!(err, BgpError::Corrupt(_)),
            "flip at {pos} gave {err:?}, want Corrupt"
        );
        let ctx = err.context().expect("corrupt errors carry context");
        if let Some(off) = ctx.offset {
            assert!(
                off <= bytes.len() as u64,
                "offset {off} out of bounds, flip {pos}"
            );
        }
        // A flip inside a set record is located to that record's start.
        for i in 0..dump.sets.len() {
            if (set_start(i)..set_start(i) + SET_RECORD_BYTES).contains(&pos) {
                assert_eq!(
                    ctx.offset,
                    Some(set_start(i) as u64),
                    "flip at {pos} should be pinned to set {i}"
                );
                assert_eq!(
                    ctx.node,
                    Some(dump.node),
                    "flip at {pos} should name the node"
                );
            }
        }
        // Lenient: no panic; a salvaged set is always bit-exact — a
        // damaged one is quarantined, never silently returned.
        match decode_lenient(&bad) {
            Err(_) => {
                // Only header damage (magic, version, mode) is fatal.
                assert!(pos < 13, "lenient gave up on non-header damage at {pos}");
            }
            Ok(rec) => {
                assert!(!rec.is_intact(), "flip at {pos} must not look intact");
                for s in &rec.sets {
                    assert!(
                        dump.sets.contains(s),
                        "flip at {pos} leaked a corrupted set {} into recovery",
                        s.id
                    );
                }
                for i in 0..dump.sets.len() {
                    let in_set = (set_start(i)..set_start(i) + SET_RECORD_BYTES).contains(&pos);
                    if in_set {
                        assert!(
                            rec.quarantined.iter().any(|q| q.index == i),
                            "flip at {pos} in set {i} must quarantine it"
                        );
                        assert!(
                            !rec.sets.iter().any(|s| s == &dump.sets[i]),
                            "flip at {pos}: set {i} both quarantined and recovered"
                        );
                    }
                }
                // Trailer damage: all sets survive, file checksum fails.
                if pos >= set_start(dump.sets.len()) {
                    assert_eq!(rec.sets.len(), dump.sets.len());
                    assert!(!rec.checksum_ok);
                }
            }
        }
    }
}
