//! Message and collective plumbing shared by all ranks of a job:
//! mailboxes, payload codecs, reduce operators, and the double-buffered
//! collective rendezvous slots.

/// Raw message payload. The runtime moves bytes; the typed views below
/// convert `f64`/`u64` slices without an external serializer.
pub(crate) type Payload = Vec<u8>;

/// Encode a `f64` slice little-endian.
pub fn f64s_to_bytes(v: &[f64]) -> Payload {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode a little-endian `f64` payload.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of f64s");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

/// Encode a `u64` slice little-endian.
pub fn u64s_to_bytes(v: &[u64]) -> Payload {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode a little-endian `u64` payload.
///
/// # Panics
/// Panics if the length is not a multiple of 8.
pub fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    assert_eq!(b.len() % 8, 0, "payload is not a whole number of u64s");
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

/// One in-flight point-to-point message.
#[derive(Clone, Debug)]
pub(crate) struct Message {
    /// Sending rank.
    pub src: usize,
    /// Application tag.
    pub tag: u32,
    /// Payload bytes.
    pub data: Payload,
    /// Cycle count (sender core clock) at which the message is available
    /// at the receiver.
    pub ready_at: u64,
}

/// Element-wise combine operator for reductions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Sum of `f64` elements.
    SumF64,
    /// Element-wise maximum of `f64` elements.
    MaxF64,
    /// Element-wise minimum of `f64` elements.
    MinF64,
    /// Sum of `u64` elements (wrapping).
    SumU64,
    /// Element-wise maximum of `u64` elements.
    MaxU64,
}

impl ReduceOp {
    /// Combine `b` into `a` element-wise, in place. Both payloads must
    /// have equal length and the right element granularity.
    pub fn combine(self, a: &mut Payload, b: &Payload) {
        assert_eq!(a.len(), b.len(), "reduction contributions differ in size");
        match self {
            ReduceOp::SumF64 => combine_words(a, b, "f64", |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            ReduceOp::MaxF64 => combine_words(a, b, "f64", |x, y| {
                f64::from_bits(x).max(f64::from_bits(y)).to_bits()
            }),
            ReduceOp::MinF64 => combine_words(a, b, "f64", |x, y| {
                f64::from_bits(x).min(f64::from_bits(y)).to_bits()
            }),
            ReduceOp::SumU64 => combine_words(a, b, "u64", u64::wrapping_add),
            ReduceOp::MaxU64 => combine_words(a, b, "u64", u64::max),
        }
    }
}

/// Replace every little-endian 8-byte word `x` of `a` with `f(x, y)`,
/// `y` the word at the same offset of `b`.
///
/// # Panics
/// Panics if the length is not a multiple of 8, naming `elem`.
fn combine_words(a: &mut [u8], b: &[u8], elem: &str, f: impl Fn(u64, u64) -> u64) {
    assert_eq!(a.len() % 8, 0, "payload is not a whole number of {elem}s");
    for (x, y) in a.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
        let z = f(word(x), word(y));
        x.copy_from_slice(&z.to_le_bytes());
    }
}

/// Kind of collective in flight (SPMD programs must agree).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CollKind {
    /// Barrier (no data).
    Barrier,
    /// Broadcast from a root.
    Bcast {
        /// Root rank.
        root: usize,
    },
    /// Reduce to a root.
    Reduce {
        /// Root rank.
        root: usize,
        /// Combine operator.
        op: ReduceOp,
    },
    /// Reduce + broadcast.
    Allreduce {
        /// Combine operator.
        op: ReduceOp,
    },
    /// Personalized all-to-all exchange.
    Alltoall,
}

/// One rendezvous slot. Collectives double-buffer over two slots so a
/// rank entering collective *k+1* never tramples results of *k* that
/// peers have not read yet.
#[derive(Debug, Default)]
pub(crate) struct CollSlot {
    /// Kind of the collective currently using the slot.
    pub kind: Option<CollKind>,
    /// Ranks arrived so far.
    pub arrived: usize,
    /// Latest arrival time (core cycles).
    pub t_max: u64,
    /// Per-rank contribution (reduce/bcast payloads).
    pub contrib: Vec<Option<Payload>>,
    /// Per-source rows for all-to-all: `matrix[src][dst]`.
    pub matrix: Vec<Vec<Payload>>,
    /// Combined result (reduce family) — valid once `complete`.
    pub result: Payload,
    /// Cycle count at which results are available to every rank.
    pub ready_at: u64,
    /// Whether the collective has completed.
    pub complete: bool,
    /// Ranks that have consumed the result (frees the slot at n).
    pub consumed: usize,
}

impl CollSlot {
    /// Reset for a fresh collective over `n` ranks.
    pub(crate) fn begin(&mut self, n: usize, kind: CollKind) {
        assert!(
            self.kind.is_none(),
            "collective slot reuse before all ranks consumed the previous result"
        );
        self.kind = Some(kind);
        self.arrived = 0;
        self.t_max = 0;
        self.contrib = vec![None; n];
        self.matrix = vec![Vec::new(); n];
        self.result = Vec::new();
        self.ready_at = 0;
        self.complete = false;
        self.consumed = 0;
    }

    /// Mark one consumption; frees the slot when everyone has read.
    pub(crate) fn consume(&mut self, n: usize) {
        self.consumed += 1;
        if self.consumed == n {
            self.kind = None;
            self.complete = false;
            self.contrib.clear();
            self.matrix.clear();
            self.result.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_codec_round_trips() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn u64_codec_round_trips() {
        let v = vec![0u64, 1, u64::MAX, 0xdead_beef];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)), v);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_payload_is_rejected() {
        bytes_to_f64s(&[1, 2, 3]);
    }

    #[test]
    fn reduce_ops_combine_elementwise() {
        let mut a = f64s_to_bytes(&[1.0, 5.0]);
        ReduceOp::SumF64.combine(&mut a, &f64s_to_bytes(&[2.0, -1.0]));
        assert_eq!(bytes_to_f64s(&a), vec![3.0, 4.0]);

        let mut a = f64s_to_bytes(&[1.0, 5.0]);
        ReduceOp::MaxF64.combine(&mut a, &f64s_to_bytes(&[2.0, -1.0]));
        assert_eq!(bytes_to_f64s(&a), vec![2.0, 5.0]);

        let mut a = u64s_to_bytes(&[7, 1]);
        ReduceOp::SumU64.combine(&mut a, &u64s_to_bytes(&[3, 2]));
        assert_eq!(bytes_to_u64s(&a), vec![10, 3]);
    }

    /// The reference definition: decode both payloads, combine, and
    /// re-encode.
    fn combine_decoded(op: ReduceOp, a: &[u8], b: &[u8]) -> Payload {
        match op {
            ReduceOp::SumF64 | ReduceOp::MaxF64 | ReduceOp::MinF64 => {
                let f = |(x, y): (&f64, &f64)| match op {
                    ReduceOp::SumF64 => x + y,
                    ReduceOp::MaxF64 => x.max(*y),
                    _ => x.min(*y),
                };
                let (av, bv) = (bytes_to_f64s(a), bytes_to_f64s(b));
                f64s_to_bytes(&av.iter().zip(&bv).map(f).collect::<Vec<_>>())
            }
            ReduceOp::SumU64 | ReduceOp::MaxU64 => {
                let f = |(x, y): (&u64, &u64)| match op {
                    ReduceOp::SumU64 => x.wrapping_add(*y),
                    _ => *x.max(y),
                };
                let (av, bv) = (bytes_to_u64s(a), bytes_to_u64s(b));
                u64s_to_bytes(&av.iter().zip(&bv).map(f).collect::<Vec<_>>())
            }
        }
    }

    #[test]
    fn in_place_combine_matches_the_decoded_definition() {
        use bgp_arch::rng::SimRng;
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.5,
        ];
        let mut rng = SimRng::seed_from_u64(0x5eed);
        for op in [
            ReduceOp::SumF64,
            ReduceOp::MaxF64,
            ReduceOp::MinF64,
            ReduceOp::SumU64,
            ReduceOp::MaxU64,
        ] {
            for round in 0..200 {
                let len = round % 17;
                let word = |rng: &mut SimRng| match rng.next_u64() % 4 {
                    // Special floats, and the top of the u64 range so
                    // sums wrap.
                    0 => specials[(rng.next_u64() % 8) as usize].to_bits(),
                    1 => u64::MAX - rng.next_u64() % 4,
                    2 => (rng.next_f64() * 1e6 - 5e5).to_bits(),
                    _ => rng.next_u64(),
                };
                let a: Vec<u64> = (0..len).map(|_| word(&mut rng)).collect();
                let b: Vec<u64> = (0..len).map(|_| word(&mut rng)).collect();
                let (a, b) = (u64s_to_bytes(&a), u64s_to_bytes(&b));
                let mut got = a.clone();
                op.combine(&mut got, &b);
                assert_eq!(got, combine_decoded(op, &a, &b), "{op:?} round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number of u64s")]
    fn ragged_contributions_are_rejected() {
        ReduceOp::MaxU64.combine(&mut vec![0; 12], &vec![0; 12]);
    }

    #[test]
    fn coll_slot_lifecycle() {
        let mut s = CollSlot::default();
        s.begin(2, CollKind::Barrier);
        assert_eq!(s.kind, Some(CollKind::Barrier));
        s.consume(2);
        s.consume(2);
        assert!(s.kind.is_none(), "slot freed after both ranks consumed");
        // Slot is reusable now.
        s.begin(2, CollKind::Alltoall);
        assert_eq!(s.kind, Some(CollKind::Alltoall));
    }

    #[test]
    #[should_panic(expected = "slot reuse")]
    fn premature_slot_reuse_is_caught() {
        let mut s = CollSlot::default();
        s.begin(2, CollKind::Barrier);
        s.begin(2, CollKind::Barrier);
    }
}
