//! Snapshot integration: the counter library as machine [`AppState`].
//!
//! The library's per-node protocol and accumulation state cannot be
//! rebuilt by resume replay: `BGP_Start`/`BGP_Stop` take schedule marks
//! of the live UPC counters, and during replay the cost model is
//! suppressed, so every replayed mark reads stale values and the
//! accumulated windows would diverge from the uninterrupted run.
//! Instead the whole `Vec<NodeState>` is serialized into the snapshot's
//! `app:counters` section at capture and spliced back wholesale at
//! go-live, discarding whatever the replay built.
//!
//! The section spells out what memory holds more compactly: a start
//! mark without totals is written as its zero totals, and a finalized
//! node, which holds only its windows and home mode, is written with its
//! windows and the dump encoded from them. Restore drops the zero totals
//! again, decodes each dump strictly, refuses a finalized node whose
//! windows disagree with its dump, and keeps the windows, not the bytes.

use crate::{dump, CounterLibrary, NodeState, SetState};
use bgp_arch::error::{BgpError, Result};
use bgp_arch::events::{NUM_COUNTERS, NUM_EVENTS};
use bgp_arch::wire::{put_bool, put_bytes, put_u32, put_u64, put_u64s, put_u8, Reader};
use bgp_mpi::machine::AppState;
use bgp_mpi::MuxMark;

/// The library's app-state name: its snapshot section is `app:counters`.
pub(crate) const NAME: &str = "counters";

/// Write `mark`; a mark without totals as `width` zeros when `width` is
/// given (a start mark), as no totals otherwise (a window none closed).
fn save_mark(out: &mut Vec<u8>, mark: &MuxMark, width: Option<usize>) {
    match width {
        Some(width) if mark.totals.is_empty() => {
            put_u64(out, width as u64);
            out.resize(out.len() + width * 8, 0);
        }
        _ => put_u64s(out, &mark.totals),
    }
    for &v in mark.occupancy.iter().chain(&mark.cycles) {
        put_u64(out, v);
    }
}

/// A mark covers one mode's block, every mode's, or (an accumulator
/// with no closed window yet) nothing.
fn load_mark(r: &mut Reader<'_>) -> Result<MuxMark> {
    let totals = r.u64s("mark totals")?;
    if ![0, NUM_COUNTERS, NUM_EVENTS].contains(&totals.len()) {
        return Err(BgpError::corrupt(format!("mark has {} totals", totals.len())));
    }
    let mut mark = MuxMark { totals, ..MuxMark::default() };
    for v in mark.occupancy.iter_mut().chain(&mut mark.cycles) {
        *v = r.u64("mark occupancy")?;
    }
    Ok(mark)
}

fn save_set(out: &mut Vec<u8>, id: u32, s: &SetState, width: usize) {
    put_u32(out, id);
    put_u32(out, s.records);
    match &s.start {
        Some(mark) => {
            put_u8(out, 1);
            save_mark(out, mark, Some(width));
        }
        None => put_u8(out, 0),
    }
    save_mark(out, &s.window, None);
}

/// A set id at or above [`dump::SET_ID_LIMIT`] cannot have come from
/// `BGP_Start`.
fn load_set_id(r: &mut Reader<'_>, what: &str) -> Result<u32> {
    let id = r.u32(what)?;
    if id >= dump::SET_ID_LIMIT {
        return Err(BgpError::corrupt(format!(
            "{what} {id} is not below the set-id limit {}",
            dump::SET_ID_LIMIT
        )));
    }
    Ok(id)
}

fn load_set(r: &mut Reader<'_>) -> Result<(u32, SetState)> {
    let id = load_set_id(r, "set id")?;
    let records = r.u32("set records")?;
    let start = match r.u8("start-mark tag")? {
        0 => None,
        1 => Some(load_mark(r)?),
        t => return Err(BgpError::corrupt(format!("bad start-mark tag {t}"))),
    };
    Ok((id, SetState { start, window: load_mark(r)?, records }))
}

/// Write `st`, the state of node `node` of a job whose schedules rotate
/// (see [`CounterLibrary::rotates`]) or not.
fn save_node(out: &mut Vec<u8>, node: usize, st: &NodeState, rotates: bool) {
    put_bool(out, st.initialized);
    put_u64(out, st.init_arrivals as u64);
    match st.active_set {
        Some(set) => {
            put_u8(out, 1);
            put_u32(out, set);
        }
        None => put_u8(out, 0),
    }
    put_u64(out, st.start_arrivals as u64);
    put_u64(out, st.stop_arrivals as u64);
    put_u64(out, st.finalize_arrivals as u64);
    put_u64(out, st.sets.len() as u64);
    let width = if rotates { NUM_EVENTS } else { NUM_COUNTERS };
    for (id, s) in &st.sets {
        save_set(out, *id, s, width);
    }
    match st.encoded_dump(node) {
        Some(d) => {
            put_u8(out, 1);
            put_bytes(out, &d);
        }
        None => put_u8(out, 0),
    }
}

/// Read one node's state and the dump bytes its section carries, if it
/// finalized.
fn load_node<'a>(r: &mut Reader<'a>) -> Result<(NodeState, Option<&'a [u8]>)> {
    let initialized = r.bool("initialized")?;
    let init_arrivals = r.u64("init arrivals")? as usize;
    let active_set = match r.u8("active-set tag")? {
        0 => None,
        1 => Some(load_set_id(r, "active set")?),
        t => return Err(BgpError::corrupt(format!("bad active-set tag {t}"))),
    };
    let start_arrivals = r.u64("start arrivals")? as usize;
    let stop_arrivals = r.u64("stop arrivals")? as usize;
    let finalize_arrivals = r.u64("finalize arrivals")? as usize;
    let n_sets = r.u64("set count")?;
    let mut st = NodeState {
        initialized,
        init_arrivals,
        active_set,
        start_arrivals,
        stop_arrivals,
        finalize_arrivals,
        ..NodeState::default()
    };
    for _ in 0..n_sets {
        let (id, s) = load_set(r)?;
        match st.find_set(id) {
            Ok(_) => return Err(BgpError::corrupt(format!("duplicate set {id}"))),
            Err(i) => st.insert_set(i, id, s),
        }
    }
    let dump = match r.u8("dump tag")? {
        0 => None,
        1 => Some(r.bytes("dump bytes")?),
        t => return Err(BgpError::corrupt(format!("bad dump tag {t}"))),
    };
    Ok((st, dump))
}

/// Bring loaded node `node` to its in-memory form: drop all-zero
/// start-mark totals and, if it finalized, check its windows against
/// the `dump` its section carries and keep the dump's header mode. The
/// windows must be the ones the capture encoded the dump from: full
/// width, and with the dump's records, so the node encodes the same
/// bytes again.
fn compact(st: &mut NodeState, node: usize, dump: Option<&[u8]>, rotates: bool) -> Result<()> {
    for (_, s) in &mut st.sets {
        if let Some(start) = &mut s.start {
            if start.totals.iter().all(|&v| v == 0) {
                start.totals = Vec::new();
            }
        }
    }
    let Some(bytes) = dump else { return Ok(()) };
    let d = dump::decode(bytes)?;
    let width = if rotates { NUM_EVENTS } else { NUM_COUNTERS };
    if st.sets.iter().any(|(_, s)| s.window.totals.len() != width) || st.dump(node, d.mode) != d {
        return Err(BgpError::corrupt(format!("node {node}'s windows disagree with its dump")));
    }
    st.finalized = Some(d.mode);
    Ok(())
}

impl AppState for CounterLibrary {
    fn name(&self) -> &'static str {
        NAME
    }

    fn save(&self) -> Vec<u8> {
        let nodes = self.nodes.lock();
        let mut out = Vec::new();
        put_u64(&mut out, nodes.len() as u64);
        for (node, st) in nodes.iter().enumerate() {
            save_node(&mut out, node, st, self.rotates());
        }
        out
    }

    fn restore(&self, bytes: &[u8]) -> Result<()> {
        let mut r = Reader::new(bytes);
        let n = r.u64("node count")?;
        let machine = self.ranks_per_node.len(); // one entry per node
        if n != machine as u64 {
            return Err(BgpError::corrupt(format!(
                "snapshot has {n} counter-library nodes, machine has {machine}"
            )));
        }
        let mut fresh = Vec::with_capacity(machine);
        for node in 0..machine {
            let (mut st, dump) = load_node(&mut r)?;
            compact(&mut st, node, dump, self.rotates())?;
            fresh.push(st);
        }
        r.expect_end("counter-library state")?;
        *self.nodes.lock() = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_arch::events::CounterMode;
    use bgp_arch::OpMode;
    use bgp_mpi::{CounterPolicy, JobSpec, Machine};
    use std::sync::Arc;

    /// Save → restore into a fresh library must reproduce the bytes,
    /// including mid-window state (an open set with a start mark).
    #[test]
    fn library_state_round_trips() {
        let mut spec = JobSpec::new(4, OpMode::Dual);
        spec.counter_policy = CounterPolicy::Fixed(CounterMode::Mode1);
        let m = Machine::new(spec.clone());
        let lib = CounterLibrary::for_machine(&m);
        {
            let mut nodes = lib.nodes.lock();
            let st = &mut nodes[1];
            st.initialized = true;
            st.init_arrivals = 2;
            st.active_set = Some(7);
            st.start_arrivals = 1;
            let mut window = MuxMark { totals: vec![9; NUM_COUNTERS], ..MuxMark::default() };
            window.totals[17] = u64::MAX;
            let start = MuxMark {
                totals: vec![2; NUM_EVENTS],
                occupancy: [1, 2, 3, 4],
                cycles: [10, 20, 30, 40],
            };
            let set = SetState { start: Some(start), window, records: 5 };
            st.sets.push((7, set));
            // Node 0 finalized: a closed window and the flag, no bytes.
            let st = &mut nodes[0];
            st.initialized = true;
            st.init_arrivals = 2;
            st.finalize_arrivals = 2;
            let totals = (0..NUM_COUNTERS as u64).collect();
            let window = MuxMark { totals, ..MuxMark::default() };
            st.sets.push((0, SetState { start: None, window, records: 1 }));
            st.finalized = Some(CounterMode::Mode1);
        }
        let bytes = lib.save();
        let m2 = Machine::new(spec);
        let lib2 = CounterLibrary::for_machine(&m2);
        lib2.restore(&bytes).unwrap();
        assert_eq!(lib2.save(), bytes);
    }

    /// Every set window of every node in an `app:counters` section.
    fn windows(bytes: &[u8]) -> Vec<Vec<MuxMark>> {
        let mut r = Reader::new(bytes);
        let n = r.u64("node count").unwrap();
        let nodes = (0..n).map(|_| load_node(&mut r).unwrap().0);
        nodes.map(|st| st.sets.into_iter().map(|(_, s)| s.window).collect()).collect()
    }

    /// The library holds a zero start mark without its totals, yet writes
    /// it in full, under every kind of policy; restore takes it back to
    /// the compact form. A finalized node keeps its windows, written as
    /// they were before finalize, beside the dump encoded from them.
    /// Every form saves the same bytes again after a restore.
    #[test]
    fn compact_marks_and_finalized_windows_round_trip() {
        let policies = [
            CounterPolicy::Fixed(CounterMode::Mode2),
            CounterPolicy::EvenOdd { even: CounterMode::Mode0, odd: CounterMode::Mode3 },
            CounterPolicy::Multiplexed { first: CounterMode::Mode1, base_dwell: 2 },
        ];
        for policy in policies {
            let mut spec = JobSpec::new(2, OpMode::Smp1);
            spec.counter_policy = policy;
            let width = if matches!(policy, CounterPolicy::Multiplexed { .. }) {
                NUM_EVENTS
            } else {
                NUM_COUNTERS
            };
            let m = Machine::new(spec.clone());
            let lib = CounterLibrary::for_machine(&m);
            let held = |lib: &CounterLibrary| -> Vec<(usize, usize)> {
                let nodes = lib.nodes.lock();
                let set = |st: &NodeState| {
                    let s = &st.sets[0].1;
                    (s.start.as_ref().map_or(0, |m| m.totals.len()), s.window.totals.len())
                };
                nodes.iter().map(set).collect()
            };
            let lib2 = Arc::clone(&lib);
            let out = m.run(move |mut ctx| {
                let lib = Arc::clone(&lib2);
                async move {
                    let ctx = &mut ctx;
                    lib.initialize_impl(ctx);
                    lib.start_impl(ctx, 3).unwrap();
                    ctx.allreduce_sum_f64(&[1.0]).await;
                    let open = (ctx.rank() == 0).then(|| (lib.save(), held(&lib)));
                    for _ in 0..8 {
                        ctx.fp1(bgp_mpi::SemOp::MulAdd);
                        ctx.allreduce_sum_f64(&[1.0]).await;
                    }
                    lib.stop_impl(ctx, 3).unwrap();
                    ctx.allreduce_sum_f64(&[1.0]).await;
                    let closed = (ctx.rank() == 0).then(|| lib.save());
                    ctx.allreduce_sum_f64(&[1.0]).await;
                    lib.finalize_impl(ctx).unwrap();
                    (open, closed)
                }
            });
            let (open, held_open) = out[0].0.clone().unwrap();
            let closed = out[0].1.clone().unwrap();
            let finalized = lib.save();

            // Open zero start marks: held empty, written as zeros.
            assert_eq!(held_open, vec![(0, 0); 2], "{policy:?}");
            let mut r = Reader::new(&open);
            r.u64("node count").unwrap();
            let (st, dump) = load_node(&mut r).unwrap();
            let start = st.sets[0].1.start.as_ref().unwrap();
            assert_eq!(start.totals, vec![0; width], "{policy:?}");
            assert!(dump.is_none(), "{policy:?}");

            // Finalized: windows kept, written as before finalize.
            assert_eq!(held(&lib), vec![(0, width); 2], "{policy:?}");
            assert_eq!(windows(&finalized), windows(&closed), "{policy:?}");
            assert!(windows(&closed).iter().flatten().all(|w| w.totals.len() == width));
            let mut r = Reader::new(&finalized);
            r.u64("node count").unwrap();
            let dump = load_node(&mut r).unwrap().1;
            assert_eq!(dump, lib.encoded_dump(0).as_deref(), "{policy:?}");

            let forms = [(&open, (0, 0)), (&closed, (0, width)), (&finalized, (0, width))];
            for (bytes, compact) in forms {
                let back = CounterLibrary::for_machine(&Machine::new(spec.clone()));
                back.restore(bytes).unwrap();
                assert_eq!(&back.save(), bytes, "{policy:?}");
                assert_eq!(held(&back), vec![compact; 2], "{policy:?}: restored compact");
            }
            let back = CounterLibrary::for_machine(&Machine::new(spec.clone()));
            back.restore(&finalized).unwrap();
            assert_eq!(back.dumps().unwrap(), lib.dumps().unwrap(), "{policy:?}");
        }
    }

    /// A finalized node's windows must be the ones its dump encodes: the
    /// capture encodes the dump from them, so a section whose dump
    /// differs in a count, a record count or the node id is refused, and
    /// a refused restore changes nothing.
    #[test]
    fn restore_refuses_windows_that_disagree_with_the_dump() {
        let spec = JobSpec::new(1, OpMode::Smp1);
        let m = Machine::new(spec.clone());
        let (_, honest) = crate::run_instrumented(&m, |mut ctx| async move {
            ctx.fp1(bgp_mpi::SemOp::Add);
            (ctx, ())
        });
        let section = honest.save();
        let bytes = honest.encoded_dump(0).unwrap();
        let d = dump::decode(&bytes).unwrap();
        // The section ends with the node's dump: swap in a forged one.
        let head = &section[..section.len() - bytes.len() - 8];
        let with = |forged: &dump::NodeDump| {
            let mut out = head.to_vec();
            put_bytes(&mut out, &dump::encode(forged));
            out
        };
        let mut count = d.clone();
        count.sets[0].counts[5] ^= 1;
        let mut records = d.clone();
        records.sets[0].records += 1;
        let mut node = d.clone();
        node.node = 3;
        let victim = CounterLibrary::for_machine(&Machine::new(spec));
        let before = victim.save();
        for forged in [count, records, node] {
            let err = victim.restore(&with(&forged)).unwrap_err();
            assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("node 0's windows disagree with its dump"), "{err}");
            assert_eq!(victim.save(), before, "a refused restore changes nothing");
        }
        victim.restore(&with(&d)).unwrap();
        assert_eq!(victim.save(), section);
    }

    /// The node count is checked before anything is reserved for it: a
    /// section that claims 2^40 nodes is refused, naming both counts.
    #[test]
    fn restore_checks_the_node_count_first() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(1, OpMode::Smp1)));
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1 << 40);
        let err = lib.restore(&bytes).unwrap_err();
        assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("1099511627776 counter-library nodes, machine has 1"), "{msg}");
    }

    /// Truncation at any byte boundary must surface as a corrupt-data
    /// error, never a panic or a partial restore.
    #[test]
    fn truncated_state_fails_closed() {
        let spec = JobSpec::new(2, OpMode::VirtualNode);
        let m = Machine::new(spec.clone());
        let lib = CounterLibrary::for_machine(&m);
        lib.nodes.lock()[0].sets.push((
            0,
            SetState {
                window: MuxMark { totals: vec![1; NUM_COUNTERS], ..MuxMark::default() },
                records: 1,
                ..SetState::default()
            },
        ));
        let bytes = lib.save();
        let victim = CounterLibrary::for_machine(&Machine::new(spec));
        let before = victim.save();
        for cut in 0..bytes.len() {
            assert!(
                victim.restore(&bytes[..cut]).is_err(),
                "truncation at {cut} restored"
            );
            assert_eq!(victim.save(), before, "cut {cut} partially applied");
        }
        victim.restore(&bytes).unwrap();
    }

    /// Set ids arrive in whatever order a snapshot lists them: restore
    /// keeps a node's sets sorted by id and refuses a repeated id.
    #[test]
    fn restore_sorts_sets_and_rejects_duplicates() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(1, OpMode::Smp1)));
        let encode = |ids: &[u32]| {
            let st = NodeState {
                sets: ids
                    .iter()
                    .map(|&id| (id, SetState { records: id, ..SetState::default() }))
                    .collect(),
                ..NodeState::default()
            };
            let mut out = Vec::new();
            put_u64(&mut out, 1);
            save_node(&mut out, 0, &st, false);
            out
        };
        lib.restore(&encode(&[9, 2, 5])).unwrap();
        assert_eq!(lib.save(), encode(&[2, 5, 9]));
        let err = lib.restore(&encode(&[4, 7, 4])).unwrap_err();
        assert!(err.to_string().contains("duplicate set 4"), "{err}");
        assert_eq!(lib.save(), encode(&[2, 5, 9]), "a refused restore changes nothing");
    }

    /// No `BGP_Start` accepts a set id at or above the limit, so a
    /// snapshot naming one, as a set or as the active set, is corrupt.
    #[test]
    fn restore_refuses_set_ids_at_the_limit() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(1, OpMode::Smp1)));
        let before = lib.save();
        let encode = |st: &NodeState| {
            let mut out = Vec::new();
            put_u64(&mut out, 1);
            save_node(&mut out, 0, st, false);
            out
        };
        let set = NodeState {
            sets: vec![(dump::SET_ID_LIMIT, SetState::default())],
            ..NodeState::default()
        };
        let active = NodeState { active_set: Some(dump::SET_ID_LIMIT), ..NodeState::default() };
        for (st, what) in [(set, "set id"), (active, "active set")] {
            let err = lib.restore(&encode(&st)).unwrap_err();
            assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains(&format!("{what} 536870912")), "{err}");
            assert_eq!(lib.save(), before, "a refused restore changes nothing");
        }
        let legal = NodeState { active_set: Some(dump::SET_ID_LIMIT - 1), ..NodeState::default() };
        lib.restore(&encode(&legal)).unwrap();
    }

    /// The library is the machine's `counters` app-state hook, so
    /// machines with checkpointing capture an `app:counters` section,
    /// and a second lookup hands back the same instance.
    #[test]
    fn library_registers_snapshot_hook() {
        let m = Machine::new(JobSpec::new(1, OpMode::Smp1));
        let lib = CounterLibrary::for_machine(&m);
        let hook = m.register_app_state(NAME, || unreachable!("already registered"));
        assert_eq!(hook.name(), "counters");
        assert!(Arc::ptr_eq(&lib, &CounterLibrary::for_machine(&m)));
    }
}
