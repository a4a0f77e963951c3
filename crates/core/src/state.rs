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

use crate::{dump, CounterLibrary, NodeState, SetState};
use bgp_arch::error::{BgpError, Result};
use bgp_arch::events::{NUM_COUNTERS, NUM_EVENTS};
use bgp_arch::wire::{put_bool, put_bytes, put_u32, put_u64, put_u64s, put_u8, Reader};
use bgp_mpi::machine::AppState;
use bgp_mpi::MuxMark;

/// The library's app-state name: its snapshot section is `app:counters`.
pub(crate) const NAME: &str = "counters";

fn save_mark(out: &mut Vec<u8>, mark: &MuxMark) {
    put_u64s(out, &mark.totals);
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

fn save_set(out: &mut Vec<u8>, id: u32, s: &SetState) {
    put_u32(out, id);
    put_u32(out, s.records);
    match &s.start {
        Some(mark) => {
            put_u8(out, 1);
            save_mark(out, mark);
        }
        None => put_u8(out, 0),
    }
    save_mark(out, &s.window);
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

fn save_node(out: &mut Vec<u8>, st: &NodeState) {
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
    for (id, s) in &st.sets {
        save_set(out, *id, s);
    }
    match &st.dump {
        Some(d) => {
            put_u8(out, 1);
            put_bytes(out, d);
        }
        None => put_u8(out, 0),
    }
}

fn load_node(r: &mut Reader<'_>) -> Result<NodeState> {
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
            Err(i) => st.sets.insert(i, (id, s)),
        }
    }
    st.dump = match r.u8("dump tag")? {
        0 => None,
        1 => Some(r.bytes("dump bytes")?.to_vec()),
        t => return Err(BgpError::corrupt(format!("bad dump tag {t}"))),
    };
    Ok(st)
}

impl AppState for CounterLibrary {
    fn name(&self) -> &'static str {
        NAME
    }

    fn save(&self) -> Vec<u8> {
        let nodes = self.nodes.lock();
        let mut out = Vec::new();
        put_u64(&mut out, nodes.len() as u64);
        for st in nodes.iter() {
            save_node(&mut out, st);
        }
        out
    }

    fn restore(&self, bytes: &[u8]) -> Result<()> {
        let mut r = Reader::new(bytes);
        let n = r.u64("node count")? as usize;
        let mut fresh = Vec::with_capacity(n);
        for _ in 0..n {
            fresh.push(load_node(&mut r)?);
        }
        r.expect_end("counter-library state")?;
        let mut nodes = self.nodes.lock();
        if fresh.len() != nodes.len() {
            return Err(BgpError::corrupt(format!(
                "snapshot has {} counter-library nodes, machine has {}",
                fresh.len(),
                nodes.len()
            )));
        }
        *nodes = fresh;
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
            nodes[0].dump = Some(vec![1, 2, 3]);
        }
        let bytes = lib.save();
        let m2 = Machine::new(spec);
        let lib2 = CounterLibrary::for_machine(&m2);
        lib2.restore(&bytes).unwrap();
        assert_eq!(lib2.save(), bytes);
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
            save_node(&mut out, &st);
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
            save_node(&mut out, st);
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
