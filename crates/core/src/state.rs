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
//! The section holds what memory holds, each fact once: a node is its
//! four arrival counts and its sets, a start mark without totals is
//! written without totals, and a finalized node (every rank it hosts
//! finalized) is its windows, from which its dump is built with the
//! home mode the policy gives the node. Which set is open is which set
//! holds a start mark. Restore refuses, naming the node, a mark whose
//! totals are neither empty nor the job's schedule width, a node with
//! more than one start mark, and a finalized node with a window no stop
//! closed.

use crate::{dump, CounterLibrary, NodeState, SetState};
use bgp_arch::error::{BgpError, Result};
use bgp_arch::events::{NUM_COUNTERS, NUM_EVENTS};
use bgp_arch::wire::{put_u32, put_u64, put_u64s, put_u8, Reader};
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

/// A mark of node `node` holds no totals or the `width` of the job's
/// schedule: every mode's under rotation, one mode's otherwise.
fn load_mark(r: &mut Reader<'_>, node: usize, width: usize, what: &str) -> Result<MuxMark> {
    let totals = r.u64s("mark totals")?;
    if !totals.is_empty() && totals.len() != width {
        return Err(BgpError::corrupt(format!(
            "node {node}'s {what} holds {} totals; the job's schedule holds {width}",
            totals.len()
        )));
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

fn load_set(r: &mut Reader<'_>, node: usize, width: usize) -> Result<(u32, SetState)> {
    // A set id at or above the limit cannot have come from `BGP_Start`.
    let id = r.u32("set id")?;
    if id >= dump::SET_ID_LIMIT {
        return Err(BgpError::corrupt(format!(
            "set id {id} is not below the set-id limit {}",
            dump::SET_ID_LIMIT
        )));
    }
    let records = r.u32("set records")?;
    let start = match r.u8("start-mark tag")? {
        0 => None,
        1 => Some(load_mark(r, node, width, "start mark")?),
        t => return Err(BgpError::corrupt(format!("bad start-mark tag {t}"))),
    };
    let window = load_mark(r, node, width, "window")?;
    Ok((id, SetState { start, window, records }))
}

fn save_node(out: &mut Vec<u8>, st: &NodeState) {
    let arrivals = [st.init_arrivals, st.start_arrivals, st.stop_arrivals, st.finalize_arrivals];
    for n in arrivals {
        put_u64(out, n as u64);
    }
    put_u64(out, st.sets.len() as u64);
    for (id, s) in &st.sets {
        save_set(out, *id, s);
    }
}

/// Read the state of node `node`, which hosts `ranks` ranks, of a job
/// whose marks hold `width` totals. At most one set's window is open.
/// A finalized node's dump is built from its windows, so each must have
/// been closed by a stop.
fn load_node(r: &mut Reader<'_>, node: usize, ranks: usize, width: usize) -> Result<NodeState> {
    let mut st = NodeState {
        init_arrivals: r.u64("init arrivals")? as usize,
        start_arrivals: r.u64("start arrivals")? as usize,
        stop_arrivals: r.u64("stop arrivals")? as usize,
        finalize_arrivals: r.u64("finalize arrivals")? as usize,
        sets: Vec::new(),
    };
    let n_sets = r.u64("set count")?;
    for _ in 0..n_sets {
        let (id, s) = load_set(r, node, width)?;
        match st.find_set(id) {
            Ok(_) => return Err(BgpError::corrupt(format!("duplicate set {id}"))),
            Err(i) => st.insert_set(i, id, s),
        }
    }
    let mut open = st.sets.iter().filter(|(_, s)| s.start.is_some()).map(|&(id, _)| id);
    if let (Some(a), Some(b)) = (open.next(), open.next()) {
        return Err(BgpError::corrupt(format!(
            "node {node} holds start marks for sets {a} and {b}; one window at most is open"
        )));
    }
    if st.finalize_arrivals == ranks {
        let unclosed = |s: &SetState| s.start.is_some() || s.window.totals.is_empty();
        if let Some((id, _)) = st.sets.iter().find(|(_, s)| unclosed(s)) {
            return Err(BgpError::corrupt(format!(
                "node {node} finalized with set {id}'s window never closed"
            )));
        }
    }
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
        let n = r.u64("node count")?;
        let machine = self.spec.nodes();
        if n != machine as u64 {
            return Err(BgpError::corrupt(format!(
                "snapshot has {n} counter-library nodes, machine has {machine}"
            )));
        }
        let width = if self.rotates() { NUM_EVENTS } else { NUM_COUNTERS };
        let fresh = (0..machine)
            .map(|node| load_node(&mut r, node, self.spec.ranks_on(node), width))
            .collect::<Result<Vec<_>>>()?;
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
            st.init_arrivals = 2;
            st.start_arrivals = 1;
            let mut window = MuxMark { totals: vec![9; NUM_COUNTERS], ..MuxMark::default() };
            window.totals[17] = u64::MAX;
            let start = MuxMark {
                totals: vec![2; NUM_COUNTERS],
                occupancy: [1, 2, 3, 4],
                cycles: [10, 20, 30, 40],
            };
            let set = SetState { start: Some(start), window, records: 5 };
            st.sets.push((7, set));
            // Node 0 finalized (both its ranks did): a closed window, no
            // dump bytes.
            let st = &mut nodes[0];
            st.init_arrivals = 2;
            st.finalize_arrivals = 2;
            let totals = (0..NUM_COUNTERS as u64).collect();
            let window = MuxMark { totals, ..MuxMark::default() };
            st.sets.push((0, SetState { start: None, window, records: 1 }));
        }
        let bytes = lib.save();
        let m2 = Machine::new(spec);
        let lib2 = CounterLibrary::for_machine(&m2);
        lib2.restore(&bytes).unwrap();
        assert_eq!(lib2.save(), bytes);
    }

    /// Every node of an `app:counters` section of a job with one rank
    /// per node whose marks hold `width` totals.
    fn nodes_of(bytes: &[u8], width: usize) -> Vec<NodeState> {
        let mut r = Reader::new(bytes);
        let n = r.u64("node count").unwrap();
        (0..n as usize).map(|node| load_node(&mut r, node, 1, width).unwrap()).collect()
    }

    /// Every set window of every node in an `app:counters` section.
    fn windows(bytes: &[u8], width: usize) -> Vec<Vec<MuxMark>> {
        let nodes = nodes_of(bytes, width).into_iter();
        nodes.map(|st| st.sets.into_iter().map(|(_, s)| s.window).collect()).collect()
    }

    /// The section holds what memory holds, under every kind of policy:
    /// a zero start mark is written without totals, and a finalized
    /// node as its arrival counts and its windows, written as they were
    /// before finalize, with no dump bytes. Every form restores as it was held,
    /// saves the same bytes again, and a restored finalized library
    /// gives the same dumps.
    #[test]
    fn marks_and_finalized_windows_are_written_as_held() {
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
            let held = |lib: &CounterLibrary| -> Vec<(usize, usize, bool)> {
                let nodes = lib.nodes.lock();
                let set = |(node, st): (usize, &NodeState)| {
                    let s = &st.sets[0].1;
                    let start = s.start.as_ref().map_or(0, |m| m.totals.len());
                    (start, s.window.totals.len(), lib.finalized(node, st))
                };
                nodes.iter().enumerate().map(set).collect()
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

            // Open zero start marks: held empty, written empty.
            assert_eq!(held_open, vec![(0, 0, false); 2], "{policy:?}");
            let start = nodes_of(&open, width)[0].sets[0].1.start.clone().unwrap();
            assert!(start.totals.is_empty(), "{policy:?}");

            // Finalized: the windows as they were before finalize; only
            // the finalize arrival count distinguishes the two sections.
            assert_eq!(held(&lib), vec![(0, width, true); 2], "{policy:?}");
            assert_eq!(windows(&finalized, width), windows(&closed, width), "{policy:?}");
            assert_eq!(finalized.len(), closed.len(), "{policy:?}: no dump bytes");

            let forms = [(&open, (0, 0, false)), (&closed, (0, width, false))];
            for (bytes, form) in forms.into_iter().chain([(&finalized, (0, width, true))]) {
                let back = CounterLibrary::for_machine(&Machine::new(spec.clone()));
                back.restore(bytes).unwrap();
                assert_eq!(&back.save(), bytes, "{policy:?}");
                assert_eq!(held(&back), vec![form; 2], "{policy:?}: restored as held");
            }
            let back = CounterLibrary::for_machine(&Machine::new(spec.clone()));
            back.restore(&finalized).unwrap();
            assert_eq!(back.dumps().unwrap(), lib.dumps().unwrap(), "{policy:?}");
            assert_eq!(back.encoded_dump(1), lib.encoded_dump(1), "{policy:?}");
        }
    }

    /// A library of a 2-node job under `policy` whose node 1 holds an
    /// open set with a `window_width`-wide window (and a start mark of
    /// `start_width` totals), saved; and an empty library to restore it.
    fn section_with_widths(
        policy: CounterPolicy,
        start_width: usize,
        window_width: usize,
    ) -> (Vec<u8>, Arc<CounterLibrary>) {
        let mut spec = JobSpec::new(2, OpMode::Smp1);
        spec.counter_policy = policy;
        let lib = CounterLibrary::for_machine(&Machine::new(spec.clone()));
        {
            let mut nodes = lib.nodes.lock();
            let st = &mut nodes[1];
            st.init_arrivals = 1;
            st.start_arrivals = 1;
            let start = MuxMark { totals: vec![3; start_width], ..MuxMark::default() };
            let window = MuxMark { totals: vec![5; window_width], ..MuxMark::default() };
            st.sets.push((4, SetState { start: Some(start), window, records: 1 }));
        }
        (lib.save(), CounterLibrary::for_machine(&Machine::new(spec)))
    }

    fn assert_refused(bytes: &[u8], victim: &CounterLibrary, want: &str) {
        let before = victim.save();
        let err = victim.restore(bytes).expect_err("a mark of the wrong width restored");
        assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains(want), "{err}");
        assert_eq!(victim.save(), before, "a refused restore changes nothing");
    }

    /// Under `Multiplexed` every mark holds all four modes' totals. An
    /// open node's 256-wide window would restore as a one-mode window,
    /// and its dump would then lose the per-mode and schedule sets.
    #[test]
    fn multiplexed_restore_refuses_a_one_mode_window_on_an_open_node() {
        let policy = CounterPolicy::Multiplexed { first: CounterMode::Mode0, base_dwell: 2 };
        let (bytes, victim) = section_with_widths(policy, NUM_EVENTS, NUM_COUNTERS);
        assert_refused(&bytes, &victim, "node 1's window holds 256 totals");
        let (bytes, victim) = section_with_widths(policy, NUM_COUNTERS, 0);
        assert_refused(&bytes, &victim, "node 1's start mark holds 256 totals");
        let (bytes, victim) = section_with_widths(policy, NUM_EVENTS, NUM_EVENTS);
        victim.restore(&bytes).unwrap();
    }

    /// Under a one-mode policy every mark holds one mode's 256 totals. An
    /// open node's 1,024-wide window would reach past the live counters
    /// at the next `BGP_Stop`.
    #[test]
    fn fixed_restore_refuses_an_every_mode_window_on_an_open_node() {
        let policy = CounterPolicy::Fixed(CounterMode::Mode2);
        let (bytes, victim) = section_with_widths(policy, NUM_COUNTERS, NUM_EVENTS);
        assert_refused(&bytes, &victim, "node 1's window holds 1024 totals");
        let (bytes, victim) = section_with_widths(policy, NUM_EVENTS, NUM_COUNTERS);
        assert_refused(&bytes, &victim, "node 1's start mark holds 1024 totals");
        let (bytes, victim) = section_with_widths(policy, 0, NUM_COUNTERS);
        victim.restore(&bytes).unwrap();
    }

    /// A finalized node's dump is built from its windows, so a section
    /// that holds one with a window no stop closed is refused: an empty
    /// window, or one whose start mark is still held.
    #[test]
    fn restore_refuses_a_finalized_node_with_an_unclosed_window() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(1, OpMode::Smp1)));
        let closed = MuxMark { totals: vec![1; NUM_COUNTERS], ..MuxMark::default() };
        let open = SetState { start: Some(MuxMark::default()), window: closed, records: 1 };
        for set in [SetState::default(), open] {
            let st =
                NodeState { finalize_arrivals: 1, sets: vec![(2, set)], ..NodeState::default() };
            let mut bytes = Vec::new();
            put_u64(&mut bytes, 1);
            save_node(&mut bytes, &st);
            assert_refused(&bytes, &lib, "node 0 finalized with set 2's window never closed");
        }
    }

    /// One window at most is open on a node, and the set holding the
    /// start mark is the one. A section with two start marks on a node
    /// is refused, naming the node and both sets.
    #[test]
    fn restore_refuses_a_node_with_two_start_marks() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(2, OpMode::Smp1)));
        let open = || SetState { start: Some(MuxMark::default()), ..SetState::default() };
        let node = |sets| NodeState {
            init_arrivals: 1,
            start_arrivals: 1,
            sets,
            ..NodeState::default()
        };
        let nodes = [node(vec![(3, open())]), node(vec![(3, open()), (8, open())])];
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 2);
        for st in &nodes {
            save_node(&mut bytes, st);
        }
        assert_refused(&bytes, &lib, "node 1 holds start marks for sets 3 and 8");
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
    /// snapshot naming one is corrupt.
    #[test]
    fn restore_refuses_set_ids_at_the_limit() {
        let lib = CounterLibrary::for_machine(&Machine::new(JobSpec::new(1, OpMode::Smp1)));
        let before = lib.save();
        let encode = |id: u32| {
            let st = NodeState { sets: vec![(id, SetState::default())], ..NodeState::default() };
            let mut out = Vec::new();
            put_u64(&mut out, 1);
            save_node(&mut out, &st);
            out
        };
        let err = lib.restore(&encode(dump::SET_ID_LIMIT)).unwrap_err();
        assert!(matches!(err, BgpError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("set id 536870912"), "{err}");
        assert_eq!(lib.save(), before, "a refused restore changes nothing");
        lib.restore(&encode(dump::SET_ID_LIMIT - 1)).unwrap();
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
