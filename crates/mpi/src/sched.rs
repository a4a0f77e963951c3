//! The **phase engine**: deterministic parallel execution of resumable
//! rank state machines between MPI synchronization points.
//!
//! Ranks are not OS threads. Each rank's kernel is an `async` state
//! machine (a compact, compiler-generated continuation) and a fixed pool
//! of worker threads multiplexes every rank of the job — 294,912 ranks
//! run on four workers as comfortably as sixteen. Execution is
//! organized in **phases**:
//!
//! * Within a phase, the *frontier* — every rank that is neither parked
//!   on a communication nor finished — runs. A worker **claims** one
//!   node at a time (the lowest-numbered node with ready ranks) and
//!   drives that node's ranks on a node-local rotation that yields
//!   every memory quantum, preserving the fine-grained shared-L3 and
//!   DDR interleaving the simulation models. Different nodes are
//!   claimed by different workers and run genuinely concurrently
//!   (their state is disjoint: each node's cores, caches and UPC unit
//!   sit behind the node's own lock).
//! * A rank leaves the frontier by **suspending**: every blocking point
//!   in `RankCtx` (quantum ticks, `yield_now`, `park_on`, collective
//!   waits) polls a `SuspendPoint` future, which stashes the reason
//!   in a thread-local and returns `Pending` — handing its worker the
//!   continuation. Yields rotate within the claimed node without
//!   touching the engine lock; parks (a receive with no matching
//!   delivered message, an incomplete collective) and kernel completion
//!   go through the engine.
//! * When the frontier empties, the worker that parked the last rank
//!   becomes the **resolver**: the machine merges the phase's buffered
//!   effects in canonical (sender rank, send sequence) order —
//!   delivering messages with per-phase torus link contention,
//!   completing collectives — and reports which parked ranks are now
//!   runnable. The engine wakes them and the next phase begins; the
//!   resolver goes back to claiming like every other worker, so one
//!   worker runs every phase's nodes in ascending order.
//!
//! Because per-rank effects only meet at phase boundaries, and boundary
//! resolution iterates in rank order over deterministic state, the
//! counter dumps are **byte-identical for any worker count**, a single
//! worker included. The `BGP_SIM_THREADS` environment variable (or
//! [`crate::JobSpec::sim_threads`]) sizes the worker pool; it affects
//! wall-clock only, never results.
//!
//! If a resolution wakes nobody while unfinished ranks remain, the job
//! has deadlocked and the resolver panics with a per-rank wait
//! diagnostic rather than hanging the suite.

use bgp_arch::sync::{Condvar, Mutex};
use std::cell::Cell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::{Context, Poll};

/// Why a parked rank is waiting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Wait {
    /// Blocked in a receive for a message with `tag` from `src`
    /// (`None` = any source).
    Recv {
        /// Source filter.
        src: Option<usize>,
        /// Tag filter.
        tag: u32,
    },
    /// Blocked on the collective using rendezvous slot `slot`.
    Collective {
        /// Double-buffer slot index (0 or 1).
        slot: usize,
    },
}

impl fmt::Display for Wait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wait::Recv { src: Some(s), tag } => write!(f, "recv(src={s}, tag={tag})"),
            Wait::Recv { src: None, tag } => write!(f, "recv(any, tag={tag})"),
            Wait::Collective { slot } => write!(f, "collective(slot {slot})"),
        }
    }
}

// ---------------------------------------------------------------------
// Suspension points
// ---------------------------------------------------------------------

/// Why a rank state machine suspended (the reason its `SuspendPoint`
/// leaves for the worker that polled it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Suspend {
    /// Quantum boundary / messaging boundary: give same-node peers their
    /// turn, stay in the frontier.
    Yield,
    /// Leave the frontier until a phase resolution satisfies the wait.
    Park(Wait),
}

thread_local! {
    /// The suspension reason of the rank future this worker just polled
    /// to `Pending`. Set by [`SuspendPoint::poll`], consumed by
    /// [`take_suspend`] immediately after the poll returns.
    static SUSPEND: Cell<Option<Suspend>> = const { Cell::new(None) };
}

/// Consume the suspension reason left by the rank future this thread
/// just polled. `None` means the future suspended on something other
/// than an engine suspension point — a kernel bug the worker must fail
/// loudly on, because no event will ever re-poll it.
pub(crate) fn take_suspend() -> Option<Suspend> {
    SUSPEND.with(Cell::take)
}

/// The one future `RankCtx` suspends on: the first poll records the
/// suspension reason in the worker's thread-local and returns `Pending`
/// (handing the continuation back to the worker); the next poll — which
/// the worker issues only once the rank may run again — completes it.
pub(crate) struct SuspendPoint {
    reason: Option<Suspend>,
}

impl SuspendPoint {
    pub(crate) fn new(reason: Suspend) -> SuspendPoint {
        SuspendPoint {
            reason: Some(reason),
        }
    }
}

impl Future for SuspendPoint {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        match self.reason.take() {
            Some(r) => {
                SUSPEND.with(|c| c.set(Some(r)));
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Run state of one rank state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// In the current frontier.
    Ready,
    /// Parked until a phase resolution satisfies the wait.
    Parked(Wait),
    /// Its kernel returned.
    Done,
}

/// Most ranks one node may host: a [`NodeView`]'s ready set is one
/// bit per local rank.
const MAX_NODE_RANKS: usize = u64::BITS as usize;

/// A worker's exclusive view of one claimed node: which of the node's
/// ranks are still ready this phase, and whose turn it is. The worker
/// rotates this view locally — no engine lock on the yield fast path —
/// which is sound because ready ranks only *leave* the set mid-phase
/// (parks and finishes go through the worker itself) and only *enter*
/// it at a phase commit, which cannot happen while this node still has
/// a ready rank. The view is plain data: a claim allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeView {
    /// The node's first rank; its ranks are `first..first + count`.
    pub first: usize,
    /// How many ranks the node hosts.
    pub count: usize,
    /// Readiness, bit `i` for local index `i`.
    pub ready: u64,
    /// Local index of the rank holding the node's turn.
    pub cursor: usize,
}

impl NodeView {
    /// The rank holding the turn.
    pub(crate) fn current(&self) -> usize {
        self.first + self.cursor
    }

    /// Local index `local` left the frontier this phase.
    pub(crate) fn unready(&mut self, local: usize) {
        self.ready &= !(1 << local);
    }

    /// Rotate the turn to the next ready rank after the cursor
    /// (wrapping — a sole ready rank keeps the turn). Returns `false`
    /// if no rank of the node is ready.
    pub(crate) fn rotate(&mut self) -> bool {
        let n = self.count;
        for off in 1..=n {
            let pos = (self.cursor + off) % n;
            if self.ready & (1 << pos) != 0 {
                self.cursor = pos;
                return true;
            }
        }
        false
    }
}

/// What [`PhaseEngine::claim`] hands a worker.
pub(crate) enum Claim {
    /// Drive this node until it has no ready ranks.
    Run(NodeView),
    /// Every rank is done; the worker should exit.
    Finished,
    /// The job aborted; the worker should exit.
    Aborted,
}

/// What a worker must do after a rank left the frontier
/// ([`PhaseEngine::park`] / [`PhaseEngine::finish`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[must_use = "a Resolve outcome obliges the worker to run phase resolution"]
pub(crate) enum LeaveOutcome {
    /// The node still has ready ranks: rotate the local view and keep
    /// driving it.
    Continue,
    /// The node has no ready ranks left; the engine released the claim.
    /// Go claim another node.
    Released,
    /// The frontier emptied and the engine released the claim: this
    /// worker is the resolver. Merge the machine's buffered effects, call
    /// [`PhaseEngine::commit_phase`], then go claim a node.
    Resolve,
    /// The job aborted; the worker should exit.
    Aborted,
}

struct Engine {
    status: Vec<Status>,
    /// Ranks per node (block placement): rank `r` lives on node
    /// `r / ranks_per_node`, the last node possibly partial.
    ranks_per_node: usize,
    /// Per node: local index of the rank holding the node's turn.
    cursor: Vec<usize>,
    /// Per node: unclaimed, with at least one ready rank. Workers
    /// always claim the lowest, so single-worker execution visits nodes
    /// in canonical order. A worker holds a node from its claim until
    /// none of its ranks is ready, so at a commit no node is held.
    claimable: Vec<bool>,
    /// No node below this one is claimable. Within a phase claims only
    /// remove nodes, so the scan only moves forward; a commit, which
    /// refills `claimable`, resets it.
    scan: usize,
    /// Ready ranks remaining in the frontier.
    runnable: usize,
    /// Ranks whose kernels returned.
    done: usize,
    phase: u64,
    aborted: bool,
}

impl Engine {
    fn ranks(&self, node: usize) -> std::ops::Range<usize> {
        let ppn = self.ranks_per_node;
        node * ppn..((node + 1) * ppn).min(self.status.len())
    }

    fn node_has_ready(&self, node: usize) -> bool {
        self.ranks(node).any(|r| self.status[r] == Status::Ready)
    }

    fn view(&self, node: usize) -> NodeView {
        let ranks = self.ranks(node);
        let ready = ranks
            .clone()
            .enumerate()
            .filter(|&(_, r)| self.status[r] == Status::Ready)
            .fold(0, |bits, (local, _)| bits | 1 << local);
        let (first, count) = (ranks.start, ranks.len());
        NodeView {
            first,
            count,
            ready,
            cursor: self.cursor[node],
        }
    }

    /// The lowest claimable node, if any.
    fn next_claimable(&mut self) -> Option<usize> {
        while self.scan < self.claimable.len() {
            if self.claimable[self.scan] {
                return Some(self.scan);
            }
            self.scan += 1;
        }
        None
    }

    /// Every parked rank and its wait, in rank order.
    fn parked(&self) -> impl Iterator<Item = (usize, Wait)> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter_map(|(r, st)| match st {
                Status::Parked(w) => Some((r, *w)),
                _ => None,
            })
    }
}

/// Forensics callback invoked when the engine detects a deadlock,
/// handed the `(rank, wait)` list of every still-parked rank. Whatever
/// it returns is appended to the deadlock panic message — the machine
/// installs one that dumps the tail of the scheduler trace and writes a
/// sidecar report (see `Machine::new`).
pub(crate) type DeadlockReporter = Box<dyn Fn(&[(usize, Wait)]) -> String + Send + Sync>;

/// The shared phase scheduler. One per [`crate::Machine`].
pub(crate) struct PhaseEngine {
    m: Mutex<Engine>,
    /// Workers block here between claims. New claims only appear at
    /// phase commits (and on abort/completion), so a single condvar
    /// with broadcast wakeups is cheap: wakeups are once per phase, not
    /// once per quantum.
    cv: Condvar,
    workers: usize,
    /// Lock-free mirror of `Engine::aborted` so the worker poll loop
    /// and `RankCtx` drops can check it without taking the engine lock.
    aborted: AtomicBool,
    /// Optional deadlock forensics hook.
    reporter: Mutex<Option<DeadlockReporter>>,
}

impl PhaseEngine {
    /// An engine for `n_ranks` ranks in block placement (`crate::place`):
    /// `ranks_per_node` to a node, the last node possibly partial,
    /// multiplexed over `workers` worker threads.
    ///
    /// # Panics
    /// Panics unless there is a rank and a node hosts at most 64.
    pub(crate) fn new(n_ranks: usize, ranks_per_node: usize, workers: usize) -> PhaseEngine {
        assert!(n_ranks > 0);
        assert!(
            (1..=MAX_NODE_RANKS).contains(&ranks_per_node),
            "a node hosts 1 to 64 ranks, not {ranks_per_node}"
        );
        let n_nodes = n_ranks.div_ceil(ranks_per_node);
        let eng = Engine {
            status: vec![Status::Ready; n_ranks],
            ranks_per_node,
            cursor: vec![0; n_nodes],
            claimable: vec![true; n_nodes],
            scan: 0,
            runnable: n_ranks,
            done: 0,
            phase: 0,
            aborted: false,
        };
        PhaseEngine {
            m: Mutex::new(eng),
            cv: Condvar::new(),
            workers: workers.max(1),
            aborted: AtomicBool::new(false),
            reporter: Mutex::new(None),
        }
    }

    /// Install the deadlock forensics hook (replaces any previous one).
    pub(crate) fn set_deadlock_reporter(&self, reporter: DeadlockReporter) {
        *self.reporter.lock() = Some(reporter);
    }

    /// Size of the worker pool this engine was built for.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Completed phases so far (for diagnostics and tests).
    pub(crate) fn phases(&self) -> u64 {
        self.m.lock().phase
    }

    /// Lock-free abort check for hot paths.
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Abort the job: workers exit at their next claim or rank switch
    /// instead of waiting forever. Called when a rank future panics (or
    /// by an external watchdog) so the whole job fails loudly rather
    /// than hanging.
    pub(crate) fn abort(&self) {
        let mut s = self.m.lock();
        s.aborted = true;
        self.aborted.store(true, Ordering::Release);
        drop(s);
        self.cv.notify_all();
    }

    /// Claim the lowest-numbered unclaimed node with ready ranks,
    /// blocking until one exists (or the job finishes or aborts).
    pub(crate) fn claim(&self) -> Claim {
        let mut s = self.m.lock();
        loop {
            if s.aborted {
                return Claim::Aborted;
            }
            if s.done == s.status.len() {
                return Claim::Finished;
            }
            if let Some(node) = s.next_claimable() {
                s.claimable[node] = false;
                return Claim::Run(s.view(node));
            }
            s = self.cv.wait(s);
        }
    }

    /// `rank` (of the caller's claimed node) left the frontier, waiting
    /// on `wait`.
    pub(crate) fn park(&self, rank: usize, wait: Wait) -> LeaveOutcome {
        self.leave(rank, Status::Parked(wait))
    }

    /// `rank` (of the caller's claimed node) left the frontier for good:
    /// its kernel returned.
    pub(crate) fn finish(&self, rank: usize) -> LeaveOutcome {
        self.leave(rank, Status::Done)
    }

    fn leave(&self, rank: usize, to: Status) -> LeaveOutcome {
        let mut s = self.m.lock();
        if s.aborted {
            return LeaveOutcome::Aborted;
        }
        debug_assert_eq!(s.status[rank], Status::Ready, "leave by a non-ready rank");
        s.status[rank] = to;
        s.runnable -= 1;
        if to == Status::Done {
            s.done += 1;
        }
        // A node with no ready rank left this phase drops its claim, the
        // resolver's included (an empty frontier leaves no ready rank
        // anywhere). It becomes claimable again at the commit that wakes
        // one of its ranks.
        if s.runnable == 0 {
            LeaveOutcome::Resolve
        } else if s.node_has_ready(rank / s.ranks_per_node) {
            LeaveOutcome::Continue
        } else {
            LeaveOutcome::Released
        }
    }

    /// Call `f` on every parked rank and its wait, in rank order, under
    /// the engine lock (resolution-time call, like [`PhaseEngine::parked`],
    /// but without collecting them).
    pub(crate) fn for_each_parked(&self, mut f: impl FnMut(usize, Wait)) {
        let s = self.m.lock();
        debug_assert_eq!(s.runnable, 0, "for_each_parked() is a resolution-time call");
        for (r, w) in s.parked() {
            f(r, w);
        }
    }

    /// Open the next phase with `wake` as its frontier (resolution-time
    /// call; `wake` holds ranks whose waits were just satisfied).
    ///
    /// # Panics
    /// Panics with a per-rank diagnostic if `wake` is empty while
    /// unfinished ranks remain — the job has deadlocked.
    pub(crate) fn commit_phase(&self, wake: &[usize]) {
        let mut s = self.m.lock();
        debug_assert_eq!(s.runnable, 0, "commit_phase() is a resolution-time call");
        s.phase += 1;
        if wake.is_empty() {
            if s.status.iter().all(|&st| st == Status::Done) {
                drop(s);
                self.cv.notify_all(); // blocked claimers observe completion
                return;
            }
            let parked: Vec<(usize, Wait)> = s.parked().collect();
            let blocked: Vec<String> = parked
                .iter()
                .map(|(r, w)| format!("rank {r}: {w}"))
                .collect();
            s.aborted = true;
            self.aborted.store(true, Ordering::Release);
            let phase = s.phase;
            drop(s);
            self.cv.notify_all();
            // Forensics before unwinding: the machine-installed reporter
            // dumps the scheduler trace tail and writes a sidecar file.
            let forensics = self
                .reporter
                .lock()
                .as_ref()
                .map(|rep| rep(&parked))
                .unwrap_or_default();
            panic!(
                "MPI deadlock after {} phase(s): no deliverable progress; waiting: [{}] \
                 (mismatched send/recv or collective?){}",
                phase,
                blocked.join(", "),
                forensics
            );
        }
        for &r in wake {
            debug_assert!(
                matches!(s.status[r], Status::Parked(_)),
                "waking rank {r} that was not parked"
            );
            s.status[r] = Status::Ready;
            s.runnable += 1;
        }
        // Every node's rotation restarts at its lowest-ranked ready rank
        // so the next phase's intra-node interleaving is canonical.
        // Nodes with ready ranks become claimable again.
        s.scan = 0;
        for node in 0..s.claimable.len() {
            let pos = s.ranks(node).position(|r| s.status[r] == Status::Ready);
            if let Some(p) = pos {
                s.cursor[node] = p;
            }
            s.claimable[node] = pos.is_some();
        }
        drop(s);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Engine over `n` SMP/1 nodes (one rank each) and `workers` workers.
    fn smp(n: usize, workers: usize) -> PhaseEngine {
        PhaseEngine::new(n, 1, workers)
    }

    /// Drive a claimed node the way a worker does, logging the rank at
    /// each simulated poll; every rank "yields" `yields` times and then
    /// finishes. Returns the resolver obligation if one arose.
    fn drive_yield_then_finish(
        eng: &PhaseEngine,
        view: &mut NodeView,
        yields: usize,
        log: &mut Vec<usize>,
    ) -> Option<LeaveOutcome> {
        let mut remaining: Vec<usize> = vec![yields; view.count];
        loop {
            let rank = view.current();
            let local = view.cursor;
            if remaining[local] > 0 {
                // The rank's future returned Pending with Suspend::Yield.
                log.push(rank);
                remaining[local] -= 1;
                assert!(view.rotate(), "a yielding rank is itself still ready");
            } else {
                match eng.finish(rank) {
                    LeaveOutcome::Continue => {
                        view.unready(local);
                        assert!(view.rotate());
                    }
                    out @ (LeaveOutcome::Released
                    | LeaveOutcome::Resolve
                    | LeaveOutcome::Aborted) => return Some(out),
                }
            }
        }
    }

    #[test]
    fn same_node_ranks_rotate_in_rank_order() {
        // 4 ranks on one node, like VNM.
        let eng = PhaseEngine::new(4, 4, 8);
        let mut view = match eng.claim() {
            Claim::Run(v) => v,
            _ => panic!("one node with ready ranks must be claimable"),
        };
        assert_eq!((view.first, view.count, view.ready), (0, 4, 0b1111));
        let mut log = Vec::new();
        let out = drive_yield_then_finish(&eng, &mut view, 3, &mut log);
        assert_eq!(log, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(out, Some(LeaveOutcome::Resolve), "last finisher resolves");
        eng.commit_phase(&[]);
        assert!(
            matches!(eng.claim(), Claim::Finished),
            "nothing left to run"
        );
    }

    #[test]
    fn sole_ready_rank_keeps_the_turn_across_yields() {
        let eng = smp(1, 1);
        let mut view = match eng.claim() {
            Claim::Run(v) => v,
            _ => panic!("claimable"),
        };
        for _ in 0..10 {
            assert!(view.rotate());
            assert_eq!(view.current(), 0, "sole ready rank keeps running");
        }
        assert_eq!(eng.finish(0), LeaveOutcome::Resolve);
        eng.commit_phase(&[]);
        assert!(matches!(eng.claim(), Claim::Finished));
    }

    /// Every phase, the resolver's included, visits the nodes from the
    /// lowest: each rank parks once, is woken, and finishes.
    #[test]
    fn single_worker_claims_nodes_in_ascending_order() {
        let eng = smp(4, 1);
        let mut order = Vec::new();
        let mut parked = 0;
        loop {
            match eng.claim() {
                Claim::Run(view) => {
                    order.push(view.first); // one rank per node
                    let rank = view.current();
                    let out = if order.len() <= 4 {
                        eng.park(rank, Wait::Collective { slot: 0 })
                    } else {
                        eng.finish(rank)
                    };
                    match out {
                        LeaveOutcome::Released => parked += 1,
                        LeaveOutcome::Resolve if order.len() == 4 => {
                            assert_eq!(parked, 3);
                            eng.commit_phase(&[0, 1, 2, 3]);
                        }
                        LeaveOutcome::Resolve => eng.commit_phase(&[]),
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
                Claim::Finished => break,
                Claim::Aborted => panic!("no abort in this test"),
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3], "canonical claim order");
    }

    #[test]
    fn last_parker_resolves_and_wake_reopens_the_frontier() {
        let eng = smp(2, 2);
        let w = Wait::Recv { src: None, tag: 0 };
        let v0 = match eng.claim() {
            Claim::Run(v) => v,
            _ => panic!("node 0 claimable"),
        };
        let v1 = match eng.claim() {
            Claim::Run(v) => v,
            _ => panic!("node 1 claimable"),
        };
        assert_eq!((v0.first, v1.first), (0, 1));
        assert_eq!(eng.park(0, w), LeaveOutcome::Released);
        assert_eq!(
            eng.park(1, w),
            LeaveOutcome::Resolve,
            "last parker resolves"
        );
        let mut parked = 0;
        eng.for_each_parked(|_, _| parked += 1);
        assert_eq!(parked, 2, "both ranks parked at resolution");
        eng.commit_phase(&[0, 1]);
        // The resolver released node 1 with the rest: both nodes
        // re-entered the claimable set at commit and are claimed from
        // the lowest, the resolver's own node last.
        for node in [0, 1] {
            let v = match eng.claim() {
                Claim::Run(v) => v,
                _ => panic!("node {node} claimable again"),
            };
            assert_eq!((v.first, v.current()), (node, node));
        }
        assert_eq!(eng.finish(0), LeaveOutcome::Released);
        assert_eq!(eng.finish(1), LeaveOutcome::Resolve);
        eng.commit_phase(&[]);
        assert!(matches!(eng.claim(), Claim::Finished));
        assert!(eng.phases() >= 2);
    }

    #[test]
    fn abort_turns_every_entry_point_terminal() {
        let eng = smp(2, 2);
        let view = match eng.claim() {
            Claim::Run(v) => v,
            _ => panic!("claimable"),
        };
        eng.abort();
        assert!(eng.is_aborted());
        assert!(matches!(eng.claim(), Claim::Aborted));
        assert_eq!(
            eng.park(view.current(), Wait::Collective { slot: 0 }),
            LeaveOutcome::Aborted
        );
    }

    #[test]
    fn empty_wake_with_parked_ranks_panics_with_diagnostic() {
        let eng = smp(2, 2);
        let _v0 = eng.claim();
        let _v1 = eng.claim();
        assert_eq!(
            eng.park(
                0,
                Wait::Recv {
                    src: Some(1),
                    tag: 9
                }
            ),
            LeaveOutcome::Released
        );
        assert_eq!(
            eng.park(
                1,
                Wait::Recv {
                    src: Some(0),
                    tag: 9
                }
            ),
            LeaveOutcome::Resolve
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.commit_phase(&[]); // nobody deliverable: deadlock
        }))
        .expect_err("deadlock must panic");
        let msg = crate::machine::panic_message(err.as_ref());
        assert!(msg.contains("MPI deadlock"), "{msg}");
        assert!(msg.contains("rank 0: recv(src=1, tag=9)"), "{msg}");
        assert!(eng.is_aborted(), "deadlock aborts the job");
    }
}
