//! Scheduler state: the data structures of Listings 1 and 2.
//!
//! [`SchedState`] is the structure the paper's computation and
//! environment processes manipulate under the global lock. It maintains,
//! faithfully to definitions (7)–(9):
//!
//! * the **partial** set — vertex-phase pairs with at least one waiting
//!   message but not yet a full set of inputs (`m(x_p) < v`);
//! * the **full** set — pairs with sufficient information to execute
//!   (`x_p < v ≤ m(x_p)` and a waiting message);
//! * the **ready** set — full pairs whose phase is minimal among the
//!   full pairs of their vertex (at most one per vertex);
//! * the per-phase frontier `x_p` — the highest index such that
//!   `x_p ≤ x_{p−1}` and all vertices indexed `x_p` and lower have
//!   finished phase `p`;
//! * `pmax` / `next` — the highest started phase and the next to start.
//!
//! Instead of the paper's linear scans (statements 1.14–1.15 and
//! 1.24–1.27), pairs are kept in per-phase **index bitsets** so the
//! minimum active index and the "newly full" range are word-parallel
//! scans — these are the "optimizations and custom data structures" the
//! prototype alludes to in §4. Because this code runs inside the global
//! lock on every execution, it is also engineered to be allocation-free
//! in steady state:
//!
//! * active phases live in a ring (`VecDeque`) — phases start at the
//!   back and complete at the front in order, so lookups are O(1)
//!   arithmetic instead of `BTreeMap` searches;
//! * completed [`PhaseState`]s are recycled through a pool, so starting
//!   a phase allocates nothing once the in-flight window has been
//!   visited once;
//! * inboxes are per-vertex slots in the phase state, not a `HashMap`;
//! * transitions are written into a caller-owned scratch
//!   ([`Transition`]) that each worker reuses across executions.
//!
//! The scans' *semantics* are reproduced exactly; the invariant checker
//! used in tests re-derives every set from the raw definitions and
//! compares.
//!
//! **Run claims.** Promoting a vertex to the ready set hands a worker
//! not one pair but a *phase run* `(v, p_1 < … < p_k)`: every phase in
//! which `v` is full at that moment, or just `p_1` if the engine marked
//! `v` slow. Full phases are active phases, so the engine's in-flight
//! window bounds a run's length. No new rule is involved. A full pair
//! has every predecessor finished for its phase, so its inputs are
//! complete, and a vertex's full phases are exactly the phases it must
//! execute next, in order.
//! The ready pair stays `(v, p_1)`, the minimal full phase; as the
//! worker publishes a prefix of the run, the ready pair moves to the
//! run's next phase, and only once the last one is published can `v`
//! be promoted again. A phase that becomes full while `v` is mid-run is
//! therefore never absorbed into that run: it starts the next claim.
//! [`SchedState::finish_run`] publishes any prefix of a run under one
//! lock hold, with a single x-scan and promotion pass.
//!
//! The paper's ghost variable `msg(v,p)` corresponds to membership in
//! `partial ∪ full ∪ ready`: a pair holds messages from its creation
//! until its execution is finished (messages are physically handed to
//! the worker at ready-promotion time, but logically they remain "on the
//! input" until `finish_run`, matching §3.1.2).

use crate::trace::{SetMembership, SetSnapshot, Trace, TraceEvent, TraceStep};
use ec_events::Value;
use std::collections::VecDeque;

/// 1-based schedule index (the paper's vertex number).
pub(crate) type Idx = u32;

/// Fresh inputs of one vertex-phase pair, sorted by producer index.
pub(crate) type Inputs = Vec<(Idx, Value)>;

/// A unit of work handed to a computation process: the phase run
/// `phase, rest[0].0, rest[1].0, …` of vertex `idx`, ascending, each
/// phase with its own fresh inputs. Single-phase claims (the common
/// case for slow vertices) leave `rest` empty and allocate nothing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Task {
    pub idx: Idx,
    pub phase: u64,
    pub inputs: Inputs,
    pub rest: Vec<(u64, Inputs)>,
}

/// A set of schedule indices (`1..=N`), stored as a bitmap. All hot
/// operations are word-parallel; `N` is fixed at construction.
#[derive(Debug, Clone, Default)]
struct IdxSet {
    words: Vec<u64>,
}

impl IdxSet {
    fn for_n(n: Idx) -> IdxSet {
        IdxSet {
            words: vec![0; (n as usize + 1).div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: Idx) {
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, i: Idx) -> bool {
        let w = &mut self.words[(i / 64) as usize];
        let bit = 1u64 << (i % 64);
        let was = *w & bit != 0;
        *w &= !bit;
        was
    }

    #[inline]
    fn contains(&self, i: Idx) -> bool {
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Smallest index in `self ∪ other` (the sets must be same-sized).
    fn min_union(&self, other: &IdxSet) -> Option<Idx> {
        for (w, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let or = a | b;
            if or != 0 {
                return Some(w as Idx * 64 + or.trailing_zeros() as Idx);
            }
        }
        None
    }

    /// Removes every index `≤ bound` and appends them (ascending) to
    /// `out`.
    fn take_up_to(&mut self, bound: Idx, out: &mut Vec<Idx>) {
        let last_word = (bound / 64) as usize;
        for w in 0..=last_word.min(self.words.len() - 1) {
            let mask = if w == last_word && bound % 64 != 63 {
                (1u64 << (bound % 64 + 1)) - 1
            } else {
                u64::MAX
            };
            let mut taken = self.words[w] & mask;
            self.words[w] &= !mask;
            while taken != 0 {
                let b = taken.trailing_zeros();
                out.push(w as Idx * 64 + b as Idx);
                taken &= taken - 1;
            }
        }
    }

    /// Ascending iteration (diagnostics and invariant checks only).
    fn iter(&self) -> impl Iterator<Item = Idx> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let b = word.trailing_zeros();
                word &= word - 1;
                Some(w as Idx * 64 + b as Idx)
            })
        })
    }
}

/// Per-phase scheduling state. Pooled: completed phases are recycled
/// into the next started phase without reallocating.
#[derive(Debug)]
struct PhaseState {
    /// Pairs with messages but not enough information (definition 9).
    partial: IdxSet,
    /// Pairs with sufficient information (definition 7).
    full: IdxSet,
    /// The frontier `x_p`.
    x: Idx,
    /// Undelivered messages per consumer: `inbox[v - 1]` holds
    /// `(producer, value)` pairs for vertex `v`.
    inbox: Vec<Vec<(Idx, Value)>>,
}

impl PhaseState {
    fn for_n(n: Idx) -> PhaseState {
        PhaseState {
            partial: IdxSet::for_n(n),
            full: IdxSet::for_n(n),
            x: 0,
            inbox: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Prepares a pooled state for reuse. Inboxes are already empty:
    /// completion requires every message to have been delivered.
    fn reset(&mut self) {
        self.partial.clear();
        self.full.clear();
        self.x = 0;
    }

    fn min_active(&self) -> Option<Idx> {
        self.partial.min_union(&self.full)
    }
}

/// Outcome of a state transition: pairs that became ready (to enqueue)
/// and how many phases completed. Reused across calls — the engine
/// keeps one per worker and [`SchedState`] methods append to it.
#[derive(Debug, Default)]
pub(crate) struct Transition {
    pub tasks: Vec<Task>,
    pub phases_completed: u64,
}

impl Transition {
    /// Clears the scratch for the next transition (tasks are normally
    /// drained by the enqueue path; the counter must be reset).
    pub fn reset(&mut self) {
        self.tasks.clear();
        self.phases_completed = 0;
    }
}

/// The shared scheduler state (guarded by the engine's global lock).
pub(crate) struct SchedState {
    /// Number of vertices `N`.
    n: Idx,
    /// The numbering's `m` table, `m[0..=N]`.
    m: Vec<Idx>,
    /// Highest phase started (0 before any).
    pmax: u64,
    /// Next phase the environment will start.
    next: u64,
    /// All phases `≤ completed_through` have `x = N`.
    completed_through: u64,
    /// Active (started, incomplete) phases, in order: `ring[i]` is
    /// phase `base + i`. Phases start at the back and complete at the
    /// front (x_p monotonicity guarantees in-order completion).
    ring: VecDeque<PhaseState>,
    /// Phase number of `ring[0]` (meaningful only when non-empty).
    base: u64,
    /// Recycled phase states.
    pool: Vec<PhaseState>,
    /// Phases in the full set, per vertex (index 0 unused): ascending.
    vertex_full: Vec<VecDeque<u64>>,
    /// Per vertex, how many leading `vertex_full` phases its in-flight
    /// run still holds (0 = none; index 0 unused). The first of them is
    /// the vertex's unique ready phase.
    claimed: Vec<usize>,
    /// Vertices the engine marked slow: they claim one phase at a time.
    slow: IdxSet,
    /// Scratch for promotion scans (single-threaded under the lock).
    movers: Vec<Idx>,
    /// Set when a computation process fails; drains the run.
    pub failed: Option<String>,
    /// Optional Figure-3-style trace.
    trace: Option<Trace>,
}

impl SchedState {
    /// Initialises the state for a graph whose numbering produced
    /// `m_table` (`m[0..=N]`) — the environment process's statements
    /// 2.2–2.7.
    pub fn new(m_table: &[Idx]) -> SchedState {
        let n = (m_table.len() - 1) as Idx;
        SchedState {
            n,
            m: m_table.to_vec(),
            pmax: 0,
            next: 1,
            completed_through: 0,
            ring: VecDeque::new(),
            base: 1,
            pool: Vec::new(),
            vertex_full: vec![VecDeque::new(); n as usize + 1],
            claimed: vec![0; n as usize + 1],
            slow: IdxSet::for_n(n),
            movers: Vec::new(),
            failed: None,
            trace: None,
        }
    }

    /// Re-bases the phase counters so the next started phase is
    /// `base + 1` — resuming a run whose phases `1..=base` completed in
    /// a previous process (checkpoint/restore). Only valid before any
    /// phase has started.
    pub fn resume_from(&mut self, base: u64) {
        assert_eq!(
            (self.pmax, self.completed_through),
            (0, 0),
            "resume_from on a state that has already started phases"
        );
        self.pmax = base;
        self.next = base + 1;
        self.completed_through = base;
    }

    /// Marks `v` slow (its claims hold one phase, so a second worker
    /// can pipeline its later phases) or fast (its claims hold runs).
    /// Takes effect at `v`'s next claim.
    pub fn mark_slow(&mut self, v: Idx, slow: bool) {
        if slow {
            self.slow.insert(v);
        } else {
            self.slow.remove(v);
        }
    }

    /// The ready phase of `v`: the first phase of its claimed run.
    fn ready_phase(&self, v: Idx) -> Option<u64> {
        if self.claimed[v as usize] > 0 {
            self.vertex_full[v as usize].front().copied()
        } else {
            None
        }
    }

    /// Enables Figure-3-style tracing.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// Takes the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Number of vertices.
    #[allow(dead_code)] // used by the state-machine tests
    pub fn n(&self) -> Idx {
        self.n
    }

    /// Highest phase started.
    pub fn pmax(&self) -> u64 {
        self.pmax
    }

    /// Next phase the environment will start.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// All phases up to and including this are complete.
    pub fn completed_through(&self) -> u64 {
        self.completed_through
    }

    /// Number of started-but-incomplete phases.
    pub fn inflight(&self) -> u64 {
        self.pmax.saturating_sub(self.completed_through)
    }

    #[inline]
    fn ph(&self, p: u64) -> &PhaseState {
        &self.ring[(p - self.base) as usize]
    }

    #[inline]
    fn ph_mut(&mut self, p: u64) -> &mut PhaseState {
        &mut self.ring[(p - self.base) as usize]
    }

    /// `x_p` for any phase: `N` for completed phases, 0 for unstarted
    /// ones, the stored frontier otherwise.
    pub fn x_of(&self, p: u64) -> Idx {
        if p <= self.completed_through {
            self.n
        } else if p > self.pmax {
            0
        } else {
            self.ph(p).x
        }
    }

    /// Starts the next phase (statements 2.11–2.19): inserts `(s, next)`
    /// for every source into the full set, promotes newly ready pairs
    /// into `out`, and advances `next`. Returns the phase number.
    pub fn start_phase(&mut self, out: &mut Transition) -> u64 {
        let p = self.open_phase(out, |_| true);
        self.promote_sources(out);
        self.trace_step(TraceEvent::PhaseStarted(p));
        p
    }

    /// The first half of [`start_phase`](Self::start_phase): inserts
    /// only the sources for which `active` returns true into the full
    /// set, but promotes nothing. Batch admission opens every phase of
    /// its batch first and then calls
    /// [`promote_sources`](Self::promote_sources) once, so each active
    /// source claims all of the batch's phases as one run. Until then
    /// the invariants do not hold (full pairs without a ready one).
    ///
    /// Skipping a source is silence-aware admission. The caller asserts
    /// that every skipped source's execution would be a guaranteed no-op
    /// this phase (poll `None`, emit nothing, change no state); the
    /// streaming runtime knows this for its live sources because *it*
    /// staged their bins. The paper's "information in the absence of
    /// messages" applied one level up: a provably silent execution need
    /// not be scheduled at all.
    ///
    /// The frontier `x_p` is set to its definitional value over the
    /// inserted set, so invariants hold with gaps below `m(0)`; a phase
    /// whose active set is empty completes as soon as its predecessors
    /// have (immediately, if they already did — `out.phases_completed`
    /// reports it, and the caller must publish that progress exactly as
    /// workers do).
    pub fn open_phase(&mut self, out: &mut Transition, mut active: impl FnMut(Idx) -> bool) -> u64 {
        let p = self.next;
        self.pmax = p;
        self.next += 1;
        let st = match self.pool.pop() {
            Some(mut st) => {
                st.reset();
                st
            }
            None => PhaseState::for_n(self.n),
        };
        if self.ring.is_empty() {
            self.base = p;
        }
        self.ring.push_back(st);
        // Sources are always schedule indices 1..=m(0).
        for s in 1..=self.m[0] {
            if active(s) {
                self.ph_mut(p).full.insert(s);
                vf_insert(&mut self.vertex_full[s as usize], p);
            }
        }
        // x_p by definition (§3.1.2) over the inserted set. With every
        // source inserted the minimum active index is 1 and this is the
        // usual 0; with gaps it may start higher, and with an empty
        // active set the phase is already past every vertex — complete
        // it now if its predecessors have completed, because no
        // execution will ever visit it.
        let bound = self.x_of(p - 1);
        let n = self.n;
        let ph = self.ph_mut(p);
        ph.x = match ph.min_active() {
            None => n.min(bound),
            Some(mn) => (mn - 1).min(bound),
        };
        if ph.x == n {
            self.advance_completed(out);
        }
        p
    }

    /// Promotes every source with full phases and no run in flight
    /// (statements 2.16–2.19 for the phases opened since the last call).
    pub fn promote_sources(&mut self, out: &mut Transition) {
        for s in 1..=self.m[0] {
            self.try_promote(s, &mut out.tasks);
        }
    }

    /// Commits a finished prefix of `v`'s claimed run — the computation
    /// process's statements 1.5–1.30 for each of its phases, under one
    /// lock hold. `outputs` yields `(phase, messages)` per executed
    /// phase, in run order; messages are `(successor index, value)`.
    /// Newly ready runs and the completed-phase count are appended to
    /// `out`.
    ///
    /// Publishing fewer phases than the run holds keeps the rest
    /// claimed: `v`'s ready pair moves to the next unpublished phase,
    /// and the caller owns executing the remainder.
    pub fn finish_run(
        &mut self,
        v: Idx,
        outputs: impl IntoIterator<Item = (u64, Vec<(Idx, Value)>)>,
        out: &mut Transition,
    ) {
        let vi = v as usize;
        let mut span: Option<(u64, u64)> = None;
        let mut emitted: Vec<(u64, usize)> = Vec::new();
        for (p, messages) in outputs {
            // Statements 1.5–1.7: remove (v, p) from the full and ready
            // sets; the ready pair moves to the run's next phase.
            debug_assert!(
                self.claimed[vi] > 0 && self.vertex_full[vi].front() == Some(&p),
                "({v}, {p}) finished but was not the ready pair of {v}"
            );
            let was_full = self.ph_mut(p).full.remove(v);
            debug_assert!(was_full, "({v}, {p}) finished but was not in full");
            vf_remove(&mut self.vertex_full[vi], p);
            self.claimed[vi] -= 1;
            if self.trace.is_some() {
                emitted.push((p, messages.len()));
            }

            // Statements 1.8–1.11: deliver outputs into the partial set.
            let ph = self.ph_mut(p);
            for (w, val) in messages {
                debug_assert!(w > v, "messages flow to higher indices only");
                debug_assert!(
                    !ph.full.contains(w),
                    "successor ({w}, {p}) cannot already be full while a \
                     predecessor was still executing"
                );
                ph.inbox[w as usize - 1].push((v, val));
                ph.partial.insert(w);
            }
            span = Some((span.map_or(p, |(first, _)| first), p));
        }
        let Some((first, last)) = span else {
            return;
        };

        // Statements 1.12–1.23, once for the whole run: update x_p for
        // p ≥ p_1. Every published phase changed its own sets, so each
        // is recomputed. Beyond the run, phase i's recomputed value
        // depends only on its own (unchanged) sets and the clamp against
        // x_{i−1}, so the scan stops at the first phase there whose x
        // does not change.
        let mut hi = last;
        let mut i = first;
        while i <= self.pmax {
            let bound = self.x_of(i - 1);
            let n = self.n;
            let ph = self.ph_mut(i);
            let new_x = match ph.min_active() {
                None => n.min(bound),
                Some(mn) => (mn - 1).min(bound),
            };
            if new_x != ph.x {
                debug_assert!(new_x > ph.x, "x_p never decreases (serializability)");
                ph.x = new_x;
                hi = hi.max(i);
            } else if i > last {
                break;
            }
            i += 1;
        }

        // Statements 1.24–1.26: move newly full pairs of every touched
        // phase (published phases may hold new partial pairs that
        // already satisfy w ≤ m(x_p); phases with changed x may promote
        // as well). All moves land before any claim, so a successor
        // that became full in several phases claims them as one run.
        let mut movers = std::mem::take(&mut self.movers);
        movers.clear();
        for q in first..=hi {
            let mx = self.m[self.ph(q).x as usize];
            let from = movers.len();
            self.ph_mut(q).partial.take_up_to(mx, &mut movers);
            for &w in &movers[from..] {
                self.ph_mut(q).full.insert(w);
                vf_insert(&mut self.vertex_full[w as usize], q);
            }
        }
        // Statements 1.27–1.30: claim runs for the movers, then for the
        // executed vertex (its next full phases, once its run is done).
        for &w in &movers {
            self.try_promote(w, &mut out.tasks);
        }
        self.movers = movers;
        self.try_promote(v, &mut out.tasks);

        // Advance the completed frontier and recycle finished phases.
        self.advance_completed(out);

        for (phase, emitted) in emitted {
            self.trace_step(TraceEvent::Executed {
                vertex: v,
                phase,
                emitted,
            });
        }
    }

    /// Pops every leading phase whose frontier has reached `N` off the
    /// active ring, recycling its state and counting it in
    /// `out.phases_completed` — the commit half shared by
    /// [`finish_run`](Self::finish_run) and the zero-active path of
    /// [`open_phase`](Self::open_phase).
    fn advance_completed(&mut self, out: &mut Transition) {
        while let Some(front) = self.ring.front() {
            if front.x == self.n {
                debug_assert!(front.partial.is_empty() && front.full.is_empty());
                debug_assert!(
                    front.inbox.iter().all(Vec::is_empty),
                    "completed phase must have delivered every message"
                );
                let st = self.ring.pop_front().expect("front exists");
                self.pool.push(st);
                self.completed_through = self.base;
                self.base += 1;
                out.phases_completed += 1;
            } else {
                break;
            }
        }
    }

    /// Records one trace step (no-op unless tracing is enabled).
    fn trace_step(&mut self, event: TraceEvent) {
        if self.trace.is_none() {
            return;
        }
        let after = self.snapshot();
        if let Some(trace) = &mut self.trace {
            trace.steps.push(TraceStep { event, after });
        }
    }

    /// If `w` has full phases and no run in flight, claims them as one
    /// run and emits its task (statements 1.27–1.30 / 2.16–2.19): all
    /// of them, or just the minimal one if `w` is marked slow. The
    /// messages accumulated for each claimed pair are attached to the
    /// task here: once a pair is full, all of its messages have arrived
    /// (its predecessors have all finished the phase), so this hand-off
    /// is race-free.
    fn try_promote(&mut self, w: Idx, tasks: &mut Vec<Task>) {
        let wi = w as usize;
        if self.claimed[wi] > 0 {
            return;
        }
        let Some(&phase) = self.vertex_full[wi].front() else {
            return;
        };
        let len = if self.slow.contains(w) {
            1
        } else {
            self.vertex_full[wi].len()
        };
        self.claimed[wi] = len;
        let inputs = self.take_inputs(w, phase);
        let rest = (1..len)
            .map(|i| {
                let p = self.vertex_full[wi][i];
                (p, self.take_inputs(w, p))
            })
            .collect();
        tasks.push(Task {
            idx: w,
            phase,
            inputs,
            rest,
        });
    }

    /// Hands `(w, p)`'s waiting messages to its task, sorted by
    /// producer.
    fn take_inputs(&mut self, w: Idx, p: u64) -> Inputs {
        let mut inputs = std::mem::take(&mut self.ph_mut(p).inbox[w as usize - 1]);
        inputs.sort_by_key(|(prod, _)| *prod);
        inputs
    }

    /// Snapshot of current set memberships (Figure 3 coordinates).
    pub fn snapshot(&self) -> SetSnapshot {
        let mut entries = Vec::new();
        let mut x = Vec::new();
        for (i, ph) in self.ring.iter().enumerate() {
            let q = self.base + i as u64;
            for w in ph.partial.iter() {
                entries.push((w, q, SetMembership::Partial));
            }
            for w in ph.full.iter() {
                let m = if self.ready_phase(w) == Some(q) {
                    SetMembership::FullAndReady
                } else {
                    SetMembership::FullOnly
                };
                entries.push((w, q, m));
            }
            x.push((q, ph.x));
        }
        entries.sort_by_key(|&(v, p, _)| (p, v));
        SetSnapshot { entries, x }
    }

    /// Re-derives every invariant from the paper's definitions and
    /// checks the incremental state against them. Used by tests after
    /// every transition (`check_invariants` feature of the engine).
    pub fn check_invariants(&self) -> Result<(), String> {
        // The active window covers exactly (completed_through, pmax].
        if !self.ring.is_empty() {
            let first = self.base;
            let last = self.base + self.ring.len() as u64 - 1;
            if first <= self.completed_through() || last > self.pmax() {
                return Err(format!(
                    "phases [{first}, {last}] outside active window ({}, {}]",
                    self.completed_through(),
                    self.pmax()
                ));
            }
        }
        // x_p window consistency, definition of x (§3.1.2).
        for (i, ph) in self.ring.iter().enumerate() {
            let q = self.base + i as u64;
            let bound = self.x_of(q - 1);
            let expect = match ph.min_active() {
                None => self.n.min(bound),
                Some(mn) => (mn - 1).min(bound),
            };
            if ph.x != expect {
                return Err(format!("x_{q} = {} but definition gives {expect}", ph.x));
            }
            let mx = self.m[ph.x as usize];
            // Definition (9): partial pairs have m(x_p) < v.
            for w in ph.partial.iter() {
                if w <= mx {
                    return Err(format!("({w}, {q}) in partial but w ≤ m(x_{q}) = {mx}"));
                }
                if ph.inbox[w as usize - 1].is_empty() {
                    return Err(format!("({w}, {q}) in partial without messages"));
                }
            }
            // Definition (7): full pairs have x_p < v ≤ m(x_p).
            for w in ph.full.iter() {
                if w <= ph.x || w > mx {
                    return Err(format!(
                        "({w}, {q}) in full but not in (x_{q}, m(x_{q})] = ({}, {mx}]",
                        ph.x
                    ));
                }
                if !self.vertex_full[w as usize].contains(&q) {
                    return Err(format!("vertex_full missing ({w}, {q})"));
                }
            }
        }
        // vertex_full mirrors the per-phase full sets (and is sorted).
        for (w, phases) in self.vertex_full.iter().enumerate().skip(1) {
            if phases
                .iter()
                .zip(phases.iter().skip(1))
                .any(|(a, b)| a >= b)
            {
                return Err(format!("vertex_full[{w}] is not strictly ascending"));
            }
            for &q in phases {
                let in_window = q > self.completed_through && q <= self.pmax;
                if !in_window || !self.ph(q).full.contains(w as Idx) {
                    return Err(format!("vertex_full has stale ({w}, {q})"));
                }
            }
            // Definition (8): the ready pair is the minimal full phase.
            // A run claims a prefix of the ascending full phases, so its
            // first phase is that minimum; the claim must fit the full
            // set, and a vertex with full pairs must have one ready.
            if self.claimed[w] > phases.len() {
                return Err(format!(
                    "vertex {w}: run claims {} phases but only {} are full",
                    self.claimed[w],
                    phases.len()
                ));
            }
            if let (None, Some(&mn)) = (self.ready_phase(w as Idx), phases.front()) {
                return Err(format!(
                    "vertex {w}: full pair at phase {mn} but nothing ready \
                     (every vertex with full pairs must have its minimum ready)"
                ));
            }
        }
        // Monotonicity of x across phases (serializability guard).
        let mut prev = self.n;
        for ph in self.ring.iter() {
            if ph.x > prev {
                return Err("x_p exceeds x_{p-1}".into());
            }
            prev = ph.x;
        }
        Ok(())
    }
}

/// Inserts `q` into an ascending deque (common case: `q` is larger than
/// everything present, i.e. `push_back`).
fn vf_insert(dq: &mut VecDeque<u64>, q: u64) {
    match dq.back() {
        None => dq.push_back(q),
        Some(&b) if b < q => dq.push_back(q),
        _ => {
            let pos = dq.partition_point(|&e| e < q);
            if dq.get(pos) != Some(&q) {
                dq.insert(pos, q);
            }
        }
    }
}

/// Removes `q` from an ascending deque (common case: `q` is the front).
fn vf_remove(dq: &mut VecDeque<u64>, q: u64) {
    match dq.front() {
        Some(&f) if f == q => {
            dq.pop_front();
        }
        _ => {
            let pos = dq.partition_point(|&e| e < q);
            if dq.get(pos) == Some(&q) {
                dq.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_graph::{generators, Numbering};

    fn state_for(dag: &ec_graph::Dag) -> SchedState {
        let numbering = Numbering::compute(dag);
        SchedState::new(numbering.m_table())
    }

    /// Starts a phase, returning the transition (test convenience over
    /// the out-parameter API).
    fn start(st: &mut SchedState) -> (u64, Transition) {
        let mut out = Transition::default();
        let p = st.start_phase(&mut out);
        (p, out)
    }

    /// Finishes a single-phase execution, returning the transition.
    fn finish(st: &mut SchedState, v: Idx, p: u64, outputs: Vec<(Idx, Value)>) -> Transition {
        let mut out = Transition::default();
        st.finish_run(v, [(p, outputs)], &mut out);
        out
    }

    /// The phases of a task's run, ascending.
    fn phases_of(task: &Task) -> Vec<u64> {
        std::iter::once(task.phase)
            .chain(task.rest.iter().map(|(p, _)| *p))
            .collect()
    }

    /// Executes every returned run immediately with the given output
    /// function (one call per phase), publishing each run whole and
    /// checking invariants after each commit. Returns the executed
    /// pairs in execution order.
    fn drain(
        st: &mut SchedState,
        mut pending: Vec<Task>,
        outputs: &mut impl FnMut(Idx, u64) -> Vec<(Idx, Value)>,
    ) -> Vec<(Idx, u64)> {
        let mut executed = Vec::new();
        while let Some(task) = pending.pop() {
            let run: Vec<(u64, Vec<(Idx, Value)>)> = phases_of(&task)
                .into_iter()
                .map(|p| {
                    executed.push((task.idx, p));
                    (p, outputs(task.idx, p))
                })
                .collect();
            let mut tr = Transition::default();
            st.finish_run(task.idx, run, &mut tr);
            st.check_invariants().unwrap();
            pending.extend(tr.tasks);
        }
        executed
    }

    #[test]
    fn single_vertex_phases_complete() {
        let mut dag = ec_graph::Dag::new();
        dag.add_vertex("only");
        let mut st = state_for(&dag);
        st.check_invariants().unwrap();

        let (p1, tr) = start(&mut st);
        assert_eq!(p1, 1);
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(
            tr.tasks[0],
            Task {
                idx: 1,
                phase: 1,
                inputs: vec![],
                rest: vec![]
            }
        );
        st.check_invariants().unwrap();

        let tr = finish(&mut st, 1, 1, vec![]);
        assert_eq!(tr.phases_completed, 1);
        assert!(tr.tasks.is_empty());
        assert_eq!(st.completed_through(), 1);
        st.check_invariants().unwrap();
    }

    #[test]
    fn chain_propagates_messages() {
        let dag = generators::chain(3);
        let mut st = state_for(&dag);
        let (_, tr) = start(&mut st);
        assert_eq!(tr.tasks.len(), 1); // one source

        // Source emits to vertex 2; 2 becomes full+ready at once because
        // x_1 advances to 1 and m(1) = 2.
        let tr = finish(&mut st, 1, 1, vec![(2, Value::Int(10))]);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].idx, 2);
        assert_eq!(tr.tasks[0].inputs, vec![(1, Value::Int(10))]);

        let tr = finish(&mut st, 2, 1, vec![(3, Value::Int(20))]);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].idx, 3);

        let tr = finish(&mut st, 3, 1, vec![]);
        assert_eq!(tr.phases_completed, 1);
        assert_eq!(st.completed_through(), 1);
    }

    #[test]
    fn silence_completes_phase_without_executing_downstream() {
        // When the source emits nothing, the phase completes with only
        // the source executed — information conveyed by absence.
        let dag = generators::chain(4);
        let mut st = state_for(&dag);
        let (_, tr) = start(&mut st);
        let executed = drain(&mut st, tr.tasks, &mut |_, _| vec![]);
        assert_eq!(executed, vec![(1, 1)]);
        assert_eq!(st.completed_through(), 1);
    }

    #[test]
    fn pipelined_phases_respect_ready_rule() {
        let dag = generators::chain(3);
        let mut st = state_for(&dag);
        let (_, tr1) = start(&mut st);
        let (_, tr2) = start(&mut st);
        st.check_invariants().unwrap();
        // Source ready for phase 1 only; phase 2 is full but not ready.
        assert_eq!(tr1.tasks.len(), 1);
        assert!(tr2.tasks.is_empty());
        assert_eq!(st.snapshot().ready(), vec![(1, 1)]);
        assert_eq!(st.snapshot().full(), vec![(1, 1), (1, 2)]);

        // Finishing (1,1) readies both (2,1) (via message) and (1,2).
        let tr = finish(&mut st, 1, 1, vec![(2, Value::Int(1))]);
        st.check_invariants().unwrap();
        let mut ready: Vec<(Idx, u64)> = tr.tasks.iter().map(|t| (t.idx, t.phase)).collect();
        ready.sort_unstable();
        assert_eq!(ready, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn no_overtaking_x_clamped() {
        // Phase 2 cannot advance its frontier beyond phase 1's.
        let dag = generators::chain(2);
        let mut st = state_for(&dag);
        start(&mut st);
        start(&mut st);
        // Execute (1,1) emitting nothing; then (1,2) emitting to 2.
        let tr = finish(&mut st, 1, 1, vec![]);
        assert_eq!(tr.tasks.len(), 1); // (1,2) ready
                                       // Phase 1 complete, x_1 = N = 2.
        assert_eq!(st.completed_through(), 1);
        let tr = finish(&mut st, 1, 2, vec![(2, Value::Int(5))]);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].idx, 2);
        let tr = finish(&mut st, 2, 2, vec![]);
        assert_eq!(tr.phases_completed, 1);
        assert_eq!(st.completed_through(), 2);
    }

    #[test]
    fn x_clamp_blocks_later_phase_completion() {
        // Even if phase 2 has no active pairs left, it is not complete
        // while phase 1 is still executing (x_2 ≤ x_1 < N).
        let dag = generators::chain(2);
        let mut st = state_for(&dag);
        start(&mut st); // phase 1: (1,1) ready
        start(&mut st); // phase 2: (1,2) full, not ready
                        // Finish (1,1) with an output; (2,1) and (1,2) become ready.
        let tr = finish(&mut st, 1, 1, vec![(2, Value::Int(1))]);
        let mut pairs: Vec<_> = tr.tasks.iter().map(|t| (t.idx, t.phase)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (2, 1)]);
        // Finish (1,2) silently. Phase 2 now has no active pairs, but
        // phase 1 still does — phase 2 must not complete.
        let tr = finish(&mut st, 1, 2, vec![]);
        assert_eq!(tr.phases_completed, 0);
        assert_eq!(st.x_of(2), st.x_of(1));
        assert!(st.x_of(1) < st.n());
        st.check_invariants().unwrap();
        // Finishing (2,1) completes both phases in order.
        let tr = finish(&mut st, 2, 1, vec![]);
        assert_eq!(tr.phases_completed, 2);
        assert_eq!(st.completed_through(), 2);
    }

    #[test]
    fn diamond_join_waits_for_both_branches() {
        // diamond: 1 -> {2, 3} -> 4 (schedule indices).
        let dag = generators::diamond();
        let mut st = state_for(&dag);
        let (_, tr) = start(&mut st);
        assert_eq!(tr.tasks.len(), 1);

        let tr = finish(&mut st, 1, 1, vec![(2, Value::Int(1)), (3, Value::Int(2))]);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 2); // both branches ready

        // Finish one branch; 4 has a message but is only partial until
        // the other branch finishes.
        let tr = finish(&mut st, 2, 1, vec![(4, Value::Int(10))]);
        st.check_invariants().unwrap();
        assert!(tr.tasks.is_empty());
        assert_eq!(st.snapshot().partial(), vec![(4, 1)]);

        let tr = finish(&mut st, 3, 1, vec![(4, Value::Int(20))]);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].idx, 4);
        // Messages sorted by producer index.
        assert_eq!(
            tr.tasks[0].inputs,
            vec![(2, Value::Int(10)), (3, Value::Int(20))]
        );
    }

    #[test]
    fn join_fires_with_single_branch_when_other_silent() {
        let dag = generators::diamond();
        let mut st = state_for(&dag);
        let (_, tr) = start(&mut st);
        let _ = tr;
        let _ = finish(&mut st, 1, 1, vec![(2, Value::Int(1)), (3, Value::Int(2))]);
        // Branch 2 emits; branch 3 is silent. The join must still
        // execute (with just one fresh input) once branch 3 finishes —
        // the absence of 3's message is information.
        let tr = finish(&mut st, 2, 1, vec![(4, Value::Int(10))]);
        assert!(tr.tasks.is_empty());
        let tr = finish(&mut st, 3, 1, vec![]);
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(tr.tasks[0].inputs, vec![(2, Value::Int(10))]);
        let tr = finish(&mut st, 4, 1, vec![]);
        assert_eq!(tr.phases_completed, 1);
    }

    #[test]
    fn many_phases_pipeline_on_chain() {
        // Start 5 phases on a 5-chain; execute greedily; all complete.
        let dag = generators::chain(5);
        let mut st = state_for(&dag);
        let mut pending: Vec<Task> = Vec::new();
        for _ in 0..5 {
            let (_, tr) = start(&mut st);
            pending.extend(tr.tasks);
            st.check_invariants().unwrap();
        }
        let executed = drain(&mut st, pending, &mut |v, _| {
            if v < 5 {
                vec![(v + 1, Value::Int(v as i64))]
            } else {
                vec![]
            }
        });
        assert_eq!(executed.len(), 25); // 5 vertices × 5 phases
        assert_eq!(st.completed_through(), 5);
        assert_eq!(st.inflight(), 0);
    }

    /// Drives a layered graph where every vertex broadcasts, taking
    /// ready runs in a random order. With `split`, each run is published
    /// as a random prefix and its remainder is queued again, the way a
    /// worker that passes its time budget pushes the rest back. Checks
    /// that every pair executes exactly once, with exactly its own
    /// inputs, and re-derives the invariants after every publish.
    fn exactly_once(seed: u64, phases: u64, split: bool) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let dag = generators::layered(4, 3, 2, 3);
        let numbering = Numbering::compute(&dag);
        let n = numbering.len() as Idx;
        let mut st = SchedState::new(numbering.m_table());
        let mut pending: Vec<Task> = Vec::new();
        for _ in 0..phases {
            let (_, tr) = start(&mut st);
            pending.extend(tr.tasks);
        }
        let mut seen = std::collections::HashSet::new();
        // Everything broadcasts, so all pairs execute.
        let idx_of = |vs: &[ec_graph::VertexId]| -> Vec<Idx> {
            let mut out: Vec<Idx> = vs.iter().map(|&s| numbering.index_of(s)).collect();
            out.sort_unstable();
            out
        };
        while !pending.is_empty() {
            pending.shuffle(&mut rng);
            let mut task = pending.pop().unwrap();
            let len = 1 + task.rest.len();
            let take = if split { rng.gen_range(1..=len) } else { len };
            let mut run = std::iter::once((task.phase, std::mem::take(&mut task.inputs)))
                .chain(task.rest.drain(..))
                .collect::<Vec<_>>();
            let remainder = run.split_off(take);
            let mut published = Vec::new();
            for (p, inputs) in run {
                assert!(
                    seen.insert((task.idx, p)),
                    "pair executed twice: {:?}",
                    (task.idx, p)
                );
                let preds = idx_of(dag.preds(numbering.vertex_at(task.idx)));
                let producers: Vec<Idx> = inputs.iter().map(|(i, _)| *i).collect();
                assert_eq!(producers, preds, "inputs of ({}, {p})", task.idx);
                let outs = idx_of(dag.succs(numbering.vertex_at(task.idx)))
                    .into_iter()
                    .map(|s| (s, Value::Int(1)))
                    .collect();
                published.push((p, outs));
            }
            let mut tr = Transition::default();
            st.finish_run(task.idx, published, &mut tr);
            st.check_invariants().unwrap();
            pending.extend(tr.tasks);
            let mut remainder = remainder.into_iter();
            if let Some((phase, inputs)) = remainder.next() {
                assert_eq!(st.ready_phase(task.idx), Some(phase));
                pending.push(Task {
                    idx: task.idx,
                    phase,
                    inputs,
                    rest: remainder.collect(),
                });
            }
        }
        assert_eq!(seen.len(), (n as u64 * phases) as usize);
        assert_eq!(st.completed_through(), phases);
    }

    #[test]
    fn exactly_once_execution() {
        // Under a random execution order, every pair is executed at most
        // once and everything that should execute does.
        exactly_once(7, 4, false);
    }

    #[test]
    fn exactly_once_execution_with_split_runs() {
        for seed in 0..16 {
            exactly_once(seed, 12, true);
        }
    }

    #[test]
    fn snapshot_and_trace() {
        let dag = generators::chain(2);
        let mut st = state_for(&dag);
        st.enable_trace();
        let (_, tr) = start(&mut st);
        let t = &tr.tasks;
        assert_eq!(t.len(), 1);
        finish(&mut st, 1, 1, vec![(2, Value::Int(1))]);
        finish(&mut st, 2, 1, vec![]);
        let trace = st.take_trace().unwrap();
        assert_eq!(trace.len(), 3);
        assert!(matches!(trace.steps[0].event, TraceEvent::PhaseStarted(1)));
        assert_eq!(trace.execution_order(), vec![(1, 1), (2, 1)]);
        // After (1,1): (2,1) is full+ready, x_1 = 1.
        let after = &trace.steps[1].after;
        assert_eq!(after.ready(), vec![(2, 1)]);
        assert_eq!(after.x_of(1), Some(1));
        // After (2,1): everything done, no active phases.
        assert!(trace.steps[2].after.entries.is_empty());
    }

    #[test]
    fn x_of_outside_window() {
        let dag = generators::chain(2);
        let mut st = state_for(&dag);
        assert_eq!(st.x_of(1), 0); // unstarted
        start(&mut st);
        finish(&mut st, 1, 1, vec![]);
        assert_eq!(st.completed_through(), 1);
        assert_eq!(st.x_of(1), st.n()); // completed
        assert_eq!(st.x_of(99), 0);
    }

    #[test]
    fn pooled_phase_states_are_reset() {
        // Phases cycling through the pool must come back clean: run a
        // few full cycles and re-derive the invariants each time.
        let dag = generators::diamond();
        let mut st = state_for(&dag);
        for round in 0..10u64 {
            let (p, tr) = start(&mut st);
            assert_eq!(p, round + 1);
            let executed = drain(&mut st, tr.tasks, &mut |v, _| match v {
                1 => vec![(2, Value::Int(1)), (3, Value::Int(2))],
                2 | 3 => vec![(4, Value::Int(3))],
                _ => vec![],
            });
            assert_eq!(executed.len(), 4);
            assert_eq!(st.completed_through(), round + 1);
        }
    }

    /// `(phase, messages)` pairs publishing `phases` with no output.
    fn silent(phases: &[u64]) -> Vec<(u64, Vec<(Idx, Value)>)> {
        phases.iter().map(|&p| (p, vec![])).collect()
    }

    /// Opens `k` phases and then promotes the sources once, the way
    /// batch admission does.
    fn open_batch(st: &mut SchedState, k: u64) -> Transition {
        let mut tr = Transition::default();
        for _ in 0..k {
            st.open_phase(&mut tr, |_| true);
        }
        st.promote_sources(&mut tr);
        st.check_invariants().unwrap();
        tr
    }

    #[test]
    fn run_claim_holds_every_full_phase_with_its_own_inputs() {
        // diamond: 1 -> {2, 3} -> 4. One promotion after five opened
        // phases: the source claims all five as one run.
        let dag = generators::diamond();
        let mut st = state_for(&dag);
        let tr = open_batch(&mut st, 5);
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!(phases_of(&tr.tasks[0]), vec![1, 2, 3, 4, 5]);
        assert_eq!(st.snapshot().ready(), vec![(1, 1)], "ready = minimal full");

        // Publishing the source's run makes both branches full in every
        // phase at once: each claims all five, each phase carrying its
        // own message.
        let outs = (1..=5)
            .map(|p| {
                let v = p as i64;
                (p, vec![(2, Value::Int(v)), (3, Value::Int(10 * v))])
            })
            .collect::<Vec<_>>();
        let mut tr = Transition::default();
        st.finish_run(1, outs, &mut tr);
        st.check_invariants().unwrap();
        let mut branches = tr.tasks;
        branches.sort_by_key(|t| t.idx);
        for (t, scale) in branches.iter().zip([1, 10]) {
            assert_eq!(phases_of(t), vec![1, 2, 3, 4, 5]);
            let inputs = std::iter::once(&t.inputs).chain(t.rest.iter().map(|(_, i)| i));
            for (p, inputs) in (1..=5i64).zip(inputs) {
                assert_eq!(inputs, &vec![(1, Value::Int(scale * p))]);
            }
        }

        // Branch 3 publishes before branch 2, so the join's inboxes fill
        // out of producer order; its claim sorts each phase's inputs.
        let to_join = |base: i64| -> Vec<(u64, Vec<(Idx, Value)>)> {
            (1..=5)
                .map(|p| (p, vec![(4, Value::Int(base + p as i64))]))
                .collect()
        };
        let tr = {
            let mut tr = Transition::default();
            st.finish_run(3, to_join(300), &mut tr);
            assert!(tr.tasks.is_empty(), "join is only partial");
            tr.reset();
            st.finish_run(2, to_join(200), &mut tr);
            st.check_invariants().unwrap();
            tr
        };
        assert_eq!(tr.tasks.len(), 1);
        let join = &tr.tasks[0];
        assert_eq!((join.idx, phases_of(join)), (4, vec![1, 2, 3, 4, 5]));
        let inputs = std::iter::once(&join.inputs).chain(join.rest.iter().map(|(_, i)| i));
        for (p, inputs) in (1..=5i64).zip(inputs) {
            assert_eq!(
                inputs,
                &vec![(2, Value::Int(200 + p)), (3, Value::Int(300 + p))]
            );
        }
    }

    #[test]
    fn slow_vertex_claims_one_phase() {
        let dag = generators::chain(2);
        // A vertex marked slow claims one phase per promotion; the flag
        // takes effect at its next claim.
        let mut st = state_for(&dag);
        st.mark_slow(1, true);
        let tr = open_batch(&mut st, 4);
        assert_eq!(phases_of(&tr.tasks[0]), vec![1]);
        let mut tr = Transition::default();
        st.finish_run(1, silent(&[1]), &mut tr);
        assert_eq!(phases_of(&tr.tasks[0]), vec![2]);
        st.mark_slow(1, false);
        tr.reset();
        st.finish_run(1, silent(&[2]), &mut tr);
        st.check_invariants().unwrap();
        assert_eq!(phases_of(&tr.tasks[0]), vec![3, 4]);
    }

    #[test]
    fn phase_admitted_mid_run_is_not_absorbed() {
        let dag = generators::chain(2);
        let mut st = state_for(&dag);
        let tr = open_batch(&mut st, 2);
        assert_eq!(phases_of(&tr.tasks[0]), vec![1, 2]);

        // Phase 3 arrives while the source's run [1, 2] is in flight:
        // it is full, but not ready and not part of the run.
        let (_, tr) = start(&mut st);
        assert!(tr.tasks.is_empty());
        assert_eq!(
            st.snapshot().membership(1, 3),
            Some(SetMembership::FullOnly)
        );

        // Publishing a prefix moves the ready pair to the run's next
        // phase and claims nothing new for the source.
        let mut tr = Transition::default();
        st.finish_run(1, silent(&[1]), &mut tr);
        st.check_invariants().unwrap();
        assert!(tr.tasks.is_empty());
        assert_eq!(st.ready_phase(1), Some(2));
        assert_eq!(st.snapshot().ready(), vec![(1, 2)]);

        // Once the run's last phase is published, phase 3 is the next
        // claim.
        st.finish_run(1, silent(&[2]), &mut tr);
        st.check_invariants().unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert_eq!((tr.tasks[0].idx, phases_of(&tr.tasks[0])), (1, vec![3]));
    }

    #[test]
    fn idx_set_operations() {
        let mut s = IdxSet::for_n(130);
        assert!(s.is_empty());
        s.insert(1);
        s.insert(64);
        s.insert(130);
        assert!(s.contains(64) && !s.contains(63));
        let mut t = IdxSet::for_n(130);
        t.insert(63);
        assert_eq!(s.min_union(&t), Some(1));
        assert_eq!(t.min_union(&IdxSet::for_n(130)), Some(63));
        let mut out = Vec::new();
        s.take_up_to(64, &mut out);
        assert_eq!(out, vec![1, 64]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![130]);
        assert!(s.remove(130));
        assert!(!s.remove(130));
        assert!(s.is_empty());
    }

    #[test]
    fn vf_insert_remove_keep_order() {
        let mut dq = VecDeque::new();
        vf_insert(&mut dq, 5);
        vf_insert(&mut dq, 2);
        vf_insert(&mut dq, 9);
        vf_insert(&mut dq, 5); // duplicate ignored
        assert_eq!(dq.iter().copied().collect::<Vec<_>>(), vec![2, 5, 9]);
        vf_remove(&mut dq, 2); // front fast path
        vf_remove(&mut dq, 9); // binary search path
        assert_eq!(dq.iter().copied().collect::<Vec<_>>(), vec![5]);
    }
}
