//! Symbolic evaluation of a projected trace over the candidate space.
//!
//! Given a merged step order (see [`crate::project()`]), this evaluator
//! executes the whole sequence with holes symbolic, producing a single
//! `fail` node: `fail(Sk_t[c])` as a boolean function of the hole bits
//! (paper §6). Conditional atomics follow the paper's expansion —
//! blocked-in-deadlock-set ⇒ fail; blocked elsewhere ⇒ the execution
//! "returns OK" (a `running` flag clears, vacuously satisfying the
//! rest of the trace).
//!
//! Memory-safety failures are *demand-conditioned*: a null dereference
//! inside an undemanded `&&`/`||`/mux arm does not fire, mirroring the
//! concrete evaluator's laziness.
//!
//! Consecutive traces of one sketch share long prefixes of their
//! merged orders. [`TracePrefix`] keeps what one trace's evaluation
//! leaves for the next, so the next resumes at the end of the shared
//! prefix instead of re-running steps whose nodes the structural hash
//! already holds (DESIGN.md §4k).

use crate::bv::Bv;
use crate::circuit::{Circuit, NodeRef};
use psketch_ir::{Lowered, Lv, Op, Rv, ThreadId};
use psketch_lang::ast::{BinOp, UnOp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Steps between two state snapshots of a [`TracePrefix`] over an
/// order of `len` steps (about 32 snapshots), and between two polls of
/// the evaluation's [`Limits`].
fn interval(len: usize) -> usize {
    (len / 32).max(16)
}

/// Cooperative limits of an evaluation, polled at every snapshot
/// position ([`interval`]): a wall deadline and a cancellation flag.
#[derive(Clone, Default)]
pub(crate) struct Limits {
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<Arc<AtomicBool>>,
}

impl Limits {
    fn tripped(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Steps of one evaluation, by how they were covered.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Steps {
    /// Steps skipped by restoring a snapshot of the previous trace.
    pub(crate) resumed: usize,
    /// Steps symbolically executed.
    pub(crate) evaluated: usize,
}

/// What one trace's evaluation leaves for the next over the same holes.
///
/// Before the end of the prefix two merged orders share, the state
/// does not depend on the trace, except for `fail`, which the deadlock
/// re-check of either trace may have extended. So the state is kept
/// without `fail` every [`interval`] steps, and `fail` is rebuilt by
/// OR-ing again, in order, the conditions every step passed to
/// `record_fail`. That repeats exactly the `or` calls a fresh
/// evaluation makes, and skips only calls the structural hash answers
/// without creating a node.
#[derive(Default)]
pub(crate) struct TracePrefix {
    /// A prefix of the order evaluated last: all of it, unless that
    /// evaluation was interrupted.
    order: Vec<(ThreadId, usize)>,
    /// Steps between two snapshots.
    interval: usize,
    /// The state before steps `interval`, `2·interval`, … of `order`,
    /// each as the bits of the flattened state (see [`SymEval::flatten`])
    /// that differ from the state one interval earlier.
    deltas: Vec<(usize, NodeRef)>,
    /// End of each snapshot's bits in `deltas`.
    delta_ends: Vec<usize>,
    /// The failure conditions of every step of `order`, back to back;
    /// step `p`'s end at `ends[p]`. The deadlock re-check's own
    /// conditions are not among them.
    conds: Vec<NodeRef>,
    ends: Vec<usize>,
    /// The flattened state at the last snapshot position an evaluation
    /// passed, and the current one (scratch).
    state: Vec<NodeRef>,
    scratch: Vec<NodeRef>,
}

impl TracePrefix {
    /// Cuts the records back to the prefix `order` shares with the
    /// last order, and returns its length.
    fn share(&mut self, order: &[(ThreadId, usize)]) -> usize {
        if self.interval != interval(order.len()) {
            *self = TracePrefix {
                interval: interval(order.len()),
                ..TracePrefix::default()
            };
        }
        let shared = self
            .order
            .iter()
            .zip(order)
            .take_while(|(a, b)| a == b)
            .count();
        self.order.truncate(shared);
        self.ends.truncate(shared);
        self.conds.truncate(self.ends.last().copied().unwrap_or(0));
        let snapshots = (shared / self.interval).min(self.delta_ends.len());
        self.delta_ends.truncate(snapshots);
        self.deltas
            .truncate(self.delta_ends.last().copied().unwrap_or(0));
        shared
    }

    /// The deepest snapshot position at or before `bound`.
    fn resume_point(&self, bound: usize) -> usize {
        (bound / self.interval).min(self.delta_ends.len()) * self.interval
    }

    /// Moves `state` from snapshot position `from` to `to`.
    fn advance(&mut self, from: usize, to: usize) {
        let start = match from / self.interval {
            0 => 0,
            k => self.delta_ends[k - 1],
        };
        let end = self.delta_ends[to / self.interval - 1];
        for &(ix, bit) in &self.deltas[start..end] {
            self.state[ix] = bit;
        }
    }

    /// Takes `scratch` as the state at snapshot position `pos`, keeping
    /// it as a snapshot unless one is kept there already.
    fn pass_snapshot(&mut self, pos: usize) {
        if pos / self.interval > self.delta_ends.len() {
            let changed = self.scratch.iter().zip(&self.state).enumerate();
            self.deltas.extend(
                changed
                    .filter(|(_, (now, before))| now != before)
                    .map(|(ix, (&now, _))| (ix, now)),
            );
            self.delta_ends.push(self.deltas.len());
        }
        std::mem::swap(&mut self.state, &mut self.scratch);
    }

    /// The failure conditions of steps `from..to` of `order`.
    fn conds(&self, from: usize, to: usize) -> &[NodeRef] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.conds[start..self.ends[to - 1]]
    }

    fn end_step(&mut self, step: (ThreadId, usize), conds: &[NodeRef]) {
        self.order.push(step);
        self.conds.extend_from_slice(conds);
        self.ends.push(self.conds.len());
    }
}

/// Symbolic execution of one projected trace.
pub struct SymEval<'a> {
    l: &'a Lowered,
    w: usize,
    /// Hole values, one W-wide bitvector per hole.
    holes: &'a [Bv],
    globals: Vec<Bv>,
    heap: Vec<Vec<Bv>>,
    allocs: Vec<Bv>,
    locals: Vec<Vec<Bv>>,
    running: NodeRef,
    fail: NodeRef,
    /// The conditions passed to `record_fail` during the current step.
    step_conds: Vec<NodeRef>,
}

impl<'a> SymEval<'a> {
    /// Creates an evaluator with the given hole encodings.
    ///
    /// `inputs` overrides the initial value of `is_input` global slots
    /// (missing entries default to their declared constant initializer)
    /// — used by sequential equivalence checking where inputs are
    /// either concrete observations or fresh symbolic bits.
    pub fn new(
        c: &mut Circuit,
        l: &'a Lowered,
        holes: &'a [Bv],
        inputs: &HashMap<usize, Bv>,
    ) -> SymEval<'a> {
        let w = l.config.int_width as usize;
        let globals = l
            .globals
            .iter()
            .enumerate()
            .map(|(ix, g)| match inputs.get(&ix) {
                Some(bv) => bv.clone(),
                None => Bv::constant(c, g.init, w),
            })
            .collect();
        let heap = l
            .structs
            .iter()
            .map(|s| {
                let zero = Bv::constant(c, 0, w);
                vec![zero; s.fields.len() * s.capacity]
            })
            .collect();
        let allocs = l.structs.iter().map(|_| Bv::constant(c, 0, w)).collect();
        let locals = (0..l.num_threads())
            .map(|t| {
                let zero = Bv::constant(c, 0, w);
                vec![zero; l.thread(t).locals.len()]
            })
            .collect();
        SymEval {
            l,
            w,
            holes,
            globals,
            heap,
            allocs,
            locals,
            running: NodeRef::TRUE,
            fail: NodeRef::FALSE,
            step_conds: Vec::new(),
        }
    }

    /// Executes the merged order, returning the `fail` node.
    ///
    /// `deadlock` is the trace's deadlock set `D` (one blocked position
    /// per worker, in the trace's order, so the circuit built for one
    /// trace is the same on every run); `deadlock_at` is the
    /// merged-order position of the end of the traced prefix, where the
    /// deadlock is re-checked: the projection fails a candidate for
    /// deadlock only when *every* step of `D` is blocked simultaneously
    /// in the replayed end state (a candidate that takes a different
    /// path through, or finds a condition true, is not refuted).
    pub fn run(
        mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &[(ThreadId, usize)],
        deadlock_at: usize,
    ) -> NodeRef {
        self.execute(c, order, deadlock, deadlock_at, None, &Limits::default());
        self.fail
    }

    /// As [`SymEval::run`], resuming inside the prefix `order` shares
    /// with the order `prefix` kept, and keeping this trace's records
    /// there for the next. Returns `None` when `limits` tripped: before
    /// the first step, `prefix` is left as it was; later, it keeps the
    /// records of the steps evaluated, whose nodes are all in `c`.
    pub(crate) fn resume(
        mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &[(ThreadId, usize)],
        deadlock_at: usize,
        prefix: &mut TracePrefix,
        limits: &Limits,
    ) -> Option<(NodeRef, Steps)> {
        let steps = self.execute(c, order, deadlock, deadlock_at, Some(prefix), limits)?;
        Some((self.fail, steps))
    }

    /// The evaluation loop of [`SymEval::run`] and [`SymEval::resume`].
    fn execute(
        &mut self,
        c: &mut Circuit,
        order: &[(ThreadId, usize)],
        deadlock: &[(ThreadId, usize)],
        deadlock_at: usize,
        mut prefix: Option<&mut TracePrefix>,
        limits: &Limits,
    ) -> Option<Steps> {
        if limits.tripped() {
            return None;
        }
        let mut shared = 0;
        if let Some(p) = prefix.as_deref_mut() {
            shared = p.share(order);
            self.flatten(&mut p.state);
        }
        let every = interval(order.len());
        // The position whose state `prefix.state` holds.
        let mut state_at = 0;
        let mut steps = Steps::default();
        let mut checked = false;
        let mut pos = 0;
        loop {
            if let Some(p) = prefix.as_deref_mut() {
                // The deadlock re-check reads the state at
                // `deadlock_at`, so the first jump stops there; the
                // check changes only `fail`, so the next may go on.
                let bound = if checked {
                    shared
                } else {
                    shared.min(deadlock_at)
                };
                let to = p.resume_point(bound);
                if to > pos {
                    p.advance(state_at, to);
                    self.unflatten(&p.state);
                    for &cond in p.conds(pos, to) {
                        self.fail = c.or(self.fail, cond);
                    }
                    steps.resumed += to - pos;
                    (pos, state_at) = (to, to);
                }
            }
            if pos == deadlock_at && !checked {
                self.check_deadlock(c, deadlock);
                // Its conditions belong to this trace alone.
                self.step_conds.clear();
                checked = true;
                continue;
            }
            if pos == order.len() {
                break;
            }
            if pos % every == 0 && pos > 0 {
                if limits.tripped() {
                    return None;
                }
                if let Some(p) = prefix.as_deref_mut() {
                    self.flatten(&mut p.scratch);
                    p.pass_snapshot(pos);
                    state_at = pos;
                }
            }
            let (tid, ix) = order[pos];
            self.step(c, tid, ix);
            steps.evaluated += 1;
            if let Some(p) = prefix.as_deref_mut().filter(|_| pos >= shared) {
                p.end_step((tid, ix), &self.step_conds);
            }
            self.step_conds.clear();
            pos += 1;
        }
        if !checked {
            self.check_deadlock(c, deadlock);
        }
        Some(steps)
    }

    /// The state cells, in flattening order.
    fn cells(&mut self) -> impl Iterator<Item = &mut Bv> {
        self.globals
            .iter_mut()
            .chain(self.heap.iter_mut().flatten())
            .chain(self.allocs.iter_mut())
            .chain(self.locals.iter_mut().flatten())
    }

    /// Writes the state into `out`: every cell's bits, then `running`
    /// (not `fail`).
    fn flatten(&mut self, out: &mut Vec<NodeRef>) {
        out.clear();
        let running = self.running;
        for cell in self.cells() {
            out.extend_from_slice(&cell.0);
        }
        out.push(running);
    }

    /// Sets the state from [`SymEval::flatten`]'s output.
    fn unflatten(&mut self, state: &[NodeRef]) {
        let mut at = 0;
        for cell in self.cells() {
            let n = cell.0.len();
            cell.0.copy_from_slice(&state[at..at + n]);
            at += n;
        }
        self.running = state[at];
    }

    /// `fail |= running ∧ ⋀_{(t,i) ∈ D} blocked(t, i)` evaluated in
    /// the current (trace-end) state.
    fn check_deadlock(&mut self, c: &mut Circuit, deadlock: &[(ThreadId, usize)]) {
        if deadlock.is_empty() {
            return;
        }
        let mut all_blocked = NodeRef::TRUE;
        for &(tid, ix) in deadlock {
            let step = &self.l.thread(tid).steps[ix];
            let g = self.eval_bool(c, tid, &step.guard, self.running);
            let blocked = match &step.op {
                Op::AtomicBegin(Some(cond)) => {
                    // The condition is only demanded when the step's
                    // guard holds — a candidate that never reaches
                    // this atomic must not pick up its memory
                    // failures.
                    let demand = c.and(self.running, g);
                    let v = self.eval_bool(c, tid, cond, demand);
                    c.and(g, v.not())
                }
                // A non-conditional step cannot block; the deadlock
                // cannot reproduce through it.
                _ => NodeRef::FALSE,
            };
            all_blocked = c.and(all_blocked, blocked);
        }
        let failing = c.and(self.running, all_blocked);
        self.record_fail(c, failing);
    }

    /// The final value of a global slot (after `run` semantics would
    /// be wrong — use only for inspection in tests before `run`
    /// consumes self).
    pub fn global(&self, ix: usize) -> &Bv {
        &self.globals[ix]
    }

    fn record_fail(&mut self, c: &mut Circuit, cond: NodeRef) {
        self.fail = c.or(self.fail, cond);
        if cond != NodeRef::FALSE {
            self.step_conds.push(cond);
        }
    }

    fn step(&mut self, c: &mut Circuit, tid: ThreadId, ix: usize) {
        let step = &self.l.thread(tid).steps[ix];
        let g = self.eval_bool(c, tid, &step.guard, self.running);
        let eff = c.and(self.running, g);
        match &step.op {
            Op::Assign(lv, rv) => {
                let v = self.eval_rv(c, tid, rv, eff);
                self.write(c, tid, lv, &v, eff);
            }
            Op::Swap { dst, loc, val } => {
                let v = self.eval_rv(c, tid, val, eff);
                let old = self.read_lv(c, tid, loc, eff);
                self.write(c, tid, loc, &v, eff);
                self.write(c, tid, dst, &old, eff);
            }
            Op::Cas { dst, loc, old, new } => {
                let ov = self.eval_rv(c, tid, old, eff);
                let nv = self.eval_rv(c, tid, new, eff);
                let cur = self.read_lv(c, tid, loc, eff);
                let ok = Bv::eq(c, &cur, &ov);
                let w_eff = c.and(eff, ok);
                self.write(c, tid, loc, &nv, w_eff);
                let okv = Bv::from_bool(c, ok, self.w);
                self.write(c, tid, dst, &okv, eff);
            }
            Op::FetchAdd { dst, loc, delta } => {
                let old = self.read_lv(c, tid, loc, eff);
                let d = Bv::constant(c, *delta, self.w);
                let updated = Bv::add(c, &old, &d);
                self.write(c, tid, loc, &updated, eff);
                self.write(c, tid, dst, &old, eff);
            }
            Op::Alloc { dst, sid, inits } => {
                let cnt = self.allocs[*sid].clone();
                let cap = Bv::constant(c, self.l.structs[*sid].capacity as i64, self.w);
                let full = Bv::eq(c, &cnt, &cap);
                let failing = c.and(eff, full);
                self.record_fail(c, failing);
                let one = Bv::constant(c, 1, self.w);
                let refv = Bv::add(c, &cnt, &one);
                // Initialize fields of the new object (defaults, then
                // positional overrides).
                let nf = self.l.structs[*sid].fields.len();
                let cap_n = self.l.structs[*sid].capacity;
                let defaults: Vec<Bv> = self.l.structs[*sid]
                    .fields
                    .iter()
                    .map(|(_, _, d)| Bv::constant(c, *d, self.w))
                    .collect();
                let mut values = defaults;
                for (fid, rv) in inits {
                    values[*fid] = self.eval_rv(c, tid, rv, eff);
                }
                for k in 0..cap_n {
                    let here = addresses(c, self.w, &cnt, k as i64);
                    let cond = c.and(eff, here);
                    if cond == NodeRef::FALSE {
                        continue;
                    }
                    let object = &mut self.heap[*sid][k * nf..(k + 1) * nf];
                    for (cell, v) in object.iter_mut().zip(&values) {
                        *cell = Bv::mux(c, cond, v, cell);
                    }
                }
                let not_full = full.not();
                let bump = c.and(eff, not_full);
                self.allocs[*sid] = Bv::mux(c, bump, &refv, &cnt);
                self.write(c, tid, dst, &refv, eff);
            }
            Op::Assert(cond) => {
                let v = self.eval_bool(c, tid, cond, eff);
                let bad = c.and(eff, v.not());
                self.record_fail(c, bad);
            }
            Op::AtomicBegin(Some(cond)) => {
                // §6's expansion: blocked here (outside the deadlock
                // re-check) means "some other thread can make
                // progress; return OK" — the rest of the trace is
                // vacuous.
                let v = self.eval_bool(c, tid, cond, eff);
                let blocked = c.and(eff, v.not());
                self.running = c.and(self.running, blocked.not());
            }
            Op::AtomicBegin(None) | Op::AtomicEnd => {}
        }
    }

    /// Evaluates an r-value to a boolean node (non-zero test).
    fn eval_bool(&mut self, c: &mut Circuit, tid: ThreadId, rv: &Rv, demand: NodeRef) -> NodeRef {
        let v = self.eval_rv(c, tid, rv, demand);
        v.nonzero(c)
    }

    fn eval_rv(&mut self, c: &mut Circuit, tid: ThreadId, rv: &Rv, demand: NodeRef) -> Bv {
        match rv {
            Rv::Const(v) => Bv::constant(c, *v, self.w),
            Rv::Global(g) => self.globals[*g].clone(),
            Rv::Local(x) => self.locals[tid][*x].clone(),
            Rv::Hole(h) => self.holes[*h as usize].clone(),
            Rv::GlobalDyn { base, len, ix } => {
                self.read_global_dyn(c, tid, *base, *len, ix, demand)
            }
            Rv::LocalDyn { base, len, ix } => self.read_local_dyn(c, tid, *base, *len, ix, demand),
            Rv::Field { sid, fid, obj } => self.read_field(c, tid, *sid, *fid, obj, demand),
            Rv::Unary(op, a) => match op {
                UnOp::Not => {
                    let v = self.eval_bool(c, tid, a, demand);
                    Bv::from_bool(c, v.not(), self.w)
                }
                UnOp::Neg => {
                    let v = self.eval_rv(c, tid, a, demand);
                    Bv::neg(c, &v)
                }
                UnOp::BitsToInt => self.eval_rv(c, tid, a, demand),
            },
            Rv::Binary(op, a, b) => self.eval_binary(c, tid, *op, a, b, demand),
            Rv::Ite(cond, t, e) => {
                let cv = self.eval_bool(c, tid, cond, demand);
                let dt = c.and(demand, cv);
                let tv = self.eval_rv(c, tid, t, dt);
                let de = c.and(demand, cv.not());
                let ev = self.eval_rv(c, tid, e, de);
                Bv::mux(c, cv, &tv, &ev)
            }
        }
    }

    fn eval_binary(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        op: BinOp,
        a: &Rv,
        b: &Rv,
        demand: NodeRef,
    ) -> Bv {
        match op {
            BinOp::And => {
                let av = self.eval_bool(c, tid, a, demand);
                let d2 = c.and(demand, av);
                let bv = self.eval_bool(c, tid, b, d2);
                let r = c.and(av, bv);
                Bv::from_bool(c, r, self.w)
            }
            BinOp::Or => {
                let av = self.eval_bool(c, tid, a, demand);
                let d2 = c.and(demand, av.not());
                let bv = self.eval_bool(c, tid, b, d2);
                let r = c.or(av, bv);
                Bv::from_bool(c, r, self.w)
            }
            _ => {
                let x = self.eval_rv(c, tid, a, demand);
                let y = self.eval_rv(c, tid, b, demand);
                match op {
                    BinOp::Add => Bv::add(c, &x, &y),
                    BinOp::Sub => Bv::sub(c, &x, &y),
                    BinOp::Mul => Bv::mul(c, &x, &y),
                    BinOp::Div => {
                        let d = y.as_const().expect("lowering: constant divisor");
                        Bv::div_const(c, &x, d)
                    }
                    BinOp::Mod => {
                        let d = y.as_const().expect("lowering: constant divisor");
                        Bv::rem_const(c, &x, d)
                    }
                    BinOp::Eq => {
                        let r = Bv::eq(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Ne => {
                        let r = Bv::eq(c, &x, &y).not();
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Lt => {
                        let r = Bv::slt(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Le => {
                        let r = Bv::sle(c, &x, &y);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Gt => {
                        let r = Bv::slt(c, &y, &x);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::Ge => {
                        let r = Bv::sle(c, &y, &x);
                        Bv::from_bool(c, r, self.w)
                    }
                    BinOp::And | BinOp::Or => unreachable!(),
                }
            }
        }
    }

    fn read_global_dyn(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        base: usize,
        len: usize,
        ix: &Rv,
        demand: NodeRef,
    ) -> Bv {
        let i = self.eval_rv(c, tid, ix, demand);
        self.bounds_fail(c, &i, len, demand);
        select(c, self.w, &i, 0, &self.globals[base..base + len])
    }

    fn read_local_dyn(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        base: usize,
        len: usize,
        ix: &Rv,
        demand: NodeRef,
    ) -> Bv {
        let i = self.eval_rv(c, tid, ix, demand);
        self.bounds_fail(c, &i, len, demand);
        select(c, self.w, &i, 0, &self.locals[tid][base..base + len])
    }

    fn read_field(
        &mut self,
        c: &mut Circuit,
        tid: ThreadId,
        sid: usize,
        fid: usize,
        obj: &Rv,
        demand: NodeRef,
    ) -> Bv {
        let o = self.eval_rv(c, tid, obj, demand);
        self.null_fail(c, &o, demand);
        let nf = self.l.structs[sid].fields.len();
        // Object `k` sits at reference `k + 1`; 0 is null.
        let cells = self.heap[sid].iter().skip(fid).step_by(nf);
        select(c, self.w, &o, 1, cells)
    }

    fn bounds_fail(&mut self, c: &mut Circuit, i: &Bv, len: usize, demand: NodeRef) {
        let lenv = Bv::constant(c, len as i64, self.w);
        // Unsigned compare covers negative indices (they become large).
        let inb = Bv::ult(c, i, &lenv);
        let bad = c.and(demand, inb.not());
        self.record_fail(c, bad);
    }

    fn null_fail(&mut self, c: &mut Circuit, obj: &Bv, demand: NodeRef) {
        let zero = Bv::constant(c, 0, self.w);
        let isnull = Bv::eq(c, obj, &zero);
        let bad = c.and(demand, isnull);
        self.record_fail(c, bad);
    }

    fn read_lv(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, demand: NodeRef) -> Bv {
        match lv {
            Lv::Global(g) => self.globals[*g].clone(),
            Lv::Local(x) => self.locals[tid][*x].clone(),
            Lv::GlobalDyn { base, len, ix } => {
                self.read_global_dyn(c, tid, *base, *len, ix, demand)
            }
            Lv::LocalDyn { base, len, ix } => self.read_local_dyn(c, tid, *base, *len, ix, demand),
            Lv::Field { sid, fid, obj } => self.read_field(c, tid, *sid, *fid, obj, demand),
        }
    }

    fn write(&mut self, c: &mut Circuit, tid: ThreadId, lv: &Lv, v: &Bv, cond: NodeRef) {
        match lv {
            Lv::Global(g) => {
                let old = self.globals[*g].clone();
                self.globals[*g] = Bv::mux(c, cond, v, &old);
            }
            Lv::Local(x) => {
                let old = self.locals[tid][*x].clone();
                self.locals[tid][*x] = Bv::mux(c, cond, v, &old);
            }
            Lv::GlobalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, cond);
                self.bounds_fail(c, &i, *len, cond);
                let cells = &mut self.globals[*base..base + len];
                store(c, self.w, &i, 0, cells.iter_mut(), v, cond);
            }
            Lv::LocalDyn { base, len, ix } => {
                let i = self.eval_rv(c, tid, ix, cond);
                self.bounds_fail(c, &i, *len, cond);
                let cells = &mut self.locals[tid][*base..base + len];
                store(c, self.w, &i, 0, cells.iter_mut(), v, cond);
            }
            Lv::Field { sid, fid, obj } => {
                let o = self.eval_rv(c, tid, obj, cond);
                self.null_fail(c, &o, cond);
                let nf = self.l.structs[*sid].fields.len();
                let cells = self.heap[*sid].iter_mut().skip(*fid).step_by(nf);
                store(c, self.w, &o, 1, cells, v, cond);
            }
        }
    }
}

/// The condition that index `i` addresses position `pos`. A constant
/// index is compared at the word level, so an access at a constant
/// index touches only the addressed cell.
fn addresses(c: &mut Circuit, w: usize, i: &Bv, pos: i64) -> NodeRef {
    let kk = Bv::constant(c, pos, w);
    Bv::eq(c, i, &kk)
}

/// Mux-selects the cell whose position (`first` for the first cell)
/// equals `i`; no match selects 0 (a bounds or null failure was
/// already recorded).
fn select<'b>(
    c: &mut Circuit,
    w: usize,
    i: &Bv,
    first: i64,
    cells: impl IntoIterator<Item = &'b Bv>,
) -> Bv {
    let mut acc = Bv::constant(c, 0, w);
    for (k, cell) in cells.into_iter().enumerate() {
        let here = addresses(c, w, i, first + k as i64);
        match here.as_const() {
            Some(true) => acc = cell.clone(),
            Some(false) => {}
            None => acc = Bv::mux(c, here, cell, &acc),
        }
    }
    acc
}

/// Writes `v` under `cond` into the cell whose position (`first` for
/// the first cell) equals `i`.
fn store<'b>(
    c: &mut Circuit,
    w: usize,
    i: &Bv,
    first: i64,
    cells: impl Iterator<Item = &'b mut Bv>,
    v: &Bv,
    cond: NodeRef,
) {
    for (k, cell) in cells.enumerate() {
        let here = addresses(c, w, i, first + k as i64);
        let wc = c.and(cond, here);
        if wc != NodeRef::FALSE {
            *cell = Bv::mux(c, wc, v, cell);
        }
    }
}
