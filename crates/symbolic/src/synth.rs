//! The inductive synthesizer (paper §5–6).
//!
//! Maintains a SAT instance over the hole bits. Each observation — a
//! counterexample trace (concurrent mode) or a concrete input
//! (sequential `implements` mode) — contributes the constraint
//! `¬fail(Sk_t[c])`, encoded by symbolically evaluating the projected
//! trace. [`Synthesizer::next_candidate`] asks the solver for hole
//! values consistent with every observation so far; `None` means the
//! sketch cannot be resolved.

use crate::bv::Bv;
use crate::circuit::{Circuit, NodeRef};
use crate::eval::{Limits, SymEval, TracePrefix};
use crate::project::{project, sequential_order, trace_end_position};
use psketch_exec::CexTrace;
use psketch_ir::{Assignment, HoleId, Lowered};
use psketch_lang::ast::{BinOp, Expr, UnOp};
use psketch_sat::{SolveResult, Solver, SolverStats, Var};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of asking for a batch of candidates
/// ([`Synthesizer::next_candidates`]).
#[derive(Clone, Debug)]
pub enum CandidateBatch {
    /// Candidates consistent with every observation so far (possibly
    /// fewer than requested when the space is nearly exhausted or a
    /// limit tripped mid-batch).
    Found(Vec<Assignment>),
    /// The candidate space is exhausted: the sketch cannot be resolved
    /// under the current observations (and therefore at all, since
    /// observations only shrink the space).
    Exhausted,
    /// A solver limit installed via [`Synthesizer::set_limits`]
    /// tripped before the first candidate was found. Says nothing
    /// about resolvability.
    Interrupted,
}

/// Work counters for one synthesis session.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthStats {
    /// Observations (traces/inputs) added.
    pub observations: usize,
    /// Circuit nodes built so far.
    pub nodes: usize,
    /// Time spent building boolean encodings (the paper's `Smodel`).
    pub encode_time: Duration,
    /// Time spent in the SAT solver (the paper's `Ssolve`).
    pub solve_time: Duration,
    /// Trace steps skipped by resuming inside the prefix a trace's
    /// merged order shares with the previous trace's.
    pub resumed_steps: usize,
    /// Trace steps symbolically executed.
    pub evaluated_steps: usize,
}

/// A sketch's hole bits in a circuit and the solver variables bound to
/// them, with the domain bounds and static constraints asserted: what
/// [`Synthesizer::new`] encodes before any observation.
pub struct HoleEncoding {
    /// One W-wide bitvector per hole (constant-false high bits).
    bits: Vec<Bv>,
    /// The solver variables of each hole's free bits, low bit first.
    vars: Vec<Vec<Var>>,
}

/// The inductive synthesizer.
pub struct Synthesizer<'l> {
    l: &'l Lowered,
    circuit: Circuit,
    solver: Solver,
    holes: HoleEncoding,
    /// What the last trace's evaluation left for the next.
    prefix: TracePrefix,
    limits: Limits,
    /// Statistics.
    pub stats: SynthStats,
}

impl HoleEncoding {
    /// Allocates the hole bits of `l` in `circuit` and `solver`, and
    /// asserts their domain bounds and the sketch's static validity
    /// constraints (e.g. reorder permutation-ness).
    pub fn new(l: &Lowered, circuit: &mut Circuit, solver: &mut Solver) -> HoleEncoding {
        let w = l.config.int_width as usize;
        let nholes = l.holes.num_holes();
        let mut hole_bvs = Vec::with_capacity(nholes);
        let mut hole_vars = Vec::with_capacity(nholes);
        for h in 0..nholes {
            let domain = l.holes.domain(h as HoleId);
            let nbits = (64 - (domain - 1).leading_zeros()).max(1) as usize;
            let nbits = nbits.min(w);
            let mut bits = Vec::with_capacity(w);
            let mut vars = Vec::with_capacity(nbits);
            for _ in 0..nbits {
                let b = circuit.input();
                vars.push(solver.new_var());
                bits.push(b);
            }
            // Bind circuit inputs to pre-created solver vars by
            // encoding them now, in order.
            while bits.len() < w {
                bits.push(circuit.constant(false));
            }
            let bv = Bv(bits);
            // Domain bound when not a power of two.
            if domain != (1u64 << nbits.min(63)) {
                let dom = Bv::constant(circuit, domain as i64, w);
                let inb = Bv::ult(circuit, &bv, &dom);
                circuit.assert_true(inb, solver);
            }
            hole_bvs.push(bv);
            hole_vars.push(vars);
        }
        let holes = HoleEncoding {
            bits: hole_bvs,
            vars: hole_vars,
        };
        // Force-encode the hole bits so decoding can read them, and
        // tie each input node to its reserved variable.
        holes.bind(circuit, solver);
        // Static constraints from desugaring.
        for cexpr in l.holes.constraints() {
            let v = holes.eval_constraint(l, circuit, cexpr);
            let node = v.nonzero(circuit);
            circuit.assert_true(node, solver);
        }
        holes
    }

    fn bind(&self, circuit: &mut Circuit, solver: &mut Solver) {
        // The circuit allocates Tseitin vars lazily; we reserved
        // solver vars for the hole bits up front so the mapping is
        // stable. Encode each input node and link it to the reserved
        // var by equivalence clauses.
        for (h, bv) in self.bits.iter().enumerate() {
            for (k, &bit) in bv.0.iter().enumerate() {
                if bit.as_const().is_some() {
                    continue;
                }
                let lit = circuit.lit(bit, solver);
                let reserved = self.vars[h][k];
                let rl = psketch_sat::Lit::pos(reserved);
                solver.add_clause([!lit, rl]);
                solver.add_clause([lit, !rl]);
            }
        }
    }

    /// The hole values as circuit bitvectors, one per hole.
    pub fn bits(&self) -> &[Bv] {
        &self.bits
    }

    /// Reads the hole assignment off `solver`'s current model.
    pub fn decode(&self, solver: &Solver) -> Assignment {
        let mut values = Vec::with_capacity(self.vars.len());
        for vars in &self.vars {
            let mut v = 0u64;
            for (k, &var) in vars.iter().enumerate() {
                if solver.value(var) == Some(true) {
                    v |= 1 << k;
                }
            }
            values.push(v);
        }
        Assignment::from_values(values)
    }

    /// Evaluates a static constraint expression over hole bits.
    fn eval_constraint(&self, l: &Lowered, c: &mut Circuit, e: &Expr) -> Bv {
        let w = l.config.int_width as usize;
        match e {
            Expr::HoleRef(h, _, _) => self.bits[*h as usize].clone(),
            Expr::Int(v, _) => Bv::constant(c, *v, w),
            Expr::Bool(b, _) => Bv::constant(c, i64::from(*b), w),
            Expr::Unary(UnOp::Not, a, _) => {
                let av = self.eval_constraint(l, c, a);
                let nz = av.nonzero(c);
                Bv::from_bool(c, nz.not(), w)
            }
            Expr::Unary(UnOp::Neg, a, _) => {
                let av = self.eval_constraint(l, c, a);
                Bv::neg(c, &av)
            }
            Expr::Binary(op, a, b, _) => {
                let x = self.eval_constraint(l, c, a);
                let y = self.eval_constraint(l, c, b);
                let as_bool = |c: &mut Circuit, n: NodeRef| Bv::from_bool(c, n, w);
                match op {
                    BinOp::Add => Bv::add(c, &x, &y),
                    BinOp::Sub => Bv::sub(c, &x, &y),
                    BinOp::Mul => Bv::mul(c, &x, &y),
                    BinOp::Eq => {
                        let n = Bv::eq(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Ne => {
                        let n = Bv::eq(c, &x, &y).not();
                        as_bool(c, n)
                    }
                    BinOp::Lt => {
                        let n = Bv::slt(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Le => {
                        let n = Bv::sle(c, &x, &y);
                        as_bool(c, n)
                    }
                    BinOp::Gt => {
                        let n = Bv::slt(c, &y, &x);
                        as_bool(c, n)
                    }
                    BinOp::Ge => {
                        let n = Bv::sle(c, &y, &x);
                        as_bool(c, n)
                    }
                    BinOp::And => {
                        let nx = x.nonzero(c);
                        let ny = y.nonzero(c);
                        let n = c.and(nx, ny);
                        as_bool(c, n)
                    }
                    BinOp::Or => {
                        let nx = x.nonzero(c);
                        let ny = y.nonzero(c);
                        let n = c.or(nx, ny);
                        as_bool(c, n)
                    }
                    BinOp::Div | BinOp::Mod => {
                        panic!("division in hole constraints is not supported")
                    }
                }
            }
            other => panic!("unsupported constraint expression: {other:?}"),
        }
    }
}

impl<'l> Synthesizer<'l> {
    /// Creates a synthesizer for a lowered sketch: allocates hole bits,
    /// asserts domain bounds and the sketch's static validity
    /// constraints (e.g. reorder permutation-ness).
    pub fn new(l: &'l Lowered) -> Synthesizer<'l> {
        let t0 = Instant::now();
        let mut circuit = Circuit::new();
        let mut solver = Solver::new();
        let holes = HoleEncoding::new(l, &mut circuit, &mut solver);
        let mut stats = SynthStats {
            nodes: circuit.len(),
            ..SynthStats::default()
        };
        stats.encode_time += t0.elapsed();
        Synthesizer {
            l,
            circuit,
            solver,
            holes,
            prefix: TracePrefix::default(),
            limits: Limits::default(),
            stats,
        }
    }

    /// The lowered program under synthesis.
    pub fn lowered(&self) -> &Lowered {
        self.l
    }

    /// Installs cooperative limits on the trace encoder and the SAT
    /// solver: past `deadline` or with `cancel` raised,
    /// [`Synthesizer::add_trace`] stops at its next poll and returns
    /// `false`, and [`Synthesizer::next_candidates`] reports
    /// [`CandidateBatch::Interrupted`].
    pub fn set_limits(&mut self, deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) {
        self.solver.set_limits(deadline, cancel.clone());
        self.limits = Limits { deadline, cancel };
    }

    /// Work counters of the underlying SAT solver (cumulative for this
    /// synthesis session).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Adds a counterexample-trace observation (concurrent CEGIS).
    ///
    /// The evaluation resumes inside the prefix the trace's merged
    /// order shares with the previous trace's, and builds the same
    /// circuit a fresh evaluation builds. Returns `false` when a limit
    /// installed by [`Synthesizer::set_limits`] stopped it: then
    /// nothing is asserted and the next trace resumes from the
    /// previous one, as if this call had not been made.
    pub fn add_trace(&mut self, cex: &CexTrace) -> bool {
        let t0 = Instant::now();
        let order = project(self.l, cex);
        let deadlock_at = trace_end_position(&order, cex);
        let inputs = HashMap::new();
        let ev = SymEval::new(&mut self.circuit, self.l, &self.holes.bits, &inputs);
        let done = ev.resume(
            &mut self.circuit,
            &order,
            &cex.deadlock,
            deadlock_at,
            &mut self.prefix,
            &self.limits,
        );
        if let Some((fail, steps)) = done {
            self.circuit.assert_true(fail.not(), &mut self.solver);
            self.stats.observations += 1;
            self.stats.resumed_steps += steps.resumed;
            self.stats.evaluated_steps += steps.evaluated;
        }
        self.stats.nodes = self.circuit.len();
        self.stats.encode_time += t0.elapsed();
        done.is_some()
    }

    /// Adds a concrete-input observation (sequential CEGIS, §5):
    /// `values[i]` initializes the `i`-th `is_input` global slot.
    pub fn add_input(&mut self, values: &[i64]) {
        let t0 = Instant::now();
        let w = self.l.config.int_width as usize;
        let mut inputs = HashMap::new();
        let mut vi = 0;
        for (ix, g) in self.l.globals.iter().enumerate() {
            if g.is_input {
                let v = values.get(vi).copied().unwrap_or(0);
                inputs.insert(ix, Bv::constant(&mut self.circuit, v, w));
                vi += 1;
            }
        }
        let order = sequential_order(self.l);
        let ev = SymEval::new(&mut self.circuit, self.l, &self.holes.bits, &inputs);
        let fail = ev.run(&mut self.circuit, &order, &[], order.len());
        self.circuit.assert_true(fail.not(), &mut self.solver);
        self.stats.observations += 1;
        self.stats.nodes = self.circuit.len();
        self.stats.encode_time += t0.elapsed();
    }

    /// Asks for hole values consistent with all observations. `None`
    /// means the sketch cannot be resolved (for these observations —
    /// and since observations only ever shrink the space, for the
    /// whole problem) — or, when limits are installed via
    /// [`Synthesizer::set_limits`], that a limit tripped; use
    /// [`Synthesizer::next_candidates`] to tell the two apart.
    pub fn next_candidate(&mut self) -> Option<Assignment> {
        let t0 = Instant::now();
        let r = self.solver.solve();
        self.stats.solve_time += t0.elapsed();
        if r != SolveResult::Sat {
            return None;
        }
        Some(self.decode_model())
    }

    /// Asks for up to `k` pairwise-distinct candidates consistent with
    /// all observations so far (portfolio CEGIS). Fewer than `k` are
    /// returned when the space has fewer remaining candidates.
    ///
    /// Diversification uses assumption-guarded blocking clauses: each
    /// found assignment is excluded by a clause `¬sel ∨ ¬bit…` and the
    /// selector `sel` is only assumed within this call, so — unlike
    /// [`Synthesizer::block`] — the candidate space is not permanently
    /// shrunk.
    pub fn next_candidates(&mut self, k: usize) -> CandidateBatch {
        let t0 = Instant::now();
        let r = self.solver.solve();
        self.stats.solve_time += t0.elapsed();
        let mut out = match r {
            SolveResult::Unsat => return CandidateBatch::Exhausted,
            SolveResult::Interrupted => return CandidateBatch::Interrupted,
            SolveResult::Sat => vec![self.decode_model()],
        };
        if k <= 1 {
            return CandidateBatch::Found(out);
        }
        let sel = psketch_sat::Lit::pos(self.solver.new_var());
        while out.len() < k {
            // Exclude everything found in this round, under `sel`.
            let mut clause = vec![!sel];
            for (h, vars) in self.holes.vars.iter().enumerate() {
                let v = out.last().unwrap().value(h as HoleId);
                for (kx, &var) in vars.iter().enumerate() {
                    let bit = (v >> kx) & 1 == 1;
                    clause.push(psketch_sat::Lit::new(var, !bit));
                }
            }
            self.solver.add_clause(clause);
            let t0 = Instant::now();
            let r = self.solver.solve_with(&[sel]);
            self.stats.solve_time += t0.elapsed();
            if r != SolveResult::Sat {
                // Unsat: space exhausted below k — the partial batch
                // still carries candidates. Interrupted: return the
                // partial batch too; the caller's budget check runs
                // before the next one.
                break;
            }
            out.push(self.decode_model());
        }
        CandidateBatch::Found(out)
    }

    /// Reads the hole assignment off the solver's current model.
    fn decode_model(&self) -> Assignment {
        let a = self.holes.decode(&self.solver);
        debug_assert!(a.validate(&self.l.holes));
        a
    }

    /// Excludes a specific assignment from future candidates (used to
    /// enumerate multiple correct solutions).
    pub fn block(&mut self, a: &Assignment) {
        let mut clause = Vec::new();
        for (h, vars) in self.holes.vars.iter().enumerate() {
            let v = a.value(h as HoleId);
            for (k, &var) in vars.iter().enumerate() {
                let bit = (v >> k) & 1 == 1;
                clause.push(psketch_sat::Lit::new(var, !bit));
            }
        }
        self.solver.add_clause(clause);
    }
}

/// Soundness probe: does the projection of `cex` reproduce its failure
/// under the candidate that generated it? CEGIS progress relies on
/// this — a trace that does not refute its own candidate would make
/// the loop propose that candidate forever. Used by tests and
/// debugging tools.
pub fn trace_reproduces(l: &Lowered, cex: &CexTrace, candidate: &Assignment) -> bool {
    let w = l.config.int_width as usize;
    let mut circuit = Circuit::new();
    let holes: Vec<Bv> = (0..l.holes.num_holes())
        .map(|h| Bv::constant(&mut circuit, candidate.value(h as HoleId) as i64, w))
        .collect();
    let order = crate::project::project(l, cex);
    let deadlock_at = trace_end_position(&order, cex);
    let inputs = HashMap::new();
    let ev = SymEval::new(&mut circuit, l, &holes, &inputs);
    let fail = ev.run(&mut circuit, &order, &cex.deadlock, deadlock_at);
    match fail.as_const() {
        Some(b) => b,
        None => circuit.eval(fail, &HashMap::new()),
    }
}

/// Result of an interruptible sequential verification
/// ([`verify_sequential_limits`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqVerify {
    /// The candidate matches its specification on every bounded input.
    Equivalent,
    /// An input on which candidate and specification disagree.
    Counterexample(Vec<i64>),
    /// A limit tripped before the SAT query finished.
    Interrupted,
}

/// Sequential verification by SAT (paper §5): given a candidate, finds
/// an input on which the sketched function disagrees with its
/// specification, or `None` when none exists (the candidate is
/// correct for the modelled bit width).
pub fn verify_sequential(l: &Lowered, candidate: &Assignment) -> Option<Vec<i64>> {
    match verify_sequential_limits(l, candidate, None, None) {
        SeqVerify::Counterexample(x) => Some(x),
        // Without limits installed the solver cannot be interrupted.
        SeqVerify::Equivalent | SeqVerify::Interrupted => None,
    }
}

/// As [`verify_sequential`], under a cooperative wall deadline and
/// cancellation flag threaded into the underlying CDCL solver.
pub fn verify_sequential_limits(
    l: &Lowered,
    candidate: &Assignment,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
) -> SeqVerify {
    let w = l.config.int_width as usize;
    let mut circuit = Circuit::new();
    let mut solver = Solver::new();
    solver.set_limits(deadline, cancel);
    let holes: Vec<Bv> = (0..l.holes.num_holes())
        .map(|h| Bv::constant(&mut circuit, candidate.value(h as HoleId) as i64, w))
        .collect();
    let mut inputs = HashMap::new();
    let mut input_slots = Vec::new();
    for (ix, g) in l.globals.iter().enumerate() {
        if g.is_input {
            inputs.insert(ix, Bv::input(&mut circuit, w));
            input_slots.push(ix);
        }
    }
    let order = sequential_order(l);
    let ev = SymEval::new(&mut circuit, l, &holes, &inputs);
    let fail = ev.run(&mut circuit, &order, &[], order.len());
    circuit.assert_true(fail, &mut solver);
    match solver.solve() {
        SolveResult::Unsat => return SeqVerify::Equivalent,
        SolveResult::Interrupted => return SeqVerify::Interrupted,
        SolveResult::Sat => {}
    }
    let mut out = Vec::with_capacity(input_slots.len());
    for ix in input_slots {
        let bv = &inputs[&ix];
        let mut v: i64 = 0;
        for (k, &bit) in bv.0.iter().enumerate() {
            let lit = circuit.lit(bit, &mut solver);
            if solver.lit_model_value(lit) == Some(true) {
                v |= 1 << k;
            }
        }
        if w < 64 && v & (1 << (w - 1)) != 0 {
            v -= 1 << w;
        }
        out.push(v);
    }
    SeqVerify::Counterexample(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_exec::check;
    use psketch_ir::{desugar::desugar_program, lower, Config};

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower::lower_program(&sk, holes, &cfg).unwrap()
    }

    /// Minimal CEGIS loop for tests (the real one lives in
    /// psketch-core).
    fn mini_cegis(l: &Lowered) -> Option<(Assignment, usize)> {
        let mut synth = Synthesizer::new(l);
        for iter in 0..64 {
            let cand = synth.next_candidate()?;
            let out = check(l, &cand);
            match out.counterexample() {
                None => return Some((cand, iter + 1)),
                Some(cex) => assert!(synth.add_trace(cex)),
            }
        }
        panic!("mini CEGIS did not converge in 64 iterations");
    }

    #[test]
    fn synthesizes_a_constant() {
        let l = lowered("int g; harness void main() { g = ??(4); assert g == 11; }");
        let (a, iters) = mini_cegis(&l).expect("resolvable");
        assert_eq!(a.value(0), 11);
        assert!(iters <= 3, "took {iters} iterations");
    }

    #[test]
    fn unresolvable_sketch_reports_none() {
        // g is 0 or 1; assert demands 5.
        let l = lowered("int g; harness void main() { g = ??(1); assert g == 5; }");
        assert!(mini_cegis(&l).is_none());
    }

    #[test]
    fn reorder_constraint_makes_candidates_permutations() {
        let l = lowered(
            "int g;
             harness void main() {
                 reorder { g = g + 1; g = g * 2; g = g + 3; }
                 assert g >= 0;
             }",
        );
        let mut synth = Synthesizer::new(&l);
        let a = synth.next_candidate().expect("sat");
        let perm: Vec<u64> = (0..3).map(|h| a.value(h)).collect();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "not a permutation: {perm:?}");
    }

    #[test]
    fn synthesizes_an_ordering() {
        // Only g=g+1 before g=g*2 (from 0): (0+1)*2 = 2.
        let l = lowered(
            "int g;
             harness void main() {
                 reorder { g = g + 1; g = g * 2; }
                 assert g == 2;
             }",
        );
        let (a, _) = mini_cegis(&l).expect("resolvable");
        // Quadratic encoding: hole i gives the statement at position i.
        assert_eq!((a.value(0), a.value(1)), (0, 1));
    }

    #[test]
    fn concurrent_synthesis_chooses_atomicity() {
        // The generator picks between a racy add and an atomic
        // increment; only the atomic one survives all interleavings.
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }",
        );
        let (a, iters) = mini_cegis(&l).expect("resolvable");
        assert_eq!(a.value(0), 1, "must pick the atomic increment");
        assert!(iters <= 8);
    }

    /// Each thread chooses its lock order; the same order avoids
    /// deadlock.
    const LOCK_ORDER: &str = "struct Lock { int owner = -1; }
         Lock a; Lock b; int g;
         void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
         void unlock(Lock l) { l.owner = -1; }
         harness void main() {
             a = new Lock(); b = new Lock();
             fork (i; 2) {
                 if (??(1) == 0) {
                     if (i == 0) { lock(a); lock(b); }
                     else { lock(b); lock(a); }
                 } else { lock(a); lock(b); }
                 g = g + 1;
                 unlock(b); unlock(a);
             }
             assert g == 2;
         }";

    #[test]
    fn deadlock_observations_prune() {
        let l = lowered(LOCK_ORDER);
        let (_a, iters) = mini_cegis(&l).expect("resolvable");
        assert!(iters <= 6);
    }

    #[test]
    fn interrupted_trace_asserts_nothing_and_resumes_cleanly() {
        use std::sync::atomic::Ordering;
        // A prologue long enough that every trace's merged order shares
        // a snapshot with the previous one.
        let l = lowered(&format!(
            "int g;
             harness void main() {{
                 {} g = 0;
                 fork (i; 3) {{
                     if (??(1) == 0) {{ int t = g; g = t + 1; }}
                     else {{ int old = AtomicReadAndIncr(g); }}
                 }}
                 assert g == ??(2) + 1;
             }}",
            "g = g + 1; ".repeat(40)
        ));
        let mut traces = Vec::new();
        let mut cegis = Synthesizer::new(&l);
        while let Some(cand) = cegis.next_candidate() {
            let Some(cex) = check(&l, &cand).counterexample().cloned() else {
                break;
            };
            assert!(cegis.add_trace(&cex));
            traces.push(cex);
        }
        assert!(traces.len() >= 2, "{} traces", traces.len());

        let counts = |s: &Synthesizer| {
            (
                s.stats.nodes,
                s.solver_stats().clauses,
                s.stats.observations,
            )
        };
        let mut plain = Synthesizer::new(&l);
        let mut limited = Synthesizer::new(&l);
        let flag = Arc::new(AtomicBool::new(false));
        limited.set_limits(None, Some(flag.clone()));
        for cex in &traces {
            flag.store(true, Ordering::Relaxed);
            let before = counts(&limited);
            assert!(!limited.add_trace(cex), "a raised flag interrupts");
            assert_eq!(
                counts(&limited),
                before,
                "an interrupted trace adds nothing"
            );
            flag.store(false, Ordering::Relaxed);
            assert!(limited.add_trace(cex));
            assert!(plain.add_trace(cex));
            assert_eq!(counts(&limited), counts(&plain));
        }
        assert_eq!(limited.next_candidate(), plain.next_candidate());
        assert!(limited.stats.resumed_steps > 0, "no trace resumed");

        let past = Instant::now() - Duration::from_millis(1);
        limited.set_limits(Some(past), None);
        let before = counts(&limited);
        assert!(
            !limited.add_trace(&traces[0]),
            "a passed deadline interrupts"
        );
        assert_eq!(counts(&limited), before);
    }

    #[test]
    fn sequential_cegis_on_implements() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int spec(int x) { return x + x + x; }
             int impl(int x) implements spec { return x * ??(3); }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower::lower_equivalence(&sk, holes, "impl", &cfg).unwrap();
        let mut synth = Synthesizer::new(&l);
        let mut iters = 0;
        let solution = loop {
            iters += 1;
            assert!(iters < 20);
            let cand = synth.next_candidate().expect("resolvable");
            match verify_sequential(&l, &cand) {
                None => break cand,
                Some(cex_input) => synth.add_input(&cex_input),
            }
        };
        assert_eq!(solution.value(0), 3);
        assert!(iters <= 5, "took {iters}");
    }

    #[test]
    fn sequential_unresolvable() {
        let cfg = Config::default();
        let p = psketch_lang::check_program(
            "int spec(int x) { return x + 1; }
             int impl(int x) implements spec { return x * ??(2); }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower::lower_equivalence(&sk, holes, "impl", &cfg).unwrap();
        let mut synth = Synthesizer::new(&l);
        let mut resolved = false;
        for _ in 0..10 {
            match synth.next_candidate() {
                None => {
                    resolved = false;
                    break;
                }
                Some(cand) => match verify_sequential(&l, &cand) {
                    None => {
                        resolved = true;
                        break;
                    }
                    Some(cex) => synth.add_input(&cex),
                },
            }
        }
        assert!(!resolved, "x*c can never equal x+1 for all x");
    }

    #[test]
    fn blocking_enumerates_solutions() {
        let l = lowered("int g; harness void main() { g = ??(2); assert g < 2; }");
        let mut synth = Synthesizer::new(&l);
        let mut seen = Vec::new();
        while let Some(cand) = synth.next_candidate() {
            let out = check(&l, &cand);
            match out.counterexample() {
                None => {
                    seen.push(cand.value(0));
                    synth.block(&cand);
                }
                Some(cex) => assert!(synth.add_trace(cex)),
            }
            if seen.len() > 4 {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn portfolio_candidates_distinct_and_nonbinding() {
        let l = lowered("int g; harness void main() { g = ??(3); assert g < 8; }");
        let mut synth = Synthesizer::new(&l);
        let CandidateBatch::Found(batch) = synth.next_candidates(4) else {
            panic!("expected candidates");
        };
        assert_eq!(batch.len(), 4);
        let distinct: std::collections::HashSet<u64> = batch.iter().map(|a| a.value(0)).collect();
        assert_eq!(distinct.len(), 4, "portfolio candidates must differ");
        // The guarded blocking clauses must not shrink the space:
        // all 8 values remain enumerable afterwards.
        let mut seen = Vec::new();
        while let Some(c) = synth.next_candidate() {
            seen.push(c.value(0));
            synth.block(&c);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn portfolio_exhausts_small_spaces() {
        // Only 2 candidates exist; asking for 5 returns both.
        let l = lowered("int g; harness void main() { g = ??(1); assert g >= 0; }");
        let mut synth = Synthesizer::new(&l);
        let CandidateBatch::Found(batch) = synth.next_candidates(5) else {
            panic!("expected candidates");
        };
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn stats_accumulate() {
        let l = lowered("int g; harness void main() { g = ??(2); assert g == 1; }");
        let mut synth = Synthesizer::new(&l);
        let c0 = synth.next_candidate().unwrap();
        if let Some(cex) = check(&l, &c0).counterexample() {
            synth.add_trace(cex);
            assert_eq!(synth.stats.observations, 1);
        }
        assert!(synth.stats.nodes > 1);
    }
}
