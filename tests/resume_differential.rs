//! The synthesizer resumes each trace's symbolic evaluation inside the
//! prefix its merged order shares with the previous trace's. That may
//! skip work, never change it: after every trace of a real CEGIS run,
//! the synthesizer must hold as many circuit nodes and problem clauses
//! as a reference that evaluates every trace from the start in a
//! circuit and a solver of its own, and both must propose the same
//! next candidate.

use psketch_repro::core::{Options, Synthesis};
use psketch_repro::exec::{
    check_compiled, CexTrace, CompiledProgram, ScheduleBank, SearchLimits, Verdict,
};
use psketch_repro::ir::{Assignment, Lowered};
use psketch_repro::sat::{SolveResult, Solver};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::eval::SymEval;
use psketch_repro::symbolic::project::trace_end_position;
use psketch_repro::symbolic::{project, Circuit, HoleEncoding, Synthesizer};
use std::collections::HashMap;

/// The encoding of every trace from its first step: a fresh circuit
/// and solver, `SymEval::run` and `assert_true` per trace.
struct Reference<'l> {
    l: &'l Lowered,
    circuit: Circuit,
    solver: Solver,
    holes: HoleEncoding,
}

impl<'l> Reference<'l> {
    fn new(l: &'l Lowered) -> Reference<'l> {
        let mut circuit = Circuit::new();
        let mut solver = Solver::new();
        let holes = HoleEncoding::new(l, &mut circuit, &mut solver);
        Reference {
            l,
            circuit,
            solver,
            holes,
        }
    }

    fn add_trace(&mut self, cex: &CexTrace) {
        let order = project(self.l, cex);
        let deadlock_at = trace_end_position(&order, cex);
        let ev = SymEval::new(
            &mut self.circuit,
            self.l,
            self.holes.bits(),
            &HashMap::new(),
        );
        let fail = ev.run(&mut self.circuit, &order, &cex.deadlock, deadlock_at);
        self.circuit.assert_true(fail.not(), &mut self.solver);
    }

    fn next_candidate(&mut self) -> Option<Assignment> {
        (self.solver.solve() == SolveResult::Sat).then(|| self.holes.decode(&self.solver))
    }
}

/// The synthesizer under test and the reference, fed the same traces.
struct Pair<'l> {
    what: String,
    synth: Synthesizer<'l>,
    reference: Reference<'l>,
    traces: usize,
}

impl<'l> Pair<'l> {
    fn new(l: &'l Lowered, what: String) -> Pair<'l> {
        Pair {
            what,
            synth: Synthesizer::new(l),
            reference: Reference::new(l),
            traces: 0,
        }
    }

    fn next_candidate(&mut self) -> Option<Assignment> {
        let candidate = self.synth.next_candidate();
        assert_eq!(
            candidate,
            self.reference.next_candidate(),
            "{}: candidates differ after {} traces",
            self.what,
            self.traces
        );
        candidate
    }

    fn add_trace(&mut self, cex: &CexTrace) {
        assert!(self.synth.add_trace(cex), "no limits are installed");
        self.reference.add_trace(cex);
        self.traces += 1;
        let got = (self.synth.stats.nodes, self.synth.solver_stats().clauses);
        let want = (
            self.reference.circuit.len(),
            self.reference.solver.stats().clauses,
        );
        assert_eq!(
            got, want,
            "{}: (nodes, clauses) differ after trace {}",
            self.what, self.traces
        );
    }

    /// Steps resumed, after checking that every step of every trace was
    /// resumed or evaluated exactly once.
    fn resumed_steps(&self, l: &Lowered) -> usize {
        let st = &self.synth.stats;
        assert_eq!(
            st.resumed_steps + st.evaluated_steps,
            self.traces * l.total_steps(),
            "{}: steps resumed and evaluated do not add up",
            self.what
        );
        st.resumed_steps
    }
}

/// What a row's runs exercised.
#[derive(Debug, Default)]
struct Coverage {
    resumed_steps: usize,
    /// Traces whose merged order repeats the previous one past their
    /// own deadlock re-check position.
    shared_past_deadlock: usize,
}

/// Drives the default CEGIS loop (reseal, schedule-bank prescreen,
/// exhaustive check) on one Figure 9 row, comparing the synthesizer
/// with the reference before and after every trace; then feeds the
/// run's traces again in reverse order to a fresh pair, which resumes
/// at other points of the shared prefixes.
fn run_row(benchmark: &str, test: &str) -> Coverage {
    let run = figure9_runs()
        .into_iter()
        .find(|r| r.benchmark == benchmark && r.test == test)
        .unwrap_or_else(|| panic!("{benchmark} [{test}] is a Figure 9 row"));
    let options: Options = run.options.clone();
    let s = Synthesis::new(&run.source, options.clone()).unwrap();
    let l = s.lowered();
    let mut pair = Pair::new(l, format!("{benchmark} [{test}]"));
    let bank = ScheduleBank::new(options.bank_capacity);
    let limits = SearchLimits {
        por: options.por,
        symmetry: options.symmetry,
        ..SearchLimits::states(options.max_states)
    };
    let mut prev: Option<CompiledProgram<'_>> = None;
    let mut traces: Vec<CexTrace> = Vec::new();
    let mut concluded = false;
    for _ in 0..options.max_iterations {
        let Some(candidate) = pair.next_candidate() else {
            concluded = true;
            break;
        };
        let cp = match &prev {
            Some(p) => CompiledProgram::reseal(p, l, &candidate),
            None => CompiledProgram::compile(l, &candidate),
        };
        let cex = match bank.prescreen_compiled(&cp).0 {
            Some(cex) => cex,
            None => match check_compiled(&cp, &limits).verdict {
                Verdict::Pass => {
                    concluded = true;
                    break;
                }
                Verdict::Fail(cex) => {
                    bank.record(&cex.schedule);
                    cex
                }
                Verdict::Unknown(why) => panic!("{benchmark} [{test}]: search gave up: {why:?}"),
            },
        };
        prev = Some(cp);
        pair.add_trace(&cex);
        traces.push(cex);
    }
    assert!(concluded, "{benchmark} [{test}] reached no verdict");

    let mut coverage = Coverage {
        resumed_steps: pair.resumed_steps(l),
        ..Coverage::default()
    };
    let mut prev_order = Vec::new();
    for cex in &traces {
        let order = project(l, cex);
        let shared = order
            .iter()
            .zip(&prev_order)
            .take_while(|(a, b)| a == b)
            .count();
        if shared > trace_end_position(&order, cex) {
            coverage.shared_past_deadlock += 1;
        }
        prev_order = order;
    }

    let mut reversed = Pair::new(l, format!("{benchmark} [{test}] reversed"));
    for cex in traces.iter().rev() {
        reversed.add_trace(cex);
        reversed.next_candidate();
    }
    coverage.resumed_steps += reversed.resumed_steps(l);
    coverage
}

#[test]
fn resumed_encoding_matches_fresh_encoding() {
    let rows = [
        ("barrier1", "N=3,B=2"),
        ("lazyset", "ar(ar|ar)"),
        ("queueE1", "ed(ee|dd)"),
        ("queueE1", "ed(ed|ed)"),
        ("queueE1", "(e|e|e)ddd"),
        // The cheapest row whose own CEGIS run resumes a trace past the
        // deadlock re-check of the trace before: the re-check's
        // conditions must not be replayed into another trace's `fail`.
        ("fineset1", "ar(aaaa|rrrr)"),
    ];
    let mut resumed = 0;
    for (benchmark, test) in rows {
        let c = run_row(benchmark, test);
        resumed += c.resumed_steps;
    }
    assert!(resumed > 0, "no trace resumed: the test exercises nothing");
}

/// fineset2 rows whose traces repeat the previous merged order past
/// their own deadlock re-check, so the evaluation jumps, re-checks the
/// deadlock, and jumps again.
#[test]
#[ignore = "two fineset2 rows, ~1 min in debug; run in release with --include-ignored"]
fn resumed_encoding_matches_fresh_encoding_past_deadlock_checks() {
    let mut past = 0;
    for test in ["ar(arar|arar)", "ar(aaaa|rrrr)"] {
        let c = run_row("fineset2", test);
        assert!(c.resumed_steps > 0, "fineset2 [{test}]: no trace resumed");
        past += c.shared_past_deadlock;
    }
    assert!(
        past > 0,
        "no trace shared the previous order past its deadlock re-check"
    );
}
