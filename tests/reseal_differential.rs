//! Differential testing of incremental resealing against fresh
//! compilation, across the example suite.
//!
//! [`CompiledProgram::reseal`] diffs the new candidate's hole values
//! against the previous artifact's per-thread hole lists and re-emits
//! only the threads whose holes changed, reusing every clean thread's
//! micro-op arrays and footprints by reference (and, when no worker is
//! dirty, the symmetry classes and POR tables wholesale). That reuse
//! is only sound if the resealed artifact is *bit-identical* to
//! sealing the same candidate from scratch — same micro-op code, same
//! sharpened footprints, same POR masks, same symmetry classes.
//!
//! This test walks a random sequence of candidates per suite sketch —
//! mostly single-hole flips (the CEGIS-neighbourhood case reseal is
//! built for), occasionally a full re-randomization — resealing each
//! artifact from its predecessor and asserting structural equality
//! with a fresh seal via `artifact_eq`. On a subset of steps it also
//! drives both artifacts through the checker at 1, 2 and 4 threads
//! with the reductions off and on, demanding identical verdicts and
//! (for deterministic configurations) identical searches.

use psketch_repro::exec::{
    check_compiled, check_parallel_compiled, CheckOutcome, CompiledProgram, SearchLimits, Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::trace_reproduces;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized.
const MAX_STATES: usize = 10_000;

fn limits(por: bool, symmetry: bool) -> SearchLimits {
    SearchLimits {
        por,
        symmetry,
        ..SearchLimits::states(MAX_STATES)
    }
}

fn lowered(source: &str, config: &psketch_repro::ir::Config) -> Lowered {
    let p = psketch_repro::lang::check_program(source).unwrap();
    let (sk, holes) = desugar::desugar_program(&p, config).unwrap();
    lower::lower_program(&sk, holes, config).unwrap()
}

/// One step of the candidate walk: usually flip a single hole to a
/// fresh in-domain value (the neighbourhood a CEGIS iteration moves
/// in), sometimes re-randomize every hole.
fn walk_step(l: &Lowered, prev: &Assignment, rng: &mut Rng) -> Assignment {
    let n = l.holes.num_holes();
    let mut values = prev.values().to_vec();
    if n == 0 {
        return Assignment::from_values(values);
    }
    if rng.below(4) == 0 {
        for (h, v) in values.iter_mut().enumerate() {
            *v = rng.below(l.holes.domain(h as u32) as usize) as u64;
        }
    } else {
        let h = rng.below(n);
        values[h] = rng.below(l.holes.domain(h as u32) as usize) as u64;
    }
    Assignment::from_values(values)
}

/// The two outcomes came from bit-identical artifacts driven through
/// the same deterministic sequential search, so everything observable
/// must match (reseal bookkeeping counters excepted).
fn assert_same_search(a: &CheckOutcome, b: &CheckOutcome, label: &str) {
    assert_eq!(a.stats.states, b.stats.states, "{label}: states");
    assert_eq!(
        a.stats.transitions, b.stats.transitions,
        "{label}: transitions"
    );
    assert_eq!(
        a.stats.terminal_states, b.stats.terminal_states,
        "{label}: terminal states"
    );
    match (&a.verdict, &b.verdict) {
        (Verdict::Pass, Verdict::Pass) => {}
        (Verdict::Fail(ca), Verdict::Fail(cb)) => {
            assert_eq!(ca.steps, cb.steps, "{label}: cex traces");
            assert_eq!(ca.schedule, cb.schedule, "{label}: cex schedules");
        }
        (Verdict::Unknown(wa), Verdict::Unknown(wb)) => assert_eq!(wa, wb, "{label}"),
        (va, vb) => panic!("{label}: fresh {va:?}, resealed {vb:?}"),
    }
}

/// Parallel searches race on visit order, so two runs of even the
/// same artifact need not explore identically on a failing candidate.
/// Passing state counts are still deterministic (the explored graph is
/// a function of the artifact), and any counterexample must be real.
fn assert_equiv_parallel(
    l: &Lowered,
    cand: &Assignment,
    fresh: &CheckOutcome,
    resealed: &CheckOutcome,
    label: &str,
) {
    match (&fresh.verdict, &resealed.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert_eq!(
                fresh.stats.states, resealed.stats.states,
                "{label}: passing state counts"
            );
        }
        (Verdict::Fail(_) | Verdict::Unknown(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, cand),
                "{label}: resealed parallel cex does not refute candidate"
            );
        }
        (Verdict::Fail(_) | Verdict::Unknown(_), Verdict::Unknown(_)) => {}
        (va, vb) => panic!("{label}: fresh {va:?}, resealed {vb:?}"),
    }
}

/// Walk `steps` candidates, resealing each from the previous artifact;
/// every artifact must be structurally identical to a fresh seal, and
/// periodically both are swept to confirm the searches agree.
fn walk(l: &Lowered, steps: usize, rng: &mut Rng, label: &str) {
    let mut cand = l.holes.identity_assignment();
    let mut prev = CompiledProgram::compile(l, &cand);
    for step in 0..steps {
        cand = walk_step(l, &cand, rng);
        let resealed = CompiledProgram::reseal(&prev, l, &cand);
        let fresh = CompiledProgram::compile(l, &cand);
        assert!(
            resealed.artifact_eq(&fresh),
            "{label} step {step}: resealed artifact differs from fresh seal"
        );

        // Sweep both artifacts on a subset of steps: the sequential
        // searches must be indistinguishable with the reductions off
        // and on; the parallel ones verdict-equivalent.
        if step % 4 == 0 {
            for (por, symmetry) in [(false, false), (true, true)] {
                let lim = limits(por, symmetry);
                let tag = format!("{label} step {step} por={por} sym={symmetry}");
                let a = check_compiled(&fresh, &lim);
                let b = check_compiled(&resealed, &lim);
                assert_same_search(&a, &b, &tag);
                for threads in [2usize, 4] {
                    let pa = check_parallel_compiled(&fresh, &lim, threads);
                    let pb = check_parallel_compiled(&resealed, &lim, threads);
                    assert_equiv_parallel(l, &cand, &pa, &pb, &format!("{tag} threads={threads}"));
                }
            }
        }
        prev = resealed;
    }
}

#[test]
fn reseal_matches_fresh_seal_across_suite() {
    // One run per distinct benchmark keeps the test tractable; the
    // generated sources differ only in workload within a benchmark.
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(53);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        walk(&l, 12, &mut rng, run.benchmark);
    }
}

#[test]
fn reseal_matches_fresh_seal_on_small_programs() {
    let programs = [
        // Hole-guarded branching: a flip swaps which arm survives
        // folding, so the dirty worker's code genuinely changes.
        "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int old = AtomicReadAndIncr(g); }
                 else { g = g + 1; }
             }
             assert g == 2;
         }",
        // Hole-indexed array writes: a flip moves the sharpened
        // footprint cell, so the POR masks must be rebuilt.
        "int[4] a;
         harness void main() {
             fork (i; 2) { a[??(2) + i] = 1; }
             assert a[0] >= 0;
         }",
        // Main-scope hole read by the workers through a hoisted
        // global: the workers carry no holes and stay clean across
        // every flip.
        "int g;
         harness void main() {
             int x = ??(3);
             fork (i; 2) { g = g + x; }
             assert g >= 0;
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(59);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        walk(&l, 16, &mut rng, &format!("program {px}"));
    }
}

/// Reseal must also be an identity when the candidate does not move:
/// every thread, both tables and the footprints are shared by
/// reference, and the sweep still matches.
#[test]
fn reseal_with_unchanged_candidate_is_free_and_identical() {
    let mut seen = std::collections::HashSet::new();
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        let cand = l.holes.identity_assignment();
        let cp = CompiledProgram::compile(&l, &cand);
        let rs = CompiledProgram::reseal(&cp, &l, &cand);
        assert!(rs.artifact_eq(&cp), "{}: identity reseal", run.benchmark);
        assert_eq!(
            rs.threads_reused(),
            l.workers.len() as u64 + 2,
            "{}: all threads (prologue + workers + epilogue) must be reused",
            run.benchmark
        );
        let a = check_compiled(&cp, &limits(true, true));
        let b = check_compiled(&rs, &limits(true, true));
        assert_same_search(&a, &b, run.benchmark);
    }
}
