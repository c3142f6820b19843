//! Differential testing of the engines — every one of which runs the
//! candidate sealed into a [`CompiledProgram`] on the zero-clone undo
//! engine — against the clone-per-transition reference engine, which
//! walks the IR trees, across the example suite.
//!
//! For every suite sketch and a handful of candidates (the identity
//! assignment plus seeded random hole values), the reference engine
//! (`psketch_exec::reference`) and the sealed artifact must agree. At
//! one thread with partial-order reduction off, both engines are
//! deterministic depth-first searches over the same canonical state
//! set, so the comparison is exact: identical verdicts, state and
//! transition counts, and counterexample traces and schedules. At 2
//! and 4 threads the parallel engine may find a *different*
//! interleaving of a failure, so the trace assertion weakens to "the
//! counterexample actually refutes the candidate" (symbolic replay
//! reproduces the failure) while verdicts and passing state counts
//! stay exact. Each comparison runs twice: `engines_agree_*` goes
//! through the `(Lowered, Assignment)` entry points, which seal the
//! candidate themselves, and `compiled_engine_agrees_*` seals it once
//! and hands the shared artifact to every run.
//!
//! With reduction **on**, the engine explores a provably sufficient
//! subset of each state's enabled workers, chosen with the artifact's
//! candidate-sharpened footprint masks: folded hole values may resolve
//! fork-indexed cells the static analysis had to treat as whole-array.
//! The contract weakens to verdict equivalence: identical pass/fail
//! classification at 1, 2 and 4 threads, every counterexample still
//! refutes the candidate and replays exactly from its schedule, and —
//! whenever the full search completed — the reduced search never
//! visits more states than full expansion did. The sharpening's
//! soundness side condition — every sharpened mask is a subset of its
//! static counterpart — is checked as a property over many random
//! candidates.

use psketch_repro::exec::reference::check_ref_with_limit;
use psketch_repro::exec::{
    check_compiled, check_parallel_compiled, check_parallel_limits, check_with_limits,
    random_run_compiled, replay_compiled, CexTrace, CheckOutcome, CompiledProgram, Interrupt,
    SearchLimits, Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::trace_reproduces;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized. Both
/// engines dedup by canonical state identity, so (reduction off) they
/// reach the limit or finish under it on exactly the same searches.
const MAX_STATES: usize = 10_000;

fn limits(por: bool) -> SearchLimits {
    // Symmetry off: the exact-comparison contracts below count states
    // against the reference engine, which never canonicalizes.
    SearchLimits {
        por,
        symmetry: false,
        ..SearchLimits::states(MAX_STATES)
    }
}

fn sym_limits(symmetry: bool) -> SearchLimits {
    SearchLimits {
        por: false,
        symmetry,
        ..SearchLimits::states(MAX_STATES)
    }
}

fn lowered(source: &str, config: &psketch_repro::ir::Config) -> Lowered {
    let p = psketch_repro::lang::check_program(source).unwrap();
    let (sk, holes) = desugar::desugar_program(&p, config).unwrap();
    lower::lower_program(&sk, holes, config).unwrap()
}

/// The identity assignment plus `extra` random ones.
fn candidates(l: &Lowered, extra: usize, rng: &mut Rng) -> Vec<Assignment> {
    let mut out = vec![l.holes.identity_assignment()];
    for _ in 0..extra {
        let values = (0..l.holes.num_holes())
            .map(|h| rng.below(l.holes.domain(h as u32) as usize) as u64)
            .collect();
        out.push(Assignment::from_values(values));
    }
    out
}

/// Exact equivalence: verdict, state/transition counts, and
/// counterexample step sequences and schedules all match.
fn assert_exact(a: &CheckOutcome, b: &CheckOutcome, label: &str) {
    assert_eq!(
        a.stats.states, b.stats.states,
        "{label}: engines disagree on the state count"
    );
    assert_eq!(
        a.stats.transitions, b.stats.transitions,
        "{label}: engines disagree on the transition count"
    );
    match (&a.verdict, &b.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert_eq!(a.stats.terminal_states, b.stats.terminal_states, "{label}");
        }
        (Verdict::Fail(ca), Verdict::Fail(cb)) => {
            assert_eq!(ca.steps, cb.steps, "{label}: counterexample traces differ");
            assert_eq!(
                ca.schedule, cb.schedule,
                "{label}: counterexample schedules differ"
            );
            assert_eq!(
                ca.failure.kind, cb.failure.kind,
                "{label}: failure kinds differ"
            );
        }
        (Verdict::Unknown(wa), Verdict::Unknown(wb)) => {
            assert_eq!(*wa, Interrupt::StateLimit, "{label}: no deadline installed");
            assert_eq!(wa, wb, "{label}");
        }
        (va, vb) => panic!("{label}: reference verdict {va:?}, sealed-engine verdict {vb:?}"),
    }
}

/// A counterexample's own schedule is a fixed point of replay on the
/// sealed artifact: feeding it back reproduces the identical execution.
fn assert_replays(cp: &CompiledProgram, cex: &CexTrace, label: &str) {
    let order: Vec<usize> = cex.schedule.iter().map(|&w| w as usize).collect();
    let replayed =
        replay_compiled(cp, &order).unwrap_or_else(|| panic!("{label}: replay must fail too"));
    assert_eq!(replayed.steps, cex.steps, "{label}: replayed trace differs");
    assert_eq!(
        replayed.failure.kind, cex.failure.kind,
        "{label}: replayed failure kind differs"
    );
}

/// How a differential run hands the candidate to the engine.
#[derive(Clone, Copy)]
enum Entry {
    /// The `(Lowered, Assignment)` entry points, which seal internally.
    Lowered,
    /// An artifact sealed once by the test and shared by every run.
    Artifact,
}

fn compare(l: &Lowered, a: &Assignment, entry: Entry, label: &str) {
    let cp = CompiledProgram::compile(l, a);
    assert!(
        cp.footprint_refines_static(),
        "{label}: sharpened masks must refine the static analysis"
    );
    let run = |lim: &SearchLimits, threads: usize| match (entry, threads) {
        (Entry::Lowered, 1) => check_with_limits(l, a, lim),
        (Entry::Lowered, t) => check_parallel_limits(l, a, lim, t),
        (Entry::Artifact, 1) => check_compiled(&cp, lim),
        (Entry::Artifact, t) => check_parallel_compiled(&cp, lim, t),
    };
    let old = check_ref_with_limit(l, a, MAX_STATES);

    // One thread, reduction off: both engines are deterministic DFS
    // over the same canonical state set in the same worker order, so
    // everything — verdict, counts, counterexample — must match
    // exactly.
    let new = run(&limits(false), 1);
    assert_exact(&old, &new, label);
    // A full-expansion run must never report reduction activity.
    assert_eq!(new.stats.por_ample_hits, 0, "{label}: por off yet active");
    assert_eq!(new.stats.states_pruned, 0, "{label}: por off yet pruning");
    // The reference counterexample replays exactly on the artifact.
    if let Verdict::Fail(cex) = &old.verdict {
        assert_replays(&cp, cex, &format!("{label} reference cex"));
    }

    // 2 and 4 threads, reduction off: the parallel engine against the
    // reference verdict. Failure interleavings may differ; validity
    // may not.
    for threads in [2usize, 4] {
        let par = run(&limits(false), threads);
        check_against(l, a, &old.verdict, Some(old.stats.states), &par, {
            &format!("{label} threads={threads} por=off")
        });
    }

    // Reduction on, 1 thread: verdict equivalence against the full
    // search, plus the cost contract — when the full search completed,
    // the reduced one never visits more states.
    let por_seq = run(&limits(true), 1);
    match (&old.verdict, &por_seq.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(
                por_seq.stats.states <= old.stats.states,
                "{label}: reduction explored more states ({} > {})",
                por_seq.stats.states,
                old.stats.states
            );
        }
        (Verdict::Pass, v) => panic!("{label}: full search passes, reduced search {v:?}"),
        (Verdict::Fail(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, a),
                "{label}: reduced-search cex does not refute candidate"
            );
        }
        (Verdict::Fail(_), v) => panic!("{label}: full search fails, reduced search {v:?}"),
        // Full search hit the state limit: the reduced search visits a
        // subset of the reachable states, so it may legitimately
        // finish (either way) or hit the limit itself.
        (Verdict::Unknown(_), Verdict::Fail(cex)) => {
            assert!(trace_reproduces(l, cex, a), "{label}: invalid reduced cex");
        }
        (Verdict::Unknown(_), Verdict::Unknown(w)) => {
            assert_eq!(*w, Interrupt::StateLimit, "{label}");
        }
        (Verdict::Unknown(_), Verdict::Pass) => {}
    }
    if let Verdict::Fail(cex) = &por_seq.verdict {
        assert_replays(&cp, cex, &format!("{label} por=on cex"));
    }
    if por_seq.stats.states_pruned > 0 {
        assert!(
            por_seq.stats.por_ample_hits > 0,
            "{label}: pruning without ample hits"
        );
    }

    // Reduction on, 2 and 4 threads: the ample set is a deterministic
    // function of the state, so the parallel reduced search explores
    // the same reduced graph as the sequential one — passing state
    // counts must match it exactly.
    for threads in [2usize, 4] {
        let par = run(&limits(true), threads);
        check_against(l, a, &por_seq.verdict, Some(por_seq.stats.states), &par, {
            &format!("{label} threads={threads} por=on")
        });
    }

    // Random sampling on the artifact: a sampled failure is a real
    // execution — it replays exactly — and a candidate the reference
    // engine passes never yields one.
    for seed in 0..8u64 {
        if let Some(cex) = random_run_compiled(&cp, seed) {
            assert!(
                !matches!(old.verdict, Verdict::Pass),
                "{label} seed={seed}: sampled a failure of a passing candidate"
            );
            assert_replays(&cp, &cex, &format!("{label} seed={seed}"));
        }
    }
}

/// Parallel-vs-sequential rules shared by the reduced and full
/// configurations: verdicts agree, passing state counts match the
/// sequential baseline, counterexamples replay, and a search that hit
/// the state limit is never contradicted by a pass.
fn check_against(
    l: &Lowered,
    a: &Assignment,
    base: &Verdict,
    base_states: Option<usize>,
    par: &CheckOutcome,
    label: &str,
) {
    match (base, &par.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            if let Some(states) = base_states {
                assert_eq!(
                    states, par.stats.states,
                    "{label}: passing searches must agree on the state count"
                );
            }
        }
        (Verdict::Pass, v) => panic!("{label}: baseline passes, parallel {v:?}"),
        (Verdict::Fail(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, a),
                "{label}: parallel cex does not refute candidate"
            );
        }
        (Verdict::Fail(_), v) => panic!("{label}: baseline fails, parallel {v:?}"),
        (Verdict::Unknown(why), v) => {
            assert_eq!(*why, Interrupt::StateLimit, "{label}");
            // The parallel search explores in a different order, so
            // before hitting the shared limit it may legitimately
            // stumble on a (valid) failure — but never a pass.
            match v {
                Verdict::Fail(cex) => assert!(
                    trace_reproduces(l, cex, a),
                    "{label}: parallel cex does not refute candidate"
                ),
                Verdict::Unknown(pw) => {
                    assert_eq!(*pw, Interrupt::StateLimit, "{label}")
                }
                Verdict::Pass => panic!(
                    "{label}: baseline hit the state limit; a passing parallel \
                     run would mean the engines disagree on the reachable \
                     state count"
                ),
            }
        }
    }
}

/// Symmetry on vs off, 1/2/4 checker threads: identical verdicts,
/// every counterexample still refutes the candidate, and — whenever
/// the identity-canonicalization search completed — the symmetry-
/// reduced search visits a subset of its states (never more). The
/// canonical fingerprint is a deterministic function of the state, so
/// the parallel reduced search must match the sequential reduced
/// state count exactly on passing runs.
fn compare_symmetry(l: &Lowered, a: &Assignment, label: &str) {
    let off = check_with_limits(l, a, &sym_limits(false));
    let on = check_with_limits(l, a, &sym_limits(true));
    assert_eq!(
        off.stats.sym_collapses, 0,
        "{label}: symmetry off yet collapses reported"
    );
    match (&off.verdict, &on.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(
                on.stats.states <= off.stats.states,
                "{label}: symmetry explored more states ({} > {})",
                on.stats.states,
                off.stats.states
            );
        }
        (Verdict::Pass, v) => panic!("{label}: symmetry off passes, on {v:?}"),
        (Verdict::Fail(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, a),
                "{label}: symmetry-on cex does not refute candidate"
            );
        }
        (Verdict::Fail(_), v) => panic!("{label}: symmetry off fails, on {v:?}"),
        // Full search hit the state limit: the reduced search visits a
        // subset of the orbits, so it may legitimately finish first.
        (Verdict::Unknown(_), Verdict::Fail(cex)) => {
            assert!(trace_reproduces(l, cex, a), "{label}: invalid sym cex");
        }
        (Verdict::Unknown(_), Verdict::Unknown(w)) => {
            assert_eq!(*w, Interrupt::StateLimit, "{label}");
        }
        (Verdict::Unknown(_), Verdict::Pass) => {}
    }
    for threads in [2usize, 4] {
        let par = check_parallel_limits(l, a, &sym_limits(true), threads);
        check_against(l, a, &on.verdict, Some(on.stats.states), &par, {
            &format!("{label} threads={threads} symmetry=on")
        });
    }
    // Symmetry composes with the ample-set reduction: the combined
    // configuration (both defaults on) must preserve the verdict too.
    let both = check_with_limits(
        l,
        a,
        &SearchLimits {
            por: true,
            symmetry: true,
            ..SearchLimits::states(MAX_STATES)
        },
    );
    match (&off.verdict, &both.verdict) {
        (Verdict::Pass, Verdict::Pass) => {}
        (Verdict::Pass, v) => panic!("{label}: full search passes, por+sym {v:?}"),
        (Verdict::Fail(_), Verdict::Fail(cex)) | (Verdict::Unknown(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, a),
                "{label}: por+sym cex does not refute candidate"
            );
        }
        (Verdict::Fail(_), v) => panic!("{label}: full search fails, por+sym {v:?}"),
        (Verdict::Unknown(_), Verdict::Unknown(w)) => {
            assert_eq!(*w, Interrupt::StateLimit, "{label}");
        }
        (Verdict::Unknown(_), Verdict::Pass) => {}
    }
}

#[test]
fn symmetry_agrees_on_suite_sketches() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(29);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 2, &mut rng).iter().enumerate() {
            compare_symmetry(&l, a, &format!("{} candidate {ix}", run.benchmark));
        }
    }
}

#[test]
fn symmetry_agrees_on_small_programs() {
    let programs = [
        // Symmetric lost-update race: fails, and the symmetric-state
        // collapse must not mask the failing interleaving.
        "int g;
         harness void main() {
             fork (i; 2) { int t = g; g = t + 1; }
             assert g == 2;
         }",
        // Symmetric and passing: the reduction's best case.
        "int g;
         harness void main() {
             fork (i; 3) { int old = AtomicReadAndIncr(g); }
             assert g == 3;
         }",
        // Fork-index-dependent branching: asymmetric, must fall back
        // to identity canonicalization and still agree.
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { a = a + 1; } else { b = b + 1; }
             }
             assert a == 1 && b == 1;
         }",
        // pid() escapes into shared state: asymmetric.
        "int owner;
         harness void main() {
             fork (i; 2) { owner = pid(); }
             assert owner >= 1;
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(31);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        for (ix, a) in candidates(&l, 3, &mut rng).iter().enumerate() {
            compare_symmetry(&l, a, &format!("program {px} candidate {ix}"));
        }
    }
}

/// On a genuinely symmetric workload the reduction must actually fire:
/// strictly fewer states than identity canonicalization, collapses
/// reported, same verdict.
#[test]
fn symmetry_collapses_symmetric_counter() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 3) { int t = g; g = t + 1; }
             assert g >= 1;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let off = check_with_limits(&l, &a, &sym_limits(false));
    let on = check_with_limits(&l, &a, &sym_limits(true));
    assert!(off.is_ok() && on.is_ok());
    assert!(
        on.stats.states < off.stats.states,
        "symmetry did not collapse: {} vs {}",
        on.stats.states,
        off.stats.states
    );
    assert!(on.stats.sym_collapses > 0);
    assert_eq!(off.stats.sym_collapses, 0);
}

fn agree_on_suite_sketches(entry: Entry, seed: u64) {
    // One run per distinct benchmark keeps the test tractable; the
    // generated sources differ only in workload within a benchmark.
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(seed);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 2, &mut rng).iter().enumerate() {
            compare(&l, a, entry, &format!("{} candidate {ix}", run.benchmark));
        }
    }
}

fn agree_on_small_programs(entry: Entry, seed: u64) {
    let programs = [
        // Deterministic pass.
        "int g;
         harness void main() {
             fork (i; 2) { int old = AtomicReadAndIncr(g); }
             assert g == 2;
         }",
        // Lost-update race: fails.
        "int g;
         harness void main() {
             fork (i; 2) { int t = g; g = t + 1; }
             assert g == 2;
         }",
        // Deadlock.
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { atomic (a == 1) { } b = 1; }
                 else { atomic (b == 1) { } a = 1; }
             }
         }",
        // Sequential-only program: no fork, prologue does everything.
        "int g;
         harness void main() {
             g = g + 1;
             assert g == 1;
         }",
        // Three threads, bigger interleaving space.
        "int g;
         harness void main() {
             fork (i; 3) { g = g + 1; g = g + 1; }
             assert g >= 2;
         }",
        // Disjoint per-thread cells: maximal independence, the
        // reduction's best case.
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { a = a + 1; a = a + 1; }
                 else { b = b + 1; b = b + 1; }
             }
             assert a == 2 && b == 2;
         }",
        // Hole-guarded branching: folding eliminates one arm.
        "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int old = AtomicReadAndIncr(g); }
                 else { g = g + 1; }
             }
             assert g == 2;
         }",
        // Hole-indexed array writes: the static footprint is the whole
        // array, the candidate-sharpened one a single cell.
        "int[4] a;
         harness void main() {
             fork (i; 2) { a[??(2) + i] = 1; }
             assert a[0] >= 0;
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(seed);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        for (ix, a) in candidates(&l, 3, &mut rng).iter().enumerate() {
            compare(&l, a, entry, &format!("program {px} candidate {ix}"));
        }
    }
}

#[test]
fn engines_agree_on_suite_sketches() {
    agree_on_suite_sketches(Entry::Lowered, 13);
}

#[test]
fn engines_agree_on_small_programs() {
    agree_on_small_programs(Entry::Lowered, 17);
}

#[test]
fn compiled_engine_agrees_on_suite_sketches() {
    agree_on_suite_sketches(Entry::Artifact, 41);
}

#[test]
fn compiled_engine_agrees_on_small_programs() {
    agree_on_small_programs(Entry::Artifact, 43);
}

/// On a workload with real independence the reduction must actually
/// fire: fewer states than full expansion, ample hits and pruned
/// expansions reported, same verdict.
#[test]
fn reduction_prunes_disjoint_updates() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int a; int b; int c;
         harness void main() {
             fork (i; 3) {
                 if (i == 0) { a = a + 1; a = a + 1; }
                 else { if (i == 1) { b = b + 1; b = b + 1; }
                        else { c = c + 1; c = c + 1; } }
             }
             assert a == 2 && b == 2 && c == 2;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let full = check_with_limits(&l, &a, &limits(false));
    let red = check_with_limits(&l, &a, &limits(true));
    assert!(full.is_ok() && red.is_ok());
    assert!(
        red.stats.states < full.stats.states,
        "reduction did not prune: {} vs {}",
        red.stats.states,
        full.stats.states
    );
    assert!(red.stats.por_ample_hits > 0);
    assert!(red.stats.states_pruned > 0);
    assert_eq!(full.stats.por_ample_hits, 0);
}

/// A sealed artifact's tables (state layout, liveness, POR masks,
/// symmetry classes) live behind `Arc` and are shared by reference
/// with every checker spun up from it — sequential or parallel. The
/// sharing must be observationally free: with reduction off, parallel
/// runs over one shared artifact match the reference engine's verdict
/// and passing state count, and any counterexample schedule they find
/// still refutes the candidate.
#[test]
fn shared_tables_run_parallel_without_cloning() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(19);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 1, &mut rng).iter().enumerate() {
            let label = format!("{} candidate {ix}", run.benchmark);
            let cp = CompiledProgram::compile(&l, a);
            let base = check_ref_with_limit(&l, a, MAX_STATES);
            for threads in [2usize, 4] {
                let par = check_parallel_compiled(&cp, &limits(false), threads);
                check_against(&l, a, &base.verdict, Some(base.stats.states), &par, {
                    &format!("{label} threads={threads} shared artifact")
                });
            }
        }
    }
}

/// The undo engine's accounting must reflect its zero-clone design:
/// a sequential search journals writes and never clones, while the
/// reference engine clones per transition and journals nothing.
#[test]
fn accounting_reflects_engine_design() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 2) { int old = AtomicReadAndIncr(g); }
             assert g == 2;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let new = check_with_limits(&l, &a, &limits(false));
    assert!(new.is_ok());
    assert!(new.stats.journal_writes > 0, "undo engine records writes");
    assert_eq!(
        new.stats.state_clones, 0,
        "sequential undo search never clones"
    );
    let old = check_ref_with_limit(&l, &a, MAX_STATES);
    assert!(old.is_ok());
    assert!(
        old.stats.state_clones >= old.stats.transitions as usize,
        "reference engine clones at least once per transition"
    );
}

/// Property: across every suite sketch and many random candidates,
/// the candidate-sharpened footprint masks always refine (are never
/// coarser than) the static hole-agnostic analysis — the soundness
/// side condition the sharpened POR tables depend on.
#[test]
fn sharpened_footprints_always_refine_static() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(47);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 8, &mut rng).iter().enumerate() {
            let cp = CompiledProgram::compile(&l, a);
            assert!(
                cp.footprint_refines_static(),
                "{} candidate {ix}: sharpened mask coarser than static",
                run.benchmark
            );
        }
    }
}

/// On the hole-indexed-array workload the sharpening must actually
/// fire: the artifact reports strictly-tightened masks, and the
/// reduced search visits no more states than full expansion.
#[test]
fn sharpening_fires_on_hole_indexed_cells() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int[4] a;
         harness void main() {
             fork (i; 2) { a[??(2) + i] = 1; }
             assert a[0] >= 0;
         }",
        &cfg,
    );
    let cand = l.holes.identity_assignment();
    let cp = CompiledProgram::compile(&l, &cand);
    assert!(
        cp.sharpened_masks() > 0,
        "folded hole must resolve the array index"
    );
    assert!(cp.footprint_refines_static());
    let full = check_ref_with_limit(&l, &cand, MAX_STATES);
    let comp = check_compiled(&cp, &limits(true));
    assert!(full.is_ok() && comp.is_ok());
    assert!(
        comp.stats.states <= full.stats.states,
        "sharper masks must not blow up the reduced search: {} > {}",
        comp.stats.states,
        full.stats.states
    );
}
