//! Reproduction of the paper's headline results on reduced workloads
//! (fast enough for debug-mode CI). The full Figure 9 matrix runs via
//! `cargo run --release -p psketch-suite --bin fig9` and the
//! `fig9_cegis` Criterion bench.

use psketch_repro::core::{Config, Options, Synthesis};
use psketch_repro::suite::barrier::{barrier_source, BarrierVariant};
use psketch_repro::suite::dinphilo::{dinphilo_source, PhiloVariant};
use psketch_repro::suite::figure9_runs;
use psketch_repro::suite::queue::{queue_source, DequeueVariant, EnqueueVariant};
use psketch_repro::suite::set::{set_source, SetVariant};
use psketch_repro::suite::workload::Workload;

fn queue_options(w: &Workload) -> Options {
    Options {
        config: Config {
            unroll: w.total_inserts() + 2,
            pool: w.total_inserts() + 2,
            ..Config::default()
        },
        ..Options::default()
    }
}

#[test]
fn figure2_enqueue_synthesis() {
    // §2: the restricted Enqueue sketch resolves to Figure 2 — swap
    // the tail first, then link.
    let w = Workload::parse("ed(e|d)").unwrap();
    let src = queue_source(EnqueueVariant::Restricted, DequeueVariant::Given, &w);
    let s = Synthesis::new(&src, queue_options(&w)).unwrap();
    assert_eq!(s.candidate_space(), 4, "Table 1: queueE1 has |C| = 4");
    let out = s.run();
    let r = out.resolution.expect("queueE1 resolves");
    let enq = s.resolve_function("Enqueue", &r.assignment).unwrap();
    let swap = enq
        .find("AtomicSwap(tail, newEntry)")
        .expect("uses the swap");
    let link = enq.find("tmp.next = newEntry").expect("links the node");
    assert!(swap < link, "Figure 2 order:\n{enq}");
}

#[test]
fn figure4_dequeue_synthesis() {
    // §8.2.1: the soup Dequeue resolves into a working taken-marking
    // dequeue (Figure 4 family).
    let w = Workload::parse("ed(e|d)").unwrap();
    let src = queue_source(EnqueueVariant::Restricted, DequeueVariant::SketchSoup, &w);
    let s = Synthesis::new(&src, queue_options(&w)).unwrap();
    let out = s.run();
    let r = out.resolution.expect("queueDE1 resolves");
    let deq = s.resolve_function("Dequeue", &r.assignment).unwrap();
    // The synthesized dequeue must read through prevHead and take via
    // the atomic swap.
    assert!(deq.contains("prevHead"), "{deq}");
    assert!(deq.contains("AtomicSwap(tmp.taken, 1)"), "{deq}");
}

#[test]
fn figure3_sketch_resolves() {
    // The 4-candidate Figure 3 dequeue sketch.
    let w = Workload::parse("ed(e|d)").unwrap();
    let src = queue_source(
        EnqueueVariant::Restricted,
        DequeueVariant::SketchAdvance,
        &w,
    );
    let s = Synthesis::new(&src, queue_options(&w)).unwrap();
    let out = s.run();
    assert!(out.resolved(), "Figure 3 sketch resolves");
}

#[test]
fn barrier_restricted_resolves() {
    let src = barrier_source(BarrierVariant::Restricted, 2, 2);
    let opts = Options {
        config: Config {
            hole_width: 2,
            unroll: 4,
            pool: 2,
            ..Config::default()
        },
        ..Options::default()
    };
    let out = Synthesis::new(&src, opts).unwrap().run();
    assert!(out.resolved(), "barrier1 resolves");
}

/// A CEGIS run is a deterministic function of the sketch and its
/// options: barrier1's traces carry multi-worker deadlock sets, whose
/// encoding once depended on hash-set iteration order and made the
/// iteration count vary from run to run within one process.
#[test]
fn barrier1_runs_repeat_exactly() {
    let run = figure9_runs()
        .into_iter()
        .find(|r| r.benchmark == "barrier1" && r.test == "N=3,B=2")
        .expect("barrier1 N=3,B=2 is a Figure 9 row");
    let runs: Vec<(usize, Option<Vec<u64>>)> = (0..3)
        .map(|_| {
            let out = Synthesis::new(&run.source, run.options.clone())
                .unwrap()
                .run();
            let resolution = out.resolution.map(|r| r.assignment.values().to_vec());
            (out.stats.iterations, resolution)
        })
        .collect();
    assert!(runs[0].1.is_some(), "barrier1 N=3,B=2 resolves");
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "iteration counts and resolutions differ across runs: {runs:?}"
    );
}

#[test]
fn lazyset_answers_match_paper() {
    // §8.2.4: one lock is NOT enough when adds and removes contend
    // (NO), but is enough when removes never race the adds (yes).
    let opts = |w: &Workload| Options {
        config: Config {
            unroll: w.total_inserts() + 3,
            pool: w.total_inserts() + 3,
            ..Config::default()
        },
        ..Options::default()
    };
    let w_no = Workload::parse("ar(ar|ar)").unwrap();
    let out = Synthesis::new(&set_source(SetVariant::Lazy, &w_no), opts(&w_no))
        .unwrap()
        .run();
    assert!(
        !out.resolved() && out.definitely_unresolvable,
        "mixed adds/removes must answer NO"
    );

    let w_yes = Workload::parse("ar(aa|rr)").unwrap();
    let out = Synthesis::new(&set_source(SetVariant::Lazy, &w_yes), opts(&w_yes))
        .unwrap()
        .run();
    assert!(out.resolved(), "segregated adds/removes must resolve");
}

#[test]
fn dining_philosophers_policy_is_deadlock_free() {
    let src = dinphilo_source(PhiloVariant::Sketch, 3, 1);
    let opts = Options {
        config: Config {
            hole_width: 3,
            unroll: 4,
            pool: 2,
            ..Config::default()
        },
        ..Options::default()
    };
    let s = Synthesis::new(&src, opts).unwrap();
    let out = s.run();
    let r = out.resolution.expect("a policy exists");
    // The policy must break the symmetry: it cannot give all
    // philosophers the same first chopstick side, which the constant
    // alternatives (`true`, `false`) would.
    let eat = s.resolve_function("eat", &r.assignment).unwrap();
    assert!(
        !eat.contains("if (true)") && !eat.contains("if (false)"),
        "symmetric policies deadlock:\n{eat}"
    );
}

#[test]
#[ignore = "runs the full 26-row Figure 9 matrix; use --ignored (release recommended)"]
fn full_figure9_matrix_agrees_with_paper() {
    for run in psketch_repro::suite::figure9_runs() {
        let s = Synthesis::new(&run.source, run.options.clone())
            .unwrap_or_else(|e| panic!("{} [{}]: {e}", run.benchmark, run.test));
        let out = s.run();
        assert_eq!(
            out.resolved(),
            run.expected_resolvable,
            "{} [{}] diverged from the paper",
            run.benchmark,
            run.test
        );
    }
}

/// One pinned CEGIS run: the encoder's and solver's work counters and
/// the verdict, as the plain bit-level encoder produces them.
struct Pin {
    benchmark: &'static str,
    test: &'static str,
    nodes: usize,
    clauses: u64,
    decisions: u64,
    conflicts: u64,
    iterations: usize,
    resolved: bool,
}

/// The synthesizer's fast paths (word-level constant folding, direct
/// access at constant indices, the flat clause arena) may skip work but
/// never reshape it: the same AIG, the same CNF and the same solver
/// search. These counters pin that on a fine-grained set, a barrier and
/// the lazyset NO row; any drift means a fast path built a different
/// circuit or changed the search.
#[test]
fn encoder_and_solver_counters_are_pinned() {
    let pins = [
        Pin {
            benchmark: "fineset2",
            test: "ar(ar|ar)",
            nodes: 334924,
            clauses: 942055,
            decisions: 614,
            conflicts: 51,
            iterations: 8,
            resolved: true,
        },
        Pin {
            benchmark: "barrier1",
            test: "N=3,B=2",
            nodes: 5219,
            clauses: 13471,
            decisions: 475,
            conflicts: 115,
            iterations: 7,
            resolved: true,
        },
        Pin {
            benchmark: "lazyset",
            test: "ar(ar|ar)",
            nodes: 117022,
            clauses: 328303,
            decisions: 1176,
            conflicts: 480,
            iterations: 3,
            resolved: false,
        },
    ];
    let runs = figure9_runs();
    let mut drift = Vec::new();
    for pin in &pins {
        let run = runs
            .iter()
            .find(|r| r.benchmark == pin.benchmark && r.test == pin.test)
            .unwrap_or_else(|| panic!("{} [{}] is a Figure 9 row", pin.benchmark, pin.test));
        let out = Synthesis::new(&run.source, run.options.clone())
            .unwrap()
            .run();
        assert!(
            out.resolved() || out.definitely_unresolvable,
            "{} [{}] reached no verdict",
            pin.benchmark,
            pin.test
        );
        let st = &out.stats;
        let got = (
            st.synth_nodes,
            st.sat_clauses,
            st.sat_decisions,
            st.sat_conflicts,
            st.iterations,
            out.resolved(),
        );
        let want = (
            pin.nodes,
            pin.clauses,
            pin.decisions,
            pin.conflicts,
            pin.iterations,
            pin.resolved,
        );
        if got != want {
            drift.push(format!(
                "{} [{}]: (nodes, clauses, decisions, conflicts, iterations, resolved) = {got:?}, pinned {want:?}",
                pin.benchmark, pin.test
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "encoder output drifted:\n{}",
        drift.join("\n")
    );
}
