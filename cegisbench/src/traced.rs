//! The traced driver: the default CEGIS loop of `Synthesis::run`
//! (harness mode, one candidate per iteration, one search thread,
//! compile + reseal, schedule-bank prescreen, exhaustive check),
//! replayed here through each layer's public functions so that every
//! call is timed from outside the program.
//!
//! Every layer call that `Synthesis::new` and `Synthesis::run` make is
//! made here in the same order with the same arguments, so the driver
//! reaches the same verdict, iteration count and explored-state total.
//! Only `Synthesis::run`'s own bookkeeping (iteration records, the run
//! report) is left out. The one extra call is a second `project()` of
//! each trace, timed as `symbolic.project_s`; `add_trace` repeats that
//! projection inside.

use crate::{mib, Verdict};
use psketch_core::{mem, Options, VerifierKind};
use psketch_exec::{check_compiled, CompiledProgram, ScheduleBank, SearchLimits};
use psketch_ir::{desugar, lower, resolve};
use psketch_symbolic::{project, CandidateBatch, Synthesizer};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer totals of traced runs. Times are seconds; everything else
/// is a count. Totals add: merging two runs sums every field.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub wall_s: f64,
    pub lang_check_s: f64,
    pub ir_desugar_s: f64,
    pub ir_lower_s: f64,
    pub ir_steps: f64,
    pub ir_holes: f64,
    pub ir_space: f64,
    pub symbolic_init_s: f64,
    pub symbolic_project_s: f64,
    pub symbolic_project_steps: f64,
    pub symbolic_add_trace_s: f64,
    pub symbolic_traces: f64,
    pub symbolic_nodes: f64,
    pub symbolic_rss_growth_mib: f64,
    pub sat_solve_s: f64,
    pub sat_calls: f64,
    pub sat_decisions: f64,
    pub sat_propagations: f64,
    pub sat_conflicts: f64,
    pub sat_learnts: f64,
    pub sat_clauses: f64,
    pub exec_seal_s: f64,
    pub exec_threads_reused: f64,
    pub exec_prescreen_s: f64,
    pub exec_prescreen_calls: f64,
    pub exec_prescreen_hits: f64,
    pub exec_prescreen_replays: f64,
    pub exec_check_s: f64,
    pub exec_check_calls: f64,
    pub exec_states: f64,
    pub exec_transitions: f64,
    pub exec_states_pruned: f64,
    pub teardown_s: f64,
    pub iterations: f64,
}

impl Layers {
    /// Time spent inside timed layer calls.
    pub fn attributed_s(&self) -> f64 {
        self.lang_check_s
            + self.ir_desugar_s
            + self.ir_lower_s
            + self.symbolic_init_s
            + self.symbolic_project_s
            + self.symbolic_add_trace_s
            + self.sat_solve_s
            + self.exec_seal_s
            + self.exec_prescreen_s
            + self.exec_check_s
            + self.teardown_s
    }

    /// Adds `o` into `self`, field by field.
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            wall_s,
            lang_check_s,
            ir_desugar_s,
            ir_lower_s,
            ir_steps,
            ir_holes,
            ir_space,
            symbolic_init_s,
            symbolic_project_s,
            symbolic_project_steps,
            symbolic_add_trace_s,
            symbolic_traces,
            symbolic_nodes,
            symbolic_rss_growth_mib,
            sat_solve_s,
            sat_calls,
            sat_decisions,
            sat_propagations,
            sat_conflicts,
            sat_learnts,
            sat_clauses,
            exec_seal_s,
            exec_threads_reused,
            exec_prescreen_s,
            exec_prescreen_calls,
            exec_prescreen_hits,
            exec_prescreen_replays,
            exec_check_s,
            exec_check_calls,
            exec_states,
            exec_transitions,
            exec_states_pruned,
            teardown_s,
            iterations
        );
    }
}

/// One traced verdict.
pub struct Traced {
    pub verdict: Verdict,
    pub iterations: usize,
    pub states: usize,
    /// Some trace had a deadlock set of two or more steps. The
    /// synthesizer encodes that set in the iteration order of a
    /// `std::collections::HashSet`, which differs from run to run, so
    /// the circuit, and with it the solver's path, may differ too. A
    /// run with no such trace is a deterministic function of its input.
    pub order_sensitive: bool,
    pub layers: Layers,
}

/// Times one call, adding its duration to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Runs one sketch to a verdict through the layers' public functions.
///
/// # Errors
///
/// A front-end error, or options the driver does not replay (anything
/// but the default harness-mode, single-thread, single-candidate loop).
pub fn run(source: &str, options: &Options) -> Result<Traced, String> {
    let d = Options::default();
    if options.threads != 1
        || options.portfolio != 1
        || options.verifier != VerifierKind::Exhaustive
        || options.mode.is_some()
        || options.wall_timeout.is_some()
        || options.state_budget.is_some()
        || options.memory_budget.is_some()
        || (
            options.por,
            options.symmetry,
            options.prescreen,
            options.compile,
        ) != (d.por, d.symmetry, d.prescreen, d.compile)
    {
        return Err("the traced driver replays only the default CEGIS options".into());
    }
    let cfg = &options.config;
    let mut m = Layers::default();
    let t0 = Instant::now();

    // Set-up: what `Synthesis::new` does, one layer call at a time.
    let program = timed(&mut m.lang_check_s, || psketch_lang::check_program(source))
        .map_err(|e| e.to_string())?;
    let (sketch, holes) = timed(&mut m.ir_desugar_s, || {
        desugar::desugar_program(&program, cfg)
    })
    .map_err(|e| e.to_string())?;
    if sketch.harness().is_none() {
        return Err("the traced driver replays only harness-mode sketches".into());
    }
    let lowered = timed(&mut m.ir_lower_s, || {
        lower::lower_program(&sketch, holes, cfg)
    })
    .map_err(|e| e.to_string())?;
    m.ir_steps = lowered.total_steps() as f64;
    m.ir_holes = lowered.holes.num_holes() as f64;
    m.ir_space = lowered.holes.candidate_space() as f64;

    // The CEGIS loop of `Synthesis::run_report` with portfolio 1.
    let mut synth = timed(&mut m.symbolic_init_s, || Synthesizer::new(&lowered));
    let cancel = Arc::new(AtomicBool::new(false));
    synth.set_limits(None, Some(cancel.clone()));
    let bank = ScheduleBank::new(options.bank_capacity);
    let limits = SearchLimits {
        max_states: options.max_states,
        deadline: None,
        cancel: Some(cancel),
        por: options.por,
        symmetry: options.symmetry,
        compile: options.compile,
    };
    let mut prev: Option<CompiledProgram<'_>> = None;
    let mut iterations = 0usize;
    let mut states = 0usize;
    let mut verdict = Verdict::Unknown;
    let mut order_sensitive = false;
    while iterations < options.max_iterations {
        m.sat_calls += 1.0;
        let candidate = match timed(&mut m.sat_solve_s, || synth.next_candidates(1)) {
            CandidateBatch::Found(mut v) => v.swap_remove(0),
            CandidateBatch::Exhausted => {
                verdict = Verdict::No;
                break;
            }
            CandidateBatch::Interrupted => break,
        };
        iterations += 1;
        let cp = timed(&mut m.exec_seal_s, || match &prev {
            Some(p) => CompiledProgram::reseal(p, &lowered, &candidate),
            None => CompiledProgram::compile(&lowered, &candidate),
        });
        m.exec_threads_reused += cp.threads_reused() as f64;
        m.exec_prescreen_calls += 1.0;
        let (hit, bs) = timed(&mut m.exec_prescreen_s, || bank.prescreen_compiled(&cp));
        m.exec_prescreen_replays += bs.replays as f64;
        let cex = match hit {
            Some(cex) => {
                m.exec_prescreen_hits += 1.0;
                cex
            }
            None => {
                m.exec_check_calls += 1.0;
                let out = timed(&mut m.exec_check_s, || check_compiled(&cp, &limits));
                states += out.stats.states;
                m.exec_transitions += out.stats.transitions as f64;
                m.exec_states_pruned += out.stats.states_pruned as f64;
                match out.verdict {
                    psketch_exec::Verdict::Pass => {
                        let resolved = resolve::resolve_program(&sketch, &candidate);
                        std::hint::black_box(psketch_lang::pretty::print_program(&resolved));
                        verdict = Verdict::Resolved(candidate);
                        break;
                    }
                    psketch_exec::Verdict::Fail(cex) => {
                        bank.record(&cex.schedule);
                        cex
                    }
                    psketch_exec::Verdict::Unknown(_) => break,
                }
            }
        };
        prev = Some(cp);
        order_sensitive |= cex.deadlock.len() > 1;
        let order = timed(&mut m.symbolic_project_s, || project(&lowered, &cex));
        m.symbolic_project_steps += order.len() as f64;
        let rss0 = mib(mem::current_rss_bytes());
        timed(&mut m.symbolic_add_trace_s, || synth.add_trace(&cex));
        m.symbolic_rss_growth_mib += mib(mem::current_rss_bytes()) - rss0;
    }
    let sat = synth.solver_stats();
    m.sat_decisions = sat.decisions as f64;
    m.sat_propagations = sat.propagations as f64;
    m.sat_conflicts = sat.conflicts as f64;
    m.sat_learnts = sat.learnts as f64;
    m.sat_clauses = sat.clauses as f64;
    m.symbolic_traces = synth.stats.observations as f64;
    m.symbolic_nodes = synth.stats.nodes as f64;
    m.exec_states = states as f64;
    m.iterations = iterations as f64;
    // `Synthesis::run` frees the circuit, the solver and the last
    // artifact before it returns; so does the traced run.
    timed(&mut m.teardown_s, || drop((synth, prev, bank)));
    m.wall_s = t0.elapsed().as_secs_f64();
    Ok(Traced {
        verdict,
        iterations,
        states,
        order_sensitive,
        layers: m,
    })
}
