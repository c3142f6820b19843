//! The CEGIS driver.

use crate::mem;
use crate::telemetry::{BudgetKind, BudgetTrip, IterationRecord, RunReport};
use psketch_exec::{
    check_parallel_compiled, random_run_compiled, CexTrace, CompiledProgram, FailureKind,
    Interrupt, ScheduleBank, SearchLimits, Verdict,
};
use psketch_ir::{desugar, lower, resolve, Assignment, Config, Lowered};
use psketch_lang::ast::Program;
use psketch_lang::{SourceError, SourceResult};
use psketch_symbolic::{verify_sequential_limits, CandidateBatch, SeqVerify, Synthesizer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a sketch is specified (paper §4.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Assertion-based: a `harness` drives the program; correctness =
    /// no assertion failure / memory error / deadlock on any input
    /// and interleaving. The verifier is the model checker.
    Harness,
    /// Behavioural equivalence of the named function with its
    /// `implements` specification on all (bounded) inputs. The
    /// verifier is SAT-based; observations are inputs (§5).
    Equivalence(String),
}

/// How candidates are verified in harness mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifierKind {
    /// Exhaustive explicit-state search over all interleavings.
    Exhaustive,
    /// Hybrid: try `samples` random schedules first (cheap
    /// refutation), then confirm survivors exhaustively. Never accepts
    /// a wrong candidate; on large state spaces most CEGIS iterations
    /// skip the exhaustive search.
    Hybrid {
        /// Random schedules per candidate before the exhaustive pass.
        samples: usize,
    },
}

/// Synthesis options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Lowering/bounding configuration.
    pub config: Config,
    /// Give up after this many CEGIS iterations.
    pub max_iterations: usize,
    /// Model-checker state limit per verification call.
    pub max_states: usize,
    /// Explicit mode; `None` auto-detects (harness if present,
    /// otherwise the unique `implements` function).
    pub mode: Option<Mode>,
    /// Verification strategy for harness mode.
    pub verifier: VerifierKind,
    /// Search threads inside one verification call: the exhaustive
    /// checker splits its frontier across this many workers, and the
    /// hybrid sampler fans its random schedules across them. `1` (the
    /// default) runs the exact sequential paths.
    pub threads: usize,
    /// Candidates proposed and verified concurrently per CEGIS
    /// iteration (portfolio width). Every refuted candidate's trace is
    /// fed back in one batch. `1` (the default) is classic CEGIS.
    pub portfolio: usize,
    /// Wall-clock budget for the whole run. When it expires, the run
    /// stops cooperatively — the SAT solver, the sequential DFS, the
    /// parallel workers and the schedule sampler all poll the deadline
    /// — and returns unknown with a [`BudgetTrip`] naming the wall
    /// budget. `None` (the default) never times out.
    pub wall_timeout: Option<Duration>,
    /// Cumulative state budget across *all* verification calls of the
    /// run ([`Options::max_states`] bounds each single call). When the
    /// total reaches it, the run returns unknown with a [`BudgetTrip`].
    pub state_budget: Option<usize>,
    /// Resident-set budget in bytes, read from `/proc/self/status` at
    /// the top of every CEGIS iteration and polled by a watchdog thread
    /// in between. Exceeding it stops the run cooperatively (unknown +
    /// [`BudgetTrip`]). Ignored where `/proc` is unavailable.
    pub memory_budget: Option<u64>,
    /// Ample-set partial-order reduction inside the exhaustive checker
    /// (on by default). Sound for every verdict the checker reports;
    /// turn off to force full interleaving expansion (`--no-por`).
    pub por: bool,
    /// Schedule-bank prescreening (on by default): before any sampling
    /// or exhaustive search, each candidate is replayed against the
    /// interleavings that killed earlier candidates ([`ScheduleBank`]).
    /// A hit refutes in O(trace) time; prescreening never accepts, so
    /// turning it off (`--no-prescreen`) changes cost, not verdicts.
    pub prescreen: bool,
    /// Thread-symmetry reduction inside the exhaustive checker (on by
    /// default): permutations of interchangeable workers collapse to
    /// one visited-set entry. Verdict-preserving; counterexample
    /// schedules stay in original thread ids. Sketches with
    /// fork-index-dependent behaviour fall back to identity
    /// canonicalization automatically (`--no-symmetry` forces it).
    pub symmetry: bool,
    /// Maximum schedules the bank retains before evicting the entry
    /// with the fewest kills (`--bank-cap`).
    pub bank_capacity: usize,
    /// Has no effect: every candidate is sealed into a
    /// [`psketch_exec::CompiledProgram`] that the prescreen, the
    /// sampler and the exhaustive checker share. Kept so that code
    /// naming the field still builds; it will be removed.
    pub compile: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            config: Config::default(),
            max_iterations: 200,
            max_states: 20_000_000,
            mode: None,
            verifier: VerifierKind::Exhaustive,
            threads: 1,
            portfolio: 1,
            wall_timeout: None,
            state_budget: None,
            memory_budget: None,
            por: true,
            prescreen: true,
            bank_capacity: 64,
            symmetry: true,
            compile: true,
        }
    }
}

/// Timing and size statistics matching the paper's Figure 9 columns.
#[derive(Clone, Debug, Default)]
pub struct CegisStats {
    /// Number of observations (verifier calls that produced a
    /// counterexample) — the paper's `Itns` counts candidates tried.
    pub iterations: usize,
    /// Synthesizer SAT-solving time (`Ssolve`).
    pub s_solve: Duration,
    /// Synthesizer encoding time (`Smodel`).
    pub s_model: Duration,
    /// Verifier search time (`Vsolve`).
    pub v_solve: Duration,
    /// Front-end + lowering time (`Vmodel`: the paper's model
    /// generation/compilation).
    pub v_model: Duration,
    /// Wall-clock total.
    pub total: Duration,
    /// |C|, the candidate-space size.
    pub candidate_space: u128,
    /// log10 |C| (Figure 10's x axis).
    pub log10_space: f64,
    /// States explored by the model checker (cumulative).
    pub states: usize,
    /// Transitions fired by the model checker (cumulative).
    pub transitions: usize,
    /// Terminal states the model checker reached (cumulative).
    pub terminal_states: usize,
    /// Peak RSS observed at the end of the run, bytes; `None` when the
    /// platform exposes no `/proc/self/status` (report it as "n/a",
    /// not as zero).
    pub peak_memory: Option<u64>,
    /// Synthesizer SAT decisions (cumulative).
    pub sat_decisions: u64,
    /// Synthesizer SAT unit propagations (cumulative).
    pub sat_propagations: u64,
    /// Synthesizer SAT conflicts (cumulative).
    pub sat_conflicts: u64,
    /// Synthesizer SAT restarts (cumulative).
    pub sat_restarts: u64,
    /// Problem clauses in the synthesizer's SAT instance at the end.
    pub sat_clauses: u64,
    /// Circuit nodes in the synthesizer at the end.
    pub synth_nodes: usize,
    /// Trace steps the synthesizer skipped by resuming inside the
    /// prefix a trace's merged order shares with the previous trace's.
    pub resumed_steps: usize,
    /// Trace steps the synthesizer symbolically executed.
    pub evaluated_steps: usize,
    /// Candidates refuted by a sampled schedule before any exhaustive
    /// search (hybrid verifier only).
    pub sampled_refutations: usize,
    /// States first discovered by each checker thread, summed over all
    /// verification calls (one entry for sequential runs).
    pub per_thread_states: Vec<usize>,
    /// Widest batch of candidates verified concurrently in one
    /// iteration (1 for classic CEGIS).
    pub portfolio_width: usize,
    /// Undo-journal cell writes recorded by the checker (cumulative).
    /// The zero-clone engine's analogue of "bytes copied".
    pub journal_writes: u64,
    /// Whole-state copies the checker made (cumulative): one per
    /// stolen work item in parallel searches, zero sequentially.
    pub state_clones: usize,
    /// States whose successor expansion used a proper ample subset of
    /// the enabled workers (partial-order reduction, cumulative).
    pub por_ample_hits: u64,
    /// States where the ample-set construction failed and the checker
    /// fell back to full expansion (cumulative).
    pub por_fallbacks: u64,
    /// Worker expansions skipped at ample states — successors the
    /// reduction proved redundant without visiting (cumulative).
    pub states_pruned: u64,
    /// Duplicate-state hits that arrived with symmetric worker blocks
    /// out of canonical order — revisits the symmetry reduction folded
    /// onto an orbit representative (cumulative). An upper bound on
    /// cross-permutation merges, not an exact merge count.
    pub sym_collapses: u64,
    /// States explored per second of verifier search time
    /// (`states / v_solve`); `0.0` when no search ran.
    pub states_per_sec: f64,
    /// Candidates refuted by a banked schedule before any sampling or
    /// exhaustive search (prescreen hits, cumulative).
    pub prescreen_hits: u64,
    /// Banked schedules replayed by the prescreen pass (cumulative).
    pub prescreen_replays: u64,
    /// Full checker invocations the prescreen made unnecessary —
    /// exactly the hit count; kept as its own column so the ablation
    /// reads directly off the report.
    pub checker_calls_avoided: u64,
    /// Schedule-bank occupancy after the last verification call.
    pub bank_size: u64,
    /// Microseconds spent compiling candidates into sealed execution
    /// artifacts (cumulative).
    pub compile_us: u64,
    /// POR footprint masks the compiled candidates' constants made
    /// strictly tighter than the static analysis (cumulative over
    /// verification calls).
    pub sharpened_masks: u64,
    /// Microseconds spent in incremental reseals (cumulative; included
    /// in `compile_us`, broken out so the fresh-vs-reseal ablation
    /// reads off the report).
    pub reseal_us: u64,
    /// Threads whose sealed micro-op arrays were reused by reference
    /// across iterations instead of recompiled (cumulative).
    pub threads_reused: u64,
}

/// A successful resolution.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The hole values.
    pub assignment: Assignment,
    /// The resolved program, pretty-printed.
    pub source: String,
}

/// The result of a synthesis run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `Some` when the sketch resolved; `None` when it is
    /// unresolvable (the paper's "NO" answers) or iterations ran out.
    pub resolution: Option<Resolution>,
    /// `true` when `None` is a definite "cannot be resolved" rather
    /// than an iteration/state budget exhaustion.
    pub definitely_unresolvable: bool,
    /// Which resource budget stopped the run, when the outcome is
    /// unknown because a budget tripped. `None` on resolve, on
    /// definite unresolvability and on plain iteration exhaustion.
    pub budget_trip: Option<BudgetTrip>,
    /// Statistics.
    pub stats: CegisStats,
}

impl Outcome {
    /// Did the sketch resolve?
    pub fn resolved(&self) -> bool {
        self.resolution.is_some()
    }
}

/// A prepared synthesis problem. Create with [`Synthesis::new`], run
/// with [`Synthesis::run`], or drive iteration-by-iteration with
/// [`Synthesis::enumerate`].
pub struct Synthesis {
    sketch: Program,
    lowered: Lowered,
    mode: Mode,
    options: Options,
    v_model: Duration,
}

impl Synthesis {
    /// Parses, typechecks, desugars and lowers a sketch.
    ///
    /// # Errors
    ///
    /// Any front-end or lowering error, or a mode auto-detection
    /// failure (no harness and no `implements` function).
    pub fn new(source: &str, options: Options) -> SourceResult<Synthesis> {
        let t0 = Instant::now();
        let program = psketch_lang::check_program(source)?;
        let (sketch, holes) = desugar::desugar_program(&program, &options.config)?;
        let mode = match &options.mode {
            Some(m) => m.clone(),
            None => {
                if sketch.harness().is_some() {
                    Mode::Harness
                } else {
                    let impls: Vec<&str> = sketch
                        .functions
                        .iter()
                        .filter(|f| f.implements.is_some())
                        .map(|f| f.name.as_str())
                        .collect();
                    match impls[..] {
                        [one] => Mode::Equivalence(one.to_string()),
                        _ => {
                            return Err(SourceError::new(
                                psketch_lang::error::Phase::Type,
                                Default::default(),
                                "cannot infer mode: add a harness or exactly one \
                                 'implements' function",
                            ))
                        }
                    }
                }
            }
        };
        let lowered = match &mode {
            Mode::Harness => lower::lower_program(&sketch, holes, &options.config)?,
            Mode::Equivalence(f) => lower::lower_equivalence(&sketch, holes, f, &options.config)?,
        };
        Ok(Synthesis {
            sketch,
            lowered,
            mode,
            options,
            v_model: t0.elapsed(),
        })
    }

    /// The desugared sketch.
    pub fn sketch(&self) -> &Program {
        &self.sketch
    }

    /// The lowered program.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The specification mode in use.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// |C| for this sketch (Table 1).
    pub fn candidate_space(&self) -> u128 {
        self.lowered.holes.candidate_space()
    }

    /// Runs the CEGIS loop to completion.
    pub fn run(&self) -> Outcome {
        self.run_report().0
    }

    /// Runs the CEGIS loop to completion and also returns the
    /// machine-readable [`RunReport`]: one [`IterationRecord`] per
    /// candidate tried plus run-level totals, serialisable with
    /// [`RunReport::to_json`].
    ///
    /// Resource budgets ([`Options::wall_timeout`],
    /// [`Options::state_budget`], [`Options::memory_budget`]) are
    /// enforced here: the deadline and a shared cancellation flag are
    /// threaded into the SAT solver and every checker search, wall and
    /// RSS are checked synchronously at the top of every iteration, and
    /// a watchdog thread polls them in between so even a phase that
    /// makes no progress is cancelled. An over-budget run always
    /// terminates with an unknown [`Outcome`] whose `budget_trip` names
    /// the budget and the phase; partial statistics stay intact.
    pub fn run_report(&self) -> (Outcome, RunReport) {
        let t0 = Instant::now();
        let mut stats = CegisStats {
            v_model: self.v_model,
            candidate_space: self.lowered.holes.candidate_space(),
            log10_space: self.lowered.holes.log10_candidate_space(),
            ..CegisStats::default()
        };
        let mut records: Vec<IterationRecord> = Vec::new();
        let mut synth = Synthesizer::new(&self.lowered);
        let mut resolution = None;
        let mut definitely_unresolvable = false;
        let width = self.options.portfolio.max(1);

        // One bank for the whole run: schedules found in any iteration
        // (by any portfolio worker) prescreen every later candidate.
        let bank = (self.options.prescreen && self.mode == Mode::Harness)
            .then(|| ScheduleBank::new(self.options.bank_capacity));

        let deadline = self.options.wall_timeout.map(|d| t0 + d);
        let cancel = Arc::new(AtomicBool::new(false));
        let trip: Mutex<Option<BudgetTrip>> = Mutex::new(None);
        let done = AtomicBool::new(false);
        synth.set_limits(deadline, Some(cancel.clone()));

        // The most recent iteration's sealed artifact. Successive CDCL
        // models differ in few hole values, so each verification
        // reseals against this instead of compiling from scratch —
        // threads whose holes kept their values reuse their micro-op
        // arrays, footprints and (when no worker changed) POR and
        // symmetry tables by reference. Cloning in/out is Arc-cheap.
        let prev_artifact: Mutex<Option<CompiledProgram<'_>>> = Mutex::new(None);

        let memory_budget = self.options.memory_budget;
        std::thread::scope(|scope| {
            let mut watchdog = deadline.is_some() || memory_budget.is_some();
            let mut batch_no = 0usize;
            'cegis: while stats.iterations < self.options.max_iterations {
                if cancel.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(t) = poll_budgets(deadline, memory_budget, ITERATION_PHASE) {
                    set_trip(&trip, t);
                    break;
                }
                // Spawned only after the first synchronous check, so a
                // budget already exceeded at the start always trips
                // there, never in a race with the watchdog.
                if std::mem::take(&mut watchdog) {
                    let (cancel, trip, done) = (&cancel, &trip, &done);
                    scope.spawn(move || {
                        while !done.load(Ordering::Relaxed) {
                            if let Some(t) = poll_budgets(deadline, memory_budget, "watchdog") {
                                set_trip(trip, t);
                                cancel.store(true, Ordering::Relaxed);
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    });
                }
                // Each call's state limit is the per-call max, shrunk
                // to whatever remains of the cumulative budget.
                let remaining = self
                    .options
                    .state_budget
                    .map(|b| b.saturating_sub(stats.states));
                if remaining == Some(0) {
                    set_trip(
                        &trip,
                        BudgetTrip::new(
                            BudgetKind::States,
                            "verify",
                            format!(
                                "state budget {} exhausted",
                                self.options.state_budget.unwrap_or(0)
                            ),
                        ),
                    );
                    break;
                }
                let limits = SearchLimits {
                    max_states: remaining
                        .map_or(self.options.max_states, |r| r.min(self.options.max_states)),
                    deadline,
                    cancel: Some(cancel.clone()),
                    por: self.options.por,
                    symmetry: self.options.symmetry,
                    ..SearchLimits::default()
                };
                let k = width.min(self.options.max_iterations - stats.iterations);
                let candidates = match synth.next_candidates(k) {
                    CandidateBatch::Found(v) => v,
                    CandidateBatch::Exhausted => {
                        definitely_unresolvable = true;
                        break;
                    }
                    CandidateBatch::Interrupted => {
                        set_trip(
                            &trip,
                            BudgetTrip::new(
                                BudgetKind::Wall,
                                "synthesize",
                                "SAT solve interrupted",
                            ),
                        );
                        break;
                    }
                };
                let base = stats.iterations;
                batch_no += 1;
                let batch_width = candidates.len();
                stats.iterations += batch_width;
                stats.portfolio_width = stats.portfolio_width.max(batch_width);
                let trace_set = synth.stats.observations;
                let tv = Instant::now();
                let results = self.verify_batch(
                    &candidates,
                    base,
                    &limits,
                    bank.as_ref(),
                    Some(&prev_artifact),
                );
                stats.v_solve += tv.elapsed();
                for (_, effort) in &results {
                    stats.merge_effort(effort);
                }
                // A correct candidate wins; otherwise every trace
                // feeds back as one observation batch. Portfolio
                // siblings often die on the same interleaving, and the
                // trace projection is candidate-independent, so
                // identical traces within the batch are encoded once.
                let mut unknown: Option<Interrupt> = None;
                let mut fed: std::collections::HashSet<TraceKey> = std::collections::HashSet::new();
                for (ix, (candidate, (result, effort))) in
                    candidates.into_iter().zip(results).enumerate()
                {
                    records.push(IterationRecord {
                        iteration: base + ix + 1,
                        batch: batch_no,
                        batch_width,
                        candidate: candidate.values().to_vec(),
                        verdict: match &result {
                            VerifyResult::Correct => "correct".to_string(),
                            VerifyResult::Trace(_) => "trace".to_string(),
                            VerifyResult::Input(_) => "input".to_string(),
                            VerifyResult::Unknown(why) => format!("unknown:{}", why.label()),
                        },
                        trace_set,
                        v_solve_secs: effort.duration.as_secs_f64(),
                        states: effort.states,
                        transitions: effort.transitions,
                        terminal_states: effort.terminal_states,
                        sampled_refutation: effort.sampled_refutation,
                        per_thread_states: effort.per_thread_states,
                        journal_writes: effort.journal_writes,
                        state_clones: effort.state_clones,
                        por_ample_hits: effort.por_ample_hits,
                        por_fallbacks: effort.por_fallbacks,
                        states_pruned: effort.states_pruned,
                        sym_collapses: effort.sym_collapses,
                        prescreen_hit: effort.prescreen_hit,
                        prescreen_replays: effort.prescreen_replays,
                        bank_size: effort.bank_size,
                        compile_us: effort.compile_us,
                        sharpened_masks: effort.sharpened_masks,
                        reseal_us: effort.reseal_us,
                        threads_reused: effort.threads_reused,
                    });
                    match result {
                        VerifyResult::Correct => {
                            let resolved = resolve::resolve_program(&self.sketch, &candidate);
                            resolution = Some(Resolution {
                                assignment: candidate,
                                source: psketch_lang::pretty::print_program(&resolved),
                            });
                            break 'cegis;
                        }
                        VerifyResult::Trace(cex) => {
                            if fed.insert(trace_key(&cex)) && !synth.add_trace(&cex) {
                                set_trip(
                                    &trip,
                                    BudgetTrip::new(
                                        BudgetKind::Wall,
                                        "synthesize",
                                        "trace encoding interrupted",
                                    ),
                                );
                                break 'cegis;
                            }
                        }
                        VerifyResult::Input(x) => synth.add_input(&x),
                        VerifyResult::Unknown(why) => unknown = Some(why),
                    }
                }
                if let Some(why) = unknown {
                    set_trip(&trip, self.interrupt_trip(why, &limits));
                    break;
                }
                if let Some(budget) = self.options.state_budget {
                    if stats.states >= budget {
                        set_trip(
                            &trip,
                            BudgetTrip::new(
                                BudgetKind::States,
                                "verify",
                                format!("state budget {budget} exhausted"),
                            ),
                        );
                        break;
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
        });

        stats.s_solve = synth.stats.solve_time;
        stats.s_model = synth.stats.encode_time;
        stats.synth_nodes = synth.stats.nodes;
        stats.resumed_steps = synth.stats.resumed_steps;
        stats.evaluated_steps = synth.stats.evaluated_steps;
        let sat = synth.solver_stats();
        stats.sat_decisions = sat.decisions;
        stats.sat_propagations = sat.propagations;
        stats.sat_conflicts = sat.conflicts;
        stats.sat_restarts = sat.restarts;
        stats.sat_clauses = sat.clauses;
        stats.total = t0.elapsed();
        stats.peak_memory = mem::peak_rss_bytes();
        let v_secs = stats.v_solve.as_secs_f64();
        stats.states_per_sec = if v_secs > 0.0 {
            stats.states as f64 / v_secs
        } else {
            0.0
        };
        // A budget that tripped while the run nonetheless concluded
        // (resolved, or proved unresolvable) did not stop anything:
        // the trip is only reported on unknown outcomes.
        let budget_trip = if resolution.is_some() || definitely_unresolvable {
            None
        } else {
            trip.into_inner().unwrap()
        };
        let outcome = Outcome {
            resolution,
            definitely_unresolvable,
            budget_trip,
            stats,
        };
        let report = self.build_report(&outcome, records);
        (outcome, report)
    }

    /// Maps a checker interrupt to the budget that caused it.
    fn interrupt_trip(&self, why: Interrupt, limits: &SearchLimits) -> BudgetTrip {
        match why {
            Interrupt::StateLimit => {
                let detail = if limits.max_states < self.options.max_states {
                    format!(
                        "state budget {} exhausted mid-search",
                        self.options.state_budget.unwrap_or(0)
                    )
                } else {
                    format!("per-call max_states limit {} hit", self.options.max_states)
                };
                BudgetTrip::new(BudgetKind::States, "verify", detail)
            }
            Interrupt::Deadline => {
                BudgetTrip::new(BudgetKind::Wall, "verify", "wall deadline passed in search")
            }
            // Cancellation originates in the watchdog, whose own trip
            // (wall or memory) was recorded first and wins.
            Interrupt::Cancelled => BudgetTrip::new(BudgetKind::Wall, "verify", "search cancelled"),
        }
    }

    fn build_report(&self, outcome: &Outcome, records: Vec<IterationRecord>) -> RunReport {
        let st = &outcome.stats;
        RunReport {
            schema: RunReport::SCHEMA,
            resolvable: if outcome.resolved() {
                "yes"
            } else if outcome.definitely_unresolvable {
                "NO"
            } else {
                "unknown"
            }
            .to_string(),
            resolution: outcome
                .resolution
                .as_ref()
                .map(|r| r.assignment.values().to_vec()),
            budget_trip: outcome.budget_trip.clone(),
            iterations: st.iterations,
            total_secs: st.total.as_secs_f64(),
            s_solve_secs: st.s_solve.as_secs_f64(),
            s_model_secs: st.s_model.as_secs_f64(),
            v_solve_secs: st.v_solve.as_secs_f64(),
            v_model_secs: st.v_model.as_secs_f64(),
            candidate_space: st.candidate_space.to_string(),
            log10_space: st.log10_space,
            states: st.states,
            transitions: st.transitions,
            terminal_states: st.terminal_states,
            peak_memory: st.peak_memory,
            synth_nodes: st.synth_nodes,
            resumed_steps: st.resumed_steps,
            evaluated_steps: st.evaluated_steps,
            sampled_refutations: st.sampled_refutations,
            portfolio_width: st.portfolio_width,
            per_thread_states: st.per_thread_states.clone(),
            journal_writes: st.journal_writes,
            state_clones: st.state_clones,
            por_ample_hits: st.por_ample_hits,
            por_fallbacks: st.por_fallbacks,
            states_pruned: st.states_pruned,
            sym_collapses: st.sym_collapses,
            states_per_sec: st.states_per_sec,
            prescreen_hits: st.prescreen_hits,
            prescreen_replays: st.prescreen_replays,
            checker_calls_avoided: st.checker_calls_avoided,
            bank_size: st.bank_size,
            compile_us: st.compile_us,
            sharpened_masks: st.sharpened_masks,
            reseal_us: st.reseal_us,
            threads_reused: st.threads_reused,
            sat_decisions: st.sat_decisions,
            sat_propagations: st.sat_propagations,
            sat_conflicts: st.sat_conflicts,
            sat_restarts: st.sat_restarts,
            records,
        }
    }

    /// Limits for verification calls made outside [`Synthesis::run`]
    /// (no wall deadline, no cancellation — just the per-call cap).
    fn base_limits(&self) -> SearchLimits {
        SearchLimits {
            por: self.options.por,
            symmetry: self.options.symmetry,
            ..SearchLimits::states(self.options.max_states)
        }
    }

    /// Verifies one candidate, returning its counterexample if any.
    /// Exposed for tests and tooling.
    pub fn verify_candidate(&self, candidate: &Assignment) -> Option<CexTrace> {
        match self
            .verify_once(candidate, 0, &self.base_limits(), None, None)
            .0
        {
            VerifyResult::Trace(t) => Some(t),
            _ => None,
        }
    }

    /// Verifies a batch of candidates, concurrently when the batch has
    /// more than one. `base` is the iteration count before this batch
    /// (seeds the hybrid sampler exactly as sequential CEGIS would).
    fn verify_batch<'s>(
        &'s self,
        candidates: &[Assignment],
        base: usize,
        limits: &SearchLimits,
        bank: Option<&ScheduleBank>,
        prev: Option<&Mutex<Option<CompiledProgram<'s>>>>,
    ) -> Vec<(VerifyResult, VerifyEffort)> {
        match candidates {
            [one] => vec![self.verify_once(one, base + 1, limits, bank, prev)],
            many => std::thread::scope(|scope| {
                let handles: Vec<_> = many
                    .iter()
                    .enumerate()
                    .map(|(ix, c)| {
                        scope.spawn(move || self.verify_once(c, base + ix + 1, limits, bank, prev))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("portfolio verifier thread panicked"))
                    .collect()
            }),
        }
    }

    fn verify_once<'s>(
        &'s self,
        candidate: &Assignment,
        iteration: usize,
        limits: &SearchLimits,
        bank: Option<&ScheduleBank>,
        prev: Option<&Mutex<Option<CompiledProgram<'s>>>>,
    ) -> (VerifyResult, VerifyEffort) {
        let t0 = Instant::now();
        let mut effort = VerifyEffort::default();
        let threads = self.options.threads.max(1);
        let result = match &self.mode {
            Mode::Harness => {
                // Seal once per candidate: the prescreen, the sampler
                // and the exhaustive checker below all share this one
                // artifact. When a previous iteration's artifact is
                // available, reseal incrementally — only threads whose
                // hole values changed re-emit; clones in and out of the
                // slot are Arc-cheap pointer bumps.
                let base =
                    prev.and_then(|m| m.lock().expect("previous-artifact slot poisoned").clone());
                let cp = match &base {
                    Some(p) => CompiledProgram::reseal(p, &self.lowered, candidate),
                    None => CompiledProgram::compile(&self.lowered, candidate),
                };
                if let Some(m) = prev {
                    *m.lock().expect("previous-artifact slot poisoned") = Some(cp.clone());
                }
                effort.compile_us = cp.compile_us();
                effort.reseal_us = cp.reseal_us();
                effort.threads_reused = cp.threads_reused();
                effort.sharpened_masks = cp.sharpened_masks();
                // Prescreen: replay the schedules that killed earlier
                // candidates before paying for any search. A hit is a
                // real execution of *this* candidate, so returning its
                // trace is sound; a miss just falls through.
                if let Some(bank) = bank {
                    let (hit, bs) = bank.prescreen_compiled(&cp);
                    effort.prescreen_replays = bs.replays;
                    effort.bank_size = bs.size;
                    if let Some(cex) = hit {
                        effort.prescreen_hit = true;
                        effort.duration = t0.elapsed();
                        return (VerifyResult::Trace(cex), effort);
                    }
                }
                if let VerifierKind::Hybrid { samples } = self.options.verifier {
                    if let Some(cex) =
                        self.sample_schedules(&cp, iteration, samples, threads, limits)
                    {
                        effort.sampled_refutation = true;
                        effort.duration = t0.elapsed();
                        if let Some(bank) = bank {
                            bank.record(&cex.schedule);
                            effort.bank_size = bank.len() as u64;
                        }
                        return (VerifyResult::Trace(cex), effort);
                    }
                }
                let out = check_parallel_compiled(&cp, limits, threads);
                effort.states = out.stats.states;
                effort.transitions = out.stats.transitions;
                effort.terminal_states = out.stats.terminal_states;
                effort.journal_writes = out.stats.journal_writes;
                effort.state_clones = out.stats.state_clones;
                effort.por_ample_hits = out.stats.por_ample_hits;
                effort.por_fallbacks = out.stats.por_fallbacks;
                effort.states_pruned = out.stats.states_pruned;
                effort.sym_collapses = out.stats.sym_collapses;
                effort.per_thread_states = out.per_thread_states;
                match out.verdict {
                    Verdict::Pass => VerifyResult::Correct,
                    Verdict::Fail(cex) => {
                        if let Some(bank) = bank {
                            bank.record(&cex.schedule);
                            effort.bank_size = bank.len() as u64;
                        }
                        VerifyResult::Trace(cex)
                    }
                    Verdict::Unknown(why) => VerifyResult::Unknown(why),
                }
            }
            Mode::Equivalence(_) => {
                match verify_sequential_limits(
                    &self.lowered,
                    candidate,
                    limits.deadline,
                    limits.cancel.clone(),
                ) {
                    SeqVerify::Equivalent => VerifyResult::Correct,
                    SeqVerify::Counterexample(x) => VerifyResult::Input(x),
                    SeqVerify::Interrupted => {
                        let cancelled = limits
                            .cancel
                            .as_ref()
                            .is_some_and(|c| c.load(Ordering::Relaxed));
                        VerifyResult::Unknown(if cancelled {
                            Interrupt::Cancelled
                        } else {
                            Interrupt::Deadline
                        })
                    }
                }
            }
        };
        effort.duration = t0.elapsed();
        (result, effort)
    }

    /// Hybrid pre-pass: runs `samples` random schedules, fanned across
    /// `threads` workers, cancelling the pack as soon as any schedule
    /// refutes the candidate. Seeds are identical to the sequential
    /// sampler, so `threads = 1` and `threads = N` try the same
    /// schedule set.
    fn sample_schedules(
        &self,
        cp: &CompiledProgram,
        iteration: usize,
        samples: usize,
        threads: usize,
        limits: &SearchLimits,
    ) -> Option<CexTrace> {
        let run = |k: usize| random_run_compiled(cp, (iteration as u64) << 16 | k as u64);
        // Over-budget sampling gives up (returning "no refutation");
        // the exhaustive pass that follows trips immediately and
        // reports the interrupt.
        let tripped = |k: usize| {
            limits
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Relaxed))
                || (k & 7 == 0 && limits.deadline.is_some_and(|d| Instant::now() >= d))
        };
        if threads <= 1 || samples <= 1 {
            for k in 0..samples {
                if tripped(k) {
                    return None;
                }
                if let Some(cex) = run(k) {
                    return Some(cex);
                }
            }
            return None;
        }
        let stop = AtomicBool::new(false);
        let found: Mutex<Option<CexTrace>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for t in 0..threads.min(samples) {
                let stop = &stop;
                let found = &found;
                let tripped = &tripped;
                let run = &run;
                scope.spawn(move || {
                    for k in (t..samples).step_by(threads) {
                        if stop.load(Ordering::Relaxed) || tripped(k) {
                            return;
                        }
                        if let Some(cex) = run(k) {
                            stop.store(true, Ordering::Relaxed);
                            let mut slot = found.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some(cex);
                            }
                            return;
                        }
                    }
                });
            }
        });
        found.into_inner().unwrap()
    }

    /// Enumerates up to `limit` *distinct* correct resolutions.
    ///
    /// The paper (§8.3.1) notes that CEGIS "can trivially produce
    /// multiple correct candidates", to be ranked by an external
    /// autotuner; this is that hook. Each returned resolution is
    /// verified; the search blocks each solution and continues until
    /// the space is exhausted or `limit` is reached.
    pub fn enumerate(&self, limit: usize) -> Vec<Resolution> {
        let mut synth = Synthesizer::new(&self.lowered);
        let mut found = Vec::new();
        let mut iterations = 0;
        while found.len() < limit && iterations < self.options.max_iterations {
            iterations += 1;
            let Some(candidate) = synth.next_candidate() else {
                break;
            };
            match self
                .verify_once(&candidate, iterations, &self.base_limits(), None, None)
                .0
            {
                VerifyResult::Correct => {
                    let resolved = resolve::resolve_program(&self.sketch, &candidate);
                    synth.block(&candidate);
                    found.push(Resolution {
                        assignment: candidate,
                        source: psketch_lang::pretty::print_program(&resolved),
                    });
                }
                VerifyResult::Trace(cex) => {
                    // No limits are installed here: the encoding runs
                    // to the end.
                    synth.add_trace(&cex);
                }
                VerifyResult::Input(x) => synth.add_input(&x),
                VerifyResult::Unknown(_) => break,
            }
        }
        found
    }

    /// Pretty-prints the resolution of one function of the sketch
    /// (e.g. just `Enqueue`, like the paper's Figure 2).
    pub fn resolve_function(&self, name: &str, a: &Assignment) -> Option<String> {
        let f = self.sketch.function(name)?;
        let resolved = resolve::resolve_fn(f, a);
        let mut out = String::new();
        psketch_lang::pretty::print_fn(&mut out, &resolved);
        Some(out)
    }
}

enum VerifyResult {
    Correct,
    Trace(CexTrace),
    Input(Vec<i64>),
    Unknown(Interrupt),
}

/// Search effort of one verification call.
#[derive(Default)]
struct VerifyEffort {
    states: usize,
    transitions: usize,
    terminal_states: usize,
    duration: Duration,
    per_thread_states: Vec<usize>,
    sampled_refutation: bool,
    journal_writes: u64,
    state_clones: usize,
    por_ample_hits: u64,
    por_fallbacks: u64,
    states_pruned: u64,
    sym_collapses: u64,
    prescreen_hit: bool,
    prescreen_replays: u64,
    bank_size: u64,
    compile_us: u64,
    sharpened_masks: u64,
    reseal_us: u64,
    threads_reused: u64,
}

/// Identity of a counterexample for within-batch deduplication: the
/// executed steps, the failure site and the deadlock set pin the
/// symbolic projection completely (the projection is independent of
/// which candidate produced the trace).
type TraceKey = (
    Vec<(usize, usize)>,
    std::mem::Discriminant<FailureKind>,
    usize,
    usize,
    Vec<(usize, usize)>,
);

fn trace_key(cex: &CexTrace) -> TraceKey {
    (
        cex.steps.clone(),
        std::mem::discriminant(&cex.failure.kind),
        cex.failure.tid,
        cex.failure.step,
        cex.deadlock.clone(),
    )
}

/// The phase a budget found exceeded by the synchronous check at the
/// top of a CEGIS iteration is attributed to.
const ITERATION_PHASE: &str = "iteration";

/// Checks the wall deadline, then the resident-set budget, once. The
/// first one exceeded comes back as a trip attributed to `phase`. Both
/// the synchronous check at the top of every CEGIS iteration and the
/// watchdog thread call this.
fn poll_budgets(
    deadline: Option<Instant>,
    memory_budget: Option<u64>,
    phase: &str,
) -> Option<BudgetTrip> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(BudgetTrip::new(
            BudgetKind::Wall,
            phase,
            "wall timeout expired",
        ));
    }
    let budget = memory_budget?;
    (mem::current_rss_bytes()? > budget).then(|| {
        BudgetTrip::new(
            BudgetKind::Memory,
            phase,
            format!("resident set exceeded {budget} bytes"),
        )
    })
}

/// Records the first budget trip; later trips lose.
fn set_trip(slot: &Mutex<Option<BudgetTrip>>, t: BudgetTrip) {
    let mut s = slot.lock().unwrap();
    if s.is_none() {
        *s = Some(t);
    }
}

impl CegisStats {
    fn merge_effort(&mut self, effort: &VerifyEffort) {
        self.states += effort.states;
        self.transitions += effort.transitions;
        self.terminal_states += effort.terminal_states;
        self.journal_writes += effort.journal_writes;
        self.state_clones += effort.state_clones;
        self.por_ample_hits += effort.por_ample_hits;
        self.por_fallbacks += effort.por_fallbacks;
        self.states_pruned += effort.states_pruned;
        self.sym_collapses += effort.sym_collapses;
        if effort.sampled_refutation {
            self.sampled_refutations += 1;
        }
        if effort.prescreen_hit {
            self.prescreen_hits += 1;
            self.checker_calls_avoided += 1;
        }
        self.prescreen_replays += effort.prescreen_replays;
        self.bank_size = self.bank_size.max(effort.bank_size);
        self.compile_us += effort.compile_us;
        self.sharpened_masks += effort.sharpened_masks;
        self.reseal_us += effort.reseal_us;
        self.threads_reused += effort.threads_reused;
        if self.per_thread_states.len() < effort.per_thread_states.len() {
            self.per_thread_states
                .resize(effort.per_thread_states.len(), 0);
        }
        for (acc, n) in self
            .per_thread_states
            .iter_mut()
            .zip(&effort.per_thread_states)
        {
            *acc += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Outcome {
        Synthesis::new(src, Options::default())
            .unwrap_or_else(|e| panic!("{e}"))
            .run()
    }

    #[test]
    fn resolves_constants_and_counts_iterations() {
        let out = run("int g; harness void main() { g = ??(4); assert g == 9; }");
        let r = out.resolution.expect("resolvable");
        assert_eq!(r.assignment.value(0), 9);
        assert!(r.source.contains("g = 9;"), "{}", r.source);
        assert!(out.stats.iterations >= 1);
        assert_eq!(out.stats.candidate_space, 16);
    }

    #[test]
    fn reports_unresolvable() {
        let out = run("int g; harness void main() { g = ??(2); assert g == 9; }");
        assert!(!out.resolved());
        assert!(out.definitely_unresolvable);
    }

    #[test]
    fn concurrent_reorder_synthesis() {
        // Thread-safe counter with a reorder: the lock must be taken
        // before the increment and released after.
        let out = run("struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     int t = 0;
                     reorder {
                         lock(lk);
                         t = g;
                         g = t + 1;
                         unlock(lk);
                     }
                 }
                 assert g == 2;
             }");
        let r = out.resolution.expect("resolvable");
        // Permutation must be lock < read < write < unlock.
        let order: Vec<u64> = (0..4).map(|h| r.assignment.value(h)).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "only the given order works");
    }

    #[test]
    fn equivalence_mode_autodetects() {
        let out = run("int spec(int x) { return x + x; }
             int dbl(int x) implements spec { return x * ??(2); }");
        let r = out.resolution.expect("resolvable");
        assert_eq!(r.assignment.value(0), 2);
        assert!(r.source.contains("x * 2"), "{}", r.source);
    }

    #[test]
    fn resolve_function_prints_single_fn() {
        let s = Synthesis::new(
            "int g; void set() { g = ??(3); } harness void main() { set(); assert g == 5; }",
            Options::default(),
        )
        .unwrap();
        let out = s.run();
        let r = out.resolution.expect("resolvable");
        let printed = s.resolve_function("set", &r.assignment).unwrap();
        assert!(printed.contains("g = 5;"), "{printed}");
        assert!(!printed.contains("main"));
    }

    #[test]
    fn stats_populate_figure9_columns() {
        let out = run("int g;
             harness void main() {
                 fork (i; 2) { int old = AtomicReadAndIncr(g); }
                 assert g == ??(2);
             }");
        assert!(out.resolved());
        let st = &out.stats;
        assert!(st.total >= st.s_solve);
        assert!(st.candidate_space == 4);
        assert!(st.log10_space > 0.0);
        if cfg!(target_os = "linux") {
            assert!(st.peak_memory.unwrap_or(0) > 0);
        }
        assert!(st.transitions > 0, "checker must fire transitions");
        assert!(st.sat_propagations > 0, "solver counters must flow through");
        assert!(st.journal_writes > 0, "undo engine must record writes");
        assert_eq!(st.state_clones, 0, "sequential search never clones");
        assert!(st.states_per_sec > 0.0, "throughput must be derived");
    }

    #[test]
    fn run_report_records_every_iteration() {
        let s = Synthesis::new(
            "int g; harness void main() { g = ??(3); assert g == 5; }",
            Options::default(),
        )
        .unwrap();
        let (out, report) = s.run_report();
        assert!(out.resolved());
        assert!(out.budget_trip.is_none());
        assert_eq!(report.schema, crate::telemetry::RunReport::SCHEMA);
        assert_eq!(report.resolvable, "yes");
        assert_eq!(report.resolution, Some(vec![5]));
        assert_eq!(report.records.len(), out.stats.iterations);
        let last = report.records.last().unwrap();
        assert_eq!(last.verdict, "correct");
        assert_eq!(last.candidate, vec![5]);
        // Observation sets only grow along the run.
        let sets: Vec<usize> = report.records.iter().map(|r| r.trace_set).collect();
        assert!(sets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn wall_timeout_returns_unknown_with_trip() {
        let opts = Options {
            wall_timeout: Some(Duration::ZERO),
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g == ??(2);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        assert!(!out.definitely_unresolvable);
        let trip = out.budget_trip.expect("wall budget must trip");
        assert_eq!(trip.budget, BudgetKind::Wall);
    }

    #[test]
    fn state_budget_returns_unknown_with_trip() {
        let opts = Options {
            state_budget: Some(2),
            ..Options::default()
        };
        // 3 racing unsynchronised increments: far more than 2 states.
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g >= ??(1);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        let trip = out.budget_trip.expect("state budget must trip");
        assert_eq!(trip.budget, BudgetKind::States);
        assert_eq!(trip.phase, "verify");
        assert!(out.stats.states <= 2, "partial stats respect the budget");
    }

    #[test]
    fn memory_budget_returns_unknown_with_trip() {
        if mem::current_rss_bytes().is_none() {
            return; // No /proc: the memory budget is inert.
        }
        let opts = Options {
            memory_budget: Some(1), // Any process exceeds one byte.
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 3) { int t = g; g = t + 1; }
                 assert g == ??(2);
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        let trip = out.budget_trip.expect("memory budget must trip");
        assert_eq!(trip.budget, BudgetKind::Memory);
        // The synchronous check before the first iteration trips it,
        // before the watchdog thread exists.
        assert_eq!(trip.phase, ITERATION_PHASE);
        assert_eq!(out.stats.iterations, 0);
    }

    #[test]
    fn poll_budgets_reports_the_exceeded_budget() {
        let past = Instant::now() - Duration::from_millis(1);
        let future = Instant::now() + Duration::from_secs(3600);
        assert_eq!(poll_budgets(None, None, "p"), None);
        assert_eq!(poll_budgets(Some(future), None, "p"), None);
        let wall = poll_budgets(Some(past), None, "p").expect("deadline passed");
        assert_eq!((wall.budget, wall.phase.as_str()), (BudgetKind::Wall, "p"));
        // The deadline is checked first.
        let both = poll_budgets(Some(past), Some(1), "q").expect("deadline passed");
        assert_eq!(both.budget, BudgetKind::Wall);
        if mem::current_rss_bytes().is_none() {
            return; // No /proc: the memory budget is inert.
        }
        assert_eq!(poll_budgets(Some(future), Some(u64::MAX), "p"), None);
        let rss = poll_budgets(Some(future), Some(1), "r").expect("any process exceeds a byte");
        assert_eq!((rss.budget, rss.phase.as_str()), (BudgetKind::Memory, "r"));
    }

    #[test]
    fn budget_trip_absent_on_conclusive_runs() {
        // Generous budgets must not alter conclusive outcomes.
        let opts = Options {
            wall_timeout: Some(Duration::from_secs(600)),
            state_budget: Some(10_000_000),
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g == 9; }",
            opts,
        )
        .unwrap()
        .run();
        assert!(out.definitely_unresolvable);
        assert!(out.budget_trip.is_none());
    }

    #[test]
    fn iteration_budget_respected() {
        let opts = Options {
            max_iterations: 1,
            ..Options::default()
        };
        // Resolvable, but likely needs >1 iteration; must not loop.
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }",
            opts,
        )
        .unwrap()
        .run();
        assert!(out.stats.iterations <= 1);
        assert!(!out.definitely_unresolvable || out.resolved() || out.stats.iterations == 1);
    }

    #[test]
    fn enumerate_finds_all_solutions() {
        // g = ??(2), assert g < 3: solutions {0, 1, 2}.
        let s = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g < 3; }",
            Options::default(),
        )
        .unwrap();
        let all = s.enumerate(10);
        let mut values: Vec<u64> = all.iter().map(|r| r.assignment.value(0)).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
        // Limit respected.
        assert_eq!(s.enumerate(2).len(), 2);
    }

    #[test]
    fn enumerate_distinct_reorderings() {
        // Two commuting statements: both orders are correct and both
        // must be enumerated (the paper's autotuning motivation:
        // candidates with incomparable performance).
        let s = Synthesis::new(
            "int g; int h;
             harness void main() {
                 reorder { g = 1; h = 2; }
                 assert g == 1 && h == 2;
             }",
            Options::default(),
        )
        .unwrap();
        let all = s.enumerate(10);
        assert_eq!(all.len(), 2, "both orders are correct");
        assert_ne!(all[0].assignment, all[1].assignment);
    }

    #[test]
    fn parallel_and_portfolio_agree_with_sequential() {
        let src = "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }";
        let sequential = run(src);
        for (threads, portfolio) in [(4, 1), (1, 3), (4, 3)] {
            let opts = Options {
                threads,
                portfolio,
                ..Options::default()
            };
            let out = Synthesis::new(src, opts).unwrap().run();
            let r = out.resolution.expect("resolvable with threads/portfolio");
            assert_eq!(
                r.assignment,
                sequential.resolution.as_ref().unwrap().assignment,
                "threads={threads} portfolio={portfolio}"
            );
            if portfolio > 1 {
                assert!(out.stats.portfolio_width > 1);
            }
            if threads > 1 {
                assert!(out.stats.per_thread_states.len() >= threads);
            }
        }
    }

    #[test]
    fn portfolio_reports_unresolvable() {
        let opts = Options {
            portfolio: 4,
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g == 9; }",
            opts,
        )
        .unwrap()
        .run();
        assert!(!out.resolved());
        assert!(out.definitely_unresolvable);
    }

    #[test]
    fn hybrid_sampling_parallel_still_resolves() {
        let opts = Options {
            threads: 4,
            verifier: VerifierKind::Hybrid { samples: 16 },
            ..Options::default()
        };
        let out = Synthesis::new(
            "int g;
             harness void main() {
                 fork (i; 2) {
                     if (??(1) == 0) { int t = g; g = t + 1; }
                     else { int old = AtomicReadAndIncr(g); }
                 }
                 assert g == 2;
             }",
            opts,
        )
        .unwrap()
        .run();
        let r = out.resolution.expect("resolvable");
        assert_eq!(r.assignment.value(0), 1);
    }

    #[test]
    fn prescreen_refutes_repeat_offenders() {
        // Reorder holes change the step sequence, so one candidate's
        // trace projection does not exclude the next candidate — but
        // most wrong permutations die on the same worker interleaving,
        // which is exactly what the schedule bank replays.
        let src = "struct Lock { int owner = -1; }
             Lock lk; int g;
             void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
             void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
             harness void main() {
                 lk = new Lock();
                 fork (i; 2) {
                     int t = 0;
                     reorder {
                         lock(lk);
                         t = g;
                         g = t + 1;
                         unlock(lk);
                     }
                 }
                 assert g == 2;
             }";
        let on = Synthesis::new(src, Options::default()).unwrap().run();
        let off = Synthesis::new(
            src,
            Options {
                prescreen: false,
                ..Options::default()
            },
        )
        .unwrap()
        .run();
        // Prescreening only refutes, never accepts: same resolution.
        let a = on.resolution.expect("resolvable with prescreen");
        let b = off.resolution.expect("resolvable without prescreen");
        assert_eq!(a.assignment, b.assignment);
        assert!(on.stats.prescreen_replays > 0, "bank must be consulted");
        assert!(on.stats.prescreen_hits > 0, "repeat offenders must hit");
        assert_eq!(on.stats.checker_calls_avoided, on.stats.prescreen_hits);
        assert!(on.stats.bank_size > 0);
        assert_eq!(off.stats.prescreen_hits, 0);
        assert_eq!(off.stats.prescreen_replays, 0);
        assert_eq!(off.stats.bank_size, 0);
    }

    #[test]
    fn portfolio_batch_feeds_duplicate_traces_once() {
        // Every candidate in the batch dies on the identical prologue
        // trace (the steps don't depend on the hole value), so the
        // batch must encode one observation, not four.
        let opts = Options {
            portfolio: 4,
            prescreen: false,
            ..Options::default()
        };
        let s = Synthesis::new(
            "int g; harness void main() { g = ??(3); assert g == 9; }",
            opts,
        )
        .unwrap();
        let (out, report) = s.run_report();
        assert!(out.definitely_unresolvable);
        let first = report.records.iter().find(|r| r.batch == 1).unwrap();
        assert_eq!(first.batch_width, 4);
        assert_eq!(first.trace_set, 0);
        if let Some(second) = report.records.iter().find(|r| r.batch == 2) {
            assert_eq!(
                second.trace_set, 1,
                "four identical batch-1 traces must feed back as one observation"
            );
        }
    }

    #[test]
    fn mode_detection_failure_reported() {
        let err = match Synthesis::new("int f(int x) { return x; }", Options::default()) {
            Err(e) => e,
            Ok(_) => panic!("expected a mode-detection error"),
        };
        assert!(err.message.contains("mode"));
    }
}
