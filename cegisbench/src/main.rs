//! End-to-end CEGIS benchmark over the paper's Figure 9 sketches.
//!
//! Usage: `cegisbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! A workload is a fixed set of sketches from
//! `psketch_suite::figure9_runs()`. A pass runs every sketch of the set
//! to a verdict with its suite `Options` (one search thread, one
//! candidate per iteration), in an order drawn from the seed; a run
//! repeats passes until `S` seconds have gone by. Each verdict is
//! checked against the paper's answer, and each winning candidate is
//! re-checked by the reference model checker outside the timed region.
//!
//! With `--trace 0` the run goes through `Synthesis::new` and
//! `Synthesis::run` and reports the end-to-end metrics. With
//! `--trace 1` it alternates those untraced passes with traced passes
//! of the driver in `traced.rs`, which replays the same loop through
//! each layer's public functions and times every call; it reports the
//! per-layer metrics and fails the run when the two drivers disagree.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! lists every sketch's iteration counts and verdict times.

mod traced;

use psketch_core::{mem, Assignment, Synthesis};
use psketch_exec::reference::check_ref_with_limit;
use psketch_suite::{figure9_runs, BenchmarkRun};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;
use traced::Layers;

/// The workloads: name and `(benchmark, test)` pairs of Figure 9.
const WORKLOADS: &[(&str, &[(&str, &str)])] = &[
    (
        "synth-encode",
        &[
            ("fineset2", "ar(ar|ar)"),
            ("fineset2", "ar(arar|arar)"),
            ("fineset2", "ar(aaaa|rrrr)"),
        ],
    ),
    (
        "synth-solve",
        &[
            ("queueE2", "(e|e|e)ddd"),
            ("queueDE2", "ed(ed|ed)"),
            ("lazyset", "ar(ar|ar)"),
            ("barrier2", "N=2,B=3"),
        ],
    ),
    (
        "verify-search",
        &[
            ("dinphilo", "N=5,T=3"),
            ("dinphilo", "N=4,T=3"),
            ("dinphilo", "N=3,T=5"),
            ("queueE1", "ed(ee|dd)"),
            ("queueE1", "ed(ed|ed)"),
            ("queueE1", "(e|e|e)ddd"),
            ("barrier1", "N=3,B=2"),
            ("barrier1", "N=3,B=3"),
        ],
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds needs a non-negative number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// splitmix64: the seed's only use is ordering sketches within passes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// The answer a run reached.
enum Verdict {
    Resolved(Assignment),
    No,
    Unknown,
}

impl Verdict {
    fn kind(&self) -> &'static str {
        match self {
            Verdict::Resolved(_) => "yes",
            Verdict::No => "NO",
            Verdict::Unknown => "unknown",
        }
    }
}

/// A `/proc/self/status` memory reading in MiB.
fn mib(bytes: Option<u64>) -> f64 {
    bytes.expect("the benchmark reads memory from /proc/self/status") as f64 / (1 << 20) as f64
}

/// One sketch of the workload and everything observed about it.
struct Sketch {
    id: String,
    run: BenchmarkRun,
    /// `Synthesis::new` seconds of every untraced repeat.
    setup_s: Vec<f64>,
    /// Set-up plus CEGIS seconds of every untraced repeat.
    verdict_s: Vec<f64>,
    /// The same, of every traced repeat.
    traced_verdict_s: Vec<f64>,
    /// `(iterations, explored states, verdict kind)` of every untraced
    /// repeat, and of every traced one.
    untraced: Vec<(usize, usize, &'static str)>,
    traced: Vec<(usize, usize, &'static str)>,
    /// A traced repeat met a deadlock set whose encoding order varies
    /// between runs (see `traced::Traced::order_sensitive`).
    order_sensitive: bool,
}

/// Re-checks verdicts against the paper's answer and winners against
/// the reference checker, remembering candidates already re-checked.
#[derive(Default)]
struct Oracle {
    checked: HashMap<(usize, Assignment), bool>,
}

impl Oracle {
    fn good(&mut self, ix: usize, run: &BenchmarkRun, v: &Verdict) -> bool {
        match v {
            Verdict::Resolved(a) => {
                run.expected_resolvable
                    && *self.checked.entry((ix, a.clone())).or_insert_with(|| {
                        Synthesis::new(&run.source, run.options.clone()).is_ok_and(|s| {
                            let out = check_ref_with_limit(s.lowered(), a, run.options.max_states);
                            matches!(out.verdict, psketch_exec::Verdict::Pass)
                        })
                    })
            }
            Verdict::No => !run.expected_resolvable,
            Verdict::Unknown => false,
        }
    }
}

/// Totals over the run's passes of one kind.
#[derive(Default)]
struct Passes {
    wall_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A sketch id in metric-name characters, as the detail line's key.
fn key(id: &str) -> String {
    id.chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '.' | '-' => c,
            _ => '_',
        })
        .collect()
}

/// One untraced pass: every sketch through `Synthesis::new` and
/// `Synthesis::run`, in `order`.
fn untraced_pass(
    sketches: &mut [Sketch],
    order: &[usize],
    oracle: &mut Oracle,
    out: &mut Passes,
) -> Result<(), String> {
    let mut wall = 0.0;
    for &ix in order {
        let sk = &mut sketches[ix];
        let t0 = Instant::now();
        let s = Synthesis::new(&sk.run.source, sk.run.options.clone())
            .map_err(|e| format!("{}: {e}", sk.id))?;
        let t_setup = t0.elapsed().as_secs_f64();
        let outcome = s.run();
        let t_verdict = t0.elapsed().as_secs_f64();
        wall += t_verdict;
        sk.setup_s.push(t_setup);
        sk.verdict_s.push(t_verdict);
        let verdict = match (outcome.resolution, outcome.definitely_unresolvable) {
            (Some(r), _) => Verdict::Resolved(r.assignment),
            (None, true) => Verdict::No,
            (None, false) => Verdict::Unknown,
        };
        let st = &outcome.stats;
        sk.untraced.push((st.iterations, st.states, verdict.kind()));
        out.attempted += 1;
        if !oracle.good(ix, &sk.run, &verdict) {
            eprintln!("bad verdict: {} answered {}", sk.id, verdict.kind());
            out.failed += 1;
        }
    }
    out.wall_s.push(wall);
    Ok(())
}

/// One traced pass through the driver in `traced.rs`.
fn traced_pass(
    sketches: &mut [Sketch],
    order: &[usize],
    oracle: &mut Oracle,
    out: &mut Passes,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut wall = 0.0;
    for &ix in order {
        let sk = &mut sketches[ix];
        let t =
            traced::run(&sk.run.source, &sk.run.options).map_err(|e| format!("{}: {e}", sk.id))?;
        wall += t.layers.wall_s;
        sk.traced_verdict_s.push(t.layers.wall_s);
        layers.add(&t.layers);
        sk.traced.push((t.iterations, t.states, t.verdict.kind()));
        sk.order_sensitive |= t.order_sensitive;
        out.attempted += 1;
        if !oracle.good(ix, &sk.run, &t.verdict) {
            eprintln!(
                "bad traced verdict: {} answered {}",
                sk.id,
                t.verdict.kind()
            );
            out.failed += 1;
        }
    }
    out.wall_s.push(wall);
    Ok(())
}

/// Whether a sketch's iteration count and explored-state total repeat:
/// every untraced repeat agrees, and no traced repeat met a deadlock
/// set whose encoding order varies between runs.
fn counts_repeat(sk: &Sketch) -> bool {
    sk.untraced.len() >= 2
        && !sk.order_sensitive
        && sk.untraced.iter().all(|&u| u == sk.untraced[0])
}

/// Driver fidelity: the traced driver must reach the untraced verdict
/// on every sketch, and the same iteration count and explored-state
/// total on every sketch whose counts repeat.
fn fidelity_errors(sketches: &[Sketch]) -> Vec<String> {
    let mut errors = Vec::new();
    for sk in sketches {
        let Some(&first) = sk.untraced.first() else {
            continue;
        };
        let repeats = counts_repeat(sk);
        for &t in &sk.traced {
            if sk.untraced.iter().any(|u| u.2 != t.2) {
                errors.push(format!(
                    "{}: traced verdict {} differs from untraced",
                    sk.id, t.2
                ));
            } else if repeats && t != first {
                errors.push(format!(
                    "{}: traced driver took {} iterations / {} states, Synthesis::run {} / {}",
                    sk.id, t.0, t.1, first.0, first.1
                ));
            }
        }
    }
    errors
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cegisbench: {e}");
            eprintln!("usage: cegisbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("cegisbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let (_, pairs) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let mut registry = figure9_runs();
    let mut sketches = Vec::new();
    for &(benchmark, test) in pairs.iter() {
        let at = registry
            .iter()
            .position(|r| r.benchmark == benchmark && r.test == test)
            .ok_or_else(|| format!("{benchmark} {test} is not a Figure 9 run"))?;
        let run = registry.swap_remove(at);
        if run.options.threads != 1 || run.options.portfolio != 1 {
            return Err(format!(
                "{benchmark} {test}: expected threads 1, portfolio 1"
            ));
        }
        sketches.push(Sketch {
            id: format!("{benchmark} {test}"),
            run,
            setup_s: Vec::new(),
            verdict_s: Vec::new(),
            traced_verdict_s: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            order_sensitive: false,
        });
    }

    let mut rng = Rng(args.seed);
    let mut oracle = Oracle::default();
    let mut plain = Passes::default();
    let mut traced = Passes::default();
    let mut layers = Layers::default();
    let t0 = Instant::now();
    loop {
        let order = rng.permutation(sketches.len());
        let trace_turn = args.trace && plain.wall_s.len() > traced.wall_s.len();
        if trace_turn {
            traced_pass(&mut sketches, &order, &mut oracle, &mut traced, &mut layers)?;
        } else {
            untraced_pass(&mut sketches, &order, &mut oracle, &mut plain)?;
        }
        // A traced run needs two untraced repeats to tell which counts
        // repeat, and one traced pass. Past that, a pass starts only if
        // one as long as the last still ends within the run's time.
        let enough = !args.trace || (plain.wall_s.len() >= 2 && !traced.wall_s.is_empty());
        let last = if trace_turn {
            &traced.wall_s
        } else {
            &plain.wall_s
        };
        let next_end = t0.elapsed().as_secs_f64() + last.last().copied().unwrap_or(0.0);
        if enough && next_end > args.seconds {
            break;
        }
    }

    let fidelity = fidelity_errors(&sketches);
    for e in &fidelity {
        eprintln!("FIDELITY MISMATCH: {e}");
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let correct = failed == 0 && fidelity.is_empty();

    let secs = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"pass_wall_s\": [{}], \"traced_pass_wall_s\": [{}], \"sketches\": {{",
        args.workload,
        args.seed,
        secs(&plain.wall_s),
        secs(&traced.wall_s)
    );
    for (i, sk) in sketches.iter().enumerate() {
        let list = |v: &[(usize, usize, &str)]| {
            v.iter()
                .map(|x| x.0.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = write!(
            detail,
            "{}\"{}\": {{\"verdict_s\": {}, \"traced_verdict_s\": {}, \"iterations\": [{}], \"traced_iterations\": [{}], \"counts_repeat\": {}}}",
            if i > 0 { ", " } else { "" },
            key(&sk.id),
            num(median(&sk.verdict_s)),
            num(median(&sk.traced_verdict_s)),
            list(&sk.untraced),
            list(&sk.traced),
            args.trace && counts_repeat(sk)
        );
    }
    detail.push_str("}}");
    println!("{detail}");

    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    if !args.trace {
        let slowest = sketches
            .iter()
            .map(|sk| median(&sk.verdict_s))
            .fold(0.0, f64::max);
        let setup = sketches.iter().map(|sk| median(&sk.setup_s)).sum();
        metrics.insert("wall_s", (median(&plain.wall_s), "s"));
        metrics.insert("setup_s", (setup, "s"));
        metrics.insert("slowest_verdict_s", (slowest, "s"));
        metrics.insert("peak_rss_mib", (mib(mem::peak_rss_bytes()), "MiB"));
        metrics.insert(
            "verdict_ok_ratio",
            (
                ratio((attempted - failed) as f64, attempted as f64),
                "ratio",
            ),
        );
    } else {
        let n = traced.wall_s.len() as f64;
        let m = &layers;
        let per = |v: f64| v / n;
        let spread = sketches
            .iter()
            .map(|sk| {
                let its = sk.untraced.iter().chain(&sk.traced).map(|x| x.0);
                its.clone().max().unwrap_or(0) - its.min().unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let plain_wall = plain.wall_s.iter().sum::<f64>() / plain.wall_s.len() as f64;
        for (name, value, unit) in [
            ("lang.check_s", per(m.lang_check_s), "s"),
            ("ir.desugar_s", per(m.ir_desugar_s), "s"),
            ("ir.lower_s", per(m.ir_lower_s), "s"),
            ("ir.steps", per(m.ir_steps), "count"),
            ("ir.holes", per(m.ir_holes), "count"),
            ("ir.log10_space", per(m.ir_space).log10(), "log10"),
            ("symbolic.init_s", per(m.symbolic_init_s), "s"),
            ("symbolic.project_s", per(m.symbolic_project_s), "s"),
            (
                "symbolic.project_steps",
                per(m.symbolic_project_steps),
                "count",
            ),
            ("symbolic.add_trace_s", per(m.symbolic_add_trace_s), "s"),
            ("symbolic.traces", per(m.symbolic_traces), "count"),
            ("symbolic.nodes", per(m.symbolic_nodes), "count"),
            (
                "symbolic.nodes_per_trace",
                ratio(m.symbolic_nodes, m.symbolic_traces),
                "count",
            ),
            (
                "symbolic.rss_growth_mib",
                per(m.symbolic_rss_growth_mib),
                "MiB",
            ),
            ("sat.solve_s", per(m.sat_solve_s), "s"),
            ("sat.calls", per(m.sat_calls), "count"),
            ("sat.decisions", per(m.sat_decisions), "count"),
            ("sat.propagations", per(m.sat_propagations), "count"),
            ("sat.conflicts", per(m.sat_conflicts), "count"),
            ("sat.learnts", per(m.sat_learnts), "count"),
            ("sat.clauses", per(m.sat_clauses), "count"),
            (
                "sat.props_per_s",
                ratio(m.sat_propagations, m.sat_solve_s),
                "1/s",
            ),
            ("exec.seal_s", per(m.exec_seal_s), "s"),
            ("exec.threads_reused", per(m.exec_threads_reused), "count"),
            ("exec.prescreen_s", per(m.exec_prescreen_s), "s"),
            (
                "exec.prescreen_replays",
                per(m.exec_prescreen_replays),
                "count",
            ),
            (
                "exec.prescreen_hit_ratio",
                ratio(m.exec_prescreen_hits, m.exec_prescreen_calls),
                "ratio",
            ),
            ("exec.check_s", per(m.exec_check_s), "s"),
            ("exec.check_calls", per(m.exec_check_calls), "count"),
            ("exec.states", per(m.exec_states), "count"),
            ("exec.transitions", per(m.exec_transitions), "count"),
            ("exec.states_pruned", per(m.exec_states_pruned), "count"),
            (
                "exec.states_per_s",
                ratio(m.exec_states, m.exec_check_s),
                "1/s",
            ),
            ("core.iterations", per(m.iterations), "count"),
            ("core.iterations_spread", spread as f64, "count"),
            ("core.teardown_s", per(m.teardown_s), "s"),
            ("core.unattributed_s", per(m.wall_s - m.attributed_s()), "s"),
            (
                "core.trace_overhead",
                ratio(per(m.wall_s), plain_wall),
                "ratio",
            ),
            ("core.wall_s", per(m.wall_s), "s"),
        ] {
            metrics.insert(name, (value, unit));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
