//! Property tests: bitvector circuits against native `i8` reference
//! arithmetic, over random operand pairs; and the word-level constant
//! folding against both the bit-level circuit and the lowering's
//! folding rules.

use psketch_ir::desugar::desugar_program;
use psketch_ir::lower::lower_program;
use psketch_ir::{fold_const_binop, Config};
use psketch_lang::ast::BinOp;
use psketch_symbolic::bv::Bv;
use psketch_symbolic::circuit::{Circuit, NodeRef};
use psketch_symbolic::eval::SymEval;
use psketch_symbolic::project::sequential_order;
use psketch_testutil::{cases, Rng};
use std::collections::HashMap;

const W: usize = 8;

fn eval_bv(c: &Circuit, bv: &Bv, inputs: &HashMap<u32, bool>) -> i64 {
    let mut v: i64 = 0;
    for (k, &b) in bv.0.iter().enumerate() {
        if c.eval(b, inputs) {
            v |= 1 << k;
        }
    }
    if v & (1 << (W - 1)) != 0 {
        v -= 1 << W;
    }
    v
}

fn set_input(c: &Circuit, bv: &Bv, value: i64, inputs: &mut HashMap<u32, bool>) {
    for (k, &b) in bv.0.iter().enumerate() {
        inputs.insert(c.input_index(b), (value >> k) & 1 == 1);
    }
}

#[test]
fn bv_ops_match_i8() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let sum = Bv::add(&mut c, &a, &b);
        let dif = Bv::sub(&mut c, &a, &b);
        let prod = Bv::mul(&mut c, &a, &b);
        let neg = Bv::neg(&mut c, &a);
        let eq = Bv::eq(&mut c, &a, &b);
        let lt = Bv::slt(&mut c, &a, &b);
        let le = Bv::sle(&mut c, &a, &b);
        let ult = Bv::ult(&mut c, &a, &b);
        let mut inputs = HashMap::new();
        set_input(&c, &a, x as i64, &mut inputs);
        set_input(&c, &b, y as i64, &mut inputs);
        assert_eq!(eval_bv(&c, &sum, &inputs), x.wrapping_add(y) as i64);
        assert_eq!(eval_bv(&c, &dif, &inputs), x.wrapping_sub(y) as i64);
        assert_eq!(eval_bv(&c, &prod, &inputs), x.wrapping_mul(y) as i64);
        assert_eq!(eval_bv(&c, &neg, &inputs), x.wrapping_neg() as i64);
        assert_eq!(c.eval(eq, &inputs), x == y);
        assert_eq!(c.eval(lt, &inputs), x < y);
        assert_eq!(c.eval(le, &inputs), x <= y);
        assert_eq!(c.eval(ult, &inputs), (x as u8) < (y as u8));
    });
}

#[test]
fn bv_divmod_match_i8() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let d = {
            let mag = rng.range_i64(1, 13) as i8;
            if rng.any_bool() {
                mag
            } else {
                -mag
            }
        };
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let q = Bv::div_const(&mut c, &a, d as i64);
        let r = Bv::rem_const(&mut c, &a, d as i64);
        let mut inputs = HashMap::new();
        set_input(&c, &a, x as i64, &mut inputs);
        assert_eq!(
            eval_bv(&c, &q, &inputs),
            x.wrapping_div(d) as i64,
            "{x} / {d}"
        );
        assert_eq!(
            eval_bv(&c, &r, &inputs),
            x.wrapping_rem(d) as i64,
            "{x} % {d}"
        );
    });
}

#[test]
fn mux_selects() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        let sel = rng.any_bool();
        let mut c = Circuit::new();
        let a = Bv::constant(&mut c, x as i64, W);
        let b = Bv::constant(&mut c, y as i64, W);
        let s = c.input();
        let m = Bv::mux(&mut c, s, &a, &b);
        let mut inputs = HashMap::new();
        inputs.insert(c.input_index(s), sel);
        assert_eq!(
            eval_bv(&c, &m, &inputs),
            if sel { x as i64 } else { y as i64 }
        );
    });
}

#[test]
fn constants_fold_through_ops() {
    cases(512, |rng| {
        let x = rng.any_i8();
        let y = rng.any_i8();
        // Operations on constant bitvectors must stay constant (the
        // circuit should not grow) and agree with the reference.
        let mut c = Circuit::new();
        let a = Bv::constant(&mut c, x as i64, W);
        let b = Bv::constant(&mut c, y as i64, W);
        let before = c.len();
        let sum = Bv::add(&mut c, &a, &b);
        assert_eq!(sum.as_const(), Some(x.wrapping_add(y) as i64));
        assert_eq!(c.len(), before, "constant add allocated nodes");
        let eq = Bv::eq(&mut c, &a, &b);
        assert_eq!(eq.as_const(), Some(x == y));
        assert_eq!(c.len(), before, "constant eq allocated nodes");
    });
}

/// Widths the folding properties run at.
const WIDTHS: [usize; 3] = [4, 8, 16];

fn config(w: usize) -> Config {
    Config {
        int_width: w as u32,
        ..Config::default()
    }
}

/// `MIN`, `MIN + 1`, -1, 0, 1 and `MAX` at width `w`.
fn edges(w: usize) -> Vec<i64> {
    let min = -(1i64 << (w - 1));
    vec![min, min + 1, -1, 0, 1, -min - 1]
}

/// A random value of width `w`: an edge half the time.
fn sample(rng: &mut Rng, w: usize) -> i64 {
    if rng.any_bool() {
        *rng.choose(&edges(w))
    } else {
        config(w).wrap(rng.next_u64() as i64)
    }
}

/// Reads a `w`-bit signed value off a circuit under an input valuation.
fn eval_w(c: &Circuit, bv: &Bv, inputs: &HashMap<u32, bool>) -> i64 {
    let w = bv.width();
    let mut v: i64 = 0;
    for (k, &b) in bv.0.iter().enumerate() {
        if c.eval(b, inputs) {
            v |= 1 << k;
        }
    }
    if v & (1 << (w - 1)) != 0 {
        v -= 1 << w;
    }
    v
}

/// The operators the evaluator lowers a binary `Rv` to, built as
/// `SymEval::eval_binary` builds them. `Div`/`Mod` take `y` as the
/// constant divisor.
fn build(c: &mut Circuit, op: BinOp, a: &Bv, b: &Bv, y: i64) -> Bv {
    let w = a.width();
    let bool_op = |c: &mut Circuit, n: NodeRef| Bv::from_bool(c, n, w);
    match op {
        BinOp::Add => Bv::add(c, a, b),
        BinOp::Sub => Bv::sub(c, a, b),
        BinOp::Mul => Bv::mul(c, a, b),
        BinOp::Div => Bv::div_const(c, a, y),
        BinOp::Mod => Bv::rem_const(c, a, y),
        BinOp::Eq => {
            let n = Bv::eq(c, a, b);
            bool_op(c, n)
        }
        BinOp::Ne => {
            let n = Bv::eq(c, a, b).not();
            bool_op(c, n)
        }
        BinOp::Lt => {
            let n = Bv::slt(c, a, b);
            bool_op(c, n)
        }
        BinOp::Le => {
            let n = Bv::sle(c, a, b);
            bool_op(c, n)
        }
        BinOp::Gt => {
            let n = Bv::slt(c, b, a);
            bool_op(c, n)
        }
        BinOp::Ge => {
            let n = Bv::sle(c, b, a);
            bool_op(c, n)
        }
        BinOp::And | BinOp::Or => unreachable!("short-circuit operators are not bitvector ops"),
    }
}

const OPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// Checks every folded operator on `(x, y)` at width `w` against the
/// bit-level circuit over input bits and against `fold_const_binop`,
/// and that folding added no node.
fn check_folding(w: usize, x: i64, y: i64) {
    let cfg = config(w);
    let mut bits = Circuit::new();
    let a = Bv::input(&mut bits, w);
    let b = Bv::input(&mut bits, w);
    let mut inputs = HashMap::new();
    for (k, (&ab, &bb)) in a.0.iter().zip(&b.0).enumerate() {
        inputs.insert(bits.input_index(ab), (x >> k) & 1 == 1);
        inputs.insert(bits.input_index(bb), (y >> k) & 1 == 1);
    }
    let mut folded = Circuit::new();
    let ka = Bv::constant(&mut folded, x, w);
    let kb = Bv::constant(&mut folded, y, w);
    for op in OPS {
        let Some(want) = fold_const_binop(op, x, y, &cfg) else {
            continue; // division by zero: lowering never emits it
        };
        let got = build(&mut folded, op, &ka, &kb, y).as_const();
        let circuit = build(&mut bits, op, &a, &b, y);
        let bit_level = eval_w(&bits, &circuit, &inputs);
        assert_eq!(got, Some(want), "w={w}: {x} {op:?} {y} folded");
        assert_eq!(bit_level, want, "w={w}: {x} {op:?} {y} bit level");
    }
    let neg = Bv::neg(&mut folded, &ka).as_const();
    assert_eq!(neg, fold_const_binop(BinOp::Sub, 0, x, &cfg), "w={w}: -{x}");
    let mask = (1u64 << w) - 1;
    let ult = Bv::ult(&mut folded, &ka, &kb).as_const();
    assert_eq!(
        ult,
        Some((x as u64 & mask) < (y as u64 & mask)),
        "w={w}: {x} u< {y}"
    );
    assert_eq!(ka.nonzero(&mut folded).as_const(), Some(x != 0));
    assert_eq!(folded.len(), 1, "w={w}: folding {x}, {y} created nodes");
}

#[test]
fn word_folding_matches_bit_level_and_ir_folding() {
    for w in WIDTHS {
        // Every pair of edges, including MIN / -1 and negative divisors.
        for &x in &edges(w) {
            for &y in &edges(w) {
                check_folding(w, x, y);
            }
        }
        cases(128, |rng| {
            let x = sample(rng, w);
            let y = sample(rng, w);
            check_folding(w, x, y);
            // Small negative divisors, where truncation toward zero
            // and the remainder's sign matter.
            check_folding(w, x, -(1 + rng.below(7) as i64));
        });
    }
}

#[test]
fn constant_arms_and_conditions_add_no_nodes() {
    for w in WIDTHS {
        cases(64, |rng| {
            let (x, y) = (sample(rng, w), sample(rng, w));
            let mut c = Circuit::new();
            let s = c.input();
            let v = Bv::input(&mut c, w);
            let a = Bv::constant(&mut c, x, w);
            let b = Bv::constant(&mut c, y, w);
            let before = c.len();
            // Two constant arms: every bit is `s`, `¬s` or a constant.
            assert_eq!(c.ite(s, NodeRef::TRUE, NodeRef::FALSE), s);
            assert_eq!(c.ite(s, NodeRef::FALSE, NodeRef::TRUE), s.not());
            let m = Bv::mux(&mut c, s, &a, &b);
            // A constant condition picks an arm outright.
            assert_eq!(Bv::mux(&mut c, NodeRef::TRUE, &v, &a), v);
            assert_eq!(Bv::mux(&mut c, NodeRef::FALSE, &v, &a), a);
            assert_eq!(c.len(), before, "constant arms or condition created nodes");
            // Against a constant each equality bit is `v_k` or `¬v_k`:
            // the conjunction chain is the only new structure.
            let _ = Bv::eq(&mut c, &v, &a);
            assert_eq!(c.len(), before + w - 1, "equality against a constant");
            for sel in [false, true] {
                let mut inputs = HashMap::new();
                inputs.insert(c.input_index(s), sel);
                assert_eq!(eval_w(&c, &m, &inputs), if sel { x } else { y });
            }
        });
    }
}

#[test]
fn constant_index_reads_and_writes_add_no_nodes() {
    // Symbolic values (holes) stored and loaded at constant indices —
    // an allocation at a constant counter, field and array accesses
    // through a constant reference and a constant global index, and a
    // write under a symbolic guard whose old and new values are
    // constants — build no node: every access touches only the
    // addressed cell.
    let cfg = Config::default();
    let src = "struct N { int v; N next; }
               int[4] a;
               int idx = 2;
               harness void main() {
                   N n = new N(??(3), null);
                   a[idx] = n.v;
                   if (??(1) == 1) { a[idx + 1] = 5; }
                   int t = a[idx];
                   n.next = n;
                   int u = n.next.v;
               }";
    let p = psketch_lang::check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    let l = lower_program(&sk, holes, &cfg).unwrap();
    let w = cfg.int_width as usize;
    let mut c = Circuit::new();
    // As the synthesizer encodes them: input bits for the hole's
    // domain, constant zeros above.
    let holes: Vec<Bv> = (0..l.holes.num_holes())
        .map(|h| {
            let domain = l.holes.domain(h as u32);
            let nbits = (64 - (domain - 1).leading_zeros()).max(1) as usize;
            let mut bits = Bv::input(&mut c, nbits).0;
            bits.resize(w, NodeRef::FALSE);
            Bv(bits)
        })
        .collect();
    let order = sequential_order(&l);
    let ev = SymEval::new(&mut c, &l, &holes, &HashMap::new());
    let before = c.len();
    let fail = ev.run(&mut c, &order, &[], order.len());
    assert_eq!(fail, NodeRef::FALSE, "no access can fail");
    assert_eq!(c.len(), before, "constant-index accesses created nodes");
}
