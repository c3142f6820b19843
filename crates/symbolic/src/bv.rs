//! Fixed-width two's-complement bitvectors over the circuit.
//!
//! Every operation first tries the word level: when its operands are
//! constants it computes the value directly (with the lowering's own
//! wrapping rules, [`fold_const_binop`]) instead of running the
//! bit-level loop, which would fold gate by gate to the same constant
//! bits without creating a node. The fast paths therefore never change
//! the circuit; they only skip work.

use crate::circuit::{Circuit, NodeRef};
use psketch_ir::{fold_const_binop, Config};
use psketch_lang::ast::BinOp;

/// Widths up to this fold at the word level; wider words take the
/// bit-level path (`Config::wrap` computes `1 << width` in an `i64`).
const MAX_FOLD_WIDTH: usize = 32;

/// `op` over two constants of width `w`, wrapped as the lowering wraps.
fn fold(op: BinOp, x: i64, y: i64, w: usize) -> i64 {
    let config = Config {
        int_width: w as u32,
        ..Config::default()
    };
    fold_const_binop(op, x, y, &config).expect("constant divisor must be non-zero")
}

/// Both operands' values, when both are foldable constants.
fn words(a: &Bv, b: &Bv) -> Option<(i64, i64)> {
    Some((a.word()?, b.word()?))
}

/// A bitvector, least-significant bit first.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bv(pub Vec<NodeRef>);

impl Bv {
    /// Width in bits.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// A constant bitvector of `width` bits (two's complement,
    /// truncating).
    pub fn constant(c: &mut Circuit, value: i64, width: usize) -> Bv {
        Bv((0..width)
            .map(|k| c.constant((value >> k) & 1 == 1))
            .collect())
    }

    /// Fresh unconstrained inputs.
    pub fn input(c: &mut Circuit, width: usize) -> Bv {
        Bv((0..width).map(|_| c.input()).collect())
    }

    /// The constant value, if all bits are constants.
    pub fn as_const(&self) -> Option<i64> {
        let mut v: i64 = 0;
        for (k, b) in self.0.iter().enumerate() {
            match b.as_const() {
                Some(true) => v |= 1 << k,
                Some(false) => {}
                None => return None,
            }
        }
        // Sign-extend from the top bit.
        let w = self.width();
        if w < 64 && v & (1 << (w - 1)) != 0 {
            v -= 1 << w;
        }
        Some(v)
    }

    /// The constant value, when all bits are constants and the width
    /// folds at the word level.
    fn word(&self) -> Option<i64> {
        if self.width() > MAX_FOLD_WIDTH {
            return None;
        }
        self.as_const()
    }

    /// A single-bit boolean lifted to this width (0 or 1).
    pub fn from_bool(c: &mut Circuit, b: NodeRef, width: usize) -> Bv {
        let mut bits = vec![b];
        bits.resize(width, c.constant(false));
        Bv(bits)
    }

    /// Is the value non-zero?
    pub fn nonzero(&self, c: &mut Circuit) -> NodeRef {
        if let Some(x) = self.word() {
            return c.constant(x != 0);
        }
        c.or_all(self.0.iter().copied())
    }

    /// Bitwise mux: `cond ? a : b` (widths must match).
    pub fn mux(c: &mut Circuit, cond: NodeRef, a: &Bv, b: &Bv) -> Bv {
        assert_eq!(a.width(), b.width());
        match cond.as_const() {
            Some(true) => return a.clone(),
            Some(false) => return b.clone(),
            None => {}
        }
        Bv(a.0
            .iter()
            .zip(&b.0)
            .map(|(&x, &y)| c.ite(cond, x, y))
            .collect())
    }

    /// Addition (wrapping).
    pub fn add(c: &mut Circuit, a: &Bv, b: &Bv) -> Bv {
        assert_eq!(a.width(), b.width());
        if let Some((x, y)) = words(a, b) {
            return Bv::constant(c, fold(BinOp::Add, x, y, a.width()), a.width());
        }
        let mut carry = c.constant(false);
        let mut out = Vec::with_capacity(a.width());
        for (&x, &y) in a.0.iter().zip(&b.0) {
            let xy = c.xor(x, y);
            let s = c.xor(xy, carry);
            let c1 = c.and(x, y);
            let c2 = c.and(xy, carry);
            carry = c.or(c1, c2);
            out.push(s);
        }
        Bv(out)
    }

    /// Negation (two's complement).
    pub fn neg(c: &mut Circuit, a: &Bv) -> Bv {
        if let Some(x) = a.word() {
            return Bv::constant(c, fold(BinOp::Sub, 0, x, a.width()), a.width());
        }
        let inverted = Bv(a.0.iter().map(|&b| b.not()).collect());
        let one = Bv::constant(c, 1, a.width());
        Bv::add(c, &inverted, &one)
    }

    /// Subtraction (wrapping).
    pub fn sub(c: &mut Circuit, a: &Bv, b: &Bv) -> Bv {
        if let Some((x, y)) = words(a, b) {
            return Bv::constant(c, fold(BinOp::Sub, x, y, a.width()), a.width());
        }
        let nb = Bv::neg(c, b);
        Bv::add(c, a, &nb)
    }

    /// Multiplication (wrapping shift-and-add).
    pub fn mul(c: &mut Circuit, a: &Bv, b: &Bv) -> Bv {
        let w = a.width();
        if let Some((x, y)) = words(a, b) {
            return Bv::constant(c, fold(BinOp::Mul, x, y, w), w);
        }
        let mut acc = Bv::constant(c, 0, w);
        for k in 0..w {
            // acc += (b[k] ? a << k : 0)
            let mut shifted = vec![c.constant(false); k];
            shifted.extend(a.0.iter().take(w - k).copied());
            let gated = Bv(shifted.into_iter().map(|bit| c.and(bit, b.0[k])).collect());
            acc = Bv::add(c, &acc, &gated);
        }
        acc
    }

    /// Equality.
    pub fn eq(c: &mut Circuit, a: &Bv, b: &Bv) -> NodeRef {
        assert_eq!(a.width(), b.width());
        if let Some((x, y)) = words(a, b) {
            return c.constant(x == y);
        }
        // Against a constant operand each bit is `x` or `¬x`
        // (`Circuit::xor` folds it); the conjunction still builds in
        // the same order.
        let bits: Vec<NodeRef> = a.0.iter().zip(&b.0).map(|(&x, &y)| c.iff(x, y)).collect();
        c.and_all(bits)
    }

    /// Signed less-than.
    pub fn slt(c: &mut Circuit, a: &Bv, b: &Bv) -> NodeRef {
        // a < b  <=>  (a - b) overflows into "negative" correctly:
        // compute via sign comparison: if signs differ, a<b iff a
        // negative; else compare magnitude via subtraction sign.
        if let Some((x, y)) = words(a, b) {
            return c.constant(x < y);
        }
        let w = a.width();
        let sa = a.0[w - 1];
        let sb = b.0[w - 1];
        let diff = Bv::sub(c, a, b);
        let sd = diff.0[w - 1];
        let signs_differ = c.xor(sa, sb);
        // signs differ: a<b iff sa; same signs: no overflow, a<b iff
        // diff negative.
        c.ite(signs_differ, sa, sd)
    }

    /// Signed less-or-equal.
    pub fn sle(c: &mut Circuit, a: &Bv, b: &Bv) -> NodeRef {
        Bv::slt(c, b, a).not()
    }

    /// Unsigned less-than (for array bounds).
    pub fn ult(c: &mut Circuit, a: &Bv, b: &Bv) -> NodeRef {
        let w = a.width();
        if let Some((x, y)) = words(a, b) {
            let mask = (1u64 << w) - 1;
            return c.constant((x as u64 & mask) < (y as u64 & mask));
        }
        let mut lt = c.constant(false);
        for k in 0..w {
            let (x, y) = (a.0[k], b.0[k]);
            let same = c.iff(x, y);
            let xlty = c.and(x.not(), y);
            lt = c.ite(same, lt, xlty);
        }
        lt
    }

    /// Division by a non-zero constant (restoring long division).
    pub fn div_const(c: &mut Circuit, a: &Bv, divisor: i64) -> Bv {
        Bv::divmod_const(c, a, divisor).0
    }

    /// Remainder by a non-zero constant.
    pub fn rem_const(c: &mut Circuit, a: &Bv, divisor: i64) -> Bv {
        Bv::divmod_const(c, a, divisor).1
    }

    /// Signed division/remainder by a constant, truncated toward zero
    /// (Rust semantics).
    fn divmod_const(c: &mut Circuit, a: &Bv, divisor: i64) -> (Bv, Bv) {
        assert!(divisor != 0, "constant divisor must be non-zero");
        let w = a.width();
        if let Some(x) = a.word() {
            let q = fold(BinOp::Div, x, divisor, w);
            let r = fold(BinOp::Mod, x, divisor, w);
            return (Bv::constant(c, q, w), Bv::constant(c, r, w));
        }
        // |a| via conditional negation.
        let sa = a.0[w - 1];
        let na = Bv::neg(c, a);
        let abs_a = Bv::mux(c, sa, &na, a);
        let abs_d = divisor.unsigned_abs() as i64;

        // Unsigned restoring division of abs_a by abs_d, bit by bit
        // from the MSB.
        let mut rem = Bv::constant(c, 0, w);
        let mut quo = vec![c.constant(false); w];
        for k in (0..w).rev() {
            // rem = (rem << 1) | a[k]
            let mut shifted = vec![abs_a.0[k]];
            shifted.extend(rem.0.iter().take(w - 1).copied());
            rem = Bv(shifted);
            let dconst = Bv::constant(c, abs_d, w);
            let ge = Bv::ult(c, &rem, &dconst).not();
            let sub = Bv::sub(c, &rem, &dconst);
            rem = Bv::mux(c, ge, &sub, &rem);
            quo[k] = ge;
        }
        let quo = Bv(quo);
        // Apply signs: quotient negative iff signs differ; remainder
        // takes the dividend's sign.
        let sd = divisor < 0;
        let sdiff = if sd { sa.not() } else { sa };
        let nq = Bv::neg(c, &quo);
        let q = Bv::mux(c, sdiff, &nq, &quo);
        let nr = Bv::neg(c, &rem);
        let r = Bv::mux(c, sa, &nr, &rem);
        (q, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const W: usize = 8;

    fn wrap(v: i64) -> i64 {
        let m = 1i64 << W;
        let r = v.rem_euclid(m);
        if r >= m / 2 {
            r - m
        } else {
            r
        }
    }

    /// Evaluates a Bv whose bits came from inputs set by `vals`.
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
    fn constants_roundtrip() {
        let mut c = Circuit::new();
        for v in [-128i64, -1, 0, 1, 5, 127] {
            let bv = Bv::constant(&mut c, v, W);
            assert_eq!(bv.as_const(), Some(v), "{v}");
        }
    }

    #[test]
    fn arithmetic_matches_reference() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let sum = Bv::add(&mut c, &a, &b);
        let dif = Bv::sub(&mut c, &a, &b);
        let prod = Bv::mul(&mut c, &a, &b);
        let cases = [
            (0i64, 0i64),
            (1, 1),
            (5, 7),
            (127, 1),
            (-128, -1),
            (-5, 3),
            (100, 100),
            (-77, 33),
        ];
        for (x, y) in cases {
            let mut inputs = HashMap::new();
            set_input(&c, &a, x, &mut inputs);
            set_input(&c, &b, y, &mut inputs);
            assert_eq!(eval_bv(&c, &sum, &inputs), wrap(x + y), "{x}+{y}");
            assert_eq!(eval_bv(&c, &dif, &inputs), wrap(x - y), "{x}-{y}");
            assert_eq!(eval_bv(&c, &prod, &inputs), wrap(x * y), "{x}*{y}");
        }
    }

    #[test]
    fn comparisons_match_reference() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        let b = Bv::input(&mut c, W);
        let eq = Bv::eq(&mut c, &a, &b);
        let lt = Bv::slt(&mut c, &a, &b);
        let le = Bv::sle(&mut c, &a, &b);
        let ult = Bv::ult(&mut c, &a, &b);
        for (x, y) in [
            (0i64, 0i64),
            (1, 2),
            (2, 1),
            (-1, 1),
            (1, -1),
            (-128, 127),
            (127, -128),
            (-5, -7),
        ] {
            let mut inputs = HashMap::new();
            set_input(&c, &a, x, &mut inputs);
            set_input(&c, &b, y, &mut inputs);
            assert_eq!(c.eval(eq, &inputs), x == y, "{x}=={y}");
            assert_eq!(c.eval(lt, &inputs), x < y, "{x}<{y}");
            assert_eq!(c.eval(le, &inputs), x <= y, "{x}<={y}");
            let ux = (x as u8) as u64;
            let uy = (y as u8) as u64;
            assert_eq!(c.eval(ult, &inputs), ux < uy, "{x} u< {y}");
        }
    }

    #[test]
    fn division_by_constants() {
        let mut c = Circuit::new();
        let a = Bv::input(&mut c, W);
        for d in [1i64, 2, 3, 5, -3, 7] {
            let q = Bv::div_const(&mut c, &a, d);
            let r = Bv::rem_const(&mut c, &a, d);
            for x in [-128i64, -17, -1, 0, 1, 17, 127, 100] {
                let mut inputs = HashMap::new();
                set_input(&c, &a, x, &mut inputs);
                assert_eq!(eval_bv(&c, &q, &inputs), wrap(x / d), "{x}/{d}");
                assert_eq!(eval_bv(&c, &r, &inputs), wrap(x % d), "{x}%{d}");
            }
        }
    }

    #[test]
    fn mux_and_bool_lifting() {
        let mut c = Circuit::new();
        let cond = c.input();
        let a = Bv::constant(&mut c, 11, W);
        let b = Bv::constant(&mut c, 22, W);
        let m = Bv::mux(&mut c, cond, &a, &b);
        let mut inputs = HashMap::new();
        inputs.insert(c.input_index(cond), true);
        assert_eq!(eval_bv(&c, &m, &inputs), 11);
        inputs.insert(c.input_index(cond), false);
        assert_eq!(eval_bv(&c, &m, &inputs), 22);

        let t = c.constant(true);
        let lifted = Bv::from_bool(&mut c, t, W);
        assert_eq!(lifted.as_const(), Some(1));
    }

    #[test]
    fn nonzero_check() {
        let mut c = Circuit::new();
        let z = Bv::constant(&mut c, 0, W);
        let n = Bv::constant(&mut c, -4, W);
        assert_eq!(z.nonzero(&mut c).as_const(), Some(false));
        assert_eq!(n.nonzero(&mut c).as_const(), Some(true));
    }
}
