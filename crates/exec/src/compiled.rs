//! The compile-once candidate layer.
//!
//! A [`CompiledProgram`] seals one `(Lowered, Assignment)` pair into
//! the shared execution artifact every engine in this crate runs:
//!
//! - holes are substituted and folded *at emit time*: one walk over
//!   the original trees streams micro-ops out while resolving holes
//!   and folding constants in place (mirroring the whole-program
//!   [`psketch_ir::specialize`] oracle's fold rules case for case), so
//!   neither a substituted tree nor a specialized `Lowered` is ever
//!   materialized;
//! - each thread's step list is flattened into dense pc-indexed
//!   micro-op arrays ([`Ins`]): a tiny stack machine with short-circuit
//!   jumps, no tree recursion and no hole table on the hot path;
//! - the POR conflict bitmasks are rebuilt from a *hole-aware
//!   footprint pass* over the original program
//!   ([`psketch_ir::thread_footprints_sharpened`]), so fork-indexed
//!   cells whose index was a hole (directly or through a local)
//!   resolve to exact locations the static
//!   [`psketch_ir::FootprintTable`] had to widen —
//!   candidate-sharpened ample sets, never coarser than the static
//!   ones (the static table and the refinement check are lazy —
//!   built on first diagnostic use, shared across the reseal family —
//!   and surfaced via [`CompiledProgram::footprint_refines_static`]);
//! - thread-symmetry classes and per-worker liveness masks are
//!   computed from the *original* program, so fingerprints and
//!   canonical vectors identify states exactly as the reference
//!   engine does — and they are computed *lazily*, on the
//!   first checker construction that needs them: sealing a candidate
//!   never pays for them, candidates rejected by replay prescreening
//!   never build symmetry classes at all, and the
//!   candidate-independent liveness masks are shared across the whole
//!   reseal family;
//! - every shared table (layout, liveness, match-end, symmetry, POR,
//!   per-thread code) lives behind an [`Arc`], so engines built from
//!   the artifact — and clones of the artifact itself — pay zero deep
//!   table copies;
//! - [`CompiledProgram::reseal`] diffs a new candidate against the
//!   previous artifact per thread *and per step*: clean threads carry
//!   their micro-op arrays and footprints over by reference, dirty
//!   threads re-emit only the steps that reference a changed hole
//!   (the rest bump their `Arc`ed instruction arrays), and identical
//!   recomputed footprints carry the POR table over too — the CEGIS
//!   loop's common case (a CDCL model nudging a few holes) costs a
//!   fraction of a fresh seal.
//!
//! The sequential DFS, the parallel engine, replay, sampling and the
//! schedule-bank prescreen all consume the same artifact via
//! `Checker::from_compiled`; [`crate::reference`], which walks the
//! trees, is the only other semantics of the IR and serves as the
//! oracle.

use crate::checker::{compute_liveness, compute_match_end};
use crate::por::PorTable;
use crate::store::{EvalResult, FailureKind, StateBuf, StateLayout, UndoJournal};
use psketch_ir::symmetry::{symmetry_classes, SymmetryClasses};
use psketch_ir::{
    boolean_result, fold_const_binop, fold_const_unop, step_holes, thread_footprints_sharpened,
    Assignment, Footprint, HoleId, Lowered, Lv, Op, Rv, Thread,
};
use psketch_lang::ast::{BinOp, UnOp};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Stack slots kept inline on the eval stack frame; expressions deeper
/// than this (pathological nesting) fall back to a heap stack. Kept
/// small: the array is re-initialized per evaluation, and `&&`/`||`
/// chains compile to jumps that take the *max* of their operand
/// depths, so real guards rarely need more than a handful of slots.
const INLINE_STACK: usize = 16;

/// One micro-op of the flattened expression code. Operands travel on
/// an explicit value stack; `&&`/`||`/`?:` laziness is compiled to
/// forward jumps, so evaluation is a straight dispatch loop with no
/// recursion and no hole lookups.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Ins {
    /// Push a constant (holes have been substituted by now).
    Const(i64),
    /// Push the global cell at this flat offset.
    Global(u32),
    /// Push the local at this slot (offset by the runtime locals base).
    Local(u32),
    /// Pop an index, bounds-check it against `len`, push the global
    /// cell at `base + index`.
    GlobalDyn {
        /// Flat offset of the region's first cell.
        base: u32,
        /// Region length in cells.
        len: u32,
    },
    /// As [`Ins::GlobalDyn`] for a local region.
    LocalDyn {
        /// Slot offset of the region's first local.
        base: u32,
        /// Region length in slots.
        len: u32,
    },
    /// Pop an object reference, null/bounds-check it, push the field
    /// cell. Fully baked: `heap_base` is the pool segment's flat
    /// offset, so no layout table is consulted at run time.
    Field {
        /// Flat offset of the pool's heap segment.
        heap_base: u32,
        /// Fields per object.
        nf: u32,
        /// Pool capacity in objects.
        cap: u32,
        /// Field index within the object.
        fid: u32,
    },
    /// Logical not of the top of stack.
    Not,
    /// Wrapping negation of the top of stack.
    Neg,
    /// Strict binary operator over the top two stack slots
    /// (`And`/`Or` never appear here — they compile to jumps).
    Bin(BinOp),
    /// Normalize the top of stack to 0/1 (the value `&&`/`||` produce
    /// for their demanded right operand).
    PushBool,
    /// Unconditional jump to an instruction index.
    Jump(u32),
    /// Pop; jump when the popped value is zero.
    JumpIfZero(u32),
    /// Pop; jump when the popped value is non-zero.
    JumpIfNonZero(u32),
}

/// A compiled expression: the micro-op array plus the stack depth it
/// needs. Single-constant code (the common case for folded guards)
/// short-circuits through `const_val` without touching the stack.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Code {
    // `Arc`, not `Box`: a reseal deep-copies the clean steps of a
    // dirty thread's `ThreadCode`, and the refcount bump keeps that
    // copy allocation-free (the arrays are immutable once sealed).
    ins: Arc<[Ins]>,
    max_stack: u32,
    const_val: Option<i64>,
}

impl Code {
    /// Evaluates the code against the current state. Mirrors the
    /// reference engine's tree evaluator exactly, failure for failure.
    #[inline]
    pub(crate) fn eval(
        &self,
        buf: &StateBuf,
        lb: usize,
        config: &psketch_ir::Config,
    ) -> EvalResult {
        if let Some(c) = self.const_val {
            return Ok(c);
        }
        // Single-load atoms (the bulk of operand expressions after
        // folding) skip the dispatch loop and its stack entirely.
        if let [ins] = &*self.ins {
            match *ins {
                Ins::Global(g) => return Ok(buf.get(g as usize)),
                Ins::Local(x) => return Ok(buf.get(lb + x as usize)),
                _ => {}
            }
        }
        if self.max_stack as usize <= INLINE_STACK {
            let mut stack = [0i64; INLINE_STACK];
            self.eval_on(&mut stack, buf, lb, config)
        } else {
            let mut stack = vec![0i64; self.max_stack as usize];
            self.eval_on(&mut stack, buf, lb, config)
        }
    }

    fn eval_on(
        &self,
        stack: &mut [i64],
        buf: &StateBuf,
        lb: usize,
        config: &psketch_ir::Config,
    ) -> EvalResult {
        let ins = &self.ins;
        let mut pc = 0usize;
        let mut sp = 0usize;
        while pc < ins.len() {
            match ins[pc] {
                Ins::Const(c) => {
                    stack[sp] = c;
                    sp += 1;
                }
                Ins::Global(g) => {
                    stack[sp] = buf.get(g as usize);
                    sp += 1;
                }
                Ins::Local(x) => {
                    stack[sp] = buf.get(lb + x as usize);
                    sp += 1;
                }
                Ins::GlobalDyn { base, len } => {
                    let i = stack[sp - 1];
                    if i < 0 || i as usize >= len as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(base as usize + i as usize);
                }
                Ins::LocalDyn { base, len } => {
                    let i = stack[sp - 1];
                    if i < 0 || i as usize >= len as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(lb + base as usize + i as usize);
                }
                Ins::Field {
                    heap_base,
                    nf,
                    cap,
                    fid,
                } => {
                    let obj = stack[sp - 1];
                    if obj == 0 {
                        return Err(FailureKind::NullDeref);
                    }
                    let ix = (obj - 1) as usize;
                    if ix >= cap as usize {
                        return Err(FailureKind::OutOfBounds);
                    }
                    stack[sp - 1] = buf.get(heap_base as usize + ix * nf as usize + fid as usize);
                }
                Ins::Not => stack[sp - 1] = i64::from(stack[sp - 1] == 0),
                Ins::Neg => stack[sp - 1] = config.wrap(-stack[sp - 1]),
                Ins::Bin(op) => {
                    let y = stack[sp - 1];
                    let x = stack[sp - 2];
                    sp -= 1;
                    stack[sp - 1] = match op {
                        BinOp::Add => config.wrap(x + y),
                        BinOp::Sub => config.wrap(x - y),
                        BinOp::Mul => config.wrap(x.wrapping_mul(y)),
                        BinOp::Div => {
                            debug_assert!(y != 0, "lowering guarantees non-zero divisors");
                            config.wrap(x.wrapping_div(y))
                        }
                        BinOp::Mod => {
                            debug_assert!(y != 0);
                            config.wrap(x.wrapping_rem(y))
                        }
                        BinOp::Eq => i64::from(x == y),
                        BinOp::Ne => i64::from(x != y),
                        BinOp::Lt => i64::from(x < y),
                        BinOp::Le => i64::from(x <= y),
                        BinOp::Gt => i64::from(x > y),
                        BinOp::Ge => i64::from(x >= y),
                        BinOp::And | BinOp::Or => unreachable!("compiled to jumps"),
                    };
                }
                Ins::PushBool => stack[sp - 1] = i64::from(stack[sp - 1] != 0),
                Ins::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Ins::JumpIfZero(t) => {
                    sp -= 1;
                    if stack[sp] == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Ins::JumpIfNonZero(t) => {
                    sp -= 1;
                    if stack[sp] != 0 {
                        pc = t as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        debug_assert_eq!(sp, 1, "expression code must leave exactly one value");
        Ok(stack[0])
    }
}

/// A compiled write destination.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum CLv {
    /// A fixed global cell.
    Global(usize),
    /// A local slot (offset by the runtime locals base).
    Local(usize),
    /// A dynamically indexed global region.
    GlobalDyn {
        /// Flat offset of the region's first cell.
        base: usize,
        /// Region length.
        len: usize,
        /// Index code.
        ix: Code,
    },
    /// A dynamically indexed local region.
    LocalDyn {
        /// Slot offset of the region's first local.
        base: usize,
        /// Region length.
        len: usize,
        /// Index code.
        ix: Code,
    },
    /// An object field, fully baked as in [`Ins::Field`].
    Field {
        /// Flat offset of the pool's heap segment.
        heap_base: usize,
        /// Fields per object.
        nf: usize,
        /// Pool capacity in objects.
        cap: usize,
        /// Field index within the object.
        fid: usize,
        /// Object-reference code.
        obj: Code,
    },
}

/// A compiled step operation, mirroring [`psketch_ir::Op`] with all
/// expressions flattened and all layout offsets baked in.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum COp {
    /// `lv = rv`.
    Assign(CLv, Code),
    /// Atomic swap.
    Swap {
        /// Receives the old value.
        dst: CLv,
        /// The swapped location.
        loc: CLv,
        /// The new value.
        val: Code,
    },
    /// Atomic compare-and-swap.
    Cas {
        /// Receives the success flag.
        dst: CLv,
        /// The compared-and-written location.
        loc: CLv,
        /// Expected value.
        old: Code,
        /// Replacement value.
        new: Code,
    },
    /// Atomic fetch-and-add.
    FetchAdd {
        /// Receives the pre-add value.
        dst: CLv,
        /// The incremented location.
        loc: CLv,
        /// The constant addend.
        delta: i64,
    },
    /// Pool allocation with baked layout.
    Alloc {
        /// Receives the new object reference.
        dst: CLv,
        /// Flat offset of the pool's allocation counter.
        alloc_slot: usize,
        /// Flat offset of the pool's heap segment.
        heap_base: usize,
        /// Pool capacity in objects.
        cap: usize,
        /// Per-field default values (also fixes the field count).
        defaults: Box<[i64]>,
        /// Field overrides, in declaration order.
        inits: Box<[(usize, Code)]>,
    },
    /// `assert`.
    Assert(Code),
    /// Atomic-section entry, with its blocking condition when present.
    /// A no-op for [`exec_cop`] — the checker interprets it for
    /// scheduling, reading the condition via the step's code.
    AtomicBegin(Option<Code>),
    /// Atomic-section exit (no-op).
    AtomicEnd,
}

/// One compiled step: guard code plus operation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CStep {
    /// The step's guard.
    pub(crate) guard: Code,
    /// The step's operation.
    pub(crate) op: COp,
}

/// One thread's dense pc-indexed compiled step array.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ThreadCode {
    /// `steps[pc]` is the compiled form of the thread's step `pc`.
    pub(crate) steps: Box<[CStep]>,
}

/// Resolves a compiled write destination to its flat buffer offset.
/// Mirrors the reference engine's l-value resolution exactly.
fn resolve_clv(
    lv: &CLv,
    buf: &StateBuf,
    lb: usize,
    config: &psketch_ir::Config,
) -> Result<usize, FailureKind> {
    Ok(match lv {
        CLv::Global(g) => *g,
        CLv::Local(x) => lb + *x,
        CLv::GlobalDyn { base, len, ix } => {
            let i = ix.eval(buf, lb, config)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            base + i as usize
        }
        CLv::LocalDyn { base, len, ix } => {
            let i = ix.eval(buf, lb, config)?;
            if i < 0 || i as usize >= *len {
                return Err(FailureKind::OutOfBounds);
            }
            lb + base + i as usize
        }
        CLv::Field {
            heap_base,
            nf,
            cap,
            fid,
            obj,
        } => {
            let o = obj.eval(buf, lb, config)?;
            if o == 0 {
                return Err(FailureKind::NullDeref);
            }
            let ix = (o - 1) as usize;
            if ix >= *cap {
                return Err(FailureKind::OutOfBounds);
            }
            heap_base + ix * nf + fid
        }
    })
}

/// Executes one compiled operation (guard already known true),
/// journaling every write. Mirrors the reference engine's operation
/// semantics operation for operation, in the same evaluation order,
/// so failures are identical.
pub(crate) fn exec_cop(
    op: &COp,
    buf: &mut StateBuf,
    lb: usize,
    j: &mut UndoJournal,
    config: &psketch_ir::Config,
) -> Result<(), FailureKind> {
    match op {
        COp::Assign(lv, rv) => {
            let v = rv.eval(buf, lb, config)?;
            let off = resolve_clv(lv, buf, lb, config)?;
            buf.set(off, v, j);
        }
        COp::Swap { dst, loc, val } => {
            let v = val.eval(buf, lb, config)?;
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let old = buf.get(loc_off);
            buf.set(loc_off, v, j);
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, old, j);
        }
        COp::Cas { dst, loc, old, new } => {
            let ov = old.eval(buf, lb, config)?;
            let nv = new.eval(buf, lb, config)?;
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let cur = buf.get(loc_off);
            let ok = cur == ov;
            if ok {
                buf.set(loc_off, nv, j);
            }
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, i64::from(ok), j);
        }
        COp::FetchAdd { dst, loc, delta } => {
            let loc_off = resolve_clv(loc, buf, lb, config)?;
            let old = buf.get(loc_off);
            buf.set(loc_off, config.wrap(old + delta), j);
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, old, j);
        }
        COp::Alloc {
            dst,
            alloc_slot,
            heap_base,
            cap,
            defaults,
            inits,
        } => {
            let obj = buf.get(*alloc_slot);
            if obj as usize >= *cap {
                return Err(FailureKind::PoolExhausted);
            }
            buf.set(*alloc_slot, obj + 1, j);
            let nf = defaults.len();
            let base = heap_base + obj as usize * nf;
            for (fid, &default) in defaults.iter().enumerate() {
                buf.set(base + fid, default, j);
            }
            // Evaluate overrides before publishing the reference (they
            // see the freshly written defaults, as in the reference
            // engine).
            let mut vals = Vec::with_capacity(inits.len());
            for (fid, rv) in inits.iter() {
                vals.push((*fid, rv.eval(buf, lb, config)?));
            }
            for (fid, v) in vals {
                buf.set(base + fid, v, j);
            }
            let dst_off = resolve_clv(dst, buf, lb, config)?;
            buf.set(dst_off, obj + 1, j);
        }
        COp::Assert(c) => {
            if c.eval(buf, lb, config)? == 0 {
                return Err(FailureKind::AssertFailed);
            }
        }
        COp::AtomicBegin(_) | COp::AtomicEnd => {}
    }
    Ok(())
}

/// Points the placeholder jump at `at` to the next emitted index.
fn patch(out: &mut [Ins], at: usize) {
    let target = out.len() as u32;
    match &mut out[at] {
        Ins::Jump(t) | Ins::JumpIfZero(t) | Ins::JumpIfNonZero(t) => *t = target,
        _ => unreachable!("patched instruction is a jump"),
    }
}

fn field_ins(sid: usize, fid: usize, l: &Lowered, lay: &StateLayout) -> Ins {
    let layout = &l.structs[sid];
    Ins::Field {
        heap_base: lay.heap_cell(sid, 0) as u32,
        nf: layout.fields.len() as u32,
        cap: layout.capacity as u32,
        fid: fid as u32,
    }
}

/// What the streaming folder produced for one subtree: a constant the
/// caller has *not* emitted yet (parents fold through it — the
/// deferral is what makes short-circuit pruning and constant binops
/// free), or an expression whose instructions are already in `out`,
/// tagged with the stack depth its folded tree needs and whether its
/// folded top node already yields 0/1 (the shapes `normalize_bool`
/// passes through unchanged).
enum Folded {
    Const(i64),
    Expr { depth: u32, boolean: bool },
}

/// Emits `rv`'s micro-ops with holes resolved and constants folded in
/// stream: the instructions pushed to `out` are exactly those
/// [`emit_rv`] would produce for the substituted-and-folded tree, but
/// that tree is never materialized. Mirrors `fold_rv` (the folder
/// behind the whole-program [`psketch_ir::specialize`] oracle) case
/// for case; the oracle test holds the two in lockstep.
fn emit_fold(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> Folded {
    match rv {
        Rv::Const(c) => Folded::Const(*c),
        Rv::Hole(h) => Folded::Const(holes.value(*h) as i64),
        Rv::Global(g) => {
            out.push(Ins::Global(*g as u32));
            Folded::Expr {
                depth: 1,
                boolean: false,
            }
        }
        Rv::Local(x) => {
            out.push(Ins::Local(*x as u32));
            Folded::Expr {
                depth: 1,
                boolean: false,
            }
        }
        Rv::GlobalDyn { base, len, ix } => {
            let depth = emit_fold_operand(ix, holes, l, lay, out);
            out.push(Ins::GlobalDyn {
                base: *base as u32,
                len: *len as u32,
            });
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::LocalDyn { base, len, ix } => {
            let depth = emit_fold_operand(ix, holes, l, lay, out);
            out.push(Ins::LocalDyn {
                base: *base as u32,
                len: *len as u32,
            });
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::Field { sid, fid, obj } => {
            let depth = emit_fold_operand(obj, holes, l, lay, out);
            out.push(field_ins(*sid, *fid, l, lay));
            Folded::Expr {
                depth,
                boolean: false,
            }
        }
        Rv::Unary(op, a) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(c) => Folded::Const(fold_const_unop(*op, c, &l.config)),
            Folded::Expr { depth, .. } => {
                match op {
                    UnOp::Not => out.push(Ins::Not),
                    UnOp::Neg => out.push(Ins::Neg),
                    UnOp::BitsToInt => {} // identity
                }
                Folded::Expr {
                    depth,
                    boolean: matches!(op, UnOp::Not),
                }
            }
        },
        Rv::Binary(BinOp::And, a, b) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(0) => Folded::Const(0),
            Folded::Const(_) => emit_normalized_bool(b, holes, l, lay, out),
            Folded::Expr { depth: da, .. } => {
                let jz = out.len();
                out.push(Ins::JumpIfZero(u32::MAX));
                let db = emit_fold_operand(b, holes, l, lay, out);
                out.push(Ins::PushBool);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jz);
                out.push(Ins::Const(0));
                patch(out, jend);
                Folded::Expr {
                    depth: da.max(db).max(1),
                    boolean: true,
                }
            }
        },
        Rv::Binary(BinOp::Or, a, b) => match emit_fold(a, holes, l, lay, out) {
            Folded::Const(0) => emit_normalized_bool(b, holes, l, lay, out),
            Folded::Const(_) => Folded::Const(1),
            Folded::Expr { depth: da, .. } => {
                let jnz = out.len();
                out.push(Ins::JumpIfNonZero(u32::MAX));
                let db = emit_fold_operand(b, holes, l, lay, out);
                out.push(Ins::PushBool);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jnz);
                out.push(Ins::Const(1));
                patch(out, jend);
                Folded::Expr {
                    depth: da.max(db).max(1),
                    boolean: true,
                }
            }
        },
        Rv::Binary(op, a, b) => {
            let va = emit_fold(a, holes, l, lay, out);
            let mark = out.len();
            let vb = emit_fold(b, holes, l, lay, out);
            let boolean = boolean_result(*op);
            match (va, vb) {
                (Folded::Const(x), Folded::Const(y)) => {
                    match fold_const_binop(*op, x, y, &l.config) {
                        Some(v) => Folded::Const(v),
                        // Unfoldable (division by zero): left to fail
                        // at run time, exactly as the oracle compiles
                        // the unfolded constant pair.
                        None => {
                            out.push(Ins::Const(x));
                            out.push(Ins::Const(y));
                            out.push(Ins::Bin(*op));
                            Folded::Expr { depth: 2, boolean }
                        }
                    }
                }
                (Folded::Const(x), Folded::Expr { depth: db, .. }) => {
                    insert_before(out, mark, Ins::Const(x));
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: 1 + db,
                        boolean,
                    }
                }
                (Folded::Expr { depth: da, .. }, Folded::Const(y)) => {
                    out.push(Ins::Const(y));
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: da.max(2),
                        boolean,
                    }
                }
                (Folded::Expr { depth: da, .. }, Folded::Expr { depth: db, .. }) => {
                    out.push(Ins::Bin(*op));
                    Folded::Expr {
                        depth: da.max(1 + db),
                        boolean,
                    }
                }
            }
        }
        Rv::Ite(c, t, e) => match emit_fold(c, holes, l, lay, out) {
            // Constant condition: only the demanded branch is visited,
            // so the dead branch costs nothing — not even a walk.
            Folded::Const(0) => emit_fold(e, holes, l, lay, out),
            Folded::Const(_) => emit_fold(t, holes, l, lay, out),
            Folded::Expr { depth: dc, .. } => {
                let jz = out.len();
                out.push(Ins::JumpIfZero(u32::MAX));
                let dt = emit_fold_operand(t, holes, l, lay, out);
                let jend = out.len();
                out.push(Ins::Jump(u32::MAX));
                patch(out, jz);
                let de = emit_fold_operand(e, holes, l, lay, out);
                patch(out, jend);
                Folded::Expr {
                    depth: dc.max(dt).max(de),
                    boolean: false,
                }
            }
        },
    }
}

/// Emits the subtree, materializing a deferred constant — for operand
/// positions that demand a value on the stack. Returns the folded
/// tree's stack depth.
fn emit_fold_operand(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> u32 {
    match emit_fold(rv, holes, l, lay, out) {
        Folded::Const(c) => {
            out.push(Ins::Const(c));
            1
        }
        Folded::Expr { depth, .. } => depth,
    }
}

/// `normalize_bool` over the folded right operand of an `&&`/`||`
/// whose left folded to a constant, streamed: constants collapse to
/// 0/1, expressions already producing 0/1 pass through, anything else
/// gets a `!= 0` appended.
fn emit_normalized_bool(
    b: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    out: &mut Vec<Ins>,
) -> Folded {
    match emit_fold(b, holes, l, lay, out) {
        Folded::Const(c) => Folded::Const(i64::from(c != 0)),
        r @ Folded::Expr { boolean: true, .. } => r,
        Folded::Expr {
            depth,
            boolean: false,
        } => {
            out.push(Ins::Const(0));
            out.push(Ins::Bin(BinOp::Ne));
            Folded::Expr {
                depth: depth.max(2),
                boolean: true,
            }
        }
    }
}

/// Inserts `ins` at `at`, re-aiming the shifted jumps. Used when a
/// strict binop's left operand folded to a constant after the right
/// operand's code already streamed out: the constant belongs *before*
/// that code. Every jump in the shifted tail belongs to the right
/// operand — its targets are forward and land inside (or one past) its
/// own region, so they all move with it; jumps before `at` target at
/// most `at`, which still begins the same continuation.
fn insert_before(out: &mut Vec<Ins>, at: usize, ins: Ins) {
    out.insert(at, ins);
    for x in &mut out[at + 1..] {
        match x {
            Ins::Jump(t) | Ins::JumpIfZero(t) | Ins::JumpIfNonZero(t) => {
                debug_assert_ne!(*t, u32::MAX, "shifted jump must already be patched");
                *t += 1;
            }
            _ => {}
        }
    }
}

/// Compiles one expression to a [`Code`], resolving holes and folding
/// constants in stream — producing exactly the `Code` that compiling
/// the substituted-and-folded tree would: same instructions, same
/// `max_stack`, same `const_val`. `scratch` is a reusable emission
/// buffer (cleared here) so per-expression allocation is exactly one
/// right-sized `Arc<[Ins]>`.
pub(crate) fn compile_code_folded(
    rv: &Rv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> Code {
    scratch.clear();
    let max_stack = emit_fold_operand(rv, holes, l, lay, scratch);
    let const_val = match scratch.as_slice() {
        [Ins::Const(c)] => Some(*c),
        _ => None,
    };
    Code {
        max_stack,
        ins: scratch.as_slice().into(),
        const_val,
    }
}

/// Compiles an l-value with emit-time hole substitution in the index
/// and object expressions (the only l-value positions holes can
/// occupy), mirroring `fold_lv`.
fn compile_lv_folded(
    lv: &Lv,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> CLv {
    match lv {
        Lv::Global(g) => CLv::Global(*g),
        Lv::Local(x) => CLv::Local(*x),
        Lv::GlobalDyn { base, len, ix } => CLv::GlobalDyn {
            base: *base,
            len: *len,
            ix: compile_code_folded(ix, holes, l, lay, scratch),
        },
        Lv::LocalDyn { base, len, ix } => CLv::LocalDyn {
            base: *base,
            len: *len,
            ix: compile_code_folded(ix, holes, l, lay, scratch),
        },
        Lv::Field { sid, fid, obj } => {
            let layout = &l.structs[*sid];
            CLv::Field {
                heap_base: lay.heap_cell(*sid, 0),
                nf: layout.fields.len(),
                cap: layout.capacity,
                fid: *fid,
                obj: compile_code_folded(obj, holes, l, lay, scratch),
            }
        }
    }
}

/// Compiles an operation with emit-time hole substitution in every
/// r-value and l-value position, mirroring `fold_op`.
pub(crate) fn compile_op_folded(
    op: &Op,
    holes: &Assignment,
    l: &Lowered,
    lay: &StateLayout,
    scratch: &mut Vec<Ins>,
) -> COp {
    match op {
        Op::Assign(lv, rv) => COp::Assign(
            compile_lv_folded(lv, holes, l, lay, scratch),
            compile_code_folded(rv, holes, l, lay, scratch),
        ),
        Op::Swap { dst, loc, val } => COp::Swap {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            val: compile_code_folded(val, holes, l, lay, scratch),
        },
        Op::Cas { dst, loc, old, new } => COp::Cas {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            old: compile_code_folded(old, holes, l, lay, scratch),
            new: compile_code_folded(new, holes, l, lay, scratch),
        },
        Op::FetchAdd { dst, loc, delta } => COp::FetchAdd {
            dst: compile_lv_folded(dst, holes, l, lay, scratch),
            loc: compile_lv_folded(loc, holes, l, lay, scratch),
            delta: *delta,
        },
        Op::Alloc { dst, sid, inits } => {
            let layout = &l.structs[*sid];
            COp::Alloc {
                dst: compile_lv_folded(dst, holes, l, lay, scratch),
                alloc_slot: lay.alloc_slot(*sid),
                heap_base: lay.heap_cell(*sid, 0),
                cap: layout.capacity,
                defaults: layout.fields.iter().map(|(_, _, d)| *d).collect(),
                inits: inits
                    .iter()
                    .map(|(fid, rv)| (*fid, compile_code_folded(rv, holes, l, lay, scratch)))
                    .collect(),
            }
        }
        Op::Assert(c) => COp::Assert(compile_code_folded(c, holes, l, lay, scratch)),
        Op::AtomicBegin(c) => COp::AtomicBegin(
            c.as_ref()
                .map(|c| compile_code_folded(c, holes, l, lay, scratch)),
        ),
        Op::AtomicEnd => COp::AtomicEnd,
    }
}

/// Compiles one thread's step list through the streaming folder.
/// Every step — hole-bearing or not — goes through the same
/// fold-as-you-emit walk, so the emitted code is identical to what
/// compiling the materialized specialized program would produce,
/// without ever cloning the `Lowered`.
fn compile_thread(t: &Thread, l: &Lowered, lay: &StateLayout, holes: &Assignment) -> ThreadCode {
    let mut scratch: Vec<Ins> = Vec::new();
    ThreadCode {
        steps: t
            .steps
            .iter()
            .map(|s| CStep {
                guard: compile_code_folded(&s.guard, holes, l, lay, &mut scratch),
                op: compile_op_folded(&s.op, holes, l, lay, &mut scratch),
            })
            .collect(),
    }
}

/// Sorted, deduplicated hole ids referenced by each trace thread and
/// by each step — conservative: holes in `?:` branches the candidate
/// folds away still count. Candidate-independent, so it is computed
/// lazily (on the first reseal) and shared across the artifact family.
///
/// The two granularities back the two reuse levels of
/// [`CompiledProgram::reseal`]. A *thread* whose listed holes all keep
/// their values compiles to bit-identical code **and footprints** (the
/// footprint pass const-propagates locals across the whole thread, so
/// it can only be reused wholesale). A *step* whose listed holes all
/// keep their values emits bit-identical micro-ops (emission is a pure
/// per-step function of the trees and the referenced hole values), so
/// inside a dirty thread only the steps touching changed holes
/// re-emit; the rest memcpy their arrays over.
struct HoleIndex {
    /// Per trace thread (prologue, workers, epilogue).
    per_thread: Vec<Vec<HoleId>>,
    /// `per_step[tid][i]`: holes referenced by step `i` of thread
    /// `tid` (empty for the vast hole-free majority).
    per_step: Vec<Vec<Vec<HoleId>>>,
}

fn hole_index(l: &Lowered) -> HoleIndex {
    let mut per_thread = Vec::with_capacity(l.num_threads());
    let mut per_step = Vec::with_capacity(l.num_threads());
    for tid in 0..l.num_threads() {
        let mut th: Vec<HoleId> = Vec::new();
        let steps: Vec<Vec<HoleId>> = l
            .thread(tid)
            .steps
            .iter()
            .map(|s| {
                let mut hs = Vec::new();
                step_holes(s, &mut hs);
                hs.sort_unstable();
                hs.dedup();
                th.extend_from_slice(&hs);
                hs
            })
            .collect();
        th.sort_unstable();
        th.dedup();
        per_thread.push(th);
        per_step.push(steps);
    }
    HoleIndex {
        per_thread,
        per_step,
    }
}

/// Candidate-sharpened POR table over per-worker footprints, `None`
/// outside the 2..=64 worker range POR supports (the mask words are
/// `u64`).
fn sharp_por(l: &Lowered, thread_fps: &[Arc<Vec<Footprint>>]) -> Option<Arc<PorTable>> {
    (2..=64).contains(&l.workers.len()).then(|| {
        let slices: Vec<&[Footprint]> = thread_fps.iter().map(|f| f.as_slice()).collect();
        Arc::new(PorTable::from_footprints(l, &slices))
    })
}

/// Candidate-sharpened per-worker footprints (`thread_fps[w]` = worker
/// `w`, one [`Footprint`] per step) and the POR table derived from
/// them. Kept as one unit so the lazy cell forces both together.
struct FpsPor {
    thread_fps: Vec<Arc<Vec<Footprint>>>,
    por: Option<Arc<PorTable>>,
}

fn fps_por(l: &Lowered, candidate: &Assignment) -> FpsPor {
    let thread_fps: Vec<Arc<Vec<Footprint>>> = l
        .workers
        .iter()
        .map(|w| Arc::new(thread_footprints_sharpened(w, &l.config, candidate)))
        .collect();
    let por = sharp_por(l, &thread_fps);
    FpsPor { thread_fps, por }
}

/// Per-worker liveness masks: `masks[w][pc]` is the bitmask vector of
/// worker `w`'s live locals entering step `pc`.
type LiveMasks = Vec<Vec<Vec<u64>>>;

/// The sealed, hole-substituted execution artifact of one candidate:
/// compiled once, shared by the sequential DFS, the parallel engine,
/// replay, sampling and the schedule-bank prescreen. Every table lives
/// behind an [`Arc`], so `Clone` and `Checker::from_compiled` are
/// pointer-bump cheap — engines share the artifact, they never copy
/// it.
#[derive(Clone)]
pub struct CompiledProgram<'l> {
    /// The original (hole-bearing) program the artifact was sealed
    /// from. Kept borrowed: emit-time substitution never materializes
    /// a specialized copy. Trees are used for control decisions (step
    /// structure, `shared` flags, spans); every guard and operation
    /// runs on the micro-op code.
    l: &'l Lowered,
    /// The candidate this artifact was compiled from.
    holes: Assignment,
    /// Flat-state segment table (candidate-independent).
    pub(crate) lay: Arc<StateLayout>,
    /// Words before the first worker record.
    pub(crate) shared_len: usize,
    /// Per-worker AtomicBegin→AtomicEnd pairing
    /// (candidate-independent: substitution preserves op kinds).
    pub(crate) match_end: Arc<Vec<Vec<usize>>>,
    /// Per-worker liveness masks, computed from the *original* program
    /// (substitution never changes which locals a step reads). Lazy and candidate-independent: built on the
    /// first checker construction and shared across the whole reseal
    /// family through the cell, so sealing a candidate never pays for
    /// it and no artifact recomputes it after any family member has.
    live: Arc<OnceLock<Arc<LiveMasks>>>,
    /// Thread-symmetry classes of the *original* program under this
    /// candidate (same reason). Lazy: only the search engines consult
    /// them (replay prescreening runs without the reduction), so
    /// candidates rejected before a full check never pay for the
    /// pairwise worker comparison. Shared by reference when a reseal
    /// finds no worker dirty.
    sym: Arc<OnceLock<Arc<SymmetryClasses>>>,
    /// Candidate-sharpened per-worker footprints and the POR table
    /// built from them (one cell: the table is a deterministic
    /// function of the footprints, so they force together). Lazy —
    /// only a POR-enabled search engine consults the table, so
    /// candidates rejected by replay prescreening never pay the
    /// footprint pass. A reseal reuses clean workers' footprints and
    /// carries the table over when the recomputed footprints come out
    /// identical; when no worker is dirty the cell itself is shared.
    fps_por: Arc<OnceLock<FpsPor>>,
    /// The static (candidate-independent) POR table, built lazily on
    /// first diagnostic use and shared across the whole reseal family
    /// through the cell — sealing never pays for it, and no artifact
    /// recomputes it after any family member has.
    static_por: Arc<OnceLock<Option<Arc<PorTable>>>>,
    /// Sharpening diagnostics — `(sharpened_masks, refines_static)` —
    /// comparing this artifact's sharp table against the static one.
    /// Lazy: the engines never consult them to run, only telemetry
    /// and the differential tests do. Shared by reference when a
    /// reseal reuses the POR table wholesale.
    por_diag: Arc<OnceLock<(u64, bool)>>,
    /// Per-thread micro-op arrays, indexed by trace thread id
    /// (0 = prologue, `1..=n` = workers, `n + 1` = epilogue).
    pub(crate) code: Vec<Arc<ThreadCode>>,
    /// Per-thread and per-step sorted hole ids (trace thread
    /// indexing), the reseal diff's domain. Candidate-independent, so
    /// it is built lazily on the first reseal and shared across the
    /// artifact family through the cell.
    thread_holes: Arc<OnceLock<HoleIndex>>,
    compile_us: u64,
    reseal_us: u64,
    threads_reused: u64,
}

impl<'l> CompiledProgram<'l> {
    /// Compiles `candidate` into a sealed execution artifact.
    pub fn compile(l: &'l Lowered, candidate: &Assignment) -> CompiledProgram<'l> {
        let t0 = Instant::now();
        let lay = Arc::new(StateLayout::new(l));
        let shared_len = lay.worker_off.first().copied().unwrap_or(lay.state_len());
        let match_end = Arc::new(l.workers.iter().map(compute_match_end).collect());
        let code = (0..l.num_threads())
            .map(|tid| Arc::new(compile_thread(l.thread(tid), l, &lay, candidate)))
            .collect();
        CompiledProgram {
            l,
            holes: candidate.clone(),
            lay,
            shared_len,
            match_end,
            live: Arc::new(OnceLock::new()),
            sym: Arc::new(OnceLock::new()),
            fps_por: Arc::new(OnceLock::new()),
            static_por: Arc::new(OnceLock::new()),
            por_diag: Arc::new(OnceLock::new()),
            code,
            thread_holes: Arc::new(OnceLock::new()),
            compile_us: t0.elapsed().as_micros() as u64,
            reseal_us: 0,
            threads_reused: 0,
        }
    }

    /// Seals `candidate` incrementally against a previous artifact of
    /// the *same* program. Threads none of whose holes changed value
    /// reuse their micro-op arrays and footprints by reference; inside
    /// a dirty thread, only the steps that reference a changed hole
    /// re-emit (emission is a pure per-step function of the trees and
    /// the referenced hole values) — the rest copy their arrays over.
    /// Footprints reuse at thread granularity only (the footprint pass
    /// const-propagates locals across the thread), and when the dirty
    /// workers' recomputed footprints come out identical the POR table
    /// carries over too. When no *worker* thread is dirty the POR
    /// masks and symmetry classes carry over wholesale. Falls back to
    /// a fresh [`CompiledProgram::compile`] when `l` is not the
    /// program `prev` was sealed from.
    pub fn reseal(
        prev: &CompiledProgram<'l>,
        l: &'l Lowered,
        candidate: &Assignment,
    ) -> CompiledProgram<'l> {
        if !std::ptr::eq(prev.l, l) {
            return CompiledProgram::compile(l, candidate);
        }
        let t0 = Instant::now();
        let idx = prev.hole_index();
        let changed: Vec<bool> = (0..l.holes.num_holes())
            .map(|h| prev.holes.value(h as HoleId) != candidate.value(h as HoleId))
            .collect();
        let dirty: Vec<bool> = idx
            .per_thread
            .iter()
            .map(|hs| hs.iter().any(|&h| changed[h as usize]))
            .collect();
        let threads_reused = dirty.iter().filter(|d| !**d).count() as u64;
        let mut scratch: Vec<Ins> = Vec::new();
        let code: Vec<Arc<ThreadCode>> = dirty
            .iter()
            .enumerate()
            .map(|(tid, &d)| {
                if !d {
                    return Arc::clone(&prev.code[tid]);
                }
                let steps = l
                    .thread(tid)
                    .steps
                    .iter()
                    .enumerate()
                    .zip(prev.code[tid].steps.iter())
                    .map(|((i, s), pcs)| {
                        if idx.per_step[tid][i].iter().any(|&h| changed[h as usize]) {
                            CStep {
                                guard: compile_code_folded(
                                    &s.guard,
                                    candidate,
                                    l,
                                    &prev.lay,
                                    &mut scratch,
                                ),
                                op: compile_op_folded(&s.op, candidate, l, &prev.lay, &mut scratch),
                            }
                        } else {
                            pcs.clone()
                        }
                    })
                    .collect();
                Arc::new(ThreadCode { steps })
            })
            .collect();
        let any_worker_dirty = (0..l.workers.len()).any(|w| dirty[w + 1]);
        // Symmetry classes read only worker step lists (hole-aware), so
        // they can change exactly when a worker is dirty: a fresh lazy
        // cell makes the next search engine recompute them.
        let sym = if any_worker_dirty {
            Arc::new(OnceLock::new())
        } else {
            Arc::clone(&prev.sym)
        };
        let (fps_por_cell, por_diag) = if !any_worker_dirty {
            // Clean workers ⇒ identical footprints ⇒ identical table:
            // share the cell itself, forced or not.
            (Arc::clone(&prev.fps_por), Arc::clone(&prev.por_diag))
        } else if let Some(pf) = prev.fps_por.get() {
            // The previous artifact already paid the footprint pass:
            // recompute only dirty workers, and since the POR table is
            // a deterministic function of the program and the
            // footprints, identical footprints carry the table (and
            // its sharpening diagnostics) over even when a worker's
            // code changed.
            let thread_fps: Vec<Arc<Vec<Footprint>>> = (0..l.workers.len())
                .map(|w| {
                    if dirty[w + 1] {
                        Arc::new(thread_footprints_sharpened(
                            &l.workers[w],
                            &l.config,
                            candidate,
                        ))
                    } else {
                        Arc::clone(&pf.thread_fps[w])
                    }
                })
                .collect();
            let fps_unchanged = thread_fps
                .iter()
                .zip(&pf.thread_fps)
                .all(|(a, b)| Arc::ptr_eq(a, b) || **a == **b);
            let (por, por_diag) = if fps_unchanged {
                (pf.por.clone(), Arc::clone(&prev.por_diag))
            } else {
                (sharp_por(l, &thread_fps), Arc::new(OnceLock::new()))
            };
            (
                Arc::new(OnceLock::from(FpsPor { thread_fps, por })),
                por_diag,
            )
        } else {
            // The previous artifact never forced its footprints (it
            // was rejected before any POR-enabled check): nothing to
            // reuse, stay lazy.
            (Arc::new(OnceLock::new()), Arc::new(OnceLock::new()))
        };
        let reseal_us = t0.elapsed().as_micros() as u64;
        CompiledProgram {
            l,
            holes: candidate.clone(),
            lay: Arc::clone(&prev.lay),
            shared_len: prev.shared_len,
            match_end: Arc::clone(&prev.match_end),
            live: Arc::clone(&prev.live),
            sym,
            fps_por: fps_por_cell,
            static_por: Arc::clone(&prev.static_por),
            por_diag,
            code,
            thread_holes: Arc::clone(&prev.thread_holes),
            compile_us: reseal_us,
            reseal_us,
            threads_reused,
        }
    }

    /// The program this artifact executes (the original, hole-bearing
    /// `Lowered`, whose step structure the engines read).
    pub fn program(&self) -> &'l Lowered {
        self.l
    }

    /// Wall-clock microseconds spent sealing this artifact (the fresh
    /// compile, or the incremental reseal that produced it).
    pub fn compile_us(&self) -> u64 {
        self.compile_us
    }

    /// Wall-clock microseconds the incremental reseal took (0 for a
    /// fresh compile).
    pub fn reseal_us(&self) -> u64 {
        self.reseal_us
    }

    /// Threads whose micro-op arrays were reused by reference from the
    /// previous artifact (0 for a fresh compile).
    pub fn threads_reused(&self) -> u64 {
        self.threads_reused
    }

    /// Per-thread and per-step hole lists, built on first reseal and
    /// shared across every artifact resealed from this one.
    fn hole_index(&self) -> &HoleIndex {
        self.thread_holes.get_or_init(|| hole_index(self.l))
    }

    /// Per-worker liveness masks, built on the first checker
    /// construction and shared across every artifact resealed from
    /// this one (they depend only on the program, never the
    /// candidate).
    pub(crate) fn live_masks(&self) -> &Arc<LiveMasks> {
        self.live
            .get_or_init(|| Arc::new(self.l.workers.iter().map(compute_liveness).collect()))
    }

    /// Thread-symmetry classes of this candidate, built when a search
    /// engine first asks for them — replay prescreening never does, so
    /// candidates the schedule bank rejects skip the pairwise worker
    /// comparison entirely.
    pub(crate) fn sym_classes(&self) -> &Arc<SymmetryClasses> {
        self.sym
            .get_or_init(|| Arc::new(symmetry_classes(self.l, &self.holes)))
    }

    /// The static (candidate-independent) POR table, built on first
    /// use and shared across every artifact resealed from this one.
    fn static_por_table(&self) -> Option<&Arc<PorTable>> {
        self.static_por
            .get_or_init(|| {
                (2..=64)
                    .contains(&self.l.workers.len())
                    .then(|| Arc::new(PorTable::new(self.l)))
            })
            .as_ref()
    }

    /// The candidate-sharpened footprints and POR table, built on
    /// first use by a POR-enabled engine (or telemetry).
    fn fps_por_forced(&self) -> &FpsPor {
        self.fps_por.get_or_init(|| fps_por(self.l, &self.holes))
    }

    /// The candidate-sharpened POR table (`None` outside the 2..=64
    /// worker range POR supports), forcing the footprint pass on first
    /// use.
    pub(crate) fn por_table(&self) -> Option<&PorTable> {
        self.fps_por_forced().por.as_deref()
    }

    /// `(sharpened_masks, refines_static)`, computed on first request:
    /// the engines never consult the static table to run, so sealing
    /// defers the comparison until telemetry or a test asks.
    fn por_diag(&self) -> (u64, bool) {
        *self.por_diag.get_or_init(
            || match (&self.fps_por_forced().por, self.static_por_table()) {
                (Some(sharp), Some(base)) => {
                    let sharpened = sharp.sharpened_vs(base);
                    let refines = sharp.refines(base);
                    debug_assert!(refines, "sharpened footprints must refine static ones");
                    (sharpened, refines)
                }
                _ => (0, true),
            },
        )
    }

    /// Number of (worker, pc) transition footprint masks the
    /// candidate's constants made strictly tighter than the static
    /// (hole-agnostic) analysis — the sharpening POR benefits from.
    pub fn sharpened_masks(&self) -> u64 {
        self.por_diag().0
    }

    /// True when every candidate-sharpened footprint mask is a subset
    /// of the corresponding static mask — the soundness side condition
    /// the sharpened POR tables rely on (always expected to hold;
    /// exposed for the differential property test).
    pub fn footprint_refines_static(&self) -> bool {
        self.por_diag().1
    }

    /// Bit-for-bit artifact equality: candidate, micro-op code, POR
    /// masks, footprints, symmetry classes and derived counters all
    /// equal. Used by the reseal differential test to prove an
    /// incremental reseal produces exactly the artifact a fresh seal
    /// would.
    #[doc(hidden)]
    pub fn artifact_eq(&self, other: &CompiledProgram<'_>) -> bool {
        std::ptr::eq(self.l, other.l)
            && self.holes.values() == other.holes.values()
            && self.shared_len == other.shared_len
            && self.match_end == other.match_end
            && *self.live_masks() == *other.live_masks()
            && **self.sym_classes() == **other.sym_classes()
            && match (self.por_table(), other.por_table()) {
                (Some(a), Some(b)) => *a == *b,
                (None, None) => true,
                _ => false,
            }
            && self.code.len() == other.code.len()
            && self.code.iter().zip(&other.code).all(|(a, b)| **a == **b)
            && self
                .fps_por_forced()
                .thread_fps
                .iter()
                .zip(&other.fps_por_forced().thread_fps)
                .all(|(a, b)| **a == **b)
            && self.por_diag() == other.por_diag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_ir::{desugar::desugar_program, lower::lower_program, Config};

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap()
    }

    /// Evaluates `rv` in the initial state with four zeroed locals,
    /// through the reference engine's tree evaluator and through
    /// compiled code.
    fn eval_both(rv: &Rv, l: &Lowered) -> (EvalResult, EvalResult) {
        let lay = StateLayout::new(l);
        let mut buf = StateBuf::initial(&lay, l);
        let lb = buf.push_scratch(4);
        let holes = l.holes.identity_assignment();
        let store = crate::reference::RefStore::initial(l);
        let reference = crate::reference::eval_rv(rv, &store, &[0; 4], &holes, l);
        let code = compile_code_folded(rv, &holes, l, &lay, &mut Vec::new());
        let compiled = code.eval(&buf, lb, &l.config);
        (reference, compiled)
    }

    #[test]
    fn compiled_expressions_match_interpreter() {
        let l = lowered("int g = 5; int[3] a; struct N { int v = 2; } harness void main() { }");
        let deref_null = Rv::Field {
            sid: 0,
            fid: 0,
            obj: Box::new(Rv::Const(0)),
        };
        let cases = vec![
            Rv::Const(7),
            Rv::Global(0),
            Rv::Binary(
                BinOp::Add,
                Box::new(Rv::Global(0)),
                Box::new(Rv::Const(100)),
            ),
            Rv::Binary(
                BinOp::And,
                Box::new(Rv::Const(0)),
                Box::new(deref_null.clone()),
            ),
            Rv::Binary(
                BinOp::Or,
                Box::new(Rv::Const(1)),
                Box::new(deref_null.clone()),
            ),
            Rv::Binary(BinOp::And, Box::new(Rv::Global(0)), Box::new(Rv::Global(0))),
            deref_null.clone(),
            Rv::GlobalDyn {
                base: 1,
                len: 3,
                ix: Box::new(Rv::Const(5)),
            },
            Rv::GlobalDyn {
                base: 1,
                len: 3,
                ix: Box::new(Rv::Const(-1)),
            },
            Rv::Ite(
                Box::new(Rv::Global(0)),
                Box::new(Rv::Const(10)),
                Box::new(deref_null),
            ),
            Rv::Unary(UnOp::Not, Box::new(Rv::Global(0))),
            Rv::Unary(UnOp::Neg, Box::new(Rv::Const(i64::from(i8::MIN)))),
            Rv::Binary(BinOp::Mod, Box::new(Rv::Const(7)), Box::new(Rv::Const(3))),
        ];
        for rv in cases {
            let (reference, compiled) = eval_both(&rv, &l);
            assert_eq!(reference, compiled, "divergence on {rv:?}");
        }
    }

    #[test]
    fn emit_time_substitution_matches_specialize_oracle() {
        // Compiling the original program with per-step emit-time
        // substitution must produce exactly the micro-op code and POR
        // masks that compiling the materialized specialized program
        // would — `specialize` stays as the oracle.
        let l = lowered(
            "int[4] a; int g;
             harness void main() {
                 int x = ??(3);
                 fork (i; 2) {
                     int k = ??(2);
                     a[k + i] = g + x;
                     if (x == 1) { g = 2; }
                 }
                 assert g >= ??(2);
             }",
        );
        let n = l.holes.num_holes();
        for seed in 0..3u64 {
            let cand = Assignment::from_values((0..n).map(|h| (seed + h as u64) % 2).collect());
            let cp = CompiledProgram::compile(&l, &cand);
            let spec = psketch_ir::specialize(&l, &cand);
            let none = Assignment::from_values(vec![0; n]);
            let cps = CompiledProgram::compile(&spec, &none);
            assert_eq!(cp.code.len(), cps.code.len());
            for (tid, (a, b)) in cp.code.iter().zip(&cps.code).enumerate() {
                assert_eq!(**a, **b, "thread {tid} code diverges from oracle");
            }
            match (cp.por_table(), cps.por_table()) {
                (Some(a), Some(b)) => assert_eq!(*a, *b, "POR masks diverge from oracle"),
                (None, None) => {}
                _ => panic!("POR presence diverges from oracle"),
            }
        }
    }

    #[test]
    fn reseal_reuses_clean_threads_and_matches_fresh_compile() {
        let l = lowered(
            "int g;
             harness void main() {
                 int x = ??(3);
                 fork (i; 2) { g = g + x; }
                 assert g >= ??(3);
             }",
        );
        let n = l.holes.num_holes();
        assert_eq!(n, 2, "sketch should lower to two holes");
        let a0 = Assignment::from_values(vec![1, 0]);
        let cp0 = CompiledProgram::compile(&l, &a0);
        assert_eq!(cp0.threads_reused(), 0);
        assert_eq!(cp0.reseal_us(), 0);

        // Unchanged candidate: every thread reuses by reference.
        let same = CompiledProgram::reseal(&cp0, &l, &a0);
        assert_eq!(same.threads_reused(), l.workers.len() as u64 + 2);
        for (tid, (a, b)) in same.code.iter().zip(&cp0.code).enumerate() {
            assert!(
                Arc::ptr_eq(a, b),
                "thread {tid} must be shared by reference"
            );
        }
        assert!(same.artifact_eq(&CompiledProgram::compile(&l, &a0)));

        // The workers read x through a hoisted global, so they carry no
        // holes themselves: flipping either hole leaves them clean.
        for flipped in [
            Assignment::from_values(vec![2, 0]),
            Assignment::from_values(vec![1, 2]),
        ] {
            let rs = CompiledProgram::reseal(&cp0, &l, &flipped);
            assert!(
                rs.threads_reused() >= l.workers.len() as u64,
                "workers must be reused when only prologue/epilogue holes change"
            );
            let fresh = CompiledProgram::compile(&l, &flipped);
            assert!(
                rs.artifact_eq(&fresh),
                "resealed artifact must be bit-identical to a fresh seal"
            );
        }
    }

    #[test]
    fn compile_produces_hole_free_artifact_with_sharp_footprints() {
        let l = lowered(
            "int[4] a;
             harness void main() {
                 fork (i; 2) { a[??(2) + i] = 1; }
                 assert a[0] >= 0;
             }",
        );
        let a = l.holes.identity_assignment();
        let cp = CompiledProgram::compile(&l, &a);
        assert!(cp.footprint_refines_static());
        assert!(
            cp.sharpened_masks() > 0,
            "folded hole index must tighten the whole-array footprint"
        );
        assert_eq!(cp.code.len(), l.workers.len() + 2);
        assert!(cp.compile_us() < 10_000_000, "compile time is measured");
    }
}
