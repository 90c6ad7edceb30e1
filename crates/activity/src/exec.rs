//! IR interpreter with cycle-stamped value tracing.
//!
//! Executes a scheduled [`HlsDesign`] over its block iteration spaces,
//! recording for every static op the `(cycle, bits)` sequence of values it
//! produces and consumes — the native equivalent of the paper's IR-level
//! detection probes. Cycle stamps follow the FSMD schedule: iteration `t` of
//! a pipelined block issues at `t × II`, of a sequential block at
//! `t × (depth + 1)`, and an op within the iteration fires at its scheduled
//! start cycle.
//!
//! Blocks execute in *distributed* order (all iterations of block 0, then
//! block 1, …). For the affine kernels modeled here this is semantics-
//! preserving loop distribution — each block's reads depend only on earlier
//! blocks' completed writes or its own earlier iterations.
//!
//! # Column plan
//!
//! Within a block every op fires exactly once per iteration, so every
//! traced stream is one *value column* (one `u32` per iteration) stamped
//! with an affine cycle progression (`block_base + op_start + it × stride`).
//! A per-block plan maps each stream to a column so that every value is
//! computed, stored, folded and encoded once:
//!
//! * **Aliasing.** An SSA operand whose producer ran earlier in the same
//!   iteration reads exactly the producer's output, so its input stream
//!   *is* the producer's column — no copy. Value-preserving ops (`sext`,
//!   `zext`, `trunc`, `bitcast`, `br` and the loop-counter `phi`) alias
//!   their source column too, and each induction variable has one counter
//!   column.
//! * **Row/column split.** Ops that do not depend on memory the block
//!   writes — counter and address arithmetic, GEPs, loads of arrays the
//!   block never stores, and float ops fed only by these — run op-major,
//!   one kernel per opcode over whole columns, with an odometer walking the
//!   iteration space (no div/mod counter decode). Only the memory-carried
//!   chain — loads of arrays the block stores, their dependents, and the
//!   stores — runs iteration by iteration in program order, because memory
//!   order requires it.
//! * **Fallback.** A block with an operand produced in another block or
//!   later in the same block runs every op in row-major order. That order
//!   reads such an operand as its register's last write: 0 for another
//!   block's op, the previous iteration's value (0 in the first) for a
//!   later op. A block whose integer values do not fit the 32-bit column
//!   encoding takes the same order, so integer arithmetic stays exact.
//!
//! # Event storage
//!
//! Traced streams land in one flat per-design [`EventArena`]. Once every
//! block is evaluated, the encode pass walks the ops in program order and
//! appends, per op, its value-operand input streams and then its output
//! stream, each run-length segmented into affine runs. Each column is
//! folded into SA/AR once and encoded from its values once; a later stream
//! over the same column (an aliased input) copies that encoding and shifts
//! every run's start cycle by the difference of the two ops' start cycles
//! ([`copy_shifted`]). The arena is word-for-word what encoding every
//! stream from its own values gives. [`TraceScratch`] recycles the value
//! columns and the arena words across design points, which is what the
//! dataset builder's work-stealing workers do.
//!
//! The two passes are timed once per design as the `sample.trace.eval` and
//! `sample.trace.encode` stages of [`pg_util::metrics`].

use crate::events::{copy_shifted, encode_affine, EventArena, EventRef};
use crate::sa::{sa_ar_values, NodeActivity};
use crate::stimuli::Stimuli;
use pg_hls::HlsDesign;
use pg_ir::{IrOp, Opcode, Operand, ValueId};
use pg_util::metrics;
use std::collections::HashMap;
use std::sync::Arc;

/// A full execution trace of a design: one shared compressed arena plus
/// per-op stream refs (flat, no per-op allocations).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Compressed event storage for every traced stream.
    pub arena: Arc<EventArena>,
    /// Per-op output stream, indexed by [`ValueId`] index.
    outputs: Vec<EventRef>,
    /// Per-operand input streams, flattened over all ops. Only streams a
    /// graph edge can reference are materialized (value operands);
    /// induction-variable and constant operand slots stay empty — their
    /// only consumer is the per-op activity, which is precomputed below.
    inputs_flat: Vec<EventRef>,
    /// Prefix index of each op's input refs (`ops.len() + 1` entries).
    input_start: Vec<u32>,
    /// Per-op activity statistics, folded from the raw value columns
    /// during execution (bit-identical to folding the encoded streams).
    activities: Vec<NodeActivity>,
    /// Design latency (cycles) used to normalize activities.
    pub latency: u64,
    /// Final array contents (for functional verification).
    pub final_arrays: HashMap<String, Vec<f32>>,
}

impl ExecutionTrace {
    /// Output stream of op `v`.
    pub fn output(&self, v: ValueId) -> EventRef {
        self.outputs[v.idx()]
    }

    /// Input streams of op `v`, one per operand (constant operands are
    /// empty streams).
    pub fn inputs(&self, v: ValueId) -> &[EventRef] {
        &self.inputs_flat
            [self.input_start[v.idx()] as usize..self.input_start[v.idx() + 1] as usize]
    }

    /// Activity statistics of op `v` (precomputed during execution).
    pub fn activity_of(&self, v: ValueId) -> NodeActivity {
        self.activities[v.idx()]
    }

    /// An event-free trace with the design's latency: used by vector-less
    /// estimators (the Vivado surrogate) that need the netlist structure but
    /// assume default toggle rates instead of simulating.
    pub fn empty(design: &HlsDesign) -> Self {
        let (input_start, total) = input_offsets(&design.ir.ops);
        ExecutionTrace {
            arena: Arc::new(EventArena::new()),
            outputs: vec![EventRef::EMPTY; design.ir.ops.len()],
            inputs_flat: vec![EventRef::EMPTY; total as usize],
            input_start,
            activities: vec![NodeActivity::default(); design.ir.ops.len()],
            latency: design.report.latency_cycles,
            final_arrays: HashMap::new(),
        }
    }
}

/// Prefix index of each op's operand slots in the flattened per-operand
/// input-ref table: returns `(input_start, total_slots)` with
/// `ops.len() + 1` prefix entries.
fn input_offsets(ops: &[IrOp]) -> (Vec<u32>, u32) {
    let mut input_start = Vec::with_capacity(ops.len() + 1);
    let mut total = 0u32;
    input_start.push(0);
    for op in ops {
        total += op.operands.len() as u32;
        input_start.push(total);
    }
    (input_start, total)
}

/// Reusable interpreter buffers. One instance per worker thread: the value
/// columns and the arena's word buffer survive across design points, so
/// steady-state tracing performs no large allocations.
#[derive(Debug, Default)]
pub struct TraceScratch {
    /// Value columns of every block of the current design, block after
    /// block (see the module docs); each keeps its capacity across designs.
    cols: Vec<Vec<u32>>,
    /// Recycled arena backing store.
    arena: Vec<u32>,
}

impl TraceScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        TraceScratch::default()
    }

    /// Takes the arena allocation back from a trace nobody else references
    /// (no-op when the arena is still shared, e.g. by a live work graph).
    pub fn reclaim(&mut self, trace: ExecutionTrace) {
        if let Ok(arena) = Arc::try_unwrap(trace.arena) {
            self.arena = arena.into_words();
        }
    }
}

/// Runtime value: integer (addresses, counters, flags) or float (data).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    I(i64),
    F(f32),
}

impl Val {
    fn bits(self) -> u32 {
        match self {
            Val::I(i) => i as i32 as u32,
            Val::F(f) => f.to_bits(),
        }
    }

    fn as_i(self) -> i64 {
        match self {
            Val::I(i) => i,
            Val::F(f) => f as i64,
        }
    }

    fn as_f(self) -> f32 {
        match self {
            Val::I(i) => i as f32,
            Val::F(f) => f,
        }
    }

    fn ty(self) -> Ty {
        match self {
            Val::I(_) => Ty::I,
            Val::F(_) => Ty::F,
        }
    }
}

/// Static type of a column written before the row phase. An integer
/// column stores each value's low 32 bits (the traced bits) and is only
/// kept when every value fits, so reading it back as `i32` is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    F,
}

impl Ty {
    #[inline]
    fn val(self, bits: u32) -> Val {
        match self {
            Ty::I => Val::I(bits as i32 as i64),
            Ty::F => Val::F(f32::from_bits(bits)),
        }
    }
}

/// Does `v` survive the 32-bit column encoding?
#[inline]
fn fits(v: i64) -> bool {
    v as i32 as i64 == v
}

/// A memory address `offset + Σ coeff[d]·counter[d]`, precompiled from the
/// op's affine `linear` expression against the block's dimension order.
#[derive(Debug, Clone)]
struct PreAddr {
    slot: usize,
    /// Dense per-dimension coefficients.
    coeff: Vec<i64>,
    offset: i64,
}

impl PreAddr {
    #[inline]
    fn eval(&self, counters: &[i64]) -> i64 {
        let mut acc = self.offset;
        for (&c, &x) in self.coeff.iter().zip(counters) {
            acc += c * x;
        }
        acc
    }
}

/// Calls `f` with `offset + Σ coeff[d]·counter[d]` at every point of the
/// iteration space in row-major order. An odometer: one add per point and
/// one carry per wrap of an inner dimension, no div/mod decode.
fn affine_walk(trips: &[usize], coeff: &[i64], offset: i64, mut f: impl FnMut(i64)) {
    let Some((&inner, outer)) = trips.split_last() else {
        f(offset);
        return;
    };
    let step = coeff[outer.len()];
    let mut ctr = vec![0usize; outer.len()];
    let mut base = offset;
    loop {
        let mut v = base;
        for _ in 0..inner {
            f(v);
            v += step;
        }
        let mut d = outer.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            ctr[d] += 1;
            base += coeff[d];
            if ctr[d] < outer[d] {
                break;
            }
            ctr[d] = 0;
            base -= coeff[d] * outer[d] as i64;
        }
    }
}

/// Advances row-major counters by one iteration.
#[inline]
fn advance(counters: &mut [i64], trips: &[usize]) {
    for d in (0..counters.len()).rev() {
        counters[d] += 1;
        if counters[d] < trips[d] as i64 {
            return;
        }
        counters[d] = 0;
    }
}

/// "No column yet" marker of the per-register column map.
const NONE: usize = usize::MAX;

/// How a planned op reads one operand (and which stream traces it).
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// SSA value whose producer `reg` ran earlier in this iteration:
    /// column `col` holds its value.
    Reg { col: usize, reg: usize },
    /// Fallback order: the last write of register `reg` (another block's
    /// op or a later one), traced in its own column `col`.
    Lag { col: usize, reg: usize },
    /// Induction variable `dim`, traced in its counter column `col`.
    Dim { col: usize, dim: usize },
    /// Untraced constant: literal, scalar argument or unbound induction
    /// variable (read as 0).
    Imm(Val),
}

/// Who writes a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// Counter column of one dimension, written up front.
    Dim(usize),
    /// Written op-major by a column-phase kernel.
    Kernel,
    /// Written iteration by iteration by a row-phase op.
    Row,
    /// Pushed iteration by iteration from a register (fallback order).
    Lag,
}

#[derive(Debug, Clone, Copy)]
struct Column {
    fill: Fill,
    /// Value type; meaningful for columns written before the row phase.
    ty: Ty,
}

/// How a row-phase op reads one operand in the iteration loop.
#[derive(Debug, Clone, Copy)]
enum RowArg {
    /// A column written before the row phase.
    Col(usize, Ty),
    /// A register written earlier in this iteration by a row-phase op.
    Reg(usize),
    /// A register's last write, pushed to column `.1` as it is read.
    Lag(usize, usize),
    /// The current counter of a dimension.
    Dim(usize),
    Imm(Val),
}

/// One op of a block plan.
#[derive(Debug, Clone)]
struct PlanOp {
    /// Register (ValueId index) the op writes.
    reg: usize,
    opcode: Opcode,
    /// Scheduled start cycle within the iteration.
    start: u64,
    /// Operands: `BlockPlan::args[args.0..args.1]`.
    args: (usize, usize),
    /// Output column.
    out: usize,
    /// `out` is the column of the op's source operand.
    alias: bool,
    /// Precompiled address for gep/load/store.
    addr: Option<PreAddr>,
}

/// A row-phase op: `BlockPlan::ops[op]`, reading
/// `BlockPlan::row_args[args.0..args.1]`.
#[derive(Debug, Clone, Copy)]
struct RowOp {
    op: usize,
    args: (usize, usize),
}

/// The column plan of one block (see the module docs).
#[derive(Debug)]
struct BlockPlan {
    ops: Vec<PlanOp>,
    args: Vec<Arg>,
    cols: Vec<Column>,
    /// Ops of the row phase, in program order.
    row_ops: Vec<RowOp>,
    row_args: Vec<RowArg>,
    /// Ops of the column phase (indices into `ops`), in program order.
    kernels: Vec<usize>,
    /// The block's first column in `TraceScratch::cols`.
    base: usize,
    trips: Vec<usize>,
    total: usize,
    /// Cycles between consecutive iterations.
    stride: u64,
}

impl BlockPlan {
    fn new_col(&mut self, fill: Fill, ty: Ty) -> usize {
        self.cols.push(Column { fill, ty });
        self.cols.len() - 1
    }

    /// Type of an operand read before the row phase.
    fn arg_ty(&self, arg: &Arg) -> Ty {
        match *arg {
            Arg::Reg { col, .. } | Arg::Lag { col, .. } | Arg::Dim { col, .. } => self.cols[col].ty,
            Arg::Imm(v) => v.ty(),
        }
    }
}

/// Fewest operands `step` reads for `opcode` (a shorter op is left to the
/// row phase, which fails on it exactly as the interpreter always has).
fn min_operands(opcode: Opcode) -> usize {
    use Opcode::*;
    match opcode {
        Alloca | GetElementPtr | Load | Phi | Br | Ret => 0,
        Store | SExt | ZExt | Trunc | BitCast => 1,
        FAdd | FSub | FMul | FDiv | FCmp | Add | Sub | Mul | ICmp => 2,
        Select => 3,
    }
}

/// Static result type of a column-phase op.
fn out_ty(plan: &BlockPlan, opcode: Opcode, args: &[Arg]) -> Ty {
    use Opcode::*;
    match opcode {
        Load | Store | FAdd | FSub | FMul | FDiv => Ty::F,
        SExt | ZExt | Trunc | BitCast | Br => args.first().map_or(Ty::I, |a| plan.arg_ty(a)),
        Phi => args.get(1).map_or(Ty::I, |a| plan.arg_ty(a)),
        Select => plan.arg_ty(&args[1]),
        Alloca | GetElementPtr | FCmp | Add | Sub | Mul | ICmp | Ret => Ty::I,
    }
}

/// Array-slot and address of a memory op.
fn pre_addr(op: &IrOp, dims: &[pg_ir::LoopDim], slot_of: &HashMap<&str, usize>) -> PreAddr {
    let m = op.mem.as_ref().expect("mem op has memref");
    let slot = *slot_of
        .get(m.array.as_str())
        .unwrap_or_else(|| panic!("array `{}` missing from stimuli", m.array));
    let mut coeff = vec![0i64; dims.len()];
    for (v, c) in &m.linear.terms {
        let d = dims
            .iter()
            .position(|d| &d.var == v)
            .unwrap_or_else(|| panic!("unbound loop variable `{v}` in affine expression"));
        coeff[d] += *c;
    }
    PreAddr {
        slot,
        coeff,
        offset: m.linear.offset,
    }
}

/// Plans block `bi`, whose columns start at `base`: resolves every operand
/// once, assigns columns, and splits the ops into the column and row
/// phases. `row_major` forces the fallback order. `col_of` maps registers
/// to columns while planning and is all [`NONE`] again on return.
fn plan_block(
    design: &HlsDesign,
    (bi, base): (usize, usize),
    stimuli: &Stimuli,
    slot_of: &HashMap<&str, usize>,
    mut row_major: bool,
    col_of: &mut [usize],
) -> BlockPlan {
    let func = &design.ir;
    let block = &func.blocks[bi];
    let bs = &design.schedule.blocks[bi];
    let trips: Vec<usize> = block.dims.iter().map(|d| d.trip).collect();
    assert!(
        trips.iter().all(|&t| t > 0),
        "block `{}` has a zero-trip loop",
        block.label
    );
    // An operand not produced earlier in the block forces the fallback.
    for &vid in &block.ops {
        let op = func.op(vid);
        row_major |= op.value_operands().any(|v| col_of[v.idx()] == NONE);
        col_of[vid.idx()] = 0;
    }
    for &vid in &block.ops {
        col_of[vid.idx()] = NONE;
    }
    let mut stored: Vec<usize> = Vec::new();
    for &vid in &block.ops {
        let op = func.op(vid);
        if op.opcode == Opcode::Store {
            stored.push(pre_addr(op, &block.dims, slot_of).slot);
        }
    }

    let mut plan = BlockPlan {
        ops: Vec::with_capacity(block.ops.len()),
        args: Vec::new(),
        cols: Vec::new(),
        row_ops: Vec::new(),
        row_args: Vec::new(),
        kernels: Vec::new(),
        base,
        total: trips.iter().product::<usize>().max(1),
        trips,
        stride: if block.pipelined {
            bs.ii.max(1) as u64
        } else {
            bs.depth as u64 + 1
        },
    };
    let mut dim_col = vec![NONE; block.dims.len()];
    for (oi, &vid) in block.ops.iter().enumerate() {
        let op = func.op(vid);
        let a0 = plan.args.len();
        for operand in &op.operands {
            let arg = match operand {
                Operand::Value(v) => match col_of[v.idx()] {
                    NONE => Arg::Lag {
                        col: plan.new_col(Fill::Lag, Ty::I),
                        reg: v.idx(),
                    },
                    col => Arg::Reg { col, reg: v.idx() },
                },
                Operand::ConstF(c) => Arg::Imm(Val::F(*c as f32)),
                Operand::ConstI(c) => Arg::Imm(Val::I(*c)),
                Operand::IVar(name) => match block.dims.iter().position(|d| &d.var == name) {
                    Some(dim) => {
                        if dim_col[dim] == NONE {
                            dim_col[dim] = plan.new_col(Fill::Dim(dim), Ty::I);
                        }
                        Arg::Dim {
                            col: dim_col[dim],
                            dim,
                        }
                    }
                    None => Arg::Imm(Val::I(0)),
                },
                Operand::Scalar(name) => Arg::Imm(Val::F(stimuli.scalar(name))),
            };
            plan.args.push(arg);
        }
        let args = &plan.args[a0..];
        let addr = matches!(
            op.opcode,
            Opcode::GetElementPtr | Opcode::Load | Opcode::Store
        )
        .then(|| pre_addr(op, &block.dims, slot_of));

        let reads_row = args.iter().any(|a| match *a {
            Arg::Reg { col, .. } | Arg::Lag { col, .. } => {
                matches!(plan.cols[col].fill, Fill::Row | Fill::Lag)
            }
            _ => false,
        });
        let row = row_major
            || reads_row
            || args.len() < min_operands(op.opcode)
            || match op.opcode {
                Opcode::Store => true,
                Opcode::Load => addr.as_ref().is_some_and(|a| stored.contains(&a.slot)),
                Opcode::Select => plan.arg_ty(&args[1]) != plan.arg_ty(&args[2]),
                _ => false,
            };

        let source = match op.opcode {
            Opcode::SExt | Opcode::ZExt | Opcode::Trunc | Opcode::BitCast | Opcode::Br => {
                args.first()
            }
            Opcode::Phi => args.get(1),
            _ => None,
        };
        let (out, alias) = match source {
            Some(Arg::Reg { col, .. } | Arg::Lag { col, .. } | Arg::Dim { col, .. }) => {
                (*col, true)
            }
            _ if row => (plan.new_col(Fill::Row, Ty::I), false),
            _ => {
                let ty = out_ty(&plan, op.opcode, &plan.args[a0..]);
                (plan.new_col(Fill::Kernel, ty), false)
            }
        };
        col_of[vid.idx()] = out;

        let index = plan.ops.len();
        if row {
            let r0 = plan.row_args.len();
            for k in a0..plan.args.len() {
                let read = match plan.args[k] {
                    Arg::Reg { col, reg } => match plan.cols[col] {
                        Column {
                            fill: Fill::Row | Fill::Lag,
                            ..
                        } => RowArg::Reg(reg),
                        Column { ty, .. } => RowArg::Col(col, ty),
                    },
                    Arg::Lag { col, reg } => RowArg::Lag(reg, col),
                    Arg::Dim { dim, .. } => RowArg::Dim(dim),
                    Arg::Imm(v) => RowArg::Imm(v),
                };
                plan.row_args.push(read);
            }
            plan.row_ops.push(RowOp {
                op: index,
                args: (r0, plan.row_args.len()),
            });
        } else if !alias {
            plan.kernels.push(index);
        }
        plan.ops.push(PlanOp {
            reg: vid.idx(),
            opcode: op.opcode,
            start: bs.start[oi] as u64,
            args: (a0, plan.args.len()),
            out,
            alias,
            addr,
        });
    }
    for &vid in &block.ops {
        col_of[vid.idx()] = NONE;
    }
    plan
}

/// A column-kernel operand.
#[derive(Debug, Clone, Copy)]
enum In<'a> {
    Col(&'a [u32], Ty),
    Imm(Val),
}

impl In<'_> {
    #[inline]
    fn at(self, i: usize) -> Val {
        match self {
            In::Col(c, ty) => ty.val(c[i]),
            In::Imm(v) => v,
        }
    }
}

/// Float binary kernel over the operands' `as_f` view, writing `f`'s bits.
fn float_bin(out: &mut Vec<u32>, n: usize, a: In<'_>, b: In<'_>, f: impl Fn(f32, f32) -> u32) {
    let fb = f32::from_bits;
    match (a, b) {
        (In::Col(x, Ty::F), In::Col(y, Ty::F)) => {
            out.extend(x[..n].iter().zip(&y[..n]).map(|(&x, &y)| f(fb(x), fb(y))));
        }
        (In::Col(x, Ty::F), In::Imm(y)) => {
            let y = y.as_f();
            out.extend(x[..n].iter().map(|&x| f(fb(x), y)));
        }
        (In::Imm(x), In::Col(y, Ty::F)) => {
            let x = x.as_f();
            out.extend(y[..n].iter().map(|&y| f(x, fb(y))));
        }
        _ => out.extend((0..n).map(|i| f(a.at(i).as_f(), b.at(i).as_f()))),
    }
}

/// Integer binary kernel over the operands' `as_i` view. Stores each
/// result's low 32 bits; returns whether every result fit.
fn int_bin(
    out: &mut Vec<u32>,
    n: usize,
    a: In<'_>,
    b: In<'_>,
    f: impl Fn(i64, i64) -> i64,
) -> bool {
    let iv = |x: u32| x as i32 as i64;
    let mut ok = true;
    let mut put = |v: i64| {
        ok &= fits(v);
        v as i32 as u32
    };
    match (a, b) {
        (In::Col(x, Ty::I), In::Col(y, Ty::I)) => {
            out.extend(
                x[..n]
                    .iter()
                    .zip(&y[..n])
                    .map(|(&x, &y)| put(f(iv(x), iv(y)))),
            );
        }
        (In::Col(x, Ty::I), In::Imm(y)) => {
            let y = y.as_i();
            out.extend(x[..n].iter().map(|&x| put(f(iv(x), y))));
        }
        (In::Imm(x), In::Col(y, Ty::I)) => {
            let x = x.as_i();
            out.extend(y[..n].iter().map(|&y| put(f(x, iv(y)))));
        }
        _ => out.extend((0..n).map(|i| put(f(a.at(i).as_i(), b.at(i).as_i())))),
    }
    ok
}

/// Fills `out` with `n` copies of `v`; returns whether `v` fits a column.
fn splat(out: &mut Vec<u32>, n: usize, v: Val) -> bool {
    out.resize(n, v.bits());
    match v {
        Val::I(i) => fits(i),
        Val::F(_) => true,
    }
}

/// Runs one column-phase op over every iteration into `out` (the same
/// values `step` computes per iteration). `ins` holds the first three
/// operands (missing ones read as `I(0)`, which is what `step` substitutes
/// for the optional operands of `phi` and `br`). Returns whether every
/// integer result fits the column encoding.
fn run_kernel(
    op: &PlanOp,
    ins: [In<'_>; 3],
    out: &mut Vec<u32>,
    trips: &[usize],
    n: usize,
    arrays: &[Vec<f32>],
) -> bool {
    use Opcode::*;
    let [a, b, c] = ins;
    match op.opcode {
        GetElementPtr => {
            let addr = op.addr.as_ref().expect("gep has address");
            let mut ok = true;
            affine_walk(trips, &addr.coeff, addr.offset, |v| {
                ok &= fits(v);
                out.push(v as i32 as u32);
            });
            ok
        }
        Load => {
            let addr = op.addr.as_ref().expect("load has address");
            let data = &arrays[addr.slot];
            affine_walk(trips, &addr.coeff, addr.offset, |v| {
                out.push(data[v as usize].to_bits());
            });
            true
        }
        FAdd => {
            float_bin(out, n, a, b, |x, y| (x + y).to_bits());
            true
        }
        FSub => {
            float_bin(out, n, a, b, |x, y| (x - y).to_bits());
            true
        }
        FMul => {
            float_bin(out, n, a, b, |x, y| (x * y).to_bits());
            true
        }
        FDiv => {
            float_bin(out, n, a, b, |x, y| {
                (if y == 0.0 { 0.0 } else { x / y }).to_bits()
            });
            true
        }
        FCmp => {
            float_bin(out, n, a, b, |x, y| (x < y) as u32);
            true
        }
        Add => int_bin(out, n, a, b, |x, y| x + y),
        Sub => int_bin(out, n, a, b, |x, y| x - y),
        Mul => int_bin(out, n, a, b, |x, y| x * y),
        ICmp => int_bin(out, n, a, b, |x, y| (x < y) as i64),
        Select => {
            let mut ok = true;
            out.extend((0..n).map(|i| {
                let v = if a.at(i).as_i() != 0 {
                    b.at(i)
                } else {
                    c.at(i)
                };
                ok &= v.ty() == Ty::F || fits(v.as_i());
                v.bits()
            }));
            ok
        }
        // Value-preserving ops reach a kernel only over an immediate source
        // (a column source is aliased instead).
        SExt | ZExt | Trunc | BitCast | Br => splat(out, n, a.at(0)),
        Phi => splat(out, n, b.at(0)),
        Alloca | Ret => splat(out, n, Val::I(0)),
        Store => unreachable!("stores run in the row phase"),
    }
}

/// Evaluates one planned block into its columns (`cols` starts at the
/// block's first column) and the arrays. Returns `false`, with the arrays
/// untouched, when an integer column would not hold its values exactly —
/// the caller then re-plans the block in fallback order.
fn eval_block(
    plan: &BlockPlan,
    cols: &mut [Vec<u32>],
    arrays: &mut [Vec<f32>],
    regs: &mut [Val],
    vals: &mut Vec<Val>,
) -> bool {
    let (trips, n) = (&plan.trips[..], plan.total);
    for c in cols.iter_mut() {
        c.clear();
        c.reserve(n);
    }
    let mut unit = vec![0i64; trips.len()];
    for (ci, col) in plan.cols.iter().enumerate() {
        if let Fill::Dim(d) = col.fill {
            unit[d] = 1;
            let out = &mut cols[ci];
            affine_walk(trips, &unit, 0, |v| out.push(v as u32));
            unit[d] = 0;
        }
    }

    // Column phase: op-major, one kernel per op.
    for &oi in &plan.kernels {
        let op = &plan.ops[oi];
        let mut out = std::mem::take(&mut cols[op.out]);
        let mut ins = [In::Imm(Val::I(0)); 3];
        for (slot, arg) in ins.iter_mut().zip(&plan.args[op.args.0..op.args.1]) {
            *slot = match *arg {
                Arg::Reg { col, .. } | Arg::Lag { col, .. } | Arg::Dim { col, .. } => {
                    In::Col(&cols[col], plan.cols[col].ty)
                }
                Arg::Imm(v) => In::Imm(v),
            };
        }
        let ok = run_kernel(op, ins, &mut out, trips, n, arrays);
        cols[op.out] = out;
        if !ok {
            return false;
        }
    }

    // Row phase: the memory-carried chain, iteration by iteration.
    if plan.row_ops.is_empty() {
        return true;
    }
    regs.fill(Val::I(0));
    let mut counters = vec![0i64; trips.len()];
    for it in 0..n {
        for ro in &plan.row_ops {
            let op = &plan.ops[ro.op];
            vals.clear();
            for read in &plan.row_args[ro.args.0..ro.args.1] {
                vals.push(match *read {
                    RowArg::Col(c, ty) => ty.val(cols[c][it]),
                    RowArg::Reg(r) => regs[r],
                    RowArg::Lag(r, c) => {
                        cols[c].push(regs[r].bits());
                        regs[r]
                    }
                    RowArg::Dim(d) => Val::I(counters[d]),
                    RowArg::Imm(v) => v,
                });
            }
            let result = step(op.opcode, op.addr.as_ref(), vals, &counters, arrays);
            regs[op.reg] = result;
            if !op.alias {
                cols[op.out].push(result.bits());
            }
        }
        advance(&mut counters, trips);
    }
    true
}

/// Per-column caches of the encode pass.
#[derive(Default)]
struct Streams {
    /// SA/AR fold of each column.
    fold: Vec<Option<(f64, f64)>>,
    /// First encoding of each column and the start cycle it was stamped at.
    enc: Vec<Option<(EventRef, u64)>>,
}

/// Appends the traced streams of one evaluated block, whose first
/// iteration issues at `block_base`, to `words` in the interpreter's order
/// — per op, value-operand inputs then the output — and writes their refs
/// and the ops' activities into `trace`.
fn encode_block(
    plan: &BlockPlan,
    cols: &[Vec<u32>],
    block_base: u64,
    words: &mut Vec<u32>,
    streams: &mut Streams,
    trace: &mut ExecutionTrace,
) {
    let (stride, latency) = (plan.stride as u32, trace.latency);
    streams.fold.clear();
    streams.fold.resize(plan.cols.len(), None);
    streams.enc.clear();
    streams.enc.resize(plan.cols.len(), None);
    let Streams { fold, enc } = streams;
    let mut fold_of = |c: usize| *fold[c].get_or_insert_with(|| sa_ar_values(&cols[c], latency));
    let mut stream = |c: usize, start: u64, words: &mut Vec<u32>| match enc[c] {
        Some((first, at)) => copy_shifted(words, first, start.wrapping_sub(at)),
        None => {
            let r = encode_affine(words, start, stride, &cols[c]);
            enc[c] = Some((r, start));
            r
        }
    };
    for op in &plan.ops {
        let start = block_base + op.start;
        let base = trace.input_start[op.reg] as usize;
        let args = &plan.args[op.args.0..op.args.1];
        let mut sa_in_sum = 0.0f64;
        for (k, arg) in args.iter().enumerate() {
            match *arg {
                Arg::Reg { col, .. } | Arg::Lag { col, .. } => {
                    trace.inputs_flat[base + k] = stream(col, start, words);
                    sa_in_sum += fold_of(col).0;
                }
                Arg::Dim { col, .. } => sa_in_sum += fold_of(col).0,
                Arg::Imm(_) => {}
            }
        }
        let (sa_out, ar) = fold_of(op.out);
        trace.outputs[op.reg] = stream(op.out, start, words);
        let sa_in = if args.is_empty() {
            0.0
        } else {
            sa_in_sum / args.len() as f64
        };
        trace.activities[op.reg] = NodeActivity {
            ar,
            sa_in,
            sa_out,
            sa_overall: sa_in + sa_out,
        };
    }
}

/// Executes `design` with `stimuli`, producing the full activity trace.
/// Allocates fresh buffers; the dataset builder's hot path goes through
/// [`execute_in`] with a per-worker [`TraceScratch`].
///
/// # Panics
///
/// Panics if the design references arrays or scalars missing from the
/// stimuli (both come from the same kernel in normal use).
pub fn execute(design: &HlsDesign, stimuli: &Stimuli) -> ExecutionTrace {
    execute_in(design, stimuli, &mut TraceScratch::new())
}

/// [`execute`] against reusable buffers: the value columns and arena words
/// come from (and the columns return to) `scratch`. Bit-identical to
/// `execute` — buffer reuse never leaks into trace contents.
///
/// # Panics
///
/// Panics if the design references arrays or scalars missing from the
/// stimuli.
pub fn execute_in(
    design: &HlsDesign,
    stimuli: &Stimuli,
    scratch: &mut TraceScratch,
) -> ExecutionTrace {
    let func = &design.ir;
    // Array storage resolved to dense slots once (the interpreter's inner
    // loop must not hash strings).
    let mut array_names: Vec<String> = Vec::new();
    let mut array_data: Vec<Vec<f32>> = Vec::new();
    let mut slot_of: HashMap<&str, usize> = HashMap::new();
    for (name, data) in &stimuli.arrays {
        slot_of.insert(name.as_str(), array_data.len());
        array_names.push(name.clone());
        array_data.push(data.clone());
    }
    let cols = &mut scratch.cols;

    // Eval pass: plan and evaluate every block into its value columns.
    let plans: Vec<BlockPlan> = {
        let _t = metrics::stage("sample.trace.eval");
        let mut plans = Vec::with_capacity(func.blocks.len());
        let mut regs: Vec<Val> = vec![Val::I(0); func.ops.len()];
        let mut vals: Vec<Val> = Vec::with_capacity(8);
        let mut col_of: Vec<usize> = vec![NONE; func.ops.len()];
        let mut base = 0usize;
        for bi in 0..func.blocks.len() {
            let mut plan = plan_block(design, (bi, base), stimuli, &slot_of, false, &mut col_of);
            // The fallback order always evaluates, so this runs at most twice.
            loop {
                let end = base + plan.cols.len();
                if cols.len() < end {
                    cols.resize_with(end, Vec::new);
                }
                if eval_block(
                    &plan,
                    &mut cols[base..end],
                    &mut array_data,
                    &mut regs,
                    &mut vals,
                ) {
                    break;
                }
                plan = plan_block(design, (bi, base), stimuli, &slot_of, true, &mut col_of);
            }
            base += plan.cols.len();
            plans.push(plan);
        }
        plans
    };

    // Encode pass: fold and encode every block's streams in program order.
    let (input_start, n_inputs) = input_offsets(&func.ops);
    let mut trace = ExecutionTrace {
        arena: Arc::new(EventArena::new()),
        outputs: vec![EventRef::EMPTY; func.ops.len()],
        inputs_flat: vec![EventRef::EMPTY; n_inputs as usize],
        input_start,
        activities: vec![NodeActivity::default(); func.ops.len()],
        latency: design.report.latency_cycles,
        final_arrays: HashMap::new(),
    };
    let mut words = std::mem::take(&mut scratch.arena);
    words.clear();
    {
        let _t = metrics::stage("sample.trace.encode");
        let mut streams = Streams::default();
        let mut block_base: u64 = 0;
        for (plan, bs) in plans.iter().zip(&design.schedule.blocks) {
            let cols = &cols[plan.base..plan.base + plan.cols.len()];
            encode_block(plan, cols, block_base, &mut words, &mut streams, &mut trace);
            block_base += plan.total as u64 * plan.stride + bs.depth as u64 + 1;
        }
    }
    trace.arena = Arc::new(EventArena::from_words(words));
    trace.final_arrays = array_names.into_iter().zip(array_data).collect();
    trace
}

#[inline]
fn step(
    opcode: Opcode,
    addr: Option<&PreAddr>,
    vals: &[Val],
    counters: &[i64],
    arrays: &mut [Vec<f32>],
) -> Val {
    match opcode {
        Opcode::Alloca => Val::I(0),
        Opcode::GetElementPtr => {
            let a = addr.expect("gep has address");
            Val::I(a.eval(counters))
        }
        Opcode::Load => {
            let a = addr.expect("load has address");
            let at = a.eval(counters);
            Val::F(arrays[a.slot][at as usize])
        }
        Opcode::Store => {
            let a = addr.expect("store has address");
            let at = a.eval(counters);
            let value = vals[0].as_f();
            arrays[a.slot][at as usize] = value;
            Val::F(value)
        }
        Opcode::FAdd => Val::F(vals[0].as_f() + vals[1].as_f()),
        Opcode::FSub => Val::F(vals[0].as_f() - vals[1].as_f()),
        Opcode::FMul => Val::F(vals[0].as_f() * vals[1].as_f()),
        Opcode::FDiv => {
            let d = vals[1].as_f();
            Val::F(if d == 0.0 { 0.0 } else { vals[0].as_f() / d })
        }
        Opcode::FCmp => Val::I((vals[0].as_f() < vals[1].as_f()) as i64),
        Opcode::Add => Val::I(vals[0].as_i() + vals[1].as_i()),
        Opcode::Sub => Val::I(vals[0].as_i() - vals[1].as_i()),
        Opcode::Mul => Val::I(vals[0].as_i() * vals[1].as_i()),
        Opcode::ICmp => Val::I((vals[0].as_i() < vals[1].as_i()) as i64),
        Opcode::SExt | Opcode::ZExt | Opcode::Trunc | Opcode::BitCast => vals[0],
        Opcode::Phi => vals.get(1).copied().unwrap_or(Val::I(0)),
        Opcode::Br => vals.first().copied().unwrap_or(Val::I(0)),
        Opcode::Select => {
            if vals[0].as_i() != 0 {
                vals[1]
            } else {
                vals[2]
            }
        }
        Opcode::Ret => Val::I(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_hls::{Directives, HlsFlow};
    use pg_ir::expr::aff;
    use pg_ir::{ArrayKind, Expr, Kernel, KernelBuilder};

    fn axpy() -> Kernel {
        KernelBuilder::new("axpy")
            .array("a", &[16], ArrayKind::Input)
            .array("x", &[16], ArrayKind::Input)
            .array("y", &[16], ArrayKind::Output)
            .loop_("i", 16, |b| {
                b.assign(
                    ("y", vec![aff("i")]),
                    Expr::load("y", vec![aff("i")])
                        + Expr::load("a", vec![aff("i")]) * Expr::load("x", vec![aff("i")]),
                );
            })
            .build()
            .unwrap()
    }

    fn run(kernel: &Kernel, d: &Directives) -> (HlsDesign, Stimuli, ExecutionTrace) {
        let design = HlsFlow::new().run(kernel, d).unwrap();
        let stim = Stimuli::for_kernel(kernel, 0);
        let trace = execute(&design, &stim);
        (design, stim, trace)
    }

    #[test]
    fn computes_axpy_correctly() {
        let k = axpy();
        let (_d, stim, trace) = run(&k, &Directives::new());
        let y = &trace.final_arrays["y"];
        for (i, &yi) in y.iter().enumerate().take(16) {
            let expect = stim.arrays["y"][i] + stim.arrays["a"][i] * stim.arrays["x"][i];
            assert!((yi - expect).abs() < 1e-6, "y[{i}] = {yi} != {expect}");
        }
    }

    #[test]
    fn unrolled_design_computes_same_result() {
        let k = axpy();
        let (_d0, _s0, t0) = run(&k, &Directives::new());
        let mut d = Directives::new();
        d.pipeline("i")
            .unroll("i", 4)
            .partition("a", 4)
            .partition("y", 2);
        let (_d1, _s1, t1) = run(&k, &d);
        assert_eq!(t0.final_arrays["y"], t1.final_arrays["y"]);
    }

    #[test]
    fn every_op_traced_per_iteration() {
        let k = axpy();
        let (design, _s, trace) = run(&k, &Directives::new());
        for op in &design.ir.ops {
            let trip = design.ir.blocks[op.block].trip_product();
            assert_eq!(
                trace.arena.count(trace.output(op.id)),
                trip,
                "{} executed wrong number of times",
                op.id
            );
            // Value operand streams carry one event per iteration;
            // constant streams are skipped (zero switching) and
            // induction-variable streams are folded into the activity
            // but never materialized (no graph edge reads them).
            for (k2, &inp) in trace.inputs(op.id).iter().enumerate() {
                let expected = match &op.operands[k2] {
                    pg_ir::Operand::Value(_) => trip,
                    _ => 0,
                };
                assert_eq!(
                    trace.arena.count(inp),
                    expected,
                    "operand {k2} of {}",
                    op.id
                );
            }
        }
    }

    #[test]
    fn cycle_stamps_monotone_per_op() {
        let k = axpy();
        let (design, _s, trace) = run(&k, &Directives::new());
        for op in &design.ir.ops {
            let ev = trace.arena.decode(trace.output(op.id));
            for w in ev.windows(2) {
                assert!(w[0].0 < w[1].0, "non-monotone cycle stamps");
            }
        }
    }

    #[test]
    fn pipelined_stamps_advance_by_ii() {
        let k = axpy();
        let mut dir = Directives::new();
        dir.pipeline("i");
        let (design, _s, trace) = run(&k, &dir);
        let bs = design.schedule.blocks.last().unwrap();
        // find a load op in the pipelined block
        let op = design
            .ir
            .ops
            .iter()
            .find(|o| o.opcode == Opcode::Load)
            .unwrap();
        let times: Vec<u64> = trace
            .arena
            .decode(trace.output(op.id))
            .iter()
            .map(|e| e.0)
            .collect();
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], bs.ii as u64);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let k = axpy();
        let design = HlsFlow::new().run(&k, &Directives::new()).unwrap();
        let stim = Stimuli::for_kernel(&k, 0);
        let fresh = execute(&design, &stim);
        let mut scratch = TraceScratch::new();
        // Dirty the scratch with a different design first.
        let mut d = Directives::new();
        d.unroll("i", 4);
        let other = HlsFlow::new().run(&k, &d).unwrap();
        let warmup = execute_in(&other, &stim, &mut scratch);
        scratch.reclaim(warmup);
        let reused = execute_in(&design, &stim, &mut scratch);
        assert_eq!(fresh, reused, "scratch reuse changed the trace");
        scratch.reclaim(reused);
        assert!(!scratch.arena.is_empty(), "arena buffer must be reclaimed");
    }

    #[test]
    fn matmul_matches_reference() {
        let k = KernelBuilder::new("mm")
            .array("a", &[6, 6], ArrayKind::Input)
            .array("b", &[6, 6], ArrayKind::Input)
            .array("c", &[6, 6], ArrayKind::Output)
            .loop_("i", 6, |bb| {
                bb.loop_("j", 6, |bb| {
                    bb.loop_("k", 6, |bb| {
                        bb.assign(
                            ("c", vec![aff("i"), aff("j")]),
                            Expr::load("c", vec![aff("i"), aff("j")])
                                + Expr::load("a", vec![aff("i"), aff("k")])
                                    * Expr::load("b", vec![aff("k"), aff("j")]),
                        );
                    });
                });
            })
            .build()
            .unwrap();
        let (_d, stim, trace) = run(&k, &Directives::new());
        let (a, b, c0) = (&stim.arrays["a"], &stim.arrays["b"], &stim.arrays["c"]);
        let c = &trace.final_arrays["c"];
        for i in 0..6 {
            for j in 0..6 {
                let mut acc = c0[i * 6 + j];
                for kk in 0..6 {
                    acc += a[i * 6 + kk] * b[kk * 6 + j];
                }
                assert!((c[i * 6 + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn scalar_arguments_flow_through() {
        let k = KernelBuilder::new("sc")
            .array("x", &[4], ArrayKind::Input)
            .array("y", &[4], ArrayKind::Output)
            .scalar("alpha")
            .loop_("i", 4, |b| {
                b.assign(
                    ("y", vec![aff("i")]),
                    Expr::scalar("alpha") * Expr::load("x", vec![aff("i")]),
                );
            })
            .build()
            .unwrap();
        let (_d, stim, trace) = run(&k, &Directives::new());
        let alpha = stim.scalar("alpha");
        for i in 0..4 {
            assert!((trace.final_arrays["y"][i] - alpha * stim.arrays["x"][i]).abs() < 1e-6);
        }
    }
}
