//! Bit-identity wall for the column-at-a-time trace interpreter
//! (`pg_activity::execute_in`).
//!
//! `reference_execute` below is the row-major interpreter the column plan
//! replaced, kept verbatim: every iteration decodes its counters, runs
//! every op in program order, and pushes one value per traced stream into
//! its own column; every stream is then folded and encoded from its own
//! column. The tests assert that `execute_in` gives the same trace — arena
//! words, stream refs, activities, latency and final arrays — over:
//!
//! * random directive configurations of all nine Polybench kernels;
//! * hand-edited IR that forces the row-major fallback (operands from
//!   another block or from a later op), integer values that overflow the
//!   32-bit column encoding, and opcodes the HLS front end never emits;
//! * one `TraceScratch` reused across kernels whose column counts differ.

use std::collections::HashMap;

use proptest::prelude::*;

use powergear_repro::activity::events::{encode_affine, EventRef};
use powergear_repro::activity::sa::{sa_ar_values, NodeActivity};
use powergear_repro::activity::{execute, execute_in, ExecutionTrace, Stimuli, TraceScratch};
use powergear_repro::datasets::{enumerate_space, polybench};
use powergear_repro::hls::{Directives, HlsDesign, HlsFlow};
use powergear_repro::ir::{Kernel, Opcode, Operand, ValueId};

/// What the reference interpreter produces: the fields of an
/// `ExecutionTrace`, in the trace's own layout.
struct RefTrace {
    words: Vec<u32>,
    outputs: Vec<EventRef>,
    inputs_flat: Vec<EventRef>,
    input_start: Vec<u32>,
    activities: Vec<NodeActivity>,
    latency: u64,
    final_arrays: HashMap<String, Vec<f32>>,
}

/// Prefix index of each op's operand slots (as in the interpreter).
fn input_offsets(ops: &[powergear_repro::ir::IrOp]) -> (Vec<u32>, u32) {
    let mut input_start = Vec::with_capacity(ops.len() + 1);
    let mut total = 0u32;
    input_start.push(0);
    for op in ops {
        total += op.operands.len() as u32;
        input_start.push(total);
    }
    (input_start, total)
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
}

/// A pre-resolved operand: every string lookup (induction variables,
/// scalar arguments) and [`ValueId`] indirection is resolved once per
/// block, so the iteration loop is pure index arithmetic.
#[derive(Debug, Clone, Copy)]
enum PreOperand {
    /// Result register of another op.
    Reg(usize),
    /// Integer constant (also unbound induction variables, which the
    /// interpreter has always read as 0).
    ConstI(i64),
    /// Float constant.
    ConstF(f32),
    /// Induction variable, as an index into the block's dense counters.
    Dim(usize),
    /// Scalar argument, resolved from the stimuli.
    Scalar(f32),
}

/// A memory address `offset + Σ coeff·counter[dim]`, precompiled from the
/// op's affine `linear` expression against the block's dimension order.
#[derive(Debug, Clone)]
struct PreAddr {
    slot: usize,
    terms: Vec<(usize, i64)>,
    offset: i64,
}

impl PreAddr {
    #[inline]
    fn eval(&self, counters: &[i64]) -> i64 {
        let mut acc = self.offset;
        for &(dim, coeff) in &self.terms {
            acc += coeff * counters[dim];
        }
        acc
    }
}

/// One op of a block, fully pre-resolved for the iteration loop.
#[derive(Debug, Clone)]
struct PreOp {
    /// Index into `per_op`/`regs` (the op's ValueId index).
    reg: usize,
    opcode: Opcode,
    /// Scheduled start cycle within the iteration.
    start: u64,
    operands: Vec<PreOperand>,
    /// Precompiled address for gep/load/store.
    addr: Option<PreAddr>,
}

fn reference_execute(design: &HlsDesign, stimuli: &Stimuli) -> RefTrace {
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

    // Flat stream-ref tables (filled per block below).
    let mut outputs: Vec<EventRef> = vec![EventRef::EMPTY; func.ops.len()];
    let (input_start, n_inputs) = input_offsets(&func.ops);
    let mut inputs_flat: Vec<EventRef> = vec![EventRef::EMPTY; n_inputs as usize];
    let mut activities: Vec<NodeActivity> = vec![NodeActivity::default(); func.ops.len()];

    let mut words: Vec<u32> = Vec::new();
    let cols: &mut Vec<Vec<u32>> = &mut Vec::new();

    // Result registers; reset per block (ops never read across blocks —
    // dataflow between blocks goes through the arrays).
    let mut regs: Vec<Val> = vec![Val::I(0); func.ops.len()];
    let mut vals: Vec<Val> = Vec::with_capacity(8);

    let mut block_base: u64 = 0;
    for (bi, block) in func.blocks.iter().enumerate() {
        let bs = &design.schedule.blocks[bi];
        let iter_stride: u64 = if block.pipelined {
            bs.ii.max(1) as u64
        } else {
            bs.depth as u64 + 1
        };
        let trips: Vec<usize> = block.dims.iter().map(|d| d.trip).collect();
        let total: usize = trips.iter().product::<usize>().max(1);

        // Pre-resolve every op of the block once: operand kinds, scalar
        // values, dimension indices and affine addresses.
        let dim_of = |name: &str| block.dims.iter().position(|d| d.var == name);
        let pre_ops: Vec<PreOp> = block
            .ops
            .iter()
            .enumerate()
            .map(|(oi, &vid)| {
                let op = func.op(vid);
                let operands: Vec<PreOperand> = op
                    .operands
                    .iter()
                    .map(|operand| match operand {
                        Operand::Value(v) => PreOperand::Reg(v.idx()),
                        Operand::ConstF(c) => PreOperand::ConstF(*c as f32),
                        Operand::ConstI(c) => PreOperand::ConstI(*c),
                        Operand::IVar(name) => match dim_of(name) {
                            Some(d) => PreOperand::Dim(d),
                            None => PreOperand::ConstI(0),
                        },
                        Operand::Scalar(name) => PreOperand::Scalar(stimuli.scalar(name)),
                    })
                    .collect();
                let addr = match op.opcode {
                    Opcode::GetElementPtr | Opcode::Load | Opcode::Store => {
                        let m = op.mem.as_ref().expect("mem op has memref");
                        let slot = *slot_of
                            .get(m.array.as_str())
                            .unwrap_or_else(|| panic!("array `{}` missing from stimuli", m.array));
                        let terms = m
                            .linear
                            .terms
                            .iter()
                            .map(|(v, c)| {
                                let d = dim_of(v).unwrap_or_else(|| {
                                    panic!("unbound loop variable `{v}` in affine expression")
                                });
                                (d, *c)
                            })
                            .collect();
                        Some(PreAddr {
                            slot,
                            terms,
                            offset: m.linear.offset,
                        })
                    }
                    _ => None,
                };
                PreOp {
                    reg: vid.idx(),
                    opcode: op.opcode,
                    start: bs.start[oi] as u64,
                    operands,
                    addr,
                }
            })
            .collect();

        // One column buffer per traced stream. The iteration loop pushes
        // values in a fixed order — per op: traced inputs (operand order),
        // then the output — so buffer `s` holds stream `s`. Constant
        // operand streams (ConstI/ConstF/Scalar) are not traced: their
        // switching activity is identically zero, which is exactly what
        // downstream consumers compute from an empty stream, and no graph
        // edge ever reads them.
        let width: usize = pre_ops
            .iter()
            .map(|p| {
                1 + p
                    .operands
                    .iter()
                    .filter(|o| matches!(o, PreOperand::Reg(_) | PreOperand::Dim(_)))
                    .count()
            })
            .sum();
        while cols.len() < width {
            cols.push(Vec::new());
        }
        for c in cols[..width].iter_mut() {
            c.clear();
            c.reserve(total);
        }

        // Dense induction-variable counters, row-major decoded per iteration.
        let mut counters: Vec<i64> = vec![0; block.dims.len()];
        regs.fill(Val::I(0));

        for it in 0..total {
            let mut rem = it;
            for (d, &trip) in (0..counters.len()).zip(&trips).rev() {
                counters[d] = (rem % trip) as i64;
                rem /= trip;
            }
            let mut slot = 0usize;
            for pre in &pre_ops {
                vals.clear();
                for operand in &pre.operands {
                    let v = match *operand {
                        PreOperand::Reg(r) => regs[r],
                        PreOperand::ConstI(c) => {
                            vals.push(Val::I(c));
                            continue;
                        }
                        PreOperand::ConstF(c) => {
                            vals.push(Val::F(c));
                            continue;
                        }
                        PreOperand::Dim(d) => Val::I(counters[d]),
                        PreOperand::Scalar(s) => {
                            vals.push(Val::F(s));
                            continue;
                        }
                    };
                    cols[slot].push(v.bits());
                    slot += 1;
                    vals.push(v);
                }
                let result = step(pre, &vals, &counters, &mut array_data);
                regs[pre.reg] = result;
                cols[slot].push(result.bits());
                slot += 1;
            }
        }

        // Encode the edge-visible streams into the arena and fold every
        // op's activity from the raw columns. Induction-variable operand
        // streams are never referenced by a graph edge, so they are folded
        // but not encoded; constant operands contribute zero activity but
        // still count in the per-operand average (matching the empty
        // streams the naive path would fold).
        let latency = design.report.latency_cycles;
        let mut slot = 0usize;
        for pre in &pre_ops {
            let start_cycle = block_base + pre.start;
            let stride = iter_stride as u32;
            let base = input_start[pre.reg] as usize;
            let mut sa_in_sum = 0.0f64;
            for (k, operand) in pre.operands.iter().enumerate() {
                match operand {
                    PreOperand::Reg(_) => {
                        inputs_flat[base + k] =
                            encode_affine(&mut words, start_cycle, stride, &cols[slot]);
                        sa_in_sum += sa_ar_values(&cols[slot], latency).0;
                        slot += 1;
                    }
                    PreOperand::Dim(_) => {
                        sa_in_sum += sa_ar_values(&cols[slot], latency).0;
                        slot += 1;
                    }
                    _ => {}
                }
            }
            let (sa_out, ar) = sa_ar_values(&cols[slot], latency);
            outputs[pre.reg] = encode_affine(&mut words, start_cycle, stride, &cols[slot]);
            slot += 1;
            let sa_in = if pre.operands.is_empty() {
                0.0
            } else {
                sa_in_sum / pre.operands.len() as f64
            };
            activities[pre.reg] = NodeActivity {
                ar,
                sa_in,
                sa_out,
                sa_overall: sa_in + sa_out,
            };
        }
        debug_assert_eq!(slot, width);

        block_base += total as u64 * iter_stride + bs.depth as u64 + 1;
    }

    let final_arrays: HashMap<String, Vec<f32>> = array_names.into_iter().zip(array_data).collect();
    RefTrace {
        words,
        outputs,
        inputs_flat,
        input_start,
        activities,
        latency: design.report.latency_cycles,
        final_arrays,
    }
}

#[inline]
fn step(pre: &PreOp, vals: &[Val], counters: &[i64], arrays: &mut [Vec<f32>]) -> Val {
    match pre.opcode {
        Opcode::Alloca => Val::I(0),
        Opcode::GetElementPtr => {
            let a = pre.addr.as_ref().expect("gep has address");
            Val::I(a.eval(counters))
        }
        Opcode::Load => {
            let a = pre.addr.as_ref().expect("load has address");
            let addr = a.eval(counters);
            Val::F(arrays[a.slot][addr as usize])
        }
        Opcode::Store => {
            let a = pre.addr.as_ref().expect("store has address");
            let addr = a.eval(counters);
            let value = vals[0].as_f();
            arrays[a.slot][addr as usize] = value;
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

/// Bit pattern of an activity (f64 `==` would hide a `-0.0`/`0.0` swap).
fn activity_bits(a: NodeActivity) -> [u64; 4] {
    [a.ar, a.sa_in, a.sa_out, a.sa_overall].map(f64::to_bits)
}

/// Asserts that `trace` is, field by field, the reference trace of
/// `design` under `stimuli`.
fn assert_matches_reference(
    design: &HlsDesign,
    stimuli: &Stimuli,
    trace: &ExecutionTrace,
    what: &str,
) {
    let r = reference_execute(design, stimuli);
    assert_eq!(trace.arena.words(), &r.words[..], "{what}: arena words");
    assert_eq!(trace.latency, r.latency, "{what}: latency");
    for op in &design.ir.ops {
        let v = op.id;
        assert_eq!(
            trace.output(v),
            r.outputs[v.idx()],
            "{what}: output ref of {v}"
        );
        let inputs =
            &r.inputs_flat[r.input_start[v.idx()] as usize..r.input_start[v.idx() + 1] as usize];
        assert_eq!(trace.inputs(v), inputs, "{what}: input refs of {v}");
        assert_eq!(
            activity_bits(trace.activity_of(v)),
            activity_bits(r.activities[v.idx()]),
            "{what}: activity of {v}"
        );
    }
    let arrays = |m: &HashMap<String, Vec<f32>>| {
        let mut v: Vec<(String, Vec<u32>)> = m
            .iter()
            .map(|(k, a)| (k.clone(), a.iter().map(|x| x.to_bits()).collect()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        arrays(&trace.final_arrays),
        arrays(&r.final_arrays),
        "{what}: final arrays"
    );
}

fn synth(kernel: &Kernel, d: &Directives) -> HlsDesign {
    HlsFlow::new()
        .run(kernel, d)
        .expect("enumerated configs synthesize")
}

fn kernel(name: &str, size: usize) -> Kernel {
    polybench::by_name(name, size).expect("polybench kernel")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random directive configurations of every Polybench kernel trace
    /// exactly as the row-major reference does.
    #[test]
    fn column_interpreter_matches_row_major_reference(
        k in 0usize..9,
        size in 6usize..9,
        pick in any::<u64>(),
        seed in 0u64..4,
    ) {
        let kernel = &polybench::polybench(size)[k];
        let space = enumerate_space(kernel);
        let d = &space[(pick % space.len() as u64) as usize];
        let design = synth(kernel, d);
        let stimuli = Stimuli::for_kernel(kernel, seed);
        let trace = execute(&design, &stimuli);
        assert_matches_reference(&design, &stimuli, &trace, &format!("{} n={size} {d:?}", kernel.name));
    }
}

/// Every kernel at its baseline and its most aggressive corner.
#[test]
fn every_kernel_matches_reference_at_space_corners() {
    for kernel in polybench::polybench(8) {
        let space = enumerate_space(&kernel);
        for d in [space.first(), space.last()].into_iter().flatten() {
            let design = synth(&kernel, d);
            let stimuli = Stimuli::for_kernel(&kernel, 1);
            let trace = execute(&design, &stimuli);
            assert_matches_reference(&design, &stimuli, &trace, &kernel.name);
        }
    }
}

/// Position of the first op of block `b` with `opcode`.
fn find_op(design: &HlsDesign, b: usize, opcode: Opcode) -> Option<ValueId> {
    design.ir.blocks[b]
        .ops
        .iter()
        .copied()
        .find(|&v| design.ir.op(v).opcode == opcode)
}

/// Hand-edited IR the HLS front end never emits. Each edit keeps the op
/// count and operand counts, so the schedule still lines up.
#[test]
fn hand_edited_ir_matches_reference() {
    let kernel = kernel("2mm", 6);
    let mut d = Directives::new();
    d.pipeline("k2").unroll("k2", 2);
    let base = synth(&kernel, &d);
    let stimuli = Stimuli::for_kernel(&kernel, 0);
    assert!(base.ir.blocks.len() >= 2, "2mm lowers to several blocks");
    let last = base.ir.blocks.len() - 1;
    type Edit = Box<dyn Fn(&mut HlsDesign)>;
    let edits: Vec<(&str, Edit)> = vec![
        (
            // A phi reading the block's last op: a later op, so the
            // fallback reads last iteration's value (0 in the first).
            "operand from a later op",
            Box::new(move |design| {
                let b = last;
                let tail = *design.ir.blocks[b].ops.last().unwrap();
                let phi = find_op(design, b, Opcode::Phi).unwrap();
                design.ir.ops[phi.idx()].operands[1] = Operand::Value(tail);
            }),
        ),
        (
            // An add reading an op of the first block, which the fallback
            // reads as 0.
            "operand from another block",
            Box::new(move |design| {
                let other = design.ir.blocks[0].ops[0];
                let add = find_op(design, last, Opcode::Add).unwrap();
                design.ir.ops[add.idx()].operands[0] = Operand::Value(other);
            }),
        ),
        (
            // Integer values past the 32-bit column encoding: a counter
            // increment of 2^32 is 0 in its low bits, but the exit test
            // that reads it must still see the exact value.
            "integer overflow",
            Box::new(move |design| {
                let cmp = find_op(design, last, Opcode::ICmp).unwrap();
                let Operand::Value(inc) = design.ir.ops[cmp.idx()].operands[0] else {
                    panic!("exit test reads the counter increment");
                };
                design.ir.ops[inc.idx()].operands[1] = Operand::ConstI(1 << 32);
            }),
        ),
        (
            // Mixed-type arithmetic and casts the front end never emits:
            // an fcmp result (integer) feeding float math, a division, an
            // integer subtract and value-preserving casts.
            "swapped opcodes",
            Box::new(move |design| {
                let b = last;
                let swaps = [
                    (Opcode::FMul, Opcode::FCmp),
                    (Opcode::FAdd, Opcode::FDiv),
                    (Opcode::Add, Opcode::Sub),
                    (Opcode::SExt, Opcode::Trunc),
                ];
                for (from, to) in swaps {
                    if let Some(v) = find_op(design, b, from) {
                        design.ir.ops[v.idx()].opcode = to;
                    }
                }
                let ops: Vec<ValueId> = design.ir.blocks[b].ops.clone();
                for v in ops {
                    let op = &mut design.ir.ops[v.idx()];
                    if op.opcode == Opcode::SExt {
                        op.opcode = Opcode::BitCast;
                    }
                }
            }),
        ),
        (
            // A select over two float columns, and a br over a constant.
            "select and constant br",
            Box::new(move |design| {
                let b = last;
                let fadd = find_op(design, b, Opcode::FAdd).unwrap();
                let op = &mut design.ir.ops[fadd.idx()];
                let (x, y) = (op.operands[0].clone(), op.operands[1].clone());
                op.opcode = Opcode::Select;
                op.operands = vec![Operand::ConstI(1), x, y];
                let br = find_op(design, b, Opcode::Br).unwrap();
                design.ir.ops[br.idx()].operands = vec![Operand::ConstF(2.5)];
            }),
        ),
    ];
    for (what, edit) in &edits {
        let mut design = base.clone();
        edit(&mut design);
        let trace = execute(&design, &stimuli);
        assert_matches_reference(&design, &stimuli, &trace, what);
    }
}

/// One scratch reused across kernels whose blocks need different numbers
/// of value columns (and across a design's own re-trace) changes nothing.
#[test]
fn scratch_reused_across_kernels_matches_reference() {
    let mut scratch = TraceScratch::new();
    let runs = [
        ("3mm", Directives::new()),
        ("atax", Directives::new()),
        ("syr2k", Directives::new()),
        ("3mm", Directives::new()),
        ("mvt", Directives::new()),
        ("gemm", {
            let mut d = Directives::new();
            d.pipeline("k").unroll("k", 8).partition("A", 4);
            d
        }),
        ("bicg", Directives::new()),
    ];
    for (name, d) in &runs {
        let kernel = kernel(name, 7);
        let design = synth(&kernel, d);
        let stimuli = Stimuli::for_kernel(&kernel, 3);
        let trace = execute_in(&design, &stimuli, &mut scratch);
        assert_matches_reference(&design, &stimuli, &trace, name);
        scratch.reclaim(trace);
    }
}
