//! Kernel descriptions: structured affine loop nests over arrays.
//!
//! A [`Kernel`] is the C++-source-level view of an HLS design (Fig. 1 of the
//! paper): array declarations plus a tree of `for` loops containing
//! assignment statements. Directive application (pipelining, unrolling,
//! partitioning) happens later in the `pg-hls` crate, so one kernel spawns a
//! whole design space.

use crate::expr::{ArrayRef, Expr};
use std::collections::BTreeMap;
use std::fmt;

/// How an array interfaces with the outside of the kernel. The distinction
/// drives buffer-insertion node typing (I/O vs internal buffer) in the graph
/// construction flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Read-only input visible at the kernel interface.
    Input,
    /// Output written by the kernel (may also be read, e.g. accumulators).
    Output,
    /// Internal scratch buffer never exposed at the interface.
    Temp,
}

impl ArrayKind {
    /// `true` for interface (I/O) arrays.
    pub fn is_io(self) -> bool {
        matches!(self, ArrayKind::Input | ArrayKind::Output)
    }
}

/// A declared array with constant dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name, unique within the kernel.
    pub name: String,
    /// Constant extent per dimension.
    pub dims: Vec<usize>,
    /// Interface classification.
    pub kind: ArrayKind,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// `true` when the array has zero elements (never valid after build).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An assignment statement `target = expr;`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Store destination.
    pub target: ArrayRef,
    /// Right-hand side.
    pub expr: Expr,
}

/// A counted loop `for var in 0..trip { body }`.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Induction-variable name; also the label directives refer to.
    pub var: String,
    /// Constant trip count.
    pub trip: usize,
    /// Loop body.
    pub body: Vec<Block>,
}

/// A node in the kernel body tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A nested loop.
    Loop(Loop),
    /// A straight-line statement.
    Stmt(Stmt),
}

/// A complete kernel: arrays, scalar arguments and the loop-nest body.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (e.g. `"gemm"`).
    pub name: String,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Scalar floating-point arguments (e.g. `alpha`, `beta`).
    pub scalars: Vec<String>,
    /// Top-level body.
    pub body: Vec<Block>,
}

impl Kernel {
    /// Looks up an array declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// All loop labels (induction-variable names) in pre-order.
    pub fn loop_labels(&self) -> Vec<String> {
        fn walk(blocks: &[Block], out: &mut Vec<String>) {
            for b in blocks {
                if let Block::Loop(l) = b {
                    out.push(l.var.clone());
                    walk(&l.body, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Labels of *innermost* loops (loops containing no nested loop), the
    /// targets of pipeline/unroll directives.
    pub fn innermost_loops(&self) -> Vec<String> {
        fn walk(blocks: &[Block], out: &mut Vec<String>) {
            for b in blocks {
                if let Block::Loop(l) = b {
                    if l.body.iter().all(|c| matches!(c, Block::Stmt(_))) {
                        out.push(l.var.clone());
                    } else {
                        walk(&l.body, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// Total number of statements in the kernel.
    pub fn stmt_count(&self) -> usize {
        fn walk(blocks: &[Block]) -> usize {
            blocks
                .iter()
                .map(|b| match b {
                    Block::Stmt(_) => 1,
                    Block::Loop(l) => walk(&l.body),
                })
                .sum()
        }
        walk(&self.body)
    }

    /// Validates structural well-formedness. Called by
    /// [`KernelBuilder::build`]; exposed for kernels assembled manually.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] describing the first violation found:
    /// duplicate array/loop names, references to undeclared arrays, subscript
    /// arity mismatches, out-of-bounds affine subscripts, or use of loop
    /// variables outside their scope.
    pub fn validate(&self) -> Result<(), KernelError> {
        let mut names = std::collections::HashSet::new();
        for a in &self.arrays {
            if !names.insert(a.name.clone()) {
                return Err(KernelError::DuplicateArray(a.name.clone()));
            }
            if a.dims.is_empty() || a.is_empty() {
                return Err(KernelError::EmptyArray(a.name.clone()));
            }
        }
        let mut loop_names = std::collections::HashSet::new();
        let mut trips: BTreeMap<String, usize> = BTreeMap::new();
        self.validate_blocks(&self.body, &mut loop_names, &mut trips)
    }

    fn validate_blocks(
        &self,
        blocks: &[Block],
        loop_names: &mut std::collections::HashSet<String>,
        trips: &mut BTreeMap<String, usize>,
    ) -> Result<(), KernelError> {
        for b in blocks {
            match b {
                Block::Loop(l) => {
                    if !loop_names.insert(l.var.clone()) {
                        return Err(KernelError::DuplicateLoop(l.var.clone()));
                    }
                    if l.trip == 0 {
                        return Err(KernelError::ZeroTrip(l.var.clone()));
                    }
                    trips.insert(l.var.clone(), l.trip);
                    self.validate_blocks(&l.body, loop_names, trips)?;
                    trips.remove(&l.var);
                }
                Block::Stmt(s) => {
                    self.validate_ref(&s.target, trips)?;
                    let mut refs = Vec::new();
                    s.expr.collect_arrays(&mut refs);
                    for r in refs {
                        self.validate_ref(r, trips)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_ref(
        &self,
        r: &ArrayRef,
        trips: &BTreeMap<String, usize>,
    ) -> Result<(), KernelError> {
        let decl = self
            .array(&r.array)
            .ok_or_else(|| KernelError::UnknownArray(r.array.clone()))?;
        if decl.dims.len() != r.indices.len() {
            return Err(KernelError::ArityMismatch {
                array: r.array.clone(),
                expected: decl.dims.len(),
                got: r.indices.len(),
            });
        }
        for (dim, (idx, &extent)) in r.indices.iter().zip(&decl.dims).enumerate() {
            for v in idx.vars() {
                if !trips.contains_key(v) {
                    return Err(KernelError::UnboundVar {
                        var: v.to_string(),
                        array: r.array.clone(),
                    });
                }
            }
            if idx.min_value(trips) < 0 || idx.max_value(trips) >= extent as i64 {
                return Err(KernelError::OutOfBounds {
                    array: r.array.clone(),
                    dim,
                    extent,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(blocks: &[Block], depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            for b in blocks {
                match b {
                    Block::Loop(l) => {
                        writeln!(f, "{pad}for {} in 0..{} {{", l.var, l.trip)?;
                        walk(&l.body, depth + 1, f)?;
                        writeln!(f, "{pad}}}")?;
                    }
                    Block::Stmt(s) => writeln!(f, "{pad}{} = {};", s.target, s.expr)?,
                }
            }
            Ok(())
        }
        writeln!(f, "kernel {} {{", self.name)?;
        for a in &self.arrays {
            writeln!(f, "  {:?} {}{:?};", a.kind, a.name, a.dims)?;
        }
        walk(&self.body, 1, f)?;
        writeln!(f, "}}")
    }
}

/// Errors detected by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Two arrays share a name.
    DuplicateArray(String),
    /// An array has no elements.
    EmptyArray(String),
    /// Two loops share an induction-variable name.
    DuplicateLoop(String),
    /// A loop has trip count zero.
    ZeroTrip(String),
    /// A statement references an undeclared array.
    UnknownArray(String),
    /// Subscript count differs from the array rank.
    ArityMismatch {
        /// Offending array.
        array: String,
        /// Declared rank.
        expected: usize,
        /// Referenced rank.
        got: usize,
    },
    /// A subscript uses a variable not bound by an enclosing loop.
    UnboundVar {
        /// The unbound variable.
        var: String,
        /// Array whose subscript used it.
        array: String,
    },
    /// A subscript can exceed the declared extent.
    OutOfBounds {
        /// Offending array.
        array: String,
        /// Dimension index.
        dim: usize,
        /// Declared extent.
        extent: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::DuplicateArray(a) => write!(f, "duplicate array `{a}`"),
            KernelError::EmptyArray(a) => write!(f, "array `{a}` has no elements"),
            KernelError::DuplicateLoop(v) => write!(f, "duplicate loop variable `{v}`"),
            KernelError::ZeroTrip(v) => write!(f, "loop `{v}` has zero trip count"),
            KernelError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            KernelError::ArityMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "array `{array}` expects {expected} subscripts, got {got}"
            ),
            KernelError::UnboundVar { var, array } => {
                write!(f, "variable `{var}` unbound in subscript of `{array}`")
            }
            KernelError::OutOfBounds { array, dim, extent } => write!(
                f,
                "subscript of `{array}` dimension {dim} can exceed extent {extent}"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// Scope handle used inside [`KernelBuilder`] closures to emit loops and
/// statements.
#[derive(Debug)]
pub struct BodyBuilder {
    blocks: Vec<Block>,
}

impl BodyBuilder {
    fn new() -> Self {
        BodyBuilder { blocks: Vec::new() }
    }

    /// Opens a nested loop `for var in 0..trip`.
    pub fn loop_<F: FnOnce(&mut BodyBuilder)>(&mut self, var: &str, trip: usize, f: F) {
        let mut inner = BodyBuilder::new();
        f(&mut inner);
        self.blocks.push(Block::Loop(Loop {
            var: var.to_string(),
            trip,
            body: inner.blocks,
        }));
    }

    /// Emits `target = expr;`.
    pub fn assign<T: Into<ArrayRef>>(&mut self, target: T, expr: Expr) {
        self.blocks.push(Block::Stmt(Stmt {
            target: target.into(),
            expr,
        }));
    }
}

/// Fluent builder for [`Kernel`] values.
///
/// # Examples
///
/// ```
/// use pg_ir::{ArrayKind, KernelBuilder};
/// use pg_ir::expr::{aff, Expr};
/// let k = KernelBuilder::new("scale")
///     .array("x", &[8], ArrayKind::Input)
///     .array("y", &[8], ArrayKind::Output)
///     .scalar("alpha")
///     .loop_("i", 8, |b| {
///         b.assign(("y", vec![aff("i")]),
///                  Expr::scalar("alpha") * Expr::load("x", vec![aff("i")]));
///     })
///     .build()?;
/// assert_eq!(k.stmt_count(), 1);
/// # Ok::<(), pg_ir::KernelError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    kernel: Kernel,
    top: BodyBuilder,
}

impl KernelBuilder {
    /// Starts a kernel with the given name.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            kernel: Kernel {
                name: name.to_string(),
                arrays: Vec::new(),
                scalars: Vec::new(),
                body: Vec::new(),
            },
            top: BodyBuilder::new(),
        }
    }

    /// Declares an array.
    pub fn array(mut self, name: &str, dims: &[usize], kind: ArrayKind) -> Self {
        self.kernel.arrays.push(ArrayDecl {
            name: name.to_string(),
            dims: dims.to_vec(),
            kind,
        });
        self
    }

    /// Declares a scalar floating-point argument.
    pub fn scalar(mut self, name: &str) -> Self {
        self.kernel.scalars.push(name.to_string());
        self
    }

    /// Opens a top-level loop.
    pub fn loop_<F: FnOnce(&mut BodyBuilder)>(mut self, var: &str, trip: usize, f: F) -> Self {
        self.top.loop_(var, trip, f);
        self
    }

    /// Finishes and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError`] found by [`Kernel::validate`].
    pub fn build(mut self) -> Result<Kernel, KernelError> {
        self.kernel.body = self.top.blocks;
        self.kernel.validate()?;
        Ok(self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{aff, AffineExpr};

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

    #[test]
    fn builds_and_validates() {
        let k = axpy();
        assert_eq!(k.loop_labels(), vec!["i"]);
        assert_eq!(k.innermost_loops(), vec!["i"]);
        assert!(matches!(&k.body[..], [Block::Loop(l)] if l.trip == 16));
        assert_eq!(k.stmt_count(), 1);
    }

    #[test]
    fn rejects_unknown_array() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4], ArrayKind::Input)
            .loop_("i", 4, |b| {
                b.assign(("nope", vec![aff("i")]), Expr::Const(0.0));
            })
            .build()
            .unwrap_err();
        assert_eq!(err, KernelError::UnknownArray("nope".to_string()));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4], ArrayKind::Output)
            .loop_("i", 8, |b| {
                b.assign(("x", vec![aff("i")]), Expr::Const(0.0));
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::OutOfBounds { .. }));
    }

    #[test]
    fn rejects_unbound_variable() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4], ArrayKind::Output)
            .loop_("i", 4, |b| {
                b.assign(("x", vec![aff("j")]), Expr::Const(0.0));
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::UnboundVar { .. }));
    }

    #[test]
    fn rejects_duplicate_loop_var() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4, 4], ArrayKind::Output)
            .loop_("i", 4, |b| {
                b.loop_("i", 4, |b2| {
                    b2.assign(("x", vec![aff("i"), aff("i")]), Expr::Const(0.0));
                });
            })
            .build()
            .unwrap_err();
        assert_eq!(err, KernelError::DuplicateLoop("i".to_string()));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4, 4], ArrayKind::Output)
            .loop_("i", 4, |b| {
                b.assign(("x", vec![aff("i")]), Expr::Const(0.0));
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::ArityMismatch { .. }));
    }

    #[test]
    fn rejects_zero_trip() {
        let err = KernelBuilder::new("bad")
            .array("x", &[4], ArrayKind::Output)
            .loop_("i", 0, |b| {
                b.assign(("x", vec![AffineExpr::constant(0)]), Expr::Const(0.0));
            })
            .build()
            .unwrap_err();
        assert_eq!(err, KernelError::ZeroTrip("i".to_string()));
    }

    #[test]
    fn nested_innermost_detection() {
        let k = KernelBuilder::new("mm")
            .array("c", &[4, 4], ArrayKind::Output)
            .loop_("i", 4, |b| {
                b.loop_("j", 4, |b| {
                    b.assign(("c", vec![aff("i"), aff("j")]), Expr::Const(0.0));
                });
            })
            .build()
            .unwrap();
        assert_eq!(k.loop_labels(), vec!["i", "j"]);
        assert_eq!(k.innermost_loops(), vec!["j"]);
    }

    #[test]
    fn display_renders_loops() {
        let s = axpy().to_string();
        assert!(s.contains("for i in 0..16"));
        assert!(s.contains("y[i]"));
    }
}
