//! Reference interpreter for PPL programs.
//!
//! Executes programs sequentially with exact functional semantics; it is
//! the ground truth every transformation is validated against (the tiled
//! program must compute the same values as the original) and the oracle
//! the hardware simulator's functional results are checked against.

use std::collections::BTreeMap;
use std::fmt;

use crate::block::{Block, Op, SliceDim};
use crate::expr::{BinOp, Expr, Lit, UnOp};
use crate::pattern::{AccDef, AccUpdate, GbfBody, Pattern};
use crate::program::Program;
use crate::size::{Size, SizeEnv, SizeError};
use crate::types::Sym;

/// A scalar runtime value (primitive or flat tuple).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarVal {
    /// Float.
    F(f32),
    /// Integer.
    I(i64),
    /// Boolean.
    B(bool),
    /// Flat tuple.
    Tuple(Vec<ScalarVal>),
}

impl ScalarVal {
    /// Extracts an integer.
    ///
    /// # Panics
    ///
    /// Panics unless the value is an integer.
    pub fn as_i64(&self) -> i64 {
        match self {
            ScalarVal::I(v) => *v,
            other => panic!("not an integer: {other:?}"),
        }
    }

    /// Extracts a boolean.
    ///
    /// # Panics
    ///
    /// Panics unless the value is a boolean.
    pub fn as_bool(&self) -> bool {
        match self {
            ScalarVal::B(v) => *v,
            other => panic!("not a bool: {other:?}"),
        }
    }
}

impl From<Lit> for ScalarVal {
    fn from(l: Lit) -> ScalarVal {
        match l {
            Lit::F32(v) => ScalarVal::F(v),
            Lit::I32(v) => ScalarVal::I(v),
            Lit::Bool(v) => ScalarVal::B(v),
        }
    }
}

/// A dense tensor value in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorVal {
    /// Extent of each dimension.
    pub shape: Vec<usize>,
    /// Elements, row-major.
    pub data: Vec<ScalarVal>,
}

impl TensorVal {
    /// Creates a tensor, checking that `data.len()` matches the shape.
    ///
    /// # Panics
    ///
    /// Panics on a shape/data length mismatch.
    pub fn new(shape: Vec<usize>, data: Vec<ScalarVal>) -> TensorVal {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "tensor shape/data mismatch");
        TensorVal { shape, data }
    }

    /// Row-major linear offset of `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index arity mismatches.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index arity mismatch");
        let mut off = 0;
        for (i, d) in index.iter().zip(&self.shape) {
            off = off * d + i;
        }
        off
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Any runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar.
    Scalar(ScalarVal),
    /// A fixed-shape tensor.
    Tensor(TensorVal),
    /// A dynamically sized vector (`FlatMap` output).
    DynVec(Vec<ScalarVal>),
    /// Keyed buckets (`GroupByFold` output), in first-insertion order.
    Dict(Vec<(ScalarVal, Value)>),
}

impl Value {
    /// Builds an f32 tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics on a shape/data length mismatch.
    pub fn tensor_f32(shape: &[usize], data: Vec<f32>) -> Value {
        Value::Tensor(TensorVal::new(
            shape.to_vec(),
            data.into_iter().map(ScalarVal::F).collect(),
        ))
    }

    /// Builds an i32 tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics on a shape/data length mismatch.
    pub fn tensor_i32(shape: &[usize], data: Vec<i64>) -> Value {
        Value::Tensor(TensorVal::new(
            shape.to_vec(),
            data.into_iter().map(ScalarVal::I).collect(),
        ))
    }

    /// Scalar f32 shorthand.
    pub fn scalar_f32(v: f32) -> Value {
        Value::Scalar(ScalarVal::F(v))
    }

    /// Flattens a tensor/dynvec/scalar into a `Vec<f32>`, flattening tuple
    /// fields in order (booleans become 0/1).
    ///
    /// # Panics
    ///
    /// Panics on `Dict` values.
    pub fn as_f32_slice(&self) -> Vec<f32> {
        fn flat(s: &ScalarVal, out: &mut Vec<f32>) {
            match s {
                ScalarVal::F(v) => out.push(*v),
                ScalarVal::I(v) => out.push(*v as f32),
                ScalarVal::B(v) => out.push(if *v { 1.0 } else { 0.0 }),
                ScalarVal::Tuple(fs) => fs.iter().for_each(|f| flat(f, out)),
            }
        }
        let mut out = Vec::new();
        match self {
            Value::Scalar(s) => flat(s, &mut out),
            Value::Tensor(t) => t.data.iter().for_each(|s| flat(s, &mut out)),
            Value::DynVec(v) => v.iter().for_each(|s| flat(s, &mut out)),
            Value::Dict(_) => panic!("as_f32_slice on Dict"),
        }
        out
    }

    /// Compares numeric contents against another value within `tol`,
    /// ignoring scalar/1-element-tensor representation differences.
    pub fn approx_eq(&self, other: &Value, tol: f32) -> bool {
        match (self, other) {
            (Value::Dict(a), Value::Dict(b)) => {
                if a.len() != b.len() {
                    return false;
                }
                // Order-insensitive comparison by key.
                a.iter().all(|(k, v)| {
                    b.iter()
                        .find(|(k2, _)| k2 == k)
                        .is_some_and(|(_, v2)| v.approx_eq(v2, tol))
                })
            }
            (Value::Dict(_), _) | (_, Value::Dict(_)) => false,
            _ => {
                let (a, b) = (self.as_f32_slice(), other.as_f32_slice());
                a.len() == b.len()
                    && a.iter().zip(&b).all(|(x, y)| {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        (x - y).abs() <= tol * scale
                    })
            }
        }
    }
}

/// Errors produced during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A symbol had no runtime value.
    Unbound(Sym),
    /// Index out of tensor bounds.
    OutOfBounds {
        tensor: Sym,
        index: Vec<i64>,
        shape: Vec<usize>,
    },
    /// A size expression failed to evaluate.
    Size(SizeError),
    /// A runtime type mismatch.
    Type(String),
    /// Wrong number of program inputs.
    InputArity { got: usize, expected: usize },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(s) => write!(f, "unbound symbol {s}"),
            EvalError::OutOfBounds {
                tensor,
                index,
                shape,
            } => write!(
                f,
                "index {index:?} out of bounds for {tensor} shape {shape:?}"
            ),
            EvalError::Size(e) => write!(f, "size error: {e}"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::InputArity { got, expected } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<SizeError> for EvalError {
    fn from(e: SizeError) -> Self {
        EvalError::Size(e)
    }
}

type Env = BTreeMap<Sym, Value>;

/// Upper bound on elements the interpreter will materialize for a single
/// tensor — adversarial size expressions become a typed error instead of
/// an allocation failure.
const MAX_INTERP_ELEMS: usize = 1 << 26;

fn expect_bool(v: ScalarVal) -> Result<bool, EvalError> {
    match v {
        ScalarVal::B(b) => Ok(b),
        other => Err(EvalError::Type(format!("expected bool, got {other:?}"))),
    }
}

fn expect_i64(v: ScalarVal) -> Result<i64, EvalError> {
    match v {
        ScalarVal::I(i) => Ok(i),
        other => Err(EvalError::Type(format!("expected integer, got {other:?}"))),
    }
}

/// A non-negative index from an evaluated expression.
fn expect_index(v: ScalarVal) -> Result<usize, EvalError> {
    let i = expect_i64(v)?;
    usize::try_from(i).map_err(|_| EvalError::Type(format!("negative index {i}")))
}

/// Overflow- and budget-checked element count of a shape.
fn checked_volume(dims: &[usize]) -> Result<usize, EvalError> {
    let mut total: usize = 1;
    for d in dims {
        total = total
            .checked_mul(*d)
            .ok_or_else(|| EvalError::Type(format!("tensor volume overflows: {dims:?}")))?;
    }
    if total > MAX_INTERP_ELEMS {
        return Err(EvalError::Type(format!(
            "tensor volume {total} exceeds interpreter limit {MAX_INTERP_ELEMS}"
        )));
    }
    Ok(total)
}

/// Interprets a PPL [`Program`] with concrete dimension sizes.
pub struct Interpreter<'a> {
    prog: &'a Program,
    sizes: SizeEnv,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter binding the program's symbolic dimensions.
    pub fn new(prog: &'a Program, sizes: &[(&str, i64)]) -> Self {
        Interpreter {
            prog,
            sizes: Size::env(sizes),
        }
    }

    /// Creates an interpreter from a prebuilt size environment.
    pub fn with_env(prog: &'a Program, sizes: SizeEnv) -> Self {
        Interpreter { prog, sizes }
    }

    /// Runs the program on the given input values, returning its outputs.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on arity mismatches, unbound symbols,
    /// out-of-bounds accesses, or size evaluation failures.
    pub fn run(&self, inputs: Vec<Value>) -> Result<Vec<Value>, EvalError> {
        if inputs.len() != self.prog.inputs.len() {
            return Err(EvalError::InputArity {
                got: inputs.len(),
                expected: self.prog.inputs.len(),
            });
        }
        let mut env: Env = self.prog.inputs.iter().copied().zip(inputs).collect();
        self.eval_block(&self.prog.body, &mut env)?;
        // Move results out of the environment rather than cloning them; a
        // sym listed twice clones from its first extracted occurrence.
        let result = &self.prog.body.result;
        let mut out: Vec<Value> = Vec::with_capacity(result.len());
        for (k, s) in result.iter().enumerate() {
            match env.remove(s) {
                Some(v) => out.push(v),
                None => match result[..k].iter().position(|r| r == s) {
                    Some(j) => {
                        let v = out[j].clone();
                        out.push(v);
                    }
                    None => return Err(EvalError::Unbound(*s)),
                },
            }
        }
        Ok(out)
    }

    fn size(&self, s: &Size) -> Result<usize, EvalError> {
        let v = s.eval(&self.sizes)?;
        let v = usize::try_from(v).map_err(|_| EvalError::Type(format!("negative size {v}")))?;
        if v > MAX_INTERP_ELEMS {
            return Err(EvalError::Type(format!(
                "size {v} exceeds interpreter limit {MAX_INTERP_ELEMS}"
            )));
        }
        Ok(v)
    }

    fn eval_block(&self, block: &Block, env: &mut Env) -> Result<(), EvalError> {
        for stmt in &block.stmts {
            match &stmt.op {
                Op::Expr(e) => {
                    let v = self.eval_expr(e, env)?;
                    env.insert(stmt.sym(), Value::Scalar(v));
                }
                Op::VarVec(items) => {
                    let mut out = Vec::new();
                    for it in items {
                        let keep = match &it.guard {
                            Some(g) => expect_bool(self.eval_expr(g, env)?)?,
                            None => true,
                        };
                        if keep {
                            out.push(self.eval_expr(&it.value, env)?);
                        }
                    }
                    env.insert(stmt.sym(), Value::DynVec(out));
                }
                Op::Slice(s) => {
                    let v = self.extract(s.tensor, &s.dims, env)?;
                    env.insert(stmt.sym(), v);
                }
                Op::Copy(c) => {
                    let v = self.extract(c.tensor, &c.dims, env)?;
                    env.insert(stmt.sym(), v);
                }
                Op::Pattern(p) => {
                    let vals = self.eval_pattern(p, env)?;
                    debug_assert_eq!(vals.len(), stmt.syms.len());
                    for (s, v) in stmt.syms.iter().zip(vals) {
                        env.insert(*s, v);
                    }
                }
            }
        }
        Ok(())
    }

    fn extract(&self, tensor: Sym, dims: &[SliceDim], env: &Env) -> Result<Value, EvalError> {
        // Borrow the source tensor in place: the spec expressions below
        // only read the environment, so no defensive clone is needed.
        let t = match env.get(&tensor).ok_or(EvalError::Unbound(tensor))? {
            Value::Tensor(t) => t,
            other => {
                return Err(EvalError::Type(format!(
                    "slice of non-tensor value {other:?}"
                )))
            }
        };
        if dims.len() != t.shape.len() {
            return Err(EvalError::Type(format!(
                "slice arity {} vs tensor rank {}",
                dims.len(),
                t.shape.len()
            )));
        }
        // Per-dimension (start, extent, keep).
        let mut specs = Vec::with_capacity(dims.len());
        for (d, extent) in dims.iter().zip(&t.shape) {
            match d {
                SliceDim::Point(e) => {
                    let i = expect_index(self.eval_expr(e, env)?)?;
                    specs.push((i, 1usize, false));
                }
                SliceDim::Window { start, len } => {
                    let s = expect_index(self.eval_expr(start, env)?)?;
                    let l = self.size(len)?;
                    specs.push((s, l, true));
                }
                SliceDim::Full => specs.push((0, *extent, true)),
            }
        }
        for ((start, len, _), extent) in specs.iter().zip(&t.shape) {
            if start + len > *extent {
                return Err(EvalError::OutOfBounds {
                    tensor,
                    index: vec![(start + len) as i64],
                    shape: t.shape.clone(),
                });
            }
        }
        let out_shape: Vec<usize> = specs
            .iter()
            .filter(|(_, _, keep)| *keep)
            .map(|(_, len, _)| *len)
            .collect();
        let mut data = Vec::with_capacity(checked_volume(&out_shape)?);
        let mut idx = vec![0usize; specs.len()];
        // Reused absolute-index buffer, kept in lock-step with `idx` as the
        // odometer advances — no per-element allocation.
        let mut src: Vec<usize> = specs.iter().map(|(start, _, _)| *start).collect();
        loop {
            data.push(t.data[t.offset(&src)].clone());
            // Advance odometer over the spec extents.
            let mut k = specs.len();
            loop {
                if k == 0 {
                    return Ok(if out_shape.is_empty() {
                        match data.pop() {
                            Some(s) => Value::Scalar(s),
                            None => {
                                return Err(EvalError::Type("empty point slice".into()));
                            }
                        }
                    } else {
                        Value::Tensor(TensorVal::new(out_shape, data))
                    });
                }
                k -= 1;
                idx[k] += 1;
                src[k] += 1;
                if idx[k] < specs[k].1 {
                    break;
                }
                idx[k] = 0;
                src[k] = specs[k].0;
            }
        }
    }

    fn eval_pattern(&self, p: &Pattern, env: &mut Env) -> Result<Vec<Value>, EvalError> {
        match p {
            Pattern::Map(m) => {
                let dims: Vec<usize> = m
                    .domain
                    .iter()
                    .map(|s| self.size(s))
                    .collect::<Result<_, _>>()?;
                let total = checked_volume(&dims)?;
                let mut data = Vec::with_capacity(total);
                for flat in 0..total {
                    let idx = unflatten(flat, &dims);
                    for (p, i) in m.body.params.iter().zip(&idx) {
                        env.insert(*p, Value::Scalar(ScalarVal::I(*i as i64)));
                    }
                    self.eval_block(&m.body.body, env)?;
                    let sym = m.body.body.result_sym();
                    match env.remove(&sym).ok_or(EvalError::Unbound(sym))? {
                        Value::Scalar(s) => data.push(s),
                        other => {
                            return Err(EvalError::Type(format!(
                                "map body produced non-scalar {other:?}"
                            )))
                        }
                    }
                }
                Ok(vec![Value::Tensor(TensorVal::new(dims, data))])
            }
            Pattern::MultiFold(mf) => {
                let dims: Vec<usize> = mf
                    .domain
                    .iter()
                    .map(|s| self.size(s))
                    .collect::<Result<_, _>>()?;
                let mut accs: Vec<Value> = mf
                    .accs
                    .iter()
                    .map(|a| self.init_acc(a))
                    .collect::<Result<_, _>>()?;
                let total = checked_volume(&dims)?;
                for flat in 0..total {
                    let idx = unflatten(flat, &dims);
                    for (p, i) in mf.idx.iter().zip(&idx) {
                        env.insert(*p, Value::Scalar(ScalarVal::I(*i as i64)));
                    }
                    self.eval_block(&mf.pre, env)?;
                    for (acc, u) in accs.iter_mut().zip(&mf.updates) {
                        self.apply_update(acc, u, env)?;
                    }
                }
                Ok(accs)
            }
            Pattern::FlatMap(fm) => {
                let d = self.size(&fm.domain)?;
                let mut out = Vec::new();
                for i in 0..d {
                    env.insert(fm.body.params[0], Value::Scalar(ScalarVal::I(i as i64)));
                    self.eval_block(&fm.body.body, env)?;
                    let sym = fm.body.body.result_sym();
                    match env.remove(&sym).ok_or(EvalError::Unbound(sym))? {
                        Value::DynVec(v) => out.extend(v),
                        Value::Tensor(t) => out.extend(t.data),
                        other => {
                            return Err(EvalError::Type(format!("flatMap body produced {other:?}")))
                        }
                    }
                }
                Ok(vec![Value::DynVec(out)])
            }
            Pattern::GroupByFold(g) => {
                let d = self.size(&g.domain)?;
                let mut dict: Vec<(ScalarVal, Value)> = Vec::new();
                for i in 0..d {
                    env.insert(g.idx, Value::Scalar(ScalarVal::I(i as i64)));
                    self.eval_block(&g.pre, env)?;
                    match &g.body {
                        GbfBody::Element { key, update } => {
                            let k = self.eval_expr(key, env)?;
                            let pos = dict.iter().position(|(k2, _)| *k2 == k);
                            let mut bucket = match pos {
                                Some(p) => dict[p].1.clone(),
                                None => self.init_acc(&g.acc)?,
                            };
                            self.apply_update(&mut bucket, update, env)?;
                            match pos {
                                Some(p) => dict[p].1 = bucket,
                                None => dict.push((k, bucket)),
                            }
                        }
                        GbfBody::Merge { dict: dsym } => {
                            let incoming = match env.get(dsym).ok_or(EvalError::Unbound(*dsym))? {
                                Value::Dict(d) => d.clone(),
                                other => {
                                    return Err(EvalError::Type(format!(
                                        "merge of non-dict {other:?}"
                                    )))
                                }
                            };
                            for (k, v) in incoming {
                                match dict.iter().position(|(k2, _)| *k2 == k) {
                                    Some(p) => {
                                        let merged = self.apply_combine(
                                            &g.combine,
                                            dict[p].1.clone(),
                                            v,
                                            env,
                                        )?;
                                        dict[p].1 = merged;
                                    }
                                    None => dict.push((k, v)),
                                }
                            }
                        }
                    }
                }
                Ok(vec![Value::Dict(dict)])
            }
        }
    }

    fn init_acc(&self, acc: &AccDef) -> Result<Value, EvalError> {
        let splat: ScalarVal = if acc.init.splat.len() == 1 {
            acc.init.splat[0].into()
        } else {
            ScalarVal::Tuple(acc.init.splat.iter().map(|l| ScalarVal::from(*l)).collect())
        };
        if acc.shape.is_empty() {
            return Ok(Value::Scalar(splat));
        }
        let dims: Vec<usize> = acc
            .shape
            .iter()
            .map(|s| self.size(s))
            .collect::<Result<_, _>>()?;
        let n = checked_volume(&dims)?;
        Ok(Value::Tensor(TensorVal::new(dims, vec![splat; n])))
    }

    /// Applies one accumulator update: reads the (squeezed) region, binds
    /// it as the update parameter, evaluates the update body, writes back.
    fn apply_update(&self, acc: &mut Value, u: &AccUpdate, env: &mut Env) -> Result<(), EvalError> {
        match acc {
            Value::Scalar(s) => {
                // Scalar accumulator: update replaces the whole value.
                env.insert(u.acc_param, Value::Scalar(s.clone()));
                self.eval_block(&u.body, env)?;
                let sym = u.body.result_sym();
                match env.remove(&sym).ok_or(EvalError::Unbound(sym))? {
                    Value::Scalar(v) => *s = v,
                    other => {
                        return Err(EvalError::Type(format!("scalar update produced {other:?}")))
                    }
                }
                Ok(())
            }
            Value::Tensor(t) => {
                let loc: Vec<usize> = u
                    .loc
                    .iter()
                    .map(|e| expect_index(self.eval_expr(e, env)?))
                    .collect::<Result<_, EvalError>>()?;
                let region: Vec<usize> = if u.shape.is_empty() {
                    vec![1; t.shape.len()]
                } else {
                    u.shape
                        .iter()
                        .map(|s| self.size(s))
                        .collect::<Result<_, _>>()?
                };
                if loc.len() != t.shape.len() || region.len() != t.shape.len() {
                    return Err(EvalError::Type(format!(
                        "update location arity {} / region rank {} vs accumulator rank {}",
                        loc.len(),
                        region.len(),
                        t.shape.len()
                    )));
                }
                for ((l, r), d) in loc.iter().zip(&region).zip(&t.shape) {
                    if l + r > *d {
                        return Err(EvalError::OutOfBounds {
                            tensor: u.acc_param,
                            index: vec![(l + r) as i64],
                            shape: t.shape.clone(),
                        });
                    }
                }
                // Squeezed view of the region, matching
                // `types::region_type`: leading unit dims are dropped.
                let squeezed: Vec<usize> = {
                    let mut s: &[usize] = &region;
                    while let Some((&1, rest)) = s.split_first() {
                        s = rest;
                    }
                    s.to_vec()
                };
                let count: usize = region.iter().product();
                // Reused relative/absolute index buffers for both the
                // region read and the write-back below.
                let mut rel = vec![0usize; region.len()];
                let mut abs = vec![0usize; region.len()];
                let mut cur = Vec::with_capacity(count);
                for flat in 0..count {
                    unflatten_into(flat, &region, &mut rel);
                    for (a, (r, l)) in abs.iter_mut().zip(rel.iter().zip(&loc)) {
                        *a = r + l;
                    }
                    cur.push(t.data[t.offset(&abs)].clone());
                }
                let param_val = if squeezed.is_empty() {
                    match cur.pop() {
                        Some(s) => Value::Scalar(s),
                        None => return Err(EvalError::Type("empty update region".into())),
                    }
                } else {
                    Value::Tensor(TensorVal::new(squeezed.clone(), cur))
                };
                env.insert(u.acc_param, param_val);
                self.eval_block(&u.body, env)?;
                let sym = u.body.result_sym();
                let r = env.remove(&sym).ok_or(EvalError::Unbound(sym))?;
                let new_data: Vec<ScalarVal> = match r {
                    Value::Scalar(v) => vec![v],
                    Value::Tensor(nt) => {
                        if nt.len() != count {
                            return Err(EvalError::Type(format!(
                                "update produced {} elements for region of {count}",
                                nt.len()
                            )));
                        }
                        nt.data
                    }
                    other => return Err(EvalError::Type(format!("update produced {other:?}"))),
                };
                for (flat, v) in new_data.into_iter().enumerate() {
                    unflatten_into(flat, &region, &mut rel);
                    for (a, (r, l)) in abs.iter_mut().zip(rel.iter().zip(&loc)) {
                        *a = r + l;
                    }
                    let off = t.offset(&abs);
                    t.data[off] = v;
                }
                Ok(())
            }
            other => Err(EvalError::Type(format!(
                "update on non-accumulator value {other:?}"
            ))),
        }
    }

    /// Applies a scalar combine lambda, elementwise over tensors.
    fn apply_combine(
        &self,
        combine: &crate::pattern::Lambda,
        a: Value,
        b: Value,
        env: &mut Env,
    ) -> Result<Value, EvalError> {
        let one = |x: ScalarVal, y: ScalarVal, env: &mut Env| -> Result<ScalarVal, EvalError> {
            env.insert(combine.params[0], Value::Scalar(x));
            env.insert(combine.params[1], Value::Scalar(y));
            self.eval_block(&combine.body, env)?;
            match env
                .get(&combine.body.result_sym())
                .ok_or(EvalError::Unbound(combine.body.result_sym()))?
            {
                Value::Scalar(s) => Ok(s.clone()),
                other => Err(EvalError::Type(format!(
                    "combine produced non-scalar {other:?}"
                ))),
            }
        };
        match (a, b) {
            (Value::Scalar(x), Value::Scalar(y)) => Ok(Value::Scalar(one(x, y, env)?)),
            (Value::Tensor(x), Value::Tensor(y)) => {
                if x.shape != y.shape {
                    return Err(EvalError::Type("combine shape mismatch".into()));
                }
                let data: Vec<ScalarVal> = x
                    .data
                    .into_iter()
                    .zip(y.data)
                    .map(|(xe, ye)| one(xe, ye, env))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Tensor(TensorVal::new(x.shape, data)))
            }
            (a, b) => Err(EvalError::Type(format!(
                "combine of mismatched values {a:?} / {b:?}"
            ))),
        }
    }

    fn eval_expr(&self, e: &Expr, env: &Env) -> Result<ScalarVal, EvalError> {
        match e {
            Expr::Lit(l) => Ok(ScalarVal::from(*l)),
            Expr::SizeOf(s) => Ok(ScalarVal::I(s.eval(&self.sizes)?)),
            Expr::Var(s) => match env.get(s).ok_or(EvalError::Unbound(*s))? {
                Value::Scalar(v) => Ok(v.clone()),
                other => Err(EvalError::Type(format!(
                    "scalar variable {s} bound to {other:?}"
                ))),
            },
            Expr::Un(op, a) => {
                let a = self.eval_expr(a, env)?;
                eval_unop(*op, a)
            }
            Expr::Bin(op, a, b) => {
                let a = self.eval_expr(a, env)?;
                let b = self.eval_expr(b, env)?;
                eval_binop(*op, a, b)
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                if expect_bool(self.eval_expr(cond, env)?)? {
                    self.eval_expr(if_true, env)
                } else {
                    self.eval_expr(if_false, env)
                }
            }
            Expr::Tuple(es) => Ok(ScalarVal::Tuple(
                es.iter()
                    .map(|e| self.eval_expr(e, env))
                    .collect::<Result<_, _>>()?,
            )),
            Expr::Field(a, i) => match self.eval_expr(a, env)? {
                ScalarVal::Tuple(fs) => fs
                    .get(*i)
                    .cloned()
                    .ok_or_else(|| EvalError::Type(format!("tuple field {i} out of range"))),
                other => Err(EvalError::Type(format!("field of non-tuple {other:?}"))),
            },
            Expr::Read { tensor, index } => {
                let idx: Vec<i64> = index
                    .iter()
                    .map(|e| expect_i64(self.eval_expr(e, env)?))
                    .collect::<Result<_, EvalError>>()?;
                match env.get(tensor).ok_or(EvalError::Unbound(*tensor))? {
                    Value::Tensor(t) => {
                        if idx.len() != t.shape.len()
                            || idx
                                .iter()
                                .zip(&t.shape)
                                .any(|(i, d)| *i < 0 || *i as usize >= *d)
                        {
                            return Err(EvalError::OutOfBounds {
                                tensor: *tensor,
                                index: idx,
                                shape: t.shape.clone(),
                            });
                        }
                        let u: Vec<usize> = idx.iter().map(|i| *i as usize).collect();
                        Ok(t.data[t.offset(&u)].clone())
                    }
                    Value::DynVec(v) => {
                        let i = idx[0];
                        if i < 0 || i as usize >= v.len() {
                            return Err(EvalError::OutOfBounds {
                                tensor: *tensor,
                                index: idx,
                                shape: vec![v.len()],
                            });
                        }
                        Ok(v[i as usize].clone())
                    }
                    other => Err(EvalError::Type(format!(
                        "read of non-tensor {tensor}: {other:?}"
                    ))),
                }
            }
        }
    }
}

fn unflatten(flat: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0usize; dims.len()];
    unflatten_into(flat, dims, &mut idx);
    idx
}

/// [`unflatten`] into a caller-owned buffer, avoiding the allocation in
/// per-element loops.
fn unflatten_into(mut flat: usize, dims: &[usize], idx: &mut [usize]) {
    for k in (0..dims.len()).rev() {
        idx[k] = flat % dims[k];
        flat /= dims[k];
    }
}

/// Evaluates a unary operator. Invalid op/type combinations (reachable
/// from adversarial IR) are typed errors; integer arithmetic wraps rather
/// than aborting on overflow.
fn eval_unop(op: UnOp, a: ScalarVal) -> Result<ScalarVal, EvalError> {
    use ScalarVal::*;
    Ok(match (op, a) {
        (UnOp::Neg, F(v)) => F(-v),
        (UnOp::Neg, I(v)) => I(v.wrapping_neg()),
        (UnOp::Not, B(v)) => B(!v),
        (UnOp::Sqrt, F(v)) => F(v.sqrt()),
        (UnOp::Ln, F(v)) => F(v.ln()),
        (UnOp::Exp, F(v)) => F(v.exp()),
        (UnOp::Abs, F(v)) => F(v.abs()),
        (UnOp::Abs, I(v)) => I(v.wrapping_abs()),
        (UnOp::Square, F(v)) => F(v * v),
        (UnOp::Square, I(v)) => I(v.wrapping_mul(v)),
        (UnOp::ToF32, I(v)) => F(v as f32),
        (UnOp::ToF32, F(v)) => F(v),
        (UnOp::ToI32, F(v)) => I(v as i64),
        (UnOp::ToI32, I(v)) => I(v),
        (op, a) => {
            return Err(EvalError::Type(format!("invalid unary op {op:?} on {a:?}")));
        }
    })
}

/// Evaluates a binary operator. Invalid combinations and integer division
/// by zero are typed errors; integer arithmetic wraps on overflow.
fn eval_binop(op: BinOp, a: ScalarVal, b: ScalarVal) -> Result<ScalarVal, EvalError> {
    use ScalarVal::*;
    // Promote mixed int/float arithmetic to float.
    let (a, b) = match (&a, &b) {
        (F(_), I(y)) => (a.clone(), F(*y as f32)),
        (I(x), F(_)) => (F(*x as f32), b.clone()),
        _ => (a, b),
    };
    if matches!(op, BinOp::Div | BinOp::Rem) {
        if let (I(_), I(0)) = (&a, &b) {
            return Err(EvalError::Type("integer division by zero".into()));
        }
    }
    Ok(match (op, a, b) {
        (BinOp::Add, F(x), F(y)) => F(x + y),
        (BinOp::Add, I(x), I(y)) => I(x.wrapping_add(y)),
        (BinOp::Sub, F(x), F(y)) => F(x - y),
        (BinOp::Sub, I(x), I(y)) => I(x.wrapping_sub(y)),
        (BinOp::Mul, F(x), F(y)) => F(x * y),
        (BinOp::Mul, I(x), I(y)) => I(x.wrapping_mul(y)),
        (BinOp::Div, F(x), F(y)) => F(x / y),
        (BinOp::Div, I(x), I(y)) => I(x.wrapping_div(y)),
        (BinOp::Rem, I(x), I(y)) => I(x.wrapping_rem(y)),
        (BinOp::Min, F(x), F(y)) => F(x.min(y)),
        (BinOp::Min, I(x), I(y)) => I(x.min(y)),
        (BinOp::Max, F(x), F(y)) => F(x.max(y)),
        (BinOp::Max, I(x), I(y)) => I(x.max(y)),
        (BinOp::Lt, F(x), F(y)) => B(x < y),
        (BinOp::Lt, I(x), I(y)) => B(x < y),
        (BinOp::Le, F(x), F(y)) => B(x <= y),
        (BinOp::Le, I(x), I(y)) => B(x <= y),
        (BinOp::Eq, F(x), F(y)) => B(x == y),
        (BinOp::Eq, I(x), I(y)) => B(x == y),
        (BinOp::Eq, B(x), B(y)) => B(x == y),
        (BinOp::And, B(x), B(y)) => B(x && y),
        (BinOp::Or, B(x), B(y)) => B(x || y),
        (op, a, b) => {
            return Err(EvalError::Type(format!(
                "invalid binary op {op:?} on {a:?}, {b:?}"
            )));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_representation() {
        let a = Value::scalar_f32(1.0);
        let b = Value::tensor_f32(&[1], vec![1.0 + 1e-7]);
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&Value::scalar_f32(2.0), 1e-5));
    }

    #[test]
    fn unflatten_row_major() {
        assert_eq!(unflatten(5, &[2, 3]), vec![1, 2]);
        assert_eq!(unflatten(0, &[2, 3]), vec![0, 0]);
    }
}
