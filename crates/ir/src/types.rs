//! Types and symbols for PPL programs.
//!
//! Every value in a PPL program is either a *scalar* (a primitive or a flat
//! struct of primitives — the paper's "scalar or structure of scalars") or a
//! *tensor* (a multidimensional array of scalars, never a nested array).
//! Symbols are lightweight ids; names and types live in a [`SymTable`]
//! owned by the enclosing [`Program`](crate::program::Program).

use std::fmt;

use crate::block::SliceDim;
use crate::size::Size;

/// Primitive element data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE float (the paper's benchmarks are all single precision).
    F32,
    /// 32-bit signed integer.
    I32,
    /// Boolean.
    Bool,
}

impl DType {
    /// Width of one element in bytes as stored in DRAM / on-chip buffers.
    pub fn bytes(self) -> u64 {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::Bool => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DType::F32 => write!(f, "Float"),
            DType::I32 => write!(f, "Int"),
            DType::Bool => write!(f, "Bool"),
        }
    }
}

/// Scalar-level type: a primitive or a flat tuple of primitives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// A single primitive value.
    Prim(DType),
    /// A flat struct of primitives, e.g. the `(dist, index)` pairs used by
    /// k-means reductions.
    Tuple(Vec<DType>),
}

impl ScalarType {
    /// Number of primitive fields (1 for a plain primitive).
    pub fn width(&self) -> usize {
        match self {
            ScalarType::Prim(_) => 1,
            ScalarType::Tuple(fs) => fs.len(),
        }
    }

    /// Total bytes of one scalar value.
    pub fn bytes(&self) -> u64 {
        match self {
            ScalarType::Prim(d) => d.bytes(),
            ScalarType::Tuple(fs) => fs.iter().map(|d| d.bytes()).sum(),
        }
    }

    /// The field type at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds for a tuple, or nonzero for a primitive.
    pub fn field(&self, i: usize) -> DType {
        match self {
            ScalarType::Prim(d) => {
                assert_eq!(i, 0, "field index {i} on primitive scalar");
                *d
            }
            ScalarType::Tuple(fs) => fs[i],
        }
    }
}

impl From<DType> for ScalarType {
    fn from(d: DType) -> Self {
        ScalarType::Prim(d)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::Prim(d) => write!(f, "{d}"),
            ScalarType::Tuple(fs) => {
                write!(f, "(")?;
                for (i, d) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Type of any PPL value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar (primitive or flat tuple).
    Scalar(ScalarType),
    /// A multidimensional array of scalars.
    Tensor {
        /// Element type.
        elem: ScalarType,
        /// Extent of each dimension.
        shape: Vec<Size>,
    },
    /// A one-dimensional vector of dynamic length, produced by `FlatMap`.
    DynVec {
        /// Element type.
        elem: ScalarType,
    },
    /// The dynamically-sized key/value collection produced by `GroupByFold`.
    Dict {
        /// Key type.
        key: ScalarType,
        /// Value type (scalar buckets; tensor-valued buckets are represented
        /// as tensors of rank `shape.len()`).
        value: Box<Type>,
    },
}

impl Type {
    /// Scalar `F32` shorthand.
    pub fn f32() -> Type {
        Type::Scalar(ScalarType::Prim(DType::F32))
    }

    /// Scalar `I32` shorthand.
    pub fn i32() -> Type {
        Type::Scalar(ScalarType::Prim(DType::I32))
    }

    /// Scalar `Bool` shorthand.
    pub fn bool() -> Type {
        Type::Scalar(ScalarType::Prim(DType::Bool))
    }

    /// Tensor shorthand.
    pub fn tensor(elem: impl Into<ScalarType>, shape: Vec<Size>) -> Type {
        Type::Tensor {
            elem: elem.into(),
            shape,
        }
    }

    /// Returns the tensor shape, or `&[]` for scalars.
    pub fn shape(&self) -> &[Size] {
        match self {
            Type::Tensor { shape, .. } => shape,
            _ => &[],
        }
    }

    /// Returns the element/scalar type.
    ///
    /// # Panics
    ///
    /// Panics for `Dict` types, which have no single element type.
    pub fn elem(&self) -> &ScalarType {
        match self {
            Type::Scalar(s) => s,
            Type::Tensor { elem, .. } => elem,
            Type::DynVec { elem } => elem,
            Type::Dict { .. } => panic!("elem() on Dict type"),
        }
    }

    /// Rank of the value: 0 for scalars, number of dimensions for tensors.
    pub fn rank(&self) -> usize {
        self.shape().len()
    }

    /// Returns `true` if the type is a scalar.
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Scalar(_))
    }
}

/// The type a region of the given shape binds as: leading unit dimensions
/// are squeezed so a `(1, d)` region binds as a `d`-vector and an all-unit
/// (or empty) region binds as a scalar, matching the paper's informal
/// update notation. The textual frontend uses this rule when typing
/// accumulator parameters and `multiFold` outputs.
pub fn region_type(shape: &[Size], elem: &ScalarType) -> Type {
    let squeezed: Vec<Size> = shape
        .iter()
        .skip_while(|s| s.as_const() == Some(1))
        .cloned()
        .collect();
    if squeezed.is_empty() {
        Type::Scalar(elem.clone())
    } else {
        Type::Tensor {
            elem: elem.clone(),
            shape: squeezed,
        }
    }
}

/// Computes the result type of slicing `ty` with `dims`.
///
/// # Panics
///
/// Panics if `ty` is not a tensor or the spec arity mismatches.
pub fn slice_result_type(ty: &Type, dims: &[SliceDim]) -> Type {
    let (elem, shape) = match ty {
        Type::Tensor { elem, shape } => (elem.clone(), shape.clone()),
        other => panic!("slice of non-tensor type {other}"),
    };
    assert_eq!(dims.len(), shape.len(), "slice arity mismatch");
    let mut out = Vec::new();
    for (d, s) in dims.iter().zip(shape) {
        match d {
            SliceDim::Point(_) => {}
            SliceDim::Window { len, .. } => out.push(len.clone()),
            SliceDim::Full => out.push(s),
        }
    }
    if out.is_empty() {
        Type::Scalar(elem)
    } else {
        Type::Tensor { elem, shape: out }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Tensor { elem, shape } => {
                write!(f, "{elem}[")?;
                for (i, s) in shape.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
            Type::DynVec { elem } => write!(f, "{elem}[?]"),
            Type::Dict { key, value } => write!(f, "Dict[{key} -> {value}]"),
        }
    }
}

/// A symbol: an id into the program's [`SymTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// Index into the symbol table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Per-symbol metadata.
#[derive(Debug, Clone)]
pub struct SymInfo {
    /// Base name: the printer and diagnostic paths derive identifiers from it.
    pub name: String,
    /// Value type.
    pub ty: Type,
}

/// Table of all symbols in a program.
///
/// Fresh symbols are minted with [`SymTable::fresh`]; transformations that
/// create new bindings (strip mining, interchange, copy insertion) thread a
/// `&mut SymTable` through.
#[derive(Debug, Clone, Default)]
pub struct SymTable {
    entries: Vec<SymInfo>,
}

impl SymTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh symbol with the given name and type.
    pub fn fresh(&mut self, name: impl Into<String>, ty: Type) -> Sym {
        let sym = Sym(self.entries.len() as u32);
        self.entries.push(SymInfo {
            name: name.into(),
            ty,
        });
        sym
    }

    /// Looks up a symbol's metadata.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not minted by this table.
    pub fn info(&self, sym: Sym) -> &SymInfo {
        &self.entries[sym.index()]
    }

    /// The symbol's type.
    pub fn ty(&self, sym: Sym) -> &Type {
        &self.info(sym).ty
    }

    /// The symbol's display name in diagnostics (`name_id`).
    pub fn name(&self, sym: Sym) -> String {
        format!("{}_{}", self.entries[sym.index()].name, sym.0)
    }

    /// Replaces the type of `sym` (used when inference refines a type).
    pub fn set_ty(&mut self, sym: Sym, ty: Type) {
        self.entries[sym.index()].ty = ty;
    }

    /// Number of symbols minted so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no symbols have been minted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_bytes() {
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::Bool.bytes(), 1);
    }

    #[test]
    fn scalar_type_width_and_bytes() {
        let t = ScalarType::Tuple(vec![DType::F32, DType::I32]);
        assert_eq!(t.width(), 2);
        assert_eq!(t.bytes(), 8);
        assert_eq!(t.field(1), DType::I32);
        assert_eq!(ScalarType::from(DType::F32).width(), 1);
    }

    #[test]
    fn type_shape_and_rank() {
        let t = Type::tensor(DType::F32, vec![Size::var("n"), Size::var("d")]);
        assert_eq!(t.rank(), 2);
        assert!(!t.is_scalar());
        assert!(Type::f32().is_scalar());
        assert_eq!(Type::f32().rank(), 0);
    }

    #[test]
    fn display_forms() {
        let t = Type::tensor(DType::F32, vec![Size::var("n"), Size::var("d")]);
        assert_eq!(t.to_string(), "Float[n, d]");
        let s = ScalarType::Tuple(vec![DType::F32, DType::I32]);
        assert_eq!(s.to_string(), "(Float, Int)");
    }

    #[test]
    fn sym_table_fresh_and_lookup() {
        let mut tab = SymTable::new();
        let a = tab.fresh("x", Type::f32());
        let b = tab.fresh("y", Type::i32());
        assert_ne!(a, b);
        assert_eq!(tab.ty(a), &Type::f32());
        assert_eq!(tab.name(b), "y_1");
        assert_eq!(tab.len(), 2);
    }

    #[test]
    fn sym_table_set_ty() {
        let mut tab = SymTable::new();
        let a = tab.fresh("x", Type::f32());
        tab.set_ty(a, Type::i32());
        assert_eq!(tab.ty(a), &Type::i32());
    }

    #[test]
    fn region_type_squeezes_only_leading_unit_dims() {
        let f32 = ScalarType::Prim(DType::F32);
        let (one, d) = (Size::Const(1), Size::var("d"));
        assert_eq!(region_type(&[], &f32), Type::f32());
        assert_eq!(region_type(&[one.clone(), one.clone()], &f32), Type::f32());
        assert_eq!(
            region_type(&[one.clone(), d.clone()], &f32),
            Type::tensor(DType::F32, vec![d.clone()])
        );
        assert_eq!(
            region_type(&[d.clone(), one.clone()], &f32),
            Type::tensor(DType::F32, vec![d, one])
        );
    }

    #[test]
    fn slice_result_type_drops_points() {
        let ty = Type::tensor(DType::F32, vec![Size::var("n"), Size::var("d")]);
        let r = slice_result_type(
            &ty,
            &[SliceDim::Point(crate::expr::Expr::int(0)), SliceDim::Full],
        );
        assert_eq!(r, Type::tensor(DType::F32, vec![Size::var("d")]));
    }

    #[test]
    #[should_panic(expected = "slice arity mismatch")]
    fn slice_arity_panics() {
        let ty = Type::tensor(DType::F32, vec![Size::var("n")]);
        let _ = slice_result_type(&ty, &[SliceDim::Full, SliceDim::Full]);
    }
}
