//! The four parallel patterns of the paper's PPL (Figure 2).
//!
//! *Multidimensional* patterns ([`MapPat`], [`MultiFoldPat`]) have a range
//! that is a fixed function of the domain; *one-dimensional* patterns
//! ([`FlatMapPat`], [`GroupByFoldPat`]) have dynamic output sizes and are
//! therefore restricted to one-dimensional domains.

use std::fmt;

use crate::block::Block;
use crate::expr::{Expr, Lit};
use crate::size::Size;
use crate::types::{ScalarType, Sym};

/// A function value: index parameters plus a body block.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameter symbols (pattern indices, or combine operands).
    pub params: Vec<Sym>,
    /// Body; its result is the lambda's value.
    pub body: Block,
}

impl Lambda {
    /// Creates a lambda.
    pub fn new(params: Vec<Sym>, body: Block) -> Lambda {
        Lambda { params, body }
    }
}

/// Initial accumulator contents.
///
/// The paper requires the initial value to be an identity of the combine
/// function with the same shape as the output; every benchmark uses a
/// broadcast scalar (zeros, or `(max, -1)` for argmin reductions), which is
/// what `Splat` expresses.
#[derive(Debug, Clone, PartialEq)]
pub struct Init {
    /// One literal per scalar field (a single literal for primitives).
    pub splat: Vec<Lit>,
}

impl Init {
    /// A custom splat initializer.
    pub fn splat(lits: Vec<Lit>) -> Init {
        Init { splat: lits }
    }

    /// The all-zero initializer for the given scalar type (false for bools).
    pub fn zero_of(ty: &crate::types::ScalarType) -> Init {
        use crate::types::{DType, ScalarType};
        let zero = |d: &DType| match d {
            DType::F32 => Lit::F32(0.0),
            DType::I32 => Lit::I32(0),
            DType::Bool => Lit::Bool(false),
        };
        match ty {
            ScalarType::Prim(d) => Init {
                splat: vec![zero(d)],
            },
            ScalarType::Tuple(fs) => Init {
                splat: fs.iter().map(zero).collect(),
            },
        }
    }
}

/// Declaration of one accumulator of a [`MultiFoldPat`] or the per-bucket
/// value of a [`GroupByFoldPat`].
#[derive(Debug, Clone, PartialEq)]
pub struct AccDef {
    /// Display name.
    pub name: String,
    /// Full accumulator shape (empty for scalar accumulators).
    pub shape: Vec<Size>,
    /// Element type.
    pub elem: ScalarType,
    /// Initial contents.
    pub init: Init,
}

/// The `(location, value function)` pair generated per index per accumulator.
///
/// `loc` gives the element-unit offset of the updated region within the
/// accumulator and `shape` its extent (the paper permits any size up to the
/// accumulator's, with equal arity). The update body receives the current
/// region bound to `acc_param` and yields its replacement.
#[derive(Debug, Clone, PartialEq)]
pub struct AccUpdate {
    /// Offset of the updated region, one expression per accumulator
    /// dimension (empty for scalar accumulators).
    pub loc: Vec<Expr>,
    /// Extent of the updated region (same length as `loc`).
    pub shape: Vec<Size>,
    /// Symbol bound to the current region contents inside `body`.
    pub acc_param: Sym,
    /// Computes the new region value.
    pub body: Block,
}

impl AccUpdate {
    /// Returns `true` if the update covers the whole accumulator `acc`
    /// starting at the origin — the *fold* special case the interchange
    /// rules match on.
    pub fn is_full(&self, acc: &AccDef) -> bool {
        self.shape.len() == acc.shape.len()
            && self
                .shape
                .iter()
                .zip(&acc.shape)
                .all(|(a, b)| a.simplified() == b.simplified())
            && self.loc.iter().all(|e| matches!(e, Expr::Lit(Lit::I32(0))))
    }
}

/// `Map(d)(m)`: one generated value per index, aggregated into a fixed-size
/// output of the same shape as the domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MapPat {
    /// Iteration domain (arbitrary arity).
    pub domain: Vec<Size>,
    /// Value function: one index parameter per domain dimension; the body's
    /// result is the generated element (scalar, or a tensor when the map has
    /// been strip-mined and generates tiles).
    pub body: Lambda,
}

/// `MultiFold(d)(r)(z)(f)(c)`: reduces generated values into regions of a
/// (potentially larger) accumulator with an associative combine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFoldPat {
    /// Iteration domain.
    pub domain: Vec<Size>,
    /// Accumulators (one output symbol each).
    pub accs: Vec<AccDef>,
    /// Index parameter symbols (one per domain dimension).
    pub idx: Vec<Sym>,
    /// Shared per-index computation; updates may reference its bindings.
    pub pre: Block,
    /// One update per accumulator.
    pub updates: Vec<AccUpdate>,
    /// Per-accumulator *scalar* combine `(a, b) -> merged`, applied
    /// elementwise when the accumulator is a tensor; `None` is the paper's
    /// `_` (every location written at most once, no combine needed).
    ///
    /// The paper's combine is a function over full accumulator values, but
    /// in every program it presents (and every benchmark) it is an
    /// elementwise map of a scalar operation; representing the scalar
    /// directly is what lets strip mining derive region-restricted combines
    /// and hardware generation infer reduction trees (see DESIGN.md).
    pub combines: Vec<Option<Lambda>>,
}

impl MultiFoldPat {
    /// Returns `true` if this is a *fold*: a single accumulator updated in
    /// full every iteration (the special case matched by the interchange
    /// rules of §4).
    pub fn is_fold(&self) -> bool {
        self.accs.len() == 1 && self.updates[0].is_full(&self.accs[0])
    }
}

/// `FlatMap(d)(n)`: zero or more generated values per index, concatenated.
/// Restricted to one-dimensional domains (dynamic output size).
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMapPat {
    /// Iteration domain.
    pub domain: Size,
    /// Multi-value function; its body result is a dynamically-sized vector
    /// (an [`Op::VarVec`](crate::block::Op::VarVec) or a nested `FlatMap`).
    pub body: Lambda,
}

/// Body form of a [`GroupByFoldPat`].
#[derive(Debug, Clone, PartialEq)]
pub enum GbfBody {
    /// The user-facing form: each index generates a `(key, value-update)`
    /// pair; the update is applied to the keyed bucket.
    Element {
        /// Bucket key expression.
        key: Expr,
        /// Per-bucket update (location must be the full bucket).
        update: AccUpdate,
    },
    /// The strip-mined outer form (Table 1): each iteration's `pre` block
    /// binds a whole dictionary (from a nested `GroupByFold`) which is
    /// merged into the result bucket-by-bucket using the combine function.
    Merge {
        /// Symbol (bound in `pre`) of the per-tile dictionary to merge.
        dict: Sym,
    },
}

/// `GroupByFold(d)(z)(g)(c)`: reduces generated values into dynamically
/// keyed buckets — a fused `groupBy` + per-bucket fold.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByFoldPat {
    /// Iteration domain (one-dimensional).
    pub domain: Size,
    /// Per-bucket value declaration (shape, element type, init).
    pub acc: AccDef,
    /// Index parameter.
    pub idx: Sym,
    /// Shared per-index computation.
    pub pre: Block,
    /// Per-index contribution.
    pub body: GbfBody,
    /// Combine for merging partial buckets.
    pub combine: Lambda,
}

/// A parallel pattern.
#[allow(clippy::large_enum_variant)] // MultiFold carries its accumulators
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// See [`MapPat`].
    Map(MapPat),
    /// See [`MultiFoldPat`].
    MultiFold(MultiFoldPat),
    /// See [`FlatMapPat`].
    FlatMap(FlatMapPat),
    /// See [`GroupByFoldPat`].
    GroupByFold(GroupByFoldPat),
}

impl Pattern {
    /// Short name used in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Pattern::Map(_) => "map",
            Pattern::MultiFold(_) => "multiFold",
            Pattern::FlatMap(_) => "flatMap",
            Pattern::GroupByFold(_) => "groupByFold",
        }
    }

    /// The iteration domain extents.
    pub fn domain(&self) -> &[Size] {
        match self {
            Pattern::Map(p) => &p.domain,
            Pattern::MultiFold(p) => &p.domain,
            Pattern::FlatMap(p) => std::slice::from_ref(&p.domain),
            Pattern::GroupByFold(p) => std::slice::from_ref(&p.domain),
        }
    }

    /// Number of values the pattern statement binds.
    pub fn output_count(&self) -> usize {
        match self {
            Pattern::MultiFold(p) => p.accs.len(),
            _ => 1,
        }
    }

    /// The index parameters, one per domain dimension in a well-formed
    /// pattern. Every [`Scope`] with `on_index` sees them.
    pub fn indices(&self) -> &[Sym] {
        match self {
            Pattern::Map(p) => &p.body.params,
            Pattern::MultiFold(p) => &p.idx,
            Pattern::FlatMap(p) => &p.body.params,
            Pattern::GroupByFold(p) => std::slice::from_ref(&p.idx),
        }
    }

    /// The pattern's sub-scopes in traversal order. Which function
    /// arguments each of the four patterns has, what each binds and sees,
    /// and what it is called in a path is stated here and nowhere else:
    /// the checker, the race detector, free-variable analysis and
    /// [`Pattern::child_blocks`] are all views of this list. Scopes on the
    /// index scope come first, so the index scope ends at the first one
    /// that is not.
    pub fn scopes(&self) -> Vec<Scope<'_>> {
        match self {
            Pattern::Map(p) => vec![Scope::block(Seg::Body, &p.body.body)],
            Pattern::FlatMap(p) => vec![Scope::block(Seg::Body, &p.body.body)],
            Pattern::MultiFold(p) => {
                let mut out = vec![Scope::block(Seg::Pre, &p.pre)];
                out.extend(
                    p.updates
                        .iter()
                        .enumerate()
                        .map(|(k, u)| Scope::update(Seg::Update(Some(k)), u)),
                );
                out.extend(p.combines.iter().enumerate().filter_map(|(k, c)| {
                    c.as_ref().map(|c| Scope::combine(Seg::Combine(Some(k)), c))
                }));
                out
            }
            Pattern::GroupByFold(p) => {
                let mut out = vec![Scope::block(Seg::Pre, &p.pre)];
                match &p.body {
                    GbfBody::Element { key, update: u } => {
                        out.push(Scope {
                            exprs: std::slice::from_ref(key),
                            ..Scope::bare(Seg::Key)
                        });
                        out.push(Scope::update(Seg::Update(None), u));
                    }
                    GbfBody::Merge { dict } => out.push(Scope {
                        uses: std::slice::from_ref(dict),
                        ..Scope::bare(Seg::Merge)
                    }),
                }
                out.push(Scope::combine(Seg::Combine(None), &p.combine));
                out
            }
        }
    }

    /// All immediate child blocks (bodies, updates, combines) in
    /// deterministic order.
    pub fn child_blocks(&self) -> Vec<&Block> {
        self.scopes().iter().filter_map(|s| s.block).collect()
    }

    /// Mutable variant of [`Pattern::child_blocks`] (the `&mut` twin of
    /// [`Pattern::scopes`]' block order).
    pub fn child_blocks_mut(&mut self) -> Vec<&mut Block> {
        match self {
            Pattern::Map(p) => vec![&mut p.body.body],
            Pattern::MultiFold(p) => {
                let mut out = vec![&mut p.pre];
                out.extend(p.updates.iter_mut().map(|u| &mut u.body));
                out.extend(p.combines.iter_mut().flatten().map(|c| &mut c.body));
                out
            }
            Pattern::FlatMap(p) => vec![&mut p.body.body],
            Pattern::GroupByFold(p) => {
                let mut out = vec![&mut p.pre];
                if let GbfBody::Element { update, .. } = &mut p.body {
                    out.push(&mut update.body);
                }
                out.push(&mut p.combine.body);
                out
            }
        }
    }

    /// Parameter symbols bound by the pattern itself (indices, accumulator
    /// region parameters, combine operands).
    pub fn param_syms(&self) -> Vec<Sym> {
        let mut out = self.indices().to_vec();
        for s in self.scopes() {
            out.extend_from_slice(s.binds);
        }
        out
    }

    /// Collects symbols referenced (not bound) by the pattern, including
    /// those referenced by nested blocks. Used for free-variable analysis.
    pub(crate) fn collect_used(&self, out: &mut Vec<Sym>) {
        for s in self.scopes() {
            for e in s.exprs {
                out.extend(e.syms());
            }
            out.extend_from_slice(s.uses);
            if let Some(b) = s.block {
                // A block's free symbols already account for nesting.
                out.extend(b.free_syms());
            }
        }
    }
}

/// The name of a pattern sub-scope in an [`IrPath`](crate::path::IrPath);
/// its `Display` is the one spelling of that path segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// The value function of a `Map` / `FlatMap`.
    Body,
    /// The shared per-index block of a `MultiFold` / `GroupByFold`.
    Pre,
    /// `update[k]` of a `MultiFold`; the single `update` of a
    /// `GroupByFold` element body (`None`).
    Update(Option<usize>),
    /// `combine[k]` of a `MultiFold`; the single `combine` of a
    /// `GroupByFold` (`None`).
    Combine(Option<usize>),
    /// The bucket key of a `GroupByFold` element body.
    Key,
    /// The merged dictionary of a strip-mined `GroupByFold`.
    Merge,
}

impl fmt::Display for Seg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Seg::Body => f.write_str("body"),
            Seg::Pre => f.write_str("pre"),
            Seg::Update(Some(k)) => write!(f, "update[{k}]"),
            Seg::Update(None) => f.write_str("update"),
            Seg::Combine(Some(k)) => write!(f, "combine[{k}]"),
            Seg::Combine(None) => f.write_str("combine"),
            Seg::Key => f.write_str("key"),
            Seg::Merge => f.write_str("merge"),
        }
    }
}

/// One sub-scope of a pattern, as enumerated by [`Pattern::scopes`].
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// Its path segment.
    pub seg: Seg,
    /// `true` when the scope sees the pattern's indices and everything
    /// the earlier `on_index` blocks (`pre`) bound; `false` when it sees
    /// only the enclosing scope (a combine sees neither indices nor
    /// `pre`).
    pub on_index: bool,
    /// Symbols bound on entry for `block` alone (accumulator region
    /// parameter, combine operands). A scope that binds any gets a
    /// private copy of its base scope: nothing `block` binds outlives it.
    pub binds: &'a [Sym],
    /// Scope-level expressions, evaluated before `binds` are in scope:
    /// update locations, the group-by key.
    pub exprs: &'a [Expr],
    /// Scope-level sizes: the extent of an update's region.
    pub sizes: &'a [Size],
    /// Scope-level symbol uses: the merged dictionary.
    pub uses: &'a [Sym],
    /// The scope's block, if it has one (`key` and `merge` do not).
    pub block: Option<&'a Block>,
}

impl<'a> Scope<'a> {
    fn bare(seg: Seg) -> Scope<'a> {
        Scope {
            seg,
            on_index: true,
            binds: &[],
            exprs: &[],
            sizes: &[],
            uses: &[],
            block: None,
        }
    }

    fn block(seg: Seg, block: &'a Block) -> Scope<'a> {
        Scope {
            block: Some(block),
            ..Scope::bare(seg)
        }
    }

    fn update(seg: Seg, u: &'a AccUpdate) -> Scope<'a> {
        Scope {
            binds: std::slice::from_ref(&u.acc_param),
            exprs: &u.loc,
            sizes: &u.shape,
            ..Scope::block(seg, &u.body)
        }
    }

    fn combine(seg: Seg, l: &'a Lambda) -> Scope<'a> {
        Scope {
            on_index: false,
            binds: &l.params,
            ..Scope::block(seg, &l.body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Op, Stmt};
    use crate::types::Sym;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    fn scalar_fold() -> MultiFoldPat {
        // fold(d)(0){ i => acc => acc + x(i) }{ (a,b) => a + b }
        let i = s(0);
        let acc = s(1);
        let a = s(2);
        let b = s(3);
        let upd = s(4);
        let comb = s(5);
        MultiFoldPat {
            domain: vec![Size::var("d")],
            accs: vec![AccDef {
                name: "acc".into(),
                shape: vec![],
                elem: ScalarType::Prim(crate::types::DType::F32),
                init: Init::splat(vec![Lit::F32(0.0)]),
            }],
            idx: vec![i],
            pre: Block::new(),
            updates: vec![AccUpdate {
                loc: vec![],
                shape: vec![],
                acc_param: acc,
                body: Block::with_result(
                    vec![Stmt::new(
                        upd,
                        Op::Expr(Expr::var(acc).add(Expr::read(s(9), vec![Expr::var(i)]))),
                    )],
                    upd,
                ),
            }],
            combines: vec![Some(Lambda::new(
                vec![a, b],
                Block::with_result(
                    vec![Stmt::new(comb, Op::Expr(Expr::var(a).add(Expr::var(b))))],
                    comb,
                ),
            ))],
        }
    }

    #[test]
    fn scalar_fold_is_fold() {
        assert!(scalar_fold().is_fold());
    }

    #[test]
    fn strided_multifold_is_not_fold() {
        let mut mf = scalar_fold();
        mf.accs[0].shape = vec![Size::var("d")];
        mf.updates[0].shape = vec![Size::var("b")];
        mf.updates[0].loc = vec![Expr::var(s(0)).mul(Expr::int(4))];
        assert!(!mf.is_fold());
    }

    #[test]
    fn pattern_param_syms_cover_idx_acc_combine() {
        let p = Pattern::MultiFold(scalar_fold());
        let params = p.param_syms();
        assert!(params.contains(&s(0)));
        assert!(params.contains(&s(1)));
        assert!(params.contains(&s(2)));
        assert!(params.contains(&s(3)));
    }

    #[test]
    fn pattern_used_sees_read_tensors() {
        let p = Pattern::MultiFold(scalar_fold());
        let mut used = Vec::new();
        p.collect_used(&mut used);
        assert!(used.contains(&s(9)), "tensor x should be a used symbol");
    }

    #[test]
    fn child_blocks_count() {
        let p = Pattern::MultiFold(scalar_fold());
        // pre + 1 update + 1 combine
        assert_eq!(p.child_blocks().len(), 3);
    }

    #[test]
    fn kind_names() {
        assert_eq!(Pattern::MultiFold(scalar_fold()).kind(), "multiFold");
    }

    #[test]
    fn init_helpers() {
        use crate::types::DType;
        let zero = |d| Init::zero_of(&ScalarType::Prim(d)).splat;
        assert_eq!(zero(DType::F32), vec![Lit::F32(0.0)]);
        assert_eq!(zero(DType::Bool), vec![Lit::Bool(false)]);
        let pair = ScalarType::Tuple(vec![DType::F32, DType::I32]);
        assert_eq!(Init::zero_of(&pair).splat, vec![Lit::F32(0.0), Lit::I32(0)]);
    }
}
