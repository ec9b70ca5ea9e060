//! Memory access pattern analysis.
//!
//! Classifies each tensor index expression as *affine* in a set of control
//! symbols (enclosing pattern indices), affine with a *dynamic* offset, or
//! *non-affine* (data-dependent). The paper uses this distinction in two
//! places: strip mining only introduces tile copies for statically
//! predictable accesses (§4), and hardware generation infers caches/CAMs
//! for non-affine accesses while banking buffers for affine ones (§5).

use std::collections::{BTreeMap, BTreeSet};

use crate::expr::{BinOp, Expr, Lit};
use crate::size::Size;
use crate::types::Sym;

/// Classification of a single index expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexClass {
    /// Affine in the control symbols with a statically known offset:
    /// `sum(coeff_i * sym_i) + offset`.
    Affine {
        /// Per-control-symbol coefficients (only nonzero entries).
        terms: BTreeMap<Sym, Size>,
        /// Constant/offset part.
        offset: Size,
    },
    /// Affine in the control symbols but offset by a value only known at
    /// run time (e.g. a computed cluster index): `sum(coeff*sym) + dyn`.
    AffineDynamic {
        /// Per-control-symbol coefficients.
        terms: BTreeMap<Sym, Size>,
    },
    /// Not expressible as an affine function of the control symbols.
    NonAffine,
}

impl IndexClass {
    /// Returns the coefficient of `sym`, if the index is (dynamic-)affine.
    pub fn coeff(&self, sym: Sym) -> Option<Size> {
        match self {
            IndexClass::Affine { terms, .. } | IndexClass::AffineDynamic { terms } => {
                Some(terms.get(&sym).cloned().unwrap_or(Size::Const(0)))
            }
            IndexClass::NonAffine => None,
        }
    }

    /// Returns `true` if the access location depends on run-time data.
    pub fn is_data_dependent(&self) -> bool {
        matches!(
            self,
            IndexClass::AffineDynamic { .. } | IndexClass::NonAffine
        )
    }
}

struct LinForm {
    terms: BTreeMap<Sym, Size>,
    offset: Size,
    dynamic: bool,
}

impl LinForm {
    fn constant(s: Size) -> LinForm {
        LinForm {
            terms: BTreeMap::new(),
            offset: s,
            dynamic: false,
        }
    }
}

fn linearize(e: &Expr, control: &BTreeSet<Sym>) -> Option<LinForm> {
    match e {
        Expr::Lit(Lit::I32(v)) => Some(LinForm::constant(Size::Const(*v))),
        Expr::SizeOf(s) => Some(LinForm::constant(s.clone())),
        Expr::Var(s) => {
            if control.contains(s) {
                let mut terms = BTreeMap::new();
                terms.insert(*s, Size::Const(1));
                Some(LinForm {
                    terms,
                    offset: Size::Const(0),
                    dynamic: false,
                })
            } else {
                // A scalar bound outside the control set: its value is only
                // known at run time.
                Some(LinForm {
                    terms: BTreeMap::new(),
                    offset: Size::Const(0),
                    dynamic: true,
                })
            }
        }
        Expr::Bin(BinOp::Add, a, b) | Expr::Bin(BinOp::Sub, a, b) => {
            let negate = matches!(e, Expr::Bin(BinOp::Sub, _, _));
            let la = linearize(a, control)?;
            let lb = linearize(b, control)?;
            let mut terms = la.terms;
            for (s, c) in lb.terms {
                let c = if negate { Size::Const(0) - c } else { c };
                let entry = terms.entry(s).or_insert(Size::Const(0));
                *entry = entry.clone() + c;
            }
            let offset = if negate {
                la.offset - lb.offset
            } else {
                la.offset + lb.offset
            };
            Some(LinForm {
                terms,
                offset,
                dynamic: la.dynamic || lb.dynamic,
            })
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let la = linearize(a, control)?;
            let lb = linearize(b, control)?;
            // Exactly one side may carry control terms; the other must be a
            // static scale factor.
            let (scale, form) = if la.terms.is_empty() && !la.dynamic {
                (la.offset, lb)
            } else if lb.terms.is_empty() && !lb.dynamic {
                (lb.offset, la)
            } else {
                return None;
            };
            Some(LinForm {
                terms: form
                    .terms
                    .into_iter()
                    .map(|(s, c)| (s, c * scale.clone()))
                    .collect(),
                offset: form.offset * scale,
                dynamic: form.dynamic,
            })
        }
        _ => None,
    }
}

/// Classifies an index expression with respect to the control symbols.
pub fn classify_index(e: &Expr, control: &BTreeSet<Sym>) -> IndexClass {
    match linearize(e, control) {
        None => IndexClass::NonAffine,
        Some(form) => {
            let terms: BTreeMap<Sym, Size> = form
                .terms
                .into_iter()
                .map(|(s, c)| (s, c.simplified()))
                .filter(|(_, c)| c != &Size::Const(0))
                .collect();
            if form.dynamic {
                IndexClass::AffineDynamic { terms }
            } else {
                IndexClass::Affine {
                    terms,
                    offset: form.offset.simplified(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    fn ctl(ids: &[u32]) -> BTreeSet<Sym> {
        ids.iter().map(|i| Sym(*i)).collect()
    }

    #[test]
    fn plain_index_is_affine() {
        let c = classify_index(&Expr::var(s(0)), &ctl(&[0]));
        match c {
            IndexClass::Affine { terms, offset } => {
                assert_eq!(terms.get(&s(0)), Some(&Size::Const(1)));
                assert_eq!(offset, Size::Const(0));
            }
            other => panic!("expected affine, got {other:?}"),
        }
    }

    #[test]
    fn scaled_index_with_size_coeff() {
        // ii * b  — tiled outer index
        let e = Expr::var(s(0)).mul(Expr::SizeOf(Size::var("b")));
        let c = classify_index(&e, &ctl(&[0]));
        assert_eq!(c.coeff(s(0)), Some(Size::var("b")));
    }

    #[test]
    fn sum_of_indices() {
        // i + j*4 + 2
        let e = Expr::var(s(0))
            .add(Expr::var(s(1)).mul(Expr::int(4)))
            .add(Expr::int(2));
        match classify_index(&e, &ctl(&[0, 1])) {
            IndexClass::Affine { terms, offset } => {
                assert_eq!(terms.get(&s(0)), Some(&Size::Const(1)));
                assert_eq!(terms.get(&s(1)), Some(&Size::Const(4)));
                assert_eq!(offset, Size::Const(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn foreign_scalar_is_dynamic() {
        // minIdx + i with minIdx not a control sym
        let e = Expr::var(s(7)).add(Expr::var(s(0)));
        match classify_index(&e, &ctl(&[0])) {
            IndexClass::AffineDynamic { terms } => {
                assert_eq!(terms.get(&s(0)), Some(&Size::Const(1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn product_of_indices_is_non_affine() {
        let e = Expr::var(s(0)).mul(Expr::var(s(1)));
        assert_eq!(classify_index(&e, &ctl(&[0, 1])), IndexClass::NonAffine);
    }

    #[test]
    fn read_based_index_is_non_affine() {
        let e = Expr::read(s(3), vec![Expr::var(s(0))]);
        assert_eq!(classify_index(&e, &ctl(&[0])), IndexClass::NonAffine);
    }

    #[test]
    fn data_dependence_predicate() {
        assert!(IndexClass::NonAffine.is_data_dependent());
        assert!(!IndexClass::Affine {
            terms: BTreeMap::new(),
            offset: Size::Const(0)
        }
        .is_data_dependent());
    }

    #[test]
    fn sub_negates_coefficient() {
        // i - j
        let e = Expr::var(s(0)).sub(Expr::var(s(1)));
        match classify_index(&e, &ctl(&[0, 1])) {
            IndexClass::Affine { terms, .. } => {
                assert_eq!(
                    terms.get(&s(1)).map(|c| c.simplified()),
                    Some(Size::Const(0) - Size::Const(1))
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
