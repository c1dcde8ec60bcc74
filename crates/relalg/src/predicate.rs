//! Selection predicates.
//!
//! Selection conditions for `σ` are boolean combinations of comparisons
//! between attributes and constants. Predicates are compiled against a
//! concrete header once per operator evaluation ([`CompiledPred`]), so the
//! per-tuple work is purely positional.

use crate::attrs::AttrSet;
use crate::error::{RelalgError, Result};
use crate::symbol::Attr;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    pub fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with swapped operands (`a op b ⇔ b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`¬(a op b) ⇔ a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The textual form used by the parser/printer.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One side of a comparison.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An attribute reference.
    Attr(Attr),
    /// A constant value.
    Const(Value),
}

impl Operand {
    /// Convenience constructor for attribute operands.
    pub fn attr(name: &str) -> Operand {
        Operand::Attr(Attr::new(name))
    }

    /// Convenience constructor for constant operands.
    pub fn val(v: impl Into<Value>) -> Operand {
        Operand::Const(v.into())
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A selection predicate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true.
    True,
    /// Always false.
    False,
    /// `lhs op rhs`.
    Cmp(Operand, CmpOp, Operand),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `lhs op rhs` comparison.
    pub fn cmp(lhs: Operand, op: CmpOp, rhs: Operand) -> Predicate {
        Predicate::Cmp(lhs, op, rhs)
    }

    /// `attr = value`, the most common atomic predicate.
    pub fn attr_eq(attr: &str, v: impl Into<Value>) -> Predicate {
        Predicate::Cmp(Operand::attr(attr), CmpOp::Eq, Operand::val(v))
    }

    /// Conjunction, flattening trivial cases.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction, flattening trivial cases.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, p) | (p, Predicate::False) => p,
            (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
            (a, b) => Predicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation, flattening trivial cases (by-value combinator matching
    /// [`Predicate::and`]/[`Predicate::or`], intentionally named like the
    /// logical operation).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Not(inner) => *inner,
            Predicate::Cmp(l, op, r) => Predicate::Cmp(l, op.negate(), r),
            p => Predicate::Not(Box::new(p)),
        }
    }

    /// The attributes referenced by the predicate.
    pub fn attrs(&self) -> AttrSet {
        fn walk(p: &Predicate, out: &mut Vec<Attr>) {
            match p {
                Predicate::True | Predicate::False => {}
                Predicate::Cmp(l, _, r) => {
                    if let Operand::Attr(a) = l {
                        out.push(*a);
                    }
                    if let Operand::Attr(a) = r {
                        out.push(*a);
                    }
                }
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Not(a) => walk(a, out),
            }
        }
        let mut v = Vec::new();
        walk(self, &mut v);
        AttrSet::from_iter(v)
    }

    /// Compiles the predicate against a header, resolving attribute
    /// references to column indices.
    pub fn compile(&self, header: &AttrSet) -> Result<CompiledPred> {
        let node = compile_node(self, header)?;
        Ok(CompiledPred { node })
    }

    /// Evaluates directly against a tuple+header (convenience; compiles on
    /// the fly — use [`Predicate::compile`] in loops).
    pub fn eval(&self, tuple: &Tuple, header: &AttrSet) -> Result<bool> {
        Ok(self.compile(header)?.eval(tuple))
    }

    /// Structural constant folding: evaluates ground comparisons and
    /// collapses `True`/`False` through connectives.
    pub fn fold(&self) -> Predicate {
        match self {
            Predicate::Cmp(Operand::Const(l), op, Operand::Const(r)) => {
                if op.test(l.cmp(r)) {
                    Predicate::True
                } else {
                    Predicate::False
                }
            }
            Predicate::Cmp(Operand::Attr(a), op, Operand::Attr(b)) if a == b => {
                // x op x is ground for reflexive-determined operators.
                match op {
                    CmpOp::Eq | CmpOp::Le | CmpOp::Ge => Predicate::True,
                    CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => Predicate::False,
                }
            }
            Predicate::And(a, b) => a.fold().and(b.fold()),
            Predicate::Or(a, b) => a.fold().or(b.fold()),
            Predicate::Not(a) => a.fold().not(),
            p => p.clone(),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Node {
    Const(bool),
    Cmp(Slot, CmpOp, Slot),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Slot {
    Col(usize),
    Lit(Value),
}

fn compile_node(p: &Predicate, header: &AttrSet) -> Result<Node> {
    let slot = |o: &Operand| -> Result<Slot> {
        match o {
            Operand::Attr(a) => header
                .index_of(*a)
                .map(Slot::Col)
                .ok_or(RelalgError::UnknownAttribute {
                    attr: *a,
                    header: header.clone(),
                }),
            Operand::Const(v) => Ok(Slot::Lit(v.clone())),
        }
    };
    Ok(match p {
        Predicate::True => Node::Const(true),
        Predicate::False => Node::Const(false),
        Predicate::Cmp(l, op, r) => Node::Cmp(slot(l)?, *op, slot(r)?),
        Predicate::And(a, b) => Node::And(
            Box::new(compile_node(a, header)?),
            Box::new(compile_node(b, header)?),
        ),
        Predicate::Or(a, b) => Node::Or(
            Box::new(compile_node(a, header)?),
            Box::new(compile_node(b, header)?),
        ),
        Predicate::Not(a) => Node::Not(Box::new(compile_node(a, header)?)),
    })
}

/// A predicate resolved against a fixed header; evaluation is positional.
/// Over one header, equal compiled predicates are equal predicates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompiledPred {
    node: Node,
}

impl CompiledPred {
    /// Evaluates against a tuple laid out per the compile-time header.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        eval_node(&self.node, &|i| tuple.get(i))
    }

    /// Evaluates against one row given as a value slice in compile-time
    /// header order — the columnar scan path: the evaluator resolves a
    /// relation's rows once and feeds slices, with no per-row tuple
    /// materialization.
    pub fn eval_values(&self, row: &[&Value]) -> bool {
        eval_node(&self.node, &|i| row[i])
    }
}

fn eval_node<'a>(n: &'a Node, get: &impl Fn(usize) -> &'a Value) -> bool {
    match n {
        Node::Const(b) => *b,
        Node::Cmp(l, op, r) => {
            let lv = match l {
                Slot::Col(i) => get(*i),
                Slot::Lit(v) => v,
            };
            let rv = match r {
                Slot::Col(i) => get(*i),
                Slot::Lit(v) => v,
            };
            op.test(lv.cmp(rv))
        }
        Node::And(a, b) => eval_node(a, get) && eval_node(b, get),
        Node::Or(a, b) => eval_node(a, get) || eval_node(b, get),
        Node::Not(a) => !eval_node(a, get),
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Parenthesize children of lower precedence: not > and > or.
        fn prec(p: &Predicate) -> u8 {
            match p {
                Predicate::Or(_, _) => 0,
                Predicate::And(_, _) => 1,
                _ => 2,
            }
        }
        fn write(p: &Predicate, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let needs_parens = prec(p) < min;
            if needs_parens {
                write!(f, "(")?;
            }
            match p {
                Predicate::True => write!(f, "true")?,
                Predicate::False => write!(f, "false")?,
                Predicate::Cmp(l, op, r) => write!(f, "{l} {op} {r}")?,
                Predicate::And(a, b) => {
                    write(a, f, 1)?;
                    write!(f, " and ")?;
                    write(b, f, 1)?;
                }
                Predicate::Or(a, b) => {
                    write(a, f, 0)?;
                    write!(f, " or ")?;
                    write(b, f, 0)?;
                }
                Predicate::Not(a) => {
                    write!(f, "not ")?;
                    write(a, f, 2)?;
                }
            }
            if needs_parens {
                write!(f, ")")?;
            }
            Ok(())
        }
        write(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> AttrSet {
        AttrSet::from_names(&["age", "clerk"])
    }

    fn mary23() -> Tuple {
        // Canonical order {age, clerk}.
        Tuple::new(vec![Value::int(23), Value::str("Mary")])
    }

    #[test]
    fn atomic_comparisons() {
        let h = header();
        let t = mary23();
        assert!(Predicate::attr_eq("clerk", "Mary").eval(&t, &h).unwrap());
        assert!(!Predicate::attr_eq("clerk", "John").eval(&t, &h).unwrap());
        assert!(Predicate::cmp(Operand::attr("age"), CmpOp::Lt, Operand::val(30))
            .eval(&t, &h)
            .unwrap());
        assert!(Predicate::cmp(Operand::attr("age"), CmpOp::Ge, Operand::val(23))
            .eval(&t, &h)
            .unwrap());
    }

    #[test]
    fn attr_attr_comparison() {
        let h = AttrSet::from_names(&["a", "b"]);
        let t = Tuple::new(vec![Value::int(1), Value::int(2)]);
        let p = Predicate::cmp(Operand::attr("a"), CmpOp::Lt, Operand::attr("b"));
        assert!(p.eval(&t, &h).unwrap());
    }

    #[test]
    fn connectives() {
        let h = header();
        let t = mary23();
        let p = Predicate::attr_eq("clerk", "Mary").and(Predicate::attr_eq("age", 23));
        assert!(p.eval(&t, &h).unwrap());
        let p = Predicate::attr_eq("clerk", "John").or(Predicate::attr_eq("age", 23));
        assert!(p.eval(&t, &h).unwrap());
        let p = Predicate::attr_eq("clerk", "Mary").not();
        assert!(!p.eval(&t, &h).unwrap());
    }

    #[test]
    fn unknown_attr_is_a_compile_error() {
        let p = Predicate::attr_eq("salary", 100);
        assert!(matches!(
            p.compile(&header()),
            Err(RelalgError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn trivial_connective_flattening() {
        let p = Predicate::True.and(Predicate::attr_eq("a", 1));
        assert_eq!(p, Predicate::attr_eq("a", 1));
        assert_eq!(Predicate::False.and(Predicate::attr_eq("a", 1)), Predicate::False);
        assert_eq!(Predicate::True.or(Predicate::attr_eq("a", 1)), Predicate::True);
        assert_eq!(Predicate::attr_eq("a", 1).not().not(), Predicate::attr_eq("a", 1));
    }

    #[test]
    fn fold_ground_comparisons() {
        let p = Predicate::cmp(Operand::val(1), CmpOp::Lt, Operand::val(2));
        assert_eq!(p.fold(), Predicate::True);
        let p = Predicate::cmp(Operand::attr("x"), CmpOp::Eq, Operand::attr("x"));
        assert_eq!(p.fold(), Predicate::True);
        let p = Predicate::cmp(Operand::attr("x"), CmpOp::Lt, Operand::attr("x"));
        assert_eq!(p.fold(), Predicate::False);
        let nested = Predicate::cmp(Operand::val(1), CmpOp::Eq, Operand::val(1))
            .and(Predicate::attr_eq("x", 1));
        assert_eq!(nested.fold(), Predicate::attr_eq("x", 1));
    }

    #[test]
    fn negate_pushes_into_comparison() {
        let p = Predicate::cmp(Operand::attr("age"), CmpOp::Lt, Operand::val(30)).not();
        assert_eq!(
            p,
            Predicate::cmp(Operand::attr("age"), CmpOp::Ge, Operand::val(30))
        );
    }

    #[test]
    fn predicate_attrs() {
        let p = Predicate::attr_eq("clerk", "Mary")
            .and(Predicate::cmp(Operand::attr("age"), CmpOp::Lt, Operand::attr("cap")));
        assert_eq!(p.attrs(), AttrSet::from_names(&["age", "cap", "clerk"]));
        assert_eq!(Predicate::True.attrs(), AttrSet::empty());
    }

    #[test]
    fn display_respects_precedence() {
        let p = Predicate::attr_eq("a", 1)
            .or(Predicate::attr_eq("b", 2))
            .and(Predicate::attr_eq("c", 3));
        assert_eq!(p.to_string(), "(a = 1 or b = 2) and c = 3");
        let q = Predicate::attr_eq("a", 1).and(Predicate::attr_eq("b", 2)).not();
        assert_eq!(q.to_string(), "not (a = 1 and b = 2)");
    }

    #[test]
    fn cmp_op_algebra() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                assert_eq!(op.test(ord), !op.negate().test(ord));
                assert_eq!(op.test(ord), op.flip().test(ord.reverse()));
            }
        }
    }
}
