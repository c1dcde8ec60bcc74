#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # dwc-relalg — relational algebra substrate
//!
//! This crate provides the relational substrate used by the
//! `dwcomplements` workspace, a reproduction of *Complements for Data
//! Warehouses* (Laurent, Lechtenbörger, Spyratos, Vossen; ICDE 1999):
//!
//! * an interned [`Attr`]/[`RelName`] symbol layer,
//! * set-semantics [`Relation`]s over ordered [`Value`]s,
//! * relation schemata and a [`Catalog`] with key constraints and
//!   (acyclic) inclusion dependencies,
//! * a relational algebra AST ([`RaExpr`]) with selection predicates,
//!   schema inference, an evaluator, an algebraic simplifier, a text
//!   parser and a pretty printer,
//! * a formal update model ([`Delta`], [`Update`]) used by the
//!   warehouse-maintenance layers.
//!
//! The paper works in the pure (untyped, set-semantics) relational model;
//! this crate follows that model faithfully. Relations are sets of tuples
//! over a sorted attribute header, and all operators are set operators.
//!
//! ## Quick example
//!
//! ```
//! use dwc_relalg::{Catalog, DbState, RaExpr, Relation, rel};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_schema_with_key("Sale", &["item", "clerk"], &["item", "clerk"]).unwrap();
//! catalog.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"]).unwrap();
//!
//! let mut db = DbState::new();
//! db.insert_relation("Sale", rel!{ ["item", "clerk"] =>
//!     ("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John") });
//! db.insert_relation("Emp", rel!{ ["clerk", "age"] =>
//!     ("Mary", 23), ("John", 25), ("Paula", 32) });
//!
//! let sold = RaExpr::parse("Sale join Emp").unwrap();
//! let result = sold.eval(&db).unwrap();
//! assert_eq!(result.len(), 3);
//! ```

pub mod attrs;
pub(crate) mod columns;
pub mod constraints;
pub mod database;
pub mod display;
pub mod epoch;
pub mod error;
pub mod eval;
pub mod expr;
pub mod gen;
pub mod io;
pub mod parse;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod simplify;
pub mod symbol;
pub mod tuple;
pub mod update;
pub mod value;

pub use attrs::AttrSet;
pub use constraints::{InclusionDep, Key};
pub use database::DbState;
pub use epoch::{EpochCell, EpochReader, StateEpoch};
pub use error::{RelalgError, Result};
pub use expr::RaExpr;
pub use predicate::{CmpOp, Operand, Predicate};
pub use relation::Relation;
pub use schema::{Catalog, RelSchema};
pub use symbol::{Attr, RelName, Symbol};
pub use tuple::Tuple;
pub use update::{Delta, Update};
pub use value::Value;
