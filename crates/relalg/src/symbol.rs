//! Interned symbols for attribute and relation names.
//!
//! Attribute names occur on every hot path of the algebra (projection
//! mappings, join-column computation, attribute-set algebra), so they are
//! interned once into a global table and handled as `u32` ids thereafter.
//! Interned strings live for the duration of the process; the number of
//! distinct attribute/relation names in a warehouse specification is small
//! and bounded, so the leak is intentional and harmless.
//!
//! Ordering of symbols is *lexicographic on the resolved string*, not on
//! the numeric id. This keeps schema headers, printed relations and
//! attribute sets deterministic across runs regardless of interning order.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy and compare; ordering is
/// lexicographic on the underlying string so that derived structures are
/// deterministic across processes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// The interner proper: name → id, behind the one lock interning takes.
fn interner() -> &'static Mutex<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<Mutex<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Ids of the first chunk of the resolve table: chunk `c` holds
/// `FIRST_CHUNK << c` slots, so 27 chunks cover every `u32` id.
const FIRST_CHUNK: u64 = 64;
const CHUNKS: usize = 27;

/// The resolve table, id → string: append-only chunks of write-once
/// slots. A slot is filled under the interner lock *before* its id is
/// handed out, and a filled slot never changes, so resolving reads two
/// `OnceLock`s (two acquire loads) and takes no lock. Chunks are
/// allocated on first use and never freed, like the strings.
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS] =
    [const { OnceLock::new() }; CHUNKS];

/// The chunk and the slot within it that hold `id`.
fn slot_of(id: u32) -> (usize, usize) {
    let v = u64::from(id) + FIRST_CHUNK;
    let chunk = (63 - v.leading_zeros() - FIRST_CHUNK.trailing_zeros()) as usize;
    (chunk, (v - (FIRST_CHUNK << chunk)) as usize)
}

impl Symbol {
    /// Interns `name` and returns its symbol. Repeated calls with the same
    /// string return the same symbol.
    pub fn intern(name: &str) -> Symbol {
        // The interner never panics while holding the lock, but recover
        // from poisoning anyway: the table is append-only, so a poisoned
        // guard still holds a consistent map.
        let mut map = interner().lock().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = map.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(map.len()).expect("symbol table overflow"); // lint:allow expect -- overflowing u32 needs 4 billion distinct names
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let (chunk, slot) = slot_of(id);
        NAMES[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect())[slot]
            .get_or_init(|| leaked);
        map.insert(leaked, id);
        Symbol(id)
    }

    /// Resolves the symbol back to its string, without a lock.
    pub fn as_str(self) -> &'static str {
        let (chunk, slot) = slot_of(self.0);
        NAMES[chunk]
            .get()
            .and_then(|names| names[slot].get())
            .expect("a symbol's slot is filled before its id exists") // lint:allow expect -- intern fills the slot before it returns the id
    }

    /// The raw id; only useful for dense side tables.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

macro_rules! symbol_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub Symbol);

        impl $name {
            /// Interns `name` as a new or existing symbol.
            pub fn new(name: &str) -> Self {
                Self(Symbol::intern(name))
            }

            /// Resolves to the underlying string.
            pub fn as_str(self) -> &'static str {
                self.0.as_str()
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<&String> for $name {
            fn from(s: &String) -> Self {
                Self::new(s)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

symbol_newtype! {
    /// An attribute name (a column of a relation schema).
    Attr
}

symbol_newtype! {
    /// A relation name — either a base relation of `D` or a view name.
    RelName
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("clerk");
        let b = Symbol::intern("clerk");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "clerk");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("item");
        let b = Symbol::intern("age");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse-lexicographic order to make sure ordering does
        // not follow interning order.
        let z = Symbol::intern("zzz-order-test");
        let a = Symbol::intern("aaa-order-test");
        assert!(a < z);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn attr_and_relname_are_distinct_types_over_same_table() {
        let a = Attr::new("shared");
        let r = RelName::new("shared");
        assert_eq!(a.as_str(), r.as_str());
    }

    #[test]
    fn slots_tile_the_id_space() {
        assert_eq!(slot_of(0), (0, 0));
        assert_eq!(slot_of(63), (0, 63));
        assert_eq!(slot_of(64), (1, 0));
        assert_eq!(slot_of(191), (1, 127));
        assert_eq!(slot_of(192), (2, 0));
        assert_eq!(slot_of(u32::MAX).0, CHUNKS - 1);
    }

    /// Threads intern overlapping names while resolving what they and
    /// the others interned: every id resolves to its name, every time,
    /// and a name gets one id whichever thread interned it first.
    #[test]
    fn concurrent_intern_and_resolve_are_stable() {
        let names: Vec<String> = (0..300).map(|i| format!("concurrent-{i}")).collect();
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<(String, Symbol)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut mine = Vec::new();
                        for round in 0..3 {
                            for (i, name) in names.iter().enumerate() {
                                if (i + t + round) % 3 == 0 {
                                    let sym = Symbol::intern(name);
                                    assert_eq!(sym.as_str(), name);
                                    mine.push((name.clone(), sym));
                                }
                            }
                            for (name, sym) in &mine {
                                assert_eq!(sym.as_str(), name);
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (name, sym) in seen.iter().flatten() {
            assert_eq!(Symbol::intern(name), *sym);
            assert_eq!(sym.as_str(), name);
        }
    }

    #[test]
    fn display_matches_str() {
        let a = Attr::new("price");
        assert_eq!(format!("{a}"), "price");
        assert_eq!(format!("{a:?}"), "price");
    }
}
