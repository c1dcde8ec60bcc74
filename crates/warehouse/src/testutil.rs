//! Shared fixtures for the crate's unit tests (compiled only for tests).

use crate::spec::WarehouseSpec;
use crate::storage::{MediumError, StorageMedium};
use dwc_relalg::{rel, Catalog, DbState};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The Figure 1 catalog: Sale(item, clerk), Emp(clerk*, age).
pub(crate) fn fig1_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_schema("Sale", &["item", "clerk"]).unwrap();
    c.add_schema_with_key("Emp", &["clerk", "age"], &["clerk"]).unwrap();
    c
}

/// The Figure 1 instance.
pub(crate) fn fig1_state() -> DbState {
    let mut d = DbState::new();
    d.insert_relation(
        "Sale",
        rel! { ["item", "clerk"] => ("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John") },
    );
    d.insert_relation(
        "Emp",
        rel! { ["clerk", "age"] => ("Mary", 23), ("John", 25), ("Paula", 32) },
    );
    d
}

/// The Figure 1 warehouse: Sold = Sale ⋈ Emp.
pub(crate) fn fig1_spec() -> WarehouseSpec {
    WarehouseSpec::parse(fig1_catalog(), &[("Sold", "Sale join Emp")]).unwrap()
}

/// In-memory medium for unit tests (the crash/fault models live in
/// `dwc-testkit` and the root test suite).
#[derive(Debug, Default)]
pub(crate) struct MemMedium {
    pub(crate) files: RefCell<BTreeMap<String, Vec<u8>>>,
    /// Paths with this prefix fail fatally on write/append/sync.
    pub(crate) dead_prefix: RefCell<Option<String>>,
}

impl MemMedium {
    pub(crate) fn kill_prefix(&self, prefix: &str) {
        *self.dead_prefix.borrow_mut() = Some(prefix.to_owned());
    }
    fn dead(&self, path: &str) -> bool {
        self.dead_prefix
            .borrow()
            .as_ref()
            .is_some_and(|p| path.starts_with(p.as_str()))
    }
    pub(crate) fn clone_files(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.borrow().clone()
    }
}

impl StorageMedium for MemMedium {
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError> {
        self.files
            .borrow()
            .get(path)
            .cloned()
            .ok_or_else(|| MediumError::fatal("read", path, "not found"))
    }
    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        if self.dead(path) {
            return Err(MediumError::fatal("write", path, "medium dead"));
        }
        self.files.borrow_mut().insert(path.to_owned(), bytes.to_vec());
        Ok(())
    }
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        if self.dead(path) {
            return Err(MediumError::fatal("append", path, "medium dead"));
        }
        self.files
            .borrow_mut()
            .entry(path.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&self, path: &str) -> Result<(), MediumError> {
        if self.dead(path) {
            return Err(MediumError::fatal("sync", path, "medium dead"));
        }
        Ok(())
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError> {
        if self.dead(to) {
            return Err(MediumError::fatal("rename", to, "medium dead"));
        }
        let mut files = self.files.borrow_mut();
        let data = files
            .remove(from)
            .ok_or_else(|| MediumError::fatal("rename", from, "not found"))?;
        files.insert(to.to_owned(), data);
        Ok(())
    }
    fn remove(&self, path: &str) -> Result<(), MediumError> {
        self.files
            .borrow_mut()
            .remove(path)
            .map(drop)
            .ok_or_else(|| MediumError::fatal("remove", path, "not found"))
    }
    fn list(&self) -> Result<Vec<String>, MediumError> {
        Ok(self.files.borrow().keys().cloned().collect())
    }
    fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }
}
