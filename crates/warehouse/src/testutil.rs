//! Shared fixtures for the crate's unit tests (compiled only for tests).

use crate::spec::WarehouseSpec;
use crate::storage::{MediumError, StorageMedium};
use dwc_relalg::{rel, Catalog, DbState};
use dwc_testkit::{DiskError, SimDisk};

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

/// The crate's unit tests run the storage code over the testkit's
/// simulated disk. Clones share the disk. Injected transient faults map
/// to retryable [`MediumError`]s; everything else maps to fatal ones.
#[derive(Clone, Debug, Default)]
pub(crate) struct DiskMedium(pub(crate) SimDisk);

fn disk_err(op: &'static str, path: &str, e: DiskError) -> MediumError {
    if e.is_transient() {
        MediumError::transient(op, path, e.to_string())
    } else {
        MediumError::fatal(op, path, e.to_string())
    }
}

impl StorageMedium for DiskMedium {
    fn read(&self, path: &str) -> Result<Vec<u8>, MediumError> {
        self.0.read(path).map_err(|e| disk_err("read", path, e))
    }
    fn write_all(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.write_all(path, bytes).map_err(|e| disk_err("write", path, e))
    }
    fn append(&self, path: &str, bytes: &[u8]) -> Result<(), MediumError> {
        self.0.append(path, bytes).map_err(|e| disk_err("append", path, e))
    }
    fn sync(&self, path: &str) -> Result<(), MediumError> {
        let synced = self.0.sync(path); // lint:allow sync_call -- the test medium's fsync
        synced.map_err(|e| disk_err("sync", path, e))
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), MediumError> {
        self.0.rename(from, to).map_err(|e| disk_err("rename", from, e))
    }
    fn remove(&self, path: &str) -> Result<(), MediumError> {
        self.0.remove(path).map_err(|e| disk_err("remove", path, e))
    }
    fn list(&self) -> Result<Vec<String>, MediumError> {
        Ok(self.0.list())
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
}
