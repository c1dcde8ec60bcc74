//! In-process construction of the store directory `dwc serve` is pointed
//! at, and the envelopes the in-process (set-up, oracle, traced) passes
//! feed the library with — parsed from the very lines sent on the wire.

use crate::gen::{Inputs, ReportStream};
use dwcomplements::analyze::specfile;
use dwcomplements::relalg::Catalog;
use dwcomplements::shell::parse_update;
use dwcomplements::warehouse::integrator::{Integrator, IntegratorConfig};
use dwcomplements::warehouse::{
    AdaptivePolicy, DurabilityConfig, DurableWarehouse, Envelope, FsMedium, IngestConfig,
    IngestingIntegrator, SourceId, WarehouseSpec,
};
use std::path::Path;

/// The spec every workload serves, relative to the checkout root.
pub const SPEC_PATH: &str = "examples/specs/starschema.dwc";
/// The one source session all reports are sequenced under.
pub const SOURCE: &str = "bench";
/// The server's group-commit size cap at CLI defaults.
pub const BATCH: usize = 64;

/// Reads the spec file exactly as `dwc serve --spec` does.
pub fn load_spec() -> Result<WarehouseSpec, String> {
    let text = std::fs::read_to_string(SPEC_PATH)
        .map_err(|e| format!("{SPEC_PATH}: cannot read (run from the repository root): {e}"))?;
    let (spec, report) = specfile::parse_spec(&text, SPEC_PATH);
    if report.has_errors() {
        return Err(report.to_string());
    }
    WarehouseSpec::new(spec.catalog, spec.views).map_err(|e| e.to_string())
}

/// Stream reports `from..to` as sequenced envelopes of [`SOURCE`].
pub fn envelopes(catalog: &Catalog, stream: &ReportStream, from: u64, to: u64) -> Vec<Envelope> {
    (from..to)
        .map(|seq| {
            let r = stream.get(seq);
            let report = parse_update(catalog, &r.body, r.insert).expect("generated report parses");
            Envelope {
                source: SourceId::new(SOURCE),
                epoch: 0,
                seq,
                report,
            }
        })
        .collect()
}

/// Creates the store in `dir` (which must not hold one): initial snapshot
/// of `W(base)`, adaptive policy persisted as `dwc serve` would arm it,
/// then a WAL tail of exactly `tail` reports in group commits of
/// [`BATCH`].
pub fn build_store(
    spec: &WarehouseSpec,
    inputs: &Inputs,
    dir: &Path,
    tail: u64,
) -> Result<DurableWarehouse<FsMedium>, String> {
    let aug = spec.clone().augment().map_err(|e| e.to_string())?;
    let state = aug.materialize(&inputs.base).map_err(|e| e.to_string())?;
    let integ = Integrator::from_state(aug, state, IntegratorConfig::default())
        .map_err(|e| e.to_string())?;
    let ingest =
        IngestingIntegrator::new(integ, IngestConfig::default()).map_err(|e| e.to_string())?;
    let medium = FsMedium::new(dir).map_err(|e| e.to_string())?;
    let mut dw = DurableWarehouse::create(medium, ingest, DurabilityConfig::default())
        .map_err(|e| e.to_string())?;
    dw.set_maintenance_policy(AdaptivePolicy::adaptive())
        .map_err(|e| e.to_string())?;
    for chunk in envelopes(spec.catalog(), &inputs.stream, 0, tail).chunks(BATCH) {
        dw.offer_batch(chunk).map_err(|e| e.to_string())?;
    }
    Ok(dw)
}

/// Median cost of a bare `FsMedium` append+sync in `dir`, in microseconds:
/// what the medium charges per fsync, with none of the program around it.
pub fn fsync_us(dir: &Path) -> Result<f64, String> {
    use dwcomplements::warehouse::StorageMedium;
    let medium = FsMedium::new(dir).map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for _ in 0..25 {
        medium
            .append("probe", &[0u8; 128])
            .map_err(|e| e.to_string())?;
        let began = std::time::Instant::now();
        medium.sync("probe").map_err(|e| e.to_string())?;
        samples.push(began.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&samples).expect("25 samples"))
}
