//! Structured diagnostics: codes, severities, locations, and rendering
//! (human-readable and JSON lines).
//!
//! Every check in this crate reports through a [`Report`]; nothing in the
//! analyzer prints or panics. Codes are stable identifiers (`DWC-xxxx`)
//! so scripts and tests can match on them; messages are for humans and
//! may change freely.

use std::fmt;

/// Stable diagnostic codes.
///
/// The letter groups the analysis family: `A` type/shape errors, `C`
/// Theorem 2.2 precondition certification, `L` plan hygiene lints, `I`
/// informational certificates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants are documented by `Code::describe`
pub enum Code {
    A001UnknownRelation,
    A002UnknownAttribute,
    A003HeaderMismatch,
    A004BadRename,
    A005ParseError,
    A006NotPsj,
    A007NameCollision,
    C101CyclicInds,
    C102IllFormedInd,
    C201KeylessReassembly,
    C203TrustedNotCertified,
    L301LossyReassembly,
    L302UnsatisfiableSelection,
    L303DuplicateView,
    L304DeadSubplan,
    W401CoverSearchTruncated,
    S501BannedCall,
    S502ThreadSpawn,
    S503MissingForbidUnsafe,
    S504FsWriteOutsideStorage,
    S505AckOutsideCommitLoop,
    S506RawColumnAccess,
    S509SocketWriteOutsideEncoder,
    P001CostEstimate,
    P101StrategyChosen,
    I901CertifiedEmptyComplement,
    I902FullCopyComplement,
    I903UncoveredRelation,
}

impl Code {
    /// The stable `DWC-…` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::A001UnknownRelation => "DWC-A001",
            Code::A002UnknownAttribute => "DWC-A002",
            Code::A003HeaderMismatch => "DWC-A003",
            Code::A004BadRename => "DWC-A004",
            Code::A005ParseError => "DWC-A005",
            Code::A006NotPsj => "DWC-A006",
            Code::A007NameCollision => "DWC-A007",
            Code::C101CyclicInds => "DWC-C101",
            Code::C102IllFormedInd => "DWC-C102",
            Code::C201KeylessReassembly => "DWC-C201",
            Code::C203TrustedNotCertified => "DWC-C203",
            Code::L301LossyReassembly => "DWC-L301",
            Code::L302UnsatisfiableSelection => "DWC-L302",
            Code::L303DuplicateView => "DWC-L303",
            Code::L304DeadSubplan => "DWC-L304",
            Code::W401CoverSearchTruncated => "DWC-W401",
            Code::S501BannedCall => "DWC-S501",
            Code::S502ThreadSpawn => "DWC-S502",
            Code::S503MissingForbidUnsafe => "DWC-S503",
            Code::S504FsWriteOutsideStorage => "DWC-S504",
            Code::S505AckOutsideCommitLoop => "DWC-S505",
            Code::S506RawColumnAccess => "DWC-S506",
            Code::S509SocketWriteOutsideEncoder => "DWC-S509",
            Code::P001CostEstimate => "DWC-P001",
            Code::P101StrategyChosen => "DWC-P101",
            Code::I901CertifiedEmptyComplement => "DWC-I901",
            Code::I902FullCopyComplement => "DWC-I902",
            Code::I903UncoveredRelation => "DWC-I903",
        }
    }

    /// One-line description of what the code means (the codes table of
    /// DESIGN.md §8 is generated from the same wording).
    pub fn describe(self) -> &'static str {
        match self {
            Code::A001UnknownRelation => "expression references an undeclared relation",
            Code::A002UnknownAttribute => {
                "projection/selection/rename references an attribute outside its input header"
            }
            Code::A003HeaderMismatch => "set operation over operands with different headers",
            Code::A004BadRename => "rename is not a valid attribute bijection",
            Code::A005ParseError => "specification text failed to parse",
            Code::A006NotPsj => "view definition is not expressible as a PSJ view",
            Code::A007NameCollision => "two warehouse objects share a name",
            Code::C101CyclicInds => "inclusion dependencies form a cycle",
            Code::C102IllFormedInd => "inclusion dependency is ill-formed",
            Code::C201KeylessReassembly => {
                "attributes are split across views but the relation declares no key"
            }
            Code::C203TrustedNotCertified => {
                "reconstruction relies on extension joins that are not statically lossless"
            }
            Code::L301LossyReassembly => {
                "every attribute is stored but lossy projections prevent any extension-join cover"
            }
            Code::L302UnsatisfiableSelection => "selection predicate is statically unsatisfiable",
            Code::L303DuplicateView => "two views have identical definitions",
            Code::L304DeadSubplan => "view definition simplifies to the empty relation",
            Code::W401CoverSearchTruncated => "cover search hit its source limit",
            Code::S501BannedCall => "panicking call in non-test library code",
            Code::S502ThreadSpawn => "thread started outside the server runtime",
            Code::S503MissingForbidUnsafe => "crate root lacks #![forbid(unsafe_code)]",
            Code::S504FsWriteOutsideStorage => {
                "filesystem write outside the warehouse::storage durability module"
            }
            Code::S505AckOutsideCommitLoop => {
                "durable-ack construction or fsync outside the server commit loop"
            }
            Code::S506RawColumnAccess => {
                "raw columnar-storage access outside the relalg crate"
            }
            Code::S509SocketWriteOutsideEncoder => {
                "socket write outside the server's line encoder"
            }
            Code::P001CostEstimate => "per-view maintenance cost estimate",
            Code::P101StrategyChosen => "maintenance strategy chosen with predicted costs",
            Code::I901CertifiedEmptyComplement => "complement is certified empty (Theorem 2.2)",
            Code::I902FullCopyComplement => "complement stores a full copy of the relation",
            Code::I903UncoveredRelation => "relation appears in no view",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a diagnostic is. Only [`Severity::Error`] makes a bundle
/// unacceptable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Certificate or context, never rejects.
    Info,
    /// Suspicious but sound; the complement machinery compensates.
    Warning,
    /// The bundle must be rejected.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: code, severity, a span-ish location (file/line when the
/// input came from a spec file, object path otherwise) and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity under the gate the analysis ran with.
    pub severity: Severity,
    /// Where: `"catalog"`, `"view Sold"`, `"specs/fig1.dwc:7"`, …
    pub at: String,
    /// Human-readable explanation.
    pub message: String,
    /// Optional machine-readable payload: a pre-rendered JSON value
    /// (object, array or number) appended verbatim as a `"data"` field.
    /// Producers are responsible for its validity; [`Report::push`]
    /// leaves it `None`, so the classic four-field shape is unchanged.
    pub data: Option<String>,
}

impl Diagnostic {
    /// Renders the diagnostic as one JSON object (hand-rolled; the
    /// workspace is dependency-free by design). The `data` field, when
    /// present, is appended after `message` so existing shape-matching
    /// consumers (prefix greps, golden tests) keep working.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            r#"{{"code":"{}","severity":"{}","at":"{}","message":"{}"#,
            self.code,
            self.severity,
            json_escape(&self.at),
            json_escape(&self.message)
        );
        out.push('"');
        if let Some(data) = &self.data {
            out.push_str(r#","data":"#);
            out.push_str(data);
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.at, self.message
        )
    }
}

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters. Everything else passes through as UTF-8.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The outcome of one analysis run: an ordered list of diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, code: Code, severity: Severity, at: impl Into<String>, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            at: at.into(),
            message: message.into(),
            data: None,
        });
    }

    /// Appends a finding carrying a machine-readable `data` payload —
    /// `data` must already be a valid JSON value (see
    /// [`Diagnostic::data`]).
    pub fn push_with_data(
        &mut self,
        code: Code,
        severity: Severity,
        at: impl Into<String>,
        message: impl Into<String>,
        data: impl Into<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            at: at.into(),
            message: message.into(),
            data: Some(data.into()),
        });
    }

    /// All findings, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True iff at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True iff a finding with the given code exists.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True iff no finding was emitted.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Merges another report's findings into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// One JSON object per line, emission order preserved.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_escape_and_shape() {
        let mut r = Report::new();
        r.push(
            Code::C101CyclicInds,
            Severity::Error,
            "catalog",
            "cycle: A -> B -> A with \"quotes\"\nand a newline",
        );
        let json = r.to_json_lines();
        assert!(json.starts_with(r#"{"code":"DWC-C101","severity":"error","at":"catalog""#));
        assert!(json.contains(r#"\"quotes\""#));
        assert!(json.contains(r"\n"));
        assert_eq!(json.lines().count(), 1);
    }

    #[test]
    fn data_field_appends_after_message() {
        let mut r = Report::new();
        r.push_with_data(
            Code::P101StrategyChosen,
            Severity::Info,
            "ingest",
            "chose incremental",
            r#"{"predicted_ns":1234,"predicted_rows":5}"#,
        );
        let json = r.to_json_lines();
        let line = json.lines().next().expect("one line");
        assert!(line.starts_with(r#"{"code":"DWC-P101","severity":"info","at":"ingest""#));
        assert!(line.contains(r#""message":"chose incremental""#));
        assert!(line.ends_with(r#""data":{"predicted_ns":1234,"predicted_rows":5}}"#));
        // Plain pushes keep the exact four-field shape.
        let mut r = Report::new();
        r.push(Code::C101CyclicInds, Severity::Error, "catalog", "m");
        assert!(r
            .to_json_lines()
            .trim_end()
            .ends_with(r#""message":"m"}"#));
    }

    #[test]
    fn error_detection() {
        let mut r = Report::new();
        assert!(!r.has_errors());
        r.push(Code::I901CertifiedEmptyComplement, Severity::Info, "x", "m");
        assert!(!r.has_errors());
        r.push(Code::A001UnknownRelation, Severity::Error, "x", "m");
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert!(r.has_code(Code::A001UnknownRelation));
        assert!(!r.has_code(Code::C101CyclicInds));
    }

    #[test]
    fn display_is_line_per_finding() {
        let mut r = Report::new();
        r.push(Code::L303DuplicateView, Severity::Warning, "view V2", "same as V1");
        let s = r.to_string();
        assert!(s.contains("warning [DWC-L303] view V2: same as V1"));
    }
}
