//! The diagnostics data model: source locations into config/contract
//! structures, and rendered output.
//!
//! Every rule violation is reported as a [`Diagnostic`] carrying a
//! stable [`Code`] (e.g. `E0203`). The codes, their severities and
//! their catalog live in `entitlement-core`, so the runtime watchdog
//! reports in the same vocabulary without depending on this crate.

pub use entitlement_core::{CatalogEntry, Code, Severity};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A path into the analyzed structure, e.g.
/// `contracts[0].entitlements[2].entitled_rate` or `hoses[1].segments[0]`.
///
/// Locations are plain strings built with [`Location::root`] and
/// [`Location::child`]/[`Location::index`] so rules compose them without
/// worrying about separators.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Location {
    /// The rendered path.
    pub path: String,
}

impl Location {
    /// A top-level location, e.g. `root("hoses")`.
    pub fn root(name: &str) -> Location {
        Location { path: name.to_string() }
    }

    /// Append an index: `hoses` → `hoses[3]`.
    pub fn index(&self, i: usize) -> Location {
        Location { path: format!("{}[{i}]", self.path) }
    }

    /// Append a field: `hoses[3]` → `hoses[3].total`.
    pub fn child(&self, name: &str) -> Location {
        Location { path: format!("{}.{name}", self.path) }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path)
    }
}

/// One finding: code, severity, where, and a human message.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity the rule reported (usually `code.severity()`).
    pub severity: Severity,
    /// Path into the analyzed structure.
    pub location: Location,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a finding at the code's default severity.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }

    /// Render the classic one-line form:
    /// `error[E0203] hoses[1]: segment caps 900.000Gbps do not sum to ...`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The outcome of an analyzer run over one input.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Report {
    /// All findings, in rule order then discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any finding is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Count findings at one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Distinct codes that fired.
    pub fn codes(&self) -> Vec<Code> {
        let mut out: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Render the whole report as text, one line per finding plus a
    /// summary tail line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning)
        ));
        out
    }

    /// Render as a JSON array of diagnostics.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(&self.diagnostics)
            .unwrap_or_else(|_| "[]".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locations_compose() {
        let loc = Location::root("contracts").index(2).child("entitlements").index(0);
        assert_eq!(loc.path, "contracts[2].entitlements[0]");
    }

    #[test]
    fn render_shape_is_stable() {
        let d = Diagnostic::new(
            Code::E0203,
            Location::root("hoses").index(1),
            "segment caps 900.000Gbps do not sum to hose total 800.000Gbps",
        );
        assert_eq!(
            d.render(),
            "error[E0203] hoses[1]: segment caps 900.000Gbps do not sum to hose total 800.000Gbps"
        );
    }

    #[test]
    fn report_summaries() {
        let mut r = Report::default();
        assert!(!r.has_errors());
        r.diagnostics.push(Diagnostic::new(
            Code::E0103,
            Location::root("contracts").index(0),
            "dup",
        ));
        assert!(!r.has_errors(), "E0103 is a warning");
        r.diagnostics.push(Diagnostic::new(
            Code::E0101,
            Location::root("contracts").index(0),
            "bad rate",
        ));
        assert!(r.has_errors());
        assert_eq!(r.codes(), vec![Code::E0101, Code::E0103]);
        assert!(r.render_text().ends_with("1 error(s), 1 warning(s)\n"));
        assert!(r.render_json().contains("\"E0101\""));
    }
}
