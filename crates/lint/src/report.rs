//! Findings, the `LINT_report.json` document, and its minimal JSON
//! writer (the suite builds offline — no serde).

use std::fmt;

/// One rule violation (possibly suppressed by an allow annotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `wall-clock`.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` when an `rtr-lint: allow` annotation covers the
    /// finding; such findings are reported but never fail `--deny`.
    pub allowed: Option<String>,
    /// For transitive findings, the offending call chain from the hot
    /// entry point down to the seeding token
    /// (`["a_into", "helper", "Vec::new"]`); empty for lexical findings.
    pub chain: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.allowed {
            Some(reason) => write!(
                f,
                "{}:{}: [{}] {} (allowed: {})",
                self.file, self.line, self.rule, self.message, reason
            ),
            None => write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            ),
        }
    }
}

/// The whole lint run, serialized to `LINT_report.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Report format version.
    pub version: u64,
    /// Number of files scanned.
    pub files_scanned: u64,
    /// Wall time of the lint pass in milliseconds. Volatile between
    /// runs: the `--baseline` comparison strips it (see `main.rs`), so
    /// it never invalidates the committed baseline.
    pub elapsed_ms: u64,
    /// Every finding, violations and allowed ones alike.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by an allow annotation — what `--deny` gates
    /// on.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Findings suppressed by an allow annotation.
    pub fn allowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_some())
    }

    /// Per-rule `(rule, violations, allowed)` counts over every known
    /// rule (plus the `allow-syntax` meta rule), zero-count rules
    /// included — the summary block doubles as coverage evidence: a rule
    /// silently vanishing from the engine would change the baseline.
    pub fn rule_summary(&self) -> Vec<(&'static str, usize, usize)> {
        crate::rules::RULES
            .iter()
            .copied()
            .chain(std::iter::once("allow-syntax"))
            .map(|rule| {
                let viol = self.violations().filter(|f| f.rule == rule).count();
                let allow = self.allowed().filter(|f| f.rule == rule).count();
                (rule, viol, allow)
            })
            .collect()
    }

    /// Serializes the report to its canonical JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"elapsed_ms\": {},\n", self.elapsed_ms));
        out.push_str(&format!(
            "  \"violations\": {},\n",
            self.violations().count()
        ));
        out.push_str(&format!("  \"allowed\": {},\n", self.allowed().count()));
        out.push_str("  \"rules\": [\n");
        let summary = self.rule_summary();
        for (i, (rule, viol, allow)) in summary.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"violations\": {viol}, \"allowed\": {allow}}}{}\n",
                json_string(rule),
                if i + 1 < summary.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_string(&f.rule)));
            out.push_str(&format!("\"file\": {}, ", json_string(&f.file)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"message\": {}, ", json_string(&f.message)));
            if !f.chain.is_empty() {
                let links: Vec<String> = f.chain.iter().map(|c| json_string(c)).collect();
                out.push_str(&format!("\"chain\": [{}], ", links.join(", ")));
            }
            match &f.allowed {
                Some(r) => out.push_str(&format!("\"allowed\": {}", json_string(r))),
                None => out.push_str("\"allowed\": null"),
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes and quotes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            version: 2,
            files_scanned: 42,
            elapsed_ms: 17,
            findings: vec![
                Finding {
                    rule: "wall-clock".to_owned(),
                    file: "crates/planning/src/rrtstar.rs".to_owned(),
                    line: 105,
                    message: "Instant::now in a kernel crate".to_owned(),
                    allowed: None,
                    chain: vec![
                        "plan_into".to_owned(),
                        "stamp".to_owned(),
                        "Instant::now".to_owned(),
                    ],
                },
                Finding {
                    rule: "nondet-iter".to_owned(),
                    file: "crates/planning/src/search.rs".to_owned(),
                    line: 152,
                    message: "HashMap \"quoted\" and \\ escaped".to_owned(),
                    allowed: Some("keyed lookups only".to_owned()),
                    chain: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn violation_and_allowed_counts() {
        let r = sample();
        assert_eq!(r.violations().count(), 1);
        assert_eq!(r.allowed().count(), 1);
        let json = r.to_json();
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"allowed\": 1"));
        assert!(json.contains("\"elapsed_ms\": 17"));
    }

    #[test]
    fn summary_covers_every_rule_including_zero_counts() {
        let r = sample();
        let summary = r.rule_summary();
        assert_eq!(summary.len(), crate::rules::RULES.len() + 1);
        let wall = summary
            .iter()
            .find(|(rule, _, _)| *rule == "wall-clock")
            .unwrap();
        assert_eq!((wall.1, wall.2), (1, 0));
        let hot = summary
            .iter()
            .find(|(rule, _, _)| *rule == "hot-alloc")
            .unwrap();
        assert_eq!((hot.1, hot.2), (0, 0));
        let json = r.to_json();
        assert!(json.contains("{\"rule\": \"trace-gated\", \"violations\": 0, \"allowed\": 0}"));
    }

    #[test]
    fn chain_is_rendered_and_omitted_when_empty() {
        let json = sample().to_json();
        assert!(json.contains("\"chain\": [\"plan_into\", \"stamp\", \"Instant::now\"]"));
        // The chain-free finding's object carries no chain key.
        let nondet_obj = json.lines().find(|l| l.contains("nondet-iter")).unwrap();
        assert!(!nondet_obj.contains("chain"));
    }

    #[test]
    fn message_escapes_render_as_json_literals() {
        let mut report = sample();
        report.findings[0].message = "say \"hi\" C:\\tmp\nnext\u{1}".to_owned();
        let json = report.to_json();
        assert!(
            json.contains(r#""message": "say \"hi\" C:\\tmp\nnext\u0001""#),
            "{json}"
        );
    }
}
