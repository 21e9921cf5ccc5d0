//! SARIF 2.1.0 serialisation of an [`Analysis`], hand-rolled (the lint
//! crate stays dependency-free). It is tml-lint's one machine-readable
//! report.
//!
//! The output targets GitHub code scanning: uploading it from CI turns
//! every finding into an inline PR annotation at the offending line.
//! Failures map to `error` (they fail `--check`); baseline-budgeted
//! debt maps to `note` so it stays visible without blocking merges.

use crate::rules::{Finding, RULES};
use crate::Analysis;

const SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

/// Renders the analysis as a single-run SARIF 2.1.0 log.
pub fn to_sarif(analysis: &Analysis) -> String {
    let mut out = String::from("{\"$schema\":");
    push_json_string(&mut out, SCHEMA);
    out.push_str(",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str("\"name\":\"tml-lint\",\"organization\":\"treadmill\",");
    out.push_str("\"informationUri\":\"https://github.com/treadmill/treadmill\",");
    out.push_str("\"rules\":[");
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        push_json_string(&mut out, rule.id);
        out.push_str(",\"shortDescription\":{\"text\":");
        push_json_string(&mut out, &squash(rule.summary));
        out.push_str("},\"help\":{\"text\":");
        push_json_string(&mut out, &squash(rule.hint));
        out.push_str("}}");
    }
    out.push_str("]}},\"results\":[");
    let mut first = true;
    for finding in &analysis.failures {
        push_result(&mut out, finding, "error", &mut first);
    }
    for finding in &analysis.budgeted {
        push_result(&mut out, finding, "note", &mut first);
    }
    out.push_str("]}]}");
    out
}

fn push_result(out: &mut String, f: &Finding, level: &str, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"ruleId\":");
    push_json_string(out, &f.rule);
    out.push_str(",\"level\":");
    push_json_string(out, level);
    out.push_str(",\"message\":{\"text\":");
    let text = if f.hint.is_empty() {
        f.message.clone()
    } else {
        format!("{} — fix: {}", f.message, f.hint)
    };
    push_json_string(out, &text);
    out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
    push_json_string(out, &f.file);
    out.push_str(",\"uriBaseId\":\"SRCROOT\"},\"region\":{\"startLine\":");
    out.push_str(&f.line.max(1).to_string());
    out.push_str("}}}]}");
}

/// Collapses the registry's hanging-indent whitespace.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: usize) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: "msg \"quoted\"".to_string(),
            hint: "hint".to_string(),
        }
    }

    #[test]
    fn sarif_shape_and_levels() {
        let mut analysis = Analysis::default();
        analysis.failures.push(finding("DET002", "crates/core/src/x.rs", 7));
        analysis.budgeted.push(finding("PANIC001", "crates/stats/src/y.rs", 3));
        let sarif = to_sarif(&analysis);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"DET002\""));
        assert!(sarif.contains("\"level\":\"error\""));
        assert!(sarif.contains("\"level\":\"note\""));
        assert!(sarif.contains("\"startLine\":7"));
        assert!(sarif.contains("msg \\\"quoted\\\""));
        // Every registered rule is described in the driver block.
        for rule in RULES {
            assert!(sarif.contains(&format!("\"id\":\"{}\"", rule.id)), "{}", rule.id);
        }
    }

    #[test]
    fn empty_analysis_is_valid_sarif() {
        let sarif = to_sarif(&Analysis::default());
        assert!(sarif.contains("\"results\":[]"));
        assert!(sarif.ends_with("]}]}"));
    }

    #[test]
    fn json_escapes() {
        let mut json = String::new();
        push_json_string(&mut json, "a\"b\\c.rs\n");
        assert_eq!(json, r#""a\"b\\c.rs\n""#);
    }
}
