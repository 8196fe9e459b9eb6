//! Inline suppressions: `// lint:allow(<rule>): <reason>`.
//!
//! A suppression covers findings on its own line (trailing form) and on
//! the line immediately below (standalone form). The reason is
//! **mandatory** — a suppression is a reviewed decision, and the review
//! belongs next to the code; a reason-less or unknown-rule suppression
//! is itself a finding (`invalid-suppression`), and a suppression that
//! matches nothing is flagged `unused-suppression` so stale opt-outs
//! cannot accumulate.

use crate::lexer::Comment;

/// One parsed `lint:allow` directive.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule ids being allowed.
    pub rules: Vec<String>,
    /// The mandatory justification (None = invalid suppression).
    pub reason: Option<String>,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Whether any finding was actually suppressed by this directive.
    pub used: bool,
}

impl Suppression {
    /// Whether this suppression covers `rule` at `line`.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        (line == self.line || line == self.line + 1) && self.rules.iter().any(|r| r == rule)
    }
}

/// The directive marker inside a comment.
const MARKER: &str = "lint:allow(";

/// Extract every `lint:allow` directive from a file's comments.
pub fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments describe the directive syntax; only plain
        // comments carry live directives.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| c.text.starts_with(p))
        {
            continue;
        }
        let Some(start) = c.text.find(MARKER) else {
            continue;
        };
        let after = &c.text[start + MARKER.len()..];
        let Some(close) = after.find(')') else {
            out.push(Suppression {
                rules: Vec::new(),
                reason: None,
                line: c.line,
                col: c.col,
                used: false,
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let rest = after[close + 1..].trim_start();
        let reason = rest
            .strip_prefix(':')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .map(str::to_string);
        out.push(Suppression {
            rules,
            reason,
            line: c.line,
            col: c.col,
            used: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Suppression> {
        parse_suppressions(&lex(src).comments)
    }

    #[test]
    fn well_formed_suppression() {
        let s = parse("// lint:allow(panic-reachable): crossbeam scope re-raises\nx.unwrap();");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rules, ["panic-reachable"]);
        assert_eq!(s[0].reason.as_deref(), Some("crossbeam scope re-raises"));
        assert!(s[0].covers("panic-reachable", 2));
        assert!(s[0].covers("panic-reachable", 1)); // trailing form
        assert!(!s[0].covers("panic-reachable", 3));
        assert!(!s[0].covers("float-eq", 2));
    }

    #[test]
    fn multiple_rules_one_directive() {
        let s = parse("// lint:allow(float-eq, untyped-error): test harness\n");
        assert_eq!(s[0].rules, ["float-eq", "untyped-error"]);
    }

    #[test]
    fn missing_reason_is_none() {
        let s = parse("// lint:allow(float-eq)\n");
        assert!(s[0].reason.is_none());
        let s = parse("// lint:allow(float-eq):   \n");
        assert!(s[0].reason.is_none());
    }

    #[test]
    fn unterminated_directive_is_invalid() {
        let s = parse("// lint:allow(float-eq\n");
        assert!(s[0].rules.is_empty());
        assert!(s[0].reason.is_none());
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        assert!(parse("// just a comment about allowing things\n").is_empty());
    }
}
