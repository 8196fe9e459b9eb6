//! Per-file analysis context: the token stream, a per-line test mask,
//! and the parsed `lint:allow` suppressions.

use crate::lexer::{lex, line_count, Comment, Token};
use crate::source::{FileClass, SourceFile};

/// Everything a rule gets to look at for one file.
pub struct FileContext<'a> {
    /// The file (path, crate, class, text).
    pub file: &'a SourceFile,
    /// The lexed token stream.
    pub tokens: Vec<Token>,
    /// The file's comments (suppressions live here).
    pub comments: Vec<Comment>,
    /// `line_is_test[line - 1]` — whether the 1-based line sits inside
    /// a `#[cfg(test)]` module or a `#[test]` function, or the whole
    /// file is test/example/build-script code.
    pub line_is_test: Vec<bool>,
}

impl<'a> FileContext<'a> {
    /// Lex and analyze one file.
    pub fn build(file: &'a SourceFile) -> Self {
        let out = lex(&file.text);
        let n = line_count(&file.text);
        let line_is_test = if matches!(
            file.class,
            FileClass::Test | FileClass::Example | FileClass::Build
        ) {
            vec![true; n]
        } else {
            test_line_mask(&out.tokens, n)
        };
        Self {
            file,
            tokens: out.tokens,
            comments: out.comments,
            line_is_test,
        }
    }

    /// Whether a 1-based line is test code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.line_is_test
            .get(line.saturating_sub(1) as usize)
            .copied()
            .unwrap_or(false)
    }
}

/// Mark the lines covered by `#[cfg(test)]` items and `#[test]`
/// functions.
///
/// Token-level, not a full parse: an attribute that mentions `test`
/// (`#[test]`, `#[cfg(test)]`) starts a region; the region extends to
/// the matching close brace of the item's body (or its `;` for a
/// brace-less item). `#[cfg(not(test))]` is explicitly *not* a test
/// region.
fn test_line_mask(tokens: &[Token], n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Collect the attribute's tokens.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut inner: Vec<&Token> = Vec::new();
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                inner.push(&tokens[j]);
                j += 1;
            }
            if is_test_attr(&inner) {
                let start_line = tokens[i].line;
                let end_line = item_end_line(tokens, j + 1).unwrap_or(start_line);
                for line in start_line..=end_line {
                    if let Some(slot) = mask.get_mut(line as usize - 1) {
                        *slot = true;
                    }
                }
                i = j + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// `#[test]` or `#[cfg(test)]` (and `#[cfg(any(test, …))]`), but not
/// `#[cfg(not(test))]`.
fn is_test_attr(inner: &[&Token]) -> bool {
    if inner.len() == 1 && inner[0].is_ident("test") {
        return true;
    }
    if inner.first().is_some_and(|t| t.is_ident("cfg")) {
        let negated = inner.iter().any(|t| t.is_ident("not"));
        let tests = inner.iter().any(|t| t.is_ident("test"));
        return tests && !negated;
    }
    false
}

/// The last line of the item starting at token `start` (skipping any
/// further attributes): the line of the matching `}` of its first brace
/// block, or of a terminating `;` that comes first.
fn item_end_line(tokens: &[Token], mut start: usize) -> Option<u32> {
    // Skip stacked attributes.
    while tokens.get(start).is_some_and(|t| t.is_punct("#"))
        && tokens.get(start + 1).is_some_and(|t| t.is_punct("["))
    {
        let mut depth = 0usize;
        let mut j = start + 1;
        while j < tokens.len() {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        start = j + 1;
    }
    // Find the body's opening brace (or a `;` ending a brace-less item).
    let mut j = start;
    while j < tokens.len() {
        if tokens[j].is_punct(";") {
            return Some(tokens[j].line);
        }
        if tokens[j].is_punct("{") {
            break;
        }
        j += 1;
    }
    // Match braces to the item's end.
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("{") {
            depth += 1;
        } else if tokens[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(tokens[j].line);
            }
        }
        j += 1;
    }
    tokens.last().map(|t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ctx_of(src: &str) -> Vec<bool> {
        let file = SourceFile::new("crates/core/src/x.rs", src);
        let out = lex(&file.text);
        test_line_mask(&out.tokens, line_count(&file.text))
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let mask = ctx_of(
            "fn live() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn inner() { x.unwrap(); }\n\
             }\n\
             fn also_live() {}\n",
        );
        assert_eq!(mask, [false, true, true, true, true, false]);
    }

    #[test]
    fn test_fn_is_masked() {
        let mask = ctx_of(
            "fn live() {}\n\
             #[test]\n\
             fn t() {\n\
                 assert!(true);\n\
             }\n",
        );
        assert_eq!(mask, [false, true, true, true, true]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let mask = ctx_of("#[cfg(not(test))]\nfn live() {\n}\n");
        assert_eq!(mask, [false, false, false]);
    }

    #[test]
    fn stacked_attributes_extend_to_body() {
        let mask = ctx_of("#[test]\n#[ignore]\nfn t() {\n    x();\n}\n");
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn whole_file_classes_are_all_test() {
        let file = SourceFile::new("tests/integration.rs", "fn x() { y.unwrap(); }\n");
        let ctx = FileContext::build(&file);
        assert!(ctx.is_test_line(1));
    }
}
