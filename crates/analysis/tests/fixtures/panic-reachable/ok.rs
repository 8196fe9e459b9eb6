// Fixture: panic-free equivalents and legitimately exempt positions.
// Linted as `crates/core/src/fixture.rs`; must produce zero findings.

pub fn propagated(x: Option<u64>) -> Result<u64, StageError> {
    x.ok_or(StageError::MissingInput)
}

pub fn defaulted(x: Option<u64>) -> u64 {
    x.unwrap_or(0)
}

pub fn checked_index(parts: &[u64]) -> Option<u64> {
    parts.get(0).copied()
}

pub fn variable_index(parts: &[u64], i: usize) -> u64 {
    // Indexing by a computed expression is the caller's proof burden,
    // not a literal-index pattern; the rule leaves it alone.
    parts[i % parts.len()]
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let x: Option<u64> = Some(3);
        assert_eq!(x.unwrap(), 3);
    }
}
