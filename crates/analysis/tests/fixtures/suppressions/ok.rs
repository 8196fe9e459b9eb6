// Fixture: well-formed suppressions that each cover a real finding.
// Linted as `crates/core/src/fixture.rs`; must produce zero findings.

pub fn standalone_form(x: Option<u64>) -> u64 {
    // lint:allow(panic-reachable): invariant established by the caller, tested in unit tests
    x.unwrap()
}

pub fn trailing_form(parts: &[u64; 2]) -> u64 {
    parts[1] // lint:allow(panic-reachable): fixed-size array, index in range by construction
}

// lint:allow(panic-reachable, untyped-error): fixture exercising multi-rule directives
pub fn multi_rule(x: Option<u64>) -> Result<u64, String> { Ok(x.unwrap()) }
