// Fixture: suppression hygiene violations. Linted as
// `crates/core/src/fixture.rs`.

pub fn reasonless(x: Option<u64>) -> u64 {
    // lint:allow(panic-reachable) //~ invalid-suppression @ 5
    x.unwrap() //~ panic-reachable
}

pub fn unknown_rule(y: Option<u64>) -> u64 {
    // lint:allow(no-such-rule): typo in the rule id //~ invalid-suppression @ 5
    y.unwrap_or(0)
}

// lint:allow(float-eq): nothing in this file compares floats //~ unused-suppression @ 1
pub fn stale_directive() {}
