// Fixture: panicking shortcuts in pipeline hot paths. Linted as
// `crates/core/src/fixture.rs`.

pub fn unwrap_in_hot_path(x: Option<u64>) -> u64 {
    x.unwrap() //~ panic-reachable @ 7
}

pub fn expect_in_hot_path(x: Option<u64>) -> u64 {
    x.expect("should be there") //~ panic-reachable
}

pub fn panic_macro(cond: bool) {
    if cond {
        panic!("boom"); //~ panic-reachable @ 9
    }
}

pub fn unreachable_macro(n: u32) -> u32 {
    match n {
        0 => 1,
        _ => unreachable!("callers pass zero"), //~ panic-reachable
    }
}

pub fn todo_macro() {
    todo!() //~ panic-reachable
}

pub fn literal_index(parts: &[u64]) -> u64 {
    parts[0] //~ panic-reachable @ 10
}
