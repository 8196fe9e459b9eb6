// Fixture: float comparisons done safely. Linted as
// `crates/stats/src/fixture.rs`; must produce zero findings.

pub fn tolerance_compare(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

pub fn ordering_is_fine(a: f64, b: f64) -> bool {
    a < b || a >= b
}

pub fn integers_compare_exactly(n: usize, m: usize) -> bool {
    n == m
}

pub fn sentinel_via_option(x: Option<f64>) -> bool {
    x.is_none()
}

pub fn tuple_field_chain(t: &((u64, u64), u64)) -> bool { t.0.1 == 3 }

#[cfg(test)]
mod tests {
    #[test]
    fn exact_assertions_allowed_in_tests() {
        let x: f64 = 0.5;
        assert!(x == 0.5);
    }
}
