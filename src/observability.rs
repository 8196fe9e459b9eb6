//! Schema validation for exported metrics JSON (DESIGN.md §7).
//!
//! Shared by `memes validate-metrics` and the integration tests, so
//! the schema the docs promise is enforced in exactly one place. The
//! document is a [`meme_metrics::Registry`] export — what
//! `--metrics-out` writes.

use serde::Value;
use std::fmt;

/// Why a metrics JSON document was rejected. Two variants because the
/// caller's remedies differ: [`MetricsSchemaError::Parse`] means the
/// file is not JSON at all (wrong file, truncated write), while
/// [`MetricsSchemaError::Schema`] means it parsed but breaks the
/// DESIGN.md §7 contract (version drift, malformed section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsSchemaError {
    /// The document is not valid JSON.
    Parse(String),
    /// The document parsed but violates the schema; the message names
    /// the offending section and field.
    Schema(String),
}

impl fmt::Display for MetricsSchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "not valid JSON: {e}"),
            Self::Schema(e) => write!(f, "schema violation: {e}"),
        }
    }
}

impl std::error::Error for MetricsSchemaError {}

// The checks below build their messages with `format!` / `&'static str`
// and `?`-convert; both land in the `Schema` variant.
impl From<String> for MetricsSchemaError {
    fn from(msg: String) -> Self {
        Self::Schema(msg)
    }
}

impl From<&str> for MetricsSchemaError {
    fn from(msg: &str) -> Self {
        Self::Schema(msg.to_string())
    }
}

/// Validate a metrics JSON document against the DESIGN.md §7 schema.
///
/// Checks, in order:
/// * the document parses and is an object;
/// * `schema_version` equals [`meme_metrics::SCHEMA_VERSION`];
/// * `spans` / `counters` / `gauges` / `histograms` are objects;
/// * every span has non-negative `calls` / `total_secs` / `min_secs` /
///   `max_secs`;
/// * every counter is a non-negative integer;
/// * every gauge is a number or `null` (non-finite values export as
///   `null`);
/// * every histogram has `counts.len() == bounds.len() + 1`, strictly
///   ascending bounds, and bucket counts summing to `count`.
pub fn validate_metrics_json(text: &str) -> Result<(), MetricsSchemaError> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| MetricsSchemaError::Parse(e.to_string()))?;
    let root = doc.as_object().ok_or("top level is not an object")?;

    let version = get(root, "schema_version")
        .and_then(as_u64)
        .ok_or("missing integer `schema_version`")?;
    if version != meme_metrics::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {}",
            meme_metrics::SCHEMA_VERSION
        )
        .into());
    }

    let section = |name: &str| {
        get(root, name)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("missing object `{name}`"))
    };

    for (name, span) in section("spans")? {
        let span = span
            .as_object()
            .ok_or_else(|| format!("span `{name}`: not an object"))?;
        for field in ["calls", "total_secs", "min_secs", "max_secs"] {
            let v = get(span, field)
                .and_then(as_f64)
                .ok_or_else(|| format!("span `{name}`: missing number `{field}`"))?;
            if v < 0.0 {
                return Err(format!("span `{name}`: negative `{field}`").into());
            }
        }
    }

    for (name, v) in section("counters")? {
        if as_u64(v).is_none() {
            return Err(format!("counter `{name}`: not a non-negative integer").into());
        }
    }

    for (name, v) in section("gauges")? {
        if !matches!(v, Value::Null) && as_f64(v).is_none() {
            return Err(format!("gauge `{name}`: not a number or null").into());
        }
    }

    for (name, h) in section("histograms")? {
        let h = h
            .as_object()
            .ok_or_else(|| format!("histogram `{name}`: not an object"))?;
        let get_array = |field: &str| {
            get(h, field)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("histogram `{name}`: missing array `{field}`"))
        };
        let bounds = get_array("bounds")?;
        let counts = get_array("counts")?;
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "histogram `{name}`: {} counts for {} bounds (want bounds + 1)",
                counts.len(),
                bounds.len()
            )
            .into());
        }
        let bound_vals: Vec<f64> = bounds
            .iter()
            .map(|b| as_f64(b).ok_or_else(|| format!("histogram `{name}`: non-numeric bound")))
            .collect::<Result<_, _>>()?;
        if bound_vals.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("histogram `{name}`: bounds not strictly ascending").into());
        }
        let total = get(h, "count")
            .and_then(as_u64)
            .ok_or_else(|| format!("histogram `{name}`: missing integer `count`"))?;
        let summed = counts
            .iter()
            .map(|c| as_u64(c).ok_or_else(|| format!("histogram `{name}`: non-integer bucket")))
            .sum::<Result<u64, _>>()?;
        if summed != total {
            return Err(format!(
                "histogram `{name}`: bucket counts sum to {summed}, `count` says {total}"
            )
            .into());
        }
        if get(h, "sum").and_then(as_f64).is_none() {
            return Err(format!("histogram `{name}`: missing number `sum`").into());
        }
    }

    Ok(())
}

/// Look up an object field (the vendored value model keeps objects as
/// ordered pair lists).
fn get<'v>(obj: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meme_metrics::{Metrics, Registry, ITERATION_BUCKETS};
    use std::sync::Arc;

    fn sample_registry_json() -> String {
        let registry = Arc::new(Registry::new());
        let metrics = Metrics::from_registry(Arc::clone(&registry));
        metrics.add("hash.images", 100);
        metrics.gauge("hash.images_per_sec", 12_500.0);
        metrics.gauge("bad.value", f64::NAN); // exports as null
        metrics.observe("hawkes.em_iterations", &ITERATION_BUCKETS, 12.0);
        metrics.span("pipeline").finish();
        registry.to_json()
    }

    #[test]
    fn real_export_validates() {
        validate_metrics_json(&sample_registry_json()).unwrap();
    }

    #[test]
    fn rejects_garbage_and_bad_schemas() {
        // The two variants separate "wrong file" from "contract drift".
        assert!(matches!(
            validate_metrics_json("not json"),
            Err(MetricsSchemaError::Parse(_))
        ));
        assert!(matches!(
            validate_metrics_json("[1,2,3]"),
            Err(MetricsSchemaError::Schema(_))
        ));
        assert!(validate_metrics_json("{}").is_err());
        // An export nested under another key is not an export.
        let nested = format!("{{\"metrics\":{}}}", sample_registry_json());
        assert!(matches!(
            validate_metrics_json(&nested),
            Err(MetricsSchemaError::Schema(_))
        ));
        let wrong_version = r#"{"schema_version": 999, "spans": {}, "counters": {},
                                "gauges": {}, "histograms": {}}"#;
        assert!(validate_metrics_json(wrong_version).is_err());
        let bad_histogram = r#"{"schema_version": 1, "spans": {}, "counters": {},
            "gauges": {}, "histograms": {
                "h": {"bounds": [1.0, 2.0], "counts": [1, 2], "count": 3, "sum": 4.0}
            }}"#;
        let err = validate_metrics_json(bad_histogram).unwrap_err();
        assert!(matches!(err, MetricsSchemaError::Schema(_)));
        assert!(err.to_string().contains("counts"), "{err}");
        let miscounted = r#"{"schema_version": 1, "spans": {}, "counters": {},
            "gauges": {}, "histograms": {
                "h": {"bounds": [1.0], "counts": [1, 2], "count": 5, "sum": 4.0}
            }}"#;
        assert!(validate_metrics_json(miscounted).is_err());
        let negative_span = r#"{"schema_version": 1, "spans": {
                "s": {"calls": 1, "total_secs": -0.5, "min_secs": 0.0, "max_secs": 0.0}
            }, "counters": {}, "gauges": {}, "histograms": {}}"#;
        assert!(validate_metrics_json(negative_span).is_err());
    }
}
