//! Minimal hand-rolled JSON emission, matching the workspace's
//! zero-dependency convention (see `hoploc-harness::to_json`).

/// Renders a float as JSON (finite with fixed precision; non-finite
/// values have no JSON literal and are reported as `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}
