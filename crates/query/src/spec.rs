//! Typed query specifications and strict field validation.
//!
//! All three front ends — CLI flags, `GET /query?...` query strings, and
//! `POST /query` JSON bodies — reduce their input to `(field, value)`
//! string pairs and converge on [`QuerySpec::from_pairs`]. Unknown and
//! duplicate fields are rejected with the full roster, values are
//! validated against the workload/CMOS registries, and fields that do
//! not apply to the requested kind are refused rather than ignored.

use std::collections::BTreeSet;
use std::str::FromStr;

use accelwall_accelsim::sim::{MAX_PARTITION, MAX_SIMPLIFICATION};
use accelwall_cmos::TechNode;
use accelwall_projection::{Domain, TargetMetric};
use accelwall_workloads::Workload;

use crate::QueryError;

/// The shape of question a spec asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Simulate one (workload, node, knob vector) design point.
    Point,
    /// Enumerate a workload's full Table III design-space sweep.
    Sweep,
    /// Project a domain's accelerator wall, optionally scaling the 5 nm
    /// physical limit by a horizon factor.
    Projection,
    /// Evaluate Eq. 1 CSR or the Eq. 2 gain decomposition.
    Csr,
}

impl QueryKind {
    /// Every kind, in schema order.
    pub fn all() -> &'static [QueryKind] {
        const ALL: [QueryKind; 4] = [
            QueryKind::Point,
            QueryKind::Sweep,
            QueryKind::Projection,
            QueryKind::Csr,
        ];
        &ALL
    }

    /// The wire spelling of the kind.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Point => "point",
            QueryKind::Sweep => "sweep",
            QueryKind::Projection => "projection",
            QueryKind::Csr => "csr",
        }
    }
}

/// Every field a spec may carry, in canonical (and schema) order.
pub const FIELDS: &[&str] = &[
    "kind",
    "workload",
    "node",
    "lanes",
    "simplification",
    "heterogeneity",
    "domain",
    "metric",
    "horizon",
    "reported",
    "physical",
    "physical_base",
];

/// A validated, default-filled what-if query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Which question is being asked.
    pub kind: QueryKind,
    /// Target workload (point and sweep kinds).
    pub workload: Option<Workload>,
    /// CMOS process node of a point query.
    pub node: TechNode,
    /// Partitioning factor (parallel lanes) of a point query.
    pub lanes: u64,
    /// Table III simplification degree of a point query.
    pub simplification: u32,
    /// Whether the point design fuses dependent ops (heterogeneity).
    pub heterogeneity: bool,
    /// Projected domain (projection kind).
    pub domain: Option<Domain>,
    /// Projected target function.
    pub metric: TargetMetric,
    /// Scale factor applied to the domain's 5 nm physical limit before
    /// projecting — `1` is the paper's wall, `>1` asks "what if CMOS
    /// went further".
    pub horizon: f64,
    /// Reported end-to-end gain (csr kind).
    pub reported: Option<f64>,
    /// Physical (CMOS-driven) gain (csr kind).
    pub physical: Option<f64>,
    /// Second chip's physical gain; present switches Eq. 1 CSR to the
    /// Eq. 2 decomposition.
    pub physical_base: Option<f64>,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            kind: QueryKind::Point,
            workload: None,
            node: TechNode::N45,
            lanes: 1,
            simplification: 1,
            heterogeneity: false,
            domain: None,
            metric: TargetMetric::Performance,
            horizon: 1.0,
            reported: None,
            physical: None,
            physical_base: None,
        }
    }
}

fn invalid(msg: impl Into<String>) -> QueryError {
    QueryError::Invalid(msg.into())
}

fn workload_roster() -> String {
    Workload::all()
        .iter()
        .map(|w| w.abbrev().to_ascii_lowercase())
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_workload(value: &str) -> Result<Workload, QueryError> {
    Workload::all()
        .iter()
        .copied()
        .find(|w| w.abbrev().eq_ignore_ascii_case(value))
        .ok_or_else(|| {
            invalid(format!(
                "unknown workload {value:?}; known workloads: {}",
                workload_roster()
            ))
        })
}

fn parse_domain(value: &str) -> Result<Domain, QueryError> {
    match value.to_ascii_lowercase().as_str() {
        "video" | "video-decoding" => Ok(Domain::VideoDecoding),
        "gpu" | "gpu-graphics" => Ok(Domain::GpuGraphics),
        "fpga" | "fpga-cnn" => Ok(Domain::FpgaCnn),
        "bitcoin" | "bitcoin-mining" => Ok(Domain::BitcoinMining),
        _ => Err(invalid(format!(
            "unknown domain {value:?}; known domains: video, gpu, fpga, bitcoin"
        ))),
    }
}

/// The wire spelling of a domain (the short roster form).
pub fn domain_label(domain: Domain) -> &'static str {
    match domain {
        Domain::VideoDecoding => "video",
        Domain::GpuGraphics => "gpu",
        Domain::FpgaCnn => "fpga",
        Domain::BitcoinMining => "bitcoin",
    }
}

/// The wire spelling of a target metric.
pub fn metric_label(metric: TargetMetric) -> &'static str {
    match metric {
        TargetMetric::Performance => "performance",
        TargetMetric::EnergyEfficiency => "efficiency",
    }
}

fn parse_metric(value: &str) -> Result<TargetMetric, QueryError> {
    match value.to_ascii_lowercase().as_str() {
        "performance" | "perf" => Ok(TargetMetric::Performance),
        "efficiency" | "energy-efficiency" => Ok(TargetMetric::EnergyEfficiency),
        _ => Err(invalid(format!(
            "unknown metric {value:?}; known metrics: performance, efficiency"
        ))),
    }
}

fn parse_bool(field: &str, value: &str) -> Result<bool, QueryError> {
    match value {
        "true" | "1" => Ok(true),
        "false" | "0" => Ok(false),
        _ => Err(invalid(format!(
            "field {field:?} wants true/false, got {value:?}"
        ))),
    }
}

fn parse_positive_f64(field: &str, value: &str) -> Result<f64, QueryError> {
    let n: f64 = value
        .parse()
        .map_err(|_| invalid(format!("field {field:?} wants a number, got {value:?}")))?;
    if n.is_finite() && n > 0.0 {
        Ok(n)
    } else {
        Err(invalid(format!(
            "field {field:?} wants a finite positive number, got {value:?}"
        )))
    }
}

impl QuerySpec {
    /// Builds and validates a spec from `(field, value)` pairs, the
    /// common denominator of the CLI, query-string, and JSON front ends.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Invalid`] on unknown or duplicate fields,
    /// out-of-roster values, out-of-range knobs, missing required
    /// fields, or fields that do not apply to the requested kind.
    pub fn from_pairs(pairs: &[(String, String)]) -> Result<QuerySpec, QueryError> {
        let mut spec = QuerySpec::default();
        let mut provided = BTreeSet::new();
        for (field, value) in pairs {
            if !FIELDS.contains(&field.as_str()) {
                return Err(invalid(format!(
                    "unknown field {field:?}; known fields: {}",
                    FIELDS.join(", ")
                )));
            }
            if !provided.insert(field.as_str()) {
                return Err(invalid(format!("duplicate field {field:?}")));
            }
            match field.as_str() {
                "kind" => {
                    spec.kind = QueryKind::all()
                        .iter()
                        .copied()
                        .find(|k| k.label().eq_ignore_ascii_case(value))
                        .ok_or_else(|| {
                            invalid(format!(
                                "unknown kind {value:?}; known kinds: point, sweep, projection, csr"
                            ))
                        })?;
                }
                "workload" => spec.workload = Some(parse_workload(value)?),
                "node" => {
                    spec.node = TechNode::from_str(value).map_err(|e| invalid(e.to_string()))?;
                }
                "lanes" => {
                    let lanes: u64 = value.parse().map_err(|_| {
                        invalid(format!("field \"lanes\" wants an integer, got {value:?}"))
                    })?;
                    if lanes == 0 || lanes > MAX_PARTITION || !lanes.is_power_of_two() {
                        return Err(invalid(format!(
                            "field \"lanes\" wants a power of two in 1..={MAX_PARTITION}, \
                             got {value}"
                        )));
                    }
                    spec.lanes = lanes;
                }
                "simplification" => {
                    let degree: u32 = value.parse().map_err(|_| {
                        invalid(format!(
                            "field \"simplification\" wants an integer, got {value:?}"
                        ))
                    })?;
                    if degree == 0 || degree > MAX_SIMPLIFICATION {
                        return Err(invalid(format!(
                            "field \"simplification\" wants a degree in \
                             1..={MAX_SIMPLIFICATION}, got {value}"
                        )));
                    }
                    spec.simplification = degree;
                }
                "heterogeneity" => spec.heterogeneity = parse_bool(field, value)?,
                "domain" => spec.domain = Some(parse_domain(value)?),
                "metric" => spec.metric = parse_metric(value)?,
                "horizon" => spec.horizon = parse_positive_f64(field, value)?,
                "reported" => spec.reported = Some(parse_positive_f64(field, value)?),
                "physical" => spec.physical = Some(parse_positive_f64(field, value)?),
                "physical_base" => spec.physical_base = Some(parse_positive_f64(field, value)?),
                _ => unreachable!("field roster checked above"),
            }
        }
        spec.check_applicability(&provided)?;
        Ok(spec)
    }

    /// Fields a kind accepts beyond `kind` itself.
    fn applicable(kind: QueryKind) -> &'static [&'static str] {
        match kind {
            QueryKind::Point => &[
                "workload",
                "node",
                "lanes",
                "simplification",
                "heterogeneity",
            ],
            QueryKind::Sweep => &["workload"],
            QueryKind::Projection => &["domain", "metric", "horizon"],
            QueryKind::Csr => &["reported", "physical", "physical_base"],
        }
    }

    /// Fields a kind cannot answer without.
    fn required(kind: QueryKind) -> &'static [&'static str] {
        match kind {
            QueryKind::Point | QueryKind::Sweep => &["workload"],
            QueryKind::Projection => &["domain"],
            QueryKind::Csr => &["reported", "physical"],
        }
    }

    fn check_applicability(&self, provided: &BTreeSet<&str>) -> Result<(), QueryError> {
        let allowed = Self::applicable(self.kind);
        for &field in provided {
            if field != "kind" && !allowed.contains(&field) {
                return Err(invalid(format!(
                    "field {field:?} does not apply to kind {:?}; \
                     applicable fields: kind, {}",
                    self.kind.label(),
                    allowed.join(", ")
                )));
            }
        }
        for &field in Self::required(self.kind) {
            if !provided.contains(field) {
                return Err(invalid(format!(
                    "kind {:?} requires field {field:?}",
                    self.kind.label()
                )));
            }
        }
        Ok(())
    }

    /// The registry target this spec exactly shadows, if any. Shadowed
    /// specs are delegated to the `ArtifactCache`, so their response is
    /// byte-identical to the registry target's.
    pub fn shadows(&self) -> Option<&'static str> {
        if self.kind == QueryKind::Sweep && self.workload == Some(Workload::S3d) {
            Some("fig13")
        } else {
            None
        }
    }
}

/// Splits a raw URL query string (`a=1&b=2`, percent-encoded) into
/// `(field, value)` pairs ready for [`QuerySpec::from_pairs`].
///
/// # Errors
///
/// Returns [`QueryError::Invalid`] on missing `=`, empty field names, or
/// malformed percent escapes.
pub fn pairs_from_query(raw: &str) -> Result<Vec<(String, String)>, QueryError> {
    let mut pairs = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (field, value) = piece
            .split_once('=')
            .ok_or_else(|| invalid(format!("query parameter {piece:?} is missing '='")))?;
        if field.is_empty() {
            return Err(invalid("query parameter with an empty field name"));
        }
        pairs.push((percent_decode(field)?, percent_decode(value)?));
    }
    Ok(pairs)
}

fn percent_decode(s: &str) -> Result<String, QueryError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| invalid(format!("malformed percent escape in {s:?}")))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| invalid(format!("percent escapes in {s:?} are not UTF-8")))
}

/// Flattens a parsed JSON body (`POST /query`) into `(field, value)`
/// pairs. The body must be one flat object; numbers are normalized via
/// Rust's shortest-roundtrip `f64` display, so `8` and `8.0` arrive at
/// [`QuerySpec::from_pairs`] spelled identically.
///
/// # Errors
///
/// Returns [`QueryError::Invalid`] when the body is not an object or a
/// member is an array/object/null.
pub fn pairs_from_json(
    body: &accelerator_wall::json::Value,
) -> Result<Vec<(String, String)>, QueryError> {
    use accelerator_wall::json::Value;
    let members = body
        .as_object()
        .ok_or_else(|| invalid("request body must be a JSON object of query fields"))?;
    let mut pairs = Vec::with_capacity(members.len());
    for (field, value) in members {
        let rendered = match value {
            Value::String(s) => s.clone(),
            Value::Number(n) => format!("{n}"),
            Value::Bool(b) => b.to_string(),
            _ => {
                return Err(invalid(format!(
                    "field {field:?} must be a string, number, or boolean"
                )))
            }
        };
        pairs.push((field.clone(), rendered));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(kv: &[(&str, &str)]) -> Vec<(String, String)> {
        kv.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_a_point_spec_with_defaults() {
        let spec = QuerySpec::from_pairs(&pairs(&[("workload", "fft"), ("node", "7nm")])).unwrap();
        assert_eq!(spec.kind, QueryKind::Point);
        assert_eq!(spec.workload, Some(Workload::Fft));
        assert_eq!(spec.node, TechNode::N7);
        assert_eq!(spec.lanes, 1);
        assert_eq!(spec.simplification, 1);
        assert!(!spec.heterogeneity);
    }

    #[test]
    fn rejects_unknown_and_duplicate_fields_with_roster() {
        let err = QuerySpec::from_pairs(&pairs(&[("wrkload", "fft")])).unwrap_err();
        assert!(err.to_string().contains("known fields"), "{err}");
        assert!(err.to_string().contains("physical_base"), "{err}");
        let err =
            QuerySpec::from_pairs(&pairs(&[("workload", "fft"), ("workload", "aes")])).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_out_of_roster_values() {
        for (field, value) in [
            ("workload", "quake"),
            ("node", "6nm"),
            ("lanes", "3"),
            ("lanes", "1048576"),
            ("simplification", "14"),
            ("heterogeneity", "maybe"),
        ] {
            let mut kv = vec![("workload", "fft")];
            if field == "workload" {
                kv.clear();
            }
            kv.push((field, value));
            let err = QuerySpec::from_pairs(&pairs(&kv)).unwrap_err();
            assert!(
                matches!(err, QueryError::Invalid(_)),
                "{field}={value}: {err}"
            );
        }
    }

    #[test]
    fn enforces_the_kind_applicability_matrix() {
        // A projection field on a point query is refused, not ignored.
        let err =
            QuerySpec::from_pairs(&pairs(&[("workload", "fft"), ("horizon", "2")])).unwrap_err();
        assert!(err.to_string().contains("does not apply"), "{err}");
        // Required fields are named.
        let err = QuerySpec::from_pairs(&pairs(&[("kind", "projection")])).unwrap_err();
        assert!(
            err.to_string().contains("requires field \"domain\""),
            "{err}"
        );
        let err =
            QuerySpec::from_pairs(&pairs(&[("kind", "csr"), ("reported", "510")])).unwrap_err();
        assert!(
            err.to_string().contains("requires field \"physical\""),
            "{err}"
        );
    }

    #[test]
    fn query_strings_percent_decode_and_reject_malformed_pieces() {
        let got = pairs_from_query("workload=fft&node=7%6Em&lanes=8").unwrap();
        assert_eq!(
            got,
            pairs(&[("workload", "fft"), ("node", "7nm"), ("lanes", "8")])
        );
        assert!(pairs_from_query("workload").is_err());
        assert!(pairs_from_query("=fft").is_err());
        assert!(pairs_from_query("node=7%Gm").is_err());
    }

    #[test]
    fn json_bodies_flatten_with_number_normalization() {
        use accelerator_wall::json::Value;
        let body =
            Value::parse(r#"{"workload": "fft", "lanes": 8.0, "heterogeneity": true}"#).unwrap();
        let got = pairs_from_json(&body).unwrap();
        assert_eq!(
            got,
            pairs(&[
                ("workload", "fft"),
                ("lanes", "8"),
                ("heterogeneity", "true")
            ])
        );
        assert!(pairs_from_json(&Value::parse("[1]").unwrap()).is_err());
        assert!(pairs_from_json(&Value::parse(r#"{"workload": null}"#).unwrap()).is_err());
    }

    #[test]
    fn only_the_full_s3d_sweep_shadows_fig13() {
        let spec =
            QuerySpec::from_pairs(&pairs(&[("kind", "sweep"), ("workload", "s3d")])).unwrap();
        assert_eq!(spec.shadows(), Some("fig13"));
        let spec =
            QuerySpec::from_pairs(&pairs(&[("kind", "sweep"), ("workload", "fft")])).unwrap();
        assert_eq!(spec.shadows(), None);
        let spec = QuerySpec::from_pairs(&pairs(&[("workload", "s3d")])).unwrap();
        assert_eq!(spec.shadows(), None);
    }
}
