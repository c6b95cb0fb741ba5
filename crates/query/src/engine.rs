//! The query executor: the LRU front and the per-kind compute paths.
//!
//! ```text
//!   spec ──canonicalize──▶ u64 key ──▶ LRU hit (same spec)? ──▶ cached bytes
//!                                        │ miss
//!                                        ▼
//!              point ──▶ Ctx::walk_table + WalkTable::price
//!              sweep ──▶ Ctx::sweep_points (or ArtifactCache when shadowing)
//!         projection ──▶ projection_input × horizon + project
//!                csr ──▶ csr / decompose
//!                                        │
//!                                        ▼
//!                       pretty JSON bytes ──▶ LRU insert ──▶ caller
//! ```
//!
//! The engine bounds nothing itself: `accelwall serve` looks a spec up
//! ([`QueryEngine::lookup`]) before its compute gate, so a hit never
//! waits for a compute slot, and computes only the misses under the
//! gate ([`QueryEngine::compute`]).
//!
//! The engine deliberately sits *beside* the per-experiment
//! [`ArtifactCache`]: registry targets keep their `OnceLock` slots and
//! retry machinery, while ad-hoc specs live in the byte-capped LRU. A
//! spec that shadows a registry target is delegated to the artifact
//! cache so both paths serve identical bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::json::Value;
use accelwall_accelsim::sweep::{best_efficiency, best_performance};
use accelwall_accelsim::{DesignConfig, SimReport, SweepPoint};
use accelwall_cmos::TechNode;
use accelwall_faults::Site;
use accelwall_projection::wall::projection_input;
use accelwall_projection::{project, Domain};
use accelwall_workloads::Workload;

use crate::canon::cache_key;
use crate::lru::{QueryCache, QueryCacheStats};
use crate::spec::{domain_label, metric_label, QueryKind, QuerySpec, FIELDS};
use crate::QueryError;

/// Default LRU budget for serving: enough for tens of thousands of
/// point responses, small next to one artifact sweep.
pub const DEFAULT_CACHE_BYTES: usize = 32 * 1024 * 1024;

/// Counters the engine exports to `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// LRU behaviour.
    pub cache: QueryCacheStats,
    /// Specs actually computed (cache misses that ran the pipeline).
    pub computes: u64,
}

/// A spec the LRU does not hold, from [`QueryEngine::lookup`]: it
/// carries the spec's cache key to [`QueryEngine::compute`], so the key
/// is derived once per spec.
#[derive(Debug)]
pub struct Miss {
    key: u64,
}

/// Answers validated specs, caching pre-serialized response bodies.
pub struct QueryEngine {
    artifacts: Arc<ArtifactCache>,
    lru: QueryCache,
    computes: AtomicU64,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl QueryEngine {
    /// Creates an engine over an artifact cache, its LRU capped at
    /// `cache_bytes`.
    pub fn new(artifacts: Arc<ArtifactCache>, cache_bytes: usize) -> QueryEngine {
        QueryEngine {
            artifacts,
            lru: QueryCache::new(cache_bytes),
            computes: AtomicU64::new(0),
        }
    }

    /// Answers a spec: the LRU first, then the pipeline. The returned
    /// bytes are the exact wire body (pretty JSON plus a trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// [`QueryError::Engine`] when the pipeline fails. Failed computes
    /// insert nothing, so a transient fault never poisons the cache.
    pub fn answer(&self, spec: &QuerySpec) -> Result<Arc<[u8]>, QueryError> {
        self.lookup(spec).or_else(|miss| self.compute(spec, miss))
    }

    /// The LRU half of [`QueryEngine::answer`]: the cached body of
    /// exactly this spec, or the [`Miss`] to compute it under. Counts one
    /// cache hit or miss.
    ///
    /// # Errors
    ///
    /// The [`Miss`] when the LRU holds no body for this spec.
    pub fn lookup(&self, spec: &QuerySpec) -> Result<Arc<[u8]>, Miss> {
        let key = cache_key(spec);
        self.lru.get(key, spec).ok_or(Miss { key })
    }

    /// The compute half of [`QueryEngine::answer`]: runs the pipeline for
    /// a spec [`QueryEngine::lookup`] missed, and admits the body to the
    /// LRU.
    ///
    /// # Errors
    ///
    /// [`QueryError::Engine`] when the pipeline fails; nothing is cached
    /// then.
    pub fn compute(&self, spec: &QuerySpec, miss: Miss) -> Result<Arc<[u8]>, QueryError> {
        self.computes.fetch_add(1, Ordering::Relaxed);
        if let Err(fault) = accelwall_faults::probe(Site::QueryCompute) {
            return Err(QueryError::Engine(fault.into()));
        }
        let pretty = self.execute(spec)?.pretty();
        // One allocation of exactly the body's length: the text and its
        // trailing newline are copied straight into the shared slice.
        let body: Arc<[u8]> = pretty.bytes().chain([b'\n']).collect();
        self.lru.insert(miss.key, spec, Arc::clone(&body));
        Ok(body)
    }

    fn execute(&self, spec: &QuerySpec) -> Result<Value, QueryError> {
        if let Some(target) = spec.shadows() {
            // Shadowed specs serve the registry artifact verbatim, so
            // the body is byte-identical to `GET /experiments/{target}`.
            let artifact = self.artifacts.get(target)?;
            return Ok(artifact.json.clone());
        }
        match spec.kind {
            QueryKind::Point => self.execute_point(spec),
            QueryKind::Sweep => self.execute_sweep(spec),
            QueryKind::Projection => execute_projection(spec),
            QueryKind::Csr => execute_csr(spec),
        }
    }

    fn execute_point(&self, spec: &QuerySpec) -> Result<Value, QueryError> {
        #[expect(
            clippy::expect_used,
            reason = "from_pairs' applicability check requires workload for point specs"
        )]
        let workload = spec.workload.expect("validated: point requires workload");
        let config = DesignConfig::new(
            spec.node,
            spec.lanes,
            spec.simplification,
            spec.heterogeneity,
        );
        let report = self
            .artifacts
            .ctx()
            .walk_table(workload)?
            .price(&config)
            .map_err(accelerator_wall::error::Error::from)?;
        Ok(Value::object([
            ("kind", Value::from("point")),
            ("workload", Value::from(workload.abbrev())),
            ("node", Value::from(spec.node.to_string())),
            ("lanes", Value::from(spec.lanes)),
            ("simplification", Value::from(spec.simplification)),
            ("heterogeneity", Value::from(spec.heterogeneity)),
            ("report", report_json(&report)),
        ]))
    }

    fn execute_sweep(&self, spec: &QuerySpec) -> Result<Value, QueryError> {
        #[expect(
            clippy::expect_used,
            reason = "from_pairs' applicability check requires workload for sweep specs"
        )]
        let workload = spec.workload.expect("validated: sweep requires workload");
        let ctx = self.artifacts.ctx();
        let points = ctx.sweep_points(workload)?;
        let space = ctx.sweep_space();
        Ok(Value::object([
            ("kind", Value::from("sweep")),
            ("workload", Value::from(workload.abbrev())),
            ("points", Value::from(space.len())),
            ("nodes", Value::from(space.nodes.len())),
            (
                "best_efficiency",
                Value::from(best_efficiency(points.clone()).as_ref().map(point_json)),
            ),
            (
                "best_performance",
                Value::from(best_performance(points).as_ref().map(point_json)),
            ),
        ]))
    }

    /// Schema introspection: every field, its roster or range, and the
    /// kinds it applies to — the `/query/schema` response.
    pub fn schema() -> Value {
        schema_json()
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            cache: self.lru.stats(),
            computes: self.computes.load(Ordering::Relaxed),
        }
    }
}

fn report_json(report: &SimReport) -> Value {
    Value::object([
        ("cycles", Value::from(report.cycles)),
        ("runtime_s", Value::from(report.runtime_s)),
        ("power_w", Value::from(report.power_w())),
        ("dynamic_energy_j", Value::from(report.dynamic_energy_j)),
        ("leakage_w", Value::from(report.leakage_w)),
        ("area_units", Value::from(report.area_units)),
        ("ops", Value::from(report.ops)),
        (
            "critical_path_cycles",
            Value::from(report.critical_path_cycles),
        ),
        ("throughput_ops_s", Value::from(report.throughput())),
        (
            "energy_efficiency_ops_j",
            Value::from(report.energy_efficiency()),
        ),
    ])
}

fn point_json(point: &SweepPoint) -> Value {
    Value::object([
        ("node", Value::from(point.config.node.to_string())),
        ("partition", Value::from(point.config.partition_factor)),
        (
            "simplification",
            Value::from(point.config.simplification_degree),
        ),
        ("runtime_s", Value::from(point.report.runtime_s)),
        ("power_w", Value::from(point.report.power_w())),
    ])
}

fn execute_projection(spec: &QuerySpec) -> Result<Value, QueryError> {
    #[expect(
        clippy::expect_used,
        reason = "from_pairs' applicability check requires domain for projections"
    )]
    let domain = spec.domain.expect("validated: projection requires domain");
    let mut input =
        projection_input(domain, spec.metric).map_err(accelerator_wall::error::Error::from)?;
    input.physical_limit *= spec.horizon;
    let wall = project(&input).map_err(accelerator_wall::error::Error::from)?;
    Ok(Value::object([
        ("kind", Value::from("projection")),
        ("domain", Value::from(domain_label(domain))),
        ("platform", Value::from(domain.platform())),
        ("metric", Value::from(metric_label(spec.metric))),
        ("unit", Value::from(domain.unit(spec.metric))),
        ("horizon", Value::from(spec.horizon)),
        ("physical_limit", Value::from(wall.physical_limit)),
        ("current_best", Value::from(wall.current_best)),
        ("frontier_len", Value::from(wall.frontier_len)),
        ("linear_wall", Value::from(wall.linear_wall)),
        ("log_wall", Value::from(wall.log_wall)),
        ("further_linear", Value::from(wall.further_linear)),
        ("further_log", Value::from(wall.further_log)),
        (
            "linear_wall_band",
            Value::array([
                Value::from(wall.linear_wall_band.0),
                Value::from(wall.linear_wall_band.1),
            ]),
        ),
    ]))
}

fn execute_csr(spec: &QuerySpec) -> Result<Value, QueryError> {
    #[expect(
        clippy::expect_used,
        reason = "from_pairs' applicability check requires reported for csr specs"
    )]
    let reported = spec.reported.expect("validated: csr requires reported");
    #[expect(
        clippy::expect_used,
        reason = "from_pairs' applicability check requires physical for csr specs"
    )]
    let physical = spec.physical.expect("validated: csr requires physical");
    if let Some(base) = spec.physical_base {
        let d = accelwall_csr::decompose(reported, physical, base)
            .map_err(accelerator_wall::error::Error::from)?;
        Ok(Value::object([
            ("kind", Value::from("csr")),
            ("reported", Value::from(d.reported)),
            ("specialization", Value::from(d.specialization)),
            ("cmos", Value::from(d.cmos)),
        ]))
    } else {
        let ratio =
            accelwall_csr::csr(reported, physical).map_err(accelerator_wall::error::Error::from)?;
        Ok(Value::object([
            ("kind", Value::from("csr")),
            ("reported", Value::from(reported)),
            ("physical", Value::from(physical)),
            ("csr", Value::from(ratio)),
        ]))
    }
}

fn schema_json() -> Value {
    let field = |name: &str, ty: &str, default: Value, applies: &[&str], values: Value| {
        Value::object([
            ("name", Value::from(name)),
            ("type", Value::from(ty)),
            ("default", default),
            (
                "applies_to",
                applies.iter().map(|&k| Value::from(k)).collect(),
            ),
            ("values", values),
        ])
    };
    let workloads: Value = Workload::all()
        .iter()
        .map(|w| Value::from(w.abbrev().to_ascii_lowercase()))
        .collect();
    let nodes: Value = TechNode::all()
        .iter()
        .map(|n| Value::from(n.to_string()))
        .collect();
    let domains: Value = Domain::all()
        .iter()
        .map(|&d| Value::from(domain_label(d)))
        .collect();
    let kinds: Value = QueryKind::all()
        .iter()
        .map(|k| Value::from(k.label()))
        .collect();
    Value::object([
        ("kinds", kinds),
        (
            "field_order",
            FIELDS.iter().map(|&f| Value::from(f)).collect(),
        ),
        (
            "fields",
            Value::array([
                field(
                    "kind",
                    "enum",
                    Value::from("point"),
                    &["point", "sweep", "projection", "csr"],
                    QueryKind::all()
                        .iter()
                        .map(|k| Value::from(k.label()))
                        .collect(),
                ),
                field(
                    "workload",
                    "enum",
                    Value::Null,
                    &["point", "sweep"],
                    workloads,
                ),
                field("node", "enum", Value::from("45nm"), &["point"], nodes),
                field(
                    "lanes",
                    "integer (power of two, 1..=524288)",
                    Value::from(1u64),
                    &["point"],
                    Value::Null,
                ),
                field(
                    "simplification",
                    "integer (1..=13)",
                    Value::from(1u32),
                    &["point"],
                    Value::Null,
                ),
                field(
                    "heterogeneity",
                    "bool",
                    Value::from(false),
                    &["point"],
                    Value::Null,
                ),
                field("domain", "enum", Value::Null, &["projection"], domains),
                field(
                    "metric",
                    "enum",
                    Value::from("performance"),
                    &["projection"],
                    Value::array([Value::from("performance"), Value::from("efficiency")]),
                ),
                field(
                    "horizon",
                    "number (> 0)",
                    Value::from(1.0),
                    &["projection"],
                    Value::Null,
                ),
                field(
                    "reported",
                    "number (> 0)",
                    Value::Null,
                    &["csr"],
                    Value::Null,
                ),
                field(
                    "physical",
                    "number (> 0)",
                    Value::Null,
                    &["csr"],
                    Value::Null,
                ),
                field(
                    "physical_base",
                    "number (> 0)",
                    Value::Null,
                    &["csr"],
                    Value::Null,
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerator_wall::cache::Ctx;
    use accelerator_wall::registry::Registry;
    use accelwall_accelsim::SweepSpace;

    fn engine() -> QueryEngine {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        QueryEngine::new(Arc::new(cache), 1024 * 1024)
    }

    fn spec(kv: &[(&str, &str)]) -> QuerySpec {
        let pairs: Vec<(String, String)> = kv
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        QuerySpec::from_pairs(&pairs).unwrap()
    }

    #[test]
    fn warm_repeat_is_served_from_the_lru_without_recompute() {
        let engine = engine();
        let q = spec(&[("workload", "fft"), ("node", "7nm"), ("lanes", "8")]);
        let cold = engine.answer(&q).unwrap();
        let after_cold = engine.stats();
        assert_eq!(after_cold.computes, 1);
        assert_eq!(after_cold.cache.hits, 0);
        let warm = engine.answer(&q).unwrap();
        let after_warm = engine.stats();
        // The hit counter advances; the compute counter does not.
        assert_eq!(after_warm.cache.hits, 1);
        assert_eq!(after_warm.computes, 1);
        assert_eq!(cold, warm, "cached bytes must be identical");
    }

    #[test]
    fn a_shadowed_sweep_matches_the_registry_artifact_bytes() {
        let engine = engine();
        let q = spec(&[("kind", "sweep"), ("workload", "s3d")]);
        let body = engine.answer(&q).unwrap();
        let artifact = engine.artifacts.get("fig13").unwrap();
        let expected = format!("{}\n", artifact.json.pretty());
        assert_eq!(*body, *expected.as_bytes());
    }

    #[test]
    fn all_kinds_answer_and_are_valid_json() {
        let engine = engine();
        for kv in [
            vec![("workload", "aes"), ("heterogeneity", "true")],
            vec![("kind", "sweep"), ("workload", "fft")],
            vec![("kind", "projection"), ("domain", "bitcoin")],
            vec![
                ("kind", "projection"),
                ("domain", "gpu"),
                ("metric", "efficiency"),
                ("horizon", "2.5"),
            ],
            vec![("kind", "csr"), ("reported", "510"), ("physical", "307")],
            vec![
                ("kind", "csr"),
                ("reported", "510"),
                ("physical", "307"),
                ("physical_base", "1"),
            ],
        ] {
            let body = engine.answer(&spec(&kv)).unwrap();
            let text = std::str::from_utf8(&body).unwrap();
            let doc = Value::parse(text.trim_end()).unwrap();
            assert!(doc.is_object() || doc.is_array(), "{kv:?}");
        }
    }

    #[test]
    fn a_vacuous_horizon_surfaces_as_an_engine_error() {
        let engine = engine();
        // Shrinking the physical limit below the observed data leaves
        // nothing to extrapolate to.
        let q = spec(&[
            ("kind", "projection"),
            ("domain", "gpu"),
            ("horizon", "0.001"),
        ]);
        let err = engine.answer(&q).unwrap_err();
        assert!(matches!(err, QueryError::Engine(_)), "{err}");
    }

    #[test]
    fn schema_lists_every_field_in_canonical_order() {
        let schema = QueryEngine::schema();
        let order: Vec<&str> = schema
            .get("field_order")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(order, FIELDS);
        let fields = schema.get("fields").and_then(Value::as_array).unwrap();
        assert_eq!(fields.len(), FIELDS.len());
    }
}
