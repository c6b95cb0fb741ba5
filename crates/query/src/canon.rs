//! Canonical spec serialization and the `u64` cache key.
//!
//! Two requests that mean the same thing must hit the same cache line no
//! matter how they were spelled. [`QuerySpec::from_pairs`] already
//! normalizes *values* (defaults filled, `8`/`8.0` both parsed to one
//! `f64`, case-folded rosters); this module normalizes *presentation*:
//! every field is emitted in one fixed order, absent optionals print as
//! `-`, and floats use Rust's shortest-roundtrip display. The FNV-1a
//! hash of that string is the cache key — 64-bit, stable across runs,
//! and dependency-free.

use crate::spec::{domain_label, metric_label, QuerySpec};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes bytes with FNV-1a (64-bit). `#[inline]` so the server's
/// response-cache lookup can inline it across the crate boundary.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn push_opt_f64(out: &mut String, field: &str, value: Option<f64>) {
    use std::fmt::Write;
    match value {
        Some(n) => {
            let _ = write!(out, "{field}={n};");
        }
        None => {
            let _ = write!(out, "{field}=-;");
        }
    }
}

/// Renders a validated spec in canonical form: fixed field order,
/// defaults included, absent optionals as `-`, floats via shortest
/// roundtrip display.
pub fn canonical_string(spec: &QuerySpec) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(128);
    let _ = write!(out, "kind={};", spec.kind.label());
    let _ = write!(
        out,
        "workload={};",
        spec.workload.map_or("-", |w| w.abbrev())
    );
    let _ = write!(out, "node={};", spec.node);
    let _ = write!(out, "lanes={};", spec.lanes);
    let _ = write!(out, "simplification={};", spec.simplification);
    let _ = write!(out, "heterogeneity={};", spec.heterogeneity);
    let _ = write!(out, "domain={};", spec.domain.map_or("-", domain_label));
    let _ = write!(out, "metric={};", metric_label(spec.metric));
    let _ = write!(out, "horizon={};", spec.horizon);
    push_opt_f64(&mut out, "reported", spec.reported);
    push_opt_f64(&mut out, "physical", spec.physical);
    push_opt_f64(&mut out, "physical_base", spec.physical_base);
    out
}

/// The stable cache key of a spec: FNV-1a over [`canonical_string`].
pub fn cache_key(spec: &QuerySpec) -> u64 {
    fnv1a(canonical_string(spec).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;

    fn spec(kv: &[(&str, &str)]) -> QuerySpec {
        let pairs: Vec<(String, String)> = kv
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        QuerySpec::from_pairs(&pairs).unwrap()
    }

    /// Every permutation of a field set canonicalizes to one key.
    #[test]
    fn key_is_field_order_insensitive() {
        let fields: [(&str, &str); 5] = [
            ("workload", "fft"),
            ("node", "7nm"),
            ("lanes", "8"),
            ("simplification", "3"),
            ("heterogeneity", "true"),
        ];
        let reference = cache_key(&spec(&fields));
        // Walk a full permutation enumeration (5! = 120) via Heap's
        // algorithm rather than trusting a couple of hand-picked orders.
        let mut perm = fields;
        let mut stack = [0usize; 5];
        let mut i = 0;
        let mut seen = 1usize;
        while i < perm.len() {
            if stack[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(stack[i], i);
                }
                assert_eq!(cache_key(&spec(&perm)), reference, "{perm:?}");
                seen += 1;
                stack[i] += 1;
                i = 0;
            } else {
                stack[i] = 0;
                i += 1;
            }
        }
        assert_eq!(seen, 120);
    }

    /// Filling defaults is idempotent: a spec spelled with its defaults
    /// explicit collides with the spec that omitted them, and
    /// re-canonicalizing a canonical spec is a fixed point.
    #[test]
    fn default_filling_is_idempotent() {
        let implicit = spec(&[("workload", "fft")]);
        let explicit = spec(&[
            ("kind", "point"),
            ("workload", "fft"),
            ("node", "45nm"),
            ("lanes", "1"),
            ("simplification", "1"),
            ("heterogeneity", "false"),
        ]);
        assert_eq!(canonical_string(&implicit), canonical_string(&explicit));
        assert_eq!(cache_key(&implicit), cache_key(&explicit));
        // Fixed point: canonicalizing twice changes nothing.
        assert_eq!(
            canonical_string(&implicit),
            canonical_string(&implicit.clone())
        );
    }

    /// `8` and `8.0` (and exponent spellings) are one design point.
    #[test]
    fn float_formatting_collides_to_one_key() {
        let plain = spec(&[("kind", "projection"), ("domain", "gpu"), ("horizon", "8")]);
        let decimal = spec(&[
            ("kind", "projection"),
            ("domain", "gpu"),
            ("horizon", "8.0"),
        ]);
        let exponent = spec(&[
            ("kind", "projection"),
            ("domain", "gpu"),
            ("horizon", "8e0"),
        ]);
        assert_eq!(cache_key(&plain), cache_key(&decimal));
        assert_eq!(cache_key(&plain), cache_key(&exponent));
        // And a genuinely different horizon does not collide.
        let other = spec(&[
            ("kind", "projection"),
            ("domain", "gpu"),
            ("horizon", "8.5"),
        ]);
        assert_ne!(cache_key(&plain), cache_key(&other));
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let a = spec(&[("workload", "fft")]);
        let b = spec(&[("workload", "aes")]);
        let c = spec(&[("kind", "sweep"), ("workload", "fft")]);
        assert_ne!(cache_key(&a), cache_key(&b));
        assert_ne!(cache_key(&a), cache_key(&c));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
