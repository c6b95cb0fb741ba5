//! The static injection-site roster.
//!
//! A fault plan names the *site* where each fault fires. Two families of
//! site names exist:
//!
//! * **Static sites** — fixed probe points compiled into the stack,
//!   listed in [`ROSTER`] below. The `fault-sites` rule of
//!   `accelwall lint` cross-checks this roster against the actual
//!   `probe("...")` call sites in the workspace (both directions), the
//!   same way `registry-sync` keeps `Registry::paper()` honest.
//! * **Dynamic sites** — one per experiment target: the artifact cache
//!   probes with the experiment's own id (`fig3b`, `table5`, ...) before
//!   every compute attempt, so a plan like `fig3b:err:2` targets exactly
//!   one artifact. Dynamic names are validated at arm time against the
//!   live registry roster, not by the lint.

/// One fixed probe point in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The name a fault-plan entry uses to target this probe.
    pub name: &'static str,
    /// Where the probe lives, for humans chasing a firing site.
    pub location: &'static str,
    /// What a fault fired here simulates.
    pub effect: &'static str,
}

/// `accelwall serve` probes this once per computed request (every
/// request that is not a response-cache hit), at the top of the request
/// handler: a `panic` here unwinds out of the handler (the connection
/// thread catches it, counts it, and drops the client's connection), an
/// `err` answers the request with a 500, and a `hang` holds the
/// connection thread and its compute slot for the configured duration.
pub const SERVE_REQUEST: &str = "serve-request";

/// The accepting thread probes this once per accepted connection, at
/// admission: an `err` here sheds the connection with an immediate
/// `503` + close (the same shape as the concurrent-connection cap
/// firing), and a `panic` is contained there — the connection is
/// dropped, the thread survives and keeps accepting.
pub const SERVE_CONN: &str = "serve-conn";

/// The query engine probes this before executing a cache miss: an
/// `err` here fails the compute as a retryable fault.
/// Nothing is inserted on failure, so the LRU is never poisoned.
pub const QUERY_COMPUTE: &str = "query-compute";

/// Every static site, in probe order. Dynamic (per-experiment) sites are
/// documented above and validated against the registry at arm time.
pub const ROSTER: &[Site] = &[
    Site {
        name: SERVE_REQUEST,
        location: "crates/server/src/conn.rs::answer",
        effect: "a request handler failing on its connection thread",
    },
    Site {
        name: SERVE_CONN,
        location: "crates/server/src/conn.rs::admit",
        effect: "connection-level chaos at accept (shed or dropped, the accepting thread survives)",
    },
    Site {
        name: QUERY_COMPUTE,
        location: "crates/query/src/engine.rs::QueryEngine::compute",
        effect: "a transient failure while computing a query miss",
    },
];

/// Whether `name` is one of the static sites in [`ROSTER`].
pub fn is_static(name: &str) -> bool {
    ROSTER.iter().any(|s| s.name == name)
}

/// The static site names, in roster order.
pub fn names() -> impl Iterator<Item = &'static str> {
    ROSTER.iter().map(|s| s.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_are_unique_kebab_and_described() {
        let all: Vec<&str> = names().collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate site names");
        for site in ROSTER {
            assert!(
                site.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                site.name
            );
            assert!(!site.location.is_empty());
            assert!(!site.effect.is_empty());
        }
        assert!(is_static(SERVE_REQUEST));
        assert!(!is_static("fig3b"));
    }
}
