//! The injection sites.
//!
//! A fault plan names the *site* where each fault fires, and every
//! probe passes a [`Site`]. Two families of site exist:
//!
//! * **Static sites** — fixed probe points compiled into the stack, the
//!   unit variants of [`Site`], listed in [`Site::STATIC`]. A probe can
//!   only name a variant that exists, so a misspelt static site does
//!   not compile; `tests/faults.rs` arms each listed site and drives the
//!   server until it fires, so a listed site that nothing probes fails
//!   the suite.
//! * **Dynamic sites** — one per experiment target: the artifact cache
//!   probes [`Site::Experiment`] with the experiment's own id (`fig3b`,
//!   `table5`, ...) before every compute attempt, so a plan like
//!   `fig3b:err:2` targets exactly one artifact. Dynamic names are
//!   validated at arm time against the live registry roster.

/// One probe point in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `serve-request`, in `crates/server/src/conn.rs::answer`: a
    /// request handler failing on its connection thread. Probed once
    /// per computed request (every request that is not a response-cache
    /// hit), at the top of the handler: a `panic` unwinds out of the
    /// handler (the connection thread catches it, counts it, and drops
    /// the client's connection), an `err` answers the request with a
    /// 500, and a `hang` holds the connection thread and its compute
    /// slot for the configured duration.
    ServeRequest,
    /// `serve-conn`, in `crates/server/src/conn.rs::admit`:
    /// connection-level chaos at accept. Probed once per accepted
    /// connection, at admission: an `err` sheds the connection with an
    /// immediate `503` + close (the same shape as the
    /// concurrent-connection cap firing), and a `panic` is contained
    /// there — the connection is dropped, the accepting thread survives
    /// and keeps accepting.
    ServeConn,
    /// `query-compute`, in `crates/query/src/engine.rs::QueryEngine::compute`:
    /// a transient failure while computing a query miss. An `err` fails
    /// the compute as a retryable fault; nothing is inserted on
    /// failure, so the LRU is never poisoned.
    QueryCompute,
    /// The dynamic site of one experiment, named by its registry id.
    Experiment(&'static str),
}

impl Site {
    /// Every static site, in probe order. A new unit variant belongs
    /// here, or no plan can arm it.
    pub const STATIC: [Site; 3] = [Site::ServeRequest, Site::ServeConn, Site::QueryCompute];

    /// The name a fault-plan entry uses to target this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::ServeRequest => "serve-request",
            Site::ServeConn => "serve-conn",
            Site::QueryCompute => "query-compute",
            Site::Experiment(id) => id,
        }
    }
}

/// Whether `name` is one of the static sites in [`Site::STATIC`].
pub fn is_static(name: &str) -> bool {
    names().any(|s| s == name)
}

/// The static site names, in roster order.
pub fn names() -> impl Iterator<Item = &'static str> {
    Site::STATIC.into_iter().map(Site::name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_names_are_unique_and_kebab() {
        let all: Vec<&str> = names().collect();
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate site names");
        for name in all {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
        }
        assert!(is_static(Site::ServeRequest.name()));
        assert!(!is_static("fig3b"));
        assert_eq!(Site::Experiment("fig3b").name(), "fig3b");
    }
}
