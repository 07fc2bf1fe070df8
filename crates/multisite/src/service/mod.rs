//! The fault-tolerant streaming optimizer service behind the
//! `soc-serve` binary.
//!
//! Where [`crate::engine::Engine::run_batch`] answers one closed batch
//! for one SOC, this layer keeps a *persistent* server alive across many
//! SOCs and many clients' worth of requests on an NDJSON stdin/stdout
//! stream:
//!
//! * [`protocol`] — the typed wire frames ([`ClientFrame`] in,
//!   [`ServerFrame`] out), strict about unknown fields;
//! * [`registry`] — the content-hash-keyed LRU of warm [`Engine`]
//!   sessions with memory accounting ([`SessionRegistry`]);
//! * [`cancel`] — cooperative [`CancelToken`]s: `Cancel` frames and
//!   per-request deadlines observed at sweep-point *and* table-row
//!   granularity;
//! * [`cache`] — the content-addressed [`SolutionCache`]: exact-hit
//!   `(SOC, canonical request) → response` memoisation with in-flight
//!   coalescing, so identical concurrent requests share one
//!   computation;
//! * [`server`] — the [`Server`] loop itself: bounded admission with
//!   typed `Overloaded` shedding, per-request panic isolation, graceful
//!   drain with a final `Bye` statistics frame;
//! * [`transport`] — the socket front-end: a Unix-domain (or TCP)
//!   listener where every accepted connection runs the same NDJSON
//!   protocol as an independent session over one shared [`Server`] —
//!   one registry, one row store, one solution cache, one bounded
//!   admission queue drained by a shared executor pool;
//! * [`faults`] — the env-gated [`FaultPlan`] harness that injects
//!   panics, delays, and allocation pressure to prove the above.
//!
//! [`Engine`]: crate::engine::Engine

pub mod cache;
pub mod cancel;
pub mod faults;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod transport;

pub use cache::{
    canonical_request, CacheOutcome, SessionPointMemo, SolutionCache, SolutionCacheStats,
};
pub use cancel::CancelToken;
pub use faults::{FaultPlan, Stage, FAULTS_ENV_VAR};
pub use protocol::{
    parse_client_frame, render_server_frame, CacheStats, ClientFrame, ConnectionStats, ErrorFrame,
    ErrorKind, OptimizeFrame, Provenance, RequestStats, ResultFrame, ServerFrame, ServerStats,
    SocSpec, TraceSummary,
};
pub use registry::{RegistryStats, SessionHandle, SessionRegistry};
pub use server::{Server, ServerConfig, DEFAULT_MAX_STORE_BYTES, ROWS_FILE, SOLUTIONS_FILE};
pub use transport::{BoundListener, ClientStream, ListenAddr, TransportConfig, TransportStats};

use soctest_soc_model::synthetic::pnx8550_like;
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::{benchmarks, Soc, SocModelError};
use std::sync::OnceLock;

/// Every name [`resolve_named_soc`] accepts, in documentation order.
const NAMED_SOCS: [&str; 5] = ["d695", "p22810", "p34392", "p93791", "pnx8550_like"];

/// The named SOCs, each built once on first use.
fn named_socs() -> &'static [(&'static str, Soc)] {
    static SOCS: OnceLock<Vec<(&'static str, Soc)>> = OnceLock::new();
    SOCS.get_or_init(|| {
        NAMED_SOCS
            .into_iter()
            .map(|name| {
                let soc = if name == "pnx8550_like" {
                    pnx8550_like()
                } else {
                    benchmarks::by_name(name).expect("catalogue names are embedded benchmarks")
                };
                (name, soc)
            })
            .collect()
    })
}

/// Resolves a [`SocSpec::Named`] SOC: one of the embedded ITC'02
/// benchmarks (`d695`, `p22810`, `p34392`, `p93791`) or the synthetic
/// `pnx8550_like` stand-in.
///
/// Each design is built once per process; this returns a clone that
/// shares the built module list, which costs a name copy and a
/// reference-count bump. A warm [`SessionRegistry::get_or_build`] on
/// such a clone matches its session by pointer.
///
/// # Errors
///
/// Returns a human-readable message listing the known names.
pub fn resolve_named_soc(name: &str) -> Result<Soc, String> {
    if let Some((_, soc)) = named_socs().iter().find(|(known, _)| *known == name) {
        return Ok(soc.clone());
    }
    let err = SocModelError::UnknownBenchmark {
        name: name.to_string(),
    };
    Err(format!(
        "unknown SOC {name:?} ({err}); known: d695, p22810, p34392, p93791, pnx8550_like"
    ))
}

/// One row of [`named_soc_catalogue`]: a named SOC the service can
/// resolve, with the identity the session registry would key it by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedSoc {
    /// The wire name ([`SocSpec::Named`]).
    pub name: &'static str,
    /// Number of modules in the design.
    pub modules: usize,
    /// FNV-1a 64-bit hash of the canonical `.soc` rendering — the same
    /// content hash the [`SessionRegistry`] keys warm sessions by, so
    /// two servers printing the same hash serve bit-identical designs.
    pub content_hash: u64,
}

/// The shared named-SOC catalogue behind `--list-socs` in `soc-serve`
/// and `soc-batch`: every name [`resolve_named_soc`] accepts, in the
/// order the error message documents them.
pub fn named_soc_catalogue() -> Vec<NamedSoc> {
    named_socs()
        .iter()
        .map(|(name, soc)| NamedSoc {
            name,
            modules: soc.modules().len(),
            content_hash: registry::fnv1a64(&write_soc(soc)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_the_resolver_and_is_stable() {
        let catalogue = named_soc_catalogue();
        assert_eq!(catalogue.len(), 5);
        for entry in &catalogue {
            assert!(entry.modules > 0, "{} has modules", entry.name);
            assert_ne!(entry.content_hash, 0, "{} has a hash", entry.name);
            // The hash is the registry's identity: recomputing from a
            // fresh resolve must agree.
            let again = resolve_named_soc(entry.name).unwrap();
            assert_eq!(entry.content_hash, registry::fnv1a64(&write_soc(&again)));
        }
        // Distinct designs, distinct identities.
        let mut hashes: Vec<u64> = catalogue.iter().map(|e| e.content_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), catalogue.len());
    }

    #[test]
    fn every_documented_name_resolves() {
        for name in ["d695", "p22810", "p34392", "p93791", "pnx8550_like"] {
            assert!(resolve_named_soc(name).is_ok(), "{name} must resolve");
        }
    }

    #[test]
    fn resolved_socs_equal_a_fresh_build() {
        assert_eq!(resolve_named_soc("pnx8550_like").unwrap(), pnx8550_like());
        for name in ["d695", "p22810", "p34392", "p93791"] {
            assert_eq!(
                resolve_named_soc(name).unwrap(),
                benchmarks::by_name(name).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_names_list_the_catalogue() {
        let err = resolve_named_soc("nope").unwrap_err();
        assert!(err.contains("nope"));
        assert!(err.contains("pnx8550_like"));
    }
}
