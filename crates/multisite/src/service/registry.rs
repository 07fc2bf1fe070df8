//! The warm-session registry: content-hash-keyed LRU of [`Engine`]s with
//! memory accounting.
//!
//! The service holds one engine per distinct SOC *content*: the key is an
//! FNV-1a hash of the canonical [`write_soc`] rendering, so an inline
//! `.soc` document and a named benchmark with identical content share one
//! warm session (same table, same cached cells) regardless of how the
//! client spelled them. The sessions live in one bounded recency list
//! under the session-count and memory caps (`crate::lru`); each is
//! charged its engine's [`Engine::table_memory_bytes`] estimate, which is
//! re-assessed after every request (tables grow on demand).
//!
//! A warm lookup does not render the SOC. [`SessionRegistry::get_or_build`]
//! first compares the request's SOC with `==` against the SOC each
//! resident engine was built from. Equal SOCs render equal `.soc` text, so
//! an equal resident session is exactly the one the canonical lookup
//! would find, and it is touched and counted the same way. The compare is
//! cheap: a clone from [`crate::service::resolve_named_soc`] shares its
//! module list with the session's SOC and matches by pointer, and a
//! re-parsed copy costs one structural pass. Only when no resident SOC is
//! equal does the lookup render the canonical text and hash it, as
//! before; that path also settles in-flight builds, and a SOC that differs
//! structurally from a session's but renders the same text still shares
//! it. The canonical text stays the identity, and its hash stays the key
//! the solution cache persists.
//!
//! Cold builds are *coalesced*, not serialised: the registry lock is
//! released for the whole cold build
//! ([`EngineBuilder::try_build`](crate::engine::EngineBuilder::try_build)),
//! with a per-key in-flight marker (the leader/waiter protocol of
//! `crate::lru`, shared with [`crate::service::cache::SolutionCache`])
//! keeping duplicate builders of one SOC behind a single leader while
//! distinct SOCs build concurrently. One slow cold build therefore never
//! blocks a warm hit, and a failing or panicking leader releases its
//! waiters to retry.

use crate::engine::Engine;
use crate::error::OptimizeError;
use crate::lru::{wait, Flight, Lru};
use crate::service::cache::{SessionPointMemo, SolutionCache};
use crate::service::faults::{FaultPlan, Stage};
use soctest_soc_model::writer::write_soc;
use soctest_soc_model::Soc;
use soctest_tam::RowStore;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// FNV-1a 64-bit over the canonical SOC text — stable, dependency-free,
/// and plenty for distinguishing SOC descriptions (collisions would only
/// merge two sessions, never corrupt results... except they would serve
/// the wrong SOC, so the registry double-checks the canonical text on
/// hash hits).
pub(crate) fn fnv1a64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One resident session.
#[derive(Debug)]
struct SessionSlot {
    /// FNV-1a of `canonical` (the lookup fast path).
    hash: u64,
    /// The canonical `.soc` text (the collision-proof identity), shared
    /// with every [`SessionHandle`] so the post-run
    /// [`SessionRegistry::reassess`] can match the full key cheaply.
    canonical: Arc<str>,
    /// The warm engine.
    engine: Arc<Engine>,
}

/// Registry counters, exposed for the service's `Bye` statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegistryStats {
    /// Requests that found their session resident.
    pub hits: u64,
    /// Requests that had to build a session.
    pub misses: u64,
    /// Sessions built and admitted. A build that fails validation
    /// counts a miss but no creation.
    pub created: u64,
    /// Sessions evicted by the LRU / memory cap.
    pub evictions: u64,
    /// Currently charged bytes across all resident sessions.
    pub current_bytes: u64,
    /// Requests that blocked at least once on an identical in-flight
    /// cold build instead of starting their own.
    pub coalesced_builds: u64,
}

/// A successful [`SessionRegistry::get_or_build`]: the engine to run on,
/// whether it was already warm, and the key for the post-run
/// [`SessionRegistry::reassess`].
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The (shared) engine session.
    pub engine: Arc<Engine>,
    /// `true` when the session was already resident.
    pub warm: bool,
    /// The session's content-hash key.
    pub key: u64,
    /// The canonical `.soc` text behind `key` — the collision-proof half
    /// of the session identity, which [`SessionRegistry::reassess`]
    /// matches alongside the hash.
    pub canonical: Arc<str>,
}

/// An LRU of warm [`Engine`] sessions keyed by SOC content hash, bounded
/// by a session count and a memory cap. See the [module docs](self).
#[derive(Debug)]
pub struct SessionRegistry {
    inner: Mutex<RegistryInner>,
    /// Signalled whenever a cold-build leader finishes (successfully or
    /// not) so waiters re-check the slots.
    build_ready: Condvar,
    /// When set, every built engine shares this row store, so module
    /// time rows survive session eviction and are shared across SOCs
    /// with equal-shaped modules.
    row_store: Option<Arc<RowStore>>,
    /// When set, every built engine gets a point-level memo view of this
    /// cache bound to its SOC hash, so sweep points and plain requests
    /// share one `(soc, canonical config)` namespace.
    solution_cache: Option<Arc<SolutionCache>>,
    /// The armed fault plan ([`Stage::Build`] fires on the cold-build
    /// path); empty in production.
    faults: FaultPlan,
}

#[derive(Debug)]
struct RegistryInner {
    /// The resident sessions, each charged its last-assessed
    /// [`Engine::table_memory_bytes`].
    slots: Lru<SessionSlot>,
    /// Keys whose cold build is currently led by some caller.
    inflight: Vec<(u64, Arc<str>)>,
    stats: RegistryStats,
}

impl RegistryInner {
    /// Serves a warm hit on the first slot `matches` accepts: touches it
    /// (moves it to the hot end) and counts the hit.
    fn hit(&mut self, matches: impl FnMut(&SessionSlot) -> bool) -> Option<SessionHandle> {
        let slot = self.slots.touch(matches)?;
        let handle = SessionHandle {
            engine: Arc::clone(&slot.engine),
            warm: true,
            key: slot.hash,
            canonical: Arc::clone(&slot.canonical),
        };
        self.stats.hits += 1;
        Some(handle)
    }
}

impl SessionRegistry {
    /// An empty registry holding at most `max_sessions` sessions and at
    /// most `max_table_bytes` of charged table memory (both clamped to at
    /// least one session).
    pub fn new(max_sessions: usize, max_table_bytes: u64) -> Self {
        SessionRegistry {
            inner: Mutex::new(RegistryInner {
                slots: Lru::new(max_sessions, max_table_bytes),
                inflight: Vec::new(),
                stats: RegistryStats::default(),
            }),
            build_ready: Condvar::new(),
            row_store: None,
            solution_cache: None,
            faults: FaultPlan::default(),
        }
    }

    /// Arms `faults` on this registry's cold-build path
    /// ([`Stage::Build`] fires with the SOC name as the pseudo request
    /// id, after the in-flight marker is planted and the lock released).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Gives every engine built by this registry a point-level memo view
    /// of `cache` bound to its SOC hash (see
    /// [`crate::engine::EngineBuilder::point_memo`]): sweep points and
    /// plain requests then share one `(soc, canonical config)` namespace.
    #[must_use]
    pub fn with_solution_cache(mut self, cache: Arc<SolutionCache>) -> Self {
        self.solution_cache = Some(cache);
        self
    }

    /// Like [`SessionRegistry::new`], but every built engine shares
    /// `store` for its module time rows (see
    /// [`crate::engine::EngineBuilder::row_store`]): evicting and
    /// rebuilding a session no longer loses its computed cells.
    pub fn with_row_store(max_sessions: usize, max_table_bytes: u64, store: Arc<RowStore>) -> Self {
        SessionRegistry {
            row_store: Some(store),
            ..SessionRegistry::new(max_sessions, max_table_bytes)
        }
    }

    /// Returns the warm session for `soc`'s content, building (and
    /// admitting) one if absent. Eviction runs after an admission. A
    /// resident session whose SOC equals `soc` is found without rendering
    /// `soc` (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`OptimizeError::InvalidSoc`] when a fresh build is needed and the
    /// SOC fails validation (via [`crate::engine::EngineBuilder::try_build`]) —
    /// nothing is admitted in that case.
    pub fn get_or_build(&self, soc: &Soc) -> Result<SessionHandle, OptimizeError> {
        if let Some(handle) = self.lock().hit(|slot| slot.engine.soc() == soc) {
            return Ok(handle);
        }
        let canonical: Arc<str> = write_soc(soc).into();
        let hash = fnv1a64(&canonical);
        let matches = |slot: &SessionSlot| slot.hash == hash && slot.canonical == canonical;
        let mut waited = false;
        let mut inner = self.lock();
        loop {
            if let Some(handle) = inner.hit(matches) {
                // A waiter that wakes to find the leader's slot counts
                // as a plain hit — same observable outcome as the old
                // serialized behaviour.
                return Ok(handle);
            }

            let in_flight = inner
                .inflight
                .iter()
                .any(|(h, c)| *h == hash && *c == canonical);
            if in_flight {
                // An identical build is running: wait for its guard to
                // notify, then re-check. A failed leader leaves no slot,
                // so the next waiter through becomes the new leader.
                if !waited {
                    waited = true;
                    inner.stats.coalesced_builds += 1;
                }
                inner = wait(&self.build_ready, inner);
                continue;
            }

            // Lead: plant the in-flight marker, drop the lock, build.
            inner.stats.misses += 1;
            let _flight = Flight::lead(
                &self.inner,
                &self.build_ready,
                inner,
                |inner| &mut inner.inflight,
                (hash, Arc::clone(&canonical)),
            );
            // The guard's Drop clears the marker and wakes waiters on
            // the error return below and on unwind alike.
            let engine = Arc::new(self.build_engine(soc, hash)?);
            let bytes = engine.table_memory_bytes();
            let slot = SessionSlot {
                hash,
                canonical: Arc::clone(&canonical),
                engine: Arc::clone(&engine),
            };
            let mut inner = self.lock();
            // Double-checked insert: never stack a duplicate slot.
            inner.slots.remove(matches);
            inner.stats.created += 1;
            inner.stats.evictions += inner.slots.push(slot, bytes);
            drop(inner);
            return Ok(SessionHandle {
                engine,
                warm: false,
                key: hash,
                canonical,
            });
        }
    }

    /// The lock-free part of a cold build: fire the [`Stage::Build`]
    /// fault (keyed by SOC name), then run [`Engine::try_build`] wired
    /// to the shared row store and solution cache.
    fn build_engine(&self, soc: &Soc, hash: u64) -> Result<Engine, OptimizeError> {
        self.faults.fire(Stage::Build, soc.name());
        let mut builder = Engine::builder(soc);
        if let Some(store) = &self.row_store {
            builder = builder.row_store(Arc::clone(store));
        }
        if let Some(cache) = &self.solution_cache {
            builder = builder.point_memo(Arc::new(SessionPointMemo::new(Arc::clone(cache), hash)));
        }
        builder.try_build()
    }

    /// Re-assesses a session's memory charge after a request ran (its
    /// table may have grown or been rebuilt wider) and re-applies the
    /// caps. A no-op for sessions already evicted. Matches the full
    /// `(hash, canonical)` key — on an FNV-1a collision the charge must
    /// land on the session that actually ran, not a hash twin.
    pub fn reassess(&self, key: u64, canonical: &str) {
        let mut inner = self.lock();
        inner.stats.evictions += inner.slots.recharge(
            |slot| slot.hash == key && slot.canonical.as_ref() == canonical,
            |slot| slot.engine.table_memory_bytes(),
        );
    }

    /// Current counters (bytes read from the running charge total).
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.current_bytes = inner.slots.bytes();
        stats
    }

    /// Number of resident sessions.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // A panicking request can never leave the registry mid-mutation (all
    // mutations happen outside the optimizer's unwind path), so poisoning
    // only records that *some* thread panicked — recover the data.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctest_soc_model::benchmarks::{d695, p22810};
    use soctest_soc_model::parser::parse_soc;
    use soctest_soc_model::{Module, Soc};
    use std::time::Duration;

    #[test]
    fn same_content_shares_a_session_across_spellings() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let first = registry.get_or_build(&d695()).unwrap();
        assert!(!first.warm);
        // A re-parsed copy has identical canonical text.
        let reparsed = parse_soc(&write_soc(&d695())).expect("round trip");
        let second = registry.get_or_build(&reparsed).unwrap();
        assert!(second.warm);
        assert!(Arc::ptr_eq(&first.engine, &second.engine));
        assert_eq!(registry.len(), 1);
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (1, 1, 1));
    }

    #[test]
    fn catalogue_clones_reparsed_copies_and_inline_spellings_share_a_session() {
        use crate::service::resolve_named_soc;
        let registry = SessionRegistry::new(4, u64::MAX);
        let first = registry
            .get_or_build(&resolve_named_soc("d695").unwrap())
            .unwrap();
        assert!(!first.warm);
        let text = write_soc(&d695());
        let reparsed = parse_soc(&text).unwrap();
        // Another spelling of the same content: a comment, no generator
        // line, and the default `kind logic` left out.
        let respelled: String = std::iter::once("# d695, spelled by hand")
            .chain(
                text.lines()
                    .filter(|line| !line.starts_with('#') && line.trim() != "kind logic"),
            )
            .map(|line| format!("{line}\n"))
            .collect();
        assert_ne!(respelled, text);
        let inline = parse_soc(&respelled).unwrap();
        for soc in [reparsed, inline, resolve_named_soc("d695").unwrap()] {
            let handle = registry.get_or_build(&soc).unwrap();
            assert!(handle.warm);
            assert!(Arc::ptr_eq(&handle.engine, &first.engine));
            assert_eq!(
                (handle.key, &handle.canonical),
                (first.key, &first.canonical)
            );
        }
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (3, 1, 1));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn a_soc_that_differs_in_one_chain_length_misses() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let original = registry.get_or_build(&d695()).unwrap();
        // Same name and shape, one scan chain one flip-flop longer.
        let text = write_soc(&d695());
        let line = text
            .lines()
            .find(|line| line.trim_start().starts_with("scanchains "))
            .expect("d695 has scan chains");
        let mut lengths = line.split_whitespace().skip(1);
        let first: u64 = lengths.next().unwrap().parse().unwrap();
        let longer = ["  scanchains".to_string(), (first + 1).to_string()]
            .into_iter()
            .chain(lengths.map(str::to_string))
            .collect::<Vec<_>>()
            .join(" ");
        let changed = parse_soc(&text.replacen(line, &longer, 1)).unwrap();
        assert_eq!(changed.name(), d695().name());
        assert_ne!(changed, d695());
        let handle = registry.get_or_build(&changed).unwrap();
        assert!(!handle.warm);
        assert!(!Arc::ptr_eq(&handle.engine, &original.engine));
        assert_ne!(handle.key, original.key);
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (0, 2, 2));
    }

    #[test]
    fn growing_a_catalogue_clone_leaves_the_catalogue_and_its_session_alone() {
        use crate::service::resolve_named_soc;
        let registry = SessionRegistry::new(4, u64::MAX);
        let session = registry
            .get_or_build(&resolve_named_soc("d695").unwrap())
            .unwrap();
        let mut grown = resolve_named_soc("d695").unwrap();
        grown.push_module(
            Module::builder("extra")
                .patterns(3)
                .inputs(2)
                .outputs(2)
                .build(),
        );
        assert_eq!(resolve_named_soc("d695").unwrap(), d695());
        assert_eq!(session.engine.soc(), &d695());
        assert!(!registry.get_or_build(&grown).unwrap().warm);
        assert!(
            registry
                .get_or_build(&resolve_named_soc("d695").unwrap())
                .unwrap()
                .warm
        );
    }

    #[test]
    fn equal_text_shares_a_session_even_when_the_socs_differ() {
        // The canonical text is the identity: a SOC whose name smuggles
        // in every module line of d695 has no modules of its own, yet
        // renders d695's exact text, so it shares d695's session.
        let registry = SessionRegistry::new(4, u64::MAX);
        let original = registry.get_or_build(&d695()).unwrap();
        let text = write_soc(&d695());
        let header = "# generated by soctest-soc-model\nsoc ";
        let name = text
            .strip_prefix(header)
            .unwrap()
            .strip_suffix('\n')
            .unwrap();
        let lookalike = Soc::new(name);
        assert_ne!(lookalike, d695());
        assert_eq!(write_soc(&lookalike), text);
        let handle = registry.get_or_build(&lookalike).unwrap();
        assert!(handle.warm);
        assert!(Arc::ptr_eq(&handle.engine, &original.engine));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.created), (1, 1, 1));
    }

    #[test]
    fn session_cap_evicts_least_recently_used() {
        let registry = SessionRegistry::new(2, u64::MAX);
        registry.get_or_build(&d695()).unwrap(); // [d695]
        registry.get_or_build(&p22810()).unwrap(); // [d695, p22810]
        assert!(registry.get_or_build(&d695()).unwrap().warm); // [p22810, d695]
        let mut third = Soc::new("third");
        third.push_module(
            Module::builder("m")
                .patterns(3)
                .inputs(2)
                .outputs(2)
                .build(),
        );
        registry.get_or_build(&third).unwrap(); // evicts p22810
        assert_eq!(registry.len(), 2);
        assert!(registry.get_or_build(&d695()).unwrap().warm);
        assert!(!registry.get_or_build(&p22810()).unwrap().warm);
        assert!(registry.stats().evictions >= 1);
    }

    #[test]
    fn memory_cap_keeps_at_most_the_hottest_session() {
        let registry = SessionRegistry::new(8, 1); // 1 byte: everything is oversized
        assert!(!registry.get_or_build(&d695()).unwrap().warm);
        // The single oversized session stays resident (never evict the
        // hottest slot) — so a re-request is warm...
        assert!(registry.get_or_build(&d695()).unwrap().warm);
        // ...but admitting a second SOC evicts the first.
        assert!(!registry.get_or_build(&p22810()).unwrap().warm);
        assert_eq!(registry.len(), 1);
        assert!(!registry.get_or_build(&d695()).unwrap().warm);
    }

    #[test]
    fn invalid_soc_is_rejected_and_not_admitted() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let err = registry.get_or_build(&Soc::new("empty")).unwrap_err();
        assert!(matches!(err, OptimizeError::InvalidSoc { .. }));
        assert!(registry.is_empty());
        let stats = registry.stats();
        assert_eq!(stats.created, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn reassess_recharges_grown_tables() {
        let registry = SessionRegistry::new(4, u64::MAX);
        let handle = registry.get_or_build(&d695()).unwrap();
        let before = registry.stats().current_bytes;
        // Widen the table by serving a request.
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        handle
            .engine
            .run(&OptimizeRequest::new(OptimizerConfig::new(cell)))
            .unwrap();
        registry.reassess(handle.key, &handle.canonical);
        assert!(registry.stats().current_bytes > before);
    }

    #[test]
    fn reassess_matches_the_full_key_not_just_the_hash() {
        // Force a hash collision by inserting two slots under the same
        // fake hash with different canonical texts: reassessing one must
        // not recharge (or evict through) the other.
        let registry = SessionRegistry::new(4, u64::MAX);
        // Two *instances* (the SOC content is irrelevant here — the slot
        // keys are faked below, only the tables' charges matter).
        let engine_a = Arc::new(Engine::builder(&d695()).try_build().unwrap());
        let engine_b = Arc::new(Engine::builder(&d695()).try_build().unwrap());
        {
            let mut inner = registry.lock();
            inner.slots.push(
                SessionSlot {
                    hash: 42,
                    canonical: "a".into(),
                    engine: Arc::clone(&engine_a),
                },
                7,
            );
            inner.slots.push(
                SessionSlot {
                    hash: 42,
                    canonical: "b".into(),
                    engine: Arc::clone(&engine_b),
                },
                7,
            );
        }
        // Widen b's table by serving a request on it.
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let cell = TestCell::new(
            AteSpec::new(256, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        engine_b
            .run(&OptimizeRequest::new(OptimizerConfig::new(cell)))
            .unwrap();
        registry.reassess(42, "b");
        let inner = registry.lock();
        let charge = |canonical: &str| {
            inner
                .slots
                .iter()
                .find(|(slot, _)| slot.canonical.as_ref() == canonical)
                .map(|(_, bytes)| bytes)
                .unwrap()
        };
        assert_eq!(charge("a"), 7, "hash twin must keep its stale charge");
        assert!(charge("b") > 7, "the session that ran must be recharged");
    }

    #[test]
    fn concurrent_cold_builds_of_distinct_socs_overlap() {
        use std::time::Instant;
        let plan = FaultPlan::parse("build:delay:600").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        let start = Instant::now();
        std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&d695()).unwrap());
            let b = scope.spawn(move || r2.get_or_build(&p22810()).unwrap());
            a.join().unwrap();
            b.join().unwrap();
        });
        let elapsed = start.elapsed();
        // Serialized builds would take >= 1200ms of injected delay alone;
        // concurrent ones pay it once (plus real build time).
        assert!(
            elapsed < Duration::from_millis(1100),
            "distinct-SOC cold builds serialized: {elapsed:?}"
        );
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.created), (2, 2));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn concurrent_same_soc_builds_coalesce_onto_one_leader() {
        let plan = FaultPlan::parse("build:delay:300").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        let (first, second) = std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&d695()).unwrap());
            // Give the first thread time to become the leader.
            std::thread::sleep(Duration::from_millis(50));
            let b = scope.spawn(move || r2.get_or_build(&d695()).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&first.engine, &second.engine));
        let stats = registry.stats();
        assert_eq!((stats.misses, stats.created), (1, 1));
        assert_eq!(stats.hits, 1, "the waiter lands as a warm hit");
        assert!(stats.coalesced_builds >= 1);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn failed_build_releases_waiters_to_retry() {
        let plan = FaultPlan::parse("build:delay:200@empty").unwrap();
        let registry = Arc::new(SessionRegistry::new(4, u64::MAX).with_faults(plan));
        std::thread::scope(|scope| {
            let r1 = Arc::clone(&registry);
            let r2 = Arc::clone(&registry);
            let a = scope.spawn(move || r1.get_or_build(&Soc::new("empty")).unwrap_err());
            std::thread::sleep(Duration::from_millis(50));
            let b = scope.spawn(move || r2.get_or_build(&Soc::new("empty")).unwrap_err());
            assert!(matches!(
                a.join().unwrap(),
                OptimizeError::InvalidSoc { .. }
            ));
            assert!(matches!(
                b.join().unwrap(),
                OptimizeError::InvalidSoc { .. }
            ));
        });
        let stats = registry.stats();
        // Both callers ended up leading a (failed) build.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.created, 0);
        assert!(registry.is_empty());
        assert!(registry.lock().inflight.is_empty());
    }

    #[test]
    fn threaded_operations_keep_the_charges_exact_and_the_caps_held() {
        // Four threads build, run and reassess five small SOCs under a
        // two-session cap and a byte cap about one and a half grown
        // tables wide. After the join every resident charge equals its
        // engine's table memory now (each run is followed by its
        // reassess), the running total equals that re-walk, the caps
        // hold, no flight is left behind, and every session created is
        // resident or counted evicted.
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let request = |channels: usize| {
            let cell = TestCell::new(
                AteSpec::new(channels, 96 * 1024, 5.0e6),
                ProbeStation::paper_probe_station(),
            );
            OptimizeRequest::new(OptimizerConfig::new(cell))
        };
        let socs: Vec<Soc> = (1..=5u64)
            .map(|k| {
                let mut soc = Soc::new(format!("tiny{k}"));
                soc.push_module(
                    Module::builder("m")
                        .patterns(3 + k)
                        .inputs(2)
                        .outputs(2)
                        .scan_chain(8 * k)
                        .build(),
                );
                soc
            })
            .collect();
        let grown = Engine::builder(&socs[4]).try_build().unwrap();
        grown.run(&request(64)).unwrap();
        let max_bytes = grown.table_memory_bytes() * 3 / 2;
        let registry = Arc::new(SessionRegistry::new(2, max_bytes));
        std::thread::scope(|scope| {
            for seed in 1..=4u64 {
                let (registry, socs) = (&registry, &socs);
                scope.spawn(move || {
                    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    let mut next = |bound: u64| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % bound
                    };
                    for _ in 0..25 {
                        let soc = &socs[next(socs.len() as u64) as usize];
                        let handle = registry.get_or_build(soc).unwrap();
                        let channels = 16 + 16 * next(4) as usize;
                        handle.engine.run(&request(channels)).unwrap();
                        registry.reassess(handle.key, &handle.canonical);
                    }
                });
            }
        });
        let stats = registry.stats();
        let inner = registry.lock();
        let mut rewalk = 0;
        for (slot, charge) in inner.slots.iter() {
            assert_eq!(charge, slot.engine.table_memory_bytes());
            rewalk += charge;
        }
        assert_eq!(stats.current_bytes, rewalk);
        let resident = inner.slots.len() as u64;
        assert!(
            resident <= 1 || (resident <= 2 && rewalk <= max_bytes),
            "{resident} sessions of {rewalk} bytes are over a cap"
        );
        assert!(stats.evictions > 0, "the caps were exercised");
        assert!(inner.inflight.is_empty());
        assert_eq!(stats.created, resident + stats.evictions);
    }

    #[test]
    fn shared_row_store_survives_eviction_and_rebuild() {
        use crate::engine::OptimizeRequest;
        use crate::problem::OptimizerConfig;
        use soctest_ate::{AteSpec, ProbeStation, TestCell};
        let store = Arc::new(RowStore::new());
        let registry = SessionRegistry::with_row_store(1, u64::MAX, Arc::clone(&store));
        let cell = TestCell::new(
            AteSpec::new(128, 96 * 1024, 5.0e6),
            ProbeStation::paper_probe_station(),
        );
        let request = OptimizeRequest::new(OptimizerConfig::new(cell));
        let first = registry.get_or_build(&d695()).unwrap();
        let expected = first.engine.run(&request).unwrap();
        let computed_cold = store.stats().cells_computed;
        assert!(computed_cold > 0);
        // Evict d695 by admitting a second SOC into the 1-session cap...
        registry.get_or_build(&p22810()).unwrap();
        // ...then rebuild it: the fresh engine pulls every cell from the
        // shared store instead of recomputing, bit-identically.
        let rebuilt = registry.get_or_build(&d695()).unwrap();
        assert!(!rebuilt.warm);
        assert_eq!(rebuilt.engine.run(&request).unwrap(), expected);
        assert_eq!(store.stats().cells_computed, computed_cold);
    }

    #[test]
    fn fnv_hash_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64("soc a\n"), fnv1a64("soc b\n"));
    }
}
