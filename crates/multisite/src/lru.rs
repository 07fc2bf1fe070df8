//! The one bounded recency list behind every resident cache, and the one
//! leader/waiter protocol that coalesces identical in-flight work.
//!
//! An [`Lru`] keeps its items coldest first, each with a byte charge,
//! under an item cap and a byte cap. Its running byte total is exact:
//! every push, removal, recharge and eviction adjusts it, so no caller
//! re-sums the list. Whenever an operation leaves the list over either
//! cap, the coldest items are evicted until it fits, but the hottest item
//! is always spared: one item larger than the byte cap may stay resident
//! alone, and an item cap of zero acts as one. Lookups are linear scans
//! with a caller's predicate, which is cheap at the caps the service runs
//! with. The solution cache keeps two lists (whole requests and sweep
//! points), the session registry one of warm engines, and each engine's
//! plan memo one of depth plans.
//!
//! The solution cache and the session registry also coalesce identical
//! in-flight work. The first caller to miss a key leads: [`Flight::lead`]
//! plants the key in an in-flight list kept under the owner's lock and
//! releases the lock. Later callers of the same key see the key and
//! [`wait`] on the owner's condvar, then re-check. Dropping the leader's
//! [`Flight`] removes the key and wakes every waiter, after a success, an
//! error return or an unwind alike, so a failed or panicking leader never
//! strands its waiters: the first waiter to re-check leads next.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A recency list under an item cap and a byte cap. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Lru<T> {
    /// The items, coldest first, each with its byte charge.
    items: Vec<(T, u64)>,
    /// The sum of the charges in `items`.
    bytes: u64,
    max_items: usize,
    max_bytes: u64,
}

impl<T> Lru<T> {
    /// An empty list holding at most `max_items` items and `max_bytes` of
    /// charge, always sparing the hottest item.
    pub(crate) fn new(max_items: usize, max_bytes: u64) -> Self {
        Lru {
            items: Vec::new(),
            bytes: 0,
            max_items,
            max_bytes,
        }
    }

    /// Number of resident items.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The running total of the resident items' charges.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The items with their charges, coldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&T, u64)> {
        self.items.iter().map(|(item, bytes)| (item, *bytes))
    }

    /// The first item `matches` accepts, moved to the hot end.
    pub(crate) fn touch(&mut self, matches: impl FnMut(&T) -> bool) -> Option<&T> {
        let position = self.position(matches)?;
        self.items[position..].rotate_left(1);
        self.items.last().map(|(item, _)| item)
    }

    /// Admits `item` at the hot end, charged `bytes`, then applies the
    /// caps. Returns the number of items evicted.
    pub(crate) fn push(&mut self, item: T, bytes: u64) -> u64 {
        self.append(item, bytes);
        self.trim()
    }

    /// Admits `item` at the hot end, charged `bytes`, without applying
    /// the caps: a bulk merge appends every item, then calls
    /// [`Lru::trim`] once.
    pub(crate) fn append(&mut self, item: T, bytes: u64) {
        self.items.push((item, bytes));
        self.bytes += bytes;
    }

    /// Removes and returns the first item `matches` accepts.
    pub(crate) fn remove(&mut self, matches: impl FnMut(&T) -> bool) -> Option<T> {
        let position = self.position(matches)?;
        let (item, bytes) = self.items.remove(position);
        self.bytes -= bytes;
        Some(item)
    }

    /// Charges the first item `matches` accepts `charge(item)` in place,
    /// leaving its recency alone, then applies the caps. Returns the
    /// number of items evicted.
    pub(crate) fn recharge(
        &mut self,
        matches: impl FnMut(&T) -> bool,
        charge: impl FnOnce(&T) -> u64,
    ) -> u64 {
        if let Some(position) = self.position(matches) {
            let (item, bytes) = &mut self.items[position];
            let fresh = charge(item);
            self.bytes = self.bytes - *bytes + fresh;
            *bytes = fresh;
        }
        self.trim()
    }

    /// Evicts coldest-first while over either cap, sparing the hottest
    /// item. Returns the number of items evicted.
    pub(crate) fn trim(&mut self) -> u64 {
        let mut evicted = 0;
        while (self.items.len() > self.max_items || self.bytes > self.max_bytes)
            && self.items.len() > 1
        {
            let (_, bytes) = self.items.remove(0);
            self.bytes -= bytes;
            evicted += 1;
        }
        debug_assert_eq!(self.bytes, self.items.iter().map(|(_, b)| b).sum::<u64>());
        evicted
    }

    fn position(&self, mut matches: impl FnMut(&T) -> bool) -> Option<usize> {
        self.items.iter().position(|(item, _)| matches(item))
    }
}

/// How long a waiter sleeps between re-checks while a leader runs. It
/// bounds only wake-up races and how late a waiter sees its own
/// cancellation: a leader's [`Flight`] wakes its waiters the moment it
/// ends.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Releases `held` and blocks on `ready` for at most one wait slice, then
/// returns the re-acquired lock; the caller re-checks its key.
pub(crate) fn wait<'a, S>(ready: &Condvar, held: MutexGuard<'a, S>) -> MutexGuard<'a, S> {
    ready
        .wait_timeout(held, WAIT_SLICE)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// A leader's claim on one in-flight key. See the [module docs](self).
pub(crate) struct Flight<'a, S, K: PartialEq> {
    state: &'a Mutex<S>,
    ready: &'a Condvar,
    /// The owner's in-flight list within its locked state.
    flights: fn(&mut S) -> &mut Vec<K>,
    key: K,
}

impl<'a, S, K: PartialEq + Clone> Flight<'a, S, K> {
    /// Plants `key` in the in-flight list of `held`, the lock of `state`,
    /// and releases the lock. The caller leads `key` until the returned
    /// guard drops, which removes the key and notifies `ready`.
    pub(crate) fn lead(
        state: &'a Mutex<S>,
        ready: &'a Condvar,
        mut held: MutexGuard<'_, S>,
        flights: fn(&mut S) -> &mut Vec<K>,
        key: K,
    ) -> Self {
        flights(&mut held).push(key.clone());
        Flight {
            state,
            ready,
            flights,
            key,
        }
    }
}

impl<S, K: PartialEq> Drop for Flight<'_, S, K> {
    fn drop(&mut self) {
        // The owners recover poisoned locks the same way: the in-flight
        // list is only ever pushed to or filtered whole.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (self.flights)(&mut state).retain(|key| *key != self.key);
        drop(state);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive model: a plain list, with the caps re-applied from
    /// scratch after every operation by keeping the longest hot-end
    /// suffix within both caps (at least one item). Returns how many
    /// items that drops from the cold end.
    fn reapply_caps(model: &mut Vec<(u8, u64)>, max_items: usize, max_bytes: u64) -> u64 {
        let mut keep = 0;
        let mut bytes = 0u64;
        for &(_, charge) in model.iter().rev() {
            if keep + 1 > max_items || bytes.saturating_add(charge) > max_bytes {
                break;
            }
            keep += 1;
            bytes += charge;
        }
        let dropped = model.len() - keep.max(1).min(model.len());
        model.drain(..dropped);
        dropped as u64
    }

    /// A byte cap that is unbounded, or small enough to bind often.
    fn byte_cap() -> impl Strategy<Value = u64> {
        (0u8..2, 0u64..40).prop_map(|(unbounded, small)| match unbounded {
            0 => u64::MAX,
            _ => small,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each operation is `(kind, key, charge)`: kind 0 touches, 1
        /// pushes, 2 removes and 3 recharges the first item of `key`.
        #[test]
        fn lru_matches_a_model_that_reapplies_the_caps_from_scratch(
            max_items in 1usize..=6,
            max_bytes in byte_cap(),
            ops in proptest::collection::vec((0u8..4, 0u8..6, 0u64..16), 0..48),
        ) {
            let mut lru = Lru::new(max_items, max_bytes);
            let mut model: Vec<(u8, u64)> = Vec::new();
            for (step, &(kind, key, charge)) in ops.iter().enumerate() {
                let found = model.iter().position(|&(k, _)| k == key);
                let (evicted, expected) = match kind {
                    0 => {
                        let touched = lru.touch(|&k| k == key).copied();
                        prop_assert_eq!(touched, found.map(|_| key));
                        if let Some(at) = found {
                            let item = model.remove(at);
                            model.push(item);
                        }
                        (0, reapply_caps(&mut model, max_items, max_bytes))
                    }
                    1 => {
                        let evicted = lru.push(key, charge);
                        model.push((key, charge));
                        (evicted, reapply_caps(&mut model, max_items, max_bytes))
                    }
                    2 => {
                        prop_assert_eq!(lru.remove(|&k| k == key), found.map(|_| key));
                        if let Some(at) = found {
                            model.remove(at);
                        }
                        (0, reapply_caps(&mut model, max_items, max_bytes))
                    }
                    _ => {
                        let evicted = lru.recharge(|&k| k == key, |_| charge);
                        if let Some(at) = found {
                            model[at].1 = charge;
                        }
                        (evicted, reapply_caps(&mut model, max_items, max_bytes))
                    }
                };
                let listed: Vec<(u8, u64)> = lru.iter().map(|(&k, bytes)| (k, bytes)).collect();
                prop_assert_eq!(&listed, &model, "order after step {}", step);
                prop_assert_eq!(evicted, expected, "evictions at step {}", step);
                let resummed: u64 = listed.iter().map(|&(_, bytes)| bytes).sum();
                prop_assert_eq!(lru.bytes(), resummed, "running total at step {}", step);
                prop_assert_eq!(lru.len(), listed.len());
                prop_assert!(
                    lru.len() <= 1 || (lru.len() <= max_items && lru.bytes() <= max_bytes),
                    "over a cap with {} items at step {}", lru.len(), step
                );
            }
        }
    }
}
