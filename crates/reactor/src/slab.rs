//! Slab-allocated connection pools with generation-checked tokens and
//! slot *parking*.
//!
//! A [`Slab`] hands out dense `u32` indices so per-connection state lives
//! in one contiguous `Vec` (cache-friendly, O(1) everything). Two twists
//! over a textbook slab:
//!
//! - **Generations.** Every slot carries a generation counter bumped on
//!   removal, and the [`Token`] packs `generation << 32 | index`. A stale
//!   token (readiness event for a connection that was closed and whose
//!   slot was reused) fails the generation check and resolves to `None`
//!   instead of aliasing the new occupant.
//! - **Parking.** `remove_with` doesn't drop the value — it hands it to a
//!   `reset` closure which may *park* it in the vacant slot. The next
//!   `insert_with` receives the parked carcass, so a connection's frame
//!   and write buffers are reused across connections and the steady path
//!   performs no allocation. The `allocations`/`reuses` counters make
//!   that property testable.

use crate::token::Token;

struct Entry<T> {
    generation: u32,
    occupied: bool,
    /// `Some` while occupied, and possibly `Some` while vacant too — that
    /// is a *parked* value awaiting reuse.
    value: Option<T>,
}

/// Reuse/allocation tallies, for asserting the no-steady-state-allocation
/// property in tests and reporting it in benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Inserts that constructed fresh state (no parked value available).
    pub allocations: u64,
    /// Inserts that recycled a parked value.
    pub reuses: u64,
}

/// Fixed-capacity slab; see the module docs.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Vacant slot indices; LIFO so recently-parked (cache-warm) slots are
    /// reused first.
    free: Vec<u32>,
    len: usize,
    max_slots: u32,
    stats: SlabStats,
}

impl<T> Slab<T> {
    /// A slab that will never hold more than `max_slots` values at once.
    /// Slot storage grows on demand up to that cap and is never shrunk.
    pub fn with_capacity(max_slots: usize) -> Self {
        let max_slots = u32::try_from(max_slots).unwrap_or(u32::MAX);
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            max_slots,
            stats: SlabStats::default(),
        }
    }

    /// Occupies a slot, constructing the value via `init`, which receives
    /// the slot's parked value (if any) for reuse. Returns `None` when the
    /// slab is at capacity.
    pub fn insert_with(&mut self, init: impl FnOnce(Option<T>) -> T) -> Option<Token> {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                if self.entries.len() >= self.max_slots as usize {
                    return None;
                }
                let index = self.entries.len() as u32;
                self.entries.push(Entry {
                    generation: 0,
                    occupied: false,
                    value: None,
                });
                index
            }
        };
        let entry = &mut self.entries[index as usize];
        debug_assert!(!entry.occupied);
        let parked = entry.value.take();
        if parked.is_some() {
            self.stats.reuses += 1;
        } else {
            self.stats.allocations += 1;
        }
        entry.value = Some(init(parked));
        entry.occupied = true;
        self.len += 1;
        Some(Token::pack(index, entry.generation))
    }

    pub fn get(&self, token: Token) -> Option<&T> {
        self.entries
            .get(token.index() as usize)
            .filter(|e| e.occupied && e.generation == token.generation())
            .and_then(|e| e.value.as_ref())
    }

    pub fn get_mut(&mut self, token: Token) -> Option<&mut T> {
        let generation = token.generation();
        self.entries
            .get_mut(token.index() as usize)
            .filter(|e| e.occupied && e.generation == generation)
            .and_then(|e| e.value.as_mut())
    }

    /// Vacates `token`'s slot. The removed value goes through `reset`,
    /// which returns `Some(carcass)` to park it for reuse or `None` to
    /// drop it. Returns whether the token was live.
    pub fn remove_with(&mut self, token: Token, reset: impl FnOnce(T) -> Option<T>) -> bool {
        let generation = token.generation();
        let Some(entry) = self
            .entries
            .get_mut(token.index() as usize)
            .filter(|e| e.occupied && e.generation == generation)
        else {
            return false;
        };
        let value = entry.value.take().expect("occupied slot has a value");
        entry.value = reset(value);
        entry.occupied = false;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(token.index());
        self.len -= 1;
        true
    }

    /// Appends the token of every occupied slot to `out` (not cleared).
    pub fn collect_tokens(&self, out: &mut Vec<Token>) {
        for (index, entry) in self.entries.iter().enumerate() {
            if entry.occupied {
                out.push(Token::pack(index as u32, entry.generation));
            }
        }
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn stats(&self) -> SlabStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<String> = Slab::with_capacity(4);
        let t = slab.insert_with(|_| "hello".to_string()).unwrap();
        assert_eq!(slab.get(t).unwrap(), "hello");
        assert_eq!(slab.len(), 1);
        assert!(slab.remove_with(t, |_| None));
        assert!(slab.get(t).is_none());
        assert!(slab.is_empty());
    }

    #[test]
    fn capacity_cap_is_enforced() {
        let mut slab: Slab<u32> = Slab::with_capacity(2);
        let a = slab.insert_with(|_| 1).unwrap();
        let _b = slab.insert_with(|_| 2).unwrap();
        assert!(slab.insert_with(|_| 3).is_none());
        slab.remove_with(a, |_| None);
        assert!(slab.insert_with(|_| 4).is_some());
    }

    #[test]
    fn stale_token_does_not_alias_reused_slot() {
        let mut slab: Slab<u32> = Slab::with_capacity(2);
        let old = slab.insert_with(|_| 10).unwrap();
        slab.remove_with(old, |_| None);
        let new = slab.insert_with(|_| 20).unwrap();
        // Same slot, different generation.
        assert_eq!(old.index(), new.index());
        assert_ne!(old.generation(), new.generation());
        assert!(slab.get(old).is_none());
        assert!(!slab.remove_with(old, |_| None));
        assert_eq!(*slab.get(new).unwrap(), 20);
    }

    #[test]
    fn parked_values_are_recycled_not_reallocated() {
        let mut slab: Slab<Vec<u8>> = Slab::with_capacity(4);
        let t = slab
            .insert_with(|parked| {
                assert!(parked.is_none());
                Vec::with_capacity(4096)
            })
            .unwrap();
        let cap = slab.get(t).unwrap().capacity();
        // Park the buffer (cleared, capacity kept) on removal.
        slab.remove_with(t, |mut v| {
            v.clear();
            Some(v)
        });
        let t2 = slab
            .insert_with(|parked| {
                let v = parked.expect("parked buffer available");
                assert!(v.is_empty());
                v
            })
            .unwrap();
        assert_eq!(slab.get(t2).unwrap().capacity(), cap);
        assert_eq!(
            slab.stats(),
            SlabStats {
                allocations: 1,
                reuses: 1
            }
        );
    }

    #[test]
    fn collect_tokens_walks_occupied_slots() {
        let mut slab: Slab<u32> = Slab::with_capacity(8);
        let a = slab.insert_with(|_| 1).unwrap();
        let b = slab.insert_with(|_| 2).unwrap();
        let c = slab.insert_with(|_| 3).unwrap();
        slab.remove_with(b, |_| None);
        let mut tokens = Vec::new();
        slab.collect_tokens(&mut tokens);
        tokens.sort();
        let mut expect = vec![a, c];
        expect.sort();
        assert_eq!(tokens, expect);
    }
}
