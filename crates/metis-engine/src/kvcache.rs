//! Paged KV-cache allocator.
//!
//! Models vLLM's PagedAttention block pool: KV memory is carved into
//! fixed-size blocks (16 tokens by default); a sequence owns an integral
//! number of blocks. The allocator only does accounting — block *contents*
//! are irrelevant to the simulation — but the accounting is exact, which is
//! what METIS's best-fit configuration selection measures against.

use std::collections::HashMap;

use crate::request::RequestId;

/// Errors from the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvError {
    /// Not enough free blocks to satisfy the request.
    OutOfMemory {
        /// Blocks requested.
        requested: u64,
        /// Blocks free.
        free: u64,
    },
    /// More blocks than the whole pool holds: no amount of freeing makes
    /// room, so a request this large can never be admitted.
    BeyondCapacity {
        /// Blocks requested.
        requested: u64,
        /// Blocks in the pool.
        capacity: u64,
    },
    /// The sequence already holds an allocation (double alloc is a bug).
    AlreadyAllocated,
    /// The sequence holds no allocation.
    NotAllocated,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfMemory { requested, free } => {
                write!(f, "KV OOM: requested {requested} blocks, {free} free")
            }
            KvError::BeyondCapacity {
                requested,
                capacity,
            } => write!(
                f,
                "KV demand of {requested} blocks exceeds the {capacity}-block pool"
            ),
            KvError::AlreadyAllocated => write!(f, "sequence already has a KV allocation"),
            KvError::NotAllocated => write!(f, "sequence has no KV allocation"),
        }
    }
}

impl std::error::Error for KvError {}

/// Block-granular KV-cache accounting for one engine.
#[derive(Clone, Debug)]
pub struct KvAllocator {
    block_tokens: u64,
    total_blocks: u64,
    free_blocks: u64,
    held: HashMap<RequestId, u64>,
}

impl KvAllocator {
    /// Creates a pool of `capacity_tokens` tokens in `block_tokens` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(capacity_tokens: u64, block_tokens: u64) -> Self {
        assert!(block_tokens > 0, "block size must be positive");
        let total_blocks = capacity_tokens / block_tokens;
        Self {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            held: HashMap::new(),
        }
    }

    fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Allocates blocks for `tokens` tokens on behalf of `seq`.
    pub fn alloc(&mut self, seq: RequestId, tokens: u64) -> Result<(), KvError> {
        if self.held.contains_key(&seq) {
            return Err(KvError::AlreadyAllocated);
        }
        let need = self.blocks_for(tokens);
        if need > self.free_blocks {
            return Err(KvError::OutOfMemory {
                requested: need,
                free: self.free_blocks,
            });
        }
        self.free_blocks -= need;
        self.held.insert(seq, need);
        Ok(())
    }

    /// Grows `seq`'s allocation by `extra_tokens` tokens' worth of blocks,
    /// block-granular like [`Self::alloc`].
    ///
    /// Note: the engine itself does not call this — it reserves a request's
    /// full prompt+output footprint at admission (the conservative vLLM
    /// sizing METIS's best-fit reasons about). `grow` is the incremental
    /// variant for allocator-level verification and for future decode-time
    /// growth modeling.
    ///
    /// Growing by zero tokens is a no-op. On `OutOfMemory` the existing
    /// allocation is left untouched.
    pub fn grow(&mut self, seq: RequestId, extra_tokens: u64) -> Result<(), KvError> {
        if !self.held.contains_key(&seq) {
            return Err(KvError::NotAllocated);
        }
        let need = self.blocks_for(extra_tokens);
        if need > self.free_blocks {
            return Err(KvError::OutOfMemory {
                requested: need,
                free: self.free_blocks,
            });
        }
        self.free_blocks -= need;
        *self.held.get_mut(&seq).expect("presence checked above") += need;
        Ok(())
    }

    /// Frees all blocks held by `seq`.
    pub fn free(&mut self, seq: RequestId) -> Result<(), KvError> {
        match self.held.remove(&seq) {
            Some(blocks) => {
                self.free_blocks += blocks;
                debug_assert!(self.free_blocks <= self.total_blocks);
                Ok(())
            }
            None => Err(KvError::NotAllocated),
        }
    }

    /// Whether an allocation of `tokens` tokens would currently succeed.
    pub fn fits(&self, tokens: u64) -> bool {
        self.blocks_for(tokens) <= self.free_blocks
    }

    /// Whether `tokens` tokens could ever be allocated: against the whole
    /// pool, as if nothing else held a block, where [`Self::fits`] asks
    /// about the blocks free now.
    pub fn check_capacity(&self, tokens: u64) -> Result<(), KvError> {
        let requested = self.blocks_for(tokens);
        if requested > self.total_blocks {
            return Err(KvError::BeyondCapacity {
                requested,
                capacity: self.total_blocks,
            });
        }
        Ok(())
    }

    /// Free capacity in tokens (block-granular).
    pub fn free_tokens(&self) -> u64 {
        self.free_blocks * self.block_tokens
    }

    /// Used capacity in tokens (block-granular).
    pub fn used_tokens(&self) -> u64 {
        (self.total_blocks - self.free_blocks) * self.block_tokens
    }

    /// Total capacity in tokens (block-granular).
    pub fn capacity_tokens(&self) -> u64 {
        self.total_blocks * self.block_tokens
    }

    /// Tokens currently held by `seq` (block-granular), or `None` when the
    /// sequence has no allocation — what the preemptive scheduler reclaims
    /// when it evicts a victim.
    pub fn held_tokens(&self, seq: RequestId) -> Option<u64> {
        self.held.get(&seq).map(|blocks| blocks * self.block_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> RequestId {
        RequestId(n)
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut a = KvAllocator::new(1_000, 16);
        let cap = a.free_tokens();
        a.alloc(rid(1), 100).unwrap();
        assert!(a.free_tokens() < cap);
        a.free(rid(1)).unwrap();
        assert_eq!(a.free_tokens(), cap);
        assert_eq!(a.held.len(), 0);
    }

    #[test]
    fn allocation_is_block_granular() {
        let mut a = KvAllocator::new(1_600, 16);
        a.alloc(rid(1), 1).unwrap(); // 1 token still costs a 16-token block.
        assert_eq!(a.used_tokens(), 16);
        a.alloc(rid(2), 17).unwrap(); // 2 blocks.
        assert_eq!(a.used_tokens(), 48);
    }

    #[test]
    fn oom_reports_requested_and_free() {
        let mut a = KvAllocator::new(160, 16);
        a.alloc(rid(1), 100).unwrap(); // 7 blocks of 10.
        let err = a.alloc(rid(2), 100).unwrap_err();
        assert_eq!(
            err,
            KvError::OutOfMemory {
                requested: 7,
                free: 3
            }
        );
    }

    #[test]
    fn double_alloc_is_rejected() {
        let mut a = KvAllocator::new(1_000, 16);
        a.alloc(rid(1), 10).unwrap();
        assert_eq!(a.alloc(rid(1), 10), Err(KvError::AlreadyAllocated));
    }

    #[test]
    fn free_unknown_is_rejected() {
        let mut a = KvAllocator::new(1_000, 16);
        assert_eq!(a.free(rid(9)), Err(KvError::NotAllocated));
    }

    #[test]
    fn held_tokens_reports_block_granular_holdings() {
        let mut a = KvAllocator::new(1_000, 16);
        assert_eq!(a.held_tokens(rid(1)), None);
        a.alloc(rid(1), 17).unwrap();
        assert_eq!(a.held_tokens(rid(1)), Some(32));
        a.free(rid(1)).unwrap();
        assert_eq!(a.held_tokens(rid(1)), None);
    }

    #[test]
    fn grow_extends_and_free_returns_everything() {
        let mut a = KvAllocator::new(1_600, 16);
        a.alloc(rid(1), 16).unwrap();
        a.grow(rid(1), 40).unwrap(); // 3 more blocks.
        assert_eq!(a.used_tokens(), 64);
        assert_eq!(a.grow(rid(2), 16), Err(KvError::NotAllocated));
        assert_eq!(
            a.grow(rid(1), 10_000),
            Err(KvError::OutOfMemory {
                requested: 625,
                free: 96
            })
        );
        a.free(rid(1)).unwrap();
        assert_eq!(a.free_tokens(), 1_600);
    }

    #[test]
    fn capacity_counts_the_whole_pool_not_the_free_blocks() {
        let mut a = KvAllocator::new(320, 16);
        a.alloc(rid(1), 300).unwrap();
        assert!(!a.fits(320));
        assert_eq!(a.check_capacity(320), Ok(()));
        assert_eq!(
            a.check_capacity(321),
            Err(KvError::BeyondCapacity {
                requested: 21,
                capacity: 20
            })
        );
    }

    #[test]
    fn fits_is_consistent_with_alloc() {
        let mut a = KvAllocator::new(320, 16);
        assert!(a.fits(320));
        assert!(!a.fits(321));
        a.alloc(rid(1), 160).unwrap();
        assert!(a.fits(160));
        assert!(!a.fits(161));
    }
}

#[cfg(test)]
mod proptests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Arbitrary interleavings of alloc / grow / free over a small id
        /// space never double-free a block, and free + used block counts
        /// always sum to the pool size — checked against an independent
        /// per-sequence block ledger after every operation.
        #[test]
        fn alloc_grow_free_never_leaks_or_double_frees(
            ops in prop::collection::vec((0u64..12, 0u8..3, 1u64..3_000), 1..80),
        ) {
            let mut a = KvAllocator::new(16_000, 16);
            let total_blocks = a.capacity_tokens() / 16;
            // Independent ledger: blocks each live sequence should hold.
            let mut ledger: HashMap<u64, u64> = HashMap::new();
            for (seq, op, tokens) in ops {
                let blocks = tokens.div_ceil(16);
                let ledger_blocks: u64 = ledger.values().sum();
                match op {
                    // Alloc: succeeds iff the sequence is new and fits.
                    0 => match a.alloc(RequestId(seq), tokens) {
                        Ok(()) => {
                            prop_assert!(!ledger.contains_key(&seq));
                            prop_assert!(ledger_blocks + blocks <= total_blocks);
                            ledger.insert(seq, blocks);
                        }
                        Err(KvError::AlreadyAllocated) => {
                            prop_assert!(ledger.contains_key(&seq));
                        }
                        Err(KvError::OutOfMemory { .. }) => {
                            prop_assert!(ledger_blocks + blocks > total_blocks);
                        }
                        Err(e) => prop_assert!(false, "unexpected alloc error {e:?}"),
                    },
                    // Grow: succeeds iff the sequence is live and fits.
                    1 => match a.grow(RequestId(seq), tokens) {
                        Ok(()) => {
                            prop_assert!(ledger.contains_key(&seq));
                            prop_assert!(ledger_blocks + blocks <= total_blocks);
                            *ledger.get_mut(&seq).expect("live") += blocks;
                        }
                        Err(KvError::NotAllocated) => {
                            prop_assert!(!ledger.contains_key(&seq));
                        }
                        Err(KvError::OutOfMemory { .. }) => {
                            prop_assert!(ledger_blocks + blocks > total_blocks);
                        }
                        Err(e) => prop_assert!(false, "unexpected grow error {e:?}"),
                    },
                    // Free: succeeds exactly once per live sequence; a
                    // second free must fail without changing the counts.
                    _ => match a.free(RequestId(seq)) {
                        Ok(()) => {
                            prop_assert!(ledger.remove(&seq).is_some());
                            prop_assert_eq!(
                                a.free(RequestId(seq)),
                                Err(KvError::NotAllocated),
                                "double free must be rejected"
                            );
                        }
                        Err(KvError::NotAllocated) => {
                            prop_assert!(!ledger.contains_key(&seq));
                        }
                        Err(e) => prop_assert!(false, "unexpected free error {e:?}"),
                    },
                }
                // Conservation: the allocator agrees with the ledger and
                // never loses or duplicates a block.
                let live: u64 = ledger.values().sum();
                prop_assert_eq!(a.used_tokens(), live * 16);
                prop_assert_eq!(a.used_tokens() + a.free_tokens(), a.capacity_tokens());
                prop_assert_eq!(a.held.len(), ledger.len());
            }
        }
    }
}
