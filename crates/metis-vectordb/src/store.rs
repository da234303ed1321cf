//! Chunk storage with modelled tier accounting.
//!
//! The store holds each chunk's [`AnnotatedText`] once, as pushed: the
//! tokens and spans the corpus build decoded, behind their one shared
//! `Arc`. [`ChunkStore::get`] hands out a clone of that text, a reference
//! count bump that copies and allocates nothing.
//!
//! Beside it runs the accounting for a **modelled** payload store: a cold
//! tier of serialized blobs (4 bytes per token, the source of truth in a
//! real vector DB) under a bounded **hot tier**, an LRU cache of decoded
//! chunks. Every `get` decides hit or miss, promotion and eviction against
//! that recency list exactly as the cache would, and [`StoreStats`] counts
//! the traffic in each tier, as [`crate::SearchWork`] counts the distance
//! evaluations of an index the code may not run in full. The counters
//! describe the modelled tiers; the code serves the one decoded text. The
//! split exists because `fig_retrieval` pins the per-tier byte counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use metis_text::{AnnotatedText, ChunkId, TokenChunk};

/// Default hot-tier capacity, in chunks.
const DEFAULT_HOT_CAPACITY: usize = 512;

/// Modelled bytes per token of a serialized chunk (one little-endian `u32`).
const BYTES_PER_TOKEN: u64 = 4;

/// Immutable storage for the chunks of one database, with tier counters.
#[derive(Debug)]
pub struct ChunkStore {
    texts: Vec<AnnotatedText>,
    hot_capacity: usize,
    hot: Mutex<HotTier>,
    accesses: AtomicU64,
    hot_hits: AtomicU64,
    promotions: AtomicU64,
    evictions: AtomicU64,
    bytes_hot_touched: AtomicU64,
    bytes_cold_touched: AtomicU64,
}

/// The modelled LRU's state. Chunk ids are dense, so each chunk owns the
/// slot at its own index, and the resident slots form a doubly linked
/// recency list threaded through the slots' `prev`/`next` ids: most
/// recently used at `head`, the eviction victim at `tail`. Touch, promote
/// and evict are O(1).
#[derive(Debug)]
struct HotTier {
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    len: usize,
}

/// One chunk's hot-tier slot; `prev`/`next` mean something only while it
/// is `resident`.
#[derive(Clone, Debug)]
struct Slot {
    resident: bool,
    prev: u32,
    next: u32,
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

impl Slot {
    const COLD: Slot = Slot {
        resident: false,
        prev: NIL,
        next: NIL,
    };
}

impl HotTier {
    /// An empty tier over `chunks` cold chunks.
    fn cold(chunks: usize) -> Self {
        Self {
            slots: vec![Slot::COLD; chunks],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Takes resident slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Puts slot `i` at the most recently used end of the list.
    fn link_first(&mut self, i: u32) {
        let next = self.head;
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = next;
        match next {
            NIL => self.tail = i,
            n => self.slots[n as usize].prev = i,
        }
        self.head = i;
    }
}

/// A point-in-time snapshot of the store's tier counters. Obtained from
/// [`ChunkStore::stats`]; counters only ever grow, so a before/after
/// difference gives per-run traffic. The tiers are the modelled ones (see
/// the module doc): every `get` is served from the same shared text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total `get` calls served.
    pub accesses: u64,
    /// `get` calls the modelled hot tier would answer.
    pub hot_hits: u64,
    /// Modelled cold-tier decodes promoted into the hot tier.
    pub promotions: u64,
    /// Modelled hot-tier entries evicted to make room.
    pub evictions: u64,
    /// Modelled serialized bytes (4 per token) of chunks served hot.
    pub bytes_hot_touched: u64,
    /// Modelled serialized bytes (4 per token) decoded from the cold tier.
    pub bytes_cold_touched: u64,
    /// Chunks resident in the modelled hot tier.
    pub hot_chunks: usize,
    /// Chunks only in the modelled cold tier.
    pub cold_chunks: usize,
}

impl StoreStats {
    /// Component-wise difference against an earlier snapshot (tier
    /// occupancy is taken from `self`, the later snapshot).
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            accesses: self.accesses - earlier.accesses,
            hot_hits: self.hot_hits - earlier.hot_hits,
            promotions: self.promotions - earlier.promotions,
            evictions: self.evictions - earlier.evictions,
            bytes_hot_touched: self.bytes_hot_touched - earlier.bytes_hot_touched,
            bytes_cold_touched: self.bytes_cold_touched - earlier.bytes_cold_touched,
            hot_chunks: self.hot_chunks,
            cold_chunks: self.cold_chunks,
        }
    }
}

impl Default for ChunkStore {
    fn default() -> Self {
        Self::with_hot_capacity(DEFAULT_HOT_CAPACITY)
    }
}

impl Clone for ChunkStore {
    /// Shares the chunk texts (one refcount bump each). The clone starts
    /// with an empty hot tier and zeroed counters — the modelled cache is
    /// per-instance working state, not data.
    fn clone(&self) -> Self {
        Self {
            texts: self.texts.clone(),
            hot: Mutex::new(HotTier::cold(self.texts.len())),
            ..Self::with_hot_capacity(self.hot_capacity)
        }
    }
}

impl ChunkStore {
    /// Creates an empty store with the default hot-tier capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store whose modelled hot tier holds at most
    /// `capacity` chunks (`0` disables the hot tier entirely).
    pub fn with_hot_capacity(capacity: usize) -> Self {
        Self {
            texts: Vec::new(),
            hot_capacity: capacity,
            hot: Mutex::new(HotTier::cold(0)),
            accesses: AtomicU64::new(0),
            hot_hits: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_hot_touched: AtomicU64::new(0),
            bytes_cold_touched: AtomicU64::new(0),
        }
    }

    /// Builds a store from chunker output.
    ///
    /// Chunk ids must be dense and sequential (as produced by
    /// [`metis_text::Chunker::split`]); the store addresses chunks by index.
    ///
    /// # Panics
    ///
    /// Panics if chunk ids are not `0..n` in order.
    pub fn from_chunks(chunks: &[TokenChunk]) -> Self {
        let mut store = Self::new();
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id.index(), i, "chunk ids must be dense and in order");
            store.push(&c.text);
        }
        store
    }

    /// Appends a chunk, cold, returning its id. The store keeps `text`
    /// itself, sharing its buffers.
    pub fn push(&mut self, text: &AnnotatedText) -> ChunkId {
        let id = ChunkId(self.texts.len() as u32);
        self.texts.push(text.clone());
        self.hot
            .get_mut()
            .expect("hot tier lock")
            .slots
            .push(Slot::COLD);
        id
    }

    /// Number of stored chunks.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Returns `true` when the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Returns chunk `id`, sharing the stored text's buffers. Counts the
    /// access as a modelled hot hit when the chunk is resident, and as a
    /// cold decode that promotes it (evicting the least recently used chunk
    /// when the tier is full) otherwise.
    pub fn get(&self, id: ChunkId) -> Option<AnnotatedText> {
        let text = self.texts.get(id.index())?;
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let bytes = BYTES_PER_TOKEN * text.len() as u64;
        if self.hot_capacity == 0 {
            self.bytes_cold_touched.fetch_add(bytes, Ordering::Relaxed);
            return Some(text.clone());
        }
        let mut hot = self.hot.lock().expect("hot tier lock");
        if hot.slots[id.index()].resident {
            hot.unlink(id.0);
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_hot_touched.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.bytes_cold_touched.fetch_add(bytes, Ordering::Relaxed);
            if hot.len >= self.hot_capacity {
                let victim = hot.tail;
                hot.unlink(victim);
                hot.slots[victim as usize].resident = false;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                hot.len += 1;
            }
            hot.slots[id.index()].resident = true;
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        hot.link_first(id.0);
        Some(text.clone())
    }

    /// Snapshots the tier counters and occupancy.
    pub fn stats(&self) -> StoreStats {
        let hot_chunks = self.hot.lock().expect("hot tier lock").len;
        StoreStats {
            accesses: self.accesses.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_hot_touched: self.bytes_hot_touched.load(Ordering::Relaxed),
            bytes_cold_touched: self.bytes_cold_touched.load(Ordering::Relaxed),
            hot_chunks,
            cold_chunks: self.len() - hot_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_text::{FactId, TokenId};

    fn sample_text() -> AnnotatedText {
        let mut t = AnnotatedText::new();
        t.push_tokens(&[TokenId(1), TokenId(2)]);
        t.push_fact(FactId(77), &[TokenId(3)]);
        t
    }

    fn numbered_text(i: u32) -> AnnotatedText {
        let mut t = AnnotatedText::new();
        t.push_tokens(&[TokenId(i), TokenId(i + 1), TokenId(i + 2)]);
        t
    }

    #[test]
    fn push_get_roundtrip() {
        let mut s = ChunkStore::new();
        let text = sample_text();
        let id = s.push(&text);
        let back = s.get(id).unwrap();
        assert_eq!(back.tokens(), text.tokens());
        assert_eq!(back.spans(), text.spans());
        // The modelled cold blob: one little-endian `u32` per token.
        assert_eq!(s.stats().bytes_cold_touched, 4 * text.len() as u64);
    }

    #[test]
    fn a_miss_a_hit_and_the_pushed_text_share_one_buffer() {
        let mut s = ChunkStore::new();
        let text = sample_text();
        let id = s.push(&text);
        let miss = s.get(id).unwrap();
        let hit = s.get(id).unwrap();
        assert_eq!(s.stats().hot_hits, 1, "one modelled miss, then a hit");
        assert_eq!(miss.tokens().as_ptr(), text.tokens().as_ptr());
        assert_eq!(hit.tokens().as_ptr(), text.tokens().as_ptr());
        assert_eq!(hit.spans().as_ptr(), text.spans().as_ptr());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let s = ChunkStore::new();
        assert!(s.get(ChunkId(0)).is_none());
        assert_eq!(s.stats().accesses, 0);
    }

    #[test]
    fn from_chunks_preserves_ids() {
        use metis_text::{Chunker, ChunkerConfig};
        let mut doc = AnnotatedText::new();
        doc.push_tokens(&(0..100).map(TokenId).collect::<Vec<_>>());
        let chunks = Chunker::new(ChunkerConfig::with_size(16)).split(&doc);
        let store = ChunkStore::from_chunks(&chunks);
        assert_eq!(store.len(), chunks.len());
        for c in &chunks {
            assert_eq!(store.get(c.id).unwrap().tokens(), c.text.tokens());
        }
    }

    #[test]
    fn repeated_get_hits_the_hot_tier() {
        let mut s = ChunkStore::new();
        let id = s.push(&sample_text());
        let first = s.get(id).unwrap();
        let second = s.get(id).unwrap();
        assert_eq!(first.tokens(), second.tokens());
        let st = s.stats();
        assert_eq!(st.accesses, 2);
        assert_eq!(st.hot_hits, 1);
        assert_eq!(st.promotions, 1);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.hot_chunks, 1);
        assert!(st.bytes_hot_touched > 0);
        assert_eq!(st.bytes_hot_touched, st.bytes_cold_touched);
    }

    #[test]
    fn writing_to_a_served_chunk_leaves_the_store_unchanged() {
        let mut s = ChunkStore::new();
        let id = s.push(&sample_text());
        for _ in 0..2 {
            // Once from the cold tier, once from the hot one.
            let mut served = s.get(id).unwrap();
            served.push_tokens(&[TokenId(9)]);
            served.push_fact(FactId(5), &[TokenId(8)]);
        }
        let back = s.get(id).unwrap();
        assert_eq!(back.tokens(), sample_text().tokens());
        assert_eq!(back.spans(), sample_text().spans());
        assert_eq!(s.stats().hot_hits, 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_chunk() {
        let mut s = ChunkStore::with_hot_capacity(2);
        let ids: Vec<ChunkId> = (0..3).map(|i| s.push(&numbered_text(i * 10))).collect();
        s.get(ids[0]);
        s.get(ids[1]);
        // Touch 0 so 1 becomes the LRU victim when 2 is promoted.
        s.get(ids[0]);
        s.get(ids[2]);
        let st = s.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.hot_chunks, 2);
        // 0 stayed hot (hit); 1 was evicted (cold decode again).
        let before = s.stats().hot_hits;
        s.get(ids[0]);
        assert_eq!(s.stats().hot_hits, before + 1);
        let before_cold = s.stats().bytes_cold_touched;
        s.get(ids[1]);
        assert!(s.stats().bytes_cold_touched > before_cold, "1 was evicted");
    }

    #[test]
    fn zero_capacity_disables_the_hot_tier() {
        let mut s = ChunkStore::with_hot_capacity(0);
        let id = s.push(&sample_text());
        s.get(id);
        s.get(id);
        let st = s.stats();
        assert_eq!(st.hot_hits, 0);
        assert_eq!(st.promotions, 0);
        assert_eq!(st.hot_chunks, 0);
        assert_eq!(st.accesses, 2);
    }

    #[test]
    fn clone_resets_cache_state_but_keeps_data() {
        let mut s = ChunkStore::new();
        let id = s.push(&sample_text());
        s.get(id);
        let c = s.clone();
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().hot_chunks, 0);
        assert_eq!(c.get(id).unwrap().tokens(), sample_text().tokens());
    }

    #[test]
    fn stats_delta_isolates_a_window() {
        let mut s = ChunkStore::new();
        let id = s.push(&sample_text());
        s.get(id);
        let before = s.stats();
        s.get(id);
        s.get(id);
        let delta = s.stats().since(&before);
        assert_eq!(delta.accesses, 2);
        assert_eq!(delta.hot_hits, 2);
        assert_eq!(delta.promotions, 0);
    }
}
