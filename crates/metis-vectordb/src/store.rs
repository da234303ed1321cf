//! Memory-tiered chunk storage.
//!
//! The **cold tier** is the source of truth: chunks serialized as
//! little-endian `u32` token ids in [`bytes::Bytes`] buffers (cheaply
//! cloneable, shared, immutable), with fact spans kept in a side table.
//! This mirrors a real vector DB payload store where chunk text is an
//! opaque blob and ground-truth annotations live out of band.
//!
//! On top of it sits a bounded **hot tier**: an LRU cache of decoded
//! [`AnnotatedText`] values. A [`ChunkStore::get`] that misses decodes from
//! the cold blob and promotes the result; a hit returns a clone that shares
//! the decoded buffers (no copy, no allocation) without touching the blob.
//! Per-operation counters ([`StoreStats`]) record accesses,
//! hit/promotion/eviction traffic, and the bytes touched in each tier, so
//! retrieval benchmarks can report tier locality the same way
//! [`crate::SearchWork`] reports distance evals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use metis_text::{AnnotatedText, ChunkId, FactSpan, TokenChunk, TokenId};

/// Default hot-tier capacity, in chunks.
const DEFAULT_HOT_CAPACITY: usize = 512;

/// Immutable tiered storage for the chunks of one database.
#[derive(Debug)]
pub struct ChunkStore {
    blobs: Vec<Bytes>,
    spans: Vec<Vec<FactSpan>>,
    hot_capacity: usize,
    hot: Mutex<HotTier>,
    accesses: AtomicU64,
    hot_hits: AtomicU64,
    promotions: AtomicU64,
    evictions: AtomicU64,
    bytes_hot_touched: AtomicU64,
    bytes_cold_touched: AtomicU64,
}

/// LRU state. Chunk ids are dense, so a decoded chunk lives in the slot at
/// its own index (one slot per blob, `None` while cold), and the occupied
/// slots form a doubly linked recency list threaded through the slots'
/// `prev`/`next` ids: most recently used at `head`, the eviction victim at
/// `tail`. Touch, promote and evict are O(1).
#[derive(Debug)]
struct HotTier {
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    len: usize,
}

/// One chunk's hot-tier slot; `prev`/`next` mean something only while
/// `text` is resident.
#[derive(Clone, Debug)]
struct Slot {
    text: Option<AnnotatedText>,
    prev: u32,
    next: u32,
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

impl Slot {
    const COLD: Slot = Slot {
        text: None,
        prev: NIL,
        next: NIL,
    };
}

impl HotTier {
    /// An empty tier over `chunks` cold blobs.
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
/// difference gives per-run traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total `get` calls served.
    pub accesses: u64,
    /// `get` calls answered from the decoded hot tier.
    pub hot_hits: u64,
    /// Cold-tier decodes promoted into the hot tier.
    pub promotions: u64,
    /// Hot-tier entries evicted to make room.
    pub evictions: u64,
    /// Serialized bytes of chunks served from the hot tier.
    pub bytes_hot_touched: u64,
    /// Serialized bytes decoded from the cold tier.
    pub bytes_cold_touched: u64,
    /// Chunks currently decoded in the hot tier.
    pub hot_chunks: usize,
    /// Chunks resident only as cold serialized blobs.
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
    /// Clones the cold tier (cheap: `Bytes` are refcounted). The clone
    /// starts with an empty hot tier and zeroed counters — the cache is
    /// per-instance working state, not data.
    fn clone(&self) -> Self {
        Self {
            blobs: self.blobs.clone(),
            spans: self.spans.clone(),
            hot: Mutex::new(HotTier::cold(self.blobs.len())),
            ..Self::with_hot_capacity(self.hot_capacity)
        }
    }
}

impl ChunkStore {
    /// Creates an empty store with the default hot-tier capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store whose hot tier holds at most `capacity`
    /// decoded chunks (`0` disables the hot tier entirely).
    pub fn with_hot_capacity(capacity: usize) -> Self {
        Self {
            blobs: Vec::new(),
            spans: Vec::new(),
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
    /// [`metis_text::Chunker::split`]); the store addresses blobs by index.
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

    /// Appends a chunk to the cold tier, returning its id.
    pub fn push(&mut self, text: &AnnotatedText) -> ChunkId {
        let blob: Vec<u8> = text
            .tokens()
            .iter()
            .flat_map(|t| t.0.to_le_bytes())
            .collect();
        let id = ChunkId(self.blobs.len() as u32);
        self.blobs.push(Bytes::from(blob));
        self.spans.push(text.spans().to_vec());
        self.hot
            .get_mut()
            .expect("hot tier lock")
            .slots
            .push(Slot::COLD);
        id
    }

    /// Number of stored chunks.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Returns `true` when the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Returns chunk `id`, serving from the hot tier when it is resident
    /// and decoding + promoting from the cold tier otherwise.
    pub fn get(&self, id: ChunkId) -> Option<AnnotatedText> {
        let blob = self.blobs.get(id.index())?;
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let blob_len = blob.len() as u64;
        if self.hot_capacity > 0 {
            let mut hot = self.hot.lock().expect("hot tier lock");
            if let Some(text) = hot.slots[id.index()].text.clone() {
                hot.unlink(id.0);
                hot.link_first(id.0);
                self.hot_hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_hot_touched
                    .fetch_add(blob_len, Ordering::Relaxed);
                return Some(text);
            }
        }
        // Cold path: decode the blob, then promote.
        self.bytes_cold_touched
            .fetch_add(blob_len, Ordering::Relaxed);
        let tokens: Vec<TokenId> = blob
            .chunks_exact(4)
            .map(|b| TokenId(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect();
        let text = AnnotatedText::from_parts(tokens, self.spans[id.index()].clone());
        if self.hot_capacity > 0 {
            let mut hot = self.hot.lock().expect("hot tier lock");
            // A racing promoter may have beaten us; re-inserting just
            // refreshes the entry either way.
            if hot.slots[id.index()].text.is_some() {
                hot.unlink(id.0);
            } else if hot.len >= self.hot_capacity {
                let victim = hot.tail;
                hot.unlink(victim);
                hot.slots[victim as usize].text = None;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                hot.len += 1;
            }
            hot.slots[id.index()].text = Some(text.clone());
            hot.link_first(id.0);
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        Some(text)
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
    use metis_text::FactId;

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
        // The cold blob: one little-endian `u32` per token.
        let blob = [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0];
        assert_eq!(&s.blobs[id.index()][..], &blob);
        let back = s.get(id).unwrap();
        assert_eq!(back.tokens(), text.tokens());
        assert_eq!(back.spans(), text.spans());
        assert_eq!(s.stats().bytes_cold_touched, 4 * text.len() as u64);
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
