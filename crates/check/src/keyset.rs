//! The explorer's visited-state set: exact membership over packed keys.
//!
//! A state key is a `[u64]` word sequence. Each distinct key is stored
//! once in a byte arena as a LEB128 byte count followed by the key's
//! words, each LEB128-packed (most words are small: cache states, bit
//! sets, version numbers). An open-addressing table of [`Slot`]s indexes
//! the arena: a slot holds a 32-bit hash tag and the entry's arena
//! offset. A probe compares tags first and then the full packed bytes, so
//! two keys are merged only when they are byte-for-byte equal — a tag
//! collision costs a comparison, never a lost state. Each lookup packs
//! its key into one reused buffer, so a duplicate key allocates nothing.

/// One table slot: the high 32 bits of the key's hash and the arena
/// offset of its entry; [`EMPTY`] marks a free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    tag: u32,
    offset: u32,
}

const EMPTY: Slot = Slot { tag: 0, offset: u32::MAX };

/// Appends `word` to `out` as unsigned LEB128 (1–10 bytes).
fn push_leb128(out: &mut Vec<u8>, mut word: u64) {
    while word >= 0x80 {
        out.push(word as u8 | 0x80);
        word >>= 7;
    }
    out.push(word as u8);
}

/// Decodes the unsigned LEB128 value at the start of `bytes`, returning
/// it with its encoded length.
fn read_leb128(bytes: &[u8]) -> (u64, usize) {
    let mut value = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        value |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return (value, i + 1);
        }
    }
    unreachable!("arena entries are written whole")
}

/// A multiply-rotate hash over 8-byte chunks with a murmur3 finalizer.
/// Keys come from the explorer, never from outside the program, so a
/// fixed unkeyed hash is safe here.
fn hash_bytes(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = 0x243f_6a88_85a3_08d3;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    // The length goes in last, so keys that differ only by trailing zero
    // bytes never share a hash (the finalizer below is a bijection).
    h = mix(h, u64::from_le_bytes(tail)) ^ bytes.len() as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// An exact set of `[u64]` keys, stored packed in one byte arena.
#[derive(Debug)]
pub(crate) struct KeySet {
    /// Entries back to back: LEB128 byte count, then the packed key.
    arena: Vec<u8>,
    /// Open-addressing table, linear probing; length a power of two and
    /// at most half full.
    slots: Vec<Slot>,
    len: usize,
    /// Reused buffer holding the packed form of the key being looked up.
    packed: Vec<u8>,
    hash: fn(&[u8]) -> u64,
}

impl KeySet {
    pub(crate) fn new() -> Self {
        Self::with_hasher(hash_bytes)
    }

    /// A set hashing packed keys with `hash` (tests force collisions
    /// through it).
    fn with_hasher(hash: fn(&[u8]) -> u64) -> Self {
        KeySet { arena: Vec::new(), slots: vec![EMPTY; 1024], len: 0, packed: Vec::new(), hash }
    }

    /// Number of distinct keys inserted.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the arena holds: every distinct key, packed.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Adds `key`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows the 32-bit offsets its slots hold.
    pub(crate) fn insert(&mut self, key: &[u64]) -> bool {
        self.packed.clear();
        for &word in key {
            push_leb128(&mut self.packed, word);
        }
        let hash = (self.hash)(&self.packed);
        let tag = (hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                break;
            }
            if slot.tag == tag && self.entry(slot.offset) == self.packed.as_slice() {
                return false;
            }
            i = (i + 1) & mask;
        }
        let offset = u32::try_from(self.arena.len())
            .ok()
            .filter(|&o| o != EMPTY.offset)
            .expect("state-key arena exceeds the 4 GiB its 32-bit offsets address");
        push_leb128(&mut self.arena, self.packed.len() as u64);
        self.arena.extend_from_slice(&self.packed);
        self.slots[i] = Slot { tag, offset };
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
        true
    }

    /// The packed key stored at arena `offset`.
    fn entry(&self, offset: u32) -> &[u8] {
        let at = offset as usize;
        let (len, prefix) = read_leb128(&self.arena[at..]);
        &self.arena[at + prefix..at + prefix + len as usize]
    }

    /// Doubles the table, re-placing every entry by its rehashed key.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = (self.hash)(self.entry(slot.offset)) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_types::{CacheId, CacheIdSet};

    #[test]
    fn length_and_trailing_zeros_keep_keys_distinct() {
        let mut set = KeySet::new();
        let keys: [&[u64]; 6] = [&[], &[0], &[0, 0], &[1], &[1, 0], &[1, 0, 0]];
        for key in keys {
            assert!(set.insert(key), "{key:?} collided with an earlier key");
        }
        for key in keys {
            assert!(!set.insert(key), "{key:?} was not found again");
        }
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn full_width_words_round_trip() {
        let all: CacheIdSet = (0..64).map(CacheId::new).collect();
        assert_eq!(all.bits(), u64::MAX);
        let words = [0, 1, 0x7f, 0x80, 1 << 63, u64::MAX - 1, all.bits()];
        let mut packed = Vec::new();
        for &w in &words {
            push_leb128(&mut packed, w);
        }
        let mut at = 0;
        for &w in &words {
            let (value, n) = read_leb128(&packed[at..]);
            assert_eq!(value, w);
            at += n;
        }
        assert_eq!(at, packed.len());
        let mut set = KeySet::new();
        assert!(set.insert(&[u64::MAX, 3]));
        assert!(set.insert(&[u64::MAX - 1, 3]));
        assert!(!set.insert(&[all.bits(), 3]));
    }

    #[test]
    fn membership_survives_every_growth() {
        let mut set = KeySet::new();
        let key = |i: u64| [i, i.wrapping_mul(0x1_0000_0001), i % 3];
        let n = 20_000u64;
        let mut tables = vec![set.slots.len()];
        for i in 0..n {
            assert!(set.insert(&key(i)));
            if *tables.last().unwrap() != set.slots.len() {
                tables.push(set.slots.len());
                // Every key inserted so far is still found after this growth.
                assert!((0..=i).all(|j| !set.insert(&key(j))), "lost a key growing to {tables:?}");
            }
        }
        assert!(tables.len() >= 5, "too few growths exercised: {tables:?}");
        assert_eq!(set.len(), n as usize);
        assert!(set.arena_bytes() > 0);
    }

    #[test]
    fn equal_tags_are_told_apart_by_bytes() {
        // Every key hashes alike: same tag, same home slot, through growth.
        let mut set = KeySet::with_hasher(|_| 0xdead_beef_0000_0007);
        for i in 0..1500u64 {
            assert!(set.insert(&[i, 7]), "key {i} merged on a tag match");
        }
        assert!(set.slots.len() > 1024, "the table must have grown");
        for i in 0..1500u64 {
            assert!(!set.insert(&[i, 7]));
        }
        assert_eq!(set.len(), 1500);
    }
}
