//! A paged bitmap of line addresses.
//!
//! The controller's written-line set holds every line a process has
//! ever written back — millions of entries after pre-aging — and is
//! queried on every OTP data read miss. A bitmap with one bit per line,
//! materialised in pages on first touch like [`padlock_mem::SparseMemory`],
//! costs one bit per covered line instead of a tree node per member,
//! and a lookup is one page-map probe plus a word test.

use std::collections::BTreeMap;

/// Lines per page (log2).
const PAGE_BITS: u32 = 12;
/// 64-bit words per page.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

/// A set of line addresses, one bit per line, indexed by
/// `line_addr / line_bytes`.
#[derive(Debug, Clone)]
pub(crate) struct LineSet {
    line_bytes: u64,
    // BTreeMap, not HashMap: padlock-lint rule D1.
    /// Page key → index into `pages`.
    index: BTreeMap<u64, usize>,
    pages: Vec<[u64; PAGE_WORDS]>,
    /// The `(key, index)` of the page `insert` touched last: a
    /// pre-age feed sets thousands of bits per page in a row.
    last: Option<(u64, usize)>,
}

impl LineSet {
    /// An empty set over lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub(crate) fn new(line_bytes: u32) -> Self {
        assert!(line_bytes > 0, "line_bytes must be positive");
        Self {
            line_bytes: u64::from(line_bytes),
            index: BTreeMap::new(),
            pages: Vec::new(),
            last: None,
        }
    }

    /// The page key, word index and bit mask of `line_addr`.
    fn locate(&self, line_addr: u64) -> (u64, usize, u64) {
        let line = line_addr / self.line_bytes;
        let word = (line >> 6) as usize & (PAGE_WORDS - 1);
        (line >> PAGE_BITS, word, 1 << (line & 63))
    }

    /// Adds `line_addr`, returning whether it was newly added (the
    /// contract of `BTreeSet::insert`).
    pub(crate) fn insert(&mut self, line_addr: u64) -> bool {
        let (key, word, bit) = self.locate(line_addr);
        let page = match self.last {
            Some((last, page)) if last == key => page,
            _ => {
                let page = *self.index.entry(key).or_insert_with(|| {
                    self.pages.push([0; PAGE_WORDS]);
                    self.pages.len() - 1
                });
                self.last = Some((key, page));
                page
            }
        };
        let slot = &mut self.pages[page][word];
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Whether `line_addr` is a member.
    pub(crate) fn contains(&self, line_addr: u64) -> bool {
        let (key, word, bit) = self.locate(line_addr);
        self.index
            .get(&key)
            .is_some_and(|&page| self.pages[page][word] & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 128;
    const PAGE_LINES: u64 = 1 << PAGE_BITS;

    #[test]
    fn insert_reports_only_the_first_addition() {
        let mut set = LineSet::new(128);
        assert!(!set.contains(0x4000));
        assert!(set.insert(0x4000));
        assert!(!set.insert(0x4000), "a second insert is not new");
        assert!(set.contains(0x4000));
        assert!(!set.contains(0x4000 + LINE), "neighbours stay clear");
    }

    #[test]
    fn page_edges_are_distinct_members() {
        let mut set = LineSet::new(128);
        let last_of_page = (PAGE_LINES - 1) * LINE;
        let first_of_next = PAGE_LINES * LINE;
        for addr in [0, 63 * LINE, 64 * LINE, last_of_page, first_of_next] {
            assert!(set.insert(addr), "{addr:#x} is new");
        }
        for addr in [0, 63 * LINE, 64 * LINE, last_of_page, first_of_next] {
            assert!(set.contains(addr), "{addr:#x} is a member");
            assert!(!set.insert(addr), "{addr:#x} is not new twice");
        }
        for addr in [
            LINE,
            62 * LINE,
            65 * LINE,
            last_of_page - LINE,
            first_of_next + LINE,
        ] {
            assert!(!set.contains(addr), "{addr:#x} was never inserted");
        }
        assert_eq!(set.pages.len(), 2);
    }

    #[test]
    fn compartment_stripes_do_not_alias() {
        // The multi-compartment server offsets compartment c's
        // addresses by c << 40; the same in-stripe line must be a
        // separate member in every stripe.
        let mut set = LineSet::new(128);
        let stripe = |c: u64| c << 40;
        assert!(set.insert(stripe(1) + 0x8000));
        for c in [0, 2, 3] {
            assert!(!set.contains(stripe(c) + 0x8000), "stripe {c}");
        }
        for c in 0..4 {
            set.insert(stripe(c) + 0x8000);
        }
        assert!(!set.insert(stripe(3) + 0x8000));
        assert!(set.contains(stripe(2) + 0x8000));
        assert!(!set.contains(stripe(2) + 0x8000 + LINE));
        assert_eq!(set.pages.len(), 4);
    }

    #[test]
    fn matches_a_btreeset_on_a_mixed_stream() {
        let mut set = LineSet::new(64);
        let mut reference = std::collections::BTreeSet::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % (3 * PAGE_LINES)) * 64 + ((x >> 32) & 1) * (5 << 40);
            assert_eq!(set.insert(addr), reference.insert(addr), "{addr:#x}");
        }
        for &addr in &reference {
            assert!(set.contains(addr));
        }
    }
}
