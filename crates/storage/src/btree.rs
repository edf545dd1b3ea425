//! Page-backed B+tree index: `i64` key → [`Rid`], duplicates allowed.
//!
//! Nodes are materialized from pages for manipulation and written back —
//! with ~450 entries per node the copy is cheap and keeps the split logic
//! straightforward. Deletes remove leaf entries without rebalancing
//! (standard simplification; the tree stays correct, merely non-minimal —
//! the paper's workloads are read-mostly). Concurrency is a tree-level
//! reader/writer latch; finer latch crabbing is orthogonal to the staging
//! architecture under study.
//!
//! Node layout (little-endian):
//!
//! ```text
//! byte 0      node type: 1 = leaf, 2 = internal
//! bytes 2..4  entry count: u16
//! bytes 8..16 leaf: next-leaf page id (u64::MAX = none)
//!             internal: leftmost child page id
//! bytes 16..  leaf:     (key i64, rid.page u64, rid.slot u16) × count
//!             internal: (key i64, child u64) × count
//! ```

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::page::{
    read_i64, read_u16, read_u64, write_i64, write_u16, write_u64, PageId, PAGE_SIZE,
};
use crate::tuple::Rid;
use parking_lot::RwLock;
use std::sync::Arc;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;
const HEADER: usize = 16;
const LEAF_ENTRY: usize = 18;
const INT_ENTRY: usize = 16;
const NO_PAGE: u64 = u64::MAX;
/// Every B+tree allocates its nodes in page file 0; heap files start at 256
/// (see [`crate::partition`]). Neither the log nor a snapshot names an
/// index page, so index pages need no stable ids.
const BTREE_FILE: u32 = 0;

/// Maximum entries per leaf node.
pub const LEAF_CAP: usize = (PAGE_SIZE - HEADER) / LEAF_ENTRY;
/// Maximum keys per internal node.
pub const INTERNAL_CAP: usize = (PAGE_SIZE - HEADER) / INT_ENTRY;

#[derive(Debug, Clone)]
enum Node {
    Leaf { keys: Vec<i64>, rids: Vec<Rid>, next: Option<PageId> },
    Internal { keys: Vec<i64>, children: Vec<PageId> },
}

/// A B+tree index over a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: RwLock<PageId>,
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        let root = {
            let guard = pool.new_page(BTREE_FILE)?;
            let node = Node::Leaf { keys: vec![], rids: vec![], next: None };
            guard.write(|d| encode_node(&node, d));
            guard.page_id()
        };
        Ok(Self { pool, root: RwLock::new(root) })
    }

    /// Page id of the root (for diagnostics).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    /// Insert a `(key, rid)` pair; duplicate keys are allowed.
    pub fn insert(&self, key: i64, rid: Rid) -> StorageResult<()> {
        let mut root = self.root.write();
        if let Some((sep, right)) = self.insert_rec(*root, key, rid)? {
            // Root split: grow the tree by one level.
            let new_root = self.pool.new_page(BTREE_FILE)?;
            let node = Node::Internal { keys: vec![sep], children: vec![*root, right] };
            new_root.write(|d| encode_node(&node, d));
            *root = new_root.page_id();
        }
        Ok(())
    }

    fn insert_rec(&self, page: PageId, key: i64, rid: Rid) -> StorageResult<Option<(i64, PageId)>> {
        let mut node = self.read_node(page)?;
        match &mut node {
            Node::Leaf { keys, rids, next } => {
                let pos = keys.partition_point(|&k| k <= key);
                keys.insert(pos, key);
                rids.insert(pos, rid);
                if keys.len() <= LEAF_CAP {
                    self.write_node(page, &node)?;
                    return Ok(None);
                }
                // Split the overflowing leaf.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_rids = rids.split_off(mid);
                let sep = right_keys[0];
                let right_guard = self.pool.new_page(BTREE_FILE)?;
                let right_id = right_guard.page_id();
                let right = Node::Leaf { keys: right_keys, rids: right_rids, next: *next };
                right_guard.write(|d| encode_node(&right, d));
                *next = Some(right_id);
                self.write_node(page, &node)?;
                Ok(Some((sep, right_id)))
            }
            Node::Internal { keys, children } => {
                let d = keys.partition_point(|&k| k <= key);
                let child = children[d];
                let Some((sep, new_child)) = self.insert_rec(child, key, rid)? else {
                    return Ok(None);
                };
                keys.insert(d, sep);
                children.insert(d + 1, new_child);
                if keys.len() <= INTERNAL_CAP {
                    self.write_node(page, &node)?;
                    return Ok(None);
                }
                // Split the internal node; the middle key moves up.
                let mid = keys.len() / 2;
                let promoted = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // drop the promoted key from the left node
                let right_children = children.split_off(mid + 1);
                let right_guard = self.pool.new_page(BTREE_FILE)?;
                let right_id = right_guard.page_id();
                let right = Node::Internal { keys: right_keys, children: right_children };
                right_guard.write(|d| encode_node(&right, d));
                self.write_node(page, &node)?;
                Ok(Some((promoted, right_id)))
            }
        }
    }

    /// All rids stored under `key`.
    pub fn search(&self, key: i64) -> StorageResult<Vec<Rid>> {
        Ok(self.range(Some(key), Some(key))?.into_iter().map(|(_, r)| r).collect())
    }

    /// All `(key, rid)` pairs with `lo ≤ key ≤ hi` (either bound optional),
    /// in key order.
    pub fn range(&self, lo: Option<i64>, hi: Option<i64>) -> StorageResult<Vec<(i64, Rid)>> {
        let root = self.root.read();
        let mut page = self.leaf_for(*root, lo.unwrap_or(i64::MIN))?;
        let mut out = Vec::new();
        loop {
            let node = self.read_node(page)?;
            let Node::Leaf { keys, rids, next } = node else {
                return Err(StorageError::Corrupt("leaf_for returned internal node".into()));
            };
            for (k, r) in keys.iter().zip(&rids) {
                if let Some(lo) = lo {
                    if *k < lo {
                        continue;
                    }
                }
                if let Some(hi) = hi {
                    if *k > hi {
                        return Ok(out);
                    }
                }
                out.push((*k, *r));
            }
            match next {
                Some(n) => page = n,
                None => return Ok(out),
            }
        }
    }

    /// Remove one `(key, rid)` pair; returns whether it was present.
    pub fn delete(&self, key: i64, rid: Rid) -> StorageResult<bool> {
        let root = self.root.write();
        let page = self.leaf_for(*root, key)?;
        // The matching entry may live in a chain of leaves when duplicates
        // span splits.
        let mut cur = page;
        loop {
            let mut node = self.read_node(cur)?;
            let Node::Leaf { keys, rids, next } = &mut node else {
                return Err(StorageError::Corrupt("leaf_for returned internal node".into()));
            };
            if keys.first().is_some_and(|&k| k > key) {
                return Ok(false);
            }
            if let Some(pos) =
                keys.iter().zip(rids.iter()).position(|(&k, r)| k == key && *r == rid)
            {
                keys.remove(pos);
                rids.remove(pos);
                self.write_node(cur, &node)?;
                return Ok(true);
            }
            if keys.last().is_some_and(|&k| k > key) {
                return Ok(false);
            }
            match next {
                Some(n) => cur = *n,
                None => return Ok(false),
            }
        }
    }

    /// Total number of entries (walks all leaves).
    pub fn len(&self) -> StorageResult<usize> {
        Ok(self.range(None, None)?.len())
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (1 = just a leaf root).
    pub fn height(&self) -> StorageResult<usize> {
        let mut page = *self.root.read();
        let mut h = 1;
        loop {
            match self.read_node(page)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Internal { children, .. } => {
                    page = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Descend from `page` to the *leftmost* leaf that may contain `key`.
    ///
    /// Uses a strict comparison against separators: a separator equal to
    /// `key` can have duplicates of `key` on both sides of the split, so
    /// lookups must start left of it and walk the leaf chain rightwards.
    fn leaf_for(&self, page: PageId, key: i64) -> StorageResult<PageId> {
        let mut cur = page;
        loop {
            match self.read_node(cur)? {
                Node::Leaf { .. } => return Ok(cur),
                Node::Internal { keys, children } => {
                    let d = keys.partition_point(|&k| k < key);
                    cur = children[d];
                }
            }
        }
    }

    fn read_node(&self, page: PageId) -> StorageResult<Node> {
        let guard = self.pool.fetch(page)?;
        guard.read(decode_node)
    }

    fn write_node(&self, page: PageId, node: &Node) -> StorageResult<()> {
        let guard = self.pool.fetch(page)?;
        guard.write(|d| encode_node(node, d));
        Ok(())
    }
}

fn encode_node(node: &Node, d: &mut [u8]) {
    match node {
        Node::Leaf { keys, rids, next } => {
            d[0] = TYPE_LEAF;
            write_u16(d, 2, keys.len() as u16);
            write_u64(d, 8, next.map_or(NO_PAGE, |p| p.0));
            let mut off = HEADER;
            for (k, r) in keys.iter().zip(rids) {
                write_i64(d, off, *k);
                write_u64(d, off + 8, r.page.0);
                write_u16(d, off + 16, r.slot);
                off += LEAF_ENTRY;
            }
        }
        Node::Internal { keys, children } => {
            debug_assert_eq!(children.len(), keys.len() + 1);
            d[0] = TYPE_INTERNAL;
            write_u16(d, 2, keys.len() as u16);
            write_u64(d, 8, children[0].0);
            let mut off = HEADER;
            for (k, c) in keys.iter().zip(&children[1..]) {
                write_i64(d, off, *k);
                write_u64(d, off + 8, c.0);
                off += INT_ENTRY;
            }
        }
    }
}

fn decode_node(d: &[u8]) -> StorageResult<Node> {
    let count = read_u16(d, 2) as usize;
    match d[0] {
        TYPE_LEAF => {
            if count > LEAF_CAP + 1 {
                return Err(StorageError::Corrupt(format!("leaf count {count}")));
            }
            let raw_next = read_u64(d, 8);
            let next = if raw_next == NO_PAGE { None } else { Some(PageId(raw_next)) };
            let mut keys = Vec::with_capacity(count);
            let mut rids = Vec::with_capacity(count);
            let mut off = HEADER;
            for _ in 0..count {
                keys.push(read_i64(d, off));
                rids.push(Rid::new(PageId(read_u64(d, off + 8)), read_u16(d, off + 16)));
                off += LEAF_ENTRY;
            }
            Ok(Node::Leaf { keys, rids, next })
        }
        TYPE_INTERNAL => {
            if count > INTERNAL_CAP + 1 {
                return Err(StorageError::Corrupt(format!("internal count {count}")));
            }
            let mut keys = Vec::with_capacity(count);
            let mut children = Vec::with_capacity(count + 1);
            children.push(PageId(read_u64(d, 8)));
            let mut off = HEADER;
            for _ in 0..count {
                keys.push(read_i64(d, off));
                children.push(PageId(read_u64(d, off + 8)));
                off += INT_ENTRY;
            }
            Ok(Node::Internal { keys, children })
        }
        t => Err(StorageError::Corrupt(format!("unknown btree node type {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn tree() -> BTree {
        BTree::create(BufferPool::new(Arc::new(MemDisk::new()), 256)).unwrap()
    }

    fn rid(i: i64) -> Rid {
        Rid::new(PageId(i as u64 / 100), (i % 100) as u16)
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = tree();
        for i in 0..100 {
            t.insert(i, rid(i)).unwrap();
        }
        assert_eq!(t.search(42).unwrap(), vec![rid(42)]);
        assert_eq!(t.search(1000).unwrap(), Vec::<Rid>::new());
    }

    #[test]
    fn splits_preserve_order_and_content() {
        let t = tree();
        let n = 3 * LEAF_CAP as i64; // force multiple leaf splits
        for i in (0..n).rev() {
            t.insert(i, rid(i)).unwrap();
        }
        assert!(t.height().unwrap() >= 2);
        let all = t.range(None, None).unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (k, r)) in all.iter().enumerate() {
            assert_eq!(*k, i as i64);
            assert_eq!(*r, rid(i as i64));
        }
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let t = tree();
        for i in 0..50 {
            t.insert(i * 2, rid(i)).unwrap(); // even keys 0..98
        }
        let r = t.range(Some(10), Some(20)).unwrap();
        let keys: Vec<i64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        let below = t.range(None, Some(4)).unwrap();
        assert_eq!(below.len(), 3); // 0, 2, 4
        let above = t.range(Some(96), None).unwrap();
        assert_eq!(above.len(), 2); // 96, 98
    }

    #[test]
    fn duplicates_are_kept_and_individually_deletable() {
        let t = tree();
        t.insert(7, rid(1)).unwrap();
        t.insert(7, rid(2)).unwrap();
        t.insert(7, rid(3)).unwrap();
        assert_eq!(t.search(7).unwrap().len(), 3);
        assert!(t.delete(7, rid(2)).unwrap());
        let left = t.search(7).unwrap();
        assert_eq!(left.len(), 2);
        assert!(!left.contains(&rid(2)));
        assert!(!t.delete(7, rid(2)).unwrap(), "double delete returns false");
    }

    #[test]
    fn delete_missing_key_returns_false() {
        let t = tree();
        t.insert(1, rid(1)).unwrap();
        assert!(!t.delete(2, rid(2)).unwrap());
    }

    #[test]
    fn deep_tree_from_random_order_stays_sorted() {
        let t = tree();
        // Pseudo-random permutation without rand: multiplicative hash.
        let n: i64 = 2 * LEAF_CAP as i64 + 37;
        for i in 0..n {
            let k = (i * 2654435761) % 10_007;
            t.insert(k, rid(i)).unwrap();
        }
        let all = t.range(None, None).unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0), "keys must be sorted");
    }

    #[test]
    fn empty_tree_behaves() {
        let t = tree();
        assert!(t.is_empty().unwrap());
        assert_eq!(t.height().unwrap(), 1);
        assert_eq!(t.range(None, None).unwrap(), vec![]);
        assert!(!t.delete(0, rid(0)).unwrap());
    }

    #[test]
    fn many_duplicates_across_leaf_splits_are_found() {
        let t = tree();
        let dups = LEAF_CAP + 50; // same key spanning more than one leaf
        for i in 0..dups {
            t.insert(99, rid(i as i64)).unwrap();
        }
        t.insert(98, rid(-1)).unwrap();
        t.insert(100, rid(-2)).unwrap();
        assert_eq!(t.search(99).unwrap().len(), dups);
        // Delete one duplicate that lives in a later leaf.
        assert!(t.delete(99, rid((dups - 1) as i64)).unwrap());
        assert_eq!(t.search(99).unwrap().len(), dups - 1);
    }
}
