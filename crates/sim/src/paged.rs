//! Paged-slab storage for dense append-only tables: the per-thread
//! tables, and the decision log and dwell ledger's record streams.
//!
//! A [`PagedVec`] is an append-only indexed table that grows by whole
//! pages instead of realloc-and-copy. At 10⁶ entries a plain `Vec`
//! doubles through ~20 reallocations, each copying the entire table and
//! transiently holding 1.5× the steady-state footprint; a `PagedVec`
//! allocates one fixed-size page at a time and never moves an existing
//! element. Ids are dense `u32` row numbers (the same id spaces as
//! `KtId`/`UtId`), so `table[id]` is a shift-and-mask plus one indexed
//! load — no hashing, no pointer chase through per-entry boxes.
//!
//! The page size is a const parameter and must be a power of two so the
//! index split compiles to `id >> LOG2(P)` / `id & (P-1)`. Hot tables
//! (thread state words) use large pages; tiny tables (address spaces)
//! use small ones so `bytes_resident` stays honest.
//!
//! How a table holds its pages is the [`Page`] parameter. The default,
//! a plain `Vec<T>` per page, keeps rows mutable in place and a clone
//! copies every page. A record stream that is only appended to and read
//! back can use [`SharedPage`] instead: a clone then shares every full
//! page by reference count and copies only the partly filled last page,
//! so a snapshot of the stream costs one page however long it is, and
//! neither side's later pushes show in the other.

use core::marker::PhantomData;
use std::sync::Arc;

/// How a [`PagedVec`] holds one page of rows.
///
/// Rows are read through `Deref<Target = [T]>`; only a table's last
/// page is ever pushed to.
pub trait Page<T>: core::ops::Deref<Target = [T]> {
    /// An empty page with room for `cap` rows.
    fn with_capacity(cap: usize) -> Self;
    /// Appends a row.
    fn push(&mut self, row: T);
    /// Rows the page has room for.
    fn capacity(&self) -> usize;
    /// The page as a clone of a table with `cap`-row pages holds it.
    fn clone_page(&self, cap: usize) -> Self
    where
        T: Clone;
}

/// A page owned by one table: rows are mutable in place, and a clone
/// copies the page at full capacity, so the copy keeps growing a page at
/// a time like the original (a derived clone would trim the last page to
/// its length, and the next push would regrow it).
impl<T> Page<T> for Vec<T> {
    fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap)
    }

    fn push(&mut self, row: T) {
        Vec::push(self, row);
    }

    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }

    fn clone_page(&self, cap: usize) -> Self
    where
        T: Clone,
    {
        let mut copy = Vec::with_capacity(cap);
        copy.extend_from_slice(self);
        copy
    }
}

/// A page that the clones of its table share once it is full.
///
/// A full page is never written again, so a clone takes another
/// reference to it; the partly filled last page is the writer's, and a
/// clone copies it. Only a page's sole holder may push to it: a page
/// shared while still filling fails the next push instead of letting
/// rows leak from one clone into another.
#[derive(Debug)]
pub struct SharedPage<T>(Arc<Vec<T>>);

impl<T> core::ops::Deref for SharedPage<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> Page<T> for SharedPage<T> {
    fn with_capacity(cap: usize) -> Self {
        SharedPage(Arc::new(Vec::with_capacity(cap)))
    }

    fn push(&mut self, row: T) {
        Arc::get_mut(&mut self.0)
            .expect("push to a page shared with a clone")
            .push(row);
    }

    fn capacity(&self) -> usize {
        self.0.capacity()
    }

    fn clone_page(&self, cap: usize) -> Self
    where
        T: Clone,
    {
        if self.0.len() == cap {
            SharedPage(Arc::clone(&self.0))
        } else {
            SharedPage(Arc::new(self.0.clone_page(cap)))
        }
    }
}

impl<'a, T> IntoIterator for &'a SharedPage<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// An append-only paged table indexed by dense row number.
///
/// Rows are never moved once pushed; growth allocates a fresh page.
/// `P` is the page capacity in rows and must be a power of two. `G` is
/// how each page is held (see [`Page`]); rows are mutable in place only
/// with the default owned pages.
#[derive(Debug)]
pub struct PagedVec<T, const P: usize = 1024, G = Vec<T>> {
    pages: Vec<G>,
    len: usize,
    _rows: PhantomData<T>,
}

impl<T, const P: usize, G: Page<T>> Default for PagedVec<T, P, G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const P: usize, G: Page<T>> PagedVec<T, P, G> {
    const _POW2: () = assert!(P.is_power_of_two(), "page size must be a power of two");

    /// An empty table (no pages allocated).
    pub fn new() -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::_POW2;
        PagedVec {
            pages: Vec::new(),
            len: 0,
            _rows: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows have been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row and returns its dense index.
    pub fn push(&mut self, value: T) -> u32 {
        let id = self.len;
        if id >> P.trailing_zeros() == self.pages.len() {
            self.pages.push(G::with_capacity(P));
        }
        let page = self
            .pages
            .last_mut()
            .expect("page allocated on demand above");
        debug_assert!(page.len() < P);
        page.push(value);
        self.len += 1;
        u32::try_from(id).expect("paged table overflowed u32 id space")
    }

    /// Row `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            Some(&self.pages[i >> P.trailing_zeros()][i & (P - 1)])
        } else {
            None
        }
    }

    /// Bytes held resident by allocated pages (capacity, not just rows):
    /// the honest slab footprint reported by `bytes_per_thread`. A page
    /// shared between clones counts in each.
    pub fn bytes_resident(&self) -> usize {
        self.pages
            .iter()
            .map(|p| p.capacity() * core::mem::size_of::<T>())
            .sum()
    }

    /// Iterates rows in index order.
    pub fn iter<'a>(&'a self) -> core::iter::Flatten<core::slice::Iter<'a, G>>
    where
        &'a G: IntoIterator<Item = &'a T>,
    {
        self.pages.iter().flatten()
    }
}

impl<T, const P: usize> PagedVec<T, P> {
    /// Mutable row `i`, or `None` past the end.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i < self.len {
            Some(&mut self.pages[i >> P.trailing_zeros()][i & (P - 1)])
        } else {
            None
        }
    }

    /// Iterates rows mutably in index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.pages.iter_mut().flatten()
    }
}

impl<'a, T, const P: usize, G: Page<T>> IntoIterator for &'a PagedVec<T, P, G>
where
    &'a G: IntoIterator<Item = &'a T>,
{
    type Item = &'a T;
    type IntoIter = core::iter::Flatten<core::slice::Iter<'a, G>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Holds each page as [`Page::clone_page`] says: owned pages are copied,
/// shared pages are shared once full.
impl<T: Clone, const P: usize, G: Page<T>> Clone for PagedVec<T, P, G> {
    fn clone(&self) -> Self {
        PagedVec {
            pages: self.pages.iter().map(|page| page.clone_page(P)).collect(),
            len: self.len,
            _rows: PhantomData,
        }
    }
}

impl<T, const P: usize, G: Page<T>> core::ops::Index<usize> for PagedVec<T, P, G> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        &self.pages[i >> P.trailing_zeros()][i & (P - 1)]
    }
}

impl<T, const P: usize> core::ops::IndexMut<usize> for PagedVec<T, P> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        &mut self.pages[i >> P.trailing_zeros()][i & (P - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_roundtrip() {
        let mut v: PagedVec<u64, 4> = PagedVec::new();
        for i in 0..37u64 {
            let id = v.push(i * 3);
            assert_eq!(id as u64, i);
        }
        assert_eq!(v.len(), 37);
        for i in 0..37usize {
            assert_eq!(v[i], i as u64 * 3);
        }
        assert_eq!(v.get(37), None);
    }

    #[test]
    fn pages_never_move_rows() {
        let mut v: PagedVec<u32, 8> = PagedVec::new();
        v.push(7);
        let p0 = &v[0] as *const u32;
        for i in 0..1000 {
            v.push(i);
        }
        assert_eq!(&v[0] as *const u32, p0);
    }

    #[test]
    fn bytes_resident_counts_whole_pages() {
        let mut v: PagedVec<u64, 16> = PagedVec::new();
        assert_eq!(v.bytes_resident(), 0);
        v.push(1);
        assert_eq!(v.bytes_resident(), 16 * 8);
        for i in 0..16 {
            v.push(i);
        }
        assert_eq!(v.len(), 17);
        assert_eq!(v.bytes_resident(), 2 * 16 * 8);
    }

    #[test]
    fn iter_matches_index_order() {
        let mut v: PagedVec<usize, 4> = PagedVec::new();
        for i in 0..11 {
            v.push(i);
        }
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..11).collect::<Vec<_>>());
        for r in v.iter_mut() {
            *r += 100;
        }
        assert_eq!(v[10], 110);
    }
}
