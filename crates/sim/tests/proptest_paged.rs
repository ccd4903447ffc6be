//! Property tests of the paged-slab table against a plain-`Vec` reference
//! model. [`PagedVec`] is the storage under the kernel's and runtime's
//! struct-of-arrays thread tables, so its indexing must be exactly
//! `Vec`-shaped: same ids from `push`, same values back from `get`/index,
//! same iteration order (by `iter` and by `for x in &paged`), same
//! mutation visibility, and a clone equal to the model — while
//! additionally guaranteeing rows never move and residency grows by
//! whole pages, in the clone too.
//!
//! The same table over [`SharedPage`]s holds the dwell ledger's episode
//! stream, whose snapshots share pages with the ledger they came from.
//! Its model is one `Vec` per clone: every clone must stay equal to the
//! rows it had when it was taken plus its own later pushes, whatever is
//! pushed to the others, and must share exactly the full pages.

use proptest::prelude::*;
use sa_sim::{PagedVec, SharedPage};

/// One step against both the paged table and the reference `Vec`.
/// Indices are reduced modulo the current length at execution time so
/// every drawn op is meaningful regardless of interleaving.
#[derive(Debug, Clone, Copy)]
enum SlabOp {
    Push(u64),
    /// Read row `i % len` through `get` and `Index`, compare to the model.
    Get(usize),
    /// Overwrite row `i % len` through `get_mut`.
    Set(usize, u64),
    /// Add a delta to row `i % len` through `IndexMut`.
    Bump(usize, u64),
}

fn slab_ops() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        4 => (0u64..1_000_000).prop_map(SlabOp::Push),
        3 => (0usize..4096).prop_map(SlabOp::Get),
        2 => ((0usize..4096), (0u64..1_000_000)).prop_map(|(i, v)| SlabOp::Set(i, v)),
        1 => ((0usize..4096), (1u64..100)).prop_map(|(i, d)| SlabOp::Bump(i, d)),
    ]
}

/// Runs an op sequence through a `PagedVec` with page size `P` and a
/// `Vec`, checking observable agreement after every step plus the
/// paged-specific invariants (stable row addresses, whole-page residency).
fn check_against_model<const P: usize>(ops: &[SlabOp]) {
    let mut paged: PagedVec<u64, P> = PagedVec::new();
    let mut model: Vec<u64> = Vec::new();
    // Address of row 0, captured at first push: rows must never move.
    let mut row0: Option<*const u64> = None;
    for &op in ops {
        match op {
            SlabOp::Push(v) => {
                let id = paged.push(v);
                model.push(v);
                assert_eq!(id as usize + 1, model.len(), "push must return dense ids");
                if row0.is_none() {
                    row0 = Some(&paged[0] as *const u64);
                }
            }
            SlabOp::Get(i) => {
                if model.is_empty() {
                    assert_eq!(paged.get(i), None);
                } else {
                    let i = i % model.len();
                    assert_eq!(paged.get(i), Some(&model[i]));
                    assert_eq!(paged[i], model[i]);
                }
            }
            SlabOp::Set(i, v) => {
                if model.is_empty() {
                    assert_eq!(paged.get_mut(i), None);
                } else {
                    let i = i % model.len();
                    *paged.get_mut(i).expect("in-bounds row") = v;
                    model[i] = v;
                }
            }
            SlabOp::Bump(i, d) => {
                if !model.is_empty() {
                    let i = i % model.len();
                    paged[i] = paged[i].wrapping_add(d);
                    model[i] = model[i].wrapping_add(d);
                }
            }
        }
        // Step invariants: length, emptiness, residency in whole pages
        // covering exactly the rows pushed so far.
        assert_eq!(paged.len(), model.len());
        assert_eq!(paged.is_empty(), model.is_empty());
        let pages_needed = model.len().div_ceil(P);
        assert_eq!(paged.bytes_resident(), pages_needed * P * 8);
        if let Some(p0) = row0 {
            assert_eq!(&paged[0] as *const u64, p0, "row 0 moved");
        }
    }
    // Terminal invariants: iteration order and one-past-the-end reads.
    let collected: Vec<u64> = paged.iter().copied().collect();
    assert_eq!(collected, model);
    let mut looped = Vec::new();
    for &x in &paged {
        looped.push(x);
    }
    assert_eq!(looped, model);
    assert_eq!(paged.get(model.len()), None);
    assert_eq!(paged.get_mut(model.len()), None);
    // A clone holds the same rows in whole pages and grows on its own.
    let mut copy = paged.clone();
    assert_eq!(copy.len(), model.len());
    assert_eq!(copy.iter().copied().collect::<Vec<_>>(), model);
    assert_eq!(copy.bytes_resident(), paged.bytes_resident());
    copy.push(u64::MAX);
    assert_eq!(copy[model.len()], u64::MAX);
    assert_eq!(
        paged.len(),
        model.len(),
        "pushing to the clone grew the original"
    );
    assert_eq!(copy.bytes_resident(), (model.len() + 1).div_ceil(P) * P * 8);
}

/// One step over a family of shared-page tables and their clones.
/// Table indices are reduced modulo the family's size at execution time.
#[derive(Debug, Clone, Copy)]
enum ShareOp {
    /// Push a row to table `i`.
    Push(usize, u64),
    /// Add a clone of table `i` to the family.
    Clone(usize),
}

fn share_ops() -> impl Strategy<Value = ShareOp> {
    prop_oneof![
        8 => ((0usize..16), (0u64..1_000_000)).prop_map(|(i, v)| ShareOp::Push(i, v)),
        1 => (0usize..16).prop_map(ShareOp::Clone),
    ]
}

/// Every observable of a shared-page table against its model rows.
fn assert_matches<const P: usize>(t: &PagedVec<u64, P, SharedPage<u64>>, model: &[u64]) {
    assert_eq!(t.len(), model.len());
    assert_eq!(t.is_empty(), model.is_empty());
    assert!(
        t.iter().copied().eq(model.iter().copied()),
        "forward rows differ"
    );
    assert!(
        t.iter().rev().copied().eq(model.iter().rev().copied()),
        "reverse rows differ"
    );
    let mut looped = Vec::new();
    for &x in t {
        looped.push(x);
    }
    assert_eq!(looped, model);
    for (i, &v) in model.iter().enumerate() {
        assert_eq!(t[i], v);
        assert_eq!(t.get(i), Some(&v));
    }
    assert_eq!(t.get(model.len()), None);
    assert_eq!(t.bytes_resident(), model.len().div_ceil(P) * P * 8);
}

/// Runs a push/clone sequence over shared-page tables, checking every
/// table against its own `Vec` after every step, and at each clone that
/// the full pages are shared and the partly filled one is copied.
fn check_shared_against_model<const P: usize>(ops: &[ShareOp]) {
    let mut tables: Vec<PagedVec<u64, P, SharedPage<u64>>> = vec![PagedVec::new()];
    let mut models: Vec<Vec<u64>> = vec![Vec::new()];
    for &op in ops {
        match op {
            ShareOp::Push(i, v) => {
                let i = i % tables.len();
                let id = tables[i].push(v);
                models[i].push(v);
                assert_eq!(id as usize + 1, models[i].len());
            }
            ShareOp::Clone(i) => {
                let i = i % tables.len();
                let copy = tables[i].clone();
                let full = models[i].len() / P * P;
                for r in 0..models[i].len() {
                    assert_eq!(
                        core::ptr::eq(&copy[r], &tables[i][r]),
                        r < full,
                        "row {r} of {}: only full pages are shared",
                        models[i].len()
                    );
                }
                tables.push(copy);
                models.push(models[i].clone());
            }
        }
        for (t, m) in tables.iter().zip(&models) {
            assert_matches(t, m);
        }
    }
}

proptest! {
    /// Clones taken at random points, then pushes on either side, at page
    /// size 4 (many full pages, many partly filled tails).
    #[test]
    fn shared_pages_isolate_clones_small_pages(ops in prop::collection::vec(share_ops(), 1..300)) {
        check_shared_against_model::<4>(&ops);
    }

    /// The same at page size 16, where most clones land mid-page.
    #[test]
    fn shared_pages_isolate_clones_mid_pages(ops in prop::collection::vec(share_ops(), 1..300)) {
        check_shared_against_model::<16>(&ops);
    }

    /// Page size 4: sequences a few hundred ops long cross dozens of page
    /// boundaries, so page-allocation seams get dense coverage.
    #[test]
    fn paged_vec_matches_vec_small_pages(ops in prop::collection::vec(slab_ops(), 1..400)) {
        check_against_model::<4>(&ops);
    }

    /// Page size 64: most sequences stay inside one or two pages, pinning
    /// the intra-page fast path against the same model.
    #[test]
    fn paged_vec_matches_vec_large_pages(ops in prop::collection::vec(slab_ops(), 1..400)) {
        check_against_model::<64>(&ops);
    }

    /// Mutating through `iter_mut` is equivalent to mutating the model
    /// element-wise, regardless of how the rows were laid across pages.
    #[test]
    fn iter_mut_matches_model(vals in prop::collection::vec(0u64..1000, 0..200)) {
        let mut paged: PagedVec<u64, 8> = PagedVec::new();
        let mut model = vals.clone();
        for &v in &vals {
            paged.push(v);
        }
        for r in paged.iter_mut() {
            *r = r.wrapping_mul(3).wrapping_add(1);
        }
        for r in model.iter_mut() {
            *r = r.wrapping_mul(3).wrapping_add(1);
        }
        let collected: Vec<u64> = paged.iter().copied().collect();
        prop_assert_eq!(collected, model);
    }
}
