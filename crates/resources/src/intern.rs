//! Interned resource names and foci.
//!
//! Resource names are shared segment slices and foci are short sorted
//! vectors of them — cheap to clone, but hashing or comparing one still
//! walks every segment's text on each Search History Graph lookup or
//! sample-routing decision. The
//! [`Interner`] assigns each distinct [`ResourceName`] / [`Focus`] a
//! dense, copyable id ([`NameId`] / [`FocusId`]) so hot structures can
//! key on a `u32` and keep the string form only for report and record
//! boundaries.
//!
//! Ids are only meaningful relative to the interner that produced them;
//! an id is never invalidated (the interner grows monotonically). For
//! cross-interner (and cross-process) identity — e.g. the corpus fact
//! tables built by `histpc-lint` — the interner also exposes
//! *content-based* hashes: [`Interner::name_hash`] is the FNV-1a 64 of
//! a name's display form (cached per id so a corpus hashes each
//! distinct name once), and [`Interner::set_signature`] combines member
//! hashes order-independently into a signature of a resource-name set.

use crate::fnv::{fnv64, FNV_PRIME};
use crate::focus::Focus;
use crate::name::ResourceName;
use std::collections::HashMap;

/// Dense, copyable id of an interned [`ResourceName`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// Dense, copyable id of an interned [`Focus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FocusId(pub u32);

/// A monotonically growing two-way table of resource names and foci.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<ResourceName>,
    name_ids: HashMap<ResourceName, NameId>,
    foci: Vec<Focus>,
    focus_ids: HashMap<Focus, FocusId>,
    /// Content hash per interned name, filled lazily (0 = not yet
    /// computed; FNV-1a of a non-empty display form is never 0 in
    /// practice, and a collision with 0 only costs a re-hash).
    name_hashes: Vec<u64>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns a resource name, returning its id (inserting on first
    /// sight).
    pub fn intern_name(&mut self, name: &ResourceName) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.clone());
        self.name_ids.insert(name.clone(), id);
        id
    }

    /// The id of an already-interned name, without inserting.
    pub fn lookup_name(&self, name: &ResourceName) -> Option<NameId> {
        self.name_ids.get(name).copied()
    }

    /// The name behind an id. Panics on an id from another interner.
    pub fn resolve_name(&self, id: NameId) -> &ResourceName {
        &self.names[id.0 as usize]
    }

    /// Interns a focus, returning its id (inserting on first sight).
    pub fn intern_focus(&mut self, focus: &Focus) -> FocusId {
        if let Some(&id) = self.focus_ids.get(focus) {
            return id;
        }
        let id = FocusId(self.foci.len() as u32);
        self.foci.push(focus.clone());
        self.focus_ids.insert(focus.clone(), id);
        id
    }

    /// The id of an already-interned focus, without inserting or
    /// cloning the key.
    pub fn lookup_focus(&self, focus: &Focus) -> Option<FocusId> {
        self.focus_ids.get(focus).copied()
    }

    /// The focus behind an id. Panics on an id from another interner.
    pub fn resolve_focus(&self, id: FocusId) -> &Focus {
        &self.foci[id.0 as usize]
    }

    /// Content-based hash of a resource name: the FNV-1a 64 of its
    /// display form, cached per interned id. Unlike [`NameId`] (dense,
    /// first-sight-ordered, interner-local) this hash is stable across
    /// interners, processes, and runs — it depends only on the name's
    /// text.
    pub fn name_hash(&mut self, name: &ResourceName) -> u64 {
        let id = self.intern_name(name);
        let idx = id.0 as usize;
        if self.name_hashes.len() <= idx {
            self.name_hashes.resize(idx + 1, 0);
        }
        if self.name_hashes[idx] == 0 {
            self.name_hashes[idx] = fnv64(name.to_string().as_bytes());
        }
        self.name_hashes[idx]
    }

    /// Order-independent content signature of a set of resource names:
    /// each member's [`name_hash`](Interner::name_hash) folded in with
    /// a symmetric combiner (XOR plus a multiplied sum, so both member
    /// identity and multiset size contribute). Two records with the
    /// same resource set produce the same signature regardless of
    /// listing order or which interner computed it.
    pub fn set_signature(&mut self, names: &[ResourceName]) -> u64 {
        let mut xor = 0u64;
        let mut sum = 0u64;
        for name in names {
            let h = self.name_hash(name);
            xor ^= h;
            sum = sum.wrapping_add(h.wrapping_mul(FNV_PRIME));
        }
        xor ^ sum.rotate_left(32)
    }

    /// Number of distinct names interned.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Number of distinct foci interned.
    pub fn focus_count(&self) -> usize {
        self.foci.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    #[test]
    fn names_intern_to_stable_ids() {
        let mut i = Interner::new();
        let a = i.intern_name(&n("/Code/a.c"));
        let b = i.intern_name(&n("/Code/b.c"));
        assert_ne!(a, b);
        assert_eq!(i.intern_name(&n("/Code/a.c")), a);
        assert_eq!(i.resolve_name(a), &n("/Code/a.c"));
        assert_eq!(i.lookup_name(&n("/Code/b.c")), Some(b));
        assert_eq!(i.lookup_name(&n("/Code/c.c")), None);
        assert_eq!(i.name_count(), 2);
    }

    #[test]
    fn foci_intern_to_stable_ids() {
        let mut i = Interner::new();
        let wp = Focus::whole_program(["Code", "Process"]);
        let narrowed = wp.with_selection(n("/Code/a.c"));
        let a = i.intern_focus(&wp);
        let b = i.intern_focus(&narrowed);
        assert_ne!(a, b);
        assert_eq!(i.intern_focus(&wp), a);
        assert_eq!(i.resolve_focus(b), &narrowed);
        assert_eq!(i.lookup_focus(&wp), Some(a));
        assert_eq!(i.lookup_focus(&wp.with_selection(n("/Code/b.c"))), None);
        assert_eq!(i.focus_count(), 2);
    }

    #[test]
    fn name_hashes_are_content_based_and_interner_independent() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        // Different first-sight order => different ids, same hashes.
        a.intern_name(&n("/Code/a.c"));
        let ha = a.name_hash(&n("/Code/b.c"));
        let hb = b.name_hash(&n("/Code/b.c"));
        assert_eq!(ha, hb);
        assert_ne!(a.name_hash(&n("/Code/a.c")), ha);
        // Cached path returns the same value.
        assert_eq!(a.name_hash(&n("/Code/b.c")), ha);
    }

    #[test]
    fn set_signature_is_order_independent() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        let fwd = [n("/Code"), n("/Machine"), n("/Code/a.c")];
        let rev = [n("/Code/a.c"), n("/Machine"), n("/Code")];
        assert_eq!(a.set_signature(&fwd), b.set_signature(&rev));
        assert_ne!(a.set_signature(&fwd), a.set_signature(&fwd[..2]));
        assert_eq!(a.set_signature(&[]), 0);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_sight() {
        let mut i = Interner::new();
        let ids: Vec<NameId> = ["/Code", "/Machine", "/Process"]
            .iter()
            .map(|s| i.intern_name(&n(s)))
            .collect();
        assert_eq!(ids, vec![NameId(0), NameId(1), NameId(2)]);
    }
}
