//! Property-based tests for resource names, hierarchies and foci.

use histpc_resources::{Focus, ResourceHierarchy, ResourceName, ResourceSpace};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A strategy for valid path segments (no reserved chars, non-empty).
fn segment() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_.:-]{0,11}".prop_map(|s| s)
}

/// A strategy for valid resource names with 1..=5 segments.
fn resource_name() -> impl Strategy<Value = ResourceName> {
    prop::collection::vec(segment(), 1..=5)
        .prop_map(|segs| ResourceName::new(segs).expect("segments are valid"))
}

/// Selections on a random subset of the standard hierarchies: for each
/// hierarchy, the tail below its root if the focus spans it.
/// Tails draw from a tiny alphabet (including `.`) so that equal
/// prefixes, and names that order differently by segment than as text
/// (`/Code/a.c` vs `/Code/a/b`), come up often.
fn standard_selections() -> impl Strategy<Value = Vec<ResourceName>> {
    let tail = || prop::collection::vec("[ab.]{1,2}", 0..=3);
    prop::collection::vec(prop::option::of(tail()), 4).prop_map(|picks| {
        ["Code", "Machine", "Process", "SyncObject"]
            .iter()
            .zip(picks)
            .filter_map(|(h, tail)| tail.map(|tail| (h, tail)))
            .map(|(h, tail)| {
                let mut segs = vec![h.to_string()];
                segs.extend(tail);
                ResourceName::new(segs).expect("segments are valid")
            })
            .collect()
    })
}

/// The reference model of a focus: hierarchy name to selection
/// segments, the representation `Focus` replaced.
fn model(sels: &[ResourceName]) -> BTreeMap<String, Vec<String>> {
    sels.iter()
        .map(|s| (s.hierarchy().to_string(), s.segments().to_vec()))
        .collect()
}

fn model_text(m: &BTreeMap<String, Vec<String>>) -> String {
    let sels: Vec<String> = m
        .values()
        .map(|segs| format!("/{}", segs.join("/")))
        .collect();
    format!("<{}>", sels.join(","))
}

proptest! {
    /// `Focus` orders, compares, prints and parses exactly as the map
    /// model does, whatever order its selections arrive in.
    #[test]
    fn focus_agrees_with_map_model(
        a in standard_selections(),
        b in standard_selections(),
        rotate in 0usize..4,
    ) {
        let (ma, mb) = (model(&a), model(&b));
        let mut shuffled = a.clone();
        shuffled.rotate_left(rotate.min(a.len()));
        let fa = Focus::new(shuffled).unwrap();
        let fb = Focus::new(b.clone()).unwrap();
        prop_assert_eq!(fa.cmp(&fb), ma.cmp(&mb));
        prop_assert_eq!(fa == fb, ma == mb);
        prop_assert_eq!(fa.to_string(), model_text(&ma));
        prop_assert_eq!(Focus::parse(&fa.to_string()).unwrap(), fa.clone());
        for (h, segs) in &ma {
            prop_assert_eq!(fa.selection(h).map(ResourceName::segments), Some(&segs[..]));
        }
        // Replacing or adding one selection matches a map insert.
        if let Some(sel) = b.first() {
            let mut m = ma.clone();
            m.insert(sel.hierarchy().to_string(), sel.segments().to_vec());
            prop_assert_eq!(fa.with_selection(sel.clone()).to_string(), model_text(&m));
        }
        // A second selection in any spanned hierarchy is rejected.
        if let Some(sel) = a.first() {
            let mut dup = a.clone();
            dup.push(sel.child("x").unwrap());
            prop_assert!(Focus::new(dup).is_err());
        }
    }
}

proptest! {
    #[test]
    fn name_parse_format_roundtrip(name in resource_name()) {
        let text = name.to_string();
        let parsed = ResourceName::parse(&text).unwrap();
        prop_assert_eq!(parsed, name);
    }

    #[test]
    fn name_parent_is_strict_ancestor(name in resource_name()) {
        if let Some(p) = name.parent() {
            prop_assert!(p.is_ancestor_of(&name));
            prop_assert!(p.is_prefix_of(&name));
            prop_assert!(!name.is_prefix_of(&p));
            prop_assert_eq!(p.depth() + 1, name.depth());
        } else {
            prop_assert!(name.is_root());
        }
    }

    #[test]
    fn name_prefix_is_reflexive_and_antisymmetric(a in resource_name(), b in resource_name()) {
        prop_assert!(a.is_prefix_of(&a));
        if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn rewrite_prefix_preserves_suffix(name in resource_name(), to in resource_name()) {
        // Rewriting any ancestor prefix keeps the tail segments intact.
        if let Some(parent) = name.parent() {
            let rewritten = name.rewrite_prefix(&parent, &to).unwrap();
            prop_assert_eq!(rewritten.label(), name.label());
            prop_assert!(to.is_prefix_of(&rewritten));
        }
    }

    #[test]
    fn hierarchy_lookup_inverts_name_of(paths in prop::collection::vec(
        prop::collection::vec(segment(), 1..=4), 1..12)) {
        let mut h = ResourceHierarchy::new("Code").unwrap();
        for p in &paths {
            h.add_path(p).unwrap();
        }
        for name in h.all_names() {
            let id = h.lookup(&name).unwrap();
            prop_assert_eq!(h.name_of(id), name);
        }
    }

    #[test]
    fn hierarchy_children_are_direct_descendants(paths in prop::collection::vec(
        prop::collection::vec(segment(), 1..=4), 1..12)) {
        let mut h = ResourceHierarchy::new("Code").unwrap();
        for p in &paths {
            h.add_path(p).unwrap();
        }
        for name in h.all_names() {
            for child in h.children_of(&name) {
                prop_assert!(name.is_ancestor_of(&child));
                prop_assert_eq!(child.parent().unwrap(), name.clone());
            }
        }
    }

    #[test]
    fn focus_parse_format_roundtrip(sels in prop::collection::vec(
        prop::collection::vec(segment(), 1..=4), 1..4)) {
        // Give each selection a distinct hierarchy name to satisfy focus rules.
        let names: Vec<ResourceName> = sels
            .iter()
            .enumerate()
            .map(|(i, tail)| {
                let mut segs = vec![format!("H{i}")];
                segs.extend(tail.iter().cloned());
                ResourceName::new(segs).unwrap()
            })
            .collect();
        let f = Focus::new(names).unwrap();
        let parsed = Focus::parse(&f.to_string()).unwrap();
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn refinement_yields_strict_descendants(paths in prop::collection::vec(
        prop::collection::vec(segment(), 1..=3), 1..10)) {
        let mut s = ResourceSpace::new();
        s.add_hierarchy("Code").unwrap();
        s.add_hierarchy("Process").unwrap();
        for (i, p) in paths.iter().enumerate() {
            let mut segs = vec![if i % 2 == 0 { "Code" } else { "Process" }.to_string()];
            segs.extend(p.iter().cloned());
            s.add_resource(&ResourceName::new(segs).unwrap()).unwrap();
        }
        // Walk two levels of refinement from the whole program and check
        // the partial order at every step.
        let root = s.whole_program();
        for child in s.refine(&root) {
            prop_assert!(root.strictly_subsumes(&child));
            prop_assert!(s.validates(&child));
            for grand in s.refine(&child) {
                prop_assert!(child.strictly_subsumes(&grand));
                prop_assert!(root.strictly_subsumes(&grand));
                prop_assert_eq!(grand.depth(), child.depth() + 1);
            }
        }
    }

    #[test]
    fn subsumption_is_transitive(tail in prop::collection::vec(segment(), 3..=3)) {
        let s0 = ResourceName::new(["Code".to_string()]).unwrap();
        let s1 = s0.child(&tail[0]).unwrap();
        let s2 = s1.child(&tail[1]).unwrap();
        let whole = Focus::whole_program(["Code"]);
        let f1 = whole.with_selection(s1);
        let f2 = whole.with_selection(s2);
        prop_assert!(whole.subsumes(&f1));
        prop_assert!(f1.subsumes(&f2));
        prop_assert!(whole.subsumes(&f2));
    }
}
