//! Foci: one selection per resource hierarchy.
//!
//! A focus constrains a performance measurement to a part of the program
//! (paper §2). Selecting the root node of a hierarchy represents the
//! unconstrained view; selecting any other node narrows the view to the
//! leaves below it. The textual form mirrors the paper:
//! `</Code/testutil.C/verifyA,/Machine,/Process/Tester:2>`.

use crate::error::ResourceError;
use crate::name::ResourceName;
use std::fmt;

/// A focus: for each resource hierarchy, one selected resource.
///
/// Stored as a vector of selections sorted by hierarchy name (each
/// selection's first segment), at most one per hierarchy, so that equal
/// foci have identical textual forms. Because the hierarchy name leads
/// every selection, the derived order is the same as that of a map from
/// hierarchy name to selection.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Focus {
    selections: Vec<ResourceName>,
}

/// Where hierarchy `h`'s selection is (`Ok`) or would be inserted
/// (`Err`) in a vector sorted by hierarchy name.
fn slot(sorted: &[ResourceName], h: &str) -> Result<usize, usize> {
    sorted.binary_search_by(|s| s.hierarchy().cmp(h))
}

impl Focus {
    /// Builds a focus from a list of selections, one per hierarchy.
    /// Rejects duplicate hierarchies.
    pub fn new<I>(selections: I) -> Result<Focus, ResourceError>
    where
        I: IntoIterator<Item = ResourceName>,
    {
        let mut sorted: Vec<ResourceName> = Vec::new();
        for sel in selections {
            match slot(&sorted, sel.hierarchy()) {
                Ok(_) => {
                    return Err(ResourceError::ParseFocus {
                        input: sel.hierarchy().to_string(),
                        reason: "duplicate hierarchy in focus",
                    })
                }
                Err(at) => sorted.insert(at, sel),
            }
        }
        Ok(Focus { selections: sorted })
    }

    /// The whole-program focus over the given hierarchies: every selection
    /// is a hierarchy root.
    pub fn whole_program<'a, I>(hierarchies: I) -> Focus
    where
        I: IntoIterator<Item = &'a str>,
    {
        let selections = hierarchies
            .into_iter()
            .map(|h| ResourceName::root(h).expect("hierarchy names are valid"));
        Focus::new(selections).expect("hierarchy names are unique")
    }

    /// Parses the canonical `</a/b,/c,/d/e>` form. Surrounding whitespace
    /// around the focus and around each name is ignored.
    pub fn parse(text: &str) -> Result<Focus, ResourceError> {
        let t = text.trim();
        let inner = t
            .strip_prefix('<')
            .and_then(|s| s.strip_suffix('>'))
            .ok_or(ResourceError::ParseFocus {
                input: text.to_string(),
                reason: "focus must be wrapped in '<' and '>'",
            })?;
        if inner.trim().is_empty() {
            return Err(ResourceError::ParseFocus {
                input: text.to_string(),
                reason: "focus needs at least one selection",
            });
        }
        let names = inner
            .split(',')
            .map(ResourceName::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Focus::new(names)
    }

    /// The hierarchies this focus spans, in canonical (sorted) order.
    pub fn hierarchies(&self) -> impl Iterator<Item = &str> {
        self.selections.iter().map(ResourceName::hierarchy)
    }

    /// The selection for hierarchy `h`, if the focus spans it.
    pub fn selection(&self, h: &str) -> Option<&ResourceName> {
        self.selections.iter().find(|s| s.hierarchy() == h)
    }

    /// All selections in canonical order.
    pub fn selections(&self) -> impl Iterator<Item = &ResourceName> {
        self.selections.iter()
    }

    /// Number of hierarchies spanned.
    pub fn arity(&self) -> usize {
        self.selections.len()
    }

    /// True if every selection is a hierarchy root (the whole program).
    pub fn is_whole_program(&self) -> bool {
        self.selections.iter().all(ResourceName::is_root)
    }

    /// Sum of selection depths; 0 for the whole-program focus. Used to
    /// order foci from general to specific.
    pub fn depth(&self) -> usize {
        self.selections.iter().map(ResourceName::depth).sum()
    }

    /// Returns a copy with hierarchy `h`'s selection replaced by `sel`.
    pub fn with_selection(&self, sel: ResourceName) -> Focus {
        let mut selections = self.selections.clone();
        match slot(&selections, sel.hierarchy()) {
            Ok(at) => selections[at] = sel,
            Err(at) => selections.insert(at, sel),
        }
        Focus { selections }
    }

    /// True if `self` constrains the program no more than `other` does:
    /// same hierarchies, and each of `self`'s selections is a prefix of
    /// (equal to or an ancestor of) `other`'s.
    pub fn subsumes(&self, other: &Focus) -> bool {
        self.selections.len() == other.selections.len()
            && self
                .selections
                .iter()
                .zip(&other.selections)
                .all(|(sel, o)| sel.is_prefix_of(o))
    }

    /// True if `self` strictly subsumes `other` (subsumes and differs).
    pub fn strictly_subsumes(&self, other: &Focus) -> bool {
        self != other && self.subsumes(other)
    }

    /// True if any selection of this focus lies at or below `resource`.
    ///
    /// This is the matching rule for pruning directives: pruning
    /// `/SyncObject` removes every focus whose SyncObject selection is the
    /// root or any descendant... more precisely a focus "touches" a pruned
    /// resource when its selection in that hierarchy is equal to or below
    /// the pruned subtree root.
    pub fn touches(&self, resource: &ResourceName) -> bool {
        self.selection(resource.hierarchy())
            .is_some_and(|sel| resource.is_prefix_of(sel))
    }

    /// Rewrites every selection through a prefix mapping, leaving
    /// selections that do not match `from` unchanged. A mapping maps a
    /// resource within its own hierarchy; a cross-hierarchy pair matches
    /// nothing and returns the focus unchanged.
    pub fn rewrite_prefix(&self, from: &ResourceName, to: &ResourceName) -> Focus {
        if from.hierarchy() != to.hierarchy() {
            return self.clone();
        }
        let selections = self
            .selections
            .iter()
            .map(|sel| sel.rewrite_prefix(from, to).unwrap_or_else(|| sel.clone()))
            .collect();
        Focus { selections }
    }
}

impl fmt::Display for Focus {
    /// Formats as the canonical `</a/b,/c>` form, hierarchies sorted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, sel) in self.selections.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{sel}")?;
        }
        write!(f, ">")
    }
}

impl std::str::FromStr for Focus {
    type Err = ResourceError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Focus::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    fn focus(s: &str) -> Focus {
        Focus::parse(s).unwrap()
    }

    #[test]
    fn parse_display_roundtrip_canonicalizes_order() {
        let f = focus("</Process/Tester:2,/Code/testutil.C/verifyA,/Machine>");
        // Canonical order is sorted by hierarchy name.
        assert_eq!(
            f.to_string(),
            "</Code/testutil.C/verifyA,/Machine,/Process/Tester:2>"
        );
        assert_eq!(Focus::parse(&f.to_string()).unwrap(), f);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "</Code",
            "/Code,/Machine",
            "<>",
            "< >",
            "</Code,/Code/a.c>",
        ] {
            assert!(Focus::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn whole_program_is_all_roots() {
        let f = Focus::whole_program(["Code", "Machine", "Process"]);
        assert!(f.is_whole_program());
        assert_eq!(f.depth(), 0);
        assert_eq!(f.to_string(), "</Code,/Machine,/Process>");
    }

    #[test]
    fn with_selection_replaces_one_hierarchy() {
        let f = Focus::whole_program(["Code", "Machine", "Process"]);
        let g = f.with_selection(n("/Code/a.c"));
        assert_eq!(g.selection("Code"), Some(&n("/Code/a.c")));
        assert_eq!(g.selection("Machine"), Some(&n("/Machine")));
        assert_eq!(g.depth(), 1);
        assert!(!g.is_whole_program());
    }

    #[test]
    fn subsumption_partial_order() {
        let whole = Focus::whole_program(["Code", "Process"]);
        let module = whole.with_selection(n("/Code/a.c"));
        let func = whole.with_selection(n("/Code/a.c/f"));
        let proc_ = whole.with_selection(n("/Process/p1"));

        assert!(whole.subsumes(&module));
        assert!(module.subsumes(&func));
        assert!(whole.subsumes(&func)); // transitive
        assert!(!func.subsumes(&module));
        assert!(!module.subsumes(&proc_)); // incomparable
        assert!(!proc_.subsumes(&module));
        assert!(module.subsumes(&module));
        assert!(!module.strictly_subsumes(&module));
        assert!(whole.strictly_subsumes(&module));
    }

    #[test]
    fn touches_matches_subtrees() {
        let f = focus("</Code/a.c/f,/Machine,/SyncObject/Message/3-0>");
        assert!(f.touches(&n("/Code/a.c")));
        assert!(f.touches(&n("/Code/a.c/f")));
        assert!(f.touches(&n("/Code")));
        assert!(!f.touches(&n("/Code/b.c")));
        assert!(f.touches(&n("/SyncObject/Message")));
        // The Machine selection is the root; only the root itself matches.
        assert!(f.touches(&n("/Machine")));
        assert!(!f.touches(&n("/Machine/node7")));
        // Hierarchy not in the focus: no match.
        assert!(!f.touches(&n("/Process/p1")));
    }

    #[test]
    fn rewrite_prefix_rewrites_matching_selection_only() {
        let f = focus("</Code/oned.f/main,/Machine/node1,/Process/p1>");
        let g = f.rewrite_prefix(&n("/Code/oned.f"), &n("/Code/onednb.f"));
        assert_eq!(
            g.to_string(),
            "</Code/onednb.f/main,/Machine/node1,/Process/p1>"
        );
        // Non-matching mapping leaves the focus untouched.
        let h = f.rewrite_prefix(&n("/Code/sweep.f"), &n("/Code/nbsweep.f"));
        assert_eq!(h, f);
    }

    #[test]
    fn arity_and_hierarchies() {
        let f = focus("</Code,/Machine,/Process,/SyncObject>");
        assert_eq!(f.arity(), 4);
        let hs: Vec<&str> = f.hierarchies().collect();
        assert_eq!(hs, vec!["Code", "Machine", "Process", "SyncObject"]);
    }
}
