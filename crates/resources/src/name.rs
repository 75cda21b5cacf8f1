//! Resource names: `/Hierarchy/label/label/...`.
//!
//! A resource name is formed by concatenating the labels along the unique
//! path within a resource hierarchy from the root to the node representing
//! the resource (paper §2). The first segment is the hierarchy name itself
//! (`Code`, `Machine`, `Process`, `SyncObject`, ...). The bare name
//! `/Code` denotes the hierarchy root, i.e. the unconstrained view.

use crate::error::ResourceError;
use std::fmt;
use std::sync::Arc;

/// A parsed, canonical resource name.
///
/// Internally a non-empty, shared slice of path segments; `segments[0]`
/// is the hierarchy name. A clone bumps a refcount instead of copying
/// strings. Names are ordered lexicographically by segment (not by their
/// joined text: `/a.c` sorts after `/a/b`), which gives a stable,
/// human-friendly order for reports and directive files.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceName {
    segments: Arc<[String]>,
}

impl ResourceName {
    /// Builds a name from path segments. The first segment is the hierarchy
    /// name. Returns an error if `segments` is empty or any segment is empty
    /// or contains `/`, `,`, `<`, `>`, or whitespace.
    pub fn new<I, S>(segments: I) -> Result<Self, ResourceError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        if segments.is_empty() {
            return Err(ResourceError::ParseName {
                input: String::new(),
                reason: "a resource name needs at least a hierarchy segment",
            });
        }
        for s in &segments {
            if s.is_empty() {
                return Err(ResourceError::ParseName {
                    input: segments.join("/"),
                    reason: "empty path segment",
                });
            }
            if s.chars().any(|c| "/,<>".contains(c) || c.is_whitespace()) {
                return Err(ResourceError::ParseName {
                    input: segments.join("/"),
                    reason: "segment contains a reserved character",
                });
            }
        }
        Ok(ResourceName {
            segments: segments.into(),
        })
    }

    /// Builds the root name of a hierarchy, e.g. `/Code`.
    pub fn root(hierarchy: &str) -> Result<Self, ResourceError> {
        ResourceName::new([hierarchy])
    }

    /// Parses the canonical textual form `/Code/testutil.C/verifyA`.
    pub fn parse(text: &str) -> Result<Self, ResourceError> {
        let text = text.trim();
        let Some(rest) = text.strip_prefix('/') else {
            return Err(ResourceError::ParseName {
                input: text.to_string(),
                reason: "must start with '/'",
            });
        };
        if rest.is_empty() {
            return Err(ResourceError::ParseName {
                input: text.to_string(),
                reason: "missing hierarchy name",
            });
        }
        ResourceName::new(rest.split('/'))
    }

    /// The hierarchy this resource belongs to (first path segment).
    pub fn hierarchy(&self) -> &str {
        &self.segments[0]
    }

    /// All path segments, starting with the hierarchy name.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// The final path segment (the resource's own label).
    pub fn label(&self) -> &str {
        self.segments.last().expect("names are non-empty")
    }

    /// Depth below the hierarchy root: `/Code` has depth 0, `/Code/a.c` 1.
    pub fn depth(&self) -> usize {
        self.segments.len() - 1
    }

    /// True if this is a hierarchy root (`/Code`), i.e. the unconstrained
    /// whole-program view of that hierarchy.
    pub fn is_root(&self) -> bool {
        self.segments.len() == 1
    }

    /// The parent resource, or `None` for a hierarchy root.
    pub fn parent(&self) -> Option<ResourceName> {
        if self.is_root() {
            None
        } else {
            Some(ResourceName {
                segments: self.segments[..self.segments.len() - 1].into(),
            })
        }
    }

    /// Appends one label, producing a child name.
    pub fn child(&self, label: &str) -> Result<ResourceName, ResourceError> {
        let mut segments = Vec::with_capacity(self.segments.len() + 1);
        segments.extend_from_slice(&self.segments);
        segments.push(label.to_string());
        ResourceName::new(segments)
    }

    /// True if `self` is `other` or an ancestor of `other`
    /// (same hierarchy, and `self`'s path is a prefix of `other`'s).
    pub fn is_prefix_of(&self, other: &ResourceName) -> bool {
        other.segments.len() >= self.segments.len()
            && other.segments[..self.segments.len()] == self.segments[..]
    }

    /// True if `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &ResourceName) -> bool {
        self.is_prefix_of(other) && self.segments.len() < other.segments.len()
    }

    /// Rewrites this name by replacing prefix `from` with `to`, if `from`
    /// is a prefix of `self`. Returns `None` when the prefix does not apply.
    ///
    /// This is the primitive behind the paper's §3.2 mapping directives
    /// (`map resourceName1 resourceName2`): mapping `/Code/oned.f` to
    /// `/Code/onednb.f` rewrites `/Code/oned.f/main` to `/Code/onednb.f/main`.
    pub fn rewrite_prefix(&self, from: &ResourceName, to: &ResourceName) -> Option<ResourceName> {
        if !from.is_prefix_of(self) {
            return None;
        }
        let tail = &self.segments[from.segments.len()..];
        let mut segments = Vec::with_capacity(to.segments.len() + tail.len());
        segments.extend_from_slice(&to.segments);
        segments.extend_from_slice(tail);
        Some(ResourceName {
            segments: segments.into(),
        })
    }
}

impl fmt::Display for ResourceName {
    /// Formats as the canonical `/seg/seg/...` form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.segments.iter() {
            write!(f, "/{s}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ResourceName {
    type Err = ResourceError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ResourceName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["/Code", "/Code/testutil.C/verifyA", "/Process/Tester:2"] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn parse_trims_whitespace() {
        assert_eq!(n("  /Code/a.c \n").to_string(), "/Code/a.c");
    }

    #[test]
    fn parse_rejects_bad_input() {
        for s in ["", "Code/x", "/", "/Code//x", "/Code/a b"] {
            assert!(ResourceName::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn hierarchy_and_label() {
        let r = n("/Code/testutil.C/verifyA");
        assert_eq!(r.hierarchy(), "Code");
        assert_eq!(r.label(), "verifyA");
        assert_eq!(r.depth(), 2);
        assert!(!r.is_root());
        assert!(n("/Code").is_root());
    }

    #[test]
    fn parent_chain_terminates_at_root() {
        let mut cur = Some(n("/Code/a.c/f"));
        let mut seen = vec![];
        while let Some(r) = cur {
            seen.push(r.to_string());
            cur = r.parent();
        }
        assert_eq!(seen, vec!["/Code/a.c/f", "/Code/a.c", "/Code"]);
    }

    #[test]
    fn prefix_and_ancestor() {
        let root = n("/Code");
        let module = n("/Code/a.c");
        let func = n("/Code/a.c/f");
        assert!(root.is_prefix_of(&func));
        assert!(root.is_ancestor_of(&func));
        assert!(module.is_prefix_of(&module));
        assert!(!module.is_ancestor_of(&module));
        assert!(!func.is_prefix_of(&module));
        // Different hierarchy never matches.
        assert!(!n("/Process").is_prefix_of(&func));
        // Sibling labels that share a string prefix are not path prefixes.
        assert!(!n("/Code/a").is_prefix_of(&n("/Code/a.c")));
    }

    #[test]
    fn child_extends_path() {
        assert_eq!(n("/Code/a.c").child("f").unwrap(), n("/Code/a.c/f"));
        assert!(n("/Code").child("has space").is_err());
    }

    #[test]
    fn rewrite_prefix_maps_names() {
        // The paper's fig. 3 mapping: /Code/oned.f -> /Code/onednb.f.
        let from = n("/Code/oned.f");
        let to = n("/Code/onednb.f");
        assert_eq!(
            n("/Code/oned.f/main").rewrite_prefix(&from, &to).unwrap(),
            n("/Code/onednb.f/main")
        );
        // Exact match rewrites to the target itself.
        assert_eq!(n("/Code/oned.f").rewrite_prefix(&from, &to).unwrap(), to);
        // Non-matching prefix leaves the name alone.
        assert!(n("/Code/sweep.f/sweep1d")
            .rewrite_prefix(&from, &to)
            .is_none());
    }

    #[test]
    fn ordering_is_stable_by_segments() {
        let mut v = [n("/Process/p2"), n("/Code/b.c"), n("/Code/a.c/f")];
        v.sort();
        assert_eq!(
            v.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
            vec!["/Code/a.c/f", "/Code/b.c", "/Process/p2"]
        );
    }
}
