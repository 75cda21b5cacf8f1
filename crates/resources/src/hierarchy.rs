//! Resource hierarchies: trees of program resources.
//!
//! Each hierarchy (Code, Machine, Process, SyncObject, ...) is a tree whose
//! root node is labelled with the hierarchy's name. Levels further from the
//! root give a finer-grained description of the program (paper §2, fig. 1).
//!
//! Hierarchies also support the **execution tagging** shown in the paper's
//! fig. 3: when structural data from several executions is merged, each node
//! carries the set of executions it appeared in, so resources unique to one
//! execution (mapping candidates) can be identified.

use crate::error::ResourceError;
use crate::name::ResourceName;
use std::collections::HashMap;
use std::fmt;

/// Index of a node within one `ResourceHierarchy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node of every hierarchy.
    pub const ROOT: NodeId = NodeId(0);

    /// The raw index (stable for the lifetime of the hierarchy).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compact set of execution identifiers (0..64) used to tag merged
/// hierarchies, as in the paper's fig. 3 where resources are labelled
/// 1 (only version A), 2 (only version B) or 3 (both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ExecTagSet(u64);

impl ExecTagSet {
    /// The empty tag set.
    pub const EMPTY: ExecTagSet = ExecTagSet(0);

    /// A set containing the single execution `id` (must be < 64).
    pub fn single(id: u8) -> ExecTagSet {
        assert!(id < 64, "execution tags are limited to 64 executions");
        ExecTagSet(1 << id)
    }

    /// Inserts execution `id` into the set.
    pub fn insert(&mut self, id: u8) {
        *self = self.union(ExecTagSet::single(id));
    }

    /// Set union.
    pub fn union(self, other: ExecTagSet) -> ExecTagSet {
        ExecTagSet(self.0 | other.0)
    }

    /// True if execution `id` is in the set.
    pub fn contains(self, id: u8) -> bool {
        id < 64 && self.0 & (1 << id) != 0
    }

    /// True if no executions are tagged.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of executions in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the execution ids in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..64).filter(move |&i| self.contains(i))
    }
}

impl fmt::Display for ExecTagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.iter().map(|i| i.to_string()).collect();
        write!(f, "{{{}}}", ids.join(","))
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// The node's full resource name, built once when the node is
    /// inserted so lookups and refinement hand out cheap clones.
    name: ResourceName,
    children: Vec<NodeId>,
    tags: ExecTagSet,
}

/// A single resource hierarchy: a labelled tree rooted at the hierarchy
/// name, with O(1) lookup from resource name to node.
#[derive(Debug, Clone)]
pub struct ResourceHierarchy {
    nodes: Vec<Node>,
    /// Maps the path segments *below* the root (possibly empty) to a node.
    index: HashMap<Vec<String>, NodeId>,
}

impl ResourceHierarchy {
    /// Creates a hierarchy containing only its root node.
    pub fn new(name: &str) -> Result<ResourceHierarchy, ResourceError> {
        let root = Node {
            // Validates the name through ResourceName's segment rules.
            name: ResourceName::root(name)?,
            children: Vec::new(),
            tags: ExecTagSet::EMPTY,
        };
        let mut index = HashMap::new();
        index.insert(Vec::new(), NodeId::ROOT);
        Ok(ResourceHierarchy {
            nodes: vec![root],
            index,
        })
    }

    /// The hierarchy's name (the root node's label).
    pub fn name(&self) -> &str {
        self.nodes[0].name.hierarchy()
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the hierarchy holds only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The root resource name, e.g. `/Code`.
    pub fn root_name(&self) -> ResourceName {
        self.nodes[0].name.clone()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Inserts a resource by its path below the root (`["a.c", "f"]` for
    /// `/Code/a.c/f`), creating intermediate nodes as needed. Returns the
    /// node id; inserting an existing path is a no-op returning its id.
    pub fn add_path<S: AsRef<str>>(&mut self, path: &[S]) -> Result<NodeId, ResourceError> {
        let mut cur = NodeId::ROOT;
        let mut key: Vec<String> = Vec::with_capacity(path.len());
        for seg in path {
            let seg = seg.as_ref();
            key.push(seg.to_string());
            if let Some(&id) = self.index.get(&key) {
                cur = id;
                continue;
            }
            // Validate the segment via the name rules before inserting.
            ResourceName::new([seg])?;
            let name = self.node(cur).name.child(seg)?;
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node {
                name,
                children: Vec::new(),
                tags: ExecTagSet::EMPTY,
            });
            self.nodes[cur.index()].children.push(id);
            self.index.insert(key.clone(), id);
            cur = id;
        }
        Ok(cur)
    }

    /// Inserts a resource by full name; the name's hierarchy segment must
    /// match this hierarchy.
    pub fn add_name(&mut self, name: &ResourceName) -> Result<NodeId, ResourceError> {
        if name.hierarchy() != self.name() {
            return Err(ResourceError::Incompatible(format!(
                "cannot add {name} to hierarchy {}",
                self.name()
            )));
        }
        self.add_path(&name.segments()[1..])
    }

    /// Looks up a resource by full name.
    pub fn lookup(&self, name: &ResourceName) -> Option<NodeId> {
        if name.hierarchy() != self.name() {
            return None;
        }
        self.index.get(&name.segments()[1..]).copied()
    }

    /// True if the hierarchy contains `name`.
    pub fn contains(&self, name: &ResourceName) -> bool {
        self.lookup(name).is_some()
    }

    /// The full resource name of a node.
    pub fn name_of(&self, id: NodeId) -> ResourceName {
        self.node(id).name.clone()
    }

    /// Child resource names of `name`, in insertion order.
    ///
    /// This implements focus refinement along one hierarchy (paper §2):
    /// a child focus is obtained by moving down a single edge.
    pub fn children_of(&self, name: &ResourceName) -> Vec<ResourceName> {
        match self.lookup(name) {
            None => Vec::new(),
            Some(id) => self
                .node(id)
                .children
                .iter()
                .map(|&c| self.name_of(c))
                .collect(),
        }
    }

    /// All resource names in the hierarchy, preorder, including the root.
    pub fn all_names(&self) -> Vec<ResourceName> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.walk(NodeId::ROOT, &mut out);
        out
    }

    fn walk(&self, id: NodeId, out: &mut Vec<ResourceName>) {
        out.push(self.name_of(id));
        for &c in &self.node(id).children {
            self.walk(c, out);
        }
    }

    /// Leaf resource names (nodes without children). For a fresh hierarchy
    /// this is just the root.
    pub fn leaves(&self) -> Vec<ResourceName> {
        self.nodes
            .iter()
            .filter(|n| n.children.is_empty())
            .map(|n| n.name.clone())
            .collect()
    }

    /// Tags `name` (and, transitively, nothing else) with execution `exec`.
    pub fn tag(&mut self, name: &ResourceName, exec: u8) -> Result<(), ResourceError> {
        match self.lookup(name) {
            Some(id) => {
                self.nodes[id.index()].tags.insert(exec);
                Ok(())
            }
            None => Err(ResourceError::UnknownResource(name.to_string())),
        }
    }

    /// The execution-tag set of `name`.
    pub fn tags_of(&self, name: &ResourceName) -> Option<ExecTagSet> {
        self.lookup(name).map(|id| self.node(id).tags)
    }

    /// Merges `other` into `self`, tagging every resource of `self` with
    /// `self_exec` and every resource of `other` with `other_exec`.
    ///
    /// This produces the paper's fig. 3 "execution map": resources present
    /// in both executions end up with both tags; resources unique to one
    /// execution (mapping candidates) carry a single tag.
    pub fn merge_tagged(
        &mut self,
        other: &ResourceHierarchy,
        self_exec: u8,
        other_exec: u8,
    ) -> Result<(), ResourceError> {
        if self.name() != other.name() {
            return Err(ResourceError::Incompatible(format!(
                "cannot merge hierarchy {} into {}",
                other.name(),
                self.name()
            )));
        }
        for i in 0..self.nodes.len() {
            self.nodes[i].tags.insert(self_exec);
        }
        for name in other.all_names() {
            let id = if name.is_root() {
                NodeId::ROOT
            } else {
                self.add_name(&name)?
            };
            self.nodes[id.index()].tags.insert(other_exec);
        }
        Ok(())
    }

    /// Renders the hierarchy as an indented tree, optionally with execution
    /// tags, as in the paper's figures 1 and 3.
    pub fn render(&self, with_tags: bool) -> String {
        let mut out = String::new();
        self.render_node(NodeId::ROOT, 0, with_tags, &mut out);
        out
    }

    fn render_node(&self, id: NodeId, depth: usize, with_tags: bool, out: &mut String) {
        let node = self.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(node.name.label());
        if with_tags && !node.tags.is_empty() {
            out.push_str(&format!("  [{}]", node.tags));
        }
        out.push('\n');
        for &c in &node.children {
            self.render_node(c, depth + 1, with_tags, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    fn sample_code() -> ResourceHierarchy {
        let mut h = ResourceHierarchy::new("Code").unwrap();
        h.add_path(&["testutil.C", "printstatus"]).unwrap();
        h.add_path(&["testutil.C", "verifyA"]).unwrap();
        h.add_path(&["testutil.C", "verifyB"]).unwrap();
        h.add_path(&["main.c", "main"]).unwrap();
        h
    }

    #[test]
    fn new_hierarchy_has_only_root() {
        let h = ResourceHierarchy::new("Code").unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.is_empty());
        assert_eq!(h.root_name(), n("/Code"));
        assert_eq!(h.leaves(), vec![n("/Code")]);
    }

    #[test]
    fn add_and_lookup() {
        let h = sample_code();
        assert!(h.contains(&n("/Code/testutil.C/verifyA")));
        assert!(h.contains(&n("/Code/testutil.C")));
        assert!(!h.contains(&n("/Code/missing.c")));
        assert!(!h.contains(&n("/Process/testutil.C")));
        assert_eq!(h.len(), 7); // root + 2 modules + 4 functions
    }

    #[test]
    fn add_is_idempotent() {
        let mut h = sample_code();
        let before = h.len();
        let id1 = h.add_path(&["testutil.C", "verifyA"]).unwrap();
        let id2 = h.add_path(&["testutil.C", "verifyA"]).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(h.len(), before);
    }

    #[test]
    fn children_follow_insertion_order() {
        let h = sample_code();
        let kids = h.children_of(&n("/Code/testutil.C"));
        assert_eq!(
            kids,
            vec![
                n("/Code/testutil.C/printstatus"),
                n("/Code/testutil.C/verifyA"),
                n("/Code/testutil.C/verifyB"),
            ]
        );
        assert!(h.children_of(&n("/Code/main.c/main")).is_empty());
    }

    #[test]
    fn name_of_inverts_lookup() {
        let h = sample_code();
        for name in h.all_names() {
            let id = h.lookup(&name).unwrap();
            assert_eq!(h.name_of(id), name);
        }
    }

    #[test]
    fn leaves_are_functions() {
        let h = sample_code();
        let mut leaves = h.leaves();
        leaves.sort();
        assert_eq!(
            leaves,
            vec![
                n("/Code/main.c/main"),
                n("/Code/testutil.C/printstatus"),
                n("/Code/testutil.C/verifyA"),
                n("/Code/testutil.C/verifyB"),
            ]
        );
    }

    #[test]
    fn exec_tags() {
        let mut s = ExecTagSet::EMPTY;
        assert!(s.is_empty());
        s.insert(1);
        s.insert(3);
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{1,3}");
        assert_eq!(s.union(ExecTagSet::single(2)).len(), 3);
    }

    #[test]
    fn merge_tagged_builds_execution_map() {
        // Model fig. 3: version A has oned.f, version B has onednb.f,
        // both share cg.c.
        let mut a = ResourceHierarchy::new("Code").unwrap();
        a.add_path(&["oned.f", "main"]).unwrap();
        a.add_path(&["cg.c", "solve"]).unwrap();
        let mut b = ResourceHierarchy::new("Code").unwrap();
        b.add_path(&["onednb.f", "main"]).unwrap();
        b.add_path(&["cg.c", "solve"]).unwrap();

        a.merge_tagged(&b, 0, 1).unwrap();
        assert_eq!(
            a.tags_of(&n("/Code/oned.f")).unwrap(),
            ExecTagSet::single(0)
        );
        assert_eq!(
            a.tags_of(&n("/Code/onednb.f")).unwrap(),
            ExecTagSet::single(1)
        );
        let both = ExecTagSet::single(0).union(ExecTagSet::single(1));
        assert_eq!(a.tags_of(&n("/Code/cg.c")).unwrap(), both);
        assert_eq!(a.tags_of(&n("/Code/cg.c/solve")).unwrap(), both);
        assert_eq!(a.tags_of(&n("/Code")).unwrap(), both);
    }

    #[test]
    fn merge_rejects_different_hierarchies() {
        let mut a = ResourceHierarchy::new("Code").unwrap();
        let b = ResourceHierarchy::new("Process").unwrap();
        assert!(a.merge_tagged(&b, 0, 1).is_err());
    }

    #[test]
    fn render_contains_labels_and_indentation() {
        let h = sample_code();
        let text = h.render(false);
        assert!(text.contains("Code\n"));
        assert!(text.contains("  testutil.C\n"));
        assert!(text.contains("    verifyA\n"));
    }
}
