//! The Search History Graph (SHG).
//!
//! "Each (hypothesis : focus) pair is represented as a node of a directed
//! acyclic graph called the Search History Graph. The root node of the SHG
//! represents the pair (TopLevelHypothesis : WholeProgram), and its child
//! nodes represent the refinements chosen..." (paper §2). The same
//! (hypothesis, focus) pair reached along different refinement paths is a
//! single node with several parents.

use crate::directive::PriorityLevel;
use crate::hypothesis::{HypothesisId, HypothesisTree};
use histpc_instr::PairId;
use histpc_resources::{Focus, FocusId, Interner};
use histpc_sim::SimTime;
use std::borrow::Cow;
use std::collections::HashMap;

/// Index of a node in the SHG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShgNodeId(pub u32);

/// The lifecycle state of an SHG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Created, waiting for instrumentation budget.
    Pending,
    /// Instrumented; collecting data, no conclusion yet.
    Testing,
    /// Concluded true: a bottleneck.
    True,
    /// Concluded false.
    False,
    /// Excluded by a pruning directive.
    Pruned,
    /// The experiment starved: its data stream went quiet past the
    /// timeout, so nothing can honestly be concluded either way.
    Unknown,
    /// Every process the focus covers is dead; the pair can never be
    /// measured again.
    Unreachable,
    /// Every process the focus covers is behind an open admission
    /// circuit breaker: the tool is overloaded there and refuses the
    /// experiment rather than report numbers measured under shedding.
    /// Distinct from `Unknown` (data starved) and `Unreachable` (dead).
    Saturated,
}

impl NodeState {
    /// One-character marker used in the list-box rendering.
    pub fn marker(self) -> char {
        match self {
            NodeState::Pending => '.',
            NodeState::Testing => '?',
            NodeState::True => 'T',
            NodeState::False => 'F',
            NodeState::Pruned => 'P',
            NodeState::Unknown => 'U',
            NodeState::Unreachable => 'X',
            NodeState::Saturated => 'S',
        }
    }
}

/// One SHG node.
#[derive(Debug, Clone)]
pub struct ShgNode {
    /// The hypothesis under test.
    pub hypothesis: HypothesisId,
    /// The focus under test.
    pub focus: Focus,
    /// The focus's id in the graph's interner — the copyable key the
    /// node index uses instead of hashing the name form.
    pub focus_id: FocusId,
    /// Current state.
    pub state: NodeState,
    /// Search priority.
    pub priority: PriorityLevel,
    /// Persistent nodes (from High-priority directives) keep their
    /// instrumentation for the whole run.
    pub persistent: bool,
    /// The live metric-focus pair, when instrumented.
    pub pair: Option<PairId>,
    /// When the node was created.
    pub created_at: SimTime,
    /// When the node first concluded (true or false).
    pub concluded_at: Option<SimTime>,
    /// When the node first tested true (bottleneck report timestamp).
    pub first_true_at: Option<SimTime>,
    /// The last evaluated fraction of execution time.
    pub last_value: f64,
    /// Parents in the DAG.
    pub parents: Vec<ShgNodeId>,
    /// Children in the DAG.
    pub children: Vec<ShgNodeId>,
}

/// The search history graph.
///
/// Foci are interned on first sight: the node index is keyed by
/// `(HypothesisId, FocusId)` — two copyable u32s — so the per-lookup
/// cost on the search hot path is a small-key hash, not a deep
/// compare-and-hash of resource-name paths. The name form stays on the
/// node for reports.
#[derive(Debug, Clone, Default)]
pub struct Shg {
    nodes: Vec<ShgNode>,
    interner: Interner,
    index: HashMap<(HypothesisId, FocusId), ShgNodeId>,
}

impl Shg {
    /// An empty graph.
    pub fn new() -> Shg {
        Shg::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up the node for (hypothesis, focus). Never interns: a focus
    /// the graph has not seen cannot have a node.
    pub fn find(&self, hyp: HypothesisId, focus: &Focus) -> Option<ShgNodeId> {
        let fid = self.interner.lookup_focus(focus)?;
        self.index.get(&(hyp, fid)).copied()
    }

    /// Read access to a node.
    pub fn node(&self, id: ShgNodeId) -> &ShgNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: ShgNodeId) -> &mut ShgNode {
        &mut self.nodes[id.0 as usize]
    }

    /// Adds a node (or links an existing one under a new parent).
    /// Returns `(id, created)`.
    #[allow(clippy::too_many_arguments)] // the SHG node's natural attributes
    pub fn add(
        &mut self,
        hyp: HypothesisId,
        focus: Focus,
        state: NodeState,
        priority: PriorityLevel,
        persistent: bool,
        parent: Option<ShgNodeId>,
        now: SimTime,
    ) -> (ShgNodeId, bool) {
        let fid = self.interner.intern_focus(&focus);
        if let Some(&id) = self.index.get(&(hyp, fid)) {
            if let Some(p) = parent {
                if !self.nodes[id.0 as usize].parents.contains(&p) {
                    self.nodes[id.0 as usize].parents.push(p);
                    self.nodes[p.0 as usize].children.push(id);
                }
            }
            return (id, false);
        }
        let id = ShgNodeId(self.nodes.len() as u32);
        self.nodes.push(ShgNode {
            hypothesis: hyp,
            focus,
            focus_id: fid,
            state,
            priority,
            persistent,
            pair: None,
            created_at: now,
            concluded_at: None,
            first_true_at: None,
            last_value: 0.0,
            parents: parent.into_iter().collect(),
            children: Vec::new(),
        });
        self.index.insert((hyp, fid), id);
        if let Some(p) = parent {
            self.nodes[p.0 as usize].children.push(id);
        }
        (id, true)
    }

    /// All node ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = ShgNodeId> {
        (0..self.nodes.len() as u32).map(ShgNodeId)
    }

    /// All nodes currently in `state`.
    pub fn in_state(&self, state: NodeState) -> Vec<ShgNodeId> {
        self.ids()
            .filter(|&id| self.node(id).state == state)
            .collect()
    }

    /// Count of nodes in `state`.
    pub fn count_state(&self, state: NodeState) -> usize {
        self.nodes.iter().filter(|n| n.state == state).count()
    }

    /// Renders the graph in Paradyn's list-box form (paper fig. 2):
    /// indented by refinement depth, each line carrying the state marker,
    /// the hypothesis for hypothesis-axis nodes and the changed resource
    /// for focus-axis nodes.
    pub fn render(&self, tree: &HypothesisTree) -> String {
        let mut out = String::new();
        // Roots: nodes with no parents.
        let roots: Vec<ShgNodeId> = self
            .ids()
            .filter(|&id| self.node(id).parents.is_empty())
            .collect();
        for r in roots {
            self.render_node(
                r,
                0,
                None,
                tree,
                &mut out,
                &mut vec![false; self.nodes.len()],
            );
        }
        out
    }

    fn render_node(
        &self,
        id: ShgNodeId,
        depth: usize,
        parent: Option<ShgNodeId>,
        tree: &HypothesisTree,
        out: &mut String,
        visited: &mut Vec<bool>,
    ) {
        let n = self.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = self.label_under(id, parent, tree);
        out.push_str(&format!("[{}] {}", n.state.marker(), label));
        if matches!(n.state, NodeState::True | NodeState::False) {
            out.push_str(&format!(" ({:.1}%)", n.last_value * 100.0));
        }
        out.push('\n');
        if visited[id.0 as usize] {
            return; // DAG: only expand a shared node once
        }
        visited[id.0 as usize] = true;
        for &c in &n.children {
            self.render_node(c, depth + 1, Some(id), tree, out, visited);
        }
    }

    /// The display label of a node when shown under a specific parent:
    /// the selection that distinguishes it from that parent. Shared DAG
    /// nodes are thus labelled by the edge they are rendered along.
    pub fn label_under<'a>(
        &'a self,
        id: ShgNodeId,
        parent: Option<ShgNodeId>,
        tree: &'a HypothesisTree,
    ) -> Cow<'a, str> {
        let n = self.node(id);
        let hyp_name = tree.get(n.hypothesis).name.as_str();
        if n.focus.is_whole_program() {
            return Cow::Borrowed(hyp_name);
        }
        let candidates = parent
            .into_iter()
            .chain(n.parents.iter().copied().filter(|&p| Some(p) != parent));
        for p in candidates {
            let pf = &self.node(p).focus;
            for sel in n.focus.selections() {
                if pf.selection(sel.hierarchy()) != Some(sel) {
                    return Cow::Borrowed(sel.label());
                }
            }
        }
        // Fallback for parentless non-root nodes (priority seeds).
        Cow::Owned(format!("{hyp_name} {}", n.focus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histpc_resources::ResourceName;

    fn wp() -> Focus {
        Focus::whole_program(["Code", "Machine", "Process", "SyncObject"])
    }

    fn n(s: &str) -> ResourceName {
        ResourceName::parse(s).unwrap()
    }

    fn tree() -> HypothesisTree {
        HypothesisTree::standard()
    }

    #[test]
    fn add_and_find() {
        let mut g = Shg::new();
        let t = tree();
        let root_h = t.root();
        let (root, created) = g.add(
            root_h,
            wp(),
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        assert!(created);
        assert_eq!(g.find(root_h, &wp()), Some(root));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn duplicate_add_links_new_parent() {
        let mut g = Shg::new();
        let t = tree();
        let cpu = t.by_name("CPUbound").unwrap();
        let (a, _) = g.add(
            cpu,
            wp(),
            NodeState::Testing,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        let f = wp().with_selection(n("/Code/a.c"));
        let (b, _) = g.add(
            cpu,
            f.clone(),
            NodeState::Pending,
            PriorityLevel::Medium,
            false,
            Some(a),
            SimTime::ZERO,
        );
        // Reaching the same (h, f) from another parent creates no new node.
        let (c, _) = g.add(
            cpu,
            wp(),
            NodeState::Testing,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        assert_eq!(a, c);
        let (b2, created) = g.add(
            cpu,
            f,
            NodeState::Pending,
            PriorityLevel::Medium,
            false,
            Some(c),
            SimTime::ZERO,
        );
        assert_eq!(b, b2);
        assert!(!created);
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(b).parents, vec![a]);
    }

    #[test]
    fn multi_parent_dag() {
        let mut g = Shg::new();
        let t = tree();
        let cpu = t.by_name("CPUbound").unwrap();
        let f1 = wp().with_selection(n("/Code/a.c"));
        let f2 = wp().with_selection(n("/Process/p1"));
        let f12 = f1.with_selection(n("/Process/p1"));
        let (a, _) = g.add(
            cpu,
            f1,
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        let (b, _) = g.add(
            cpu,
            f2,
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        let (c1, _) = g.add(
            cpu,
            f12.clone(),
            NodeState::Pending,
            PriorityLevel::Medium,
            false,
            Some(a),
            SimTime::ZERO,
        );
        let (c2, _) = g.add(
            cpu,
            f12,
            NodeState::Pending,
            PriorityLevel::Medium,
            false,
            Some(b),
            SimTime::ZERO,
        );
        assert_eq!(c1, c2);
        assert_eq!(g.node(c1).parents, vec![a, b]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn state_counting() {
        let mut g = Shg::new();
        let t = tree();
        let cpu = t.by_name("CPUbound").unwrap();
        let sync = t.by_name("ExcessiveSyncWaitingTime").unwrap();
        g.add(
            cpu,
            wp(),
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        g.add(
            sync,
            wp(),
            NodeState::False,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        assert_eq!(g.count_state(NodeState::True), 1);
        assert_eq!(g.count_state(NodeState::False), 1);
        assert_eq!(g.in_state(NodeState::True).len(), 1);
    }

    #[test]
    fn render_shows_hierarchy_and_markers() {
        let mut g = Shg::new();
        let t = tree();
        let (root, _) = g.add(
            t.root(),
            wp(),
            NodeState::True,
            PriorityLevel::Medium,
            false,
            None,
            SimTime::ZERO,
        );
        let cpu = t.by_name("CPUbound").unwrap();
        let (c, _) = g.add(
            cpu,
            wp(),
            NodeState::True,
            PriorityLevel::Medium,
            false,
            Some(root),
            SimTime::ZERO,
        );
        g.add(
            cpu,
            wp().with_selection(n("/Code/goat.c")),
            NodeState::False,
            PriorityLevel::Medium,
            false,
            Some(c),
            SimTime::ZERO,
        );
        let text = g.render(&t);
        assert!(text.contains("[T] TopLevelHypothesis"));
        assert!(text.contains("  [T] CPUbound"));
        assert!(text.contains("    [F] goat.c"));
    }
}
