//! Linearization of non-array structures (trees and graphs).
//!
//! "Linearization simplifies the task of matching a variety of data
//! structures, from multidimensional arrays to trees or graphs"
//! (paper §2.2.1). This module linearizes trees (preorder) and graphs
//! (BFS from a root), producing the same [`SegmentList`] intermediate
//! representation used for arrays — so the same schedule machinery couples
//! a tree-structured producer to an array-structured consumer.

use crate::segments::SegmentList;

/// A rooted tree over nodes `0..n`, given as a children table.
#[derive(Debug, Clone)]
pub struct Tree {
    children: Vec<Vec<usize>>,
    root: usize,
}

impl Tree {
    /// Creates a tree; `children[v]` lists v's children.
    ///
    /// # Panics
    /// If the structure is not a tree reaching all nodes from `root`
    /// (cycles or disconnected nodes).
    pub fn new(children: Vec<Vec<usize>>, root: usize) -> Self {
        let t = Tree { children, root };
        let order = t.preorder();
        assert_eq!(order.len(), t.children.len(), "tree must reach every node exactly once");
        t
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True for the empty tree (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Depth-first preorder of node ids.
    pub(crate) fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.children.len());
        let mut stack = vec![self.root];
        let mut visited = vec![false; self.children.len()];
        while let Some(v) = stack.pop() {
            assert!(!visited[v], "cycle through node {v}");
            visited[v] = true;
            out.push(v);
            // Push children reversed so the leftmost is visited first.
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// An undirected graph over nodes `0..n` as an adjacency list.
#[derive(Debug, Clone)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates a graph from adjacency lists.
    pub fn new(adj: Vec<Vec<usize>>) -> Self {
        Graph { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Breadth-first order from `root`; unreachable nodes are appended in
    /// id order so the result is always a complete linearization.
    pub(crate) fn bfs_order(&self, root: usize) -> Vec<usize> {
        let n = self.adj.len();
        let mut out = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        if root < n {
            queue.push_back(root);
            seen[root] = true;
        }
        while let Some(v) = queue.pop_front() {
            out.push(v);
            for &w in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
        for (v, &s) in seen.iter().enumerate().take(n) {
            if !s {
                out.push(v);
            }
        }
        out
    }
}

/// A concrete node→position linearization of any structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLinearization {
    /// `order[pos]` = node at linear position `pos`.
    order: Vec<usize>,
    /// `pos[node]` = linear position of `node`.
    pos: Vec<usize>,
}

impl StructLinearization {
    /// Builds from a complete node order (a permutation of `0..n`).
    ///
    /// # Panics
    /// If `order` is not a permutation.
    pub(crate) fn from_order(order: Vec<usize>) -> Self {
        let n = order.len();
        let mut pos = vec![usize::MAX; n];
        for (p, &v) in order.iter().enumerate() {
            assert!(v < n, "node id out of range");
            assert_eq!(pos[v], usize::MAX, "node {v} appears twice");
            pos[v] = p;
        }
        StructLinearization { order, pos }
    }

    /// Linearizes a tree by preorder.
    pub fn tree_preorder(tree: &Tree) -> Self {
        Self::from_order(tree.preorder())
    }

    /// Linearizes a graph by BFS from `root`.
    pub fn graph_bfs(graph: &Graph, root: usize) -> Self {
        Self::from_order(graph.bfs_order(root))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for an empty structure.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Linear position of `node`.
    pub fn position(&self, node: usize) -> usize {
        self.pos[node]
    }

    /// Node at linear `position`.
    pub fn node(&self, position: usize) -> usize {
        self.order[position]
    }

    /// The linear footprint of a set of nodes (e.g. one rank's partition of
    /// the tree/graph) as a segment list.
    pub fn segments_of(&self, nodes: &[usize]) -> SegmentList {
        SegmentList::from_runs(nodes.iter().map(|&v| (self.pos[v], 1)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Tree {
        //        0
        //      / | \
        //     1  2  3
        //    / \     \
        //   4   5     6
        Tree::new(vec![vec![1, 2, 3], vec![4, 5], vec![], vec![6], vec![], vec![], vec![]], 0)
    }

    #[test]
    fn preorder_visits_left_first() {
        assert_eq!(sample_tree().preorder(), vec![0, 1, 4, 5, 2, 3, 6]);
    }

    #[test]
    #[should_panic]
    fn cyclic_tree_rejected() {
        Tree::new(vec![vec![1], vec![0]], 0);
    }

    #[test]
    #[should_panic(expected = "every node")]
    fn disconnected_tree_rejected() {
        Tree::new(vec![vec![], vec![]], 0);
    }

    #[test]
    fn bfs_levels() {
        let g = Graph::new(vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]]);
        assert_eq!(g.bfs_order(0), vec![0, 1, 2, 3]);
        assert_eq!(g.bfs_order(3), vec![3, 1, 2, 0]);
    }

    #[test]
    fn bfs_appends_unreachable() {
        let g = Graph::new(vec![vec![1], vec![0], vec![]]);
        assert_eq!(g.bfs_order(0), vec![0, 1, 2]);
    }

    #[test]
    fn linearization_is_bijective() {
        let lin = StructLinearization::tree_preorder(&sample_tree());
        for node in 0..lin.len() {
            assert_eq!(lin.node(lin.position(node)), node);
        }
        for pos in 0..lin.len() {
            assert_eq!(lin.position(lin.node(pos)), pos);
        }
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn non_permutation_rejected() {
        StructLinearization::from_order(vec![0, 0, 1]);
    }

    #[test]
    fn segments_merge_contiguous_nodes() {
        let lin = StructLinearization::tree_preorder(&sample_tree());
        // Nodes 1,4,5 occupy preorder positions 1,2,3 → one merged run.
        let s = lin.segments_of(&[1, 4, 5]);
        assert_eq!(s.runs(), &[(1, 3)]);
        // A scattered set produces multiple runs.
        let s2 = lin.segments_of(&[0, 2, 6]);
        assert_eq!(s2.runs(), &[(0, 1), (4, 1), (6, 1)]);
    }

    #[test]
    fn tree_and_array_share_segment_ir() {
        // The point of linearization: a tree partition and an array
        // partition are both just SegmentLists, so they can be intersected.
        let lin = StructLinearization::tree_preorder(&sample_tree());
        let tree_part = lin.segments_of(&[1, 4, 5, 2]); // positions 1..=4
        let array_part = SegmentList::from_runs(vec![(3, 4)]); // positions 3..7
        let overlap = tree_part.intersect(&array_part);
        assert_eq!(overlap.runs(), &[(3, 2)]);
    }
}
