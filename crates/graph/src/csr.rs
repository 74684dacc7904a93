//! Compressed sparse row graph representation.
//!
//! [`Graph`] stores an undirected simple graph as a CSR structure: an offset
//! array of length `n + 1` and a neighbor array of length `2m`. Neighbor
//! lists are sorted ascending, which gives `O(log d)` adjacency queries and
//! linear-time sorted-list intersections for the exact counters.

use crate::ids::{EdgeKey, VertexId};

/// An immutable undirected simple graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] or the generators in [`crate::gen`].
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists; length `2m`.
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Build directly from CSR arrays. Callers must uphold the invariants:
    /// sorted, deduplicated, loop-free, symmetric neighbor lists. The builder
    /// is the only intended caller.
    pub(crate) fn from_parts(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        Graph { offsets, neighbors }
    }

    /// An empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count())
            .map(|v| self.degree(VertexId(v as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Whether the edge `{u, v}` is present. `O(log deg)`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// Iterate over all undirected edges, each once, as canonical keys in
    /// ascending `(lo, hi)` order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| EdgeKey::new(u, v))
        })
    }

    /// Number of wedges (paths of length two), `Σ_v C(deg(v), 2)`.
    ///
    /// This is the quantity the paper calls `P₂` when discussing the
    /// Buriol et al. bound `Õ(P₂/T)`.
    pub fn wedge_count(&self) -> u64 {
        self.vertices()
            .map(|v| {
                let d = self.degree(v) as u64;
                d * (d.saturating_sub(1)) / 2
            })
            .sum()
    }

    /// Size of the sorted intersection of the neighbor lists of `u` and `v`,
    /// i.e. their co-degree. Linear merge over the shorter pair.
    pub fn codegree(&self, u: VertexId, v: VertexId) -> usize {
        sorted_intersection_count(self.neighbors(u), self.neighbors(v))
    }

    /// The disjoint union of `self` and `other`: vertices of `other` are
    /// shifted up by `self.vertex_count()`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.vertex_count() as u32;
        let mut offsets = Vec::with_capacity(self.vertex_count() + other.vertex_count() + 1);
        offsets.extend_from_slice(&self.offsets);
        let base = *self.offsets.last().unwrap();
        // Skip other's leading 0 offset.
        offsets.extend(other.offsets.iter().skip(1).map(|&o| o + base));
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + other.neighbors.len());
        neighbors.extend_from_slice(&self.neighbors);
        neighbors.extend(other.neighbors.iter().map(|&v| VertexId(v.0 + shift)));
        Graph { offsets, neighbors }
    }

    /// Collect all edges into a vector (each once, canonical).
    pub fn edge_vec(&self) -> Vec<EdgeKey> {
        self.edges().collect()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph(n={}, m={})",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

/// Count elements common to two ascending slices by linear merge.
pub(crate) fn sorted_intersection_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn triangle_plus_pendant() -> Graph {
        // 0-1-2 triangle, 3 pendant off 0.
        let mut b = GraphBuilder::new(4);
        for (x, y) in [(0, 1), (1, 2), (0, 2), (0, 3)] {
            b.add_edge(v(x), v(y)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_pendant();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(v(0)), 3);
        assert_eq!(g.degree(v(1)), 2);
        assert_eq!(g.degree(v(3)), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_pendant();
        assert_eq!(g.neighbors(v(0)), &[v(1), v(2), v(3)]);
        assert_eq!(g.neighbors(v(3)), &[v(0)]);
        for u in g.vertices() {
            for &w in g.neighbors(u) {
                assert!(g.has_edge(u, w));
                assert!(g.has_edge(w, u));
            }
        }
    }

    #[test]
    fn has_edge_negative_cases() {
        let g = triangle_plus_pendant();
        assert!(!g.has_edge(v(1), v(3)));
        assert!(!g.has_edge(v(2), v(3)));
        assert!(!g.has_edge(v(0), v(0)));
    }

    #[test]
    fn edges_iterates_each_once_in_order() {
        let g = triangle_plus_pendant();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(
            es,
            vec![
                EdgeKey::new(v(0), v(1)),
                EdgeKey::new(v(0), v(2)),
                EdgeKey::new(v(0), v(3)),
                EdgeKey::new(v(1), v(2)),
            ]
        );
    }

    #[test]
    fn wedge_count_matches_formula() {
        let g = triangle_plus_pendant();
        // deg 3,2,2,1 -> C(3,2)+C(2,2 choose)=3+1+1+0 = 5.
        assert_eq!(g.wedge_count(), 5);
    }

    #[test]
    fn codegree_and_common_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.codegree(v(1), v(2)), 1);
        assert_eq!(g.codegree(v(0), v(3)), 0);
    }

    #[test]
    fn disjoint_union_shifts_second_graph() {
        let g = triangle_plus_pendant();
        let u = g.disjoint_union(&g);
        assert_eq!(u.vertex_count(), 8);
        assert_eq!(u.edge_count(), 8);
        assert!(u.has_edge(v(0), v(1)));
        assert!(u.has_edge(v(4), v(5)));
        assert!(!u.has_edge(v(0), v(4)));
        assert_eq!(u.neighbors(v(4)), &[v(5), v(6), v(7)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
