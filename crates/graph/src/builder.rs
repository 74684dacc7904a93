//! Validating construction of [`Graph`]s from edge lists.

use crate::csr::Graph;
use crate::ids::{EdgeKey, VertexId};

/// Errors raised while assembling a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An endpoint was `>= n`.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: VertexId,
        /// The vertex-count bound it violated.
        n: usize,
    },
    /// A self-loop `{v, v}` was added; the model forbids loops.
    SelfLoop {
        /// The looped vertex.
        vertex: VertexId,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for n={n}")
            }
            BuildError::SelfLoop { vertex } => write!(f, "self-loop at vertex {vertex}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Accumulates edges and produces a validated CSR [`Graph`].
///
/// Duplicate edges are tolerated and deduplicated (generators sometimes
/// produce collisions); self-loops and out-of-range endpoints are errors.
///
/// ```
/// use adjstream_graph::{GraphBuilder, VertexId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId(0), VertexId(1)).unwrap();
/// b.add_edge(VertexId(1), VertexId(2)).unwrap();
/// b.add_edge(VertexId(2), VertexId(1)).unwrap(); // duplicate, deduped
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<EdgeKey>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids are u32");
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder expecting roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Add the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), BuildError> {
        if u == v {
            return Err(BuildError::SelfLoop { vertex: u });
        }
        for w in [u, v] {
            if w.index() >= self.n {
                return Err(BuildError::VertexOutOfRange {
                    vertex: w,
                    n: self.n,
                });
            }
        }
        self.edges.push(EdgeKey::new(u, v));
        Ok(())
    }

    /// Finish: sort, dedupe, and build the CSR arrays.
    pub fn build(mut self) -> Result<Graph, BuildError> {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.n;
        let mut degrees = vec![0usize; n];
        for e in &self.edges {
            degrees[e.lo().index()] += 1;
            degrees[e.hi().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n {
            offsets.push(offsets[v] + degrees[v]);
        }
        let total = offsets[n];
        let mut neighbors = vec![VertexId(0); total];
        // Fill positions; `cursor` walks each vertex's slot range.
        let mut cursor = offsets.clone();
        for e in &self.edges {
            let (lo, hi) = e.endpoints();
            neighbors[cursor[lo.index()]] = hi;
            cursor[lo.index()] += 1;
            neighbors[cursor[hi.index()]] = lo;
            cursor[hi.index()] += 1;
        }
        // Edges were globally sorted by (lo, hi): for a fixed `lo` the `hi`
        // side fills ascending, but the `lo`-as-neighbor entries written into
        // `hi`'s list also arrive ascending in `lo`... however both kinds
        // interleave within one vertex's list, so sort each list to be safe.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Graph::from_parts(offsets, neighbors))
    }

    /// Convenience: build a graph straight from an edge list.
    pub fn from_edges<I>(n: usize, it: I) -> Result<Graph, BuildError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in it {
            b.add_edge(VertexId(u), VertexId(v))?;
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(v(1), v(1)),
            Err(BuildError::SelfLoop { vertex: v(1) })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(v(0), v(3)),
            Err(BuildError::VertexOutOfRange { vertex: v(3), n: 3 })
        );
    }

    #[test]
    fn dedupes_parallel_edges() {
        let g = GraphBuilder::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(v(0)), 1);
    }

    #[test]
    fn builds_sorted_adjacency() {
        let g = GraphBuilder::from_edges(5, [(4, 0), (2, 0), (0, 3), (1, 0)]).unwrap();
        assert_eq!(g.neighbors(v(0)), &[v(1), v(2), v(3), v(4)]);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn error_display_is_informative() {
        let e = BuildError::SelfLoop { vertex: v(7) };
        assert!(e.to_string().contains('7'));
        let e = BuildError::VertexOutOfRange { vertex: v(9), n: 4 };
        assert!(e.to_string().contains("n=4"));
    }

    #[test]
    fn from_edges_large_star() {
        let n = 1000;
        let g = GraphBuilder::from_edges(n, (1..n as u32).map(|i| (0, i))).unwrap();
        assert_eq!(g.degree(v(0)), n - 1);
        assert_eq!(g.edge_count(), n - 1);
        assert_eq!(g.wedge_count(), ((n - 1) * (n - 2) / 2) as u64);
    }
}
