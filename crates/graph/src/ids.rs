//! Vertex and edge identifiers.
//!
//! Vertices are dense `u32` indices into a graph's CSR arrays. Edges are
//! identified by their *canonical key*: the ordered pair `(min, max)` of their
//! endpoints. The canonical key is what streaming samplers hash, so that both
//! stream appearances of an undirected edge (`xy` and `yx`) map to the same
//! sampling decision.

use std::fmt;

/// A vertex identifier: a dense index in `0..n`.
///
/// The newtype exists to keep vertex indices from being confused with counts,
/// positions in the stream, or sample sizes, all of which are also integers
/// and all of which circulate through the same algorithms.
///
/// `repr(transparent)` guarantees the layout *is* a `u32`, which the binary
/// trace reader relies on to reinterpret little-endian `(u32, u32)` pair
/// buffers as stream items without a decode pass.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

/// Canonical identifier of an undirected edge: endpoints sorted ascending.
///
/// Both `EdgeKey::new(u, v)` and `EdgeKey::new(v, u)` produce the same key.
/// Self-loops are rejected in debug builds (the model forbids them).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    lo: VertexId,
    hi: VertexId,
}

impl EdgeKey {
    /// Canonicalize `{u, v}`; panics (debug) on a self-loop.
    #[inline]
    pub fn new(u: VertexId, v: VertexId) -> Self {
        debug_assert_ne!(u, v, "self-loops are not representable");
        if u.0 <= v.0 {
            EdgeKey { lo: u, hi: v }
        } else {
            EdgeKey { lo: v, hi: u }
        }
    }

    /// Smaller endpoint.
    #[inline]
    pub fn lo(self) -> VertexId {
        self.lo
    }

    /// Larger endpoint.
    #[inline]
    pub fn hi(self) -> VertexId {
        self.hi
    }

    /// Both endpoints, ascending.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (self.lo, self.hi)
    }

    /// Given one endpoint, return the other; `None` if `v` is not an endpoint.
    #[inline]
    pub fn other(self, v: VertexId) -> Option<VertexId> {
        if v == self.lo {
            Some(self.hi)
        } else if v == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Pack into a `u64` (`lo` in the high half). The packing is strictly
    /// monotone in `(lo, hi)` order, so it can double as a sort key, and it is
    /// what the samplers hash.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.lo.0 as u64) << 32) | self.hi.0 as u64
    }

    /// Inverse of [`EdgeKey::pack`].
    #[inline]
    pub fn unpack(packed: u64) -> Self {
        let lo = VertexId((packed >> 32) as u32);
        let hi = VertexId(packed as u32);
        debug_assert!(lo.0 < hi.0);
        EdgeKey { lo, hi }
    }
}

impl fmt::Debug for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e({},{})", self.lo.0, self.hi.0)
    }
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.lo.0, self.hi.0)
    }
}

/// Canonical identifier of a wedge (path of length two) `u — center — v`.
///
/// The two leaf endpoints are stored in ascending order; the center is kept
/// separately. `WedgeKey::new(u, c, v) == WedgeKey::new(v, c, u)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WedgeKey {
    /// Smaller leaf endpoint.
    pub a: VertexId,
    /// Larger leaf endpoint.
    pub b: VertexId,
    /// Center vertex, adjacent to both leaves.
    pub center: VertexId,
}

impl WedgeKey {
    /// Canonicalize the wedge `u — center — v`.
    #[inline]
    pub fn new(u: VertexId, center: VertexId, v: VertexId) -> Self {
        debug_assert_ne!(u, v, "a wedge has two distinct leaves");
        debug_assert_ne!(u, center);
        debug_assert_ne!(v, center);
        let (a, b) = if u.0 <= v.0 { (u, v) } else { (v, u) };
        WedgeKey { a, b, center }
    }

    /// The two edges making up the wedge.
    #[inline]
    pub fn edges(self) -> (EdgeKey, EdgeKey) {
        (
            EdgeKey::new(self.a, self.center),
            EdgeKey::new(self.b, self.center),
        )
    }

    /// Leaf endpoints (ascending).
    #[inline]
    pub fn leaves(self) -> (VertexId, VertexId) {
        (self.a, self.b)
    }
}

impl fmt::Debug for WedgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w({}-{}-{})", self.a.0, self.center.0, self.b.0)
    }
}

/// Canonical identifier of a triangle: its vertices sorted ascending.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TriangleKey {
    verts: [VertexId; 3],
}

impl TriangleKey {
    /// Canonicalize the triangle on `{u, v, w}`.
    #[inline]
    pub fn new(u: VertexId, v: VertexId, w: VertexId) -> Self {
        debug_assert!(u != v && v != w && u != w);
        let mut verts = [u, v, w];
        verts.sort_unstable();
        TriangleKey { verts }
    }

    /// Vertices in ascending order.
    #[inline]
    pub fn vertices(self) -> [VertexId; 3] {
        self.verts
    }

    /// The three edges of the triangle.
    #[inline]
    pub fn edges(self) -> [EdgeKey; 3] {
        let [a, b, c] = self.verts;
        [EdgeKey::new(a, b), EdgeKey::new(a, c), EdgeKey::new(b, c)]
    }

    /// The vertex opposite edge `e` (the paper's `τ^{-e}`); `None` if `e` is
    /// not an edge of this triangle.
    #[inline]
    pub fn apex(self, e: EdgeKey) -> Option<VertexId> {
        let [a, b, c] = self.verts;
        let (lo, hi) = e.endpoints();
        if lo == a && hi == b {
            Some(c)
        } else if lo == a && hi == c {
            Some(b)
        } else if lo == b && hi == c {
            Some(a)
        } else {
            None
        }
    }

    /// Whether `v` is one of the triangle's vertices.
    #[inline]
    pub fn contains(self, v: VertexId) -> bool {
        self.verts.contains(&v)
    }
}

impl fmt::Debug for TriangleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c] = self.verts;
        write!(f, "t({},{},{})", a.0, b.0, c.0)
    }
}

/// Canonical identifier of a 4-cycle.
///
/// A 4-cycle `a—b—c—d—a` is determined by its two *diagonal pairs*
/// `{a, c}` and `{b, d}` (opposite vertices). We canonicalize by storing the
/// pair containing the globally smallest vertex first, each pair sorted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FourCycleKey {
    /// Diagonal pair containing the smallest vertex, sorted ascending.
    p: [VertexId; 2],
    /// The other diagonal pair, sorted ascending.
    q: [VertexId; 2],
}

impl FourCycleKey {
    /// Canonicalize the 4-cycle with diagonals `{a, c}` and `{b, d}` — i.e.
    /// the cycle `a—b—c—d—a`.
    #[inline]
    pub fn from_diagonals(a: VertexId, c: VertexId, b: VertexId, d: VertexId) -> Self {
        debug_assert!(a != c && b != d);
        let mut p = [a, c];
        p.sort_unstable();
        let mut q = [b, d];
        q.sort_unstable();
        if p[0].0 <= q[0].0 {
            FourCycleKey { p, q }
        } else {
            FourCycleKey { p: q, q: p }
        }
    }

    /// Canonicalize from a traversal `a—b—c—d—a`.
    #[inline]
    pub fn from_path(a: VertexId, b: VertexId, c: VertexId, d: VertexId) -> Self {
        Self::from_diagonals(a, c, b, d)
    }

    /// The four vertices (in diagonal-pair order `[p0, q0, p1, q1]` such that
    /// consecutive entries are adjacent on the cycle).
    #[inline]
    pub fn vertices(self) -> [VertexId; 4] {
        [self.p[0], self.q[0], self.p[1], self.q[1]]
    }

    /// The four edges of the cycle.
    #[inline]
    pub fn edges(self) -> [EdgeKey; 4] {
        let [a, b, c, d] = self.vertices();
        [
            EdgeKey::new(a, b),
            EdgeKey::new(b, c),
            EdgeKey::new(c, d),
            EdgeKey::new(d, a),
        ]
    }

    /// The four wedges of the cycle (each centered at one cycle vertex).
    #[inline]
    pub fn wedges(self) -> [WedgeKey; 4] {
        let [a, b, c, d] = self.vertices();
        [
            WedgeKey::new(d, a, b),
            WedgeKey::new(a, b, c),
            WedgeKey::new(b, c, d),
            WedgeKey::new(c, d, a),
        ]
    }
}

impl fmt::Debug for FourCycleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.vertices();
        write!(f, "c4({},{},{},{})", a.0, b.0, c.0, d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn edge_key_canonicalizes() {
        assert_eq!(EdgeKey::new(v(3), v(1)), EdgeKey::new(v(1), v(3)));
        let e = EdgeKey::new(v(7), v(2));
        assert_eq!(e.lo(), v(2));
        assert_eq!(e.hi(), v(7));
        assert_eq!(e.endpoints(), (v(2), v(7)));
    }

    #[test]
    fn edge_key_other_endpoint() {
        let e = EdgeKey::new(v(4), v(9));
        assert_eq!(e.other(v(4)), Some(v(9)));
        assert_eq!(e.other(v(9)), Some(v(4)));
        assert_eq!(e.other(v(5)), None);
    }

    #[test]
    fn edge_key_pack_roundtrip() {
        let e = EdgeKey::new(v(123_456), v(7));
        assert_eq!(EdgeKey::unpack(e.pack()), e);
        // Packing is monotone in (lo, hi).
        let a = EdgeKey::new(v(1), v(2)).pack();
        let b = EdgeKey::new(v(1), v(3)).pack();
        let c = EdgeKey::new(v(2), v(3)).pack();
        assert!(a < b && b < c);
    }

    #[test]
    fn wedge_key_canonicalizes_leaves() {
        let w1 = WedgeKey::new(v(5), v(2), v(9));
        let w2 = WedgeKey::new(v(9), v(2), v(5));
        assert_eq!(w1, w2);
        assert_eq!(w1.leaves(), (v(5), v(9)));
        let (e1, e2) = w1.edges();
        assert_eq!(e1, EdgeKey::new(v(2), v(5)));
        assert_eq!(e2, EdgeKey::new(v(2), v(9)));
    }

    #[test]
    fn triangle_key_apex() {
        let t = TriangleKey::new(v(5), v(1), v(3));
        assert_eq!(t.vertices(), [v(1), v(3), v(5)]);
        assert_eq!(t.apex(EdgeKey::new(v(1), v(3))), Some(v(5)));
        assert_eq!(t.apex(EdgeKey::new(v(5), v(1))), Some(v(3)));
        assert_eq!(t.apex(EdgeKey::new(v(3), v(5))), Some(v(1)));
        assert_eq!(t.apex(EdgeKey::new(v(1), v(9))), None);
    }

    #[test]
    fn triangle_key_edges_are_canonical() {
        let t = TriangleKey::new(v(9), v(4), v(6));
        let es = t.edges();
        assert_eq!(es[0], EdgeKey::new(v(4), v(6)));
        assert_eq!(es[1], EdgeKey::new(v(4), v(9)));
        assert_eq!(es[2], EdgeKey::new(v(6), v(9)));
    }

    #[test]
    fn four_cycle_key_rotations_and_reflections_agree() {
        // Cycle 1—2—3—4.
        let base = FourCycleKey::from_path(v(1), v(2), v(3), v(4));
        // All 8 traversals of the same cycle.
        let traversals = [
            (1, 2, 3, 4),
            (2, 3, 4, 1),
            (3, 4, 1, 2),
            (4, 1, 2, 3),
            (4, 3, 2, 1),
            (3, 2, 1, 4),
            (2, 1, 4, 3),
            (1, 4, 3, 2),
        ];
        for (a, b, c, d) in traversals {
            assert_eq!(FourCycleKey::from_path(v(a), v(b), v(c), v(d)), base);
        }
        // A different cycle on the same vertices is a different key.
        let other = FourCycleKey::from_path(v(1), v(3), v(2), v(4));
        assert_ne!(other, base);
    }

    #[test]
    fn four_cycle_key_edges_and_wedges() {
        let k = FourCycleKey::from_path(v(1), v(2), v(3), v(4));
        let mut es = k.edges().to_vec();
        es.sort_unstable();
        let mut expect = vec![
            EdgeKey::new(v(1), v(2)),
            EdgeKey::new(v(2), v(3)),
            EdgeKey::new(v(3), v(4)),
            EdgeKey::new(v(4), v(1)),
        ];
        expect.sort_unstable();
        assert_eq!(es, expect);
        assert_eq!(k.wedges().len(), 4);
        // Each wedge is centered at a distinct cycle vertex.
        let mut centers: Vec<u32> = k.wedges().iter().map(|w| w.center.0).collect();
        centers.sort_unstable();
        assert_eq!(centers, vec![1, 2, 3, 4]);
    }
}
