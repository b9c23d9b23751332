//! Incremental Bowyer–Watson Delaunay triangulation.
//!
//! Uses the robust `orient2d`/`incircle` predicates from `molq-geom`, walk
//! point-location seeded from the most recent triangle, and a super-triangle
//! whose vertices lie far outside the data extent.
//!
//! Note on the super-triangle: the structure built here is the Delaunay
//! triangulation of the input points *plus* three distant artificial
//! vertices. Every triangle among real points therefore satisfies the
//! empty-circumcircle property with respect to all real points (tested), but
//! a few hull triangles of the pure-input Delaunay triangulation may be
//! absent. The MOLQ pipeline does not consume this structure for region
//! construction — [`crate::ordinary`] builds cells directly — so the caveat
//! only bounds what the adjacency accessors promise.
//!
//! The triangulation stays in the crate as a verification oracle: it is an
//! independent construction, and `tests/cross_checks.rs` checks that every
//! interior neighbour pair of the vertex-certified cells is a Delaunay edge.

use molq_geom::robust::{incircle, orient2d};
use molq_geom::{Circle, Point};

/// A triangle: vertex indices (CCW) and neighbour triangle across the edge
/// opposite each vertex.
#[derive(Debug, Clone)]
struct Tri {
    v: [usize; 3],
    /// `n[i]` is the triangle sharing the edge `(v[i+1], v[i+2])`.
    n: [Option<usize>; 3],
    alive: bool,
}

/// An incremental Delaunay triangulation.
#[derive(Debug, Clone)]
pub struct Delaunay {
    /// Real points followed by the three super-triangle vertices.
    pts: Vec<Point>,
    real_n: usize,
    tris: Vec<Tri>,
    /// Seed triangle for the next walk.
    last: usize,
}

impl Delaunay {
    /// Triangulates `points`. Exact duplicates are inserted once (subsequent
    /// copies are skipped); the triangulation then covers the distinct
    /// points.
    ///
    /// Returns `None` when fewer than one point is given.
    pub fn build(points: &[Point]) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        // Super-triangle around the data extent.
        let mbr = molq_geom::Mbr::of_points(points.iter().copied());
        let cx = (mbr.min_x + mbr.max_x) * 0.5;
        let cy = (mbr.min_y + mbr.max_y) * 0.5;
        let ext = (mbr.width().max(mbr.height()).max(1.0)) * 1e3;
        let n = points.len();
        let mut pts = points.to_vec();
        pts.push(Point::new(cx - 3.0 * ext, cy - ext));
        pts.push(Point::new(cx + 3.0 * ext, cy - ext));
        pts.push(Point::new(cx, cy + 3.0 * ext));

        let mut dt = Delaunay {
            pts,
            real_n: n,
            tris: vec![Tri {
                v: [n, n + 1, n + 2],
                n: [None; 3],
                alive: true,
            }],
            last: 0,
        };
        for i in 0..n {
            dt.insert(i);
        }
        Some(dt)
    }

    /// Number of real (non-super) points.
    pub fn len(&self) -> usize {
        self.real_n
    }

    /// `true` when there are no real points.
    pub fn is_empty(&self) -> bool {
        self.real_n == 0
    }

    /// The real input points.
    pub fn points(&self) -> &[Point] {
        &self.pts[..self.real_n]
    }

    fn insert(&mut self, pi: usize) {
        let p = self.pts[pi];
        let Some(start) = self.locate(p) else {
            return; // walk failed (duplicate handled below anyway)
        };
        // Skip exact duplicates.
        if self.tris[start]
            .v
            .iter()
            .any(|&v| self.pts[v] == p && v != pi)
        {
            return;
        }

        // Grow the cavity: all triangles whose circumcircle contains p.
        let mut in_cavity = vec![false; self.tris.len()];
        let mut cavity = vec![start];
        in_cavity[start] = true;
        let mut stack = vec![start];
        while let Some(t) = stack.pop() {
            for i in 0..3 {
                if let Some(nb) = self.tris[t].n[i] {
                    if !in_cavity[nb] && self.in_circumcircle(nb, p) {
                        in_cavity[nb] = true;
                        cavity.push(nb);
                        stack.push(nb);
                    }
                }
            }
        }

        // Boundary edges of the cavity, CCW-directed as seen from inside.
        // (a, b, outer neighbour, index of this edge in the outer neighbour)
        let mut boundary: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for &t in &cavity {
            for i in 0..3 {
                let nb = self.tris[t].n[i];
                let outside = nb.map(|x| !in_cavity[x]).unwrap_or(true);
                if outside {
                    let a = self.tris[t].v[(i + 1) % 3];
                    let b = self.tris[t].v[(i + 2) % 3];
                    boundary.push((a, b, nb));
                }
            }
        }

        // Kill cavity triangles.
        for &t in &cavity {
            self.tris[t].alive = false;
        }

        // Fan: one new triangle (a, b, p) per boundary edge.
        // Map from starting vertex a -> new triangle index for fan linking.
        let base = self.tris.len();
        let mut start_of: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(boundary.len());
        for (k, &(a, b, outer)) in boundary.iter().enumerate() {
            let idx = base + k;
            self.tris.push(Tri {
                v: [a, b, pi],
                // n[0] across (b, p): fan; n[1] across (p, a): fan;
                // n[2] across (a, b): outer.
                n: [None, None, outer],
                alive: true,
            });
            start_of.insert(a, idx);
            // Fix the outer neighbour's backlink across exactly the shared
            // edge {a, b} (an outer triangle can border the cavity on more
            // than one edge, so matching "points into the cavity" is not
            // enough).
            if let Some(o) = outer {
                for j in 0..3 {
                    let ea = self.tris[o].v[(j + 1) % 3];
                    let eb = self.tris[o].v[(j + 2) % 3];
                    if (ea == a && eb == b) || (ea == b && eb == a) {
                        self.tris[o].n[j] = Some(idx);
                    }
                }
            }
        }
        // Link fan neighbours: triangle (a, b, p) borders the fan triangle
        // starting at b across edge (b, p).
        for (k, &(_a, b, _)) in boundary.iter().enumerate() {
            let idx = base + k;
            let next = start_of[&b];
            self.tris[idx].n[0] = Some(next);
            self.tris[next].n[1] = Some(idx);
        }
        self.last = base;
    }

    fn in_circumcircle(&self, t: usize, p: Point) -> bool {
        let v = &self.tris[t].v;
        incircle(self.pts[v[0]], self.pts[v[1]], self.pts[v[2]], p) > 0.0
    }

    /// Walks from the last created triangle to one containing `p`.
    fn locate(&self, p: Point) -> Option<usize> {
        let mut cur = self.last;
        if !self.tris[cur].alive {
            cur = self.tris.iter().rposition(|t| t.alive)?;
        }
        let mut steps = 0usize;
        let max_steps = self.tris.len() * 4 + 64;
        'walk: loop {
            steps += 1;
            if steps > max_steps {
                break;
            }
            let t = &self.tris[cur];
            for i in 0..3 {
                let a = self.pts[t.v[(i + 1) % 3]];
                let b = self.pts[t.v[(i + 2) % 3]];
                if orient2d(a, b, p) < 0.0 {
                    match t.n[i] {
                        Some(nb) => {
                            cur = nb;
                            continue 'walk;
                        }
                        None => break 'walk, // outside the super-triangle
                    }
                }
            }
            return Some(cur);
        }
        // Fallback: linear scan (degenerate walk cycles are possible only on
        // adversarial input; correctness beats speed here).
        (0..self.tris.len()).find(|&t| {
            self.tris[t].alive
                && (0..3).all(|i| {
                    let a = self.pts[self.tris[t].v[(i + 1) % 3]];
                    let b = self.pts[self.tris[t].v[(i + 2) % 3]];
                    orient2d(a, b, p) >= 0.0
                })
        })
    }

    /// Triangles among real points only, as CCW vertex-index triples.
    pub fn triangles(&self) -> Vec<[usize; 3]> {
        self.tris
            .iter()
            .filter(|t| t.alive && t.v.iter().all(|&v| v < self.real_n))
            .map(|t| t.v)
            .collect()
    }

    /// Circumcenters of all real triangles (the dual Voronoi vertices).
    pub fn circumcenters(&self) -> Vec<Point> {
        self.triangles()
            .iter()
            .filter_map(|t| {
                Circle::circumcircle(self.pts[t[0]], self.pts[t[1]], self.pts[t[2]])
                    .map(|c| c.center)
            })
            .collect()
    }

    /// Adjacency lists over real points induced by real triangles (Delaunay
    /// edges; hull-adjacent pairs may be missing, see the module docs).
    pub fn neighbor_lists(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.real_n];
        for t in self.triangles() {
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                }
                if !adj[b].contains(&a) {
                    adj[b].push(a);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
        }
        adj
    }

    /// Verifies the Delaunay invariant: no real point lies strictly inside
    /// the circumcircle of any real triangle. `O(T · n)` — test use only.
    pub fn is_delaunay(&self) -> bool {
        let tris = self.triangles();
        for t in &tris {
            let (a, b, c) = (self.pts[t[0]], self.pts[t[1]], self.pts[t[2]]);
            for (i, &p) in self.pts[..self.real_n].iter().enumerate() {
                if t.contains(&i) {
                    continue;
                }
                if incircle(a, b, c, p) > 0.0 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_points(n: usize, seed: u64, extent: f64) -> Vec<Point> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / u32::MAX as f64
        };
        (0..n)
            .map(|_| Point::new(next() * extent, next() * extent))
            .collect()
    }

    #[test]
    fn empty_input() {
        assert!(Delaunay::build(&[]).is_none());
    }

    #[test]
    fn triangle_of_three_points() {
        let dt = Delaunay::build(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let tris = dt.triangles();
        assert_eq!(tris.len(), 1);
        assert!(dt.is_delaunay());
    }

    #[test]
    fn square_gives_two_triangles() {
        let dt = Delaunay::build(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        assert_eq!(dt.triangles().len(), 2);
        assert!(dt.is_delaunay());
    }

    #[test]
    fn random_points_satisfy_delaunay_invariant() {
        let pts = pseudo_points(120, 17, 10.0);
        let dt = Delaunay::build(&pts).unwrap();
        assert!(dt.is_delaunay());
        // Euler sanity: for n points with h hull points, triangles among the
        // real points are at most 2n - 2 - h < 2n.
        assert!(dt.triangles().len() < 2 * pts.len());
    }

    #[test]
    fn grid_points_with_cocircular_quads() {
        // A regular grid is maximally degenerate (every quad co-circular).
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push(Point::new(i as f64, j as f64));
            }
        }
        let dt = Delaunay::build(&pts).unwrap();
        assert!(dt.is_delaunay());
        // A full triangulation of an 8x8 grid has 2*49 = 98 interior
        // triangles; super-triangle effects may drop a handful on the hull.
        assert!(dt.triangles().len() >= 90, "{}", dt.triangles().len());
    }

    #[test]
    fn duplicates_are_skipped() {
        let p = Point::new(0.5, 0.5);
        let dt = Delaunay::build(&[
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            p,
            p,
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        assert!(dt.is_delaunay());
    }

    #[test]
    fn collinear_points_produce_no_real_triangles() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let dt = Delaunay::build(&pts).unwrap();
        assert!(dt.triangles().is_empty());
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let pts = pseudo_points(80, 4, 100.0);
        let dt = Delaunay::build(&pts).unwrap();
        let adj = dt.neighbor_lists();
        for (i, l) in adj.iter().enumerate() {
            for &j in l {
                assert!(adj[j].contains(&i), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn circumcenters_exist_for_all_triangles() {
        let pts = pseudo_points(50, 8, 10.0);
        let dt = Delaunay::build(&pts).unwrap();
        assert_eq!(dt.circumcenters().len(), dt.triangles().len());
    }

    #[test]
    fn larger_instance_is_delaunay() {
        let pts = pseudo_points(600, 99, 1000.0);
        let dt = Delaunay::build(&pts).unwrap();
        assert!(dt.is_delaunay());
    }
}
