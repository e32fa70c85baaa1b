//! Planar geometry and the hexagonal cell layout.
//!
//! The paper (and the SCC paper it compares against) model the coverage
//! area as a honeycomb of hexagonal cells around base stations. We use
//! axial coordinates (`q`, `r`) on a pointy-top hex lattice, with cell
//! centers spaced so that a cell's *radius* (center → corner) is
//! configurable in kilometers.

use serde::{Deserialize, Serialize};

use facs_cac::CellId;

/// A point in the plane, in kilometers.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// East-west coordinate (km).
    pub x: f64,
    /// North-south coordinate (km).
    pub y: f64,
}

impl Point {
    /// Origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`, in km.
    #[must_use]
    pub fn distance_to(&self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Bearing from `self` to `other`, in degrees in `(-180, 180]`,
    /// measured counterclockwise from the +x axis.
    #[must_use]
    pub fn bearing_to(&self, other: Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x).to_degrees()
    }

    /// The point reached by moving `distance_km` along `heading_deg`.
    #[must_use]
    pub fn step(&self, heading_deg: f64, distance_km: f64) -> Point {
        let rad = heading_deg.to_radians();
        Point { x: self.x + distance_km * rad.cos(), y: self.y + distance_km * rad.sin() }
    }
}

/// Axial coordinates of a hexagonal cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HexCoord {
    /// Axial `q` (column).
    pub q: i32,
    /// Axial `r` (row).
    pub r: i32,
}

impl HexCoord {
    /// The center cell.
    pub const CENTER: HexCoord = HexCoord { q: 0, r: 0 };

    /// Creates a coordinate.
    #[must_use]
    pub const fn new(q: i32, r: i32) -> Self {
        Self { q, r }
    }

    /// The six neighbors in fixed order (E, NE, NW, W, SW, SE for a
    /// pointy-top layout).
    #[must_use]
    pub fn neighbors(self) -> [HexCoord; 6] {
        const DIRS: [(i32, i32); 6] = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];
        DIRS.map(|(dq, dr)| HexCoord::new(self.q + dq, self.r + dr))
    }

    /// Hex-grid distance (number of cell hops).
    #[must_use]
    pub fn grid_distance(self, other: HexCoord) -> u32 {
        let dq = (self.q - other.q).abs();
        let dr = (self.r - other.r).abs();
        let ds = (self.q + self.r - other.q - other.r).abs();
        ((dq + dr + ds) / 2) as u32
    }
}

/// A finite hexagonal grid of cells: a center cell plus `radius` rings.
///
/// Ring `k` holds `6k` cells, so the grid has `3 r (r + 1) + 1` cells.
/// Cell ids are assigned ring by ring, center first (`CellId(0)` is the
/// center).
///
/// # Examples
///
/// ```
/// use facs_cellsim::geometry::HexGrid;
///
/// let grid = HexGrid::new(2, 1.0); // 19 cells of radius 1 km
/// assert_eq!(grid.len(), 19);
/// let center = grid.center_of(facs_cac::CellId(0));
/// assert_eq!(center.x, 0.0);
/// assert_eq!(center.y, 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HexGrid {
    radius: u32,
    cell_radius_km: f64,
    coords: Vec<HexCoord>,
    /// Dense axial→id lookup over the bounding square `[-R, R]²`:
    /// slot `(q + R) · (2R + 1) + (r + R)`, with `u32::MAX` marking
    /// coordinates outside the honeycomb. Every `locate` hits this
    /// table, so it must be an indexed load, not a hashed probe.
    lut: Vec<u32>,
}

impl HexGrid {
    /// Builds a grid with `radius` rings around the center; each cell has
    /// the given radius (center → corner) in km.
    ///
    /// # Panics
    ///
    /// Panics if `cell_radius_km` is not finite and positive.
    #[must_use]
    pub fn new(radius: u32, cell_radius_km: f64) -> Self {
        assert!(
            cell_radius_km.is_finite() && cell_radius_km > 0.0,
            "bad cell radius {cell_radius_km}"
        );
        let mut coords = vec![HexCoord::CENTER];
        for ring in 1..=radius as i32 {
            // Walk the ring starting from (ring, 0) (standard ring walk).
            let mut coord = HexCoord::new(ring, 0);
            const DIRS: [(i32, i32); 6] = [(0, -1), (-1, 0), (-1, 1), (0, 1), (1, 0), (1, -1)];
            for (dq, dr) in DIRS {
                for _ in 0..ring {
                    coords.push(coord);
                    coord = HexCoord::new(coord.q + dq, coord.r + dr);
                }
            }
        }
        let side = 2 * radius as usize + 1;
        let mut lut = vec![u32::MAX; side * side];
        for (i, &c) in coords.iter().enumerate() {
            let q = (c.q + radius as i32) as usize;
            let r = (c.r + radius as i32) as usize;
            lut[q * side + r] = i as u32;
        }
        Self { radius, cell_radius_km, coords, lut }
    }

    /// A single-cell "grid" (figs. 7–9 run against one base station).
    #[must_use]
    pub fn single_cell(cell_radius_km: f64) -> Self {
        Self::new(0, cell_radius_km)
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// `false` — a grid always contains at least the center cell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Ring count around the center.
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Cell radius (center → corner) in km.
    #[must_use]
    pub fn cell_radius_km(&self) -> f64 {
        self.cell_radius_km
    }

    /// All cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.coords.len()).map(|i| CellId(i as u32))
    }

    /// Axial coordinate of a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a cell of this grid.
    #[must_use]
    pub fn coord_of(&self, id: CellId) -> HexCoord {
        self.coords[id.0 as usize]
    }

    /// Cell id at an axial coordinate, if inside the grid.
    #[must_use]
    pub fn cell_at(&self, coord: HexCoord) -> Option<CellId> {
        let radius = self.radius as i32;
        if coord.q.abs() > radius || coord.r.abs() > radius {
            return None;
        }
        let side = 2 * radius as usize + 1;
        let q = (coord.q + radius) as usize;
        let r = (coord.r + radius) as usize;
        match self.lut[q * side + r] {
            u32::MAX => None,
            id => Some(CellId(id)),
        }
    }

    /// Planar center of a cell, in km.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a cell of this grid.
    #[must_use]
    pub fn center_of(&self, id: CellId) -> Point {
        let c = self.coord_of(id);
        // Pointy-top axial -> pixel transform; the distance between
        // adjacent centers is sqrt(3) * cell radius.
        let size = self.cell_radius_km;
        let x = size * (3f64.sqrt() * f64::from(c.q) + 3f64.sqrt() / 2.0 * f64::from(c.r));
        let y = size * (1.5 * f64::from(c.r));
        Point::new(x, y)
    }

    /// In-grid neighbor cells of `id`, in fixed direction order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a cell of this grid.
    #[must_use]
    pub fn neighbors_of(&self, id: CellId) -> Vec<CellId> {
        self.coord_of(id).neighbors().iter().filter_map(|&c| self.cell_at(c)).collect()
    }

    /// The cell whose center is nearest to `point`. The honeycomb Voronoi
    /// partition is exactly "nearest center".
    ///
    /// Runs in O(1) via the inverse pixel→axial transform plus cube
    /// rounding; only points that round outside the finite grid fall
    /// back to a scan over the outer ring, O(6R) for `R` rings. That scan
    /// is exact: every inner cell has all six neighbors in the grid, so
    /// the points nearest to an inner center are that cell's own
    /// hexagon, and a point that rounds outside the grid lies in no
    /// hexagon of the grid. Its nearest center is therefore on the outer
    /// ring, and the ascending-id scan resolves ties to the lowest id.
    #[must_use]
    pub fn locate(&self, point: Point) -> CellId {
        self.rounded(point).unwrap_or_else(|| self.nearest_on_outer_ring(point).0)
    }

    /// The grid cell `point` hex-rounds into, if it rounds into the grid.
    fn rounded(&self, point: Point) -> Option<CellId> {
        let size = self.cell_radius_km;
        let fq = (3f64.sqrt() / 3.0 * point.x - point.y / 3.0) / size;
        let fr = (2.0 / 3.0 * point.y) / size;
        self.cell_at(Self::axial_round(fq, fr))
    }

    /// The outer-ring cell nearest to `point` and its distance in km,
    /// lowest id on a tie. `new` assigns ids ring by ring, so the outer
    /// ring is the last `6R` ids (the whole grid when `R = 0`).
    fn nearest_on_outer_ring(&self, point: Point) -> (CellId, f64) {
        let first = if self.radius == 0 { 0 } else { self.len() - 6 * self.radius as usize };
        let mut best = CellId(first as u32);
        let mut best_d = f64::INFINITY;
        for id in (first..self.len()).map(|i| CellId(i as u32)) {
            let d = self.center_of(id).distance_to(point);
            if d < best_d {
                best_d = d;
                best = id;
            }
        }
        (best, best_d)
    }

    /// Distance in km from `point` to the nearest edge of cell `id`'s
    /// hexagon: positive inside, zero on an edge, negative outside.
    ///
    /// The pointy-top hexagon's edges face its neighbors, at 0°, 60° and
    /// 120° (and the opposite bearings), each one inradius `√3/2 · R`
    /// from the center. With `d = point − center` the margin is
    /// `√3/2 · R − max |d · nᵢ|` over those three unit normals `nᵢ`.
    /// Inside the hexagon that is the exact distance to its boundary;
    /// outside it is minus the largest overshoot past an edge line.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a cell of this grid.
    #[must_use]
    pub(crate) fn interior_margin(&self, id: CellId, point: Point) -> f64 {
        let center = self.center_of(id);
        let (dx, dy) = (point.x - center.x, point.y - center.y);
        let half_sqrt3 = 3f64.sqrt() / 2.0;
        let along_60 = 0.5 * dx + half_sqrt3 * dy;
        let along_120 = half_sqrt3 * dy - 0.5 * dx;
        half_sqrt3 * self.cell_radius_km - dx.abs().max(along_60.abs()).max(along_120.abs())
    }

    /// Rounds fractional axial coordinates to the containing hex (the
    /// standard cube-rounding construction).
    fn axial_round(fq: f64, fr: f64) -> HexCoord {
        let fs = -fq - fr;
        let mut q = fq.round();
        let mut r = fr.round();
        let s = fs.round();
        let dq = (q - fq).abs();
        let dr = (r - fr).abs();
        let ds = (s - fs).abs();
        if dq > dr && dq > ds {
            q = -r - s;
        } else if dr > ds {
            r = -q - s;
        }
        HexCoord::new(q as i32, r as i32)
    }

    /// `true` when `point` lies farther from every center than one cell
    /// diameter — i.e. it has wandered off the modelled coverage area.
    #[must_use]
    pub fn out_of_coverage(&self, point: Point) -> bool {
        // Fast path: a point that hex-rounds into a modelled cell lies
        // inside that hexagon, hence within one cell radius of its
        // center — it cannot be out of coverage. Only points beyond the
        // outer ring pay the outer-ring scan (see `locate`), once.
        if self.rounded(point).is_some() {
            return false;
        }
        self.nearest_on_outer_ring(point).1 > 2.0 * self.cell_radius_km
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sizes() {
        assert_eq!(HexGrid::new(0, 1.0).len(), 1);
        assert_eq!(HexGrid::new(1, 1.0).len(), 7);
        assert_eq!(HexGrid::new(2, 1.0).len(), 19);
        assert_eq!(HexGrid::new(3, 1.0).len(), 37);
    }

    #[test]
    fn center_cell_is_id_zero_at_origin() {
        let g = HexGrid::new(2, 1.0);
        assert_eq!(g.coord_of(CellId(0)), HexCoord::CENTER);
        let c = g.center_of(CellId(0));
        assert_eq!((c.x, c.y), (0.0, 0.0));
    }

    #[test]
    fn coords_are_unique() {
        let g = HexGrid::new(3, 1.0);
        let mut seen = std::collections::HashSet::new();
        for id in g.cell_ids() {
            assert!(seen.insert(g.coord_of(id)), "duplicate coord for {id}");
        }
    }

    #[test]
    fn neighbor_symmetry() {
        let g = HexGrid::new(2, 1.0);
        for id in g.cell_ids() {
            for n in g.neighbors_of(id) {
                assert!(g.neighbors_of(n).contains(&id), "{id} -> {n} not symmetric");
            }
        }
    }

    #[test]
    fn center_has_six_neighbors_edge_fewer() {
        let g = HexGrid::new(1, 1.0);
        assert_eq!(g.neighbors_of(CellId(0)).len(), 6);
        // Every ring-1 cell in a radius-1 grid touches the center plus two
        // ring mates.
        for i in 1..7 {
            assert_eq!(g.neighbors_of(CellId(i)).len(), 3);
        }
    }

    #[test]
    fn adjacent_centers_are_sqrt3_apart() {
        let g = HexGrid::new(1, 2.0);
        let c0 = g.center_of(CellId(0));
        for n in g.neighbors_of(CellId(0)) {
            let d = c0.distance_to(g.center_of(n));
            assert!((d - 2.0 * 3f64.sqrt()).abs() < 1e-9, "distance {d}");
        }
    }

    #[test]
    fn locate_maps_centers_to_their_cells() {
        let g = HexGrid::new(2, 1.5);
        for id in g.cell_ids() {
            assert_eq!(g.locate(g.center_of(id)), id);
        }
    }

    #[test]
    fn locate_partitions_midpoints_consistently() {
        let g = HexGrid::new(1, 1.0);
        // A point clearly inside the east neighbor.
        let east = g
            .cell_ids()
            .find(|&id| {
                id != CellId(0) && g.center_of(id).y.abs() < 1e-9 && g.center_of(id).x > 0.0
            })
            .expect("east neighbor exists");
        let p = Point::new(g.center_of(east).x - 0.1, 0.0);
        assert_eq!(g.locate(p), east);
    }

    #[test]
    fn grid_distance_matches_rings() {
        let g = HexGrid::new(2, 1.0);
        let center = g.coord_of(CellId(0));
        // Ring 1 = ids 1..=6, ring 2 = ids 7..=18.
        for i in 1..=6u32 {
            assert_eq!(center.grid_distance(g.coord_of(CellId(i))), 1);
        }
        for i in 7..=18u32 {
            assert_eq!(center.grid_distance(g.coord_of(CellId(i))), 2);
        }
    }

    #[test]
    fn bearing_and_step_agree() {
        let a = Point::new(0.0, 0.0);
        let b = a.step(30.0, 2.0);
        assert!((a.bearing_to(b) - 30.0).abs() < 1e-9);
        assert!((a.distance_to(b) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn locate_rounding_agrees_with_nearest_center_scan() {
        let g = HexGrid::new(2, 1.3);
        // A deterministic lattice of probe points covering the grid and a
        // margin beyond it.
        for ix in -40..=40 {
            for iy in -40..=40 {
                let p = Point::new(f64::from(ix) * 0.17, f64::from(iy) * 0.17);
                let by_scan = {
                    let mut best = CellId(0);
                    let mut best_d = f64::INFINITY;
                    for id in g.cell_ids() {
                        let d = g.center_of(id).distance_to(p);
                        if d < best_d {
                            best_d = d;
                            best = id;
                        }
                    }
                    best
                };
                let located = g.locate(p);
                // Equal-distance boundary points may legitimately resolve
                // either way; require agreement up to distance equality.
                let d_located = g.center_of(located).distance_to(p);
                let d_scan = g.center_of(by_scan).distance_to(p);
                assert!(
                    (d_located - d_scan).abs() < 1e-9,
                    "locate {located:?} (d {d_located}) vs scan {by_scan:?} (d {d_scan}) at {p:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_coverage_detects_wanderers() {
        let g = HexGrid::new(1, 1.0);
        assert!(!g.out_of_coverage(Point::new(0.0, 0.0)));
        assert!(g.out_of_coverage(Point::new(50.0, 50.0)));
    }

    #[test]
    fn interior_margin_is_the_distance_to_the_nearest_edge() {
        let radius_km = 1.7;
        let g = HexGrid::new(2, radius_km);
        let inradius = 3f64.sqrt() / 2.0 * radius_km;
        for id in g.cell_ids() {
            let c = g.center_of(id);
            assert!((g.interior_margin(id, c) - inradius).abs() < 1e-12);
            for k in 0..6 {
                let normal = 60.0 * f64::from(k);
                // Vertices sit between the edge normals, one circumradius out.
                let vertex = c.step(normal + 30.0, radius_km);
                assert!(g.interior_margin(id, vertex).abs() < 1e-12, "vertex {k} of {id}");
                let midpoint = c.step(normal, inradius);
                assert!(g.interior_margin(id, midpoint).abs() < 1e-12, "edge {k} of {id}");
                // Halfway from the center to an edge midpoint.
                let inside = c.step(normal, inradius / 2.0);
                assert!((g.interior_margin(id, inside) - inradius / 2.0).abs() < 1e-12);
                let outside = c.step(normal, inradius + 0.25);
                assert!((g.interior_margin(id, outside) + 0.25).abs() < 1e-12);
                assert!(g.interior_margin(id, c.step(normal + 30.0, radius_km * 1.01)) < 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad cell radius")]
    fn rejects_bad_radius() {
        let _ = HexGrid::new(1, 0.0);
    }
}
