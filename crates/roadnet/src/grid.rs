//! Grid partition index over the road network (Section 3.2.1, Fig. 1).
//!
//! The network's bounding box is divided into a uniform grid. For every
//! cell the index maintains:
//!
//! * the **border vertex list** — endpoints of edges that cross cell
//!   boundaries;
//! * the **vertex list** — member vertices, each with its shortest-path
//!   distance to every border vertex of the cell and the minimum of those
//!   distances (`v.min`);
//! * the **grid cell list** — every other cell sorted in ascending order of
//!   the lower-bound distance (equivalently travel time, speed being
//!   constant);
//! * a **lower-bound matrix** entry for every cell pair, anchored at the
//!   closest pair of border vertices.
//!
//! The empty/non-empty *vehicle* lists the paper also attaches to each cell
//! live in `ptrider-vehicles::index`, keeping this crate independent of the
//! vehicle model.
//!
//! The fundamental guarantee (checked by property tests) is that
//! [`GridIndex::lower_bound`] never exceeds the exact shortest-path
//! distance, so the matching algorithms can prune with it safely.

use crate::dijkstra;
use crate::graph::RoadNetwork;
use crate::types::{Point, VertexId, INFINITE_DISTANCE};
use serde::{Deserialize, Serialize};

/// Identifier of a grid cell (row-major: `cell = y * nx + x`).
pub type CellId = usize;

/// Configuration for building a [`GridIndex`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GridConfig {
    /// Number of columns.
    pub nx: usize,
    /// Number of rows.
    pub ny: usize,
    /// Whether to compute, for every vertex, the full table of distances to
    /// each border vertex of its cell. `v.min` is always computed; the full
    /// table is only needed by diagnostics and some tighter bounds, so large
    /// benchmarks may disable it.
    pub compute_border_tables: bool,
}

impl GridConfig {
    /// Grid with the given number of columns and rows.
    pub fn with_dimensions(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
        GridConfig {
            nx,
            ny,
            compute_border_tables: true,
        }
    }

    /// Disables the per-vertex border-distance tables.
    pub fn without_border_tables(mut self) -> Self {
        self.compute_border_tables = false;
        self
    }
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig::with_dimensions(16, 16)
    }
}

/// Per-cell contents (border vertices and member vertices).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GridCell {
    /// Border vertices of this cell (endpoints of boundary-crossing edges
    /// that lie inside the cell).
    pub border_vertices: Vec<VertexId>,
    /// All vertices whose coordinate falls inside the cell.
    pub vertices: Vec<VertexId>,
}

/// The grid index over a road network.
#[derive(Clone, Debug)]
pub struct GridIndex {
    nx: usize,
    ny: usize,
    origin: Point,
    cell_w: f64,
    cell_h: f64,
    cell_of_vertex: Vec<CellId>,
    cells: Vec<GridCell>,
    /// `v.min`: distance from each vertex to the nearest border vertex of its
    /// own cell. Infinite when the cell has no border vertices.
    vertex_min: Vec<f64>,
    /// Optional per-vertex `{(border vertex, dist)}` table for its own cell.
    border_tables: Option<Vec<Vec<(VertexId, f64)>>>,
    /// Row-major `ncells x ncells` matrix of lower-bound distances between
    /// cells (minimum border-vertex-pair distance). Diagonal is 0.
    lb_matrix: Vec<f64>,
    /// For each cell, every cell (including itself, at 0.0) sorted ascending
    /// by lower-bound distance.
    sorted_cells: Vec<Vec<(CellId, f64)>>,
}

impl GridIndex {
    /// Builds the index for a network.
    pub fn build(net: &RoadNetwork, config: GridConfig) -> Self {
        let (min, max) = net.bounding_box();
        let nx = config.nx;
        let ny = config.ny;
        // Expand the box a hair so max-coordinate vertices land inside the
        // last cell instead of one past it.
        let width = (max.x - min.x).max(1e-9);
        let height = (max.y - min.y).max(1e-9);
        let cell_w = width / nx as f64 * (1.0 + 1e-12) + f64::EPSILON;
        let cell_h = height / ny as f64 * (1.0 + 1e-12) + f64::EPSILON;

        let ncells = nx * ny;
        let mut cells: Vec<GridCell> = vec![GridCell::default(); ncells];
        let mut cell_of_vertex = vec![0usize; net.num_vertices()];
        for v in net.vertices() {
            let p = net.coord(v);
            let cx = (((p.x - min.x) / cell_w) as usize).min(nx - 1);
            let cy = (((p.y - min.y) / cell_h) as usize).min(ny - 1);
            let cid = cy * nx + cx;
            cell_of_vertex[v.index()] = cid;
            cells[cid].vertices.push(v);
        }

        // Border vertices: endpoints of edges whose two endpoints live in
        // different cells.
        let mut is_border = vec![false; net.num_vertices()];
        for e in net.edges() {
            if cell_of_vertex[e.from.index()] != cell_of_vertex[e.to.index()] {
                is_border[e.from.index()] = true;
                is_border[e.to.index()] = true;
            }
        }
        for v in net.vertices() {
            if is_border[v.index()] {
                cells[cell_of_vertex[v.index()]].border_vertices.push(v);
            }
        }

        // Per-cell multi-source Dijkstra from the cell's border vertices:
        // yields v.min for the cell's own vertices and one row of the
        // lower-bound matrix.
        let mut vertex_min = vec![INFINITE_DISTANCE; net.num_vertices()];
        let mut lb_matrix = vec![INFINITE_DISTANCE; ncells * ncells];
        for (ci, cell) in cells.iter().enumerate() {
            lb_matrix[ci * ncells + ci] = 0.0;
            if cell.border_vertices.is_empty() {
                // A cell without border vertices either holds the whole
                // (connected component of the) graph or is empty; its
                // vertices never need to exit, so v.min stays infinite and
                // cross-cell bounds degrade to the Euclidean bound.
                continue;
            }
            let dist = dijkstra::multi_source(net, cell.border_vertices.iter().copied());
            for &v in &cell.vertices {
                vertex_min[v.index()] = dist[v.index()];
            }
            for (cj, other) in cells.iter().enumerate() {
                if ci == cj {
                    continue;
                }
                let mut best = INFINITE_DISTANCE;
                for &b in &other.border_vertices {
                    let d = dist[b.index()];
                    if d < best {
                        best = d;
                    }
                }
                lb_matrix[ci * ncells + cj] = best;
            }
        }

        // Optional full per-vertex border tables.
        let border_tables = if config.compute_border_tables {
            let mut tables: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); net.num_vertices()];
            for cell in &cells {
                for &b in &cell.border_vertices {
                    let ds = dijkstra::multi_target(net, b, &cell.vertices);
                    for (&v, &d) in cell.vertices.iter().zip(ds.iter()) {
                        tables[v.index()].push((b, d));
                    }
                }
            }
            Some(tables)
        } else {
            None
        };

        // Per-cell neighbour list sorted by lower bound (self first at 0).
        let mut sorted_cells = Vec::with_capacity(ncells);
        for ci in 0..ncells {
            let mut row: Vec<(CellId, f64)> = (0..ncells)
                .map(|cj| (cj, lb_matrix[ci * ncells + cj]))
                .collect();
            row.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            sorted_cells.push(row);
        }

        GridIndex {
            nx,
            ny,
            origin: min,
            cell_w,
            cell_h,
            cell_of_vertex,
            cells,
            vertex_min,
            border_tables,
            lb_matrix,
            sorted_cells,
        }
    }

    /// Number of cells (`nx * ny`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Grid dimensions `(nx, ny)`.
    #[inline]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Cell containing a vertex.
    #[inline]
    pub fn cell_of(&self, v: VertexId) -> CellId {
        self.cell_of_vertex[v.index()]
    }

    /// Cell containing an arbitrary planar point (clamped to the grid).
    pub fn cell_of_point(&self, p: Point) -> CellId {
        let cx = (((p.x - self.origin.x) / self.cell_w).max(0.0) as usize).min(self.nx - 1);
        let cy = (((p.y - self.origin.y) / self.cell_h).max(0.0) as usize).min(self.ny - 1);
        cy * self.nx + cx
    }

    /// The contents of a cell.
    #[inline]
    pub fn cell(&self, id: CellId) -> &GridCell {
        &self.cells[id]
    }

    /// Iterator over `(CellId, &GridCell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &GridCell)> {
        self.cells.iter().enumerate()
    }

    /// `v.min`: distance from `v` to the nearest border vertex of its cell.
    #[inline]
    pub fn vertex_min(&self, v: VertexId) -> f64 {
        self.vertex_min[v.index()]
    }

    /// Distance table from `v` to each border vertex of its own cell, if the
    /// index was built with border tables.
    pub fn border_table(&self, v: VertexId) -> Option<&[(VertexId, f64)]> {
        self.border_tables.as_ref().map(|t| t[v.index()].as_slice())
    }

    /// Lower bound on the distance between any vertex of `from` and any
    /// vertex of `to` based on the closest border-vertex pair. Zero when the
    /// cells coincide; infinite when no border path exists.
    #[inline]
    pub fn cell_lower_bound(&self, from: CellId, to: CellId) -> f64 {
        self.lb_matrix[from * self.num_cells() + to]
    }

    /// Every cell sorted by ascending lower-bound distance from `from`
    /// (the cell itself first, at distance 0). This is the expansion order
    /// used by the single-side and dual-side search algorithms.
    #[inline]
    pub fn cells_by_lower_bound(&self, from: CellId) -> &[(CellId, f64)] {
        &self.sorted_cells[from]
    }

    /// A lower bound on the exact road distance `dist(u, v)`.
    ///
    /// For vertices in the same cell the bound is the Euclidean bound; for
    /// different cells it is
    /// `max(euclidean, u.min + LB[cell(u)][cell(v)] + v.min)`.
    pub fn lower_bound_with(&self, net: &RoadNetwork, u: VertexId, v: VertexId) -> f64 {
        let euclid = net.euclidean_lower_bound(u, v);
        let cu = self.cell_of(u);
        let cv = self.cell_of(v);
        if cu == cv {
            return euclid;
        }
        let lb = self.cell_lower_bound(cu, cv);
        if !lb.is_finite() {
            // No border path: either truly unreachable or a degenerate
            // single-cell component; fall back to the Euclidean bound which
            // is always valid.
            return euclid;
        }
        let umin = self.vertex_min[u.index()];
        let vmin = self.vertex_min[v.index()];
        if umin.is_finite() && vmin.is_finite() {
            euclid.max(umin + lb + vmin)
        } else {
            euclid
        }
    }

    /// Like [`Self::lower_bound_with`] but without the Euclidean component
    /// (grid information only). Kept for the grid-granularity ablation.
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> f64 {
        let cu = self.cell_of(u);
        let cv = self.cell_of(v);
        if cu == cv {
            return 0.0;
        }
        let lb = self.cell_lower_bound(cu, cv);
        let umin = self.vertex_min[u.index()];
        let vmin = self.vertex_min[v.index()];
        if lb.is_finite() && umin.is_finite() && vmin.is_finite() {
            umin + lb + vmin
        } else {
            0.0
        }
    }

    /// Lower bound from a vertex to any vertex of a target cell.
    ///
    /// Used by the grid expansion of the matching algorithms: when the next
    /// cell's bound already exceeds the pruning threshold the scan stops.
    pub fn lower_bound_to_cell(&self, u: VertexId, target: CellId) -> f64 {
        let cu = self.cell_of(u);
        if cu == target {
            return 0.0;
        }
        let lb = self.cell_lower_bound(cu, target);
        let umin = self.vertex_min[u.index()];
        if lb.is_finite() && umin.is_finite() {
            umin + lb
        } else {
            0.0
        }
    }

    /// Every cell whose rectangle intersects the closed disk of straight-
    /// line radius `radius` around `p`, in row-major order.
    ///
    /// This is the geometric substrate of the sublinear pickup-candidate
    /// walk: a vertex within planar distance `radius` of `p` lies in one of
    /// the returned cells (its cell rectangle contains it, so the
    /// rectangle's minimum distance to `p` cannot exceed the vertex's). The
    /// number of cells visited is bounded by the disk area over the cell
    /// area — independent of how many vertices or vehicles the grid holds.
    ///
    /// A non-finite `radius` returns every cell.
    pub fn cells_within_euclidean(&self, p: Point, radius: f64) -> Vec<CellId> {
        if !radius.is_finite() {
            return (0..self.num_cells()).collect();
        }
        let r = radius.max(0.0);
        let clamp_x =
            |coord: f64| (((coord / self.cell_w).floor()).max(0.0) as usize).min(self.nx - 1);
        let clamp_y =
            |coord: f64| (((coord / self.cell_h).floor()).max(0.0) as usize).min(self.ny - 1);
        let x0 = clamp_x(p.x - r - self.origin.x);
        let x1 = clamp_x(p.x + r - self.origin.x);
        let y0 = clamp_y(p.y - r - self.origin.y);
        let y1 = clamp_y(p.y + r - self.origin.y);
        let mut out = Vec::with_capacity((x1 - x0 + 1) * (y1 - y0 + 1));
        for cy in y0..=y1 {
            let ry0 = self.origin.y + cy as f64 * self.cell_h;
            let dy = (ry0 - p.y).max(p.y - (ry0 + self.cell_h)).max(0.0);
            for cx in x0..=x1 {
                let rx0 = self.origin.x + cx as f64 * self.cell_w;
                let dx = (rx0 - p.x).max(p.x - (rx0 + self.cell_w)).max(0.0);
                if dx * dx + dy * dy <= r * r {
                    out.push(cy * self.nx + cx);
                }
            }
        }
        out
    }

    /// Approximate memory footprint of the index in bytes (used by the
    /// grid-granularity ablation experiment E10).
    pub fn approximate_bytes(&self) -> usize {
        let mut bytes = 0usize;
        bytes += self.cell_of_vertex.len() * std::mem::size_of::<CellId>();
        bytes += self.vertex_min.len() * 8;
        bytes += self.lb_matrix.len() * 8;
        for c in &self.cells {
            bytes += c.border_vertices.len() * 4 + c.vertices.len() * 4;
        }
        for row in &self.sorted_cells {
            bytes += row.len() * 16;
        }
        if let Some(tables) = &self.border_tables {
            for t in tables {
                bytes += t.len() * 12;
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// 6x6 lattice, 500 m spacing, unit-length edges (500 m).
    fn lattice(side: usize, spacing: f64) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..side {
            for x in 0..side {
                ids.push(b.add_vertex(x as f64 * spacing, y as f64 * spacing));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let u = ids[y * side + x];
                if x + 1 < side {
                    b.add_bidirectional_edge(u, ids[y * side + x + 1], spacing);
                }
                if y + 1 < side {
                    b.add_bidirectional_edge(u, ids[(y + 1) * side + x], spacing);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn every_vertex_is_assigned_to_exactly_one_cell() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let total: usize = grid.cells().map(|(_, c)| c.vertices.len()).sum();
        assert_eq!(total, net.num_vertices());
        for v in net.vertices() {
            let cid = grid.cell_of(v);
            assert!(grid.cell(cid).vertices.contains(&v));
        }
    }

    #[test]
    fn border_vertices_are_endpoints_of_crossing_edges() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        for e in net.edges() {
            if grid.cell_of(e.from) != grid.cell_of(e.to) {
                assert!(grid
                    .cell(grid.cell_of(e.from))
                    .border_vertices
                    .contains(&e.from));
                assert!(grid
                    .cell(grid.cell_of(e.to))
                    .border_vertices
                    .contains(&e.to));
            }
        }
    }

    #[test]
    fn single_cell_grid_has_zero_bounds() {
        let net = lattice(4, 100.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(1, 1));
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.lower_bound(VertexId(0), VertexId(15)), 0.0);
        assert_eq!(grid.cell_lower_bound(0, 0), 0.0);
    }

    #[test]
    fn lower_bound_never_exceeds_exact_distance() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let u = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let v = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let exact = crate::dijkstra::distance(&net, u, v).unwrap();
            let lb = grid.lower_bound(u, v);
            let lbw = grid.lower_bound_with(&net, u, v);
            assert!(lb <= exact + 1e-9, "grid lb {lb} > exact {exact}");
            assert!(lbw <= exact + 1e-9, "combined lb {lbw} > exact {exact}");
        }
    }

    #[test]
    fn lower_bound_to_cell_never_exceeds_distance_to_any_member() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let u = VertexId(0);
        for (cid, cell) in grid.cells() {
            let lb = grid.lower_bound_to_cell(u, cid);
            for &v in &cell.vertices {
                let exact = crate::dijkstra::distance(&net, u, v).unwrap();
                assert!(lb <= exact + 1e-9, "cell lb {lb} > exact {exact} for {v}");
            }
        }
    }

    #[test]
    fn sorted_cells_are_ascending_and_start_with_self() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        for ci in 0..grid.num_cells() {
            let row = grid.cells_by_lower_bound(ci);
            assert_eq!(row.len(), grid.num_cells());
            assert_eq!(row[0].0, ci, "self cell must come first (lb 0)");
            for pair in row.windows(2) {
                assert!(pair[0].1 <= pair[1].1);
            }
        }
    }

    #[test]
    fn border_tables_match_exact_distances() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        for v in net.vertices() {
            let table = grid.border_table(v).unwrap();
            let mut min = INFINITE_DISTANCE;
            for &(b, d) in table {
                let exact = crate::dijkstra::distance(&net, v, b).unwrap();
                assert!((d - exact).abs() < 1e-9);
                min = min.min(d);
            }
            if !table.is_empty() {
                assert!((grid.vertex_min(v) - min).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn without_border_tables_skips_tables_but_keeps_vmin() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(
            &net,
            GridConfig::with_dimensions(3, 3).without_border_tables(),
        );
        assert!(grid.border_table(VertexId(0)).is_none());
        // v.min still finite for cells that have border vertices.
        let any_finite = net.vertices().any(|v| grid.vertex_min(v).is_finite());
        assert!(any_finite);
    }

    #[test]
    fn cell_of_point_clamps_to_grid() {
        let net = lattice(4, 100.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(2, 2));
        assert_eq!(grid.cell_of_point(Point::new(-1000.0, -1000.0)), 0);
        let far = grid.cell_of_point(Point::new(1e9, 1e9));
        assert_eq!(far, grid.num_cells() - 1);
    }

    #[test]
    fn cells_within_euclidean_cover_all_near_vertices() {
        let net = lattice(6, 500.0);
        let grid = GridIndex::build(&net, GridConfig::with_dimensions(3, 3));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..100 {
            let u = VertexId(rng.gen_range(0..net.num_vertices() as u32));
            let radius = rng.gen_range(0.0..3000.0);
            let cells = grid.cells_within_euclidean(net.coord(u), radius);
            // Every vertex inside the disk lives in a returned cell.
            for v in net.vertices() {
                if net.euclidean(u, v) <= radius {
                    assert!(
                        cells.contains(&grid.cell_of(v)),
                        "vertex {v} within {radius} of {u} but its cell is missing"
                    );
                }
            }
        }
        // An infinite radius returns the whole grid.
        let all = grid.cells_within_euclidean(net.coord(VertexId(0)), f64::INFINITY);
        assert_eq!(all.len(), grid.num_cells());
        // A zero radius returns at least the point's own cell.
        let own = grid.cells_within_euclidean(net.coord(VertexId(0)), 0.0);
        assert!(own.contains(&grid.cell_of(VertexId(0))));
    }

    #[test]
    fn approximate_bytes_grows_with_grid_size() {
        let net = lattice(6, 500.0);
        let small = GridIndex::build(&net, GridConfig::with_dimensions(2, 2));
        let large = GridIndex::build(&net, GridConfig::with_dimensions(6, 6));
        assert!(large.approximate_bytes() > small.approximate_bytes());
    }
}
