//! Road network substrate for PTRider (VLDB 2018).
//!
//! This crate models the road network `G = (V, E, W)` of Section 2.1 of the
//! paper, provides exact shortest-path engines (Dijkstra, bidirectional
//! Dijkstra, resumable one-to-many Dijkstra and landmark A*), the grid
//! partition index of Section 3.2.1 (border vertices, per-vertex
//! border-distance tables, the cell-pair lower-bound matrix and per-cell
//! neighbour lists sorted by lower bound), and a memoising [`DistanceOracle`] that serves exact distances
//! and cheap lower bounds to the matching algorithms in `ptrider-core`.
//!
//! The metric is **live**: [`traffic`] overlays epoch-versioned
//! multiplicative edge factors (≥ 1.0 over free flow, so every lower bound
//! stays admissible by construction), [`DistanceOracle::apply_traffic`]
//! swaps the metric and lazily invalidates the epoch-stamped cache.
//!
//! Distances are expressed in metres and converted to travel time with a
//! constant speed (the paper assumes 48 km/h); see [`Speed`].
//!
//! # Quick example
//!
//! ```
//! use ptrider_roadnet::{RoadNetworkBuilder, dijkstra, GridIndex, GridConfig};
//!
//! let mut b = RoadNetworkBuilder::new();
//! let a = b.add_vertex(0.0, 0.0);
//! let c = b.add_vertex(1000.0, 0.0);
//! let d = b.add_vertex(1000.0, 1000.0);
//! b.add_bidirectional_edge(a, c, 1000.0);
//! b.add_bidirectional_edge(c, d, 1000.0);
//! let net = b.build().unwrap();
//!
//! assert_eq!(dijkstra::distance(&net, a, d), Some(2000.0));
//!
//! let grid = GridIndex::build(&net, GridConfig::with_dimensions(2, 2));
//! assert!(grid.lower_bound(a, d) <= 2000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod dijkstra;
pub mod error;
pub mod fault;
pub mod graph;
pub mod grid;
pub mod landmarks;
pub mod oracle;
pub mod scratch;
pub mod traffic;
pub mod types;

pub use error::RoadNetError;
pub use graph::{Edge, RoadNetwork, RoadNetworkBuilder};
pub use grid::{CellId, GridCell, GridConfig, GridIndex};
pub use landmarks::LandmarkIndex;
pub use oracle::{
    num_cache_shards, DistanceBackend, DistanceOracle, OneToMany, TrafficApplied,
    DEFAULT_CACHE_CAPACITY, LOWER_BOUND_HAIRCUT,
};
pub use traffic::{TrafficEdge, TrafficModel};
pub use types::{Point, Speed, VertexId, INFINITE_DISTANCE};
