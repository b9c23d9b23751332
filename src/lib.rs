//! # molq — Multi-Criteria Optimal Location Queries
//!
//! A from-scratch Rust reproduction of *"Multi-Criteria Optimal Location
//! Query with Overlapping Voronoi Diagrams"* (Zhang, Ku, Qin, Sun, Lu —
//! EDBT 2014).
//!
//! Given several sets of typed points of interest (schools, bus stops,
//! supermarkets, …), each with a type weight and per-object weights, a MOLQ
//! finds the location minimising the summed weighted distance to one nearest
//! object of every type — the "best place to build a new home" query of the
//! paper's introduction.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`geom`] — geometry substrate (robust predicates, polygon clipping,
//!   MBRs),
//! * [`index`] — the kd-tree nearest-neighbour index,
//! * [`voronoi`] — Delaunay triangulation, ordinary and weighted Voronoi
//!   diagrams,
//! * [`fw`] — Fermat–Weber solvers (exact cases, Weiszfeld/Vardi–Zhang,
//!   cost-bound batches),
//! * [`core`] — the OVD/MOVD model, the ⊕ plane-sweep overlap, and the SSC /
//!   RRB / MBRB solutions,
//! * [`datagen`] — synthetic GeoNames-like workloads and CSV I/O.
//!
//! # Example
//!
//! ```
//! use molq::prelude::*;
//! use molq::geom::{Mbr, Point};
//!
//! let bounds = Mbr::new(0.0, 0.0, 10.0, 10.0);
//! let schools = ObjectSet::uniform("schools", 2.0,
//!     vec![Point::new(2.0, 2.0), Point::new(8.0, 3.0)]);
//! let markets = ObjectSet::uniform("markets", 1.0,
//!     vec![Point::new(3.0, 8.0), Point::new(7.0, 7.0)]);
//!
//! let query = MolqQuery::new(vec![schools, markets], bounds);
//! let answer = solve_rrb(&query).expect("valid query");
//! println!("build at {} (total weighted distance {:.2})",
//!          answer.location, answer.cost);
//! ```

pub use molq_core as core;
pub use molq_datagen as datagen;
pub use molq_fw as fw;
pub use molq_geom as geom;
pub use molq_index as index;
pub use molq_viz as viz;
pub use molq_voronoi as voronoi;

/// One-stop imports for query building and solving.
pub mod prelude {
    pub use molq_core::prelude::*;
    pub use molq_datagen::{standard_query, GeoLayer};
    pub use molq_fw::StoppingRule;
}
