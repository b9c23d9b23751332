//! Voronoi substrate for the MOLQ reproduction.
//!
//! The paper's *VD Generator* (framework step 1) produces one Voronoi diagram
//! per POI type, which the MOVD Overlapper then combines. This crate builds
//! those diagrams from scratch:
//!
//! * [`ordinary::OrdinaryVoronoi`] — exact ordinary Voronoi
//!   cells clipped to a rectangular search space. Cells are constructed per
//!   site by clipping the search rectangle with perpendicular-bisector
//!   half-planes, then *vertex-certified*: every cell vertex is checked
//!   against its nearest site and the cell is re-clipped until all vertices
//!   are owned by the cell's site — a dominating half-plane intersecting a
//!   convex polygon must contain one of its vertices, so termination proves
//!   exactness. No global topological structure that could corrupt on
//!   degenerate input.
//! * [`delaunay::Delaunay`] — an incremental Bowyer–Watson Delaunay
//!   triangulation with robust predicates and walk point-location, kept as
//!   the verification oracle whose dual adjacency the cell construction is
//!   cross-checked against in tests.
//! * [`weighted::WeightedVoronoi`] — multiplicatively and
//!   additively weighted diagrams (Fig 5 of the paper): exact dominance
//!   predicates, analytic superset MBRs of dominance regions (Apollonius
//!   disks) for the MBRB path, and sampled region membership. Real boundary
//!   polygons of weighted regions are *not* maintained — the paper itself
//!   notes this is "extremely difficult" and uses it to motivate MBRB.
//! * [`approx::ApproxDiagram`] — quadtree-refinement `(1+ε)`-approximate
//!   weighted diagrams with certified dominance, plus
//!   [`approx::refine_multi`], the joint multi-layer refiner behind the
//!   approximate MOVD build mode.
//! * [`builder::DiagramBuilder`] — the mode-aware seam through which the
//!   MOVD pipeline constructs layer regions: exact clipping and quadtree
//!   approximation are interchangeable strategies.

pub mod approx;
pub mod builder;
pub mod contour;
pub mod delaunay;
pub mod incremental;
pub mod ordinary;
pub mod weighted;

pub use approx::{refine_multi, ApproxConfig, ApproxDiagram, ApproxLayer, ApproxStats};
pub use builder::{BuildStrategy, DiagramBuilder, LayerRegions};
pub use contour::region_polygons;

pub use delaunay::Delaunay;
pub use incremental::IncrementalVoronoi;
pub use ordinary::{OrdinaryVoronoi, VoronoiError};
pub use weighted::{WeightScheme, WeightedSite, WeightedVoronoi};
