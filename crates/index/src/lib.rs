//! Spatial indexes supporting the MOLQ pipeline.
//!
//! * [`kdtree::KdTree`] — static 2-d tree for exact nearest-neighbour
//!   queries (cell ownership in the Voronoi builders, ground truth in tests,
//!   closest-object lookups in examples).
//!
//! Point location over a built MOVD is `molq_core::locate_grid::LocateGrid`,
//! a flat grid the snapshot store persists with the diagram.

pub mod kdtree;

pub use kdtree::KdTree;
