//! The MOLQ core: the OVD/MOVD model and the paper's three query solutions.
//!
//! This crate implements the primary contribution of *"Multi-Criteria Optimal
//! Location Query with Overlapping Voronoi Diagrams"* (EDBT 2014):
//!
//! * the weighted-distance query model (Eqs. 1–4): [`weights`], [`object`],
//! * the Overlapped Voronoi Diagram model (§4): [`movd`] with the ⊕ overlap
//!   operation and its algebraic laws,
//! * the plane-sweep overlap of Algorithm 2 with the **RRB** (real-region,
//!   Algorithm 3) and **MBRB** (minimum-bounding-rectangle, Algorithm 4)
//!   event handlers: [`sweep`],
//! * the three MOLQ solutions (§3, §5): [`solutions::ssc`] (Sequential Scan
//!   Combinations, Algorithm 1) and the MOVD-based
//!   [`solutions::movd_based`] RRB/MBRB pipeline with the cost-bound
//!   optimizer of Algorithm 5,
//! * deep memory accounting for the paper's memory experiments:
//!   [`footprint`].
//!
//! # Quick start
//!
//! ```
//! use molq_core::prelude::*;
//! use molq_geom::{Mbr, Point};
//!
//! let bounds = Mbr::new(0.0, 0.0, 10.0, 10.0);
//! let schools = ObjectSet::uniform("schools", 2.0, vec![
//!     Point::new(2.0, 2.0), Point::new(8.0, 3.0),
//! ]);
//! let shops = ObjectSet::uniform("shops", 1.0, vec![
//!     Point::new(3.0, 8.0), Point::new(7.0, 7.0),
//! ]);
//! let query = MolqQuery::new(vec![schools, shops], bounds);
//! let answer = solve_rrb(&query).unwrap();
//! assert!(bounds.contains(answer.location));
//! ```

pub mod arena;
pub mod build;
pub mod cancel;
pub mod error;
pub mod exec;
pub mod footprint;
pub mod incr;
pub mod locate_grid;
pub mod movd;
pub mod movd_index;
pub mod object;
pub mod region;
pub mod solutions;
pub mod sweep;
pub mod weights;

/// Convenient re-exports of the public API.
pub mod prelude {
    pub use crate::arena::{ArenaBufferBytes, FwLanes, MovdArena, PatchEntry};
    pub use crate::build::{build_movd, BuildMeta, BuildMode, BuildPlan};
    pub use crate::cancel::CancelToken;
    pub use crate::error::MolqError;
    pub use crate::exec::{ExecConfig, GroupScan, ScanOutput, SharedBound};
    pub use crate::footprint::Footprint;
    pub use crate::incr::{movd_bits_eq, region_bits_eq, LiveMovd, PatchStats, Update};
    pub use crate::locate_grid::LocateGrid;
    pub use crate::movd::{Movd, Ovr};
    pub use crate::movd_index::MovdIndex;
    pub use crate::object::{MolqQuery, ObjectRef, ObjectSet, SpatialObject};
    pub use crate::region::{Boundary, Region};
    pub use crate::solutions::movd_based::{
        solve_arena_cancellable_with, solve_mbrb, solve_movd, solve_movd_with, solve_rrb,
        solve_weighted_rrb, solve_weighted_rrb_cancellable, solve_weighted_rrb_with, MovdAnswer,
    };
    pub use crate::solutions::pruned::{solve_pruned, PrunedAnswer};
    pub use crate::solutions::ssc::{solve_ssc, solve_ssc_with};
    pub use crate::solutions::tiled::{solve_tiled, TiledAnswer};
    pub use crate::solutions::topk::{
        solve_topk, solve_topk_arena_cancellable_with, solve_topk_with, Candidate, TopKAnswer,
    };
    pub use crate::weights::{mwgd, wd, wgd, WeightFunction};
}

pub use prelude::*;
