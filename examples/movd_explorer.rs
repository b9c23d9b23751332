//! MOVD as a reusable data product: build it once, then answer "which
//! objects serve this location?" probes via the grid point-location index,
//! and render the diagram plus the optimal location to an SVG file.
//!
//! Run with: `cargo run --release --example movd_explorer`
//! (writes `movd_explorer.svg` into the working directory)

use molq::core::movd_index::MovdIndex;
use molq::core::sweep::overlap_general;
use molq::core::Region;
use molq::geom::Mbr;
use molq::prelude::*;

fn main() {
    let bounds = Mbr::new(0.0, 0.0, 1_000.0, 1_000.0);
    let query = standard_query(3, 25, bounds, 7);

    // Build the MOVD once (the overlapper is the expensive step)…
    let movd = Movd::overlap_all(&query.sets, bounds, Boundary::Rrb).expect("distinct sites");
    println!(
        "MOVD over {} types: {} OVRs covering {:.0} of {:.0} area units",
        query.sets.len(),
        movd.len(),
        movd.total_area(),
        bounds.area()
    );

    // …then reuse it: lower it into the serving index once,
    let index = MovdIndex::build(movd.clone());
    // the answer via the optimizer over the prebuilt diagram (the same
    // answer a one-shot solve gives, bit for bit),
    let lanes = FwLanes::from_arena(&query, index.arena());
    let never = CancelToken::never();
    let answer =
        solve_arena_cancellable_with(&query, index.arena(), &lanes, &never, ExecConfig::default())
            .expect("valid query");
    let one_shot = solve_rrb(&query).expect("valid query");
    assert_eq!(answer.cost.to_bits(), one_shot.cost.to_bits());
    println!(
        "optimal location ({:.1}, {:.1}) with cost {:.1}",
        answer.location.x, answer.location.y, answer.cost
    );

    // …and location probes via the index (Property 5: the OVR's objects are
    // the weighted-nearest of every type for all locations inside it).
    for probe in [
        molq::geom::Point::new(100.0, 100.0),
        molq::geom::Point::new(500.0, 500.0),
        answer.location,
    ] {
        let id = index.locate_id(probe).expect("RRB MOVDs cover the space");
        let names: Vec<String> = index
            .group(id)
            .iter()
            .map(|r| format!("{}#{}", query.sets[r.set].name, r.index))
            .collect();
        println!(
            "at ({:>6.1}, {:>6.1}) the serving group is {}",
            probe.x,
            probe.y,
            names.join(", ")
        );
    }

    // The general (payload-free) overlap API from §5.2 of the paper.
    let quadrants = overlap_general(
        bounds,
        vec![
            Region::Rect(Mbr::new(0.0, 0.0, 500.0, 1_000.0)),
            Region::Rect(Mbr::new(500.0, 0.0, 1_000.0, 1_000.0)),
        ],
        vec![
            Region::Rect(Mbr::new(0.0, 0.0, 1_000.0, 500.0)),
            Region::Rect(Mbr::new(0.0, 500.0, 1_000.0, 1_000.0)),
        ],
        Boundary::Rrb,
    );
    println!("general overlap demo: {} quadrant regions", quadrants.len());

    // Planning rarely wants one coordinate: the top-5 distinct candidates.
    let topk = molq::core::solve_topk(&query, Boundary::Rrb, 5).expect("valid query");
    println!("\ntop-{} candidate locations:", topk.candidates.len());
    for (rank, c) in topk.candidates.iter().enumerate() {
        println!(
            "  #{} ({:>6.1}, {:>6.1}) cost {:.1}",
            rank + 1,
            c.location.x,
            c.location.y,
            c.cost
        );
    }

    // Render the diagram with POIs and the answer star.
    let pois: Vec<(molq::geom::Point, usize)> = query
        .sets
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.objects.iter().map(move |o| (o.loc, si)))
        .collect();
    let svg = molq::viz::render_answer(&movd, &pois, answer.location, 800);
    std::fs::write("movd_explorer.svg", &svg).expect("write svg");
    println!("wrote movd_explorer.svg ({} bytes)", svg.len());
}
