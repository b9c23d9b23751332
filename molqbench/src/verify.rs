//! Answer checks: every served answer the bench verifies is compared
//! against an in-process build over the same CSVs.
//!
//! * `/solve` and `/topk` must be **bit-identical** to `build_movd` +
//!   `solve_arena_cancellable_with` / `solve_topk_arena_cancellable_with`
//!   (the server's own path, run in the bench process), and the solve must
//!   satisfy `mwgd(location) ≤ cost` (up to 1e-12 relative: the solver and
//!   `mwgd` sum the same terms in different orders).
//! * `/locate` answers must cost `mwgd(evaluated_at)`, computed by linear
//!   scan over every object (equal up to 1e-9 relative: at a cell boundary
//!   two objects tie and either may be reported).

use molq_core::prelude::*;
use molq_fw::StoppingRule;
use molq_geom::{Mbr, Point};
use molq_server::Json;

/// `k` of every `/topk` the workloads send.
pub const TOPK: usize = 5;

/// The serving query the server builds for a dataset: explicit bounds and
/// the default Fermat–Weber stopping rule of `molq serve` (ε = 1e-3).
pub fn serving_query(sets: Vec<ObjectSet>, bounds: Mbr) -> MolqQuery {
    MolqQuery::new(sets, bounds).with_rule(StoppingRule::Either(1e-3, 100_000))
}

/// The in-process answers a workload's responses are checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The query (object sets, bounds, stopping rule).
    pub query: MolqQuery,
    /// OVRs of the built diagram (the serve banner must agree).
    pub ovrs: usize,
    /// The optimal location.
    pub solve: MovdAnswer,
    /// The `TOPK` best candidates.
    pub topk: TopKAnswer,
}

impl Reference {
    /// Builds the diagram the way the server does and solves it.
    pub fn build(
        sets: Vec<ObjectSet>,
        bounds: Mbr,
        mode: BuildMode,
        exec: ExecConfig,
    ) -> Result<Reference, String> {
        let query = serving_query(sets, bounds);
        let (movd, meta) = build_movd(
            &query.sets,
            bounds,
            Boundary::Rrb,
            &BuildPlan::for_mode(mode),
            exec,
        )
        .map_err(|e| format!("reference build: {e}"))?;
        let ovrs = movd.len();
        let arena = MovdArena::from_movd(&movd);
        drop(movd);
        let lanes = FwLanes::from_arena(&query, &arena);
        let never = CancelToken::never();
        let factor = meta.certified_factor();
        let solve = solve_arena_cancellable_with(&query, &arena, &lanes, &never, exec)
            .map_err(|e| format!("reference solve: {e}"))?
            .with_certified_factor(factor);
        let topk = solve_topk_arena_cancellable_with(&query, &arena, &lanes, TOPK, &never, exec)
            .map_err(|e| format!("reference top-k: {e}"))?
            .with_certified_factor(factor);
        bounded_below(solve.location, solve.cost, &query)
            .map_err(|e| format!("reference solve: {e}"))?;
        Ok(Reference {
            query,
            ovrs,
            solve,
            topk,
        })
    }

    /// Perturbs the reference by one ulp so every check against it fails
    /// (exercises the failure path end to end).
    pub fn tamper(&mut self) {
        self.solve.cost = f64::from_bits(self.solve.cost.to_bits() + 1);
        if let Some(c) = self.topk.candidates.first_mut() {
            c.cost = f64::from_bits(c.cost.to_bits() + 1);
        }
    }
}

/// Bit equality, except that the JSON encoding cannot carry the sign of a
/// zero.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

fn num(body: &Json, path: &[&str]) -> Result<f64, String> {
    let mut v = body;
    for key in path {
        v = v
            .get(key)
            .ok_or_else(|| format!("response lacks {}", path.join(".")))?;
    }
    v.as_f64()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

fn expect_bits(body: &Json, path: &[&str], want: f64) -> Result<(), String> {
    let got = num(body, path)?;
    if same_bits(got, want) {
        Ok(())
    } else {
        Err(format!("{} = {got:e}, reference {want:e}", path.join(".")))
    }
}

/// Checks a `/solve` body against the reference.
pub fn check_solve(body: &Json, r: &MovdAnswer, query: &MolqQuery) -> Result<(), String> {
    expect_bits(body, &["location", "x"], r.location.x)?;
    expect_bits(body, &["location", "y"], r.location.y)?;
    expect_bits(body, &["cost"], r.cost)?;
    expect_bits(body, &["certified_factor"], r.certified_factor)?;
    expect_bits(body, &["cost_lower_bound"], r.cost_lower_bound())?;
    expect_bits(body, &["ovr_count"], r.ovr_count as f64)?;
    let at = Point::new(
        num(body, &["location", "x"])?,
        num(body, &["location", "y"])?,
    );
    bounded_below(at, num(body, &["cost"])?, query)
}

/// `mwgd(at) ≤ cost`: no group costs less than the minimum weighted group
/// distance at the answer's location.
fn bounded_below(at: Point, cost: f64, query: &MolqQuery) -> Result<(), String> {
    let floor = mwgd(at, query);
    if floor <= cost * (1.0 + 1e-12) {
        Ok(())
    } else {
        Err(format!("mwgd(location) = {floor} exceeds the cost {cost}"))
    }
}

/// Checks a `/topk` body against the reference.
pub fn check_topk(body: &Json, r: &TopKAnswer) -> Result<(), String> {
    expect_bits(body, &["k"], TOPK as f64)?;
    expect_bits(body, &["certified_factor"], r.certified_factor)?;
    let got = body
        .get("candidates")
        .and_then(Json::as_arr)
        .ok_or("response lacks candidates")?;
    if got.len() != r.candidates.len() {
        return Err(format!(
            "{} candidates, reference {}",
            got.len(),
            r.candidates.len()
        ));
    }
    for (g, want) in got.iter().zip(&r.candidates) {
        expect_bits(g, &["x"], want.location.x)?;
        expect_bits(g, &["y"], want.location.y)?;
        expect_bits(g, &["cost"], want.cost)?;
    }
    Ok(())
}

/// Checks a `/locate` body: its cost is the minimum weighted group distance
/// at the point it evaluated.
pub fn check_locate(body: &Json, query: &MolqQuery, offset: f64) -> Result<(), String> {
    let at = Point::new(
        num(body, &["evaluated_at", "x"])?,
        num(body, &["evaluated_at", "y"])?,
    );
    let cost = num(body, &["cost"])?;
    let want = mwgd(at, query) + offset;
    if (cost - want).abs() <= 1e-9 * want.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "locate at ({}, {}): cost {cost}, mwgd {want}",
            at.x, at.y
        ))
    }
}

/// The `generation` a response carries.
pub fn generation(body: &Json) -> Result<u64, String> {
    body.get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| "response lacks a generation".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<ObjectSet>, Mbr) {
        let b = Mbr::new(0.0, 0.0, 100.0, 100.0);
        let a = ObjectSet::uniform(
            "a",
            1.0,
            vec![Point::new(10.0, 10.0), Point::new(80.0, 30.0)],
        );
        let c = ObjectSet::uniform(
            "c",
            2.0,
            vec![Point::new(30.0, 70.0), Point::new(60.0, 90.0)],
        );
        (vec![a, c], b)
    }

    fn solve_body(a: &MovdAnswer) -> Json {
        Json::obj()
            .set(
                "location",
                Json::obj().set("x", a.location.x).set("y", a.location.y),
            )
            .set("cost", a.cost)
            .set("certified_factor", a.certified_factor)
            .set("cost_lower_bound", a.cost_lower_bound())
            .set("ovr_count", a.ovr_count)
    }

    #[test]
    fn reference_answers_round_trip_through_json() {
        let (sets, b) = tiny();
        let mut r = Reference::build(sets, b, BuildMode::Exact, ExecConfig::serial()).unwrap();
        let wire = Json::parse(&solve_body(&r.solve).encode()).unwrap();
        check_solve(&wire, &r.solve, &r.query).unwrap();
        let topk = Json::obj().set("k", TOPK).set("certified_factor", 1.0).set(
            "candidates",
            r.topk
                .candidates
                .iter()
                .map(|c| {
                    Json::obj()
                        .set("x", c.location.x)
                        .set("y", c.location.y)
                        .set("cost", c.cost)
                })
                .collect::<Vec<_>>(),
        );
        let wire_topk = Json::parse(&topk.encode()).unwrap();
        check_topk(&wire_topk, &r.topk).unwrap();
        // One ulp off is a wrong answer.
        r.tamper();
        assert!(check_solve(&wire, &r.solve, &r.query).is_err());
        assert!(check_topk(&wire_topk, &r.topk).is_err());
    }

    #[test]
    fn locate_cost_must_be_the_minimum() {
        let (sets, b) = tiny();
        let q = serving_query(sets, b);
        let at = Point::new(20.0, 20.0);
        let good = Json::obj()
            .set("evaluated_at", Json::obj().set("x", at.x).set("y", at.y))
            .set("cost", mwgd(at, &q));
        check_locate(&good, &q, 0.0).unwrap();
        assert!(check_locate(&good, &q, 1.0).is_err());
        assert_eq!(generation(&Json::obj().set("generation", 3u64)).unwrap(), 3);
    }
}
