//! Pins the shape of `/stats` and `/health`: every JSON key path, in
//! order, with its value type, on a service that has served each route
//! once. Dashboards, the load generator and the benchmark harness read
//! these keys by name, so a rename, a move or a type change must show up
//! here as a diff against `stats_shape.txt`.

use molq_core::prelude::*;
use molq_geom::{Mbr, Point};
use molq_server::engine::{DatasetSpec, Engine};
use molq_server::service::{Request, Service};
use molq_server::Json;

fn pseudo_set(name: &str, n: usize, seed: u64) -> ObjectSet {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / u32::MAX as f64
    };
    ObjectSet::uniform(
        name,
        1.0,
        (0..n)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect(),
    )
}

fn post(path: &str, params: &[(&str, &str)]) -> Request {
    Request {
        method: "POST".into(),
        ..Request::get(path, params)
    }
}

/// Appends `prefix: type` for `value` and every value below it. Array
/// elements share the path `prefix[]`; repeats keep their first position.
fn shape(prefix: &str, value: &Json, out: &mut Vec<String>) {
    let kind = match value {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    let line = format!("{prefix}: {kind}");
    if !out.contains(&line) {
        out.push(line);
    }
    match value {
        Json::Arr(items) => {
            for item in items {
                shape(&format!("{prefix}[]"), item, out);
            }
        }
        Json::Obj(pairs) => {
            for (key, item) in pairs {
                shape(&format!("{prefix}.{key}"), item, out);
            }
        }
        _ => {}
    }
}

#[test]
fn stats_and_health_keep_their_shape() {
    let engine = Engine::new();
    let spec = DatasetSpec {
        bounds: Some(Mbr::new(0.0, 0.0, 100.0, 100.0)),
        ..DatasetSpec::new("default", Vec::new())
    };
    let sets = vec![
        pseudo_set("a", 12, 1),
        pseudo_set("b", 10, 2),
        pseudo_set("c", 8, 3),
    ];
    engine.load_from_sets(spec, sets).unwrap();
    let svc = Service::new(engine);

    // Each route once, every one answered successfully except the unrouted
    // path.
    for req in [
        Request::get("/locate", &[("x", "40"), ("y", "60")]),
        Request::get("/solve", &[]),
        post("/solve_batch", &[("n", "2")]),
        Request::get("/topk", &[("k", "3")]),
        post("/topk_batch", &[("n", "2")]),
        Request::get("/health", &[]),
        Request::get("/stats", &[]),
        post("/reload", &[("wait", "1")]),
        post(
            "/datasets/default/objects",
            &[("set", "a"), ("x", "12.5"), ("y", "87.5")],
        ),
    ] {
        let resp = svc.handle(&req);
        assert!(!resp.is_error(), "{} answered {}", req.path, resp.status);
    }
    assert_eq!(svc.handle(&Request::get("/no_such_route", &[])).status, 404);

    let mut lines = Vec::new();
    shape(
        "stats",
        &svc.handle(&Request::get("/stats", &[])).body,
        &mut lines,
    );
    shape(
        "health",
        &svc.handle(&Request::get("/health", &[])).body,
        &mut lines,
    );
    let got = lines.join("\n") + "\n";
    let want = include_str!("stats_shape.txt");
    assert!(
        got == want,
        "/stats or /health changed shape.\n--- want\n{want}--- got\n{got}"
    );
}
