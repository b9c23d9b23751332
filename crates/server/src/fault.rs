//! Runtime-armed fault injection for resilience testing.
//!
//! The serving stack claims to survive handler panics, slow queries,
//! snapshot read corruption, and failing rebuilds; this module makes those
//! claims testable. Code under test declares **fault points** — named
//! checkpoints like [`fail_point`]`("engine.rebuild")` — that are free when
//! nothing is armed (one relaxed atomic load). Tests and operators arm
//! faults at runtime with a spec string, either programmatically
//! ([`arm_spec`]) or through the `MOLQ_FAULTS` environment variable
//! ([`arm_from_env`], read by `molq serve`).
//!
//! ## Spec grammar
//!
//! Comma-separated rules, each `point=action[*count]`:
//!
//! * `service.handle=panic` — panic at the point (every time),
//! * `http.worker=panic*2` — panic the first 2 times, then disarm,
//! * `service.slow=sleep:250` — sleep 250 ms at the point,
//! * `engine.rebuild=fail:disk on fire*3` — fail with that message 3 times.
//!
//! ## Fault points
//!
//! | point                  | effect when armed                                        |
//! |------------------------|----------------------------------------------------------|
//! | `service.handle`       | fires inside the request handler (panics are caught → 500) |
//! | `service.slow`         | `sleep:MS` throttles every cancellation checkpoint of one request |
//! | `http.worker`          | fires in an event loop before each dispatch, *outside* panic isolation (kills the loop → the supervisor respawns it) |
//! | `engine.rebuild`       | fails a dataset rebuild (feeds the circuit breaker)      |
//! | `engine.snapshot_read` | makes a snapshot restore behave as corrupt (falls back to CSV rebuild) |
//! | `engine.apply_update`  | rejects a live insert/delete before it touches the journal (counted as `rejected`) |
//! | `engine.journal_append` | fails the write-ahead append of a live update (answered `507`, counted under `durability.append_failures`, `/health` degrades) |
//! | `engine.snapshot_save` | fails one snapshot save attempt (retried with backoff; exhausting the retries degrades `/health`) |
//!
//! The registry is process-global; tests that arm faults should run
//! sequentially (the chaos e2e test is a single `#[test]`) and call
//! [`disarm_all`] when done.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed fault does when its point is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the point.
    Panic,
    /// Sleep for the duration (callers may instead interpret the duration,
    /// e.g. as a per-checkpoint throttle).
    Sleep(Duration),
    /// Fail with this error message.
    Fail(String),
}

#[derive(Debug, Clone)]
struct FaultRule {
    action: FaultAction,
    /// Remaining triggers; `None` = unlimited.
    remaining: Option<u64>,
}

#[derive(Default)]
struct Registry {
    rules: HashMap<String, FaultRule>,
    /// Total triggers per point (kept after disarm, for test assertions).
    fired: HashMap<String, u64>,
}

/// Number of armed rules — the hot-path gate: when zero, [`take`] returns
/// without touching the registry lock.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// Arms faults from a spec string (see module docs for the grammar);
/// rules for the same point replace each other.
pub fn arm_spec(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for rule in spec.split(',').filter(|r| !r.trim().is_empty()) {
        let (point, action) = rule
            .split_once('=')
            .ok_or_else(|| format!("fault rule {rule:?} is not point=action"))?;
        let (action, count) = match action.rsplit_once('*') {
            Some((a, n)) => (
                a,
                Some(
                    n.parse::<u64>()
                        .map_err(|e| format!("fault rule {rule:?}: count: {e}"))?,
                ),
            ),
            None => (action, None),
        };
        let action = match action.split_once(':') {
            None if action == "panic" => FaultAction::Panic,
            Some(("sleep", ms)) => FaultAction::Sleep(Duration::from_millis(
                ms.parse()
                    .map_err(|e| format!("fault rule {rule:?}: sleep: {e}"))?,
            )),
            Some(("fail", msg)) => FaultAction::Fail(msg.to_string()),
            _ => return Err(format!("fault rule {rule:?}: unknown action")),
        };
        parsed.push((
            point.trim().to_string(),
            FaultRule {
                action,
                remaining: count,
            },
        ));
    }
    let mut reg = registry().lock().expect("fault registry poisoned");
    for (point, rule) in parsed {
        reg.rules.insert(point, rule);
    }
    ARMED.store(reg.rules.len(), Ordering::SeqCst);
    Ok(())
}

/// Arms faults from the `MOLQ_FAULTS` environment variable, if set.
/// Returns the spec that was armed, if any.
pub fn arm_from_env() -> Result<Option<String>, String> {
    match std::env::var("MOLQ_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            arm_spec(&spec)?;
            Ok(Some(spec))
        }
        _ => Ok(None),
    }
}

/// Disarms every fault (trigger counts are kept).
pub fn disarm_all() {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.rules.clear();
    ARMED.store(0, Ordering::SeqCst);
}

/// How many times a point has fired since process start.
pub fn fired(point: &str) -> u64 {
    let reg = registry().lock().expect("fault registry poisoned");
    reg.fired.get(point).copied().unwrap_or(0)
}

/// Consumes one trigger of the fault armed at `point` (if any) and returns
/// its action *without* executing it — for call sites that interpret the
/// action themselves (e.g. turning a `Sleep` into a checkpoint throttle).
pub fn take(point: &str) -> Option<FaultAction> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let mut reg = registry().lock().expect("fault registry poisoned");
    let rule = reg.rules.get_mut(point)?;
    let action = rule.action.clone();
    let exhausted = match &mut rule.remaining {
        None => false,
        Some(n) => {
            *n -= 1;
            *n == 0
        }
    };
    if exhausted {
        reg.rules.remove(point);
    }
    ARMED.store(reg.rules.len(), Ordering::SeqCst);
    *reg.fired.entry(point.to_string()).or_insert(0) += 1;
    Some(action)
}

/// Executes the fault armed at `point`, if any: panics, sleeps, or returns
/// the injected error. The no-fault fast path is one relaxed atomic load.
pub fn fail_point(point: &str) -> Result<(), String> {
    match take(point) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("fault injected: {point}"),
        Some(FaultAction::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultAction::Fail(msg)) => Err(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so this module's tests all run inside
    // one #[test] to avoid cross-test interference under the parallel runner.
    #[test]
    fn spec_parsing_arming_and_counting() {
        disarm_all();
        assert_eq!(take("t.unarmed"), None);
        assert!(fail_point("t.unarmed").is_ok());

        // Parse errors name the offending rule.
        assert!(arm_spec("nonsense").is_err());
        assert!(arm_spec("p=explode").is_err());
        assert!(arm_spec("p=sleep:abc").is_err());
        assert!(arm_spec("p=panic*x").is_err());

        // Counted rule: fires exactly twice, then disarms.
        arm_spec("t.fail=fail:boom*2").unwrap();
        assert_eq!(fail_point("t.fail"), Err("boom".to_string()));
        assert_eq!(fail_point("t.fail"), Err("boom".to_string()));
        assert!(fail_point("t.fail").is_ok());
        assert_eq!(fired("t.fail"), 2);

        // Sleep action actually sleeps.
        arm_spec("t.slow=sleep:20*1").unwrap();
        let start = std::time::Instant::now();
        assert!(fail_point("t.slow").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(15));

        // take() hands the action out without executing it (no panic here).
        arm_spec("t.boom=panic").unwrap();
        assert_eq!(take("t.boom"), Some(FaultAction::Panic));
        // Unlimited rules stay armed.
        assert_eq!(take("t.boom"), Some(FaultAction::Panic));
        disarm_all();
        assert_eq!(take("t.boom"), None);

        // Env arming: empty/missing is a no-op.
        std::env::remove_var("MOLQ_FAULTS");
        assert_eq!(arm_from_env().unwrap(), None);
    }
}
