//! Deterministic fault injection at named sites ("failpoints").
//!
//! A failpoint is a named hook compiled into the hot path that normally
//! does nothing beyond a single relaxed atomic load. When a test or the
//! chaos harness arms the registry, a site can deterministically
//!
//! * **panic** with a chosen message (exercising containment layers),
//! * **sleep** for a chosen duration (exercising watchdogs), or
//! * **return an error string** that the call site maps onto its own
//!   typed error (exercising typed-rejection paths such as forced
//!   `KvCapacity`).
//!
//! Determinism comes from per-site counters: an action can be configured
//! to skip the first `skip` hits and then fire for exactly `times` hits,
//! so a schedule like "the third step panics, once" is expressible without
//! any randomness.
//!
//! # Zero cost when disabled
//!
//! [`fire`] first checks a global `AtomicBool` with a relaxed load and
//! returns immediately when no failpoint is configured anywhere in the
//! process. Sites are placed at step/kernel-launch granularity (not inner
//! loops), so the disabled cost is one predictable branch per step.
//!
//! # Configuration
//!
//! Programmatic: [`configure`] / [`clear`]. Environment: the first call to
//! [`fire`] parses `VQLLM_FAILPOINTS` (a `;`-separated list of
//! `site=action` clauses) once. The action grammar is
//!
//! ```text
//! action   := kind [ '(' arg ')' ] [ '*' times ] [ '+' skip ]
//! kind     := "panic" | "delay" | "error" | "off"
//! ```
//!
//! e.g. `VQLLM_FAILPOINTS="llm.step.group=panic(boom)*1+2"` makes the
//! third hit of `llm.step.group` panic with message `boom`, exactly once.
//!
//! Failpoints are process-global: tests that arm them must serialize (the
//! repo's chaos tests share one mutex) and [`clear`] on exit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Central registry of every failpoint site compiled into the workspace,
/// as `(site, where the fault is injected)` pairs.
///
/// This is the source of truth `vqllm-lint` checks call sites and the
/// README table against (`--fix-docs` regenerates the latter): firing an
/// unregistered site, or registering a site nothing fires, is a lint
/// error. Keep entries in namespace order.
pub const SITES: &[(&str, &str)] = &[
    (
        "llm.step",
        "start of every `Engine::step`, before any group is formed",
    ),
    (
        "llm.step.group",
        "inside one batch group's decode, under the per-group `catch_unwind`",
    ),
    (
        "llm.step.append",
        "the KV append of one decoded row; maps onto a typed `KvCapacity` rejection",
    ),
    (
        "net.driver.step",
        "the driver thread's step loop, outside the engine; escalates to the supervisor",
    ),
    (
        "pool.scope",
        "entry of every `WorkerPool` scope, before jobs are queued; surfaces as `KernelError::Panicked`",
    ),
    (
        "host.gemv_lut_batch",
        "score pass entry: `gemv_lut_batch`, and `gemv_lut`, its one-lane case",
    ),
    (
        "host.gemv_xw",
        "`gemv_xw` entry: the aggregation GeMV (`Backend::run_gemv`)",
    ),
    (
        "host.gemm_fused",
        "`gemm_fused` entry: the linear layer (`Backend::run_gemm`), value pass and panel body alike",
    ),
    (
        "host.attention_ragged",
        "`attention_decode` entry: every attention shape (head, batch, ragged, tailed)",
    ),
];

/// What a fired failpoint does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Panic with this message.
    Panic(String),
    /// Sleep for this many milliseconds, then continue normally.
    DelayMs(u64),
    /// Return this detail string to the call site, which maps it onto its
    /// own typed error.
    Error(String),
}

#[derive(Debug)]
struct Site {
    action: Action,
    /// Hits to ignore before the action starts firing.
    skip: u64,
    /// Hits the action fires for once past `skip`; `None` = forever.
    times: Option<u64>,
    /// Total hits observed so far.
    hits: u64,
}

impl Site {
    /// Advances the hit counter and reports whether this hit fires.
    fn check(&mut self) -> bool {
        let hit = self.hits;
        self.hits += 1;
        if hit < self.skip {
            return false;
        }
        match self.times {
            Some(times) => hit - self.skip < times,
            None => true,
        }
    }
}

struct Registry {
    sites: Mutex<HashMap<String, Site>>,
    /// Fast-path gate: true iff any site is configured.
    armed: AtomicBool,
    /// One-shot `VQLLM_FAILPOINTS` bootstrap.
    env: OnceLock<()>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        sites: Mutex::new(HashMap::new()),
        armed: AtomicBool::new(false),
        env: OnceLock::new(),
    })
}

/// The sites map is only mutated in whole-entry inserts/removes and the
/// panic action fires after the guard is released, so a poisoned mutex
/// (some unrelated panic mid-critical-section) cannot hold torn state:
/// recover instead of cascading the panic into every later `fire`.
fn lock_sites(reg: &Registry) -> std::sync::MutexGuard<'_, HashMap<String, Site>> {
    reg.sites.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms `site` with `action`, skipping the first `skip` hits and firing
/// for `times` hits after that (`None` = every hit). Replaces any prior
/// configuration for the site, resetting its hit counter.
pub fn configure(site: &str, action: Action, skip: u64, times: Option<u64>) {
    let reg = registry();
    let mut sites = lock_sites(reg);
    sites.insert(
        site.to_string(),
        Site {
            action,
            skip,
            times,
            hits: 0,
        },
    );
    reg.armed.store(true, Ordering::Release);
}

/// Removes every configured failpoint and disarms the fast path.
pub fn clear() {
    let reg = registry();
    let mut sites = lock_sites(reg);
    sites.clear();
    reg.armed.store(false, Ordering::Release);
}

/// Parses a `VQLLM_FAILPOINTS`-style spec (`site=action;site=action`).
/// Returns the number of sites configured.
///
/// # Errors
///
/// Returns a description of the first malformed clause; earlier clauses
/// in the spec are already applied.
pub fn configure_from_spec(spec: &str) -> Result<usize, String> {
    let mut n = 0;
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, action) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause missing '=': {clause:?}"))?;
        let (action, skip, times) = parse_action(action.trim())?;
        match action {
            Some(action) => configure(site.trim(), action, skip, times),
            None => {
                let reg = registry();
                let mut sites = lock_sites(reg);
                sites.remove(site.trim());
                if sites.is_empty() {
                    reg.armed.store(false, Ordering::Release);
                }
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Parses `kind[(arg)][*times][+skip]`; `Ok(None, ..)` means `off`.
#[allow(clippy::type_complexity)]
fn parse_action(s: &str) -> Result<(Option<Action>, u64, Option<u64>), String> {
    let mut rest = s;
    let mut skip = 0u64;
    let mut times = None;
    if let Some((head, tail)) = rest.rsplit_once('+') {
        if !head.ends_with(')') || !tail.contains('(') {
            skip = tail
                .parse()
                .map_err(|e| format!("bad skip in {s:?}: {e}"))?;
            rest = head;
        }
    }
    if let Some((head, tail)) = rest.rsplit_once('*') {
        if !head.ends_with(')') || !tail.contains('(') {
            times = Some(
                tail.parse()
                    .map_err(|e| format!("bad times in {s:?}: {e}"))?,
            );
            rest = head;
        }
    }
    let (kind, arg) = match rest.split_once('(') {
        Some((kind, arg)) => {
            let arg = arg
                .strip_suffix(')')
                .ok_or_else(|| format!("unterminated '(' in {s:?}"))?;
            (kind, Some(arg))
        }
        None => (rest, None),
    };
    let action = match kind {
        "panic" => Some(Action::Panic(arg.unwrap_or("failpoint panic").to_string())),
        "delay" => {
            let ms = arg
                .ok_or_else(|| format!("delay needs (ms) in {s:?}"))?
                .parse()
                .map_err(|e| format!("bad delay ms in {s:?}: {e}"))?;
            Some(Action::DelayMs(ms))
        }
        "error" => Some(Action::Error(arg.unwrap_or("failpoint error").to_string())),
        "off" => None,
        other => return Err(format!("unknown failpoint kind {other:?} in {s:?}")),
    };
    Ok((action, skip, times))
}

/// Evaluates the failpoint at `site`.
///
/// Disabled (the common case): a single relaxed atomic load, then return
/// `None`. When the site is armed and this hit fires:
///
/// * [`Action::Panic`] panics here with the configured message;
/// * [`Action::DelayMs`] sleeps, then returns `None` (the call site
///   proceeds normally, just late);
/// * [`Action::Error`] returns `Some(detail)` for the call site to map
///   onto its own typed error.
pub fn fire(site: &str) -> Option<String> {
    let reg = registry();
    // One-shot env bootstrap has to happen even while disarmed, but only
    // costs a OnceLock check after the first call.
    reg.env.get_or_init(|| {
        if let Ok(spec) = std::env::var("VQLLM_FAILPOINTS") {
            if let Err(e) = configure_from_spec(&spec) {
                eprintln!("VQLLM_FAILPOINTS ignored clause: {e}");
            }
        }
    });
    if !reg.armed.load(Ordering::Relaxed) {
        return None;
    }
    let action = {
        let mut sites = lock_sites(reg);
        let s = sites.get_mut(site)?;
        if !s.check() {
            return None;
        }
        s.action.clone()
    };
    match action {
        Action::Panic(msg) => panic!("failpoint {site}: {msg}"),
        Action::DelayMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Error(detail) => Some(detail),
    }
}

/// True iff any failpoint is currently configured (test/bench helper).
pub fn armed() -> bool {
    registry().armed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Failpoints are process-global; serialize the tests that arm them.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let gate = GATE.get_or_init(|| Mutex::new(()));
        gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn site_registry_is_well_formed() {
        for (i, (site, desc)) in SITES.iter().enumerate() {
            assert!(!desc.trim().is_empty(), "site {site} has no description");
            assert!(
                SITES[..i].iter().all(|(s, _)| s != site),
                "duplicate site {site}"
            );
        }
    }

    #[test]
    fn disabled_fire_is_none() {
        let _g = lock();
        clear();
        assert!(!armed());
        assert_eq!(fire("nowhere"), None);
    }

    #[test]
    fn error_action_fires_deterministically() {
        let _g = lock();
        clear();
        configure("t.site", Action::Error("boom".into()), 1, Some(2));
        assert_eq!(fire("t.site"), None, "skip=1 ignores the first hit");
        assert_eq!(fire("t.site"), Some("boom".into()));
        assert_eq!(fire("t.site"), Some("boom".into()));
        assert_eq!(fire("t.site"), None, "times=2 exhausted");
        clear();
    }

    #[test]
    fn panic_action_panics_with_site_and_message() {
        let _g = lock();
        clear();
        configure("t.panic", Action::Panic("kaboom".into()), 0, Some(1));
        let err = std::panic::catch_unwind(|| fire("t.panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t.panic") && msg.contains("kaboom"), "{msg}");
        assert_eq!(fire("t.panic"), None, "one-shot");
        clear();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _g = lock();
        clear();
        let n = configure_from_spec("a=panic(x)*1+2; b=delay(5); c=error(full)*3; a=off").unwrap();
        assert_eq!(n, 4);
        {
            let sites = registry().sites.lock().unwrap();
            assert!(!sites.contains_key("a"), "off removes the site");
            assert_eq!(
                sites.get("b").map(|s| s.action.clone()),
                Some(Action::DelayMs(5))
            );
            assert_eq!(
                sites.get("c").map(|s| (s.action.clone(), s.times)),
                Some((Action::Error("full".into()), Some(3)))
            );
        }
        assert!(configure_from_spec("bogus").is_err());
        assert!(configure_from_spec("x=warp").is_err());
        assert!(configure_from_spec("x=delay").is_err());
        clear();
    }
}
