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
//! Sites are the [`Site`] variants, generated from the one `sites!` table
//! below, so a call site can only fire or arm a declared site.
//!
//! Programmatic: [`configure`] / [`clear`]. Environment: the first call to
//! [`fire`] parses `VQLLM_FAILPOINTS` (a `;`-separated list of
//! `site=action` clauses, each naming a site by [`Site::name`]) once; a
//! spec with an unknown site or a malformed clause is ignored whole. The
//! action grammar is
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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Generates [`Site`] from the one table below: each row
/// `Variant => "name", "where the fault is injected";` becomes a variant
/// documented by its description, its [`Site::name`] and its [`Site::at`].
macro_rules! sites {
    ($($variant:ident => $name:literal, $at:literal;)*) => {
        /// A failpoint site compiled into the workspace.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Site {
            $(#[doc = $at] $variant,)*
        }

        impl Site {
            /// Every site, in table (and declaration) order.
            pub const ALL: &'static [Site] = &[$(Site::$variant),*];

            /// The dotted name `VQLLM_FAILPOINTS` clauses and panic
            /// messages use.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Site::$variant => $name,)*
                }
            }

            /// Where the fault is injected.
            pub const fn at(self) -> &'static str {
                match self {
                    $(Site::$variant => $at,)*
                }
            }
        }
    };
}

// The one registry of failpoint sites, in namespace order. The README's
// site table must list it verbatim (`tests::readme_site_table_matches_sites`),
// and `vqllm-lint` flags a site that no non-test code fires.
sites! {
    LlmStep => "llm.step",
        "start of every `Engine::step`, before any group is formed";
    LlmStepGroup => "llm.step.group",
        "inside one batch group's decode, under the per-group `catch_unwind`";
    LlmStepAppend => "llm.step.append",
        "the KV append of one decoded row; maps onto a typed `KvCapacity` rejection";
    NetDriverStep => "net.driver.step",
        "the driver thread's step loop, outside the engine; escalates to the supervisor";
    PoolScope => "pool.scope",
        "entry of every `WorkerPool` scope, before jobs are queued; surfaces as `KernelError::Panicked`";
    HostGemvLutBatch => "host.gemv_lut_batch",
        "score pass entry: `gemv_lut_batch`, and `gemv_lut`, its one-lane case";
    HostGemvXw => "host.gemv_xw",
        "`gemv_xw` entry: the aggregation GeMV (`Backend::run_gemv`)";
    HostGemmFused => "host.gemm_fused",
        "`gemm_fused` entry: the linear layer (`Backend::run_gemm`), value pass and panel body alike";
    HostAttentionRagged => "host.attention_ragged",
        "`attention_decode` entry: every attention shape (head, batch, ragged, tailed)";
}

impl Site {
    /// The site called `name`, if one is declared.
    fn from_name(name: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.name() == name)
    }
}

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

/// One armed site's schedule.
#[derive(Debug)]
struct Armed {
    action: Action,
    /// Hits to ignore before the action starts firing.
    skip: u64,
    /// Hits the action fires for once past `skip`; `None` = forever.
    times: Option<u64>,
    /// Total hits observed so far.
    hits: u64,
}

impl Armed {
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

/// One slot per [`Site`], indexed by `site as usize`.
type Slots = [Option<Armed>; Site::ALL.len()];

struct Registry {
    sites: Mutex<Slots>,
    /// Fast-path gate: true iff any site is configured.
    armed: AtomicBool,
    /// One-shot `VQLLM_FAILPOINTS` bootstrap.
    env: OnceLock<()>,
}

static REGISTRY: Registry = Registry {
    sites: Mutex::new([const { None }; Site::ALL.len()]),
    armed: AtomicBool::new(false),
    env: OnceLock::new(),
};

/// The slots are only mutated in whole-slot writes and the panic action
/// fires after the guard is released, so a poisoned mutex (some unrelated
/// panic mid-critical-section) cannot hold torn state: recover instead of
/// cascading the panic into every later `fire`.
fn lock_sites() -> MutexGuard<'static, Slots> {
    REGISTRY.sites.lock().unwrap_or_else(|e| e.into_inner())
}

/// Writes `site`'s slot and re-derives the fast-path gate.
fn set(site: Site, slot: Option<Armed>) {
    let mut sites = lock_sites();
    if let Some(s) = sites.get_mut(site as usize) {
        *s = slot;
    }
    let any = sites.iter().any(Option::is_some);
    REGISTRY.armed.store(any, Ordering::Release);
}

/// Arms `site` with `action`, skipping the first `skip` hits and firing
/// for `times` hits after that (`None` = every hit). Replaces any prior
/// configuration for the site, resetting its hit counter.
pub fn configure(site: Site, action: Action, skip: u64, times: Option<u64>) {
    let armed = Armed {
        action,
        skip,
        times,
        hits: 0,
    };
    set(site, Some(armed));
}

/// Removes every configured failpoint and disarms the fast path.
pub fn clear() {
    let mut sites = lock_sites();
    *sites = [const { None }; Site::ALL.len()];
    REGISTRY.armed.store(false, Ordering::Release);
}

/// Parses a `VQLLM_FAILPOINTS`-style spec (`site=action;site=action`).
/// Returns the number of clauses applied.
///
/// # Errors
///
/// Returns a description of the first malformed clause, or of the first
/// clause naming a site no [`Site`] declares. The spec is checked whole
/// before any clause is applied, so on error nothing is armed.
pub fn configure_from_spec(spec: &str) -> Result<usize, String> {
    let mut clauses = Vec::new();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (name, action) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause missing '=': {clause:?}"))?;
        let site = Site::from_name(name.trim())
            .ok_or_else(|| format!("unknown failpoint site {:?} in {clause:?}", name.trim()))?;
        clauses.push((site, parse_action(action.trim())?));
    }
    let n = clauses.len();
    for (site, (action, skip, times)) in clauses {
        match action {
            Some(action) => configure(site, action, skip, times),
            None => set(site, None),
        }
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
pub fn fire(site: Site) -> Option<String> {
    // One-shot env bootstrap has to happen even while disarmed, but only
    // costs a OnceLock check after the first call.
    REGISTRY.env.get_or_init(|| {
        if let Ok(spec) = std::env::var("VQLLM_FAILPOINTS") {
            if let Err(e) = configure_from_spec(&spec) {
                eprintln!("VQLLM_FAILPOINTS ignored: {e}");
            }
        }
    });
    if !REGISTRY.armed.load(Ordering::Relaxed) {
        return None;
    }
    let action = {
        let mut sites = lock_sites();
        let s = sites.get_mut(site as usize)?.as_mut()?;
        if !s.check() {
            return None;
        }
        s.action.clone()
    };
    match action {
        #[expect(
            clippy::panic,
            reason = "Action::Panic IS the fault-injection contract: a configured site must panic so chaos tests exercise recovery; the sites lock is released before this fires."
        )]
        Action::Panic(msg) => panic!("failpoint {}: {msg}", site.name()),
        Action::DelayMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Error(detail) => Some(detail),
    }
}

/// True iff any failpoint is currently configured (test/bench helper).
pub fn armed() -> bool {
    REGISTRY.armed.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoints are process-global; serialize the tests that arm them.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The armed schedule of `site`, as `(action, times)`.
    fn slot(site: Site) -> Option<(Action, Option<u64>)> {
        let sites = lock_sites();
        let armed = sites[site as usize].as_ref()?;
        Some((armed.action.clone(), armed.times))
    }

    #[test]
    fn site_registry_is_well_formed() {
        for (i, site) in Site::ALL.iter().enumerate() {
            assert_eq!(*site as usize, i, "{site:?} is out of slot order");
            assert!(!site.at().trim().is_empty(), "{site:?} has no description");
            assert_eq!(Site::from_name(site.name()), Some(*site), "duplicate name");
        }
    }

    /// The README's failpoint table is hand-kept: it must be exactly the
    /// `sites!` table, in table order, between its markers.
    #[test]
    fn readme_site_table_matches_sites() {
        let mut table = String::from(
            "<!-- failpoint-sites:begin (must match the `sites!` table: `cargo test -p vqllm-core` checks it) -->\n\
             | site | fault is injected at |\n\
             | --- | --- |\n",
        );
        for site in Site::ALL {
            table.push_str(&format!("| `{}` | {} |\n", site.name(), site.at()));
        }
        table.push_str("<!-- failpoint-sites:end -->\n");
        let readme = include_str!("../../../README.md");
        assert!(
            readme.contains(&table),
            "README.md's failpoint table differs from the `sites!` table; it should read:\n{table}"
        );
    }

    #[test]
    fn disabled_fire_is_none() {
        let _g = lock();
        clear();
        assert!(!armed());
        assert_eq!(fire(Site::LlmStep), None);
    }

    #[test]
    fn error_action_fires_deterministically() {
        let _g = lock();
        clear();
        let site = Site::LlmStepAppend;
        configure(site, Action::Error("boom".into()), 1, Some(2));
        assert_eq!(fire(site), None, "skip=1 ignores the first hit");
        assert_eq!(fire(site), Some("boom".into()));
        assert_eq!(fire(site), Some("boom".into()));
        assert_eq!(fire(site), None, "times=2 exhausted");
        assert_eq!(fire(Site::LlmStep), None, "other sites stay quiet");
        clear();
    }

    #[test]
    fn panic_action_panics_with_site_and_message() {
        let _g = lock();
        clear();
        configure(Site::PoolScope, Action::Panic("kaboom".into()), 0, Some(1));
        let err = std::panic::catch_unwind(|| fire(Site::PoolScope)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("pool.scope") && msg.contains("kaboom"),
            "{msg}"
        );
        assert_eq!(fire(Site::PoolScope), None, "one-shot");
        clear();
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _g = lock();
        clear();
        let n = configure_from_spec(
            "llm.step=panic(x)*1+2; pool.scope=delay(5); host.gemv_xw=error(full)*3; llm.step=off",
        )
        .unwrap();
        assert_eq!(n, 4);
        assert_eq!(slot(Site::LlmStep), None, "off removes the site");
        assert_eq!(slot(Site::PoolScope), Some((Action::DelayMs(5), None)));
        assert_eq!(
            slot(Site::HostGemvXw),
            Some((Action::Error("full".into()), Some(3)))
        );
        assert!(configure_from_spec("bogus").is_err());
        assert!(configure_from_spec("llm.step=warp").is_err());
        assert!(configure_from_spec("llm.step=delay").is_err());
        clear();
    }

    #[test]
    fn unknown_spec_site_is_rejected_and_arms_nothing() {
        let _g = lock();
        clear();
        let err = configure_from_spec("llm.nowhere=panic").unwrap_err();
        assert!(err.contains("llm.nowhere"), "{err}");
        assert!(!armed(), "an unknown site must not arm the fast path");
        // The whole spec is checked before any clause is applied.
        let err = configure_from_spec("pool.scope=panic; ghost=off").unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        assert!(!armed() && slot(Site::PoolScope).is_none());
        clear();
    }
}
