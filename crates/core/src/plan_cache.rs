//! Memoizing kernel-plan cache.
//!
//! Running Alg. 2 (baseline tiling → cache placement → dataflow → fusion)
//! is cheap once, but the serving hot path asks for the *same* plan over
//! and over: every decode step of every layer of every request re-plans
//! the identical `(GpuSpec, VqConfig, ComputeOp)` triple. [`PlanCache`]
//! memoizes finished [`KernelPlan`]s behind an [`Arc`] so repeated lookups
//! are a hash probe instead of a full planning pass, and so every consumer
//! shares one plan instance (pointer equality holds across hits).
//!
//! The cache is internally synchronized: lookups take `&self`, so one
//! cache can be shared across threads (`Arc<PlanCache>`) by a batching
//! server.
//!
//! Two sizing caveats for long-running servers:
//!
//! * the key is *exact* — [`ComputeOp::AttentionDecode`] includes `seq`,
//!   so planning a fresh op per generated token creates a fresh entry per
//!   token. Plan at representative sequence lengths (as
//!   `vqllm_llm::Pipeline` does) rather than per-token ones;
//! * the cache is bounded ([`PlanCache::with_capacity_limit`], default
//!   4096 entries). On overflow it evicts one arbitrary entry per insert,
//!   so memory stays bounded even under per-token keys while the hot
//!   working set survives mostly intact.

use crate::engine::{KernelPlan, OptLevel, ProfileSummary};
use crate::ops::ComputeOp;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vqllm_gpu::GpuSpec;
use vqllm_vq::VqConfig;

pub mod persist;

/// What kind of plan a key asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanRequest {
    /// A plan at one fixed rung of the optimization ladder.
    At(OptLevel),
    /// The adaptive best-performing plan (the paper's shipped framework:
    /// every rung is tried and the fastest estimate wins).
    Best,
}

/// Full-spec GPU identity for [`PlanKey`]s: the complete [`Debug`]
/// rendering, so two specs that differ in any modelled parameter never
/// alias. Compute it once per device (`Session`/`Pipeline` do this at
/// construction) and reuse it via [`PlanKey::with_identity`] — rendering
/// it per lookup would put string formatting on the hot path the cache
/// exists to shorten.
pub fn gpu_identity(gpu: &GpuSpec) -> Arc<str> {
    format!("{gpu:?}").into()
}

/// Cache key: everything a plan deterministically depends on.
///
/// For [`PlanRequest::Best`] the winning rung also depends on the access
/// distribution used for estimation — callers must stamp a fingerprint of
/// that distribution via [`PlanKey::with_profile_tag`] (the `Session` and
/// `Pipeline` front ends do), or two different profiles with the same
/// `num_hot` would alias to one cached decision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    gpu: Arc<str>,
    vq: VqConfig,
    op: ComputeOp,
    request: PlanRequest,
    num_hot: usize,
    profile_tag: u64,
}

impl PlanKey {
    /// Builds the key for planning `op` under `vq` on `gpu`, rendering the
    /// GPU identity on the spot. Prefer [`PlanKey::with_identity`] with a
    /// precomputed [`gpu_identity`] on hot paths.
    pub fn new(
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        request: PlanRequest,
        profile: &ProfileSummary,
    ) -> Self {
        PlanKey::with_identity(gpu_identity(gpu), vq, op, request, profile)
    }

    /// Builds the key from a precomputed [`gpu_identity`] (cheap: the
    /// identity is reference-counted, not re-rendered).
    pub fn with_identity(
        gpu: Arc<str>,
        vq: &VqConfig,
        op: &ComputeOp,
        request: PlanRequest,
        profile: &ProfileSummary,
    ) -> Self {
        PlanKey {
            gpu,
            vq: *vq,
            op: *op,
            request,
            num_hot: profile.num_hot,
            profile_tag: 0,
        }
    }

    /// Stamps a fingerprint of the estimation-time access distribution
    /// (e.g. `AccessProfile::fingerprint()`). Required for correctness of
    /// [`PlanRequest::Best`] keys whenever a non-default profile is used.
    #[must_use]
    pub fn with_profile_tag(mut self, tag: u64) -> Self {
        self.profile_tag = tag;
        self
    }

    /// The canonical [`PlanRequest::Best`] key: default profile summary
    /// plus the estimation profile's fingerprint. Every front end
    /// (`Session`, `Pipeline`) must build Best keys through this one
    /// recipe so they share cache entries for the same request.
    pub fn best(gpu: Arc<str>, vq: &VqConfig, op: &ComputeOp, profile_tag: u64) -> Self {
        PlanKey::with_identity(
            gpu,
            vq,
            op,
            PlanRequest::Best,
            &ProfileSummary::default_for(vq),
        )
        .with_profile_tag(profile_tag)
    }

    /// The canonical [`PlanRequest::Best`] key under a **measured**
    /// profile: the measured summary's hot-entry count plus the estimation
    /// profile's fingerprint. [`PlanKey::best`] is the default-profile
    /// specialization of this recipe; every front end that plans from a
    /// measured profile (serving registration's canonical plans) must
    /// build its keys here so siblings measuring the same tensors share
    /// cache entries.
    pub fn best_profiled(
        gpu: Arc<str>,
        vq: &VqConfig,
        op: &ComputeOp,
        summary: &ProfileSummary,
        profile_tag: u64,
    ) -> Self {
        PlanKey::with_identity(gpu, vq, op, PlanRequest::Best, summary)
            .with_profile_tag(profile_tag)
    }

    /// The request kind this key encodes.
    pub fn request(&self) -> PlanRequest {
        self.request
    }
}

/// Hit/miss counters, cheap to copy out for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the planner.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default bound on cached plans (see [`PlanCache::with_capacity_limit`]).
pub const DEFAULT_CAPACITY_LIMIT: usize = 4096;

/// A memoizing, thread-safe, bounded cache of finished kernel plans.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<KernelPlan>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity_limit(DEFAULT_CAPACITY_LIMIT)
    }
}

impl PlanCache {
    /// Creates an empty cache bounded at [`DEFAULT_CAPACITY_LIMIT`] plans.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache holding at most `limit` plans. Inserting
    /// past the limit evicts one arbitrary entry (outstanding `Arc`s stay
    /// valid), keeping memory bounded under adversarial key streams —
    /// such as one attention op per token — without wiping the shared hot
    /// working set.
    pub fn with_capacity_limit(limit: usize) -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            capacity: limit.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured capacity limit.
    pub fn capacity_limit(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up without planning; does not touch the counters.
    pub fn peek(&self, key: &PlanKey) -> Option<Arc<KernelPlan>> {
        self.map
            .lock()
            .expect("plan cache poisoned")
            .get(key)
            .cloned()
    }

    /// Returns the cached plan for `key`, or runs `plan` and caches its
    /// result. Errors from `plan` are returned as-is and nothing is
    /// cached, so a transiently unplannable request can be retried.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: PlanKey,
        plan: impl FnOnce() -> Result<KernelPlan, E>,
    ) -> Result<Arc<KernelPlan>, E> {
        if let Some(hit) = self.peek(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        // Plan outside the lock: planning is pure and keyed, so two racing
        // threads at worst both plan once and one insert wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(plan()?);
        let mut map = self.map.lock().expect("plan cache poisoned");
        Self::evict_if_full(&mut map, &key, self.capacity);
        Ok(Arc::clone(map.entry(key).or_insert(fresh)))
    }

    /// The shared capacity policy of every insert path: at the bound, one
    /// arbitrary entry makes room for a *new* key (see
    /// [`PlanCache::with_capacity_limit`]).
    fn evict_if_full(map: &mut HashMap<PlanKey, Arc<KernelPlan>>, key: &PlanKey, capacity: usize) {
        if map.len() >= capacity && !map.contains_key(key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
    }

    /// Inserts a plan directly (used by [`PlanCache::load_from`] and by
    /// tests seeding a cache); respects the capacity bound like a planned
    /// insert and keeps an existing entry for the key.
    pub fn insert(&self, key: PlanKey, plan: KernelPlan) {
        let mut map = self.map.lock().expect("plan cache poisoned");
        Self::evict_if_full(&mut map, &key, self.capacity);
        map.entry(key).or_insert_with(|| Arc::new(plan));
    }

    /// Snapshot of every cached `(key, plan)` pair, in unspecified order.
    pub fn snapshot(&self) -> Vec<(PlanKey, Arc<KernelPlan>)> {
        self.map
            .lock()
            .expect("plan cache poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Writes every cached entry to `path` in the versioned text format of
    /// [`persist`] (sorted by rendered line, so identical caches produce
    /// identical files), terminated by a checksum trailer line covering
    /// everything before it. Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn save_to(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let mut lines: Vec<String> = self
            .snapshot()
            .iter()
            .map(|(k, p)| persist::encode_entry(k, p))
            .collect();
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.len() * 128 + 64);
        out.push_str(persist::HEADER);
        out.push('\n');
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        let sum = persist::fnv1a64(persist::FNV_SEED, out.as_bytes());
        out.push_str(&format!("{}{sum:016x}\n", persist::TRAILER_PREFIX));
        std::fs::write(path, out)?;
        Ok(lines.len())
    }

    /// Loads entries from a file written by [`PlanCache::save_to`] into
    /// this cache (existing entries for a key win; the capacity bound
    /// applies). Returns the number of entries read.
    ///
    /// The read is strict: a bad header or any malformed entry fails with
    /// [`io::ErrorKind::InvalidData`] so a corrupt warm-start file is
    /// surfaced instead of silently loading as partial or empty.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (including a missing file — probe
    /// with `Path::exists` to treat that as a cold start) or
    /// `InvalidData` on a version/format mismatch.
    pub fn load_from(&self, path: impl AsRef<Path>) -> io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let mut lines = text.lines();
        match lines.next() {
            Some(persist::HEADER) => {}
            other => {
                return Err(persist::invalid_data(format!(
                    "expected header {:?}, found {other:?}",
                    persist::HEADER
                )));
            }
        }
        // Decode fully before touching the cache: a corrupt line midway
        // through the file must not leave a shared cache partially
        // mutated behind the InvalidData error. The running hash covers
        // every line before the trailer exactly as written, so the
        // trailer also catches truncation on a line boundary (which the
        // per-line codec alone would accept).
        let mut hash = persist::fnv1a64(persist::FNV_SEED, persist::HEADER.as_bytes());
        hash = persist::fnv1a64(hash, b"\n");
        let mut entries = Vec::new();
        let mut trailer: Option<&str> = None;
        for (idx, line) in lines.enumerate() {
            if trailer.is_some() {
                return Err(persist::invalid_data(format!(
                    "entry {} after checksum trailer",
                    idx + 1
                )));
            }
            if let Some(sum) = line.strip_prefix(persist::TRAILER_PREFIX) {
                trailer = Some(sum);
                continue;
            }
            hash = persist::fnv1a64(hash, line.as_bytes());
            hash = persist::fnv1a64(hash, b"\n");
            if line.is_empty() {
                continue;
            }
            let entry = persist::decode_entry(line)
                .map_err(|e| persist::invalid_data(format!("entry {}: {e}", idx + 1)))?;
            entries.push(entry);
        }
        match trailer {
            None => {
                return Err(persist::invalid_data(
                    "missing checksum trailer (file truncated?)".to_string(),
                ));
            }
            Some(sum) => {
                let expect = u64::from_str_radix(sum.trim(), 16)
                    .map_err(|e| persist::invalid_data(format!("bad checksum trailer: {e}")))?;
                if expect != hash {
                    return Err(persist::invalid_data(format!(
                        "checksum mismatch: file says {expect:016x}, content hashes to \
                         {hash:016x}"
                    )));
                }
            }
        }
        let loaded = entries.len();
        for (key, plan) in entries {
            self.insert(key, plan);
        }
        Ok(loaded)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached plan and zeroes the counters.
    pub fn clear(&self) {
        self.map.lock().expect("plan cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KernelPlanner;
    use vqllm_vq::VqAlgorithm;

    fn key(algo: VqAlgorithm, level: OptLevel) -> PlanKey {
        let vq = algo.config();
        PlanKey::new(
            &GpuSpec::rtx4090(),
            &vq,
            &ComputeOp::attention_decode(32, 128, 1024, 1),
            PlanRequest::At(level),
            &ProfileSummary::default_for(&vq),
        )
    }

    fn plan(algo: VqAlgorithm, level: OptLevel) -> KernelPlan {
        let vq = algo.config();
        KernelPlanner::new(GpuSpec::rtx4090())
            .plan_at(
                &vq,
                &ComputeOp::attention_decode(32, 128, 1024, 1),
                level,
                &ProfileSummary::default_for(&vq),
            )
            .unwrap()
    }

    #[test]
    fn same_key_hits_and_is_pointer_equal() {
        let cache = PlanCache::new();
        let a = cache
            .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, OptLevel::O2), || {
                Ok(plan(VqAlgorithm::Cq2, OptLevel::O2))
            })
            .unwrap();
        let b = cache
            .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, OptLevel::O2), || {
                panic!("second lookup must not re-plan")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_opt_level_misses() {
        let cache = PlanCache::new();
        for level in [OptLevel::O1, OptLevel::O2] {
            cache
                .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, level), || {
                    Ok(plan(VqAlgorithm::Cq2, level))
                })
                .unwrap();
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = PlanCache::new();
        let k = key(VqAlgorithm::Cq4, OptLevel::O4);
        let err: Result<_, &str> = cache.get_or_try_insert_with(k.clone(), || Err("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert!(cache.is_empty());
        // A later successful attempt lands normally.
        cache
            .get_or_try_insert_with::<()>(k.clone(), || Ok(plan(VqAlgorithm::Cq4, OptLevel::O4)))
            .unwrap();
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn clear_resets_everything() {
        let cache = PlanCache::new();
        cache
            .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, OptLevel::O3), || {
                Ok(plan(VqAlgorithm::Cq2, OptLevel::O3))
            })
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn capacity_limit_bounds_the_map() {
        let cache = PlanCache::with_capacity_limit(2);
        let shared = plan(VqAlgorithm::Cq2, OptLevel::O1);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O4] {
            let held = cache
                .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, level), || Ok(shared.clone()))
                .unwrap();
            // Outstanding Arcs survive evictions.
            assert_eq!(*held, shared);
        }
        assert!(cache.len() <= 2, "len {} over limit", cache.len());
        assert_eq!(cache.capacity_limit(), 2);
        // The most recently inserted key is never the eviction victim.
        cache
            .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, OptLevel::O4), || {
                panic!("must be cached")
            })
            .unwrap();
    }

    #[test]
    fn with_identity_matches_new() {
        let gpu = GpuSpec::rtx4090();
        let vq = VqAlgorithm::Cq2.config();
        let op = ComputeOp::attention_decode(32, 128, 1024, 1);
        let prof = ProfileSummary::default_for(&vq);
        let a = PlanKey::new(&gpu, &vq, &op, PlanRequest::Best, &prof);
        let b = PlanKey::with_identity(gpu_identity(&gpu), &vq, &op, PlanRequest::Best, &prof);
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let cache = PlanCache::new();
        // A mixed population: every algorithm family (plain, lattice,
        // per-tile, per-channel-group scopes), both request kinds, and a
        // non-zero profile tag.
        for algo in [
            VqAlgorithm::Cq2,
            VqAlgorithm::QuipSharp4,
            VqAlgorithm::Gptvq2,
        ] {
            for level in [OptLevel::O2, OptLevel::O4] {
                cache
                    .get_or_try_insert_with::<()>(key(algo, level), || Ok(plan(algo, level)))
                    .unwrap();
            }
        }
        let vq = VqAlgorithm::Cq4.config();
        let op = ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 3,
        };
        let best_key = PlanKey::best(
            gpu_identity(&GpuSpec::rtx4090()),
            &vq,
            &op,
            0xdead_beef_cafe_f00d,
        );
        cache
            .get_or_try_insert_with::<()>(best_key.clone(), || {
                Ok(KernelPlanner::new(GpuSpec::rtx4090())
                    .plan(&vq, &op)
                    .unwrap())
            })
            .unwrap();

        let path = std::env::temp_dir().join(format!(
            "vqllm_plan_cache_roundtrip_{}.txt",
            std::process::id()
        ));
        let written = cache.save_to(&path).unwrap();
        assert_eq!(written, cache.len());

        let restored = PlanCache::new();
        let loaded = restored.load_from(&path).unwrap();
        assert_eq!(loaded, written);
        assert_eq!(restored.len(), cache.len());
        for (k, p) in cache.snapshot() {
            let q = restored.peek(&k).expect("restored cache misses a key");
            assert_eq!(*q, *p, "plan changed across the round trip");
        }
        // Round-tripping the restored cache reproduces the identical file.
        let path2 = std::env::temp_dir().join(format!(
            "vqllm_plan_cache_roundtrip2_{}.txt",
            std::process::id()
        ));
        restored.save_to(&path2).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&path2).unwrap()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn load_rejects_corrupt_files() {
        let dir = std::env::temp_dir();
        let bad_header = dir.join(format!(
            "vqllm_plan_cache_bad_header_{}.txt",
            std::process::id()
        ));
        std::fs::write(&bad_header, "some other file\n").unwrap();
        let cache = PlanCache::new();
        let err = cache.load_from(&bad_header).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&bad_header);

        // A *valid* entry followed by a corrupt line: the whole load must
        // fail without mutating the cache (no partial apply).
        let donor = PlanCache::new();
        donor
            .get_or_try_insert_with::<()>(key(VqAlgorithm::Cq2, OptLevel::O2), || {
                Ok(plan(VqAlgorithm::Cq2, OptLevel::O2))
            })
            .unwrap();
        let valid_file = dir.join(format!(
            "vqllm_plan_cache_valid_donor_{}.txt",
            std::process::id()
        ));
        donor.save_to(&valid_file).unwrap();
        let mut text = std::fs::read_to_string(&valid_file).unwrap();
        text.push_str("not an entry\n");
        let bad_entry = dir.join(format!(
            "vqllm_plan_cache_bad_entry_{}.txt",
            std::process::id()
        ));
        std::fs::write(&bad_entry, text).unwrap();
        let err = cache.load_from(&bad_entry).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(cache.is_empty(), "strict load must not partially apply");
        let _ = std::fs::remove_file(&valid_file);
        let _ = std::fs::remove_file(&bad_entry);

        assert!(cache
            .load_from(dir.join(format!(
                "vqllm_plan_cache_missing_{}.txt",
                std::process::id()
            )))
            .is_err());
    }

    #[test]
    fn load_rejects_truncation_even_on_a_line_boundary() {
        let dir = std::env::temp_dir();
        let donor = PlanCache::new();
        for (algo, level) in [
            (VqAlgorithm::Cq2, OptLevel::O2),
            (VqAlgorithm::Cq4, OptLevel::O3),
        ] {
            donor
                .get_or_try_insert_with::<()>(key(algo, level), || Ok(plan(algo, level)))
                .unwrap();
        }
        let full = dir.join(format!(
            "vqllm_plan_cache_trunc_full_{}.txt",
            std::process::id()
        ));
        donor.save_to(&full).unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 entries + trailer");

        // Cut exactly on a line boundary: every line that survives still
        // decodes, so only the trailer can catch it.
        for keep in 1..lines.len() {
            let truncated: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
            let path = dir.join(format!(
                "vqllm_plan_cache_trunc_{keep}_{}.txt",
                std::process::id()
            ));
            std::fs::write(&path, truncated).unwrap();
            let cache = PlanCache::new();
            let err = cache.load_from(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "keep={keep}");
            assert!(cache.is_empty(), "truncated load must not partially apply");
            let _ = std::fs::remove_file(&path);
        }

        // An entry dropped but the trailer kept: checksum mismatch.
        let tampered: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let path = dir.join(format!(
            "vqllm_plan_cache_tampered_{}.txt",
            std::process::id()
        ));
        std::fs::write(&path, tampered).unwrap();
        let err = PlanCache::new().load_from(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&full);
    }

    #[test]
    fn gpu_identity_is_the_full_spec() {
        let mut tweaked = GpuSpec::rtx4090();
        tweaked.smem_per_sm -= 1024;
        let vq = VqAlgorithm::Cq2.config();
        let op = ComputeOp::attention_decode(32, 128, 1024, 1);
        let prof = ProfileSummary::default_for(&vq);
        let a = PlanKey::new(&GpuSpec::rtx4090(), &vq, &op, PlanRequest::Best, &prof);
        let b = PlanKey::new(&tweaked, &vq, &op, PlanRequest::Best, &prof);
        assert_ne!(a, b, "same name, different spec must not alias");
    }
}
