//! Pluggable execution backends.
//!
//! A [`Backend`] is everything a `Session` (and an `llm::Pipeline`) needs
//! from an execution substrate: planning a fused kernel, estimating a
//! plan's latency, and functionally executing a plan against real data.
//! Two implementations ship:
//!
//! * [`PerfModelBackend`] — the GPU performance model (the workspace's
//!   documented hardware substitution): plans with the paper's heuristics,
//!   estimates with the roofline timing model, executes functionally
//!   through the modelled codebook cache.
//! * [`CpuBackend`] — real host execution: the same planner decisions,
//!   but `run_*` dispatches to the fused [`host_exec`](crate::host_exec)
//!   kernels, which compute directly on packed codes with cache-resident
//!   codebook LUTs, runtime-dispatched SIMD inner loops, and parallel
//!   paths on the persistent [`host_exec::pool::WorkerPool`].
//!
//! The trait lives in `vqllm-kernels` (below `vqllm-llm`) so the decode
//! pipeline and the facade share one seam; a real-GPU (CUDA/HIP) backend
//! plugs in here later without touching any consumer.

use crate::host_exec::{self, HostBlocking};
use crate::{vq_kernel, AccessProfile, KernelOutput, Result};
use std::sync::{Mutex, PoisonError};
use vqllm_core::plan_cache::PlanRequest;
use vqllm_core::{ComputeOp, KernelPlan, KernelPlanner, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_tensor::Tensor2D;
use vqllm_vq::{QuantizedTensor, VqConfig};

/// An execution substrate for fused VQ kernels.
///
/// Implementations must be thread-safe: one backend instance is shared by
/// every clone of a `Session` and by the plan cache's racing planners.
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Short backend name for reports and debugging.
    fn name(&self) -> &'static str;

    /// Plans `op` under `vq` at one rung of the optimization ladder.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unplannable`](crate::KernelError::Unplannable)
    /// when no launchable configuration exists.
    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan>;

    /// Plans at every rung and returns the fastest plan (the paper's
    /// adaptive "best perform version").
    ///
    /// # Errors
    ///
    /// Returns an error when no rung yields a launchable configuration.
    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)>;

    /// Plans a [`PlanRequest`]: a fixed rung goes through
    /// [`Backend::plan_at`] with `summary`, the adaptive best through
    /// [`Backend::best_plan`] with `profile`. This is the one seam every
    /// front end (`Session`, `Pipeline`, the serving warm-up) dispatches
    /// through, so a measured profile threads into planning identically
    /// everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Unplannable`](crate::KernelError::Unplannable)
    /// when no launchable configuration exists for the request.
    fn plan_request(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        request: PlanRequest,
        profile: &AccessProfile,
        summary: &ProfileSummary,
    ) -> Result<KernelPlan> {
        match request {
            PlanRequest::At(level) => self.plan_at(gpu, vq, op, level, summary),
            PlanRequest::Best => self.best_plan(gpu, vq, op, profile).map(|(plan, _)| plan),
        }
    }

    /// Latency/counter estimate for an existing plan.
    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput;

    /// Functionally executes a fused GeMM: `A × dequant(Wq)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)>;

    /// Functionally executes a fused GeMV: `xᵀ × dequant(Wq)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)>;

    /// Functionally executes one head of fused attention decode over
    /// quantized K/V caches.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)>;

    /// Functionally executes one head of attention decode for a **batch**
    /// of queries (`qs` is `batch × head_dim`, one row per sequence)
    /// attending over shared quantized K/V caches — the serving-layer
    /// multi-tenant decode shape. The default loops
    /// [`Backend::run_attention_head`]; substrates with a real batched
    /// kernel (see [`CpuBackend`]) override it.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or an empty batch.
    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        let mut out = Tensor2D::zeros(qs.rows(), qs.cols());
        let mut last = None;
        for b in 0..qs.rows() {
            let (row, o) = self.run_attention_head(gpu, plan, qs.row(b), kq, vq)?;
            out.row_mut(b).copy_from_slice(&row);
            last = Some(o);
        }
        Ok((out, last.expect("non-empty batch")))
    }

    /// Ragged batched attention decode: query `b` attends only the first
    /// `lens[b]` cached tokens of the shared quantized K/V — the
    /// continuous-batching shape, where co-scheduled tenants sit at
    /// different positions in one cache. The default dequantizes and loops
    /// the reference per query (correct on any substrate); [`CpuBackend`]
    /// overrides it with the fused ragged kernel whose K-decode is shared
    /// across the batch.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, an empty batch, or a length
    /// outside `1..=seq`.
    fn run_attention_ragged(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        if lens.len() != qs.rows() {
            return Err(crate::KernelError::ShapeMismatch {
                what: "one softmax length per query row",
            });
        }
        if kq.shape() != vq.shape() || qs.cols() != kq.shape().1 {
            return Err(crate::KernelError::ShapeMismatch {
                what: "qs/K/V shapes disagree",
            });
        }
        let (seq, head_dim) = kq.shape();
        if lens.iter().any(|&l| l == 0 || l > seq) {
            return Err(crate::KernelError::InvalidInput {
                what: "softmax lengths must be in 1..=seq",
            });
        }
        let kd = kq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "K cache failed to dequantize",
            })?;
        let vd = vq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "V cache failed to dequantize",
            })?;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut out = Tensor2D::zeros(qs.rows(), head_dim);
        for (b, &len) in lens.iter().enumerate() {
            let row = vqllm_tensor::linalg::attention_decode_ref(
                qs.row(b),
                &kd.slice(0, 0, len, head_dim),
                &vd.slice(0, 0, len, head_dim),
                scale,
            )
            .map_err(|_| crate::KernelError::ShapeMismatch {
                what: "reference attention rejected the ragged slice",
            })?;
            out.row_mut(b).copy_from_slice(&row);
        }
        let profile = AccessProfile::default_for(kq.config());
        let counters = self.estimate(gpu, plan, &profile);
        Ok((out, counters))
    }

    /// Ragged attention decode over a shared quantized context **plus
    /// per-query private KV extensions** ([`RaggedExt`]: packed codes
    /// encoded against the context's codebooks, sparse outlier residuals,
    /// and an unquantized f32 tail window) — the live-KV serving shape.
    /// The default dequantizes the context, reconstructs each extension
    /// (codes + outliers + tail) and loops the dense reference per query
    /// (correct on any substrate); [`CpuBackend`] overrides it with the
    /// fused tailed kernel that keeps the shared batched LUT score pass.
    ///
    /// [`RaggedExt`]: host_exec::RaggedExt
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches, an empty batch, lengths
    /// outside `1..=seq`, or extensions inconsistent with the context's
    /// VQ configuration.
    #[allow(clippy::too_many_arguments)]
    fn run_attention_ragged_tailed(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[host_exec::RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        if lens.len() != qs.rows() || exts.len() != qs.rows() {
            return Err(crate::KernelError::ShapeMismatch {
                what: "one prefix length and one extension per query row",
            });
        }
        if kq.shape() != vq.shape() || qs.cols() != kq.shape().1 {
            return Err(crate::KernelError::ShapeMismatch {
                what: "qs/K/V shapes disagree",
            });
        }
        let (seq, head_dim) = kq.shape();
        if lens.iter().any(|&l| l == 0 || l > seq) {
            return Err(crate::KernelError::InvalidInput {
                what: "softmax lengths must be in 1..=seq",
            });
        }
        let kd = kq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "K cache failed to dequantize",
            })?;
        let vd = vq
            .dequantize()
            .map_err(|_| crate::KernelError::InvalidInput {
                what: "V cache failed to dequantize",
            })?;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut out = Tensor2D::zeros(qs.rows(), head_dim);
        for (b, ext) in exts.iter().enumerate() {
            let len = lens[b];
            let kfull = splice_extension(&kd, len, ext, kq, ExtSide::K)?;
            let vfull = splice_extension(&vd, len, ext, vq, ExtSide::V)?;
            let row = vqllm_tensor::linalg::attention_decode_ref(qs.row(b), &kfull, &vfull, scale)
                .map_err(|_| crate::KernelError::ShapeMismatch {
                    what: "reference attention rejected the spliced extension",
                })?;
            out.row_mut(b).copy_from_slice(&row);
        }
        let profile = AccessProfile::default_for(kq.config());
        let counters = self.estimate(gpu, plan, &profile);
        Ok((out, counters))
    }
}

/// Which half of a [`host_exec::RaggedExt`] to reconstruct.
#[derive(Clone, Copy)]
enum ExtSide {
    K,
    V,
}

/// Dense reconstruction of `len` context rows plus one query's extension
/// (decoded codes + outlier residuals + f32 tail) — the oracle the
/// default [`Backend::run_attention_ragged_tailed`] attends over.
fn splice_extension(
    base: &Tensor2D,
    len: usize,
    ext: &host_exec::RaggedExt<'_>,
    q: &QuantizedTensor,
    side: ExtSide,
) -> Result<Tensor2D> {
    let cfg = q.config();
    if matches!(cfg.scope, vqllm_vq::CodebookScope::PerTile { .. }) {
        return Err(crate::KernelError::InvalidInput {
            what: "per-tile codebook scopes are row-dependent; live-KV extensions \
                   require a row-invariant scope (PerTensor or PerChannelGroup)",
        });
    }
    let (codes, outliers, tail) = match side {
        ExtSide::K => (ext.k_codes, ext.k_outliers, ext.k_tail),
        ExtSide::V => (ext.v_codes, ext.v_outliers, ext.v_tail),
    };
    let head_dim = q.shape().1;
    let vs = cfg.vector_size;
    let groups = q.col_groups();
    if ext.rows > 0
        && (codes.len() != cfg.residuals || codes.iter().any(|s| s.len() != ext.rows * groups))
    {
        return Err(crate::KernelError::ShapeMismatch {
            what: "extension code stream length must be rows × col_groups",
        });
    }
    if !tail.len().is_multiple_of(head_dim) {
        return Err(crate::KernelError::ShapeMismatch {
            what: "tail rows must be head_dim wide",
        });
    }
    let books = q.codebooks();
    let mut full = Tensor2D::zeros(len + ext.rows + tail.len() / head_dim, head_dim);
    for r in 0..len {
        full.row_mut(r).copy_from_slice(base.row(r));
    }
    for row in 0..ext.rows {
        let orow = full.row_mut(len + row);
        for (r, stream) in codes.iter().enumerate() {
            for g in 0..groups {
                let book = books.book(r, books.scope_index(0, g * vs));
                book.accumulate(
                    stream.get(row * groups + g),
                    &mut orow[g * vs..(g + 1) * vs],
                );
            }
        }
    }
    for (row, group, values) in outliers.iter() {
        if row >= ext.rows || group >= groups {
            return Err(crate::KernelError::InvalidInput {
                what: "outlier residual outside the folded extension",
            });
        }
        let orow = full.row_mut(len + row);
        for (o, &v) in orow[group * vs..].iter_mut().zip(values) {
            *o += v;
        }
    }
    for (t, trow) in tail.chunks_exact(head_dim).enumerate() {
        full.row_mut(len + ext.rows + t).copy_from_slice(trow);
    }
    Ok(full)
}

/// The GPU performance-model backend (the workspace's documented hardware
/// substitution): plans with [`KernelPlanner`], estimates with the
/// roofline timing model, and executes functionally on the host while
/// tallying modelled memory behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModelBackend;

impl PerfModelBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        PerfModelBackend
    }
}

impl Backend for PerfModelBackend {
    fn name(&self) -> &'static str {
        "perf-model"
    }

    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        Ok(KernelPlanner::new(gpu.clone()).plan_at(vq, op, level, profile)?)
    }

    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)> {
        vq_kernel::best_plan(gpu, vq, op, profile)
    }

    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        vq_kernel::estimate(gpu, plan, profile)
    }

    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        vq_kernel::run_gemm(gpu, plan, a, wq)
    }

    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        vq_kernel::run_gemv(gpu, plan, x, wq)
    }

    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        vq_kernel::run_attention_head(gpu, plan, q, kq, vq)
    }
}

/// Real host execution: plans exactly like [`PerfModelBackend`] (the
/// plan's tiling/placement decisions also seed the host cache blocking),
/// but `run_*` executes the fused [`host_exec`] kernels directly on packed
/// codes — no dequantized weight matrix, codebooks and LUT slabs sized to
/// stay cache-resident, SIMD-tiered inner loops, and optional
/// row/column parallelism on the shared persistent worker pool.
///
/// The [`KernelOutput`] returned alongside real results still carries the
/// *modelled* GPU counters for the plan (so perf-model and CPU runs stay
/// comparable in reports). They are a plan-time fact: the model runs once
/// per distinct plan and every later `run_*` returns a copy, so a decode
/// step executes kernels and nothing else. Wall-clock measurement is the
/// bench harness's job (`host_speedup`).
#[derive(Debug)]
pub struct CpuBackend {
    threads: usize,
    /// Modelled outputs resolved so far, oldest first.
    modelled: Mutex<Vec<(KernelPlan, VqConfig, GpuSpec, KernelOutput)>>,
}

/// Distinct `(plan, tensor config, gpu)` triples the backend remembers the
/// modelled output of. A context serves through two canonical plans and a
/// profile-driven replan retires the one it replaces, so the working set
/// is a few entries per registered context; past the cap the oldest entry
/// is dropped and would simply be modelled again.
const MODELLED_CAP: usize = 64;

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new()
    }
}

impl CpuBackend {
    /// Single-threaded backend (deterministic, bench-friendly).
    pub fn new() -> Self {
        CpuBackend::with_threads(1)
    }

    /// Backend with an explicit worker-partition count for the parallel
    /// paths (clamped to ≥ 1). Partitions execute on the process-wide
    /// [`host_exec::pool::WorkerPool`], which this constructor warms
    /// (spawns once) so the first kernel call never pays thread spawns.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads > 1 {
            host_exec::pool::WorkerPool::shared();
        }
        CpuBackend {
            threads,
            modelled: Mutex::new(Vec::new()),
        }
    }

    /// Backend sized to the machine's available parallelism.
    pub fn auto() -> Self {
        CpuBackend::with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Worker threads the row-parallel path uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Host blocking derived from a plan plus this backend's threading.
    fn blocking(&self, plan: &KernelPlan) -> HostBlocking {
        HostBlocking::for_plan(plan).with_threads(self.threads)
    }

    /// Modelled counters for the executed plan under the default access
    /// distribution of the tensor's VQ config — exactly
    /// `vq_kernel::estimate(gpu, plan, &AccessProfile::default_for(q.config()))`,
    /// a pure function of its key, so it is evaluated on the first call
    /// for that key and copied out afterwards. (Deliberately *not*
    /// profiled from the tensor: real execution is the product here and
    /// the counters are a constant-per-plan report.)
    fn output_for(&self, gpu: &GpuSpec, plan: &KernelPlan, q: &QuantizedTensor) -> KernelOutput {
        let vq = q.config();
        // Entries are only ever pushed or removed whole, so a guard
        // recovered from a panicking estimate still holds valid data. The
        // lock is held across the estimate: one evaluation per key, and a
        // key is cold once.
        let mut modelled = self.modelled.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((.., out)) = modelled
            .iter()
            .find(|(p, v, g, _)| p == plan && v == vq && g == gpu)
        {
            return out.clone();
        }
        let out = vq_kernel::estimate(gpu, plan, &AccessProfile::default_for(vq));
        if modelled.len() == MODELLED_CAP {
            modelled.remove(0);
        }
        modelled.push((plan.clone(), *vq, gpu.clone(), out.clone()));
        out
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn plan_at(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
        profile: &ProfileSummary,
    ) -> Result<KernelPlan> {
        PerfModelBackend.plan_at(gpu, vq, op, level, profile)
    }

    fn best_plan(
        &self,
        gpu: &GpuSpec,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<(KernelPlan, KernelOutput)> {
        PerfModelBackend.best_plan(gpu, vq, op, profile)
    }

    fn estimate(&self, gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        PerfModelBackend.estimate(gpu, plan, profile)
    }

    fn run_gemm(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let c = host_exec::gemm_fused(a, wq, &self.blocking(plan))?;
        Ok((c, self.output_for(gpu, plan, wq)))
    }

    fn run_gemv(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let y = host_exec::gemv_xw(x, wq, &self.blocking(plan))?;
        Ok((y, self.output_for(gpu, plan, wq)))
    }

    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let out = host_exec::attention_decode_fused(q, kq, vq, &self.blocking(plan))?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }

    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        // The real batched kernel: K's packed codes are streamed once for
        // a whole lane block of queries (the batched LUT pass), and the
        // value pass multiply-adds V's codebook entries straight into
        // per-lane register accumulators.
        let out = host_exec::attention_decode_batch(qs, kq, vq, &self.blocking(plan))?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }

    fn run_attention_ragged(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        // One shared K-decode for the whole ragged batch, stopped at the
        // longest attended prefix; per-query softmax prefixes with exact
        // zeros between a query's prefix and that bound.
        let out = host_exec::attention_decode_ragged(qs, lens, kq, vq, &self.blocking(plan))?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }

    fn run_attention_ragged_tailed(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[host_exec::RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        if qs.rows() == 0 {
            return Err(crate::KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        // Shared batched LUT score pass over the context, per-query code
        // expansion + f32 tail splice for the extensions.
        let out = host_exec::attention_decode_ragged_tailed(
            qs,
            lens,
            exts,
            kq,
            vq,
            &self.blocking(plan),
        )?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_tensor::{linalg, metrics, synth};
    use vqllm_vq::{VqAlgorithm, VqQuantizer};

    fn plan_for(vq: &VqConfig, op: &ComputeOp) -> KernelPlan {
        KernelPlanner::new(GpuSpec::rtx4090())
            .plan_at(vq, op, OptLevel::O4, &ProfileSummary::default_for(vq))
            .unwrap()
    }

    #[test]
    fn cpu_backend_gemv_matches_perf_model_backend() {
        let vq = VqAlgorithm::Gptvq2.config();
        let w = synth::correlated_channels(256, 64, 4, 0.9, 3);
        let wq = VqQuantizer::new(vq).quantize(&w, 1).unwrap();
        let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.17).cos()).collect();
        let op = ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 1,
        };
        let plan = plan_for(&vq, &op);
        let gpu = GpuSpec::rtx4090();
        let (cpu, _) = CpuBackend::auto().run_gemv(&gpu, &plan, &x, &wq).unwrap();
        let (model, _) = PerfModelBackend.run_gemv(&gpu, &plan, &x, &wq).unwrap();
        assert!(metrics::allclose(&cpu, &model, 1e-4, 1e-4));
        let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
        assert!(metrics::allclose(&cpu, &oracle, 1e-4, 1e-4));
    }

    #[test]
    fn modelled_output_is_resolved_once_per_plan_and_equals_a_fresh_estimate() {
        let vq = VqAlgorithm::Gptvq2.config();
        let w = synth::correlated_channels(64, 64, 4, 0.9, 3);
        let wq = VqQuantizer::new(vq).quantize(&w, 1).unwrap();
        let a = synth::gaussian(8, 64, 1.0, 5);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.17).cos()).collect();
        let gemm = ComputeOp::Gemm { m: 8, n: 64, k: 64 };
        let gemv = ComputeOp::Gemv {
            n: 64,
            k: 64,
            batch: 1,
        };
        let (gemm_plan, gemv_plan) = (plan_for(&vq, &gemm), plan_for(&vq, &gemv));
        let gpu = GpuSpec::rtx4090();
        let fresh = |plan: &KernelPlan| {
            PerfModelBackend.estimate(&gpu, plan, &AccessProfile::default_for(&vq))
        };
        let (fresh_gemm, fresh_gemv) = (fresh(&gemm_plan), fresh(&gemv_plan));
        assert_ne!(fresh_gemm, fresh_gemv, "two plans, two outputs");

        let backend = CpuBackend::new();
        let before = vq_kernel::estimates_on_this_thread();
        for call in 1..=100 {
            let (_, out) = backend.run_gemm(&gpu, &gemm_plan, &a, &wq).unwrap();
            if call == 1 || call == 100 {
                assert_eq!(out, fresh_gemm, "call {call}");
            }
            // A second plan interleaved on the same backend keeps its own.
            let (_, out) = backend.run_gemv(&gpu, &gemv_plan, &x, &wq).unwrap();
            assert_eq!(out, fresh_gemv, "call {call}");
        }
        assert_eq!(
            vq_kernel::estimates_on_this_thread() - before,
            2,
            "200 run_* calls over two plans model each plan once"
        );
        // Another device is another key, not a stale copy.
        let a40 = GpuSpec::a40();
        let (_, out) = backend.run_gemm(&a40, &gemm_plan, &a, &wq).unwrap();
        assert_eq!(
            out,
            PerfModelBackend.estimate(&a40, &gemm_plan, &AccessProfile::default_for(&vq))
        );
    }

    #[test]
    fn attention_batch_matches_looped_default() {
        use vqllm_vq::VqAlgorithm;
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 8);
        let v = synth::kv_stream(320, 32, 0.8, 9);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 4);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(4, 32, |b, d| ((b * 13 + d) as f32 * 0.23).sin());
        let backend = CpuBackend::with_threads(2);
        // The fused batch override vs the trait's looped default (which
        // PerfModelBackend inherits) vs per-query fused.
        let (fused, out) = backend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        let (looped, _) = PerfModelBackend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            looped.as_slice(),
            1e-4,
            1e-4
        ));
        for b in 0..qs.rows() {
            let (single, _) = backend
                .run_attention_head(&gpu, &plan, qs.row(b), &kq, &vq_t)
                .unwrap();
            assert!(
                metrics::allclose(fused.row(b), &single, 1e-4, 1e-4),
                "query {b}"
            );
        }
        // Empty batches are rejected, not silently mis-shaped.
        let empty = vqllm_tensor::Tensor2D::zeros(0, 32);
        assert!(backend
            .run_attention_batch(&gpu, &plan, &empty, &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_batch(&gpu, &plan, &empty, &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn attention_ragged_agrees_across_backends() {
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 30);
        let v = synth::kv_stream(320, 32, 0.8, 31);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 3);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(3, 32, |b, d| ((b * 7 + d) as f32 * 0.19).sin());
        let lens = [40usize, 320, 9];
        let backend = CpuBackend::with_threads(2);
        let (fused, out) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        // The trait's dequantize-and-loop default (what PerfModelBackend
        // inherits) is the oracle.
        let (reference, _) = PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        // Invalid lengths and empty batches are rejected on both paths.
        let empty = vqllm_tensor::Tensor2D::zeros(0, 32);
        assert!(backend
            .run_attention_ragged(&gpu, &plan, &empty, &[], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &empty, &[], &kq, &vq_t)
            .is_err());
        assert!(backend
            .run_attention_ragged(&gpu, &plan, &qs, &[0, 1, 1], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged(&gpu, &plan, &qs, &[1, 1, 321], &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn attention_ragged_tailed_agrees_across_backends() {
        use crate::host_exec::{CodeStream, OutlierBuf, RaggedExt};
        let vq_cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 30);
        let v = synth::kv_stream(320, 32, 0.8, 31);
        let kq = VqQuantizer::new(vq_cfg).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq_cfg).quantize(&v, 2).unwrap();
        let op = ComputeOp::attention_decode(1, 32, 320, 3);
        let plan = plan_for(&vq_cfg, &op);
        let gpu = GpuSpec::rtx4090();
        let qs = vqllm_tensor::Tensor2D::from_fn(3, 32, |b, d| ((b * 7 + d) as f32 * 0.19).sin());
        let lens = [40usize, 320, 9];
        // Encode two appended rows against the context's codebooks; keep
        // every group's residual as an outlier so reconstruction is exact.
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 11 + j) as f32 * 0.33).sin())
                    .collect()
            })
            .collect();
        let vs = vq_cfg.vector_size;
        let groups = 32 / vs;
        let encode =
            |books: &vqllm_vq::CodebookSet, rows: &[Vec<f32>]| -> (Vec<CodeStream>, OutlierBuf) {
                let mut codes = vec![CodeStream::new(vq_cfg.index_bits()); vq_cfg.residuals];
                let mut outs = OutlierBuf::default();
                for (i, row) in rows.iter().enumerate() {
                    for g in 0..groups {
                        let mut resid = row[g * vs..(g + 1) * vs].to_vec();
                        let mut entry = vec![0.0f32; vs];
                        for (r, stream) in codes.iter_mut().enumerate() {
                            let book = books.book(r, books.scope_index(0, g * vs));
                            let code = book.encode(&resid);
                            stream.push(code);
                            book.lookup(code, &mut entry);
                            for (rv, &e) in resid.iter_mut().zip(&entry) {
                                *rv -= e;
                            }
                        }
                        outs.push(i, g, &resid);
                    }
                }
                (codes, outs)
            };
        let (kc, ko) = encode(kq.codebooks(), &rows[..2]);
        let (vc, vo) = encode(vq_t.codebooks(), &rows[..2]);
        let exts = [
            RaggedExt {
                rows: 2,
                k_codes: &kc,
                v_codes: &vc,
                k_outliers: ko.view(),
                v_outliers: vo.view(),
                k_tail: &rows[2],
                v_tail: &rows[2],
            },
            RaggedExt::default(),
            RaggedExt {
                k_tail: &rows[0],
                v_tail: &rows[0],
                ..RaggedExt::default()
            },
        ];
        let backend = CpuBackend::with_threads(2);
        let (fused, out) = backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts, &kq, &vq_t)
            .unwrap();
        assert!(out.us() > 0.0);
        // The trait's dequantize-splice-and-loop default (what
        // PerfModelBackend inherits) is the oracle.
        let (reference, _) = PerfModelBackend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts, &kq, &vq_t)
            .unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        // With every extension empty both paths reduce to the plain
        // ragged decode.
        let empty = [
            RaggedExt::default(),
            RaggedExt::default(),
            RaggedExt::default(),
        ];
        let (no_ext, _) = backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &empty, &kq, &vq_t)
            .unwrap();
        let (plain, _) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq_t)
            .unwrap();
        assert_eq!(no_ext, plain, "empty extensions must be bitwise invisible");
        // Mismatched extension counts are rejected on both paths.
        assert!(backend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts[..2], &kq, &vq_t)
            .is_err());
        assert!(PerfModelBackend
            .run_attention_ragged_tailed(&gpu, &plan, &qs, &lens, &exts[..2], &kq, &vq_t)
            .is_err());
    }

    #[test]
    fn cpu_backend_plans_like_the_model() {
        let vq = VqAlgorithm::Cq2.config();
        let op = ComputeOp::attention_decode(8, 64, 256, 1);
        let gpu = GpuSpec::rtx4090();
        let summary = ProfileSummary::default_for(&vq);
        let a = CpuBackend::new()
            .plan_at(&gpu, &vq, &op, OptLevel::O4, &summary)
            .unwrap();
        let b = PerfModelBackend
            .plan_at(&gpu, &vq, &op, OptLevel::O4, &summary)
            .unwrap();
        assert_eq!(a, b, "planning is backend-independent");
        assert_eq!(CpuBackend::with_threads(0).threads(), 1);
    }
}
