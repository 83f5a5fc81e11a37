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
//! * [`CpuBackend`] — real host execution: the same planner decisions for
//!   the modelled counters, but `run_*` dispatches to the fused
//!   [`host_exec`] kernels, which compute directly on
//!   packed codes with cache-resident codebook LUTs, runtime-dispatched
//!   SIMD inner loops, and parallel paths on the persistent
//!   [`host_exec::pool::WorkerPool`].
//!
//! The trait lives in `vqllm-kernels` (below `vqllm-llm`) so the decode
//! pipeline and the facade share one seam; a real-GPU (CUDA/HIP) backend
//! plugs in here later without touching any consumer.

use crate::host_exec::{self, AttentionBatch, HostBlocking};
use crate::{vq_kernel, AccessProfile, KernelError, KernelOutput, Result};
use std::sync::{Mutex, PoisonError};
use vqllm_core::plan_cache::PlanRequest;
use vqllm_core::{ComputeOp, KernelPlan, KernelPlanner, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_tensor::{linalg, Tensor2D};
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
    /// Returns [`KernelError::Unplannable`]
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
    /// Returns [`KernelError::Unplannable`]
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

    /// Functionally executes a fused GeMM: `A × dequant(Wq)`. A GeMV
    /// `xᵀ × dequant(Wq)` is this on the one row `x`.
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

    /// Functionally executes one attention decode call ([`AttentionBatch`]:
    /// per-query prefixes of shared quantized K/V caches, optional private
    /// live-KV extensions) — the one attention seam; every named shape
    /// below is a description passed to it. The default is the reference
    /// body, correct on any substrate: dequantize the context, splice each
    /// extension underneath its prefix and loop the dense reference per
    /// query. [`CpuBackend`] overrides it with the fused kernel.
    ///
    /// # Errors
    ///
    /// Whatever [`AttentionBatch::validate`] rejects: shape mismatches, an
    /// empty batch, a length outside `1..=seq`, or extensions inconsistent
    /// with the context's VQ configuration.
    fn run_attention(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        batch: &AttentionBatch<'_>,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let out = attention_reference(batch, kq, vq)?;
        let profile = AccessProfile::default_for(kq.config());
        Ok((out, self.estimate(gpu, plan, &profile)))
    }

    /// One head of attention decode: [`Backend::run_attention`] with a
    /// single query over the whole cache.
    ///
    /// # Errors
    ///
    /// As [`Backend::run_attention`].
    fn run_attention_head(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        let qs = &Tensor2D::from_fn(1, q.len(), |_, d| q[d]);
        let (lens, exts) = (&[kq.shape().0][..], &[][..]);
        let batch = AttentionBatch { qs, lens, exts };
        let (out, counters) = self.run_attention(gpu, plan, &batch, kq, vq)?;
        Ok((out.into_vec(), counters))
    }

    /// A **batch** of queries (`qs` is `batch × head_dim`, one row per
    /// sequence) each attending the whole of the shared caches — the
    /// serving-layer multi-tenant decode shape.
    ///
    /// # Errors
    ///
    /// As [`Backend::run_attention`].
    fn run_attention_batch(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let (lens, exts) = (&vec![kq.shape().0; qs.rows()][..], &[][..]);
        self.run_attention(gpu, plan, &AttentionBatch { qs, lens, exts }, kq, vq)
    }

    /// Ragged batch: query `b` attends only the first `lens[b]` cached
    /// tokens — the continuous-batching shape, where co-scheduled tenants
    /// sit at different positions in one cache.
    ///
    /// # Errors
    ///
    /// As [`Backend::run_attention`].
    fn run_attention_ragged(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        let exts = &[];
        self.run_attention(gpu, plan, &AttentionBatch { qs, lens, exts }, kq, vq)
    }

    /// Ragged batch **plus per-query private KV extensions**
    /// ([`RaggedExt`]: packed codes encoded against the context's
    /// codebooks, sparse outlier residuals, and an unquantized f32 tail
    /// window) — the live-KV serving shape.
    ///
    /// [`RaggedExt`]: host_exec::RaggedExt
    ///
    /// # Errors
    ///
    /// As [`Backend::run_attention`].
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
        self.run_attention(gpu, plan, &AttentionBatch { qs, lens, exts }, kq, vq)
    }
}

/// The reference attention body behind [`Backend::run_attention`]'s
/// default: per query, the dense reference over the dequantized context
/// prefix with the query's extension reconstructed underneath it.
fn attention_reference(
    batch: &AttentionBatch<'_>,
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
) -> Result<Tensor2D> {
    batch.validate(kq, vq)?;
    let dequantized = |t: &QuantizedTensor| {
        t.dequantize().map_err(|_| KernelError::InvalidInput {
            what: "K/V cache failed to dequantize",
        })
    };
    let (kd, vd) = (dequantized(kq)?, dequantized(vq)?);
    let head_dim = batch.qs.cols();
    let scale = 1.0 / (head_dim as f32).sqrt();
    let no_ext = host_exec::RaggedExt::default();
    let mut out = Tensor2D::zeros(batch.qs.rows(), head_dim);
    for (b, &len) in batch.lens.iter().enumerate() {
        let ext = batch.exts.get(b).unwrap_or(&no_ext);
        let kfull = splice(&kd, len, kq, ext.k_codes, ext.k_outliers, ext.k_tail);
        let vfull = splice(&vd, len, vq, ext.v_codes, ext.v_outliers, ext.v_tail);
        let row =
            linalg::attention_decode_ref(batch.qs.row(b), &kfull, &vfull, scale).map_err(|_| {
                KernelError::ShapeMismatch {
                    what: "reference attention rejected the spliced rows",
                }
            })?;
        out.row_mut(b).copy_from_slice(&row);
    }
    Ok(out)
}

/// Dense reconstruction of `len` context rows of `base` plus one side of a
/// validated extension: its folded rows (codes decoded against `q`'s books,
/// outlier residuals added) and its f32 tail.
fn splice(
    base: &Tensor2D,
    len: usize,
    q: &QuantizedTensor,
    codes: &[host_exec::CodeStream],
    outliers: host_exec::Outliers<'_>,
    tail: &[f32],
) -> Tensor2D {
    let head_dim = q.shape().1;
    let vs = q.config().vector_size;
    let groups = q.col_groups();
    let books = q.codebooks();
    let folded = codes.first().map_or(0, |s| s.len() / groups);
    let mut full = Tensor2D::zeros(len + folded + tail.len() / head_dim, head_dim);
    full.as_mut_slice()[..len * head_dim].copy_from_slice(&base.as_slice()[..len * head_dim]);
    for row in 0..folded {
        let orow = full.row_mut(len + row);
        for (r, stream) in codes.iter().enumerate() {
            for (g, out) in orow.chunks_exact_mut(vs).enumerate() {
                let book = books.book(r, books.scope_index(0, g * vs));
                book.accumulate(stream.get(row * groups + g), out);
            }
        }
    }
    for (row, group, values) in outliers.iter() {
        for (o, &v) in full.row_mut(len + row)[group * vs..].iter_mut().zip(values) {
            *o += v;
        }
    }
    full.as_mut_slice()[(len + folded) * head_dim..].copy_from_slice(tail);
    full
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
}

/// Real host execution: plans exactly like [`PerfModelBackend`], but
/// `run_*` executes the fused [`host_exec`] kernels directly on packed
/// codes — no dequantized weight matrix, codebooks and LUT slabs sized to
/// stay cache-resident, SIMD-tiered inner loops, and optional
/// row/column parallelism on the shared persistent worker pool. A plan
/// reaches execution only as the key of its modelled counters.
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
/// modelled output of. A registered context serves through two canonical
/// plans, fixed at registration, so the working set is two entries per
/// registered context; past the cap the oldest entry is dropped and would
/// simply be modelled again.
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

    /// This backend's threading; nothing of the plan enters host execution.
    fn blocking(&self) -> HostBlocking {
        HostBlocking::default().with_threads(self.threads)
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
        let c = host_exec::gemm_fused(a, wq, &self.blocking())?;
        Ok((c, self.output_for(gpu, plan, wq)))
    }

    fn run_attention(
        &self,
        gpu: &GpuSpec,
        plan: &KernelPlan,
        batch: &AttentionBatch<'_>,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        // The fused kernel: K's packed codes are streamed once for a whole
        // lane block of queries and stopped at the longest attended prefix
        // (the LUT score pass), the value pass multiply-adds V's codebook
        // entries straight into per-lane register accumulators, private
        // extensions are expanded per query.
        let out = host_exec::attention_decode(batch, kq, vq, &self.blocking())?;
        Ok((out, self.output_for(gpu, plan, kq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_exec::{CodeStream, OutlierBuf, RaggedExt};
    use vqllm_tensor::{metrics, synth};
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
        let x = Tensor2D::from_fn(1, 256, |_, i| (i as f32 * 0.17).cos());
        let op = ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 1,
        };
        let plan = plan_for(&vq, &op);
        let gpu = GpuSpec::rtx4090();
        let (cpu, _) = CpuBackend::auto().run_gemm(&gpu, &plan, &x, &wq).unwrap();
        let (model, _) = PerfModelBackend.run_gemm(&gpu, &plan, &x, &wq).unwrap();
        assert!(metrics::allclose(
            cpu.as_slice(),
            model.as_slice(),
            1e-4,
            1e-4
        ));
        let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), x.row(0)).unwrap();
        assert!(metrics::allclose(cpu.as_slice(), &oracle, 1e-4, 1e-4));
    }

    #[test]
    fn modelled_output_is_resolved_once_per_plan_and_equals_a_fresh_estimate() {
        let vq = VqAlgorithm::Gptvq2.config();
        let w = synth::correlated_channels(64, 64, 4, 0.9, 3);
        let wq = VqQuantizer::new(vq).quantize(&w, 1).unwrap();
        let a = synth::gaussian(8, 64, 1.0, 5);
        let x = Tensor2D::from_fn(1, 64, |_, i| (i as f32 * 0.17).cos());
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
            let (_, out) = backend.run_gemm(&gpu, &gemv_plan, &x, &wq).unwrap();
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

    /// What the three attention tests share: a 320×32 CQ-4 context and its
    /// plan, three queries, and the storage behind one extension of each
    /// kind — two folded rows whose every group keeps its residual as an
    /// outlier (so they reconstruct exactly) plus a tail row, none, and a
    /// tail row alone.
    struct AttentionFixture {
        kq: QuantizedTensor,
        vq: QuantizedTensor,
        plan: KernelPlan,
        gpu: GpuSpec,
        qs: Tensor2D,
        rows: Vec<Vec<f32>>,
        k_folded: (Vec<CodeStream>, OutlierBuf),
        v_folded: (Vec<CodeStream>, OutlierBuf),
    }

    const SEQ: usize = 320;
    const LENS: [usize; 3] = [40, SEQ, 9];

    impl AttentionFixture {
        fn new() -> Self {
            let cfg = VqAlgorithm::Cq4.config();
            let quantize = |seed| {
                let t = synth::kv_stream(SEQ, 32, 0.8, seed);
                VqQuantizer::new(cfg).quantize(&t, seed).unwrap()
            };
            let (kq, vq) = (quantize(30), quantize(31));
            let rows: Vec<Vec<f32>> = (0..3)
                .map(|i| {
                    (0..32)
                        .map(|j| ((i * 11 + j) as f32 * 0.33).sin())
                        .collect()
                })
                .collect();
            let vs = cfg.vector_size;
            let fold = |books: &vqllm_vq::CodebookSet| {
                let mut codes = vec![CodeStream::new(cfg.index_bits()); cfg.residuals];
                let mut outliers = OutlierBuf::default();
                for (i, row) in rows[..2].iter().enumerate() {
                    for (g, sub) in row.chunks_exact(vs).enumerate() {
                        let mut resid = sub.to_vec();
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
                        outliers.push(i, g, &resid);
                    }
                }
                (codes, outliers)
            };
            AttentionFixture {
                k_folded: fold(kq.codebooks()),
                v_folded: fold(vq.codebooks()),
                plan: plan_for(&cfg, &ComputeOp::attention_decode(1, 32, SEQ, 3)),
                gpu: GpuSpec::rtx4090(),
                qs: Tensor2D::from_fn(3, 32, |b, d| ((b * 7 + d) as f32 * 0.19).sin()),
                kq,
                vq,
                rows,
            }
        }

        fn exts(&self) -> [RaggedExt<'_>; 3] {
            [
                RaggedExt {
                    rows: 2,
                    k_codes: &self.k_folded.0,
                    v_codes: &self.v_folded.0,
                    k_outliers: self.k_folded.1.view(),
                    v_outliers: self.v_folded.1.view(),
                    k_tail: &self.rows[2],
                    v_tail: &self.rows[2],
                },
                RaggedExt::default(),
                RaggedExt {
                    k_tail: &self.rows[0],
                    v_tail: &self.rows[0],
                    ..RaggedExt::default()
                },
            ]
        }

        fn run(&self, backend: &dyn Backend, batch: &AttentionBatch<'_>) -> Result<Tensor2D> {
            let (out, counters) =
                backend.run_attention(&self.gpu, &self.plan, batch, &self.kq, &self.vq)?;
            assert!(counters.us() > 0.0);
            Ok(out)
        }

        /// The fused body against the one reference body (the trait
        /// default, which `PerfModelBackend` inherits) on `batch`; returns
        /// the fused output.
        fn fused_agrees_with_reference(&self, batch: &AttentionBatch<'_>) -> Tensor2D {
            let fused = self.run(&CpuBackend::with_threads(2), batch).unwrap();
            let reference = self.run(&PerfModelBackend, batch).unwrap();
            assert!(metrics::allclose(
                fused.as_slice(),
                reference.as_slice(),
                1e-4,
                1e-4
            ));
            fused
        }

        /// Both bodies run the one validation: `batch` is rejected by each.
        fn both_reject(&self, batch: &AttentionBatch<'_>) {
            assert!(self.run(&CpuBackend::new(), batch).is_err());
            assert!(self.run(&PerfModelBackend, batch).is_err());
        }
    }

    #[test]
    fn attention_batch_matches_looped_default() {
        let fx = AttentionFixture::new();
        let (qs, lens) = (&fx.qs, &[SEQ; 3][..]);
        let fused = fx.fused_agrees_with_reference(&AttentionBatch {
            qs,
            lens,
            exts: &[],
        });
        // The named shapes are descriptions of that one call: the batch
        // method is it, and a head alone is one lane of the same chain.
        let backend = CpuBackend::with_threads(2);
        let (batch, _) = backend
            .run_attention_batch(&fx.gpu, &fx.plan, qs, &fx.kq, &fx.vq)
            .unwrap();
        assert_eq!(batch, fused);
        for b in 0..qs.rows() {
            let (single, _) = backend
                .run_attention_head(&fx.gpu, &fx.plan, qs.row(b), &fx.kq, &fx.vq)
                .unwrap();
            assert_eq!(fused.row(b), single, "query {b}");
        }
        // Empty batches are rejected, not silently mis-shaped.
        fx.both_reject(&AttentionBatch {
            qs: &Tensor2D::zeros(0, 32),
            lens: &[],
            exts: &[],
        });
    }

    #[test]
    fn attention_ragged_agrees_across_backends() {
        let fx = AttentionFixture::new();
        let qs = &fx.qs;
        let fused = fx.fused_agrees_with_reference(&AttentionBatch {
            qs,
            lens: &LENS,
            exts: &[],
        });
        let (ragged, _) = CpuBackend::with_threads(2)
            .run_attention_ragged(&fx.gpu, &fx.plan, qs, &LENS, &fx.kq, &fx.vq)
            .unwrap();
        assert_eq!(ragged, fused);
        // Invalid lengths are rejected on both paths.
        for lens in [&[0, 1, 1][..], &[1, 1, SEQ + 1], &[1, 1]] {
            fx.both_reject(&AttentionBatch {
                qs,
                lens,
                exts: &[],
            });
        }
    }

    #[test]
    fn attention_ragged_tailed_agrees_across_backends() {
        let fx = AttentionFixture::new();
        let (qs, exts) = (&fx.qs, fx.exts());
        let fused = fx.fused_agrees_with_reference(&AttentionBatch {
            qs,
            lens: &LENS,
            exts: &exts,
        });
        let backend = CpuBackend::with_threads(2);
        let (tailed, _) = backend
            .run_attention_ragged_tailed(&fx.gpu, &fx.plan, qs, &LENS, &exts, &fx.kq, &fx.vq)
            .unwrap();
        assert_eq!(tailed, fused);
        // With every extension empty both paths reduce to the plain
        // ragged decode.
        let empty = [RaggedExt::default(); 3];
        let (no_ext, _) = backend
            .run_attention_ragged_tailed(&fx.gpu, &fx.plan, qs, &LENS, &empty, &fx.kq, &fx.vq)
            .unwrap();
        let (plain, _) = backend
            .run_attention_ragged(&fx.gpu, &fx.plan, qs, &LENS, &fx.kq, &fx.vq)
            .unwrap();
        assert_eq!(no_ext, plain, "empty extensions must be bitwise invisible");
        // Mismatched extension counts are rejected on both paths.
        fx.both_reject(&AttentionBatch {
            qs,
            lens: &LENS,
            exts: &exts[..2],
        });
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
