//! End-to-end latency pipeline (paper Fig. 17).
//!
//! Walks one decode step of a Llama decoder — seven linear layers,
//! attention over the KV cache, and the RMSNorm/SiLU/RoPE element-wise
//! operators — pricing each with the corresponding kernel estimator, then
//! scales to a full generation run (prefill + N decode steps).

use crate::kv::{KvStorage, DECODE_QUANT_OVERHEAD_US, PREFILL_QUANT_OVERHEAD_FRAC};
use crate::model::LlamaConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vqllm_core::plan_cache::{self, PlanCache, PlanKey, PlanRequest};
use vqllm_core::{ComputeOp, KernelPlan, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_kernels::backend::{Backend, PerfModelBackend};
use vqllm_kernels::fp16::AttnBaseline;
use vqllm_kernels::{elementwise, fp16, AccessProfile};
use vqllm_vq::VqAlgorithm;

/// Which quantization scheme the pipeline runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantScheme {
    /// FP16 weights and KV cache (cutlass + flash kernels).
    Fp16,
    /// qServe: AWQ-4 weights + QoQ-4 KV cache.
    QServe4,
    /// VQ-LLM with a weight algorithm, a KV algorithm, and an optimization
    /// level (O4 = the shipped configuration).
    VqLlm {
        /// Weight quantizer (QuiP#-4, AQLM-3, GPTVQ-2).
        weight: VqAlgorithm,
        /// KV quantizer (CQ-4, CQ-2).
        kv: VqAlgorithm,
        /// Optimization level of the generated kernels.
        opt: OptLevel,
    },
}

impl QuantScheme {
    /// The paper's 4-bit VQ-LLM configuration (QuiP#-4 + CQ-4, fully
    /// optimized).
    pub fn vq_llm_4bit() -> Self {
        QuantScheme::VqLlm {
            weight: VqAlgorithm::QuipSharp4,
            kv: VqAlgorithm::Cq4,
            opt: OptLevel::O4,
        }
    }

    /// The 2-bit configuration (GPTVQ-2 + CQ-2).
    pub fn vq_llm_2bit() -> Self {
        QuantScheme::VqLlm {
            weight: VqAlgorithm::Gptvq2,
            kv: VqAlgorithm::Cq2,
            opt: OptLevel::O4,
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            QuantScheme::Fp16 => "FP16".to_string(),
            QuantScheme::QServe4 => "qServe (4 bit)".to_string(),
            QuantScheme::VqLlm { weight, kv, .. } => {
                format!("VQ-LLM ({} + {})", weight.name(), kv.name())
            }
        }
    }

    /// KV storage backing implied by the scheme.
    pub fn kv_storage(&self) -> KvStorage {
        match self {
            QuantScheme::Fp16 => KvStorage::Fp16,
            QuantScheme::QServe4 => KvStorage::Int4,
            QuantScheme::VqLlm { kv, .. } => KvStorage::Vq {
                bits_per_element: kv.config().equivalent_bits(),
            },
        }
    }

    /// Weight bits per element.
    pub fn weight_bits(&self) -> f64 {
        match self {
            QuantScheme::Fp16 => 16.0,
            QuantScheme::QServe4 => 4.25,
            QuantScheme::VqLlm { weight, .. } => weight.config().equivalent_bits(),
        }
    }
}

/// Latency breakdown of one decode step (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DecodeBreakdown {
    /// All linear layers across all decoder layers.
    pub linear_us: f64,
    /// Attention over the KV cache.
    pub attention_us: f64,
    /// RMSNorm / SiLU / RoPE / residual adds.
    pub elementwise_us: f64,
    /// On-the-fly KV quantization.
    pub kv_quant_us: f64,
}

impl DecodeBreakdown {
    /// Total step latency.
    pub fn total_us(&self) -> f64 {
        self.linear_us + self.attention_us + self.elementwise_us + self.kv_quant_us
    }
}

/// End-to-end generation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eReport {
    /// Scheme name.
    pub scheme: String,
    /// Prefill latency, milliseconds.
    pub prefill_ms: f64,
    /// Total decode latency, milliseconds.
    pub decode_ms: f64,
    /// Tokens generated.
    pub tokens: usize,
    /// Average decode-step breakdown.
    pub step: DecodeBreakdown,
    /// Weights + KV memory, gigabytes.
    pub memory_gb: f64,
}

impl E2eReport {
    /// Total latency (prefill + decode), milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.prefill_ms + self.decode_ms
    }
}

/// E2E latency pipeline for one (device, model, scheme) triple.
///
/// Kernel plans for the decode-step operators are memoized in a
/// [`PlanCache`]: each unique `(vq algorithm, op)` pair is planned once
/// and every later decode step — and every other pipeline or `Session`
/// sharing the cache — reuses the `Arc`'d plan.
#[derive(Debug, Clone)]
pub struct Pipeline {
    gpu: GpuSpec,
    /// Precomputed full-spec cache identity ([`plan_cache::gpu_identity`])
    /// so per-op cache lookups don't re-render the spec.
    gpu_identity: Arc<str>,
    model: LlamaConfig,
    scheme: QuantScheme,
    cache: Arc<PlanCache>,
    /// Execution backend supplying planning and estimation (the `Session`
    /// facade passes its own, so one workload runs identically on the
    /// performance model or a real substrate).
    backend: Arc<dyn Backend>,
}

impl Pipeline {
    /// Creates a pipeline with a private plan cache.
    pub fn new(gpu: GpuSpec, model: LlamaConfig, scheme: QuantScheme) -> Self {
        Pipeline::with_cache(gpu, model, scheme, Arc::new(PlanCache::new()))
    }

    /// Creates a pipeline sharing an existing plan cache (the `Session`
    /// facade passes its own so all pipelines of a session reuse plans).
    pub fn with_cache(
        gpu: GpuSpec,
        model: LlamaConfig,
        scheme: QuantScheme,
        cache: Arc<PlanCache>,
    ) -> Self {
        Pipeline {
            gpu_identity: plan_cache::gpu_identity(&gpu),
            gpu,
            model,
            scheme,
            cache,
            backend: Arc::new(PerfModelBackend),
        }
    }

    /// Replaces the execution backend (default: [`PerfModelBackend`]).
    pub fn with_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = backend;
        self
    }

    /// The configured scheme.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// The configured model shape.
    pub fn model(&self) -> LlamaConfig {
        self.model
    }

    /// The target device (the serving scheduler routes its kernel calls
    /// through the same spec the plans were made for).
    pub(crate) fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The execution backend.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The plan cache memoizing this pipeline's kernel plans.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Latency of one decode step at `seq` cached tokens and `batch`
    /// samples.
    pub fn decode_step(&self, seq: usize, batch: usize) -> DecodeBreakdown {
        let m = &self.model;

        // Linear layers (weights are shared across the batch).
        let mut linear_us = 0.0;
        for (n, k) in m.linear_shapes() {
            linear_us += self.linear_latency_us(n, k, batch);
        }
        linear_us *= m.layers as f64;

        // Attention over the whole model.
        let attention_us = self.attention_latency_us(seq, batch) * m.layers as f64;

        // Element-wise operators: 2×RMSNorm, SiLU, RoPE, 2×residual per
        // layer — tiny traffic, launch-overhead bound at decode batch
        // sizes (the paper's ~10-20 % tail).
        let elem_bytes = (batch * m.hidden * 2 * 3) as f64;
        let per_op = (elem_bytes / self.gpu.peak_bw_bytes() * 1e6).max(2.0);
        let elementwise_us = per_op * 6.0 * m.layers as f64;

        let kv_quant_us = match self.scheme.kv_storage() {
            KvStorage::Fp16 => 0.0,
            _ => DECODE_QUANT_OVERHEAD_US,
        };

        DecodeBreakdown {
            linear_us,
            attention_us,
            elementwise_us,
            kv_quant_us,
        }
    }

    /// Prefill latency for `prompt` tokens at `batch`, in milliseconds.
    pub fn prefill_ms(&self, prompt: usize, batch: usize) -> f64 {
        let m = &self.model;
        let rows = prompt * batch;
        let mut us = 0.0;
        for (n, k) in m.linear_shapes() {
            us += self.gemm_latency_us(rows, n, k);
        }
        // Prefill attention: causal QK^T + PV at FP16 on tensor cores.
        let attn_flops =
            (batch * m.heads) as f64 * 2.0 * (prompt as f64 * prompt as f64 * m.head_dim as f64);
        let attn_us = attn_flops / (self.gpu.peak_flops() * self.gpu.mma_multiplier) * 1e6;
        us += attn_us;
        us *= m.layers as f64;
        // On-the-fly quantization of the prompt's KV: < 10 % of the linear
        // projections (paper §VII-F).
        if !matches!(self.scheme.kv_storage(), KvStorage::Fp16) {
            us *= 1.0 + PREFILL_QUANT_OVERHEAD_FRAC;
        }
        us / 1000.0
    }

    /// Full generation run: prefill then `gen_tokens` decode steps.
    pub fn generate(&self, prompt: usize, gen_tokens: usize, batch: usize) -> E2eReport {
        let prefill_ms = self.prefill_ms(prompt, batch);
        // Decode cost grows with the cache; sample at the midpoint
        // sequence length (latency is affine in seq, so this is exact for
        // the sum).
        let mid = prompt + gen_tokens / 2;
        let step = self.decode_step(mid, batch);
        let decode_ms = step.total_us() * gen_tokens as f64 / 1000.0;

        let weight_gb = self.model.decoder_params() as f64 * self.scheme.weight_bits() / 8.0 / 1e9;
        let kv_gb = self.model.kv_bytes_fp16(prompt + gen_tokens, batch) as f64
            * (self.scheme.kv_storage().bits() / 16.0)
            / 1e9;

        E2eReport {
            scheme: self.scheme.name(),
            prefill_ms,
            decode_ms,
            tokens: gen_tokens,
            step,
            memory_gb: weight_gb + kv_gb,
        }
    }

    /// Executes one decode linear layer for real: activations `x`
    /// (`batch × k`, one row per in-flight sequence) against the quantized
    /// weight `wq` (`k × n`), through the pipeline's backend and plan
    /// cache.
    ///
    /// This is the serving-layer execution hook: a single-token batch is
    /// planned and run as a GeMV, while a multi-token batch is planned as
    /// the **GeMM-shaped decode op** (`m = batch`) and routed through
    /// [`Backend::run_gemm`] — on a `CpuBackend` that is the fused batched
    /// path, which streams the weight's packed codes once per lane block
    /// of the batch instead of once per sequence.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidInput`] when no launchable plan
    /// exists for the decode shape, or a shape error from the backend.
    ///
    /// [`KernelError::InvalidInput`]: vqllm_kernels::KernelError::InvalidInput
    pub fn run_linear(
        &self,
        x: &vqllm_tensor::Tensor2D,
        wq: &vqllm_vq::QuantizedTensor,
    ) -> vqllm_kernels::Result<(vqllm_tensor::Tensor2D, vqllm_kernels::KernelOutput)> {
        let vq = *wq.config();
        let (k, n) = wq.shape();
        let opt = match self.scheme {
            QuantScheme::VqLlm { opt, .. } => opt,
            _ => OptLevel::O4,
        };
        let profile = AccessProfile::default_for(&vq);
        let op = if x.rows() == 1 {
            ComputeOp::Gemv { n, k, batch: 1 }
        } else {
            ComputeOp::Gemm { m: x.rows(), n, k }
        };
        let plan = self.vq_plan(&vq, &op, opt, &profile).ok_or(
            vqllm_kernels::KernelError::InvalidInput {
                what: "no launchable plan for decode linear",
            },
        )?;
        if x.rows() == 1 {
            let (y, out) = self.backend.run_gemv(&self.gpu, &plan, x.row(0), wq)?;
            let y =
                vqllm_tensor::Tensor2D::from_vec(1, y.len(), y).expect("gemv output is one row");
            Ok((y, out))
        } else {
            self.backend.run_gemm(&self.gpu, &plan, x, wq)
        }
    }

    /// Executes one attention head for a batch of decode queries (`qs` is
    /// `batch × head_dim`) over shared quantized K/V caches, planned
    /// through the cache and routed to [`Backend::run_attention_batch`]
    /// (the fused batched kernel on a `CpuBackend`).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidInput`] when no launchable plan
    /// exists for the attention shape, or a shape error from the backend.
    ///
    /// [`KernelError::InvalidInput`]: vqllm_kernels::KernelError::InvalidInput
    pub fn run_attention_heads(
        &self,
        qs: &vqllm_tensor::Tensor2D,
        kq: &vqllm_vq::QuantizedTensor,
        vq_cache: &vqllm_vq::QuantizedTensor,
    ) -> vqllm_kernels::Result<(vqllm_tensor::Tensor2D, vqllm_kernels::KernelOutput)> {
        let vq = *kq.config();
        let opt = match self.scheme {
            QuantScheme::VqLlm { opt, .. } => opt,
            _ => OptLevel::O4,
        };
        let profile = AccessProfile::default_for(&vq);
        let (seq, head_dim) = kq.shape();
        let op = ComputeOp::attention_decode(1, head_dim, seq, qs.rows().max(1));
        let plan = self.vq_plan(&vq, &op, opt, &profile).ok_or(
            vqllm_kernels::KernelError::InvalidInput {
                what: "no launchable plan for decode attention",
            },
        )?;
        self.backend
            .run_attention_batch(&self.gpu, &plan, qs, kq, vq_cache)
    }

    fn linear_latency_us(&self, n: usize, k: usize, batch: usize) -> f64 {
        match self.scheme {
            QuantScheme::Fp16 => fp16::gemv(&self.gpu, n, k, batch).us(),
            QuantScheme::QServe4 => elementwise::awq_gemv(&self.gpu, n, k, batch).us(),
            QuantScheme::VqLlm { weight, opt, .. } => {
                let vq = weight.config();
                let op = ComputeOp::Gemv { n, k, batch };
                self.vq_latency_us(&vq, &op, opt)
                    .unwrap_or_else(|| fp16::gemv(&self.gpu, n, k, batch).us())
            }
        }
    }

    fn attention_latency_us(&self, seq: usize, batch: usize) -> f64 {
        let m = &self.model;
        match self.scheme {
            QuantScheme::Fp16 => fp16::attention(
                &self.gpu,
                AttnBaseline::FlashDecoding,
                batch,
                m.heads,
                m.head_dim,
                seq,
            )
            .us(),
            QuantScheme::QServe4 => {
                elementwise::qoq_attention(&self.gpu, batch, m.heads, m.head_dim, seq).us()
            }
            QuantScheme::VqLlm { kv, opt, .. } => {
                let vq = kv.config();
                let op = ComputeOp::attention_decode(m.heads, m.head_dim, seq, batch);
                self.vq_latency_us(&vq, &op, opt).unwrap_or_else(|| {
                    fp16::attention(
                        &self.gpu,
                        AttnBaseline::FlashDecoding,
                        batch,
                        m.heads,
                        m.head_dim,
                        seq,
                    )
                    .us()
                })
            }
        }
    }

    fn gemm_latency_us(&self, m_rows: usize, n: usize, k: usize) -> f64 {
        match self.scheme {
            QuantScheme::Fp16 => fp16::gemm(&self.gpu, m_rows, n, k).us(),
            QuantScheme::QServe4 => elementwise::awq_gemm(&self.gpu, m_rows, n, k).us(),
            QuantScheme::VqLlm { weight, opt, .. } => {
                let vq = weight.config();
                let op = ComputeOp::Gemm { m: m_rows, n, k };
                self.vq_latency_us(&vq, &op, opt)
                    .unwrap_or_else(|| fp16::gemm(&self.gpu, m_rows, n, k).us())
            }
        }
    }

    /// VQ kernel latency at the requested level; `O4` means the fully
    /// adaptive framework (fastest rung per the planner's heuristics, the
    /// paper's "best perform version"). Plans are memoized in the
    /// pipeline's [`PlanCache`], so only the first request per
    /// `(vq, op, opt)` key runs the planner.
    fn vq_latency_us(&self, vq: &vqllm_vq::VqConfig, op: &ComputeOp, opt: OptLevel) -> Option<f64> {
        let profile = AccessProfile::default_for(vq);
        let plan = self.vq_plan(vq, op, opt, &profile)?;
        Some(self.backend.estimate(&self.gpu, &plan, &profile).us())
    }

    /// Memoized plan lookup: `O4` resolves to the adaptive best plan
    /// under `profile` (fingerprinted into the key via the canonical
    /// [`PlanKey::best`] recipe, so `Session` shares the entry), lower
    /// levels to a fixed-rung plan. `pub(crate)` so the serving scheduler
    /// plans its canonical decode shapes through the same cache.
    pub(crate) fn vq_plan(
        &self,
        vq: &vqllm_vq::VqConfig,
        op: &ComputeOp,
        opt: OptLevel,
        profile: &AccessProfile,
    ) -> Option<Arc<KernelPlan>> {
        self.vq_plan_profiled(vq, op, opt, profile, &ProfileSummary::default_for(vq))
            .map(|(_, plan)| plan)
    }

    /// [`Pipeline::vq_plan`] with an explicit **measured** profile summary
    /// (the profile-feedback seam): the key carries the measured hot-entry
    /// count and the estimation profile's fingerprint via the canonical
    /// [`PlanKey::best_profiled`] recipe, so two engines measuring the
    /// same tensors share one cache entry while a shifted distribution
    /// never aliases a stale decision. Returns the key alongside the plan
    /// so the caller can later invalidate exactly this entry.
    pub(crate) fn vq_plan_profiled(
        &self,
        vq: &vqllm_vq::VqConfig,
        op: &ComputeOp,
        opt: OptLevel,
        profile: &AccessProfile,
        summary: &ProfileSummary,
    ) -> Option<(PlanKey, Arc<KernelPlan>)> {
        let (key, request) = if opt == OptLevel::O4 {
            (
                PlanKey::best_profiled(
                    Arc::clone(&self.gpu_identity),
                    vq,
                    op,
                    summary,
                    profile.fingerprint(),
                ),
                PlanRequest::Best,
            )
        } else {
            (
                PlanKey::with_identity(
                    Arc::clone(&self.gpu_identity),
                    vq,
                    op,
                    PlanRequest::At(opt),
                    summary,
                ),
                PlanRequest::At(opt),
            )
        };
        let plan = self
            .cache
            .get_or_try_insert_with(key.clone(), || -> Result<KernelPlan, ()> {
                self.backend
                    .plan_request(&self.gpu, vq, op, request, profile, summary)
                    .map_err(|_| ())
            })
            .ok()?;
        Some((key, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scheme: QuantScheme) -> E2eReport {
        Pipeline::new(GpuSpec::rtx4090(), LlamaConfig::llama_7b(), scheme).generate(1024, 256, 16)
    }

    #[test]
    fn vq_llm_4bit_speedup_is_paperlike() {
        // Paper Fig. 17: both qServe-4 and VQ-LLM-4 land around 2.2× over
        // FP16 at batch 16.
        let fp16 = report(QuantScheme::Fp16);
        let vq = report(QuantScheme::vq_llm_4bit());
        let speedup = fp16.total_ms() / vq.total_ms();
        assert!(
            speedup > 1.6 && speedup < 3.5,
            "speedup {speedup} (fp16 {} ms, vq {} ms)",
            fp16.total_ms(),
            vq.total_ms()
        );
    }

    #[test]
    fn two_bit_beats_four_bit() {
        // Paper: "a greater speedup with a 2-bit compression ratio".
        let v4 = report(QuantScheme::vq_llm_4bit());
        let v2 = report(QuantScheme::vq_llm_2bit());
        assert!(
            v2.total_ms() < v4.total_ms(),
            "2-bit {} !< 4-bit {}",
            v2.total_ms(),
            v4.total_ms()
        );
    }

    #[test]
    fn vq_llm_is_comparable_to_qserve() {
        let qserve = report(QuantScheme::QServe4);
        let vq = report(QuantScheme::vq_llm_4bit());
        let ratio = vq.total_ms() / qserve.total_ms();
        assert!(ratio > 0.6 && ratio < 1.5, "ratio {ratio}");
    }

    #[test]
    fn a40_speedup_is_comparable() {
        // Paper §VII-E reports a *greater* E2E speedup on the
        // bandwidth-constrained A40. Our model lands slightly below the
        // 4090 instead, because the dequantization's SM-cycle costs scale
        // with the A40's weaker compute while the FP16 baseline's
        // bottleneck scales with bandwidth — a documented deviation
        // (EXPERIMENTS.md, Fig. 17). We assert the speedups stay within
        // 20 % of each other and both remain ≫ 1.
        let speedup = |gpu: GpuSpec| {
            let fp = Pipeline::new(gpu.clone(), LlamaConfig::llama_7b(), QuantScheme::Fp16)
                .generate(1024, 256, 16);
            let vq = Pipeline::new(gpu, LlamaConfig::llama_7b(), QuantScheme::vq_llm_4bit())
                .generate(1024, 256, 16);
            fp.total_ms() / vq.total_ms()
        };
        let s4090 = speedup(GpuSpec::rtx4090());
        let sa40 = speedup(GpuSpec::a40());
        assert!(sa40 > 1.7, "A40 speedup {sa40}");
        assert!(sa40 > s4090 * 0.8, "A40 {sa40} vs 4090 {s4090}");
    }

    #[test]
    fn memory_matches_paper_footprints() {
        // Paper §VII-E: FP16 > 22 GB (with activations); qServe-4 and
        // VQ-LLM-4 < 6 GB for weights+KV.
        let fp16 = report(QuantScheme::Fp16);
        let vq = report(QuantScheme::vq_llm_4bit());
        assert!(fp16.memory_gb > 20.0, "{}", fp16.memory_gb);
        assert!(vq.memory_gb < 6.5, "{}", vq.memory_gb);
    }

    #[test]
    fn elementwise_share_is_the_paper_tail() {
        // ~10 % at FP16, roughly doubling in share once the rest shrinks.
        let fp16 = report(QuantScheme::Fp16);
        let share_fp16 = fp16.step.elementwise_us / fp16.step.total_us();
        let vq = report(QuantScheme::vq_llm_4bit());
        let share_vq = vq.step.elementwise_us / vq.step.total_us();
        assert!(share_fp16 < 0.2, "{share_fp16}");
        assert!(share_vq > share_fp16, "{share_vq} !> {share_fp16}");
    }

    #[test]
    fn run_linear_routes_batch_through_gemm_path() {
        use vqllm_kernels::backend::CpuBackend;
        use vqllm_tensor::{linalg, metrics, synth, Tensor2D};
        use vqllm_vq::{VqAlgorithm, VqQuantizer};

        let pipeline = Pipeline::new(
            GpuSpec::rtx4090(),
            LlamaConfig::llama_7b(),
            QuantScheme::vq_llm_2bit(),
        )
        .with_backend(Arc::new(CpuBackend::with_threads(2)));
        let w = synth::correlated_channels(256, 64, 4, 0.9, 3);
        let wq = VqQuantizer::new(VqAlgorithm::Gptvq2.config())
            .quantize(&w, 1)
            .unwrap();
        let w_ref = wq.dequantize().unwrap();

        // Single-token decode plans a GeMV; the batch plans a GeMM.
        for batch in [1usize, 4] {
            let x = Tensor2D::from_fn(batch, 256, |b, i| ((b * 7 + i) as f32 * 0.13).sin());
            let (y, out) = pipeline.run_linear(&x, &wq).expect("run_linear");
            assert_eq!(y.shape(), (batch, 64));
            assert!(out.us() > 0.0);
            let oracle = linalg::matmul(&x, &w_ref).unwrap();
            assert!(
                metrics::allclose(y.as_slice(), oracle.as_slice(), 1e-4, 1e-4),
                "batch {batch}"
            );
        }
        // Both plans are memoized: a second batch run must hit the cache.
        let before = pipeline.plan_cache().stats().hits;
        let x = Tensor2D::from_fn(4, 256, |b, i| ((b + i) as f32 * 0.29).cos());
        pipeline.run_linear(&x, &wq).expect("cached run");
        assert!(pipeline.plan_cache().stats().hits > before);
    }

    #[test]
    fn run_attention_heads_matches_reference() {
        use vqllm_kernels::backend::CpuBackend;
        use vqllm_tensor::{linalg, metrics, synth, Tensor2D};
        use vqllm_vq::{VqAlgorithm, VqQuantizer};

        let pipeline = Pipeline::new(
            GpuSpec::rtx4090(),
            LlamaConfig::llama_7b(),
            QuantScheme::vq_llm_4bit(),
        )
        .with_backend(Arc::new(CpuBackend::new()));
        let cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 4);
        let v = synth::kv_stream(320, 32, 0.8, 5);
        let kq = VqQuantizer::new(cfg).quantize(&k, 1).unwrap();
        let vq = VqQuantizer::new(cfg).quantize(&v, 2).unwrap();
        let qs = Tensor2D::from_fn(3, 32, |b, d| ((b * 11 + d) as f32 * 0.31).sin());
        let (out, _) = pipeline
            .run_attention_heads(&qs, &kq, &vq)
            .expect("attention");
        assert_eq!(out.shape(), (3, 32));
        let scale = 1.0 / (32.0f32).sqrt();
        for b in 0..3 {
            let oracle = linalg::attention_decode_ref(
                qs.row(b),
                &kq.dequantize().unwrap(),
                &vq.dequantize().unwrap(),
                scale,
            )
            .unwrap();
            assert!(
                metrics::allclose(out.row(b), &oracle, 1e-4, 1e-4),
                "query {b}"
            );
        }
    }

    #[test]
    fn kv_quant_overhead_is_negligible() {
        let vq = report(QuantScheme::vq_llm_4bit());
        assert!(vq.step.kv_quant_us < 1.0);
        assert!(vq.step.kv_quant_us / vq.step.total_us() < 0.01);
    }
}
