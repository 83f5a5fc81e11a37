//! The probe phase: each layer's public calls timed in isolation, on the
//! workload's own operands.
//!
//! The centrepiece is [`replay`]: the traced phase recorded every step's
//! batch composition and kept every request's rows, so the identical
//! kernel calls — same queries, same prefix lengths, same private
//! extensions — can be made again outside the scheduler and timed one by
//! one. What a step cost beyond them is the scheduler's own time.
//!
//! Nothing here reports an accelerator or hardware-counter figure. Bytes
//! are computed from tensor sizes and set against a copy rate measured in
//! the same process.

use crate::gen::Request;
use crate::load::PhaseResult;
use crate::setup;
use crate::spec::{self, Arrival, Workload};
use crate::trace::Clock;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use vq_llm::core::ComputeOp;
use vq_llm::kernels::host_exec::{self, pool::WorkerPool, HostBlocking};
use vq_llm::net::{json, proto, Admission};
use vq_llm::tensor::Tensor2D;
use vq_llm::{
    ContextHandle, DecodeRequest, Engine, KvQuantMode, NetRequest, PlanCache, Session, StreamEvent,
    TenantKv, VqAlgorithm,
};

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What replaying a window of recorded steps measured. Times are µs, one
/// sample per kernel call unless said otherwise.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Backend::run_attention_ragged` (live KV off).
    pub attn_ragged_us: Vec<f64>,
    /// `Backend::run_attention_ragged_tailed` (live KV on).
    pub attn_tailed_us: Vec<f64>,
    /// `host_exec::gemv_lut_batch` alone, every fourth step.
    pub score_us: Vec<f64>,
    /// The value-pass `run_gemm` alone, every fourth step.
    pub value_us: Vec<f64>,
    /// `Backend::run_gemm` through the projection weight.
    pub linear_us: Vec<f64>,
    /// `TenantKv::append`, one sample per lane per step.
    pub append_us: Vec<f64>,
    /// Recorded step time minus the replayed attention, linear and append
    /// time of the same step.
    pub step_self_us: Vec<f64>,
    /// Operand bytes of each replayed attention call.
    pub attn_bytes: Vec<f64>,
    /// Σ replayed attention + linear time, ns.
    pub kernel_ns: u64,
    /// Σ recorded wall time of the replayed steps, ns.
    pub step_ns: u64,
    /// Σ private-extension length over lanes, and lanes.
    pub ext_len: (u64, u64),
    /// Steps replayed.
    pub steps: usize,
    /// Replayed output rows that differ from the recorded ones (0 when
    /// the replay made the identical calls).
    pub row_mismatches: usize,
}

/// Operand bytes of one attention call at batch `b`: packed K and V
/// codes, their codebooks, the queries and the outputs — computed from
/// tensor sizes, not counted by hardware.
pub fn attention_bytes(ctx: &vq_llm::SharedContext, b: usize) -> f64 {
    let codes = ctx.kq().index_bytes() + ctx.vq().index_bytes();
    let books = ctx.kq().codebooks().total_bytes() + ctx.vq().codebooks().total_bytes();
    (codes + books + 2 * b * ctx.head_dim() * 4) as f64
}

/// Replays recorded steps of `result` (a traced engine-direct phase that
/// kept every row) against `engine`'s plans and backend, for at most
/// `budget_s` seconds.
pub fn replay(
    engine: &Engine,
    handles: &[ContextHandle],
    w: &Workload,
    reqs: &[Request],
    result: &PhaseResult,
    budget_s: f64,
    clock: Clock,
) -> Replay {
    let mut out = Replay::default();
    let backend = Arc::clone(engine.backend());
    let gpu = engine.gpu().clone();
    let live = w.kv_quant != KvQuantMode::Off;
    let steps = &result.steps;
    // Skip the first quarter (caches settling); rounds restart every
    // private extension, so start a live-KV replay on a round boundary.
    let mut start = steps.len() / 4;
    if matches!(w.arrival, Arrival::Rounds(_)) {
        start += steps[start..]
            .iter()
            .position(|s| s.lanes.iter().all(|l| l.1 == 0))
            .unwrap_or(0);
    }
    let mut kvs: HashMap<u32, TenantKv> = HashMap::new();
    // Operands of every fourth step, for the score / value passes alone —
    // timed afterwards so the replay itself touches memory in the order
    // the engine did.
    let mut alone: Vec<(usize, Tensor2D, Vec<usize>)> = Vec::new();
    let deadline = clock.now_ns() + (budget_s * 1e9) as u64;
    for (si, step) in steps[start..].iter().enumerate() {
        if clock.now_ns() >= deadline {
            break;
        }
        // A request still running when the phase ended has no rows.
        if step
            .lanes
            .iter()
            .any(|&(pos, _)| result.records[pos as usize].rows.is_none())
        {
            break;
        }
        let mut groups: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
        for &(pos, k) in &step.lanes {
            let ctx = reqs[result.records[pos as usize].idx].ctx;
            match groups.iter_mut().find(|(c, _)| *c == ctx) {
                Some((_, lanes)) => lanes.push((pos, k)),
                None => groups.push((ctx, vec![(pos, k)])),
            }
        }
        let mut spent = 0u64;
        for (ctx, lanes) in &groups {
            let h = handles[*ctx];
            let (Some(sc), Some(attn_plan), Some(linear_plan)) = (
                engine.context(h),
                engine.attention_plan(h),
                engine.linear_plan(h),
            ) else {
                continue;
            };
            let rows_of = |pos: u32| {
                result.records[pos as usize]
                    .rows
                    .as_deref()
                    .unwrap_or_default()
            };
            let req_of = |pos: u32| &reqs[result.records[pos as usize].idx];
            let qs = Tensor2D::from_fn(lanes.len(), sc.head_dim(), |i, d| {
                let (pos, k) = lanes[i];
                match k {
                    0 => req_of(pos).query[d],
                    k => rows_of(pos)[k as usize - 1][d],
                }
            });
            let lens: Vec<usize> = lanes
                .iter()
                .map(|&(pos, k)| req_of(pos).context_len + if live { 0 } else { k as usize })
                .collect();
            if live {
                for &(pos, k) in lanes {
                    let kv = kvs
                        .entry(pos)
                        .or_insert_with(|| TenantKv::new(sc, w.kv_quant).expect("live context"));
                    // Joining mid-request: rebuild what it had appended.
                    for row in &rows_of(pos)[kv.len()..k as usize] {
                        let _ = kv.append(row, row);
                    }
                    out.ext_len.0 += kv.len() as u64;
                    out.ext_len.1 += 1;
                }
            }
            let t0 = clock.now_ns();
            let attn = if live {
                let exts: Vec<_> = lanes.iter().map(|(pos, _)| kvs[pos].ext()).collect();
                backend.run_attention_ragged_tailed(
                    &gpu,
                    attn_plan,
                    &qs,
                    &lens,
                    &exts,
                    sc.kq(),
                    sc.vq(),
                )
            } else {
                backend.run_attention_ragged(&gpu, attn_plan, &qs, &lens, sc.kq(), sc.vq())
            };
            let t1 = clock.now_ns();
            let Ok((attn, _)) = attn else { continue };
            let ys = backend.run_gemm(&gpu, linear_plan, &attn, sc.wq());
            let t2 = clock.now_ns();
            let Ok((ys, _)) = ys else { continue };
            if live {
                out.attn_tailed_us.push(us(t1 - t0));
            } else {
                out.attn_ragged_us.push(us(t1 - t0));
            }
            out.linear_us.push(us(t2 - t1));
            out.attn_bytes.push(attention_bytes(sc, lanes.len()));
            spent += t2 - t0;
            out.kernel_ns += t2 - t0;
            for (i, &(pos, k)) in lanes.iter().enumerate() {
                let recorded = &rows_of(pos)[k as usize];
                let same = ys
                    .row(i)
                    .iter()
                    .zip(recorded)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                out.row_mismatches += usize::from(!same);
                // The final token of a request is returned, not appended.
                if live && (k as usize) + 1 < req_of(pos).gen_tokens {
                    let t = clock.now_ns();
                    let _ = kvs.get_mut(&pos).map(|kv| kv.append(recorded, recorded));
                    let dt = clock.now_ns() - t;
                    out.append_us.push(us(dt));
                    spent += dt;
                } else if live {
                    kvs.remove(&pos);
                }
            }
            if si % 4 == 0 {
                alone.push((*ctx, qs, lens));
            }
        }
        let wall = step.end_ns - step.start_ns;
        out.step_ns += wall;
        out.step_self_us.push(us(wall) - us(spent));
        out.steps += 1;
    }
    for (ctx, qs, lens) in &alone {
        let h = handles[*ctx];
        let (Some(sc), Some(attn_plan)) = (engine.context(h), engine.attention_plan(h)) else {
            continue;
        };
        let blocking = HostBlocking::for_plan(attn_plan).with_threads(spec::CPU_THREADS);
        let t = clock.now_ns();
        let _ = black_box(host_exec::gemv_lut_batch(sc.kq(), qs, &blocking));
        out.score_us.push(us(clock.now_ns() - t));
        let weights = Tensor2D::from_fn(qs.rows(), sc.seq(), |i, t| {
            if t < lens[i] {
                1.0 / lens[i] as f32
            } else {
                0.0
            }
        });
        let t = clock.now_ns();
        let _ = black_box(backend.run_gemm(&gpu, attn_plan, &weights, sc.vq()));
        out.value_us.push(us(clock.now_ns() - t));
    }
    out
}

/// Bytes read plus bytes written per second by a 64 MiB slice copy, GB/s,
/// best of five: the box's streaming rate the kernels' computed bytes are
/// set against.
pub fn stream_copy_gbps() -> f64 {
    const N: usize = 64 << 20;
    let src = vec![1u8; N];
    let mut dst = vec![0u8; N];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    2.0 * N as f64 / best / 1e9
}

/// `WorkerPool::shared().scope` spawning one empty job per kernel thread,
/// µs per call.
pub fn pool_scope_us(threads: usize, clock: Clock) -> Vec<f64> {
    let pool = WorkerPool::shared();
    (0..300)
        .map(|_| {
            let t = clock.now_ns();
            pool.scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {});
                }
            });
            us(clock.now_ns() - t)
        })
        .collect()
}

/// Planning the serving attention shape of the workload's first context
/// on an empty plan cache, then again: `(cold µs, warm µs samples)`.
pub fn plan_times(w: &Workload, clock: Clock) -> (f64, Vec<f64>) {
    let session = Session::builder()
        .cpu_threads(spec::CPU_THREADS)
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .plan_cache(Arc::new(PlanCache::new()))
        .build()
        .expect("session configuration is valid");
    let s = w.shapes[0];
    let op = ComputeOp::attention_decode(1, s.head_dim, s.seq, 1);
    let t = clock.now_ns();
    let _ = black_box(session.kv_plan(&op));
    let cold = us(clock.now_ns() - t);
    let warm = (0..200)
        .map(|_| {
            let t = clock.now_ns();
            let _ = black_box(session.kv_plan(&op));
            us(clock.now_ns() - t)
        })
        .collect();
    (cold, warm)
}

/// `PlanCache::save_to` then `load_from` into an empty cache, ms. The
/// file lives in `dir` and is removed.
pub fn plan_cache_save_load_ms(cache: &PlanCache, dir: &Path, clock: Clock) -> f64 {
    let path = dir.join(format!("plan-cache-probe-{}.txt", std::process::id()));
    let t = clock.now_ns();
    let saved = cache.save_to(&path);
    let loaded = PlanCache::new().load_from(&path);
    let ms = (clock.now_ns() - t) as f64 / 1e6;
    let _ = std::fs::remove_file(&path);
    if saved.is_ok() && loaded.is_ok() {
        ms
    } else {
        0.0
    }
}

/// `Engine::step` on an idle engine, µs per call.
pub fn idle_step_us(engine: &mut Engine, clock: Clock) -> Vec<f64> {
    (0..1000)
        .map(|_| {
            let t = clock.now_ns();
            let _ = black_box(engine.step());
            us(clock.now_ns() - t)
        })
        .collect()
}

/// `Admission::admit` + `pop` on the workload's own requests, µs per
/// pair, with nothing else queued.
pub fn admit_pop_us(
    w: &Workload,
    handles: &[ContextHandle],
    reqs: &[Request],
    clock: Clock,
) -> Vec<f64> {
    let mut adm = Admission::new(setup::admission(w), crate::spec::MAX_BATCH);
    reqs.iter()
        .take(2000)
        .enumerate()
        .map(|(i, r)| {
            let net = NetRequest::new(
                handles[r.ctx],
                DecodeRequest::new(r.tenant, r.query.clone(), r.context_len, r.gen_tokens),
            )
            .priority(r.priority);
            let t = clock.now_ns();
            let _ = black_box(adm.admit(i as u64, net, 0, None, i as u64));
            let _ = black_box(adm.pop());
            us(clock.now_ns() - t)
        })
        .collect()
}

/// The protocol's per-frame costs on the workload's own traffic, µs:
/// `(proto::parse_frame of submit lines, proto::event_frame of token
/// rows, json::parse of those token frames — the client's own cost)`.
pub fn proto_us(
    reqs: &[Request],
    rows: &[Vec<f32>],
    clock: Clock,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let parse = reqs
        .iter()
        .take(1000)
        .map(|r| {
            let line = r.submit_line();
            let t = clock.now_ns();
            let _ = black_box(proto::parse_frame(&line));
            us(clock.now_ns() - t)
        })
        .collect();
    let mut render = Vec::new();
    let mut client = Vec::new();
    for (i, row) in rows.iter().take(1000).enumerate() {
        let ev = StreamEvent::Token {
            id: 1000 + i as u64,
            index: i % 64,
            value: row.clone(),
        };
        let t = clock.now_ns();
        let frame = black_box(proto::event_frame(&ev));
        render.push(us(clock.now_ns() - t));
        let t = clock.now_ns();
        let _ = black_box(json::parse(&frame));
        client.push(us(clock.now_ns() - t));
    }
    (parse, render, client)
}
