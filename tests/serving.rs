//! Deterministic scheduler harness for the serving layer.
//!
//! The `Server` is a synchronous state machine — no threads, no clocks —
//! so these tests single-step it and assert exact scheduling behaviour:
//!
//! * continuous batch re-formation (a request finishing mid-decode frees a
//!   slot that a queued request takes on the next step);
//! * explicit admission rejection at the configured limits — nothing is
//!   ever dropped silently;
//! * **bitwise parity**: a request decoded inside a full, ragged batch
//!   produces exactly the bytes it produces running alone through
//!   `Session::run_attention_ragged` / `Session::run_attention_batch`
//!   with batch = 1 and the server's own canonical plans;
//! * a property: random arrival/length schedules (seeded, no wall-clock)
//!   always terminate, never exceed `max_batch`, and account for every
//!   submission as completed or rejected.

use proptest::prelude::*;
use std::sync::OnceLock;
use vq_llm::llm::accuracy::{project_kv_accuracy, FP16_ACCURACY};
use vq_llm::llm::LlmError;
use vq_llm::tensor::{synth, Tensor2D};
use vq_llm::{
    ContextHandle, DecodeRequest, Engine, KvQuantMode, ProfileConfig, RejectReason, RequestStatus,
    ServeConfig, Server, Session, SharedContext, VqAlgorithm,
};

const SEQ: usize = 320;
const HEAD_DIM: usize = 32;
/// The second context's geometry (deliberately different from the first,
/// so grouping bugs that mix contexts crash on shape instead of passing
/// silently).
const SEQ_B: usize = 288;
const HEAD_DIM_B: usize = 64;

/// One shared (session, context A, context B) triple for the whole file:
/// quantizing the contexts is the expensive part, and sharing them also
/// exercises the plan-cache reuse the serving layer is designed around.
fn harness() -> &'static (Session, SharedContext, SharedContext) {
    static HARNESS: OnceLock<(Session, SharedContext, SharedContext)> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let session = Session::builder()
            .cpu_threads(2)
            .weight_algo(VqAlgorithm::Gptvq2)
            .kv_algo(VqAlgorithm::Cq4)
            .build()
            .expect("valid session");
        let ctx_a = {
            let k = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 11);
            let v = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 12);
            let w = synth::correlated_channels(HEAD_DIM, HEAD_DIM, 4, 0.9, 13);
            SharedContext::new(
                session.quantize_kv(&k, 1).expect("quantize K"),
                session.quantize_kv(&v, 2).expect("quantize V"),
                session.quantize_weights(&w, 3).expect("quantize W"),
            )
            .expect("valid context")
        };
        let ctx_b = {
            let k = synth::kv_stream(SEQ_B, HEAD_DIM_B, 0.8, 21);
            let v = synth::kv_stream(SEQ_B, HEAD_DIM_B, 0.8, 22);
            let w = synth::correlated_channels(HEAD_DIM_B, HEAD_DIM_B, 4, 0.9, 23);
            SharedContext::new(
                session.quantize_kv(&k, 4).expect("quantize K"),
                session.quantize_kv(&v, 5).expect("quantize V"),
                session.quantize_weights(&w, 6).expect("quantize W"),
            )
            .expect("valid context")
        };
        (session, ctx_a, ctx_b)
    })
}

fn server(max_batch: usize, max_queue: usize) -> Server {
    let (session, ctx, _) = harness();
    session
        .serve(ctx.clone(), ServeConfig::new(max_batch, max_queue))
        .expect("valid server")
}

/// An engine over both harness contexts (fresh plan cache per call so
/// stats assertions don't race other tests), sharing the harness
/// session's backend.
fn two_ctx_engine(
    max_batch: usize,
    max_queue: usize,
    profile: ProfileConfig,
) -> (Engine, ContextHandle, ContextHandle) {
    let (session, ctx_a, ctx_b) = harness();
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(max_batch, max_queue))
        .profile_config(profile)
        .build()
        .expect("valid engine");
    let ha = engine.register_context(ctx_a.clone()).expect("register A");
    let hb = engine.register_context(ctx_b.clone()).expect("register B");
    (engine, ha, hb)
}

fn query(tenant: u64) -> Vec<f32> {
    (0..HEAD_DIM)
        .map(|d| ((tenant as usize * 17 + d) as f32 * 0.23).sin())
        .collect()
}

fn query_b(tenant: u64) -> Vec<f32> {
    (0..HEAD_DIM_B)
        .map(|d| ((tenant as usize * 29 + d) as f32 * 0.19).cos())
        .collect()
}

/// Drains one request alone through the single-context `Session::serve`
/// facade (its own canonical plans, batch of one) and returns its decoded
/// steps — the solo reference the engine's mixed-context batches must
/// reproduce bitwise.
fn solo_reference(ctx: &SharedContext, req: DecodeRequest) -> Vec<Vec<f32>> {
    let (session, _, _) = harness();
    let mut srv = session
        .serve(ctx.clone(), ServeConfig::new(1, 1))
        .expect("solo server");
    let handle = srv.submit(req).expect("admitted");
    srv.run_until_drained().expect("drained");
    srv.take_output(&handle).expect("finished").steps
}

#[test]
fn finishing_request_frees_a_slot_a_queued_request_takes() {
    let mut srv = server(2, 8);
    let a = srv.submit(DecodeRequest::new(1, query(1), 40, 2)).unwrap();
    let b = srv.submit(DecodeRequest::new(2, query(2), 60, 5)).unwrap();
    let c = srv.submit(DecodeRequest::new(3, query(3), 25, 3)).unwrap();
    assert_eq!(srv.status(&a), RequestStatus::Queued);

    // Step 0: a and b take the two slots; c waits.
    let r0 = srv.step().unwrap();
    assert_eq!(r0.batch, 2);
    assert_eq!(r0.admitted, vec![a.id(), b.id()]);
    assert_eq!(r0.queued, 1);
    assert_eq!(srv.status(&a), RequestStatus::Running);
    assert_eq!(srv.status(&c), RequestStatus::Queued);

    // Step 1: a decodes its last token and leaves mid-drain.
    let r1 = srv.step().unwrap();
    assert_eq!(r1.batch, 2);
    assert_eq!(r1.finished, vec![a.id()]);
    assert_eq!(srv.status(&a), RequestStatus::Finished { tokens: 2 });

    // Step 2: the freed slot goes to c — the batch is re-formed, not
    // drained to empty first.
    let r2 = srv.step().unwrap();
    assert_eq!(r2.admitted, vec![c.id()]);
    assert_eq!(r2.batch, 2);
    assert_eq!(r2.queued, 0);

    let rest = srv.run_until_drained().unwrap();
    assert!(rest.iter().all(|r| r.batch <= 2));
    assert!(srv.is_idle());
    for (h, gen) in [(a, 2usize), (b, 5), (c, 3)] {
        assert_eq!(srv.status(&h), RequestStatus::Finished { tokens: gen });
        let out = srv.take_output(&h).expect("output ready");
        assert_eq!(out.steps.len(), gen);
        assert!(out.steps.iter().all(|s| s.len() == HEAD_DIM));
        assert_eq!(srv.status(&h), RequestStatus::Unknown, "collected");
    }
    let stats = srv.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.decoded_tokens, 10);
    assert!(stats.mean_batch() > 1.0);
}

#[test]
fn admission_limits_reject_explicitly() {
    let mut srv = server(1, 2);
    srv.submit(DecodeRequest::new(1, query(1), 10, 2)).unwrap();
    srv.submit(DecodeRequest::new(2, query(2), 10, 2)).unwrap();
    // Queue full: the third submission is refused, not silently dropped.
    let err = srv
        .submit(DecodeRequest::new(3, query(3), 10, 2))
        .unwrap_err();
    assert!(matches!(err, LlmError::QueueFull { max_queue: 2 }), "{err}");

    // Malformed / unservable requests are rejected up front with a reason.
    let wrong_width = srv.submit(DecodeRequest::new(4, vec![0.0; 3], 10, 2));
    assert!(matches!(
        wrong_width.unwrap_err(),
        LlmError::InvalidRequest { .. }
    ));
    let zero_tokens = srv.submit(DecodeRequest::new(5, query(5), 10, 0));
    assert!(matches!(
        zero_tokens.unwrap_err(),
        LlmError::InvalidRequest { .. }
    ));
    let past_context = srv.submit(DecodeRequest::new(6, query(6), SEQ, 2));
    assert!(matches!(
        past_context.unwrap_err(),
        LlmError::InvalidRequest { .. }
    ));
    // Regression: an absurd token budget must reject, not wrap the
    // admission arithmetic around usize and sneak in.
    let overflow = srv.submit(DecodeRequest::new(7, query(7), 100, usize::MAX - 49));
    assert!(matches!(
        overflow.unwrap_err(),
        LlmError::InvalidRequest { .. }
    ));

    let stats = srv.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.rejected, 5);
    // The accepted work still completes.
    srv.run_until_drained().unwrap();
    assert_eq!(srv.stats().completed, 2);
}

/// The tentpole guarantee: scheduling is numerically invisible. Every
/// request decoded in a co-scheduled ragged batch produces bitwise the
/// same bytes as the same request run alone, one step at a time, through
/// the session's batch-of-one entry points with the server's own plans.
#[test]
fn scheduled_decode_is_bitwise_identical_to_solo_runs() {
    let (session, ctx, _) = harness();
    let mut srv = server(3, 8);
    // Varied context positions and lengths force genuinely ragged batches
    // and mid-decode re-formation. The last request attends the *full*
    // context, so its solo reference can go through the plain (non-ragged)
    // `Session::run_attention_batch` with batch = 1.
    let specs: [(u64, usize, usize); 5] = [
        (1, 30, 4),
        (2, 200, 2),
        (3, 77, 6),
        (4, 150, 3),
        (5, SEQ, 1),
    ];
    let handles: Vec<_> = specs
        .iter()
        .map(|&(t, ctx_len, gen)| {
            srv.submit(DecodeRequest::new(t, query(t), ctx_len, gen))
                .unwrap()
        })
        .collect();
    let reports = srv.run_until_drained().unwrap();
    assert!(reports.iter().any(|r| r.batch == 3), "batching happened");
    assert!(
        reports.iter().any(|r| !r.finished.is_empty() && r.queued > 0
            || !r.admitted.is_empty() && r.step > 0),
        "re-formation happened"
    );

    let attn_plan = srv.attention_plan().clone();
    let linear_plan = srv.linear_plan().clone();
    for (&(t, ctx_len, gen), handle) in specs.iter().zip(&handles) {
        let out = srv.take_output(handle).expect("completed");
        assert_eq!(out.tenant, t);
        assert_eq!(out.steps.len(), gen);
        // Solo re-run: same plans, batch of one.
        let mut h = query(t);
        for (step, scheduled) in out.steps.iter().enumerate() {
            let len = ctx_len + step;
            let qs = Tensor2D::from_vec(1, HEAD_DIM, h.clone()).unwrap();
            let (attn, _) = if len == SEQ {
                // Full-length tenants go through the plain batched entry
                // point — raggedness at len == seq is the same arithmetic.
                session
                    .run_attention_batch(&attn_plan, &qs, ctx.kq(), ctx.vq())
                    .unwrap()
            } else {
                session
                    .run_attention_ragged(&attn_plan, &qs, &[len], ctx.kq(), ctx.vq())
                    .unwrap()
            };
            let (y, _) = session.run_gemm(&linear_plan, &attn, ctx.wq()).unwrap();
            assert_eq!(
                scheduled,
                &y.row(0).to_vec(),
                "tenant {t} step {step}: scheduled batch diverged from solo"
            );
            h.copy_from_slice(y.row(0));
        }
    }
}

// --- the multi-context engine ---

/// The acceptance pin: a two-context `Engine` drain produces, per
/// request, bytes identical to that request run alone on a
/// single-context `Session::serve` facade — even though the engine plans
/// from measured profiles and the solo servers from synthetic defaults
/// (host kernels are bitwise blocking-independent, pinned in
/// `tests/host_backend.rs`).
#[test]
fn two_context_engine_drain_is_bitwise_identical_to_solo_sessions() {
    let (_, ctx_a, ctx_b) = harness();
    let (mut engine, ha, hb) = two_ctx_engine(3, 16, ProfileConfig::default());

    // Interleaved submissions across both contexts, ragged positions and
    // lengths, more requests than slots — the batch re-forms mid-drain
    // and every step may hold a mixed-context batch.
    let reqs: Vec<(ContextHandle, DecodeRequest)> = vec![
        (ha, DecodeRequest::new(1, query(1), 30, 4)),
        (hb, DecodeRequest::new(2, query_b(2), 200, 2)),
        (ha, DecodeRequest::new(3, query(3), 77, 6)),
        (hb, DecodeRequest::new(4, query_b(4), 150, 3)),
        (ha, DecodeRequest::new(5, query(5), SEQ, 1)),
        (hb, DecodeRequest::new(6, query_b(6), 40, 5)),
    ];
    let handles: Vec<_> = reqs
        .iter()
        .map(|(h, r)| engine.submit(*h, r.clone()))
        .collect();
    for handle in &handles {
        assert!(matches!(
            engine.poll(handle),
            RequestStatus::Queued | RequestStatus::Running
        ));
    }
    let reports = engine.run_until_drained().expect("drained");
    assert!(
        reports.iter().any(|r| r.groups == 2),
        "mixed-context batches happened: {reports:?}"
    );
    assert!(reports.iter().all(|r| r.batch <= 3 && r.groups <= 2));

    for ((h, req), handle) in reqs.iter().zip(&handles) {
        let gen = req.gen_tokens;
        assert_eq!(engine.poll(handle), RequestStatus::Finished { tokens: gen });
        let out = engine.take_output(handle).expect("finished");
        assert_eq!(out.tenant, req.tenant);
        let ctx = if *h == ha { ctx_a } else { ctx_b };
        let solo = solo_reference(ctx, req.clone());
        assert_eq!(
            out.steps, solo,
            "tenant {}: engine mixed-context batch diverged from solo session",
            req.tenant
        );
        assert_eq!(engine.poll(handle), RequestStatus::Unknown, "collected");
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.rejected, 0);
}

/// The typed lifecycle: rejected submissions get handles that poll as
/// `Rejected` with the precise reason; unknown context handles reject
/// instead of panicking; `try_submit` surfaces the same as errors.
#[test]
fn engine_rejections_are_typed_and_polled() {
    let (mut engine, ha, hb) = two_ctx_engine(1, 2, ProfileConfig::default());

    let ok = engine.submit(ha, DecodeRequest::new(1, query(1), 10, 2));
    let ok2 = engine.submit(hb, DecodeRequest::new(2, query_b(2), 10, 2));
    // The queue bound (2) is engine-wide: the third submission is refused
    // no matter which context it targets.
    let full = engine.submit(hb, DecodeRequest::new(3, query_b(3), 10, 2));
    assert_eq!(engine.poll(&ok), RequestStatus::Queued);
    assert_eq!(engine.poll(&ok2), RequestStatus::Queued);
    assert_eq!(
        engine.poll(&full),
        RequestStatus::Rejected {
            reason: RejectReason::QueueFull { max_queue: 2 }
        }
    );

    // Wrong query width against context B (its head_dim differs from A's
    // — handles are not interchangeable).
    let wrong = engine.submit(hb, DecodeRequest::new(4, query(4), 10, 2));
    assert_eq!(
        engine.poll(&wrong),
        RequestStatus::Rejected {
            reason: RejectReason::Invalid {
                what: "query width must equal the context's head_dim"
            }
        }
    );

    // A handle this engine never issued: handles carry the issuing
    // engine's nonce, so even a *different* engine's handle whose
    // registry index (0) is perfectly in range here is rejected instead
    // of silently decoding against this engine's context 0.
    let (other, foreign, _) = two_ctx_engine(2, 4, ProfileConfig::default());
    drop(other);
    assert_eq!(foreign.id(), 0, "in range on this engine, yet foreign");
    let unknown = engine.submit(foreign, DecodeRequest::new(5, query(5), 10, 2));
    assert_eq!(
        engine.poll(&unknown),
        RequestStatus::Rejected {
            reason: RejectReason::UnknownContext { id: 0 }
        }
    );

    // The Result-shaped twin reports the same through LlmError.
    let err = engine
        .try_submit(foreign, DecodeRequest::new(6, query(6), 10, 2))
        .unwrap_err();
    assert!(
        matches!(
            err,
            vq_llm::VqLlmError::Pipeline(LlmError::UnknownContext { id: 0 })
        ),
        "{err}"
    );

    let stats = engine.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.rejected, 4);
    engine.run_until_drained().expect("accepted work completes");
    assert_eq!(engine.stats().completed, 2);

    // Rejection tombstones are bounded: flood the engine with refusals
    // and the oldest records age out (poll as Unknown) while the most
    // recent cap's worth stay typed. The cumulative counter keeps them.
    use vq_llm::llm::serve::REJECTED_TOMBSTONE_CAP;
    let first_flood = engine.submit(ha, DecodeRequest::new(7, vec![0.0; 1], 1, 1));
    let floods: Vec<_> = (0..REJECTED_TOMBSTONE_CAP as u64)
        .map(|t| engine.submit(ha, DecodeRequest::new(t, vec![0.0; 1], 1, 1)))
        .collect();
    assert_eq!(
        engine.poll(&first_flood),
        RequestStatus::Unknown,
        "aged out"
    );
    assert!(matches!(
        engine.poll(floods.last().unwrap()),
        RequestStatus::Rejected {
            reason: RejectReason::Invalid { .. }
        }
    ));
    assert_eq!(
        engine.stats().rejected,
        4 + 1 + REJECTED_TOMBSTONE_CAP as u64
    );
}

/// Per-reason rejection counters partition the aggregate, and each
/// context accounts for its own submitted/completed requests.
#[test]
fn per_reason_rejection_counters_and_per_context_accounting() {
    let (mut engine, ha, hb) = two_ctx_engine(1, 2, ProfileConfig::default());
    engine.submit(ha, DecodeRequest::new(1, query(1), 10, 2));
    engine.submit(hb, DecodeRequest::new(2, query_b(2), 10, 2));
    // One rejection of each reachable kind.
    engine.submit(hb, DecodeRequest::new(3, query_b(3), 10, 2)); // queue full
    let (other, foreign, _) = two_ctx_engine(2, 4, ProfileConfig::default());
    drop(other);
    engine.submit(foreign, DecodeRequest::new(4, query(4), 10, 2)); // unknown ctx

    let mid = engine.stats();
    assert_eq!(mid.rejected_queue_full, 1);
    assert_eq!(mid.rejected_unknown_context, 1);
    assert_eq!(mid.rejected_invalid, 0);

    engine.run_until_drained().expect("drained");
    // Queue space is free now: invalid requests classify separately.
    engine.submit(hb, DecodeRequest::new(5, query(5), 10, 2)); // wrong width

    let stats = engine.stats();
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.rejected_invalid, 1);
    assert_eq!(stats.rejected_unknown_context, 1);
    assert_eq!(stats.rejected_kv_capacity, 0);
    assert_eq!(
        stats.rejected,
        stats.rejected_queue_full
            + stats.rejected_invalid
            + stats.rejected_kv_capacity
            + stats.rejected_unknown_context,
        "per-reason counters partition the aggregate"
    );
    assert_eq!(stats.cancelled, 0);

    let ca = engine.context_stats(ha).expect("context A");
    assert_eq!((ca.submitted, ca.completed, ca.cancelled), (1, 1, 0));
    let cb = engine.context_stats(hb).expect("context B");
    assert_eq!((cb.submitted, cb.completed, cb.cancelled), (1, 1, 0));
}

/// `Engine::cancel`: a queued request leaves the queue, a running request
/// frees its slot for the next queued one, the handle resolves to a typed
/// `Cancelled` tombstone, and finished/collected requests are unaffected.
#[test]
fn cancel_frees_slots_and_queue_entries_with_typed_tombstones() {
    let (mut engine, ha, _) = two_ctx_engine(1, 8, ProfileConfig::default());
    let a = engine.submit(ha, DecodeRequest::new(1, query(1), 30, 4));
    let b = engine.submit(ha, DecodeRequest::new(2, query(2), 40, 6));
    engine.step().expect("step");
    assert_eq!(engine.poll(&a), RequestStatus::Running);
    assert_eq!(engine.poll(&b), RequestStatus::Queued);
    assert_eq!(
        engine.partial_output(&a).map(<[Vec<f32>]>::len),
        Some(1),
        "one row decoded so far"
    );
    assert_eq!(
        engine.partial_output(&b).map(<[Vec<f32>]>::len),
        Some(0),
        "queued requests expose an empty partial output"
    );

    // Cancelling the running request frees the slot mid-decode…
    assert!(engine.cancel(&a));
    assert_eq!(engine.running(), 0);
    assert_eq!(
        engine.poll(&a),
        RequestStatus::Rejected {
            reason: RejectReason::Cancelled
        }
    );
    assert_eq!(engine.partial_output(&a), None, "cancelled = not live");

    // …and the queued request takes it on the next step.
    let r = engine.step().expect("step");
    assert_eq!(r.admitted, vec![b.id()]);
    assert_eq!(engine.poll(&b), RequestStatus::Running);

    // Cancelling the (now running) b empties the engine.
    assert!(engine.cancel(&b));
    assert!(engine.is_idle());

    // Cancel is not retroactive: finished requests keep their output, and
    // double-cancel / unknown handles return false.
    let c = engine.submit(ha, DecodeRequest::new(3, query(3), 50, 2));
    engine.run_until_drained().expect("drained");
    assert_eq!(engine.poll(&c), RequestStatus::Finished { tokens: 2 });
    assert!(!engine.cancel(&c), "finished requests cannot be cancelled");
    assert_eq!(engine.poll(&c), RequestStatus::Finished { tokens: 2 });
    assert!(!engine.cancel(&a), "already-cancelled handle is a no-op");

    let stats = engine.stats();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 0, "cancellations are not admission rejects");
    let cs = engine.context_stats(ha).expect("context A");
    assert_eq!((cs.submitted, cs.completed, cs.cancelled), (3, 1, 2));
}

/// Splitmix-style hash for deriving deterministic schedules from a seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

proptest! {
    /// Random arrival/length schedules: the scheduler always terminates,
    /// never exceeds `max_batch`, and every submission is either completed
    /// or explicitly rejected — no silent drops.
    #[test]
    fn random_schedules_terminate_and_account_for_everything(
        seed in 0u64..10_000,
        max_batch in 1usize..5,
        max_queue in 0usize..5,
        n_requests in 1usize..11,
    ) {
        let mut srv = server(max_batch, max_queue);
        // Arrival step, context position, and length all derived from the
        // seed — no wall-clock anywhere.
        let mut arrivals: Vec<(u64, DecodeRequest)> = (0..n_requests)
            .map(|i| {
                let r = mix(seed, i as u64);
                let arrive = r % 6;
                let context_len = 1 + (r >> 8) as usize % (SEQ - 4);
                let gen = 1 + (r >> 32) as usize % 4;
                (arrive, DecodeRequest::new(i as u64, query(i as u64), context_len, gen))
            })
            .collect();
        arrivals.sort_by_key(|(t, _)| *t);

        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        let mut expected_tokens = 0usize;
        let mut next = 0;
        let mut ticks = 0u64;
        // Hard bound: every submitted token is decoded once, plus one
        // idle poll per arrival gap. Anything past this is a livelock.
        let bound = 64 + 6 * n_requests as u64;
        while next < arrivals.len() || !srv.is_idle() {
            prop_assert!(ticks < bound, "scheduler did not terminate");
            while next < arrivals.len() && arrivals[next].0 <= ticks {
                let req = arrivals[next].1.clone();
                let gen = req.gen_tokens;
                match srv.submit(req) {
                    Ok(h) => {
                        accepted.push((h, gen));
                        expected_tokens += gen;
                    }
                    Err(LlmError::QueueFull { .. }) => rejected += 1,
                    Err(e) => prop_assert!(false, "unexpected rejection: {e}"),
                }
                next += 1;
            }
            let report = srv.step().unwrap();
            prop_assert!(report.batch <= max_batch, "batch over limit");
            ticks += 1;
        }

        let stats = srv.stats();
        prop_assert_eq!(stats.submitted + stats.rejected, n_requests as u64);
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert_eq!(stats.completed, accepted.len() as u64);
        prop_assert_eq!(stats.decoded_tokens as usize, expected_tokens);
        for (h, gen) in accepted {
            prop_assert_eq!(srv.status(&h), RequestStatus::Finished { tokens: gen });
            let out = srv.take_output(&h).expect("completed output");
            prop_assert_eq!(out.steps.len(), gen);
        }
    }

    /// Random multi-context arrival schedules on the engine: termination,
    /// engine-wide slots never exceed `max_batch`, at most one kernel
    /// group per registered context per step, every request finishes or
    /// is explicitly rejected, and every finished request is **bitwise**
    /// identical to the same request drained alone on a single-context
    /// `Session::serve` facade.
    #[test]
    fn random_multi_context_schedules_are_sound_and_solo_exact(
        seed in 0u64..10_000,
        max_batch in 1usize..5,
        max_queue in 1usize..5,
        n_requests in 1usize..8,
    ) {
        let (_, ctx_a, ctx_b) = harness();
        let (mut engine, ha, hb) = two_ctx_engine(max_batch, max_queue, ProfileConfig::default());
        let mut arrivals: Vec<(u64, ContextHandle, DecodeRequest)> = (0..n_requests)
            .map(|i| {
                let r = mix(seed ^ 0xabcd, i as u64);
                let arrive = r % 6;
                let to_b = r & (1 << 7) != 0;
                let (h, seq, q) = if to_b {
                    (hb, SEQ_B, query_b(i as u64))
                } else {
                    (ha, SEQ, query(i as u64))
                };
                let context_len = 1 + (r >> 8) as usize % (seq - 4);
                let gen = 1 + (r >> 32) as usize % 4;
                (arrive, h, DecodeRequest::new(i as u64, q, context_len, gen))
            })
            .collect();
        arrivals.sort_by_key(|(t, _, _)| *t);

        let mut handles = Vec::new();
        let mut next = 0;
        let mut ticks = 0u64;
        let bound = 64 + 6 * n_requests as u64;
        while next < arrivals.len() || !engine.is_idle() {
            prop_assert!(ticks < bound, "engine did not terminate");
            while next < arrivals.len() && arrivals[next].0 <= ticks {
                let (_, h, req) = arrivals[next].clone();
                handles.push((h, req.clone(), engine.submit(h, req)));
                next += 1;
            }
            let report = engine.step().unwrap();
            prop_assert!(report.batch <= max_batch, "engine-wide slots over limit");
            prop_assert!(report.groups <= 2, "more groups than contexts");
            prop_assert!((report.batch == 0) == (report.groups == 0));
            ticks += 1;
        }

        let stats = engine.stats();
        prop_assert_eq!(stats.submitted + stats.rejected, n_requests as u64);
        let mut finished = 0u64;
        for (h, req, ticket) in handles {
            match engine.poll(&ticket) {
                RequestStatus::Finished { tokens } => {
                    prop_assert_eq!(tokens, req.gen_tokens);
                    finished += 1;
                    let out = engine.take_output(&ticket).expect("finished output");
                    // Per-context bitwise parity vs a solo drain.
                    let ctx = if h == ha { ctx_a } else { ctx_b };
                    prop_assert_eq!(
                        &out.steps,
                        &solo_reference(ctx, req),
                        "mixed-context batch diverged from solo"
                    );
                }
                RequestStatus::Rejected { reason } => {
                    // The only data-independent rejection in this schedule
                    // space is queue pressure.
                    prop_assert_eq!(
                        reason,
                        RejectReason::QueueFull { max_queue },
                        "unexpected rejection"
                    );
                }
                other => prop_assert!(false, "request neither finished nor rejected: {other:?}"),
            }
        }
        prop_assert_eq!(finished, stats.completed);
    }
}

// --- online KV-cache vector quantization ---

/// An engine over harness context A with live-KV mode `mode` and an
/// optional compressed-byte budget (fresh plan cache per call, shared
/// backend — same pattern as [`two_ctx_engine`]).
fn live_engine(mode: KvQuantMode, budget: Option<usize>) -> (Engine, ContextHandle) {
    let (session, ctx_a, _) = harness();
    let mut cfg = ServeConfig::new(4, 16).with_kv_quant(mode);
    if let Some(b) = budget {
        cfg = cfg.with_kv_budget(b);
    }
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(cfg)
        .profile_config(ProfileConfig::disabled())
        .build()
        .expect("valid engine");
    let h = engine.register_context(ctx_a.clone()).expect("register");
    (engine, h)
}

/// Drains one request through a live-KV engine and returns its output.
fn live_drain(mode: KvQuantMode, req: &DecodeRequest) -> vq_llm::RequestOutput {
    let (mut engine, h) = live_engine(mode, None);
    let t = engine.submit(h, req.clone());
    engine.run_until_drained().expect("drained");
    engine.take_output(&t).expect("finished")
}

proptest! {
    /// The online-quantization accuracy pin. For random requests:
    ///
    /// * a `Quantized` cache whose tail window covers the whole
    ///   generation never folds, so it is **bitwise** identical to the
    ///   `F32Tail` baseline (the fold path is the only divergence);
    /// * a small tail window folds appended rows into packed codes, and
    ///   the decode stays within a bounded relative error of the f32
    ///   baseline, with the fold-time nMSE threading through
    ///   `accuracy::project_kv_accuracy` onto the offline proxy's scale;
    /// * exact outliers (`outlier_keep_milli = 0`) leave zero fold error.
    #[test]
    fn quantized_live_kv_tracks_the_f32_tail_baseline(
        seed in 0u64..1_000,
        context_len in 16usize..SEQ,
        gen in 2usize..8,
        tail_window in 0usize..3,
        keep_milli in prop::sample::select(vec![0u32, 250]),
    ) {
        let req = DecodeRequest::new(seed, query(seed), context_len, gen);
        let base = live_drain(KvQuantMode::F32Tail, &req);
        prop_assert_eq!(base.steps.len(), gen);
        prop_assert_eq!(base.kv_nmse, 0.0, "f32 tail never folds");

        // Covering tail: nothing folds, bitwise parity with the baseline.
        let covered = live_drain(
            KvQuantMode::Quantized { tail_window: gen, outlier_keep_milli: keep_milli },
            &req,
        );
        prop_assert_eq!(&covered.steps, &base.steps, "covering tail must be bitwise");
        prop_assert_eq!(covered.kv_nmse, 0.0);

        // Folding tail: bounded divergence, accuracy threading.
        let folded = live_drain(
            KvQuantMode::Quantized { tail_window, outlier_keep_milli: keep_milli },
            &req,
        );
        prop_assert_eq!(folded.steps.len(), gen);
        for (step, (sq, sf)) in folded.steps.iter().zip(&base.steps).enumerate() {
            let err = sq.iter().zip(sf).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt();
            let norm = sf.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(
                err <= 0.5 * norm + 1e-3,
                "step {step}: quantized decode drifted {err} vs norm {norm}"
            );
        }
        prop_assert!(folded.kv_nmse >= 0.0 && folded.kv_nmse < 2.0);
        let acc = project_kv_accuracy(folded.kv_nmse);
        prop_assert!((0.5 * FP16_ACCURACY..=FP16_ACCURACY + 1e-12).contains(&acc));
        if keep_milli == 0 {
            // Every imperfect group keeps its exact residual.
            prop_assert_eq!(folded.kv_nmse, 0.0, "exact outliers must leave zero error");
        }
        if gen - 1 > tail_window {
            prop_assert!(folded.kv_bytes > 0, "folded requests report compressed bytes");
        }
    }
}

/// The compressed-byte KV budget: admission prices the request's
/// projected footprint (typed `KvCapacity`, wire-retriable), and a cache
/// whose *measured* bytes outgrow the budget mid-decode — here because
/// exact outliers blow past the no-outlier projection — is quarantined
/// with the same typed reason, one token early, before a partial write.
#[test]
fn kv_byte_budget_rejects_at_admission_and_quarantines_midflight() {
    let (_, ctx_a, _) = harness();
    let mode = KvQuantMode::Quantized {
        tail_window: 2,
        outlier_keep_milli: 0,
    };
    let gen = 8usize;
    let projected = vq_llm::TenantKv::new(ctx_a, mode)
        .expect("live cache")
        .projected_bytes(gen - 1);
    assert!(projected > 0);

    // Budget below the projection: refused at admission, typed, with a
    // non-zero wire retry hint.
    let (mut tight, ht) = live_engine(mode, Some(projected - 1));
    let err = tight
        .try_submit(ht, DecodeRequest::new(1, query(1), 50, gen))
        .unwrap_err();
    assert!(
        matches!(
            err,
            vq_llm::VqLlmError::Pipeline(LlmError::KvCapacity { limit, .. })
                if limit == projected - 1
        ),
        "{err}"
    );
    assert_eq!(tight.stats().rejected_kv_capacity, 1);
    let polled = tight.submit(ht, DecodeRequest::new(1, query(1), 50, gen));
    match tight.poll(&polled) {
        RequestStatus::Rejected { reason } => {
            assert!(matches!(reason, RejectReason::KvCapacity { .. }));
            assert_eq!(reason.retry_hint_ms(), Some(1), "retriable, never 0");
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    // Budget above the projection but below the outlier-laden measured
    // footprint: admitted, then quarantined mid-decode.
    let (mut engine, h) = live_engine(mode, Some(projected + 64));
    let t = engine.submit(h, DecodeRequest::new(2, query(2), 50, gen));
    engine
        .run_until_drained()
        .expect("drain survives quarantine");
    match engine.poll(&t) {
        RequestStatus::Rejected { reason } => {
            assert!(
                matches!(reason, RejectReason::KvCapacity { .. }),
                "mid-flight budget overrun must be typed kv_capacity: {reason:?}"
            );
        }
        other => panic!("expected mid-flight quarantine, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.quarantined, 1);
    assert!(
        stats.kv_outlier_groups > 0,
        "the quarantined cache's accounting was absorbed"
    );
    assert_eq!(stats.kv_nmse(), 0.0, "exact outliers leave zero fold error");
}

/// Folding without an outlier channel accumulates measurable — but
/// bounded — fold error, and the engine aggregates it across retired
/// requests exactly as the per-request outputs report it.
#[test]
fn fold_error_aggregates_into_engine_stats() {
    let mode = KvQuantMode::Quantized {
        tail_window: 1,
        outlier_keep_milli: 1_000_000,
    };
    let (mut engine, h) = live_engine(mode, None);
    let t = engine.submit(h, DecodeRequest::new(1, query(1), 40, 6));
    engine.run_until_drained().expect("drained");
    let out = engine.take_output(&t).expect("finished");
    assert!(out.kv_nmse > 0.0, "folding without outliers leaves error");
    assert!(out.kv_bytes > 0);
    let stats = engine.stats();
    assert_eq!(stats.kv_folded_tokens, 4, "gen-1 appends minus the tail");
    assert_eq!(stats.kv_outlier_groups, 0);
    assert!(
        (stats.kv_nmse() - out.kv_nmse).abs() < 1e-12,
        "single request: engine aggregate equals the request's own nMSE"
    );
    let acc = project_kv_accuracy(stats.kv_nmse());
    assert!(acc < FP16_ACCURACY && acc > 0.0);
}

/// A profile-shift replan changes which plan is cached — never the bytes
/// a request decodes. Engine A runs aggressive feedback (check every
/// step, zero divergence tolerance, so the first check replans); engine B
/// runs with feedback disabled. Identical schedules must produce
/// identical bytes, and A must have actually replanned.
#[test]
fn profile_shift_replan_does_not_change_emitted_bytes() {
    let aggressive = ProfileConfig {
        check_every: 1,
        replan_divergence: 0.0,
    };
    let (mut a, a_ha, a_hb) = two_ctx_engine(3, 16, aggressive);
    let (mut b, b_ha, b_hb) = two_ctx_engine(3, 16, ProfileConfig::disabled());

    let reqs: Vec<(bool, DecodeRequest)> = vec![
        // Short attended prefixes: the observed histogram covers a sliver
        // of the registration profile, so the distributions diverge and
        // the aggressive config replans immediately.
        (false, DecodeRequest::new(1, query(1), 25, 5)),
        (true, DecodeRequest::new(2, query_b(2), 40, 4)),
        (false, DecodeRequest::new(3, query(3), 60, 6)),
        (true, DecodeRequest::new(4, query_b(4), 30, 3)),
    ];
    let submit_all = |engine: &mut Engine, ha: ContextHandle, hb: ContextHandle| -> Vec<_> {
        reqs.iter()
            .map(|(to_b, r)| engine.submit(if *to_b { hb } else { ha }, r.clone()))
            .collect()
    };
    let tickets_a = submit_all(&mut a, a_ha, a_hb);
    let tickets_b = submit_all(&mut b, b_ha, b_hb);
    a.run_until_drained().expect("drained");
    b.run_until_drained().expect("drained");

    let replans_a = a.context_stats(a_ha).unwrap().replans + a.context_stats(a_hb).unwrap().replans;
    assert!(replans_a >= 1, "aggressive feedback never replanned");
    assert_eq!(b.context_stats(b_ha).unwrap().replans, 0);
    // The replan swapped the cached canonical plan under a measured key…
    assert!(a.context_stats(a_ha).unwrap().profiled_tokens > 0);
    // …but the decoded bytes are identical, request for request.
    for (ta, tb) in tickets_a.iter().zip(&tickets_b) {
        let oa = a.take_output(ta).expect("finished");
        let ob = b.take_output(tb).expect("finished");
        assert_eq!(
            oa.steps, ob.steps,
            "replanning changed decoded bytes (tenant {})",
            oa.tenant
        );
    }
}

/// The GPU performance model is a plan-time cost: an engine's first step
/// resolves the modelled output of the plans it executes, and no later
/// step runs the model again — across two contexts, with live KV off and
/// on. (`estimates_on_this_thread` is thread-local and the engine steps on
/// this thread, so other tests cannot perturb the count.) With profile
/// feedback on, the only steps that may model are the ones that replan —
/// planning, not execution: the four-rung ladder, then the new plan's
/// first use.
#[test]
fn decode_steps_after_the_first_never_run_the_perf_model() {
    use vq_llm::kernels::vq_kernel::estimates_on_this_thread as estimates;
    let (_, ctx_a, ctx_b) = harness();
    let quantized = KvQuantMode::Quantized {
        tail_window: 2,
        outlier_keep_milli: 1000,
    };
    for (mode, profile) in [
        (KvQuantMode::Off, ProfileConfig::disabled()),
        (quantized, ProfileConfig::disabled()),
        (KvQuantMode::Off, ProfileConfig::default()),
    ] {
        // A fresh backend: nothing is resolved before the first step.
        let mut engine = Engine::builder()
            .backend(std::sync::Arc::new(vq_llm::CpuBackend::with_threads(2)))
            .weight_algo(VqAlgorithm::Gptvq2)
            .kv_algo(VqAlgorithm::Cq4)
            .serve_config(ServeConfig::new(4, 16).with_kv_quant(mode))
            .profile_config(profile)
            .build()
            .expect("valid engine");
        let ha = engine.register_context(ctx_a.clone()).expect("register A");
        let hb = engine.register_context(ctx_b.clone()).expect("register B");
        // Alternating contexts, so the first batch already holds both.
        let tickets: Vec<_> = (0..8u64)
            .map(|i| {
                let len = 40 + 13 * i as usize;
                if i % 2 == 0 {
                    engine.submit(ha, DecodeRequest::new(i, query(i), len, 110))
                } else {
                    engine.submit(hb, DecodeRequest::new(i, query_b(i), len, 110))
                }
            })
            .collect();

        let before = estimates();
        let first = engine.step().expect("first step");
        assert_eq!((first.batch, first.groups), (4, 2));
        let after_first = estimates();
        assert!(
            (1..=4).contains(&(after_first - before)),
            "the first step models its (at most four) plans, once each: {}",
            after_first - before
        );
        let reports = engine.run_until_drained().expect("drained");
        assert!(reports.len() >= 200, "{} further steps", reports.len());
        let replans = [ha, hb]
            .iter()
            .map(|h| engine.context_stats(*h).expect("registered").replans)
            .sum::<u64>();
        assert!(
            estimates() - after_first <= 5 * replans,
            "{mode:?}: {} further steps ran the model {} times ({replans} replans)",
            reports.len(),
            estimates() - after_first
        );
        for t in &tickets {
            assert_eq!(engine.take_output(t).expect("finished").steps.len(), 110);
        }
    }
}

/// The warm-up dedupe satellite: sibling servers over one shared plan
/// cache plan nothing new — the second construction is pure cache hits,
/// and the canonical plans are pointer-equal across siblings.
#[test]
fn sibling_servers_warm_from_the_shared_cache() {
    let (_, ctx, _) = harness();
    let cache = std::sync::Arc::new(vq_llm::PlanCache::new());
    let session = Session::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .plan_cache(std::sync::Arc::clone(&cache))
        .build()
        .expect("valid session");
    let srv1 = session
        .serve(ctx.clone(), ServeConfig::new(2, 2))
        .expect("server");
    let after_first = cache.stats();
    assert_eq!(after_first.misses, 2, "one miss per canonical shape");

    let srv2 = session
        .serve(ctx.clone(), ServeConfig::new(4, 8))
        .expect("server");
    let after_second = cache.stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "sibling construction re-planned a canonical shape"
    );
    assert_eq!(after_second.hits, after_first.hits + 2);
    assert!(std::sync::Arc::ptr_eq(
        srv1.attention_plan(),
        srv2.attention_plan()
    ));
    assert!(std::sync::Arc::ptr_eq(
        srv1.linear_plan(),
        srv2.linear_plan()
    ));

    // The engine warms through the same helper and the same cache — but
    // under *measured* keys, so it adds exactly its own two entries and
    // afterwards an identical registration is also a pure hit.
    let mut engine = Engine::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .plan_cache(std::sync::Arc::clone(&cache))
        .build()
        .expect("engine");
    engine.register_context(ctx.clone()).expect("register");
    let after_engine = cache.stats();
    assert_eq!(after_engine.misses, after_second.misses + 2);
    engine
        .register_context(ctx.clone())
        .expect("register again");
    assert_eq!(engine.cache_stats().misses, after_engine.misses);
    assert!(engine.cache_stats().hits > after_engine.hits);
}
