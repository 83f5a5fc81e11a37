//! Fault-injection tests of the serving stack (`vq_llm::net` +
//! `vqllm_core::failpoint`): kernel panics quarantine with typed
//! reasons instead of killing the service, a dead driver unblocks every
//! waiter with [`WaitError::DriverDown`] instead of hanging, the
//! supervisor rebuilds the engine and resolves pre-crash tickets as
//! `driver_restarted`, and — the property pin — *any* small injected
//! fault schedule ends with every ticket resolved.
//!
//! Failpoints are process-global, so every test here serializes through
//! one mutex and clears the registry on the way out (even on panic).

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use vq_llm::core::failpoint::{self, Action};
use vq_llm::net::{spawn_driver, spawn_supervised, SupervisorConfig, WaitError};
use vq_llm::tensor::synth;
use vq_llm::{
    AdmissionConfig, ContextHandle, DecodeRequest, Engine, EngineFactory, NetRequest,
    ProfileConfig, RejectReason, RequestStatus, ServeConfig, Session, SharedContext, TicketEnd,
    VqAlgorithm,
};

const SEQ: usize = 256;
const HEAD_DIM: usize = 32;

/// Serializes failpoint-using tests (the registry is process-global)
/// and clears it when the test ends, pass or fail.
struct FaultScope(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultScope {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn fault_scope() -> FaultScope {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        // A failed test poisons the lock; the failpoint registry is
        // still cleared by the guard, so later tests can proceed.
        .unwrap_or_else(|e| e.into_inner());
    failpoint::clear();
    FaultScope(guard)
}

/// One shared (session, quantized context) pair for the whole file —
/// quantization is the expensive part.
fn harness() -> &'static (Session, SharedContext) {
    static HARNESS: OnceLock<(Session, SharedContext)> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let session = Session::builder()
            .cpu_threads(2)
            .weight_algo(VqAlgorithm::Gptvq2)
            .kv_algo(VqAlgorithm::Cq4)
            .build()
            .expect("valid session");
        let k = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 31);
        let v = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 32);
        let w = synth::correlated_channels(HEAD_DIM, HEAD_DIM, 4, 0.9, 33);
        let ctx = SharedContext::new(
            session.quantize_kv(&k, 1).expect("quantize K"),
            session.quantize_kv(&v, 2).expect("quantize V"),
            session.quantize_weights(&w, 3).expect("quantize W"),
        )
        .expect("valid context");
        (session, ctx)
    })
}

/// A fresh engine over the harness context, sharing the harness backend
/// so decode bytes are comparable with solo session drains.
fn engine(max_batch: usize, max_queue: usize) -> (Engine, ContextHandle) {
    let (session, ctx) = harness();
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(max_batch, max_queue))
        .profile_config(ProfileConfig::default())
        .build()
        .expect("valid engine");
    let handle = engine.register_context(ctx.clone()).expect("register");
    (engine, handle)
}

/// An [`EngineFactory`] the supervisor can call again after a crash.
fn factory(max_batch: usize, max_queue: usize) -> EngineFactory {
    Box::new(move || {
        let (engine, handle) = engine(max_batch, max_queue);
        Ok((engine, vec![handle]))
    })
}

fn query(tenant: u64) -> Vec<f32> {
    (0..HEAD_DIM)
        .map(|d| ((tenant as usize * 13 + d) as f32 * 0.21).sin())
        .collect()
}

/// Drains one request alone through `Session::serve` — the solo
/// reference healthy requests must reproduce bitwise even with faults
/// flying around them.
fn solo_reference(req: DecodeRequest) -> Vec<Vec<f32>> {
    let (session, ctx) = harness();
    let mut srv = session
        .serve(ctx.clone(), ServeConfig::new(1, 1))
        .expect("solo server");
    let handle = srv.submit(req).expect("admitted");
    srv.run_until_drained().expect("drained");
    srv.take_output(&handle).expect("finished").steps
}

/// Every `host.*` entry of `failpoint::SITES` is a failpoint some public
/// kernel call fires: armed to error once, the call returns
/// `KernelError::Panicked` at that site, and the next call runs. A site
/// that is only a worker-panic tag passes the lint and cannot be drilled.
#[test]
fn every_registered_host_site_fires() {
    use vq_llm::kernels::host_exec::{self, HostBlocking};
    use vq_llm::kernels::KernelError;
    use vq_llm::tensor::Tensor2D;
    use vq_llm::{ComputeOp, VqLlmError};

    let _scope = fault_scope();
    let (session, ctx) = harness();
    let q = query(1);
    let qs = Tensor2D::from_fn(3, HEAD_DIM, |b, d| query(b as u64)[d]);
    let attn_plan = session
        .kv_plan(&ComputeOp::attention_decode(1, HEAD_DIM, SEQ, 3))
        .expect("attention plan");
    let (n, k) = (HEAD_DIM, HEAD_DIM);
    let linear_plan = |op: ComputeOp| session.weight_plan(&op).expect("linear plan");
    let gemm_plan = linear_plan(ComputeOp::Gemm { m: 3, n, k });
    let gemv_plan = linear_plan(ComputeOp::Gemv { n, k, batch: 1 });

    let drive = |site: &str| -> Result<(), VqLlmError> {
        match site {
            "host.gemv_lut_batch" => {
                host_exec::gemv_lut(ctx.kq(), &q, &HostBlocking::default())?;
            }
            "host.gemv_xw" => drop(session.run_gemv(&gemv_plan, &q, ctx.wq())?),
            "host.gemm_fused" => drop(session.run_gemm(&gemm_plan, &qs, ctx.wq())?),
            "host.attention_ragged" => {
                session.run_attention_batch(&attn_plan, &qs, ctx.kq(), ctx.vq())?;
            }
            other => panic!("registered site {other} has no call here that fires it"),
        }
        Ok(())
    };
    let host_sites = failpoint::SITES
        .iter()
        .map(|(site, _)| *site)
        .filter(|site| site.starts_with("host."));
    let mut drilled = 0;
    for site in host_sites {
        failpoint::configure(site, Action::Error("drill".into()), 0, Some(1));
        match drive(site) {
            Err(VqLlmError::Kernel(KernelError::Panicked { site: at, message })) => {
                assert_eq!((at, message.as_str()), (site, "drill"));
            }
            other => panic!("armed {site} did not fail its kernel: {other:?}"),
        }
        drive(site).unwrap_or_else(|e| panic!("{site} fired more than once: {e}"));
        failpoint::clear();
        drilled += 1;
    }
    assert!(drilled >= 4, "the host namespace lost its sites");
}

/// A kernel panic inside a batch group quarantines the group with a
/// typed `Internal` rejection; the driver keeps serving, and a healthy
/// follow-up decodes bitwise-identical to a solo drain.
#[test]
fn group_panic_quarantines_typed_and_service_recovers() {
    let _scope = fault_scope();
    let (engine, h) = engine(2, 16);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    failpoint::configure("llm.step.group", Action::Panic("chaos".into()), 0, Some(1));
    let t1 = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 50, 3)));
    let end = client.wait(&t1).expect("driver alive");
    assert!(
        matches!(
            end,
            TicketEnd::Rejected {
                reason: RejectReason::Internal { .. },
                ..
            }
        ),
        "panicked group must reject typed internal, got {end:?}"
    );

    failpoint::clear();
    let req = DecodeRequest::new(2, query(2), 50, 3);
    let t2 = client.submit(NetRequest::new(h, req.clone()));
    let end = client.wait(&t2).expect("driver alive");
    let TicketEnd::Finished(out) = end else {
        panic!("healthy follow-up did not finish: {end:?}");
    };
    assert_eq!(out.steps, solo_reference(req), "post-fault decode diverged");

    assert!(client.metrics().quarantined >= 1, "quarantine not counted");
    let stats = client.stats().expect("driver alive");
    assert_eq!(stats.inflight_tokens, 0, "token accounting leaked");
    assert_eq!(stats.running, 0);
    driver.shutdown();
}

/// Forced KV exhaustion mid-decode quarantines exactly the offending
/// request (typed `KvCapacity`); its batch-mate finishes and matches the
/// solo reference bitwise.
#[test]
fn kv_exhaustion_quarantines_exactly_one_request() {
    let _scope = fault_scope();
    let (engine, h) = engine(2, 16);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    // The append failpoint fires once: the first request to append after
    // step 1 is quarantined, every other append proceeds normally.
    failpoint::configure("llm.step.append", Action::Error("chaos".into()), 0, Some(1));
    let victim = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 50, 4)));
    let survivor_req = DecodeRequest::new(2, query(2), 50, 4);
    let survivor = client.submit(NetRequest::new(h, survivor_req.clone()));

    let v_end = client.wait(&victim).expect("driver alive");
    assert!(
        matches!(
            v_end,
            TicketEnd::Rejected {
                reason: RejectReason::KvCapacity { .. },
                ..
            }
        ),
        "forced exhaustion must reject typed kv_capacity, got {v_end:?}"
    );
    let s_end = client.wait(&survivor).expect("driver alive");
    let TicketEnd::Finished(out) = s_end else {
        panic!("batch-mate of the quarantined request lost: {s_end:?}");
    };
    assert_eq!(
        out.steps,
        solo_reference(survivor_req),
        "survivor decode diverged from solo"
    );

    assert_eq!(client.metrics().quarantined, 1, "exactly one quarantine");
    let stats = client.stats().expect("driver alive");
    assert_eq!(stats.inflight_tokens, 0, "token accounting leaked");
    driver.shutdown();
}

/// An unsupervised driver that dies mid-decode unblocks waiters with
/// `DriverDown` (never hangs), `poll` reports a typed internal
/// rejection, and later submits resolve immediately as refused.
#[test]
fn driver_death_unblocks_wait_with_driver_down() {
    let _scope = fault_scope();
    let (engine, h) = engine(2, 16);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    // skip=1: the first step runs (so the wait below is parked on a
    // genuinely in-flight request), the second kills the driver.
    failpoint::configure("net.driver.step", Action::Panic("kill".into()), 1, Some(1));
    let t = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 50, 8)));
    let end = client.wait(&t);
    assert!(
        matches!(end, Err(WaitError::DriverDown)),
        "wait on a dead driver must return DriverDown, got {end:?}"
    );
    assert!(
        matches!(
            client.poll(&t),
            RequestStatus::Rejected {
                reason: RejectReason::Internal {
                    what: "driver down"
                }
            }
        ),
        "poll must surface the death as a typed internal rejection"
    );

    // The cell table is latched down, so a post-mortem submit resolves
    // synchronously instead of parking a waiter forever.
    let t2 = client.submit(NetRequest::new(h, DecodeRequest::new(2, query(2), 50, 1)));
    let end2 = client.wait_timeout(&t2, Duration::ZERO);
    assert!(
        matches!(
            end2,
            Ok(TicketEnd::Rejected {
                reason: RejectReason::Invalid {
                    what: "driver stopped"
                },
                ..
            })
        ),
        "post-mortem submit must refuse immediately, got {end2:?}"
    );
    driver.shutdown(); // idempotent on a dead driver
}

/// A supervised driver survives a forced kill: tickets alive across the
/// crash resolve as `DriverRestarted` with a computed retry hint, the
/// rebuilt engine serves bitwise-correct decodes against republished
/// context handles, and the restart is counted.
#[test]
fn supervisor_restarts_driver_and_resolves_live_tickets() {
    let _scope = fault_scope();
    let (client, driver, handles) = spawn_supervised(
        factory(2, 16),
        AdmissionConfig::default(),
        SupervisorConfig::default(),
    )
    .expect("initial engine build");
    let h = handles.get(0).expect("context published");

    failpoint::configure("net.driver.step", Action::Panic("kill".into()), 0, Some(1));
    let t1 = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 50, 4)));
    let end = client.wait(&t1).expect("supervisor keeps the driver alive");
    let TicketEnd::Rejected {
        reason: RejectReason::DriverRestarted { retry_after_ms },
        ..
    } = end
    else {
        panic!("pre-crash ticket must resolve driver_restarted, got {end:?}");
    };
    assert!(retry_after_ms >= 1, "retry hint must be at least 1ms");

    // The handle table was republished by the restart; the warm engine
    // serves a healthy request bitwise-equal to solo.
    let h = handles.get(0).expect("context republished");
    let req = DecodeRequest::new(2, query(2), 50, 3);
    let t2 = client.submit(NetRequest::new(h, req.clone()));
    let end = client.wait(&t2).expect("driver alive after restart");
    let TicketEnd::Finished(out) = end else {
        panic!("post-restart request did not finish: {end:?}");
    };
    assert_eq!(
        out.steps,
        solo_reference(req),
        "post-restart decode diverged"
    );

    assert_eq!(client.metrics().restarts, 1, "restart not counted");
    let stats = client.stats().expect("driver alive");
    assert_eq!(stats.inflight_tokens, 0, "token accounting leaked");
    driver.shutdown();
}

/// Draining while a fault storm is quarantining work resolves every
/// ticket — completed, quarantined, or cancelled, never stuck — and the
/// drain call itself returns.
#[test]
fn drain_during_fault_resolves_every_ticket() {
    let _scope = fault_scope();
    let (engine, h) = engine(2, 8);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    failpoint::configure("llm.step.group", Action::Panic("chaos".into()), 0, Some(1));
    let tickets: Vec<_> = (0..4)
        .map(|i| client.submit(NetRequest::new(h, DecodeRequest::new(i, query(i), 50, 3))))
        .collect();
    let report = driver.drain(Duration::from_secs(30));

    let mut finished = 0usize;
    let mut rejected = 0usize;
    for (i, t) in tickets.iter().enumerate() {
        match client.wait_timeout(t, Duration::from_secs(5)) {
            Ok(TicketEnd::Finished(_)) => finished += 1,
            Ok(TicketEnd::Rejected { .. }) => rejected += 1,
            Err(WaitError::DriverDown) => rejected += 1,
            Err(WaitError::Timeout) => panic!("ticket {i} stuck across drain"),
        }
    }
    assert_eq!(finished + rejected, 4, "every ticket accounted for");
    assert_eq!(
        finished, report.completed,
        "drain report disagrees with ticket resolutions"
    );
    assert!(rejected >= 1, "the injected group fault rejected nobody");
}

/// Splitmix64 — deterministic per-(seed, index) request variety for the
/// property test below.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(i.wrapping_mul(0xbf58476d1ce4e5b9));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

proptest! {
    /// The liveness pin: under ANY small injected fault schedule —
    /// group panics, forced KV exhaustion, driver kills, injected
    /// delays, any skip/times phasing — a supervised driver resolves
    /// every ticket (Finished | Rejected | DriverDown). Nothing is ever
    /// left stuck pending.
    #[test]
    fn any_fault_schedule_resolves_every_ticket(
        seed in 0u64..1_000_000,
        site_ix in 0usize..3,
        kind_ix in 0usize..3,
        skip in 0u64..3,
        times in 1u64..3,
        nreq in 1usize..5,
    ) {
        let _scope = fault_scope();
        let site = ["llm.step.group", "llm.step.append", "net.driver.step"][site_ix];
        let action = match kind_ix {
            0 => Action::Panic("chaos".into()),
            1 => Action::Error("chaos".into()),
            _ => Action::DelayMs(2),
        };
        let (client, driver, handles) = spawn_supervised(
            factory(2, 16),
            AdmissionConfig::default(),
            SupervisorConfig::default(),
        )
        .expect("initial engine build");
        failpoint::configure(site, action, skip, Some(times));

        let h = handles.get(0).expect("context published");
        let tickets: Vec<_> = (0..nreq)
            .map(|i| {
                let r = mix(seed, i as u64);
                let gen = 1 + (r % 3) as usize;
                client.submit(NetRequest::new(h, DecodeRequest::new(r, query(r % 7), 50, gen)))
            })
            .collect();

        for (i, t) in tickets.iter().enumerate() {
            let end = client.wait_timeout(t, Duration::from_secs(60));
            prop_assert!(
                !matches!(end, Err(WaitError::Timeout)),
                "ticket {} stuck under schedule {}={:?} skip={} times={}",
                i, site, kind_ix, skip, times
            );
        }
        failpoint::clear();
        driver.shutdown();
    }
}
