//! Correctness inside the command: kept rows against a solo decode.
//!
//! The repository's contract is that anything scheduled, batched or
//! streamed over TCP emits exactly the bytes a solo decode emits. After
//! the timed window, every request whose rows the run kept — a seeded
//! sample — is decoded again on an engine with `max_batch 1` under the
//! same `ServeConfig` otherwise, and must agree bit for bit; rows that
//! crossed the wire were parsed back from their token frames first.

use crate::gen::Request;
use crate::load::{Outcome, ReqRecord};
use crate::setup;
use crate::spec::{self, Workload};
use std::collections::BTreeMap;
use vq_llm::{DecodeRequest, KvQuantMode, SharedContext};

/// What the solo comparison found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checked {
    /// Records compared.
    pub records: usize,
    /// Distinct requests decoded solo.
    pub requests: usize,
    /// Records whose rows differed (now [`Outcome::Mismatch`]).
    pub mismatched: usize,
}

impl Checked {
    /// One line for the run's report.
    pub fn note(&self) -> String {
        format!(
            "checked {} records of {} sampled requests against solo decodes: {} mismatched",
            self.records, self.requests, self.mismatched
        )
    }
}

/// Decodes the requests at `positions` of `reqs` alone, one at a time,
/// under `kv`.
pub fn decode_solo(
    contexts: &[SharedContext],
    reqs: &[Request],
    positions: &[usize],
    kv: KvQuantMode,
) -> BTreeMap<usize, Vec<Vec<f32>>> {
    let (mut engine, handles) = setup::rebuild(contexts, 1, spec::MAX_QUEUE, kv);
    let mut out = BTreeMap::new();
    for &p in positions {
        let r = &reqs[p];
        let req = DecodeRequest::new(r.tenant, r.query.clone(), r.context_len, r.gen_tokens);
        let Ok(h) = engine.try_submit(handles[r.ctx], req) else {
            continue;
        };
        if engine.run_until_drained().is_err() {
            continue;
        }
        if let Some(o) = engine.take_output(&h) {
            out.insert(p, o.steps);
        }
    }
    out
}

fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Compares every finished record that kept its rows with the solo decode
/// of the same request; a difference marks the record
/// [`Outcome::Mismatch`] and is printed with the seed and the request's
/// position.
pub fn against_solo(
    w: &Workload,
    seed: u64,
    contexts: &[SharedContext],
    reqs: &[Request],
    records: &mut [ReqRecord],
) -> Checked {
    let mut positions: Vec<usize> = records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && r.rows.is_some())
        .map(|r| r.idx)
        .collect();
    positions.sort_unstable();
    positions.dedup();
    let solo = decode_solo(contexts, reqs, &positions, w.kv_quant);
    let mut c = Checked {
        requests: positions.len(),
        ..Checked::default()
    };
    for rec in records.iter_mut().filter(|r| r.outcome == Outcome::Ok) {
        let Some(rows) = &rec.rows else { continue };
        c.records += 1;
        if !solo.get(&rec.idx).is_some_and(|s| same_bits(s, rows)) {
            c.mismatched += 1;
            rec.outcome = Outcome::Mismatch;
            eprintln!(
                "MISMATCH: workload {} seed {seed} request {} differs from its solo decode",
                w.name, rec.idx
            );
        }
    }
    c
}

/// Output error of the live-KV path: `(relative L2, largest absolute
/// difference)` of `rows` against `baseline`, over every request both
/// hold.
pub fn output_error(
    rows: &BTreeMap<usize, Vec<Vec<f32>>>,
    baseline: &BTreeMap<usize, Vec<Vec<f32>>>,
) -> (f64, f64) {
    let (mut err_sq, mut base_sq, mut max_abs) = (0.0f64, 0.0f64, 0.0f64);
    for (p, a) in rows {
        let Some(b) = baseline.get(p) else { continue };
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            let d = (*x as f64 - *y as f64).abs();
            err_sq += d * d;
            base_sq += (*y as f64) * (*y as f64);
            max_abs = max_abs.max(d);
        }
    }
    if base_sq == 0.0 {
        (0.0, max_abs)
    } else {
        ((err_sq / base_sq).sqrt(), max_abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_not_values_decide_equality() {
        let a = vec![vec![0.0f32, 1.5]];
        assert!(same_bits(&a, &[vec![0.0, 1.5]]));
        assert!(
            !same_bits(&a, &[vec![-0.0, 1.5]]),
            "-0.0 == 0.0 but differs in bits"
        );
        assert!(!same_bits(&a, &[vec![0.0]]));
        assert!(!same_bits(&a, &[]));
    }

    #[test]
    fn output_error_is_relative_l2_and_max_abs() {
        let rows = BTreeMap::from([(3, vec![vec![3.0f32, 4.0]]), (9, vec![vec![1.0]])]);
        let base = BTreeMap::from([(3, vec![vec![0.0f32, 8.0]])]);
        // diff (3, -4) → 5; baseline norm 8.
        let (rel, max) = output_error(&rows, &base);
        assert!((rel - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(max, 4.0);
        assert_eq!(output_error(&rows, &BTreeMap::new()), (0.0, 0.0));
    }
}
