//! On-disk persistence of warmed plan caches.
//!
//! A long-running server warms its [`PlanCache`](super::PlanCache) with a
//! handful of canonical serving shapes at construction; persisting that
//! working set lets a restarted engine skip the cold-start planning pass
//! entirely. The vendored `serde` stand-in is derive-only (see
//! `vendor/README.md`), so this module carries its own small, versioned,
//! line-oriented text codec: one `(PlanKey, KernelPlan)` entry per line,
//! every field written as an explicit token, floats as IEEE-754 bit
//! patterns so a round trip is bitwise exact. Swapping in the real `serde`
//! later can replace the codec without touching the
//! [`PlanCache`](super::PlanCache) API.
//!
//! The format is strict on read: any malformed token fails the whole load
//! with [`io::ErrorKind::InvalidData`] rather than silently dropping
//! entries, so a corrupt cache file is surfaced instead of masquerading as
//! a cold start.

use super::{PlanKey, PlanRequest};
use crate::cache::CachePlacement;
use crate::dataflow::DataflowPlan;
use crate::engine::{KernelPlan, OptLevel, Tiling};
use crate::fusion::FusionLevel;
use crate::ops::ComputeOp;
use std::io;
use std::sync::Arc;
use vqllm_vq::config::CodebookScope;
use vqllm_vq::VqConfig;

/// File header: magic + codec version. Bump the version on any token
/// change; `load_from` rejects files it does not understand. (v2 added
/// the mandatory checksum trailer line.)
pub const HEADER: &str = "vqllm-plan-cache v2";

/// Prefix of the mandatory final line: `checksum <16-hex FNV-1a64>` over
/// every preceding line (header and entries, each including its `\n`).
/// The strict line codec already rejects a cut *inside* a line, but a
/// truncation that falls exactly on a line boundary parses cleanly — the
/// trailer turns that silent data loss into `InvalidData` too.
pub const TRAILER_PREFIX: &str = "checksum ";

/// Incremental FNV-1a 64-bit (dependency-free; collision resistance is
/// plenty for catching truncation/corruption, not an integrity boundary).
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit offset basis (the seed for [`fnv1a64`]).
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// --- encoding ---

/// Escapes a string into a single whitespace-free token. Every character
/// `split_ascii_whitespace` treats as a separator must be escaped —
/// space, tab, newline, carriage return, form feed, vertical tab — or a
/// hostile GPU identity would split into extra tokens and mis-parse the
/// rest of the line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\x0c' => out.push_str("\\f"),
            '\x0b' => out.push_str("\\v"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(token: &str) -> Result<String, String> {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('f') => out.push('\x0c'),
            Some('v') => out.push('\x0b'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!(" {:016x}", v.to_bits()));
}

fn push_vq(out: &mut String, vq: &VqConfig) {
    out.push_str(&format!(
        " {} {} {}",
        vq.vector_size, vq.num_entries, vq.residuals
    ));
    match vq.scope {
        CodebookScope::PerTensor => out.push_str(" T"),
        CodebookScope::PerTile { rows, cols } => out.push_str(&format!(" L {rows} {cols}")),
        CodebookScope::PerChannelGroup { channels } => out.push_str(&format!(" G {channels}")),
    }
    out.push_str(&format!(
        " {} {}",
        if vq.lattice { 1 } else { 0 },
        vq.lattice_base
    ));
}

fn push_op(out: &mut String, op: &ComputeOp) {
    match *op {
        ComputeOp::Gemm { m, n, k } => out.push_str(&format!(" M {m} {n} {k}")),
        ComputeOp::Gemv { n, k, batch } => out.push_str(&format!(" V {n} {k} {batch}")),
        ComputeOp::AttentionDecode {
            batch,
            heads,
            head_dim,
            seq,
        } => out.push_str(&format!(" A {batch} {heads} {head_dim} {seq}")),
    }
}

fn opt_index(level: OptLevel) -> usize {
    OptLevel::ALL
        .iter()
        .position(|&l| l == level)
        .expect("level is in ALL")
}

/// Renders one cache entry as a single line (no trailing newline).
pub fn encode_entry(key: &PlanKey, plan: &KernelPlan) -> String {
    let mut out = escape(&key.gpu);
    push_vq(&mut out, &key.vq);
    push_op(&mut out, &key.op);
    match key.request {
        PlanRequest::Best => out.push_str(" B"),
        PlanRequest::At(level) => out.push_str(&format!(" @{}", opt_index(level))),
    }
    out.push_str(&format!(" {} {:016x}", key.num_hot, key.profile_tag));

    push_op(&mut out, &plan.op);
    push_vq(&mut out, &plan.vq);
    out.push_str(&format!(" {}", opt_index(plan.opt_level)));
    let t = &plan.tiling;
    out.push_str(&format!(
        " {} {} {} {} {} {} {}",
        t.threads,
        t.grid_blocks,
        t.smem_data_bytes,
        t.regs_per_thread,
        t.books_per_block,
        t.output_bytes_per_block,
        t.reduce_chunks
    ));
    out.push_str(&format!(
        " {} {}",
        plan.placement.n_reg, plan.placement.n_shared
    ));
    match plan.fusion {
        FusionLevel::Shared => out.push_str(" S"),
        FusionLevel::Register { shuffles } => out.push_str(&format!(" R {shuffles}")),
    }
    let d = &plan.dataflow;
    out.push_str(&format!(
        " {} {}",
        d.split_factor,
        if d.needs_global_reduce { 1 } else { 0 }
    ));
    push_f64(&mut out, d.codebook_traffic_bytes);
    push_f64(&mut out, d.reduce_traffic_bytes);
    push_f64(&mut out, d.redundant_compute_factor);
    out.push_str(&format!(
        " {} {} {}",
        plan.books_per_block, plan.smem_codebook_bytes, plan.extra_regs_per_thread
    ));
    out
}

// --- decoding ---

/// Whitespace token cursor with contextual errors.
struct Tokens<'a> {
    iter: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens {
            iter: line.split_ascii_whitespace(),
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.iter.next().ok_or_else(|| format!("missing {what}"))
    }

    fn usize(&mut self, what: &str) -> Result<usize, String> {
        self.next(what)?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    }

    fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.next(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("bad {what}: {other}")),
        }
    }

    fn u64_hex(&mut self, what: &str) -> Result<u64, String> {
        u64::from_str_radix(self.next(what)?, 16).map_err(|e| format!("bad {what}: {e}"))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64_hex(what)?))
    }

    fn vq(&mut self) -> Result<VqConfig, String> {
        let vector_size = self.usize("vq.vector_size")?;
        let num_entries = self.usize("vq.num_entries")?;
        let residuals = self.usize("vq.residuals")?;
        let scope = match self.next("vq.scope")? {
            "T" => CodebookScope::PerTensor,
            "L" => CodebookScope::PerTile {
                rows: self.usize("vq.scope.rows")?,
                cols: self.usize("vq.scope.cols")?,
            },
            "G" => CodebookScope::PerChannelGroup {
                channels: self.usize("vq.scope.channels")?,
            },
            other => return Err(format!("bad vq.scope: {other}")),
        };
        let lattice = self.bool("vq.lattice")?;
        let lattice_base = self.usize("vq.lattice_base")?;
        Ok(VqConfig {
            vector_size,
            num_entries,
            residuals,
            scope,
            lattice,
            lattice_base,
        })
    }

    fn op(&mut self) -> Result<ComputeOp, String> {
        match self.next("op.kind")? {
            "M" => Ok(ComputeOp::Gemm {
                m: self.usize("op.m")?,
                n: self.usize("op.n")?,
                k: self.usize("op.k")?,
            }),
            "V" => Ok(ComputeOp::Gemv {
                n: self.usize("op.n")?,
                k: self.usize("op.k")?,
                batch: self.usize("op.batch")?,
            }),
            "A" => Ok(ComputeOp::AttentionDecode {
                batch: self.usize("op.batch")?,
                heads: self.usize("op.heads")?,
                head_dim: self.usize("op.head_dim")?,
                seq: self.usize("op.seq")?,
            }),
            other => Err(format!("bad op.kind: {other}")),
        }
    }

    fn opt_level(&mut self, what: &str) -> Result<OptLevel, String> {
        let idx = self.usize(what)?;
        OptLevel::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| format!("bad {what}: index {idx}"))
    }
}

/// Parses one line previously rendered by [`encode_entry`].
pub fn decode_entry(line: &str) -> Result<(PlanKey, KernelPlan), String> {
    let mut t = Tokens::new(line);
    let gpu: Arc<str> = unescape(t.next("gpu identity")?)?.into();
    let key_vq = t.vq()?;
    let key_op = t.op()?;
    let request = match t.next("request")? {
        "B" => PlanRequest::Best,
        at if at.starts_with('@') => {
            let idx: usize = at[1..].parse().map_err(|e| format!("bad request: {e}"))?;
            PlanRequest::At(
                OptLevel::ALL
                    .get(idx)
                    .copied()
                    .ok_or_else(|| format!("bad request level {idx}"))?,
            )
        }
        other => return Err(format!("bad request: {other}")),
    };
    let num_hot = t.usize("num_hot")?;
    let profile_tag = t.u64_hex("profile_tag")?;
    let key = PlanKey {
        gpu,
        vq: key_vq,
        op: key_op,
        request,
        num_hot,
        profile_tag,
    };

    let op = t.op()?;
    let vq = t.vq()?;
    let opt_level = t.opt_level("opt_level")?;
    let tiling = Tiling {
        threads: t.usize("tiling.threads")?,
        grid_blocks: t.usize("tiling.grid_blocks")?,
        smem_data_bytes: t.usize("tiling.smem_data_bytes")?,
        regs_per_thread: t.usize("tiling.regs_per_thread")?,
        books_per_block: t.usize("tiling.books_per_block")?,
        output_bytes_per_block: t.usize("tiling.output_bytes_per_block")?,
        reduce_chunks: t.usize("tiling.reduce_chunks")?,
    };
    let placement = CachePlacement {
        n_reg: t.usize("placement.n_reg")?,
        n_shared: t.usize("placement.n_shared")?,
    };
    let fusion = match t.next("fusion")? {
        "S" => FusionLevel::Shared,
        "R" => FusionLevel::Register {
            shuffles: t.usize("fusion.shuffles")?,
        },
        other => return Err(format!("bad fusion: {other}")),
    };
    let dataflow = DataflowPlan {
        split_factor: t.usize("dataflow.split_factor")?,
        needs_global_reduce: t.bool("dataflow.needs_global_reduce")?,
        codebook_traffic_bytes: t.f64("dataflow.codebook_traffic_bytes")?,
        reduce_traffic_bytes: t.f64("dataflow.reduce_traffic_bytes")?,
        redundant_compute_factor: t.f64("dataflow.redundant_compute_factor")?,
    };
    let plan = KernelPlan {
        op,
        vq,
        opt_level,
        tiling,
        placement,
        fusion,
        dataflow,
        books_per_block: t.usize("books_per_block")?,
        smem_codebook_bytes: t.usize("smem_codebook_bytes")?,
        extra_regs_per_thread: t.usize("extra_regs_per_thread")?,
    };
    if t.iter.next().is_some() {
        return Err("trailing tokens after entry".to_string());
    }
    Ok((key, plan))
}

pub(super) fn invalid_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_hostile_strings() {
        for s in [
            "GpuSpec { name: \"RTX 4090\", sms: 128 }",
            "tabs\tand\nnewlines\\and \\s literals",
            "crlf\r\nand form\x0cfeed and vtab\x0b",
            "",
        ] {
            let token = escape(s);
            assert!(
                !token.contains(char::is_whitespace),
                "escaped token {token:?} still has whitespace"
            );
            assert_eq!(unescape(&token).unwrap(), s);
        }
    }
}
