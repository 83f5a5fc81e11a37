//! The instruction set the host's SIMD bodies may use.
//!
//! Every SIMD dispatch in the workspace picks its body from one [`Isa`]:
//! the widest tier this machine runs, found by [`Isa::detect`] — the one
//! CPU feature probe in the workspace — or a lower tier taken from it by
//! [`Isa::downgrades`]. Nothing else makes one, so holding an `Isa` of a
//! tier proves the machine runs that tier's instructions: the `unsafe` call
//! into a `#[target_feature]` body cites it.

/// A SIMD tier, narrowest first: what an [`Isa`] witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Plain Rust, on any target.
    Portable,
    /// AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F, AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Each tier's report name, in [`Tier`] order.
const NAMES: [&str; 3] = ["scalar-8w", "avx2+fma", "avx512f"];

/// A witness that this machine runs a [`Tier`]'s instructions (and every
/// lower tier's): made only by [`Isa::detect`] and [`Isa::downgrades`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(Tier);

impl Isa {
    /// The widest tier this machine runs. The CPU is probed once a process;
    /// after that this is a cached load.
    #[inline]
    pub fn detect() -> Isa {
        static DETECTED: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            #[expect(
                clippy::disallowed_macros,
                reason = "the workspace's one CPU feature probe"
            )]
            {
                macro_rules! has {
                    ($($f:tt),+) => { $(std::arch::is_x86_feature_detected!($f))&&+ };
                }
                if has!("avx512f", "avx2", "fma") {
                    return Isa(Tier::Avx512);
                }
                if has!("avx2", "fma") {
                    return Isa(Tier::Avx2);
                }
            }
            Isa(Tier::Portable)
        })
    }

    /// This witness, then each lower tier in turn, ending at
    /// [`Tier::Portable`].
    pub fn downgrades(self) -> impl Iterator<Item = Isa> {
        std::iter::successors(Some(self), |isa| match isa.0 {
            Tier::Portable => None,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => Some(Isa(Tier::Portable)),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => Some(Isa(Tier::Avx2)),
        })
    }

    /// Every tier this machine runs, widest first — [`Isa::downgrades`] of
    /// [`Isa::detect`] — for tests that hold each tier's bodies to the
    /// others'. The first call in a process reports on stderr the tiers the
    /// machine lacks, which those tests skip.
    pub fn every() -> impl Iterator<Item = Isa> {
        static REPORTED: std::sync::Once = std::sync::Once::new();
        let isa = Isa::detect();
        let missing = &NAMES[isa.0 as usize + 1..];
        if !missing.is_empty() {
            REPORTED.call_once(|| eprintln!("tiers SKIPPED, CPU lacks them: {missing:?}"));
        }
        isa.downgrades()
    }

    /// The tier witnessed.
    #[inline]
    pub fn tier(self) -> Tier {
        self.0
    }

    /// The tier's report name: `avx512f`, `avx2+fma` or `scalar-8w` (the
    /// portable tier, whose loops are unrolled eight lanes wide).
    pub fn name(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downgrades_descend_from_the_witness_to_portable() {
        for isa in Isa::every() {
            let tiers: Vec<Tier> = isa.downgrades().map(Isa::tier).collect();
            assert_eq!(tiers.first(), Some(&isa.tier()), "starts at itself");
            assert!(tiers.windows(2).all(|w| w[0] > w[1]), "{tiers:?} descend");
            assert_eq!(tiers.last(), Some(&Tier::Portable), "ends at portable");
        }
    }

    #[test]
    fn detect_is_stable_and_named() {
        let isa = Isa::detect();
        assert_eq!(isa, Isa::detect());
        assert_eq!(Isa::every().next(), Some(isa));
        assert!(NAMES.contains(&isa.name()));
    }
}
