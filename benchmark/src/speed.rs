//! How fast the core under the program is running right now, and the
//! normalisation of measured times built on it.
//!
//! The reference box is two virtual cores of a shared host. Each core moves
//! between speed levels about a quarter apart (a neighbour's load, the
//! host's frequency management) and stays on one for seconds at a time; a
//! run's median then says which level the run happened to see, and ten runs
//! of the same commit spread 15-25 %. Nothing inside the guest reports the
//! level — steal time stays 0 — except how long a fixed piece of work takes
//! on that core at that moment.
//!
//! So the benchmark carries such a piece of work, the **probe**: a
//! table-lookup sum over 12 KiB, the kind of arithmetic the kernels do,
//! small enough to live in L1 and short enough (~24 µs) to run between two
//! engine steps. It runs every 5 ms on the core the program under test is
//! pinned to — inline on the calling thread for the engine-direct
//! workloads, from a sampler thread pinned beside the server for the TCP
//! ones — and every end-to-end time is multiplied by
//! `PROBE_REF_NS / (median probe time of the half second it ended in)`:
//! the time it would have taken with the core at its reference level. The
//! probe is the benchmark's own code and never changes with the program, so
//! the factor cancels between two commits measured the same way; what it
//! removes is the part of the run-to-run spread that the box, not the
//! program, put there.

use crate::stats;
use crate::trace::Clock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The probe's time with a core of the reference box at the level it shows
/// most, ns (quiet runs read 24.05-24.42 µs; the fast level is 19.3, slow
/// ones 31 and up). Frozen: every normalised time is relative to it.
pub const PROBE_REF_NS: f64 = 24_400.0;
/// A probe is taken when this long has passed since the last one.
pub const PROBE_EVERY_NS: u64 = 5_000_000;
/// Width of the windows a [`Speed`] table holds one factor for.
pub const BIN_NS: u64 = 500_000_000;
/// Fewest probes a window's median is taken over; a window with fewer
/// borrows its neighbours'.
const MIN_PER_BIN: usize = 5;

const CODES: usize = 4096;
const LUT: usize = 1024;
const PASSES: usize = 24;

fn tables() -> &'static (Vec<u16>, Vec<f32>) {
    static T: OnceLock<(Vec<u16>, Vec<f32>)> = OnceLock::new();
    T.get_or_init(|| {
        let mut rng = crate::gen::Rng::new(0x5EED, 9);
        let codes = (0..CODES).map(|_| rng.below(LUT as u64) as u16).collect();
        let lut = (0..LUT).map(|i| (i % 97) as f32 * 0.01).collect();
        (codes, lut)
    })
}

fn pass(codes: &[u16], lut: &[f32]) -> f32 {
    let mut acc = [0f32; 8];
    for chunk in codes.chunks_exact(8) {
        for (a, &c) in acc.iter_mut().zip(chunk) {
            *a += lut[c as usize % LUT];
        }
    }
    acc.iter().sum()
}

/// Runs the probe once on the calling thread and returns how long it took,
/// ns: one untimed pass to bring the tables into L1, then the timed ones.
pub fn probe_ns(clock: Clock) -> u64 {
    let (codes, lut) = tables();
    std::hint::black_box(pass(codes, lut));
    let t0 = clock.now_ns();
    for _ in 0..PASSES {
        std::hint::black_box(pass(std::hint::black_box(codes), lut));
    }
    clock.now_ns() - t0
}

/// Probe readings in time order: `(when, how long)`, ns.
#[derive(Debug, Default, Clone)]
pub struct SpeedLog {
    /// The readings.
    pub samples: Vec<(u64, u64)>,
}

impl SpeedLog {
    /// Takes a reading now.
    pub fn sample(&mut self, clock: Clock) {
        let t = clock.now_ns();
        self.samples.push((t, probe_ns(clock)));
    }

    /// Takes a reading if [`PROBE_EVERY_NS`] has passed since the last.
    pub fn sample_if_due(&mut self, clock: Clock) {
        let due = self
            .samples
            .last()
            .is_none_or(|&(t, _)| clock.now_ns() >= t + PROBE_EVERY_NS);
        if due {
            self.sample(clock);
        }
    }

    /// Median reading, ns (0 when there is none).
    pub fn median_ns(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|&(_, d)| d as f64).collect();
        stats::median(&v).value
    }

    /// `PROBE_REF_NS` over the median reading: the factor a time measured
    /// beside these readings is multiplied by (1 when there is none).
    pub fn factor(&self) -> f64 {
        match self.median_ns() {
            m if m > 0.0 => PROBE_REF_NS / m,
            _ => 1.0,
        }
    }

    /// The factor of every [`BIN_NS`] window the readings span.
    pub fn table(&self) -> Speed {
        let (Some(&(first, _)), Some(&(last, _))) = (self.samples.first(), self.samples.last())
        else {
            return Speed::unit();
        };
        let bins = ((last - first) / BIN_NS + 1) as usize;
        let mut by_bin: Vec<Vec<f64>> = vec![Vec::new(); bins];
        for &(t, d) in &self.samples {
            by_bin[((t - first) / BIN_NS) as usize].push(d as f64);
        }
        let factor = (0..bins)
            .map(|i| {
                // Widen over the neighbours until the median has enough
                // readings behind it.
                let mut reach = 0;
                loop {
                    let (lo, hi) = (i.saturating_sub(reach), (i + reach).min(bins - 1));
                    let pool: Vec<f64> = by_bin[lo..=hi].iter().flatten().copied().collect();
                    if pool.len() >= MIN_PER_BIN || (lo == 0 && hi == bins - 1) {
                        let m = stats::median(&pool).value;
                        break if m > 0.0 { PROBE_REF_NS / m } else { 1.0 };
                    }
                    reach += 1;
                }
            })
            .collect();
        Speed {
            start_ns: first,
            factor,
        }
    }
}

/// What a time ending at a given instant is multiplied by.
#[derive(Debug, Clone, PartialEq)]
pub struct Speed {
    start_ns: u64,
    factor: Vec<f64>,
}

impl Speed {
    /// The table that changes nothing (traced runs report raw times).
    pub fn unit() -> Speed {
        Speed {
            start_ns: 0,
            factor: Vec::new(),
        }
    }

    /// The factor at `t_ns`; instants outside the table take its nearest
    /// end.
    pub fn at(&self, t_ns: u64) -> f64 {
        let Some(last) = self.factor.len().checked_sub(1) else {
            return 1.0;
        };
        let i = (t_ns.saturating_sub(self.start_ns) / BIN_NS) as usize;
        self.factor[i.min(last)]
    }
}

/// A thread taking a reading every [`PROBE_EVERY_NS`] on the core it is
/// pinned to — the server's, for workloads whose kernels run on threads the
/// benchmark does not own.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<SpeedLog>,
}

impl Sampler {
    /// Starts sampling on `cpu` (wherever the scheduler likes when `None`).
    pub fn start(clock: Clock, cpu: Option<usize>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            if let Some(cpu) = cpu {
                pin_to(cpu);
            }
            let mut log = SpeedLog::default();
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_nanos(PROBE_EVERY_NS));
                log.sample(clock);
            }
            log
        });
        Sampler { stop, handle }
    }

    /// Stops the thread and returns its readings.
    pub fn finish(self) -> SpeedLog {
        self.stop.store(true, Ordering::Release);
        self.handle.join().unwrap_or_default()
    }
}

/// Where a run's threads go: the program under test (engine, server and
/// every thread they spawn) on one core, the load generator on another
/// when there is one — so the generator's polling never takes time from
/// the program, and the probe reads the core the program runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Core of the program under test; `None` when pinning is unavailable.
    pub program: Option<usize>,
    /// Core of the load-generator threads.
    pub load: Option<usize>,
}

impl Placement {
    /// Chooses among the cores this process may run on and pins the
    /// calling thread — and so every thread it spawns from here on — to the
    /// program's.
    pub fn take() -> Placement {
        // Counted before this thread is narrowed to one of them.
        crate::spec::nproc();
        let cpus = allowed_cpus();
        let program = cpus.first().copied();
        let load = cpus.get(1).copied().or(program);
        match program {
            Some(cpu) if pin_to(cpu) => Placement { program, load },
            _ => Placement {
                program: None,
                load: None,
            },
        }
    }

    /// How the header names it.
    pub fn describe(&self) -> String {
        match (self.program, self.load) {
            (Some(p), Some(l)) => format!("program@cpu{p},load@cpu{l}"),
            _ => "unpinned".to_string(),
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    // The C library `std` already links; no crate needed for two calls.
    extern "C" {
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
}

/// The first 64 cores' worth of this thread's affinity mask.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: the mask is a live, writable buffer of the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64).filter(|&c| mask[0] >> c & 1 == 1).collect()
}

/// Pins the calling thread to `cpu`; `false` when the kernel refuses.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask = [1u64 << cpu];
    // SAFETY: the mask is a live buffer of the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Not on Linux: nothing to choose from.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Not on Linux: never pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(samples: &[(u64, u64)]) -> SpeedLog {
        SpeedLog {
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn a_slow_half_second_gets_its_own_factor() {
        let r = PROBE_REF_NS as u64;
        let mut s = Vec::new();
        for i in 0..100u64 {
            // 0.5 s at the reference level, then 0.5 s a quarter slower.
            let d = if i < 50 { r } else { r * 5 / 4 };
            s.push((1_000 + i * 10_000_000, d));
        }
        let t = log(&s).table();
        assert_eq!(t.at(1_000), 1.0);
        assert_eq!(t.at(1_000 + 499_000_000), 1.0);
        assert!((t.at(1_000 + 500_000_000) - 0.8).abs() < 1e-12);
        // Outside the table: the nearest end.
        assert_eq!(t.at(0), 1.0);
        assert!((t.at(u64::MAX) - 0.8).abs() < 1e-12);
        // One preempted reading does not move a window's median.
        s[10].1 = r * 100;
        assert_eq!(log(&s).table().at(1_000), 1.0);
    }

    #[test]
    fn a_thin_window_borrows_its_neighbours() {
        let r = PROBE_REF_NS as u64;
        let mut s: Vec<(u64, u64)> = (0..20).map(|i| (i * 10_000_000, r)).collect();
        // One lone slow reading 1.2 s in, then a full window.
        s.push((1_200_000_000, 2 * r));
        s.extend((0..20).map(|i| (1_500_000_000 + i * 10_000_000, r)));
        let t = log(&s).table();
        assert_eq!(
            t.at(1_200_000_000),
            1.0,
            "outvoted by the windows beside it"
        );
        assert_eq!(t.at(700_000_000), 1.0, "an empty window too");
    }

    #[test]
    fn no_readings_change_nothing() {
        assert_eq!(SpeedLog::default().table(), Speed::unit());
        assert_eq!(Speed::unit().at(123), 1.0);
        assert_eq!(SpeedLog::default().factor(), 1.0);
        assert_eq!(log(&[(0, 40_000)]).factor(), PROBE_REF_NS / 40_000.0);
    }

    #[test]
    fn the_probe_takes_about_what_the_reference_says() {
        let clock = Clock::start();
        let best = (0..50).map(|_| probe_ns(clock)).min().unwrap_or(0);
        // Within 4x either way on any machine this is likely to run on:
        // the constant is a level, not a bound.
        assert!(best > 0 && (best as f64) < 4.0 * PROBE_REF_NS, "{best}");
    }

    #[test]
    fn pinning_keeps_to_an_allowed_core() {
        let cpus = allowed_cpus();
        if let Some(&c) = cpus.last() {
            // On a thread of its own, so the test runner's stays free.
            let pinned = std::thread::spawn(move || (pin_to(c), allowed_cpus()))
                .join()
                .expect("thread");
            assert_eq!(pinned, (true, vec![c]));
        }
        assert!(!pin_to(64));
    }
}
