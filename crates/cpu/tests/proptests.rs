//! Property-based tests of simulator invariants.

use proptest::prelude::*;
use psca_cpu::{Cache, ClusterSim, CpuConfig, IntervalResult, Mode, ModeSwitchFault};
use psca_telemetry::Event;
use psca_trace::{TraceSource, VecTrace};
use psca_workloads::{Archetype, PhaseGenerator};

/// One interval's mode request: `(low power, fault)`, fault 0 none,
/// 1 lost, 2 delayed one window.
type Request = (bool, u8);

/// Runs `warm`, then `window` one interval per request on a fresh
/// simulator, returning every interval result bit for bit.
fn closed_loop(
    cpu: &CpuConfig,
    warm: &VecTrace,
    window: &VecTrace,
    interval: u64,
    requests: &[Request],
) -> Vec<(Vec<u64>, u64, u64, u64, Mode)> {
    let mut sim = ClusterSim::new(cpu.clone());
    sim.warm_up(&mut warm.clone(), warm.len() as u64);
    let mut replay = window.clone();
    let mut out = Vec::new();
    for &(low, fault) in requests.iter().cycle() {
        sim.apply_delayed_mode();
        let fault = match fault {
            0 => ModeSwitchFault::None,
            1 => ModeSwitchFault::Lost,
            _ => ModeSwitchFault::DelayedOneWindow,
        };
        sim.request_mode(if low { Mode::LowPower } else { Mode::HighPerf }, fault);
        let Some(r): Option<IntervalResult> = sim.run_interval(&mut replay, interval) else {
            break;
        };
        let rates = r.snapshot.as_slice().iter().map(|v| v.to_bits()).collect();
        out.push((
            rates,
            r.snapshot.cycles,
            r.instructions,
            r.energy.to_bits(),
            r.mode,
        ));
    }
    out
}

/// `(warm, window)` recorded afresh from `archetype` at `seed`.
fn traces(archetype: Archetype, seed: u64, window: u64) -> (VecTrace, VecTrace) {
    let mut gen = PhaseGenerator::new(archetype.center(), seed);
    let warm = VecTrace::record(&mut gen, 2_000);
    (warm, VecTrace::record(&mut gen, window))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Event-count identities hold for any simulated interval: retired
    /// instructions equal issued µops (transfers excluded by running a
    /// single mode), loads+stores equal L1D accesses, hits+misses equal
    /// accesses at every cache level the interval touched.
    #[test]
    fn event_count_identities(arch_idx in 0usize..12, seed in 0u64..100, lo in any::<bool>()) {
        let a = Archetype::ALL[arch_idx];
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        sim.set_mode(if lo { Mode::LowPower } else { Mode::HighPerf });
        let mut gen = PhaseGenerator::new(a.center(), seed);
        let r = sim.run_interval(&mut gen, 8_000).unwrap();
        let cyc = r.snapshot.cycles as f64;
        let c = |e: Event| (r.snapshot.get(e) * cyc).round() as i64;
        prop_assert_eq!(c(Event::InstRetired), 8_000);
        prop_assert_eq!(c(Event::UopsIssued), c(Event::InstRetired));
        prop_assert_eq!(
            c(Event::L1dReads) + c(Event::L1dWrites),
            c(Event::L1dHits) + c(Event::L1dMisses)
        );
        prop_assert_eq!(c(Event::LoadsRetired), c(Event::L1dReads));
        prop_assert_eq!(c(Event::StoresRetired), c(Event::L1dWrites));
        prop_assert_eq!(
            c(Event::UopsReady) + c(Event::UopsStalledOnDep),
            c(Event::UopsIssued)
        );
        prop_assert!(c(Event::BranchMispredicts) <= c(Event::BranchesRetired));
        prop_assert_eq!(
            c(Event::Cluster1UopsIssued) + c(Event::Cluster2UopsIssued),
            c(Event::UopsIssued)
        );
        if lo {
            prop_assert_eq!(c(Event::Cluster2UopsIssued), 0);
        }
    }

    /// Replaying stored functional outcomes is exact: on a fresh simulator
    /// of the recording machine, every interval equals the full path over
    /// plain traces of the same instructions, under any mode schedule and
    /// any mode-switch faults, whatever the recording run's own schedule.
    #[test]
    fn replaying_stored_outcomes_equals_the_full_path(
        arch_idx in 0usize..12,
        seed in 0u64..1_000,
        interval in 300u64..2_500,
        intervals in 1u64..8,
        recording in prop::collection::vec(any::<bool>(), 1..6),
        replaying in prop::collection::vec((any::<bool>(), 0u8..3), 1..10),
    ) {
        let cpu = CpuConfig::skylake_scaled();
        let a = Archetype::ALL[arch_idx];
        let (mut warm, mut window) = traces(a, seed, interval * intervals);
        let mut sim = ClusterSim::new(cpu.clone());
        sim.record_outcomes();
        sim.warm_up(&mut warm, 2_000);
        for &low in recording.iter().cycle() {
            sim.set_mode(if low { Mode::LowPower } else { Mode::HighPerf });
            if sim.run_interval(&mut window, interval).is_none() {
                break;
            }
        }
        warm.rewind();
        window.rewind();
        prop_assert!(window.position().unwrap().outcome_key.is_some());

        let (plain_warm, plain_window) = traces(a, seed, interval * intervals);
        let full = closed_loop(&cpu, &plain_warm, &plain_window, interval, &replaying);
        let replayed = closed_loop(&cpu, &warm, &window, interval, &replaying);
        prop_assert_eq!(full, replayed);
    }

    /// Cache contents are a function of the access stream: two caches fed
    /// the same stream agree on every hit/miss.
    #[test]
    fn cache_is_deterministic(lines in prop::collection::vec(0u64..5_000, 1..300)) {
        let mut a = Cache::new(16 * 1024, 4);
        let mut b = Cache::new(16 * 1024, 4);
        for &l in &lines {
            let ra = a.access(l, l % 3 == 0);
            let rb = b.access(l, l % 3 == 0);
            prop_assert_eq!(ra.hit, rb.hit);
            prop_assert_eq!(ra.eviction, rb.eviction);
        }
    }

    /// An evicted line was previously inserted, and its set matches.
    #[test]
    fn evictions_come_from_the_same_set(lines in prop::collection::vec(0u64..10_000, 1..400)) {
        let mut c = Cache::new(4096, 4);
        let sets = c.num_sets() as u64;
        let mut inserted = std::collections::HashSet::new();
        for &l in &lines {
            let out = c.access(l, false);
            if let Some((victim, _)) = out.eviction {
                prop_assert!(inserted.contains(&victim), "evicted {victim} never inserted");
                prop_assert_eq!(victim % sets, l % sets, "cross-set eviction");
            }
            inserted.insert(l);
        }
    }

    /// Energy scales monotonically with work: simulating more instructions
    /// never costs less energy.
    #[test]
    fn energy_monotone_in_instructions(seed in 0u64..50) {
        let run = |n: u64| {
            let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
            let mut gen = PhaseGenerator::new(Archetype::Balanced.center(), seed);
            sim.run_interval(&mut gen, n).unwrap().energy
        };
        let small = run(2_000);
        let large = run(8_000);
        prop_assert!(large > small);
    }
}
