//! Property-based tests over core invariants, spanning crates.

use proptest::prelude::*;
use psca::adapt::guardrail::{Guardrail, GuardrailConfig};
use psca::adapt::{aggregate_window, Sla};
use psca::cpu::{Cache, ClusterSim, CpuConfig, Mode};
use psca::ml::metrics::{rate_of_sla_violations, Confusion};
use psca::ml::{Dataset, Matrix, RandomForest, RandomForestConfig};
use psca::telemetry::{CounterBank, Event, ExpandedTelemetry, IntervalSnapshot, NUM_EVENTS};
use psca::trace::{Instruction, OpClass, TraceSource, VecTrace};
use psca::workloads::{Archetype, PhaseGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache hit rate over a working set that fits is eventually 100%.
    #[test]
    fn cache_resident_working_set_hits(lines in 1u64..400, seed in 0u64..1000) {
        let mut c = Cache::new(32 * 1024, 8); // 512 lines
        for round in 0..3 {
            let _ = round;
            for i in 0..lines {
                let line = seed + i;
                let out = c.access(line, false);
                if round > 0 {
                    prop_assert!(out.hit, "line {line} missed after warmup");
                }
            }
        }
    }

    /// A TLB (a one-set cache over 4-KiB pages) never misses a page
    /// after first touch while the pages fit.
    #[test]
    fn tlb_capacity_invariant(pages in 1u64..60, rounds in 2usize..5) {
        let mut tlb = Cache::new(64 * 64, 64);
        let mut misses = 0u64;
        for r in 0..rounds {
            for p in 0..pages {
                if !tlb.access(p, false).hit && r > 0 {
                    misses += 1;
                }
            }
        }
        prop_assert_eq!(misses, 0, "resident pages must not miss");
    }

    /// Counter normalization: de-normalizing a snapshot recovers counts.
    #[test]
    fn snapshot_normalization_roundtrips(
        cycles in 1u64..100_000,
        count in 0u64..1_000_000,
    ) {
        let mut bank = CounterBank::new();
        bank.add(Event::Cycles, cycles);
        bank.add(Event::LoadsRetired, count);
        let snap = bank.snapshot_and_reset();
        let recovered = snap.get(Event::LoadsRetired) * snap.cycles as f64;
        prop_assert!((recovered - count as f64).abs() < 1e-6 * count.max(1) as f64);
    }

    /// Aggregation preserves instruction and cycle totals for any split.
    #[test]
    fn aggregation_conserves_totals(parts in prop::collection::vec((1u64..5_000, 1u64..10_000), 1..12)) {
        let snaps: Vec<IntervalSnapshot> = parts
            .iter()
            .map(|&(insts, cycles)| {
                let mut bank = CounterBank::new();
                bank.add(Event::Cycles, cycles);
                bank.add(Event::InstRetired, insts);
                bank.add(Event::UopsIssued, insts);
                bank.snapshot_and_reset()
            })
            .collect();
        let rows: Vec<Vec<f64>> = snaps.iter().map(|s| s.as_slice().to_vec()).collect();
        let snap_cycles: Vec<u64> = snaps.iter().map(|s| s.cycles).collect();
        let agg = aggregate_window(
            &rows,
            &snap_cycles,
            &[Event::InstRetired, Event::UopsIssued, Event::Cycles],
        );
        let insts: u64 = parts.iter().map(|p| p.0).sum();
        let cycles: u64 = parts.iter().map(|p| p.1).sum();
        prop_assert_eq!(snap_cycles.iter().sum::<u64>(), cycles);
        prop_assert!((agg[0] * cycles as f64 - insts as f64).abs() < 1e-6);
        prop_assert!((agg[1] * cycles as f64 - insts as f64).abs() < 1e-6);
        prop_assert!((agg[2] - 1.0).abs() < 1e-12);
    }

    /// The telemetry expansion is deterministic and non-negative for any
    /// base vector.
    #[test]
    fn expansion_deterministic_nonnegative(
        seed in 0u64..50,
        t in 0u64..200,
        scale in 0.0f64..10.0,
    ) {
        let exp = ExpandedTelemetry::new(seed);
        let base: Vec<f64> = (0..NUM_EVENTS).map(|i| scale * (i as f64 + 1.0) / 10.0).collect();
        let a = exp.expand_row(&base, t);
        let b = exp.expand_row(&base, t);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| *v >= 0.0 && v.is_finite()));
    }

    /// PGOS and RSV are bounded in [0, 1] for arbitrary label streams.
    #[test]
    fn metrics_bounded(
        truth in prop::collection::vec(0u8..2, 1..200),
        flips in prop::collection::vec(any::<bool>(), 1..200),
        w in 1usize..32,
    ) {
        let pred: Vec<u8> = truth
            .iter()
            .zip(flips.iter().cycle())
            .map(|(&y, &fl)| if fl { 1 - y } else { y })
            .collect();
        let c = Confusion::from_predictions(&truth, &pred);
        prop_assert!((0.0..=1.0).contains(&c.pgos()));
        prop_assert!((0.0..=1.0).contains(&c.accuracy()));
        let rsv = rate_of_sla_violations(&truth, &pred, w);
        prop_assert!((0.0..=1.0).contains(&rsv));
        // Perfect predictions always give zero RSV.
        prop_assert_eq!(rate_of_sla_violations(&truth, &truth, w), 0.0);
    }

    /// IPC never exceeds the issue width of the active configuration.
    #[test]
    fn ipc_bounded_by_width(arch_idx in 0usize..12, lo in any::<bool>(), seed in 0u64..50) {
        let a = Archetype::ALL[arch_idx];
        let mode = if lo { Mode::LowPower } else { Mode::HighPerf };
        let mut sim = ClusterSim::new(CpuConfig::skylake_scaled());
        sim.set_mode(mode);
        let mut gen = PhaseGenerator::new(a.center(), seed);
        let r = sim.run_interval(&mut gen, 5_000).unwrap();
        let width = match mode { Mode::HighPerf => 8.0, Mode::LowPower => 4.0 };
        prop_assert!(r.ipc() > 0.0 && r.ipc() <= width + 1e-9);
        prop_assert!(r.energy > 0.0);
    }

    /// Random-forest probabilities are averages of leaf probabilities and
    /// stay in [0, 1] for any query point.
    #[test]
    fn forest_probabilities_bounded(
        n in 20usize..80,
        seedling in 0u64..100,
        qx in -5.0f64..5.0,
        qy in -5.0f64..5.0,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64) / n as f64, ((i * 7 + seedling as usize) % n) as f64 / n as f64])
            .collect();
        let labels: Vec<u8> = rows.iter().map(|r| (r[0] > 0.5) as u8).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let data = Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n]);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, seedling);
        let p = rf.predict_proba(&[qx, qy]);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// Trace adaptors never invent instructions.
    #[test]
    fn take_never_exceeds(n in 0u64..500, cap in 0u64..500) {
        let insts = vec![Instruction::alu(OpClass::IntAlu, None, [None, None]); n as usize];
        let mut t = VecTrace::new(insts).take_insts(cap);
        let mut count = 0u64;
        while t.next_instruction().is_some() {
            count += 1;
        }
        prop_assert_eq!(count, n.min(cap));
    }

    /// Guardrail: a trip's forced-high-performance stretch never exceeds
    /// the configured cooldown, for any honest decision-driven caller and
    /// any IPC stream.
    #[test]
    fn guardrail_cooldown_is_bounded(
        trip_after in 1usize..4,
        cooldown in 1usize..8,
        probe_period in 2usize..12,
        ipcs in prop::collection::vec(0.01f64..8.0, 1..120),
    ) {
        let cfg = GuardrailConfig { trip_after, cooldown, alpha: 0.5, probe_period };
        let mut g = Guardrail::new(cfg, Sla::paper_default());
        // Honest caller: the vetted decision dictates whether the next
        // observed window ran gated.
        let mut gated = false;
        let mut forced_streak = 0usize;
        for &ipc in &ipcs {
            prop_assert!(g.cooldown_remaining() <= cooldown);
            let was_cooling = g.in_cooldown();
            let d = g.vet(gated, ipc, true);
            if was_cooling {
                prop_assert!(!d, "cooldown must force high-performance");
                forced_streak += 1;
                prop_assert!(forced_streak <= cooldown, "cooldown overran: {forced_streak}");
            } else {
                forced_streak = 0;
            }
            gated = d;
        }
    }

    /// Guardrail: with the SLA always met, probes fire exactly every
    /// `probe_period` gated windows — no trips, no drift in cadence.
    #[test]
    fn guardrail_probe_cadence_is_exact(
        probe_period in 2usize..12,
        n in 30usize..120,
    ) {
        let cfg = GuardrailConfig { probe_period, ..GuardrailConfig::default() };
        let mut g = Guardrail::new(cfg, Sla::paper_default());
        let mut gated = false;
        let mut probe_at = Vec::new();
        for t in 0..n {
            // IPC equal to the reference: gated windows always meet the
            // SLA, so every forced-high window is a probe.
            let d = g.vet(gated, 4.0, true);
            if !d {
                probe_at.push(t);
            }
            gated = d;
        }
        prop_assert_eq!(g.trips(), 0);
        prop_assert_eq!(probe_at.len(), g.probes());
        // One ungated window precedes each streak, so consecutive probes
        // are exactly probe_period + 1 windows apart.
        for w in probe_at.windows(2) {
            prop_assert_eq!(w[1] - w[0], probe_period + 1);
        }
    }

    /// Guardrail: trip and probe counts are monotone non-decreasing and
    /// bounded by the number of observed windows, for any input stream.
    #[test]
    fn guardrail_counts_monotone(
        inputs in prop::collection::vec((any::<bool>(), 0.01f64..8.0, any::<bool>()), 1..150),
    ) {
        let mut g = Guardrail::new(GuardrailConfig::default(), Sla::paper_default());
        let mut prev_trips = 0;
        let mut prev_probes = 0;
        for &(gated, ipc, wants) in &inputs {
            let _ = g.vet(gated, ipc, wants);
            prop_assert!(g.trips() >= prev_trips);
            prop_assert!(g.probes() >= prev_probes);
            prev_trips = g.trips();
            prev_probes = g.probes();
        }
        prop_assert!(g.trips() + g.probes() <= inputs.len());
    }

    /// The phase generator always produces well-formed instructions with
    /// jittered parameters.
    #[test]
    fn generator_well_formed_under_jitter(arch_idx in 0usize..12, seed in 0u64..200) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = Archetype::ALL[arch_idx].sample_params(&mut rng, 0.5);
        let mut gen = PhaseGenerator::new(params, seed);
        for _ in 0..300 {
            let inst = gen.next_instruction().unwrap();
            prop_assert!(inst.is_well_formed());
        }
    }
}
