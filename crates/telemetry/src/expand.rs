//! Synthetic expansion of the base events into the paper's 936-stream
//! design-time telemetry cross-section.
//!
//! The paper records **all 936 available event counters** at design time and
//! then screens them for information content (§6.2). Real hardware exposes
//! that many streams because events are broken out per unit, per slice, and
//! per edge condition — producing heavy redundancy (e.g. branch
//! mispredictions vs. pipeline flushes), low-activity streams, and noisy
//! duplicates. [`ExpandedTelemetry`] reproduces exactly that statistical
//! structure on top of the simulator's base events, so the screening and
//! PF-selection pipeline is exercised end-to-end:
//!
//! - **scaled copies** — per-slice breakouts of a base event;
//! - **noisy copies** — the same event counted at a different unit with
//!   sampling skew;
//! - **pairwise composites** — "sum of A and B" style counters;
//! - **gated variants** — counters that read zero unless activity crosses a
//!   threshold (these trip the paper's low-activity screen on many traces);
//! - **quantized variants** — coarse bucketed duplicates (low information);
//! - **rare-event streams** — almost-always-zero counters.
//!
//! All derivations are deterministic functions of `(expansion seed, stream
//! index, interval index)` so datasets are bit-for-bit reproducible.

use crate::event::{Event, NUM_EVENTS};
use psca_obs::SplitMix64;

/// Total number of telemetry streams available at design time (the paper's
/// 936).
pub const NUM_EXPANDED_STREAMS: usize = 936;

/// How one derived stream is computed from base events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSpec {
    /// The base event itself.
    Base(Event),
    /// `scale * base` — a per-unit breakout of the same activity.
    Scaled {
        /// Source base event.
        base: Event,
        /// Multiplicative factor in `[0.25, 4.0]`.
        scale: f64,
    },
    /// `base * (1 + sigma * n(t))` with deterministic pseudo-noise `n`.
    Noisy {
        /// Source base event.
        base: Event,
        /// Relative noise amplitude.
        sigma: f64,
    },
    /// `w * a + (1 - w) * b` — a composite counter.
    Composite {
        /// First source event.
        a: Event,
        /// Second source event.
        b: Event,
        /// Mixing weight for `a`.
        w: f64,
    },
    /// `base` if `base > threshold`, else 0 — reads zero on quiet phases.
    Gated {
        /// Source base event.
        base: Event,
        /// Per-cycle activation threshold.
        threshold: f64,
    },
    /// `floor(base * levels) / levels` — a coarse duplicate.
    Quantized {
        /// Source base event.
        base: Event,
        /// Number of quantization levels.
        levels: u32,
    },
    /// Almost always zero; pulses with small probability.
    Rare {
        /// Pulse probability per interval.
        p: f64,
    },
}

/// Deterministic splitmix64 hash step: the first draw of a stream seeded
/// with `x`.
#[inline]
fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Uniform in `[0, 1)` from a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Approximately standard-normal deterministic noise for `(seed, t)`.
#[inline]
fn pseudo_normal(seed: u64, t: u64) -> f64 {
    let h1 = splitmix64(seed ^ t.wrapping_mul(0xA24B_AED4_963E_E407));
    let h2 = splitmix64(h1);
    let h3 = splitmix64(h2);
    let h4 = splitmix64(h3);
    // Irwin–Hall with n = 4, rescaled to unit variance.
    ((unit(h1) + unit(h2) + unit(h3) + unit(h4)) - 2.0) * (12.0f64 / 4.0).sqrt()
}

/// The design-time telemetry cross-section: 936 streams derived
/// deterministically from the base events.
#[derive(Debug, Clone)]
pub struct ExpandedTelemetry {
    specs: Vec<StreamSpec>,
    seed: u64,
}

impl ExpandedTelemetry {
    /// Builds the expansion for a given seed.
    ///
    /// The first [`NUM_EVENTS`] streams are the base events themselves; the
    /// remainder are derived per the module documentation. The kind mix is
    /// roughly: 30% scaled, 25% noisy, 15% composite, 15% gated, 10%
    /// quantized, 5% rare.
    pub fn new(seed: u64) -> ExpandedTelemetry {
        let mut specs = Vec::with_capacity(NUM_EXPANDED_STREAMS);
        for e in Event::ALL {
            specs.push(StreamSpec::Base(e));
        }
        for i in NUM_EVENTS..NUM_EXPANDED_STREAMS {
            let h = splitmix64(seed ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let kind = unit(h);
            let h2 = splitmix64(h);
            let base = Event::ALL[(h2 % NUM_EVENTS as u64) as usize];
            let h3 = splitmix64(h2);
            let base2 = Event::ALL[(h3 % NUM_EVENTS as u64) as usize];
            let h4 = splitmix64(h3);
            let u = unit(h4);
            let spec = if kind < 0.30 {
                StreamSpec::Scaled {
                    base,
                    scale: 0.25 + 3.75 * u,
                }
            } else if kind < 0.55 {
                StreamSpec::Noisy {
                    base,
                    sigma: 0.02 + 0.25 * u,
                }
            } else if kind < 0.70 {
                StreamSpec::Composite {
                    a: base,
                    b: base2,
                    w: 0.2 + 0.6 * u,
                }
            } else if kind < 0.85 {
                StreamSpec::Gated {
                    base,
                    threshold: 0.01 + 0.3 * u,
                }
            } else if kind < 0.95 {
                StreamSpec::Quantized {
                    base,
                    levels: 2 + (u * 6.0) as u32,
                }
            } else {
                StreamSpec::Rare {
                    p: 0.001 + 0.05 * u,
                }
            };
            specs.push(spec);
        }
        ExpandedTelemetry { specs, seed }
    }

    /// Number of streams (always [`NUM_EXPANDED_STREAMS`]).
    pub fn num_streams(&self) -> usize {
        self.specs.len()
    }

    /// The derivation spec of stream `i`.
    ///
    /// # Panics
    /// Panics if `i >= NUM_EXPANDED_STREAMS`.
    pub fn spec(&self, i: usize) -> &StreamSpec {
        &self.specs[i]
    }

    /// Index of the stream carrying base event `e` verbatim.
    pub fn base_stream(&self, e: Event) -> usize {
        e.index()
    }

    /// Human-readable stream name.
    pub fn stream_name(&self, i: usize) -> String {
        match &self.specs[i] {
            StreamSpec::Base(e) => e.name().to_string(),
            StreamSpec::Scaled { base, .. } => format!("D{i}: {} (per-unit)", base.name()),
            StreamSpec::Noisy { base, .. } => format!("D{i}: {} (alt. unit)", base.name()),
            StreamSpec::Composite { a, b, .. } => {
                format!("D{i}: {} + {}", a.name(), b.name())
            }
            StreamSpec::Gated { base, .. } => format!("D{i}: {} (thresholded)", base.name()),
            StreamSpec::Quantized { base, .. } => format!("D{i}: {} (bucketed)", base.name()),
            StreamSpec::Rare { .. } => format!("D{i}: rare event"),
        }
    }

    /// Computes the value of every stream for one interval.
    ///
    /// `base` is the normalized base-event vector of the interval
    /// (`IntervalSnapshot::as_slice`), `t` the interval index within the
    /// trace (used only to seed deterministic pseudo-noise).
    ///
    /// # Panics
    /// Panics if `base.len() != NUM_EVENTS`.
    pub fn expand_row(&self, base: &[f64], t: u64) -> Vec<f64> {
        assert_eq!(base.len(), NUM_EVENTS, "base vector has wrong arity");
        let mut out = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            let v = match *spec {
                StreamSpec::Base(e) => base[e.index()],
                StreamSpec::Scaled { base: b, scale } => base[b.index()] * scale,
                StreamSpec::Noisy { base: b, sigma } => {
                    let n = pseudo_normal(self.seed ^ (i as u64) << 17, t);
                    (base[b.index()] * (1.0 + sigma * n)).max(0.0)
                }
                StreamSpec::Composite { a, b, w } => {
                    w * base[a.index()] + (1.0 - w) * base[b.index()]
                }
                StreamSpec::Gated { base: b, threshold } => {
                    let v = base[b.index()];
                    if v > threshold {
                        v
                    } else {
                        0.0
                    }
                }
                StreamSpec::Quantized { base: b, levels } => {
                    let v = base[b.index()];
                    (v * levels as f64).floor() / levels as f64
                }
                StreamSpec::Rare { p } => {
                    let h = splitmix64(
                        self.seed ^ (i as u64) << 23 ^ t.wrapping_mul(0x2545_F491_4F6C_DD1D),
                    );
                    if unit(h) < p {
                        unit(splitmix64(h))
                    } else {
                        0.0
                    }
                }
            };
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_base() -> Vec<f64> {
        (0..NUM_EVENTS).map(|i| (i as f64 + 1.0) / 100.0).collect()
    }

    #[test]
    fn expansion_has_936_streams_and_base_prefix() {
        let exp = ExpandedTelemetry::new(7);
        assert_eq!(exp.num_streams(), NUM_EXPANDED_STREAMS);
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(*exp.spec(i), StreamSpec::Base(*e));
            assert_eq!(exp.base_stream(*e), i);
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = ExpandedTelemetry::new(42);
        let b = ExpandedTelemetry::new(42);
        let base = sample_base();
        assert_eq!(a.expand_row(&base, 5), b.expand_row(&base, 5));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ExpandedTelemetry::new(1);
        let b = ExpandedTelemetry::new(2);
        let base = sample_base();
        assert_ne!(a.expand_row(&base, 0), b.expand_row(&base, 0));
    }

    #[test]
    fn base_streams_pass_through_unchanged() {
        let exp = ExpandedTelemetry::new(3);
        let base = sample_base();
        let row = exp.expand_row(&base, 9);
        for i in 0..NUM_EVENTS {
            assert_eq!(row[i], base[i]);
        }
    }

    #[test]
    fn values_are_finite_and_nonnegative() {
        let exp = ExpandedTelemetry::new(11);
        let base = sample_base();
        for t in 0..50 {
            for (i, v) in exp.expand_row(&base, t).iter().enumerate() {
                assert!(v.is_finite(), "stream {i} at t={t}");
                assert!(*v >= 0.0, "stream {i} at t={t} is negative: {v}");
            }
        }
    }

    #[test]
    fn rare_streams_are_mostly_zero() {
        let exp = ExpandedTelemetry::new(5);
        let base = sample_base();
        let rare_idx: Vec<usize> = (0..NUM_EXPANDED_STREAMS)
            .filter(|&i| matches!(exp.spec(i), StreamSpec::Rare { .. }))
            .collect();
        assert!(
            !rare_idx.is_empty(),
            "expansion should contain rare streams"
        );
        let mut zeros = 0usize;
        let mut total = 0usize;
        for t in 0..200 {
            let row = exp.expand_row(&base, t);
            for &i in &rare_idx {
                total += 1;
                if row[i] == 0.0 {
                    zeros += 1;
                }
            }
        }
        assert!(zeros as f64 / total as f64 > 0.85);
    }

    #[test]
    fn stream_names_are_unique() {
        let exp = ExpandedTelemetry::new(7);
        let names: std::collections::HashSet<_> =
            (0..exp.num_streams()).map(|i| exp.stream_name(i)).collect();
        assert_eq!(names.len(), exp.num_streams());
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn expand_rejects_wrong_arity() {
        let exp = ExpandedTelemetry::new(7);
        let _ = exp.expand_row(&[0.0; 3], 0);
    }
}
