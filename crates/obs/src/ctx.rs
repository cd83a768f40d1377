//! Request-scoped trace context.
//!
//! A [`TraceCtx`] names one logical request end-to-end: a 128-bit trace
//! id shared by everything the request touches plus a 64-bit span id for
//! the current hop. The daemon mints one at ingress (or adopts the trace
//! id from an inbound W3C `traceparent` header), attaches it to the
//! handling thread with [`attach`], and every [`crate::SpanTimer`] /
//! Perfetto record emitted while the guard lives carries the ids as
//! arguments — so one request renders as a single tree in the trace UI
//! and its trace id can be joined against the access log, the latency
//! histogram exemplar, and the flight recorder.
//!
//! Ids come from a process-global SplitMix64 stream so tests can pin the
//! sequence with [`seed_ids`] and assert exact ids. Context is carried in
//! a thread-local; `psca-exec` forwards the submitting thread's context
//! into its pool workers so fan-out stays inside the same trace.
//!
//! The contract shared by every consumer: context is *observability
//! only*. Attaching, minting, or propagating a context never changes any
//! computed result — bit-identity with tracing off is enforced by test.

use std::cell::Cell;
use std::sync::Mutex;

/// One request's identity: trace id (whole request tree) + span id (this
/// hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// 128-bit id shared by every span of the request.
    pub trace_id: u128,
    /// 64-bit id of the current hop.
    pub span_id: u64,
}

/// SplitMix64: tiny, dependency-free, and statistically adequate for
/// every deterministic stream in the workspace — trace ids here, fault
/// scheduling (`psca_faults` re-exports it), per-die fleet skew, loadgen
/// bodies, and the telemetry expansion's per-stream hashes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream whose entire future is determined by `seed`.
    #[inline]
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Default id-stream seed: fixed, so a fresh process mints a
/// deterministic id sequence (tests can still re-pin with [`seed_ids`]).
const DEFAULT_ID_SEED: u64 = 0x5CA1_AB1E_0B5E_11E5;

static ID_STATE: Mutex<SplitMix64> = Mutex::new(SplitMix64::new(DEFAULT_ID_SEED));

/// Re-seeds the process-global id stream (tests; deterministic replay).
pub fn seed_ids(seed: u64) {
    *ID_STATE.lock().unwrap() = SplitMix64::new(seed);
}

fn next_nonzero() -> u64 {
    let mut state = ID_STATE.lock().unwrap();
    loop {
        let v = state.next_u64();
        if v != 0 {
            return v;
        }
    }
}

impl TraceCtx {
    /// Mints a fresh context (new trace id, new span id) from the global
    /// id stream.
    pub fn mint() -> TraceCtx {
        let hi = next_nonzero() as u128;
        let lo = next_nonzero() as u128;
        TraceCtx {
            trace_id: (hi << 64) | lo,
            span_id: next_nonzero(),
        }
    }

    /// A child context: same trace id, fresh span id.
    pub fn child(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: next_nonzero(),
        }
    }

    /// The 32-hex-digit trace id, as used in `traceparent`, exemplars,
    /// the access log, and the flight recorder.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// The 16-hex-digit span id.
    pub fn span_id_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// Renders the W3C `traceparent` header value
    /// (`00-<trace id>-<span id>-01`).
    pub fn to_traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// Parses a W3C `traceparent` header value. Returns `None` for
    /// malformed values, the forbidden `ff` version, or all-zero ids
    /// (invalid per the spec).
    pub fn parse_traceparent(value: &str) -> Option<TraceCtx> {
        let mut parts = value.trim().split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let _flags = parts.next()?;
        if version.len() != 2 || version.eq_ignore_ascii_case("ff") {
            return None;
        }
        u8::from_str_radix(version, 16).ok()?;
        if trace.len() != 32 || span.len() != 16 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace, 16).ok()?;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceCtx { trace_id, span_id })
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The calling thread's active context, if any.
#[inline]
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// Attaches `ctx` to the calling thread for the guard's lifetime; the
/// previous context (if any) is restored on drop, so attachment nests.
pub fn attach(ctx: TraceCtx) -> CtxGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    CtxGuard { prev }
}

/// RAII restorer for [`attach`].
#[derive(Debug)]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = TraceCtx {
            trace_id: 0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF,
            span_id: 0xFEDC_BA98_7654_3210,
        };
        let header = ctx.to_traceparent();
        assert_eq!(
            header,
            "00-0123456789abcdef0123456789abcdef-fedcba9876543210-01"
        );
        assert_eq!(TraceCtx::parse_traceparent(&header), Some(ctx));
    }

    #[test]
    fn parse_rejects_malformed_values() {
        assert_eq!(TraceCtx::parse_traceparent(""), None);
        assert_eq!(TraceCtx::parse_traceparent("not-a-header"), None);
        // Wrong field widths.
        assert_eq!(TraceCtx::parse_traceparent("00-abc-def-01"), None);
        // All-zero ids are invalid per the spec.
        assert_eq!(
            TraceCtx::parse_traceparent(&format!("00-{:032x}-{:016x}-01", 0, 1)),
            None
        );
        assert_eq!(
            TraceCtx::parse_traceparent(&format!("00-{:032x}-{:016x}-01", 1, 0)),
            None
        );
        // Forbidden version.
        assert_eq!(
            TraceCtx::parse_traceparent(&format!("ff-{:032x}-{:016x}-01", 1, 1)),
            None
        );
        // Non-hex garbage.
        assert_eq!(
            TraceCtx::parse_traceparent("00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0000000000000001-01"),
            None
        );
    }

    #[test]
    fn seeded_ids_are_deterministic() {
        seed_ids(42);
        let a = TraceCtx::mint();
        seed_ids(42);
        let b = TraceCtx::mint();
        assert_eq!(a, b);
        let c = TraceCtx::mint();
        assert_ne!(b, c, "stream advances");
        assert_ne!(c.trace_id, 0);
        assert_ne!(c.span_id, 0);
    }

    #[test]
    fn child_keeps_trace_id() {
        let parent = TraceCtx::mint();
        let child = parent.child();
        assert_eq!(child.trace_id, parent.trace_id);
        assert_ne!(child.span_id, parent.span_id);
    }

    #[test]
    fn attach_nests_and_restores() {
        assert_eq!(current(), None);
        let a = TraceCtx::mint();
        let b = TraceCtx::mint();
        {
            let _ga = attach(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = attach(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert_eq!(current(), None);
    }
}
