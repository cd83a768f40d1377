//! Property tests for the shared parsers in `psca-obs`: the `key=value`
//! spec tokenizer behind the chaos, skew, rollout and SLO grammars, the
//! HTTP/1.1 framing used by every server and client, and the JSON reader
//! behind every request body; for the `/v1/closed-loop` body; for the
//! sweep-cache trace codec; and for the `.pstr` instruction-trace file
//! reader (`trace-tool replay` input).

use proptest::prelude::*;
use psca::adapt::{decode_trace, decode_traces, encode_trace, encode_traces, TraceTelemetry};
use psca::faults::ChaosSpec;
use psca::fleet::{RolloutSpec, SkewSpec};
use psca::obs::http::{self, FrameError, Response};
use psca::obs::{Json, SloSpec};
use psca::serve::ClosedLoopSpec;
use psca::telemetry::NUM_EVENTS;
use psca::trace::{
    write_trace, BranchInfo, Instruction, MemRef, OpClass, Reg, TraceFileReader, TraceSource,
    VecTrace, NUM_ARCH_REGS,
};

/// Every key of the four grammars, plus near misses.
const KEYS: [&str; 29] = [
    "seed",
    "burst",
    "max_rsv",
    "telem",
    "uc",
    "act",
    "all",
    "telem.stuck",
    "uc.drop",
    "act.delay",
    "cache",
    "tlb",
    "switch",
    "noise",
    "canary",
    "waves",
    "rsv_floor",
    "ppw_floor",
    "max_esc",
    "quarantine",
    "p99_us",
    "availability",
    "window_s",
    "long_window_s",
    "fast_burn",
    "slow_burn",
    "uc_drop",
    "telem.",
    "",
];

/// Values valid and invalid for each of the four readers.
const VALUES: [&str; 16] = [
    "0",
    "1",
    "0.5",
    "0.125",
    "7",
    "600",
    "-0",
    "-1",
    "nan",
    "inf",
    "1e400",
    "18446744073709551616",
    "4294967296",
    "abc",
    "",
    " 0.25 ",
];

/// Whole-string and stray fragments.
const STRAY: [&str; 8] = [" ", "default", "OFF", "Default", "é", "\u{0}", "=", "\t"];

/// An arbitrary spec-like string: mostly `key=value` entries over every
/// grammar's keys, some missing their `=`, some stray fragments.
fn spec_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (0u8..4, 0..KEYS.len(), 0..VALUES.len(), 0..STRAY.len()),
        0..6,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(shape, k, v, x)| match shape {
                0 | 1 => format!("{}={}", KEYS[k], VALUES[v]),
                2 => format!("{}{}", KEYS[k], VALUES[v]),
                _ => STRAY[x].to_string(),
            })
            .collect::<Vec<_>>()
            .join(",")
    })
}

/// Arbitrary bytes decoded lossily: shapes no fragment list anticipates.
fn noise_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..48)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// A rate that is zero half the time (so sparse renders are covered).
fn rates(n: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0.0f64..1.0, n),
        prop::collection::vec(any::<bool>(), n),
    )
        .prop_map(|(r, on)| {
            r.into_iter()
                .zip(on)
                .map(|(r, on)| if on { r } else { 0.0 })
                .collect()
        })
}

/// A well-formed request whose bytes the framing fuzz mutates.
const REQUEST: &[u8] = b"POST /v1/predict?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\
traceparent: 00-0123456789abcdef0123456789abcdef-00000000000000ab-01\r\n\r\n{\"rows\":[]}";

/// The framing contract: a request or a typed error, never a panic.
fn check_frame(raw: &[u8], max_body: usize) {
    match http::read_request(&mut &raw[..], max_body) {
        Ok(req) => {
            assert!(!req.path.contains('?'), "query kept: {}", req.path);
            assert_eq!(req.method, req.method.to_ascii_uppercase());
            assert!(req.body.len() <= max_body);
            assert!(req.method == "POST" || req.body.is_empty());
        }
        Err(e) => {
            assert!(matches!(e.status(), 400 | 408 | 413), "{e:?}");
            assert!(
                !matches!(e, FrameError::Timeout(_)),
                "a slice cannot time out"
            );
        }
    }
}

/// Characters that stress the JSON string codec: quotes, escapes,
/// control characters, multi-byte and astral scalars.
const JSON_CHARS: [char; 10] = ['a', '"', '\\', '\n', '\u{1}', '/', 'é', '😀', '\u{7f}', ' '];

/// A JSON value built from a tape of random words, in the canonical form
/// `Json::parse` produces: `Int` only for negatives, `Num` only for
/// finite non-integral floats (integral floats print as integers).
fn json_from_tape(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let Some(x) = tape.next() else {
        return Json::Null;
    };
    let text = |x: u64| -> String {
        (0..(x % 7))
            .map(|i| JSON_CHARS[((x >> (8 * i + 3)) % 10) as usize])
            .collect()
    };
    match x % if depth >= 4 { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(x & 8 != 0),
        2 => Json::UInt(x >> 3),
        3 => Json::Int(-((x >> 4) as i64) - 1),
        4 => {
            let f = if x & 8 == 0 {
                f64::from_bits(x)
            } else {
                (x >> 12) as f64 / 4096.0 - 1e9
            };
            Json::Num(if f.is_finite() && f.fract() != 0.0 {
                f
            } else {
                0.25
            })
        }
        5 => Json::Str(text(x >> 3)),
        6 => Json::Arr(
            (0..(x >> 3) % 4)
                .map(|_| json_from_tape(tape, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..(x >> 3) % 4)
                .map(|i| (text(x >> (8 * i + 5)), json_from_tape(tape, depth + 1)))
                .collect(),
        ),
    }
}

fn json_value() -> impl Strategy<Value = Json> {
    prop::collection::vec(any::<u64>(), 1..48)
        .prop_map(|tape| json_from_tape(&mut tape.into_iter(), 0))
}

/// The JSON contract: a value or a typed error, never a panic; and
/// whatever parses serializes back to a document that parses.
fn check_json(text: &str) {
    if let Ok(value) = Json::parse(text) {
        assert!(Json::parse(&value.to_string()).is_ok(), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        check_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_never_panics_on_mutated_documents(
        value in json_value(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        nest in (0usize..400, any::<bool>(), any::<usize>()),
    ) {
        let mut raw = value.to_string().into_bytes();
        raw.truncate(cut % (raw.len() + 1));
        for (at, byte) in flips {
            if !raw.is_empty() {
                let at = at % raw.len();
                raw[at] = byte;
            }
        }
        // Nesting runs on either side of the depth bound.
        let open: &[u8] = if nest.1 { b"[" } else { b"{\"k\":" };
        let at = nest.2 % (raw.len() + 1);
        raw.splice(at..at, open.repeat(nest.0));
        check_json(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn json_round_trips_through_its_serializer(value in json_value()) {
        prop_assert_eq!(Json::parse(&value.to_string()), Ok(value));
    }

    #[test]
    fn spec_parsers_never_panic(s in spec_string(), t in noise_string()) {
        for input in [s.as_str(), t.as_str()] {
            for err in [
                ChaosSpec::parse(input).err(),
                SkewSpec::parse(input).err(),
                RolloutSpec::parse(input).err(),
                SloSpec::parse(input).err(),
            ]
            .into_iter()
            .flatten()
            {
                let text = err.to_string();
                prop_assert!(text.starts_with(&format!("'{}': ", err.entry)), "{text}");
            }
        }
    }

    #[test]
    fn accepted_chaos_and_skew_specs_render_back(s in spec_string()) {
        // `max_rsv` is a harness bound, not a fault rate: `Display` leaves
        // it out, so the re-parse keeps the default.
        if let Ok(spec) = ChaosSpec::parse(&s) {
            let back = ChaosSpec::parse(&spec.to_string()).unwrap();
            prop_assert_eq!(ChaosSpec { max_rsv: spec.max_rsv, ..back }, spec);
        }
        if let Ok(spec) = SkewSpec::parse(&s) {
            prop_assert_eq!(SkewSpec::parse(&spec.to_string()).unwrap(), spec);
        }
    }

    #[test]
    fn chaos_display_round_trips(
        seed in any::<u64>(),
        burst in (any::<bool>(), any::<u64>()),
        r in rates(11),
    ) {
        let spec = ChaosSpec {
            seed,
            burst_windows: burst.0.then_some(burst.1),
            telem_stuck: r[0],
            telem_saturate: r[1],
            telem_drop: r[2],
            telem_drift: r[3],
            telem_nan: r[4],
            uc_drop: r[5],
            uc_late: r[6],
            uc_nan: r[7],
            uc_bitflip: r[8],
            act_lost: r[9],
            act_delayed: r[10],
            ..ChaosSpec::default()
        };
        prop_assert_eq!(ChaosSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn skew_display_round_trips(r in rates(4)) {
        let spec = SkewSpec { cache: r[0], tlb: r[1], switch: r[2], noise: r[3] };
        prop_assert_eq!(SkewSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn rollout_display_round_trips(
        counts in (1usize..1_000, 0usize..100, any::<u64>(), 1u32..=u32::MAX),
        floors in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let spec = RolloutSpec {
            canary: counts.0,
            waves: counts.1,
            rsv_floor: floors.0,
            ppw_floor: floors.1,
            max_escalations: counts.2,
            quarantine_after: counts.3,
        };
        prop_assert_eq!(RolloutSpec::parse(&spec.to_string()).unwrap(), Some(spec));
    }

    #[test]
    fn slo_render_round_trips(
        p99 in 1u64..=u64::MAX,
        availability in 0.0f64..1.0,
        floor in (any::<bool>(), 0.0f64..1.0),
        windows in (1u64..100_000, 0u64..100_000),
        burns in (0.001f64..1e6, 0.001f64..1e6),
    ) {
        let spec = SloSpec {
            p99_latency_us: p99,
            availability: if availability > 0.0 { availability } else { 0.5 },
            rsv_floor: floor.0.then_some(floor.1),
            window_s: windows.0,
            long_window_s: windows.0 + windows.1,
            fast_burn: burns.0,
            slow_burn: burns.1,
        };
        prop_assert_eq!(SloSpec::parse(&spec.render()).unwrap(), Some(spec));
    }

    #[test]
    fn framing_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        max_body in 0usize..64,
    ) {
        check_frame(&bytes, max_body);
    }

    #[test]
    fn framing_never_panics_on_mutated_requests(
        cut in 0usize..=REQUEST.len(),
        flips in prop::collection::vec((0usize..REQUEST.len(), any::<u8>()), 0..4),
        max_body in 0usize..32,
    ) {
        let mut raw = REQUEST[..cut].to_vec();
        for (at, byte) in flips {
            if at < raw.len() {
                raw[at] = byte;
            }
        }
        check_frame(&raw, max_body);
    }

    #[test]
    fn responses_round_trip_through_parse_status(
        status in 100u16..600,
        body in spec_string(),
        traced in any::<bool>(),
    ) {
        let extra: &[(&str, &str)] = if traced { &[("traceparent", "00-ab-cd-01")] } else { &[] };
        let mut raw = Vec::new();
        http::write_response(&mut raw, status, "application/json", extra, &body).unwrap();
        prop_assert_eq!(http::parse_status(&raw), Some(status));
        prop_assert_eq!(Response::parse(&raw), Some(Response { status, body }));
    }
}

/// A `/v1/closed-loop` body naming the removed `backend` member is a
/// typed 400 with the usual `{error, message}` document, whatever it names.
#[test]
fn closed_loop_bodies_naming_a_backend_are_rejected() {
    for backend in [r#""surrogate""#, r#""cycle_accurate""#, "null", "1"] {
        let body = format!(r#"{{"model":"best-rf","archetype":"balanced","backend":{backend}}}"#);
        let err = ClosedLoopSpec::parse(&body).unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_request"), "{body}");
        let doc = Json::parse(&err.to_json()).expect("error body is JSON");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("bad_request"));
        assert!(doc
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("backend")));
    }
}

#[test]
fn the_unmutated_request_frames() {
    let req = http::read_request(&mut &REQUEST[..], 64).unwrap();
    assert_eq!(req.path, "/v1/predict");
    assert_eq!(req.body, "{\"rows\":[]}");
    assert!(req.header("TRACEPARENT").is_some());
}

/// A well-formed trace of 0..6 intervals whose every value derives
/// from the generated words (finite, so equality is bitwise).
fn arb_trace() -> impl Strategy<Value = TraceTelemetry> {
    (
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(|(app_id, workload, words)| {
            let col = |k: u64| words.iter().map(move |&w| (w >> 12) as f64 / k as f64);
            let rows = |salt: u64| {
                words
                    .iter()
                    .map(|&w| {
                        (0..NUM_EVENTS as u64)
                            .map(|e| ((w ^ salt) >> e) as f64)
                            .collect()
                    })
                    .collect()
            };
            TraceTelemetry {
                app_id,
                app_name: format!("app-{workload:x}"),
                workload,
                rows_hi: rows(0),
                rows_lo: rows(u64::MAX),
                ipc_hi: col(1).collect(),
                ipc_lo: col(2).collect(),
                cycles_hi: words.clone(),
                cycles_lo: words.iter().map(|w| w / 3).collect(),
                energy_hi: col(3).collect(),
                energy_lo: col(4).collect(),
                insts: words.iter().map(|w| w % 10_000).collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrips_arbitrary_traces(a in arb_trace(), b in arb_trace()) {
        prop_assert_eq!(decode_trace(&encode_trace(&a)), Ok(a.clone()));
        let list = vec![a, b];
        prop_assert_eq!(decode_traces(&encode_traces(&list)), Ok(list));
    }

    #[test]
    fn arbitrary_bytes_are_errors_not_aborts(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert!(decode_trace(&bytes).is_err());
        // The only list this short that decodes is the empty one.
        prop_assert!(decode_traces(&bytes).is_err() || bytes == [0; 4]);
    }

    #[test]
    fn mutated_encodings_are_errors_not_aborts(
        t in arb_trace(),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        for enc in [encode_trace(&t), encode_traces(&vec![t.clone()])] {
            // Every strict prefix ends inside a declared field.
            let cut = cut % enc.len();
            prop_assert!(decode_trace(&enc[..cut]).is_err());
            prop_assert!(decode_traces(&enc[..cut]).is_err());
            // A flipped byte may land in a value and still decode;
            // it must never panic or abort.
            let mut raw = enc.clone();
            for &(at, byte) in &flips {
                let at = at % raw.len();
                raw[at] = byte;
            }
            let _ = decode_trace(&raw);
            let _ = decode_traces(&raw);
        }
    }
}

/// A PC drawn from the whole `u64` range, weighted towards the values
/// where a signed delta overflows.
fn arb_pc() -> impl Strategy<Value = u64> {
    (0u8..5, any::<u64>()).prop_map(|(pick, pc)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => i64::MAX as u64,
        3 => 1 << 63,
        _ => pc,
    })
}

/// A register, or none (one value past the last register index).
fn arb_reg() -> impl Strategy<Value = Option<Reg>> {
    (0..NUM_ARCH_REGS + 1).prop_map(|i| (i < NUM_ARCH_REGS).then(|| Reg::from_index(i)))
}

/// A well-formed instruction: a memory reference exactly for memory ops
/// and a branch outcome exactly for branches, as the file format stores.
fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (
        0..OpClass::ALL.len(),
        (arb_reg(), arb_reg(), arb_reg()),
        arb_pc(),
        (any::<u64>(), any::<u8>()),
        (any::<bool>(), arb_pc()),
    )
        .prop_map(
            |(op, (dst, src0, src1), pc, (addr, size), (taken, target))| {
                let op = OpClass::ALL[op];
                Instruction {
                    op,
                    dst,
                    srcs: [src0, src1],
                    mem: op.is_mem().then(|| MemRef::new(addr, size)),
                    branch: op.is_branch().then(|| BranchInfo::new(taken, target)),
                    pc,
                }
            },
        )
}

fn encode_pstr(insts: &[Instruction]) -> Vec<u8> {
    let mut buf = Vec::new();
    let n = write_trace(&mut VecTrace::new(insts.to_vec()), u64::MAX, &mut buf).unwrap();
    assert_eq!(n, insts.len() as u64);
    buf
}

/// Opens and drains a trace file; a reader that stops early must say why.
fn drain_pstr(bytes: &[u8]) {
    let Ok(mut reader) = TraceFileReader::open(bytes) else {
        return;
    };
    while reader.next_instruction().is_some() {}
    assert!(reader.remaining() == 0 || reader.error().is_some());
}

#[test]
fn pstr_pc_deltas_past_i64_do_not_overflow() {
    // Two IntAlu records, each advancing the PC by +i64::MAX.
    let mut file = b"PSTR\x01".to_vec();
    file.extend_from_slice(&2u64.to_le_bytes());
    for _ in 0..2 {
        file.extend_from_slice(&[OpClass::IntAlu.index() as u8, 0xFF, 0xFF, 0xFF]);
        // zigzag(i64::MAX) = u64::MAX - 1 as a 10-byte varint.
        file.extend_from_slice(&[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    }
    let mut reader = TraceFileReader::open(file.as_slice()).unwrap();
    let pcs: Vec<u64> = std::iter::from_fn(|| reader.next_instruction().map(|i| i.pc)).collect();
    assert!(reader.error().is_none());
    assert_eq!(pcs, [i64::MAX as u64, u64::MAX - 1]);
    // The writer produces exactly these bytes for those PCs.
    let insts: Vec<Instruction> = pcs
        .iter()
        .map(|&pc| Instruction::alu(OpClass::IntAlu, None, [None, None]).at_pc(pc))
        .collect();
    assert_eq!(encode_pstr(&insts), file);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pstr_roundtrips_arbitrary_instruction_streams(
        insts in prop::collection::vec(arb_instruction(), 0..64),
    ) {
        let bytes = encode_pstr(&insts);
        let mut reader = TraceFileReader::open(bytes.as_slice()).unwrap();
        let back: Vec<Instruction> =
            std::iter::from_fn(|| reader.next_instruction()).collect();
        prop_assert!(reader.error().is_none());
        prop_assert_eq!(back, insts);
    }

    #[test]
    fn pstr_reader_never_panics_on_arbitrary_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..256),
        count in any::<u64>(),
    ) {
        drain_pstr(&tail);
        // Behind a valid header the body is parsed record by record.
        let mut file = b"PSTR\x01".to_vec();
        file.extend_from_slice(&count.to_le_bytes());
        file.extend_from_slice(&tail);
        drain_pstr(&file);
    }

    #[test]
    fn pstr_reader_never_panics_on_truncated_or_flipped_files(
        insts in prop::collection::vec(arb_instruction(), 1..32),
        cut in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let bytes = encode_pstr(&insts);
        let cut = cut % bytes.len();
        drain_pstr(&bytes[..cut]);
        let mut raw = bytes.clone();
        for &(at, byte) in &flips {
            let at = at % raw.len();
            raw[at] = byte;
        }
        drain_pstr(&raw);
    }
}
