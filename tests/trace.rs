//! End-to-end validation of the structured tracing layer: exported
//! trace files are valid JSON (checked with a minimal hand-rolled
//! parser — the workspace carries no serde), serial and parallel sweeps
//! export byte-identical traces, and tracing never perturbs the
//! simulated statistics.

use d2net::prelude::*;

// ----- minimal JSON parser (validation only) ------------------------
//
// Recursive-descent over the grammar of RFC 8259, keeping just enough
// structure to schema-check a `trace_event` document: objects become
// key→value maps, arrays become vectors, scalars collapse to typed
// leaves. Numbers are not parsed beyond syntax.

#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && matches!(self.s[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected {:?} at byte {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.s[self.pos] == b'-' {
            self.pos += 1;
        }
        while self.pos < self.s.len()
            && matches!(self.s[self.pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.s.get(self.pos).copied().ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                _ => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.s.len() && self.s[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.pos]).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got {:?}", c as char)),
            }
        }
    }
}

// ----- shared fixture -----------------------------------------------

fn fixture() -> (Network, RoutePolicy) {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Valiant);
    (net, policy)
}

const LOADS: [f64; 3] = [0.2, 0.5, 0.8];
const DURATION_NS: u64 = 20_000;
const WARMUP_NS: u64 = 4_000;

// ----- tests --------------------------------------------------------

#[test]
fn tracing_does_not_perturb_stats() {
    let (net, policy) = fixture();
    let cfg = SimConfig::default();
    let plain = load_sweep_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        cfg,
    );
    let (traced, traces) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        cfg,
        TraceConfig::default(),
        1,
    );
    assert_eq!(
        plain, traced,
        "attaching the trace recorder must be invisible in the stats"
    );
    assert_eq!(traces.len(), LOADS.len());

    // The exchange runner makes the same promise.
    let ex = all_to_all(net.num_nodes(), 512);
    let base = run_exchange(&net, &policy, &ex, 1, cfg);
    let (stats, trace) = run_exchange_traced(&net, &policy, &ex, 1, cfg, TraceConfig::default());
    assert_eq!(base, stats);
    assert!(!trace.flights.is_empty(), "A2A must sample some flights");
    // A run-to-completion exchange has a real drain phase.
    let drain = trace.phases.iter().find(|p| p.phase == SimPhase::Drain).unwrap();
    assert!(drain.end_ps > drain.start_ps, "exchange drain must be nonzero");
}

#[test]
fn serial_and_parallel_traces_are_byte_identical() {
    let (net, policy) = fixture();
    let cfg = SimConfig::default();
    let tc = TraceConfig::default();
    let (serial_out, serial) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        cfg,
        tc,
        1,
    );
    for threads in [2, 4] {
        let (par_out, par) = par_load_sweep_traced_collect(
            &net,
            &policy,
            &SyntheticPattern::Uniform,
            &LOADS,
            DURATION_NS,
            WARMUP_NS,
            cfg,
            tc,
            threads,
        );
        assert_eq!(serial_out.points, par_out.points, "t={threads}");
        assert_eq!(serial, par, "t={threads}: structured traces diverged");
        let a = chrome_trace_json("t", &[], &serial);
        let b = chrome_trace_json("t", &[], &par);
        assert_eq!(a, b, "t={threads}: exported bytes diverged");
    }
}

#[test]
fn exported_trace_parses_and_matches_the_event_schema() {
    let (net, policy) = fixture();
    let (_, traces) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
        TraceConfig::default(),
        1,
    );
    let text = chrome_trace_json("schema check", &[], &traces);
    let doc = Parser::parse(&text).expect("exported trace must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases_seen = Vec::new();
    let mut flows = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(
            matches!(ph, "X" | "M" | "i" | "s" | "f"),
            "unexpected ph {ph:?}"
        );
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        let name = e.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                if matches!(name, "warmup" | "measure" | "drain") {
                    phases_seen.push(name.to_string());
                }
            }
            "s" | "f" => {
                assert!(e.get("id").and_then(Json::as_f64).is_some(), "flows carry id");
                flows += 1;
            }
            _ => {}
        }
    }
    // Every traced point contributes its three phase slices.
    for want in ["warmup", "measure", "drain"] {
        assert_eq!(
            phases_seen.iter().filter(|p| *p == want).count(),
            traces.len(),
            "{want}"
        );
    }
    assert!(flows >= 2, "at least one s/f flow pair, got {flows} events");
}

#[test]
fn flight_timelines_are_causally_ordered() {
    let (net, policy) = fixture();
    let (_, traces) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &[0.5],
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
        TraceConfig {
            sample_rate: 16,
            ..TraceConfig::default()
        },
        1,
    );
    let flights: Vec<_> = traces.iter().flat_map(|p| &p.trace.flights).collect();
    assert!(!flights.is_empty());
    let mut delivered = 0;
    for f in flights {
        assert!(flight_sampled(16, f.flight_id), "only sampled ids recorded");
        assert!(
            f.events.windows(2).all(|w| w[0].t_ps <= w[1].t_ps),
            "flight {} timeline must be monotone",
            f.flight_id
        );
        if let Some(d) = f.delivered_ps {
            delivered += 1;
            assert!(d >= f.birth_ps);
            assert!(
                matches!(f.events.last().map(|e| e.kind), Some(FlightEventKind::Eject { .. })),
                "delivered flight must end in an eject"
            );
            assert!(!f.dropped);
        }
    }
    assert!(delivered > 0, "an uncongested run delivers sampled flights");
}

#[test]
fn phase_only_records_no_flights_but_keeps_counters() {
    let (net, policy) = fixture();
    let (_, traces) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &[0.5],
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
        TraceConfig {
            phase_only: true,
            ..TraceConfig::default()
        },
        1,
    );
    let t = &traces[0].trace;
    assert!(t.flights.is_empty());
    assert_eq!(t.eligible_flights, 0);
    assert!(t.counters.events_popped > 0);
    assert!(t.counters.in_q_pushes > 0);
    assert_eq!(t.phases.len(), 3);
}

#[test]
fn manifest_trace_section_roundtrips_through_the_parser() {
    let (net, policy) = fixture();
    let tc = TraceConfig::default();
    let (out, traces) = par_load_sweep_traced_collect(
        &net,
        &policy,
        &SyntheticPattern::Uniform,
        &LOADS,
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
        tc,
        1,
    );
    let mut m = RunManifest::new(
        "trace roundtrip",
        &net,
        "INR",
        "uniform",
        DURATION_NS,
        WARMUP_NS,
        SimConfig::default(),
    );
    m.push_notices(&out.notices);
    m.set_trace(TraceManifest::from_points(tc, &traces));
    m.push_curve(Curve {
        label: "INR uniform".into(),
        points: out.points,
    });
    let doc = Parser::parse(&m.to_json()).expect("manifest must be valid JSON");
    let trace = doc.get("trace").expect("traced manifest carries a trace key");
    assert_eq!(
        trace.get("sample_rate").and_then(Json::as_f64),
        Some(tc.sample_rate as f64)
    );
    let metrics = trace.get("metrics").and_then(Json::as_array).unwrap();
    assert!(metrics.len() >= 10);
    let popped = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("events_popped"))
        .expect("events_popped metric");
    assert_eq!(popped.get("kind").and_then(Json::as_str), Some("counter"));
    assert!(popped.get("value").and_then(Json::as_f64).unwrap() > 0.0);
}
