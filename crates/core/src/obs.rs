//! Operational observability, core layer (DESIGN.md §16): the event
//! log machinery re-exported from [`d2net_sim::obs`], plus everything
//! that needs the core crate's parsers and serializers — event-line
//! parsing with [`crate::compare::Json`], Prometheus text exposition of
//! a [`MetricsRegistry`], and the hand-rolled HTTP status server behind
//! `d2net-serve --status-addr`.
//!
//! Everything here is observer-only and zero-dependency: the status
//! server is `std::net::TcpListener` plus a thread, the exposition
//! renderer is string formatting, and the validator exists so tests and
//! `ci.sh --obs-smoke` can hold `/metrics` to the exposition grammar
//! without a Prometheus binary in the container.

pub use d2net_sim::obs::*;

use crate::compare::Json;
use d2net_sim::trace::{MetricValue, MetricsRegistry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Event-log parsing
// ---------------------------------------------------------------------

/// One parsed line of a `d2net.events/v1` log. `doc` keeps the whole
/// object so callers can read typed payload fields by key.
#[derive(Debug, Clone)]
pub struct ParsedEvent {
    pub seq: u64,
    pub t_ms: u64,
    pub level: Level,
    pub code: String,
    pub message: String,
    pub doc: Json,
}

/// Parses one line of an event log. The schema header line
/// (`{"schema":"d2net.events/v1"}`) parses to `Ok(None)`; a mismatched
/// schema or a structurally invalid event is an `Err`.
pub fn parse_event_line(line: &str) -> Result<Option<ParsedEvent>, String> {
    let doc = Json::parse(line)?;
    if let Some(schema) = doc.get("schema").and_then(|j| j.as_str()) {
        return if schema == EVENTS_SCHEMA {
            Ok(None)
        } else {
            Err(format!(
                "event log schema '{schema}' is not '{EVENTS_SCHEMA}'"
            ))
        };
    }
    let seq = doc
        .get("seq")
        .and_then(|j| j.as_u64())
        .ok_or("event missing 'seq'")?;
    let t_ms = doc
        .get("t_ms")
        .and_then(|j| j.as_u64())
        .ok_or("event missing 't_ms'")?;
    let level = doc
        .get("level")
        .and_then(|j| j.as_str())
        .and_then(Level::parse)
        .ok_or("event missing a valid 'level'")?;
    let code = doc
        .get("code")
        .and_then(|j| j.as_str())
        .ok_or("event missing 'code'")?
        .to_string();
    let message = doc
        .get("message")
        .and_then(|j| j.as_str())
        .ok_or("event missing 'message'")?
        .to_string();
    Ok(Some(ParsedEvent {
        seq,
        t_ms,
        level,
        code,
        message,
        doc,
    }))
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

/// Maps a registry metric name onto the exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and namespaces it under `d2net_`
/// (unless already namespaced).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    if !name.starts_with("d2net_") {
        out.push_str("d2net_");
    }
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || c == ':'
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

fn prom_label_value(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Label keys share the name charset minus ':' and take no namespace.
fn prom_label_key(k: &str) -> String {
    k.chars()
        .enumerate()
        .map(|(i, c)| {
            if c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&prom_label_key(k));
        out.push('=');
        prom_label_value(out, v);
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        prom_label_value(out, v);
    }
    out.push('}');
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a [`MetricsRegistry`] in the Prometheus text exposition
/// format (version 0.0.4): one `# TYPE` line per metric name, samples
/// grouped by name in first-registration order. Histograms follow the
/// `_bucket`/`_count`/`_sum` convention with cumulative `le` buckets in
/// nanoseconds; `_sum` is an upper-bound-weighted estimate (the
/// registry stores bucketed counts, not exact sums), with the overflow
/// bucket weighted at twice the last bound.
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    // Group samples by exposition name, preserving first appearance.
    let mut order: Vec<String> = Vec::new();
    let mut groups: Vec<Vec<&d2net_sim::trace::Metric>> = Vec::new();
    for m in &reg.metrics {
        let name = prom_name(&m.name);
        match order.iter().position(|n| *n == name) {
            Some(i) => groups[i].push(m),
            None => {
                order.push(name);
                groups.push(vec![m]);
            }
        }
    }
    let mut out = String::new();
    for (name, group) in order.iter().zip(&groups) {
        let kind = match group[0].value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        };
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for m in group {
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(name);
                    prom_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(name);
                    prom_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {}\n", prom_f64(*v)));
                }
                MetricValue::Histogram { bounds_ns, counts } => {
                    let mut cum = 0u64;
                    let mut sum_est = 0.0f64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i < bounds_ns.len() {
                            sum_est += c as f64 * bounds_ns[i] as f64;
                            bounds_ns[i].to_string()
                        } else {
                            sum_est +=
                                c as f64 * bounds_ns.last().map(|&b| 2 * b).unwrap_or(0) as f64;
                            "+Inf".to_string()
                        };
                        out.push_str(&format!("{name}_bucket"));
                        prom_labels(&mut out, &m.labels, Some(("le", &le)));
                        out.push_str(&format!(" {cum}\n"));
                    }
                    out.push_str(&format!("{name}_count"));
                    prom_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {cum}\n"));
                    out.push_str(&format!("{name}_sum"));
                    prom_labels(&mut out, &m.labels, None);
                    out.push_str(&format!(" {}\n", prom_f64(sum_est)));
                }
            }
        }
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Checks a payload against the exposition grammar: every line is
/// blank, a comment, or `name[{labels}] value [timestamp]`; `# TYPE`
/// lines carry a known type and appear at most once per name. Returns
/// the first violation as `Err("line N: …")`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let no = no + 1;
        let fail = |why: &str| Err(format!("line {no}: {why}: {line}"));
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let Some(name) = parts.next() else {
                    return fail("TYPE line without a metric name");
                };
                if !valid_metric_name(name) {
                    return fail("TYPE line names an invalid metric");
                }
                let kind = parts.next().unwrap_or_default().trim();
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return fail("TYPE line carries an unknown type");
                }
                if typed.iter().any(|t| t == name) {
                    return fail("duplicate TYPE line for metric");
                }
                typed.push(name.to_string());
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let Some(close) = line.rfind('}') else {
                    return fail("unclosed label braces");
                };
                if close < brace {
                    return fail("mismatched label braces");
                }
                let labels = &line[brace + 1..close];
                validate_labels(labels).map_err(|e| format!("line {no}: {e}: {line}"))?;
                (&line[..brace], &line[close + 1..])
            }
            None => match line.find(' ') {
                Some(sp) => (&line[..sp], &line[sp..]),
                None => return fail("sample line without a value"),
            },
        };
        if !valid_metric_name(name_part) {
            return fail("invalid metric name");
        }
        let mut tokens = rest.split_whitespace();
        let Some(value) = tokens.next() else {
            return fail("sample line without a value");
        };
        if !valid_sample_value(value) {
            return fail("sample value is not a float");
        }
        if let Some(ts) = tokens.next() {
            if ts.parse::<i64>().is_err() {
                return fail("timestamp is not an integer");
            }
        }
        if tokens.next().is_some() {
            return fail("trailing tokens after timestamp");
        }
    }
    Ok(())
}

fn validate_labels(labels: &str) -> Result<(), String> {
    // Split on commas outside quotes; empty label set `{}` is legal.
    let mut rest = labels.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim();
        if key.is_empty()
            || !key
                .chars()
                .enumerate()
                .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
        {
            return Err(format!("invalid label name '{key}'"));
        }
        let after = rest[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err("label value is not quoted".into());
        }
        // Scan the quoted value honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after.char_indices().skip(1) {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or("unterminated label value")?;
        rest = after[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err("labels not comma-separated".into());
        }
    }
    Ok(())
}

/// Renders the global progress counters ([`snapshot`]) as a registry of
/// `d2net_*` counters — the sweep-progress half of `/metrics`.
pub fn progress_metrics(s: &ProgressSnapshot) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let mut c = |name: &str, v: u64| reg.counter(name, &[], v);
    c("d2net_sweeps_started_total", s.sweeps_started);
    c("d2net_sweeps_finished_total", s.sweeps_finished);
    c("d2net_points_scheduled_total", s.points_total);
    c("d2net_points_run_total", s.points_run);
    c("d2net_points_completed_total", s.points_completed);
    c("d2net_points_retried_total", s.points_retried);
    c("d2net_points_panicked_total", s.points_panicked);
    c("d2net_points_exhausted_total", s.points_exhausted);
    c("d2net_points_resumed_total", s.points_resumed);
    c("d2net_points_not_run_total", s.points_not_run);
    c("d2net_points_stubbed_total", s.points_stubbed);
    c("d2net_retry_attempts_total", s.retry_attempts);
    c("d2net_events_processed_total", s.events_processed);
    c("d2net_point_wall_us_total", s.point_wall_us);
    reg
}

// ---------------------------------------------------------------------
// Status endpoint
// ---------------------------------------------------------------------

/// What the status server reports. `ready` goes false while draining
/// (`/readyz` → 503) so a load balancer stops routing; `/healthz` stays
/// 200 as long as the process serves at all.
pub trait StatusSource: Send + Sync {
    fn ready(&self) -> bool;
    /// The full `/metrics` payload, already in exposition format.
    fn metrics_text(&self) -> String;
}

/// A minimal HTTP/1.1 status endpoint over `std::net::TcpListener`:
/// `GET /healthz`, `GET /readyz`, `GET /metrics`. One handler thread,
/// one connection at a time — status traffic, not a web server.
/// Binding port 0 picks a free port; [`StatusServer::local_addr`]
/// reports the actual one.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    pub fn start(addr: &str, source: Arc<dyn StatusSource>) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("d2net-status".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut conn) = conn else { continue };
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
                    handle_conn(&mut conn, source.as_ref());
                }
            })?;
        Ok(StatusServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the handler thread and joins it. Also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn handle_conn(conn: &mut TcpStream, source: &dyn StatusSource) {
    // Read until the end of the request head (or timeout); the request
    // line is all we route on.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let (status, content_type, body) = route_request(&buf, source);
    let _ = write!(
        conn,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.flush();
}

/// Routes a request head — whatever bytes arrived, possibly truncated,
/// oversized or not UTF-8 — to the response's status line, content type
/// and body. Only the request line counts: any method but `GET` is 405,
/// a query string is ignored, and an unknown path is 404.
fn route_request(head: &[u8], source: &dyn StatusSource) -> (&'static str, &'static str, String) {
    let head = String::from_utf8_lossy(head);
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let path = path.split('?').next().unwrap_or_default();
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    }
    match path {
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/readyz" => {
            if source.ready() {
                ("200 OK", "text/plain", "ready\n".to_string())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain",
                    "draining\n".to_string(),
                )
            }
        }
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            source.metrics_text(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    }
}

/// A one-shot HTTP GET against a status endpoint: returns the response
/// status code and body. The client half of [`StatusServer`], shared by
/// `d2net-top` and the smoke tests.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_are_namespaced_and_sanitized() {
        assert_eq!(prom_name("points_run_total"), "d2net_points_run_total");
        assert_eq!(prom_name("d2net_spool_depth"), "d2net_spool_depth");
        assert_eq!(prom_name("flight p99.delay"), "d2net_flight_p99_delay");
    }

    #[test]
    fn exposition_renders_and_validates_all_metric_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter("requests_total", &[("outcome", "ok")], 3);
        reg.counter("requests_total", &[("outcome", "err\"x\"")], 1);
        reg.gauge("spool_depth", &[], 2.0);
        reg.histogram("delay_ns", &[], vec![250, 500], vec![1, 2, 3]);
        let text = prometheus_text(&reg);
        validate_prometheus(&text).expect("must satisfy the grammar");
        assert!(text.contains("# TYPE d2net_requests_total counter\n"));
        assert!(text.contains("d2net_requests_total{outcome=\"ok\"} 3\n"));
        assert!(text.contains("d2net_requests_total{outcome=\"err\\\"x\\\"\"} 1\n"));
        assert!(text.contains("# TYPE d2net_spool_depth gauge\n"));
        assert!(text.contains("d2net_delay_ns_bucket{le=\"250\"} 1\n"));
        assert!(text.contains("d2net_delay_ns_bucket{le=\"500\"} 3\n"));
        assert!(text.contains("d2net_delay_ns_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("d2net_delay_ns_count 6\n"));
        // One TYPE line per name even with two labeled samples.
        assert_eq!(text.matches("# TYPE d2net_requests_total").count(), 1);
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "1badname 3",
            "name{unclosed=\"x\" 3",
            "name{k=\"v\"} notafloat",
            "name",
            "# TYPE name banana",
            "# TYPE name counter\n# TYPE name counter",
            "name{k=v} 3",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {bad}");
        }
        validate_prometheus("name{} 3\nname2 +Inf\n# a comment\n\nx_total 0 123\n")
            .expect("legal corpus");
    }

    #[test]
    fn event_lines_round_trip_through_the_json_parser() {
        let ev = Event {
            seq: 3,
            t_ms: 99,
            level: Level::Info,
            code: "point_run",
            message: "point 1 ran".into(),
            fields: vec![("index", 1usize.into()), ("load", 0.5f64.into())],
        };
        let parsed = parse_event_line(&ev.render_json())
            .expect("parses")
            .expect("not a header");
        assert_eq!(parsed.seq, 3);
        assert_eq!(parsed.code, "point_run");
        assert_eq!(parsed.level, Level::Info);
        assert_eq!(parsed.doc.get("index").and_then(|j| j.as_u64()), Some(1));
        assert!(
            parse_event_line("{\"schema\":\"d2net.events/v1\"}")
                .unwrap()
                .is_none(),
            "header line parses to None"
        );
        assert!(parse_event_line("{\"schema\":\"other/v9\"}").is_err());
    }

    struct Dummy(AtomicBool);
    impl StatusSource for Dummy {
        fn ready(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
        fn metrics_text(&self) -> String {
            "# TYPE d2net_up gauge\nd2net_up 1\n".into()
        }
    }

    #[test]
    fn status_server_routes_and_drains() {
        let source = Arc::new(Dummy(AtomicBool::new(true)));
        let server = StatusServer::start("127.0.0.1:0", source.clone()).expect("bind");
        let addr = server.local_addr().to_string();
        assert_eq!(http_get(&addr, "/healthz").unwrap(), (200, "ok\n".into()));
        assert_eq!(http_get(&addr, "/readyz").unwrap().0, 200);
        let (code, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        validate_prometheus(&body).expect("exposition grammar");
        assert!(body.contains("d2net_up 1"));
        assert_eq!(http_get(&addr, "/nope").unwrap().0, 404);
        source.0.store(false, Ordering::SeqCst);
        assert_eq!(http_get(&addr, "/readyz").unwrap(), (503, "draining\n".into()));
        server.shutdown();
        assert!(http_get(&addr, "/healthz").is_err(), "socket must be closed");
    }
    const METHODS: [&str; 5] = ["GET", "POST", "HEAD", "get", ""];
    const PATHS: [&str; 7] = [
        "/healthz",
        "/readyz",
        "/metrics",
        "/metrics?name=x",
        "/readyz?",
        "/",
        "/nope",
    ];

    /// The status an intact request line maps to.
    fn expected_status(method: &str, path: &str, ready: bool) -> &'static str {
        match (method, path.split('?').next().unwrap()) {
            ("GET", "/healthz" | "/metrics") => "200 OK",
            ("GET", "/readyz") if ready => "200 OK",
            ("GET", "/readyz") => "503 Service Unavailable",
            ("GET", _) => "404 Not Found",
            _ => "405 Method Not Allowed",
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any request head — cut at any byte, padded past the 8 KiB read
        /// cap, carrying non-UTF-8 header bytes or no header block at all
        /// — routes without panicking to one of the four statuses, and an
        /// intact request line routes exactly as before.
        #[test]
        fn request_heads_route_to_known_statuses(
            method in 0usize..METHODS.len(),
            path in 0usize..PATHS.len(),
            tail in 0u8..4,
            per_mille in 0usize..=1000,
            ready in 0u8..2,
        ) {
            let line = format!("{} {} HTTP/1.1\r\n", METHODS[method], PATHS[path]);
            let mut head = line.clone().into_bytes();
            match tail {
                0 => head.extend_from_slice(b"Host: localhost\r\n\r\n"),
                1 => {
                    head.extend_from_slice(b"X-Pad: ");
                    head.resize(head.len() + 9_000, b'a');
                    head.extend_from_slice(b"\r\n\r\n");
                }
                2 => head.extend_from_slice(b"X-Bytes: \xff\xfe\x80\r\n\r\n"),
                _ => {}
            }
            let head = &head[..head.len() * per_mille / 1000];
            let source = Dummy(AtomicBool::new(ready == 1));
            let (status, content_type, _) = route_request(head, &source);
            proptest::prop_assert!(
                ["200 OK", "404 Not Found", "405 Method Not Allowed", "503 Service Unavailable"]
                    .contains(&status),
                "unexpected status {}",
                status
            );
            proptest::prop_assert!(content_type.starts_with("text/plain"));
            if head.len() >= line.len() {
                let want = expected_status(METHODS[method], PATHS[path], ready == 1);
                proptest::prop_assert_eq!(status, want);
            }
        }
    }

    #[test]
    fn malformed_request_lines_route_without_panicking() {
        let source = Dummy(AtomicBool::new(true));
        let route = |head: &[u8]| route_request(head, &source).0;
        assert_eq!(route(b""), "405 Method Not Allowed");
        assert_eq!(route(b"\r\n\r\n"), "405 Method Not Allowed");
        assert_eq!(route(b"GET"), "404 Not Found");
        assert_eq!(route(b"\xffGET /healthz HTTP/1.1\r\n"), "405 Method Not Allowed");
        assert_eq!(route(b"GET /health\xffz HTTP/1.1\r\n"), "404 Not Found");
        assert_eq!(route(b"GET /healthz?\xff HTTP/1.1\r\n"), "200 OK");
        assert_eq!(route(b"GET  /metrics"), "200 OK");
    }
}
