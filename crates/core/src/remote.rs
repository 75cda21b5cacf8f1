//! The `histpcd/v1` wire protocol and client.
//!
//! `histpcd` (the diagnosis daemon, `crates/daemon`) serves concurrent
//! diagnosis sessions over a Unix-domain socket. The protocol is
//! deliberately line-oriented and human-debuggable — you can drive a
//! daemon with `socat - UNIX:histpcd.sock` — while still being strict
//! enough to survive torn writes and hostile clients:
//!
//! ```text
//! C: histpcd/v1 hello tenant=alice            # handshake, once per conn
//! S: histpcd/v1 ok epoch=3
//! C: start app=poisson-b label=run1 window-ms=800
//! S: ok id=alice/run1 accepted=1
//! C: attach label=run1 wait-ms=30000
//! S: ok state=completed classification=completed
//! C: report label=run1
//! S: ok state=completed lines=42
//! S: <42 raw lines of the stored record text>
//! ```
//!
//! Every request is ONE line: a verb followed by `key=value` pairs.
//! Values are percent-encoded (see [`enc`]) so arbitrary text — fault
//! plan specs, error messages — survives the line discipline. Responses
//! are `ok key=value ...` or `err code=C msg=M [retry-after-ms=N]`; a
//! response with a `lines=N` pair is followed by exactly N raw payload
//! lines (NOT percent-encoded — used for record bodies, which must
//! round-trip bit-identically).
//!
//! Error codes a server may return and their retry semantics:
//!
//! | code          | meaning                                | retryable |
//! |---------------|----------------------------------------|-----------|
//! | `bad-request` | malformed line / unknown verb or app   | no        |
//! | `busy`        | tenant in-flight slice exhausted       | yes       |
//! | `quota`       | tenant sample budget exhausted         | yes       |
//! | `draining`    | daemon is draining, no new sessions    | no        |
//! | `deadline`    | request deadline elapsed server-side   | no        |
//! | `unknown`     | no such session for this tenant        | no        |
//! | `internal`    | server-side failure (bug or store I/O) | no        |
//!
//! Retryable errors carry a `retry-after-ms` hint; [`Client::request`]
//! honours it with capped exponential backoff. Connection-level faults
//! (drop, torn line) are always retried — the daemon makes `start`
//! idempotent per `(tenant, label)` precisely so that a retried start
//! after a dropped response cannot double-run a session.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use histpc_sim::Rng;

/// Protocol name + version token, first word of the handshake in both
/// directions. Bump the suffix on any incompatible framing change.
pub const PROTOCOL: &str = "histpcd/v1";

/// Default cap on [`Client`] attempts per request (first try + retries).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 8;

/// Base delay for the client's capped exponential backoff.
pub const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Ceiling for a single backoff sleep, hint-supplied or computed.
pub const BACKOFF_CAP: Duration = Duration::from_millis(2_000);

// ---------------------------------------------------------------------------
// Percent-encoding
// ---------------------------------------------------------------------------

/// Percent-encodes a value for a `key=value` pair: `%`, space, `=`,
/// CR/LF and all non-printable/non-ASCII bytes become `%HH`. Keys are
/// fixed protocol identifiers and never encoded.
pub fn enc(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'%' | b' ' | b'=' => out.push_str(&format!("%{b:02X}")),
            0x21..=0x7E => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decodes a percent-encoded value. Errs on truncated or non-hex
/// escapes and on escapes that do not form valid UTF-8.
pub fn dec(value: &str) -> Result<String, String> {
    let bytes = value.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {value:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii escape".to_string())?;
            let b = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape %{hex}"))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape sequence in {value:?} is not UTF-8"))
}

/// Splits a `key=value` token; the value is percent-decoded.
fn parse_pair(token: &str) -> Result<(String, String), String> {
    let (k, v) = token
        .split_once('=')
        .ok_or_else(|| format!("token {token:?} is not key=value"))?;
    if k.is_empty() {
        return Err(format!("empty key in {token:?}"));
    }
    Ok((k.to_string(), dec(v)?))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A single protocol request: a verb plus ordered `key=value` params.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The verb: `start`, `attach`, `status`, `report`, `cancel`,
    /// `health`, `drain`, `shutdown` (servers reject unknown verbs
    /// with `bad-request` rather than panicking).
    pub verb: String,
    /// Decoded parameter pairs in send order.
    pub params: Vec<(String, String)>,
}

impl Request {
    /// Starts a request with the given verb and no params.
    pub fn new(verb: &str) -> Self {
        Self {
            verb: verb.to_string(),
            params: Vec::new(),
        }
    }

    /// Appends a parameter (builder-style).
    pub fn arg(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Looks up a parameter by key (first match wins).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = self.verb.clone();
        for (k, v) in &self.params {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(&enc(v));
        }
        line
    }

    /// Parses one wire line into a request.
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let mut tokens = line.split(' ').filter(|t| !t.is_empty());
        let verb = tokens.next().ok_or_else(|| "empty request".to_string())?;
        if !verb.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            return Err(format!("bad verb {verb:?}"));
        }
        let mut params = Vec::new();
        for token in tokens {
            params.push(parse_pair(token)?);
        }
        Ok(Self {
            verb: verb.to_string(),
            params,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A protocol response: success with params (+ optional raw body
/// lines), or a coded error with an optional retry hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ok key=value ...` — `body` holds the `lines=N` payload, raw.
    Ok {
        /// Decoded parameter pairs.
        params: Vec<(String, String)>,
        /// Raw (un-encoded) payload lines announced by `lines=N`.
        body: Vec<String>,
    },
    /// `err code=C msg=M [retry-after-ms=N]`.
    Err {
        /// Stable machine-readable code (see module table).
        code: String,
        /// Human-readable detail.
        msg: String,
        /// Backoff hint for retryable codes.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// A success response with the given params and no body.
    pub fn ok(params: Vec<(&str, String)>) -> Self {
        Response::Ok {
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            body: Vec::new(),
        }
    }

    /// A success response carrying raw body lines.
    pub fn ok_with_body(params: Vec<(&str, String)>, body: Vec<String>) -> Self {
        let mut r = Self::ok(params);
        if let Response::Ok { body: b, .. } = &mut r {
            *b = body;
        }
        r
    }

    /// An error response.
    pub fn err(code: &str, msg: impl ToString) -> Self {
        Response::Err {
            code: code.to_string(),
            msg: msg.to_string(),
            retry_after_ms: None,
        }
    }

    /// An error response with a retry hint.
    pub fn err_retry(code: &str, msg: impl ToString, retry_after_ms: u64) -> Self {
        Response::Err {
            code: code.to_string(),
            msg: msg.to_string(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Looks up a param on an `Ok` response.
    pub fn get(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok { params, .. } => params
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str()),
            Response::Err { .. } => None,
        }
    }

    /// Body lines of an `Ok` response (empty for errors).
    pub fn body(&self) -> &[String] {
        match self {
            Response::Ok { body, .. } => body,
            Response::Err { .. } => &[],
        }
    }

    /// Serialises the header line (no body lines, no trailing newline).
    /// Callers append `body()` lines verbatim after it.
    pub fn header_line(&self) -> String {
        match self {
            Response::Ok { params, body } => {
                let mut line = "ok".to_string();
                for (k, v) in params {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(&enc(v));
                }
                if !body.is_empty() {
                    line.push_str(&format!(" lines={}", body.len()));
                }
                line
            }
            Response::Err {
                code,
                msg,
                retry_after_ms,
            } => {
                let mut line = format!("err code={} msg={}", enc(code), enc(msg));
                if let Some(ms) = retry_after_ms {
                    line.push_str(&format!(" retry-after-ms={ms}"));
                }
                line
            }
        }
    }

    /// Parses a response header line; `lines=N` body lines (if any)
    /// must be read separately by the transport and attached.
    pub fn parse_header(line: &str) -> Result<(Self, usize), String> {
        let line = line.trim_end_matches(['\r', '\n']);
        let mut tokens = line.split(' ').filter(|t| !t.is_empty());
        let status = tokens.next().ok_or_else(|| "empty response".to_string())?;
        let mut params = Vec::new();
        for token in tokens {
            params.push(parse_pair(token)?);
        }
        let find = |k: &str| {
            params
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        match status {
            "ok" => {
                let body_lines = match find("lines") {
                    Some(n) => n.parse::<usize>().map_err(|_| "bad lines count")?,
                    None => 0,
                };
                params.retain(|(k, _)| k != "lines");
                Ok((
                    Response::Ok {
                        params,
                        body: Vec::new(),
                    },
                    body_lines,
                ))
            }
            "err" => {
                let code = find("code").ok_or_else(|| "err without code".to_string())?;
                let msg = find("msg").unwrap_or_default();
                let retry_after_ms = match find("retry-after-ms") {
                    Some(ms) => Some(ms.parse::<u64>().map_err(|_| "bad retry-after-ms")?),
                    None => None,
                };
                Ok((
                    Response::Err {
                        code,
                        msg,
                        retry_after_ms,
                    },
                    0,
                ))
            }
            other => Err(format!("bad response status {other:?}")),
        }
    }
}

/// Whether an error code is worth retrying after a backoff sleep.
pub fn code_is_retryable(code: &str) -> bool {
    matches!(code, "busy" | "quota")
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Errors a [`Client`] can surface after exhausting its retries.
#[derive(Debug)]
pub enum RemoteError {
    /// The socket could not be reached / the connection kept failing.
    Io(io::Error),
    /// The server spoke something that is not `histpcd/v1`.
    Protocol(String),
    /// The server returned a (non-retryable, or retries-exhausted)
    /// protocol error.
    Daemon {
        /// Stable error code from the response.
        code: String,
        /// Human-readable message from the response.
        msg: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Io(e) => write!(f, "daemon i/o error: {e}"),
            RemoteError::Protocol(m) => write!(f, "protocol error: {m}"),
            RemoteError::Daemon { code, msg } => write!(f, "daemon error [{code}]: {msg}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<io::Error> for RemoteError {
    fn from(e: io::Error) -> Self {
        RemoteError::Io(e)
    }
}

/// One live connection: a buffered reader plus a writer handle onto
/// the same `UnixStream`.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(path: &Path, read_timeout: Duration) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line)
    }
}

/// What the wire does to one client→daemon exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// The exchange goes through untouched.
    Clean,
    /// The request line is torn mid-byte: the daemon receives a
    /// truncated line (or nothing) and must answer with a protocol
    /// error the client can retry on.
    TornRequest,
    /// The connection drops before the response arrives; the client
    /// must reconnect and retry (idempotently).
    ConnDrop,
}

/// The transport faults a [`WireInjector`] inflicts on its client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireFaults {
    /// Seed for all wire fault draws.
    pub seed: u64,
    /// Probability that a connection drops mid-exchange.
    pub conn_drop_rate: f64,
    /// Probability that a request line is torn mid-byte before the
    /// daemon sees a full line.
    pub torn_request_rate: f64,
    /// Real-time delay a slow client inserts before each request, in
    /// milliseconds. 0 disables it.
    pub slow_client_ms: u64,
}

/// Client-side injector for [`WireFaults`]: connection drops, torn
/// request lines, and slow-client delays, drawn from substream 6 of
/// the seed.
#[derive(Debug, Clone)]
pub struct WireInjector {
    faults: WireFaults,
    rng: Rng,
}

impl WireInjector {
    /// Build a wire injector; draws derive from `faults.seed`.
    pub fn new(faults: WireFaults) -> WireInjector {
        WireInjector {
            rng: Rng::new(faults.seed).substream(6),
            faults,
        }
    }

    /// Draw the fate of one request exchange. With no fault rates set
    /// this returns [`WireFault::Clean`] without consuming randomness.
    pub fn next_fault(&mut self) -> WireFault {
        let f = self.faults;
        if f.torn_request_rate > 0.0 && self.rng.next_f64() < f.torn_request_rate {
            return WireFault::TornRequest;
        }
        if f.conn_drop_rate > 0.0 && self.rng.next_f64() < f.conn_drop_rate {
            return WireFault::ConnDrop;
        }
        WireFault::Clean
    }

    /// Real-time delay a slow client inserts before each request, if
    /// configured.
    pub fn slow_client_delay(&self) -> Option<Duration> {
        (self.faults.slow_client_ms > 0).then(|| Duration::from_millis(self.faults.slow_client_ms))
    }

    /// Tear a request line at a seed-drawn byte offset (at least one
    /// byte short of complete; possibly empty), modelling a client cut
    /// off mid-send.
    pub fn tear_line(&mut self, line: &str) -> String {
        if line.is_empty() {
            return String::new();
        }
        let mut cut = self.rng.next_below(line.len() as u64) as usize;
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line[..cut].to_string()
    }
}

/// A retrying `histpcd/v1` client over a Unix-domain socket.
///
/// The client reconnects and re-handshakes transparently: any I/O
/// failure mid-exchange tears the connection down and (within the
/// attempt budget) retries the whole request on a fresh one. This is
/// sound because the daemon makes every verb idempotent per
/// `(tenant, label)`.
///
/// With a [`WireInjector`] installed ([`Client::with_injector`]) the
/// client *sabotages itself* deterministically — dropping connections,
/// tearing request lines mid-byte, stalling before sends — which is how
/// the daemon soak test (`crates/daemon/tests/daemon.rs`) proves the
/// retry path actually converges.
pub struct Client {
    sock: PathBuf,
    tenant: String,
    conn: Option<Conn>,
    injector: Option<WireInjector>,
    /// Attempt budget per request (first try + retries).
    pub max_attempts: u32,
    /// Read timeout applied to every connection.
    pub read_timeout: Duration,
    /// Daemon epoch learned from the last handshake.
    pub epoch: Option<u64>,
}

impl Client {
    /// Creates a client for `tenant` against the socket at `sock`.
    /// No connection is made until the first request.
    pub fn new(sock: impl Into<PathBuf>, tenant: &str) -> Self {
        Self {
            sock: sock.into(),
            tenant: tenant.to_string(),
            conn: None,
            injector: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            read_timeout: Duration::from_secs(60),
            epoch: None,
        }
    }

    /// Installs a deterministic wire-fault injector.
    pub fn with_injector(mut self, injector: WireInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    fn connect(&mut self) -> Result<(), RemoteError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut conn = Conn::open(&self.sock, self.read_timeout)?;
        conn.send_line(&format!("{PROTOCOL} hello tenant={}", enc(&self.tenant)))?;
        let line = conn.read_line()?;
        let line = line.trim_end();
        let rest = line
            .strip_prefix(PROTOCOL)
            .ok_or_else(|| RemoteError::Protocol(format!("bad handshake response {line:?}")))?;
        let (resp, _) = Response::parse_header(rest).map_err(RemoteError::Protocol)?;
        match resp {
            Response::Ok { .. } => {
                self.epoch = resp.get("epoch").and_then(|e| e.parse().ok());
                self.conn = Some(conn);
                Ok(())
            }
            Response::Err { code, msg, .. } => Err(RemoteError::Daemon { code, msg }),
        }
    }

    /// One send/receive exchange on an established connection, with
    /// wire-fault injection applied to the outgoing line.
    fn exchange(&mut self, line: &str) -> io::Result<Response> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        if let Some(inj) = &mut self.injector {
            if let Some(delay) = inj.slow_client_delay() {
                std::thread::sleep(delay);
            }
            match inj.next_fault() {
                WireFault::Clean => {}
                WireFault::TornRequest => {
                    // Write a torn prefix and kill the connection: the
                    // server must treat the partial line as garbage.
                    let torn = inj.tear_line(line);
                    let _ = conn.writer.write_all(torn.as_bytes());
                    let _ = conn.writer.flush();
                    self.conn = None;
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected torn request",
                    ));
                }
                WireFault::ConnDrop => {
                    self.conn = None;
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected connection drop",
                    ));
                }
            }
        }
        conn.send_line(line)?;
        let header = conn.read_line()?;
        let (mut resp, body_lines) = Response::parse_header(&header)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))?;
        if body_lines > 0 {
            let mut body = Vec::with_capacity(body_lines);
            for _ in 0..body_lines {
                let line = conn.read_line()?;
                body.push(line.trim_end_matches('\n').to_string());
            }
            if let Response::Ok { body: b, .. } = &mut resp {
                *b = body;
            }
        }
        Ok(resp)
    }

    /// Sends a request, retrying connection faults and retryable
    /// daemon errors with capped exponential backoff (honouring any
    /// `retry-after-ms` hint). Returns the first terminal response; an
    /// exhausted budget surfaces the last failure.
    pub fn request(&mut self, req: &Request) -> Result<Response, RemoteError> {
        let line = req.to_line();
        let mut last_io: Option<io::Error> = None;
        for attempt in 1..=self.max_attempts {
            let outcome = self.connect().and_then(|()| {
                self.exchange(&line).map_err(|e| {
                    // Any I/O failure poisons the connection; retry on
                    // a fresh one.
                    self.conn = None;
                    RemoteError::Io(e)
                })
            });
            match outcome {
                Ok(Response::Err {
                    code,
                    msg,
                    retry_after_ms,
                }) if code_is_retryable(&code) => {
                    if attempt == self.max_attempts {
                        return Err(RemoteError::Daemon { code, msg });
                    }
                    std::thread::sleep(backoff_delay(attempt, retry_after_ms));
                }
                Ok(resp) => return Ok(resp),
                Err(RemoteError::Io(io_err)) => {
                    last_io = Some(io_err);
                    if attempt < self.max_attempts {
                        std::thread::sleep(backoff_delay(attempt, None));
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Err(RemoteError::Io(last_io.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "retry budget exhausted")
        })))
    }

    /// Sends a request and errs unless the response is `ok`.
    pub fn expect_ok(&mut self, req: &Request) -> Result<Response, RemoteError> {
        match self.request(req)? {
            Response::Err { code, msg, .. } => Err(RemoteError::Daemon { code, msg }),
            ok => Ok(ok),
        }
    }
}

/// Backoff for retry `attempt` (1-based): the server hint when given,
/// else `BACKOFF_BASE * 2^(attempt-1)`, both capped at [`BACKOFF_CAP`].
pub fn backoff_delay(attempt: u32, hint_ms: Option<u64>) -> Duration {
    let computed = BACKOFF_BASE.saturating_mul(1u32 << attempt.saturating_sub(1).min(10));
    let delay = match hint_ms {
        Some(ms) => Duration::from_millis(ms),
        None => computed,
    };
    delay.min(BACKOFF_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enc_dec_round_trips_hostile_text() {
        for s in [
            "plain",
            "has space",
            "k=v&x%20y",
            "line\nbreak\r\ttab",
            "unicode: héllo ∑",
            "",
        ] {
            assert_eq!(dec(&enc(s)).unwrap(), s, "round-trip {s:?}");
        }
        // Encoded form never contains the line-discipline metacharacters.
        let e = enc("a=b c%d\n");
        assert!(!e.contains(' ') && !e.contains('=') && !e.contains('\n'));
    }

    #[test]
    fn dec_rejects_damage() {
        assert!(dec("%").is_err());
        assert!(dec("%2").is_err());
        assert!(dec("%zz").is_err());
        assert!(dec("%FF%FE").is_err()); // invalid UTF-8
    }

    #[test]
    fn request_round_trips() {
        let req = Request::new("start")
            .arg("app", "poisson-b")
            .arg("label", "run 1")
            .arg("faults", "drop 0.2\ncrash-tool 1");
        let line = req.to_line();
        assert!(!line.contains('\n'), "request must be one line: {line:?}");
        assert_eq!(Request::parse(&line).unwrap(), req);
        assert_eq!(req.get("app"), Some("poisson-b"));
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("BAD_VERB x=1").is_err());
        assert!(Request::parse("start appnoequals").is_err());
        assert!(Request::parse("start =nokey").is_err());
        assert!(Request::parse("start app=%zz").is_err());
    }

    #[test]
    fn response_round_trips_ok_and_err() {
        let ok = Response::ok_with_body(
            vec![("state", "completed".into()), ("id", "t/l".into())],
            vec!["record line 1".into(), "record line 2".into()],
        );
        let line = ok.header_line();
        let (parsed, body_lines) = Response::parse_header(&line).unwrap();
        assert_eq!(body_lines, 2);
        assert_eq!(parsed.get("state"), Some("completed"));

        let err = Response::err_retry("busy", "tenant slice full", 250);
        let (parsed, n) = Response::parse_header(&err.header_line()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(parsed, err);
    }

    #[test]
    fn response_parse_rejects_garbage() {
        assert!(Response::parse_header("").is_err());
        assert!(Response::parse_header("maybe x=1").is_err());
        assert!(Response::parse_header("err msg=no-code").is_err());
        assert!(Response::parse_header("ok lines=notanumber").is_err());
    }

    #[test]
    fn retryability_and_backoff() {
        assert!(code_is_retryable("busy"));
        assert!(code_is_retryable("quota"));
        assert!(!code_is_retryable("bad-request"));
        assert!(!code_is_retryable("draining"));
        // Exponential, hint-overridable, capped.
        assert_eq!(backoff_delay(1, None), BACKOFF_BASE);
        assert_eq!(backoff_delay(2, None), BACKOFF_BASE * 2);
        assert_eq!(backoff_delay(1, Some(400)), Duration::from_millis(400));
        assert_eq!(backoff_delay(30, None), BACKOFF_CAP);
        assert_eq!(backoff_delay(1, Some(60_000)), BACKOFF_CAP);
    }

    #[test]
    fn client_surfaces_connect_failure_after_retries() {
        let mut client = Client::new("/nonexistent/histpcd.sock", "t");
        client.max_attempts = 2;
        let err = client.request(&Request::new("health")).unwrap_err();
        assert!(matches!(err, RemoteError::Io(_)), "got {err}");
    }

    #[test]
    fn wire_injector_is_deterministic_per_seed() {
        let faults = WireFaults {
            seed: 11,
            conn_drop_rate: 0.3,
            torn_request_rate: 0.2,
            slow_client_ms: 0,
        };
        let run = |faults: WireFaults| {
            let mut w = WireInjector::new(faults);
            (0..64).map(|_| w.next_fault()).collect::<Vec<_>>()
        };
        let a = run(faults);
        assert_eq!(a, run(faults));
        assert_ne!(a, run(WireFaults { seed: 12, ..faults }));
        assert!(a.contains(&WireFault::Clean));
        assert!(a.contains(&WireFault::ConnDrop));
        assert!(a.contains(&WireFault::TornRequest));
    }

    #[test]
    fn wire_injector_without_faults_is_clean() {
        let mut w = WireInjector::new(WireFaults::default());
        for _ in 0..8 {
            assert_eq!(w.next_fault(), WireFault::Clean);
        }
        assert_eq!(w.slow_client_delay(), None);
    }

    #[test]
    fn slow_client_and_tear_line_behave() {
        let mut w = WireInjector::new(WireFaults {
            slow_client_ms: 15,
            torn_request_rate: 1.0,
            ..WireFaults::default()
        });
        assert_eq!(w.slow_client_delay(), Some(Duration::from_millis(15)));
        let line = "start tenant=alpha app=poisson-a label=r1";
        let torn = w.tear_line(line);
        assert!(torn.len() < line.len());
        assert!(line.starts_with(&torn));
        assert_eq!(w.tear_line(""), "");
    }
}
