//! `statobd serve` — a line-delimited JSON query server over hot
//! sessions.
//!
//! The build/serve split: compiling a model costs seconds to minutes,
//! queries cost microseconds. The server keeps an LRU map of compiled
//! [`Session`]s (optionally backed by the [`ArtifactCache`], so even the
//! first `open` of a previously seen spec is a cheap deserialization) and
//! answers one JSON request per line on stdin/stdout or a unix socket.
//!
//! # Protocol
//!
//! One JSON object per line in, one per line out. Every request carries an
//! `op`; every reply carries `"ok"` and echoes the request's `id` when
//! present. Errors are structured replies (`{"ok": false, "error": ...}`)
//! — a bad request never kills the server. A line longer than
//! [`MAX_LINE_BYTES`] gets such a reply and the rest of it is discarded
//! unread, so no request can grow the server's memory without bound.
//!
//! | op | request fields | reply fields |
//! |---|---|---|
//! | `open` | `session`, `spec` | `source`, `build_s`, `spec_hash` |
//! | `p_at` | `session`, `t_s` | `p` |
//! | `sweep` | `session`, `t_lo_s`, `t_hi_s`, `points` | `curve` = `[[t, p], ...]` |
//! | `lifetime` | `session`, `target` | `t_s`, `years` |
//! | `manage_step` | `session`, `dt_s`, `vdd_v`, `temps_k` *or* `dt_k` | `p_now`, `p_projected`, `level`, `capped`, `vdd_v` |
//! | `fleet` | `session`, opt. `chips`, `profile`, `seed`, `budget`, `spares` | `aggregates`, `threads`, `shards`, `lanes`, `lane_width`, `lane_tiles`, `max_solve_steps`, `run_s`, `chips_per_s`, `workspaces_created` |
//! | `stats` | `session` | `stats`, `lanes` (SIMD lane dispatch label) |
//! | `close` | `session` | `closed` |
//! | `shutdown` | — | — (server exits after replying) |
//!
//! # Example exchange
//!
//! ```text
//! → {"id": 1, "op": "open", "session": "c1", "spec": {"design": "C1"}}
//! ← {"id": 1, "ok": true, "session": "c1", "source": "cache", "build_s": 0.18, "spec_hash": "..."}
//! → {"id": 2, "op": "p_at", "session": "c1", "t_s": 3.156e8}
//! ← {"id": 2, "ok": true, "p": 3.4e-7}
//! ```

use crate::artifact::ArtifactCache;
use crate::error::{Error, Result};
use crate::fleet::{run_fleet, FleetConfig};
use crate::session::Session;
use crate::spec::AnalysisSpec;
use statobd_manager::{MissionProfile, StepReport};
use statobd_num::json::{FromJson, Json, ToJson};
use std::io::{BufRead, Read, Write};

/// The longest request line the server reads, its `\n` excluded (8 MiB,
/// far above the largest inline chip spec).
const MAX_LINE_BYTES: usize = 8 << 20;

/// Server configuration.
#[derive(Debug)]
pub struct ServeConfig {
    /// Maximum number of hot sessions; the least recently used is evicted
    /// when an `open` would exceed it.
    pub max_sessions: usize,
    /// Artifact cache backing `open` (`None` = always build cold, never
    /// persist).
    pub cache: Option<ArtifactCache>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 4,
            cache: None,
        }
    }
}

/// The server state: configuration plus the LRU session map (front =
/// most recently used).
#[derive(Debug)]
struct Server {
    config: ServeConfig,
    sessions: Vec<(String, Session)>,
}

/// What handling one request produced.
struct Reply {
    json: Json,
    shutdown: bool,
}

impl Reply {
    /// The wire reply for a request's outcome: `"ok"` first (after the
    /// echoed `id`, when present), then the op's fields or the error.
    fn wrap(id: Option<Json>, result: Result<Reply>) -> Reply {
        match result {
            Ok(Reply { json, shutdown }) => {
                let mut members = vec![("ok".to_string(), Json::Bool(true))];
                if let Some(id) = id {
                    members.insert(0, ("id".to_string(), id));
                }
                if let Json::Object(fields) = json {
                    members.extend(fields);
                }
                Reply {
                    json: Json::Object(members),
                    shutdown,
                }
            }
            Err(e) => {
                let mut members = vec![
                    ("ok".to_string(), Json::Bool(false)),
                    ("error".to_string(), Json::String(e.to_string())),
                ];
                if let Some(id) = id {
                    members.insert(0, ("id".to_string(), id));
                }
                Reply {
                    json: Json::Object(members),
                    shutdown: false,
                }
            }
        }
    }
}

impl Server {
    fn new(config: ServeConfig) -> Self {
        Server {
            config,
            sessions: Vec::new(),
        }
    }

    /// Handles one request line; never fails — malformed input becomes an
    /// error reply.
    fn handle(&mut self, line: &str) -> Reply {
        let (id, result) = match Json::parse(line) {
            Ok(request) => {
                let id = request.get("id").cloned();
                (id, self.dispatch(&request))
            }
            Err(e) => (None, Err(Error::Spec(format!("unparseable request: {e}")))),
        };
        Reply::wrap(id, result)
    }

    fn dispatch(&mut self, request: &Json) -> Result<Reply> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Spec("request needs a string 'op'".to_string()))?;
        let ok = |json: Json| {
            Ok(Reply {
                json,
                shutdown: false,
            })
        };
        match op {
            "open" => ok(self.op_open(request)?),
            "p_at" => {
                let t_s = num_field(request, "t_s")?;
                let p = self.session(request)?.p_at(t_s)?;
                ok(object(vec![("p", Json::Number(p))]))
            }
            "sweep" => {
                let t_lo = num_field(request, "t_lo_s")?;
                let t_hi = num_field(request, "t_hi_s")?;
                let points = opt_field(request, "points")?
                    .ok_or_else(|| Error::Spec("request needs an integer 'points'".to_string()))?;
                let curve = self.session(request)?.sweep(t_lo, t_hi, points)?;
                let rows = curve
                    .into_iter()
                    .map(|(t, p)| Json::Array(vec![Json::Number(t), Json::Number(p)]))
                    .collect();
                ok(object(vec![("curve", Json::Array(rows))]))
            }
            "lifetime" => {
                let target = num_field(request, "target")?;
                let t_s = self.session(request)?.lifetime(target)?;
                ok(object(vec![
                    ("t_s", Json::Number(t_s)),
                    ("years", Json::Number(t_s / 3.156e7)),
                ]))
            }
            "manage_step" => {
                let dt_s = num_field(request, "dt_s")?;
                let vdd_v = num_field(request, "vdd_v")?;
                let session = self.session(request)?;
                let report = match opt_field::<Vec<f64>>(request, "temps_k")? {
                    Some(temps) => session.manage_step(dt_s, &temps, vdd_v)?,
                    None => {
                        let dt_k = opt_field(request, "dt_k")?.unwrap_or(0.0);
                        session.manage_step_uniform(dt_s, dt_k, vdd_v)?
                    }
                };
                ok(report_json(&report))
            }
            "fleet" => {
                let session = self.session(request)?;
                let defaults = FleetConfig::default();
                let config = FleetConfig {
                    chips: opt_field(request, "chips")?.unwrap_or(defaults.chips),
                    profile: match opt_field::<String>(request, "profile")? {
                        Some(name) => MissionProfile::named(&name)?,
                        None => defaults.profile,
                    },
                    seed: opt_field(request, "seed")?.unwrap_or(defaults.seed),
                    budget: opt_field(request, "budget")?.unwrap_or(defaults.budget),
                    wafer: defaults.wafer,
                    threads: session.spec().threads,
                    spares: opt_field(request, "spares")?.unwrap_or(defaults.spares),
                };
                let tech = session.spec().tech.tech();
                let report = run_fleet(session.analysis(), &tech, &config)?;
                ok(report.to_json())
            }
            "stats" => {
                let stats = self.session(request)?.stats().clone();
                ok(object(vec![
                    ("stats", stats.to_json()),
                    ("lanes", Json::String(statobd_num::simd::dispatch_label())),
                ]))
            }
            "close" => {
                let name = name_field(request)?;
                let before = self.sessions.len();
                self.sessions.retain(|(n, _)| n != &name);
                ok(object(vec![(
                    "closed",
                    Json::Bool(self.sessions.len() < before),
                )]))
            }
            "shutdown" => Ok(Reply {
                json: object(vec![]),
                shutdown: true,
            }),
            other => Err(Error::Spec(format!(
                "unknown op '{other}' (one of: open, p_at, sweep, lifetime, manage_step, \
                 fleet, stats, close, shutdown)"
            ))),
        }
    }

    fn op_open(&mut self, request: &Json) -> Result<Json> {
        let name = name_field(request)?;
        let spec_json = request
            .get("spec")
            .ok_or_else(|| Error::Spec("open needs a 'spec' object".to_string()))?;
        let spec = AnalysisSpec::from_json(spec_json).map_err(Error::from)?;
        let session = match &self.config.cache {
            Some(cache) => Session::open(&spec, cache)?,
            None => Session::build(&spec)?,
        };
        let stats = session.stats();
        let reply = object(vec![
            ("session", Json::String(name.clone())),
            ("source", stats.source.to_json()),
            ("build_s", Json::Number(stats.build_s)),
            ("spec_hash", Json::String(stats.spec_hash.clone())),
        ]);
        self.sessions.retain(|(n, _)| n != &name);
        self.sessions.insert(0, (name, session));
        // Evict the least recently used sessions beyond capacity.
        self.sessions.truncate(self.config.max_sessions.max(1));
        Ok(reply)
    }

    /// Looks up the request's session and marks it most recently used.
    fn session(&mut self, request: &Json) -> Result<&mut Session> {
        let name = name_field(request)?;
        let idx = self
            .sessions
            .iter()
            .position(|(n, _)| n == &name)
            .ok_or_else(|| {
                Error::Spec(format!(
                    "no open session '{name}' (use the 'open' op first)"
                ))
            })?;
        let entry = self.sessions.remove(idx);
        self.sessions.insert(0, entry);
        Ok(&mut self.sessions[0].1)
    }
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn name_field(request: &Json) -> Result<String> {
    request
        .get("session")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| Error::Spec("request needs a string 'session'".to_string()))
}

fn num_field(request: &Json, name: &str) -> Result<f64> {
    request
        .get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| Error::Spec(format!("request needs a number '{name}'")))
}

/// The optional field `name` read as a `T`: present but mistyped is an
/// error, not a default.
fn opt_field<T: FromJson>(request: &Json, name: &str) -> Result<Option<T>> {
    request
        .get(name)
        .map(|v| T::from_json(v).map_err(|e| Error::Spec(format!("field '{name}': {e}"))))
        .transpose()
}

fn report_json(report: &StepReport) -> Json {
    object(vec![
        ("p_now", Json::Number(report.p_now)),
        ("p_projected", Json::Number(report.p_projected)),
        ("level", Json::Number(report.level as f64)),
        ("capped", Json::Bool(report.capped)),
        ("vdd_v", Json::Number(report.vdd_v)),
    ])
}

/// Runs the serve loop over arbitrary line streams: one JSON request per
/// line in, one JSON reply per line out (flushed per reply). Returns on
/// EOF or after a `shutdown` op.
///
/// # Errors
///
/// Returns [`Error::Io`] only for transport failures; per-request
/// problems, a line that is not UTF-8 included, become `{"ok": false}`
/// replies.
pub fn serve_lines<R: BufRead, W: Write>(reader: R, writer: W, config: ServeConfig) -> Result<()> {
    serve_connection(&mut Server::new(config), reader, writer).map(|_shutdown| ())
}

/// The per-connection loop behind stdin and every socket connection:
/// reads each request up to `\n` into one reused buffer of at most
/// [`MAX_LINE_BYTES`] (answering a longer line with an error and skipping
/// its rest), strips a trailing `\r` as [`BufRead::lines`] does, skips
/// blank lines, and writes and flushes one reply per request. Returns
/// whether a `shutdown` request ended it (`false` at EOF).
fn serve_connection<R: BufRead, W: Write>(
    server: &mut Server,
    mut reader: R,
    mut writer: W,
) -> Result<bool> {
    let io_error = |e: std::io::Error| Error::Io(format!("reading request: {e}"));
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let read = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
            .map_err(io_error)?;
        if read == 0 {
            return Ok(false);
        }
        let line = match buf.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &buf,
        };
        let reply = if line.len() > MAX_LINE_BYTES {
            reader.skip_until(b'\n').map_err(io_error)?;
            Reply::wrap(
                None,
                Err(Error::Spec(format!(
                    "request line longer than {MAX_LINE_BYTES} bytes; the line was discarded"
                ))),
            )
        } else {
            match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => server.handle(text),
                Err(e) => Reply::wrap(None, Err(Error::Spec(format!("request is not UTF-8: {e}")))),
            }
        };
        writeln!(writer, "{}", reply.json.to_compact())
            .and_then(|()| writer.flush())
            .map_err(|e| Error::Io(format!("writing reply: {e}")))?;
        if reply.shutdown {
            return Ok(true);
        }
    }
}

/// Runs the server on stdin/stdout, or on a unix socket when `socket` is
/// given. Socket connections are served sequentially against one shared
/// session map, so sessions stay hot across client reconnects; the server
/// exits when a client sends `shutdown`.
///
/// # Errors
///
/// Returns [`Error::Io`] for transport failures, and [`Error::Spec`] for
/// a socket path on a platform without unix sockets.
pub fn serve(config: ServeConfig, socket: Option<&std::path::Path>) -> Result<()> {
    match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_lines(stdin.lock(), stdout.lock(), config)
        }
        Some(path) => serve_socket(config, path),
    }
}

#[cfg(unix)]
fn serve_socket(config: ServeConfig, path: &std::path::Path) -> Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(Error::Io(format!("removing {}: {e}", path.display()))),
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| Error::Io(format!("binding {}: {e}", path.display())))?;
    let mut server = Server::new(config);
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| Error::Io(format!("accepting connection: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| Error::Io(format!("cloning stream: {e}")))?;
        // A transport error ends this connection but not the server.
        if let Ok(true) = serve_connection(&mut server, std::io::BufReader::new(stream), writer) {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(_config: ServeConfig, _path: &std::path::Path) -> Result<()> {
    Err(Error::Spec(
        "--socket needs unix domain sockets, unavailable on this platform".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use statobd_core::{BlockSpec, ChipSpec};

    fn tiny_spec_json() -> String {
        let mut chip = ChipSpec::new();
        chip.add_block(BlockSpec::new("core", 1e5, 100_000, 368.15, 1.2, vec![(0, 1.0)]).unwrap())
            .unwrap();
        let spec = AnalysisSpec::chip(chip)
            .with_grid_side(4)
            .with_engine(statobd_core::EngineKind::StClosed);
        spec.to_json().to_compact()
    }

    fn run(requests: &[String]) -> Vec<Json> {
        let input = requests.join("\n");
        let mut out = Vec::new();
        serve_lines(input.as_bytes(), &mut out, ServeConfig::default()).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn open_query_shutdown_round_trip() {
        let spec = tiny_spec_json();
        let replies = run(&[
            format!(r#"{{"id": 1, "op": "open", "session": "s", "spec": {spec}}}"#),
            r#"{"id": 2, "op": "lifetime", "session": "s", "target": 1e-6}"#.to_string(),
            r#"{"id": 3, "op": "p_at", "session": "s", "t_s": 3.156e8}"#.to_string(),
            r#"{"id": 4, "op": "sweep", "session": "s", "t_lo_s": 1e7, "t_hi_s": 1e9, "points": 3}"#
                .to_string(),
            r#"{"id": 5, "op": "stats", "session": "s"}"#.to_string(),
            r#"{"id": 6, "op": "shutdown"}"#.to_string(),
        ]);
        assert_eq!(replies.len(), 6);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "reply {i}: {}",
                reply.to_compact()
            );
            assert_eq!(reply.get("id").and_then(Json::as_f64), Some((i + 1) as f64));
        }
        assert_eq!(
            replies[0].get("source").and_then(Json::as_str),
            Some("cold")
        );
        assert!(replies[1].get("t_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            replies[3]
                .get("curve")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            3
        );
        let queries = replies[4]
            .get("stats")
            .and_then(|s| s.get("queries"))
            .and_then(Json::as_f64);
        assert_eq!(queries, Some(5.0), "lifetime + p_at + 3 sweep points");
        let lanes = replies[4].get("lanes").and_then(Json::as_str).unwrap();
        assert!(
            lanes.contains("lane"),
            "stats reply self-describes the SIMD dispatch, got {lanes:?}"
        );
    }

    #[test]
    fn fleet_op_returns_deterministic_aggregates() {
        let spec = tiny_spec_json();
        let replies = run(&[
            format!(r#"{{"op": "open", "session": "s", "spec": {spec}}}"#),
            r#"{"op": "fleet", "session": "s", "chips": 600, "profile": "htol", "seed": 9}"#
                .to_string(),
            r#"{"op": "fleet", "session": "s", "chips": 600, "profile": "htol", "seed": 9}"#
                .to_string(),
            r#"{"op": "fleet", "session": "s", "profile": "weekend_warrior"}"#.to_string(),
        ]);
        assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
        let agg = replies[1].get("aggregates").expect("aggregates field");
        assert_eq!(agg.get("chips").and_then(Json::as_f64), Some(600.0));
        assert_eq!(
            agg.get("profile").and_then(Json::as_str),
            Some("htol"),
            "{}",
            replies[1].to_compact()
        );
        // The reply self-describes the lane-tiled dispatch.
        assert!(
            replies[1]
                .get("lanes")
                .and_then(Json::as_str)
                .is_some_and(|l| !l.is_empty()),
            "fleet reply carries the lane dispatch label"
        );
        let lane_width = replies[1]
            .get("lane_width")
            .and_then(Json::as_f64)
            .expect("lane_width field");
        let lane_tiles = replies[1]
            .get("lane_tiles")
            .and_then(Json::as_f64)
            .expect("lane_tiles field");
        assert_eq!(
            lane_tiles,
            (600.0 / lane_width).ceil(),
            "lane tiles cover the fleet exactly once: {lane_tiles} x {lane_width}"
        );
        // The same request again returns the same aggregates.
        assert_eq!(
            agg.to_compact(),
            replies[2].get("aggregates").unwrap().to_compact()
        );
        // Unknown profiles fail with a did-you-mean, not a dead server.
        assert_eq!(replies[3].get("ok").and_then(Json::as_bool), Some(false));
        assert!(replies[3]
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("did you mean"));
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_an_error_reply() {
        let open = format!(
            r#"{{"id": 1, "op": "open", "session": "s", "spec": {}}}"#,
            tiny_spec_json()
        );
        let mut input = open.into_bytes();
        input.extend_from_slice(b"\n\xff\xfe\r\n");
        input.extend_from_slice(br#"{"id": 3, "op": "p_at", "session": "s", "t_s": 1e8}"#);
        let mut out = Vec::new();
        serve_lines(input.as_slice(), &mut out, ServeConfig::default()).unwrap();
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 3, "one reply per line");
        let ok = |i: usize| replies[i].get("ok").and_then(Json::as_bool);
        assert_eq!(ok(0), Some(true));
        assert_eq!(ok(1), Some(false));
        let error = replies[1].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("not UTF-8"), "{error}");
        // The session opened before the bad line is still hot.
        assert_eq!(ok(2), Some(true), "{}", replies[2].to_compact());
        assert_eq!(replies[2].get("id").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn an_over_long_line_gets_an_error_reply_and_serving_goes_on() {
        let open = format!(
            r#"{{"id": 1, "op": "open", "session": "s", "spec": {}}}"#,
            tiny_spec_json()
        );
        // A request padded to exactly the cap is read; one byte more is not.
        let stats = r#"{"id": 2, "op": "stats", "session": "s"}"#;
        let padded = |len: usize| stats.to_string() + &" ".repeat(len - stats.len());
        let (at_cap, over_cap) = (padded(MAX_LINE_BYTES), padded(MAX_LINE_BYTES + 1));
        let query = r#"{"id": 4, "op": "p_at", "session": "s", "t_s": 1e8}"#;
        let input = [open.as_str(), &at_cap, &over_cap, query].join("\n");
        let mut out = Vec::new();
        serve_lines(input.as_bytes(), &mut out, ServeConfig::default()).unwrap();
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 4, "one reply per line");
        let ok = |i: usize| replies[i].get("ok").and_then(Json::as_bool);
        assert_eq!(ok(0), Some(true));
        assert_eq!(ok(1), Some(true), "{}", replies[1].to_compact());
        assert_eq!(ok(2), Some(false));
        let error = replies[2].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&MAX_LINE_BYTES.to_string()), "{error}");
        // The rest of the long line was skipped, not read as requests.
        assert_eq!(ok(3), Some(true), "{}", replies[3].to_compact());
        assert_eq!(replies[3].get("id").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn errors_are_structured_replies_not_exits() {
        let spec = tiny_spec_json();
        let sweep = |points: &str| {
            format!(
                r#"{{"op": "sweep", "session": "s", "t_lo_s": 1e7, "t_hi_s": 1e9, "points": {points}}}"#
            )
        };
        let replies = run(&[
            "not json at all".to_string(),
            r#"{"op": "p_at", "session": "nope", "t_s": 1.0}"#.to_string(),
            r#"{"op": "frobnicate"}"#.to_string(),
            r#"{"op": "open", "session": "s", "spec": {"design": "C9"}}"#.to_string(),
            // The server must still work after four failures.
            format!(r#"{{"op": "open", "session": "s", "spec": {spec}}}"#),
            // A huge point count is refused, not allocated.
            sweep("1e12"),
            // A fractional count is an error, not truncated.
            sweep("2.7"),
            // A mistyped optional field is an error, not its default.
            r#"{"op": "manage_step", "session": "s", "dt_s": 1e6, "vdd_v": 1.2, "dt_k": "+40"}"#
                .to_string(),
            r#"{"op": "p_at", "session": "s", "t_s": 1e8}"#.to_string(),
            // Ages at or below zero are refused, not answered with P = 1.
            r#"{"op": "p_at", "session": "s", "t_s": 0}"#.to_string(),
            r#"{"op": "p_at", "session": "s", "t_s": -5}"#.to_string(),
            r#"{"op": "p_at", "session": "s", "t_s": 1e8}"#.to_string(),
            // A step below 0 K is refused and leaves no damage behind.
            r#"{"op": "manage_step", "session": "s", "dt_s": 1e6, "vdd_v": 1.2, "dt_k": -400}"#
                .to_string(),
            r#"{"op": "manage_step", "session": "s", "dt_s": 1e6, "vdd_v": 1.2}"#.to_string(),
        ]);
        let ok = [
            false, false, false, false, true, false, false, false, true, false, false, true, false,
            true,
        ];
        assert_eq!(replies.len(), ok.len());
        for (reply, ok) in replies.iter().zip(ok) {
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(ok),
                "{}",
                reply.to_compact()
            );
            assert_eq!(reply.get("error").is_some(), !ok);
        }
        // The step after the refused one is the session's first: its
        // probability is the fresh manager's, not the poisoned P = 1.
        let first = run(&[
            format!(r#"{{"op": "open", "session": "s", "spec": {spec}}}"#),
            r#"{"op": "manage_step", "session": "s", "dt_s": 1e6, "vdd_v": 1.2}"#.to_string(),
        ]);
        let p_now = |reply: &Json| reply.get("p_now").and_then(Json::as_f64);
        assert!(p_now(&first[1]).is_some_and(|p| p < 1e-3));
        assert_eq!(p_now(&replies[13]), p_now(&first[1]));
    }

    #[test]
    fn a_refused_manage_step_leaves_the_manager_as_it_was() {
        // b(T) crosses zero near 2,000 K, so the middle step is refused;
        // the step after it must read the damage of the first.
        let step = |fields: &str| {
            format!(r#"{{"op": "manage_step", "session": "c1", "vdd_v": 1.2, {fields}}}"#)
        };
        let replies = run(&[
            r#"{"op": "open", "session": "c1", "spec": {"design": "C1", "grid_side": 5}}"#
                .to_string(),
            step(r#""dt_s": 1e7"#),
            step(r#""dt_s": 1e7, "dt_k": 2000"#),
            step(r#""dt_s": 0"#),
        ]);
        let ok: Vec<_> = replies
            .iter()
            .map(|r| r.get("ok").and_then(Json::as_bool))
            .collect();
        assert_eq!(ok, [Some(true), Some(true), Some(false), Some(true)]);
        let p_now = |i: usize| replies[i].get("p_now").and_then(Json::as_f64).unwrap();
        assert!(p_now(1) > 0.0 && p_now(1) < 1e-6, "{}", p_now(1));
        assert_eq!(p_now(3).to_bits(), p_now(1).to_bits());
        let error = replies[2].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("b("), "{error}");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_session() {
        let spec = tiny_spec_json();
        let input: Vec<String> = vec![
            format!(r#"{{"op": "open", "session": "a", "spec": {spec}}}"#),
            format!(r#"{{"op": "open", "session": "b", "spec": {spec}}}"#),
            // Touch "a" so "b" becomes the eviction candidate.
            r#"{"op": "p_at", "session": "a", "t_s": 1e8}"#.to_string(),
            format!(r#"{{"op": "open", "session": "c", "spec": {spec}}}"#),
            r#"{"op": "p_at", "session": "b", "t_s": 1e8}"#.to_string(),
            r#"{"op": "p_at", "session": "a", "t_s": 1e8}"#.to_string(),
        ];
        let joined = input.join("\n");
        let mut out = Vec::new();
        serve_lines(
            joined.as_bytes(),
            &mut out,
            ServeConfig {
                max_sessions: 2,
                cache: None,
            },
        )
        .unwrap();
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        // "b" was evicted by opening "c"; "a" survived.
        assert_eq!(replies[4].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(replies[5].get("ok").and_then(Json::as_bool), Some(true));
    }
}
