//! `serve_mix`: one closed-loop client — a caller of `statobd serve` that
//! waits for each reply — driving `serve_lines` in memory.
//!
//! The stream runs as a few client sessions. Each opens three sessions
//! from a pre-warmed artifact cache (`c3` and `mc16` on the hybrid engine,
//! `c1` on st_fast), then sends generated requests in batches of 2000,
//! each exactly 45 % `c3`, 45 % `mc16`, 10 % `c1` and, within each
//! session, 75 % `p_at`, 8 % `sweep`, 7 % `lifetime`, 8 % `manage_step`,
//! 2 % `stats`, in a seed-shuffled order. The client generates each line
//! when `serve_lines` asks for it and timestamps the hand-out; the reply sink
//! timestamps each flush; the difference is the request latency. Model
//! building is bypassed completely (the cache serves it), so this workload
//! isolates the protocol and the engine queries.

use crate::stats::{median, min, shuffle, LatencyHist};
use crate::trace::Recorder;
use crate::Measured;
use statobd::circuits::Benchmark;
use statobd::core::params;
use statobd::num::json::{Json, ToJson};
use statobd::num::rng::{Rng, Xoshiro256pp};
use statobd::{
    serve_lines, AnalysisSpec, ArtifactCache, EngineKind, ServeConfig, Session, SessionSource,
    LIFETIME_BRACKET_S,
};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::time::Instant;

/// Every this many requests the reply is kept and, after timing, checked
/// against an independently cold-built session.
const CHECK_EVERY: u64 = 100;

/// Sessions: name, design, engine, share of the requests in twentieths.
const SESSIONS: [(&str, Benchmark, EngineKind, usize); 3] = [
    ("c3", Benchmark::C3, EngineKind::Hybrid, 9),
    ("mc16", Benchmark::ManyCore16, EngineKind::Hybrid, 9),
    ("c1", Benchmark::C1, EngineKind::StFast, 2),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    PAt,
    Sweep,
    Lifetime,
    Step,
    Stats,
}

/// Share of the requests per op, in percent.
const OPS: [(Op, usize); 5] = [
    (Op::PAt, 75),
    (Op::Sweep, 8),
    (Op::Lifetime, 7),
    (Op::Step, 8),
    (Op::Stats, 2),
];

/// The smallest deck holding every (session, op) pair in its exact share.
const DECK: usize = 20 * 100;

/// Points per `sweep` request.
const SWEEP_POINTS: usize = 32;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Params {
    /// Wall time of the timed request stream.
    pub seconds: f64,
    /// Request cap of the timed stream (the smoke test's size knob).
    pub max_requests: u64,
    /// Client sessions the stream is split into; the median of their
    /// preambles is `setup_s`. The heap grows by one set of sessions at a
    /// reopen that varies from run to run (by the third to the sixth on
    /// the reference host), so enough reopens make the peak resident
    /// memory the same in every run.
    pub setup_reps: usize,
    /// Decks of [`DECK`] requests per timed batch.
    pub batch_decks: usize,
    /// Requests replayed stage by stage in a traced run.
    pub replay_requests: u64,
    pub grid_side: usize,
    pub thermal_side: Option<usize>,
}

impl Params {
    pub fn full(seconds: f64) -> Self {
        Params {
            seconds,
            max_requests: u64::MAX,
            setup_reps: 9,
            batch_decks: 1,
            replay_requests: 200_000,
            grid_side: params::DEFAULT_GRID_SIDE,
            thermal_side: None,
        }
    }

    pub fn tiny() -> Self {
        Params {
            seconds: 60.0,
            max_requests: 2 * DECK as u64,
            setup_reps: 2,
            batch_decks: 1,
            replay_requests: 300,
            grid_side: 5,
            thermal_side: Some(16),
        }
    }

    fn spec(&self, design: Benchmark, engine: EngineKind) -> AnalysisSpec {
        let mut spec = AnalysisSpec::benchmark(design)
            .with_grid_side(self.grid_side)
            .with_engine(engine)
            .with_threads(Some(1));
        if let Some(n) = self.thermal_side {
            spec.thermal.nx = n;
            spec.thermal.ny = n;
        }
        spec
    }
}

/// One generated request: session index, op and up to two arguments
/// (`t_s`; `t_lo_s`/`t_hi_s`; `target`; `dt_s`/`dt_k`).
#[derive(Debug, Clone, Copy)]
struct Request {
    session: usize,
    op: Op,
    a: f64,
    b: f64,
}

/// The seeded request stream. Requests are dealt from a shuffled deck of
/// one batch, so every batch of a client session has exactly the same mix
/// of sessions and ops; only the order and the arguments are random.
struct Generator {
    rng: Xoshiro256pp,
    deck: Vec<(usize, Op)>,
    dealt: usize,
}

impl Generator {
    fn new(seed: u64, batch_decks: usize) -> Self {
        let mut deck = Vec::with_capacity(batch_decks * DECK);
        for (session, &(.., session_share)) in SESSIONS.iter().enumerate() {
            for &(op, op_share) in &OPS {
                let copies = batch_decks * session_share * op_share;
                deck.extend(std::iter::repeat_n((session, op), copies));
            }
        }
        debug_assert_eq!(deck.len(), batch_decks * DECK);
        let dealt = deck.len();
        Generator {
            rng: Xoshiro256pp::seed_from_u64(seed),
            deck,
            dealt,
        }
    }

    /// Requests per batch.
    fn batch(&self) -> u64 {
        self.deck.len() as u64
    }

    /// Starts a fresh batch at the next request, as a client session does.
    fn new_batch(&mut self) {
        self.dealt = self.deck.len();
    }

    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.rng.gen_range(0.0..1.0)).exp()
    }

    fn next(&mut self) -> Request {
        if self.dealt == self.deck.len() {
            shuffle(&mut self.deck, &mut self.rng);
            self.dealt = 0;
        }
        let (session, op) = self.deck[self.dealt];
        self.dealt += 1;
        let (t_lo, t_hi) = LIFETIME_BRACKET_S;
        let (a, b) = match op {
            Op::PAt => (self.log_uniform(t_lo, t_hi), 0.0),
            Op::Sweep => {
                let lo = self.log_uniform(t_lo, t_hi * 1e-3);
                (lo, lo * self.log_uniform(10.0, 1e3))
            }
            Op::Lifetime => (self.log_uniform(1e-7, 1e-4), 0.0),
            Op::Step => (
                self.rng.gen_range(60.0..3600.0),
                self.rng.gen_range(-5.0..10.0),
            ),
            Op::Stats => (0.0, 0.0),
        };
        Request { session, op, a, b }
    }
}

/// Appends the request's JSON line (no newline). `{}` prints an f64 in
/// shortest round-trip form, so the server parses back the exact value.
fn write_request(r: &Request, out: &mut String) {
    let s = SESSIONS[r.session].0;
    let _ = match r.op {
        Op::PAt => write!(out, r#"{{"op":"p_at","session":"{s}","t_s":{}}}"#, r.a),
        Op::Sweep => write!(
            out,
            r#"{{"op":"sweep","session":"{s}","t_lo_s":{},"t_hi_s":{},"points":{SWEEP_POINTS}}}"#,
            r.a, r.b
        ),
        Op::Lifetime => write!(
            out,
            r#"{{"op":"lifetime","session":"{s}","target":{}}}"#,
            r.a
        ),
        Op::Step => write!(
            out,
            r#"{{"op":"manage_step","session":"{s}","dt_s":{},"dt_k":{},"vdd_v":{}}}"#,
            r.a,
            r.b,
            params::NOMINAL_VDD_V
        ),
        Op::Stats => write!(out, r#"{{"op":"stats","session":"{s}"}}"#),
    };
}

/// The client side of `serve_lines`: hands out the preamble, then
/// generated requests until the time budget or the request cap is spent,
/// stamping each hand-out.
struct Client<'a> {
    preamble: &'a [String],
    preamble_sent: usize,
    gen: Generator,
    line: String,
    pos: usize,
    handed: &'a Cell<Instant>,
    first: Option<Instant>,
    seconds: f64,
    max_requests: u64,
    issued: u64,
    kept: Vec<Request>,
}

impl<'a> Client<'a> {
    fn new(
        preamble: &'a [String],
        handed: &'a Cell<Instant>,
        mut gen: Generator,
        seconds: f64,
        max_requests: u64,
    ) -> Self {
        gen.new_batch();
        Client {
            preamble,
            preamble_sent: 0,
            gen,
            line: String::new(),
            pos: 0,
            handed,
            first: None,
            seconds,
            max_requests,
            issued: 0,
            kept: Vec::new(),
        }
    }

    /// Stages the next line, or nothing at the end of the stream.
    fn advance(&mut self) {
        self.line.clear();
        self.pos = 0;
        if let Some(line) = self.preamble.get(self.preamble_sent) {
            self.line.push_str(line);
            self.preamble_sent += 1;
        } else {
            let out_of_time = self
                .first
                .is_some_and(|f| (self.handed.get() - f).as_secs_f64() >= self.seconds);
            if out_of_time || self.issued >= self.max_requests {
                return;
            }
            let request = self.gen.next();
            write_request(&request, &mut self.line);
            if self.issued.is_multiple_of(CHECK_EVERY) {
                self.kept.push(request);
            }
            self.issued += 1;
        }
        self.line.push('\n');
        let now = Instant::now();
        if self.issued == 1 && self.first.is_none() {
            self.first = Some(now);
        }
        self.handed.set(now);
    }
}

impl Read for Client<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let data = self.fill_buf()?;
            let n = data.len().min(buf.len());
            buf[..n].copy_from_slice(&data[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Client<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() {
            self.advance();
        }
        Ok(&self.line.as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// The reply side: checks every reply is `"ok":true`, stamps each flush
/// and keeps the preamble replies and every [`CHECK_EVERY`]-th request's.
/// Requests are also timed in consecutive batches, so a burst of load from
/// another tenant of the host slows some batches, not the estimate.
struct Sink<'a> {
    handed: &'a Cell<Instant>,
    preamble: u64,
    batch: u64,
    reply: Vec<u8>,
    replies: u64,
    hist: LatencyHist,
    batch_start: Instant,
    batch_ns: Vec<u64>,
    /// Per complete batch: requests per second, and the median and p99
    /// latency (ns).
    batch_rates: Vec<f64>,
    batch_p50_ns: Vec<f64>,
    batch_p99_ns: Vec<f64>,
    preamble_replies: Vec<String>,
    kept: Vec<String>,
    not_ok: Vec<String>,
}

impl<'a> Sink<'a> {
    fn new(handed: &'a Cell<Instant>, preamble: usize, batch: u64) -> Self {
        Sink {
            handed,
            preamble: preamble as u64,
            batch,
            reply: Vec::new(),
            replies: 0,
            hist: LatencyHist::new(),
            batch_start: handed.get(),
            batch_ns: Vec::with_capacity(batch as usize),
            batch_rates: Vec::new(),
            batch_p50_ns: Vec::new(),
            batch_p99_ns: Vec::new(),
            preamble_replies: Vec::new(),
            kept: Vec::new(),
            not_ok: Vec::new(),
        }
    }

    /// Readies the sink for the next `serve_lines` call.
    fn start_call(&mut self) {
        self.replies = 0;
        self.preamble_replies.clear();
    }

    fn stream_reply(&mut self, i: u64, now: Instant) {
        let handed = self.handed.get();
        let ns = (now - handed).as_nanos() as u64;
        self.hist.add(ns);
        if i.is_multiple_of(self.batch) {
            self.batch_start = handed;
            self.batch_ns.clear();
        }
        self.batch_ns.push(ns);
        if (i + 1).is_multiple_of(self.batch) {
            let wall_s = (now - self.batch_start).as_secs_f64();
            self.batch_rates.push(self.batch as f64 / wall_s);
            let mut nearest_rank = |q: f64| {
                let rank = (q * self.batch as f64).ceil() as usize;
                *self.batch_ns.select_nth_unstable(rank - 1).1 as f64
            };
            let (p50, p99) = (nearest_rank(0.5), nearest_rank(0.99));
            self.batch_p50_ns.push(p50);
            self.batch_p99_ns.push(p99);
        }
    }
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.reply.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let now = Instant::now();
        if self.reply.is_empty() {
            return Ok(());
        }
        let text = || String::from_utf8_lossy(&self.reply).trim_end().to_string();
        if !self.reply.starts_with(br#"{"ok":true"#) {
            self.not_ok.push(text());
        }
        match self.replies.checked_sub(self.preamble) {
            None => self.preamble_replies.push(text()),
            Some(i) => {
                if i.is_multiple_of(CHECK_EVERY) {
                    self.kept.push(text());
                }
                self.stream_reply(i, now);
            }
        }
        self.replies += 1;
        self.reply.clear();
        Ok(())
    }
}

pub fn run(p: &Params, seed: u64, trace: bool, scratch: &Path) -> Result<Measured, String> {
    let cache = ArtifactCache::new(scratch.join("artifacts"));
    let config = || ServeConfig {
        max_sessions: SESSIONS.len() + 1,
        cache: Some(cache.clone()),
    };
    let specs: Vec<AnalysisSpec> = SESSIONS.iter().map(|s| p.spec(s.1, s.2)).collect();

    // Pre-warm the cache. The cold-built sessions double as the
    // independent reference the replies are checked against.
    let mut cold = Vec::new();
    for spec in &specs {
        let session = Session::open(spec, &cache).map_err(|e| format!("pre-warm: {e}"))?;
        if session.stats().source != SessionSource::Cold {
            return Err(format!(
                "pre-warm: {} was already cached",
                cache.root().display()
            ));
        }
        cold.push(session);
    }

    // The preamble: open every session from the cache, then one tiny
    // `manage_step` each so the lazily built managers exist before timing.
    let mut preamble = Vec::new();
    for ((name, ..), spec) in SESSIONS.iter().zip(&specs) {
        let spec = spec.to_json().to_compact();
        preamble.push(format!(
            r#"{{"op":"open","session":"{name}","spec":{spec}}}"#
        ));
    }
    for (name, ..) in SESSIONS {
        preamble.push(format!(
            r#"{{"op":"manage_step","session":"{name}","dt_s":1,"vdd_v":{}}}"#,
            params::NOMINAL_VDD_V
        ));
    }

    let mut m = Measured::default();
    let handed = Cell::new(Instant::now());
    let mut gen = Generator::new(seed, p.batch_decks);
    let mut sink = Sink::new(&handed, preamble.len(), gen.batch());
    let mut kept = Vec::new();
    let mut requests = 0;
    // The stream runs as several client sessions, each opening the sessions
    // afresh: each preamble is one set-up sample, so the samples spread over
    // the run instead of sharing one burst of load from another tenant. A
    // traced run repeats each preamble stage by stage right after it.
    let mut rec = Recorder::new();
    let mut traced_sessions = Vec::new();
    let n = p.setup_reps.max(1);
    let (seconds, max_requests) = (p.seconds / n as f64, p.max_requests / n as u64);
    for _ in 0..n {
        let mut client = Client::new(&preamble, &handed, gen, seconds, max_requests);
        sink.start_call();
        let t0 = Instant::now();
        serve_lines(&mut client, &mut sink, config()).map_err(|e| format!("serve: {e}"))?;
        let first = client.first.ok_or("a client session issued no request")?;
        m.setup_s.push((first - t0).as_secs_f64());
        // Every line handed out is an attempted operation; a reply that is
        // not ok was counted as failed when it arrived.
        m.attempted += (preamble.len() as u64) + client.issued;
        for _ in sink.replies..(preamble.len() as u64) + client.issued {
            m.fail("a line got no reply".to_string());
        }
        for reply in sink.preamble_replies.iter().take(SESSIONS.len()) {
            if reply.starts_with(r#"{"ok":true"#) && !reply.contains(r#""source":"cache""#) {
                m.fail(format!("open missed the warm cache: {reply}"));
            }
        }
        requests += client.issued;
        kept.append(&mut client.kept);
        gen = client.gen;
        if trace {
            traced_sessions =
                traced_preamble(&mut rec, &specs, &cache).map_err(|e| format!("traced: {e}"))?;
        }
    }
    if sink.batch_rates.is_empty() {
        return Err(format!(
            "{requests} requests filled no batch of {}",
            sink.batch
        ));
    }
    // Every batch has the same mix, so batches differ only in the load other
    // tenants put on the host: the fastest batch is the one it slowed least,
    // not a lighter draw of requests.
    m.ops_per_s = sink.batch_rates.iter().copied().fold(0.0, f64::max);
    m.latency_ms = min(&sink.batch_p50_ns) * 1e-6;
    m.info("batches", sink.batch_rates.len() as f64, "count");
    m.info("batch_requests", sink.batch as f64, "count");
    m.info("latency_p99_ms", median(&sink.batch_p99_ns) * 1e-6, "ms");
    m.info("latency_samples", sink.hist.count() as f64, "count");
    m.info("latency_p999_ms", sink.hist.quantile_ns(0.999) * 1e-6, "ms");
    for reply in &sink.not_ok {
        m.fail(format!("reply not ok: {reply}"));
    }
    // Kept replies line up with kept requests only when no reply went
    // missing, and a missing reply already counts as failed; so does a
    // reply that is not ok.
    if sink.kept.len() == kept.len() {
        for (request, reply) in kept.iter().zip(&sink.kept) {
            if !reply.starts_with(r#"{"ok":true"#) {
                continue;
            }
            if let Err(e) = check_reply(&mut cold[request.session], request, reply) {
                m.fail(e);
            }
        }
    }
    m.extra("serve.requests", requests as f64);
    m.extra("variation.components", cold[0].stats().n_components as f64);

    if trace {
        let setup_ref_s = m.setup_s.iter().sum();
        let op_ref_s = p.replay_requests as f64 / median(&sink.batch_rates);
        traced_requests(&mut rec, p, seed, &mut traced_sessions)
            .map_err(|e| format!("traced: {e}"))?;
        m.set_trace(rec, setup_ref_s, op_ref_s);
        let other = (1.0 - m.op_coverage()).max(0.0);
        m.extra("serve.other.frac", other);
    }
    Ok(m)
}

/// A kept reply must carry bit for bit what a cold-built session answers.
/// `manage_step` and `stats` replies depend on session history and are
/// only checked for `"ok":true`.
fn check_reply(session: &mut Session, request: &Request, reply: &str) -> Result<(), String> {
    let json = Json::parse(reply).map_err(|e| format!("reply {reply}: {e}"))?;
    let bad = |what: String| format!("{request:?}: {what} in {reply}");
    let same = |field: &str, want: f64| match json.get(field).and_then(Json::as_f64) {
        Some(got) if got.to_bits() == want.to_bits() => Ok(()),
        got => Err(bad(format!(
            "{field} = {got:?}, cold session gives {want:e}"
        ))),
    };
    match request.op {
        Op::PAt => same(
            "p",
            session.p_at(request.a).map_err(|e| bad(e.to_string()))?,
        ),
        Op::Lifetime => same(
            "t_s",
            session
                .lifetime(request.a)
                .map_err(|e| bad(e.to_string()))?,
        ),
        Op::Sweep => {
            let want = session
                .sweep(request.a, request.b, SWEEP_POINTS)
                .map_err(|e| bad(e.to_string()))?;
            let got: Vec<(f64, f64)> = json
                .get("curve")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|pt| Some((pt.as_array()?[0].as_f64()?, pt.as_array()?[1].as_f64()?)))
                .collect();
            let bits = |c: &[(f64, f64)]| -> Vec<(u64, u64)> {
                c.iter().map(|(t, p)| (t.to_bits(), p.to_bits())).collect()
            };
            if bits(&got) == bits(&want) {
                Ok(())
            } else {
                Err(bad("curve differs from the cold session's".to_string()))
            }
        }
        Op::Step | Op::Stats => Ok(()),
    }
}

/// The preamble's work stage by stage: cache load, bind, lazy manager
/// build.
fn traced_preamble(
    rec: &mut Recorder,
    specs: &[AnalysisSpec],
    cache: &ArtifactCache,
) -> statobd::Result<Vec<Session>> {
    let mut sessions = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let t0 = Instant::now();
        let session = Session::open(spec, cache)?;
        let open_ns = t0.elapsed().as_nanos() as u64;
        let load_ns = rec.span("artifact.load", k as u64, |_| {
            let t0 = Instant::now();
            cache.load(spec).map(|_| t0.elapsed().as_nanos() as u64)
        })?;
        // `Session::open` is the load plus binding the engine; the bind
        // has no public entry point of its own.
        rec.add("session.bind", open_ns.saturating_sub(load_ns));
        sessions.push(session);
    }
    for (k, session) in sessions.iter_mut().enumerate() {
        rec.span("manager.build", k as u64, |_| {
            session.manage_step_uniform(1.0, 0.0, params::NOMINAL_VDD_V)
        })?;
    }
    Ok(sessions)
}

/// A prefix of the timed request stream through `Json::parse` → the
/// `Session` method → `to_compact`, as the server does it, minus the
/// server's own dispatch, LRU and write.
fn traced_requests(
    rec: &mut Recorder,
    p: &Params,
    seed: u64,
    sessions: &mut [Session],
) -> statobd::Result<()> {
    let mut gen = Generator::new(seed, p.batch_decks);
    let mut line = String::new();
    for i in 0..p.replay_requests {
        line.clear();
        write_request(&gen.next(), &mut line);
        let request = rec.span("json.parse", i, |_| Json::parse(&line))?;
        let field = |name: &str| request.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let name = request.get("session").and_then(Json::as_str).unwrap_or("");
        let k = SESSIONS
            .iter()
            .position(|s| s.0 == name)
            .expect("generated session name");
        let s = &mut sessions[k];
        let members: Vec<(&str, Json)> = match request.get("op").and_then(Json::as_str) {
            Some("p_at") => {
                let p = rec.span("core.p_at", i, |_| s.p_at(field("t_s")))?;
                vec![("p", Json::Number(p))]
            }
            Some("sweep") => {
                let (lo, hi) = (field("t_lo_s"), field("t_hi_s"));
                let curve = rec.span("core.sweep", i, |_| s.sweep(lo, hi, SWEEP_POINTS))?;
                let rows = curve
                    .into_iter()
                    .map(|(t, p)| Json::Array(vec![Json::Number(t), Json::Number(p)]))
                    .collect();
                vec![("curve", Json::Array(rows))]
            }
            Some("lifetime") => {
                let t_s = rec.span("core.lifetime", i, |_| s.lifetime(field("target")))?;
                vec![
                    ("t_s", Json::Number(t_s)),
                    ("years", Json::Number(t_s / 3.156e7)),
                ]
            }
            Some("manage_step") => {
                let (dt_s, dt_k, vdd) = (field("dt_s"), field("dt_k"), field("vdd_v"));
                let r = rec.span("manager.step", i, |_| {
                    s.manage_step_uniform(dt_s, dt_k, vdd)
                })?;
                vec![
                    ("p_now", Json::Number(r.p_now)),
                    ("p_projected", Json::Number(r.p_projected)),
                    ("level", Json::Number(r.level as f64)),
                    ("capped", Json::Bool(r.capped)),
                    ("vdd_v", Json::Number(r.vdd_v)),
                ]
            }
            _ => vec![
                ("stats", s.stats().to_json()),
                ("lanes", Json::String(statobd::num::simd::dispatch_label())),
            ],
        };
        let reply = Json::Object(
            std::iter::once(("ok", Json::Bool(true)))
                .chain(members)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        std::hint::black_box(rec.span("json.encode", i, |_| reply.to_compact()));
    }
    Ok(())
}
