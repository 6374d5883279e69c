//! The span recorder behind `--trace 1`.
//!
//! A span is one timed call into a layer: its name (`<layer>.<stage>`),
//! start and end, the span that caused it, and the id of the operation
//! (design item, request or chip) it belongs to. Spans are timed from the
//! benchmark's side of each public call, so the library is measured
//! unchanged. Per-name totals (calls, total and self time) are kept for
//! every span; the spans themselves are kept in memory up to
//! [`MAX_RETAINED`] and written out once, at exit, when asked for.

use statobd::num::json::Json;
use std::time::Instant;

/// Spans retained for the written trace; later spans still count in the
/// per-name totals. Bounds memory on the chip-level fleet replays.
const MAX_RETAINED: usize = 1 << 18;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate: calls, total time and self time (total minus the
/// time covered by child spans).
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    fn add(&mut self, total_ns: u64, self_ns: u64) {
        self.calls += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    /// End of the latest lap (initially the start).
    lap_ns: u64,
    child_ns: u64,
    retained: u32,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    /// Per-name totals; a short list searched by name, which is cheaper per
    /// span than a map for the dozen names a run uses.
    totals: Vec<(&'static str, Totals)>,
    laps: u64,
    dropped: u64,
}

fn totals_of<'t>(
    totals: &'t mut Vec<(&'static str, Totals)>,
    name: &'static str,
) -> &'t mut Totals {
    let i = match totals
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
    {
        Some(i) => i,
        None => {
            totals.push((name, Totals::default()));
            totals.len() - 1
        }
    };
    &mut totals[i].1
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
            laps: 0,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for operation `id`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.open.last().map_or(ROOT, |o| o.retained);
        let retained = if self.spans.len() < MAX_RETAINED {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            ROOT
        };
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            id,
            start_ns,
            lap_ns: start_ns,
            child_ns: 0,
            retained,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("span stack is balanced");
        let dur = end_ns - o.start_ns;
        totals_of(&mut self.totals, o.name).add(dur, dur.saturating_sub(o.child_ns));
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if o.retained != ROOT {
            let s = &mut self.spans[o.retained as usize];
            debug_assert_eq!((s.name, s.id), (o.name, o.id));
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
        out
    }

    /// Ends a lap of the innermost open span: the time since its previous
    /// lap (or its start) counts as a child named `name`. Laps split a hot
    /// loop into consecutive stages at one clock read per stage; they are
    /// counted in the totals but not retained as spans.
    pub fn lap(&mut self, name: &'static str) {
        let now = self.now_ns();
        let open = self.open.last_mut().expect("a lap needs an open span");
        let dur = now - open.lap_ns;
        open.lap_ns = now;
        open.child_ns += dur;
        totals_of(&mut self.totals, name).add(dur, dur);
        self.laps += 1;
    }

    /// Counts an interval measured outside a span — one whose call has no
    /// public entry point of its own — in the totals of `name`.
    pub fn add(&mut self, name: &'static str, ns: u64) {
        totals_of(&mut self.totals, name).add(ns, ns);
    }

    /// The totals of one span name (zero when it never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Totals::default, |&(_, t)| t)
    }

    /// Self seconds of one span name.
    pub fn self_s(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 * 1e-9
    }

    /// Seconds spent inside spans.
    pub fn traced_s(&self) -> f64 {
        self.totals.iter().map(|(_, t)| t.self_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Intervals recorded: spans, retained or not, and laps.
    pub fn spans(&self) -> u64 {
        self.totals.iter().map(|(_, t)| t.calls).sum()
    }

    /// What recording cost this run, at the calibrated per-span and
    /// per-lap costs (seconds).
    pub fn overhead_s(&self, costs: &Costs) -> f64 {
        (self.spans() - self.laps) as f64 * costs.span_s + self.laps as f64 * costs.lap_s
    }

    /// Every total and retained span as one JSON document.
    pub fn to_json(&self) -> Json {
        let num = |x: u64| Json::Number(x as f64);
        let mut sorted = self.totals.clone();
        sorted.sort_by_key(|&(name, _)| name);
        let totals = sorted
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Object(vec![
                        ("calls".to_string(), num(t.calls)),
                        ("total_ns".to_string(), num(t.total_ns)),
                        ("self_ns".to_string(), num(t.self_ns)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Array(vec![
                    Json::String(s.name.to_string()),
                    num(s.id),
                    if s.parent == ROOT {
                        Json::Null
                    } else {
                        num(u64::from(s.parent))
                    },
                    num(s.start_ns),
                    num(s.end_ns),
                ])
            })
            .collect();
        Json::Object(vec![
            ("totals".to_string(), Json::Object(totals)),
            (
                "span_fields".to_string(),
                Json::String("name, id, parent index, start_ns, end_ns".to_string()),
            ),
            ("spans".to_string(), Json::Array(spans)),
            ("dropped_spans".to_string(), num(self.dropped)),
        ])
    }
}

/// The measured cost of recording one span and one lap (seconds).
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    pub span_s: f64,
    pub lap_s: f64,
}

/// Measures [`Costs`] on this host.
pub fn calibrate() -> Costs {
    const N: u64 = 20_000;
    let mut rec = Recorder::new();
    let start = Instant::now();
    rec.span("calibrate.root", 0, |rec| {
        for i in 0..N {
            rec.span("calibrate.span", i, |_| ());
        }
    });
    let span_s = start.elapsed().as_secs_f64() / N as f64;
    let start = Instant::now();
    rec.span("calibrate.root", 1, |rec| {
        for _ in 0..N {
            rec.lap("calibrate.lap");
        }
    });
    let lap_s = start.elapsed().as_secs_f64() / N as f64;
    Costs { span_s, lap_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_split_a_span_into_consecutive_stages() {
        let mut rec = Recorder::new();
        rec.span("a.root", 1, |rec| {
            for _ in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                rec.lap("b.first");
                rec.lap("c.second");
            }
        });
        let root = rec.totals("a.root");
        let (first, second) = (rec.totals("b.first"), rec.totals("c.second"));
        assert_eq!((first.calls, second.calls), (3, 3));
        assert!(first.self_ns >= 3_000_000);
        assert_eq!(
            root.self_ns,
            root.total_ns - first.total_ns - second.total_ns
        );
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("a.root", 7, |rec| {
            rec.span("b.child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = rec.totals("a.root");
        let child = rec.totals("b.child");
        assert_eq!((root.calls, child.calls), (1, 1));
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(rec.spans(), 2);
        let json = rec.to_json().to_compact();
        assert!(json.contains("\"b.child\",7,0,"), "{json}");
    }
}
