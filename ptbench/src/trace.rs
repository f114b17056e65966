//! Harness-side tracing: spans recorded in memory around every call into
//! a layer, and the budget table folded from them.
//!
//! Nothing here reads the system's own telemetry. A span is what the
//! harness saw from outside: a name, a layer, start and end, the span that
//! caused it and the ride it belongs to. The table's measured rows come
//! from span arithmetic (self time = a span minus the part its children
//! cover); the rows of layers the harness cannot see from outside
//! (`matching`, `vehicles`, `roadnet` inside a `submit`; the service inside
//! an HTTP round trip; journal appends inside every write) are *carved*
//! out of the enclosing measured row with times taken on replay passes —
//! see [`Budget::carve`].

use crate::json::Json;
use std::time::Instant;

/// The rows of a budget table, outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Server,
    Service,
    Matching,
    Vehicles,
    Roadnet,
    Journal,
    Driver,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Server,
        Layer::Service,
        Layer::Matching,
        Layer::Vehicles,
        Layer::Roadnet,
        Layer::Journal,
        Layer::Driver,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Server => "server",
            Layer::Service => "service",
            Layer::Matching => "matching",
            Layer::Vehicles => "vehicles",
            Layer::Roadnet => "roadnet",
            Layer::Journal => "journal",
            Layer::Driver => "driver",
        }
    }
}

/// Index of a span inside its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;
/// Ride id of spans that belong to no ride (fleet movement, ticks).
pub const NO_RIDE: u64 = u64::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub ride: u64,
}

/// An open span: started, not yet recorded.
pub struct Open {
    id: SpanId,
}

/// The span store. A disabled tracer records nothing and reads no clock,
/// so the untraced run pays one branch per call site.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; children name it as their parent through
    /// [`Tracer::id`]. `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<&Open>,
        ride: u64,
    ) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p.id),
            ride,
        });
        Some(Open {
            id: (self.spans.len() - 1) as SpanId,
        })
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, open: Option<Open>) {
        if let Some(open) = open {
            self.spans[open.id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span the caller timed itself (it needed the duration
    /// anyway, as for the offer latency).
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<&Open>,
        ride: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                layer,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
                parent: parent.map_or(NO_PARENT, |p| p.id),
                ride,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of several tracers (one per client thread) as one store;
    /// parent ids are re-based so they stay valid.
    pub fn merge(parts: Vec<Tracer>) -> Tracer {
        let mut merged = Tracer::new(true);
        for part in parts {
            let base = merged.spans.len() as SpanId;
            // Every tracer has its own epoch; shift onto the first one's.
            if merged.spans.is_empty() {
                merged.epoch = part.epoch;
            }
            let shift = part
                .epoch
                .saturating_duration_since(merged.epoch)
                .as_nanos() as u64;
            merged.spans.extend(part.spans.into_iter().map(|mut s| {
                s.start_ns += shift;
                s.end_ns += shift;
                if s.parent != NO_PARENT {
                    s.parent += base;
                }
                s
            }));
        }
        merged
    }

    /// One JSON object per span, one per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("layer", Json::str(s.layer.name())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ];
            if s.parent != NO_PARENT {
                fields.push(("parent", Json::Num(f64::from(s.parent))));
            }
            if s.ride != NO_RIDE {
                fields.push(("ride", Json::Num(s.ride as f64)));
            }
            out.push_str(&Json::obj(fields).render());
            out.push('\n');
        }
        out
    }
}

/// One row of a budget table.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Row {
    /// Operations of this layer (spans, or carved operations).
    pub count: u64,
    /// Time inside the layer and everything it called.
    pub busy_s: f64,
    /// Time inside the layer alone.
    pub self_s: f64,
}

/// Where a traced wall went. `rows` are in [`Layer::ALL`] order;
/// `unattributed` is what no span covered (loop overhead, span recording,
/// idle waits of a client thread), so the self times always sum to the wall.
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Traced wall times the number of driver threads (each thread's time
    /// is budgeted; with one driver this is the plain wall).
    pub wall_s: f64,
    pub rows: [Row; 7],
}

impl Budget {
    /// Folds spans into measured rows: `busy` sums a layer's spans, `self`
    /// subtracts from each span the time its direct children cover.
    pub fn from_spans(spans: &[Span], wall_s: f64) -> Budget {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows = [Row::default(); 7];
        for (s, covered) in spans.iter().zip(&child_ns) {
            let row = &mut rows[s.layer as usize];
            let dur = s.end_ns - s.start_ns;
            row.count += 1;
            row.busy_s += dur as f64 / 1e9;
            // Children run inside their parent, so they cover at most all
            // of it; clock granularity can overshoot by nanoseconds.
            row.self_s += dur.saturating_sub(*covered) as f64 / 1e9;
        }
        Budget { wall_s, rows }
    }

    pub fn row(&self, layer: Layer) -> &Row {
        &self.rows[layer as usize]
    }

    /// Moves `seconds` (covering `count` operations) of `from`'s self time
    /// into `to`, whose work happens inside `from` where no harness span
    /// can reach. The amount was measured on a replay pass, so it is
    /// capped at what `from` has left: the table must still sum. `from`
    /// stays busy for that time (it called `to`); `to` is busy for it too.
    pub fn carve(&mut self, from: Layer, to: Layer, count: u64, seconds: f64) {
        let moved = seconds.clamp(0.0, self.rows[from as usize].self_s);
        self.rows[from as usize].self_s -= moved;
        let to = &mut self.rows[to as usize];
        to.count += count;
        to.busy_s += moved;
        to.self_s += moved;
    }

    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(|r| r.self_s).sum()
    }

    /// Wall no row accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.attributed_s()
    }

    /// Share of the wall a layer's self time takes.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.wall_s > 0.0 {
            self.row(layer).self_s / self.wall_s
        } else {
            0.0
        }
    }

    pub fn to_json(&self) -> Json {
        let mut rows: Vec<Json> = Layer::ALL
            .iter()
            .map(|layer| {
                let r = self.row(*layer);
                Json::obj([
                    ("layer", Json::str(layer.name())),
                    ("count", Json::Num(r.count as f64)),
                    ("busy_s", Json::Num(r.busy_s)),
                    ("self_s", Json::Num(r.self_s)),
                    ("share", Json::Num(self.share(*layer))),
                ])
            })
            .collect();
        rows.push(Json::obj([
            ("layer", Json::str("unattributed")),
            ("self_s", Json::Num(self.unattributed_s())),
            (
                "share",
                Json::Num(self.unattributed_s() / self.wall_s.max(f64::MIN_POSITIVE)),
            ),
        ]));
        Json::obj([
            ("wall_s", Json::Num(self.wall_s)),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// The table as text, one row per layer plus `unattributed` and the sum.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  {:<13}{:>10}{:>12}{:>12}{:>8}\n",
            "layer", "count", "busy_s", "self_s", "share"
        );
        for layer in Layer::ALL {
            let r = self.row(layer);
            out.push_str(&format!(
                "  {:<13}{:>10}{:>12.4}{:>12.4}{:>7.1}%\n",
                layer.name(),
                r.count,
                r.busy_s,
                r.self_s,
                self.share(layer) * 100.0
            ));
        }
        let un = self.unattributed_s();
        out.push_str(&format!(
            "  {:<13}{:>10}{:>12}{:>12.4}{:>7.1}%\n",
            "unattributed",
            "",
            "",
            un,
            un / self.wall_s.max(f64::MIN_POSITIVE) * 100.0
        ));
        out.push_str(&format!(
            "  {:<13}{:>10}{:>12}{:>12.4}{:>7.1}%\n",
            "= wall",
            "",
            "",
            self.attributed_s() + un,
            100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: Layer, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            ride: 0,
        }
    }

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        // ride [0, 100 ms) holds submit [10, 60) and respond [70, 90);
        // a root update [100, 130) follows. Wall is 150 ms.
        let ms = 1_000_000;
        let spans = [
            span("ride", Layer::Driver, 0, 100 * ms, NO_PARENT),
            span("submit", Layer::Service, 10 * ms, 60 * ms, 0),
            span("respond", Layer::Service, 70 * ms, 90 * ms, 0),
            span("update", Layer::Service, 100 * ms, 130 * ms, NO_PARENT),
        ];
        let mut b = Budget::from_spans(&spans, 0.150);
        let near = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert_eq!(b.row(Layer::Service).count, 3);
        assert!(near(b.row(Layer::Service).busy_s, 0.100));
        assert!(near(b.row(Layer::Service).self_s, 0.100));
        assert!(near(b.row(Layer::Driver).busy_s, 0.100));
        assert!(
            near(b.row(Layer::Driver).self_s, 0.030),
            "ride minus its two children"
        );
        assert!(near(b.unattributed_s(), 0.020));
        assert!(near(b.attributed_s() + b.unattributed_s(), b.wall_s));

        // Carving matching out of the service keeps the sum and never
        // takes more than the service has.
        b.carve(Layer::Service, Layer::Matching, 2, 0.040);
        assert!(near(b.row(Layer::Service).self_s, 0.060));
        assert!(
            near(b.row(Layer::Service).busy_s, 0.100),
            "busy still includes the callee"
        );
        assert!(near(b.row(Layer::Matching).self_s, 0.040));
        b.carve(Layer::Matching, Layer::Roadnet, 7, 1.0);
        assert!(near(b.row(Layer::Matching).self_s, 0.0));
        assert!(near(b.row(Layer::Matching).busy_s, 0.040));
        assert!(near(b.row(Layer::Roadnet).self_s, 0.040));
        assert_eq!(b.row(Layer::Roadnet).count, 7);
        assert!(near(b.attributed_s() + b.unattributed_s(), b.wall_s));
        assert!(near(b.share(Layer::Roadnet), 0.040 / 0.150));

        let json = b.to_json();
        let rows = json.get("rows").and_then(Json::as_arr).unwrap();
        let sum: f64 = rows
            .iter()
            .map(|r| r.get("self_s").and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            near(sum, 0.150),
            "rows, unattributed included, sum to the wall"
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let ride = t.open("ride", Layer::Driver, None, 1);
        assert!(ride.is_none());
        let now = Instant::now();
        t.record("submit", Layer::Service, ride.as_ref(), 1, now, now);
        t.close(ride);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn open_close_record_and_merge_keep_parents() {
        let mut a = Tracer::new(true);
        let ride = a.open("ride", Layer::Driver, None, 5);
        let t0 = Instant::now();
        a.record(
            "submit",
            Layer::Service,
            ride.as_ref(),
            5,
            t0,
            Instant::now(),
        );
        a.close(ride);
        let mut b = Tracer::new(true);
        let ride = b.open("ride", Layer::Driver, None, 6);
        let t0 = Instant::now();
        b.record(
            "submit",
            Layer::Service,
            ride.as_ref(),
            6,
            t0,
            Instant::now(),
        );
        b.close(ride);

        let merged = Tracer::merge(vec![a, b]);
        let spans = merged.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].parent, spans[3].parent), (0, 2));
        assert_eq!((spans[1].ride, spans[3].ride), (5, 6));
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let dump = merged.dump();
        assert_eq!(dump.lines().count(), 4);
        let first = Json::parse(dump.lines().nth(1).unwrap()).unwrap();
        assert_eq!(first.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("layer").and_then(Json::as_str), Some("service"));
    }
}
