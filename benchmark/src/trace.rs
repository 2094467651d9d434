//! Spans recorded from outside the program, around each call into a layer.
//!
//! A [`Tracer`] keeps its spans in memory; the child process that owns it
//! prints them when it exits, and the parent folds them into per-layer
//! self times with [`self_times`]. A disabled tracer records nothing and
//! never reads `/proc`, so untraced runs pay nothing for it.

use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Index of the traced process within its benchmark run.
    pub run: usize,
    /// Position in the process's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name (see [`crate::metrics::LAYER_SPANS`]).
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Bytes the process read during the span (`/proc/self/io` `rchar`).
    pub read_bytes: u64,
    /// Bytes the process wrote during the span (`/proc/self/io` `wchar`).
    pub write_bytes: u64,
}

impl SpanRecord {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The line a child prints for this span.
    pub fn to_line(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        format!(
            "span {} {parent} {} {} {} {} {}",
            self.id, self.name, self.start_ns, self.end_ns, self.read_bytes, self.write_bytes
        )
    }

    /// Parses the fields after `span` in a child's line, tagging the span
    /// with the parent-side `run` index.
    pub fn parse(run: usize, fields: &[&str]) -> Option<SpanRecord> {
        let [id, parent, name, start, end, read, write] = fields else {
            return None;
        };
        Some(SpanRecord {
            run,
            id: id.parse().ok()?,
            parent: match *parent {
                "-" => None,
                p => Some(p.parse().ok()?),
            },
            name: (*name).to_owned(),
            start_ns: start.parse().ok()?,
            end_ns: end.parse().ok()?,
            read_bytes: read.parse().ok()?,
            write_bytes: write.parse().ok()?,
        })
    }

    /// The span as one JSON object of the trace file.
    pub fn to_json(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        format!(
            "{{\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"read_bytes\":{},\"write_bytes\":{}}}",
            self.run,
            self.id,
            self.name,
            self.start_ns,
            self.end_ns,
            self.read_bytes,
            self.write_bytes
        )
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    /// Open spans, innermost last, with their `(rchar, wchar)` at entry.
    open: Vec<(usize, (u64, u64))>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer whose spans cost nothing and record nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let parent = self.open.last().map(|&(id, _)| id);
        let io = proc_io();
        self.spans.push(SpanRecord {
            run: 0,
            id,
            parent,
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            read_bytes: 0,
            write_bytes: 0,
        });
        self.open.push((id, io));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let (id, (rchar, wchar)) = self.open.pop().expect("exit matches an enter");
        let end_ns = self.now_ns();
        let (rchar_now, wchar_now) = proc_io();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.read_bytes = rchar_now.saturating_sub(rchar);
        span.write_bytes = wchar_now.saturating_sub(wchar);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// The finished spans, in entry order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// The process's cumulative `(rchar, wchar)` from `/proc/self/io`, or
/// zeros where the file is unavailable.
fn proc_io() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/io") else {
        return (0, 0);
    };
    let field = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its children cover. `spans` are one process's spans
/// in entry order, as a [`Tracer`] records them: a span's id is its index,
/// and children nest inside their parent one after another, so the part
/// they cover is the sum of their durations.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(SpanRecord::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| self_ns.get_mut(p)) {
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            run: 0,
            id,
            parent,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_time_children_cover() {
        // run [0,100): round [10,60) and finish [70,90).
        // round: collect [10,40), passes [45,55) -> self 10.
        // collect has no children -> self 30.
        let spans = [
            span(0, None, "run", 0, 100),
            span(1, Some(0), "round", 10, 60),
            span(2, Some(1), "collect", 10, 40),
            span(3, Some(1), "passes", 45, 55),
            span(4, Some(0), "finish", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 30, 10, 20]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = [
            span(0, None, "run", 0, 1000),
            span(1, Some(0), "round", 0, 400),
            span(2, Some(1), "collect", 50, 300),
            span(3, Some(0), "round", 400, 900),
            span(4, Some(3), "scan", 400, 900),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn span_lines_round_trip() {
        let mut record = span(7, Some(3), "query.context", 12, 34);
        record.read_bytes = 5;
        record.write_bytes = 6;
        let line = record.to_line();
        let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(SpanRecord::parse(0, &fields), Some(record));
        let root = span(0, None, "run", 0, 1);
        let line = root.to_line();
        let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(SpanRecord::parse(0, &fields), Some(root));
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::enabled();
        tracer.enter("run");
        let value = tracer.span("collect", || 41 + 1);
        tracer.exit();
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::disabled();
        off.enter("run");
        off.span("collect", || ());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
