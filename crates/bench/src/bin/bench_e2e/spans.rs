//! In-memory spans for the traced run: one record per layer call, kept
//! until the benchmark exits and then written as JSON lines.

use std::io::Write;
use std::time::Instant;

use crate::json::escape;

/// One timed call. `parent` indexes the enclosing span in the same
/// recorder; a root span (`None`) is one whole request.
#[derive(Debug, Clone)]
pub struct Span {
    pub rep: usize,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for one workload. A disabled recorder times nothing and
/// allocates nothing, so the untraced replicas run the same code.
pub struct Recorder {
    epoch: Option<Instant>,
    rep: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Recorder::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder {
            epoch: None,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recording recorder; span times count from `epoch`.
    pub fn enabled(epoch: Instant) -> Recorder {
        Recorder {
            epoch: Some(epoch),
            ..Recorder::disabled()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Request index stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(None);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            rep: self.rep,
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: nanos_since(epoch),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let (Some(epoch), Some(id)) = (self.epoch, id.0) else {
            return;
        };
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = nanos_since(epoch);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers (children may overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Append `spans` as JSON lines: workload, rep, name, parent name,
/// start_ns, end_ns.
pub fn write_jsonl(w: &mut dyn Write, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = match s.parent {
            Some(p) => format!("\"{}\"", escape(&spans[p].name)),
            None => "null".to_string(),
        };
        writeln!(
            w,
            "{{\"workload\":\"{}\",\"rep\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            escape(workload),
            s.rep,
            escape(&s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            rep: 0,
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("rep", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union is 10..60
            span("c", Some(0), 90, 120), // sticks out: only 90..100 counts
            span("d", Some(1), 15, 20),  // grandchild: counts against a only
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::enabled(Instant::now());
        rec.set_rep(3);
        let root = rec.begin("rep");
        let x = rec.time("inner", || 7);
        rec.end(root);
        assert_eq!(x, 7);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].rep, 3);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::disabled();
        let id = off.begin("rep");
        off.end(id);
        assert!(off.spans.is_empty() && !off.is_enabled());

        let mut buf = Vec::new();
        write_jsonl(&mut buf, "w", &rec.spans).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf-8");
        assert!(text
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("\"parent\":\"rep\"")));
    }
}
