//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps each call into a layer's public functions in a span:
//! name, start, end, parent span and the run id shared by every span of one
//! process. Spans stay in memory until the run ends; a disabled tracer
//! records nothing and only forwards the call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSummary {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Self {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// its children cover. Children of one parent run one after another on
    /// one thread, so their intervals never overlap.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_s += span.duration_ns() as f64 * 1e-9;
            entry.self_s += self.self_ns(id) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}\n",
                    s.name, s.start_ns, s.end_ns, s.run_id
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, 7);
        t.span("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run_id == 7));
        let children = spans[1].duration_ns() + spans[2].duration_ns();
        assert_eq!(t.self_ns(0), spans[0].duration_ns() - children);
        assert_eq!(t.summary()["child"].count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans.is_empty());
    }
}
