//! In-memory span recorder. Each span covers one call into a library layer;
//! spans are written out once, when the probe ends. With recording off,
//! `open`/`close` still time the call, so metrics are computed the same way
//! in both modes and only the bookkeeping differs.

use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// A span that has been opened and not yet closed.
#[must_use = "close the span to get its duration"]
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

/// Records spans when `on`; always measures durations.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_s: start.duration_since(self.t0).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_s = end.duration_since(self.t0).as_secs_f64();
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let out = std::hint::black_box(f());
        (out, self.close(open))
    }

    /// All recorded spans as JSON, tagged with `workload`.
    pub fn to_json(&self, workload: &str) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "name": s.name,
                    "workload": workload,
                    "start_s": s.start_s,
                    "end_s": s.end_s,
                    "parent": s.parent,
                })
            })
            .collect();
        serde_json::json!({ "workload": workload, "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("outer");
        let ((), inner_s) = tr.time("inner", || {});
        let outer_s = tr.close(outer);
        assert!(inner_s <= outer_s);
        let doc = tr.to_json("w");
        let spans = doc["spans"].as_array().expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1]["parent"], serde_json::json!(0));
        assert!(spans[0]["parent"].is_null());
    }

    #[test]
    fn recording_off_still_times() {
        let mut tr = Tracer::new(false);
        let (_, secs) = tr.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert_eq!(tr.to_json("w")["spans"].as_array().map(Vec::len), Some(0));
    }
}
