//! In-memory spans around the benchmark's calls into each layer, written
//! at the end as Chrome trace-event JSON (opens in Perfetto).
//!
//! A span records its layer (the crate it calls into), its name, host
//! start and end, the span that caused it, a request id, and the track
//! (simulated rank) it ran on. Nothing here runs inside the measured
//! program: spans wrap the benchmark's own calls.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request (a batch, an epoch,
    /// a served query group).
    pub request: u64,
    pub track: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder for one thread of work.
pub struct Tracer {
    origin: Instant,
    track: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times are seconds since `origin` (share one origin
    /// across tracers so their tracks line up).
    pub fn new(origin: Instant, track: usize) -> Self {
        Tracer {
            origin,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: Tracer::end
    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            request,
            track: self.track,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span and return its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another tracer's spans in, re-pointing their parents; its
    /// root spans become children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }
}

/// Durations in seconds of every closed span named `name` in `layer`.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name && s.end_s.is_finite())
        .map(Span::secs)
        .collect()
}

/// Sum of [`durations`].
pub fn total(spans: &[Span], layer: &str, name: &str) -> f64 {
    durations(spans, layer, name).iter().sum()
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
/// `track_name` labels each track (thread) in the viewer.
pub fn chrome_json(
    spans: &[Span],
    process_name: &str,
    track_name: impl Fn(usize) -> String,
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process_name}\"}}}}"
    ));
    let mut tracks: Vec<usize> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        out.push_str(&format!(
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{}\"}}}}",
            track_name(t)
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        if !s.end_s.is_finite() {
            continue;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
            s.name,
            s.layer,
            s.track,
            s.start_s * 1e6,
            s.secs() * 1e6,
            s.request
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_export() {
        let mut t = Tracer::new(Instant::now(), 0);
        let outer = t.begin("kge-train", "epoch", 1);
        t.span("kge-core", "batch_grad", 1, || std::hint::black_box(0));
        t.span("kge-core", "batch_grad", 2, || std::hint::black_box(0));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(durations(spans, "kge-core", "batch_grad").len(), 2);
        assert!(total(spans, "kge-core", "batch_grad") <= spans[0].secs());
        let json = chrome_json(spans, "test", |t| format!("rank {t}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0);
        a.span("x", "a", 0, || ());
        let mut b = Tracer::new(origin, 1);
        let p = b.begin("x", "outer", 0);
        b.span("x", "inner", 0, || ());
        b.end(p);
        a.absorb(b, Some(0));
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].track, 1);
    }
}
