//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer's public functions (no crate is instrumented for this). Each span
//! has a name, a start and end, the span that caused it and the request it
//! belongs to. Spans stay in memory; [`Tracer::chrome`] renders them in
//! the span shape `kairos-telemetry` already exports for Chrome-trace
//! viewers.

use std::collections::BTreeMap;
use std::time::Instant;

use kairos_telemetry::{chrome_trace, SpanRecord, ROOT_PARENT};

pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct Span {
    /// The replay the span belongs to (see [`Tracer::replay`]).
    replay: u64,
    request: u64,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time child spans cover.
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    replays: Vec<&'static str>,
    current: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), replays: vec!["-"], current: 0 }
    }

    /// Registers and enters a replay: spans recorded in it are its own, so
    /// one stream replayed through several stacks keeps its request ids
    /// apart.
    pub fn replay(&mut self, label: &'static str) -> u64 {
        self.replays.push(label);
        self.current = self.replays.len() as u64 - 1;
        self.current
    }

    /// Switches back to a registered replay.
    pub fn enter(&mut self, replay: u64) {
        self.current = replay;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, request: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let now = self.now_ns();
        let replay = self.current;
        self.spans.push(Span { replay, request, parent, name, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records child spans of `parent` whose durations a layer reported
    /// itself (the pipeline's phase timings), laid end to end from the
    /// parent's start.
    pub fn children(&mut self, parent: SpanId, parts: &[(&'static str, u64)]) {
        let Span { replay, request, start_ns, end_ns, .. } = self.spans[parent];
        let mut at = start_ns;
        for &(name, ns) in parts {
            if ns == 0 {
                continue;
            }
            let end = (at + ns).min(end_ns);
            self.spans.push(Span {
                replay,
                request,
                parent: Some(parent),
                name,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// Count, total and self time per span name, for each replay label.
    pub fn totals(&self) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[p] += end.saturating_sub(start);
            }
        }
        let mut totals: BTreeMap<(&'static str, &'static str), SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let entry = totals.entry((self.replays[span.replay as usize], span.name)).or_default();
            let duration = span.end_ns - span.start_ns;
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        totals
    }

    /// The spans as a Chrome-trace-event document (microsecond ticks; each
    /// request of each replay renders as its own track).
    pub fn chrome(&self) -> String {
        let records: Vec<SpanRecord> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| SpanRecord {
                trace: (span.replay << 40) | span.request,
                id: id as u64,
                parent: span.parent.map_or(ROOT_PARENT, |p| p as u64),
                name: span.name.to_owned(),
                start: span.start_ns / 1_000,
                end: span.end_ns / 1_000,
                args: Vec::new(),
            })
            .collect();
        chrome_trace(&records)
    }
}

/// Whether `text` is one well-formed JSON value (syntax only).
pub fn json_parses(text: &str) -> bool {
    let mut p = JsonCheck { s: text.as_bytes(), i: 0 };
    p.value() && {
        p.ws();
        p.i == p.s.len()
    }
}

struct JsonCheck<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonCheck<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        if self.s.get(self.i) == Some(&byte) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> bool {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.seq(b'}', |p| p.string() && p.eat(b':') && p.value()),
            Some(b'[') => self.seq(b']', Self::value),
            Some(b'"') => self.string(),
            Some(b't') => self.word(b"true"),
            Some(b'f') => self.word(b"false"),
            Some(b'n') => self.word(b"null"),
            Some(_) => self.number(),
            None => false,
        }
    }

    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> bool) -> bool {
        self.i += 1;
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        self.ws();
        if self.s.get(self.i) != Some(&b'"') {
            return false;
        }
        self.i += 1;
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => self.i += 1,
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }

    fn word(&mut self, word: &[u8]) -> bool {
        let ok = self.s[self.i..].starts_with(word);
        self.i += word.len();
        ok
    }

    fn number(&mut self) -> bool {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i]).is_ok_and(|n| n.parse::<f64>().is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let root = tracer.open(0, None, "root");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(root);
        tracer.children(root, &[("a", 500_000), ("b", 500_000)]);
        let totals = tracer.totals();
        let root = totals[&("-", "root")];
        assert_eq!(root.total_ns - root.self_ns, 1_000_000);
        assert_eq!(totals[&("-", "a")].self_ns, 500_000);
    }

    #[test]
    fn chrome_export_parses() {
        let mut tracer = Tracer::new();
        let root = tracer.open(3, None, "request");
        let child = tracer.open(3, Some(root), "core.admit");
        tracer.close(child);
        tracer.close(root);
        assert!(json_parses(&tracer.chrome()));
        assert!(json_parses("{\"a\": [1, -2.5e3, true, null, \"x\\\"y\"]}"));
        assert!(!json_parses("[1, 2"));
        assert!(!json_parses("{\"a\" 1}"));
    }
}
