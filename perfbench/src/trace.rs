//! In-memory span recorder around the benchmark's calls into the library.
//!
//! Spans are recorded by the benchmark itself, at the boundary of each
//! public call it makes (plan construction, scheme run, report export,
//! analyzers), so per-layer cost is measured without instrumenting the
//! program. Nothing is written until the run ends.

use std::time::Instant;

/// One recorded interval. `op` spans are the roots; call spans name their
/// op span as parent.
pub struct Span {
    pub name: &'static str,
    pub pass: usize,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when on; a pass-through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: usize,
    current: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts off; span times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            pass: 0,
            current: None,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open the root span of op `op`.
    pub fn begin_op(&mut self, op: usize) {
        if !self.on {
            return;
        }
        let t = self.now();
        self.spans.push(Span {
            name: "op",
            pass: self.pass,
            op,
            parent: None,
            start_s: t,
            end_s: t,
        });
        self.current = Some(self.spans.len() - 1);
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.current.take() {
            self.spans[i].end_s = self.now();
        }
    }

    /// Run `f` inside a call span named `name` (a layer boundary).
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_s = self.now();
        let out = f();
        let end_s = self.now();
        let (op, parent) = match self.current {
            Some(i) => (self.spans[i].op, Some(i)),
            None => (usize::MAX, None),
        };
        self.spans.push(Span {
            name,
            pass: self.pass,
            op,
            parent,
            start_s,
            end_s,
        });
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of every span.
    pub fn to_chrome_json(&self, labels: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let label = labels.get(s.op).map_or("", String::as_str);
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"pass\": {}, \"op\": {}}}}}",
                crate::host::quote(if s.name == "op" { label } else { s.name }),
                s.name,
                s.start_s * 1e6,
                s.secs() * 1e6,
                s.pass,
                crate::host::quote(label)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
