//! The benchmark's own spans, recorded around its calls into the program
//! and written out once the traced run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use cetric::engine::EngineSpan;

use crate::json::quote;

/// One interval: what ran, for which run or request (`id`), inside which
/// other span of the same id. A span's self time is its duration minus
/// its children's.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Writes the spans, and the engine's own lifecycle spans (their clock
    /// starts when that engine was built; `id` is the tick index), as JSON.
    pub fn write(&self, path: &Path, workload: &str, engine: &[EngineSpan]) -> io::Result<()> {
        let mut s = String::with_capacity(96 * (self.spans.len() + engine.len()) + 256);
        let _ = write!(
            s,
            "{{\"workload\": {}, \"unit\": \"ns\", \"spans\": [",
            quote(workload)
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), quote);
            let _ = write!(
                s,
                "{}\n{{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                if i == 0 { "" } else { "," },
                quote(sp.name),
                sp.id,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("],\n\"engine_spans\": [");
        for (i, sp) in engine.iter().enumerate() {
            let parent = if sp.label == "batch" {
                "null".to_string()
            } else {
                quote("batch")
            };
            let _ = write!(
                s,
                "{}\n{{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                if i == 0 { "" } else { "," },
                quote(sp.label),
                sp.batch,
                sp.begin_nanos,
                sp.end_nanos
            );
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}
