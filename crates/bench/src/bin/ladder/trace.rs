//! In-memory spans around the ladder's calls into each layer.
//!
//! A span is `{name = layer.call, start, end, parent, op}`; spans of one
//! operation share `op`. They are recorded from the benchmark's side of
//! every public call — nothing inside the program is instrumented — kept
//! in memory for the whole run, and written out once at exit. A layer's
//! self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`; the text before the first dot is the layer.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The load thread's span recorder for one trial.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the run's epoch, for [`Tracer::record`].
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Keeps an interval that overlaps its siblings instead of nesting in
    /// them (pipelined requests), under whichever span is open.
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Opens a span under whichever span is currently open on this thread.
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes `id` (and anything left open beneath it).
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Times `f` from outside and returns its result with the elapsed
/// nanoseconds; with a tracer, the same interval is also kept as a span.
pub fn timed<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let id = tracer.as_mut().map(|t| t.begin(name, op));
    let t0 = Instant::now();
    let out = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
    (out, nanos)
}

/// Appends another trial's spans, keeping their parent links valid.
pub fn merge(into: &mut Vec<Span>, from: Vec<Span>) {
    let shift = into.len() as u32;
    into.extend(from.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + shift);
        s
    }));
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Overlapping children
/// are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                kids[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Share of all traced time each layer spent in its own code, in percent.
pub fn busy_pct_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let total: u64 = selfs.iter().sum();
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        *by_layer.entry(s.layer()).or_insert(0) += own;
    }
    by_layer
        .into_iter()
        .map(|(layer, own)| (layer, 100.0 * own as f64 / total.max(1) as f64))
        .collect()
}

/// Spans written per file; the busy shares always use every span.
const MAX_WRITTEN: usize = 200_000;

/// Writes `<dir>/trace-<workload>.json` and returns its path.
pub fn write_json(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let written = spans.len().min(MAX_WRITTEN);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \
         \"spans_written\": {written}, \"spans\": [",
        spans.len()
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        // A parent beyond the cut is written as null so the file stays a tree.
        let parent = match s.parent {
            Some(p) if (p as usize) < written => p.to_string(),
            _ => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"op\": {}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 == written { "" } else { "," }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("net.fetch", 0, 100, None),
            span("core.push", 10, 40, Some(0)),
            span("simd.decode", 20, 30, Some(1)),
            span("core.push", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span("fabric.fetch", 100, 200, None),
            span("net.a", 110, 150, Some(0)),
            span("net.b", 140, 170, Some(0)), // overlaps net.a by 10
            span("net.c", 190, 260, Some(0)), // hangs 60 past the parent
            span("net.d", 120, 130, Some(0)), // wholly inside net.a
        ];
        // Covered: 110..170 and 190..200 = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn busy_shares_sum_to_one_hundred_and_follow_the_name_prefix() {
        let spans = [
            span("net.fetch", 0, 100, None),
            span("core.push", 0, 25, Some(0)),
            span("simd.decode", 25, 75, Some(0)),
        ];
        let busy = busy_pct_by_layer(&spans);
        assert_eq!(busy["net"], 25.0);
        assert_eq!(busy["core"], 25.0);
        assert_eq!(busy["simd"], 50.0);
        assert_eq!(busy.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_by_open_span_and_merge_keeps_parents() {
        let mut t = Some(Tracer::new(Instant::now()));
        let outer = t.as_mut().unwrap().begin("bench.op", 7);
        let ((), nanos) = timed(&mut t, "rans.encode", 7, || {
            std::hint::black_box(0u64);
        });
        t.as_mut().unwrap().end(outer);
        let spans = t.unwrap().into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[1].end_ns - spans[1].start_ns >= nanos / 2);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let mut all = vec![span("x.y", 0, 1, None)];
        merge(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
    }
}
