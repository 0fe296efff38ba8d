//! Span recorder for the traced run.
//!
//! Every call the benchmark makes into a public entry point of the system
//! (`build`, `pnn`, `pnn_batch`, `apply`, `tick`, `refresh_after*`,
//! `save_snapshot`, ...) goes through [`Tracer::time`], which times it with
//! one pair of clock reads. The untraced run uses those timings as its
//! latency samples; the traced run additionally keeps a span (name, start,
//! end, parent, operation id) in memory and writes all spans out when the
//! workload ends. Spans of one operation share its id: an update is one
//! `update` span with its `apply` and `refresh` calls as children.
//!
//! Oracle checks run inside top-level `verify` spans, which are not
//! workload time: [`Tracer::coverage`] leaves them out of the wall time it
//! divides by.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the spans that hold oracle checks rather than workload calls.
pub const VERIFY: &str = "verify";

struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// An open composite span (see [`Tracer::open`]).
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn push(&mut self, name: &'static str, parent: Option<&Open>, start: Instant) -> usize {
        let parent = parent.and_then(|p| p.idx);
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let start = start - self.origin;
        self.spans.push(Span {
            op,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as one call, returning its result and its wall time; the
    /// traced run also records it as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let idx = self.push(name, parent, start);
            self.spans[idx].end = end - self.origin;
        }
        (out, end - start)
    }

    /// Opens a composite span whose children are timed with
    /// [`Tracer::time`]; [`Tracer::close`] ends it and returns its wall time.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| self.push(name, None, start));
        Open { idx, start }
    }

    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end = end - self.origin;
        }
        end - open.start
    }

    /// Share of the workload's wall time spent inside top-level spans: from
    /// the first span's start to the last span's end, minus the time of
    /// the `verify` spans in between.
    pub fn coverage(&self) -> f64 {
        let top = || self.spans.iter().filter(|s| s.parent.is_none());
        let (Some(first), Some(last)) = (
            top().map(|s| s.start).min(),
            top().filter(|s| s.name != VERIFY).map(|s| s.end).max(),
        ) else {
            return 0.0;
        };
        let (mut covered, mut excluded) = (Duration::ZERO, Duration::ZERO);
        for s in top().filter(|s| s.end <= last) {
            if s.name == VERIFY {
                excluded += s.end - s.start;
            } else {
                covered += s.end - s.start;
            }
        }
        covered.as_secs_f64() / ((last - first).saturating_sub(excluded)).as_secs_f64()
    }

    /// Writes every span as one tab-separated line (times in nanoseconds
    /// since the tracer started).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        writeln!(w, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_top_level_spans_and_skips_verify_time() {
        let mut t = Tracer::new(true);
        let op = t.open("update");
        t.time("apply", Some(&op), || {
            std::thread::sleep(Duration::from_millis(20))
        });
        t.close(op);
        t.time(VERIFY, None, || {
            std::thread::sleep(Duration::from_millis(40))
        });
        t.time("tick", None, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        let c = t.coverage();
        assert!(c > 0.9 && c <= 1.0, "coverage {c}");
        // Children share their parent's operation id.
        assert_eq!(t.spans[0].op, t.spans[1].op);
        assert_ne!(t.spans[0].op, t.spans[3].op);
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, d) = t.time("pnn", None, || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(t.spans.is_empty());
    }
}
