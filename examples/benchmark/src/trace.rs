//! The traced run's instruments: spans recorded around the benchmark's own
//! calls into each layer, and a [`StoreIo`] wrapper that times every store
//! operation.
//!
//! Spans live in memory and are written out once, after the run. Parents
//! come from a stack of open spans, so a store operation lands under the
//! sweep call that issued it.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use serde_json::{Map, Value};
use stash::store::io::{StdFs, StoreIo};

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `grid.pass` or `io.append`.
    pub name: &'static str,
    /// Start offset, ns.
    pub start_ns: u64,
    /// End offset, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The cell (or pass) the call served, when it served one.
    pub cell: Option<u64>,
    /// Bytes moved, for store operations.
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

/// An in-memory span recorder for one (single-threaded) traced run.
/// Cloning shares the same log.
#[derive(Debug, Clone)]
pub struct Tracer(Rc<RefCell<Log>>);

fn offset_ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer(Rc::new(RefCell::new(Log {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Runs `f` inside a span named `name`; spans opened within `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, cell: Option<u64>, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut log = self.0.borrow_mut();
            let start_ns = offset_ns(log.epoch, Instant::now());
            let parent = log.open.last().copied();
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                cell,
                bytes: 0,
            });
            let index = log.spans.len() - 1;
            log.open.push(index);
            index
        };
        let out = f();
        let mut log = self.0.borrow_mut();
        log.open.pop();
        let end_ns = offset_ns(log.epoch, Instant::now());
        log.spans[index].end_ns = end_ns;
        out
    }

    /// Records a finished leaf span under the innermost open span.
    fn leaf(&self, name: &'static str, start: Instant, bytes: u64) {
        let end = Instant::now();
        let mut log = self.0.borrow_mut();
        let parent = log.open.last().copied();
        let span = Span {
            name,
            start_ns: offset_ns(log.epoch, start),
            end_ns: offset_ns(log.epoch, end),
            parent,
            cell: None,
            bytes,
        };
        log.spans.push(span);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// Time since the tracer started.
    pub fn elapsed(&self) -> Duration {
        self.0.borrow().epoch.elapsed()
    }
}

/// Runs `f`, timing it, inside a span when a tracer is attached.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    cell: Option<u64>,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, cell, f),
        None => f(),
    };
    (out, t0.elapsed())
}

/// Runs `f` inside a span when a tracer is attached.
pub fn within<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    cell: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, cell, f),
        None => f(),
    }
}

/// [`StdFs`] with every operation recorded as an `io.*` span: identical
/// bytes, fsyncs, renames and atomicity, plus timing.
#[derive(Debug)]
pub struct TimedIo {
    inner: StdFs,
    tracer: Tracer,
}

impl TimedIo {
    /// Times operations into `tracer`.
    pub fn new(tracer: Tracer) -> TimedIo {
        TimedIo {
            inner: StdFs::new(),
            tracer,
        }
    }

    fn op<R>(&self, name: &'static str, bytes: u64, f: impl FnOnce(&StdFs) -> R) -> R {
        let start = Instant::now();
        let out = f(&self.inner);
        self.tracer.leaf(name, start, bytes);
        out
    }
}

impl StoreIo for TimedIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.read(path);
        let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        self.tracer.leaf("io.read", start, bytes);
        out
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op("io.write", bytes.len() as u64, |fs| {
            fs.write_atomic(path, bytes)
        })
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op("io.append", bytes.len() as u64, |fs| fs.append(path, bytes))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.op("io.other", 0, |fs| fs.list(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op("io.other", 0, |fs| fs.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op("io.other", 0, |fs| fs.remove(path))
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op("io.other", 0, |fs| fs.create_dir_all(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.op("io.other", 0, |fs| fs.exists(path))
    }
}

/// The store backend for a run: timed when traced, plain [`StdFs`]
/// otherwise.
pub fn store_io(tracer: Option<&Tracer>) -> Box<dyn StoreIo> {
    match tracer {
        Some(t) => Box::new(TimedIo::new(t.clone())),
        None => Box::new(StdFs::new()),
    }
}

/// The spans as a JSON document (`stash-benchmark-trace-v1`).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            let mut m = Map::new();
            m.insert("name".into(), Value::String(s.name.into()));
            m.insert("start_ns".into(), serde_json::json!(s.start_ns));
            m.insert("end_ns".into(), serde_json::json!(s.end_ns));
            m.insert(
                "parent".into(),
                s.parent
                    .map_or(Value::Null, |p| serde_json::json!(p as u64)),
            );
            m.insert(
                "cell".into(),
                s.cell.map_or(Value::Null, |c| serde_json::json!(c)),
            );
            if s.bytes > 0 {
                m.insert("bytes".into(), serde_json::json!(s.bytes));
            }
            Value::Object(m)
        })
        .collect();
    let mut doc = Map::new();
    doc.insert(
        "schema".into(),
        Value::String("stash-benchmark-trace-v1".into()),
    );
    doc.insert("workload".into(), Value::String(workload.into()));
    doc.insert("seed".into(), serde_json::json!(seed));
    doc.insert("spans".into(), Value::Array(rows));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::new();
        t.span("outer", Some(7), || {
            t.span("inner", None, || {
                std::thread::sleep(Duration::from_millis(1))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].cell, Some(7));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].ns() >= spans[1].ns());
        assert!(spans[1].ns() >= 1_000_000);
    }

    #[test]
    fn timed_io_records_each_operation_under_its_caller() {
        let dir = crate::out_dir().join(format!("tmp/io-test-{}", std::process::id()));
        let t = Tracer::new();
        let io = TimedIo::new(t.clone());
        t.span("caller", None, || {
            io.create_dir_all(&dir).expect("mkdir");
            io.write_atomic(&dir.join("r"), b"abc").expect("write");
            io.append(&dir.join("j"), b"xy").expect("append");
            assert_eq!(io.read(&dir.join("r")).expect("read"), b"abc");
        });
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.bytes))
            .collect();
        assert_eq!(
            names,
            vec![
                ("caller", None, 0),
                ("io.other", Some(0), 0),
                ("io.write", Some(0), 3),
                ("io.append", Some(0), 2),
                ("io.read", Some(0), 3),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
