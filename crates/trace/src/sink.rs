//! Where stamped records go: nowhere, a JSONL stream, or an in-memory
//! ring buffer for tests and post-hoc analysis.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Record;

/// A destination for trace records. `record` is called under the
/// tracer's stamp lock, so implementations need no internal ordering.
pub trait Sink: Send {
    /// Accepts one stamped record.
    fn record(&mut self, r: &Record);
    /// Pushes any buffered output to its destination.
    fn flush(&mut self) {}
}

/// Discards everything.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _r: &Record) {}
}

/// Writes one JSON object per line to any `Write`.
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl JsonlSink<BufWriter<File>> {
    /// A sink writing to a freshly created (truncated) file.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer (flushed).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, r: &Record) {
        // A failed write cannot be surfaced from the hot path; drop the
        // line rather than poison the solve.
        let _ = writeln!(self.out, "{}", r.to_json_line());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Keeps the last `capacity` records in memory. Clone the `Arc` and keep
/// one end while the tracer owns the other, then read `records()` after
/// the solve.
#[derive(Debug)]
pub struct RingBuffer {
    inner: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    buf: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

impl RingBuffer {
    /// A shared ring holding at most `capacity` records.
    pub fn new(capacity: usize) -> Arc<RingBuffer> {
        Arc::new(RingBuffer {
            inner: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        })
    }

    /// A snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        self.inner.lock().unwrap().buf.iter().cloned().collect()
    }

    /// How many records were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

impl Sink for Arc<RingBuffer> {
    fn record(&mut self, r: &Record) {
        let mut st = self.inner.lock().unwrap();
        if st.buf.len() == st.capacity {
            st.buf.pop_front();
            st.dropped += 1;
        }
        st.buf.push_back(r.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rec(seq: u64) -> Record {
        Record {
            seq,
            t_us: seq * 10,
            event: Event::NodeExpanded {
                worker: "w",
                count: seq,
            },
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"v\":3,\"seq\":0,"));
        assert!(lines[1].starts_with("{\"v\":3,\"seq\":1,"));
        assert!(text.ends_with('\n'), "stream must end with a newline");
        // every line is a self-contained object
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = RingBuffer::new(3);
        let mut sink = Arc::clone(&ring);
        for i in 0..5 {
            sink.record(&rec(i));
        }
        let got = ring.records();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
    }
}
