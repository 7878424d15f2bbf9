//! The server's front end: one readiness-based, non-blocking loop for
//! every connection, with pipelined batches.
//!
//! A single acceptor/reader/writer loop runs over `poll(2)` — raw FFI on
//! the same pattern as the server's `signal()` handler, **no runtime
//! dependency** — multiplexing every client socket plus a self-pipe
//! waker. It needs `poll(2)`, so the server runs on unix targets only:
//!
//! * **Per-connection state machines** hold a read buffer (partial
//!   frames survive across readiness events; a slow-loris byte-at-a-time
//!   writer costs one buffer, not one thread), a write buffer (responses
//!   flush as `POLLOUT` allows), and the in-flight request count.
//! * **Pipelined batch mode**: a client may write many newline-JSON
//!   requests without waiting; each is admitted independently
//!   (`server::admit_request`) into the worker pool, queue, deadline
//!   and backpressure machinery, and responses are written back
//!   *as they complete* — possibly out of request order, matched by the
//!   request `id` the client chose.
//! * **Completions** flow from workers through a `Completions` queue
//!   plus a socketpair waker: a worker pushes the finished response and
//!   writes one byte; the loop wakes, matches the `(connection, token)`
//!   tag against its pending table, and queues the bytes. A pending
//!   entry that outlives `deadline + REPLY_GRACE` is answered with a
//!   synthesized `timeout` (and the late completion, should it still
//!   arrive, is dropped — never a duplicate response).
//! * **HTTP probes** (`GET /healthz`, `GET /metrics`, …) are answered on
//!   the same port as the JSON protocol.
//!
//! On graceful drain the loop (and its probes) stays alive, admission
//! refuses new solves, and the loop delivers every in-flight response
//! before exiting on shutdown.

#[cfg(unix)]
pub(crate) use imp::run;
#[cfg(unix)]
pub(crate) use imp::Completions;

#[cfg(not(unix))]
pub(crate) use stub::{run, Completions};

#[cfg(not(unix))]
mod stub {
    use crate::protocol::Response;
    use crate::server::Inner;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// Completion queue stub: the event loop needs `poll(2)`, so on
    /// non-unix targets `Server::start` refuses to run and nothing
    /// routes through here.
    pub(crate) struct Completions;

    impl Completions {
        pub(crate) fn push(&self, _conn: u64, _token: u64, _response: Response) {}
    }

    pub(crate) fn run(_inner: &Arc<Inner>, _listener: TcpListener) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the event loop needs poll(2), which this target lacks",
        ))
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use htd_core::{HtdError, Json};
    use parking_lot::Mutex;

    use crate::protocol::{Request, Response, Status};
    use crate::server::{
        admit_request, http_response_bytes, response_line, Admission, Inner, ReplySink, MAX_FRAME,
        REPLY_GRACE,
    };

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    type Nfds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Bound on buffered HTTP probe headers; a probe that sends more is
    /// not a probe.
    const MAX_HTTP_HEADER: usize = 64 << 10;
    /// Idle poll timeout when nothing is pending.
    const IDLE_POLL_MS: i32 = 50;

    /// Worker → loop completion queue: finished responses tagged with
    /// the `(connection, token)` they answer, plus a socketpair waker so
    /// a completion interrupts the loop's `poll` immediately.
    pub(crate) struct Completions {
        ready: Mutex<Vec<(u64, u64, Response)>>,
        /// Write end of the self-pipe; the loop polls the read end.
        waker: UnixStream,
    }

    impl Completions {
        pub(crate) fn push(&self, conn: u64, token: u64, response: Response) {
            self.ready.lock().push((conn, token, response));
            // one byte is enough to make the read end readable; a pipe
            // already full of unconsumed wakeups needs no more
            let _ = (&self.waker).write(&[1u8]);
        }

        fn drain(&self) -> Vec<(u64, u64, Response)> {
            std::mem::take(&mut *self.ready.lock())
        }
    }

    /// One connection's state machine.
    struct Conn {
        id: u64,
        stream: TcpStream,
        /// Bytes received but not yet framed; partial frames wait here.
        read_buf: Vec<u8>,
        /// Bytes queued for the peer; `written` is the flushed prefix.
        write_buf: Vec<u8>,
        written: usize,
        /// Requests admitted to workers and not yet answered.
        inflight: usize,
        /// Monotonic per-connection token tagging pending requests.
        next_token: u64,
        /// `Some(request line)` once a `GET`/`HEAD` arrived: the state
        /// machine is now consuming headers until the blank line.
        http: Option<String>,
        /// Close once the write buffer drains (protocol error, HTTP).
        closing: bool,
        /// Peer half-closed its write side; serve what is pending, then
        /// close. (Pipelining clients may shutdown-write after a batch.)
        eof: bool,
    }

    impl Conn {
        fn wants_write(&self) -> bool {
            self.written < self.write_buf.len()
        }

        fn queue(&mut self, bytes: &[u8]) {
            // compact the flushed prefix before growing
            if self.written > 0 {
                self.write_buf.drain(..self.written);
                self.written = 0;
            }
            self.write_buf.extend_from_slice(bytes);
        }

        /// Flushes as much of the write buffer as the socket accepts.
        fn flush(&mut self) -> std::io::Result<()> {
            while self.wants_write() {
                match (&self.stream).write(&self.write_buf[self.written..]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => self.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            if !self.wants_write() {
                self.write_buf.clear();
                self.written = 0;
            }
            Ok(())
        }
    }

    /// A queued request the loop is waiting on a worker for.
    struct Pending {
        expiry: Instant,
        id: Option<String>,
        fingerprint: Option<String>,
        received: Instant,
    }

    /// Runs the event loop until the server's shutdown flag flips. The
    /// loop owns the listener, every client socket, and the pending
    /// table; workers only ever touch the [`Completions`] queue.
    pub(crate) fn run(inner: &Arc<Inner>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let completions = Arc::new(Completions {
            ready: Mutex::new(Vec::new()),
            waker: wake_tx,
        });
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut pending: HashMap<(u64, u64), Pending> = HashMap::new();
        let metrics = &inner.metrics;

        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                // a kill (the in-process analog of `kill -9`) exits without
                // the final delivery pass: connections drop mid-frame and
                // clients observe a reset, exactly like a crashed process
                if !inner.killed.load(Ordering::SeqCst) {
                    drain_before_exit(inner, &completions, &mut conns, &mut pending);
                }
                return Ok(());
            }

            let mut fds = Vec::with_capacity(2 + conns.len());
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            fds.push(PollFd {
                fd: wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            let mut order = Vec::with_capacity(conns.len());
            for (id, c) in &conns {
                fds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: if c.wants_write() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    },
                    revents: 0,
                });
                order.push(*id);
            }

            // wake in time for the nearest pending expiry
            let now = Instant::now();
            let mut timeout_ms = IDLE_POLL_MS;
            for p in pending.values() {
                let left = p.expiry.saturating_duration_since(now).as_millis() as i32;
                timeout_ms = timeout_ms.min(left.saturating_add(1));
            }

            // SAFETY: `fds` is a live Vec of `repr(C)` `PollFd`s (the
            // layout of `struct pollfd`) and `nfds` is its length, so the
            // kernel reads and writes only inside it. Every fd in it
            // belongs to a socket this loop owns and keeps open.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms.max(0)) };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            metrics.loop_wakeups.fetch_add(1, Ordering::Relaxed);

            // self-pipe: swallow the wakeup bytes (completions are
            // delivered below regardless, so a missed byte is harmless)
            if fds[1].revents & POLLIN != 0 {
                let mut sink = [0u8; 256];
                while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            deliver_completions(&completions, &mut conns, &mut pending);

            // accept everything ready; each new socket joins the poll set
            if fds[0].revents & POLLIN != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
                            conns.insert(
                                id,
                                Conn {
                                    id,
                                    stream,
                                    read_buf: Vec::new(),
                                    write_buf: Vec::new(),
                                    written: 0,
                                    inflight: 0,
                                    next_token: 0,
                                    http: None,
                                    closing: false,
                                    eof: false,
                                },
                            );
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }

            // per-connection readiness
            let mut dead: Vec<u64> = Vec::new();
            for (i, id) in order.iter().enumerate() {
                let re = fds[2 + i].revents;
                if re == 0 {
                    continue;
                }
                let Some(c) = conns.get_mut(id) else { continue };
                if re & (POLLERR | POLLNVAL) != 0 {
                    dead.push(*id);
                    continue;
                }
                if re & POLLOUT != 0 && c.flush().is_err() {
                    dead.push(*id);
                    continue;
                }
                if re & (POLLIN | POLLHUP) != 0
                    && handle_readable(inner, c, &completions, &mut pending).is_err()
                {
                    dead.push(*id);
                }
            }

            expire_pending(inner, &mut conns, &mut pending, Instant::now());

            // salvage: a complete frame still buffered here means the
            // last read batch ended without its readiness event being
            // redelivered — level-triggered poll should make that
            // impossible, but a silent wedge is the one failure a
            // server cannot have, so enforce the invariant and count
            // every violation (the counter staying 0 is the proof)
            for c in conns.values_mut() {
                if !c.closing && c.read_buf.contains(&b'\n') {
                    metrics.loop_salvaged.fetch_add(1, Ordering::Relaxed);
                    process_frames(inner, c, &completions, &mut pending);
                }
            }
            // reap: hard errors, finished closers, drained half-closes
            for (id, c) in &mut conns {
                let drained = !c.wants_write();
                if (c.closing && drained) || (c.eof && drained && c.inflight == 0) {
                    dead.push(*id);
                }
            }
            dead.sort_unstable();
            dead.dedup();
            for id in dead {
                conns.remove(&id);
                // responses still in flight for this connection have no
                // destination; forget them so late completions drop
                pending.retain(|(cid, _), _| *cid != id);
            }
            metrics
                .loop_connections
                .store(conns.len() as i64, Ordering::Relaxed);
        }
    }

    /// Reads everything the socket has, then processes complete frames.
    /// `Err` means the connection is beyond saving (I/O error).
    fn handle_readable(
        inner: &Arc<Inner>,
        c: &mut Conn,
        completions: &Arc<Completions>,
        pending: &mut HashMap<(u64, u64), Pending>,
    ) -> Result<(), ()> {
        let mut scratch = [0u8; 64 << 10];
        loop {
            match (&c.stream).read(&mut scratch) {
                Ok(0) => {
                    c.eof = true;
                    break;
                }
                Ok(n) => c.read_buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        process_frames(inner, c, completions, pending);
        Ok(())
    }

    /// Consumes every complete `\n`-terminated frame in the read buffer,
    /// admitting requests and queueing immediate responses. Enforces
    /// [`MAX_FRAME`] on the unfinished remainder.
    fn process_frames(
        inner: &Arc<Inner>,
        c: &mut Conn,
        completions: &Arc<Completions>,
        pending: &mut HashMap<(u64, u64), Pending>,
    ) {
        while !c.closing {
            let Some(nl) = c.read_buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let line: Vec<u8> = c.read_buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line).into_owned();

            if let Some(request_line) = c.http.clone() {
                // consuming probe headers; the blank line ends them
                if line.trim().is_empty() {
                    let body = http_response_bytes(inner, &request_line);
                    c.queue(&body);
                    c.closing = true;
                }
                continue;
            }
            if line.starts_with("GET ") || line.starts_with("HEAD ") {
                c.http = Some(line);
                continue;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let _sp = htd_trace::span!("service.conn");
            match Json::parse(trimmed).and_then(|doc| Request::from_json(&doc)) {
                Err(e) => {
                    inner.metrics.count(Status::Error);
                    let r = Response::from_error(None, &e);
                    c.queue(&response_line(&r));
                }
                Ok(req) => {
                    let token = c.next_token;
                    c.next_token += 1;
                    let sink = ReplySink {
                        conn: c.id,
                        token,
                        completions: Arc::clone(completions),
                    };
                    match admit_request(inner, req, sink) {
                        Admission::Ready(r) => c.queue(&response_line(&r)),
                        Admission::Queued {
                            id,
                            fingerprint,
                            deadline,
                            received,
                        } => {
                            if c.inflight > 0 {
                                inner.metrics.pipelined.fetch_add(1, Ordering::Relaxed);
                            }
                            c.inflight += 1;
                            pending.insert(
                                (c.id, token),
                                Pending {
                                    expiry: deadline + REPLY_GRACE,
                                    id,
                                    fingerprint,
                                    received,
                                },
                            );
                        }
                    }
                }
            }
        }
        let cap = if c.http.is_some() {
            MAX_HTTP_HEADER
        } else {
            MAX_FRAME as usize
        };
        if !c.closing && c.read_buf.len() >= cap {
            // unfinished frame at the cap: structured refusal, then close
            inner.metrics.count(Status::Error);
            let e = HtdError::Parse(format!(
                "request frame exceeds {cap} bytes without a newline"
            ));
            c.queue(&response_line(&Response::from_error(None, &e)));
            c.read_buf.clear();
            c.closing = true;
        }
        let _ = c.flush();
    }

    /// Routes finished worker responses to their connections. A
    /// completion whose pending entry is gone (expired, or its
    /// connection died) is dropped — the loop never writes a response
    /// twice and never writes to a stranger.
    fn deliver_completions(
        completions: &Arc<Completions>,
        conns: &mut HashMap<u64, Conn>,
        pending: &mut HashMap<(u64, u64), Pending>,
    ) {
        for (conn_id, token, response) in completions.drain() {
            if pending.remove(&(conn_id, token)).is_none() {
                continue;
            }
            if let Some(c) = conns.get_mut(&conn_id) {
                c.inflight = c.inflight.saturating_sub(1);
                c.queue(&response_line(&response));
                let _ = c.flush();
            }
        }
    }

    /// Synthesizes `timeout` responses for pending requests whose reply
    /// grace has passed.
    fn expire_pending(
        inner: &Arc<Inner>,
        conns: &mut HashMap<u64, Conn>,
        pending: &mut HashMap<(u64, u64), Pending>,
        now: Instant,
    ) {
        let expired: Vec<(u64, u64)> = pending
            .iter()
            .filter(|(_, p)| now >= p.expiry)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let p = pending.remove(&key).expect("key just listed");
            inner.metrics.count(Status::Timeout);
            let mut r = Response::new(p.id, Status::Timeout);
            r.error = Some("no worker response before deadline".into());
            r.fingerprint = p.fingerprint;
            r.elapsed_ms = p.received.elapsed().as_secs_f64() * 1000.0;
            if let Some(c) = conns.get_mut(&key.0) {
                c.inflight = c.inflight.saturating_sub(1);
                c.queue(&response_line(&r));
                let _ = c.flush();
            }
        }
    }

    /// Final delivery pass on shutdown: the server only flips the flag
    /// once the queue is empty and no worker is mid-solve, but a worker
    /// may still be between "done" and "completion pushed" — give the
    /// stragglers the reply grace, then flush what we can and exit.
    fn drain_before_exit(
        inner: &Arc<Inner>,
        completions: &Arc<Completions>,
        conns: &mut HashMap<u64, Conn>,
        pending: &mut HashMap<(u64, u64), Pending>,
    ) {
        let start = Instant::now();
        loop {
            deliver_completions(completions, conns, pending);
            expire_pending(inner, conns, pending, Instant::now());
            for c in conns.values_mut() {
                let _ = c.flush();
            }
            let unflushed = conns.values().any(|c| c.wants_write());
            if (pending.is_empty() && !unflushed) || start.elapsed() > REPLY_GRACE {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        inner.metrics.loop_connections.store(0, Ordering::Relaxed);
    }
}
