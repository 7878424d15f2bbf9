//! Pipelined newline-JSON connections driven from one generator thread.
//!
//! The generator encodes and writes requests; one receiver thread per
//! connection reads and decodes replies and hands them back over a
//! channel. Every request records when it was due, when encoding started
//! and ended, and when its reply was read and decoded.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use htd_core::Json;
use htd_service::protocol::{Request, Response};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Hit,
    Miss,
    Answer,
}

/// One request as sent and received.
pub struct Flight {
    pub kind: Kind,
    /// Index into the instance or query list of its kind.
    pub item: usize,
    /// When it was due: the schedule in an open loop, the send otherwise.
    pub scheduled: Instant,
    pub send_start: Instant,
    pub encoded: Instant,
    pub read_done: Option<Instant>,
    pub decoded: Option<Instant>,
    pub response: Option<Response>,
    /// Sent by a closed-loop phase.
    pub closed_loop: bool,
}

impl Flight {
    /// Milliseconds from due to decoded reply.
    pub fn latency_ms(&self) -> Option<f64> {
        Some(self.decoded?.duration_since(self.scheduled).as_secs_f64() * 1e3)
    }
}

/// A reply handed back by a receiver: request index (`None` when the
/// reply matched no request), read and decode times, and the reply.
type Got = (Option<usize>, Instant, Instant, Result<Response, String>);

fn register(ids: &mut HashMap<String, usize>, idx: usize) {
    ids.insert(format!("r{idx}"), idx);
}

fn receiver(stream: TcpStream, sent: mpsc::Receiver<usize>, done: mpsc::Sender<Got>) {
    let mut reader = BufReader::new(stream);
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut line = String::new();
    loop {
        // read only while a request is outstanding on this connection
        if ids.is_empty() {
            match sent.recv() {
                Ok(idx) => register(&mut ids, idx),
                Err(_) => return,
            }
        }
        while let Ok(idx) = sent.try_recv() {
            register(&mut ids, idx);
        }
        line.clear();
        let read = reader.read_line(&mut line);
        let read_done = Instant::now();
        if !matches!(read, Ok(n) if n > 0) {
            return;
        }
        let parsed = Json::parse(line.trim())
            .map_err(|e| format!("{e:?}"))
            .and_then(|j| Response::from_json(&j).map_err(|e| e.to_string()));
        let decoded = Instant::now();
        let idx = match &parsed {
            Ok(Response { id: Some(id), .. }) => loop {
                // a reply can overtake the registration of its request,
                // which is always sent before the request is written
                if let Some(idx) = ids.remove(id) {
                    break Some(idx);
                }
                match sent.recv() {
                    Ok(idx) => register(&mut ids, idx),
                    Err(_) => break None,
                }
            },
            _ => None,
        };
        if done.send((idx, read_done, decoded, parsed)).is_err() {
            return;
        }
    }
}

pub struct Pipe {
    writers: Vec<TcpStream>,
    sent: Vec<mpsc::Sender<usize>>,
    done: mpsc::Receiver<Got>,
    flights: Vec<Flight>,
    completed: usize,
    /// Replies that matched no request.
    unmatched: usize,
}

impl Pipe {
    /// Connects to each address, with a receiver thread per connection
    /// spawned in `scope`.
    pub fn open<'scope>(scope: &'scope std::thread::Scope<'scope, '_>, addrs: &[String]) -> Pipe {
        let (done_tx, done) = mpsc::channel();
        let mut writers = Vec::new();
        let mut sent = Vec::new();
        for addr in addrs {
            let stream = TcpStream::connect(addr).expect("connect to the server");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let read_half = stream.try_clone().expect("clone the stream");
            let (tx, rx) = mpsc::channel();
            let done_tx = done_tx.clone();
            scope.spawn(move || receiver(read_half, rx, done_tx));
            writers.push(stream);
            sent.push(tx);
        }
        Pipe {
            writers,
            sent,
            done,
            flights: Vec::new(),
            completed: 0,
            unmatched: 0,
        }
    }

    /// Encodes the request `make` builds for id `r<index>` and writes it
    /// to connection `conn`.
    pub fn send(
        &mut self,
        conn: usize,
        (kind, item): (Kind, usize),
        scheduled: Instant,
        closed_loop: bool,
        make: impl FnOnce(String) -> Request,
    ) {
        let idx = self.flights.len();
        let send_start = Instant::now();
        let mut line = make(format!("r{idx}")).to_json().to_string();
        line.push('\n');
        let encoded = Instant::now();
        self.flights.push(Flight {
            kind,
            item,
            scheduled,
            send_start,
            encoded,
            read_done: None,
            decoded: None,
            response: None,
            closed_loop,
        });
        self.sent[conn].send(idx).expect("receiver alive");
        self.writers[conn]
            .write_all(line.as_bytes())
            .expect("write a request");
    }

    fn complete(&mut self, (idx, read_done, decoded, parsed): Got) {
        self.completed += 1;
        match (idx.and_then(|i| self.flights.get_mut(i)), parsed) {
            (Some(f), Ok(r)) => {
                f.read_done = Some(read_done);
                f.decoded = Some(decoded);
                f.response = Some(r);
            }
            _ => self.unmatched += 1,
        }
    }

    /// Takes every reply already in, without blocking.
    pub fn poll(&mut self) {
        while let Ok(got) = self.done.try_recv() {
            self.complete(got);
        }
    }

    /// Waits for one reply; `false` when none came within `timeout`.
    pub fn wait_one(&mut self, timeout: Duration) -> bool {
        match self.done.recv_timeout(timeout) {
            Ok(got) => {
                self.complete(got);
                true
            }
            Err(_) => false,
        }
    }

    /// Requests sent and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.flights.len() - self.completed
    }

    /// Waits until every request is answered or `timeout` passes with
    /// none, then closes the connections.
    pub fn finish(mut self, timeout: Duration) -> (Vec<Flight>, usize) {
        while self.outstanding() > 0 && self.wait_one(timeout) {}
        drop(self.sent);
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        (self.flights, self.unmatched)
    }
}
