//! A small blocking client for the newline-JSON protocol, used by
//! `htd query`, perfbench and the integration tests.
//!
//! Beyond the one-request-one-response helpers, [`Client::send`] /
//! [`Client::recv`] split the cycle for *pipelined* use: write a batch
//! of requests without waiting, then collect the responses (possibly
//! out of order — match them by the request id each send returned).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use htd_core::{HtdError, Json};
use htd_search::Objective;

use htd_query::AnswerMode;

use crate::protocol::{
    AnswerRequest, Command, InstanceFormat, Request, Response, SolveRequest, Status,
};

/// One connection to a running server.
pub struct Client {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Set when an I/O error interrupted a request mid-frame: the socket
    /// may hold a half-written request or a half-read response, so it
    /// must not carry another frame. The next request reconnects.
    poisoned: bool,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::over(addr, TcpStream::connect(addr)?)
    }

    /// Like [`Client::connect`], but bounds the TCP handshake: the
    /// cluster's failure detector and forwarder must never hang on a
    /// dead peer for the kernel's default connect timeout (minutes).
    pub fn connect_timeout(addr: &str, timeout: std::time::Duration) -> std::io::Result<Client> {
        use std::net::ToSocketAddrs;
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("{addr} resolves to no address"),
            )
        })?;
        Client::over(addr, TcpStream::connect_timeout(&sockaddr, timeout)?)
    }

    /// A client on a freshly dialled `stream` to `addr`.
    fn over(addr: &str, stream: TcpStream) -> std::io::Result<Client> {
        let _ = stream.set_nodelay(true);
        Ok(Client {
            addr: addr.to_string(),
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
            poisoned: false,
        })
    }

    /// Drops the existing socket and dials the server again. Any
    /// responses still in flight on the old connection are lost.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Client::connect(&self.addr)?;
        (self.reader, self.writer, self.poisoned) = (fresh.reader, fresh.writer, false);
        Ok(())
    }

    /// Bounds how long [`Client::recv`] (and the blocking helpers) wait
    /// for a response frame. `None` waits forever. The timeout does not
    /// survive [`Client::reconnect`].
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) {
        let _ = self.reader.get_ref().set_read_timeout(timeout);
    }

    fn heal(&mut self) -> Result<(), HtdError> {
        if self.poisoned {
            self.reconnect().map_err(|e| HtdError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Writes one request frame without waiting for the response
    /// (pipelining). Responses arrive via [`Client::recv`], matched by
    /// the request's id — the server may complete them out of send
    /// order.
    pub fn send(&mut self, req: &Request) -> Result<(), HtdError> {
        self.heal()?;
        let line = req.to_json().to_string();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| {
                self.poisoned = true;
                HtdError::Io(e.to_string())
            })
    }

    /// Reads one response frame (blocking until the server writes one).
    pub fn recv(&mut self) -> Result<Response, HtdError> {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| {
            self.poisoned = true;
            HtdError::Io(e.to_string())
        })?;
        if reply.is_empty() {
            self.poisoned = true;
            return Err(HtdError::Io("server closed the connection".into()));
        }
        Response::from_json(&Json::parse(reply.trim())?)
    }

    /// Sends one request and reads one response line.
    pub fn request(&mut self, req: &Request) -> Result<Response, HtdError> {
        self.send(req)?;
        self.recv()
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("c{}", self.next_id)
    }

    /// Builds a solve request with a fresh id (for pipelined batches);
    /// returns the request and its id.
    pub fn solve_request(
        &mut self,
        objective: Objective,
        format: InstanceFormat,
        instance: &str,
        deadline_ms: Option<u64>,
    ) -> (Request, String) {
        let id = self.fresh_id();
        (
            Request {
                id: Some(id.clone()),
                cmd: Command::Solve(SolveRequest {
                    objective,
                    format,
                    instance: instance.to_string(),
                    deadline_ms,
                    budget: None,
                    threads: None,
                    engines: None,
                    use_cache: true,
                    forwarded: false,
                }),
            },
            id,
        )
    }

    /// Solves `instance` with the given objective and deadline.
    pub fn solve(
        &mut self,
        objective: Objective,
        format: InstanceFormat,
        instance: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, HtdError> {
        let (req, _) = self.solve_request(objective, format, instance, deadline_ms);
        self.request(&req)
    }

    /// Answers the conjunctive query `query` (text or JSON format of
    /// `htd-query`) in the given mode. The response's `cached` flag
    /// reports whether the decomposition came from the server's shape
    /// cache; the answer itself is always evaluated fresh.
    pub fn answer(
        &mut self,
        query: &str,
        mode: AnswerMode,
        limit: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, HtdError> {
        let id = self.fresh_id();
        self.request(&Request {
            id: Some(id),
            cmd: Command::Answer(AnswerRequest {
                query: query.to_string(),
                mode,
                limit,
                deadline_ms,
                threads: None,
                engines: None,
                use_cache: true,
                forwarded: false,
            }),
        })
    }

    /// Pushes a verified certificate to a cluster peer (`put_cert`). The
    /// receiver re-verifies it with the oracle before admitting it; an
    /// `ok` status means it was accepted.
    pub fn put_cert(&mut self, push: crate::protocol::CertPush) -> Result<Response, HtdError> {
        let id = self.fresh_id();
        self.request(&Request {
            id: Some(id),
            cmd: Command::PutCert(push),
        })
    }

    /// Like [`Client::solve`], but retries backpressure rejections with
    /// jittered exponential backoff, honoring the server's
    /// `retry_after_ms` hint as the base delay. Non-`rejected` responses
    /// (including errors) return immediately; after `max_retries`
    /// rejections the last rejection is returned as-is so the caller
    /// still sees the backpressure signal.
    ///
    /// A transport error mid-request leaves a half-written frame (or a
    /// half-read response) on the socket, so the retry **reconnects
    /// first** — re-sending on the poisoned connection would splice two
    /// frames together and desynchronize every later exchange.
    pub fn solve_with_retry(
        &mut self,
        objective: Objective,
        format: InstanceFormat,
        instance: &str,
        deadline_ms: Option<u64>,
        max_retries: u32,
        seed: u64,
    ) -> Result<Response, HtdError> {
        let mut attempt = 0u32;
        loop {
            match self.solve(objective, format, instance, deadline_ms) {
                Ok(r) if r.status != Status::Rejected || attempt >= max_retries => return Ok(r),
                Ok(r) => {
                    let hint = std::time::Duration::from_millis(r.retry_after_ms.unwrap_or(50));
                    std::thread::sleep(htd_resilience::backoff_with_jitter(
                        hint,
                        attempt,
                        seed,
                        std::time::Duration::from_secs(2),
                    ));
                }
                Err(HtdError::Io(_)) if attempt < max_retries => {
                    // poisoned transport: dial fresh before re-sending
                    self.reconnect().map_err(|e| HtdError::Io(e.to_string()))?;
                    std::thread::sleep(htd_resilience::backoff_with_jitter(
                        std::time::Duration::from_millis(50),
                        attempt,
                        seed,
                        std::time::Duration::from_secs(2),
                    ));
                }
                Err(e) => return Err(e),
            }
            attempt += 1;
        }
    }

    /// Liveness probe; `Ok(())` iff the server answered `pong`.
    pub fn ping(&mut self) -> Result<(), HtdError> {
        let id = self.fresh_id();
        let r = self.request(&Request {
            id: Some(id),
            cmd: Command::Ping,
        })?;
        if r.status == Status::Pong {
            Ok(())
        } else {
            Err(HtdError::Io(format!(
                "unexpected status {}",
                r.status.name()
            )))
        }
    }

    /// Metrics snapshot as JSON.
    pub fn stats(&mut self) -> Result<Json, HtdError> {
        let id = self.fresh_id();
        let r = self.request(&Request {
            id: Some(id),
            cmd: Command::Stats,
        })?;
        r.stats
            .ok_or_else(|| HtdError::Io("stats response without snapshot".into()))
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), HtdError> {
        let id = self.fresh_id();
        self.request(&Request {
            id: Some(id),
            cmd: Command::Shutdown,
        })
        .map(|_| ())
    }
}
