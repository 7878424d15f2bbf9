//! What the service tests (and the CLI's store crash test) share: the
//! corpus the mixed and the pipelined load tests warm and replay,
//! loopback ports, HTTP probes with the `/metrics` samples read from
//! them, and the two variables that make the fault tests soaks.

// every test binary compiles its own copy and uses only a part of it
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use htd_hypergraph::{gen, io};
use htd_search::Objective;

/// Nine instances, each solved exactly in milliseconds: three grids and
/// three random graphs for tw, two grids and an adder for ghw.
pub fn corpus() -> Vec<(Objective, String)> {
    let mut c = Vec::new();
    for k in 3..=5 {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(k, k)),
        ));
    }
    for n in [14u32, 16, 18] {
        c.push((
            Objective::Treewidth,
            io::write_pace_gr(&gen::random_gnp(n, 0.4, u64::from(n))),
        ));
    }
    for k in 2..=3 {
        c.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    c.push((
        Objective::GeneralizedHypertreeWidth,
        io::write_hg(&gen::adder(3)),
    ));
    c
}

/// Reserves a loopback port by binding it and letting it go; the servers
/// rebind it with `SO_REUSEADDR`, which also lets the restart tests
/// reclaim a killed node's port without waiting out TIME_WAIT.
pub fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// `GET path` on `addr`: the status line and the body.
pub fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut body = String::new();
    let mut line = String::new();
    // skip headers
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 || line.trim().is_empty() {
            break;
        }
    }
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        body.push_str(&line);
    }
    (status, body)
}

/// The `/metrics` text of the node at `addr`.
pub fn scrape(addr: &str) -> String {
    http_get(addr, "/metrics").1
}

/// The name and labels of a sample line: everything before its value.
pub fn sample_key(line: &str) -> &str {
    let end = match line.rfind('}') {
        Some(close) => close + 1,
        None => line.find(' ').unwrap_or(line.len()),
    };
    &line[..end]
}

/// The value of the sample named `key` (name and labels) in a scrape.
pub fn sample(metrics: &str, key: &str) -> u64 {
    metrics
        .lines()
        .find(|l| sample_key(l) == key)
        .and_then(|l| l[key.len()..].trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {key} in:\n{metrics}"))
}

/// `HTD_SOAK_SECS`: with it set, a fault test runs its workload for
/// that many seconds.
pub fn soak_secs() -> Option<Duration> {
    let secs = std::env::var("HTD_SOAK_SECS").ok()?;
    Some(Duration::from_secs(
        secs.parse().expect("HTD_SOAK_SECS is a number of seconds"),
    ))
}

/// `HTD_SOAK_SEED`, else 42: the seed of a fault test's faults, kill
/// schedule or kill points.
pub fn soak_seed() -> u64 {
    std::env::var("HTD_SOAK_SEED").map_or(42, |s| s.parse().expect("HTD_SOAK_SEED is a u64"))
}
