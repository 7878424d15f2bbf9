//! Loop-driven protocol fuzzing against the server's event loop: seeded
//! garbage, frames split at every byte boundary, and oversize floods. The server must answer every terminated frame
//! with a structured response (or hang up after a structured protocol
//! error) and must **never panic or hang** — every socket here carries
//! a read timeout, and each phase ends by proving the server still
//! answers `ping`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use htd_core::Json;
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    AnswerMode, Client, ClusterConfig, InstanceFormat, PeerSpec, ServeOptions, Server, Status,
};

fn start() -> (Server, String) {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_mb: 8,
        queue_capacity: 32,
        default_deadline_ms: 5_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// Reads one line; `None` means the server hung up (allowed), otherwise
/// the line must be a structured JSON response carrying a status.
fn read_structured(reader: &mut BufReader<TcpStream>) -> Option<Json> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => {
            let doc = Json::parse(line.trim())
                .unwrap_or_else(|e| panic!("unstructured reply {line:?}: {e:?}"));
            assert!(
                doc.get("status").and_then(|v| v.as_str()).is_some(),
                "reply without status: {line:?}"
            );
            Some(doc)
        }
        // a read timeout here would mean the server hung — fail loudly
        Err(e) => panic!("server neither answered nor hung up: {e}"),
    }
}

/// Every prefix/suffix split of a valid frame, delivered in two writes
/// with a flush and a pause in between, must produce exactly the same
/// response as the unsplit frame — partial-frame buffering must never
/// truncate, duplicate, or merge frames.
#[test]
fn split_at_every_byte_preserves_framing() {
    let (server, addr) = start();
    // warm the solve used below so split requests answer instantly
    let grid = io::write_pace_gr(&gen::grid_graph(3, 3));
    let mut warm = Client::connect(&addr).unwrap();
    assert_eq!(
        warm.solve(Objective::Treewidth, InstanceFormat::Auto, &grid, None)
            .unwrap()
            .status,
        Status::Ok
    );

    let ping = "{\"cmd\":\"ping\",\"id\":\"p\"}\n".to_string();
    let solve = {
        let (req, _) = warm.solve_request(Objective::Treewidth, InstanceFormat::Auto, &grid, None);
        format!("{}\n", req.to_json())
    };
    for (frame, want) in [(&ping, "pong"), (&solve, "ok")] {
        for cut in 0..frame.len() {
            let mut s = connect(&addr);
            s.write_all(&frame.as_bytes()[..cut]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            s.write_all(&frame.as_bytes()[cut..]).unwrap();
            let mut reader = BufReader::new(s);
            let doc = read_structured(&mut reader).expect("a terminated frame gets a reply");
            assert_eq!(
                doc.get("status").and_then(|v| v.as_str()),
                Some(want),
                "frame split at byte {cut}"
            );
        }
    }
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}

/// Seeded garbage — random bytes, random lengths, always terminated by
/// a newline or EOF — must only ever produce structured errors or a
/// clean hangup. 150 shapes.
#[test]
fn seeded_garbage_never_panics_or_hangs() {
    let (server, addr) = start();
    let mut x = 0x0dd_b1a5ed_u64 ^ 1;
    for i in 0..150 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = (x >> 33) as usize % 4096;
        let mut bytes: Vec<u8> = (0..len)
            .map(|j| {
                let z = x.wrapping_add(j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (z >> 56) as u8
            })
            // newline bytes inside would just split the garbage into
            // more garbage frames; strip them so each shape is one frame
            .filter(|&b| b != b'\n')
            .collect();
        bytes.push(b'\n');
        let mut s = connect(&addr);
        s.write_all(&bytes).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut reader = BufReader::new(s);
        if let Some(doc) = read_structured(&mut reader) {
            assert_eq!(
                doc.get("status").and_then(|v| v.as_str()),
                Some("error"),
                "garbage shape {i} must answer a structured error"
            );
            assert_eq!(doc.get("code").and_then(|v| v.as_u64()), Some(2));
        }
    }
    // after 150 garbage shapes the server is still healthy
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
}

/// Frames that parse but ask for too much or carry a mistyped member: an
/// instance header over the vertex cap (which once made the server
/// allocate 128 GiB and abort), a numeric member that is not a
/// non-negative integer and a `cache` that is not a string each get a
/// structured code-2 error, and the server keeps answering.
#[test]
fn oversized_headers_and_mistyped_numbers_get_structured_errors() {
    let (server, addr) = start();
    let frames = [
        r#"{"id":"h1","cmd":"solve","objective":"tw","instance":"p tw 4294967295 0"}"#,
        r#"{"id":"h2","cmd":"solve","objective":"ghw","instance":"p edge 4294967295 0"}"#,
        r#"{"id":"n1","cmd":"solve","objective":"tw","instance":"p tw 1 0","deadline_ms":"200"}"#,
        r#"{"id":"n2","cmd":"answer","query":"Q() :- R(x).\nR: 1 .","threads":-1}"#,
        r#"{"id":"s1","cmd":"solve","objective":"tw","instance":"p tw 1 0","cache":false}"#,
    ];
    for frame in frames {
        let mut s = connect(&addr);
        s.write_all(format!("{frame}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(s);
        let doc = read_structured(&mut reader).expect("a structured reply");
        assert_eq!(
            doc.get("status").and_then(|v| v.as_str()),
            Some("error"),
            "{frame}"
        );
        assert_eq!(doc.get("code").and_then(|v| v.as_u64()), Some(2), "{frame}");
        let msg = doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or_default();
        let named = ["4294967295", "deadline_ms", "threads", "cache"];
        assert!(named.iter().any(|n| msg.contains(n)), "{frame}: {msg}");
        Client::connect(&addr).unwrap().ping().unwrap();
    }
    Client::connect(&addr).unwrap().shutdown().unwrap();
    server.wait();
}

/// Inputs that parse but whose derived structures would not fit: one
/// atom over 16384 vertices asked for treewidth (its primal graph as a
/// cache key is K_16384, some 280 GB of vertex sets) and, on a cluster
/// node, a query over the vertex cap (routing would build its hypergraph
/// on the event loop). Admission refuses both with code 6 ahead of the
/// queue: they are answered while the one worker is busy and the one
/// queue slot is taken, where anything queued would be `rejected`.
#[test]
fn oversized_keys_and_queries_are_refused_at_admission() {
    let peer = PeerSpec {
        id: "b".into(),
        addr: "127.0.0.1:1".into(),
    };
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue_capacity: 1,
        log: false,
        cluster: Some(ClusterConfig::new("a", vec![peer])),
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let m = server.metrics();
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let mut busy = Client::connect(&addr).unwrap();
    let hard = io::write_pace_gr(&gen::random_gnp(60, 0.5, 1));
    let (req, _) = busy.solve_request(
        Objective::Treewidth,
        InstanceFormat::Auto,
        &hard,
        Some(2_000),
    );
    busy.send(&req).unwrap();
    wait_for("the busy solve", &|| m.inflight.load(Ordering::SeqCst) == 1);
    let mut queued = Client::connect(&addr).unwrap();
    let clique = io::write_pace_gr(&gen::complete_graph(5));
    let (req, _) = queued.solve_request(
        Objective::Treewidth,
        InstanceFormat::Auto,
        &clique,
        Some(50),
    );
    queued.send(&req).unwrap();
    wait_for("the queued solve", &|| {
        m.queue_depth.load(Ordering::SeqCst) == 1
    });

    let mut c = Client::connect(&addr).unwrap();
    let vertices: Vec<String> = (0..16_384).map(|v| format!("v{v}")).collect();
    let wide = format!("e({}).", vertices.join(","));
    let refused = c
        .solve(Objective::Treewidth, InstanceFormat::Hg, &wide, None)
        .unwrap();
    let chain: Vec<String> = (0..16_384)
        .map(|i| format!("R(v{i}, v{})", i + 1))
        .collect();
    let query = format!("Q() :- {}.\nR: 1 2 .", chain.join(", "));
    let refused_query = c.answer(&query, AnswerMode::Count, None, None).unwrap();
    for (r, named) in [
        (refused, "primal graph"),
        (refused_query, "16385 variables"),
    ] {
        assert_eq!(r.status, Status::Error, "{r:?}");
        assert_eq!(r.code, Some(6), "{r:?}");
        let msg = r.error.as_deref().unwrap_or_default();
        assert!(msg.contains(named), "{msg}");
    }
    c.ping().unwrap();
    assert_eq!(m.cluster_forwards.load(Ordering::SeqCst), 0);
    drop((busy.recv(), queued.recv()));
    c.shutdown().unwrap();
    server.wait();
}

/// Frames beyond `MAX_FRAME` with no newline in sight: the server must
/// cut the flood off with a structured protocol error after a bounded
/// number of bytes and hang up, for JSON-looking and binary-looking
/// floods alike.
#[test]
fn oversize_floods_get_bounded_structured_errors() {
    let (server, addr) = start();
    for fill in [b'x', b'{'] {
        let mut s = connect(&addr);
        s.set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let chunk = vec![fill; 1 << 20];
        for _ in 0..12 {
            // once the server errors out and closes, writes fail —
            // that is the bounded cutoff working
            if s.write_all(&chunk).is_err() {
                break;
            }
        }
        let mut reader = BufReader::new(s);
        let doc = read_structured(&mut reader).expect("flood must be answered before the hangup");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(doc.get("code").and_then(|v| v.as_u64()), Some(2));
        let msg = doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string();
        assert!(msg.contains("frame exceeds"), "{msg}");
        // and then the connection is gone
        let mut rest = String::new();
        let mut inner = reader.into_inner();
        let _ = inner.set_read_timeout(Some(Duration::from_secs(10)));
        // an Err means reset by the server: equally closed
        if let Ok(n) = inner.read_to_string(&mut rest) {
            assert_eq!(n, 0, "data after the protocol error: {rest:?}");
        }
    }
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.wait();
}
