//! The documented exit-code contract of the `htd` binary: parse errors
//! exit 2, invalid instances 3, unsupported requests 4, io failures 5,
//! resource exhaustion 6, and success 0 — checked against the real
//! executable.

use std::io::Write;
use std::process::Command;

fn htd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_htd"))
        .args(args)
        .output()
        .expect("run htd")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("htd-exit-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

#[test]
fn success_is_exit_zero() {
    let file = write_temp("ok.gr", "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n");
    let out = htd(&["tw", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("treewidth 2"));
    let _ = std::fs::remove_file(file);
}

#[test]
fn an_instance_without_vertices_decomposes_at_width_zero() {
    let file = write_temp("no_vertices.gr", "p tw 0 0\n");
    let path = file.to_str().unwrap();
    for format in ["td", "dot", "cert"] {
        let out = htd(&["decompose", path, "--format", format]);
        assert_eq!(out.status.code(), Some(0), "{format}: {out:?}");
    }
    let cert = htd(&["decompose", path, "--format", "cert"]);
    let cert_file = write_temp("no_vertices.cert", &String::from_utf8_lossy(&cert.stdout));
    let out = htd(&["check", cert_file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = htd(&["info", path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains("ghw:        ≥ 0 "), "{info}");
    // GYO reduces a hypergraph without edges to nothing
    assert!(info.contains("acyclic:    true"), "{info}");
    let _ = std::fs::remove_file(file);
    let _ = std::fs::remove_file(cert_file);
}

#[test]
fn parse_error_is_exit_two() {
    let names: Vec<String> = (0..=16_384).map(|v| format!("v{v}")).collect();
    let wide_hg = format!("e1({}).\n", names.join(","));
    // an atom list without atoms (what `htd gen nosuchname > x` leaves
    // behind) is no instance, not one of width 0, whatever the file is
    // called; a second header would restart a graph or a CSP and drop what
    // came before it; an instance over the 16384-vertex cap is refused
    // before anything is allocated for it, also as a CSP or a
    // certificate's instance; a number too wide for its 32-bit field is
    // refused, not truncated
    for (name, text, cmd) in [
        ("bad.gr", "p tw not-a-number\n", "tw"),
        ("empty.hg", "", "ghw"),
        ("comments.hg", "% only a comment\n\n", "ghw"),
        ("empty.txt", "", "tw"),
        ("comments.hyper", "% only a comment\n\n", "ghw"),
        (
            "two_headers.col",
            "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\np edge 2 1\ne 1 2\n",
            "tw",
        ),
        (
            "two_headers.csp",
            "csp 2 2\ncon a 0 : 0 ;\ncon b 0 : 1 ;\ncsp 2 2\n",
            "solve",
        ),
        ("huge.csp", "csp 16385 2\n", "solve"),
        ("huge.gr", "p tw 4294967295 0\n", "info"),
        ("huge.col", "p edge 4294967295 0\n", "tw"),
        ("wide.hg", wide_hg.as_str(), "ghw"),
        (
            "wide.json",
            "{\"schema\":1,\"objective\":\"tw\",\"num_vertices\":4294967299,\
             \"edges\":[[4294967296,1]],\"claimed_width\":1,\
             \"decomposition\":{\"bags\":[[0,1,2]],\"parent\":[null]}}\n",
            "check",
        ),
        (
            "huge.json",
            "{\"objective\":\"tw\",\"num_vertices\":4294967295,\"edges\":[[0,1]],\
             \"claimed_width\":1,\"decomposition\":{\"bags\":[[0,1]],\"parent\":[null]}}",
            "check",
        ),
    ] {
        let file = write_temp(name, text);
        let out = htd(&[cmd, file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("parse"));
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn gen_output_is_read_by_its_content_whatever_the_extension() {
    // `gen` writes DIMACS; its `p edge` header picks the graph parser
    // even in a file named like a hyperedge list
    let out = htd(&["gen", "queen5_5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let file = write_temp("queen5.hg", &String::from_utf8_lossy(&out.stdout));
    let out = htd(&["tw", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("treewidth 18"));
    let _ = std::fs::remove_file(file);
}

/// Every file-reading subcommand on an empty file, on an empty stdin, on
/// its own format cut at a line boundary, and on another subcommand's
/// format: each exits with its documented code and never panics (101).
#[test]
fn bad_inputs_exit_with_their_documented_codes() {
    let graph = ("g.gr", "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n");
    let hyper = ("h.hg", "e1(a,b,c),\ne2(a,e,f),\ne3(c,d,e).\n");
    let cert = (
        "c.json",
        "{\"schema\":1,\n\"objective\":\"tw\",\n\"num_vertices\":4,\n\
         \"edges\":[[0,1],[0,3],[1,2],[2,3]],\n\"claimed_width\":2,\n\
         \"decomposition\":{\"bags\":[[0,2,3],[0,1,2]],\"parent\":[1,null]}}\n",
    );
    let csp = (
        "c.csp",
        "csp 3 2\ncon a 0 1 : 0 1 ; 1 0 ;\ncon b 1 2 : 0 1 ; 1 0 ;\n",
    );
    let query = (
        "q.cq",
        "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .\n",
    );
    // (subcommand, its format, the code of its cut file, another format)
    let cells = [
        ("info", graph, 2, cert),
        ("tw", graph, 2, csp),
        // `.hg` declares no count a cut could violate: the first atoms
        // are a smaller, well-formed instance
        ("ghw", hyper, 0, query),
        ("hw", hyper, 0, csp),
        ("decompose", graph, 2, query),
        ("check", cert, 2, graph),
        // nor does a CSP: its header fixes variables and domain only, and
        // the constraint lines left are a well-formed CSP
        ("solve", csp, 0, hyper),
        // the rule survives the cut and names relation S, whose data was
        // cut away: an invalid instance, not an unparseable one
        ("answer", query, 3, csp),
    ];
    for (cmd, (name, text), cut_code, (other_name, other_text)) in cells {
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let cut = lines[..lines.len().div_ceil(2)].concat();
        for (label, file_name, contents, code) in [
            ("empty", name, "", 2),
            ("cut", name, cut.as_str(), cut_code),
            ("other format", other_name, other_text, 2),
        ] {
            let file = write_temp(&format!("{cmd}-{file_name}"), contents);
            let out = htd(&[cmd, file.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(code), "{cmd} on {label}: {out:?}");
            let _ = std::fs::remove_file(file);
        }
        // `output()` gives the child an empty stdin
        let out = htd(&[cmd, "-"]);
        assert_eq!(out.status.code(), Some(2), "{cmd} on empty stdin: {out:?}");
    }
}

#[test]
fn invalid_instance_is_exit_three() {
    // vertex 3 is isolated: the binary-edge hypergraph leaves it
    // uncovered, so no GHD exists — semantically invalid, not a parse
    // error
    let file = write_temp("isolated.gr", "p tw 3 1\n1 2\n");
    let out = htd(&["ghw", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid"));
    let _ = std::fs::remove_file(file);
}

#[test]
fn unsupported_request_is_exit_four() {
    let file = write_temp("fmt.gr", "p tw 2 1\n1 2\n");
    // bad output format
    let out = htd(&["tw", file.to_str().unwrap(), "--format", "xml"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    // unknown flags, including the removed `serve --event-loop` (the
    // event loop is the only front end): refused before a server starts
    let out = htd(&["tw", file.to_str().unwrap(), "--frobnicate"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let out = htd(&["serve", "--event-loop"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --event-loop"));
    // unknown subcommand
    let out = htd(&["widthify", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn io_failure_is_exit_five() {
    let out = htd(&["tw", "/nonexistent/definitely/missing.gr"]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("io"));
}

#[test]
fn resource_exhaustion_is_exit_six() {
    // the subset DP on 20 vertices needs ~5.9 MiB of table — over a
    // 1 MiB budget it must refuse upfront instead of degrading
    let gr = htd_hypergraph::io::write_pace_gr(&htd_hypergraph::gen::random_gnp(20, 0.3, 1));
    let file = write_temp("dp-big.gr", &gr);
    let out = htd(&["tw", file.to_str().unwrap(), "--dp", "--memory-mb", "1"]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("resource exhausted"));
    let _ = std::fs::remove_file(file);

    // within budget the same arm solves exactly
    let file = write_temp("dp-small.gr", "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n");
    let out = htd(&[
        "tw",
        file.to_str().unwrap(),
        "--dp",
        "--memory-mb",
        "64",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");
    let _ = std::fs::remove_file(file);

    // a query with more variables than a decomposition may have is
    // refused before its dense primal graph is built
    let chain: Vec<String> = (0..16_384)
        .map(|i| format!("R(v{i}, v{})", i + 1))
        .collect();
    let file = write_temp(
        "wide.cq",
        &format!("Q() :- {}.\nR: 1 2 .\n", chain.join(", ")),
    );
    let out = htd(&["answer", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("16385 variables"));
    let _ = std::fs::remove_file(file);
}

#[test]
fn trace_flag_writes_a_schema_valid_event_stream() {
    use htd_core::json::Json;
    use htd_trace::{KNOWN_KINDS, SCHEMA_VERSION};

    let gr = htd_hypergraph::io::write_pace_gr(&htd_hypergraph::gen::queen_graph(5));
    let file = write_temp("trace.gr", &gr);
    let trace = std::env::temp_dir().join(format!("htd-exit-{}-trace.jsonl", std::process::id()));

    let out = htd(&[
        "tw",
        file.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--format",
        "json",
        "--threads",
        "4",
        "--seed",
        "42",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // the json outcome carries the convergence summary with attribution
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(doc.get("upper").and_then(|v| v.as_u64()), Some(18));
    let summary = doc.get("trace_summary").expect("trace_summary block");
    let winner = summary
        .get("winner")
        .and_then(|w| w.as_str())
        .expect("winner attribution")
        .to_string();
    assert!(!winner.is_empty());

    // the side-channel file is a versioned stream: contiguous,
    // time-ordered, every kind known, improvements attributed to a worker
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let mut last_t = 0u64;
    let mut improvements = 0usize;
    let mut lines = 0u64;
    for line in text.lines() {
        let rec = Json::parse(line).unwrap_or_else(|e| panic!("bad jsonl line {line}: {e:?}"));
        assert_eq!(
            rec.get("v").and_then(|v| v.as_u64()),
            Some(u64::from(SCHEMA_VERSION)),
            "{line}"
        );
        assert_eq!(
            rec.get("seq").and_then(|v| v.as_u64()),
            Some(lines),
            "{line}"
        );
        let t = rec.get("t_us").and_then(|v| v.as_u64()).unwrap();
        assert!(t >= last_t, "t_us went backwards in {line}");
        last_t = t;
        let kind = rec
            .get("kind")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string();
        assert!(KNOWN_KINDS.contains(&kind.as_str()), "unknown kind {kind}");
        if kind == "incumbent_improved" {
            improvements += 1;
            let worker = rec.get("worker").and_then(|v| v.as_str()).unwrap();
            assert!(!worker.is_empty(), "{line}");
        }
        lines += 1;
    }
    assert!(lines >= 2, "stream must at least bracket the solve");
    assert!(improvements >= 1, "no incumbent_improved event in stream");

    let _ = std::fs::remove_file(file);
    let _ = std::fs::remove_file(trace);
}

/// `--trace` observes the lineup a local answer runs and never changes
/// it: without `--threads`, `--engines` or `--fast` that is one
/// heuristic worker, traced or not.
#[test]
fn a_traced_local_answer_runs_the_untraced_lineup() {
    use htd_core::json::Json;
    let file = write_temp(
        "traced.cq",
        "Q(x, y) :- R(x, z), S(z, y).\nR: 1 2 ; 3 4 .\nS: 2 5 ; 2 6 .\n",
    );
    let trace = std::env::temp_dir().join(format!(
        "htd-exit-{}-answer-trace.jsonl",
        std::process::id()
    ));
    let out = htd(&[
        "answer",
        file.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let started: Vec<String> = text
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|rec| rec.get("kind").and_then(Json::as_str) == Some("worker_started"))
        .filter_map(|rec| rec.get("worker").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(started, ["heuristic"], "{text}");
    let _ = std::fs::remove_file(file);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn query_against_a_live_server_round_trips() {
    use htd_service::{ServeOptions, Server};
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        cache_mb: 4,
        queue_capacity: 4,
        default_deadline_ms: 5_000,
        log: false,
        verify_responses: false,
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let file = write_temp("query.gr", "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n");

    let out = htd(&["query", file.to_str().unwrap(), "--addr", &addr, "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "2");

    // second query is served from cache but must print the same answer
    let out = htd(&["query", file.to_str().unwrap(), "--addr", &addr]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("from cache"), "{text}");

    // missing --addr is an unsupported request (exit 4)
    let out = htd(&["query", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    // unreachable server is an io failure (exit 5)
    let out = htd(&["query", file.to_str().unwrap(), "--addr", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");

    let mut client = htd_service::Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_file(file);
}

#[cfg(unix)]
#[test]
fn serving_a_locked_store_is_exit_five() {
    // the append-only certificate log is single-writer: while this
    // process holds the store's flock, a second `htd serve --store` on
    // the same directory must refuse at startup with an io failure
    let dir = std::env::temp_dir().join(format!("htd-exit-store-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_store, _) = htd_service::CertStore::open(&dir).unwrap();

    let out = htd(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("locked by another server"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The signal handler `htd serve` installs: SIGTERM starts the graceful
/// drain, and the process exits 0 once it is done.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_zero() {
    use std::io::{BufRead, Read};
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_htd"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn htd serve");
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("htd-service listening on ")
        .unwrap_or_else(|| panic!("no listening line: {line:?}"))
        .to_string();
    htd_service::Client::connect(&addr).unwrap().ping().unwrap();
    let pid = child.id().to_string();
    let sent = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(sent.success(), "kill -TERM {pid}");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("htd serve still running 10 s after SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(0), "{status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("server drained"), "{rest:?}");
}

#[test]
fn peers_without_node_id_is_exit_four() {
    let out = htd(&["serve", "--peers", "b=127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--node-id"),
        "{out:?}"
    );
    // a peer list that names this node is a misconfiguration, not a ring
    let out = htd(&["serve", "--node-id", "a", "--peers", "a=127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
}
