//! Crash- and tamper-tolerance tests for the persistent certificate
//! store: truncation at randomized kill points, single-byte tampering,
//! and a fingerprint-collision-free round trip over a seeded corpus.
//!
//! The property under test is the store's one-line contract: *it can
//! cost time, never correctness*. However the log is damaged, a reopen
//! must (a) never serve an entry the oracle has not re-proved and
//! (b) leave the server able to answer every request by recomputing.

use std::path::PathBuf;

use htd_hypergraph::{gen, io};
use htd_search::{solve, Objective, SearchConfig};
use htd_service::{
    parse_problem, CertStore, Client, InstanceFormat, ServeOptions, Server, Status, StoreRecord,
};

mod common;
use common::{sample, scrape};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Solves one instance outside the server and packages it as a record.
fn solved_record(objective: Objective, format: InstanceFormat, instance: String) -> StoreRecord {
    let (problem, key) = parse_problem(format, &instance, objective).unwrap();
    let outcome = solve(&problem, &SearchConfig::budgeted(300_000)).unwrap();
    let canon = htd_hypergraph::canonical::canonical_form(&key);
    StoreRecord {
        objective: objective.name(),
        format,
        instance,
        fingerprint: canon.fingerprint,
        canonical: canon.bytes,
        effort_ms: 25,
        outcome,
    }
}

fn seeded_corpus() -> Vec<StoreRecord> {
    let mut recs = Vec::new();
    for k in 3..=5 {
        recs.push(solved_record(
            Objective::Treewidth,
            InstanceFormat::PaceGr,
            io::write_pace_gr(&gen::grid_graph(k, k)),
        ));
    }
    for seed in 0..6u64 {
        recs.push(solved_record(
            Objective::Treewidth,
            InstanceFormat::PaceGr,
            io::write_pace_gr(&gen::random_gnp(12 + (seed as u32 % 4), 0.4, seed)),
        ));
    }
    for k in 2..=3 {
        recs.push(solved_record(
            Objective::GeneralizedHypertreeWidth,
            InstanceFormat::Hg,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    recs
}

/// Kill -9 mid-append leaves an arbitrary prefix of the log on disk.
/// Simulate it exhaustively-ish: truncate the log at 64 seeded offsets
/// (plus every record boundary) and reopen each time. Every entry that
/// survives must be one we actually appended, re-proved by the oracle;
/// a cut mid-record must be counted as crash residue, not an error.
#[test]
fn truncation_at_random_kill_points_never_serves_corrupt_entries() {
    let dir = tmp_dir("trunc");
    let corpus = seeded_corpus();
    let (store, loaded) = CertStore::open(&dir).unwrap();
    assert!(loaded.is_empty());
    let mut boundaries = vec![0u64];
    for rec in &corpus {
        assert!(store.append(rec).unwrap());
        boundaries.push(store.bytes());
    }
    drop(store);
    let log = dir.join("store.log");
    let full = std::fs::read(&log).unwrap();
    assert_eq!(full.len() as u64, *boundaries.last().unwrap());

    let mut cuts: Vec<u64> = boundaries.clone();
    let mut x = 0xdead_beefu64;
    for _ in 0..64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        cuts.push((x >> 16) % (full.len() as u64 + 1));
    }
    let known: std::collections::HashSet<u64> = corpus.iter().map(|r| r.fingerprint).collect();

    for cut in cuts {
        std::fs::write(&log, &full[..cut as usize]).unwrap();
        let (reopened, recovered) = CertStore::open(&dir).unwrap();
        let stats = reopened.stats();
        drop(reopened);
        // whole-record prefixes load; a mid-record cut is crash residue
        let at_boundary = boundaries.contains(&cut);
        assert_eq!(
            stats.truncated,
            u64::from(!at_boundary),
            "cut at {cut} of {}",
            full.len()
        );
        assert_eq!(stats.rejected, 0, "a clean truncation is not tampering");
        let whole_records_before_cut = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(recovered.len(), whole_records_before_cut, "cut at {cut}");
        for rec in &recovered {
            assert!(
                known.contains(&rec.fingerprint),
                "recovered a fingerprint we never appended"
            );
        }
        // recovery truncates the residue away: the next open is clean
        let (again, recovered_again) = CertStore::open(&dir).unwrap();
        assert_eq!(again.stats().truncated, 0);
        assert_eq!(recovered_again.len(), whole_records_before_cut);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a truncating crash the next append must produce a clean log —
/// the torn tail may not corrupt the record that follows it.
#[test]
fn append_after_crash_recovery_produces_clean_log() {
    let dir = tmp_dir("reappend");
    let rec3 = solved_record(
        Objective::Treewidth,
        InstanceFormat::PaceGr,
        io::write_pace_gr(&gen::grid_graph(3, 3)),
    );
    let rec4 = solved_record(
        Objective::Treewidth,
        InstanceFormat::PaceGr,
        io::write_pace_gr(&gen::grid_graph(4, 4)),
    );
    let (store, _) = CertStore::open(&dir).unwrap();
    store.append(&rec3).unwrap();
    let keep = store.bytes();
    store.append(&rec4).unwrap();
    drop(store);
    let log = dir.join("store.log");
    let full = std::fs::read(&log).unwrap();
    // crash mid-way through the second record
    std::fs::write(&log, &full[..keep as usize + 7]).unwrap();

    let (store, recovered) = CertStore::open(&dir).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(store.stats().truncated, 1);
    assert!(store.append(&rec4).unwrap(), "re-append after recovery");
    drop(store);
    let (store, recovered) = CertStore::open(&dir).unwrap();
    assert_eq!(
        store.stats(),
        htd_service::StoreStats {
            loaded: 2,
            rejected: 0,
            truncated: 0,
        }
    );
    assert_eq!(recovered.len(), 2);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end tamper test through a real server: populate the store,
/// flip one byte in a record payload, reboot. The oracle (or checksum)
/// must reject the damaged entry, `htd_store_rejects_total` must say
/// so, and the request whose certificate was lost must fall through to
/// a fresh recompute — never a wrong answer.
#[test]
fn tampered_byte_is_rejected_on_reopen_and_request_recomputes() {
    let dir = tmp_dir("tamper");
    let corpus: Vec<(Objective, String)> = vec![
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(4, 4)),
        ),
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(5, 5)),
        ),
        (
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(3)),
        ),
    ];
    let opts = || ServeOptions {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        store_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };

    // populate the store
    let server = Server::start(opts()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for (obj, text) in &corpus {
        let r = client
            .solve(*obj, InstanceFormat::Auto, text, Some(10_000))
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    }
    client.shutdown().unwrap();
    server.wait();

    // flip one byte in the middle of the first record's payload: the
    // framing stays intact, so only the checksum/oracle can catch it
    let log = dir.join("store.log");
    let mut bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > 32, "store.log should have content");
    let len0 = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let at = 16 + len0 / 2;
    bytes[at] ^= 0x41;
    std::fs::write(&log, &bytes).unwrap();

    // reboot onto the tampered store
    let server = Server::start(opts()).unwrap();
    let addr = server.addr().to_string();
    // the registry is process-global (other tests in this binary also
    // open stores), so assert monotone: the reject counter must be live
    // and nonzero after loading a tampered log
    let metrics = scrape(&addr);
    let rejects = sample(&metrics, "htd_store_rejects_total");
    assert!(
        rejects >= 1,
        "tampered record must be counted as rejected:\n{metrics}"
    );

    // every request still answers correctly — lost certificates
    // recompute, surviving ones may serve from the warmed cache
    let mut client = Client::connect(&addr).unwrap();
    let mut recomputed = 0;
    for (obj, text) in &corpus {
        let r = client
            .solve(*obj, InstanceFormat::Auto, text, Some(10_000))
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        if !r.cached {
            recomputed += 1;
        }
    }
    assert!(
        recomputed >= 1,
        "at least the tampered entry must fall through to a recompute"
    );
    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An instance without vertices is stored at width 0, and a restart onto
/// the store re-verifies its record and answers from it.
#[test]
fn an_instance_without_vertices_is_served_from_the_store_after_a_restart() {
    let dir = tmp_dir("novertices");
    let serve = || {
        let server = Server::start(ServeOptions {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            default_deadline_ms: 10_000,
            log: false,
            store_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        let r = client
            .solve(
                Objective::Treewidth,
                InstanceFormat::Auto,
                "p tw 0 0\n",
                Some(10_000),
            )
            .unwrap();
        client.shutdown().unwrap();
        server.wait();
        r
    };
    let first = serve();
    assert_eq!(first.status, Status::Ok, "{:?}", first.error);
    let again = serve();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(again.status, Status::Ok, "{:?}", again.error);
    assert!(again.cached, "the restart must answer from the store");
}

/// Round trip over the seeded corpus: distinct instances must have
/// distinct fingerprints (collision-free), and a reopen must return
/// exactly the appended set with byte-identical canonical keys.
#[test]
fn seeded_corpus_round_trips_without_fingerprint_collisions() {
    let dir = tmp_dir("corpus");
    let corpus = seeded_corpus();

    // (objective, fingerprint) keys must be unique across the corpus
    let mut keys: Vec<(&str, u64)> = corpus
        .iter()
        .map(|r| (r.objective, r.fingerprint))
        .collect();
    keys.sort_unstable();
    let before = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), before, "fingerprint collision in the corpus");

    let (store, _) = CertStore::open(&dir).unwrap();
    for rec in &corpus {
        assert!(store.append(rec).unwrap());
        assert!(!store.append(rec).unwrap(), "duplicate keys are refused");
    }
    drop(store);

    let (store, recovered) = CertStore::open(&dir).unwrap();
    assert_eq!(store.stats().loaded, corpus.len() as u64);
    assert_eq!(store.stats().rejected, 0);
    assert_eq!(recovered.len(), corpus.len());
    for rec in &corpus {
        let back = recovered
            .iter()
            .find(|r| r.objective == rec.objective && r.fingerprint == rec.fingerprint)
            .expect("appended record recovered");
        assert_eq!(back.canonical, rec.canonical, "canonical key round-trips");
        assert_eq!(back.outcome.upper, rec.outcome.upper);
        assert_eq!(back.outcome.lower, rec.outcome.lower);
        assert_eq!(back.outcome.exact, rec.outcome.exact);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instances whose cold solve does real search (tens of milliseconds
/// each on one worker), so the restart bar compares re-verified store
/// hits with search rather than with the fixed cost of a request.
fn restart_corpus() -> Vec<(Objective, String)> {
    let mut c: Vec<(Objective, String)> =
        [(25, 0.4, 25), (24, 0.4, 24), (26, 0.35, 126), (26, 0.3, 26)]
            .into_iter()
            .map(|(n, p, seed)| {
                (
                    Objective::Treewidth,
                    io::write_pace_gr(&gen::random_gnp(n, p, seed)),
                )
            })
            .collect();
    c.push((
        Objective::Treewidth,
        io::write_pace_gr(&gen::queen_graph(5)),
    ));
    for k in [6, 7] {
        c.push((
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(k)),
        ));
    }
    c
}

/// A store-less server solves the corpus cold; a server with a store
/// solves it again to fill the store; a server restarted onto that store
/// answers every request from it (`cached`), with a p50 at least 10×
/// below the cold one.
#[test]
fn restart_onto_the_store_answers_from_it_10x_faster_than_cold() {
    let dir = tmp_dir("restart");
    let corpus = restart_corpus();
    let deadline_ms = 500;
    // one server's (milliseconds, cached) per corpus instance
    let serve_corpus = |store: bool| -> Vec<(f64, bool)> {
        let server = Server::start(ServeOptions {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            default_deadline_ms: deadline_ms,
            log: false,
            store_dir: store.then(|| dir.clone()),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        let runs = corpus
            .iter()
            .map(|(objective, text)| {
                let t = std::time::Instant::now();
                let r = client
                    .solve(*objective, InstanceFormat::Auto, text, Some(deadline_ms))
                    .unwrap();
                (t.elapsed().as_secs_f64() * 1e3, r.cached)
            })
            .collect();
        client.shutdown().unwrap();
        server.wait();
        runs
    };
    let cold = serve_corpus(false);
    serve_corpus(true);
    let restarted = serve_corpus(true);
    let _ = std::fs::remove_dir_all(&dir);

    let p50 = |runs: &[(f64, bool)]| {
        let mut ms: Vec<f64> = runs.iter().map(|r| r.0).collect();
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    let (cold_p50, restart_p50) = (p50(&cold), p50(&restarted));
    println!(
        "cold p50 {cold_p50:.2} ms, restart p50 {restart_p50:.2} ms ({:.0}x)",
        cold_p50 / restart_p50
    );
    let missed: Vec<usize> = (0..corpus.len()).filter(|&i| !restarted[i].1).collect();
    assert!(
        missed.is_empty(),
        "restart answered instances {missed:?} without the store"
    );
    assert!(
        cold_p50 >= 10.0 * restart_p50,
        "restart p50 {restart_p50:.2} ms is not 10x below cold p50 {cold_p50:.2} ms"
    );
}
