//! Crash soak of the certificate store behind `htd serve --store DIR`.
//!
//! The test spawns the real `htd` binary, keeps it appending fresh
//! certificates, and `kill -9`s it after a pseudo-random slice of work,
//! for 20 seconds. Every respawn reopens the same store, so each
//! generation runs the recovery path: every record re-verified by the
//! oracle before admission, a torn tail or a damaged record dropped. A
//! final generation must open the store and answer every corpus
//! instance from it with its true width.
//!
//! `HTD_SOAK_SECS=N` soaks for `N` seconds instead of 20, and
//! `HTD_SOAK_SEED=S` seeds the kill points and the fresh instances with
//! `S` instead of 42:
//!
//! ```sh
//! HTD_SOAK_SECS=300 cargo test --release -p htd-cli --test store_crash
//! ```

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{Client, InstanceFormat, Status};

#[path = "../../service/tests/common/mod.rs"]
mod common;
use common::{sample, scrape, soak_secs, soak_seed};

/// An `htd serve --store` child, killed with SIGKILL and reaped when
/// dropped: on a kill point, and on every way out of the test.
struct Serve {
    child: Child,
    addr: String,
    // held open so the server never writes to a closed pipe
    _stdout: BufReader<ChildStdout>,
}

impl Serve {
    fn start(store: &Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_htd"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--quiet",
            ])
            .arg("--store")
            .arg(store)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn htd serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        // the guard owns the child before any assertion can unwind
        let mut serve = Serve {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        serve.addr = banner
            .trim()
            .strip_prefix("htd-service listening on ")
            .unwrap_or_else(|| panic!("no listening banner: {banner:?}"))
            .to_string();
        serve
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("the server accepts once it has printed its banner")
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill(); // SIGKILL: no drain, no flush
        let _ = self.child.wait();
    }
}

#[test]
fn the_store_serves_true_widths_after_every_kill() {
    let soak = soak_secs().unwrap_or(Duration::from_secs(20));
    let seed = soak_seed();
    let store = std::env::temp_dir().join(format!("htd-store-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    // the k×k grid has treewidth k; grid2d(2) is acyclic, grid2d(3) is not
    let corpus = [
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(4, 4)),
            4,
        ),
        (
            Objective::Treewidth,
            io::write_pace_gr(&gen::grid_graph(5, 5)),
            5,
        ),
        (
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(2)),
            1,
        ),
        (
            Objective::GeneralizedHypertreeWidth,
            io::write_hg(&gen::grid2d(3)),
            2,
        ),
    ];

    let start = Instant::now();
    let (mut kills, mut answered) = (0u64, 0u64);
    let mut stored = [false; 4];
    let mut mix = seed;
    while start.elapsed() < soak {
        let server = Serve::start(&store);
        let mut client = server.client();
        // kill after a pseudo-random slice of work
        mix = mix
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let live_for = Duration::from_millis(40 + (mix >> 33) % 400);
        let born = Instant::now();
        let mut i = 0u64;
        while born.elapsed() < live_for && start.elapsed() < soak {
            // replayed corpus entries between fresh instances, so every
            // generation keeps appending new certificates
            let entry = (i % 3 == 0).then(|| ((kills + i) % corpus.len() as u64) as usize);
            let r = if let Some(entry) = entry {
                let (objective, text, _) = &corpus[entry];
                client.solve(*objective, InstanceFormat::Auto, text, Some(1_000))
            } else {
                let n = 10 + ((kills * 7 + i) % 6) as u32;
                let g = gen::random_gnp(n, 0.4, seed ^ (kills << 16 | i));
                client.solve(
                    Objective::Treewidth,
                    InstanceFormat::Auto,
                    &io::write_pace_gr(&g),
                    Some(1_000),
                )
            };
            match r {
                Ok(r) if r.status == Status::Ok => {
                    answered += 1;
                    if let Some(entry) = entry {
                        stored[entry] = true;
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
            i += 1;
        }
        drop(server);
        kills += 1;
    }

    // the final generation opens the store after every crash
    let server = Serve::start(&store);
    let mut client = server.client();
    for (entry, (objective, text, width)) in corpus.iter().enumerate() {
        assert!(
            stored[entry],
            "corpus entry {entry} was never answered in the soak"
        );
        let r = client
            .solve(*objective, InstanceFormat::Auto, text, Some(5_000))
            .expect("the final server answers");
        assert_eq!(r.status, Status::Ok, "corpus entry {entry}: {:?}", r.error);
        let o = r.outcome.expect("ok carries an outcome");
        assert!(
            o.exact && o.upper == *width,
            "corpus entry {entry}: {}..{} exact={} for width {width}",
            o.lower,
            o.upper,
            o.exact
        );
        assert!(r.cached, "corpus entry {entry} is served from the store");
    }
    let metrics = scrape(&server.addr);
    let loaded = sample(&metrics, "htd_store_loaded_total");
    println!(
        "{kills} kills in {soak:?}, {answered} ok answers; the last open loaded {loaded} \
         records, rejected {} and truncated {}",
        sample(&metrics, "htd_store_rejects_total"),
        sample(&metrics, "htd_store_truncated_total")
    );
    assert!(loaded >= corpus.len() as u64, "{metrics}");
    assert!(kills > 0 && answered > 0, "the soak exercised nothing");
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
}
