//! Shard scaling of the cluster: each of three nodes serves the warm keys
//! it owns at the rate of a lone node, so their summed rate is at least
//! twice that of one node serving every key.
//!
//! The shards are measured one at a time and their rates summed: the
//! test machine may have fewer cores than nodes, and hammering every
//! node at once would measure the machine. The sum shows that each node
//! serves its shard at full warm rate with no forwarding hop, which is
//! what makes capacity add when every node has its own hardware.
//!
//! This is its own test binary because cargo runs test binaries one at a
//! time, so no other test shares the CPU while the rates are measured.

use std::time::Instant;

use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{Client, ClusterConfig, InstanceFormat, PeerSpec, ServeOptions, Server, Status};

mod common;
use common::free_port;

const DEADLINE_MS: u64 = 10_000;
const CLIENTS: usize = 4;
const HITS_PER_CLIENT: usize = 150;
const ROUNDS: usize = 5;

fn start(addr: String, cluster: Option<ClusterConfig>) -> Server {
    Server::start(ServeOptions {
        addr,
        threads: 2,
        cache_mb: 32,
        queue_capacity: 256,
        default_deadline_ms: DEADLINE_MS,
        log: false,
        verify_responses: false,
        cluster,
        ..ServeOptions::default()
    })
    .expect("bind loopback")
}

fn solve(client: &mut Client, instance: &str) -> htd_service::Response {
    client
        .solve(
            Objective::Treewidth,
            InstanceFormat::Auto,
            instance,
            Some(DEADLINE_MS),
        )
        .unwrap()
}

/// Requests per second of `CLIENTS` connections sending
/// `HITS_PER_CLIENT` requests each for `keys` to `addr`. Every response
/// must be an `ok` cache hit, stamped by `node` when one is named.
fn hammer(addr: &str, corpus: &[String], keys: &[usize], node: Option<&str>) -> f64 {
    let t0 = Instant::now();
    let faults: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut faults = Vec::new();
                    for i in 0..HITS_PER_CLIENT {
                        let k = keys[(ci + i) % keys.len()];
                        let r = solve(&mut client, &corpus[k]);
                        if r.status != Status::Ok || !r.cached {
                            faults.push(format!("key {k}: {:?}, cached {}", r.status, r.cached));
                        } else if node.is_some() && r.node.as_deref() != node {
                            faults.push(format!("key {k}: stamped {:?}, sent to {node:?}", r.node));
                        }
                    }
                    faults
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let rate = (CLIENTS * HITS_PER_CLIENT) as f64 / t0.elapsed().as_secs_f64();
    assert!(faults.is_empty(), "{addr}: {faults:?}");
    rate
}

fn median(mut rates: Vec<f64>) -> f64 {
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// A single node serves all 24 keys; three clustered nodes, warmed
/// through `n0`, each serve the keys their `node` stamp says they own.
/// Each rate is the median of five rounds, and every round measures the
/// single node and then each shard, so a noisy moment cannot decide the
/// bar on its own.
#[test]
fn three_shards_serve_at_least_twice_the_warm_rate_of_one_node() {
    let corpus: Vec<String> = (0..24)
        .map(|i| io::write_pace_gr(&gen::random_gnp(14, 0.4, 0xc1a5_0000 + i)))
        .collect();

    let single = start("127.0.0.1:0".into(), None);
    let single_addr = single.addr().to_string();
    let mut client = Client::connect(&single_addr).unwrap();
    for text in &corpus {
        solve(&mut client, text);
    }

    let ids = ["n0", "n1", "n2"];
    let addrs: Vec<String> = ids
        .iter()
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let nodes: Vec<Server> = (0..ids.len())
        .map(|me| {
            let peers = (0..ids.len())
                .filter(|&i| i != me)
                .map(|i| PeerSpec {
                    id: ids[i].into(),
                    addr: addrs[i].clone(),
                })
                .collect();
            start(addrs[me].clone(), Some(ClusterConfig::new(ids[me], peers)))
        })
        .collect();

    // warm through one gateway: the owner solves each forwarded key, and
    // its stamp on the response says where the key lives
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
    let mut gateway = Client::connect(&addrs[0]).unwrap();
    for (k, text) in corpus.iter().enumerate() {
        let r = solve(&mut gateway, text);
        let owner = r
            .node
            .as_deref()
            .and_then(|n| ids.iter().position(|id| *id == n));
        match (r.status, owner) {
            (Status::Ok, Some(o)) => owned[o].push(k),
            _ => panic!("warming key {k}: {:?}, node {:?}", r.status, r.node),
        }
    }
    for (id, keys) in ids.iter().zip(&owned) {
        assert!(
            !keys.is_empty(),
            "{id} owns none of the {} keys",
            corpus.len()
        );
    }

    let all_keys: Vec<usize> = (0..corpus.len()).collect();
    let mut single_rates = Vec::new();
    let mut shard_rates = vec![Vec::new(); ids.len()];
    for _ in 0..ROUNDS {
        single_rates.push(hammer(&single_addr, &corpus, &all_keys, None));
        for (i, rates) in shard_rates.iter_mut().enumerate() {
            rates.push(hammer(&addrs[i], &corpus, &owned[i], Some(ids[i])));
        }
    }

    client.shutdown().unwrap();
    single.wait();
    gateway.shutdown().unwrap();
    for addr in &addrs[1..] {
        Client::connect(addr).unwrap().shutdown().unwrap();
    }
    for node in nodes {
        node.wait();
    }

    let single_rate = median(single_rates);
    let shards: Vec<f64> = shard_rates.into_iter().map(median).collect();
    let summed: f64 = shards.iter().sum();
    println!(
        "single node {single_rate:.0}/s; shards {shards:.0?}/s, summed {summed:.0}/s ({:.2}x); keys owned {:?}",
        summed / single_rate,
        owned.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert!(
        summed >= 2.0 * single_rate,
        "summed shard rate {summed:.0}/s is not 2x the single-node rate {single_rate:.0}/s"
    );
}
