//! Fault-tolerance tests of the cluster layer: real servers on loopback
//! ports, killed without drain (`Server::kill`, the in-process analog of
//! `kill -9`), partitioned via the chaos hook, and fed tampered
//! certificates — answers must stay correct through all of it.

use std::time::{Duration, Instant};

use htd_hypergraph::canonical::canonical_form;
use htd_hypergraph::{gen, io};
use htd_search::Objective;
use htd_service::{
    parse_problem, CertPush, Client, ClusterConfig, InstanceFormat, PeerSpec, ServeOptions, Server,
    Status,
};

mod common;
use common::free_port;

fn cluster_config(ids: &[&str], addrs: &[String], me: usize, replication: usize) -> ClusterConfig {
    let peers = ids
        .iter()
        .zip(addrs)
        .enumerate()
        .filter(|(i, _)| *i != me)
        .map(|(_, (id, addr))| PeerSpec {
            id: id.to_string(),
            addr: addr.clone(),
        })
        .collect();
    let mut cfg = ClusterConfig::new(ids[me], peers);
    cfg.replication = replication;
    // fast detector so state transitions land inside test timeouts
    cfg.probe_interval_ms = 10;
    cfg.probe_timeout_ms = 200;
    cfg
}

fn start_node(ids: &[&str], addrs: &[String], me: usize, replication: usize) -> Server {
    Server::start(ServeOptions {
        addr: addrs[me].clone(),
        threads: 2,
        cache_mb: 8,
        queue_capacity: 16,
        default_deadline_ms: 10_000,
        log: false,
        verify_responses: false,
        cluster: Some(cluster_config(ids, addrs, me, replication)),
        ..ServeOptions::default()
    })
    .expect("bind loopback")
}

fn start_cluster(ids: &[&str], replication: usize) -> (Vec<Server>, Vec<String>) {
    let addrs: Vec<String> = ids
        .iter()
        .map(|_| format!("127.0.0.1:{}", free_port()))
        .collect();
    let servers = (0..ids.len())
        .map(|me| start_node(ids, &addrs, me, replication))
        .collect();
    (servers, addrs)
}

fn fingerprint_of(instance: &str) -> u64 {
    let (_, h) = parse_problem(InstanceFormat::PaceGr, instance, Objective::Treewidth).unwrap();
    canonical_form(&h).fingerprint
}

/// Generates instances until one's primary owner is `owner` and `other`
/// is not an owner at all (so a request to `other` must forward).
fn instance_owned_by(cluster: &htd_service::Cluster, owner: &str, other: &str) -> String {
    let r = cluster.config().replication;
    for seed in 0..2_000u64 {
        let inst = io::write_pace_gr(&gen::random_gnp(10, 0.35, seed));
        let fp = fingerprint_of(&inst);
        let owners = cluster.ring().owners(fp, r);
        if owners.first() == Some(&owner) && !owners.contains(&other) {
            return inst;
        }
    }
    panic!("no instance with primary owner {owner} avoiding {other} in 2000 seeds");
}

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn forwarding_routes_to_the_owner_and_stamps_its_node_id() {
    let ids = ["a", "b", "c"];
    let (mut servers, addrs) = start_cluster(&ids, 2);
    let c = servers.remove(2);
    let inst = instance_owned_by(c.cluster().unwrap(), "a", "c");

    let mut client = Client::connect(&addrs[2]).unwrap();
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &inst, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    // the response reports where the work ran: the key's owner, not the
    // node the client happened to dial
    assert_eq!(r.node.as_deref(), Some("a"));
    assert!(
        c.metrics()
            .cluster_forwards
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // the same request again is forwarded to a warm owner, and the
    // relayed response keeps the owner's cache flag
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &inst, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(r.cached, "a forwarded warm request comes back cached");
    assert_eq!(r.node.as_deref(), Some("a"));

    // a key this node owns is solved locally
    let local = instance_owned_by(c.cluster().unwrap(), "c", "a");
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &local, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_eq!(r.node.as_deref(), Some("c"));

    drop(client);
    for s in servers {
        s.kill();
    }
    c.kill();
}

#[test]
fn killing_the_owner_mid_pipeline_fails_over_with_correct_answers() {
    let ids = ["a", "b", "c"];
    let (mut servers, addrs) = start_cluster(&ids, 2);
    let node_a = servers.remove(0);
    let gateway = addrs[2].clone();

    // four distinct keys, all primarily owned by the node we will kill
    let ring_view = node_a.cluster().unwrap();
    let instances: Vec<String> = (0..4)
        .map(|_| instance_owned_by(ring_view, "a", "c"))
        .collect();

    // ground truth from the live owner, before any failures
    let mut client = Client::connect(&gateway).unwrap();
    let mut truth = Vec::new();
    for inst in &instances {
        let r = client
            .solve(Objective::Treewidth, InstanceFormat::PaceGr, inst, None)
            .unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        let o = r.outcome.unwrap();
        assert!(o.exact);
        truth.push(o.upper);
    }

    // pipeline the same batch again (cache off so the work is real) and
    // kill -9 the owner while it is in flight
    let mut ids_sent = Vec::new();
    for inst in &instances {
        let (mut req, id) = client.solve_request(
            Objective::Treewidth,
            InstanceFormat::PaceGr,
            inst,
            Some(10_000),
        );
        if let htd_service::Command::Solve(s) = &mut req.cmd {
            s.use_cache = false;
        }
        client.send(&req).unwrap();
        ids_sent.push(id);
    }
    node_a.kill();

    // every pipelined request must come back (zero lost) with the true
    // width (zero wrong) — whether the owner answered before dying, a
    // replica took over, or the gateway fell back to solving locally
    let mut got = std::collections::HashMap::new();
    for _ in 0..instances.len() {
        let r = client.recv().unwrap();
        assert_eq!(r.status, Status::Ok, "{:?}", r.error);
        got.insert(r.id.clone().unwrap(), r.outcome.unwrap());
    }
    for (id, want) in ids_sent.iter().zip(&truth) {
        let o = &got[id];
        assert!(o.exact, "failover answer must stay exact");
        assert_eq!(o.upper, *want, "wrong answer after owner kill");
    }

    // the dead owner is really dead: a fresh request to the gateway for
    // one of its keys still answers correctly without it
    let r = client
        .solve(
            Objective::Treewidth,
            InstanceFormat::PaceGr,
            &instances[0],
            None,
        )
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_ne!(r.node.as_deref(), Some("a"));
    assert_eq!(r.outcome.unwrap().upper, truth[0]);

    for s in servers {
        s.kill();
    }
}

#[test]
fn partition_walks_suspect_down_and_recovery_delivers_hints() {
    use std::sync::atomic::Ordering;
    let ids = ["a", "b"];
    // R=1: each key has exactly one owner, so a partitioned owner forces
    // the local-fallback + hint path
    let (mut servers, addrs) = start_cluster(&ids, 1);
    let node_b = servers.remove(1);
    let node_a = servers.remove(0);
    let a = node_a.cluster().unwrap();

    wait_for("b alive", Duration::from_secs(5), || {
        a.peer_state("b") == Some(htd_service::PeerState::Alive)
    });

    // chaos hook: from a's point of view, b drops off the network
    a.set_partitioned("b", true);
    wait_for("b suspect", Duration::from_secs(5), || {
        a.peer_state("b") != Some(htd_service::PeerState::Alive)
    });
    wait_for("b down", Duration::from_secs(5), || {
        a.peer_state("b") == Some(htd_service::PeerState::Down)
    });
    assert!(
        node_a
            .metrics()
            .cluster_probe_failures
            .load(Ordering::Relaxed)
            >= 4
    );

    // a key owned by b, requested at a while b is "down": every owner is
    // unusable, so a answers locally and parks the certificate as a hint
    let inst = instance_owned_by(a, "b", "__nobody__");
    let mut client = Client::connect(&addrs[0]).unwrap();
    let r = client
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &inst, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert_eq!(r.node.as_deref(), Some("a"), "local fallback expected");
    assert!(
        node_a
            .metrics()
            .cluster_local_fallbacks
            .load(Ordering::Relaxed)
            >= 1
    );
    assert!(
        node_a
            .metrics()
            .cluster_handoffs_queued
            .load(Ordering::Relaxed)
            >= 1
    );

    // the partition heals: b walks back to alive and the parked hint is
    // delivered, re-verified by b's oracle, and admitted to b's cache
    a.set_partitioned("b", false);
    wait_for("b alive again", Duration::from_secs(5), || {
        a.peer_state("b") == Some(htd_service::PeerState::Alive)
    });
    wait_for("hint delivered", Duration::from_secs(10), || {
        node_a
            .metrics()
            .cluster_handoffs_delivered
            .load(Ordering::Relaxed)
            >= 1
    });
    wait_for("cert accepted at b", Duration::from_secs(10), || {
        node_b
            .metrics()
            .cluster_certs_accepted
            .load(Ordering::Relaxed)
            >= 1
    });
    assert_eq!(
        node_b
            .metrics()
            .cluster_cert_rejects
            .load(Ordering::Relaxed),
        0
    );

    // b now answers the handed-off key from its own cache
    let mut client_b = Client::connect(&addrs[1]).unwrap();
    let r = client_b
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &inst, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(r.cached, "handed-off certificate should warm b's cache");

    node_a.kill();
    node_b.kill();
}

#[test]
fn tampered_handoff_certificate_is_rejected_by_the_oracle() {
    use std::sync::atomic::Ordering;
    let ids = ["a", "b"];
    let (mut servers, addrs) = start_cluster(&ids, 2);
    let node_b = servers.remove(1);
    let node_a = servers.remove(0);

    // a genuine certificate, solved out-of-band
    let inst = io::write_pace_gr(&gen::random_gnp(10, 0.35, 7));
    let (problem, h) = parse_problem(InstanceFormat::PaceGr, &inst, Objective::Treewidth).unwrap();
    let canon = canonical_form(&h);
    let outcome = htd_search::solve(&problem, &htd_search::SearchConfig::default()).unwrap();
    assert!(outcome.exact && outcome.witness.is_some());
    let genuine = CertPush {
        objective: Objective::Treewidth,
        format: InstanceFormat::PaceGr,
        instance: inst.clone(),
        fingerprint_hex: canon.hex(),
        effort_ms: 5,
        outcome: outcome.clone(),
        from: Some("a".into()),
    };

    let mut client_b = Client::connect(&addrs[1]).unwrap();
    let r = client_b.put_cert(genuine.clone()).unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    assert!(
        node_b
            .metrics()
            .cluster_certs_accepted
            .load(Ordering::Relaxed)
            >= 1
    );

    // tamper 1: the claimed width is lowered — the witness no longer
    // proves the claim and the oracle must refuse it
    let mut lying = genuine.clone();
    lying.outcome.upper = lying.outcome.upper.saturating_sub(1);
    lying.outcome.lower = lying.outcome.upper;
    let r = client_b.put_cert(lying).unwrap();
    assert_eq!(r.status, Status::Error, "a lowered width must be rejected");

    // tamper 2: the fingerprint does not match the instance
    let mut mismatched = genuine;
    mismatched.fingerprint_hex = format!("{:016x}", canon.fingerprint ^ 1);
    let r = client_b.put_cert(mismatched).unwrap();
    assert_eq!(r.status, Status::Error);
    assert!(
        node_b
            .metrics()
            .cluster_cert_rejects
            .load(Ordering::Relaxed)
            >= 2
    );

    // the tampered pushes poisoned nothing: solving the instance at b
    // still yields the true width
    let r = client_b
        .solve(Objective::Treewidth, InstanceFormat::PaceGr, &inst, None)
        .unwrap();
    assert_eq!(r.status, Status::Ok, "{:?}", r.error);
    let o = r.outcome.unwrap();
    assert_eq!(
        o.upper, outcome.upper,
        "tampered cert must not change answers"
    );

    node_a.kill();
    node_b.kill();
}
