//! htd-cluster: the fault-tolerant multi-node layer of `htd serve`.
//!
//! N peers share one [`Ring`] (same membership, `VNODES` and `RING_SEED`
//! on every node — placement is a pure function of configuration, there
//! is no placement state to replicate) over the canonical fingerprints the
//! cache and certificate store already key by. Each request is owned by
//! the first `R` distinct nodes clockwise from its fingerprint; a node
//! receiving a request it does not own forwards it to an owner over the
//! existing newline-JSON protocol, failing over down the replica list
//! and, as a last resort, solving locally.
//!
//! ## Failure detector
//!
//! A single *agent* thread per node probes every peer with a `ping` over
//! a timeout-bounded connection. Consecutive failures walk the peer
//! through `Alive → Suspect → Down` (`SUSPECT_AFTER` / `DOWN_AFTER`),
//! a success snaps it back to `Alive`, and probes of `Down` peers back
//! off to a multiple of the probe interval. A `pong` carrying
//! `draining: true` (or a 503 `/healthz`, which reports the same flag)
//! is *leave-intent*: the peer is marked `Leaving` and excluded from
//! forwarding without ever counting as a failure.
//!
//! ## Replication and hinted handoff
//!
//! Every locally verified, cacheable solve is pushed (`put_cert`) to the
//! other owners of its fingerprint. Deliveries to peers that are not
//! currently `Alive` wait in the same bounded outbox as *hints* and
//! flush when the peer recovers; a recovery additionally replays the
//! local certificate store and queues every record the recovered peer
//! owns (incremental key handoff). The receiver re-verifies every pushed
//! certificate with the `htd-check` oracle before admitting it — remote
//! peers are untrusted exactly like disk — so a Byzantine or corrupted
//! peer costs recomputation, never a wrong answer.
//!
//! ## Degradation ladder
//!
//! owner alive → forward; owner down → next replica; all owners down →
//! solve locally + queue a hint. Every rung is observable via the
//! `htd_cluster_*` series and `cluster.*` spans.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::client::Client;
use crate::metrics::Metrics;
use crate::protocol::{CertPush, Command, Request, Response, Status};
use crate::ring::Ring;
use crate::store::{CertStore, StoreRecord};

/// Certificates waiting for delivery (replication + hints). Overflow
/// drops the oldest entry: every queued certificate also lives in the
/// local cache/store, so a drop costs the receiver a recomputation,
/// never an answer.
const OUTBOX_CAPACITY: usize = 1024;
/// Deliveries attempted per agent tick, bounding time away from probing.
const DELIVERIES_PER_TICK: usize = 32;
/// How long a failed delivery waits before the next attempt.
const REDELIVERY_BACKOFF: Duration = Duration::from_millis(1000);
/// Probe-interval multiplier for peers already marked `Down`.
const DOWN_PROBE_BACKOFF: u32 = 4;
/// Virtual nodes per member on the ring.
const VNODES: usize = 64;
/// Ring placement seed, `"htd_clus"`.
const RING_SEED: u64 = 0x6874_645f_636c_7573;
/// Consecutive probe failures before `Alive → Suspect`.
const SUSPECT_AFTER: u32 = 2;
/// Consecutive probe failures before `Suspect → Down`.
const DOWN_AFTER: u32 = 4;

/// One peer: stable id + dial address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerSpec {
    /// Stable node id (ring placement hashes this, not the address).
    pub id: String,
    /// `host:port` the peer's server listens on.
    pub addr: String,
}

/// Cluster configuration of one node. Every peer must agree on
/// `replication` or the rings diverge.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This node's stable id.
    pub node_id: String,
    /// The *other* members (self is implied).
    pub peers: Vec<PeerSpec>,
    /// Owners per key (primary + R-1 replicas), clamped to cluster size.
    pub replication: usize,
    /// Pause between health probes of one peer.
    pub probe_interval_ms: u64,
    /// Connect + read timeout of one probe or forwarded certificate.
    pub probe_timeout_ms: u64,
}

impl ClusterConfig {
    /// Production defaults for a node named `node_id` with the given
    /// peer list: R=2, 250 ms probes with a 500 ms timeout.
    pub fn new(node_id: impl Into<String>, peers: Vec<PeerSpec>) -> ClusterConfig {
        ClusterConfig {
            node_id: node_id.into(),
            peers,
            replication: 2,
            probe_interval_ms: 250,
            probe_timeout_ms: 500,
        }
    }
}

/// Failure-detector verdict on one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    /// Probes answer; forward and replicate freely.
    Alive,
    /// `SUSPECT_AFTER` consecutive probe misses: still a forward target
    /// of last resort, no longer preferred.
    Suspect,
    /// `DOWN_AFTER` consecutive misses: excluded until a probe succeeds.
    Down,
    /// The peer reported a graceful drain (leave-intent): excluded from
    /// forwarding, but not a failure — it is finishing its own work.
    Leaving,
}

impl PeerState {
    /// Lowercase label for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            PeerState::Alive => "alive",
            PeerState::Suspect => "suspect",
            PeerState::Down => "down",
            PeerState::Leaving => "leaving",
        }
    }
}

struct PeerStatus {
    addr: String,
    state: PeerState,
    /// Consecutive probe failures since the last success.
    failures: u32,
    next_probe: Instant,
    /// Chaos hook: probes and deliveries to a partitioned peer fail
    /// artificially without touching the network.
    partitioned: bool,
}

/// Why a certificate sits in the outbox: proactive replication to a
/// live replica, or a hint parked for a peer that was not reachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeliveryKind {
    Replicate,
    Handoff,
}

struct Delivery {
    target: String,
    push: CertPush,
    kind: DeliveryKind,
    not_before: Instant,
}

/// Shared cluster state of one node: the ring, the peer table the
/// failure detector maintains, and the bounded certificate outbox.
pub struct Cluster {
    cfg: ClusterConfig,
    ring: Ring,
    metrics: Arc<Metrics>,
    peers: Mutex<HashMap<String, PeerStatus>>,
    outbox: Mutex<VecDeque<Delivery>>,
    log: bool,
}

impl Cluster {
    /// Builds the node's cluster view. Peers start `Alive` (optimistic:
    /// forwarding works from the first request; the detector demotes
    /// unreachable peers within `SUSPECT_AFTER` probe intervals).
    pub fn new(cfg: ClusterConfig, metrics: Arc<Metrics>, log: bool) -> Cluster {
        let mut members: Vec<String> = cfg.peers.iter().map(|p| p.id.clone()).collect();
        members.push(cfg.node_id.clone());
        let ring = Ring::new(members, VNODES, RING_SEED);
        let now = Instant::now();
        let peers: HashMap<String, PeerStatus> = cfg
            .peers
            .iter()
            .map(|p| {
                (
                    p.id.clone(),
                    PeerStatus {
                        addr: p.addr.clone(),
                        state: PeerState::Alive,
                        failures: 0,
                        next_probe: now,
                        partitioned: false,
                    },
                )
            })
            .collect();
        metrics
            .cluster_ring_nodes
            .store(ring.len() as i64, Ordering::Relaxed);
        let cluster = Cluster {
            cfg,
            ring,
            metrics,
            peers: Mutex::new(peers),
            outbox: Mutex::new(VecDeque::new()),
            log,
        };
        cluster.refresh_gauges(&cluster.peers.lock());
        cluster
    }

    /// This node's id.
    pub fn node_id(&self) -> &str {
        &self.cfg.node_id
    }

    /// The shared ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The configuration the node was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// `true` iff this node is among the `R` owners of `key` — such
    /// requests are served locally, everything else is forwarded.
    pub fn owns(&self, key: u64) -> bool {
        self.ring
            .is_owner(&self.cfg.node_id, key, self.cfg.replication)
    }

    /// Forward targets for a non-owned `key`, best first: the owners in
    /// ring order, `Alive` before `Suspect`, `Down`/`Leaving` skipped.
    /// Empty means every owner is unusable — solve locally.
    pub fn forward_candidates(&self, key: u64) -> Vec<(String, String)> {
        let peers = self.peers.lock();
        let mut alive = Vec::new();
        let mut suspect = Vec::new();
        for id in self.ring.owners(key, self.cfg.replication) {
            if id == self.cfg.node_id {
                continue;
            }
            if let Some(p) = peers.get(id) {
                match p.state {
                    PeerState::Alive => alive.push((id.to_string(), p.addr.clone())),
                    PeerState::Suspect => suspect.push((id.to_string(), p.addr.clone())),
                    PeerState::Down | PeerState::Leaving => {}
                }
            }
        }
        alive.extend(suspect);
        alive
    }

    /// The current failure-detector state of `id` (`None`: not a peer).
    pub fn peer_state(&self, id: &str) -> Option<PeerState> {
        self.peers.lock().get(id).map(|p| p.state)
    }

    /// All peers with their states, sorted by id (for `/healthz`).
    pub fn peer_states(&self) -> Vec<(String, PeerState)> {
        let peers = self.peers.lock();
        let mut v: Vec<(String, PeerState)> =
            peers.iter().map(|(id, p)| (id.clone(), p.state)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Chaos hook: while set, every probe of and delivery to `id` fails
    /// without touching the network — from this node's point of view the
    /// peer is partitioned away.
    pub fn set_partitioned(&self, id: &str, partitioned: bool) {
        if let Some(p) = self.peers.lock().get_mut(id) {
            p.partitioned = partitioned;
        }
    }

    pub(crate) fn is_peer_partitioned(&self, id: &str) -> bool {
        self.peers.lock().get(id).is_some_and(|p| p.partitioned)
    }

    /// One request to peer `id` at `addr` over a fresh connection — how
    /// every forward, probe and certificate push reaches a peer: the dial
    /// is bounded by the probe timeout (a dead peer must never hold a
    /// caller for the kernel's default connect timeout of minutes), the
    /// reply by `read`. `None` when the peer is partitioned away or the
    /// exchange fails.
    pub(crate) fn call_peer(
        &self,
        id: &str,
        addr: &str,
        read: Duration,
        req: &Request,
    ) -> Option<Response> {
        if self.is_peer_partitioned(id) {
            return None;
        }
        let dial = Duration::from_millis(self.cfg.probe_timeout_ms);
        let mut client = Client::connect_timeout(addr, dial).ok()?;
        client.set_read_timeout(Some(read));
        client.request(req).ok()
    }

    /// Queues `push` for every *other* owner of `fingerprint`: live
    /// replicas get a replication push, unreachable owners a hint that
    /// flushes on recovery. Called after every verified cacheable solve
    /// (which covers both steady-state replication and the local-fallback
    /// handoff — the owners of a non-owned key are exactly the nodes the
    /// certificate must reach).
    pub fn replicate(&self, fingerprint: u64, push: &CertPush) {
        let peers = self.peers.lock();
        let mut outbox = self.outbox.lock();
        for id in self.ring.owners(fingerprint, self.cfg.replication) {
            if id == self.cfg.node_id {
                continue;
            }
            let kind = match peers.get(id).map(|p| p.state) {
                Some(PeerState::Alive) => DeliveryKind::Replicate,
                _ => DeliveryKind::Handoff,
            };
            if kind == DeliveryKind::Handoff {
                self.metrics
                    .cluster_handoffs_queued
                    .fetch_add(1, Ordering::Relaxed);
            }
            if outbox.len() >= OUTBOX_CAPACITY {
                outbox.pop_front();
            }
            outbox.push_back(Delivery {
                target: id.to_string(),
                push: push.clone(),
                kind,
                not_before: Instant::now(),
            });
        }
    }

    /// Queues hints for every store record the recovered `peer` owns
    /// (incremental key handoff after a membership change heals).
    fn queue_handoff(&self, peer: &str, records: &[StoreRecord]) {
        let _sp = htd_trace::span!("cluster.handoff");
        let mut queued = 0u64;
        let mut outbox = self.outbox.lock();
        for rec in records {
            if !self
                .ring
                .is_owner(peer, rec.fingerprint, self.cfg.replication)
            {
                continue;
            }
            if outbox.len() >= OUTBOX_CAPACITY {
                outbox.pop_front();
            }
            outbox.push_back(Delivery {
                target: peer.to_string(),
                push: CertPush {
                    objective: htd_search::Objective::from_name(rec.objective)
                        .unwrap_or(htd_search::Objective::Treewidth),
                    format: rec.format,
                    instance: rec.instance.clone(),
                    fingerprint_hex: format!("{:016x}", rec.fingerprint),
                    effort_ms: rec.effort_ms,
                    outcome: rec.outcome.clone(),
                    from: Some(self.cfg.node_id.clone()),
                },
                kind: DeliveryKind::Handoff,
                not_before: Instant::now(),
            });
            queued += 1;
        }
        self.metrics
            .cluster_handoffs_queued
            .fetch_add(queued, Ordering::Relaxed);
        self.log(format_args!(
            "handoff queued to recovered peer={peer} records={queued}"
        ));
    }

    /// Peers whose probe is due, with their addresses.
    fn due_probes(&self, now: Instant) -> Vec<(String, String)> {
        self.peers
            .lock()
            .iter()
            .filter(|(_, p)| now >= p.next_probe)
            .map(|(id, p)| (id.clone(), p.addr.clone()))
            .collect()
    }

    /// Applies one probe result to the state machine. Returns `true`
    /// when the peer just *recovered* (was `Down`, is `Alive` again) so
    /// the agent can start a handoff.
    fn note_probe(&self, id: &str, result: Result<bool, ()>, now: Instant) -> bool {
        let mut peers = self.peers.lock();
        let Some(p) = peers.get_mut(id) else {
            return false;
        };
        let before = p.state;
        let mut recovered = false;
        match result {
            Ok(draining) => {
                p.failures = 0;
                p.state = if draining {
                    PeerState::Leaving
                } else {
                    PeerState::Alive
                };
                if before == PeerState::Down && p.state == PeerState::Alive {
                    recovered = true;
                }
                p.next_probe = now + Duration::from_millis(self.cfg.probe_interval_ms);
            }
            Err(()) => {
                self.metrics
                    .cluster_probe_failures
                    .fetch_add(1, Ordering::Relaxed);
                p.failures = p.failures.saturating_add(1);
                if p.failures >= DOWN_AFTER {
                    p.state = PeerState::Down;
                } else if p.failures >= SUSPECT_AFTER {
                    p.state = PeerState::Suspect;
                }
                // back off on peers already declared down so a long
                // outage does not burn a probe slot every interval
                let backoff = if p.state == PeerState::Down {
                    DOWN_PROBE_BACKOFF
                } else {
                    1
                };
                p.next_probe = now + Duration::from_millis(self.cfg.probe_interval_ms) * backoff;
            }
        }
        let after = p.state;
        if before != after {
            self.refresh_gauges(&peers);
            drop(peers);
            self.log(format_args!(
                "peer={id} {} -> {}",
                before.name(),
                after.name()
            ));
        }
        recovered
    }

    /// Pops the first outbox delivery whose target is `Alive` and whose
    /// backoff has passed.
    fn take_delivery(&self, now: Instant) -> Option<(Delivery, String)> {
        let peers = self.peers.lock();
        let mut outbox = self.outbox.lock();
        let idx = outbox.iter().position(|d| {
            now >= d.not_before
                && peers
                    .get(&d.target)
                    .is_some_and(|p| p.state == PeerState::Alive)
        })?;
        let d = outbox.remove(idx)?;
        let addr = peers.get(&d.target)?.addr.clone();
        Some((d, addr))
    }

    fn requeue(&self, mut d: Delivery, now: Instant) {
        // a failed replication becomes a hint: it now waits for the
        // peer rather than racing a dead connection
        d.kind = DeliveryKind::Handoff;
        d.not_before = now + REDELIVERY_BACKOFF;
        let mut outbox = self.outbox.lock();
        if outbox.len() >= OUTBOX_CAPACITY {
            outbox.pop_front();
        }
        outbox.push_back(d);
    }

    /// Certificates currently waiting in the outbox.
    pub fn outbox_len(&self) -> usize {
        self.outbox.lock().len()
    }

    fn refresh_gauges(&self, peers: &HashMap<String, PeerStatus>) {
        let count = |s: PeerState| peers.values().filter(|p| p.state == s).count() as i64;
        self.metrics
            .cluster_peers_alive
            .store(count(PeerState::Alive), Ordering::Relaxed);
        self.metrics
            .cluster_peers_suspect
            .store(count(PeerState::Suspect), Ordering::Relaxed);
        self.metrics
            .cluster_peers_down
            .store(count(PeerState::Down), Ordering::Relaxed);
        self.metrics
            .cluster_peers_leaving
            .store(count(PeerState::Leaving), Ordering::Relaxed);
    }

    fn log(&self, line: std::fmt::Arguments<'_>) {
        if self.log {
            eprintln!("[htd-cluster {}] {line}", self.cfg.node_id);
        }
    }

    /// One failure-detector + delivery pass; the agent thread calls this
    /// in a loop. Split out so tests can drive the detector without
    /// threads or sleeps.
    pub fn tick(&self, store: Option<&CertStore>) {
        let now = Instant::now();
        let timeout = Duration::from_millis(self.cfg.probe_timeout_ms);
        let ping = Request {
            id: Some("probe".into()),
            cmd: Command::Ping,
        };
        for (id, addr) in self.due_probes(now) {
            let _sp = htd_trace::span!("cluster.probe");
            // `Ok(draining)` on any well-formed pong
            let result = match self.call_peer(&id, &addr, timeout, &ping) {
                Some(r) if r.status == Status::Pong => Ok(r.draining),
                _ => Err(()),
            };
            if self.note_probe(&id, result, Instant::now()) {
                // recovery: replay the local store and hand the peer
                // every verified record it owns
                if let Some(store) = store {
                    match store.replay() {
                        Ok(records) => self.queue_handoff(&id, &records),
                        Err(e) => self.log(format_args!("store replay for handoff failed: {e}")),
                    }
                }
            }
        }
        for _ in 0..DELIVERIES_PER_TICK {
            let now = Instant::now();
            let Some((d, addr)) = self.take_delivery(now) else {
                break;
            };
            let _sp = htd_trace::span!("cluster.push");
            let push = Request {
                id: Some("push".into()),
                cmd: Command::PutCert(d.push.clone()),
            };
            // verification re-solves nothing but re-checks a certificate,
            // which on large instances takes real time: give the read some
            // slack
            let reply = self.call_peer(&d.target, &addr, timeout * 4, &push);
            let delivered = reply.is_some_and(|r| {
                if r.status != Status::Ok {
                    // the receiver's oracle rejected the claim: it
                    // recomputes on demand; re-sending cannot help
                    self.log(format_args!(
                        "peer={} rejected certificate fp={}",
                        d.target, d.push.fingerprint_hex
                    ));
                }
                true
            });
            if delivered {
                match d.kind {
                    DeliveryKind::Replicate => self
                        .metrics
                        .cluster_replications
                        .fetch_add(1, Ordering::Relaxed),
                    DeliveryKind::Handoff => self
                        .metrics
                        .cluster_handoffs_delivered
                        .fetch_add(1, Ordering::Relaxed),
                };
            } else {
                self.requeue(d, now);
            }
        }
    }
}

/// The cluster agent: probes peers, flushes the outbox, triggers
/// recovery handoffs. One thread per node, spawned by the server.
pub(crate) fn run_agent(cluster: &Cluster, store: Option<&CertStore>, shutdown: &AtomicBool) {
    htd_trace::set_worker("cluster");
    while !shutdown.load(Ordering::SeqCst) {
        cluster.tick(store);
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cluster(peers: Vec<PeerSpec>) -> Cluster {
        let mut cfg = ClusterConfig::new("self", peers);
        cfg.probe_interval_ms = 1;
        Cluster::new(cfg, Arc::new(Metrics::new()), false)
    }

    fn peer(id: &str) -> PeerSpec {
        PeerSpec {
            id: id.into(),
            addr: format!("127.0.0.1:1{}", id.len()),
        }
    }

    #[test]
    fn detector_walks_suspect_then_down_then_recovers() {
        let c = test_cluster(vec![peer("a"), peer("bb")]);
        assert_eq!(c.peer_state("a"), Some(PeerState::Alive));
        let now = Instant::now();
        c.note_probe("a", Err(()), now);
        assert_eq!(c.peer_state("a"), Some(PeerState::Alive));
        c.note_probe("a", Err(()), now);
        assert_eq!(c.peer_state("a"), Some(PeerState::Suspect));
        c.note_probe("a", Err(()), now);
        c.note_probe("a", Err(()), now);
        assert_eq!(c.peer_state("a"), Some(PeerState::Down));
        assert_eq!(c.metrics.cluster_peers_down.load(Ordering::Relaxed), 1);
        // success from Down = recovery
        assert!(c.note_probe("a", Ok(false), now));
        assert_eq!(c.peer_state("a"), Some(PeerState::Alive));
        // success from Alive is not a recovery
        assert!(!c.note_probe("a", Ok(false), now));
        assert_eq!(c.metrics.cluster_probe_failures.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_draining_pong_is_leave_intent_not_a_failure() {
        let c = test_cluster(vec![peer("a")]);
        assert!(!c.note_probe("a", Ok(true), Instant::now()));
        assert_eq!(c.peer_state("a"), Some(PeerState::Leaving));
        assert_eq!(c.metrics.cluster_peers_leaving.load(Ordering::Relaxed), 1);
        assert_eq!(c.metrics.cluster_probe_failures.load(Ordering::Relaxed), 0);
        // leaving peers are not forward candidates
        for key in 0..64 {
            assert!(c.forward_candidates(key).is_empty());
        }
    }

    #[test]
    fn forward_candidates_prefer_alive_over_suspect_and_skip_down() {
        let c = test_cluster(vec![peer("a"), peer("bb"), peer("ccc")]);
        // find a key owned by two remote peers
        let key = (0..10_000u64)
            .find(|&k| !c.owns(k) && c.forward_candidates(k).len() == 2)
            .expect("some key has two remote owners");
        let initial = c.forward_candidates(key);
        let first = initial[0].0.clone();
        let now = Instant::now();
        for _ in 0..SUSPECT_AFTER {
            c.note_probe(&first, Err(()), now);
        }
        let after = c.forward_candidates(key);
        assert_eq!(after.len(), 2);
        assert_eq!(after.last().unwrap().0, first, "suspect sorts last");
        for _ in 0..DOWN_AFTER {
            c.note_probe(&first, Err(()), now);
        }
        assert_eq!(c.forward_candidates(key).len(), 1, "down is skipped");
    }

    #[test]
    fn replication_queues_for_remote_owners_only() {
        let c = test_cluster(vec![peer("a"), peer("bb")]);
        let push = CertPush {
            objective: htd_search::Objective::Treewidth,
            format: crate::protocol::InstanceFormat::PaceGr,
            instance: String::new(),
            fingerprint_hex: "0".repeat(16),
            effort_ms: 1,
            outcome: htd_search::Outcome {
                objective: htd_search::Objective::Treewidth,
                lower: 1,
                upper: 1,
                exact: true,
                witness: None,
                nodes: 0,
                elapsed: Duration::ZERO,
                per_engine: Vec::new(),
                winner: None,
                time_to_first_upper: None,
                time_to_best_upper: None,
                cover_cache_hits: 0,
                cover_cache_misses: 0,
                degraded: false,
                skipped_engines: Vec::new(),
                deadline_stopped: false,
                mem_budget_aborts: 0,
                detk: Default::default(),
            },
            from: Some("self".into()),
        };
        // R=2: exactly one remote owner gets a copy whether or not we
        // own the key ourselves
        c.replicate(7, &push);
        let remote_owners = c
            .ring()
            .owners(7, 2)
            .iter()
            .filter(|&&o| o != "self")
            .count();
        assert_eq!(c.outbox_len(), remote_owners);
    }

    #[test]
    fn partitioned_peers_fail_probes_without_a_network() {
        let c = test_cluster(vec![peer("a")]);
        c.set_partitioned("a", true);
        assert!(c.is_peer_partitioned("a"));
        // a tick probes the partitioned peer and records the failure
        // without dialing the (bogus) address
        c.tick(None);
        assert!(c.metrics.cluster_probe_failures.load(Ordering::Relaxed) >= 1);
        c.set_partitioned("a", false);
        assert!(!c.is_peer_partitioned("a"));
    }
}
