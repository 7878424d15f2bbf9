//! Consistent-hash ring over canonical fingerprints.
//!
//! Every node of an `htd serve` cluster builds the same ring from the
//! same membership list (node ids), virtual-node count and placement
//! seed, so placement is a pure function of configuration: no
//! coordination protocol, no placement state to replicate or repair.
//! Keys are the 64-bit canonical fingerprints the cache and certificate
//! store already use, so "who owns this instance" and "which cache
//! shard holds it" are the same question.
//!
//! Virtual nodes smooth the load: each physical node hashes to
//! `vnodes` points on the ring, and a key belongs to the node owning
//! the first point clockwise from the key's (seed-mixed) position.
//! Replicas are the next *distinct* nodes on the same walk, so an
//! `R`-way replica set never names a node twice and membership changes
//! move only the keys adjacent to the changed node's points — the
//! classic consistent-hashing minimal-disruption property, verified by
//! the tests below.

use htd_hypergraph::canonical::fnv1a;
use htd_resilience::splitmix64;

/// A deterministic consistent-hash ring: `points` maps hashed vnode
/// positions to indices into `nodes`.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Sorted `(position, node index)` pairs.
    points: Vec<(u64, u32)>,
    /// Member node ids, sorted for construction determinism.
    nodes: Vec<String>,
    seed: u64,
}

impl Ring {
    /// Builds the ring. `nodes` is the full membership (self included);
    /// order does not matter — ids are sorted so every peer derives the
    /// identical ring. `vnodes` points are placed per node, seeded by
    /// `seed` (all peers must agree on both).
    pub fn new(mut nodes: Vec<String>, vnodes: usize, seed: u64) -> Ring {
        nodes.sort();
        nodes.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes);
        for (i, id) in nodes.iter().enumerate() {
            let base = fnv1a(id.as_bytes()) ^ splitmix64(seed);
            for v in 0..vnodes {
                points.push((splitmix64(base ^ splitmix64(v as u64)), i as u32));
            }
        }
        points.sort_unstable();
        // colliding positions would make placement order-dependent;
        // astronomically unlikely, resolved deterministically by node
        // index if it ever happens (sort is on the pair)
        Ring {
            points,
            nodes,
            seed,
        }
    }

    /// Member ids, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The owner plus replicas of `key`: the first `r` *distinct* nodes
    /// clockwise from the key's position, in ring order (the first entry
    /// is the primary owner). `r` is clamped to the membership size.
    pub fn owners(&self, key: u64, r: usize) -> Vec<&str> {
        let r = r.clamp(1, self.nodes.len().max(1));
        let mut out: Vec<&str> = Vec::with_capacity(r);
        if self.points.is_empty() {
            return out;
        }
        let pos = splitmix64(key ^ self.seed);
        let start = self.points.partition_point(|&(p, _)| p < pos);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            let id = self.nodes[node as usize].as_str();
            if !out.contains(&id) {
                out.push(id);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }

    /// The primary owner of `key`.
    pub fn primary(&self, key: u64) -> Option<&str> {
        self.owners(key, 1).first().copied()
    }

    /// `true` iff `id` is among the first `r` owners of `key`.
    pub fn is_owner(&self, id: &str, key: u64, r: usize) -> bool {
        self.owners(key, r).contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Ring {
        Ring::new(
            vec!["a".into(), "b".into(), "c".into()],
            64,
            0xC0FF_EE00_D15E_A5E5,
        )
    }

    #[test]
    fn placement_is_deterministic_and_order_independent() {
        let r1 = ring3();
        let r2 = Ring::new(
            vec!["c".into(), "a".into(), "b".into()],
            64,
            0xC0FF_EE00_D15E_A5E5,
        );
        for key in 0..500u64 {
            assert_eq!(r1.owners(key, 2), r2.owners(key, 2), "key {key}");
        }
    }

    #[test]
    fn replicas_are_distinct_and_led_by_the_primary() {
        let r = ring3();
        for key in 0..500u64 {
            let owners = r.owners(key, 2);
            assert_eq!(owners.len(), 2);
            assert_ne!(owners[0], owners[1]);
            assert_eq!(r.primary(key), Some(owners[0]));
            assert!(r.is_owner(owners[1], key, 2));
        }
        // r clamps to membership
        assert_eq!(r.owners(7, 99).len(), 3);
    }

    #[test]
    fn virtual_nodes_balance_the_keyspace() {
        let r = ring3();
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            let p = r.primary(splitmix64(key)).unwrap();
            counts[(p.as_bytes()[0] - b'a') as usize] += 1;
        }
        for &c in &counts {
            // perfect balance would be 1000 each; 64 vnodes keep every
            // node within a factor ~2 of its fair share
            assert!((500..=1800).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        let full = ring3();
        let reduced = Ring::new(vec!["a".into(), "b".into()], 64, 0xC0FF_EE00_D15E_A5E5);
        let mut moved = 0usize;
        for key in 0..2000u64 {
            let before = full.primary(splitmix64(key)).unwrap();
            let after = reduced.primary(splitmix64(key)).unwrap();
            if before != "c" {
                // keys not owned by the removed node must not move
                assert_eq!(before, after, "key {key} moved needlessly");
            } else {
                moved += 1;
            }
            let _ = after;
        }
        // the removed node owned roughly a third
        assert!((400..=1100).contains(&moved), "moved {moved}");
    }

    #[test]
    fn seed_changes_the_placement() {
        let a = Ring::new(vec!["a".into(), "b".into(), "c".into()], 64, 1);
        let b = Ring::new(vec!["a".into(), "b".into(), "c".into()], 64, 2);
        let differs = (0..500u64).any(|k| a.primary(k) != b.primary(k));
        assert!(differs);
    }
}
