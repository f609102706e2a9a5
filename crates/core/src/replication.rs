//! Controller replication (§3 of the paper).
//!
//! > "no state needs to be synchronized across the backups as both
//! > backups will receive exactly the same input (BGP routes) and run
//! > the exact same deterministic algorithm and, hence, eventually
//! > compute the same outcome."
//!
//! This module turns that claim into checkable code: a
//! [`ReplicaSet`] drives N engines with the same input stream and
//! asserts digest equality after every step. The property tests drive
//! five replicated engines through it, failover and repair included.

use crate::engine::{Engine, EngineAction, EngineConfig, FailoverPlan};
use sc_bgp::msg::UpdateMsg;
use sc_bgp::PeerId;

/// N engines fed identical input.
pub struct ReplicaSet {
    replicas: Vec<Engine>,
    /// Number of steps processed (for divergence reports).
    steps: u64,
}

/// Raised when replicas disagree — which would break the paper's
/// synchronization-free failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    pub step: u64,
    pub digests: Vec<u64>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replicas diverged at step {}: {:x?}",
            self.step, self.digests
        )
    }
}

impl std::error::Error for Divergence {}

impl ReplicaSet {
    /// Build `n` replicas from the same configuration.
    pub fn new(cfg: EngineConfig, n: usize) -> ReplicaSet {
        assert!(n >= 1);
        ReplicaSet {
            replicas: (0..n).map(|_| Engine::new(cfg.clone())).collect(),
            steps: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The primary replica (the one whose actions are applied).
    pub fn primary(&self) -> &Engine {
        &self.replicas[0]
    }

    /// Feed one update to every replica; returns the primary's actions
    /// after checking all replicas agree.
    pub fn process_update(
        &mut self,
        peer: PeerId,
        upd: &UpdateMsg,
    ) -> Result<Vec<EngineAction>, Divergence> {
        self.steps += 1;
        let mut first_actions = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let actions = r.process_update(peer, upd);
            if i == 0 {
                first_actions = Some(actions);
            }
        }
        self.check()?;
        Ok(first_actions.unwrap())
    }

    /// Feed a failover to every replica.
    pub fn failover(&mut self, dead: PeerId) -> Result<FailoverPlan, Divergence> {
        self.steps += 1;
        let mut first = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let plan = r.failover_plan(dead);
            if i == 0 {
                first = Some(plan);
            }
        }
        self.check()?;
        Ok(first.unwrap())
    }

    /// Feed the control-plane repair to every replica.
    pub fn repair(&mut self, dead: PeerId) -> Result<Vec<EngineAction>, Divergence> {
        self.steps += 1;
        let mut first = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            let actions = r.peer_down_repair(dead);
            if i == 0 {
                first = Some(actions);
            }
        }
        self.check()?;
        Ok(first.unwrap())
    }

    /// Kill the primary: the next replica takes over. Returns false when
    /// this was the last one.
    pub fn fail_primary(&mut self) -> bool {
        self.replicas.remove(0);
        !self.replicas.is_empty()
    }

    fn check(&self) -> Result<(), Divergence> {
        let digests: Vec<u64> = self.replicas.iter().map(|r| r.state_digest()).collect();
        if digests.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(Divergence {
                step: self.steps,
                digests,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PeerSpec;
    use sc_bgp::attrs::{AsPath, RouteAttrs};
    use sc_net::MacAddr;
    use std::net::Ipv4Addr;

    const R2: PeerId = Ipv4Addr::new(10, 0, 0, 2);
    const R3: PeerId = Ipv4Addr::new(10, 0, 0, 3);

    fn cfg() -> EngineConfig {
        EngineConfig::new(
            "10.0.200.0/24".parse().unwrap(),
            vec![
                PeerSpec {
                    id: R2,
                    mac: MacAddr([2, 0, 0, 0, 0, 2]),
                    switch_port: 2,
                    local_pref: 200,
                    router_id: R2,
                },
                PeerSpec {
                    id: R3,
                    mac: MacAddr([2, 0, 0, 0, 0, 3]),
                    switch_port: 3,
                    local_pref: 100,
                    router_id: R3,
                },
            ],
        )
    }

    fn upd(peer: PeerId, n: u32, seed: u32) -> UpdateMsg {
        let attrs =
            RouteAttrs::ebgp(AsPath::sequence(vec![(65000 + seed % 7) as u16, 174]), peer).shared();
        let nlri = (0..n)
            .map(|i| {
                sc_net::Ipv4Prefix::new(
                    Ipv4Addr::from(0x0100_0000u32 + (((seed * 131 + i) % 5000) << 8)),
                    24,
                )
            })
            .collect();
        UpdateMsg::announce(attrs, nlri)
    }

    #[test]
    fn replicas_agree_over_churny_stream() {
        let mut set = ReplicaSet::new(cfg(), 3);
        for step in 0..200u32 {
            let peer = if step % 2 == 0 { R2 } else { R3 };
            set.process_update(peer, &upd(peer, 20, step))
                .expect("no divergence");
        }
        // Both digests were recorded before `Announced` moved out of its
        // own trie into the RIB entries: the externally visible state,
        // and the order the digest walks it in, did not change.
        assert_eq!(set.primary().state_digest(), 0x7244_d5d5_3f5f_0992);
        set.failover(R2).expect("no divergence");
        set.repair(R2).expect("no divergence");
        assert_eq!(set.primary().state_digest(), 0xf3c1_5f1c_7bcd_c27e);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn backup_takes_over_with_identical_state() {
        let mut set = ReplicaSet::new(cfg(), 2);
        // Both peers announce the same prefix sets (seed = step/2), so
        // every prefix ends up protected by an (R2,R3) group.
        for step in 0..50u32 {
            let peer = if step % 2 == 0 { R2 } else { R3 };
            set.process_update(peer, &upd(peer, 10, step / 2)).unwrap();
        }
        let digest_before = set.primary().state_digest();
        assert!(set.fail_primary(), "backup remains");
        assert_eq!(
            set.primary().state_digest(),
            digest_before,
            "the backup is bit-identical: failover needs no sync"
        );
        // And it can drive the failover by itself.
        let plan = set.failover(R2).unwrap();
        assert!(!plan.rewrites.is_empty());
    }
}
