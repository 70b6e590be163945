//! The paper's Emulab topology (section 5), assembled once for every
//! driver: node 0 is the infrastructure node hosting the Naming Service
//! (and, placed by each caller, the MEAD Recovery Manager); nodes
//! `1..=replicas` each host one warm-passive server replica; the client
//! nodes follow. A group-communication daemon runs on every node (as
//! Spread does), with the sequencer on the infrastructure node.
//!
//! The builder works on a [`Simulation`] the caller creates, so the
//! caller keeps its [`simnet::SimConfig`] and scheduler. Spawn order is
//! part of every digest (pids and per-process RNG streams follow it):
//! nodes first, then one `gcs-daemon` per node in node order, then
//! `naming`.

use groupcomm::{GcsConfig, GcsDaemon, GCS_PORT};
use orb::{NamingConfig, NamingService};
use simnet::{Addr, NodeId, Simulation};

/// Node ids of one assembled topology, in node order: the
/// infrastructure node, the server nodes, then the client nodes.
#[derive(Debug)]
pub struct World {
    nodes: Vec<NodeId>,
    replicas: usize,
}

impl World {
    /// Adds `node0`, `replicas` server nodes (at least one) and
    /// `client_nodes` client nodes (at least one) to `sim`, then spawns a
    /// GCS daemon on every node and the Naming Service on `node0`.
    pub fn build(sim: &mut Simulation, replicas: u32, client_nodes: u32) -> World {
        let replicas = replicas.max(1) as usize;
        let total = 1 + replicas + client_nodes.max(1) as usize;
        let world = World {
            nodes: (0..total)
                .map(|i| sim.add_node(&format!("node{i}")))
                .collect(),
            replicas,
        };
        for &node in &world.nodes {
            world.spawn_daemon(sim, node);
        }
        world.spawn_naming(sim);
        world
    }

    /// The infrastructure node (Naming, Recovery Manager, sequencer).
    pub fn infra(&self) -> NodeId {
        self.nodes[0]
    }

    /// The server nodes, one per replica slot.
    pub fn servers(&self) -> &[NodeId] {
        &self.nodes[1..=self.replicas]
    }

    /// The client nodes.
    pub fn clients(&self) -> &[NodeId] {
        &self.nodes[self.replicas + 1..]
    }

    /// The node with plan index `index` (0 = infrastructure, then the
    /// servers, then the clients), as fault plans number them.
    pub fn node(&self, index: u32) -> NodeId {
        self.nodes[index as usize]
    }

    /// Spawns a `gcs-daemon` on `node`, pointed at the sequencer on the
    /// infrastructure node (also how a crashed daemon is restarted).
    pub fn spawn_daemon(&self, sim: &mut Simulation, node: NodeId) {
        let seq = Addr::new(self.infra(), GCS_PORT);
        sim.spawn(
            node,
            "gcs-daemon",
            Box::new(GcsDaemon::new(seq, GcsConfig::default())),
        );
    }

    /// Spawns an empty `naming` service on the infrastructure node (also
    /// how a crashed one is restarted: the store is in-memory, so the
    /// new instance relies on replica re-binds).
    pub fn spawn_naming(&self, sim: &mut Simulation) {
        sim.spawn(
            self.infra(),
            "naming",
            Box::new(NamingService::new(NamingConfig::default())),
        );
    }
}
