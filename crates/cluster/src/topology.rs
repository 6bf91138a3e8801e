//! Physical cluster topology: racks of machines with heterogeneous
//! capacity classes, replicated input placement, and locality-first
//! task placement.
//!
//! A [`TopologyConfig`] declares racks × machine classes (the
//! Google-trace 0.25/0.5/1.0 capacity mix), every stage's input is cut
//! into `data_splits` splits with `data_copies` replicas placed on
//! concrete machines, and `LocalityFirst` decides where each task
//! runs. A task's runtime multiplier then *derives* from where it
//! landed: the inverse of its machine's capacity, times a locality
//! factor (1 on a replica holder, `rack_penalty` in the same rack as
//! one, `remote_penalty` otherwise).
//!
//! Topology is opt-in via `ClusterConfig::topology`; when `None` the
//! engine runs the flat model, whose event and RNG streams predate
//! topology and stay bit-identical.

use rand::rngs::StdRng;
use rand::Rng;

/// One machine class in the heterogeneous mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineClass {
    /// Relative capacity (1.0 = full-speed). A task placed on this
    /// class runs `1 / capacity` times its nominal duration.
    pub capacity: f64,
    /// Machines of this class in every rack.
    pub count_per_rack: u32,
}

/// Declarative cluster-topology configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyConfig {
    /// Number of racks; a whole rack can fail as one correlated event.
    pub racks: u32,
    /// Machine-class mix replicated in every rack.
    pub classes: Vec<MachineClass>,
    /// Concurrent tasks one machine can host (placement-policy hint;
    /// also bounds total tokens in `ClusterConfig::validate`).
    pub slots_per_machine: u32,
    /// Input splits per stage: task `i` of a stage reads split
    /// `i % data_splits`.
    pub data_splits: u32,
    /// Replicas placed per split (on distinct machines).
    pub data_copies: u32,
    /// Runtime multiplier for a task scheduled off its replicas but in
    /// the same rack as one (`>= 1`).
    pub rack_penalty: f64,
    /// Runtime multiplier for a task with no replica in its rack
    /// (`>= rack_penalty`).
    pub remote_penalty: f64,
}

impl TopologyConfig {
    /// The Google-trace mix (SNIPPETS.md §2): per rack of ten, five
    /// full machines, three at half capacity, two at a quarter.
    pub fn google_mix(racks: u32) -> Self {
        TopologyConfig {
            racks,
            classes: vec![
                MachineClass {
                    capacity: 1.0,
                    count_per_rack: 5,
                },
                MachineClass {
                    capacity: 0.5,
                    count_per_rack: 3,
                },
                MachineClass {
                    capacity: 0.25,
                    count_per_rack: 2,
                },
            ],
            slots_per_machine: 4,
            data_splits: 8,
            data_copies: 3,
            rack_penalty: 1.1,
            remote_penalty: 1.3,
        }
    }

    /// A homogeneous topology: `racks` racks of `per_rack` full-speed
    /// machines.
    pub fn uniform(racks: u32, per_rack: u32) -> Self {
        TopologyConfig {
            racks,
            classes: vec![MachineClass {
                capacity: 1.0,
                count_per_rack: per_rack,
            }],
            slots_per_machine: 4,
            data_splits: 8,
            data_copies: 3,
            rack_penalty: 1.1,
            remote_penalty: 1.3,
        }
    }

    /// Machines in one rack.
    pub fn machines_per_rack(&self) -> u32 {
        self.classes.iter().map(|c| c.count_per_rack).sum()
    }

    /// Machines in the whole topology.
    pub fn machine_count(&self) -> u32 {
        self.racks * self.machines_per_rack()
    }

    /// Checks internal consistency (cross-field checks against failure
    /// and token configuration live in `ClusterConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if self.racks == 0 {
            return Err("racks must be >= 1".into());
        }
        if self.classes.is_empty() {
            return Err("classes must be non-empty".into());
        }
        for (i, c) in self.classes.iter().enumerate() {
            if !c.capacity.is_finite() || c.capacity <= 0.0 {
                return Err(format!("class {i} capacity must be finite and > 0"));
            }
        }
        if self.machines_per_rack() == 0 {
            return Err("each rack must hold at least one machine".into());
        }
        if self.slots_per_machine == 0 {
            return Err("slots_per_machine must be >= 1".into());
        }
        if self.data_splits == 0 {
            return Err("data_splits must be >= 1".into());
        }
        if self.data_copies == 0 {
            return Err("data_copies must be >= 1".into());
        }
        if self.data_copies > self.machine_count() {
            return Err(format!(
                "data_copies ({}) exceeds machine count ({})",
                self.data_copies,
                self.machine_count()
            ));
        }
        for (name, p) in [
            ("rack_penalty", self.rack_penalty),
            ("remote_penalty", self.remote_penalty),
        ] {
            if !p.is_finite() || p < 1.0 {
                return Err(format!("{name} must be finite and >= 1"));
            }
        }
        if self.remote_penalty < self.rack_penalty {
            return Err("remote_penalty must be >= rack_penalty".into());
        }
        Ok(())
    }
}

/// A realized topology: the flat machine table the engine indexes by
/// machine id. Layout is rack-major — rack `r` owns the contiguous id
/// range `[r * machines_per_rack, (r + 1) * machines_per_rack)` — so
/// rack membership is arithmetic, not a lookup.
#[derive(Clone, Debug)]
pub struct ClusterTopology {
    cfg: TopologyConfig,
    /// Per-machine capacity, rack-major, classes in declaration order.
    capacity: Vec<f64>,
}

impl ClusterTopology {
    /// Realizes a validated config into the flat machine table.
    pub fn build(cfg: &TopologyConfig) -> Self {
        let mut capacity = Vec::with_capacity(cfg.machine_count() as usize);
        for _rack in 0..cfg.racks {
            for class in &cfg.classes {
                for _ in 0..class.count_per_rack {
                    capacity.push(class.capacity);
                }
            }
        }
        ClusterTopology {
            cfg: cfg.clone(),
            capacity,
        }
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Total machines.
    pub fn machine_count(&self) -> u32 {
        self.capacity.len() as u32
    }

    /// Total racks.
    pub fn rack_count(&self) -> u32 {
        self.cfg.racks
    }

    /// The rack hosting `machine`.
    pub fn rack_of(&self, machine: u32) -> u32 {
        machine / self.cfg.machines_per_rack()
    }

    /// Machine ids in `rack` (rack-major layout: a contiguous range).
    pub fn machines_in_rack(&self, rack: u32) -> std::ops::Range<u32> {
        let per = self.cfg.machines_per_rack();
        rack * per..(rack + 1) * per
    }

    /// Relative capacity of `machine`.
    pub fn capacity_of(&self, machine: u32) -> f64 {
        self.capacity[machine as usize]
    }

    /// Input splits per stage.
    pub fn data_splits(&self) -> u32 {
        self.cfg.data_splits
    }

    /// Picks `data_copies` distinct machines to host one split's
    /// replicas (uniform without replacement).
    pub fn assign_replicas(&self, rng: &mut StdRng) -> Vec<u32> {
        let copies = self.cfg.data_copies.min(self.machine_count()) as usize;
        let mut replicas: Vec<u32> = Vec::with_capacity(copies);
        while replicas.len() < copies {
            let m = rng.gen_range(0..self.machine_count());
            if !replicas.contains(&m) {
                replicas.push(m);
            }
        }
        replicas
    }

    /// The runtime multiplier for a task on `machine` whose input
    /// replicas live on `replicas`: machine-class slowdown (`1 /
    /// capacity`) times the locality factor (1 on a replica holder,
    /// `rack_penalty` beside one, `remote_penalty` otherwise).
    pub fn runtime_multiplier(&self, machine: u32, replicas: &[u32]) -> f64 {
        let class_slow = 1.0 / self.capacity_of(machine);
        let locality = if replicas.contains(&machine) {
            1.0
        } else if replicas
            .iter()
            .any(|&r| self.rack_of(r) == self.rack_of(machine))
        {
            self.cfg.rack_penalty
        } else {
            self.cfg.remote_penalty
        };
        class_slow * locality
    }
}

/// The placement policy: run on the least-loaded replica holder with a
/// free slot; failing that, the least-loaded machine overall. Ties
/// break toward the lowest machine id, so placement consumes no RNG.
#[derive(Debug, Default)]
pub(crate) struct LocalityFirst;

impl LocalityFirst {
    /// Picks the machine for one task attempt, given the realized
    /// topology, the current per-machine running-task counts and the
    /// machines holding the task's input replicas.
    pub(crate) fn place(&self, topo: &ClusterTopology, load: &[u32], replicas: &[u32]) -> u32 {
        let slots = topo.config().slots_per_machine;
        let local = replicas
            .iter()
            .copied()
            .filter(|&m| load[m as usize] < slots)
            .min_by_key(|&m| (load[m as usize], m));
        if let Some(m) = local {
            return m;
        }
        (0..topo.machine_count())
            .min_by_key(|&m| (load[m as usize], m))
            .expect("topology has at least one machine")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::rng::SeedDeriver;

    #[test]
    fn google_mix_realizes_rack_major_with_class_order() {
        let cfg = TopologyConfig::google_mix(3);
        cfg.validate().unwrap();
        let topo = ClusterTopology::build(&cfg);
        assert_eq!(topo.machine_count(), 30);
        assert_eq!(topo.rack_count(), 3);
        // Rack 1 owns ids 10..20; class order is 5x1.0, 3x0.5, 2x0.25.
        assert_eq!(topo.machines_in_rack(1), 10..20);
        assert_eq!(topo.capacity_of(10), 1.0);
        assert_eq!(topo.capacity_of(15), 0.5);
        assert_eq!(topo.capacity_of(18), 0.25);
        assert_eq!(topo.rack_of(9), 0);
        assert_eq!(topo.rack_of(10), 1);
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        let mut cfg = TopologyConfig::google_mix(2);
        cfg.data_copies = 21;
        assert!(cfg.validate().unwrap_err().contains("data_copies"));
        let mut cfg = TopologyConfig::google_mix(2);
        cfg.remote_penalty = 1.05; // below rack_penalty 1.1
        assert!(cfg.validate().is_err());
        let mut cfg = TopologyConfig::google_mix(2);
        cfg.classes.clear();
        assert!(cfg.validate().is_err());
        let mut cfg = TopologyConfig::google_mix(2);
        cfg.classes[0].capacity = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn runtime_multiplier_derives_from_geometry() {
        let topo = ClusterTopology::build(&TopologyConfig::google_mix(2));
        // Replica on machine 0 (rack 0, capacity 1.0).
        let replicas = [0u32];
        assert_eq!(topo.runtime_multiplier(0, &replicas), 1.0);
        // Same rack, full machine: rack penalty only.
        assert_eq!(topo.runtime_multiplier(1, &replicas), 1.1);
        // Same rack, quarter machine: class slowdown x rack penalty.
        assert!((topo.runtime_multiplier(8, &replicas) - 4.0 * 1.1).abs() < 1e-12);
        // Other rack, full machine: remote penalty.
        assert_eq!(topo.runtime_multiplier(10, &replicas), 1.3);
    }

    #[test]
    fn assign_replicas_picks_distinct_machines() {
        let topo = ClusterTopology::build(&TopologyConfig::google_mix(2));
        let mut rng = SeedDeriver::new(7).rng("replicas");
        for _ in 0..100 {
            let r = topo.assign_replicas(&mut rng);
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica in {r:?}");
            assert!(r.iter().all(|&m| m < 20));
        }
    }

    #[test]
    fn locality_first_prefers_free_replica_then_least_loaded() {
        let topo = ClusterTopology::build(&TopologyConfig::google_mix(1));
        let mut load = vec![0u32; 10];
        let replicas = [4u32, 7];
        // Free replicas: least-loaded replica wins.
        load[4] = 2;
        load[7] = 1;
        assert_eq!(LocalityFirst.place(&topo, &load, &replicas), 7);
        // All replicas saturated (4 slots): falls back to the globally
        // least-loaded machine, lowest id on ties.
        load[4] = 4;
        load[7] = 4;
        load[0] = 1;
        assert_eq!(LocalityFirst.place(&topo, &load, &replicas), 1);
    }
}
