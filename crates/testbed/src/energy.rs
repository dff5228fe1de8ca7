//! Busy time → joules integration.
//!
//! Uses the same linear idle→peak component power model as the live
//! `emlio-energymon`: every component draws its idle power for the whole
//! makespan, and each pipeline stage adds a hand-set number of watts per
//! busy server, attributed to (node role, component). DRAM draw follows CPU
//! activity at a fixed fraction. Scenario extras (DDP spin-wait) come in as
//! explicit `(role, comp, watts, secs)` terms.

use crate::nodes::NodeSpec;
use emlio_energymon::EnergyBreakdown;

/// Which physical node a stage runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The GPU training node.
    Compute,
    /// The storage server.
    Storage,
}

/// Energy-relevant component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comp {
    /// CPU packages.
    Cpu,
    /// DRAM.
    Dram,
    /// GPU.
    Gpu,
}

/// Watts-per-busy-server assignments for one pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageEnergy {
    /// `(role, component, extra watts while one server is busy)`.
    pub assignments: Vec<(Role, Comp, f64)>,
}

impl StageEnergy {
    /// Stage with the given assignments.
    pub fn new(assignments: &[(Role, Comp, f64)]) -> StageEnergy {
        StageEnergy {
            assignments: assignments.to_vec(),
        }
    }

    /// Stage that draws nothing beyond idle (pure propagation).
    pub fn none() -> StageEnergy {
        StageEnergy::default()
    }
}

/// Additional energy term outside the pipeline stages (e.g. DDP spin).
#[derive(Debug, Clone, Copy)]
pub struct ExtraDraw {
    /// Node the draw occurs on.
    pub role: Role,
    /// Component.
    pub comp: Comp,
    /// Watts above idle.
    pub watts: f64,
    /// Active seconds.
    pub secs: f64,
}

/// Per-node energy results.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterEnergy {
    /// The compute node.
    pub compute: EnergyBreakdown,
    /// The storage node (zero when the scenario folds storage into compute).
    pub storage: EnergyBreakdown,
}

impl ClusterEnergy {
    /// Sum across nodes.
    pub fn total_j(&self) -> f64 {
        self.compute.total_j() + self.storage.total_j()
    }
}

/// DRAM activity as a fraction of CPU activity (DDR4 under streaming).
const DRAM_TRACKS_CPU: f64 = 0.15;

/// Integrate a run of `makespan` seconds, whose stages were busy for
/// `busy_secs` server-seconds each, into per-node joules.
///
/// `fold_storage_into_compute`: the sharded scenario has no dedicated
/// storage node — daemon/NFS-server work lands on the compute node.
pub fn integrate(
    makespan: f64,
    busy_secs: &[f64],
    energy_map: &[StageEnergy],
    compute: &NodeSpec,
    storage: Option<&NodeSpec>,
    extras: &[ExtraDraw],
    fold_storage_into_compute: bool,
) -> ClusterEnergy {
    assert_eq!(
        busy_secs.len(),
        energy_map.len(),
        "energy map must align with stages"
    );

    // Idle floors.
    let mut out = ClusterEnergy {
        compute: idle_floor(compute, makespan),
        ..ClusterEnergy::default()
    };
    if let (Some(s), false) = (storage, fold_storage_into_compute) {
        out.storage = idle_floor(s, makespan);
    }

    // Stage activity.
    for (&busy, se) in busy_secs.iter().zip(energy_map) {
        for &(role, comp, watts) in &se.assignments {
            let role = effective_role(role, fold_storage_into_compute);
            let joules = watts * busy;
            add(&mut out, role, comp, joules);
            if comp == Comp::Cpu {
                add(&mut out, role, Comp::Dram, joules * DRAM_TRACKS_CPU);
            }
        }
    }

    // Scenario extras.
    for e in extras {
        let role = effective_role(e.role, fold_storage_into_compute);
        add(&mut out, role, e.comp, e.watts * e.secs);
    }
    out
}

fn effective_role(role: Role, fold: bool) -> Role {
    if fold {
        Role::Compute
    } else {
        role
    }
}

fn idle_floor(node: &NodeSpec, makespan: f64) -> EnergyBreakdown {
    EnergyBreakdown {
        cpu_j: node.power.cpu.idle_watts * makespan,
        dram_j: node.power.dram.idle_watts * makespan,
        gpu_j: node.power.gpu.map_or(0.0, |g| g.idle_watts * makespan),
        duration_secs: makespan,
    }
}

fn add(out: &mut ClusterEnergy, role: Role, comp: Comp, joules: f64) {
    let target = match role {
        Role::Compute => &mut out.compute,
        Role::Storage => &mut out.storage,
    };
    match comp {
        Comp::Cpu => target.cpu_j += joules,
        Comp::Dram => target.dram_j += joules,
        Comp::Gpu => target.gpu_j += joules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two stages of one server, 1 s and 0.5 s a batch, over four batches:
    /// busy 4 s and 2 s, the last batch out at 4.5 s.
    const MAKESPAN: f64 = 4.5;
    const BUSY: [f64; 2] = [4.0, 2.0];

    #[test]
    fn idle_plus_activity() {
        let map = vec![
            StageEnergy::new(&[(Role::Storage, Comp::Cpu, 100.0)]),
            StageEnergy::new(&[(Role::Compute, Comp::Gpu, 200.0)]),
        ];
        let compute = NodeSpec::uc_compute();
        let storage = NodeSpec::uc_storage();
        let e = integrate(MAKESPAN, &BUSY, &map, &compute, Some(&storage), &[], false);

        // Storage CPU: idle 40 W × 4.5 + 100 W × 4 s = 580 J.
        assert!((e.storage.cpu_j - (40.0 * 4.5 + 400.0)).abs() < 1e-6);
        // Storage DRAM: idle 6 × 4.5 + 0.15 × 400 = 87 J.
        assert!((e.storage.dram_j - (6.0 * 4.5 + 60.0)).abs() < 1e-6);
        // Compute GPU: idle 25 × 4.5 + 200 × 2 = 512.5 J.
        assert!((e.compute.gpu_j - (25.0 * 4.5 + 400.0)).abs() < 1e-6);
        // Storage node has no GPU.
        assert_eq!(e.storage.gpu_j, 0.0);
    }

    #[test]
    fn folding_moves_storage_onto_compute() {
        let map = vec![
            StageEnergy::new(&[(Role::Storage, Comp::Cpu, 100.0)]),
            StageEnergy::none(),
        ];
        let compute = NodeSpec::uc_compute();
        let e = integrate(MAKESPAN, &BUSY, &map, &compute, None, &[], true);
        assert_eq!(e.storage.total_j(), 0.0);
        // Compute CPU gets idle + the folded storage work.
        assert!((e.compute.cpu_j - (40.0 * 4.5 + 400.0)).abs() < 1e-6);
    }

    #[test]
    fn extras_added() {
        let map = vec![StageEnergy::none(), StageEnergy::none()];
        let compute = NodeSpec::uc_compute();
        let extras = [ExtraDraw {
            role: Role::Compute,
            comp: Comp::Gpu,
            watts: 100.0,
            secs: 3.0,
        }];
        let e = integrate(MAKESPAN, &BUSY, &map, &compute, None, &extras, true);
        assert!((e.compute.gpu_j - (25.0 * 4.5 + 300.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn misaligned_map_panics() {
        let compute = NodeSpec::uc_compute();
        let _ = integrate(MAKESPAN, &BUSY, &[], &compute, None, &[], true);
    }
}
