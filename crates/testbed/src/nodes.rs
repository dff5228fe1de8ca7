//! Table 1: node inventory with calibrated power envelopes.

use emlio_energymon::{ComponentPower, NodePower};

/// Storage device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageDevice {
    /// Sequential read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Per-request positioning overhead, seconds.
    pub seek_secs: f64,
}

/// One testbed node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node name as in Table 1.
    pub name: String,
    /// Power envelope (CPU total across sockets, DRAM, optional GPU).
    pub power: NodePower,
    /// Local storage device.
    pub storage: StorageDevice,
    /// NIC bandwidth, bytes/s.
    pub nic_bw: f64,
    /// Physical cores (both sockets).
    pub cores: u32,
}

/// Calibration notes (anchors from the paper's local-disk ResNet-50 run,
/// ≈155 s epoch):
/// * CPU ≈ 10 kJ → ≈ 64 W average on a mostly-waiting 2×6126 pair →
///   idle 40 W, peak 240 W;
/// * DRAM < 1.3 kJ → ≈ 8 W → idle 6 W, peak 25 W;
/// * GPU ≈ 26.5 kJ → ≈ 170 W average while training → idle 25 W,
///   peak 260 W (Quadro RTX 6000), utilization from the backbone profile.
impl NodeSpec {
    /// UC compute (`gpu_rtx_6000`): 2× Xeon Gold 6126, RTX 6000, SAS SSD.
    pub fn uc_compute() -> NodeSpec {
        NodeSpec {
            name: "uc-compute".into(),
            power: NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: Some(ComponentPower::new(25.0, 260.0)),
            },
            storage: StorageDevice {
                read_bw: 500e6,
                seek_secs: 100e-6,
            },
            nic_bw: 1.25e9,
            cores: 24,
        }
    }

    /// UC storage (`compute_skylake`): same board, no GPU.
    pub fn uc_storage() -> NodeSpec {
        NodeSpec {
            name: "uc-storage".into(),
            power: NodePower {
                cpu: ComponentPower::new(40.0, 240.0),
                dram: ComponentPower::new(6.0, 25.0),
                gpu: None,
            },
            storage: StorageDevice {
                read_bw: 500e6,
                seek_secs: 100e-6,
            },
            nic_bw: 1.25e9,
            cores: 24,
        }
    }

    /// TACC compute (`gpu_p100`): 2× E5-2670 v3, 2× P100, SATA HDD.
    pub fn tacc_compute() -> NodeSpec {
        NodeSpec {
            name: "tacc-compute".into(),
            power: NodePower {
                cpu: ComponentPower::new(45.0, 230.0),
                dram: ComponentPower::new(6.0, 22.0),
                gpu: Some(ComponentPower::new(30.0, 250.0)),
            },
            storage: StorageDevice {
                read_bw: 150e6,
                seek_secs: 8e-3,
            },
            nic_bw: 1.25e9,
            cores: 24,
        }
    }

    /// TACC storage (`storage`): 2× E5-2650 v3, SATA SSD.
    pub fn tacc_storage() -> NodeSpec {
        NodeSpec {
            name: "tacc-storage".into(),
            power: NodePower {
                cpu: ComponentPower::new(38.0, 210.0),
                dram: ComponentPower::new(5.0, 20.0),
                gpu: None,
            },
            storage: StorageDevice {
                read_bw: 450e6,
                seek_secs: 120e-6,
            },
            nic_bw: 1.25e9,
            cores: 20,
        }
    }

    /// Render the Table 1 header printed by every `emlio figures` row.
    pub fn table1_text() -> String {
        let mut out = String::from("Table 1 testbed (Chameleon): \n");
        for n in [
            Self::uc_compute(),
            Self::uc_storage(),
            Self::tacc_compute(),
            Self::tacc_storage(),
        ] {
            out.push_str(&format!(
                "  {:<14} cores={:<3} disk={:>4.0} MB/s nic=10 Gbps gpu={}\n",
                n.name,
                n.cores,
                n.storage.read_bw / 1e6,
                n.power.gpu.is_some(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_structure() {
        assert!(NodeSpec::uc_compute().power.gpu.is_some());
        assert!(NodeSpec::uc_storage().power.gpu.is_none());
        assert!(NodeSpec::tacc_compute().power.gpu.is_some());
        assert!(NodeSpec::tacc_storage().power.gpu.is_none());
        // HDD on TACC compute is the slow outlier.
        assert!(NodeSpec::tacc_compute().storage.read_bw < NodeSpec::uc_compute().storage.read_bw);
    }

    #[test]
    fn local_epoch_energy_anchor() {
        // Mostly-idle CPU at ≈0.1 utilization over 155 s ≈ 9–10 kJ.
        let n = NodeSpec::uc_compute();
        let cpu_e = n.power.cpu.watts(0.1) * 155.0;
        assert!((8_000.0..11_000.0).contains(&cpu_e), "cpu anchor {cpu_e}");
        let gpu_e = n.power.gpu.unwrap().watts(0.62) * 155.0;
        assert!((24_000.0..29_000.0).contains(&gpu_e), "gpu anchor {gpu_e}");
    }

    #[test]
    fn table1_text_mentions_all_nodes() {
        let t = NodeSpec::table1_text();
        for name in ["uc-compute", "uc-storage", "tacc-compute", "tacc-storage"] {
            assert!(t.contains(name));
        }
    }
}
