//! The hardware factors under study (Table III).

/// One factor of the 2-level factorial design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Factor {
    /// Short name used in regression term labels.
    pub name: &'static str,
    /// What the factor controls.
    pub description: &'static str,
    /// The low-level setting (coded 0).
    pub low_label: &'static str,
    /// The high-level setting (coded 1).
    pub high_label: &'static str,
}

/// Table III: the four factors and their levels.
pub fn factor_table() -> [Factor; 4] {
    [
        Factor {
            name: "numa",
            description: "NUMA control policy for connection-buffer allocation",
            low_label: "same-node",
            high_label: "interleave",
        },
        Factor {
            name: "turbo",
            description: "Turbo Boost frequency up-scaling",
            low_label: "off",
            high_label: "on",
        },
        Factor {
            name: "dvfs",
            description: "DVFS governor",
            low_label: "ondemand",
            high_label: "performance",
        },
        Factor {
            name: "nic",
            description: "NIC RSS interrupt-queue affinity",
            low_label: "same-node",
            high_label: "all-nodes",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use treadmill_cluster::HardwareConfig;

    #[test]
    fn table_matches_design_order() {
        let table = factor_table();
        let names = HardwareConfig::factor_names();
        for (factor, name) in table.iter().zip(names.iter()) {
            assert_eq!(factor.name, *name);
        }
    }

    #[test]
    fn levels_match_the_paper() {
        let table = factor_table();
        assert_eq!(table[0].low_label, "same-node");
        assert_eq!(table[0].high_label, "interleave");
        assert_eq!(table[2].low_label, "ondemand");
        assert_eq!(table[2].high_label, "performance");
    }
}
