//! Analytic area model.
//!
//! Estimates logic (ALM-equivalents), flip-flops, and on-chip memory
//! (M20K-equivalent blocks) per template instance, mirroring the three
//! resource categories of Figure 7 ("logic", "FF", "mem"). The constants
//! are calibrated to Stratix-V-class primitive costs; absolute numbers are
//! indicative, but the reproduction only relies on *relative* usage
//! between the baseline, tiled, and metapipelined designs, as the paper
//! reports.

use pphw_ir::json::{self, ToJson};

use crate::design::{BufferKind, CtrlKind, Design, UnitKind};

/// Area estimate in the three categories Figure 7 reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Area {
    /// Logic (ALM-equivalents).
    pub logic: f64,
    /// Flip-flops.
    pub ff: f64,
    /// On-chip memory blocks (M20K-equivalents).
    pub mem: f64,
}

impl Area {
    /// Component-wise sum.
    #[allow(clippy::should_implement_trait)] // plain combinator, not arithmetic
    pub fn add(self, other: Area) -> Area {
        Area {
            logic: self.logic + other.logic,
            ff: self.ff + other.ff,
            mem: self.mem + other.mem,
        }
    }

    /// Component-wise ratio against a baseline (the Figure 7 bottom plot).
    pub fn relative_to(self, base: Area) -> Area {
        let safe = |n: f64, d: f64| if d > 0.0 { n / d } else { 1.0 };
        Area {
            logic: safe(self.logic, base.logic),
            ff: safe(self.ff, base.ff),
            mem: safe(self.mem, base.mem),
        }
    }
}

/// `{"logic":…,"ff":…,"mem":…}`: the area object of every DSE report and
/// daemon response.
impl ToJson for Area {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("logic", self.logic)
                .field("ff", self.ff)
                .field("mem", self.mem);
        });
    }
}

/// M20K block: 20 kbit = 2560 bytes.
const M20K_BYTES: f64 = 2560.0;

/// Cost of one arithmetic lane (average of f32 add/mul on Stratix V:
/// adders in ALMs, multipliers mostly in DSPs with some soft logic).
const LANE_OP_LOGIC: f64 = 320.0;
const LANE_OP_FF: f64 = 480.0;

/// Fixed cost of a load/store unit's command generator plus its address
/// and data stream control (the paper notes these dominate the baseline
/// k-means memory usage).
const MEM_UNIT_LOGIC: f64 = 2600.0;
const MEM_UNIT_FF: f64 = 3800.0;
const MEM_UNIT_MEM_BLOCKS: f64 = 12.0;

/// A synchronous DRAM stream on a compute unit needs deeper decoupling
/// FIFOs than a tile unit (it has no tile buffer to land in); the paper
/// calls these out as dominating the baseline k-means memory usage.
const SYNC_STREAM_MEM_BLOCKS: f64 = 24.0;

const CTRL_LOGIC: f64 = 350.0;
const CTRL_FF: f64 = 500.0;
const META_EXTRA_LOGIC: f64 = 550.0;

/// Estimates the area of one unit.
pub fn unit_area(kind: &UnitKind, ops_per_elem: u32, depth: u32) -> Area {
    match kind {
        UnitKind::TileLoad { .. } | UnitKind::TileStore { .. } => Area {
            logic: MEM_UNIT_LOGIC,
            ff: MEM_UNIT_FF,
            mem: MEM_UNIT_MEM_BLOCKS,
        },
        UnitKind::Vector { lanes } => Area {
            logic: *lanes as f64 * ops_per_elem.max(1) as f64 * LANE_OP_LOGIC,
            ff: *lanes as f64 * ops_per_elem.max(1) as f64 * LANE_OP_FF + depth as f64 * 64.0,
            mem: 0.0,
        },
        UnitKind::ReduceTree { lanes } => {
            // lanes leaf operators plus (lanes-1) combiners in the tree.
            let ops = *lanes as f64 * ops_per_elem.max(1) as f64 + (*lanes as f64 - 1.0).max(0.0);
            Area {
                logic: ops * LANE_OP_LOGIC,
                ff: ops * LANE_OP_FF + depth as f64 * 64.0,
                mem: 0.0,
            }
        }
        UnitKind::ParallelFifo { lanes } => Area {
            logic: *lanes as f64 * ops_per_elem.max(1) as f64 * LANE_OP_LOGIC + 900.0,
            ff: *lanes as f64 * ops_per_elem.max(1) as f64 * LANE_OP_FF + 1200.0,
            mem: 2.0, // the FIFO itself
        },
        UnitKind::Cam => Area {
            logic: 5200.0,
            ff: 6800.0,
            mem: 4.0,
        },
    }
}

/// Estimates the area of one on-chip memory.
pub fn buffer_area(kind: BufferKind, bytes: u64, banks: u32, ports: u32) -> Area {
    // Banking splits the capacity across banks, but each bank costs at
    // least one block.
    let blocks = (bytes as f64 / M20K_BYTES).ceil().max(banks.max(1) as f64);
    let port_logic = ports as f64 * 60.0;
    match kind {
        BufferKind::Buffer | BufferKind::DoubleBuffer | BufferKind::Fifo => Area {
            logic: 80.0 + port_logic,
            ff: 120.0 + ports as f64 * 90.0,
            mem: blocks,
        },
        BufferKind::Cache => Area {
            logic: 1800.0 + port_logic,
            ff: 2400.0,
            mem: blocks + 2.0, // tag array
        },
        BufferKind::Cam => Area {
            logic: 2600.0 + port_logic,
            ff: 3200.0,
            mem: blocks,
        },
    }
}

/// Estimates the full design area.
pub fn design_area(design: &Design) -> Area {
    let mut total = Area::default();
    design.root.visit_units(&mut |u| {
        total = total.add(unit_area(&u.kind, u.ops_per_elem, u.depth));
        // Each DRAM stream attached to a *compute* unit needs its own
        // command generator and address/data stream FIFOs — the structures
        // the paper identifies as dominating the baseline k-means memory
        // usage. Tile load/store units already include this cost.
        if !matches!(
            u.kind,
            UnitKind::TileLoad { .. } | UnitKind::TileStore { .. }
        ) {
            let n = u.streams.len() as f64;
            total = total.add(Area {
                logic: n * MEM_UNIT_LOGIC,
                ff: n * MEM_UNIT_FF,
                mem: n * SYNC_STREAM_MEM_BLOCKS,
            });
        }
    });
    design.root.visit_ctrls(&mut |c| {
        let extra = match c.kind {
            CtrlKind::Metapipeline => META_EXTRA_LOGIC,
            _ => 0.0,
        };
        total = total.add(Area {
            logic: CTRL_LOGIC + extra,
            ff: CTRL_FF,
            mem: 0.0,
        });
    });
    for b in &design.buffers {
        // Double buffers hold two copies of the data.
        let bytes = b.bytes();
        total = total.add(buffer_area(b.kind, bytes, b.banks, b.readers + b.writers));
    }
    let _ = &design.root; // keep borrowck simple for visit closures
    total
}

/// A resource budget over the three area categories, in absolute units
/// (ALM-equivalents / flip-flops / M20K blocks). The design-space explorer
/// rejects candidates whose estimated area exceeds any category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBudget {
    /// Logic capacity (ALM-equivalents).
    pub logic: f64,
    /// Flip-flop capacity.
    pub ff: f64,
    /// On-chip memory capacity (M20K blocks).
    pub mem: f64,
}

impl AreaBudget {
    /// The whole Stratix-V-class device.
    #[must_use]
    pub fn full_device() -> AreaBudget {
        AreaBudget {
            logic: DEVICE_LOGIC,
            ff: DEVICE_FF,
            mem: DEVICE_MEM_BLOCKS,
        }
    }

    /// A uniform fraction of the device in every category.
    #[must_use]
    pub fn device_fraction(frac: f64) -> AreaBudget {
        AreaBudget {
            logic: DEVICE_LOGIC * frac,
            ff: DEVICE_FF * frac,
            mem: DEVICE_MEM_BLOCKS * frac,
        }
    }

    /// Whether an area estimate fits in every category.
    #[must_use]
    pub fn fits(&self, area: Area) -> bool {
        area.logic <= self.logic && area.ff <= self.ff && area.mem <= self.mem
    }
}

impl Default for AreaBudget {
    fn default() -> Self {
        AreaBudget::full_device()
    }
}

/// Scalar area objective for Pareto comparisons: the worst-case device
/// utilization fraction across the three categories (the binding resource).
#[must_use]
pub fn area_objective(area: Area) -> f64 {
    let u = utilization(area);
    u.logic.max(u.ff).max(u.mem)
}

/// Rough device capacity (Stratix V class) used for utilization fractions.
pub const DEVICE_LOGIC: f64 = 262_400.0;
/// Device flip-flop capacity.
pub const DEVICE_FF: f64 = 1_049_600.0;
/// Device M20K block count.
pub const DEVICE_MEM_BLOCKS: f64 = 2_567.0;

/// Utilization fractions of the device.
pub fn utilization(area: Area) -> Area {
    Area {
        logic: area.logic / DEVICE_LOGIC,
        ff: area.ff / DEVICE_FF,
        mem: area.mem / DEVICE_MEM_BLOCKS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_area_scales_with_lanes() {
        let a8 = unit_area(&UnitKind::Vector { lanes: 8 }, 2, 4);
        let a16 = unit_area(&UnitKind::Vector { lanes: 16 }, 2, 4);
        assert!(a16.logic > a8.logic * 1.9);
    }

    #[test]
    fn reduce_tree_larger_than_vector_same_lanes() {
        let v = unit_area(&UnitKind::Vector { lanes: 16 }, 1, 4);
        let r = unit_area(&UnitKind::ReduceTree { lanes: 16 }, 1, 4);
        assert!(r.logic > v.logic, "tree adds combiners");
    }

    #[test]
    fn buffer_blocks_round_up() {
        let a = buffer_area(BufferKind::Buffer, 100, 1, 2);
        assert_eq!(a.mem, 1.0);
        let b = buffer_area(BufferKind::Buffer, 6000, 1, 2);
        assert_eq!(b.mem, 3.0);
    }

    #[test]
    fn banking_costs_at_least_one_block_per_bank() {
        let a = buffer_area(BufferKind::Buffer, 100, 8, 2);
        assert!(a.mem >= 8.0);
    }

    #[test]
    fn relative_to_is_unity_for_self() {
        let a = Area {
            logic: 10.0,
            ff: 20.0,
            mem: 5.0,
        };
        let r = a.relative_to(a);
        assert!((r.logic - 1.0).abs() < 1e-9);
        assert!((r.mem - 1.0).abs() < 1e-9);
    }

    #[test]
    fn area_budget_rejects_any_category_overflow() {
        let b = AreaBudget {
            logic: 100.0,
            ff: 100.0,
            mem: 10.0,
        };
        let fits = Area {
            logic: 99.0,
            ff: 50.0,
            mem: 10.0,
        };
        let too_much_mem = Area {
            logic: 1.0,
            ff: 1.0,
            mem: 11.0,
        };
        assert!(b.fits(fits));
        assert!(!b.fits(too_much_mem));
        assert!(AreaBudget::full_device().fits(fits));
    }

    #[test]
    fn area_objective_is_binding_resource_fraction() {
        let a = Area {
            logic: DEVICE_LOGIC / 2.0,
            ff: DEVICE_FF / 4.0,
            mem: DEVICE_MEM_BLOCKS / 8.0,
        };
        assert!((area_objective(a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_costs_more_logic_than_buffer() {
        let c = buffer_area(BufferKind::Cache, 4096, 1, 2);
        let b = buffer_area(BufferKind::Buffer, 4096, 1, 2);
        assert!(c.logic > b.logic);
        assert!(c.mem > b.mem);
    }
}
