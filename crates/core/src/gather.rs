//! Timed host-side gather of matched values for aggregate queries.
//!
//! On every evaluated machine the `SUM(l_extendedprice * l_discount)`
//! aggregate itself runs on the host: after the scan, the matching
//! tuples' price and discount values are fetched, multiplied and
//! accumulated. This module emits that micro-op stream so the gather
//! phase is cycle-accounted like everything else — through the cache
//! hierarchy on the host-only machines, over the serial links
//! (uncached) on the near-data ones.

use crate::system::System;
use hipe_cpu::{Core, MemoryPort};
use hipe_db::{Bitmask, Column};
use hipe_hmc::{AccessKind, Hmc};
use hipe_isa::{MicroOp, MicroOpKind, OpSize};
use hipe_sim::Cycle;

/// Link payload bytes of one partial-readback packet: up to one row
/// buffer of 8 B partial-sum slots per read.
const READBACK_PACKET_BYTES: u64 = 256;

/// Emits the gather/multiply/accumulate stream for every set bit of
/// `mask` onto `core`, routing the value loads through `port`.
pub(crate) fn emit<P: MemoryPort>(core: &mut Core, port: &mut P, sys: &System, mask: &Bitmask) {
    for i in mask.iter_ones() {
        let price = sys.layout().value_addr(Column::ExtendedPrice, i);
        let discount = sys.layout().value_addr(Column::Discount, i);
        core.execute(
            MicroOp::new(MicroOpKind::Load {
                addr: price,
                bytes: 8,
            }),
            port,
        );
        core.execute(
            MicroOp::new(MicroOpKind::Load {
                addr: discount,
                bytes: 8,
            }),
            port,
        );
        // price * discount, then the serial accumulate (the previous
        // tuple's accumulate is four ops back in the dynamic stream).
        core.execute(MicroOp::new(MicroOpKind::IntMul).with_deps(1, 2), port);
        core.execute(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 4), port);
    }
}

/// Emits the fused path's gather phase: the per-region partial sums
/// stored by the logic-layer aggregate tail are read back in row-
/// buffer-sized link packets and folded into the final sum by a
/// dependent accumulate chain — a few packets instead of a per-tuple
/// gather.
pub(crate) fn emit_partial_readback<P: MemoryPort>(
    core: &mut Core,
    port: &mut P,
    agg_base: u64,
    agg_bytes: u64,
) {
    let mut addr = agg_base;
    let end = agg_base + agg_bytes;
    while addr < end {
        let bytes = (end - addr).min(READBACK_PACKET_BYTES);
        core.execute(MicroOp::new(MicroOpKind::Load { addr, bytes }), port);
        // One accumulate per 8 B slot: the first of a packet consumes
        // the packet's load and the previous packet's running sum, the
        // rest chain on their predecessor.
        for slot in 0..bytes / hipe_compiler::AGG_SLOT_BYTES {
            let deps = if slot == 0 { (1, 2) } else { (1, 0) };
            core.execute(
                MicroOp::new(MicroOpKind::IntAlu).with_deps(deps.0, deps.1),
                port,
            );
        }
        addr += bytes;
    }
}

/// Memory port of the near-data machines' gather phase: demand
/// reads/writes cross the serial links uncached (the scan itself ran
/// inside the cube, so the host caches hold nothing useful).
pub(crate) struct UncachedPort<'a> {
    pub hmc: &'a mut Hmc,
}

impl MemoryPort for UncachedPort<'_> {
    fn read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.hmc
            .access(cycle, addr, bytes, AccessKind::Read)
            .complete
    }

    fn write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.hmc
            .access(cycle, addr, bytes, AccessKind::Write)
            .complete
    }

    fn hmc_dispatch(&mut self, cycle: Cycle, addr: u64, size: OpSize, result_bytes: u64) -> Cycle {
        self.hmc
            .access(
                cycle,
                addr,
                size.bytes(),
                AccessKind::PimOp { result_bytes },
            )
            .complete
    }

    fn logic_dispatch(&mut self, _cycle: Cycle) -> Cycle {
        unreachable!("the gather phase posts no logic-layer instructions")
    }

    fn logic_wait(&mut self, _cycle: Cycle) -> Cycle {
        unreachable!("the gather phase posts no logic-layer instructions")
    }
}
