//! Shared synchronization helper for driving distributed negotiations over
//! a faulty network (see `cologne::DeploymentBuilder::faults`).

use cologne::datalog::NodeId;
use cologne::net::SimTime;
use cologne::Deployment;

/// Hostile-mode synchronization barrier: advance the simulation until the
/// named endpoints are up **and** the delivery layer is quiescent (every
/// shipped tuple delivered and acked).
///
/// A single await-then-settle is not enough: a crash window can open in the
/// middle of the settle, after the endpoint check has already passed, and
/// the caller would then negotiate against a node whose remote state was
/// just wiped. The barrier therefore re-checks after settling and loops —
/// the rejoin re-syncs the node's relations from its neighbours'
/// `outstanding` snapshots, and the next settle delivers them.
///
/// Deadlines only ever move forward (extended past `fault_horizon`, the last
/// scheduled rejoin, when a crashed node is holding acks back), so each
/// extension pushes later rounds out rather than re-entering a crash window.
/// Returns the possibly-extended deadline. On a quiet plan this reduces to
/// exactly one settle.
pub(crate) fn hostile_barrier(
    driver: &mut Deployment,
    mut deadline: SimTime,
    fault_horizon: SimTime,
    period_us: u64,
    endpoints: [u32; 2],
) -> SimTime {
    // Every crash window is finite (all rejoins are at or before
    // `fault_horizon`), so a few rounds always suffice; the cap is a safety
    // net against a malformed plan, not a tuning knob.
    for _ in 0..8 {
        let horizon = deadline.max(fault_horizon).plus_us(period_us);
        for n in endpoints {
            driver.await_node(NodeId(n), horizon);
        }
        if deadline <= driver.now() {
            deadline = driver.now().plus_us(period_us);
        }
        let settled = if driver.settle(deadline) {
            true
        } else {
            deadline = deadline.max(fault_horizon).plus_us(period_us);
            driver.settle(deadline)
        };
        if settled && endpoints.iter().all(|&n| !driver.is_down(NodeId(n))) {
            break;
        }
    }
    deadline
}
