//! The fluid per-flow lower bound on energy used by the online and serve
//! workloads.
//!
//! Each flow must move its volume over at least its shortest-path hop
//! count within `[release, deadline]`. For a pure speed-scaling power
//! function (`x^alpha`, no idle power) spreading the volume evenly over the
//! whole window is optimal per link (Jensen), and sharing links only adds
//! energy (superadditivity of `x^alpha`), so
//! `sum_f hops_f * span_f * P(volume_f / span_f)` bounds any feasible plan.

use dcn_flow::Flow;
use dcn_power::PowerFunction;
use dcn_topology::GraphCsr;

/// The bound of one flow on `graph`; a pair with no path contributes 0.
pub fn flow_bound(graph: &GraphCsr, flow: &Flow, power: &PowerFunction) -> f64 {
    volume_bound(graph, flow, flow.volume, power)
}

/// The bound of moving `volume` of `flow`'s endpoints and window (e.g.
/// the volume an online run actually delivered).
pub fn volume_bound(graph: &GraphCsr, flow: &Flow, volume: f64, power: &PowerFunction) -> f64 {
    let Some(path) = graph.shortest_path(flow.src, flow.dst) else {
        return 0.0;
    };
    let span = flow.deadline - flow.release;
    path.links().len() as f64 * span * power.power(volume / span)
}

/// The bound summed over `flows`.
pub fn fluid_lower_bound<'a>(
    graph: &GraphCsr,
    flows: impl IntoIterator<Item = &'a Flow>,
    power: &PowerFunction,
) -> f64 {
    flows.into_iter().map(|f| flow_bound(graph, f, power)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::builders;

    #[test]
    fn single_link_instance_matches_the_hand_computation() {
        // One link of capacity 10; volume 8 over [0, 4] needs rate 2, and
        // x^2 at rate 2 draws 4 units of power for 4 time units: 16.
        let topo = builders::line(2);
        let (a, b) = (topo.hosts()[0], topo.hosts()[1]);
        let flow = Flow::new(0, a, b, 0.0, 4.0, 8.0).unwrap();
        let x2 = PowerFunction::speed_scaling_only(1.0, 2.0, 10.0);
        let graph = topo.csr();
        assert_eq!(flow_bound(&graph, &flow, &x2), 16.0);
        // Two hops double it; x^3 at rate 2 over 4 time units is 32 per hop.
        let line3 = builders::line(3);
        let far = Flow::new(0, line3.hosts()[0], line3.hosts()[2], 0.0, 4.0, 8.0).unwrap();
        let x3 = PowerFunction::speed_scaling_only(1.0, 3.0, 10.0);
        assert_eq!(flow_bound(&line3.csr(), &far, &x3), 64.0);
        assert_eq!(fluid_lower_bound(&graph, [&flow, &flow], &x2), 32.0);
        // Half the volume at half the rate: a quarter of the power.
        assert_eq!(volume_bound(&graph, &flow, 4.0, &x2), 4.0);
    }
}
