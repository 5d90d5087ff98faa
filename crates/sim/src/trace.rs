//! Traces of simulated runs.
//!
//! A simulated run is traced through its event stream: `simulate_observed`
//! returns the events, and [`Timeline::from_events`] turns them into
//! per-slave spans on the simulator's virtual clock. These tests pin the
//! utilization and Gantt conventions the simulated timelines rely on, with
//! span bounds taken from [`SimTime`].

#[cfg(test)]
mod tests {
    use cb_simnet::time::SimTime;
    use cloudburst_core::obs::{SpanKind, Timeline};

    fn t(s: f64) -> u64 {
        SimTime::from_secs_f64(s).as_nanos()
    }

    #[test]
    fn utilization_counts_busy_time() {
        let mut tl = Timeline::default();
        tl.record(0, 0, SpanKind::Fetch, t(0.0), t(2.0));
        tl.record(0, 0, SpanKind::Process, t(2.0), t(6.0));
        tl.record(0, 1, SpanKind::Process, t(0.0), t(3.0));
        tl.record(1, 0, SpanKind::RobjTransfer, t(6.0), t(10.0));
        assert_eq!(tl.horizon_ns, t(10.0));
        assert!((tl.utilization(0, 0) - 0.6).abs() < 1e-12);
        assert!((tl.utilization(0, 1) - 0.3).abs() < 1e-12);
        // Robj transfer is not "busy" slave work.
        assert_eq!(tl.utilization(1, 0), 0.0);
        assert!((tl.cluster_utilization(0) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_zero() {
        for tl in [Timeline::default(), Timeline::from_events(&[])] {
            assert_eq!(tl.horizon_ns, 0);
            assert_eq!(tl.utilization(0, 0), 0.0);
            assert_eq!(tl.cluster_utilization(0), 0.0);
        }
    }

    #[test]
    fn gantt_renders_rows() {
        let mut tl = Timeline::default();
        tl.record(0, 0, SpanKind::Fetch, t(0.0), t(5.0));
        tl.record(0, 0, SpanKind::Process, t(5.0), t(10.0));
        tl.record(1, 0, SpanKind::Process, t(0.0), t(10.0));
        let g = tl.render_gantt(20);
        assert!(g.contains("c0/s0"));
        assert!(g.contains("c1/s0"));
        let row0 = g.lines().find(|l| l.starts_with("c0/s0")).unwrap();
        assert!(row0.contains('▒') && row0.contains('█'));
        let row1 = g.lines().find(|l| l.starts_with("c1/s0")).unwrap();
        assert_eq!(row1.matches('█').count(), 20, "fully busy row");
    }
}
