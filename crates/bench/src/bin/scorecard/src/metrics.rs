//! The catalog: every workload and metric the scorecard emits, by name,
//! with unit and direction. `BENCHMARK.json` at the repo root must list
//! exactly these (a unit test compares them), and `README.md` is the
//! glossary.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Not printed with results; read by the test that pins
    /// `BENCHMARK.json` to this catalog.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "paper_matrix",
    "fleet_disjoint",
    "fleet_shared",
    "oracle_fleet",
    "loopback_pair",
];

/// The workloads whose clock is simulated or virtual: their results are a
/// function of the seed and the amount of work alone.
pub const VIRTUAL_TIME_WORKLOADS: [&str; 4] = [
    "paper_matrix",
    "fleet_disjoint",
    "fleet_shared",
    "oracle_fleet",
];

/// What a user of the monitor sees; every workload reports every one.
pub const END_TO_END: [MetricDef; 9] = [
    m("setup_s", "s", Lower),
    m("coverage_share", "share", Higher),
    m("mid_rel_err", "share", Lower),
    m("range_rho", "share", Lower),
    m("estimate_latency_s", "s", Lower),
    m("probe_pkts_per_estimate", "count", Lower),
    m("estimates_per_s", "1/s", Higher),
    m("cpu_ms_per_estimate", "ms", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Single-layer costs, prefixed by the module they belong to. A layer
/// that sits idle in a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 62] = [
    // The harness's own record of the run.
    m("bench.estimates", "count", Higher),
    m("bench.failed_share", "share", Lower),
    m("bench.estimate_latency_median_s", "s", Lower),
    m("bench.estimate_latency_tail_s", "s", Lower),
    m("bench.estimate_latency_tail_pct", "%", Higher),
    m("bench.trace_overhead_share", "share", Lower),
    m("bench.spans", "count", Lower),
    // slops: the estimator.
    m("slops.session_self_ns", "ns", Lower),
    m("slops.machine_ns_per_session", "ns", Lower),
    m("slops.trend_ns_per_stream", "ns", Lower),
    m("slops.fleets_per_estimate", "count", Lower),
    m("slops.streams_per_estimate", "count", Lower),
    m("slops.grey_share", "share", Lower),
    m("slops.probe_bytes_per_estimate", "B", Lower),
    // netsim / traffic / simprobe: the simulator under the estimator.
    m("netsim.events_per_s", "1/s", Higher),
    m("netsim.ns_per_event", "ns", Lower),
    m("netsim.events_per_estimate", "count", Lower),
    m("netsim.heap_ops_per_event", "count", Lower),
    m("netsim.cmp_weight_per_event", "count", Lower),
    m("netsim.front_hit_share", "share", Higher),
    m("netsim.heap_max_depth", "count", Lower),
    m("netsim.pool_peak", "count", Lower),
    m("netsim.shards", "count", Higher),
    m("netsim.transport_ns_per_stream", "ns", Lower),
    m("traffic.warmup_events_per_s", "1/s", Higher),
    m("simprobe.build_ns", "ns", Lower),
    m("simprobe.app_over_shim_time_ratio", "ratio", Lower),
    // monitord: scheduler, store, export, fleet drivers.
    m("monitord.scheduler.poll_ns", "ns", Lower),
    m("monitord.scheduler.on_complete_ns", "ns", Lower),
    m("monitord.store.push_ns", "ns", Lower),
    m("monitord.store.changes_ns", "ns", Lower),
    m("monitord.export.sample_line_ns", "ns", Lower),
    m("monitord.export.fleet_jsonl_ns_per_line", "ns", Lower),
    m("monitord.fleet_self_ns_per_estimate", "ns", Lower),
    m("monitord.observer_ns_per_estimate", "ns", Lower),
    m("monitord.scheduler.overruns", "count", Lower),
    m("monitord.scheduler.backlog_max", "count", Lower),
    // telemetry: the registry behind every counter above.
    m("telemetry.sink_overhead_share", "share", Lower),
    m("telemetry.render_ms_4096", "ms", Lower),
    m("telemetry.render_bytes", "B", Lower),
    m("telemetry.counter_inc_ns", "ns", Lower),
    m("telemetry.histogram_observe_ns", "ns", Lower),
    // sockets: the wire stack.
    m("sockets.paced_within_128us_share", "share", Higher),
    m("sockets.paced_pkts", "count", Higher),
    m("sockets.tx_cpu_us_per_pkt", "us", Lower),
    m("sockets.rx_cpu_us_per_pkt", "us", Lower),
    m("sockets.wakeups_per_pkt", "count", Lower),
    m("sockets.timer_lag_p50_ns", "ns", Lower),
    m("sockets.timer_lag_p99_ns", "ns", Lower),
    m("sockets.pacing_err_p50_ns", "ns", Lower),
    m("sockets.pacing_err_p99_ns", "ns", Lower),
    m("sockets.rx_batch_mean", "count", Higher),
    m("sockets.demux_routed", "count", Higher),
    m("sockets.demux_drops", "count", Lower),
    m("sockets.silence_stops", "count", Lower),
    m("sockets.vol_ctx_switches_per_pkt", "count", Lower),
    m("sockets.connect_ms_per_path", "ms", Lower),
    m("sockets.probe_encode_ns", "ns", Lower),
    m("sockets.probe_decode_ns", "ns", Lower),
    m("sockets.udp_drain32_batched_ns", "ns", Lower),
    m("sockets.udp_drain32_scalar_ns", "ns", Lower),
    m("sockets.timerq_ns_per_op", "ns", Lower),
];

/// Named values a pass or a run produced, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    fn name_ok(name: &str) -> bool {
        well_formed(name, 64, "_.-") && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// `(name, unit, better, bound)` of every entry of a metric list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("`{key}` is a list"))
            .iter()
            .map(|e| {
                let field = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{key}: every entry has a string `{k}`"))
                        .to_string()
                };
                let bound = e.get("bound").and_then(Json::as_f64);
                let keys = e.as_object().expect("an object").len();
                assert_eq!(keys, 3 + bound.is_some() as usize, "{key}: no stray keys");
                (field("name"), field("unit"), field("better"), bound)
            })
            .collect()
    }

    fn catalog(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("`workloads` is a list")
            .iter()
            .map(|w| {
                assert_eq!(w.as_object().expect("an object").len(), 2);
                (
                    w.get("name").and_then(Json::as_str).expect("a name"),
                    w.get("why").and_then(Json::as_str).expect("a why"),
                )
            })
            .collect();
        assert_eq!(
            workloads.iter().map(|w| w.0).collect::<Vec<_>>(),
            WORKLOADS,
            "five workloads, in run order"
        );
        for (name, why) in &workloads {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: one line of <= 200"
            );
        }

        let e2e = listed(&doc, "end_to_end");
        assert_eq!(
            e2e.iter()
                .map(|(n, u, b, _)| (n.clone(), u.clone(), b.clone()))
                .collect::<Vec<_>>(),
            catalog(&END_TO_END)
        );
        assert!(e2e.len() <= 16);
        for (name, _, _, bound) in &e2e {
            let bound = bound.unwrap_or_else(|| panic!("{name} has a bound"));
            assert!((0.0..=0.25).contains(&bound), "{name}: bound {bound}");
        }
        let setup = &e2e[0];
        assert_eq!(
            (setup.0.as_str(), setup.1.as_str(), setup.2.as_str()),
            ("setup_s", "s", "lower")
        );
        let widest = e2e.iter().filter_map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(setup.3, Some(widest), "setup_s carries the largest bound");

        let layers = listed(&doc, "per_layer");
        assert_eq!(
            layers
                .iter()
                .map(|(n, u, b, _)| (n.clone(), u.clone(), b.clone()))
                .collect::<Vec<_>>(),
            catalog(&PER_LAYER)
        );
        assert!(layers.len() <= 128);
        assert!(
            layers.iter().all(|m| m.3.is_none()),
            "layers carry no bound"
        );

        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.0.as_str()).collect();
        for (name, unit, better, _) in e2e.iter().chain(&layers) {
            assert!(name_ok(name), "{name}");
            assert!(well_formed(unit, 16, "_/%.-"), "{name}: unit {unit}");
            assert!(better == "higher" || better == "lower", "{name}");
        }
        names.extend(workloads.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");

        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("a number");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        let paths = doc.get("paths").and_then(Json::as_array).expect("a list");
        assert_eq!(paths.len(), 1);
        let dir = paths[0].as_str().expect("a path");
        assert!(
            env!("CARGO_MANIFEST_DIR").ends_with(dir),
            "{dir} holds this package"
        );
        let command = doc.get("command").and_then(Json::as_array).expect("a list");
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .any(|a| a.as_str() == Some(&format!("{dir}/Cargo.toml"))));
    }

    #[test]
    fn virtual_time_workloads_are_workloads() {
        for w in VIRTUAL_TIME_WORKLOADS {
            assert!(WORKLOADS.contains(&w));
        }
    }
}
