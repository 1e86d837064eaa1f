//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root is what the acceptance driver
//! reads; the tables here are what the program emits. A unit test holds the
//! two together.

use pathcost_server::Json;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("sustained_rate_qps", "1/s"),
    ("ok_share", "share"),
    ("ingest_publish_mean_ms", "ms"),
    ("recover_s", "s"),
    ("rss_peak_mb", "MB"),
    ("kl_to_truth_mean", "nats"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("roadnet.generate_s", "s"),
    ("trajectory.simulate_s", "s"),
    ("core.instantiate_s", "s"),
    ("core.variables", "count"),
    ("service.warmup_s", "s"),
    ("server.http_read_us", "us"),
    ("server.json_parse_us", "us"),
    ("server.wire_decode_us", "us"),
    ("server.wire_encode_us", "us"),
    ("server.http_write_us", "us"),
    ("server.response_bytes", "bytes"),
    ("server.socket_overhead_us", "us"),
    ("server.stage_share.parse", "share"),
    ("server.stage_share.queue", "share"),
    ("server.stage_share.dispatch", "share"),
    ("server.stage_share.warm", "share"),
    ("server.stage_share.eval", "share"),
    ("server.stage_share.serialize", "share"),
    ("server.stage_share.write", "share"),
    ("service.admission_wait_us", "us"),
    ("service.execute_hit_us", "us"),
    ("service.batch_mean_size", "count"),
    ("service.execute_miss_us", "us"),
    ("service.cache_overhead_us", "us"),
    ("service.cache_evictions", "count"),
    ("service.cache_hit_ratio", "share"),
    ("service.batch_us_per_query", "us"),
    ("service.batch_dedup_ratio", "share"),
    ("core.estimate_us", "us"),
    ("core.oi_us", "us"),
    ("core.jc_us", "us"),
    ("core.mc_us", "us"),
    ("core.candidate_build_us", "us"),
    ("core.decomposition_len_mean", "count"),
    ("core.unit_fallback_share", "share"),
    ("histogram.convolve_us", "us"),
    ("histogram.convolve_many_us", "us"),
    ("histogram.buckets_mean", "count"),
    ("routing.route_ms", "ms"),
    ("routing.expansions_mean", "count"),
    ("routing.candidates_mean", "count"),
    ("routing.incumbent_prunes_mean", "count"),
    ("routing.us_per_expansion", "us"),
    ("routing.eval_cache_hit_ratio", "share"),
    ("live.ingest_ms", "ms"),
    ("live.ms_per_row", "ms"),
    ("live.rows_per_s", "1/s"),
    ("live.dirty_keys_mean", "count"),
    ("live.changed_vars_mean", "count"),
    ("live.ingest_growth_ratio", "ratio"),
    ("service.apply_update_ms", "ms"),
    ("service.evicted_per_update", "count"),
    ("service.hit_ratio_under_churn", "share"),
    ("persist.fsync_p50_ms", "ms"),
    ("persist.journal_bytes_per_row", "bytes"),
    ("persist.snapshot_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.replayed_records", "count"),
    ("obs.metrics_scrape_ms", "ms"),
    ("obs.metrics_bytes", "bytes"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.sendlag_p99_ms", "ms"),
];

/// Named values collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why `correct` is false, or what made the run invalid.
    pub problems: Vec<String>,
}

impl RunResult {
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result object the contract asks for as the last stdout line:
    /// exactly `correct`, `attempted`, `failed`, `metrics`; a metric the
    /// run did not produce is reported as 0 so the key set is always whole.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .table()
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    Json::object(vec![
                        ("value", Json::Number(self.metrics.get(name).unwrap_or(0.0))),
                        ("unit", Json::String((*unit).to_string())),
                    ]),
                )
            })
            .collect();
        Json::object(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
        .to_string()
    }

    /// One line of a result set (`--out`): the contract line plus what
    /// `compare` needs to group runs.
    pub fn set_line(&self) -> String {
        let values = self
            .table()
            .iter()
            .map(|(name, _)| (*name, Json::Number(self.metrics.get(name).unwrap_or(0.0))))
            .collect();
        Json::object(vec![
            ("workload", Json::String(self.workload.clone())),
            ("seed", Json::Number(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object(values)),
        ])
        .to_string()
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "# {} seed={} {} — attempted {} failed {} correct {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "end-to-end" },
            self.attempted,
            self.failed,
            self.correct
        );
        for (name, unit) in self.table() {
            match self.metrics.get(name) {
                Some(value) => println!("{name:<34} {value:>16.4} {unit}"),
                None => println!("{name:<34} {:>16} {unit}", "-"),
            }
        }
        for problem in &self.problems {
            println!("! {problem}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcost_server::json;

    fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_program_name_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&spec, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&spec, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let own_workloads: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 6.25);
        let result = RunResult {
            workload: "warm_zipf".into(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            problems: vec![],
        };
        let line = json::parse(result.contract_line().as_bytes()).unwrap();
        let Json::Object(fields) = &line else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("metrics object expected")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(6.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
