//! What `BENCHMARK.json` names — the workloads and each metric's unit —
//! and the check that `perfbench/layers.json` maps every per-layer metric
//! to the end-to-end metrics it should move.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::Json;

/// A metric's unit, by metric name.
pub type Units = BTreeMap<String, String>;

/// The parts of `BENCHMARK.json` a run needs.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Units,
    pub per_layer: Units,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_units(doc: &Json, section: &str) -> Result<Units, String> {
    let mut units = Units::new();
    for m in doc
        .get(section)
        .ok_or_else(|| format!("BENCHMARK.json has no {section:?}"))?
        .as_arr()
    {
        let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
        if units.insert(name.to_owned(), unit.to_owned()).is_some() {
            return Err(format!("BENCHMARK.json names {name:?} twice"));
        }
    }
    Ok(units)
}

/// Reads `BENCHMARK.json`, and checks that `layers.json` says, for every
/// per-layer metric and nothing else, which end-to-end metric on which
/// workload it should move.
pub fn load(repo: &Path, bench_dir: &Path) -> Result<Spec, String> {
    let doc = read_json(&repo.join("BENCHMARK.json"))?;
    let spec = Spec {
        workloads: doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .map(str::to_owned)
            .collect(),
        end_to_end: metric_units(&doc, "end_to_end")?,
        per_layer: metric_units(&doc, "per_layer")?,
    };
    let layers = read_json(&bench_dir.join("layers.json"))?;
    for name in spec.per_layer.keys() {
        let moves = layers
            .get(name)
            .ok_or_else(|| format!("layers.json has no entry for {name:?}"))?;
        for target in moves.as_arr() {
            let metric = target
                .get("metric")
                .and_then(Json::as_str)
                .unwrap_or_default();
            let workload = target
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default();
            if !(spec.end_to_end.contains_key(metric) || metric == "failed")
                || !spec.workloads.iter().any(|w| w == workload)
            {
                return Err(format!(
                    "layers.json: {name:?} moves unknown {metric:?} @ {workload:?}"
                ));
            }
        }
    }
    if let Json::Obj(map) = &layers {
        if let Some(stray) = map.keys().find(|k| !spec.per_layer.contains_key(*k)) {
            return Err(format!(
                "layers.json names {stray:?}, which is not a per-layer metric"
            ));
        }
    }
    Ok(spec)
}
