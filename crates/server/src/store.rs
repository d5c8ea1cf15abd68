//! Persistent store of tuned configurations, one JSON object per line.
//!
//! The paper's §VI shows tuned configs do not transfer across scenes or
//! machines, so the store keys on exactly the things that make a config
//! valid to reuse: scene, algorithm, workload, pool width, and hostname.
//! The workload axis keeps render-tuned and query-tuned configs apart —
//! a tree tuned for frame time is the wrong warm start for point-query
//! batches and vice versa. Sessions whose key has a stored best are
//! warm-started from it (see [`crate::session`]); everything else tunes
//! cold.
//!
//! The file is append-only — history is kept, and the in-memory index
//! tracks the lowest-cost entry per key. Malformed lines are skipped on
//! load so a partially-written trailing line after a crash cannot brick
//! the store.

use kdtune::{tuning_space, Algorithm};
use kdtune_telemetry as telemetry;
use kdtune_telemetry::json::{self, JsonValue};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Best-effort hostname: `$HOSTNAME`, then the kernel's, then a fixed
/// placeholder. Only used as a store key component, so a stable wrong
/// answer is fine and an unstable right one is not required.
pub fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        let h = h.trim();
        if !h.is_empty() {
            return h.to_string();
        }
    }
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return h.to_string();
        }
    }
    "unknown-host".to_string()
}

/// One stored tuning result.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredConfig {
    /// Scene name.
    pub scene: String,
    /// Algorithm name (`Algorithm::name`).
    pub algo: String,
    /// Workload the config was tuned for (`"render"` or `"query"`).
    /// Lines written before this axis existed load as `"render"`.
    pub workload: String,
    /// Rayon pool width the result was tuned under.
    pub threads: usize,
    /// Hostname the result was tuned on.
    pub host: String,
    /// Render resolution used while tuning (informational).
    pub res: u32,
    /// Tuned parameter values in search-space order.
    pub values: Vec<i64>,
    /// Best measured cost (seconds per frame) at convergence.
    pub cost: f64,
    /// Tuner steps it took to converge.
    pub steps: u64,
}

fn key_of(scene: &str, algo: &str, workload: &str, threads: usize, host: &str) -> String {
    format!("{scene}/{algo}/{workload}/t{threads}/{host}")
}

/// The JSONL-backed config store. Thread-safe; one instance per server.
pub struct ConfigStore {
    path: PathBuf,
    host: String,
    best: Mutex<HashMap<String, StoredConfig>>,
}

impl ConfigStore {
    /// Opens (or lazily creates on first [`record_workload`](Self::record_workload)) the
    /// store at `path`, indexing the lowest-cost entry per key.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<ConfigStore> {
        let path = path.into();
        let mut best: HashMap<String, StoredConfig> = HashMap::new();
        match File::open(&path) {
            Ok(file) => {
                for line in BufReader::new(file).lines() {
                    let Some(entry) = parse_line(&line?) else {
                        continue;
                    };
                    let key = key_of(
                        &entry.scene,
                        &entry.algo,
                        &entry.workload,
                        entry.threads,
                        &entry.host,
                    );
                    match best.get(&key) {
                        Some(prev) if prev.cost <= entry.cost => {}
                        _ => {
                            best.insert(key, entry);
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(ConfigStore {
            path,
            host: hostname(),
            best: Mutex::new(best),
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct (scene, algo, workload, threads, host) keys
    /// with a best.
    pub fn len(&self) -> usize {
        self.best.lock().len()
    }

    /// True when no configuration has been stored or loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best stored config for `scene` + `algorithm` + `workload` under
    /// the *current* pool width and host, if any. An entry whose `config`
    /// does not have one value per axis of the algorithm's tuning space
    /// cannot seed a tuner: it is skipped (and counted on
    /// `server.store.rejected`), so the session tunes cold.
    pub fn lookup_workload(
        &self,
        scene: &str,
        algorithm: Algorithm,
        workload: &str,
    ) -> Option<StoredConfig> {
        let key = key_of(
            scene,
            algorithm.name(),
            workload,
            rayon::current_num_threads().max(1),
            &self.host,
        );
        let stored = self.best.lock().get(&key).cloned()?;
        if stored.values.len() != tuning_space(algorithm).dim() {
            telemetry::counter("server.store.rejected").incr();
            return None;
        }
        Some(stored)
    }

    /// Records a converged result under a workload axis. Appends to the
    /// file and updates the index only when it beats the stored best for
    /// its key; returns whether it did.
    #[allow(clippy::too_many_arguments)]
    pub fn record_workload(
        &self,
        scene: &str,
        algorithm: Algorithm,
        workload: &str,
        res: u32,
        values: &[i64],
        cost: f64,
        steps: u64,
    ) -> std::io::Result<bool> {
        let entry = StoredConfig {
            scene: scene.to_string(),
            algo: algorithm.name().to_string(),
            workload: workload.to_string(),
            threads: rayon::current_num_threads().max(1),
            host: self.host.clone(),
            res,
            values: values.to_vec(),
            cost,
            steps,
        };
        let key = key_of(
            &entry.scene,
            &entry.algo,
            &entry.workload,
            entry.threads,
            &entry.host,
        );
        let mut best = self.best.lock();
        if let Some(prev) = best.get(&key) {
            if prev.cost <= entry.cost {
                return Ok(false);
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{}", encode_line(&entry))?;
        best.insert(key, entry);
        Ok(true)
    }
}

fn encode_line(entry: &StoredConfig) -> String {
    JsonValue::object([
        ("version", JsonValue::from(1)),
        ("scene", entry.scene.as_str().into()),
        ("algo", entry.algo.as_str().into()),
        ("workload", entry.workload.as_str().into()),
        ("threads", entry.threads.into()),
        ("host", entry.host.as_str().into()),
        ("res", entry.res.into()),
        (
            "config",
            entry
                .values
                .iter()
                .copied()
                .map(JsonValue::from)
                .collect::<Vec<_>>()
                .into(),
        ),
        ("cost", entry.cost.into()),
        ("steps", entry.steps.into()),
    ])
    .to_string()
}

fn parse_line(line: &str) -> Option<StoredConfig> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let v = json::parse(line).ok()?;
    let JsonValue::Array(items) = v.get("config")? else {
        return None;
    };
    let values = items
        .iter()
        .map(JsonValue::as_i64)
        .collect::<Option<Vec<i64>>>()?;
    Some(StoredConfig {
        scene: v.get("scene")?.as_str()?.to_string(),
        algo: v.get("algo")?.as_str()?.to_string(),
        // Pre-workload lines were all render-tuned.
        workload: v
            .get("workload")
            .and_then(JsonValue::as_str)
            .unwrap_or("render")
            .to_string(),
        threads: usize::try_from(v.get("threads")?.as_i64()?).ok()?,
        host: v.get("host")?.as_str()?.to_string(),
        res: u32::try_from(v.get("res")?.as_i64()?).ok()?,
        values,
        cost: v.get("cost")?.as_f64()?,
        steps: u64::try_from(v.get("steps")?.as_i64()?).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kdtune-store-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_then_reopen_round_trips_the_best_entry() {
        let path = temp_store("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let store = ConfigStore::open(&path).unwrap();
            assert!(store.is_empty());
            assert!(store
                .record_workload(
                    "bunny",
                    Algorithm::InPlace,
                    "render",
                    64,
                    &[21, 11, 4],
                    0.0123,
                    9
                )
                .unwrap());
            // Worse cost for the same key: appended nowhere, index unchanged.
            assert!(!store
                .record_workload(
                    "bunny",
                    Algorithm::InPlace,
                    "render",
                    64,
                    &[50, 5, 2],
                    0.5,
                    3
                )
                .unwrap());
            // Better cost replaces.
            assert!(store
                .record_workload(
                    "bunny",
                    Algorithm::InPlace,
                    "render",
                    64,
                    &[19, 12, 4],
                    0.0100,
                    12
                )
                .unwrap());
            assert!(store
                .record_workload(
                    "bunny",
                    Algorithm::Lazy,
                    "render",
                    64,
                    &[17, 10, 3, 4096],
                    0.02,
                    7
                )
                .unwrap());
        }
        let store = ConfigStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        let best = store
            .lookup_workload("bunny", Algorithm::InPlace, "render")
            .unwrap();
        assert_eq!(best.values, vec![19, 12, 4]);
        assert!((best.cost - 0.0100).abs() < 1e-12);
        assert_eq!(best.steps, 12);
        let lazy = store
            .lookup_workload("bunny", Algorithm::Lazy, "render")
            .unwrap();
        assert_eq!(lazy.values.len(), 4);
        assert!(store
            .lookup_workload("sponza", Algorithm::InPlace, "render")
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_lines_are_skipped_on_load() {
        let path = temp_store("malformed");
        let good = encode_line(&StoredConfig {
            scene: "fairy_forest".into(),
            algo: "in_place".into(),
            workload: "render".into(),
            threads: rayon::current_num_threads().max(1),
            host: hostname(),
            res: 32,
            values: vec![23, 9, 3],
            cost: 0.05,
            steps: 11,
        });
        std::fs::write(&path, format!("not json\n{good}\n{{\"scene\":\"trunc")).unwrap();
        let store = ConfigStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store
                .lookup_workload("fairy_forest", Algorithm::InPlace, "render")
                .unwrap()
                .values,
            vec![23, 9, 3]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lookup_is_keyed_by_thread_count() {
        let path = temp_store("threads");
        let mut entry = StoredConfig {
            scene: "bunny".into(),
            algo: "in_place".into(),
            workload: "render".into(),
            threads: rayon::current_num_threads().max(1) + 1, // a *different* width
            host: hostname(),
            res: 32,
            values: vec![21, 11, 4],
            cost: 0.01,
            steps: 5,
        };
        std::fs::write(&path, format!("{}\n", encode_line(&entry))).unwrap();
        let store = ConfigStore::open(&path).unwrap();
        assert!(
            store
                .lookup_workload("bunny", Algorithm::InPlace, "render")
                .is_none(),
            "a config tuned under another pool width must not warm-start this one"
        );
        entry.threads = rayon::current_num_threads().max(1);
        std::fs::write(&path, format!("{}\n", encode_line(&entry))).unwrap();
        let store = ConfigStore::open(&path).unwrap();
        assert!(store
            .lookup_workload("bunny", Algorithm::InPlace, "render")
            .is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn workloads_hold_separate_bests() {
        let path = temp_store("workloads");
        std::fs::remove_file(&path).ok();
        {
            let store = ConfigStore::open(&path).unwrap();
            assert!(store
                .record_workload(
                    "bunny",
                    Algorithm::InPlace,
                    "render",
                    64,
                    &[21, 11, 4],
                    0.012,
                    9
                )
                .unwrap());
            // A cheaper query-tuned config must not shadow the render best.
            assert!(store
                .record_workload(
                    "bunny",
                    Algorithm::InPlace,
                    "query",
                    64,
                    &[80, 2, 1],
                    0.001,
                    6
                )
                .unwrap());
        }
        let store = ConfigStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "one best per workload");
        assert_eq!(
            store
                .lookup_workload("bunny", Algorithm::InPlace, "render")
                .unwrap()
                .values,
            vec![21, 11, 4]
        );
        assert_eq!(
            store
                .lookup_workload("bunny", Algorithm::InPlace, "query")
                .unwrap()
                .values,
            vec![80, 2, 1]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_workload_lines_load_as_render() {
        let path = temp_store("legacy");
        // A line exactly as the store wrote it before the workload axis.
        let legacy = r#"{"version":1,"scene":"bunny","algo":"in_place","threads":THREADS,"host":"HOST","res":32,"config":[21,11,4],"cost":0.01,"steps":5}"#
            .replace("THREADS", &rayon::current_num_threads().max(1).to_string())
            .replace("HOST", &hostname());
        std::fs::write(&path, format!("{legacy}\n")).unwrap();
        let store = ConfigStore::open(&path).unwrap();
        let best = store
            .lookup_workload("bunny", Algorithm::InPlace, "render")
            .unwrap();
        assert_eq!(best.workload, "render");
        assert!(
            store
                .lookup_workload("bunny", Algorithm::InPlace, "query")
                .is_none(),
            "legacy render lines must not warm-start query sessions"
        );
        std::fs::remove_file(&path).ok();
    }
}
