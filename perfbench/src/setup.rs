//! Building the system under test: SSB data, default views, shards, the
//! in-process `assess-serve`, and its warm-up. Set-up is timed phase by
//! phase and repeated so `setup_s` is a median, not one sample.

use std::sync::Arc;
use std::time::Instant;

use assess_serve::{serve, ServerConfig, ServerHandle};
use olap_engine::{Engine, EngineConfig, ShardSet};
use olap_storage::Catalog;
use ssb_data::{generate::generate, shard_dataset, views, SsbConfig, SsbDataset};

use crate::stream::Domains;

/// Scale factor of every workload (600k lineorder rows).
pub const SCALE: f64 = 0.1;
/// Executor threads of the server.
pub const WORKERS: usize = 2;
/// Runs that may wait beyond the executing ones.
pub const MAX_QUEUED: usize = 1024;
/// In-process shards of the `sharded` workload.
pub const SHARDS: usize = 2;

/// Scan helpers of the shared pool (`0` in the server config = the global
/// pool: available cores − 1).
pub fn scan_threads() -> usize {
    olap_engine::WorkerPool::global().threads()
}

pub fn server_config() -> ServerConfig {
    ServerConfig { workers: WORKERS, max_queued: MAX_QUEUED, ..ServerConfig::default() }
}

/// Seconds spent in each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub generate_s: f64,
    pub views_s: f64,
    pub shard_s: f64,
    pub boot_s: f64,
    pub warm_s: f64,
}

impl Phases {
    pub fn total(&self) -> f64 {
        self.generate_s + self.views_s + self.shard_s + self.boot_s + self.warm_s
    }
}

/// A served deployment.
pub struct Env {
    /// The unsharded dataset with its default views. It is the served
    /// catalog, except under `sharded`, where it is the reference the
    /// sharded results are compared with.
    pub dataset: SsbDataset,
    pub server: ServerHandle,
    /// The engine the server runs (a coordinator when sharded).
    pub engine: Engine,
    /// Per-shard catalogs of a sharded deployment (empty otherwise).
    pub shard_catalogs: Vec<Arc<Catalog>>,
    pub phases: Phases,
}

/// The dimension domains append foreign keys draw from.
pub fn domains(dataset: &SsbDataset) -> Domains {
    let c = dataset.counts;
    Domains { customers: c.customers, suppliers: c.suppliers, parts: c.parts, dates: c.dates }
}

/// Generates the dataset and materializes the default views.
pub fn dataset(phases: &mut Phases) -> SsbDataset {
    let t = Instant::now();
    let dataset = generate(SsbConfig::with_scale(SCALE));
    phases.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    views::register_default_views(&dataset.catalog, &dataset.schema).expect("default views build");
    phases.views_s = t.elapsed().as_secs_f64();
    dataset
}

/// The engine a deployment runs over `dataset`: the dataset's own when
/// `shards` is 0, otherwise a coordinator over that many in-process
/// shards, returned with the shard catalogs.
pub fn engine(
    dataset: &SsbDataset,
    shards: usize,
    phases: &mut Phases,
) -> (Engine, Vec<Arc<Catalog>>) {
    if shards == 0 {
        return (Engine::new(dataset.catalog.clone()), Vec::new());
    }
    let t = Instant::now();
    let deployment = shard_dataset(dataset, shards).expect("shards build");
    let catalogs = deployment.shard_catalogs.clone();
    let set =
        ShardSet::local(deployment.scheme, deployment.shard_catalogs).expect("shard set builds");
    let engine = Engine::with_config(deployment.coordinator, EngineConfig::default())
        .with_shards(Arc::new(set));
    phases.shard_s = t.elapsed().as_secs_f64();
    (engine, catalogs)
}

/// Builds and boots one deployment (`shards` = 0: unsharded).
pub fn boot(shards: usize) -> Env {
    let mut phases = Phases::default();
    let dataset = dataset(&mut phases);
    let (engine, shard_catalogs) = engine(&dataset, shards, &mut phases);
    let t = Instant::now();
    let server = serve(engine.clone(), server_config()).expect("server boots");
    phases.boot_s = t.elapsed().as_secs_f64();
    Env { dataset, server, engine, shard_catalogs, phases }
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
