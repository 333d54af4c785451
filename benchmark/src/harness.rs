//! Pieces every workload shares: the seeded RNG, output checks, durable
//! fixtures, in-process servers, query templates and the durability
//! epilogue (stored bytes, crash copy, recovery, comparison).

use crate::host;
use crate::stats;
use insightnotes_common::crc32;
use insightnotes_engine::db::QueryResult;
use insightnotes_engine::{Database, DbConfig, ShardedDatabase, SqlStatement, SyncPolicy};
use insightnotes_server::{Server, ServerConfig, ServerHandle};
use insightnotes_storage::Value;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every durable fixture logs under the shipping default flush policy.
pub const FLUSH_POLICY: SyncPolicy = SyncPolicy::Batch;
/// Shards (and therefore committers) behind every served fixture.
pub const SERVER_SHARDS: usize = 2;
/// A request later than this, or failed, misses the latency limit.
pub const SLO_MS: f64 = 20.0;
/// Fewest repetitions of a step whose time is reported as a median
/// (set-up, recovery).
pub const REPEATS: usize = 3;

/// splitmix64: the benchmark's own choices (ids, schedules, samples) come
/// from here, the statements themselves from `insightnotes-workload`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `1..=n`.
    pub fn one_to(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize + 1
    }
}

/// Output checks of one run. A failed check fails the run.
#[derive(Default)]
pub struct Checks {
    pub passed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}

/// CRC32 of a statement stream, order included.
pub fn digest_statements<'a>(statements: impl IntoIterator<Item = &'a String>) -> u32 {
    let mut bytes = Vec::new();
    for s in statements {
        bytes.extend_from_slice(s.as_bytes());
        bytes.push(b'\n');
    }
    crc32(&bytes)
}

/// CRC32 of a result's rows: values and rendered summary objects, in order.
pub fn digest_result(result: &QueryResult) -> u32 {
    let mut text = String::new();
    for r in &result.rows {
        for v in r.row.values() {
            text.push_str(&v.to_string());
            text.push('|');
        }
        for (instance, object) in &r.summaries {
            text.push_str(&format!("{instance}={object};"));
        }
        text.push('\n');
    }
    crc32(text.as_bytes())
}

/// Heap bytes of the summary objects a result carries, and its row count.
pub fn summary_bytes(result: &QueryResult) -> (usize, usize) {
    let bytes = result
        .rows
        .iter()
        .flat_map(|r| r.summaries.iter())
        .map(|(_, o)| o.heap_bytes())
        .sum();
    (bytes, result.rows.len())
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Calls `measure` at least [`REPEATS`] times, and on while the calls have
/// taken under a second in all (up to 15), so that a quick step gets enough
/// samples for a steady median; once only when `quick`. Returns the last
/// result and the median of the seconds `measure` reported.
pub fn repeated<T>(quick: bool, mut measure: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < if quick { 1 } else { REPEATS }
        || (!quick && seconds.len() < 15 && seconds.iter().sum::<f64>() < 1.0)
    {
        drop(last.take());
        let (built, s) = measure();
        seconds.push(s);
        last = Some(built);
    }
    (last.expect("at least one call"), stats::median(&seconds))
}

/// [`repeated`] set-ups, each timed whole: the previous result is dropped
/// (untimed) before the next is built.
pub fn repeat_setup<T>(quick: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    repeated(quick, || timed(&mut setup))
}

// -- query templates --------------------------------------------------------

/// The SELECT shapes the propagation pass and the layer probes share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    Point,
    Scan,
    Project,
    Join2,
    SumPred,
    GroupBy,
    Join3,
}

impl Template {
    pub const ALL: [Template; 7] = [
        Template::Point,
        Template::Scan,
        Template::Project,
        Template::Join2,
        Template::SumPred,
        Template::GroupBy,
        Template::Join3,
    ];

    /// The `exec.*` metric this template's execution time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Template::Point => "exec.point_us",
            Template::Scan => "exec.scan_us",
            Template::Project => "exec.project_us",
            Template::Join2 => "exec.join2_us",
            Template::SumPred => "exec.sumpred_us",
            Template::GroupBy => "exec.groupby_us",
            Template::Join3 => "exec.join3_us",
        }
    }
}

/// The bird table as loaded, from which statements are instantiated so
/// that the seed picks *which* rows a statement touches and not *how many*:
/// scans keep a fixed share of the rows, joins pin a row of a region of
/// fixed size rank. Otherwise the seed would move every timing through the
/// result sizes alone.
pub struct Birds {
    /// Weights, ascending.
    weights: Vec<f64>,
    /// Ids per region, smallest region first.
    regions: Vec<Vec<i64>>,
    anns_per_row: usize,
}

impl Birds {
    pub fn read(db: &Database, anns_per_row: usize) -> Self {
        let rows = db
            .query_uncached("SELECT id, weight, region FROM birds")
            .expect("read bird table")
            .rows;
        let mut weights = Vec::with_capacity(rows.len());
        let mut by_region: std::collections::BTreeMap<String, Vec<i64>> = Default::default();
        for r in &rows {
            // A whole-numbered weight is stored as the integer it was written as.
            let (id, weight, region) = match r.row.values() {
                [Value::Int(id), Value::Float(w), Value::Text(region)] => (id, *w, region),
                [Value::Int(id), Value::Int(w), Value::Text(region)] => (id, *w as f64, region),
                other => panic!("unexpected bird row {other:?}"),
            };
            weights.push(weight);
            by_region.entry(region.clone()).or_default().push(*id);
        }
        weights.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));
        let mut regions: Vec<Vec<i64>> = by_region.into_values().collect();
        regions.sort_by_key(Vec::len);
        Self {
            weights,
            regions,
            anns_per_row,
        }
    }

    pub fn count(&self) -> usize {
        self.weights.len()
    }

    pub fn point(&self, rng: &mut Rng) -> String {
        format!(
            "SELECT name, weight FROM birds WHERE id = {}",
            rng.one_to(self.count())
        )
    }

    /// A filtered scan that keeps the heaviest `share` of the rows.
    pub fn scan(&self, share: f64) -> String {
        let cut = ((1.0 - share) * self.count() as f64) as usize;
        format!(
            "SELECT name, region FROM birds WHERE weight > {}",
            self.weights[cut.min(self.count() - 1)]
        )
    }

    /// A row of the region `rank` places above the median size.
    fn row_in_region(&self, rng: &mut Rng, rank: isize) -> i64 {
        let mid = (self.regions.len() / 2) as isize;
        let region = &self.regions[(mid + rank).clamp(0, self.regions.len() as isize - 1) as usize];
        region[rng.one_to(region.len()) - 1]
    }

    /// One statement of shape `template`; `i` counts the statements of this
    /// shape made so far and cycles the shape's fixed parameters.
    pub fn statement(&self, template: Template, i: usize, rng: &mut Rng) -> String {
        match template {
            Template::Point => self.point(rng),
            Template::Scan => {
                self.scan([0.9, 0.3, 0.7, 0.5, 0.6, 0.4, 0.8, 0.2, 0.55, 0.45][i % 10])
            }
            Template::Project => "SELECT name, sci_name, wingspan FROM birds".to_string(),
            Template::Join2 => format!(
                "SELECT a.name, b.region FROM birds a, birds b \
                 WHERE a.region = b.region AND a.id = {}",
                self.row_in_region(rng, [0, -1, 1, -2, 2][i % 5])
            ),
            // A quarter of a row's annotations is the mean share of one of
            // the four classes, so these thresholds split the rows.
            Template::SumPred => format!(
                "SELECT name FROM birds WHERE SUMMARY_COUNT(ClassBird1, 'Disease') > {}",
                self.anns_per_row / 4 + i % 2
            ),
            Template::GroupBy => {
                "SELECT region, COUNT(*) AS n FROM birds GROUP BY region".to_string()
            }
            Template::Join3 => {
                let id = self.row_in_region(rng, 0);
                format!(
                    "SELECT a.name, c.name FROM birds a, birds b, birds c \
                     WHERE a.region = b.region AND b.region = c.region \
                     AND a.id = {id} AND b.id = {id}"
                )
            }
        }
    }
}

// -- fixtures -----------------------------------------------------------------

/// One database's directories under the scratch root: `durable/` holds
/// what must survive a crash (the log tree and the snapshot set), `cache/`
/// the zoom-in result cache.
pub struct Fixture {
    pub root: PathBuf,
    pub db: Arc<ShardedDatabase>,
}

fn config_at(root: &Path, wal: bool) -> DbConfig {
    DbConfig {
        cache_dir: Some(root.join("cache")),
        wal_dir: wal.then(|| root.join("durable").join("wal")),
        wal_sync: FLUSH_POLICY,
        ..DbConfig::default()
    }
}

fn snapshot_at(root: &Path) -> PathBuf {
    root.join("durable").join("snap.indb")
}

impl Fixture {
    /// A fresh, empty database at `root` (whatever was there is removed).
    pub fn create(root: &Path, shards: usize, wal: bool) -> ShardedDatabase {
        host::fresh_dir(root);
        std::fs::create_dir_all(root.join("durable")).expect("create durable directory");
        ShardedDatabase::create(config_at(root, wal), shards).expect("create database")
    }

    /// [`Fixture::create`], then the set-up script and the annotations,
    /// through the embedded engine.
    pub fn load(
        root: &Path,
        shards: usize,
        wal: bool,
        setup: &[String],
        annotations: &[String],
    ) -> ShardedDatabase {
        let db = Self::create(root, shards, wal);
        for statement in setup {
            db.execute_sql(statement).expect("setup statement");
        }
        annotate_in_groups(&db, annotations, 1024);
        db
    }

    pub fn new(root: &Path, db: Arc<ShardedDatabase>) -> Self {
        Self {
            root: root.to_path_buf(),
            db,
        }
    }

    pub fn checkpoint(&self) {
        checkpoint(&self.db, &self.root);
    }
}

/// Checkpoints `db` into the snapshot set of the fixture at `root`.
pub fn checkpoint(db: &ShardedDatabase, root: &Path) {
    db.checkpoint(snapshot_at(root)).expect("checkpoint");
}

/// An in-process server over a fixture's database.
pub struct Served {
    pub addr: SocketAddr,
    pub handle: ServerHandle,
    pub db: Arc<ShardedDatabase>,
    thread: Option<JoinHandle<u64>>,
}

/// Binds `127.0.0.1:0` and runs the server on its own thread.
pub fn serve(db: ShardedDatabase, config: ServerConfig) -> Served {
    let server = Server::bind_sharded("127.0.0.1:0", db, config).expect("bind server");
    let addr = server.local_addr().expect("server address");
    let handle = server.handle();
    let db = server.sharded_database();
    let thread = std::thread::spawn(move || server.run().expect("server run"));
    Served {
        addr,
        handle,
        db,
        thread: Some(thread),
    }
}

impl Served {
    /// Graceful shutdown; returns the requests served.
    pub fn stop(mut self) -> u64 {
        self.handle.shutdown();
        let thread = self.thread.take().expect("server thread is joined once");
        thread.join().expect("server thread")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs `ADD ANNOTATION` statements through the embedded engine the way a
/// committer applies drained groups: `group` statements per batch, the log
/// forced after each. Every statement must be accepted.
pub fn annotate_in_groups(db: &ShardedDatabase, statements: &[String], group: usize) {
    for chunk in statements.chunks(group) {
        let parsed = chunk
            .iter()
            .map(|s| SqlStatement::parse(s.as_str()).expect("generated statement parses"))
            .collect();
        for outcome in db.annotate_batch_sql(parsed) {
            outcome.expect("annotation accepted");
        }
        db.wal_sync_all().expect("sync log");
    }
}

// -- durability epilogue ------------------------------------------------------

pub struct Durability {
    pub recover_s: f64,
    pub records_replayed: usize,
    pub stored_bytes_per_ann: f64,
    pub summary_bytes_per_row: f64,
}

/// The crash test. The durable directory is copied, each log in the copy
/// is cut to the length its shard had fsynced (a killed process keeps the
/// operating system's cache, so the test itself discards what was not
/// flushed), the copy is recovered several times, and the recovered state
/// must equal the live one shard by shard. Returns the median recovery's
/// seconds and the log records one recovery replayed.
pub fn crash_and_recover(fx: &Fixture, quick: bool, checks: &mut Checks) -> (f64, usize) {
    let crash = fx.root.with_extension("crash");
    host::fresh_dir(&crash);
    host::copy_dir(&fx.root.join("durable"), &crash.join("durable")).expect("copy durable state");
    let (shards, wal) = (fx.db.shard_count(), fx.db.wal_enabled());
    let live: Vec<Vec<u8>> = (0..shards)
        .map(|k| {
            let shard = fx.db.shard(k).read();
            if let (Some(path), Some((_, committed))) = (shard.wal_path(), shard.wal_committed()) {
                let relative = path
                    .strip_prefix(&fx.root)
                    .expect("log lives under the fixture root");
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(crash.join(relative))
                    .and_then(|f| f.set_len(committed))
                    .expect("cut log copy to the fsynced length");
            }
            shard.snapshot_bytes()
        })
        .collect();

    let (records_replayed, seconds) = repeated(quick, || {
        let ((recovered, report), s) = timed(|| {
            ShardedDatabase::recover(Some(&snapshot_at(&crash)), config_at(&crash, wal), shards)
                .expect("recover crash copy")
        });
        for (k, expected) in live.iter().enumerate() {
            let same = recovered.shard(k).read().snapshot_bytes() == *expected;
            checks.require(same, || {
                format!("recovered shard {k} differs from the live shard")
            });
        }
        (report.records_replayed(), s)
    });
    let _ = std::fs::remove_dir_all(&crash);
    (seconds, records_replayed)
}

/// What every workload ends with: the stored size of its final state, the
/// crash test (median recovery time), and the summary bytes a
/// full projection of the final state carries per row.
pub fn durability_epilogue(fx: &Fixture, quick: bool, checks: &mut Checks) -> Durability {
    let live_annotations = fx.db.annotation_count();
    if !snapshot_set_exists(&fx.root) {
        fx.checkpoint();
    }
    let stored = host::dir_bytes(&fx.root.join("durable"));
    let (recover_s, records_replayed) = crash_and_recover(fx, quick, checks);
    let projection = fx
        .db
        .query("SELECT name, sci_name, wingspan FROM birds")
        .expect("final projection");
    let (bytes, rows) = summary_bytes(&projection);
    Durability {
        recover_s,
        records_replayed,
        stored_bytes_per_ann: stored as f64 / live_annotations.max(1) as f64,
        summary_bytes_per_row: bytes as f64 / rows.max(1) as f64,
    }
}

fn snapshot_set_exists(root: &Path) -> bool {
    std::fs::read_dir(root.join("durable")).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with("snap.indb"))
    })
}

/// Embedded single-shard access for code that wants a `&Database`.
pub fn with_embedded<T>(db: &ShardedDatabase, f: impl FnOnce(&Database) -> T) -> T {
    f(&db.shard(0).read())
}

// -- open-loop schedule -------------------------------------------------------

/// Fixed-interval send times. Latency is counted from `due(i)`, a slot is
/// never skipped, and how late each send ran is reported as the lag.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn per_second(start: Instant, rate: f64) -> Self {
        Self {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    pub fn due(&self, slot: usize) -> Instant {
        self.start + self.interval.mul_f64(slot as f64)
    }

    /// Sleeps until `slot` is due and returns how late the wake-up was, in
    /// milliseconds. The last stretch is spun so that a coarse timer does
    /// not become generator lag.
    pub fn wait(&self, slot: usize) -> f64 {
        let due = self.due(slot);
        loop {
            let now = Instant::now();
            if now >= due {
                return (now - due).as_secs_f64() * 1e3;
            }
            let left = due - now;
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(150));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}
