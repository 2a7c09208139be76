//! `service-mix`: four tenants submit batches of queries to one
//! [`QueryService`] with a [`DurableStore`] attached and a shared task
//! cache bounded below the working set.
//!
//! Most queries are crowd filters over the 211-scene movie table (three
//! predicates over overlapping id ranges, one HIT per scene, so the
//! working set is 3 × 211 specs); the rest are machine-only scans and
//! sorts of a 100,000-row table. The run is a sequence of epochs; each
//! epoch is a fresh marketplace, store and service running a fixed
//! batch sequence, so the simulator's history stays bounded. Epochs
//! on the same crowd seed are compared, and how many differ from the
//! first is printed: the bounded cache's eviction order depends on
//! thread timing, so they need not repeat exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qurk::ops::FilterOp;
use qurk::prelude::*;
use qurk::service::QueryService;
use qurk::DurableStore;
use qurk_crowd::truth::PredicateTruth;
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};
use qurk_data::movie::{movie_dataset, MovieConfig};

use crate::frontend::time_front_end;
use crate::measure::{
    fingerprint, mean, median, mix, record_timing, rss_mb, timed, OpTimes, Paper, RunResult, Setups,
};
use crate::timing::{Snapshot, TimingBackend};

/// Distinct crowd seeds (and batch sequences) per run.
const SEEDS: usize = 8;
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
/// Queries per `run_pending` batch (two per tenant).
const BATCH: usize = 8;
/// Batches per epoch.
const EPOCH_BATCHES: usize = 40;
/// Every `MACHINE_EVERY`-th query is machine-only.
const MACHINE_EVERY: usize = 32;
/// Shared cache bound, below the 633-spec working set.
pub const CACHE_MAX: usize = 256;
/// Rows of the machine-only table.
pub const BIG_ROWS: i64 = 100_000;
/// Crowd filter predicates and the error rate of each answer.
const PREDICATES: [&str; 3] = ["soloScene", "daylight", "closeUp"];
const ERROR_RATE: f64 = 0.03;
/// Least acceptable mean filter accuracy of one epoch.
const ACCURACY_FLOOR: f64 = 0.9;

/// A query of the mix and what its answer must be.
#[derive(Clone)]
enum Expect {
    /// Crowd filter over ids `lo..hi` with predicate `pred`.
    Crowd { pred: usize, lo: usize, hi: usize },
    /// Machine query returning exactly these ids, in this order when
    /// `ordered`.
    Machine { ids: Vec<i64>, ordered: bool },
}

struct World {
    catalog: Catalog,
    truth: GroundTruth,
    /// `answers[p][scene]` = ground truth of predicate `p`.
    answers: Vec<Vec<bool>>,
    /// Column `a` of the machine table, for expected answers.
    big_a: Vec<i64>,
    big_c: Vec<i64>,
}

fn build_world(data_seed: u64) -> (World, f64) {
    let mut truth = GroundTruth::new();
    let ds = movie_dataset(
        &mut truth,
        &MovieConfig {
            seed: data_seed,
            ..MovieConfig::default()
        },
    );
    let mut answers = vec![Vec::new(); PREDICATES.len()];
    for scene in &ds.scenes {
        let values = [
            scene.num_in_scene == 1,
            scene.second % 5 != 0,
            scene.featured_actor.is_some(),
        ];
        for (p, &value) in values.iter().enumerate() {
            truth.set_predicate(
                scene.item,
                PREDICATES[p],
                PredicateTruth {
                    value,
                    error_rate: ERROR_RATE,
                },
            );
            answers[p].push(value);
        }
    }
    let big_a: Vec<i64> = (0..BIG_ROWS)
        .map(|i| (mix(data_seed, i as u64) % 1000) as i64)
        .collect();
    let big_c: Vec<i64> = (0..BIG_ROWS)
        .map(|i| (mix(data_seed ^ 0xC, i as u64) % 1_000_000) as i64)
        .collect();
    let ((scenes, big), build_s) = timed(|| {
        let mut scenes = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("img", ValueType::Item),
        ]));
        for (i, scene) in ds.scenes.iter().enumerate() {
            scenes
                .push(vec![Value::Int(i as i64), Value::Item(scene.item)])
                .expect("scene row matches schema");
        }
        let mut big = Relation::new(Schema::new(&[
            ("id", ValueType::Int),
            ("a", ValueType::Int),
            ("b", ValueType::Int),
            ("c", ValueType::Int),
        ]));
        for i in 0..BIG_ROWS {
            let at = i as usize;
            big.push(vec![
                Value::Int(i),
                Value::Int(big_a[at]),
                Value::Int(i ^ 0x5DEE),
                Value::Int(big_c[at]),
            ])
            .expect("big row matches schema");
        }
        (scenes, big)
    });
    let mut catalog = Catalog::new();
    catalog.register_table("scenes", scenes);
    catalog.register_table("big", big);
    catalog
        .define_tasks(
            r#"TASK soloScene(field) TYPE Filter:
                Prompt: "<img src='%s'> Exactly one person?", tuple[field]
               TASK daylight(field) TYPE Filter:
                Prompt: "<img src='%s'> Daylight?", tuple[field]
               TASK closeUp(field) TYPE Filter:
                Prompt: "<img src='%s'> An actor in close-up?", tuple[field]
            "#,
        )
        .expect("task definitions parse");
    let world = World {
        catalog,
        truth,
        answers,
        big_a,
        big_c,
    };
    (world, build_s)
}

/// One crowd filter per scene HIT, so specs are (predicate, scene).
fn exec_config() -> ExecConfig {
    ExecConfig {
        filter: FilterOp {
            batch_size: 1,
            ..FilterOp::default()
        },
        ..ExecConfig::default()
    }
}

/// The epoch's batches: `(tenant, sql, expected)` per query.
fn epoch_queries(w: &World, seed: u64, batches: usize) -> Vec<Vec<(usize, String, Expect)>> {
    let scenes = w.answers[0].len();
    (0..batches)
        .map(|b| {
            (0..BATCH)
                .map(|q| {
                    let g = (b * BATCH + q) as u64;
                    let r = mix(seed, g);
                    let tenant = q % TENANTS.len();
                    if (b * BATCH + q) % MACHINE_EVERY == MACHINE_EVERY - 1 {
                        let t = (r % 60) as i64 + 20;
                        let mut rows: Vec<(i64, i64)> = (0..BIG_ROWS)
                            .filter(|&i| w.big_a[i as usize] < t)
                            .map(|i| (w.big_c[i as usize], i))
                            .collect();
                        let ordered = r.is_multiple_of(2);
                        let sql = if ordered {
                            rows.sort();
                            format!("SELECT b.id, b.c FROM big AS b WHERE b.a < {t} ORDER BY b.c")
                        } else {
                            format!("SELECT b.id, b.a FROM big AS b WHERE b.a < {t}")
                        };
                        let ids = rows.into_iter().map(|(_, id)| id).collect();
                        (tenant, sql, Expect::Machine { ids, ordered })
                    } else {
                        let pred = (r % PREDICATES.len() as u64) as usize;
                        let lo = ((r >> 8) % scenes as u64) as usize;
                        let hi = (lo + 8 + ((r >> 24) % 17) as usize).min(scenes);
                        let sql = format!(
                            "SELECT s.id FROM scenes AS s WHERE s.id >= {lo} AND s.id < {hi} AND {}(s.img)",
                            PREDICATES[pred]
                        );
                        (tenant, sql, Expect::Crowd { pred, lo, hi })
                    }
                })
                .collect()
        })
        .collect()
}

/// Filter accuracy of a crowd answer, or exactness of a machine one.
fn score(w: &World, expect: &Expect, rel: &Relation) -> (Option<f64>, bool) {
    let ids: Vec<i64> = rel
        .iter()
        .filter_map(|t| t.get(0).and_then(|v| v.as_int()))
        .collect();
    match expect {
        Expect::Crowd { pred, lo, hi } => {
            let got: BTreeSet<i64> = ids.iter().copied().collect();
            let in_range = got.iter().all(|&i| (*lo as i64..*hi as i64).contains(&i));
            let correct = (*lo..*hi)
                .filter(|&i| got.contains(&(i as i64)) == w.answers[*pred][i])
                .count();
            let accuracy = correct as f64 / (hi - lo).max(1) as f64;
            (Some(accuracy), in_range && got.len() == ids.len())
        }
        Expect::Machine { ids: want, ordered } => {
            let ok = if *ordered {
                ids == *want
            } else {
                let mut got = ids.clone();
                got.sort_unstable();
                let mut want = want.clone();
                want.sort_unstable();
                got == want
            };
            (None, ok)
        }
    }
}

/// A store file under the run's scratch directory.
fn store_path(dir: &Path) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("store-{}-{n}.qwal", std::process::id()))
}

fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("compact.tmp"));
}

#[derive(Default)]
struct Epoch {
    paper: Option<Paper>,
    /// Per-batch wall time: first submit to `run_pending`'s return.
    /// Every query of a batch completes at its end, so this is the
    /// latency of each of its queries.
    batch_secs: Vec<f64>,
    submit_secs: Vec<f64>,
    run_pending_secs: Vec<f64>,
    queries: usize,
    rounds: f64,
    rounds_shared: f64,
    queue_wait: f64,
    cache_hits: u64,
    cache_misses: u64,
    evictions: u64,
    store_bytes: u64,
    market: Option<Snapshot>,
    failed_ops: u64,
    failures: Vec<String>,
    store_path: PathBuf,
}

fn run_epoch(
    w: &World,
    crowd_seed: u64,
    batches: &[Vec<(usize, String, Expect)>],
    traced: bool,
    dir: &Path,
) -> Epoch {
    let market = Marketplace::new(
        &CrowdConfig::default().with_seed(crowd_seed),
        w.truth.clone(),
    );
    if traced {
        let backend = TimingBackend::new(market);
        let times = Arc::clone(&backend.times);
        let mut e = drive(w, backend, batches, dir);
        e.market = Some(times.snapshot());
        e
    } else {
        drive(w, market, batches, dir)
    }
}

fn open_service<'c, B: CrowdBackend>(
    catalog: &'c Catalog,
    backend: B,
    path: &Path,
) -> Result<QueryService<'c, B>, String> {
    let store = DurableStore::open(path).map_err(|e| format!("store open: {e}"))?;
    let mut svc = QueryService::with_store(catalog, backend, exec_config(), Arc::new(store));
    for t in TENANTS {
        svc.register_tenant(t, None);
    }
    svc.set_cache_max_entries(Some(CACHE_MAX));
    Ok(svc)
}

fn drive<B: CrowdBackend>(
    w: &World,
    backend: B,
    batches: &[Vec<(usize, String, Expect)>],
    dir: &Path,
) -> Epoch {
    let mut e = Epoch {
        store_path: store_path(dir),
        ..Epoch::default()
    };
    let mut svc = match open_service(&w.catalog, backend, &e.store_path) {
        Ok(svc) => svc,
        Err(msg) => {
            e.failures.push(msg);
            return e;
        }
    };
    let bytes_at_start = svc.store().map_or(0, |s| s.len_bytes());
    let mut virtual_s = 0.0;
    let mut tsv = String::new();
    let mut accuracy = Vec::new();
    for batch in batches {
        let batch_start = Instant::now();
        let mut admitted = Vec::with_capacity(batch.len());
        for (tenant, sql, expect) in batch {
            let t = Instant::now();
            match svc.submit(TENANTS[*tenant], sql) {
                Ok(_) => admitted.push(expect),
                Err(err) => {
                    e.failed_ops += 1;
                    e.failures.push(format!("submit {sql:?}: {err}"));
                }
            }
            e.submit_secs.push(t.elapsed().as_secs_f64());
        }
        let (reports, run_s) = timed(|| svc.run_pending());
        e.run_pending_secs.push(run_s);
        e.batch_secs.push(batch_start.elapsed().as_secs_f64());
        e.queries += batch.len();
        for (report, expect) in reports.into_iter().zip(admitted) {
            let report = match report {
                Ok(r) => r,
                Err(err) => {
                    e.failed_ops += 1;
                    e.failures.push(format!("query failed: {err}"));
                    continue;
                }
            };
            virtual_s += report.elapsed_secs;
            tsv.push_str(&report.relation.to_tsv());
            let (acc, ok) = score(w, expect, &report.relation);
            accuracy.extend(acc);
            if !ok {
                e.failures.push(format!(
                    "wrong answer for {expect_kind}",
                    expect_kind = match expect {
                        Expect::Crowd { .. } => "a crowd filter",
                        Expect::Machine { .. } => "a machine query",
                    }
                ));
            }
            if let Some(s) = &report.service {
                e.rounds += s.rounds as f64;
                e.rounds_shared += s.rounds_shared as f64;
                e.queue_wait += s.queue_wait_secs;
            }
        }
    }
    let tenant_total: f64 = TENANTS
        .iter()
        .map(|t| svc.tenant_spent(t).unwrap_or(f64::NAN))
        .sum();
    let market_total = svc.market().total_spend();
    // NaN (an unknown tenant) fails too.
    let balanced = (tenant_total - market_total).abs() <= 1e-9 * market_total.max(1.0);
    if !balanced {
        e.failures.push(format!(
            "tenant spend {tenant_total} does not sum to the market total {market_total}"
        ));
    }
    (e.cache_hits, e.cache_misses) = svc.market().cache_stats();
    e.evictions = svc.market().cache_evictions();
    e.store_bytes = svc
        .store()
        .map_or(0, |s| s.len_bytes())
        .saturating_sub(bytes_at_start);
    e.paper = Some(Paper {
        hits: svc.market().total_hits_posted(),
        dollars: market_total,
        virtual_s,
        tsv: fingerprint(&tsv),
        quality: mean(&accuracy),
    });
    e
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut r = RunResult::default();
    let dir = PathBuf::from(".perfbench_tmp");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        r.checks
            .check(false, || format!("cannot create {}: {e}", dir.display()));
        return r;
    }
    let data_seed = mix(seed, 0x30F1E);
    let crowd_seeds: Vec<u64> = (0..SEEDS as u64).map(|k| mix(seed, k + 1)).collect();

    // Set-up: dataset, catalog, store, marketplace and service.
    // `time_setups` times set-ups while one is due and returns the
    // first world it built: the one the epochs run on. Later set-ups
    // are timed between epochs and dropped.
    let mut setups = Setups::default();
    let mut build_secs = Vec::new();
    let mut open_secs = Vec::new();
    let mut relation_rss = 0.0;
    let mut time_setups = |progress: f64| {
        let mut first = None;
        while setups.due(progress) {
            let rss_before = rss_mb();
            let path = store_path(&dir);
            let start = Instant::now();
            let (w, build_s) = build_world(data_seed);
            if setups.is_empty() {
                relation_rss = rss_mb() - rss_before;
            }
            let market = Marketplace::new(
                &CrowdConfig::default().with_seed(crowd_seeds[0]),
                w.truth.clone(),
            );
            let (svc, open_s) = timed(|| open_service(&w.catalog, market, &path));
            let secs = start.elapsed().as_secs_f64();
            if let Err(msg) = svc {
                r.checks.check(false, || msg);
            }
            remove_store(&path);
            setups.push(secs);
            build_secs.push(build_s);
            open_secs.push(open_s);
            first.get_or_insert(w);
        }
        first
    };
    let w = time_setups(0.0).expect("at least one set-up");
    let sequences: Vec<_> = (0..SEEDS as u64)
        .map(|k| epoch_queries(&w, mix(seed, 0x5E0 + k), EPOCH_BATCHES))
        .collect();

    // Warm-up: one short untimed epoch.
    let warm = run_epoch(&w, crowd_seeds[0], &sequences[0][..2], false, &dir);
    remove_store(&warm.store_path);

    let min_epochs = if trace { 2 * SEEDS } else { SEEDS };
    let mut epochs: Vec<(usize, bool, Epoch)> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < min_epochs {
        let k = i % SEEDS;
        let traced = trace && (i / SEEDS) % 2 == 1;
        let e = run_epoch(&w, crowd_seeds[k], &sequences[k], traced, &dir);
        // Keep only the latest log, for the recovery timing.
        if let Some((_, _, prev)) = epochs.last() {
            remove_store(&prev.store_path);
        }
        epochs.push((k, traced, e));
        i += 1;
        time_setups(start.elapsed().as_secs_f64() / seconds);
    }
    time_setups(1.0);

    // Checks. Epochs on one seed are compared but not failed: with the
    // cache bound, which entries are evicted depends on the order the
    // parallel machine phase touches them, so repeats can differ.
    let mut first: BTreeMap<usize, Paper> = BTreeMap::new();
    let mut papers = Vec::new();
    let mut diverged = 0;
    for (k, _, e) in &epochs {
        r.attempted += e.queries as u64;
        r.failed_ops += e.failed_ops;
        for f in &e.failures {
            r.checks.check(false, || f.clone());
        }
        let Some(paper) = e.paper else { continue };
        r.checks.check(paper.quality >= ACCURACY_FLOOR, || {
            format!(
                "seed #{k}: filter accuracy {:.4} below {ACCURACY_FLOOR}",
                paper.quality
            )
        });
        diverged += usize::from(*first.entry(*k).or_insert(paper) != paper);
        papers.push(paper);
    }
    r.notes.push(format!(
        "epochs whose HITs, dollars, virtual seconds or results differ from the first epoch on their seed: {diverged} of {}",
        epochs.len()
    ));
    let queries = EPOCH_BATCHES * BATCH;
    let mean_of =
        |f: fn(&Paper) -> f64| papers.iter().map(f).sum::<f64>() / papers.len().max(1) as f64;
    let last_store = epochs.last().map(|(_, _, e)| e.store_path.clone());

    let untraced: Vec<&Epoch> = epochs
        .iter()
        .filter(|(_, t, _)| !t)
        .map(|(_, _, e)| e)
        .collect();
    let untraced_b: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.batch_secs.iter().copied())
        .collect();
    if !trace {
        // Latency is sampled once per batch: its queries finish
        // together, and counting each of them would leave the tail
        // only one or two batches to stand on.
        record_timing(
            &mut r,
            &OpTimes {
                op_secs: &untraced_b,
                ops: untraced.iter().map(|e| e.queries).sum(),
                busy_secs: untraced_b.iter().sum(),
                setup_secs: setups.median(),
            },
            None,
        );
        r.metrics
            .set("hits", mean_of(|p| p.hits as f64) / queries as f64);
        r.metrics
            .set("dollars", mean_of(|p| p.dollars) / queries as f64);
        r.metrics.set("quality", mean_of(|p| p.quality));
        if let Some(p) = last_store {
            remove_store(&p);
        }
        let _ = std::fs::remove_dir(&dir);
        return r;
    }

    // Traced run: per-layer numbers over the traced epochs.
    let traced: Vec<&Epoch> = epochs
        .iter()
        .filter(|(_, t, _)| *t)
        .map(|(_, _, e)| e)
        .collect();
    let traced_b: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.batch_secs.iter().copied())
        .collect();
    let tq = traced.iter().map(|e| e.queries).sum::<usize>().max(1) as f64;
    let tb = traced
        .iter()
        .map(|e| e.run_pending_secs.len())
        .sum::<usize>()
        .max(1) as f64;
    let sum = |f: &dyn Fn(&Epoch) -> f64| traced.iter().map(|e| f(e)).sum::<f64>();
    let market_s = sum(&|e| e.market.map_or(0.0, |s| s.total_secs()));
    let run_pending_s = sum(&|e| e.run_pending_secs.iter().sum());
    let hits_posted = sum(&|e| e.paper.map_or(0.0, |p| p.hits as f64));
    let ns_per_hit = market_s * 1e9 / hits_posted.max(1.0);

    // Half-length epoch on the same seed, for ns/HIT growth.
    let half = run_epoch(
        &w,
        crowd_seeds[0],
        &sequences[0][..EPOCH_BATCHES / 2],
        true,
        &dir,
    );
    remove_store(&half.store_path);
    let half_ns_per_hit = half.market.map_or(0.0, |s| s.total_secs()) * 1e9
        / half.paper.map_or(1.0, |p| p.hits.max(1) as f64);

    // Recovery: reopen the last epoch's log and recover from it.
    let recover_s = last_store.as_ref().map_or(0.0, |path| {
        let start = Instant::now();
        let market = Marketplace::new(
            &CrowdConfig::default().with_seed(crowd_seeds[0]),
            w.truth.clone(),
        );
        if let Ok(store) = DurableStore::open(path) {
            let mut svc =
                QueryService::with_store(&w.catalog, market, exec_config(), Arc::new(store));
            std::hint::black_box(svc.recover());
        }
        let secs = start.elapsed().as_secs_f64();
        remove_store(path);
        secs
    });
    let _ = std::fs::remove_dir(&dir);

    let mut all = Snapshot::default();
    for e in &traced {
        if let Some(snap) = &e.market {
            all = all.plus(snap);
        }
    }
    r.notes.extend(all.describe());
    let m = &mut r.metrics;
    let snap_sum = |f: fn(&Snapshot) -> f64| {
        traced
            .iter()
            .filter_map(|e| e.market.as_ref())
            .map(f)
            .sum::<f64>()
    };
    m.set("crowd.market.run_s", snap_sum(Snapshot::run_secs) / tq);
    m.set("crowd.market.post_s", snap_sum(Snapshot::post_secs) / tq);
    m.set(
        "crowd.market.assignments_s",
        snap_sum(Snapshot::assignments_secs) / tq,
    );
    m.set(
        "crowd.market.calls",
        snap_sum(|s| s.total_calls() as f64) / tq,
    );
    m.set("crowd.market.ns_per_hit", ns_per_hit);
    m.set(
        "crowd.market.share",
        market_s / sum(&|e| e.batch_secs.iter().sum()).max(1e-12),
    );
    m.set(
        "crowd.market.ns_per_hit_growth",
        ns_per_hit / half_ns_per_hit.max(1e-12),
    );
    m.set("crowd.virtual_s", mean_of(|p| p.virtual_s) / queries as f64);
    m.set(
        "service.submit_us",
        sum(&|e| e.submit_secs.iter().sum()) * 1e6 / tq,
    );
    m.set("service.run_pending_s", run_pending_s / tb);
    m.set("service.machine_s", (run_pending_s - market_s) / tb);
    m.set("service.rounds", sum(&|e| e.rounds) / tq);
    m.set("service.rounds_shared", sum(&|e| e.rounds_shared) / tq);
    let hits = sum(&|e| e.cache_hits as f64);
    let misses = sum(&|e| e.cache_misses as f64);
    m.set("service.cache_hits", hits / tq);
    m.set("service.cache_misses", misses / tq);
    m.set("service.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.set("service.cache_evictions", sum(&|e| e.evictions as f64) / tq);
    m.set("service.queue_wait_virtual_s", sum(&|e| e.queue_wait) / tq);
    m.set("store.bytes_per_query", sum(&|e| e.store_bytes as f64) / tq);
    m.set("store.open_s", median(&open_secs));
    m.set("store.recover_s", recover_s);
    m.set("relation.build_s", median(&build_secs));
    m.set("relation.rss_mb", relation_rss);
    let sample: Vec<String> = sequences[0]
        .iter()
        .flatten()
        .take(2 * BATCH)
        .map(|(_, sql, _)| sql.clone())
        .collect();
    let front = time_front_end(&sample, &w.catalog, &exec_config(), None);
    front.record(m, traced_b.iter().sum::<f64>() / tq);
    m.set(
        "trace.overhead",
        median(&traced_b) / median(&untraced_b).max(1e-12),
    );
    r
}
