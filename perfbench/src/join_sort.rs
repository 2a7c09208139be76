//! `join-sort`: one operation is two queries through
//! `Session::query(..).report()`, each on a fresh marketplace: an
//! unbatched celebrity join (N = 80, 6,400 HITs), where the crowd
//! simulator dominates, then a Compare sort of 150 squares (1,252
//! HITs), where the front end does. The operation's time is the sum of
//! the two report times.
//!
//! Operation `i` runs both queries on crowd seed `k = i mod SEEDS`, so
//! every crowd seed recurs and the paper's numbers of each query
//! (HITs, dollars, virtual seconds, result TSV) must repeat exactly for
//! the same `k`. In a traced run whole rounds of `SEEDS` operations
//! alternate between bare marketplaces and ones wrapped in
//! [`TimingBackend`], so each seed is also compared traced against
//! untraced.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use qurk::ops::{CompareSort, JoinOp, JoinStrategy};
use qurk::prelude::*;
use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};
use qurk_data::celebrity::{celebrity_dataset, CelebrityConfig};
use qurk_data::squares::squares_dataset;
use qurk_metrics::kendall_tau_b;

use crate::frontend::time_front_end;
use crate::measure::{
    fingerprint, median, mix, record_timing, rss_mb, timed, OpTimes, Paper, RunResult, Setups,
};
use crate::timing::{Snapshot, TimingBackend};

/// Distinct crowd seeds per run. The simulator's work differs
/// between crowd seeds by up to ~10%, so a run spreads its operations
/// over several, and its median does not hang on one seed's cost.
const SEEDS: usize = 8;

/// Celebrities in the join (posts N² HITs per query).
const JOIN_N: usize = 80;
/// Squares in the sort.
const SORT_N: usize = 150;
/// Compare sort group size `S`.
const SORT_S: usize = 5;

/// Least acceptable join F1 / sort τ for a single query.
const JOIN_F1_FLOOR: f64 = 0.8;
const SORT_TAU_FLOOR: f64 = 0.8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Sort,
}

/// The queries of one operation, in the order they run.
const KINDS: [Kind; 2] = [Kind::Join, Kind::Sort];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Join => "join",
            Kind::Sort => "sort",
        }
    }

    /// Input size: celebrities or squares, halved for the growth probe.
    fn size(self, half: bool) -> usize {
        let n = match self {
            Kind::Join => JOIN_N,
            Kind::Sort => SORT_N,
        };
        if half {
            n / 2
        } else {
            n
        }
    }

    fn floor(self) -> f64 {
        match self {
            Kind::Join => JOIN_F1_FLOOR,
            Kind::Sort => SORT_TAU_FLOOR,
        }
    }
}

/// How a result is scored against ground truth.
enum Truth {
    /// `owner_of_photo[pid]` = index of the celebrity in the photo;
    /// `names[i]` = name of celebrity `i`.
    Join {
        names: Vec<String>,
        owner_of_photo: Vec<usize>,
    },
    /// Labels, largest square first.
    Sort { labels_desc: Vec<String> },
}

struct World {
    catalog: Catalog,
    truth: GroundTruth,
    sql: String,
    config: ExecConfig,
    scoring: Truth,
}

fn build_world(kind: Kind, n: usize, data_seed: u64) -> (World, f64) {
    let mut truth = GroundTruth::new();
    let mut catalog = Catalog::new();
    let mut config = ExecConfig::default();
    let (sql, scoring, build_s) = match kind {
        Kind::Join => {
            let ds = celebrity_dataset(
                &mut truth,
                &CelebrityConfig::default()
                    .with_celebrities(n)
                    .with_seed(data_seed),
            );
            let ((celeb, photos), build_s) = timed(|| {
                let mut celeb = Relation::new(Schema::new(&[
                    ("name", ValueType::Text),
                    ("img", ValueType::Item),
                ]));
                for (c, &item) in ds.celebrities.iter().zip(&ds.celeb_items) {
                    celeb
                        .push(vec![Value::text(&c.name), Value::Item(item)])
                        .expect("celeb row matches schema");
                }
                let mut photos = Relation::new(Schema::new(&[
                    ("pid", ValueType::Int),
                    ("img", ValueType::Item),
                ]));
                for (pid, &item) in ds.photo_items.iter().enumerate() {
                    photos
                        .push(vec![Value::Int(pid as i64), Value::Item(item)])
                        .expect("photos row matches schema");
                }
                (celeb, photos)
            });
            catalog.register_table("celeb", celeb);
            catalog.register_table("photos", photos);
            catalog
                .define_tasks(
                    r#"TASK samePerson(f1, f2) TYPE EquiJoin:
                        SingularName: "celebrity"
                        PluralName: "celebrities"
                        LeftPreview: "<img src='%s'>", tuple1[f1]
                        RightPreview: "<img src='%s'>", tuple2[f2]
                        Combiner: QualityAdjust
                    "#,
                )
                .expect("task definitions parse");
            config.join = JoinOp {
                strategy: JoinStrategy::Simple,
                ..JoinOp::default()
            };
            config.pins.join = true;
            let scoring = Truth::Join {
                names: ds.celebrities.iter().map(|c| c.name.clone()).collect(),
                owner_of_photo: ds.photo_owner.clone(),
            };
            (
                "SELECT c.name, p.pid FROM celeb c JOIN photos p ON samePerson(c.img, p.img)",
                scoring,
                build_s,
            )
        }
        Kind::Sort => {
            let ds = squares_dataset(&mut truth, n);
            let (squares, build_s) = timed(|| {
                let mut squares = Relation::new(Schema::new(&[
                    ("label", ValueType::Text),
                    ("img", ValueType::Item),
                ]));
                // Row order from the data seed, so the input is not
                // already sorted.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&i| mix(data_seed, i as u64));
                for i in order {
                    squares
                        .push(vec![Value::text(&ds.labels[i]), Value::Item(ds.items[i])])
                        .expect("squares row matches schema");
                }
                squares
            });
            catalog.register_table("squares", squares);
            catalog
                .define_tasks(
                    r#"TASK sortSquares(field) TYPE Rank:
                        SingularName: "square"
                        PluralName: "squares"
                        OrderDimensionName: "area"
                        LeastName: "smallest"
                        MostName: "largest"
                        Html: "<img src='%s'>", tuple[field]
                    "#,
                )
                .expect("task definitions parse");
            config.sort = SortMode::Compare(CompareSort {
                group_size: SORT_S,
                ..CompareSort::default()
            });
            config.pins.sort = true;
            let scoring = Truth::Sort {
                labels_desc: ds.labels.iter().rev().cloned().collect(),
            };
            (
                "SELECT label FROM squares ORDER BY sortSquares(squares.img) DESC",
                scoring,
                build_s,
            )
        }
    };
    let world = World {
        catalog,
        truth,
        sql: sql.to_owned(),
        config,
        scoring,
    };
    (world, build_s)
}

fn crowd_config(seed: u64) -> CrowdConfig {
    CrowdConfig::default().with_seed(seed)
}

/// Join F1 or sort τ of a result.
fn quality(scoring: &Truth, rel: &Relation) -> f64 {
    match scoring {
        Truth::Join {
            names,
            owner_of_photo,
        } => {
            let index: BTreeMap<&str, usize> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            let tp = rel
                .iter()
                .filter(|t| {
                    let name = t.get(0).and_then(|v| v.as_text());
                    let pid = t.get(1).and_then(|v| v.as_int());
                    match (name.and_then(|n| index.get(n)), pid) {
                        (Some(&c), Some(p)) => owner_of_photo.get(p as usize) == Some(&c),
                        _ => false,
                    }
                })
                .count() as f64;
            let precision = tp / (rel.len() as f64).max(1.0);
            let recall = tp / (names.len() as f64).max(1.0);
            if tp == 0.0 {
                0.0
            } else {
                2.0 * precision * recall / (precision + recall)
            }
        }
        Truth::Sort { labels_desc } => {
            let got: Vec<&str> = rel
                .iter()
                .filter_map(|t| t.get(0).and_then(|v| v.as_text()))
                .collect();
            if got.len() != labels_desc.len() {
                return 0.0;
            }
            let rank: BTreeMap<&str, usize> = labels_desc
                .iter()
                .enumerate()
                .map(|(i, l)| (l.as_str(), i))
                .collect();
            let truth_pos: Vec<f64> = got
                .iter()
                .map(|l| rank.get(l).map_or(f64::NAN, |&r| r as f64))
                .collect();
            let got_pos: Vec<f64> = (0..got.len()).map(|i| i as f64).collect();
            kendall_tau_b(&got_pos, &truth_pos).unwrap_or(0.0)
        }
    }
}

/// Run one query on crowd seed `seed`; traced ops go through a
/// [`TimingBackend`].
fn run_op(w: &World, seed: u64, traced: bool) -> Result<(f64, Paper, Option<Snapshot>), QurkError> {
    fn go<B: CrowdBackend>(w: &World, backend: B) -> Result<(f64, QueryReport), QurkError> {
        let mut session = Session::builder()
            .catalog(&w.catalog)
            .backend(backend)
            .build();
        let start = Instant::now();
        let report = session.query(&w.sql).config(w.config.clone()).report()?;
        Ok((start.elapsed().as_secs_f64(), report))
    }
    let market = Marketplace::new(&crowd_config(seed), w.truth.clone());
    let (secs, report, snap) = if traced {
        let backend = TimingBackend::new(market);
        let times = Arc::clone(&backend.times);
        let (secs, report) = go(w, backend)?;
        (secs, report, Some(times.snapshot()))
    } else {
        let (secs, report) = go(w, market)?;
        (secs, report, None)
    };
    let paper = Paper {
        hits: report.hits_posted,
        dollars: report.cost_dollars,
        virtual_s: report.elapsed_secs,
        tsv: fingerprint(&report.relation.to_tsv()),
        quality: quality(&w.scoring, &report.relation),
    };
    Ok((secs, paper, snap))
}

/// Both worlds of an operation, in [`KINDS`] order, and the seconds
/// their `Relation::push` loops took together.
fn build_worlds(half: bool, data_seed: u64) -> ([World; 2], f64) {
    let (join, join_build_s) = build_world(Kind::Join, Kind::Join.size(half), data_seed);
    let (sort, sort_build_s) = build_world(Kind::Sort, Kind::Sort.size(half), data_seed);
    ([join, sort], join_build_s + sort_build_s)
}

struct Op {
    k: usize,
    /// Report seconds of each query, in [`KINDS`] order.
    secs: [f64; 2],
    papers: [Paper; 2],
    /// Backend time of a traced op, both queries together.
    market: Option<Snapshot>,
}

impl Op {
    fn secs(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Run both queries of an operation on crowd seed `seed`.
fn run_pair(worlds: &[World; 2], k: usize, seed: u64, traced: bool) -> Result<Op, QurkError> {
    let (join_s, join, join_market) = run_op(&worlds[0], seed, traced)?;
    let (sort_s, sort, sort_market) = run_op(&worlds[1], seed, traced)?;
    Ok(Op {
        k,
        secs: [join_s, sort_s],
        papers: [join, sort],
        market: join_market.zip(sort_market).map(|(j, s)| j.plus(&s)),
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut r = RunResult::default();
    let data_seed = mix(seed, 0xDA7A);
    let crowd_seeds: Vec<u64> = (0..SEEDS as u64).map(|k| mix(seed, k + 1)).collect();

    // Set-up: both datasets and catalogs, and a marketplace for each.
    // `time_setups` times set-ups while one is due and returns the
    // first worlds it built: the ones the operations run on. Later
    // set-ups are timed between operations and dropped.
    let mut setups = Setups::default();
    let mut build_secs = Vec::new();
    let mut relation_rss = 0.0;
    let mut time_setups = |progress: f64| {
        let mut first = None;
        while setups.due(progress) {
            let rss_before = rss_mb();
            let (((worlds, build_s), markets), secs) = timed(|| {
                let built = build_worlds(false, data_seed);
                let markets = built
                    .0
                    .each_ref()
                    .map(|w| Marketplace::new(&crowd_config(crowd_seeds[0]), w.truth.clone()));
                (built, markets)
            });
            if setups.is_empty() {
                relation_rss = rss_mb() - rss_before;
            }
            drop(markets);
            setups.push(secs);
            build_secs.push(build_s);
            first.get_or_insert(worlds);
        }
        first
    };
    let worlds = time_setups(0.0).expect("at least one set-up");

    // Warm-up, untimed.
    if let Err(e) = run_pair(&worlds, 0, crowd_seeds[0], false) {
        eprintln!("warm-up failed: {e}");
    }

    let min_ops = if trace { 2 * SEEDS } else { SEEDS };
    let mut ops: Vec<Op> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < min_ops {
        let k = i % SEEDS;
        let traced = trace && (i / SEEDS) % 2 == 1;
        r.attempted += 1;
        match run_pair(&worlds, k, crowd_seeds[k], traced) {
            Ok(op) => ops.push(op),
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                r.failed_ops += 1;
            }
        }
        i += 1;
        time_setups(start.elapsed().as_secs_f64() / seconds);
    }
    time_setups(1.0);

    // Output checks, per query of each operation.
    let mut first: BTreeMap<usize, [Paper; 2]> = BTreeMap::new();
    for op in &ops {
        let reference = *first.entry(op.k).or_insert(op.papers);
        for (j, kind) in KINDS.iter().enumerate() {
            let paper = op.papers[j];
            r.checks.check(paper.quality >= kind.floor(), || {
                format!(
                    "{} on seed #{}: quality {:.4} below {}",
                    kind.name(),
                    op.k,
                    paper.quality,
                    kind.floor()
                )
            });
            r.checks.check(paper == reference[j], || {
                format!(
                    "{} on seed #{} ({}): {:?} differs from the first run {:?}",
                    kind.name(),
                    op.k,
                    if op.market.is_some() {
                        "traced"
                    } else {
                        "untraced"
                    },
                    paper,
                    reference[j]
                )
            });
        }
    }
    r.checks
        .check(r.failed_ops == 0, || "some operations failed".into());

    let untraced: Vec<&Op> = ops.iter().filter(|o| o.market.is_none()).collect();
    for k in 0..SEEDS {
        let secs: Vec<f64> = ops.iter().filter(|o| o.k == k).map(Op::secs).collect();
        r.notes.push(format!(
            "crowd seed #{k}: {} ops, op_s.p50 {:.6}",
            secs.len(),
            median(&secs)
        ));
    }
    for (j, kind) in KINDS.iter().enumerate() {
        let secs: Vec<f64> = untraced.iter().map(|o| o.secs[j]).collect();
        r.notes.push(format!(
            "{} query: median {:.6} s of the op",
            kind.name(),
            median(&secs)
        ));
    }
    // Mean over crowd seeds of one query's (`j`) paper number.
    let per_seed = |j: usize, f: fn(&Paper) -> f64| {
        first.values().map(|p| f(&p[j])).sum::<f64>() / first.len().max(1) as f64
    };
    let both = |f: fn(&Paper) -> f64| per_seed(0, f) + per_seed(1, f);
    let setup_secs = setups.median();
    let untraced_secs: Vec<f64> = untraced.iter().map(|o| o.secs()).collect();
    if !trace {
        record_timing(
            &mut r,
            &OpTimes {
                op_secs: &untraced_secs,
                ops: untraced_secs.len(),
                busy_secs: untraced_secs.iter().sum(),
                setup_secs,
            },
            None,
        );
        r.metrics.set("hits", both(|p| p.hits as f64));
        r.metrics.set("dollars", both(|p| p.dollars));
        r.metrics.set("quality", both(|p| p.quality) / 2.0);
        return r;
    }

    // Traced run: per-layer numbers, per operation (both queries).
    let traced: Vec<&Op> = ops.iter().filter(|o| o.market.is_some()).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|o| o.secs()).collect();
    let snaps: Vec<Snapshot> = traced.iter().filter_map(|o| o.market).collect();
    let hits: usize = traced
        .iter()
        .flat_map(|o| o.papers.iter().map(|p| p.hits))
        .sum();
    let per_op =
        |f: fn(&Snapshot) -> f64| snaps.iter().map(f).sum::<f64>() / snaps.len().max(1) as f64;
    let report_s = traced_secs.iter().sum::<f64>() / traced_secs.len().max(1) as f64;
    let market_s = per_op(Snapshot::total_secs);
    let ns_per_hit = per_op(Snapshot::total_secs) * snaps.len() as f64 * 1e9 / hits.max(1) as f64;

    // The same operation at half size, for ns/HIT growth.
    let (half, _) = build_worlds(true, data_seed);
    let (mut half_ns, mut half_hits) = (0.0, 0usize);
    for (k, &s) in crowd_seeds.iter().enumerate() {
        if let Ok(Op {
            papers,
            market: Some(snap),
            ..
        }) = run_pair(&half, k, s, true)
        {
            half_ns += snap.total_secs() * 1e9;
            half_hits += papers.iter().map(|p| p.hits).sum::<usize>();
        }
    }
    let half_ns_per_hit = half_ns / half_hits.max(1) as f64;

    r.notes.extend(
        snaps
            .iter()
            .fold(Snapshot::default(), |acc, s| acc.plus(s))
            .describe(),
    );
    let m = &mut r.metrics;
    m.set("crowd.market.run_s", per_op(Snapshot::run_secs));
    m.set("crowd.market.post_s", per_op(Snapshot::post_secs));
    m.set(
        "crowd.market.assignments_s",
        per_op(Snapshot::assignments_secs),
    );
    m.set("crowd.market.calls", per_op(|s| s.total_calls() as f64));
    m.set("crowd.market.ns_per_hit", ns_per_hit);
    m.set("crowd.market.share", market_s / report_s.max(1e-12));
    m.set(
        "crowd.market.ns_per_hit_growth",
        ns_per_hit / half_ns_per_hit.max(1e-12),
    );
    m.set("crowd.virtual_s", both(|p| p.virtual_s));
    m.set("session.report_s", report_s);
    m.set("engine.self_s", report_s - market_s);
    // Front-end seconds of both queries of an operation.
    let [join, sort] = &worlds;
    let front = time_front_end(
        std::slice::from_ref(&join.sql),
        &join.catalog,
        &join.config,
        None,
    )
    .plus(&time_front_end(
        std::slice::from_ref(&sort.sql),
        &sort.catalog,
        &sort.config,
        Some((SORT_N, SORT_S, CompareSort::default().seed)),
    ));
    front.record(m, report_s);
    m.set("relation.build_s", median(&build_secs));
    m.set("relation.rss_mb", relation_rss);
    m.set(
        "trace.overhead",
        median(&traced_secs) / median(&untraced_secs).max(1e-12),
    );
    r
}
