//! Direct timings of the front-end layers — `lang` (parse), `plan`,
//! `opt` (compile), `analyze` and the Compare sort's group planner —
//! by calling their public functions on a workload's own queries.

use std::time::Duration;

use qurk::analyze::analyze_query;
use qurk::lang::parse_query;
use qurk::ops::CompareSort;
use qurk::opt::compile;
use qurk::plan::plan_query;
use qurk::{Catalog, ExecConfig, StatisticsStore};

use crate::measure::{mean, median_secs, Metrics};

/// Least time spent timing one layer on one query.
const MIN_TIME: Duration = Duration::from_millis(40);

/// Front-end seconds per query, by layer (means over the queries).
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontEnd {
    pub parse_s: f64,
    pub plan_s: f64,
    pub compile_s: f64,
    pub analyze_s: f64,
    pub plan_groups_s: f64,
}

impl FrontEnd {
    /// Seconds one query spends in the front end when run through a
    /// session: parse, plan, the analyzer (which compiles on its own)
    /// and the compile that execution uses.
    pub fn per_query_s(&self) -> f64 {
        self.parse_s + self.plan_s + self.analyze_s + self.compile_s
    }

    /// The front-end work of `self` and `other` together.
    pub fn plus(&self, other: &FrontEnd) -> FrontEnd {
        FrontEnd {
            parse_s: self.parse_s + other.parse_s,
            plan_s: self.plan_s + other.plan_s,
            compile_s: self.compile_s + other.compile_s,
            analyze_s: self.analyze_s + other.analyze_s,
            plan_groups_s: self.plan_groups_s + other.plan_groups_s,
        }
    }

    pub fn record(&self, m: &mut Metrics, op_wall_s: f64) {
        m.set("lang.parse_us", self.parse_s * 1e6);
        m.set("plan.plan_us", self.plan_s * 1e6);
        m.set("opt.compile_ms", self.compile_s * 1e3);
        m.set("analyze.ms", self.analyze_s * 1e3);
        m.set("ops.sort.plan_groups_ms", self.plan_groups_s * 1e3);
        let share = if op_wall_s > 0.0 {
            self.per_query_s() / op_wall_s
        } else {
            0.0
        };
        m.set("frontend.share", share);
    }
}

/// Time each layer on each of `queries` (median per query, mean across
/// queries). `compare_n` is the input size of the workload's Compare
/// sort, if it has one; its groups are planned with `sort_seed`.
pub fn time_front_end(
    queries: &[String],
    catalog: &Catalog,
    config: &ExecConfig,
    compare_n: Option<(usize, usize, u64)>,
) -> FrontEnd {
    let stats = StatisticsStore::new();
    let (mut parse, mut plan, mut comp, mut analyze) = (vec![], vec![], vec![], vec![]);
    for sql in queries {
        let Ok(parsed) = parse_query(sql) else {
            continue;
        };
        let Ok(logical) = plan_query(&parsed, catalog) else {
            continue;
        };
        parse.push(median_secs(5, MIN_TIME, || {
            std::hint::black_box(parse_query(std::hint::black_box(sql)).ok());
        }));
        plan.push(median_secs(5, MIN_TIME, || {
            std::hint::black_box(plan_query(&parsed, catalog).ok());
        }));
        comp.push(median_secs(3, MIN_TIME, || {
            std::hint::black_box(compile(&logical, catalog, config, &stats).ok());
        }));
        analyze.push(median_secs(3, MIN_TIME, || {
            std::hint::black_box(analyze_query(sql, &parsed, catalog, config, &stats, None).ok());
        }));
    }
    let plan_groups_s = compare_n.map_or(0.0, |(n, s, seed)| {
        median_secs(3, MIN_TIME, || {
            std::hint::black_box(CompareSort::plan_groups(n, s, seed));
        })
    });
    FrontEnd {
        parse_s: mean(&parse),
        plan_s: mean(&plan),
        compile_s: mean(&comp),
        analyze_s: mean(&analyze),
        plan_groups_s,
    }
}
