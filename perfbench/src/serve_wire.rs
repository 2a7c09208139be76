//! `serve-wire`: the built `qurk-serve --listen 127.0.0.1:0`, driven
//! over one TCP connection with repeated cycles of `QUERY` ×4, `RUN`
//! and `STATS` on its fixed world. One operation is one request frame,
//! timed from its write to the last frame of its response.
//!
//! The served world fits the task cache, so after the warm-up every
//! query is answered from the cache and the frames themselves — I/O,
//! `Request::parse`, admission and the scheduler barrier — dominate.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qurk::ops::CompareSort;
use qurk::prelude::*;
use qurk::service::protocol::{read_frame, write_frame, Frame, Request};
use qurk_crowd::GroundTruth;

use crate::frontend::time_front_end;
use crate::measure::{
    median, median_secs, mix, proc_status_mb, record_timing, OpTimes, RunResult, Setups,
};

const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
/// Untimed cycles before measuring: enough to fill the cache with
/// every query of the rotation.
const WARM_CYCLES: usize = 3;
/// Row offsets the `isTall` query rotates through.
const OFFSETS: [usize; 3] = [0, 3, 6];
/// The served `people` table: ids 0..10, ids 5.. are tall.
const PEOPLE: usize = 10;
const FIRST_TALL: usize = 5;
/// Rows of the served `squares` table.
const SQUARES: usize = 6;
/// Least acceptable mean filter accuracy over the run.
const ACCURACY_FLOOR: f64 = 0.9;

/// The four queries of cycle `c`, one per tenant.
fn cycle_queries(c: usize) -> [String; 4] {
    let k = OFFSETS[c % OFFSETS.len()];
    [
        "SELECT p.id FROM people AS p WHERE isTall(p.img)".to_owned(),
        format!("SELECT p.id FROM people AS p WHERE p.id >= {k} AND isTall(p.img)"),
        "SELECT p.id FROM people AS p ORDER BY byHeight(p.img)".to_owned(),
        "SELECT s.label FROM squares AS s ORDER BY byArea(s.img)".to_owned(),
    ]
}

/// `(true rows, rows in range)` of a cycle query that filters, by
/// position in the cycle.
fn true_rows(c: usize, q: usize) -> Option<(usize, usize)> {
    let k = OFFSETS[c % OFFSETS.len()];
    match q {
        0 => Some((PEOPLE - FIRST_TALL, PEOPLE)),
        1 => Some((PEOPLE - FIRST_TALL.max(k), PEOPLE - k)),
        _ => None,
    }
}

/// A running server and one connection to it. Dropping it kills and
/// reaps the server if [`Server::shutdown`] was not reached.
struct Server {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Server {
    fn start(bin: &str, seed: u64) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--seed", &seed.to_string(), "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {bin:?}: {e}"))?;
        let mut line = String::new();
        let announced = child
            .stdout
            .as_mut()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = match (announced, line.trim().strip_prefix("LISTENING ")) {
            (Some(Ok(_)), Some(addr)) => addr.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        };
        let conn = TcpStream::connect(&addr).and_then(|c| {
            c.set_nodelay(true)?;
            c.set_read_timeout(Some(Duration::from_secs(120)))?;
            Ok(c)
        });
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        let reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        Ok(Server {
            child,
            reader,
            writer: conn,
        })
    }

    /// Send one request and read `frames` response frames.
    fn request(&mut self, body: &str, frames: usize) -> Result<Vec<String>, String> {
        write_frame(&mut self.writer, body).map_err(|e| format!("write: {e}"))?;
        (0..frames)
            .map(|_| match read_frame(&mut self.reader) {
                Ok(Frame::Body(b)) => Ok(b),
                Ok(other) => Err(format!("malformed response to {body:?}: {other:?}")),
                Err(e) => Err(format!("read: {e}")),
            })
            .collect()
    }

    fn register_tenants(&mut self) -> Result<(), String> {
        for t in TENANTS {
            let resp = self.request(&format!("TENANT {t}"), 1)?;
            if !resp[0].starts_with("OK") {
                return Err(format!("TENANT {t}: {}", resp[0]));
            }
        }
        Ok(())
    }

    /// Peak resident set of the server process, MiB.
    fn peak_rss_mb(&self) -> f64 {
        proc_status_mb(&self.child.id().to_string(), "VmHWM")
    }

    /// Ask the server to stop and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.request("SHUTDOWN", 1);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        match bye {
            Ok(b) if b[0] == "BYE" && status.success() => Ok(()),
            Ok(b) => Err(format!("shutdown answered {:?}, exit {status}", b[0])),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Frames of one cycle, with their verb and how many response frames
/// each gets.
fn cycle_frames(c: usize) -> Vec<(&'static str, String, usize)> {
    let mut frames: Vec<(&'static str, String, usize)> = cycle_queries(c)
        .into_iter()
        .zip(TENANTS)
        .map(|(sql, t)| ("query", format!("QUERY {t} {sql}"), 1))
        .collect();
    frames.push(("run", "RUN".to_owned(), TENANTS.len() + 1));
    frames.push(("stats", "STATS".to_owned(), 1));
    frames
}

/// `RESULT <tenant> <rows> rows ...` → rows.
fn result_rows(frame: &str) -> Option<usize> {
    let mut words = frame.split(' ');
    (words.next()? == "RESULT").then_some(())?;
    words.next()?;
    words.next()?.parse().ok()
}

/// `STATS <posted> posted <hits>/<misses> cache $<spend>` →
/// (posted, hits, misses, spend).
fn parse_stats(frame: &str) -> Option<(f64, f64, f64, f64)> {
    let w: Vec<&str> = frame.split(' ').collect();
    if w.len() != 6 || w[0] != "STATS" {
        return None;
    }
    let (hits, misses) = w[3].split_once('/')?;
    Some((
        w[1].parse().ok()?,
        hits.parse().ok()?,
        misses.parse().ok()?,
        w[5].strip_prefix('$')?.parse().ok()?,
    ))
}

/// The served world's schema and tasks, for timing the front end on
/// the workload's queries in this process (the server's own catalog
/// is out of reach).
fn front_end_catalog() -> Catalog {
    let mut items = GroundTruth::new();
    let mut people = Relation::new(Schema::new(&[
        ("id", ValueType::Int),
        ("img", ValueType::Item),
    ]));
    for (i, item) in items.new_items(PEOPLE).into_iter().enumerate() {
        people
            .push(vec![Value::Int(i as i64), Value::Item(item)])
            .expect("people row matches schema");
    }
    let mut squares = Relation::new(Schema::new(&[
        ("label", ValueType::Text),
        ("img", ValueType::Item),
    ]));
    for (i, item) in items.new_items(SQUARES).into_iter().enumerate() {
        let side = 20 + 3 * i;
        squares
            .push(vec![
                Value::text(format!("{side}x{side}")),
                Value::Item(item),
            ])
            .expect("squares row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog.register_table("people", people);
    catalog.register_table("squares", squares);
    catalog
        .define_tasks(
            r#"TASK isTall(field) TYPE Filter:
                Prompt: "<img src='%s'> Tall?", tuple[field]
               TASK byHeight(field) TYPE Rank:
                OrderDimensionName: "height"
                Html: "<img src='%s'>", tuple[field]
               TASK byArea(field) TYPE Rank:
                OrderDimensionName: "area"
                Html: "<img src='%s'>", tuple[field]
            "#,
        )
        .expect("task definitions parse");
    catalog
}

/// Direct `write_frame` + `read_frame` + `Request::parse` over an
/// in-memory buffer, seconds per frame.
fn frame_secs(frames: &[(&'static str, String, usize)]) -> f64 {
    let mut buf = Vec::with_capacity(4096);
    median_secs(200, Duration::from_millis(100), || {
        buf.clear();
        for (_, body, _) in frames {
            write_frame(&mut buf, body).expect("writing to a Vec cannot fail");
        }
        let mut reader = &buf[..];
        while let Ok(Frame::Body(b)) = read_frame(&mut reader) {
            std::hint::black_box(Request::parse(&b).is_ok());
        }
    }) / frames.len().max(1) as f64
}

pub fn run(bin: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let server_seed = mix(seed, 1) % 1_000_000_007;

    // Set-up: spawn, connect, register tenants; all but the last
    // server are shut down again. Unlike the other workloads, this one
    // times all its set-ups before the timed loop, as each spawns a
    // server.
    let mut setups = Setups::default();
    let mut server = loop {
        let start = Instant::now();
        let mut s = Server::start(bin, server_seed)?;
        s.register_tenants()?;
        setups.push(start.elapsed().as_secs_f64());
        if !setups.due(1.0) {
            break s;
        }
        s.shutdown()?;
    };

    // Warm-up, untimed: fills the cache with every rotated query.
    for c in 0..WARM_CYCLES {
        for (_, body, n) in cycle_frames(c) {
            server.request(&body, n)?;
        }
    }

    // Timed cycles. In a traced run, odd cycles also record latency
    // per verb.
    let mut op_secs = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut by_verb: [Vec<f64>; 3] = Default::default();
    let mut accuracy = Vec::new();
    let mut last_stats = None;
    let mut queries = 0usize;
    let start = Instant::now();
    let mut c = WARM_CYCLES;
    'cycles: while start.elapsed().as_secs_f64() < seconds || c < WARM_CYCLES + 2 {
        let traced = trace && c % 2 == 1;
        for (verb, body, n) in cycle_frames(c) {
            r.attempted += 1;
            let t = Instant::now();
            let resp = server.request(&body, n);
            let secs = t.elapsed().as_secs_f64();
            let resp = match resp {
                Ok(resp) => resp,
                Err(e) => {
                    // The connection is unusable; stop measuring.
                    r.failed_ops += 1;
                    r.checks.check(false, || e);
                    break 'cycles;
                }
            };
            op_secs.push(secs);
            if traced {
                traced_secs.push(secs);
                let slot = ["query", "run", "stats"]
                    .iter()
                    .position(|v| *v == verb)
                    .expect("known verb");
                by_verb[slot].push(secs);
            } else {
                untraced_secs.push(secs);
            }
            // Output checks (outside the timed region).
            for frame in &resp {
                r.checks.check(!frame.starts_with("ERR"), || {
                    format!("{body:?} answered {frame:?}")
                });
            }
            match verb {
                "query" => queries += 1,
                "run" => {
                    for (q, frame) in resp.iter().take(TENANTS.len()).enumerate() {
                        let rows = result_rows(frame);
                        r.checks
                            .check(rows.is_some(), || format!("malformed RESULT {frame:?}"));
                        if let (Some(rows), Some((want, range))) = (rows, true_rows(c, q)) {
                            accuracy.push(1.0 - rows.abs_diff(want) as f64 / range as f64);
                        }
                    }
                    let ok = resp
                        .last()
                        .is_some_and(|f| f == &format!("OK ran {}", TENANTS.len()));
                    r.checks
                        .check(ok, || format!("RUN ended with {:?}", resp.last()));
                }
                _ => {
                    let stats = parse_stats(&resp[0]);
                    r.checks
                        .check(stats.is_some(), || format!("malformed STATS {:?}", resp[0]));
                    last_stats = stats.or(last_stats);
                }
            }
        }
        c += 1;
    }
    let peak_rss = server.peak_rss_mb();
    let shut = server.shutdown();
    r.checks
        .check(shut.is_ok(), || format!("shutdown: {shut:?}"));

    let quality = if accuracy.is_empty() {
        0.0
    } else {
        accuracy.iter().sum::<f64>() / accuracy.len() as f64
    };
    r.checks.check(quality >= ACCURACY_FLOOR, || {
        format!("filter accuracy {quality:.4} below {ACCURACY_FLOOR}")
    });
    let (posted, hits, misses, spend) = last_stats.unwrap_or_default();
    if !trace {
        record_timing(
            &mut r,
            &OpTimes {
                op_secs: &op_secs,
                ops: op_secs.len(),
                busy_secs: op_secs.iter().sum(),
                setup_secs: setups.median(),
            },
            Some(peak_rss),
        );
        r.metrics.set("hits", posted);
        r.metrics.set("dollars", spend);
        r.metrics.set("quality", quality);
        return Ok(r);
    }

    let m = &mut r.metrics;
    m.set("serve.rtt_us.query", median(&by_verb[0]) * 1e6);
    m.set("serve.rtt_us.run", median(&by_verb[1]) * 1e6);
    m.set("serve.rtt_us.stats", median(&by_verb[2]) * 1e6);
    m.set("protocol.frame_us", frame_secs(&cycle_frames(0)) * 1e6);
    let q = (queries + WARM_CYCLES * TENANTS.len()).max(1) as f64;
    m.set("service.cache_hits", hits / q);
    m.set("service.cache_misses", misses / q);
    m.set("service.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let catalog = front_end_catalog();
    let sample: Vec<String> = (0..OFFSETS.len()).flat_map(cycle_queries).collect();
    let sort = CompareSort::default();
    let front = time_front_end(
        &sample,
        &catalog,
        &ExecConfig::default(),
        Some((PEOPLE, sort.group_size, sort.seed)),
    );
    // Every frame of a cycle serves its queries.
    let per_query_s = op_secs.iter().sum::<f64>() / queries.max(1) as f64;
    front.record(m, per_query_s);
    m.set(
        "trace.overhead",
        median(&traced_secs) / median(&untraced_secs).max(1e-12),
    );
    Ok(r)
}
