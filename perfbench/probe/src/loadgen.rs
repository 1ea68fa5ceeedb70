//! Open-loop `/run` load against a running `dircc serve` daemon.
//!
//! Request `i` is *due* at `i / rate` seconds after the start, whatever
//! happened to earlier requests. A fixed pool of [`SENDERS`] sender
//! threads, one connection each, takes the next due request as soon as a
//! sender is free, so a request that waits behind slow ones shows that
//! wait in its latency: every latency is measured from the due time, not
//! from the moment the request was finally sent. How late the generator
//! itself ran — sending after the due time although a sender was free —
//! is reported separately, so a run where the generator was the
//! bottleneck can be told apart from one where the daemon was.
//!
//! A sender keeps its connection for the next request unless the
//! response says `Connection: close`, so a daemon that keeps connections
//! alive is measured without a connect per request.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dircc_obs::{parse_exposition, samples_sum, Sample};
use dircc_serve::client::{self, Response};

/// Sender threads (and so connections) of one load session.
pub const SENDERS: usize = 2;

/// When one scheduled operation was due, sent and finished, in seconds
/// since the schedule started.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: f64,
    /// When the sender that ran it became free for it.
    pub free: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as the user sees it: from the due time to completion.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent while a sender was available.
    pub fn late(&self) -> f64 {
        (self.sent - self.due.max(self.free)).max(0.0)
    }
}

/// Runs `count` operations on an open-loop schedule of `rate` per second
/// over `senders` threads, returning each operation's timing and result
/// in schedule order. Each sender owns an `S` (its connection) that
/// `send` may keep between operations.
pub fn open_loop<S: Default, R: Send>(
    count: usize,
    rate: f64,
    senders: usize,
    send: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<(Timing, R)> {
    assert!(rate > 0.0 && senders >= 1, "need a positive rate and a sender");
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(Timing, R)>>> = Mutex::new((0..count).map(|_| None).collect());
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_secs_f64();
    std::thread::scope(|scope| {
        for _ in 0..senders.min(count.max(1)) {
            scope.spawn(|| {
                let mut state = S::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let free = since(Instant::now());
                    let due = i as f64 / rate;
                    if due > free {
                        std::thread::sleep(Duration::from_secs_f64(due - free));
                    }
                    let sent = since(Instant::now());
                    let result = send(&mut state, i);
                    let done = since(Instant::now());
                    out.lock().expect("a sender panicked")[i] =
                        Some((Timing { due, free, sent, done }, result));
                }
            });
        }
    });
    out.into_inner()
        .expect("a sender panicked")
        .into_iter()
        .map(|slot| slot.expect("every scheduled operation ran"))
        .collect()
}

/// Where one request's client-side time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// TCP connect; `None` when the request reused an open connection.
    pub connect: Option<f64>,
    /// Connected → first response byte (writing the request included).
    pub ttfb: f64,
    /// First byte → complete response.
    pub read: f64,
}

impl Split {
    pub fn total(&self) -> f64 {
        self.connect.unwrap_or(0.0) + self.ttfb + self.read
    }
}

/// One open connection to the daemon, with the read buffer that must
/// outlive a single response.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection { reader: BufReader::new(stream.try_clone()?), stream })
    }
}

/// POSTs one `/run` body in the dialect [`dircc_serve::client`] speaks,
/// timing connect, first byte and read. The request goes on `conn` when
/// one is open, else on a new connection that is kept in `conn` unless
/// the response carries `Connection: close` or the exchange fails.
pub fn post_run(
    conn: &mut Option<Connection>,
    addr: SocketAddr,
    host: &str,
    body: &[u8],
) -> std::io::Result<(Response, Split)> {
    let t0 = Instant::now();
    let connect = match conn {
        Some(_) => None,
        None => {
            *conn = Some(Connection::open(addr)?);
            Some(t0.elapsed().as_secs_f64())
        }
    };
    let open = conn.as_mut().expect("connection opened above");
    let result = round_trip(open, host, body);
    let keep = matches!(&result, Ok((resp, _, _))
        if !resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")));
    if !keep {
        *conn = None;
    }
    result.map(|(response, ttfb, read)| (response, Split { connect, ttfb, read }))
}

/// Writes the request and reads the response: (response, ttfb, read).
fn round_trip(
    conn: &mut Connection,
    host: &str,
    body: &[u8],
) -> std::io::Result<(Response, f64, f64)> {
    let t1 = Instant::now();
    let mut wire = Vec::with_capacity(160 + body.len());
    write!(
        wire,
        "POST /run HTTP/1.1\r\nHost: {host}\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )?;
    wire.extend_from_slice(body);
    (&conn.stream).write_all(&wire)?;
    conn.reader.fill_buf()?;
    let t3 = Instant::now();
    let response = client::read_response(&mut conn.reader)?;
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok((response, secs(t1, t3), secs(t3, t4)))
}

/// Resolves a daemon base URL (`http://host:port`) to a socket address.
pub fn resolve(url: &str) -> Result<SocketAddr, String> {
    client::host_of(url)
        .to_socket_addrs()
        .map_err(|e| format!("{url}: {e}"))?
        .next()
        .ok_or_else(|| format!("{url}: no address"))
}

/// One `/metrics` scrape, parsed.
pub fn scrape(url: &str) -> Result<Vec<Sample>, String> {
    let resp = client::request(url, "GET", "/metrics", None).map_err(|e| format!("scrape: {e}"))?;
    if resp.status != 200 {
        return Err(format!("scrape: status {}", resp.status));
    }
    parse_exposition(&resp.text())
}

/// The `/run` request-duration histogram's cumulative buckets
/// `(upper bound µs, count)`, ascending.
pub fn run_buckets(samples: &[Sample]) -> Vec<(f64, f64)> {
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| {
            s.name == "dircc_http_request_duration_us_bucket" && s.label("route") == Some("/run")
        })
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    buckets
}

/// The median `/run` duration in ms between two scrapes, read off the
/// daemon's histogram as the first bucket bound holding half the
/// requests (so it never understates).
pub fn daemon_run_p50_ms(before: &[Sample], after: &[Sample]) -> Option<f64> {
    let (b, a) = (run_buckets(before), run_buckets(after));
    let delta: Vec<(f64, f64)> = a
        .iter()
        .map(|&(bound, n)| {
            // Only non-empty buckets are exposed, so the earlier count at
            // this bound is the cumulative count of the last bound ≤ it.
            let prior = b.iter().take_while(|x| x.0 <= bound).last().map_or(0.0, |x| x.1);
            (bound, n - prior)
        })
        .collect();
    let total = delta.last()?.1;
    if total <= 0.0 {
        return None;
    }
    delta.iter().find(|(_, n)| *n >= total / 2.0).map(|(bound, _)| bound / 1000.0)
}

/// A counter's increase between two scrapes.
pub fn counter_delta(
    before: &[Sample],
    after: &[Sample],
    name: &str,
    labels: &[(&str, &str)],
) -> f64 {
    samples_sum(after, name, labels) - samples_sum(before, name, labels)
}

/// Which class a scheduled request belongs to, and its job index.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Hit(usize),
    Miss(usize),
}

/// What one request came back with.
struct Reply {
    status: u16,
    cache: String,
    body: Vec<u8>,
    split: Split,
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text.lines().map(str::to_string).collect())
}

fn parse_schedule(lines: &[String], hot: usize, misses: usize) -> Result<Vec<Slot>, String> {
    lines
        .iter()
        .map(|token| {
            let index = |s: &str, limit: usize| -> Result<usize, String> {
                let i: usize = s.parse().map_err(|_| format!("bad schedule token {token:?}"))?;
                if i < limit {
                    Ok(i)
                } else {
                    Err(format!("schedule token {token:?} out of range"))
                }
            };
            match token.split_at(1) {
                ("h", rest) => index(rest, hot).map(Slot::Hit),
                ("m", rest) => index(rest, misses).map(Slot::Miss),
                _ => Err(format!("bad schedule token {token:?}")),
            }
        })
        .collect()
}

/// `dircc-probe loadgen`: one open-loop session; prints its summary.
///
/// Every hit body must equal its expected body byte for byte and carry
/// `X-Cache: hit`; every miss must carry `X-Cache: miss`. Miss bodies go
/// to `--miss-out` (one per line, by miss index) for the caller to check
/// against `dircc replay --json`.
pub fn command(flags: &crate::Flags) -> Result<String, String> {
    use crate::stats::{json_num, median, quantile, sorted};
    let url = flags.str("url")?.to_string();
    let rate: f64 = flags.num("rate", None)?;
    if rate.is_nan() || rate <= 0.0 {
        return Err("need a positive rate".to_string());
    }
    let hot = read_lines(flags.str("hot")?)?;
    let expect = read_lines(flags.str("expect")?)?;
    let misses = read_lines(flags.str("misses")?)?;
    if expect.len() != hot.len() {
        return Err("--expect needs one body per --hot job".to_string());
    }
    let schedule = parse_schedule(&read_lines(flags.str("schedule")?)?, hot.len(), misses.len())?;
    let addr = resolve(&url)?;
    let host = client::host_of(&url).to_string();
    let sample_metrics = flags.has("scrape");

    let before = if sample_metrics { Some(scrape(&url)?) } else { None };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (results, queue_max) = std::thread::scope(|scope| {
        // Samples the daemon's queue-depth gauge while the load runs.
        let sampler = sample_metrics.then(|| {
            scope.spawn(|| {
                let mut max = 0.0f64;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(s) = scrape(&url) {
                        max = max.max(samples_sum(&s, "dircc_queue_depth", &[]));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                max
            })
        });
        let results = open_loop(schedule.len(), rate, SENDERS, |conn, i| {
            let body = match schedule[i] {
                Slot::Hit(k) => hot[k].as_bytes(),
                Slot::Miss(k) => misses[k].as_bytes(),
            };
            post_run(conn, addr, &host, body).map(|(resp, split)| Reply {
                status: resp.status,
                cache: resp.header("x-cache").unwrap_or("").to_string(),
                body: resp.body,
                split,
            })
        });
        stop.store(true, Ordering::Relaxed);
        let queue_max = sampler.map(|h| h.join().expect("metrics sampler panicked"));
        (results, queue_max)
    });
    let after = if sample_metrics { Some(scrape(&url)?) } else { None };

    let (mut hit_ms, mut miss_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut connect, mut ttfb, mut read) = (Vec::new(), Vec::new(), Vec::new());
    // Hit time inside the client-side split vs from send to completion.
    let (mut split_sum, mut service_sum) = (0.0, 0.0);
    let (mut errors, mut refused, mut mismatched) = (0u64, 0u64, 0u64);
    let mut miss_bodies = vec![String::new(); misses.len()];
    let mut first_error = String::new();
    // Refusals (429/503) and transport failures such as timeouts are
    // performance outcomes, counted for the failed ratio; any other
    // status is a wrong answer, counted with the mismatched bodies.
    for (slot, (timing, reply)) in schedule.iter().zip(&results) {
        late_ms.push(timing.late() * 1e3);
        let reply = match reply {
            Ok(r) if r.status == 200 => r,
            Ok(r) if r.status == 429 || r.status == 503 => {
                refused += 1;
                continue;
            }
            Ok(r) => {
                mismatched += 1;
                if first_error.is_empty() {
                    first_error = format!("HTTP {}", r.status);
                }
                continue;
            }
            Err(e) => {
                errors += 1;
                if first_error.is_empty() {
                    first_error = e.to_string();
                }
                continue;
            }
        };
        if let Some(secs) = reply.split.connect {
            connect.push(secs * 1e3);
        }
        match *slot {
            Slot::Hit(k) => {
                let want = expect[k].as_bytes();
                let body = reply.body.strip_suffix(b"\n").unwrap_or(&reply.body);
                if reply.cache != "hit" || body != want {
                    mismatched += 1;
                }
                hit_ms.push(timing.latency() * 1e3);
                ttfb.push(reply.split.ttfb * 1e3);
                read.push(reply.split.read * 1e3);
                split_sum += reply.split.total();
                service_sum += timing.done - timing.sent;
            }
            Slot::Miss(k) => {
                if reply.cache != "miss" {
                    mismatched += 1;
                }
                miss_bodies[k] = String::from_utf8_lossy(&reply.body).trim_end().to_string();
                miss_ms.push(timing.latency() * 1e3);
            }
        }
    }
    let path = flags.str("miss-out")?;
    let mut text = miss_bodies.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;

    let wall = results.iter().map(|(t, _)| t.done).fold(0.0, f64::max);
    let last_due = results.last().map_or(0.0, |(t, _)| t.due);
    let (hit_ms, miss_ms, late_ms) = (sorted(hit_ms), sorted(miss_ms), sorted(late_ms));
    let mut out = vec![
        format!("\"requests\": {}", schedule.len()),
        format!("\"hits\": {}", hit_ms.len()),
        format!("\"misses\": {}", miss_ms.len()),
        format!("\"errors\": {errors}"),
        format!("\"refused\": {refused}"),
        format!("\"mismatched\": {mismatched}"),
        format!("\"first_error\": \"{}\"", first_error.replace(['"', '\\'], "'")),
        format!("\"rate\": {rate}"),
        format!("\"senders\": {SENDERS}"),
        format!("\"wall_s\": {wall}"),
        format!("\"drain_ms\": {}", (wall - last_due) * 1e3),
        format!("\"hit_p50_ms\": {}", json_num(quantile(&hit_ms, 0.50))),
        format!("\"hit_p99_ms\": {}", json_num(quantile(&hit_ms, 0.99))),
        format!("\"miss_p50_ms\": {}", json_num(quantile(&miss_ms, 0.50))),
        format!("\"miss_p90_ms\": {}", json_num(quantile(&miss_ms, 0.90))),
        format!("\"late_p99_ms\": {}", json_num(quantile(&late_ms, 0.99))),
        format!("\"connect_ms\": {}", json_num(median(&connect))),
        format!("\"ttfb_ms\": {}", json_num(median(&ttfb))),
        format!("\"read_ms\": {}", json_num(median(&read))),
        format!("\"split_coverage\": {}", json_num(Some(split_sum / service_sum))),
    ];
    if let (Some(before), Some(after)) = (&before, &after) {
        let cache = |event: &str| {
            counter_delta(before, after, "dircc_result_cache_events_total", &[("event", event)])
        };
        out.push(format!("\"daemon_run_p50_ms\": {}", json_num(daemon_run_p50_ms(before, after))));
        out.push(format!("\"daemon_cache_hits\": {}", cache("hit")));
        out.push(format!("\"daemon_cache_misses\": {}", cache("miss")));
        out.push(format!("\"queue_depth_max\": {}", json_num(queue_max)));
    }
    Ok(format!("{{{}}}", out.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        // One sender, 1000/s: request 1 is due at 1 ms but cannot be sent
        // until request 0's 30 ms stall ends.
        let timings = open_loop(3, 1000.0, 1, |_: &mut (), i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let t = timings[1].0;
        assert!((t.due - 0.001).abs() < 1e-12);
        assert!(t.sent >= 0.030, "request 1 waited for the stalled sender");
        assert!(t.latency() >= 0.029, "latency includes the wait: {}", t.latency());
        assert!(t.done - t.sent < 0.010, "its own service time was short");
        // The wait was the daemon's (the only sender was busy), not the
        // generator's: lateness only counts time a sender sat free.
        assert!(t.late() < 0.005, "late {}", t.late());
    }

    #[test]
    fn results_come_back_in_schedule_order() {
        let out = open_loop(50, 20_000.0, 2, |_: &mut (), i| i * 2);
        assert_eq!(out.len(), 50);
        for (i, (t, r)) in out.iter().enumerate() {
            assert_eq!(*r, i * 2);
            assert!(t.done >= t.sent && t.sent >= t.free.min(t.due));
        }
    }

    /// A daemon stand-in on an ephemeral port that answers `per_conn`
    /// requests on each connection, the last one with `Connection:
    /// close`; returns its address and a count of accepted connections.
    fn keep_alive_daemon(per_conn: usize) -> (SocketAddr, std::sync::Arc<AtomicUsize>) {
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let accepted = std::sync::Arc::new(AtomicUsize::new(0));
        let count = std::sync::Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.expect("accept");
                count.fetch_add(1, Ordering::SeqCst);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                for n in 1..=per_conn {
                    let mut len = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("request line");
                        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                            len = v.trim().parse().expect("length");
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut body = vec![0; len];
                    reader.read_exact(&mut body).expect("body");
                    let close = if n == per_conn { "Connection: close\r\n" } else { "" };
                    write!(stream, "HTTP/1.1 200 OK\r\n{close}Content-Length: 2\r\n\r\nok")
                        .expect("response");
                }
            }
        });
        (addr, accepted)
    }

    #[test]
    fn a_sender_keeps_its_connection_until_the_daemon_closes_it() {
        let (addr, accepted) = keep_alive_daemon(3);
        let mut conn = None;
        let mut connects = Vec::new();
        for _ in 0..5 {
            let (resp, split) = post_run(&mut conn, addr, "test", b"{}").expect("request");
            assert_eq!((resp.status, resp.body.as_slice()), (200, &b"ok"[..]));
            connects.push(split.connect.is_some());
        }
        // Requests 1-3 share a connection; the third said close, so the
        // fourth connects again.
        assert_eq!(connects, [true, false, false, true, false]);
        assert_eq!(accepted.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_connection_closed_per_request_is_opened_for_every_request() {
        let (addr, accepted) = keep_alive_daemon(1);
        let mut conn = None;
        for _ in 0..3 {
            let (_, split) = post_run(&mut conn, addr, "test", b"{}").expect("request");
            assert!(split.connect.is_some());
            assert!(conn.is_none());
        }
        assert_eq!(accepted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn daemon_median_reads_the_bucket_holding_half() {
        let parse = |text: &str| parse_exposition(text).expect("valid exposition");
        let before = parse(
            "dircc_http_request_duration_us_bucket{route=\"/run\",le=\"100\"} 5\n\
             dircc_http_request_duration_us_bucket{route=\"/run\",le=\"200\"} 5\n\
             dircc_http_request_duration_us_bucket{route=\"/run\",le=\"+Inf\"} 5\n",
        );
        let after = parse(
            "dircc_http_request_duration_us_bucket{route=\"/run\",le=\"100\"} 6\n\
             dircc_http_request_duration_us_bucket{route=\"/run\",le=\"150\"} 7\n\
             dircc_http_request_duration_us_bucket{route=\"/run\",le=\"200\"} 9\n\
             dircc_http_request_duration_us_bucket{route=\"/run\",le=\"+Inf\"} 10\n",
        );
        // Five new requests: one ≤100 µs, one ≤150 µs (a bucket the first
        // scrape did not expose), two ≤200 µs, one beyond.
        assert_eq!(daemon_run_p50_ms(&before, &after), Some(0.2));
        assert_eq!(daemon_run_p50_ms(&after, &after), None);
    }
}
