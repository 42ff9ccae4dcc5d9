//! The load shape: a closed loop, which sends a session's next request
//! only after the previous reply.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stream::{Kind, Stmt};
use crate::wire::{run_line, scan, Conn, Format, Reply};

/// What a request was, for classing its latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Run(Kind),
    Append,
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the request in its stream.
    pub index: usize,
    pub op: Op,
    /// Round trip in microseconds.
    pub latency_us: f64,
    /// Seconds from the start of the loop to the reply.
    pub at_s: f64,
    pub reply: Reply,
}

/// Outcome of a load loop.
#[derive(Default)]
pub struct LoopOut {
    pub samples: Vec<Sample>,
    /// The statement and full reply line of each request the oracle
    /// samples, by index.
    pub kept: BTreeMap<usize, (String, String)>,
    pub elapsed_s: f64,
    /// Transport errors (a dropped connection ends its session).
    pub io_errors: usize,
}

/// Closed loop: one connection and thread per session, each sending its
/// own statement stream in order until `seconds` have passed. Statement
/// `i` of session `s` has stream index `i * sessions + s`; the replies of
/// indices `keep` accepts are kept for the oracle.
pub fn closed_loop<I, K>(
    addr: SocketAddr,
    sessions: Vec<I>,
    limit: usize,
    seconds: f64,
    keep: K,
) -> LoopOut
where
    I: Iterator<Item = Stmt> + Send + 'static,
    K: Fn(usize) -> bool + Copy + Send + 'static,
{
    let n = sessions.len();
    let start = Instant::now();
    let threads: Vec<_> = sessions
        .into_iter()
        .enumerate()
        .map(|(s, list)| {
            std::thread::spawn(move || {
                let mut out = LoopOut::default();
                let mut conn = match Conn::connect(addr) {
                    Ok(conn) => conn,
                    Err(_) => {
                        out.io_errors += 1;
                        return out;
                    }
                };
                for (i, stmt) in list.enumerate() {
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let index = i * n + s;
                    let id = index as u64 + 1;
                    let line = run_line(id, &stmt.text, Format::Cells(limit), true);
                    let t0 = Instant::now();
                    match conn.call(&line, id) {
                        Ok(reply_line) => {
                            let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                            let reply = scan(&reply_line);
                            out.samples.push(Sample {
                                index,
                                op: Op::Run(stmt.kind),
                                latency_us,
                                at_s: start.elapsed().as_secs_f64(),
                                reply,
                            });
                            if keep(index) {
                                out.kept.insert(index, (stmt.text, reply_line));
                            }
                        }
                        Err(_) => {
                            out.io_errors += 1;
                            break;
                        }
                    }
                }
                out
            })
        })
        .collect();
    let mut all = LoopOut::default();
    for t in threads {
        let out = t.join().expect("session thread");
        all.samples.extend(out.samples);
        all.kept.extend(out.kept);
        all.io_errors += out.io_errors;
    }
    all.elapsed_s = start.elapsed().as_secs_f64();
    all
}

/// Runs `f` while a watchdog thread aborts the process if it takes longer
/// than `limit` — the benchmark must end in bounded time even if the
/// server stalls.
pub fn with_watchdog<T>(limit: Duration, what: &'static str, f: impl FnOnce() -> T) -> T {
    let done = Arc::new(AtomicBool::new(false));
    let flag = done.clone();
    let dog = std::thread::spawn(move || {
        let t0 = Instant::now();
        while t0.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(50));
            if flag.load(Ordering::Acquire) {
                return;
            }
        }
        eprintln!("perfbench: {what} exceeded {}s; aborting", limit.as_secs());
        std::process::exit(3);
    });
    let out = f();
    done.store(true, Ordering::Release);
    let _ = dog.join();
    out
}
