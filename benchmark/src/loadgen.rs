//! The load generator: one process, at most two sender threads and two
//! connections in flight. A closed loop (each client sends its next
//! request when the last one completes) finds capacity; an open loop
//! sends on a fixed schedule regardless, times every request **from its
//! due time**, and reports how late it ran.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads (and so connections in flight) the generator uses.
pub const SENDERS: usize = 2;

/// One HTTP exchange as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// Nanoseconds to establish the connection.
    pub connect_ns: u64,
    /// Nanoseconds from start to the first response byte.
    pub ttfb_ns: u64,
    /// Nanoseconds from start to end of response.
    pub total_ns: u64,
    /// HTTP status; 0 when the exchange failed in transport.
    pub status: u16,
    /// Whether connecting itself failed.
    pub connect_error: bool,
    /// The response body.
    pub body: String,
}

/// One `POST` on a fresh connection (HTTP/1.0, `Connection: close`), the
/// way every client of the serving tier talks to it today.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Exchange {
    let started = Instant::now();
    let elapsed = |t: Instant| t.elapsed().as_nanos() as u64;
    let mut out = Exchange::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            out.connect_error = true;
            out.total_ns = elapsed(started);
            return out;
        }
    };
    out.connect_ns = elapsed(started);
    let request = format!(
        "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut response = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    if stream.write_all(request.as_bytes()).is_ok() {
        loop {
            match stream.read(&mut buf) {
                Ok(n) => {
                    if out.ttfb_ns == 0 {
                        out.ttfb_ns = elapsed(started);
                    }
                    if n == 0 {
                        break;
                    }
                    response.extend_from_slice(&buf[..n]);
                }
                Err(_) => {
                    response.clear();
                    break;
                }
            }
        }
    }
    out.total_ns = elapsed(started);
    let text = String::from_utf8_lossy(&response);
    out.status = text
        .strip_prefix("HTTP/1.0 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    if let Some((_, body)) = text.split_once("\r\n\r\n") {
        out.body = body.to_string();
    }
    out
}

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the phase's request list.
    pub index: usize,
    /// When it was due, ns from phase start (closed loop: when it was sent).
    pub due_ns: u64,
    /// When the sender actually started it, ns from phase start.
    pub start_ns: u64,
    /// The exchange.
    pub exchange: Exchange,
}

impl Sample {
    /// How late the generator started this request.
    pub fn late_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.due_ns)
    }

    /// Latency as an independent user saw it: from the due time, so the
    /// wait a stall imposes on later requests counts.
    pub fn latency_ns(&self) -> u64 {
        self.late_ns() + self.exchange.total_ns
    }
}

/// Closed loop: `clients` threads each send their next request as soon
/// as the previous one completed, until `duration` has passed. `send`
/// performs request `i` (indices are handed out in order).
pub fn closed_loop(
    clients: usize,
    duration: Duration,
    send: impl Fn(usize) -> Exchange + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let phase_start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while phase_start.elapsed() < duration {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let start_ns = phase_start.elapsed().as_nanos() as u64;
                        let exchange = send(index);
                        mine.push(Sample {
                            index,
                            due_ns: start_ns,
                            start_ns,
                            exchange,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// Open loop: request `i` is due at `schedule[i]` ns after the phase
/// starts. [`SENDERS`] threads take requests in order; a sender that is
/// early sleeps until the due time, one that is late sends at once. A
/// slow reply therefore delays the requests queued behind it, and that
/// delay is part of their latency.
pub fn open_loop(
    senders: usize,
    schedule: &[u64],
    send: impl Fn(usize) -> Exchange + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let phase_start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due_ns) = schedule.get(index) else {
                            return mine;
                        };
                        let now = phase_start.elapsed().as_nanos() as u64;
                        if now < due_ns {
                            std::thread::sleep(Duration::from_nanos(due_ns - now));
                        }
                        let start_ns = phase_start.elapsed().as_nanos() as u64;
                        let exchange = send(index);
                        mine.push(Sample {
                            index,
                            due_ns,
                            start_ns,
                            exchange,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_reply(total_ns: u64) -> Exchange {
        Exchange {
            total_ns,
            status: 200,
            ..Exchange::default()
        }
    }

    #[test]
    fn open_loop_times_from_due_time_and_reports_lateness_under_a_stall() {
        // one sender, requests due every millisecond; request 0 stalls 40 ms
        let schedule: Vec<u64> = (0..5).map(|i| i * 1_000_000).collect();
        let stall = Duration::from_millis(40);
        let samples = open_loop(1, &schedule, |i| {
            let t = Instant::now();
            if i == 0 {
                std::thread::sleep(stall);
            }
            instant_reply(t.elapsed().as_nanos() as u64)
        });
        assert_eq!(samples.len(), 5);
        assert!(samples[0].late_ns() < 5_000_000, "request 0 was on time");
        assert!(samples[0].latency_ns() >= 40_000_000);
        for s in &samples[1..] {
            // queued behind the stall: sent late, and the wait counts
            let min_late = 40_000_000 - s.due_ns;
            assert!(
                s.late_ns() >= min_late,
                "late {} of {min_late}",
                s.late_ns()
            );
            assert!(s.latency_ns() >= s.late_ns());
            assert!(
                s.exchange.total_ns < 5_000_000,
                "its own service time stayed small"
            );
        }
        // requests never start before they are due
        assert!(samples.iter().all(|s| s.start_ns >= s.due_ns));
    }

    #[test]
    fn closed_loop_hands_out_every_index_once() {
        let samples = closed_loop(2, Duration::from_millis(20), |_| {
            std::thread::sleep(Duration::from_millis(1));
            instant_reply(1_000_000)
        });
        assert!(samples.len() >= 4);
        assert!(samples.iter().enumerate().all(|(i, s)| s.index == i));
        assert!(samples.iter().all(|s| s.late_ns() == 0));
    }

    #[test]
    fn post_reports_a_connect_error_instead_of_retrying() {
        // a port nothing listens on: bind, note the address, drop
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let exchange = post(addr, "/score", "{}");
        assert!(exchange.connect_error);
        assert_eq!(exchange.status, 0);
    }
}
