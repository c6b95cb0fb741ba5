//! The benchmark's side of the wire: a minimal HTTP/1.1 keep-alive
//! client, the `/metrics` scraper, and the `accelwall serve` child.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// One response read off the wire.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Reads one `Content-Length`-framed response from `reader`.
pub fn read_reply(reader: &mut impl BufRead) -> Result<Reply, String> {
    let mut line = String::new();
    let mut status = None;
    let mut length = None;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("reading response head: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if status.is_none() {
            status = trimmed
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok());
            if status.is_none() {
                return Err(format!("bad status line {trimmed:?}"));
            }
        } else if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = vec![0; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading response body: {e}"))?;
    Ok(Reply {
        status: status.unwrap_or(0),
        body,
    })
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(256 * 1024, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// One request, one reply.
    pub fn call(&mut self, request: &[u8]) -> Result<Reply, String> {
        self.writer
            .write_all(request)
            .map_err(|e| format!("sending request: {e}"))?;
        read_reply(&mut self.reader)
    }

    /// Splits into a send half and a receive half for the open loop.
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }
}

/// Counters scraped from one `/metrics` page, keyed by the full series
/// name including labels (`accelwall_requests_total{route="/query"}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text exposition, skipping comments.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(name, value)| Some((name.to_string(), value.parse::<f64>().ok()?)))
                .collect(),
        )
    }

    /// One series' value; absent series read as 0.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `after − before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// Requests over every route except `/metrics` itself, after − before.
    pub fn requests_delta(&self, before: &Scrape) -> f64 {
        self.0
            .keys()
            .filter(|k| k.starts_with("accelwall_requests_total{") && !k.contains("/metrics"))
            .map(|k| self.delta(before, k))
            .sum()
    }

    /// Mean server-side latency of one route over the window, in µs.
    pub fn route_mean_us(&self, before: &Scrape, route: &str) -> f64 {
        let count = self.delta(
            before,
            &format!("accelwall_requests_total{{route=\"{route}\"}}"),
        );
        let sum = self.delta(
            before,
            &format!("accelwall_request_latency_seconds_sum{{route=\"{route}\"}}"),
        );
        ratio(sum * 1e6, count)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fetches `/metrics` on a fresh connection.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = Conn::open(addr)?
        .call(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Ok(Scrape::parse(&String::from_utf8_lossy(&reply.body)))
}

/// A running `accelwall serve` child process.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `accelwall serve` on an ephemeral port and waits for its
    /// listening line.
    pub fn spawn(accelwall: &Path) -> Result<Server, String> {
        let mut child = Command::new(accelwall)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", accelwall.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve child has no stdout".to_string());
        };
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        let addr = server
            .stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.split("http://").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("serve child printed no listening line: {line:?}")),
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Drains the server through `POST /shutdown` and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let drained = Conn::open(self.addr).and_then(|mut c| {
            c.call(b"POST /shutdown HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        });
        if !matches!(&drained, Ok(r) if r.status == 200) {
            // No drain under way: kill it, so the read below sees EOF.
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        match (drained, self.child.wait()) {
            (Ok(r), Ok(status)) if r.status == 200 && status.success() => Ok(()),
            (drained, status) => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                Err(format!(
                    "serve child did not drain cleanly: {:?} / {status:?}",
                    drained.map(|r| r.status)
                ))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on error paths that skipped `shutdown`: never leave
        // a child running past the benchmark.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scraper_reads_labelled_series_and_deltas() {
        let before = Scrape::parse(
            "# TYPE accelwall_requests_total counter\n\
             accelwall_requests_total{route=\"/query\"} 10\n\
             accelwall_requests_total{route=\"/metrics\"} 1\n\
             accelwall_request_latency_seconds_sum{route=\"/query\"} 0.001\n\
             accelwall_response_cache_hits_total 4\n",
        );
        let after = Scrape::parse(
            "accelwall_requests_total{route=\"/query\"} 110\n\
             accelwall_requests_total{route=\"/metrics\"} 2\n\
             accelwall_request_latency_seconds_sum{route=\"/query\"} 0.011\n\
             accelwall_response_cache_hits_total 54\n",
        );
        assert_eq!(
            after.delta(&before, "accelwall_response_cache_hits_total"),
            50.0
        );
        assert_eq!(after.requests_delta(&before), 100.0);
        assert!((after.route_mean_us(&before, "/query") - 100.0).abs() < 1e-9);
        assert_eq!(after.get("accelwall_missing"), 0.0);
        assert_eq!(after.route_mean_us(&before, "/healthz"), 0.0);
    }

    #[test]
    fn reply_reader_frames_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let a = read_reply(&mut reader).unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"hi"[..]));
        let b = read_reply(&mut reader).unwrap();
        assert_eq!((b.status, b.body.len()), (503, 0));
        assert!(read_reply(&mut reader).is_err());
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mib("/proc/self/status").unwrap() > 0.0);
    }
}
