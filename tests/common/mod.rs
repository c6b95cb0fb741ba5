//! Helpers shared by the integration tests that drive a real
//! `accelwall serve` child over HTTP/1.1: spawning and draining the
//! server, one-shot requests, `/metrics` parsing, and one-shot CLI runs.

#![allow(
    dead_code,
    reason = "each test file compiles this module separately and uses a subset"
)]

use accelerator_wall::json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running `accelwall serve` child plus the address it bound.
pub struct ServeProcess {
    child: Child,
    /// The resolved `HOST:PORT` the server listens on.
    pub addr: String,
    // Keeps the child's stdout pipe open for its lifetime (dropping the
    // read end would turn the final drain announcement into EPIPE).
    stdout: BufReader<ChildStdout>,
}

impl ServeProcess {
    /// Spawns `accelwall serve --addr 127.0.0.1:0` with `args` appended
    /// and `env` applied (`None` removes the variable), then reads the
    /// resolved address off the announcement line.
    pub fn spawn(args: &[&str], env: &[(&str, Option<&str>)]) -> ServeProcess {
        let mut command = Command::new(env!("CARGO_BIN_EXE_accelwall"));
        command
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, value) in env {
            match value {
                Some(value) => command.env(key, value),
                None => command.env_remove(key),
            };
        }
        let mut child = command.spawn().expect("serve spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("an announcement line");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        ServeProcess {
            child,
            addr,
            stdout,
        }
    }

    /// The next line the server printed on stdout.
    pub fn next_line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("a stdout line");
        line
    }

    /// Issues `POST /shutdown` (the drain begins; queued work finishes).
    pub fn shutdown(&self) {
        let resp = request(&self.addr, "POST", "/shutdown", None);
        assert_eq!((resp.status, resp.body.as_str()), (200, "draining\n"));
    }

    /// Blocks until the process exits and asserts it drained cleanly.
    pub fn wait(mut self) {
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited {status:?}");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("stdout drains");
        assert!(
            rest.contains("drained cleanly"),
            "missing drain announcement in {rest:?}"
        );
    }

    /// Issues `POST /shutdown` and asserts the process drains cleanly.
    pub fn shutdown_and_wait(self) {
        self.shutdown();
        self.wait();
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        // Only reached when an assertion failed mid-test.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed HTTP response.
pub struct Resp {
    pub status: u16,
    pub headers: String,
    pub body: String,
}

impl Resp {
    /// The value of `name` (case-insensitive), when present.
    pub fn header(&self, name: &str) -> Option<String> {
        let needle = format!("{}:", name.to_ascii_lowercase());
        self.headers.lines().find_map(|l| {
            l.to_ascii_lowercase()
                .starts_with(&needle)
                .then(|| l[needle.len()..].trim().to_string())
        })
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Value {
        Value::parse(&self.body).unwrap_or_else(|e| panic!("{e} in body:\n{}", self.body))
    }
}

/// One exchange on a fresh connection that asks the server to close it
/// after the response, so reading to EOF returns at once. `None` when
/// the server dropped the connection without answering (what an
/// injected worker or accept panic looks like from outside).
pub fn try_request(addr: &str, method: &str, path: &str, accept: Option<&str>) -> Option<Resp> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_mins(2)))
        .unwrap();
    let accept = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    stream
        .write_all(
            format!("{method} {path} HTTP/1.1\r\nHost: t\r\n{accept}Connection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send");
    read_response(&mut stream)
}

/// One exchange that must be answered.
pub fn request(addr: &str, method: &str, path: &str, accept: Option<&str>) -> Resp {
    try_request(addr, method, path, accept)
        .unwrap_or_else(|| panic!("{method} {path}: connection dropped"))
}

/// `GET path`, which must be answered.
pub fn get(addr: &str, path: &str) -> Resp {
    request(addr, "GET", path, None)
}

/// Reads one response to EOF; `None` on EOF with no bytes or a reset.
pub fn read_response(stream: &mut TcpStream) -> Option<Resp> {
    let mut raw = String::new();
    match stream.read_to_string(&mut raw) {
        Ok(_) if !raw.is_empty() => {}
        _ => return None,
    }
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    Some(Resp {
        status,
        headers,
        body,
    })
}

/// Pulls one `accelwall_*` metric value out of a `/metrics` body.
pub fn metric(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

/// Runs the `accelwall` binary with `args`, asserts success, and
/// returns its stdout.
pub fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?} failed");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}
