//! A tiny blocking HTTP/1.1 client for `rvz serve`: the `rvz client`
//! subcommand and the CI smoke test speak through this (the workspace
//! ships its own client so the whole serve stack stays dependency-free
//! and testable offline).

use rvz_experiments::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Transport timeouts for [`HttpClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Maximum time to establish the TCP connection.
    pub connect_timeout: Duration,
    /// Maximum time to wait for response bytes once connected.
    pub read_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
        }
    }
}

impl ClientOptions {
    /// Both timeouts set to `timeout` (how `--timeout-ms` maps in).
    pub fn uniform(timeout: Duration) -> ClientOptions {
        ClientOptions {
            connect_timeout: timeout,
            read_timeout: timeout,
        }
    }
}

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl ClientResponse {
    /// The first header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A persistent keep-alive connection to a server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`) with default
    /// timeouts ([`ClientOptions::default`]).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<HttpClient> {
        HttpClient::connect_with(addr, &ClientOptions::default())
    }

    /// Connects to `addr` honoring the given connect/read timeouts.
    ///
    /// # Errors
    ///
    /// Propagates connection failures, including connect timeout.
    pub fn connect_with(addr: &str, opts: &ClientOptions) -> std::io::Result<HttpClient> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("address `{addr}` resolved to nothing"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&resolved, opts.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(opts.read_timeout))?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the full response.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: rvz\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body: String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?,
        })
    }
}

/// Retry discipline for shed (503) responses: capped exponential
/// backoff with deterministic jitter, honoring the server's
/// `Retry-After` hint when it is longer than the local backoff.
///
/// Only 503 triggers a retry — it is the one status the server sends
/// for *transient* overload (admission control), and the shed happens
/// before any engine work, so replaying is always safe. Other errors
/// (4xx, 5xx, transport failures) surface immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast, the default).
    pub retries: u32,
    /// First backoff step; doubles each retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The default policy with `retries` attempts (how `--retries`
    /// maps in).
    pub fn with_retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry attempt `attempt` (0-based), given the
    /// server's `Retry-After` hint in seconds (if any): the larger of
    /// the hint and the jittered, capped exponential backoff.
    ///
    /// Jitter multiplies the backoff by a factor in `[0.5, 1.0)` drawn
    /// from a per-policy [`SplitMix64`] stream, so synchronized
    /// clients de-correlate instead of re-stampeding the server, while
    /// a pinned seed keeps tests and benchmarks reproducible.
    pub fn delay(&self, attempt: u32, retry_after_s: Option<u64>) -> Duration {
        let backoff = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let jitter = 0.5 + 0.5 * SplitMix64::new(self.seed).split(attempt as u64).next_f64();
        let jittered = backoff.mul_f64(jitter);
        match retry_after_s {
            Some(s) => jittered.max(Duration::from_secs(s)),
            None => jittered,
        }
    }
}

/// Parses a `Retry-After` header value (whole seconds; the only form
/// `rvz serve` emits).
fn retry_after_s(resp: &ClientResponse) -> Option<u64> {
    resp.header("retry-after").and_then(|v| v.parse().ok())
}

/// One-shot request with 503 retries per `policy`: each attempt uses a
/// fresh connection (the server closes shed connections), sleeping the
/// policy's delay between attempts. Returns the final response —
/// still 503 if every attempt was shed.
///
/// # Errors
///
/// Propagates connection and protocol failures (not retried).
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    opts: &ClientOptions,
    policy: &RetryPolicy,
) -> std::io::Result<ClientResponse> {
    let mut resp = request_with(addr, method, path, body, opts)?;
    for attempt in 0..policy.retries {
        if resp.status != 503 {
            break;
        }
        std::thread::sleep(policy.delay(attempt, retry_after_s(&resp)));
        resp = request_with(addr, method, path, body, opts)?;
    }
    Ok(resp)
}

/// One-shot convenience: connect, send, read, close.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    HttpClient::connect(addr)?.request(method, path, body)
}

/// One-shot convenience with explicit timeouts.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    opts: &ClientOptions,
) -> std::io::Result<ClientResponse> {
    HttpClient::connect_with(addr, opts)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_jitters_and_caps() {
        let policy = RetryPolicy::with_retries(8);
        let mut prev = Duration::ZERO;
        for attempt in 0..8 {
            let d = policy.delay(attempt, None);
            let nominal = policy.base.saturating_mul(1 << attempt).min(policy.cap);
            assert!(d >= nominal.mul_f64(0.5), "attempt {attempt}: {d:?}");
            assert!(d < nominal, "jitter factor is strictly below 1.0");
            assert!(d <= policy.cap);
            if nominal < policy.cap {
                assert!(
                    d > prev.mul_f64(0.5),
                    "roughly increasing: {d:?} vs {prev:?}"
                );
            }
            prev = d;
        }
        // Deterministic: the same policy yields the same schedule.
        assert_eq!(policy.delay(3, None), policy.delay(3, None));
    }

    #[test]
    fn retry_after_hint_wins_when_longer() {
        let policy = RetryPolicy::default();
        assert!(policy.delay(0, Some(5)) >= Duration::from_secs(5));
        // A zero hint falls back to the local backoff.
        assert!(policy.delay(0, Some(0)) >= policy.base.mul_f64(0.5));
        let resp = ClientResponse {
            status: 503,
            headers: vec![("retry-after".to_string(), "2".to_string())],
            body: String::new(),
        };
        assert_eq!(retry_after_s(&resp), Some(2));
        let none = ClientResponse {
            status: 200,
            headers: vec![],
            body: String::new(),
        };
        assert_eq!(retry_after_s(&none), None);
    }
}
