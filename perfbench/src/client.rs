//! A keep-alive HTTP/1.1 client that sends each request in one write.
//!
//! `rvz_server::HttpClient` formats a request straight onto its socket,
//! one `write` per formatted piece, so every request leaves as several
//! TCP segments, and each can wake the server worker. Which of those
//! wake-ups preempt the client depends on the scheduler, and with
//! server and client on one CPU the cost per request moved from run to
//! run. Clients such as curl send a request this small in one write;
//! this one does the same with bytes rendered before the clock starts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Writes one complete request and reads the response: its status
    /// and body.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, body))
    }
}
