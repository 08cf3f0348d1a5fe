//! Thin blocking client for the serve wire protocol.
//!
//! One [`Client`] owns one connection. Requests are single lines;
//! responses are single JSON lines except `watch`, which streams the
//! job's feed until its `watch_end` terminator. The client does not
//! parse JSON — it hands lines through verbatim (the CLI prints them,
//! tests assert on them), which keeps it as dependency-free as the
//! server.

use crate::protocol::write_line;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line (newline appended).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads one response line; `None` on a cleanly closed connection.
    ///
    /// # Errors
    ///
    /// Propagates socket read failures.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Sends `line` and returns the single response line.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or when the server closes the connection
    /// without responding.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.read_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }

    /// Streams a job's feed: every event line goes to `on_line`; the
    /// returned string is the final line — the `watch_end` terminator,
    /// or an `{"ok":false,...}` rejection for unknown jobs.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a connection closed mid-stream (a
    /// stream always ends with `watch_end` under normal operation,
    /// including server drain).
    pub fn watch(
        &mut self,
        job: &str,
        from: usize,
        on_line: &mut dyn FnMut(&str),
    ) -> std::io::Result<String> {
        let ack = self.request(&format!("watch job={job} from={from}"))?;
        if ack.starts_with("{\"ok\":false") {
            return Ok(ack);
        }
        loop {
            let Some(line) = self.read_line()? else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "watch stream closed before watch_end",
                ));
            };
            if line.starts_with("{\"event\":\"watch_end\"") {
                return Ok(line);
            }
            on_line(&line);
        }
    }
}
