//! The benchmark's connection to `leased`: the same framing as
//! `leased::Client`, built from the public `leased::protocol` functions so
//! that encode, queue, flush, read and decode can be timed one by one, and
//! over a reader that counts socket reads.

use leased::protocol::{self, Request, Response};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Counts `read` calls that returned data.
struct CountingReader {
    inner: TcpStream,
    reads: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.reads += 1;
        }
        Ok(n)
    }
}

/// The sending half of a connection.
pub struct Tx {
    writer: BufWriter<TcpStream>,
}

/// The receiving half of a connection.
pub struct Rx {
    reader: BufReader<CountingReader>,
    frames_read: u64,
}

pub struct Conn {
    pub tx: Tx,
    pub rx: Rx,
}

type Result<T> = std::result::Result<T, String>;

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            tx: Tx {
                writer: BufWriter::with_capacity(64 * 1024, stream),
            },
            rx: Rx {
                reader: BufReader::with_capacity(
                    64 * 1024,
                    CountingReader {
                        inner: read_half,
                        reads: 0,
                    },
                ),
                frames_read: 0,
            },
        })
    }

    /// One untimed request/response round trip.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        self.tx.queue(&protocol::encode(request))?;
        self.tx.flush()?;
        protocol::decode(&self.rx.read()?).map_err(|e| e.to_string())
    }
}

impl Tx {
    /// Queues an encoded frame without flushing.
    pub fn queue(&mut self, payload: &str) -> Result<()> {
        protocol::queue_frame(&mut self.writer, payload).map_err(|e| format!("send: {e}"))
    }

    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }
}

impl Rx {
    /// Reads the next response frame's payload.
    pub fn read(&mut self) -> Result<String> {
        let payload = protocol::read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))?;
        self.frames_read += 1;
        Ok(payload)
    }

    /// `(response frames read, socket reads that returned data)`.
    pub fn read_counts(&self) -> (u64, u64) {
        (self.frames_read, self.reader.get_ref().reads)
    }
}
