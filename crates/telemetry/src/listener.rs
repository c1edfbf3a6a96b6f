//! The one TCP listener every server in the workspace runs on.
//!
//! [`Listener`] binds an address, accepts on a named thread and runs a
//! caller-supplied handler on one thread per accepted connection. The
//! metrics server and the embedding server put
//! [`http`](crate::http)'s responder behind it; `pbg-net`'s `NetServer`
//! puts its framed RPC loop behind it. What a connection thread does is
//! entirely the handler's business, so the listener never branches on
//! which server it serves.
//!
//! Shutdown sets a stop flag and wakes the blocking `accept` with a
//! throwaway connect; the accept thread then exits and drops the socket,
//! so the port stops serving. Connection threads are not joined: each
//! ends when its handler returns, and a handler panic unwinds only its
//! own thread and drops only its own connection.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A bound, accepting TCP listener. Shuts down on drop.
#[derive(Debug)]
pub struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 picks a free port) and runs `handler` on a
    /// new thread for every accepted connection until shutdown or drop.
    /// Threads are named `{name}-{port}` (accept) and `{name}-conn`.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the error spawning the accept thread.
    pub fn serve<H>(addr: &str, name: &str, handler: H) -> io::Result<Listener>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handler = Arc::new(handler);
        let conn_name = format!("{name}-conn");
        let accept_thread = thread::Builder::new()
            .name(format!("{name}-{}", local_addr.port()))
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let handler = Arc::clone(&handler);
                    // a failed spawn drops this one connection; the
                    // listener keeps accepting
                    let _ = thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || handler(stream));
                }
            })?;
        Ok(Listener {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread; open connections
    /// finish on their own threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    /// One request byte, one reply: `p` panics the handler, anything
    /// else is answered `ok`.
    fn one_byte_server() -> Listener {
        Listener::serve("127.0.0.1:0", "pbg-test", |mut stream| {
            let mut byte = [0u8; 1];
            if stream.read_exact(&mut byte).is_err() {
                return;
            }
            assert_ne!(&byte, b"p", "handler told to panic");
            let _ = stream.write_all(b"ok");
        })
        .unwrap()
    }

    /// Sends `byte` and reads until the server closes the connection.
    fn ask(addr: SocketAddr, byte: u8) -> io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(&[byte])?;
        let mut reply = Vec::new();
        s.read_to_end(&mut reply)?;
        Ok(reply)
    }

    #[test]
    fn idle_and_panicking_connections_cost_only_themselves() {
        let mut server = one_byte_server();
        let addr = server.local_addr();

        // a client that connects and sends nothing holds one thread...
        let idle = TcpStream::connect(addr).unwrap();
        // ...and does not delay anyone else's request
        let t = Instant::now();
        assert_eq!(ask(addr, b'x').unwrap(), b"ok");
        assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());

        // a handler panic drops only its own connection
        assert_eq!(ask(addr, b'p').unwrap(), b"", "panicked connection closes");
        assert_eq!(ask(addr, b'x').unwrap(), b"ok", "next connection served");

        // shutdown does not wait for the idle client, and is idempotent
        let t = Instant::now();
        server.shutdown();
        server.shutdown();
        assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());
        // the port stops serving: refused, or (if the port was reused
        // meanwhile by another listener) never answered `ok`
        if let Ok(reply) = ask(addr, b'x') {
            assert_ne!(reply, b"ok");
        }
        drop(idle);
        drop(server);
    }
}
