//! The TCP front end: listener, worker pool, admission control,
//! graceful shutdown.
//!
//! One dedicated accept thread pushes connections onto an `mpsc`
//! channel; a fixed pool of workers pops them and runs each connection's
//! keep-alive loop to completion. The queue between them is **bounded**
//! ([`ServerOptions::queue_depth`]): when it is full the accept thread
//! *sheds* the connection with `503 Service Unavailable` +
//! `Retry-After` instead of queueing it behind an unbounded backlog —
//! under overload clients get a fast, explicit signal rather than a
//! slow timeout.
//!
//! Workers are **panic-isolated**: a request handler that panics costs
//! that request a `500` (with `Connection: close`) but never a worker
//! thread, and a worker that dies while holding the queue lock leaves a
//! *poisoned* mutex that the surviving workers recover from instead of
//! cascading (`PoisonError::into_inner` — the queue itself is an `mpsc`
//! receiver whose state cannot be corrupted by an interrupted pop).
//!
//! Shutdown (a `POST /shutdown` request, or [`ServerHandle::shutdown`])
//! is *graceful with a deadline*: the flag flips, the accept thread is
//! woken by a loopback connection and stops, workers finish the request
//! in flight (answering it with `Connection: close`) and drain, and
//! [`ServerHandle::join`] returns once every thread has exited — or
//! after [`ServerOptions::drain`], detaching whatever is still wedged
//! (`join` returns `false` in that case). Connections still queued but
//! never started are closed unserved — their clients see a clean EOF
//! and can retry elsewhere.

use crate::faults::{FaultPlan, FaultSite, FaultState};
use crate::http::{read_request, RequestError, Response};
use crate::service::{Control, Service};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection read timeout: a stalled peer cannot pin a worker
/// forever (the keep-alive loop closes the connection on expiry).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning for [`spawn_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOptions {
    /// Connection-handler threads (floored at 1).
    pub workers: usize,
    /// Maximum connections admitted but not yet picked up by a worker;
    /// beyond it the accept thread sheds with `503` + `Retry-After`
    /// (floored at 1).
    pub queue_depth: usize,
    /// How long [`ServerHandle::join`] waits for workers to drain after
    /// shutdown before detaching them.
    pub drain: Duration,
    /// Deterministic fault injection (tests/CI only; `None` in
    /// production costs one null check per site).
    pub faults: Option<FaultPlan>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
            queue_depth: 1024,
            drain: Duration::from_secs(5),
            faults: None,
        }
    }
}

/// A running server; dropping the handle does *not* stop the server —
/// call [`ServerHandle::shutdown`] or send `POST /shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    shed: Arc<AtomicU64>,
    drain: Duration,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually bound address (resolves `--port 0` to the ephemeral
    /// port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for in-process inspection in tests and the
    /// periodic snapshot writer).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Connections shed at the accept queue (503 before any worker).
    pub fn shed_connections(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Triggers graceful shutdown and waits for the drain; returns
    /// `true` when every thread exited within the drain deadline.
    pub fn shutdown(self) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        self.join()
    }

    /// Waits for the server to stop (after an external `/shutdown`).
    ///
    /// Blocks indefinitely while the server is simply alive; once
    /// shutdown is initiated the workers get [`ServerOptions::drain`]
    /// to finish their requests in flight. Returns `true` on a clean
    /// drain, `false` if any thread had to be detached (it dies with
    /// the process).
    pub fn join(mut self) -> bool {
        // The accept thread (pushed last) exits promptly once shutdown
        // is initiated; waiting on it without a deadline is "the server
        // is alive", not a drain.
        if let Some(accept) = self.threads.pop() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + self.drain;
        let mut clean = true;
        for t in self.threads {
            while !t.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if t.is_finished() {
                let _ = t.join();
            } else {
                clean = false; // detached: reclaimed at process exit
            }
        }
        clean
    }

    /// `true` once shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Binds `addr` and spawns the accept thread plus `workers` connection
/// handlers (floored at 1) with default admission and drain settings.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, service: Service, workers: usize) -> std::io::Result<ServerHandle> {
    spawn_with(
        addr,
        service,
        &ServerOptions {
            workers,
            ..ServerOptions::default()
        },
    )
}

/// Binds `addr` and spawns the accept thread plus the worker pool under
/// explicit [`ServerOptions`].
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_with(
    addr: &str,
    service: Service,
    opts: &ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let service = Arc::new(service);
    let shutdown = Arc::new(AtomicBool::new(false));
    let shed = Arc::new(AtomicU64::new(0));
    let queued = Arc::new(AtomicUsize::new(0));
    // Let `/stats` and `/metrics` read the accept-queue depth and the
    // queue-shed count without plumbing the handle into the service.
    service.attach_server_gauges(Arc::clone(&queued), Arc::clone(&shed));
    let workers = opts.workers.max(1);
    let queue_depth = opts.queue_depth.max(1);
    let faults = opts
        .faults
        .filter(|p| p.is_active())
        .map(|p| Arc::new(FaultState::new(p)));

    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = std::sync::mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));

    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let queued = Arc::clone(&queued);
        let faults = faults.clone();
        threads.push(std::thread::spawn(move || {
            loop {
                // Holding the lock only for the pop keeps workers
                // independent while serving. A sibling that panicked
                // mid-pop poisons the mutex; the receiver underneath is
                // still consistent, so recover rather than cascade.
                let stream = {
                    let queue = rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    let stream = queue.recv();
                    if stream.is_ok() {
                        queued.fetch_sub(1, Ordering::SeqCst);
                        if let Some(f) = &faults {
                            if f.fires(FaultSite::WorkerPanic) {
                                panic!("injected fault: worker panic while holding the queue lock");
                            }
                        }
                    }
                    stream
                };
                match stream {
                    Ok(stream) => {
                        if shutdown.load(Ordering::SeqCst) {
                            // Drain unserved connections on shutdown.
                            continue;
                        }
                        serve_connection(stream, &service, &shutdown, local, faults.as_deref());
                    }
                    Err(_) => return, // accept thread gone and queue empty
                }
            }
        }));
    }

    {
        let shutdown = Arc::clone(&shutdown);
        let shed = Arc::clone(&shed);
        let queued = Arc::clone(&queued);
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break; // the wake-up connection (or any later one)
                }
                match stream {
                    Ok(stream) => {
                        // Reserve a queue slot; on overflow shed the
                        // connection right here with an explicit 503
                        // instead of letting the backlog grow without
                        // bound.
                        if queued.fetch_add(1, Ordering::SeqCst) >= queue_depth {
                            queued.fetch_sub(1, Ordering::SeqCst);
                            shed.fetch_add(1, Ordering::Relaxed);
                            rvz_obs::counter!("rvz_shed_total", "cause" => "queue").inc();
                            shed_connection(stream);
                            continue;
                        }
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        // Transient accept failure; keep listening.
                    }
                }
            }
            // Dropping `tx` lets workers drain and exit.
        }));
    }

    Ok(ServerHandle {
        addr: local,
        service,
        shutdown,
        shed,
        drain: opts.drain,
        threads,
    })
}

/// Answers an over-admission connection with `503` + `Retry-After` and
/// closes it. Runs on the accept thread, so every I/O step is bounded
/// by a short timeout — a slow peer must not stall accepting.
fn shed_connection(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut resp = Response::error(503, "server overloaded: connection queue full");
    resp = resp.header("Retry-After", "1");
    resp.close = true;
    let mut stream = stream;
    if resp.write_to(&mut stream).is_err() {
        return;
    }
    // Lingering close: the client has (or is about to have) request
    // bytes in flight that nobody will read. Closing with unread data
    // in the receive buffer makes the kernel send RST, which can
    // destroy the 503 before the client reads it — so signal FIN,
    // then drain until the peer closes (bounded by the read timeout
    // and a hard deadline).
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 512];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut sink) {
        if n == 0 || Instant::now() >= deadline {
            break;
        }
    }
}

/// Runs one connection's keep-alive loop.
fn serve_connection(
    stream: TcpStream,
    service: &Service,
    shutdown: &AtomicBool,
    local: SocketAddr,
    faults: Option<&FaultState>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(RequestError::ConnectionClosed) => return,
            Err(RequestError::Io(_)) => return, // timeout or reset
            Err(RequestError::TooLarge(what)) => {
                let mut resp = Response::error(413, &format!("request {what} too large"));
                resp.close = true;
                let _ = resp.write_to(&mut writer);
                return;
            }
            Err(e @ RequestError::Malformed(_)) => {
                let mut resp = Response::error(400, &e.to_string());
                resp.close = true;
                let _ = resp.write_to(&mut writer);
                return;
            }
        };
        let client_close = request.wants_close();
        // Panic isolation: a handler panic costs this request a 500,
        // never the worker. The service holds no lock across `handle`
        // (its cache claims release on unwind), so the shared state
        // stays consistent and `AssertUnwindSafe` is sound.
        let handled =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.handle(&request)));
        let (mut response, control) = match handled {
            Ok(answer) => answer,
            Err(_) => {
                let mut resp = Response::error(500, "internal error: request handler panicked");
                resp.close = true;
                (resp, Control::Continue)
            }
        };
        let shutting_down = control == Control::Shutdown || shutdown.load(Ordering::SeqCst);
        response.close = response.close || client_close || shutting_down;
        if let Some(f) = faults {
            if f.fires(FaultSite::ConnReset) {
                // Injected transport failure: drop the connection with
                // the response unsent (the client sees a truncated
                // stream).
                return;
            }
        }
        if response.write_to(&mut writer).is_err() {
            return;
        }
        if control == Control::Shutdown {
            shutdown.store(true, Ordering::SeqCst);
            wake_accept(local);
        }
        if response.close {
            return;
        }
    }
}

/// Unblocks the accept loop after the shutdown flag flips.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}
