//! The serving stack under test, run in-process on loopback: `Service`
//! behind the reactor frontend, optionally two of them behind the router.
//! All knobs are the defaults `krsp-cli serve` and `krsp-cli route` use.

use krsp_service::{
    serve_ring_with_shutdown, serve_with_shutdown, MetricsSnapshot, RingReply, Router,
    RouterOptions, ServeOptions, Service, ServiceConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One `Service` served by the reactor frontend (`serve_with_shutdown`).
pub struct Replica {
    /// In-process handle on the served service (counters, epoch mirror).
    pub svc: Service,
    /// Loopback listen address.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Replica {
    /// Starts a default service on an ephemeral loopback port.
    pub fn start() -> std::io::Result<Replica> {
        let svc = Service::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let (svc, shutdown) = (svc.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                serve_with_shutdown(&svc, listener, shutdown, ServeOptions::default())
            })
        };
        Ok(Replica {
            svc,
            addr,
            shutdown,
            thread,
        })
    }

    /// Drains and joins the server.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("reactor server failed: {e}")),
            Err(_) => Err("reactor server panicked".into()),
        }
    }
}

/// The router (`serve_ring_with_shutdown`) in front of reactor replicas.
pub struct Ring {
    /// In-process handle on the serving router (`handle_line`, counters).
    pub router: Router,
    /// The router's loopback listen address.
    pub addr: SocketAddr,
    /// The replicas, in ring order.
    pub replicas: Vec<Replica>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Ring {
    /// Starts `replicas` reactor replicas and a default router over them.
    pub fn start(replicas: usize) -> std::io::Result<Ring> {
        let replicas = (0..replicas)
            .map(|_| Replica::start())
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = Router::new(RouterOptions {
            replicas: replicas.iter().map(|r| r.addr.to_string()).collect(),
            ..RouterOptions::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let (router, shutdown) = (router.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || serve_ring_with_shutdown(&router, listener, shutdown))
        };
        Ok(Ring {
            router,
            addr,
            replicas,
            shutdown,
            thread,
        })
    }

    /// Stops the router, then the replicas behind it.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let routed = match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("router failed: {e}")),
            Err(_) => Err("router panicked".into()),
        };
        // The router's pooled upstream connections close with it.
        drop(self.router);
        let mut out = routed;
        for replica in self.replicas {
            let stopped = replica.stop();
            out = out.and(stopped);
        }
        out
    }
}

/// What the client talks to.
pub enum Stack {
    /// `hit_wire`, `miss_wire`: the reactor alone.
    Direct(Replica),
    /// `ring_rolling`: the router over two replicas.
    Ring(Ring),
}

impl Stack {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Stack::Direct(r) => r.addr,
            Stack::Ring(ring) => ring.addr,
        }
    }

    /// Every service on the path (the replicas behind a ring).
    pub fn services(&self) -> Vec<&Service> {
        match self {
            Stack::Direct(r) => vec![&r.svc],
            Stack::Ring(ring) => ring.replicas.iter().map(|r| &r.svc).collect(),
        }
    }

    /// The router, when there is one.
    pub fn router(&self) -> Option<&Router> {
        match self {
            Stack::Direct(_) => None,
            Stack::Ring(ring) => Some(&ring.router),
        }
    }

    /// Counters summed over every service on the path, and the router's.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for svc in self.services() {
            c.add(&svc.metrics());
        }
        if let Some(router) = self.router() {
            c.router = Some(router.ring_reply());
        }
        c
    }

    /// Drains and joins everything.
    pub fn stop(self) -> Result<(), String> {
        match self {
            Stack::Direct(r) => r.stop(),
            Stack::Ring(ring) => ring.stop(),
        }
    }
}

/// Server-side counters at one instant, for before/after deltas.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub cache_misses: u64,
    pub warm_starts: u64,
    pub rejected: u64,
    pub read_timeouts: u64,
    pub pipelined_peak: u64,
    pub router: Option<RingReply>,
}

impl Counters {
    fn add(&mut self, m: &MetricsSnapshot) {
        self.cache_misses += m.cache_misses;
        self.warm_starts += m.warm_starts;
        self.rejected +=
            m.rejected_queue_full + m.rejected_expired + m.rejected_shutdown + m.quarantined;
        self.read_timeouts += m.frontend.read_timeouts;
        self.pipelined_peak = self.pipelined_peak.max(m.frontend.pipelined_peak);
    }
}

/// One client connection: a closed loop with one request in flight.
///
/// Each request is one `write` and the socket has `TCP_NODELAY`, so any
/// Nagle/delayed-ACK stall this client sees is the server side's.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    /// Connects with generous I/O timeouts so a wedged server fails the
    /// run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends `line` (which ends in `\n`) and returns the reply line
    /// without its newline.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end_matches(['\r', '\n']))
    }
}
