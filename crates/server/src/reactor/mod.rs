//! Readiness-based networking for `insightd`: a hand-rolled epoll
//! reactor replacing thread-per-connection.
//!
//! Layout:
//! - `epoll` — the SAFETY-documented syscall shim (epoll, eventfd,
//!   `RLIMIT_NOFILE`). The only `unsafe` in the reactor lives here.
//! - `conn` — per-connection state machine: frame reassembly,
//!   oversized-frame recovery, buffered writes with backpressure
//!   accounting, progress-based deadline state.
//! - `timer` — coarse hashed wheel enforcing deadlines that
//!   `set_read_timeout`/`set_write_timeout` silently stopped providing
//!   the moment sockets went nonblocking.
//! - `event_loop` — the worker: readiness dispatch, pipelined request
//!   handling, parked-request retry, shutdown drain.
//!
//! `Reactor` glues it together: N workers (one epoll set + one thread
//! each), round-robin connection placement from the accept loop, and an
//! eventfd per worker so off-loop producers (committers, replica
//! feeders) can hand results back without the loop polling for them.

pub(crate) mod conn;
pub(crate) mod epoll;
pub(crate) mod event_loop;
pub(crate) mod timer;

pub(crate) use conn::{ConnShared, HIGH_WATERMARK};
pub use epoll::raise_fd_limit;
pub(crate) use event_loop::{Action, Ops, ReplyTo};

use epoll::{Epoll, Interest, WakeFd};
use event_loop::{Msg, Worker, WAKE_TOKEN};
use insightnotes_common::{Error, Result};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

struct WorkerSlot {
    tx: mpsc::Sender<Msg>,
    wake: Arc<WakeFd>,
    thread: Option<JoinHandle<()>>,
}

/// A running fleet of reactor workers.
pub(crate) struct Reactor {
    workers: Vec<WorkerSlot>,
    next: usize,
}

impl Reactor {
    /// Spawns `n` worker event loops (at least one) dispatching into
    /// `ops`.
    pub(crate) fn start(n: usize, ops: Arc<dyn Ops>) -> Result<Self> {
        let n = n.max(1);
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = mpsc::channel();
            let wake = Arc::new(WakeFd::new()?);
            let epoll = Epoll::new()?;
            epoll.add(
                wake.raw(),
                WAKE_TOKEN,
                Interest {
                    read: true,
                    write: false,
                    rdhup: false,
                },
            )?;
            let worker = Worker::new(epoll, Arc::clone(&wake), rx, tx.clone(), Arc::clone(&ops));
            let thread = std::thread::Builder::new()
                .name(format!("reactor-{i}"))
                .spawn(move || worker.run())
                .map_err(Error::Io)?;
            workers.push(WorkerSlot {
                tx,
                wake,
                thread: Some(thread),
            });
        }
        Ok(Self { workers, next: 0 })
    }

    /// Hands a freshly accepted connection to the next worker
    /// (round-robin). Returns false if the worker is gone — the caller
    /// should release the connection slot.
    pub(crate) fn assign(&mut self, stream: TcpStream) -> bool {
        let len = self.workers.len();
        if len == 0 {
            return false;
        }
        let Some(slot) = self.workers.get(self.next % len) else {
            return false;
        };
        self.next = self.next.wrapping_add(1);
        if slot.tx.send(Msg::Accept(stream)).is_ok() {
            slot.wake.wake();
            true
        } else {
            false
        }
    }

    /// Nudges every worker (used when the shutdown flag flips so they
    /// notice without waiting out a poll interval).
    pub(crate) fn wake_all(&self) {
        for slot in &self.workers {
            slot.wake.wake();
        }
    }

    /// Wakes and joins every worker; each drains its connections first
    /// (bounded by the request timeout).
    pub(crate) fn join(mut self) {
        self.wake_all();
        for slot in &mut self.workers {
            if let Some(t) = slot.thread.take() {
                let _ = t.join();
            }
        }
    }
}
