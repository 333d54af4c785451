//! Load generation over the wire: a closed loop on the product's
//! `PipelinedClient`, and the benchmark's own open-loop connection (a
//! sender on a fixed schedule, a receiver that never makes it wait).

use crate::harness::{ms, Schedule};
use insightnotes_client::PipelinedClient;
use insightnotes_common::wire::{self, Request, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Whether `response` is the success frame `request` asks for.
pub fn answers(request: &Request, response: &Response) -> bool {
    matches!(
        (request, response),
        (Request::Query { .. }, Response::Rows(_))
            | (Request::Annotate { .. }, Response::Ack { .. })
            | (Request::ZoomIn { .. }, Response::Zoomed(_))
    )
}

pub struct LoopResult {
    /// Latency in ms of each request, in the order of the request slice;
    /// `None` for one that was not answered correctly.
    pub latency_ms: Vec<Option<f64>>,
    /// When each correct reply arrived, in seconds since `since`, ascending.
    pub done_at_s: Vec<f64>,
}

impl LoopResult {
    pub fn failed(&self) -> u64 {
        self.latency_ms.iter().filter(|l| l.is_none()).count() as u64
    }
}

/// Closed loop: one connection keeps up to `depth` requests in flight and
/// sends the next only when a reply frees a slot.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    depth: usize,
    since: Instant,
) -> LoopResult {
    let mut client = PipelinedClient::connect(addr).expect("connect pipelined client");
    let mut sent_at: Vec<Instant> = Vec::with_capacity(requests.len());
    let mut out = LoopResult {
        latency_ms: vec![None; requests.len()],
        done_at_s: Vec::with_capacity(requests.len()),
    };
    let reap = |client: &mut PipelinedClient, sent_at: &[Instant], out: &mut LoopResult| {
        let (seq, response) = client.recv_any().expect("receive reply");
        // Sequence ids count up from 0, so they index `requests`.
        let index = seq as usize;
        if answers(&requests[index], &response) {
            out.latency_ms[index] = Some(ms(sent_at[index]));
            out.done_at_s.push(since.elapsed().as_secs_f64());
        }
    };
    for request in requests {
        while client.in_flight() >= depth {
            reap(&mut client, &sent_at, &mut out);
        }
        client.submit(request).expect("submit request");
        sent_at.push(Instant::now());
    }
    while client.in_flight() > 0 {
        reap(&mut client, &sent_at, &mut out);
    }
    out
}

/// Runs one closed loop per request slice, each on its own thread and
/// connection.
pub fn closed_loops(addr: SocketAddr, streams: &[&[Request]], depth: usize) -> Vec<LoopResult> {
    let since = Instant::now();
    std::thread::scope(|scope| {
        let loops: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(move || closed_loop(addr, stream, depth, since)))
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("closed-loop thread"))
            .collect()
    })
}

/// All loops' completion times, ascending.
pub fn merged_done_at(results: &[LoopResult]) -> Vec<f64> {
    let mut all: Vec<f64> = results
        .iter()
        .flat_map(|r| r.done_at_s.iter().copied())
        .collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    all
}

/// All loops' latencies, interleaved so that windows of consecutive
/// entries cover the same stretch of the run on every connection.
pub fn interleaved_latencies(results: &[LoopResult]) -> Vec<Option<f64>> {
    let longest = results
        .iter()
        .map(|r| r.latency_ms.len())
        .max()
        .unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            results
                .iter()
                .filter_map(move |r| r.latency_ms.get(i).copied())
        })
        .collect()
}

/// Open loop on one connection: `requests[slot]` for each of `slots` is
/// written when `schedule` says it is due, whatever replies are still
/// outstanding; a receiver thread passes each reply to `on_reply` with
/// its slot and arrival time. Returns how late each send ran, in ms.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Request],
    slots: &[usize],
    schedule: Schedule,
    mut on_reply: impl FnMut(usize, Response, Instant) + Send,
) -> Vec<f64> {
    let mut stream = TcpStream::connect(addr).expect("connect open-loop sender");
    stream.set_nodelay(true).expect("set nodelay");
    let mut replies = BufReader::new(stream.try_clone().expect("clone stream for the receiver"));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..slots.len() {
                match wire::read_frame_seq::<Response>(&mut replies) {
                    Ok(Some((seq, response))) => on_reply(seq as usize, response, Instant::now()),
                    // A dead connection answers nothing more; the caller
                    // counts the missing replies as failures.
                    _ => break,
                }
            }
        });
        slots
            .iter()
            .map(|&slot| {
                let lag = schedule.wait(slot);
                wire::write_frame_seq(&mut stream, slot as u64, &requests[slot])
                    .expect("send on schedule");
                lag
            })
            .collect()
    })
}

/// Splits slots `0..n` round-robin over `senders` connections.
pub fn round_robin(n: usize, senders: usize) -> Vec<Vec<usize>> {
    (0..senders)
        .map(|s| (s..n).step_by(senders).collect())
        .collect()
}
