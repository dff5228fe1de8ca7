//! The stream lifecycle, explored state by state.
//!
//! One daemon's two send workers each stream their batches to one PULL
//! socket, striped over S ∈ {1, 2} connections, over up to two
//! incarnations: a kill may come after any send, and the restarted
//! incarnation sends what the first did not. The receiver may be stopped
//! at any point. The two rules under test are the real ones: the sender's,
//! [`ends_stream`] (what `ChaosController::end_stream` decides), and the
//! socket's, [`StreamEnds`], driven as `pull.rs` drives it. What lies
//! between them is modelled: each connection is FIFO, a socket connects
//! all its connections before it sends, the accept thread takes
//! connections in the order they connected, a reader reads its
//! connection's frames, marker and EOF in order, and a reader whose
//! connection has nothing more to read and is still open may find it quiet.
//!
//! Every order of the ~30 events of a run is far too many to walk (about
//! 10²⁶), but they reach far fewer states, so the search is over states,
//! with a visited set. In every reachable state:
//!
//! * the queue has ended iff every stream ended exactly once (all of its
//!   ending incarnation's markers read), or on stop;
//! * no frame on a connection read before the end is dropped, nor is one
//!   refused with its connection, unless the socket was stopped; none is
//!   delivered twice;
//! * a killed incarnation never ends its stream, and a stream is ended by
//!   one incarnation only;
//! * a duplicate marker (any from an incarnation other than the one that
//!   ended the stream) is refused, never counted, and every other marker is
//!   counted;
//! * every state with no enabled event has the queue ended, every
//!   connection closed and, unless stopped, every batch delivered once.
//!
//! Each search prints and pins the states and transitions it explored. The
//! search is the shared breadth-first harness, so a failure prints a
//! shortest sequence of events that leads to it.

#[path = "../../../tests/support/explore.rs"]
mod explore;

use emlio_core::chaos::ends_stream;
use emlio_zmq::stream_end::{Marker, StreamEnds};
use explore::Explored;
use std::collections::{BTreeSet, VecDeque};

const WORKERS: usize = 2;
const INCARNATIONS: u8 = 2;

/// The size of one search.
#[derive(Debug, Clone, Copy)]
struct Model {
    /// Connections each worker's socket stripes over.
    connections: u32,
    /// Batches each worker sends.
    batches: u8,
}

/// What a sender wrote on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Item {
    Frame(u8),
    Marker,
}

/// Where a connection is on the receive side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Reader {
    /// Connected; the accept thread has not taken it yet.
    Queued,
    Reading,
    /// Closed unread at accept.
    Refused,
    Closed,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Conn {
    worker: usize,
    incarnation: u8,
    /// Written and not yet read, in order.
    unread: VecDeque<Item>,
    /// The sender has closed it: EOF follows `unread`.
    eof: bool,
    reader: Reader,
}

/// A send worker of the current incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Its socket is yet to connect.
    Starting,
    Sending,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    incarnation: u8,
    killed: bool,
    /// `ChaosController`'s workers whose stream some incarnation ended.
    ended: BTreeSet<usize>,
    /// Batches each worker has sent, over every incarnation: the send
    /// ledger (a worker sends its batches in order and skips those sent).
    sent: [u8; WORKERS],
    phase: [Phase; WORKERS],
    /// Every connection, in the order it connected.
    conns: Vec<Conn>,
    /// Connections the accept thread has taken: a prefix of `conns`.
    accepted: usize,
    ends: StreamEnds,
    stopped: bool,
    /// Each worker's batches that reached the queue, one bit each.
    delivered: [u8; WORKERS],
    /// The incarnation that ended each worker's stream.
    ending: [Option<u8>; WORKERS],
    /// Markers of that incarnation read.
    genuine_read: [u32; WORKERS],
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Connect(usize),
    Send {
        worker: usize,
        conn: usize,
        kill: bool,
    },
    Finish(usize),
    Restart,
    Accept,
    Read(usize),
    Stop,
}

fn origin(worker: usize) -> String {
    format!("d0/t{worker}")
}

impl State {
    fn initial() -> State {
        State {
            incarnation: 0,
            killed: false,
            ended: BTreeSet::new(),
            sent: [0; WORKERS],
            phase: [Phase::Starting; WORKERS],
            conns: Vec::new(),
            accepted: 0,
            ends: StreamEnds::new(WORKERS as u32),
            stopped: false,
            delivered: [0; WORKERS],
            ending: [None; WORKERS],
            genuine_read: [0; WORKERS],
        }
    }

    /// The current incarnation's connections of `worker`, by index.
    fn conns_of(&self, worker: usize) -> Vec<usize> {
        (0..self.conns.len())
            .filter(|&i| {
                let c = &self.conns[i];
                c.worker == worker && c.incarnation == self.incarnation
            })
            .collect()
    }

    fn all_delivered(&self, m: Model) -> bool {
        self.delivered.iter().all(|&d| d == (1 << m.batches) - 1)
    }

    /// The reader of connection `i` stops reading it.
    fn close(&mut self, i: usize) -> Result<(), String> {
        self.ends.closed();
        let conn = &mut self.conns[i];
        conn.reader = Reader::Closed;
        let frames = conn.unread.iter().any(|it| matches!(it, Item::Frame(_)));
        if frames && !self.stopped {
            return Err(format!(
                "connection {i}, read before the end, closed with frames unread"
            ));
        }
        Ok(())
    }

    /// Every event enabled here, with the state it leads to.
    fn successors(&self, m: Model) -> Vec<(Event, Result<State, String>)> {
        let mut out = Vec::new();
        if self.stopped {
            return out;
        }
        let mut go = |ev: Event| {
            let mut next = self.clone();
            let result = next.apply(ev, m).map(|()| next);
            out.push((ev, result));
        };
        for w in 0..WORKERS {
            match self.phase[w] {
                Phase::Starting => go(Event::Connect(w)),
                Phase::Sending => {
                    if !self.killed && self.sent[w] < m.batches {
                        for conn in 0..m.connections as usize {
                            go(Event::Send {
                                worker: w,
                                conn,
                                kill: false,
                            });
                            if self.incarnation + 1 < INCARNATIONS {
                                go(Event::Send {
                                    worker: w,
                                    conn,
                                    kill: true,
                                });
                            }
                        }
                    } else {
                        go(Event::Finish(w));
                    }
                }
                Phase::Done => {}
            }
        }
        if self.killed && self.phase.iter().all(|&p| p == Phase::Done) {
            go(Event::Restart);
        }
        if self.accepted < self.conns.len() {
            go(Event::Accept);
        }
        for (i, conn) in self.conns.iter().enumerate() {
            let quiet = conn.unread.is_empty() && !conn.eof;
            if conn.reader == Reader::Reading && !(quiet && self.ends.reads_on(|| true)) {
                go(Event::Read(i));
            }
        }
        go(Event::Stop);
        out
    }

    fn apply(&mut self, ev: Event, m: Model) -> Result<(), String> {
        match ev {
            // A socket connects all its connections before it sends, so
            // they are one step, and adjacent in the accept order.
            Event::Connect(w) => {
                for _ in 0..m.connections {
                    self.conns.push(Conn {
                        worker: w,
                        incarnation: self.incarnation,
                        unread: VecDeque::new(),
                        eof: false,
                        reader: Reader::Queued,
                    });
                }
                self.phase[w] = Phase::Sending;
            }
            Event::Send { worker, conn, kill } => {
                let i = self.conns_of(worker)[conn];
                let batch = self.sent[worker];
                self.sent[worker] += 1;
                self.killed |= kill;
                let conn = &mut self.conns[i];
                conn.unread.push_back(Item::Frame(batch));
                if matches!(conn.reader, Reader::Refused | Reader::Closed) && !self.stopped {
                    return Err(format!(
                        "batch {batch} of worker {worker} sent to closed connection {i}"
                    ));
                }
            }
            Event::Finish(w) => {
                let ends = ends_stream(self.killed, &mut self.ended, w);
                if ends {
                    if self.killed {
                        return Err(format!(
                            "killed incarnation {} ended stream {w}",
                            self.incarnation
                        ));
                    }
                    if self.sent[w] < m.batches {
                        return Err(format!("stream {w} ended with batches unsent"));
                    }
                    if let Some(first) = self.ending[w] {
                        return Err(format!(
                            "stream {w} ended by incarnation {first} and again by {}",
                            self.incarnation
                        ));
                    }
                    self.ending[w] = Some(self.incarnation);
                }
                for i in self.conns_of(w) {
                    let conn = &mut self.conns[i];
                    if ends {
                        conn.unread.push_back(Item::Marker);
                    }
                    conn.eof = true;
                }
                self.phase[w] = Phase::Done;
            }
            Event::Restart => {
                self.incarnation += 1;
                self.killed = false;
                self.phase = [Phase::Starting; WORKERS];
            }
            Event::Accept => {
                let i = self.accepted;
                self.accepted += 1;
                if self.ends.accept() {
                    self.conns[i].reader = Reader::Reading;
                } else {
                    self.conns[i].reader = Reader::Refused;
                    let frames = self.conns[i]
                        .unread
                        .iter()
                        .any(|it| matches!(it, Item::Frame(_)));
                    if frames && !self.stopped {
                        return Err(format!("connection {i} refused with frames on it"));
                    }
                }
            }
            Event::Read(i) => {
                if !self.ends.reads_on(|| false) {
                    return self.close(i);
                }
                let conn = &mut self.conns[i];
                let (w, incarnation) = (conn.worker, conn.incarnation);
                match conn.unread.pop_front() {
                    Some(Item::Frame(b)) => {
                        if self.delivered[w] & 1 << b != 0 {
                            return Err(format!("batch {b} of worker {w} delivered twice"));
                        }
                        self.delivered[w] |= 1 << b;
                    }
                    Some(Item::Marker) => {
                        let genuine = self.ending[w] == Some(incarnation);
                        let marker = self.ends.marker(&origin(w), m.connections);
                        let counted = !matches!(marker, Marker::Refused(_));
                        if counted != genuine {
                            return Err(format!(
                                "marker of stream {w} from incarnation {incarnation} \
                                 (ended by {:?}): {marker:?}",
                                self.ending[w]
                            ));
                        }
                        self.genuine_read[w] += u32::from(genuine);
                    }
                    // EOF, or quiet after the end.
                    None => return self.close(i),
                }
            }
            // After a stop the socket's answers no longer depend on what
            // the senders do (every accept is refused, no reader reads
            // on), so a stop is followed to the queue's end and no further:
            // every reader returns, and what is queued to be accepted is
            // refused.
            Event::Stop => {
                self.stopped = true;
                self.ends.stop();
                for i in 0..self.conns.len() {
                    if self.conns[i].reader == Reader::Reading {
                        if self.ends.reads_on(|| false) {
                            return Err("a reader reads on after a stop".into());
                        }
                        self.close(i)?;
                    }
                }
                while self.accepted < self.conns.len() {
                    if self.ends.accept() {
                        return Err("a connection accepted after a stop".into());
                    }
                    self.conns[self.accepted].reader = Reader::Refused;
                    self.accepted += 1;
                }
            }
        }
        self.check(m)
    }

    /// What must hold in every reachable state.
    fn check(&self, m: Model) -> Result<(), String> {
        let reading = self.conns.iter().filter(|c| c.reader == Reader::Reading);
        if self.ends.open() as usize != reading.count() {
            return Err(format!("{} open connections counted", self.ends.open()));
        }
        let ended = (0..WORKERS)
            .filter(|&w| self.genuine_read[w] == m.connections)
            .count();
        if self.ends.streams_ended() as usize != ended {
            return Err(format!(
                "{} streams ended, {ended} really",
                self.ends.streams_ended()
            ));
        }
        if self.ends.is_ended() != (self.stopped || ended == WORKERS) {
            return Err(format!(
                "queue ended: {}, with {ended} streams ended and stopped: {}",
                self.ends.is_ended(),
                self.stopped
            ));
        }
        // The consumer sees the queue's end once its sender slot is empty
        // and no reader holds a clone of it.
        let consumer_sees_end = self.ends.is_ended() && self.ends.open() == 0;
        if consumer_sees_end && !self.stopped && !self.all_delivered(m) {
            return Err(format!(
                "the queue ended with {:?} delivered",
                self.delivered
            ));
        }
        Ok(())
    }

    /// What must hold where no event is enabled.
    fn check_terminal(&self, m: Model) -> Result<(), String> {
        if !self.ends.is_ended() || self.ends.open() != 0 {
            return Err("stuck with the queue not ended".into());
        }
        let all_closed = self
            .conns
            .iter()
            .all(|c| matches!(c.reader, Reader::Refused | Reader::Closed));
        if !all_closed {
            return Err("stuck with a connection unread".into());
        }
        if !self.stopped && (self.ending.contains(&None) || !self.all_delivered(m)) {
            return Err(format!(
                "stuck with {:?} delivered, streams ended by {:?}",
                self.delivered, self.ending
            ));
        }
        Ok(())
    }
}

impl explore::Model for Model {
    type State = State;
    type Key = State;
    type Event = Event;

    fn key(&self, state: &State) -> State {
        state.clone()
    }

    fn successors(&self, state: &State) -> Vec<(Event, Result<State, String>)> {
        state.successors(*self)
    }

    fn check_terminal(&self, state: &State) -> Result<(), String> {
        state.check_terminal(*self)
    }
}

/// Explore every state reachable in the model `m`,
/// failing with the events that lead to the first violation.
fn explore(m: Model) -> Explored {
    let explored = explore::explore(&m, State::initial());
    println!("{m:?}: {explored:?}");
    explored
}

/// Two batches a worker: a kill may leave its second to the restart.
#[test]
fn every_state_of_one_connection_streams_keeps_the_end_rule() {
    let explored = explore(Model {
        connections: 1,
        batches: 2,
    });
    assert_eq!(
        explored,
        Explored {
            states: 37_378,
            transitions: 115_589,
            terminal: 11_587
        }
    );
}

/// One batch a worker, on either connection. Striping is what this search
/// is for; a second batch per worker is the one-connection search's.
#[test]
fn every_state_of_two_connection_streams_keeps_the_end_rule() {
    let explored = explore(Model {
        connections: 2,
        batches: 1,
    });
    assert_eq!(
        explored,
        Explored {
            states: 257_294,
            transitions: 1_454_815,
            terminal: 19_371
        }
    );
}
