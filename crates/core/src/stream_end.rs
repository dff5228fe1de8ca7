//! The rule that ends a receive queue, as one pure type: no I/O, no timing.
//!
//! A receiver expects some number of streams, one per daemon send worker,
//! each named by its origin. A worker's socket may stripe over several
//! connections, and it ends *each* of them with the same end-of-stream
//! marker, which says how many connections the stream went over. So:
//!
//! * a stream has ended once its origin's markers number its `connections`;
//! * the queue ends at the marker that ends the last expected stream;
//! * a marker that would count twice is refused: one beyond its origin's
//!   `connections`, or one that disagrees with the origin's first marker on
//!   how many there are. A refused marker ends nothing.
//!
//! Each connection is FIFO and the marker is its last frame, so the marker
//! that ends a stream is read only after every frame of every one of its
//! connections. The queue therefore ends after every expected frame has
//! been read, whichever connection the PULL socket's accept thread took
//! last. Counting markers as one plain total would not: the first
//! connection's marker of a two-connection stream would count as a whole
//! stream, and a sibling connection accepted after the end is never read.

use std::collections::HashMap;

/// Markers one origin has sent so far.
#[derive(Debug, Clone, Copy)]
struct Markers {
    /// Connections its first marker said the stream went over.
    connections: u32,
    /// Markers counted.
    seen: u32,
}

/// What one end-of-stream marker did ([`StreamEnds::marker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Marker {
    /// Counted; its stream still has connections to end.
    Counted,
    /// Its stream has ended, but not the last expected one (or the queue
    /// had already ended).
    StreamEnded,
    /// The last expected stream has ended: the queue ends.
    QueueEnded,
    /// Refused: it ends nothing.
    Refused(Refusal),
}

/// Why a marker was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The origin has already sent as many markers as it has connections.
    Extra {
        /// The origin's connections.
        connections: u32,
    },
    /// The origin's first marker said a different number of connections.
    Disagrees {
        /// What the origin's first marker said.
        first: u32,
        /// What this one said.
        said: u32,
    },
}

/// Per-origin end-of-stream markers against the streams a receiver expects.
#[derive(Debug, Clone)]
pub struct StreamEnds {
    expected: u32,
    ended: u32,
    origins: HashMap<String, Markers>,
}

impl StreamEnds {
    /// Expect `expected` streams. With none expected the queue has ended
    /// already.
    pub fn new(expected: u32) -> StreamEnds {
        StreamEnds {
            expected,
            ended: 0,
            origins: HashMap::new(),
        }
    }

    /// Count one marker from `origin`, which says its stream went over
    /// `connections` connections.
    pub fn marker(&mut self, origin: &str, connections: u32) -> Marker {
        let markers = self.origins.entry(origin.to_owned()).or_insert(Markers {
            connections,
            seen: 0,
        });
        if markers.connections != connections {
            return Marker::Refused(Refusal::Disagrees {
                first: markers.connections,
                said: connections,
            });
        }
        if markers.seen == markers.connections {
            return Marker::Refused(Refusal::Extra { connections });
        }
        markers.seen += 1;
        if markers.seen < markers.connections {
            return Marker::Counted;
        }
        self.ended += 1;
        if self.ended == self.expected {
            Marker::QueueEnded
        } else {
            Marker::StreamEnded
        }
    }

    /// Streams whose every connection has sent its marker.
    pub fn streams_ended(&self) -> u32 {
        self.ended
    }

    /// Whether every expected stream has ended.
    pub fn is_ended(&self) -> bool {
        self.ended >= self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of a connection: a frame, then its end-of-stream marker.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Frame,
        Marker,
    }

    const STREAMS: usize = 2;
    const CONNECTIONS: usize = 2;
    /// Each connection's events, in the order its sender wrote them.
    const PER_CONNECTION: [Ev; 2] = [Ev::Frame, Ev::Marker];

    /// Every interleaving of the connections' event sequences that keeps
    /// each connection's own order: `(stream, event)` per step.
    fn interleavings() -> Vec<Vec<(usize, Ev)>> {
        fn walk(
            next: &mut [usize; STREAMS * CONNECTIONS],
            order: &mut Vec<(usize, Ev)>,
            out: &mut Vec<Vec<(usize, Ev)>>,
        ) {
            if order.len() == STREAMS * CONNECTIONS * PER_CONNECTION.len() {
                out.push(order.clone());
                return;
            }
            for conn in 0..next.len() {
                if next[conn] == PER_CONNECTION.len() {
                    continue;
                }
                order.push((conn / CONNECTIONS, PER_CONNECTION[next[conn]]));
                next[conn] += 1;
                walk(next, order, out);
                next[conn] -= 1;
                order.pop();
            }
        }
        let mut out = Vec::new();
        walk(&mut [0; STREAMS * CONNECTIONS], &mut Vec::new(), &mut out);
        out
    }

    fn origin(stream: usize) -> String {
        format!("d0/t{stream}")
    }

    #[test]
    fn every_interleaving_of_two_striped_streams_ends_at_the_last_marker() {
        let orders = interleavings();
        // 8 events, each connection's two in a fixed order: 8! / 2^4.
        assert_eq!(orders.len(), 2_520);
        for order in &orders {
            let mut ends = StreamEnds::new(STREAMS as u32);
            let last_marker = order.iter().rposition(|(_, ev)| *ev == Ev::Marker);
            let mut ended_at = None;
            let mut delivered = 0;
            for (step, &(stream, ev)) in order.iter().enumerate() {
                match ev {
                    // A frame read after the queue ended would be lost to a
                    // connection accepted too late.
                    Ev::Frame => {
                        assert!(ended_at.is_none(), "frame after the end: {order:?}");
                        delivered += 1;
                    }
                    Ev::Marker => {
                        let m = ends.marker(&origin(stream), CONNECTIONS as u32);
                        assert!(!matches!(m, Marker::Refused(_)), "{m:?} in {order:?}");
                        if m == Marker::QueueEnded {
                            assert_eq!(ended_at, None, "ended twice: {order:?}");
                            ended_at = Some(step);
                        }
                    }
                }
            }
            assert_eq!(ended_at, last_marker, "{order:?}");
            assert_eq!(delivered, STREAMS * CONNECTIONS, "{order:?}");
            assert!(ends.is_ended());
            assert_eq!(ends.streams_ended(), STREAMS as u32);

            // A marker beyond a stream's connections, or one that
            // disagrees on how many there are, is refused and ends nothing
            // more.
            let n = CONNECTIONS as u32;
            assert_eq!(
                ends.marker(&origin(0), n),
                Marker::Refused(Refusal::Extra { connections: n })
            );
            assert_eq!(
                ends.marker(&origin(1), n + 1),
                Marker::Refused(Refusal::Disagrees {
                    first: n,
                    said: n + 1
                })
            );
            assert_eq!(ends.streams_ended(), STREAMS as u32);
        }
    }

    #[test]
    fn a_third_marker_of_a_two_connection_stream_ends_nothing() {
        let mut ends = StreamEnds::new(2);
        assert_eq!(ends.marker("a", 2), Marker::Counted);
        assert_eq!(ends.marker("a", 2), Marker::StreamEnded);
        assert_eq!(
            ends.marker("a", 2),
            Marker::Refused(Refusal::Extra { connections: 2 })
        );
        assert!(!ends.is_ended(), "a duplicate marker ended the queue");
        assert_eq!(ends.marker("b", 1), Marker::QueueEnded);
    }

    #[test]
    fn markers_that_disagree_on_connections_end_nothing() {
        let mut ends = StreamEnds::new(1);
        assert_eq!(ends.marker("a", 2), Marker::Counted);
        assert_eq!(
            ends.marker("a", 1),
            Marker::Refused(Refusal::Disagrees { first: 2, said: 1 })
        );
        assert_eq!(
            ends.marker("a", 3),
            Marker::Refused(Refusal::Disagrees { first: 2, said: 3 })
        );
        assert!(!ends.is_ended());
        assert_eq!(ends.marker("a", 2), Marker::QueueEnded);
    }

    #[test]
    fn streams_ending_after_the_queue_do_not_end_it_again() {
        let mut ends = StreamEnds::new(1);
        assert_eq!(ends.marker("a", 1), Marker::QueueEnded);
        assert_eq!(ends.marker("b", 1), Marker::StreamEnded);
        assert_eq!(ends.streams_ended(), 2);
        assert!(StreamEnds::new(0).is_ended());
    }
}
