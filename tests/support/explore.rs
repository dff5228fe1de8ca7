//! A breadth-first search over every state a small model can reach.
//!
//! Shared by the lifecycle explorers (`crates/core/tests/stream_lifecycle.rs`
//! and the cache's `cache::lifecycle` tests), which include this file by
//! path; it is test code and compiles into no library. A model names its
//! start, the events enabled in a state with the state each leads to (or
//! the invariant the step broke), and what must hold where no event is
//! enabled. The search keeps a visited set of state keys and, for every
//! state found, the state it was found from and the event, so a failure is
//! reported as the events that lead to it from the start. Breadth first, the
//! first failure found is one of the shortest: every state one event
//! closer to the start was expanded before it.

use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// A model to explore.
pub trait Model {
    type State;
    /// What two states that behave alike have in common: the visited set
    /// holds keys.
    type Key: Hash + Eq;
    type Event: Clone + Debug;

    fn key(&self, state: &Self::State) -> Self::Key;

    /// Every event enabled in `state`, with the state it leads to, or why
    /// taking it broke an invariant.
    fn successors(&self, state: &Self::State) -> Vec<Step<Self>>;

    /// What must hold in a state with no enabled event.
    fn check_terminal(&self, state: &Self::State) -> Result<(), String>;
}

/// An enabled event, and the state it leads to or the invariant it broke.
pub type Step<M> = (<M as Model>::Event, Result<<M as Model>::State, String>);

/// States, transitions and terminal states explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    pub states: usize,
    pub transitions: usize,
    pub terminal: usize,
}

/// A broken invariant, and a shortest event sequence from the start that
/// breaks it.
#[derive(Debug)]
pub struct Failure<E> {
    pub why: String,
    pub trace: Vec<E>,
}

impl<E: Debug> std::fmt::Display for Failure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}\nafter {} events:", self.why, self.trace.len())?;
        for (i, ev) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>3}. {ev:?}", i + 1)?;
        }
        Ok(())
    }
}

/// Explore every state `model` reaches from `start`, breadth first.
pub fn search<M: Model>(model: &M, start: M::State) -> Result<Explored, Failure<M::Event>> {
    // For each state found: the state it was found from, and the event.
    let mut found: Vec<(usize, Option<M::Event>)> = vec![(0, None)];
    let mut visited = HashSet::from([model.key(&start)]);
    let mut queue = VecDeque::from([(start, 0usize)]);
    let (mut transitions, mut terminal) = (0, 0);
    let trace = |found: &[(usize, Option<M::Event>)], mut id: usize, last: Option<M::Event>| {
        let mut trace: Vec<M::Event> = last.into_iter().collect();
        while let (parent, Some(ev)) = &found[id] {
            trace.push(ev.clone());
            id = *parent;
        }
        trace.reverse();
        trace
    };
    while let Some((state, id)) = queue.pop_front() {
        let next = model.successors(&state);
        if next.is_empty() {
            terminal += 1;
            if let Err(why) = model.check_terminal(&state) {
                let trace = trace(&found, id, None);
                return Err(Failure { why, trace });
            }
        }
        for (ev, result) in next {
            transitions += 1;
            let succ = match result {
                Ok(succ) => succ,
                Err(why) => {
                    let trace = trace(&found, id, Some(ev));
                    return Err(Failure { why, trace });
                }
            };
            if visited.insert(model.key(&succ)) {
                found.push((id, Some(ev)));
                queue.push_back((succ, found.len() - 1));
            }
        }
    }
    Ok(Explored {
        states: visited.len(),
        transitions,
        terminal,
    })
}

/// [`search`], panicking with the failing trace.
pub fn explore<M: Model>(model: &M, start: M::State) -> Explored {
    search(model, start).unwrap_or_else(|failure| panic!("{failure}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter from 0 to `limit` in steps of 1 and 5; landing on `bad`
    /// breaks an invariant, and a terminal state must be odd when `odd`.
    struct Counter {
        limit: u32,
        bad: Option<u32>,
        odd: bool,
    }

    impl Model for Counter {
        type State = u32;
        type Key = u32;
        type Event = u32;

        fn key(&self, n: &u32) -> u32 {
            *n
        }

        fn successors(&self, &n: &u32) -> Vec<(u32, Result<u32, String>)> {
            [1, 5]
                .into_iter()
                .filter(|step| n + step <= self.limit)
                .map(|step| match n + step {
                    m if Some(m) == self.bad => (step, Err(format!("reached {m}"))),
                    m => (step, Ok(m)),
                })
                .collect()
        }

        fn check_terminal(&self, &n: &u32) -> Result<(), String> {
            match self.odd && n % 2 == 0 {
                true => Err(format!("stopped at even {n}")),
                false => Ok(()),
            }
        }
    }

    #[test]
    fn the_harness_counts_every_state_and_transition_once() {
        let counter = Counter {
            limit: 14,
            bad: None,
            odd: false,
        };
        // 0..=14; a step of 1 from 0..=13 and of 5 from 0..=9; 14 ends.
        let expected = Explored {
            states: 15,
            transitions: 24,
            terminal: 1,
        };
        assert_eq!(explore(&counter, 0), expected);
    }

    #[test]
    fn the_harness_reports_a_shortest_failing_trace() {
        // 12 = 5 + 5 + 1 + 1: four events, though the first event
        // enabled (a step of 1) leads there in twelve.
        let counter = Counter {
            limit: 14,
            bad: Some(12),
            odd: false,
        };
        let failure = search(&counter, 0).unwrap_err();
        assert_eq!(failure.why, "reached 12");
        assert_eq!(failure.trace.len(), 4, "{failure}");
        assert_eq!(failure.trace.iter().sum::<u32>(), 12);
        // A terminal state that breaks its rule: 14 = 5 + 5 + 1 + 1 + 1 + 1.
        let counter = Counter {
            limit: 14,
            bad: None,
            odd: true,
        };
        let failure = search(&counter, 0).unwrap_err();
        assert_eq!(failure.why, "stopped at even 14");
        assert_eq!(failure.trace.len(), 6, "{failure}");
        assert_eq!(failure.trace.iter().sum::<u32>(), 14);
    }
}
