//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate. Only the `channel` module is provided — a multi-producer,
//! multi-consumer channel over `Mutex` + `Condvar` with the crossbeam API
//! shape, cut to what the workspace calls: `bounded` and `never`, a blocking
//! `send`, `recv` / `try_recv` / `recv_timeout` / `len` on cloneable
//! `Receiver`s, and disconnect semantics on either side.

pub mod channel;
