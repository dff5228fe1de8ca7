//! `emlio-testbed` — the paper's evaluation, replayed in virtual time.
//!
//! The published experiments run one-epoch trainings of 150–4200 wall-clock
//! seconds on a three-node Chameleon deployment (Table 1). This crate
//! rebuilds that testbed as a model in virtual time: each loader is a line
//! of stages, and the epoch is timed by one recurrence over its batches:
//!
//! * [`nodes`] — the Table 1 node inventory with calibrated power envelopes
//!   and storage/NIC characteristics;
//! * [`workload`] — the three datasets × backbone combinations under test;
//! * [`regimes`] — the network distance classes (local, LAN 0.1 ms, emulated
//!   1/10/30 ms);
//! * [`loaders`] — pipeline-stage models of the three loaders. Stage
//!   structures mirror the real implementations in `emlio-core` and
//!   `emlio-baselines`; service times come from hand-set cost constants
//!   (serialize bandwidth, NIC, disk, backbone profiles; ROADMAP item 8);
//! * [`pipeline`] — the recurrence: when each batch leaves a line of
//!   stages;
//! * [`energy`] — busy time → joules integration using the same component
//!   power model the live `emlio-energymon` uses;
//! * [`experiment`] — one runner per figure (1, 5, 6, 7, 8, 9, 10, 11) plus
//!   ablation sweeps over EMLIO's knobs;
//! * [`paper`] — the published reference numbers, so every report prints
//!   *paper vs. reproduction* side by side;
//! * [`report`] — table/CSV rendering behind every `emlio figures` row.

pub mod energy;
pub mod experiment;
pub mod loaders;
pub mod nodes;
pub mod paper;
pub mod pipeline;
pub mod regimes;
pub mod report;
pub mod workload;

pub use experiment::{ExperimentRow, Scenario};
pub use loaders::LoaderKind;
pub use nodes::NodeSpec;
pub use regimes::Regime;
pub use workload::Workload;
