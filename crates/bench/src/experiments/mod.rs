//! One module per experiment in the evaluation (DESIGN.md §4).

pub mod e1_poll_ceiling;
pub mod e2_traffic;
pub mod e3_tables;
pub mod e4_rpc_crossover;
pub mod e5_health;
pub mod e6_views;
pub mod e7_micro;
pub mod e8_vdl_size;
pub mod e9_transient;
