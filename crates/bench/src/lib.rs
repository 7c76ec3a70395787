//! The MbD experiment harness.
//!
//! One module per experiment of the evaluation (see `DESIGN.md` §4 for
//! the experiment index). Each experiment has a `run(...) -> Report`
//! function that regenerates the corresponding table or figure: it prints
//! the same rows/series the paper reports and writes CSV under
//! `bench/out/`. Thin binaries in `src/bin/` wrap each experiment.
//! Wire-level performance of the real `mbd-server`, layer by layer, is
//! `bench/e2e`'s (see `BENCHMARK.json`), not this crate's; the exact
//! allocation costs of the server's own instrumentation are pinned by the
//! root package's `tests/cost_ledger.rs`.
//!
//! | Experiment | Claim reproduced | Binary |
//! |---|---|---|
//! | [`experiments::e1_poll_ceiling`] | poll-rate ceiling vs RTT | `exp_poll_ceiling` |
//! | [`experiments::e2_traffic`] | manager-link traffic, polling vs delegation | `exp_traffic` |
//! | [`experiments::e3_tables`] | bulk table retrieval vs delegated filtering | `exp_tables` |
//! | [`experiments::e4_rpc_crossover`] | delegation vs repeated RPC crossover | `exp_rpc_crossover` |
//! | [`experiments::e5_health`] | learned health index accuracy | `exp_health` |
//! | [`experiments::e6_views`] | MIB views vs raw walks; snapshot detection | `exp_views` |
//! | [`experiments::e7_micro`] | elastic-process microcosts | `exp_micro` |
//! | [`experiments::e8_vdl_size`] | VDL vs SMI-extension spec economy | `exp_vdl_size` |
//! | [`experiments::e9_transient`] | transient-phenomenon detection | `exp_transient` |

pub mod experiments;
pub mod report;
pub mod simnet;

pub use report::Report;
