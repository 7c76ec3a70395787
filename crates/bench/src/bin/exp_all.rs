//! Runs every experiment end to end (the full evaluation, smaller sweeps).
fn main() -> std::io::Result<()> {
    use mbd_bench::experiments as ex;
    let out = mbd_bench::report::default_out_dir();
    ex::e1_poll_ceiling::run(60).0.emit(&out)?;
    ex::e2_traffic::run(&[10, 50, 100], 600).0.emit(&out)?;
    ex::e3_tables::run(&[100, 1000, 5000]).0.emit(&out)?;
    ex::e4_rpc_crossover::run(&[1, 2, 3, 5, 10, 20, 50]).0.emit(&out)?;
    ex::e5_health::run(2000, 1000, 42).0.emit(&out)?;
    ex::e6_views::run(600).0.emit(&out)?;
    ex::e7_micro::run(1000).0.emit(&out)?;
    ex::e8_vdl_size::run().0.emit(&out)?;
    ex::e9_transient::run().0.emit(&out)?;
    println!("all experiments written to {}", out.display());
    Ok(())
}
