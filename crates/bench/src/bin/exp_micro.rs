//! E7: regenerates the elastic-process microcost table.
fn main() -> std::io::Result<()> {
    let out = mbd_bench::report::default_out_dir();
    let (micro, _) = mbd_bench::experiments::e7_micro::run(2000);
    let path = micro.emit(&out)?;
    println!("wrote {}", path.display());
    Ok(())
}
