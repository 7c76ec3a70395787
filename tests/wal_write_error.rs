//! A failed WAL write loses nothing: the flusher journals it, the file
//! is cut back to its last whole record, and the batch is written ahead
//! of everything staged since, once the disk takes writes again. The
//! journal hears of the episode twice, however long it lasts: one
//! `wal.error` at the first failure and one `wal.recovered` after it.
//!
//! The failure is a real `write(2)` error: the test lowers its own
//! process's file-size limit (`RLIMIT_FSIZE`) just past the log's end,
//! with `SIGXFSZ` ignored, so the next batch is written in part and then
//! refused with `EFBIG`. The limit is process-wide, so this is a test
//! binary of its own with a single test.

#![cfg(target_os = "linux")]

use mbd::core::durable::{wal, WalRecord, WAL_FILE};
use mbd::core::{ElasticConfig, ElasticProcess};
use mbd::dpl::Value;
use std::os::raw::c_int;
use std::time::{Duration, Instant};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
}

const RLIMIT_FSIZE: c_int = 1;
const SIGXFSZ: c_int = 25;
const SIG_IGN: usize = 1;

/// Sets this process's soft file-size limit, returning the old one.
fn set_file_size_limit(cur: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
    let old = limit.cur;
    limit.cur = cur.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit` no higher than the hard limit.
    assert_eq!(unsafe { setrlimit(RLIMIT_FSIZE, &limit) }, 0);
    old
}

/// A lowered file-size limit with `SIGXFSZ` ignored, both undone on
/// drop (also when an assertion fails, so its message can be written).
struct FileSizeLimit {
    old_limit: u64,
    old_handler: usize,
}

impl FileSizeLimit {
    fn lower_to(bytes: u64) -> FileSizeLimit {
        // SAFETY: ignoring SIGXFSZ installs no handler code; a write past
        // the limit then fails with EFBIG instead of killing the process.
        let old_handler = unsafe { signal(SIGXFSZ, SIG_IGN) };
        FileSizeLimit { old_limit: set_file_size_limit(bytes), old_handler }
    }
}

impl Drop for FileSizeLimit {
    fn drop(&mut self) {
        set_file_size_limit(self.old_limit);
        // SAFETY: puts back the disposition `signal` returned.
        unsafe { signal(SIGXFSZ, self.old_handler) };
    }
}

#[test]
fn a_failed_wal_write_keeps_its_batch_and_every_record_after_it() {
    let dir = std::env::temp_dir().join(format!("mbd-wal-write-error-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_path = dir.join(WAL_FILE);
    let process = ElasticProcess::new(ElasticConfig::default());
    process.attach_durability(&dir, 1 << 20).expect("durability attaches");
    process
        .delegate("count", "var total = 0; fn bump() { total = total + 1; return total; }")
        .unwrap();
    let dpi = process.instantiate("count").unwrap();
    let bump = || process.invoke(dpi, "bump", &[]).unwrap();
    bump();
    process.durable_sync();
    let whole = std::fs::metadata(&wal_path).unwrap().len();
    assert!(whole > 0);

    let limit = FileSizeLimit::lower_to(whole + 16);
    for _ in 0..10 {
        bump();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let error = loop {
        let journal = process.journal().since(0);
        if let Some(record) = journal.into_iter().find(|r| r.verb == "wal.error") {
            break record;
        }
        assert!(Instant::now() < deadline, "the flusher journaled no wal.error");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(!error.ok);
    // Twenty-five flusher periods of refused writes, records staged
    // throughout: still one journal line.
    std::thread::sleep(Duration::from_millis(250));
    let count = |verb: &str| process.journal().since(0).iter().filter(|r| r.verb == verb).count();
    assert_eq!(count("wal.error"), 1, "one wal.error per failure episode");
    let durable = process.durability().unwrap();
    let len = durable.with_wal_locked(|_| std::fs::metadata(&wal_path).unwrap().len());
    assert_eq!(len, whole, "the torn write is cut off");
    for _ in 0..5 {
        bump();
    }
    drop(limit);
    process.durable_sync();
    let deadline = Instant::now() + Duration::from_secs(10);
    while count("wal.recovered") == 0 {
        assert!(Instant::now() < deadline, "no wal.recovered after the disk took writes again");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(count("wal.recovered"), 1);
    assert_eq!(count("wal.error"), 1);

    let scan = wal::scan_file(&wal_path).unwrap();
    assert_eq!(scan.torn_bytes, 0);
    // The delegate, the instantiate and all 16 invokes, in order.
    assert_eq!(scan.entries.len(), 18);
    assert!(scan.entries[2..].iter().all(|e| matches!(e.record, WalRecord::Invoke { .. })));
    drop(process);
    let recovered = ElasticProcess::new(ElasticConfig::default());
    recovered.attach_durability(&dir, 1 << 20).expect("recovers");
    assert_eq!(recovered.invoke(dpi, "bump", &[]).unwrap(), Value::Int(17));
    let _ = std::fs::remove_dir_all(&dir);
}
