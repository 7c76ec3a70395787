//! Durability: crash-restart recovery, torn-tail WAL handling, and
//! checkpoint/restore migration.
//!
//! The tentpole property is *exactly-once-consistent recovery*: kill a
//! durable server at **any** point — including mid-WAL-record — and the
//! rebooted process must equal the state derived from the clean prefix
//! of what reached disk. The chaos proptest below drives that with a
//! seed-chosen truncation point; a sibling flips a seed-chosen byte so
//! checksums, not luck, are what reject the damage.
//!
//! Round-trip property tests cover the persistence codecs (checkpoint
//! blobs over arbitrary VM globals and account totals; the WAL reader
//! over arbitrary byte prefixes), and a netsim scenario drains a
//! delegated agent from one simulated server to another over a WAN
//! link — running total intact, blob single-use.

use mbd::core::durable::wal::{self, WalEntry, WalRecord};
use mbd::core::durable::{DpiImage, ProgramRecord};
use mbd::core::{
    CheckpointBlob, DpiAccountSnapshot, DpiId, DpiQuota, DpiState, ElasticConfig, ElasticProcess,
    RecoveryReport,
};
use mbd::dpl::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A stateful agent: the running total makes lost or doubled
/// invocations visible in one integer.
const PROGRAM: &str = "var total = 0; fn bump() { total = total + 1; return total; }";

/// Unique, self-cleaning state directory per test case.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> StateDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mbd-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn wal_path(&self) -> PathBuf {
        self.0.join(mbd::core::durable::WAL_FILE)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_process(dir: &Path) -> ElasticProcess {
    let process = ElasticProcess::new(ElasticConfig::default());
    process.attach_durability(dir, 8).expect("durability attaches");
    process
}

/// The canonical pre-crash workflow: two instances of the counter
/// agent, exercised through every WAL-logged verb.
fn run_workflow(process: &ElasticProcess) -> (DpiId, DpiId) {
    process.delegate("count", PROGRAM).unwrap();
    let a = process.instantiate("count").unwrap();
    process.invoke(a, "bump", &[]).unwrap();
    process.invoke(a, "bump", &[]).unwrap();
    let b = process.instantiate("count").unwrap();
    process.suspend(b).unwrap();
    process.invoke(a, "bump", &[]).unwrap();
    process.resume(b).unwrap();
    process.invoke(b, "bump", &[]).unwrap();
    process
        .set_quota(b, Some(DpiQuota { max_invocations: Some(1000), ..DpiQuota::default() }))
        .unwrap();
    process.delegate("extra", "fn main() { return 1; }").unwrap();
    process.delete_program("extra").unwrap();
    process.terminate(a).unwrap();
    // Group commit is asynchronous: force the WAL file to catch up with
    // memory so the crash below starts from a known full log.
    process.durable_sync();
    (a, b)
}

/// Reference semantics of a WAL prefix: the state any recovery of that
/// prefix must reproduce. A terminated dpi leaves the model, as it
/// leaves the table. Invocation counts are tracked independently (one
/// per `Invoke` record) so they cross-check the persisted account.
#[derive(Default)]
struct Model {
    programs: Vec<String>,
    dpis: BTreeMap<u64, (String, DpiState, u64, i64)>,
}

fn replay_model(entries: &[WalEntry]) -> Model {
    let mut m = Model::default();
    for entry in entries {
        match &entry.record {
            WalRecord::Delegate(ProgramRecord { name, .. }) => {
                if !m.programs.contains(name) {
                    m.programs.push(name.clone());
                }
            }
            WalRecord::DeleteProgram { name } => m.programs.retain(|n| n != name),
            WalRecord::Instantiate { dpi, dp_name } => {
                m.dpis.insert(*dpi, (dp_name.clone(), DpiState::Ready, 0, 0));
            }
            WalRecord::Suspend { dpi } => {
                m.dpis.get_mut(dpi).unwrap().1 = DpiState::Suspended;
            }
            WalRecord::Resume { dpi } => m.dpis.get_mut(dpi).unwrap().1 = DpiState::Ready,
            WalRecord::Terminate { dpi }
            | WalRecord::Invoke { dpi, state: DpiState::Terminated, .. } => {
                m.dpis.remove(dpi);
            }
            WalRecord::SetQuota { .. } => {}
            WalRecord::Invoke { dpi, state, image } => {
                let slot = m.dpis.get_mut(dpi).unwrap();
                slot.1 = *state;
                slot.2 += 1;
                if let Some(Value::Int(total)) = image.globals.first() {
                    slot.3 = *total;
                }
            }
            WalRecord::Restore(blob) => {
                let total = match blob.image.globals.first() {
                    Some(Value::Int(t)) => *t,
                    _ => 0,
                };
                let name = blob.program.name.clone();
                m.dpis.insert(blob.dpi, (name, DpiState::Suspended, 0, total));
            }
        }
    }
    m
}

/// Boots a fresh process over the (possibly damaged) state directory
/// and asserts it matches the clean-prefix model exactly: census,
/// lifecycle states, account totals, and — the sharpest probe — that
/// every surviving Ready dpi's next invocation continues the running
/// total rather than restarting or repeating it.
fn assert_recovery_matches(dir: &StateDir) {
    let damaged_len = std::fs::metadata(dir.wal_path()).map(|m| m.len()).unwrap_or(0);
    let scan = wal::scan_file(&dir.wal_path()).expect("scan never fails on damage");
    let model = replay_model(&scan.entries);

    let recovered = durable_process(dir.path());
    // The torn suffix was cut on disk (checked before the continuity
    // invokes below append fresh records), and the boot is journaled.
    let now_len = std::fs::metadata(dir.wal_path()).map(|m| m.len()).unwrap_or(0);
    assert!(now_len <= damaged_len);
    assert_eq!(now_len, scan.clean_len, "WAL truncated to the clean prefix");
    let records = recovered.journal().tail(0);
    let rec = records.iter().find(|r| r.verb == "recovery").expect("recovery journaled");
    assert!(rec.ok);
    assert_ne!(rec.trace_id, 0, "recovery rides a minted trace id");

    let mut census: BTreeMap<u64, (String, DpiState)> = BTreeMap::new();
    for s in recovered.list_instances() {
        census.insert(s.id.0, (s.dp_name.clone(), s.state));
    }
    assert_eq!(census.len(), model.dpis.len(), "census size");
    for (id, (dp, state, inv_ok, total)) in &model.dpis {
        assert_eq!(census.get(id), Some(&(dp.clone(), *state)), "dpi {id} identity/state");
        let account = recovered.dpi_account(DpiId(*id)).expect("account survives");
        assert_eq!(account.invocations_ok, *inv_ok, "dpi {id} invocation count");
        if *state == DpiState::Ready {
            let next = recovered.invoke(DpiId(*id), "bump", &[]).expect("recovered dpi runs");
            assert_eq!(next, Value::Int(total + 1), "dpi {id} running total continuity");
        }
    }
    let mut programs = recovered.list_programs();
    programs.sort();
    let mut expected = model.programs.clone();
    expected.sort();
    assert_eq!(programs, expected, "repository contents");
}

proptest! {
    /// Kill-and-restart at a seed-chosen WAL truncation point: recovery
    /// must equal the clean prefix, whether the cut lands on a frame
    /// boundary or tears a record in half.
    #[test]
    fn recovery_is_exact_at_any_truncation_point(seed in any::<u64>()) {
        let dir = StateDir::new("cut");
        run_workflow(&durable_process(dir.path()));

        let wal_bytes = std::fs::read(dir.wal_path()).unwrap();
        prop_assert!(!wal_bytes.is_empty());
        let cut = (seed % (wal_bytes.len() as u64 + 1)) as usize;
        std::fs::write(dir.wal_path(), &wal_bytes[..cut]).unwrap();

        assert_recovery_matches(&dir);
    }

    /// Kill-and-restart with a seed-chosen flipped byte: the checksum
    /// rejects the damaged frame and everything after it, and recovery
    /// equals the prefix before the damage.
    #[test]
    fn recovery_discards_from_a_corrupted_frame_on(seed in any::<u64>()) {
        let dir = StateDir::new("flip");
        run_workflow(&durable_process(dir.path()));

        let mut wal_bytes = std::fs::read(dir.wal_path()).unwrap();
        prop_assert!(!wal_bytes.is_empty());
        let pos = (seed % wal_bytes.len() as u64) as usize;
        wal_bytes[pos] ^= 1 + (seed >> 32) as u8 % 255;
        std::fs::write(dir.wal_path(), &wal_bytes).unwrap();

        assert_recovery_matches(&dir);
    }
}

/// A first boot has nothing to recover: the report is all zeros and the
/// log it opened is still zero bytes long.
#[test]
fn first_boot_of_an_empty_dir_recovers_nothing() {
    let dir = StateDir::new("first");
    let process = ElasticProcess::new(ElasticConfig::default());
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!(RecoveryReport { recovery_ms: 0, trace_id: 0, ..report }, RecoveryReport::default());
    assert_eq!(std::fs::metadata(dir.wal_path()).unwrap().len(), 0);
}

/// Durability attaches once: a second attach is refused, and the first
/// store keeps logging.
#[test]
fn a_second_attach_is_an_error() {
    let (first, second) = (StateDir::new("attach-a"), StateDir::new("attach-b"));
    let process = durable_process(first.path());
    let err = process.attach_durability(second.path(), 8).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::Durability { .. }), "got {err:?}");
    process.delegate("count", PROGRAM).unwrap();
    process.durable_sync();
    assert!(std::fs::metadata(first.wal_path()).unwrap().len() > 0);
    assert!(!second.wal_path().exists(), "the refused attach opened nothing");
}

/// The full, undamaged restart: everything comes back, and the journal
/// carries the restored/abandoned counts.
#[test]
fn clean_restart_restores_every_dpi() {
    let dir = StateDir::new("clean");
    let (a, b) = run_workflow(&durable_process(dir.path()));

    let recovered = durable_process(dir.path());
    let ids: Vec<DpiId> = recovered.list_instances().iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![b], "the live dpi returns; the terminated one stays gone");
    // `b` is Ready with total 1 and its quota; `a` ended terminated.
    assert_eq!(recovered.invoke(b, "bump", &[]).unwrap(), Value::Int(2));
    let err = recovered.invoke(a, "bump", &[]).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NoSuchInstance(id) if id == a));
}

/// A snapshot absorbs the log: the WAL is truncated, and a restart from
/// snapshot + WAL tail equals a restart from WAL alone.
#[test]
fn snapshot_truncates_the_wal_and_recovery_still_matches() {
    let dir = StateDir::new("snap");
    let process = durable_process(dir.path());
    process.delegate("count", PROGRAM).unwrap();
    let a = process.instantiate("count").unwrap();
    process.invoke(a, "bump", &[]).unwrap();
    process.durable_sync();

    let before = std::fs::metadata(dir.wal_path()).unwrap().len();
    assert!(before > 0);
    process.snapshot_now().unwrap();
    assert_eq!(std::fs::metadata(dir.wal_path()).unwrap().len(), 0, "snapshot absorbs the WAL");

    // Post-snapshot operations land in the (fresh) WAL tail.
    process.invoke(a, "bump", &[]).unwrap();
    let b = process.instantiate("count").unwrap();
    process.suspend(b).unwrap();
    process.durable_sync();
    drop(process);

    let recovered = durable_process(dir.path());
    assert_eq!(recovered.invoke(a, "bump", &[]).unwrap(), Value::Int(3));
    assert_eq!(
        recovered.list_instances().iter().find(|s| s.id == b).map(|s| s.state),
        Some(DpiState::Suspended)
    );
    let records = recovered.journal().tail(0);
    assert!(records.iter().any(|r| r.verb == "recovery" && r.ok));
}

/// Snapshots racing invokes: one thread drives the counter while
/// another snapshots in a loop, so cell lock and WAL lock are taken in
/// both orders. An inversion hangs (hence the bound); a torn image, or
/// a tail record dropped by the truncation, is a wrong count on restart.
#[test]
fn snapshots_concurrent_with_invokes_lose_and_repeat_nothing() {
    const N: i64 = 5000;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let dir = StateDir::new("race");
        let process = durable_process(dir.path());
        process.delegate("count", PROGRAM).unwrap();
        let a = process.instantiate("count").unwrap();

        let stop = AtomicBool::new(false);
        let snapshots = std::thread::scope(|s| {
            let snapshotter = s.spawn(|| {
                let mut taken = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    process.snapshot_now().unwrap();
                    taken += 1;
                }
                taken
            });
            for want in 1..=N {
                assert_eq!(process.invoke(a, "bump", &[]).unwrap(), Value::Int(want));
            }
            stop.store(true, Ordering::Relaxed);
            snapshotter.join().unwrap()
        });
        assert!(snapshots > 0, "the snapshotter never ran beside the invokes");
        process.durable_sync();
        drop(process);

        let recovered = durable_process(dir.path());
        assert_eq!(recovered.dpi_account(a).unwrap().invocations_ok, N as u64);
        assert_eq!(recovered.invoke(a, "bump", &[]).unwrap(), Value::Int(N + 1));
        done.send(()).unwrap();
    });
    // A panic above drops `done` (Disconnected); a deadlock times out.
    finished
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("invokes racing snapshots finished and recovered exactly");
}

/// Nonces persist: a blob restored before the crash is still refused
/// after the restart, through both the WAL and the snapshot path.
/// (A terminated dpi leaves the table, so the refusal can only come
/// from the burned nonce, not an id collision.)
#[test]
fn burned_nonces_survive_restart() {
    let dir = StateDir::new("nonce");
    let fresh = || durable_process(dir.path());
    let process = fresh();
    process.delegate("count", PROGRAM).unwrap();
    let a = process.instantiate("count").unwrap();
    process.suspend(a).unwrap();
    let blob = process.checkpoint(a).unwrap();
    process.terminate(a).unwrap();
    let restored = process.restore(&blob).unwrap();
    assert_eq!(restored, a, "restore keeps the id once the original is gone");
    process.durable_sync();
    drop(process);

    let recovered = fresh();
    recovered.terminate(a).unwrap();
    let err = recovered.restore(&blob).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NonceReused), "nonce survives via WAL");

    recovered.snapshot_now().unwrap();
    drop(recovered);
    let recovered = fresh();
    let err = recovered.restore(&blob).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NonceReused), "nonce survives via snapshot");
}

/// A blob restoring dpi 3 of [`PROGRAM`] with its total at 4.
fn restore_blob(nonce: u8, source: &str) -> CheckpointBlob {
    CheckpointBlob {
        nonce: [nonce; 16],
        dpi: 3,
        program: ProgramRecord {
            name: "count".to_string(),
            source: source.to_string(),
            delegated_by: "noc".to_string(),
        },
        image: DpiImage {
            initialized: true,
            globals: vec![Value::Int(4)],
            account: DpiAccountSnapshot { invocations_ok: 4, ..DpiAccountSnapshot::default() },
        },
        quota: None,
    }
}

/// Regression: a live `restore` burns its nonce before its `Restore`
/// record is staged, so a snapshot taken in between holds the nonce but
/// not the dpi, and the record lands in the fresh log. Replay applies
/// that record: the burned nonce is its own, not a reason to refuse it.
#[test]
fn replay_of_a_restore_whose_nonce_the_snapshot_burned_recovers_the_dpi() {
    use mbd::core::durable::snapshot::{self, SnapshotData};
    let dir = StateDir::new("restore-race");
    let blob = restore_blob(0x5a, PROGRAM);
    write_wal(&dir, vec![WalRecord::Restore(blob.clone())]);
    let data = SnapshotData {
        next_dpi: 1,
        programs: Vec::new(),
        dpis: Vec::new(),
        nonces: vec![blob.nonce],
    };
    snapshot::write_file(&dir.path().join(mbd::core::durable::SNAPSHOT_FILE), &data).unwrap();

    let process = ElasticProcess::new(ElasticConfig::default());
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (1, 0));
    assert_eq!(abandon_records(&process), Vec::<String>::new());
    process.resume(DpiId(3)).unwrap();
    assert_eq!(process.invoke(DpiId(3), "bump", &[]).unwrap(), Value::Int(5));
    process.terminate(DpiId(3)).unwrap();
    let err = process.restore(&blob.encode()).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NonceReused), "{err:?}");
}

/// A logged `Restore` keeps its nonce burned even when replay cannot
/// install it: the blob was installed once, so it stays refused.
#[test]
fn a_restore_replay_cannot_install_still_burns_its_nonce() {
    let dir = StateDir::new("restore-abandon");
    let blob = restore_blob(0x5b, "fn bump( {");
    write_wal(&dir, vec![WalRecord::Restore(blob.clone())]);
    let process = ElasticProcess::new(ElasticConfig::default());
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (0, 1));
    let err = process.restore(&blob.encode()).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NonceReused), "{err:?}");
}

// ---------------------------------------------------------------------
// Retention: a terminated dpi leaves the table, the snapshot and replay.
// ---------------------------------------------------------------------

/// Writes `records` as the state dir's whole WAL.
fn write_wal(dir: &StateDir, records: Vec<WalRecord>) {
    std::fs::create_dir_all(dir.path()).unwrap();
    let bytes: Vec<u8> = records
        .into_iter()
        .flat_map(|record| wal::frame(&wal::encode_entry(&WalEntry { trace_id: 0, record })))
        .collect();
    std::fs::write(dir.wal_path(), bytes).unwrap();
}

/// The `recovery.abandon_*` records a boot journaled.
fn abandon_records(process: &ElasticProcess) -> Vec<String> {
    let records = process.journal().tail(0).into_iter();
    records.filter(|r| r.verb.starts_with("recovery.abandon")).map(|r| r.detail).collect()
}

/// Regression: a terminate that lands while an invoke is `Running`
/// stages `Terminate` before the invoke's post-state
/// `Invoke { state: Terminated }`. Replay meets that second record on an
/// id that already left the table: the dpi's recorded fate, not a
/// record to abandon.
#[test]
fn replay_of_a_terminate_racing_an_invoke_abandons_nothing() {
    let dir = StateDir::new("reap-race");
    write_wal(
        &dir,
        vec![
            WalRecord::Delegate(ProgramRecord {
                name: "count".to_string(),
                source: PROGRAM.to_string(),
                delegated_by: "noc".to_string(),
            }),
            WalRecord::Instantiate { dpi: 1, dp_name: "count".to_string() },
            WalRecord::Terminate { dpi: 1 },
            WalRecord::Invoke {
                dpi: 1,
                state: DpiState::Terminated,
                image: DpiImage {
                    initialized: true,
                    globals: vec![Value::Int(1)],
                    account: DpiAccountSnapshot {
                        invocations_ok: 1,
                        ..DpiAccountSnapshot::default()
                    },
                },
            },
        ],
    );
    let process = ElasticProcess::new(ElasticConfig::default());
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!(report.wal_records, 4);
    assert_eq!(report.abandoned_dpis, 0);
    assert_eq!(abandon_records(&process), Vec::<String>::new());
    assert!(process.list_instances().is_empty());
    assert_eq!(process.live_instances(), 0);
    // The id allocator still resumes above the dead id.
    assert_eq!(process.instantiate("count").unwrap(), DpiId(2));
}

/// Regression: `instantiate` used to insert its slot before staging its
/// `Instantiate`, so a snapshot taken in between held the dpi while the
/// fresh log still got the record, and replay installed the dpi a second
/// time over the snapshot's slot: counted twice, globals reset. A
/// creating record now installs only onto an absent id.
#[test]
fn replay_of_an_instantiate_the_snapshot_holds_keeps_the_snapshot_dpi() {
    use mbd::core::durable::snapshot::{self, DpiRecord, SnapshotData};
    let dir = StateDir::new("instantiate-cut");
    write_wal(&dir, vec![WalRecord::Instantiate { dpi: 1, dp_name: "count".to_string() }]);
    let data = SnapshotData {
        next_dpi: 2,
        programs: vec![ProgramRecord {
            name: "count".to_string(),
            source: PROGRAM.to_string(),
            delegated_by: "noc".to_string(),
        }],
        dpis: vec![DpiRecord {
            id: 1,
            dp_name: "count".to_string(),
            state: DpiState::Ready,
            image: DpiImage {
                initialized: true,
                globals: vec![Value::Int(5)],
                account: DpiAccountSnapshot { invocations_ok: 5, ..DpiAccountSnapshot::default() },
            },
            quota: None,
            program: None,
        }],
        nonces: Vec::new(),
    };
    snapshot::write_file(&dir.path().join(mbd::core::durable::SNAPSHOT_FILE), &data).unwrap();

    let process =
        ElasticProcess::new(ElasticConfig { max_instances: 2, ..ElasticConfig::default() });
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (1, 0));
    assert_eq!(process.list_instances().len(), 1);
    assert_eq!(process.live_instances(), 1);
    assert_eq!(process.instantiate("count").unwrap(), DpiId(2), "room for one more");
    assert_eq!(process.invoke(DpiId(1), "bump", &[]).unwrap(), Value::Int(6));
}

/// A counter whose increment is `k`, with an entry that always faults.
fn counter_source(k: u64) -> String {
    format!("var n = 0; fn bump() {{ n = n + {k}; return n; }} fn boom() {{ return 1 / 0; }}")
}

/// A dpi keeps the dp version it was instantiated from across a
/// snapshot and a restart: re-delegating its dp leaves it on the old
/// code, and its checkpoint migrates that old code. (Recovery used to
/// look the name up and run the newest version over the old globals.)
#[test]
fn a_redelegated_dpi_keeps_its_version_across_a_snapshot() {
    let dir = StateDir::new("redelegate");
    let process = durable_process(dir.path());
    process.delegate("c", &counter_source(1)).unwrap();
    let dpi = process.instantiate("c").unwrap();
    assert_eq!(process.invoke(dpi, "bump", &[]).unwrap(), Value::Int(1));
    process.delegate("c", &counter_source(100)).unwrap();
    assert_eq!(process.invoke(dpi, "bump", &[]).unwrap(), Value::Int(2));
    process.snapshot_now().unwrap();
    drop(process);

    let recovered = durable_process(dir.path());
    assert_eq!(recovered.invoke(dpi, "bump", &[]).unwrap(), Value::Int(3));
    recovered.suspend(dpi).unwrap();
    let blob = CheckpointBlob::decode(&recovered.checkpoint(dpi).unwrap()).unwrap();
    assert_eq!(blob.program.source, counter_source(1), "the checkpoint carries its own version");
    let fresh = recovered.instantiate("c").unwrap();
    assert_eq!(recovered.invoke(fresh, "bump", &[]).unwrap(), Value::Int(100));
}

/// A dpi whose dp was deleted keeps running from its own copy across a
/// snapshot and a restart, and the deleted dp stays out of the
/// repository. (Recovery used to abandon the dpi.)
#[test]
fn a_dpi_of_a_deleted_dp_survives_a_snapshot() {
    let dir = StateDir::new("deleted-dp");
    let process = durable_process(dir.path());
    process.delegate("c", &counter_source(1)).unwrap();
    let dpi = process.instantiate("c").unwrap();
    assert_eq!(process.invoke(dpi, "bump", &[]).unwrap(), Value::Int(1));
    process.delete_program("c").unwrap();
    assert_eq!(process.invoke(dpi, "bump", &[]).unwrap(), Value::Int(2));
    process.snapshot_now().unwrap();
    drop(process);

    let recovered = ElasticProcess::new(ElasticConfig::default());
    let report = recovered.attach_durability(dir.path(), 8).unwrap();
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (1, 0));
    assert!(recovered.list_programs().is_empty(), "ListPrograms is unchanged");
    assert_eq!(recovered.invoke(dpi, "bump", &[]).unwrap(), Value::Int(3));
}

/// One seed-chosen verb of ops 0–8 against a seed-chosen dp, or a dpi
/// picked from dpi 1 and the ids from `low` to the highest one made so
/// far (`high`, which instantiates raise); refusals are part of the race
/// and ignored. Dpi 1 is never terminated or migrated: two other threads
/// suspend and resume it.
fn random_verb(process: &ElasticProcess, r: u64, low: u64, high: &AtomicU64) {
    let name = if r & 1 == 0 { "p" } else { "q" };
    let span = high.load(Ordering::Relaxed).saturating_sub(low) + 2;
    let dpi = match (r >> 8) % span {
        0 => DpiId(1),
        k => DpiId(low + k - 1),
    };
    // Program verbs and restores take the repository's write lock, which
    // a snapshot's read lock holds off, and a waiting writer holds off
    // instantiates: they stay rare, so instantiates land mid-snapshot.
    let _ = match ((r >> 4) % 64, dpi == DpiId(1)) {
        (0, _) => process.delegate(name, &counter_source(1 + (r >> 20) % 3)),
        (1, _) => process.delete_program(name),
        (2..=15, _) => process.instantiate(name).map(|id| {
            high.fetch_max(id.0, Ordering::Relaxed);
        }),
        (16..=19, _) => process.suspend(dpi),
        (20..=27, _) => process.resume(dpi),
        (28..=30, false) => process.terminate(dpi),
        (31..=33, _) => {
            let quota =
                DpiQuota { max_invocations: Some(8 + (r >> 24) % 40), ..Default::default() };
            process.set_quota(dpi, Some(quota))
        }
        (34, false) => process.suspend(dpi).and_then(|()| process.checkpoint(dpi)).and_then(|b| {
            process.terminate(dpi)?;
            process.restore(&b).map(drop)
        }),
        _ => {
            let entry = if (r >> 30).is_multiple_of(32) { "boom" } else { "bump" };
            process.invoke(dpi, entry, &[]).map(drop)
        }
    };
}

/// The live verbs of ops 0–8 race a snapshot loop — three threads of
/// seed-chosen verbs on two dp names and the dpis they make, and two
/// threads suspending and resuming one dpi — until the twentieth
/// snapshot is done. A copy of the state directory then
/// recovers exactly the live process: programs, listing, census and,
/// through a snapshot of each, every dpi's globals, account, quota and
/// version, and the burned nonces. A deadlock fails on the bound.
#[test]
fn verbs_racing_snapshots_recover_to_the_live_state() {
    use mbd::core::durable::{snapshot, SnapshotData, SNAPSHOT_FILE, WAL_FILE};
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let dir = StateDir::new("verb-race");
        let config = ElasticConfig { max_instances: 16_384, ..ElasticConfig::default() };
        let process = ElasticProcess::new(config.clone());
        process.attach_durability(dir.path(), 8).unwrap();
        process.delegate("p", &counter_source(1)).unwrap();
        process.delegate("q", &counter_source(2)).unwrap();
        let shared = process.instantiate("p").unwrap();
        // Idle ballast: each snapshot then takes long enough for verbs
        // to land between its shard listing and its last read.
        process.delegate("idle", PROGRAM).unwrap();
        for _ in 0..2_000 {
            process.instantiate("idle").unwrap();
        }
        let low = process.instantiate("p").unwrap().0;
        let high = &AtomicU64::new(low);

        // The verbs run until the last snapshot is done, so every
        // snapshot, the last one included, cuts through them.
        let stop = AtomicBool::new(false);
        let verbs = AtomicU64::new(0);
        std::thread::scope(|s| {
            let (process, stop, verbs) = (&process, &stop, &verbs);
            for seed in 1..=3u64 {
                s.spawn(move || {
                    let mut r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while !stop.load(Ordering::Relaxed) {
                        r ^= r << 13;
                        r ^= r >> 7;
                        r ^= r << 17;
                        random_verb(process, r, low, high);
                        verbs.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = process.suspend(shared);
                        let _ = process.resume(shared);
                    }
                });
            }
            for _ in 0..20 {
                process.snapshot_now().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(verbs.into_inner() > 100, "too few verbs ran beside the snapshots");
        process.durable_sync();

        let copy = StateDir::new("verb-race-copy");
        std::fs::create_dir_all(copy.path()).unwrap();
        for file in [SNAPSHOT_FILE, WAL_FILE] {
            std::fs::copy(dir.path().join(file), copy.path().join(file)).unwrap();
        }
        let live = (process.list_programs(), process.list_instances(), process.live_instances());
        let image = |process: &ElasticProcess, dir: &StateDir| {
            process.snapshot_now().unwrap();
            let state = snapshot::read_file(&dir.path().join(SNAPSHOT_FILE)).unwrap().unwrap();
            SnapshotData { next_dpi: 0, ..state }
        };
        let live_image = image(&process, &dir);
        drop(process);

        let recovered = ElasticProcess::new(config);
        let report = recovered.attach_durability(copy.path(), 8).unwrap();
        assert_eq!(report.abandoned_dpis, 0, "{:?}", abandon_records(&recovered));
        let got =
            (recovered.list_programs(), recovered.list_instances(), recovered.live_instances());
        assert_eq!(got, live);
        assert_eq!(image(&recovered, &copy), live_image);
        // Both state directories go before `done`: once it is sent the
        // test binary may exit without running this thread's drops.
        drop((recovered, copy, dir));
        done.send(()).unwrap();
    });
    // A panic above drops `done` (Disconnected); a deadlock times out.
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("verbs racing snapshots finished and recovered exactly");
}

/// Regression: earlier builds wrote a `Terminated` snapshot record for
/// every terminated dpi they kept (and a slot caught mid-terminate reads
/// that way). Recovery leaves such a record out of the table and out of
/// the live census.
#[test]
fn a_terminated_snapshot_record_stays_out_of_the_table() {
    use mbd::core::durable::snapshot::{self, DpiRecord, SnapshotData};
    let dir = StateDir::new("dead-record");
    std::fs::create_dir_all(dir.path()).unwrap();
    let record = |id, state| DpiRecord {
        id,
        dp_name: "count".to_string(),
        state,
        image: DpiImage {
            initialized: true,
            globals: vec![Value::Int(7)],
            account: DpiAccountSnapshot { invocations_ok: 7, ..DpiAccountSnapshot::default() },
        },
        quota: None,
        program: None,
    };
    let data = SnapshotData {
        next_dpi: 3,
        programs: vec![ProgramRecord {
            name: "count".to_string(),
            source: PROGRAM.to_string(),
            delegated_by: "noc".to_string(),
        }],
        dpis: vec![record(1, DpiState::Terminated), record(2, DpiState::Ready)],
        nonces: Vec::new(),
    };
    snapshot::write_file(&dir.path().join(mbd::core::durable::SNAPSHOT_FILE), &data).unwrap();

    // Room for one live dpi: a dead record that took a reservation would
    // crowd the live one out.
    let process =
        ElasticProcess::new(ElasticConfig { max_instances: 1, ..ElasticConfig::default() });
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (1, 0));
    let listed: Vec<_> = process.list_instances().iter().map(|s| (s.id, s.state)).collect();
    assert_eq!(listed, vec![(DpiId(2), DpiState::Ready)]);
    assert_eq!(process.live_instances(), 1);
    let err = process.invoke(DpiId(1), "bump", &[]).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::NoSuchInstance(_)));
    assert_eq!(process.invoke(DpiId(2), "bump", &[]).unwrap(), Value::Int(8));
    // The census is exact: the one slot is taken until dpi 2 terminates.
    assert!(process.instantiate("count").is_err());
    process.terminate(DpiId(2)).unwrap();
    assert_eq!(process.instantiate("count").unwrap(), DpiId(3));
}

/// Recovery at scale: a state dir that saw 10⁴ dpis come and go around
/// 10² live ones snapshots only the live ones, and a re-open — snapshot
/// plus a WAL tail of more of each — restores exactly them. Prints
/// `recovery_ms` without gating on it.
#[test]
fn recovery_at_scale_restores_exactly_the_live_dpis() {
    let dir = StateDir::new("scale");
    let process = durable_process(dir.path());
    process.delegate("count", PROGRAM).unwrap();
    let mut live = std::collections::BTreeSet::new();
    // `rounds` times: `dead` dpis instantiated then terminated, and one
    // that stays, invoked once.
    let mut churn = |rounds: usize, dead: usize| {
        for _ in 0..rounds {
            for _ in 0..dead {
                let dpi = process.instantiate("count").unwrap();
                process.terminate(dpi).unwrap();
            }
            let dpi = process.instantiate("count").unwrap();
            process.invoke(dpi, "bump", &[]).unwrap();
            live.insert(dpi);
        }
    };
    churn(100, 100);
    process.snapshot_now().unwrap();
    churn(5, 5);
    process.durable_sync();
    drop(process);

    let snapshot_path = dir.path().join(mbd::core::durable::SNAPSHOT_FILE);
    let snapshot = mbd::core::durable::snapshot::read_file(&snapshot_path).unwrap().unwrap();
    assert_eq!(snapshot.dpis.len(), 100, "the snapshot holds exactly the live dpis");
    assert!(snapshot.dpis.iter().all(|d| live.contains(&DpiId(d.id))));

    let recovered = ElasticProcess::new(ElasticConfig::default());
    let report = recovered.attach_durability(dir.path(), 8).unwrap();
    println!(
        "recovery_ms {} ({} live dpis, {} WAL records)",
        report.recovery_ms, report.restored_dpis, report.wal_records
    );
    assert_eq!(report.abandoned_dpis, 0);
    assert_eq!(abandon_records(&recovered), Vec::<String>::new());
    assert_eq!(recovered.live_instances(), live.len());
    let listed: std::collections::BTreeSet<_> =
        recovered.list_instances().iter().map(|s| s.id).collect();
    assert_eq!(listed, live);
}

/// No stop-the-world: at 10⁴ and 10⁵ dpis, one thread invokes dpis round
/// robin while another takes snapshots; prints p50, p99 and max latency
/// of the invokes that overlapped a `snapshot_now`. A snapshot reads one
/// dpi at a time inside its own section, so an invoke waits at most for
/// one slot's capture, however large the table. A measurement, so run it
/// in release: `cargo test --release --test durability -- --ignored
/// --nocapture invokes_overlapping_snapshots`.
#[test]
#[ignore = "a measurement at 10^5 dpis; run in release"]
fn invokes_overlapping_snapshots_wait_for_no_more_than_one_slot() {
    use std::time::{Duration, Instant};
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for dpis in [10_000, 100_000] {
        let dir = StateDir::new("stall");
        let config = ElasticConfig { max_instances: dpis, ..ElasticConfig::default() };
        let process = ElasticProcess::new(config);
        process.attach_durability(dir.path(), 256).unwrap();
        process.delegate("count", PROGRAM).unwrap();
        let ids: Vec<DpiId> = (0..dpis).map(|_| process.instantiate("count").unwrap()).collect();
        let stop = AtomicBool::new(false);
        let (snapshots, invokes) = std::thread::scope(|s| {
            let invoker = s.spawn(|| {
                let mut spans = Vec::new();
                for id in ids.iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let start = Instant::now();
                    process.invoke(*id, "bump", &[]).unwrap();
                    spans.push((start, start.elapsed()));
                }
                spans
            });
            let snapshots: Vec<(Instant, Duration)> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    process.snapshot_now().unwrap();
                    (start, start.elapsed())
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            (snapshots, invoker.join().unwrap())
        });
        let mut overlapping: Vec<Duration> = invokes
            .into_iter()
            .filter(|&(at, took)| snapshots.iter().any(|&(s, d)| at < s + d && at + took > s))
            .map(|(_, took)| took)
            .collect();
        overlapping.sort_unstable();
        let pick = |q: f64| overlapping[((overlapping.len() - 1) as f64 * q) as usize];
        let snapshot_ms: Vec<u128> = snapshots.iter().map(|(_, d)| d.as_millis()).collect();
        println!(
            "{dpis} dpis, {cpus} cpus: snapshot_now {snapshot_ms:?} ms; {} overlapping invokes: \
             p50 {:?} p99 {:?} max {:?}",
            overlapping.len(),
            pick(0.5),
            pick(0.99),
            overlapping.last().unwrap()
        );
        assert!(pick(0.99) < Duration::from_millis(1), "an invoke waited for the snapshot");
    }
}

// ---------------------------------------------------------------------
// The on-disk formats, pinned by checked-in fixtures.
// ---------------------------------------------------------------------

/// One file of `tests/data/durable/`: the durable formats as the first
/// release wrote them, which every later build must keep reading.
///
/// - `snapshot.ber`: programs `count` and `bag`; dpi 1 (`count`, Ready,
///   total 5, quota armed), dpi 2 (`count`, Suspended, total 2, no
///   quota), dpi 3 (`count`, Ready, total 9); burned nonces `0x11…` and
///   `0x22…`.
/// - `wal.log`: one record of each op 0–8, trace ids `0x70`–`0x78`:
///   delegate and delete `extra`, instantiate dpi 4 (`bag`), an invoke
///   leaving a map with a NaN and a nested map in its global, an armed
///   quota, suspend and resume of dpi 4, terminate dpi 3, and a restore
///   of `checkpoint.blob`.
/// - `checkpoint.blob`: dpi 7 of `mover` (hops 41, load 2.5, busy-time
///   quota), nonce `0x33…`.
fn fixture(name: &str) -> Vec<u8> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/durable");
    std::fs::read(dir.join(name)).expect("fixture present")
}

/// The fixtures decode, and encoding what they decode to gives back
/// every byte: the formats have not drifted.
#[test]
fn fixtures_re_encode_byte_for_byte() {
    use mbd::core::durable::{snapshot, SNAPSHOT_FILE, WAL_FILE};
    let snap = fixture(SNAPSHOT_FILE);
    assert_eq!(snapshot::encode(&snapshot::decode(&snap).unwrap()), snap);
    let blob = fixture("checkpoint.blob");
    assert_eq!(CheckpointBlob::decode(&blob).unwrap().encode(), blob);

    let log = fixture(WAL_FILE);
    let scan = wal::scan(&log);
    assert_eq!((scan.clean_len, scan.torn_bytes), (log.len() as u64, 0));
    let ops: Vec<u8> = scan
        .entries
        .iter()
        .map(|e| match e.record {
            WalRecord::Delegate { .. } => 0,
            WalRecord::DeleteProgram { .. } => 1,
            WalRecord::Instantiate { .. } => 2,
            WalRecord::Suspend { .. } => 3,
            WalRecord::Resume { .. } => 4,
            WalRecord::Terminate { .. } => 5,
            WalRecord::SetQuota { .. } => 6,
            WalRecord::Invoke { .. } => 7,
            WalRecord::Restore { .. } => 8,
        })
        .collect();
    assert_eq!(ops, [0, 1, 2, 7, 6, 3, 4, 5, 8]);
    let reencoded: Vec<u8> =
        scan.entries.iter().flat_map(|e| wal::frame(&wal::encode_entry(e))).collect();
    assert_eq!(reencoded, log);
}

/// A copy of the fixture directory boots into exactly the state the
/// fixtures describe: programs, census, globals (NaN bits included),
/// accounts, quotas and burned nonces.
#[test]
fn fixtures_recover_programs_dpis_accounts_quotas_and_nonces() {
    let dir = StateDir::new("fixture");
    std::fs::create_dir_all(dir.path()).unwrap();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/durable");
    for file in std::fs::read_dir(&src).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dir.path().join(file.file_name())).unwrap();
    }
    let process = ElasticProcess::new(ElasticConfig::default());
    let report = process.attach_durability(dir.path(), 8).unwrap();
    assert_eq!(
        (report.restored_programs, report.wal_records, report.torn_bytes),
        (2, 9, 0),
        "{report:?}"
    );
    assert_eq!((report.restored_dpis, report.abandoned_dpis), (4, 0));
    assert_eq!(process.list_programs(), ["bag", "count", "mover"]);
    let census: Vec<_> =
        process.list_instances().into_iter().map(|s| (s.id.0, s.dp_name, s.state)).collect();
    let names = |n: &str| n.to_string();
    assert_eq!(
        census,
        [
            (1, names("count"), DpiState::Ready),
            (2, names("count"), DpiState::Suspended),
            (4, names("bag"), DpiState::Ready),
            (7, names("mover"), DpiState::Suspended),
        ]
    );

    // Each dpi's image, read back through a checkpoint of it.
    let image = |id: u64| {
        let dpi = DpiId(id);
        if process.list_instances().iter().any(|s| s.id == dpi && s.state == DpiState::Ready) {
            process.suspend(dpi).unwrap();
        }
        CheckpointBlob::decode(&process.checkpoint(dpi).unwrap()).unwrap()
    };
    let account = |ok, busy_ns, vm_fuel, last_trace_id| DpiAccountSnapshot {
        invocations_ok: ok,
        busy_ns,
        vm_fuel,
        last_trace_id,
        ..DpiAccountSnapshot::default()
    };

    let one = image(1);
    assert_eq!((one.image.initialized, &one.image.globals[..]), (true, &[Value::Int(5)][..]));
    assert_eq!(
        one.image.account,
        DpiAccountSnapshot {
            invocations_failed: 1,
            bytes_in: 640,
            bytes_out: 320,
            notifications: 2,
            log_lines: 1,
            ..account(5, 12_345, 99, 0x51)
        }
    );
    assert_eq!(
        one.quota,
        Some(DpiQuota {
            max_invocations: Some(100),
            max_vm_fuel: Some(10_000),
            ..DpiQuota::default()
        })
    );
    assert_eq!((one.program.source.as_str(), one.program.delegated_by.as_str()), (PROGRAM, "noc"));

    let two = image(2);
    assert_eq!(two.image.globals, [Value::Int(2)]);
    assert_eq!((two.image.account, two.quota), (account(2, 800, 40, 0x52), None));

    let four = image(4);
    assert_eq!(four.program.delegated_by, "ops");
    let Some(Value::Map(bag)) = four.image.globals.first() else { panic!("{:?}", four.image) };
    let Some(Value::Float(nan)) = bag.get("nan") else { panic!("{bag:?}") };
    assert_eq!(nan.to_bits(), 0x7FF8_0000_0000_1234, "NaN payload survives");
    assert_eq!(bag.get("none"), Some(&Value::Nil));
    let Some(Value::Map(nested)) = bag.get("nested") else { panic!("{bag:?}") };
    assert_eq!(nested.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(
        nested.get("list"),
        Some(&Value::list(vec![Value::Int(1), Value::Str("x".to_string())]))
    );
    assert_eq!(
        four.image.account,
        DpiAccountSnapshot { bytes_in: 96, ..account(1, 777, 42, 0x73) }
    );
    assert_eq!(
        four.quota,
        Some(DpiQuota { max_invocations: Some(50), max_log_lines: Some(3), ..DpiQuota::default() })
    );

    let seven = image(7);
    assert_eq!(seven.image.globals, [Value::Int(41), Value::Float(2.5)]);
    assert_eq!(
        (seven.program.name.as_str(), seven.program.delegated_by.as_str()),
        ("mover", "peer")
    );
    assert_eq!(seven.image.account, account(41, 90_000, 4_100, 0x61));
    assert_eq!(seven.quota, Some(DpiQuota { max_busy_ns: Some(1_000_000), ..DpiQuota::default() }));

    // The ids continue above the restored dpi 7, and dpi 1 counts on.
    process.resume(DpiId(1)).unwrap();
    assert_eq!(process.invoke(DpiId(1), "bump", &[]).unwrap(), Value::Int(6));
    assert_eq!(process.instantiate("count").unwrap(), DpiId(8));

    // The WAL burned the blob's nonce and the snapshot two more; an
    // unburned nonce on the same blob still installs.
    process.terminate(DpiId(7)).unwrap();
    let blob = fixture("checkpoint.blob");
    let at = blob.windows(16).position(|w| w == [0x33; 16]).expect("nonce in the blob");
    for (nonce, burned) in [(0x33, true), (0x11, true), (0x22, true), (0x44, false)] {
        let mut patched = blob.clone();
        patched[at..at + 16].fill(nonce);
        let result = process.restore(&patched);
        if burned {
            let err = result.unwrap_err();
            assert!(matches!(err, mbd::core::CoreError::NonceReused), "{nonce:#x}: {err:?}");
        } else {
            assert_eq!(result.unwrap(), DpiId(7));
        }
    }
}

/// One hostile edit of `bytes`: cut it at `at`, flip the byte at `at`
/// with `mask`, or splice the tail of `donor` from `from` in at `at`.
fn mutate(bytes: &[u8], edit: u8, at: usize, mask: u8, donor: &[u8], from: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match edit % 3 {
        0 => out.truncate(at % (out.len() + 1)),
        1 if !out.is_empty() => {
            let at = at % out.len();
            out[at] ^= mask | 1;
        }
        _ => {
            out.truncate(at % (out.len() + 1));
            out.extend_from_slice(&donor[from % (donor.len() + 1)..]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Truncated, byte-flipped and spliced fixtures: every durable
    /// decoder answers `Err` or a clean prefix, and never panics. The
    /// WAL is attacked twice: as raw bytes (the checksum stops the scan)
    /// and through one frame whose damaged payload is re-framed with a
    /// valid checksum, so the payload decoder itself sees the damage.
    #[test]
    fn durable_decoders_survive_hostile_bytes(
        edits in proptest::collection::vec(any::<u64>(), 1..4),
        frame_seed in any::<u64>(),
    ) {
        use mbd::core::durable::{snapshot, SNAPSHOT_FILE, WAL_FILE};
        let files = [fixture(SNAPSHOT_FILE), fixture("checkpoint.blob"), fixture(WAL_FILE)];
        let hostile = |bytes: &[u8]| {
            edits.iter().fold(bytes.to_vec(), |out, &e| {
                let donor = &files[(e >> 8) as usize % files.len()];
                mutate(&out, e as u8, (e >> 16) as usize, (e >> 40) as u8, donor, (e >> 48) as usize)
            })
        };
        let _ = snapshot::decode(&hostile(&files[0]));
        let _ = CheckpointBlob::decode(&hostile(&files[1]));

        let bytes = hostile(&files[2]);
        let scan = wal::scan(&bytes);
        prop_assert_eq!(scan.clean_len + scan.torn_bytes, bytes.len() as u64);
        let prefix = wal::scan(&bytes[..scan.clean_len as usize]);
        prop_assert_eq!((prefix.entries.len(), prefix.torn_bytes), (scan.entries.len(), 0));

        let frames = wal::scan(&files[2]).entries;
        let k = frame_seed as usize % frames.len();
        let mut log: Vec<u8> = Vec::new();
        for entry in &frames[..k] {
            log.extend_from_slice(&wal::frame(&wal::encode_entry(entry)));
        }
        let clean = log.len() as u64;
        log.extend_from_slice(&wal::frame(&hostile(&wal::encode_entry(&frames[k]))));
        let scan = wal::scan(&log);
        prop_assert!(scan.clean_len >= clean && scan.entries.len() >= k);
        for (got, want) in scan.entries.iter().zip(&frames[..k]) {
            prop_assert_eq!(wal::encode_entry(got), wal::encode_entry(want));
        }
    }
}

// ---------------------------------------------------------------------
// Persistence-codec round trips (satellite: BER proptests).
// ---------------------------------------------------------------------

/// Finite, NaN-free DPL values of bounded depth (persisted floats must
/// compare equal after the round trip, so NaN is out of scope here).
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<i32>().prop_map(|v| Value::Float(f64::from(v) / 8.0)),
        any::<bool>().prop_map(Value::Bool),
        "[a-z0-9 ]{0,12}".prop_map(Value::Str),
        Just(Value::Nil),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::list)
    })
}

fn account_strategy() -> impl Strategy<Value = DpiAccountSnapshot> {
    proptest::collection::vec(any::<u64>(), 10..11).prop_map(|v| DpiAccountSnapshot {
        invocations_ok: v[0],
        invocations_failed: v[1],
        busy_ns: v[2],
        vm_fuel: v[3],
        bytes_in: v[4],
        bytes_out: v[5],
        notifications: v[6],
        log_lines: v[7],
        queue_drops: v[8],
        last_trace_id: v[9],
    })
}

proptest! {
    /// Checkpoint blobs round-trip over arbitrary VM globals, account
    /// totals and quotas.
    #[test]
    fn checkpoint_blobs_round_trip(
        globals in proptest::collection::vec(value_strategy(), 0..6),
        account in account_strategy(),
        nonce_words in proptest::collection::vec(any::<u64>(), 2..3),
        dpi in any::<u64>(),
        initialized in any::<bool>(),
        quota_limit in any::<u64>(),
    ) {
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&nonce_words[0].to_be_bytes());
        nonce[8..].copy_from_slice(&nonce_words[1].to_be_bytes());
        let blob = CheckpointBlob {
            nonce,
            dpi,
            program: ProgramRecord {
                name: "agent".to_string(),
                source: PROGRAM.to_string(),
                delegated_by: "noc".to_string(),
            },
            image: DpiImage { initialized, globals, account },
            quota: if quota_limit.is_multiple_of(2) {
                None
            } else {
                Some(DpiQuota { max_invocations: Some(quota_limit), ..DpiQuota::default() })
            },
        };
        let decoded = CheckpointBlob::decode(&blob.encode()).expect("round trip decodes");
        prop_assert_eq!(decoded, blob);
    }

    /// The WAL reader over an arbitrary prefix of a valid stream:
    /// exactly the whole frames before the cut survive, in order, and
    /// the clean length never exceeds the cut.
    #[test]
    fn wal_scan_of_any_prefix_yields_exactly_the_whole_frames(
        dpis in proptest::collection::vec(any::<u64>(), 1..20),
        cut_seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, dpi) in dpis.iter().enumerate() {
            let entry = WalEntry {
                trace_id: i as u64,
                record: if dpi.is_multiple_of(2) {
                    WalRecord::Suspend { dpi: *dpi }
                } else {
                    WalRecord::Instantiate { dpi: *dpi, dp_name: format!("dp-{dpi}") }
                },
            };
            bytes.extend_from_slice(&wal::frame(&wal::encode_entry(&entry)));
            boundaries.push(bytes.len());
        }
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        let scan = wal::scan(&bytes[..cut]);
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(scan.entries.len(), whole);
        prop_assert_eq!(scan.clean_len as usize, boundaries[whole]);
        prop_assert!(scan.clean_len as usize <= cut);
        for (i, entry) in scan.entries.iter().enumerate() {
            prop_assert_eq!(entry.trace_id, i as u64);
        }
    }

    /// The WAL reader never panics on arbitrary garbage.
    #[test]
    fn wal_scan_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let scan = wal::scan(&bytes);
        prop_assert!(scan.clean_len as usize <= bytes.len());
        prop_assert_eq!(scan.clean_len + scan.torn_bytes, bytes.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Netsim: draining an agent off a server over a WAN link.
// ---------------------------------------------------------------------

mod drain {
    use super::PROGRAM;
    use ber::BerValue;
    use mbd::auth::Principal;
    use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
    use mbd::netsim::{Actor, Context, NodeId, TimerToken};
    use mbd::rds::{codec, ErrorCode, RdsRequest, RdsResponse};

    /// A device hosting a real MbD server; only the wire is simulated.
    pub struct ServerNode {
        pub server: MbdServer,
    }

    impl ServerNode {
        pub fn new() -> ServerNode {
            let process = ElasticProcess::new(ElasticConfig::default());
            ServerNode { server: MbdServer::open(process) }
        }
    }

    impl Actor for ServerNode {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: Vec<u8>) {
            ctx.send(from, self.server.process_request(&bytes));
        }
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }

    /// A scripted manager draining one agent from server `a` to server
    /// `b`: delegate → instantiate → invoke ×2 → suspend → checkpoint →
    /// restore on `b` → terminate on `a` → resume + invoke on `b` →
    /// replay the blob (must be refused).
    pub struct DrainManager {
        pub a: NodeId,
        pub b: NodeId,
        pub step: usize,
        pub dpi: i64,
        pub blob: Vec<u8>,
        pub done: bool,
        next_id: i64,
    }

    impl DrainManager {
        pub fn new(a: NodeId, b: NodeId) -> DrainManager {
            DrainManager { a, b, step: 0, dpi: 0, blob: Vec::new(), done: false, next_id: 0 }
        }

        fn send(&mut self, ctx: &mut Context<'_>, to: NodeId, req: &RdsRequest) {
            self.next_id += 1;
            ctx.send(to, codec::encode_request(req, &Principal::new("noc"), self.next_id, None));
        }

        fn dpi(&self) -> mbd::rds::DpiId {
            mbd::rds::DpiId(self.dpi as u64)
        }
    }

    impl Actor for DrainManager {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let req = RdsRequest::DelegateProgram {
                dp_name: "drainee".to_string(),
                language: "dpl".to_string(),
                source: PROGRAM.as_bytes().to_vec(),
            };
            self.send(ctx, self.a, &req);
        }

        fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: Vec<u8>) {
            let (resp, _id) = codec::decode_response(&bytes, None).expect("decodes");
            let step = self.step;
            self.step += 1;
            match (step, resp) {
                (0, RdsResponse::Ok) => {
                    self.send(ctx, self.a, &RdsRequest::Instantiate { dp_name: "drainee".into() });
                }
                (1, RdsResponse::Instantiated { dpi }) => {
                    self.dpi = dpi.0 as i64;
                    let req =
                        RdsRequest::Invoke { dpi, entry: "bump".to_string(), args: Vec::new() };
                    self.send(ctx, self.a, &req);
                }
                (2, RdsResponse::Result { value }) => {
                    assert_eq!(value, BerValue::Integer(1));
                    let req = RdsRequest::Invoke {
                        dpi: self.dpi(),
                        entry: "bump".to_string(),
                        args: Vec::new(),
                    };
                    self.send(ctx, self.a, &req);
                }
                (3, RdsResponse::Result { value }) => {
                    assert_eq!(value, BerValue::Integer(2));
                    self.send(ctx, self.a, &RdsRequest::Suspend { dpi: self.dpi() });
                }
                (4, RdsResponse::Ok) => {
                    self.send(ctx, self.a, &RdsRequest::Checkpoint { dpi: self.dpi() });
                }
                (5, RdsResponse::Checkpointed { blob }) => {
                    self.blob = blob.clone();
                    self.send(ctx, self.b, &RdsRequest::Restore { blob });
                }
                (6, RdsResponse::Instantiated { dpi }) => {
                    assert_eq!(dpi, self.dpi(), "the image keeps its id on the new server");
                    self.send(ctx, self.a, &RdsRequest::Terminate { dpi });
                }
                (7, RdsResponse::Ok) => {
                    self.send(ctx, self.b, &RdsRequest::Resume { dpi: self.dpi() });
                }
                (8, RdsResponse::Ok) => {
                    let req = RdsRequest::Invoke {
                        dpi: self.dpi(),
                        entry: "bump".to_string(),
                        args: Vec::new(),
                    };
                    self.send(ctx, self.b, &req);
                }
                (9, RdsResponse::Result { value }) => {
                    // The running total continues where server `a`
                    // suspended it — migration lost nothing.
                    assert_eq!(value, BerValue::Integer(3));
                    let blob = self.blob.clone();
                    self.send(ctx, self.b, &RdsRequest::Restore { blob });
                }
                (10, RdsResponse::Error { code, .. }) => {
                    // The replayed blob is refused: its id is live again
                    // on `b` *and* its nonce is burned.
                    assert_eq!(code, ErrorCode::BadState);
                    self.done = true;
                }
                (step, resp) => panic!("drain step {step}: unexpected response {resp:?}"),
            }
        }

        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }
}

/// Migrating a suspended agent between two simulated servers across a
/// WAN: the whole drain — checkpoint on one side of the link, restore
/// and resume on the other — completes with the running total intact,
/// and the checkpoint blob is single-use.
#[test]
fn netsim_wan_drain_moves_the_agent_intact() {
    use mbd::netsim::{LinkSpec, Simulator};

    let mut sim = Simulator::new(7);
    let a = sim.add_node("server-a", drain::ServerNode::new());
    let b = sim.add_node("server-b", drain::ServerNode::new());
    let mgr = sim.add_node("manager", drain::DrainManager::new(a, b));
    sim.connect(mgr, a, LinkSpec::wan());
    sim.connect(mgr, b, LinkSpec::wan());
    sim.run();

    let manager = sim.actor::<drain::DrainManager>(mgr);
    assert!(manager.done, "drain script stalled at step {}", manager.step);
    let dpi = mbd::rds::DpiId(manager.dpi as u64);

    // Server A: the source copy is gone (terminated); server B: the
    // migrated copy is live, Ready, with the continued total.
    assert!(sim.actor::<drain::ServerNode>(a).server.process().list_instances().is_empty());
    let b_process = sim.actor::<drain::ServerNode>(b).server.process().clone();
    assert_eq!(
        b_process.list_instances().iter().find(|s| s.id == dpi).map(|s| s.state),
        Some(DpiState::Ready)
    );
    assert_eq!(b_process.invoke(dpi, "bump", &[]).unwrap(), Value::Int(4));
}

// ---------------------------------------------------------------------
// Dedup cold start (see docs/RDS.md): the duplicate-suppression cache
// does not survive a crash, but WAL-replayed trace ids let the rebooted
// server at least *detect* a pre-crash retry it failed to suppress.
// ---------------------------------------------------------------------

#[test]
fn post_recovery_duplicates_are_detected_as_cold_misses() {
    use mbd::auth::Principal;
    use mbd::core::MbdServer;
    use mbd::rds::{codec, RdsRequest, TraceContext};

    let dir = StateDir::new("coldmiss");
    let process = durable_process(dir.path());
    let server = MbdServer::open(process.clone());
    process.delegate("count", PROGRAM).unwrap();

    // A manager's traced instantiate executes once before the crash.
    let trace = TraceContext { trace_id: 0xC0FFEE, parent_span_id: 0 };
    let frame = codec::encode_request_traced(
        &RdsRequest::Instantiate { dp_name: "count".to_string() },
        &Principal::new("mgr"),
        7,
        None,
        trace,
    );
    server.process_request(&frame);
    assert_eq!(process.stats().instantiations, 1);
    process.durable_sync();
    drop(server);
    drop(process);

    // Crash, reboot, and the manager (which never saw its reply)
    // retries the identical frame. The dedup cache restarted cold, so
    // the effect runs AGAIN — but the WAL-replayed trace id flags it.
    let process = durable_process(dir.path());
    let server = MbdServer::open(process.clone());
    server.process_request(&frame);
    assert_eq!(process.stats().instantiations, 1, "replay rebuilt the pre-crash instantiation");

    let records = process.journal().tail(0);
    let miss = records.iter().find(|r| r.verb == "dedup.cold_miss").expect("cold miss journaled");
    assert_eq!(miss.trace_id, 0xC0FFEE);
    assert!(!miss.ok);
    assert_eq!(
        process.telemetry().snapshot().counter("rds.dedup_cold_misses"),
        Some(1),
        "rds.dedup_cold_misses counted the re-execution"
    );

    // The detection is one-shot per cold trace: a third identical frame
    // is now answered by the WARM dedup cache (no second cold miss).
    server.process_request(&frame);
    let misses = process.journal().tail(0).iter().filter(|r| r.verb == "dedup.cold_miss").count();
    assert_eq!(misses, 1);
}
