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
    let process =
        ElasticProcess::new(ElasticConfig { keep_terminated: true, ..ElasticConfig::default() });
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
/// prefix must reproduce. Invocation counts are tracked independently
/// (one per `Invoke` record) so they cross-check the persisted account.
#[derive(Default)]
struct Model {
    programs: Vec<String>,
    dpis: BTreeMap<u64, (String, DpiState, u64, i64)>,
}

fn replay_model(entries: &[WalEntry]) -> Model {
    let mut m = Model::default();
    for entry in entries {
        match &entry.record {
            WalRecord::Delegate { name, .. } => {
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
            WalRecord::Terminate { dpi } => {
                m.dpis.get_mut(dpi).unwrap().1 = DpiState::Terminated;
            }
            WalRecord::SetQuota { .. } => {}
            WalRecord::Invoke { dpi, state, globals, .. } => {
                let slot = m.dpis.get_mut(dpi).unwrap();
                slot.1 = *state;
                slot.2 += 1;
                if let Some(Value::Int(total)) = globals.first() {
                    slot.3 = *total;
                }
            }
            WalRecord::Restore { dpi, dp_name, globals, .. } => {
                let total = match globals.first() {
                    Some(Value::Int(t)) => *t,
                    _ => 0,
                };
                m.dpis.insert(*dpi, (dp_name.clone(), DpiState::Suspended, 0, total));
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

/// The full, undamaged restart: everything comes back, and the journal
/// carries the restored/abandoned counts.
#[test]
fn clean_restart_restores_every_dpi() {
    let dir = StateDir::new("clean");
    let (a, b) = run_workflow(&durable_process(dir.path()));

    let recovered = durable_process(dir.path());
    assert_eq!(
        recovered.list_instances().len(),
        2,
        "both dpis return (terminated one retained for diagnostics)"
    );
    // `a` ended terminated; `b` is Ready with total 1 and its quota.
    assert_eq!(recovered.invoke(b, "bump", &[]).unwrap(), Value::Int(2));
    let err = recovered.invoke(a, "bump", &[]).unwrap_err();
    assert!(matches!(err, mbd::core::CoreError::BadState { .. }));
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
/// (Terminated slots are dropped here — `keep_terminated: false` — so
/// the refusal can only come from the burned nonce, not an id
/// collision.)
#[test]
fn burned_nonces_survive_restart() {
    let dir = StateDir::new("nonce");
    let fresh = || {
        let p = ElasticProcess::new(ElasticConfig {
            keep_terminated: false,
            ..ElasticConfig::default()
        });
        p.attach_durability(dir.path(), 8).expect("durability attaches");
        p
    };
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
            dp_name: "agent".to_string(),
            source: PROGRAM.to_string(),
            principal: "noc".to_string(),
            initialized,
            globals,
            account,
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
    let a_state = sim
        .actor::<drain::ServerNode>(a)
        .server
        .process()
        .list_instances()
        .iter()
        .find(|s| s.id == dpi)
        .map(|s| s.state);
    assert_eq!(a_state, Some(DpiState::Terminated));
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
