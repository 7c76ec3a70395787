//! The dpi lifecycle legality matrix, checked through the full RDS
//! layer (client codec → server dispatch → sharded table) rather than
//! against `ElasticProcess` directly.
//!
//! Each verb is tried in each administratively reachable state (Ready,
//! Suspended, Terminated) and must land exactly where the design says:
//! either success or a remote `BadState` / `NoSuchInstance`. A
//! terminated dpi leaves the table, so every verb aimed at it is
//! `NoSuchInstance` and no listing shows it. The transient `Running`
//! state only exists inside an invocation window and is covered by the
//! core runtime's concurrency unit tests.
//!
//! On top of the exhaustive table, a property test drives random verb
//! sequences against a three-state reference model and requires the
//! server to agree with the model after every step.

use mbd::core::{ElasticConfig, ElasticProcess, MbdServer};
use mbd::rds::{DpiId, DpiState, ErrorCode, LoopbackDuplex, RdsClient, RdsError};
use proptest::prelude::*;
use std::sync::Arc;

const PROGRAM: &str = "fn main() { return 0; }";

fn fixture() -> (RdsClient<LoopbackDuplex>, ElasticProcess) {
    let process = ElasticProcess::new(ElasticConfig::default());
    let server = Arc::new(MbdServer::open(process.clone()));
    let client =
        RdsClient::new(LoopbackDuplex::new(move |b: &[u8]| server.process_request(b)), "matrix");
    client.delegate("noop", PROGRAM).expect("delegates");
    (client, process)
}

/// Every RDS verb that targets an existing dpi, plus the process-level
/// `ReadJournal` diagnostic (legal in every state, never a transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Invoke,
    Suspend,
    Resume,
    Terminate,
    Message,
    ReadJournal,
    Checkpoint,
}

const VERBS: [Verb; 7] = [
    Verb::Invoke,
    Verb::Suspend,
    Verb::Resume,
    Verb::Terminate,
    Verb::Message,
    Verb::ReadJournal,
    Verb::Checkpoint,
];

/// Applies `verb`, reducing the outcome to success or the remote code.
fn apply(client: &RdsClient<LoopbackDuplex>, dpi: DpiId, verb: Verb) -> Result<(), ErrorCode> {
    let outcome = match verb {
        Verb::Invoke => client.invoke(dpi, "main", &[]).map(|_| ()),
        Verb::Suspend => client.suspend(dpi),
        Verb::Resume => client.resume(dpi),
        Verb::Terminate => client.terminate(dpi),
        Verb::Message => client.send_message(dpi, b"ping"),
        Verb::ReadJournal => client.read_journal(8).map(|_| ()),
        Verb::Checkpoint => client.checkpoint(dpi).map(|_| ()),
    };
    outcome.map_err(|e| match e {
        RdsError::Remote { code, .. } => code,
        other => panic!("{verb:?} on {dpi:?}: unexpected error {other:?}"),
    })
}

/// The design's legality matrix: how `verb` answers in `state`, and
/// which state the dpi holds afterwards. (Refused verbs must not move
/// it.)
fn matrix(state: DpiState, verb: Verb) -> (Result<(), ErrorCode>, DpiState) {
    use DpiState::{Ready, Suspended, Terminated};
    use ErrorCode::{BadState, NoSuchInstance};
    match (state, verb) {
        // ReadJournal is a process-level diagnostic: legal everywhere,
        // and it never moves the dpi.
        (_, Verb::ReadJournal) => (Ok(()), state),
        (Ready, Verb::Invoke | Verb::Message) => (Ok(()), Ready),
        (Ready, Verb::Suspend) => (Ok(()), Suspended),
        (Ready, Verb::Resume | Verb::Checkpoint) => (Err(BadState), Ready),
        (Suspended, Verb::Resume) => (Ok(()), Ready),
        // Checkpoint is read-only: a quiesced image leaves the source
        // dpi exactly where it was.
        (Suspended, Verb::Message | Verb::Checkpoint) => (Ok(()), Suspended),
        (Suspended, Verb::Invoke | Verb::Suspend) => (Err(BadState), Suspended),
        (Ready | Suspended, Verb::Terminate) => (Ok(()), Terminated),
        // The terminated dpi left the table.
        (Terminated, _) => (Err(NoSuchInstance), Terminated),
        (DpiState::Running, _) => unreachable!("Running is unreachable single-threaded"),
    }
}

/// Drives a fresh dpi into `state`.
fn reach(client: &RdsClient<LoopbackDuplex>, state: DpiState) -> DpiId {
    let dpi = client.instantiate("noop").expect("instantiates");
    match state {
        DpiState::Ready => {}
        DpiState::Suspended => client.suspend(dpi).expect("suspends"),
        DpiState::Terminated => client.terminate(dpi).expect("terminates"),
        DpiState::Running => unreachable!("Running is unreachable single-threaded"),
    }
    dpi
}

/// The state the listing shows for `dpi`; `None` once it left the table.
fn reported_state(process: &ElasticProcess, dpi: DpiId) -> Option<DpiState> {
    process.list_instances().into_iter().find(|s| s.id == dpi).map(|s| s.state)
}

/// What the listing must show for a dpi the matrix holds in `state`.
fn listed(state: DpiState) -> Option<DpiState> {
    (state != DpiState::Terminated).then_some(state)
}

#[test]
fn every_verb_lands_exactly_where_the_matrix_says() {
    let (client, process) = fixture();
    for state in [DpiState::Ready, DpiState::Suspended, DpiState::Terminated] {
        for verb in VERBS {
            let dpi = reach(&client, state);
            let (answer, after) = matrix(state, verb);
            assert_eq!(apply(&client, dpi, verb), answer, "{verb:?} in {state:?}");
            assert_eq!(
                reported_state(&process, dpi),
                listed(after),
                "{verb:?} applied in {state:?} must leave the dpi in {after:?}"
            );
        }
    }
}

proptest! {
    #[test]
    fn random_verb_sequences_never_leave_the_matrix(
        verbs in proptest::collection::vec(0usize..7, 1..60),
    ) {
        let (client, process) = fixture();
        let dpi = client.instantiate("noop").expect("instantiates");
        let mut model = DpiState::Ready;
        for &v in &verbs {
            let verb = VERBS[v];
            let (answer, next) = matrix(model, verb);
            let outcome = apply(&client, dpi, verb);
            prop_assert_eq!(outcome, answer, "{:?} in {:?} disagreed with the model", verb, model);
            model = next;
            prop_assert_eq!(reported_state(&process, dpi), listed(model));
        }
    }
}

/// Restore is the odd verb out: it targets a dpi id that must be
/// *unknown* to the receiving server. Over the dpi's own id it is an
/// identity collision (`BadState`), and a blob is single-use — the
/// second install of the same image is refused even after the first
/// copy is gone.
#[test]
fn restore_is_legal_only_for_unknown_dpi_ids() {
    let (client, process) = fixture();
    let dpi = reach(&client, DpiState::Suspended);
    let blob = client.checkpoint(dpi).expect("checkpoint from Suspended");

    // The source dpi still exists here: restoring its image over its
    // own id must be refused, and must not disturb the original.
    let err = client.restore(&blob).expect_err("restore over a live id");
    assert!(matches!(err, RdsError::Remote { code: ErrorCode::BadState, .. }));
    assert_eq!(reported_state(&process, dpi), Some(DpiState::Suspended));

    // A second server has never seen this id: restore succeeds there,
    // preserving the id and landing Suspended.
    let (peer, peer_process) = fixture();
    let restored = peer.restore(&blob).expect("restore on a fresh server");
    assert_eq!(restored, dpi, "the image keeps its dpi id");
    assert_eq!(reported_state(&peer_process, restored), Some(DpiState::Suspended));

    // The nonce is burned: replaying the identical blob on the same
    // receiver is refused even though terminating first frees the id,
    // so the refusal below can only be the nonce.
    peer.terminate(restored).expect("terminates the restored copy");
    let err = peer.restore(&blob).expect_err("nonce replay");
    assert!(matches!(err, RdsError::Remote { code: ErrorCode::BadState, .. }));
}

/// A blob that does not decode is a translation-layer failure, not a
/// lifecycle one.
#[test]
fn restore_rejects_garbage_blobs() {
    let (client, _process) = fixture();
    let err = client.restore(b"not a checkpoint").expect_err("garbage blob");
    assert!(matches!(err, RdsError::Remote { code: ErrorCode::TranslationFailed, .. }));
}
