//! Store and wire probes: the outcome codec, the store file, canonical
//! JSON and the frame codec, timed on one campaign's outcomes and on the
//! store the calling workload uses (one job's 1024 entries for
//! `campaign_served`, 10⁵ entries for `store_resume`).

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;

use st_campaign::store::encode_outcome;
use st_campaign::{Campaign, ChunkControl, OutcomeStore, ScenarioOutcome};
use st_core::frame::{read_frame, write_frame};
use st_core::Json;

use crate::trace::Tracer;

/// The daemon's checkpoint interval (`ServeConfig::new`'s default), so the
/// checkpoint probe counts the bytes a served job really rewrites.
pub const CHUNK: usize = 8;

/// Probes on `campaign` (recorded under `key`, with `outcomes` its batch
/// results) and on `store`, which holds that campaign's entries and maybe
/// many more. Files go under `tmp`.
pub fn store_probes(
    tracer: &Tracer,
    tmp: &Path,
    key: &str,
    campaign: &Campaign,
    outcomes: &[ScenarioOutcome],
    store: &OutcomeStore,
    reps: usize,
) {
    let scenarios = campaign.len() as u64;
    let path = tmp.join("probe-store.json");
    for _ in 0..reps {
        tracer.counted("campaign.store.encode_outcome", key, || {
            for o in outcomes {
                black_box(encode_outcome(o));
            }
            ((), scenarios)
        });
        let single = tracer.counted("campaign.store.record", key, || {
            let mut rec = OutcomeStore::new();
            for (s, o) in campaign.scenarios().iter().zip(outcomes) {
                rec.record(key, s, o);
            }
            (rec, scenarios)
        });

        let text = tracer.counted("campaign.store.to_json", key, || {
            let text = store.to_json_string();
            let bytes = text.len() as u64;
            (text, bytes)
        });
        let bytes = text.len() as u64;
        tracer.counted("campaign.store.save", key, || {
            store.save(&path).expect("probe store is writable");
            ((), bytes)
        });
        tracer.counted("campaign.store.from_json", key, || {
            let parsed = OutcomeStore::from_json_str(&text).expect("own bytes parse");
            (black_box(parsed), bytes)
        });
        tracer.counted("campaign.store.load", key, || {
            let loaded = OutcomeStore::load(&path).expect("own file loads");
            (black_box(loaded), bytes)
        });
        tracer.counted("campaign.store.lookup", key, || {
            for (s, &rank) in campaign.scenarios().iter().zip(campaign.ranks()) {
                let hit = store.lookup(key, rank, s);
                assert!(hit.is_some(), "the store holds the probed campaign");
            }
            ((), scenarios)
        });

        let doc = tracer.counted("core.json.parse", key, || {
            (Json::parse(&text).expect("own bytes parse"), bytes)
        });
        tracer.counted("core.json.to_string", key, || {
            let out = doc.to_string();
            let n = out.len() as u64;
            (black_box(out), n)
        });

        // The chunked drive alone, then with the daemon's per-chunk work
        // (re-encode the whole store so far), against the plain drive.
        tracer.counted("campaign.campaign.run_parallel_ref", key, || {
            (black_box(campaign.run_parallel(1)), scenarios)
        });
        tracer.counted("campaign.campaign.run_chunked_noop", key, || {
            let mut rec = OutcomeStore::new();
            campaign.run_chunked(1, key, None, &mut rec, CHUNK, |_, _, _| {
                ChunkControl::Continue
            });
            (black_box(rec), scenarios)
        });
        tracer.counted("campaign.store.checkpoint", key, || {
            let mut rec = OutcomeStore::new();
            let mut written = 0u64;
            campaign.run_chunked(1, key, None, &mut rec, CHUNK, |so_far, _, _| {
                written += so_far.to_json_string().len() as u64;
                ChunkControl::Continue
            });
            (black_box(rec), written)
        });

        frame_probes(tracer, key, &single);
    }
    let _ = std::fs::remove_file(&path);
}

/// Frame round trips over a loopback socket to an echo thread: a small
/// request-sized frame many times, and `store` (one campaign's entries,
/// far under the frame cap) as a single frame each way.
fn frame_probes(tracer: &Tracer, key: &str, store: &OutcomeStore) {
    const SMALL_TRIPS: u64 = 200;
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback is available");
    let addr = listener.local_addr().expect("bound above");
    let small = Json::obj([
        ("proto", Json::str("st-serve/v1")),
        ("verb", Json::str("status")),
        ("key", Json::str(key)),
    ]);
    let text = store.to_json_string();
    let big = Json::parse(&text).expect("own bytes parse");
    // Bytes moved by the store frame: the payload out and back.
    let big_bytes = 2 * text.len() as u64;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut peer, _) = listener.accept().expect("the probe connects");
            peer.set_nodelay(true).expect("loopback socket option");
            while let Ok(frame) = read_frame(&mut peer) {
                if write_frame(&mut peer, &frame).is_err() {
                    break;
                }
            }
        });
        let mut sock = TcpStream::connect(addr).expect("echo thread is listening");
        // `write_frame` writes prefix and payload separately; on a kept-open
        // connection Nagle would hold the payload for the peer's delayed ACK.
        sock.set_nodelay(true).expect("loopback socket option");
        tracer.counted("core.frame.small_rtt", key, || {
            for _ in 0..SMALL_TRIPS {
                write_frame(&mut sock, &small).expect("echo is up");
                black_box(read_frame(&mut sock).expect("echo answers"));
            }
            ((), SMALL_TRIPS)
        });
        tracer.counted("core.frame.store", key, || {
            write_frame(&mut sock, &big).expect("echo is up");
            let back = read_frame(&mut sock).expect("echo answers");
            (black_box(back), big_bytes)
        });
        // Dropping the socket ends the echo loop; the scope joins it.
    });
}
