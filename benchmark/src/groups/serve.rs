//! The daemon from a client's side: an in-process `st-serve` bound to a
//! loopback port, and one job driven submit → poll → fetch with a span
//! around each `ServeClient` call.

use std::path::Path;

use st_campaign::{Campaign, OutcomeStore};
use st_serve::{ClientError, JobState, ServeClient, ServeConfig, Server, DEFAULT_POLL};

use crate::groups::store::CHUNK;
use crate::trace::Tracer;

/// Binds a daemon (one campaign worker, the default checkpoint interval) on
/// a fresh state directory and serves it from a background thread.
///
/// `Server::run` has no shutdown path short of killing the process (its
/// documented way to stop), so the thread is left parked in `accept` until
/// the benchmark process exits.
pub fn spawn_daemon(state_dir: &Path) -> ServeClient {
    let mut cfg = ServeConfig::new(state_dir);
    cfg.threads = 1;
    cfg.chunk = CHUNK;
    let server = Server::bind("127.0.0.1:0", cfg).expect("loopback port and state dir");
    let client = ServeClient::new(server.local_addr().to_string());
    std::thread::spawn(move || server.run());
    client
}

/// One served campaign, as `ServeClient::run_campaign` drives it, but
/// keeping the fetched store (whose bytes the caller checks against the
/// batch drive). One piece: `serve.job` (count = scenarios) ⊃
/// `serve.submit`, `serve.run_wait` (count = status polls), `serve.fetch`.
pub fn serve_job(
    tracer: &Tracer,
    client: &ServeClient,
    key: &str,
    campaign: &Campaign,
) -> Result<OutcomeStore, ClientError> {
    tracer.piece("serve.job", key, || {
        (
            submit_wait_fetch(tracer, client, key, campaign),
            campaign.len() as u64,
        )
    })
}

fn submit_wait_fetch(
    tracer: &Tracer,
    client: &ServeClient,
    key: &str,
    campaign: &Campaign,
) -> Result<OutcomeStore, ClientError> {
    tracer.span("serve.submit", key, || client.submit(key, campaign))?;
    tracer.counted("serve.run_wait", key, || {
        let mut polls = 0u64;
        let ended = loop {
            polls += 1;
            match client.status(key).map(|job| job.state) {
                Ok(JobState::Done) => break Ok(()),
                Ok(JobState::Queued | JobState::Running) => std::thread::sleep(DEFAULT_POLL),
                Ok(other) => {
                    break Err(ClientError::Failed(format!(
                        "st-serve job {key:?} ended {}",
                        other.wire()
                    )))
                }
                Err(e) => break Err(e),
            }
        };
        (ended, polls)
    })?;
    let (_, store) = tracer.span("serve.fetch", key, || client.fetch_store(key))?;
    Ok(store)
}

/// `hello` round trips (connect, one frame each way, close).
pub fn hello_probe(tracer: &Tracer, client: &ServeClient) {
    const HELLOS: u64 = 50;
    tracer.counted("serve.hello", "hello", || {
        for _ in 0..HELLOS {
            client.hello().expect("the daemon is up");
        }
        ((), HELLOS)
    });
}
