//! The daemon's core: [`Daemon`], the job table and every transition on
//! it — each verb, the worker's checkpoint and job end, and which job runs
//! next — as `&mut self` methods on one plain value. Nothing here blocks,
//! waits or talks to a peer: the shell (`server.rs`) owns the core behind
//! its one lock, and a test drives a whole daemon lifetime on one stack.
//!
//! # State directory
//!
//! `PROTOCOL.md` ("Resume after restart") specifies the layout, the
//! segment log and the recovery rule. In short: a `submit` is persisted as
//! `job-<key>.spec.json` before it is acknowledged — the job's identity,
//! and the only copy of its campaign, so the table keeps O(1) per job. An
//! unfinished job's outcomes are in its segment log ([`crate::log`]); a
//! finished one's in `job-<key>.store.json`, compacted once from the log.
//! [`Daemon::open`] re-derives every job from these files ([`recover`]); a
//! spec, store or log it cannot use parks the job [`JobState::Broken`]
//! under its file name's key, so no later `submit` writes over it.

use std::io::Write;
use std::path::{Path, PathBuf};

use st_campaign::store::{write_atomic, SCHEMA};
use st_campaign::{Campaign, ChunkControl, OutcomeStore, StoreError};

use crate::log;
use crate::protocol::{
    job_object, job_spec, read_job_spec, validate_key, Envelope, ErrorKind, JobState, JobStatus,
    Refusal, Request,
};
use crate::server::ServeConfig;

/// One submitted campaign, as the job table holds it: O(1) memory. The
/// campaign itself is in `job-<key>.spec.json`.
pub(crate) struct Job {
    pub(crate) key: String,
    pub(crate) state: JobState,
    /// Set by `cancel` while running; honored at the next checkpoint, and
    /// withdrawn by a `resume` or an identical re-`submit` before then.
    pub(crate) cancel: bool,
    pub(crate) completed: usize,
    pub(crate) total: usize,
    /// Why the job is [`JobState::Broken`]: the error kind and text every
    /// request against it is answered with.
    pub(crate) broken: Option<Refusal>,
}

/// The job table and every transition on it.
pub(crate) struct Daemon {
    dir: PathBuf,
    max_pending: usize,
    jobs: Vec<Job>,
    /// The crash hook: checkpoints left before the daemon stops as if
    /// killed.
    chunks_left: Option<u64>,
    /// The crash hook has fired: the running job stops at this checkpoint
    /// and none starts again.
    exiting: bool,
}

impl Daemon {
    /// Rebuilds the job table from `cfg`'s state directory, sorted by file
    /// name for a deterministic table order. A spec whose file name is not
    /// a valid key is skipped loudly; unreadable specs and stores, and
    /// damaged logs, produce [`JobState::Broken`] jobs that surface the
    /// error's own text on every request against them.
    pub(crate) fn open(cfg: &ServeConfig) -> Daemon {
        let dir = cfg.state_dir.clone();
        let mut names: Vec<String> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("job-") && n.ends_with(".spec.json"))
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        let mut jobs = Vec::new();
        for name in names {
            let key = &name["job-".len()..name.len() - ".spec.json".len()];
            match validate_key(key) {
                Ok(()) => jobs.push(load_job(&dir, key)),
                Err(e) => eprintln!("st-serve: skipping {name}: {e}"),
            }
        }
        Daemon {
            dir,
            max_pending: cfg.max_pending,
            jobs,
            chunks_left: cfg.exit_after_chunks,
            exiting: false,
        }
    }

    /// The reply to `request` — for `fetch-outcomes`, the `job` object the
    /// shell writes the page around, read outside its lock.
    pub(crate) fn answer(&mut self, request: &Request) -> Result<String, Refusal> {
        match request {
            Request::Hello => Ok(Envelope::ok()
                .string("server", "st-serve")
                .string("store_schema", SCHEMA)
                .finish()),
            Request::Submit { key, campaign } => self.submit(key, campaign),
            Request::Status { key } => self.status(key.as_deref()),
            Request::Cancel { key } => self.cancel(key),
            Request::Resume { key } => requeue(self.job(key)?),
            Request::FetchOutcomes { key, .. } => match self.job(key)? {
                Job {
                    broken: Some(broken),
                    ..
                } => Err(broken.clone()),
                job => Ok(job_object_of(job)),
            },
        }
    }

    /// The worker's checkpoint after a chunk of job `key`: `completed`
    /// scenarios have an outcome on disk. Stops the job when a cancel is
    /// pending or the crash hook fires here.
    pub(crate) fn checkpoint(&mut self, key: &str, completed: usize) -> ChunkControl {
        let cancel = match self.job(key) {
            Ok(job) => {
                job.completed = completed;
                job.cancel
            }
            Err(_) => false,
        };
        if let Some(left) = &mut self.chunks_left {
            *left = left.saturating_sub(1);
            self.exiting |= *left == 0;
        }
        if self.exiting || cancel {
            ChunkControl::Stop
        } else {
            ChunkControl::Continue
        }
    }

    /// Files how job `key`'s run ended: finished with its store compacted
    /// (`Ok(true)`), stopped at a checkpoint (`Ok(false)`), or broken.
    pub(crate) fn ended(&mut self, key: &str, result: Result<bool, Refusal>) {
        let exiting = self.exiting;
        let Ok(job) = self.job(key) else { return };
        match result {
            Ok(true) => {
                job.completed = job.total;
                job.state = JobState::Done;
            }
            Ok(false) if exiting => job.state = JobState::Interrupted,
            Ok(false) if job.cancel => job.state = JobState::Cancelled,
            // The cancel that stopped it was withdrawn since: it runs on.
            Ok(false) => job.state = JobState::Queued,
            Err(broken) => {
                job.state = JobState::Broken;
                job.broken = Some(broken);
            }
        }
        job.cancel = false;
    }

    /// Marks the first queued job in table order `running` and names it —
    /// never while a job runs, and never once the crash hook has fired.
    pub(crate) fn next_run(&mut self) -> Option<String> {
        if self.exiting || self.jobs.iter().any(|j| j.state == JobState::Running) {
            return None;
        }
        let job = self.jobs.iter_mut().find(|j| j.state == JobState::Queued)?;
        job.state = JobState::Running;
        Some(job.key.clone())
    }

    /// The crash hook has fired: the daemon stops as if killed.
    pub(crate) fn exiting(&self) -> bool {
        self.exiting
    }

    /// The job under `key`, or the `unknown-job` refusal.
    fn job(&mut self, key: &str) -> Result<&mut Job, Refusal> {
        let job = self.jobs.iter_mut().find(|j| j.key == key);
        job.ok_or_else(|| (ErrorKind::UnknownJob, format!("no job under key {key:?}")))
    }

    fn submit(&mut self, key: &str, campaign: &Campaign) -> Result<String, Refusal> {
        // From here on the campaign is its canonical spec text: that is what
        // is persisted, compared, and decoded again by the worker.
        let spec = job_spec(key, campaign);
        let total = campaign.len();
        let path = spec_path(&self.dir, key);
        if let Ok(job) = self.job(key) {
            let persisted = std::fs::read_to_string(&path).map_err(|e| {
                let message = format!("cannot read the persisted spec of job {key:?}: {e}");
                (ErrorKind::Internal, message)
            })?;
            if persisted.trim_end() != spec {
                return Err((
                    ErrorKind::SpecMismatch,
                    format!(
                        "job {key:?} already exists with a different campaign spec — \
                         submit under a new key instead of mutating a sweep's identity"
                    ),
                ));
            }
            // Idempotent re-submit: the resume-after-restart path.
            return requeue(job);
        }

        let in_flight: usize = self
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
            .map(|j| j.total - j.completed)
            .sum();
        if in_flight + total > self.max_pending {
            return Err((
                ErrorKind::Busy,
                format!(
                    "daemon is at capacity: {in_flight} scenario(s) in flight, {total} more \
                     would exceed --max-pending {} — retry later",
                    self.max_pending
                ),
            ));
        }

        // Persist before acknowledging: a confirmed submit survives a kill.
        let written = write_atomic(&path, |w| {
            w.write_all(spec.as_bytes())?;
            w.write_all(b"\n")
        });
        if let Err(e) = written {
            return Err((ErrorKind::Internal, format!("cannot persist job spec: {e}")));
        }
        self.jobs.push(Job {
            key: key.to_string(),
            state: JobState::Queued,
            cancel: false,
            completed: 0,
            total,
            broken: None,
        });
        Ok(job_reply(self.jobs.last().expect("just pushed")).finish())
    }

    fn status(&mut self, key: Option<&str>) -> Result<String, Refusal> {
        let Some(key) = key else {
            let mut sorted: Vec<&Job> = self.jobs.iter().collect();
            sorted.sort_by(|a, b| a.key.cmp(&b.key));
            let reply = Envelope::ok().member("jobs", |out| {
                out.push('[');
                for (i, job) in sorted.into_iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&job_object_of(job));
                }
                out.push(']');
            });
            return Ok(reply.finish());
        };
        Ok(job_reply(self.job(key)?).finish())
    }

    fn cancel(&mut self, key: &str) -> Result<String, Refusal> {
        let job = self.job(key)?;
        match job.state {
            JobState::Queued => job.state = JobState::Cancelled,
            JobState::Running => job.cancel = true,
            _ => {}
        }
        let requested = if job.cancel { "true" } else { "false" };
        let reply = job_reply(job).member("cancel_requested", |out| out.push_str(requested));
        Ok(reply.finish())
    }
}

/// `resume`, and an identical re-`submit`: a broken job answers with why;
/// a parked one requeues; a pending cancel is withdrawn; live and finished
/// jobs just report.
fn requeue(job: &mut Job) -> Result<String, Refusal> {
    if let Some(broken) = &job.broken {
        return Err(broken.clone());
    }
    if matches!(job.state, JobState::Interrupted | JobState::Cancelled) {
        job.state = JobState::Queued;
    }
    job.cancel = false;
    Ok(job_reply(job).finish())
}

/// `job`'s `job` object.
fn job_object_of(job: &Job) -> String {
    let status = JobStatus {
        key: job.key.clone(),
        state: job.state,
        total: job.total as u64,
        completed: job.completed as u64,
    };
    job_object(&status, job.broken.as_ref().map(|(_, why)| why.as_str()))
}

/// A success reply carrying `job`.
fn job_reply(job: &Job) -> Envelope {
    Envelope::ok().member("job", |out| out.push_str(&job_object_of(job)))
}

/// The job the state directory holds under `key`, whose spec file exists.
fn load_job(dir: &Path, key: &str) -> Job {
    let (state, completed, total, broken) = match rescan(dir, key) {
        Ok((state, completed, total)) => (state, completed, total, None),
        Err(why) => (JobState::Broken, 0, 0, Some(why)),
    };
    Job {
        key: key.to_string(),
        state,
        cancel: false,
        completed,
        total,
        broken,
    }
}

/// Job `key`'s state, completed and total scenarios, re-derived from its
/// spec and outcomes.
fn rescan(dir: &Path, key: &str) -> Result<(JobState, usize, usize), Refusal> {
    let (inner, mut campaign) = load_spec(&spec_path(dir, key))?;
    if inner != key {
        let why = format!("job spec names key {inner:?}, its file name key {key:?}");
        return Err((ErrorKind::Internal, why));
    }
    let Recovered {
        store, compacted, ..
    } = recover(dir, key).map_err(|e| broken_by(&e))?;
    let total = campaign.len();
    let completed = campaign.skip_completed(&store, key).len();
    if compacted {
        // The store wins over a log that a kill between compaction's rename
        // and its removal left behind.
        let _ = std::fs::remove_file(log_path(dir, key));
    }
    // `done` means the compacted store covers the campaign; a log that does
    // is one requeue (and no scenario) away from it.
    let state = if compacted && completed == total {
        JobState::Done
    } else {
        JobState::Interrupted
    };
    Ok((state, completed, total))
}

/// Decodes a persisted job spec into its key and campaign: a spec of
/// another job schema is `schema-mismatch`, any other failure `internal`.
pub(crate) fn load_spec(path: &Path) -> Result<(String, Campaign), Refusal> {
    let text = std::fs::read_to_string(path).map_err(|e| (ErrorKind::Internal, e.to_string()))?;
    read_job_spec(&text)
}

/// A persisted store that cannot be used: another schema is the protocol's
/// `schema-mismatch`, anything else (unreadable, malformed, damaged log)
/// is `internal`.
pub(crate) fn broken_by(e: &StoreError) -> Refusal {
    let kind = match e {
        StoreError::SchemaMismatch { .. } => ErrorKind::SchemaMismatch,
        _ => ErrorKind::Internal,
    };
    (kind, e.to_string())
}

pub(crate) fn spec_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.spec.json"))
}

pub(crate) fn store_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.store.json"))
}

pub(crate) fn log_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("job-{key}.store.log"))
}

/// `Ok(None)` for a file that is not there; other errors stay errors.
fn if_found<T>(read: std::io::Result<T>) -> std::io::Result<Option<T>> {
    match read {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Compaction, the one whole-store write of a job's life: the finished
/// store is streamed to `job-<key>.store.json` (a temp sibling, renamed
/// into place), then the log goes away. A kill in between leaves both, and
/// the store wins ([`recover`]).
pub(crate) fn compact(store: &OutcomeStore, dir: &Path, key: &str) -> std::io::Result<()> {
    write_atomic(&store_path(dir, key), |w| store.write_to(w))?;
    if_found(std::fs::remove_file(log_path(dir, key))).map(|_| ())
}

/// A job's persisted outcomes, decoded.
pub(crate) struct Recovered {
    pub(crate) store: OutcomeStore,
    /// `store` is the compacted store file, not a replayed log.
    pub(crate) compacted: bool,
    /// The log's committed length when `store` came from it, else 0: what
    /// the log is truncated to before the worker appends to it again.
    pub(crate) log_len: u64,
}

/// Reads what the state directory holds for `key`'s outcomes: the store
/// file if there is one, else the log's committed segments (a torn tail
/// is dropped), else nothing. Safe to call while the worker is appending
/// or compacting.
pub(crate) fn recover(dir: &Path, key: &str) -> Result<Recovered, StoreError> {
    let store = store_path(dir, key);
    let compacted = |text: String| {
        Ok(Recovered {
            store: OutcomeStore::from_json_str(&text)?,
            compacted: true,
            log_len: 0,
        })
    };
    if let Some(text) = if_found(std::fs::read_to_string(&store))? {
        return compacted(text);
    }
    if let Some(bytes) = if_found(std::fs::read(log_path(dir, key)))? {
        let replay = log::replay(&bytes).map_err(StoreError::Malformed)?;
        return Ok(Recovered {
            store: OutcomeStore::from_entries(replay.entries)?,
            compacted: false,
            log_len: replay.committed_len as u64,
        });
    }
    // Compaction renames the store into place before it removes the log:
    // if neither was there, one may have finished between the two looks.
    match if_found(std::fs::read_to_string(&store))? {
        Some(text) => compacted(text),
        None => Ok(Recovered {
            store: OutcomeStore::new(),
            compacted: false,
            log_len: 0,
        }),
    }
}

#[cfg(test)]
impl Daemon {
    /// The job table, in table order.
    pub(crate) fn jobs(&self) -> &[Job] {
        &self.jobs
    }
}
