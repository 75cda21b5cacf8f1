//! Advisory store locking.
//!
//! Mutations take `<root>/LOCK`, created with `O_CREAT|O_EXCL` so exactly
//! one writer wins. The file names its holder:
//!
//! ```text
//! histpc-lock v1
//! pid 41172
//! epoch 7
//! ```
//!
//! A crashed holder leaves the file behind; acquisition (and `fsck`)
//! detects staleness by checking `/proc/<pid>` and breaks dead locks
//! automatically. Contention against a *live* holder retries briefly —
//! store mutations are millisecond-scale — and then fails with
//! [`LockError::Held`] rather than deadlocking two sessions.
//!
//! The optional `epoch` line is written by daemon incarnations (see
//! [`set_lease_epoch`]). PID liveness alone cannot tell a daemon's *own
//! pre-crash* lock apart from a live foreign holder when the OS reuses
//! the pid; a monotonic per-store lease epoch can. A holder whose
//! recorded epoch is *older* than the current process epoch is a
//! previous incarnation on the same store and is broken as stale even
//! if its pid happens to name a live (reused) process. Plain CLI
//! sessions never set an epoch and are judged by pid liveness alone.
//!
//! Every thread of a process shares its pid, so the file cannot tell two
//! threads apart. Within a process a per-root guard therefore queues
//! acquirers before they touch the file: at most one thread per store
//! root races other processes for `LOCK` at a time.

use crate::durable::{self, RealFs, Vfs};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Header line of the lock file.
pub const LOCK_HEADER: &str = "histpc-lock v1";

/// File name of the lock inside the store root.
pub const LOCK_FILE: &str = "LOCK";

const RETRY_EVERY: Duration = Duration::from_millis(25);
const GIVE_UP_AFTER: Duration = Duration::from_secs(2);

/// Distinguishes concurrent acquires (tomb names, backoff decorrelation)
/// within one process, where the pid alone cannot.
static ACQUIRE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Store roots whose lock a thread of this process holds or is taking.
static HELD_ROOTS: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

/// Takes this process's guard for `root`, polling every [`RETRY_EVERY`]
/// while another thread holds it, until `deadline`.
///
/// A waiter polls, as it does for another process's `LOCK`, rather than
/// waking the moment the holder releases: a prompt hand-off keeps two
/// sessions that save together in lockstep, and on histbench's
/// `daemon_fleet` (2 vCPUs) that raised the median op time by about a
/// quarter.
fn claim_root(root: &Path, deadline: std::time::Instant) -> Result<PathBuf, LockError> {
    let key = durable::canonical(root);
    // The set is only ever inserted into or removed from whole, so a
    // panicking holder cannot leave it half-updated.
    while !HELD_ROOTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key.clone())
    {
        // det-audit: allow(wall-clock) — same give-up deadline as the file wait.
        if std::time::Instant::now() >= deadline {
            return Err(LockError::Held {
                pid: std::process::id(),
            });
        }
        std::thread::sleep(RETRY_EVERY);
    }
    Ok(key)
}

/// Releases a guard taken by [`claim_root`].
fn release_root(key: &Path) {
    HELD_ROOTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(key);
}

/// The current process's lease epoch; 0 means "unset" (plain CLI
/// session). Stamped into every lock file this process writes.
static LEASE_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Declares this process's monotonic lease epoch (a daemon incarnation
/// number, persisted per store and bumped on every daemon start). Locks
/// written afterwards carry an `epoch N` line, and [`StoreLock::acquire`]
/// treats any holder with a *strictly older* epoch as stale — a previous
/// incarnation of the daemon on this store — even if its pid was reused
/// by a live process. Passing 0 clears the epoch.
pub fn set_lease_epoch(epoch: u64) {
    LEASE_EPOCH.store(epoch, std::sync::atomic::Ordering::SeqCst);
}

/// The lease epoch declared via [`set_lease_epoch`], if any.
pub fn lease_epoch() -> Option<u64> {
    match LEASE_EPOCH.load(std::sync::atomic::Ordering::SeqCst) {
        0 => None,
        e => Some(e),
    }
}

/// Deterministic decorrelated backoff: derived from the pid and a
/// per-acquire nonce (never a wall clock or RNG), so two waiters that
/// both just broke the same dead lock re-race at different times
/// instead of stampeding `create_new` in lockstep.
fn jittered(nonce: u64, attempt: u32) -> Duration {
    let salt = (u64::from(std::process::id()) ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .rotate_left(attempt % 63);
    let cap_us = 1_000 * u64::from(attempt.min(4) + 1);
    RETRY_EVERY / 5 + Duration::from_micros(salt % cap_us)
}

/// Why the lock could not be taken.
#[derive(Debug)]
pub enum LockError {
    /// Another live process holds the lock.
    Held {
        /// Its pid (0 if the lock file was unreadable).
        pid: u32,
    },
    /// Filesystem failure.
    Io(io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Held { pid } => {
                write!(f, "store is locked by live process {pid}")
            }
            LockError::Io(e) => write!(f, "store lock I/O error: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> Self {
        LockError::Io(e)
    }
}

/// True if `pid` names a live process. Uses `/proc`; on systems without
/// procfs the holder is conservatively assumed alive (a stale lock then
/// needs `histpc store repair --force-unlock` — better than two writers).
pub fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.exists() {
        proc_root.join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Who a lock file says holds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HolderMeta {
    /// Holder pid; 0 if the file was malformed (unknown, treated stale).
    pub pid: u32,
    /// Lease epoch the holder declared, if any (daemon incarnations
    /// only; plain CLI locks carry no epoch line).
    pub epoch: Option<u64>,
}

/// Reads the pid recorded in a lock file. `Ok(None)` if the file does
/// not exist; a malformed file reads as pid 0 (unknown, treated stale).
pub fn read_holder(lock_path: &Path) -> io::Result<Option<u32>> {
    Ok(read_holder_meta(&RealFs, lock_path)?.map(|m| m.pid))
}

/// Reads the full holder metadata (pid + optional lease epoch) from a
/// lock file. `Ok(None)` if the file does not exist; a malformed file
/// reads as pid 0 with no epoch.
pub(crate) fn read_holder_meta(fs: &dyn Vfs, lock_path: &Path) -> io::Result<Option<HolderMeta>> {
    let parse = |text: &str| {
        let mut meta = HolderMeta::default();
        let mut lines = text.lines().map(str::trim);
        if lines.next() == Some(LOCK_HEADER) {
            for line in lines {
                if let Some(p) = line.strip_prefix("pid ") {
                    meta.pid = p.trim().parse().unwrap_or(0);
                } else if let Some(e) = line.strip_prefix("epoch ") {
                    meta.epoch = e.trim().parse().ok();
                }
            }
        }
        Ok(meta)
    };
    Ok(durable::read_tolerant(fs, lock_path, false, parse)?.map(Result::unwrap_or_default))
}

/// True if this holder should be treated as stale and broken: an
/// unidentifiable or dead pid, or a declared epoch strictly older than
/// this process's own lease epoch (a previous daemon incarnation whose
/// pid may have been reused by an unrelated live process).
pub fn holder_is_stale(meta: HolderMeta) -> bool {
    holder_stale_for(meta, lease_epoch())
}

/// [`holder_is_stale`] against an explicit epoch instead of the
/// process-global one. A holder is stale when its pid is unidentifiable
/// or dead, or when both sides declare an epoch and the holder's is
/// strictly older. A holder without an epoch line (plain CLI session)
/// is judged by pid liveness alone.
pub fn holder_stale_for(meta: HolderMeta, ours: Option<u64>) -> bool {
    if meta.pid == 0 || !pid_alive(meta.pid) {
        return true;
    }
    match (meta.epoch, ours) {
        (Some(theirs), Some(ours)) => theirs < ours,
        _ => false,
    }
}

/// A held store lock; released (file removed) on drop.
#[derive(Debug)]
pub struct StoreLock<'a> {
    fs: &'a dyn Vfs,
    path: PathBuf,
    /// This process's guard for the store root, released after the file.
    root: PathBuf,
    /// True if taking the lock broke a dead holder's.
    broke: bool,
}

impl<'a> StoreLock<'a> {
    /// Acquires the lock of the store rooted at `root`, breaking stale
    /// (dead-holder) locks and briefly waiting out live holders.
    pub fn acquire(root: &Path) -> Result<StoreLock<'static>, LockError> {
        StoreLock::acquire_in(&RealFs, root)
    }

    /// Path of the lock file for a store rooted at `root`.
    pub fn path_in(root: &Path) -> PathBuf {
        root.join(LOCK_FILE)
    }

    /// True if this acquire broke the lock of a dead (or stale) holder:
    /// whatever that holder was doing to the store is unfinished.
    pub fn broke_dead_holder(&self) -> bool {
        self.broke
    }

    /// [`StoreLock::acquire`] on the file system `fs`.
    ///
    /// Dead-holder breaking is hardened against the two-breaker race
    /// (both waiters read the same dead pid and break "the" lock
    /// concurrently, the slower one destroying the faster one's fresh
    /// claim): a break renames the dead file to a per-acquire tomb
    /// instead of unlinking the shared path — so a given lock
    /// *generation* can only be broken once — and the breaker re-checks
    /// the tomb's holder after the rename, restoring a live lock it
    /// stole by mistake. Every successful `create_new` is then
    /// re-verified by reading the holder back; a claim that no longer
    /// names us was broken in the window and we retry with jittered
    /// backoff rather than assume ownership. A breaker that won re-races
    /// `create_new` at once.
    ///
    /// Threads of one process first queue on a per-root guard, so the
    /// file protocol only ever arbitrates between processes.
    pub(crate) fn acquire_in(fs: &'a dyn Vfs, root: &Path) -> Result<StoreLock<'a>, LockError> {
        // det-audit: allow(wall-clock) — lock give-up deadline; never
        // feeds recorded data, only bounds how long we wait for a peer.
        let deadline = std::time::Instant::now() + GIVE_UP_AFTER;
        let key = claim_root(root, deadline)?;
        let path = Self::path_in(root);
        match Self::acquire_file(fs, &path, deadline) {
            Ok(broke) => Ok(StoreLock {
                fs,
                path,
                root: key,
                broke,
            }),
            Err(e) => {
                release_root(&key);
                Err(e)
            }
        }
    }

    /// The cross-process half of [`StoreLock::acquire_in`]: claims the
    /// `LOCK` file at `path`, with the caller holding its root's guard.
    /// Returns whether it broke a dead holder's lock on the way.
    fn acquire_file(
        fs: &dyn Vfs,
        path: &Path,
        deadline: std::time::Instant,
    ) -> Result<bool, LockError> {
        let nonce = ACQUIRE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let me = std::process::id();
        let mut attempt: u32 = 0;
        let mut broke = false;
        loop {
            let created = match lease_epoch() {
                Some(e) => {
                    fs.create_new(path, format_args!("{LOCK_HEADER}\npid {me}\nepoch {e}\n"))
                }
                None => fs.create_new(path, format_args!("{LOCK_HEADER}\npid {me}\n")),
            };
            match created {
                Ok(()) => {
                    fs.fsync(path)?;
                    // Generation re-check: a waiter that read the
                    // previous (dead) holder may have broken our fresh
                    // claim in the window. Only the claim the file
                    // still names is the real one.
                    if read_holder_meta(fs, path)?.map_or(0, |m| m.pid) == me {
                        return Ok(broke);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let meta = read_holder_meta(fs, path)?.unwrap_or_default();
                    let holder = meta.pid;
                    if holder_is_stale(meta) {
                        // Dead (or unidentifiable) holder: break this
                        // lock generation by renaming it aside. Exactly
                        // one breaker's rename succeeds; the losers see
                        // NotFound and simply re-race.
                        let tomb =
                            durable::sibling(path, &format!("{}{me}.{nonce}", durable::TOMB));
                        if fs.rename(path, &tomb).is_ok() {
                            // Re-check what we actually broke: if a
                            // racing waiter already broke the dead lock
                            // and re-acquired, the file we renamed is
                            // its live claim — give it back. hard_link
                            // refuses to clobber a newer claim, and the
                            // victim's own post-create re-check covers
                            // the remainder.
                            let stolen = read_holder_meta(fs, &tomb)
                                .ok()
                                .flatten()
                                .is_some_and(|m| !holder_is_stale(m));
                            if stolen {
                                let _ = fs.hard_link(&tomb, path);
                            }
                            let _ = fs.remove(&tomb);
                            if !stolen {
                                // Our rename broke the dead lock: only
                                // another process can race the re-create.
                                broke = true;
                                continue;
                            }
                        }
                    } else {
                        // det-audit: allow(wall-clock) — same deadline check.
                        if std::time::Instant::now() >= deadline {
                            return Err(LockError::Held { pid: holder });
                        }
                        std::thread::sleep(RETRY_EVERY);
                        continue;
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
            // Lost a claim or a break: back off a decorrelated few
            // milliseconds before re-racing `create_new`.
            attempt += 1;
            std::thread::sleep(jittered(nonce, attempt));
        }
    }
}

impl Drop for StoreLock<'_> {
    fn drop(&mut self) {
        // Release only the claim that is actually ours: if a breaker
        // stole this generation despite the re-checks, the path now
        // names the new holder and removing it would unlock a peer.
        if let Ok(Some(meta)) = read_holder_meta(self.fs, &self.path) {
            if meta.pid == std::process::id() {
                let _ = self.fs.remove(&self.path);
            }
        }
        release_root(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pid far above any default `pid_max`, so it is never alive.
    pub(crate) const DEAD_PID: u32 = 999_999_999;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-lock-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_writes_and_drop_removes() {
        let root = scratch("basic");
        let lock = StoreLock::acquire(&root).unwrap();
        let path = StoreLock::path_in(&root);
        assert!(path.exists());
        assert_eq!(
            read_holder(&path).unwrap(),
            Some(std::process::id()),
            "lock names this process"
        );
        drop(lock);
        assert!(!path.exists());
    }

    #[test]
    fn stale_lock_is_broken() {
        let root = scratch("stale");
        let path = StoreLock::path_in(&root);
        std::fs::write(&path, format!("{LOCK_HEADER}\npid {DEAD_PID}\n")).unwrap();
        let _lock = StoreLock::acquire(&root).unwrap();
        assert_eq!(read_holder(&path).unwrap(), Some(std::process::id()));
    }

    #[test]
    fn a_won_break_does_not_back_off() {
        // Only a lost claim backs off: 40 acquires, each over a dead
        // lock, cost about 40 uncontended ones. In memory, so that only
        // a back-off could make them slow.
        let fs = crate::durable::mem::MemFs::default();
        let root = Path::new("/memfs/nobackoff");
        fs.create_dir_all(root).unwrap();
        let dead = format!("{LOCK_HEADER}\npid {DEAD_PID}\n");
        let start = std::time::Instant::now();
        for _ in 0..40 {
            fs.write(&StoreLock::path_in(root), dead.as_bytes())
                .unwrap();
            let lock = StoreLock::acquire_in(&fs, root).unwrap();
            assert!(lock.broke_dead_holder());
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "40 breaks took {took:?}");
        assert!(!StoreLock::acquire_in(&fs, root)
            .unwrap()
            .broke_dead_holder());
    }

    #[test]
    fn garbage_lock_file_is_broken() {
        let root = scratch("garbage");
        std::fs::write(StoreLock::path_in(&root), "not a lock\n").unwrap();
        assert!(StoreLock::acquire(&root).is_ok());
    }

    #[test]
    fn live_holder_blocks_until_released() {
        let root = scratch("live");
        let lock = StoreLock::acquire(&root).unwrap();
        // Same pid counts as alive, so a second acquire waits; release
        // from another thread lets it through well before the deadline.
        std::thread::scope(|s| {
            let r = &root;
            let h = s.spawn(move || StoreLock::acquire(r).map(|_| ()));
            std::thread::sleep(Duration::from_millis(80));
            drop(lock);
            h.join().unwrap().unwrap();
        });
    }

    #[test]
    fn two_waiters_breaking_one_dead_lock_stay_mutually_exclusive() {
        // Both threads find the same dead-holder lock and race to break
        // it, repeatedly. The generation re-check must leave exactly one
        // holder at a time: an AtomicBool guards the critical section
        // and trips if both threads ever hold the lock together.
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
        let root = scratch("race");
        let path = StoreLock::path_in(&root);
        let in_critical = AtomicBool::new(false);
        let acquisitions = AtomicU32::new(0);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (root, path) = (&root, &path);
                let (in_critical, acquisitions) = (&in_critical, &acquisitions);
                handles.push(s.spawn(move || {
                    for round in 0..20 {
                        let lock = StoreLock::acquire(root).expect("acquire");
                        assert!(
                            !in_critical.swap(true, Ordering::SeqCst),
                            "two threads held the store lock at once"
                        );
                        std::thread::sleep(Duration::from_micros(200));
                        in_critical.store(false, Ordering::SeqCst);
                        acquisitions.fetch_add(1, Ordering::SeqCst);
                        // Every few rounds, "crash" while holding: the
                        // release is skipped (the file no longer names
                        // us) and both waiters must race to break the
                        // dead generation left behind.
                        if round % 3 == 0 {
                            let _ =
                                std::fs::write(path, format!("{LOCK_HEADER}\npid {DEAD_PID}\n"));
                        }
                        drop(lock);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(acquisitions.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn threads_of_one_process_never_hold_the_lock_together() {
        // Every thread shares the pid, so the file alone cannot tell
        // them apart: a waiter that reads the winner's file before its
        // pid is written sees pid 0, breaks it as stale, and both
        // threads proceed (or the broken claim is restored with no
        // holder, and every waiter times out). Each round releases
        // eight threads at one root together, so the losers read the
        // file while the winner is still writing it. Failures are
        // counted rather than asserted in place, so that no thread
        // leaves the round barrier early.
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
        let root = scratch("threads");
        let in_critical = AtomicBool::new(false);
        let (overlaps, errors) = (AtomicU32::new(0), AtomicU32::new(0));
        let round = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (root, in_critical, round) = (&root, &in_critical, &round);
                let (overlaps, errors) = (&overlaps, &errors);
                s.spawn(move || {
                    for _ in 0..40 {
                        round.wait();
                        let Ok(lock) = StoreLock::acquire(root) else {
                            errors.fetch_add(1, Ordering::SeqCst);
                            continue;
                        };
                        if in_critical.swap(true, Ordering::SeqCst) {
                            overlaps.fetch_add(1, Ordering::SeqCst);
                        }
                        std::thread::sleep(Duration::from_micros(100));
                        in_critical.store(false, Ordering::SeqCst);
                        drop(lock);
                    }
                });
            }
        });
        let (overlaps, errors) = (overlaps.into_inner(), errors.into_inner());
        assert_eq!(
            (overlaps, errors),
            (0, 0),
            "{overlaps} overlapping holds and {errors} failed acquires in 320"
        );
        assert!(!StoreLock::path_in(&root).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lost_claim_is_not_released_by_drop() {
        // If a breaker replaces our lock file with its own claim, our
        // drop must not remove the new holder's file.
        let root = scratch("lostclaim");
        let path = StoreLock::path_in(&root);
        let lock = StoreLock::acquire(&root).unwrap();
        std::fs::write(&path, format!("{LOCK_HEADER}\npid {DEAD_PID}\n")).unwrap();
        drop(lock);
        assert!(path.exists(), "drop removed a claim that was not ours");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pid_alive_sanity() {
        assert!(pid_alive(std::process::id()));
        if Path::new("/proc").exists() {
            assert!(!pid_alive(DEAD_PID));
        }
    }

    #[test]
    fn holder_meta_parses_with_and_without_epoch() {
        let root = scratch("meta");
        let path = StoreLock::path_in(&root);
        std::fs::write(&path, format!("{LOCK_HEADER}\npid 41172\n")).unwrap();
        assert_eq!(
            read_holder_meta(&RealFs, &path).unwrap(),
            Some(HolderMeta {
                pid: 41172,
                epoch: None
            })
        );
        std::fs::write(&path, format!("{LOCK_HEADER}\npid 41172\nepoch 7\n")).unwrap();
        assert_eq!(
            read_holder_meta(&RealFs, &path).unwrap(),
            Some(HolderMeta {
                pid: 41172,
                epoch: Some(7)
            })
        );
        assert_eq!(read_holder(&path).unwrap(), Some(41172));
        std::fs::write(&path, "not a lock\n").unwrap();
        assert_eq!(
            read_holder_meta(&RealFs, &path).unwrap(),
            Some(HolderMeta {
                pid: 0,
                epoch: None
            })
        );
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_holder_meta(&RealFs, &path).unwrap(), None);
    }

    #[test]
    fn epoch_staleness_rules() {
        let me = std::process::id();
        let live = |epoch| HolderMeta { pid: me, epoch };
        // A live holder with no epoch is never epoch-stale.
        assert!(!holder_stale_for(live(None), None));
        assert!(!holder_stale_for(live(None), Some(9)));
        // Same or newer epoch: live. Strictly older: a previous
        // incarnation — stale even though the pid is alive.
        assert!(!holder_stale_for(live(Some(3)), Some(3)));
        assert!(!holder_stale_for(live(Some(4)), Some(3)));
        assert!(holder_stale_for(live(Some(2)), Some(3)));
        // Without a local epoch, a holder epoch is ignored.
        assert!(!holder_stale_for(live(Some(2)), None));
        // Dead or unknown pids stay stale regardless of epoch.
        assert!(holder_stale_for(
            HolderMeta {
                pid: DEAD_PID,
                epoch: Some(99)
            },
            None
        ));
        assert!(holder_stale_for(
            HolderMeta {
                pid: 0,
                epoch: None
            },
            None
        ));
    }
}
