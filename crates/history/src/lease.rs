//! Crash-safe session leases for the `histpcd` daemon.
//!
//! Every diagnosis session the daemon accepts writes a *lease* under
//! `<root>/LEASES/` before any work runs. The lease is the daemon's
//! write-ahead intent record at session granularity: checksum-framed
//! like store records ([`crate::frame`]) and installed with the same
//! tmp+rename discipline, so a lease is either fully present or absent
//! — never torn. The payload is a small line-oriented text:
//!
//! ```text
//! histpcd-lease v1
//! tenant team-a
//! app poisson-a
//! label run7
//! epoch 3
//! state active
//! ```
//!
//! On a clean completion the daemon removes the lease. A killed daemon
//! leaves leases behind; the next incarnation scans them *before
//! accepting new work* and, for each one, either re-adopts the session
//! from its store checkpoint, marks it completed (a record already
//! exists), or classifies it abandoned. A lease with no matching
//! checkpoint is an orphaned daemon session — surfaced by lint code
//! HL035 via [`orphaned_leases_at`], the lease-side twin of
//! [`crate::store::orphaned_checkpoints_at`].
//!
//! The `LEASES/` directory also persists the monotonic *lease epoch*
//! (`LEASES/EPOCH`): a daemon-incarnation counter bumped by
//! [`next_epoch`] on every start and fed to
//! [`crate::lock::set_lease_epoch`], so advisory-lock staleness can
//! tell a pre-crash incarnation's locks from a live foreign holder.

use std::io;
use std::path::{Path, PathBuf};

use crate::durable::{self, Kind, RealFs, Vfs};
use crate::frame;

/// Directory under the store root that holds lease files and the epoch
/// counter. Excluded from manifest/fsck data-file scans — leases are
/// daemon control state, not execution records.
pub const LEASE_DIR: &str = "LEASES";

/// Header line of a lease payload.
pub const LEASE_HEADER: &str = "histpcd-lease v1";

/// Header line of the epoch counter payload.
pub const EPOCH_HEADER: &str = "histpcd-epoch v1";

/// File name of the persisted epoch counter inside [`LEASE_DIR`].
pub const EPOCH_FILE: &str = "EPOCH";

/// One daemon session lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Tenant that owns the session.
    pub tenant: String,
    /// Application the session diagnoses (store directory name).
    pub app: String,
    /// Execution label of the session.
    pub label: String,
    /// Lease epoch of the daemon incarnation that accepted the session.
    pub epoch: u64,
    /// Lifecycle state; currently always `active` (a completed session
    /// deletes its lease rather than rewriting it).
    pub state: String,
    /// Opaque one-line session spec the daemon needs to re-adopt the
    /// session (start-request parameters, percent-encoded by the
    /// caller). Empty when unknown; never contains a newline.
    pub spec: String,
}

impl Lease {
    /// Serialize the lease payload (unframed).
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "{LEASE_HEADER}\ntenant {}\napp {}\nlabel {}\nepoch {}\nstate {}\n",
            self.tenant, self.app, self.label, self.epoch, self.state
        );
        if !self.spec.is_empty() {
            text.push_str(&format!("spec {}\n", self.spec));
        }
        text
    }

    /// Parse a lease payload (after frame decoding).
    pub fn parse(text: &str) -> Result<Lease, String> {
        let mut lines = text.lines();
        let header = lines.next().map(str::trim).unwrap_or("");
        if header != LEASE_HEADER {
            return Err(format!("bad lease header `{header}`"));
        }
        let mut lease = Lease {
            tenant: String::new(),
            app: String::new(),
            label: String::new(),
            epoch: 0,
            state: String::new(),
            spec: String::new(),
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "tenant" => lease.tenant = value.to_string(),
                "app" => lease.app = value.to_string(),
                "label" => lease.label = value.to_string(),
                "epoch" => {
                    lease.epoch = value
                        .parse()
                        .map_err(|_| format!("bad lease epoch `{value}`"))?;
                }
                "state" => lease.state = value.to_string(),
                "spec" => lease.spec = value.to_string(),
                other => return Err(format!("unknown lease field `{other}`")),
            }
        }
        if lease.tenant.is_empty() || lease.app.is_empty() || lease.label.is_empty() {
            return Err("lease missing tenant/app/label".into());
        }
        Ok(lease)
    }
}

/// Replace filesystem-hostile characters so tenant/label strings can
/// name a lease file.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Path of the lease file for a (tenant, label) session. A short
/// checksum of the raw pair keeps sanitized collisions apart.
pub fn lease_path(root: &Path, tenant: &str, label: &str) -> PathBuf {
    let digest = histpc_resources::fnv64(format!("{tenant}\n{label}").as_bytes()) & 0xffff_ffff;
    root.join(LEASE_DIR).join(format!(
        "{}--{}-{digest:08x}.lease",
        sanitize(tenant),
        sanitize(label)
    ))
}

/// Write (or overwrite) a session lease, checksum-framed and installed
/// atomically and fsynced. Creates `LEASES/` on first use.
pub fn write_lease(root: &Path, lease: &Lease) -> io::Result<()> {
    write_lease_in(&RealFs, root, lease)
}

/// [`write_lease`] on the file system `fs`.
pub(crate) fn write_lease_in(fs: &dyn Vfs, root: &Path, lease: &Lease) -> io::Result<()> {
    fs.create_dir_all(&root.join(LEASE_DIR))?;
    let path = lease_path(root, &lease.tenant, &lease.label);
    durable::install(fs, &path, frame::encode(&lease.to_text()).as_bytes(), true)
}

/// Remove a session lease; `Ok(false)` if none existed.
pub fn remove_lease(root: &Path, tenant: &str, label: &str) -> io::Result<bool> {
    durable::remove_if_present(&RealFs, &lease_path(root, tenant, label))
}

/// Every lease file under the store root: `(file name, parse result)`,
/// sorted by file name. A lease whose frame or payload is damaged
/// reports the error text instead of a lease — callers decide whether
/// that is fatal (daemon adoption treats it as abandoned; lint flags
/// it).
pub fn read_leases(root: &Path) -> io::Result<Vec<(String, Result<Lease, String>)>> {
    let parse =
        |text: &str| Lease::parse(frame::decode(text).map_err(|e| e.to_string())?.payload());
    let mut out = Vec::new();
    for (name, kind) in durable::walk_dir(&RealFs, root, LEASE_DIR)? {
        if kind == Kind::Lease {
            let path = root.join(LEASE_DIR).join(&name);
            let gone = || io::Error::new(io::ErrorKind::NotFound, path.display().to_string());
            let parsed = durable::read_tolerant(&RealFs, &path, false, parse)?;
            out.push((name, parsed.ok_or_else(gone)?));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Orphaned daemon sessions: every readable lease whose session has no
/// matching checkpoint (`<app>/<label>.ckpt`) under the same store
/// root, plus every damaged lease file. Returns
/// `(file name, description)` pairs, sorted — the scan behind lint code
/// HL035, read-only like
/// [`crate::store::orphaned_checkpoints_at`].
pub fn orphaned_leases_at(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for (file, parsed) in read_leases(root)? {
        match parsed {
            Ok(lease) => {
                let ckpt = root.join(&lease.app).join(format!("{}.ckpt", lease.label));
                if RealFs.len(&ckpt).is_err() {
                    out.push((
                        file,
                        format!(
                            "tenant {} session {}/{} has no checkpoint",
                            lease.tenant, lease.app, lease.label
                        ),
                    ));
                }
            }
            Err(why) => out.push((file, format!("damaged lease: {why}"))),
        }
    }
    out.sort();
    Ok(out)
}

/// Read the persisted lease epoch (0 if absent or damaged).
pub(crate) fn current_epoch(fs: &dyn Vfs, root: &Path) -> u64 {
    let parse = |text: &str| {
        let decoded = frame::decode(text).map_err(|e| e.to_string())?;
        let mut lines = decoded.payload().lines().map(str::trim);
        let (header, line) = (lines.next(), lines.next());
        match (header, line.and_then(|l| l.strip_prefix("epoch "))) {
            (Some(EPOCH_HEADER), Some(e)) => e.trim().parse().map_err(|_| String::new()),
            _ => Err(String::new()),
        }
    };
    match durable::read_tolerant(fs, &root.join(LEASE_DIR).join(EPOCH_FILE), false, parse) {
        Ok(Some(Ok(epoch))) => epoch,
        _ => 0,
    }
}

/// Advance and persist the lease epoch for a new daemon incarnation:
/// one past the maximum of the persisted counter and every epoch any
/// existing lease names (so a damaged counter file cannot roll the
/// epoch backwards past live leases). The new value is installed
/// atomically before being returned.
pub fn next_epoch(root: &Path) -> io::Result<u64> {
    let mut base = current_epoch(&RealFs, root);
    for (_, parsed) in read_leases(root)? {
        if let Ok(lease) = parsed {
            base = base.max(lease.epoch);
        }
    }
    let next = base + 1;
    RealFs.create_dir_all(&root.join(LEASE_DIR))?;
    let payload = frame::encode(&format!("{EPOCH_HEADER}\nepoch {next}\n"));
    let path = root.join(LEASE_DIR).join(EPOCH_FILE);
    durable::install(&RealFs, &path, payload.as_bytes(), true)?;
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("histpc-lease-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn lease(tenant: &str, app: &str, label: &str, epoch: u64) -> Lease {
        Lease {
            tenant: tenant.into(),
            app: app.into(),
            label: label.into(),
            epoch,
            state: "active".into(),
            spec: String::new(),
        }
    }

    #[test]
    fn lease_text_round_trips() {
        let mut l = lease("team-a", "poisson-a", "run7", 3);
        assert_eq!(Lease::parse(&l.to_text()).unwrap(), l);
        l.spec = "app=poisson-a seed=7".into();
        assert_eq!(Lease::parse(&l.to_text()).unwrap(), l);
        assert!(Lease::parse("nope\n").is_err());
        assert!(Lease::parse(LEASE_HEADER).is_err(), "missing fields");
        assert!(Lease::parse(&format!("{LEASE_HEADER}\nepoch x\n")).is_err());
    }

    #[test]
    fn write_read_remove_lease() {
        let root = scratch("wrr");
        let l = lease("t1", "poisson", "a1", 2);
        write_lease(&root, &l).unwrap();
        let read = read_leases(&root).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].1.as_ref().unwrap(), &l);
        assert!(remove_lease(&root, "t1", "a1").unwrap());
        assert!(!remove_lease(&root, "t1", "a1").unwrap());
        assert!(read_leases(&root).unwrap().is_empty());
    }

    #[test]
    fn hostile_tenant_names_stay_distinct() {
        let root = scratch("hostile");
        write_lease(&root, &lease("a/b", "poisson", "x", 1)).unwrap();
        write_lease(&root, &lease("a b", "poisson", "x", 1)).unwrap();
        assert_eq!(read_leases(&root).unwrap().len(), 2);
    }

    #[test]
    fn orphan_scan_flags_leases_without_checkpoints() {
        let root = scratch("orphan");
        write_lease(&root, &lease("t1", "poisson", "crashed", 1)).unwrap();
        write_lease(&root, &lease("t1", "poisson", "running", 1)).unwrap();
        std::fs::create_dir_all(root.join("poisson")).unwrap();
        std::fs::write(root.join("poisson").join("running.ckpt"), "x").unwrap();
        // A damaged lease file is an orphan too.
        std::fs::write(root.join(LEASE_DIR).join("torn.lease"), "histpc-frame v1 9").unwrap();
        let orphans = orphaned_leases_at(&root).unwrap();
        assert_eq!(orphans.len(), 2);
        assert!(orphans
            .iter()
            .any(|(_, why)| why.contains("poisson/crashed")));
        assert!(orphans.iter().any(|(_, why)| why.contains("damaged lease")));
        assert!(!orphans
            .iter()
            .any(|(_, why)| why.contains("poisson/running")));
    }

    #[test]
    fn epoch_is_monotonic_and_lease_aware() {
        let root = scratch("epoch");
        assert_eq!(current_epoch(&RealFs, &root), 0);
        assert_eq!(next_epoch(&root).unwrap(), 1);
        assert_eq!(current_epoch(&RealFs, &root), 1);
        assert_eq!(next_epoch(&root).unwrap(), 2);
        // A damaged counter cannot roll backwards past a live lease.
        write_lease(&root, &lease("t1", "poisson", "a1", 9)).unwrap();
        std::fs::write(root.join(LEASE_DIR).join(EPOCH_FILE), "garbage").unwrap();
        assert_eq!(current_epoch(&RealFs, &root), 0);
        assert_eq!(next_epoch(&root).unwrap(), 10);
    }
}
