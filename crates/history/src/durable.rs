//! The one durable-file layer: every file operation of
//! `histpc-history` goes through here. It owns the file-system seam
//! ([`Vfs`]; the test-only `MemFs` counts every operation and can die
//! at any one, tearing a write at any byte), the one atomic write
//! ([`install`]), the one tolerant read ([`read_tolerant`]), and the one
//! naming rule ([`sibling`]) and layout classifier ([`classify`],
//! [`walk`]). The crash model is process death, not power loss; only
//! `LOCK` and leases are fsynced.

use crate::factcache::FACTCACHE_FILE;
use crate::journal::JOURNAL_FILE;
use crate::lease::{EPOCH_FILE, LEASE_DIR};
use crate::lock::LOCK_FILE;
use crate::manifest::MANIFEST_FILE;
use crate::trust::TRUST_FILE;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Suffix of an in-flight atomic write.
pub(crate) const TMP: &str = ".tmp";
/// Suffix of a record recovery quarantined.
pub(crate) const CORRUPT: &str = ".corrupt";
/// Suffix stem of a broken lock's tomb (`LOCK.broken.<pid>.<nonce>`).
pub(crate) const TOMB: &str = ".broken.";

/// The file operations the store is built from. Text goes in as
/// `fmt::Arguments`, handed to the file piece by piece as `write!`
/// does, so [`RealFs`] issues the same write calls the store always has.
pub(crate) trait Vfs: fmt::Debug + Send + Sync {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads at most `len` bytes of a file, from byte `offset` on.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Creates or truncates a file and writes `data`.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends to a file, creating it if needed.
    fn append(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()>;
    /// Creates a file that must not exist yet and writes to it.
    fn create_new(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Links `to` to the file at `from`; fails if `to` exists.
    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes a file or directory to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// `(name, is_dir)` of each entry, in no particular order.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, bool)>>;
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// A file's length, from its metadata.
    fn len(&self, path: &Path) -> io::Result<u64>;
}

/// The real file system.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut out = Vec::with_capacity(len);
        f.take(len as u64).read_to_end(&mut out)?;
        Ok(out)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }
    fn append(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_fmt(text)
    }
    fn create_new(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_fmt(text)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::hard_link(from, to)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, bool)>> {
        std::fs::read_dir(dir)?
            .map(|e| {
                let e = e?;
                Ok((
                    e.file_name().to_string_lossy().into_owned(),
                    e.file_type()?.is_dir(),
                ))
            })
            .collect()
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// A real store root in canonical form, to key per-root state on.
pub(crate) fn canonical(root: &Path) -> PathBuf {
    std::fs::canonicalize(root).unwrap_or_else(|_| root.to_path_buf())
}

/// `path` with `suffix` appended to its file name: the one naming rule
/// for `.tmp`, `.corrupt` and lock tomb siblings.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// Removes a file; `Ok(false)` if there was none.
pub(crate) fn remove_if_present(fs: &dyn Vfs, path: &Path) -> io::Result<bool> {
    match fs.remove(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        done => done.map(|()| true),
    }
}

/// Installs `data` at `path` atomically: a `.tmp` sibling, then a
/// rename, so the target only ever holds its old contents or the new.
/// With `fsync`, the tmp is flushed before the rename and the directory
/// after it.
pub(crate) fn install(fs: &dyn Vfs, path: &Path, data: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = sibling(path, TMP);
    fs.write(&tmp, data)?;
    if fsync {
        fs.fsync(&tmp)?;
    }
    fs.rename(&tmp, path)?;
    if let (true, Some(dir)) = (fsync, path.parent()) {
        let _ = fs.fsync(dir);
    }
    Ok(())
}

/// Reads and parses `path`: `None` when it is missing, `Some(Err(why))`
/// when it is damaged. With `tmp_fallback`, a missing or damaged target
/// falls back to a `.tmp` sibling that parses: a save cut between its
/// tmp write and its rename left the new contents there whole.
pub(crate) fn read_tolerant<T>(
    fs: &dyn Vfs,
    path: &Path,
    tmp_fallback: bool,
    parse: impl Fn(&str) -> Result<T, String>,
) -> io::Result<Option<Result<T, String>>> {
    let read = |path: &Path| match fs.read(path) {
        Ok(bytes) => Ok(Some(match String::from_utf8(bytes) {
            Ok(text) => parse(&text),
            Err(_) => Err("not UTF-8 text".to_string()),
        })),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    };
    let parsed = read(path)?;
    if tmp_fallback && !matches!(parsed, Some(Ok(_))) {
        if let Ok(Some(Ok(t))) = read(&sibling(path, TMP)) {
            return Ok(Some(Ok(t)));
        }
    }
    Ok(parsed)
}

/// What a file of the store layout is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `<app>/<label>.<ext>`: a record or an artifact.
    Data,
    /// An unfinished install's `.tmp` (not a sidecar's), or a dead
    /// breaker's lock tomb.
    Tmp,
    /// `<app>/<name>.corrupt`, quarantined by recovery.
    Corrupt,
    /// `LOCK`, `JOURNAL`, `MANIFEST` and `LEASES/EPOCH`.
    Control,
    /// `FACTS`, `TRUST` and their `.tmp`s (`TRUST` loads fall back to it).
    Sidecar,
    /// `LEASES/<name>.lease`.
    Lease,
    /// Anything else in the root or in `LEASES/`.
    Litter,
}

/// Classifies the file `name` in the directory `dir` under the root
/// (`None`: the root itself).
pub(crate) fn classify(dir: Option<&str>, name: &str) -> Kind {
    let control = |name| matches!(name, LOCK_FILE | JOURNAL_FILE | MANIFEST_FILE);
    let base = name.strip_suffix(TMP);
    let tomb = name
        .strip_prefix(LOCK_FILE)
        .is_some_and(|r| r.starts_with(TOMB));
    match dir {
        None if control(name) => Kind::Control,
        None if matches!(base.unwrap_or(name), FACTCACHE_FILE | TRUST_FILE) => Kind::Sidecar,
        None if base.is_some_and(control) || tomb => Kind::Tmp,
        None => Kind::Litter,
        Some(LEASE_DIR) if name == EPOCH_FILE => Kind::Control,
        Some(_) if base.is_some() => Kind::Tmp,
        Some(LEASE_DIR) if name.ends_with(".lease") => Kind::Lease,
        Some(LEASE_DIR) => Kind::Litter,
        Some(_) if name.ends_with(CORRUPT) => Kind::Corrupt,
        Some(_) => Kind::Data,
    }
}

/// One classified file of the layout, by `/`-separated relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) rel: String,
    pub(crate) kind: Kind,
}

/// Every file of the layout — those of the root and of each directory
/// directly under it — classified and sorted by relative path.
pub(crate) fn walk(fs: &dyn Vfs, root: &Path) -> io::Result<Vec<Entry>> {
    let mut out = Vec::new();
    for (name, is_dir) in fs.read_dir(root)? {
        if is_dir {
            for (file, kind) in walk_dir(fs, root, &name)? {
                let rel = format!("{name}/{file}");
                out.push(Entry { rel, kind });
            }
        } else {
            let kind = classify(None, &name);
            out.push(Entry { rel: name, kind });
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// The files of the directory `dir` under `root`, each name with its
/// kind, in no particular order; empty when the directory does not
/// exist.
pub(crate) fn walk_dir(fs: &dyn Vfs, root: &Path, dir: &str) -> io::Result<Vec<(String, Kind)>> {
    Ok(match fs.read_dir(&root.join(dir)) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        listed => listed?
            .into_iter()
            .filter(|(_, is_dir)| !is_dir)
            .map(|(name, _)| {
                let kind = classify(Some(dir), &name);
                (name, kind)
            })
            .collect(),
    })
}

#[cfg(test)]
pub(crate) mod mem {
    //! `MemFs`: an in-memory [`Vfs`] that counts every operation and
    //! can die at a chosen mutation, as a killed process would.

    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex, PoisonError};

    /// Files and directories.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(crate) struct Image {
        pub(crate) files: BTreeMap<PathBuf, Vec<u8>>,
        pub(crate) dirs: BTreeSet<PathBuf>,
    }

    /// Where the process dies, by mutation index (every operation but
    /// reads and fsyncs is a mutation).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Cut {
        /// Mutation k never happens.
        Before(usize),
        /// Write or append k stops after its first b bytes.
        Torn(usize, usize),
        /// Mutation k fails with an error and never happens; the process
        /// lives on.
        Fail(usize),
    }

    /// Operation counters. `writes` counts write calls the way the
    /// kernel would see them: one per formatted piece.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Counts {
        pub(crate) writes: u64,
        pub(crate) bytes: u64,
        pub(crate) renames: u64,
        pub(crate) removes: u64,
        pub(crate) fsyncs: u64,
    }

    /// One logged mutation; `len` is set for the ones that can tear.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Op {
        pub(crate) what: &'static str,
        pub(crate) path: PathBuf,
        pub(crate) len: Option<usize>,
    }

    #[derive(Debug, Default)]
    struct State {
        image: Image,
        cut: Option<Cut>,
        dead: bool,
        log: Vec<Op>,
        counts: Counts,
    }

    /// The in-memory file system.
    #[derive(Debug, Default)]
    pub(crate) struct MemFs {
        state: Mutex<State>,
    }

    /// Collects formatted text piece by piece, counting the pieces.
    #[derive(Default)]
    struct Pieces {
        bytes: Vec<u8>,
        calls: u64,
    }

    impl Write for Pieces {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.calls += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn format(text: fmt::Arguments<'_>) -> Pieces {
        let mut p = Pieces::default();
        p.write_fmt(text).expect("formatting into memory");
        p
    }

    fn died() -> io::Error {
        io::Error::other("memfs: the process died")
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
    }

    /// How much of a mutation takes effect.
    enum Apply {
        All,
        Bytes(usize),
    }

    impl State {
        /// Refuses everything once dead.
        fn alive(&self) -> io::Result<()> {
            if self.dead {
                Err(died())
            } else {
                Ok(())
            }
        }

        /// Logs mutation k and decides how much of it happens.
        fn mutation(
            &mut self,
            what: &'static str,
            path: &Path,
            len: Option<usize>,
        ) -> io::Result<Apply> {
            self.alive()?;
            let k = self.log.len();
            self.log.push(Op {
                what,
                path: path.to_path_buf(),
                len,
            });
            match self.cut {
                Some(Cut::Before(c)) if c == k => {
                    self.dead = true;
                    Err(died())
                }
                Some(Cut::Torn(c, b)) if c == k => {
                    self.dead = true;
                    Ok(Apply::Bytes(b))
                }
                Some(Cut::Fail(c)) if c == k => Err(io::Error::other("memfs: injected failure")),
                _ => Ok(Apply::All),
            }
        }

        /// The error for a write into `path`, if its directory is missing
        /// or it is itself a directory.
        fn writable(&self, path: &Path) -> io::Result<()> {
            self.alive()?;
            if self.image.dirs.contains(path) {
                return Err(io::Error::other(format!(
                    "{} is a directory",
                    path.display()
                )));
            }
            match path.parent() {
                Some(dir) if self.image.dirs.contains(dir) => Ok(()),
                _ => Err(not_found(path)),
            }
        }

        /// Applies a write of `data`, whole or torn; a torn one reports
        /// the death after its bytes landed.
        fn put(
            &mut self,
            path: &Path,
            mut old: Vec<u8>,
            data: &[u8],
            apply: Apply,
        ) -> io::Result<()> {
            let n = match apply {
                Apply::All => data.len(),
                Apply::Bytes(b) => b.min(data.len()),
            };
            old.extend_from_slice(&data[..n]);
            self.image.files.insert(path.to_path_buf(), old);
            match apply {
                Apply::All => Ok(()),
                Apply::Bytes(_) => Err(died()),
            }
        }
    }

    impl MemFs {
        /// A file system holding `image` that dies at `cut`.
        pub(crate) fn new(image: Image, cut: Option<Cut>) -> MemFs {
            MemFs {
                state: Mutex::new(State {
                    image,
                    cut,
                    ..State::default()
                }),
            }
        }

        fn state(&self) -> std::sync::MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// The files and directories as they stand.
        pub(crate) fn image(&self) -> Image {
            self.state().image.clone()
        }

        /// Every mutation so far, in order.
        pub(crate) fn log(&self) -> Vec<Op> {
            self.state().log.clone()
        }

        /// The operation counters.
        pub(crate) fn counts(&self) -> Counts {
            self.state().counts
        }

        /// True once the cut was reached.
        pub(crate) fn dead(&self) -> bool {
            self.state().dead
        }
    }

    impl Vfs for MemFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let st = self.state();
            st.alive()?;
            st.image
                .files
                .get(path)
                .cloned()
                .ok_or_else(|| not_found(path))
        }

        fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
            let st = self.state();
            st.alive()?;
            let data = st.image.files.get(path).ok_or_else(|| not_found(path))?;
            let from = data.len().min(offset as usize);
            Ok(data[from..data.len().min(from + len)].to_vec())
        }

        fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            let mut st = self.state();
            st.writable(path)?;
            st.counts.writes += 1;
            st.counts.bytes += data.len() as u64;
            let apply = st.mutation("write", path, Some(data.len()))?;
            st.put(path, Vec::new(), data, apply)
        }

        fn append(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()> {
            let p = format(text);
            let mut st = self.state();
            st.writable(path)?;
            st.counts.writes += p.calls;
            st.counts.bytes += p.bytes.len() as u64;
            let apply = st.mutation("append", path, Some(p.bytes.len()))?;
            let old = st.image.files.get(path).cloned().unwrap_or_default();
            st.put(path, old, &p.bytes, apply)
        }

        fn create_new(&self, path: &Path, text: fmt::Arguments<'_>) -> io::Result<()> {
            let p = format(text);
            let mut st = self.state();
            st.writable(path)?;
            if st.image.files.contains_key(path) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    path.display().to_string(),
                ));
            }
            st.counts.writes += p.calls;
            st.counts.bytes += p.bytes.len() as u64;
            st.mutation("create_new", path, None)?;
            st.image.files.insert(path.to_path_buf(), p.bytes);
            Ok(())
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut st = self.state();
            st.alive()?;
            if !st.image.files.contains_key(from) {
                return Err(not_found(from));
            }
            st.writable(to)?;
            st.counts.renames += 1;
            st.mutation("rename", to, None)?;
            let data = st.image.files.remove(from).expect("checked above");
            st.image.files.insert(to.to_path_buf(), data);
            Ok(())
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            let mut st = self.state();
            st.alive()?;
            if !st.image.files.contains_key(path) {
                return Err(not_found(path));
            }
            st.counts.removes += 1;
            st.mutation("remove", path, None)?;
            st.image.files.remove(path);
            Ok(())
        }

        fn hard_link(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut st = self.state();
            st.alive()?;
            let data = st
                .image
                .files
                .get(from)
                .cloned()
                .ok_or_else(|| not_found(from))?;
            st.writable(to)?;
            if st.image.files.contains_key(to) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    to.display().to_string(),
                ));
            }
            st.mutation("hard_link", to, None)?;
            st.image.files.insert(to.to_path_buf(), data);
            Ok(())
        }

        fn fsync(&self, path: &Path) -> io::Result<()> {
            let mut st = self.state();
            st.alive()?;
            if !st.image.files.contains_key(path) && !st.image.dirs.contains(path) {
                return Err(not_found(path));
            }
            st.counts.fsyncs += 1;
            Ok(())
        }

        fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, bool)>> {
            let st = self.state();
            st.alive()?;
            if !st.image.dirs.contains(dir) {
                return Err(not_found(dir));
            }
            let child = |p: &PathBuf, is_dir| {
                (p.parent() == Some(dir)).then(|| {
                    let name = p.file_name().expect("a child has a name");
                    (name.to_string_lossy().into_owned(), is_dir)
                })
            };
            Ok(st
                .image
                .dirs
                .iter()
                .filter_map(|p| child(p, true))
                .chain(st.image.files.keys().filter_map(|p| child(p, false)))
                .collect())
        }

        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            let mut st = self.state();
            st.alive()?;
            if st.image.dirs.contains(dir) {
                return Ok(());
            }
            st.mutation("create_dir_all", dir, None)?;
            for d in dir.ancestors() {
                st.image.dirs.insert(d.to_path_buf());
            }
            Ok(())
        }

        fn len(&self, path: &Path) -> io::Result<u64> {
            let st = self.state();
            st.alive()?;
            match st.image.files.get(path) {
                Some(data) => Ok(data.len() as u64),
                None if st.image.dirs.contains(path) => Ok(0),
                None => Err(not_found(path)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_sorts_every_kind() {
        for (rel, kind) in [
            ("poisson/a1.record", Kind::Data),
            ("poisson/a1.shg", Kind::Data),
            ("poisson/a1.record.tmp", Kind::Tmp),
            ("poisson/a1.record.corrupt", Kind::Corrupt),
            ("LOCK", Kind::Control),
            ("JOURNAL", Kind::Control),
            ("MANIFEST", Kind::Control),
            ("MANIFEST.tmp", Kind::Tmp),
            ("FACTS", Kind::Sidecar),
            ("TRUST.tmp", Kind::Sidecar),
            ("LEASES/EPOCH", Kind::Control),
            ("LEASES/EPOCH.tmp", Kind::Tmp),
            ("LEASES/t--a-00000000.lease", Kind::Lease),
            ("LEASES/t--a-00000000.lease.tmp", Kind::Tmp),
            ("LEASES/notes", Kind::Litter),
            ("NOTES.txt", Kind::Litter),
            ("LOCK.broken.7.1", Kind::Tmp),
            ("LOCKS", Kind::Litter),
        ] {
            let (dir, name) = match rel.split_once('/') {
                Some((dir, name)) => (Some(dir), name),
                None => (None, rel),
            };
            assert_eq!(classify(dir, name), kind, "{rel}");
        }
    }

    #[test]
    fn tolerant_read_tells_missing_from_damaged_and_falls_back() {
        let fs = mem::MemFs::default();
        let root = Path::new("/tolerant");
        fs.create_dir_all(root).unwrap();
        let path = root.join("F");
        let parse = |t: &str| t.parse::<u32>().map_err(|e| e.to_string());
        assert!(read_tolerant(&fs, &path, true, parse).unwrap().is_none());
        fs.write(&path, b"x").unwrap();
        assert!(matches!(
            read_tolerant(&fs, &path, true, parse).unwrap(),
            Some(Err(_))
        ));
        fs.write(&sibling(&path, TMP), b"7").unwrap();
        assert_eq!(read_tolerant(&fs, &path, true, parse).unwrap(), Some(Ok(7)));
        assert!(matches!(
            read_tolerant(&fs, &path, false, parse).unwrap(),
            Some(Err(_))
        ));
    }
}

#[cfg(test)]
mod crash {
    //! Crash safety, proven by enumeration. A script of store operations
    //! runs on `MemFs`, and the process dies at every mutation k of it —
    //! and, for a write or an append, after every byte b of it. Operations
    //! before k are complete, nothing after k happens, and the dead
    //! writer's `LOCK` names a dead pid. Every crash image must recover to
    //! a store in which each record, artifact, sidecar and lease holds its
    //! last committed contents or its intended ones — the intended ones
    //! whenever a complete temp file of them survived — and a crash
    //! inside that recovery must recover the same way.
    //!
    //! The same `MemFs` counts the I/O of each operation, pinned below.

    use super::mem::{Counts, Cut, Image, MemFs};
    use crate::durable::{self, Kind, Vfs};
    use crate::factcache::{FactCache, FACTCACHE_FILE};
    use crate::format::write_record;
    use crate::frame;
    use crate::fsck::{fsck_in, CODE_INTEGRITY, CODE_LEGACY};
    use crate::journal::{Journal, JournalEntry, JOURNAL_FILE};
    use crate::lease::{self, Lease};
    use crate::lock::{LOCK_FILE, LOCK_HEADER};
    use crate::manifest::{Manifest, MANIFEST_FILE};
    use crate::store::FOLD_FLOOR;
    use crate::trust::{TrustLedger, TRUST_FILE};
    use crate::{ExecutionRecord, ExecutionStore, StoreError};
    use histpc_resources::diag::{Diagnostic, Severity};
    use histpc_resources::fnv64;
    use histpc_sim::SimTime;
    use std::collections::{BTreeMap, BTreeSet};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A pid far above any default `pid_max`, so it is never alive.
    const DEAD_PID: u32 = 999_999_999;

    /// A small record, so every byte of every write can be a crash point.
    fn record(label: &str, pairs: usize) -> ExecutionRecord {
        ExecutionRecord {
            app_name: "app".into(),
            app_version: "V".into(),
            label: label.into(),
            resources: vec![],
            outcomes: vec![],
            thresholds_used: vec![],
            end_time: SimTime(9),
            pairs_tested: pairs,
            unreachable: vec![],
            saturated: vec![],
        }
    }

    fn lease() -> Lease {
        Lease {
            tenant: "t".into(),
            app: "app".into(),
            label: "a1".into(),
            epoch: 1,
            state: "active".into(),
            spec: String::new(),
        }
    }

    fn facts() -> FactCache {
        let mut cache = FactCache::new();
        cache.insert("app/a1.record", 7, "f".into());
        cache
    }

    /// The store operations scripts are made of, by index.
    const STEPS: [&str; 10] = [
        "save a1",
        "save a2",
        "overwrite a1",
        "save_artifact a1.shg",
        "delete a2",
        "update TRUST",
        "save FACTS",
        "write lease",
        "remove lease",
        "compact",
    ];

    fn step(i: usize, store: &ExecutionStore, fs: &MemFs) -> Result<(), StoreError> {
        let root = store.root();
        match i {
            0 => store.save(&record("a1", 1)),
            1 => store.save(&record("a2", 2)),
            2 => store.save(&record("a1", 3)),
            3 => store.save_artifact("app", "a1", "shg", "graph\n"),
            4 => store.delete("app", "a2"),
            5 => store
                .update_trust(|l| {
                    l.record_revocation("app/a1", "prune x");
                })
                .map(drop),
            6 => store.save_facts(&facts()),
            7 => Ok(lease::write_lease_in(fs, root, &lease())?),
            8 => Ok(durable::remove_if_present(fs, &lease::lease_path(root, "t", "a1")).map(drop)?),
            _ => store.compact().map(drop),
        }
    }

    /// A script: the store it starts from, the steps run after `open`,
    /// and a check of the store the uncrashed run leaves, given the
    /// generation it opened at. The expected contents of each crash
    /// case are taken from that run, so the check is what ties them to
    /// the script's intent.
    struct Script {
        base: fn(&Path) -> Image,
        steps: &'static [usize],
        check: fn(&ExecutionStore, u64),
    }

    /// Every step, from an empty directory.
    const EVERY_STEP: Script = Script {
        base: |_| Image::default(),
        steps: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        check: |store, _| {
            let a1 = store.load("app", "a1").expect("a1");
            assert_eq!(a1.pairs_tested, 3, "the overwrite landed");
            assert_eq!(store.labels("app").expect("labels"), ["a1"]);
        },
    };

    /// Two saves into a store whose journal the first one folds.
    const FOLD: Script = Script {
        base: one_save_short_of_a_fold,
        steps: &[0, 3],
        check: |store, base| {
            assert_eq!(store.load("app", "a1").expect("a1").pairs_tested, 1);
            let shg = store.load_artifact("app", "a1", "shg").expect("a1.shg");
            assert_eq!(shg, "graph\n");
            assert_eq!(store.generation().expect("view"), Some(base + 2));
        },
    };

    /// A store holding one artifact whose label is long enough that the
    /// journal is 20 bytes short of `FOLD_FLOOR`; the next save folds.
    fn one_save_short_of_a_fold(root: &Path) -> Image {
        let fs = Arc::new(MemFs::default());
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        let journal = || fs.len(&root.join(JOURNAL_FILE)).expect("journal");
        // The artifact adds its intent (31 bytes and the label) and `ok`.
        let label = "l".repeat((FOLD_FLOOR - journal() - 20 - 34) as usize);
        store
            .save_artifact("app", &label, "note", "x")
            .expect("artifact");
        assert_eq!(journal(), FOLD_FLOOR - 20);
        fs.image()
    }

    /// Opens the store at `root` on `fs` and runs the script until it
    /// ends or the process dies.
    fn run(fs: &Arc<MemFs>, root: &Path, script: &Script) {
        let Ok((store, _)) = ExecutionStore::open_in(fs.clone(), root) else {
            return;
        };
        for &i in script.steps {
            if step(i, &store, fs).is_err() {
                return;
            }
        }
    }

    /// The files whose contents the contract covers: records, artifacts,
    /// leases, and the `FACTS` and `TRUST` sidecars.
    fn tracked(image: &Image, root: &Path) -> BTreeMap<String, Vec<u8>> {
        image
            .files
            .iter()
            .filter_map(|(path, bytes)| {
                let rel = path.strip_prefix(root).ok()?.to_str()?;
                let (dir, name) = match rel.split_once('/') {
                    Some((dir, name)) => (Some(dir), name),
                    None => (None, rel),
                };
                let kept = match durable::classify(dir, name) {
                    Kind::Data | Kind::Lease => true,
                    Kind::Sidecar => !rel.ends_with(durable::TMP),
                    _ => false,
                };
                kept.then(|| (rel.to_string(), bytes.clone()))
            })
            .collect()
    }

    /// The image the dead process leaves: its `LOCK`, if any, now names a
    /// dead pid.
    fn after_death(fs: &MemFs, root: &Path) -> Image {
        let mut image = fs.image();
        if let Some(lock) = image.files.get_mut(&root.join(LOCK_FILE)) {
            *lock = format!("{LOCK_HEADER}\npid {DEAD_PID}\n").into_bytes();
        }
        image
    }

    /// The write protocol's invariant on a crash image, before any
    /// recovery: no data file is ever torn, and the index (the manifest
    /// and the journal's committed entries) holds the data files exactly
    /// unless the journal holds an unsettled intent, which this returns.
    fn check_image(image: &Image, root: &Path, ctx: &str) -> Option<JournalEntry> {
        if !image.dirs.contains(root) {
            return None; // died before `open` made the store
        }
        let fs = MemFs::new(image.clone(), None);
        let diags = fsck_in(&fs, root);
        assert!(
            !diags.iter().any(|d| d.code == CODE_INTEGRITY),
            "{ctx}: torn file in the crash image: {diags:?}"
        );
        let journal = Journal::at(&fs, root).read().expect("journal reads");
        let intent = journal.unsettled().last().copied().cloned();
        assert!(
            intent.is_some() || !diags.iter().any(|d| d.code == CODE_LEGACY),
            "{ctx}: manifest drift behind a settled journal: {diags:?}"
        );
        intent
    }

    /// The tracked files before and after the step a crash interrupted.
    struct Expect<'a> {
        before: &'a BTreeMap<String, Vec<u8>>,
        after: &'a BTreeMap<String, Vec<u8>>,
    }

    impl Expect<'_> {
        /// Every tracked file holds its old or its new contents (absent
        /// counts as contents), and the sidecars load as one or the other.
        fn check_files(&self, store: &ExecutionStore, fs: &MemFs, ctx: &str) {
            let root = store.root();
            let now = tracked(&fs.image(), root);
            let rels: BTreeSet<&String> = self
                .before
                .keys()
                .chain(self.after.keys())
                .chain(now.keys())
                .collect();
            for rel in rels {
                let got = now.get(rel);
                assert!(
                    got == self.before.get(rel) || got == self.after.get(rel),
                    "{ctx}: {rel} is neither its old nor its new contents: {:?}",
                    got.map(|b| String::from_utf8_lossy(b).into_owned())
                );
            }
            let loads = |m: &BTreeMap<String, Vec<u8>>| {
                let text =
                    |name: &str| m.get(name).map(|b| String::from_utf8_lossy(b).into_owned());
                let trust = text(TRUST_FILE)
                    .and_then(|t| TrustLedger::parse(&t))
                    .unwrap_or_default();
                let facts = text(FACTCACHE_FILE)
                    .and_then(|t| FactCache::parse(&t))
                    .unwrap_or_default();
                (trust.to_text(), facts.to_text())
            };
            let trust = TrustLedger::load_in(fs, root);
            let got = (trust.to_text(), store.load_facts().to_text());
            assert!(
                got == loads(self.before) || got == loads(self.after),
                "{ctx}: TRUST or FACTS loads as neither its old nor its new contents"
            );
        }

        /// Reopens a crash image and checks the recovery contract.
        fn check_recovery(&self, image: Image, root: &Path, ctx: &str) {
            // A dead writer's lock makes the reopen recover; a write whose
            // intent is unsettled and whose temp file is complete must
            // then roll forward.
            let locked = image.files.contains_key(&root.join(LOCK_FILE));
            let forward = match check_image(&image, root, ctx) {
                Some(JournalEntry::Put {
                    app, label, ext, ..
                }) => {
                    let rel = format!("{app}/{label}.{ext}");
                    let tmp = image
                        .files
                        .get(&durable::sibling(&root.join(&rel), durable::TMP));
                    let new = self.after.get(&rel).filter(|new| tmp == Some(new));
                    new.map(|new| (rel, new.clone()))
                }
                _ => None,
            };
            let fs = Arc::new(MemFs::new(image, None));
            let (store, mut notes) = ExecutionStore::open_in(fs.clone(), root).expect("reopen");
            let clean = |d: &Diagnostic| {
                d.severity == Severity::Note && d.message.contains("skipped: sidecar")
            };
            let diags = fsck_in(&*fs, root);
            assert!(
                !diags
                    .iter()
                    .any(|d| d.code == CODE_INTEGRITY || d.code == CODE_LEGACY),
                "{ctx}: fsck after reopen: {diags:?}"
            );
            assert!(
                !locked || diags.iter().all(clean),
                "{ctx}: the recovering reopen left findings: {diags:?}"
            );
            if let Some((rel, new)) = &forward {
                let got = fs.read(&root.join(rel)).ok();
                assert_eq!(got.as_ref(), Some(new), "{ctx}: {rel} not rolled forward");
            }
            self.check_files(&store, &fs, ctx);
            notes.extend(store.repair().expect("repair"));
            assert!(
                !notes
                    .iter()
                    .any(|n| n.contains("salvage") || n.contains("quarantine")),
                "{ctx}: recovery met a torn target: {notes:?}"
            );
            let diags = fsck_in(&*fs, root);
            assert!(
                diags.iter().all(clean),
                "{ctx}: fsck after repair: {diags:?}"
            );
            self.check_files(&store, &fs, ctx);
        }
    }

    #[test]
    fn every_crash_point_recovers_to_old_or_new_contents() {
        enumerate(Path::new("/memfs/crash-enum"), &EVERY_STEP);
    }

    #[test]
    fn every_crash_point_of_a_fold_recovers() {
        let writes = enumerate(Path::new("/memfs/crash-fold"), &FOLD);
        let manifest = |(s, path): &(usize, PathBuf)| {
            *s == 1 && path.file_name() == Some(MANIFEST_FILE.as_ref())
        };
        assert!(writes.iter().any(manifest), "the first save never folded");
    }

    /// Crashes `script` at each of its mutations and checks each crash
    /// image's recovery. Returns which step renamed what, in order.
    fn enumerate(root: &Path, script: &Script) -> Vec<(usize, PathBuf)> {
        // The uncrashed run: which mutations each step makes, and what the
        // tracked files hold after it.
        let base = (script.base)(root);
        let fs = Arc::new(MemFs::new(base.clone(), None));
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        let opened_at = store.generation().expect("view").expect("a manifest");
        let mut bounds = vec![fs.log().len()];
        let mut states = vec![tracked(&base, root), tracked(&fs.image(), root)];
        for &i in script.steps {
            step(i, &store, &fs).unwrap_or_else(|e| panic!("{}: {e}", STEPS[i]));
            bounds.push(fs.log().len());
            states.push(tracked(&fs.image(), root));
        }
        let log = fs.log();
        assert!(!fs.dead());
        (script.check)(&store, opened_at);
        let findings = fsck_in(&*fs, root);
        assert!(
            findings.iter().all(|d| d.severity == Severity::Note),
            "the uncrashed run: {findings:?}"
        );

        let mut cases = Vec::new();
        let mut renames = Vec::new();
        for (k, op) in log.iter().enumerate() {
            // The step mutation k belongs to (0 is `open`).
            let s = bounds.iter().position(|&b| k < b).expect("k is in a step");
            let name = if s == 0 {
                "open"
            } else {
                STEPS[script.steps[s - 1]]
            };
            let what = format!("{} {} in {name}", op.what, op.path.display());
            if op.what == "rename" {
                renames.push((s, op.path.clone()));
            }
            let tears = (0..op.len.unwrap_or(0)).map(|b| Cut::Torn(k, b));
            for cut in std::iter::once(Cut::Before(k)).chain(tears) {
                cases.push((cut, s, what.clone()));
            }
        }
        // The cases run on several threads, each on its own store root.
        const THREADS: usize = 8;
        let checked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cases, states, checked) = (&cases, &states, &checked);
                scope.spawn(move || {
                    let root = PathBuf::from(format!("{}-{t}", root.display()));
                    let base = (script.base)(&root);
                    for (cut, s, what) in cases.iter().skip(t).step_by(THREADS) {
                        let expect = Expect {
                            before: &states[*s],
                            after: &states[s + 1],
                        };
                        let ctx = format!("{cut:?} ({what})");
                        let n = crash_case(&root, &base, script, *cut, &expect, &ctx);
                        checked.fetch_add(n, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(
            checked.into_inner() > cases.len(),
            "the second crash level never ran"
        );
        renames
    }

    /// Runs the script to `cut`, then checks the recovery of what the dead
    /// process left. After a crash between operations, also crashes that
    /// recovery at each of its mutations and checks the recovery after it.
    /// Returns how many crash images it checked.
    fn crash_case(
        root: &Path,
        base: &Image,
        script: &Script,
        cut: Cut,
        expect: &Expect<'_>,
        ctx: &str,
    ) -> usize {
        let fs = Arc::new(MemFs::new(base.clone(), Some(cut)));
        run(&fs, root, script);
        assert!(fs.dead(), "{ctx}: the script never reached its cut");
        let image = after_death(&fs, root);
        expect.check_recovery(image.clone(), root, ctx);
        if !matches!(cut, Cut::Before(_)) {
            return 1;
        }
        let probe = Arc::new(MemFs::new(image.clone(), None));
        ExecutionStore::open_in(probe.clone(), root).expect("reopen");
        let recovery = probe.log().len();
        for k2 in 0..recovery {
            let ctx = format!("{ctx}, then Before({k2}) in its recovery");
            let fs = Arc::new(MemFs::new(image.clone(), Some(Cut::Before(k2))));
            let _ = ExecutionStore::open_in(fs.clone(), root);
            assert!(fs.dead(), "{ctx}: recovery never reached its cut");
            expect.check_recovery(after_death(&fs, root), root, &ctx);
        }
        1 + recovery
    }

    /// Counter deltas of one operation.
    fn delta(fs: &MemFs, op: impl FnOnce()) -> Counts {
        let before = fs.counts();
        op();
        let after = fs.counts();
        Counts {
            writes: after.writes - before.writes,
            bytes: after.bytes - before.bytes,
            renames: after.renames - before.renames,
            removes: after.removes - before.removes,
            fsyncs: after.fsyncs - before.fsyncs,
        }
    }

    /// The exact I/O of each store operation. `writes` counts write calls
    /// as the kernel sees them: `LOCK` is written in 4 pieces, a journal
    /// line in 2 (the line, then its newline), every installed file in 1.
    /// Every lock acquire fsyncs `LOCK`; a lease install fsyncs the tmp and
    /// the directory. A save writes no `MANIFEST`: its cost does not
    /// depend on the store's size.
    #[test]
    fn io_counts_per_operation_are_pinned() {
        let root = Path::new("/memfs/io-counts");
        let fs = Arc::new(MemFs::default());
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        store.save(&record("a1", 1)).expect("save a1");
        let file = |name: &str| fs.read(&root.join(name)).expect("file").len() as u64;
        let lock = format!("{LOCK_HEADER}\npid {}\n", std::process::id()).len() as u64;
        let ok = "ok\n".len() as u64;
        let counts = |writes, bytes, renames, removes, fsyncs| Counts {
            writes,
            bytes,
            renames,
            removes,
            fsyncs,
        };

        let rec = record("a2", 2);
        let got = delta(&fs, || store.save(&rec).expect("save"));
        let payload = write_record(&rec);
        let put = format!("put {:016x} record app a2\n", fnv64(payload.as_bytes())).len() as u64;
        let framed = frame::encode(&payload).len() as u64;
        let bytes = lock + put + framed + ok;
        assert_eq!(got, counts(9, bytes, 1, 1, 1), "save");

        let got = delta(&fs, || {
            store
                .save_artifact("app", "a2", "shg", "graph\n")
                .expect("artifact")
        });
        let put = format!("put {:016x} shg app a2\n", fnv64(b"graph\n")).len() as u64;
        let bytes = lock + put + 6 + ok;
        assert_eq!(got, counts(9, bytes, 1, 1, 1), "save_artifact");

        let got = delta(&fs, || store.delete("app", "a1").expect("delete"));
        let del = "del record app a1\n".len() as u64;
        let bytes = lock + del + ok;
        assert_eq!(got, counts(8, bytes, 0, 2, 1), "delete");

        let got = delta(&fs, || drop(store.compact().expect("compact")));
        let bytes = lock + file(MANIFEST_FILE) + file("JOURNAL");
        assert_eq!(got, counts(6, bytes, 1, 1, 1), "compact");

        let got = delta(&fs, || {
            store
                .update_trust(|l| {
                    l.record_revocation("app/a2", "prune x");
                })
                .expect("trust");
        });
        assert_eq!(
            got,
            counts(5, lock + file(TRUST_FILE), 1, 1, 1),
            "TRUST update"
        );

        let got = delta(&fs, || store.save_facts(&facts()).expect("facts"));
        assert_eq!(
            got,
            counts(5, lock + file(FACTCACHE_FILE), 1, 1, 1),
            "FACTS save"
        );

        let got = delta(&fs, || {
            lease::write_lease_in(&*fs, root, &lease()).expect("lease")
        });
        let framed = frame::encode(&lease().to_text()).len() as u64;
        assert_eq!(got, counts(1, framed, 1, 0, 2), "lease write");
    }

    /// The work-count contract of a save: what it writes depends on the
    /// record, not on how many records the store already holds, and the
    /// folds it pays for now and then stay small next to the record.
    #[test]
    fn save_io_is_independent_of_store_size() {
        let root = Path::new("/memfs/io-scale");
        let fs = Arc::new(MemFs::default());
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        // One save that does not fold (a fold resets the journal, so the
        // save after one does not), the same record each time.
        let save = || delta(&fs, || store.save(&record("probe", 7)).expect("probe"));
        let probe = || {
            Some(save())
                .filter(|got| got.renames == 1)
                .unwrap_or_else(save)
        };
        let before = fs.counts();
        for i in 0..10 {
            store.save(&record(&format!("r{i:04}"), i)).expect("save");
        }
        let small = probe();
        for i in 10..1000 {
            store.save(&record(&format!("r{i:04}"), i)).expect("save");
        }
        let large = probe();
        assert_eq!(
            (small.writes, small.bytes),
            (large.writes, large.bytes),
            "a save into 1 000 records writes more than one into 10"
        );
        // Amortised over the 1 000 saves, folds included.
        let per_save = (fs.counts().bytes - before.bytes) / 1000;
        let framed = frame::encode(&write_record(&record("r0500", 500))).len() as u64;
        assert!(
            per_save <= framed + 1024,
            "{per_save} bytes per save for a {framed}-byte record"
        );
    }

    /// A writer whose store handle predates another process's crash
    /// breaks the dead lock and must settle the dead save first: rolled
    /// forward here, as its new record was in place.
    #[test]
    fn a_dead_writers_intent_is_settled_by_the_next_writer() {
        let root = Path::new("/memfs/dead-writer");
        let fs = Arc::new(MemFs::default());
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        store.save(&record("a1", 1)).expect("save a1");
        // A dead save of a1, cut after its rename: intent, new target,
        // and its LOCK naming a dead pid.
        let payload = write_record(&record("a1", 2));
        Journal::at(&*fs, root)
            .append(&JournalEntry::Put {
                fnv: fnv64(payload.as_bytes()),
                ext: "record".into(),
                app: "app".into(),
                label: "a1".into(),
            })
            .expect("intent");
        let target = root.join("app/a1.record");
        fs.write(&target, frame::encode(&payload).as_bytes())
            .expect("target");
        fs.write(
            &root.join(LOCK_FILE),
            format!("{LOCK_HEADER}\npid {DEAD_PID}\n").as_bytes(),
        )
        .expect("lock");
        store
            .save(&record("a2", 3))
            .expect("save a2 through the old handle");
        let findings = fsck_in(&*fs, root);
        assert!(findings.is_empty(), "after the save: {findings:?}");
        let (again, _) = ExecutionStore::open_in(fs.clone(), root).expect("reopen");
        let findings = fsck_in(&*fs, root);
        assert!(findings.is_empty(), "after a fresh open: {findings:?}");
        assert_eq!(again.load("app", "a1").expect("a1").pairs_tested, 2);
    }

    /// A fold that installs `MANIFEST` but fails to reset the journal
    /// (the process lives on, so no recovery runs) leaves a journal
    /// extending an older manifest. The save it ran in still succeeds,
    /// and the next mutation must fold before it appends, or its entry
    /// would be missing from the index.
    #[test]
    fn a_fold_whose_journal_reset_failed_is_redone_by_the_next_mutation() {
        let root = Path::new("/memfs/failed-reset");
        let base = one_save_short_of_a_fold(root);
        let probe = Arc::new(MemFs::new(base.clone(), None));
        let (store, _) = ExecutionStore::open_in(probe.clone(), root).expect("open");
        store.save(&record("a1", 1)).expect("save a1");
        let log = probe.log();
        let is =
            |k: &usize, what, name: &str| log[*k].what == what && log[*k].path == root.join(name);
        let installed = (0..log.len())
            .find(|k| is(k, "rename", MANIFEST_FILE))
            .expect("the save folds");
        let reset = (installed..log.len())
            .find(|k| is(k, "write", JOURNAL_FILE))
            .expect("the fold resets the journal");

        let fs = Arc::new(MemFs::new(base, Some(Cut::Fail(reset))));
        let (store, _) = ExecutionStore::open_in(fs.clone(), root).expect("open");
        store
            .save(&record("a1", 1))
            .expect("a1 commits before its fold");
        let generation = Manifest::head_generation(&*fs, root).expect("read");
        let journal = Journal::at(&*fs, root);
        assert!(
            !journal
                .extends(generation.expect("a manifest"))
                .expect("read"),
            "the reset failed"
        );
        store.save(&record("a2", 2)).expect("save a2");
        assert!(!fs.dead());
        let view = match store.manifest().expect("view") {
            crate::manifest::ManifestState::Loaded(m) => m,
            other => panic!("{other:?}"),
        };
        assert!(view.lookup("app/a2.record").is_some(), "a2 is not indexed");
        let findings = fsck_in(&*fs, root);
        assert!(findings.is_empty(), "after the save: {findings:?}");
        ExecutionStore::open_in(fs.clone(), root).expect("reopen");
        let findings = fsck_in(&*fs, root);
        assert!(findings.is_empty(), "after a fresh open: {findings:?}");
    }

    #[test]
    fn memfs_models_a_directory_tree() {
        let fs = MemFs::default();
        let dir = PathBuf::from("/memfs/tree");
        assert!(
            fs.write(&dir.join("f"), b"x").is_err(),
            "no parent directory"
        );
        fs.create_dir_all(&dir.join("sub")).expect("mkdir");
        fs.write(&dir.join("f"), b"x").expect("write");
        let mut names = fs.read_dir(&dir).expect("list");
        names.sort();
        assert_eq!(names, [("f".to_string(), false), ("sub".to_string(), true)]);
    }
}
